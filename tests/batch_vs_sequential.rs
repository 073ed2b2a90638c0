//! Differential oracle for the parallel batch pipeline: for random
//! schemas, bases, policies, mixes and thread counts,
//! [`Database::apply_batch_parallel`] must produce **byte-identical**
//! database state (base, audit log, per-view stats) and per-update
//! outcomes to folding the same requests through the one-at-a-time API
//! in submission order.

use proptest::prelude::*;
use rand::prelude::*;
use relvu::prelude::*;
use relvu_engine::{BatchOptions, BatchRequest, Database, Policy, UpdateOp};
use relvu_workload::update_gen::{self, BatchMix, ViewUpdate};
use relvu_workload::{instance_gen, schema_gen};

/// Build the scenario deterministically from small proptest-chosen
/// parameters: an EDM-family schema, a legal base, and a mixed batch.
struct Scenario {
    schema: Schema,
    fds: FdSet,
    x: AttrSet,
    y: AttrSet,
    policy: Policy,
    base: Relation,
    requests: Vec<BatchRequest>,
}

fn scenario(
    seed: u64,
    width: usize,
    rows: usize,
    depts: usize,
    n: usize,
    policy: Policy,
) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let b = schema_gen::edm_family(width);
    let base = instance_gen::edm_instance(&mut rng, &b.schema, rows, depts);
    let v = instance_gen::view_of(&base, b.x);
    let updates = update_gen::update_batch(
        &mut rng,
        b.x,
        b.x & b.y,
        &v,
        n,
        BatchMix::default(),
        1 << 40,
    );
    let mut requests: Vec<BatchRequest> = updates
        .into_iter()
        .map(|u| {
            BatchRequest::new(
                "staff",
                match u {
                    ViewUpdate::Insert(t) => UpdateOp::Insert { t },
                    ViewUpdate::Delete(t) => UpdateOp::Delete { t },
                    ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
                },
            )
        })
        .collect();
    // Sprinkle in an unknown-view request: it must error in place
    // without disturbing its neighbours.
    if seed % 3 == 0 && !requests.is_empty() {
        let pos = (seed as usize / 3) % requests.len();
        requests.insert(
            pos,
            BatchRequest::new("no_such_view", requests[pos].op.clone()),
        );
    }
    Scenario {
        schema: b.schema,
        fds: b.fds,
        x: b.x,
        y: b.y,
        policy,
        base,
        requests,
    }
}

fn make_db(s: &Scenario) -> Database {
    let db = Database::new(s.schema.clone(), s.fds.clone(), s.base.clone()).expect("legal base");
    db.create_view("staff", s.x, Some(s.y), s.policy)
        .expect("complementary");
    db
}

fn fold_sequential(
    db: &Database,
    reqs: &[BatchRequest],
) -> Vec<Result<relvu_engine::UpdateReport, relvu_engine::EngineError>> {
    reqs.iter()
        .map(|r| match r.op.clone() {
            UpdateOp::Insert { t } => db.insert_via(&r.view, t),
            UpdateOp::Delete { t } => db.delete_via(&r.view, t),
            UpdateOp::Replace { t1, t2 } => db.replace_via(&r.view, t1, t2),
        })
        .collect()
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    (0usize..3).prop_map(|i| [Policy::Exact, Policy::Test1, Policy::Test2][i])
}

proptest! {
    /// The oracle: parallel batch ≡ sequential fold, observationally.
    #[test]
    fn batch_equals_sequential_fold(
        seed in 0u64..1_000_000,
        width in 1usize..4,
        rows in 4usize..28,
        depts in 2usize..7,
        n in 1usize..20,
        threads in 1usize..5,
        policy in arb_policy(),
    ) {
        let s = scenario(seed, width, rows, depts, n, policy);

        let seq_db = make_db(&s);
        let expected = fold_sequential(&seq_db, &s.requests);

        let par_db = make_db(&s);
        let report = par_db.apply_batch_parallel(
            s.requests.clone(),
            &BatchOptions { threads: Some(threads) },
        );

        prop_assert_eq!(&report.outcomes, &expected, "per-update outcomes");
        let (par, seq) = (par_db.snapshot(), seq_db.snapshot());
        prop_assert_eq!(par.base(), seq.base(), "base relation");
        prop_assert_eq!(par.log(), seq.log(), "audit log");
        prop_assert_eq!(
            par.stats("staff").unwrap(),
            seq.stats("staff").unwrap(),
            "per-view stats"
        );
        // Bookkeeping sanity: every known-view request was either
        // speculatively reused or sequentially revalidated.
        let known = s.requests.iter().filter(|r| r.view == "staff").count();
        prop_assert_eq!(report.stats.reused + report.stats.revalidated, known);
        prop_assert!(report.stats.groups <= known.max(1));
    }

    /// Same thing on a schema with an empty-LHS FD (∅ → A), which forces
    /// the batch into its conservative serial mode.
    #[test]
    fn batch_equals_sequential_under_empty_lhs_fd(
        seed in 0u64..100_000,
        n in 1usize..10,
        threads in 1usize..4,
    ) {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let a = schema.attr("A").unwrap();
        let fds = FdSet::new([
            Fd::from_sets(AttrSet::EMPTY, schema.set(["C"]).unwrap()),
            Fd::from_sets(schema.set(["A"]).unwrap(), schema.set(["B"]).unwrap()),
        ]);
        let x = schema.set(["A", "B"]).unwrap();
        let y = schema.set(["B", "C"]).unwrap();
        // All rows share C = 9 (the ∅ → C constant).
        let base = Relation::from_rows(
            schema.universe(),
            (0..4u64).map(|i| Tuple::new([Value::int(i), Value::int(10 + i), Value::int(9)])),
        )
        .unwrap();
        let _ = a;

        let mut rng = StdRng::seed_from_u64(seed);
        let v = relvu_relation::ops::project(&base, x).unwrap();
        let requests: Vec<BatchRequest> = update_gen::update_batch(
            &mut rng, x, x & y, &v, n, BatchMix::default(), 1 << 40,
        )
        .into_iter()
        .map(|u| BatchRequest::new("vw", match u {
            ViewUpdate::Insert(t) => UpdateOp::Insert { t },
            ViewUpdate::Delete(t) => UpdateOp::Delete { t },
            ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
        }))
        .collect();

        let mk = || {
            let db = Database::new(schema.clone(), fds.clone(), base.clone()).unwrap();
            db.create_view("vw", x, Some(y), Policy::Exact).unwrap();
            db
        };
        let seq_db = mk();
        let expected = fold_sequential(&seq_db, &requests);
        let par_db = mk();
        let report = par_db.apply_batch_parallel(
            requests,
            &BatchOptions { threads: Some(threads) },
        );
        prop_assert_eq!(&report.outcomes, &expected);
        let (par, seq) = (par_db.snapshot(), seq_db.snapshot());
        prop_assert_eq!(par.base(), seq.base());
        prop_assert_eq!(par.log(), seq.log());
        prop_assert_eq!(report.stats.reused, 0, "serial mode reuses nothing");
    }
}
