//! Snapshot stability: `dump → load → dump` must be byte-identical for
//! random databases — random schemas, Σ, legal bases, and a mix of
//! exact/Test1/Test2 projective views, selection views, and `auto`
//! complement markers. The durability layer's checkpoints reuse this
//! text format verbatim, so its fixpoint property is part of the crash
//! recovery contract (recovering a checkpoint and re-checkpointing must
//! not drift).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::prelude::*;
use relvu::prelude::*;
use relvu_relation::{Attr, CmpOp, Pred};
use relvu_workload::dag_gen::{self, DagConfig, NodePolicy};
use relvu_workload::{instance_gen, schema_gen};

/// Build a random but *valid* database from a seed: every view pair is
/// complementary by construction (declared complements are the minimal
/// complement, which Theorem 1 always accepts).
fn random_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_attrs = rng.gen_range(3..7usize);
    let n_fds = rng.gen_range(0..6);
    let (schema, fds) = schema_gen::random_fds(&mut rng, n_attrs, n_fds, 2);
    let n_rows = rng.gen_range(0..9);
    let base = instance_gen::legal_instance(&mut rng, &schema, &fds, n_rows, 4);
    let db = Database::new(schema.clone(), fds.clone(), base).expect("legal by construction");

    let attrs: Vec<Attr> = schema.attrs().collect();
    let random_x = |rng: &mut StdRng| -> AttrSet {
        let mut x = AttrSet::new();
        while x.is_empty() {
            for a in &attrs {
                if rng.gen_bool(0.5) {
                    x.insert(*a);
                }
            }
        }
        x
    };
    for i in 0..rng.gen_range(0..4usize) {
        let x = random_x(&mut rng);
        let auto = rng.gen_bool(0.5);
        let y = (!auto).then(|| minimal_complement(&schema, &fds, x));
        if rng.gen_bool(0.25) {
            // A selection view: predicate over view attributes only.
            let a = x.first().expect("x nonempty");
            let op = if rng.gen_bool(0.5) {
                CmpOp::Le
            } else {
                CmpOp::Eq
            };
            let pred = Pred::cmp(a, op, rng.gen_range(0..4));
            db.create_selection_view(&format!("s{i}"), x, y, pred)
                .expect("minimal complement is complementary");
        } else {
            let policy = match rng.gen_range(0..3) {
                0 => Policy::Exact,
                1 => Policy::Test1,
                _ => Policy::Test2,
            };
            db.create_view(&format!("v{i}"), x, y, policy)
                .expect("minimal complement is complementary");
        }
    }
    db
}

/// As [`random_db`], then graft a random maintenance DAG (depth ≤ 4,
/// `from` directives, v2 header) on top of it.
fn random_dag_db(seed: u64) -> Database {
    let db = random_db(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let snap = db.snapshot();
    let (schema, fds) = (snap.schema(), snap.fds());
    let attrs: Vec<Attr> = schema.attrs().collect();
    let mut root_x = AttrSet::new();
    while root_x.is_empty() {
        for a in &attrs {
            if rng.gen_bool(0.5) {
                root_x.insert(*a);
            }
        }
    }
    let cfg = DagConfig {
        max_depth: 3,
        max_fanout: 2,
        pred_domain: 4,
        ..DagConfig::default()
    };
    for n in dag_gen::random_dag(&mut rng, &schema, &fds, root_x, &cfg) {
        let name = format!("d{}", n.name);
        let policy = match n.policy {
            NodePolicy::Exact => Policy::Exact,
            NodePolicy::Test1 => Policy::Test1,
            NodePolicy::Test2 => Policy::Test2,
        };
        let parent = n.parent.as_ref().map(|p| format!("d{p}"));
        let r = match (parent, n.pred) {
            (None, None) => db.create_view(&name, n.x, n.y, policy),
            (None, Some(p)) => db.create_selection_view(&name, n.x, n.y, p),
            (Some(par), None) => db.create_view_over(&name, &par, n.x, n.y, policy),
            (Some(par), Some(p)) => db.create_selection_view_over(&name, &par, n.x, n.y, p),
        };
        r.expect("generated DAG nodes register");
    }
    db
}

proptest! {
    /// The dump of a loaded dump is the dump: the text format is a
    /// fixpoint after one round trip.
    #[test]
    fn dump_load_dump_is_byte_identical(seed in 0u64..u64::MAX) {
        let db = random_db(seed);
        let snap = db.snapshot();
        let first = snap.dump();
        let reloaded = match Database::load(&first) {
            Ok(db) => db.snapshot(),
            Err(e) => {
                return Err(TestCaseError::Fail(format!(
                    "dump does not load back (seed {seed}): {e}\n{first}"
                )));
            }
        };
        let second = reloaded.dump();
        prop_assert_eq!(&first, &second, "roundtrip drift for seed {}", seed);

        // And the reloaded database is semantically identical where it
        // counts: same base, same view definitions.
        prop_assert_eq!(snap.base(), reloaded.base());
        prop_assert_eq!(snap.view_names(), reloaded.view_names());
    }

    /// Same fixpoint with a maintenance DAG on top: `from` directives
    /// and the v2 header survive `dump → load → dump` byte-identically,
    /// and parent edges are preserved.
    #[test]
    fn dag_dump_load_dump_is_byte_identical(seed in 0u64..u64::MAX) {
        let db = random_dag_db(seed);
        let snap = db.snapshot();
        let first = snap.dump();
        let reloaded = match Database::load(&first) {
            Ok(db) => db.snapshot(),
            Err(e) => {
                return Err(TestCaseError::Fail(format!(
                    "DAG dump does not load back (seed {seed}): {e}\n{first}"
                )));
            }
        };
        let second = reloaded.dump();
        prop_assert_eq!(&first, &second, "DAG roundtrip drift for seed {}", seed);
        for name in snap.view_names() {
            prop_assert_eq!(
                snap.view_parent(&name).expect("registered"),
                reloaded.view_parent(&name).expect("registered"),
                "parent edge drift for view `{}`", name
            );
        }
    }
}
