//! Differential oracle for the view-maintenance DAG: registered views
//! over views (random depth ≤ 4, random fan-out, mixed projection/
//! selection nodes, auto and declared complements) must keep **every**
//! node's incrementally maintained materialization equal to a flat
//! recomputation from the current base — after every accepted *and*
//! rejected update at every depth, after mid-run DDL (new children over
//! live nodes, leaf drops), after Σ replacement, after transactional
//! batch rollback, after dump→load, and after crash-recovery replay.
//!
//! The flat recomputation is the correctness anchor: a child's
//! composition collapses (π_X ∘ π_X′ = π_{X∩X′}, predicates conjoined),
//! so its instance must equal `π_X(R)` of the base no matter how many
//! DAG edges the delta traveled through to get there.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::prelude::*;
use relvu::prelude::*;
use relvu_relation::Attr;
use relvu_workload::dag_gen::{self, DagConfig, DagNode, NodePolicy};
use relvu_workload::update_gen::{self, BatchMix, ViewUpdate};
use relvu_workload::{instance_gen, schema_gen};

/// The oracle: every DAG node's materialization equals a fresh
/// projection (and split) recomputed from scratch off the current base.
fn assert_dag_matches_fresh(db: &Database, at: &str) -> Result<(), TestCaseError> {
    let snap = db.snapshot();
    let base = snap.base();
    for name in snap.view_names() {
        let def = snap.view_def(&name).expect("registered");
        // A child's X is within its parent's, so the collapsed
        // composition π_X(parent instance) equals π_X(R) exactly.
        if let Some(parent) = def.parent() {
            let pdef = snap.view_def(parent).expect("parent registered");
            prop_assert!(def.x().is_subset(&pdef.x()), "uncollapsed child X {}", at);
        }
        let fresh = ops::project(&base, def.x()).expect("x within universe");
        let (instance, split) = snap.mat_parts(&name).expect("registered");
        prop_assert_eq!(
            &*instance,
            &fresh,
            "view `{}`: materialized instance diverged from π_X(R) {}",
            name,
            at
        );
        match (def.pred(), split) {
            (Some(pred), Some((matching, rest))) => {
                let x = def.x();
                prop_assert_eq!(
                    &*matching,
                    &ops::select(&fresh, |t| pred.eval(&x, t)),
                    "view `{}`: materialized σ_P diverged {}",
                    name,
                    at
                );
                prop_assert_eq!(
                    &*rest,
                    &ops::select(&fresh, |t| !pred.eval(&x, t)),
                    "view `{}`: materialized σ_¬P diverged {}",
                    name,
                    at
                );
            }
            (None, None) => {}
            _ => {
                return Err(TestCaseError::Fail(format!(
                    "view `{name}`: split present iff selection view, violated {at}"
                )));
            }
        }
    }
    Ok(())
}

fn to_policy(p: NodePolicy) -> Policy {
    match p {
        NodePolicy::Exact => Policy::Exact,
        NodePolicy::Test1 => Policy::Test1,
        NodePolicy::Test2 => Policy::Test2,
    }
}

/// Register one generated node; the generator only emits compositions
/// the engine accepts, so failure is itself a finding.
fn register(db: &Database, n: &DagNode) {
    let r = match (&n.parent, &n.pred) {
        (None, None) => db.create_view(&n.name, n.x, n.y, to_policy(n.policy)),
        (None, Some(p)) => db.create_selection_view(&n.name, n.x, n.y, p.clone()),
        (Some(par), None) => db.create_view_over(&n.name, par, n.x, n.y, to_policy(n.policy)),
        (Some(par), Some(p)) => db.create_selection_view_over(&n.name, par, n.x, n.y, p.clone()),
    };
    r.unwrap_or_else(|e| panic!("registering generated node `{}` failed: {e}", n.name));
}

/// Random valid database carrying a random maintenance DAG of depth ≤ 4.
fn random_dag_db(rng: &mut StdRng) -> Database {
    let n_attrs = rng.gen_range(3..7usize);
    let n_fds = rng.gen_range(0..6);
    let (schema, fds) = schema_gen::random_fds(rng, n_attrs, n_fds, 2);
    let n_rows = rng.gen_range(1..9);
    let base = instance_gen::legal_instance(rng, &schema, &fds, n_rows, 4);
    let db = Database::new(schema.clone(), fds.clone(), base).expect("legal by construction");

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
    for node in dag_gen::random_dag(rng, &schema, &fds, root_x, &cfg) {
        register(&db, &node);
    }
    db
}

fn to_op(u: ViewUpdate) -> UpdateOp {
    match u {
        ViewUpdate::Insert(t) => UpdateOp::Insert { t },
        ViewUpdate::Delete(t) => UpdateOp::Delete { t },
        ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
    }
}

/// A short random update stream against one view (children included —
/// an update through a depth-3 node exercises the whole collapsed
/// translation); rejected updates are part of the point.
fn stream_for(rng: &mut StdRng, db: &Database, name: &str, n: usize) -> Vec<UpdateOp> {
    let snap = db.snapshot();
    let def = snap.view_def(name).expect("registered");
    let v = snap.view_instance(name).expect("registered");
    if v.is_empty() {
        return Vec::new();
    }
    update_gen::update_batch(
        rng,
        def.x(),
        def.x() & def.y(),
        &v,
        n,
        BatchMix::default(),
        1 << 40,
    )
    .into_iter()
    .map(to_op)
    .collect()
}

proptest! {
    /// Every DAG node tracks its flat recomputation through every kind
    /// of state transition the engine has.
    #[test]
    fn dag_nodes_track_flat_recomputation(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_dag_db(&mut rng);
        assert_dag_matches_fresh(&db, "after registration")?;

        // 1. Mixed accepted/rejected updates through every node, root
        //    and deep child alike, checking the whole DAG after each.
        for round in 0..2 {
            for name in &db.snapshot().view_names() {
                for op in stream_for(&mut rng, &db, name, 3) {
                    let _ = db.apply_op(name, op);
                    assert_dag_matches_fresh(
                        &db,
                        &format!("after an update via `{name}` (round {round})"),
                    )?;
                }
            }
            // 2. Σ replacement forces the topological full-rebuild path.
            db.set_fds(db.snapshot().fds()).expect("same Σ revalidates");
            assert_dag_matches_fresh(&db, "after set_fds")?;
        }

        // 3. Mid-run DDL: graft a new child onto a random live node
        //    (its full X keeps any composed predicate in scope), then
        //    drop a random leaf.
        let snap = db.snapshot();
        let names = snap.view_names();
        let graft_parent = names[rng.gen_range(0..names.len())].clone();
        let gx = snap.view_def(&graft_parent).expect("registered").x();
        db.create_view_over("grafted", &graft_parent, gx, None, Policy::Exact)
            .expect("full-X child of a live node always composes");
        assert_dag_matches_fresh(&db, "after grafting a child mid-run")?;
        prop_assert!(
            db.drop_view(&graft_parent).is_err(),
            "dropping a node with a live dependent must fail"
        );
        db.drop_view("grafted").expect("leaves drop cleanly");
        assert_dag_matches_fresh(&db, "after dropping a leaf")?;

        // 4. Transactional batch rollback: the unknown-view sentinel
        //    guarantees failure after a possibly-applied prefix.
        let name = &names[0];
        let mut updates: Vec<(String, UpdateOp)> = stream_for(&mut rng, &db, name, 2)
            .into_iter()
            .map(|op| (name.clone(), op))
            .collect();
        updates.push((
            "no_such_view".to_string(),
            UpdateOp::Insert { t: Tuple::new([Value::int(0)]) },
        ));
        prop_assert!(db.apply_batch(updates).is_err());
        assert_dag_matches_fresh(&db, "after batch rollback")?;

        // 5. Dump/load rebuilds the DAG from the snapshot text, parent
        //    edges included.
        let snap = db.snapshot();
        let reloaded = Database::load(&snap.dump()).expect("dump loads");
        let reloaded_snap = reloaded.snapshot();
        for name in &snap.view_names() {
            prop_assert_eq!(
                reloaded_snap.view_parent(name).expect("registered"),
                snap.view_parent(name).expect("registered"),
                "parent edge lost across dump/load"
            );
        }
        assert_dag_matches_fresh(&reloaded, "after dump/load")?;

        // 6. Crash-recovery replay: a durable store, WAL'd updates at
        //    every depth, then recovery — whose invariant check verifies
        //    every node against a fresh projection.
        let vfs = MemVfs::new();
        let durable = DurableDatabase::create(
            vfs.clone(),
            Database::load(&snap.dump()).expect("dump loads"),
            WalOptions::default(),
        )
        .expect("create store");
        for name in &snap.view_names() {
            for op in stream_for(&mut rng, &db, name, 2) {
                let _ = durable.apply(name, op);
            }
        }
        let live = durable.reader().dump();
        drop(durable);
        let (recovered, _report) =
            DurableDatabase::recover(vfs, WalOptions::default()).expect("recovers");
        prop_assert_eq!(recovered.reader().dump(), live, "replay drift (seed {})", seed);
        recovered
            .check_invariants()
            .expect("recovered DAG materializations match fresh projections");
    }
}
