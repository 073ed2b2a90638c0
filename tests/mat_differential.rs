//! Differential oracle for incremental view materialization: after
//! every engine operation, each registered view's materialized instance
//! must equal a fresh `π_X(R)` of the current base — and for selection
//! views the materialized `σ_P`/`σ_¬P` split must equal fresh selects —
//! across random schemas, Σ, view mixes (exact/Test1/Test2/selection/
//! auto-complement), accepted *and* rejected update streams, many-row
//! replaces that netting cancels, Σ replacement (`set_fds`),
//! transactional batch rollback, dump/load, and crash-recovery replay.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::prelude::*;
use relvu::prelude::*;
use relvu_relation::{Attr, CmpOp, Pred};
use relvu_workload::update_gen::{self, BatchMix, ViewUpdate};
use relvu_workload::{instance_gen, schema_gen};

/// The oracle: every view's materialization equals a fresh projection
/// (and split) recomputed from scratch off the current base.
fn assert_mats_match_fresh(db: &Database, at: &str) -> Result<(), TestCaseError> {
    let snap = db.snapshot();
    let base = snap.base();
    for name in snap.view_names() {
        let def = snap.view_def(&name).expect("registered");
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

/// Random valid database: same generator shape as
/// `tests/snapshot_roundtrip.rs`, but always with at least one view and
/// a nonempty base so the update generator has rows to riff on.
fn random_db(rng: &mut StdRng) -> Database {
    let n_attrs = rng.gen_range(3..7usize);
    let n_fds = rng.gen_range(0..6);
    let (schema, fds) = schema_gen::random_fds(rng, n_attrs, n_fds, 2);
    let n_rows = rng.gen_range(1..9);
    let base = instance_gen::legal_instance(rng, &schema, &fds, n_rows, 4);
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
    for i in 0..rng.gen_range(1..4usize) {
        let x = random_x(rng);
        let auto = rng.gen_bool(0.5);
        let y = (!auto).then(|| minimal_complement(&schema, &fds, x));
        if rng.gen_bool(0.25) {
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

fn to_op(u: ViewUpdate) -> UpdateOp {
    match u {
        ViewUpdate::Insert(t) => UpdateOp::Insert { t },
        ViewUpdate::Delete(t) => UpdateOp::Delete { t },
        ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
    }
}

/// A short random update stream against one view; rejected updates are
/// part of the point (a rejection must leave the materialization
/// untouched, not half-folded).
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

/// Replaces that move many base rows without changing most of their
/// projections — the shape the netted fold cancels. `t1` is a view
/// tuple whose `X∩Y` value the most base rows carry (the translation
/// moves every one of them), and `t2` copies `t1` except on `X − Y`,
/// where it takes another view tuple's value or a fresh one. Each moved
/// row keeps its `Y` projection, and so its projection on every view
/// inside `Y`.
fn x_preserving_replaces(rng: &mut StdRng, db: &Database, name: &str, n: usize) -> Vec<UpdateOp> {
    let snap = db.snapshot();
    let def = snap.view_def(name).expect("registered");
    let (x, shared) = (def.x(), def.x() & def.y());
    let moved = x - def.y();
    let (v, base) = (snap.view_instance(name).expect("registered"), snap.base());
    if moved.is_empty() || v.is_empty() {
        return Vec::new();
    }
    let u = base.attrs();
    let run = |t: &Tuple| base.iter().filter(|r| r.agrees(&u, t, &x, &shared)).count();
    let mut t1s: Vec<Tuple> = v.rows().to_vec();
    t1s.sort_by_key(|t| std::cmp::Reverse(run(t)));
    t1s.into_iter()
        .take(n)
        .map(|t1| {
            let other = v.row(rng.gen_range(0..v.len()));
            let t2 = Tuple::new(x.iter().map(|a| {
                if !moved.contains(a) {
                    t1.get(&x, a)
                } else if rng.gen_bool(0.5) {
                    other.get(&x, a)
                } else {
                    Value::int(rng.gen_range(1u64 << 40..1 << 41))
                }
            }));
            UpdateOp::Replace { t1: t1.clone(), t2 }
        })
        .collect()
}

proptest! {
    /// Materializations track fresh projections through every kind of
    /// state transition the engine has.
    #[test]
    fn materializations_track_fresh_projections(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_db(&mut rng);
        assert_mats_match_fresh(&db, "after registration")?;
        let names = db.snapshot().view_names();

        // 1. A mixed accepted/rejected singleton-update stream.
        for round in 0..2 {
            for name in &names {
                for op in stream_for(&mut rng, &db, name, 3) {
                    let _ = db.apply_op(name, op);
                    assert_mats_match_fresh(&db, &format!("after an update (round {round})"))?;
                }
            }
            // 1b. Many-row, X-preserving replaces.
            for name in &names {
                for op in x_preserving_replaces(&mut rng, &db, name, 2) {
                    let _ = db.apply_op(name, op);
                    assert_mats_match_fresh(&db, &format!("after an X-preserving replace (round {round})"))?;
                }
            }
            // 2. Σ replacement forces the full-rebuild path even when the
            //    new Σ equals the old one.
            db.set_fds(db.snapshot().fds()).expect("same Σ revalidates");
            assert_mats_match_fresh(&db, "after set_fds")?;
        }

        // 3. Transactional batch rollback: the unknown-view sentinel
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
        assert_mats_match_fresh(&db, "after batch rollback")?;

        // 4. Dump/load rebuilds from the snapshot text.
        let dump = db.snapshot().dump();
        let reloaded = Database::load(&dump).expect("dump loads");
        assert_mats_match_fresh(&reloaded, "after dump/load")?;

        // 5. Crash-recovery replay: a durable store, a few WAL'd updates,
        //    then recovery — whose invariant check verifies every
        //    materialization against a fresh projection, and whose replay
        //    must land on the byte-identical state.
        let vfs = MemVfs::new();
        let durable = DurableDatabase::create(
            vfs.clone(),
            Database::load(&dump).expect("dump loads"),
            WalOptions::default(),
        )
        .expect("create store");
        for name in &names {
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
            .expect("recovered materializations match fresh projections");
    }
}
