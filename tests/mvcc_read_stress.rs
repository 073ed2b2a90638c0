//! MVCC read-path stress: many readers spinning on pinned snapshots
//! against a hot writer, with DDL and a Σ replacement landing mid-run.
//!
//! Every reader asserts, on every pin, that the snapshot is internally
//! consistent — the view instances are exactly the projections of the
//! snapshot's own base, the σ_P/σ_¬P split partitions the instance by
//! the predicate, and the audit log's last entry is the snapshot's seq
//! — and that the sequence numbers it observes never go backwards.
//! Registered-then-dropped views may or may not be visible in any given
//! epoch; `UnknownView` is the only acceptable "absent" signal.
//!
//! Reader counts and run length scale up in release builds (the debug
//! engine runs an O(n) commit oracle that would dominate) and further
//! via `RELVU_STRESS_READERS` / `RELVU_STRESS_MILLIS`, which the nightly
//! CI job raises.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use relvu::engine::{Database, EngineError, Policy};
use relvu::prelude::*;
use relvu::relation::{CmpOp, Pred, Tuple};
use relvu::workload::fixtures;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One full stress round with `readers` concurrent reader threads.
fn stress_round(readers: usize, millis: u64) {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let d = f.schema.attr("Dept").unwrap();
    db.create_view_over("depts", "staff", AttrSet::singleton(d), None, Policy::Exact)
        .unwrap();
    let e = f.schema.attr("Emp").unwrap();
    // Predicate every employee satisfies: the split machinery runs, the
    // writer's toggles all land in σ_P, and σ_¬P stays empty.
    db.create_selection_view(
        "small_staff",
        f.x,
        Some(f.y),
        Pred::cmp(e, CmpOp::Le, u64::MAX),
    )
    .unwrap();

    let dan = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_millis(millis);

    std::thread::scope(|s| {
        let db = &db;
        let stop = &stop;
        let dan = &dan;
        let f = &f;

        // The hot writer: one commit after another until told to stop.
        let writer = s.spawn(move || {
            let mut commits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                db.insert_via("staff", dan.clone()).unwrap();
                db.delete_via("staff", dan.clone()).unwrap();
                commits += 2;
            }
            commits
        });

        // Mid-run DDL churn: register and drop a throwaway view and
        // replace Σ (with itself — still a full revalidate + rebuild),
        // so readers race against DDL's whole-state publishes, not just
        // the incremental publish.
        let ddl = s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.create_view_over("tmp", "staff", AttrSet::singleton(d), None, Policy::Exact)
                    .unwrap();
                std::thread::yield_now();
                db.drop_view("tmp").unwrap();
                db.set_fds(f.fds.clone()).unwrap();
            }
        });

        let handles: Vec<_> = (0..readers)
            .map(|_| {
                s.spawn(move || {
                    let mut last_seq = 0u64;
                    let mut pins = 0u64;
                    while Instant::now() < deadline {
                        let snap = db.snapshot();
                        pins += 1;
                        // Per-reader monotonicity.
                        assert!(
                            snap.seq() >= last_seq,
                            "seq regressed: {} after {last_seq}",
                            snap.seq()
                        );
                        last_seq = snap.seq();
                        let base = snap.base();
                        // Every view the snapshot knows is exactly the
                        // projection of the snapshot's own base.
                        for name in snap.view_names() {
                            let def = match snap.view_def(&name) {
                                Ok(d) => d,
                                Err(EngineError::UnknownView { .. }) => continue,
                                Err(e) => panic!("view_def({name}): {e}"),
                            };
                            let fresh = ops::project(&base, def.x()).unwrap();
                            let (inst, split) = snap.mat_parts(&name).unwrap();
                            assert_eq!(*inst, fresh, "`{name}` torn at seq {}", snap.seq());
                            if let (Some(pred), Some((matching, rest))) = (def.pred(), split) {
                                let x = def.x();
                                assert_eq!(
                                    *matching,
                                    ops::select(&fresh, |t| pred.eval(&x, t)),
                                    "`{name}` σ_P torn at seq {}",
                                    snap.seq()
                                );
                                assert_eq!(
                                    *rest,
                                    ops::select(&fresh, |t| !pred.eval(&x, t)),
                                    "`{name}` σ_¬P torn at seq {}",
                                    snap.seq()
                                );
                            }
                        }
                        // A view dropped in this epoch answers
                        // UnknownView, never a stale instance mismatch.
                        if let Err(e) = snap.view_instance("tmp") {
                            assert!(matches!(e, EngineError::UnknownView { .. }), "{e}");
                        }
                        // The log agrees with the seq: the entry at
                        // `seq` exists in this snapshot and is its tail.
                        if snap.seq() > 0 {
                            let tail = snap.log_range(snap.seq(), 2).entries;
                            assert_eq!(tail.len(), 1, "log tail beyond seq {}", snap.seq());
                            assert_eq!(tail[0].seq, snap.seq());
                        }
                        // Stats are published with the same epoch and
                        // only ever grow.
                        let _ = snap.stats("staff").expect("staff is never dropped");
                    }
                    pins
                })
            })
            .collect();

        let total_pins: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        stop.store(true, Ordering::Relaxed);
        let commits = writer.join().unwrap();
        ddl.join().unwrap();
        assert!(total_pins > 0, "readers never pinned a snapshot");
        assert!(commits > 0, "writer never committed");
    });
}

fn run_millis() -> u64 {
    let default = if cfg!(debug_assertions) { 150 } else { 400 };
    env_usize("RELVU_STRESS_MILLIS", default as usize) as u64
}

#[test]
fn one_reader_vs_hot_writer() {
    stress_round(env_usize("RELVU_STRESS_READERS", 1), run_millis());
}

#[test]
fn eight_readers_vs_hot_writer() {
    stress_round(env_usize("RELVU_STRESS_READERS", 8), run_millis());
}

#[test]
fn thirty_two_readers_vs_hot_writer() {
    stress_round(env_usize("RELVU_STRESS_READERS", 32), run_millis());
}
