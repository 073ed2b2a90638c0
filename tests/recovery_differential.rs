//! Recovery equivalence differential: whatever the restart strategy —
//! sequential or parallel replay, full-checkpoint-only or chained
//! incremental checkpoints — recovery must reconstruct the *same*
//! database, byte for byte.
//!
//! A randomized workload (regenerated each round against the live view
//! so the accept rate stays high as the instance drifts) is committed
//! into two stores: one that never checkpoints after creation (the
//! whole tail replays) and one that chains incremental checkpoints
//! mid-run (most of the tail is folded into deltas). Each store is then
//! recovered with 1, 2, and `ncpus` replay threads. All six recovered
//! dumps must equal the live dump exactly — parallel replay commits in
//! sequence order precisely so that base-row order (and hence the dump)
//! is byte-identical to the sequential fold.
//!
//! `RELVU_RECOVERY_TAIL` scales the accepted-update target (default
//! 400) so nightly CI can sweep much longer tails.

use relvu::durability::{DurableDatabase, MemVfs, SyncPolicy, WalOptions};
use relvu::prelude::*;
use relvu_workload::instance_gen;
use relvu_workload::schema_gen::{self, BenchSchema};
use relvu_workload::update_gen::{self, BatchMix, ViewUpdate};

use rand::prelude::*;

const SEED: u64 = 0xD1FF_1983;

fn tail_target() -> usize {
    std::env::var("RELVU_RECOVERY_TAIL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400)
}

/// Generate a deterministic script with at least `target` accepted
/// updates by replaying candidates against a scratch engine and
/// regenerating each round from the drifted view instance.
fn build_script(target: usize) -> (BenchSchema, Relation, Vec<UpdateOp>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let bench = schema_gen::edm_family(2);
    let base = instance_gen::edm_instance(&mut rng, &bench.schema, 60, 8);
    let db = Database::new(bench.schema.clone(), bench.fds.clone(), base.clone()).unwrap();
    db.create_view("staff", bench.x, Some(bench.y), Policy::Exact)
        .unwrap();
    let shared = bench.x & bench.y;
    let mix = BatchMix {
        insert: 8,
        delete: 2,
        replace: 2,
        reject: 1,
    };
    let mut script = Vec::new();
    let mut accepted = 0usize;
    while accepted < target {
        let v = db.reader().snapshot().view_instance("staff").unwrap();
        let batch = update_gen::update_batch(&mut rng, bench.x, shared, &v, 64, mix, 1 << 40);
        for u in batch {
            let op = match u {
                ViewUpdate::Insert(t) => UpdateOp::Insert { t },
                ViewUpdate::Delete(t) => UpdateOp::Delete { t },
                ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
            };
            if db.apply_op("staff", op.clone()).is_ok() {
                accepted += 1;
            }
            script.push(op);
            if accepted >= target {
                break;
            }
        }
    }
    (bench, base, script)
}

fn fresh_db(bench: &BenchSchema, base: &Relation) -> Database {
    let db = Database::new(bench.schema.clone(), bench.fds.clone(), base.clone()).unwrap();
    db.create_view("staff", bench.x, Some(bench.y), Policy::Exact)
        .unwrap();
    db
}

/// Commit the script into a fresh store. `incr_every = Some(n)` chains
/// an incremental checkpoint every `n` accepted updates; `None` leaves
/// the creation-time full checkpoint as the only one, so recovery
/// replays the entire tail.
fn committed_store(
    bench: &BenchSchema,
    base: &Relation,
    script: &[UpdateOp],
    opts: WalOptions,
    incr_every: Option<usize>,
) -> (MemVfs, String, u64, usize) {
    let vfs = MemVfs::new();
    let ddb = DurableDatabase::create(vfs.clone(), fresh_db(bench, base), opts).unwrap();
    let mut accepted = 0usize;
    for op in script {
        match ddb.apply("staff", op.clone()) {
            Ok(_) => accepted += 1,
            Err(relvu::durability::DurabilityError::Engine(_)) => continue,
            Err(e) => panic!("durable apply failed: {e}"),
        }
        if let Some(n) = incr_every {
            if accepted % n == 0 {
                ddb.checkpoint_incremental().unwrap();
            }
        }
    }
    let snap = ddb.reader().snapshot();
    (vfs, snap.dump(), snap.seq(), accepted)
}

fn opts_with(threads: usize, max_delta_chain: usize) -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        segment_bytes: 16 * 1024,
        retain_checkpoints: 2,
        max_delta_chain,
        replay_threads: threads,
        replay_chunk: 64,
        ..WalOptions::default()
    }
}

#[test]
fn all_recovery_strategies_agree_byte_for_byte() {
    let target = tail_target();
    let (bench, base, script) = build_script(target);
    let ncpus = std::thread::available_parallelism().map_or(2, |n| n.get());

    // Store A: full checkpoint at creation only — the whole accepted
    // tail replays at recovery.
    let (vfs_full, dump_full, seq_full, accepted) =
        committed_store(&bench, &base, &script, opts_with(1, 0), None);
    assert!(accepted >= target);

    // Store B: incremental checkpoints chained mid-run.
    let (vfs_incr, dump_incr, seq_incr, _) =
        committed_store(&bench, &base, &script, opts_with(1, 4), Some(25));

    // Identical workload, identical engine: the two live states agree.
    assert_eq!(dump_full, dump_incr);
    assert_eq!(seq_full, seq_incr);

    let mut recovered_chain_used = false;
    for threads in [1, 2, ncpus] {
        for (label, vfs, max_chain) in [("full-only", &vfs_full, 0), ("chained", &vfs_incr, 4)] {
            let (rec, report) =
                DurableDatabase::recover(vfs.crash_image(), opts_with(threads, max_chain))
                    .unwrap_or_else(|e| panic!("{label}/{threads} threads: {e}"));
            let snap = rec.reader().snapshot();
            assert_eq!(
                snap.dump(),
                dump_full,
                "{label} with {threads} replay threads diverged"
            );
            assert_eq!(snap.seq(), seq_full);
            assert_eq!(report.last_seq, seq_full);
            assert_eq!(report.replay_threads, threads);
            rec.check_invariants().unwrap();
            match label {
                // The whole tail replays: every accepted update.
                "full-only" => {
                    assert_eq!(report.records_replayed, accepted as u64);
                    assert!(report.checkpoint_chain.len() == 1);
                }
                // Deltas folded most of the tail into the chain.
                _ => {
                    assert!(
                        report.records_replayed < accepted as u64,
                        "chained store replayed the whole tail"
                    );
                    if report.checkpoint_chain.len() > 1 {
                        recovered_chain_used = true;
                    }
                }
            }
        }
    }
    assert!(
        recovered_chain_used,
        "the chained store never recovered through a delta chain"
    );
}

/// Parallel replay must also agree on the *report*: the same records
/// replayed regardless of thread count, with grouping only affecting
/// scheduling, never outcomes.
#[test]
fn parallel_replay_reports_match_sequential() {
    let (bench, base, script) = build_script(120);
    let (vfs, dump, _, accepted) = committed_store(&bench, &base, &script, opts_with(1, 0), None);

    let (rec_seq, rep_seq) = DurableDatabase::recover(vfs.crash_image(), opts_with(1, 0)).unwrap();
    let (rec_par, rep_par) = DurableDatabase::recover(vfs.crash_image(), opts_with(4, 0)).unwrap();

    assert_eq!(rep_seq.records_replayed, accepted as u64);
    assert_eq!(rep_par.records_replayed, accepted as u64);
    // Sequential: one group per record. Parallel: footprint-disjoint
    // groups, never more than records.
    assert_eq!(rep_seq.replay_groups, accepted as u64);
    assert!(rep_par.replay_groups <= accepted as u64);
    assert!(rep_par.replay_groups > 0);
    assert_eq!(rec_seq.reader().dump(), dump);
    assert_eq!(rec_par.reader().dump(), dump);
}
