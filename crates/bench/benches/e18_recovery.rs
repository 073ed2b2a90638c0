//! E18 — recovery at scale: restart time vs log length.
//!
//! PR 8 claims a production-scale restart path. Three questions get
//! numbers here:
//!
//! 1. How does recovery time grow with the WAL tail, and how much does
//!    a chained incremental-checkpoint store cut it? Sequential
//!    full-tail replay re-runs every record through the live
//!    translators (re-verifying the Bancilhon–Spyratos translation per
//!    record); a delta chain folds the same commits into raw base-row
//!    edits with one FD check at the end, so the replayed tail shrinks
//!    to the records past the newest delta.
//! 2. What does the replay-thread sweep (1 / 2 / ncpus) buy? (On a
//!    single-core container: nothing — the sweep documents that the
//!    partitioner finds footprint-disjoint groups without changing the
//!    recovered bytes.)
//! 3. What do commits stall while a checkpoint runs? Foreground full
//!    checkpoints quiesce committers for the whole serialization;
//!    the background checkpointer serializes deltas off-lock from a
//!    pinned MVCC snapshot, so the commit p99 should barely move.
//!
//! `RELVU_E18_TAIL` scales the headline tail (default 100 000 accepted
//! records — a few minutes in release mode; set it lower for a smoke
//! run).
//!
//! ```sh
//! cargo bench -p relvu-bench --bench e18_recovery
//! ```

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use rand::prelude::*;
use relvu_bench::edm_workload;
use relvu_durability::{BgCheckpoint, DurableDatabase, MemVfs, SyncPolicy, WalOptions};
use relvu_engine::{Database, Policy, UpdateOp};
use relvu_workload::update_gen::{self, BatchMix, ViewUpdate};

// E14-sized instance: translation is cheap enough that a 100k-record
// tail builds and replays in minutes, and the replace-only mix below
// keeps |V| (hence the per-record cost) flat as the log grows.
const ROWS: usize = 64;
const DEPTS: usize = 32;
const WIDTH: usize = 2;
const RECOVERY_RUNS: usize = 3;
/// Commit-stall section: updates per scenario and the simulated fsync.
const STALL_UPDATES: usize = 1_024;
const STALL_SYNC_DELAY: Duration = Duration::from_millis(1);

fn tail_target() -> usize {
    std::env::var("RELVU_E18_TAIL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

fn fresh_db(w: &relvu_bench::InsertWorkload) -> Database {
    let db = Database::new(w.bench.schema.clone(), w.bench.fds.clone(), w.base.clone())
        .expect("legal base");
    db.create_view("staff", w.bench.x, Some(w.bench.y), Policy::Exact)
        .expect("complementary");
    db
}

/// A deterministic script of exactly `target` *accepted* updates.
/// Candidates are regenerated each round against the drifted live view
/// (a fixed batch would go stale as rows it targets get replaced), and
/// only the ones a scratch engine accepts are kept — so replaying the
/// script on any fresh store accepts every record.
fn build_script(w: &relvu_bench::InsertWorkload, target: usize) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(0xE18_0A17);
    let db = fresh_db(w);
    let shared = w.bench.x & w.bench.y;
    // Replace-only: |V| stays exactly ROWS, so the per-record
    // translation cost is flat across the whole log — recovery time
    // then measures log length, not instance drift.
    let mix = BatchMix {
        insert: 0,
        delete: 0,
        replace: 1,
        reject: 0,
    };
    let mut script = Vec::with_capacity(target);
    while script.len() < target {
        let v = db
            .reader()
            .snapshot()
            .view_instance("staff")
            .expect("view exists");
        let batch = update_gen::update_batch(&mut rng, w.bench.x, shared, &v, 64, mix, 1 << 40);
        for u in batch {
            let op = match u {
                ViewUpdate::Insert(t) => UpdateOp::Insert { t },
                ViewUpdate::Delete(t) => UpdateOp::Delete { t },
                ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
            };
            if db.apply_op("staff", op.clone()).is_ok() {
                script.push(op);
                if script.len() >= target {
                    break;
                }
            }
        }
    }
    script
}

fn store_opts() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Never, // isolate replay cost, not fsync cost
        segment_bytes: 1 << 20,
        retain_checkpoints: 2,
        max_delta_chain: 64,
        replay_chunk: 256,
        ..WalOptions::default()
    }
}

/// Commit `script` into a fresh store. `incr_every = Some(n)` chains an
/// incremental checkpoint every `n` records; `None` leaves the
/// creation-time full checkpoint as the only restore point.
fn commit_store(
    w: &relvu_bench::InsertWorkload,
    script: &[UpdateOp],
    incr_every: Option<usize>,
) -> MemVfs {
    let vfs = MemVfs::new();
    let ddb = DurableDatabase::create(vfs.clone(), fresh_db(w), store_opts()).expect("fresh store");
    for (i, op) in script.iter().enumerate() {
        ddb.apply("staff", op.clone())
            .expect("script records are pre-accepted");
        if let Some(n) = incr_every {
            if (i + 1) % n == 0 {
                ddb.checkpoint_incremental()
                    .expect("incremental checkpoint");
            }
        }
    }
    ddb.sync().expect("final sync");
    vfs
}

fn recover_opts(threads: usize) -> WalOptions {
    WalOptions {
        replay_threads: threads,
        ..store_opts()
    }
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn pctl(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Median recovery wall time over [`RECOVERY_RUNS`]; also returns the
/// last run's report for the replayed-tail breakdown.
fn time_recovery(vfs: &MemVfs, threads: usize) -> (Duration, relvu_durability::RecoveryReport) {
    let mut times = Vec::with_capacity(RECOVERY_RUNS);
    let mut last = None;
    for _ in 0..RECOVERY_RUNS {
        let image = vfs.crash_image();
        let start = Instant::now();
        let (rec, report) =
            DurableDatabase::recover(image, recover_opts(threads)).expect("recovers");
        times.push(start.elapsed());
        black_box(rec.reader().last_seq());
        last = Some(report);
    }
    (median(times), last.expect("at least one run"))
}

/// Commit-stall scenario: apply [`STALL_UPDATES`] records, timing each
/// acknowledged commit, while the given checkpointing regime runs.
enum Regime {
    None,
    ForegroundFull,
    BackgroundIncremental,
}

fn stall_latencies(
    w: &relvu_bench::InsertWorkload,
    script: &[UpdateOp],
    regime: Regime,
) -> Vec<Duration> {
    let vfs = MemVfs::new();
    vfs.set_sync_delay(STALL_SYNC_DELAY);
    let opts = WalOptions {
        sync: SyncPolicy::Always,
        ..store_opts()
    };
    let mut ddb = DurableDatabase::create(vfs, fresh_db(w), opts).expect("fresh store");
    if let Regime::BackgroundIncremental = regime {
        ddb.start_background_checkpointer(BgCheckpoint {
            wal_bytes: 4 * 1024,
            age_ms: 0,
            poll_ms: 1,
        });
    }
    let done = AtomicBool::new(false);
    let mut lat: Vec<Duration> = Vec::with_capacity(script.len());
    thread::scope(|s| {
        if let Regime::ForegroundFull = regime {
            let ddb = &ddb;
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    ddb.checkpoint().expect("foreground checkpoint");
                    thread::sleep(Duration::from_millis(5));
                }
            });
        }
        for op in script {
            let start = Instant::now();
            ddb.apply("staff", op.clone()).expect("pre-accepted");
            lat.push(start.elapsed());
        }
        done.store(true, Ordering::Release);
    });
    ddb.stop_background_checkpointer();
    lat.sort();
    lat
}

fn main() {
    let target = tail_target();
    println!(
        "e18_recovery: |V| = {ROWS}, {DEPTS} depts, |Y−X| = {WIDTH}, \
         headline tail = {target} accepted records, obs enabled = {}",
        relvu_obs::enabled()
    );

    let w = edm_workload(WIDTH, ROWS, DEPTS, 0xE18);
    let build_start = Instant::now();
    let script = build_script(&w, target);
    println!(
        "  script: {} accepted records in {:.2?}",
        script.len(),
        build_start.elapsed()
    );

    // 1. Recovery time vs log length: sequential full-tail replay vs a
    //    chained incremental-checkpoint store, same committed history.
    println!("recovery time vs tail length (median of {RECOVERY_RUNS}, 1 replay thread):");
    let mut big_full: Option<MemVfs> = None;
    for tail in [target / 16, target / 4, target] {
        let slice = &script[..tail];
        // ~32 deltas per chain regardless of tail, so the replayed
        // remainder is always a ~1/32 sliver of the log.
        let ckpt_every = (tail / 32).max(50);
        let vfs_full = commit_store(&w, slice, None);
        let vfs_chain = commit_store(&w, slice, Some(ckpt_every));
        let (t_full, rep_full) = time_recovery(&vfs_full, 1);
        let (t_chain, rep_chain) = time_recovery(&vfs_chain, 1);
        assert_eq!(rep_full.records_replayed, tail as u64);
        println!(
            "  tail {tail:>7}   full-replay {t_full:>9.2?} ({:.0} rec/s)   \
             chained {t_chain:>9.2?} (chain of {}, {} records replayed)   {:.1}x faster",
            tail as f64 / t_full.as_secs_f64(),
            rep_chain.checkpoint_chain.len(),
            rep_chain.records_replayed,
            t_full.as_secs_f64() / t_chain.as_secs_f64(),
        );
        if tail == target {
            big_full = Some(vfs_full);
        }
    }

    // 2. Replay-thread sweep on the headline full-tail store.
    let ncpus = thread::available_parallelism().map_or(1, |n| n.get());
    println!("parallel replay sweep on the {target}-record tail ({ncpus} core(s) visible):");
    let vfs_full = big_full.expect("headline store");
    for threads in [1, 2, ncpus] {
        let (t, rep) = time_recovery(&vfs_full, threads);
        println!(
            "  {threads:>2} thread(s)   {t:>9.2?}   {} records in {} footprint-disjoint group(s)",
            rep.records_replayed, rep.replay_groups,
        );
    }

    // 3. Commit stall p50/p99 under the three checkpoint regimes.
    println!(
        "commit stall, {STALL_UPDATES} records, {STALL_SYNC_DELAY:?} simulated fsync, \
         SyncPolicy::Always:"
    );
    let stall_script = &script[..STALL_UPDATES.min(script.len())];
    for (label, regime) in [
        ("no checkpoints        ", Regime::None),
        ("foreground full ckpts ", Regime::ForegroundFull),
        ("background incremental", Regime::BackgroundIncremental),
    ] {
        let lat = stall_latencies(&w, stall_script, regime);
        println!(
            "  {label}   p50 {:>8.2?}   p99 {:>8.2?}   max {:>8.2?}",
            pctl(&lat, 0.50),
            pctl(&lat, 0.99),
            pctl(&lat, 1.0),
        );
    }
}
