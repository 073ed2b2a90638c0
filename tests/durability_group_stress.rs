//! The group-commit contract under real concurrency: N writer threads
//! hammer one [`DurableDatabase`], and the test checks the three
//! promises the pipeline makes.
//!
//! 1. **Order** — WAL order equals ack order: the sequence number each
//!    `apply` acknowledges locates exactly that thread's operation in
//!    the log, with no interleaving anomalies, under every
//!    [`SyncPolicy`].
//! 2. **Durability** — at sampled crash points, recovery retains every
//!    acknowledged update the policy promised: all of them under
//!    `Always`, all but the last `n - 1` under `EveryN(n)`, a valid
//!    prefix under `Never`.
//! 3. **The gap** — a crash *between* a group's WAL append and its
//!    covering fsync (the window group commit introduces) never
//!    surfaces an unacknowledged update as acknowledged: `crash_after`
//!    inside the window recovers the pre-group state, and a
//!    [`FaultPlan::partial_sync`] that persists only part of the dirty
//!    range recovers a clean sequential prefix of the group.

use std::collections::BTreeSet;
use std::thread;

use relvu::durability::{
    DurabilityError, DurableDatabase, FaultPlan, MemVfs, SyncPolicy, Vfs, WalOptions,
};
use relvu::prelude::*;
use relvu::relation::Tuple;
use relvu_workload::fixtures::{self, EdmFixture};

const WRITERS: usize = 4;
const UPDATES_PER_WRITER: usize = 32;
const TOTAL: u64 = (WRITERS * UPDATES_PER_WRITER) as u64;

fn fresh_engine(f: &EdmFixture) -> Database {
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).expect("legal base");
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .expect("complementary");
    db
}

/// Small segments so the stress crosses several rotations.
fn opts(sync: SyncPolicy) -> WalOptions {
    WalOptions {
        sync,
        segment_bytes: 1024,
        ..WalOptions::default()
    }
}

/// Per-thread operation scripts: every insert hires a unique employee
/// into an existing department, so every update is accepted and the
/// acknowledged count is exact.
fn writer_ops(f: &EdmFixture) -> Vec<Vec<UpdateOp>> {
    let depts = ["toys", "books"];
    (0..WRITERS)
        .map(|t| {
            (0..UPDATES_PER_WRITER)
                .map(|i| UpdateOp::Insert {
                    t: Tuple::new([
                        f.dict.sym(&format!("w{t}e{i}")),
                        f.dict.sym(depts[(t + i) % depts.len()]),
                    ]),
                })
                .collect()
        })
        .collect()
}

/// Run the concurrent workload. Each thread applies its script in
/// order, recording `(acknowledged seq, op)` pairs; a storage error
/// (the injected crash, directly or as poisoning) stops that thread.
fn run_writers(
    ddb: &DurableDatabase<MemVfs>,
    scripts: Vec<Vec<UpdateOp>>,
) -> Vec<Vec<(u64, UpdateOp)>> {
    thread::scope(|s| {
        let handles: Vec<_> = scripts
            .into_iter()
            .map(|ops| {
                s.spawn(move || {
                    let mut acked = Vec::new();
                    for op in ops {
                        match ddb.apply("staff", op.clone()) {
                            Ok(r) => acked.push((r.seq, op)),
                            Err(DurabilityError::Engine(e)) => {
                                panic!("scripted update rejected: {e}")
                            }
                            Err(_) => break,
                        }
                    }
                    acked
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Promise 1: under every policy, the seq an ack carries is exactly
/// where that op sits in the WAL, and each thread's acks are strictly
/// increasing — commit order, ack order, and log order all agree.
#[test]
fn wal_order_matches_ack_order_under_concurrency() {
    for sync in [SyncPolicy::Always, SyncPolicy::EveryN(4), SyncPolicy::Never] {
        let f = fixtures::edm();
        let vfs = MemVfs::new();
        let ddb = DurableDatabase::create(vfs.clone(), fresh_engine(&f), opts(sync)).unwrap();
        let acked = run_writers(&ddb, writer_ops(&f));

        let mut seen = BTreeSet::new();
        for thread_acks in &acked {
            assert_eq!(thread_acks.len(), UPDATES_PER_WRITER, "{sync:?}: lost acks");
            for w in thread_acks.windows(2) {
                assert!(
                    w[0].0 < w[1].0,
                    "{sync:?}: acks out of order within a thread"
                );
            }
            for (seq, _) in thread_acks {
                assert!(seen.insert(*seq), "{sync:?}: seq {seq} acked twice");
            }
        }
        assert_eq!(seen, (1..=TOTAL).collect(), "{sync:?}: seqs not contiguous");

        // Pay any outstanding sync debt, then read the log back.
        ddb.sync().unwrap();
        let scan = relvu::durability::scan(&vfs).unwrap();
        assert_eq!(scan.records.len() as u64, TOTAL, "{sync:?}");
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(
                rec.entry.seq,
                i as u64 + 1,
                "{sync:?}: WAL out of seq order"
            );
            assert_eq!(rec.entry.view, "staff");
        }
        for thread_acks in &acked {
            for (seq, op) in thread_acks {
                assert_eq!(
                    &scan.records[(*seq - 1) as usize].entry.op,
                    op,
                    "{sync:?}: seq {seq} holds a different thread's op"
                );
            }
        }

        // After the explicit sync, a crash loses nothing at all.
        let (recovered, report) = DurableDatabase::recover(vfs.crash_image(), opts(sync)).unwrap();
        assert_eq!(recovered.reader().dump(), ddb.reader().dump(), "{sync:?}");
        assert_eq!(report.last_seq, TOTAL, "{sync:?}");
        recovered.check_invariants().unwrap();
    }
}

/// Promise 2: at sampled crash points under concurrency, recovery keeps
/// every acknowledged update the policy guaranteed. The interleaving
/// (and thus the group sizes) of a crash run is its own, so each run is
/// judged against its own acks, not a baseline's.
#[test]
fn sampled_crashes_never_lose_an_acknowledged_update() {
    for sync in [SyncPolicy::Always, SyncPolicy::EveryN(4), SyncPolicy::Never] {
        let f = fixtures::edm();

        // A clean run bounds the op budget range worth sampling.
        let clean_vfs = MemVfs::new();
        let ddb = DurableDatabase::create(clean_vfs.clone(), fresh_engine(&f), opts(sync)).unwrap();
        let ops_created = clean_vfs.write_ops();
        run_writers(&ddb, writer_ops(&f));
        let total_ops = clean_vfs.write_ops();
        assert!(total_ops > ops_created);

        let ks: BTreeSet<u64> = (1..8)
            .map(|i| ops_created + (total_ops - ops_created) * i / 8)
            .collect();
        for k in ks {
            let vfs = MemVfs::with_plan(FaultPlan::crash_after(k));
            let ddb = DurableDatabase::create(vfs.clone(), fresh_engine(&f), opts(sync)).unwrap();
            let acked = run_writers(&ddb, writer_ops(&f));

            let (recovered, report) =
                DurableDatabase::recover(vfs.crash_image(), opts(sync)).unwrap();
            recovered
                .check_invariants()
                .unwrap_or_else(|e| panic!("{sync:?} k={k}: invariants violated: {e}"));
            assert!(report.last_seq <= TOTAL);

            for (seq, _) in acked.iter().flatten() {
                match sync {
                    SyncPolicy::Always => assert!(
                        *seq <= report.last_seq,
                        "{sync:?} k={k}: acked seq {seq} lost (recovered to {})",
                        report.last_seq
                    ),
                    SyncPolicy::EveryN(n) => assert!(
                        *seq <= report.last_seq + (n - 1),
                        "{sync:?} k={k}: acked seq {seq} beyond the {}-record window \
                         (recovered to {})",
                        n - 1,
                        report.last_seq
                    ),
                    // `Never` promises nothing beyond a valid prefix,
                    // which `check_invariants` above already certified.
                    SyncPolicy::Never => {}
                }
            }
        }
    }
}

/// The scripted batch for the append-to-fsync-gap tests: four accepted
/// hires plus one untranslatable insert (a department with no manager
/// on record), exercised through the durable `apply_batch`, which
/// stages the whole batch as ONE commit group.
fn gap_requests(f: &EdmFixture) -> Vec<BatchRequest> {
    let hire = |e: &str, d: &str| BatchRequest {
        view: "staff".into(),
        op: UpdateOp::Insert {
            t: Tuple::new([f.dict.sym(e), f.dict.sym(d)]),
        },
    };
    vec![
        hire("eve", "toys"),
        hire("fay", "books"),
        hire("gus", "toys"),
        hire("ivy", "lab"), // no manager for "lab" → rejected
        hire("hal", "books"),
    ]
}

/// Promise 3: crashes in the window group commit introduces — after the
/// group's frames are appended but before (or during) the one fsync
/// that covers them — recover to exactly a clean sequential prefix,
/// never a phantom and never a lost ack (nothing in the group was
/// acked yet).
#[test]
fn crash_between_group_append_and_fsync_recovers_a_clean_prefix() {
    let f = fixtures::edm();
    // One big segment: the whole run stays in `wal-1.seg`, so byte
    // offsets in the scan are offsets into a single file.
    let big = WalOptions {
        sync: SyncPolicy::Always,
        segment_bytes: 1 << 20,
        ..WalOptions::default()
    };
    let pre = UpdateOp::Insert {
        t: Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]),
    };
    let batch_opts = BatchOptions { threads: Some(2) };

    // Baseline: locate the group's storage window.
    let vfs = MemVfs::new();
    let ddb = DurableDatabase::create(vfs.clone(), fresh_engine(&f), big).unwrap();
    ddb.apply("staff", pre.clone()).unwrap();
    let ops_before = vfs.write_ops();
    let report = ddb.apply_batch(gap_requests(&f), &batch_opts).unwrap();
    let ops_after = vfs.write_ops();
    let accepted: Vec<UpdateOp> = gap_requests(&f)
        .into_iter()
        .zip(&report.outcomes)
        .filter(|(_, o)| o.is_ok())
        .map(|(r, _)| r.op)
        .collect();
    assert_eq!(accepted.len(), 4, "script drift: {:?}", report.outcomes);
    assert!(ops_after > ops_before, "the group must hit storage");

    // Only the accepted entries reached the WAL, as one group ending in
    // one fsync (op number `ops_after`, under `Always`).
    let scan = relvu::durability::scan(&vfs).unwrap();
    assert_eq!(scan.records.len(), 5); // 1 pre-insert + 4 accepted
    assert!(scan
        .records
        .iter()
        .all(|r| r.segment == scan.records[0].segment));

    // Expected state after each sequential prefix of the group.
    let replay = fresh_engine(&f);
    replay.apply_op("staff", pre).unwrap();
    let mut dumps = vec![replay.snapshot().dump()];
    for op in &accepted {
        replay.apply_op("staff", op.clone()).unwrap();
        dumps.push(replay.snapshot().dump());
    }
    assert_eq!(dumps[4], ddb.reader().dump(), "batch ≠ sequential fold");

    // Re-run the identical script against a faulted store.
    let run = |vfs: &MemVfs| {
        let ddb = DurableDatabase::create(vfs.clone(), fresh_engine(&f), big).unwrap();
        ddb.apply(
            "staff",
            UpdateOp::Insert {
                t: Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]),
            },
        )
        .unwrap();
        ddb.apply_batch(gap_requests(&f), &batch_opts)
    };

    // (a) Every op budget that cuts the group before its fsync — the
    // appends and the fsync itself — recovers the pre-batch state: no
    // frame was synced, so storage never saw the group.
    for k in ops_before..ops_after {
        let vfs = MemVfs::with_plan(FaultPlan::crash_after(k));
        assert!(run(&vfs).is_err(), "k={k}: batch acked despite the crash");
        assert!(vfs.crashed(), "k={k}");
        let (recovered, report) = DurableDatabase::recover(vfs.crash_image(), big).unwrap();
        assert_eq!(
            recovered.reader().dump(),
            dumps[0],
            "k={k}: phantom group member"
        );
        assert_eq!(report.last_seq, 1, "k={k}");
        recovered.check_invariants().unwrap();
    }

    // (b) A partial sync: power fails while the page cache is writing
    // back, persisting only `keep` bytes of the group's dirty range.
    // Recovery must land on a clean sequential prefix — possibly
    // including complete-but-unacknowledged records, never a torn mix.
    let group_start = scan.records[1].offset; // synced_len when the fsync began
    let group_bytes = vfs.file_len(&scan.records[0].segment).unwrap() - group_start;
    let mut prefixes = BTreeSet::new();
    for keep in 0..=group_bytes {
        let vfs = MemVfs::with_plan(FaultPlan::partial_sync(ops_after, keep as usize));
        assert!(
            run(&vfs).is_err(),
            "keep={keep}: batch acked despite the crash"
        );
        assert!(
            vfs.crashed(),
            "keep={keep}: op {ops_after} was not the group's fsync"
        );
        let (recovered, report) = DurableDatabase::recover(vfs.crash_image(), big).unwrap();
        let s = report.last_seq;
        assert!((1..=5).contains(&s), "keep={keep}: seq {s} out of range");
        assert_eq!(
            recovered.reader().dump(),
            dumps[(s - 1) as usize],
            "keep={keep}: not the sequential prefix ending at seq {s}"
        );
        recovered.check_invariants().unwrap();
        prefixes.insert(s);
    }
    // The byte sweep crossed every frame boundary in the group.
    assert_eq!(prefixes, (1..=5).collect(), "sweep missed a prefix length");
}

/// `check_invariants` on a live handle reads one pinned epoch: run next
/// to a writer, every call must pass. Reading Σ, the base, the views
/// and the log from separate epochs let a commit land between two reads
/// and report a violation the engine never had. The writer's op count
/// is fixed because each check copies the whole log.
#[test]
fn check_invariants_on_a_live_handle_sees_one_epoch() {
    const PAIRS: usize = 2_000;
    let f = fixtures::edm();
    let ddb =
        DurableDatabase::create(MemVfs::new(), fresh_engine(&f), opts(SyncPolicy::Never)).unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    let (checks, failures) = thread::scope(|s| {
        s.spawn(|| {
            for i in 0..PAIRS {
                let t = Tuple::new([f.dict.sym(&format!("tmp{i}")), f.dict.sym("toys")]);
                ddb.apply("staff", UpdateOp::Insert { t: t.clone() })
                    .unwrap();
                ddb.apply("staff", UpdateOp::Delete { t }).unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        let (mut checks, mut failures) = (0u64, Vec::new());
        loop {
            let writer_done = done.load(std::sync::atomic::Ordering::Acquire);
            checks += 1;
            if let Err(e) = ddb.check_invariants() {
                failures.push(e.to_string());
            }
            if writer_done {
                break (checks, failures);
            }
        }
    });
    assert!(
        failures.is_empty(),
        "{} of {checks} checks failed, first: {}",
        failures.len(),
        failures[0]
    );
    assert_eq!(ddb.reader().last_seq(), 2 * PAIRS as u64);
}
