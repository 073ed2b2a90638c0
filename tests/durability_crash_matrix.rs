//! The durability contract, checked exhaustively: for EVERY possible
//! crash point in a scripted workload, recovery must reconstruct
//! exactly the prefix of updates whose commit record reached durable
//! storage — never more (no phantom updates), never less (no lost
//! acknowledged updates), and always a Σ-consistent database.
//!
//! The harness is the fault-injecting [`MemVfs`]: it counts mutating
//! storage operations, so a baseline run yields a map from "operation
//! budget `k`" to "updates durably acknowledged by then". The matrix
//! then replays the identical workload once per `k` with a scripted
//! crash, recovers from the crash image, and compares dumps. No real
//! filesystem is involved anywhere.

use relvu::durability::{
    DurabilityError, DurableDatabase, FaultPlan, MemVfs, SyncPolicy, Vfs, WalOptions,
};
use relvu::prelude::*;
use relvu_workload::instance_gen;
use relvu_workload::schema_gen::{self, BenchSchema};
use relvu_workload::update_gen::{self, BatchMix, ViewUpdate};

use rand::prelude::*;

const SEED: u64 = 0xC0DA_1983;
/// The acceptance bar: at least this many updates must commit.
const MIN_ACCEPTED: usize = 64;
/// Checkpoint mid-workload after this many accepted updates, so the
/// matrix crosses checkpoint writes, pruning, and replay-from-ckpt.
const CHECKPOINT_AFTER: usize = 32;

/// Tiny segments force several rotations over the workload.
fn opts() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        segment_bytes: 512,
        ..WalOptions::default()
    }
}

struct Script {
    bench: BenchSchema,
    base: Relation,
    updates: Vec<UpdateOp>,
}

/// One deterministic workload script, reused verbatim by every run.
fn script() -> Script {
    let mut rng = StdRng::seed_from_u64(SEED);
    let bench = schema_gen::edm_family(2);
    let base = instance_gen::edm_instance(&mut rng, &bench.schema, 40, 6);
    let v = instance_gen::view_of(&base, bench.x);
    let shared = bench.x & bench.y;
    let mix = BatchMix {
        insert: 8,
        delete: 1,
        replace: 2,
        reject: 1,
    };
    let updates = update_gen::update_batch(&mut rng, bench.x, shared, &v, 96, mix, 1 << 40)
        .into_iter()
        .map(|u| match u {
            ViewUpdate::Insert(t) => UpdateOp::Insert { t },
            ViewUpdate::Delete(t) => UpdateOp::Delete { t },
            ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
        })
        .collect();
    Script {
        bench,
        base,
        updates,
    }
}

fn fresh_db(s: &Script) -> Database {
    let db = Database::new(s.bench.schema.clone(), s.bench.fds.clone(), s.base.clone()).unwrap();
    db.create_view("staff", s.bench.x, Some(s.bench.y), Policy::Exact)
        .unwrap();
    db
}

/// A durably acknowledged step in the baseline run.
struct Ack {
    /// `MemVfs::write_ops()` when the ack returned — the last storage
    /// operation this step needed.
    ops: u64,
    /// Engine state right after the ack.
    dump: String,
    seq: u64,
    /// Was this step DDL? A DDL's durable point is its checkpoint
    /// *rename*, a few storage ops before the ack returns (old-
    /// checkpoint removal, WAL pruning) — so a crash in that window
    /// legitimately recovers the DDL without its ack.
    ddl: bool,
}

impl Ack {
    /// The step `ddb` just acknowledged, its dump and seq read off one
    /// pinned epoch.
    fn read(ddb: &DurableDatabase<MemVfs>, vfs: &MemVfs, ddl: bool) -> Ack {
        let snap = ddb.reader().snapshot();
        Ack {
            ops: vfs.write_ops(),
            dump: snap.dump(),
            seq: snap.seq(),
            ddl,
        }
    }
}

struct Trace {
    /// Operations consumed by `DurableDatabase::create`.
    ops_created: u64,
    dump_created: String,
    acks: Vec<Ack>,
}

/// Run the scripted workload against `vfs`. Stops at the injected crash
/// (if the plan has one); rejected updates are skipped exactly as a
/// client retry loop would skip them.
fn run(s: &Script, vfs: &MemVfs) -> Trace {
    let ddb = match DurableDatabase::create(vfs.clone(), fresh_db(s), opts()) {
        Ok(d) => d,
        Err(_) => {
            return Trace {
                ops_created: u64::MAX, // creation itself crashed
                dump_created: String::new(),
                acks: Vec::new(),
            };
        }
    };
    let mut trace = Trace {
        ops_created: vfs.write_ops(),
        dump_created: ddb.reader().dump(),
        acks: Vec::new(),
    };
    for op in &s.updates {
        match ddb.apply("staff", op.clone()) {
            Ok(_) => trace.acks.push(Ack::read(&ddb, vfs, false)),
            // An engine rejection consumes no storage ops; skip it.
            Err(DurabilityError::Engine(_)) => continue,
            // The injected crash surfaced (directly or as poisoning).
            Err(_) => return trace,
        }
        if trace.acks.len() == CHECKPOINT_AFTER && ddb.checkpoint().is_err() {
            return trace;
        }
    }
    trace
}

/// For every crash point `k`, recovery must yield exactly the durable
/// prefix of the baseline run.
#[test]
fn recovery_yields_exactly_the_durable_prefix_at_every_crash_point() {
    let s = script();

    // Baseline: no faults, the whole script commits.
    let baseline_vfs = MemVfs::new();
    let baseline = run(&s, &baseline_vfs);
    assert!(
        baseline.acks.len() >= MIN_ACCEPTED,
        "workload too small for the acceptance bar: {} accepted",
        baseline.acks.len()
    );
    let total_ops = baseline_vfs.write_ops();
    let rotated = baseline_vfs
        .list()
        .unwrap()
        .iter()
        .filter(|n| n.starts_with("wal-"))
        .count();
    assert!(rotated >= 2, "workload must span several WAL segments");

    for k in 0..=total_ops {
        let vfs = MemVfs::with_plan(FaultPlan::crash_after(k));
        run(&s, &vfs);
        assert_eq!(vfs.crashed(), k < total_ops, "crash point {k}");
        let image = vfs.crash_image();
        match DurableDatabase::recover(image, opts()) {
            Ok((recovered, report)) => {
                // The durable prefix: every ack whose last storage op
                // fit inside the budget k.
                let (want_dump, want_seq) = baseline
                    .acks
                    .iter()
                    .take_while(|a| a.ops <= k)
                    .last()
                    .map_or((baseline.dump_created.as_str(), 0), |a| {
                        (a.dump.as_str(), a.seq)
                    });
                let snap = recovered.reader().snapshot();
                assert_eq!(
                    snap.dump(),
                    want_dump,
                    "crash point {k}: recovered state is not the durable prefix"
                );
                assert_eq!(
                    snap.seq(),
                    want_seq,
                    "crash point {k}: wrong sequence number"
                );
                recovered
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("crash point {k}: invariants violated: {e}"));
                assert_eq!(
                    report.last_seq, want_seq,
                    "crash point {k}: report disagrees with engine"
                );
            }
            Err(DurabilityError::NoCheckpoint) => {
                // Legitimate only while the initial checkpoint was still
                // being written (create → sync → rename).
                assert!(
                    k < baseline.ops_created,
                    "crash point {k}: store lost its checkpoint after creation"
                );
            }
            Err(e) => panic!("crash point {k}: recovery failed: {e}"),
        }
    }
}

/// A crashed-and-recovered database must keep accepting updates, and
/// the updates must be durable in turn.
#[test]
fn recovered_database_remains_usable() {
    let s = script();
    let vfs = MemVfs::new();
    let baseline = run(&s, &vfs);
    // Crash somewhere past the mid-workload checkpoint.
    let k = baseline.acks[CHECKPOINT_AFTER + 7].ops;
    let crash_vfs = MemVfs::with_plan(FaultPlan::crash_after(k));
    run(&s, &crash_vfs);
    let image = crash_vfs.crash_image();
    let (recovered, _) = DurableDatabase::recover(image.clone(), opts()).unwrap();
    let before = recovered.reader().last_seq();

    // Push the remaining script through the recovered handle.
    let mut accepted = 0;
    for op in &s.updates {
        match recovered.apply("staff", op.clone()) {
            Ok(_) => accepted += 1,
            Err(DurabilityError::Engine(_)) => continue,
            Err(e) => panic!("post-recovery apply failed: {e}"),
        }
    }
    assert!(accepted > 0, "script exhausted before recovery point");
    assert_eq!(recovered.reader().last_seq(), before + accepted);

    // And those post-recovery commits survive another crash.
    let (again, report) = DurableDatabase::recover(image.crash_image(), opts()).unwrap();
    assert_eq!(again.reader().dump(), recovered.reader().dump());
    assert!(report.records_replayed > 0);
    again.check_invariants().unwrap();
}

/// A flipped bit in a non-tail WAL record is mid-log corruption:
/// recovery must refuse with a diagnostic naming the record's offset,
/// not silently truncate acknowledged updates.
#[test]
fn mid_log_bit_flip_is_refused_with_the_record_offset() {
    let s = script();
    let vfs = MemVfs::new();
    // Large segments: the whole log stays in one segment, so every
    // record but the last is structurally "non-tail".
    let big = WalOptions {
        sync: SyncPolicy::Always,
        segment_bytes: 1 << 20,
        ..WalOptions::default()
    };
    let ddb = DurableDatabase::create(vfs.clone(), fresh_db(&s), big).unwrap();
    let mut accepted = 0;
    for op in &s.updates {
        if ddb.apply("staff", op.clone()).is_ok() {
            accepted += 1;
        }
        if accepted == 10 {
            break;
        }
    }
    let scan = relvu::durability::scan(&vfs).unwrap();
    assert_eq!(scan.records.len(), 10);
    let victim = &scan.records[3];
    // Flip one payload bit of the fourth record.
    vfs.flip_bits(
        &victim.segment,
        victim.offset as usize + relvu::durability::FRAME_HEADER + 1,
        0x08,
    );
    match DurableDatabase::recover(vfs.crash_image(), big) {
        Err(DurabilityError::CorruptRecord {
            segment,
            offset,
            detail,
        }) => {
            assert_eq!(segment, victim.segment);
            assert_eq!(offset, victim.offset);
            assert!(detail.contains("checksum"), "diagnostic: {detail}");
        }
        Ok(_) => panic!("corrupt log recovered silently"),
        Err(e) => panic!("wrong error for mid-log corruption: {e}"),
    }
}

/// A short (torn) append is the benign case: the torn tail is truncated,
/// every earlier update survives, and the handle keeps working.
#[test]
fn torn_tail_is_truncated_and_the_prefix_survives() {
    let s = script();
    // Baseline to locate the final append: with `SyncPolicy::Always`
    // each ack ends with its fsync, so the next append is op `ops + 1`.
    let baseline_vfs = MemVfs::new();
    let baseline = run(&s, &baseline_vfs);
    let n = CHECKPOINT_AFTER + 11;
    let torn_op = baseline.acks[n - 1].ops + 1;

    let vfs = MemVfs::with_plan(FaultPlan::short_write(torn_op, 7));
    run(&s, &vfs);
    assert!(vfs.crashed());
    let image = vfs.crash_image();
    let (recovered, report) = DurableDatabase::recover(image.clone(), opts()).unwrap();
    let torn = report.torn_truncated.expect("torn tail detected");
    let snap = recovered.reader().snapshot();
    assert_eq!(snap.dump(), baseline.acks[n - 1].dump);
    assert_eq!(snap.seq(), baseline.acks[n - 1].seq);

    // The truncation really happened on storage.
    let len = image.file_len(&torn.segment).unwrap();
    assert_eq!(len, torn.offset);

    // And the handle accepts new durable updates after the repair.
    let mut accepted = 0;
    for op in &s.updates {
        match recovered.apply("staff", op.clone()) {
            Ok(_) => accepted += 1,
            Err(DurabilityError::Engine(_)) => continue,
            Err(e) => panic!("apply after torn-tail repair failed: {e}"),
        }
        if accepted == 5 {
            break;
        }
    }
    assert_eq!(accepted, 5);
    let (again, _) = DurableDatabase::recover(image.crash_image(), opts()).unwrap();
    assert_eq!(again.reader().dump(), recovered.reader().dump());
}

// ── PR 6: DDL building a maintenance DAG mid-run ────────────────────────

/// A workload step: a view update or a DDL operation growing/shrinking
/// the maintenance DAG.
enum DagStep {
    Up(UpdateOp),
    CreateOver {
        name: &'static str,
        parent: &'static str,
    },
    Drop(&'static str),
}

/// A deterministic workload that assembles a depth-3 chain
/// (`staff → depts → kinds`) *mid-run*, drops and re-grows a leaf, and
/// keeps updating through it all. DDL is durably acknowledged via its
/// checkpoint, so it participates in the crash matrix exactly like an
/// update.
fn dag_script() -> (Script, Vec<DagStep>) {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xDA6);
    let bench = schema_gen::edm_family(2);
    let base = instance_gen::edm_instance(&mut rng, &bench.schema, 24, 5);
    let v = instance_gen::view_of(&base, bench.x);
    let shared = bench.x & bench.y;
    let mix = BatchMix {
        insert: 8,
        delete: 1,
        replace: 2,
        reject: 1,
    };
    let updates: Vec<UpdateOp> =
        update_gen::update_batch(&mut rng, bench.x, shared, &v, 44, mix, 1 << 40)
            .into_iter()
            .map(|u| match u {
                ViewUpdate::Insert(t) => UpdateOp::Insert { t },
                ViewUpdate::Delete(t) => UpdateOp::Delete { t },
                ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
            })
            .collect();
    let mut steps = Vec::new();
    let mut it = updates.into_iter();
    let mut take = |steps: &mut Vec<DagStep>, n: usize| {
        for op in it.by_ref().take(n) {
            steps.push(DagStep::Up(op));
        }
    };
    take(&mut steps, 10);
    steps.push(DagStep::CreateOver {
        name: "depts",
        parent: "staff",
    });
    take(&mut steps, 10);
    steps.push(DagStep::CreateOver {
        name: "kinds",
        parent: "depts",
    });
    take(&mut steps, 10);
    steps.push(DagStep::Drop("kinds"));
    steps.push(DagStep::CreateOver {
        name: "kinds2",
        parent: "depts",
    });
    take(&mut steps, 14);
    (
        Script {
            bench,
            base,
            updates: Vec::new(),
        },
        steps,
    )
}

/// Run the DAG script against `vfs`, recording an ack (op budget, dump,
/// seq) after every durably acknowledged step — update *or* DDL.
fn run_dag(s: &Script, steps: &[DagStep], vfs: &MemVfs) -> Trace {
    let ddb = match DurableDatabase::create(vfs.clone(), fresh_db(s), opts()) {
        Ok(d) => d,
        Err(_) => {
            return Trace {
                ops_created: u64::MAX,
                dump_created: String::new(),
                acks: Vec::new(),
            };
        }
    };
    let d_attr = s.bench.schema.attr("D").expect("D");
    let mut trace = Trace {
        ops_created: vfs.write_ops(),
        dump_created: ddb.reader().dump(),
        acks: Vec::new(),
    };
    for step in steps {
        let (outcome, ddl) = match step {
            DagStep::Up(op) => (ddb.apply("staff", op.clone()).map(|_| ()), false),
            DagStep::CreateOver { name, parent } => (
                ddb.create_view_over(
                    name,
                    parent,
                    AttrSet::singleton(d_attr),
                    None,
                    Policy::Exact,
                ),
                true,
            ),
            DagStep::Drop(name) => (ddb.drop_view(name), true),
        };
        match outcome {
            Ok(()) => trace.acks.push(Ack::read(&ddb, vfs, ddl)),
            Err(DurabilityError::Engine(_)) => continue,
            Err(_) => return trace,
        }
    }
    trace
}

/// Crash at EVERY mutating storage operation of a workload that builds
/// a depth-3 DAG mid-run: recovery must land exactly on the durable
/// prefix — DDL included — and `check_invariants` must verify every
/// node's materialization against a fresh projection of the recovered
/// base.
#[test]
fn dag_ddl_recovery_matrix() {
    let (s, steps) = dag_script();
    let baseline_vfs = MemVfs::new();
    let baseline = run_dag(&s, &steps, &baseline_vfs);
    assert!(
        baseline.acks.len() >= 40,
        "workload too small: {} acked steps",
        baseline.acks.len()
    );
    // The fully-applied workload really holds the DAG.
    let full = Database::load(&baseline.acks.last().unwrap().dump)
        .unwrap()
        .snapshot();
    assert_eq!(
        full.view_parent("kinds2").unwrap().as_deref(),
        Some("depts")
    );
    assert_eq!(full.view_parent("depts").unwrap().as_deref(), Some("staff"));

    let total_ops = baseline_vfs.write_ops();
    for k in 0..=total_ops {
        let vfs = MemVfs::with_plan(FaultPlan::crash_after(k));
        run_dag(&s, &steps, &vfs);
        let image = vfs.crash_image();
        match DurableDatabase::recover(image, opts()) {
            Ok((recovered, _report)) => {
                let idx = baseline.acks.iter().take_while(|a| a.ops <= k).count();
                let want_dump = if idx == 0 {
                    baseline.dump_created.as_str()
                } else {
                    baseline.acks[idx - 1].dump.as_str()
                };
                let got = recovered.reader().dump();
                // A DDL's durable point is its checkpoint *rename*; the
                // ack's op-count is captured after post-rename cleanup
                // (old-checkpoint removal, WAL pruning), so a crash in
                // that window may recover a DDL that was durable but not
                // yet acknowledged. That — and only that — one-ahead
                // state is also acceptable, and only for DDL steps;
                // updates must land exactly on the acked prefix.
                let in_flight_ddl_ok = baseline
                    .acks
                    .get(idx)
                    .is_some_and(|a| a.ddl && got == a.dump);
                assert!(
                    got == want_dump || in_flight_ddl_ok,
                    "crash point {k}: recovered state is neither the durable \
                     prefix nor an in-flight DDL one step ahead of it"
                );
                // Every recovered DAG node must equal a fresh projection
                // (the invariant checker also validates parent edges).
                recovered
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("crash point {k}: invariants violated: {e}"));
            }
            Err(DurabilityError::NoCheckpoint) => {
                assert!(
                    k < baseline.ops_created,
                    "crash point {k}: store lost its checkpoint after creation"
                );
            }
            Err(e) => panic!("crash point {k}: recovery failed: {e}"),
        }
    }
}

// ── PR 8: incremental + background checkpoints ──────────────────────────

use relvu::durability::BgCheckpoint;

/// Chain-friendly options: short delta chains so the op sweep crosses
/// delta writes, full rollovers at the cap, AND chain-aware pruning of
/// both checkpoints and WAL segments.
fn incr_opts() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        segment_bytes: 512,
        retain_checkpoints: 2,
        max_delta_chain: 3,
        ..WalOptions::default()
    }
}

/// Write an incremental checkpoint every this many accepted updates.
const INCR_EVERY: usize = 12;

/// Like `run`, but the mid-workload checkpoints are *incremental*: a
/// delta file chained onto the previous checkpoint every `INCR_EVERY`
/// accepted updates. The crash sweep therefore hits every storage
/// operation of delta writes (tmp, sync, rename), of the full rollover
/// when the chain reaches `max_delta_chain`, and of chain pruning.
fn run_incr(s: &Script, vfs: &MemVfs) -> Trace {
    let ddb = match DurableDatabase::create(vfs.clone(), fresh_db(s), incr_opts()) {
        Ok(d) => d,
        Err(_) => {
            return Trace {
                ops_created: u64::MAX,
                dump_created: String::new(),
                acks: Vec::new(),
            };
        }
    };
    let mut trace = Trace {
        ops_created: vfs.write_ops(),
        dump_created: ddb.reader().dump(),
        acks: Vec::new(),
    };
    for op in &s.updates {
        match ddb.apply("staff", op.clone()) {
            Ok(_) => trace.acks.push(Ack::read(&ddb, vfs, false)),
            Err(DurabilityError::Engine(_)) => continue,
            Err(_) => return trace,
        }
        if trace.acks.len() % INCR_EVERY == 0 && ddb.checkpoint_incremental().is_err() {
            return trace;
        }
    }
    trace
}

/// Crash at EVERY mutating storage operation of a run that checkpoints
/// incrementally: recovery must land exactly on the durable acked
/// prefix. Incremental checkpoints never change engine state, so unlike
/// the DDL matrix there is no "one ahead" tolerance here — a torn delta
/// write, a half-finished chain prune, or a mid-rollover crash must all
/// be invisible.
#[test]
fn incremental_checkpoint_recovery_matrix() {
    let s = script();
    let baseline_vfs = MemVfs::new();
    let baseline = run_incr(&s, &baseline_vfs);
    assert!(
        baseline.acks.len() >= MIN_ACCEPTED,
        "workload too small: {} accepted",
        baseline.acks.len()
    );
    // The run must actually have exercised the chain machinery: delta
    // files, a rollover past the cap, and pruning of a whole chain.
    let files = baseline_vfs.list().unwrap();
    let deltas = files
        .iter()
        .filter(|n| n.starts_with("ckpt-delta-"))
        .count();
    assert!(deltas >= 2, "expected a delta chain, got {files:?}");

    let total_ops = baseline_vfs.write_ops();
    for k in 0..=total_ops {
        let vfs = MemVfs::with_plan(FaultPlan::crash_after(k));
        run_incr(&s, &vfs);
        let image = vfs.crash_image();
        match DurableDatabase::recover(image, incr_opts()) {
            Ok((recovered, report)) => {
                let (want_dump, want_seq) = baseline
                    .acks
                    .iter()
                    .take_while(|a| a.ops <= k)
                    .last()
                    .map_or((baseline.dump_created.as_str(), 0), |a| {
                        (a.dump.as_str(), a.seq)
                    });
                let snap = recovered.reader().snapshot();
                assert_eq!(
                    snap.dump(),
                    want_dump,
                    "crash point {k}: recovered state is not the durable prefix"
                );
                assert_eq!(
                    snap.seq(),
                    want_seq,
                    "crash point {k}: wrong sequence number"
                );
                assert_eq!(report.last_seq, want_seq, "crash point {k}");
                recovered
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("crash point {k}: invariants violated: {e}"));
            }
            Err(DurabilityError::NoCheckpoint) => {
                assert!(
                    k < baseline.ops_created,
                    "crash point {k}: store lost its checkpoint after creation"
                );
            }
            Err(e) => panic!("crash point {k}: recovery failed: {e}"),
        }
    }
}

/// Bit-rot in the newest delta file: recovery must fall back to the
/// longest intact chain prefix and replay the rest of the tail from the
/// WAL — chain-aware pruning guarantees that tail was never pruned.
#[test]
fn torn_delta_checkpoint_falls_back_to_an_intact_restore_point() {
    let s = script();
    let vfs = MemVfs::new();
    let baseline = run_incr(&s, &vfs);
    let final_ack = baseline.acks.last().unwrap();

    let mut deltas: Vec<String> = vfs
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("ckpt-delta-"))
        .collect();
    deltas.sort();
    let victim = deltas.last().unwrap().clone();
    let len = vfs.read(&victim).unwrap().len();
    vfs.flip_bits(&victim, len - 2, 0x01);

    let (recovered, report) = DurableDatabase::recover(vfs.crash_image(), incr_opts()).unwrap();
    assert!(
        report
            .skipped_checkpoints
            .iter()
            .any(|(name, _)| *name == victim),
        "corrupt delta was not skipped: {:?}",
        report.skipped_checkpoints
    );
    assert!(report.checkpoint_seq < final_ack.seq);
    assert!(report.records_replayed > 0, "fallback must replay the gap");
    let snap = recovered.reader().snapshot();
    assert_eq!(snap.dump(), final_ack.dump);
    assert_eq!(snap.seq(), final_ack.seq);
    recovered.check_invariants().unwrap();
}

/// Bit-rot in a MIDDLE link of the live chain: the tip delta itself is
/// intact but its chain is broken, so recovery must walk further back —
/// to the longest prefix of the chain below the corrupt link — and
/// replay a longer WAL tail. Nothing acknowledged may be lost.
#[test]
fn broken_middle_chain_link_falls_back_below_the_break() {
    let s = script();
    let vfs = MemVfs::new();
    let baseline = run_incr(&s, &vfs);
    let final_ack = baseline.acks.last().unwrap();

    let mut deltas: Vec<String> = vfs
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("ckpt-delta-"))
        .collect();
    deltas.sort();
    assert!(deltas.len() >= 2, "need a chain of >= 2 deltas: {deltas:?}");
    let victim = deltas[deltas.len() - 2].clone();
    let len = vfs.read(&victim).unwrap().len();
    vfs.flip_bits(&victim, len - 2, 0x01);

    let (recovered, report) = DurableDatabase::recover(vfs.crash_image(), incr_opts()).unwrap();
    // Both the intact-but-orphaned tip and the corrupt middle link were
    // rejected as restore points.
    assert!(
        report.skipped_checkpoints.len() >= 2,
        "expected tip + middle link skipped: {:?}",
        report.skipped_checkpoints
    );
    assert!(report.records_replayed > 0);
    let snap = recovered.reader().snapshot();
    assert_eq!(snap.dump(), final_ack.dump);
    assert_eq!(snap.seq(), final_ack.seq);
    recovered.check_invariants().unwrap();
}

/// Run the workload with the REAL background checkpointer thread racing
/// the commit loop (tiny byte trigger + 1ms poll: it fires constantly).
fn run_bg(s: &Script, vfs: &MemVfs) -> Trace {
    let mut ddb = match DurableDatabase::create(vfs.clone(), fresh_db(s), incr_opts()) {
        Ok(d) => d,
        Err(_) => {
            return Trace {
                ops_created: u64::MAX,
                dump_created: String::new(),
                acks: Vec::new(),
            };
        }
    };
    ddb.start_background_checkpointer(BgCheckpoint {
        wal_bytes: 256,
        age_ms: 0,
        poll_ms: 1,
    });
    let mut trace = Trace {
        ops_created: vfs.write_ops(),
        dump_created: ddb.reader().dump(),
        acks: Vec::new(),
    };
    for op in &s.updates {
        match ddb.apply("staff", op.clone()) {
            Ok(_) => trace.acks.push(Ack::read(&ddb, vfs, false)),
            Err(DurabilityError::Engine(_)) => continue,
            Err(_) => break,
        }
    }
    ddb.stop_background_checkpointer();
    trace
}

/// Crash while the background checkpointer races the commit path.
/// Thread scheduling makes per-crash-point op attribution
/// nondeterministic, so the assertion is the durability contract
/// itself, checked against the crashed run's OWN acks and the
/// deterministic engine states: recovery loses no acknowledged update,
/// lands on a real workload state (engine replay is deterministic, so
/// seq identifies the state), and satisfies the paper's invariants.
#[test]
fn background_checkpointer_crash_matrix() {
    let s = script();
    // Fault-free bg run sizes the op budget and provides dump-at-seq
    // (single-threaded appliers: every seq 1..=N is some ack's seq).
    let baseline_vfs = MemVfs::new();
    let baseline = run_bg(&s, &baseline_vfs);
    assert!(baseline.acks.len() >= MIN_ACCEPTED);
    let total_ops = baseline_vfs.write_ops();

    let step = (total_ops / 32).max(1);
    let mut k = 0;
    while k <= total_ops {
        let vfs = MemVfs::with_plan(FaultPlan::crash_after(k));
        let trace = run_bg(&s, &vfs);
        let image = vfs.crash_image();
        match DurableDatabase::recover(image, incr_opts()) {
            Ok((recovered, _)) => {
                let got_seq = recovered.reader().last_seq();
                if let Some(last) = trace.acks.last() {
                    assert!(
                        got_seq >= last.seq,
                        "crash point {k}: acked seq {} lost (recovered {got_seq})",
                        last.seq
                    );
                }
                // Engine commits are deterministic across runs, so the
                // state at seq n is the baseline's state at seq n.
                let want = if got_seq == 0 {
                    baseline.dump_created.as_str()
                } else {
                    baseline
                        .acks
                        .iter()
                        .find(|a| a.seq == got_seq)
                        .map(|a| a.dump.as_str())
                        .unwrap_or_else(|| {
                            panic!(
                                "crash point {k}: recovered seq {got_seq} is not a workload state"
                            )
                        })
                };
                assert_eq!(
                    recovered.reader().dump(),
                    want,
                    "crash point {k}: recovered state diverges at seq {got_seq}"
                );
                recovered
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("crash point {k}: invariants violated: {e}"));
            }
            Err(DurabilityError::NoCheckpoint) => {
                assert!(
                    trace.acks.is_empty(),
                    "crash point {k}: acked updates but no checkpoint survives"
                );
            }
            Err(e) => panic!("crash point {k}: recovery failed: {e}"),
        }
        k += step;
    }
}
