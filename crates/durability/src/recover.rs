//! Crash recovery: latest valid checkpoint chain + parallel WAL replay
//! + invariants.
//!
//! Recovery is the inverse of the commit protocol. It loads the newest
//! checkpoint *chain* that validates end-to-end — a full snapshot plus
//! any incremental deltas built on it; a broken link falls the search
//! back to the next older restore point — truncates a torn tail left by
//! an in-flight append, replays every WAL record past the chain tip
//! through the *live* translators (partitioned into footprint-disjoint
//! groups and verified concurrently when more than one replay thread is
//! configured, committing in sequence order so the recovered base-row
//! order is byte-identical to sequential replay), and finally re-checks
//! the paper's invariants on the reconstructed state.

use std::time::{Duration, Instant};

use relvu_core::are_complementary;
use relvu_deps::check::satisfies_fds;
use relvu_engine::{BatchOptions, BatchRequest, Database, EngineSnapshot};
use relvu_relation::ops;

use crate::checkpoint::{self, ChainTip, LoadedChain};
use crate::error::DurabilityError;
use crate::vfs::Vfs;
use crate::wal::{self, ScannedRecord, SyncPolicy, TornKind, TornTail, WalOptions};

/// What recovery did, for diagnostics and tests.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The restore-point file replay started from (the chain tip —
    /// equal to the full checkpoint when no deltas were chained).
    pub checkpoint: String,
    /// The sequence number that restore point reflects.
    pub checkpoint_seq: u64,
    /// Every checkpoint file the restore point loaded, base first: the
    /// full snapshot followed by each chained incremental delta.
    pub checkpoint_chain: Vec<String>,
    /// Newer checkpoints that were skipped as invalid: `(file, reason)`.
    pub skipped_checkpoints: Vec<(String, String)>,
    /// WAL records replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// Footprint-disjoint groups the replayed tail partitioned into
    /// (equals `records_replayed` on the sequential path).
    pub replay_groups: u64,
    /// Threads the replay ran with (1 = the sequential path).
    pub replay_threads: usize,
    /// Wall time of the whole recovery (chain load + replay + checks).
    pub wall: Duration,
    /// Wall time of the WAL replay alone.
    pub replay_wall: Duration,
    /// The torn tail that was truncated away, if one was found.
    pub torn_truncated: Option<TornTail>,
    /// The recovered database's final sequence number.
    pub last_seq: u64,
}

impl RecoveryReport {
    /// True when the truncated tail was a structurally complete record
    /// that failed its checksum. Under `EveryN` / `Never` sync policies
    /// such a record *may* have been acknowledged (an explicit sync or
    /// a rotation could have covered it before the crash), so its loss
    /// deserves operator attention rather than silence. Under
    /// [`SyncPolicy::Always`] recovery refuses to truncate that shape
    /// outright, so this is always `false` there.
    pub fn possibly_lost_acknowledged_record(&self) -> bool {
        matches!(
            &self.torn_truncated,
            Some(t) if t.kind == TornKind::ChecksumFailed
        )
    }
}

/// Recovery output consumed by `DurableDatabase::recover`.
pub(crate) struct Recovered {
    pub db: Database,
    pub report: RecoveryReport,
    /// Where an appender resumes: last WAL segment and its valid length.
    pub wal_resume: Option<(String, u64)>,
    /// The restore point's chain tip — the next incremental checkpoint
    /// builds on this, against the recovered root's length.
    pub chain_tip: ChainTip,
}

/// Run full recovery against a store with default replay options.
/// `sync` is the policy the store was written under: it decides whether
/// a checksum-failed final record can be a torn append (truncatable) or
/// must be media corruption of an acknowledged record (refused).
#[cfg(test)]
pub(crate) fn recover_from<V: Vfs>(
    vfs: &V,
    sync: SyncPolicy,
) -> Result<Recovered, DurabilityError> {
    recover_with(
        vfs,
        &WalOptions {
            sync,
            ..WalOptions::default()
        },
    )
}

/// Run full recovery against a store. Besides the sync policy (see
/// `recover_from`), `opts` controls the replay itself:
/// `replay_threads` (0 = all cores, 1 = sequential), `replay_chunk`
/// (records handed to the partitioner per batch) and `progress_every`
/// (stderr heartbeat cadence, 0 = silent).
pub(crate) fn recover_with<V: Vfs>(
    vfs: &V,
    opts: &WalOptions,
) -> Result<Recovered, DurabilityError> {
    let opts = opts.normalized();
    let started = Instant::now();
    let _timer = relvu_obs::histogram!("durability.recovery.replay_ns").timer();

    // 1. Latest valid restore point: the newest checkpoint — full or
    //    delta — whose whole chain back to a full snapshot validates.
    //    Corruption anywhere in the newest chain is tolerated (that is
    //    why older chains are retained); having no checkpoint is not.
    let ckpts = checkpoint::list_checkpoints(vfs)?;
    if ckpts.is_empty() {
        return Err(DurabilityError::NoCheckpoint);
    }
    let mut skipped = Vec::new();
    let mut loaded: Option<LoadedChain> = None;
    let mut last_err = None;
    for (name, _, _) in ckpts.iter().rev() {
        match checkpoint::load_chain(vfs, name) {
            Ok(c) => {
                loaded = Some(c);
                break;
            }
            Err(e @ DurabilityError::Vfs(_)) => return Err(e),
            Err(e) => {
                skipped.push((name.clone(), e.to_string()));
                last_err = Some(e);
            }
        }
    }
    let Some(chain) = loaded else {
        return Err(last_err.expect("at least one checkpoint was tried"));
    };

    // 2. Scan the WAL; a torn tail is truncated in place so the next
    //    append continues from the last complete record. One exception:
    //    under SyncPolicy::Always every acknowledged record was fsynced
    //    before the ack, and a torn append always shows up as an
    //    *incomplete* frame (partially persisted bytes are a prefix) —
    //    so a complete-but-checksum-failed final record is media
    //    corruption of an acknowledged update, refused exactly like
    //    mid-log corruption instead of silently truncated.
    let scan = wal::scan(vfs)?;
    if let Some(torn) = &scan.torn {
        if torn.kind == TornKind::ChecksumFailed && opts.sync == SyncPolicy::Always {
            return Err(DurabilityError::CorruptRecord {
                segment: torn.segment.clone(),
                offset: torn.offset,
                detail: "checksum mismatch on the final record; under SyncPolicy::Always \
                         it was fsynced before acknowledgement, so this is media \
                         corruption, not a torn append — refusing to truncate"
                    .to_string(),
            });
        }
        vfs.truncate(&torn.segment, torn.offset)?;
        relvu_obs::counter!("durability.recovery.torn_truncations").inc();
    }

    // 3. Replay records newer than the restore point through the
    //    engine. `scan` already proved the records form one contiguous
    //    run of sequence numbers, so only the boundary needs checking:
    //    the first record past the tip must be tip + 1.
    let db = chain.db;
    let tail: Vec<&ScannedRecord> = scan
        .records
        .iter()
        .filter(|r| r.entry.seq > chain.tip.seq)
        .collect();
    if let Some(first) = tail.first() {
        let expected = db.snapshot().seq() + 1;
        if first.entry.seq != expected {
            return Err(DurabilityError::SeqGap {
                expected,
                found: first.entry.seq,
                segment: first.segment.clone(),
                offset: first.offset,
            });
        }
    }
    let threads = if opts.replay_threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.replay_threads
    };
    let replay_started = Instant::now();
    let mut replayed = 0u64;
    let mut groups = 0u64;
    let progress = |replayed: u64| {
        if opts.progress_every > 0 && replayed % opts.progress_every == 0 {
            eprintln!(
                "[recover] replayed {replayed}/{} records ({:.1}s)",
                tail.len(),
                replay_started.elapsed().as_secs_f64()
            );
        }
    };
    if threads <= 1 {
        // Sequential path: one record at a time, each its own group.
        for rec in &tail {
            replay_check(&db, rec)?;
            replayed += 1;
            groups += 1;
            relvu_obs::counter!("durability.recovery.records_replayed").inc();
            progress(replayed);
        }
    } else {
        // Parallel path: hand the tail to the batch partitioner in
        // chunks. It splits each chunk into footprint-disjoint groups,
        // verifies and translates them concurrently, and commits in
        // submission (= sequence) order — so the recovered base-row
        // order is byte-identical to the sequential path.
        let batch_opts = BatchOptions {
            threads: Some(threads),
        };
        for chunk in tail.chunks(opts.replay_chunk) {
            let requests: Vec<BatchRequest> = chunk
                .iter()
                .map(|r| BatchRequest::new(&r.entry.view, r.entry.op.clone()))
                .collect();
            let report = db.apply_batch_parallel(requests, &batch_opts);
            groups += report.stats.groups as u64;
            for (rec, outcome) in chunk.iter().zip(report.outcomes) {
                let entry = &rec.entry;
                let rep = outcome.map_err(|e| DurabilityError::ReplayDivergence {
                    seq: entry.seq,
                    detail: format!("replay rejected an acknowledged update: {e}"),
                })?;
                check_report(entry, &rep)?;
            }
            replayed += chunk.len() as u64;
            relvu_obs::counter!("durability.recovery.records_replayed").add(chunk.len() as u64);
            progress(replayed);
        }
    }
    let replay_wall = replay_started.elapsed();
    relvu_obs::counter!("durability.recover.records").add(replayed);
    relvu_obs::counter!("durability.recover.groups").add(groups);
    relvu_obs::histogram!("durability.recover.verify_ns").record(replay_wall.as_nanos() as u64);

    // 4. The recovered state must satisfy the paper's invariants.
    let snap = db.snapshot();
    check_invariants(&snap)?;

    let last_seq = snap.seq();
    Ok(Recovered {
        db,
        report: RecoveryReport {
            checkpoint: chain
                .chain
                .last()
                .cloned()
                .unwrap_or_else(|| chain.base.clone()),
            checkpoint_seq: chain.tip.seq,
            checkpoint_chain: chain.chain,
            skipped_checkpoints: skipped,
            records_replayed: replayed,
            replay_groups: groups,
            replay_threads: threads,
            wall: started.elapsed(),
            replay_wall,
            torn_truncated: scan.torn,
            last_seq,
        },
        wal_resume: scan.last_segment,
        chain_tip: chain.tip,
    })
}

/// Apply one scanned record sequentially and verify it reproduces the
/// translation recorded at commit time.
fn replay_check(db: &Database, rec: &ScannedRecord) -> Result<(), DurabilityError> {
    let entry = &rec.entry;
    let report = db.apply_op(&entry.view, entry.op.clone())?;
    check_report(entry, &report)
}

/// The replayed update must reproduce exactly what was acknowledged:
/// its log entry — seq, view, op, translation and row counts — equals
/// the recorded one.
fn check_report(
    entry: &relvu_engine::LogEntry,
    report: &relvu_engine::UpdateReport,
) -> Result<(), DurabilityError> {
    if **report != *entry {
        return Err(DurabilityError::ReplayDivergence {
            seq: entry.seq,
            detail: format!("recorded {entry:?}, replay produced {report:?}"),
        });
    }
    Ok(())
}

/// Verify the paper's invariants on one pinned epoch of a database
/// (used after recovery, and exposed for tests and the REPL). Every
/// value checked is read off `snap`, so a check running next to a live
/// writer compares Σ, the base, each view and the log of one commit:
///
/// * the base instance satisfies Σ;
/// * every registered view's `(X, Y)` pair passes Theorem 1's
///   complementarity test under the current Σ, and a selection view's
///   predicate only mentions view attributes;
/// * the dependency DAG is well-formed: every view's parent is itself a
///   registered view, and the child's `X` lies within the parent's
///   (π_X ∘ π_X′ collapsed correctly at registration);
/// * every view's incrementally maintained materialization — rebuilt at
///   checkpoint load, then folded forward delta-by-delta during WAL
///   replay — equals a fresh `π_X(R)` of the recovered base (and, for
///   selection views, the fresh `σ_P`/`σ_¬P` split);
/// * the in-memory log's sequence numbers are contiguous and end at the
///   snapshot's sequence number.
///
/// # Errors
/// [`DurabilityError::InvariantViolation`] naming the first failure.
pub fn check_invariants(snap: &EngineSnapshot) -> Result<(), DurabilityError> {
    let violated = |detail: String| DurabilityError::InvariantViolation { detail };
    let schema = snap.schema();
    let fds = snap.fds();
    let base = snap.base();
    if !satisfies_fds(&base, &fds) {
        return Err(violated("base instance violates Σ".to_string()));
    }
    for name in snap.view_names() {
        let def = snap.view_def(&name)?;
        if !are_complementary(&schema, &fds, def.x(), def.y()) {
            return Err(violated(format!(
                "view `{name}`: X and Y are not complementary under Σ"
            )));
        }
        if let Some(pred) = def.pred() {
            if !pred.attrs().is_subset(&def.x()) {
                return Err(violated(format!(
                    "view `{name}`: selection predicate mentions attributes outside X"
                )));
            }
        }
        if let Some(parent) = def.parent() {
            let pdef = snap.view_def(parent).map_err(|_| {
                violated(format!(
                    "view `{name}`: parent `{parent}` is not a registered view"
                ))
            })?;
            if !def.x().is_subset(&pdef.x()) {
                return Err(violated(format!(
                    "view `{name}`: X is not contained in parent `{parent}`'s X"
                )));
            }
        }
        let (instance, split) = snap.mat_parts(&name)?;
        let fresh = ops::project(&base, def.x())
            .map_err(|e| violated(format!("view `{name}`: projecting π_X failed: {e}")))?;
        if *instance != fresh {
            return Err(violated(format!(
                "view `{name}`: materialized instance diverged from π_X(R)"
            )));
        }
        if let Some((matching, rest)) = split {
            let pred = def.pred().ok_or_else(|| {
                violated(format!("view `{name}`: split present without a predicate"))
            })?;
            let x = def.x();
            if *matching != ops::select(&fresh, |t| pred.eval(&x, t))
                || *rest != ops::select(&fresh, |t| !pred.eval(&x, t))
            {
                return Err(violated(format!(
                    "view `{name}`: materialized σ_P/σ_¬P split diverged"
                )));
            }
        }
    }
    let mut last: Option<u64> = None;
    for entry in snap.log_entries() {
        if let Some(prev) = last {
            if entry.seq != prev + 1 {
                return Err(violated(format!(
                    "log sequence jumps from {prev} to {}",
                    entry.seq
                )));
            }
        }
        last = Some(entry.seq);
    }
    if let Some(last) = last {
        if last != snap.seq() {
            return Err(violated(format!(
                "log ends at seq {last} but the database is at seq {}",
                snap.seq()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{checkpoint_name, write_checkpoint};
    use crate::vfs::MemVfs;
    use crate::wal::{list_segments, Wal, WalOptions};
    use relvu_engine::{Policy, UpdateOp};
    use relvu_relation::Tuple;
    use relvu_workload::fixtures;

    fn seeded() -> (Database, relvu_relation::ValueDict) {
        let f = fixtures::edm();
        let db = Database::new(f.schema, f.fds, f.base).unwrap();
        db.create_view("xy", f.x, Some(f.y), Policy::Exact).unwrap();
        (db, f.dict)
    }

    fn vt(dict: &relvu_relation::ValueDict, e: &str, d: &str) -> Tuple {
        Tuple::new([dict.sym(e), dict.sym(d)])
    }

    #[test]
    fn checkpoint_plus_replay_restores_exact_state() {
        let vfs = MemVfs::new();
        let (db, dict) = seeded();
        write_checkpoint(&vfs, &db).unwrap();
        let mut wal = Wal::new(
            vfs.clone(),
            WalOptions::default(),
            db.snapshot().seq() + 1,
            None,
        );
        // Two view updates after the checkpoint: an insert and a delete,
        // both through `xy` (tuples over X = {Emp, Dept}).
        for op in [
            UpdateOp::Insert {
                t: vt(&dict, "dan", "toys"),
            },
            // Deleting (ada, toys) is translatable: `toys` still occurs
            // in the view via bob, so no complement info is lost.
            UpdateOp::Delete {
                t: vt(&dict, "ada", "toys"),
            },
        ] {
            let entry = db.apply_op("xy", op).unwrap();
            wal.append(&entry).unwrap();
        }
        let live = db.snapshot();
        let recovered = recover_from(&vfs, SyncPolicy::Always).unwrap();
        let snap = recovered.db.snapshot();
        assert_eq!(snap.dump(), live.dump());
        assert_eq!(recovered.report.records_replayed, 2);
        assert_eq!(snap.seq(), live.seq());
        assert!(recovered.report.torn_truncated.is_none());
    }

    #[test]
    fn no_checkpoint_is_a_hard_error() {
        let vfs = MemVfs::new();
        assert!(matches!(
            recover_from(&vfs, SyncPolicy::Always),
            Err(DurabilityError::NoCheckpoint)
        ));
    }

    /// Build a store whose WAL holds three updates spread over three
    /// segments (segment_bytes = 1 rotates every record), with a second
    /// checkpoint written after the first two. Returns the final engine
    /// state's dump and the two checkpoint seqs.
    fn two_checkpoint_store(vfs: &MemVfs) -> (String, u64, u64) {
        let (db, dict) = seeded();
        let opts = WalOptions {
            segment_bytes: 1,
            ..WalOptions::default()
        };
        let seq_a = write_checkpoint(vfs, &db).unwrap();
        let mut wal = Wal::new(vfs.clone(), opts, db.snapshot().seq() + 1, None);
        let ops = [
            UpdateOp::Insert {
                t: vt(&dict, "dan", "toys"),
            },
            UpdateOp::Delete {
                t: vt(&dict, "ada", "toys"),
            },
            UpdateOp::Insert {
                t: vt(&dict, "eve", "toys"),
            },
        ];
        let mut it = ops.into_iter();
        for op in it.by_ref().take(2) {
            wal.append(&db.apply_op("xy", op).unwrap()).unwrap();
        }
        let seq_b = write_checkpoint(vfs, &db).unwrap();
        for op in it {
            wal.append(&db.apply_op("xy", op).unwrap()).unwrap();
        }
        (db.snapshot().dump(), seq_a, seq_b)
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_with_a_full_replay_tail() {
        let vfs = MemVfs::new();
        let (expected, seq_a, seq_b) = two_checkpoint_store(&vfs);
        // The second checkpoint's pruning must have kept every segment
        // the *older* retained checkpoint needs for replay.
        let first_seg = list_segments(&vfs).unwrap()[0].1;
        assert_eq!(first_seg, seq_a + 1, "fallback replay tail was pruned");
        // Bit-rot the newest checkpoint: recovery must fall back to the
        // spare and replay the full tail, losing nothing.
        let newest = checkpoint_name(seq_b);
        let len = vfs.read(&newest).unwrap().len();
        vfs.flip_bits(&newest, len - 2, 0x01);
        let recovered = recover_from(&vfs, SyncPolicy::Always).unwrap();
        assert_eq!(recovered.report.checkpoint, checkpoint_name(seq_a));
        assert_eq!(recovered.report.skipped_checkpoints.len(), 1);
        assert_eq!(recovered.report.records_replayed, 3);
        assert_eq!(recovered.db.snapshot().dump(), expected);
    }

    #[test]
    fn checksum_failed_tail_is_refused_under_sync_always() {
        let vfs = MemVfs::new();
        two_checkpoint_store(&vfs);
        let (last_seg, _) = list_segments(&vfs).unwrap().pop().unwrap();
        let len = vfs.read(&last_seg).unwrap().len();
        vfs.flip_bits(&last_seg, len - 1, 0x01);
        // Every record was fsynced before its ack: this is media
        // corruption of an acknowledged update, not a torn append.
        match recover_from(&vfs, SyncPolicy::Always) {
            Err(DurabilityError::CorruptRecord { segment, .. }) => {
                assert_eq!(segment, last_seg);
            }
            other => panic!("expected CorruptRecord, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn checksum_failed_tail_truncates_but_is_surfaced_under_weak_policies() {
        let vfs = MemVfs::new();
        let (_, _, seq_b) = two_checkpoint_store(&vfs);
        let (last_seg, _) = list_segments(&vfs).unwrap().pop().unwrap();
        let len = vfs.read(&last_seg).unwrap().len();
        vfs.flip_bits(&last_seg, len - 1, 0x01);
        // Without fsync-per-record the record may or may not have been
        // acknowledged; recovery truncates it but must say so. The
        // newest checkpoint (seq 2) is valid, so the truncated third
        // record was the only replay candidate.
        let recovered = recover_from(&vfs, SyncPolicy::EveryN(8)).unwrap();
        assert_eq!(recovered.report.records_replayed, 0);
        assert_eq!(recovered.report.last_seq, seq_b);
        assert!(recovered.report.possibly_lost_acknowledged_record());
        let torn = recovered.report.torn_truncated.unwrap();
        assert_eq!(torn.kind, TornKind::ChecksumFailed);
    }

    #[test]
    fn invariants_hold_on_the_fixture() {
        let (db, _) = seeded();
        check_invariants(&db.snapshot()).unwrap();
    }
}
