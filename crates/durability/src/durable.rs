//! [`DurableDatabase`]: the engine + WAL + checkpoints, glued together
//! by the commit protocol.
//!
//! The protocol per view update:
//!
//! 1. take the **stage lock** and translate/apply the update in the
//!    engine — a rejected update never reaches the log; the stage lock
//!    serializes engine commit with staging, so commit order, staging
//!    order, and WAL order are all the same order;
//! 2. stage the engine's log entry in the group-commit queue (see
//!    [`crate::group`]) and release the stage lock;
//! 3. wait for a group leader to append the entry — batched with every
//!    other committer staged meanwhile — and pay the sync policy once
//!    for the whole group; only then acknowledge. Under
//!    [`crate::SyncPolicy::Always`] the ack therefore still implies
//!    "fsynced", it just shares the fsync with its group.
//!
//! If the group flush fails, memory is ahead of storage and the handle
//! poisons itself: every later durable operation returns
//! [`DurabilityError::Poisoned`] until the database is re-opened with
//! [`DurableDatabase::recover`], which rebuilds memory *from* storage.
//!
//! DDL (creating views, replacing Σ) is not logged as WAL records; each
//! DDL call drains the commit queue, then checkpoints, so the change is
//! durable before it is acknowledged. If that checkpoint fails the
//! handle poisons itself: the schema change would be live in memory but
//! absent from every durable checkpoint, and acknowledging further
//! updates against it would strand WAL records recovery cannot replay.
//!
//! The wrapped engine is reachable only through the read-only
//! [`EngineReader`] ([`DurableDatabase::reader`]): mutating the engine
//! without writing the WAL is a compile error, not a lost update.
//!
//! Checkpoints come in three flavours. [`DurableDatabase::checkpoint`]
//! quiesces commits and writes a full snapshot. DDL always writes a
//! full snapshot (schema changes are not WAL records, so they must be
//! in a checkpoint before they are acknowledged).
//! [`DurableDatabase::checkpoint_incremental`] writes only what changed
//! since the last checkpoint — a *delta* chained onto it, while the
//! delta stays smaller than the chain's full root, else a full snapshot
//! that starts a new chain — and never takes the stage lock: it pins an
//! MVCC snapshot, makes the WAL durably cover it, and serializes
//! off-lock, so commits keep flowing while it writes.
//! [`DurableDatabase::start_background_checkpointer`] runs that
//! incremental path on a thread, triggered by WAL growth or checkpoint
//! age, bounding replay work at the next restart without stalling the
//! commit path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use relvu_deps::FdSet;
use relvu_engine::{
    BatchOptions, BatchReport, BatchRequest, Database, EngineReader, Policy, SubscribeOptions,
    Subscription, UpdateOp, UpdateReport,
};
use relvu_relation::{AttrSet, Pred};

use crate::checkpoint::{self, ChainTip};
use crate::error::DurabilityError;
use crate::group::GroupCommit;
use crate::recover::{check_invariants, recover_with, RecoveryReport};
use crate::vfs::Vfs;
use crate::wal::{self, SyncPolicy, Wal, WalOptions};

/// A snapshot of the WAL writer's state, for diagnostics (`\wal` in the
/// REPL).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalStatus {
    /// Sequence number the next record will carry.
    pub next_seq: u64,
    /// Records appended through this handle (excludes replayed history).
    pub records_appended: u64,
    /// The open segment and its length, if any.
    pub current_segment: Option<(String, u64)>,
    /// Whether the handle has poisoned itself after a failed append.
    pub poisoned: bool,
    /// The sync policy in force — the *normalized* form (see
    /// [`WalOptions::normalized`]), so this always reports what the
    /// writer actually does.
    pub sync: SyncPolicy,
}

/// Triggers for the background checkpointer
/// ([`DurableDatabase::start_background_checkpointer`]). A checkpoint is
/// written when **either** threshold is crossed; a zero disables that
/// trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BgCheckpoint {
    /// Checkpoint once this many new WAL bytes accumulated since the
    /// last checkpoint (bounds replay *work* at restart).
    pub wal_bytes: u64,
    /// Checkpoint once the last checkpoint is this old (bounds replay
    /// work on slow-trickle workloads).
    pub age_ms: u64,
    /// How often the thread re-evaluates the triggers.
    pub poll_ms: u64,
}

impl Default for BgCheckpoint {
    fn default() -> Self {
        BgCheckpoint {
            wal_bytes: 1 << 20,
            age_ms: 30_000,
            poll_ms: 100,
        }
    }
}

/// The running checkpoint chain: what the next incremental checkpoint
/// builds on, and the state its triggers compare against.
struct CkptChain {
    /// Tip of the durable chain, with the length of its full root — the
    /// byte budget of the next delta. Reset at every full write (create,
    /// DDL, [`DurableDatabase::checkpoint`], chain cap, budget) and
    /// loaded by recovery from the recovered root file.
    tip: ChainTip,
    /// When the tip was written (or loaded, after recovery).
    last_write: Instant,
    /// `Wal::bytes_appended` when the tip was written — WAL growth since
    /// is the background trigger's byte counter.
    wal_bytes_at: u64,
}

/// State shared between the foreground handle and the background
/// checkpointer thread. Lock order: `stage` → `ckpt` → `wal` (the
/// group-commit queue locks `wal` internally and never takes the
/// others).
struct Shared<V: Vfs + Clone> {
    db: Database,
    /// Serializes engine mutation + staging (protocol step 1→2). Held
    /// only for the in-memory part of a commit — never across an fsync —
    /// so translation/commit of the next updates overlaps the current
    /// group's flush.
    stage: Mutex<()>,
    group: GroupCommit,
    wal: Mutex<Wal<V>>,
    ckpt: Mutex<CkptChain>,
    /// True while the background thread is inside a checkpoint write;
    /// lets foreground paths count `durability.ckpt.bg_stalls` when they
    /// block on the `ckpt` lock behind it.
    bg_active: AtomicBool,
    vfs: V,
    opts: WalOptions,
}

/// Stop flag + thread handle for the background checkpointer.
struct BgHandle {
    stop: Arc<(StdMutex<bool>, Condvar)>,
    join: Option<JoinHandle<()>>,
}

/// A [`Database`] whose accepted updates survive crashes.
///
/// Safe to share across threads (`&self` methods throughout): concurrent
/// [`DurableDatabase::apply`] calls commit through the group-commit
/// pipeline, amortizing one fsync over every update staged while the
/// previous fsync was in flight.
pub struct DurableDatabase<V: Vfs + Clone> {
    shared: Arc<Shared<V>>,
    bg: Option<BgHandle>,
}

impl<V: Vfs + Clone> Shared<V> {
    /// Lock the checkpoint chain, counting a stall when the background
    /// checkpointer holds it (the `parking_lot` shim has no `try_lock`,
    /// so the flag is the observable).
    fn lock_chain(&self) -> parking_lot::MutexGuard<'_, CkptChain> {
        if self.bg_active.load(Ordering::Relaxed) {
            relvu_obs::counter!("durability.ckpt.bg_stalls").inc();
        }
        self.ckpt.lock()
    }

    /// Drain the commit queue and hand back the WAL guard (callers hold
    /// the stage lock, so nothing new can stage meanwhile).
    fn quiesce_wal(&self) -> Result<parking_lot::MutexGuard<'_, Wal<V>>, DurabilityError> {
        if self.group.is_poisoned() {
            return Err(DurabilityError::Poisoned);
        }
        self.group.drain(&self.wal)?;
        let wal = self.wal.lock();
        if wal.is_poisoned() {
            return Err(DurabilityError::Poisoned);
        }
        Ok(wal)
    }

    /// Write a full checkpoint of the current (quiesced) state and reset
    /// the chain to it. Callers hold the stage lock; `chain` and `wal`
    /// are the quiesced guards.
    fn full_checkpoint(
        &self,
        chain: &mut CkptChain,
        wal: &mut Wal<V>,
    ) -> Result<u64, DurabilityError> {
        chain.tip =
            checkpoint::write_full(&self.vfs, &self.db.snapshot(), self.opts.retain_checkpoints)?;
        chain.last_write = Instant::now();
        chain.wal_bytes_at = wal.bytes_appended();
        self.db.prune_history_below(chain.tip.seq);
        Ok(chain.tip.seq)
    }

    /// The incremental checkpoint path — shared by
    /// [`DurableDatabase::checkpoint_incremental`] and the background
    /// thread. Never takes the stage lock: commits keep flowing while
    /// the checkpoint serializes from a pinned snapshot.
    ///
    /// A storage failure here poisons the handle: the chain tip on disk
    /// may no longer be what the next delta would have to build on, and
    /// the failed prune may have left the store needing operator
    /// attention — recovery from the durable image is the safe exit.
    fn incremental_checkpoint(&self) -> Result<u64, DurabilityError> {
        if self.group.is_poisoned() {
            return Err(DurabilityError::Poisoned);
        }
        let mut chain = self.lock_chain();
        // Pin the epoch to serialize, then make the WAL durably cover
        // it: every commit visible in the snapshot is staged (engine
        // commit and staging share the stage lock), so draining the
        // queue and paying the sync debt puts each of them on disk. The
        // loop closes the sliver where a commit published but has not
        // finished staging yet.
        let snap = self.db.snapshot();
        let target = snap.seq();
        loop {
            self.group.drain(&self.wal)?;
            let mut wal = self.wal.lock();
            if wal.is_poisoned() {
                return Err(DurabilityError::Poisoned);
            }
            if let Err(e) = wal.sync() {
                self.group.poison();
                return Err(e);
            }
            if wal.next_seq() > target {
                chain.wal_bytes_at = wal.bytes_appended();
                break;
            }
            drop(wal);
            std::thread::yield_now();
        }
        let tip = chain.tip;
        if target == tip.seq {
            // Nothing new to cover; refresh the age trigger only.
            chain.last_write = Instant::now();
            return Ok(target);
        }
        // Chain a delta while the pinned snapshot's history still holds
        // the commits since the tip, the chain is not too long, and the
        // delta body stays under the root's length; otherwise (or when
        // the history was pruned or evicted past the tip) write a full
        // snapshot of the same pinned epoch and start a fresh chain.
        let retain = self.opts.retain_checkpoints;
        let commits = if self.opts.max_delta_chain > 0 && tip.deltas < self.opts.max_delta_chain {
            snap.base_deltas_since(tip.seq)
        } else {
            None
        };
        let wrote = match commits {
            Some(commits) => match checkpoint::write_delta_within(
                &self.vfs,
                target,
                &commits,
                (tip.seq, tip.crc),
                retain,
                tip.root_len,
            ) {
                Ok(Some(crc)) => Ok(ChainTip {
                    seq: target,
                    crc,
                    deltas: tip.deltas + 1,
                    root_len: tip.root_len,
                }),
                Ok(None) => {
                    relvu_obs::counter!("durability.ckpt.full_by_size").inc();
                    checkpoint::write_full(&self.vfs, &snap, retain)
                }
                Err(e) => Err(e),
            },
            None => checkpoint::write_full(&self.vfs, &snap, retain),
        };
        match wrote {
            Ok(tip) => {
                chain.tip = tip;
                chain.last_write = Instant::now();
                self.db.prune_history_below(tip.seq);
                Ok(tip.seq)
            }
            Err(e) => {
                self.wal.lock().poison();
                self.group.poison();
                Err(e)
            }
        }
    }
}

impl<V: Vfs + Clone> DurableDatabase<V> {
    /// Initialize fresh storage around an existing in-memory database:
    /// writes the initial checkpoint, then opens a WAL writer.
    ///
    /// # Errors
    /// [`DurabilityError::AlreadyInitialized`] if the store already
    /// holds a checkpoint or WAL segments (use [`Self::recover`]);
    /// [`DurabilityError::Vfs`] on storage failure.
    pub fn create(vfs: V, db: Database, opts: WalOptions) -> Result<Self, DurabilityError> {
        let opts = opts.normalized();
        let has_ckpt = !checkpoint::list_checkpoints(&vfs)?.is_empty();
        let has_wal = !wal::list_segments(&vfs)?.is_empty();
        if has_ckpt || has_wal {
            return Err(DurabilityError::AlreadyInitialized);
        }
        let tip = checkpoint::write_full(&vfs, &db.snapshot(), opts.retain_checkpoints)?;
        let wal = Wal::new(vfs.clone(), opts, tip.seq + 1, None);
        Ok(DurableDatabase {
            shared: Arc::new(Shared {
                db,
                stage: Mutex::new(()),
                group: GroupCommit::new(),
                wal: Mutex::new(wal),
                ckpt: Mutex::new(CkptChain {
                    tip,
                    last_write: Instant::now(),
                    wal_bytes_at: 0,
                }),
                bg_active: AtomicBool::new(false),
                vfs,
                opts,
            }),
            bg: None,
        })
    }

    /// Re-open a store after a crash (or clean shutdown): loads the
    /// latest valid checkpoint, truncates a torn WAL tail, replays the
    /// log, re-checks invariants, and resumes appending where the log
    /// ends.
    ///
    /// View materializations are rebuilt from scratch when the
    /// checkpoint is loaded and then maintained incrementally through
    /// each replayed record; [`check_invariants`] verifies they match a
    /// fresh projection of the recovered base before the handle is
    /// returned.
    ///
    /// # Errors
    /// [`DurabilityError::NoCheckpoint`] on an uninitialized store;
    /// [`DurabilityError::CorruptRecord`] / [`DurabilityError::SeqGap`]
    /// on mid-log corruption; [`DurabilityError::ReplayDivergence`] or
    /// [`DurabilityError::InvariantViolation`] if the recovered state is
    /// inconsistent.
    pub fn recover(vfs: V, opts: WalOptions) -> Result<(Self, RecoveryReport), DurabilityError> {
        let opts = opts.normalized();
        let recovered = recover_with(&vfs, &opts)?;
        let wal = Wal::new(
            vfs.clone(),
            opts,
            recovered.report.last_seq + 1,
            recovered.wal_resume,
        );
        Ok((
            DurableDatabase {
                shared: Arc::new(Shared {
                    db: recovered.db,
                    stage: Mutex::new(()),
                    group: GroupCommit::new(),
                    wal: Mutex::new(wal),
                    ckpt: Mutex::new(CkptChain {
                        tip: recovered.chain_tip,
                        last_write: Instant::now(),
                        wal_bytes_at: 0,
                    }),
                    bg_active: AtomicBool::new(false),
                    vfs,
                    opts,
                }),
                bg: None,
            },
            recovered.report,
        ))
    }

    /// Apply one view update durably. The update is acknowledged only
    /// after its log entry is in the WAL (and covered by an fsync, under
    /// [`crate::SyncPolicy::Always`]) — the fsync is shared with every
    /// other update committed through the group-commit pipeline
    /// meanwhile, so concurrent callers pay for it once, not once each.
    ///
    /// # Errors
    /// [`DurabilityError::Engine`] if the engine rejects the update
    /// (nothing is staged or logged); [`DurabilityError::Poisoned`] /
    /// [`DurabilityError::Vfs`] / [`DurabilityError::Encode`] on
    /// durability failures — any of which poisons the handle, since the
    /// update is in memory but not (provably) in the log.
    pub fn apply(&self, view: &str, op: UpdateOp) -> Result<UpdateReport, DurabilityError> {
        let s = &*self.shared;
        let (report, slot) = {
            let _stage = s.stage.lock();
            if s.group.is_poisoned() {
                return Err(DurabilityError::Poisoned);
            }
            let report = s.db.apply_op(view, op)?;
            let slot = s.group.enqueue(vec![Arc::clone(&report)]);
            (report, slot)
        };
        s.group.wait(slot, &s.wal)?;
        Ok(report)
    }

    /// Apply a batch of view updates durably through
    /// [`Database::apply_batch_parallel`]: per-request outcomes are
    /// exactly the sequential fold's (rejected requests reject, accepted
    /// ones apply), and **all** accepted entries are staged as one unit
    /// in the group-commit queue — one fsync covers the whole batch
    /// (plus whatever concurrent committers joined the group).
    ///
    /// A batch in which *no* request was accepted touches storage not at
    /// all, exactly like a rejected single update.
    ///
    /// # Errors
    /// Durability failures only ([`DurabilityError::Poisoned`] /
    /// [`DurabilityError::Vfs`] / [`DurabilityError::Encode`]) — engine
    /// rejections are per-request outcomes inside the returned
    /// [`BatchReport`], not errors of the batch.
    pub fn apply_batch(
        &self,
        requests: Vec<BatchRequest>,
        options: &BatchOptions,
    ) -> Result<BatchReport, DurabilityError> {
        let s = &*self.shared;
        let (report, slot) = {
            let _stage = s.stage.lock();
            if s.group.is_poisoned() {
                return Err(DurabilityError::Poisoned);
            }
            let report = s.db.apply_batch_parallel(requests, options);
            // The accepted outcomes are the batch's log entries, in
            // commit order.
            let entries: Vec<_> = report.outcomes.iter().flatten().cloned().collect();
            if entries.is_empty() {
                return Ok(report);
            }
            (report, s.group.enqueue(entries))
        };
        s.group.wait(slot, &s.wal)?;
        Ok(report)
    }

    /// Write a full checkpoint at the current state and prune WAL
    /// segments and old checkpoint chains it makes redundant. Returns
    /// the checkpointed sequence number.
    ///
    /// # Errors
    /// [`DurabilityError::Poisoned`] if the handle is poisoned;
    /// [`DurabilityError::Vfs`] on storage failure.
    pub fn checkpoint(&self) -> Result<u64, DurabilityError> {
        // The stage lock freezes the engine+queue; draining then flushes
        // every staged group, so the snapshot never claims records the
        // WAL does not durably hold.
        let s = &*self.shared;
        let _stage = s.stage.lock();
        let mut chain = s.lock_chain();
        let mut wal = s.quiesce_wal()?;
        // Pay any outstanding sync debt so the checkpoint never claims
        // more than the WAL can prove.
        if let Err(e) = wal.sync() {
            s.group.poison();
            return Err(e);
        }
        s.full_checkpoint(&mut chain, &mut wal)
    }

    /// Write an **incremental** checkpoint: a delta file holding only
    /// the base-row changes since the last checkpoint, chained onto it.
    /// A full snapshot of the same epoch starts a new chain instead when
    /// the delta body would reach the byte length of the chain's full
    /// root (counted by `durability.ckpt.full_by_size`), when the chain
    /// hit [`WalOptions::max_delta_chain`], or when the engine no longer
    /// holds the per-commit deltas. Unlike [`Self::checkpoint`] this never
    /// takes the stage lock: commits keep flowing while the delta
    /// serializes from a pinned snapshot. Returns the sequence number
    /// the chain tip now covers.
    ///
    /// # Errors
    /// [`DurabilityError::Poisoned`] if the handle is poisoned;
    /// [`DurabilityError::Vfs`] on storage failure — which poisons the
    /// handle: a torn delta file above the old tip must never be
    /// extended by a later, healthy-looking delta.
    pub fn checkpoint_incremental(&self) -> Result<u64, DurabilityError> {
        self.shared.incremental_checkpoint()
    }

    /// Checkpoint after a DDL change, with the stage, chain, and WAL
    /// locks held. A failure here poisons the handle: the DDL is live in
    /// memory but in no durable checkpoint, so further acknowledged
    /// updates would append WAL records referencing schema recovery
    /// cannot rebuild. DDL always writes a *full* checkpoint — schema
    /// is not in delta bodies, so the chain restarts at the new schema.
    fn ddl_checkpoint(
        &self,
        chain: &mut CkptChain,
        wal: &mut Wal<V>,
    ) -> Result<(), DurabilityError> {
        let s = &*self.shared;
        // Pay any outstanding sync debt first (wal.sync poisons itself
        // on failure).
        if let Err(e) = wal.sync() {
            s.group.poison();
            return Err(e);
        }
        match s.full_checkpoint(chain, wal) {
            Ok(_) => Ok(()),
            Err(e) => {
                wal.poison();
                s.group.poison();
                Err(e)
            }
        }
    }

    /// Take the chain lock, drain the commit queue, and hand back both
    /// guards — the entry sequence for every DDL wrapper (callers hold
    /// the stage lock already).
    #[allow(clippy::type_complexity)]
    fn quiesce(
        &self,
    ) -> Result<
        (
            parking_lot::MutexGuard<'_, CkptChain>,
            parking_lot::MutexGuard<'_, Wal<V>>,
        ),
        DurabilityError,
    > {
        let s = &*self.shared;
        let chain = s.lock_chain();
        let wal = s.quiesce_wal()?;
        Ok((chain, wal))
    }

    /// Register a projective view durably (DDL checkpoint included).
    ///
    /// # Errors
    /// As [`Database::create_view`], plus durability failures (which
    /// poison the handle — see [`DurabilityError::Poisoned`]).
    pub fn create_view(
        &self,
        name: &str,
        x: AttrSet,
        y: Option<AttrSet>,
        policy: Policy,
    ) -> Result<(), DurabilityError> {
        let _stage = self.shared.stage.lock();
        let (mut chain, mut wal) = self.quiesce()?;
        self.shared.db.create_view(name, x, y, policy)?;
        self.ddl_checkpoint(&mut chain, &mut wal)
    }

    /// Register a selection view durably (DDL checkpoint included).
    ///
    /// # Errors
    /// As [`Database::create_selection_view`], plus durability failures
    /// (which poison the handle — see [`DurabilityError::Poisoned`]).
    pub fn create_selection_view(
        &self,
        name: &str,
        x: AttrSet,
        y: Option<AttrSet>,
        pred: Pred,
    ) -> Result<(), DurabilityError> {
        let _stage = self.shared.stage.lock();
        let (mut chain, mut wal) = self.quiesce()?;
        self.shared.db.create_selection_view(name, x, y, pred)?;
        self.ddl_checkpoint(&mut chain, &mut wal)
    }

    /// Register a projective view over another view durably (DDL
    /// checkpoint included) — see [`Database::create_view_over`].
    ///
    /// # Errors
    /// As [`Database::create_view_over`], plus durability failures
    /// (which poison the handle — see [`DurabilityError::Poisoned`]).
    pub fn create_view_over(
        &self,
        name: &str,
        parent: &str,
        x: AttrSet,
        y: Option<AttrSet>,
        policy: Policy,
    ) -> Result<(), DurabilityError> {
        let _stage = self.shared.stage.lock();
        let (mut chain, mut wal) = self.quiesce()?;
        self.shared
            .db
            .create_view_over(name, parent, x, y, policy)?;
        self.ddl_checkpoint(&mut chain, &mut wal)
    }

    /// Register a selection view over another view durably (DDL
    /// checkpoint included) — see
    /// [`Database::create_selection_view_over`].
    ///
    /// # Errors
    /// As [`Database::create_selection_view_over`], plus durability
    /// failures (which poison the handle — see
    /// [`DurabilityError::Poisoned`]).
    pub fn create_selection_view_over(
        &self,
        name: &str,
        parent: &str,
        x: AttrSet,
        y: Option<AttrSet>,
        pred: Pred,
    ) -> Result<(), DurabilityError> {
        let _stage = self.shared.stage.lock();
        let (mut chain, mut wal) = self.quiesce()?;
        self.shared
            .db
            .create_selection_view_over(name, parent, x, y, pred)?;
        self.ddl_checkpoint(&mut chain, &mut wal)
    }

    /// Drop a dependent-free view durably (DDL checkpoint included).
    ///
    /// # Errors
    /// As [`Database::drop_view`], plus durability failures (which
    /// poison the handle — see [`DurabilityError::Poisoned`]).
    pub fn drop_view(&self, name: &str) -> Result<(), DurabilityError> {
        let _stage = self.shared.stage.lock();
        let (mut chain, mut wal) = self.quiesce()?;
        self.shared.db.drop_view(name)?;
        self.ddl_checkpoint(&mut chain, &mut wal)
    }

    /// Replace Σ durably (DDL checkpoint included).
    ///
    /// # Errors
    /// As [`Database::set_fds`], plus durability failures (which poison
    /// the handle — see [`DurabilityError::Poisoned`]).
    pub fn set_fds(&self, fds: FdSet) -> Result<(), DurabilityError> {
        let _stage = self.shared.stage.lock();
        let (mut chain, mut wal) = self.quiesce()?;
        self.shared.db.set_fds(fds)?;
        self.ddl_checkpoint(&mut chain, &mut wal)
    }

    /// Explicit durability barrier: flush every staged group, then fsync
    /// the WAL's current segment.
    ///
    /// # Errors
    /// [`DurabilityError::Poisoned`] / [`DurabilityError::Vfs`].
    pub fn sync(&self) -> Result<(), DurabilityError> {
        let s = &*self.shared;
        let _stage = s.stage.lock();
        let mut wal = s.quiesce_wal()?;
        if let Err(e) = wal.sync() {
            s.group.poison();
            return Err(e);
        }
        Ok(())
    }

    /// Start the background checkpointer: a thread that watches WAL
    /// growth and checkpoint age and writes incremental checkpoints off
    /// the commit path (see [`Self::checkpoint_incremental`]). Restart
    /// replay work stays bounded without any commit ever paying for a
    /// full snapshot.
    ///
    /// Idempotent: a second call while a checkpointer runs is a no-op.
    /// The thread exits on [`Self::stop_background_checkpointer`], on
    /// drop, or after poisoning the handle on a storage failure
    /// (counted as `durability.ckpt.bg_failures`).
    pub fn start_background_checkpointer(&mut self, cfg: BgCheckpoint)
    where
        V: Send + Sync + 'static,
    {
        if self.bg.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let stop = Arc::new((StdMutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            let (flag, cvar) = &*stop2;
            loop {
                {
                    let stopped = flag.lock().expect("stop flag lock");
                    let (stopped, _) = cvar
                        .wait_timeout(stopped, Duration::from_millis(cfg.poll_ms.max(1)))
                        .expect("stop flag lock");
                    if *stopped {
                        return;
                    }
                }
                let due = {
                    let chain = shared.ckpt.lock();
                    let age_due = cfg.age_ms > 0
                        && chain.last_write.elapsed() >= Duration::from_millis(cfg.age_ms);
                    let bytes_due = cfg.wal_bytes > 0
                        && shared
                            .wal
                            .lock()
                            .bytes_appended()
                            .saturating_sub(chain.wal_bytes_at)
                            >= cfg.wal_bytes;
                    age_due || bytes_due
                };
                if !due {
                    continue;
                }
                shared.bg_active.store(true, Ordering::Relaxed);
                let res = shared.incremental_checkpoint();
                shared.bg_active.store(false, Ordering::Relaxed);
                if let Err(e) = res {
                    // incremental_checkpoint poisoned the handle; this
                    // thread has nothing further to do.
                    relvu_obs::counter!("durability.ckpt.bg_failures").inc();
                    eprintln!("[checkpointer] stopping after failure: {e}");
                    return;
                }
            }
        });
        self.bg = Some(BgHandle {
            stop,
            join: Some(join),
        });
    }

    /// Stop and join the background checkpointer, if one is running. A
    /// checkpoint write in flight completes first — stopping never tears
    /// a delta. Called automatically on drop.
    pub fn stop_background_checkpointer(&mut self) {
        if let Some(mut bg) = self.bg.take() {
            {
                let (flag, cvar) = &*bg.stop;
                *flag.lock().expect("stop flag lock") = true;
                cvar.notify_all();
            }
            if let Some(join) = bg.join.take() {
                let _ = join.join();
            }
        }
    }

    /// True while a background checkpointer thread is attached.
    pub fn background_checkpointer_running(&self) -> bool {
        self.bg
            .as_ref()
            .is_some_and(|bg| bg.join.as_ref().is_some_and(|j| !j.is_finished()))
    }

    /// Re-run the paper's invariants on the current in-memory state.
    ///
    /// # Errors
    /// [`DurabilityError::InvariantViolation`] naming the failure.
    pub fn check_invariants(&self) -> Result<(), DurabilityError> {
        check_invariants(&self.shared.db.snapshot())
    }

    /// The WAL writer's current state.
    pub fn wal_status(&self) -> WalStatus {
        let wal = self.shared.wal.lock();
        WalStatus {
            next_seq: wal.next_seq(),
            records_appended: wal.records_appended(),
            current_segment: wal.current_segment().map(|(n, l)| (n.to_string(), l)),
            poisoned: wal.is_poisoned() || self.shared.group.is_poisoned(),
            sync: wal.options().sync,
        }
    }

    /// The durable checkpoint chain's tip: `(covered seq, deltas past
    /// the full root)` — diagnostics for the REPL and tests.
    pub fn checkpoint_chain(&self) -> (u64, usize) {
        let chain = self.shared.ckpt.lock();
        (chain.tip.seq, chain.tip.deltas)
    }

    /// A **read-only** handle over the wrapped engine: pin a
    /// [`relvu_engine::EngineSnapshot`] with `reader().snapshot()` and
    /// read everything off it, or take `reader().metrics()`.
    ///
    /// This replaces the old `engine()` accessor, which returned
    /// `&Database` and with it the full mutating API — a caller could
    /// `apply_op` / `set_fds` / `create_view` straight into memory,
    /// bypassing the WAL; the divergence was only caught at the *next*
    /// durable apply (as seq-mismatch poisoning) and the unlogged update
    /// was silently lost on recovery. [`EngineReader`] has no mutators,
    /// so that mistake no longer compiles. Use [`Self::apply`],
    /// [`Self::apply_batch`], and the DDL wrappers for anything durable.
    pub fn reader(&self) -> EngineReader<'_> {
        self.shared.db.reader()
    }

    /// Subscribe to a view's delta stream — CDC over this database's
    /// WAL. Events are dispatched at the engine's snapshot publish
    /// point, which the durable apply path reaches *before* releasing
    /// its stage lock and acking, so event order == WAL order == ack
    /// order — including the members of a group-committed batch, whose
    /// events land atomically in batch order.
    ///
    /// Durability nuance per [`SyncPolicy`]: with `Always`,
    /// every event the subscriber sees is already fsync-durable when its
    /// apply call returns; with `EveryN`/`Never`, an event can precede
    /// its fsync, so a crash may roll the store back below seqs a
    /// subscriber already consumed — after recovery, resubscribe with
    /// `SubscribeOptions::from_seq(recovered_seq)` and treat your folded
    /// state above it as provisional.
    ///
    /// Subscriptions do not survive recovery: a recovered database is a
    /// fresh engine, and subscribers must resubscribe. Resuming at the
    /// recovered seq (`reader().last_seq()`) is gapless; resuming below
    /// what the recovered engine covers fails with an explicit
    /// `SubscriptionGap` rather than silently skipping history.
    ///
    /// # Errors
    /// As `relvu_engine::Database::subscribe`.
    pub fn subscribe(
        &self,
        view: &str,
        opts: SubscribeOptions,
    ) -> Result<Subscription, DurabilityError> {
        Ok(self.shared.db.subscribe(view, opts)?)
    }

    /// Subscribe to the base relation's delta stream — see
    /// [`Self::subscribe`].
    ///
    /// # Errors
    /// As `relvu_engine::Database::subscribe_base`.
    pub fn subscribe_base(&self, opts: SubscribeOptions) -> Result<Subscription, DurabilityError> {
        Ok(self.shared.db.subscribe_base(opts)?)
    }

    /// The storage backend (for tests and tooling).
    pub fn vfs(&self) -> &V {
        &self.shared.vfs
    }
}

impl<V: Vfs + Clone> Drop for DurableDatabase<V> {
    fn drop(&mut self) {
        self.stop_background_checkpointer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::VfsError;
    use crate::vfs::{FaultPlan, MemVfs};
    use relvu_relation::Tuple;
    use relvu_workload::fixtures;

    fn seeded() -> (fixtures::EdmFixture, DurableDatabase<MemVfs>, MemVfs) {
        let f = fixtures::edm();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("xy", f.x, Some(f.y), Policy::Exact).unwrap();
        let vfs = MemVfs::new();
        let ddb = DurableDatabase::create(vfs.clone(), db, WalOptions::default()).unwrap();
        (f, ddb, vfs)
    }

    #[test]
    fn failed_ddl_checkpoint_poisons_the_handle() {
        let (f, ddb, vfs) = seeded();
        // Arm the crash at the current op count: the DDL checkpoint's
        // very first storage operation fails.
        vfs.set_plan(FaultPlan::crash_after(vfs.write_ops()));
        let err = ddb
            .create_view("xy2", f.x, Some(f.y), Policy::Exact)
            .unwrap_err();
        assert!(matches!(err, DurabilityError::Vfs(VfsError::Crashed)));
        // The view is live in memory but in no durable checkpoint;
        // acknowledging updates now would strand WAL records against a
        // schema recovery cannot rebuild. The handle must refuse.
        assert!(ddb.wal_status().poisoned);
        let t = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
        assert!(matches!(
            ddb.apply("xy", UpdateOp::Insert { t }),
            Err(DurabilityError::Poisoned)
        ));
        assert!(matches!(
            ddb.set_fds(ddb.reader().snapshot().fds()),
            Err(DurabilityError::Poisoned)
        ));
    }

    #[test]
    fn wal_status_reports_the_normalized_policy() {
        let f = fixtures::edm();
        let db = Database::new(f.schema, f.fds, f.base).unwrap();
        let vfs = MemVfs::new();
        let opts = WalOptions {
            sync: SyncPolicy::EveryN(0),
            ..WalOptions::default()
        };
        let ddb = DurableDatabase::create(vfs, db, opts).unwrap();
        assert_eq!(ddb.wal_status().sync, SyncPolicy::EveryN(1));
    }

    /// The satellite-1 regression: with the escape hatch closed, every
    /// path that mutates the engine goes through the WAL or a DDL
    /// checkpoint, so an acknowledged update can never be memory-only —
    /// recovery from the durable image always reproduces the live state
    /// exactly, after any interleaving of mutators.
    #[test]
    fn every_acknowledged_mutation_survives_recovery() {
        let (f, ddb, vfs) = seeded();
        let t = |e: &str, d: &str| Tuple::new([f.dict.sym(e), f.dict.sym(d)]);

        ddb.apply(
            "xy",
            UpdateOp::Insert {
                t: t("dan", "toys"),
            },
        )
        .unwrap();
        ddb.create_view("xy2", f.x, Some(f.y), Policy::Test1)
            .unwrap();
        ddb.apply_batch(
            vec![
                BatchRequest::new(
                    "xy2",
                    UpdateOp::Insert {
                        t: t("eve", "books"),
                    },
                ),
                BatchRequest::new(
                    "xy",
                    UpdateOp::Delete {
                        t: t("dan", "toys"),
                    },
                ),
            ],
            &BatchOptions::default(),
        )
        .unwrap();
        ddb.set_fds(ddb.reader().snapshot().fds()).unwrap();
        ddb.apply(
            "xy2",
            UpdateOp::Insert {
                t: t("gus", "toys"),
            },
        )
        .unwrap();

        // After every acknowledged call above: memory is never ahead of
        // the log (the old engine() hole made exactly this go wrong).
        assert_eq!(ddb.wal_status().next_seq, ddb.reader().last_seq() + 1);

        let (recovered, _) =
            DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
        let (got, want) = (recovered.reader().snapshot(), ddb.reader().snapshot());
        assert_eq!(got.dump(), want.dump());
        assert_eq!(got.seq(), want.seq());
    }

    #[test]
    fn durable_batch_with_only_rejections_touches_no_storage() {
        let (f, ddb, vfs) = seeded();
        let ops_before = vfs.write_ops();
        let report = ddb
            .apply_batch(
                vec![BatchRequest::new(
                    "xy",
                    UpdateOp::Insert {
                        // Unknown department: untranslatable, rejected.
                        t: Tuple::new([f.dict.sym("zed"), f.dict.sym("games")]),
                    },
                )],
                &BatchOptions::default(),
            )
            .unwrap();
        assert!(report.outcomes[0].is_err());
        assert_eq!(
            vfs.write_ops(),
            ops_before,
            "rejections must not hit storage"
        );
        assert_eq!(ddb.wal_status().next_seq, 1);
    }

    #[test]
    fn incremental_checkpoints_chain_and_recover_byte_identically() {
        let (f, ddb, vfs) = seeded();
        let t = |e: &str, d: &str| Tuple::new([f.dict.sym(e), f.dict.sym(d)]);
        ddb.apply(
            "xy",
            UpdateOp::Insert {
                t: t("dan", "toys"),
            },
        )
        .unwrap();
        let seq1 = ddb.checkpoint_incremental().unwrap();
        ddb.apply(
            "xy",
            UpdateOp::Delete {
                t: t("ada", "toys"),
            },
        )
        .unwrap();
        ddb.apply(
            "xy",
            UpdateOp::Insert {
                t: t("eve", "books"),
            },
        )
        .unwrap();
        let seq2 = ddb.checkpoint_incremental().unwrap();
        assert_eq!((seq1, seq2), (1, 3));
        assert_eq!(ddb.checkpoint_chain(), (3, 2), "two deltas chained");
        // Both writes were deltas, not full snapshots.
        let files = vfs.list().unwrap();
        assert!(files.contains(&crate::checkpoint::delta_checkpoint_name(1)));
        assert!(files.contains(&crate::checkpoint::delta_checkpoint_name(3)));
        // A crash now recovers through the chain with nothing to replay.
        let (rec, report) =
            DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
        assert_eq!(report.checkpoint_seq, 3);
        assert_eq!(report.checkpoint_chain.len(), 3, "full root + 2 deltas");
        assert_eq!(report.records_replayed, 0);
        assert_eq!(rec.reader().dump(), ddb.reader().dump());
    }

    #[test]
    fn incremental_checkpoint_with_nothing_new_writes_nothing() {
        let (_, ddb, vfs) = seeded();
        let files_before = vfs.list().unwrap();
        let seq = ddb.checkpoint_incremental().unwrap();
        assert_eq!(seq, 0);
        assert_eq!(vfs.list().unwrap(), files_before);
    }

    #[test]
    fn chain_cap_forces_a_full_checkpoint() {
        let f = fixtures::edm();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("xy", f.x, Some(f.y), Policy::Exact).unwrap();
        let vfs = MemVfs::new();
        let opts = WalOptions {
            max_delta_chain: 1,
            ..WalOptions::default()
        };
        let ddb = DurableDatabase::create(vfs.clone(), db, opts).unwrap();
        let t = |e: &str, d: &str| Tuple::new([f.dict.sym(e), f.dict.sym(d)]);
        ddb.apply(
            "xy",
            UpdateOp::Insert {
                t: t("dan", "toys"),
            },
        )
        .unwrap();
        ddb.checkpoint_incremental().unwrap();
        assert_eq!(ddb.checkpoint_chain(), (1, 1));
        ddb.apply(
            "xy",
            UpdateOp::Insert {
                t: t("eve", "books"),
            },
        )
        .unwrap();
        ddb.checkpoint_incremental().unwrap();
        // The cap rolled the chain over into a fresh full snapshot.
        assert_eq!(ddb.checkpoint_chain(), (2, 0));
        assert!(vfs
            .list()
            .unwrap()
            .contains(&crate::checkpoint::checkpoint_name(2)));
    }

    #[test]
    fn ddl_resets_the_delta_chain_to_a_full_root() {
        let (f, ddb, vfs) = seeded();
        ddb.apply(
            "xy",
            UpdateOp::Insert {
                t: Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]),
            },
        )
        .unwrap();
        ddb.checkpoint_incremental().unwrap();
        assert_eq!(ddb.checkpoint_chain(), (1, 1));
        // DDL is not representable in a delta body: the chain must
        // restart at a full snapshot carrying the new schema.
        ddb.create_view("xy2", f.x, Some(f.y), Policy::Test1)
            .unwrap();
        assert_eq!(ddb.checkpoint_chain(), (1, 0));
        let (rec, _) = DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
        assert_eq!(rec.reader().dump(), ddb.reader().dump());
    }

    #[test]
    fn failed_incremental_checkpoint_poisons_the_handle() {
        let (f, ddb, vfs) = seeded();
        let t = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
        ddb.apply("xy", UpdateOp::Insert { t }).unwrap();
        // The WAL sync inside the incremental path is a no-op under
        // SyncPolicy::Always (no debt), so the crash lands on the delta
        // file's first write.
        vfs.set_plan(FaultPlan::crash_after(vfs.write_ops()));
        assert!(matches!(
            ddb.checkpoint_incremental(),
            Err(DurabilityError::Vfs(VfsError::Crashed))
        ));
        assert!(ddb.wal_status().poisoned);
        assert!(matches!(
            ddb.apply(
                "xy",
                UpdateOp::Insert {
                    t: Tuple::new([f.dict.sym("eve"), f.dict.sym("books")]),
                },
            ),
            Err(DurabilityError::Poisoned)
        ));
        // The crash image is still recoverable: the torn temp file is
        // ignored, the acknowledged update replays from the WAL.
        let (rec, report) =
            DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(rec.reader().dump(), ddb.reader().dump());
    }

    #[test]
    fn background_checkpointer_advances_the_chain_and_stops_cleanly() {
        let (f, mut ddb, vfs) = seeded();
        ddb.start_background_checkpointer(BgCheckpoint {
            wal_bytes: 1, // any WAL growth triggers
            age_ms: 0,
            poll_ms: 1,
        });
        assert!(ddb.background_checkpointer_running());
        let t = |e: &str, d: &str| Tuple::new([f.dict.sym(e), f.dict.sym(d)]);
        ddb.apply(
            "xy",
            UpdateOp::Insert {
                t: t("dan", "toys"),
            },
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while ddb.checkpoint_chain().0 < 1 {
            assert!(Instant::now() < deadline, "checkpointer never fired");
            std::thread::yield_now();
        }
        // Commits keep flowing while (and after) the checkpointer runs.
        ddb.apply(
            "xy",
            UpdateOp::Insert {
                t: t("eve", "books"),
            },
        )
        .unwrap();
        ddb.stop_background_checkpointer();
        assert!(!ddb.background_checkpointer_running());
        assert!(!ddb.wal_status().poisoned);
        let (rec, _) = DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
        assert_eq!(rec.reader().dump(), ddb.reader().dump());
    }

    #[test]
    fn background_checkpointer_poisons_on_write_failure() {
        let (f, mut ddb, vfs) = seeded();
        ddb.apply(
            "xy",
            UpdateOp::Insert {
                t: Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]),
            },
        )
        .unwrap();
        // Every storage op from here on fails.
        vfs.set_plan(FaultPlan::crash_after(vfs.write_ops()));
        ddb.start_background_checkpointer(BgCheckpoint {
            wal_bytes: 1,
            age_ms: 0,
            poll_ms: 1,
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ddb.wal_status().poisoned {
            assert!(Instant::now() < deadline, "checkpointer never failed");
            std::thread::yield_now();
        }
        assert!(matches!(
            ddb.apply(
                "xy",
                UpdateOp::Insert {
                    t: Tuple::new([f.dict.sym("eve"), f.dict.sym("books")]),
                },
            ),
            Err(DurabilityError::Poisoned)
        ));
        // The acknowledged prefix still recovers from the crash image.
        let (rec, report) =
            DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(rec.reader().last_seq(), 1);
    }

    /// `E → D → M` over 16 departments of 4 employees each, with the
    /// manager view `mgrs = π{D, M}` (auto complement `{E, D}`): each
    /// manager change rewrites its department's 4 base rows, so a few
    /// dozen changes make a delta outgrow the 64-row full snapshot.
    fn mgrs_store() -> (DurableDatabase<MemVfs>, MemVfs) {
        use relvu_relation::{tup, Relation, Schema};
        let schema = Schema::new(["E", "D", "M"]).unwrap();
        let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
        let base = Relation::from_rows(
            schema.universe(),
            (0..64u64).map(|e| tup![e, e % 16, 1000 + e % 16]),
        )
        .unwrap();
        let mgrs = schema.set(["D", "M"]).unwrap();
        let db = Database::new(schema, fds, base).unwrap();
        db.create_view("mgrs", mgrs, None, Policy::Exact).unwrap();
        let vfs = MemVfs::new();
        let ddb = DurableDatabase::create(vfs.clone(), db, WalOptions::default()).unwrap();
        (ddb, vfs)
    }

    /// Give department `i % 16` the new manager `2000 + i`; `managers`
    /// holds each department's current one.
    fn change_manager(ddb: &DurableDatabase<MemVfs>, managers: &mut [u64], i: u64) {
        use relvu_relation::tup;
        let d = i % 16;
        let (old, new) = (managers[d as usize], 2000 + i);
        ddb.apply(
            "mgrs",
            UpdateOp::Replace {
                t1: tup![d, old],
                t2: tup![d, new],
            },
        )
        .unwrap();
        managers[d as usize] = new;
    }

    fn initial_managers() -> Vec<u64> {
        (0..16).map(|d| 1000 + d).collect()
    }

    fn root_len(ddb: &DurableDatabase<MemVfs>) -> u64 {
        ddb.shared.ckpt.lock().tip.root_len
    }

    fn full_by_size() -> u64 {
        relvu_obs::counter!("durability.ckpt.full_by_size").get()
    }

    #[test]
    fn delta_reaching_the_root_size_writes_a_full_checkpoint() {
        let (ddb, vfs) = mgrs_store();
        let root = checkpoint::checkpoint_name(0);
        assert_eq!(root_len(&ddb), vfs.read(&root).unwrap().len() as u64);
        let mut managers = initial_managers();
        for i in 0..32 {
            change_manager(&ddb, &mut managers, i);
        }
        // The delta an unbounded writer would produce reaches the root's
        // size (measured on a separate store).
        let snap = ddb.reader().snapshot();
        let side = MemVfs::new();
        let commits = snap.base_deltas_since(0).unwrap();
        checkpoint::write_delta_checkpoint(&side, 32, &commits, (0, 0), 2).unwrap();
        let delta = side.read(&checkpoint::delta_checkpoint_name(32)).unwrap();
        let body = delta.len() - delta.iter().position(|&b| b == b'\n').unwrap() - 1;
        assert!(body as u64 >= root_len(&ddb), "{body} B body");

        let before = full_by_size();
        assert_eq!(ddb.checkpoint_incremental().unwrap(), 32);
        assert_eq!(ddb.checkpoint_chain(), (32, 0), "the chain restarts");
        let files = vfs.list().unwrap();
        assert!(files.contains(&checkpoint::checkpoint_name(32)));
        assert!(!files.contains(&checkpoint::delta_checkpoint_name(32)));
        let full = vfs.read(&checkpoint::checkpoint_name(32)).unwrap();
        assert_eq!(root_len(&ddb), full.len() as u64, "the new root's size");
        if relvu_obs::enabled() {
            assert!(full_by_size() > before, "the budget's choice is counted");
        }
        let (rec, report) =
            DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
        assert_eq!(report.checkpoint_chain, [checkpoint::checkpoint_name(32)]);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(rec.reader().dump(), ddb.reader().dump());
        assert_eq!(rec.reader().last_seq(), 32);
    }

    #[test]
    fn delta_under_the_root_size_still_chains() {
        let (ddb, vfs) = mgrs_store();
        let mut managers = initial_managers();
        change_manager(&ddb, &mut managers, 0);
        assert_eq!(ddb.checkpoint_incremental().unwrap(), 1);
        assert_eq!(ddb.checkpoint_chain(), (1, 1));
        let delta = vfs.read(&checkpoint::delta_checkpoint_name(1)).unwrap();
        assert!((delta.len() as u64) < root_len(&ddb));
        let (rec, _) = DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
        assert_eq!(rec.reader().dump(), ddb.reader().dump());
    }

    #[test]
    fn recovered_handle_budgets_like_the_live_one() {
        let (live, vfs) = mgrs_store();
        let mut live_mgrs = initial_managers();
        for i in 0..2 {
            change_manager(&live, &mut live_mgrs, i);
        }
        live.checkpoint_incremental().unwrap();
        assert_eq!(live.checkpoint_chain(), (2, 1));
        // Recovered from a chain with a delta: the budget comes from the
        // root file, not the tip.
        let (rec, _) = DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
        assert_eq!(rec.shared.ckpt.lock().tip, live.shared.ckpt.lock().tip);
        let mut rec_mgrs = live_mgrs.clone();
        // Steps of 1, 3, 40, 2, 1, 40 and 5 changes: small deltas chain,
        // large ones restart the chain, on both handles alike.
        let mut i = 2;
        let (mut live_choices, mut rec_choices) = (Vec::new(), Vec::new());
        for step in [1, 3, 40, 2, 1, 40, 5] {
            for _ in 0..step {
                change_manager(&live, &mut live_mgrs, i);
                change_manager(&rec, &mut rec_mgrs, i);
                i += 1;
            }
            live.checkpoint_incremental().unwrap();
            rec.checkpoint_incremental().unwrap();
            live_choices.push((live.checkpoint_chain(), root_len(&live)));
            rec_choices.push((rec.checkpoint_chain(), root_len(&rec)));
        }
        assert_eq!(live_choices, rec_choices);
        let deltas: Vec<usize> = live_choices.iter().map(|((_, d), _)| *d).collect();
        assert_eq!(deltas, [2, 3, 0, 1, 2, 0, 1], "{live_choices:?}");
        assert_eq!(rec.reader().dump(), live.reader().dump());
    }

    #[test]
    fn crash_during_a_budget_chosen_full_leaves_the_old_chain_recoverable() {
        // Run the same workload once per crash point: every mutating
        // storage op of the full write (temp create, sync, rename, prune)
        // in turn, until the checkpoint completes.
        let mut crashes = 0;
        for k in 0.. {
            let (ddb, vfs) = mgrs_store();
            let mut managers = initial_managers();
            for i in 0..2 {
                change_manager(&ddb, &mut managers, i);
            }
            ddb.checkpoint_incremental().unwrap();
            for i in 2..34 {
                change_manager(&ddb, &mut managers, i);
            }
            vfs.set_plan(FaultPlan::crash_after(vfs.write_ops() + k));
            let res = ddb.checkpoint_incremental();
            // The budget gave up on the delta before any storage op, so
            // every op the crash can hit belongs to the full.
            let image = vfs.crash_image();
            assert!(!image
                .list()
                .unwrap()
                .contains(&checkpoint::delta_checkpoint_name(34)));
            let (rec, report) = DurableDatabase::recover(image, WalOptions::default()).unwrap();
            assert_eq!(rec.reader().dump(), ddb.reader().dump(), "crash point {k}");
            assert_eq!(rec.reader().last_seq(), 34);
            if res.is_ok() {
                assert_eq!(ddb.checkpoint_chain(), (34, 0));
                assert_eq!(report.checkpoint_chain, [checkpoint::checkpoint_name(34)]);
                break;
            }
            crashes += 1;
            assert!(ddb.wal_status().poisoned);
            if report.checkpoint_seq == 2 {
                // The full never landed: the old chain is the restore
                // point and the WAL covers the rest.
                assert_eq!(report.checkpoint_chain.len(), 2);
                assert_eq!(report.records_replayed, 32);
            }
        }
        assert!(crashes >= 3, "temp create, sync and rename each crashed");
    }

    #[test]
    fn group_flush_failure_poisons_and_reports_to_the_committer() {
        let (f, ddb, vfs) = seeded();
        // Crash on the very next storage op: the append of this commit's
        // group fails, the committer sees the error, the handle poisons.
        vfs.set_plan(FaultPlan::crash_after(vfs.write_ops()));
        let err = ddb
            .apply(
                "xy",
                UpdateOp::Insert {
                    t: Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]),
                },
            )
            .unwrap_err();
        assert!(matches!(err, DurabilityError::Vfs(VfsError::Crashed)));
        assert!(ddb.wal_status().poisoned);
        assert!(matches!(
            ddb.apply(
                "xy",
                UpdateOp::Insert {
                    t: Tuple::new([f.dict.sym("eve"), f.dict.sym("books")]),
                },
            ),
            Err(DurabilityError::Poisoned)
        ));
    }
}
