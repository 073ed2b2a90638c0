//! The group-commit pipeline: a leader/follower protocol that amortizes
//! one fsync over every update staged while the previous fsync was in
//! flight.
//!
//! # Protocol
//!
//! Committers **stage** their already-applied engine log entries into a
//! shared queue (under `DurableDatabase`'s stage lock, so enqueue order
//! is exactly engine sequence order) and then **wait**. The first waiter
//! to find the queue non-empty and no leader active becomes the
//! **leader**: it takes the whole queue, releases the queue lock, takes
//! the WAL lock, appends every entry in one [`Wal::append_group`] call —
//! which pays the sync policy *once* at the group boundary — then
//! publishes the result into each staged committer's ack slot and wakes
//! everyone. Committers staged while the leader was writing form the
//! next group; one of them will lead it.
//!
//! The invariants the per-record path had are preserved:
//!
//! * commit order == WAL order — staging is serialized with the engine
//!   commit, and the leader appends in queue order;
//! * under [`crate::SyncPolicy::Always`] no committer is woken with an
//!   `Ok` ack before the fsync covering its records returned;
//! * a flush failure poisons the pipeline: every staged committer gets
//!   the error, and later stagers are refused up front (mirroring the
//!   WAL writer's own poisoning).
//!
//! The queue uses `std::sync` primitives directly: the protocol needs a
//! condition variable, which the in-workspace `parking_lot` shim does
//! not provide. Lock order is stage lock → queue lock → WAL lock;
//! waiters never hold the queue lock while flushing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use relvu_engine::LogEntry;

use crate::error::DurabilityError;
use crate::vfs::Vfs;
use crate::wal::{SyncPolicy, Wal};

type AckResult = Result<(), DurabilityError>;

/// One committer's rendezvous with the leader that will flush it.
struct AckSlot {
    result: Mutex<Option<AckResult>>,
}

/// A staged committer's handle: redeemed by [`GroupCommit::wait`].
pub(crate) struct SlotHandle(Arc<AckSlot>);

struct Pending {
    /// This committer's entries, contiguous in seq (one durable `apply`
    /// stages one entry; a durable `apply_batch` stages all of its
    /// accepted entries as a unit) — the engine's own shared log
    /// entries, not copies.
    entries: Vec<Arc<LogEntry>>,
    slot: Arc<AckSlot>,
}

#[derive(Default)]
struct Queue {
    pending: Vec<Pending>,
    /// A leader is currently writing a group to the WAL. At most one
    /// exists; everyone else waits for its wake-up.
    leader_active: bool,
}

/// The commit queue shared by every committer of a `DurableDatabase`.
pub(crate) struct GroupCommit {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Mirrors the WAL writer's poisoned flag so stagers can refuse
    /// without touching the WAL lock (which may be held by a leader
    /// mid-fsync — blocking staging on it would defeat the pipeline).
    poisoned: AtomicBool,
}

/// The shim-free lock acquisitions: a panicking committer must not wedge
/// every other committer behind a poisoned queue mutex.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl GroupCommit {
    pub(crate) fn new() -> Self {
        GroupCommit {
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Stage one committer's entries for the next group. The caller must
    /// hold the stage lock, so enqueue order equals engine commit order.
    pub(crate) fn enqueue(&self, entries: Vec<Arc<LogEntry>>) -> SlotHandle {
        debug_assert!(
            !entries.is_empty(),
            "a committer with nothing to log must not stage"
        );
        let slot = Arc::new(AckSlot {
            result: Mutex::new(None),
        });
        let mut q = lock(&self.queue);
        q.pending.push(Pending {
            entries,
            slot: Arc::clone(&slot),
        });
        drop(q);
        // A previous group's followers may be asleep with nobody left to
        // lead (their leader finished before this entry arrived): make
        // sure somebody wakes up to claim the new work.
        self.wake.notify_all();
        SlotHandle(slot)
    }

    /// Block until the staged entries' group has been flushed, returning
    /// the flush outcome. The calling thread volunteers as leader if the
    /// queue has work and no leader is active.
    pub(crate) fn wait<V: Vfs>(
        &self,
        handle: SlotHandle,
        wal: &parking_lot::Mutex<Wal<V>>,
    ) -> AckResult {
        let stall = relvu_obs::histogram!("durability.group.stall_ns").timer();
        let mut q = lock(&self.queue);
        loop {
            if let Some(result) = lock(&handle.0.result).take() {
                drop(q);
                #[allow(clippy::drop_non_drop)]
                drop(stall);
                return result;
            }
            if !q.leader_active && !q.pending.is_empty() {
                let _ = self.lead(q, wal);
                q = lock(&self.queue);
            } else {
                q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Flush every currently-pending group member as this thread's
    /// group, then publish results and wake all waiters. Consumes the
    /// queue guard (released around the WAL write) and returns the
    /// flush outcome.
    fn lead<V: Vfs>(
        &self,
        mut q: MutexGuard<'_, Queue>,
        wal: &parking_lot::Mutex<Wal<V>>,
    ) -> AckResult {
        q.leader_active = true;
        let batch = std::mem::take(&mut q.pending);
        drop(q);

        let result = self.flush(&batch, wal);
        if result.is_err() {
            self.poison();
        }

        let mut q = lock(&self.queue);
        q.leader_active = false;
        drop(q);
        for member in &batch {
            *lock(&member.slot.result) = Some(result.clone());
        }
        self.wake.notify_all();
        result
    }

    /// The storage half: append every member's entries (in staging
    /// order, which is seq order) and pay the sync policy once.
    fn flush<V: Vfs>(&self, batch: &[Pending], wal: &parking_lot::Mutex<Wal<V>>) -> AckResult {
        let records: usize = batch.iter().map(|m| m.entries.len()).sum();
        let mut wal = wal.lock();
        wal.append_group(batch.iter().flat_map(|m| m.entries.iter().map(|e| &**e)))?;
        relvu_obs::histogram!("durability.group.batch_size").record(records as u64);
        if wal.options().sync == SyncPolicy::Always && records > 0 {
            // The per-record baseline would have issued one fsync per
            // record; the group boundary paid exactly one.
            relvu_obs::counter!("durability.group.fsyncs_saved").add(records as u64 - 1);
        }
        Ok(())
    }

    /// Flush until the queue is empty and no leader is in flight — the
    /// quiescence barrier used by checkpoints, DDL, and explicit syncs
    /// (all called with the stage lock held, so no new work can arrive).
    ///
    /// # Errors
    /// The flush error, if any group in the drain fails (the pipeline is
    /// poisoned in that case).
    pub(crate) fn drain<V: Vfs>(
        &self,
        wal: &parking_lot::Mutex<Wal<V>>,
    ) -> Result<(), DurabilityError> {
        let mut q = lock(&self.queue);
        loop {
            if q.leader_active {
                // Let the in-flight leader finish; it wakes everyone.
                q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
            } else if q.pending.is_empty() {
                return if self.is_poisoned() {
                    Err(DurabilityError::Poisoned)
                } else {
                    Ok(())
                };
            } else {
                self.lead(q, wal)?;
                q = lock(&self.queue);
            }
        }
    }
}
