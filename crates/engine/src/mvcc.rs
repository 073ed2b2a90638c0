//! Epoch-pinned MVCC snapshots: the lock-free read path.
//!
//! Every mutator of [`crate::Database`] still runs under the single
//! write lock — but at commit it *publishes* an immutable, epoch-stamped
//! [`EngineSnapshot`] through a [`SnapCell`], and every query answers
//! from the most recently published snapshot without ever touching the
//! engine lock. A pinned snapshot is internally consistent by
//! construction: its base, every view instance, the log tail, Σ and the
//! sequence number all come from the same commit.
//!
//! Three pieces make publishing O(|Δ|) instead of O(|base|):
//!
//! * [`LazyRel`] — a persistent relation represented as an immutable
//!   root plus a cons list of per-commit deltas, each the commit's own
//!   shared [`ViewDelta`] for that relation (never a copy). The
//!   writer extends the chain in O(1); the first reader that actually
//!   needs the rows materializes root+chain once per epoch (shared via
//!   `OnceLock` with every other reader of that epoch), and the writer
//!   re-roots the next version on that materialization. A *quiet*
//!   relation (no pending deltas) is shared structurally: repeated reads
//!   return the same `Arc`. Crucially, materialization replays the exact
//!   delta sequence the writer applied in-place, so a snapshot's row
//!   *order* — not just its set content — matches the engine's, keeping
//!   serialized dumps byte-identical to the locked path they replace.
//!
//!   **Re-rooting from the writer.** When no reader materializes, the
//!   chain would grow without bound. So at publish, once a relation's
//!   pending chain holds as many delta rows as the relation has rows
//!   (at least [`REROOT_FLOOR`]) or [`REROOT_NODES`] commits, the
//!   writer re-roots it on a clone of its own copy of that relation —
//!   the base, a view instance, or a σ_P split part — which equals the
//!   chain's replay row for row (debug builds assert exactly that
//!   first). The clone is O(|rel|), outside any replay, and comes after
//!   at least max(|rel|, 64) delta rows or 512 commits. A reader's
//!   worst-case materialization is one clone plus a replay of at most
//!   that many rows and commits; each replayed row is a binary search
//!   and a shift of the sorted index, the same edit the writer made.
//!   Dropping a chain unlinks it iteratively, so its length never
//!   touches the stack. Obs counter `engine.snap.reroots` counts the
//!   re-roots.
//! * [`LogState`] — the audit log as sealed immutable chunks plus a
//!   cons-list tail of shared `Arc<LogEntry>`s, so the snapshot's log
//!   view is an O(1) pointer copy. The log lives only in published
//!   snapshots: a commit's entry joins it at publish, so an aborted
//!   transaction's entries never reach it.
//! * [`SnapCell`] — the hand-rolled `arc-swap` analog. The workspace
//!   forbids `unsafe`, so instead of a raw atomic pointer the cell keeps
//!   a small fixed set of cache-line-padded shards, each a
//!   `RwLock<Arc<EngineSnapshot>>`. A reader hashes its thread id to one
//!   shard and holds that shard's read lock only for the nanoseconds an
//!   `Arc` clone takes; the writer swaps the pointer in every shard.
//!   Readers on different shards never contend with each other, no
//!   reader ever waits on an engine commit, and because a thread always
//!   lands on the same shard its observed epochs are monotone.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use relvu_deps::FdSet;
use relvu_relation::{Relation, Schema};

use crate::commit::ViewDelta;
use crate::dag::ViewDag;
use crate::db::ViewStats;
use crate::log::{LogEntry, LogGap, LogRange};
use crate::mat::ViewMat;
use crate::view::ViewDef;
use crate::{EngineError, Result};

/// The fewest pending delta rows at which publish re-roots a
/// [`LazyRel`] on the writer's copy, so a small relation is not cloned
/// at every commit.
pub(crate) const REROOT_FLOOR: usize = 64;

/// The most commits a [`LazyRel`]'s pending chain holds: publish
/// re-roots at this many nodes whatever their rows, so many small
/// commits to a large relation cannot keep a chain of |rel| nodes alive.
pub(crate) const REROOT_NODES: u32 = 512;

/// Entries per sealed log chunk.
const LOG_CHUNK: usize = 256;

/// Shards in a [`SnapCell`].
const SHARDS: usize = 8;

// ---------------------------------------------------------------------
// LazyRel: persistent relation = immutable root + pending delta chain
// ---------------------------------------------------------------------

/// One commit's contribution to a [`LazyRel`], newest-first.
struct DeltaNode {
    delta: Arc<ViewDelta>,
    prev: Option<Arc<DeltaNode>>,
}

impl Drop for DeltaNode {
    /// Unlinks the chain iteratively: the derived drop would recurse once
    /// per node. Stops at the first node another version still shares.
    fn drop(&mut self) {
        let mut prev = self.prev.take();
        while let Some(node) = prev {
            prev = Arc::into_inner(node).and_then(|mut n| n.prev.take());
        }
    }
}

/// A persistent, structurally shared relation version.
pub(crate) struct LazyRel {
    root: Arc<Relation>,
    pending: Option<Arc<DeltaNode>>,
    /// Nodes (commits) in the `pending` chain.
    depth: u32,
    /// Delta rows (deletes plus inserts) in the `pending` chain.
    pending_rows: usize,
    /// Root+chain, materialized at most once per version and shared by
    /// every reader pinning it.
    cache: OnceLock<Arc<Relation>>,
}

impl LazyRel {
    /// A version with no pending deltas: reads share `root` directly.
    pub(crate) fn ready(root: Arc<Relation>) -> Self {
        LazyRel {
            root,
            pending: None,
            depth: 0,
            pending_rows: 0,
            cache: OnceLock::new(),
        }
    }

    /// The rows of this version. O(1) when quiet or already
    /// materialized; otherwise one clone of the root and replay of the
    /// chain, shared with every other reader of the same version.
    pub(crate) fn get(&self) -> Arc<Relation> {
        match &self.pending {
            None => Arc::clone(&self.root),
            Some(_) => Arc::clone(self.cache.get_or_init(|| Arc::new(self.materialize()))),
        }
    }

    /// Replay the pending chain over a clone of the root — the same
    /// removals-then-insertions, in the same commit order, the writer
    /// applied in place, so row order is reproduced exactly.
    pub(crate) fn materialize(&self) -> Relation {
        let mut nodes: Vec<&DeltaNode> = Vec::with_capacity(self.depth as usize);
        let mut cur = self.pending.as_deref();
        while let Some(n) = cur {
            nodes.push(n);
            cur = n.prev.as_deref();
        }
        let mut rel = (*self.root).clone();
        for n in nodes.iter().rev() {
            n.delta.fold_into(&mut rel);
        }
        rel
    }

    /// Writer-side: the next version after one commit's `delta`. An
    /// empty delta shares `self` unchanged — that is what makes
    /// repeated reads of a quiet view pointer-equal. When some reader
    /// already materialized this version, the next one re-roots on that
    /// materialization instead of growing the chain.
    pub(crate) fn advance(self: &Arc<Self>, delta: &Arc<ViewDelta>) -> Arc<LazyRel> {
        if delta.is_empty() {
            return Arc::clone(self);
        }
        let (root, prev, depth, rows) = match self.cache.get() {
            Some(mat) => (Arc::clone(mat), None, 0, 0),
            None => (
                Arc::clone(&self.root),
                self.pending.clone(),
                self.depth,
                self.pending_rows,
            ),
        };
        Arc::new(LazyRel {
            root,
            pending: Some(Arc::new(DeltaNode {
                delta: Arc::clone(delta),
                prev,
            })),
            depth: depth + 1,
            pending_rows: rows + delta.len(),
            cache: OnceLock::new(),
        })
    }

    /// Writer-side, at publish: this version re-rooted on a clone of
    /// `writer` — the writer's own copy of the relation, which must hold
    /// this version's rows in this version's order — once the pending
    /// chain holds as many delta rows as the relation has rows (at least
    /// [`REROOT_FLOOR`]) or [`REROOT_NODES`] commits; otherwise `self`.
    /// Debug builds first
    /// check the copy against the chain's replay (uncached: `get` would
    /// make the next advance re-root on the replay instead).
    pub(crate) fn rerooted(self: &Arc<Self>, writer: &Relation, what: &str) -> Arc<LazyRel> {
        debug_assert_eq!(
            self.materialize().rows(),
            writer.rows(),
            "{what}: the published chain's replay and the writer's rows differ"
        );
        if self.pending_rows < writer.len().max(REROOT_FLOOR) && self.depth < REROOT_NODES {
            return Arc::clone(self);
        }
        relvu_obs::counter!("engine.snap.reroots").inc();
        Arc::new(LazyRel::ready(Arc::new(writer.clone())))
    }

    /// Delta rows waiting in this version's chain.
    #[cfg(test)]
    pub(crate) fn pending_rows(&self) -> usize {
        self.pending_rows
    }

    /// Commits waiting in this version's chain.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> u32 {
        self.depth
    }
}

// ---------------------------------------------------------------------
// LogState: sealed chunks + cons-list tail
// ---------------------------------------------------------------------

struct LogNode {
    entry: Arc<LogEntry>,
    prev: Option<Arc<LogNode>>,
}

/// The audit log as a persistent structure: cloning is O(1) in the
/// number of entries (two `Arc` copies), so every published snapshot
/// carries the whole log for free. The unsealed tail holds each entry's shared
/// `Arc<LogEntry>` — never the commit around it, so history does not
/// pin deltas.
#[derive(Clone)]
pub(crate) struct LogState {
    /// Sealed immutable chunks of exactly [`LOG_CHUNK`] entries each.
    chunks: Arc<Vec<Arc<Vec<LogEntry>>>>,
    /// Unsealed entries, newest-first.
    tail: Option<Arc<LogNode>>,
    tail_len: usize,
    /// The sequence number *before* this log's first entry: the held
    /// entries are exactly `origin+1 ..= origin+len`. A fresh log has
    /// origin 0; a log started by `resume_at(seq)`/recovery has
    /// origin `seq`, and requests below `origin+1` report a
    /// [`LogGap`] instead of silently starting at the first held entry.
    origin: u64,
    len: usize,
}

impl Default for LogState {
    fn default() -> Self {
        LogState {
            chunks: Arc::new(Vec::new()),
            tail: None,
            tail_len: 0,
            origin: 0,
            len: 0,
        }
    }
}

impl LogState {
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oldest sequence number this log can serve (`origin + 1`).
    /// Meaningful even when empty: the next pushed entry must carry it.
    pub(crate) fn first_available(&self) -> u64 {
        self.origin + 1
    }

    /// Re-base an **empty** log at `origin`, so the next entry carries
    /// `origin + 1` — the recovery/`resume_at` hook that makes requests
    /// for pre-incarnation history a reported [`LogGap`] rather than a
    /// silent mislabeling of later entries.
    pub(crate) fn set_origin(&mut self, origin: u64) {
        debug_assert_eq!(self.len, 0, "origin moves only on an empty log");
        self.origin = origin;
    }

    pub(crate) fn push(&mut self, entry: Arc<LogEntry>) {
        debug_assert_eq!(
            entry.seq,
            self.origin + self.len as u64 + 1,
            "the log is contiguous: push seq must extend origin+len"
        );
        self.tail = Some(Arc::new(LogNode {
            entry,
            prev: self.tail.take(),
        }));
        self.tail_len += 1;
        self.len += 1;
        if self.tail_len == LOG_CHUNK {
            // Sealing copies the entries into one compact chunk and lets
            // the shared originals go. Those were allocated mid-commit,
            // among the commit's short-lived temporaries; kept for the
            // whole history they fragment the heap (a 20 s two-writer
            // group-commit run peaked 16% higher in resident memory).
            let mut sealed = Vec::with_capacity(LOG_CHUNK);
            let mut cur = self.tail.as_deref();
            while let Some(n) = cur {
                sealed.push((*n.entry).clone());
                cur = n.prev.as_deref();
            }
            sealed.reverse();
            let mut chunks = (*self.chunks).clone();
            chunks.push(Arc::new(sealed));
            self.chunks = Arc::new(chunks);
            self.tail = None;
            self.tail_len = 0;
        }
    }

    /// Entries with `seq >= from_seq`, at most `limit`, in sequence
    /// order, plus an explicit [`LogGap`] when `from_seq` reaches below
    /// the oldest entry this log holds. The log is contiguous in `seq`,
    /// so this is arithmetic plus an O(limit) copy, never a scan.
    ///
    /// `from_seq` 0 and 1 both mean "from the start of history"
    /// (sequence numbers start at 1), so a fresh log reports no gap for
    /// either. A request entirely *past* the end is empty but gapless —
    /// those entries do not exist yet, as opposed to having been lost.
    pub(crate) fn range(&self, from_seq: u64, limit: usize) -> LogRange {
        let first = self.first_available();
        let gap = (from_seq.max(1) < first).then_some(LogGap {
            requested_from: from_seq,
            first_available: first,
        });
        if self.len == 0 {
            return LogRange {
                gap,
                entries: Vec::new(),
            };
        }
        // Index of the first served entry: a below-origin request
        // clamps to 0, which is correct *because* the clamp is now
        // reported through `gap` instead of being silent.
        let start = from_seq.saturating_sub(first).min(self.len as u64) as usize;
        let end = start.saturating_add(limit).min(self.len);
        if start >= end {
            return LogRange {
                gap,
                entries: Vec::new(),
            };
        }
        let mut out = Vec::with_capacity(end - start);
        let sealed = self.len - self.tail_len;
        let mut i = start;
        while i < end.min(sealed) {
            let chunk = &self.chunks[i / LOG_CHUNK];
            let off = i % LOG_CHUNK;
            let take = (end.min(sealed) - i).min(LOG_CHUNK - off);
            out.extend_from_slice(&chunk[off..off + take]);
            i += take;
        }
        if end > sealed {
            let mut tail: Vec<&LogEntry> = Vec::with_capacity(self.tail_len);
            let mut cur = self.tail.as_deref();
            while let Some(n) = cur {
                tail.push(&n.entry);
                cur = n.prev.as_deref();
            }
            tail.reverse();
            for e in &tail[start.max(sealed) - sealed..end - sealed] {
                out.push((**e).clone());
            }
        }
        LogRange { gap, entries: out }
    }
}

// ---------------------------------------------------------------------
// The snapshot itself
// ---------------------------------------------------------------------

/// A view's full materialized instance plus, for selection views, the
/// `(σ_P, σ_¬P)` split — every part a structurally shared snapshot
/// allocation.
pub type MatParts = (Arc<Relation>, Option<(Arc<Relation>, Arc<Relation>)>);

/// One registered view's published state.
#[derive(Clone)]
pub(crate) struct ViewSnap {
    /// The full materialized instance `π_X(R)`.
    pub(crate) inst: Arc<LazyRel>,
    /// The `(σ_P, σ_¬P)` split for selection views.
    pub(crate) split: Option<(Arc<LazyRel>, Arc<LazyRel>)>,
}

impl ViewSnap {
    /// A view's published state read off its freshly built
    /// materialization.
    pub(crate) fn of(mat: &ViewMat) -> Self {
        let ready = |r: &Relation| Arc::new(LazyRel::ready(Arc::new(r.clone())));
        ViewSnap {
            inst: ready(mat.instance()),
            split: mat.split().map(|(m, r)| (ready(m), ready(r))),
        }
    }
}

/// The immutable state one publish makes visible — and the engine's
/// only committed state: the writer reads Σ, the views, the DAG, the
/// log and the sequence number from the last published one.
#[derive(Clone)]
pub(crate) struct SnapState {
    pub(crate) epoch: u64,
    pub(crate) seq: u64,
    pub(crate) schema: Arc<Schema>,
    pub(crate) fds: Arc<FdSet>,
    pub(crate) views: Arc<HashMap<String, ViewDef>>,
    /// The view dependency DAG; its registration order is the
    /// topological order every traversal walks.
    pub(crate) dag: Arc<ViewDag>,
    pub(crate) stats: Arc<HashMap<String, ViewStats>>,
    pub(crate) log: LogState,
    pub(crate) base: Arc<LazyRel>,
    /// Each view's published state, shared between epochs until a
    /// publish changes one, so publishing a rejection copies nothing.
    pub(crate) insts: Arc<HashMap<String, ViewSnap>>,
}

impl SnapState {
    /// The next epoch, sharing every part of this one; the caller
    /// replaces what changed.
    pub(crate) fn successor(&self) -> SnapState {
        SnapState {
            epoch: self.epoch + 1,
            ..self.clone()
        }
    }
}

/// A pinned, immutable view of the whole engine at one commit — the
/// engine's read surface: every query is a method here.
///
/// Obtained from [`crate::Database::snapshot`] (or
/// [`crate::EngineReader::snapshot`]). Every accessor answers from the
/// same published epoch: the base, each view instance, the log, Σ and
/// the sequence number are mutually consistent no matter how many
/// commits land after the pin, so a caller that reads two or more
/// values pins once and reads them all here. Holding a snapshot never
/// blocks writers; it only keeps that epoch's memory alive.
#[derive(Clone)]
pub struct EngineSnapshot {
    pub(crate) state: Arc<SnapState>,
}

impl EngineSnapshot {
    /// The publish counter of this snapshot. Strictly increasing across
    /// publishes; unlike [`EngineSnapshot::seq`] it also advances on
    /// DDL, Σ replacement and rejected updates.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The last applied update's sequence number as of this snapshot.
    pub fn seq(&self) -> u64 {
        self.state.seq
    }

    /// The database schema.
    pub fn schema(&self) -> Schema {
        (*self.state.schema).clone()
    }

    /// The dependency set Σ as of this snapshot.
    pub fn fds(&self) -> FdSet {
        (*self.state.fds).clone()
    }

    /// The base relation as of this snapshot, structurally shared —
    /// repeated calls on the same snapshot return the same allocation.
    pub fn base(&self) -> Arc<Relation> {
        self.state.base.get()
    }

    /// The instance of view `name` as of this snapshot (for selection
    /// views, the visible `σ_P` part), structurally shared.
    ///
    /// # Errors
    /// [`EngineError::UnknownView`] if `name` was not registered as of
    /// this snapshot.
    pub fn view_instance(&self, name: &str) -> Result<Arc<Relation>> {
        let vs = self
            .state
            .insts
            .get(name)
            .ok_or_else(|| EngineError::UnknownView {
                name: name.to_string(),
            })?;
        Ok(match &vs.split {
            Some((matching, _)) => matching.get(),
            None => vs.inst.get(),
        })
    }

    /// The materialized instance and (for selection views) the
    /// `(σ_P, σ_¬P)` split — diagnostic access for the differential
    /// oracles and the invariant checker; not part of the stable API.
    ///
    /// # Errors
    /// [`EngineError::UnknownView`] if absent.
    #[doc(hidden)]
    pub fn mat_parts(&self, name: &str) -> Result<MatParts> {
        let vs = self
            .state
            .insts
            .get(name)
            .ok_or_else(|| EngineError::UnknownView {
                name: name.to_string(),
            })?;
        Ok((
            vs.inst.get(),
            vs.split.as_ref().map(|(m, r)| (m.get(), r.get())),
        ))
    }

    /// The registered view names as of this snapshot, sorted.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.state.views.keys().cloned().collect();
        names.sort();
        names
    }

    /// A view's definition as of this snapshot.
    ///
    /// # Errors
    /// [`EngineError::UnknownView`] if absent.
    pub fn view_def(&self, name: &str) -> Result<ViewDef> {
        self.state
            .views
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownView {
                name: name.to_string(),
            })
    }

    /// A view's parent in the dependency DAG as of this snapshot.
    ///
    /// # Errors
    /// [`EngineError::UnknownView`] if absent.
    pub fn view_parent(&self, name: &str) -> Result<Option<String>> {
        self.state
            .views
            .get(name)
            .map(|d| d.parent().map(str::to_string))
            .ok_or_else(|| EngineError::UnknownView {
                name: name.to_string(),
            })
    }

    /// The views registered directly over `name` as of this snapshot.
    ///
    /// # Errors
    /// [`EngineError::UnknownView`] if absent.
    pub fn view_children(&self, name: &str) -> Result<Vec<String>> {
        if !self.state.views.contains_key(name) {
            return Err(EngineError::UnknownView {
                name: name.to_string(),
            });
        }
        Ok(self.state.dag.children(name).to_vec())
    }

    /// Per-view accepted/rejected counters as of this snapshot.
    ///
    /// # Errors
    /// [`EngineError::UnknownView`] if absent.
    pub fn stats(&self, name: &str) -> Result<ViewStats> {
        if !self.state.views.contains_key(name) {
            return Err(EngineError::UnknownView {
                name: name.to_string(),
            });
        }
        Ok(self.state.stats.get(name).cloned().unwrap_or_default())
    }

    /// Every per-view counter as of this snapshot.
    pub(crate) fn all_stats(&self) -> &HashMap<String, ViewStats> {
        &self.state.stats
    }

    /// The whole audit log *held by this snapshot* — after a recovery or
    /// `resume_at`, entries before the resume point are not in it (use
    /// [`EngineSnapshot::log_range`] to have that reported as a gap).
    pub fn log(&self) -> Vec<LogEntry> {
        self.log_range(0, usize::MAX).entries
    }

    /// Log entries with `seq >= from_seq`, at most `limit`, as of this
    /// snapshot — with an explicit [`LogGap`] when `from_seq` reaches
    /// below the oldest entry the log still holds, so a tailing consumer
    /// can never mistake a truncated front for "nothing happened".
    pub fn log_range(&self, from_seq: u64, limit: usize) -> LogRange {
        self.state.log.range(from_seq, limit)
    }

    /// The view definitions in topological (registration) order — what
    /// serialization walks.
    pub(crate) fn ordered_defs(&self) -> Vec<ViewDef> {
        self.state
            .dag
            .order()
            .iter()
            .map(|n| self.state.views[n].clone())
            .collect()
    }
}

// ---------------------------------------------------------------------
// SnapCell: the publish point
// ---------------------------------------------------------------------

/// One cache line per shard so readers hashing to different shards
/// never false-share.
#[repr(align(64))]
struct Shard(RwLock<Arc<SnapState>>);

/// The safe `arc-swap` stand-in the snapshots are published through.
pub(crate) struct SnapCell {
    shards: [Shard; SHARDS],
}

/// This thread's home shard, computed once from its thread id.
fn shard_index() -> usize {
    std::thread_local! {
        static SHARD: std::cell::OnceCell<usize> = const { std::cell::OnceCell::new() };
    }
    SHARD.with(|c| {
        *c.get_or_init(|| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            (h.finish() as usize) % SHARDS
        })
    })
}

impl SnapCell {
    pub(crate) fn new(initial: Arc<SnapState>) -> Self {
        SnapCell {
            shards: std::array::from_fn(|_| Shard(RwLock::new(Arc::clone(&initial)))),
        }
    }

    /// Pin the current snapshot: one shard read-lock held for the
    /// duration of an `Arc` clone. Never blocks on engine commits —
    /// the writer only grabs each shard for a pointer swap.
    pub(crate) fn load(&self) -> Arc<SnapState> {
        relvu_obs::counter!("engine.snap.pins").inc();
        Arc::clone(&self.shards[shard_index()].0.read())
    }

    /// Publish `next` to every shard. Called with the engine write lock
    /// held, so publishes are totally ordered; a reader that hits its
    /// shard mid-store sees either the old or the new pointer, both of
    /// which are complete snapshots, and — because a thread always uses
    /// the same shard — its observed epochs are monotone.
    pub(crate) fn store(&self, next: Arc<SnapState>) {
        for s in &self.shards {
            *s.0.write() = Arc::clone(&next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relvu_relation::{tup, Tuple};

    fn rel(rows: &[Tuple]) -> Relation {
        let schema = Schema::new(["A", "B"]).unwrap();
        Relation::from_rows(schema.universe(), rows.iter().cloned()).unwrap()
    }

    #[test]
    fn lazy_rel_shares_when_quiet_and_replays_deltas() {
        let root = Arc::new(rel(&[tup![1, 2], tup![3, 4]]));
        let v0 = Arc::new(LazyRel::ready(Arc::clone(&root)));
        assert!(Arc::ptr_eq(&v0.get(), &root), "quiet read is zero-copy");
        // Empty delta: the version itself is shared.
        let delta = |seq, added, removed| ViewDelta::whole(seq, removed, added, None);
        let same = v0.advance(&delta(1, Vec::new(), Vec::new()));
        assert!(Arc::ptr_eq(&same, &v0));
        // Real delta: lazy until read, then correct.
        let v1 = v0.advance(&delta(2, vec![tup![5, 6]], vec![tup![1, 2]]));
        let m = v1.get();
        assert_eq!(m.len(), 2);
        assert!(m.contains(&tup![5, 6]) && m.contains(&tup![3, 4]));
        // Two reads of the same version share the materialization.
        assert!(Arc::ptr_eq(&v1.get(), &m));
        // The next advance re-roots on the materialization.
        let v2 = v1.advance(&delta(3, vec![tup![7, 8]], vec![]));
        assert_eq!(v2.get().len(), 3);
        // v0 is untouched by any of this.
        assert_eq!(v0.get().len(), 2);
        assert!(v0.get().contains(&tup![1, 2]));
    }

    /// Publish re-roots each relation on the writer's copy once its
    /// chain holds as many delta rows as the relation has rows (at
    /// least `REROOT_FLOOR`), even when no reader ever materializes.
    #[test]
    fn lazy_rel_chain_is_capped() {
        use crate::{Database, Policy};
        use relvu_deps::FdSet;
        use relvu_relation::{CmpOp, Pred};
        const DEPTS: u64 = 16;
        let schema = Schema::new(["E", "D", "M"]).unwrap();
        let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
        let base = Relation::from_rows(
            schema.universe(),
            (0..64u64).map(|e| tup![e, e % DEPTS, e % DEPTS]),
        )
        .unwrap();
        let db = Database::new(schema.clone(), fds, base).unwrap();
        let dm = schema.set(["D", "M"]).unwrap();
        db.create_view("mgrs", dm, None, Policy::Exact).unwrap();
        let d = schema.attr("D").unwrap();
        let low = Pred::cmp(d, CmpOp::Lt, DEPTS / 2);
        db.create_selection_view("low", dm, None, low).unwrap();
        let reroots = relvu_obs::counter!("engine.snap.reroots");
        let before = reroots.get();
        let within = |rel: &LazyRel, len: usize| {
            rel.pending_rows() <= len.max(REROOT_FLOOR) && rel.depth() < REROOT_NODES
        };
        // Each manager change moves a department's 4 base rows to a
        // fresh manager: 8 base delta rows, 2 `mgrs` delta rows.
        for i in 0..2000u64 {
            let dept = i % DEPTS;
            let (old, new) = (i / DEPTS * DEPTS + dept, (i / DEPTS + 1) * DEPTS + dept);
            let (t1, t2) = (tup![dept, old], tup![dept, new]);
            let via = if dept < DEPTS / 2 { "low" } else { "mgrs" };
            db.replace_via(via, t1, t2).unwrap();
            let state = db.snapshot().state;
            assert!(
                within(&state.base, state.base.materialize().len()),
                "base at {i}"
            );
            for (name, vs) in state.insts.iter() {
                let parts = vs.split.iter().flat_map(|(m, r)| [m, r]);
                for rel in std::iter::once(&vs.inst).chain(parts) {
                    assert!(within(rel, rel.materialize().len()), "`{name}` at {i}");
                }
            }
        }
        let state = db.snapshot().state;
        let inner = db.inner.read();
        assert_eq!(state.base.get().rows(), inner.base.rows());
        for (name, vs) in state.insts.iter() {
            let mat = &inner.mats[name];
            assert_eq!(vs.inst.get().rows(), mat.instance().rows(), "`{name}`");
            if let (Some((pm, pr)), Some((m, r))) = (&vs.split, mat.split()) {
                assert_eq!(pm.get().rows(), m.rows(), "`{name}` σ_P");
                assert_eq!(pr.get().rows(), r.rows(), "`{name}` σ_¬P");
            }
        }
        if relvu_obs::enabled() {
            assert!(reroots.get() > before, "publish re-rooted");
        }
    }

    /// Single-row inserts never bring a chain's rows up to the growing
    /// relation's size, so publish re-roots on the commit count.
    #[test]
    fn lazy_rel_chain_is_capped_by_commits() {
        use crate::{Database, Policy};
        use relvu_deps::FdSet;
        const ROWS: u64 = 16;
        let schema = Schema::new(["E", "D", "M"]).unwrap();
        let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
        let base = Relation::from_rows(schema.universe(), (0..ROWS).map(|e| tup![e, e % 8, e % 8]))
            .unwrap();
        let db = Database::new(schema.clone(), fds, base).unwrap();
        db.create_view("emp", schema.set(["E", "D"]).unwrap(), None, Policy::Exact)
            .unwrap();
        let reroots = relvu_obs::counter!("engine.snap.reroots");
        let before = reroots.get();
        for e in ROWS..ROWS + REROOT_NODES as u64 + 100 {
            db.insert_via("emp", tup![e, e % 8]).unwrap();
            let state = db.snapshot().state;
            assert!(state.base.depth() < REROOT_NODES, "base at {e}");
            assert!(
                state.insts["emp"].inst.depth() < REROOT_NODES,
                "`emp` at {e}"
            );
        }
        let state = db.snapshot().state;
        let inner = db.inner.read();
        assert_eq!(state.base.get().rows(), inner.base.rows());
        assert_eq!(
            state.insts["emp"].inst.get().rows(),
            inner.mats["emp"].instance().rows()
        );
        if relvu_obs::enabled() {
            assert!(reroots.get() > before, "publish re-rooted");
        }
    }

    /// Dropping a chain far deeper than the stack could recurse through
    /// unlinks it iteratively, and stops at a node a live version shares.
    #[test]
    fn lazy_rel_long_chain_drops_without_recursion() {
        const NODES: u64 = 200_000;
        let mut v = Arc::new(LazyRel::ready(Arc::new(rel(&[]))));
        let mut kept = None;
        for i in 0..NODES {
            v = v.advance(&ViewDelta::whole(i, vec![], vec![tup![i, i]], None));
            if i == 999 {
                kept = Some(Arc::clone(&v));
            }
        }
        assert_eq!(v.depth(), NODES as u32);
        drop(v);
        let kept = kept.unwrap();
        assert_eq!(kept.depth(), 1000);
        assert_eq!(kept.get().len(), 1000);
    }

    #[test]
    fn log_state_ranges_match_vec_semantics() {
        use crate::log::UpdateOp;
        use relvu_core::Translation;
        let entry = |seq: u64| LogEntry {
            seq,
            view: "v".into(),
            op: UpdateOp::Insert { t: tup![seq] },
            translation: Translation::Identity,
            rows_before: 0,
            rows_after: 0,
        };
        let mut log = LogState::default();
        let empty = log.range(0, usize::MAX);
        assert!(empty.entries.is_empty() && empty.gap.is_none());
        // Cross several chunk seals, starting at a recovery-style offset.
        let first = 40u64;
        log.set_origin(first - 1);
        let n = (LOG_CHUNK * 3 + 17) as u64;
        for seq in first..first + n {
            log.push(Arc::new(entry(seq)));
        }
        let reference: Vec<LogEntry> = (first..first + n).map(entry).collect();
        let slice = |from_seq: u64, limit: usize| {
            let Some(f) = reference.first().map(|e| e.seq) else {
                return Vec::new();
            };
            let start = from_seq.saturating_sub(f).min(reference.len() as u64) as usize;
            let end = start.saturating_add(limit).min(reference.len());
            reference[start..end].to_vec()
        };
        for (from, limit) in [
            (0, usize::MAX),
            (1, usize::MAX),
            (first, 1),
            (first + 10, LOG_CHUNK),
            (first + LOG_CHUNK as u64 - 1, 3),
            (first + n - 5, 100),
            (first + n, 1),
            (first + n + 10, 7),
            (first + 3, 0),
        ] {
            let got = log.range(from, limit);
            assert_eq!(got.entries, slice(from, limit), "({from},{limit})");
            // The front gap is reported exactly when the request starts
            // below the oldest held entry (0 and 1 both mean "start of
            // history"; history below `first` was never in this log).
            assert_eq!(got.gap.is_some(), from.max(1) < first, "({from},{limit})");
            if let Some(gap) = got.gap {
                assert_eq!((gap.requested_from, gap.first_available), (from, first));
            }
        }
        assert_eq!(log.len, n as usize);
        // Snapshot clones are independent of later pushes.
        let pinned = log.clone();
        log.push(Arc::new(entry(first + n)));
        assert_eq!(pinned.len, n as usize);
        assert_eq!(log.len, n as usize + 1);
        assert_eq!(pinned.range(0, usize::MAX).entries, reference);
    }

    proptest::proptest! {
        /// Log-tail sweep: `LogState::range` agrees with an independent
        /// Vec oracle (`filter(seq >= from).take(limit)`) for arbitrary
        /// origins, lengths and queries. The deterministic seam queries
        /// appended to every case pin the chunk-boundary behavior the
        /// sealed-chunk/tail-walk split could get wrong: a range ending
        /// exactly at a seal point, starting just past one, `limit == 0`,
        /// `from == last + 1`, and lengths at exact `LOG_CHUNK`
        /// multiples.
        #[test]
        fn log_range_matches_vec_oracle(
            origin in 0u64..500,
            len in 0usize..(LOG_CHUNK * 3 + 5),
            queries in proptest::collection::vec(
                (0u64..1500, 0usize..(LOG_CHUNK * 3 + 10)),
                1..16,
            ),
        ) {
            use crate::log::UpdateOp;
            use proptest::prop_assert_eq;
            use relvu_core::Translation;
            let entry = |seq: u64| LogEntry {
                seq,
                view: "v".into(),
                op: UpdateOp::Insert { t: tup![seq] },
                translation: Translation::Identity,
                rows_before: 0,
                rows_after: 0,
            };
            let first = origin + 1;
            let reference: Vec<LogEntry> =
                (0..len as u64).map(|i| entry(first + i)).collect();
            let mut log = LogState::default();
            log.set_origin(origin);
            for e in &reference {
                log.push(Arc::new(e.clone()));
            }
            let chunk = LOG_CHUNK as u64;
            let last = origin + len as u64;
            let mut queries = queries;
            queries.extend([
                (first.saturating_sub(1), 3),        // just below history
                (first + chunk - 1, 3),              // ends at a seal point
                (first + chunk, 2),                  // starts just past one
                (first + chunk, LOG_CHUNK),          // exactly one chunk
                (first, 0),                          // limit == 0
                (last + 1, 5),                       // from == last + 1
                (0, usize::MAX),                     // everything
            ]);
            for (from, limit) in queries {
                let got = log.range(from, limit);
                let want: Vec<LogEntry> = reference
                    .iter()
                    .filter(|e| e.seq >= from)
                    .take(limit)
                    .cloned()
                    .collect();
                prop_assert_eq!(&got.entries, &want, "range({}, {})", from, limit);
                prop_assert_eq!(
                    got.gap.is_some(),
                    from.max(1) < first,
                    "gap presence for range({}, {})",
                    from,
                    limit
                );
                if let Some(g) = got.gap {
                    prop_assert_eq!((g.requested_from, g.first_available), (from, first));
                }
            }
        }
    }
}
