//! Epoch-pinned MVCC snapshots: the lock-free read path.
//!
//! Every mutator of [`crate::Database`] still runs under the single
//! write lock — but at commit it *publishes* an immutable, epoch-stamped
//! [`EngineSnapshot`] through a [`SnapCell`], and every query answers
//! from the most recently published snapshot without ever touching the
//! engine lock. A pinned snapshot is internally consistent by
//! construction: its base, every view instance, the history, Σ and the
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
//!   that many rows and commits, each commit by
//!   [`Relation::apply_delta`], the edit the writer made: a removed row
//!   paired with an added one is an in-place rewrite of its slot (two
//!   binary searches, and an index shift only if its position changes),
//!   a leftover removal or addition a binary search and a shift of the
//!   sorted index.
//!   Dropping a chain unlinks it iteratively, so its length never
//!   touches the stack. Obs counter `engine.snap.reroots` counts the
//!   re-roots.
//! * [`History`] — the published commits in `(floor, seq]`, empty
//!   ones included, as sealed immutable chunks plus a cons-list tail of
//!   shared `Arc<Commit>`s, so the snapshot's copy is an O(1) pointer
//!   copy. It is the engine's one history: the audit log, incremental
//!   checkpoints and subscription catch-up all read it, by arithmetic
//!   on seq. A commit joins it at publish, so an aborted transaction's
//!   commits never reach it. Checkpoint prunes raise its floor, and past
//!   [`HISTORY_CAP`] commits (65,536; for 64-row manager changes about
//!   77 MB of base deltas) the oldest is evicted.
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

use crate::commit::{Commit, ViewDelta};
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

/// Commits per sealed [`History`] chunk.
const HISTORY_CHUNK: usize = 256;

/// The most commits a [`History`] serves: past it the oldest is evicted.
/// Checkpoints prune the history long before that in a store that
/// checkpoints. In bytes, the history pins each commit's deltas: an
/// 80 B header per touched relation plus 16 B per stored value (see
/// [`crate::commit`]), so 65,536 manager changes moving 64 rows of
/// `(E, D, M)` pin about 77 MB of base deltas (1,168 B each).
pub(crate) const HISTORY_CAP: u64 = 1 << 16;

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

    /// Replay the pending chain over a clone of the root — each
    /// commit's delta by the rule the writer applied it by in place
    /// ([`ViewDelta::fold_into`]), in commit order, so row order is
    /// reproduced exactly.
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
        let len = delta.len();
        if len == 0 {
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
            pending_rows: rows + len,
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
// History: the bounded commit list, sealed chunks + cons-list tail
// ---------------------------------------------------------------------

struct HistNode {
    commit: Arc<Commit>,
    prev: Option<Arc<HistNode>>,
}

/// The published commits in `(floor, seq]`, empty (identity) commits
/// included, so sequence numbers are contiguous and every lookup is
/// arithmetic on seq. Cloning is O(1) (two `Arc` copies), so every
/// snapshot carries its history for free. It is the engine's only
/// history: the audit log, incremental checkpoints and subscription
/// catch-up all read it.
///
/// A prune (at a checkpoint, or when a recovery resumes the counter)
/// or an eviction at [`HISTORY_CAP`] raises the floor; whole sealed
/// chunks at or below the floor are then dropped, so fewer than one
/// chunk of commits at or below the floor stay allocated, never served.
#[derive(Clone, Default)]
pub(crate) struct History {
    /// Sealed immutable chunks of exactly [`HISTORY_CHUNK`] commits
    /// each, oldest first.
    chunks: Arc<Vec<Arc<[Arc<Commit>]>>>,
    /// Unsealed commits, newest-first.
    tail: Option<Arc<HistNode>>,
    tail_len: usize,
    /// The seq before the first commit held: `chunks[0][0]` (or the
    /// tail's oldest) has seq `start + 1`.
    start: u64,
    /// The exclusive lower bound of what is served: commits in
    /// `(floor, end]`. `start <= floor <= end`.
    floor: u64,
}

impl History {
    /// The seq of the newest commit held (the floor when none is).
    fn end(&self) -> u64 {
        self.start + (self.chunks.len() * HISTORY_CHUNK + self.tail_len) as u64
    }

    /// The exclusive lower bound of what this history serves: every
    /// commit in `(floor, end]` is held, and a range from below it
    /// reports a gap.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// The number of commits served, `end - floor`.
    pub(crate) fn len(&self) -> u64 {
        self.end() - self.floor
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the next commit; its seq must be `end + 1`. At
    /// [`HISTORY_CAP`] the oldest served commit is evicted first (the
    /// floor moves past it, and `engine.ring.evicted` counts it).
    pub(crate) fn push(&mut self, commit: Arc<Commit>) {
        debug_assert_eq!(
            commit.seq(),
            self.end() + 1,
            "the history is contiguous: a pushed seq extends its end"
        );
        if self.len() >= HISTORY_CAP {
            relvu_obs::counter!("engine.ring.evicted").inc();
            self.prune_below(self.floor + 1);
        }
        self.tail = Some(Arc::new(HistNode {
            commit,
            prev: self.tail.take(),
        }));
        self.tail_len += 1;
        if self.tail_len == HISTORY_CHUNK {
            let mut chunks = (*self.chunks).clone();
            chunks.push(self.tail_refs().into_iter().cloned().collect());
            self.chunks = Arc::new(chunks);
            self.tail = None;
            self.tail_len = 0;
        }
    }

    /// Raise the floor to `seq` and drop the whole sealed chunks that
    /// fall at or below it. Ranges from `seq` itself
    /// stay served: a checkpoint or subscriber that has folded *through*
    /// `seq` needs only what comes after it. Past the end (a forward
    /// jump over an empty history) the history re-bases there.
    pub(crate) fn prune_below(&mut self, seq: u64) {
        if seq <= self.floor {
            return;
        }
        if seq >= self.end() {
            *self = History {
                start: seq,
                floor: seq,
                ..History::default()
            };
            return;
        }
        self.floor = seq;
        let dead = ((seq - self.start) as usize / HISTORY_CHUNK).min(self.chunks.len());
        if dead > 0 {
            self.chunks = Arc::new(self.chunks[dead..].to_vec());
            self.start += (dead * HISTORY_CHUNK) as u64;
        }
    }

    /// The unsealed commits, oldest first.
    fn tail_refs(&self) -> Vec<&Arc<Commit>> {
        let mut out = Vec::with_capacity(self.tail_len);
        let mut cur = self.tail.as_deref();
        while let Some(n) = cur {
            out.push(&n.commit);
            cur = n.prev.as_deref();
        }
        out.reverse();
        out
    }

    /// The commits in `(from_seq, end]`, oldest first, or `None` when
    /// `from_seq` is below the floor. A `from_seq` at or past the end
    /// yields nothing.
    pub(crate) fn since(&self, from_seq: u64) -> Option<impl Iterator<Item = &Arc<Commit>>> {
        if from_seq < self.floor {
            return None;
        }
        // Commits to skip: first in the sealed chunks, then in the tail.
        let sealed = self.chunks.len() * HISTORY_CHUNK;
        let skip = (from_seq - self.start).min(self.end() - self.start) as usize;
        let in_chunks = skip.min(sealed);
        let tail = self.tail_refs();
        Some(
            self.chunks[in_chunks / HISTORY_CHUNK..]
                .iter()
                .flat_map(|c| c.iter())
                .skip(in_chunks % HISTORY_CHUNK)
                .chain(tail.into_iter().skip(skip - in_chunks)),
        )
    }

    /// Log entries with `seq >= from_seq`, at most `limit`, with a
    /// [`LogGap`] when `from_seq` reaches below `floor + 1`. `from_seq`
    /// 0 and 1 both mean "from the start of history"; a request past
    /// the end is empty but gapless.
    pub(crate) fn log_range(&self, from_seq: u64, limit: usize) -> LogRange {
        let first = self.floor + 1;
        let gap = (from_seq.max(1) < first).then_some(LogGap {
            requested_from: from_seq,
            first_available: first,
        });
        let entries = self.since(from_seq.max(first) - 1).into_iter().flatten();
        LogRange {
            gap,
            entries: entries.take(limit).map(|c| (*c.entry).clone()).collect(),
        }
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
/// history and the sequence number from the last published one.
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
    /// The published commits in `(floor, seq]`: the audit log,
    /// incremental checkpoints and subscription catch-up read them.
    pub(crate) history: History,
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
    /// DDL, Σ replacement, rejected updates and history prunes.
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

    /// The audit log held by this snapshot: one entry per commit in
    /// `(floor, seq]`, in sequence order. The floor rises at each
    /// checkpoint prune ([`crate::Database::prune_history_below`]), at a
    /// recovery or `resume_at`, and by one per commit past 65,536 held
    /// (the oldest is evicted). Use [`EngineSnapshot::log_range`] to
    /// have a request below the floor reported as a gap.
    pub fn log(&self) -> Vec<LogEntry> {
        self.log_entries().cloned().collect()
    }

    /// The entries of [`EngineSnapshot::log`], by reference.
    pub fn log_entries(&self) -> impl Iterator<Item = &LogEntry> {
        let history = &self.state.history;
        history
            .since(history.floor())
            .into_iter()
            .flatten()
            .map(|c| &*c.entry)
    }

    /// Log entries with `seq >= from_seq`, at most `limit`, as of this
    /// snapshot, with an explicit [`LogGap`] when `from_seq` reaches
    /// below `floor + 1`, so a tailing consumer can never mistake a
    /// truncated front for "nothing happened". The history serves at
    /// most the 65,536 newest commits, and none at or below the last
    /// checkpoint prune (see [`EngineSnapshot::log`]).
    pub fn log_range(&self, from_seq: u64, limit: usize) -> LogRange {
        self.state.history.log_range(from_seq, limit)
    }

    /// The commits in `(from_seq, seq]` that changed the base, oldest
    /// first: what an incremental checkpoint from `from_seq` serializes
    /// ([`Commit::removed`] / [`Commit::added`]). Shared, not copied.
    /// `None` when `from_seq` is below the history's floor (pruned,
    /// evicted, or before a recovery's resume point); the caller then
    /// falls back to a full serialization.
    pub fn base_deltas_since(&self, from_seq: u64) -> Option<Vec<Arc<Commit>>> {
        let commits = self.state.history.since(from_seq)?;
        Some(commits.filter(|c| !c.is_empty()).cloned().collect())
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
    use crate::commit::test_delta;
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
        let delta = |seq, added, removed| test_delta(seq, removed, added);
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
            v = v.advance(&test_delta(i, vec![], vec![tup![i, i]]));
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

    // History: the (from, to] convention shared by the audit log,
    // incremental checkpoints and subscription catch-up.

    fn commit(seq: u64) -> Arc<Commit> {
        crate::commit::test_commit(
            seq,
            vec![tup![seq, 1]],
            vec![],
            vec![("v", vec![tup![seq]], vec![])],
        )
    }

    /// A history holding the commits `(origin, origin + len]`.
    fn history(origin: u64, len: u64) -> History {
        let mut h = History::default();
        h.prune_below(origin);
        for seq in origin + 1..=origin + len {
            h.push(commit(seq));
        }
        h
    }

    fn seqs(h: &History, from: u64) -> Option<Vec<u64>> {
        h.since(from).map(|r| r.map(|c| c.seq()).collect())
    }

    #[test]
    fn history_ranges_are_exclusive_at_the_start() {
        let h = history(0, 5);
        assert_eq!(seqs(&h, 2), Some(vec![3, 4, 5]));
        // Full range from the floor.
        assert_eq!(seqs(&h, 0).unwrap().len(), 5);
        // At or past the end: nothing yet, and no gap.
        assert_eq!(seqs(&h, 5), Some(vec![]));
        assert_eq!(seqs(&h, 9), Some(vec![]));
        // The view deltas ride along in the same commits.
        assert_eq!(h.since(2).unwrap().next().unwrap().views.len(), 1);
    }

    #[test]
    fn empty_commits_are_held() {
        let mut h = History::default();
        h.push(crate::commit::test_commit(1, vec![], vec![], vec![]));
        assert_eq!(seqs(&h, 0), Some(vec![1]), "seqs stay contiguous");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn prune_below_advances_floor() {
        let mut h = history(0, 4);
        h.prune_below(2);
        assert!(h.since(1).is_none(), "below the floor");
        assert_eq!(seqs(&h, 2), Some(vec![3, 4]));
        assert_eq!((h.floor(), h.len()), (2, 2));
        // The log reports the pruned front as a gap at floor + 1.
        let below = h.log_range(2, usize::MAX);
        assert_eq!(
            below.gap,
            Some(LogGap {
                requested_from: 2,
                first_available: 3
            })
        );
        assert!(h.log_range(3, usize::MAX).is_complete());
        // A prune at or below the floor changes nothing.
        h.prune_below(1);
        assert_eq!(h.floor(), 2);
    }

    /// The shared-boundary contract: after a checkpoint prunes at `T`, a
    /// subscriber that folded through `T` resumes gaplessly, and one at
    /// `T-1` is told (not silently shorted) that coverage is gone. Both
    /// consumers use the same `(from, to]` convention, so the boundary
    /// commit can never be both pruned and still needed.
    #[test]
    fn checkpoint_prune_and_subscriber_resume_agree_at_the_boundary() {
        let mut h = history(0, 6);
        let t = 3;
        h.prune_below(t); // the checkpointer's prune at its pinned seq
        assert_eq!(
            seqs(&h, t),
            Some(vec![4, 5, 6]),
            "the boundary commit T is the subscriber's state, not its need"
        );
        assert!(
            h.since(t - 1).is_none(),
            "resume at T-1 needs the pruned commit T and must be refused"
        );
    }

    #[test]
    fn eviction_advances_floor_and_drops_whole_chunks() {
        let evicted = relvu_obs::counter!("engine.ring.evicted");
        let before = evicted.get();
        let mut h = history(0, HISTORY_CAP + 10);
        assert!(h.since(5).is_none(), "oldest commits evicted");
        assert_eq!(h.floor(), 10, "the floor is the last evicted seq");
        assert_eq!(h.len(), HISTORY_CAP);
        assert_eq!(h.since(10).unwrap().count() as u64, HISTORY_CAP);
        assert_eq!(h.start, 0, "no whole chunk is below the floor yet");
        for seq in HISTORY_CAP + 11..=HISTORY_CAP + 300 {
            h.push(commit(seq));
        }
        assert_eq!((h.floor(), h.start), (300, HISTORY_CHUNK as u64));
        if relvu_obs::enabled() {
            // Other tests in this process may evict too; the counter is
            // process-wide, so it moved by at least this history's 300.
            assert!(evicted.get() - before >= 300, "every eviction is counted");
        }
    }

    #[test]
    fn history_log_ranges_match_vec_semantics() {
        let empty = History::default().log_range(0, usize::MAX);
        assert!(empty.entries.is_empty() && empty.gap.is_none());
        // Cross several chunk seals, starting at a recovery-style offset.
        let first = 40u64;
        let n = (HISTORY_CHUNK * 3 + 17) as u64;
        let mut h = history(first - 1, n);
        let reference: Vec<LogEntry> = (first..first + n)
            .map(|s| (*commit(s).entry).clone())
            .collect();
        let slice = |from_seq: u64, limit: usize| {
            let start = from_seq.saturating_sub(first).min(n) as usize;
            let end = start.saturating_add(limit).min(n as usize);
            reference[start..end].to_vec()
        };
        let chunk = HISTORY_CHUNK as u64;
        for (from, limit) in [
            (0, usize::MAX),
            (1, usize::MAX),
            (first, 1),
            (first + 10, HISTORY_CHUNK),
            (first + chunk - 1, 3),
            (first + n - 5, 100),
            (first + n, 1),
            (first + n + 10, 7),
            (first + 3, 0),
        ] {
            let got = h.log_range(from, limit);
            assert_eq!(got.entries, slice(from, limit), "({from},{limit})");
            // The front gap is reported exactly when the request starts
            // below the oldest held entry (0 and 1 both mean "start of
            // history"; history below `first` was never held).
            assert_eq!(got.gap.is_some(), from.max(1) < first, "({from},{limit})");
            if let Some(gap) = got.gap {
                assert_eq!((gap.requested_from, gap.first_available), (from, first));
            }
        }
        assert_eq!(h.len(), n);
        // Snapshot clones are independent of later pushes and prunes.
        let pinned = h.clone();
        h.push(commit(first + n));
        h.prune_below(first + chunk * 2);
        assert_eq!(pinned.len(), n);
        assert_eq!(h.len(), n - chunk * 2);
        assert_eq!(pinned.log_range(0, usize::MAX).entries, reference);
    }

    proptest::proptest! {
        /// History sweep: `History::log_range` and `History::since` agree
        /// with an independent Vec oracle for arbitrary origins, lengths,
        /// prune points and queries. The deterministic seam queries
        /// appended to every case pin the chunk-boundary behavior the
        /// sealed-chunk/tail-walk split could get wrong: a range ending
        /// exactly at a seal point, starting just past one, `limit == 0`,
        /// `from == last + 1`, and lengths at exact `HISTORY_CHUNK`
        /// multiples.
        #[test]
        fn log_range_matches_vec_oracle(
            origin in 0u64..500,
            len in 0usize..(HISTORY_CHUNK * 3 + 5),
            cut in 0usize..(HISTORY_CHUNK * 3 + 5),
            queries in proptest::collection::vec(
                (0u64..1500, 0usize..(HISTORY_CHUNK * 3 + 10)),
                1..16,
            ),
        ) {
            use proptest::prop_assert_eq;
            let mut h = history(origin, len as u64);
            // A checkpoint prune somewhere inside the held range.
            let floor = origin + (cut % (len + 1)) as u64;
            h.prune_below(floor);
            let first = floor + 1;
            let reference: Vec<LogEntry> =
                (first..=origin + len as u64).map(|s| (*commit(s).entry).clone()).collect();
            let chunk = HISTORY_CHUNK as u64;
            let last = origin + len as u64;
            let mut queries = queries;
            queries.extend([
                (first.saturating_sub(1), 3),        // just below history
                (first + chunk - 1, 3),              // ends at a seal point
                (first + chunk, 2),                  // starts just past one
                (first + chunk, HISTORY_CHUNK),      // exactly one chunk
                (first, 0),                          // limit == 0
                (last + 1, 5),                       // from == last + 1
                (0, usize::MAX),                     // everything
            ]);
            for (from, limit) in queries {
                let got = h.log_range(from, limit);
                let want: Vec<LogEntry> = reference
                    .iter()
                    .filter(|e| e.seq >= from)
                    .take(limit)
                    .cloned()
                    .collect();
                prop_assert_eq!(&got.entries, &want, "log_range({}, {})", from, limit);
                prop_assert_eq!(
                    got.gap.is_some(),
                    from.max(1) < first,
                    "gap presence for log_range({}, {})",
                    from,
                    limit
                );
                if let Some(g) = got.gap {
                    prop_assert_eq!((g.requested_from, g.first_available), (from, first));
                }
                let since: Option<Vec<u64>> = (from >= floor)
                    .then(|| reference.iter().map(|e| e.seq).filter(|&s| s > from).collect());
                prop_assert_eq!(seqs(&h, from), since, "since({})", from);
            }
        }
    }
}
