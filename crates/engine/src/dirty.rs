//! The commit ring: recent commits, for incremental checkpoints and
//! subscription catch-up.
//!
//! Every accepted update is one shared [`Commit`] holding its exact base
//! delta and every touched view's instance delta; this module keeps a
//! bounded ring of them, keyed by commit sequence number, so that
//!
//! * a checkpoint can serialize *only what changed* since its parent
//!   instead of the full dump (the base deltas), and
//! * a subscriber resuming at seq `S` can replay the per-view deltas of
//!   `(S, now]` before cutting over to live tailing.
//!
//! Replaying the recorded commits in order reproduces the base relation
//! (and each view instance) **byte-for-byte** — including row order,
//! which the dump format depends on — because each commit's removals and
//! insertions are applied exactly as [`crate::Database::commit`] applied
//! them (`Relation::remove` is a swap-remove, so net set-deltas would
//! not be enough).
//!
//! # Boundary convention (shared by both consumers)
//!
//! Every range is **exclusive at the start, inclusive at the end**:
//! [`DirtyRing::range`]`(from, to)` serves `(from, to]`, and `floor` is
//! the coverage guarantee "every commit with `floor < seq <= engine
//! seq` is covered". [`DirtyRing::prune_below`]`(seq)` drops entries
//! `<= seq` and raises the floor to `seq` — so a checkpoint (or
//! subscriber) that has folded *through* seq `T` can still resume at
//! `from == T` after a prune at `T`: the boundary commit itself is
//! already part of its state and is exactly the one entry the prune
//! removed. A resume at `T-1` after that prune needs the pruned commit
//! and correctly gets `None`.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::commit::Commit;

/// Bounded ring of recent [`Commit`]s, shared (not copied) with the
/// publish queue, snapshots and CDC events.
///
/// `floor` is the coverage guarantee: every commit with
/// `floor < seq <= engine seq` that changed the base is present in
/// `entries`. Commits with an empty base delta are not stored but are
/// still covered — replay simply has nothing to do for them. The ring
/// holds at most [`MAX_ENTRIES`] commits: beyond that the oldest is
/// evicted, the floor advances past it and `engine.ring.evicted`
/// counts it, shrinking the range an incremental checkpoint or resuming
/// subscriber can cover (callers then fall back to a full serialization
/// / a fresh snapshot origin). Checkpoints prune it long before that in
/// a store that checkpoints.
pub(crate) struct DirtyRing {
    entries: VecDeque<Arc<Commit>>,
    floor: u64,
}

/// Eviction threshold: enough to cover a long checkpoint interval while
/// bounding memory.
pub(crate) const MAX_ENTRIES: usize = 1 << 16;

impl DirtyRing {
    pub(crate) fn new() -> Self {
        DirtyRing {
            entries: VecDeque::new(),
            floor: 0,
        }
    }

    /// The oldest sequence number a range may start from and still be
    /// fully served — the exclusive lower bound of coverage.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// Hold a commit — called at its publish, so a commit an abort
    /// dropped never reaches the ring. Empty commits are covered by
    /// `floor` semantics without being stored.
    pub(crate) fn record(&mut self, commit: &Arc<Commit>) {
        if commit.is_empty() {
            debug_assert!(
                commit.views.is_empty(),
                "view deltas derive from the base delta"
            );
            return;
        }
        if self.entries.len() >= MAX_ENTRIES {
            if let Some(evicted) = self.entries.pop_front() {
                self.floor = self.floor.max(evicted.seq());
                relvu_obs::counter!("engine.ring.evicted").inc();
            }
        }
        self.entries.push_back(Arc::clone(commit));
    }

    /// Drop entries at or below `seq` and advance the floor to `seq`:
    /// a checkpoint at `seq` has made them redundant, or a recovery
    /// resumed the counter there. Ranges starting *at* `seq` stay fully
    /// served (the boundary commit is part of the caller's state, not of
    /// the range — see the module docs).
    pub(crate) fn prune_below(&mut self, seq: u64) {
        while matches!(self.entries.front(), Some(e) if e.seq() <= seq) {
            self.entries.pop_front();
        }
        self.floor = self.floor.max(seq);
    }

    /// The commits in `(from_seq, to_seq]`, oldest first — or `None`
    /// when the ring no longer covers `from_seq` (evicted or never
    /// recorded). The checkpointer and a resuming subscriber both read
    /// through here, so they can never disagree about whether a seq is
    /// covered.
    pub(crate) fn range(
        &self,
        from_seq: u64,
        to_seq: u64,
    ) -> Option<impl Iterator<Item = &Arc<Commit>>> {
        if from_seq < self.floor {
            return None;
        }
        Some(
            self.entries
                .iter()
                .filter(move |e| e.seq() > from_seq && e.seq() <= to_seq),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::test_commit;
    use relvu_relation::tup;

    fn push(ring: &mut DirtyRing, s: u64) {
        ring.record(&test_commit(
            s,
            vec![tup![s, 1]],
            vec![],
            vec![("v", vec![tup![s]], vec![])],
        ));
    }

    fn seqs(ring: &DirtyRing, from: u64, to: u64) -> Option<Vec<u64>> {
        ring.range(from, to).map(|r| r.map(|c| c.seq()).collect())
    }

    #[test]
    fn range_covers_recorded_commits() {
        let mut ring = DirtyRing::new();
        for s in 1..=5 {
            push(&mut ring, s);
        }
        assert_eq!(seqs(&ring, 2, 4), Some(vec![3, 4]));
        // Full range from the floor.
        assert_eq!(seqs(&ring, 0, 5).unwrap().len(), 5);
        // The view deltas ride along in the same commits.
        assert_eq!(ring.range(2, 4).unwrap().next().unwrap().views.len(), 1);
    }

    #[test]
    fn empty_deltas_are_covered_not_stored() {
        let mut ring = DirtyRing::new();
        ring.record(&test_commit(1, vec![], vec![], vec![]));
        assert_eq!(seqs(&ring, 0, 1), Some(vec![]), "empty delta still covered");
    }

    #[test]
    fn prune_below_advances_floor() {
        let mut ring = DirtyRing::new();
        for s in 1..=4 {
            push(&mut ring, s);
        }
        ring.prune_below(2);
        assert!(ring.range(1, 4).is_none(), "below the floor");
        assert_eq!(seqs(&ring, 2, 4).unwrap().len(), 2);
        assert_eq!(ring.floor(), 2);
    }

    /// The shared-boundary contract: after a checkpoint prunes at `T`, a
    /// subscriber that folded through `T` resumes gaplessly, and one at
    /// `T-1` is told (not silently shorted) that coverage is gone. Both
    /// consumers use the same `(from, to]` convention, so the boundary
    /// commit can never be both pruned and still needed.
    #[test]
    fn checkpoint_prune_and_subscriber_resume_agree_at_the_boundary() {
        let mut ring = DirtyRing::new();
        for s in 1..=6 {
            push(&mut ring, s);
        }
        let t = 3;
        ring.prune_below(t); // the checkpointer's prune at its pinned seq
        assert_eq!(
            seqs(&ring, t, 6),
            Some(vec![4, 5, 6]),
            "the boundary commit T is the subscriber's state, not its need"
        );
        assert!(
            ring.range(t - 1, 6).is_none(),
            "resume at T-1 needs the pruned commit T and must be refused"
        );
    }

    #[test]
    fn eviction_advances_floor() {
        let evicted = relvu_obs::counter!("engine.ring.evicted");
        let before = evicted.get();
        let mut ring = DirtyRing::new();
        for s in 1..=(MAX_ENTRIES as u64 + 10) {
            push(&mut ring, s);
        }
        assert!(ring.range(5, 100).is_none(), "oldest entries evicted");
        assert_eq!(ring.floor(), 10, "the floor is the last evicted seq");
        assert!(ring.range(10, MAX_ENTRIES as u64 + 10).is_some());
        if relvu_obs::enabled() {
            // Other tests in this process may evict too; the counter is
            // process-wide, so it moved by at least this ring's 10.
            assert!(evicted.get() - before >= 10, "every eviction is counted");
        }
    }
}
