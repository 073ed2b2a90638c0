//! The one immutable record of an accepted update.
//!
//! [`crate::Database::commit`] computes a view update's translation
//! exactly once: its audit-log entry, the exact base delta, and every
//! touched view's instance delta. It builds each relation's delta once,
//! as an `Arc<ViewDelta>`, packs them with the entry into one
//! [`Commit`] behind an `Arc`, and every consumer shares those instead
//! of copying them:
//!
//! * the publish queue (the staged commits, applied at the next
//!   snapshot publish or dropped by an abort) and the published
//!   snapshots' commit history (`mvcc::History`, serving the audit
//!   log, incremental checkpoints and subscription catch-up) hold the
//!   `Arc<Commit>`;
//! * the `LazyRel` delta chains of published snapshots and CDC events
//!   hold the one relation's `Arc<ViewDelta>` they read, so a retained
//!   event or chain pins that relation's rows and nothing else.
//!
//! The returned [`crate::UpdateReport`] and the WAL's group-commit
//! queue share the `Arc<LogEntry>`. The history is bounded: checkpoints
//! prune it and it holds at most 65,536 commits, so the deltas it pins
//! are bounded too.
//!
//! A [`ViewDelta`] is the only way a consumer reads part of a commit:
//! the base's or one view's whole delta, or — for a selection view — its
//! σ_P or σ_¬P side, read through the σ_P partition computed once at
//! commit.

use std::sync::Arc;

use relvu_relation::{Relation, Tuple};

use crate::log::LogEntry;

/// One accepted update, built once and shared by every consumer.
///
/// Views whose instance did not change are absent from it; a commit
/// with an empty base delta (an identity translation) changed nothing.
#[derive(Debug)]
pub struct Commit {
    pub(crate) entry: Arc<LogEntry>,
    pub(crate) base: Arc<ViewDelta>,
    /// Touched views' instance deltas by view name, in DAG
    /// (topological) order.
    pub(crate) views: Box<[(String, Arc<ViewDelta>)]>,
}

impl Commit {
    /// The sequence number the commit was assigned.
    pub fn seq(&self) -> u64 {
        self.entry.seq
    }

    /// Base rows removed, in removal order.
    pub fn removed(&self) -> &[Tuple] {
        self.base.rows().0
    }

    /// Base rows inserted, in insertion order.
    pub fn added(&self) -> &[Tuple] {
        self.base.rows().1
    }

    /// True when the commit did not change the base (nor, therefore,
    /// any view).
    pub(crate) fn is_empty(&self) -> bool {
        self.base.is_empty()
    }
}

/// One commit's effect on one relation: the base, a view's instance,
/// or a selection view's σ_P or σ_¬P side of its instance.
///
/// Applying [`ViewDelta::deletes`] (in order) then
/// [`ViewDelta::inserts`] (in order) to the relation as of the previous
/// commit reproduces the relation as of `seq` exactly — including row
/// order, because `Relation::remove` is a swap-remove and these are the
/// writer's own application-order vectors. Subscribers receive it as
/// [`crate::SubEvent::Delta`]; it is shared, never copied.
pub struct ViewDelta {
    /// The sequence number of the commit that produced this delta.
    pub seq: u64,
    rows: Rows,
}

enum Rows {
    /// A relation's whole delta.
    Whole {
        removed: Box<[Tuple]>,
        added: Box<[Tuple]>,
        /// For a selection view: whether each tuple of `removed`, then
        /// of `added`, satisfies σ_P — the delta's one σ_P partition.
        in_pred: Option<Box<[bool]>>,
    },
    /// The σ_P (`matching`) or σ_¬P side of a selection view's whole
    /// delta.
    Side { of: Arc<ViewDelta>, matching: bool },
}

impl ViewDelta {
    /// A relation's whole delta; `in_pred` is the σ_P partition of
    /// `removed` then `added`, for selection views. The rows are kept at
    /// exact capacity: a delta can outlive its commit by a long way (a
    /// subscriber may keep its events).
    pub(crate) fn whole(
        seq: u64,
        removed: Vec<Tuple>,
        added: Vec<Tuple>,
        in_pred: Option<Vec<bool>>,
    ) -> Arc<Self> {
        Arc::new(ViewDelta {
            seq,
            rows: Rows::Whole {
                removed: removed.into_boxed_slice(),
                added: added.into_boxed_slice(),
                in_pred: in_pred.map(Vec::into_boxed_slice),
            },
        })
    }

    /// The σ_P (`matching`) or σ_¬P side of a selection view's whole
    /// delta.
    pub(crate) fn side(self: &Arc<Self>, matching: bool) -> Arc<Self> {
        debug_assert!(self.is_selection(), "only selection views have sides");
        Arc::new(ViewDelta {
            seq: self.seq,
            rows: Rows::Side {
                of: Arc::clone(self),
                matching,
            },
        })
    }

    /// Is this a selection view's whole delta, which has σ_P sides?
    pub(crate) fn is_selection(&self) -> bool {
        matches!(
            self.rows,
            Rows::Whole {
                in_pred: Some(_),
                ..
            }
        )
    }

    /// The whole delta's rows, `(removed, added)`, before any side is
    /// taken.
    pub(crate) fn rows(&self) -> (&[Tuple], &[Tuple]) {
        match &self.rows {
            Rows::Whole { removed, added, .. } => (removed, added),
            Rows::Side { of, .. } => of.rows(),
        }
    }

    /// Does this delta keep the tuple at `index` of `removed ++ added`?
    fn keeps(&self, index: usize) -> bool {
        match &self.rows {
            Rows::Whole { .. } => true,
            Rows::Side { of, matching } => match &of.rows {
                Rows::Whole {
                    in_pred: Some(m), ..
                } => m[index] == *matching,
                _ => unreachable!("sides are taken of selection deltas"),
            },
        }
    }

    /// Tuples the commit deleted from the relation, in deletion order.
    pub fn deletes(&self) -> impl Iterator<Item = &Tuple> {
        let (removed, _) = self.rows();
        (0..removed.len())
            .filter(|&i| self.keeps(i))
            .map(move |i| &removed[i])
    }

    /// Tuples the commit inserted into the relation, in insertion
    /// order.
    pub fn inserts(&self) -> impl Iterator<Item = &Tuple> {
        let (removed, added) = self.rows();
        (0..added.len())
            .filter(move |&i| self.keeps(removed.len() + i))
            .map(move |i| &added[i])
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.deletes().next().is_none() && self.inserts().next().is_none()
    }

    /// Number of delta rows: deletes plus inserts.
    pub(crate) fn len(&self) -> usize {
        self.deletes().count() + self.inserts().count()
    }

    /// Fold this delta into `rel`: deletes then inserts, in recorded
    /// order — the byte-identical reconstruction step.
    pub fn fold_into(&self, rel: &mut Relation) {
        for t in self.deletes() {
            rel.remove(t);
        }
        for t in self.inserts() {
            rel.insert(t.clone())
                .expect("committed rows keep the relation's arity");
        }
    }
}

impl PartialEq for ViewDelta {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
            && self.inserts().eq(other.inserts())
            && self.deletes().eq(other.deletes())
    }
}

impl Eq for ViewDelta {}

impl std::fmt::Debug for ViewDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewDelta")
            .field("seq", &self.seq)
            .field("inserts", &self.inserts().collect::<Vec<_>>())
            .field("deletes", &self.deletes().collect::<Vec<_>>())
            .finish()
    }
}

/// A commit at `seq` whose base delta is `(added, removed)` and which
/// touched the given views — for unit tests of the consumers.
#[cfg(test)]
pub(crate) fn test_commit(
    seq: u64,
    added: Vec<Tuple>,
    removed: Vec<Tuple>,
    views: Vec<(&str, Vec<Tuple>, Vec<Tuple>)>,
) -> Arc<Commit> {
    use crate::log::UpdateOp;
    let entry = Arc::new(LogEntry {
        seq,
        view: "v".to_string(),
        op: UpdateOp::Insert {
            t: Tuple::new(Vec::new()),
        },
        translation: relvu_core::Translation::Identity,
        rows_before: 0,
        rows_after: 0,
    });
    let views = views
        .into_iter()
        .map(|(name, added, removed)| {
            let delta = ViewDelta::whole(seq, removed, added, None);
            (name.to_string(), delta)
        })
        .collect();
    Arc::new(Commit {
        entry,
        base: ViewDelta::whole(seq, removed, added, None),
        views,
    })
}
