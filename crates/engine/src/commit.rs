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
//! commit. A delta keeps its rows in one flat block of values, removed
//! rows then added rows, `arity` values per row (the salmans/codd
//! stride layout): a commit that moves n rows holds one allocation of
//! n · arity values, not n separately allocated tuples.

use std::sync::Arc;

#[cfg(test)]
use relvu_relation::Tuple;
use relvu_relation::{Relation, Value};

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

    /// Base rows removed; see [`ViewDelta::deletes`] for how they pair
    /// with [`Commit::added`].
    pub fn removed(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        self.base.rows().0.iter()
    }

    /// Base rows inserted; see [`ViewDelta::inserts`].
    pub fn added(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        self.base.rows().1.iter()
    }

    /// True when the commit did not change the base (nor, therefore,
    /// any view).
    pub(crate) fn is_empty(&self) -> bool {
        self.base.is_empty()
    }
}

/// Rows of one arity, stored row-major in one flat value slice.
#[derive(Clone, Copy)]
pub(crate) struct Block<'a> {
    vals: &'a [Value],
    arity: usize,
    len: usize,
}

impl<'a> Block<'a> {
    /// No rows.
    pub(crate) const EMPTY: Block<'static> = Block {
        vals: &[],
        arity: 0,
        len: 0,
    };

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &'a [Value] {
        &self.vals[i * self.arity..(i + 1) * self.arity]
    }

    /// The rows in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &'a [Value]> + 'a {
        let b = *self;
        (0..b.len).map(move |i| b.row(i))
    }
}

/// A growable [`Block`]: where a commit writes its joined, netted and
/// projected rows, one value at a time, with no per-row allocation.
pub(crate) struct RowBuf {
    vals: Vec<Value>,
    arity: usize,
    len: usize,
}

impl RowBuf {
    /// An empty buffer for rows of `arity` values, with room for `rows`.
    pub(crate) fn with_capacity(arity: usize, rows: usize) -> Self {
        RowBuf {
            vals: Vec::with_capacity(arity * rows),
            arity,
            len: 0,
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Debug builds panic if `row` does not yield exactly `arity` values.
    pub(crate) fn push(&mut self, row: impl IntoIterator<Item = Value>) {
        let before = self.vals.len();
        self.vals.extend(row);
        debug_assert_eq!(self.vals.len() - before, self.arity, "row arity");
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn block(&self) -> Block<'_> {
        Block {
            vals: &self.vals,
            arity: self.arity,
            len: self.len,
        }
    }

    /// The rows as tuples, for unit tests.
    #[cfg(test)]
    pub(crate) fn to_tuples(&self) -> Vec<Tuple> {
        self.block()
            .iter()
            .map(|r| Tuple::new(r.iter().copied()))
            .collect()
    }

    /// A buffer holding `rows`, for unit tests.
    #[cfg(test)]
    pub(crate) fn of(rows: &[Tuple]) -> Self {
        let arity = rows.first().map_or(0, Tuple::arity);
        let mut buf = RowBuf::with_capacity(arity, rows.len());
        for t in rows {
            buf.push(t.values());
        }
        buf
    }
}

/// One commit's effect on one relation: the base, a view's instance,
/// or a selection view's σ_P or σ_¬P side of its instance.
///
/// Folding it into the relation as of the previous commit
/// ([`ViewDelta::fold_into`]) reproduces the relation as of `seq`
/// exactly — including row order,
/// because the lists are the ones the writer applied, under the same
/// edit rule ([`Relation::apply_delta`]): the `i`-th delete and the
/// `i`-th insert are a pair, rewritten in the delete's slot; the
/// leftover deletes are then swap-removed and the leftover inserts
/// appended, each in order. A case-2 replace (Theorem 9,
/// `t1[X∩Y] = t2[X∩Y]`) records each moved row's old version at the
/// same index as its new one. The rows
/// are one flat block of values, removed then added, `arity` per row,
/// read as row slices. Subscribers receive it as
/// [`crate::SubEvent::Delta`]; it is shared, never copied.
pub struct ViewDelta {
    /// The sequence number of the commit that produced this delta.
    pub seq: u64,
    body: Body,
}

enum Body {
    /// A relation's whole delta.
    Whole {
        /// The removed rows, then the added rows, `arity` values each.
        vals: Box<[Value]>,
        arity: usize,
        removed: usize,
        added: usize,
        /// For a selection view: whether each row of `removed`, then of
        /// `added`, satisfies σ_P — the delta's one σ_P partition.
        in_pred: Option<Box<[bool]>>,
    },
    /// The σ_P (`matching`) or σ_¬P side of a selection view's whole
    /// delta.
    Side { of: Arc<ViewDelta>, matching: bool },
}

impl ViewDelta {
    /// A relation's whole delta; `in_pred` is the σ_P partition of
    /// `removed` then `added`, for selection views. The rows are copied
    /// into one block of exact size: a delta can outlive its commit by a
    /// long way (a subscriber may keep its events).
    pub(crate) fn whole(
        seq: u64,
        removed: RowBuf,
        added: RowBuf,
        in_pred: Option<Vec<bool>>,
    ) -> Arc<Self> {
        debug_assert!(
            removed.is_empty() || added.is_empty() || removed.arity == added.arity,
            "one arity per delta"
        );
        let arity = if removed.is_empty() {
            added.arity
        } else {
            removed.arity
        };
        let mut vals = Vec::with_capacity(removed.vals.len() + added.vals.len());
        vals.extend_from_slice(&removed.vals);
        vals.extend_from_slice(&added.vals);
        Arc::new(ViewDelta {
            seq,
            body: Body::Whole {
                vals: vals.into_boxed_slice(),
                arity,
                removed: removed.len,
                added: added.len,
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
            body: Body::Side {
                of: Arc::clone(self),
                matching,
            },
        })
    }

    /// Is this a selection view's whole delta, which has σ_P sides?
    pub(crate) fn is_selection(&self) -> bool {
        matches!(
            self.body,
            Body::Whole {
                in_pred: Some(_),
                ..
            }
        )
    }

    /// The whole delta's rows, `(removed, added)`, before any side is
    /// taken.
    pub(crate) fn rows(&self) -> (Block<'_>, Block<'_>) {
        match &self.body {
            Body::Whole {
                vals,
                arity,
                removed,
                added,
                ..
            } => {
                let (arity, split) = (*arity, removed * arity);
                let block = |vals, len| Block { vals, arity, len };
                (
                    block(&vals[..split], *removed),
                    block(&vals[split..], *added),
                )
            }
            Body::Side { of, .. } => of.rows(),
        }
    }

    /// Does this delta keep the row at `index` of `removed ++ added`?
    fn keeps(&self, index: usize) -> bool {
        match &self.body {
            Body::Whole { .. } => true,
            Body::Side { of, matching } => match &of.body {
                Body::Whole {
                    in_pred: Some(m), ..
                } => m[index] == *matching,
                _ => unreachable!("sides are taken of selection deltas"),
            },
        }
    }

    /// Rows the commit deleted from the relation. The `i`-th delete and
    /// the `i`-th of [`ViewDelta::inserts`] are a pair: the insert took
    /// the delete's storage slot. A consumer that keeps a copy of the
    /// relation in the engine's row order must fold pairs in place, as
    /// [`ViewDelta::fold_into`] does; removing every delete and then
    /// inserting every insert gives the same set in another order.
    pub fn deletes(&self) -> impl Iterator<Item = &[Value]> {
        let (removed, _) = self.rows();
        (0..removed.len())
            .filter(|&i| self.keeps(i))
            .map(move |i| removed.row(i))
    }

    /// Rows the commit inserted into the relation: the first ones
    /// paired with [`ViewDelta::deletes`] (see there), then the leftover
    /// ones, appended in order.
    pub fn inserts(&self) -> impl Iterator<Item = &[Value]> {
        let (removed, added) = self.rows();
        (0..added.len())
            .filter(move |&i| self.keeps(removed.len() + i))
            .map(move |i| added.row(i))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.deletes().next().is_none() && self.inserts().next().is_none()
    }

    /// Number of delta rows: deletes plus inserts.
    pub(crate) fn len(&self) -> usize {
        self.deletes().count() + self.inserts().count()
    }

    /// Fold this delta into `rel`, the relation as of the previous
    /// commit, by [`Relation::apply_delta`]: each delete/insert pair is
    /// rewritten in place, then the leftover deletes are swap-removed
    /// and the leftover inserts appended — the byte-identical
    /// reconstruction step.
    ///
    /// # Panics
    /// Panics if `rel` is not the relation this delta was committed
    /// against: a delete it does not hold or an insert it already does.
    pub fn fold_into(&self, rel: &mut Relation) {
        rel.apply_delta(self.deletes(), self.inserts())
            .expect("a delta folds into the relation it was committed against");
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

/// A whole delta at `seq` from tuple lists — for unit tests.
#[cfg(test)]
pub(crate) fn test_delta(seq: u64, removed: Vec<Tuple>, added: Vec<Tuple>) -> Arc<ViewDelta> {
    ViewDelta::whole(seq, RowBuf::of(&removed), RowBuf::of(&added), None)
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
        .map(|(name, added, removed)| (name.to_string(), test_delta(seq, removed, added)))
        .collect();
    Arc::new(Commit {
        entry,
        base: test_delta(seq, removed, added),
        views,
    })
}
