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
//! are bounded too. A delta costs an 80 B header (its `Arc`) plus 16 B
//! per value it stores: a manager change moving 64 rows of `(E, D, M)`
//! keeps a 1,168 B base delta, so 65,536 of them pin about 77 MB of
//! base deltas (about 408 MB when each delta stored every row whole).
//!
//! A [`ViewDelta`] is the only way a consumer reads part of a commit:
//! the base's or one view's whole delta, or — for a selection view — its
//! σ_P or σ_¬P side, read through the σ_P partition computed once at
//! commit. A delta keeps its values in one boxed block, removed side
//! then added side. Each side stores the columns on which all its rows
//! agree once, then the remaining columns of each row, row-major (the
//! salmans/codd stride layout over the varying columns): a commit that
//! moves n rows holds one allocation, not n separately allocated
//! tuples. One view update's base delta agrees on the view's columns
//! `X` within each side (Theorems 3, 8 and 9; see [`ViewDelta`]), and a
//! case-2 replace's added side reuses the removed side's per-row values
//! outright. The commit builds and folds flat [`RowBuf`]s through the
//! whole DAG and compacts each relation's delta once, at the end.

use std::sync::Arc;

use relvu_relation::{Relation, RowRef, Tuple, Value};

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
    pub fn removed(&self) -> impl ExactSizeIterator<Item = DeltaRow<'_>> {
        self.base.sides().0.iter()
    }

    /// Base rows inserted; see [`ViewDelta::inserts`].
    pub fn added(&self) -> impl ExactSizeIterator<Item = DeltaRow<'_>> {
        self.base.sides().1.iter()
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

    /// The number of leading rows for which `pred` holds, assuming it
    /// is monotone (once false, false for the rest): a binary search,
    /// as [`slice::partition_point`] does on a slice.
    pub(crate) fn partition_point(&self, mut pred: impl FnMut(&[Value]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.row(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
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

    /// Insert `row` before row `i`, shifting the rows after it.
    pub(crate) fn insert(&mut self, i: usize, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity, "row arity");
        let at = i * self.arity;
        self.vals.splice(at..at, row.iter().copied());
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

/// The columns a side's shared-column mask covers: columns past it are
/// always stored per row.
const MASK_COLS: usize = u32::BITS as usize;

/// Is column `col` in the shared-column mask `consts`?
#[inline]
fn in_mask(consts: u32, col: usize) -> bool {
    col < MASK_COLS && consts >> col & 1 == 1
}

/// One side of a whole delta, removed or added: its row count and the
/// mask of the columns (among the first [`MASK_COLS`]) on which all its
/// rows agree. An empty side has an empty mask.
#[derive(Clone, Copy)]
struct Shape {
    len: u32,
    consts: u32,
}

impl Shape {
    /// The shape of `rows`: every column below [`MASK_COLS`] on which
    /// each row agrees with the first.
    fn of(rows: Block<'_>) -> Shape {
        let len = u32::try_from(rows.len()).expect("a delta side holds fewer than 2^32 rows");
        if rows.is_empty() {
            return Shape { len, consts: 0 };
        }
        let width = rows.arity.min(MASK_COLS);
        let mut consts = if width == MASK_COLS {
            u32::MAX
        } else {
            (1 << width) - 1
        };
        let first = rows.row(0);
        for row in rows.iter().skip(1) {
            if consts == 0 {
                break;
            }
            for (col, (a, b)) in first.iter().zip(row).take(width).enumerate() {
                if a != b {
                    consts &= !(1 << col);
                }
            }
        }
        Shape { len, consts }
    }

    /// Values stored once for the whole side.
    fn fixed(self) -> usize {
        self.consts.count_ones() as usize
    }
}

/// The values of `row` outside the mask `consts`: what a side stores per
/// row.
fn own_values(row: &[Value], consts: u32) -> impl Iterator<Item = Value> + '_ {
    row.iter()
        .enumerate()
        .filter(move |&(col, _)| !in_mask(consts, col))
        .map(|(_, &v)| v)
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
/// same index as its new one. Subscribers receive it as
/// [`crate::SubEvent::Delta`]; it is shared, never copied.
///
/// **Layout.** A whole delta keeps its values in one boxed block: the
/// removed side, then the added side. Each side stores the values of
/// the columns on which all its rows agree once (a mask marks them),
/// then the other columns of each row, row-major. A single view update
/// makes each side agree on the view's columns `X`: a delete removes
/// `σ_{X=t}(R)` (Theorem 8), an insert adds `{t} ⋈ π_Y(R)` (Theorem 3),
/// and a replace rewrites `σ_{X=t1}(R)` to `X = t2` (Theorem 9). When
/// the added side has as many rows as the removed side and the same
/// per-row values, row by row — every case-2 replace under the pair
/// rule, whose pairs differ only in `X − Y` — it shares the removed
/// side's per-row values. A manager change moving 64 rows of
/// `(E, D, M)` so stores `t1`, `t2` and 64 `E` values. Columns past the
/// mask's width (32) are always stored per row. The rows are read as
/// [`DeltaRow`]s.
pub struct ViewDelta {
    /// The sequence number of the commit that produced this delta.
    pub seq: u64,
    body: Body,
}

enum Body {
    /// A relation's whole delta.
    Whole {
        /// The removed side's shared values then its per-row values,
        /// then the added side's; the added side's per-row values are
        /// absent when `shared`.
        vals: Box<[Value]>,
        removed: Shape,
        added: Shape,
        arity: u32,
        /// The added side's per-row values are the removed side's.
        shared: bool,
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
    /// into one block of exact size, each side's shared columns once: a
    /// delta can outlive its commit by a long way (a subscriber may keep
    /// its events).
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
        let (rem, add) = (removed.block(), added.block());
        let (rem_shape, add_shape) = (Shape::of(rem), Shape::of(add));
        let shared = rem.len() == add.len()
            && rem_shape.consts == add_shape.consts
            && rem
                .iter()
                .zip(add.iter())
                .all(|(r, a)| own_values(r, rem_shape.consts).eq(own_values(a, add_shape.consts)));
        let stored = |shape: Shape| shape.fixed() + shape.len as usize * (arity - shape.fixed());
        let mut vals = Vec::with_capacity(
            stored(rem_shape)
                + if shared {
                    add_shape.fixed()
                } else {
                    stored(add_shape)
                },
        );
        for (rows, shape, per_row) in [(rem, rem_shape, true), (add, add_shape, !shared)] {
            if let Some(first) = rows.iter().next() {
                vals.extend(
                    first
                        .iter()
                        .enumerate()
                        .filter(|&(col, _)| in_mask(shape.consts, col))
                        .map(|(_, &v)| v),
                );
            }
            if per_row {
                for row in rows.iter() {
                    vals.extend(own_values(row, shape.consts));
                }
            }
        }
        debug_assert_eq!(vals.len(), vals.capacity(), "exact size");
        Arc::new(ViewDelta {
            seq,
            body: Body::Whole {
                vals: vals.into_boxed_slice(),
                removed: rem_shape,
                added: add_shape,
                arity: u32::try_from(arity).expect("arity fits a u32"),
                shared,
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
    fn sides(&self) -> (SideRows<'_>, SideRows<'_>) {
        match &self.body {
            Body::Whole {
                vals,
                removed,
                added,
                arity,
                shared,
                ..
            } => {
                let arity = *arity as usize;
                // One side's values off the front of `vals`, and the rest.
                let side = |vals, shape: Shape, per_row: bool| {
                    let (fixed, rest) = <[Value]>::split_at(vals, shape.fixed());
                    let (len, stride) = (shape.len as usize, arity - fixed.len());
                    let (own, rest) = rest.split_at(if per_row { len * stride } else { 0 });
                    let src = sources(shape.consts);
                    let rows = SideRows {
                        fixed,
                        own,
                        stride,
                        src,
                        len,
                    };
                    (rows, rest)
                };
                let (rem, rest) = side(vals, *removed, true);
                let (mut add, rest) = side(rest, *added, !*shared);
                debug_assert!(rest.is_empty(), "the block holds both sides");
                if *shared {
                    add.own = rem.own;
                }
                (rem, add)
            }
            Body::Side { of, .. } => of.sides(),
        }
    }

    /// Does this delta keep the row at `index` of `removed ++ added`?
    fn keeps(&self, index: usize) -> bool {
        match &self.body {
            Body::Whole { .. } => true,
            Body::Side { of, matching } => of.in_pred()[index] == *matching,
        }
    }

    /// The σ_P partition of a selection view's whole delta.
    fn in_pred(&self) -> &[bool] {
        match &self.body {
            Body::Whole {
                in_pred: Some(m), ..
            } => m,
            _ => unreachable!("sides are taken of selection deltas"),
        }
    }

    /// Rows the commit deleted from the relation. The `i`-th delete and
    /// the `i`-th of [`ViewDelta::inserts`] are a pair: the insert took
    /// the delete's storage slot. A consumer that keeps a copy of the
    /// relation in the engine's row order must fold pairs in place, as
    /// [`ViewDelta::fold_into`] does; removing every delete and then
    /// inserting every insert gives the same set in another order.
    pub fn deletes(&self) -> impl Iterator<Item = DeltaRow<'_>> {
        let (removed, _) = self.sides();
        (0..removed.len)
            .filter(|&i| self.keeps(i))
            .map(move |i| removed.row(i))
    }

    /// Rows the commit inserted into the relation: the first ones
    /// paired with [`ViewDelta::deletes`] (see there), then the leftover
    /// ones, appended in order.
    pub fn inserts(&self) -> impl Iterator<Item = DeltaRow<'_>> {
        let (removed, added) = self.sides();
        (0..added.len)
            .filter(move |&i| self.keeps(removed.len + i))
            .map(move |i| added.row(i))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of delta rows: deletes plus inserts. O(1) for a whole
    /// delta; a σ_P side counts its rows in the partition.
    pub(crate) fn len(&self) -> usize {
        match &self.body {
            Body::Whole { removed, added, .. } => removed.len as usize + added.len as usize,
            Body::Side { of, matching } => of.in_pred().iter().filter(|&&m| m == *matching).count(),
        }
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

/// Marks a column read from a side's shared values in a source table.
const FIXED: u8 = 0x80;

/// Where a side whose shared-column mask is `consts` keeps each of its
/// first [`MASK_COLS`] columns: `FIXED | k` for the `k`-th shared value,
/// `k` for a row's `k`-th own value. Worked out once per side, so that
/// reading a column is one table lookup.
fn sources(consts: u32) -> [u8; MASK_COLS] {
    let mut src = [0; MASK_COLS];
    let (mut fixed, mut own) = (0, 0);
    for (col, s) in src.iter_mut().enumerate() {
        if in_mask(consts, col) {
            *s = FIXED | fixed;
            fixed += 1;
        } else {
            *s = own;
            own += 1;
        }
    }
    src
}

/// The rows of one side of a whole delta: the mask's columns read from
/// `fixed`, the others from each row's `stride` values of `own`, as
/// `src` says.
#[derive(Clone, Copy)]
struct SideRows<'a> {
    fixed: &'a [Value],
    own: &'a [Value],
    stride: usize,
    src: [u8; MASK_COLS],
    len: usize,
}

impl<'a> SideRows<'a> {
    /// Row `i`.
    fn row(&self, i: usize) -> DeltaRow<'a> {
        DeltaRow {
            fixed: self.fixed,
            own: &self.own[i * self.stride..(i + 1) * self.stride],
            src: self.src,
        }
    }

    /// The rows in order.
    fn iter(self) -> impl ExactSizeIterator<Item = DeltaRow<'a>> {
        (0..self.len).map(move |i| self.row(i))
    }
}

/// One row of a [`ViewDelta`]: the values its side shares with every
/// other row of the side, and its own. Compares, prints and folds
/// ([`RowRef`]) as its values in column order.
#[derive(Clone, Copy)]
pub struct DeltaRow<'a> {
    fixed: &'a [Value],
    own: &'a [Value],
    /// Where each of the first [`MASK_COLS`] columns is read from (see
    /// [`sources`]); the columns past them are all own values.
    src: [u8; MASK_COLS],
}

impl<'a> DeltaRow<'a> {
    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.fixed.len() + self.own.len()
    }

    /// Value at dense column position `i`.
    ///
    /// # Panics
    /// Panics if `i` is not below the arity.
    #[inline]
    pub fn at(&self, i: usize) -> Value {
        match self.src.get(i) {
            Some(&s) if s & FIXED != 0 => self.fixed[usize::from(s & !FIXED)],
            Some(&s) => self.own[usize::from(s)],
            None => self.own[i - self.fixed.len()],
        }
    }

    /// The values in dense column order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = Value> + 'a {
        let row = *self;
        (0..row.arity()).map(move |i| row.at(i))
    }

    /// An owned copy of the row.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.values())
    }
}

impl RowRef for DeltaRow<'_> {
    #[inline]
    fn arity(&self) -> usize {
        DeltaRow::arity(self)
    }
    #[inline]
    fn at(&self, i: usize) -> Value {
        DeltaRow::at(self, i)
    }
}

impl PartialEq for DeltaRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.values().eq(other.values())
    }
}

impl Eq for DeltaRow<'_> {}

impl std::fmt::Debug for DeltaRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.values()).finish()
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

#[cfg(test)]
mod tests {
    //! The representation differential: a whole delta, however its
    //! sides share columns, reads back as the flat rows it was built
    //! from, in order, and folds as [`Relation::apply_delta`] over them.

    use super::*;
    use rand::prelude::*;
    use relvu_relation::{Attr, AttrSet};

    /// How a generated side's columns relate across its rows.
    #[derive(Clone, Copy, Debug)]
    enum Cols {
        /// Every column holds one value on all rows.
        AllConstant,
        /// Every column is drawn per row; column 0 is the row number, so
        /// the rows are distinct.
        NoneConstant,
        /// Each column is constant or drawn per row at random; the last
        /// column is the row number.
        Mixed,
    }

    /// `n` rows of `arity` values laid out as `cols` says.
    fn side(rng: &mut StdRng, arity: usize, n: usize, cols: Cols) -> Vec<Tuple> {
        let constant: Vec<bool> = (0..arity)
            .map(|c| match cols {
                Cols::AllConstant => true,
                Cols::NoneConstant => false,
                Cols::Mixed => c + 1 < arity && rng.gen_bool(0.5),
            })
            .collect();
        let fixed: Vec<u64> = (0..arity).map(|_| rng.gen_range(0..4u64)).collect();
        let row_no = match cols {
            Cols::NoneConstant => Some(0),
            Cols::Mixed => Some(arity - 1),
            Cols::AllConstant => None,
        };
        (0..n)
            .map(|i| {
                Tuple::new((0..arity).map(|c| {
                    Value::int(if row_no == Some(c) {
                        1_000 + i as u64
                    } else if constant[c] {
                        fixed[c]
                    } else {
                        rng.gen_range(0..4u64)
                    })
                }))
            })
            .collect()
    }

    /// The added side of a case-2 replace: each removed row with every
    /// column the removed rows all agree on (below the mask width, and
    /// not the row number) rewritten to one new value.
    fn replaced(removed: &[Tuple]) -> Vec<Tuple> {
        let arity = removed[0].arity();
        let agree: Vec<bool> = (0..arity)
            .map(|c| c < MASK_COLS && removed.iter().all(|t| t.at(c) == removed[0].at(c)))
            .collect();
        removed
            .iter()
            .map(|t| {
                Tuple::new((0..arity).map(|c| match agree[c] {
                    true => Value::int(50 + c as u64),
                    false => t.at(c),
                }))
            })
            .collect()
    }

    fn tuples<'a>(rows: impl Iterator<Item = DeltaRow<'a>>) -> Vec<Tuple> {
        rows.map(|r| r.to_tuple()).collect()
    }

    /// Values the delta stores, and whether its added side shares the
    /// removed side's per-row values.
    fn stored(d: &ViewDelta) -> (usize, bool) {
        match &d.body {
            Body::Whole { vals, shared, .. } => (vals.len(), *shared),
            Body::Side { .. } => unreachable!("a whole delta"),
        }
    }

    /// Are the rows distinct within each side and the sides disjoint, so
    /// that they fold into a relation holding the removed ones?
    fn foldable(removed: &[Tuple], added: &[Tuple]) -> bool {
        let mut seen: Vec<&Tuple> = removed.iter().collect();
        seen.sort();
        seen.dedup();
        let mut all: Vec<&Tuple> = removed.iter().chain(added).collect();
        all.sort();
        all.dedup();
        seen.len() == removed.len() && all.len() == removed.len() + added.len()
    }

    #[test]
    fn whole_deltas_read_back_their_rows_in_order() {
        let mut rng = StdRng::seed_from_u64(26);
        let (mut folded, mut shared_seen) = (0, 0);
        for case in 0..3000 {
            let arity = [1, 2, 3, 5, 32, 33, 35][rng.gen_range(0..7)];
            let len = |rng: &mut StdRng| match rng.gen_range(0..3) {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(2..12),
            };
            let cols = |rng: &mut StdRng| {
                [Cols::AllConstant, Cols::NoneConstant, Cols::Mixed][rng.gen_range(0..3)]
            };
            let n_removed = len(&mut rng);
            let (cr, ca) = (cols(&mut rng), cols(&mut rng));
            let removed = side(&mut rng, arity, n_removed, cr);
            let share = n_removed > 0 && rng.gen_bool(0.4);
            let added = match (share, rng.gen_range(0..3)) {
                (true, _) => replaced(&removed),
                (false, 0) => side(&mut rng, arity, n_removed, ca),
                (false, _) => {
                    let n = len(&mut rng);
                    side(&mut rng, arity, n, ca)
                }
            };
            let selection = rng.gen_bool(0.3);
            let in_pred: Option<Vec<bool>> = selection.then(|| {
                (0..removed.len() + added.len())
                    .map(|_| rng.gen_bool(0.5))
                    .collect()
            });
            let what = format!("case {case}: arity {arity}, {cr:?}/{ca:?}, share {share}");
            let d = ViewDelta::whole(7, RowBuf::of(&removed), RowBuf::of(&added), in_pred.clone());

            assert_eq!(tuples(d.deletes()), removed, "{what}: deletes");
            assert_eq!(tuples(d.inserts()), added, "{what}: inserts");
            assert_eq!(d.len(), removed.len() + added.len(), "{what}: len");
            assert_eq!(d.is_empty(), removed.is_empty() && added.is_empty());
            assert!(d.deletes().all(|r| r.arity() == arity));
            let (vals, shared) = stored(&d);
            let flat = (removed.len() + added.len()) * arity;
            assert!(vals <= flat.max(2 * arity), "{what}: {vals} values stored");
            if share {
                assert!(shared, "{what}: a replace shares its per-row values");
                shared_seen += 1;
            }
            if selection {
                let in_pred = in_pred.unwrap();
                for matching in [true, false] {
                    let part = d.side(matching);
                    let keep = |rows: &[Tuple], from: usize| -> Vec<Tuple> {
                        rows.iter()
                            .enumerate()
                            .filter(|&(i, _)| in_pred[from + i] == matching)
                            .map(|(_, t)| t.clone())
                            .collect()
                    };
                    let (dels, ins) = (keep(&removed, 0), keep(&added, removed.len()));
                    assert_eq!(tuples(part.deletes()), dels, "{what}: σ_P deletes");
                    assert_eq!(tuples(part.inserts()), ins, "{what}: σ_P inserts");
                    assert_eq!(part.len(), dels.len() + ins.len(), "{what}: σ_P len");
                    assert_eq!(part.is_empty(), dels.is_empty() && ins.is_empty());
                }
            }
            if foldable(&removed, &added) {
                let universe: AttrSet = (0..arity).map(Attr::new).collect();
                let extra = (0..3).map(|i| Tuple::new((0..arity).map(|_| Value::int(900 + i))));
                let rel = Relation::from_rows(universe, removed.iter().cloned().chain(extra))
                    .expect("distinct rows");
                let mut want = rel.clone();
                want.apply_delta(&removed, &added).expect("a valid delta");
                let mut got = rel;
                d.fold_into(&mut got);
                assert_eq!(got.rows(), want.rows(), "{what}: fold_into");
                folded += 1;
            }
        }
        assert!(folded > 1000, "{folded} cases folded");
        assert!(shared_seen > 500, "{shared_seen} cases shared");
    }

    #[test]
    fn a_manager_change_stores_its_shared_columns_once() {
        // (E, D, M): 64 employees of department 3 move from manager 100
        // to 101, each rewritten in its own slot.
        let removed: Vec<Tuple> = (0..64)
            .map(|e| Tuple::new([e, 3, 100].map(Value::int)))
            .collect();
        let added: Vec<Tuple> = (0..64)
            .map(|e| Tuple::new([e, 3, 101].map(Value::int)))
            .collect();
        let d = ViewDelta::whole(1, RowBuf::of(&removed), RowBuf::of(&added), None);
        // t1, t2 and the 64 `E` values.
        assert_eq!(stored(&d), (2 + 2 + 64, true));
        // A lone row is all shared columns: as many values as it has.
        let one = ViewDelta::whole(2, RowBuf::of(&removed[..1]), RowBuf::of(&[]), None);
        assert_eq!(stored(&one), (3, false));
        assert_eq!(tuples(one.deletes()), removed[..1]);
        // The header did not grow: masks replaced the `usize` fields.
        assert_eq!(std::mem::size_of::<ViewDelta>(), 64);
    }
}
