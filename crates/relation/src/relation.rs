//! Relation instances with set semantics, stored columnar.
//!
//! A row is its storage slot: each attribute is a dictionary-interned
//! `u32` id column (see [`crate::columnar`]), and the id columns are the
//! only copy of the rows. Callers read a row as a borrowed [`Row`],
//! decoded value by value through the dictionaries, in storage order —
//! insertion order with swap-remove holes and in-place pair rewrites,
//! the order every serialization layer reproduces byte-for-byte.
//! Membership, removal and the conjunctive scans the translation tests
//! run are id-array work over a sorted slot index; no tuple is ever
//! stored, cloned or hashed.
//!
//! A commit's delta reaches every copy of a relation through one edit
//! rule, [`Relation::apply_delta`]: each removed row paired with an
//! added row is rewritten in its own slot, then the leftover removals
//! are swap-removed and the leftover additions appended. A
//! constant-complement replace that moves n rows is therefore n in-place
//! id rewrites, not n swap-removes and n appends, and the writer,
//! snapshot replay, CDC folds and checkpoint replay all land on the same
//! row order.

use std::cmp::Ordering;
use std::fmt;

use crate::columnar::{sort_slots, Col, SortKey};
use crate::row::{Row, RowIter, RowRef, Rows};
use crate::{Attr, AttrSet, RelationError, Result, Tuple, Value, MAX_ATTRS};

/// A relation instance over an attribute set.
///
/// Rows are a *set* (duplicate inserts are ignored), matching the paper's
/// pure relational model. Iteration order is deterministic — a pure
/// function of the sequence of inserts, removals and deltas — which keeps
/// displays, dumps and recovery byte-identical, but removal is
/// swap-based, so a `remove` moves the **last** row into the vacated
/// slot rather than preserve the original insertion order.
///
/// Internally each attribute is a dictionary-interned id column, and a
/// slot index sorted by id-lexicographic row key replaces the old
/// tuple→index hash map: membership is a binary search over `u32`s, and
/// inserts intern `Copy` ids instead of cloning the tuple into a map. A
/// clone copies `arity + 1` `u32` arrays and the dictionaries.
#[derive(Clone, Default)]
pub struct Relation {
    attrs: AttrSet,
    /// One interned id column per dense attribute position, each `ids`
    /// array holding one entry per row slot.
    cols: Vec<Col>,
    /// Number of rows (kept apart from the columns so an arity-0
    /// relation still counts its one possible row).
    len: usize,
    /// Row slots sorted by id-lexicographic key. Ids are assigned in
    /// first-appearance order, so this order is internal to the relation
    /// (it is *not* value order); it exists for O(log n) membership.
    order: Vec<u32>,
    /// Rows currently containing at least one labeled null, maintained
    /// on insert/remove so `has_nulls` is O(1).
    null_rows: usize,
}

/// An id key resolved on the stack, so probes, inserts and removals
/// allocate nothing (the old tuple→index map cloned the whole tuple per
/// insert; see the allocation regression test).
type IdKey = [u32; MAX_ATTRS];

/// One slot edit of [`Relation::apply_delta_tracked`], for a caller
/// that keeps a vector parallel to the row slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotEdit {
    /// The pair at index `added` of both lists: the added row now holds
    /// the removed row's slot `slot`.
    Rewrite {
        /// The rewritten slot.
        slot: usize,
        /// The pair's index in both lists.
        added: usize,
    },
    /// A leftover removed row left `slot`, and the last slot moved into
    /// it (`Vec::swap_remove`).
    SwapRemove {
        /// The vacated slot.
        slot: usize,
    },
    /// The leftover added row at index `added` took a new last slot.
    Append {
        /// Its index in the added list.
        added: usize,
    },
}

/// Does `row` hold a labeled null?
fn row_has_null(row: &(impl RowRef + ?Sized)) -> bool {
    (0..row.arity()).any(|i| row.at(i).is_null())
}

impl Relation {
    /// An empty relation over `attrs`.
    pub fn new(attrs: AttrSet) -> Self {
        Relation {
            attrs,
            cols: (0..attrs.len()).map(|_| Col::default()).collect(),
            len: 0,
            order: Vec::new(),
            null_rows: 0,
        }
    }

    /// Build from rows, deduplicating (first occurrence wins, as with
    /// sequential inserts). Bulk path: the slot index is sorted once in
    /// `O(n log n)` instead of maintained per insert.
    ///
    /// # Errors
    /// Fails if any row's arity differs from `attrs.len()`.
    pub fn from_rows<I: IntoIterator<Item = Tuple>>(attrs: AttrSet, rows: I) -> Result<Self> {
        Relation::from_values(attrs, rows)
    }

    /// [`Relation::from_rows`] over rows given as value sequences in
    /// dense column order — a borrowed row's `values()`, a projection, a
    /// join — so no row is materialized as a [`Tuple`] on the way in.
    ///
    /// # Errors
    /// Fails if any row's arity differs from `attrs.len()`, or a column
    /// dictionary exhausts its id space.
    pub fn from_values<I, R>(attrs: AttrSet, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = Value>,
    {
        let mut r = Relation::new(attrs);
        let arity = attrs.len();
        for row in rows {
            let mut got = 0;
            for v in row {
                if let Some(c) = r.cols.get_mut(got) {
                    let id = c.intern(v)?;
                    c.ids.push(id);
                }
                got += 1;
            }
            if got != arity {
                return Err(RelationError::ArityMismatch {
                    expected: arity,
                    got,
                });
            }
            r.len += 1;
        }
        r.rebuild_order_dedup();
        Ok(r)
    }

    /// This relation widened to `to ⊇ attrs`: each existing column is
    /// read off its id array and each new column is filled row by row
    /// with `fill(slot, attr)`. Every column is interned afresh, so the
    /// copy's dictionaries hold only live values, whatever this
    /// relation's have accumulated. Row order is kept, and since the old
    /// columns already tell the rows apart, no row can collide; only the
    /// slot index is sorted again.
    ///
    /// # Errors
    /// [`RelationError::NotASubset`] if `attrs ⊄ to`;
    /// [`RelationError::DictFull`] if a column runs out of ids.
    pub fn widened(
        &self,
        to: AttrSet,
        mut fill: impl FnMut(usize, Attr) -> Value,
    ) -> Result<Relation> {
        if !self.attrs.is_subset(&to) {
            return Err(RelationError::NotASubset);
        }
        let mut r = Relation::new(to);
        for (c, a) in r.cols.iter_mut().zip(to.iter()) {
            let from = self.attrs.rank(a).map(|rank| &self.cols[rank]);
            c.ids.reserve_exact(self.len);
            for slot in 0..self.len {
                let v = match from {
                    Some(src) => src.val_of(src.ids[slot]),
                    None => fill(slot, a),
                };
                let id = c.intern(v)?;
                c.ids.push(id);
            }
        }
        r.len = self.len;
        r.rebuild_order_dedup();
        Ok(r)
    }

    /// Compare two row slots by id-lexicographic key.
    #[inline]
    fn cmp_slots(&self, a: u32, b: u32) -> Ordering {
        for c in &self.cols {
            match c.ids[a as usize].cmp(&c.ids[b as usize]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Compare a row slot against a probe id key.
    #[inline]
    fn cmp_slot_probe(&self, slot: u32, probe: &[u32]) -> Ordering {
        for (c, &pid) in self.cols.iter().zip(probe) {
            match c.ids[slot as usize].cmp(&pid) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Binary-search `order` for a probe key.
    fn search_probe(&self, probe: &[u32]) -> std::result::Result<usize, usize> {
        self.order
            .binary_search_by(|&slot| self.cmp_slot_probe(slot, probe))
    }

    /// The position in `order` of `t`, if present: its id key is
    /// resolved into a stack buffer, and a value unknown to a dictionary
    /// means `t` cannot be a member.
    fn search_row(&self, t: &(impl RowRef + ?Sized)) -> Option<usize> {
        let key = self.key_of(t)?;
        self.search_probe(&key[..self.cols.len()]).ok()
    }

    /// `t`'s id key, or `None` if its arity is wrong or a value of it was
    /// never interned (so it cannot be a member).
    fn key_of(&self, t: &(impl RowRef + ?Sized)) -> Option<IdKey> {
        if t.arity() != self.attrs.len() {
            return None;
        }
        let mut key: IdKey = [0; MAX_ATTRS];
        for (i, (c, id)) in self.cols.iter().zip(&mut key).enumerate() {
            *id = c.id_of(t.at(i))?;
        }
        Some(key)
    }

    /// Position in `order` of an existing row slot.
    fn search_slot(&self, slot: u32) -> usize {
        self.order
            .binary_search_by(|&cand| self.cmp_slots(cand, slot))
            .expect("every live slot is indexed")
    }

    /// Rebuild the sorted slot index from scratch, removing duplicate
    /// rows (keeping each key's lowest slot — its first occurrence).
    fn rebuild_order_dedup(&mut self) {
        let (mut idx, same) = self.sorted_slots();
        if same.iter().any(|&s| s) {
            // Compact the id columns, preserving relative order of
            // survivors (exactly the order sequential dedup would give).
            // Runs are slot-ascending, so each run's first slot stays.
            let mut dup = vec![false; self.len];
            for (&slot, &s) in idx.iter().zip(&same) {
                dup[slot as usize] = s;
            }
            for c in &mut self.cols {
                let mut slot = 0;
                c.ids.retain(|_| {
                    slot += 1;
                    !dup[slot - 1]
                });
            }
            self.len = dup.iter().filter(|&&d| !d).count();
            idx = self.sorted_slots().0;
        }
        self.order = idx;
        self.count_null_rows();
    }

    /// The slots sorted by id-lexicographic key (see [`sort_slots`]).
    fn sorted_slots(&self) -> (Vec<u32>, Vec<bool>) {
        let keys: Vec<SortKey<'_>> = self.cols.iter().map(|c| c.sort_key(false)).collect();
        sort_slots(self.len, &keys)
    }

    /// Recount the rows holding a labeled null; none can when no
    /// dictionary holds one.
    fn count_null_rows(&mut self) {
        self.null_rows = match self.cols.iter().any(Col::has_null) {
            true => self.iter().filter(Row::has_null).count(),
            false => 0,
        };
    }

    /// `π_x` of this relation with each kept row's multiplicity; see
    /// [`crate::ops::project_counted`]. One sort of the slots by their
    /// `x` ids finds the duplicates: each run's first slot survives, and
    /// the run's length is its count. The output columns are gathered
    /// by remapping ids ([`Col::gather`]), and when every remap keeps
    /// the id order, the sorted runs already are the output's slot
    /// index, so nothing is sorted twice.
    pub(crate) fn project_counted(&self, x: AttrSet) -> Result<(Relation, Vec<u64>)> {
        if !x.is_subset(&self.attrs) {
            return Err(RelationError::NotASubset);
        }
        let src: Vec<&Col> = self.ranks_of(x).iter().map(|&r| &self.cols[r]).collect();
        let keys: Vec<SortKey<'_>> = src.iter().map(|c| c.sort_key(false)).collect();
        let (sorted, same) = sort_slots(self.len, &keys);
        let mut count = vec![0u64; self.len];
        let mut head = 0;
        for (&slot, &s) in sorted.iter().zip(&same) {
            if !s {
                head = slot as usize;
            }
            count[head] += 1;
        }
        let runs = same.iter().filter(|&&s| !s).count();
        let (mut kept, mut counts) = (Vec::with_capacity(runs), Vec::with_capacity(runs));
        for (slot, n) in count.iter_mut().enumerate() {
            if *n > 0 {
                counts.push(*n);
                // From here on `count` maps a kept slot to its output slot.
                *n = kept.len() as u64;
                kept.push(slot as u32);
            }
        }
        let mut out = Relation::new(x);
        let mut ordered = true;
        for (col, from) in out.cols.iter_mut().zip(&src) {
            let (gathered, keeps_order) = from.gather(&kept);
            *col = gathered;
            ordered &= keeps_order;
        }
        out.len = kept.len();
        out.order = if ordered {
            let mut order = Vec::with_capacity(runs);
            let heads = sorted.iter().zip(&same).filter(|&(_, &s)| !s);
            order.extend(heads.map(|(&slot, _)| count[slot as usize] as u32));
            order
        } else {
            out.sorted_slots().0
        };
        out.count_null_rows();
        Ok((out, counts))
    }

    /// The attribute set this relation ranges over.
    #[inline]
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Number of tuples (the paper's `|V|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the relation empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a tuple. Returns `Ok(true)` if it was new.
    ///
    /// # Errors
    /// Fails if the tuple's arity does not match, or a column dictionary
    /// exhausts its id space ([`RelationError::DictFull`]).
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        self.insert_row(&t)
    }

    /// Insert a borrowed row — a value slice, a [`Row`] of another
    /// relation or a [`Tuple`] — without cloning it: only its interned
    /// ids are stored. Returns `Ok(true)` if it was new.
    ///
    /// # Errors
    /// Fails if the row's arity does not match, or a column dictionary
    /// exhausts its id space ([`RelationError::DictFull`]).
    pub fn insert_row(&mut self, t: &(impl RowRef + ?Sized)) -> Result<bool> {
        let key = self.intern_key(t)?;
        let key = &key[..self.cols.len()];
        match self.search_probe(key) {
            Ok(_) => Ok(false),
            Err(pos) => {
                self.append_at(pos, key, t);
                Ok(true)
            }
        }
    }

    /// Remove a row (a [`Tuple`], a value slice or a [`Row`]). Returns
    /// `true` if it was present.
    ///
    /// The last row is swapped into the vacated position, so iteration
    /// order after a removal differs from pure insertion order (it stays
    /// deterministic for a given operation sequence).
    pub fn remove(&mut self, t: &(impl RowRef + ?Sized)) -> bool {
        match self.search_row(t) {
            Some(pos) => {
                self.swap_remove_at(pos, t);
                true
            }
            None => false,
        }
    }

    /// Apply a delta: remove the rows of `removed` and add those of
    /// `added`, two lists of distinct rows with no row in both (but
    /// see the last rule below). This is the one
    /// edit rule every copy of a relation follows — the writer, snapshot
    /// replay, CDC folds and checkpoint replay — so the resulting row
    /// order depends only on the starting order and the two lists:
    ///
    /// 1. each pair `(removed[i], added[i])`, `i < min(|removed|,
    ///    |added|)`, is rewritten in place: `added[i]` takes
    ///    `removed[i]`'s storage slot, and the slot's entry in the sorted
    ///    index moves only if its sort position changes;
    /// 2. the leftover removed rows are swap-removed, in order (as
    ///    [`Relation::remove`]);
    /// 3. the leftover added rows are appended, in order (as
    ///    [`Relation::insert_row`]).
    ///
    /// A pair whose two rows are equal is the one row allowed in both
    /// lists: it leaves its slot as it is.
    ///
    /// # Errors
    /// [`RelationError::AbsentRow`] if a removed row is not present
    /// when its turn comes, [`RelationError::DuplicateRow`] if an added
    /// one already is, an arity mismatch, or
    /// [`RelationError::DictFull`]. The edits before the failing row
    /// stay applied; a caller that must fail whole checks first or
    /// discards the relation.
    pub fn apply_delta<A: RowRef, B: RowRef>(
        &mut self,
        removed: impl IntoIterator<Item = A>,
        added: impl IntoIterator<Item = B>,
    ) -> Result<()> {
        self.apply_delta_tracked(removed, added, |_| {})
    }

    /// [`Relation::apply_delta`], reporting each slot edit to `on_edit`
    /// as it is made, so a caller can keep a vector parallel to the row
    /// slots (the engine's support counts) in step.
    ///
    /// # Errors
    /// As [`Relation::apply_delta`].
    pub fn apply_delta_tracked<A: RowRef, B: RowRef>(
        &mut self,
        removed: impl IntoIterator<Item = A>,
        added: impl IntoIterator<Item = B>,
        mut on_edit: impl FnMut(SlotEdit),
    ) -> Result<()> {
        let (mut removed, mut added) = (removed.into_iter().fuse(), added.into_iter().fuse());
        for index in 0.. {
            let edit = match (removed.next(), added.next()) {
                (Some(old), Some(new)) => SlotEdit::Rewrite {
                    slot: self.rewrite(&old, &new, index)?,
                    added: index,
                },
                (Some(old), None) => {
                    self.check_arity(&old)?;
                    let pos = self
                        .search_row(&old)
                        .ok_or(RelationError::AbsentRow { index })?;
                    SlotEdit::SwapRemove {
                        slot: self.swap_remove_at(pos, &old),
                    }
                }
                (None, Some(new)) => {
                    let key = self.intern_key(&new)?;
                    let key = &key[..self.cols.len()];
                    let pos = self
                        .search_probe(key)
                        .err()
                        .ok_or(RelationError::DuplicateRow { index })?;
                    self.append_at(pos, key, &new);
                    SlotEdit::Append { added: index }
                }
                (None, None) => break,
            };
            on_edit(edit);
        }
        Ok(())
    }

    /// Pair `index` of [`Relation::apply_delta_tracked`]: write `new`'s
    /// ids over `old`'s slot and move the slot's index entry only if its
    /// sort position changes. Returns the slot.
    fn rewrite(
        &mut self,
        old: &(impl RowRef + ?Sized),
        new: &(impl RowRef + ?Sized),
        index: usize,
    ) -> Result<usize> {
        self.check_arity(old)?;
        self.check_arity(new)?;
        let absent = || RelationError::AbsentRow { index };
        let mut key = self.key_of(old).ok_or_else(absent)?;
        let n = self.cols.len();
        let pos = self.search_probe(&key[..n]).map_err(|_| absent())?;
        let slot = self.order[pos];
        // Only the columns whose value changes are interned. Each value
        // of both rows is read once.
        let (mut changed, mut old_null, mut new_null) = (false, false, false);
        for (i, (c, id)) in self.cols.iter_mut().zip(&mut key).enumerate() {
            let (u, v) = (old.at(i), new.at(i));
            old_null |= u.is_null();
            new_null |= v.is_null();
            if v != u {
                *id = c.intern(v)?;
                changed = true;
            }
        }
        if !changed {
            return Ok(slot as usize);
        }
        let key = &key[..n];
        // A key strictly between the slot's index neighbours keeps its
        // position and is no other row's; otherwise search, with the
        // index still holding `slot` under its old key, so `to` is where
        // the new key would go with the old one still present.
        let neighbour = |p: usize| self.cmp_slot_probe(self.order[p], key);
        let fits = (pos == 0 || neighbour(pos - 1) == Ordering::Less)
            && (pos + 1 == self.len || neighbour(pos + 1) == Ordering::Greater);
        let to = if fits {
            pos
        } else {
            self.search_probe(key)
                .err()
                .ok_or(RelationError::DuplicateRow { index })?
        };
        self.null_rows -= usize::from(old_null);
        self.null_rows += usize::from(new_null);
        for (c, &id) in self.cols.iter_mut().zip(key) {
            c.ids[slot as usize] = id;
        }
        if to < pos {
            self.order[to..=pos].rotate_right(1);
        } else if to > pos + 1 {
            self.order[pos..to].rotate_left(1);
        }
        Ok(slot as usize)
    }

    /// Fail unless `t` has this relation's arity.
    fn check_arity(&self, t: &(impl RowRef + ?Sized)) -> Result<()> {
        if t.arity() == self.attrs.len() {
            Ok(())
        } else {
            Err(RelationError::ArityMismatch {
                expected: self.attrs.len(),
                got: t.arity(),
            })
        }
    }

    /// Intern `t`'s values (a no-op for seen ones) into an id key.
    fn intern_key(&mut self, t: &(impl RowRef + ?Sized)) -> Result<IdKey> {
        self.check_arity(t)?;
        let mut key: IdKey = [0; MAX_ATTRS];
        for (i, (c, id)) in self.cols.iter_mut().zip(&mut key).enumerate() {
            *id = c.intern(t.at(i))?;
        }
        Ok(key)
    }

    /// Store the absent row `t`, interned as `key`, in a new last slot
    /// indexed at `pos`.
    fn append_at(&mut self, pos: usize, key: &[u32], t: &(impl RowRef + ?Sized)) {
        let slot = self.len as u32;
        self.null_rows += usize::from(row_has_null(t));
        for (c, &id) in self.cols.iter_mut().zip(key) {
            c.ids.push(id);
        }
        self.len += 1;
        self.order.insert(pos, slot);
    }

    /// Swap-remove the row `t` indexed at `pos`: the last row moves into
    /// its slot. Returns the vacated slot.
    fn swap_remove_at(&mut self, pos: usize, t: &(impl RowRef + ?Sized)) -> usize {
        let slot = self.order[pos];
        let last = (self.len - 1) as u32;
        if slot != last {
            // The last row moves into `slot`; repoint its index entry
            // before storage changes (keys are distinct, so the search
            // is exact).
            let last_pos = self.search_slot(last);
            self.order[last_pos] = slot;
        }
        self.order.remove(pos);
        self.null_rows -= usize::from(row_has_null(t));
        for c in &mut self.cols {
            c.ids.swap_remove(slot as usize);
        }
        self.len -= 1;
        slot as usize
    }

    /// The storage slot (index into [`rows`]) of `t`, if present.
    ///
    /// [`rows`]: Relation::rows
    pub fn slot_of(&self, t: &(impl RowRef + ?Sized)) -> Option<usize> {
        self.search_row(t).map(|pos| self.order[pos] as usize)
    }

    /// Membership test: id-key resolution plus one binary search.
    #[inline]
    pub fn contains(&self, t: &(impl RowRef + ?Sized)) -> bool {
        self.search_row(t).is_some()
    }

    /// Does any row contain a labeled null? O(1): the count is
    /// maintained on insert/remove.
    #[inline]
    pub fn has_nulls(&self) -> bool {
        self.null_rows > 0
    }

    /// Iterate over rows in storage order.
    pub fn iter(&self) -> RowIter<'_> {
        self.rows().iter()
    }

    /// The rows in storage order, compared row by row with `==`.
    pub fn rows(&self) -> Rows<'_> {
        Rows::new(&self.cols, self.len)
    }

    /// The row at storage slot `slot`.
    ///
    /// # Panics
    /// Panics if `slot >= len()`.
    #[inline]
    pub fn row(&self, slot: usize) -> Row<'_> {
        self.rows().get(slot).expect("row slot in range")
    }

    /// Set equality: same attribute set, same tuples (order-insensitive).
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.attrs == other.attrs
            && self.len == other.len
            && self.iter().all(|t| other.contains(&t))
    }

    /// The value of attribute `a` in row `i`.
    ///
    /// # Panics
    /// Panics if `a` is not in this relation's attribute set.
    #[inline]
    pub fn get(&self, i: usize, a: crate::Attr) -> Value {
        self.row(i).get(&self.attrs, a)
    }

    /// Largest labeled-null id in use, if any. Useful for allocating fresh
    /// nulls (`NullGen::above`). O(1) when no row holds a null. Otherwise
    /// it reads the dictionaries, and scans only the id columns whose
    /// dictionary holds a null: a dictionary keeps the values of
    /// since-removed rows, so its nulls alone would overstate the answer.
    pub fn max_null_id(&self) -> Option<u64> {
        if self.null_rows == 0 {
            return None;
        }
        self.cols
            .iter()
            .filter(|c| c.has_null())
            .flat_map(|c| c.ids.iter().map(|&id| c.val_of(id)))
            .filter_map(|v| match v {
                Value::Null(n) => Some(n),
                Value::Const(_) => None,
            })
            .max()
    }

    // ------------------------------------------------------------------
    // Columnar access (the id layer the hot paths run on).
    // ------------------------------------------------------------------

    /// The interned id array of attribute `a`, one entry per row slot.
    ///
    /// # Panics
    /// Panics if `a` is not in this relation's attribute set.
    pub fn col_ids(&self, a: Attr) -> &[u32] {
        let rank = self.attrs.rank(a).expect("attribute in relation");
        &self.cols[rank].ids
    }

    /// The id `v` is interned at in column `a`, if it has ever appeared
    /// there. `None` guarantees no current row holds `v` at `a`.
    ///
    /// # Panics
    /// Panics if `a` is not in this relation's attribute set.
    pub fn probe_value(&self, a: Attr, v: Value) -> Option<u32> {
        let rank = self.attrs.rank(a).expect("attribute in relation");
        self.cols[rank].id_of(v)
    }

    /// The value interned at `id` in column `a`.
    ///
    /// # Panics
    /// Panics if `a` is not in the attribute set or `id` was never
    /// assigned.
    pub fn value_at(&self, a: Attr, id: u32) -> Value {
        let rank = self.attrs.rank(a).expect("attribute in relation");
        self.cols[rank].val_of(id)
    }

    /// Number of distinct values ever interned in column `a` (dictionary
    /// size; never shrinks on removal).
    ///
    /// # Panics
    /// Panics if `a` is not in this relation's attribute set.
    pub fn dict_len(&self, a: Attr) -> usize {
        let rank = self.attrs.rank(a).expect("attribute in relation");
        self.cols[rank].dict_len()
    }

    /// Can `rows` more rows be inserted without a column dictionary
    /// running out of ids? Conservative: every column must have an id
    /// left for each row, whether or not its value is already interned.
    pub fn has_dict_room(&self, rows: usize) -> bool {
        self.cols.iter().all(|c| c.room() >= rows as u64)
    }

    /// Row slots (== indices into [`rows`]) whose `on`-columns agree
    /// with `t` (a row over `t_attrs ⊇ on`), optionally restricted to
    /// rows *disagreeing* with `t` on `differ`. Ascending slot order —
    /// identical to an `iter().enumerate()` filter.
    ///
    /// This is the columnar fast path for the paper's condition (a)
    /// μ-candidates and the Test 1 `qualifies` sweep: a conjunction of
    /// `u32` comparisons per row, and empty at once when some value of
    /// `t` was never interned (no row can agree). The scan is lazy, so a
    /// caller that only asks whether a second row agrees stops there.
    ///
    /// # Panics
    /// Panics if `on` (or `differ`) is not within this relation's
    /// attribute set, or `t` does not range over `t_attrs`.
    ///
    /// [`rows`]: Relation::rows
    pub fn slots_agreeing(
        &self,
        t: &(impl RowRef + ?Sized),
        t_attrs: &AttrSet,
        on: AttrSet,
        differ: Option<Attr>,
    ) -> impl Iterator<Item = u32> + '_ {
        let value = |a: Attr| t.at(t_attrs.rank(a).expect("`t` ranges over `t_attrs`"));
        let mut agree: Vec<(&[u32], u32)> = Vec::with_capacity(on.len());
        let mut n = self.len;
        for a in on.iter() {
            let rank = self.attrs.rank(a).expect("`on` within the relation");
            match self.cols[rank].id_of(value(a)) {
                Some(id) => agree.push((&self.cols[rank].ids, id)),
                None => {
                    n = 0;
                    break;
                }
            }
        }
        // `differ` with an un-interned probe value differs everywhere.
        let differ: Option<(&[u32], u32)> = differ.and_then(|a| {
            let rank = self.attrs.rank(a).expect("`differ` within the relation");
            let id = self.cols[rank].id_of(value(a))?;
            Some((&self.cols[rank].ids[..], id))
        });
        (0..n)
            .filter(move |&i| {
                agree.iter().all(|&(ids, want)| ids[i] == want)
                    && differ.map_or(true, |(ids, avoid)| ids[i] != avoid)
            })
            .map(|i| i as u32)
    }

    /// Row slots sorted by the **values** of `key`'s columns, ties
    /// broken by slot (i.e. storage order within each key run). Value
    /// order — not interned id order — so two relations sorted by the
    /// same key merge consistently; this is what the gallop joins in
    /// [`crate::ops`] walk. The storage-order tie-break makes a merge
    /// join enumerate each key group exactly as a bucket probe over
    /// insertion-ordered buckets would.
    ///
    /// # Panics
    /// Panics if `key` is not within this relation's attribute set.
    pub fn slots_sorted_by(&self, key: AttrSet) -> Vec<u32> {
        let keys: Vec<SortKey<'_>> = self
            .ranks_of(key)
            .iter()
            .map(|&r| self.cols[r].sort_key(true))
            .collect();
        sort_slots(self.len, &keys).0
    }

    /// Row slots in **value** order with `major`'s columns as the major
    /// key: sorted by the values of `major`'s columns, then by the whole
    /// row's values (dense column order). Rows are distinct, so the
    /// order is strict — the order of the engine's complement entries,
    /// whose probes search on `X∩Y` first.
    ///
    /// # Panics
    /// Panics if `major` is not within this relation's attribute set.
    pub fn slots_in_value_order(&self, major: AttrSet) -> Vec<u32> {
        // Within a run of equal `major` columns the whole rows compare
        // as their other columns do.
        let mut ranks = self.ranks_of(major);
        let rest = self
            .attrs
            .iter()
            .enumerate()
            .filter(|&(_, a)| !major.contains(a));
        ranks.extend(rest.map(|(r, _)| r));
        let keys: Vec<SortKey<'_>> = ranks.iter().map(|&r| self.cols[r].sort_key(true)).collect();
        sort_slots(self.len, &keys).0
    }

    /// Compare a slot's `ranks` columns against explicit probe values.
    #[inline]
    pub(crate) fn cmp_slot_values(&self, slot: u32, ranks: &[usize], vals: &[Value]) -> Ordering {
        for (&r, &v) in ranks.iter().zip(vals) {
            let c = &self.cols[r];
            match c.val_of(c.ids[slot as usize]).cmp(&v) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Dense column positions of `key` within this relation.
    ///
    /// # Panics
    /// Panics if `key` is not within this relation's attribute set.
    pub(crate) fn ranks_of(&self, key: AttrSet) -> Vec<usize> {
        key.iter()
            .map(|a| self.attrs.rank(a).expect("key within the relation"))
            .collect()
    }

    /// Test hook for the id-space exhaustion guard: pretend `by` ids
    /// were already assigned in every column. Only valid on an empty,
    /// never-used relation.
    #[doc(hidden)]
    pub fn _inflate_dict_id_base(&mut self, by: u32) {
        assert!(self.is_empty(), "inflation only on a fresh relation");
        for c in &mut self.cols {
            c.inflate_id_base(by);
        }
    }

    /// Internal consistency: every invariant the columnar layout adds.
    /// Debug builds only; the differential tests call it after every
    /// mutation.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let n = self.len;
        assert_eq!(self.order.len(), n, "order indexes every row");
        for c in &self.cols {
            assert_eq!(c.ids.len(), n, "one id per row slot in every column");
            for &id in &c.ids {
                assert_eq!(c.id_of(c.val_of(id)), Some(id), "ids decode and re-intern");
            }
        }
        for w in self.order.windows(2) {
            assert_eq!(
                self.cmp_slots(w[0], w[1]),
                Ordering::Less,
                "order strictly sorted (set semantics)"
            );
        }
        assert_eq!(
            self.null_rows,
            self.iter().filter(Row::has_null).count(),
            "null-row count maintained"
        );
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("attrs", &self.attrs)
            .field("rows", &self.rows())
            .finish()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}

impl Eq for Relation {}

impl<'a> IntoIterator for &'a Relation {
    type Item = Row<'a>;
    type IntoIter = RowIter<'a>;
    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tup, Attr};

    fn set(ids: &[usize]) -> AttrSet {
        ids.iter().map(|&i| Attr::new(i)).collect()
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(set(&[0, 1]));
        assert!(r.insert(tup![1, 2]).unwrap());
        assert!(!r.insert(tup![1, 2]).unwrap());
        assert!(r.insert(tup![1, 3]).unwrap());
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tup![1, 2]));
        r.debug_validate();
    }

    #[test]
    fn arity_checked() {
        let mut r = Relation::new(set(&[0, 1]));
        assert!(r.insert(tup![1]).is_err());
    }

    #[test]
    fn remove_works() {
        let mut r = Relation::from_rows(set(&[0]), [tup![1], tup![2]]).unwrap();
        assert!(r.remove(&tup![1]));
        assert!(!r.remove(&tup![1]));
        assert_eq!(r.len(), 1);
        assert!(!r.contains(&tup![1]));
        r.debug_validate();
    }

    #[test]
    fn removal_keeps_the_index_consistent() {
        let mut r = Relation::from_rows(set(&[0]), [tup![1], tup![2], tup![3], tup![4]]).unwrap();
        // Removing a middle row swaps the last one into its slot; every
        // surviving row must stay findable and removable.
        assert!(r.remove(&tup![2]));
        for t in [tup![1], tup![3], tup![4]] {
            assert!(r.contains(&t));
        }
        r.debug_validate();
        assert!(r.remove(&tup![4]));
        assert!(r.remove(&tup![1]));
        assert!(r.remove(&tup![3]));
        assert!(r.is_empty());
        r.debug_validate();
    }

    #[test]
    fn swap_remove_moves_last_row_into_hole() {
        // The serialization layers reproduce this exact order; pin the
        // contract, not just set contents.
        let mut r =
            Relation::from_rows(set(&[0]), [tup![10], tup![20], tup![30], tup![40]]).unwrap();
        assert!(r.remove(&tup![20]));
        let got: Vec<Tuple> = r.iter().map(|t| t.to_tuple()).collect();
        assert_eq!(got, vec![tup![10], tup![40], tup![30]]);
    }

    #[test]
    fn apply_delta_rewrites_pairs_in_place() {
        let attrs = set(&[0, 1]);
        let mut r =
            Relation::from_rows(attrs, [tup![1, 10], tup![2, 10], tup![3, 10], tup![4, 20]])
                .unwrap();
        let mut edits = Vec::new();
        // Two pairs (the first keeps its sort position, the second
        // moves), then one leftover removal.
        r.apply_delta_tracked(
            [tup![2, 10], tup![3, 10], tup![1, 10]],
            [tup![2, 11], tup![0, 99]],
            |e| edits.push(e),
        )
        .unwrap();
        r.debug_validate();
        assert_eq!(r.rows(), vec![tup![4, 20], tup![2, 11], tup![0, 99]]);
        assert_eq!(
            edits,
            [
                SlotEdit::Rewrite { slot: 1, added: 0 },
                SlotEdit::Rewrite { slot: 2, added: 1 },
                SlotEdit::SwapRemove { slot: 0 },
            ]
        );
        // Leftover additions append; a pair of equal rows is a no-op.
        r.apply_delta([tup![4, 20]], [tup![4, 20], tup![5, 50]])
            .unwrap();
        r.debug_validate();
        assert_eq!(
            r.rows(),
            vec![tup![4, 20], tup![2, 11], tup![0, 99], tup![5, 50]]
        );
    }

    #[test]
    fn apply_delta_refuses_absent_and_present_rows() {
        let attrs = set(&[0]);
        let mut r = Relation::from_rows(attrs, [tup![1], tup![2]]).unwrap();
        let none: [Tuple; 0] = [];
        assert_eq!(
            r.clone().apply_delta([tup![9]], [tup![3]]),
            Err(RelationError::AbsentRow { index: 0 })
        );
        assert_eq!(
            r.clone().apply_delta([tup![1]], [tup![2]]),
            Err(RelationError::DuplicateRow { index: 0 })
        );
        assert_eq!(
            r.clone().apply_delta([tup![1], tup![9]], none.clone()),
            Err(RelationError::AbsentRow { index: 1 })
        );
        assert_eq!(
            r.apply_delta(none, [tup![3], tup![2]]),
            Err(RelationError::DuplicateRow { index: 1 })
        );
    }

    #[test]
    fn from_rows_keeps_first_occurrences_in_order() {
        let r = Relation::from_rows(
            set(&[0, 1]),
            [tup![1, 1], tup![2, 2], tup![1, 1], tup![3, 3], tup![2, 2]],
        )
        .unwrap();
        let got: Vec<Tuple> = r.iter().map(|t| t.to_tuple()).collect();
        assert_eq!(got, vec![tup![1, 1], tup![2, 2], tup![3, 3]]);
        r.debug_validate();
    }

    #[test]
    fn set_equality_ignores_order() {
        let a = Relation::from_rows(set(&[0]), [tup![1], tup![2]]).unwrap();
        let b = Relation::from_rows(set(&[0]), [tup![2], tup![1]]).unwrap();
        assert_eq!(a, b);
        let c = Relation::from_rows(set(&[0]), [tup![2]]).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn has_nulls_is_maintained() {
        let mut r = Relation::new(set(&[0, 1]));
        assert!(!r.has_nulls());
        let withnull = Tuple::new([Value::int(1), Value::Null(7)]);
        r.insert(withnull.clone()).unwrap();
        r.insert(tup![2, 3]).unwrap();
        assert!(r.has_nulls());
        r.remove(&withnull);
        assert!(!r.has_nulls());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn max_null_id() {
        let mut r = Relation::new(set(&[0, 1]));
        r.insert(Tuple::new([Value::int(1), Value::Null(7)]))
            .unwrap();
        assert_eq!(r.max_null_id(), Some(7));
        let empty = Relation::new(set(&[0]));
        assert_eq!(empty.max_null_id(), None);
    }

    #[test]
    fn max_null_id_ignores_nulls_only_a_removed_row_held() {
        let mut r = Relation::new(set(&[0, 1]));
        let high = Tuple::new([Value::int(1), Value::Null(9)]);
        r.insert(high.clone()).unwrap();
        r.insert(Tuple::new([Value::int(2), Value::Null(4)]))
            .unwrap();
        r.remove(&high);
        // The dictionary still holds ⊥9; no row does.
        assert_eq!(r.max_null_id(), Some(4));
    }

    #[test]
    fn rows_read_through_the_dictionaries() {
        let attrs = set(&[1, 4]);
        let r = Relation::from_rows(attrs, [tup![1, 10], tup![2, 20]]).unwrap();
        let row = r.row(1);
        assert_eq!(row.arity(), 2);
        assert_eq!(row.at(1), Value::int(20));
        assert_eq!(row.get(&attrs, Attr::new(1)), Value::int(2));
        assert_eq!(
            row.values().collect::<Vec<_>>(),
            [Value::int(2), Value::int(20)]
        );
        assert_eq!(row.to_tuple(), tup![2, 20]);
        assert_eq!(row, tup![2, 20]);
        assert_eq!(r.rows(), vec![tup![1, 10], tup![2, 20]]);
        assert_ne!(r.rows(), vec![tup![2, 20], tup![1, 10]]);
        // Slices and rows of another relation probe, remove and insert.
        let mut s = Relation::new(attrs);
        assert!(s.insert_row(&row).unwrap());
        assert!(s.insert_row(&[Value::int(1), Value::int(10)][..]).unwrap());
        assert!(s.contains(&r.row(0)) && s.slot_of(&row) == Some(0));
        assert!(s.remove(&[Value::int(2), Value::int(20)][..]));
        assert_eq!(s.rows(), vec![tup![1, 10]]);
    }

    #[test]
    fn rows_compare_in_order() {
        let a = Relation::from_rows(set(&[0]), [tup![1], tup![2]]).unwrap();
        let b = Relation::from_rows(set(&[0]), [tup![2], tup![1]]).unwrap();
        assert_eq!(a, b, "set equality");
        assert_ne!(a.rows(), b.rows(), "row order differs");
        assert_eq!(a.rows(), a.clone().rows());
    }

    #[test]
    fn from_values_checks_arity() {
        let got = Relation::from_values(set(&[0, 1]), [vec![Value::int(1)]]);
        assert_eq!(
            got.unwrap_err(),
            RelationError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn widened_keeps_rows_and_order() {
        let mut r = Relation::from_rows(set(&[1]), [tup![7], tup![5], tup![9]]).unwrap();
        r.remove(&tup![7]);
        let wide = r
            .widened(set(&[0, 1, 2]), |slot, a| {
                Value::Null((slot * 10 + a.index()) as u64)
            })
            .unwrap();
        let want = [
            Tuple::new([Value::Null(0), Value::int(9), Value::Null(2)]),
            Tuple::new([Value::Null(10), Value::int(5), Value::Null(12)]),
        ];
        assert_eq!(wide.rows(), want.to_vec());
        assert!(wide.has_nulls());
        assert_eq!(wide.max_null_id(), Some(12));
        wide.debug_validate();
        assert_eq!(
            r.widened(set(&[0]), |_, _| Value::int(0)).unwrap_err(),
            RelationError::NotASubset
        );
    }

    #[test]
    fn contains_of_wrong_arity_is_false_not_panic() {
        let r = Relation::from_rows(set(&[0, 1]), [tup![1, 2]]).unwrap();
        assert!(!r.contains(&tup![1]));
        let mut r2 = r.clone();
        assert!(!r2.remove(&tup![1]));
    }

    #[test]
    fn slots_agreeing_matches_scan() {
        let attrs = set(&[0, 1, 2]);
        let r = Relation::from_rows(
            attrs,
            [
                tup![1, 10, 5],
                tup![2, 10, 6],
                tup![3, 20, 5],
                tup![4, 10, 5],
            ],
        )
        .unwrap();
        let t = tup![9, 10, 5]; // same attrs
        let on = set(&[1]);
        let scan = |t: &Tuple, on: AttrSet, differ: Option<Attr>| -> Vec<u32> {
            r.slots_agreeing(t, &attrs, on, differ).collect()
        };
        assert_eq!(scan(&t, on, None), vec![0, 1, 3]);
        // agree on attr 1, differ on attr 2
        assert_eq!(scan(&t, on, Some(Attr::new(2))), vec![1]);
        // value never interned: nothing agrees
        let t2 = tup![9, 99, 5];
        assert!(scan(&t2, on, None).is_empty());
        // differ on a never-interned value: everything differs
        assert_eq!(
            scan(&t2, AttrSet::EMPTY, Some(Attr::new(1))),
            vec![0, 1, 2, 3]
        );
        // empty agree set: every row
        assert_eq!(scan(&t, AttrSet::EMPTY, None), vec![0, 1, 2, 3]);
    }

    #[test]
    fn second_agreeing_slot_matches_the_collected_scan() {
        let attrs = set(&[0, 1]);
        let r = Relation::from_rows(
            attrs,
            [
                tup![1, 10],
                tup![2, 20],
                tup![3, 10],
                tup![4, 30],
                tup![5, 10],
            ],
        )
        .unwrap();
        let on = set(&[1]);
        for probe in [tup![0, 10], tup![0, 20], tup![0, 30], tup![0, 99]] {
            let all: Vec<u32> = r.slots_agreeing(&probe, &attrs, on, None).collect();
            assert_eq!(
                r.slots_agreeing(&probe, &attrs, on, None).nth(1),
                all.get(1).copied(),
                "probe {probe:?}"
            );
        }
    }

    #[test]
    fn slots_sorted_by_is_value_order() {
        let attrs = set(&[0, 1]);
        // Insert out of value order so id order ≠ value order.
        let r = Relation::from_rows(attrs, [tup![5, 1], tup![2, 9], tup![2, 3]]).unwrap();
        let sorted = r.slots_sorted_by(set(&[0]));
        // Value order on attr 0: 2 (slots 1,2 in storage order), then 5.
        assert_eq!(sorted, vec![1, 2, 0]);
    }

    #[test]
    fn slots_in_value_order_sorts_major_then_whole_row() {
        let attrs = set(&[0, 1, 2]);
        let mut r = Relation::from_rows(
            attrs,
            [
                tup![5, 1, 3],
                tup![2, 9, 3],
                tup![2, 3, 1],
                tup![7, 3, 3],
                tup![1, 9, 2],
            ],
        )
        .unwrap();
        // A dead dictionary value and a null, both out of value order.
        r.remove(&tup![7, 3, 3]);
        r.insert(Tuple::new([Value::Null(0), Value::int(1), Value::int(0)]))
            .unwrap();
        for major in [set(&[]), set(&[1]), set(&[2]), set(&[1, 2]), attrs] {
            let ranks = r.ranks_of(major);
            let key = |slot: u32| {
                let row = r.row(slot as usize).to_tuple();
                let head: Vec<Value> = ranks.iter().map(|&i| row.at(i)).collect();
                (head, row)
            };
            let mut want: Vec<u32> = (0..r.len() as u32).collect();
            want.sort_by_key(|&slot| key(slot));
            assert_eq!(r.slots_in_value_order(major), want, "{major:?}");
        }
    }

    #[test]
    fn dict_full_propagates_from_insert() {
        let mut r = Relation::new(set(&[0]));
        r._inflate_dict_id_base(u32::MAX - 1);
        assert!(r.insert(tup![1]).is_ok());
        assert_eq!(r.insert(tup![2]), Err(RelationError::DictFull));
        // The relation stays usable: existing values still insert/remove.
        assert!(!r.insert(tup![1]).unwrap());
        assert!(r.remove(&tup![1]));
        r.debug_validate();
    }

    #[test]
    fn dict_room_needs_an_id_per_row() {
        let mut r = Relation::new(set(&[0, 1]));
        r._inflate_dict_id_base(u32::MAX - 3);
        r.insert(tup![1, 1]).unwrap();
        // Two ids left per column.
        assert!(r.has_dict_room(2));
        assert!(!r.has_dict_room(3));
        assert!(r.has_dict_room(0));
    }

    #[test]
    fn columnar_accessors_roundtrip() {
        let attrs = set(&[2, 5]);
        let r = Relation::from_rows(attrs, [tup![1, 10], tup![2, 20]]).unwrap();
        let a = Attr::new(2);
        let ids = r.col_ids(a);
        assert_eq!(ids.len(), 2);
        let id = r.probe_value(a, Value::int(2)).unwrap();
        assert_eq!(ids[1], id);
        assert_eq!(r.value_at(a, id), Value::int(2));
        assert!(r.probe_value(a, Value::int(99)).is_none());
        assert_eq!(r.dict_len(a), 2);
    }
}
