//! Borrowed rows: a relation's storage slot read through its column
//! dictionaries, and the [`RowRef`] trait that lets membership, removal
//! and insertion take a borrowed row, a value slice or a [`Tuple`].

use std::fmt;

use crate::columnar::Col;
use crate::{Attr, AttrSet, Tuple, Value};

/// Read access to one row's values in dense column order: a [`Tuple`],
/// a plain value slice, or a relation's borrowed [`Row`].
pub trait RowRef {
    /// Number of columns.
    fn arity(&self) -> usize;
    /// Value at dense column position `i`.
    fn at(&self, i: usize) -> Value;
}

impl RowRef for Tuple {
    #[inline]
    fn arity(&self) -> usize {
        self.as_slice().len()
    }
    #[inline]
    fn at(&self, i: usize) -> Value {
        self.as_slice()[i]
    }
}

impl RowRef for [Value] {
    #[inline]
    fn arity(&self) -> usize {
        self.len()
    }
    #[inline]
    fn at(&self, i: usize) -> Value {
        self[i]
    }
}

impl RowRef for Row<'_> {
    #[inline]
    fn arity(&self) -> usize {
        self.cols.len()
    }
    #[inline]
    fn at(&self, i: usize) -> Value {
        Row::at(self, i)
    }
}

impl<R: RowRef + ?Sized> RowRef for &R {
    #[inline]
    fn arity(&self) -> usize {
        (**self).arity()
    }
    #[inline]
    fn at(&self, i: usize) -> Value {
        (**self).at(i)
    }
}

/// One row of a [`crate::Relation`]: its storage slot, read through the
/// interned id columns (the relation keeps no other copy of the row).
#[derive(Clone, Copy)]
pub struct Row<'a> {
    cols: &'a [Col],
    slot: usize,
}

impl<'a> Row<'a> {
    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Value at dense column position `i`.
    #[inline]
    pub fn at(&self, i: usize) -> Value {
        let c = &self.cols[i];
        c.val_of(c.ids[self.slot])
    }

    /// Value of attribute `a`, where the row ranges over `attrs`.
    ///
    /// # Panics
    /// Panics if `a ∉ attrs`.
    #[inline]
    pub fn get(&self, attrs: &AttrSet, a: Attr) -> Value {
        self.at(attrs.rank(a).expect("attribute not in row's set"))
    }

    /// Iterate over the values in dense column order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = Value> + 'a {
        let slot = self.slot;
        self.cols.iter().map(move |c| c.val_of(c.ids[slot]))
    }

    /// An owned copy of the row.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.values())
    }

    /// The paper's `t[Z]`: restrict this row (over `from`) to `to ⊆ from`.
    ///
    /// # Panics
    /// Panics if `to ⊄ from`.
    pub fn project(&self, from: &AttrSet, to: &AttrSet) -> Tuple {
        assert!(
            to.is_subset(from),
            "projection target must be a subset of the row's attributes"
        );
        Tuple::new(to.iter().map(|a| self.get(from, a)))
    }

    /// Does this row (over `from`) agree with `other` (over
    /// `other_from`) on every attribute of `on`?
    pub fn agrees(
        &self,
        from: &AttrSet,
        other: &(impl RowRef + ?Sized),
        other_from: &AttrSet,
        on: &AttrSet,
    ) -> bool {
        on.iter().all(|a| {
            self.get(from, a) == other.at(other_from.rank(a).expect("`on` within the other row"))
        })
    }

    /// Does the row contain any labeled null?
    pub fn has_null(&self) -> bool {
        self.values().any(Value::is_null)
    }
}

/// Row-by-row value equality between any two row forms.
fn same_values(a: &(impl RowRef + ?Sized), b: &(impl RowRef + ?Sized)) -> bool {
    a.arity() == b.arity() && (0..a.arity()).all(|i| a.at(i) == b.at(i))
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        same_values(self, other)
    }
}

impl Eq for Row<'_> {}

impl PartialEq<Tuple> for Row<'_> {
    fn eq(&self, other: &Tuple) -> bool {
        same_values(self, other)
    }
}

impl PartialEq<&Tuple> for Row<'_> {
    fn eq(&self, other: &&Tuple) -> bool {
        same_values(self, *other)
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

/// The rows of a relation in storage order. Compares row by row (order
/// included) with `==`, unlike `Relation`'s own set equality.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    cols: &'a [Col],
    len: usize,
}

impl<'a> Rows<'a> {
    pub(crate) fn new(cols: &'a [Col], len: usize) -> Self {
        Rows { cols, len }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Are there no rows?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row at storage slot `slot`, if there is one.
    #[inline]
    pub fn get(&self, slot: usize) -> Option<Row<'a>> {
        (slot < self.len).then_some(Row {
            cols: self.cols,
            slot,
        })
    }

    /// Iterate over the rows in storage order.
    pub fn iter(&self) -> RowIter<'a> {
        RowIter {
            cols: self.cols,
            slots: 0..self.len,
        }
    }

    /// Owned copies of the rows, in storage order.
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.iter().map(|r| r.to_tuple()).collect()
    }
}

impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl PartialEq<[Tuple]> for Rows<'_> {
    fn eq(&self, other: &[Tuple]) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(r, t)| r == *t)
    }
}

impl PartialEq<&[Tuple]> for Rows<'_> {
    fn eq(&self, other: &&[Tuple]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<Tuple>> for Rows<'_> {
    fn eq(&self, other: &Vec<Tuple>) -> bool {
        *self == other[..]
    }
}

impl Eq for Rows<'_> {}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = Row<'a>;
    type IntoIter = RowIter<'a>;
    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Iterator over a relation's rows in storage order.
#[derive(Clone)]
pub struct RowIter<'a> {
    cols: &'a [Col],
    slots: std::ops::Range<usize>,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = Row<'a>;

    #[inline]
    fn next(&mut self) -> Option<Row<'a>> {
        let slot = self.slots.next()?;
        Some(Row {
            cols: self.cols,
            slot,
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl ExactSizeIterator for RowIter<'_> {}
