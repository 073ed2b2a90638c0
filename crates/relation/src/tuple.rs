//! Tuples over an attribute set.

use crate::{Attr, AttrSet, RelationError, Result, RowRef, Value};

/// A tuple over some attribute set `X`, stored densely in ascending
/// attribute order of `X`.
///
/// A `Tuple` does not carry its attribute set; the enclosing
/// [`crate::Relation`] (or caller) does. Column lookup goes through
/// [`AttrSet::rank`].
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Tuple {
    vals: Box<[Value]>,
}

impl Tuple {
    /// Build a tuple from values in ascending attribute order of its set.
    pub fn new<I: IntoIterator<Item = Value>>(vals: I) -> Self {
        Tuple {
            vals: boxed(vals.into_iter()),
        }
    }

    /// Build a tuple over `attrs` from `(attr, value)` pairs (any order).
    ///
    /// # Errors
    /// Fails if the pairs do not cover `attrs` exactly once each.
    pub fn from_pairs<I: IntoIterator<Item = (Attr, Value)>>(
        attrs: &AttrSet,
        pairs: I,
    ) -> Result<Self> {
        let mut vals = vec![None; attrs.len()];
        let mut n = 0usize;
        for (a, v) in pairs {
            let r = attrs
                .rank(a)
                .ok_or(RelationError::AttrNotInSet { attr: a.index() })?;
            if vals[r].replace(v).is_some() {
                return Err(RelationError::DuplicateColumn { attr: a.index() });
            }
            n += 1;
        }
        if n != attrs.len() {
            return Err(RelationError::ArityMismatch {
                expected: attrs.len(),
                got: n,
            });
        }
        Ok(Tuple {
            vals: vals.into_iter().map(|v| v.expect("covered")).collect(),
        })
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.vals.len()
    }

    /// Value of attribute `a`, where this tuple ranges over `attrs`.
    ///
    /// # Panics
    /// Panics if `a ∉ attrs`.
    #[inline]
    pub fn get(&self, attrs: &AttrSet, a: Attr) -> Value {
        self.vals[attrs.rank(a).expect("attribute not in tuple's set")]
    }

    /// Value at dense column position `i`.
    #[inline]
    pub fn at(&self, i: usize) -> Value {
        self.vals[i]
    }

    /// Mutable value at dense column position `i`.
    #[inline]
    pub fn at_mut(&mut self, i: usize) -> &mut Value {
        &mut self.vals[i]
    }

    /// Set attribute `a` (this tuple ranging over `attrs`) to `v`.
    ///
    /// # Panics
    /// Panics if `a ∉ attrs`.
    #[inline]
    pub fn set(&mut self, attrs: &AttrSet, a: Attr, v: Value) {
        self.vals[attrs.rank(a).expect("attribute not in tuple's set")] = v;
    }

    /// The paper's `t[Z]`: restrict this tuple (over `from`) to `to ⊆ from`.
    ///
    /// # Panics
    /// Panics if `to ⊄ from`.
    pub fn project(&self, from: &AttrSet, to: &AttrSet) -> Tuple {
        assert!(
            to.is_subset(from),
            "projection target must be a subset of the tuple's attributes"
        );
        Tuple {
            vals: boxed(to.iter().map(|a| self.get(from, a))),
        }
    }

    /// Do `self` (over `from`) and `other` (over `other_from`) agree on
    /// every attribute of `on`? (`on ⊆ from ∩ other_from`.)
    pub fn agrees(
        &self,
        from: &AttrSet,
        other: &(impl RowRef + ?Sized),
        other_from: &AttrSet,
        on: &AttrSet,
    ) -> bool {
        on.iter()
            .all(|a| self.get(from, a) == other.at(rank_in(other_from, a)))
    }

    /// Join this tuple (over `from`) with `other` (over `other_from`) into a
    /// tuple over `from ∪ other_from`, assuming they agree on the overlap.
    pub fn joined(
        &self,
        from: &AttrSet,
        other: &(impl RowRef + ?Sized),
        other_from: &AttrSet,
    ) -> Tuple {
        let target = from.union(other_from);
        Tuple {
            vals: boxed(target.iter().map(|a| {
                if from.contains(a) {
                    self.get(from, a)
                } else {
                    other.at(rank_in(other_from, a))
                }
            })),
        }
    }

    /// Iterate over the values in dense column order.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.vals.iter().copied()
    }

    /// Borrow the dense value slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.vals
    }

    /// Does the tuple contain any labeled null?
    pub fn has_null(&self) -> bool {
        self.vals.iter().any(|v| v.is_null())
    }
}

/// The dense position of `a` in a row over `attrs`.
///
/// # Panics
/// Panics if `a ∉ attrs`.
fn rank_in(attrs: &AttrSet, a: Attr) -> usize {
    attrs.rank(a).expect("attribute not in tuple's set")
}

/// Collect values into a boxed slice with one allocation when the
/// iterator's lower size bound is its length. `Vec::from_iter` over an
/// iterator that is not `TrustedLen` (an [`AttrSet`] walk is not)
/// reserves at least four slots, so `into_boxed_slice` would then shrink
/// the buffer with a second allocation.
fn boxed(vals: impl Iterator<Item = Value>) -> Box<[Value]> {
    let mut out = Vec::with_capacity(vals.size_hint().0);
    out.extend(vals);
    out.into_boxed_slice()
}

impl From<&[Value]> for Tuple {
    fn from(vals: &[Value]) -> Tuple {
        Tuple { vals: vals.into() }
    }
}

impl IntoIterator for Tuple {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        Vec::from(self.vals).into_iter()
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple::new(iter)
    }
}

/// Build a tuple of integer constants: `tup![1, 2, 3]`.
#[macro_export]
macro_rules! tup {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new([$($crate::Value::int($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> AttrSet {
        ids.iter().map(|&i| Attr::new(i)).collect()
    }

    #[test]
    fn get_set_by_attr() {
        let attrs = set(&[1, 3, 5]);
        let mut t = tup![10, 30, 50];
        assert_eq!(t.get(&attrs, Attr::new(3)), Value::int(30));
        t.set(&attrs, Attr::new(5), Value::int(55));
        assert_eq!(t.get(&attrs, Attr::new(5)), Value::int(55));
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn project_keeps_order() {
        let attrs = set(&[0, 2, 4, 6]);
        let t = tup![1, 2, 3, 4];
        let p = t.project(&attrs, &set(&[2, 6]));
        assert_eq!(p, tup![2, 4]);
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn project_outside_panics() {
        let t = tup![1];
        let _ = t.project(&set(&[0]), &set(&[1]));
    }

    #[test]
    fn agrees_and_join() {
        let xa = set(&[0, 1]);
        let ya = set(&[1, 2]);
        let x = tup![7, 8];
        let y = tup![8, 9];
        assert!(x.agrees(&xa, &y, &ya, &set(&[1])));
        let j = x.joined(&xa, &y, &ya);
        assert_eq!(j, tup![7, 8, 9]);
    }

    #[test]
    fn from_pairs_validates() {
        let attrs = set(&[2, 5]);
        let t = Tuple::from_pairs(
            &attrs,
            [(Attr::new(5), Value::int(9)), (Attr::new(2), Value::int(4))],
        )
        .unwrap();
        assert_eq!(t, tup![4, 9]);
        assert!(Tuple::from_pairs(&attrs, [(Attr::new(2), Value::int(1))]).is_err());
        assert!(Tuple::from_pairs(&attrs, [(Attr::new(9), Value::int(1))]).is_err());
        assert!(Tuple::from_pairs(
            &attrs,
            [(Attr::new(2), Value::int(1)), (Attr::new(2), Value::int(2)),]
        )
        .is_err());
    }

    #[test]
    fn null_detection() {
        assert!(!tup![1, 2].has_null());
        assert!(Tuple::new([Value::int(1), Value::Null(0)]).has_null());
    }
}
