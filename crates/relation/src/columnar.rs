//! Interned columnar storage: per-attribute dictionaries and galloping
//! (exponential) search over sorted id arrays.
//!
//! A [`Col`] is one attribute's worth of a relation: a dictionary
//! interning each distinct [`Value`] to a `u32` id (assigned in first-
//! appearance order, stable for the lifetime of the relation) and a
//! dense `ids` array with one entry per row slot. Equal values get equal
//! ids within a column, so row comparison, membership and conjunctive
//! scans are `u32` array work instead of `Value` hashing — the
//! salmans/codd layout, adapted to the paper's set-semantics relations.
//! The id arrays are a relation's only copy of its rows: a row is read
//! back value by value through the dictionaries.
//!
//! [`gallop`] is the exponential search both the merge joins in
//! [`crate::ops`] and the complement probes in the engine use to find
//! the boundary of a sorted run in `O(log gap)`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{RelationError, Result, Value};

/// FNV-1a, the cheap non-cryptographic hasher the dictionaries use —
/// interned keys are single `u64`-shaped [`Value`]s, where SipHash's
/// setup cost dominates the probe.
#[derive(Default)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// `HashMap` keyed by the FNV hasher above.
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a>>;

/// One attribute's interned column: dictionary + dense id array.
#[derive(Clone, Debug, Default)]
pub(crate) struct Col {
    /// id − `id_base` → value, in first-appearance order.
    vals: Vec<Value>,
    /// value → id.
    map: FnvMap<Value, u32>,
    /// Interned id per row slot: the column's only copy of the rows.
    pub(crate) ids: Vec<u32>,
    /// Offset added to freshly assigned ids. Zero in real use; the
    /// test-only [`Col::inflate_id_base`] hook raises it to exercise the
    /// id-space exhaustion guard without allocating 2³² dictionary
    /// entries.
    id_base: u32,
}

impl Col {
    /// The id of `v` if it has ever been interned in this column.
    #[inline]
    pub(crate) fn id_of(&self, v: Value) -> Option<u32> {
        self.map.get(&v).copied()
    }

    /// Intern `v`, assigning a fresh id on first appearance.
    ///
    /// # Errors
    /// [`RelationError::DictFull`] once the column's id space (u32) is
    /// exhausted.
    pub(crate) fn intern(&mut self, v: Value) -> Result<u32> {
        if let Some(&id) = self.map.get(&v) {
            return Ok(id);
        }
        let next = self.id_base as u64 + self.vals.len() as u64;
        if next >= u64::from(u32::MAX) {
            // u32::MAX is reserved as a never-assigned sentinel.
            return Err(RelationError::DictFull);
        }
        let id = next as u32;
        self.vals.push(v);
        self.map.insert(v, id);
        Ok(id)
    }

    /// The value behind an assigned id.
    #[inline]
    pub(crate) fn val_of(&self, id: u32) -> Value {
        self.vals[(id - self.id_base) as usize]
    }

    /// Number of distinct values interned.
    #[inline]
    pub(crate) fn dict_len(&self) -> usize {
        self.vals.len()
    }

    /// Does the dictionary hold a labeled null? O(distinct values).
    pub(crate) fn has_null(&self) -> bool {
        self.vals.iter().any(|v| v.is_null())
    }

    /// How many more distinct values this column can intern before
    /// [`Col::intern`] reports [`RelationError::DictFull`].
    #[inline]
    pub(crate) fn room(&self) -> u64 {
        u64::from(u32::MAX) - (u64::from(self.id_base) + self.vals.len() as u64)
    }

    /// Test hook: pretend `by` ids were already handed out, so the
    /// [`RelationError::DictFull`] guard can be reached without 2³²
    /// insertions. Only callable on a column that has interned nothing.
    #[doc(hidden)]
    pub(crate) fn inflate_id_base(&mut self, by: u32) {
        assert!(
            self.vals.is_empty(),
            "id-base inflation only on a fresh column"
        );
        self.id_base = by;
    }
}

/// Exponential ("galloping") search: the number of leading elements of
/// `slice` for which `keep` holds, assuming `keep` is monotone (once
/// false, false for the rest). `O(log k)` for an answer of `k`.
///
/// This is the `tools::gallop` of salmans/codd: merge joins use it to
/// skip runs of a sorted side in logarithmic rather than linear time.
pub fn gallop<T>(slice: &[T], mut keep: impl FnMut(&T) -> bool) -> usize {
    if slice.is_empty() || !keep(&slice[0]) {
        return 0;
    }
    // Invariant: keep(slice[lo - 1]) holds.
    let mut lo = 1usize;
    let mut step = 1usize;
    while lo + step <= slice.len() && keep(&slice[lo + step - 1]) {
        lo += step;
        step <<= 1;
    }
    // Binary refinement within (lo, lo + step).
    step >>= 1;
    while step > 0 {
        if lo + step <= slice.len() && keep(&slice[lo + step - 1]) {
            lo += step;
        }
        step >>= 1;
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_dense() {
        let mut c = Col::default();
        let a = c.intern(Value::int(7)).unwrap();
        let b = c.intern(Value::Null(3)).unwrap();
        assert_eq!(c.intern(Value::int(7)).unwrap(), a);
        assert_ne!(a, b);
        assert_eq!(c.val_of(a), Value::int(7));
        assert_eq!(c.val_of(b), Value::Null(3));
        assert_eq!(c.dict_len(), 2);
    }

    #[test]
    fn id_space_guard_fires_near_u32_max() {
        let mut c = Col::default();
        c.inflate_id_base(u32::MAX - 2);
        assert!(c.intern(Value::int(1)).is_ok()); // id MAX-2
        assert!(c.intern(Value::int(2)).is_ok()); // id MAX-1
        assert_eq!(c.intern(Value::int(3)), Err(RelationError::DictFull));
        // Existing values still intern to their assigned ids.
        assert!(c.intern(Value::int(1)).is_ok());
        assert_eq!(c.val_of(c.id_of(Value::int(2)).unwrap()), Value::int(2));
    }

    #[test]
    fn gallop_finds_run_boundaries() {
        let xs = [1, 1, 1, 2, 2, 3, 7, 7, 7, 7, 7, 7, 7, 9];
        assert_eq!(gallop(&xs, |&x| x < 1), 0);
        assert_eq!(gallop(&xs, |&x| x <= 1), 3);
        assert_eq!(gallop(&xs, |&x| x <= 2), 5);
        assert_eq!(gallop(&xs, |&x| x <= 7), 13);
        assert_eq!(gallop(&xs, |&x| x <= 100), xs.len());
        let empty: [i32; 0] = [];
        assert_eq!(gallop(&empty, |_| true), 0);
    }

    #[test]
    fn gallop_agrees_with_partition_point_exhaustively() {
        for n in 0..40usize {
            let xs: Vec<usize> = (0..n).map(|i| i / 3).collect();
            for bound in 0..15 {
                assert_eq!(
                    gallop(&xs, |&x| x < bound),
                    xs.partition_point(|&x| x < bound),
                    "n={n} bound={bound}"
                );
            }
        }
    }
}
