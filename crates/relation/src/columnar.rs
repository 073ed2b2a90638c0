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

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{RelationError, Result, Value};

/// FNV-1a, the cheap non-cryptographic hasher the dictionaries use —
/// interned keys are single `u64`-shaped [`Value`]s, where SipHash's
/// setup cost dominates the probe.
///
/// A `Value`'s derived `Hash` writes its discriminant and its `u64`,
/// and [`Hasher::write_u64`] / [`Hasher::write_isize`] fold each in as
/// one word: rotate, xor, multiply (one multiply per word, where the
/// byte-wise rule spends one per byte). Each fold ends with the
/// multiply, so the high bits — those `HashMap` keeps as its control
/// bytes — depend on every input bit, and [`Hasher::finish`] folds them
/// down onto the low bits it picks the bucket with. Byte slices keep
/// the byte-wise FNV-1a rule.
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The word-fold multiplier: odd, with its bits spread over all 64
/// positions (the golden ratio's, as in Fibonacci hashing).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(WORD_MUL);
    }
    #[inline]
    fn write_isize(&mut self, word: isize) {
        self.write_u64(word as u64);
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
        let next = self.id_base as u64 + self.vals.len() as u64;
        match self.map.entry(v) {
            Entry::Occupied(e) => Ok(*e.get()),
            // u32::MAX is reserved as a never-assigned sentinel.
            Entry::Vacant(_) if next >= u64::from(u32::MAX) => Err(RelationError::DictFull),
            Entry::Vacant(e) => {
                self.vals.push(v);
                Ok(*e.insert(next as u32))
            }
        }
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

    /// A fresh column holding this column's rows at `slots`, in that
    /// order, its dictionary filled by remapping ids: each distinct
    /// value is copied and hashed once, at its first appearance, so ids
    /// stay in first-appearance order. Also reports whether the remap
    /// keeps the id order (every id assigned ascends with the id it
    /// came from), in which case a sort by this column's ids is also
    /// one by the new column's.
    pub(crate) fn gather(&self, slots: &[u32]) -> (Col, bool) {
        const UNSEEN: u32 = u32::MAX;
        let mut remap = vec![UNSEEN; self.vals.len()];
        let distinct = slots.len().min(self.vals.len());
        let mut out = Col {
            vals: Vec::with_capacity(distinct),
            map: FnvMap::with_capacity_and_hasher(distinct, Default::default()),
            ids: Vec::with_capacity(slots.len()),
            id_base: 0,
        };
        let (mut ordered, mut last) = (true, None);
        for &slot in slots {
            let from = (self.ids[slot as usize] - self.id_base) as usize;
            if remap[from] == UNSEEN {
                ordered &= last < Some(from);
                last = Some(from);
                remap[from] = out.vals.len() as u32;
                let v = self.vals[from];
                out.vals.push(v);
                out.map.insert(v, remap[from]);
            }
            out.ids.push(remap[from]);
        }
        (out, ordered)
    }

    /// This column as a sort key: its ids (`by_value` false), or each
    /// id's rank in the value order of the dictionary (`by_value` true),
    /// so `u32` keys compare as the values do. The ranks need no table
    /// when the ids already ascend with their values — values first seen
    /// in ascending order.
    pub(crate) fn sort_key(&self, by_value: bool) -> SortKey<'_> {
        let ranked = by_value && !(self.id_base == 0 && self.vals.windows(2).all(|w| w[0] < w[1]));
        let ranks = ranked.then(|| {
            let mut by_value: Vec<u32> = (0..self.vals.len() as u32).collect();
            by_value.sort_unstable_by_key(|&i| self.vals[i as usize]);
            let mut ranks = vec![0; self.vals.len()];
            for (rank, &i) in by_value.iter().enumerate() {
                ranks[i as usize] = rank as u32;
            }
            ranks
        });
        SortKey {
            ids: &self.ids,
            base: self.id_base,
            bound: match ranks {
                Some(_) => self.vals.len() as u64,
                None => u64::from(self.id_base) + self.vals.len() as u64,
            },
            ranks,
        }
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

/// One column of a row-slot sort: its per-slot ids, read directly or
/// through a rank table (see [`Col::sort_key`]).
pub(crate) struct SortKey<'a> {
    ids: &'a [u32],
    /// Rank of each id, indexed by `id − base`.
    ranks: Option<Vec<u32>>,
    base: u32,
    /// One past the largest key.
    bound: u64,
}

impl SortKey<'_> {
    #[inline]
    fn at(&self, slot: u32) -> u32 {
        let id = self.ids[slot as usize];
        match &self.ranks {
            Some(ranks) => ranks[(id - self.base) as usize],
            None => id,
        }
    }
}

/// Bits needed to write every integer below `bound`.
fn bits_below(bound: u64) -> u32 {
    u64::BITS - bound.saturating_sub(1).leading_zeros()
}

/// The slots `0..n` sorted by their keys, column by column, ties by
/// slot; and, for each slot of that order, whether its key equals the
/// previous slot's (so the runs of equal keys, each slot-ascending, can
/// be read off without comparing again).
///
/// When every key column and the slot fit in 64 bits together — the
/// usual case, ids being dense — each slot's key is packed into one
/// `u64` with the slot in the low bits, and the sort is a plain integer
/// sort; otherwise it compares the columns one by one.
pub(crate) fn sort_slots(n: usize, keys: &[SortKey<'_>]) -> (Vec<u32>, Vec<bool>) {
    let widths: Vec<u32> = keys.iter().map(|k| bits_below(k.bound)).collect();
    let slot_bits = bits_below(n as u64);
    if widths.iter().sum::<u32>() + slot_bits <= u64::BITS {
        let mut packed: Vec<u64> = (0..n as u32)
            .map(|slot| {
                let key = keys
                    .iter()
                    .zip(&widths)
                    .fold(0u64, |acc, (k, &w)| (acc << w) | u64::from(k.at(slot)));
                (key << slot_bits) | u64::from(slot)
            })
            .collect();
        packed.sort_unstable();
        let mask = (1u64 << slot_bits) - 1;
        let same = packed
            .iter()
            .enumerate()
            .map(|(i, &p)| i > 0 && packed[i - 1] >> slot_bits == p >> slot_bits)
            .collect();
        return (packed.iter().map(|&p| (p & mask) as u32).collect(), same);
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    let cmp = |a: u32, b: u32| {
        keys.iter()
            .map(|k| k.at(a).cmp(&k.at(b)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    order.sort_unstable_by(|&a, &b| cmp(a, b).then(a.cmp(&b)));
    let same = (0..n)
        .map(|i| i > 0 && cmp(order[i - 1], order[i]).is_eq())
        .collect();
    (order, same)
}

/// Exponential ("galloping") search: the number of leading positions
/// `0, 1, …` below `len` for which `keep` holds, assuming `keep` is
/// monotone (once false, false for the rest). `O(log k)` for an answer
/// of `k`. Taking positions rather than a slice lets it search a flat
/// row-major block as well as a slice.
///
/// This is the `tools::gallop` of salmans/codd: merge joins use it to
/// skip runs of a sorted side in logarithmic rather than linear time.
pub fn gallop(len: usize, mut keep: impl FnMut(usize) -> bool) -> usize {
    if len == 0 || !keep(0) {
        return 0;
    }
    // Invariant: keep(lo - 1) holds.
    let mut lo = 1usize;
    let mut step = 1usize;
    while lo + step <= len && keep(lo + step - 1) {
        lo += step;
        step <<= 1;
    }
    // Binary refinement within (lo, lo + step).
    step >>= 1;
    while step > 0 {
        if lo + step <= len && keep(lo + step - 1) {
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
    fn word_hash_spreads_values_over_the_bucket_bits() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        // Values that share their low bits (multiples of 1,000,000 share
        // six zero bits, as manager ids do) must still spread over the
        // low bits a map picks buckets with, and over the top seven bits
        // it keeps as control bytes.
        let build = BuildHasherDefault::<Fnv1a>::default();
        for values in [
            (0..256u64)
                .map(|d| Value::int(d * 1_000_000))
                .collect::<Vec<_>>(),
            (0..256u64).map(|e| Value::int((1 << 40) + e)).collect(),
            (0..256u64).map(Value::Null).collect(),
        ] {
            let hashes: Vec<u64> = values.iter().map(|v| build.hash_one(v)).collect();
            let low: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
            let top: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(low.len() > 128, "{} distinct low bytes", low.len());
            assert!(top.len() > 64, "{} distinct control tags", top.len());
        }
        assert_ne!(
            build.hash_one(Value::int(3)),
            build.hash_one(Value::Null(3))
        );
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
        let run = |bound: i32| gallop(xs.len(), |i| xs[i] <= bound);
        assert_eq!(run(0), 0);
        assert_eq!(run(1), 3);
        assert_eq!(run(2), 5);
        assert_eq!(run(7), 13);
        assert_eq!(run(100), xs.len());
        assert_eq!(gallop(0, |_| true), 0);
    }

    #[test]
    fn gallop_agrees_with_partition_point_exhaustively() {
        for n in 0..40usize {
            let xs: Vec<usize> = (0..n).map(|i| i / 3).collect();
            for bound in 0..15 {
                assert_eq!(
                    gallop(xs.len(), |i| xs[i] < bound),
                    xs.partition_point(|&x| x < bound),
                    "n={n} bound={bound}"
                );
            }
        }
    }
}
