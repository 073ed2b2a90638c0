//! Attribute closure and FD implication.
//!
//! The paper's algorithms repeatedly need `Σ ⊨ X → Y`, which reduces to
//! `Y ⊆ X⁺`. Two implementations are provided:
//!
//! * [`closure_naive`] — the textbook quadratic fixpoint, kept as a
//!   correctness oracle for property tests;
//! * [`closure`] — the linear-time counting algorithm of Beeri & Bernstein
//!   \[4\], which the paper cites for its `O(|Σ|)` bounds (condition (b) of
//!   Theorem 3, step (3) of Test 1).

use relvu_relation::AttrSet;

use crate::{Fd, FdSet};

/// `X⁺` under `fds`, by the naive fixpoint (`O(|Σ|²)` worst case).
pub fn closure_naive(fds: &FdSet, x: AttrSet) -> AttrSet {
    let mut closure = x;
    loop {
        let mut changed = false;
        for fd in fds {
            if fd.lhs().is_subset(&closure) && !fd.rhs().is_subset(&closure) {
                closure = closure | fd.rhs();
                changed = true;
            }
        }
        if !changed {
            return closure;
        }
    }
}

/// `X⁺` under `fds`, by the Beeri–Bernstein counting algorithm: linear in
/// the total size of `fds` plus the universe.
///
/// Each FD keeps a count of left-hand-side attributes not yet in the
/// closure; an attribute entering the closure decrements the counts of the
/// FDs whose LHS mentions it, and an FD firing (count = 0) pushes its RHS.
pub fn closure(fds: &FdSet, x: AttrSet) -> AttrSet {
    // attr -> indices of FDs whose LHS contains it.
    let n_fds = fds.len();
    let mut counts: Vec<usize> = Vec::with_capacity(n_fds);
    let mut by_attr: std::collections::HashMap<u16, Vec<usize>> = std::collections::HashMap::new();
    for (i, fd) in fds.iter().enumerate() {
        counts.push(fd.lhs().len());
        for a in fd.lhs().iter() {
            by_attr.entry(a.index() as u16).or_default().push(i);
        }
    }
    let mut result = x;
    let mut queue: Vec<relvu_relation::Attr> = x.iter().collect();
    // FDs with empty LHS fire immediately.
    for (i, fd) in fds.iter().enumerate() {
        if counts[i] == 0 {
            for a in fd.rhs().iter() {
                if result.insert(a) {
                    queue.push(a);
                }
            }
        }
    }
    while let Some(a) = queue.pop() {
        if let Some(idxs) = by_attr.get(&(a.index() as u16)) {
            for &i in idxs {
                counts[i] -= 1;
                if counts[i] == 0 {
                    for b in fds.as_slice()[i].rhs().iter() {
                        if result.insert(b) {
                            queue.push(b);
                        }
                    }
                }
            }
        }
    }
    result
}

/// A stable 64-bit fingerprint of an FD set, for keying the closure memo
/// cache. FNV-1a over the FDs' backing bitset words; order-sensitive
/// (two orderings of the same FDs fingerprint differently, which only
/// costs a cache miss, never a wrong answer).
pub fn fingerprint(fds: &FdSet) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET ^ (fds.len() as u64);
    let mut mix = |word: u64| {
        // Word-at-a-time FNV-1a (byte-level granularity is not needed for
        // 64-bit bitset words).
        h ^= word;
        h = h.wrapping_mul(PRIME);
    };
    for fd in fds {
        for w in fd.lhs().words() {
            mix(w);
        }
        for w in fd.rhs().words() {
            mix(w);
        }
    }
    h
}

/// A bounded, sharded, LRU-style memo for [`closure`] results, keyed by
/// `(FdSet fingerprint, X)`.
///
/// The closure of a small attribute set is recomputed constantly on the
/// engine's hot paths (Theorem 3 condition (b), Test 1/2 preparation,
/// complement derivation), almost always against the same Σ. Each entry
/// stores a copy of the FD set it was computed under and re-verifies it on
/// every hit, so fingerprint collisions can cost a miss but can never
/// alias a wrong result.
pub mod cache {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    use relvu_relation::AttrSet;

    use crate::FdSet;

    const SHARDS: usize = 16;
    const PER_SHARD_CAP: usize = 256;

    struct Entry {
        fds: FdSet,
        result: AttrSet,
        stamp: u64,
    }

    #[derive(Default)]
    struct Shard {
        map: HashMap<(u64, AttrSet), Entry>,
        tick: u64,
    }

    /// The cache's counters live in the `relvu-obs` registry (metric names
    /// `deps.closure.cache.*`) so `Database::metrics()` sees them without a
    /// parallel reporting mechanism. With obs disabled they are no-ops and
    /// [`stats`] reads all-zero.
    struct Cache {
        shards: Vec<Mutex<Shard>>,
        hits: &'static relvu_obs::Counter,
        misses: &'static relvu_obs::Counter,
        evictions: &'static relvu_obs::Counter,
        verify_failures: &'static relvu_obs::Counter,
    }

    fn global() -> &'static Cache {
        static GLOBAL: OnceLock<Cache> = OnceLock::new();
        GLOBAL.get_or_init(|| Cache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            hits: relvu_obs::counter("deps.closure.cache.hits"),
            misses: relvu_obs::counter("deps.closure.cache.misses"),
            evictions: relvu_obs::counter("deps.closure.cache.evictions"),
            verify_failures: relvu_obs::counter("deps.closure.cache.verify_failures"),
        })
    }

    /// Aggregate hit/miss counters for the process-wide cache.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Lookups answered from the cache.
        pub hits: u64,
        /// Lookups that fell through to [`super::closure`].
        pub misses: u64,
        /// Entries displaced by the capacity bound.
        pub evictions: u64,
        /// Key hits whose stored Σ failed verification (fingerprint
        /// collision or stale entry); each one recomputes and overwrites.
        pub verify_failures: u64,
        /// Entries currently resident.
        pub len: usize,
    }

    impl CacheStats {
        /// `hits / (hits + misses)`, or 0 when empty.
        pub fn hit_rate(&self) -> f64 {
            let total = self.hits + self.misses;
            if total == 0 {
                0.0
            } else {
                self.hits as f64 / total as f64
            }
        }
    }

    /// The shard holding key `(fp, x)`.
    fn shard_of(fp: u64, x: AttrSet) -> usize {
        (fp ^ x.words()[0]).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize % SHARDS
    }

    /// `X⁺` under `fds`, answered from the memo when possible.
    ///
    /// Agreement with [`super::closure`] (and thus
    /// [`super::closure_naive`]) is property-tested in the root test
    /// suite, including under interleaved FD-set mutation.
    pub fn closure_cached(fds: &FdSet, x: AttrSet) -> AttrSet {
        let cache = global();
        let fp = super::fingerprint(fds);
        let key = (fp, x);
        let mut shard = cache.shards[shard_of(fp, x)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.map.get_mut(&key) {
            // Verify the stored Σ: a fingerprint collision must never
            // alias another FD set's closure.
            if entry.fds == *fds {
                entry.stamp = tick;
                let result = entry.result;
                drop(shard);
                cache.hits.inc();
                return result;
            }
            cache.verify_failures.inc();
        }
        let result = super::closure(fds, x);
        if shard.map.len() >= PER_SHARD_CAP && !shard.map.contains_key(&key) {
            // LRU-style eviction: drop the least-recently-stamped entry.
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                shard.map.remove(&oldest);
                cache.evictions.inc();
            }
        }
        shard.map.insert(
            key,
            Entry {
                fds: fds.clone(),
                result,
                stamp: tick,
            },
        );
        drop(shard);
        cache.misses.inc();
        result
    }

    /// Current counters (all zero when `relvu-obs` is built disabled).
    pub fn stats() -> CacheStats {
        let cache = global();
        let len = cache
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum();
        CacheStats {
            hits: cache.hits.get(),
            misses: cache.misses.get(),
            evictions: cache.evictions.get(),
            verify_failures: cache.verify_failures.get(),
            len,
        }
    }

    /// Test-only: plant an entry under the exact key `(fds, x)` would
    /// hash to, but recording `wrong_fds`/`wrong_result` — i.e. simulate
    /// a fingerprint collision. A subsequent [`closure_cached`] lookup
    /// for `(fds, x)` must detect the Σ mismatch and recompute rather
    /// than return `wrong_result`.
    #[doc(hidden)]
    pub fn plant_colliding_entry(fds: &FdSet, x: AttrSet, wrong_fds: FdSet, wrong_result: AttrSet) {
        let cache = global();
        let fp = super::fingerprint(fds);
        let key = (fp, x);
        let mut shard = cache.shards[shard_of(fp, x)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.insert(
            key,
            Entry {
                fds: wrong_fds,
                result: wrong_result,
                stamp: tick,
            },
        );
    }

    /// Is `X⁺` under exactly `fds` resident? Tests share the process-wide
    /// cache with concurrently running tests, so they check their own
    /// entries rather than global counts.
    #[cfg(test)]
    pub(super) fn is_resident(fds: &FdSet, x: AttrSet) -> bool {
        let fp = super::fingerprint(fds);
        let shard = global().shards[shard_of(fp, x)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        shard.map.get(&(fp, x)).is_some_and(|e| e.fds == *fds)
    }

    /// Drop every entry computed under the Σ with fingerprint `fp`,
    /// leaving other FD sets' entries (and all counters) untouched.
    ///
    /// This is the right invalidation for one database replacing *its*
    /// Σ: the cache is process-wide and fingerprint-keyed, so entries
    /// under other fingerprints belong to other live FD sets (or are
    /// harmless stale ones that LRU out). A blanket [`reset`] would
    /// evict every other database's working set too.
    pub fn evict_fingerprint(fp: u64) {
        let cache = global();
        let mut evicted = 0u64;
        for shard in &cache.shards {
            let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
            let before = s.map.len();
            s.map.retain(|k, _| k.0 != fp);
            evicted += (before - s.map.len()) as u64;
        }
        cache.evictions.add(evicted);
    }

    /// Drop every entry and zero the counters (e.g. after a schema or
    /// dependency change, or to isolate a measurement).
    pub fn reset() {
        let cache = global();
        for shard in &cache.shards {
            let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
            s.map.clear();
            s.tick = 0;
        }
        cache.hits.reset();
        cache.misses.reset();
        cache.evictions.reset();
        cache.verify_failures.reset();
    }
}

/// Does `Σ ⊨ fd`? (Armstrong-complete via closure.)
pub fn implies_fd(fds: &FdSet, fd: &Fd) -> bool {
    fd.rhs().is_subset(&closure(fds, fd.lhs()))
}

/// Does `Σ ⊨ X → Y`?
pub fn implies(fds: &FdSet, x: AttrSet, y: AttrSet) -> bool {
    y.is_subset(&closure(fds, x))
}

/// Are two FD sets equivalent (each implies the other)?
pub fn equivalent(a: &FdSet, b: &FdSet) -> bool {
    a.iter().all(|fd| implies_fd(b, fd)) && b.iter().all(|fd| implies_fd(a, fd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relvu_relation::Schema;

    fn edm() -> (Schema, FdSet) {
        let s = Schema::new(["E", "D", "M"]).unwrap();
        let fds = FdSet::parse(&s, "E->D; D->M").unwrap();
        (s, fds)
    }

    /// Serializes the tests here that reset or fill the process-wide
    /// cache, so none of them clears another's entries mid-test.
    fn cache_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn transitive_closure() {
        let (s, fds) = edm();
        let e = s.set(["E"]).unwrap();
        assert_eq!(closure(&fds, e), s.universe());
        assert_eq!(closure_naive(&fds, e), s.universe());
        let d = s.set(["D"]).unwrap();
        assert_eq!(closure(&fds, d), s.set(["D", "M"]).unwrap());
    }

    #[test]
    fn empty_fdset_closure_is_identity() {
        let s = Schema::numbered(4).unwrap();
        let x = s.set(["A0", "A2"]).unwrap();
        assert_eq!(closure(&FdSet::default(), x), x);
    }

    #[test]
    fn empty_lhs_fd_always_fires() {
        let s = Schema::new(["A", "B"]).unwrap();
        let fds = FdSet::new([Fd::from_sets(AttrSet::new(), s.set(["B"]).unwrap())]);
        assert_eq!(closure(&fds, AttrSet::new()), s.set(["B"]).unwrap());
    }

    #[test]
    fn implication() {
        let (s, fds) = edm();
        assert!(implies(&fds, s.set(["E"]).unwrap(), s.set(["M"]).unwrap()));
        assert!(!implies(&fds, s.set(["M"]).unwrap(), s.set(["E"]).unwrap()));
        assert!(implies_fd(&fds, &Fd::parse(&s, "E -> E D M").unwrap()));
    }

    #[test]
    fn equivalence() {
        let s = Schema::new(["A", "B", "C"]).unwrap();
        let f1 = FdSet::parse(&s, "A->B; B->C").unwrap();
        let f2 = FdSet::parse(&s, "A->B C; B->C").unwrap();
        let f3 = FdSet::parse(&s, "A->B").unwrap();
        assert!(equivalent(&f1, &f2));
        assert!(!equivalent(&f1, &f3));
    }

    #[test]
    fn cached_matches_uncached_and_counts() {
        let _cache = cache_lock();
        let (s, fds) = edm();
        cache::reset();
        let e = s.set(["E"]).unwrap();
        assert_eq!(cache::closure_cached(&fds, e), closure(&fds, e));
        assert_eq!(cache::closure_cached(&fds, e), closure(&fds, e));
        let st = cache::stats();
        if relvu_obs::enabled() {
            assert!(st.hits >= 1, "second lookup must hit: {st:?}");
            assert!(st.misses >= 1, "first lookup must miss: {st:?}");
        }
        // A different Σ with (necessarily) a different fingerprint, and a
        // mutated Σ after push, both get fresh results.
        let mut fds2 = fds.clone();
        fds2.push(Fd::parse(&s, "M -> E").unwrap());
        assert_ne!(fingerprint(&fds), fingerprint(&fds2));
        assert_eq!(
            cache::closure_cached(&fds2, s.set(["M"]).unwrap()),
            s.universe()
        );
    }

    #[test]
    fn evict_fingerprint_is_scoped() {
        let _cache = cache_lock();
        let (s, fds) = edm();
        let mut other = fds.clone();
        other.push(Fd::parse(&s, "M -> E").unwrap());
        cache::reset();
        let e = s.set(["E"]).unwrap();
        let _ = cache::closure_cached(&fds, e);
        let _ = cache::closure_cached(&other, e);
        assert!(cache::is_resident(&fds, e) && cache::is_resident(&other, e));
        cache::evict_fingerprint(fingerprint(&fds));
        // Only the targeted Σ's entry goes; the other survives. (Global
        // counts cannot show this: concurrently running tests add entries,
        // some under this same Σ, which the eviction rightly drops too.)
        assert!(!cache::is_resident(&fds, e), "targeted Σ evicted");
        assert!(cache::is_resident(&other, e), "other Σ must still hit");
    }

    #[test]
    fn fingerprint_stable_and_discriminating() {
        let (s, fds) = edm();
        assert_eq!(fingerprint(&fds), fingerprint(&fds.clone()));
        assert_ne!(fingerprint(&fds), fingerprint(&FdSet::default()));
        let swapped = FdSet::new(fds.iter().rev().cloned());
        // Order-sensitivity is allowed (misses, never aliases).
        let _ = fingerprint(&swapped);
        assert_ne!(
            fingerprint(&FdSet::parse(&s, "E->D").unwrap()),
            fingerprint(&FdSet::parse(&s, "D->E").unwrap())
        );
    }

    #[test]
    fn cache_eviction_is_bounded() {
        let _cache = cache_lock();
        cache::reset();
        let s = Schema::numbered(64).unwrap();
        let fds = FdSet::parse(&s, "A0 -> A1").unwrap();
        // Far more distinct keys than the cache holds.
        for i in 0..64usize {
            for j in 0..256usize {
                let mut x = AttrSet::new();
                x.insert(relvu_relation::Attr::new(i % 64));
                x.insert(relvu_relation::Attr::new(j % 64));
                let _ = cache::closure_cached(&fds, x);
            }
        }
        let st = cache::stats();
        assert!(st.len <= 16 * 256, "stats: {st:?}");
    }

    #[test]
    fn linear_matches_naive_on_random_inputs() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.gen_range(1..12usize);
            let s = Schema::numbered(n).unwrap();
            let attrs: Vec<_> = s.attrs().collect();
            let mut fds = FdSet::default();
            for _ in 0..rng.gen_range(0..10) {
                let l: AttrSet = attrs
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(0.3))
                    .collect();
                let r: AttrSet = attrs
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(0.3))
                    .collect();
                fds.push(Fd::from_sets(l, r));
            }
            let x: AttrSet = attrs
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.4))
                .collect();
            assert_eq!(closure(&fds, x), closure_naive(&fds, x));
        }
    }
}
