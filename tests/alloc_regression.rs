//! Allocation regression test for the columnar `Relation` write path.
//!
//! The pre-columnar `Relation` kept a `HashMap<Tuple, usize>` index and
//! **cloned every inserted tuple** into it, so each insert cost at least
//! one `Vec<Value>` allocation (plus map growth) even when the tuple was
//! a duplicate. The columnar store interns values once per distinct
//! value and resolves each insert's and removal's id key into a stack
//! buffer, so the warm write path allocates nothing.
//!
//! This file deliberately contains a single `#[test]`: the counting
//! allocator is process-global, and a second test running in parallel
//! would pollute the window between the two counter snapshots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use relvu_relation::{Relation, Schema, Tuple};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warm_insert_remove_allocates_nothing() {
    const N: u64 = 1024;
    let schema = Schema::new(["A", "B", "C"]).unwrap();
    let attrs = schema.set(["A", "B", "C"]).unwrap();

    let make = |i: u64| -> Tuple { relvu_relation::tup![i, i * 2, i % 17] };

    // Warm phase: populate, then churn once so every Vec (rows, per-column
    // ids, sorted order) has settled capacity and every
    // value is already interned in its column dictionary.
    let mut r = Relation::new(attrs);
    for i in 0..N {
        assert!(r.insert(make(i)).unwrap());
    }
    for i in 0..N / 2 {
        assert!(r.remove(&make(i)));
    }
    for i in 0..N / 2 {
        assert!(r.insert(make(i)).unwrap());
    }
    assert_eq!(r.len(), N as usize);

    // Pre-build every tuple the measured window will consume, so the only
    // allocations in the window are the relation's own.
    let dups: Vec<Tuple> = (0..N).map(make).collect();
    let cycle: Vec<Tuple> = (0..N / 4).map(make).collect();
    let cycle_back: Vec<Tuple> = (0..N / 4).map(make).collect();

    let before = allocs();

    // Duplicate inserts: probe + sorted-membership lookup, no storage
    // change. The old index-map implementation cloned each tuple here.
    for t in dups {
        assert!(!r.insert(t).unwrap());
    }
    // Remove/re-insert cycle over known values: swap_remove + push into
    // vectors with retained capacity, dictionary hits only.
    for t in &cycle {
        assert!(r.remove(t));
    }
    for t in cycle_back {
        assert!(r.insert(t).unwrap());
    }

    let delta = allocs() - before;
    assert_eq!(r.len(), N as usize);

    // The loop bodies themselves are allocation-free; allow a little
    // slack for incidental runtime effects. The buggy implementation
    // spent >= N allocations on the duplicate-insert loop alone.
    assert!(
        delta <= 32,
        "warm insert/remove path allocated {delta} times for {N} duplicate \
         inserts + {} remove/insert cycles (expected ~0, old index-map \
         implementation needed >= {N})",
        N / 4,
    );
}
