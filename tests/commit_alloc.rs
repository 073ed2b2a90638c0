//! Allocation test for the commit → publish → dispatch path.
//!
//! Every accepted update is built once as a shared `Arc<Commit>`; the
//! snapshot publish, the commit history and each CDC event share its
//! per-relation deltas instead of copying their tuple vectors.
//! Subscribers should therefore cost a constant handful of allocations
//! per commit, however many base rows the commit moved.
//!
//! This file deliberately contains a single `#[test]`: the counting
//! allocator is process-global, and a second test running in parallel
//! would pollute the window between the two counter snapshots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use relvu::engine::{Database, Policy, SubscribeOptions, Subscription, UpdateOp};
use relvu::prelude::*;
use relvu::relation::tup;

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

/// Allowed extra allocations per accepted commit for the 8 subscribers.
const MAX_SUBSCRIBER_ALLOCS: u64 = 16;

/// `E → D → M` with `rows` employees spread over `depts` departments,
/// the manager view `mgrs = π_{D,M}` and the staff view `emp =
/// π_{E,D}` (complement `{D, M}`).
fn database(rows: u64, depts: u64) -> Database {
    let schema = Schema::new(["E", "D", "M"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
    let base = Relation::from_rows(
        schema.universe(),
        (0..rows).map(|e| tup![e, e % depts, 1_000_000 + e % depts]),
    )
    .unwrap();
    let db = Database::new(schema.clone(), fds, base).unwrap();
    db.create_view("mgrs", schema.set(["D", "M"]).unwrap(), None, Policy::Exact)
        .unwrap();
    db.create_view(
        "emp",
        schema.set(["E", "D"]).unwrap(),
        Some(schema.set(["D", "M"]).unwrap()),
        Policy::Exact,
    )
    .unwrap();
    db
}

/// Departments the measured replaces cycle through.
const HOT: u64 = 4;

/// The `i`-th manager replace: department `i % HOT` swaps between its
/// original manager and a stand-in, moving every one of its base rows.
fn replace(i: u64) -> UpdateOp {
    let d = i % HOT;
    let (old, new) = (1_000_000 + d, 2_000_000 + d);
    let (from, to) = if (i / HOT) % 2 == 0 {
        (old, new)
    } else {
        (new, old)
    };
    UpdateOp::Replace {
        t1: tup![d, from],
        t2: tup![d, to],
    }
}

/// Allocations per accepted commit over `n` measured replaces, after a
/// warm-up that swaps each hot department's manager there and back (so
/// every value is interned and every queue and buffer has settled
/// capacity). Queued events are drained after each commit, outside the
/// counted window.
fn allocs_per_commit(db: &Database, subs: &[Subscription], n: u64) -> u64 {
    let drain = || {
        for s in subs {
            while s.try_recv().is_some() {}
        }
    };
    for i in 0..HOT * 2 {
        db.apply_op("mgrs", replace(i)).unwrap();
        drain();
    }
    let mut total = 0;
    for i in HOT * 2..HOT * 2 + n {
        let op = replace(i);
        let before = allocs();
        db.apply_op("mgrs", op).unwrap();
        total += allocs() - before;
        drain();
    }
    total / n
}

#[test]
fn subscribers_add_a_constant_number_of_allocations_per_commit() {
    const DEPTS: u64 = 64;
    const N: u64 = 8;
    // 64 and 8 base rows per department: the bound must not depend on
    // the size of the base delta.
    for rows in [4096, 512] {
        let quiet = database(rows, DEPTS);
        let watched = database(rows, DEPTS);
        let subs: Vec<Subscription> = (0..4)
            .map(|_| {
                watched
                    .subscribe("mgrs", SubscribeOptions::snapshot())
                    .unwrap()
            })
            .chain((0..4).map(|_| {
                watched
                    .subscribe_base(SubscribeOptions::snapshot())
                    .unwrap()
            }))
            .collect();
        let without = allocs_per_commit(&quiet, &[], N);
        let with = allocs_per_commit(&watched, &subs, N);
        println!("{rows} rows: {without} allocations per commit, {with} with 8 subscribers");
        assert!(
            with <= without + MAX_SUBSCRIBER_ALLOCS,
            "{rows} rows: 8 subscribers cost {} allocations per commit (bound {MAX_SUBSCRIBER_ALLOCS})",
            with.saturating_sub(without)
        );
    }
}
