//! Heap bound for the engine's commit history.
//!
//! Every accepted update joins the published commit history, which
//! serves the audit log, incremental checkpoints and subscription
//! catch-up. A checkpoint prunes it, so in a store that checkpoints the
//! heap it holds must not grow with the number of commits: after 100k
//! insert/delete cycles through a view, pruned every 1024 commits as a
//! checkpoint does, live heap must be within a fixed constant of live
//! heap after 10k cycles.
//!
//! The cycles reuse a fixed pool of rows. A column dictionary never
//! forgets a value whose last row is gone, so fresh values would grow
//! the heap by one dictionary entry per value; that is a separate open
//! item, not fixed here, and this guard bounds only the history.
//!
//! Release builds only: the debug-build oracles recheck the whole base
//! at every commit, and 200k commits would take minutes. This file
//! deliberately contains a single `#[test]`: the counting
//! allocator is process-global, and a second test running in parallel
//! would pollute the live-byte count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use relvu::engine::{Database, Policy, UpdateOp};
use relvu::prelude::*;
use relvu::relation::tup;

struct CountingAlloc;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Commits between two prunes, as a checkpoint every 1024 commits.
const PRUNE_EVERY: u64 = 1024;

/// Employees the cycles insert and delete again.
const POOL: u64 = 64;

/// The most live heap may grow from the first measurement to the second.
const MAX_GROWTH: i64 = 256 * 1024;

/// `E → D → M` with 64 employees over 8 departments and the staff view
/// `emp = π_{E,D}` (complement `{D, M}`).
fn database() -> Database {
    let schema = Schema::new(["E", "D", "M"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
    let base =
        Relation::from_rows(schema.universe(), (0..64u64).map(|e| tup![e, e % 8, e % 8])).unwrap();
    let db = Database::new(schema.clone(), fds, base).unwrap();
    db.create_view(
        "emp",
        schema.set(["E", "D"]).unwrap(),
        Some(schema.set(["D", "M"]).unwrap()),
        Policy::Exact,
    )
    .unwrap();
    db
}

/// Run cycles `from..to`: hire pool employee `i % POOL` into its
/// department, then let them go, pruning the history at every
/// `PRUNE_EVERY`-th commit.
fn cycles(db: &Database, from: u64, to: u64) {
    for i in from..to {
        let e = 1000 + i % POOL;
        let t = tup![e, e % 8];
        for op in [UpdateOp::Insert { t: t.clone() }, UpdateOp::Delete { t }] {
            let seq = db.apply_op("emp", op).unwrap().seq;
            if seq % PRUNE_EVERY == 0 {
                db.prune_history_below(seq);
            }
        }
    }
}

#[test]
fn live_heap_does_not_grow_with_commits() {
    if cfg!(debug_assertions) {
        println!("skipped: 200k debug-build commits take minutes; run with --release");
        return;
    }
    let db = database();
    // 10,240 and 102,400 cycles: both points fall right after a prune.
    const FIRST: u64 = 10 * PRUNE_EVERY;
    const SECOND: u64 = 100 * PRUNE_EVERY;
    cycles(&db, 0, FIRST);
    let at_first = live();
    cycles(&db, FIRST, SECOND);
    let at_second = live();
    let growth = at_second - at_first;
    println!(
        "live heap {at_first} B after {FIRST} cycles, {at_second} B after {SECOND}: \
         {growth} B growth, {:.1} B per commit",
        growth as f64 / (2 * (SECOND - FIRST)) as f64
    );
    assert!(
        growth <= MAX_GROWTH,
        "live heap grew by {growth} B over {} commits (bound {MAX_GROWTH} B)",
        2 * (SECOND - FIRST)
    );
}
