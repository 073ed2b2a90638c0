//! Allocation guard for a commit's engine work.
//!
//! A translated manager change rewrites every base row of its
//! department (Theorem 9). The engine work that follows should allocate
//! per changed key, not per moved row: each moved row is joined once
//! for its removal and once for its insertion, straight into the
//! commit's flat delta buffer, and the base edits read those borrowed
//! rows into its id columns. The folds net the delta by key without
//! projecting the rows, and the published delta chains are re-rooted on
//! a clone of the writer's copy, which copies id columns, not rows.
//!
//! The guard runs the same 512 manager changes at two base sizes, 64
//! and 8 rows per department, and bounds the difference per moved row,
//! so the allocations that do not depend on the delta's size (the
//! check, the log entry, the publish) cancel out. Allocation counts do
//! not depend on the machine.
//!
//! Release builds only: the debug-build oracles recompute the whole base
//! at every commit and would swamp the count. This file deliberately
//! contains a single `#[test]`: the counting allocator is
//! process-global, and a second test running in parallel would pollute
//! the window between the two counter snapshots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use relvu::engine::{Database, Policy};
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

const DEPTS: u64 = 64;

/// Manager changes measured at each base size.
const CHANGES: u64 = 512;

/// Allowed allocations per moved base row (0.0 measured).
const MAX_PER_MOVED_ROW: f64 = 1.0;

/// `E → D → M` with `rows` employees over 64 departments, the manager
/// view `mgrs = π{D, M}` (auto complement `{E, D}`) and the staff view
/// `emp = π{E, D}` (complement `{D, M}`), no subscribers.
fn database(rows: u64) -> Database {
    let schema = Schema::new(["E", "D", "M"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
    let base = Relation::from_rows(
        schema.universe(),
        (0..rows).map(|e| tup![e, e % DEPTS, 1_000_000 + e % DEPTS]),
    )
    .unwrap();
    let db = Database::new(schema.clone(), fds, base).unwrap();
    let mgrs = schema.set(["D", "M"]).unwrap();
    db.create_view("mgrs", mgrs, None, Policy::Exact).unwrap();
    let emp = schema.set(["E", "D"]).unwrap();
    db.create_view("emp", emp, Some(mgrs), Policy::Exact)
        .unwrap();
    db
}

/// Mean allocations per manager change over [`CHANGES`] changes, each
/// giving a department a manager it never had.
fn allocs_per_change(rows: u64) -> f64 {
    let db = database(rows);
    let mut managers: Vec<u64> = (0..DEPTS).map(|d| 1_000_000 + d).collect();
    let before = allocs();
    for i in 0..CHANGES {
        let d = i % DEPTS;
        let fresh = 2_000_000 + i;
        db.replace_via("mgrs", tup![d, managers[d as usize]], tup![d, fresh])
            .unwrap();
        managers[d as usize] = fresh;
    }
    (allocs() - before) as f64 / CHANGES as f64
}

#[test]
fn a_manager_change_allocates_per_changed_key_not_per_moved_row() {
    if cfg!(debug_assertions) {
        println!("skipped: the debug-build oracles allocate per base row; run with --release");
        return;
    }
    let large = allocs_per_change(4096);
    let small = allocs_per_change(512);
    // 64 and 8 rows move per change.
    let per_row = (large - small) / 56.0;
    println!(
        "{large:.0} allocations per change at 4096 rows, {small:.0} at 512: {per_row:.1} per moved row"
    );
    assert!(
        per_row <= MAX_PER_MOVED_ROW,
        "{per_row:.1} allocations per moved row (bound {MAX_PER_MOVED_ROW})"
    );
}
