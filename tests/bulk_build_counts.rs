//! Count guard for the bulk build of a view's materialization.
//!
//! Registering a view builds its instance `π_X(R)` and its complement
//! `π_Y(R)`, each with support counts, from one counted projection of
//! its feed and of the base: the sort that drops duplicate id keys also
//! counts them. Nothing reaches the folds' nets (obs
//! `engine.mat.net_sorted_rows`), where a build through the nets sorted
//! the whole base once per side — 8,192 rows for each view here.
//!
//! Recovery registers the views only after every checkpoint delta of
//! the chain has been applied to the base, so a chain of a full
//! checkpoint and 3 deltas builds each of its 2 views once (obs
//! `engine.mat.rebuilds`): 2 builds, where building at load and again
//! after each delta made 8.
//!
//! It also prints the allocations of each `create_view`, read off a
//! counting allocator, and bounds `mgrs`'s by what the build makes with
//! its complement entries in one flat block of values: 105 here, where
//! one boxed tuple per complement entry made 4,200 (and the build
//! through the nets 4,231).
//!
//! Release builds only: the debug-build oracles recompute the whole base
//! at every commit and would swamp the counts. This file deliberately
//! contains a single `#[test]`: the counting allocator and the obs
//! registry are process-global, and a second test running in parallel
//! would pollute the window between two counter snapshots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use relvu::obs;
use relvu::prelude::*;

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
const ROWS: u64 = 4096;

/// Allocations of `create_view("mgrs")` with flat complement entries:
/// O(columns), not one per distinct `π_Y(R)` tuple.
const MAX_MGRS_ALLOCS: u64 = 105;

/// Delta links in the recovered chain.
const DELTAS: usize = 3;

/// Employee `e` in department `e % 64` under manager `1000 + e % 64`.
fn edm() -> (Schema, Database) {
    let schema = Schema::new(["E", "D", "M0"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M0").unwrap();
    let rows = (0..ROWS).map(|e| {
        let d = e % DEPTS;
        Tuple::new([Value::int(e), Value::int(d), Value::int(1000 + d)])
    });
    let base = Relation::from_rows(schema.universe(), rows).unwrap();
    let db = Database::new(schema.clone(), fds, base).unwrap();
    (schema, db)
}

/// Sorted rows and allocations of one `create_view`.
fn measured(create: impl FnOnce()) -> (u64, u64) {
    let sorted = obs::counter("engine.mat.net_sorted_rows");
    let (rows, count) = (sorted.get(), allocs());
    create();
    (sorted.get() - rows, allocs() - count)
}

#[test]
fn views_build_without_nets_and_once_per_recovery() {
    if cfg!(debug_assertions) {
        println!("skipped: the debug-build oracles allocate per base row; run with --release");
        return;
    }
    if !obs::enabled() {
        return; // counters are no-ops without the obs feature
    }
    let (schema, db) = edm();
    let mgrs = schema.set(["D", "M0"]).unwrap();
    let emp = schema.set(["E", "D"]).unwrap();
    let (mgrs_sorted, mgrs_allocs) =
        measured(|| db.create_view("mgrs", mgrs, None, Policy::Exact).unwrap());
    let (emp_sorted, emp_allocs) = measured(|| {
        db.create_view("emp", emp, Some(mgrs), Policy::Exact)
            .unwrap()
    });
    println!(
        "create_view on {ROWS} rows: mgrs {mgrs_sorted} rows sorted by nets, \
         {mgrs_allocs} allocations; emp {emp_sorted} rows sorted by nets, \
         {emp_allocs} allocations"
    );
    assert_eq!(
        (mgrs_sorted, emp_sorted),
        (0, 0),
        "a view's build must not sort the base through the nets"
    );
    assert!(
        mgrs_allocs <= MAX_MGRS_ALLOCS,
        "create_view(mgrs) made {mgrs_allocs} allocations (bound {MAX_MGRS_ALLOCS})"
    );

    // A full checkpoint at creation, then one manager change and one
    // incremental checkpoint per delta link.
    let opts = WalOptions {
        max_delta_chain: DELTAS,
        ..WalOptions::default()
    };
    let vfs = MemVfs::new();
    let ddb = DurableDatabase::create(vfs.clone(), db, opts).unwrap();
    for d in 0..DELTAS as u64 {
        let (old, new) = (1000 + d, 2000 + d);
        ddb.apply(
            "mgrs",
            UpdateOp::Replace {
                t1: Tuple::new([Value::int(d), Value::int(old)]),
                t2: Tuple::new([Value::int(d), Value::int(new)]),
            },
        )
        .unwrap();
        ddb.checkpoint_incremental().unwrap();
    }
    let live = ddb.reader().snapshot().dump();
    drop(ddb);

    let rebuilds = obs::counter("engine.mat.rebuilds");
    let before = rebuilds.get();
    let (rec, report) = DurableDatabase::recover(vfs.crash_image(), opts).unwrap();
    let built = rebuilds.get() - before;
    println!(
        "recovering a chain of {} files built {built} view materializations",
        report.checkpoint_chain.len()
    );
    assert_eq!(report.checkpoint_chain.len(), DELTAS + 1, "{report:?}");
    assert_eq!(rec.reader().snapshot().dump(), live);
    assert_eq!(built, 2, "each of the 2 views is built once per recovery");
}
