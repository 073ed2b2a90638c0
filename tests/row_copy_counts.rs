//! Guard that each row is stored once: a relation keeps only its
//! interned id columns, and a commit's delta keeps its rows in one
//! block of values, storing the columns each side's rows share once.
//!
//! Four figures, all read off a counting allocator, so none depends on
//! the machine:
//!
//! * the allocations one `Relation::clone` makes on a 4,096-row,
//!   3-column relation — O(arity), where one allocation per row meant
//!   4,108;
//! * the live bytes that relation holds per row (148 B requested when
//!   every row was also a boxed tuple);
//! * the live bytes a commit's base delta holds per moved row, for
//!   manager changes over 64 departments, measured at two base sizes so
//!   the per-commit constant cancels. Each side's rows share `D` and
//!   `M`, and the added side's `E` values are the removed side's, so a
//!   moved row costs half an `E` value: 8 B. A flat row of three values
//!   is 48 B; a boxed tuple plus its slot in a tuple array is 64 B;
//! * the live bytes of a one-row base delta (an insert or a delete
//!   through `π{E, D}`), header included: storing a lone row's values
//!   once must cost no more than the flat row did (136 B).
//!
//! Release builds only: the debug-build oracles recompute the whole base
//! at every commit and would swamp the counts. This file deliberately
//! contains a single `#[test]`: the counting allocator is
//! process-global, and a second test running in parallel would pollute
//! the window between two counter snapshots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use relvu::engine::{Database, Policy, SubEvent, SubscribeOptions, ViewDelta};
use relvu::prelude::*;
use relvu::relation::tup;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

const ROWS: u64 = 4096;

const DEPTS: u64 = 64;

/// Manager changes measured at each base size.
const CHANGES: u64 = 256;

/// Allowed allocations of one clone, per column.
const MAX_CLONE_ALLOCS_PER_COLUMN: u64 = 4;

/// Live bytes per row when every row was also a boxed tuple, and the
/// share of them the columnar layout must save.
const BOXED_BYTES_PER_ROW: f64 = 148.0;
const MIN_SAVING: f64 = 0.40;

/// One value of 16 B: what a moved row may cost, where a flat delta row
/// of three values cost 48 B.
const MAX_DELTA_BYTES_PER_ROW: f64 = 16.0;

/// Live bytes of a one-row delta with flat rows: the `Arc`'d header
/// (80 B), one row of three values (48 B) and the test's own pointer to
/// it (8 B).
const MAX_ONE_ROW_DELTA_BYTES: f64 = 136.0;

/// `E → D → M`: employee `e` in department `e % 64` under manager
/// `1_000_000 + e % 64`.
fn edm(rows: u64) -> (Schema, Relation) {
    let schema = Schema::new(["E", "D", "M"]).unwrap();
    let base = Relation::from_rows(
        schema.universe(),
        (0..rows).map(|e| tup![e, e % DEPTS, 1_000_000 + e % DEPTS]),
    )
    .unwrap();
    (schema, base)
}

/// Live bytes the base deltas of [`CHANGES`] updates through the view
/// over `view` hold once everything else is dropped: a base subscriber
/// keeps every event, the database goes, then the events are measured
/// by dropping them too. `update(db, i)` makes the `i`-th update.
fn delta_bytes(rows: u64, view: [&str; 2], mut update: impl FnMut(&Database, u64)) -> i64 {
    let (schema, base) = edm(rows);
    let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
    let db = Database::new(schema.clone(), fds, base).unwrap();
    db.create_view("v", schema.set(view).unwrap(), None, Policy::Exact)
        .unwrap();
    let sub = db.subscribe_base(SubscribeOptions::snapshot()).unwrap();
    let mut kept: Vec<Arc<ViewDelta>> = Vec::with_capacity(CHANGES as usize);
    for i in 0..CHANGES {
        update(&db, i);
        while let Some(ev) = sub.try_recv() {
            match ev {
                SubEvent::Delta(delta) => kept.push(delta),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
    assert_eq!(kept.len(), CHANGES as usize);
    drop(sub);
    drop(db);
    let before = live();
    drop(kept);
    before - live()
}

#[test]
fn rows_are_stored_once_in_relations_and_deltas() {
    if cfg!(debug_assertions) {
        println!("skipped: the debug-build oracles allocate per base row; run with --release");
        return;
    }
    let before = live();
    let (_, base) = edm(ROWS);
    let per_row = (live() - before) as f64 / ROWS as f64;
    let start = allocs();
    let copy = base.clone();
    let clone_allocs = allocs() - start;
    assert_eq!(copy.len(), base.len());
    drop(copy);

    let large = delta_bytes(ROWS, ["D", "M"], manager_changes());
    let small = delta_bytes(ROWS / 8, ["D", "M"], manager_changes());
    // 64 and 8 rows move per change, each removed once and added once.
    let per_moved_row = (large - small) as f64 / (CHANGES as f64 * 2.0 * 56.0);
    // Employee `ROWS + i / 2` joins department `i / 2 % 64`, then leaves.
    let one_row = delta_bytes(ROWS, ["E", "D"], |db, i| {
        let t = tup![ROWS + i / 2, i / 2 % DEPTS];
        if i % 2 == 0 {
            db.insert_via("v", t).unwrap();
        } else {
            db.delete_via("v", t).unwrap();
        }
    }) as f64
        / CHANGES as f64;
    println!(
        "clone: {clone_allocs} allocations; relation: {per_row:.1} B per row; \
         base delta: {per_moved_row:.1} B per moved row, {one_row:.1} B per one-row delta"
    );
    assert!(
        clone_allocs <= MAX_CLONE_ALLOCS_PER_COLUMN * 3,
        "a clone of a 3-column relation made {clone_allocs} allocations"
    );
    assert!(
        per_row <= BOXED_BYTES_PER_ROW * (1.0 - MIN_SAVING),
        "{per_row:.1} B per row (bound {:.1})",
        BOXED_BYTES_PER_ROW * (1.0 - MIN_SAVING)
    );
    assert!(
        per_moved_row <= MAX_DELTA_BYTES_PER_ROW,
        "{per_moved_row:.1} B per moved delta row (bound {MAX_DELTA_BYTES_PER_ROW})"
    );
    assert!(
        one_row <= MAX_ONE_ROW_DELTA_BYTES,
        "{one_row:.1} B per one-row delta (bound {MAX_ONE_ROW_DELTA_BYTES})"
    );
}

/// The `i`-th manager change through `π{D, M}`: department `i % 64`
/// gets manager `2_000_000 + i`.
fn manager_changes() -> impl FnMut(&Database, u64) {
    let mut managers: Vec<u64> = (0..DEPTS).map(|d| 1_000_000 + d).collect();
    move |db, i| {
        let d = i % DEPTS;
        let fresh = 2_000_000 + i;
        db.replace_via("v", tup![d, managers[d as usize]], tup![d, fresh])
            .unwrap();
        managers[d as usize] = fresh;
    }
}
