//! Count guard for the netted view-maintenance fold.
//!
//! A manager change on `mgrs = π{D, M0}` (auto complement `{E, D}`,
//! Σ = {E → D, D → M0}) moves all 64 base rows of one department. None
//! of their `{E, D}` projections changes, so neither `mgrs`'s
//! complement nor the instance of `emp = π{E, D}` (complement
//! `{D, M0}`) may be edited: only the one `{D, M0}` tuple leaves and
//! its successor enters, in `mgrs`'s instance and in `emp`'s
//! complement. A fold that applied the delta row by row would remove
//! and re-insert all 64 `{E, D}` tuples on both sides. The guard counts
//! array edits instead of timing them, so its verdict does not depend
//! on the machine.
//!
//! The replace also reaches the base and the nets as pairs: the `i`-th
//! removed row `t1 * e_i` and the `i`-th added row `t2 * e_i` share
//! their `π{E, D}`. So each pair is rewritten in its own base slot, the
//! two nets over `{E, D}` drop every pair unsorted, and the two nets
//! over `{D, M0}` merge each list's one run of equal keys before the
//! sort (`engine.mat.net_sorted_rows`).
//!
//! This lives in its own integration binary because the obs registry is
//! process-global: any other test folding in the same process would
//! pollute the counters, and the tests here take turns for that reason.

use std::sync::Mutex;

use relvu::obs;
use relvu::prelude::*;

/// Held while a test reads the counters, so the tests of this binary do
/// not count each other's folds.
static COUNTERS: Mutex<()> = Mutex::new(());

const DEPTS: u64 = 64;
const PER_DEPT: u64 = 64;

/// What one manager change on a fresh 64 × 64 database did.
struct ManagerChange {
    instance_edits: u64,
    complement_edits: u64,
    /// Rows that reached a sort in the folds' nets.
    net_sorted_rows: u64,
    /// The base rows before and after, in storage order.
    before: Vec<Tuple>,
    after: Vec<Tuple>,
}

/// One manager change (department 7: manager 1007 → 2007) on a fresh
/// 64 × 64 database with `mgrs` and, when `with_emp`, `emp`.
fn one_manager_change(with_emp: bool) -> ManagerChange {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let schema = Schema::new(["E", "D", "M0"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M0").unwrap();
    // Department d is managed by 1000 + d.
    let rows = (0..DEPTS * PER_DEPT).map(|e| {
        let d = e % DEPTS;
        Tuple::new([Value::int(e), Value::int(d), Value::int(1000 + d)])
    });
    let base = Relation::from_rows(schema.universe(), rows).unwrap();
    let db = Database::new(schema.clone(), fds, base).unwrap();
    let mgrs = schema.set(["D", "M0"]).unwrap();
    db.create_view("mgrs", mgrs, None, Policy::Exact).unwrap();
    if with_emp {
        let emp = schema.set(["E", "D"]).unwrap();
        db.create_view("emp", emp, Some(mgrs), Policy::Exact)
            .unwrap();
    }

    let instance = obs::counter("engine.mat.instance_edits");
    let complement = obs::counter("engine.mat.complement_edits");
    let sorted = obs::counter("engine.mat.net_sorted_rows");
    let counts = || (instance.get(), complement.get(), sorted.get());
    let before_rows = db.snapshot().base().rows().to_vec();
    let before = counts();
    let report = db
        .replace_via(
            "mgrs",
            Tuple::new([Value::int(7), Value::int(1007)]),
            Tuple::new([Value::int(7), Value::int(2007)]),
        )
        .expect("a manager change is translatable");
    assert_eq!(report.rows_after, report.rows_before);
    let after = counts();
    ManagerChange {
        instance_edits: after.0 - before.0,
        complement_edits: after.1 - before.1,
        net_sorted_rows: after.2 - before.2,
        before: before_rows,
        after: db.snapshot().base().rows().to_vec(),
    }
}

#[test]
fn manager_change_edits_only_the_keys_it_changes() {
    if !obs::enabled() {
        return; // counters are no-ops without the obs feature
    }
    let mgrs = one_manager_change(false);
    assert_eq!(
        (mgrs.instance_edits, mgrs.complement_edits),
        (2, 0),
        "mgrs: one tuple leaves and one enters its instance; its complement is constant"
    );
    let both = one_manager_change(true);
    assert_eq!(
        (both.instance_edits, both.complement_edits),
        (2, 2),
        "emp adds no instance edit (its {{E, D}} tuples stay) and two complement edits"
    );
}

#[test]
fn manager_change_sorts_only_the_projections_that_change() {
    if !obs::enabled() {
        return;
    }
    // Four nets see the 64 pairs (t1 * e, t2 * e): `mgrs`'s complement
    // and `emp`'s instance project onto {E, D}, where every pair is
    // equal, and cancel before any sort; `mgrs`'s instance and `emp`'s
    // complement project onto {D, M0}, where every pair differs, but
    // the 64 removed rows are one run of the key (7, 1007) and the 64
    // added rows one run of (7, 2007), so each net sorts 2 entries.
    // Sorting every row of the 128 that differ gave 256, and netting
    // without the pairs 512.
    let change = one_manager_change(true);
    println!(
        "rows entering a net's sort per manager change: {}",
        change.net_sorted_rows
    );
    assert_eq!(change.net_sorted_rows, 4);
}

#[test]
fn manager_change_rewrites_each_row_in_its_slot() {
    // Theorem 9's case 2 keeps π_Y = {E, D}: each of department 7's rows
    // keeps its slot, its E and its D, and only its M0 changes. Removing
    // all 64 rows and appending their successors would move every one
    // of them (and the rows swapped into their slots).
    let change = one_manager_change(false);
    assert_eq!(change.before.len(), change.after.len());
    let (mut kept, mut rewritten) = (0, 0);
    for (slot, (old, new)) in change.before.iter().zip(&change.after).enumerate() {
        let want = match old.at(1) == Value::int(7) {
            true => {
                rewritten += 1;
                Tuple::new([old.at(0), old.at(1), Value::int(2007)])
            }
            false => {
                kept += 1;
                old.clone()
            }
        };
        assert_eq!(*new, want, "slot {slot}");
    }
    println!("slots rewritten in place: {rewritten}, untouched: {kept}");
    assert_eq!((rewritten, kept), (PER_DEPT, (DEPTS - 1) * PER_DEPT));
}
