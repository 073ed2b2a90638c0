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
//! This lives in its own integration binary because the obs registry is
//! process-global: any other test folding in the same process would
//! pollute the counters.

use relvu::obs;
use relvu::prelude::*;

const DEPTS: u64 = 64;
const PER_DEPT: u64 = 64;

/// `(instance_edits, complement_edits)` of one manager change on a
/// fresh 64 × 64 database with `mgrs` and, when `with_emp`, `emp`.
fn edits_of_one_manager_change(with_emp: bool) -> (u64, u64) {
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
    let before = (instance.get(), complement.get());
    let report = db
        .replace_via(
            "mgrs",
            Tuple::new([Value::int(7), Value::int(1007)]),
            Tuple::new([Value::int(7), Value::int(2007)]),
        )
        .expect("a manager change is translatable");
    assert_eq!(report.rows_after, report.rows_before);
    (instance.get() - before.0, complement.get() - before.1)
}

#[test]
fn manager_change_edits_only_the_keys_it_changes() {
    if !obs::enabled() {
        return; // counters are no-ops without the obs feature
    }
    assert_eq!(
        edits_of_one_manager_change(false),
        (2, 0),
        "mgrs: one tuple leaves and one enters its instance; its complement is constant"
    );
    assert_eq!(
        edits_of_one_manager_change(true),
        (2, 2),
        "emp adds no instance edit (its {{E, D}} tuples stay) and two complement edits"
    );
}
