//! Count guard for condition (c)'s pair closure and its skipped
//! pre-chase.
//!
//! A manager change on `mgrs = π{D, M0}` (auto complement `{E, D}`,
//! Σ = {E → D, D → M0}) hypothesises `r[E] = μ[E]` for every other
//! department `r`. Cloning the pre-chased `V` and chasing it again for
//! each of those pairs would make one replace cost one chase per
//! department. The pair closure settles each of them from the two rows
//! alone (E → D then equates two distinct departments). No FD of Σ maps
//! `X = {D, M0}` into `Y − X = {E}`, so the pre-chase itself provably
//! makes no equation and is skipped: the replace runs no chase at all.
//! On the staff view `emp = π{E, D}` (complement `{D, M0}`), D → M0 maps
//! `X` into `Y − X`, so an insert there still pays its one pre-chase.
//! The guard counts chase runs instead of timing them, so its verdict
//! does not depend on the machine.
//!
//! This lives in its own integration binary because the obs registry is
//! process-global: any other test chasing in the same process would
//! pollute the counters. The two tests share one lock for the same
//! reason.

use std::sync::Mutex;

use relvu::obs;
use relvu::prelude::*;

const DEPTS: u64 = 64;

static SERIAL: Mutex<()> = Mutex::new(());

/// `E → D → M0`, two employees per department; department d is managed
/// by 1000 + d.
fn database() -> (Schema, Database) {
    let schema = Schema::new(["E", "D", "M0"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M0").unwrap();
    let rows = (0..2 * DEPTS).map(|e| {
        let d = e % DEPTS;
        Tuple::new([Value::int(e), Value::int(d), Value::int(1000 + d)])
    });
    let base = Relation::from_rows(schema.universe(), rows).unwrap();
    (schema.clone(), Database::new(schema, fds, base).unwrap())
}

/// `(chase runs, skipped pre-chases, settled pairs)` so far.
fn counts() -> (u64, u64, u64) {
    (
        obs::counter("core.chase.runs").get(),
        obs::counter("core.chase.prechase_skipped").get(),
        obs::counter("core.chase.pairs_settled").get(),
    )
}

#[test]
fn same_department_manager_replace_takes_no_chase() {
    if !obs::enabled() {
        return; // counters are no-ops without the obs feature
    }
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (schema, db) = database();
    let x = schema.set(["D", "M0"]).unwrap();
    db.create_view("mgrs", x, None, Policy::Exact).unwrap();
    assert_eq!(
        db.snapshot().view_def("mgrs").unwrap().y(),
        schema.set(["E", "D"]).unwrap()
    );

    let (runs, skipped, settled) = counts();
    let report = db
        .replace_via(
            "mgrs",
            Tuple::new([Value::int(7), Value::int(1007)]),
            Tuple::new([Value::int(7), Value::int(2007)]),
        )
        .expect("a same-department manager change is translatable");
    assert!(matches!(
        report.translation,
        Translation::ReplaceJoin { .. }
    ));
    let after = counts();
    assert_eq!(
        after.0 - runs,
        0,
        "one replace ran {} chases; with no FD from X into Y − X it needs none",
        after.0 - runs
    );
    assert_eq!(after.1 - skipped, 1, "the replace skips its pre-chase");
    assert_eq!(
        after.2 - settled,
        DEPTS - 1,
        "every other department's hypothesis pair is settled by the pair closure"
    );
}

#[test]
fn staff_insert_keeps_its_one_prechase() {
    if !obs::enabled() {
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (schema, db) = database();
    let x = schema.set(["E", "D"]).unwrap();
    let y = schema.set(["D", "M0"]).unwrap();
    db.create_view("emp", x, Some(y), Policy::Exact).unwrap();

    let (runs, skipped, _) = counts();
    let report = db
        .insert_via("emp", Tuple::new([Value::int(2 * DEPTS), Value::int(7)]))
        .expect("a hire into an existing department is translatable");
    assert!(matches!(report.translation, Translation::InsertJoin { .. }));
    let after = counts();
    assert_eq!(
        after.0 - runs,
        1,
        "D → M0 maps X into Y − X, so the insert runs exactly its pre-chase"
    );
    assert_eq!(after.1 - skipped, 0, "the insert skips no pre-chase");
}
