//! Count guard for condition (c)'s pair closure.
//!
//! A manager change on `mgrs = π{D, M0}` (auto complement `{E, D}`,
//! Σ = {E → D, D → M0}) hypothesises `r[E] = μ[E]` for every other
//! department `r`. Cloning the pre-chased `V` and chasing it again for
//! each of those pairs would make one replace cost one chase per
//! department. The pair closure settles each of them from the two rows
//! alone (E → D then equates two distinct departments), so the replace
//! costs the one pre-chase. The guard counts chase runs instead of
//! timing them, so its verdict does not depend on the machine.
//!
//! This lives in its own integration binary because the obs registry is
//! process-global: any other test chasing in the same process would
//! pollute the counters.

use relvu::obs;
use relvu::prelude::*;

const DEPTS: u64 = 64;

#[test]
fn same_department_manager_replace_takes_one_chase() {
    if !obs::enabled() {
        return; // counters are no-ops without the obs feature
    }
    let schema = Schema::new(["E", "D", "M0"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M0").unwrap();
    // Two employees per department; department d is managed by 1000 + d.
    let rows = (0..2 * DEPTS).map(|e| {
        let d = e % DEPTS;
        Tuple::new([Value::int(e), Value::int(d), Value::int(1000 + d)])
    });
    let base = Relation::from_rows(schema.universe(), rows).unwrap();
    let db = Database::new(schema.clone(), fds, base).unwrap();
    let x = schema.set(["D", "M0"]).unwrap();
    db.create_view("mgrs", x, None, Policy::Exact).unwrap();
    assert_eq!(
        db.snapshot().view_def("mgrs").unwrap().y(),
        schema.set(["E", "D"]).unwrap()
    );

    let runs = obs::counter("core.chase.runs");
    let settled = obs::counter("core.chase.pairs_settled");
    let (runs_before, settled_before) = (runs.get(), settled.get());
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
    assert!(
        runs.get() - runs_before <= 1,
        "one replace ran {} chases; the pre-chase alone should do",
        runs.get() - runs_before
    );
    assert_eq!(
        settled.get() - settled_before,
        DEPTS - 1,
        "every other department's hypothesis pair is settled by the pair closure"
    );
}
