//! Regression: a failed transactional [`Database::apply_batch`] rolls
//! back per-view stats, and the process-wide obs registry counters
//! (`engine.accepted` / `engine.rejected`) must agree with the restored
//! stats afterwards — the rolled-back prefix's accepts are compensated,
//! and the failing update's own rejection is counted exactly once.
//!
//! This lives in its own integration binary because the obs registry is
//! process-global: any other test touching the engine in the same
//! process would pollute the counters.

use relvu::obs;
use relvu::prelude::*;
use relvu_workload::fixtures;

fn tup2(f: &fixtures::EdmFixture, e: &str, d: &str) -> Tuple {
    Tuple::new([f.dict.sym(e), f.dict.sym(d)])
}

#[test]
fn registry_counters_agree_with_view_stats_after_rollback() {
    if !obs::enabled() {
        return; // counters are no-ops without the obs feature
    }
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();

    // Seed some singleton history so the global counters are nonzero:
    // one accept, one reject.
    db.insert_via("staff", tup2(&f, "dan", "toys")).unwrap();
    db.insert_via("staff", tup2(&f, "fay", "games"))
        .expect_err("unknown dept must be rejected");

    // A transactional batch whose two-update prefix applies before the
    // third is rejected: everything must roll back.
    let before = db.snapshot();
    let stats_before = before.stats("staff").unwrap();
    let err = db
        .apply_batch(vec![
            (
                "staff".into(),
                UpdateOp::Insert {
                    t: tup2(&f, "eve", "toys"),
                },
            ),
            (
                "staff".into(),
                UpdateOp::Insert {
                    t: tup2(&f, "gus", "books"),
                },
            ),
            (
                "staff".into(),
                UpdateOp::Insert {
                    t: tup2(&f, "ida", "games"),
                },
            ),
        ])
        .expect_err("third update must fail the batch");
    assert!(
        matches!(
            err,
            relvu::engine::EngineError::BatchFailed { index: 2, .. }
        ),
        "unexpected error: {err:?}"
    );

    // The base and the accepted count are back to the pre-batch state;
    // the failing update's rejection is recorded exactly once.
    let after = db.snapshot();
    assert_eq!(after.base(), before.base());
    let stats_after = after.stats("staff").unwrap();
    assert_eq!(stats_after.accepted, stats_before.accepted);
    assert_eq!(stats_after.rejected, stats_before.rejected + 1);

    // The registry-vs-ViewStats agreement the rollback must preserve:
    // global accepted/rejected equal the sums over per-view stats.
    let m = db.metrics();
    let accepted_sum: u64 = m.views.values().map(|s| s.accepted).sum();
    let rejected_sum: u64 = m.views.values().map(|s| s.rejected).sum();
    assert_eq!(
        m.obs.counters.get("engine.accepted").copied(),
        Some(accepted_sum),
        "engine.accepted diverged from the per-view stats after rollback"
    );
    assert_eq!(
        m.obs.counters.get("engine.rejected").copied(),
        Some(rejected_sum),
        "engine.rejected diverged from the per-view stats after rollback"
    );
}
