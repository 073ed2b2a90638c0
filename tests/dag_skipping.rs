#![cfg(feature = "obs")]
//! Topological delta scheduling does **zero work** on untouched
//! subtrees: when a commit's delta never reaches a node's ancestor, the
//! node is skipped outright — counted by `engine.dag.nodes_skipped` —
//! rather than folded with an empty delta. A skipped node's out-delta is
//! empty by construction, so an entire subtree below a quiet ancestor
//! skips as a unit.
//!
//! One `#[test]` on purpose: the obs counters are process-wide, and a
//! single test keeps the deltas attributable.

use relvu::prelude::*;
use relvu_workload::schema_gen;

fn skipped() -> u64 {
    relvu_obs::counter!("engine.dag.nodes_skipped").get()
}

fn folded() -> u64 {
    relvu_obs::counter!("engine.dag.nodes_folded").get()
}

#[test]
fn untouched_subtrees_are_skipped_not_folded() {
    // E → D → M0; view chain over the complement side:
    //   staff = π{E,D}(R)            (root, complement {D,M0})
    //   mgrs  = π{D,M0}(R)           (root, auto complement)
    //   depts = π{D}(mgrs)           (child)
    //   kinds = π{D}(depts)          (grandchild)
    let b = schema_gen::edm_family(1);
    let d = b.schema.attr("D").expect("D");
    let m = b.schema.attr("M0").expect("M0");
    let mut base = Relation::new(b.schema.universe());
    for row in [[1u64, 10, 1000], [2, 10, 1000], [3, 20, 2000]] {
        base.insert(Tuple::new(row.map(Value::int))).unwrap();
    }
    let db = Database::new(b.schema.clone(), b.fds.clone(), base).unwrap();
    db.create_view("staff", b.x, Some(b.y), Policy::Exact)
        .unwrap();
    let dm: AttrSet = [d, m].into_iter().collect();
    db.create_view("mgrs", dm, None, Policy::Exact).unwrap();
    db.create_view_over("depts", "mgrs", AttrSet::singleton(d), None, Policy::Exact)
        .unwrap();
    db.create_view_over("kinds", "depts", AttrSet::singleton(d), None, Policy::Exact)
        .unwrap();

    // An update through `staff` holds π{D,M0}(R) constant (it *is* the
    // complement), so `mgrs` folds to an empty out-delta and the whole
    // depts→kinds subtree below it must skip: 2 folds, 2 skips.
    let (f0, s0) = (folded(), skipped());
    db.insert_via("staff", Tuple::new([Value::int(4), Value::int(10)]))
        .unwrap();
    assert_eq!(folded() - f0, 2, "staff and mgrs fold");
    assert_eq!(skipped() - s0, 2, "depts and kinds skip as a subtree");

    // Same shape for a delete that leaves dept 10 populated.
    let (f1, s1) = (folded(), skipped());
    db.delete_via("staff", Tuple::new([Value::int(1), Value::int(10)]))
        .unwrap();
    assert_eq!(folded() - f1, 2);
    assert_eq!(skipped() - s1, 2);

    // A manager change through `mgrs` reaches `depts` (its in-delta is
    // mgrs' instance delta, which is nonempty) — but π{D} is unchanged,
    // so `kinds` still skips: per-level granularity, not all-or-nothing.
    let (f2, s2) = (folded(), skipped());
    db.replace_via(
        "mgrs",
        Tuple::new([Value::int(10), Value::int(1000)]),
        Tuple::new([Value::int(10), Value::int(777)]),
    )
    .unwrap();
    assert_eq!(folded() - f2, 3, "staff, mgrs and depts fold");
    assert_eq!(skipped() - s2, 1, "only kinds skips");

    // A rejected update commits nothing and schedules nothing.
    let (f3, s3) = (folded(), skipped());
    assert!(db
        .insert_via("staff", Tuple::new([Value::int(9), Value::int(99)]))
        .is_err());
    assert_eq!(folded() - f3, 0);
    assert_eq!(skipped() - s3, 0);

    // Zero work really meant zero change: the skipped nodes still match
    // a flat recomputation.
    let snap = db.snapshot();
    let fresh = ops::project(&snap.base(), AttrSet::singleton(d)).unwrap();
    assert_eq!(*snap.view_instance("depts").unwrap(), fresh);
    assert_eq!(*snap.view_instance("kinds").unwrap(), fresh);
}
