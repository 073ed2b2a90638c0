//! Integration tests for the extension surfaces: selection views through
//! the engine, DIMACS-fed hardness gadgets, Armstrong derivations over
//! engine schemas, and dump/load persistence mid-session.

use relvu::deps::armstrong;
use relvu::engine::{Database, EngineError, Policy, UpdateOp};
use relvu::logic::dimacs;
use relvu::logic::reductions::thm5::Thm5Instance;
use relvu::logic::sat::is_satisfiable;
use relvu::prelude::*;
use relvu::relation::{tup, CmpOp};
use relvu::workload::fixtures;

#[test]
fn selection_view_full_lifecycle() {
    let f = fixtures::supplier_part();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    let s_attr = f.schema.attr("S").unwrap();
    db.create_selection_view(
        "s1_orders",
        f.x,
        Some(f.y),
        relvu::relation::Pred::cmp(s_attr, CmpOp::Eq, 1),
    )
    .unwrap();
    // Visible instance is the σ_P part only.
    assert_eq!(db.snapshot().view_instance("s1_orders").unwrap().len(), 2);
    // Insert, replace, delete through the selection view.
    db.insert_via("s1_orders", tup![1, 102, 7]).unwrap();
    db.replace_via("s1_orders", tup![1, 102, 7], tup![1, 102, 9])
        .unwrap();
    db.delete_via("s1_orders", tup![1, 102, 9]).unwrap();
    let base = db.snapshot().base();
    assert_eq!(*base, f.base, "net effect of the round trip is nil");
    // The anti-component was never touched (supplier 2 rows intact).
    let full = ops::project(&base, f.x).unwrap();
    assert!(full.contains(&tup![2, 100, 9]));
    // A batch mixing selection and failure rolls back.
    let err = db.apply_batch(vec![
        ("s1_orders".into(), UpdateOp::Insert { t: tup![1, 103, 2] }),
        (
            "s1_orders".into(),
            UpdateOp::Insert { t: tup![2, 104, 2] }, // predicate violation
        ),
    ]);
    assert!(matches!(
        err,
        Err(EngineError::BatchFailed { index: 1, ref source })
            if matches!(**source, EngineError::Rejected { .. })
    ));
    assert_eq!(*db.snapshot().base(), f.base);
}

#[test]
fn dimacs_feeds_the_theorem5_gadget() {
    // A standard DIMACS input (with a 4-wide clause that gets chained to
    // 3-CNF) driven through the Theorem 5 reduction end to end.
    let text = "c pipeline test\np cnf 4 3\n1 2 3 4 0\n-1 -2 0\n-3 0\n";
    let g = dimacs::parse(text).unwrap();
    let sat = is_satisfiable(&g);
    let inst = Thm5Instance::generate(&g);
    let out = relvu::core::succinct::test1_succinct(
        &inst.schema,
        &inst.fds,
        inst.view,
        inst.complement,
        &inst.succinct,
        &inst.tuple,
    )
    .unwrap();
    assert_eq!(out.is_translatable(), !sat);
    // Round-trip through the serializer preserves the verdict.
    let g2 = dimacs::parse(&dimacs::to_dimacs(&g)).unwrap();
    assert_eq!(is_satisfiable(&g2), sat);
}

#[test]
fn armstrong_explains_engine_complements() {
    // The complement advisor story: when the engine derives a minimal
    // complement, every FD that justifies it has a checkable derivation.
    let f = fixtures::edm();
    let y = minimal_complement(&f.schema, &f.fds, f.x);
    let shared = f.x & y;
    // Σ ⊨ shared → Y is what condition (b) needs; derive it per attribute.
    for a in y.iter() {
        let target = Fd::new(shared.iter(), [a]);
        let proof =
            armstrong::derive(&f.fds, &target).expect("the complement is functionally determined");
        assert!(proof.validate(&f.fds));
        assert!(!proof.show(&f.schema).is_empty());
    }
}

#[test]
fn dump_load_preserves_update_behavior() {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let dan = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
    db.insert_via("staff", dan.clone()).unwrap();

    let snap = db.snapshot();
    let db2 = Database::load(&snap.dump()).unwrap();
    assert_eq!(db2.snapshot().base(), snap.base());
    // The reloaded engine makes the same decisions.
    let eve_games = Tuple::new([f.dict.sym("eve"), f.dict.sym("games")]);
    assert!(matches!(
        db2.insert_via("staff", eve_games),
        Err(EngineError::Rejected { .. })
    ));
    let eve_books = Tuple::new([f.dict.sym("eve"), f.dict.sym("books")]);
    db2.insert_via("staff", eve_books).unwrap();
    assert_eq!(db2.snapshot().base().len(), snap.base().len() + 1);
}
