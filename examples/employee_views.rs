//! Employee directory through the engine: a department-facing view with
//! inserts, deletions and replacements, under all three policies.
//!
//! ```sh
//! cargo run --example employee_views
//! ```

use relvu::engine::{Database, EngineError, Policy};
use relvu::relation::{ops, RelationDisplay, Tuple};
use relvu::workload::fixtures;

fn main() {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).expect("legal base");

    // One view, three policies — all on the same complement {Dept, Mgr}.
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .expect("complementary");
    println!("registered view `staff` = π_{{Emp,Dept}}(R), complement {{Dept,Mgr}}");
    println!("complement is good (Test 2 applies exactly): {:?}", {
        let db2 = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db2.create_view("staff2", f.x, Some(f.y), Policy::Test2)
            .unwrap();
        db2.snapshot()
            .view_def("staff2")
            .unwrap()
            .complement_is_good()
    });

    let show = |label: &str| {
        let v = db.snapshot().view_instance("staff").expect("view exists");
        println!("\n{label}:");
        print!("{}", RelationDisplay::new(&v, &f.schema, Some(&f.dict)));
    };
    show("initial staff view");

    // ── A hiring spree into departments with managers on record.
    for name in ["dora", "emil", "fay"] {
        let t = Tuple::new([f.dict.sym(name), f.dict.sym("books")]);
        db.insert_via("staff", t).expect("translatable");
    }
    show("after hiring dora, emil, fay into books");

    // ── A transfer: replacement under Theorem 9 (case 1 — the shared
    //    Dept changes, so books must keep other staff and toys must exist).
    let emil_books = Tuple::new([f.dict.sym("emil"), f.dict.sym("books")]);
    let emil_toys = Tuple::new([f.dict.sym("emil"), f.dict.sym("toys")]);
    db.replace_via("staff", emil_books, emil_toys)
        .expect("translatable transfer");
    show("after transferring emil to toys");

    // ── Departures: deletions under Theorem 8.
    let fay = Tuple::new([f.dict.sym("fay"), f.dict.sym("books")]);
    db.delete_via("staff", fay).expect("books keeps dora");
    show("after fay left");

    // ── The constant-complement guarantees, visibly:
    let before = ops::project(&f.base, f.y).expect("complement");
    let snap = db.snapshot();
    let after = ops::project(&snap.base(), f.y).expect("complement");
    assert_eq!(before, after);
    println!(
        "\nπ_{{Dept,Mgr}}(R) never changed across {} updates ✓",
        snap.log().len()
    );

    // ── And the rejections the theory prescribes:
    println!("\nrejected updates:");
    let ada_again = Tuple::new([f.dict.sym("ada"), f.dict.sym("books")]);
    match db.insert_via("staff", ada_again) {
        Err(EngineError::Rejected { trace, .. }) => {
            println!("  move ada to books by *insert*: {trace}");
            println!("    (Emp → Dept would break; use replace instead)");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    // Deleting the last employee of a department would lose its manager.
    let cem = Tuple::new([f.dict.sym("cem"), f.dict.sym("books")]);
    let dora = Tuple::new([f.dict.sym("dora"), f.dict.sym("books")]);
    db.delete_via("staff", cem).expect("books keeps dora");
    match db.delete_via("staff", dora) {
        Err(EngineError::Rejected { trace, .. }) => {
            println!("  delete the last books employee: {trace}");
            println!("    (the complement would forget books' manager)");
        }
        other => panic!("expected rejection, got {other:?}"),
    }

    println!("\naudit log:");
    for e in db.snapshot().log() {
        println!(
            "  #{} via `{}`: {:?} ({} → {} rows)",
            e.seq, e.view, e.op, e.rows_before, e.rows_after
        );
    }
}
