//! Regression tests for three engine bugs fixed together with the
//! observability layer, plus coverage for the new `Database::metrics`
//! surface:
//!
//! 1. `create_selection_view` used to validate under one lock, drop it,
//!    and register under another — a writer could slip in between, and a
//!    late validation error could leave a half-registered view.
//! 2. `apply_batch` returned the bare first error, although its docs
//!    promised the failing position; it now wraps it in
//!    `EngineError::BatchFailed { index, .. }`.
//! 3. `dump`/`load` silently dropped `ViewDef::auto_complement`, pinning
//!    auto-derived complements on reload so a later `set_fds` behaved
//!    differently than on the original database.

use std::collections::BTreeSet;

use relvu::deps::FdSet;
use relvu::engine::{Database, EngineError, Policy, SubscribeOptions, Subscription, UpdateOp};
use relvu::prelude::*;
use relvu::relation::{tup, CmpOp, Pred, RelationError, Value};
use relvu::workload::fixtures;

// ── Bug 1: atomic selection-view registration ───────────────────────────

/// Hammer `create_selection_view` against a concurrent writer trying to
/// push an out-of-predicate tuple through the view the instant it
/// appears. Under the old two-lock registration this raced; with the
/// single write-lock critical section, the insert must either see
/// `UnknownView` or a rejection — never success — and σ_¬P (the
/// supplier-2 rows, part of the constant complement) must never change.
#[test]
fn selection_view_creation_is_atomic_under_concurrent_writes() {
    let f = fixtures::supplier_part();
    let s_attr = f.schema.attr("S").unwrap();
    let anti_rows = |db: &Database| -> BTreeSet<Vec<u64>> {
        let full = ops::project(&db.snapshot().base(), f.x).unwrap();
        full.iter()
            .filter(|t| t.get(&f.x, s_attr) != Value::int(1))
            .map(|t| {
                t.values()
                    .map(|v| match v {
                        Value::Const(c) => c,
                        Value::Null(_) => unreachable!("concrete base"),
                    })
                    .collect()
            })
            .collect()
    };
    for _ in 0..64 {
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        let before = anti_rows(&db);
        std::thread::scope(|s| {
            let handle = s.spawn(|| loop {
                // Supplier 2 fails the S = 1 predicate: this insert must
                // never be accepted, however the creation interleaves.
                match db.insert_via("v", tup![2, 103, 4]) {
                    Err(EngineError::UnknownView { .. }) => std::thread::yield_now(),
                    other => break other,
                }
            });
            let pred = Pred::cmp(s_attr, CmpOp::Eq, 1);
            db.create_selection_view("v", f.x, Some(f.y), pred).unwrap();
            let outcome = handle.join().unwrap();
            assert!(
                matches!(outcome, Err(EngineError::Rejected { .. })),
                "out-of-predicate insert must be rejected, got {outcome:?}"
            );
        });
        assert_eq!(anti_rows(&db), before, "σ_¬P changed across the race");
    }
}

/// A selection view whose predicate fails validation (it mentions an
/// attribute outside the projection) must leave nothing behind: no name
/// registered, later updates see `UnknownView`.
#[test]
fn failed_selection_view_creation_registers_nothing() {
    let f = fixtures::supplier_part();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    let city = f.schema.attr("City").unwrap();
    let err = db.create_selection_view("bad", f.x, Some(f.y), Pred::cmp(city, CmpOp::Eq, 70));
    assert!(err.is_err());
    assert!(
        db.snapshot().view_def("bad").is_err(),
        "half-registered view left over"
    );
    assert!(matches!(
        db.insert_via("bad", tup![1, 104, 2]),
        Err(EngineError::UnknownView { .. })
    ));
}

// ── Bug 2: apply_batch reports the failing position ─────────────────────

#[test]
fn apply_batch_reports_failing_index() {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let t = |e: &str, d: &str| Tuple::new([f.dict.sym(e), f.dict.sym(d)]);
    let err = db
        .apply_batch(vec![
            (
                "staff".into(),
                UpdateOp::Insert {
                    t: t("dan", "toys"),
                },
            ),
            (
                "staff".into(),
                UpdateOp::Insert {
                    t: t("eve", "toys"),
                },
            ),
            (
                "staff".into(),
                UpdateOp::Insert {
                    t: t("fay", "games"), // unknown dept: untranslatable
                },
            ),
        ])
        .unwrap_err();
    match err {
        EngineError::BatchFailed { index, ref source } => {
            assert_eq!(index, 2, "the third update is the failing one");
            assert!(matches!(**source, EngineError::Rejected { .. }));
            // The Display chain names the position for operators.
            assert!(err.to_string().contains("update #2"));
        }
        other => panic!("expected BatchFailed, got {other:?}"),
    }
    // And the whole batch rolled back.
    let snap = db.snapshot();
    assert_eq!(snap.base().len(), 3);
    assert_eq!(snap.log().len(), 0);
}

// ── Bug 3: dump/load preserves auto-derived complements ─────────────────

#[test]
fn dump_load_preserves_auto_complement() {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    // No declared complement: the engine derives it (Corollary 2).
    db.create_view("staff", f.x, None, Policy::Exact).unwrap();
    let snap = db.snapshot();
    assert!(snap.view_def("staff").unwrap().auto_complement());

    let text = snap.dump();
    assert!(
        text.contains(" auto "),
        "dump must record the derived complement: {text}"
    );
    let db2 = Database::load(&text).unwrap();
    assert!(
        db2.snapshot().view_def("staff").unwrap().auto_complement(),
        "auto-complement flag lost across dump/load"
    );

    // The observable difference: replacing Σ recomputes an auto-derived
    // complement but must *revalidate* a declared one. Under the empty Σ
    // the dumped complement {Dept, Mgr} is no longer complementary to
    // {Emp, Dept}, so the old (pinning) load made set_fds fail here.
    db.set_fds(FdSet::default()).unwrap();
    db2.set_fds(FdSet::default())
        .expect("reloaded database must recompute the complement like the original");
    assert_eq!(
        db2.snapshot().view_def("staff").unwrap().y(),
        db.snapshot().view_def("staff").unwrap().y(),
        "original and reloaded engines derived different complements"
    );
}

#[test]
fn old_dumps_without_auto_marker_still_load() {
    // A pre-marker dump: the declared complement is pinned, not derived.
    let text = "relvu-dump v1\n\
                schema Emp Dept Mgr\n\
                fd Emp -> Dept\n\
                fd Dept -> Mgr\n\
                row 1 10 100\n\
                view staff exact x Emp Dept y Dept Mgr\n\
                end\n";
    let db = Database::load(text).unwrap();
    let def = db.snapshot().view_def("staff").unwrap();
    assert!(!def.auto_complement());
    let same_schema = Schema::new(["Emp", "Dept", "Mgr"]).unwrap();
    assert_eq!(def.y(), same_schema.set(["Dept", "Mgr"]).unwrap());
}

#[test]
fn duplicate_schema_directive_rejected() {
    let text = "relvu-dump v1\n\
                schema A B\n\
                schema A B C\n\
                end\n";
    match Database::load(text) {
        Err(EngineError::Load { reason }) => assert!(reason.contains("duplicate")),
        Err(other) => panic!("expected Load error, got {other:?}"),
        Ok(_) => panic!("duplicate schema directive accepted"),
    }
}

// ── Metrics surface ─────────────────────────────────────────────────────

#[test]
fn metrics_cover_engine_and_registry() {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let dan = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
    db.insert_via("staff", dan).unwrap();
    let bad = Tuple::new([f.dict.sym("eve"), f.dict.sym("games")]);
    assert!(db.insert_via("staff", bad).is_err());

    let m = db.metrics();
    // Per-view stats are exact: they belong to this database alone.
    let staff = &m.views["staff"];
    assert_eq!(staff.accepted, 1);
    assert_eq!(staff.rejected, 1);
    assert_eq!(staff.rejected_by_reason["intersection_not_in_view"], 1);

    let text = m.render_prometheus();
    assert!(text.contains("relvu_view_accepted_total{view=\"staff\"} 1"));
    assert!(text.contains(
        "relvu_view_rejected_total{view=\"staff\",reason=\"intersection_not_in_view\"} 1"
    ));

    // Registry-backed metrics are process-wide and shared across tests in
    // this binary: assert presence and monotonicity, not exact values —
    // and only when the obs feature is compiled in.
    if relvu::obs::enabled() {
        assert!(m.obs.counter("engine.accepted") >= 1);
        assert!(m.obs.counter("engine.rejected") >= 1);
        let check = m.obs.histogram("engine.check_ns").expect("check timed");
        assert!(check.count >= 2);
        assert!(
            m.obs
                .counters
                .keys()
                .any(|k| k.starts_with("deps.closure.cache.")),
            "closure cache counters missing from snapshot"
        );
    } else {
        assert_eq!(m.obs.counter("engine.accepted"), 0);
    }
}

#[test]
fn metrics_cover_batch_stage_timings() {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let t = |e: &str, d: &str| Tuple::new([f.dict.sym(e), f.dict.sym(d)]);
    let report = db.apply_batch_parallel(
        vec![
            relvu::engine::BatchRequest::new(
                "staff",
                UpdateOp::Insert {
                    t: t("dan", "toys"),
                },
            ),
            relvu::engine::BatchRequest::new(
                "staff",
                UpdateOp::Insert {
                    t: t("eve", "books"),
                },
            ),
        ],
        &relvu::engine::BatchOptions::default(),
    );
    assert!(report.outcomes.iter().all(Result::is_ok));
    if relvu::obs::enabled() {
        let m = db.metrics();
        for stage in [
            "engine.batch.partition_ns",
            "engine.batch.speculate_ns",
            "engine.batch.commit_ns",
        ] {
            let h = m
                .obs
                .histogram(stage)
                .unwrap_or_else(|| panic!("{stage} missing"));
            assert!(h.count >= 1, "{stage} never recorded");
        }
        assert!(m.obs.counter("engine.batch.requests") >= 2);
        assert!(m.obs.histogram("engine.lock.write_hold_ns").is_some());
    }
}

// ── PR 6: the Σ-replacement / drop-ordering hole with dependent views ───

/// Build EDM with a three-level chain: staff (declared complement) →
/// depts → dept_kinds.
fn dag_db() -> Database {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let d = f.schema.attr("Dept").unwrap();
    db.create_view_over("depts", "staff", AttrSet::singleton(d), None, Policy::Exact)
        .unwrap();
    db.create_view_over(
        "dept_kinds",
        "depts",
        AttrSet::singleton(d),
        None,
        Policy::Exact,
    )
    .unwrap();
    db
}

/// Replacing Σ while child views exist must either cascade the mat
/// rebuild through the DAG in topological order (all nodes still match
/// a flat recomputation) or reject wholesale with a trace naming the
/// dependent views — never half-apply. This is the success half.
#[test]
fn set_fds_cascades_rebuild_through_the_dag() {
    let f = fixtures::edm();
    let db = dag_db();
    // Same Σ revalidates every node and forces the topological rebuild.
    db.set_fds(f.fds.clone()).unwrap();
    let snap = db.snapshot();
    for name in ["staff", "depts", "dept_kinds"] {
        let def = snap.view_def(name).unwrap();
        assert_eq!(
            *snap.view_instance(name).unwrap(),
            ops::project(&snap.base(), def.x()).unwrap(),
            "view `{name}` diverged after the set_fds cascade"
        );
    }
    // Parent edges survive the rebuild, and updates still propagate.
    assert_eq!(snap.view_parent("depts").unwrap().as_deref(), Some("staff"));
    let dict = f.dict;
    db.insert_via("staff", Tuple::new([dict.sym("dan"), dict.sym("toys")]))
        .unwrap();
    let d = f.schema.attr("Dept").unwrap();
    let snap = db.snapshot();
    assert_eq!(
        *snap.view_instance("dept_kinds").unwrap(),
        ops::project(&snap.base(), AttrSet::singleton(d)).unwrap()
    );
}

/// The rejection half: a new Σ that invalidates a declared complement
/// on a view with registered dependents must name the blast radius and
/// leave the database untouched.
#[test]
fn set_fds_rejection_names_dependent_views() {
    let db = dag_db();
    let before = db.snapshot().dump();
    // Under an empty Σ the declared {Emp,Dept}/{Dept,Mgr} pair is no
    // longer complementary (no FD makes the join lossless).
    let err = db.set_fds(FdSet::default()).unwrap_err();
    match err {
        EngineError::SetFdsRejected {
            view,
            dependents,
            source,
        } => {
            assert_eq!(view, "staff");
            assert_eq!(dependents, ["depts", "dept_kinds"]);
            assert_eq!(*source, EngineError::NotComplementary);
        }
        other => panic!("expected SetFdsRejected, got {other}"),
    }
    // Nothing changed: same Σ, same views, updates still work.
    assert_eq!(db.snapshot().dump(), before);
    let f = fixtures::edm();
    db.insert_via("staff", Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]))
        .unwrap();
}

/// Dropping a view that other views read must be refused with the
/// transitive dependents in topological order; leaves drop cleanly and
/// free their parents.
#[test]
fn drop_view_refuses_while_dependents_exist() {
    let db = dag_db();
    let err = db.drop_view("staff").unwrap_err();
    match err {
        EngineError::HasDependents { name, dependents } => {
            assert_eq!(name, "staff");
            assert_eq!(dependents, ["depts", "dept_kinds"]);
        }
        other => panic!("expected HasDependents, got {other}"),
    }
    assert!(db.drop_view("depts").is_err(), "depts still has a child");
    db.drop_view("dept_kinds").unwrap();
    db.drop_view("depts").unwrap();
    db.drop_view("staff").unwrap();
    assert!(db.snapshot().view_names().is_empty());
    assert!(matches!(
        db.drop_view("staff"),
        Err(EngineError::UnknownView { .. })
    ));
}

/// Composition rejections carry the paper's reasoning, not a generic
/// error: an empty collapse, a predicate the collapse projects away,
/// and a non-exact policy under an inherited predicate.
#[test]
fn composition_rejections_name_the_failing_rule() {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let m = f.schema.attr("Mgr").unwrap();
    let d = f.schema.attr("Dept").unwrap();
    // X ∩ X′ = ∅: π_{Mgr} over π_{Emp,Dept} collapses to nothing.
    assert!(matches!(
        db.create_view_over("bad", "staff", AttrSet::singleton(m), None, Policy::Exact),
        Err(EngineError::CompositionRejected { .. })
    ));
    // A selection root, then a child whose X drops the predicate attr:
    // σ_P does not commute past the collapsed projection.
    let e = f.schema.attr("Emp").unwrap();
    db.create_selection_view(
        "small_staff",
        f.x,
        Some(f.y),
        Pred::cmp(e, CmpOp::Le, 1_000_000),
    )
    .unwrap();
    assert!(matches!(
        db.create_view_over(
            "bad2",
            "small_staff",
            AttrSet::singleton(d),
            None,
            Policy::Exact
        ),
        Err(EngineError::CompositionRejected { .. })
    ));
    // A composed view under a predicate supports only the exact policy.
    assert!(matches!(
        db.create_view_over("bad3", "small_staff", f.x, None, Policy::Test1),
        Err(EngineError::CompositionRejected { .. })
    ));
    // Unknown parents are their own error, not a composition failure.
    assert!(matches!(
        db.create_view_over("bad4", "ghost", f.x, None, Policy::Exact),
        Err(EngineError::UnknownView { .. })
    ));
    // None of the rejections left a trace.
    assert_eq!(db.snapshot().view_names(), ["small_staff", "staff"]);
}

// ── Bug 4 (PR 7): torn multi-call reads across the write path ───────────

/// `db.base()` then `db.view_instance(v)` used to take the read lock
/// twice — a commit landing between the calls made the pair incoherent
/// (the view reflected an update the base copy did not). A pinned
/// [`relvu::engine::EngineSnapshot`] answers both from one epoch: the
/// invariant `view == π_X(base)` must hold for every snapshot, however
/// hard a concurrent writer hammers, and the seqs a single reader
/// observes must be monotone.
#[test]
fn pinned_snapshot_reads_are_never_torn() {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let dan = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let db = &db;
        let dan = &dan;
        let writer = s.spawn(move || {
            // Toggle a row through the view as fast as commits allow.
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                db.insert_via("staff", dan.clone()).unwrap();
                db.delete_via("staff", dan.clone()).unwrap();
            }
        });
        let mut last_seq = 0;
        for _ in 0..500 {
            let snap = db.snapshot();
            assert!(
                snap.seq() >= last_seq,
                "seq went backwards: {} after {last_seq}",
                snap.seq()
            );
            last_seq = snap.seq();
            // Both sides come from the same epoch, so the projection
            // invariant holds exactly — no tolerance window needed.
            let base = snap.base();
            let staff = snap.view_instance("staff").unwrap();
            assert_eq!(
                *staff,
                ops::project(&base, f.x).unwrap(),
                "snapshot torn at seq {}",
                snap.seq()
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    });
}

// ── Bug 5 (PR 7): deep clones on every read of a quiet view ─────────────

/// Reads used to clone the materialization under the read lock — every
/// `view_instance` of an untouched view paid O(|view|). Published
/// snapshots share structurally: repeated reads of a quiet view return
/// the *same allocation*, even across commits that leave the view's
/// instance unchanged (here: hiring into an existing department never
/// changes `depts = π_Dept`).
#[test]
fn quiet_view_reads_are_pointer_equal() {
    let f = fixtures::edm();
    let db = dag_db();
    // Same snapshot, same view → the same Arc, twice.
    let snap = db.snapshot();
    let a = snap.view_instance("depts").unwrap();
    let b = snap.view_instance("depts").unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&a, &b),
        "one snapshot, two allocations"
    );
    assert!(std::sync::Arc::ptr_eq(&snap.base(), &snap.base()));
    // A commit that leaves `depts` untouched (toys already exists) must
    // not reallocate it: the new epoch shares the old instance.
    db.insert_via("staff", Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]))
        .unwrap();
    let after = db.snapshot();
    let c = after.view_instance("depts").unwrap();
    assert_eq!(*a, *c, "depts content changed unexpectedly");
    assert!(
        std::sync::Arc::ptr_eq(&a, &c),
        "quiet view was recopied across an unrelated commit"
    );
    // The views the commit did touch still read correctly.
    assert_eq!(
        *after.view_instance("staff").unwrap(),
        ops::project(&after.base(), f.x).unwrap()
    );
}

// ── Bug 6: a base holding a labeled null was accepted ───────────────────

/// `Database::new` checked only the attributes and Σ, so a base holding
/// a labeled null was accepted — and the first checkpoint (or `dump()`)
/// then hit the serializer's "legal bases are concrete" invariant and
/// panicked. A legal base is concrete: it is refused up front.
#[test]
fn base_with_labeled_null_is_illegal() {
    use relvu::durability::{DurableDatabase, MemVfs, WalOptions};
    let f = fixtures::edm();
    let mut base = f.base.clone();
    // A new department with an unknown manager: Σ holds, but the base
    // is no longer concrete.
    base.insert(Tuple::new([
        f.dict.sym("zed"),
        f.dict.sym("games"),
        Value::Null(7),
    ]))
    .unwrap();
    assert!(base.has_nulls());
    assert!(relvu::deps::check::satisfies_fds(&base, &f.fds));
    let err = match Database::new(f.schema.clone(), f.fds.clone(), base) {
        Err(e) => e,
        Ok(db) => {
            // The old behaviour: accepted, then the store's first
            // checkpoint panics serializing the null.
            let _ = DurableDatabase::create(MemVfs::new(), db, WalOptions::default());
            panic!("a base with a labeled null was accepted");
        }
    };
    assert_eq!(err, EngineError::IllegalBase);
}

// ── Bug 7: a failed checkpoint-delta replay left its prefix behind ──────

/// `apply_checkpoint_deltas` applied each commit to the writer's base
/// as it went, so when a later commit failed, the rows of the earlier
/// ones stayed — and a retry of the good prefix then failed with
/// "inserts a duplicate base row". A failed replay now leaves the
/// engine unchanged.
#[test]
fn failed_checkpoint_delta_replay_leaves_the_engine_unchanged() {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    // New employees in an existing department, under its manager.
    let in_dept = |emp: &str| {
        let mut vals: Vec<Value> = f.base.iter().next().unwrap().values().collect();
        vals[0] = f.dict.sym(emp);
        Tuple::new(vals)
    };
    let (row_a, absent) = ([in_dept("dan")], [in_dept("zed")]);
    let none: [Tuple; 0] = [];
    let before = db.snapshot();

    let err = db
        .apply_checkpoint_deltas([(1, &none[..], &row_a[..]), (2, &absent[..], &none[..])], 2)
        .unwrap_err();
    assert!(matches!(err, EngineError::Load { .. }), "{err:?}");
    let snap = db.snapshot();
    assert_eq!(snap.seq(), 0);
    assert_eq!(snap.dump(), before.dump());

    db.apply_checkpoint_deltas([(1, &none[..], &row_a[..])], 1)
        .expect("the good prefix replays after the failed attempt");
    let snap = db.snapshot();
    assert_eq!(snap.seq(), 1);
    assert!(snap.base().contains(&row_a[0]));
    assert_eq!(snap.base().len(), before.base().len() + 1);
}

// ── Aborted transactions: log, commit history and CDC ───────────────────

/// A transactional batch whose two accepted updates are followed by a
/// rejection must leave no trace but the rejection: no subscriber event
/// from the prefix, and the log, the commit history and a catch-up
/// subscription all equal those of a twin that never ran the batch.
#[test]
fn aborted_batch_leaves_log_ring_and_streams_like_a_twin() {
    let f = fixtures::edm();
    let t = |e: &str, d: &str| Tuple::new([f.dict.sym(e), f.dict.sym(d)]);
    let ins = |e: &str, d: &str| UpdateOp::Insert { t: t(e, d) };
    let make = || {
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        db.apply_op("staff", ins("dan", "toys")).unwrap();
        db
    };
    let (db, twin) = (make(), make());
    let drain = |sub: &Subscription| std::iter::from_fn(|| sub.try_recv()).collect::<Vec<_>>();
    let ring = |db: &Database| -> Vec<(u64, Vec<Tuple>, Vec<Tuple>)> {
        db.snapshot()
            .base_deltas_since(0)
            .unwrap()
            .iter()
            .map(|c| {
                (
                    c.seq(),
                    c.removed().map(|r| r.to_tuple()).collect(),
                    c.added().map(|r| r.to_tuple()).collect(),
                )
            })
            .collect()
    };
    let catch_up = |db: &Database| {
        let base = db.subscribe_base(SubscribeOptions::from_seq(0)).unwrap();
        let view = db
            .subscribe("staff", SubscribeOptions::from_seq(0))
            .unwrap();
        (drain(&base), drain(&view))
    };
    let base_sub = db.subscribe_base(SubscribeOptions::snapshot()).unwrap();
    let view_sub = db.subscribe("staff", SubscribeOptions::snapshot()).unwrap();

    let err = db
        .apply_batch(vec![
            ("staff".into(), ins("eve", "toys")),
            ("staff".into(), ins("fay", "books")),
            ("staff".into(), ins("gus", "games")), // unknown dept
        ])
        .unwrap_err();
    assert!(matches!(err, EngineError::BatchFailed { index: 2, .. }));
    assert!(drain(&base_sub).is_empty(), "no base event from the prefix");
    assert!(drain(&view_sub).is_empty(), "no view event from the prefix");
    let (snap, twin_snap) = (db.snapshot(), twin.snapshot());
    let last = twin_snap.seq();
    assert_eq!(snap.seq(), last);
    assert_eq!(snap.log(), twin_snap.log());
    assert_eq!(ring(&db), ring(&twin));
    assert_eq!(
        snap.base_deltas_since(0).map(|c| c.len()),
        twin_snap.base_deltas_since(0).map(|c| c.len())
    );
    assert_eq!(catch_up(&db), catch_up(&twin));

    for db in [&db, &twin] {
        db.apply_op("staff", ins("hal", "books")).unwrap();
    }
    let (snap, twin_snap) = (db.snapshot(), twin.snapshot());
    assert_eq!(snap.dump(), twin_snap.dump());
    assert_eq!(snap.log(), twin_snap.log());
    assert_eq!(ring(&db), ring(&twin));
    assert_eq!(catch_up(&db), catch_up(&twin));
    assert_eq!(
        drain(&base_sub).len(),
        1,
        "the next commit streams as usual"
    );
}

// ── Bug 8: replacing by a tuple already in the view ─────────────────────

/// Replacing a view tuple by another one already in `V` is outside
/// Theorem 9 (`t₂ ∉ V`) and is refused as an input error — but it used
/// to be reported as `TupleNotOverView`, "tuple arity does not match the
/// view attributes", although the arity was right. It now has its own
/// error, and the engine state is untouched.
#[test]
fn replace_by_tuple_already_in_view_names_the_cause() {
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let staff = |e: &str, d: &str| Tuple::new([f.dict.sym(e), f.dict.sym(d)]);
    let before = db.snapshot().dump();
    let err = db
        .apply_op(
            "staff",
            UpdateOp::Replace {
                t1: staff("ada", "toys"),
                t2: staff("bob", "toys"),
            },
        )
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::Core(relvu::core::CoreError::TupleAlreadyInView)
    );
    assert_eq!(
        err.to_string(),
        "the replacement tuple is already present in the view instance"
    );
    let snap = db.snapshot();
    assert_eq!(snap.dump(), before);
    assert_eq!(snap.seq(), 0);
}

// ── Bug 9: a full column dictionary mid-commit ──────────────────────────

/// A value that needs a fresh dictionary id when its column's `u32` id
/// space is used up used to panic in the middle of `Database::commit`,
/// after the removals had run; the write guard then reset the engine.
/// The commit now checks dictionary room for every relation it inserts
/// into before its first edit and returns `DictFull`, leaving the
/// published state as it was.
#[test]
fn full_dictionary_refuses_the_commit_before_any_edit() {
    let schema = Schema::new(["E", "D", "M"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
    let mut base = Relation::new(schema.universe());
    base._inflate_dict_id_base(u32::MAX - 8);
    // Department 0 has one employee, department 1 three.
    for e in 0..4u64 {
        let d = u64::from(e > 0);
        base.insert(tup![e, d, 100 + d]).unwrap();
    }
    let db = Database::new(schema.clone(), fds, base).unwrap();
    db.create_view("mgrs", schema.set(["D", "M"]).unwrap(), None, Policy::Exact)
        .unwrap();
    db.create_view("emp", schema.set(["E", "D"]).unwrap(), None, Policy::Exact)
        .unwrap();
    // Column M has 6 ids left, and each change of department 0's
    // manager to a fresh one moves its one row and takes one id.
    let mut manager = 100;
    for fresh in 200..206u64 {
        db.replace_via("mgrs", tup![0, manager], tup![0, fresh])
            .unwrap();
        manager = fresh;
    }
    let before = db.snapshot();
    let err = db
        .replace_via("mgrs", tup![0, manager], tup![0, 206])
        .unwrap_err();
    assert_eq!(err, EngineError::Relation(RelationError::DictFull));
    let after = db.snapshot();
    assert_eq!(after.seq(), before.seq());
    assert_eq!(after.dump(), before.dump());
    // The engine stays usable: a deletion inserts nothing and needs no
    // id.
    db.delete_via("emp", tup![3, 1]).unwrap();
    assert_eq!(db.snapshot().seq(), before.seq() + 1);
}

// ── One history floor: the log, CDC catch-up and checkpoints agree ──────

/// At history floor `t`, the audit log, a resuming subscriber and an
/// incremental checkpoint agree on what is held: everything after `t`,
/// and nothing at or below it.
fn assert_one_floor(db: &Database, t: u64) {
    let snap = db.snapshot();
    let above = snap.log_range(t + 1, usize::MAX);
    assert!(above.is_complete(), "log from {}", t + 1);
    let seqs: Vec<u64> = above.entries.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (t + 1..=snap.seq()).collect::<Vec<_>>());
    assert_eq!(
        snap.log_range(t, usize::MAX).gap,
        Some(relvu::engine::LogGap {
            requested_from: t,
            first_available: t + 1
        })
    );
    assert!(db.subscribe_base(SubscribeOptions::from_seq(t)).is_ok());
    assert!(matches!(
        db.subscribe_base(SubscribeOptions::from_seq(t - 1)),
        Err(EngineError::SubscriptionGap { requested, oldest_resume })
            if requested == t - 1 && oldest_resume == t
    ));
    assert!(snap.base_deltas_since(t).is_some());
    assert!(snap.base_deltas_since(t - 1).is_none());
}

/// A checkpoint prune at `T`: the three consumers share its floor, and
/// an identity insert after it is held in the log but streams no event
/// and writes no delta-checkpoint line.
#[test]
fn checkpoint_prune_sets_one_floor_for_log_cdc_and_checkpoints() {
    use relvu::durability::{delta_checkpoint_name, write_delta_checkpoint, MemVfs};
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let t = |e: &str| Tuple::new([f.dict.sym(e), f.dict.sym("toys")]);
    for e in ["dan", "eve", "fay"] {
        db.insert_via("staff", t(e)).unwrap();
    }
    let floor = 2;
    db.prune_history_below(floor);
    // An identity insert (the tuple is already in the view), then a
    // real one.
    let identity = db.insert_via("staff", t("dan")).unwrap().seq;
    db.insert_via("staff", t("gus")).unwrap();
    assert_one_floor(&db, floor);

    let snap = db.snapshot();
    assert!(
        snap.log().iter().any(|e| e.seq == identity),
        "held in the log"
    );
    let sub = db
        .subscribe("staff", SubscribeOptions::from_seq(floor))
        .unwrap();
    let events: Vec<u64> = std::iter::from_fn(|| sub.try_recv())
        .map(|ev| match ev {
            relvu::engine::SubEvent::Delta(d) => d.seq,
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(events, vec![3, 5], "no event for the identity commit");
    let commits = snap.base_deltas_since(floor).unwrap();
    let vfs = MemVfs::new();
    write_delta_checkpoint(&vfs, snap.seq(), &commits, (floor, 0), 4).unwrap();
    let body = String::from_utf8(vfs.read(&delta_checkpoint_name(snap.seq())).unwrap()).unwrap();
    let lines: Vec<&str> = body.lines().filter(|l| l.starts_with("commit ")).collect();
    assert_eq!(
        lines,
        ["commit 3", "commit 5"],
        "no line for the identity commit"
    );
}

/// A capacity eviction: past 65,536 commits the oldest are evicted, and
/// the three consumers share the raised floor.
#[test]
fn capacity_eviction_sets_one_floor_for_log_cdc_and_checkpoints() {
    const CAP: u64 = 1 << 16;
    let f = fixtures::edm();
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let t = |e: &str| Tuple::new([f.dict.sym(e), f.dict.sym("toys")]);
    let extra = 10;
    // Real commits on both sides of the floor, then identity inserts
    // (cheap in debug builds) up to the cap.
    for i in 0..CAP + extra {
        let op = match i {
            i if i < 2 * extra && i % 2 == 0 => UpdateOp::Insert { t: t("dan") },
            i if i < 2 * extra => UpdateOp::Delete { t: t("dan") },
            _ => UpdateOp::Insert { t: t("ada") },
        };
        db.apply_op("staff", op).unwrap();
    }
    let snap = db.snapshot();
    assert_eq!(snap.seq(), CAP + extra);
    assert_eq!(snap.log().len() as u64, CAP);
    assert_one_floor(&db, extra);
    let held: Vec<u64> = snap
        .base_deltas_since(extra)
        .unwrap()
        .iter()
        .map(|c| c.seq())
        .collect();
    assert_eq!(held, (extra + 1..=2 * extra).collect::<Vec<_>>());
}
