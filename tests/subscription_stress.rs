//! Subscription streams under load: N subscribers fold their delta
//! streams while a hot writer commits, DDL happens mid-run, and the
//! store crashes and recovers.
//!
//! The contract being checked, per the CDC issue:
//!
//! 1. **Byte-identical folds** — for every subscriber, folding its
//!    event stream into its origin instance reproduces the subscribed
//!    relation *exactly* (row order included, not just set equality) at
//!    every event's seq, and the final fold equals the final instance —
//!    no missing tail.
//! 2. **Atomic cut-over** — catch-up replay via
//!    `SubscribeFrom::Seq(s)` plus live tailing covers `(s, ∞)` with no
//!    seam: no duplicated and no lost commit at the registration point.
//! 3. **Explicit lag** — an overflowed subscriber receives
//!    `Lagged { missed_from_seq }` naming exactly the first missed
//!    commit, after its still-valid queued events drain; never a silent
//!    gap.
//! 4. **Recovery** — subscriptions don't survive a crash, but
//!    resubscribing at the recovered seq is gapless, and resuming below
//!    what the engine still covers is a reported `SubscriptionGap`,
//!    never a silent skip.
//!
//! Fan-out width scales via `RELVU_STRESS_SUBS` and run length via
//! `RELVU_STRESS_SUB_UPDATES` (the nightly CI job raises the former to
//! 256), mirroring `mvcc_read_stress`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use relvu::durability::{DurableDatabase, MemVfs, SyncPolicy, WalOptions};
use relvu::engine::EngineError;
use relvu::prelude::*;
use relvu::relation::{CmpOp, Pred, Tuple};
use relvu::workload::fixtures::{self, EdmFixture};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn n_updates() -> usize {
    env_usize("RELVU_STRESS_SUB_UPDATES", 160)
}

/// The subscribed relation's rows in row order — the byte-identical
/// comparison key. `Relation`'s own `==` is set equality; subscriptions
/// promise the stronger contract, so compare ordered row vectors.
fn rows_of(rel: &Relation) -> Vec<Tuple> {
    rel.rows().to_vec()
}

/// Fold one delta the way the engine advances instances: each
/// delete/insert pair rewritten in the delete's slot, then the leftover
/// deletes swap-removed and the leftover inserts appended, in recorded
/// order.
fn fold(rel: &mut Relation, d: &ViewDelta) {
    rel.apply_delta(d.deletes(), d.inserts())
        .expect("a subscribed delta folds into the subscriber's copy");
}

/// The writer-side oracle: after each ack the writer pins a snapshot
/// (single writer, so its seq is exactly the ack's) and records every
/// subscribed relation's rows. Keyed by seq, then by target name
/// (`"<base>"` for the base relation).
type Expected = BTreeMap<u64, BTreeMap<String, Vec<Tuple>>>;

const BASE: &str = "<base>";

fn record_expected(db: &Database, seq: u64, expected: &Mutex<Expected>) {
    let snap = db.snapshot();
    assert_eq!(snap.seq(), seq, "single writer: snapshot is the ack point");
    let mut m = BTreeMap::new();
    m.insert(BASE.to_string(), rows_of(&snap.base()));
    for name in snap.view_names() {
        let inst = snap.view_instance(&name).unwrap();
        m.insert(name, rows_of(&inst));
    }
    expected.lock().unwrap().insert(seq, m);
}

fn toys_pred(f: &EdmFixture) -> Pred {
    let Value::Const(toys) = f.dict.sym("toys") else {
        panic!("symbols intern to consts");
    };
    Pred::cmp(f.schema.attr("Dept").unwrap(), CmpOp::Eq, toys)
}

/// Build the stress engine: a base-rooted view, a selection view (whose
/// stream must be the σ_P side of the full instance delta), a DAG child
/// (whose stream is its own folded instance delta), and a doomed view
/// for the mid-run drop.
fn stress_db(f: &EdmFixture) -> Database {
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    db.create_selection_view("toys_staff", f.x, Some(f.y), toys_pred(f))
        .unwrap();
    db.create_view_over(
        "emps",
        "staff",
        f.schema.set(["Emp"]).unwrap(),
        None,
        Policy::Exact,
    )
    .unwrap();
    db.create_view("doomed", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    db
}

/// One subscriber's transcript: the fold state after every event it
/// received, plus how the stream ended.
struct FoldTrace {
    target: &'static str,
    folds: Vec<(u64, Vec<Tuple>)>,
    final_rows: Vec<Tuple>,
    dropped: bool,
    lagged: bool,
}

/// Consume a subscription to exhaustion: fold every delta, recording
/// the state after each event; stop once the stream turns terminal or
/// the writer is done and the queue has drained.
fn consume(sub: Subscription, target: &'static str, done: &AtomicBool) -> FoldTrace {
    let mut rel = (**sub.origin_rows().expect("snapshot-origin subscriber")).clone();
    let mut folds = Vec::new();
    let mut dropped = false;
    let mut lagged = false;
    loop {
        let ev = match sub.try_recv() {
            Some(ev) => ev,
            // `done` is set only after the writer joined, so an empty
            // queue then is truly final — nothing can still arrive.
            None if done.load(Ordering::Acquire) => break,
            None => match sub.recv_timeout(Duration::from_millis(20)) {
                Some(ev) => ev,
                None => continue,
            },
        };
        match ev {
            SubEvent::Delta(d) => {
                fold(&mut rel, &d);
                folds.push((d.seq, rows_of(&rel)));
            }
            SubEvent::Dropped => {
                dropped = true;
                break;
            }
            SubEvent::Lagged { .. } => {
                lagged = true;
                break;
            }
        }
    }
    FoldTrace {
        target,
        folds,
        final_rows: rows_of(&rel),
        dropped,
        lagged,
    }
}

/// Snapshot-origin subscribers round-robin over these targets.
const TARGETS: [&str; 4] = [BASE, "staff", "toys_staff", "emps"];

fn stress_round(n_subs: usize, updates: usize) {
    let f = fixtures::edm();
    let db = stress_db(&f);
    let expected = Mutex::new(Expected::new());
    // Seqs committed mid-batch: the writer can only snapshot at the
    // batch end, so folds at these seqs have no oracle entry — they are
    // validated transitively by the next recorded fold.
    let mid_batch = Mutex::new(BTreeSet::new());
    let done = AtomicBool::new(false);
    // Seq 0: the seed state every snapshot-origin subscriber starts at.
    record_expected(&db, 0, &expected);

    let opts = SubscribeOptions::snapshot().with_capacity(updates.max(16) * 2);

    let (traces, doomed_trace, late_result, final_seq) = std::thread::scope(|s| {
        let db = &db;
        let f = &f;
        let expected = &expected;
        let mid_batch = &mid_batch;
        let done = &done;

        // Register every subscriber before the first commit, so each
        // stream starts at seq 0 with the seed instance as its origin.
        let mut consumers = Vec::new();
        for i in 0..n_subs {
            let target = TARGETS[i % TARGETS.len()];
            let sub = match target {
                BASE => db.subscribe_base(opts).unwrap(),
                name => db.subscribe(name, opts).unwrap(),
            };
            assert_eq!(sub.origin_seq(), 0);
            consumers.push(s.spawn(move || consume(sub, target, done)));
        }
        let doomed_sub = db.subscribe("doomed", opts).unwrap();
        let doomed_consumer = s.spawn(move || consume(doomed_sub, "doomed", done));

        // The hot writer: unique hires into existing departments
        // (always translatable — the complement π_{Dept,Mgr} is
        // untouched while the seed staff keep both departments alive),
        // every third hire later fired again (exercising removals and
        // the swap-remove row-order mechanics), a transactional batch
        // every 16 updates (events must land atomically, in batch
        // order), and DDL mid-run: `doomed` dropped at 1/3, `late`
        // created at 1/2.
        let writer = s.spawn(move || {
            let depts = ["toys", "books"];
            for i in 0..updates {
                let name = format!("w{i}");
                let t = Tuple::new([f.dict.sym(&name), f.dict.sym(depts[i % 2])]);
                if i % 16 == 15 {
                    let t2 = Tuple::new([f.dict.sym(&format!("b{i}")), f.dict.sym("toys")]);
                    let reports = db
                        .apply_batch(vec![
                            ("staff".into(), UpdateOp::Insert { t }),
                            ("staff".into(), UpdateOp::Insert { t: t2 }),
                        ])
                        .unwrap();
                    let last = reports.last().unwrap().seq;
                    let mut mb = mid_batch.lock().unwrap();
                    for r in &reports {
                        if r.seq != last {
                            mb.insert(r.seq);
                        }
                    }
                    drop(mb);
                    record_expected(db, last, expected);
                } else {
                    let r = db.insert_via("staff", t).unwrap();
                    record_expected(db, r.seq, expected);
                }
                if i % 3 == 2 && i > 4 {
                    let victim = format!("w{}", i - 2);
                    let t = Tuple::new([f.dict.sym(&victim), f.dict.sym(depts[(i - 2) % 2])]);
                    let r = db.delete_via("staff", t).unwrap();
                    record_expected(db, r.seq, expected);
                }
                if i == updates / 3 {
                    db.drop_view("doomed").unwrap();
                }
                if i == updates / 2 {
                    db.create_view(
                        "late",
                        f.schema.set(["Emp", "Dept"]).unwrap(),
                        Some(f.y),
                        Policy::Exact,
                    )
                    .unwrap();
                }
            }
            db.snapshot().seq()
        });

        // A late subscriber on the mid-run view: it polls until the
        // view exists, then subscribes at whatever seq it lands on.
        let late_consumer = s.spawn(move || loop {
            match db.subscribe("late", opts) {
                Ok(sub) => break (sub.origin_seq(), consume(sub, "late", done)),
                Err(EngineError::UnknownView { .. }) => {
                    if done.load(Ordering::Acquire) {
                        panic!("`late` was never registered");
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("subscribe(late): {e}"),
            }
        });

        let final_seq = writer.join().unwrap();
        done.store(true, Ordering::Release);
        let traces: Vec<FoldTrace> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
        (
            traces,
            doomed_consumer.join().unwrap(),
            late_consumer.join().unwrap(),
            final_seq,
        )
    });

    let expected = expected.into_inner().unwrap();
    let mid_batch = mid_batch.into_inner().unwrap();
    assert_eq!(
        expected.len(),
        (final_seq as usize + 1) - mid_batch.len(),
        "every ack recorded (plus seq 0, minus mid-batch seqs)"
    );

    let verify = |trace: &FoldTrace| {
        assert!(
            !trace.lagged,
            "{}: capacity was ample, must not lag",
            trace.target
        );
        let mut last_seq = 0;
        for (seq, rows) in &trace.folds {
            assert!(*seq > last_seq, "{}: events in seq order", trace.target);
            last_seq = *seq;
            let Some(row_map) = expected.get(seq) else {
                assert!(
                    mid_batch.contains(seq),
                    "{}: event at unknown seq {seq}",
                    trace.target
                );
                continue;
            };
            assert_eq!(
                rows, &row_map[trace.target],
                "{}: fold at seq {seq} must be byte-identical to the instance",
                trace.target
            );
        }
        if !trace.dropped {
            assert_eq!(
                &trace.final_rows, &expected[&final_seq][trace.target],
                "{}: final fold equals the final instance (no lost tail)",
                trace.target
            );
        }
    };

    for trace in &traces {
        verify(trace);
        assert!(!trace.dropped, "{} is never dropped", trace.target);
    }

    // The doomed subscriber saw its pre-drop events (validated like any
    // other fold) and then an explicit `Dropped` — never a silent end.
    verify(&doomed_trace);
    assert!(
        doomed_trace.dropped,
        "doomed subscriber is told about the drop"
    );

    // The late subscriber's folds start strictly after its origin and
    // match the oracle like everyone else's.
    let (late_origin, late_trace) = late_result;
    assert!(late_origin >= 1, "late subscribed after commits started");
    verify(&late_trace);
    if let Some((first, _)) = late_trace.folds.first() {
        assert!(*first > late_origin, "no events at or before the origin");
    }

    // Catch-up cut-over, after the fact: resume from sampled seqs with
    // the oracle's instance as the claimed state; the replayed deltas
    // of `(s, final]` must land exactly on the final instance.
    for s in (0..final_seq).step_by(10) {
        let Some(row_map) = expected.get(&s) else {
            continue; // mid-batch seq: no oracle state to start from
        };
        let sub = db
            .subscribe("staff", SubscribeOptions::from_seq(s))
            .unwrap();
        let mut rel = Relation::from_rows(f.x, row_map["staff"].iter().cloned()).unwrap();
        while let Some(ev) = sub.try_recv() {
            match ev {
                SubEvent::Delta(d) => fold(&mut rel, &d),
                other => panic!("catch-up stream at {s}: unexpected {other:?}"),
            }
        }
        assert_eq!(
            rows_of(&rel),
            expected[&final_seq]["staff"],
            "resume at {s}: catch-up fold must reach the final instance"
        );
    }
}

#[test]
fn subscription_fanout_1() {
    stress_round(env_usize("RELVU_STRESS_SUBS", 1), n_updates());
}

#[test]
fn subscription_fanout_16() {
    stress_round(env_usize("RELVU_STRESS_SUBS", 16), n_updates());
}

/// Backpressure: a tiny queue that is never drained must end in
/// `Lagged` naming exactly the first missed commit — the still-valid
/// queued events first, the marker after them, and the marker sticky.
#[test]
fn lagged_subscriber_is_told_not_silently_gapped() {
    let f = fixtures::edm();
    let db = stress_db(&f);
    let sub = db
        .subscribe("staff", SubscribeOptions::snapshot().with_capacity(2))
        .unwrap();
    for i in 0..5 {
        let t = Tuple::new([f.dict.sym(&format!("l{i}")), f.dict.sym("toys")]);
        db.insert_via("staff", t).unwrap();
    }
    // Seqs 1 and 2 queued; seq 3 was the first overflow.
    for want in [1u64, 2] {
        match sub.try_recv() {
            Some(SubEvent::Delta(d)) => assert_eq!(d.seq, want),
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(
        sub.try_recv(),
        Some(SubEvent::Lagged { missed_from_seq: 3 })
    );
    assert_eq!(
        sub.try_recv(),
        Some(SubEvent::Lagged { missed_from_seq: 3 }),
        "terminal and sticky"
    );
    // Recovery from lag is an explicit resubscribe, which replays the
    // missed commits rather than skipping them.
    let resumed = db
        .subscribe("staff", SubscribeOptions::from_seq(2))
        .unwrap();
    let seqs: Vec<u64> = std::iter::from_fn(|| match resumed.try_recv() {
        Some(SubEvent::Delta(d)) => Some(d.seq),
        _ => None,
    })
    .collect();
    assert_eq!(seqs, vec![3, 4, 5], "missed commits replayed, in order");
}

/// Ahead-of-engine and below-coverage resumes are typed errors, not
/// silent clamps.
#[test]
fn resume_errors_are_explicit() {
    let f = fixtures::edm();
    let db = stress_db(&f);
    for i in 0..3 {
        let t = Tuple::new([f.dict.sym(&format!("r{i}")), f.dict.sym("toys")]);
        db.insert_via("staff", t).unwrap();
    }
    assert!(matches!(
        db.subscribe("staff", SubscribeOptions::from_seq(9)),
        Err(EngineError::SubscriptionAhead {
            requested: 9,
            current: 3
        })
    ));
    db.prune_history_below(2); // what a checkpoint at seq 2 does
    assert!(matches!(
        db.subscribe("staff", SubscribeOptions::from_seq(1)),
        Err(EngineError::SubscriptionGap {
            requested: 1,
            oldest_resume: 2
        })
    ));
    // The boundary itself is still covered — the same `(from, to]`
    // convention the checkpointer prunes by (the history contract).
    let sub = db
        .subscribe("staff", SubscribeOptions::from_seq(2))
        .unwrap();
    assert_eq!(sub.queue_depth(), 1, "exactly commit 3 replays");
}

/// Crash, recover, resubscribe: the stream picks up gaplessly at the
/// recovered seq, folds keep tracking the instance across the
/// boundary, and pre-checkpoint resumes fail loudly.
#[test]
fn subscription_across_crash_and_recovery() {
    let f = fixtures::edm();
    let wal = WalOptions {
        sync: SyncPolicy::Always,
        ..WalOptions::default()
    };
    let vfs = MemVfs::new();
    let engine = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
    engine
        .create_view("staff", f.x, Some(f.y), Policy::Exact)
        .unwrap();
    let ddb = DurableDatabase::create(vfs.clone(), engine, wal).unwrap();

    let sub = ddb
        .subscribe("staff", SubscribeOptions::snapshot())
        .unwrap();
    let mut rel = (**sub.origin_rows().unwrap()).clone();
    let mut fold_at = BTreeMap::new();
    for i in 0..12 {
        let t = Tuple::new([f.dict.sym(&format!("c{i}")), f.dict.sym("toys")]);
        ddb.apply("staff", UpdateOp::Insert { t }).unwrap();
    }
    while let Some(ev) = sub.try_recv() {
        match ev {
            SubEvent::Delta(d) => {
                fold(&mut rel, &d);
                fold_at.insert(d.seq, rows_of(&rel));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(fold_at.len(), 12, "SyncPolicy::Always: every ack streamed");
    assert_eq!(
        rows_of(&rel),
        rows_of(&ddb.reader().snapshot().view_instance("staff").unwrap()),
        "pre-crash fold matches the live instance"
    );

    // Crash. The old subscription dies with the old engine; under
    // `Always` every streamed event is durable, so the recovered seq is
    // exactly where the fold stands.
    let image = vfs.crash_image();
    drop(ddb);
    let (recovered, _report) = DurableDatabase::recover(image, wal).unwrap();
    let seq = recovered.reader().last_seq();
    assert_eq!(seq, 12);

    // Gapless resume at the recovered seq: empty catch-up, then live.
    let resumed = recovered
        .subscribe("staff", SubscribeOptions::from_seq(seq))
        .unwrap();
    assert_eq!(resumed.queue_depth(), 0);

    // Resume *below* the recovered seq: WAL replay re-recorded every
    // commit, so a mid-history fold catches up to the recovered
    // instance (set equality here — recovery may rebuild row order).
    let mid = 6u64;
    let staff_attrs = recovered
        .reader()
        .snapshot()
        .view_instance("staff")
        .unwrap()
        .attrs();
    let mut mid_rel = Relation::from_rows(staff_attrs, fold_at[&mid].iter().cloned()).unwrap();
    let mid_sub = recovered
        .subscribe("staff", SubscribeOptions::from_seq(mid))
        .unwrap();
    while let Some(SubEvent::Delta(d)) = mid_sub.try_recv() {
        fold(&mut mid_rel, &d);
    }
    assert_eq!(
        mid_rel,
        *recovered
            .reader()
            .snapshot()
            .view_instance("staff")
            .unwrap(),
        "mid-history resume catches up to the recovered instance"
    );

    // More commits post-recovery flow through the resumed stream with
    // contiguous seqs, and the cross-crash fold tracks the instance.
    for i in 0..4 {
        let t = Tuple::new([f.dict.sym(&format!("p{i}")), f.dict.sym("books")]);
        recovered.apply("staff", UpdateOp::Insert { t }).unwrap();
    }
    let mut post = 0;
    while let Some(ev) = resumed.try_recv() {
        match ev {
            SubEvent::Delta(d) => {
                assert_eq!(d.seq, seq + post + 1, "contiguous post-recovery seqs");
                fold(&mut rel, &d);
                post += 1;
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(post, 4);
    assert_eq!(
        rel,
        *recovered
            .reader()
            .snapshot()
            .view_instance("staff")
            .unwrap(),
        "fold across the crash boundary tracks the live instance"
    );

    // A checkpoint prunes history; resuming below it is a reported gap.
    let ckpt_seq = recovered.checkpoint().unwrap();
    assert_eq!(ckpt_seq, seq + 4);
    match recovered.subscribe("staff", SubscribeOptions::from_seq(2)) {
        Err(e) => assert!(
            e.to_string().contains("no longer held"),
            "expected a subscription gap, got: {e}"
        ),
        Ok(_) => panic!("pre-checkpoint resume must be refused"),
    }
}
