//! One edit rule for every copy of a relation.
//!
//! A commit's `(removed, added)` lists reach a relation through
//! `Relation::apply_delta`: the `i`-th removed row and the `i`-th added
//! row are a pair, rewritten in the removed row's slot; the leftover
//! removals are then swap-removed and the leftover additions appended.
//! The writer edits its base, view instances and σ_P split parts by that
//! rule, and so must everything that rebuilds a relation from the lists:
//! snapshot replay, every subscriber's `fold_into`, WAL replay (which
//! re-runs the writer) and checkpoint-delta replay. A disagreement
//! leaves the same set in another row order, so every comparison here
//! is of rows in order or of dump bytes.
//!
//! The script mixes the three shapes a pair can take:
//!
//! * a manager change on `mgrs = π{D, M}` — Theorem 9's case 2
//!   (`t1[X∩Y] = t2[X∩Y]`): each of the department's rows keeps its
//!   slot and its place in the sorted index, and only `M` changes;
//! * an employee rename on `emp = π{E, D}` — case 2 again, but `E` is
//!   the index's first column, so the rewritten row moves in the index;
//! * an employee transfer — case 1 (`D` changes), one row paired with
//!   a row of another complement run;
//!
//! plus a hire and a departure, whose rows are leftovers.

use relvu::durability::{DurableDatabase, MemVfs, WalOptions};
use relvu::engine::{Database, EngineError, Policy, SubEvent, Subscription, UpdateOp};
use relvu::prelude::*;
use relvu::relation::{tup, CmpOp, Pred};

const DEPTS: u64 = 4;
const PER_DEPT: u64 = 6;

fn schema() -> Schema {
    Schema::new(["E", "D", "M"]).unwrap()
}

/// `E → D → M`, employee `e` in department `e % 4` under manager
/// `100 + d`.
fn database() -> Database {
    let s = schema();
    let fds = FdSet::parse(&s, "E -> D; D -> M").unwrap();
    let rows = (0..DEPTS * PER_DEPT).map(|e| tup![e, e % DEPTS, 100 + e % DEPTS]);
    let base = Relation::from_rows(s.universe(), rows).unwrap();
    Database::new(s, fds, base).unwrap()
}

/// Room for a delta checkpoint after every op of the script.
fn opts() -> WalOptions {
    WalOptions {
        max_delta_chain: 64,
        ..WalOptions::default()
    }
}

/// The store with `mgrs`, `emp` (complement `{D, M}`) and the selection
/// view `emp_lo = σ_{D<2}(π{E, D})`, whose σ_P split parts the folds
/// edit too.
fn store() -> (DurableDatabase<MemVfs>, MemVfs) {
    let s = schema();
    let vfs = MemVfs::new();
    let ddb = DurableDatabase::create(vfs.clone(), database(), opts()).unwrap();
    let mgrs = s.set(["D", "M"]).unwrap();
    let emp = s.set(["E", "D"]).unwrap();
    ddb.create_view("mgrs", mgrs, None, Policy::Exact).unwrap();
    ddb.create_view("emp", emp, Some(mgrs), Policy::Exact)
        .unwrap();
    let d = s.attr("D").unwrap();
    ddb.create_selection_view("emp_lo", emp, Some(mgrs), Pred::cmp(d, CmpOp::Lt, 2))
        .unwrap();
    (ddb, vfs)
}

fn replace(t1: Tuple, t2: Tuple) -> UpdateOp {
    UpdateOp::Replace { t1, t2 }
}

/// The script: `(view, op)` in order.
fn script() -> Vec<(&'static str, UpdateOp)> {
    vec![
        // Case 2 on `mgrs`: department 0's six rows keep their slots.
        ("mgrs", replace(tup![0, 100], tup![0, 200])),
        // Case 2 on `emp`: employee 5 becomes 50, whose fresh `E`
        // sorts last in the index.
        ("emp", replace(tup![5, 1], tup![50, 1])),
        // Case 1: employee 2 moves from department 2 to 3.
        ("emp", replace(tup![2, 2], tup![2, 3])),
        // Leftovers: a hire appends, a departure swap-removes.
        ("emp", UpdateOp::Insert { t: tup![60, 0] }),
        ("emp", UpdateOp::Delete { t: tup![3, 3] }),
        // Case 1 out of σ_P: employee 4 leaves department 0 for 2.
        ("emp", replace(tup![4, 0], tup![4, 2])),
        // Case 2 on `mgrs` again, over the moved rows.
        ("mgrs", replace(tup![1, 101], tup![1, 300])),
        ("mgrs", replace(tup![0, 200], tup![0, 201])),
        // Case 2 on `emp`: 50 takes the departed 3's name, whose old
        // id sorts it from the end of the index back near the front.
        ("emp", replace(tup![50, 1], tup![3, 1])),
    ]
}

/// A subscriber's copy of its relation, folded from the origin.
struct Mirror {
    view: Option<&'static str>,
    sub: Subscription,
    rows: Relation,
}

impl Mirror {
    fn new(ddb: &DurableDatabase<MemVfs>, view: Option<&'static str>) -> Self {
        let opts = SubscribeOptions::snapshot();
        let sub = match view {
            Some(v) => ddb.subscribe(v, opts),
            None => ddb.subscribe_base(opts),
        }
        .unwrap();
        let rows = (**sub.origin_rows().unwrap()).clone();
        Mirror { view, sub, rows }
    }

    /// Fold every queued delta and compare with the snapshot's rows.
    fn catch_up(&mut self, ddb: &DurableDatabase<MemVfs>, step: usize) {
        while let Some(ev) = self.sub.try_recv() {
            match ev {
                SubEvent::Delta(d) => d.fold_into(&mut self.rows),
                other => panic!("step {step}: unexpected {other:?}"),
            }
        }
        let snap = ddb.reader().snapshot();
        let want = match self.view {
            Some(v) => snap.view_instance(v).unwrap(),
            None => snap.base(),
        };
        assert_eq!(
            self.rows.rows(),
            want.rows(),
            "step {step}: the {:?} subscriber's fold and the snapshot differ in row order",
            self.view
        );
    }
}

/// Run the script with subscribers; with `chain`, take an incremental
/// checkpoint after every op. Returns the store, its vfs and the live
/// dump.
fn run(chain: bool) -> (DurableDatabase<MemVfs>, MemVfs, String) {
    let (ddb, vfs) = store();
    let mut mirrors: Vec<Mirror> = [None, Some("mgrs"), Some("emp"), Some("emp_lo")]
        .into_iter()
        .map(|v| Mirror::new(&ddb, v))
        .collect();
    for (step, (view, op)) in script().into_iter().enumerate() {
        ddb.apply(view, op)
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        for m in &mut mirrors {
            m.catch_up(&ddb, step);
        }
        if chain {
            ddb.checkpoint_incremental().unwrap();
        }
    }
    let dump = ddb.reader().dump();
    (ddb, vfs, dump)
}

#[test]
fn wal_replay_reproduces_the_live_dump() {
    let (_ddb, vfs, live) = run(false);
    let (rec, report) = DurableDatabase::recover(vfs.crash_image(), opts()).unwrap();
    assert_eq!(report.records_replayed, script().len() as u64);
    assert_eq!(rec.reader().dump(), live, "WAL replay");
}

#[test]
fn checkpoint_delta_chain_reproduces_the_live_dump() {
    let (ddb, vfs, live) = run(true);
    let (_, deltas) = ddb.checkpoint_chain();
    assert!(deltas > 1, "the chain holds {deltas} deltas");
    let (rec, report) = DurableDatabase::recover(vfs.crash_image(), opts()).unwrap();
    assert_eq!(report.records_replayed, 0, "everything came from the chain");
    assert_eq!(report.checkpoint_chain.len(), deltas + 1);
    assert_eq!(rec.reader().dump(), live, "checkpoint-delta replay");
}

#[test]
fn a_manager_change_keeps_every_slot_and_a_rename_keeps_its_slot() {
    let (ddb, _vfs) = store();
    let base = || ddb.reader().snapshot().base().rows().to_vec();
    let before = base();
    for (view, op) in script().into_iter().take(2) {
        ddb.apply(view, op).unwrap();
    }
    let after = base();
    assert_eq!(before.len(), after.len());
    for (slot, (old, new)) in before.iter().zip(&after).enumerate() {
        let want = match (old.at(0), old.at(1)) {
            (e, d) if d == Value::int(0) => Tuple::new([e, d, Value::int(200)]),
            (e, d) if e == Value::int(5) => Tuple::new([Value::int(50), d, old.at(2)]),
            _ => old.clone(),
        };
        assert_eq!(*new, want, "slot {slot}");
    }
}

#[test]
fn checkpoint_replay_refuses_an_absent_old_row_and_a_present_new_row() {
    fn refused(reason: &str, r: Result<(), EngineError>) {
        match r {
            Err(EngineError::Load { reason: got }) => assert!(got.contains(reason), "{got}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
    let absent = |r| refused("removes an absent base row", r);
    let present = |r| refused("inserts a duplicate base row", r);
    let db = database();
    let dump = db.reader().dump();
    // Pairs: the old row of the first is not in the base; the new row
    // of the second is already there (employee 1's row).
    let (old, new) = ([tup![99, 0, 100]], [tup![99, 0, 200]]);
    absent(db.apply_checkpoint_deltas([(1, &old[..], &new[..])], 1));
    let (old, new) = ([tup![0, 0, 100]], [tup![1, 1, 101]]);
    present(db.apply_checkpoint_deltas([(1, &old[..], &new[..])], 1));
    // The same refusals past a first pair that applied.
    let old = [tup![0, 0, 100], tup![4, 0, 100]];
    let new = [tup![0, 0, 200], tup![8, 0, 100]];
    present(db.apply_checkpoint_deltas([(1, &old[..], &new[..])], 1));
    assert_eq!(db.reader().dump(), dump, "a refused replay changes nothing");
    // A well-formed pair (employee 0 renamed 99) applies in place.
    let (old, new) = ([tup![0, 0, 100]], [tup![99, 0, 100]]);
    db.apply_checkpoint_deltas([(1, &old[..], &new[..])], 1)
        .unwrap();
    let rows = db.reader().snapshot().base().rows().to_vec();
    assert_eq!(rows[0], tup![99, 0, 100], "the pair kept slot 0");
}
