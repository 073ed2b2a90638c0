//! Differential oracle for the interned columnar `Relation` store.
//!
//! The columnar rewrite keeps tuples in an append-order `Vec<Tuple>`
//! (holes filled by `swap_remove`) plus per-attribute interned id
//! columns and a sorted membership index. Every byte of
//! `EngineSnapshot::dump` depends on that storage order, so this file
//! checks the store against a *retained row-oracle* — a plain
//! `Vec<Tuple>` driven through the same push-if-absent / `swap_remove`
//! discipline — with **exact order equality**, not just set equality:
//!
//! 1. random insert/remove/contains streams vs the row-oracle,
//! 2. every `ops` operator vs an order-preserving nested-loop oracle,
//! 3. `Eq`/`Hash`/`Ord` agreement for `Value` and `Tuple` (the sorted
//!    index orders by interned ids, membership compares by value — the
//!    two views of equality must never disagree),
//! 4. dictionary-growth edge cases: empty relations, all-null rows, and
//!    the `u32::MAX`-adjacent id-space guard,
//! 5. an engine-level stream: random schemas/Σ/views, updates, `set_fds`
//!    DDL, dump→load→dump byte identity, and crash-recovery replay.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::prelude::*;
use relvu::prelude::*;
use relvu_relation::{Attr, RelationError};
use relvu_workload::update_gen::{self, BatchMix, ViewUpdate};
use relvu_workload::{instance_gen, schema_gen};

/// The retained row-oracle: first-occurrence append order, removals by
/// `swap_remove` — exactly the storage discipline `Relation` documents
/// (and that `EngineSnapshot::dump` bytes depend on).
#[derive(Default)]
struct RowOracle {
    rows: Vec<Tuple>,
}

impl RowOracle {
    fn insert(&mut self, t: Tuple) -> bool {
        if self.rows.contains(&t) {
            false
        } else {
            self.rows.push(t);
            true
        }
    }

    fn remove(&mut self, t: &Tuple) -> bool {
        match self.rows.iter().position(|r| r == t) {
            Some(i) => {
                self.rows.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// The delta pair rule: the `i`-th removed row is overwritten by the
    /// `i`-th added row where it stands, then the leftover removals are
    /// swap-removed and the leftover additions pushed, in order.
    fn apply_delta(&mut self, removed: &[Tuple], added: &[Tuple]) {
        for (old, new) in removed.iter().zip(added) {
            let i = self
                .rows
                .iter()
                .position(|r| r == old)
                .expect("removed rows are present");
            self.rows[i] = new.clone();
        }
        for old in removed.iter().skip(added.len()) {
            assert!(self.remove(old), "removed rows are present");
        }
        for new in added.iter().skip(removed.len()) {
            assert!(self.insert(new.clone()), "added rows are absent");
        }
    }
}

/// `k` distinct rows of `oracle`, in random order.
fn pick_rows(rng: &mut StdRng, oracle: &RowOracle, k: usize) -> Vec<Tuple> {
    let mut rows = oracle.rows.clone();
    for i in 0..k.min(rows.len()) {
        let j = rng.gen_range(i..rows.len());
        rows.swap(i, j);
    }
    rows.truncate(k);
    rows
}

fn rand_tuple(rng: &mut StdRng, arity: usize, pool: u64, nulls: bool) -> Tuple {
    Tuple::new((0..arity).map(|_| {
        if nulls && rng.gen_bool(0.2) {
            Value::Null(rng.gen_range(0..3))
        } else {
            Value::int(rng.gen_range(0..pool))
        }
    }))
}

/// Build a relation *and* its oracle through the same churned stream, so
/// storage order reflects real insert/remove history rather than sorted
/// construction.
fn churned(rng: &mut StdRng, attrs: AttrSet, n_ops: usize, pool: u64) -> (Relation, RowOracle) {
    let mut r = Relation::new(attrs);
    let mut oracle = RowOracle::default();
    for _ in 0..n_ops {
        let t = rand_tuple(rng, attrs.len(), pool, true);
        if rng.gen_bool(0.7) {
            assert_eq!(r.insert(t.clone()).unwrap(), oracle.insert(t));
        } else {
            assert_eq!(r.remove(&t), oracle.remove(&t));
        }
    }
    (r, oracle)
}

fn rand_attrs(rng: &mut StdRng, within: usize) -> AttrSet {
    let mut x = AttrSet::new();
    while x.is_empty() {
        for i in 0..within {
            if rng.gen_bool(0.5) {
                x.insert(Attr::new(i));
            }
        }
    }
    x
}

proptest! {
    /// Insert/remove/contains streams agree with the row-oracle in
    /// content *and order*, and the structural invariants hold after
    /// every mutation.
    #[test]
    fn store_matches_row_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arity = rng.gen_range(1..4usize);
        let attrs = AttrSet::first_n(arity);
        let pool = rng.gen_range(2..7u64);
        let mut r = Relation::new(attrs);
        let mut oracle = RowOracle::default();
        for _ in 0..40 {
            let t = rand_tuple(&mut rng, arity, pool, true);
            match rng.gen_range(0..3) {
                0 | 1 => {
                    prop_assert_eq!(r.insert(t.clone()).unwrap(), oracle.insert(t));
                }
                _ => {
                    // Bias removals toward resident rows so they hit.
                    let victim = if !oracle.rows.is_empty() && rng.gen_bool(0.7) {
                        oracle.rows[rng.gen_range(0..oracle.rows.len())].clone()
                    } else {
                        t
                    };
                    prop_assert_eq!(r.remove(&victim), oracle.remove(&victim));
                }
            }
            r.debug_validate();
            prop_assert_eq!(r.rows(), oracle.rows.as_slice(), "storage order drift");
            prop_assert_eq!(r.len(), oracle.rows.len());
            prop_assert_eq!(
                r.has_nulls(),
                oracle.rows.iter().any(Tuple::has_null),
                "null-row count drift"
            );
            let probe = rand_tuple(&mut rng, arity, pool, true);
            prop_assert_eq!(r.contains(&probe), oracle.rows.contains(&probe));
        }
        // Bulk construction from the oracle's distinct rows lands on the
        // identical storage order (first occurrence wins).
        let rebuilt = Relation::from_rows(attrs, oracle.rows.iter().cloned()).unwrap();
        rebuilt.debug_validate();
        prop_assert_eq!(rebuilt.rows(), r.rows());
    }

    /// `Relation::apply_delta` lands on the row-oracle's storage order
    /// on random deltas of every shape the pair rule has. The first
    /// column is a key (like `E`), so the sorted index orders rows by it
    /// alone: a pair that rewrites other columns keeps its index
    /// position (a manager change), and a pair that moves the key to a
    /// fresh value — the largest id — moves to the end of the index (an
    /// `ingest_exact` rename). Leftover removals and insertions come on
    /// either side, and a final round pairs arbitrary rows.
    #[test]
    fn pair_rule_matches_row_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arity = rng.gen_range(2..4usize);
        let attrs = AttrSet::first_n(arity);
        let mut next_key = 0u64;
        let mut fresh_key = |rng: &mut StdRng| {
            next_key += rng.gen_range(1..3u64);
            Value::int(next_key)
        };
        let keyed = |key: Value, rng: &mut StdRng| {
            let rest = rand_tuple(rng, arity - 1, 4, true);
            Tuple::new(std::iter::once(key).chain(rest.values()))
        };
        // Churn the storage order before the deltas start.
        let mut r = Relation::new(attrs);
        let mut oracle = RowOracle::default();
        for _ in 0..rng.gen_range(4..24usize) {
            let t = keyed(fresh_key(&mut rng), &mut rng);
            prop_assert_eq!(r.insert(t.clone()).unwrap(), oracle.insert(t));
            if rng.gen_bool(0.3) {
                let victim = pick_rows(&mut rng, &oracle, 1);
                prop_assert_eq!(r.remove(&victim[0]), oracle.remove(&victim[0]));
            }
        }
        let (mut kept, mut moved) = (0, 0);
        for round in 0..8 {
            let n_removed = rng.gen_range(0..oracle.rows.len().min(5) + 1);
            let n_added = rng.gen_range(0..6usize);
            let removed = pick_rows(&mut rng, &oracle, n_removed);
            let added: Vec<Tuple> = (0..n_added)
                .map(|i| match removed.get(i) {
                    // Keep the key, rewrite the other columns.
                    Some(old) if rng.gen_bool(0.5) => {
                        kept += 1;
                        let rest = rand_tuple(&mut rng, arity - 1, 4, true);
                        Tuple::new(std::iter::once(old.at(0)).chain(rest.values()))
                    }
                    // A fresh key: the row moves to the end of the index.
                    Some(old) => {
                        moved += 1;
                        let rest = old.as_slice()[1..].to_vec();
                        Tuple::new(std::iter::once(fresh_key(&mut rng)).chain(rest))
                    }
                    None => keyed(fresh_key(&mut rng), &mut rng),
                })
                .collect();
            // A kept key with unchanged columns is the same row: a pair
            // the rule leaves as it is.
            r.apply_delta(removed.iter(), added.iter()).unwrap();
            oracle.apply_delta(&removed, &added);
            r.debug_validate();
            prop_assert_eq!(r.rows(), oracle.rows.as_slice(), "round {}: storage order drift", round);
            prop_assert_eq!(r.has_nulls(), oracle.rows.iter().any(Tuple::has_null));
        }
        prop_assert!(kept + moved > 0 || oracle.rows.is_empty());
        // Arbitrary pairs over a churned relation without a key.
        let pool = rng.gen_range(3..7u64);
        let (mut r, mut oracle) = churned(&mut rng, attrs, 40, pool);
        for round in 0..6 {
            let n_removed = rng.gen_range(0..4usize);
            let removed = pick_rows(&mut rng, &oracle, n_removed);
            let mut added: Vec<Tuple> = Vec::new();
            for _ in 0..rng.gen_range(0..4usize) {
                let t = rand_tuple(&mut rng, arity, pool, true);
                if !oracle.rows.contains(&t) && !added.contains(&t) {
                    added.push(t);
                }
            }
            r.apply_delta(removed.iter(), added.iter()).unwrap();
            oracle.apply_delta(&removed, &added);
            r.debug_validate();
            prop_assert_eq!(r.rows(), oracle.rows.as_slice(), "arbitrary round {}: storage order drift", round);
            prop_assert_eq!(r.has_nulls(), oracle.rows.iter().any(Tuple::has_null));
        }
    }

    /// Every `ops` operator reproduces an order-preserving nested-loop
    /// oracle exactly — the gallop/merge implementations must emit rows
    /// in the same first-occurrence order the hash-probe versions did.
    #[test]
    fn ops_match_nested_loop_oracles(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r_attrs = rand_attrs(&mut rng, 5);
        let s_attrs = rand_attrs(&mut rng, 5);
        let pool = rng.gen_range(2..5u64);
        let (r, _) = churned(&mut rng, r_attrs, 30, pool);
        let (s, _) = churned(&mut rng, s_attrs, 30, pool);

        // π_X(R): first occurrence of each projection, in row order.
        let x = {
            let mut x = AttrSet::new();
            for a in r_attrs.iter() {
                if rng.gen_bool(0.5) {
                    x.insert(a);
                }
            }
            if x.is_empty() { r_attrs } else { x }
        };
        let mut proj = RowOracle::default();
        for t in r.rows() {
            proj.insert(t.project(&r_attrs, &x));
        }
        let projected = ops::project(&r, x).unwrap();
        prop_assert_eq!(projected.rows(), proj.rows.as_slice());

        // R ⋈ S: outer loop in R's row order, inner in S's row order.
        let shared = r_attrs & s_attrs;
        let mut join = RowOracle::default();
        for tr in r.rows() {
            for ts in s.rows() {
                if tr.agrees(&r_attrs, &ts, &s_attrs, &shared) {
                    join.insert(tr.to_tuple().joined(&r_attrs, &ts, &s_attrs));
                }
            }
        }
        let joined = ops::natural_join(&r, &s).unwrap();
        joined.debug_validate();
        prop_assert_eq!(joined.rows(), join.rows.as_slice(), "join order drift");

        // σ_P(R), R ∪ S, R − S (the latter two need equal schemas).
        let k = Value::int(rng.gen_range(0..pool));
        let sel: Vec<Tuple> = r.iter().filter(|t| t.at(0) <= k).map(|t| t.to_tuple()).collect();
        let selected = ops::select(&r, |t| t.at(0) <= k);
        prop_assert_eq!(selected.rows(), sel.as_slice());

        let (s2, _) = churned(&mut rng, r_attrs, 30, pool);
        let mut uni = RowOracle::default();
        for t in r.rows().iter().chain(s2.rows()) {
            uni.insert(t.to_tuple());
        }
        let united = ops::union(&r, &s2).unwrap();
        prop_assert_eq!(united.rows(), uni.rows.as_slice());

        let diff: Vec<Tuple> = r.iter().filter(|t| !s2.contains(t)).map(|t| t.to_tuple()).collect();
        let subtracted = ops::difference(&r, &s2).unwrap();
        prop_assert_eq!(subtracted.rows(), diff.as_slice());
    }

    /// `Eq`/`Hash`/`Ord` agreement for `Value` and `Tuple`: the columnar
    /// index sorts, the dictionaries hash, and membership compares — all
    /// three must induce the same equality.
    #[test]
    fn value_tuple_eq_hash_ord_agree(seed in 0u64..u64::MAX) {
        fn hash_of<T: Hash>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }
        fn check<T: Eq + Ord + Hash + Clone + std::fmt::Debug>(
            a: &T,
            b: &T,
            c: &T,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(a == b, a.cmp(b) == Ordering::Equal, "{:?} vs {:?}", a, b);
            prop_assert_eq!(a.partial_cmp(b), Some(a.cmp(b)));
            prop_assert_eq!(a.cmp(b), b.cmp(a).reverse(), "antisymmetry");
            if a == b {
                prop_assert_eq!(hash_of(a), hash_of(b), "equal values must hash equally");
            }
            if a.cmp(b) != Ordering::Greater && b.cmp(c) != Ordering::Greater {
                prop_assert!(a.cmp(c) != Ordering::Greater, "transitivity");
            }
            Ok(())
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // Tiny pools force frequent collisions so the `a == b` arm runs.
        let val = |rng: &mut StdRng| -> Value {
            if rng.gen_bool(0.3) {
                Value::Null(rng.gen_range(0..2))
            } else {
                Value::int(rng.gen_range(0..3))
            }
        };
        for _ in 0..32 {
            let (a, b, c) = (val(&mut rng), val(&mut rng), val(&mut rng));
            check(&a, &b, &c)?;
            let arity = rng.gen_range(1..3usize);
            let tup = |rng: &mut StdRng| Tuple::new((0..arity).map(|_| val(rng)));
            let (ta, tb, tc) = (tup(&mut rng), tup(&mut rng), tup(&mut rng));
            check(&ta, &tb, &tc)?;
        }
    }

    /// Engine-level: a random database driven through updates and Σ
    /// replacement dumps to *byte-identical* text across load and
    /// crash-recovery replay — the end-to-end check that columnar
    /// storage order is observationally equal to the old row store.
    #[test]
    fn dump_bytes_stable_under_load_and_recovery(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_attrs = rng.gen_range(3..6usize);
        let (schema, fds) = schema_gen::random_fds(&mut rng, n_attrs, 3, 2);
        let n_rows = rng.gen_range(1..7);
        let base = instance_gen::legal_instance(&mut rng, &schema, &fds, n_rows, 4);
        let db = Database::new(schema.clone(), fds.clone(), base).expect("legal");
        let attrs: Vec<Attr> = schema.attrs().collect();
        let x = rand_attrs(&mut rng, attrs.len());
        let y = minimal_complement(&schema, &fds, x);
        db.create_view("v", x, Some(y), Policy::Exact)
            .expect("complementary");

        for _ in 0..2 {
            let snap = db.snapshot();
            let def = snap.view_def("v").expect("registered");
            let v = snap.view_instance("v").expect("registered");
            if !v.is_empty() {
                let batch = update_gen::update_batch(
                    &mut rng,
                    def.x(),
                    def.x() & def.y(),
                    &v,
                    4,
                    BatchMix::default(),
                    1 << 40,
                );
                for u in batch {
                    let op = match u {
                        ViewUpdate::Insert(t) => UpdateOp::Insert { t },
                        ViewUpdate::Delete(t) => UpdateOp::Delete { t },
                        ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
                    };
                    let _ = db.apply_op("v", op);
                }
            }
            db.set_fds(db.snapshot().fds()).expect("same Σ revalidates");
        }

        // Dump → load → dump must be byte-identical.
        let d1 = db.snapshot().dump();
        let reloaded = Database::load(&d1).expect("dump loads");
        prop_assert_eq!(&d1, &reloaded.snapshot().dump(), "dump/load byte drift (seed {})", seed);

        // Crash-recovery replay lands on the byte-identical dump too.
        let vfs = MemVfs::new();
        let durable = DurableDatabase::create(
            vfs.clone(),
            reloaded,
            WalOptions::default(),
        )
        .expect("create store");
        let v = durable.reader().snapshot().view_instance("v").expect("registered");
        if let Some(t) = v.iter().next().map(|t| t.to_tuple()) {
            let _ = durable.apply("v", UpdateOp::Delete { t });
        }
        let live = durable.reader().dump();
        drop(durable);
        let (recovered, _report) =
            DurableDatabase::recover(vfs, WalOptions::default()).expect("recovers");
        prop_assert_eq!(recovered.reader().dump(), live, "replay byte drift (seed {})", seed);
        recovered.check_invariants().expect("recovered invariants");
    }
}

/// Empty relations: every accessor and operator degrades gracefully when
/// no value was ever interned.
#[test]
fn empty_relation_edge_cases() {
    let attrs = AttrSet::first_n(2);
    let mut r = Relation::new(attrs);
    r.debug_validate();
    assert!(r.is_empty());
    assert!(!r.has_nulls());
    assert!(!r.contains(&relvu_relation::tup![0, 0]));
    assert!(!r.remove(&relvu_relation::tup![0, 0]));
    for a in attrs.iter() {
        assert_eq!(r.dict_len(a), 0);
        assert!(r.col_ids(a).is_empty());
        assert_eq!(r.probe_value(a, Value::int(0)), None);
    }
    let empty2 = Relation::new(attrs);
    assert!(ops::project(&r, AttrSet::first_n(1)).unwrap().is_empty());
    assert!(ops::natural_join(&r, &empty2).unwrap().is_empty());
    assert!(ops::union(&r, &empty2).unwrap().is_empty());
    assert!(ops::difference(&r, &empty2).unwrap().is_empty());
    // Join of empty against nonempty, both sides.
    let s = Relation::from_rows(attrs, [relvu_relation::tup![1, 2]]).unwrap();
    assert!(ops::natural_join(&r, &s).unwrap().is_empty());
    assert!(ops::natural_join(&s, &r).unwrap().is_empty());
}

/// All-null rows: labeled nulls intern like any other value, the
/// null-row counter tracks exactly, and ordering keeps nulls distinct
/// from constants.
#[test]
fn all_null_rows_edge_cases() {
    let attrs = AttrSet::first_n(2);
    let mut r = Relation::new(attrs);
    let n = |i: u64, j: u64| Tuple::new([Value::Null(i), Value::Null(j)]);
    assert!(r.insert(n(0, 1)).unwrap());
    assert!(r.insert(n(1, 0)).unwrap());
    assert!(
        !r.insert(n(0, 1)).unwrap(),
        "null tuples deduplicate by label"
    );
    r.debug_validate();
    assert!(r.has_nulls());
    assert_eq!(r.len(), 2);
    assert_eq!(r.max_null_id(), Some(1));
    // A constant row alongside: nulls and constants never compare equal.
    assert!(r.insert(relvu_relation::tup![0, 1]).unwrap());
    assert_eq!(r.len(), 3);
    assert!(r.remove(&n(0, 1)));
    assert!(r.remove(&n(1, 0)));
    r.debug_validate();
    assert!(!r.has_nulls(), "null counter must reach zero");
    assert_eq!(r.max_null_id(), None);
}

/// The id-space guard: with the dictionary base inflated to just below
/// `u32::MAX`, the store hands out the last usable ids, then reports
/// `DictFull` for the next fresh value — and stays fully usable for
/// already-interned values afterwards.
#[test]
fn dictionary_id_space_guard() {
    let attrs = AttrSet::first_n(1);
    let mut r = Relation::new(attrs);
    // Leave exactly two usable ids below the reserved u32::MAX sentinel.
    r._inflate_dict_id_base(u32::MAX - 2);
    assert!(r.insert(relvu_relation::tup![10]).unwrap());
    assert!(r.insert(relvu_relation::tup![20]).unwrap());
    r.debug_validate();
    assert!(matches!(
        r.insert(relvu_relation::tup![30]),
        Err(RelationError::DictFull)
    ));
    // The failed insert must not have corrupted anything: existing
    // values still probe, remove, and re-insert (their ids are interned).
    r.debug_validate();
    assert_eq!(r.len(), 2);
    assert!(r.contains(&relvu_relation::tup![10]));
    assert!(!r.insert(relvu_relation::tup![20]).unwrap());
    assert!(r.remove(&relvu_relation::tup![20]));
    assert!(r.insert(relvu_relation::tup![20]).unwrap());
    r.debug_validate();
    assert_eq!(r.len(), 2);
    // Still full for fresh values.
    assert!(matches!(
        r.insert(relvu_relation::tup![40]),
        Err(RelationError::DictFull)
    ));
}
