//! Differential oracle for condition (c) of Theorems 3 and 9.
//!
//! `translate_insert` and `translate_replace` settle most hypothesis
//! pairs `(r, f)` with the pair closure on the two rows `{r, μ}` and run
//! the full chase only for the rest. The oracle here is a test-local copy
//! of the loop that clones the pre-chased `V` and chases it again for
//! every pair. Over random Σ on 4–6 attributes (with left-hand sides
//! crossing `Y − X`), random `X`/`Y` covering `U`, and random `V`, `t`,
//! `t₁`, the two must return the same `Result` — verdict, reject reason,
//! and a `ChaseCounterexample`'s FD index, row and relation — and the
//! insert verdict must also agree with `translate_insert_naive`.
//!
//! One case in four is drawn for the skipped pre-chase instead: no FD
//! maps `X` into `Y − X`, Σ has an FD embedded in `X` that `V` mostly
//! satisfies, and `t` shares `t₁`'s `X ∩ Y`, so the replace is a
//! Theorem 9 case-2 replace that reaches condition (c) without chasing
//! the filled `V`.
//!
//! The case count follows `PROPTEST_CASES`. The tests of this binary
//! take one lock, so that `generator_reaches_every_outcome` can read the
//! process-global obs counters around each call.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use rand::prelude::*;
use relvu::chase::ChaseState;
use relvu::core::{translate_insert_naive, CoreError};
use relvu::deps::check::satisfies_fds;
use relvu::deps::closure;
use relvu::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// One generated case: geometry, Σ, the view instance and the tuples.
#[derive(Debug)]
struct Case {
    schema: Schema,
    fds: FdSet,
    x: AttrSet,
    y: AttrSet,
    v: Relation,
    /// Inserted tuple (and replacement target `t₂`).
    t: Tuple,
    /// Replaced tuple, a row of `V` (absent when `V` is empty).
    t1: Option<Tuple>,
}

fn random_subset(rng: &mut StdRng, of: AttrSet) -> AttrSet {
    of.iter().filter(|_| rng.gen_bool(0.5)).collect()
}

fn random_tuple(rng: &mut StdRng, x: AttrSet, domain: u64) -> Tuple {
    x.iter()
        .map(|_| Value::int(rng.gen_range(0..domain)))
        .collect()
}

/// `t` with its `X ∩ Y` part copied from `from`, so condition (a) holds.
fn with_shared(x: AttrSet, shared: AttrSet, t: &Tuple, from: &Tuple) -> Tuple {
    Tuple::from_pairs(
        &x,
        x.iter().map(|a| {
            let src = if shared.contains(a) { from } else { t };
            (a, src.get(&x, a))
        }),
    )
    .expect("covers x")
}

/// A schema of 4–6 attributes and views `X`, `Y` covering it: one
/// attribute is in `X` only, another in `Y` only, and each of the rest
/// lands in `X` only, `Y` only, or both.
fn geometry(rng: &mut StdRng) -> (Schema, AttrSet, AttrSet) {
    let n = rng.gen_range(4..7usize);
    let names: Vec<String> = (0..n).map(|i| format!("A{i}")).collect();
    let schema = Schema::new(names.iter().map(String::as_str)).unwrap();
    let only_x = rng.gen_range(0..n);
    let only_y = (only_x + rng.gen_range(1..n)) % n;
    let (mut x, mut y) = (AttrSet::new(), AttrSet::new());
    for (i, a) in schema.universe().iter().enumerate() {
        let side = match i {
            _ if i == only_x => 0,
            _ if i == only_y => 1,
            _ => rng.gen_range(0..4),
        };
        if side != 1 {
            x.insert(a);
        }
        if side != 0 {
            y.insert(a);
        }
    }
    (schema, x, y)
}

/// Is `seed` drawn for the skipped pre-chase? Decided from the seed
/// alone, so the other cases draw what they always drew.
fn skips_prechase(seed: u64) -> bool {
    seed % 4 == 3
}

/// Does some FD of `fds` map `X` into `Y − X`?
fn maps_x_into_rest(fds: &FdSet, x: AttrSet, y_minus_x: AttrSet) -> bool {
    fds.iter()
        .any(|fd| fd.lhs().is_subset(&x) && !fd.rhs().is_disjoint(&y_minus_x))
}

fn gen_case(seed: u64) -> Case {
    if skips_prechase(seed) {
        return gen_skip_case(seed);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let (schema, x, y) = geometry(&mut rng);
    let u = schema.universe();
    let y_minus_x = y - x;
    let shared = x & y;
    let mut fds = Vec::new();
    // Mostly make condition (b) hold, so that condition (c) is reached.
    if rng.gen_bool(0.9) && !shared.is_empty() {
        for a in y_minus_x.iter() {
            fds.push(Fd::from_sets(shared, AttrSet::singleton(a)));
        }
    }
    // FDs whose left-hand sides cross Y − X, plus a few arbitrary ones.
    for _ in 0..rng.gen_range(1..5) {
        let mut lhs = random_subset(&mut rng, u);
        lhs.insert(
            y_minus_x
                .iter()
                .nth(rng.gen_range(0..y_minus_x.len()))
                .unwrap(),
        );
        let rhs = u.iter().nth(rng.gen_range(0..u.len())).unwrap();
        fds.push(Fd::from_sets(lhs, AttrSet::singleton(rhs)));
    }
    for _ in 0..rng.gen_range(0..3) {
        let lhs = random_subset(&mut rng, u);
        let rhs = u.iter().nth(rng.gen_range(0..u.len())).unwrap();
        fds.push(Fd::from_sets(lhs, AttrSet::singleton(rhs)));
    }
    let fds = FdSet::new(fds);
    let domain = rng.gen_range(2..5u64);
    let rows = rng.gen_range(2..10usize);
    let v = Relation::from_rows(x, (0..rows).map(|_| random_tuple(&mut rng, x, domain))).unwrap();
    let t1 = (!v.is_empty()).then(|| v.row(rng.gen_range(0..v.len())).to_tuple());
    let mut t = random_tuple(&mut rng, x, domain + 2);
    if !v.is_empty() && rng.gen_bool(0.8) {
        let from = v.row(rng.gen_range(0..v.len()));
        t = with_shared(x, shared, &t, &from.to_tuple());
    }
    Case {
        schema,
        fds,
        x,
        y,
        v,
        t,
        t1,
    }
}

/// A case with no FD from `X` into `Y − X` and a case-2 replace: FDs whose left-hand sides cross `Y − X`,
/// arbitrary FDs turned away from `Y − X` when their left-hand side lies
/// in `X`, and one FD embedded in `X`; `V` built to satisfy the FDs
/// embedded in `X` (four times in five); `t` carrying `t₁`'s `X ∩ Y`.
fn gen_skip_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let (schema, x, y) = geometry(&mut rng);
    let u = schema.universe();
    let y_minus_x = y - x;
    let shared = x & y;
    let pick = |rng: &mut StdRng, of: AttrSet| of.iter().nth(rng.gen_range(0..of.len())).unwrap();
    let mut fds = Vec::new();
    for _ in 0..rng.gen_range(1..5) {
        let mut lhs = random_subset(&mut rng, u);
        lhs.insert(pick(&mut rng, y_minus_x));
        fds.push(Fd::from_sets(lhs, AttrSet::singleton(pick(&mut rng, u))));
    }
    for _ in 0..rng.gen_range(0..3) {
        let lhs = random_subset(&mut rng, u);
        let mut rhs = pick(&mut rng, u);
        if lhs.is_subset(&x) && y_minus_x.contains(rhs) {
            rhs = pick(&mut rng, x);
        }
        fds.push(Fd::from_sets(lhs, AttrSet::singleton(rhs)));
    }
    let embedded = Fd::from_sets(
        random_subset(&mut rng, x),
        AttrSet::singleton(pick(&mut rng, x)),
    );
    fds.push(embedded);
    let fds = FdSet::new(fds);
    assert!(!maps_x_into_rest(&fds, x, y_minus_x));
    let in_x = FdSet::new(
        fds.iter()
            .filter(|fd| fd.lhs().is_subset(&x) && fd.rhs().is_subset(&x))
            .cloned()
            .collect::<Vec<_>>(),
    );
    let domain = rng.gen_range(2..5u64);
    let legal = rng.gen_bool(0.8);
    let mut v = Relation::new(x);
    for _ in 0..rng.gen_range(2..10usize) {
        let row = random_tuple(&mut rng, x, domain);
        let mut grown = v.clone();
        grown.insert(row).unwrap();
        if !legal || satisfies_fds(&grown, &in_x) {
            v = grown;
        }
    }
    let t1 = v.row(rng.gen_range(0..v.len())).to_tuple();
    let t = with_shared(x, shared, &random_tuple(&mut rng, x, domain + 2), &t1);
    Case {
        schema,
        fds,
        x,
        y,
        v,
        t,
        t1: Some(t1),
    }
}

// ── The clone-per-pair oracle ───────────────────────────────────────────

/// The labeled null filling row `row` at `a ∈ Y − X`, numbered as the
/// translators number them.
fn null_of(y_minus_x: AttrSet, row: usize, a: Attr) -> Value {
    Value::Null((row * y_minus_x.len() + y_minus_x.rank(a).unwrap()) as u64)
}

fn fill(x: AttrSet, y_minus_x: AttrSet, v: &Relation) -> Relation {
    let u = x | y_minus_x;
    let mut out = Relation::new(u);
    for (i, row) in v.iter().enumerate() {
        let full = Tuple::from_pairs(
            &u,
            u.iter().map(|a| {
                let val = if x.contains(a) {
                    row.get(&x, a)
                } else {
                    null_of(y_minus_x, i, a)
                };
                (a, val)
            }),
        )
        .unwrap();
        out.insert(full).unwrap();
    }
    out
}

/// Condition (c) as the clone-per-pair loop decides it: every pair with
/// a hypothesis clones the pre-chased `V` and chases it in full.
fn oracle_condition_c(
    c: &Case,
    t: &Tuple,
    mu: usize,
    skip: Option<usize>,
) -> Result<Option<RejectReason>, CoreError> {
    let (x, y_minus_x) = (c.x, c.y - c.x);
    let mut base = ChaseState::new(&fill(x, y_minus_x, &c.v));
    if base.run(&c.fds).is_err() {
        return Err(CoreError::InvalidViewInstance);
    }
    for (fd_index, fd) in c.fds.atomized().iter().enumerate() {
        let z = fd.lhs();
        let a = fd.rhs().first().unwrap();
        let z_in_rest = z & y_minus_x;
        let a_in_rest = y_minus_x.contains(a);
        let qualifying = c.v.iter().enumerate().filter(|(_, r)| {
            r.agrees(&x, t, &x, &(z & x)) && !(x.contains(a) && r.get(&x, a) == t.get(&x, a))
        });
        for (row, _) in qualifying {
            if Some(row) == skip {
                continue;
            }
            if z_in_rest.is_empty() {
                if a_in_rest && base.equated(null_of(y_minus_x, row, a), null_of(y_minus_x, mu, a))
                {
                    continue;
                }
                return Ok(Some(RejectReason::ChaseCounterexample {
                    fd_index,
                    row,
                    counterexample: Box::new(base.materialize()),
                }));
            }
            let mut st = base.clone();
            let mut succeeded = false;
            for w in z_in_rest.iter() {
                if st
                    .unify(null_of(y_minus_x, row, w), null_of(y_minus_x, mu, w))
                    .is_err()
                {
                    succeeded = true;
                    break;
                }
            }
            if !succeeded {
                match st.run(&c.fds) {
                    Err(_) => succeeded = true,
                    Ok(_) => {
                        succeeded = a_in_rest
                            && st.equated(null_of(y_minus_x, row, a), null_of(y_minus_x, mu, a));
                    }
                }
            }
            if !succeeded {
                return Ok(Some(RejectReason::ChaseCounterexample {
                    fd_index,
                    row,
                    counterexample: Box::new(st.materialize()),
                }));
            }
        }
    }
    Ok(None)
}

fn mu_rows(c: &Case, t: &Tuple) -> Vec<usize> {
    let shared = c.x & c.y;
    (0..c.v.len())
        .filter(|&i| c.v.row(i).agrees(&c.x, t, &c.x, &shared))
        .collect()
}

fn condition_b(c: &Case) -> Option<RejectReason> {
    let cl = closure::closure(&c.fds, c.x & c.y);
    if c.x.is_subset(&cl) {
        Some(RejectReason::ViewSideDetermined)
    } else if !c.y.is_subset(&cl) {
        Some(RejectReason::ComplementNotDetermined)
    } else {
        None
    }
}

/// Theorem 3 decided with the oracle's condition (c).
fn oracle_insert(c: &Case) -> Result<Translatability, CoreError> {
    if c.v.contains(&c.t) {
        return Ok(Translatability::Translatable(Translation::Identity));
    }
    let Some(&mu) = mu_rows(c, &c.t).first() else {
        return Ok(Translatability::Rejected(
            RejectReason::IntersectionNotInView,
        ));
    };
    if let Some(reason) = condition_b(c) {
        return Ok(Translatability::Rejected(reason));
    }
    Ok(match oracle_condition_c(c, &c.t, mu, None)? {
        Some(reason) => Translatability::Rejected(reason),
        None => Translatability::Translatable(Translation::InsertJoin { t: c.t.clone() }),
    })
}

/// Theorem 9 decided with the oracle's condition (c): replace `t1` by
/// `t2`.
fn oracle_replace(c: &Case, t1: &Tuple, t2: &Tuple) -> Result<Translatability, CoreError> {
    if t1 == t2 {
        return Ok(Translatability::Translatable(Translation::Identity));
    }
    if c.v.contains(t2) {
        return Err(CoreError::TupleAlreadyInView);
    }
    let shared = c.x & c.y;
    let mu = mu_rows(c, t2);
    if !t1.agrees(&c.x, t2, &c.x, &shared) {
        if mu_rows(c, t1).len() < 2 {
            return Ok(Translatability::Rejected(
                RejectReason::IntersectionNotInRemainder,
            ));
        }
        if mu.is_empty() {
            return Ok(Translatability::Rejected(
                RejectReason::ReplacementTargetNotInView,
            ));
        }
        if let Some(reason) = condition_b(c) {
            return Ok(Translatability::Rejected(reason));
        }
    }
    let skip = c.v.iter().position(|r| r == t1);
    Ok(match oracle_condition_c(c, t2, mu[0], skip)? {
        Some(reason) => Translatability::Rejected(reason),
        None => Translatability::Translatable(Translation::ReplaceJoin {
            t1: t1.clone(),
            t2: t2.clone(),
        }),
    })
}

/// Instances drawn per proptest case: most instances decide early (at
/// conditions (a) and (b), or `t ∈ V`), so each case checks a batch.
const BATCH: u64 = 8;

proptest! {
    #[test]
    fn insert_matches_clone_per_pair_oracle(seed in 0u64..u64::MAX / BATCH) {
        let _serial = serial();
        for c in (0..BATCH).map(|k| gen_case(seed * BATCH + k)) {
            let got = translate_insert(&c.schema, &c.fds, c.x, c.y, &c.v, &c.t);
            prop_assert_eq!(&got, &oracle_insert(&c), "{:?}", c);
            let naive = translate_insert_naive(&c.schema, &c.fds, c.x, c.y, &c.v, &c.t);
            prop_assert_eq!(
                got.as_ref().map(Translatability::is_translatable),
                naive.as_ref().map(Translatability::is_translatable),
                "{:?}",
                c
            );
        }
    }

    #[test]
    fn replace_matches_clone_per_pair_oracle(seed in 0u64..u64::MAX / BATCH) {
        let _serial = serial();
        for c in (0..BATCH).map(|k| gen_case(seed * BATCH + k)) {
            let Some(t1) = &c.t1 else { continue };
            let got = translate_replace(&c.schema, &c.fds, c.x, c.y, &c.v, t1, &c.t);
            prop_assert_eq!(&got, &oracle_replace(&c, t1, &c.t), "{:?}", c);
        }
    }
}

/// `(chase runs, skipped pre-chases, settled pairs)` so far.
fn counts() -> (u64, u64, u64) {
    (
        relvu::obs::counter("core.chase.runs").get(),
        relvu::obs::counter("core.chase.prechase_skipped").get(),
        relvu::obs::counter("core.chase.pairs_settled").get(),
    )
}

/// The generator must reach the interesting outcomes: accepted updates,
/// counterexamples, and pairs the closure settles — and, on the skipped
/// pre-chase, accepted replaces, counterexamples of FDs embedded in `X`
/// (materialized from the lazily built tableau) and pairs the closure
/// leaves to the full chase, each equal to the oracle's result.
#[test]
fn generator_reaches_every_outcome() {
    let _serial = serial();
    let (_, _, settled_before) = counts();
    let (mut accepted, mut counterexamples) = (0, 0);
    for seed in 0..2000 {
        let c = gen_case(seed);
        match translate_insert(&c.schema, &c.fds, c.x, c.y, &c.v, &c.t) {
            Ok(Translatability::Translatable(Translation::InsertJoin { .. })) => accepted += 1,
            Ok(Translatability::Rejected(RejectReason::ChaseCounterexample { .. })) => {
                counterexamples += 1;
            }
            _ => {}
        }
    }
    assert!(accepted >= 300, "only {accepted} accepted inserts");
    assert!(
        counterexamples >= 40,
        "only {counterexamples} counterexamples"
    );
    if !relvu::obs::enabled() {
        return;
    }
    let (_, _, settled_after) = counts();
    assert!(
        settled_after - settled_before >= 100,
        "the pair closure settled too few pairs"
    );

    let (mut skip_accepted, mut skip_embedded, mut skip_chased) = (0, 0, 0);
    for seed in (0..2000).filter(|&s| skips_prechase(s)) {
        let c = gen_case(seed);
        let t1 = c.t1.as_ref().expect("a skip case has a row to replace");
        let before = counts();
        let got = translate_replace(&c.schema, &c.fds, c.x, c.y, &c.v, t1, &c.t);
        let after = counts();
        assert_eq!(got, oracle_replace(&c, t1, &c.t), "{c:?}");
        let reached_c = matches!(
            got,
            Ok(Translatability::Translatable(
                Translation::ReplaceJoin { .. }
            )) | Ok(Translatability::Rejected(
                RejectReason::ChaseCounterexample { .. }
            )) | Err(CoreError::InvalidViewInstance)
        );
        let skipped = after.1 - before.1;
        assert_eq!(skipped, u64::from(reached_c), "{c:?}");
        if !reached_c {
            continue;
        }
        if after.0 > before.0 {
            skip_chased += 1;
        }
        match &got {
            Ok(Translatability::Translatable(_)) => skip_accepted += 1,
            Ok(Translatability::Rejected(RejectReason::ChaseCounterexample {
                fd_index, ..
            })) => {
                let fd = c.fds.atomized().iter().nth(*fd_index).cloned().unwrap();
                if fd.lhs().is_subset(&c.x) {
                    skip_embedded += 1;
                }
            }
            _ => {}
        }
    }
    assert!(
        skip_accepted >= 100,
        "only {skip_accepted} accepted replaces skipped the pre-chase"
    );
    assert!(
        skip_embedded >= 10,
        "only {skip_embedded} counterexamples of FDs embedded in X skipped the pre-chase"
    );
    assert!(
        skip_chased >= 20,
        "only {skip_chased} skipped pre-chases left a pair to the full chase"
    );
}

/// A `V` that violates an FD embedded in `X` is still refused as
/// invalid when the pre-chase is skipped: `mgrs = π{D, M}` with two
/// managers for department 1, and a case-2 manager change.
#[test]
fn skipped_prechase_still_refuses_an_invalid_view() {
    let _serial = serial();
    let schema = Schema::new(["E", "D", "M"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
    let x = schema.set(["D", "M"]).unwrap();
    let y = schema.set(["E", "D"]).unwrap();
    let v = Relation::from_rows(
        x,
        [
            Tuple::new([Value::int(1), Value::int(100)]),
            Tuple::new([Value::int(1), Value::int(200)]),
            Tuple::new([Value::int(2), Value::int(300)]),
        ],
    )
    .unwrap();
    let (t1, t2) = (
        Tuple::new([Value::int(1), Value::int(100)]),
        Tuple::new([Value::int(1), Value::int(150)]),
    );
    let before = counts();
    let got = translate_replace(&schema, &fds, x, y, &v, &t1, &t2);
    let after = counts();
    assert_eq!(got, Err(CoreError::InvalidViewInstance));
    let c = Case {
        schema,
        fds,
        x,
        y,
        v,
        t: t2.clone(),
        t1: Some(t1.clone()),
    };
    assert_eq!(got, oracle_replace(&c, &t1, &t2));
    if relvu::obs::enabled() {
        assert_eq!(after.1 - before.1, 1, "the pre-chase was skipped");
        assert_eq!(after.0, before.0, "and no chase ran");
    }
}
