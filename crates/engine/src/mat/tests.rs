//! Unit tests of the netted folds: keys whose support does not cross
//! zero must leave every array untouched.

use super::*;
use crate::Policy;
use rand::prelude::*;
use relvu_relation::tup;

/// `E → D → M` over `(E, D, M)`: employees 1 and 2 in department 10
/// under manager 100, employee 3 in department 20 under manager 200.
fn base() -> Relation {
    let rows = [tup![1, 10, 100], tup![2, 10, 100], tup![3, 20, 200]];
    Relation::from_rows(attrs(&[0, 1, 2]), rows).unwrap()
}

fn attrs(ids: &[usize]) -> AttrSet {
    ids.iter().map(|&i| Attr::new(i)).collect()
}

fn def(x: &[usize], y: &[usize]) -> ViewDef {
    ViewDef::new(
        "v".into(),
        attrs(x),
        attrs(y),
        Policy::Exact,
        None,
        false,
        0,
    )
}

fn mat(x: &[usize], y: &[usize]) -> ViewMat {
    ViewMat::build(&base(), None, &def(x, y), None).unwrap()
}

/// Department 10's manager changes: both of its rows move.
fn manager_change() -> (Vec<Tuple>, Vec<Tuple>) {
    let added = vec![tup![1, 10, 101], tup![2, 10, 101]];
    let removed = vec![tup![1, 10, 100], tup![2, 10, 100]];
    (added, removed)
}

/// The rows of `rows` in one flat buffer.
fn buf(rows: &[Tuple]) -> RowBuf {
    RowBuf::of(rows)
}

/// The live complement entries paired with their counts, in order.
fn complement(m: &ViewMat) -> Vec<(Tuple, u64)> {
    let entries = m.y_entries.to_tuples();
    let counts = m.y_counts.iter().copied();
    entries
        .into_iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// [`net`]'s keys paired with their counts.
fn net_pairs(
    removed: &[Tuple],
    added: &[Tuple],
    major: &[usize],
    key: &[usize],
) -> Vec<(Tuple, i64)> {
    let (keys, counts) = net(removed, added, major, key);
    keys.to_tuples().into_iter().zip(counts).collect()
}

/// The base after [`manager_change`].
fn changed_base() -> Relation {
    let mut b = base();
    let (added, removed) = manager_change();
    for t in &removed {
        b.remove(t);
    }
    for t in added {
        b.insert(t).unwrap();
    }
    b
}

#[test]
fn rows_moving_within_one_key_leave_the_view_side_alone() {
    // `emp = π{E, D}`: every moved row keeps its projection.
    let mut m = mat(&[0, 1], &[1, 2]);
    let (rows, support) = (m.instance.rows().to_vec(), m.support.clone());
    let (added, removed) = manager_change();
    let (out_added, out_removed) = m.fold_instance(buf(&added).block(), buf(&removed).block());
    assert!(out_added.is_empty() && out_removed.is_empty());
    assert_eq!(m.instance.rows(), &rows[..], "no row moved");
    assert_eq!(m.support, support, "support unchanged");
    // `π{E, D}` is the complement of `mgrs = π{D, M}`: same netting.
    let mut mgrs = mat(&[1, 2], &[0, 1]);
    let entries = complement(&mgrs);
    mgrs.fold_complement(buf(&added).block(), buf(&removed).block());
    assert_eq!(complement(&mgrs), entries);
}

#[test]
fn one_commit_empties_one_key_and_creates_another() {
    // `mgrs = π{D, M}`: (10, 100) drops from support 2 to 0 and
    // (10, 101) rises from 0 to 2.
    let mut m = mat(&[1, 2], &[0, 1]);
    let (added, removed) = manager_change();
    let (out_added, out_removed) = m.fold_instance(buf(&added).block(), buf(&removed).block());
    assert_eq!(out_added.to_tuples(), vec![tup![10, 101]]);
    assert_eq!(out_removed.to_tuples(), vec![tup![10, 100]]);
    let slot = m.instance.slot_of(&tup![10, 101]).unwrap();
    assert_eq!(m.support[slot], 2);
    // The complement side of `emp = π{E, D}` takes the same two edits.
    let mut emp = mat(&[0, 1], &[1, 2]);
    emp.fold_complement(buf(&added).block(), buf(&removed).block());
    let counts: Vec<(Tuple, u64)> = vec![(tup![10, 101], 2), (tup![20, 200], 1)];
    assert_eq!(complement(&emp), counts);
    let after = changed_base();
    m.debug_assert_consistent(&after);
    emp.debug_assert_consistent(&after);
}

#[test]
fn dead_complement_entries_revive_and_compact() {
    // `mgrs = π{D, M}` with complement `π{E, D}`: employees leave and
    // come back one at a time, each in department 10 (even) or 20 (odd)
    // under its one manager, so the base stays legal.
    let mgrs = def(&[1, 2], &[0, 1]);
    let mut base = base();
    let mut m = ViewMat::build(&base, None, &mgrs, None).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let (mut max_dead, mut compactions) = (0, 0);
    for step in 0..600 {
        let e = rng.gen_range(1..24u64);
        let d = if e % 2 == 0 { 10 } else { 20 };
        let row = vec![tup![e, d, d * 10]];
        let none = RowBuf::of(&[]);
        let (added, removed) = if base.contains(&row[0]) {
            base.remove(&row[0]);
            (none, buf(&row))
        } else {
            base.insert(row[0].clone()).unwrap();
            (buf(&row), none)
        };
        let entries = m.y_counts.len();
        m.fold_instance(added.block(), removed.block());
        m.fold_complement(added.block(), removed.block());
        compactions += usize::from(m.y_counts.len() + 1 < entries);
        max_dead = max_dead.max(m.y_dead);
        let fresh = ViewMat::build(&base, None, &mgrs, None).unwrap();
        assert_eq!(complement(&m), complement(&fresh), "step {step}");
        for t in [tup![10, 100], tup![20, 200]] {
            let mut joined = m.join_rows(&t).to_tuples();
            let mut want = fresh.join_rows(&t).to_tuples();
            joined.sort();
            want.sort();
            assert_eq!(joined, want, "step {step}: {t:?} ⋈ π_Y(R)");
        }
        m.debug_assert_consistent(&base);
    }
    assert!(
        max_dead > 3 && compactions > 3,
        "{max_dead} dead, {compactions} compactions"
    );
}

// ---------------------------------------------------------------------
// Differentials against the project-then-sort `net` and the
// probe-then-edit `delta` these kernels replaced.
// ---------------------------------------------------------------------

use relvu_relation::{CmpOp, Value};

/// The replaced `net`: project every row, sort the projections, collapse
/// equal keys, drop the zeros.
fn project_then_sort_net(
    removed: &[Tuple],
    added: &[Tuple],
    project: impl Fn(&Tuple) -> Tuple,
    cmp: impl Fn(&Tuple, &Tuple) -> Ordering,
) -> Vec<(Tuple, i64)> {
    let mut keys: Vec<(Tuple, i64)> = removed
        .iter()
        .map(|r| (project(r), -1))
        .chain(added.iter().map(|r| (project(r), 1)))
        .collect();
    keys.sort_unstable_by(|a, b| cmp(&a.0, &b.0));
    keys.dedup_by(|(k, n), (kept, total)| {
        let same = k == kept;
        if same {
            *total += *n;
        }
        same
    });
    keys.retain(|&(_, n)| n != 0);
    keys
}

/// The pair-rule oracle over a plain row vector: the `i`-th removed row
/// is overwritten by the `i`-th added one where it stands, then the
/// leftover removals are swap-removed and the leftover additions pushed.
fn pair_fold(rows: &mut Vec<Tuple>, removed: &[Tuple], added: &[Tuple]) {
    let at = |rows: &Vec<Tuple>, t: &Tuple| rows.iter().position(|r| r == t).unwrap();
    for (old, new) in removed.iter().zip(added) {
        let i = at(rows, old);
        rows[i] = new.clone();
    }
    for old in removed.iter().skip(added.len()) {
        let i = at(rows, old);
        rows.swap_remove(i);
    }
    rows.extend(added.iter().skip(removed.len()).cloned());
}

/// The delta `tr` makes and its edits: join each side, sort both lists
/// and fold them into `rows` by [`pair_fold`]. Panics unless `tr` meets
/// [`ViewMat::apply`]'s precondition — every removed row in the base and
/// every added one absent — which the checks guarantee for every
/// translation they accept over a legal base (it satisfies *[X, Y]).
fn delta_then_edits(
    m: &ViewMat,
    rows: &mut Vec<Tuple>,
    tr: &Translation,
) -> (Vec<Tuple>, Vec<Tuple>) {
    let join = |t| m.join_rows(t).to_tuples();
    let (mut added, mut removed) = match tr {
        Translation::Identity => (Vec::new(), Vec::new()),
        Translation::InsertJoin { t } => (join(t), Vec::new()),
        Translation::DeleteJoin { t } => (Vec::new(), join(t)),
        Translation::ReplaceJoin { t1, t2 } => (join(t2), join(t1)),
    };
    assert!(
        removed.iter().all(|b| rows.contains(b)) && !added.iter().any(|b| rows.contains(b)),
        "{tr:?} removes base rows and adds absent ones"
    );
    added.sort();
    removed.sort();
    pair_fold(rows, &removed, &added);
    (added, removed)
}

/// `π_X(R₀) ⋈ π_Y(R₀)` for `n` random rows `R₀` over `universe`: a base
/// that satisfies *[X, Y], as every legal base does.
fn legal_base(rng: &mut StdRng, universe: AttrSet, x: AttrSet, y: AttrSet, n: usize) -> Relation {
    let r0 =
        Relation::from_rows(universe, (0..n).map(|_| random_row(rng, universe.len()))).unwrap();
    ops::natural_join(
        &ops::project(&r0, x).unwrap(),
        &ops::project(&r0, y).unwrap(),
    )
    .unwrap()
}

/// A random row over four attributes from a small value domain, so keys
/// collide often.
fn random_row(rng: &mut StdRng, arity: usize) -> Tuple {
    Tuple::new((0..arity).map(|_| Value::int(rng.gen_range(0..3u64))))
}

/// A random non-empty subset of `0..n`.
fn random_attrs(rng: &mut StdRng, n: usize) -> AttrSet {
    loop {
        let set: AttrSet = (0..n)
            .filter(|_| rng.gen_bool(0.5))
            .map(Attr::new)
            .collect();
        if !set.is_empty() {
            return set;
        }
    }
}

#[test]
fn in_place_net_equals_project_then_sort_net() {
    let from = attrs(&[0, 1, 2, 3]);
    let mut rng = StdRng::seed_from_u64(17);
    for case in 0..2000 {
        let rows = |rng: &mut StdRng| -> Vec<Tuple> {
            let n = rng.gen_range(0..24usize);
            (0..n).map(|_| random_row(rng, 4)).collect()
        };
        let (removed, added) = (rows(&mut rng), rows(&mut rng));
        // Some rows on both sides, so their keys can net to zero.
        let added: Vec<Tuple> = added
            .into_iter()
            .chain(removed.iter().take(3).cloned())
            .collect();
        let key = random_attrs(&mut rng, 4);
        let shared: AttrSet = key.iter().filter(|_| rng.gen_bool(0.5)).collect();
        let key_pos = positions(key, from).unwrap();
        let shared_pos = positions(shared, from).unwrap();
        let shared_ranks: Vec<usize> = shared.iter().map(|a| key.rank(a).unwrap()).collect();
        let project = |r: &Tuple| r.project(&from, &key);
        // The instance order: the key tuple's value order.
        assert_eq!(
            net_pairs(&removed, &added, &[], &key_pos),
            project_then_sort_net(&removed, &added, project, Tuple::cmp),
            "case {case}: instance order"
        );
        // The complement order: the shared columns first.
        assert_eq!(
            net_pairs(&removed, &added, &shared_pos, &key_pos),
            project_then_sort_net(&removed, &added, project, |a, b| {
                cmp_y(&shared_ranks, a.as_slice(), b.as_slice())
            }),
            "case {case}: complement order"
        );
    }
}

#[test]
fn apply_equals_delta_then_edits() {
    let universe = attrs(&[0, 1, 2]);
    let mut rng = StdRng::seed_from_u64(29);
    let (mut overlapping, mut disjoint, mut selections) = (0, 0, 0);
    let (mut inserts, mut deletes, mut replaces) = (0, 0, 0);
    // Replaces whose delta has rows on both sides, so pairs are
    // rewritten in place.
    let mut paired = 0;
    for case in 0..600 {
        // x ∪ y = U; X∩Y may be empty.
        let x = random_attrs(&mut rng, 3);
        let rest: AttrSet = universe.iter().filter(|a| !x.contains(*a)).collect();
        let extra: AttrSet = x.iter().filter(|_| rng.gen_bool(0.5)).collect();
        let y = if rest.is_empty() && extra.is_empty() {
            x
        } else {
            rest | extra
        };
        let mut def = ViewDef::new("v".into(), x, y, Policy::Exact, None, false, 0);
        if rng.gen_bool(0.3) {
            let a = x.iter().next().unwrap();
            def = def.with_pred(Pred::cmp(a, CmpOp::Lt, 2));
            selections += 1;
        }
        if (x & y).is_empty() {
            disjoint += 1;
        } else {
            overlapping += 1;
        }
        // Every translation below keeps the base of the form S ⋈ π_Y(R),
        // so it stays legal from step to step.
        let n = rng.gen_range(0..20usize);
        let mut base = legal_base(&mut rng, universe, x, y, n);
        let mut oracle = base.rows().to_vec();
        for step in 0..6 {
            let m = ViewMat::build(&base, None, &def, None).unwrap();
            let in_view = |rng: &mut StdRng| {
                let rows = m.instance().rows();
                (!rows.is_empty())
                    .then(|| rows.get(rng.gen_range(0..rows.len())).unwrap().to_tuple())
            };
            // Mostly the base's small domain, so joins hit, with a value
            // from a wide one mixed in, so a miss always comes soon.
            let outside_view = |rng: &mut StdRng| loop {
                let t = Tuple::new((0..x.len()).map(|_| {
                    Value::int(if rng.gen_bool(0.8) {
                        rng.gen_range(0..3u64)
                    } else {
                        rng.gen_range(3..1000u64)
                    })
                }));
                if !m.instance().contains(&t) {
                    break t;
                }
            };
            // What the checks can accept: insert t ∉ V, delete t ∈ V,
            // replace t1 ∈ V by t2 ∉ V.
            let tr = match (rng.gen_range(0..3u32), in_view(&mut rng)) {
                (1, Some(t)) => {
                    deletes += 1;
                    Translation::DeleteJoin { t }
                }
                (2, Some(t1)) => {
                    replaces += 1;
                    Translation::ReplaceJoin {
                        t1,
                        t2: outside_view(&mut rng),
                    }
                }
                _ => {
                    inserts += 1;
                    Translation::InsertJoin {
                        t: outside_view(&mut rng),
                    }
                }
            };
            let want = delta_then_edits(&m, &mut oracle, &tr);
            paired += usize::from(!want.0.is_empty() && !want.1.is_empty());
            let (added, removed) = m.apply(&mut base, &tr, [&m]).unwrap();
            let got = (added.to_tuples(), removed.to_tuples());
            assert_eq!(got, want, "case {case} step {step}: {tr:?}");
            assert_eq!(
                base.rows(),
                &oracle[..],
                "case {case} step {step}: row order"
            );
            base.debug_validate();
        }
    }
    assert!(overlapping > 0 && disjoint > 0 && selections > 0);
    assert!(
        inserts > 500 && deletes > 500 && replaces > 500 && paired > 300,
        "{inserts} / {deletes} / {replaces} ({paired} paired)"
    );
}

#[test]
fn replaces_rewrite_their_pairs_in_place() {
    let universe = attrs(&[0, 1, 2]);
    let mut rng = StdRng::seed_from_u64(31);
    let (mut case2, mut case1, mut moved) = (0, 0, 0);
    for case in 0..400 {
        let x = random_attrs(&mut rng, 3);
        let rest: AttrSet = universe.iter().filter(|a| !x.contains(*a)).collect();
        if rest.is_empty() {
            continue;
        }
        let y = rest | x.iter().filter(|_| rng.gen_bool(0.5)).collect::<AttrSet>();
        if y == universe {
            continue; // no X − Y column to move
        }
        let def = ViewDef::new("v".into(), x, y, Policy::Exact, None, false, 0);
        let mut base = legal_base(&mut rng, universe, x, y, 12);
        let mut oracle = base.rows().to_vec();
        for step in 0..6 {
            let m = ViewMat::build(&base, None, &def, None).unwrap();
            let inst = m.instance().rows();
            if inst.is_empty() {
                break;
            }
            let t1 = inst.get(rng.gen_range(0..inst.len())).unwrap().to_tuple();
            // t2: t1 with fresh values (never in the base) in some of X's
            // columns — X − Y only for case 2, any of X for case 1.
            let keep_shared = rng.gen_bool(0.5);
            let t2 = Tuple::new(x.iter().enumerate().map(|(i, a)| {
                let fresh = if keep_shared && y.contains(a) {
                    false
                } else {
                    rng.gen_bool(0.6)
                };
                if fresh {
                    Value::int(rng.gen_range(10..1000u64))
                } else {
                    t1.at(i)
                }
            }));
            if t1 == t2 || m.instance().contains(&t2) {
                continue;
            }
            let shared_kept = (x & y).iter().all(|a| t1.get(&x, a) == t2.get(&x, a));
            let tr = Translation::ReplaceJoin { t1, t2 };
            let before = base.rows().to_vec();
            let want = delta_then_edits(&m, &mut oracle, &tr);
            let (added, removed) = m.apply(&mut base, &tr, [&m]).unwrap();
            assert_eq!(
                (added.to_tuples(), removed.to_tuples()),
                want,
                "case {case} step {step}"
            );
            assert_eq!(
                base.rows(),
                &oracle[..],
                "case {case} step {step}: row order"
            );
            base.debug_validate();
            if shared_kept {
                // Case 2: the same complement run on both sides, so every
                // slot keeps its π_Y and only its X − Y columns move.
                case2 += 1;
                assert_eq!(base.len(), before.len());
                for (slot, old) in before.iter().enumerate() {
                    assert_eq!(
                        base.row(slot).to_tuple().project(&universe, &y),
                        old.project(&universe, &y),
                        "case {case} step {step}: slot {slot} kept its π_Y"
                    );
                }
                moved += want.1.len();
            } else {
                case1 += 1;
            }
        }
    }
    assert!(
        case2 > 100 && case1 > 100 && moved > 200,
        "{case2} / {case1} / {moved}"
    );
}

#[test]
#[should_panic(expected = "a translation removes base rows and adds absent ones")]
fn apply_panics_on_a_translation_outside_its_precondition() {
    // Department 10 has no employee 3, so `{3, 10} ⋈ π{D, M}` names a
    // row the base lacks: no check accepts that deletion.
    let m = mat(&[0, 1], &[1, 2]);
    let mut base = base();
    let delete = Translation::DeleteJoin { t: tup![3, 10] };
    let _ = m.apply(&mut base, &delete, [&m]);
}

#[test]
fn apply_refuses_a_full_dictionary_before_any_edit() {
    let mut base = Relation::new(attrs(&[0, 1, 2]));
    base._inflate_dict_id_base(u32::MAX - 3);
    for row in [tup![1, 10, 100], tup![2, 20, 200]] {
        base.insert(row).unwrap();
    }
    let def = ViewDef::new(
        "v".into(),
        attrs(&[1, 2]),
        attrs(&[0, 1]),
        Policy::Exact,
        None,
        false,
        0,
    );
    let m = ViewMat::build(&base, None, &def, None).unwrap();
    // Each column has 1 id left: a fresh manager for department 10's
    // one row takes M's, ...
    let fits = Translation::ReplaceJoin {
        t1: tup![10, 100],
        t2: tup![10, 101],
    };
    let mut probe = base.clone();
    assert!(m.apply(&mut probe, &fits, [&m]).is_ok());
    // ... and the next fresh manager is refused before any edit.
    let m = ViewMat::build(&probe, None, &def, None).unwrap();
    let rows = probe.rows().to_vec();
    let full = Translation::ReplaceJoin {
        t1: tup![10, 101],
        t2: tup![10, 102],
    };
    assert!(matches!(
        m.apply(&mut probe, &full, [&m]),
        Err(crate::EngineError::Relation(
            relvu_relation::RelationError::DictFull
        ))
    ));
    assert_eq!(probe.rows(), &rows[..]);
    // A deletion inserts nothing and needs no id.
    let delete = Translation::DeleteJoin { t: tup![20, 200] };
    assert!(m.apply(&mut probe, &delete, [&m]).is_ok());
    assert_eq!(probe.len(), 1);
}

// ---------------------------------------------------------------------
// The bulk build against a materialization folded up from nothing.
// ---------------------------------------------------------------------

/// The reference build: `def` materialized over an empty base (and an
/// empty feed), then every feed row folded into its view side and every
/// base row into its complement, one row per fold and in storage order —
/// so each tuple enters the instance at its first occurrence.
fn folded_reference(base: &Relation, source: Option<&Relation>, def: &ViewDef) -> ViewMat {
    let empty_base = Relation::new(base.attrs());
    let empty_feed = source.map(|s| Relation::new(s.attrs()));
    let mut m = ViewMat::build(&empty_base, empty_feed.as_ref(), def, None).unwrap();
    for row in source.unwrap_or(base) {
        m.fold_instance(buf(&[row.to_tuple()]).block(), Block::EMPTY);
    }
    for row in base {
        m.fold_complement(buf(&[row.to_tuple()]).block(), Block::EMPTY);
    }
    m
}

/// `got` equals the folded reference: the instance rows in order, the
/// support per slot, the complement entries with their counts, and the
/// σ_P split rows in order. With `adopted`, `got` kept a published
/// instance instead, so its rows are compared as a set and each slot's
/// support against the reference's count of the same tuple.
pub(crate) fn assert_build_matches_folds(
    got: &ViewMat,
    base: &Relation,
    source: Option<&Relation>,
    def: &ViewDef,
    adopted: bool,
    what: &str,
) {
    let want = folded_reference(base, source, def);
    got.instance.debug_validate();
    assert_eq!(
        complement(got),
        complement(&want),
        "{what}: complement entries"
    );
    if !adopted {
        assert_eq!(
            got.instance.rows(),
            want.instance.rows(),
            "{what}: instance rows"
        );
        assert_eq!(got.support, want.support, "{what}: support per slot");
        let rows = |m: &ViewMat| {
            m.split
                .as_ref()
                .map(|(p, q)| (p.rows().to_vec(), q.rows().to_vec()))
        };
        assert_eq!(rows(got), rows(&want), "{what}: σ_P split rows");
        return;
    }
    assert!(got.instance.set_eq(&want.instance), "{what}: instance set");
    assert_eq!(
        got.support.len(),
        got.instance.len(),
        "{what}: one count per slot"
    );
    for (slot, row) in got.instance.iter().enumerate() {
        let at = want.instance.slot_of(&row).expect("same set");
        assert_eq!(
            got.support[slot], want.support[at],
            "{what}: support of slot {slot}"
        );
    }
}

/// A random base over `universe`: `n` rows from values `0..domain`,
/// sometimes inserted in descending value order (so dictionary ids run
/// against the values) and sometimes edited afterwards (so ids are no
/// longer in first-appearance order and dead values linger).
fn random_base(rng: &mut StdRng, universe: AttrSet, n: usize, domain: u64) -> Relation {
    let arity = universe.len();
    let mut rows: Vec<Tuple> = (0..n)
        .map(|_| Tuple::new((0..arity).map(|_| Value::int(rng.gen_range(0..domain)))))
        .collect();
    if rng.gen_bool(0.3) {
        rows.sort_unstable_by(|a, b| b.cmp(a));
    }
    let mut base = Relation::from_rows(universe, rows).unwrap();
    if rng.gen_bool(0.5) {
        for _ in 0..n / 3 {
            if base.is_empty() {
                break;
            }
            let victim = base.row(rng.gen_range(0..base.len())).to_tuple();
            base.remove(&victim);
            let fresh = Tuple::new((0..arity).map(|_| Value::int(rng.gen_range(0..domain))));
            base.insert(fresh).unwrap();
        }
    }
    base
}

#[test]
fn bulk_build_equals_folding_every_row() {
    let universe = attrs(&[0, 1, 2, 3]);
    let mut rng = StdRng::seed_from_u64(0xB01D);
    let (mut disjoint, mut over_view, mut selections, mut dup_heavy) = (0, 0, 0, 0);
    for case in 0..600 {
        let x = random_attrs(&mut rng, 4);
        // Y covers U − X and some of X: X∩Y is empty a quarter of the time.
        let rest: AttrSet = universe.iter().filter(|&a| !x.contains(a)).collect();
        let y = match rng.gen_bool(0.25) {
            true if !rest.is_empty() => rest,
            _ => rest | x.iter().filter(|_| rng.gen_bool(0.5)).collect::<AttrSet>(),
        };
        let y = if y.is_empty() { x } else { y };
        disjoint += usize::from((x & y).is_empty());
        // Small domains pile many rows on each projection; large ones
        // make almost every projection distinct.
        let domain = [2, 3, 1000][case % 3];
        dup_heavy += usize::from(domain < 1000);
        let n = rng.gen_range(0..48);
        let base = random_base(&mut rng, universe, n, domain);
        let mut def = ViewDef::new("v".into(), x, y, Policy::Exact, None, false, 0);
        if rng.gen_bool(0.3) {
            let a = x.iter().next().unwrap();
            def = def.with_pred(Pred::cmp(a, CmpOp::Lt, domain.min(2)));
            selections += 1;
        }
        let what = format!("case {case}: x {x:?} y {y:?}");
        let built = ViewMat::build(&base, None, &def, None).unwrap();
        assert_build_matches_folds(&built, &base, None, &def, false, &what);
        // A child fed from this view's instance: π_cx over π_x.
        let cx: AttrSet = x.iter().filter(|_| rng.gen_bool(0.6)).collect();
        if !cx.is_empty() {
            let child = ViewDef::new("c".into(), cx, universe - cx, Policy::Exact, None, false, 0);
            let feed = built.instance.clone();
            let got = ViewMat::build(&base, Some(&feed), &child, None).unwrap();
            assert_build_matches_folds(&got, &base, Some(&feed), &child, false, &what);
            over_view += 1;
        }
    }
    assert!(
        disjoint > 50 && over_view > 200 && selections > 100 && dup_heavy > 300,
        "{disjoint} / {over_view} / {selections} / {dup_heavy}"
    );
}

#[test]
fn rebuild_over_a_published_instance_keeps_its_order() {
    // Folds swap-remove and append, so after a few commits the instance
    // is in neither first-occurrence nor value order; a rebuild that
    // adopts it must keep that order and count each tuple afresh.
    let universe = attrs(&[0, 1, 2]);
    let mut rng = StdRng::seed_from_u64(0xAD0B7);
    let mut reordered = 0;
    for case in 0..200 {
        let x = random_attrs(&mut rng, 3);
        let y = (universe - x) | x.iter().take(1).collect::<AttrSet>();
        let mut def = ViewDef::new("v".into(), x, y, Policy::Exact, None, false, 0);
        if case % 2 == 0 {
            def = def.with_pred(Pred::cmp(x.iter().next().unwrap(), CmpOp::Lt, 2));
        }
        let mut base = random_base(&mut rng, universe, 24, 4);
        let mut m = ViewMat::build(&base, None, &def, None).unwrap();
        for _ in 0..4 {
            let removed: Vec<Tuple> = base
                .iter()
                .take(rng.gen_range(0..6))
                .map(|r| r.to_tuple())
                .collect();
            let mut added: Vec<Tuple> = Vec::new();
            for _ in 0..rng.gen_range(0..6) {
                let t = Tuple::new((0..3).map(|_| Value::int(rng.gen_range(0..4))));
                if !base.contains(&t) && !added.contains(&t) {
                    added.push(t);
                }
            }
            let (a, r) = (buf(&added), buf(&removed));
            base.apply_delta(r.block().iter(), a.block().iter())
                .unwrap();
            m.fold_instance(a.block(), r.block());
            m.fold_complement(a.block(), r.block());
        }
        let published = ViewSnap::of(&m);
        let rebuilt = ViewMat::build(&base, None, &def, Some(&published)).unwrap();
        assert_eq!(
            rebuilt.instance.rows(),
            m.instance.rows(),
            "case {case}: published order"
        );
        assert_eq!(rebuilt.support, m.support, "case {case}: support");
        if let (Some((p, q)), Some((pm, qm))) = (&rebuilt.split, &m.split) {
            assert_eq!(
                (p.rows(), q.rows()),
                (pm.rows(), qm.rows()),
                "case {case}: split"
            );
        }
        assert_build_matches_folds(&rebuilt, &base, None, &def, true, &format!("case {case}"));
        reordered += usize::from(m.instance.rows() != ops::project(&base, x).unwrap().rows());
    }
    assert!(
        reordered > 50,
        "{reordered} of 200 instances left first-occurrence order"
    );
}
