//! The paper's literal sort-based chase (Corollary to Theorem 3).
//!
//! > Initialize R* to be R(V, t, r, f).
//! > Repeat until no new change is made on R*:
//! >   For each FD Z → A in Σ do:
//! >     Sort R* lexicographically according to the elements of the Z
//! >     columns.
//! >     Find the first pair of consecutive tuples μ, ν such that
//! >     μ\[Z\] = ν\[Z\], μ\[A\] ≠ ν\[A\].
//! >     Replace μ\[A\] by ν\[A\] throughout the A column.
//!
//! This is the algorithm behind the paper's `O(|V|² log |V| |Σ| |Y−X|)`
//! per-chase bound. The union-find chase in [`crate::ChaseState`] computes
//! the same fixpoint without re-sorting; experiment E1's ablation compares
//! them. Results are cross-checked by homomorphic equivalence in the
//! tests (null names differ between the two algorithms).

use relvu_deps::FdSet;
use relvu_relation::{Relation, Tuple, Value};

use crate::fd_chase::ChaseOutcome;
use crate::unionfind::ConstConflict;

/// Substitute `from → to` throughout one column of all rows.
fn substitute(rows: &mut [Tuple], col: usize, from: Value, to: Value) {
    for row in rows.iter_mut() {
        if row.at(col) == from {
            *row.at_mut(col) = to;
        }
    }
}

/// Pick the replacement direction for equating `a` and `b` (a constant
/// absorbs a null; between nulls, the smaller id wins — the paper's
/// "replace a_j by a_i, i < j").
fn orient(a: Value, b: Value) -> Result<(Value, Value), ConstConflict> {
    match (a, b) {
        (Value::Const(x), Value::Const(y)) => {
            debug_assert_ne!(x, y);
            Err(ConstConflict { left: x, right: y })
        }
        (Value::Const(_), Value::Null(_)) => Ok((b, a)), // null := const
        (Value::Null(_), Value::Const(_)) => Ok((a, b)),
        (Value::Null(x), Value::Null(y)) => {
            if x < y {
                Ok((b, a))
            } else {
                Ok((a, b))
            }
        }
    }
}

/// Chase `rel` with `fds` using the paper's sort-based algorithm.
///
/// Semantically identical to [`crate::chase_fds`]; retained as the
/// faithful implementation of the Corollary's pseudocode and as the
/// ablation baseline.
pub fn chase_fds_sorted(rel: &Relation, fds: &FdSet) -> ChaseOutcome {
    let attrs = rel.attrs();
    let atomized = fds.atomized();
    let mut rows: Vec<Tuple> = rel.iter().map(|t| t.to_tuple()).collect();
    // Dense column positions per FD, computed once.
    let plans: Vec<(Vec<usize>, usize)> = atomized
        .iter()
        .filter_map(|fd| {
            let z: Option<Vec<usize>> = fd.lhs().iter().map(|a| attrs.rank(a)).collect();
            let a = attrs.rank(fd.rhs().first()?)?;
            Some((z?, a))
        })
        .collect();
    loop {
        let mut changed = false;
        for (z_cols, a_col) in &plans {
            // Sort lexicographically by the Z columns.
            rows.sort_by(|p, q| {
                for &c in z_cols {
                    match p.at(c).cmp(&q.at(c)) {
                        std::cmp::Ordering::Equal => continue,
                        other => return other,
                    }
                }
                std::cmp::Ordering::Equal
            });
            // First consecutive pair agreeing on Z, disagreeing on A.
            let mut found: Option<(Value, Value)> = None;
            for w in rows.windows(2) {
                let same_z = z_cols.iter().all(|&c| w[0].at(c) == w[1].at(c));
                if same_z && w[0].at(*a_col) != w[1].at(*a_col) {
                    found = Some((w[0].at(*a_col), w[1].at(*a_col)));
                    break;
                }
            }
            if let Some((a, b)) = found {
                match orient(a, b) {
                    Ok((from, to)) => {
                        substitute(&mut rows, *a_col, from, to);
                        changed = true;
                    }
                    Err(conflict) => return ChaseOutcome::Inconsistent(conflict),
                }
            }
        }
        if !changed {
            break;
        }
    }
    let out = Relation::from_rows(attrs, rows).expect("same arity");
    ChaseOutcome::Consistent(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase_fds;
    use relvu_deps::check::satisfies_fds;
    use relvu_relation::{tup, AttrSet, Schema};
    use std::collections::HashMap;

    /// Is there a null-renaming homomorphism h with h(a) = b (constants
    /// fixed, each row of `a` mapped onto some row of `b`, bijectively)?
    fn hom_equiv(a: &Relation, b: &Relation) -> bool {
        fn maps_onto(a: &Relation, b: &Relation) -> bool {
            if a.len() != b.len() {
                return false;
            }
            // Backtracking search for a row matching + null mapping.
            fn try_rows(
                a_rows: &[Tuple],
                b: &Relation,
                used: &mut Vec<bool>,
                map: &mut HashMap<Value, Value>,
                i: usize,
            ) -> bool {
                if i == a_rows.len() {
                    return true;
                }
                for (j, cand) in b.rows().iter().enumerate() {
                    if used[j] {
                        continue;
                    }
                    // Try to extend `map` to send a_rows[i] to cand.
                    let mut added = Vec::new();
                    let mut ok = true;
                    for (va, vb) in a_rows[i].values().zip(cand.values()) {
                        match va {
                            Value::Const(_) => {
                                if va != vb {
                                    ok = false;
                                    break;
                                }
                            }
                            Value::Null(_) => match map.get(&va) {
                                Some(&prev) => {
                                    if prev != vb {
                                        ok = false;
                                        break;
                                    }
                                }
                                None => {
                                    map.insert(va, vb);
                                    added.push(va);
                                }
                            },
                        }
                    }
                    if ok {
                        used[j] = true;
                        if try_rows(a_rows, b, used, map, i + 1) {
                            return true;
                        }
                        used[j] = false;
                    }
                    for k in added {
                        map.remove(&k);
                    }
                }
                false
            }
            let mut used = vec![false; b.len()];
            let mut map = HashMap::new();
            try_rows(&a.rows().to_vec(), b, &mut used, &mut map, 0)
        }
        maps_onto(a, b) && maps_onto(b, a)
    }

    #[test]
    fn agrees_with_unionfind_chase_on_random_inputs() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        let s = Schema::new(["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&s, "A->B; B C->D; D->C; A->C").unwrap();
        let mut null = 0u64;
        for _ in 0..150 {
            let mut r = Relation::new(s.universe());
            for _ in 0..rng.gen_range(1..8) {
                let row: Tuple = (0..4)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            Value::int(rng.gen_range(0..3))
                        } else {
                            null += 1;
                            Value::Null(null)
                        }
                    })
                    .collect();
                r.insert(row).unwrap();
            }
            let uf = chase_fds(&r, &fds);
            let sorted = chase_fds_sorted(&r, &fds);
            match (uf, sorted) {
                (ChaseOutcome::Consistent(a), ChaseOutcome::Consistent(b)) => {
                    assert!(satisfies_fds(&a, &fds));
                    assert!(satisfies_fds(&b, &fds));
                    assert!(
                        hom_equiv(&a, &b),
                        "chase results must be identical up to null renaming:\n{a:?}\nvs\n{b:?}"
                    );
                }
                (ChaseOutcome::Inconsistent(_), ChaseOutcome::Inconsistent(_)) => {}
                (x, y) => panic!("consistency verdicts differ: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn detects_constant_conflicts() {
        let s = Schema::new(["A", "B"]).unwrap();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let r = Relation::from_rows(s.universe(), [tup![1, 5], tup![1, 6]]).unwrap();
        assert!(matches!(
            chase_fds_sorted(&r, &fds),
            ChaseOutcome::Inconsistent(_)
        ));
    }

    #[test]
    fn substitution_direction_prefers_constants() {
        let s = Schema::new(["A", "B"]).unwrap();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let r = Relation::from_rows(
            s.universe(),
            [
                Tuple::new([Value::int(1), Value::Null(9)]),
                Tuple::new([Value::int(1), Value::int(7)]),
            ],
        )
        .unwrap();
        match chase_fds_sorted(&r, &fds) {
            ChaseOutcome::Consistent(out) => {
                assert_eq!(out.len(), 1);
                assert!(out.contains(&tup![1, 7]));
            }
            other => panic!("expected consistent, got {other:?}"),
        }
        let _ = AttrSet::new();
    }

    #[test]
    fn empty_and_single_row_are_fixpoints() {
        let s = Schema::new(["A", "B"]).unwrap();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let empty = Relation::new(s.universe());
        assert!(matches!(
            chase_fds_sorted(&empty, &fds),
            ChaseOutcome::Consistent(r) if r.is_empty()
        ));
        let one = Relation::from_rows(s.universe(), [tup![1, 2]]).unwrap();
        assert!(matches!(
            chase_fds_sorted(&one, &fds),
            ChaseOutcome::Consistent(r) if r.len() == 1
        ));
    }
}
