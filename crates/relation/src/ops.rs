//! Relational algebra operators: projection, natural join, selection,
//! union, difference, Cartesian product.
//!
//! These are the primitives the paper composes: views are projections
//! `π_X(R)`, translated insertions join `t * π_Y(R)`, complements are
//! checked via `π_X(R) * π_Y(R) = R` (Theorem 1).
//!
//! Projection works on the input's id columns alone: one sort of the
//! row slots by their interned ids finds the duplicates, and the output
//! columns are gathered by remapping ids rather than interning each
//! value again. The other operators build their result through
//! [`Relation::from_values`]'s bulk path (one `O(n log n)` index build)
//! rather than per-row `insert`s, reading each row's values straight off
//! the input's id columns — no intermediate tuples — and the join is a
//! sort/gallop merge over interned id columns instead of a tuple-keyed
//! hash join. Output row order is unchanged from the historical
//! hash-based implementations — the serialization layers depend on it.

use std::cmp::Ordering;

use crate::columnar::gallop;
use crate::{Attr, AttrSet, Relation, RelationError, Result, Row, Tuple, Value};

/// Projection `π_X(r)`. `x` must be a subset of `r`'s attributes.
///
/// The counted projection [`project_counted`] without its counts: both
/// run the same code.
///
/// # Errors
/// Fails with [`RelationError::NotASubset`] otherwise.
pub fn project(r: &Relation, x: AttrSet) -> Result<Relation> {
    project_counted(r, x).map(|(p, _)| p)
}

/// Projection `π_X(r)` with each kept row's multiplicity: the number of
/// rows of `r` projecting onto it, at the same index as its slot — the
/// support count a materialized view keeps per tuple.
///
/// Duplicates are found by one sort of `r`'s slots on their interned
/// `x` ids, before any output row is built; each run of equal ids keeps
/// its first slot and counts its length. The output's dictionaries are
/// filled by remapping the source columns' ids, so each distinct value
/// is hashed once, not once per row. First occurrence wins, so output
/// order matches a sequential insert of each row's projection.
///
/// # Errors
/// Fails with [`RelationError::NotASubset`] otherwise.
pub fn project_counted(r: &Relation, x: AttrSet) -> Result<(Relation, Vec<u64>)> {
    r.project_counted(x)
}

/// Natural join `r * s` on the shared attributes.
///
/// Implemented as a gallop merge join: `s`'s slots are sorted once by
/// the **values** of the shared columns, then each row of `r` locates
/// its matching run with a binary search plus an exponential
/// ([`gallop`]) probe for the run's end. With an empty overlap this
/// degenerates to the Cartesian product, as in the paper's
/// `t * π_Y(R)` when `X ∩ Y = ∅`.
pub fn natural_join(r: &Relation, s: &Relation) -> Result<Relation> {
    let shared = r.attrs() & s.attrs();
    let out_attrs = r.attrs() | s.attrs();
    let r_attrs = r.attrs();
    let s_attrs = s.attrs();
    // Sort side: s by shared-column values, storage order within runs —
    // so the output enumerates (r storage order) × (s storage order
    // within each key), exactly as the old insertion-ordered hash
    // buckets did.
    let s_sorted = s.slots_sorted_by(shared);
    let s_ranks = s.ranks_of(shared);
    let shared_attrs: Vec<Attr> = shared.iter().collect();
    let mut key: Vec<Value> = Vec::with_capacity(shared_attrs.len());
    let mut joined: Vec<(Row<'_>, u32)> = Vec::new();
    for t in r {
        key.clear();
        key.extend(shared_attrs.iter().map(|&a| t.get(&r_attrs, a)));
        let lo = s_sorted
            .partition_point(|&slot| s.cmp_slot_values(slot, &s_ranks, &key) == Ordering::Less);
        let run = gallop(s_sorted.len() - lo, |k| {
            s.cmp_slot_values(s_sorted[lo + k], &s_ranks, &key) == Ordering::Equal
        });
        joined.extend(s_sorted[lo..lo + run].iter().map(|&slot| (t, slot)));
    }
    // Each output column reads the r side where r has it, else s.
    let source: Vec<(bool, usize)> = out_attrs
        .iter()
        .map(|a| match r_attrs.rank(a) {
            Some(rank) => (true, rank),
            None => (false, s_attrs.rank(a).expect("output attribute in r or s")),
        })
        .collect();
    let source = &source;
    // Distinct r-rows joined with distinct s-rows cannot collide, so
    // from_values' dedup is a no-op; it only builds the sorted index.
    Relation::from_values(
        out_attrs,
        joined.into_iter().map(|(t, slot)| {
            let u = s.row(slot as usize);
            source
                .iter()
                .map(move |&(from_r, rank)| if from_r { t.at(rank) } else { u.at(rank) })
        }),
    )
}

/// Selection `σ_P(r)`.
pub fn select<P: FnMut(&Row<'_>) -> bool>(r: &Relation, mut pred: P) -> Relation {
    Relation::from_values(r.attrs(), r.iter().filter(|t| pred(t)).map(|t| t.values()))
        .expect("rows already have the relation's arity")
}

/// Union `r ∪ s` (same attribute set required). Output order: `r`'s
/// rows in storage order, then `s`'s novel rows in storage order.
///
/// # Errors
/// Fails with [`RelationError::SchemaMismatch`] if the attribute sets differ.
pub fn union(r: &Relation, s: &Relation) -> Result<Relation> {
    if r.attrs() != s.attrs() {
        return Err(RelationError::SchemaMismatch);
    }
    Relation::from_values(
        r.attrs(),
        r.iter()
            .chain(s.iter().filter(|t| !r.contains(t)))
            .map(|t| t.values()),
    )
}

/// Difference `r − s` (same attribute set required).
///
/// # Errors
/// Fails with [`RelationError::SchemaMismatch`] if the attribute sets differ.
pub fn difference(r: &Relation, s: &Relation) -> Result<Relation> {
    if r.attrs() != s.attrs() {
        return Err(RelationError::SchemaMismatch);
    }
    Relation::from_values(
        r.attrs(),
        r.iter().filter(|t| !s.contains(t)).map(|t| t.values()),
    )
}

/// Cartesian product `r × s` (disjoint attribute sets required).
///
/// # Errors
/// Fails with [`RelationError::NotDisjoint`] if the attribute sets overlap.
pub fn product(r: &Relation, s: &Relation) -> Result<Relation> {
    if !r.attrs().is_disjoint(&s.attrs()) {
        return Err(RelationError::NotDisjoint);
    }
    natural_join(r, s)
}

/// Join a single tuple `t` over `t_attrs` with a relation: the paper's
/// `t * π_Y(R)` (§3.1).
pub fn tuple_join(t: &Tuple, t_attrs: AttrSet, r: &Relation) -> Result<Relation> {
    let single = Relation::from_rows(t_attrs, [t.clone()])?;
    natural_join(&single, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tup, Attr};

    fn set(ids: &[usize]) -> AttrSet {
        ids.iter().map(|&i| Attr::new(i)).collect()
    }

    fn rel(attrs: &[usize], rows: &[&[u64]]) -> Relation {
        Relation::from_rows(
            set(attrs),
            rows.iter()
                .map(|r| r.iter().map(|&v| crate::Value::int(v)).collect()),
        )
        .unwrap()
    }

    #[test]
    fn project_dedups() {
        let r = rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 10]]);
        let p = project(&r, set(&[0])).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.contains(&tup![1]));
        assert!(p.contains(&tup![2]));
        assert!(project(&r, set(&[5])).is_err());
    }

    /// The reference: insert each row's projection in storage order,
    /// counting repeats.
    fn counted_by_inserts(r: &Relation, x: AttrSet) -> (Vec<Tuple>, Vec<u64>) {
        let ranks: Vec<usize> = x.iter().map(|a| r.attrs().rank(a).unwrap()).collect();
        let mut rows: Vec<Tuple> = Vec::new();
        let mut counts = Vec::new();
        for t in r {
            let p = Tuple::new(ranks.iter().map(|&i| t.at(i)));
            match rows.iter().position(|q| *q == p) {
                Some(i) => counts[i] += 1,
                None => {
                    rows.push(p);
                    counts.push(1);
                }
            }
        }
        (rows, counts)
    }

    #[test]
    fn project_counted_matches_sequential_inserts() {
        // Edited relations' dictionaries are out of first-appearance
        // order (and hold dead values), which takes the re-sorting path;
        // fresh ones take the path that reuses the first sort.
        let mut edited = rel(
            &[0, 1, 2],
            &[&[5, 1, 9], &[4, 2, 9], &[3, 1, 8], &[2, 2, 9]],
        );
        edited.remove(&tup![5, 1, 9]);
        edited.insert(tup![7, 3, 7]).unwrap();
        edited.insert(tup![1, 1, 8]).unwrap();
        edited.insert(tup![0, 3, 9]).unwrap();
        let fresh = rel(
            &[0, 1, 2],
            &[&[1, 10, 5], &[2, 10, 5], &[3, 20, 5], &[4, 10, 6]],
        );
        let mut nulls = Relation::new(set(&[0, 1]));
        for (a, b) in [(1, 0), (2, 1), (1, 2)] {
            nulls
                .insert(Tuple::new([crate::Value::int(a), crate::Value::Null(b)]))
                .unwrap();
        }
        let subsets: &[&[usize]] = &[&[], &[0], &[1], &[2], &[0, 1], &[1, 2], &[0, 2], &[0, 1, 2]];
        for r in [&edited, &fresh, &nulls] {
            for &x in subsets {
                let x = set(x);
                if !x.is_subset(&r.attrs()) {
                    continue;
                }
                let (p, counts) = project_counted(r, x).unwrap();
                p.debug_validate();
                let (rows, want) = counted_by_inserts(r, x);
                assert_eq!(
                    p.iter().map(|t| t.to_tuple()).collect::<Vec<_>>(),
                    rows,
                    "{x:?}"
                );
                assert_eq!(counts, want, "{x:?}");
                assert_eq!(
                    p.has_nulls(),
                    rows.iter().any(|t| t.values().any(|v| v.is_null()))
                );
                assert_eq!(p, project(r, x).unwrap());
            }
        }
        assert!(project_counted(&fresh, set(&[5])).is_err());
        let empty = Relation::new(set(&[0, 1]));
        assert_eq!(
            project_counted(&empty, set(&[])).unwrap().1,
            Vec::<u64>::new()
        );
    }

    #[test]
    fn join_basic() {
        // ED join DM on D — the classical Employee-Dept-Manager example.
        let ed = rel(&[0, 1], &[&[1, 10], &[2, 10], &[3, 20]]);
        let dm = rel(&[1, 2], &[&[10, 100], &[20, 200]]);
        let j = natural_join(&ed, &dm).unwrap();
        assert_eq!(j.attrs(), set(&[0, 1, 2]));
        assert_eq!(j.len(), 3);
        assert!(j.contains(&tup![1, 10, 100]));
        assert!(j.contains(&tup![2, 10, 100]));
        assert!(j.contains(&tup![3, 20, 200]));
    }

    #[test]
    fn join_disjoint_is_product() {
        let a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[1], &[&[8], &[9]]);
        let j = natural_join(&a, &b).unwrap();
        assert_eq!(j.len(), 4);
        let p = product(&a, &b).unwrap();
        assert_eq!(j, p);
        assert!(product(&a, &a).is_err());
    }

    #[test]
    fn join_no_matches_is_empty() {
        let a = rel(&[0, 1], &[&[1, 5]]);
        let b = rel(&[1, 2], &[&[6, 7]]);
        assert!(natural_join(&a, &b).unwrap().is_empty());
    }

    #[test]
    fn lossless_decomposition_example() {
        // R over EDM with E→D, D→M decomposes losslessly into ED, DM.
        let r = rel(&[0, 1, 2], &[&[1, 10, 100], &[2, 10, 100], &[3, 20, 200]]);
        let ed = project(&r, set(&[0, 1])).unwrap();
        let dm = project(&r, set(&[1, 2])).unwrap();
        assert_eq!(natural_join(&ed, &dm).unwrap(), r);
    }

    #[test]
    fn lossy_decomposition_example() {
        // ED, EM is NOT independent (paper §2): join can create spurious rows
        // only if M is not functionally tied; here it stays equal but in a
        // genuinely lossy split rows appear.
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let a = project(&r, set(&[0])).unwrap();
        let b = project(&r, set(&[1])).unwrap();
        let j = natural_join(&a, &b).unwrap();
        assert_eq!(j.len(), 4); // spurious tuples
        assert_ne!(j, r);
    }

    #[test]
    fn union_difference() {
        let a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[0], &[&[2], &[3]]);
        assert_eq!(union(&a, &b).unwrap().len(), 3);
        let d = difference(&a, &b).unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.contains(&tup![1]));
        let c = rel(&[1], &[&[1]]);
        assert!(union(&a, &c).is_err());
        assert!(difference(&a, &c).is_err());
    }

    #[test]
    fn select_filters() {
        let a = rel(&[0, 1], &[&[1, 5], &[2, 6]]);
        let attrs = a.attrs();
        let s = select(&a, |t| t.get(&attrs, Attr::new(0)) == crate::Value::int(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn tuple_join_matches_paper() {
        // t over X joined with π_Y(R): shared attrs X∩Y select matching rows.
        let pi_y = rel(&[1, 2], &[&[10, 100], &[20, 200]]);
        let t = tup![7, 10]; // over {0,1}
        let j = tuple_join(&t, set(&[0, 1]), &pi_y).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.contains(&tup![7, 10, 100]));
    }
}
