//! §4.1: translating deletions (Theorem 8).
//!
//! Deleting `t ∈ V` under constant complement `Y` is translatable as
//! `R ← R − t * π_Y(R)` iff
//!
//! * (a) `t[X∩Y] ∈ π_{X∩Y}(V − t)` — some *other* view tuple carries the
//!   same shared values, so the complement loses nothing;
//! * (b) `Σ ⊨ X∩Y → Y` and `Σ ⊭ X∩Y → X`.
//!
//! No chase is needed: with FDs only, a subset of a legal instance is
//! legal, so the `O(|V| + |Σ|)` test is complete.

use relvu_deps::FdSet;
use relvu_relation::{AttrSet, Relation, Schema, Tuple};

use crate::common::ViewCtx;
use crate::outcome::{RejectReason, Translatability, Translation};
use crate::Result;

/// Test translatability of deleting `t` from view instance `v` (Theorem 8).
///
/// A `t ∉ V` is an identity update (the view is unchanged).
///
/// # Errors
/// Input errors only (geometry, nulls, arity).
pub fn translate_delete(
    schema: &Schema,
    fds: &FdSet,
    x: AttrSet,
    y: AttrSet,
    v: &Relation,
    t: &Tuple,
) -> Result<Translatability> {
    let _timer = relvu_obs::histogram!("core.translate_delete_ns").timer();
    let ctx = ViewCtx::validate(schema, x, y, v, &[t])?;
    if !v.contains(t) {
        return Ok(Translatability::Translatable(Translation::Identity));
    }
    // (a): another tuple of V must carry t's X∩Y projection. `t ∈ V`
    // matches itself in the columnar scan, so "some other row agrees"
    // is a second match; the scan stops there.
    let has_other = v
        .slots_agreeing(t, &ctx.x, ctx.shared, None)
        .nth(1)
        .is_some();
    if !has_other {
        return Ok(Translatability::Rejected(
            RejectReason::IntersectionNotInRemainder,
        ));
    }
    // (b).
    if let Some(reason) = ctx.condition_b(fds) {
        return Ok(Translatability::Rejected(reason));
    }
    Ok(Translatability::Translatable(Translation::DeleteJoin {
        t: t.clone(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relvu_deps::check::satisfies_fds;
    use relvu_relation::{ops, tup};

    fn edm() -> (Schema, FdSet, AttrSet, AttrSet, Relation) {
        let s = Schema::new(["E", "D", "M"]).unwrap();
        let fds = FdSet::parse(&s, "E->D; D->M").unwrap();
        let x = s.set(["E", "D"]).unwrap();
        let y = s.set(["D", "M"]).unwrap();
        let v = Relation::from_rows(x, [tup![1, 10], tup![2, 10], tup![3, 20]]).unwrap();
        (s, fds, x, y, v)
    }

    #[test]
    fn delete_with_sibling_is_translatable() {
        let (s, fds, x, y, v) = edm();
        // Dept 10 has two employees: deleting one keeps D=10 in π_{D}(V).
        let out = translate_delete(&s, &fds, x, y, &v, &tup![1, 10]).unwrap();
        assert_eq!(
            out.translation(),
            Some(&Translation::DeleteJoin { t: tup![1, 10] })
        );
    }

    #[test]
    fn deleting_last_of_department_rejected() {
        let (s, fds, x, y, v) = edm();
        // Employee 3 is the only one in dept 20: deletion would erase the
        // manager of 20 from the complement.
        let out = translate_delete(&s, &fds, x, y, &v, &tup![3, 20]).unwrap();
        assert_eq!(
            out.reject_reason(),
            Some(&RejectReason::IntersectionNotInRemainder)
        );
    }

    #[test]
    fn absent_tuple_is_identity() {
        let (s, fds, x, y, v) = edm();
        let out = translate_delete(&s, &fds, x, y, &v, &tup![9, 10]).unwrap();
        assert_eq!(out.translation(), Some(&Translation::Identity));
    }

    #[test]
    fn condition_b_still_applies() {
        let (s, _, x, y, v) = edm();
        let out = translate_delete(&s, &FdSet::default(), x, y, &v, &tup![1, 10]).unwrap();
        assert_eq!(
            out.reject_reason(),
            Some(&RejectReason::ComplementNotDetermined)
        );
    }

    #[test]
    fn applied_deletion_preserves_complement_and_legality() {
        let (s, fds, x, y, v) = edm();
        let r = Relation::from_rows(
            s.universe(),
            [tup![1, 10, 100], tup![2, 10, 100], tup![3, 20, 200]],
        )
        .unwrap();
        let out = translate_delete(&s, &fds, x, y, &v, &tup![1, 10]).unwrap();
        let r2 = out.translation().unwrap().apply(&r, x, y).unwrap();
        // View updated.
        let mut v2 = v.clone();
        v2.remove(&tup![1, 10]);
        assert_eq!(ops::project(&r2, x).unwrap(), v2);
        // Complement constant.
        assert_eq!(ops::project(&r2, y).unwrap(), ops::project(&r, y).unwrap());
        // Still legal (trivially, for FDs).
        assert!(satisfies_fds(&r2, &fds));
    }
}
