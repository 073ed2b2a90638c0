//! §4.2: translating replacements (Theorem 9).
//!
//! Replacing `t₁ ∈ V` by `t₂ ∉ V` under constant complement translates as
//! `R ← (R − t₁ * π_Y(R)) ∪ t₂ * π_Y(R)` iff
//!
//! * (a) either `t₁[X∩Y] = t₂[X∩Y]` (case 2), or both
//!   `t₁[X∩Y] ∈ π_{X∩Y}(V − t₁)` and `t₂[X∩Y] ∈ π_{X∩Y}(V)` (case 1);
//! * (b) in case 1, `Σ ⊨ X∩Y → Y` and `Σ ⊭ X∩Y → X` (no restriction in
//!   case 2);
//! * (c) `Chase_Σ[R(V, t₂, r, f)]` succeeds for every `f ∈ Σ` and every
//!   `r ∈ V`, `r ≠ t₁`.
//!
//! Case 2 is where condition (c)'s skipped pre-chase fires (see
//! `insert::condition_c`). When `Y − X ≠ ∅` and no FD of Σ maps `X`
//! into `Y − X`, the closure `(X∩Y)⁺` never leaves `X`, so `Σ ⊭ X∩Y → Y`
//! and condition (b) already rejects every insert and every case-1
//! replace. A case-2 replace has no condition (b): a manager change on
//! `mgrs = π{D, M}` with complement `{E, D}` under `E → D, D → M` is one,
//! and its condition (c) runs without filling or chasing `V`.

use relvu_deps::FdSet;
use relvu_relation::{AttrSet, Relation, Schema, Tuple};

use crate::common::ViewCtx;
use crate::insert::condition_c;
use crate::outcome::{RejectReason, Translatability, Translation};
use crate::{CoreError, Result};

/// Test translatability of replacing `t1` by `t2` in view instance `v`
/// (Theorem 9).
///
/// # Errors
/// Input errors (geometry, nulls, arity, `t1 ∉ V`, `t2 ∈ V`, or `V`
/// invalid).
pub fn translate_replace(
    schema: &Schema,
    fds: &FdSet,
    x: AttrSet,
    y: AttrSet,
    v: &Relation,
    t1: &Tuple,
    t2: &Tuple,
) -> Result<Translatability> {
    let _timer = relvu_obs::histogram!("core.translate_replace_ns").timer();
    let ctx = ViewCtx::validate(schema, x, y, v, &[t1, t2])?;
    if !v.contains(t1) {
        return Err(CoreError::TupleNotInView);
    }
    // Replacing by itself is the identity; replacing by another tuple
    // already present is outside Theorem 9 (`t₂ ∉ V`), an input error.
    if t1 == t2 {
        return Ok(Translatability::Translatable(Translation::Identity));
    }
    if v.contains(t2) {
        return Err(CoreError::TupleAlreadyInView);
    }
    // μ candidates: rows of V agreeing with t2 on X∩Y. In case 2 that
    // includes t1 itself, which is fine — the Y-information survives
    // because t2 inherits it.
    let mu_rows = ctx.mu_rows(v, t2);
    if !t1.agrees(&ctx.x, t2, &ctx.x, &ctx.shared) {
        // Case 1 preconditions (a) and (b). `t1 ∈ V` matches itself, so
        // "another row agrees on X∩Y" is a second match; the scan stops
        // there.
        let t1_elsewhere = v
            .slots_agreeing(t1, &ctx.x, ctx.shared, None)
            .nth(1)
            .is_some();
        if !t1_elsewhere {
            return Ok(Translatability::Rejected(
                RejectReason::IntersectionNotInRemainder,
            ));
        }
        if mu_rows.is_empty() {
            return Ok(Translatability::Rejected(
                RejectReason::ReplacementTargetNotInView,
            ));
        }
        if let Some(reason) = ctx.condition_b(fds) {
            return Ok(Translatability::Rejected(reason));
        }
    }
    let Some(&mu) = mu_rows.first() else {
        // Case 2 with t1 the only carrier: t1 itself matches, so this is
        // only reachable in genuinely empty cases.
        return Ok(Translatability::Rejected(
            RejectReason::ReplacementTargetNotInView,
        ));
    };
    // (c): the chase test for inserting t2, with witnesses r ≠ t1 — t1's
    // base tuples are removed by the update.
    Ok(match condition_c(&ctx, fds, v, t2, mu, v.slot_of(t1))? {
        Some(reason) => Translatability::Rejected(reason),
        None => Translatability::Translatable(Translation::ReplaceJoin {
            t1: t1.clone(),
            t2: t2.clone(),
        }),
    })
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
    fn case2_rename_employee_same_department() {
        let (s, fds, x, y, v) = edm();
        // Same X∩Y (D = 20): replace employee 3 by employee 4.
        let out = translate_replace(&s, &fds, x, y, &v, &tup![3, 20], &tup![4, 20]).unwrap();
        assert!(out.is_translatable());
    }

    #[test]
    fn case1_move_needs_sibling() {
        let (s, fds, x, y, v) = edm();
        // Moving employee 3 (sole member of dept 20) to dept 10 would drop
        // dept 20's manager from the complement.
        let out = translate_replace(&s, &fds, x, y, &v, &tup![3, 20], &tup![4, 10]).unwrap();
        assert_eq!(
            out.reject_reason(),
            Some(&RejectReason::IntersectionNotInRemainder)
        );
        // Moving employee 1 (dept 10 keeps employee 2) to dept 20 is fine.
        let out = translate_replace(&s, &fds, x, y, &v, &tup![1, 10], &tup![4, 20]).unwrap();
        assert!(out.is_translatable());
    }

    #[test]
    fn case1_target_department_must_exist() {
        let (s, fds, x, y, v) = edm();
        let out = translate_replace(&s, &fds, x, y, &v, &tup![1, 10], &tup![1, 30]).unwrap();
        assert_eq!(
            out.reject_reason(),
            Some(&RejectReason::ReplacementTargetNotInView)
        );
    }

    #[test]
    fn chase_condition_can_reject() {
        let (s, fds, x, y, v) = edm();
        // Replace (3,20) by (2,20): employee 2 already in dept 10 — E->D
        // violated against the remaining row (2,10).
        let out = translate_replace(&s, &fds, x, y, &v, &tup![3, 20], &tup![2, 20]).unwrap();
        assert!(matches!(
            out.reject_reason(),
            Some(&RejectReason::ChaseCounterexample { .. })
        ));
        // But replacing (1,10) by ... (1,20)? t1=(1,10) removed, so E->D
        // no longer conflicts for employee 1.
        let out = translate_replace(&s, &fds, x, y, &v, &tup![1, 10], &tup![1, 20]).unwrap();
        assert!(out.is_translatable());
    }

    #[test]
    fn applied_replacement_preserves_complement() {
        let (s, fds, x, y, v) = edm();
        let r = Relation::from_rows(
            s.universe(),
            [tup![1, 10, 100], tup![2, 10, 100], tup![3, 20, 200]],
        )
        .unwrap();
        let out = translate_replace(&s, &fds, x, y, &v, &tup![1, 10], &tup![4, 20]).unwrap();
        let r2 = out.translation().unwrap().apply(&r, x, y).unwrap();
        let mut v2 = v.clone();
        v2.remove(&tup![1, 10]);
        v2.insert(tup![4, 20]).unwrap();
        assert_eq!(ops::project(&r2, x).unwrap(), v2);
        assert_eq!(ops::project(&r2, y).unwrap(), ops::project(&r, y).unwrap());
        assert!(satisfies_fds(&r2, &fds));
    }

    #[test]
    fn input_errors() {
        let (s, fds, x, y, v) = edm();
        // t1 not in V.
        assert!(matches!(
            translate_replace(&s, &fds, x, y, &v, &tup![9, 10], &tup![4, 20]),
            Err(CoreError::TupleNotInView)
        ));
        // Self-replacement is identity.
        let out = translate_replace(&s, &fds, x, y, &v, &tup![1, 10], &tup![1, 10]).unwrap();
        assert_eq!(out.translation(), Some(&Translation::Identity));
        // t2 already present.
        assert!(translate_replace(&s, &fds, x, y, &v, &tup![1, 10], &tup![2, 10]).is_err());
    }
}
