//! §4.2, last paragraph: "one can develop results analogous to the ones
//! given for the case of insertion in a straightforward way" — the Test 1
//! and Test 2 analogues for *replacements*, which the paper states exist
//! but does not spell out.
//!
//! Both reuse Theorem 9's structural conditions; they differ from the
//! exact test only in how condition (c) is checked:
//!
//! * [`test1_replace`] runs two-tuple chases (`{r, μ}` with `r ≠ t₁`) —
//!   sound, conservative;
//! * [`test2_replace`] materializes the canonical database `R₀` and
//!   checks `T_u[R₀] ⊨ Σ` directly — exact when the complement is good
//!   (same goodness notion and schema-level check as for insertions).

use relvu_chase::ChaseState;
use relvu_deps::check::satisfies_fds;
use relvu_deps::FdSet;
use relvu_relation::{ops, AttrSet, Relation, Schema, Tuple};

use crate::common::ViewCtx;
use crate::outcome::{RejectReason, Translatability, Translation};
use crate::test2::Test2;
use crate::{CoreError, Result};

/// Shared structural gate of Theorem 9 (everything except condition (c)).
/// Returns `Err(verdict)` when the verdict is already decided.
fn structural(
    schema: &Schema,
    fds: &FdSet,
    x: AttrSet,
    y: AttrSet,
    v: &Relation,
    t1: &Tuple,
    t2: &Tuple,
) -> Result<std::result::Result<ViewCtx, Translatability>> {
    let ctx = ViewCtx::validate(schema, x, y, v, &[t1, t2])?;
    if !v.contains(t1) {
        return Err(CoreError::TupleNotInView);
    }
    if t1 == t2 {
        return Ok(Err(Translatability::Translatable(Translation::Identity)));
    }
    if v.contains(t2) {
        return Err(CoreError::TupleAlreadyInView);
    }
    if !t1.agrees(&ctx.x, t2, &ctx.x, &ctx.shared) {
        // `t1 ∈ V` matches itself in the columnar scan, so "another row
        // agrees on X∩Y" is a second match; the scan stops there.
        let t1_elsewhere = v
            .slots_agreeing(t1, &ctx.x, ctx.shared, None)
            .nth(1)
            .is_some();
        if !t1_elsewhere {
            return Ok(Err(Translatability::Rejected(
                RejectReason::IntersectionNotInRemainder,
            )));
        }
        if ctx.mu_rows(v, t2).is_empty() {
            return Ok(Err(Translatability::Rejected(
                RejectReason::ReplacementTargetNotInView,
            )));
        }
        if let Some(reason) = ctx.condition_b(fds) {
            return Ok(Err(Translatability::Rejected(reason)));
        }
    }
    Ok(Ok(ctx))
}

/// Test 1 for replacements: condition (c) via two-tuple chases only.
/// Sound (acceptance implies Theorem 9 translatability, property-tested);
/// may reject translatable replacements.
///
/// # Errors
/// Input errors as for [`crate::translate_replace`].
pub fn test1_replace(
    schema: &Schema,
    fds: &FdSet,
    x: AttrSet,
    y: AttrSet,
    v: &Relation,
    t1: &Tuple,
    t2: &Tuple,
) -> Result<Translatability> {
    let ctx = match structural(schema, fds, x, y, v, t1, t2)? {
        Ok(ctx) => ctx,
        Err(verdict) => return Ok(verdict),
    };
    let mu_rows = ctx.mu_rows(v, t2);
    if mu_rows.is_empty() {
        return Ok(Translatability::Rejected(
            RejectReason::ReplacementTargetNotInView,
        ));
    }
    let t1_row = v.slot_of(t1);
    let atomized = fds.atomized();
    for (fd_index, fd) in atomized.iter().enumerate() {
        let z = fd.lhs();
        let a = fd.rhs().first().expect("atomized");
        let z_in_rest = z & ctx.y_minus_x;
        let a_in_rest = ctx.y_minus_x.contains(a);
        for row in ctx.qualifying_rows(v, t2, z, a) {
            let row = row as usize;
            if Some(row) == t1_row {
                continue;
            }
            let mut succeeded = false;
            for &mu in &mu_rows {
                if two_tuple_succeeds(&ctx, fds, v, row, mu, z_in_rest, a_in_rest, a) {
                    succeeded = true;
                    break;
                }
            }
            if !succeeded {
                return Ok(Translatability::Rejected(RejectReason::Test1NoWitness {
                    fd_index,
                    row,
                }));
            }
        }
    }
    Ok(Translatability::Translatable(Translation::ReplaceJoin {
        t1: t1.clone(),
        t2: t2.clone(),
    }))
}

#[allow(clippy::too_many_arguments)]
fn two_tuple_succeeds(
    ctx: &ViewCtx,
    fds: &FdSet,
    v: &Relation,
    row: usize,
    mu: usize,
    z_in_rest: AttrSet,
    a_in_rest: bool,
    a: relvu_relation::Attr,
) -> bool {
    if row == mu {
        return a_in_rest;
    }
    let make_row = |i: usize| -> Tuple {
        Tuple::from_pairs(
            &ctx.universe,
            ctx.universe.iter().map(|attr| {
                let val = if ctx.x.contains(attr) {
                    v.get(i, attr)
                } else {
                    ctx.null_of(i, attr)
                };
                (attr, val)
            }),
        )
        .expect("covers universe")
    };
    let two = Relation::from_rows(ctx.universe, [make_row(row), make_row(mu)]).expect("two rows");
    let mut st = ChaseState::new(&two);
    for w in z_in_rest.iter() {
        if st.unify(ctx.null_of(row, w), ctx.null_of(mu, w)).is_err() {
            return true;
        }
    }
    match st.run(fds) {
        Err(_) => true,
        Ok(_) => a_in_rest && st.equated(ctx.null_of(row, a), ctx.null_of(mu, a)),
    }
}

/// Test 2 for replacements: if the complement is good (same schema-level
/// analysis as for insertions), decide by materializing the canonical
/// database and applying the update to it.
///
/// # Errors
/// Input errors as for [`crate::translate_replace`].
pub fn test2_replace(
    prepared: &Test2,
    schema: &Schema,
    fds: &FdSet,
    v: &Relation,
    t1: &Tuple,
    t2: &Tuple,
) -> Result<Translatability> {
    let (x, y) = (prepared.x(), prepared.y());
    let ctx = match structural(schema, fds, x, y, v, t1, t2)? {
        Ok(ctx) => ctx,
        Err(verdict) => return Ok(verdict),
    };
    if !prepared.goodness().is_good() {
        return Ok(Translatability::Rejected(RejectReason::NotGoodComplement));
    }
    // Canonical database R₀, then apply the replacement and check Σ.
    let filled = ctx.fill(v);
    let mut st = ChaseState::new(&filled);
    if st.run(fds).is_err() {
        return Err(CoreError::InvalidViewInstance);
    }
    let r0 = st.materialize();
    let translation = Translation::ReplaceJoin {
        t1: t1.clone(),
        t2: t2.clone(),
    };
    let updated = translation.apply(&r0, x, y)?;
    if !satisfies_fds(&updated, fds) {
        // Identify a violated FD index for the report.
        let atomized = fds.atomized();
        let fd_index = atomized
            .iter()
            .position(|fd| !relvu_deps::check::satisfies_fd(&updated, fd))
            .unwrap_or(0);
        return Ok(Translatability::Rejected(
            RejectReason::CanonicalViolation { fd_index },
        ));
    }
    // Consistency sanity: the view actually changed as requested.
    debug_assert_eq!(ops::project(&updated, y)?, ops::project(&r0, y)?);
    Ok(Translatability::Translatable(translation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replace::translate_replace;
    use crate::test2::Test2;
    use relvu_relation::tup;

    fn edm() -> (Schema, FdSet, AttrSet, AttrSet, Relation) {
        let s = Schema::new(["E", "D", "M"]).unwrap();
        let fds = FdSet::parse(&s, "E->D; D->M").unwrap();
        let x = s.set(["E", "D"]).unwrap();
        let y = s.set(["D", "M"]).unwrap();
        let v = Relation::from_rows(x, [tup![1, 10], tup![2, 10], tup![3, 20]]).unwrap();
        (s, fds, x, y, v)
    }

    #[test]
    fn test1_replace_sound_on_edm_grid() {
        let (s, fds, x, y, v) = edm();
        for t1 in v.rows().to_vec() {
            for e in 0..6u64 {
                for d in [10u64, 20, 30] {
                    let t2 = tup![e, d];
                    if v.contains(&t2) || t1 == t2 {
                        continue;
                    }
                    let approx = test1_replace(&s, &fds, x, y, &v, &t1, &t2).unwrap();
                    let exact = translate_replace(&s, &fds, x, y, &v, &t1, &t2).unwrap();
                    if approx.is_translatable() {
                        assert!(
                            exact.is_translatable(),
                            "Test 1 (replace) accepted an untranslatable update \
                             t1={t1:?} t2={t2:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn test2_replace_exact_on_good_complement() {
        let (s, fds, x, y, v) = edm();
        let prepared = Test2::prepare(&s, &fds, x, y);
        assert!(prepared.goodness().is_good());
        for t1 in v.rows().to_vec() {
            for e in 0..6u64 {
                for d in [10u64, 20, 30] {
                    let t2 = tup![e, d];
                    if v.contains(&t2) || t1 == t2 {
                        continue;
                    }
                    let approx = test2_replace(&prepared, &s, &fds, &v, &t1, &t2).unwrap();
                    let exact = translate_replace(&s, &fds, x, y, &v, &t1, &t2).unwrap();
                    assert_eq!(
                        approx.is_translatable(),
                        exact.is_translatable(),
                        "Test 2 (replace) must be exact on a good complement \
                         t1={t1:?} t2={t2:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn structural_gates_shared_with_exact() {
        let (s, fds, x, y, v) = edm();
        // t1 not in view: input error everywhere.
        assert!(test1_replace(&s, &fds, x, y, &v, &tup![9, 9], &tup![4, 10]).is_err());
        // Identity replacement.
        let out = test1_replace(&s, &fds, x, y, &v, &tup![1, 10], &tup![1, 10]).unwrap();
        assert_eq!(out.translation(), Some(&Translation::Identity));
        // Sole-member department move: rejected structurally.
        let out = test1_replace(&s, &fds, x, y, &v, &tup![3, 20], &tup![3, 10]).unwrap();
        assert_eq!(
            out.reject_reason(),
            Some(&RejectReason::IntersectionNotInRemainder)
        );
    }
}
