//! §3.1 Test 1: the two-tuple-chase approximation.
//!
//! Instead of chasing the whole `R(V, t, r, f)`, Test 1 chases, for each
//! candidate witness `r` and each tuple `μ` agreeing with `t` on `X ∩ Y`,
//! only the two-tuple relation `{r, μ}` — demanding that the
//! translatability chase "succeeds fast, if it succeeds at all". It is
//! *stronger* than Theorem 3's condition: every insertion it accepts is
//! translatable, but it may reject translatable insertions (experiment E2
//! measures how often). Worst case `O(|V| log |V| · 2^{|U|} · |Σ|)` per the
//! paper; this implementation takes the direct `O(|V|² |Σ|)` route the
//! paper also mentions, which wins whenever `|V|/log|V| < 2^{|U|}` — i.e.
//! for every workload in our benches.

use relvu_chase::ChaseState;
use relvu_deps::FdSet;
use relvu_relation::{AttrSet, Relation, Schema, Tuple};

use crate::common::ViewCtx;
use crate::outcome::{RejectReason, Translatability, Translation};
use crate::Result;

/// Test 1: conservative insertion-translatability via two-tuple chases.
#[derive(Debug, Clone, Copy, Default)]
pub struct Test1;

impl Test1 {
    /// Run Test 1 on the insertion of `t` into `v`.
    ///
    /// Acceptance implies translatability (soundness, property-tested in
    /// the integration suite); rejection is inconclusive.
    ///
    /// # Errors
    /// Input errors only, as for [`crate::translate_insert`].
    pub fn check(
        &self,
        schema: &Schema,
        fds: &FdSet,
        x: AttrSet,
        y: AttrSet,
        v: &Relation,
        t: &Tuple,
    ) -> Result<Translatability> {
        let _timer = relvu_obs::histogram!("core.test1_ns").timer();
        let ctx = ViewCtx::validate(schema, x, y, v, &[t])?;
        if v.contains(t) {
            return Ok(Translatability::Translatable(Translation::Identity));
        }
        let mu_rows = ctx.mu_rows(v, t);
        if mu_rows.is_empty() {
            return Ok(Translatability::Rejected(
                RejectReason::IntersectionNotInView,
            ));
        }
        if let Some(reason) = ctx.condition_b(fds) {
            return Ok(Translatability::Rejected(reason));
        }

        let atomized = fds.atomized();
        for (fd_index, fd) in atomized.iter().enumerate() {
            let z = fd.lhs();
            let a = fd.rhs().first().expect("atomized");
            let z_in_rest = z & ctx.y_minus_x;
            let a_in_rest = ctx.y_minus_x.contains(a);
            for row in ctx.qualifying_rows(v, t, z, a) {
                let row = row as usize;
                let mut succeeded = false;
                for &mu in &mu_rows {
                    if two_tuple_chase_succeeds(&ctx, fds, v, row, mu, z_in_rest, a_in_rest, a) {
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
        Ok(Translatability::Translatable(Translation::InsertJoin {
            t: t.clone(),
        }))
    }
}

/// Chase the two-tuple relation `{r, μ}` (rows of the null-filled `V`)
/// after identifying `r[Z ∩ (Y−X)]` with `μ[Z ∩ (Y−X)]`; report the
/// paper's success events.
#[allow(clippy::too_many_arguments)]
fn two_tuple_chase_succeeds(
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
        // A row never disagrees with itself: if A ∈ Y−X the equality is
        // trivial; if A ∈ X, `qualifies` ensured r[A] ≠ t[A], but r = μ
        // also agrees with t on X∩Y — only a real chase event counts, and
        // a single-row relation generates none.
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
    match crate::common::run_chase(&mut st, fds) {
        Err(_) => true,
        Ok(_) => a_in_rest && st.equated(ctx.null_of(row, a), ctx.null_of(mu, a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert::translate_insert;
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
    fn accepts_simple_translatable_insert() {
        let (s, fds, x, y, v) = edm();
        let out = Test1.check(&s, &fds, x, y, &v, &tup![4, 20]).unwrap();
        assert!(out.is_translatable());
    }

    #[test]
    fn rejects_condition_a_and_b_like_exact() {
        let (s, fds, x, y, v) = edm();
        let out = Test1.check(&s, &fds, x, y, &v, &tup![4, 30]).unwrap();
        assert_eq!(
            out.reject_reason(),
            Some(&RejectReason::IntersectionNotInView)
        );
        let out = Test1
            .check(&s, &FdSet::default(), x, y, &v, &tup![4, 20])
            .unwrap();
        assert_eq!(
            out.reject_reason(),
            Some(&RejectReason::ComplementNotDetermined)
        );
    }

    #[test]
    fn rejects_direct_view_violation() {
        let (s, fds, x, y, v) = edm();
        // E -> D violated inside the view: employee 1 into a second dept.
        let out = Test1.check(&s, &fds, x, y, &v, &tup![1, 20]).unwrap();
        assert!(!out.is_translatable());
    }

    #[test]
    fn never_accepts_what_exact_rejects() {
        // Soundness spot-check on the EDM family (the integration suite
        // does the broad property test).
        let (s, fds, x, y, v) = edm();
        for e in 0..6u64 {
            for d in [10u64, 20, 30] {
                let t = tup![e, d];
                let t1 = Test1.check(&s, &fds, x, y, &v, &t).unwrap();
                let exact = translate_insert(&s, &fds, x, y, &v, &t).unwrap();
                if t1.is_translatable() {
                    assert!(
                        exact.is_translatable(),
                        "Test 1 accepted an untranslatable insert {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn existing_tuple_is_identity() {
        let (s, fds, x, y, v) = edm();
        let out = Test1.check(&s, &fds, x, y, &v, &tup![1, 10]).unwrap();
        assert_eq!(out.translation(), Some(&Translation::Identity));
    }
}
