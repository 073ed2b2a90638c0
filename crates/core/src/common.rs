//! Shared plumbing for the translation algorithms: input validation and
//! the paper's "fill the rows of V with new symbols in the columns of
//! Y − X" construction.

use relvu_deps::closure;
use relvu_deps::FdSet;
use relvu_relation::{Attr, AttrSet, Relation, Row, Schema, Tuple, Value};

use crate::outcome::RejectReason;
use crate::{CoreError, Result};

/// Validated view/complement geometry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ViewCtx {
    /// The view attributes `X`.
    pub x: AttrSet,
    /// The complement attributes `Y`.
    pub y: AttrSet,
    /// `X ∩ Y`.
    pub shared: AttrSet,
    /// `Y − X` (the columns filled with new symbols).
    pub y_minus_x: AttrSet,
    /// `U = X ∪ Y`.
    pub universe: AttrSet,
}

impl ViewCtx {
    /// Validate `(X, Y, V, t)` against the schema.
    ///
    /// # Errors
    /// * [`CoreError::ViewsDoNotCoverUniverse`] if `X ∪ Y ≠ U`;
    /// * [`CoreError::ViewInstanceHasNulls`] if `V` is not concrete;
    /// * [`CoreError::TupleNotOverView`] on arity mismatch.
    pub fn validate(
        schema: &Schema,
        x: AttrSet,
        y: AttrSet,
        v: &Relation,
        tuples: &[&Tuple],
    ) -> Result<Self> {
        let universe = schema.universe();
        if (x | y) != universe {
            return Err(CoreError::ViewsDoNotCoverUniverse);
        }
        if v.attrs() != x {
            return Err(CoreError::TupleNotOverView);
        }
        // O(1): the relation maintains a null-row count.
        if v.has_nulls() {
            return Err(CoreError::ViewInstanceHasNulls);
        }
        for t in tuples {
            if t.arity() != x.len() {
                return Err(CoreError::TupleNotOverView);
            }
            if t.has_null() {
                return Err(CoreError::ViewInstanceHasNulls);
            }
        }
        Ok(ViewCtx {
            x,
            y,
            shared: x & y,
            y_minus_x: y - x,
            universe,
        })
    }

    /// Check condition (b) shared by Theorems 3, 8 and 9:
    /// `Σ ⊨ X∩Y → Y` and `Σ ⊭ X∩Y → X`. Returns the reject reason if it
    /// fails.
    pub fn condition_b(&self, fds: &FdSet) -> Option<RejectReason> {
        // Memoized: every insert/delete/replace check recomputes (X∩Y)⁺
        // against the same Σ.
        let cl = closure::cache::closure_cached(fds, self.shared);
        if self.x.is_subset(&cl) {
            return Some(RejectReason::ViewSideDetermined);
        }
        if !self.y.is_subset(&cl) {
            return Some(RejectReason::ComplementNotDetermined);
        }
        None
    }

    /// Does some FD of Σ map `X` into `Y − X`: an atomized `Z → A` with
    /// `Z ⊆ X` and `A ∈ Y − X`? Only such an FD lets the chase of the
    /// filled `V` equate new symbols; without one, condition (c) skips its
    /// pre-chase (see `insert::condition_c`). `O(|Σ|)`, no allocation: an
    /// FD with `Z ⊆ X` is trivial on no attribute of `Y − X`.
    pub fn maps_x_into_rest(&self, fds: &FdSet) -> bool {
        fds.iter()
            .any(|fd| fd.lhs().is_subset(&self.x) && !fd.rhs().is_disjoint(&self.y_minus_x))
    }

    /// The labeled null filling row `row` of `V` at attribute `a ∈ Y − X`.
    /// Deterministic, so the same cell is addressable before and after the
    /// chase: id = `row · |Y−X| + rank(a)`.
    pub fn null_of(&self, row: usize, a: Attr) -> Value {
        let rank = self.y_minus_x.rank(a).expect("attribute must be in Y − X");
        Value::Null((row * self.y_minus_x.len() + rank) as u64)
    }

    /// The paper's filled relation: each row of `V` extended over `U` with
    /// fresh nulls in the `Y − X` columns, in `V`'s row order. Built
    /// column by column ([`Relation::widened`]): `V`'s `X` columns are
    /// read off their id arrays and each `Y − X` column is filled with
    /// [`ViewCtx::null_of`]'s nulls, so no row is materialized as a
    /// tuple.
    pub fn fill(&self, v: &Relation) -> Relation {
        v.widened(self.universe, |row, a| self.null_of(row, a))
            .expect("V ranges over X ⊆ U and each null is interned once")
    }

    /// Row indices of `V` agreeing with `t` on `X ∩ Y` (the μ candidates
    /// of condition (a)). Columnar: a conjunctive scan over interned id
    /// columns, O(1) when some shared value of `t` never occurs in `V`.
    pub fn mu_rows(&self, v: &Relation, t: &Tuple) -> Vec<usize> {
        let out: Vec<usize> = v
            .slots_agreeing(t, &self.x, self.shared, None)
            .map(|i| i as usize)
            .collect();
        #[cfg(debug_assertions)]
        {
            let expect: Vec<usize> = v
                .iter()
                .enumerate()
                .filter(|(_, r)| r.agrees(&self.x, t, &self.x, &self.shared))
                .map(|(i, _)| i)
                .collect();
            debug_assert_eq!(out, expect, "columnar μ scan diverged from row scan");
        }
        out
    }

    /// Row indices of `V` qualifying as potential violation witnesses for
    /// the FD `Z → A` against `t` (§3.1): agree with `t` on `Z ∩ X` and,
    /// if `A ∈ X`, disagree on `A`. Ascending order, so rejection
    /// reasons report the same `row` the historical row-wise scan did.
    pub fn qualifying_rows(&self, v: &Relation, t: &Tuple, z: AttrSet, a: Attr) -> Vec<u32> {
        let differ = self.x.contains(a).then_some(a);
        let out: Vec<u32> = v.slots_agreeing(t, &self.x, z & self.x, differ).collect();
        #[cfg(debug_assertions)]
        {
            let expect: Vec<u32> = v
                .iter()
                .enumerate()
                .filter(|(_, r)| qualifies(self, r, t, z, a))
                .map(|(i, _)| i as u32)
                .collect();
            debug_assert_eq!(out, expect, "columnar witness scan diverged from row scan");
        }
        out
    }
}

/// Run `st`'s chase to fixpoint, recording the run and its equation count
/// in the obs registry (`core.chase.runs` / `core.chase.equations`). All
/// of core's translation-path chases go through here so the counters are
/// a complete account of chase work; a failed run (constant conflict)
/// still counts as a run.
pub(crate) fn run_chase(
    st: &mut relvu_chase::ChaseState,
    fds: &FdSet,
) -> std::result::Result<usize, relvu_chase::ConstConflict> {
    let out = st.run(fds);
    relvu_obs::counter!("core.chase.runs").inc();
    if let Ok(eqs) = out {
        relvu_obs::counter!("core.chase.equations").add(eqs as u64);
    }
    out
}

/// Does row `r` qualify as a potential violation witness for the FD
/// `Z → A` against inserted tuple `t` (§3.1)? It must agree with `t` on
/// `Z ∩ X` and, if `A ∈ X`, disagree on `A`.
///
/// Row-wise reference semantics for [`ViewCtx::qualifying_rows`]'s
/// columnar scan; debug builds cross-check the two on every call.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
pub(crate) fn qualifies(ctx: &ViewCtx, r: &Row<'_>, t: &Tuple, z: AttrSet, a: Attr) -> bool {
    let z_in_x = z & ctx.x;
    if !r.agrees(&ctx.x, t, &ctx.x, &z_in_x) {
        return false;
    }
    if ctx.x.contains(a) && r.get(&ctx.x, a) == t.get(&ctx.x, a) {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use relvu_relation::tup;

    fn setup() -> (Schema, AttrSet, AttrSet, Relation) {
        let s = Schema::new(["E", "D", "M"]).unwrap();
        let x = s.set(["E", "D"]).unwrap();
        let y = s.set(["D", "M"]).unwrap();
        let v = Relation::from_rows(x, [tup![1, 10], tup![2, 20]]).unwrap();
        (s, x, y, v)
    }

    #[test]
    fn validate_geometry() {
        let (s, x, y, v) = setup();
        let ctx = ViewCtx::validate(&s, x, y, &v, &[]).unwrap();
        assert_eq!(ctx.shared, s.set(["D"]).unwrap());
        assert_eq!(ctx.y_minus_x, s.set(["M"]).unwrap());
        // Not covering U:
        let bad = ViewCtx::validate(&s, x, s.set(["D"]).unwrap(), &v, &[]);
        assert!(matches!(bad, Err(CoreError::ViewsDoNotCoverUniverse)));
    }

    #[test]
    fn validate_rejects_nulls_and_arity() {
        let (s, x, y, _) = setup();
        let v_null = Relation::from_rows(x, [Tuple::new([Value::int(1), Value::Null(0)])]).unwrap();
        assert!(matches!(
            ViewCtx::validate(&s, x, y, &v_null, &[]),
            Err(CoreError::ViewInstanceHasNulls)
        ));
        let v = Relation::from_rows(x, [tup![1, 10]]).unwrap();
        let short = tup![1];
        assert!(matches!(
            ViewCtx::validate(&s, x, y, &v, &[&short]),
            Err(CoreError::TupleNotOverView)
        ));
    }

    #[test]
    fn fill_uses_deterministic_nulls() {
        let (s, x, y, v) = setup();
        let ctx = ViewCtx::validate(&s, x, y, &v, &[]).unwrap();
        let filled = ctx.fill(&v);
        assert_eq!(filled.len(), 2);
        let m = s.attr("M").unwrap();
        assert_eq!(filled.row(0).get(&ctx.universe, m), ctx.null_of(0, m));
        assert_eq!(filled.row(1).get(&ctx.universe, m), ctx.null_of(1, m));
        assert_ne!(ctx.null_of(0, m), ctx.null_of(1, m));
    }

    #[test]
    fn mu_rows_matches_shared_projection() {
        let (s, x, y, v) = setup();
        let ctx = ViewCtx::validate(&s, x, y, &v, &[]).unwrap();
        let t = tup![5, 10]; // D = 10 matches row 0
        assert_eq!(ctx.mu_rows(&v, &t), vec![0]);
        let t2 = tup![5, 99];
        assert!(ctx.mu_rows(&v, &t2).is_empty());
    }

    #[test]
    fn condition_b_checks_closures() {
        let (s, x, y, v) = setup();
        let ctx = ViewCtx::validate(&s, x, y, &v, &[]).unwrap();
        let good = FdSet::parse(&s, "E->D; D->M").unwrap();
        assert_eq!(ctx.condition_b(&good), None);
        let none = FdSet::default();
        assert_eq!(
            ctx.condition_b(&none),
            Some(RejectReason::ComplementNotDetermined)
        );
        let keyed = FdSet::parse(&s, "D->E; D->M").unwrap();
        assert_eq!(
            ctx.condition_b(&keyed),
            Some(RejectReason::ViewSideDetermined)
        );
    }
}
