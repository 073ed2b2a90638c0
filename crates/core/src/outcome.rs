//! Translation outcomes: the database update a view update translates to,
//! or the precise reason it is rejected.

use relvu_relation::{ops, AttrSet, Relation, Tuple};

use crate::Result;

/// A translated update on the underlying database `R`, expressed
/// symbolically — the translator sees only the view, as Property D of
/// §3.1 requires, so the prescription references `π_Y(R)` rather than a
/// concrete relation. [`Translation::apply`] executes it against an
/// actual database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Translation {
    /// The update does not change the view; by acceptability, the database
    /// is unchanged.
    Identity,
    /// `R ← R ∪ t * π_Y(R)` (Theorem 3).
    InsertJoin {
        /// The inserted view tuple `t` (over `X`).
        t: Tuple,
    },
    /// `R ← R − t * π_Y(R)` (Theorem 8).
    DeleteJoin {
        /// The deleted view tuple `t` (over `X`).
        t: Tuple,
    },
    /// `R ← (R − t₁ * π_Y(R)) ∪ t₂ * π_Y(R)` (Theorem 9).
    ReplaceJoin {
        /// The replaced view tuple `t₁` (over `X`).
        t1: Tuple,
        /// The replacing view tuple `t₂` (over `X`).
        t2: Tuple,
    },
}

impl Translation {
    /// Execute the prescription against a concrete database `r`, for view
    /// `x` and complement `y`.
    ///
    /// # Errors
    /// Propagates relational-algebra errors (arity/subset violations).
    pub fn apply(&self, r: &Relation, x: AttrSet, y: AttrSet) -> Result<Relation> {
        let pi_y = ops::project(r, y)?;
        match self {
            Translation::Identity => Ok(r.clone()),
            Translation::InsertJoin { t } => {
                let add = ops::tuple_join(t, x, &pi_y)?;
                Ok(ops::union(r, &add)?)
            }
            Translation::DeleteJoin { t } => {
                let del = ops::tuple_join(t, x, &pi_y)?;
                Ok(ops::difference(r, &del)?)
            }
            Translation::ReplaceJoin { t1, t2 } => {
                let del = ops::tuple_join(t1, x, &pi_y)?;
                let add = ops::tuple_join(t2, x, &pi_y)?;
                let removed = ops::difference(r, &del)?;
                Ok(ops::union(&removed, &add)?)
            }
        }
    }
}

/// The verdict of a translatability test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Translatability {
    /// The update is translatable; here is the database update.
    Translatable(Translation),
    /// The update is rejected as untranslatable (or, for the conservative
    /// tests, not *provably* translatable).
    Rejected(RejectReason),
}

impl Translatability {
    /// Is the verdict positive?
    pub fn is_translatable(&self) -> bool {
        matches!(self, Translatability::Translatable(_))
    }

    /// The translation, if positive.
    pub fn translation(&self) -> Option<&Translation> {
        match self {
            Translatability::Translatable(t) => Some(t),
            Translatability::Rejected(_) => None,
        }
    }

    /// The rejection reason, if negative.
    pub fn reject_reason(&self) -> Option<&RejectReason> {
        match self {
            Translatability::Translatable(_) => None,
            Translatability::Rejected(r) => Some(r),
        }
    }
}

/// Why an update is untranslatable (or unprovable, for Tests 1 and 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Condition (a) of Theorem 3 fails: `t[X∩Y] ∉ π_{X∩Y}(V)` — inserting
    /// `t` would have to change the complement.
    IntersectionNotInView,
    /// Condition (a) of Theorem 8 fails: `t[X∩Y] ∉ π_{X∩Y}(V − t)` —
    /// deleting `t` would remove its `Y`-information from the complement.
    IntersectionNotInRemainder,
    /// Condition (b) fails: `Σ ⊭ X∩Y → Y` — the complement is not
    /// functionally determined by the shared attributes, so the inserted
    /// tuple's `Y`-part is ambiguous.
    ComplementNotDetermined,
    /// Condition (b) fails the other way: `Σ ⊨ X∩Y → X`, so `V ∪ t` is not
    /// the projection of any legal instance.
    ViewSideDetermined,
    /// Condition (c) fails: the chase of `R(V, t, r, f)` completed without
    /// success, so a legal database exists on which the translated update
    /// violates `f` (Theorem 3). The counterexample witnesses it.
    ChaseCounterexample {
        /// Index of the violated FD within the atomized Σ.
        fd_index: usize,
        /// Index (within `V`) of the witnessing tuple `r`.
        row: usize,
        /// A legal database `R` with `π_X(R) = V` whose translated update
        /// violates the FD.
        counterexample: Box<Relation>,
    },
    /// Test 1 found no two-tuple chase succeeding for some `(r, f)` pair;
    /// the insertion may or may not be translatable.
    Test1NoWitness {
        /// Index of the FD within the atomized Σ.
        fd_index: usize,
        /// Index (within `V`) of the tuple `r`.
        row: usize,
    },
    /// Test 2 is inapplicable: the complement is not *good*, so Test 2
    /// rejects every insertion (§3.1: "the database system can simply
    /// disregard Test 2").
    NotGoodComplement,
    /// Test 2's canonical-database check found a violated FD.
    CanonicalViolation {
        /// Index of the FD within the atomized Σ.
        fd_index: usize,
    },
    /// Replacement (Theorem 9, case 1): `t₂[X∩Y] ∉ π_{X∩Y}(V)`.
    ReplacementTargetNotInView,
}

impl RejectReason {
    /// A short stable machine-readable identifier for this reason,
    /// suitable for metric labels (`engine.rejected` is broken down by
    /// this code in `Database::metrics()`).
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::IntersectionNotInView => "intersection_not_in_view",
            RejectReason::IntersectionNotInRemainder => "intersection_not_in_remainder",
            RejectReason::ComplementNotDetermined => "complement_not_determined",
            RejectReason::ViewSideDetermined => "view_side_determined",
            RejectReason::ChaseCounterexample { .. } => "chase_counterexample",
            RejectReason::Test1NoWitness { .. } => "test1_no_witness",
            RejectReason::NotGoodComplement => "not_good_complement",
            RejectReason::CanonicalViolation { .. } => "canonical_violation",
            RejectReason::ReplacementTargetNotInView => "replacement_target_not_in_view",
        }
    }

    /// The paper condition this rejection corresponds to, as a citation
    /// string (e.g. `"Theorem 3, condition (a)"`).
    pub fn condition(&self) -> &'static str {
        match self {
            RejectReason::IntersectionNotInView => "Theorem 3, condition (a)",
            RejectReason::IntersectionNotInRemainder => "Theorem 8, condition (a)",
            RejectReason::ComplementNotDetermined => "Theorems 3/8/9, condition (b)",
            RejectReason::ViewSideDetermined => "Theorems 3/8/9, condition (b)",
            RejectReason::ChaseCounterexample { .. } => "Theorem 3, condition (c)",
            RejectReason::Test1NoWitness { .. } => "Test 1 (§3.1)",
            RejectReason::NotGoodComplement => "Test 2 (§3.1), goodness precondition",
            RejectReason::CanonicalViolation { .. } => "Test 2 (§3.1), canonical database",
            RejectReason::ReplacementTargetNotInView => "Theorem 9, case 1, condition (a)",
        }
    }

    /// Build an explain trace for this rejection of the update described
    /// by `update` (the view tuples of the attempted operation, e.g.
    /// `[t]` for insert/delete or `[t1, t2]` for replace).
    ///
    /// The trace is a pure function of `(self, update)` — it never looks
    /// at the current view or database state — so the same rejection
    /// produces byte-identical traces whether it was found on the
    /// speculative batch path or on serial revalidation.
    pub fn trace(&self, update: &[&Tuple]) -> RejectTrace {
        let mut offending: Vec<Tuple> = update.iter().map(|t| (*t).clone()).collect();
        let detail = match self {
            RejectReason::IntersectionNotInView => {
                "the inserted tuple's X∩Y projection does not occur in the view, \
                 so the translated insertion would have to change the complement"
                    .to_string()
            }
            RejectReason::IntersectionNotInRemainder => {
                "after removing the tuple, its X∩Y projection no longer occurs in the \
                 view, so the deletion would erase Y-information held by the complement"
                    .to_string()
            }
            RejectReason::ComplementNotDetermined => {
                "Σ does not imply X∩Y → Y: the shared attributes do not determine the \
                 complement side, so the new tuple's Y-part is ambiguous"
                    .to_string()
            }
            RejectReason::ViewSideDetermined => {
                "Σ implies X∩Y → X: the shared attributes determine the view side, so \
                 the updated view is not the X-projection of any legal database"
                    .to_string()
            }
            RejectReason::ChaseCounterexample {
                fd_index,
                row,
                counterexample,
            } => {
                if let Some(r) = counterexample.rows().get(*row) {
                    offending.push(r.to_tuple());
                }
                format!(
                    "the chase completed without success for FD #{fd_index} and view \
                     row #{row}: a legal database exists on which the translated \
                     update violates the FD (counterexample attached)"
                )
            }
            RejectReason::Test1NoWitness { fd_index, row } => format!(
                "Test 1's two-tuple chase found no witness for FD #{fd_index} and view \
                 row #{row}; the conservative test cannot prove translatability"
            ),
            RejectReason::NotGoodComplement => {
                "the complement is not good, so Test 2 rejects every insertion".to_string()
            }
            RejectReason::CanonicalViolation { fd_index } => format!(
                "the canonical database R₀ built from the updated view violates FD \
                 #{fd_index}, so no legal database projects onto it"
            ),
            RejectReason::ReplacementTargetNotInView => {
                "the replacing tuple's X∩Y projection does not occur in the view, so \
                 the replacement would have to change the complement"
                    .to_string()
            }
        };
        RejectTrace {
            condition: self.condition(),
            code: self.code(),
            detail,
            offending,
        }
    }
}

/// An *explain* record for a rejected update: which paper condition
/// failed, a human-readable account, and the offending tuples (the
/// update's view tuples, plus the counterexample witness row when the
/// chase produced one). Attached to `EngineError::Rejected` by the
/// engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectTrace {
    /// The failing paper condition, e.g. `"Theorem 3, condition (a)"`.
    pub condition: &'static str,
    /// Stable machine-readable reason code, e.g. `"chase_counterexample"`.
    pub code: &'static str,
    /// Human-readable explanation of the failure.
    pub detail: String,
    /// The tuples involved: the update's view tuples in operation order,
    /// then any witness row from a chase counterexample.
    pub offending: Vec<Tuple>,
}

impl std::fmt::Display for RejectTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed [{}]: {}",
            self.condition, self.code, self.detail
        )?;
        if !self.offending.is_empty() {
            write!(f, "; offending tuples:")?;
            for t in &self.offending {
                write!(f, " {t:?}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relvu_relation::{tup, Schema};

    fn edm() -> (Schema, Relation) {
        let s = Schema::new(["E", "D", "M"]).unwrap();
        let r = Relation::from_rows(
            s.universe(),
            [tup![1, 10, 100], tup![2, 10, 100], tup![3, 20, 200]],
        )
        .unwrap();
        (s, r)
    }

    #[test]
    fn apply_insert_join() {
        let (s, r) = edm();
        let x = s.set(["E", "D"]).unwrap();
        let y = s.set(["D", "M"]).unwrap();
        let tr = Translation::InsertJoin { t: tup![4, 20] };
        let out = tr.apply(&r, x, y).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.contains(&tup![4, 20, 200]));
    }

    #[test]
    fn apply_delete_join() {
        let (s, r) = edm();
        let x = s.set(["E", "D"]).unwrap();
        let y = s.set(["D", "M"]).unwrap();
        let tr = Translation::DeleteJoin { t: tup![1, 10] };
        let out = tr.apply(&r, x, y).unwrap();
        assert_eq!(out.len(), 2);
        assert!(!out.contains(&tup![1, 10, 100]));
    }

    #[test]
    fn apply_replace_join() {
        let (s, r) = edm();
        let x = s.set(["E", "D"]).unwrap();
        let y = s.set(["D", "M"]).unwrap();
        let tr = Translation::ReplaceJoin {
            t1: tup![3, 20],
            t2: tup![5, 20],
        };
        let out = tr.apply(&r, x, y).unwrap();
        assert_eq!(out.len(), 3);
        assert!(!out.contains(&tup![3, 20, 200]));
        assert!(out.contains(&tup![5, 20, 200]));
    }

    #[test]
    fn identity_preserves() {
        let (s, r) = edm();
        let x = s.set(["E", "D"]).unwrap();
        let y = s.set(["D", "M"]).unwrap();
        assert_eq!(Translation::Identity.apply(&r, x, y).unwrap(), r);
    }

    #[test]
    fn verdict_accessors() {
        let t = Translatability::Translatable(Translation::Identity);
        assert!(t.is_translatable());
        assert!(t.translation().is_some());
        assert!(t.reject_reason().is_none());
        let r = Translatability::Rejected(RejectReason::IntersectionNotInView);
        assert!(!r.is_translatable());
        assert!(r.reject_reason().is_some());
    }
}
