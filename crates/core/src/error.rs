//! Error type for the core algorithms.

use std::fmt;

use relvu_chase::ChaseError;
use relvu_relation::RelationError;

/// Errors raised by the translation algorithms. These are *input* errors —
/// a well-formed but untranslatable update is reported through
/// [`crate::Translatability::Rejected`], not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The view and complement do not jointly cover the universe
    /// (required when Σ holds FDs/JDs only; Theorem 10 relaxes this for
    /// EFDs via `efd_ext`).
    ViewsDoNotCoverUniverse,
    /// The view instance contains labeled nulls; instances must be
    /// concrete.
    ViewInstanceHasNulls,
    /// The given view instance is not the `X`-projection of any legal
    /// database: chasing it already equates two of its distinct constants.
    InvalidViewInstance,
    /// A tuple's attributes don't match the view.
    TupleNotOverView,
    /// The tuple to delete/replace is not in the view instance.
    TupleNotInView,
    /// The replacement tuple is already in the view instance (Theorem 9
    /// replaces `t₁` by some `t₂ ∉ V`).
    TupleAlreadyInView,
    /// An underlying relation error.
    Relation(RelationError),
    /// An underlying chase resource error (JD chases only).
    Chase(ChaseError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ViewsDoNotCoverUniverse => {
                write!(f, "view and complement must jointly cover the universe")
            }
            CoreError::ViewInstanceHasNulls => {
                write!(f, "view instances must not contain labeled nulls")
            }
            CoreError::InvalidViewInstance => write!(
                f,
                "the view instance is not the projection of any legal database"
            ),
            CoreError::TupleNotOverView => {
                write!(f, "tuple arity does not match the view attributes")
            }
            CoreError::TupleNotInView => {
                write!(f, "the tuple is not present in the view instance")
            }
            CoreError::TupleAlreadyInView => {
                write!(
                    f,
                    "the replacement tuple is already present in the view instance"
                )
            }
            CoreError::Relation(e) => write!(f, "{e}"),
            CoreError::Chase(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Relation(e) => Some(e),
            CoreError::Chase(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for CoreError {
    fn from(e: RelationError) -> Self {
        CoreError::Relation(e)
    }
}

impl From<ChaseError> for CoreError {
    fn from(e: ChaseError) -> Self {
        CoreError::Chase(e)
    }
}
