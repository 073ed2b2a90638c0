//! Engine error type.

use std::fmt;

use relvu_core::{CoreError, RejectReason, RejectTrace};
use relvu_relation::RelationError;

/// Errors surfaced by the engine API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// No view registered under this name.
    UnknownView {
        /// The requested name.
        name: String,
    },
    /// A view with this name already exists.
    DuplicateView {
        /// The conflicting name.
        name: String,
    },
    /// The supplied base instance violates Σ.
    IllegalBase,
    /// The declared view/complement pair is not complementary (Theorem 1).
    NotComplementary,
    /// A view registered over another view composes into something the
    /// constant-complement discipline cannot maintain — the collapsed
    /// projection is empty, the conjoined predicate escapes the collapsed
    /// attributes (σ and π do not commute), or the policy is unsupported
    /// for the composition.
    CompositionRejected {
        /// The view being registered.
        name: String,
        /// The parent it was registered over.
        parent: String,
        /// Which composition rule failed.
        reason: String,
    },
    /// The view cannot be dropped while other views are registered over
    /// it (directly or transitively).
    HasDependents {
        /// The view that was asked to be dropped.
        name: String,
        /// Its transitive dependents, in topological order.
        dependents: Vec<String>,
    },
    /// Replacing Σ would invalidate a view that other views are built
    /// on: the new dependency set is rejected wholesale, naming the
    /// failing view and the dependent views in its blast radius.
    SetFdsRejected {
        /// The view the new Σ invalidates.
        view: String,
        /// The views registered over it, in topological order.
        dependents: Vec<String>,
        /// Why the view fails under the new Σ.
        source: Box<EngineError>,
    },
    /// The update was rejected as untranslatable, with the paper's reason
    /// and an *explain* trace naming the failing condition and the
    /// offending tuples.
    Rejected {
        /// The paper's rejection reason.
        reason: RejectReason,
        /// Which Theorem 3/8/9 (or Test 1/2) condition failed, with the
        /// offending tuples.
        trace: RejectTrace,
    },
    /// A transactional batch aborted: the update at `index` failed, and
    /// the whole batch was rolled back.
    BatchFailed {
        /// Zero-based position of the failing update within the batch.
        index: usize,
        /// The failing update's own error.
        source: Box<EngineError>,
    },
    /// An input error from the core algorithms.
    Core(CoreError),
    /// An underlying relation error.
    Relation(RelationError),
    /// A dump could not be parsed back into a database.
    Load {
        /// Human-readable reason, prefixed with `line N:` when the
        /// offending input line is known.
        reason: String,
    },
    /// [`crate::Database::resume_at`] was asked to move the update
    /// sequence counter backwards.
    SeqRegression {
        /// The engine's current sequence number.
        current: u64,
        /// The (smaller) requested sequence number.
        requested: u64,
    },
    /// A forward sequence jump (`resume_at` / checkpoint-delta replay
    /// past the current seq) was requested while the commit history
    /// (the audit log) holds a commit: honoring it would tear a hole in
    /// the contiguous history and mislabel every later entry. Jumps are
    /// only valid on an empty history (the recovery path, where the
    /// pre-jump history lives in the checkpoint/WAL instead).
    SeqJumpOverLog {
        /// The engine's current sequence number.
        current: u64,
        /// The requested (larger) sequence number.
        requested: u64,
    },
    /// A subscriber asked to resume its delta stream from a sequence
    /// number the engine no longer (or never) holds deltas for — the
    /// commit history was pruned by a checkpoint, evicted on overflow,
    /// or the engine was resumed past it. The commits in
    /// `(requested, oldest_resume]` are gone; the subscriber must
    /// re-origin from a snapshot (or another delta source) instead of
    /// assuming nothing happened.
    SubscriptionGap {
        /// The sequence number the subscriber asked to resume from.
        requested: u64,
        /// The oldest resume point the engine can serve gaplessly: the
        /// history floor. A resume *from* it replays every commit after
        /// it; the commit at this seq itself is no longer held (unlike
        /// `LogGap::first_available`, the first entry still served,
        /// which is one above it).
        oldest_resume: u64,
    },
    /// A subscriber asked to resume from a sequence number *ahead* of
    /// the engine — its claimed fold state cannot exist yet.
    SubscriptionAhead {
        /// The sequence number the subscriber asked to resume from.
        requested: u64,
        /// The engine's current sequence number.
        current: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownView { name } => write!(f, "unknown view `{name}`"),
            EngineError::DuplicateView { name } => {
                write!(f, "a view named `{name}` already exists")
            }
            EngineError::IllegalBase => {
                write!(f, "the base instance violates the declared dependencies")
            }
            EngineError::NotComplementary => {
                write!(f, "the declared complement does not determine the database")
            }
            EngineError::CompositionRejected {
                name,
                parent,
                reason,
            } => {
                write!(f, "cannot register view `{name}` over `{parent}`: {reason}")
            }
            EngineError::HasDependents { name, dependents } => {
                write!(
                    f,
                    "cannot drop view `{name}`: views [{}] are registered over it",
                    dependents.join(", ")
                )
            }
            EngineError::SetFdsRejected {
                view,
                dependents,
                source,
            } => {
                write!(
                    f,
                    "cannot replace Σ: view `{view}` fails under the new dependencies \
                     ({source}) and views [{}] are registered over it",
                    dependents.join(", ")
                )
            }
            EngineError::Rejected { trace, .. } => {
                write!(f, "update rejected as untranslatable: {trace}")
            }
            EngineError::BatchFailed { index, source } => {
                write!(f, "batch aborted: update #{index} failed: {source}")
            }
            EngineError::Core(e) => write!(f, "{e}"),
            EngineError::Relation(e) => write!(f, "{e}"),
            EngineError::Load { reason } => write!(f, "cannot load dump: {reason}"),
            EngineError::SeqRegression { current, requested } => write!(
                f,
                "cannot resume at seq {requested}: the engine is already at seq {current}"
            ),
            EngineError::SeqJumpOverLog { current, requested } => write!(
                f,
                "cannot jump the sequence counter from {current} to {requested}: the audit \
                 log holds entries and a forward jump would tear a hole in it"
            ),
            EngineError::SubscriptionGap {
                requested,
                oldest_resume,
            } => write!(
                f,
                "cannot resume a subscription at seq {requested}: deltas up to and including \
                 seq {oldest_resume} are no longer held; the oldest resume point is seq \
                 {oldest_resume} (re-origin from a snapshot)"
            ),
            EngineError::SubscriptionAhead { requested, current } => write!(
                f,
                "cannot resume a subscription at seq {requested}: the engine is only at \
                 seq {current}"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Relation(e) => Some(e),
            EngineError::BatchFailed { source, .. } => Some(source),
            EngineError::SetFdsRejected { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<RelationError> for EngineError {
    fn from(e: RelationError) -> Self {
        EngineError::Relation(e)
    }
}
