//! Durability error types.

use std::fmt;

use relvu_engine::EngineError;

/// Errors surfaced by the storage abstraction ([`crate::Vfs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// The named file does not exist.
    NotFound {
        /// The requested file name.
        name: String,
    },
    /// An underlying I/O failure (message from the OS).
    Io {
        /// Human-readable description.
        detail: String,
    },
    /// The fault-injecting backend reached its scripted crash point; the
    /// simulated process is dead and every further operation fails.
    Crashed,
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound { name } => write!(f, "no such file `{name}`"),
            VfsError::Io { detail } => write!(f, "i/o error: {detail}"),
            VfsError::Crashed => write!(f, "injected crash: the storage backend is dead"),
        }
    }
}

impl std::error::Error for VfsError {}

impl From<std::io::Error> for VfsError {
    fn from(e: std::io::Error) -> Self {
        VfsError::Io {
            detail: e.to_string(),
        }
    }
}

/// Errors surfaced by the WAL, checkpointing, and recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// A storage-layer failure.
    Vfs(VfsError),
    /// An engine failure (during replay or a durable update).
    Engine(EngineError),
    /// A log entry could not be serialized (e.g. a view name containing
    /// whitespace, or a tuple holding a labeled null).
    Encode {
        /// What could not be encoded.
        detail: String,
    },
    /// A complete WAL record failed its checksum (or carried an
    /// unparseable payload) somewhere other than the tail of the final
    /// segment — mid-log corruption that recovery refuses to skip.
    CorruptRecord {
        /// The segment file holding the record.
        segment: String,
        /// Byte offset of the record within the segment.
        offset: u64,
        /// What exactly is wrong with it.
        detail: String,
    },
    /// A checkpoint file exists but cannot be used.
    CorruptCheckpoint {
        /// The checkpoint file name.
        name: String,
        /// What is wrong with it.
        detail: String,
    },
    /// No checkpoint file is present — there is nothing to recover from.
    NoCheckpoint,
    /// The WAL's sequence numbers are not contiguous where they must be.
    SeqGap {
        /// The sequence number recovery expected next.
        expected: u64,
        /// The sequence number it found instead.
        found: u64,
        /// The segment file where the gap surfaced.
        segment: String,
        /// Byte offset of the offending record.
        offset: u64,
    },
    /// Replaying a WAL record through the engine's translators produced a
    /// different translation than the one recorded at commit time.
    ReplayDivergence {
        /// The diverging record's sequence number.
        seq: u64,
        /// Description of the mismatch.
        detail: String,
    },
    /// The invariant checker (run after recovery and on demand on a live
    /// handle) found the state inconsistent (Σ violated, a
    /// non-complementary view, or a non-monotone log).
    InvariantViolation {
        /// Which invariant failed.
        detail: String,
    },
    /// [`crate::DurableDatabase::create`] was pointed at storage that
    /// already holds a checkpoint or WAL segments.
    AlreadyInitialized,
    /// A previous append failed midway, so the in-memory engine state and
    /// the WAL may disagree; the handle refuses further durable updates.
    /// Re-open the database with [`crate::DurableDatabase::recover`].
    Poisoned,
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Vfs(e) => write!(f, "{e}"),
            DurabilityError::Engine(e) => write!(f, "{e}"),
            DurabilityError::Encode { detail } => {
                write!(f, "cannot serialize log entry: {detail}")
            }
            DurabilityError::CorruptRecord {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "corrupt WAL record in `{segment}` at offset {offset}: {detail}"
            ),
            DurabilityError::CorruptCheckpoint { name, detail } => {
                write!(f, "corrupt checkpoint `{name}`: {detail}")
            }
            DurabilityError::NoCheckpoint => {
                write!(f, "no checkpoint found: the store was never initialized")
            }
            DurabilityError::SeqGap {
                expected,
                found,
                segment,
                offset,
            } => write!(
                f,
                "WAL sequence gap in `{segment}` at offset {offset}: \
                 expected seq {expected}, found {found}"
            ),
            DurabilityError::ReplayDivergence { seq, detail } => write!(
                f,
                "replay of WAL record seq {seq} diverged from the recorded translation: {detail}"
            ),
            DurabilityError::InvariantViolation { detail } => {
                write!(f, "invariant violated: {detail}")
            }
            DurabilityError::AlreadyInitialized => write!(
                f,
                "storage already holds a checkpoint or WAL segments; use recover()"
            ),
            DurabilityError::Poisoned => write!(
                f,
                "the durable handle is poisoned after a failed append; recover from storage"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Vfs(e) => Some(e),
            DurabilityError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VfsError> for DurabilityError {
    fn from(e: VfsError) -> Self {
        DurabilityError::Vfs(e)
    }
}

impl From<EngineError> for DurabilityError {
    fn from(e: EngineError) -> Self {
        DurabilityError::Engine(e)
    }
}
