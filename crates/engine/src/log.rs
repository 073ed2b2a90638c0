//! Audit log of translated updates.

use std::sync::Arc;

use relvu_core::Translation;
use relvu_relation::Tuple;

/// The view-level operation a log entry records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// An insertion through a view.
    Insert {
        /// The inserted view tuple.
        t: Tuple,
    },
    /// A deletion through a view.
    Delete {
        /// The deleted view tuple.
        t: Tuple,
    },
    /// A replacement through a view.
    Replace {
        /// The replaced tuple.
        t1: Tuple,
        /// The replacing tuple.
        t2: Tuple,
    },
}

/// A gap at the front of a requested log range: the caller asked for
/// entries below the oldest sequence number the log still holds (a
/// checkpoint pruned them, the 65,536-commit cap evicted them, or they
/// predate a recovery/`resume_at`). The entries in
/// `first_available..` are served; everything in
/// `requested_from..first_available` is *reported missing* rather than
/// silently skipped — a catch-up consumer must treat this as "replay
/// from another source or re-origin", never as "nothing happened".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogGap {
    /// The sequence number the caller asked to start from.
    pub requested_from: u64,
    /// The oldest sequence number this log can serve.
    pub first_available: u64,
}

/// The result of a bounded log read: the served entries plus an explicit
/// front gap when the log no longer reaches back to the requested start.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogRange {
    /// `Some` when entries in `requested_from..first_available` exist
    /// conceptually (they were assigned before this log incarnation) but
    /// cannot be served. `None` means the range is gapless: `entries`
    /// starts at the requested sequence number (or the range is simply
    /// past the end of the log).
    pub gap: Option<LogGap>,
    /// The served entries, contiguous and in sequence order.
    pub entries: Vec<LogEntry>,
}

impl LogRange {
    /// True when the requested range was served without a front gap.
    pub fn is_complete(&self) -> bool {
        self.gap.is_none()
    }
}

/// What an applied update did: its audit-log entry, shared with the
/// commit history (and, in a durable store, with the WAL's commit
/// queue).
pub type UpdateReport = Arc<LogEntry>;

/// One successfully applied view update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Monotone sequence number.
    pub seq: u64,
    /// The view the update went through.
    pub view: String,
    /// The view-level operation.
    pub op: UpdateOp,
    /// The translated database update that was applied.
    pub translation: Translation,
    /// Base cardinality before the update.
    pub rows_before: usize,
    /// Base cardinality after the update.
    pub rows_after: usize,
}
