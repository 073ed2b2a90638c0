//! [`EngineReader`]: a read-only handle over a [`Database`].
//!
//! The durability layer wraps a [`Database`] and must route **every**
//! mutation through its WAL: an update applied directly to the wrapped
//! engine exists only in memory, is silently lost on recovery, and is
//! only detected at the *next* durable append (as a sequence mismatch
//! that poisons the handle). `DurableDatabase` therefore exposes this
//! type instead of `&Database` — queries stay free, while the mutators
//! (`apply_op`, `apply_batch*`, `set_fds`, `create_*_view`, `resume_at`)
//! simply do not exist here, making the WAL bypass a compile error.
//!
//! Reads go through [`EngineReader::snapshot`]: a caller that reads two
//! or more values pins one [`EngineSnapshot`] and reads them all from it,
//! so they come from the same commit. The three single-value readers
//! kept here are one-liners over a fresh pin.

use crate::db::Database;
use crate::metrics::EngineMetrics;
use crate::mvcc::EngineSnapshot;
use crate::view::ViewDef;
use crate::Result;

/// A read-only view of a [`Database`]: a snapshot pin, the metrics, and
/// no mutators.
///
/// Obtained from [`Database::reader`].
#[derive(Clone, Copy)]
pub struct EngineReader<'a> {
    db: &'a Database,
}

impl<'a> EngineReader<'a> {
    pub(crate) fn new(db: &'a Database) -> Self {
        EngineReader { db }
    }

    /// Pin the most recently published epoch — see
    /// [`Database::snapshot`]. All reads off the returned handle are
    /// mutually consistent, which is what multi-call invariants (e.g.
    /// `view == π_X(base)`) need.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.db.snapshot()
    }

    /// Metrics snapshot — see [`Database::metrics`].
    pub fn metrics(&self) -> EngineMetrics {
        self.db.metrics()
    }

    /// The most recently applied sequence number — see
    /// [`EngineSnapshot::seq`].
    pub fn last_seq(&self) -> u64 {
        self.db.snapshot().seq()
    }

    /// A registered view's definition — see [`EngineSnapshot::view_def`].
    ///
    /// # Errors
    /// As [`EngineSnapshot::view_def`].
    pub fn view_def(&self, name: &str) -> Result<ViewDef> {
        self.db.snapshot().view_def(name)
    }

    /// The `relvu-dump` serialization — see [`EngineSnapshot::dump`].
    pub fn dump(&self) -> String {
        self.db.snapshot().dump()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Database, Policy};
    use relvu_relation::Tuple;
    use relvu_workload::fixtures;

    #[test]
    fn reader_sees_exactly_what_the_database_sees() {
        let f = fixtures::edm();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        db.insert_via("staff", Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]))
            .unwrap();
        let r = db.reader();
        let (rs, snap) = (r.snapshot(), db.snapshot());
        assert_eq!(rs.base(), snap.base());
        assert_eq!(rs.log(), snap.log());
        assert_eq!(r.last_seq(), 1);
        assert_eq!(rs.view_names(), vec!["staff".to_string()]);
        assert_eq!(
            rs.view_instance("staff").unwrap(),
            snap.view_instance("staff").unwrap()
        );
        assert_eq!(rs.stats("staff").unwrap().accepted, 1);
        assert_eq!(r.dump(), snap.dump());
        assert_eq!(rs.fds(), snap.fds());
        assert_eq!(rs.schema(), snap.schema());
        assert_eq!(r.view_def("staff").unwrap().x(), f.x);
        assert_eq!(r.metrics().views["staff"].accepted, 1);
    }
}
