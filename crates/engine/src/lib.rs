//! An updatable-view database engine built on `relvu-core`.
//!
//! This is the "database system" the paper sketches around its algorithms:
//! a universal relation plus Σ, registered projective views each with a
//! declared (or auto-derived) constant complement, and an update API that
//! translates view updates into base-table updates — or rejects them with
//! the paper's precise reasons. Thread-safe behind a `parking_lot`
//! read–write lock.
//!
//! ```
//! use relvu_engine::{Database, Policy};
//! use relvu_workload::fixtures;
//!
//! let f = fixtures::edm();
//! let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
//! db.create_view("staff", f.x, Some(f.y), Policy::Exact).unwrap();
//! // Hire "dan" into the toys department (whose manager is on record):
//! let dan = relvu_relation::Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
//! let report = db.insert_via("staff", dan).unwrap();
//! assert_eq!(report.rows_after, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod commit;
mod dag;
mod db;
mod error;
mod log;
mod mat;
mod metrics;
mod mvcc;
mod policy;
mod reader;
mod snapshot;
pub mod subscribe;
mod view;

pub use batch::{BatchOptions, BatchOutcome, BatchReport, BatchRequest, BatchStats};
pub use commit::{Commit, DeltaRow, ViewDelta};
pub use db::{Database, ViewStats};
pub use error::EngineError;
pub use log::{LogEntry, LogGap, LogRange, UpdateOp, UpdateReport};
pub use metrics::EngineMetrics;
pub use mvcc::{EngineSnapshot, MatParts};
pub use policy::Policy;
pub use reader::EngineReader;
pub use snapshot::PendingLoad;
pub use subscribe::{SubEvent, SubscribeFrom, SubscribeOptions, Subscription};
pub use view::ViewDef;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
