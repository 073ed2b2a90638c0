//! # relvu — Updates of Relational Views
//!
//! A complete Rust implementation of Cosmadakis & Papadimitriou,
//! *Updates of Relational Views* (PODS 1983 / JACM 31(4), 1984):
//! constant-complement translation of view updates for projective views of
//! a universal relation under functional (and join / explicit functional)
//! dependencies.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`relation`] — schemas, attribute sets, tuples, relations, operators;
//! * [`deps`] — FDs, MVDs, JDs, EFDs, closures, keys, covers;
//! * [`chase`] — the tableau chase and dependency-implication tests;
//! * [`core`] — the paper's algorithms: complements, translatability tests,
//!   insertion/deletion/replacement translation, complement search;
//! * [`engine`] — a usable updatable-view database engine;
//! * [`durability`] — write-ahead logging, atomic checkpoints, crash
//!   recovery, and a deterministic fault-injection harness;
//! * [`logic`] — 3-CNF/SAT/QBF oracles and the paper's hardness reductions;
//! * [`workload`] — reproducible generators for benches and tests;
//! * [`obs`] — metrics substrate (counters, latency histograms, registry).
//!
//! ## Quickstart
//!
//! ```
//! use relvu::prelude::*;
//!
//! // Schema: Employee, Department, Manager with E→D and D→M.
//! let schema = Schema::new(["E", "D", "M"]).unwrap();
//! let (e, d, m) = (schema.attr("E").unwrap(), schema.attr("D").unwrap(),
//!                  schema.attr("M").unwrap());
//! let fds = FdSet::new([Fd::new([e], [d]), Fd::new([d], [m])]);
//!
//! // The view X = ED and its complement Y = DM are complementary (Thm 1).
//! let x = schema.set(["E", "D"]).unwrap();
//! let y = schema.set(["D", "M"]).unwrap();
//! assert!(are_complementary(&schema, &fds, x, y));
//! ```

pub use relvu_chase as chase;
pub use relvu_core as core;
pub use relvu_deps as deps;
pub use relvu_durability as durability;
pub use relvu_engine as engine;
pub use relvu_logic as logic;
pub use relvu_obs as obs;
pub use relvu_relation as relation;
pub use relvu_workload as workload;

/// Convenient glob import of the most-used items.
pub mod prelude {
    pub use relvu_chase::{chase_fds, infer};
    pub use relvu_core::{
        are_complementary, find_complement, minimal_complement, minimum_complement,
        translate_delete, translate_insert, translate_replace, GoodComplement, RejectReason, Test1,
        Test2, Translatability, Translation,
    };
    pub use relvu_deps::{closure, Fd, FdSet, Jd, Mvd};
    pub use relvu_durability::{DurableDatabase, MemVfs, StdVfs, SyncPolicy, Vfs, WalOptions};
    pub use relvu_engine::{
        BatchOptions, BatchReport, BatchRequest, BatchStats, Database, DeltaRow, Policy, SubEvent,
        SubscribeFrom, SubscribeOptions, Subscription, UpdateOp, ViewDelta,
    };
    pub use relvu_relation::{
        ops, Attr, AttrSet, Relation, Schema, SuccinctView, Tuple, Value, ValueDict,
    };
}
