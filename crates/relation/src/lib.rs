//! Relational substrate for `relvu`.
//!
//! This crate provides the data model every algorithm in Cosmadakis &
//! Papadimitriou, *Updates of Relational Views* (PODS 1983) operates on:
//!
//! * [`Schema`] — a universal set of named attributes `U` (the paper works
//!   under the universal-relation assumption, §1),
//! * [`Attr`] / [`AttrSet`] — interned attributes and word-parallel bitsets
//!   over them (so `X ∩ Y`, `Y − X`, superkey checks are a few machine ops),
//! * [`Value`] — interned constants and labeled nulls (the "new symbols" the
//!   paper fills the `Y − X` columns with in §3.1),
//! * [`Tuple`] / [`Relation`] — instances with set semantics, stored as
//!   interned id columns and read as borrowed [`Row`]s,
//! * [`ops`] — projection, natural join, selection, union, difference,
//!   Cartesian product,
//! * [`SuccinctView`] — a view presented "implicitly as the union of
//!   Cartesian products, of total size O(|U|)" (Theorems 4, 5, 7).
//!
//! Nothing here knows about dependencies or the chase; those live in
//! `relvu-deps` and `relvu-chase`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attr;
mod columnar;
mod display;
mod error;
pub mod ops;
pub mod pred;
mod relation;
mod row;
mod schema;
mod succinct;
mod tuple;
mod value;

pub use attr::{Attr, AttrSet, AttrSetIter, MAX_ATTRS};
pub use columnar::{gallop, FnvMap};
pub use display::{RelationDisplay, TupleDisplay};
pub use error::RelationError;
pub use pred::{CmpOp, Pred};
pub use relation::{Relation, SlotEdit};
pub use row::{Row, RowIter, RowRef, Rows};
pub use schema::Schema;
pub use succinct::SuccinctView;
pub use tuple::Tuple;
pub use value::{NullGen, Value, ValueDict};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RelationError>;
