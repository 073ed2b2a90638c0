//! Error type for the relational substrate.

use std::fmt;

/// Errors raised by schema and relation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// Two attributes with the same name were declared.
    DuplicateAttr {
        /// The offending name.
        name: String,
    },
    /// The schema already holds [`crate::MAX_ATTRS`] attributes.
    AttrLimitExceeded,
    /// An attribute name was not found in the schema.
    UnknownAttr {
        /// The missing name.
        name: String,
    },
    /// A tuple's width does not match its relation.
    ArityMismatch {
        /// Expected number of columns.
        expected: usize,
        /// Provided number of columns.
        got: usize,
    },
    /// An attribute referenced by index is not in the expected set.
    AttrNotInSet {
        /// The raw attribute index.
        attr: usize,
    },
    /// The same column was supplied twice when building a tuple.
    DuplicateColumn {
        /// The raw attribute index.
        attr: usize,
    },
    /// A projection target was not a subset of the source attributes.
    NotASubset,
    /// A binary set operation was applied to differently-typed relations.
    SchemaMismatch,
    /// A Cartesian product was attempted over overlapping attribute sets.
    NotDisjoint,
    /// A succinct view was malformed (factors overlap or do not cover).
    MalformedSuccinct {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A column dictionary exhausted its `u32` id space (≈4.29 billion
    /// distinct values interned in one attribute over the relation's
    /// lifetime).
    DictFull,
    /// A delta removes a row the relation does not hold.
    AbsentRow {
        /// The row's position in the delta's removed list.
        index: usize,
    },
    /// A delta adds a row the relation already holds.
    DuplicateRow {
        /// The row's position in the delta's added list.
        index: usize,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::DuplicateAttr { name } => {
                write!(f, "duplicate attribute name `{name}`")
            }
            RelationError::AttrLimitExceeded => {
                write!(f, "schema exceeds the maximum number of attributes")
            }
            RelationError::UnknownAttr { name } => {
                write!(f, "unknown attribute `{name}`")
            }
            RelationError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple arity {got} does not match relation arity {expected}"
                )
            }
            RelationError::AttrNotInSet { attr } => {
                write!(f, "attribute #{attr} is not in the target attribute set")
            }
            RelationError::DuplicateColumn { attr } => {
                write!(f, "column for attribute #{attr} supplied twice")
            }
            RelationError::NotASubset => {
                write!(f, "projection attributes are not a subset of the source")
            }
            RelationError::SchemaMismatch => {
                write!(f, "relations range over different attribute sets")
            }
            RelationError::NotDisjoint => {
                write!(f, "Cartesian product requires disjoint attribute sets")
            }
            RelationError::MalformedSuccinct { reason } => {
                write!(f, "malformed succinct view: {reason}")
            }
            RelationError::DictFull => {
                write!(f, "column dictionary exhausted its u32 id space")
            }
            RelationError::AbsentRow { index } => {
                write!(f, "delta removes absent row #{index}")
            }
            RelationError::DuplicateRow { index } => {
                write!(f, "delta adds row #{index}, which is already present")
            }
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RelationError::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('2'));
        let e = RelationError::UnknownAttr { name: "Z".into() };
        assert!(e.to_string().contains('Z'));
    }
}
