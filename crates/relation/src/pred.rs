//! Simple tuple predicates for selection views.
//!
//! §6(2) of the paper proposes views of the form `σ_P(π_X(R))` and notes
//! that "most of the views occurring in practice are actually of the
//! above form". These predicates are conjunctions of attribute-vs-constant
//! comparisons — the "certain Ps" for which the paper expects the basic
//! approach to carry over with simple modifications (implemented in
//! `relvu-core`'s `select_view`).

use std::fmt;

use crate::{Attr, AttrSet, RowRef, Schema, Value};

/// Comparison operator of an atomic predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One atomic comparison `attr op const`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Atom {
    /// The attribute compared.
    pub attr: Attr,
    /// The operator.
    pub op: CmpOp,
    /// The constant compared against.
    pub value: u64,
}

/// A conjunction of atomic comparisons over view attributes.
///
/// Tuples containing a labeled null in a compared column never match
/// (nulls carry no comparable value).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Pred {
    atoms: Vec<Atom>,
}

impl Pred {
    /// The always-true predicate.
    pub fn all() -> Self {
        Pred::default()
    }

    /// Single-atom predicate.
    pub fn cmp(attr: Attr, op: CmpOp, value: u64) -> Self {
        Pred {
            atoms: vec![Atom { attr, op, value }],
        }
    }

    /// Conjoin another atom.
    #[must_use]
    pub fn and(mut self, attr: Attr, op: CmpOp, value: u64) -> Self {
        self.atoms.push(Atom { attr, op, value });
        self
    }

    /// The atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The attributes mentioned.
    pub fn attrs(&self) -> AttrSet {
        self.atoms.iter().map(|a| a.attr).collect()
    }

    /// Evaluate on a row (a [`crate::Tuple`], a borrowed
    /// [`crate::Row`] or a value slice) over `attrs`.
    ///
    /// # Panics
    /// Panics if a compared attribute is not in `attrs`.
    pub fn eval(&self, attrs: &AttrSet, t: &(impl RowRef + ?Sized)) -> bool {
        self.atoms.iter().all(|a| {
            let rank = attrs
                .rank(a.attr)
                .expect("compared attribute in the row's set");
            match t.at(rank) {
                Value::Const(v) => a.op.eval(v, a.value),
                Value::Null(_) => false,
            }
        })
    }

    /// Render against a schema, e.g. `Dept = 10 AND Qty >= 5`.
    pub fn show(&self, schema: &Schema) -> String {
        if self.atoms.is_empty() {
            return "TRUE".to_string();
        }
        self.atoms
            .iter()
            .map(|a| format!("{} {} {}", schema.name(a.attr), a.op.symbol(), a.value))
            .collect::<Vec<_>>()
            .join(" AND ")
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "TRUE");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "#{} {} {}", a.attr.index(), a.op.symbol(), a.value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn attrs() -> AttrSet {
        [Attr::new(0), Attr::new(1)].into_iter().collect()
    }

    #[test]
    fn operators_evaluate() {
        let t = tup![5, 10];
        let a = attrs();
        assert!(Pred::cmp(Attr::new(0), CmpOp::Eq, 5).eval(&a, &t));
        assert!(Pred::cmp(Attr::new(0), CmpOp::Ne, 6).eval(&a, &t));
        assert!(Pred::cmp(Attr::new(1), CmpOp::Lt, 11).eval(&a, &t));
        assert!(Pred::cmp(Attr::new(1), CmpOp::Le, 10).eval(&a, &t));
        assert!(Pred::cmp(Attr::new(1), CmpOp::Gt, 9).eval(&a, &t));
        assert!(Pred::cmp(Attr::new(1), CmpOp::Ge, 10).eval(&a, &t));
        assert!(!Pred::cmp(Attr::new(1), CmpOp::Gt, 10).eval(&a, &t));
    }

    #[test]
    fn conjunction_and_trivial() {
        let t = tup![5, 10];
        let a = attrs();
        let p = Pred::cmp(Attr::new(0), CmpOp::Eq, 5).and(Attr::new(1), CmpOp::Ge, 10);
        assert!(p.eval(&a, &t));
        let q = p.clone().and(Attr::new(1), CmpOp::Lt, 10);
        assert!(!q.eval(&a, &t));
        assert!(Pred::all().eval(&a, &t));
        assert_eq!(p.attrs().len(), 2);
    }

    #[test]
    fn nulls_never_match() {
        let a = attrs();
        let t = crate::Tuple::new([Value::Null(0), Value::int(10)]);
        assert!(!Pred::cmp(Attr::new(0), CmpOp::Ne, 99).eval(&a, &t));
        // But untouched columns don't matter.
        assert!(Pred::cmp(Attr::new(1), CmpOp::Eq, 10).eval(&a, &t));
    }

    #[test]
    fn show_renders() {
        let s = Schema::new(["Dept", "Qty"]).unwrap();
        let p = Pred::cmp(s.attr("Dept").unwrap(), CmpOp::Eq, 10).and(
            s.attr("Qty").unwrap(),
            CmpOp::Ge,
            5,
        );
        assert_eq!(p.show(&s), "Dept = 10 AND Qty >= 5");
        assert_eq!(Pred::all().show(&s), "TRUE");
    }
}
