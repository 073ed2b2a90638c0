//! Succinctly presented views: unions of Cartesian products.
//!
//! Theorems 4, 5 and 7 of the paper consider a view instance `V` "given
//! implicitly as the union of two Cartesian products, of total size
//! O(|U|)". A [`SuccinctView`] is a union of *terms*, each term a product
//! of factor relations over pairwise-disjoint attribute sets that jointly
//! cover the view attributes. The represented instance can be
//! exponentially larger than the representation, which is exactly what
//! makes translatability Π₂ᵖ-hard there.

use crate::{ops, AttrSet, Relation, RelationError, Result, Tuple};

/// A view instance presented as a union of Cartesian products.
#[derive(Clone, Debug)]
pub struct SuccinctView {
    attrs: AttrSet,
    terms: Vec<Vec<Relation>>,
}

impl SuccinctView {
    /// Create a succinct view over `attrs` with no terms (the empty view).
    pub fn new(attrs: AttrSet) -> Self {
        SuccinctView {
            attrs,
            terms: Vec::new(),
        }
    }

    /// Add one term: a product of `factors`.
    ///
    /// # Errors
    /// Fails if factor attribute sets overlap or do not cover exactly the
    /// view attributes.
    pub fn add_term(&mut self, factors: Vec<Relation>) -> Result<()> {
        let mut covered = AttrSet::new();
        for f in &factors {
            if !covered.is_disjoint(&f.attrs()) {
                return Err(RelationError::MalformedSuccinct {
                    reason: "term factors overlap",
                });
            }
            covered = covered | f.attrs();
        }
        if covered != self.attrs {
            return Err(RelationError::MalformedSuccinct {
                reason: "term factors do not cover the view attributes",
            });
        }
        self.terms.push(factors);
        Ok(())
    }

    /// The attribute set of the represented view.
    #[inline]
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Number of union terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total size of the *representation* (sum of factor cardinalities) —
    /// the paper's "total size O(|U|)".
    pub fn repr_size(&self) -> usize {
        self.terms
            .iter()
            .map(|t| t.iter().map(Relation::len).sum::<usize>())
            .sum()
    }

    /// Upper bound on the number of represented tuples (terms may overlap,
    /// so the true cardinality can be smaller).
    pub fn size_bound(&self) -> usize {
        self.terms
            .iter()
            .map(|t| t.iter().map(Relation::len).product::<usize>())
            .sum()
    }

    /// Materialize the full view instance. Exponential in general — this is
    /// the cost Theorem 4 says cannot be avoided.
    pub fn expand(&self) -> Result<Relation> {
        let mut out = Relation::new(self.attrs);
        for term in &self.terms {
            let mut acc: Option<Relation> = None;
            for f in term {
                acc = Some(match acc {
                    None => f.clone(),
                    Some(a) => ops::product(&a, f)?,
                });
            }
            if let Some(a) = acc {
                for t in &a {
                    out.insert_row(&t)?;
                }
            }
        }
        Ok(out)
    }

    /// Membership test without materializing: `t` is in the view iff some
    /// term contains each of `t`'s factor projections.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.terms.iter().any(|term| {
            term.iter()
                .all(|f| f.contains(&t.project(&self.attrs, &f.attrs())))
        })
    }

    /// Iterate over all represented tuples lazily (terms in order, products
    /// in odometer order). Tuples in multiple terms are yielded once per
    /// term; callers needing set semantics should use [`expand`].
    ///
    /// [`expand`]: SuccinctView::expand
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.terms
            .iter()
            .flat_map(move |term| TermIter::new(self.attrs, term))
    }
}

/// Odometer iterator over one product term.
struct TermIter<'a> {
    view_attrs: AttrSet,
    factors: &'a [Relation],
    idx: Vec<usize>,
    done: bool,
}

impl<'a> TermIter<'a> {
    fn new(view_attrs: AttrSet, factors: &'a [Relation]) -> Self {
        let done = factors.iter().any(|f| f.is_empty()) || factors.is_empty();
        TermIter {
            view_attrs,
            factors,
            idx: vec![0; factors.len()],
            done,
        }
    }
}

impl Iterator for TermIter<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.done {
            return None;
        }
        // Assemble the current combination into view attribute order.
        let mut pairs = Vec::with_capacity(self.view_attrs.len());
        for (f, &i) in self.factors.iter().zip(&self.idx) {
            let fa = f.attrs();
            let row = f.row(i);
            for a in fa.iter() {
                pairs.push((a, row.get(&fa, a)));
            }
        }
        let t = Tuple::from_pairs(&self.view_attrs, pairs).expect("factors cover view");
        // Advance odometer.
        for k in (0..self.idx.len()).rev() {
            self.idx[k] += 1;
            if self.idx[k] < self.factors[k].len() {
                return Some(t);
            }
            self.idx[k] = 0;
        }
        self.done = true;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tup, Attr, Value};

    fn set(ids: &[usize]) -> AttrSet {
        ids.iter().map(|&i| Attr::new(i)).collect()
    }

    fn rel(attrs: &[usize], rows: &[&[u64]]) -> Relation {
        Relation::from_rows(
            set(attrs),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::int(v)).collect()),
        )
        .unwrap()
    }

    fn two_by_two() -> SuccinctView {
        let mut v = SuccinctView::new(set(&[0, 1]));
        v.add_term(vec![rel(&[0], &[&[0], &[1]]), rel(&[1], &[&[0], &[1]])])
            .unwrap();
        v
    }

    #[test]
    fn expand_product() {
        let v = two_by_two();
        let e = v.expand().unwrap();
        assert_eq!(e.len(), 4);
        assert_eq!(v.size_bound(), 4);
        assert_eq!(v.repr_size(), 4);
        assert!(e.contains(&tup![1, 0]));
    }

    #[test]
    fn union_of_terms() {
        let mut v = two_by_two();
        v.add_term(vec![rel(&[0, 1], &[&[9, 9]])]).unwrap();
        let e = v.expand().unwrap();
        assert_eq!(e.len(), 5);
        assert!(v.contains(&tup![9, 9]));
        assert!(v.contains(&tup![0, 1]));
        assert!(!v.contains(&tup![9, 0]));
        assert_eq!(v.num_terms(), 2);
    }

    #[test]
    fn malformed_terms_rejected() {
        let mut v = SuccinctView::new(set(&[0, 1]));
        // Overlapping factors.
        assert!(v
            .add_term(vec![rel(&[0, 1], &[&[1, 1]]), rel(&[1], &[&[1]])])
            .is_err());
        // Not covering.
        assert!(v.add_term(vec![rel(&[0], &[&[1]])]).is_err());
    }

    #[test]
    fn iter_matches_expand() {
        let mut v = two_by_two();
        v.add_term(vec![rel(&[0, 1], &[&[7, 8]])]).unwrap();
        let from_iter = Relation::from_rows(v.attrs(), v.iter()).unwrap();
        assert_eq!(from_iter, v.expand().unwrap());
    }

    #[test]
    fn empty_factor_yields_nothing() {
        let mut v = SuccinctView::new(set(&[0, 1]));
        v.add_term(vec![rel(&[0], &[]), rel(&[1], &[&[1]])])
            .unwrap();
        assert!(v.expand().unwrap().is_empty());
        assert_eq!(v.iter().count(), 0);
    }

    #[test]
    fn exponential_blowup_shape() {
        // k binary factors represent 2^k tuples in O(k) space.
        let k = 10;
        let mut v = SuccinctView::new(AttrSet::first_n(k));
        v.add_term((0..k).map(|i| rel(&[i], &[&[0], &[1]])).collect())
            .unwrap();
        assert_eq!(v.repr_size(), 2 * k);
        assert_eq!(v.size_bound(), 1 << k);
        assert_eq!(v.expand().unwrap().len(), 1 << k);
    }
}
