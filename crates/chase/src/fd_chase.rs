//! The FD chase over relations with labeled nulls.
//!
//! This is the workhorse of §3: the paper constructs relations
//! `R(V, t, r, f)` by filling the `Y − X` columns of the view with "new
//! symbols" (labeled nulls) and chasing with the FDs of Σ. The chase
//! repeatedly finds two rows agreeing on the left-hand side of some
//! `Z → A` and equates their `A` values.
//!
//! [`ChaseState`] exposes exactly the events the paper's tests observe:
//!
//! * a [`ConstConflict`] — "the chase attempts to equate two distinct
//!   elements of V";
//! * [`ChaseState::equated`] — "the elements corresponding to `r[A]`,
//!   `μ[A]` are equated".

use std::collections::HashMap;

use relvu_deps::FdSet;
use relvu_relation::{Relation, Tuple, Value};

pub use crate::unionfind::ConstConflict;
use crate::unionfind::UnionFind;

/// An in-progress FD chase over a set of rows.
///
/// Values are interned into a union-find; [`ChaseState::run`] chases to
/// fixpoint. Constants conflict, nulls merge (absorbing constants).
#[derive(Debug, Clone)]
pub struct ChaseState {
    attrs: relvu_relation::AttrSet,
    rows: Vec<Tuple>,
    uf: UnionFind,
    ids: HashMap<Value, u32>,
    /// Interned node id per (row, dense column) — the chase hot path
    /// works on these, never re-hashing `Value`s.
    node_rows: Vec<Vec<u32>>,
}

impl ChaseState {
    /// Start a chase over `rel`'s rows.
    pub fn new(rel: &Relation) -> Self {
        let mut st = ChaseState {
            attrs: rel.attrs(),
            rows: rel.iter().map(|t| t.to_tuple()).collect(),
            uf: UnionFind::new(),
            ids: HashMap::new(),
            node_rows: Vec::with_capacity(rel.len()),
        };
        for row in rel {
            let ids: Vec<u32> = row.values().map(|v| st.intern(v)).collect();
            st.node_rows.push(ids);
        }
        st
    }

    fn intern(&mut self, v: Value) -> u32 {
        if let Some(&id) = self.ids.get(&v) {
            return id;
        }
        let c = match v {
            Value::Const(c) => Some(c),
            Value::Null(_) => None,
        };
        let id = self.uf.add(c);
        self.ids.insert(v, id);
        id
    }

    /// The attribute set of the chased rows.
    pub fn attrs(&self) -> relvu_relation::AttrSet {
        self.attrs
    }

    /// Number of rows (rows are never added or removed by the FD chase).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Equate two values (used to encode the paper's
    /// `r[Z ∩ (Y−X)] := μ[Z ∩ (Y−X)]` hypothesis).
    ///
    /// # Errors
    /// [`ConstConflict`] if both are distinct constants.
    pub fn unify(&mut self, a: Value, b: Value) -> Result<bool, ConstConflict> {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.uf.union(ia, ib)
    }

    /// Are two values currently equated?
    pub fn equated(&mut self, a: Value, b: Value) -> bool {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.uf.same(ia, ib)
    }

    /// The resolved form of a value: its class constant if one exists,
    /// otherwise a canonical null (keyed by the class representative).
    pub fn resolve(&mut self, v: Value) -> Value {
        let id = self.intern(v);
        match self.uf.constant_of(id) {
            Some(c) => Value::Const(c),
            None => Value::Null(self.uf.find(id) as u64),
        }
    }

    /// Chase to fixpoint with the (atomized) FDs.
    ///
    /// Each round groups rows by their resolved LHS projection per FD and
    /// equates disagreeing RHS values; rounds repeat until no equation is
    /// added. Returns the number of equations applied (path-independent:
    /// every successful union merges two classes, so the count equals the
    /// drop in class count at fixpoint).
    ///
    /// Grouping is sort-based over a flat reusable key buffer — no
    /// per-row key allocation, no `Value` hashing. A round works off a
    /// snapshot of the class representatives per FD; merges discovered
    /// late in a round land in the next one, and the FD chase's
    /// confluence makes the fixpoint identical.
    ///
    /// # Errors
    /// Stops at the first [`ConstConflict`] — the paper's "two distinct
    /// elements of V equated" event.
    pub fn run(&mut self, fds: &FdSet) -> Result<usize, ConstConflict> {
        let atomized = fds.atomized();
        // Dense column plans, computed once: FDs mentioning attributes
        // outside the chased relation cannot fire.
        let plans: Vec<(Vec<usize>, usize)> = atomized
            .iter()
            .filter_map(|fd| {
                let lhs: Option<Vec<usize>> = fd.lhs().iter().map(|a| self.attrs.rank(a)).collect();
                let rhs = self.attrs.rank(fd.rhs().first()?)?;
                Some((lhs?, rhs))
            })
            .collect();
        let n = self.rows.len();
        let mut total = 0usize;
        // Scratch reused across FDs and rounds.
        let mut keys: Vec<u32> = Vec::new();
        let mut idx: Vec<u32> = Vec::new();
        loop {
            let mut changed = false;
            for (lhs_cols, rhs_col) in &plans {
                let k = lhs_cols.len();
                keys.clear();
                for i in 0..n {
                    for &c in lhs_cols {
                        keys.push(self.uf.find(self.node_rows[i][c]));
                    }
                }
                idx.clear();
                idx.extend(0..n as u32);
                {
                    let keys = &keys;
                    idx.sort_unstable_by(|&a, &b| {
                        let (a, b) = (a as usize * k, b as usize * k);
                        keys[a..a + k].cmp(&keys[b..b + k]).then(a.cmp(&b))
                    });
                }
                // Equal-key runs are row-ascending; equate each later
                // row's RHS with the run's first, as the grouped probe
                // did.
                let mut s = 0usize;
                while s < n {
                    let key_of = |j: usize| {
                        let at = idx[j] as usize * k;
                        &keys[at..at + k]
                    };
                    let mut e = s + 1;
                    while e < n && key_of(e) == key_of(s) {
                        e += 1;
                    }
                    if e - s > 1 {
                        let first = self.node_rows[idx[s] as usize][*rhs_col];
                        for &j in &idx[s + 1..e] {
                            let aid = self.node_rows[j as usize][*rhs_col];
                            if self.uf.union(first, aid)? {
                                changed = true;
                                total += 1;
                            }
                        }
                    }
                    s = e;
                }
            }
            if !changed {
                return Ok(total);
            }
        }
    }

    /// Materialize the chased rows as a relation (resolved, deduplicated).
    pub fn materialize(&mut self) -> Relation {
        let mut out = Relation::new(self.attrs);
        for i in 0..self.rows.len() {
            let row: Tuple = self.rows[i]
                .values()
                .collect::<Vec<_>>()
                .into_iter()
                .map(|v| self.resolve(v))
                .collect();
            out.insert(row).expect("same arity");
        }
        out
    }

    /// Resolve a single full row by index.
    pub fn resolved_row(&mut self, i: usize) -> Tuple {
        let vals: Vec<Value> = self.rows[i].values().collect();
        vals.into_iter().map(|v| self.resolve(v)).collect()
    }

    /// The raw (pre-resolution) value of row `i` at attribute `a`.
    pub fn raw(&self, i: usize, a: relvu_relation::Attr) -> Value {
        self.rows[i].get(&self.attrs, a)
    }
}

/// Outcome of a standalone FD chase (see [`chase_fds`]).
#[derive(Debug, Clone)]
pub enum ChaseOutcome {
    /// The chase completed; the canonical instance is attached.
    Consistent(Relation),
    /// The chase attempted to equate two distinct constants.
    Inconsistent(ConstConflict),
}

impl ChaseOutcome {
    /// The canonical instance, if consistent.
    pub fn relation(&self) -> Option<&Relation> {
        match self {
            ChaseOutcome::Consistent(r) => Some(r),
            ChaseOutcome::Inconsistent(_) => None,
        }
    }
}

/// Chase `rel` with `fds` and materialize the result.
///
/// This is the paper's "fill the rows of V with new symbols in the columns
/// of Y − X, then do a chase" building block (used to build the canonical
/// database `R₀` in Test 2, among others).
pub fn chase_fds(rel: &Relation, fds: &FdSet) -> ChaseOutcome {
    let mut st = ChaseState::new(rel);
    match st.run(fds) {
        Ok(_) => ChaseOutcome::Consistent(st.materialize()),
        Err(c) => ChaseOutcome::Inconsistent(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relvu_deps::check::satisfies_fds;
    use relvu_relation::{tup, Schema};

    #[test]
    fn nulls_promote_to_constants() {
        let s = Schema::new(["A", "B"]).unwrap();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let r = Relation::from_rows(
            s.universe(),
            [
                Tuple::new([Value::int(1), Value::int(9)]),
                Tuple::new([Value::int(1), Value::Null(0)]),
            ],
        )
        .unwrap();
        match chase_fds(&r, &fds) {
            ChaseOutcome::Consistent(out) => {
                assert_eq!(out.len(), 1);
                assert!(out.contains(&tup![1, 9]));
            }
            ChaseOutcome::Inconsistent(_) => panic!("consistent chase expected"),
        }
    }

    #[test]
    fn distinct_constants_conflict() {
        let s = Schema::new(["A", "B"]).unwrap();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let r = Relation::from_rows(s.universe(), [tup![1, 9], tup![1, 8]]).unwrap();
        assert!(matches!(chase_fds(&r, &fds), ChaseOutcome::Inconsistent(_)));
    }

    #[test]
    fn transitive_null_merging() {
        // A->B, B->C: rows (1,⊥0,⊥1), (1,⊥2,5): chase gives ⊥0=⊥2, ⊥1=5.
        let s = Schema::new(["A", "B", "C"]).unwrap();
        let fds = FdSet::parse(&s, "A->B; B->C").unwrap();
        let r = Relation::from_rows(
            s.universe(),
            [
                Tuple::new([Value::int(1), Value::Null(0), Value::Null(1)]),
                Tuple::new([Value::int(1), Value::Null(2), Value::int(5)]),
            ],
        )
        .unwrap();
        let mut st = ChaseState::new(&r);
        st.run(&fds).unwrap();
        assert!(st.equated(Value::Null(0), Value::Null(2)));
        assert_eq!(st.resolve(Value::Null(1)), Value::int(5));
        let out = st.materialize();
        assert_eq!(out.len(), 1);
        assert!(satisfies_fds(&out, &fds));
    }

    #[test]
    fn unify_seeds_the_chase() {
        let s = Schema::new(["A", "B"]).unwrap();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let r = Relation::from_rows(
            s.universe(),
            [
                Tuple::new([Value::Null(0), Value::int(1)]),
                Tuple::new([Value::Null(1), Value::int(2)]),
            ],
        )
        .unwrap();
        let mut st = ChaseState::new(&r);
        // Without unification: consistent (different A-nulls).
        assert!(st.clone().run(&fds).is_ok());
        // Force the two A-nulls equal: now A->B conflicts 1 vs 2.
        st.unify(Value::Null(0), Value::Null(1)).unwrap();
        assert!(st.run(&fds).is_err());
    }

    #[test]
    fn chase_result_satisfies_fds() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let s = Schema::new(["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&s, "A->B; B C->D; D->C").unwrap();
        let mut null = 0u64;
        for _ in 0..100 {
            let mut r = Relation::new(s.universe());
            for _ in 0..rng.gen_range(1..10) {
                let row: Tuple = (0..4)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            Value::int(rng.gen_range(0..3))
                        } else {
                            null += 1;
                            Value::Null(null)
                        }
                    })
                    .collect();
                r.insert(row).unwrap();
            }
            if let ChaseOutcome::Consistent(out) = chase_fds(&r, &fds) {
                assert!(
                    satisfies_fds(&out, &fds),
                    "chase fixpoint must satisfy the FDs"
                );
            }
        }
    }

    #[test]
    fn fd_outside_attrs_is_skipped() {
        let s = Schema::new(["A", "B", "C"]).unwrap();
        let fds = FdSet::parse(&s, "A -> C").unwrap();
        let ab = s.set(["A", "B"]).unwrap();
        let r = Relation::from_rows(ab, [tup![1, 2], tup![1, 3]]).unwrap();
        // C not in attrs: the FD A->C cannot fire on an AB relation.
        assert!(matches!(chase_fds(&r, &fds), ChaseOutcome::Consistent(_)));
    }
}
