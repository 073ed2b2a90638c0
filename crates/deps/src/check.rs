//! Instance satisfaction of dependencies: `R ⊨ σ`.
//!
//! These checks are the ground truth every inference procedure in
//! `relvu-chase` is property-tested against, and what Theorem 3's
//! counterexample construction violates when a translation is rejected.

use std::cmp::Ordering;
use std::collections::HashMap;

use relvu_relation::{ops, AttrSet, Relation, Row, Tuple};

use crate::{DepSet, Fd, FdSet, Jd, Mvd};

/// Does `rel ⊨ X → Y`? (No two tuples agree on `X` but differ on `Y`.)
///
/// Runs on the interned id columns, where equal ids are equal values:
/// the row slots are sorted by their `X` ids, and every two neighbours
/// with equal `X` ids must have equal `Y` ids. No row is projected or
/// hashed.
pub fn satisfies_fd(rel: &Relation, fd: &Fd) -> bool {
    let attrs = rel.attrs();
    debug_assert!(fd.lhs().is_subset(&attrs) && fd.rhs().is_subset(&attrs));
    let cols = |on: AttrSet| -> Vec<&[u32]> { on.iter().map(|a| rel.col_ids(a)).collect() };
    let (lhs, rhs) = (cols(fd.lhs()), cols(fd.rhs()));
    let same =
        |cols: &[&[u32]], p: u32, q: u32| cols.iter().all(|c| c[p as usize] == c[q as usize]);
    let mut idx: Vec<u32> = (0..rel.len() as u32).collect();
    idx.sort_unstable_by(|&p, &q| {
        lhs.iter()
            .map(|c| c[p as usize].cmp(&c[q as usize]))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    idx.windows(2)
        .all(|w| !same(&lhs, w[0], w[1]) || same(&rhs, w[0], w[1]))
}

/// Does `rel` satisfy every FD in `fds`?
pub fn satisfies_fds(rel: &Relation, fds: &FdSet) -> bool {
    fds.iter().all(|fd| satisfies_fd(rel, fd))
}

/// Does `rel ⊨ X →→ Y`? For every pair of tuples agreeing on `X`, the
/// mixed tuple (`Y` from one, `U−X−Y` from the other) is also present.
pub fn satisfies_mvd(rel: &Relation, mvd: &Mvd) -> bool {
    let attrs = rel.attrs();
    let x = mvd.lhs() & attrs;
    let y = (mvd.rhs() - x) & attrs;
    let z = attrs - x - y;
    // Group rows by their X projection.
    let mut groups: HashMap<Tuple, Vec<Row<'_>>> = HashMap::new();
    for t in rel {
        groups.entry(t.project(&attrs, &x)).or_default().push(t);
    }
    for group in groups.values() {
        for t1 in group {
            for t2 in group.iter() {
                // Mixed tuple: X∪Y from t1, Z from t2.
                let mixed = Tuple::from_pairs(
                    &attrs,
                    attrs.iter().map(|a| {
                        let v = if z.contains(a) {
                            t2.get(&attrs, a)
                        } else {
                            t1.get(&attrs, a)
                        };
                        (a, v)
                    }),
                )
                .expect("covers attrs");
                if !rel.contains(&mixed) {
                    return false;
                }
            }
        }
    }
    true
}

/// Does `rel ⊨ *[R₁,…,R_q]`? The join of the projections must equal `rel`.
pub fn satisfies_jd(rel: &Relation, jd: &Jd) -> bool {
    debug_assert_eq!(jd.covered(), rel.attrs());
    let mut acc: Option<Relation> = None;
    for c in jd.components() {
        let p = ops::project(rel, *c).expect("component within attrs");
        acc = Some(match acc {
            None => p,
            Some(a) => ops::natural_join(&a, &p).expect("compatible"),
        });
    }
    acc.expect("q >= 2") == *rel
}

/// Does `rel` satisfy the whole structured dependency set?
///
/// EFDs with concrete witnesses are checked against the witness; abstract
/// EFDs are checked as their underlying FD (a necessary condition — some
/// witness can exist only if the FD holds).
pub fn satisfies_all(rel: &Relation, deps: &DepSet) -> bool {
    if !satisfies_fds(rel, &deps.fds) {
        return false;
    }
    if !deps.jds.iter().all(|jd| satisfies_jd(rel, jd)) {
        return false;
    }
    deps.efds.iter().all(|e| match e.check_witness(rel) {
        Some(ok) => ok,
        None => satisfies_fd(rel, e.fd()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relvu_relation::{tup, AttrSet, Schema};

    fn edm_instance() -> (Schema, Relation) {
        let s = Schema::new(["E", "D", "M"]).unwrap();
        let r = Relation::from_rows(
            s.universe(),
            [tup![1, 10, 100], tup![2, 10, 100], tup![3, 20, 200]],
        )
        .unwrap();
        (s, r)
    }

    #[test]
    fn fd_satisfaction() {
        let (s, r) = edm_instance();
        assert!(satisfies_fd(&r, &Fd::parse(&s, "E -> D").unwrap()));
        assert!(satisfies_fd(&r, &Fd::parse(&s, "D -> M").unwrap()));
        assert!(!satisfies_fd(&r, &Fd::parse(&s, "D -> E").unwrap()));
        assert!(satisfies_fds(&r, &FdSet::parse(&s, "E->D; D->M").unwrap()));
    }

    #[test]
    fn fd_on_empty_and_singleton() {
        let s = Schema::new(["A", "B"]).unwrap();
        let empty = Relation::new(s.universe());
        let fd = Fd::parse(&s, "A -> B").unwrap();
        assert!(satisfies_fd(&empty, &fd));
        let one = Relation::from_rows(s.universe(), [tup![1, 2]]).unwrap();
        assert!(satisfies_fd(&one, &fd));
    }

    #[test]
    fn mvd_satisfaction() {
        let (s, r) = edm_instance();
        // D ->> E holds here because D -> M holds.
        let mvd = Mvd::new(s.set(["D"]).unwrap(), s.set(["E"]).unwrap());
        assert!(satisfies_mvd(&r, &mvd));
        // E ->> D trivially (E is a key... actually E->DM so groups are singletons).
        let mvd2 = Mvd::new(s.set(["E"]).unwrap(), s.set(["D"]).unwrap());
        assert!(satisfies_mvd(&r, &mvd2));
    }

    #[test]
    fn mvd_violation() {
        let s = Schema::new(["A", "B", "C"]).unwrap();
        // {(a,b1,c1),(a,b2,c2)} violates A ->> B (missing (a,b1,c2)).
        let r = Relation::from_rows(s.universe(), [tup![0, 1, 1], tup![0, 2, 2]]).unwrap();
        let mvd = Mvd::new(s.set(["A"]).unwrap(), s.set(["B"]).unwrap());
        assert!(!satisfies_mvd(&r, &mvd));
        // Completing the rectangle fixes it.
        let mut r2 = r.clone();
        r2.insert(tup![0, 1, 2]).unwrap();
        r2.insert(tup![0, 2, 1]).unwrap();
        assert!(satisfies_mvd(&r2, &mvd));
    }

    #[test]
    fn jd_satisfaction() {
        let (s, r) = edm_instance();
        let jd = Jd::binary(s.set(["E", "D"]).unwrap(), s.set(["D", "M"]).unwrap());
        assert!(satisfies_jd(&r, &jd));
        // A lossy instance: D no longer determines M.
        let bad = Relation::from_rows(s.universe(), [tup![1, 10, 100], tup![2, 10, 200]]).unwrap();
        assert!(!satisfies_jd(&bad, &jd));
    }

    #[test]
    fn mvd_equiv_binary_jd() {
        // R ⊨ X→→Y iff R ⊨ *[XY, XZ]: cross-check on random instances.
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let s = Schema::new(["A", "B", "C"]).unwrap();
        let a = s.set(["A"]).unwrap();
        let b = s.set(["B"]).unwrap();
        let u = s.universe();
        for _ in 0..100 {
            let mut r = Relation::new(u);
            for _ in 0..rng.gen_range(0..8) {
                r.insert(tup![
                    rng.gen_range(0..2),
                    rng.gen_range(0..2),
                    rng.gen_range(0..2)
                ])
                .unwrap();
            }
            let mvd = Mvd::new(a, b);
            let jd = Jd::binary(a | b, u - b);
            assert_eq!(satisfies_mvd(&r, &mvd), satisfies_jd(&r, &jd));
        }
    }

    #[test]
    fn depset_satisfaction() {
        let (s, r) = edm_instance();
        let deps = DepSet::fds_only(FdSet::parse(&s, "E->D").unwrap());
        assert!(satisfies_all(&r, &deps));
        let deps_bad = DepSet::fds_only(FdSet::parse(&s, "D->E").unwrap());
        assert!(!satisfies_all(&r, &deps_bad));
    }

    #[test]
    fn trivial_mvd_always_holds() {
        let s = Schema::new(["A", "B"]).unwrap();
        let r = Relation::from_rows(s.universe(), [tup![0, 1], tup![1, 0]]).unwrap();
        let trivial = Mvd::new(s.set(["A"]).unwrap(), s.set(["B"]).unwrap());
        // A ->> B with U = AB: Z is empty, always satisfied.
        assert!(satisfies_mvd(&r, &trivial));
        let _ = AttrSet::new();
    }
}
