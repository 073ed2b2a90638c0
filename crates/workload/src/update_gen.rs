//! Update candidates: insertion tuples with controlled characteristics.

use rand::Rng;
use relvu_relation::{AttrSet, Relation, Tuple, Value};

/// What kind of insertion candidate to produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertKind {
    /// Keep a random existing row's `X∩Y` part, freshen the rest —
    /// condition (a) holds, so the chase (condition (c)) decides.
    SharedKept,
    /// Freshen the `X∩Y` part — condition (a) fails (a guaranteed reject),
    /// exercising the cheap rejection path.
    SharedFresh,
    /// Duplicate an existing row — the identity update.
    Existing,
}

/// Generate an insertion candidate over view `x` from instance `v`.
///
/// Fresh values are drawn above `fresh_base`, which callers should keep
/// disjoint from the instance's value pool.
///
/// # Panics
/// Panics if `v` is empty.
pub fn insert_candidate<R: Rng>(
    rng: &mut R,
    x: AttrSet,
    shared: AttrSet,
    v: &Relation,
    kind: InsertKind,
    fresh_base: u64,
) -> Tuple {
    assert!(!v.is_empty(), "need a nonempty view instance");
    let row = v.row(rng.gen_range(0..v.len()));
    match kind {
        InsertKind::Existing => row.to_tuple(),
        InsertKind::SharedKept => Tuple::from_pairs(
            &x,
            x.iter().map(|a| {
                let val = if shared.contains(a) {
                    row.get(&x, a)
                } else {
                    Value::int(fresh_base + rng.gen_range(0..1_000_000))
                };
                (a, val)
            }),
        )
        .expect("covers x"),
        InsertKind::SharedFresh => Tuple::from_pairs(
            &x,
            x.iter().map(|a| {
                let val = if shared.contains(a) {
                    Value::int(fresh_base + rng.gen_range(0..1_000_000))
                } else {
                    row.get(&x, a)
                };
                (a, val)
            }),
        )
        .expect("covers x"),
    }
}

/// A generated view update, engine-agnostic.
///
/// `relvu-workload` sits below the engine in the crate graph, so this
/// mirrors the engine's `UpdateOp` shape without depending on it; the
/// engine side converts with a one-line `match`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewUpdate {
    /// Insert the tuple through the view.
    Insert(Tuple),
    /// Delete the tuple through the view.
    Delete(Tuple),
    /// Replace the first tuple by the second.
    Replace(Tuple, Tuple),
}

/// Relative weights for [`update_batch`]'s operation mix. Weights of
/// zero drop the operation entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchMix {
    /// Translatable-biased insertions ([`InsertKind::SharedKept`]).
    pub insert: u32,
    /// Deletions of existing view rows.
    pub delete: u32,
    /// Replacements keeping the `X∩Y` part of an existing row.
    pub replace: u32,
    /// Guaranteed-reject insertions ([`InsertKind::SharedFresh`]).
    pub reject: u32,
}

impl Default for BatchMix {
    fn default() -> Self {
        BatchMix {
            insert: 6,
            delete: 1,
            replace: 2,
            reject: 1,
        }
    }
}

/// Generate a mixed batch of `n` view updates over instance `v`.
///
/// Deterministic for a given RNG state; fresh values are drawn above
/// `fresh_base` exactly as in [`insert_candidate`].
///
/// # Panics
/// Panics if `v` is empty or all mix weights are zero.
pub fn update_batch<R: Rng>(
    rng: &mut R,
    x: AttrSet,
    shared: AttrSet,
    v: &Relation,
    n: usize,
    mix: BatchMix,
    fresh_base: u64,
) -> Vec<ViewUpdate> {
    let total = mix.insert + mix.delete + mix.replace + mix.reject;
    assert!(total > 0, "at least one mix weight must be positive");
    assert!(!v.is_empty(), "need a nonempty view instance");
    (0..n)
        .map(|_| {
            let pick = rng.gen_range(0..total);
            if pick < mix.insert {
                ViewUpdate::Insert(insert_candidate(
                    rng,
                    x,
                    shared,
                    v,
                    InsertKind::SharedKept,
                    fresh_base,
                ))
            } else if pick < mix.insert + mix.delete {
                let row = v.row(rng.gen_range(0..v.len()));
                ViewUpdate::Delete(row.to_tuple())
            } else if pick < mix.insert + mix.delete + mix.replace {
                let row = v.row(rng.gen_range(0..v.len()));
                let fresh = insert_candidate(rng, x, shared, v, InsertKind::SharedKept, fresh_base);
                ViewUpdate::Replace(row.to_tuple(), fresh)
            } else {
                ViewUpdate::Insert(insert_candidate(
                    rng,
                    x,
                    shared,
                    v,
                    InsertKind::SharedFresh,
                    fresh_base,
                ))
            }
        })
        .collect()
}

/// A deterministic batch: one candidate per kind per seed step, for
/// benches that need stable mixes.
pub fn insert_batch<R: Rng>(
    rng: &mut R,
    x: AttrSet,
    shared: AttrSet,
    v: &Relation,
    n: usize,
    kind: InsertKind,
    fresh_base: u64,
) -> Vec<Tuple> {
    (0..n)
        .map(|_| insert_candidate(rng, x, shared, v, kind, fresh_base))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance_gen::{edm_instance, view_of};
    use crate::schema_gen::edm_family;
    use rand::SeedableRng;
    use relvu_core::{translate_insert, RejectReason};

    #[test]
    fn kinds_behave_as_labeled() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let b = edm_family(2);
        let r = edm_instance(&mut rng, &b.schema, 50, 5);
        let v = view_of(&r, b.x);
        let shared = b.x & b.y;

        // Existing rows translate as identity.
        let t = insert_candidate(&mut rng, b.x, shared, &v, InsertKind::Existing, 1 << 40);
        let out = translate_insert(&b.schema, &b.fds, b.x, b.y, &v, &t).unwrap();
        assert!(out.is_translatable());

        // SharedFresh candidates fail condition (a).
        let t = insert_candidate(&mut rng, b.x, shared, &v, InsertKind::SharedFresh, 1 << 40);
        let out = translate_insert(&b.schema, &b.fds, b.x, b.y, &v, &t).unwrap();
        assert_eq!(
            out.reject_reason(),
            Some(&RejectReason::IntersectionNotInView)
        );

        // SharedKept candidates pass (a); on the EDM family a fresh E with
        // an existing D is translatable.
        let t = insert_candidate(&mut rng, b.x, shared, &v, InsertKind::SharedKept, 1 << 40);
        let out = translate_insert(&b.schema, &b.fds, b.x, b.y, &v, &t).unwrap();
        assert!(out.is_translatable());
    }

    #[test]
    fn mixed_batch_is_deterministic_and_mixed() {
        let b = edm_family(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let r = edm_instance(&mut rng, &b.schema, 60, 6);
        let v = view_of(&r, b.x);
        let shared = b.x & b.y;
        let gen = |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            update_batch(&mut rng, b.x, shared, &v, 64, BatchMix::default(), 1 << 40)
        };
        let a = gen(42);
        assert_eq!(a, gen(42), "same seed, same batch");
        assert_ne!(a, gen(43), "different seed, different batch");
        assert!(a.iter().any(|u| matches!(u, ViewUpdate::Insert(_))));
        assert!(a.iter().any(|u| matches!(u, ViewUpdate::Delete(_))));
        assert!(a.iter().any(|u| matches!(u, ViewUpdate::Replace(..))));
    }

    #[test]
    fn batch_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let b = edm_family(1);
        let r = edm_instance(&mut rng, &b.schema, 10, 3);
        let v = view_of(&r, b.x);
        let batch = insert_batch(
            &mut rng,
            b.x,
            b.x & b.y,
            &v,
            17,
            InsertKind::SharedKept,
            1 << 40,
        );
        assert_eq!(batch.len(), 17);
    }
}
