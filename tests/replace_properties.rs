//! Replacement properties (Theorem 9 and its §4.2 Test 1/2 analogues)
//! over randomized workloads.

use rand::prelude::*;
use relvu::core::replace_approx::{test1_replace, test2_replace};
use relvu::prelude::*;
use relvu::workload::{instance_gen, schema_gen};
use relvu_deps::check::satisfies_fds;

fn random_target(rng: &mut StdRng, b: &schema_gen::BenchSchema, v: &Relation) -> (Tuple, Tuple) {
    let t1 = v.row(rng.gen_range(0..v.len())).to_tuple();
    // Mutate t1 into a candidate t2: fresh employee, department from V
    // (same or different — both Theorem 9 cases get exercised).
    let row = v.row(rng.gen_range(0..v.len()));
    let shared = b.x & b.y;
    let t2 = Tuple::from_pairs(
        &b.x,
        b.x.iter().map(|a| {
            let val = if shared.contains(a) {
                row.get(&b.x, a)
            } else {
                Value::int((1 << 41) + rng.gen_range(0..1_000_000))
            };
            (a, val)
        }),
    )
    .expect("covers x");
    (t1, t2)
}

#[test]
fn applied_replacements_preserve_invariants() {
    let mut rng = StdRng::seed_from_u64(71);
    for width in [1usize, 3] {
        let b = schema_gen::edm_family(width);
        let base = instance_gen::edm_instance(&mut rng, &b.schema, 50, 6);
        let v = instance_gen::view_of(&base, b.x);
        for _ in 0..40 {
            let (t1, t2) = random_target(&mut rng, &b, &v);
            if v.contains(&t2) {
                continue;
            }
            let verdict = translate_replace(&b.schema, &b.fds, b.x, b.y, &v, &t1, &t2).expect("ok");
            if let Translatability::Translatable(tr) = verdict {
                let r2 = tr.apply(&base, b.x, b.y).expect("applies");
                assert!(satisfies_fds(&r2, &b.fds), "legality preserved");
                assert_eq!(
                    ops::project(&r2, b.y).unwrap(),
                    ops::project(&base, b.y).unwrap(),
                    "complement constant"
                );
                let mut v2 = v.clone();
                v2.remove(&t1);
                v2.insert(t2.clone()).unwrap();
                assert_eq!(ops::project(&r2, b.x).unwrap(), v2, "consistency");
            }
        }
    }
}

#[test]
fn test1_replace_sound_on_random_workloads() {
    let mut rng = StdRng::seed_from_u64(72);
    let b = schema_gen::edm_family(2);
    let base = instance_gen::edm_instance(&mut rng, &b.schema, 40, 5);
    let v = instance_gen::view_of(&base, b.x);
    let mut accepted = 0usize;
    for _ in 0..60 {
        let (t1, t2) = random_target(&mut rng, &b, &v);
        if v.contains(&t2) {
            continue;
        }
        let approx = test1_replace(&b.schema, &b.fds, b.x, b.y, &v, &t1, &t2).expect("ok");
        if approx.is_translatable() {
            accepted += 1;
            let exact = translate_replace(&b.schema, &b.fds, b.x, b.y, &v, &t1, &t2).expect("ok");
            assert!(
                exact.is_translatable(),
                "Test 1 (replace) must be sound: t1={t1:?} t2={t2:?}"
            );
        }
    }
    assert!(accepted > 0, "workload must exercise acceptances");
}

#[test]
fn test2_replace_matches_exact_on_good_complements() {
    let mut rng = StdRng::seed_from_u64(73);
    let b = schema_gen::edm_family(2);
    let prepared = Test2::prepare(&b.schema, &b.fds, b.x, b.y);
    assert!(prepared.goodness().is_good());
    let base = instance_gen::edm_instance(&mut rng, &b.schema, 30, 4);
    let v = instance_gen::view_of(&base, b.x);
    for _ in 0..60 {
        let (t1, t2) = random_target(&mut rng, &b, &v);
        if v.contains(&t2) {
            continue;
        }
        let approx = test2_replace(&prepared, &b.schema, &b.fds, &v, &t1, &t2).expect("ok");
        let exact = translate_replace(&b.schema, &b.fds, b.x, b.y, &v, &t1, &t2).expect("ok");
        assert_eq!(
            approx.is_translatable(),
            exact.is_translatable(),
            "Test 2 (replace) must be exact on a good complement: t1={t1:?} t2={t2:?}"
        );
    }
}

#[test]
fn engine_replacements_roundtrip_under_all_policies() {
    // Replacements always use the exact Theorem 9 machinery in the engine
    // regardless of the insertion policy; verify behaviour is identical.
    let mut rng = StdRng::seed_from_u64(74);
    let b = schema_gen::edm_family(1);
    let base = instance_gen::edm_instance(&mut rng, &b.schema, 20, 3);
    let v = instance_gen::view_of(&base, b.x);
    let (t1, t2) = random_target(&mut rng, &b, &v);
    if v.contains(&t2) {
        return;
    }
    let mut outcomes = Vec::new();
    for policy in [
        relvu::engine::Policy::Exact,
        relvu::engine::Policy::Test1,
        relvu::engine::Policy::Test2,
    ] {
        let db =
            relvu::engine::Database::new(b.schema.clone(), b.fds.clone(), base.clone()).unwrap();
        db.create_view("w", b.x, Some(b.y), policy).unwrap();
        outcomes.push(db.replace_via("w", t1.clone(), t2.clone()).is_ok());
    }
    assert!(
        outcomes.windows(2).all(|w| w[0] == w[1]),
        "replacement verdicts must not depend on the insertion policy"
    );
}
