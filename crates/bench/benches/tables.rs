//! `cargo bench -p relvu-bench --bench tables` — prints every experiment
//! table (E1–E10) in one run. This output is the data source for
//! `EXPERIMENTS.md`: each section names the paper claim it reproduces and
//! prints the measured series.
//!
//! Plain `main` (`harness = false`): timings are medians of repeated
//! `std::time::Instant` measurements, which is plenty for the
//! orders-of-magnitude shapes the paper's claims are about.

use rand::prelude::*;
use relvu_bench::edm_workload;
use relvu_core::find_complement::{find_complement, TestMode};
use relvu_core::succinct::{test1_succinct, translate_insert_succinct};
use relvu_core::{
    minimal_complement, minimum_complement, translate_delete, translate_insert,
    translate_insert_naive, GoodComplement, Test1, Test2,
};
use relvu_deps::{DepSet, Efd, EfdSet, Fd, FdSet, Jd};
use relvu_logic::qbf::forall_exists;
use relvu_logic::reductions::{thm2::Thm2Instance, thm4::Thm4Instance, thm5::Thm5Instance};
use relvu_logic::sat::is_satisfiable;
use relvu_logic::Cnf;
use relvu_relation::{Attr, AttrSet, Schema};
use relvu_workload::schema_gen;
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of `reps` runs, in microseconds.
fn time_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn header(id: &str, claim: &str) {
    println!("\n### {id} — {claim}");
}

fn e1() {
    header(
        "E1",
        "Cor. to Thm 3: exact insertion test, time grows polynomially in |V| \
         (paper bound O(|V|^3 log|V|)); pre-chase shortcut vs naive ablation",
    );
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "|V|", "exact_µs", "naive_µs", "verdict"
    );
    for rows in [16usize, 64, 256, 1024] {
        let w = edm_workload(2, rows, (rows / 8).max(2), 0xE1);
        let t = w.accepted_kind[0].clone();
        let exact = time_us(7, || {
            black_box(
                translate_insert(
                    &w.bench.schema,
                    &w.bench.fds,
                    w.bench.x,
                    w.bench.y,
                    &w.v,
                    &t,
                )
                .unwrap(),
            );
        });
        let naive = if rows <= 256 {
            time_us(3, || {
                black_box(
                    translate_insert_naive(
                        &w.bench.schema,
                        &w.bench.fds,
                        w.bench.x,
                        w.bench.y,
                        &w.v,
                        &t,
                    )
                    .unwrap(),
                );
            })
        } else {
            f64::NAN
        };
        let verdict = translate_insert(
            &w.bench.schema,
            &w.bench.fds,
            w.bench.x,
            w.bench.y,
            &w.v,
            &t,
        )
        .unwrap()
        .is_translatable();
        println!("{rows:>6} {exact:>14.1} {naive:>14.1} {verdict:>8}");
    }
    println!("(|Y−X| sweep at |V| = 256)");
    println!("{:>6} {:>14}", "|Y−X|", "exact_µs");
    for width in [1usize, 4, 16] {
        let w = edm_workload(width, 256, 16, 0xE1);
        let t = w.accepted_kind[0].clone();
        let exact = time_us(7, || {
            black_box(
                translate_insert(
                    &w.bench.schema,
                    &w.bench.fds,
                    w.bench.x,
                    w.bench.y,
                    &w.v,
                    &t,
                )
                .unwrap(),
            );
        });
        println!("{width:>6} {exact:>14.1}");
    }
}

fn e2() {
    header(
        "E2",
        "Test 1: conservative but sound; runtime vs |V| and false-rejection \
         rate on translatable inserts",
    );
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>12}",
        "|V|", "test1_µs", "exact_µs", "accepted", "false_rej"
    );
    let mut rng = StdRng::seed_from_u64(0xE2);
    for rows in [16usize, 64, 256, 1024] {
        let w = edm_workload(2, rows, (rows / 8).max(2), 0xE2);
        let t = w.accepted_kind[0].clone();
        let t1 = time_us(7, || {
            black_box(
                Test1
                    .check(
                        &w.bench.schema,
                        &w.bench.fds,
                        w.bench.x,
                        w.bench.y,
                        &w.v,
                        &t,
                    )
                    .unwrap(),
            );
        });
        let ex = time_us(7, || {
            black_box(
                translate_insert(
                    &w.bench.schema,
                    &w.bench.fds,
                    w.bench.x,
                    w.bench.y,
                    &w.v,
                    &t,
                )
                .unwrap(),
            );
        });
        // Agreement statistics over a candidate mix.
        let mut translatable = 0usize;
        let mut t1_accepts = 0usize;
        let mut false_rej = 0usize;
        for cand in &w.accepted_kind {
            let exact_ok = translate_insert(
                &w.bench.schema,
                &w.bench.fds,
                w.bench.x,
                w.bench.y,
                &w.v,
                cand,
            )
            .unwrap()
            .is_translatable();
            let t1_ok = Test1
                .check(
                    &w.bench.schema,
                    &w.bench.fds,
                    w.bench.x,
                    w.bench.y,
                    &w.v,
                    cand,
                )
                .unwrap()
                .is_translatable();
            assert!(!t1_ok || exact_ok, "Test 1 must stay sound");
            translatable += exact_ok as usize;
            t1_accepts += t1_ok as usize;
            false_rej += (exact_ok && !t1_ok) as usize;
        }
        let _ = &mut rng;
        println!(
            "{rows:>6} {t1:>12.1} {ex:>12.1} {:>7}/{:<2} {false_rej:>12}",
            t1_accepts, translatable
        );
    }
    // Test 1 is *strictly* weaker: the chain fixture needs a three-row
    // chase, which two-tuple chases cannot simulate.
    let f = relvu_workload::fixtures::test1_gap();
    let exact_ok = translate_insert(&f.schema, &f.fds, f.x, f.y, &f.v, &f.t)
        .unwrap()
        .is_translatable();
    let t1_ok = Test1
        .check(&f.schema, &f.fds, f.x, f.y, &f.v, &f.t)
        .unwrap()
        .is_translatable();
    assert!(exact_ok && !t1_ok);
    println!(
        "(chain fixture: exact = {exact_ok}, Test 1 = {t1_ok} — a translatable \
insert Test 1 rejects, as §3.1 anticipates)"
    );
}

fn e3() {
    header(
        "E3",
        "Test 2: goodness check is schema-only (O(|Σ|²|U|)); per-insert cost \
         one chase; exact on good complements",
    );
    println!(
        "{:>6} {:>16} {:>14} {:>6}",
        "|U|", "goodness_µs", "good?", ""
    );
    for n in [4usize, 16, 64, 128] {
        let b = schema_gen::chain_family(n);
        let us = time_us(9, || {
            black_box(GoodComplement::analyze(&b.schema, &b.fds, b.x, b.y));
        });
        let good = GoodComplement::analyze(&b.schema, &b.fds, b.x, b.y).is_good();
        println!("{n:>6} {us:>16.1} {good:>14} ");
    }
    println!("{:>6} {:>14} {:>14}", "|V|", "test2_µs", "exact_µs");
    for rows in [16usize, 64, 256, 1024] {
        let w = edm_workload(2, rows, (rows / 8).max(2), 0xE3);
        let prepared = Test2::prepare(&w.bench.schema, &w.bench.fds, w.bench.x, w.bench.y);
        let t = w.accepted_kind[0].clone();
        let t2 = time_us(7, || {
            black_box(
                prepared
                    .check(&w.bench.schema, &w.bench.fds, &w.v, &t)
                    .unwrap(),
            );
        });
        let ex = time_us(7, || {
            black_box(
                translate_insert(
                    &w.bench.schema,
                    &w.bench.fds,
                    w.bench.x,
                    w.bench.y,
                    &w.v,
                    &t,
                )
                .unwrap(),
            );
        });
        // Exactness cross-check on the mix.
        for cand in w.accepted_kind.iter().chain(&w.rejected_kind) {
            let a = translate_insert(
                &w.bench.schema,
                &w.bench.fds,
                w.bench.x,
                w.bench.y,
                &w.v,
                cand,
            )
            .unwrap()
            .is_translatable();
            let b2 = prepared
                .check(&w.bench.schema, &w.bench.fds, &w.v, cand)
                .unwrap()
                .is_translatable();
            assert_eq!(a, b2, "Test 2 exact on a good complement");
        }
        println!("{rows:>6} {t2:>14.1} {ex:>14.1}");
    }
}

fn e4() {
    header(
        "E4",
        "Thm 8: deletion decided in O(|V| + |Σ|) — linear, no chase",
    );
    println!("{:>6} {:>14}", "|V|", "delete_µs");
    for rows in [16usize, 64, 256, 1024, 4096] {
        let w = edm_workload(2, rows, (rows / 8).max(2), 0xE4);
        let t = w.v.row(0).to_tuple();
        let us = time_us(9, || {
            black_box(
                translate_delete(
                    &w.bench.schema,
                    &w.bench.fds,
                    w.bench.x,
                    w.bench.y,
                    &w.v,
                    &t,
                )
                .unwrap(),
            );
        });
        println!("{rows:>6} {us:>14.1}");
    }
}

fn e5() {
    header(
        "E5",
        "Cor 1 (Thm 1): complementarity testable in polynomial time",
    );
    println!("{:>6} {:>16} {:>16}", "|U|", "fd_path_µs", "jd_chase_µs");
    for n in [8usize, 16, 32, 64, 128] {
        let b = schema_gen::chain_family(n);
        let fd_us = time_us(15, || {
            black_box(relvu_core::are_complementary(&b.schema, &b.fds, b.x, b.y));
        });
        let jd_us = if n <= 32 {
            let jd = Jd::binary(b.x, b.y);
            time_us(7, || {
                black_box(
                    relvu_core::are_complementary_with_jds(
                        &b.schema,
                        &b.fds,
                        std::slice::from_ref(&jd),
                        b.x,
                        b.y,
                    )
                    .unwrap(),
                );
            })
        } else {
            f64::NAN
        };
        println!("{n:>6} {fd_us:>16.2} {jd_us:>16.1}");
    }
}

fn e6() {
    header(
        "E6",
        "Cor 2 vs Thm 2: greedy minimal complement polynomial, exact minimum \
         exponential (NP-complete); sizes on the 3-SAT gadget",
    );
    println!(
        "{:>3} {:>5} {:>12} {:>14} {:>7} {:>7} {:>6}",
        "n", "|U|", "greedy_µs", "exact_µs", "greedy", "min", "sat?"
    );
    let mut rng = StdRng::seed_from_u64(0xE6);
    for n in [3usize, 4, 5, 6, 7] {
        let g = Cnf::random(&mut rng, n, n + 2);
        let inst = Thm2Instance::generate(&g);
        let greedy_us = time_us(7, || {
            black_box(minimal_complement(&inst.schema, &inst.fds, inst.view));
        });
        let exact_us = time_us(3, || {
            black_box(minimum_complement(
                &inst.schema,
                &inst.fds,
                inst.view,
                1 << 22,
            ));
        });
        let greedy = minimal_complement(&inst.schema, &inst.fds, inst.view).len();
        let min = minimum_complement(&inst.schema, &inst.fds, inst.view, 1 << 22).map(|y| y.len());
        let sat = is_satisfiable(&g);
        if let Some(m) = min {
            assert_eq!(m <= inst.target_size, sat, "Theorem 2 equivalence");
        }
        println!(
            "{n:>3} {:>5} {greedy_us:>12.1} {exact_us:>14.1} {greedy:>7} {:>7} {sat:>6}",
            inst.schema.arity(),
            min.map_or("cap".to_string(), |m| m.to_string()),
        );
    }
}

fn e7() {
    header(
        "E7",
        "Thm 6: complement search within min(|V|, 2^|X|) translatability tests",
    );
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>8}",
        "|V|", "tests", "bound", "search_µs", "found"
    );
    for rows in [16usize, 64, 256, 1024] {
        let w = edm_workload(2, rows, (rows / 8).max(2), 0xE7);
        let t = w.accepted_kind[0].clone();
        let us = time_us(5, || {
            black_box(
                find_complement(
                    &w.bench.schema,
                    &w.bench.fds,
                    w.bench.x,
                    &w.v,
                    &t,
                    TestMode::Exact,
                )
                .unwrap(),
            );
        });
        let res = find_complement(
            &w.bench.schema,
            &w.bench.fds,
            w.bench.x,
            &w.v,
            &t,
            TestMode::Exact,
        )
        .unwrap();
        let bound = rows.min(1 << w.bench.x.len());
        assert!(res.tested <= bound);
        println!(
            "{rows:>6} {:>10} {bound:>10} {us:>12.1} {:>8}",
            res.tested,
            res.found.is_some()
        );
        // The unsuccessful search scans every candidate (tested = candidates).
        let bad = w.rejected_kind[0].clone();
        let res2 = find_complement(
            &w.bench.schema,
            &w.bench.fds,
            w.bench.x,
            &w.v,
            &bad,
            TestMode::Exact,
        )
        .unwrap();
        assert!(res2.found.is_none());
        assert_eq!(res2.tested, res2.candidates);
        println!(
            "{rows:>6} {:>10} {bound:>10} {:>12} {:>8}",
            res2.tested, "-", false
        );
    }
}

fn e8() {
    header(
        "E8",
        "Thm 4: succinct-view translatability — linear representation, \
         exponential decision cost; sound direction holds; converse gap \
         documented (see EXPERIMENTS.md)",
    );
    println!(
        "{:>3} {:>10} {:>8} {:>6} {:>13} {:>12}",
        "n", "repr", "|V|", "QBF", "translatable", "time_µs"
    );
    let mut rng = StdRng::seed_from_u64(0xE8);
    let mut gap = 0usize;
    let mut total_false = 0usize;
    for n in [3usize, 5, 7] {
        let g = Cnf::random(&mut rng, n, n);
        let k = n / 2;
        let inst = Thm4Instance::generate(&g, k);
        let qbf = forall_exists(&g, k);
        let us = time_us(3, || {
            black_box(
                translate_insert_succinct(
                    &inst.schema,
                    &inst.fds,
                    inst.view,
                    inst.complement,
                    &inst.succinct,
                    &inst.tuple,
                )
                .unwrap(),
            );
        });
        let tr = translate_insert_succinct(
            &inst.schema,
            &inst.fds,
            inst.view,
            inst.complement,
            &inst.succinct,
            &inst.tuple,
        )
        .unwrap()
        .is_translatable();
        if qbf {
            assert!(tr, "sound direction");
        } else {
            total_false += 1;
            gap += tr as usize;
        }
        println!(
            "{n:>3} {:>10} {:>8} {qbf:>6} {tr:>13} {us:>12.1}",
            inst.succinct.repr_size(),
            inst.succinct.size_bound(),
        );
    }
    // The documented converse-gap witness (machine-checked in
    // relvu-core's unit tests).
    let g = Cnf::new(
        2,
        vec![
            relvu_logic::Clause([
                relvu_logic::Lit::pos(0),
                relvu_logic::Lit::pos(1),
                relvu_logic::Lit::pos(1),
            ]),
            relvu_logic::Clause([
                relvu_logic::Lit::pos(0),
                relvu_logic::Lit::neg(1),
                relvu_logic::Lit::neg(1),
            ]),
        ],
    );
    let inst = Thm4Instance::generate(&g, 1);
    let qbf = forall_exists(&g, 1);
    let tr = translate_insert_succinct(
        &inst.schema,
        &inst.fds,
        inst.view,
        inst.complement,
        &inst.succinct,
        &inst.tuple,
    )
    .unwrap()
    .is_translatable();
    assert!(!qbf && tr);
    if !qbf {
        total_false += 1;
        gap += tr as usize;
    }
    println!(
        "gap {:>10} {:>8} {qbf:>6} {tr:>13} {:>12}",
        inst.succinct.repr_size(),
        inst.succinct.size_bound(),
        "-"
    );
    println!("(converse gap: {gap}/{total_false} QBF-false instances were still translatable)");
}

fn e9() {
    header(
        "E9",
        "Thm 5: Test 1 over succinct views ⟺ UNSAT (exact equivalence)",
    );
    println!(
        "{:>3} {:>8} {:>10} {:>12}",
        "n", "SAT?", "accepted", "time_µs"
    );
    let mut rng = StdRng::seed_from_u64(0xE9);
    let mut formulas: Vec<Cnf> = [3usize, 5, 7, 9]
        .iter()
        .map(|&n| Cnf::random(&mut rng, n, 3 * n))
        .collect();
    formulas.push(Cnf::contradiction());
    for g in formulas {
        let inst = Thm5Instance::generate(&g);
        let sat = is_satisfiable(&g);
        let us = time_us(3, || {
            black_box(
                test1_succinct(
                    &inst.schema,
                    &inst.fds,
                    inst.view,
                    inst.complement,
                    &inst.succinct,
                    &inst.tuple,
                )
                .unwrap(),
            );
        });
        let acc = test1_succinct(
            &inst.schema,
            &inst.fds,
            inst.view,
            inst.complement,
            &inst.succinct,
            &inst.tuple,
        )
        .unwrap()
        .is_translatable();
        assert_eq!(acc, !sat, "Theorem 5 equivalence");
        println!("{:>3} {sat:>8} {acc:>10} {us:>12.1}", g.num_vars);
    }
}

fn e10() {
    header(
        "E10",
        "Prop 1 / Thm 10: EFD implication = FD closure of Σ_F; EFD-extended \
         complementarity",
    );
    println!("{:>6} {:>16} {:>20}", "|U|", "prop1_µs", "thm10_µs");
    for n in [8usize, 32, 128] {
        let schema = Schema::numbered(n).unwrap();
        let attrs: Vec<Attr> = schema.attrs().collect();
        let efds = EfdSet::new(
            attrs
                .windows(2)
                .map(|w| Efd::abstract_of(Fd::new([w[0]], [w[1]]))),
        );
        let deps = DepSet {
            fds: FdSet::default(),
            jds: Vec::new(),
            efds,
        };
        let target = Fd::new([attrs[0]], [attrs[n - 1]]);
        let p1 = time_us(15, || {
            black_box(deps.efds.implies_efd(&target));
        });
        let x: AttrSet = attrs[..n / 2 + 1].iter().copied().collect();
        let y: AttrSet = [attrs[n / 2], attrs[n / 2 + 1]].into_iter().collect();
        assert!(relvu_core::efd_ext::are_complementary_efd(&schema, &deps, x, y).unwrap());
        let t10 = time_us(9, || {
            black_box(relvu_core::efd_ext::are_complementary_efd(&schema, &deps, x, y).unwrap());
        });
        println!("{n:>6} {p1:>16.2} {t10:>20.1}");
    }
}

fn main() {
    println!("# relvu experiment tables (E1–E10)");
    println!("paper: Cosmadakis & Papadimitriou, Updates of Relational Views (PODS'83)");
    e1();
    e2();
    e3();
    e4();
    e5();
    e6();
    e7();
    e8();
    e9();
    e10();
    println!("\nall experiment assertions passed ✓");
}
