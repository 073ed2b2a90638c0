//! E4 — Theorem 8: deletion translatability in `O(|V| + |Σ|)`.
//!
//! The series should scale linearly in `|V|` and never pay a chase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relvu_bench::{edm_workload, V_SIZES};
use relvu_core::translate_delete;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e04_delete");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_millis(1500));
    for &rows in V_SIZES {
        let w = edm_workload(2, rows, (rows / 8).max(2), 0xE4);
        // Delete an existing row (departments have several employees, so
        // condition (a) passes).
        let t = w.v.row(0).to_tuple();
        g.bench_with_input(BenchmarkId::new("delete", rows), &rows, |b, _| {
            b.iter(|| {
                black_box(
                    translate_delete(
                        &w.bench.schema,
                        &w.bench.fds,
                        w.bench.x,
                        w.bench.y,
                        &w.v,
                        &t,
                    )
                    .unwrap()
                    .is_translatable(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
