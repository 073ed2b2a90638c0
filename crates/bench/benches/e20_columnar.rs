//! E20 — interned columnar storage + gallop merge joins.
//!
//! The `Relation` store interns values into per-attribute dictionaries
//! (u32 ids), keeps a sorted slot index for membership, and the hot
//! join/projection paths run gallop merges over sorted id runs instead
//! of hash-bucket probes. This experiment measures what that buys:
//!
//!   1. point operations on a 64k-row base (contains / remove+insert),
//!   2. bulk operators (`π_X`, `⋈`) across base sizes,
//!   3. the E15 64k acceptance point: per-update latency of the
//!      materialized engine path vs the re-projecting baseline.
//!
//! Smoke mode (`E20_SMOKE=1`) runs only the 64k acceptance point and
//! fails if the materialized/re-project speedup drops below a floor —
//! a hardware-independent ratio guard used by CI. The columnar engine
//! measures ~81x on this point (the pre-columnar engine measured
//! ~10.5x); the floor of 45x sits 20% below the measured ratio plus
//! generous headroom for shared-runner jitter, while still a 4x margin
//! above anything the old row store could reach.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::prelude::*;
use relvu_bench::edm_workload;
use relvu_core::{translate_delete, Test1, Translatability};
use relvu_engine::{Database, Policy};
use relvu_relation::ops;
use relvu_workload::update_gen::{self, BatchMix, ViewUpdate};

const WIDTH: usize = 4;
const UPDATES: usize = 64;
const SMOKE_FLOOR: f64 = 45.0;

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn per_op(total: Duration, n: usize) -> Duration {
    total / n.max(1) as u32
}

/// §1: point operations against a large store.
fn point_ops(rows: usize) {
    let w = edm_workload(WIDTH, rows, rows / 8, 0xE20);
    let mut base = w.base.clone();
    let sample: Vec<_> = base
        .iter()
        .step_by(7)
        .take(4096)
        .map(|t| t.to_tuple())
        .collect();
    let misses: Vec<_> = (0..4096u64)
        .map(|i| {
            let mut t = sample[i as usize % sample.len()].clone();
            *t.at_mut(0) = relvu_relation::Value::int(u64::MAX - i);
            t
        })
        .collect();

    let start = Instant::now();
    let mut hits = 0usize;
    for t in &sample {
        hits += usize::from(base.contains(t));
    }
    let hit_probe = per_op(start.elapsed(), sample.len());
    assert_eq!(hits, sample.len());

    let start = Instant::now();
    for t in &misses {
        hits += usize::from(base.contains(t));
    }
    let miss_probe = per_op(start.elapsed(), misses.len());
    assert_eq!(hits, sample.len());

    let start = Instant::now();
    for t in &sample {
        assert!(base.remove(t));
        assert!(base.insert(t.clone()).unwrap());
    }
    let cycle = per_op(start.elapsed(), sample.len() * 2);
    black_box(&base);
    println!(
        "  point ops, {rows} rows: contains(hit) {hit_probe:.2?}, contains(miss) \
         {miss_probe:.2?}, remove+insert {cycle:.2?}/op"
    );
}

/// §2: bulk operators across sizes.
fn bulk_ops(rows: usize) {
    let w = edm_workload(WIDTH, rows, rows / 8, 0xE20);
    let start = Instant::now();
    let v = ops::project(&w.base, w.bench.x).expect("x within universe");
    let proj = start.elapsed();
    let start = Instant::now();
    let joined = ops::natural_join(&v, &w.base).expect("shared attrs");
    let join = start.elapsed();
    println!(
        "  bulk ops, {rows} rows: π_X {proj:.2?} ({} out), π_X ⋈ base {join:.2?} ({} out)",
        v.len(),
        joined.len()
    );
}

/// §3: the E15 acceptance point — same workload and measurement shape
/// as `e15_view_maintenance`, reported here with the speedup guard.
fn stream(w: &relvu_bench::InsertWorkload, seed: u64) -> Vec<ViewUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    update_gen::update_batch(
        &mut rng,
        w.bench.x,
        w.bench.x & w.bench.y,
        &w.v,
        UPDATES,
        BatchMix {
            insert: 3,
            delete: 1,
            replace: 0,
            reject: 0,
        },
        1 << 40,
    )
}

fn engine_run(w: &relvu_bench::InsertWorkload, updates: &[ViewUpdate]) -> (Duration, usize) {
    let db = Database::new(w.bench.schema.clone(), w.bench.fds.clone(), w.base.clone())
        .expect("legal base");
    db.create_view("staff", w.bench.x, Some(w.bench.y), Policy::Test1)
        .expect("complementary");
    let mut accepted = 0;
    let mut laps = Vec::with_capacity(updates.len());
    for u in updates {
        let start = Instant::now();
        let out = match u.clone() {
            ViewUpdate::Insert(t) => db.insert_via("staff", t),
            ViewUpdate::Delete(t) => db.delete_via("staff", t),
            ViewUpdate::Replace(t1, t2) => db.replace_via("staff", t1, t2),
        };
        laps.push(start.elapsed());
        accepted += usize::from(black_box(out).is_ok());
    }
    (median(laps), accepted)
}

fn baseline_run(w: &relvu_bench::InsertWorkload, updates: &[ViewUpdate]) -> (Duration, usize) {
    let (schema, fds) = (&w.bench.schema, &w.bench.fds);
    let (x, y) = (w.bench.x, w.bench.y);
    let mut base = w.base.clone();
    let mut accepted = 0;
    let mut laps = Vec::with_capacity(updates.len());
    for u in updates {
        let start = Instant::now();
        let v = ops::project(&base, x).expect("x within universe");
        let verdict = match u {
            ViewUpdate::Insert(t) => Test1.check(schema, fds, x, y, &v, t),
            ViewUpdate::Delete(t) => translate_delete(schema, fds, x, y, &v, t),
            ViewUpdate::Replace(..) => unreachable!("mix has no replaces"),
        };
        if let Ok(Translatability::Translatable(tr)) = verdict {
            base = tr.apply(&base, x, y).expect("checked translation applies");
            accepted += 1;
        }
        laps.push(start.elapsed());
    }
    black_box(&base);
    (median(laps), accepted)
}

/// Returns the materialized/re-project speedup at `rows`.
fn acceptance_point(rows: usize, runs: usize) -> f64 {
    let w = edm_workload(WIDTH, rows, rows / 8, 0xE15);
    let updates = stream(&w, 0xE15 ^ rows as u64);
    let mut eng = Vec::with_capacity(runs);
    let mut bas = Vec::with_capacity(runs);
    for _ in 0..runs {
        let (e, ea) = engine_run(&w, &updates);
        let (b, ba) = baseline_run(&w, &updates);
        assert_eq!(ea, ba, "both paths must accept the same updates");
        assert!(ea > 0, "workload must exercise the commit path");
        eng.push(e);
        bas.push(b);
    }
    let (eng, bas) = (median(eng), median(bas));
    let speedup = bas.as_secs_f64() / eng.as_secs_f64();
    println!(
        "  maintained update, {rows} rows: {eng:.2?}/up vs {bas:.2?}/up re-projected \
         ({speedup:.2}x)"
    );
    speedup
}

fn main() {
    let smoke = std::env::var("E20_SMOKE").is_ok();
    if smoke {
        println!("e20_columnar (smoke): E15 64k acceptance point, floor {SMOKE_FLOOR}x");
        let speedup = acceptance_point(65536, 3);
        assert!(
            speedup >= SMOKE_FLOOR,
            "columnar maintained-update speedup regressed: {speedup:.2}x < {SMOKE_FLOOR}x \
             (the columnar engine measures ~81x here; the pre-columnar row store ~10.5x)"
        );
        println!("  ok: {speedup:.2}x >= {SMOKE_FLOOR}x");
        return;
    }
    println!("e20_columnar: interned columnar store + gallop joins, |Y−X| = {WIDTH}");
    for rows in [16384usize, 65536] {
        point_ops(rows);
    }
    for rows in [1024usize, 4096, 16384, 65536] {
        bulk_ops(rows);
    }
    for rows in [1024usize, 4096, 16384, 65536] {
        acceptance_point(rows, 5);
    }
}
