//! E16 — DAG delta propagation: commit latency vs depth and fan-out.
//!
//! Views registered over other views form a maintenance DAG; `commit`
//! walks it in topological order and folds each node's **incoming
//! instance delta** — O(|Δ|) per node, with Δ the *parent's* instance
//! delta, not the base delta. This experiment measures what that buys
//! against the flat alternative: recompute every node's collapsed
//! definition `π_X(R)` from the base after each commit (O(|base|) per
//! node).
//!
//! Two sweeps over a manager-change workload (each replace touches
//! `rows/depts` base rows but only 2 instance rows of the DAG root):
//! a **depth** sweep along a chain (fan-out 1, depth 1–4) and a
//! **fan-out** sweep over a depth-2 tree (fan-out 1–8, up to 72
//! nodes). A third phase updates through the *complement side* of the
//! DAG root, which leaves the root's instance unchanged — the
//! `engine.dag.nodes_skipped` counter must show the entire subtree
//! skipping, confirming quiet commits do zero per-node work.

use std::hint::black_box;
use std::time::{Duration, Instant};

use relvu_engine::{Database, Policy};
use relvu_relation::{ops, AttrSet, Relation, Tuple, Value};
use relvu_workload::schema_gen::{self, BenchSchema};

const ROWS: u64 = 4096;
const DEPTS: u64 = 64;
const UPDATES: usize = 64;
const RUNS: usize = 5;

fn build_base(b: &BenchSchema) -> Relation {
    let mut base = Relation::new(b.schema.universe());
    for e in 0..ROWS {
        let d = e % DEPTS;
        base.insert(Tuple::new([
            Value::int(e),
            Value::int(d),
            Value::int(d * 1_000_000),
        ]))
        .expect("fresh row");
    }
    base
}

/// Engine with the EDM root pair registered: `staff` = π{E,D} (the
/// complement side) and `mgrs` = π{D,M0} (the DAG root). When `depth >
/// 0`, a tree of `fanout`-ary full-X children hangs below `mgrs`.
fn build_db(b: &BenchSchema, base: &Relation, depth: usize, fanout: usize) -> (Database, usize) {
    let d = b.schema.attr("D").expect("D");
    let m = b.schema.attr("M0").expect("M0");
    let db = Database::new(b.schema.clone(), b.fds.clone(), base.clone()).expect("legal base");
    db.create_view("staff", b.x, Some(b.y), Policy::Test1)
        .expect("complementary");
    let dm: AttrSet = [d, m].into_iter().collect();
    db.create_view("mgrs", dm, None, Policy::Exact)
        .expect("auto complement");
    let mut n_nodes = 0;
    let mut frontier = vec!["mgrs".to_string()];
    for lvl in 0..depth {
        let mut next = Vec::new();
        for (pi, parent) in frontier.iter().enumerate() {
            for c in 0..fanout {
                let name = format!("n{lvl}_{pi}_{c}");
                db.create_view_over(&name, parent, dm, None, Policy::Exact)
                    .expect("full-X child composes");
                next.push(name);
                n_nodes += 1;
            }
        }
        frontier = next;
    }
    (db, n_nodes)
}

/// The manager-change stream: dept `i % DEPTS` gets its `i`-th fresh
/// manager. Every replace is translatable (the minimal complement of
/// π{D,M0} is held constant) and rewrites `ROWS/DEPTS` base rows while
/// the DAG root's instance delta stays at two tuples.
fn replaces() -> Vec<(Tuple, Tuple)> {
    let mut cur: Vec<u64> = (0..DEPTS).map(|d| d * 1_000_000).collect();
    let mut out = Vec::with_capacity(UPDATES);
    for i in 0..UPDATES as u64 {
        let d = i % DEPTS;
        let next = cur[d as usize] + 1;
        out.push((
            Tuple::new([Value::int(d), Value::int(cur[d as usize])]),
            Tuple::new([Value::int(d), Value::int(next)]),
        ));
        cur[d as usize] = next;
    }
    out
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Median per-commit latency with the DAG maintained incrementally.
fn incremental_run(b: &BenchSchema, base: &Relation, depth: usize, fanout: usize) -> Duration {
    let (db, _) = build_db(b, base, depth, fanout);
    let mut laps = Vec::with_capacity(UPDATES);
    for (t1, t2) in replaces() {
        let start = Instant::now();
        db.replace_via("mgrs", t1, t2).expect("translatable");
        laps.push(start.elapsed());
    }
    black_box(&db);
    median(laps)
}

/// Median per-commit latency of the flat baseline: same engine commit,
/// then every DAG node's collapsed `π_X(R)` recomputed from the base.
fn flat_run(b: &BenchSchema, base: &Relation, n_nodes: usize) -> Duration {
    let d = b.schema.attr("D").expect("D");
    let m = b.schema.attr("M0").expect("M0");
    let dm: AttrSet = [d, m].into_iter().collect();
    let (db, _) = build_db(b, base, 0, 0);
    let mut laps = Vec::with_capacity(UPDATES);
    for (t1, t2) in replaces() {
        let start = Instant::now();
        db.replace_via("mgrs", t1, t2).expect("translatable");
        let base = db.snapshot().base();
        for _ in 0..n_nodes {
            black_box(ops::project(&base, dm).expect("dm within universe"));
        }
        laps.push(start.elapsed());
    }
    median(laps)
}

/// Updates through `staff` hold π{D,M0} constant: the DAG root folds to
/// an empty out-delta and every node below it must *skip*. Returns the
/// per-update `engine.dag.nodes_skipped` delta.
fn quiet_run(b: &BenchSchema, base: &Relation, depth: usize, fanout: usize) -> u64 {
    let (db, _) = build_db(b, base, depth, fanout);
    let skipped = || relvu_obs::counter!("engine.dag.nodes_skipped").get();
    let before = skipped();
    for j in 0..UPDATES as u64 {
        db.insert_via(
            "staff",
            Tuple::new([Value::int(ROWS + j), Value::int(j % DEPTS)]),
        )
        .expect("existing dept accepts a hire");
    }
    (skipped() - before) / UPDATES as u64
}

fn sweep(b: &BenchSchema, base: &Relation, label: &str, shapes: &[(usize, usize)]) {
    println!("  {label}");
    println!(
        "  {:>6}  {:>6}  {:>5}  {:>14}  {:>14}  {:>8}  {:>13}",
        "depth", "fanout", "nodes", "incremental", "flat π_X(R)", "speedup", "skipped/quiet"
    );
    for &(depth, fanout) in shapes {
        let n_nodes = (1..=depth).map(|l| fanout.pow(l as u32)).sum::<usize>();
        let mut inc = Vec::with_capacity(RUNS);
        let mut flat = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            inc.push(incremental_run(b, base, depth, fanout));
            flat.push(flat_run(b, base, n_nodes));
        }
        let (inc, flat) = (median(inc), median(flat));
        let skipped = quiet_run(b, base, depth, fanout);
        // With obs compiled in, a quiet commit must skip the whole
        // subtree below the root — zero per-node work, not small work.
        #[cfg(feature = "obs")]
        assert_eq!(
            skipped as usize, n_nodes,
            "quiet commits must skip every DAG node below the root"
        );
        let speedup = flat.as_secs_f64() / inc.as_secs_f64();
        println!(
            "  {depth:>6}  {fanout:>6}  {n_nodes:>5}  {:>11.2?}/up  {:>11.2?}/up  {speedup:>7.2}x  {skipped:>13}",
            inc, flat,
        );
    }
}

fn main() {
    let b = schema_gen::edm_family(1);
    let base = build_base(&b);
    println!(
        "e16_dag_propagation: {ROWS} base rows, {DEPTS} depts, {UPDATES} manager changes \
         via the DAG root, median of {RUNS} runs"
    );
    sweep(
        &b,
        &base,
        "chain (fan-out 1), depth sweep:",
        &[(1, 1), (2, 1), (3, 1), (4, 1)],
    );
    sweep(
        &b,
        &base,
        "depth-2 tree, fan-out sweep:",
        &[(2, 1), (2, 2), (2, 4), (2, 8)],
    );
}
