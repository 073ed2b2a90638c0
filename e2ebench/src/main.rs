//! End-to-end and per-layer benchmark of relvu's durable view-update
//! path: `DurableDatabase` driven through one of three workloads.
//!
//! ```sh
//! cargo run --offline --release --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ingest_exact --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured without spans or probes.
//! With `--trace 1` the run is split in two halves: an untraced half
//! (the baseline for the tracing overhead, and the source of the
//! registry-derived figures) and a traced half (spans around the
//! benchmark's calls into each layer, and probes on an in-memory twin);
//! the metrics are the per-layer ones. The spans are written to
//! `e2ebench/out/trace-<workload>.csv`. `e2ebench/README.md` explains
//! every workload and metric.

mod calib;
mod cpu;
mod driver;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use driver::RunOut;
use stats::{mean, median, quantile, ratio};
use trace::{by_op, durations, self_times, write_csv};
use workload::{Kind, Spec};

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    workload::ALL
                        .into_iter()
                        .find(|s| s.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad.clone())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The commit the source tree was checked out at, if it is a git
/// checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Peak resident memory of this process, in MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn provenance(a: &Args) -> String {
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"obs_enabled\": {}, \
         \"sync_policy\": \"Always\", \"memvfs_sync_delay_ms\": {}, \"writers\": {}, \
         \"open_loop_rate\": {}}}}}",
        a.spec.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("E2EBENCH_RUSTC"),
        git_commit(),
        relvu::obs::enabled(),
        stats::ms(a.spec.sync_delay),
        a.spec.writers,
        a.spec.rate.map_or("null".to_string(), |r| r.to_string()),
    )
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// A CPU-speed factor (1.0 unless `scale`): the reference job's median
/// CPU time against its nominal one.
fn factor(ref_us: &[f64], scale: bool) -> f64 {
    let m = median(ref_us);
    if scale && m > 0.0 {
        m / calib::NOMINAL_US
    } else {
        1.0
    }
}

/// The end-to-end metrics. With `scale`, a time spent computing is
/// divided (and a closed loop's rate multiplied) by the CPU-speed factor
/// measured beside it: writer 0's for the measured interval, the main
/// thread's for set-up and restart. Not scaled: commits that wait on a
/// simulated device, and an open loop's offered rate.
fn end_to_end(r: &RunOut, spec: &Spec, scale: bool) -> Vec<Metric> {
    let fw = factor(&r.ref_us, scale);
    let fd = if spec.sync_delay.is_zero() { fw } else { 1.0 };
    // An open loop's throughput is its offered rate.
    let fr = if spec.rate.is_some() { 1.0 } else { fd };
    let accepted: Vec<f64> = [Kind::Insert, Kind::Delete, Kind::Replace]
        .iter()
        .flat_map(|k| r.lat_ms[k.index()].iter().copied())
        .collect();
    let p50 = |k: Kind| median(&r.lat_ms[k.index()]);
    vec![
        (
            "setup_s",
            median(&r.setup_s) / factor(&r.setup_ref_us, scale),
            "s",
        ),
        ("ops_per_s", ratio(r.acked as f64, r.wall_s) * fr, "ops/s"),
        ("insert_p50_ms", p50(Kind::Insert) / fd, "ms"),
        ("delete_p50_ms", p50(Kind::Delete) / fd, "ms"),
        ("replace_p50_ms", p50(Kind::Replace) / fd, "ms"),
        ("reject_p50_ms", p50(Kind::Reject) / fw, "ms"),
        ("commit_p90_ms", quantile(&accepted, 0.9) / fd, "ms"),
        ("cdc_delivery_mean_ms", mean(&r.cdc_ms) / fw, "ms"),
        ("cdc_delivery_p90_ms", quantile(&r.cdc_ms, 0.9) / fw, "ms"),
        (
            "restart_ms",
            median(&r.restart_ms) / factor(&r.restart_ref_us, scale),
            "ms",
        ),
        (
            "store_bytes_per_op",
            ratio((r.wal_bytes + r.ckpt_bytes) as f64, r.acked as f64),
            "B",
        ),
        ("rss_peak_mb", rss_peak_mb(), "MB"),
    ]
}

/// Registry sum (ns) of a histogram over the measured interval.
fn hist_sum(r: &RunOut, name: &str) -> f64 {
    let get = |s: &relvu::obs::Snapshot| s.histogram(name).map_or(0, |h| h.sum);
    (get(&r.reg.1) - get(&r.reg.0)) as f64
}

fn hist_count(r: &RunOut, name: &str) -> f64 {
    let get = |s: &relvu::obs::Snapshot| s.histogram(name).map_or(0, |h| h.count);
    (get(&r.reg.1) - get(&r.reg.0)) as f64
}

fn counter(r: &RunOut, name: &str) -> f64 {
    (r.reg.1.counter(name) - r.reg.0.counter(name)) as f64
}

/// Per-layer metrics: registry counts from the untraced half `plain`,
/// span timings from the traced half `traced`.
fn per_layer(plain: &RunOut, traced: &RunOut) -> (Vec<Metric>, String) {
    let s = &traced.spans;
    // Times spent computing are scaled as in `end_to_end`: the writers'
    // by each half's writer factor, the main thread's (twin replay,
    // restarts) by its restart factor. Snapshot reads are not: the factor
    // does not track them (README).
    let fw = factor(&plain.ref_us, true);
    let tw = factor(&traced.ref_us, true);
    let tm = factor(&traced.restart_ref_us, true);
    let core = durations(s, "core.check");
    let eng = durations(s, "engine.apply");
    let dur = durations(s, "durability.apply");
    let reads = durations(s, "mvcc.read");
    // Per op: the durable apply (a writer's time) less the twin's engine
    // apply (the main thread's), each at its own thread's factor.
    let twin = by_op(s, "engine.apply");
    let durable_self: Vec<f64> = s
        .iter()
        .filter(|x| x.name == "durability.apply")
        .filter_map(|x| twin.get(&x.op).map(|e| x.us() / tw - e / tm))
        .collect();
    let commits = plain.accepted as f64;
    let applies = plain.apply_us.len() as f64;

    // The registry's commit phases, per durable apply. Fan-out runs
    // inside publish, and append and fsync inside the group wait, so the
    // sum counts each interval once.
    let per_apply_us = |name| ratio(hist_sum(plain, name), applies) / 1e3;
    let check = per_apply_us("engine.check_ns");
    let fold = per_apply_us("engine.mat.delta_ns");
    let publish = per_apply_us("engine.snap.publish_ns");
    let dispatch = per_apply_us("engine.sub.fanout_ns");
    let wal = per_apply_us("durability.wal.append_ns") + per_apply_us("durability.wal.fsync_ns");
    let wait = per_apply_us("durability.group.stall_ns");
    let apply_mean = mean(&plain.apply_us);
    let unaccounted = apply_mean - (check + fold + publish + wait);
    let share = |x: f64| ratio(x, apply_mean);
    let breakdown = format!(
        "commit breakdown (untraced half, mean durable apply {apply_mean:.1} us): \
         check {:.1}%, fold {:.1}%, publish {:.1}%, dispatch {:.1}%, wal append+fsync {:.1}%, \
         group wait beyond wal {:.1}%, unaccounted {unaccounted:.1} us ({:.1}%)",
        100.0 * share(check),
        100.0 * share(fold),
        100.0 * share(publish - dispatch),
        100.0 * share(dispatch),
        100.0 * share(wal),
        100.0 * share(wait - wal),
        100.0 * share(unaccounted),
    );

    let m = vec![
        ("core.check_us.p50", median(&core) / tm, "us"),
        ("core.check_us.p99", quantile(&core, 0.99) / tm, "us"),
        (
            "core.accept_ratio",
            ratio(traced.probe_accepts as f64, traced.probes as f64),
            "ratio",
        ),
        (
            "chase.runs_per_op",
            ratio(counter(plain, "core.chase.runs"), applies),
            "count",
        ),
        (
            "chase.equations_per_op",
            ratio(counter(plain, "core.chase.equations"), applies),
            "count",
        ),
        ("engine.apply_us.p50", median(&eng) / tm, "us"),
        ("engine.apply_us.p99", quantile(&eng, 0.99) / tm, "us"),
        (
            "engine.self_us.p50",
            median(&self_times(s, "engine.apply", "core.check")) / tm,
            "us",
        ),
        (
            "engine.dag.nodes_folded_per_op",
            ratio(counter(plain, "engine.dag.nodes_folded"), commits),
            "count",
        ),
        ("mvcc.pin_us.p50", median(&durations(s, "mvcc.pin")), "us"),
        ("mvcc.read_us.p50", median(&reads), "us"),
        ("mvcc.read_us.p99", quantile(&reads, 0.99), "us"),
        (
            "sub.events_per_commit",
            ratio(plain.events as f64, commits),
            "count",
        ),
        (
            "sub.queue_depth.max",
            plain.queue_depth_max.max(traced.queue_depth_max) as f64,
            "count",
        ),
        ("sub.lagged", (plain.lagged + traced.lagged) as f64, "count"),
        (
            "sub.delivery_ms.p99",
            quantile(&traced.cdc_ms, 0.99) / tw,
            "ms",
        ),
        ("durability.apply_us.p50", median(&dur) / tw, "us"),
        ("durability.apply_us.p99", quantile(&dur, 0.99) / tw, "us"),
        ("durability.self_us.p50", median(&durable_self), "us"),
        ("durability.unaccounted_us.mean", unaccounted / fw, "us"),
        ("commit.share.check", share(check), "ratio"),
        ("commit.share.fold", share(fold), "ratio"),
        ("commit.share.publish", share(publish - dispatch), "ratio"),
        ("commit.share.dispatch", share(dispatch), "ratio"),
        ("commit.share.wal", share(wal), "ratio"),
        (
            "group.ops_per_fsync",
            ratio(commits, counter(plain, "durability.wal.fsyncs")),
            "count",
        ),
        (
            "wal.bytes_per_op",
            ratio(plain.wal_bytes as f64, commits),
            "B",
        ),
        (
            "wal.append_us.mean",
            ratio(
                hist_sum(plain, "durability.wal.append_ns"),
                hist_count(plain, "durability.wal.append_ns"),
            ) / 1e3
                / fw,
            "us",
        ),
        (
            "ckpt.incremental_ms.p50",
            median(&durations(s, "ckpt.incremental")) / 1e3 / tw,
            "ms",
        ),
        (
            "ckpt.bytes_per_op",
            ratio(plain.ckpt_bytes as f64, commits),
            "B",
        ),
        (
            "recover.load_ms",
            median(&durations(s, "recover.load")) / 1e3 / tm,
            "ms",
        ),
        (
            "recover.scan_ms",
            median(&durations(s, "recover.scan")) / 1e3 / tm,
            "ms",
        ),
        (
            "recover.invariants_ms",
            median(&durations(s, "recover.invariants")) / 1e3 / tm,
            "ms",
        ),
        ("recover.replay_ms", replay_ms(s) / tm, "ms"),
        (
            "recover.records_replayed",
            traced.records_replayed as f64,
            "count",
        ),
        (
            "loadgen.late_ms.p99",
            quantile(&plain.late_ms, 0.99) / fw,
            "ms",
        ),
    ];
    (m, breakdown)
}

/// Median over restarts of the `recover` total less the separately
/// timed checkpoint load, WAL scan and invariant check.
fn replay_ms(s: &[trace::Span]) -> f64 {
    let parts: Vec<_> = ["recover.load", "recover.scan", "recover.invariants"]
        .iter()
        .map(|n| by_op(s, n))
        .collect();
    let replay: Vec<f64> = s
        .iter()
        .filter(|x| x.name == "recover")
        .map(|x| x.us() - parts.iter().filter_map(|p| p.get(&x.op)).sum::<f64>())
        .collect();
    median(&replay) / 1e3
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    out.push('}');
    out
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

fn report_notes(label: &str, r: &RunOut) {
    for n in &r.notes {
        eprintln!("{label}: {n}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::ALL.map(|s| s.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let spec = args.spec;
    if !args.trace {
        let r = driver::run(spec, args.seed, args.seconds, false);
        report_notes("run", &r);
        println!(
            "{{\"cpu_factor\": {:?}, \"raw_metrics\": {}}}",
            factor(&r.ref_us, true),
            metrics_json(&end_to_end(&r, spec, false))
        );
        let metrics = end_to_end(&r, spec, true);
        println!(
            "{}",
            result_line(r.failed == 0, r.attempted, r.failed, &metrics)
        );
        return ExitCode::SUCCESS;
    }
    let half = args.seconds / 2.0;
    let plain = driver::run(spec, args.seed, half, false);
    report_notes("untraced half", &plain);
    let traced = driver::run(spec, args.seed, half, true);
    report_notes("traced half", &traced);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.csv", spec.name));
    if let Err(e) = write_csv(&path, &traced.spans) {
        eprintln!("e2ebench: writing {}: {e}", path.display());
    }
    let (mut metrics, breakdown) = per_layer(&plain, &traced);
    // Tracing overhead: the traced half's end-to-end figures against
    // the untraced half's, each at its own CPU-speed factor.
    let (e0, e1) = (
        end_to_end(&plain, spec, true),
        end_to_end(&traced, spec, true),
    );
    let overhead: Vec<String> = e0
        .iter()
        .zip(&e1)
        .filter(|(a, _)| a.0 != "rss_peak_mb")
        .map(|(a, b)| format!("{} {:+.4} {}", a.0, b.1 - a.1, a.2))
        .collect();
    let p90 = |e: &[Metric]| {
        e.iter()
            .find(|m| m.0 == "commit_p90_ms")
            .map_or(0.0, |m| m.1)
    };
    let (c0, c1) = (p90(&e0), p90(&e1));
    metrics.push(("trace.overhead_pct", 100.0 * ratio(c1 - c0, c0), "%"));
    println!("{breakdown}");
    println!(
        "tracing overhead (traced half minus untraced half): commit_p90_ms {:+.4} ({:+.1}%); {}",
        c1 - c0,
        100.0 * ratio(c1 - c0, c0),
        overhead.join(", ")
    );
    let failed = plain.failed + traced.failed;
    println!(
        "{}",
        result_line(
            failed == 0,
            plain.attempted + traced.attempted,
            failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
