//! CPU-speed factors.
//!
//! The sandbox's CPUs are shared, and their speed drifts by tens of
//! percent over seconds and minutes, which would swamp any comparison of
//! CPU-bound times between runs. So a fixed reference job that uses no
//! code of the program is timed beside each measurement (by writer 0
//! every [`EVERY`]; by the main thread before each set-up and restart),
//! in CPU time of its own thread (immune to preemption by the program's
//! other threads), and each time is reported scaled by the factor
//! `median / NOMINAL_US` measured beside it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

use crate::cpu;

/// The reference job's median CPU time on the machine the benchmark was
/// tuned on (2 vCPUs, x86-64); scaled times read in that machine's units.
pub const NOMINAL_US: f64 = 300.0;
/// How often writer 0 runs the job.
pub const EVERY: Duration = Duration::from_millis(20);

/// Sort, hash and look up 2048 four-column rows — the kind of work a
/// relation operator does — and return the thread CPU time it took.
pub fn reference_job() -> Duration {
    let start = cpu::thread_cpu_time();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut rows: Vec<[u64; 4]> = (0..2048)
        .map(|_| [next() % 4096, next() % 64, next(), next() % 7])
        .collect();
    rows.sort_unstable();
    let index: HashMap<[u64; 4], usize> = rows.iter().enumerate().map(|(i, r)| (*r, i)).collect();
    let hits: usize = rows.iter().rev().map(|r| index[r]).sum();
    black_box(hits);
    cpu::thread_cpu_time() - start
}
