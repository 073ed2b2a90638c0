//! Thread CPU time and CPU affinity, from the C library.
//!
//! Both are Linux calls the standard library does not wrap. Pinning the
//! benchmark's own threads makes their placement the same in every run:
//! left to the scheduler, the consumer is sometimes woken on the
//! writer's CPU and preempts it, and which of the two happens decides
//! both the read latency and the latency of short commits.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Bytes in the kernel's CPU mask (`cpu_set_t`: 1024 CPUs).
const MASK_BYTES: usize = 128;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is available on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The CPUs this process may run on, in ascending order.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_BYTES * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// Pin the calling thread to `cpu`; false if the kernel refused.
pub fn pin(cpu: usize) -> bool {
    if cpu >= MASK_BYTES * 8 {
        return false;
    }
    let mut mask = [0u8; MASK_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) == 0 }
}
