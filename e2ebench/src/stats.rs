//! Order statistics over latency samples.

use std::time::{Duration, Instant};

/// The `q`-quantile of `xs` by nearest rank (0.0 for no samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `xs` (0.0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The mean of `xs` (0.0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `b - a` in milliseconds, signed.
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    if b >= a {
        (b - a).as_secs_f64() * 1e3
    } else {
        -((a - b).as_secs_f64() * 1e3)
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0.0 when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
