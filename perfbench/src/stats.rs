//! Order statistics and the tiny deterministic RNG the harness uses.

use std::time::Duration;

/// Nearest-rank percentile of a **sorted** slice: the element at rank
/// `ceil(p · len)` (1-based), zero when empty. Same definition as
/// `feast::telemetry::percentile_reference` (a test pins the two together),
/// applied here to exact per-request samples instead of log2 buckets.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `samples` (nanoseconds) and returns `(p50, p99)` in microseconds.
pub fn p50_p99_us(samples: &mut [u64]) -> (f64, f64) {
    samples.sort_unstable();
    (
        percentile(samples, 0.50) as f64 / 1e3,
        percentile(samples, 0.99) as f64 / 1e3,
    )
}

/// Median of a small set of measurements (mean of the middle two for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of nanosecond samples, in microseconds.
pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64 / 1e3
}

pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// SplitMix64: a seedable, dependency-free generator for arrival gaps.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_equals_the_telemetry_reference() {
        let mut rng = SplitMix::new(7);
        for len in [0usize, 1, 2, 3, 10, 99, 100, 101, 1000] {
            let mut v: Vec<u64> = (0..len).map(|_| rng.next_u64() % 10_000).collect();
            v.sort_unstable();
            for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    percentile(&v, p),
                    feast::telemetry::percentile_reference(&v, p),
                    "len {len} p {p}"
                );
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
