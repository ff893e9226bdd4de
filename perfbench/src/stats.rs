//! Order statistics for the benchmark: exact percentiles over small
//! sample sets and a log-bucketed histogram for per-step timings, where a
//! traced run sees millions of samples.
//!
//! Both refuse a percentile that has fewer than [`MIN_TAIL`] samples
//! beyond it: a p99 over 300 samples is three observations, which is
//! noise, not a tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Samples beyond percentile `q` of `n` samples (the nearest-rank tail).
fn tail_count(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Nearest-rank percentile `q` in `[0, 1]` of `samples` (any order).
/// Errors when fewer than [`MIN_TAIL`] samples lie beyond it, or when a
/// sample is not finite.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!((0.0..=1.0).contains(&q), "percentile {q} outside [0, 1]");
    let n = samples.len();
    let tail = tail_count(n, q);
    // The median needs no tail beyond a single sample set; every other
    // percentile must leave at least MIN_TAIL samples above it.
    if q > 0.5 && tail < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples has only {tail} beyond it (need {MIN_TAIL})",
            q * 100.0
        ));
    }
    if n == 0 {
        return Err("percentile of no samples".into());
    }
    if let Some(bad) = samples.iter().find(|v| !v.is_finite()) {
        return Err(format!("non-finite sample {bad}"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Ok(sorted[rank - 1])
}

/// Median of `samples` (nearest rank). Panics on an empty set: every
/// caller measures at least one round.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).expect("median of a measured sample set")
}

/// Sub-buckets per power of two: bucket width is 2^(1/32) ≈ 2.2%.
const SUB: f64 = 32.0;

/// Buckets cover 1 ns .. 2^48 ns (about three days).
const BUCKETS: usize = 48 * SUB as usize;

/// Log-bucketed histogram of positive durations in nanoseconds. Values
/// read back at the geometric centre of their bucket, so a percentile is
/// exact to about ±1.1%. The buckets are allocated up front: recording
/// never touches the heap, so a histogram can sit inside an allocation
/// count.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum_ns: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist { counts: vec![0; BUCKETS], total: 0, sum_ns: 0.0 }
    }

    fn bucket(ns: f64) -> usize {
        ((ns.max(1.0).log2() * SUB).floor() as usize).min(BUCKETS - 1)
    }

    /// Record one duration.
    pub fn record(&mut self, ns: f64) {
        self.counts[Hist::bucket(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of the recorded durations (exact, not bucketed), ns.
    pub fn sum_ns(&self) -> f64 {
        self.sum_ns
    }

    /// Percentile `q` in ns, with the same tail rule as [`percentile`].
    pub fn percentile(&self, q: f64) -> Result<f64, String> {
        let n = self.total as usize;
        let tail = tail_count(n, q);
        if n == 0 || (q > 0.5 && tail < MIN_TAIL) {
            return Err(format!(
                "p{} of {n} samples has only {tail} beyond it (need {MIN_TAIL})",
                q * 100.0
            ));
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Ok(2f64.powf((b as f64 + 0.5) / SUB));
            }
        }
        unreachable!("rank {rank} within {} samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples leaves one beyond it.
        assert!(percentile(&v, 0.99).is_err());
        // p90 leaves exactly ten.
        assert_eq!(percentile(&v, 0.90), Ok(90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Ok(990.0));
        assert_eq!(percentile(&v, 0.5), Ok(500.0));
        assert!(percentile(&[1.0, f64::NAN], 0.5).is_err());
    }

    #[test]
    fn hist_refuses_a_thin_tail_and_tracks_quantiles() {
        let mut h = Hist::new();
        for i in 1..=100 {
            h.record(i as f64 * 1_000.0);
        }
        assert!(h.percentile(0.99).is_err());
        let p50 = h.percentile(0.5).unwrap();
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.02, "{p50}");
        for i in 1..=900 {
            h.record(i as f64);
        }
        assert!(h.percentile(0.99).is_ok());
        assert_eq!(h.count(), 1_000);
    }
}
