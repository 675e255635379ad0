//! Fixed-bucket latency histogram.
//!
//! The service records every planning latency into a histogram with a
//! fixed 1–2–5 bucket ladder (microseconds, spanning 1 µs to 50 s, plus
//! an overflow bucket above 50 s), so percentile queries cost one pass over
//! 25 counters, recording is one branchless-ish binary search + increment,
//! and the memory footprint is constant no matter how many requests flow
//! through. Percentiles are reported as the upper bound of the bucket where
//! the cumulative count crosses the rank, clamped to the largest recorded
//! sample — a deterministic, slightly pessimistic estimate whose error is
//! bounded by the bucket ratio (≤ 2.5×), plenty for p50/p95/p99 trend
//! tracking across runs, and never outside the recorded `[min, max]`.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Upper bounds of the fixed buckets, in microseconds: a 1–2–5 ladder from
/// 1 µs to 50 s. Latencies above the last bound land in an overflow bucket,
/// whose percentile is reported as the largest recorded sample.
const BOUNDS_US: [u64; 24] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000, 50_000_000,
];

/// Fixed-bucket histogram of latencies in microseconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// One count per bound, plus a final overflow bucket.
    counts: [u64; BOUNDS_US.len() + 1],
    total: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; BOUNDS_US.len() + 1],
            total: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Record one latency.
    pub fn record(&mut self, d: Duration) {
        self.record_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Record one latency given in microseconds.
    pub fn record_us(&mut self, us: u64) {
        let idx = BOUNDS_US.partition_point(|&b| b < us);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Percentile estimate in microseconds: the upper bound of the bucket
    /// where the cumulative count reaches `ceil(p · total)`, clamped to the
    /// largest recorded sample (a bucket bound can exceed every sample in
    /// its bucket). The bound is never below the smallest sample, so the
    /// estimate stays within the recorded range. `p` is clamped into
    /// (0, 1]; an empty histogram reports 0.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(f64::MIN_POSITIVE, 1.0);
        // ceil(p * total) as an integer rank ≥ 1, avoiding float edge cases
        // at p = 1.0.
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return BOUNDS_US
                    .get(i)
                    .map_or(self.max_us, |&b| b.min(self.max_us));
            }
        }
        self.max_us
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.total as f64
        }
    }

    /// Largest recorded latency in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Fold another histogram's samples into this one — bucket counts add
    /// exactly, so merging per-thread histograms loses nothing.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.total += other.total;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Freeze the histogram into a serializable summary.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.total,
            mean_us: self.mean_us(),
            p50_us: self.percentile_us(0.50),
            p95_us: self.percentile_us(0.95),
            p99_us: self.percentile_us(0.99),
            max_us: self.max_us,
        }
    }
}

impl LatencySummary {
    /// Exact summary of raw microsecond samples (sorts them in place).
    /// Unlike the bucketed histogram, percentiles here are true order
    /// statistics — use this where *ratios between summaries* must be
    /// meaningful (the connection ladder's 2× ack-latency gate), not just
    /// trend direction.
    pub fn from_samples_us(samples: &mut [u64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                mean_us: 0.0,
                p50_us: 0,
                p95_us: 0,
                p99_us: 0,
                max_us: 0,
            };
        }
        samples.sort_unstable();
        let count = samples.len();
        let rank = |p: f64| samples[((p * count as f64).ceil() as usize).clamp(1, count) - 1];
        let sum: u64 = samples.iter().fold(0, |a, &x| a.saturating_add(x));
        LatencySummary {
            count: count as u64,
            mean_us: sum as f64 / count as f64,
            p50_us: rank(0.50),
            p95_us: rank(0.95),
            p99_us: rank(0.99),
            max_us: samples[count - 1],
        }
    }
}

/// Serializable percentile summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean in microseconds.
    pub mean_us: f64,
    /// Median (bucket upper bound), microseconds.
    pub p50_us: u64,
    /// 95th percentile (bucket upper bound), microseconds.
    pub p95_us: u64,
    /// 99th percentile (bucket upper bound), microseconds.
    pub p99_us: u64,
    /// Largest sample, microseconds.
    pub max_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn uniform_distribution_percentiles() {
        // 1..=1000 µs uniformly: p50 must bound 500 µs from above within
        // one bucket (→ 500), p99 bounds 990 µs (→ 1000).
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.percentile_us(0.50), 500);
        assert_eq!(h.percentile_us(0.95), 1000);
        assert_eq!(h.percentile_us(0.99), 1000);
        assert_eq!(h.max_us(), 1000);
        assert!((h.mean_us() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn bimodal_distribution_separates_modes() {
        // 95 fast samples at 8 µs, 5 slow at 40 ms: p50/p95 sit in the fast
        // mode's bucket, p99 in the slow mode's (whose 50 ms bound clamps to
        // the 40 ms max).
        let mut h = LatencyHistogram::new();
        for _ in 0..95 {
            h.record_us(8);
        }
        for _ in 0..5 {
            h.record_us(40_000);
        }
        assert_eq!(h.percentile_us(0.50), 10);
        assert_eq!(h.percentile_us(0.95), 10);
        assert_eq!(h.percentile_us(0.99), 40_000);
    }

    #[test]
    fn single_sample_all_percentiles_agree() {
        // The sample's bucket bound is 200 µs; clamped to the sample itself.
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(137));
        for p in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile_us(p), 137, "p={p}");
        }
    }

    #[test]
    fn percentiles_stay_within_the_recorded_range() {
        // Sub-µs samples truncate to 0 µs: the 1 µs bucket bound must not
        // report a p50 above the 0 µs max.
        let mut sub = LatencyHistogram::new();
        for _ in 0..10 {
            sub.record(Duration::from_nanos(400));
        }
        assert_eq!(sub.max_us(), 0);
        assert_eq!(sub.percentile_us(0.50), 0);
        assert_eq!(sub.percentile_us(0.99), 0);

        // Mid-bucket samples: 30..=40 µs sit in the (20, 50] bucket, whose
        // bound 50 lies above the 40 µs max.
        let mut mid = LatencyHistogram::new();
        mid.record(Duration::from_nanos(300));
        for us in 30..=40u64 {
            mid.record_us(us);
        }
        let s = mid.summary();
        assert!(s.p50_us <= s.p99_us, "{s:?}");
        assert!(s.p99_us <= s.max_us, "{s:?}");
        assert_eq!(s.max_us, 40);
        assert_eq!(s.p99_us, 40);
    }

    #[test]
    fn overflow_lands_in_cap_bucket() {
        let mut h = LatencyHistogram::new();
        h.record_us(90_000_000_000); // 25 h
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile_us(0.5), 90_000_000_000);
        assert_eq!(h.max_us(), 90_000_000_000);
    }

    #[test]
    fn bucket_bounds_are_sorted_and_unique() {
        assert_eq!(BOUNDS_US[0], 1);
        for w in BOUNDS_US.windows(2) {
            assert!(w[0] < w[1]);
            // A 1–2–5 ladder: every step is ×2 (1→2, 5→10) or ×2.5 (2→5).
            assert!(
                w[1] == 2 * w[0] || 2 * w[1] == 5 * w[0],
                "{} → {} is not a 1–2–5 step",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn exact_summary_order_statistics() {
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        let s = LatencySummary::from_samples_us(&mut samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p95_us, 95);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
        assert_eq!(LatencySummary::from_samples_us(&mut []).count, 0);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for us in [3, 17, 230] {
            a.record_us(us);
            whole.record_us(us);
        }
        for us in [8, 4_500, 90_000] {
            b.record_us(us);
            whole.record_us(us);
        }
        a.merge(&b);
        assert_eq!(a.summary(), whole.summary());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut h = LatencyHistogram::new();
        for us in [3, 17, 230, 4_500] {
            h.record_us(us);
        }
        let s = h.summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: LatencySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
