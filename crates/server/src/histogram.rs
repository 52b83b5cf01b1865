//! HDR-style latency histogram: log-linear buckets with bounded relative
//! error, constant-time recording, and percentile queries.
//!
//! Serving experiments need tail latency (p99, max), not just means — the
//! poisoning attacks specifically fatten the tail by making a *subset* of
//! lookups expensive. Storing every sample is too costly at
//! millions-of-requests scale, so [`LatencyHistogram`] uses the
//! HdrHistogram bucket layout: values below `2^SUB_BITS` are counted
//! exactly, and every octave above that splits into `2^SUB_BITS` linear
//! sub-buckets, bounding the relative quantization error by
//! `2^-SUB_BITS` (~3% with the default 5 sub-bucket bits) across the full
//! `u64` nanosecond range.
//!
//! Recording is one array increment; histograms merge by bucket-wise
//! addition, so per-worker histograms can be combined into one report.

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets,
/// bounding relative error by `2^-SUB_BITS` (~3%).
const SUB_BITS: u32 = 5;
/// Number of exact buckets / sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the whole `u64` range: `SUB` exact buckets
/// plus `64 - SUB_BITS` octaves of `SUB` sub-buckets each.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A log-linear histogram of `u64` samples (nanoseconds by convention).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `value`: exact below `SUB`, log-linear above.
    fn bucket(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // >= SUB_BITS
        let octave = (msb - SUB_BITS) as u64;
        let offset = (value >> (msb - SUB_BITS)) - SUB;
        (SUB + octave * SUB + offset) as usize
    }

    /// Smallest value mapping to bucket `b` (inverse of [`Self::bucket`]).
    fn bucket_low(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let octave = (b - SUB) / SUB;
        let offset = (b - SUB) % SUB;
        (SUB + offset) << octave
    }

    /// Largest value mapping to bucket `b`.
    fn bucket_high(b: usize) -> u64 {
        if (b as u64) < SUB {
            return b as u64;
        }
        if b + 1 >= BUCKETS {
            return u64::MAX;
        }
        Self::bucket_low(b + 1) - 1
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating).
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the recorded samples (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Exact smallest recorded sample (`0` when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound of the bucket
    /// holding the `ceil(q * count)`-th smallest sample (within the ~3%
    /// quantization error), clamped to the exact observed maximum. Returns
    /// `0` on an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_high(b).min(self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// Adds every sample of `other` into `self` (bucket-wise).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_brackets_every_magnitude() {
        for value in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let b = LatencyHistogram::bucket(value);
            assert!(
                LatencyHistogram::bucket_low(b) <= value
                    && value <= LatencyHistogram::bucket_high(b),
                "value {value} outside bucket {b} bounds"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        // With SUB samples 0..SUB, the q-quantile is the ceil(q*SUB)-th
        // smallest, counted exactly (one per bucket below SUB).
        assert_eq!(h.value_at_quantile(0.5), SUB / 2 - 1);
        assert_eq!(h.value_at_quantile(1.0), SUB - 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB - 1);
        assert_eq!(h.count(), SUB);
    }

    #[test]
    fn percentiles_of_uniform_ramp_within_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.50, 50_000.0), (0.90, 90_000.0), (0.99, 99_000.0)] {
            let got = h.value_at_quantile(q) as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel <= 1.0 / SUB as f64, "q{q}: got {got}, exact {exact}");
            // The reported bound never undershoots the true quantile's
            // bucket: it is an upper bound of the containing bucket.
            assert!(got >= exact * (1.0 - 1.0 / SUB as f64));
        }
        assert_eq!(h.max(), 100_000);
        assert!((h.mean() - 50_000.5).abs() < 1e-6);
    }

    #[test]
    fn quantile_is_monotone_and_clamped() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40, 1_000_000] {
            h.record(v);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0, 2.0] {
            let v = h.value_at_quantile(q);
            assert!(v >= prev, "quantile not monotone at {q}");
            prev = v;
        }
        assert_eq!(h.value_at_quantile(1.0), 1_000_000);
        assert_eq!(h.value_at_quantile(-3.0), 10);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let samples_a = [5u64, 100, 3_000, 77];
        let samples_b = [1u64, 999_999, 42];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for &v in &samples_a {
            a.record(v);
            all.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.mean(), all.mean());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.value_at_quantile(q), all.value_at_quantile(q));
        }
    }

    #[test]
    fn merge_of_two_empties_stays_empty() {
        let mut a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.merge(&b);
        assert!(a.is_empty());
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), 0, "empty merge must not leak the MAX sentinel");
        assert_eq!(a.max(), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.p50(), 0);
        assert_eq!(a.p99(), 0);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut full = LatencyHistogram::new();
        for v in [7u64, 88, 9_999] {
            full.record(v);
        }
        let snapshot = full.clone();

        // full ⊕ empty: nothing changes.
        full.merge(&LatencyHistogram::new());
        assert_eq!(full.count(), snapshot.count());
        assert_eq!(full.min(), snapshot.min());
        assert_eq!(full.max(), snapshot.max());
        assert_eq!(full.mean(), snapshot.mean());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(full.value_at_quantile(q), snapshot.value_at_quantile(q));
        }

        // empty ⊕ full: the min sentinel (u64::MAX) must lose to the
        // donor's true min instead of surviving the merge.
        let mut empty = LatencyHistogram::new();
        empty.merge(&full);
        assert_eq!(empty.count(), 3);
        assert_eq!(empty.min(), 7);
        assert_eq!(empty.max(), 9_999);
        assert_eq!(empty.mean(), full.mean());
        assert_eq!(empty.p50(), full.p50());
    }

    #[test]
    fn merge_saturating_max_bucket_keeps_exact_extremes() {
        // u64::MAX lands in the last (saturating) bucket, whose nominal
        // high is u64::MAX; quantiles must clamp to the exact observed
        // max, and merging two histograms that both hit the last bucket
        // must accumulate its count without overflow artifacts.
        let mut a = LatencyHistogram::new();
        a.record(u64::MAX);
        a.record(u64::MAX - 1);
        let mut b = LatencyHistogram::new();
        b.record(u64::MAX);
        b.record(1);

        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), u64::MAX);
        assert_eq!(a.value_at_quantile(1.0), u64::MAX);
        // Three of four samples sit in the top bucket: the 90th percentile
        // already resolves there and must report the clamped exact max
        // rather than the bucket's nominal upper bound overshooting count.
        assert_eq!(a.value_at_quantile(0.90), u64::MAX);
        // The mean uses the u128 sum: two u64::MAX samples must not wrap.
        assert!(a.mean() > (u64::MAX / 2) as f64);
    }

    #[test]
    fn duration_recording_saturates() {
        let mut h = LatencyHistogram::new();
        h.record_duration(std::time::Duration::from_micros(3));
        assert_eq!(h.max(), 3_000);
        h.record_duration(std::time::Duration::MAX);
        assert_eq!(h.max(), u64::MAX);
    }
}
