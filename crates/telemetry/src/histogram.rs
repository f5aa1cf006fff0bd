//! Fixed-bucket log-scale latency histograms.
//!
//! The bucket layout is HDR-style: values below 8 get one bucket each,
//! larger values share an octave (power of two) split into 8 linear
//! sub-buckets, i.e. ~6% relative resolution at any magnitude. With 256
//! buckets the range covers 0 ns up to ~16 s before the final bucket
//! saturates — comfortably wider than any per-probe pipeline stage.
//!
//! Two representations share the layout:
//!
//! * [`HistogramShard`] — plain `u64` buckets, owned by exactly one worker
//!   thread. Recording is a handful of arithmetic ops and one array store;
//!   no atomics, no sharing, no contention.
//! * [`LatencyHistogram`] — one shard behind a lock, owned by the
//!   registry. Each worker merges its shard in once, when it finishes, so
//!   the hot path never touches shared memory and a reader sees whole
//!   merges only.

use crate::manifest::StageSnapshot;
use std::sync::{Mutex, MutexGuard};

/// Number of buckets in every histogram.
pub const BUCKET_COUNT: usize = 256;

/// Values below this get one bucket each (exact resolution).
const LINEAR_LIMIT: u64 = 8;
/// Sub-bucket bits per octave above the linear region.
const SUB_BITS: u64 = 3;

/// Maps a value (nanoseconds by convention) to its bucket index.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_LIMIT {
        value as usize
    } else {
        let exp = 63 - u64::from(value.leading_zeros());
        let sub = (value >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        let idx = LINEAR_LIMIT + (exp - SUB_BITS) * (1 << SUB_BITS) + sub;
        idx.min(BUCKET_COUNT as u64 - 1) as usize
    }
}

/// The half-open value range `[lo, hi)` a bucket covers. The final bucket
/// is unbounded above (`hi = u64::MAX`).
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKET_COUNT, "bucket index {index} out of range");
    let index = index as u64;
    if index < LINEAR_LIMIT {
        return (index, index + 1);
    }
    let octave = index - LINEAR_LIMIT;
    let exp = octave / (1 << SUB_BITS) + SUB_BITS;
    let sub = octave % (1 << SUB_BITS);
    let lo = (LINEAR_LIMIT + sub) << (exp - SUB_BITS);
    if index == BUCKET_COUNT as u64 - 1 {
        return (lo, u64::MAX);
    }
    (lo, lo + (1 << (exp - SUB_BITS)))
}

/// One worker's private histogram: plain integers, no synchronization.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramShard {
    buckets: [u64; BUCKET_COUNT],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramShard {
    fn default() -> Self {
        HistogramShard {
            buckets: [0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl std::fmt::Debug for HistogramShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramShard")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl HistogramShard {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramShard) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Quantile estimate: the inclusive upper bound of the bucket holding
    /// the `q`-quantile sample, clamped to the exactly-tracked min/max.
    /// `q` is clamped into `[0, 1]`; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, hi) = bucket_bounds(idx);
                return hi.saturating_sub(1).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Point-in-time export of the summary statistics.
    pub fn snapshot(&self, name: &str) -> StageSnapshot {
        StageSnapshot {
            stage: name.to_string(),
            count: self.count(),
            sum_ns: self.sum(),
            min_ns: self.min(),
            max_ns: self.max(),
            mean_ns: self.mean(),
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
        }
    }
}

/// The registry-side histogram: a [`HistogramShard`] behind a lock.
///
/// Each worker merges its shard in once per sweep and readers run after
/// the sweep, so the lock is taken a few times per stage per campaign.
#[derive(Debug, Default)]
pub struct LatencyHistogram(Mutex<HistogramShard>);

impl LatencyHistogram {
    fn lock(&self) -> MutexGuard<'_, HistogramShard> {
        self.0
            .lock()
            .expect("stage histogram lock poisoned by a panicked merge")
    }

    /// Merges one worker shard in.
    pub fn merge_shard(&self, shard: &HistogramShard) {
        self.lock().merge(shard);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.lock().count
    }

    /// Copies the current state into a plain shard (for quantiles etc.).
    pub fn to_shard(&self) -> HistogramShard {
        self.lock().clone()
    }

    /// Point-in-time export of the summary statistics.
    pub fn snapshot(&self, name: &str) -> StageSnapshot {
        self.lock().snapshot(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        for v in 0..LINEAR_LIMIT {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v + 1));
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_cover_u64() {
        let (lo0, _) = bucket_bounds(0);
        assert_eq!(lo0, 0);
        for idx in 0..BUCKET_COUNT - 1 {
            let (_, hi) = bucket_bounds(idx);
            let (next_lo, _) = bucket_bounds(idx + 1);
            assert_eq!(hi, next_lo, "gap between buckets {idx} and {}", idx + 1);
        }
        let (_, last_hi) = bucket_bounds(BUCKET_COUNT - 1);
        assert_eq!(last_hi, u64::MAX);
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let probes = [
            0,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            100,
            1_000,
            4_095,
            4_096,
            65_535,
            1_000_000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= v && (v < hi || idx == BUCKET_COUNT - 1),
                "value {v} outside bucket {idx} = [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn bucket_boundaries_split_exactly_at_power_of_two_edges() {
        // 2^k must start a fresh bucket for every octave in range.
        for exp in 3..30u32 {
            let v = 1u64 << exp;
            let (lo, _) = bucket_bounds(bucket_index(v));
            assert_eq!(lo, v, "2^{exp} must be a bucket lower bound");
            assert_ne!(bucket_index(v), bucket_index(v - 1), "edge at 2^{exp}");
        }
    }

    #[test]
    fn relative_resolution_is_bounded() {
        // Sub-bucketing keeps bucket width <= 1/8 of the value's octave.
        for &v in &[100u64, 1_000, 10_000, 1_000_000, 50_000_000] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            let width = (hi - lo) as f64;
            assert!(width / lo as f64 <= 0.125 + 1e-9, "width {width} at {v}");
        }
    }

    #[test]
    fn shard_tracks_count_sum_min_max() {
        let mut h = HistogramShard::default();
        assert_eq!((h.count(), h.min(), h.max(), h.mean()), (0, 0, 0, 0));
        for v in [5u64, 10, 100, 1_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_115);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 1_000);
        assert_eq!(h.mean(), 278);
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = HistogramShard::default();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50);
        let p90 = h.quantile(0.90);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max());
        // ~6% bucket resolution around the true rank values.
        assert!((450..=560).contains(&p50), "p50 = {p50}");
        assert!((850..=1000).contains(&p90), "p90 = {p90}");
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn merge_of_n_shards_equals_single_shard() {
        // The tentpole guarantee: per-worker sharding must be lossless.
        let values: Vec<u64> = (0..5_000u64)
            .map(|i| (i * 2_654_435_761) % 300_000)
            .collect();
        let mut single = HistogramShard::default();
        for &v in &values {
            single.record(v);
        }
        let n = 7;
        let mut shards: Vec<HistogramShard> = (0..n).map(|_| HistogramShard::default()).collect();
        for (i, &v) in values.iter().enumerate() {
            shards[i % n].record(v);
        }
        let mut merged = HistogramShard::default();
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged, single);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), single.quantile(q));
        }
    }

    #[test]
    fn quantile_on_empty_shard_is_zero() {
        let h = HistogramShard::default();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(h.quantile(q), 0, "empty shard, q = {q}");
        }
    }

    #[test]
    fn quantile_extremes_hit_exact_min_and_max() {
        let mut h = HistogramShard::default();
        for v in [17u64, 4_242, 99_999, 3] {
            h.record(v);
        }
        // q = 0.0 and 1.0 must return the exactly-tracked bounds, not
        // bucket approximations; out-of-range q clamps to the same.
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.quantile(1.0), 99_999);
        assert_eq!(h.quantile(-0.5), 3);
        assert_eq!(h.quantile(1.5), 99_999);
        // Single-value shard: every quantile is that value.
        let mut one = HistogramShard::default();
        one.record(777);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 777);
        }
    }

    /// Bucket width at `v` — the tolerance of any quantile estimate.
    fn bucket_width(v: u64) -> u64 {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        hi - lo
    }

    #[test]
    fn merged_quantiles_match_sorted_vector_oracle() {
        // Property check: split a value stream across shards, merge, and
        // compare every quantile against the true rank statistic from a
        // sorted vector. The estimate may only exceed the true value by
        // less than one bucket width (~6% relative resolution).
        let values: Vec<u64> = (0..4_000u64)
            .map(|i| {
                i.wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i * i)
                    % 5_000_000
            })
            .collect();
        let n = 5;
        let mut shards: Vec<HistogramShard> = (0..n).map(|_| HistogramShard::default()).collect();
        for (i, &v) in values.iter().enumerate() {
            shards[i % n].record(v);
        }
        let mut merged = HistogramShard::default();
        for shard in &shards {
            merged.merge(shard);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = merged.quantile(q);
            assert!(
                truth <= est && est - truth < bucket_width(truth).max(1),
                "q = {q}: oracle {truth}, estimate {est}"
            );
        }
    }

    /// A registry histogram holding exactly `shard`.
    fn merged(shard: &HistogramShard) -> LatencyHistogram {
        let registry = LatencyHistogram::default();
        registry.merge_shard(shard);
        registry
    }

    #[test]
    fn registry_histogram_matches_shard_semantics() {
        let mut shard = HistogramShard::default();
        for v in [3u64, 9, 81, 6_561, 43_046_721] {
            shard.record(v);
        }
        let registry = merged(&shard);
        assert_eq!(registry.count(), 5);
        assert_eq!(registry.to_shard(), shard);
        assert_eq!(registry.snapshot("s"), shard.snapshot("s"));
    }

    #[test]
    fn percentiles_on_empty_shard_are_all_zero() {
        let shard = HistogramShard::default();
        for q in [0.50, 0.90, 0.99] {
            assert_eq!(shard.quantile(q), 0, "p{q} of an empty shard");
        }
        let registry = merged(&shard);
        for q in [0.50, 0.90, 0.99] {
            assert_eq!(registry.to_shard().quantile(q), 0);
        }
        let snap = registry.snapshot("empty");
        assert_eq!((snap.p50_ns, snap.p90_ns, snap.p99_ns), (0, 0, 0));
    }

    #[test]
    fn percentiles_of_a_single_sample_are_the_sample() {
        // With one sample every rank clamps to 1, and the bucket's upper
        // bound clamps to the exactly-tracked min == max == the sample.
        for value in [0u64, 1, 777, 1_000_000, u64::MAX] {
            let mut shard = HistogramShard::default();
            shard.record(value);
            for q in [0.0, 0.50, 0.90, 0.99, 1.0] {
                assert_eq!(shard.quantile(q), value, "p{q} of single {value}");
            }
            let snap = merged(&shard).snapshot("one");
            assert_eq!(
                (snap.p50_ns, snap.p90_ns, snap.p99_ns),
                (value, value, value)
            );
        }
    }

    #[test]
    fn percentiles_with_all_samples_in_one_bucket_clamp_to_the_range() {
        // 1000 and 1020 share a log-scale bucket (~6% resolution). Every
        // quantile must land inside the true [min, max] — the bucket's
        // nominal upper bound would overshoot without the clamp.
        let (lo, hi) = (1_000u64, 1_020u64);
        assert_eq!(bucket_index(lo), bucket_index(hi), "one bucket");
        let mut shard = HistogramShard::default();
        for i in 0..100u64 {
            shard.record(lo + (i % 2) * (hi - lo));
        }
        let registry = merged(&shard);
        for q in [0.50, 0.90, 0.99] {
            let est = shard.quantile(q);
            assert!(
                (lo..=hi).contains(&est),
                "p{q} = {est} escapes [{lo}, {hi}]"
            );
            assert_eq!(registry.to_shard().quantile(q), est);
        }
        // All quantiles collapse to one value.
        assert_eq!(shard.quantile(0.50), shard.quantile(0.99));
    }

    #[test]
    fn registry_merge_shard_accumulates() {
        let registry = LatencyHistogram::default();
        let mut a = HistogramShard::default();
        let mut b = HistogramShard::default();
        for v in 0..100u64 {
            a.record(v * 11);
            b.record(v * 17);
        }
        registry.merge_shard(&a);
        registry.merge_shard(&b);
        registry.merge_shard(&HistogramShard::default()); // empty: no-op
        let mut expect = a.clone();
        expect.merge(&b);
        assert_eq!(registry.to_shard(), expect);
        assert_eq!(registry.count(), 200);
    }
}
