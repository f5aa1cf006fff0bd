//! Bounded, deterministically downsampled campaign time series.
//!
//! A [`TimeSeries`] is a fixed-capacity ring of [`TimePoint`]s. Points are
//! admitted at a power-of-two *stride* over their arrival index: the stride
//! starts at 1 (keep everything) and doubles whenever the buffer would
//! overflow, at which point every second retained point is dropped. The
//! surviving set is therefore a pure function of the arrival sequence — no
//! clocks, no randomness — which is what lets a campaign persist its series
//! as a byte-identical `timeseries.json` for any worker-thread count.
//!
//! Its one producer is the deterministic builder in the scanner, which
//! walks the merged record stream and samples cumulative virtual-clock
//! state one point per probed domain. [`TimeSeriesDoc`] is the versioned
//! serde envelope written next to `metrics.json`.

use serde::{Deserialize, Serialize};

use crate::manifest::CounterSnapshot;

/// Version stamp for the time-series schema; bump on breaking field changes.
pub const TIMESERIES_SCHEMA_VERSION: u32 = 1;

/// Default point capacity used by campaign runs.
pub const DEFAULT_TIMESERIES_CAPACITY: usize = 512;

/// One sampled point of campaign state. All fields are integers so a
/// persisted series round-trips through JSON bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Arrival index of this sample (the probe ordinal).
    pub seq: u64,
    /// Domains finished so far.
    pub probes: u64,
    /// Connection records produced so far (redirect hops included).
    pub records: u64,
    /// Probes that erred so far.
    pub errors: u64,
    /// Redirect hops followed so far.
    pub redirects: u64,
    /// Elapsed virtual time at this sample, microseconds.
    pub elapsed_us: u64,
    /// Deepest netsim queue observed so far.
    pub queue_high_water: u64,
    /// Handshake-stage median at this sample, microseconds.
    pub handshake_p50_us: u64,
    /// Handshake-stage 99th percentile at this sample, microseconds.
    pub handshake_p99_us: u64,
    /// Whole-probe median at this sample, microseconds.
    pub total_p50_us: u64,
    /// Whole-probe 99th percentile at this sample, microseconds.
    pub total_p99_us: u64,
    /// Classification mix so far, in stable declaration order.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub mix: Vec<CounterSnapshot>,
}

impl TimePoint {
    /// Fraction of completed probes that erred, in `[0, 1]`.
    pub fn error_rate(&self) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        self.errors as f64 / self.probes as f64
    }

    /// Share of `name` within the classification mix, in `[0, 1]`.
    pub fn mix_share(&self, name: &str) -> f64 {
        let total: u64 = self.mix.iter().map(|c| c.value).sum();
        if total == 0 {
            return 0.0;
        }
        let hit = self
            .mix
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value);
        hit as f64 / total as f64
    }
}

/// Bounded ring of [`TimePoint`]s with deterministic stride downsampling.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    capacity: usize,
    stride: u64,
    seen: u64,
    points: Vec<TimePoint>,
}

impl TimeSeries {
    /// Creates an empty series holding at most `capacity` points
    /// (clamped to a minimum of 2).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(2),
            stride: 1,
            seen: 0,
            points: Vec::new(),
        }
    }

    /// Offers one point, built by `make` only when its arrival index lands
    /// on the current stride (quantiles are costly to compute per offer).
    /// The point's `seq` is set to the arrival index. Returns whether the
    /// point was kept.
    pub fn push_with(&mut self, make: impl FnOnce() -> TimePoint) -> bool {
        let idx = self.seen;
        self.seen += 1;
        if !idx.is_multiple_of(self.stride) {
            return false;
        }
        if self.points.len() == self.capacity {
            self.decimate();
            if !idx.is_multiple_of(self.stride) {
                return false;
            }
        }
        let mut point = make();
        point.seq = idx;
        self.points.push(point);
        true
    }

    /// Offers one point that bypasses the stride filter — used for the
    /// final cumulative sample so the series always ends on complete state.
    pub fn push_final(&mut self, mut point: TimePoint) {
        let idx = self.seen;
        self.seen += 1;
        if self.points.len() == self.capacity {
            self.decimate();
        }
        point.seq = idx;
        self.points.push(point);
    }

    /// Drops every second retained point and doubles the stride.
    fn decimate(&mut self) {
        let next = self.stride * 2;
        self.points.retain(|p| p.seq % next == 0);
        self.stride = next;
    }

    /// Wraps the series into its versioned serde envelope.
    pub fn into_doc(self, campaign_id: impl Into<String>) -> TimeSeriesDoc {
        TimeSeriesDoc {
            schema_version: TIMESERIES_SCHEMA_VERSION,
            campaign_id: campaign_id.into(),
            clock: "virtual-us".to_string(),
            capacity: self.capacity as u32,
            stride: self.stride,
            offered: self.seen,
            points: self.points,
        }
    }
}

/// The versioned, serializable envelope persisted as `timeseries.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeriesDoc {
    /// Schema version ([`TIMESERIES_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Campaign identity (week, IP version, seed — thread count excluded).
    pub campaign_id: String,
    /// Clock of the `elapsed_us` fields: always `"virtual-us"`.
    pub clock: String,
    /// Configured point capacity.
    pub capacity: u32,
    /// Final admission stride.
    pub stride: u64,
    /// Total points offered across the run.
    pub offered: u64,
    /// Retained points, in arrival order.
    pub points: Vec<TimePoint>,
}

impl TimeSeriesDoc {
    /// The last (most complete) sample, if any.
    pub fn last_point(&self) -> Option<&TimePoint> {
        self.points.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(n: u64) -> TimePoint {
        TimePoint {
            seq: 0,
            probes: n,
            records: n,
            errors: 0,
            redirects: 0,
            elapsed_us: n * 1_000,
            queue_high_water: 3,
            handshake_p50_us: 40_000,
            handshake_p99_us: 90_000,
            total_p50_us: 100_000,
            total_p99_us: 200_000,
            mix: Vec::new(),
        }
    }

    /// Offers points `0..n` to a series of `capacity`.
    fn offered(capacity: usize, n: u64) -> TimeSeries {
        let mut ts = TimeSeries::new(capacity);
        for i in 0..n {
            ts.push_with(|| point(i));
        }
        ts
    }

    fn seqs(doc: &TimeSeriesDoc) -> Vec<u64> {
        doc.points.iter().map(|p| p.seq).collect()
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let mut ts = TimeSeries::new(16);
        for i in 0..10 {
            assert!(ts.push_with(|| point(i)));
        }
        let doc = ts.into_doc("c");
        assert_eq!(doc.stride, 1);
        assert_eq!(seqs(&doc), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stride_doubles_on_overflow_and_stays_bounded() {
        let doc = offered(8, 1_000).into_doc("c");
        assert!(doc.points.len() <= 8, "{} points", doc.points.len());
        assert_eq!(doc.offered, 1_000);
        // Stride is a power of two and every retained seq lands on it.
        assert!(doc.stride.is_power_of_two());
        assert!(doc.stride > 1);
        for p in &doc.points {
            assert_eq!(p.seq % doc.stride, 0);
        }
        // Retained seqs ascend.
        let mut sorted = seqs(&doc);
        sorted.sort_unstable();
        assert_eq!(seqs(&doc), sorted);
    }

    #[test]
    fn rejected_offers_are_never_built() {
        let mut ts = offered(4, 100);
        let mut built = false;
        // After 100 offers into 4 slots the stride is 32: index 100 misses it.
        let kept = ts.push_with(|| {
            built = true;
            point(100)
        });
        assert!(!kept && !built);
    }

    #[test]
    fn downsampling_is_a_pure_function_of_arrival_count() {
        let runs: Vec<Vec<u64>> = (0..3)
            .map(|_| seqs(&offered(8, 100).into_doc("c")))
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn push_final_always_lands() {
        let mut ts = offered(4, 99);
        ts.push_final(point(99));
        let doc = ts.into_doc("c");
        assert_eq!(doc.last_point().unwrap().seq, 99);
        assert!(doc.points.len() <= 4);
    }

    #[test]
    fn capacity_clamps_to_two() {
        let doc = offered(0, 50).into_doc("c");
        assert!((1..=2).contains(&doc.points.len()));
        assert_eq!(doc.capacity, 2);
    }

    #[test]
    fn doc_roundtrips_through_json() {
        let mut doc = offered(8, 20).into_doc("week0-V1-seed0000000000000017");
        doc.points[0].mix = vec![CounterSnapshot {
            name: "spinning".into(),
            value: 7,
        }];
        let json = serde_json::to_string_pretty(&doc).unwrap();
        let back: TimeSeriesDoc = serde_json::from_str(&json).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.clock, "virtual-us");
        assert_eq!(back.schema_version, TIMESERIES_SCHEMA_VERSION);
    }

    #[test]
    fn point_rates_and_mix_share() {
        let mut p = point(10);
        p.errors = 2;
        assert!((p.error_rate() - 0.2).abs() < 1e-12);
        p.mix = vec![
            CounterSnapshot {
                name: "spinning".into(),
                value: 3,
            },
            CounterSnapshot {
                name: "all-zero".into(),
                value: 1,
            },
        ];
        assert!((p.mix_share("spinning") - 0.75).abs() < 1e-12);
        assert_eq!(p.mix_share("greased"), 0.0);

        let zero = point(0);
        assert_eq!(zero.error_rate(), 0.0);
        assert_eq!(zero.mix_share("spinning"), 0.0);
    }
}
