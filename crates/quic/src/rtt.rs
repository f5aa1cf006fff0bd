//! RFC 9002 §5 round-trip-time estimation.
//!
//! This is the "QUIC stack estimate" the paper uses as ground truth: it
//! "measures the time until a specific packet is acknowledged and
//! additionally factors in processing delays as reported by the other
//! host" (§3.3) — i.e. the peer's ACK delay is subtracted before the
//! sample enters the smoothed estimate.

use quicspin_netsim::SimDuration;

/// RFC 9002-style RTT estimator.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    latest: SimDuration,
    smoothed: Option<SimDuration>,
    rttvar: SimDuration,
    min: SimDuration,
    initial: SimDuration,
    /// Every adjusted sample, in µs — the paper compares against the mean
    /// of these.
    samples_us: Vec<u64>,
}

impl RttEstimator {
    /// Creates an estimator with the configured initial RTT.
    pub fn new(initial: SimDuration) -> Self {
        RttEstimator {
            latest: initial,
            smoothed: None,
            rttvar: initial / 2,
            min: initial,
            initial,
            samples_us: Vec::new(),
        }
    }

    /// Feeds one sample (RFC 9002 §5.3).
    ///
    /// `rtt` is the raw time from send to ACK receipt; `ack_delay` is the
    /// delay the peer reported having held the ACK; `handshake_confirmed`
    /// gates whether `ack_delay` may be trusted/limited by max_ack_delay
    /// (simplified: we always subtract when it keeps the sample above the
    /// minimum, per §5.3's rule).
    pub fn update(&mut self, rtt: SimDuration, ack_delay: SimDuration) {
        self.latest = rtt;
        if self.smoothed.is_none() || rtt < self.min {
            self.min = rtt;
        }

        // Subtract ack_delay unless it would push the sample below min_rtt.
        let adjusted = if rtt.saturating_sub(ack_delay) >= self.min {
            rtt - ack_delay
        } else {
            rtt
        };

        self.samples_us.push(adjusted.as_micros());

        match self.smoothed {
            None => {
                self.smoothed = Some(adjusted);
                self.rttvar = adjusted / 2;
            }
            Some(smoothed) => {
                let var_sample = if smoothed > adjusted {
                    smoothed - adjusted
                } else {
                    adjusted - smoothed
                };
                // rttvar = 3/4 * rttvar + 1/4 * |smoothed - adjusted|
                self.rttvar = SimDuration::from_nanos(
                    (self.rttvar.as_nanos() * 3 + var_sample.as_nanos()) / 4,
                );
                // smoothed = 7/8 * smoothed + 1/8 * adjusted
                self.smoothed = Some(SimDuration::from_nanos(
                    (smoothed.as_nanos() * 7 + adjusted.as_nanos()) / 8,
                ));
            }
        }
    }

    /// Latest raw sample.
    pub fn latest(&self) -> SimDuration {
        self.latest
    }

    /// Smoothed RTT (initial value before any sample).
    pub fn smoothed(&self) -> SimDuration {
        self.smoothed.unwrap_or(self.initial)
    }

    /// Minimum RTT seen.
    pub fn min(&self) -> SimDuration {
        self.min
    }

    /// RTT variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// Whether at least one sample was taken.
    pub fn has_samples(&self) -> bool {
        !self.samples_us.is_empty()
    }

    /// Adopts `samples` (emptied) as the sample buffer, reusing its
    /// allocation. Call before the first sample.
    pub(crate) fn reuse_samples(&mut self, mut samples: Vec<u64>) {
        samples.clear();
        self.samples_us = samples;
    }

    /// Takes the sample buffer out of the estimator.
    pub(crate) fn into_samples(self) -> Vec<u64> {
        self.samples_us
    }

    /// All adjusted samples in µs.
    pub fn samples_us(&self) -> &[u64] {
        &self.samples_us
    }

    /// Mean of the adjusted samples in µs (`None` before any sample).
    pub fn mean_us(&self) -> Option<u64> {
        if self.samples_us.is_empty() {
            None
        } else {
            Some(self.samples_us.iter().sum::<u64>() / self.samples_us.len() as u64)
        }
    }

    /// Probe timeout (RFC 9002 §6.2): `smoothed + max(4·rttvar, 1ms) +
    /// max_ack_delay`.
    pub fn pto(&self, max_ack_delay: SimDuration) -> SimDuration {
        let granularity = SimDuration::from_millis(1);
        let var = self.rttvar * 4;
        let var = if var > granularity { var } else { granularity };
        self.smoothed() + var + max_ack_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new(ms(333));
        assert!(!e.has_samples());
        assert_eq!(e.smoothed(), ms(333));
        e.update(ms(40), SimDuration::ZERO);
        assert!(e.has_samples());
        assert_eq!(e.latest(), ms(40));
        assert_eq!(e.smoothed(), ms(40));
        assert_eq!(e.min(), ms(40));
        assert_eq!(e.rttvar(), ms(20));
    }

    #[test]
    fn smoothing_follows_rfc9002_weights() {
        let mut e = RttEstimator::new(ms(333));
        e.update(ms(40), SimDuration::ZERO);
        e.update(ms(80), SimDuration::ZERO);
        // smoothed = 7/8·40 + 1/8·80 = 45 ms
        assert_eq!(e.smoothed(), ms(45));
        // rttvar = 3/4·20 + 1/4·40 = 25 ms
        assert_eq!(e.rttvar(), ms(25));
        assert_eq!(e.min(), ms(40));
    }

    #[test]
    fn ack_delay_is_subtracted() {
        let mut e = RttEstimator::new(ms(333));
        e.update(ms(40), SimDuration::ZERO);
        // 65 ms raw with 25 ms reported ack delay → 40 ms sample.
        e.update(ms(65), ms(25));
        assert_eq!(e.samples_us(), &[40_000, 40_000]);
        assert_eq!(e.smoothed(), ms(40));
    }

    #[test]
    fn ack_delay_not_subtracted_below_min() {
        let mut e = RttEstimator::new(ms(333));
        e.update(ms(40), SimDuration::ZERO);
        // 45 ms raw with 25 ms claimed delay would give 20 < min → keep raw.
        e.update(ms(45), ms(25));
        assert_eq!(e.samples_us(), &[40_000, 45_000]);
    }

    #[test]
    fn min_tracks_smallest_raw() {
        let mut e = RttEstimator::new(ms(333));
        e.update(ms(50), SimDuration::ZERO);
        e.update(ms(30), SimDuration::ZERO);
        e.update(ms(70), SimDuration::ZERO);
        assert_eq!(e.min(), ms(30));
    }

    #[test]
    fn mean_of_samples() {
        let mut e = RttEstimator::new(ms(333));
        assert_eq!(e.mean_us(), None);
        e.update(ms(40), SimDuration::ZERO);
        e.update(ms(60), SimDuration::ZERO);
        assert_eq!(e.mean_us(), Some(50_000));
    }

    #[test]
    fn pto_composition() {
        let mut e = RttEstimator::new(ms(333));
        e.update(ms(40), SimDuration::ZERO);
        // pto = 40 + 4·20 + 25 = 145 ms
        assert_eq!(e.pto(ms(25)), ms(145));
    }

    #[test]
    fn pto_floors_variance_at_granularity() {
        let mut e = RttEstimator::new(ms(333));
        // Feed identical samples until rttvar decays below 0.25 ms.
        for _ in 0..40 {
            e.update(ms(40), SimDuration::ZERO);
        }
        assert!(e.rttvar() * 4 < ms(1));
        assert_eq!(e.pto(ms(25)), ms(40) + ms(1) + ms(25));
    }

    proptest::proptest! {
        #[test]
        fn prop_min_is_lower_bound(samples in proptest::collection::vec(1u64..1000, 1..50)) {
            let mut e = RttEstimator::new(ms(333));
            for &s in &samples {
                e.update(ms(s), SimDuration::ZERO);
            }
            let true_min = *samples.iter().min().unwrap();
            proptest::prop_assert_eq!(e.min(), ms(true_min));
            proptest::prop_assert!(e.smoothed() >= e.min());
        }
    }
}
