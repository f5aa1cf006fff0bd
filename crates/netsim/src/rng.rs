//! Deterministic random number generation.
//!
//! Everything random in the workspace flows through this generator:
//! xoshiro256** seeded via SplitMix64, both implemented here so results are
//! identical across platforms and independent of external crate versions.
//! `Rng::fork` derives statistically independent child streams, which lets
//! campaigns shard work across threads while staying reproducible.

/// Sums `weights` in slice order and checks the total, as every weighted
/// draw needs it.
fn checked_total(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "weights must sum to a positive finite value"
    );
    total
}

/// A fixed weight set, checked and summed once.
///
/// [`Rng::weighted_index`] re-sums its slice on every draw, which costs
/// O(n) per draw before the scan even starts. A table computes the same
/// total once, by the same in-order sum, so every draw through
/// [`Rng::weighted`] returns the index `weighted_index` would have and
/// consumes the same generator output.
#[derive(Debug, Clone)]
pub struct WeightTable {
    weights: Box<[f64]>,
    total: f64,
}

impl WeightTable {
    /// Builds a table. Panics, like [`Rng::weighted_index`], if the weights
    /// are empty, all zero or not finite.
    pub fn new(weights: impl IntoIterator<Item = f64>) -> Self {
        let weights: Box<[f64]> = weights.into_iter().collect();
        let total = checked_total(&weights);
        WeightTable { weights, total }
    }
}

/// Deterministic PRNG (xoshiro256**).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child generator, keyed by `stream`.
    ///
    /// Forking with distinct stream IDs from the same parent yields
    /// non-overlapping sequences (the child is re-seeded through SplitMix64
    /// with the parent's next output mixed with the stream ID).
    pub fn fork(&mut self, stream: u64) -> Rng {
        let mix = self.next_u64() ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        Rng::new(mix)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`; panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's unbiased multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform usize index in `[0, len)`.
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi >= lo, "range_f64 requires hi >= lo");
        lo + self.f64() * (hi - lo)
    }

    /// Standard normal deviate (Box–Muller, one value per call).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.f64().max(1e-300);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Log-normal deviate: `exp(N(mu, sigma))`.
    ///
    /// Heavy-tailed — used for end-host processing delays, the mechanism
    /// the paper holds responsible for spin-bit RTT overestimation.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential deviate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * self.f64().max(1e-300).ln()
    }

    /// Samples an index from a slice of non-negative weights.
    /// Panics if the weights are empty, all zero or not finite.
    ///
    /// Sums and checks `weights` on every call; a weight set drawn from
    /// many times belongs in a [`WeightTable`] and [`Rng::weighted`].
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        self.scan_weights(weights, checked_total(weights))
    }

    /// Samples an index from a prebuilt [`WeightTable`]. Returns exactly
    /// what [`Rng::weighted_index`] returns for the table's weights at the
    /// same generator state, and advances the generator identically.
    pub fn weighted(&mut self, table: &WeightTable) -> usize {
        self.scan_weights(&table.weights, table.total)
    }

    /// The one weighted draw: one uniform, scaled by `total`, walked down
    /// the weights in order.
    fn scan_weights(&mut self, weights: &[f64], total: f64) -> usize {
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut parent1 = Rng::new(7);
        let mut parent2 = Rng::new(7);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent = Rng::new(7);
        let mut x = parent.fork(1);
        let mut parent = Rng::new(7);
        let mut y = parent.fork(2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn next_below_in_bounds_and_covers() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut rng = Rng::new(11);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_rate_matches_probability() {
        let mut rng = Rng::new(9);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(13);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let v = rng.normal();
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_is_positive_and_heavy_tailed() {
        let mut rng = Rng::new(17);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.lognormal(0.0, 1.0)).collect();
        assert!(samples.iter().all(|&v| v > 0.0));
        // Median should be close to exp(mu) = 1.
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        // Heavy tail: max far above median.
        assert!(sorted[sorted.len() - 1] > 10.0);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::new(19);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng::new(23);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn weighted_index_rejects_zero_total() {
        Rng::new(1).weighted_index(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "weights must sum to a positive finite value")]
    fn weight_table_rejects_empty_weights() {
        WeightTable::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "weights must sum to a positive finite value")]
    fn weight_table_rejects_all_zero_weights() {
        WeightTable::new(vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "weights must sum to a positive finite value")]
    fn weight_table_rejects_nan_weight() {
        WeightTable::new(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "weights must sum to a positive finite value")]
    fn weight_table_rejects_infinite_weight() {
        WeightTable::new(vec![1.0, f64::INFINITY]);
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = Rng::new(29);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "unlikely identity shuffle");
    }

    proptest::proptest! {
        #[test]
        fn prop_next_below_bound(seed: u64, bound in 1u64..1_000_000) {
            let mut rng = Rng::new(seed);
            for _ in 0..16 {
                proptest::prop_assert!(rng.next_below(bound) < bound);
            }
        }

        /// A table draw and a slice draw over the same weights return the
        /// same index and leave the generator in the same state. The
        /// weights span fifteen orders of magnitude and include zeros, so
        /// the rounding of the sum depends on its order.
        #[test]
        fn prop_table_draw_matches_weighted_index(
            seed: u64,
            weights in proptest::collection::vec(0.0f64..1e6, 1..64),
            zero_every in 0usize..8,
            draws in 1usize..64,
        ) {
            let mut weights = weights;
            for (i, w) in weights.iter_mut().enumerate() {
                if zero_every > 0 && i % zero_every == 0 {
                    *w = 0.0;
                } else if i % 3 == 1 {
                    *w *= 1e-9;
                }
            }
            proptest::prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let table = WeightTable::new(weights.clone());
            let mut by_slice = Rng::new(seed);
            let mut by_table = Rng::new(seed);
            for _ in 0..draws {
                proptest::prop_assert_eq!(
                    by_table.weighted(&table),
                    by_slice.weighted_index(&weights)
                );
            }
            proptest::prop_assert_eq!(by_table.next_u64(), by_slice.next_u64());
        }

        #[test]
        fn prop_range_f64(seed: u64, lo in -100.0f64..100.0, span in 0.0f64..100.0) {
            let mut rng = Rng::new(seed);
            let hi = lo + span;
            let v = rng.range_f64(lo, hi);
            proptest::prop_assert!(v >= lo && (v < hi || span == 0.0));
        }
    }
}
