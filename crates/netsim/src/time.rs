//! Simulated time.
//!
//! The whole system runs on virtual time: a monotonically increasing
//! nanosecond counter owned by the simulator. Nothing in the workspace ever
//! reads a wall clock, which makes every experiment bit-reproducible from
//! its seed.

use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start.
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time elapsed since `earlier`; zero if `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference; `None` if `earlier` is later than `self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from fractional milliseconds (clamped at >= 0).
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a non-negative float, rounding to nanoseconds.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0, "duration factor must be >= 0");
        SimDuration(round_non_negative(self.0 as f64 * factor))
    }
}

/// `x.round() as u64` for `x >= 0`, without the `round` library call
/// (the link calls this twice per datagram). The fraction `x - trunc(x)`
/// is exact, so ties round away from zero exactly as `f64::round` does.
fn round_non_negative(x: f64) -> u64 {
    let whole = x as u64;
    if x - whole as f64 >= 0.5 {
        whole.saturating_add(1)
    } else {
        whole
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl core::fmt::Display for SimTime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl core::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let d = SimDuration::from_millis(25);
        assert_eq!(d.as_nanos(), 25_000_000);
        assert_eq!(d.as_micros(), 25_000);
        assert!((d.as_millis_f64() - 25.0).abs() < 1e-9);
        assert!((SimDuration::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
    }

    #[test]
    fn from_millis_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_millis_f64(-4.0), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(10);
        assert_eq!(t1 - t0, SimDuration::from_millis(10));
        assert_eq!(t1.saturating_since(t0), SimDuration::from_millis(10));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t0.checked_since(t1), None);
        assert_eq!(t1.checked_since(t0), Some(SimDuration::from_millis(10)));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_subtraction_panics_on_underflow() {
        let _ = SimTime::ZERO - SimTime::from_nanos(1);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!(a + b, SimDuration::from_millis(14));
        assert_eq!(a - b, SimDuration::from_millis(6));
        assert_eq!(a * 3, SimDuration::from_millis(30));
        assert_eq!(a / 2, SimDuration::from_millis(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.mul_f64(0.5), SimDuration::from_millis(5));
    }

    #[test]
    fn round_non_negative_matches_f64_round() {
        let mut xs = vec![0.0, 0.5, 1.5, 2.5, 1e15 + 0.5, f64::INFINITY, f64::NAN];
        for p in [52, 53, 63, 64] {
            xs.push(2f64.powi(p));
        }
        for k in 0..10_000u64 {
            let tie = k as f64 + 0.5;
            xs.extend([tie, tie.next_down(), tie.next_up(), k as f64 * 0.37]);
        }
        let mut z = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..100_000 {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            xs.push((z >> 11) as f64 / (1u64 << 53) as f64 * 2e9);
        }
        for x in xs {
            assert_eq!(round_non_negative(x), x.round() as u64, "{x:e}");
        }
    }

    #[test]
    fn add_assign_advances_time() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_millis(7);
        assert_eq!(t.as_millis_f64(), 7.0);
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(SimDuration::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(SimTime::from_nanos(2_000_000).to_string(), "2.000ms");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimDuration::from_millis(1) < SimDuration::from_millis(2));
    }
}
