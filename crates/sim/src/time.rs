//! Virtual time.
//!
//! All simulated time is kept in integer nanoseconds. Integer time makes the
//! event queue ordering exact (no float comparison hazards) and keeps runs
//! bit-for-bit reproducible across platforms.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since t=0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    // lint:allow(dead-fn, reason="tests across the workspace build instants with it")
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        // lint:allow(time-overflow, reason="fixed ×1e3 unit scale; overflows only past ~584 years of simulated time, far beyond any run")
        SimTime(us * 1_000)
    }

    /// Raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Time expressed in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Elapsed span since `earlier`; saturates to zero rather than wrapping,
    /// so callers comparing out-of-order stamps get a defined result.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference (`None` if `earlier` is in the future).
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        // lint:allow(time-overflow, reason="fixed ×1e3 unit scale; overflows only past ~584 years of simulated time, far beyond any run")
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional microseconds (rounded to the nearest ns).
    #[cfg(test)]
    pub fn from_us_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0, "negative duration");
        SimDuration((us * 1_000.0).round() as u64)
    }

    /// Construct from fractional seconds (rounded to the nearest ns).
    #[cfg(test)]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        SimDuration((s * 1_000_000_000.0).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Span expressed in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Span expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The time a given number of bytes occupies a pipe of `bits_per_sec`,
    /// rounded up to the next nanosecond so zero-cost transfers cannot occur.
    pub fn for_bytes(bytes: u64, bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "zero-bandwidth pipe");
        let bits = bytes as u128 * 8;
        // lint:allow(time-overflow, reason="arithmetic is performed in u128; cannot overflow for any u64 byte count")
        let ns = (bits * 1_000_000_000).div_ceil(bits_per_sec as u128);
        SimDuration(ns as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        // lint:allow(no-unwrap, reason="wall of ~584 years of simulated ns; overflow is a driver bug worth halting on")
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        // lint:allow(no-unwrap, reason="subtracting below t=0 is a scheduling bug worth halting on")
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        // lint:allow(no-unwrap, reason="a negative duration is a causality bug worth halting on")
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        // lint:allow(no-unwrap, reason="overflow past ~584 years of ns is a driver bug worth halting on")
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        // lint:allow(no-unwrap, reason="a negative duration is a causality bug worth halting on")
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        // lint:allow(no-unwrap, reason="overflow past ~584 years of ns is a driver bug worth halting on")
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_us(3), SimTime::from_ns(3_000));
        assert_eq!(SimDuration::from_ms(2), SimDuration::from_us(2_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_ms(1_000));
        assert_eq!(SimDuration::from_us_f64(0.65), SimDuration::from_ns(650));
        assert_eq!(SimDuration::from_secs_f64(0.5), SimDuration::from_ms(500));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_us(10);
        let d = SimDuration::from_us(4);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(d + d, SimDuration::from_us(8));
        assert_eq!(d * 3, SimDuration::from_us(12));
        assert_eq!(d / 2, SimDuration::from_us(2));
    }

    #[test]
    fn saturating_since_defined_for_out_of_order() {
        let a = SimTime::from_us(5);
        let b = SimTime::from_us(9);
        assert_eq!(b.saturating_since(a), SimDuration::from_us(4));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(a.checked_since(b), None);
        assert_eq!(b.checked_since(a), Some(SimDuration::from_us(4)));
    }

    #[test]
    #[should_panic(expected = "negative SimDuration")]
    fn negative_difference_panics() {
        let _ = SimTime::from_us(1) - SimTime::from_us(2);
    }

    #[test]
    fn wire_time_rounds_up() {
        // 1 byte @ 1 Gb/s = 8 ns exactly.
        assert_eq!(
            SimDuration::for_bytes(1, 1_000_000_000),
            SimDuration::from_ns(8)
        );
        // 1 byte @ 3 Gb/s = 2.66.. ns -> rounds up to 3.
        assert_eq!(
            SimDuration::for_bytes(1, 3_000_000_000),
            SimDuration::from_ns(3)
        );
        // Nothing is free.
        assert_eq!(SimDuration::for_bytes(0, 1_000_000_000), SimDuration::ZERO);
        // 1500 bytes @ 100 Mb/s = 120 us.
        assert_eq!(
            SimDuration::for_bytes(1500, 100_000_000),
            SimDuration::from_us(120)
        );
    }

    #[test]
    fn float_views() {
        assert_eq!(SimDuration::from_us(36).as_us_f64(), 36.0);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimTime::from_us(7).as_us_f64(), 7.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&us| SimDuration::from_us(us))
            .sum();
        assert_eq!(total, SimDuration::from_us(6));
    }
}
