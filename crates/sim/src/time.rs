//! Virtual time newtypes.
//!
//! True simulation time ([`SimTime`]) is a count of nanoseconds since the
//! start of the run. Nodes never observe it directly (they read their
//! [`crate::clock::LocalClock`] instead); it exists for the event loop and
//! for instrumentation/ablation code that needs ground truth.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the true (hidden) simulation timeline, in
/// nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs an instant from raw nanoseconds since the start of the run.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs an instant from milliseconds since the start of the run.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs an instant from whole seconds since the start of the run.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the start of the run (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the start of the run, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is in the future, mirroring
    /// `std::time::Instant::saturating_duration_since`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Raw nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in this duration (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, factor: u64) -> Self {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Divides the duration by an integer divisor.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub const fn div(self, divisor: u64) -> Self {
        SimDuration(self.0 / divisor)
    }

    /// Scales the duration by a non-negative float factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be finite and non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(100) + SimDuration::from_millis(50);
        assert_eq!(t.as_millis(), 150);
        assert_eq!(t.saturating_since(SimTime::from_millis(100)).as_millis(), 50);
        assert_eq!(SimTime::from_millis(10).saturating_since(t), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(300);
        assert_eq!(d.mul_f64(2.0).as_millis(), 600);
        assert_eq!(d.saturating_mul(3).as_millis(), 900);
        assert_eq!(d.div(3).as_millis(), 100);
        assert!(SimDuration::ZERO.is_zero());
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimDuration::from_nanos(10).to_string(), "10ns");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "t+1.000000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimDuration::from_nanos(1) < SimDuration::from_micros(1));
    }
}
