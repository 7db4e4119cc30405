//! Simulation time primitives.
//!
//! The simulator measures time in integer nanoseconds since simulation start.
//! Integer time makes event ordering exact and runs deterministic; helpers
//! convert to and from floating-point seconds for rate arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute simulation timestamp (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[allow(
    clippy::disallowed_methods,
    reason = "the derived partial_cmp compares one integer field, never a float"
)]
pub struct SimTime(u64);

/// A span of simulation time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[allow(
    clippy::disallowed_methods,
    reason = "the derived partial_cmp compares one integer field, never a float"
)]
pub struct SimDuration(u64);

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from floating-point seconds (saturating at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from floating-point seconds (saturating at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration as floating-point milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Multiply by a non-negative float, rounding to nanoseconds.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k.max(0.0)).round() as u64)
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

/// Time to serialize `bytes` onto a link of `rate_bps` bits per second.
///
/// Returns [`SimDuration::ZERO`] for non-positive or non-finite rates so an
/// "infinite-rate" link degenerates to a pure-delay element.
pub fn tx_time(bytes: u64, rate_bps: f64) -> SimDuration {
    if !rate_bps.is_finite() || rate_bps <= 0.0 {
        return SimDuration::ZERO;
    }
    let secs = (bytes as f64 * 8.0) / rate_bps;
    SimDuration::from_secs_f64(secs)
}

/// Rate in bits/sec that delivers `bytes` in `dur`. Returns `f64::INFINITY`
/// for a zero duration.
pub fn rate_bps(bytes: u64, dur: SimDuration) -> f64 {
    if dur.is_zero() {
        return f64::INFINITY;
    }
    (bytes as f64 * 8.0) / dur.as_secs_f64()
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_secs() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_arith() {
        let a = SimDuration::from_millis(30);
        let b = SimDuration::from_millis(12);
        assert_eq!((a + b).as_nanos(), 42 * NANOS_PER_MILLI);
        assert_eq!((a - b).as_nanos(), 18 * NANOS_PER_MILLI);
        assert_eq!((b - a).as_nanos(), 0, "saturating");
        assert_eq!((a * 2).as_millis_f64(), 60.0);
        assert_eq!((a / 3).as_millis_f64(), 10.0);
    }

    #[test]
    fn time_duration_interplay() {
        let t0 = SimTime::from_millis(100);
        let t1 = t0 + SimDuration::from_millis(50);
        assert_eq!((t1 - t0).as_millis_f64(), 50.0);
        assert_eq!(t1.saturating_since(t0).as_millis_f64(), 50.0);
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn tx_time_basic() {
        // 1500 bytes at 100 Mbps = 120 microseconds.
        let d = tx_time(1500, 100e6);
        assert_eq!(d.as_nanos(), 120_000);
        // Infinite / zero rate => zero serialization time.
        assert_eq!(tx_time(1500, 0.0), SimDuration::ZERO);
        assert_eq!(tx_time(1500, f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn rate_bps_inverse_of_tx_time() {
        let d = tx_time(125_000, 10e6); // 0.1 s
        let r = rate_bps(125_000, d);
        assert!((r - 10e6).abs() / 10e6 < 1e-9);
        assert!(rate_bps(1, SimDuration::ZERO).is_infinite());
    }

    #[test]
    fn mul_f64_rounds() {
        let rtt = SimDuration::from_millis(30);
        assert_eq!(rtt.mul_f64(1.7).as_nanos(), 51 * NANOS_PER_MILLI);
        assert_eq!(rtt.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_nanos(7)), "7ns");
    }
}
