//! Monotonic capture time.
//!
//! Everything in the pipeline — simulator events, pcap records, log
//! entries — is stamped with nanoseconds since the capture epoch. Newtypes
//! keep instants and spans from being mixed up in analysis arithmetic,
//! which this workspace does a lot of.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant: nanoseconds since the capture epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span: a non-negative number of nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Timestamp {
    /// The capture epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Timestamp {
        Timestamp(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Timestamp {
        Timestamp(ms * 1_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for logs and stats).
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span from an earlier instant, saturating at zero if `earlier` is
    /// actually later (out-of-order capture timestamps happen).
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Construct from fractional seconds; negative input clamps to zero.
    pub fn from_secs_f64(s: f64) -> Duration {
        if s <= 0.0 {
            Duration(0)
        } else {
            Duration((s * 1e9).round() as u64)
        }
    }

    /// Nanoseconds in the span.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, o: Duration) -> Duration {
        Duration(self.0 + o.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, o: Duration) {
        self.0 += o.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, o: Duration) -> Duration {
        Duration(self.0.saturating_sub(o.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(10);
        let d = Duration::from_millis(1500);
        assert_eq!((t + d).nanos(), 11_500_000_000);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.since(t + d), Duration::ZERO);
        assert_eq!(t - Duration::from_secs(20), Timestamp::ZERO);
    }

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_secs(2).as_secs(), 2);
        assert_eq!(Duration(1_500_000).as_millis_f64(), 1.5);
        assert_eq!(Duration::from_secs_f64(0.25).nanos(), 250_000_000);
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(Timestamp::from_millis(1500).as_secs_f64(), 1.5);
    }

    #[test]
    fn display_fixed_precision() {
        assert_eq!(Timestamp::from_millis(1500).to_string(), "1.500000");
        assert_eq!(Duration(250_000).to_string(), "0.000250");
    }

    #[test]
    fn duration_saturating_sub() {
        assert_eq!(Duration::from_secs(1) - Duration::from_secs(2), Duration::ZERO);
    }
}
