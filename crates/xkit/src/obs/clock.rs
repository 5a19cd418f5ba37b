//! The workspace's single monotonic-clock seam.
//!
//! Every wall-time measurement in the workspace — bench harness samples,
//! span timers, stage progress — flows through [`now`]. This is the only
//! place `std::time::Instant` is allowed (`scripts/verify.sh` denies it
//! everywhere else), which keeps timing swappable and makes the
//! deterministic/non-deterministic split of every report explicit: values
//! derived from this module are timings and never belong in a
//! byte-compared snapshot section.

use std::time::{Duration, Instant};

/// An opaque monotonic timestamp; the only way to measure elapsed time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mono(Instant);

/// Read the monotonic clock.
pub fn now() -> Mono {
    Mono(Instant::now())
}

impl Mono {
    /// Time elapsed since this reading.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed nanoseconds since this reading, saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed seconds since this reading, as a float.
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Duration between two readings (`later - self`), zero if `later`
    /// precedes `self`.
    pub(crate) fn delta(&self, later: Mono) -> Duration {
        later.0.saturating_duration_since(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now();
        let b = now();
        assert_eq!(b.delta(a), Duration::ZERO, "earlier minus later is zero");
        assert!(a.delta(b) >= Duration::ZERO);
        assert!(a.elapsed_ns() <= a.elapsed_ns().max(1));
    }

    #[test]
    fn elapsed_advances() {
        let t = now();
        std::hint::black_box((0..10_000u64).sum::<u64>());
        assert!(t.elapsed() >= Duration::ZERO);
        assert!(t.elapsed_secs() >= 0.0);
    }
}
