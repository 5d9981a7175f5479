//! Simulated time.
//!
//! [`SimTime`] is a non-negative number of simulated seconds. It is a thin
//! `f64` newtype with a total order (NaN is rejected at construction), so it
//! can key the event queue directly.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since simulation start.
///
/// `SimTime` is totally ordered; constructing one from NaN panics. Negative
/// times are permitted transiently (e.g. when computing launch offsets for
/// the delayed-restart optimization) but the event queue rejects scheduling
/// in the past.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN.
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// Seconds since simulation start.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, other: SimTime) -> f64 {
        (self.0 - other.0).max(0.0)
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN is rejected at construction, so partial_cmp always succeeds.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, secs: f64) -> SimTime {
        SimTime::from_secs(self.0 + secs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, secs: f64) {
        *self = *self + secs;
    }
}

impl Sub for SimTime {
    type Output = f64;
    fn sub(self, other: SimTime) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(10.0) + 5.5;
        assert_eq!(t.as_secs(), 15.5);
        assert_eq!(t - SimTime::from_secs(10.0), 5.5);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = SimTime::from_secs(3.0);
        let b = SimTime::from_secs(5.0);
        assert_eq!(a.saturating_sub(b), 0.0);
        assert_eq!(b.saturating_sub(a), 2.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += 1.25;
        t += 0.75;
        assert_eq!(t.as_secs(), 2.0);
    }
}
