//! Account-level concurrency quota.
//!
//! AWS enforces the Lambda concurrency quota per *account*, not per job:
//! every function any tenant job invokes counts against one pool.
//! [`AccountQuota`] models that pool as a plain value with one owner —
//! the fleets' training queue (`ce_cluster::wave::TrainQueue`) holds
//! one per topology pool, and whoever leases from it (training waves,
//! serving requests) goes through that owner by `&mut`. There is no
//! shared handle and no lock. Overload is a *typed, recoverable* outcome
//! ([`QuotaExceeded`]), never a panic: an admission controller reacts to
//! it by queueing or rejecting the job, which is exactly what
//! `ce-cluster` does.

/// A concurrency request the shared quota could not satisfy.
///
/// Carries enough context for an admission controller to decide between
/// queueing (transient contention: `in_use` is high) and rejecting
/// (structural overload: `requested > limit` can never succeed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaExceeded {
    /// Concurrent functions the caller asked for.
    pub requested: u32,
    /// Functions already running against the quota at the time of the
    /// request (0 for a per-platform limit check).
    pub in_use: u32,
    /// The account-level concurrency limit.
    pub limit: u32,
}

impl QuotaExceeded {
    /// Whether the request could *never* succeed, even on an idle
    /// account (`requested > limit`), as opposed to transient contention.
    pub fn is_structural(&self) -> bool {
        self.requested > self.limit
    }
}

impl std::fmt::Display for QuotaExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "concurrency quota exceeded: requested {} with {} in use of limit {}",
            self.requested, self.in_use, self.limit
        )
    }
}

impl std::error::Error for QuotaExceeded {}

/// The account-level concurrency pool.
///
/// Acquire/release are explicit — the owner decides how long a
/// reservation spans (one atomic epoch for a lone platform, a whole
/// in-flight epoch wave for a fleet scheduler that interleaves jobs in
/// simulated time).
#[derive(Debug)]
pub struct AccountQuota {
    limit: u32,
    in_use: u32,
    peak: u32,
    grants: u64,
    rejections: u64,
}

impl AccountQuota {
    /// Creates a quota of `limit` concurrent functions.
    pub fn new(limit: u32) -> Self {
        AccountQuota {
            limit,
            in_use: 0,
            peak: 0,
            grants: 0,
            rejections: 0,
        }
    }

    /// The account-level concurrency limit.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Functions currently reserved.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Functions still available.
    pub fn available(&self) -> u32 {
        self.limit - self.in_use
    }

    /// Current utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.limit == 0 {
            return 1.0;
        }
        f64::from(self.in_use) / f64::from(self.limit)
    }

    /// Highest concurrent reservation ever observed.
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Successful acquisitions so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Rejected acquisitions so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Reserves `n` functions, or reports why it cannot. A request whose
    /// sum with the reservation overflows `u32` is refused like any
    /// other that exceeds the limit (it is structural: `n > limit`).
    pub fn try_acquire(&mut self, n: u32) -> Result<(), QuotaExceeded> {
        match self.in_use.checked_add(n) {
            Some(in_use) if in_use <= self.limit => {
                self.in_use = in_use;
                self.peak = self.peak.max(in_use);
                self.grants += 1;
                Ok(())
            }
            _ => {
                self.rejections += 1;
                Err(QuotaExceeded {
                    requested: n,
                    in_use: self.in_use,
                    limit: self.limit,
                })
            }
        }
    }

    /// Returns `n` functions to the pool.
    ///
    /// # Panics
    /// Panics if `n` exceeds the outstanding reservation (a release
    /// without a matching acquire is a caller bug, not an overload
    /// condition).
    pub fn release(&mut self, n: u32) {
        assert!(
            n <= self.in_use,
            "releasing {n} functions with only {} reserved",
            self.in_use
        );
        self.in_use -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip() {
        let mut quota = AccountQuota::new(100);
        quota.try_acquire(60).unwrap();
        assert_eq!(quota.in_use(), 60);
        assert_eq!(quota.available(), 40);
        quota.try_acquire(40).unwrap();
        assert_eq!(quota.available(), 0);
        assert!((quota.utilization() - 1.0).abs() < 1e-12);
        quota.release(100);
        assert_eq!(quota.in_use(), 0);
        assert_eq!(quota.peak(), 100);
        assert_eq!(quota.grants(), 2);
    }

    #[test]
    fn overflow_is_a_typed_error() {
        let mut quota = AccountQuota::new(50);
        quota.try_acquire(30).unwrap();
        let err = quota.try_acquire(30).unwrap_err();
        assert_eq!(
            err,
            QuotaExceeded {
                requested: 30,
                in_use: 30,
                limit: 50
            }
        );
        assert!(!err.is_structural(), "30 alone would fit");
        assert_eq!(quota.rejections(), 1);
        // The failed request must not leak a partial reservation.
        assert_eq!(quota.in_use(), 30);
    }

    #[test]
    fn structural_overload_detected() {
        let mut quota = AccountQuota::new(50);
        let err = quota.try_acquire(80).unwrap_err();
        assert!(err.is_structural());
        assert!(err.to_string().contains("quota exceeded"));
    }

    #[test]
    fn a_request_that_overflows_the_count_is_refused() {
        let mut quota = AccountQuota::new(10);
        quota.try_acquire(1).unwrap();
        let err = quota.try_acquire(u32::MAX).unwrap_err();
        assert_eq!(
            err,
            QuotaExceeded {
                requested: u32::MAX,
                in_use: 1,
                limit: 10
            }
        );
        assert!(err.is_structural());
        assert_eq!(
            (
                quota.in_use(),
                quota.peak(),
                quota.grants(),
                quota.rejections()
            ),
            (1, 1, 1, 1)
        );
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn unbalanced_release_panics() {
        let mut quota = AccountQuota::new(10);
        quota.try_acquire(2).unwrap();
        quota.release(3);
    }
}
