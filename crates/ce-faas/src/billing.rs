//! Billing ledger: every simulated dollar is accounted here, and the
//! conservation tests assert that totals equal the sum of their parts.

use ce_models::{Allocation, Environment, EpochTimeModel, Workload};

/// What a BSP wave killed at `at_fraction` of its epoch burned: the
/// analytical epoch time up to the kill, and its invocation fee plus the
/// compute dollars of that time, as `(seconds, dollars)`.
pub fn lost_wave_bill(
    env: &Environment,
    w: &Workload,
    alloc: &Allocation,
    at_fraction: f64,
) -> (f64, f64) {
    let wasted_s = EpochTimeModel::new(env).epoch_time(w, alloc).total() * at_fraction;
    let wasted_usd = env.pricing.invocation_cost(alloc.n)
        + env.pricing.compute_cost(alloc.n, alloc.memory_mb, wasted_s);
    (wasted_s, wasted_usd)
}

/// Accumulated platform charges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BillingLedger {
    /// Function invocations recorded.
    pub invocations: u64,
    /// GB-seconds of function runtime billed.
    pub gb_seconds: f64,
    /// Dollars from invocation fees.
    pub invocation_dollars: f64,
    /// Dollars from GB-second compute fees.
    pub compute_dollars: f64,
    /// Dollars from request-billed storage.
    pub storage_request_dollars: f64,
    /// Dollars from runtime-billed storage.
    pub storage_runtime_dollars: f64,
}

impl BillingLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an invocation wave of `n` functions at `per_invocation`.
    pub fn record_invocations(&mut self, n: u32, per_invocation: f64) {
        self.invocations += u64::from(n);
        self.invocation_dollars += f64::from(n) * per_invocation;
    }

    /// Records `n` functions of `memory_mb` running `secs` seconds at
    /// `per_gb_second`.
    pub fn record_compute(&mut self, n: u32, memory_mb: u32, secs: f64, per_gb_second: f64) {
        let gbs = f64::from(n) * f64::from(memory_mb) / 1024.0 * secs;
        self.gb_seconds += gbs;
        self.compute_dollars += gbs * per_gb_second;
    }

    /// Records a storage bill split by pricing class.
    pub fn record_storage(&mut self, request_dollars: f64, runtime_dollars: f64) {
        self.storage_request_dollars += request_dollars;
        self.storage_runtime_dollars += runtime_dollars;
    }

    /// Total dollars billed.
    pub fn total_dollars(&self) -> f64 {
        self.invocation_dollars
            + self.compute_dollars
            + self.storage_request_dollars
            + self.storage_runtime_dollars
    }

    /// Merges another ledger (parallel trial accounting).
    pub fn merge(&mut self, other: &BillingLedger) {
        self.invocations += other.invocations;
        self.gb_seconds += other.gb_seconds;
        self.invocation_dollars += other.invocation_dollars;
        self.compute_dollars += other.compute_dollars;
        self.storage_request_dollars += other.storage_request_dollars;
        self.storage_runtime_dollars += other.storage_runtime_dollars;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_is_zero() {
        let l = BillingLedger::new();
        assert_eq!(l.total_dollars(), 0.0);
        assert_eq!(l.invocations, 0);
    }

    #[test]
    fn compute_gb_seconds_formula() {
        let mut l = BillingLedger::new();
        l.record_compute(10, 2048, 5.0, 1.0e-5);
        // 10 fns × 2 GB × 5 s = 100 GB-s.
        assert!((l.gb_seconds - 100.0).abs() < 1e-12);
        assert!((l.compute_dollars - 1.0e-3).abs() < 1e-15);
    }

    #[test]
    fn invocations_accumulate() {
        let mut l = BillingLedger::new();
        l.record_invocations(10, 2e-7);
        l.record_invocations(5, 2e-7);
        assert_eq!(l.invocations, 15);
        assert!((l.invocation_dollars - 15.0 * 2e-7).abs() < 1e-18);
    }

    #[test]
    fn total_is_sum_of_components() {
        let mut l = BillingLedger::new();
        l.record_invocations(1, 0.25);
        l.record_compute(1, 1024, 1.0, 0.5);
        l.record_storage(0.125, 0.0625);
        assert!((l.total_dollars() - (0.25 + 0.5 + 0.125 + 0.0625)).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = BillingLedger::new();
        a.record_invocations(3, 1.0);
        let mut b = BillingLedger::new();
        b.record_compute(1, 1024, 2.0, 1.0);
        b.record_storage(0.5, 0.25);
        a.merge(&b);
        assert_eq!(a.invocations, 3);
        assert!((a.total_dollars() - (3.0 + 2.0 + 0.75)).abs() < 1e-12);
    }
}
