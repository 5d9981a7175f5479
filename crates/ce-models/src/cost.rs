//! Epoch monetary-cost model (Eq. 4 and Eq. 5).
//!
//! ```text
//! c'(θ) = c^f(θ) + c^s(θ)
//! c^f(θ) = n · p_ivk  +  n · t'(θ) · p_f(m)
//! c^s(θ) = k · (10n + 2) · p_s            (request-billed services)
//!        = (t'(θ)/60 + 1) · p_s           (runtime-billed services)
//! ```
//!
//! Functions are invoked once per epoch wave and billed for the whole
//! epoch at the memory-scaled GB-second rate; storage is billed per
//! request (S3/DynamoDB) or per attached runtime (ElastiCache/VM-PS), as
//! in Eq. 5.

use crate::allocation::Allocation;
use crate::environment::Environment;
use crate::time::{EpochTimeModel, TimeBreakdown};
use crate::workload::Workload;
use ce_storage::{sync, StorageKind};

/// Typed cost-model failure: the allocation references a storage service
/// that is not in the environment's catalog.
///
/// Returned (never panicked) so a malformed allocation cannot crash a
/// profiling sweep or an allocation-evaluation loop mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownStorage {
    /// The storage service the allocation asked for.
    pub storage: StorageKind,
}

impl std::fmt::Display for UnknownStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "storage {} not in environment catalog", self.storage)
    }
}

impl std::error::Error for UnknownStorage {}

/// Components of one epoch's monetary cost, in dollars.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Invocation fees: `n · p_ivk`.
    pub invocation: f64,
    /// GB-second compute: `n · t'(θ) · p_f(m)`.
    pub compute: f64,
    /// Storage bill, split by pricing class (the patterned bar segment of
    /// Fig. 13/17/18).
    pub storage_requests: f64,
    /// Runtime-billed storage share.
    pub storage_runtime: f64,
}

impl CostBreakdown {
    /// Total epoch cost `c'(θ)`.
    pub fn total(&self) -> f64 {
        self.invocation + self.compute + self.storage_requests + self.storage_runtime
    }

    /// Total storage dollars (both pricing classes).
    pub fn storage(&self) -> f64 {
        self.storage_requests + self.storage_runtime
    }

    /// Fraction of the bill that is storage.
    pub fn storage_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.storage() / t
        }
    }
}

/// The analytical epoch-cost model.
#[derive(Debug, Clone)]
pub struct CostModel<'e> {
    env: &'e Environment,
}

impl<'e> CostModel<'e> {
    /// Builds the model over an environment.
    pub fn new(env: &'e Environment) -> Self {
        CostModel { env }
    }

    /// Predicts one epoch's cost under `alloc`, given that epoch's
    /// (predicted or measured) time breakdown.
    ///
    /// # Errors
    /// Returns [`UnknownStorage`] when the allocation's storage service is
    /// absent from the environment catalog.
    pub fn epoch_cost(
        &self,
        w: &Workload,
        alloc: &Allocation,
        time: &TimeBreakdown,
    ) -> Result<CostBreakdown, UnknownStorage> {
        let spec = self.env.storage.get(alloc.storage).ok_or(UnknownStorage {
            storage: alloc.storage,
        })?;
        let k = w.dataset.iterations_per_epoch(alloc.n, w.batch);
        let epoch_s = time.total();
        let bill = sync::epoch_bill(spec, alloc.n, w.model.model_mb, k, epoch_s);
        Ok(CostBreakdown {
            invocation: self.env.pricing.invocation_cost(alloc.n),
            compute: self
                .env
                .pricing
                .compute_cost(alloc.n, alloc.memory_mb, epoch_s),
            storage_requests: bill.request_dollars,
            storage_runtime: bill.runtime_dollars,
        })
    }

    /// Convenience: predicts time then cost in one call.
    ///
    /// # Errors
    /// Returns [`UnknownStorage`] when the allocation's storage service is
    /// absent from the environment catalog.
    pub fn epoch_estimate(
        &self,
        w: &Workload,
        alloc: &Allocation,
    ) -> Result<(TimeBreakdown, CostBreakdown), UnknownStorage> {
        let time = EpochTimeModel::new(self.env).epoch_time(w, alloc);
        let cost = self.epoch_cost(w, alloc, &time)?;
        Ok((time, cost))
    }

    /// Predicted total cost of `epochs` epochs.
    ///
    /// # Errors
    /// Returns [`UnknownStorage`] when the allocation's storage service is
    /// absent from the environment catalog.
    pub fn training_cost(
        &self,
        w: &Workload,
        alloc: &Allocation,
        epochs: u32,
    ) -> Result<f64, UnknownStorage> {
        let (_, cost) = self.epoch_estimate(w, alloc)?;
        Ok(f64::from(epochs) * cost.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_ml::{DatasetSpec, ModelSpec};
    use ce_storage::StorageKind;

    fn env() -> Environment {
        Environment::aws_default()
    }

    fn estimate(w: &Workload, alloc: &Allocation) -> (TimeBreakdown, CostBreakdown) {
        let env = env();
        CostModel::new(&env)
            .epoch_estimate(w, alloc)
            .expect("catalog storage")
    }

    #[test]
    fn compute_cost_matches_gb_seconds() {
        let env = env();
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let (t, c) = CostModel::new(&env)
            .epoch_estimate(&w, &alloc)
            .expect("catalog");
        let expect = 10.0 * (1769.0 / 1024.0) * 1.66667e-5 * t.total();
        assert!((c.compute - expect).abs() < 1e-12);
    }

    #[test]
    fn invocation_cost_counts_workers() {
        let w = Workload::lr_higgs();
        let (_, c10) = estimate(&w, &Allocation::new(10, 1769, StorageKind::S3));
        let (_, c50) = estimate(&w, &Allocation::new(50, 1769, StorageKind::S3));
        assert!((c50.invocation - 5.0 * c10.invocation).abs() < 1e-15);
    }

    #[test]
    fn s3_bills_requests_not_runtime() {
        let w = Workload::lr_higgs();
        let (_, c) = estimate(&w, &Allocation::new(10, 1769, StorageKind::S3));
        assert!(c.storage_requests > 0.0);
        assert_eq!(c.storage_runtime, 0.0);
    }

    #[test]
    fn vmps_bills_runtime_not_requests() {
        let w = Workload::lr_higgs();
        let (_, c) = estimate(&w, &Allocation::new(10, 1769, StorageKind::VmPs));
        assert_eq!(c.storage_requests, 0.0);
        assert!(c.storage_runtime > 0.0);
    }

    #[test]
    fn more_memory_costs_more_per_second_but_may_run_shorter() {
        let w = Workload::mobilenet_cifar10();
        let (t1, c1) = estimate(&w, &Allocation::new(10, 1769, StorageKind::S3));
        let (t2, c2) = estimate(&w, &Allocation::new(10, 3538, StorageKind::S3));
        assert!(t2.total() < t1.total(), "more memory must be faster");
        // Cost does not double even though memory doubled, because the
        // epoch got shorter.
        assert!(c2.total() < 2.0 * c1.total());
    }

    #[test]
    fn breakdown_total_is_sum() {
        let c = CostBreakdown {
            invocation: 1.0,
            compute: 2.0,
            storage_requests: 3.0,
            storage_runtime: 4.0,
        };
        assert_eq!(c.total(), 10.0);
        assert_eq!(c.storage(), 7.0);
        assert!((c.storage_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn training_cost_scales_linearly() {
        let env = env();
        let model = CostModel::new(&env);
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let one = model.training_cost(&w, &alloc, 1).expect("catalog");
        let five = model.training_cost(&w, &alloc, 5).expect("catalog");
        assert!((five - 5.0 * one).abs() < 1e-12);
    }

    #[test]
    fn table2_shape_small_model_few_workers_dynamodb_wins() {
        // Table II, 10 functions, LR: DynamoDB is both faster and cheaper
        // than S3 (JCT 0.83, cost 0.95).
        let w = Workload::lr_higgs();
        let (t_s3, c_s3) = estimate(&w, &Allocation::new(10, 1769, StorageKind::S3));
        let (t_ddb, c_ddb) = estimate(&w, &Allocation::new(10, 1769, StorageKind::DynamoDb));
        assert!(t_ddb.total() < t_s3.total(), "DynamoDB should be faster");
        assert!(
            c_ddb.total() < c_s3.total() * 1.1,
            "DynamoDB should be cost-competitive: {} vs {}",
            c_ddb.total(),
            c_s3.total()
        );
    }

    #[test]
    fn table2_shape_large_model_many_workers_vmps_wins_jct() {
        // Table II, 50 functions, MobileNet: VM-PS/ElastiCache beat S3 on
        // JCT.
        let w = Workload::mobilenet_cifar10();
        let (t_s3, _) = estimate(&w, &Allocation::new(50, 1769, StorageKind::S3));
        let (t_vm, _) = estimate(&w, &Allocation::new(50, 1769, StorageKind::VmPs));
        let (t_ec, _) = estimate(&w, &Allocation::new(50, 1769, StorageKind::ElastiCache));
        assert!(t_vm.total() < t_s3.total());
        assert!(t_ec.total() < t_s3.total());
    }

    #[test]
    fn workload_label_for_figures() {
        assert_eq!(
            Workload::new(ModelSpec::mobilenet(), DatasetSpec::cifar10()).label(),
            "MobileNet-Cifar10"
        );
    }
}
