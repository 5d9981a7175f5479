//! Epoch execution-time model (Eq. 2 and Eq. 3).
//!
//! ```text
//! t'(θ) = t^l(θ) + k · (t^g(θ) + t^p(θ))
//!       = D/(n · B_S3)  +  (D/n) · u(m)  +  k · t^p(θ)
//! ```
//!
//! with `k = instances / (n · b_z)` iterations per epoch. (The paper's
//! Eq. 2 prints the gradient term as `D/n · k · u(m)`; dimensional
//! analysis and the definition `t^g` = per-iteration gradient time over a
//! batch of `D/(n·k)` bytes show the factor `k` cancels — one epoch
//! processes each worker's shard exactly once. We implement the physically
//! consistent form.)
//!
//! The synchronization term `t^p` is Eq. 3, delegated to
//! [`ce_storage::sync::sync_time`].

use crate::allocation::Allocation;
use crate::environment::Environment;
use crate::workload::Workload;
use ce_storage::sync;

/// The parameter-synchronization protocol.
///
/// The paper (and every headline experiment here) uses **BSP** — "every
/// function synchronizes parameters at each iteration, which has been
/// widely used in production". **ASP** is provided as an extension (Siren
/// is an asynchronous framework): workers never wait at a barrier, so the
/// critical path carries only each worker's *own* push/pull per iteration
/// instead of the Eq. 3 aggregate — but stale gradients slow convergence,
/// inflating the number of epochs needed (see [`asp_epoch_inflation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncProtocol {
    /// Bulk-synchronous parallel (the paper's setting).
    #[default]
    Bsp,
    /// Asynchronous parallel (the Siren-style extension).
    Asp,
}

/// Epoch-count inflation factor of ASP at `n` workers: stale updates
/// waste a fraction of each step's progress, growing with the number of
/// concurrent writers and saturating around +35 % (the shape reported
/// across the async-SGD literature: negligible at n = 1, material at
/// tens of workers).
pub fn asp_epoch_inflation(n: u32) -> f64 {
    1.0 + 0.35 * (1.0 - 1.0 / f64::from(n.max(1)))
}

/// The three components of one epoch's execution time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Dataset load from long-term storage: `D/(n · B_S3)`.
    pub load_s: f64,
    /// Gradient computation over the worker's shard: `(D/n) · u(m)`.
    pub compute_s: f64,
    /// Parameter synchronization: `k · t^p(θ)` (Eq. 3).
    pub sync_s: f64,
}

impl TimeBreakdown {
    /// Total epoch time `t'(θ)`.
    pub fn total(&self) -> f64 {
        self.load_s + self.compute_s + self.sync_s
    }

    /// Fraction of the epoch spent communicating (the patterned bar
    /// segment of Fig. 12).
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            self.sync_s / total
        }
    }
}

/// The analytical epoch-time model.
#[derive(Debug, Clone)]
pub struct EpochTimeModel<'e> {
    env: &'e Environment,
}

impl<'e> EpochTimeModel<'e> {
    /// Builds the model over an environment.
    pub fn new(env: &'e Environment) -> Self {
        EpochTimeModel { env }
    }

    /// Iterations per epoch `k = ceil(instances / (n · b_z))`.
    pub fn iterations(&self, w: &Workload, alloc: &Allocation) -> u32 {
        w.dataset.iterations_per_epoch(alloc.n, w.batch)
    }

    /// Predicts one epoch's execution time under `alloc` (Eq. 2).
    ///
    /// # Panics
    /// Panics if the allocation's storage service is not in the catalog or
    /// cannot hold the model blob.
    pub fn epoch_time(&self, w: &Workload, alloc: &Allocation) -> TimeBreakdown {
        self.epoch_time_with_protocol(w, alloc, SyncProtocol::Bsp)
    }

    /// [`Self::epoch_time`] under an explicit synchronization protocol.
    ///
    /// ASP removes the barrier: the per-iteration critical path carries
    /// only the worker's own gradient push and model pull (2 transfers)
    /// regardless of `n`. The convergence cost of staleness is *not*
    /// included here — multiply the epoch count by
    /// [`asp_epoch_inflation`] when predicting a whole job.
    pub fn epoch_time_with_protocol(
        &self,
        w: &Workload,
        alloc: &Allocation,
        protocol: SyncProtocol,
    ) -> TimeBreakdown {
        let spec = self
            .env
            .storage
            .get(alloc.storage)
            .unwrap_or_else(|| panic!("storage {} not in catalog", alloc.storage));
        assert!(
            spec.supports_model(w.model.model_mb),
            "{} cannot hold a {:.1} MB model",
            alloc.storage,
            w.model.model_mb
        );
        let shard_mb = w.dataset.shard_mb(alloc.n);
        let k = self.iterations(w, alloc);
        let per_iter_sync = match protocol {
            SyncProtocol::Bsp => sync::sync_time(spec, alloc.n, w.model.model_mb),
            SyncProtocol::Asp => 2.0 * spec.transfer_time_contended(w.model.model_mb, alloc.n),
        };
        TimeBreakdown {
            load_s: shard_mb / self.env.load_bandwidth_mbps,
            compute_s: shard_mb * w.model.compute_time_per_mb(alloc.memory_mb),
            sync_s: f64::from(k) * per_iter_sync,
        }
    }

    /// Predicted JCT for `epochs` epochs (the paper's Fig. 19/20 estimate).
    pub fn training_time(&self, w: &Workload, alloc: &Allocation, epochs: u32) -> f64 {
        f64::from(epochs) * self.epoch_time(w, alloc).total()
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

    fn lr_higgs() -> Workload {
        Workload::new(ModelSpec::logistic_regression(), DatasetSpec::higgs())
    }

    #[test]
    fn load_time_matches_formula() {
        let env = env();
        let model = EpochTimeModel::new(&env);
        let w = lr_higgs();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let t = model.epoch_time(&w, &alloc);
        let expect = w.dataset.size_mb / 10.0 / env.load_bandwidth_mbps;
        assert!((t.load_s - expect).abs() < 1e-9);
    }

    #[test]
    fn compute_time_halves_with_double_workers() {
        let env = env();
        let model = EpochTimeModel::new(&env);
        let w = lr_higgs();
        let t10 = model.epoch_time(&w, &Allocation::new(10, 1769, StorageKind::S3));
        let t20 = model.epoch_time(&w, &Allocation::new(20, 1769, StorageKind::S3));
        assert!((t20.compute_s - t10.compute_s / 2.0).abs() < 1e-9);
    }

    #[test]
    fn sync_time_grows_with_workers() {
        let env = env();
        let model = EpochTimeModel::new(&env);
        let w = Workload::new(ModelSpec::mobilenet(), DatasetSpec::cifar10());
        let t10 = model.epoch_time(&w, &Allocation::new(10, 1769, StorageKind::S3));
        let t50 = model.epoch_time(&w, &Allocation::new(50, 1769, StorageKind::S3));
        // Per-iteration sync grows ~5x with 5x workers, but iteration count
        // also shrinks 5x; the per-epoch balance still favours growth in
        // transfers: (3n-2) grows faster than 1/k shrinks at fixed D.
        assert!(t50.sync_s > 0.0 && t10.sync_s > 0.0);
        // Total epoch time exhibits the compute/sync trade-off: compute
        // shrinks, sync share grows.
        assert!(t50.comm_fraction() > t10.comm_fraction());
    }

    #[test]
    fn more_memory_reduces_compute_not_sync() {
        let env = env();
        let model = EpochTimeModel::new(&env);
        let w = Workload::new(ModelSpec::mobilenet(), DatasetSpec::cifar10());
        let a = model.epoch_time(&w, &Allocation::new(10, 1769, StorageKind::S3));
        let b = model.epoch_time(&w, &Allocation::new(10, 3538, StorageKind::S3));
        assert!(b.compute_s < a.compute_s);
        assert!((b.sync_s - a.sync_s).abs() < 1e-12);
        assert!((b.load_s - a.load_s).abs() < 1e-12);
    }

    #[test]
    fn vmps_sync_beats_s3_for_large_models() {
        let env = env();
        let model = EpochTimeModel::new(&env);
        let w = Workload::new(ModelSpec::resnet50(), DatasetSpec::cifar10()).with_batch(32);
        let s3 = model.epoch_time(&w, &Allocation::new(50, 1769, StorageKind::S3));
        let vm = model.epoch_time(&w, &Allocation::new(50, 1769, StorageKind::VmPs));
        assert!(vm.sync_s < s3.sync_s);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn dynamodb_rejects_resnet() {
        let env = env();
        let model = EpochTimeModel::new(&env);
        let w = Workload::new(ModelSpec::resnet50(), DatasetSpec::cifar10());
        model.epoch_time(&w, &Allocation::new(10, 1769, StorageKind::DynamoDb));
    }

    #[test]
    fn training_time_scales_linearly_with_epochs() {
        let env = env();
        let model = EpochTimeModel::new(&env);
        let w = lr_higgs();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let one = model.training_time(&w, &alloc, 1);
        let ten = model.training_time(&w, &alloc, 10);
        assert!((ten - 10.0 * one).abs() < 1e-9);
    }

    #[test]
    fn iteration_count_delegates_to_dataset() {
        let env = env();
        let model = EpochTimeModel::new(&env);
        let w = lr_higgs();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        assert_eq!(model.iterations(&w, &alloc), 110);
    }

    #[test]
    fn asp_sync_cheaper_than_bsp_at_scale() {
        let env = env();
        let model = EpochTimeModel::new(&env);
        let w = Workload::new(ModelSpec::resnet50(), DatasetSpec::cifar10()).with_batch(32);
        let alloc = Allocation::new(50, 1769, StorageKind::S3);
        let bsp = model.epoch_time_with_protocol(&w, &alloc, SyncProtocol::Bsp);
        let asp = model.epoch_time_with_protocol(&w, &alloc, SyncProtocol::Asp);
        // Same load/compute, much less critical-path sync.
        assert_eq!(bsp.load_s, asp.load_s);
        assert_eq!(bsp.compute_s, asp.compute_s);
        assert!(asp.sync_s < bsp.sync_s / 10.0);
    }

    #[test]
    fn asp_equals_bsp_semantics_at_one_worker_modulo_pattern() {
        // At n = 1 there is no barrier to remove: ASP's 2 transfers vs
        // BSP stateless' (3·1 − 2) = 1 transfer — ASP is never *better*
        // than necessary at n = 1, and inflation is zero.
        assert_eq!(asp_epoch_inflation(1), 1.0);
        assert!(asp_epoch_inflation(50) > 1.3);
        assert!(asp_epoch_inflation(50) < 1.36);
        // Monotone in n.
        assert!(asp_epoch_inflation(10) < asp_epoch_inflation(100));
    }

    #[test]
    fn asp_total_job_tradeoff_can_go_either_way() {
        // For a sync-dominated job (big model, many workers, S3) ASP wins
        // even after epoch inflation; the barrier was the bottleneck.
        let env = env();
        let model = EpochTimeModel::new(&env);
        let w = Workload::new(ModelSpec::resnet50(), DatasetSpec::cifar10()).with_batch(32);
        let alloc = Allocation::new(50, 1769, StorageKind::S3);
        let bsp_job = model.epoch_time(&w, &alloc).total() * 40.0;
        let asp_job = model
            .epoch_time_with_protocol(&w, &alloc, SyncProtocol::Asp)
            .total()
            * 40.0
            * asp_epoch_inflation(alloc.n);
        assert!(asp_job < bsp_job);
        // For a compute-dominated job (VM-PS, tiny sync share) the
        // inflation dominates and BSP wins.
        let alloc_vm = Allocation::new(10, 10240, StorageKind::VmPs);
        let bsp_job = model.epoch_time(&w, &alloc_vm).total() * 40.0;
        let asp_job = model
            .epoch_time_with_protocol(&w, &alloc_vm, SyncProtocol::Asp)
            .total()
            * 40.0
            * asp_epoch_inflation(alloc_vm.n);
        assert!(asp_job > bsp_job);
    }

    #[test]
    fn breakdown_total_is_sum() {
        let t = TimeBreakdown {
            load_s: 1.0,
            compute_s: 2.0,
            sync_s: 3.0,
        };
        assert_eq!(t.total(), 6.0);
        assert_eq!(t.comm_fraction(), 0.5);
        assert_eq!(TimeBreakdown::default().comm_fraction(), 0.0);
    }
}
