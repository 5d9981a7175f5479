//! Parameter-synchronization pattern model (Eq. 3, Eq. 5, Fig. 5).
//!
//! Under Bulk Synchronous Parallel training every function synchronizes the
//! model at each iteration. How much data crosses the storage service
//! depends on whether the service can aggregate:
//!
//! * **Stateless storage** (S3, DynamoDB, ElastiCache): one designated
//!   function pulls the other `n − 1` gradient blobs, aggregates them, and
//!   uploads the merged model, which the other `n − 1` functions then pull.
//!   Counting each worker's own upload, that is `n + (n − 1) + (n − 1) =
//!   3n − 2` model-sized transfers per iteration.
//! * **VM-PS**: the parameter server aggregates locally, so only the `n`
//!   uploads and `n − 2` extra pulls remain: `2n − 2` transfers.
//!
//! Request counting for Eq. 5's per-request billing follows the paper's
//! constant: `10n + 2` requests per iteration (uploads, polls for barrier
//! arrival, pulls, and bookkeeping metadata operations).

use crate::service::StorageSpec;

/// Number of model-sized transfers one BSP iteration needs on `spec`
/// with `n` workers (the `(3n − 2)` / `(2n − 2)` constants of Eq. 3).
pub fn transfers_per_iteration(spec: &StorageSpec, n: u32) -> u32 {
    debug_assert!(n >= 1);
    if spec.aggregates_locally {
        (2 * n).saturating_sub(2)
    } else {
        (3 * n).saturating_sub(2)
    }
}

/// Wall-clock seconds one BSP synchronization takes on `spec` with `n`
/// workers and a model of `model_mb` megabytes — `t^p(θ)` of Eq. 3:
///
/// `t_p = (3n − 2)(M/b_s + ℓ_s)` for stateless storage,
/// `t_p = (2n − 2)(M/b_s + ℓ_s)` for VM-PS.
///
/// When the spec declares a provisioned aggregate capacity, the
/// per-transfer bandwidth is the `n`-way share of it (saturation of a
/// fixed-size cache node or parameter server); the default catalog
/// declares none and reduces exactly to Eq. 3.
pub fn sync_time(spec: &StorageSpec, n: u32, model_mb: f64) -> f64 {
    f64::from(transfers_per_iteration(spec, n)) * spec.transfer_time_contended(model_mb, n)
}

/// Number of storage requests one BSP iteration issues (Eq. 5's
/// `(10n + 2)` constant for request-billed services).
pub fn requests_per_iteration(n: u32) -> u32 {
    10 * n + 2
}

/// Dollars of storage cost for one BSP iteration on a request-billed
/// service (0 for runtime-billed services, which are charged per epoch
/// by [`runtime_cost_for_epoch`]).
pub fn request_cost_per_iteration(spec: &StorageSpec, n: u32, model_mb: f64) -> f64 {
    if !spec.pricing.is_per_request() {
        return 0.0;
    }
    // The paper's (10n + 2) counts requests; weight them by the average
    // request price for a model-sized object. Uploads (puts) and pulls
    // (gets) alternate, so charge half the requests at each price.
    let requests = f64::from(requests_per_iteration(n));
    let avg = 0.5 * (spec.pricing.put_cost(model_mb) + spec.pricing.get_cost(model_mb));
    requests * avg
}

/// Dollars of storage cost for one epoch on a runtime-billed service
/// (Eq. 5's `(t/60 + 1) · p_s` term; 0 for request-billed services).
pub fn runtime_cost_for_epoch(spec: &StorageSpec, epoch_secs: f64) -> f64 {
    spec.pricing.runtime_cost(epoch_secs)
}

/// A breakdown of one epoch's storage bill, for the Fig. 13/17/18 stacked
/// bars ("the bottom of each bar indicates the cost of storage").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageBill {
    /// Dollars charged per request (S3/DynamoDB class).
    pub request_dollars: f64,
    /// Dollars charged per runtime (ElastiCache/VM-PS class).
    pub runtime_dollars: f64,
}

impl StorageBill {
    /// Total storage dollars.
    pub fn total(&self) -> f64 {
        self.request_dollars + self.runtime_dollars
    }
}

/// Computes the full storage bill for one epoch: `iterations` BSP rounds
/// plus `epoch_secs` of attached runtime.
pub fn epoch_bill(
    spec: &StorageSpec,
    n: u32,
    model_mb: f64,
    iterations: u32,
    epoch_secs: f64,
) -> StorageBill {
    StorageBill {
        request_dollars: f64::from(iterations) * request_cost_per_iteration(spec, n, model_mb),
        runtime_dollars: runtime_cost_for_epoch(spec, epoch_secs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::StorageCatalog;
    use crate::service::StorageKind;

    fn catalog() -> StorageCatalog {
        StorageCatalog::aws_default()
    }

    #[test]
    fn stateless_transfer_constant_is_3n_minus_2() {
        let cat = catalog();
        let s3 = cat.get(StorageKind::S3).unwrap();
        assert_eq!(transfers_per_iteration(s3, 1), 1);
        assert_eq!(transfers_per_iteration(s3, 10), 28);
        assert_eq!(transfers_per_iteration(s3, 50), 148);
    }

    #[test]
    fn vmps_transfer_constant_is_2n_minus_2() {
        let cat = catalog();
        let vm = cat.get(StorageKind::VmPs).unwrap();
        assert_eq!(transfers_per_iteration(vm, 1), 0);
        assert_eq!(transfers_per_iteration(vm, 10), 18);
        assert_eq!(transfers_per_iteration(vm, 50), 98);
    }

    #[test]
    fn sync_time_matches_eq3_by_hand() {
        let cat = catalog();
        let s3 = cat.get(StorageKind::S3).unwrap();
        // n = 10, M = 12 MB: (3·10 − 2)(12/90 + 0.045)
        let expect = 28.0 * (12.0 / 90.0 + 0.045);
        assert!((sync_time(s3, 10, 12.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn vmps_sync_faster_than_s3_at_scale() {
        // Finding 3 / Table II: at high function counts VM-PS wins on sync.
        let cat = catalog();
        let s3 = cat.get(StorageKind::S3).unwrap();
        let vm = cat.get(StorageKind::VmPs).unwrap();
        for n in [10, 50, 100] {
            assert!(sync_time(vm, n, 89.0) < sync_time(s3, n, 89.0), "n = {n}");
        }
    }

    #[test]
    fn request_count_matches_paper_constant() {
        assert_eq!(requests_per_iteration(1), 12);
        assert_eq!(requests_per_iteration(10), 102);
        assert_eq!(requests_per_iteration(50), 502);
    }

    #[test]
    fn request_cost_zero_for_runtime_services() {
        let cat = catalog();
        let vm = cat.get(StorageKind::VmPs).unwrap();
        assert_eq!(request_cost_per_iteration(vm, 10, 12.0), 0.0);
        let cache = cat.get(StorageKind::ElastiCache).unwrap();
        assert_eq!(request_cost_per_iteration(cache, 10, 12.0), 0.0);
    }

    #[test]
    fn runtime_cost_zero_for_request_services() {
        let cat = catalog();
        let s3 = cat.get(StorageKind::S3).unwrap();
        assert_eq!(runtime_cost_for_epoch(s3, 600.0), 0.0);
    }

    #[test]
    fn dynamodb_request_cost_grows_with_model_size() {
        let cat = catalog();
        let ddb = cat.get(StorageKind::DynamoDb).unwrap();
        let small = request_cost_per_iteration(ddb, 10, 0.01);
        let large = request_cost_per_iteration(ddb, 10, 0.39);
        assert!(large > small * 10.0, "per-KB units must dominate");
    }

    #[test]
    fn s3_request_cost_flat_in_model_size() {
        let cat = catalog();
        let s3 = cat.get(StorageKind::S3).unwrap();
        let small = request_cost_per_iteration(s3, 10, 0.01);
        let large = request_cost_per_iteration(s3, 10, 340.0);
        assert!((small - large).abs() < 1e-15);
    }

    #[test]
    fn epoch_bill_splits_by_pricing_class() {
        let cat = catalog();
        let s3 = cat.get(StorageKind::S3).unwrap();
        let bill = epoch_bill(s3, 10, 12.0, 100, 300.0);
        assert!(bill.request_dollars > 0.0);
        assert_eq!(bill.runtime_dollars, 0.0);

        let vm = cat.get(StorageKind::VmPs).unwrap();
        let bill = epoch_bill(vm, 10, 12.0, 100, 300.0);
        assert_eq!(bill.request_dollars, 0.0);
        assert!(bill.runtime_dollars > 0.0);
        assert_eq!(bill.total(), bill.runtime_dollars);
    }

    #[test]
    fn provisioned_capacity_degrades_sync_at_scale() {
        let cat = catalog();
        let base = cat.get(StorageKind::ElastiCache).unwrap().clone();
        // One cache node: 420 MB/s total, shared by all clients.
        let contended = base.clone().with_aggregate_capacity(base.bandwidth_mbps);
        // Uncontended at n = 1 (full share ≥ per-connection rate)...
        assert!((sync_time(&contended, 1, 12.0) - sync_time(&base, 1, 12.0)).abs() < 1e-12);
        // ...but materially slower at n = 50.
        assert!(sync_time(&contended, 50, 12.0) > 2.0 * sync_time(&base, 50, 12.0));
    }

    #[test]
    fn effective_bandwidth_shares_capacity() {
        let cat = catalog();
        let spec = cat
            .get(StorageKind::VmPs)
            .unwrap()
            .clone()
            .with_aggregate_capacity(1150.0);
        assert_eq!(spec.effective_bandwidth(1), 1150.0);
        assert_eq!(spec.effective_bandwidth(10), 115.0);
        // Without a declared capacity the per-connection rate holds.
        let free = cat.get(StorageKind::VmPs).unwrap();
        assert_eq!(free.effective_bandwidth(1000), 1150.0);
    }

    #[test]
    fn single_worker_needs_no_vmps_sync() {
        let cat = catalog();
        let vm = cat.get(StorageKind::VmPs).unwrap();
        assert_eq!(sync_time(vm, 1, 100.0), 0.0);
    }
}
