//! The platform environment a scheduler sees.

use crate::pricing::FunctionPricing;
use ce_storage::StorageCatalog;

/// Platform-wide constants: storage catalog, function pricing, dataset
/// load bandwidth, and hard limits.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Available external storage services (Table I).
    pub storage: StorageCatalog,
    /// Function pricing (`p_f`, `p_ivk`).
    pub pricing: FunctionPricing,
    /// Bandwidth at which workers load training data from long-term
    /// storage, MB/s (`B_S3` of Eq. 2).
    pub load_bandwidth_mbps: f64,
    /// Maximum concurrent functions (AWS default quota: 3000 burst).
    pub max_concurrency: u32,
    /// Function cold-start latency in seconds (second-level, §III).
    pub cold_start_s: f64,
}

impl Environment {
    /// The default AWS-like environment used by the evaluation.
    pub fn aws_default() -> Self {
        Environment {
            storage: StorageCatalog::aws_default(),
            pricing: FunctionPricing::aws_default(),
            load_bandwidth_mbps: 90.0,
            max_concurrency: 3000,
            cold_start_s: 1.8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_storage::StorageKind;

    #[test]
    fn default_environment_is_complete() {
        let env = Environment::aws_default();
        assert_eq!(env.storage.services().len(), 4);
        assert!(env.load_bandwidth_mbps > 0.0);
        assert_eq!(env.max_concurrency, 3000);
        assert!(env.cold_start_s > 0.5 && env.cold_start_s < 5.0);
        assert!(env.storage.get(StorageKind::S3).is_some());
    }
}
