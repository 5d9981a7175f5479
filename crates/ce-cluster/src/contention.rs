//! Cross-tenant storage contention.
//!
//! Table I's storage services differ in how they absorb concurrent
//! load: S3 and DynamoDB scale out automatically (throughput degrades
//! slowly, and only under heavy fan-in), while ElastiCache and a
//! user-managed VM parameter server are *manually* provisioned — their
//! bandwidth is fixed, so every extra tenant synchronizing through them
//! slows everyone down almost linearly. The model is deliberately
//! coarse (a per-service capacity in "concurrent jobs at full speed"
//! and a slowdown slope past it): enough to make the best storage
//! choice load-dependent, which is the effect the fleet experiments
//! need.

use ce_storage::StorageKind;

/// Per-service contention parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ServiceLoad {
    /// Jobs that can synchronize concurrently at full speed.
    capacity: u32,
    /// Added slowdown per excess job, as a fraction of the uncontended
    /// sync time (1.0 ⇒ each excess job adds one full sync-time share).
    slope: f64,
}

/// Maps concurrent per-service load to a sync-time inflation factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    s3: ServiceLoad,
    dynamo: ServiceLoad,
    elasticache: ServiceLoad,
    vm_ps: ServiceLoad,
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel::aws_default()
    }
}

impl ContentionModel {
    /// Calibration mirroring Table I's scaling column: auto-scaling
    /// services have deep capacity and shallow slopes; manually scaled
    /// ones saturate after a handful of tenants.
    pub fn aws_default() -> Self {
        ContentionModel {
            s3: ServiceLoad {
                capacity: 64,
                slope: 0.02,
            },
            dynamo: ServiceLoad {
                capacity: 32,
                slope: 0.05,
            },
            elasticache: ServiceLoad {
                capacity: 4,
                slope: 0.5,
            },
            vm_ps: ServiceLoad {
                capacity: 6,
                slope: 0.4,
            },
        }
    }

    /// A frictionless variant (every factor 1.0) for ablations.
    pub fn none() -> Self {
        let free = ServiceLoad {
            capacity: u32::MAX,
            slope: 0.0,
        };
        ContentionModel {
            s3: free,
            dynamo: free,
            elasticache: free,
            vm_ps: free,
        }
    }

    fn service(&self, kind: StorageKind) -> ServiceLoad {
        match kind {
            StorageKind::S3 => self.s3,
            StorageKind::DynamoDb => self.dynamo,
            StorageKind::ElastiCache => self.elasticache,
            StorageKind::VmPs => self.vm_ps,
        }
    }

    /// Sync-time inflation factor (≥ 1.0) when `active` jobs (including
    /// the one asking) synchronize through `kind` concurrently.
    pub fn sync_slowdown(&self, kind: StorageKind, active: u32) -> f64 {
        let s = self.service(kind);
        if active <= s.capacity {
            return 1.0;
        }
        1.0 + s.slope * f64::from(active - s.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_capacity_is_free() {
        let m = ContentionModel::aws_default();
        for kind in StorageKind::ALL {
            assert_eq!(m.sync_slowdown(kind, 1), 1.0);
        }
        assert_eq!(m.sync_slowdown(StorageKind::ElastiCache, 4), 1.0);
    }

    #[test]
    fn manual_services_degrade_much_faster() {
        let m = ContentionModel::aws_default();
        let at = |kind| m.sync_slowdown(kind, 12);
        assert!(at(StorageKind::ElastiCache) > at(StorageKind::S3));
        assert!(at(StorageKind::VmPs) > at(StorageKind::DynamoDb));
        assert_eq!(at(StorageKind::S3), 1.0, "S3 absorbs 12 tenants");
        assert!(at(StorageKind::ElastiCache) >= 1.5 * at(StorageKind::S3));
    }

    #[test]
    fn slowdown_is_monotone_in_load() {
        let m = ContentionModel::aws_default();
        for kind in StorageKind::ALL {
            let mut prev = 0.0;
            for active in 1..100 {
                let f = m.sync_slowdown(kind, active);
                assert!(f >= prev);
                prev = f;
            }
        }
    }

    #[test]
    fn none_model_never_slows() {
        let m = ContentionModel::none();
        for kind in StorageKind::ALL {
            assert_eq!(m.sync_slowdown(kind, 10_000), 1.0);
        }
    }
}
