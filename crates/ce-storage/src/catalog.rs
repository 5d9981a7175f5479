//! The default storage catalog: Table I instantiated with public AWS
//! list prices (us-east-1, 2022/2023 era, as used by the paper).
//!
//! | Service | b_s (MB/s) | ℓ_s (s) | Pricing |
//! |---|---|---|---|
//! | S3 | 90 | 0.045 | $5e-6 / PUT, $4e-7 / GET |
//! | DynamoDB | 120 | 0.008 | $1.25e-6 / 1 KB WRU, $2.5e-7 / 4 KB RRU |
//! | ElastiCache | 420 | 0.0009 | cache.r6g.large $0.206 / h |
//! | VM-PS | 1150 | 0.0006 | c5.2xlarge $0.34 / h (10 Gb/s network) |
//!
//! The numbers are engineering estimates of well-documented service
//! behaviour, not private measurements: S3 sustains ~90 MB/s per connection
//! with tens-of-ms first-byte latency; DynamoDB answers single-digit-ms
//! with a hard 400 KB item limit; ElastiCache/VM-PS answer sub-ms inside a
//! VPC. These are exactly the relative positions Table I asserts
//! (high / medium / low latency; `$`/`$$`/`$$$` cost classes).

use crate::service::{PricingModel, ScalingMode, StorageKind, StorageSpec};

/// A set of available storage services (the `S` dimension of Eq. 1).
#[derive(Debug, Clone)]
pub struct StorageCatalog {
    services: Vec<StorageSpec>,
}

impl StorageCatalog {
    /// The paper's Table I catalog with AWS list prices.
    pub fn aws_default() -> Self {
        StorageCatalog {
            services: vec![
                StorageSpec {
                    kind: StorageKind::S3,
                    scaling: ScalingMode::Auto,
                    bandwidth_mbps: 90.0,
                    latency_s: 0.045,
                    pricing: PricingModel::PerRequest {
                        per_put: 5.0e-6,
                        per_get: 4.0e-7,
                        // S3 charges per request regardless of size; model
                        // as one unit up to 5 GB (the single-PUT limit).
                        unit_kb: 5.0 * 1024.0 * 1024.0,
                    },
                    max_object_mb: None,
                    aggregates_locally: false,
                    aggregate_capacity_mbps: None,
                },
                StorageSpec {
                    kind: StorageKind::DynamoDb,
                    scaling: ScalingMode::Auto,
                    bandwidth_mbps: 120.0,
                    latency_s: 0.008,
                    pricing: PricingModel::PerRequest {
                        // On-demand: $1.25 per million write units (1 KB),
                        // $0.25 per million read units (4 KB, modelled as
                        // 1 KB granularity at a quarter of the price).
                        per_put: 1.25e-6,
                        per_get: 2.5e-7,
                        unit_kb: 1.0,
                    },
                    max_object_mb: Some(0.4), // 400 KB item limit
                    aggregates_locally: false,
                    aggregate_capacity_mbps: None,
                },
                StorageSpec {
                    kind: StorageKind::ElastiCache,
                    scaling: ScalingMode::Manual,
                    bandwidth_mbps: 420.0,
                    latency_s: 0.0009,
                    pricing: PricingModel::PerRuntime {
                        dollars_per_hour: 0.206, // cache.r6g.large
                    },
                    max_object_mb: Some(512.0), // Redis string limit
                    aggregates_locally: false,
                    aggregate_capacity_mbps: None,
                },
                StorageSpec {
                    kind: StorageKind::VmPs,
                    scaling: ScalingMode::Manual,
                    bandwidth_mbps: 1150.0,
                    latency_s: 0.0006,
                    pricing: PricingModel::PerRuntime {
                        dollars_per_hour: 0.34, // c5.2xlarge, 10 Gb/s
                    },
                    max_object_mb: None,
                    aggregates_locally: true,
                    aggregate_capacity_mbps: None,
                },
            ],
        }
    }

    /// Builds a catalog from explicit specs (for tests and what-if studies).
    pub fn from_specs(services: Vec<StorageSpec>) -> Self {
        StorageCatalog { services }
    }

    /// All services in the catalog.
    pub fn services(&self) -> &[StorageSpec] {
        &self.services
    }

    /// Looks up one service by kind.
    pub fn get(&self, kind: StorageKind) -> Option<&StorageSpec> {
        self.services.iter().find(|s| s.kind == kind)
    }

    /// A catalog restricted to a single service (used by the Fig. 16–18
    /// "fixed storage" experiments).
    pub fn only(&self, kind: StorageKind) -> StorageCatalog {
        StorageCatalog {
            services: self
                .services
                .iter()
                .filter(|s| s.kind == kind)
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_catalog_has_four_services() {
        let cat = StorageCatalog::aws_default();
        assert_eq!(cat.services().len(), 4);
        for kind in StorageKind::ALL {
            assert!(cat.get(kind).is_some(), "{kind} missing");
        }
    }

    #[test]
    fn latency_ordering_matches_table1() {
        // Table I: S3 high, DynamoDB medium, ElastiCache/VM-PS low.
        let cat = StorageCatalog::aws_default();
        let l = |k| cat.get(k).unwrap().latency_s;
        assert!(l(StorageKind::S3) > l(StorageKind::DynamoDb));
        assert!(l(StorageKind::DynamoDb) > l(StorageKind::ElastiCache));
        assert!(l(StorageKind::DynamoDb) > l(StorageKind::VmPs));
    }

    #[test]
    fn scaling_modes_match_table1() {
        let cat = StorageCatalog::aws_default();
        assert_eq!(cat.get(StorageKind::S3).unwrap().scaling, ScalingMode::Auto);
        assert_eq!(
            cat.get(StorageKind::DynamoDb).unwrap().scaling,
            ScalingMode::Auto
        );
        assert_eq!(
            cat.get(StorageKind::ElastiCache).unwrap().scaling,
            ScalingMode::Manual
        );
        assert_eq!(
            cat.get(StorageKind::VmPs).unwrap().scaling,
            ScalingMode::Manual
        );
    }

    #[test]
    fn only_vm_ps_aggregates_locally() {
        let cat = StorageCatalog::aws_default();
        for spec in cat.services() {
            assert_eq!(spec.aggregates_locally, spec.kind == StorageKind::VmPs);
        }
    }

    #[test]
    fn dynamodb_rejects_mobilenet() {
        // MobileNet's 12 MB model exceeds the 400 KB item limit (Table II's
        // N/A entries).
        let cat = StorageCatalog::aws_default();
        let supported: Vec<StorageKind> = cat
            .services()
            .iter()
            .filter(|s| s.supports_model(12.0))
            .map(|s| s.kind)
            .collect();
        assert!(!supported.contains(&StorageKind::DynamoDb));
        assert!(supported.contains(&StorageKind::S3));
        assert!(supported.contains(&StorageKind::VmPs));
    }

    #[test]
    fn only_restricts_catalog() {
        let cat = StorageCatalog::aws_default().only(StorageKind::ElastiCache);
        assert_eq!(cat.services().len(), 1);
        assert_eq!(cat.services()[0].kind, StorageKind::ElastiCache);
        assert!(cat.get(StorageKind::S3).is_none());
    }

    #[test]
    fn request_priced_services_are_cheap_class() {
        // Table I cost classes: request-priced ($ / $$) vs runtime-priced
        // ($$$). An hour of a runtime service costs more than 10k S3 PUTs.
        let cat = StorageCatalog::aws_default();
        let s3 = cat.get(StorageKind::S3).unwrap();
        let vm = cat.get(StorageKind::VmPs).unwrap();
        let s3_10k_puts = s3.pricing.put_cost(1.0) * 10_000.0;
        let vm_hour = vm.pricing.runtime_cost(3600.0);
        assert!(vm_hour > s3_10k_puts);
    }
}
