//! The resource allocation `θ = (n, m, s)` and the space `Θ` (Eq. 1).

use ce_storage::{StorageCatalog, StorageKind};
use serde::Serialize;
use std::fmt;

/// One resource allocation for an epoch: the number of functions `n`, the
/// per-function memory `m` (MB), and the external storage service `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Allocation {
    /// Number of provisioned functions (`n`).
    pub n: u32,
    /// Memory per function in MB (`m`).
    pub memory_mb: u32,
    /// Attached external storage service (`s`).
    pub storage: StorageKind,
}

impl Allocation {
    /// Convenience constructor.
    pub fn new(n: u32, memory_mb: u32, storage: StorageKind) -> Self {
        assert!(n >= 1, "at least one function");
        assert!(memory_mb >= 128, "Lambda minimum memory is 128 MB");
        Allocation {
            n,
            memory_mb,
            storage,
        }
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}fn × {}MB / {}", self.n, self.memory_mb, self.storage)
    }
}

/// The allocation search space `Θ = {(n, m, s)}` of Eq. 1.
#[derive(Debug, Clone)]
pub struct AllocationSpace {
    /// Candidate function counts (`N`), ascending.
    pub function_counts: Vec<u32>,
    /// Candidate memory sizes in MB (`M`), ascending.
    pub memory_sizes: Vec<u32>,
    /// Candidate storage services (`S`).
    pub storages: Vec<StorageKind>,
}

impl AllocationSpace {
    /// The default grid used throughout the evaluation: function counts to
    /// 200, Lambda memory steps from 512 MB to the 10 240 MB cap, and all
    /// four storage services.
    pub fn aws_default() -> Self {
        AllocationSpace {
            function_counts: vec![1, 2, 4, 8, 10, 16, 25, 32, 50, 64, 100, 128, 200],
            memory_sizes: vec![
                512, 768, 1024, 1280, 1536, 1769, 2048, 2560, 3072, 3538, 4096, 5120, 6144, 7168,
                8192, 10240,
            ],
            storages: StorageKind::ALL.to_vec(),
        }
    }

    /// A coarser grid for fast tests.
    pub fn small() -> Self {
        AllocationSpace {
            function_counts: vec![1, 4, 10, 50],
            memory_sizes: vec![512, 1769, 3538],
            storages: StorageKind::ALL.to_vec(),
        }
    }

    /// Restricts the space to a single storage service (Figs. 16–18).
    pub fn with_only_storage(mut self, kind: StorageKind) -> Self {
        self.storages = vec![kind];
        self
    }

    /// Drops function counts above `limit` — the grid a job sees when an
    /// account-level concurrency quota caps its waves. Always keeps at
    /// least the narrowest count so the space stays non-empty.
    pub fn with_max_concurrency(mut self, limit: u32) -> Self {
        let narrowest = self.function_counts.first().copied();
        self.function_counts.retain(|&n| n <= limit);
        if self.function_counts.is_empty() {
            self.function_counts.extend(narrowest);
        }
        self
    }

    /// Enumerates every allocation in the space that is *feasible* for a
    /// job needing at least `min_memory_mb` per function and a model blob
    /// of `model_mb` (DynamoDB's item limit filters large models, and the
    /// catalog decides which services exist).
    pub fn enumerate(
        &self,
        catalog: &StorageCatalog,
        min_memory_mb: u32,
        model_mb: f64,
    ) -> Vec<Allocation> {
        let mut out = Vec::new();
        for &s in &self.storages {
            let Some(spec) = catalog.get(s) else { continue };
            if !spec.supports_model(model_mb) {
                continue;
            }
            for &n in &self.function_counts {
                for &m in &self.memory_sizes {
                    if m >= min_memory_mb {
                        out.push(Allocation::new(n, m, s));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let a = Allocation::new(10, 1769, StorageKind::S3);
        assert_eq!(a.to_string(), "10fn × 1769MB / S3");
    }

    #[test]
    fn max_concurrency_caps_function_counts() {
        let space = AllocationSpace::aws_default().with_max_concurrency(60);
        assert!(space.function_counts.iter().all(|&n| n <= 60));
        assert!(space.function_counts.contains(&50));
        // A quota below every count keeps the narrowest option.
        let tiny = AllocationSpace::aws_default().with_max_concurrency(0);
        assert_eq!(tiny.function_counts, vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_functions_rejected() {
        Allocation::new(0, 1024, StorageKind::S3);
    }

    #[test]
    #[should_panic(expected = "minimum memory")]
    fn tiny_memory_rejected() {
        Allocation::new(1, 64, StorageKind::S3);
    }

    #[test]
    fn default_space_cardinality() {
        let space = AllocationSpace::aws_default();
        let dims = (
            space.function_counts.len(),
            space.memory_sizes.len(),
            space.storages.len(),
        );
        assert_eq!(dims, (13, 16, 4));
    }

    #[test]
    fn enumerate_respects_memory_floor() {
        let space = AllocationSpace::small();
        let cat = StorageCatalog::aws_default();
        let allocs = space.enumerate(&cat, 1769, 0.0001);
        assert!(!allocs.is_empty());
        assert!(allocs.iter().all(|a| a.memory_mb >= 1769));
    }

    #[test]
    fn enumerate_filters_dynamodb_for_large_models() {
        let space = AllocationSpace::small();
        let cat = StorageCatalog::aws_default();
        // 12 MB MobileNet blob exceeds DynamoDB's 400 KB item limit.
        let allocs = space.enumerate(&cat, 512, 12.0);
        assert!(allocs.iter().all(|a| a.storage != StorageKind::DynamoDb));
        // A tiny LR blob keeps DynamoDB in the space.
        let allocs = space.enumerate(&cat, 512, 0.0001);
        assert!(allocs.iter().any(|a| a.storage == StorageKind::DynamoDb));
    }

    #[test]
    fn with_only_storage_restricts() {
        let space = AllocationSpace::small().with_only_storage(StorageKind::VmPs);
        let cat = StorageCatalog::aws_default();
        let allocs = space.enumerate(&cat, 512, 12.0);
        assert!(!allocs.is_empty());
        assert!(allocs.iter().all(|a| a.storage == StorageKind::VmPs));
    }

    #[test]
    fn enumerate_excludes_missing_catalog_services() {
        let space = AllocationSpace::small();
        let cat = StorageCatalog::aws_default().only(StorageKind::S3);
        let allocs = space.enumerate(&cat, 512, 0.001);
        assert!(allocs.iter().all(|a| a.storage == StorageKind::S3));
    }
}
