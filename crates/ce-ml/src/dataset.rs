//! The evaluation datasets of §IV-A.
//!
//! Sizes are what the analytical models consume: `D` (total bytes loaded
//! from storage, in MB) and the instance count (which, with the batch size
//! `b_z`, fixes the iteration count `k = D / (n · b_z)` of Eq. 2 — the
//! paper counts `k` in batches of instances, so we track both bytes and
//! instances).

/// A training dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name as used in the paper's figures.
    pub name: String,
    /// Total dataset size in MB (`D` of Table III).
    pub size_mb: f64,
    /// Number of training instances.
    pub num_instances: u64,
    /// Feature dimensionality of one instance.
    pub features: u32,
    /// Default mini-batch size `b_z` (instances per batch; Table IV).
    pub default_batch: u32,
}

impl DatasetSpec {
    /// Higgs: 11 M instances × 28 features (binary classification from
    /// Monte-Carlo simulation). ~8 GB on disk as CSV; ~1.2 GB as packed
    /// f32, we use the packed size since workers load binary shards.
    pub fn higgs() -> Self {
        DatasetSpec {
            name: "Higgs".to_owned(),
            num_instances: 11_000_000,
            features: 28,
            size_mb: 11_000_000.0 * 28.0 * 4.0 / (1024.0 * 1024.0),
            default_batch: 10_000,
        }
    }

    /// YFCC100M subset: image feature vectors of 4096 dimensions. The
    /// paper uses a tagged subset; we size it at 400 k instances.
    pub fn yfcc() -> Self {
        DatasetSpec {
            name: "YFCC".to_owned(),
            num_instances: 400_000,
            features: 4096,
            size_mb: 400_000.0 * 4096.0 * 4.0 / (1024.0 * 1024.0),
            default_batch: 800,
        }
    }

    /// Cifar10: 60 k 32×32×3 images in 10 classes (50 k train).
    pub fn cifar10() -> Self {
        DatasetSpec {
            name: "Cifar10".to_owned(),
            num_instances: 50_000,
            features: 32 * 32 * 3,
            size_mb: 50_000.0 * (32.0 * 32.0 * 3.0) / (1024.0 * 1024.0),
            default_batch: 128,
        }
    }

    /// IMDb: 25 k movie-review sentences, average length 292 tokens.
    /// Sized as token-id sequences padded to 320 tokens of 4 bytes.
    pub fn imdb() -> Self {
        DatasetSpec {
            name: "IMDb".to_owned(),
            num_instances: 25_000,
            features: 320,
            size_mb: 25_000.0 * 320.0 * 4.0 / (1024.0 * 1024.0),
            default_batch: 32,
        }
    }

    /// Iterations per epoch for `n` workers and batch size `b_z`:
    /// `k = ceil(instances / (n · b_z))` (Eq. 2 text).
    ///
    /// # Panics
    /// Panics if `n` or `batch` is zero.
    pub fn iterations_per_epoch(&self, n: u32, batch: u32) -> u32 {
        assert!(n > 0 && batch > 0, "n and batch must be positive");
        let per_worker = self.num_instances.div_ceil(u64::from(n));
        u32::try_from(per_worker.div_ceil(u64::from(batch))).expect("iteration count fits u32")
    }

    /// Megabytes of training data each of `n` workers holds (the paper
    /// distributes `D` evenly across functions).
    pub fn shard_mb(&self, n: u32) -> f64 {
        assert!(n > 0);
        self.size_mb / f64::from(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higgs_dimensions() {
        let d = DatasetSpec::higgs();
        assert_eq!(d.num_instances, 11_000_000);
        assert_eq!(d.features, 28);
        assert!(d.size_mb > 1000.0 && d.size_mb < 1400.0, "{}", d.size_mb);
    }

    #[test]
    fn iteration_count_matches_formula() {
        let d = DatasetSpec::higgs();
        // n = 10, batch = 10k: 11e6 / 10 workers = 1.1e6 each -> 110 iters.
        assert_eq!(d.iterations_per_epoch(10, 10_000), 110);
        // n = 1: all 11e6 -> 1100 iterations.
        assert_eq!(d.iterations_per_epoch(1, 10_000), 1100);
    }

    #[test]
    fn iteration_count_rounds_up() {
        let d = DatasetSpec::cifar10();
        // 50k / 7 workers = 7143 instances; 7143 / 128 = 55.8 -> 56.
        assert_eq!(d.iterations_per_epoch(7, 128), 56);
    }

    #[test]
    fn more_workers_fewer_iterations() {
        let d = DatasetSpec::yfcc();
        let k10 = d.iterations_per_epoch(10, 800);
        let k50 = d.iterations_per_epoch(50, 800);
        assert!(k50 < k10);
    }

    #[test]
    fn shards_partition_dataset() {
        let d = DatasetSpec::cifar10();
        let n = 8;
        assert!((d.shard_mb(n) * f64::from(n) - d.size_mb).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_workers_rejected() {
        DatasetSpec::higgs().iterations_per_epoch(0, 100);
    }

    #[test]
    fn all_paper_datasets_have_positive_size() {
        for d in [
            DatasetSpec::higgs(),
            DatasetSpec::yfcc(),
            DatasetSpec::cifar10(),
            DatasetSpec::imdb(),
        ] {
            assert!(d.size_mb > 0.0, "{}", d.name);
            assert!(d.num_instances > 0);
            assert!(d.default_batch > 0);
        }
    }

    #[test]
    fn table4_batch_sizes() {
        assert_eq!(DatasetSpec::higgs().default_batch, 10_000);
        assert_eq!(DatasetSpec::yfcc().default_batch, 800);
        assert_eq!(DatasetSpec::cifar10().default_batch, 128);
        assert_eq!(DatasetSpec::imdb().default_batch, 32);
    }
}
