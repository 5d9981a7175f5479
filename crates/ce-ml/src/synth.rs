//! Synthetic dataset generation for the real SGD kernel.
//!
//! The paper trains on Higgs/YFCC/Cifar10/IMDb, which we do not ship.
//! For the linear models (LR, SVM) we generate classification data from a
//! known ground-truth hyperplane with label noise — the standard
//! construction for which logistic regression and SVM convergence is well
//! understood. The SGD validation tests train on these and check that the
//! loss trajectories belong to the same inverse-power family the
//! schedulers assume.

use ce_sim_core::rng::SimRng;

/// A dense binary-classification dataset with labels in `{-1, +1}`.
#[derive(Debug, Clone)]
pub struct SynthDataset {
    /// Feature dimensionality.
    pub features: usize,
    /// Row-major instance features, `len = instances · features`.
    pub x: Vec<f32>,
    /// Labels, `len = instances`.
    pub y: Vec<f32>,
    /// The generating hyperplane (for diagnostics).
    pub true_weights: Vec<f32>,
}

impl SynthDataset {
    /// Generates `instances` points of dimension `features` from a random
    /// unit hyperplane; `label_noise` is the probability a label is
    /// flipped (controls the achievable loss floor).
    pub fn generate(
        instances: usize,
        features: usize,
        label_noise: f64,
        rng: &mut SimRng,
    ) -> SynthDataset {
        assert!(instances > 0 && features > 0);
        assert!((0.0..0.5).contains(&label_noise), "noise {label_noise}");
        let mut w: Vec<f32> = (0..features).map(|_| rng.normal() as f32).collect();
        let norm = w.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-12);
        for v in &mut w {
            *v /= norm;
        }
        let mut x = Vec::with_capacity(instances * features);
        let mut y = Vec::with_capacity(instances);
        for _ in 0..instances {
            let start = x.len();
            for _ in 0..features {
                x.push(rng.normal() as f32);
            }
            let margin: f32 = x[start..].iter().zip(&w).map(|(xi, wi)| xi * wi).sum();
            let mut label = if margin >= 0.0 { 1.0f32 } else { -1.0f32 };
            if rng.bernoulli(label_noise) {
                label = -label;
            }
            y.push(label);
        }
        SynthDataset {
            features,
            x,
            y,
            true_weights: w,
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty (never true for generated data).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Features of instance `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.x[i * self.features..(i + 1) * self.features]
    }

    /// Splits the dataset into `n` contiguous, near-equal shards — the
    /// per-worker partitioning of §III-B ("the training dataset D is
    /// evenly distributed among functions").
    pub fn shard(&self, n: usize) -> Vec<SynthDataset> {
        assert!(n >= 1);
        let total = self.len();
        let base = total / n;
        let extra = total % n;
        let mut shards = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n {
            let count = base + usize::from(i < extra);
            let end = start + count;
            shards.push(SynthDataset {
                features: self.features,
                x: self.x[start * self.features..end * self.features].to_vec(),
                y: self.y[start..end].to_vec(),
                true_weights: self.true_weights.clone(),
            });
            start = end;
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_shapes_are_consistent() {
        let mut rng = SimRng::new(1);
        let d = SynthDataset::generate(100, 8, 0.05, &mut rng);
        assert_eq!(d.len(), 100);
        assert_eq!(d.x.len(), 800);
        assert_eq!(d.y.len(), 100);
        assert_eq!(d.row(3).len(), 8);
        assert!(!d.is_empty());
    }

    #[test]
    fn labels_are_signed_units() {
        let mut rng = SimRng::new(2);
        let d = SynthDataset::generate(500, 4, 0.1, &mut rng);
        assert!(d.y.iter().all(|&l| l == 1.0 || l == -1.0));
        // Both classes present.
        assert!(d.y.contains(&1.0));
        assert!(d.y.iter().any(|&l| l == -1.0));
    }

    #[test]
    fn true_weights_unit_norm() {
        let mut rng = SimRng::new(3);
        let d = SynthDataset::generate(10, 16, 0.0, &mut rng);
        let norm: f32 = d.true_weights.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn zero_noise_data_is_separable_by_truth() {
        let mut rng = SimRng::new(4);
        let d = SynthDataset::generate(1000, 8, 0.0, &mut rng);
        for i in 0..d.len() {
            let margin: f32 = d
                .row(i)
                .iter()
                .zip(&d.true_weights)
                .map(|(x, w)| x * w)
                .sum();
            assert!(
                margin * d.y[i] >= 0.0,
                "instance {i} misclassified by truth"
            );
        }
    }

    #[test]
    fn shards_partition_without_loss() {
        let mut rng = SimRng::new(5);
        let d = SynthDataset::generate(103, 4, 0.05, &mut rng);
        let shards = d.shard(7);
        assert_eq!(shards.len(), 7);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, 103);
        // Near-equal: sizes differ by at most one.
        let min = shards.iter().map(|s| s.len()).min().unwrap();
        let max = shards.iter().map(|s| s.len()).max().unwrap();
        assert!(max - min <= 1);
        // Concatenated labels reproduce the original.
        let rebuilt: Vec<f32> = shards.iter().flat_map(|s| s.y.iter().copied()).collect();
        assert_eq!(rebuilt, d.y);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SynthDataset::generate(50, 6, 0.1, &mut SimRng::new(9));
        let b = SynthDataset::generate(50, 6, 0.1, &mut SimRng::new(9));
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
    }
}
