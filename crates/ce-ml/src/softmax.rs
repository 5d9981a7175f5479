//! Multiclass softmax regression — the "real training" kernel for the
//! image-classification model families (the linear tier of a MobileNet/
//! ResNet head), over synthetic Gaussian-blob data.
//!
//! Extends [`crate::sgd`] beyond binary classification: a `K × d` weight
//! matrix trained with mini-batch momentum SGD on the softmax
//! cross-entropy. The unit tests include a finite-difference gradient
//! check, which pins the analytic gradient to the loss to ~1e-3 relative
//! error — the strongest correctness evidence a training kernel can have.

use ce_sim_core::rng::SimRng;

/// A synthetic multiclass dataset: Gaussian blobs, one per class.
#[derive(Debug, Clone)]
pub struct MulticlassDataset {
    /// Feature dimensionality.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
    /// Row-major features, `len = instances · features`.
    pub x: Vec<f32>,
    /// Class labels in `0..classes`.
    pub y: Vec<u32>,
}

impl MulticlassDataset {
    /// Generates `instances` points from `classes` Gaussian blobs with
    /// unit-norm random centers separated by `separation` and unit noise.
    pub fn generate(
        instances: usize,
        features: usize,
        classes: usize,
        separation: f64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(instances > 0 && features > 0 && classes >= 2);
        assert!(separation > 0.0);
        let centers: Vec<Vec<f32>> = (0..classes)
            .map(|_| {
                let mut c: Vec<f32> = (0..features).map(|_| rng.normal() as f32).collect();
                let norm = c.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-9);
                for v in &mut c {
                    *v = *v / norm * separation as f32;
                }
                c
            })
            .collect();
        let mut x = Vec::with_capacity(instances * features);
        let mut y = Vec::with_capacity(instances);
        for _ in 0..instances {
            let class = rng.gen_index(classes);
            for &center in &centers[class] {
                x.push(center + rng.normal() as f32);
            }
            y.push(class as u32);
        }
        MulticlassDataset {
            features,
            classes,
            x,
            y,
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty (never true once generated).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Features of instance `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.x[i * self.features..(i + 1) * self.features]
    }
}

/// Mini-batch momentum SGD over a `classes × features` weight matrix.
#[derive(Debug, Clone)]
pub struct SoftmaxTrainer {
    features: usize,
    classes: usize,
    /// Row-major `classes × features` weights.
    weights: Vec<f32>,
    velocity: Vec<f32>,
    learning_rate: f32,
    momentum: f32,
}

impl SoftmaxTrainer {
    /// Creates a zero-initialized trainer.
    pub fn new(features: usize, classes: usize, learning_rate: f32, momentum: f32) -> Self {
        assert!(features > 0 && classes >= 2);
        assert!(learning_rate > 0.0);
        assert!((0.0..1.0).contains(&momentum));
        SoftmaxTrainer {
            features,
            classes,
            weights: vec![0.0; classes * features],
            velocity: vec![0.0; classes * features],
            learning_rate,
            momentum,
        }
    }

    /// Flat weight view (class-major), for parameter exchange.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Class scores → probabilities for one instance.
    fn probabilities(&self, xi: &[f32]) -> Vec<f64> {
        let mut logits = Vec::with_capacity(self.classes);
        for c in 0..self.classes {
            let w = &self.weights[c * self.features..(c + 1) * self.features];
            logits.push(
                xi.iter()
                    .zip(w)
                    .map(|(x, w)| f64::from(*x) * f64::from(*w))
                    .sum::<f64>(),
            );
        }
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / z).collect()
    }

    /// Average cross-entropy gradient over `batch` indices, class-major
    /// flat layout matching [`Self::weights`].
    pub fn gradient(&self, data: &MulticlassDataset, batch: &[usize]) -> Vec<f32> {
        assert!(!batch.is_empty());
        let d = self.features;
        let k = self.classes;
        // Per-example softmax + outer product, summed in batch order.
        let grad = batch
            .iter()
            .map(|&i| {
                let xi = data.row(i);
                let p = self.probabilities(xi);
                let mut g = vec![0.0f32; k * d];
                for (c, &p_c) in p.iter().enumerate() {
                    let indicator = f64::from(data.y[i] == c as u32);
                    let coeff = (p_c - indicator) as f32;
                    let row = &mut g[c * d..(c + 1) * d];
                    for (a, x) in row.iter_mut().zip(xi) {
                        *a += coeff * x;
                    }
                }
                g
            })
            .fold(vec![0.0f32; k * d], |mut a, b| {
                for (ai, bi) in a.iter_mut().zip(&b) {
                    *ai += bi;
                }
                a
            });
        let inv = 1.0 / batch.len() as f32;
        grad.into_iter().map(|g| g * inv).collect()
    }

    /// Applies one momentum update from an averaged gradient.
    pub fn apply_gradient(&mut self, grad: &[f32]) {
        assert_eq!(grad.len(), self.weights.len());
        for ((v, w), g) in self.velocity.iter_mut().zip(&mut self.weights).zip(grad) {
            *v = self.momentum * *v - self.learning_rate * g;
            *w += *v;
        }
    }

    /// Mean cross-entropy over the dataset.
    pub fn evaluate(&self, data: &MulticlassDataset) -> f64 {
        let total: f64 = (0..data.len())
            .map(|i| {
                let p = self.probabilities(data.row(i));
                -(p[data.y[i] as usize].max(1e-12)).ln()
            })
            .sum();
        total / data.len() as f64
    }

    /// Classification accuracy over the dataset.
    pub fn accuracy(&self, data: &MulticlassDataset) -> f64 {
        let correct: usize = (0..data.len())
            .filter(|&i| {
                let p = self.probabilities(data.row(i));
                let pred = p
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c as u32)
                    .unwrap();
                pred == data.y[i]
            })
            .count();
        correct as f64 / data.len() as f64
    }

    /// Trains one epoch of shuffled mini-batches; returns end-of-epoch
    /// loss.
    pub fn train_epoch(
        &mut self,
        data: &MulticlassDataset,
        batch_size: usize,
        rng: &mut SimRng,
    ) -> f64 {
        assert!(batch_size > 0);
        let mut order: Vec<usize> = (0..data.len()).collect();
        rng.shuffle(&mut order);
        for batch in order.chunks(batch_size) {
            let grad = self.gradient(data, batch);
            self.apply_gradient(&grad);
        }
        self.evaluate(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(seed: u64) -> MulticlassDataset {
        MulticlassDataset::generate(1200, 10, 4, 3.0, &mut SimRng::new(seed))
    }

    #[test]
    fn gradient_bit_identical_across_thread_counts() {
        let d = dataset(7);
        let mut t = SoftmaxTrainer::new(10, 4, 0.1, 0.9);
        let mut rng = SimRng::new(8);
        t.train_epoch(&d, 64, &mut rng);
        let batch: Vec<usize> = (0..300).collect();
        let seq = rayon::with_threads(1, || t.gradient(&d, &batch));
        let par = rayon::with_threads(8, || t.gradient(&d, &batch));
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
        let e1 = rayon::with_threads(1, || t.evaluate(&d));
        let e8 = rayon::with_threads(8, || t.evaluate(&d));
        assert_eq!(e1.to_bits(), e8.to_bits());
    }

    #[test]
    fn generated_shapes_and_labels() {
        let d = dataset(1);
        assert_eq!(d.len(), 1200);
        assert_eq!(d.x.len(), 12_000);
        assert!(d.y.iter().all(|&c| c < 4));
        // All classes represented.
        for c in 0..4u32 {
            assert!(d.y.contains(&c), "class {c} empty");
        }
        assert!(!d.is_empty());
    }

    #[test]
    fn zero_weights_give_uniform_loss() {
        let d = dataset(2);
        let t = SoftmaxTrainer::new(10, 4, 0.1, 0.0);
        // Cross-entropy of the uniform distribution = ln K.
        assert!((t.evaluate(&d) - 4.0f64.ln()).abs() < 1e-9);
        // Accuracy of the argmax tie-break is whatever class 0's share is;
        // just check it is a valid probability.
        let acc = t.accuracy(&d);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn finite_difference_gradient_check() {
        // The canonical kernel-correctness test: perturb each of a sample
        // of weights by ±h and compare the loss slope with the analytic
        // gradient.
        let d = MulticlassDataset::generate(40, 5, 3, 2.0, &mut SimRng::new(3));
        let batch: Vec<usize> = (0..d.len()).collect();
        let mut t = SoftmaxTrainer::new(5, 3, 0.1, 0.0);
        // Random non-zero point so the gradient is generic.
        let mut rng = SimRng::new(4);
        let w: Vec<f32> = (0..15).map(|_| rng.normal() as f32 * 0.3).collect();
        t.weights.copy_from_slice(&w);

        let analytic = t.gradient(&d, &batch);
        let h = 1e-3f32;
        for idx in [0usize, 3, 7, 11, 14] {
            let mut plus = t.clone();
            plus.weights[idx] += h;
            let mut minus = t.clone();
            minus.weights[idx] -= h;
            let numeric = (plus.evaluate(&d) - minus.evaluate(&d)) / (2.0 * f64::from(h));
            let rel = (numeric - f64::from(analytic[idx])).abs()
                / numeric.abs().max(f64::from(analytic[idx]).abs()).max(1e-6);
            assert!(
                rel < 5e-3,
                "weight {idx}: numeric {numeric:.6} vs analytic {:.6} (rel {rel:.2e})",
                analytic[idx]
            );
        }
    }

    #[test]
    fn training_converges_on_separable_blobs() {
        let d = dataset(5);
        let mut t = SoftmaxTrainer::new(10, 4, 0.2, 0.9);
        let mut rng = SimRng::new(6);
        let initial = t.evaluate(&d);
        for _ in 0..15 {
            t.train_epoch(&d, 64, &mut rng);
        }
        let final_loss = t.evaluate(&d);
        assert!(final_loss < initial * 0.3, "{initial} → {final_loss}");
        assert!(t.accuracy(&d) > 0.9, "accuracy {}", t.accuracy(&d));
    }

    #[test]
    fn training_is_deterministic() {
        let d = dataset(7);
        let run = |seed| {
            let mut t = SoftmaxTrainer::new(10, 4, 0.2, 0.9);
            let mut rng = SimRng::new(seed);
            (0..5)
                .map(|_| t.train_epoch(&d, 64, &mut rng))
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(8), run(8));
        assert_ne!(run(8), run(9));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = dataset(10);
        let mut t = SoftmaxTrainer::new(10, 4, 0.1, 0.0);
        let mut rng = SimRng::new(11);
        t.train_epoch(&d, 64, &mut rng);
        for i in 0..20 {
            let p = t.probabilities(d.row(i));
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn harder_separation_is_harder() {
        let easy = MulticlassDataset::generate(800, 10, 4, 4.0, &mut SimRng::new(12));
        let hard = MulticlassDataset::generate(800, 10, 4, 0.8, &mut SimRng::new(12));
        let train = |d: &MulticlassDataset| {
            let mut t = SoftmaxTrainer::new(10, 4, 0.2, 0.9);
            let mut rng = SimRng::new(13);
            for _ in 0..10 {
                t.train_epoch(d, 64, &mut rng);
            }
            t.accuracy(d)
        };
        assert!(train(&easy) > train(&hard));
    }
}
