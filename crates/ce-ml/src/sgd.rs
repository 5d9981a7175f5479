//! A real mini-batch SGD kernel for the linear models.
//!
//! This is the honest end of the substrate: logistic regression and
//! hinge-loss SVM trained with momentum SGD over [`crate::synth`] data.
//! The distributed workflow runner uses it in BSP mode — each worker
//! computes a gradient over its shard, gradients are averaged (optionally
//! through a real [`ce_storage::SimStore`]), and every worker applies the
//! same update — which is exactly the synchronization structure of Fig. 5.
//!
//! A gradient sums its per-example terms in batch order on the calling
//! thread, so it has one f32 association order.

use crate::synth::SynthDataset;
use ce_sim_core::rng::SimRng;

/// Loss function of the linear model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearLoss {
    /// Log-loss (logistic regression).
    Logistic,
    /// Hinge loss (linear SVM).
    Hinge,
}

/// Mini-batch SGD state for one worker (or the single global trainer).
#[derive(Debug, Clone)]
pub struct SgdTrainer {
    loss: LinearLoss,
    weights: Vec<f32>,
    velocity: Vec<f32>,
    learning_rate: f32,
    momentum: f32,
    l2: f32,
}

impl SgdTrainer {
    /// Creates a trainer with zero-initialized weights.
    pub fn new(loss: LinearLoss, features: usize, learning_rate: f32, momentum: f32) -> Self {
        assert!(features > 0);
        assert!(learning_rate > 0.0);
        assert!((0.0..1.0).contains(&momentum));
        SgdTrainer {
            loss,
            weights: vec![0.0; features],
            velocity: vec![0.0; features],
            learning_rate,
            momentum,
            l2: 1e-4,
        }
    }

    /// Current weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Computes the average gradient over `batch` instance indices of
    /// `data`, *without* applying it (BSP workers exchange raw gradients).
    pub fn gradient(&self, data: &SynthDataset, batch: &[usize]) -> Vec<f32> {
        assert!(!batch.is_empty());
        let d = data.features;
        // Each per-example vector starts from zeros and the vectors are
        // added in batch order, so the f32 sum has one association order.
        let mut grad = batch
            .iter()
            .map(|&i| {
                let xi = data.row(i);
                let yi = data.y[i];
                let margin: f32 = xi.iter().zip(&self.weights).map(|(x, w)| x * w).sum();
                let mut g = vec![0.0f32; d];
                match self.loss {
                    LinearLoss::Logistic => {
                        // d/dw log(1 + exp(-y w·x)) = -y σ(-y w·x) x
                        let z = (-yi * margin).min(30.0);
                        let coeff = -yi * (1.0 / (1.0 + (-z).exp()));
                        for (a, x) in g.iter_mut().zip(xi) {
                            *a += coeff * x;
                        }
                    }
                    LinearLoss::Hinge => {
                        if yi * margin < 1.0 {
                            for (a, x) in g.iter_mut().zip(xi) {
                                *a += -yi * x;
                            }
                        }
                    }
                }
                g
            })
            .fold(vec![0.0f32; d], |mut a, b| {
                for (ai, bi) in a.iter_mut().zip(&b) {
                    *ai += bi;
                }
                a
            });
        let inv = 1.0 / batch.len() as f32;
        for (g, w) in grad.iter_mut().zip(&self.weights) {
            *g = *g * inv + self.l2 * w;
        }
        grad
    }

    /// Applies one momentum-SGD update from an (already averaged) gradient.
    pub fn apply_gradient(&mut self, grad: &[f32]) {
        assert_eq!(grad.len(), self.weights.len());
        for ((v, w), g) in self.velocity.iter_mut().zip(&mut self.weights).zip(grad) {
            *v = self.momentum * *v - self.learning_rate * g;
            *w += *v;
        }
    }

    /// Mean loss of the current weights over the whole of `data`.
    pub fn evaluate(&self, data: &SynthDataset) -> f64 {
        let total: f64 = (0..data.len())
            .map(|i| {
                let margin: f32 = data
                    .row(i)
                    .iter()
                    .zip(&self.weights)
                    .map(|(x, w)| x * w)
                    .sum();
                let m = f64::from(data.y[i]) * f64::from(margin);
                match self.loss {
                    LinearLoss::Logistic => (1.0 + (-m).exp()).ln(),
                    LinearLoss::Hinge => (1.0 - m).max(0.0),
                }
            })
            .sum();
        total / data.len() as f64
    }

    /// Classification accuracy of the current weights over `data`.
    pub fn accuracy(&self, data: &SynthDataset) -> f64 {
        let correct: usize = (0..data.len())
            .filter(|&i| {
                let margin: f32 = data
                    .row(i)
                    .iter()
                    .zip(&self.weights)
                    .map(|(x, w)| x * w)
                    .sum();
                margin * data.y[i] > 0.0
            })
            .count();
        correct as f64 / data.len() as f64
    }

    /// Trains one full epoch (all instances once, in shuffled mini-batches
    /// of `batch_size`), returning the end-of-epoch loss over `data`.
    pub fn train_epoch(&mut self, data: &SynthDataset, batch_size: usize, rng: &mut SimRng) -> f64 {
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

/// Averages per-worker gradients (the aggregation step of Fig. 5).
///
/// # Panics
/// Panics if `grads` is empty or the gradients disagree in length.
pub fn average_gradients(grads: &[Vec<f32>]) -> Vec<f32> {
    assert!(!grads.is_empty());
    let d = grads[0].len();
    let mut avg = vec![0.0f32; d];
    for g in grads {
        assert_eq!(g.len(), d, "gradient length mismatch");
        for (a, v) in avg.iter_mut().zip(g) {
            *a += v;
        }
    }
    let inv = 1.0 / grads.len() as f32;
    for a in &mut avg {
        *a *= inv;
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::CurveParams;

    fn dataset(seed: u64) -> SynthDataset {
        SynthDataset::generate(2000, 16, 0.05, &mut SimRng::new(seed))
    }

    #[test]
    fn logistic_loss_decreases_over_epochs() {
        let data = dataset(1);
        let mut t = SgdTrainer::new(LinearLoss::Logistic, 16, 0.1, 0.9);
        let mut rng = SimRng::new(2);
        let untrained = t.evaluate(&data); // ln 2 for zero weights
        assert!((untrained - std::f64::consts::LN_2).abs() < 1e-6);
        let mut last = untrained;
        for _ in 0..10 {
            last = t.train_epoch(&data, 64, &mut rng);
        }
        assert!(last < untrained * 0.6, "untrained {untrained} last {last}");
    }

    #[test]
    fn hinge_loss_decreases_over_epochs() {
        let data = dataset(3);
        let mut t = SgdTrainer::new(LinearLoss::Hinge, 16, 0.05, 0.9);
        let mut rng = SimRng::new(4);
        let first = t.train_epoch(&data, 64, &mut rng);
        let mut last = first;
        for _ in 0..9 {
            last = t.train_epoch(&data, 64, &mut rng);
        }
        assert!(last < first, "first {first} last {last}");
    }

    #[test]
    fn trained_model_beats_chance() {
        let data = dataset(5);
        let mut t = SgdTrainer::new(LinearLoss::Logistic, 16, 0.1, 0.9);
        let mut rng = SimRng::new(6);
        for _ in 0..15 {
            t.train_epoch(&data, 64, &mut rng);
        }
        let acc = t.accuracy(&data);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn bsp_aggregation_matches_single_worker_batch() {
        // Averaging shard gradients over the same global batch must equal
        // the single-worker gradient over that batch (up to shard-size
        // weighting, which is equal here).
        let data = dataset(7);
        let t = SgdTrainer::new(LinearLoss::Logistic, 16, 0.1, 0.0);
        let batch_a: Vec<usize> = (0..100).collect();
        let batch_b: Vec<usize> = (100..200).collect();
        let combined: Vec<usize> = (0..200).collect();
        let g_combined = t.gradient(&data, &combined);
        let g_avg = average_gradients(&[t.gradient(&data, &batch_a), t.gradient(&data, &batch_b)]);
        for (c, a) in g_combined.iter().zip(&g_avg) {
            assert!((c - a).abs() < 1e-5, "{c} vs {a}");
        }
    }

    #[test]
    fn average_gradients_of_identical_inputs_is_identity() {
        let g = vec![1.0f32, -2.0, 3.0];
        let avg = average_gradients(&[g.clone(), g.clone(), g.clone()]);
        assert_eq!(avg, g);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_gradient_lengths_panic() {
        average_gradients(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn training_is_deterministic() {
        let data = dataset(8);
        let run = |seed| {
            let mut t = SgdTrainer::new(LinearLoss::Logistic, 16, 0.1, 0.9);
            let mut rng = SimRng::new(seed);
            (0..5)
                .map(|_| t.train_epoch(&data, 64, &mut rng))
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn real_sgd_losses_fit_inverse_power_family() {
        // The substrate's core honesty check: the loss trajectory of real
        // SGD is well approximated by the curve family the schedulers
        // assume. Fit by grid search over (floor, rate) with power = 1 and
        // check the relative residual is small.
        let data = dataset(9);
        let mut t = SgdTrainer::new(LinearLoss::Logistic, 16, 0.05, 0.9);
        let mut rng = SimRng::new(10);
        let losses: Vec<f64> = (0..30)
            .map(|_| t.train_epoch(&data, 128, &mut rng))
            .collect();
        let initial = (1.0f64 + 1.0f64.exp()).ln_1p().max(losses[0] * 1.5);

        let mut best = (f64::INFINITY, 0.0, 0.0);
        let min_loss = losses.iter().cloned().fold(f64::INFINITY, f64::min);
        for fi in 0..40 {
            let floor = min_loss * f64::from(fi) / 40.0;
            for ri in 1..200 {
                let rate = f64::from(ri) * 0.05;
                let sse: f64 = losses
                    .iter()
                    .enumerate()
                    .map(|(e, &l)| {
                        let fit = floor + (initial - floor) / (1.0 + rate * (e + 1) as f64);
                        (fit - l).powi(2)
                    })
                    .sum();
                if sse < best.0 {
                    best = (sse, floor, rate);
                }
            }
        }
        let params = CurveParams {
            initial,
            floor: best.1,
            rate: best.2,
            power: 1.0,
            obs_noise: 0.0,
            rate_var: 0.0,
        };
        let mean_rel_err: f64 = losses
            .iter()
            .enumerate()
            .map(|(e, &l)| ((params.mean_loss_at((e + 1) as f64) - l) / l).abs())
            .sum::<f64>()
            / losses.len() as f64;
        assert!(
            mean_rel_err < 0.10,
            "inverse-power fit off by {mean_rel_err:.3} on real SGD"
        );
    }
}
