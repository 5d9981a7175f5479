//! A BOHB-style model-based configuration sampler (TPE).
//!
//! §II-A notes that "other methods for hyperparameter tuning (e.g.,
//! BOHB) share the same idea of repeatedly terminating poorly performing
//! trials … thus, our work can be applied to them". This module provides
//! the model-based half of BOHB: a Tree-structured Parzen Estimator that
//! proposes configurations by density ratio, so successive brackets
//! concentrate trials near the good region while CE-scaling's planner
//! keeps handling the *resources* of each bracket unchanged.
//!
//! The estimator works in the 2-D space (log learning-rate, momentum):
//! observed configurations are split at the γ-quantile of their losses
//! into *good* and *bad* sets, each modelled as a Parzen window (mixture
//! of axis-aligned Gaussians); candidates are drawn from the good model
//! and the one maximizing `l_good(x) / l_bad(x)` is suggested.

use ce_ml::{HyperConfig, HyperSpace};
use ce_sim_core::rng::SimRng;

/// A TPE sampler over a hyperparameter space.
#[derive(Debug, Clone)]
pub struct TpeSampler {
    space: HyperSpace,
    /// Observations: (configuration, observed loss).
    archive: Vec<(HyperConfig, f64)>,
    /// Quantile splitting good from bad (BOHB default 0.15–0.25).
    pub gamma: f64,
    /// Observations required before the model replaces random sampling.
    pub min_observations: usize,
    /// Candidates drawn per suggestion.
    pub candidates: usize,
}

impl TpeSampler {
    /// Creates a sampler with BOHB-like defaults.
    pub fn new(space: HyperSpace) -> Self {
        TpeSampler {
            space,
            archive: Vec::new(),
            gamma: 0.25,
            min_observations: 8,
            candidates: 24,
        }
    }

    /// Number of observations recorded.
    pub fn observations(&self) -> usize {
        self.archive.len()
    }

    /// Records an observed (configuration, loss) pair.
    pub fn observe(&mut self, config: HyperConfig, loss: f64) {
        assert!(loss.is_finite(), "loss must be finite");
        self.archive.push((config, loss));
    }

    /// Suggests the next configuration: random before
    /// [`Self::min_observations`], model-based afterwards.
    pub fn suggest(&self, rng: &mut SimRng) -> HyperConfig {
        if self.archive.len() < self.min_observations {
            return self.space.sample(rng);
        }
        // Split the archive at the γ-quantile of losses.
        let mut sorted: Vec<&(HyperConfig, f64)> = self.archive.iter().collect();
        sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
        let n_good =
            ((sorted.len() as f64 * self.gamma).ceil() as usize).clamp(2, sorted.len() - 1);
        let good: Vec<[f64; 2]> = sorted[..n_good].iter().map(|(c, _)| embed(c)).collect();
        let bad: Vec<[f64; 2]> = sorted[n_good..].iter().map(|(c, _)| embed(c)).collect();
        let bw = self.bandwidths();

        // Draw candidates from the good Parzen model; keep the best
        // density ratio.
        let mut best: Option<(f64, HyperConfig)> = None;
        for _ in 0..self.candidates {
            let center = good[rng.gen_index(good.len())];
            let x = [
                center[0] + bw[0] * rng.normal(),
                center[1] + bw[1] * rng.normal(),
            ];
            let Some(config) = self.unembed(x) else {
                continue;
            };
            let ratio = parzen(&good, x, bw) / parzen(&bad, x, bw).max(1e-12);
            if best.as_ref().is_none_or(|(r, _)| ratio > *r) {
                best = Some((ratio, config));
            }
        }
        best.map(|(_, c)| c)
            .unwrap_or_else(|| self.space.sample(rng))
    }

    /// Per-dimension Parzen bandwidths: a fixed fraction of the space's
    /// extent (simple and robust for 2-D).
    fn bandwidths(&self) -> [f64; 2] {
        let lr_extent = (self.space.lr_range.1 / self.space.lr_range.0).ln();
        let m_extent = self.space.momentum_range.1 - self.space.momentum_range.0;
        [lr_extent * 0.12, m_extent * 0.12]
    }

    fn unembed(&self, x: [f64; 2]) -> Option<HyperConfig> {
        let (lo, hi) = self.space.lr_range;
        let lr = x[0].exp();
        if !(lo..=hi).contains(&lr) {
            return None;
        }
        let momentum = x[1];
        if !(self.space.momentum_range.0..=self.space.momentum_range.1).contains(&momentum) {
            return None;
        }
        Some(HyperConfig {
            learning_rate: lr,
            momentum,
        })
    }
}

/// Embeds a configuration into the Parzen space.
fn embed(c: &HyperConfig) -> [f64; 2] {
    [c.learning_rate.ln(), c.momentum]
}

/// Parzen-window density estimate at `x` with bandwidths `bw`.
fn parzen(points: &[[f64; 2]], x: [f64; 2], bw: [f64; 2]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points
        .iter()
        .map(|p| {
            let dx = (x[0] - p[0]) / bw[0];
            let dy = (x[1] - p[1]) / bw[1];
            (-0.5 * (dx * dx + dy * dy)).exp()
        })
        .sum::<f64>()
        / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> HyperSpace {
        HyperSpace::default()
    }

    /// The ground-truth loss proxy: better quality → lower loss.
    fn loss_of(space: &HyperSpace, c: &HyperConfig) -> f64 {
        1.0 - space.quality(c)
    }

    #[test]
    fn random_until_min_observations() {
        let sampler = TpeSampler::new(space());
        let mut rng = SimRng::new(1);
        // Fewer than min_observations: suggestions are plain space
        // samples (they follow the space's deterministic stream).
        let a = sampler.suggest(&mut rng);
        let mut rng2 = SimRng::new(1);
        let b = space().sample(&mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn model_concentrates_near_the_optimum() {
        let space = space();
        let mut sampler = TpeSampler::new(space.clone());
        let mut rng = SimRng::new(2);
        // Warm up with random observations.
        for _ in 0..40 {
            let c = space.sample(&mut rng);
            sampler.observe(c, loss_of(&space, &c));
        }
        // Model-based suggestions should be much better than random.
        let model_quality: f64 = (0..50)
            .map(|_| space.quality(&sampler.suggest(&mut rng)))
            .sum::<f64>()
            / 50.0;
        let random_quality: f64 = (0..50)
            .map(|_| space.quality(&space.sample(&mut rng)))
            .sum::<f64>()
            / 50.0;
        assert!(
            model_quality > random_quality + 0.15,
            "model {model_quality:.3} vs random {random_quality:.3}"
        );
    }

    #[test]
    fn sequential_bohb_outperforms_random_search() {
        // End-to-end: iteratively observe suggestions; the best found
        // configuration beats pure random search at equal sample count.
        let space = space();
        let budget = 60;
        let mut rng = SimRng::new(3);

        let mut sampler = TpeSampler::new(space.clone());
        let mut best_bohb = 0.0f64;
        for _ in 0..budget {
            let c = sampler.suggest(&mut rng);
            sampler.observe(c, loss_of(&space, &c));
            best_bohb = best_bohb.max(space.quality(&c));
        }

        let mut rng = SimRng::new(3);
        let mut best_random = 0.0f64;
        for _ in 0..budget {
            let c = space.sample(&mut rng);
            best_random = best_random.max(space.quality(&c));
        }
        assert!(
            best_bohb >= best_random,
            "BOHB {best_bohb:.3} < random {best_random:.3}"
        );
        assert!(best_bohb > 0.9);
    }

    #[test]
    fn suggestions_stay_in_bounds() {
        let space = space();
        let mut sampler = TpeSampler::new(space.clone());
        let mut rng = SimRng::new(4);
        for i in 0..100 {
            let c = sampler.suggest(&mut rng);
            assert!(c.learning_rate >= space.lr_range.0 && c.learning_rate <= space.lr_range.1);
            assert!(c.momentum >= space.momentum_range.0 && c.momentum <= space.momentum_range.1);
            sampler.observe(c, (i as f64).sin().abs());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let space = space();
        let run = || {
            let mut sampler = TpeSampler::new(space.clone());
            let mut rng = SimRng::new(5);
            let mut out = Vec::new();
            for _ in 0..20 {
                let c = sampler.suggest(&mut rng);
                sampler.observe(c, loss_of(&space, &c));
                out.push(c);
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_loss_rejected() {
        TpeSampler::new(space()).observe(
            HyperConfig {
                learning_rate: 0.01,
                momentum: 0.9,
            },
            f64::NAN,
        );
    }
}
