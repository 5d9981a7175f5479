//! Hyperparameter configurations and the quality surface SHA explores.
//!
//! A *trial* trains one hyperparameter configuration. The tuner never sees
//! the quality surface directly — it only observes per-epoch losses — but
//! the substrate needs a ground truth mapping configuration → convergence
//! behaviour. We model quality as a smooth unimodal function of
//! log-learning-rate and momentum with a known optimum, plus per-trial
//! stochasticity supplied by the loss curve.

use ce_sim_core::rng::SimRng;
use serde::Serialize;

/// One hyperparameter configuration (the knobs the paper's §II-A names).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HyperConfig {
    /// Learning rate (log-uniform over the space).
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 0.99]`.
    pub momentum: f64,
}

impl HyperConfig {
    /// Ground-truth quality of this configuration in `(0, 1]`: 1 is the
    /// optimum. Unimodal in log-learning-rate (optimum at `lr_opt`) and
    /// mildly increasing in momentum (optimum at 0.9).
    pub fn quality(&self, lr_opt: f64) -> f64 {
        let dlr = (self.learning_rate.ln() - lr_opt.ln()) / 3.0_f64.ln();
        let lr_term = (-0.5 * dlr * dlr).exp();
        let dm = (self.momentum - 0.9) / 0.6;
        let m_term = (-0.5 * dm * dm).exp();
        // Momentum matters less than learning rate.
        (lr_term * (0.7 + 0.3 * m_term)).clamp(1e-3, 1.0)
    }
}

/// The hyperparameter search space from which SHA samples trials.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperSpace {
    /// Learning-rate range (log-uniform sampling), inclusive bounds.
    pub lr_range: (f64, f64),
    /// The learning rate at which quality peaks (ground truth).
    pub lr_opt: f64,
    /// Momentum range (uniform sampling).
    pub momentum_range: (f64, f64),
}

impl Default for HyperSpace {
    fn default() -> Self {
        HyperSpace {
            lr_range: (1e-4, 1.0),
            lr_opt: 0.01,
            momentum_range: (0.0, 0.99),
        }
    }
}

impl HyperSpace {
    /// Samples one configuration.
    pub fn sample(&self, rng: &mut SimRng) -> HyperConfig {
        let (lo, hi) = self.lr_range;
        debug_assert!(lo > 0.0 && hi > lo);
        let log_lr = rng.uniform_range(lo.ln(), hi.ln());
        let momentum = rng.uniform_range(self.momentum_range.0, self.momentum_range.1);
        HyperConfig {
            learning_rate: log_lr.exp(),
            momentum,
        }
    }

    /// Samples `count` configurations (one SHA bracket's first stage).
    pub fn sample_many(&self, count: usize, rng: &mut SimRng) -> Vec<HyperConfig> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// Ground-truth quality for a configuration in this space.
    pub fn quality(&self, config: &HyperConfig) -> f64 {
        config.quality(self.lr_opt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimum_has_best_quality() {
        let space = HyperSpace::default();
        let best = HyperConfig {
            learning_rate: space.lr_opt,
            momentum: 0.9,
        };
        let q_best = space.quality(&best);
        assert!(q_best > 0.99);
        for lr in [1e-4, 1e-3, 0.1, 1.0] {
            let q = space.quality(&HyperConfig {
                learning_rate: lr,
                momentum: 0.9,
            });
            assert!(q < q_best, "lr {lr} quality {q} >= {q_best}");
        }
    }

    #[test]
    fn quality_bounded() {
        let space = HyperSpace::default();
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            let c = space.sample(&mut rng);
            let q = space.quality(&c);
            assert!((0.0..=1.0).contains(&q), "quality {q}");
        }
    }

    #[test]
    fn samples_stay_in_range() {
        let space = HyperSpace::default();
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let c = space.sample(&mut rng);
            assert!(c.learning_rate >= 1e-4 && c.learning_rate <= 1.0);
            assert!((0.0..=0.99).contains(&c.momentum));
        }
    }

    #[test]
    fn sampling_is_log_uniform_in_lr() {
        // Roughly a quarter of the samples should land per decade
        // (the range spans 4 decades).
        let space = HyperSpace::default();
        let mut rng = SimRng::new(3);
        let configs = space.sample_many(10_000, &mut rng);
        let below_1e3: f64 =
            configs.iter().filter(|c| c.learning_rate < 1e-3).count() as f64 / 10_000.0;
        assert!((below_1e3 - 0.25).abs() < 0.03, "fraction {below_1e3}");
    }

    #[test]
    fn momentum_secondary_to_learning_rate() {
        let space = HyperSpace::default();
        let good_lr_bad_m = HyperConfig {
            learning_rate: space.lr_opt,
            momentum: 0.0,
        };
        let bad_lr_good_m = HyperConfig {
            learning_rate: 1.0,
            momentum: 0.9,
        };
        assert!(space.quality(&good_lr_bad_m) > space.quality(&bad_lr_good_m));
    }

    #[test]
    fn deterministic_sampling() {
        let space = HyperSpace::default();
        let a = space.sample_many(10, &mut SimRng::new(7));
        let b = space.sample_many(10, &mut SimRng::new(7));
        assert_eq!(a, b);
    }
}
