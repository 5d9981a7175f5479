//! Bootstrap confidence intervals for epoch predictions.
//!
//! Algorithm 2 reacts when the point prediction drifts by more than `δ`,
//! which treats a jittery 8-epoch fit and a rock-solid 40-epoch fit the
//! same. This extension quantifies the fit's uncertainty by residual
//! bootstrap: refit on `B` resampled histories (fitted curve + resampled
//! residuals) and report the empirical quantiles of the epochs-to-target
//! estimate. A scheduler can then scale `δ` with the interval width —
//! wide interval, be patient; narrow interval, trust the drift.

use crate::fitter::{FittedCurve, LossCurveFitter};
use ce_sim_core::rng::SimRng;

/// A bootstrap interval over the predicted total epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochInterval {
    /// Point estimate from the original fit.
    pub point: f64,
    /// Lower quantile (e.g. 10th percentile).
    pub lo: f64,
    /// Upper quantile (e.g. 90th percentile).
    pub hi: f64,
}

impl EpochInterval {
    /// Relative interval width `(hi − lo) / point` — the uncertainty
    /// measure a δ-scaling policy consumes.
    pub fn relative_width(&self) -> f64 {
        if self.point <= 0.0 {
            f64::INFINITY
        } else {
            (self.hi - self.lo) / self.point
        }
    }
}

/// Residual-bootstrap predictor.
#[derive(Debug, Clone)]
pub struct BootstrapPredictor {
    /// Bootstrap resamples (default 50; each costs one grid fit).
    pub resamples: usize,
    /// Quantile pair, e.g. (0.1, 0.9).
    pub quantiles: (f64, f64),
}

impl Default for BootstrapPredictor {
    fn default() -> Self {
        BootstrapPredictor {
            resamples: 50,
            quantiles: (0.1, 0.9),
        }
    }
}

impl BootstrapPredictor {
    /// Computes the bootstrap interval for the epochs to reach `target`
    /// from the observed `history` (epoch `i+1` ↦ `history[i]`).
    ///
    /// Returns `None` when the base fit is unavailable (too little
    /// history) or the target is below the fitted floor.
    pub fn interval(
        &self,
        initial_loss: f64,
        history: &[f64],
        target: f64,
        rng: &mut SimRng,
    ) -> Option<EpochInterval> {
        let fitter = LossCurveFitter::new(initial_loss);
        let base = fitter.fit(history)?;
        let point = base.epochs_to(target)?;

        // Residuals of the base fit.
        let residuals: Vec<f64> = history
            .iter()
            .enumerate()
            .map(|(i, &l)| l - base.loss_at((i + 1) as f64))
            .collect();

        let mut estimates = Vec::with_capacity(self.resamples);
        for _ in 0..self.resamples {
            let synthetic: Vec<f64> = (0..history.len())
                .map(|i| {
                    let r = residuals[rng.gen_index(residuals.len())];
                    (base.loss_at((i + 1) as f64) + r).max(1e-9)
                })
                .collect();
            if let Some(fit) = fitter.fit(&synthetic) {
                if let Some(e) = FittedCurve::epochs_to(&fit, target) {
                    estimates.push(e);
                }
            }
        }
        if estimates.len() < self.resamples / 2 {
            // Most resamples put the floor above the target: the estimate
            // is too unstable to bound.
            return None;
        }
        estimates.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let idx = ((estimates.len() - 1) as f64 * p).round() as usize;
            estimates[idx]
        };
        Some(EpochInterval {
            point,
            lo: q(self.quantiles.0),
            hi: q(self.quantiles.1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_ml::curve::{CurveParams, LossCurve};
    use ce_ml::model::ModelFamily;

    fn history(epochs: usize, seed: u64) -> (CurveParams, Vec<f64>, f64) {
        let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
        let mut run = LossCurve::sample_optimal(&params, SimRng::new(seed));
        let hist: Vec<f64> = (0..epochs).map(|_| run.next_epoch()).collect();
        let truth = f64::from(run.true_epochs_to(0.2).unwrap());
        (params, hist, truth)
    }

    #[test]
    fn interval_brackets_the_point_estimate() {
        let (params, hist, _) = history(25, 1);
        let mut rng = SimRng::new(2);
        let iv = BootstrapPredictor::default()
            .interval(params.initial, &hist, 0.2, &mut rng)
            .expect("fit available");
        assert!(iv.lo <= iv.hi);
        // The point estimate sits inside (or at) the interval for a
        // well-behaved history.
        assert!(iv.point >= iv.lo * 0.8 && iv.point <= iv.hi * 1.2);
        assert!(iv.relative_width() >= 0.0);
    }

    #[test]
    fn more_history_tightens_the_interval() {
        let width = |epochs: usize| {
            let mut total = 0.0;
            let mut n = 0;
            for seed in 0..6 {
                let (params, hist, _) = history(epochs, seed);
                let mut rng = SimRng::new(100 + seed);
                if let Some(iv) =
                    BootstrapPredictor::default().interval(params.initial, &hist, 0.2, &mut rng)
                {
                    total += iv.relative_width();
                    n += 1;
                }
            }
            total / f64::from(n.max(1))
        };
        let early = width(8);
        let late = width(40);
        assert!(
            late < early,
            "interval did not tighten: {early:.3} → {late:.3}"
        );
    }

    #[test]
    fn interval_usually_covers_the_truth() {
        let mut covered = 0;
        let mut total = 0;
        for seed in 0..10 {
            let (params, hist, truth) = history(30, seed);
            let mut rng = SimRng::new(200 + seed);
            if let Some(iv) =
                BootstrapPredictor::default().interval(params.initial, &hist, 0.2, &mut rng)
            {
                total += 1;
                // Generous margin: the 10–90 interval plus fit bias.
                if truth >= iv.lo * 0.7 && truth <= iv.hi * 1.3 {
                    covered += 1;
                }
            }
        }
        assert!(total >= 8, "fits mostly available");
        assert!(covered * 10 >= total * 7, "coverage {covered}/{total}");
    }

    #[test]
    fn too_little_history_yields_none() {
        let (params, _, _) = history(25, 3);
        let mut rng = SimRng::new(4);
        assert!(BootstrapPredictor::default()
            .interval(params.initial, &[2.0, 1.8], 0.2, &mut rng)
            .is_none());
    }

    #[test]
    fn deterministic_per_seed() {
        let (params, hist, _) = history(20, 5);
        let run = || {
            let mut rng = SimRng::new(6);
            BootstrapPredictor::default().interval(params.initial, &hist, 0.2, &mut rng)
        };
        assert_eq!(run(), run());
    }
}
