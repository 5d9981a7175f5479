//! Stochastic loss-convergence curves.
//!
//! SGD loss trajectories are well described by an inverse-power family
//! (the same family Optimus \[16\] and SLAQ \[17\] fit online):
//!
//! ```text
//! σ(e) = floor + (initial − floor) / (1 + rate · e)^power
//! ```
//!
//! Two kinds of stochasticity make offline prediction hard (§II-C2) and
//! are modelled explicitly:
//!
//! 1. **Run-level**: the realized convergence `rate` of a run is drawn from
//!    a lognormal around the family mean (`rate_var`). An offline
//!    predictor extrapolating from a pre-training sample sees a *different
//!    realization* and lands ~40 % off (Fig. 4a); an online predictor fits
//!    the actual run and converges to ~5 % error (Fig. 4b).
//! 2. **Epoch-level**: observed losses carry multiplicative AR(1) noise
//!    (`obs_noise`), so any fitter must smooth over fluctuations.
//!
//! Hyperparameter quality moves both the plateau (bad configurations
//! plateau higher — this is what SHA's early stopping exploits) and the
//! speed of convergence.

use crate::model::ModelFamily;
use ce_sim_core::rng::SimRng;

/// Parameters of the mean convergence curve plus its noise magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveParams {
    /// Loss before training (`σ(0)`).
    pub initial: f64,
    /// Asymptotic loss for an optimal configuration.
    pub floor: f64,
    /// Mean convergence rate `b`.
    pub rate: f64,
    /// Curve exponent `p`.
    pub power: f64,
    /// Std-dev of the lognormal multiplicative observation noise.
    pub obs_noise: f64,
    /// Std-dev of the lognormal run-level rate perturbation.
    pub rate_var: f64,
}

impl CurveParams {
    /// Default curve for each (model family, dataset) pair of Table IV.
    /// Calibrated so the mean run reaches the Table IV target loss in
    /// roughly 35–45 epochs.
    pub fn for_workload(family: ModelFamily, dataset: &str) -> CurveParams {
        match (family, dataset) {
            (ModelFamily::LogisticRegression, "YFCC") => CurveParams {
                initial: 120.0,
                floor: 45.0,
                rate: 0.35,
                power: 1.0,
                obs_noise: 0.03,
                rate_var: 0.25,
            },
            (ModelFamily::Svm, "YFCC") => CurveParams {
                initial: 130.0,
                floor: 44.0,
                rate: 0.32,
                power: 1.0,
                obs_noise: 0.03,
                rate_var: 0.25,
            },
            (ModelFamily::LogisticRegression, _) => CurveParams {
                initial: 0.72,
                floor: 0.64,
                rate: 0.08,
                power: 1.0,
                obs_noise: 0.02,
                rate_var: 0.25,
            },
            (ModelFamily::Svm, _) => CurveParams {
                initial: 0.60,
                floor: 0.46,
                rate: 0.15,
                power: 1.0,
                obs_noise: 0.02,
                rate_var: 0.25,
            },
            (ModelFamily::MobileNet, _) => CurveParams {
                initial: 2.30,
                floor: 0.15,
                rate: 1.0,
                power: 1.0,
                obs_noise: 0.05,
                rate_var: 0.30,
            },
            (ModelFamily::ResNet50, _) => CurveParams {
                initial: 2.30,
                floor: 0.32,
                rate: 0.60,
                power: 1.0,
                obs_noise: 0.05,
                rate_var: 0.30,
            },
            (ModelFamily::BertBase, _) => CurveParams {
                initial: 0.90,
                floor: 0.55,
                rate: 0.15,
                power: 1.0,
                obs_noise: 0.04,
                rate_var: 0.30,
            },
        }
    }

    /// Mean (noise-free) loss after `e` epochs.
    pub fn mean_loss_at(&self, e: f64) -> f64 {
        debug_assert!(e >= 0.0);
        self.floor + (self.initial - self.floor) / (1.0 + self.rate * e).powf(self.power)
    }

    /// Mean number of epochs to reach `target`, or `None` if the target is
    /// at or below the asymptotic floor (unreachable).
    pub fn mean_epochs_to(&self, target: f64) -> Option<f64> {
        if target <= self.floor {
            return None;
        }
        if target >= self.initial {
            return Some(0.0);
        }
        let ratio = (self.initial - self.floor) / (target - self.floor);
        Some((ratio.powf(1.0 / self.power) - 1.0) / self.rate)
    }
}

/// Table IV target losses.
pub fn table4_target(family: ModelFamily, dataset: &str) -> f64 {
    match (family, dataset) {
        (ModelFamily::LogisticRegression, "YFCC") | (ModelFamily::Svm, "YFCC") => 50.0,
        (ModelFamily::LogisticRegression, _) => 0.66,
        (ModelFamily::Svm, _) => 0.48,
        (ModelFamily::MobileNet, _) => 0.2,
        (ModelFamily::ResNet50, _) => 0.4,
        (ModelFamily::BertBase, _) => 0.6,
    }
}

/// One realized training run: a stochastic instantiation of a
/// [`CurveParams`] family for a specific seed and hyperparameter quality.
#[derive(Debug, Clone)]
pub struct LossCurve {
    /// The family this run was drawn from.
    family_params: CurveParams,
    /// Realized convergence rate (run-level lognormal draw).
    realized_rate: f64,
    /// Realized plateau, lifted by poor hyperparameter quality.
    realized_floor: f64,
    /// AR(1) noise state.
    noise_state: f64,
    rng: SimRng,
    epoch: u32,
    history: Vec<f64>,
}

impl LossCurve {
    /// AR(1) correlation of consecutive epochs' observation noise.
    const NOISE_RHO: f64 = 0.5;

    /// Draws a run from `params` for a configuration of the given
    /// `quality` in `(0, 1]` (1 = optimal; see
    /// [`crate::hyperparam::HyperConfig::quality`]).
    pub fn sample(params: &CurveParams, quality: f64, mut rng: SimRng) -> LossCurve {
        assert!(quality > 0.0 && quality <= 1.0, "quality {quality}");
        // Poor configurations converge slower and plateau higher: at
        // quality 1 the run uses the family floor; at quality→0 the
        // plateau rises most of the way to the initial loss.
        let realized_rate =
            params.rate * rng.lognormal_jitter(params.rate_var) * (0.3 + 0.7 * quality);
        let spread = params.initial - params.floor;
        let realized_floor = params.floor + (1.0 - quality) * 0.8 * spread;
        LossCurve {
            family_params: *params,
            realized_rate,
            realized_floor,
            noise_state: 0.0,
            rng,
            epoch: 0,
            history: Vec::new(),
        }
    }

    /// Draws an optimal-quality run (model training, not tuning).
    pub fn sample_optimal(params: &CurveParams, rng: SimRng) -> LossCurve {
        LossCurve::sample(params, 1.0, rng)
    }

    /// Noise-free loss of *this run* after `e` epochs.
    pub fn true_loss_at(&self, e: f64) -> f64 {
        self.realized_floor
            + (self.family_params.initial - self.realized_floor)
                / (1.0 + self.realized_rate * e).powf(self.family_params.power)
    }

    /// Noise-free epochs this run needs to reach `target`, rounded up, or
    /// `None` if the target is below this run's plateau.
    pub fn true_epochs_to(&self, target: f64) -> Option<u32> {
        if target <= self.realized_floor {
            return None;
        }
        if target >= self.family_params.initial {
            return Some(0);
        }
        let ratio =
            (self.family_params.initial - self.realized_floor) / (target - self.realized_floor);
        let e = (ratio.powf(1.0 / self.family_params.power) - 1.0) / self.realized_rate;
        Some(e.ceil() as u32)
    }

    /// Runs one more epoch, returning the observed (noisy) loss.
    pub fn next_epoch(&mut self) -> f64 {
        self.epoch += 1;
        let mean = self.true_loss_at(f64::from(self.epoch));
        // AR(1) multiplicative noise on the distance above the plateau.
        let innovation = self.rng.normal();
        self.noise_state = Self::NOISE_RHO * self.noise_state
            + (1.0 - Self::NOISE_RHO * Self::NOISE_RHO).sqrt() * innovation;
        let jitter = (self.family_params.obs_noise * self.noise_state).exp();
        let observed = self.realized_floor + (mean - self.realized_floor) * jitter;
        self.history.push(observed);
        observed
    }

    /// Epochs run so far.
    pub fn epochs_run(&self) -> u32 {
        self.epoch
    }

    /// Observed losses, one per epoch, in order.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Latest observed loss, if any epoch has run.
    pub fn last_loss(&self) -> Option<f64> {
        self.history.last().copied()
    }

    /// The family parameters this run was drawn from.
    pub fn family_params(&self) -> &CurveParams {
        &self.family_params
    }

    /// The realized (ground-truth) convergence rate of this run.
    pub fn realized_rate(&self) -> f64 {
        self.realized_rate
    }

    /// The realized (ground-truth) plateau of this run.
    pub fn realized_floor(&self) -> f64 {
        self.realized_floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lr_params() -> CurveParams {
        CurveParams::for_workload(ModelFamily::LogisticRegression, "Higgs")
    }

    #[test]
    fn mean_curve_monotone_decreasing() {
        let p = lr_params();
        let mut prev = f64::INFINITY;
        for e in 0..200 {
            let loss = p.mean_loss_at(f64::from(e));
            assert!(loss < prev);
            assert!(loss >= p.floor);
            prev = loss;
        }
    }

    #[test]
    fn mean_epochs_inverts_mean_loss() {
        let p = lr_params();
        for target in [0.70, 0.68, 0.66, 0.65] {
            let e = p.mean_epochs_to(target).unwrap();
            assert!((p.mean_loss_at(e) - target).abs() < 1e-9, "target {target}");
        }
    }

    #[test]
    fn unreachable_target_is_none() {
        let p = lr_params();
        assert!(p.mean_epochs_to(p.floor).is_none());
        assert!(p.mean_epochs_to(p.floor - 0.01).is_none());
        assert_eq!(p.mean_epochs_to(p.initial + 1.0), Some(0.0));
    }

    #[test]
    fn table4_targets_reachable_in_reasonable_epochs() {
        // Calibration check: every Table IV workload converges in 20–80
        // mean epochs.
        let cases = [
            (ModelFamily::LogisticRegression, "Higgs"),
            (ModelFamily::Svm, "Higgs"),
            (ModelFamily::LogisticRegression, "YFCC"),
            (ModelFamily::Svm, "YFCC"),
            (ModelFamily::MobileNet, "Cifar10"),
            (ModelFamily::ResNet50, "Cifar10"),
            (ModelFamily::BertBase, "IMDb"),
        ];
        for (family, ds) in cases {
            let p = CurveParams::for_workload(family, ds);
            let target = table4_target(family, ds);
            let e = p
                .mean_epochs_to(target)
                .unwrap_or_else(|| panic!("{family} {ds}: unreachable target"));
            assert!(
                (15.0..=90.0).contains(&e),
                "{family} {ds}: {e} mean epochs to target"
            );
        }
    }

    #[test]
    fn optimal_run_reaches_target() {
        let p = lr_params();
        let mut run = LossCurve::sample_optimal(&p, SimRng::new(3));
        let target = table4_target(ModelFamily::LogisticRegression, "Higgs");
        let needed = run.true_epochs_to(target).unwrap();
        for _ in 0..needed + 20 {
            run.next_epoch();
        }
        let min_seen = run.history().iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            min_seen <= target * 1.02,
            "min {min_seen} vs target {target}"
        );
    }

    #[test]
    fn poor_quality_plateaus_higher() {
        let p = lr_params();
        let good = LossCurve::sample(&p, 1.0, SimRng::new(5));
        let bad = LossCurve::sample(&p, 0.1, SimRng::new(5));
        assert!(bad.realized_floor() > good.realized_floor());
        assert!(bad.realized_rate() < good.realized_rate());
        // A bad configuration cannot reach the optimal-quality target.
        assert!(bad
            .true_epochs_to(table4_target(ModelFamily::LogisticRegression, "Higgs"))
            .is_none());
    }

    #[test]
    fn run_level_rate_varies_across_seeds() {
        let p = lr_params();
        let rates: Vec<f64> = (0..20)
            .map(|s| LossCurve::sample_optimal(&p, SimRng::new(s)).realized_rate())
            .collect();
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min > 1.3, "rates too uniform: {min}..{max}");
    }

    #[test]
    fn same_seed_reproduces_run() {
        let p = lr_params();
        let mut a = LossCurve::sample_optimal(&p, SimRng::new(11));
        let mut b = LossCurve::sample_optimal(&p, SimRng::new(11));
        for _ in 0..30 {
            assert_eq!(a.next_epoch(), b.next_epoch());
        }
    }

    #[test]
    fn observed_losses_near_true_curve() {
        let p = lr_params();
        let mut run = LossCurve::sample_optimal(&p, SimRng::new(13));
        for _ in 0..50 {
            run.next_epoch();
        }
        for (i, &obs) in run.history().iter().enumerate() {
            let truth = run.true_loss_at((i + 1) as f64);
            let rel = (obs - truth).abs() / truth;
            assert!(rel < 0.15, "epoch {} rel err {rel}", i + 1);
        }
    }

    #[test]
    fn history_and_counters_track_epochs() {
        let p = lr_params();
        let mut run = LossCurve::sample_optimal(&p, SimRng::new(17));
        assert_eq!(run.epochs_run(), 0);
        assert!(run.last_loss().is_none());
        let l1 = run.next_epoch();
        assert_eq!(run.epochs_run(), 1);
        assert_eq!(run.last_loss(), Some(l1));
        assert_eq!(run.history().len(), 1);
    }

    #[test]
    #[should_panic(expected = "quality")]
    fn zero_quality_rejected() {
        LossCurve::sample(&lr_params(), 0.0, SimRng::new(1));
    }

    #[test]
    fn true_epochs_to_initial_is_zero() {
        let p = lr_params();
        let run = LossCurve::sample_optimal(&p, SimRng::new(19));
        assert_eq!(run.true_epochs_to(p.initial + 0.1), Some(0));
    }
}
