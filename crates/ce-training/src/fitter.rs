//! Least-squares loss-curve fitting.
//!
//! The fitter assumes the inverse-power convergence family
//! `σ(e) = floor + (initial − floor) / (1 + rate·e)` with a *known*
//! initial loss (the loss of the untrained model, observable before
//! training starts) and fits `(floor, rate)` to the noisy per-epoch
//! history by a 33 × 49 grid search with local refinement — robust,
//! derivative-free, and fast enough to run after every epoch.
//!
//! [`LossCurveFitter::fit`] runs the pruned sweep
//! ([`LossCurveFitter::fit_pruned`]), which returns the exhaustive
//! sweep's exact bits at a fraction of its cost: a warm-start
//! bound from the previous fit ([`LossCurveFitter::fit_hinted`]) and a
//! four-lane grid kernel let it abandon most candidates after a few
//! terms. Both shortcuts only skip candidates whose SSE provably cannot
//! win the strict-`<` first-argmin, and every SSE that is compared is
//! summed term by term in [`FittedCurve::sse`]'s order. The exhaustive
//! sweep ([`LossCurveFitter::fit_exhaustive`]) is kept only as the
//! oracle of the differential tests.

use std::sync::OnceLock;

/// A fitted convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedCurve {
    /// Loss before training (supplied, not fitted).
    pub initial: f64,
    /// Fitted asymptotic loss.
    pub floor: f64,
    /// Fitted convergence rate.
    pub rate: f64,
}

impl FittedCurve {
    /// Predicted loss after `e` epochs.
    pub fn loss_at(&self, e: f64) -> f64 {
        self.floor + (self.initial - self.floor) / (1.0 + self.rate * e)
    }

    /// Predicted total epochs to reach `target`, or `None` if the target
    /// is at or below the fitted floor.
    pub fn epochs_to(&self, target: f64) -> Option<f64> {
        if target <= self.floor {
            return None;
        }
        if target >= self.initial {
            return Some(0.0);
        }
        let ratio = (self.initial - self.floor) / (target - self.floor);
        Some((ratio - 1.0) / self.rate)
    }

    /// Sum of squared residuals against a history (epoch `i+1` ↦
    /// `history[i]`).
    pub fn sse(&self, history: &[f64]) -> f64 {
        self.sse_within(history, f64::INFINITY)
    }

    /// [`Self::sse`] with branch-and-bound pruning: the partial sum is a
    /// monotone nondecreasing sequence of nonnegative terms, so once it
    /// exceeds `bound` (an incumbent best) this candidate can never win
    /// a strict `<` comparison and the accumulation stops early. Terms
    /// are added in [`Self::sse`]'s order, so any return value that is
    /// `<= bound` is the full sum, bit-identical to [`Self::sse`].
    pub fn sse_within(&self, history: &[f64], bound: f64) -> f64 {
        let mut total = 0.0;
        for (i, &l) in history.iter().enumerate() {
            total += (self.loss_at((i + 1) as f64) - l).powi(2);
            if total > bound {
                return total;
            }
        }
        total
    }
}

/// The fixed log-spaced rate grid (1e-3 to 1e3) swept by
/// [`LossCurveFitter::fit`], built once per process: the `powf` calls
/// would otherwise dominate the sweep's setup for every refit.
fn rate_grid() -> &'static [f64; 49] {
    static GRID: OnceLock<[f64; 49]> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut rates = [0.0; 49];
        for (ri, rate) in rates.iter_mut().enumerate() {
            *rate = 10f64.powf(-3.0 + 6.0 * ri as f64 / 48.0);
        }
        rates
    })
}

/// The SSEs of the four candidates `(floor, rates[k])`, or `None` once
/// every lane's partial sum exceeds `cut`. Each lane accumulates its
/// terms in [`FittedCurve::sse`]'s order with its expression (no fused
/// multiply-add, no reassociation), so a returned sum is bit-identical to
/// `sse`. Partial sums of non-negative terms only grow under rounding, so
/// a lane past `cut` ends past it: `None` drops no candidate that could
/// be accepted under `cut`.
fn sse4_within(
    initial: f64,
    floor: f64,
    rates: &[f64; 4],
    history: &[f64],
    cut: f64,
) -> Option<[f64; 4]> {
    let lanes = rates.map(|rate| FittedCurve {
        initial,
        floor,
        rate,
    });
    let mut sums = [0.0; 4];
    for (i, &l) in history.iter().enumerate() {
        let e = (i + 1) as f64;
        for (sum, lane) in sums.iter_mut().zip(&lanes) {
            *sum += (lane.loss_at(e) - l).powi(2);
        }
        if sums.iter().all(|&s| s > cut) {
            return None;
        }
    }
    Some(sums)
}

/// The online fitter.
#[derive(Debug, Clone)]
pub struct LossCurveFitter {
    initial: f64,
}

impl LossCurveFitter {
    /// Minimum history length before a fit is attempted.
    pub const MIN_POINTS: usize = 3;

    /// Creates a fitter anchored at the (observed) initial loss.
    pub fn new(initial_loss: f64) -> Self {
        assert!(initial_loss.is_finite());
        LossCurveFitter {
            initial: initial_loss,
        }
    }

    /// Fits `(floor, rate)` to the observed history, or `None` with fewer
    /// than [`Self::MIN_POINTS`] observations. Runs the pruned sweep,
    /// which is bit-identical to [`Self::fit_exhaustive`].
    pub fn fit(&self, history: &[f64]) -> Option<FittedCurve> {
        self.fit_hinted(history, None)
    }

    /// [`Self::fit`] warm-started from `hint`, typically the previous fit
    /// of a history this one extends. The hint only bounds the pruned
    /// sweep's work; the fit is the same bits for every hint, including
    /// `None` and nonsense values.
    pub fn fit_hinted(&self, history: &[f64], hint: Option<FittedCurve>) -> Option<FittedCurve> {
        self.fit_pruned(history, hint)
    }

    /// The branch-and-bound sweep: same candidates, same order and same
    /// strict-`<` first-argmin as [`Self::fit_exhaustive`], with two
    /// exact shortcuts in the grid.
    ///
    /// * *Warm-start bound.* Before the grid, the exact SSE of the grid
    ///   cell nearest `hint` becomes an upper bound on the grid minimum;
    ///   a candidate is accepted only if `sse < best_sse && sse <= bound`.
    /// * *Four-lane kernel.* Each floor's rates are evaluated four at a
    ///   time, stopping once every lane's partial sum is past the cut.
    ///
    /// The local refinement is the exhaustive sweep's, with
    /// [`FittedCurve::sse_within`] pruning against the incumbent.
    pub fn fit_pruned(&self, history: &[f64], hint: Option<FittedCurve>) -> Option<FittedCurve> {
        if history.len() < Self::MIN_POINTS {
            return None;
        }
        let min_loss = history.iter().cloned().fold(f64::INFINITY, f64::min);
        let bound = self.hint_bound(history, min_loss, hint);
        // Coarse grid over floor ∈ [0, min_loss], rate log-spaced.
        let mut grid_best = (
            FittedCurve {
                initial: self.initial,
                floor: 0.0,
                rate: 1.0,
            },
            f64::INFINITY,
        );
        let offer = |best: &mut (FittedCurve, f64), cand: FittedCurve, sse: f64| {
            if sse < best.1 && sse <= bound {
                *best = (cand, sse);
            }
        };
        // 49 rates: twelve four-lane passes and one scalar tail per floor.
        let (quads, tail) = rate_grid().as_chunks::<4>();
        for fi in 0..=32 {
            let floor = min_loss * f64::from(fi) / 32.0;
            let cand = |rate| FittedCurve {
                initial: self.initial,
                floor,
                rate,
            };
            for rates in quads {
                let cut = grid_best.1.min(bound);
                if let Some(sums) = sse4_within(self.initial, floor, rates, history, cut) {
                    for (&rate, sse) in rates.iter().zip(sums) {
                        offer(&mut grid_best, cand(rate), sse);
                    }
                }
            }
            for &rate in tail {
                let c = cand(rate);
                let sse = c.sse_within(history, grid_best.1.min(bound));
                offer(&mut grid_best, c, sse);
            }
        }
        let (mut best, mut best_sse) = grid_best;
        // Local refinement: shrinking coordinate search around the best
        // grid cell. It stays scalar: each step's four probes depend on
        // the step before, and batching them measured no gain.
        let mut floor_step = min_loss / 32.0;
        let mut rate_factor = 10f64.powf(6.0 / 48.0);
        for _ in 0..24 {
            let mut improved = false;
            for (df, rf) in [
                (floor_step, 1.0),
                (-floor_step, 1.0),
                (0.0, rate_factor),
                (0.0, 1.0 / rate_factor),
            ] {
                let cand = FittedCurve {
                    initial: self.initial,
                    floor: (best.floor + df).clamp(0.0, min_loss),
                    rate: (best.rate * rf).max(1e-6),
                };
                let sse = cand.sse_within(history, best_sse);
                if sse < best_sse {
                    best_sse = sse;
                    best = cand;
                    improved = true;
                }
            }
            if !improved {
                floor_step *= 0.5;
                rate_factor = rate_factor.sqrt();
            }
        }
        Some(best)
    }

    /// The exact SSE of the grid cell nearest `hint`, or infinity (no
    /// bound) for a missing or non-finite hint or a NaN SSE. The cell is
    /// built with the grid's own floor and rate expressions, so its SSE
    /// is one the grid sweep also computes: never below the grid minimum.
    fn hint_bound(&self, history: &[f64], min_loss: f64, hint: Option<FittedCurve>) -> f64 {
        let Some(hint) = hint else {
            return f64::INFINITY;
        };
        if !(hint.floor.is_finite() && hint.rate.is_finite() && hint.rate > 0.0) {
            return f64::INFINITY;
        }
        // Float-to-int casts saturate (NaN → 0), so any ratio lands on a
        // real cell.
        let fi = ((hint.floor / min_loss * 32.0).round() as i32).clamp(0, 32);
        let ri = (((hint.rate.log10() + 3.0) * 8.0).round() as usize).min(48);
        let cell = FittedCurve {
            initial: self.initial,
            floor: min_loss * f64::from(fi) / 32.0,
            rate: rate_grid()[ri],
        };
        let sse = cell.sse(history);
        if sse.is_nan() {
            f64::INFINITY
        } else {
            sse
        }
    }

    /// The original full sweep: every candidate's SSE evaluated over the
    /// whole history, `powf` per grid cell. Kept verbatim as the pruned
    /// sweep's oracle in the differential tests.
    pub fn fit_exhaustive(&self, history: &[f64]) -> Option<FittedCurve> {
        if history.len() < Self::MIN_POINTS {
            return None;
        }
        let min_loss = history.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut best = FittedCurve {
            initial: self.initial,
            floor: 0.0,
            rate: 1.0,
        };
        let mut best_sse = f64::INFINITY;
        for fi in 0..=32 {
            let floor = min_loss * f64::from(fi) / 32.0;
            for ri in 0..=48 {
                let rate = 10f64.powf(-3.0 + 6.0 * f64::from(ri) / 48.0);
                let cand = FittedCurve {
                    initial: self.initial,
                    floor,
                    rate,
                };
                let sse = cand.sse(history);
                if sse < best_sse {
                    best_sse = sse;
                    best = cand;
                }
            }
        }
        let mut floor_step = min_loss / 32.0;
        let mut rate_factor = 10f64.powf(6.0 / 48.0);
        for _ in 0..24 {
            let mut improved = false;
            for (df, rf) in [
                (floor_step, 1.0),
                (-floor_step, 1.0),
                (0.0, rate_factor),
                (0.0, 1.0 / rate_factor),
            ] {
                let cand = FittedCurve {
                    initial: self.initial,
                    floor: (best.floor + df).clamp(0.0, min_loss),
                    rate: (best.rate * rf).max(1e-6),
                };
                let sse = cand.sse(history);
                if sse < best_sse {
                    best_sse = sse;
                    best = cand;
                    improved = true;
                }
            }
            if !improved {
                floor_step *= 0.5;
                rate_factor = rate_factor.sqrt();
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_ml::curve::{CurveParams, LossCurve};
    use ce_ml::model::ModelFamily;
    use ce_sim_core::rng::SimRng;

    fn exact_history(initial: f64, floor: f64, rate: f64, n: usize) -> Vec<f64> {
        (1..=n)
            .map(|e| floor + (initial - floor) / (1.0 + rate * e as f64))
            .collect()
    }

    #[test]
    fn recovers_exact_curve() {
        let history = exact_history(2.3, 0.15, 0.8, 20);
        let fit = LossCurveFitter::new(2.3).fit(&history).unwrap();
        assert!((fit.floor - 0.15).abs() < 0.02, "floor {}", fit.floor);
        assert!((fit.rate - 0.8).abs() / 0.8 < 0.05, "rate {}", fit.rate);
    }

    #[test]
    fn epochs_to_inverts_loss_at() {
        let fit = FittedCurve {
            initial: 1.0,
            floor: 0.2,
            rate: 0.5,
        };
        for target in [0.9, 0.5, 0.3, 0.25] {
            let e = fit.epochs_to(target).unwrap();
            assert!((fit.loss_at(e) - target).abs() < 1e-9);
        }
        assert!(fit.epochs_to(0.2).is_none());
        assert_eq!(fit.epochs_to(1.5), Some(0.0));
    }

    #[test]
    fn too_few_points_yields_none() {
        let fitter = LossCurveFitter::new(1.0);
        assert!(fitter.fit(&[0.9]).is_none());
        assert!(fitter.fit(&[0.9, 0.8]).is_none());
        assert!(fitter.fit(&[0.9, 0.8, 0.7]).is_some());
    }

    #[test]
    fn fits_noisy_synthetic_run_accurately() {
        // Fit a realized stochastic run and compare the predicted epochs
        // to the run's ground truth.
        let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
        let mut run = LossCurve::sample_optimal(&params, SimRng::new(5));
        for _ in 0..25 {
            run.next_epoch();
        }
        let fit = LossCurveFitter::new(params.initial)
            .fit(run.history())
            .unwrap();
        let predicted = fit.epochs_to(0.2).expect("target reachable");
        let truth = f64::from(run.true_epochs_to(0.2).unwrap());
        let rel = (predicted - truth).abs() / truth;
        assert!(rel < 0.20, "relative error {rel:.3}");
    }

    #[test]
    fn online_error_shrinks_with_history() {
        // Fig. 4b's shape: average prediction error decreases as training
        // progresses.
        let params = CurveParams::for_workload(ModelFamily::LogisticRegression, "Higgs");
        let target = 0.66;
        let mut early_errs = Vec::new();
        let mut late_errs = Vec::new();
        for seed in 0..12 {
            let mut run = LossCurve::sample_optimal(&params, SimRng::new(seed));
            let truth = f64::from(run.true_epochs_to(target).unwrap());
            for _ in 0..40 {
                run.next_epoch();
            }
            let fitter = LossCurveFitter::new(params.initial);
            let early = fitter.fit(&run.history()[..5]).unwrap();
            let late = fitter.fit(&run.history()[..40]).unwrap();
            let err = |f: &FittedCurve| {
                f.epochs_to(target)
                    .map_or(1.0, |e| (e - truth).abs() / truth)
            };
            early_errs.push(err(&early));
            late_errs.push(err(&late));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&late_errs) < mean(&early_errs),
            "late {:.3} !< early {:.3}",
            mean(&late_errs),
            mean(&early_errs)
        );
        assert!(
            mean(&late_errs) < 0.12,
            "late error {:.3}",
            mean(&late_errs)
        );
    }

    #[test]
    fn pruned_fit_is_bit_identical_to_exhaustive_sweep() {
        // Neither the warm-start bound nor the lane kernel's early exit
        // may change which candidate wins: across noisy realizations,
        // history lengths and hints, the pruned fit and the exhaustive
        // oracle return the exact same bits.
        for seed in 0..6 {
            let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
            let mut run = LossCurve::sample_optimal(&params, SimRng::new(seed));
            for _ in 0..70 {
                run.next_epoch();
            }
            let fitter = LossCurveFitter::new(params.initial);
            for n in [3, 5, 12, 25, 40, 70] {
                let history = &run.history()[..n];
                let slow = fitter.fit_exhaustive(history).unwrap();
                let hints = [
                    None,
                    fitter.fit_exhaustive(&history[..n - 1]),
                    Some(slow),
                    Some(FittedCurve {
                        rate: f64::NAN,
                        ..slow
                    }),
                ];
                for hint in hints {
                    let fast = fitter.fit_pruned(history, hint).unwrap();
                    assert_eq!(
                        (fast.floor.to_bits(), fast.rate.to_bits()),
                        (slow.floor.to_bits(), slow.rate.to_bits()),
                        "seed {seed} n {n} hint {hint:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sse_within_matches_sse_when_under_bound() {
        let fit = FittedCurve {
            initial: 1.0,
            floor: 0.2,
            rate: 0.5,
        };
        let history = exact_history(1.0, 0.3, 0.4, 20);
        let full = fit.sse(&history);
        assert_eq!(
            full.to_bits(),
            fit.sse_within(&history, f64::INFINITY).to_bits()
        );
        assert_eq!(full.to_bits(), fit.sse_within(&history, full).to_bits());
        // A bound below the total stops early with some partial > bound.
        assert!(fit.sse_within(&history, full / 4.0) > full / 4.0);
    }

    #[test]
    fn fitted_sse_beats_naive_guess() {
        let history = exact_history(1.0, 0.3, 0.4, 15);
        let fit = LossCurveFitter::new(1.0).fit(&history).unwrap();
        let naive = FittedCurve {
            initial: 1.0,
            floor: 0.0,
            rate: 1.0,
        };
        assert!(fit.sse(&history) < naive.sse(&history));
        assert!(fit.sse(&history) < 1e-4);
    }
}
