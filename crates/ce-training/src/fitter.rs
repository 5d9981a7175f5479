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
//! sweep's exact bits at a fraction of its cost. For a fixed rate the
//! SSE is a quadratic in the floor, whose coefficients come from a few
//! running sums of the history. That closed form, less a proven
//! rounding margin, is a lower bound on the SSE the exact sum would
//! give, so it filters out nearly every candidate in O(1); a warm-start
//! bound from the previous fit ([`LossCurveFitter::fit_hinted`])
//! tightens the filter from the first cell. The shortcuts only skip
//! candidates whose SSE provably cannot win the strict-`<`
//! first-argmin, and every SSE that is compared is summed term by term
//! in [`FittedCurve::sse`]'s order. The exhaustive sweep
//! ([`LossCurveFitter::fit_exhaustive`]) is kept only as the oracle of
//! the differential tests.

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

    /// Whether two curves are the same candidate, bit for bit.
    fn same_bits(&self, other: &FittedCurve) -> bool {
        self.floor.to_bits() == other.floor.to_bits() && self.rate.to_bits() == other.rate.to_bits()
    }
}

/// Rates in the fitter's grid.
const RATES: usize = 49;

/// The fixed log-spaced rate grid (1e-3 to 1e3) swept by
/// [`LossCurveFitter::fit`], built once per process: the `powf` calls
/// would otherwise dominate the sweep's setup for every refit.
fn rate_grid() -> &'static [f64; RATES] {
    static GRID: OnceLock<[f64; RATES]> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut rates = [0.0; RATES];
        for (ri, rate) in rates.iter_mut().enumerate() {
            *rate = 10f64.powf(-3.0 + 6.0 * ri as f64 / 48.0);
        }
        rates
    })
}

/// The top of the floor range: the smallest loss of the history, or 0
/// when a loss is negative (the floor is never negative).
fn floor_cap(history: &[f64]) -> f64 {
    let min_loss = history.iter().cloned().fold(f64::INFINITY, f64::min);
    if min_loss < 0.0 {
        0.0
    } else {
        min_loss
    }
}

/// Running sums of a loss history from which, for each grid rate, the
/// SSE of every floor is a quadratic. With `g = 1/(1 + rate·e)` the
/// curve is `floor·(1 − g) + initial·g`, so `SSE(floor)` needs only
/// `n`, `Σl` and `Σl²`, and per rate `Σg`, `Σg²` and `Σg·l`.
/// [`crate::OnlinePredictor`] grows them by one term per rate and epoch;
/// a bare [`LossCurveFitter::fit`] builds them in one pass. They only
/// feed the filter's lower bounds, never an accepted SSE.
#[derive(Debug, Clone)]
pub(crate) struct GridSums {
    n: usize,
    l: f64,
    l2: f64,
    /// A loss below zero was observed: the bounds assume `|l| = l`, so
    /// the filter is off.
    signed: bool,
    g: [f64; RATES],
    g2: [f64; RATES],
    gl: [f64; RATES],
}

impl GridSums {
    /// The sums of an empty history.
    pub(crate) fn new() -> Self {
        GridSums {
            n: 0,
            l: 0.0,
            l2: 0.0,
            signed: false,
            g: [0.0; RATES],
            g2: [0.0; RATES],
            gl: [0.0; RATES],
        }
    }

    /// The sums of `history`, built in one pass.
    pub(crate) fn of(history: &[f64]) -> Self {
        let mut sums = GridSums::new();
        for &loss in history {
            sums.push(loss);
        }
        sums
    }

    /// Adds the next epoch's loss: one division per grid rate.
    pub(crate) fn push(&mut self, loss: f64) {
        self.n += 1;
        let e = self.n as f64;
        self.l += loss;
        self.l2 += loss * loss;
        self.signed |= loss < 0.0;
        for (ri, &rate) in rate_grid().iter().enumerate() {
            let g = 1.0 / (1.0 + rate * e);
            self.g[ri] += g;
            self.g2[ri] += g * g;
            self.gl[ri] += g * loss;
        }
    }

    /// The lower-bound quadratic of `rate`, off the grid, for curves
    /// anchored at `initial`: its rate sums are built in one pass over
    /// `history`, whose other sums these are.
    fn bound_at(&self, initial: f64, rate: f64, history: &[f64]) -> LowerBound {
        if self.signed {
            return LowerBound::NONE;
        }
        let mut rs = [0.0; 3];
        for (i, &loss) in history.iter().enumerate() {
            let g = 1.0 / (1.0 + rate * (i + 1) as f64);
            rs[0] += g;
            rs[1] += g * g;
            rs[2] += g * loss;
        }
        LowerBound::new(initial, self.n as f64, [self.l, self.l2], rs)
    }

    /// The lower-bound quadratic of each grid rate for curves anchored
    /// at `initial`.
    fn bounds(&self, initial: f64) -> [LowerBound; RATES] {
        if self.signed {
            return [LowerBound::NONE; RATES];
        }
        std::array::from_fn(|ri| {
            LowerBound::new(
                initial,
                self.n as f64,
                [self.l, self.l2],
                [self.g[ri], self.g2[ri], self.gl[ri]],
            )
        })
    }
}

/// The rounding margin's factor `k` in `k·(n + c₀)·ε·M(f)`: twice the
/// constant the proof in DESIGN.md ("Pruned sweep") needs.
const MARGIN_K: f64 = 4.0;
/// The margin's additive epoch count `c₀`.
const MARGIN_C0: f64 = 16.0;

/// A lower bound on the SSE [`FittedCurve::sse_within`] sums for every
/// floor `f ≥ 0` at one rate: `(a·f + b2)·f + c`, the closed-form SSE
/// less the rounding margin, both quadratics in `f`. A `NaN` bound
/// filters nothing, since it is never `>` a cut.
#[derive(Debug, Clone, Copy)]
struct LowerBound {
    a: f64,
    b2: f64,
    c: f64,
}

impl LowerBound {
    /// The bound that filters nothing.
    const NONE: LowerBound = LowerBound {
        a: 0.0,
        b2: 0.0,
        c: f64::NEG_INFINITY,
    };

    /// Builds the bound from `n` non-negative losses' sums `[Σl, Σl²]`
    /// and one rate's `[Σg, Σg², Σg·l]`. The SSE is
    /// `a·f² + 2b·f + c`; the margin scales with `M(f) = α·f² + 2β·f +
    /// κ`, the same quadratic with every sum and factor made
    /// non-negative (it bounds the magnitude of every rounded term).
    fn new(initial: f64, n: f64, [l, l2]: [f64; 2], [g, g2, gl]: [f64; 3]) -> LowerBound {
        let i = initial;
        let ia = initial.abs();
        let a = n - 2.0 * g + g2;
        let b = i * g - l - i * g2 + gl;
        let c = i * i * g2 - 2.0 * i * gl + l2;
        let alpha = n + 2.0 * g + g2;
        let beta = ia * g + l + ia * g2 + gl;
        let kappa = i * i * g2 + 2.0 * ia * gl + l2;
        let k = MARGIN_K * (n + MARGIN_C0) * f64::EPSILON;
        LowerBound {
            a: a - k * alpha,
            b2: 2.0 * (b - k * beta),
            // `MIN_POSITIVE` covers the absolute error of underflow.
            c: c - k * (kappa + f64::MIN_POSITIVE),
        }
    }

    /// The bound at floor `f ≥ 0`.
    fn at(&self, f: f64) -> f64 {
        (self.a * f + self.b2) * f + self.c
    }

    /// A lower bound on [`Self::at`] over every floor in `[0, cap]`, or
    /// `-∞` when a coefficient or `cap` is not finite. The minimum of the
    /// quadratic is taken at 0, at `cap`, or at the vertex; a vertex not
    /// clearly past `cap` counts as inside, which only lowers the bound.
    /// The slack covers this evaluation's rounding.
    fn min_over(&self, cap: f64) -> f64 {
        let Self { a, b2, c } = *self;
        if !(a.is_finite() && b2.is_finite() && c.is_finite() && cap.is_finite()) {
            return f64::NEG_INFINITY;
        }
        let low = if a > 0.0 && b2 < 0.0 {
            if -b2 > 2.0 * a * cap * (1.0 + 4.0 * f64::EPSILON) {
                self.at(cap)
            } else {
                c - b2 * b2 / (4.0 * a)
            }
        } else if a > 0.0 {
            c
        } else {
            c.min(self.at(cap))
        };
        let slack = 8.0 * f64::EPSILON * (a.abs() * cap * cap + 1.5 * b2.abs() * cap + c.abs());
        low - slack
    }
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

    /// The pruned sweep: same candidates, same order and same strict-`<`
    /// first-argmin as [`Self::fit_exhaustive`], with the grid sums built
    /// from `history` in one pass. [`crate::OnlinePredictor`] keeps its
    /// sums as it observes instead.
    pub fn fit_pruned(&self, history: &[f64], hint: Option<FittedCurve>) -> Option<FittedCurve> {
        self.fit_summed(history, hint, &GridSums::of(history))
    }

    /// The branch-and-bound sweep over `history`, whose grid sums are
    /// `sums`, with these exact shortcuts.
    ///
    /// * *Warm-start bound.* Before the grid, the exact SSE of the grid
    ///   cell nearest `hint` becomes an upper bound on the grid minimum;
    ///   a candidate is accepted only if `sse < best_sse && sse <= bound`.
    /// * *Closed-form filter.* A grid cell is skipped when its rate's
    ///   [`LowerBound`] at its floor is above `min(best_sse, bound)`,
    ///   and a whole rate column when the bound's minimum over the floor
    ///   range is above `bound`. Survivors are summed by
    ///   [`FittedCurve::sse_within`].
    /// * *Refinement.* A floor probe is filtered the same way against the
    ///   incumbent, by its rate's bound (summed in one pass for a rate off
    ///   the grid). A probe bit-equal to the last displaced incumbent or
    ///   to one of the last two rate probes is skipped: its SSE already
    ///   lost to an incumbent no better than today's.
    pub(crate) fn fit_summed(
        &self,
        history: &[f64],
        hint: Option<FittedCurve>,
        sums: &GridSums,
    ) -> Option<FittedCurve> {
        debug_assert_eq!(sums.n, history.len(), "grid sums of another history");
        if history.len() < Self::MIN_POINTS {
            return None;
        }
        let min_loss = floor_cap(history);
        let bound = self.hint_bound(history, min_loss, hint);
        let rates = rate_grid();
        let lower = sums.bounds(self.initial);
        // Rate columns some floor of which may still be accepted.
        let mut live = [0; RATES];
        let mut n_live = 0;
        for (ri, lb) in lower.iter().enumerate() {
            if lb.min_over(min_loss) > bound {
                continue;
            }
            live[n_live] = ri;
            n_live += 1;
        }
        // Coarse grid over floor ∈ [0, min_loss], rate log-spaced.
        let mut best = FittedCurve {
            initial: self.initial,
            floor: 0.0,
            rate: 1.0,
        };
        let mut best_sse = f64::INFINITY;
        // A rate and its lower bound: `best`'s after the grid, then the
        // last floor probe's.
        let mut column: Option<(f64, LowerBound)> = None;
        for fi in 0..=32 {
            let floor = min_loss * f64::from(fi) / 32.0;
            for &ri in &live[..n_live] {
                let cut = best_sse.min(bound);
                if lower[ri].at(floor) > cut {
                    continue;
                }
                let cand = FittedCurve {
                    initial: self.initial,
                    floor,
                    rate: rates[ri],
                };
                let sse = cand.sse_within(history, cut);
                if sse < best_sse && sse <= bound {
                    (best, best_sse, column) = (cand, sse, Some((cand.rate, lower[ri])));
                }
            }
        }
        // Local refinement: shrinking coordinate search around the best
        // grid cell.
        let mut floor_step = min_loss / 32.0;
        let mut rate_factor = 10f64.powf(6.0 / 48.0);
        // Probes whose SSE already lost to an incumbent no better than
        // today's: the last displaced incumbent and the last two rate
        // probes (a floor move repeats the rate probes of the round
        // before, and a move back lands on the displaced incumbent).
        let mut losers: [Option<FittedCurve>; 3] = [None; 3];
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
                if losers.iter().flatten().any(|p| p.same_bits(&cand)) {
                    continue;
                }
                if rf == 1.0 {
                    // A floor probe: its rate's bound, summed once per
                    // rate off the grid.
                    let lb = match column {
                        Some((rate, lb)) if rate.to_bits() == cand.rate.to_bits() => lb,
                        _ => {
                            let lb = sums.bound_at(self.initial, cand.rate, history);
                            column = Some((cand.rate, lb));
                            lb
                        }
                    };
                    if lb.at(cand.floor) > best_sse {
                        continue;
                    }
                } else {
                    losers[2] = losers[1];
                    losers[1] = Some(cand);
                }
                let sse = cand.sse_within(history, best_sse);
                if sse < best_sse {
                    // The grid's placeholder was never summed.
                    if best_sse.is_finite() {
                        losers[0] = Some(best);
                    }
                    (best, best_sse) = (cand, sse);
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
    /// whole history, `powf` per grid cell. Kept as the pruned sweep's
    /// oracle in the differential tests.
    pub fn fit_exhaustive(&self, history: &[f64]) -> Option<FittedCurve> {
        if history.len() < Self::MIN_POINTS {
            return None;
        }
        let min_loss = floor_cap(history);
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
    use crate::OnlinePredictor;
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
        // Neither the warm-start bound nor the closed-form filter may
        // change which candidate wins: across noisy realizations,
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

    fn bits(fit: Option<FittedCurve>) -> Option<(u64, u64)> {
        fit.map(|c| (c.floor.to_bits(), c.rate.to_bits()))
    }

    /// Fits the prefix of `history` at each of `lengths` (ascending) three
    /// ways: a bare pruned fit, a pruned fit hinted with the previous
    /// length's fit, and an `OnlinePredictor` refit from its kept sums.
    /// Each must be the exhaustive oracle's exact bits.
    fn assert_prefixes_match_exhaustive(
        initial: f64,
        history: &[f64],
        lengths: impl IntoIterator<Item = usize>,
        what: &str,
    ) {
        let fitter = LossCurveFitter::new(initial);
        let mut online = OnlinePredictor::new(initial);
        let mut hint = None;
        for n in lengths {
            while (online.epochs_observed() as usize) < n {
                online.observe(history[online.epochs_observed() as usize]);
            }
            let prefix = &history[..n];
            let oracle = fitter.fit_exhaustive(prefix);
            let want = bits(oracle);
            assert_eq!(
                bits(fitter.fit_pruned(prefix, None)),
                want,
                "{what}: bare, {n} epochs"
            );
            assert_eq!(
                bits(fitter.fit_pruned(prefix, hint)),
                want,
                "{what}: hinted, {n} epochs"
            );
            assert_eq!(bits(online.fitted()), want, "{what}: online, {n} epochs");
            hint = oracle;
        }
    }

    /// A noisy run as long as a run can train (`max_epochs`, 600).
    fn long_noisy_run() -> (f64, Vec<f64>) {
        let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
        let mut run = LossCurve::sample_optimal(&params, SimRng::new(26));
        for _ in 0..600 {
            run.next_epoch();
        }
        (params.initial, run.history().to_vec())
    }

    #[test]
    fn pruned_fit_matches_exhaustive_at_every_length_to_the_epoch_cap() {
        let (initial, history) = long_noisy_run();
        assert_prefixes_match_exhaustive(initial, &history, 3..=600, "noisy");
    }

    #[test]
    fn pruned_fit_matches_exhaustive_on_exact_zero_and_hostile_histories() {
        let lengths = || (3..=24).chain([31, 47, 64, 96, 150, 233, 377, 600]);
        // Exact curves, where the best SSE is ~0 and the closed form
        // cancels hardest: on a grid cell (floor 0, a grid rate), off the
        // grid, and flat at the initial loss (every rate ties at the top
        // floor).
        let exact = [
            (2.3, exact_history(2.3, 0.0, rate_grid()[20], 600)),
            (2.3, exact_history(2.3, 0.15, 0.8, 600)),
            (1.7, exact_history(1.7, 0.9, 0.013, 600)),
            (0.8, vec![0.8; 600]),
        ];
        for (i, (initial, history)) in exact.iter().enumerate() {
            assert_prefixes_match_exhaustive(*initial, history, lengths(), &format!("exact {i}"));
        }
        // All-zero losses: the floor range is the single point 0.
        assert_prefixes_match_exhaustive(1.0, &[0.0; 600], lengths(), "zero");
        // Hostile values in a noisy run: NaN, ±inf, negative and -0.0
        // losses, and magnitudes whose squares underflow or overflow.
        let (initial, history) = long_noisy_run();
        let base = &history[..40];
        let scaled = |k: f64| base.iter().map(|l| l * k).collect::<Vec<_>>();
        let mut hostile = vec![scaled(1e-300), scaled(1e200), vec![-0.0; 40]];
        for (value, at) in [
            (f64::NAN, 5),
            (f64::INFINITY, 7),
            (f64::NEG_INFINITY, 9),
            (-0.3, 4),
            (-1e-12, 20),
            (-0.0, 6),
        ] {
            let mut h = base.to_vec();
            h[at] = value;
            hostile.push(h);
        }
        for (i, history) in hostile.iter().enumerate() {
            assert_prefixes_match_exhaustive(initial, history, 3..=40, &format!("hostile {i}"));
        }
    }

    #[test]
    fn grown_sums_equal_a_one_pass_build() {
        let (initial, history) = long_noisy_run();
        let mut grown = GridSums::of(&history[..96]);
        grown.push(history[96]);
        let fresh = GridSums::of(&history[..97]);
        assert_eq!(grown.n, fresh.n);
        assert_eq!(grown.l.to_bits(), fresh.l.to_bits());
        assert_eq!(grown.l2.to_bits(), fresh.l2.to_bits());
        for (a, b) in [
            (grown.g, fresh.g),
            (grown.g2, fresh.g2),
            (grown.gl, fresh.gl),
        ] {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
        // A grid rate summed on its own gives the grid's bound.
        let alone = fresh.bound_at(initial, rate_grid()[7], &history[..97]);
        assert_eq!(
            alone.at(0.5).to_bits(),
            fresh.bounds(initial)[7].at(0.5).to_bits()
        );
    }

    #[test]
    fn closed_form_less_margin_never_exceeds_the_exact_sse() {
        // The filter's soundness: at every grid cell and at random
        // (floor, rate) pairs, on grid and off it, the lower bound is at
        // most the SSE `sse` sums, and so is its minimum over the floor
        // range.
        let (initial, noisy) = long_noisy_run();
        let cases = [
            (initial, noisy.clone()),
            (initial, noisy.iter().map(|l| l * 1e-300).collect()),
            (initial, noisy.iter().map(|l| l * 1e100).collect()),
            (2.3, exact_history(2.3, 0.0, rate_grid()[20], 600)),
            (2.3, exact_history(2.3, 0.15, 0.8, 600)),
            (0.8, vec![0.8; 600]),
            (1.0, vec![0.0; 600]),
        ];
        let mut rng = SimRng::new(7);
        for (case, (initial, history)) in cases.iter().enumerate() {
            for n in [3, 4, 7, 20, 75, 600] {
                let h = &history[..n];
                let sums = GridSums::of(h);
                let cap = floor_cap(h);
                let grid = sums.bounds(*initial);
                let check = |floor: f64, rate: f64, lb: LowerBound| {
                    let sse = FittedCurve {
                        initial: *initial,
                        floor,
                        rate,
                    }
                    .sse(h);
                    let what = format!("case {case} n {n} floor {floor:e} rate {rate:e}");
                    assert!(lb.at(floor) <= sse, "{what}: {} > {sse}", lb.at(floor));
                    if floor <= cap {
                        assert!(
                            lb.min_over(cap) <= sse,
                            "{what}: column min {}",
                            lb.min_over(cap)
                        );
                    }
                };
                for (ri, &rate) in rate_grid().iter().enumerate() {
                    for fi in 0..=32 {
                        check(cap * f64::from(fi) / 32.0, rate, grid[ri]);
                    }
                }
                for _ in 0..200 {
                    let floor = cap * rng.uniform_range(0.0, 1.5);
                    let rate = 10f64.powf(rng.uniform_range(-6.0, 4.0));
                    check(floor, rate, sums.bound_at(*initial, rate, h));
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
