//! The adaptive resource scheduler (Algorithm 2).
//!
//! The scheduler starts from the offline estimate (Lines 2–7), refits the
//! loss curve after every epoch (Line 8), deducts the epoch's cost from
//! the budget (Line 9), and re-predicts the total epochs to the target
//! (Line 10). When the prediction drifts by more than `δ` relative to the
//! last accepted prediction (Line 11), it re-selects the best allocation
//! from the candidate set under the *remaining* budget (or QoS slack) and
//! the *remaining* epochs (Lines 12–13).
//!
//! `δ` trades responsiveness against restart churn (Fig. 21c): small
//! values restart functions on every noise wiggle; large values respond
//! too late. The paper defaults to `δ = 0.1`.

use crate::predict::OnlinePredictor;
use ce_models::Allocation;
use ce_obs::{Counter, Registry};
use ce_pareto::{AllocPoint, Profile};
use std::collections::HashMap;

/// The training objective (Eq. 13–16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrainingObjective {
    /// Minimize JCT subject to a budget (Eq. 13–14).
    MinJctGivenBudget {
        /// Budget `b_c` in dollars.
        budget: f64,
    },
    /// Minimize cost subject to a QoS deadline (Eq. 15–16).
    MinCostGivenQos {
        /// Deadline `τ` in seconds.
        qos_s: f64,
    },
}

/// Scheduler tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Relative prediction-drift threshold `δ` that triggers resource
    /// adjustment (paper default 0.1).
    pub delta: f64,
    /// Whether to hide adjustment behind the delayed restart (Fig. 8).
    pub delayed_restart: bool,
    /// Whether to search only the Pareto boundary (`false` = the WO-pa
    /// ablation of Fig. 21b).
    pub use_pareto: bool,
    /// Epochs of history required before online predictions are acted
    /// on (very early fits are dominated by noise).
    pub min_history: u32,
    /// Fraction of the remaining budget/deadline the selection may
    /// commit; the slack absorbs stragglers, cold starts, and restart
    /// billing so the constraint holds on *measured* totals.
    pub safety_margin: f64,
    /// Cap on how far an online prediction may exceed the initial
    /// estimate (guards against transient fit explosions when the fitted
    /// floor grazes the target).
    pub max_prediction_blowup: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            delta: 0.1,
            delayed_restart: true,
            use_pareto: true,
            min_history: 5,
            safety_margin: 0.9,
            max_prediction_blowup: 4.0,
        }
    }
}

/// The scheduler's verdict after an epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Keep the current allocation.
    Keep,
    /// Switch to a new allocation (restart functions).
    Switch {
        /// The allocation to switch to.
        to: Allocation,
    },
}

/// Work counters for the Fig. 21b/21c overhead analysis.
///
/// The scheduler's own counts. The `ce-obs` counters
/// `scheduler.evaluations` / `scheduler.adjustments` /
/// `scheduler.triggers` only mirror them: a registry shared with other
/// schedulers aggregates everyone's work, so nothing simulated is ever
/// read back from it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedulerStats {
    /// Allocation candidates evaluated across all selections.
    pub evaluations: u64,
    /// Resource adjustments (function restarts) triggered.
    pub adjustments: u32,
    /// δ-drift events that caused a re-selection (whether or not the
    /// selected allocation changed).
    pub triggers: u32,
}

/// The Algorithm 2 scheduler.
#[derive(Debug)]
pub struct AdaptiveScheduler {
    candidates: Vec<AllocPoint>,
    objective: TrainingObjective,
    target_loss: f64,
    config: SchedulerConfig,
    predictor: OnlinePredictor,
    /// Latest accepted total-epoch prediction `e` (0 before the offline
    /// estimate, per Algorithm 2's initialization).
    accepted_prediction: f64,
    /// The offline estimate used at initialization (anchor for the
    /// prediction-blowup guard).
    initial_estimate: f64,
    /// Last few raw online predictions; the scheduler acts on their
    /// median so a single-epoch fit spike cannot trigger a panic
    /// reallocation.
    recent_predictions: Vec<f64>,
    /// Dollars spent so far.
    spent: f64,
    /// Seconds elapsed so far.
    elapsed: f64,
    /// Epochs completed (`e'`).
    epochs_done: u32,
    current: Option<Allocation>,
    /// Memoized [`Self::select_best`] results keyed by the exact bits of
    /// `(remaining_epochs, r_eff)`. The selection is a pure function of
    /// that pair given the candidate set and objective (both fixed at
    /// construction), so hits are bit-identical to recomputation. Hits
    /// still charge `scheduler.evaluations` — the counter models decision
    /// *work requested*, and the derived scheduling overhead must not
    /// change with the cache.
    select_cache: HashMap<(u64, u64), Option<AllocPoint>>,
    /// This scheduler's work counts (the source of truth).
    stats: SchedulerStats,
    /// Observability sink; private by default, shareable via
    /// [`Self::bind_registry`]. Its counters mirror `stats`.
    obs: Registry,
    evaluations: Counter,
    adjustments: Counter,
    triggers: Counter,
}

impl Clone for AdaptiveScheduler {
    /// Clones into an *independent* scheduler: the work counts are
    /// mirrored into a fresh registry, so the clone's work does not feed
    /// back into the original's sink.
    fn clone(&self) -> Self {
        let obs = Registry::new();
        let (evaluations, adjustments, triggers) = Self::handles(&obs, &self.stats);
        AdaptiveScheduler {
            candidates: self.candidates.clone(),
            objective: self.objective,
            target_loss: self.target_loss,
            config: self.config,
            predictor: self.predictor.clone(),
            accepted_prediction: self.accepted_prediction,
            initial_estimate: self.initial_estimate,
            recent_predictions: self.recent_predictions.clone(),
            spent: self.spent,
            elapsed: self.elapsed,
            epochs_done: self.epochs_done,
            current: self.current,
            select_cache: self.select_cache.clone(),
            stats: self.stats,
            obs,
            evaluations,
            adjustments,
            triggers,
        }
    }
}

impl AdaptiveScheduler {
    /// Creates a scheduler over a profiled workload.
    ///
    /// `initial_loss` anchors the online fitter (the untrained model's
    /// loss, observable before training).
    pub fn new(
        profile: &Profile,
        objective: TrainingObjective,
        target_loss: f64,
        initial_loss: f64,
        config: SchedulerConfig,
    ) -> Self {
        let candidates = if config.use_pareto {
            profile.boundary().into_iter().copied().collect()
        } else {
            profile.points().to_vec()
        };
        let obs = Registry::new();
        let stats = SchedulerStats::default();
        let (evaluations, adjustments, triggers) = Self::handles(&obs, &stats);
        AdaptiveScheduler {
            candidates,
            objective,
            target_loss,
            config,
            predictor: OnlinePredictor::new(initial_loss),
            accepted_prediction: 0.0,
            initial_estimate: 0.0,
            recent_predictions: Vec::new(),
            spent: 0.0,
            elapsed: 0.0,
            epochs_done: 0,
            current: None,
            select_cache: HashMap::new(),
            stats,
            obs,
            evaluations,
            adjustments,
            triggers,
        }
    }

    /// The mirror counters in `registry`, credited with `stats`.
    fn handles(registry: &Registry, stats: &SchedulerStats) -> (Counter, Counter, Counter) {
        let evaluations = registry.counter("scheduler.evaluations");
        let adjustments = registry.counter("scheduler.adjustments");
        let triggers = registry.counter("scheduler.triggers");
        evaluations.add(stats.evaluations);
        adjustments.add(u64::from(stats.adjustments));
        triggers.add(u64::from(stats.triggers));
        (evaluations, adjustments, triggers)
    }

    /// Re-homes the mirror counters into `registry` (e.g. a job-wide or
    /// the process-global sink), crediting the counts accumulated so far.
    /// Counter names are shared, so the registry aggregates every
    /// scheduler bound to it; [`Self::stats`] stays this scheduler's own.
    pub fn bind_registry(&mut self, registry: &Registry) {
        self.obs = registry.clone();
        let (evaluations, adjustments, triggers) = Self::handles(registry, &self.stats);
        self.evaluations = evaluations;
        self.adjustments = adjustments;
        self.triggers = triggers;
    }

    /// The registry the work counters live in.
    pub fn registry(&self) -> &Registry {
        &self.obs
    }

    /// The target loss `σ*`.
    pub fn target_loss(&self) -> f64 {
        self.target_loss
    }

    /// This scheduler's work counts.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Latest accepted total-epoch prediction.
    pub fn predicted_total_epochs(&self) -> f64 {
        self.accepted_prediction
    }

    /// Whether the delayed-restart optimization is on.
    pub fn delayed_restart(&self) -> bool {
        self.config.delayed_restart
    }

    /// Algorithm 2 Lines 2–7: pick the initial allocation from the
    /// offline epoch estimate.
    pub fn initial_allocation(&mut self, offline_total_epochs: f64) -> Allocation {
        assert!(offline_total_epochs > 0.0);
        self.initial_estimate = offline_total_epochs;
        self.accepted_prediction = offline_total_epochs;
        let point = self
            .select_best(offline_total_epochs)
            .expect("candidate set not empty");
        self.current = Some(point.alloc);
        point.alloc
    }

    /// Algorithm 2 Lines 8–15: observe the epoch, refit, and decide.
    pub fn on_epoch_end(
        &mut self,
        observed_loss: f64,
        epoch_cost: f64,
        epoch_time_s: f64,
    ) -> Decision {
        self.predictor.observe(observed_loss);
        self.spent += epoch_cost;
        self.elapsed += epoch_time_s;
        self.epochs_done += 1;

        if self.predictor.epochs_observed() < self.config.min_history {
            return Decision::Keep;
        }
        let Some(prediction) = self.predictor.predict(self.target_loss) else {
            return Decision::Keep;
        };
        // Guard against transient fit explosions (a fitted floor that
        // grazes the target sends epochs_to toward infinity for an epoch
        // or two): cap relative to the initial estimate, and act on the
        // median of the last three raw predictions so one bad fit cannot
        // trigger a panic reallocation.
        let cap = if self.initial_estimate > 0.0 {
            self.config.max_prediction_blowup * self.initial_estimate
        } else {
            f64::INFINITY
        };
        self.recent_predictions.push(prediction.total_epochs);
        if self.recent_predictions.len() > 3 {
            self.recent_predictions.remove(0);
        }
        let mut sorted = self.recent_predictions.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let predicted_total = median.min(cap).max(f64::from(self.epochs_done));

        let drift = if self.accepted_prediction > 0.0 {
            (predicted_total - self.accepted_prediction).abs() / self.accepted_prediction
        } else {
            f64::INFINITY
        };
        if drift <= self.config.delta {
            return Decision::Keep;
        }
        self.accepted_prediction = predicted_total;
        self.stats.triggers = self.stats.triggers.saturating_add(1);
        self.triggers.inc();
        let remaining = (predicted_total - f64::from(self.epochs_done)).max(1.0);
        let Some(point) = self.select_best(remaining) else {
            return Decision::Keep;
        };
        let alloc = point.alloc;
        if Some(alloc) == self.current {
            return Decision::Keep;
        }
        self.current = Some(alloc);
        self.stats.adjustments = self.stats.adjustments.saturating_add(1);
        self.adjustments.inc();
        Decision::Switch { to: alloc }
    }

    /// Damage-limitation selection when no candidate satisfies the
    /// constraint outright: among candidates within
    /// `1 + FALLBACK_TOLERANCE` of the best constrained metric, minimize
    /// the cost × time product (the scale-free "knee"). The boundary's
    /// extreme tails trade the last few percent of one metric for orders
    /// of magnitude of the other — a scheduler that is going to miss its
    /// constraint anyway must not take that trade.
    const FALLBACK_TOLERANCE: f64 = 0.5;

    fn fallback<FC>(candidates: &[AllocPoint], constrained: FC) -> Option<AllocPoint>
    where
        FC: Fn(&AllocPoint) -> f64,
    {
        let best = candidates
            .iter()
            .map(&constrained)
            .fold(f64::INFINITY, f64::min);
        candidates
            .iter()
            .filter(|p| constrained(p) <= best * (1.0 + Self::FALLBACK_TOLERANCE))
            .min_by(|a, b| (a.cost_usd() * a.time_s()).total_cmp(&(b.cost_usd() * b.time_s())))
            .copied()
    }

    /// `select_best_allocation(b, P, e)`: the best candidate for
    /// `remaining_epochs` more epochs under the remaining budget or QoS
    /// slack. Falls back to [`Self::fallback`] when nothing fits.
    /// Steepness of the soft constraint penalty in [`Self::select_best`].
    const OVERRUN_PENALTY: f64 = 12.0;

    fn select_best(&mut self, remaining_epochs: f64) -> Option<AllocPoint> {
        // Charged before the memo lookup: the modeled decision cost is
        // per candidate *requested*, so `sched_overhead_s` downstream is
        // byte-identical with and without the cache.
        let requested = self.candidates.len() as u64;
        self.stats.evaluations += requested;
        self.evaluations.add(requested);
        // Scalarized selection: minimize the predicted remaining value of
        // the *objective* metric, multiplied by a steep soft penalty on
        // the projected overrun of the *constrained* metric (measured
        // against the safety-margin-reduced remainder, so mild stretches
        // still land inside the true constraint). A hard feasibility cut
        // behaves pathologically at the boundary's cost cliffs, where a
        // few percent of one metric buy an order of magnitude of the
        // other; the soft penalty takes those trades exactly when they
        // are lopsided enough.
        type Metric = fn(&AllocPoint) -> f64;
        let (objective_of, constrained_of, remaining): (Metric, Metric, f64) = match self.objective
        {
            TrainingObjective::MinJctGivenBudget { budget } => {
                (|p| p.time_s(), |p| p.cost_usd(), budget - self.spent)
            }
            TrainingObjective::MinCostGivenQos { qos_s } => {
                (|p| p.cost_usd(), |p| p.time_s(), qos_s - self.elapsed)
            }
        };
        let r_eff = remaining * self.config.safety_margin;
        let key = (remaining_epochs.to_bits(), r_eff.to_bits());
        if let Some(&hit) = self.select_cache.get(&key) {
            return hit;
        }
        let result = if r_eff <= 0.0 {
            // Already past the constraint: limit the damage.
            Self::fallback(&self.candidates, constrained_of)
        } else {
            self.candidates
                .iter()
                .min_by(|a, b| {
                    let score = |p: &AllocPoint| {
                        let projected = remaining_epochs * constrained_of(p);
                        let overrun = ((projected - r_eff) / r_eff).max(0.0);
                        remaining_epochs * objective_of(p) * (1.0 + Self::OVERRUN_PENALTY * overrun)
                    };
                    score(a).total_cmp(&score(b))
                })
                .copied()
        };
        self.select_cache.insert(key, result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_ml::curve::{CurveParams, LossCurve};
    use ce_ml::model::ModelFamily;
    use ce_models::{Environment, Workload};
    use ce_pareto::ParetoProfiler;
    use ce_sim_core::rng::SimRng;

    fn profile(w: &Workload) -> Profile {
        let env = Environment::aws_default();
        ParetoProfiler::new(&env).profile_workload(w)
    }

    fn scheduler(
        p: &Profile,
        objective: TrainingObjective,
        config: SchedulerConfig,
    ) -> AdaptiveScheduler {
        let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
        AdaptiveScheduler::new(p, objective, 0.2, params.initial, config)
    }

    /// Drives a scheduler through a simulated run, returning (epochs,
    /// restarts).
    fn drive(mut sched: AdaptiveScheduler, seed: u64) -> (u32, u32) {
        let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
        let mut run = LossCurve::sample_optimal(&params, SimRng::new(seed));
        sched.initial_allocation(40.0);
        let mut epochs = 0;
        for _ in 0..200 {
            let loss = run.next_epoch();
            epochs += 1;
            // Nominal epoch cost/time from the current allocation's
            // profile point would require a lookup; a fixed nominal value
            // suffices to exercise the control logic.
            sched.on_epoch_end(loss, 0.3, 30.0);
            if loss <= 0.2 {
                break;
            }
        }
        (epochs, sched.stats().adjustments)
    }

    #[test]
    fn initial_allocation_respects_budget() {
        let w = Workload::mobilenet_cifar10();
        let p = profile(&w);
        let budget = 50.0;
        let mut s = scheduler(
            &p,
            TrainingObjective::MinJctGivenBudget { budget },
            SchedulerConfig::default(),
        );
        let alloc = s.initial_allocation(40.0);
        let point = p
            .boundary()
            .into_iter()
            .find(|q| q.alloc == alloc)
            .expect("allocation from boundary");
        assert!(40.0 * point.cost_usd() <= budget);
    }

    #[test]
    fn tighter_budget_selects_cheaper_allocation() {
        let w = Workload::mobilenet_cifar10();
        let p = profile(&w);
        let pick = |budget: f64| {
            let mut s = scheduler(
                &p,
                TrainingObjective::MinJctGivenBudget { budget },
                SchedulerConfig::default(),
            );
            let alloc = s.initial_allocation(40.0);
            p.boundary()
                .into_iter()
                .find(|q| q.alloc == alloc)
                .unwrap()
                .cost_usd()
        };
        assert!(pick(15.0) <= pick(60.0));
    }

    #[test]
    fn qos_objective_selects_fast_enough_allocation() {
        let w = Workload::mobilenet_cifar10();
        let p = profile(&w);
        let qos = 40.0 * 60.0; // generous deadline
        let mut s = scheduler(
            &p,
            TrainingObjective::MinCostGivenQos { qos_s: qos },
            SchedulerConfig::default(),
        );
        let alloc = s.initial_allocation(40.0);
        let point = p.boundary().into_iter().find(|q| q.alloc == alloc).unwrap();
        assert!(40.0 * point.time_s() <= qos);
    }

    #[test]
    fn drift_below_delta_keeps_allocation() {
        let w = Workload::mobilenet_cifar10();
        let p = profile(&w);
        let mut s = scheduler(
            &p,
            TrainingObjective::MinJctGivenBudget { budget: 100.0 },
            SchedulerConfig {
                delta: f64::INFINITY, // never adjust
                ..SchedulerConfig::default()
            },
        );
        s.initial_allocation(40.0);
        let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
        let mut run = LossCurve::sample_optimal(&params, SimRng::new(1));
        for _ in 0..30 {
            let d = s.on_epoch_end(run.next_epoch(), 0.3, 30.0);
            assert_eq!(d, Decision::Keep);
        }
        assert_eq!(s.stats().adjustments, 0);
    }

    #[test]
    fn smaller_delta_triggers_more_reselections() {
        // Fig. 21c: δ = 0.01 reacts to prediction wiggles far more often
        // than δ = 0.2.
        let w = Workload::mobilenet_cifar10();
        let p = profile(&w);
        let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
        let triggers = |delta: f64| {
            let mut total = 0;
            for seed in 0..8 {
                let mut s = scheduler(
                    &p,
                    TrainingObjective::MinJctGivenBudget { budget: 100.0 },
                    SchedulerConfig {
                        delta,
                        ..SchedulerConfig::default()
                    },
                );
                let mut run = LossCurve::sample_optimal(&params, SimRng::new(seed));
                s.initial_allocation(40.0);
                for _ in 0..60 {
                    let loss = run.next_epoch();
                    s.on_epoch_end(loss, 0.3, 30.0);
                    if loss <= 0.2 {
                        break;
                    }
                }
                total += s.stats().triggers;
            }
            total
        };
        let many = triggers(0.01);
        let few = triggers(0.2);
        assert!(many > few, "δ=0.01 gave {many} triggers, δ=0.2 gave {few}");
    }

    #[test]
    fn wo_pareto_evaluates_more_candidates() {
        let w = Workload::mobilenet_cifar10();
        let p = profile(&w);
        let evals = |use_pareto: bool| {
            let mut s = scheduler(
                &p,
                TrainingObjective::MinJctGivenBudget { budget: 100.0 },
                SchedulerConfig {
                    use_pareto,
                    ..SchedulerConfig::default()
                },
            );
            s.initial_allocation(40.0);
            s.stats().evaluations
        };
        assert!(
            evals(false) > 3 * evals(true),
            "full {} vs pareto {}",
            evals(false),
            evals(true)
        );
    }

    #[test]
    fn hopeless_budget_avoids_pathological_tail() {
        // With a budget no allocation can meet, the selection must not
        // take the boundary's slow tail (orders of magnitude slower for
        // a few percent of savings); it lands near the cost×time knee.
        let w = Workload::mobilenet_cifar10();
        let p = profile(&w);
        let mut s = scheduler(
            &p,
            TrainingObjective::MinJctGivenBudget { budget: 1e-6 },
            SchedulerConfig::default(),
        );
        let alloc = s.initial_allocation(40.0);
        let chosen = p.boundary().into_iter().find(|q| q.alloc == alloc).unwrap();
        let cheapest = p.cheapest().unwrap();
        // Far faster than the pathological cheap tail...
        assert!(chosen.time_s() < cheapest.time_s() * 0.5);
        // ...at a bounded damage product.
        let best_product = p
            .boundary()
            .into_iter()
            .map(|q| q.cost_usd() * q.time_s())
            .fold(f64::INFINITY, f64::min);
        assert!(chosen.cost_usd() * chosen.time_s() <= best_product * 1.6);
    }

    #[test]
    fn adjustment_uses_remaining_epochs_not_total() {
        // After most epochs are done, even a tight budget admits a fast
        // allocation because few epochs remain.
        let w = Workload::mobilenet_cifar10();
        let p = profile(&w);
        let mut s = scheduler(
            &p,
            TrainingObjective::MinJctGivenBudget { budget: 25.0 },
            SchedulerConfig {
                delta: 0.01,
                ..SchedulerConfig::default()
            },
        );
        let first = s.initial_allocation(60.0);
        let first_cost = p
            .boundary()
            .into_iter()
            .find(|q| q.alloc == first)
            .unwrap()
            .cost_usd();
        // Feed a fast-converging history: prediction falls sharply, so
        // the remaining budget buys a faster allocation.
        let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
        let mut switched_to_richer = false;
        let mut run = LossCurve::sample(&params, 1.0, SimRng::new(3));
        for _ in 0..25 {
            if let Decision::Switch { to } = s.on_epoch_end(run.next_epoch(), 0.05, 20.0) {
                let new_cost = p
                    .boundary()
                    .into_iter()
                    .find(|q| q.alloc == to)
                    .unwrap()
                    .cost_usd();
                if new_cost > first_cost {
                    switched_to_richer = true;
                }
            }
        }
        assert!(
            switched_to_richer,
            "scheduler never exploited the shrinking epoch estimate"
        );
    }

    #[test]
    fn select_memo_hits_still_charge_evaluations() {
        // Same selection key twice: the second call is a memo hit, must
        // return the same allocation, and must still count its candidate
        // evaluations (the modeled overhead may not shrink with caching).
        let w = Workload::mobilenet_cifar10();
        let p = profile(&w);
        let mut s = scheduler(
            &p,
            TrainingObjective::MinJctGivenBudget { budget: 100.0 },
            SchedulerConfig::default(),
        );
        let a = s.initial_allocation(40.0);
        let once = s.stats().evaluations;
        assert!(once > 0);
        let b = s.initial_allocation(40.0);
        assert_eq!(a, b);
        assert_eq!(s.stats().evaluations, 2 * once);
    }

    #[test]
    fn deterministic_under_same_inputs() {
        let w = Workload::mobilenet_cifar10();
        let p = profile(&w);
        let s = scheduler(
            &p,
            TrainingObjective::MinJctGivenBudget { budget: 100.0 },
            SchedulerConfig::default(),
        );
        assert_eq!(drive(s.clone(), 7), drive(s, 7));
    }
}
