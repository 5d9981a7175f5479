//! Job runners: execute tuning brackets and training jobs end-to-end.

use crate::metrics::{StageMetrics, TrainingReport, TuningReport};
use crate::recovery::{
    backoff_s, RecoveryPolicy, BACKOFF_BASE_S, BACKOFF_CAP_S, DEFAULT_CHECKPOINT_EVERY,
    MAX_RECOVERY_ATTEMPTS,
};
use crate::{Constraint, Method, WorkflowError, EVAL_COST_S, FIT_COST_S};
use ce_baselines::siren::SirenPolicy;
use ce_baselines::{CirrusScheduler, FixedScheduler, LambdaMlScheduler, SirenScheduler};
use ce_chaos::FaultSchedule;
use ce_faas::restart::plan_restart;
use ce_faas::{lost_wave_bill, EpochError, ExecutionFidelity, FaasPlatform, MeasuredEpoch};
use ce_ml::curve::{table4_target, CurveParams, LossCurve};
use ce_ml::HyperSpace;
use ce_models::{Allocation, AllocationSpace, Environment, Workload};
use ce_obs::Registry;
use ce_pareto::{ParetoProfiler, Profile};
use ce_sim_core::rng::SimRng;
use ce_storage::StorageKind;
use ce_training::predict::OfflinePredictor;
use ce_training::{AdaptiveScheduler, Decision, SchedulerConfig, TrainingObjective};
use ce_tuning::{CandidateSet, GreedyPlanner, Objective, PartitionPlan, PlannerConfig, ShaSpec};
use std::sync::Arc;

/// The allocation grid a method is allowed to search when the job does
/// not pin one: CE-scaling sees everything; LambdaML and Siren are
/// S3-based systems; Cirrus is VM-PS-based.
fn method_space(method: Method, base: &AllocationSpace) -> AllocationSpace {
    match method {
        Method::CeScaling | Method::Fixed => base.clone(),
        Method::LambdaMl | Method::Siren => base.clone().with_only_storage(StorageKind::S3),
        Method::Cirrus => base.clone().with_only_storage(StorageKind::VmPs),
    }
}

fn curve_for(w: &Workload) -> CurveParams {
    CurveParams::for_workload(w.model.family, &w.dataset.name)
}

/// Fraction of a budget the planner may commit; the slack absorbs
/// platform jitter so the *measured* total still meets the constraint.
const BUDGET_PLANNING_MARGIN: f64 = 0.97;
/// Fraction of a deadline the planner may commit; JCT jitter plus the
/// scheduling overhead charged into JCT need more headroom than cost.
const QOS_PLANNING_MARGIN: f64 = 0.92;

fn tuning_objective(constraint: Constraint) -> Objective {
    match constraint {
        Constraint::Budget(b) => Objective::MinJctGivenBudget {
            budget: b * BUDGET_PLANNING_MARGIN,
            qos_s: None,
        },
        Constraint::Deadline(t) => Objective::MinCostGivenQos {
            qos_s: t * QOS_PLANNING_MARGIN,
            budget: None,
        },
    }
}

fn training_objective(constraint: Constraint) -> TrainingObjective {
    match constraint {
        Constraint::Budget(b) => TrainingObjective::MinJctGivenBudget { budget: b },
        Constraint::Deadline(t) => TrainingObjective::MinCostGivenQos { qos_s: t },
    }
}

// ---------------------------------------------------------------------
// Hyperparameter tuning
// ---------------------------------------------------------------------

/// A hyperparameter-tuning bracket to run.
#[derive(Debug, Clone)]
pub struct TuningJob {
    /// The workload each trial trains.
    pub workload: Workload,
    /// The SHA bracket.
    pub sha: ShaSpec,
    /// Budget or deadline.
    pub constraint: Constraint,
    /// Base RNG seed; reports are deterministic per seed.
    pub seed: u64,
    /// The environment (storage catalog, prices, limits).
    pub env: Environment,
    /// Allocation grid override (used by the fixed-storage experiments);
    /// `None` applies each method's own default storage restriction.
    pub space: Option<AllocationSpace>,
    /// Hyperparameter space to search.
    pub hyper: HyperSpace,
    /// Fig. 21a ablation: when `false`, CE-scaling's planner searches the
    /// full grid instead of the Pareto boundary (WO-pa).
    pub use_pareto: bool,
    /// When `true`, the report carries a full execution timeline.
    pub capture_trace: bool,
    /// Metrics/event sink. Defaults to a private registry; bind a shared
    /// one with [`Self::with_obs`].
    pub obs: Registry,
}

impl TuningJob {
    /// Creates a job with the default environment and seed.
    pub fn new(workload: Workload, sha: ShaSpec, constraint: Constraint) -> Self {
        TuningJob {
            workload,
            sha,
            constraint,
            seed: 42,
            env: Environment::aws_default(),
            space: None,
            hyper: HyperSpace::default(),
            use_pareto: true,
            capture_trace: false,
            obs: Registry::new(),
        }
    }

    /// Captures a full execution timeline into the report.
    pub fn with_trace(mut self) -> Self {
        self.capture_trace = true;
        self
    }

    /// Routes metrics and events into `registry` instead of the private
    /// default.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.obs = registry.clone();
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the allocation grid (e.g. to one storage service).
    pub fn with_space(mut self, space: AllocationSpace) -> Self {
        self.space = Some(space);
        self
    }

    /// Disables CE-scaling's Pareto pruning (the WO-pa ablation).
    pub fn without_pareto(mut self) -> Self {
        self.use_pareto = false;
        self
    }

    fn profile_for(&self, method: Method) -> Arc<Profile> {
        let space = self
            .space
            .clone()
            .unwrap_or_else(|| method_space(method, &AllocationSpace::aws_default()));
        ParetoProfiler::new(&self.env)
            .with_space(space)
            .profile_workload_cached(&self.workload)
    }

    /// Produces the partitioning plan a method would use, plus the
    /// scheduling overhead (seconds) and evaluation count of planning.
    ///
    /// When the constraint is infeasible for the method (e.g. an
    /// S3-pinned baseline facing a deadline only low-latency storage can
    /// meet), the method runs its *best-effort* plan — fastest under a
    /// deadline, cheapest under a budget — and the run's report flags the
    /// resulting violation.
    pub fn plan_for(&self, method: Method) -> Result<(PartitionPlan, f64, u64), WorkflowError> {
        match self.plan_for_objective(method, tuning_objective(self.constraint)) {
            Ok(ok) => Ok(ok),
            Err(WorkflowError::Infeasible(_)) => {
                let best_effort = match self.constraint {
                    Constraint::Budget(_) => Objective::MinCostGivenQos {
                        qos_s: f64::INFINITY,
                        budget: None,
                    },
                    Constraint::Deadline(_) => Objective::MinJctGivenBudget {
                        budget: f64::INFINITY,
                        qos_s: None,
                    },
                };
                self.plan_for_objective(method, best_effort)
            }
            Err(e) => Err(e),
        }
    }

    fn plan_for_objective(
        &self,
        method: Method,
        objective: Objective,
    ) -> Result<(PartitionPlan, f64, u64), WorkflowError> {
        let profile = self.profile_for(method);
        let quota = self.env.max_concurrency;
        match method {
            Method::CeScaling => {
                let planner = GreedyPlanner::new(&profile, self.sha, quota)
                    .with_registry(&self.obs)
                    .with_config(PlannerConfig {
                        candidates: if self.use_pareto {
                            CandidateSet::ParetoBoundary
                        } else {
                            CandidateSet::FullSpace
                        },
                        ..PlannerConfig::default()
                    });
                let (plan, _static, stats) = planner
                    .plan(objective)
                    .map_err(|e| WorkflowError::Infeasible(e.to_string()))?;
                Ok((
                    plan,
                    stats.evaluations as f64 * EVAL_COST_S,
                    stats.evaluations,
                ))
            }
            Method::LambdaMl => {
                let plan = LambdaMlScheduler::new()
                    .tuning_plan(&profile, self.sha, objective, quota)
                    .map_err(|e| WorkflowError::Infeasible(e.to_string()))?;
                let evals = profile.points().len() as u64;
                self.obs.counter("planner.evaluations").add(evals);
                Ok((plan, evals as f64 * EVAL_COST_S, evals))
            }
            Method::Cirrus => {
                let plan = CirrusScheduler::new()
                    .tuning_plan(&profile, self.sha, objective, quota)
                    .map_err(|e| WorkflowError::Infeasible(e.to_string()))?;
                let evals = profile.points().len() as u64;
                self.obs.counter("planner.evaluations").add(evals);
                Ok((plan, evals as f64 * EVAL_COST_S, evals))
            }
            Method::Siren => {
                let plan = SirenScheduler::new()
                    .tuning_plan(&profile, self.sha, objective, quota)
                    .ok_or_else(|| WorkflowError::Infeasible("empty profile".into()))?;
                let evals = (profile.boundary().len() * self.sha.num_stages()) as u64;
                self.obs.counter("planner.evaluations").add(evals);
                Ok((plan, evals as f64 * EVAL_COST_S, evals))
            }
            Method::Fixed => {
                let plan = FixedScheduler::new()
                    .tuning_plan(&profile, self.sha, objective, quota)
                    .ok_or_else(|| WorkflowError::Infeasible("empty profile".into()))?;
                let evals = (profile.points().len() * self.sha.num_stages()) as u64;
                self.obs.counter("planner.evaluations").add(evals);
                Ok((plan, evals as f64 * EVAL_COST_S, evals))
            }
        }
    }

    /// Runs the bracket under `method`, sampling the configurations from
    /// the job's hyperparameter space.
    pub fn run(&self, method: Method) -> Result<TuningReport, WorkflowError> {
        let rng = SimRng::new(self.seed).derive("tuning");
        let mut config_rng = rng.derive("configs");
        let configs = self
            .hyper
            .sample_many(self.sha.initial_trials as usize, &mut config_rng);
        let (plan, sched_overhead_s, planner_evaluations) = self.plan_for(method)?;
        // The timeline is always captured: it feeds the observability
        // sink; the report only carries it when `capture_trace` is set.
        let mut trace = crate::trace::Trace::new();
        trace.push(
            sched_overhead_s,
            crate::trace::TraceKind::Planned {
                evaluations: planner_evaluations,
                initial: plan.stages[0].alloc,
            },
        );
        let curve = curve_for(&self.workload);

        // Attach a stochastic convergence realization to each trial.
        let mut outcomes: Vec<crate::metrics::TrialOutcome> = configs
            .iter()
            .map(|cfg| crate::metrics::TrialOutcome {
                config: *cfg,
                final_loss: f64::INFINITY,
                stages_survived: 0,
            })
            .collect();
        let mut trials: Vec<(usize, LossCurve)> = configs
            .iter()
            .enumerate()
            .map(|(i, cfg)| {
                let quality = self.hyper.quality(cfg);
                let trial_rng = rng.derive_idx("trial", i as u64);
                (i, LossCurve::sample(&curve, quality, trial_rng))
            })
            .collect();

        let mut jitter_rng = rng.derive("stage-jitter");
        let mut stages = Vec::with_capacity(self.sha.num_stages());
        let mut total_cost = 0.0;
        let mut total_jct = sched_overhead_s;
        for stage in 0..self.sha.num_stages() {
            let q = self.sha.trials_in_stage(stage);
            debug_assert_eq!(trials.len(), q as usize);
            // Advance every live trial by r epochs.
            let mut losses = Vec::with_capacity(trials.len());
            for (cfg_idx, curve) in trials.iter_mut() {
                let mut last = f64::INFINITY;
                for _ in 0..self.sha.epochs_per_stage {
                    last = curve.next_epoch();
                }
                losses.push(last);
                outcomes[*cfg_idx].final_loss = last;
                outcomes[*cfg_idx].stages_survived = stage as u32 + 1;
            }
            // Stage wall/cost from the plan's estimates plus platform
            // jitter.
            let stage_jct =
                plan.stage_jct(stage, self.env.max_concurrency) * jitter_rng.lognormal_jitter(0.03);
            let stage_cost = plan.stage_cost(stage) * jitter_rng.lognormal_jitter(0.02);
            total_jct += stage_jct;
            total_cost += stage_cost;
            trace.push(
                total_jct,
                crate::trace::TraceKind::Stage {
                    stage,
                    trials: q,
                    jct_s: stage_jct,
                    cost_usd: stage_cost,
                },
            );
            stages.push(StageMetrics {
                stage,
                trials: q,
                alloc: plan.stages[stage].alloc,
                jct_s: stage_jct,
                cost_usd: stage_cost,
            });
            // Terminate the bottom performers.
            let survivors =
                ShaSpec::select_survivors(&losses, self.sha.survivors_of_stage(stage) as usize);
            if stage + 1 < self.sha.num_stages() {
                trials = survivors.into_iter().map(|i| trials[i].clone()).collect();
            } else {
                // Bracket done: the winner is the best of the last stage.
                let best = survivors[0];
                let (config_idx, curve) = &trials[best];
                let (budget_violated, qos_violated) = match self.constraint {
                    Constraint::Budget(b) => (total_cost > b, false),
                    Constraint::Deadline(t) => (false, total_jct > t),
                };
                let best_loss = curve.last_loss().expect("ran at least one epoch");
                trace.push(total_jct, crate::trace::TraceKind::Done { loss: best_loss });
                trace.replay_into(&self.obs);
                self.obs.counter("tuning.stages").add(stages.len() as u64);
                self.obs
                    .counter("tuning.trials")
                    .add(u64::from(self.sha.initial_trials));
                self.obs.gauge("tuning.jct_s").add(total_jct);
                self.obs.gauge("tuning.cost_usd").add(total_cost);
                self.obs
                    .gauge("tuning.sched_overhead_s")
                    .add(sched_overhead_s);
                return Ok(TuningReport {
                    jct_s: total_jct,
                    cost_usd: total_cost,
                    sched_overhead_s,
                    stages,
                    best_config: configs[*config_idx],
                    best_loss,
                    budget_violated,
                    qos_violated,
                    planner_evaluations,
                    trials: outcomes,
                    trace: self.capture_trace.then_some(trace),
                });
            }
        }
        unreachable!("bracket always has at least one stage")
    }
}

// ---------------------------------------------------------------------
// Model training
// ---------------------------------------------------------------------

/// A model-training job to run.
#[derive(Debug, Clone)]
pub struct TrainingJob {
    /// The workload to train.
    pub workload: Workload,
    /// Budget or deadline.
    pub constraint: Constraint,
    /// Base RNG seed.
    pub seed: u64,
    /// The environment.
    pub env: Environment,
    /// Allocation grid override (fixed-storage experiments).
    pub space: Option<AllocationSpace>,
    /// Target loss; defaults to the Table IV value for the workload.
    pub target_loss: f64,
    /// Prediction-drift threshold `δ` for CE-scaling (paper default 0.1).
    pub delta: f64,
    /// Safety cap on epochs before declaring non-convergence.
    pub max_epochs: u32,
    /// Fig. 21b ablation: when `false`, CE-scaling's scheduler searches
    /// the full grid (WO-pa).
    pub use_pareto: bool,
    /// Fig. 21b ablation: when `false`, CE-scaling restarts eagerly
    /// (WO-dr).
    pub delayed_restart: bool,
    /// Platform stochastic behaviour (jitter magnitudes, failure
    /// injection).
    pub platform: ce_faas::PlatformConfig,
    /// When `true`, the report carries a full execution timeline.
    pub capture_trace: bool,
    /// Metrics/event sink. Defaults to a private registry; bind a shared
    /// one with [`Self::with_obs`].
    pub obs: Registry,
    /// Deterministic fault schedule injected into the platform
    /// (see [`ce_chaos`]). `None` runs clean.
    pub chaos: Option<FaultSchedule>,
    /// What the job does when the platform loses its workers.
    pub recovery: RecoveryPolicy,
    /// Snapshot interval (epochs) for checkpointing policies; `None`
    /// resolves to [`DEFAULT_CHECKPOINT_EVERY`] when the policy
    /// checkpoints, and to no checkpoints otherwise.
    pub checkpoint_every: Option<u32>,
}

impl TrainingJob {
    /// Creates a job with Table IV defaults.
    pub fn new(workload: Workload, constraint: Constraint) -> Self {
        let target_loss = table4_target(workload.model.family, &workload.dataset.name);
        TrainingJob {
            workload,
            constraint,
            seed: 42,
            env: Environment::aws_default(),
            space: None,
            target_loss,
            delta: 0.1,
            max_epochs: 600,
            use_pareto: true,
            delayed_restart: true,
            platform: ce_faas::PlatformConfig::default(),
            capture_trace: false,
            obs: Registry::new(),
            chaos: None,
            recovery: RecoveryPolicy::Retry,
            checkpoint_every: None,
        }
    }

    /// Injects a deterministic fault schedule into the platform.
    pub fn with_chaos(mut self, schedule: FaultSchedule) -> Self {
        self.chaos = Some(schedule);
        self
    }

    /// Selects the recovery policy for platform faults.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Overrides the checkpoint interval (epochs between snapshots).
    pub fn with_checkpoint_every(mut self, epochs: u32) -> Self {
        assert!(epochs > 0, "checkpoint interval must be positive");
        self.checkpoint_every = Some(epochs);
        self
    }

    /// Captures a full execution timeline into the report.
    pub fn with_trace(mut self) -> Self {
        self.capture_trace = true;
        self
    }

    /// Routes metrics and events into `registry` instead of the private
    /// default.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.obs = registry.clone();
        self
    }

    /// Disables CE-scaling's Pareto pruning (the WO-pa ablation).
    pub fn without_pareto(mut self) -> Self {
        self.use_pareto = false;
        self
    }

    /// Overrides the platform's stochastic behaviour (e.g. to inject
    /// worker failures).
    pub fn with_platform_config(mut self, platform: ce_faas::PlatformConfig) -> Self {
        self.platform = platform;
        self
    }

    /// Disables the delayed restart (the WO-dr ablation).
    pub fn without_delayed_restart(mut self) -> Self {
        self.delayed_restart = false;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the allocation grid.
    pub fn with_space(mut self, space: AllocationSpace) -> Self {
        self.space = Some(space);
        self
    }

    /// Overrides `δ` (used by the Fig. 21c sweep).
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    fn profile_for(&self, method: Method) -> Arc<Profile> {
        let space = self
            .space
            .clone()
            .unwrap_or_else(|| method_space(method, &AllocationSpace::aws_default()));
        ParetoProfiler::new(&self.env)
            .with_space(space)
            .profile_workload_cached(&self.workload)
    }

    /// Runs the job under `method`. `Method::Fixed` is not a training
    /// method (the paper compares CE, Siren, and modified Cirrus;
    /// LambdaML is supported to demonstrate its constraint violations).
    ///
    /// Equivalent to stepping a [`TrainingExecution`] to completion: the
    /// job runs alone, so every epoch follows the previous one
    /// back-to-back. Fleet schedulers drive the execution directly to
    /// interleave many jobs in simulated time.
    pub fn run(&self, method: Method) -> Result<TrainingReport, WorkflowError> {
        let mut exec = TrainingExecution::start(self.clone(), method)?;
        while !exec.is_done() {
            exec.step_epoch()?;
        }
        exec.finish()
    }

    /// Runs `epochs` epochs under a *fixed* allocation at the requested
    /// fidelity — the measurement primitive of the model-validation
    /// experiments (Figs. 19–20).
    pub fn run_fixed_allocation(
        &self,
        alloc: Allocation,
        epochs: u32,
        fidelity: ExecutionFidelity,
    ) -> TrainingReport {
        let mut platform = FaasPlatform::with_config(self.env.clone(), self.platform, self.seed)
            .with_registry(&self.obs);
        let mut report = TrainingReport {
            jct_s: 0.0,
            cost_usd: 0.0,
            epochs,
            restarts: 0,
            comm_s: 0.0,
            storage_cost_usd: 0.0,
            sched_overhead_s: 0.0,
            final_loss: f64::NAN,
            budget_violated: false,
            qos_violated: false,
            allocations: vec![alloc],
            trace: None,
        };
        // Pre-warm: validation compares steady-state epochs against the
        // analytical model, which has no cold-start term.
        platform.prewarm(alloc.n, alloc.memory_mb);
        for done in 0..epochs {
            // A rejected wave (allocation over the concurrency limit)
            // truncates the measurement instead of panicking.
            let Ok(m) = platform.run_epoch(&self.workload, &alloc, fidelity) else {
                report.epochs = done;
                break;
            };
            report.jct_s += m.wall_s;
            report.cost_usd += m.cost.total();
            report.comm_s += m.time.sync_s;
            report.storage_cost_usd += m.cost.storage();
        }
        report
    }
}

// ---------------------------------------------------------------------
// Stepwise training execution
// ---------------------------------------------------------------------

/// One epoch's outcome, as seen by whoever is stepping the execution.
#[derive(Debug, Clone, Copy)]
pub struct EpochStep {
    /// 1-based index of the epoch that just ran.
    pub epoch: u32,
    /// Loss after this epoch.
    pub loss: f64,
    /// Wall-clock seconds this epoch occupied the platform.
    pub wall_s: f64,
    /// Seconds of the wall spent synchronizing through storage.
    pub sync_s: f64,
    /// Functions that cold-started in this wave.
    pub cold_starts: u32,
    /// Dollars this epoch billed (excluding any restart pre-warm, which
    /// lands in the report's running total).
    pub cost_usd: f64,
    /// Workers this epoch's wave occupied (the current allocation's `n`;
    /// what a fleet scheduler reserves from the shared quota).
    pub workers: u32,
    /// Whether this epoch reached the target loss.
    pub converged: bool,
}

/// A training job in flight: the epoch loop of [`TrainingJob::run`],
/// exposed one epoch at a time so a fleet scheduler can interleave many
/// jobs in simulated time, inject contention between their epochs, and
/// decide when each gets quota.
///
/// Stepping an execution to completion and calling [`Self::finish`]
/// produces exactly the report [`TrainingJob::run`] would: all RNG
/// streams are derived per-epoch, so splitting the loop does not shift
/// them.
pub struct TrainingExecution {
    job: TrainingJob,
    method: Method,
    platform: FaasPlatform,
    run: LossCurve,
    mean_estimate: f64,
    ce_sched: Option<AdaptiveScheduler>,
    siren_policy: Option<SirenPolicy>,
    alloc: Allocation,
    report: TrainingReport,
    trace: crate::trace::Trace,
    restart_exposed_s: f64,
    converged: bool,
    /// Resolved snapshot interval; `None` disables checkpointing.
    checkpoint_every: Option<u32>,
    /// Latest durable snapshot: (progress epoch, loss-curve state).
    checkpoint: Option<(u32, LossCurve)>,
    /// Epoch-0 state, for restart-from-scratch recovery.
    genesis: LossCurve,
    /// Consecutive failed recovery attempts (reset on a successful epoch).
    fault_attempts: u32,
}

impl TrainingExecution {
    /// Plans the job (profiling, offline estimate, method controller,
    /// initial allocation) without running any epoch.
    ///
    /// # Errors
    /// [`WorkflowError::Infeasible`] when the method has no allocation or
    /// the target loss is unreachable.
    ///
    /// # Panics
    /// Panics when `method` is [`Method::Fixed`] (a tuning-only method).
    pub fn start(job: TrainingJob, method: Method) -> Result<TrainingExecution, WorkflowError> {
        assert!(method != Method::Fixed, "Fixed is a tuning-only method");
        let profile = job.profile_for(method);
        if profile.points().is_empty() {
            return Err(WorkflowError::Infeasible("empty profile".into()));
        }
        let objective = training_objective(job.constraint);
        let curve = curve_for(&job.workload);
        let rng = SimRng::new(job.seed).derive("training");
        let mut platform = FaasPlatform::with_config(job.env.clone(), job.platform, job.seed)
            .with_registry(&job.obs);
        if let Some(schedule) = &job.chaos {
            platform = platform.with_chaos(schedule);
        }
        let run = LossCurve::sample_optimal(&curve, rng.derive("run"));

        // Offline estimate (used by every method for its initial sizing).
        let mut offline_rng = rng.derive("offline");
        let offline_estimate = OfflinePredictor::new(curve)
            .predict(job.target_loss, &mut offline_rng)
            .map(|p| p.total_epochs)
            .or_else(|| curve.mean_epochs_to(job.target_loss))
            .ok_or_else(|| WorkflowError::Infeasible("target below loss floor".into()))?
            .max(1.0);
        let mean_estimate = curve
            .mean_epochs_to(job.target_loss)
            .unwrap_or(offline_estimate);

        // Method-specific controllers.
        let mut ce_sched = match method {
            Method::CeScaling => Some(AdaptiveScheduler::new(
                &profile,
                objective,
                job.target_loss,
                curve.initial,
                SchedulerConfig {
                    delta: job.delta,
                    delayed_restart: job.delayed_restart,
                    use_pareto: job.use_pareto,
                    ..SchedulerConfig::default()
                },
            )),
            Method::Cirrus => Some(CirrusScheduler::new().online_training_scheduler(
                &profile,
                objective,
                job.target_loss,
                curve.initial,
            )),
            _ => None,
        };
        if let Some(s) = ce_sched.as_mut() {
            s.bind_registry(&job.obs);
        }
        let siren_policy = (method == Method::Siren).then(|| {
            SirenScheduler::new().train_policy(&profile, objective, mean_estimate, job.seed)
        });

        // Initial allocation.
        let alloc: Allocation = match method {
            Method::CeScaling | Method::Cirrus => ce_sched
                .as_mut()
                .expect("scheduler present")
                .initial_allocation(offline_estimate),
            Method::Siren => siren_policy.as_ref().expect("policy present").decide(0.0),
            Method::LambdaMl => {
                let (a, _est) = LambdaMlScheduler::new()
                    .training_allocation(
                        &profile,
                        objective,
                        &curve,
                        job.target_loss,
                        &mut rng.derive("lambdaml"),
                    )
                    .ok_or_else(|| WorkflowError::Infeasible("no allocation".into()))?;
                a
            }
            Method::Fixed => unreachable!(),
        };

        let report = TrainingReport {
            jct_s: 0.0,
            cost_usd: 0.0,
            epochs: 0,
            restarts: 0,
            comm_s: 0.0,
            storage_cost_usd: 0.0,
            sched_overhead_s: 0.0,
            final_loss: curve.initial,
            budget_violated: false,
            qos_violated: false,
            allocations: vec![alloc],
            trace: None,
        };
        // Always captured; feeds the sink, only reported on request.
        let mut trace = crate::trace::Trace::new();
        trace.push(
            0.0,
            crate::trace::TraceKind::Planned {
                evaluations: 0,
                initial: alloc,
            },
        );

        // Only checkpointing policies snapshot; Retry ignores the
        // interval (it always restarts from scratch).
        let checkpoint_every = job
            .recovery
            .uses_checkpoints()
            .then(|| job.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY));
        let genesis = run.clone();
        Ok(TrainingExecution {
            job,
            method,
            platform,
            run,
            mean_estimate,
            ce_sched,
            siren_policy,
            alloc,
            report,
            trace,
            restart_exposed_s: 0.0,
            converged: false,
            checkpoint_every,
            checkpoint: None,
            genesis,
            fault_attempts: 0,
        })
    }

    /// Runs one epoch: simulate the wave, advance the loss curve, and —
    /// unless the epoch converged — let the method's controller adjust
    /// the allocation.
    ///
    /// Platform faults (worker loss, throttling, storage outages — see
    /// [`ce_chaos`]) are absorbed here according to the job's
    /// [`RecoveryPolicy`]: the execution stalls, rolls back, and retries
    /// until an epoch actually runs.
    ///
    /// # Errors
    /// [`WorkflowError::Quota`] when the platform's concurrency limit
    /// refuses the wave. The epoch did not run; the caller may
    /// retry once capacity frees up. [`WorkflowError::Unrecoverable`]
    /// when faults exhaust the recovery-attempt cap.
    ///
    /// # Panics
    /// Panics when called after the execution is done (converged or at
    /// the epoch cap).
    pub fn step_epoch(&mut self) -> Result<EpochStep, WorkflowError> {
        assert!(!self.is_done(), "stepping a finished execution");
        let measured: MeasuredEpoch = loop {
            match self
                .platform
                .run_epoch(&self.job.workload, &self.alloc, ExecutionFidelity::Fast)
            {
                Ok(m) => break m,
                Err(EpochError::Quota(q)) => return Err(WorkflowError::Quota(q)),
                Err(EpochError::UnknownStorage(e)) => {
                    return Err(WorkflowError::Infeasible(e.to_string()))
                }
                Err(fault) => self.recover(&fault)?,
            }
        };
        self.fault_attempts = 0;
        let workers = self.alloc.n;
        let loss = self.run.next_epoch();
        let report = &mut self.report;
        report.epochs += 1;
        report.jct_s += measured.wall_s;
        report.cost_usd += measured.cost.total();
        report.comm_s += measured.time.sync_s;
        report.storage_cost_usd += measured.cost.storage();
        report.final_loss = loss;
        self.trace.push(
            report.jct_s,
            crate::trace::TraceKind::Epoch {
                epoch: report.epochs,
                loss,
                wall_s: measured.wall_s,
                cost_usd: measured.cost.total(),
            },
        );
        let step = EpochStep {
            epoch: report.epochs,
            loss,
            wall_s: measured.wall_s,
            sync_s: measured.time.sync_s,
            cold_starts: measured.cold_starts,
            cost_usd: measured.cost.total(),
            workers,
            converged: loss <= self.job.target_loss,
        };
        if step.converged {
            self.converged = true;
            return Ok(step);
        }
        self.maybe_checkpoint();
        let report = &mut self.report;

        // Per-epoch scheduling decision.
        let next = match self.method {
            Method::CeScaling | Method::Cirrus => {
                let sched = self.ce_sched.as_mut().expect("scheduler present");
                report.sched_overhead_s += FIT_COST_S;
                let before = sched.stats().evaluations;
                let decision = sched.on_epoch_end(loss, measured.cost.total(), measured.wall_s);
                let evals = sched.stats().evaluations - before;
                report.sched_overhead_s += evals as f64 * EVAL_COST_S;
                match decision {
                    Decision::Keep => None,
                    Decision::Switch { to } => Some(to),
                }
            }
            Method::Siren => {
                // Siren re-decides every epoch from its policy.
                report.sched_overhead_s += FIT_COST_S;
                let progress =
                    f64::from(report.epochs) / self.mean_estimate.max(f64::from(report.epochs));
                let next = self
                    .siren_policy
                    .as_ref()
                    .expect("policy present")
                    .decide(progress);
                (next != self.alloc).then_some(next)
            }
            Method::LambdaMl => None,
            Method::Fixed => unreachable!(),
        };

        if let Some(to) = next {
            let delayed = match self.method {
                Method::CeScaling => self.job.delayed_restart,
                // Modified Cirrus and Siren restart eagerly.
                _ => false,
            };
            let restart = plan_restart(
                &self.job.env,
                &self.job.workload,
                &to,
                measured.wall_s,
                delayed,
            )
            .map_err(|e| WorkflowError::Infeasible(e.to_string()))?;
            self.restart_exposed_s += restart.exposed_overhead_s;
            // The new wave is billed while it warms up/overlaps.
            report.cost_usd +=
                self.job
                    .env
                    .pricing
                    .compute_cost(to.n, to.memory_mb, restart.prepare_s);
            self.platform.prewarm(to.n, to.memory_mb);
            report.restarts += 1;
            self.trace.push(
                report.jct_s + restart.exposed_overhead_s,
                crate::trace::TraceKind::Adjustment {
                    from: self.alloc,
                    to,
                    exposed_s: restart.exposed_overhead_s,
                },
            );
            report.allocations.push(to);
            self.alloc = to;
        }
        Ok(step)
    }

    /// The storage service snapshots persist to: the durable object
    /// store (S3) when the catalog has it — a snapshot must survive the
    /// wave that wrote it — otherwise the allocation's own service.
    fn durable_spec(&self) -> Option<&ce_storage::StorageSpec> {
        self.job
            .env
            .storage
            .get(StorageKind::S3)
            .or_else(|| self.job.env.storage.get(self.alloc.storage))
    }

    /// Snapshots the model to durable storage when the checkpoint
    /// interval comes due, paying the Table-I transfer time and request
    /// cost. The snapshot captures the loss-curve state so a later
    /// rollback replays the exact same training trajectory.
    fn maybe_checkpoint(&mut self) {
        let Some(k) = self.checkpoint_every else {
            return;
        };
        let progress = self.run.epochs_run();
        if progress == 0 || !progress.is_multiple_of(k) {
            return;
        }
        let Some(spec) = self.durable_spec() else {
            return;
        };
        let model_mb = self.job.workload.model.model_mb;
        let time_s = spec.transfer_time(model_mb);
        let put_usd = spec.pricing.put_cost(model_mb);
        let cost_usd = put_usd
            + self
                .job
                .env
                .pricing
                .compute_cost(self.alloc.n, self.alloc.memory_mb, time_s);
        self.checkpoint = Some((progress, self.run.clone()));
        let report = &mut self.report;
        report.jct_s += time_s;
        report.cost_usd += cost_usd;
        report.storage_cost_usd += put_usd;
        self.platform.advance(time_s);
        let obs = &self.job.obs;
        obs.counter("recovery.checkpoints").add(1);
        obs.gauge("recovery.checkpoint_s").add(time_s);
        obs.gauge("recovery.checkpoint_usd").add(cost_usd);
        self.trace.push(
            report.jct_s,
            crate::trace::TraceKind::Checkpoint {
                epoch: progress,
                time_s,
                cost_usd,
            },
        );
    }

    /// Absorbs one platform fault according to the job's recovery policy:
    /// charge whatever the fault wasted, roll back to the last durable
    /// snapshot (worker losses), stall for the deterministic backoff (or
    /// until the outage lifts), and optionally feed the damage into the
    /// scheduler so it can re-plan.
    fn recover(&mut self, fault: &EpochError) -> Result<(), WorkflowError> {
        self.fault_attempts += 1;
        if self.fault_attempts > MAX_RECOVERY_ATTEMPTS {
            return Err(WorkflowError::Unrecoverable {
                attempts: self.fault_attempts,
                what: fault.to_string(),
            });
        }
        let backoff = backoff_s(BACKOFF_BASE_S, self.fault_attempts, BACKOFF_CAP_S);
        let mut stall = backoff;
        let mut lost_epochs = 0;
        let mut damage_s = 0.0;
        let mut damage_usd = 0.0;
        match *fault {
            EpochError::Throttled { stall_s } => stall = stall.max(stall_s),
            EpochError::StorageUnavailable { resumes_at_s, .. } => {
                stall = stall.max(resumes_at_s - self.platform.now().as_secs());
            }
            EpochError::WorkerLost {
                wasted_s,
                wasted_usd,
                ..
            } => {
                let (lost, extra_s, extra_usd) = self.apply_worker_loss(wasted_s, wasted_usd);
                lost_epochs = lost;
                damage_s = wasted_s + extra_s;
                damage_usd = wasted_usd + extra_usd;
            }
            EpochError::Quota(_) | EpochError::UnknownStorage(_) => {
                unreachable!("fatal errors are handled by the step loop")
            }
        }
        if self.job.recovery == RecoveryPolicy::Replan {
            if let Some(sched) = self.ce_sched.as_mut() {
                // Report the fault to the scheduler as observed drift:
                // the wasted spend and the stall land on the epoch the
                // failure interrupted.
                let loss = self.report.final_loss;
                let decision = sched.on_epoch_end(loss, damage_usd, damage_s + stall);
                self.job.obs.counter("recovery.replans").add(1);
                if let Decision::Switch { to } = decision {
                    // The switch rides the stall: the pool is already
                    // cold, so no extra restart overhead is exposed.
                    self.report.allocations.push(to);
                    self.report.restarts += 1;
                    self.alloc = to;
                }
            }
        }
        self.back_off(stall, lost_epochs);
        self.trace.push(
            self.report.jct_s,
            crate::trace::TraceKind::Fault {
                what: fault.to_string(),
                stall_s: stall,
                lost_epochs,
            },
        );
        Ok(())
    }

    /// Charges a worker loss and rolls training back to the last durable
    /// snapshot (the latest checkpoint for checkpointing policies, epoch
    /// zero for [`RecoveryPolicy::Retry`]). Returns `(lost epochs,
    /// extra stall seconds, extra dollars)` beyond what the platform
    /// already billed for the interrupted wave.
    fn apply_worker_loss(&mut self, wasted_s: f64, wasted_usd: f64) -> (u32, f64, f64) {
        let progress = self.run.epochs_run();
        let (resume_epoch, restore_s, restore_usd) = match (self.job.recovery, &self.checkpoint) {
            (RecoveryPolicy::Retry, _) | (_, None) => {
                self.run = self.genesis.clone();
                (0, 0.0, 0.0)
            }
            (_, Some((at, snapshot))) => {
                let at = *at;
                self.run = snapshot.clone();
                // Resuming pulls the snapshot back from durable storage.
                let (s, usd) = match self.durable_spec() {
                    Some(spec) => {
                        let model_mb = self.job.workload.model.model_mb;
                        (
                            spec.transfer_time(model_mb),
                            spec.pricing.get_cost(model_mb),
                        )
                    }
                    None => (0.0, 0.0),
                };
                self.job.obs.counter("recovery.restores").add(1);
                (at, s, usd)
            }
        };
        let lost_epochs = progress.saturating_sub(resume_epoch);
        let report = &mut self.report;
        report.jct_s += wasted_s + restore_s;
        report.cost_usd += wasted_usd + restore_usd;
        report.storage_cost_usd += restore_usd;
        report.final_loss = self
            .run
            .last_loss()
            .unwrap_or(self.run.family_params().initial);
        self.platform.advance(restore_s);
        // The wave is gone: the next epoch cold-starts.
        self.platform.cool_down();
        (lost_epochs, restore_s, restore_usd)
    }

    /// Fleet-level worker loss: a chaos schedule running on the *fleet*
    /// clock killed this job's wave at `at_fraction` of an epoch. The
    /// job pays the partial epoch (estimated from the analytical time
    /// model), rolls back per its recovery policy, and backs off once.
    /// Returns the total extra seconds the job stalls — what a fleet
    /// scheduler delays the job's next dispatch by.
    pub fn inject_worker_loss(&mut self, at_fraction: f64) -> f64 {
        let job = &self.job;
        let at_fraction = at_fraction.clamp(0.0, 1.0);
        let (wasted_s, wasted_usd) =
            lost_wave_bill(&job.env, &job.workload, &self.alloc, at_fraction);
        let (lost_epochs, restore_s, _) = self.apply_worker_loss(wasted_s, wasted_usd);
        let stall = backoff_s(BACKOFF_BASE_S, 1, BACKOFF_CAP_S);
        self.back_off(stall, lost_epochs);
        wasted_s + restore_s + stall
    }

    /// The tail of every recovery: the run stalls for `stall` seconds of
    /// backoff, and the retry, its `lost_epochs` and the backoff are
    /// counted.
    fn back_off(&mut self, stall: f64, lost_epochs: u32) {
        self.report.jct_s += stall;
        self.platform.advance(stall);
        let obs = &self.job.obs;
        obs.counter("recovery.retries").add(1);
        if lost_epochs > 0 {
            obs.counter("recovery.lost_epochs")
                .add(u64::from(lost_epochs));
        }
        obs.gauge("recovery.backoff_s").add(stall);
    }

    /// Charges time another tenant's load added to this job's epoch
    /// (storage contention inflating sync, or queueing at the quota).
    /// The stall extends JCT and communication time and — because
    /// serverless bills wall time, barrier waits included — compute cost.
    pub fn charge_contention(&mut self, extra_s: f64) {
        if extra_s <= 0.0 {
            return;
        }
        self.report.jct_s += extra_s;
        self.report.comm_s += extra_s;
        self.report.cost_usd +=
            self.job
                .env
                .pricing
                .compute_cost(self.alloc.n, self.alloc.memory_mb, extra_s);
    }

    /// Drops the job's warm instances (a queue wait long enough for the
    /// platform's idle expiry to fire; the next wave cold-starts).
    pub fn cool_down(&mut self) {
        self.platform.cool_down();
    }

    /// Whether the execution has converged or exhausted its epoch cap.
    pub fn is_done(&self) -> bool {
        self.converged || self.report.epochs >= self.job.max_epochs
    }

    /// Whether the target loss has been reached.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Epochs run so far.
    pub fn epochs(&self) -> u32 {
        self.report.epochs
    }

    /// The allocation the *next* epoch will run under.
    pub fn alloc(&self) -> Allocation {
        self.alloc
    }

    /// The method driving allocation decisions.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The running report (totals so far; finalized by [`Self::finish`]).
    pub fn report(&self) -> &TrainingReport {
        &self.report
    }

    /// Finalizes the run: folds scheduling overhead into JCT, checks
    /// convergence and the constraint, replays the timeline into the
    /// job's observability sink, and emits the `training.*` summary.
    ///
    /// # Errors
    /// [`WorkflowError::DidNotConverge`] when the target loss was not
    /// reached.
    pub fn finish(self) -> Result<TrainingReport, WorkflowError> {
        self.finish_impl(true)
    }

    /// [`Self::finish`] without replaying the per-epoch timeline into
    /// the sink. Fleet schedulers use this: job-local event times are
    /// job-relative, which would interleave meaninglessly with the
    /// fleet's own simulated clock. The commutative `training.*`
    /// counters are still emitted.
    pub fn finish_quiet(self) -> Result<TrainingReport, WorkflowError> {
        self.finish_impl(false)
    }

    fn finish_impl(mut self, replay: bool) -> Result<TrainingReport, WorkflowError> {
        let report = &mut self.report;
        // Scheduling overhead (fits, selections, exposed restart time) is
        // part of JCT — the paper includes it in every reported JCT.
        report.sched_overhead_s += self.restart_exposed_s;
        report.jct_s += report.sched_overhead_s;

        if report.final_loss > self.job.target_loss {
            return Err(WorkflowError::DidNotConverge {
                epochs: report.epochs,
            });
        }
        match self.job.constraint {
            Constraint::Budget(b) => report.budget_violated = report.cost_usd > b,
            Constraint::Deadline(t) => report.qos_violated = report.jct_s > t,
        }
        self.trace.push(
            report.jct_s,
            crate::trace::TraceKind::Done {
                loss: report.final_loss,
            },
        );
        if replay {
            self.trace.replay_into(&self.job.obs);
        }
        self.job
            .obs
            .counter("training.epochs")
            .add(u64::from(report.epochs));
        self.job
            .obs
            .counter("training.restarts")
            .add(u64::from(report.restarts));
        self.job.obs.gauge("training.jct_s").add(report.jct_s);
        self.job.obs.gauge("training.cost_usd").add(report.cost_usd);
        self.job
            .obs
            .gauge("training.sched_overhead_s")
            .add(report.sched_overhead_s);
        let mut report = self.report;
        report.trace = self.job.capture_trace.then_some(self.trace);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuning_job(constraint: Constraint) -> TuningJob {
        TuningJob::new(Workload::lr_higgs(), ShaSpec::new(256, 2, 2), constraint)
    }

    /// A budget that gives the planner headroom: 3× the cheapest static.
    fn roomy_budget(job: &TuningJob) -> f64 {
        let profile = job.profile_for(Method::CeScaling);
        PartitionPlan::uniform(*profile.cheapest().unwrap(), job.sha).cost() * 3.0
    }

    #[test]
    fn ce_tuning_beats_all_baselines_on_jct() {
        let mut job = tuning_job(Constraint::Budget(1.0));
        let budget = roomy_budget(&job);
        job.constraint = Constraint::Budget(budget);
        let ce = job.run(Method::CeScaling).unwrap();
        assert!(!ce.budget_violated, "CE must respect the budget");
        for baseline in [Method::LambdaMl, Method::Siren, Method::Fixed] {
            let r = job.run(baseline).unwrap();
            assert!(
                ce.jct_s <= r.jct_s * 1.02,
                "{}: CE {} vs {}",
                baseline.label(),
                ce.jct_s,
                r.jct_s
            );
        }
    }

    #[test]
    fn fixed_is_the_worst_tuning_method_under_tight_budget() {
        // The paper's Fixed pathology — equal stage shares starve the
        // wide early stages — appears when the budget is tight and the
        // bracket is wide.
        let mut job = TuningJob::new(
            Workload::lr_higgs(),
            ShaSpec::new(1024, 2, 2),
            Constraint::Budget(1.0),
        );
        let profile = job.profile_for(Method::CeScaling);
        let budget = PartitionPlan::uniform(*profile.cheapest().unwrap(), job.sha).cost() * 1.3;
        job.constraint = Constraint::Budget(budget);
        let fixed = job.run(Method::Fixed).unwrap();
        let ce = job.run(Method::CeScaling).unwrap();
        assert!(
            fixed.jct_s > ce.jct_s * 1.5,
            "Fixed {} should be far worse than CE {}",
            fixed.jct_s,
            ce.jct_s
        );
        // Its first stage is the starved one.
        let s0 = &fixed.stages[0];
        let s_last = fixed.stages.last().unwrap();
        assert!(s0.cost_usd / f64::from(s0.trials) < s_last.cost_usd / f64::from(s_last.trials));
    }

    #[test]
    fn tuning_reports_are_deterministic() {
        let mut job = tuning_job(Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(roomy_budget(&job));
        let a = job.run(Method::CeScaling).unwrap();
        let b = job.run(Method::CeScaling).unwrap();
        assert_eq!(a.jct_s, b.jct_s);
        assert_eq!(a.cost_usd, b.cost_usd);
        assert_eq!(a.best_loss, b.best_loss);
    }

    #[test]
    fn tuning_winner_has_good_configuration() {
        let mut job = tuning_job(Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(roomy_budget(&job));
        let r = job.run(Method::CeScaling).unwrap();
        // SHA should find a configuration near the quality optimum.
        let quality = job.hyper.quality(&r.best_config);
        assert!(quality > 0.6, "winner quality only {quality:.2}");
    }

    #[test]
    fn qos_tuning_respects_deadline() {
        let mut job = tuning_job(Constraint::Budget(1.0));
        // Derive a deadline from a mid-range static plan.
        let profile = job.profile_for(Method::CeScaling);
        let fastest = PartitionPlan::uniform(*profile.fastest().unwrap(), job.sha);
        let tau = fastest.jct(job.env.max_concurrency) * 3.0;
        job.constraint = Constraint::Deadline(tau);
        let r = job.run(Method::CeScaling).unwrap();
        assert!(!r.qos_violated, "JCT {} vs deadline {tau}", r.jct_s);
    }

    fn training_job(w: Workload, constraint: Constraint) -> TrainingJob {
        TrainingJob::new(w, constraint).with_seed(7)
    }

    /// Budget sized from the CE profile: enough for ~1.5× the mean-epochs
    /// job at a mid-boundary allocation.
    fn training_budget(job: &TrainingJob) -> f64 {
        let profile = job.profile_for(Method::CeScaling);
        let boundary = profile.boundary();
        let mid = boundary[boundary.len() / 2];
        let curve = curve_for(&job.workload);
        let epochs = curve.mean_epochs_to(job.target_loss).unwrap();
        mid.cost_usd() * epochs * 2.0
    }

    #[test]
    fn ce_training_converges_within_budget() {
        let mut job = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(training_budget(&job));
        let r = job.run(Method::CeScaling).unwrap();
        assert!(r.final_loss <= job.target_loss);
        assert!(
            !r.budget_violated,
            "cost {} budget {:?}",
            r.cost_usd, job.constraint
        );
        assert!(r.epochs > 5);
    }

    #[test]
    fn ce_training_beats_siren_and_cirrus_on_jct() {
        // Average over seeds; individual seeds can flip under noise.
        let base = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        let budget = training_budget(&base);
        let mean_jct = |method: Method| {
            let mut total = 0.0;
            for seed in 0..3 {
                let job =
                    TrainingJob::new(Workload::mobilenet_cifar10(), Constraint::Budget(budget))
                        .with_seed(seed);
                total += job.run(method).map(|r| r.jct_s).unwrap_or(f64::INFINITY);
            }
            total / 3.0
        };
        let ce = mean_jct(Method::CeScaling);
        assert!(ce.is_finite());
        for m in [Method::Siren, Method::Cirrus] {
            let other = mean_jct(m);
            assert!(
                ce <= other * 1.05,
                "{}: CE {ce:.0}s vs {other:.0}s",
                m.label()
            );
        }
    }

    #[test]
    fn siren_restarts_more_than_ce() {
        let base = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        let budget = training_budget(&base);
        let restarts = |method: Method| {
            (0..3)
                .map(|seed| {
                    TrainingJob::new(Workload::mobilenet_cifar10(), Constraint::Budget(budget))
                        .with_seed(seed)
                        .run(method)
                        .map(|r| r.restarts)
                        .unwrap_or(0)
                })
                .sum::<u32>()
        };
        // Siren re-decides every epoch; CE only on δ-sized drift.
        assert!(restarts(Method::Siren) >= restarts(Method::CeScaling));
    }

    #[test]
    fn lambdaml_training_violates_constraints_somewhere() {
        // §IV-C: "LambdaML is not included, because the offline
        // prediction always results in violations in the constraints."
        // Across seeds, at least one run must violate its budget.
        let base = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        // A tight budget: exactly the mean-epochs cost at the allocation
        // LambdaML would pick with a perfect estimate.
        let budget = training_budget(&base) / 2.0 * 1.05;
        let violations = (0..6)
            .filter(|&seed| {
                TrainingJob::new(Workload::mobilenet_cifar10(), Constraint::Budget(budget))
                    .with_seed(seed)
                    .run(Method::LambdaMl)
                    .map(|r| r.budget_violated)
                    .unwrap_or(true)
            })
            .count();
        assert!(
            violations > 0,
            "offline prediction never violated the budget"
        );
    }

    #[test]
    fn training_deadline_objective_meets_deadline() {
        let base = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        let profile = base.profile_for(Method::CeScaling);
        let boundary = profile.boundary();
        let mid = boundary[boundary.len() / 2];
        let curve = curve_for(&base.workload);
        let epochs = curve.mean_epochs_to(base.target_loss).unwrap();
        let tau = mid.time_s() * epochs * 1.5;
        let job =
            TrainingJob::new(Workload::mobilenet_cifar10(), Constraint::Deadline(tau)).with_seed(3);
        let r = job.run(Method::CeScaling).unwrap();
        assert!(!r.qos_violated, "JCT {} vs deadline {tau}", r.jct_s);
    }

    #[test]
    fn smaller_delta_more_restarts_in_full_run() {
        let base = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        let budget = training_budget(&base);
        let restarts = |delta: f64| {
            (0..4)
                .map(|seed| {
                    TrainingJob::new(Workload::mobilenet_cifar10(), Constraint::Budget(budget))
                        .with_seed(seed)
                        .with_delta(delta)
                        .run(Method::CeScaling)
                        .map(|r| r.restarts)
                        .unwrap_or(0)
                })
                .sum::<u32>()
        };
        assert!(restarts(0.01) >= restarts(0.2));
    }

    #[test]
    fn stepped_execution_matches_run_exactly() {
        // The fleet path (start/step_epoch/finish) must be the same
        // computation as run(), draw for draw.
        let mut job = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(training_budget(&job));
        for method in [Method::CeScaling, Method::Siren, Method::Cirrus] {
            let whole = job.run(method).unwrap();
            let mut exec = TrainingExecution::start(job.clone(), method).unwrap();
            let mut steps = 0;
            while !exec.is_done() {
                let step = exec.step_epoch().unwrap();
                assert_eq!(step.epoch, exec.epochs());
                steps += 1;
            }
            let stepped = exec.finish().unwrap();
            assert_eq!(steps, stepped.epochs);
            assert_eq!(whole.jct_s, stepped.jct_s, "{}", method.label());
            assert_eq!(whole.cost_usd, stepped.cost_usd);
            assert_eq!(whole.final_loss, stepped.final_loss);
            assert_eq!(whole.restarts, stepped.restarts);
            assert_eq!(whole.allocations, stepped.allocations);
            assert_eq!(whole.sched_overhead_s, stepped.sched_overhead_s);
        }
    }

    #[test]
    fn contention_charge_extends_jct_and_cost() {
        let mut job = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(training_budget(&job));
        let mut exec = TrainingExecution::start(job, Method::CeScaling).unwrap();
        exec.step_epoch().unwrap();
        let (jct, cost, comm) = {
            let r = exec.report();
            (r.jct_s, r.cost_usd, r.comm_s)
        };
        exec.charge_contention(30.0);
        let r = exec.report();
        assert_eq!(r.jct_s, jct + 30.0);
        assert_eq!(r.comm_s, comm + 30.0);
        assert!(r.cost_usd > cost, "billed wall time includes the stall");
    }

    #[test]
    fn fixed_allocation_run_matches_requested_epochs() {
        let job = training_job(Workload::lr_higgs(), Constraint::Budget(100.0));
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let r = job.run_fixed_allocation(alloc, 5, ExecutionFidelity::Event);
        assert_eq!(r.epochs, 5);
        assert!(r.jct_s > 0.0);
        assert!(r.cost_usd > 0.0);
    }

    #[test]
    #[should_panic(expected = "tuning-only")]
    fn fixed_training_rejected() {
        let job = training_job(Workload::lr_higgs(), Constraint::Budget(100.0));
        let _ = job.run(Method::Fixed);
    }

    #[test]
    fn pinned_space_restricts_all_methods() {
        let mut job = tuning_job(Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(roomy_budget(&job));
        let job = job.with_space(AllocationSpace::aws_default().with_only_storage(StorageKind::S3));
        for method in [Method::CeScaling, Method::Cirrus] {
            let r = job.run(method).unwrap();
            assert!(
                r.stages.iter().all(|s| s.alloc.storage == StorageKind::S3),
                "{} leaked non-S3 storage",
                method.label()
            );
        }
    }

    // -----------------------------------------------------------------
    // Fault injection + recovery
    // -----------------------------------------------------------------

    fn chaos(spec: &str) -> FaultSchedule {
        FaultSchedule::parse(spec).unwrap()
    }

    /// Steps an execution to the end, tolerating (and counting on)
    /// cap-truncation: returns the report even when the job never
    /// converged — what the failure experiments measure.
    fn run_to_cap(job: TrainingJob) -> TrainingReport {
        let mut exec = TrainingExecution::start(job, Method::CeScaling).unwrap();
        while !exec.is_done() {
            if exec.step_epoch().is_err() {
                break;
            }
        }
        exec.report().clone()
    }

    #[test]
    fn zero_fault_chaos_reproduces_clean_run_bit_for_bit() {
        let mut job = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(training_budget(&job));
        let clean = job.run(Method::CeScaling).unwrap();
        let chaotic = job
            .clone()
            .with_chaos(chaos("crash:0@0..inf;coldspike:x1@0..inf"))
            .run(Method::CeScaling)
            .unwrap();
        assert_eq!(clean.jct_s, chaotic.jct_s);
        assert_eq!(clean.cost_usd, chaotic.cost_usd);
        assert_eq!(clean.final_loss, chaotic.final_loss);
        assert_eq!(clean.allocations, chaotic.allocations);
    }

    #[test]
    fn chaotic_runs_are_deterministic() {
        let mut job = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(training_budget(&job) * 4.0);
        let job = job
            .with_chaos(chaos("crash:0.1@0..inf"))
            .with_recovery(RecoveryPolicy::CheckpointResume);
        let a = run_to_cap(job.clone());
        let b = run_to_cap(job);
        assert_eq!(a.jct_s, b.jct_s);
        assert_eq!(a.cost_usd, b.cost_usd);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.final_loss, b.final_loss);
    }

    #[test]
    fn checkpoints_cost_time_and_storage_dollars() {
        let mut job = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(training_budget(&job));
        let clean = job.run(Method::CeScaling).unwrap();
        let reg = Registry::new();
        let ckpt = job
            .clone()
            .with_obs(&reg)
            .with_recovery(RecoveryPolicy::CheckpointResume)
            .with_checkpoint_every(5)
            .run(Method::CeScaling)
            .unwrap();
        // No faults fired, so checkpointing is pure overhead.
        assert!(reg.counter_value("recovery.checkpoints") > 0);
        assert!(ckpt.jct_s > clean.jct_s);
        assert!(ckpt.storage_cost_usd > clean.storage_cost_usd);
        assert_eq!(ckpt.epochs, clean.epochs, "snapshots must not shift draws");
        assert_eq!(ckpt.final_loss, clean.final_loss);
    }

    #[test]
    fn checkpoint_resume_beats_retry_at_high_failure_rates() {
        let base = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        let budget = training_budget(&base) * 8.0;
        let mean = |policy: RecoveryPolicy| {
            let mut jct = 0.0;
            let mut ckpt_usd = 0.0;
            for seed in 0..3u64 {
                let reg = Registry::new();
                let job =
                    TrainingJob::new(Workload::mobilenet_cifar10(), Constraint::Budget(budget))
                        .with_seed(seed)
                        .with_obs(&reg)
                        .with_chaos(chaos("crash:0.2@0..inf"))
                        .with_recovery(policy)
                        .with_checkpoint_every(5);
                let r = run_to_cap(job);
                jct += r.jct_s;
                ckpt_usd += reg.gauge_value("recovery.checkpoint_usd");
            }
            (jct / 3.0, ckpt_usd / 3.0)
        };
        let (retry_jct, retry_ckpt_usd) = mean(RecoveryPolicy::Retry);
        let (ckpt_jct, ckpt_usd) = mean(RecoveryPolicy::CheckpointResume);
        assert!(
            ckpt_jct < retry_jct,
            "checkpoint {ckpt_jct:.0}s vs retry {retry_jct:.0}s"
        );
        assert_eq!(retry_ckpt_usd, 0.0, "retry never snapshots");
        assert!(
            ckpt_usd > 0.0,
            "durability spends extra dollars on snapshots"
        );
    }

    #[test]
    fn recovery_counters_account_for_faults() {
        let reg = Registry::new();
        let mut job = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(training_budget(&job) * 8.0);
        let job = job
            .with_obs(&reg)
            .with_chaos(chaos("crash:0.2@0..inf"))
            .with_recovery(RecoveryPolicy::CheckpointResume);
        let _ = run_to_cap(job);
        assert!(reg.counter_value("recovery.retries") > 0);
        assert!(reg.counter_value("recovery.checkpoints") > 0);
        assert!(reg.counter_value("recovery.restores") > 0);
        assert!(reg.counter_value("chaos.worker_losses") > 0);
    }

    #[test]
    fn permanent_crashes_are_unrecoverable() {
        let mut job = training_job(Workload::lr_higgs(), Constraint::Budget(100.0));
        job.constraint = Constraint::Budget(1e9);
        let job = job.with_chaos(chaos("crash:1@0..inf"));
        let mut exec = TrainingExecution::start(job, Method::CeScaling).unwrap();
        let err = exec.step_epoch().expect_err("every attempt crashes");
        match err {
            WorkflowError::Unrecoverable { attempts, .. } => {
                assert_eq!(attempts, crate::recovery::MAX_RECOVERY_ATTEMPTS + 1);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn storage_outage_stalls_until_the_window_lifts() {
        let reg = Registry::new();
        let mut job = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(training_budget(&job) * 2.0);
        let clean = job.run(Method::CeScaling).unwrap();
        // The outage covers every service the schedulers may pick.
        let spec =
            "outage:s3@0..500;outage:elasticache@0..500;outage:vmps@0..500;outage:dynamodb@0..500";
        let r = job
            .clone()
            .with_obs(&reg)
            .with_chaos(chaos(spec))
            .run(Method::CeScaling)
            .unwrap();
        assert!(
            r.jct_s >= clean.jct_s + 500.0,
            "outage {} vs clean {}",
            r.jct_s,
            clean.jct_s
        );
        assert!(reg.counter_value("chaos.storage_outages") > 0);
        assert!(reg.counter_value("recovery.retries") > 0);
    }

    #[test]
    fn replan_feeds_faults_into_the_scheduler() {
        let mut job = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(training_budget(&job) * 8.0);
        let reg = Registry::new();
        let job = job
            .with_obs(&reg)
            .with_chaos(chaos("crash:0.2@0..inf"))
            .with_recovery(RecoveryPolicy::Replan);
        let _ = run_to_cap(job);
        assert!(reg.counter_value("recovery.replans") > 0);
    }

    #[test]
    fn fleet_injected_worker_loss_rolls_back_and_stalls() {
        let mut job = training_job(Workload::mobilenet_cifar10(), Constraint::Budget(1.0));
        job.constraint = Constraint::Budget(training_budget(&job));
        let job = job
            .with_recovery(RecoveryPolicy::CheckpointResume)
            .with_checkpoint_every(3);
        let mut exec = TrainingExecution::start(job, Method::CeScaling).unwrap();
        for _ in 0..4 {
            exec.step_epoch().unwrap();
        }
        let before = exec.report().clone();
        let extra = exec.inject_worker_loss(0.5);
        assert!(extra > 0.0);
        let after = exec.report();
        assert!(after.jct_s > before.jct_s);
        assert!(after.cost_usd > before.cost_usd);
        // Rolled back to the epoch-3 checkpoint: one progress epoch lost,
        // and the next step replays epoch 4's loss exactly.
        let replay = exec.step_epoch().unwrap();
        assert_eq!(replay.loss, before.final_loss);
    }
}
