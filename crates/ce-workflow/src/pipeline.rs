//! The end-to-end serverless ML workflow of Fig. 1: hyperparameter
//! tuning finds the best configuration, then model training takes it to
//! the target loss — one budget (or deadline) across both phases.
//!
//! The split follows the workflow's economics: tuning is the exploration
//! tax, training the product. The default gives tuning a configurable
//! share of the constraint and hands everything left over (including
//! whatever tuning did not spend) to training.

use crate::metrics::{TrainingReport, TuningReport};
use crate::runner::{TrainingJob, TuningJob};
use crate::{Constraint, Method, WorkflowError};
use ce_ml::curve::CurveParams;
use ce_ml::LossCurve;
use ce_models::{Environment, Workload};
use ce_sim_core::rng::SimRng;
use ce_tuning::ShaSpec;

/// A complete workflow: one bracket of tuning, then training the winner.
#[derive(Debug, Clone)]
pub struct PipelineJob {
    /// The workload (model × dataset).
    pub workload: Workload,
    /// The tuning bracket.
    pub sha: ShaSpec,
    /// The overall constraint across both phases.
    pub constraint: Constraint,
    /// Fraction of the constraint reserved for tuning (default 0.5).
    pub tuning_share: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// The environment.
    pub env: Environment,
}

/// The outcome of a full workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// The tuning phase.
    pub tuning: TuningReport,
    /// The training phase (run with the tuning winner's configuration).
    pub training: TrainingReport,
    /// Total JCT across both phases (they run sequentially).
    pub jct_s: f64,
    /// Total dollars across both phases.
    pub cost_usd: f64,
    /// Whether the overall constraint was violated.
    pub violated: bool,
}

impl PipelineJob {
    /// Creates a workflow with the default environment, seed, and a
    /// 50/50 constraint split.
    pub fn new(workload: Workload, sha: ShaSpec, constraint: Constraint) -> Self {
        PipelineJob {
            workload,
            sha,
            constraint,
            tuning_share: 0.5,
            seed: 42,
            env: Environment::aws_default(),
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the tuning share of the constraint.
    ///
    /// # Panics
    /// Panics unless `share` is in `(0, 1)`.
    pub fn with_tuning_share(mut self, share: f64) -> Self {
        assert!(share > 0.0 && share < 1.0, "share {share} out of (0, 1)");
        self.tuning_share = share;
        self
    }

    /// Runs both phases under `method`.
    ///
    /// The winner's hyperparameter quality carries into training: the
    /// training job's convergence realization is drawn at the winner's
    /// quality, so a sloppy tuning phase really does pay for itself with
    /// a slower (or unreachable) training target.
    pub fn run(&self, method: Method) -> Result<PipelineReport, WorkflowError> {
        let (tuning_constraint, rest) = split(self.constraint, self.tuning_share);
        let tuning = TuningJob::new(self.workload.clone(), self.sha, tuning_constraint)
            .with_seed(self.seed)
            .run(method)?;

        // Everything unspent rolls over to training.
        let training_constraint = match (self.constraint, rest) {
            (Constraint::Budget(total), Constraint::Budget(_)) => {
                Constraint::Budget((total - tuning.cost_usd).max(0.0))
            }
            (Constraint::Deadline(total), Constraint::Deadline(_)) => {
                Constraint::Deadline((total - tuning.jct_s).max(0.0))
            }
            _ => unreachable!("split preserves the constraint kind"),
        };

        let quality = TuningJob::new(self.workload.clone(), self.sha, tuning_constraint)
            .hyper
            .quality(&tuning.best_config);
        let mut training_job = TrainingJob::new(self.workload.clone(), training_constraint)
            .with_seed(self.seed.wrapping_add(1));
        // The winner's plateau may sit above the Table IV optimum; aim
        // for what this configuration can actually reach.
        let params =
            CurveParams::for_workload(self.workload.model.family, &self.workload.dataset.name);
        let probe = LossCurve::sample(
            &params,
            quality.max(1e-3),
            SimRng::new(self.seed.wrapping_add(1))
                .derive("training")
                .derive("run"),
        );
        let reachable_floor = probe.realized_floor();
        if training_job.target_loss <= reachable_floor {
            training_job.target_loss = reachable_floor * 1.05;
        }
        let training = training_job.run(method)?;

        let jct_s = tuning.jct_s + training.jct_s;
        let cost_usd = tuning.cost_usd + training.cost_usd;
        let violated = match self.constraint {
            Constraint::Budget(b) => cost_usd > b,
            Constraint::Deadline(t) => jct_s > t,
        };
        Ok(PipelineReport {
            tuning,
            training,
            jct_s,
            cost_usd,
            violated,
        })
    }
}

/// Splits a constraint by share.
fn split(constraint: Constraint, share: f64) -> (Constraint, Constraint) {
    match constraint {
        Constraint::Budget(b) => (
            Constraint::Budget(b * share),
            Constraint::Budget(b * (1.0 - share)),
        ),
        Constraint::Deadline(t) => (
            Constraint::Deadline(t * share),
            Constraint::Deadline(t * (1.0 - share)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_pareto::ParetoProfiler;
    use ce_tuning::PartitionPlan;

    fn job() -> PipelineJob {
        let w = Workload::mobilenet_cifar10();
        let sha = ShaSpec::new(64, 2, 2);
        let env = Environment::aws_default();
        let profile = ParetoProfiler::new(&env).profile_workload(&w);
        // Budget: room for both phases.
        let tuning_floor = PartitionPlan::uniform(*profile.cheapest().unwrap(), sha).cost();
        let boundary = profile.boundary();
        let mid = boundary[boundary.len() / 2];
        let budget = tuning_floor * 2.0 + mid.cost_usd() * 42.0 * 2.0;
        let share = (tuning_floor * 2.0 / budget).clamp(0.1, 0.9);
        PipelineJob::new(w, sha, Constraint::Budget(budget)).with_tuning_share(share)
    }

    #[test]
    fn full_workflow_completes_within_budget() {
        let p = job();
        let r = p.run(Method::CeScaling).unwrap();
        assert!(
            !r.violated,
            "cost {:.2} under {:?}",
            r.cost_usd, p.constraint
        );
        assert!((r.jct_s - (r.tuning.jct_s + r.training.jct_s)).abs() < 1e-9);
        assert!((r.cost_usd - (r.tuning.cost_usd + r.training.cost_usd)).abs() < 1e-9);
        assert!(r.training.epochs > 0);
    }

    #[test]
    fn unspent_tuning_budget_rolls_over() {
        // The training constraint equals total − actual tuning spend, so
        // training may spend more than (1 − share) × total.
        let p = job();
        let r = p.run(Method::CeScaling).unwrap();
        if let Constraint::Budget(total) = p.constraint {
            assert!(r.training.cost_usd <= total - r.tuning.cost_usd + 1e-9);
        }
    }

    #[test]
    fn pipeline_deterministic_per_seed() {
        let p = job().with_seed(9);
        let a = p.run(Method::CeScaling).unwrap();
        let b = p.run(Method::CeScaling).unwrap();
        assert_eq!(a.cost_usd, b.cost_usd);
        assert_eq!(a.jct_s, b.jct_s);
    }

    #[test]
    fn ce_pipeline_beats_lambdaml_pipeline() {
        let p = job();
        let ce = p.run(Method::CeScaling).unwrap();
        let lml = p.run(Method::LambdaMl).unwrap();
        assert!(
            ce.jct_s <= lml.jct_s * 1.05,
            "CE {:.0}s vs LambdaML {:.0}s",
            ce.jct_s,
            lml.jct_s
        );
    }

    #[test]
    #[should_panic(expected = "out of (0, 1)")]
    fn share_bounds_checked() {
        let _ = job().with_tuning_share(1.5);
    }
}
