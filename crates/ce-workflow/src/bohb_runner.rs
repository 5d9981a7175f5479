//! BOHB-style tuning: a ladder of Hyperband brackets whose
//! configurations are proposed by a TPE model warmed on the earlier
//! brackets' outcomes, with CE-scaling's planner partitioning each
//! bracket's resources (the §II-A "our work can be applied to them"
//! claim, executed end to end).

use crate::metrics::TuningReport;
use crate::runner::TuningJob;
use crate::{Constraint, Method, WorkflowError};
use ce_ml::{HyperConfig, HyperSpace};
use ce_models::{Environment, Workload};
use ce_sim_core::rng::SimRng;
use ce_tuning::{HyperbandSpec, TpeSampler};

/// A BOHB tuning job: Hyperband brackets + TPE configuration proposals.
#[derive(Debug, Clone)]
pub struct BohbJob {
    /// The workload each trial trains.
    pub workload: Workload,
    /// The Hyperband bracket ladder.
    pub hyperband: HyperbandSpec,
    /// Overall budget or deadline, split across brackets in proportion
    /// to their trial-epoch work.
    pub constraint: Constraint,
    /// Base RNG seed.
    pub seed: u64,
    /// The environment.
    pub env: Environment,
    /// Hyperparameter space.
    pub hyper: HyperSpace,
    /// When `false`, configurations are sampled uniformly instead of
    /// from the TPE model (the "HB without BO" ablation of the BOHB
    /// paper).
    pub use_model: bool,
}

/// The outcome of a BOHB run.
#[derive(Debug, Clone, PartialEq)]
pub struct BohbReport {
    /// Per-bracket reports, most exploratory bracket first.
    pub brackets: Vec<TuningReport>,
    /// The best configuration found across all brackets.
    pub best_config: HyperConfig,
    /// Its final observed loss.
    pub best_loss: f64,
    /// Total JCT across brackets (they run sequentially).
    pub jct_s: f64,
    /// Total dollars across brackets.
    pub cost_usd: f64,
}

impl BohbJob {
    /// Creates a job with the default environment and seed.
    pub fn new(workload: Workload, hyperband: HyperbandSpec, constraint: Constraint) -> Self {
        BohbJob {
            workload,
            hyperband,
            constraint,
            seed: 42,
            env: Environment::aws_default(),
            hyper: HyperSpace::default(),
            use_model: true,
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables the TPE model (plain Hyperband).
    pub fn without_model(mut self) -> Self {
        self.use_model = false;
        self
    }

    /// Runs every bracket sequentially under `method`, proposing each
    /// bracket's configurations from the TPE archive of all earlier
    /// outcomes.
    pub fn run(&self, method: Method) -> Result<BohbReport, WorkflowError> {
        let brackets = self.hyperband.brackets();
        let total_work: u64 = self.hyperband.total_trial_epochs();
        let mut sampler = TpeSampler::new(self.hyper.clone());
        let mut rng = SimRng::new(self.seed).derive("bohb");

        let mut reports = Vec::with_capacity(brackets.len());
        let mut best: Option<(HyperConfig, f64)> = None;
        let mut jct_s = 0.0;
        let mut cost_usd = 0.0;
        for (i, sha) in brackets.into_iter().enumerate() {
            // Split the constraint by work share.
            let share = sha.total_trial_epochs() as f64 / total_work as f64;
            let constraint = match self.constraint {
                Constraint::Budget(b) => Constraint::Budget(b * share),
                Constraint::Deadline(t) => Constraint::Deadline(t * share),
            };
            let configs: Vec<HyperConfig> = (0..sha.initial_trials)
                .map(|_| {
                    if self.use_model {
                        sampler.suggest(&mut rng)
                    } else {
                        self.hyper.sample(&mut rng)
                    }
                })
                .collect();
            let job = TuningJob::new(self.workload.clone(), sha, constraint)
                .with_seed(self.seed.wrapping_add(i as u64));
            let report = job.run_with_configs(method, &configs)?;
            // Trials in different brackets (and different termination
            // stages) observe losses at different budgets, so raw losses
            // are not comparable across the pooled archive. TPE only
            // consumes the ordering, so feed it the per-bracket
            // normalized rank instead.
            let mut order: Vec<usize> = (0..report.trials.len()).collect();
            order.sort_by(|&a, &b| {
                report.trials[a]
                    .final_loss
                    .total_cmp(&report.trials[b].final_loss)
            });
            for (rank, &idx) in order.iter().enumerate() {
                let outcome = &report.trials[idx];
                if outcome.final_loss.is_finite() {
                    sampler.observe(outcome.config, rank as f64 / order.len() as f64);
                }
            }
            if best.as_ref().is_none_or(|(_, l)| report.best_loss < *l) {
                best = Some((report.best_config, report.best_loss));
            }
            jct_s += report.jct_s;
            cost_usd += report.cost_usd;
            reports.push(report);
        }
        let (best_config, best_loss) = best.expect("at least one bracket");
        Ok(BohbReport {
            brackets: reports,
            best_config,
            best_loss,
            jct_s,
            cost_usd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_pareto::ParetoProfiler;

    fn job(budget_scale: f64) -> BohbJob {
        let w = Workload::lr_higgs();
        let hb = HyperbandSpec::new(16, 2);
        let env = Environment::aws_default();
        let profile = ParetoProfiler::new(&env).profile_workload(&w);
        // Budget: scale × the cheapest cost of running all brackets
        // statically.
        let cheapest = profile.cheapest().unwrap();
        let budget = hb.total_trial_epochs() as f64 * cheapest.cost_usd() * budget_scale;
        BohbJob::new(w, hb, Constraint::Budget(budget))
    }

    #[test]
    fn runs_every_bracket_and_aggregates() {
        let job = job(2.0);
        let r = job.run(Method::CeScaling).unwrap();
        assert_eq!(r.brackets.len(), job.hyperband.brackets().len());
        assert!(r.jct_s > 0.0 && r.cost_usd > 0.0);
        let sum_cost: f64 = r.brackets.iter().map(|b| b.cost_usd).sum();
        assert!((r.cost_usd - sum_cost).abs() < 1e-9);
    }

    #[test]
    fn bohb_finds_a_high_quality_winner() {
        // Averaged over seeds, the overall winner sits near the quality
        // optimum. (Per-bracket winners train to different depths, so
        // the raw-loss cross-bracket comparison is noisy per seed.)
        let mut total = 0.0;
        let seeds = 5;
        for seed in 0..seeds {
            let job = job(2.0).with_seed(seed);
            let r = job.run(Method::CeScaling).unwrap();
            total += job.hyper.quality(&r.best_config);
        }
        let mean = total / f64::from(seeds as u32);
        assert!(mean > 0.8, "mean BOHB winner quality {mean:.2}");
    }

    #[test]
    fn respects_overall_budget_roughly() {
        let job = job(2.0);
        let r = job.run(Method::CeScaling).unwrap();
        if let Constraint::Budget(b) = job.constraint {
            assert!(
                r.cost_usd <= b * 1.05,
                "cost {:.2} vs budget {b:.2}",
                r.cost_usd
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let job = job(2.0).with_seed(9);
        let a = job.run(Method::CeScaling).unwrap();
        let b = job.run(Method::CeScaling).unwrap();
        assert_eq!(a.best_loss, b.best_loss);
        assert_eq!(a.cost_usd, b.cost_usd);
    }

    #[test]
    fn tpe_model_beats_plain_hyperband() {
        // Identical brackets and seeds; the only difference is whether
        // configurations come from the TPE archive or uniform sampling.
        // Averaged over seeds the model must find at least as good a
        // winner.
        let seeds = 6;
        let mut with_model = 0.0;
        let mut without = 0.0;
        for seed in 0..seeds {
            let bjob = job(2.0).with_seed(seed);
            with_model += bjob
                .hyper
                .quality(&bjob.run(Method::CeScaling).unwrap().best_config);
            let pjob = job(2.0).with_seed(seed).without_model();
            without += pjob
                .hyper
                .quality(&pjob.run(Method::CeScaling).unwrap().best_config);
        }
        assert!(
            with_model >= without - 1e-9,
            "TPE {:.3} vs plain HB {:.3}",
            with_model / seeds as f64,
            without / seeds as f64
        );
    }
}
