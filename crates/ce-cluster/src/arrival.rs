//! Tenant/job arrival processes and fleet workload generation.
//!
//! A fleet is a stream of training jobs from many tenants, each job a
//! workload from the paper's zoo plus the two things a tenant actually
//! cares about: a QoS deadline on arrival-to-completion time and a
//! dollar budget. Arrivals are either a seeded Poisson process (the
//! usual open-loop model for serverless traffic) or an explicit trace
//! (replayed from a file or a test fixture).

use ce_ml::curve::CurveParams;
use ce_models::{AllocationSpace, Environment, Workload};
use ce_pareto::ParetoProfiler;
use ce_sim_core::rng::SimRng;
use ce_sim_core::SpecError;
use ce_workflow::Method;

/// How jobs arrive at the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at `rate_per_min` jobs per minute.
    Poisson {
        /// Mean arrival rate, jobs per minute.
        rate_per_min: f64,
    },
    /// Trace-driven: jobs arrive exactly at these offsets (seconds from
    /// simulation start). Extra jobs beyond the trace reuse the last
    /// inter-arrival gap.
    Trace {
        /// Arrival offsets in seconds, ascending.
        arrival_s: Vec<f64>,
    },
}

impl ArrivalProcess {
    /// Draws `jobs` arrival times (seconds, ascending) from the process.
    pub fn arrivals(&self, jobs: usize, rng: &mut SimRng) -> Vec<f64> {
        match self {
            ArrivalProcess::Poisson { rate_per_min } => {
                let rate_per_s = (rate_per_min / 60.0).max(1e-9);
                let mut t = 0.0;
                (0..jobs)
                    .map(|_| {
                        // Inverse-CDF exponential inter-arrival.
                        let u = rng.uniform();
                        t += -(1.0 - u).ln() / rate_per_s;
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Trace { arrival_s } => {
                let mut out: Vec<f64> = arrival_s.iter().copied().take(jobs).collect();
                // Extend past the trace with the trailing gap.
                let gap = match arrival_s.len() {
                    0 => 1.0,
                    1 => arrival_s[0].max(1.0),
                    n => (arrival_s[n - 1] - arrival_s[n - 2]).max(1e-3),
                };
                while out.len() < jobs {
                    let last = out.last().copied().unwrap_or(0.0);
                    out.push(last + gap);
                }
                out
            }
        }
    }
}

/// One tenant job: a workload plus its QoS contract.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Fleet-unique job id (also the arrival order).
    pub id: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Arrival offset, seconds from simulation start.
    pub arrival_s: f64,
    /// What the job trains.
    pub workload: Workload,
    /// Dollar budget; the job's scheduler minimizes JCT under it.
    pub budget_usd: f64,
    /// QoS deadline on arrival-to-completion seconds (queueing
    /// included) — checked at the fleet level.
    pub deadline_s: f64,
    /// Per-job RNG seed (drives the job's own platform and loss curve).
    pub seed: u64,
}

/// The most jobs one fleet may generate: ten times the largest committed
/// benchmark arm (10k jobs). [`check_jobs`] refuses a larger fleet, and a
/// lifecycle fleet with more tenants (each trains at least one job).
pub const MAX_JOBS: usize = 100_000;

/// The one check of [`MAX_JOBS`]: refuses a run of more than it training
/// jobs of one kind (`what`).
pub fn check_jobs(what: &'static str, jobs: usize) -> Result<(), SpecError> {
    SpecError::at_most(what, jobs as f64, MAX_JOBS)
}

/// A generated fleet: who arrives when, wanting what.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Number of distinct tenants the jobs are spread over.
    pub tenants: u32,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Master seed: fleets are byte-identical per seed.
    pub seed: u64,
    /// The environment jobs will run in (used to size budgets and
    /// deadlines from each workload's profile).
    pub env: Environment,
}

impl FleetSpec {
    /// A fleet with Poisson arrivals at `rate_per_min` over the default
    /// environment.
    pub fn poisson(jobs: usize, rate_per_min: f64, seed: u64) -> Self {
        FleetSpec {
            jobs,
            tenants: (jobs as u32 / 4).clamp(1, 32),
            arrivals: ArrivalProcess::Poisson { rate_per_min },
            seed,
            env: Environment::aws_default(),
        }
    }

    /// The workload zoo fleets draw from: the paper's small/medium
    /// models (large ones would dwarf the shared quota on their own).
    pub fn zoo() -> Vec<Workload> {
        vec![
            Workload::lr_higgs(),
            Workload::svm_higgs(),
            Workload::mobilenet_cifar10(),
        ]
    }

    /// Generates the fleet's jobs, deterministically per seed.
    ///
    /// Budgets and deadlines are sized from each workload's profile so
    /// they are *feasible but not lavish*: budget is the mid-boundary
    /// allocation's cost over the mean epoch count times U(1.5, 3);
    /// deadline is the matching runtime times U(2, 4) — headroom that
    /// queueing under an overloaded cluster eats quickly.
    pub fn generate(&self) -> Vec<JobSpec> {
        let rng = SimRng::new(self.seed).derive("fleet");
        let mut arrival_rng = rng.derive("arrivals");
        let arrivals = self.arrivals.arrivals(self.jobs, &mut arrival_rng);

        let zoo = FleetSpec::zoo();
        // Per-workload (mid-boundary cost/epoch, time/epoch, mean epochs):
        // profile once, reuse across jobs.
        let space = AllocationSpace::aws_default();
        let anchors: Vec<(f64, f64, f64)> = zoo
            .iter()
            .map(|w| {
                let profile = ParetoProfiler::new(&self.env)
                    .with_space(space.clone())
                    .profile_workload_cached(w);
                let boundary = profile.boundary();
                let mid = boundary[boundary.len() / 2];
                let curve = CurveParams::for_workload(w.model.family, &w.dataset.name);
                let target = ce_ml::curve::table4_target(w.model.family, &w.dataset.name);
                let epochs = curve.mean_epochs_to(target).unwrap_or(50.0);
                (mid.cost_usd(), mid.time_s(), epochs)
            })
            .collect();

        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival_s)| {
                let mut job_rng = rng.derive_idx("job", i as u64);
                let wi = job_rng.gen_index(zoo.len());
                let (cost_per_epoch, time_per_epoch, epochs) = anchors[wi];
                let budget_usd = cost_per_epoch * epochs * job_rng.uniform_range(1.5, 3.0);
                let deadline_s = time_per_epoch * epochs * job_rng.uniform_range(2.0, 4.0);
                JobSpec {
                    id: i as u64,
                    tenant: job_rng.gen_index(self.tenants.max(1) as usize) as u32,
                    arrival_s,
                    workload: zoo[wi].clone(),
                    budget_usd,
                    deadline_s,
                    seed: job_rng.next_u64(),
                }
            })
            .collect()
    }
}

/// Builds the single-job [`ce_workflow::TrainingJob`] a fleet job runs
/// as: budget-constrained (the deadline is enforced at the fleet level,
/// where queueing delay is visible), with the allocation grid capped at
/// `quota` — a job cannot plan waves the shared account limit could
/// never supply.
pub fn training_job(spec: &JobSpec, env: &Environment, quota: u32) -> ce_workflow::TrainingJob {
    let mut job = ce_workflow::TrainingJob::new(
        spec.workload.clone(),
        ce_workflow::Constraint::Budget(spec.budget_usd),
    )
    .with_seed(spec.seed)
    .with_space(AllocationSpace::aws_default().with_max_concurrency(quota));
    job.env = env.clone();
    job
}

/// The method fleet jobs are scheduled with (per-job allocation control).
pub const FLEET_METHOD: Method = Method::CeScaling;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_sorted_and_seeded() {
        let p = ArrivalProcess::Poisson { rate_per_min: 12.0 };
        let mut r1 = SimRng::new(9);
        let mut r2 = SimRng::new(9);
        let a = p.arrivals(50, &mut r1);
        let b = p.arrivals(50, &mut r2);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean inter-arrival should be near 5 s at 12/min.
        let mean_gap = a.last().unwrap() / 50.0;
        assert!(mean_gap > 2.0 && mean_gap < 10.0, "mean gap {mean_gap}");
    }

    #[test]
    fn trace_arrivals_extend_with_trailing_gap() {
        let p = ArrivalProcess::Trace {
            arrival_s: vec![0.0, 10.0, 30.0],
        };
        let mut rng = SimRng::new(1);
        let a = p.arrivals(5, &mut rng);
        assert_eq!(a, vec![0.0, 10.0, 30.0, 50.0, 70.0]);
    }

    #[test]
    fn fleets_are_deterministic_per_seed() {
        let spec = FleetSpec::poisson(20, 6.0, 77);
        assert_eq!(spec.generate(), spec.generate());
        let other = FleetSpec::poisson(20, 6.0, 78);
        assert_ne!(spec.generate(), other.generate());
    }

    #[test]
    fn generated_jobs_have_feasible_contracts() {
        let spec = FleetSpec::poisson(30, 6.0, 3);
        let jobs = spec.generate();
        assert_eq!(jobs.len(), 30);
        for job in &jobs {
            assert!(job.budget_usd > 0.0);
            assert!(job.deadline_s > 0.0);
            assert!(job.tenant < spec.tenants);
        }
        // The zoo should actually be mixed.
        let names: std::collections::BTreeSet<String> =
            jobs.iter().map(|j| j.workload.label()).collect();
        assert!(names.len() >= 2, "only {names:?}");
    }
}
