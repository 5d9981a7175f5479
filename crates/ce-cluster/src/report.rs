//! Fleet-level outcomes: per-job verdicts and the aggregate frontier
//! point (QoS-violation rate vs fleet dollars) a policy lands on.

use serde::Serialize;

/// Pareto dominance on a (violation-rate, cost) frontier point: `a`
/// dominates `b` when it is no worse on both axes and strictly better on
/// at least one. Shared by the fleet report and ce-serve's
/// policy-frontier comparison.
pub fn dominates_point(a: (f64, f64), b: (f64, f64)) -> bool {
    let ((v1, c1), (v2, c2)) = (a, b);
    v1 <= v2 && c1 <= c2 && (v1 < v2 || c1 < c2)
}

/// Three-axis Pareto dominance, used by ce-lifecycle's combined frontier
/// (serve SLO violation rate, train deadline-miss rate, total dollars):
/// `a` dominates `b` when it is no worse on every axis and strictly
/// better on at least one.
pub fn dominates_point3(a: (f64, f64, f64), b: (f64, f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2)
}

/// How a job's stay at the cluster ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JobStatus {
    /// Trained to target loss.
    Completed,
    /// Turned away at admission.
    Rejected,
    /// Admitted but never reached target (infeasible plan, epoch cap,
    /// or structural quota overflow).
    Failed,
}

/// One job's fleet-level verdict.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobOutcome {
    /// Fleet job id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// How the stay ended.
    pub status: JobStatus,
    /// Arrival offset (seconds).
    pub arrival_s: f64,
    /// When the job left the system (completion, failure, or the
    /// arrival instant for rejections).
    pub finish_s: f64,
    /// Total seconds spent waiting for quota across all epochs.
    pub queue_delay_s: f64,
    /// Epochs run.
    pub epochs: u32,
    /// Dollars the job billed (0 for rejections).
    pub cost_usd: f64,
    /// Whether arrival-to-finish time broke the QoS deadline (true for
    /// every rejection and failure: the tenant did not get service).
    pub qos_violated: bool,
    /// Whether the job overran its budget.
    pub budget_violated: bool,
    /// Waves that lost their warm pool to a long quota wait.
    pub cold_resumes: u32,
}

/// The fleet run's aggregate: one point on the policy frontier.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// The admission policy that produced this run.
    pub policy: String,
    /// Topology display name (`single` when no substrate was modeled).
    pub topology: String,
    /// Placement-policy registry name (only consulted multi-pool).
    pub placement: String,
    /// Per-job verdicts, in job-id order.
    pub jobs: Vec<JobOutcome>,
    /// Arrival of the first job to departure of the last (seconds).
    pub makespan_s: f64,
    /// Total dollars across all jobs (contention stalls included).
    pub fleet_dollars: f64,
    /// Time-weighted mean utilization of the shared quota in `[0, 1]`.
    pub quota_utilization: f64,
    /// Highest concurrent quota reservation observed.
    pub quota_peak: u32,
    /// Extra seconds storage contention added across the fleet.
    pub contention_extra_s: f64,
}

impl FleetReport {
    /// Jobs that arrived.
    pub fn arrivals(&self) -> usize {
        self.jobs.len()
    }

    /// Jobs with the given status.
    pub fn count(&self, status: JobStatus) -> usize {
        self.jobs.iter().filter(|j| j.status == status).count()
    }

    /// Fraction of arrivals whose QoS contract was broken — deadline
    /// misses plus rejections plus failures. The y-axis of the
    /// violation-vs-cost frontier.
    pub fn qos_violation_rate(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().filter(|j| j.qos_violated).count() as f64 / self.jobs.len() as f64
    }

    /// Mean queueing delay over admitted jobs (seconds).
    pub fn mean_queue_delay_s(&self) -> f64 {
        let admitted: Vec<&JobOutcome> = self
            .jobs
            .iter()
            .filter(|j| j.status != JobStatus::Rejected)
            .collect();
        if admitted.is_empty() {
            return 0.0;
        }
        admitted.iter().map(|j| j.queue_delay_s).sum::<f64>() / admitted.len() as f64
    }

    /// Whether this run dominates `other` on the violation-vs-cost
    /// frontier: no worse on both axes, strictly better on one.
    pub fn dominates(&self, other: &FleetReport) -> bool {
        dominates_point(
            (self.qos_violation_rate(), self.fleet_dollars),
            (other.qos_violation_rate(), other.fleet_dollars),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, status: JobStatus, qos_violated: bool, cost: f64) -> JobOutcome {
        JobOutcome {
            id,
            tenant: 0,
            status,
            arrival_s: 0.0,
            finish_s: 100.0,
            queue_delay_s: 5.0,
            epochs: 10,
            cost_usd: cost,
            qos_violated,
            budget_violated: false,
            cold_resumes: 0,
        }
    }

    fn report(jobs: Vec<JobOutcome>) -> FleetReport {
        let fleet_dollars = jobs.iter().map(|j| j.cost_usd).sum();
        FleetReport {
            policy: "test".into(),
            topology: "single".into(),
            placement: "edge-first".into(),
            jobs,
            makespan_s: 100.0,
            fleet_dollars,
            quota_utilization: 0.5,
            quota_peak: 10,
            contention_extra_s: 0.0,
        }
    }

    #[test]
    fn dominates_point3_handles_ties_on_individual_axes() {
        let p = (0.1, 0.2, 3.0);
        assert!(!dominates_point3(p, p), "a point never dominates itself");
        // Strictly better on exactly one axis, tied on the other two.
        assert!(dominates_point3((0.05, 0.2, 3.0), p));
        assert!(dominates_point3((0.1, 0.1, 3.0), p));
        assert!(dominates_point3((0.1, 0.2, 2.0), p));
        // Trading one axis for another makes the points incomparable.
        let q = (0.05, 0.3, 3.0);
        assert!(!dominates_point3(q, p));
        assert!(!dominates_point3(p, q));
    }

    #[test]
    fn dominates_point3_rejects_nan_on_any_axis() {
        let p = (0.1, 0.2, 3.0);
        for q in [
            (f64::NAN, 0.5, 5.0),
            (0.5, f64::NAN, 5.0),
            (0.5, 0.5, f64::NAN),
        ] {
            assert!(!dominates_point3(q, p), "a NaN point must never dominate");
            assert!(
                !dominates_point3(p, q),
                "dominance against a NaN point is undefined, not true"
            );
        }
    }

    #[test]
    fn violation_rate_counts_rejections_and_misses() {
        let r = report(vec![
            outcome(0, JobStatus::Completed, false, 1.0),
            outcome(1, JobStatus::Completed, true, 1.0),
            outcome(2, JobStatus::Rejected, true, 0.0),
            outcome(3, JobStatus::Failed, true, 0.5),
        ]);
        assert_eq!(r.qos_violation_rate(), 0.75);
        assert_eq!(r.count(JobStatus::Completed), 2);
        assert_eq!(r.count(JobStatus::Rejected), 1);
    }

    #[test]
    fn dominance_needs_both_axes() {
        let cheap_good = report(vec![outcome(0, JobStatus::Completed, false, 1.0)]);
        let dear_bad = report(vec![outcome(0, JobStatus::Completed, true, 2.0)]);
        assert!(cheap_good.dominates(&dear_bad));
        assert!(!dear_bad.dominates(&cheap_good));
        assert!(!cheap_good.dominates(&cheap_good), "equal points tie");
    }

    #[test]
    fn mean_queue_delay_skips_rejected() {
        let mut rejected = outcome(1, JobStatus::Rejected, true, 0.0);
        rejected.queue_delay_s = 0.0;
        let r = report(vec![outcome(0, JobStatus::Completed, false, 1.0), rejected]);
        assert_eq!(r.mean_queue_delay_s(), 5.0);
    }
}
