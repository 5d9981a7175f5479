//! Lifecycle outcomes: per-tenant verdicts and the combined
//! three-axis frontier point a priority policy lands on.

use ce_cluster::dominates_point3;
use ce_serve::engine::Verdicts;
use serde::Serialize;

/// One tenant's lifecycle, tallied over the whole run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TenantOutcome {
    /// The tenant id.
    pub tenant: u32,
    /// The workload the tenant (re)trains.
    pub workload: String,
    // --- Serving ---
    /// Requests that arrived.
    pub requests: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests whose instance crashed mid-flight.
    pub failed: u64,
    /// Requests whose every attempt was killed at the request timeout.
    pub timed_out: u64,
    /// Requests shed by a chaos throttle storm.
    pub shed_throttled: u64,
    /// Requests shed because the admission queue was full.
    pub shed_overload: u64,
    /// Requests shed by a backing-store outage.
    pub shed_outage: u64,
    /// Requests fast-shed by an open circuit breaker.
    pub shed_breaker: u64,
    /// Requests still parked (no outage in force) when the run ended.
    pub truncated: u64,
    /// Dispatches that cold-started an instance.
    pub cold_starts: u64,
    /// Dispatches served by a warm instance.
    pub warm_starts: u64,
    /// Completed requests that missed the latency SLO.
    pub slo_violations: u64,
    /// Requests served while the deployed model was drift-degraded.
    pub drifted_served: u64,
    /// Attempts dispatched (requests plus retries and hedges; every
    /// one leases a quota worker and pays the invocation fee).
    pub attempts: u64,
    /// Retry attempts scheduled by the resilience layer.
    pub retries: u64,
    /// Hedge attempts launched (on spare quota only — a hedge never
    /// preempts training).
    pub hedges: u64,
    /// Requests settled by their hedge attempt finishing first.
    pub hedge_wins: u64,
    /// Attempts dispatched on the degraded (brownout) profile.
    pub degraded: u64,
    /// Serving bill: invocations + busy GB-s + keep-warm GB-s.
    pub serve_dollars: f64,
    // --- Training ---
    /// Training runs started (initial job + drift retrains).
    pub jobs_started: u64,
    /// Runs that converged and published a model version.
    pub jobs_completed: u64,
    /// Runs that failed (non-convergence or structural overflow).
    pub jobs_failed: u64,
    /// Runs that blew their deadline (late, failed, or unfinished).
    pub deadline_misses: u64,
    /// Epochs killed mid-flight so a request could dispatch.
    pub preemptions: u64,
    /// Epoch waves dispatched.
    pub epochs: u64,
    /// Waves that restarted cold after a long queue wait.
    pub cold_resumes: u64,
    /// Training bill, including preemption rollbacks and publishes.
    pub train_dollars: f64,
    // --- Lifecycle ---
    /// Drift events that degraded the deployed model.
    pub drift_events: u64,
    /// Drift events ignored (no model deployed yet, or a retrain was
    /// already in flight).
    pub drift_skipped: u64,
    /// Model versions deployed to serving.
    pub redeploys: u64,
    /// The deployed model version at the end of the run (0 = the stale
    /// bootstrap model).
    pub model_version: u32,
}

/// Aggregate outcome of one lifecycle run under one priority policy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LifecycleReport {
    /// The priority policy that arbitrated the quota.
    pub policy: String,
    /// Topology display name (`single` when no substrate was modeled).
    pub topology: String,
    /// Placement-policy registry name (only consulted multi-pool).
    pub placement: String,
    /// Per-tenant verdicts, in tenant-id order.
    pub tenants: Vec<TenantOutcome>,
    /// When the last event fired (seconds).
    pub makespan_s: f64,
    /// Peak workers leased from the shared quota.
    pub quota_peak: u32,
    /// Time-weighted mean quota utilization over the makespan.
    pub quota_utilization: f64,
    /// Times the head-of-line epoch stalled the train queue on quota.
    pub quota_stalls: u64,
    /// Request latency quantiles, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
}

impl TenantOutcome {
    /// The counts the engine's verdict-partition check runs over.
    pub fn verdicts(&self) -> Verdicts {
        Verdicts {
            requests: self.requests,
            completed: self.completed,
            failed: self.failed,
            timed_out: self.timed_out,
            shed_throttled: self.shed_throttled,
            shed_overload: self.shed_overload,
            shed_outage: self.shed_outage,
            shed_breaker: self.shed_breaker,
            truncated: self.truncated,
            cold_starts: self.cold_starts,
            warm_starts: self.warm_starts,
            attempts: self.attempts,
        }
    }
}

impl LifecycleReport {
    /// Requests that arrived, fleet-wide.
    pub fn requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.requests).sum()
    }

    /// Requests that missed their QoS: late, crashed, or shed.
    pub fn serve_violations(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| {
                t.slo_violations
                    + t.failed
                    + t.timed_out
                    + t.shed_throttled
                    + t.shed_overload
                    + t.shed_outage
                    + t.shed_breaker
                    + t.truncated
            })
            .sum()
    }

    /// Fraction of requests that missed their QoS.
    pub fn serve_violation_rate(&self) -> f64 {
        let requests = self.requests();
        if requests == 0 {
            0.0
        } else {
            self.serve_violations() as f64 / requests as f64
        }
    }

    /// Training runs started, fleet-wide.
    pub fn train_jobs(&self) -> u64 {
        self.tenants.iter().map(|t| t.jobs_started).sum()
    }

    /// Training runs that blew their deadline, fleet-wide.
    pub fn train_misses(&self) -> u64 {
        self.tenants.iter().map(|t| t.deadline_misses).sum()
    }

    /// Fraction of training runs that blew their deadline.
    pub fn train_miss_rate(&self) -> f64 {
        let jobs = self.train_jobs();
        if jobs == 0 {
            0.0
        } else {
            self.train_misses() as f64 / jobs as f64
        }
    }

    /// The serving bill, fleet-wide.
    pub fn serve_dollars(&self) -> f64 {
        self.tenants.iter().map(|t| t.serve_dollars).sum()
    }

    /// The training bill, fleet-wide.
    pub fn train_dollars(&self) -> f64 {
        self.tenants.iter().map(|t| t.train_dollars).sum()
    }

    /// The whole lifecycle bill.
    pub fn total_dollars(&self) -> f64 {
        self.serve_dollars() + self.train_dollars()
    }

    /// Epochs preempted, fleet-wide.
    pub fn preemptions(&self) -> u64 {
        self.tenants.iter().map(|t| t.preemptions).sum()
    }

    /// The combined frontier point: (serve QoS violation rate, train
    /// deadline-miss rate, total dollars).
    pub fn frontier_point(&self) -> (f64, f64, f64) {
        (
            self.serve_violation_rate(),
            self.train_miss_rate(),
            self.total_dollars(),
        )
    }

    /// Whether this run Pareto-dominates `other` on the combined
    /// frontier.
    pub fn dominates(&self, other: &LifecycleReport) -> bool {
        dominates_point3(self.frontier_point(), other.frontier_point())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(tenant: u32) -> TenantOutcome {
        TenantOutcome {
            tenant,
            workload: "lr-higgs".to_string(),
            requests: 100,
            completed: 90,
            failed: 2,
            timed_out: 0,
            shed_throttled: 0,
            shed_overload: 5,
            shed_outage: 3,
            shed_breaker: 0,
            truncated: 0,
            cold_starts: 10,
            warm_starts: 82,
            slo_violations: 10,
            drifted_served: 4,
            attempts: 92,
            retries: 0,
            hedges: 0,
            hedge_wins: 0,
            degraded: 0,
            serve_dollars: 0.5,
            jobs_started: 2,
            jobs_completed: 1,
            jobs_failed: 0,
            deadline_misses: 1,
            preemptions: 3,
            epochs: 40,
            cold_resumes: 1,
            train_dollars: 1.5,
            drift_events: 1,
            drift_skipped: 1,
            redeploys: 1,
            model_version: 1,
        }
    }

    fn report(violation_scale: u64, dollars: f64) -> LifecycleReport {
        let mut t = outcome(0);
        t.slo_violations = violation_scale;
        t.serve_dollars = dollars;
        LifecycleReport {
            policy: "serve-first".to_string(),
            topology: "single".to_string(),
            placement: "edge-first".to_string(),
            tenants: vec![t],
            makespan_s: 300.0,
            quota_peak: 20,
            quota_utilization: 0.5,
            quota_stalls: 2,
            p50_ms: 260.0,
            p95_ms: 420.0,
            p99_ms: 900.0,
        }
    }

    #[test]
    fn rates_partition_the_tallies() {
        let r = report(10, 0.5);
        assert_eq!(r.requests(), 100);
        assert_eq!(r.serve_violations(), 10 + 2 + 5 + 3);
        assert!((r.serve_violation_rate() - 0.20).abs() < 1e-12);
        assert!((r.train_miss_rate() - 0.5).abs() < 1e-12);
        assert!((r.total_dollars() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dominance_needs_a_strict_edge() {
        let a = report(5, 0.5);
        let b = report(10, 0.5);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "a point never dominates itself");
    }

    #[test]
    fn empty_fleets_report_zero_rates() {
        let r = LifecycleReport {
            policy: "train-first".to_string(),
            topology: "single".to_string(),
            placement: "edge-first".to_string(),
            tenants: Vec::new(),
            makespan_s: 0.0,
            quota_peak: 0,
            quota_utilization: 0.0,
            quota_stalls: 0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
        };
        assert_eq!(r.serve_violation_rate(), 0.0);
        assert_eq!(r.train_miss_rate(), 0.0);
        assert_eq!(r.total_dollars(), 0.0);
    }
}
