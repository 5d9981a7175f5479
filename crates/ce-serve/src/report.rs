//! The serving run's aggregate outcome: request verdict counts, latency
//! quantiles, the cost decomposition, and the QoS-vs-cost frontier point
//! the (autoscaler, keep-alive) policy pair lands on.

use crate::engine::Verdicts;
use serde::Serialize;

/// Aggregate outcome of one serving run.
///
/// Every request ends in exactly one verdict:
/// `completed` (within or over SLO), `failed` (instance crashed
/// mid-request, retries exhausted), `timed_out` (every attempt was
/// killed at the request deadline), `shed_throttled` (rejected by an
/// injected throttle storm), `shed_overload` (admission queue full),
/// `shed_outage` (a backing-store outage that outlasted the run),
/// `shed_breaker` (fast-shed by an open circuit breaker), or
/// `truncated` (still parked when the run ended, with no outage in
/// force).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Autoscaler display name.
    pub autoscaler: String,
    /// Keep-alive policy display name.
    pub keep_alive: String,
    /// Arrival model display name.
    pub arrivals: String,
    /// Topology display name (`single` when no substrate was modeled).
    pub topology: String,
    /// Placement-policy registry name (only consulted multi-pool).
    pub placement: String,
    /// Per-pool breakdown; empty for single-pool runs.
    pub pools: Vec<PoolOutcome>,
    /// Requests that arrived.
    pub requests: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests lost to a mid-request instance crash.
    pub failed: u64,
    /// Requests whose every attempt was killed at the request timeout.
    pub timed_out: u64,
    /// Requests rejected by an injected throttle storm.
    pub shed_throttled: u64,
    /// Requests dropped because the admission queue was full.
    pub shed_overload: u64,
    /// Requests dropped because a backing-store outage outlasted the run.
    pub shed_outage: u64,
    /// Requests fast-shed by an open circuit breaker.
    pub shed_breaker: u64,
    /// Requests still parked (no outage in force) when the run ended.
    pub truncated: u64,
    /// Dispatched attempts that cold-started.
    pub cold_starts: u64,
    /// Dispatched attempts served by a warm instance.
    pub warm_starts: u64,
    /// Completed requests whose end-to-end latency broke the SLO.
    pub slo_violations: u64,
    /// Instances provisioned ahead of demand by the autoscaler.
    pub prewarmed: u64,
    /// Instances reclaimed by keep-alive expiry.
    pub expired: u64,
    /// Attempts dispatched (requests plus retries and hedges; every
    /// one pays the invocation fee).
    pub attempts: u64,
    /// Retry attempts scheduled by the resilience layer.
    pub retries: u64,
    /// Hedge attempts launched.
    pub hedges: u64,
    /// Requests settled by their hedge attempt finishing first.
    pub hedge_wins: u64,
    /// Attempts dispatched on the degraded (brownout) profile.
    pub degraded: u64,
    /// End-to-end latency quantiles over completed requests (ms).
    pub p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// GB-seconds of billed execution time.
    pub busy_gb_s: f64,
    /// GB-seconds of provisioned-but-idle (keep-warm) time.
    pub idle_gb_s: f64,
    /// Total spend: invocations + execution + keep-warm.
    pub dollars: f64,
    /// First arrival to last event (seconds).
    pub makespan_s: f64,
    /// The SLO the run was judged against (ms).
    pub slo_ms: f64,
}

/// One pool's slice of a multi-pool serving run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PoolOutcome {
    /// Pool display name.
    pub name: String,
    /// Requests placed on the pool.
    pub requests: u64,
    /// Attempts that cold-started in the pool.
    pub cold_starts: u64,
    /// GB-seconds of billed execution time in the pool.
    pub busy_gb_s: f64,
    /// GB-seconds of keep-warm time in the pool.
    pub idle_gb_s: f64,
    /// The pool's GB-second spend at its own price factor.
    pub dollars: f64,
}

impl ServeReport {
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

    /// Fraction of arrivals that did not get SLO-compliant service:
    /// over-SLO completions plus every failed or shed request. The
    /// y-axis of the QoS-violation-vs-cost frontier.
    pub fn violation_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        let bad = self.slo_violations
            + self.failed
            + self.timed_out
            + self.shed_throttled
            + self.shed_overload
            + self.shed_outage
            + self.shed_breaker
            + self.truncated;
        bad as f64 / self.requests as f64
    }

    /// Dollars per million requests (the x-axis of the frontier).
    pub fn cost_per_million(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.dollars / self.requests as f64 * 1e6
    }

    /// This run's point on the violation-vs-cost frontier.
    pub fn frontier_point(&self) -> (f64, f64) {
        (self.violation_rate(), self.cost_per_million())
    }

    /// Whether this run Pareto-dominates `other`: no worse on both the
    /// violation rate and $/1M requests, strictly better on one.
    pub fn dominates(&self, other: &ServeReport) -> bool {
        ce_cluster::dominates_point(self.frontier_point(), other.frontier_point())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(slo_violations: u64, dollars: f64) -> ServeReport {
        ServeReport {
            autoscaler: "target".into(),
            keep_alive: "adaptive".into(),
            arrivals: "poisson".into(),
            topology: "single".into(),
            placement: "edge-first".into(),
            pools: Vec::new(),
            requests: 1000,
            completed: 990,
            failed: 4,
            timed_out: 0,
            shed_throttled: 3,
            shed_overload: 2,
            shed_outage: 1,
            shed_breaker: 0,
            truncated: 0,
            cold_starts: 10,
            warm_starts: 980,
            slo_violations,
            prewarmed: 5,
            expired: 5,
            attempts: 994,
            retries: 0,
            hedges: 0,
            hedge_wins: 0,
            degraded: 0,
            p50_ms: 250.0,
            p95_ms: 400.0,
            p99_ms: 900.0,
            busy_gb_s: 400.0,
            idle_gb_s: 100.0,
            dollars,
            makespan_s: 600.0,
            slo_ms: 500.0,
        }
    }

    #[test]
    fn violation_rate_counts_every_unserved_request() {
        let r = report(40, 1.0);
        // 40 over-SLO + 4 failed + 3 + 2 + 1 shed = 50 of 1000.
        assert!((r.violation_rate() - 0.05).abs() < 1e-12);
        assert!((r.cost_per_million() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn dominance_requires_strict_improvement_on_one_axis() {
        let base = report(40, 1.0);
        assert!(report(20, 1.0).dominates(&base), "better QoS, equal cost");
        assert!(report(40, 0.5).dominates(&base), "equal QoS, cheaper");
        assert!(!base.dominates(&base), "no strict edge");
        assert!(
            !report(20, 2.0).dominates(&base),
            "trade-off, not dominance"
        );
    }
}
