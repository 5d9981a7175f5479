//! What one simulation produced: its work items, its model-side sums,
//! an outcome digest, the per-simulation correctness gate, and the raw
//! layer counts the traced run turns into per-layer metrics.

use crate::workloads::{Kind, Report, FLEET_JOBS};
use ce_obs::Registry;
use serde_json::{Number, Value};
use std::collections::BTreeMap;

/// The outcome of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Simulated work items: requests, training epochs, or both.
    pub items: u64,
    /// Simulated QoS violations, and the units they are counted over.
    pub violations: u64,
    pub units: u64,
    /// Simulated dollars.
    pub usd: f64,
    /// FNV-1a over the report and the ce-obs JSONL export.
    pub digest: u64,
    /// Raw layer counts, summed across simulations by the traced run.
    pub counts: BTreeMap<&'static str, f64>,
}

/// FNV-1a, 64-bit: a stable hash whose value is the same on every
/// platform and toolchain, so digests can be compared across commits.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Combines per-simulation digests, in order, into one.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(&d.to_le_bytes(), h))
}

/// Every number in the report is finite and non-negative.
fn check_numbers(path: &str, v: &Value) -> Result<(), String> {
    match v {
        Value::Number(Number::Float(x)) if !x.is_finite() || *x < 0.0 => {
            Err(format!("{path} = {x} is not a finite non-negative number"))
        }
        Value::Number(Number::NegInt(x)) => Err(format!("{path} = {x} is negative")),
        Value::Array(items) => items
            .iter()
            .enumerate()
            .try_for_each(|(i, item)| check_numbers(&format!("{path}[{i}]"), item)),
        Value::Object(map) => map
            .iter()
            .try_for_each(|(k, item)| check_numbers(&format!("{path}.{k}"), item)),
        _ => Ok(()),
    }
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The per-simulation correctness gate.
///
/// Checks that every request or job ends in exactly one verdict, that
/// serve attempts cover every completed and failed request, that the
/// quota peak never exceeds the quota, and that every report number is
/// finite and non-negative.
pub fn check(report: &Report, kind: Kind) -> Result<(), String> {
    let quota = kind.quota();
    match report {
        Report::Serve(r) => {
            check_numbers("serve", &serde_json::to_value(r))?;
            let verdicts = r.completed
                + r.failed
                + r.timed_out
                + r.shed_throttled
                + r.shed_overload
                + r.shed_outage
                + r.shed_breaker
                + r.truncated;
            ensure(verdicts == r.requests, || {
                format!("{} verdicts for {} requests", verdicts, r.requests)
            })?;
            ensure(r.attempts >= r.completed + r.failed, || {
                format!(
                    "{} attempts < {} completed + {} failed",
                    r.attempts, r.completed, r.failed
                )
            })?;
            ensure(r.slo_violations <= r.completed, || {
                format!(
                    "{} SLO violations > {} completed",
                    r.slo_violations, r.completed
                )
            })
        }
        Report::Fleet(r) => {
            check_numbers("fleet", &serde_json::to_value(r))?;
            let mut ids: Vec<u64> = r.jobs.iter().map(|j| j.id).collect();
            ids.sort_unstable();
            ensure(
                ids.len() == FLEET_JOBS && ids.iter().enumerate().all(|(i, &id)| id == i as u64),
                || format!("{} job verdicts for {FLEET_JOBS} jobs", ids.len()),
            )?;
            ensure(r.quota_peak <= quota, || {
                format!("quota peak {} > quota {quota}", r.quota_peak)
            })
        }
        Report::Lifecycle(r) => {
            check_numbers("lifecycle", &serde_json::to_value(r))?;
            for t in &r.tenants {
                let verdicts = t.completed
                    + t.failed
                    + t.timed_out
                    + t.shed_throttled
                    + t.shed_overload
                    + t.shed_outage
                    + t.shed_breaker
                    + t.truncated;
                ensure(verdicts == t.requests, || {
                    format!(
                        "tenant {}: {verdicts} verdicts for {} requests",
                        t.tenant, t.requests
                    )
                })?;
                ensure(t.jobs_completed + t.jobs_failed <= t.jobs_started, || {
                    format!(
                        "tenant {}: {} completed + {} failed runs > {} started",
                        t.tenant, t.jobs_completed, t.jobs_failed, t.jobs_started
                    )
                })?;
            }
            ensure(r.quota_peak <= quota, || {
                format!("quota peak {} > quota {quota}", r.quota_peak)
            })
        }
    }
}

/// Extracts the outcome of a finished simulation. `global_delta` holds
/// the process-global ce-obs counters this simulation added (training
/// executions inside a lifecycle run report there).
pub fn outcome(report: &Report, obs: &Registry, jsonl: &str, global_delta: &Counters) -> Outcome {
    let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *c.entry(k).or_insert(0.0) += v;
    let counter = |name: &str| {
        obs.counter_value(name) as f64 + global_delta.get(name).copied().unwrap_or(0.0)
    };
    let debug;
    let (items, violations, units, usd) = match report {
        Report::Serve(r) => {
            debug = format!("{r:?}");
            add("requests", r.requests as f64);
            add("attempts", r.attempts as f64);
            add("cold_starts", r.cold_starts as f64);
            add("warm_starts", r.warm_starts as f64);
            add("busy_gb_s", r.busy_gb_s);
            add("idle_gb_s", r.idle_gb_s);
            add("retries", r.retries as f64);
            add("timed_out", r.timed_out as f64);
            add("hedges", r.hedges as f64);
            add("hedge_wins", r.hedge_wins as f64);
            for p in &r.pools {
                match p.name.as_str() {
                    "edge" => {
                        add("edge_requests", p.requests as f64);
                        add("cold_starts.edge", p.cold_starts as f64);
                    }
                    "cloud" => add("cold_starts.cloud", p.cold_starts as f64),
                    _ => {}
                }
            }
            add("invocations", r.attempts as f64);
            // Over-SLO completions plus every request that did not complete.
            let bad = r.slo_violations + (r.requests - r.completed);
            (r.requests, bad, r.requests, r.dollars)
        }
        Report::Fleet(r) => {
            debug = format!("{r:?}");
            let epochs: u64 = r.jobs.iter().map(|j| u64::from(j.epochs)).sum();
            add("epochs", epochs as f64);
            add("cluster.epochs", epochs as f64);
            add("invocations", counter("faas.invocations"));
            add("cold_starts", counter("faas.cold_starts"));
            add("warm_starts", counter("faas.warm_starts"));
            add("cluster.quota_stalls", counter("cluster.quota_stalls"));
            let violated = r.jobs.iter().filter(|j| j.qos_violated).count() as u64;
            (epochs, violated, r.jobs.len() as u64, r.fleet_dollars)
        }
        Report::Lifecycle(r) => {
            debug = format!("{r:?}");
            let sum = |f: fn(&ce_lifecycle::TenantOutcome) -> u64| -> u64 {
                r.tenants.iter().map(f).sum()
            };
            let epochs = sum(|t| t.epochs);
            let requests = r.requests();
            add("requests", requests as f64);
            add("epochs", epochs as f64);
            add("attempts", sum(|t| t.attempts) as f64);
            add("invocations", sum(|t| t.attempts) as f64);
            add("cold_starts", sum(|t| t.cold_starts) as f64);
            add("warm_starts", sum(|t| t.warm_starts) as f64);
            add("retries", sum(|t| t.retries) as f64);
            add("timed_out", sum(|t| t.timed_out) as f64);
            add("hedges", sum(|t| t.hedges) as f64);
            add("hedge_wins", sum(|t| t.hedge_wins) as f64);
            add("lifecycle.preemptions", r.preemptions() as f64);
            add("lifecycle.quota_stalls", r.quota_stalls as f64);
            (
                requests + epochs,
                r.serve_violations() + r.train_misses(),
                requests + r.train_jobs(),
                r.total_dollars(),
            )
        }
    };
    for name in [
        "scheduler.evaluations",
        "scheduler.adjustments",
        "scheduler.triggers",
        "recovery.lost_epochs",
        "recovery.restores",
        "recovery.checkpoints",
    ] {
        add(name, counter(name));
    }
    add("export_lines", jsonl.lines().count() as f64);
    Outcome {
        items,
        violations,
        units,
        usd,
        digest: fnv1a(jsonl.as_bytes(), fnv1a(debug.as_bytes(), FNV_OFFSET)),
        counts: c,
    }
}

/// Counter values by name.
pub type Counters = BTreeMap<String, f64>;

/// The process-global registry's counters, for before/after deltas.
pub fn global_counters() -> Counters {
    let mut out = Counters::new();
    for line in ce_obs::global().export_jsonl().lines() {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        if v["type"] == "counter" {
            if let (Some(name), Some(value)) = (v["name"].as_str(), v["value"].as_f64()) {
                out.insert(name.to_string(), value);
            }
        }
    }
    out
}

/// `after - before`, per counter.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .filter(|(_, d)| *d != 0.0)
        .collect()
}
