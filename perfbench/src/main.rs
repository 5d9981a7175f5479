//! End-to-end and per-layer benchmark of the CE-scaling simulators.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-diurnal --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The load is a closed loop with one client: build and run one
//! simulation, then the next once it returns. Simulations cycle through
//! a fixed list of seeds derived from `--seed` (one "pass"), so the
//! `model.*` metrics, taken over the first pass, repeat exactly for a
//! given seed. Host times are reported at reference speed (see
//! [`reference`]): each simulation's measured time is scaled by the
//! reference kernel timed on either side of it. Parallel stages inside a
//! simulation use a worker pool pinned to the host's core count.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a separate traced
//! phase, whose spans are also written to `perfbench/out/`. The line
//! before it names the host's core count, the thread count and the
//! outcome digest of the first pass.

mod outcome;
mod reference;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use outcome::{Counters, Outcome};
use rayon::prelude::*;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::time::Instant;
use trace::{Probes, Tracer};
use workloads::{Kind, Report, SimId, Workload};

/// Setups per run; `setup_s` is their median. The first is timed from
/// process start, the others are spread evenly through the first pass,
/// so that the median does not hinge on the host's state in one instant.
const SETUP_REPS: usize = 15;
/// Simulators one setup builds.
const SETUP_SIMS: usize = 25;
/// Simulations of a pass the traced phase runs, each untraced and then
/// traced. A fixed count, so the per-layer counts repeat exactly.
const TRACED_SIMS: usize = 48;
/// The tail percentile `host_ms.tail` reports: every pass holds at least
/// 50 simulations, so at least ten samples lie beyond it.
const TAIL_PERCENTILE: f64 = 80.0;
/// Calls at each thread count behind one speed-up figure.
const SPEEDUP_REPS: usize = 3;
/// The largest `--seconds` accepted, so that a run ends inside three
/// minutes.
const MAX_SECONDS: f64 = 120.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?} ({})", names.join("|"))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs an integer, got {value:?}"))?,
                );
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= MAX_SECONDS)
                        .ok_or_else(|| {
                            format!("--seconds needs a number in (0, {MAX_SECONDS}], got {value:?}")
                        })?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &[f64], pct: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One pass of the seed list: a seed per simulation, cycling the cells.
fn pass_ids(kind: Kind, base: u64) -> Vec<SimId> {
    (0..kind.pass_len())
        .map(|i| SimId {
            seed: workloads::pass_seed(base, i as u64),
            cell: i % kind.cells(),
        })
        .collect()
}

/// A finished simulation: its report, its ce-obs export, and the host
/// time of `new`, `run` and the export together.
struct Finished {
    report: Report,
    obs: ce_obs::Registry,
    jsonl: String,
    host_ms: f64,
}

/// Builds, runs and exports one simulation, untraced.
fn simulate(w: &Workload, id: SimId) -> Finished {
    let start = Instant::now();
    let obs = ce_obs::Registry::new();
    let report = w.build(id, &obs, None).run();
    let jsonl = obs.export_jsonl();
    Finished {
        report,
        obs,
        jsonl,
        host_ms: ms_since(start),
    }
}

/// Span names of the simulator a workload drives.
fn layer_of(kind: Kind) -> (&'static str, &'static str) {
    match kind {
        Kind::ServeDiurnal | Kind::ServeEdgeChaos => ("ce-serve.new", "ce-serve.run"),
        Kind::FleetChaos => ("ce-cluster.new", "ce-cluster.run"),
        Kind::LifecycleMix => ("ce-lifecycle.new", "ce-lifecycle.run"),
    }
}

/// Builds, runs and exports one simulation with wrapped policies, under
/// a root span with `new`, `run` and export children.
fn simulate_traced(
    w: &Workload,
    id: SimId,
    probes: &Probes,
    tracer: &mut Tracer,
    sim: usize,
) -> Finished {
    let (new_name, run_name) = layer_of(w.kind);
    let aggregate = |tracer: &mut Tracer, parent: usize| {
        tracer.aggregate("ce-serve.autoscaler", parent, &probes.autoscaler);
        tracer.aggregate("ce-faas.keepalive", parent, &probes.keep_alive);
        tracer.aggregate("ce-cluster.policy", parent, &probes.admission);
        tracer.aggregate("ce-lifecycle.priority", parent, &probes.priority);
    };
    let root = tracer.open("sim", None, sim);
    let obs = ce_obs::Registry::new();
    let span = tracer.open(new_name, Some(root), sim);
    let built = w.build(id, &obs, Some(probes));
    tracer.close(span);
    aggregate(tracer, span);
    let span = tracer.open(run_name, Some(root), sim);
    let report = built.run();
    tracer.close(span);
    aggregate(tracer, span);
    let span = tracer.open("ce-obs.export", Some(root), sim);
    let jsonl = obs.export_jsonl();
    tracer.close(span);
    tracer.close(root);
    let host_ms = tracer.spans[root].dur_ns as f64 / 1e6;
    Finished {
        report,
        obs,
        jsonl,
        host_ms,
    }
}

/// Failures and repeat-consistency across a run's simulations.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    /// The first digest seen for each simulation.
    digests: BTreeMap<SimId, u64>,
}

impl Gate {
    /// Checks one finished simulation (or its panic) and returns its
    /// outcome and host time when it passed every check.
    fn admit(
        &mut self,
        kind: Kind,
        id: SimId,
        result: std::thread::Result<Finished>,
        global_delta: &Counters,
    ) -> Option<(Outcome, f64)> {
        self.attempted += 1;
        let verdict = result
            .map_err(|_| "the simulation panicked".to_string())
            .and_then(|f| {
                outcome::check(&f.report, kind)?;
                let out = outcome::outcome(&f.report, &f.obs, &f.jsonl, global_delta);
                let first = *self.digests.entry(id).or_insert(out.digest);
                if first != out.digest {
                    return Err(format!(
                        "outcome digest {:016x} differs from an earlier repeat's {first:016x}",
                        out.digest
                    ));
                }
                Ok((out, f.host_ms))
            });
        match verdict {
            Ok(ok) => Some(ok),
            Err(why) => {
                self.failed += 1;
                eprintln!(
                    "perfbench: {} seed {} cell {}: {why}",
                    kind.name(),
                    id.seed,
                    id.cell
                );
                None
            }
        }
    }

    /// Runs one untraced simulation and checks it.
    fn simulate(&mut self, w: &Workload, id: SimId) -> Option<(Outcome, f64)> {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| simulate(w, id)));
        self.admit(w.kind, id, result, &Counters::new())
    }
}

/// What an untraced timing loop measured.
#[derive(Default)]
struct Timed {
    /// Host time of each simulation of the pass that passed its checks,
    /// at reference speed: the mean of its runs.
    host_ms: Vec<f64>,
    /// The same as measured, not scaled.
    measured_ms: Vec<f64>,
    /// Host time of every reference kernel run (ms).
    kernel_ms: Vec<f64>,
    /// Work items of those simulations.
    items: u64,
    /// Simulations run, counting every pass.
    runs: usize,
    /// Outcomes of the first pass, in pass order.
    pass_outcomes: Vec<Outcome>,
}

/// A simulation's runs in a timing loop: its work items, and the sums of
/// its host times at reference speed and as measured.
#[derive(Clone, Copy, Default)]
struct Runs {
    items: u64,
    ms: f64,
    measured_ms: f64,
    count: u32,
}

/// Times untraced simulations round the pass, at least once through and
/// until `seconds` have elapsed. The reference kernel runs between
/// every two simulations, and a simulation's host time is taken at
/// reference speed against the mean of the kernel runs on either side
/// of it; a simulation that runs more than once reports the mean of its
/// runs. Every repeat must give the first run's outcome digest. The
/// remaining setups run, untimed, at even steps of the first pass, each
/// after a kernel run of its own.
fn timed_loop(
    w: &Workload,
    pass: &[SimId],
    gate: &mut Gate,
    setups: &mut Setups,
    seconds: f64,
) -> Timed {
    let mut timed = Timed::default();
    // (run number, pass index, items, measured ms) of every simulation
    // that passed its checks.
    let mut samples = Vec::new();
    let step = pass.len() / SETUP_REPS;
    let start = Instant::now();
    for (run, (i, &id)) in pass.iter().enumerate().cycle().enumerate() {
        let first_pass = run < pass.len();
        timed.kernel_ms.push(reference::time_ms());
        if let Some((out, ms)) = gate.simulate(w, id) {
            samples.push((run, i, out.items, ms));
            if first_pass {
                timed.pass_outcomes.push(out);
            }
        }
        if first_pass && (i + 1) % step == 0 && setups.secs.len() < SETUP_REPS {
            let kernel_ms = reference::time_ms();
            setups.record(setup(w.kind, pass, Instant::now()), kernel_ms);
        }
        timed.runs = run + 1;
        if timed.runs >= pass.len() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    timed.kernel_ms.push(reference::time_ms());
    let mut runs = vec![Runs::default(); pass.len()];
    for (run, i, items, ms) in samples {
        let kernel_ms = (timed.kernel_ms[run] + timed.kernel_ms[run + 1]) / 2.0;
        let r = &mut runs[i];
        r.items = items;
        r.ms += reference::at_reference(ms, kernel_ms);
        r.measured_ms += ms;
        r.count += 1;
    }
    for r in runs.into_iter().filter(|r| r.count > 0) {
        timed.items += r.items;
        timed.host_ms.push(r.ms / r.count as f64);
        timed.measured_ms.push(r.measured_ms / r.count as f64);
    }
    timed
}

/// One setup: parse the specs, construct the policies, and draw the
/// inputs of and build the first [`SETUP_SIMS`] simulators of the pass.
/// Returns the workload and the host seconds since `start`.
///
/// A setup runs on one worker thread. With two, the `serve-edge-chaos`
/// setup, whose zoo arrival generator is parallel, also timed how busy
/// other tenants kept the second core, which the single-threaded
/// reference kernel does not see: its setup times at reference speed
/// drifted by a quarter within ten minutes.
fn setup(kind: Kind, pass: &[SimId], start: Instant) -> (Workload, f64) {
    let w = rayon::with_threads(1, || {
        let w = Workload::setup(kind);
        for &id in &pass[..SETUP_SIMS] {
            w.draw_inputs(id);
            drop(w.build(id, &ce_obs::Registry::new(), None));
        }
        w
    });
    (w, start.elapsed().as_secs_f64())
}

/// Setup times (s, at reference speed) and Q-learning training times
/// (ms, as measured) of a run.
#[derive(Default)]
struct Setups {
    secs: Vec<f64>,
    qlearn_ms: Vec<f64>,
}

impl Setups {
    /// Records a setup and the reference kernel time measured next to it.
    fn record(&mut self, (w, secs): (Workload, f64), kernel_ms: f64) -> Workload {
        self.secs.push(reference::at_reference(secs, kernel_ms));
        self.qlearn_ms.push(w.qlearn_train_ms);
        w
    }
}

/// Metric name, value and unit, in print order.
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(timed: &Timed, gate: &Gate, setups: &Setups) -> Metrics {
    let pass = &timed.pass_outcomes;
    let violations: u64 = pass.iter().map(|o| o.violations).sum();
    let units: u64 = pass.iter().map(|o| o.units).sum();
    vec![
        (
            "items_per_host_s".into(),
            ratio(timed.items as f64, timed.host_ms.iter().sum::<f64>() / 1e3),
            "items/s",
        ),
        ("host_ms.p50".into(), median(&timed.host_ms), "ms"),
        (
            "host_ms.tail".into(),
            percentile(&timed.host_ms, TAIL_PERCENTILE),
            "ms",
        ),
        ("setup_s".into(), median(&setups.secs), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        (
            "ok_rate".into(),
            ratio((gate.attempted - gate.failed) as f64, gate.attempted as f64),
            "share",
        ),
        (
            "model.violation_rate".into(),
            ratio(violations as f64, units as f64),
            "share",
        ),
        ("model.usd".into(), pass.iter().map(|o| o.usd).sum(), "usd"),
    ]
}

/// Speed-up of `f` at `threads` workers over one thread: the ratio of
/// median host times over [`SPEEDUP_REPS`] calls each, alternating the
/// two so that both see the same host. Also returns whether every call
/// gave the same result.
fn speedup<R: PartialEq>(threads: usize, f: impl Fn() -> R) -> (f64, bool) {
    let (mut one, mut many, mut results) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_REPS {
        for (n, times) in [(1, &mut one), (threads, &mut many)] {
            let start = Instant::now();
            results.push(rayon::with_threads(n, &f));
            times.push(ms_since(start));
        }
    }
    let same = results.windows(2).all(|pair| pair[0] == pair[1]);
    (ratio(median(&one), median(&many)), same)
}

/// Speed-ups of the vendored worker pool at `threads` over one thread:
/// for a batch of independent simulations, and for one simulation's
/// inner parallel stages. Neither outcome may depend on the thread count.
fn rayon_speedups(w: &Workload, pass: &[SimId], threads: usize, gate: &mut Gate) -> (f64, f64) {
    let batch: Vec<SimId> = pass.iter().copied().take((2 * threads).max(4)).collect();
    let (batch_speedup, batch_same) = speedup(threads, || -> Vec<u64> {
        batch
            .par_iter()
            .map(|&id| {
                let f = simulate(w, id);
                outcome::outcome(&f.report, &f.obs, &f.jsonl, &Counters::new()).digest
            })
            .collect()
    });
    let (inner_speedup, inner_same) = speedup(threads, || simulate(w, pass[0]).jsonl);
    for (what, same) in [("batch", batch_same), ("simulation", inner_same)] {
        gate.attempted += 1;
        if !same {
            gate.failed += 1;
            eprintln!("perfbench: the {what} at {threads} threads diverged from one thread");
        }
    }
    (batch_speedup, inner_speedup)
}

/// What the traced phase recorded.
struct Traced {
    tracer: Tracer,
    /// The simulation behind each span's `sim` index.
    sims: Vec<SimId>,
    /// Raw layer counts summed over every traced simulation.
    counts: BTreeMap<&'static str, f64>,
    /// Host time of the traced simulations and of their untraced twins.
    traced_ms: f64,
    plain_ms: f64,
    /// Host time of the reference kernel run before each untraced twin.
    kernel_ms: Vec<f64>,
}

/// The traced phase: the first [`TRACED_SIMS`] simulations of the pass,
/// each run untraced and then traced, so that the two share the host's
/// state when the tracing overhead is taken, and the wrapped run's
/// outcome is checked against the unwrapped one.
fn traced_phase(w: &Workload, pass: &[SimId], gate: &mut Gate) -> Traced {
    let probes = Probes::default();
    let mut t = Traced {
        tracer: Tracer::new(),
        sims: Vec::new(),
        counts: BTreeMap::new(),
        traced_ms: 0.0,
        plain_ms: 0.0,
        kernel_ms: Vec::new(),
    };
    for &id in &pass[..TRACED_SIMS] {
        t.kernel_ms.push(reference::time_ms());
        let plain = gate.simulate(w, id);
        let before = outcome::global_counters();
        let sim = t.sims.len();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            simulate_traced(w, id, &probes, &mut t.tracer, sim)
        }));
        let delta = outcome::delta(&before, &outcome::global_counters());
        t.sims.push(id);
        let traced = gate.admit(w.kind, id, result, &delta);
        if let (Some((_, plain_ms)), Some((out, traced_ms))) = (plain, traced) {
            t.plain_ms += plain_ms;
            t.traced_ms += traced_ms;
            for (k, v) in out.counts {
                *t.counts.entry(k).or_insert(0.0) += v;
            }
        }
    }
    t
}

/// The per-layer table of a traced run.
fn per_layer(kind: Kind, t: &Traced, extra: &[(&str, f64, &'static str)]) -> Metrics {
    let n = t.sims.len() as f64;
    let c = |k: &str| t.counts.get(k).copied().unwrap_or(0.0);
    let per_sim = |k: &str| c(k) / n;
    // Means per simulation of a span's duration and self time (ms), and
    // of its call count.
    let span_ms = |name: &str| t.tracer.totals(name, |_| true).0 as f64 / 1e6 / n;
    let self_ms = |name: &str| t.tracer.totals(name, |_| true).1 as f64 / 1e6 / n;
    let calls = |name: &str| t.tracer.totals(name, |_| true).3 as f64 / n;
    let epochs = c("epochs");
    let mut m: Metrics = vec![
        ("ce-serve.new_ms".into(), span_ms("ce-serve.new"), "ms"),
        ("ce-serve.run_ms".into(), span_ms("ce-serve.run"), "ms"),
        (
            "ce-serve.loop_self_ms".into(),
            self_ms("ce-serve.run"),
            "ms",
        ),
        (
            "ce-serve.autoscaler.calls".into(),
            calls("ce-serve.autoscaler"),
            "count",
        ),
        (
            "ce-serve.autoscaler.ms".into(),
            span_ms("ce-serve.autoscaler"),
            "ms",
        ),
        (
            "ce-faas.keepalive.calls".into(),
            calls("ce-faas.keepalive"),
            "count",
        ),
        (
            "ce-faas.keepalive.ms".into(),
            span_ms("ce-faas.keepalive"),
            "ms",
        ),
        (
            "ce-faas.warm_ratio".into(),
            ratio(c("warm_starts"), c("warm_starts") + c("cold_starts")),
            "share",
        ),
        (
            "ce-faas.cold_ratio".into(),
            ratio(c("cold_starts"), c("warm_starts") + c("cold_starts")),
            "share",
        ),
        (
            "ce-faas.idle_per_busy_gb_s".into(),
            ratio(c("idle_gb_s"), c("busy_gb_s")),
            "ratio",
        ),
        (
            "ce-faas.invocations".into(),
            per_sim("invocations"),
            "count",
        ),
        (
            "ce-resilience.attempts_per_request".into(),
            ratio(c("attempts"), c("requests")),
            "ratio",
        ),
        ("ce-resilience.retries".into(), per_sim("retries"), "count"),
        (
            "ce-resilience.timed_out".into(),
            per_sim("timed_out"),
            "count",
        ),
        (
            "ce-resilience.hedge_win_ratio".into(),
            ratio(c("hedge_wins"), c("hedges")),
            "share",
        ),
        (
            "ce-topo.edge_share".into(),
            ratio(c("edge_requests"), c("requests")),
            "share",
        ),
        (
            "ce-topo.cold_starts.edge".into(),
            per_sim("cold_starts.edge"),
            "count",
        ),
        (
            "ce-topo.cold_starts.cloud".into(),
            per_sim("cold_starts.cloud"),
            "count",
        ),
        ("ce-obs.export_ms".into(), span_ms("ce-obs.export"), "ms"),
        (
            "ce-obs.export_lines".into(),
            per_sim("export_lines"),
            "count",
        ),
        ("ce-cluster.new_ms".into(), span_ms("ce-cluster.new"), "ms"),
        ("ce-cluster.run_ms".into(), span_ms("ce-cluster.run"), "ms"),
        (
            "ce-cluster.run_self_ms".into(),
            self_ms("ce-cluster.run"),
            "ms",
        ),
        (
            "ce-cluster.policy.calls".into(),
            calls("ce-cluster.policy"),
            "count",
        ),
        (
            "ce-cluster.policy.ms".into(),
            span_ms("ce-cluster.policy"),
            "ms",
        ),
        (
            "ce-cluster.epochs".into(),
            per_sim("cluster.epochs"),
            "count",
        ),
        (
            "ce-cluster.quota_stalls".into(),
            per_sim("cluster.quota_stalls"),
            "count",
        ),
        (
            "ce-training.evaluations".into(),
            per_sim("scheduler.evaluations"),
            "count",
        ),
        (
            "ce-training.adjust_ratio".into(),
            ratio(c("scheduler.adjustments"), c("scheduler.triggers")),
            "share",
        ),
        (
            "ce-workflow.lost_epoch_ratio".into(),
            ratio(c("recovery.lost_epochs"), epochs),
            "share",
        ),
        (
            "ce-workflow.restores".into(),
            per_sim("recovery.restores"),
            "count",
        ),
        (
            "ce-workflow.checkpoints".into(),
            per_sim("recovery.checkpoints"),
            "count",
        ),
        (
            "ce-lifecycle.new_ms".into(),
            span_ms("ce-lifecycle.new"),
            "ms",
        ),
        (
            "ce-lifecycle.run_ms".into(),
            span_ms("ce-lifecycle.run"),
            "ms",
        ),
        (
            "ce-lifecycle.run_self_ms".into(),
            self_ms("ce-lifecycle.run"),
            "ms",
        ),
    ];
    for cell in 0..Kind::LifecycleMix.cells() {
        let (priority, tenants) = SimId { seed: 0, cell }.lifecycle_cell();
        let in_cell = |s: usize| kind == Kind::LifecycleMix && t.sims[s].cell == cell;
        let (dur, _, count, _) = t.tracer.totals("ce-lifecycle.run", in_cell);
        m.push((
            format!("ce-lifecycle.run_ms.{priority}.{tenants}"),
            ratio(dur as f64 / 1e6, count as f64),
            "ms",
        ));
    }
    m.extend([
        (
            "ce-lifecycle.priority.calls".into(),
            calls("ce-lifecycle.priority"),
            "count",
        ),
        (
            "ce-lifecycle.priority.ms".into(),
            span_ms("ce-lifecycle.priority"),
            "ms",
        ),
        (
            "ce-lifecycle.preempt_ratio".into(),
            ratio(c("lifecycle.preemptions"), epochs),
            "share",
        ),
        (
            "ce-lifecycle.quota_stalls".into(),
            per_sim("lifecycle.quota_stalls"),
            "count",
        ),
    ]);
    m.extend(extra.iter().map(|&(k, v, u)| (k.to_string(), v, u)));
    m
}

fn print_result(gate: &Gate, info: Value, metrics: &Metrics) {
    for (name, value, unit) in metrics {
        eprintln!("{name:<40} {value:>14.4} {unit}");
    }
    let mut table = Map::new();
    for (name, value, unit) in metrics {
        table.insert(name.clone(), json!({ "value": value, "unit": unit }));
    }
    println!("{info}");
    println!(
        "{}",
        json!({
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": Value::Object(table),
        })
    );
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: ce-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::set_threads(nproc);
    let kind = args.kind;
    let pass = pass_ids(kind, args.seed);
    let mut setups = Setups::default();
    let first = setup(kind, &pass, process_start);
    let w = setups.record(first, reference::time_ms());
    let mut gate = Gate::default();
    let mut info = json!({
        "workload": kind.name(),
        "seed": args.seed,
        "nproc": nproc,
        "threads": rayon::current_threads(),
        "sims_per_pass": pass.len(),
    });
    if !args.trace {
        let timed = timed_loop(&w, &pass, &mut gate, &mut setups, args.seconds);
        let digest = outcome::combine(timed.pass_outcomes.iter().map(|o| o.digest));
        info["outcome_digest"] = json!(format!("{digest:016x}"));
        info["sims"] = json!(timed.host_ms.len());
        info["runs"] = json!(timed.runs);
        info["tail_percentile"] = json!(TAIL_PERCENTILE);
        info["reference_kernel_ms"] = json!(median(&timed.kernel_ms));
        info["measured_host_ms_p50"] = json!(median(&timed.measured_ms));
        let metrics = end_to_end(&timed, &gate, &setups);
        print_result(&gate, info, &metrics);
        return;
    }
    while setups.secs.len() < SETUP_REPS {
        let kernel_ms = reference::time_ms();
        setups.record(setup(kind, &pass, Instant::now()), kernel_ms);
    }
    let traced = traced_phase(&w, &pass, &mut gate);
    let (batch, inner) = rayon_speedups(&w, &pass, nproc, &mut gate);
    let extra = [
        ("ce-serve.qlearn_train_ms", median(&setups.qlearn_ms), "ms"),
        ("rayon.batch_speedup", batch, "x"),
        ("rayon.inner_speedup", inner, "x"),
        ("rayon.threads", rayon::current_threads() as f64, "count"),
        ("host.nproc", nproc as f64, "count"),
        ("host.reference_ms", median(&traced.kernel_ms), "ms"),
        (
            "trace.overhead_pct",
            (ratio(traced.traced_ms, traced.plain_ms) - 1.0) * 100.0,
            "%",
        ),
    ];
    let metrics = per_layer(kind, &traced, &extra);
    let spans = format!("spans-{}-{}.jsonl", kind.name(), args.seed);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(&spans);
    if let Err(e) = traced.tracer.write_jsonl(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    info["traced_sims"] = json!(traced.sims.len());
    info["spans_file"] = json!(format!("perfbench/out/{spans}"));
    print_result(&gate, info, &metrics);
}
