//! `ce-bench`: the wall-clock benchmark harness. Six suites share one
//! arm schema, one seed-batch timer and one `--baseline` gate; a suite
//! only supplies its constants, spec builder, arm matrix, outcome fields
//! and claim.
//!
//! | suite | simulator | arm matrix (`--quick` subset) | reference arm | claim (exit 1 if false) |
//! |---|---|---|---|---|
//! | `fleet` | `ClusterSim` | {500, 2k, 10k} jobs × {fifo, edf, cost-greedy} × {clean, chaos} on the heap engine, plus naive-dispatch fifo twins at 500 and 2k (no 10k; naive 2k clean only) | `fleet/2000/fifo/clean/heap` | every naive arm equals its heap twin |
//! | `serve` | `ServeSim`, diurnal | {10k, 100k, 1M} requests × {target/adaptive, fixed:64/fixed:600, prewarm/histogram} (no 1M) | `serve/100000/target/adaptive` | — |
//! | `lifecycle` | `LifecycleSim` | {4, 8} tenants × every priority policy (4 only) | `lifecycle/4/serve-first` | — |
//! | `resilience` | `ServeSim` under crash + coldspike chaos | {10k, 100k} requests × {off, timeout, retry, hedge, breaker, full} (100k only) | `resilience/100000/full` | attempts cover settled requests |
//! | `keepwarm` | `ServeSim` on zoo traces | 5 families × {fixed:18, target, prewarm, qlearn} × {fixed:600, adaptive, histogram} (mixed, diurnal) | `keepwarm/mixed/qlearn/adaptive` | a (qlearn, adaptive\|histogram) arm dominates (fixed:18, fixed:600) on (violation rate, $/1M) |
//! | `topo` | `ServeSim` on zoo:diurnal | cloud-only, edge-only, edge-cloud × every placement (no edge-only; edge-first and workload-aware) | `topo/edge-cloud/workload-aware` | workload-aware edge+cloud dominates cloud-only on (p95 ms, $/1M) |
//!
//! Every suite also times one **seed batch**: a representative arm run
//! over a batch of seeds, once at 1 thread and once at the resolved
//! thread count (`--threads` / `CE_THREADS`). The per-seed report JSON
//! and metric export must be byte-equal between the two batches before
//! the speedup is recorded.
//!
//! The report (`BENCH_<suite>.json`, schema `ce-bench/v3`) is
//! `{schema, suite, config, threads, nproc, arms, wins, scaling, speedup}`,
//! each arm `{name, wall_ms, items, items_per_s, outcome, pareto}`:
//! `items` counts requests (jobs for the fleet suite), `outcome` holds the
//! simulated results, `pareto` is null outside the suites with a Pareto
//! claim, and `speedup` (heap vs naive engine) is null outside the fleet
//! suite.
//!
//! The reference arm is timed three times, and its report entry holds
//! the median. With `--baseline`, the gate fails (exit 1) when that
//! median is more than 2× the baseline's reference time, when the batch
//! speedup falls below half the baseline's at the same thread count
//! (more than one), or when an arm present in both runs differs in any
//! outcome field. A
//! baseline from another suite is a usage error (exit 2) before any arm
//! runs.
//!
//! ```text
//! cargo run --release -p ce-bench -- --suite <suite>   # full matrix -> BENCH_<suite>.json
//! cargo run --release -p ce-bench -- --suite topo --quick --out BENCH_topo_ci.json \
//!     --baseline BENCH_topo.json                       # CI smoke plus the gate
//! cargo run --release -p ce-bench -- --threads 8       # seed-batch thread count
//! ```
//!
//! `--suite` defaults to `fleet` and `--out` to `BENCH_<suite>.json`.

use ce_chaos::FaultSchedule;
use ce_cluster::{
    dominates_point, policy_by_name, ClusterSim, ClusterSpec, FleetEngine, FleetSpec,
};
use ce_obs::Registry;
use ce_serve::{ServeReport, ServeSim, ServeSpec};
use ce_workflow::RecoveryPolicy;
use rayon::prelude::*;
use serde::Serialize;
use serde_json::{json, Value};
use std::time::Instant;

/// Seed for every arm; seed batches run `SEED`, `SEED + 1`, ….
const SEED: u64 = 42;
/// A fresh reference arm's median time above `baseline *
/// REGRESSION_FACTOR` fails `--baseline`, as does a batch speedup below
/// `baseline / REGRESSION_FACTOR`.
const REGRESSION_FACTOR: f64 = 2.0;
/// Seeds per batch for the long-running suites.
const BATCH_SEEDS: u64 = 4;
/// Seeds per batch for the zoo suites: their arms cover only 600
/// sim-seconds, so the batch needs more seeds to amortize pool spin-up.
const ZOO_BATCH_SEEDS: u64 = 16;
/// A suite's arms, claim and seed batch, given `--quick` and the thread
/// count.
type SuiteFn = fn(bool, usize) -> Result<Report, BenchError>;
/// One more timed run of a suite's reference arm, in milliseconds.
type RerunFn = fn() -> f64;
/// Every suite with the reference arm its gate times, and a rerun of
/// that arm.
const SUITES: [(&str, &str, SuiteFn, RerunFn); 6] = [
    ("fleet", "fleet/2000/fifo/clean/heap", fleet, || {
        fleet_arm(2000, "fifo", false, FleetEngine::Heap).wall_ms
    }),
    ("serve", "serve/100000/target/adaptive", serve, || {
        let sim = serve_sim(serve_spec(100_000, SEED), "target", "adaptive");
        timed(|| sim.run()).1
    }),
    ("lifecycle", "lifecycle/4/serve-first", lifecycle, || {
        let sim = lifecycle_sim(4, SEED, "serve-first");
        timed(|| sim.run()).1
    }),
    ("resilience", "resilience/100000/full", resilience, || {
        let sim = resilience_sim(100_000, SEED, "full");
        timed(|| sim.run()).1
    }),
    (
        "keepwarm",
        "keepwarm/mixed/qlearn/adaptive",
        keepwarm,
        || {
            let sim = serve_sim(zoo_spec("mixed", SEED), "qlearn", "adaptive");
            timed(|| sim.run()).1
        },
    ),
    ("topo", TOPO_REFERENCE, topo, || {
        let sim = topo_sim("edge-cloud", "workload-aware", SEED);
        timed(|| sim.run()).1
    }),
];

/// Everything that can abort a run, never as a panic. User mistakes
/// (bad flags; an unreadable, malformed or other-suite baseline; an
/// unwritable output; a report lacking the reference arm) exit 2; a
/// tripped gate or suite claim exits 1.
#[derive(Debug)]
enum BenchError {
    Usage(String),
    Regression(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "{msg}"),
            BenchError::Regression(msg) => write!(f, "REGRESSION: {msg}"),
        }
    }
}

impl BenchError {
    fn exit_code(&self) -> i32 {
        match self {
            BenchError::Usage(_) => 2,
            BenchError::Regression(_) => 1,
        }
    }
}

/// One timed arm of any suite.
#[derive(Debug, Serialize)]
struct Arm {
    /// `<suite>/<matrix coordinates>`.
    name: String,
    wall_ms: f64,
    /// Simulated requests (jobs for the fleet suite).
    items: u64,
    /// `items` per wall-clock second.
    items_per_s: f64,
    /// Simulated results: deterministic per seed, so an arm of the same
    /// name must agree exactly with the baseline's.
    outcome: Value,
    /// On its group's Pareto frontier; set by [`mark_pareto`].
    pareto: Option<bool>,
}

impl Arm {
    fn new(name: String, wall_ms: f64, items: u64, outcome: Value) -> Arm {
        let arm = Arm {
            name,
            wall_ms,
            items,
            items_per_s: per_s(items, wall_ms),
            outcome,
            pareto: None,
        };
        eprintln!(
            "{:<44} {:>9.1} ms {:>10.0} items/s  {}",
            arm.name, arm.wall_ms, arm.items_per_s, arm.outcome
        );
        arm
    }

    /// The arm's position on two numeric outcome axes.
    fn point(&self, (x, y): (&str, &str)) -> (f64, f64) {
        let axis = |field: &str| self.outcome[field].as_f64().expect("numeric outcome axis");
        (axis(x), axis(y))
    }
}

/// `winner` Pareto-dominates `loser` on the suite's outcome axes, both
/// arms serving trace `family`.
#[derive(Debug, Serialize)]
struct Win {
    family: String,
    winner: String,
    loser: String,
}

/// The seed batch: one arm's runs over `seeds`, timed at 1 thread and
/// at `threads`.
#[derive(Debug, Serialize)]
struct Scaling {
    /// `<suite>-batch/<arm>x<seed count>`.
    name: String,
    threads: usize,
    seeds: Vec<u64>,
    wall_ms_1t: f64,
    wall_ms_nt: f64,
    /// `wall_ms_1t / wall_ms_nt`.
    speedup_vs_1t: f64,
    /// `speedup_vs_1t / threads` (1.0 = perfect linear scaling).
    scaling_efficiency: f64,
}

/// Heap-vs-naive fleet engine wall-clock on the reference arm pair.
#[derive(Debug, Serialize)]
struct Speedup {
    reference: String,
    heap_wall_ms: f64,
    naive_wall_ms: f64,
    ratio: f64,
}

/// One suite run: what `--out` writes and `--baseline` reads back.
#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    suite: String,
    /// The suite's constants.
    config: Value,
    /// Resolved worker thread count for the seed batch.
    threads: usize,
    /// Cores available to this process.
    nproc: usize,
    arms: Vec<Arm>,
    /// Witnesses of the suite's Pareto claim (keepwarm and topo).
    wins: Vec<Win>,
    scaling: Scaling,
    speedup: Option<Speedup>,
}

impl Report {
    fn new(suite: &str, config: Value, threads: usize, arms: Vec<Arm>, scaling: Scaling) -> Self {
        Report {
            schema: "ce-bench/v3".to_string(),
            suite: suite.to_string(),
            config,
            threads,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            arms,
            wins: Vec::new(),
            scaling,
            speedup: None,
        }
    }

    /// Times the `reference` arm twice more with `rerun` and records
    /// the median of its three timings, so one slow run neither trips
    /// the gate nor sets a baseline.
    fn retime(&mut self, reference: &str, rerun: RerunFn) {
        let Some(arm) = self.arms.iter_mut().find(|a| a.name == reference) else {
            return; // the gate reports the missing arm
        };
        let mut ms = [arm.wall_ms, rerun(), rerun()];
        eprintln!(
            "{reference}: {:.1}, {:.1}, {:.1} ms; recording the median",
            ms[0], ms[1], ms[2]
        );
        ms.sort_by(f64::total_cmp);
        arm.wall_ms = ms[1];
        arm.items_per_s = per_s(arm.items, arm.wall_ms);
    }
}

/// `items` per wall-clock second, over `wall_ms` milliseconds.
fn per_s(items: u64, wall_ms: f64) -> f64 {
    items as f64 / (wall_ms / 1e3).max(1e-9)
}

/// Runs `f`, returning its result and wall-clock milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// One seed's run as text: its report JSON followed by its metric
/// export, recorded into a private registry.
fn seed_text<R: Serialize>(run: impl FnOnce(&Registry) -> R) -> String {
    let obs = Registry::new();
    let report = run(&obs);
    serde_json::to_string(&report).expect("report serializes") + &obs.export_jsonl()
}

/// The seed-batch timer: runs `run` for `n` seeds once at 1 thread and
/// once at `threads`, and fails unless the two batches are byte-equal.
fn time_seed_batch(
    name: String,
    n: u64,
    threads: usize,
    run: impl Fn(u64) -> String + Send + Sync,
) -> Result<Scaling, BenchError> {
    let seeds: Vec<u64> = (SEED..SEED + n).collect();
    let batch = || seeds.par_iter().map(|&seed| run(seed)).collect::<Vec<_>>();
    let (seq, wall_ms_1t) = timed(|| rayon::with_threads(1, batch));
    let (par, wall_ms_nt) = timed(|| rayon::with_threads(threads, batch));
    if seq != par {
        return Err(BenchError::Regression(format!(
            "the {threads}-thread batch of {name} diverged from the 1-thread batch"
        )));
    }
    let speedup = wall_ms_1t / wall_ms_nt.max(1e-9);
    eprintln!(
        "{name:<44} {wall_ms_1t:>9.1} ms @1t vs {wall_ms_nt:>9.1} ms @{threads}t  \
         ({speedup:.2}x, {:.0}% efficiency)",
        speedup / threads as f64 * 100.0
    );
    Ok(Scaling {
        name,
        threads,
        seeds,
        wall_ms_1t,
        wall_ms_nt,
        speedup_vs_1t: speedup,
        scaling_efficiency: speedup / threads as f64,
    })
}

/// The Pareto marker: flags each arm that no arm of the same `group`
/// dominates on the outcome `axes` (lower is better on both).
fn mark_pareto(arms: &mut [Arm], group: impl Fn(&Arm) -> String, axes: (&str, &str)) {
    let flags: Vec<bool> = arms
        .iter()
        .map(|a| {
            !arms
                .iter()
                .any(|o| group(o) == group(a) && dominates_point(o.point(axes), a.point(axes)))
        })
        .collect();
    for (arm, flag) in arms.iter_mut().zip(flags) {
        arm.pareto = Some(flag);
    }
}

/// The `winners` arms, in order, that dominate the `loser` arm on `axes`.
fn pareto_wins(
    arms: &[Arm],
    family: &str,
    loser: &str,
    winners: &[String],
    axes: (&str, &str),
) -> Vec<Win> {
    let arm = |name: &str| {
        arms.iter()
            .find(|a| a.name == name)
            .expect("claim arms always run")
    };
    let loser_point = arm(loser).point(axes);
    let wins: Vec<Win> = winners
        .iter()
        .filter(|w| dominates_point(arm(w).point(axes), loser_point))
        .map(|w| Win {
            family: family.to_string(),
            winner: w.clone(),
            loser: loser.to_string(),
        })
        .collect();
    for win in &wins {
        eprintln!("pareto win: {} dominates {}", win.winner, win.loser);
    }
    wins
}

/// The arms of a report read back as JSON.
fn arms_of(report: &Value) -> impl Iterator<Item = &Value> {
    report["arms"].as_array().into_iter().flatten()
}

/// The first outcome field on which two arms disagree.
fn drifted_field(old: &Value, new: &Value) -> Option<String> {
    let keys = |v: &Value| -> Vec<String> {
        v.as_object()
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    };
    keys(old)
        .into_iter()
        .chain(keys(new))
        .find(|k| !same_bits(&old[k.as_str()], &new[k.as_str()]))
}

/// Exact equality of two outcome values, compared as JSON text: floats
/// print in shortest round-trip form, so equal text means equal bits.
/// (`Value`'s `==` compares numbers by value, so `1` equals `1.0`.)
fn same_bits(a: &Value, b: &Value) -> bool {
    let (a, b) = (a.to_string(), b.to_string());
    a == b
}

/// The `--baseline` gate. The `reference` arm must be no more than
/// [`REGRESSION_FACTOR`] times slower than the baseline's; when both
/// batches ran at the same thread count above one, the fresh speedup
/// must be at least the baseline's over [`REGRESSION_FACTOR`]; and every
/// arm present in both reports must agree on every outcome field.
fn gate(reference: &str, base: &Value, fresh: &Value) -> Result<(), BenchError> {
    let wall_ms = |which: &'static str, report: &Value| {
        arms_of(report)
            .find(|a| a["name"] == reference)
            .and_then(|a| a["wall_ms"].as_f64())
            .ok_or_else(|| BenchError::Usage(format!("{which} report lacks the {reference} arm")))
    };
    let (base_ms, fresh_ms) = (wall_ms("baseline", base)?, wall_ms("fresh", fresh)?);

    for arm in arms_of(fresh) {
        let Some(old) = arms_of(base).find(|a| a["name"] == arm["name"]) else {
            continue;
        };
        if let Some(field) = drifted_field(&old["outcome"], &arm["outcome"]) {
            return Err(BenchError::Regression(format!(
                "outcome drift on {}: {field} is {} but the baseline has {}",
                arm["name"].as_str().unwrap_or_default(),
                arm["outcome"][field.as_str()],
                old["outcome"][field.as_str()]
            )));
        }
    }

    eprintln!(
        "threshold check: fresh {fresh_ms:.1} ms vs baseline {base_ms:.1} ms \
         (limit {:.1} ms)",
        base_ms * REGRESSION_FACTOR
    );
    if fresh_ms > base_ms * REGRESSION_FACTOR {
        return Err(BenchError::Regression(format!(
            "the {reference} benchmark is more than {REGRESSION_FACTOR}x slower \
             than the committed baseline"
        )));
    }

    let (base, fresh) = (&base["scaling"], &fresh["scaling"]);
    let threads = fresh["threads"].as_u64().unwrap_or(0);
    if threads > 1 && base["threads"].as_u64() == Some(threads) {
        let speedup = |s: &Value| s["speedup_vs_1t"].as_f64().unwrap_or(0.0);
        let (base_x, fresh_x) = (speedup(base), speedup(fresh));
        eprintln!(
            "scaling check: fresh {fresh_x:.2}x vs baseline {base_x:.2}x at {threads} threads"
        );
        if fresh_x < base_x / REGRESSION_FACTOR {
            return Err(BenchError::Regression(format!(
                "parallel speedup on {} collapsed: fresh {fresh_x:.2}x vs committed \
                 {base_x:.2}x at {threads} threads",
                fresh["name"]
            )));
        }
    }
    Ok(())
}

/// Fleet suite: arrival rate (jobs per minute), shared account quota,
/// per-job worker cap, and the chaos arms' fault schedule.
const RATE_PER_MIN: f64 = 120.0;
const QUOTA: u32 = 400;
const JOB_CAP: u32 = 8;
const CHAOS_SPEC: &str = "crash:0.05@0..inf;outage:s3@1800..3600";
/// The heap/naive arm pair behind the engine speedup figure.
const FLEET_PAIR: &str = "fleet/2000/fifo/clean";

fn fleet_sim(jobs: usize, seed: u64, policy: &str, chaos: bool, engine: FleetEngine) -> ClusterSim {
    let mut spec = ClusterSpec::new(FleetSpec::poisson(jobs, RATE_PER_MIN, seed), QUOTA)
        .with_job_cap(JOB_CAP)
        .with_recovery(RecoveryPolicy::CheckpointResume)
        .with_checkpoint_every(5)
        .with_engine(engine);
    if chaos {
        spec = spec.with_chaos(FaultSchedule::parse(CHAOS_SPEC).expect("chaos spec parses"));
    }
    ClusterSim::new(spec, policy_by_name(policy).expect("known policy"))
}

/// One fleet arm. The **heap** engine runs the shipping indexed
/// ready-set dispatch; the **naive** engine is its differential oracle,
/// linear-scan dispatch. Both give bit-identical outcomes.
fn fleet_arm(jobs: usize, policy: &str, chaos: bool, engine: FleetEngine) -> Arm {
    let engine_name = match engine {
        FleetEngine::Heap => "heap",
        FleetEngine::Naive => "naive",
    };
    let registry = Registry::new();
    let sim = fleet_sim(jobs, SEED, policy, chaos, engine).with_obs(&registry);
    let (report, wall_ms) = timed(|| sim.run());
    let variant = if chaos { "chaos" } else { "clean" };
    Arm::new(
        format!("fleet/{jobs}/{policy}/{variant}/{engine_name}"),
        wall_ms,
        jobs as u64,
        json!({
            "jobs": jobs,
            "policy": policy,
            "chaos": chaos,
            "engine": engine_name,
            "completed": report.count(ce_cluster::JobStatus::Completed),
            "fleet_dollars": report.fleet_dollars,
        }),
    )
}

fn fleet(quick: bool, threads: usize) -> Result<Report, BenchError> {
    let sizes: &[usize] = if quick {
        &[500, 2000]
    } else {
        &[500, 2000, 10_000]
    };
    let mut arms = Vec::new();
    for &jobs in sizes {
        for policy in ["fifo", "edf", "cost-greedy"] {
            for chaos in [false, true] {
                arms.push(fleet_arm(jobs, policy, chaos, FleetEngine::Heap));
            }
        }
    }
    // No 10k naive arm: the quadratic dispatch scan makes it minutes of
    // wall-clock for no extra information.
    for jobs in [500, 2000] {
        for chaos in [false, true] {
            if quick && (jobs != 2000 || chaos) {
                continue; // CI smoke only needs the reference pair
            }
            arms.push(fleet_arm(jobs, "fifo", chaos, FleetEngine::Naive));
        }
    }

    // The claim: each naive arm reproduces its heap twin exactly.
    for naive in arms.iter().filter(|a| a.name.ends_with("/naive")) {
        let twin_name = naive.name.replace("/naive", "/heap");
        let twin = arms.iter().find(|a| a.name == twin_name);
        let twin = twin.expect("every naive arm has a heap twin");
        for field in ["completed", "fleet_dollars"] {
            if !same_bits(&naive.outcome[field], &twin.outcome[field]) {
                return Err(BenchError::Regression(format!(
                    "engines diverged on {}: {field} is {} but {twin_name} has {}",
                    naive.name, naive.outcome[field], twin.outcome[field]
                )));
            }
        }
    }
    let wall_ms = |engine: &str| {
        let name = format!("{FLEET_PAIR}/{engine}");
        let arm = arms.iter().find(|a| a.name == name);
        arm.expect("the reference pair always runs").wall_ms
    };
    let (heap_wall_ms, naive_wall_ms) = (wall_ms("heap"), wall_ms("naive"));
    let ratio = naive_wall_ms / heap_wall_ms;
    eprintln!(
        "speedup at {FLEET_PAIR}: {ratio:.2}x (heap {heap_wall_ms:.1} ms vs naive \
         {naive_wall_ms:.1} ms)"
    );
    let speedup = Some(Speedup {
        reference: FLEET_PAIR.to_string(),
        heap_wall_ms,
        naive_wall_ms,
        ratio,
    });

    let jobs = *sizes.last().expect("the matrix has a largest size");
    let scaling = time_seed_batch(
        format!("fleet-batch/{jobs}x{BATCH_SEEDS}"),
        BATCH_SEEDS,
        threads,
        |seed| {
            seed_text(|obs| {
                fleet_sim(jobs, seed, "fifo", false, FleetEngine::Heap)
                    .with_obs(obs)
                    .run()
            })
        },
    )?;
    let config = json!({
        "rate_per_min": RATE_PER_MIN,
        "quota": QUOTA,
        "job_cap": JOB_CAP,
        "seed": SEED,
        "chaos_spec": CHAOS_SPEC,
    });
    Ok(Report {
        speedup,
        ..Report::new("fleet", config, threads, arms, scaling)
    })
}

/// Serve suite: diurnal base rate (requests per second) and latency SLO
/// (milliseconds), shared by the resilience suite; the SLO also by the
/// zoo suites.
const SERVE_RPS: f64 = 200.0;
const SERVE_SLO_MS: f64 = 800.0;

fn serve_spec(target_requests: u64, seed: u64) -> ServeSpec {
    // Open-loop rate is fixed; scale comes from the arrival window. One
    // day/night cycle per 500 s keeps the diurnal shape at every size.
    let duration_s = target_requests as f64 / SERVE_RPS;
    ServeSpec::new(
        ce_serve::ArrivalModel::Diurnal {
            base_rps: SERVE_RPS,
            amplitude: 0.8,
            period_s: 500.0,
        },
        duration_s,
        seed,
    )
    .with_slo_ms(SERVE_SLO_MS)
}

fn serve_sim(spec: ServeSpec, autoscaler: &str, keep_alive: &str) -> ServeSim {
    ServeSim::new(
        spec,
        ce_serve::autoscaler_by_name(autoscaler).expect("known autoscaler"),
        ce_faas::parse_keep_alive(keep_alive).expect("known keep-alive"),
    )
}

/// Times one serving arm, reading its outcome off the report.
fn serve_arm(name: String, sim: ServeSim, outcome: impl FnOnce(&ServeReport) -> Value) -> Arm {
    let (report, wall_ms) = timed(|| sim.run());
    Arm::new(name, wall_ms, report.requests, outcome(&report))
}

fn serve(quick: bool, threads: usize) -> Result<Report, BenchError> {
    let scales: &[u64] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut arms = Vec::new();
    for &requests in scales {
        for (autoscaler, keep_alive) in [
            ("target", "adaptive"),
            ("fixed:64", "fixed:600"),
            ("prewarm", "histogram"),
        ] {
            let sim = serve_sim(serve_spec(requests, SEED), autoscaler, keep_alive);
            arms.push(serve_arm(
                format!("serve/{requests}/{autoscaler}/{keep_alive}"),
                sim,
                |r| {
                    json!({
                        "requests": r.requests,
                        "autoscaler": autoscaler,
                        "keep_alive": keep_alive,
                        "completed": r.completed,
                        "violation_rate": r.violation_rate(),
                        "dollars": r.dollars,
                    })
                },
            ));
        }
    }
    let requests = *scales.last().expect("the matrix has a largest scale");
    let scaling = time_seed_batch(
        format!("serve-batch/{requests}x{BATCH_SEEDS}"),
        BATCH_SEEDS,
        threads,
        |seed| {
            seed_text(|obs| {
                serve_sim(serve_spec(requests, seed), "target", "adaptive")
                    .with_obs(obs)
                    .run()
            })
        },
    )?;
    let config = json!({"rps": SERVE_RPS, "slo_ms": SERVE_SLO_MS, "seed": SEED});
    Ok(Report::new("serve", config, threads, arms, scaling))
}

/// Lifecycle suite: per-tenant request rate, serve-arrival window
/// (seconds), shared quota, training wave-width cap, and mean drift
/// interval (seconds).
const LIFECYCLE_RPS: f64 = 4.0;
const LIFECYCLE_DURATION_S: f64 = 300.0;
const LIFECYCLE_QUOTA: u32 = 32;
const LIFECYCLE_JOB_CAP: u32 = 8;
const LIFECYCLE_DRIFT_S: f64 = 150.0;

fn lifecycle_sim(tenants: u32, seed: u64, priority: &str) -> ce_lifecycle::LifecycleSim {
    let spec = ce_lifecycle::LifecycleSpec::new(tenants, LIFECYCLE_DURATION_S, seed)
        .with_quota(LIFECYCLE_QUOTA)
        .with_job_cap(LIFECYCLE_JOB_CAP)
        .with_rps(LIFECYCLE_RPS)
        .with_drift_mean_s(LIFECYCLE_DRIFT_S);
    let policy = ce_lifecycle::priority_by_name(priority).expect("known priority policy");
    ce_lifecycle::LifecycleSim::new(spec, policy)
}

fn lifecycle(quick: bool, threads: usize) -> Result<Report, BenchError> {
    let sizes: &[u32] = if quick { &[4] } else { &[4, 8] };
    let mut arms = Vec::new();
    for &tenants in sizes {
        for &priority in ce_lifecycle::priority_names() {
            let sim = lifecycle_sim(tenants, SEED, priority);
            let (r, wall_ms) = timed(|| sim.run());
            arms.push(Arm::new(
                format!("lifecycle/{tenants}/{priority}"),
                wall_ms,
                r.requests(),
                json!({
                    "tenants": tenants,
                    "priority": priority,
                    "requests": r.requests(),
                    "serve_violation_rate": r.serve_violation_rate(),
                    "train_miss_rate": r.train_miss_rate(),
                    "preemptions": r.preemptions(),
                    "dollars": r.total_dollars(),
                }),
            ));
        }
    }
    let tenants = *sizes.last().expect("the matrix has a largest size");
    let scaling = time_seed_batch(
        format!("lifecycle-batch/{tenants}x{BATCH_SEEDS}"),
        BATCH_SEEDS,
        threads,
        |seed| {
            seed_text(|obs| {
                lifecycle_sim(tenants, seed, "serve-first")
                    .with_obs(obs)
                    .run()
            })
        },
    )?;
    let config = json!({
        "rps": LIFECYCLE_RPS,
        "duration_s": LIFECYCLE_DURATION_S,
        "quota": LIFECYCLE_QUOTA,
        "job_cap": LIFECYCLE_JOB_CAP,
        "seed": SEED,
    });
    Ok(Report::new("lifecycle", config, threads, arms, scaling))
}

/// Resilience suite: steady crashes plus cold spikes, so retries, hedges,
/// timeouts and the breaker all exercise.
const RESILIENCE_CHAOS: &str = "crash:0.2@0..inf;coldspike:x4@0..inf";

/// The breaker the bench arms run. Under coldspike chaos, crashes
/// resolve long before cold successes, so the first outcome window is
/// crash-dominated and trips at any threshold (fast-fail survivorship
/// bias); a threshold above the ambient 20% crash rate plus a short
/// cooldown keeps the arm timing the window-feed hot path instead of
/// spending the whole run shedding.
fn bench_breaker() -> ce_resilience::BreakerSpec {
    ce_resilience::BreakerSpec {
        failure_threshold: 0.8,
        window: 20,
        min_samples: 10,
        cooldown_s: 5.0,
    }
}

/// The standard diurnal load under [`RESILIENCE_CHAOS`], with `config`'s
/// mechanisms switched on. Prewarm absorbs bursts into cold starts,
/// which is exactly the variance hedges and timeouts act on.
fn resilience_sim(target_requests: u64, seed: u64, config: &str) -> ServeSim {
    use ce_resilience::{BrownoutSpec, HedgePolicy, ResilienceSpec, RetryPolicy};
    let mut res = ResilienceSpec::disabled();
    if matches!(config, "timeout" | "full") {
        res.timeout_ms = Some(2000.0);
    }
    if matches!(config, "retry" | "full") {
        res.retry = Some(RetryPolicy::new(2));
        res.retry_budget = Some(0.5);
    }
    if matches!(config, "hedge" | "full") {
        res.hedge = Some(HedgePolicy::P95);
    }
    if matches!(config, "breaker" | "full") {
        res.breaker = Some(bench_breaker());
    }
    if config == "full" {
        res.brownout = Some(BrownoutSpec::new(0.6));
    }
    let mut spec = serve_spec(target_requests, seed)
        .with_chaos(FaultSchedule::parse(RESILIENCE_CHAOS).expect("chaos spec parses"));
    if res.enabled() {
        spec = spec.with_resilience(res);
    }
    serve_sim(spec, "prewarm", "fixed:60")
}

fn resilience(quick: bool, threads: usize) -> Result<Report, BenchError> {
    let scales: &[u64] = if quick {
        &[100_000]
    } else {
        &[10_000, 100_000]
    };
    let mut arms = Vec::new();
    for &requests in scales {
        for config in ["off", "timeout", "retry", "hedge", "breaker", "full"] {
            let sim = resilience_sim(requests, SEED, config);
            arms.push(serve_arm(
                format!("resilience/{requests}/{config}"),
                sim,
                |r| {
                    json!({
                        "requests": r.requests,
                        "config": config,
                        "completed": r.completed,
                        "failed": r.failed,
                        "attempts": r.attempts,
                        "violation_rate": r.violation_rate(),
                        "dollars": r.dollars,
                    })
                },
            ));
        }
    }
    // The claim, a cheap check that the pipeline ran: every settled
    // request took at least one billed attempt.
    for arm in &arms {
        let count = |field: &str| arm.outcome[field].as_u64().unwrap_or(0);
        if count("attempts") < count("completed") + count("failed") {
            return Err(BenchError::Regression(format!(
                "attempts undercount settled requests on {}",
                arm.name
            )));
        }
    }
    let requests = *scales.last().expect("the matrix has a largest scale");
    let scaling = time_seed_batch(
        format!("resilience-batch/{requests}x{BATCH_SEEDS}"),
        BATCH_SEEDS,
        threads,
        |seed| seed_text(|obs| resilience_sim(requests, seed, "full").with_obs(obs).run()),
    )?;
    let config = json!({
        "rps": SERVE_RPS,
        "slo_ms": SERVE_SLO_MS,
        "chaos_spec": RESILIENCE_CHAOS,
        "seed": SEED,
    });
    Ok(Report::new("resilience", config, threads, arms, scaling))
}

/// Serve spec for the zoo suites: one trace family over one diurnal
/// period (600 s) under the standard SLO.
const ZOO_DURATION_S: f64 = 600.0;

fn zoo_spec(family: &str, seed: u64) -> ServeSpec {
    let zoo = ce_serve::parse_zoo(family).expect("known zoo family");
    ServeSpec::new(
        ce_serve::ArrivalModel::Zoo { spec: zoo },
        ZOO_DURATION_S,
        seed,
    )
    .with_slo_ms(SERVE_SLO_MS)
}

/// Keepwarm suite axes. `fixed:18` is the peak-provisioned static pool
/// for the flagship presets: mean concurrency (40 rps × 0.25 s = 10)
/// times the diurnal crest factor (1 + amplitude 0.8). It pays warm idle
/// through every trough yet still queues through bursts — the policy the
/// learned scaler should dominate.
const KEEPWARM_AUTOSCALERS: [&str; 4] = ["fixed:18", "target", "prewarm", "qlearn"];
const KEEPWARM_KEEPALIVES: [&str; 3] = ["fixed:600", "adaptive", "histogram"];

fn keepwarm(quick: bool, threads: usize) -> Result<Report, BenchError> {
    let families: &[&str] = if quick {
        &["mixed", "diurnal"]
    } else {
        &["mixed", "steady", "diurnal", "bursty", "coldtail"]
    };
    let mut arms = Vec::new();
    for &family in families {
        for autoscaler in KEEPWARM_AUTOSCALERS {
            for keep_alive in KEEPWARM_KEEPALIVES {
                let sim = serve_sim(zoo_spec(family, SEED), autoscaler, keep_alive);
                let name = format!("keepwarm/{family}/{autoscaler}/{keep_alive}");
                arms.push(serve_arm(name, sim, |r| {
                    json!({
                        "family": family,
                        "autoscaler": autoscaler,
                        "keep_alive": keep_alive,
                        "requests": r.requests,
                        "completed": r.completed,
                        "cold_starts": r.cold_starts,
                        "violation_rate": r.violation_rate(),
                        "cost_per_million": r.cost_per_million(),
                        "idle_gb_s": r.idle_gb_s,
                        "dollars": r.dollars,
                    })
                }));
            }
        }
    }
    let axes = ("violation_rate", "cost_per_million");
    mark_pareto(&mut arms, |a| a.outcome["family"].to_string(), axes);
    // The claim: the learned scaler with an adaptive keep-alive beats the
    // static pool with a fixed TTL outright in some family.
    let wins: Vec<Win> = families
        .iter()
        .flat_map(|family| {
            let winners =
                ["adaptive", "histogram"].map(|k| format!("keepwarm/{family}/qlearn/{k}"));
            let loser = format!("keepwarm/{family}/fixed:18/fixed:600");
            pareto_wins(&arms, family, &loser, &winners, axes)
        })
        .collect();
    if wins.is_empty() {
        return Err(BenchError::Regression(
            "no (qlearn, adaptive|histogram) arm Pareto-dominates the (fixed, fixed-TTL) arm \
             on (violation %, $/1M) in any trace family"
                .to_string(),
        ));
    }
    // The batch times the first family's static-pool arm.
    let family = families[0];
    let scaling = time_seed_batch(
        format!("keepwarm-batch/{family}x{ZOO_BATCH_SEEDS}"),
        ZOO_BATCH_SEEDS,
        threads,
        |seed| {
            seed_text(|obs| {
                serve_sim(zoo_spec(family, seed), "fixed:18", "fixed:600")
                    .with_obs(obs)
                    .run()
            })
        },
    )?;
    let config = json!({"duration_s": ZOO_DURATION_S, "slo_ms": SERVE_SLO_MS, "seed": SEED});
    Ok(Report {
        wins,
        ..Report::new("keepwarm", config, threads, arms, scaling)
    })
}

/// Topo suite: every arm serves this zoo family with the same
/// autoscaler/keep-alive pair, so arms vary only in substrate and
/// placement. The slack-provisioned autoscaler keeps capacity ahead of
/// the diurnal ramp on every substrate, so tail latency reflects the
/// topology (RTT, cold class, queue spill) rather than per-pool
/// autoscaler lag.
const TOPO_FAMILY: &str = "diurnal";
const TOPO_AUTOSCALER: &str = "prewarm";
const TOPO_KEEPALIVE: &str = "adaptive";
/// Cloud-only baseline: one deep pool behind a WAN round trip. This is
/// what the edge+cloud substrate has to beat on *both* axes.
const TOPO_CLOUD_ONLY: &str = "pool:cloud,rtt=40";
/// Edge-only stress arm: close and cheap, but shallow — the quota bites
/// under the diurnal peak.
const TOPO_EDGE_ONLY: &str = "pool:edge,quota=8,rtt=5,price=0.6,compute=1.25,cold=0.5";
const TOPO_REFERENCE: &str = "topo/edge-cloud/workload-aware";

fn topo_sim(topology: &str, placement: &str, seed: u64) -> ServeSim {
    let topology = ce_topo::parse_topology(topology).expect("topology spec parses");
    let spec = zoo_spec(TOPO_FAMILY, seed)
        .with_topology(topology)
        .with_placement(placement);
    serve_sim(spec, TOPO_AUTOSCALER, TOPO_KEEPALIVE)
}

fn topo(quick: bool, threads: usize) -> Result<Report, BenchError> {
    let placements: &[&str] = if quick {
        &["edge-first", "workload-aware"]
    } else {
        ce_topo::placement_names()
    };
    let mut substrates = vec![("cloud-only", TOPO_CLOUD_ONLY, "edge-first")];
    if !quick {
        substrates.push(("edge-only", TOPO_EDGE_ONLY, "edge-first"));
    }
    substrates.extend(placements.iter().map(|&p| ("edge-cloud", "edge-cloud", p)));
    let mut arms = Vec::new();
    for (substrate, topology, placement) in substrates {
        let sim = topo_sim(topology, placement, SEED);
        arms.push(serve_arm(
            format!("topo/{substrate}/{placement}"),
            sim,
            |r| {
                // Fraction of requests routed to the edge pool (0 when the
                // substrate has no pool named `edge`).
                let edge_share = r
                    .pools
                    .iter()
                    .find(|p| p.name == "edge")
                    .map_or(0.0, |p| p.requests as f64 / r.requests.max(1) as f64);
                json!({
                    "substrate": substrate,
                    "placement": placement,
                    "requests": r.requests,
                    "completed": r.completed,
                    "cold_starts": r.cold_starts,
                    "p95_ms": r.p95_ms,
                    "violation_rate": r.violation_rate(),
                    "cost_per_million": r.cost_per_million(),
                    "dollars": r.dollars,
                    "edge_share": edge_share,
                })
            },
        ));
    }
    // One suite-wide frontier: every arm answers the same trace.
    let axes = ("p95_ms", "cost_per_million");
    mark_pareto(&mut arms, |_| String::new(), axes);
    // The claim: splitting the fleet across a shallow edge and a deep
    // cloud, with workload-aware placement, beats renting the cloud alone
    // on latency AND dollars.
    let winners: Vec<String> = placements
        .iter()
        .map(|p| format!("topo/edge-cloud/{p}"))
        .collect();
    let loser = "topo/cloud-only/edge-first";
    let wins = pareto_wins(&arms, TOPO_FAMILY, loser, &winners, axes);
    if !wins.iter().any(|w| w.winner == TOPO_REFERENCE) {
        return Err(BenchError::Regression(format!(
            "{TOPO_REFERENCE} does not Pareto-dominate {loser} on (p95 ms, $/1M)"
        )));
    }
    // Placement draws come from the forked "topo" stream, so the batch's
    // byte-equality also covers the placement path.
    let scaling = time_seed_batch(
        format!("topo-batch/edge-cloud x{ZOO_BATCH_SEEDS}"),
        ZOO_BATCH_SEEDS,
        threads,
        |seed| {
            seed_text(|obs| {
                topo_sim("edge-cloud", "workload-aware", seed)
                    .with_obs(obs)
                    .run()
            })
        },
    )?;
    let config = json!({"duration_s": ZOO_DURATION_S, "slo_ms": SERVE_SLO_MS, "seed": SEED});
    Ok(Report {
        wins,
        ..Report::new("topo", config, threads, arms, scaling)
    })
}

/// Loads a `--baseline` report and checks it belongs to `suite`.
fn read_baseline(path: &str, suite: &str) -> Result<Value, BenchError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| BenchError::Usage(format!("cannot read baseline {path}: {e}")))?;
    let base: Value = serde_json::from_str(&text)
        .map_err(|e| BenchError::Usage(format!("cannot parse baseline {path}: {e}")))?;
    if base["suite"] != suite {
        return Err(BenchError::Usage(format!(
            "baseline {path} is not a {suite} report (its suite is {})",
            base["suite"]
        )));
    }
    Ok(base)
}

fn real_main() -> Result<(), BenchError> {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut suite = String::from("fleet");
    let mut baseline: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    let need = |flag: &str, value: Option<String>| -> Result<String, BenchError> {
        value.ok_or_else(|| BenchError::Usage(format!("{flag} needs a value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(need("--out", args.next())?),
            "--suite" => suite = need("--suite", args.next())?,
            "--baseline" => baseline = Some(need("--baseline", args.next())?),
            "--threads" => {
                let raw = need("--threads", args.next())?;
                let n = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        BenchError::Usage(format!(
                            "--threads needs a positive integer, got {raw:?}"
                        ))
                    })?;
                threads = Some(n);
            }
            other => {
                return Err(BenchError::Usage(format!(
                    "unknown flag: {other} (expected --quick, --out, --suite, --baseline, \
                     --threads)"
                )));
            }
        }
    }
    let Some(&(_, reference, run, rerun)) = SUITES.iter().find(|(name, ..)| *name == suite) else {
        return Err(BenchError::Usage(format!(
            "unknown suite: {suite} (expected fleet, serve, lifecycle, resilience, keepwarm, \
             or topo)"
        )));
    };
    // Load the baseline up front: a missing, malformed or mismatched file
    // should fail in milliseconds, not after minutes of benchmarking.
    let base = baseline
        .map(|path| read_baseline(&path, &suite))
        .transpose()?;
    let threads = match threads {
        Some(n) => {
            rayon::set_threads(n);
            n
        }
        None => rayon::current_threads(),
    };
    eprintln!("worker threads: {threads}");
    let mut report = run(quick, threads)?;
    report.retime(reference, rerun);
    let out = out.unwrap_or_else(|| format!("BENCH_{suite}.json"));
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n")
        .map_err(|e| BenchError::Usage(format!("cannot write report to {out}: {e}")))?;
    eprintln!("wrote {out}");
    match base {
        Some(base) => gate(reference, &base, &serde_json::to_value(&report)),
        None => Ok(()),
    }
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("ce-bench: {e}");
        std::process::exit(e.exit_code());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-arm report: the reference arm's wall time and outcome, and
    /// the seed batch's thread count and speedup.
    fn report(wall_ms: f64, outcome: Value, threads: u64, speedup: f64) -> Value {
        json!({
            "arms": [{"name": "ref", "wall_ms": wall_ms, "outcome": outcome}],
            "scaling": {"name": "batch", "threads": threads, "speedup_vs_1t": speedup},
        })
    }

    #[test]
    fn the_reference_arm_records_the_median_of_three_timings() {
        let scaling = Scaling {
            name: "batch".to_string(),
            threads: 1,
            seeds: vec![SEED],
            wall_ms_1t: 1.0,
            wall_ms_nt: 1.0,
            speedup_vs_1t: 1.0,
            scaling_efficiency: 1.0,
        };
        let arms = vec![
            Arm::new("ref".to_string(), 90.0, 50, outcome()),
            Arm::new("other".to_string(), 90.0, 50, outcome()),
        ];
        let mut report = Report::new("fleet", json!({}), 1, arms, scaling);
        // A slow first run is outvoted by two normal reruns.
        report.retime("ref", || 10.0);
        assert_eq!(report.arms[0].wall_ms, 10.0);
        assert_eq!(report.arms[0].items_per_s, 5000.0);
        assert_eq!(report.arms[1].wall_ms, 90.0);
    }

    fn outcome() -> Value {
        json!({"completed": 10, "dollars": 0.1})
    }

    fn exit_code(base: &Value, fresh: &Value) -> i32 {
        gate("ref", base, fresh).map_or_else(|e| e.exit_code(), |()| 0)
    }

    #[test]
    fn wall_clock_within_2x_passes_and_beyond_fails() {
        let base = report(100.0, outcome(), 2, 1.8);
        assert_eq!(exit_code(&base, &report(50.0, outcome(), 2, 1.8)), 0);
        assert_eq!(exit_code(&base, &report(200.0, outcome(), 2, 1.8)), 0);
        assert_eq!(exit_code(&base, &report(200.1, outcome(), 2, 1.8)), 1);
    }

    #[test]
    fn scaling_collapse_is_checked_only_at_equal_thread_counts_above_one() {
        let base = report(100.0, outcome(), 2, 1.8);
        assert_eq!(exit_code(&base, &report(100.0, outcome(), 2, 0.9)), 0);
        assert_eq!(exit_code(&base, &report(100.0, outcome(), 2, 0.89)), 1);
        // A different thread count is a different measurement.
        assert_eq!(exit_code(&base, &report(100.0, outcome(), 4, 0.5)), 0);
        // At one thread the speedup is noise around 1.0.
        let single = report(100.0, outcome(), 1, 1.8);
        assert_eq!(exit_code(&single, &report(100.0, outcome(), 1, 0.5)), 0);
    }

    #[test]
    fn missing_reference_arm_exits_2() {
        let good = report(100.0, outcome(), 2, 1.8);
        let mut renamed = report(100.0, outcome(), 2, 1.8);
        renamed["arms"].as_array_mut().unwrap()[0]["name"] = json!("other");
        for (base, fresh) in [(&renamed, &good), (&good, &renamed)] {
            let err = gate("ref", base, fresh).unwrap_err();
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains("lacks the ref arm"), "{err}");
        }
    }

    #[test]
    fn outcome_drift_exits_1_naming_the_arm_and_field() {
        let base = report(100.0, outcome(), 2, 1.8);
        let nudged = json!({"completed": 10, "dollars": 0.1f64.next_up()});
        let added = json!({"completed": 10, "dollars": 0.1, "failed": 0});
        let retyped = json!({"completed": 10.0, "dollars": 0.1});
        for (fresh, field) in [
            (nudged, "dollars"),
            (added, "failed"),
            (retyped, "completed"),
        ] {
            let err = gate("ref", &base, &report(100.0, fresh, 2, 1.8)).unwrap_err();
            assert_eq!(err.exit_code(), 1);
            let msg = err.to_string();
            assert!(msg.contains(&format!("on ref: {field} ")), "{msg}");
        }
    }

    #[test]
    fn seed_batches_of_small_sims_are_byte_equal_at_any_thread_count() {
        let fleet = |seed| {
            let spec = ClusterSpec::new(FleetSpec::poisson(12, 8.0, seed), 40);
            let sim = ClusterSim::new(spec, policy_by_name("edf").unwrap());
            seed_text(|obs| sim.with_obs(obs).run())
        };
        let lifecycle = |seed| {
            let spec = ce_lifecycle::LifecycleSpec::new(3, 120.0, seed)
                .with_quota(12)
                .with_job_cap(8)
                .with_rps(6.0)
                .with_drift_mean_s(60.0);
            let policy = ce_lifecycle::priority_by_name("serve-first").unwrap();
            let sim = ce_lifecycle::LifecycleSim::new(spec, policy);
            seed_text(|obs| sim.with_obs(obs).run())
        };
        for threads in [2, 4] {
            time_seed_batch("fleet".into(), 5, threads, fleet).unwrap();
            time_seed_batch("lifecycle".into(), 4, threads, lifecycle).unwrap();
        }
    }

    #[test]
    fn a_batch_whose_text_depends_on_the_thread_diverges() {
        let thread = |_| format!("{:?}", std::thread::current().id());
        let err = time_seed_batch("ids".into(), 4, 2, thread).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("ids diverged"), "{err}");
    }

    #[test]
    fn arms_missing_from_the_baseline_are_not_drift() {
        let base = report(100.0, outcome(), 2, 1.8);
        let mut fresh = report(100.0, outcome(), 2, 1.8);
        let extra = json!({"name": "new", "wall_ms": 1.0, "outcome": {"completed": 99}});
        fresh["arms"].as_array_mut().unwrap().push(extra);
        assert_eq!(exit_code(&base, &fresh), 0);
    }
}
