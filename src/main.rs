//! The `ce-scaling` command-line interface: profile workloads, plan
//! tuning brackets, and run simulated training jobs from the shell.
//!
//! ```text
//! ce-scaling profile      --model mobilenet --dataset cifar10
//! ce-scaling plan-tuning  --model lr --dataset higgs --trials 1024 --budget 300
//! ce-scaling train        --model mobilenet --dataset cifar10 --budget 30 --method ce
//! ce-scaling storage      --model lr --dataset higgs -n 10
//! ce-scaling cluster      --jobs 40 --rate 12 --policy edf --quota 60
//! ce-scaling serve        --arrivals diurnal --rps 25 --duration 600 --autoscaler target
//! ce-scaling lifecycle    --tenants 4 --duration 300 --quota 32 --policy fair-share
//! ```

use ce_scaling::chaos::FaultSchedule;
use ce_scaling::faas::PlatformConfig;
use ce_scaling::models::{Allocation, CostModel, Environment, Workload};
use ce_scaling::pareto::ParetoProfiler;
use ce_scaling::resilience::{BreakerSpec, BrownoutSpec, HedgePolicy, ResilienceSpec, RetryPolicy};
use ce_scaling::storage::StorageKind;
use ce_scaling::tuning::{PartitionPlan, ShaSpec};
use ce_scaling::workflow::{Constraint, Method, RecoveryPolicy, TrainingJob, TuningJob};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_and_exit(None);
    };
    match command.as_str() {
        // run-config takes a file path, not flag options.
        "run-config" => cmd_run_config(&args[1..]),
        "help" | "--help" | "-h" => usage_and_exit(None),
        "profile" | "plan-tuning" | "train" | "storage" | "cluster" | "serve" | "lifecycle" => {
            let opts = Opts::parse(&args[1..]);
            match command.as_str() {
                "profile" => cmd_profile(&opts),
                "plan-tuning" => cmd_plan_tuning(&opts),
                "train" => cmd_train(&opts),
                "cluster" => cmd_cluster(&opts),
                "serve" => cmd_serve(&opts),
                "lifecycle" => cmd_lifecycle(&opts),
                _ => cmd_storage(&opts),
            }
            if let Some(path) = &opts.metrics {
                // Every command binds its jobs to the process-global ce-obs
                // registry; the dump is the deterministic JSONL metrics
                // stream.
                std::fs::write(path, ce_scaling::obs::global().export_jsonl()).unwrap_or_else(
                    |e| {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(1);
                    },
                );
                eprintln!("metrics written to {path}");
            }
        }
        other => usage_and_exit(Some(other)),
    }
}

/// `run-config <file.json>`: run a declarative scenario and print its
/// reports as JSON.
fn cmd_run_config(args: &[String]) {
    use ce_scaling::workflow::Scenario;
    let Some(path) = args.first() else {
        eprintln!("usage: ce-scaling run-config <scenario.json>");
        std::process::exit(2);
    };
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let scenario = Scenario::from_json(&json).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    match scenario.run() {
        Ok(outcome) => println!(
            "{}",
            serde_json::to_string_pretty(&outcome).expect("serializable")
        ),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn usage_and_exit(unknown: Option<&str>) -> ! {
    if let Some(cmd) = unknown {
        eprintln!("unknown command: {cmd}\n");
    }
    eprintln!(
        "usage: ce-scaling <command> [options]\n\n\
         commands:\n  \
           profile      profile the allocation space, print the Pareto boundary\n  \
           plan-tuning  plan an SHA bracket with Algorithm 1\n  \
           train        simulate a training job under a scheduling method\n  \
           storage      compare external storage services for a workload\n  \
           cluster      simulate a multi-tenant fleet sharing one account quota\n  \
           serve        simulate request-level inference serving against an SLO\n  \
           lifecycle    co-locate training and serving on one shared quota\n  \
           run-config   run a declarative JSON scenario (see workflow::scenario)\n\n\
         options:\n  \
           --model lr|svm|mobilenet|resnet50|bert     (default lr)\n  \
           --dataset higgs|yfcc|cifar10|imdb          (default matches model)\n  \
           --trials N        SHA initial trials, power of 2 (default 256)\n  \
           --budget X        budget in dollars\n  \
           --deadline S      deadline in seconds\n  \
           --method ce|lambdaml|siren|cirrus|fixed    (default ce)\n  \
           --seed N          RNG seed (default 42)\n  \
           -n N              functions for `storage` (default 10)\n  \
           --failure-rate P  inject worker failures (train)\n  \
           --jobs N          fleet size for `cluster` (default 40)\n  \
           --rate R          Poisson arrival rate, jobs/min (default 12)\n  \
           --policy P        fifo|edf|cost-greedy|reject-on-overload (default fifo)\n  \
           --quota N         account concurrency quota (default 60)\n  \
           --job-cap N       per-job concurrency ceiling (default: the quota)\n  \
           --engine E        heap|naive fleet dispatch core (default heap)\n  \
           --chaos SPEC      fault schedule, e.g. 'crash:0.1@0..inf;outage:s3@600..1800'\n  \
                             (train: platform faults; cluster: fleet-clock faults)\n  \
           --checkpoint-every K  snapshot the model to durable storage every K epochs\n  \
           --recovery P      retry|checkpoint|replan recovery policy (default retry)\n  \
           --metrics PATH    dump the ce-obs metrics/event stream as JSONL\n  \
           --arrivals M      poisson|diurnal|bursty|trace:<log.jsonl>|zoo:<preset>\n  \
                             (serve; default poisson; zoo presets: mixed|steady|diurnal|\n  \
                             bursty|coldtail)\n  \
           --rps R           mean arrival rate for `serve` (default 20)\n  \
           --duration S      arrival window for `serve`, seconds (default 600)\n  \
           --autoscaler A    fixed:<n>|target|prewarm|qlearn[:<episodes>:<epsilon>:<alpha>]\n  \
                             (serve; default target)\n  \
           --keepalive K     fixed[:<ttl-s>]|adaptive|histogram (serve; default fixed)\n  \
           --slo-ms X        latency SLO for `serve`/`lifecycle`, ms (default 500)\n  \
           --arrival-log P   write the generated arrival schedule as JSONL (serve)\n  \
           --tenants N       lifecycle tenants, each trains and serves (default 4)\n  \
           --drift-every S   mean seconds between drift events (lifecycle; 0 = off)\n  \
           --queue-cap N     admission queue slots (serve/lifecycle; default 10000)\n  \
           --timeout-ms X    per-attempt deadline (serve/lifecycle; off by default)\n  \
           --retries N       retry failed/timed-out attempts up to N times\n  \
           --retry-budget R  retry tokens earned per arrival (default 0.2 with --retries)\n  \
           --hedge P         hedge policy: p95|<delay-ms> (off by default)\n  \
           --breaker T       circuit breaker, opens at windowed failure rate T\n  \
           --brownout F      degraded-mode serving: service time x F when queue is half full\n  \
           --topology T      substrate: single|edge-cloud|pool:<name>,<k>=<v>,..;link:<a>-<b>,..\n  \
                             (cluster/serve/lifecycle; default single)\n  \
           --placement P     edge-first|latency-greedy|cost-greedy|workload-aware\n  \
                             (multi-pool topologies; default edge-first)\n\n\
         lifecycle reuses --duration, --rps, --quota, --job-cap, --seed, --chaos,\n\
         --autoscaler, --keepalive, --metrics, --topology, --placement, and every\n\
         resilience flag; its --policy is a priority policy:\n\
         serve-first|train-first|fair-share|deadline (default serve-first)\n"
    );
    std::process::exit(2);
}

#[derive(Debug, Default)]
struct Opts {
    model: Option<String>,
    dataset: Option<String>,
    trials: Option<u32>,
    budget: Option<f64>,
    deadline: Option<f64>,
    method: Option<String>,
    seed: Option<u64>,
    n: Option<u32>,
    failure_rate: Option<f64>,
    jobs: Option<usize>,
    rate: Option<f64>,
    policy: Option<String>,
    quota: Option<u32>,
    job_cap: Option<u32>,
    engine: Option<String>,
    metrics: Option<String>,
    chaos: Option<String>,
    checkpoint_every: Option<u32>,
    recovery: Option<String>,
    arrivals: Option<String>,
    rps: Option<f64>,
    duration: Option<f64>,
    autoscaler: Option<String>,
    keepalive: Option<String>,
    slo_ms: Option<f64>,
    arrival_log: Option<String>,
    tenants: Option<u32>,
    drift_every: Option<f64>,
    topology: Option<String>,
    placement: Option<String>,
    queue_cap: Option<usize>,
    timeout_ms: Option<f64>,
    retries: Option<u32>,
    retry_budget: Option<f64>,
    hedge: Option<String>,
    breaker: Option<f64>,
    brownout: Option<f64>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut opts = Opts::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| {
                        eprintln!("missing value for {flag}");
                        std::process::exit(2);
                    })
                    .clone()
            };
            match flag.as_str() {
                "--model" => opts.model = Some(value()),
                "--dataset" => opts.dataset = Some(value()),
                "--trials" => opts.trials = Some(parse_or_exit(&value(), flag)),
                "--budget" => opts.budget = Some(parse_f64(&value(), flag, POSITIVE)),
                "--deadline" => opts.deadline = Some(parse_f64(&value(), flag, POSITIVE)),
                "--method" => opts.method = Some(value()),
                "--seed" => opts.seed = Some(parse_or_exit(&value(), flag)),
                "-n" => opts.n = Some(parse_or_exit(&value(), flag)),
                "--failure-rate" => {
                    opts.failure_rate = Some(parse_f64(&value(), flag, CLOSED_UNIT))
                }
                "--jobs" => opts.jobs = Some(parse_or_exit(&value(), flag)),
                "--rate" => opts.rate = Some(parse_f64(&value(), flag, POSITIVE)),
                "--policy" => opts.policy = Some(value()),
                "--quota" => opts.quota = Some(parse_or_exit(&value(), flag)),
                "--job-cap" => opts.job_cap = Some(parse_or_exit(&value(), flag)),
                "--engine" => opts.engine = Some(value()),
                "--metrics" => opts.metrics = Some(value()),
                "--chaos" => opts.chaos = Some(value()),
                "--checkpoint-every" => opts.checkpoint_every = Some(parse_or_exit(&value(), flag)),
                "--recovery" => opts.recovery = Some(value()),
                "--arrivals" => opts.arrivals = Some(value()),
                "--rps" => opts.rps = Some(parse_f64(&value(), flag, NON_NEGATIVE)),
                "--duration" => opts.duration = Some(parse_f64(&value(), flag, POSITIVE)),
                "--autoscaler" => opts.autoscaler = Some(value()),
                "--keepalive" => opts.keepalive = Some(value()),
                "--slo-ms" => opts.slo_ms = Some(parse_f64(&value(), flag, POSITIVE_MS)),
                "--arrival-log" => opts.arrival_log = Some(value()),
                "--tenants" => {
                    let n: u32 = parse_or_exit(&value(), flag);
                    if n == 0 {
                        eprintln!("invalid value for --tenants: lifecycle needs at least 1 tenant");
                        std::process::exit(2);
                    }
                    opts.tenants = Some(n);
                }
                "--drift-every" => opts.drift_every = Some(parse_f64(&value(), flag, NON_NEGATIVE)),
                "--topology" => opts.topology = Some(value()),
                "--placement" => opts.placement = Some(value()),
                "--queue-cap" => {
                    let n: usize = parse_or_exit(&value(), flag);
                    if n == 0 {
                        eprintln!(
                            "invalid value for --queue-cap: the admission queue needs at least 1 slot"
                        );
                        std::process::exit(2);
                    }
                    opts.queue_cap = Some(n);
                }
                "--timeout-ms" => opts.timeout_ms = Some(parse_f64(&value(), flag, POSITIVE_MS)),
                "--retries" => opts.retries = Some(parse_or_exit(&value(), flag)),
                "--retry-budget" => opts.retry_budget = Some(parse_f64(&value(), flag, POSITIVE)),
                "--hedge" => opts.hedge = Some(value()),
                "--breaker" => opts.breaker = Some(parse_f64(&value(), flag, HALF_OPEN_UNIT)),
                "--brownout" => opts.brownout = Some(parse_f64(&value(), flag, OPEN_UNIT)),
                other => {
                    eprintln!("unknown option: {other}");
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    fn workload(&self) -> Workload {
        let model = self.model.as_deref().unwrap_or("lr");
        let dataset = self.dataset.as_deref();
        match (model, dataset) {
            ("lr", None | Some("higgs")) => Workload::lr_higgs(),
            ("lr", Some("yfcc")) => Workload::lr_yfcc(),
            ("svm", None | Some("higgs")) => Workload::svm_higgs(),
            ("svm", Some("yfcc")) => Workload::svm_yfcc(),
            ("mobilenet", None | Some("cifar10")) => Workload::mobilenet_cifar10(),
            ("resnet50", None | Some("cifar10")) => Workload::resnet50_cifar10(),
            ("bert", None | Some("imdb")) => Workload::bert_imdb(),
            (m, d) => {
                eprintln!("unsupported model/dataset combination: {m}/{d:?}");
                std::process::exit(2);
            }
        }
    }

    fn method(&self) -> Method {
        match self.method.as_deref().unwrap_or("ce") {
            "ce" | "ce-scaling" => Method::CeScaling,
            "lambdaml" => Method::LambdaMl,
            "siren" => Method::Siren,
            "cirrus" => Method::Cirrus,
            "fixed" => Method::Fixed,
            other => {
                eprintln!("unknown method: {other}");
                std::process::exit(2);
            }
        }
    }

    fn chaos(&self) -> Option<FaultSchedule> {
        self.chaos.as_deref().map(|spec| {
            FaultSchedule::parse(spec).unwrap_or_else(|e| {
                eprintln!("invalid --chaos spec: {e}");
                std::process::exit(2);
            })
        })
    }

    fn recovery(&self) -> Option<RecoveryPolicy> {
        self.recovery.as_deref().map(|name| {
            RecoveryPolicy::by_name(name).unwrap_or_else(|| {
                eprintln!("unknown recovery policy: {name} (retry|checkpoint|replan)");
                std::process::exit(2);
            })
        })
    }

    /// The resilience spec the flags describe, or `None` when no
    /// resilience flag was passed (the golden-preserving default).
    fn resilience(&self) -> Option<ResilienceSpec> {
        let spec = ResilienceSpec {
            timeout_ms: self.timeout_ms,
            retry: self.retries.map(RetryPolicy::new),
            retry_budget: self.retry_budget,
            hedge: self.hedge.as_deref().map(|s| {
                HedgePolicy::parse(s).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }),
            breaker: self.breaker.map(BreakerSpec::new),
            brownout: self.brownout.map(BrownoutSpec::new),
        };
        spec.enabled().then_some(spec)
    }

    /// The parsed `--topology` spec, or `None` when the flag is absent
    /// (the golden-preserving single-pool default).
    fn topology(&self) -> Option<ce_scaling::topo::Topology> {
        self.topology.as_deref().map(|spec| {
            ce_scaling::topo::parse_topology(spec).unwrap_or_else(|e| {
                eprintln!("invalid --topology spec: {e}");
                std::process::exit(2);
            })
        })
    }

    /// The validated `--placement` name, or `None` when absent.
    fn placement(&self) -> Option<&str> {
        let name = self.placement.as_deref()?;
        if let Err(e) = ce_scaling::topo::parse_placement(name) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        Some(name)
    }

    fn constraint(&self, default_budget: f64) -> Constraint {
        match (self.budget, self.deadline) {
            (Some(b), None) => Constraint::Budget(b),
            (None, Some(t)) => Constraint::Deadline(t),
            (None, None) => Constraint::Budget(default_budget),
            (Some(_), Some(_)) => {
                eprintln!("pass either --budget or --deadline, not both");
                std::process::exit(2);
            }
        }
    }
}

fn parse_or_exit<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: {s}");
        std::process::exit(2);
    })
}

/// The values a float flag accepts: a test on finite numbers, and the
/// wording the error gives.
type FloatRange = (fn(f64) -> bool, &'static str);

const POSITIVE: FloatRange = (|x| x > 0.0, "must be positive");
const POSITIVE_MS: FloatRange = (|x| x > 0.0, "must be a positive number of milliseconds");
const NON_NEGATIVE: FloatRange = (|x| x >= 0.0, "must be a number >= 0");
const CLOSED_UNIT: FloatRange = (|x| (0.0..=1.0).contains(&x), "must be in [0, 1]");
const HALF_OPEN_UNIT: FloatRange = (|x| x > 0.0 && x <= 1.0, "must be in (0, 1]");
const OPEN_UNIT: FloatRange = (|x| x > 0.0 && x < 1.0, "must be in (0, 1)");

/// Parses a float flag that must be finite and within `range`.
fn parse_f64(s: &str, flag: &str, (ok, want): FloatRange) -> f64 {
    let x: f64 = parse_or_exit(s, flag);
    if !(x.is_finite() && ok(x)) {
        eprintln!("invalid value for {flag}: {s} {want}");
        std::process::exit(2);
    }
    x
}

/// Exits 2 when a run would schedule more than
/// [`ce_scaling::serve::MAX_ARRIVALS`] events of one kind (`what`) on
/// average; `flags` names the flags that set the count.
fn check_ceiling(expected: f64, what: &str, flags: &str) {
    let max = ce_scaling::serve::MAX_ARRIVALS;
    if expected > max as f64 {
        eprintln!(
            "the run would schedule ~{expected:.3e} {what}, over the ceiling of {max}; \
             lower {flags}"
        );
        std::process::exit(2);
    }
}

fn cmd_profile(opts: &Opts) {
    let env = Environment::aws_default();
    let w = opts.workload();
    let profile = ParetoProfiler::new(&env).profile_workload(&w);
    println!(
        "{}: {} allocations profiled, {} on the Pareto boundary\n",
        w.label(),
        profile.points().len(),
        profile.boundary().len()
    );
    println!(
        "{:>30}  {:>12}  {:>12}",
        "allocation", "epoch time", "epoch cost"
    );
    for p in profile.boundary() {
        println!(
            "{:>30}  {:>11.1}s  {:>11.5}$",
            p.alloc.to_string(),
            p.time_s(),
            p.cost_usd()
        );
    }
}

fn cmd_plan_tuning(opts: &Opts) {
    let env = Environment::aws_default();
    let w = opts.workload();
    let trials = opts.trials.unwrap_or(256);
    let sha = ShaSpec::try_new(trials, 2, 2).unwrap_or_else(|e| {
        eprintln!("invalid value for --trials: {e}");
        std::process::exit(2);
    });
    let profile = ParetoProfiler::new(&env).profile_workload(&w);
    let default_budget =
        PartitionPlan::uniform(*profile.cheapest().expect("nonempty"), sha).cost() * 2.0;
    let constraint = opts.constraint(default_budget);
    let job = TuningJob::new(w.clone(), sha, constraint)
        .with_seed(opts.seed.unwrap_or(42))
        .with_obs(ce_scaling::obs::global());
    match job.plan_for(opts.method()) {
        Ok((plan, overhead_s, evals)) => {
            println!(
                "{} plan for {} ({} trials, {} stages) under {constraint:?}:\n",
                opts.method().label(),
                w.label(),
                trials,
                sha.num_stages()
            );
            for (i, s) in plan.stages.iter().enumerate() {
                println!(
                    "  stage {:2} (q={:6}): {:28} {:>9.1}s/epoch  ${:.5}/trial-epoch",
                    i + 1,
                    sha.trials_in_stage(i),
                    s.alloc.to_string(),
                    s.time_s(),
                    s.cost_usd()
                );
            }
            println!(
                "\npredicted JCT {:.0}s, cost ${:.2}; planning {:.1}s ({} evaluations)",
                plan.jct(env.max_concurrency),
                plan.cost(),
                overhead_s,
                evals
            );
        }
        Err(e) => {
            eprintln!("planning failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_train(opts: &Opts) {
    let w = opts.workload();
    let env = Environment::aws_default();
    let profile = ParetoProfiler::new(&env).profile_workload(&w);
    let boundary = profile.boundary();
    let mid = boundary[boundary.len() / 2];
    let (params, target) = {
        use ce_scaling::ml::curve::{table4_target, CurveParams};
        (
            CurveParams::for_workload(w.model.family, &w.dataset.name),
            table4_target(w.model.family, &w.dataset.name),
        )
    };
    let default_budget = mid.cost_usd() * params.mean_epochs_to(target).expect("reachable") * 2.0;
    let constraint = opts.constraint(default_budget);
    let mut job = TrainingJob::new(w.clone(), constraint)
        .with_seed(opts.seed.unwrap_or(42))
        .with_obs(ce_scaling::obs::global());
    if let Some(rate) = opts.failure_rate {
        job = job.with_platform_config(PlatformConfig {
            failure_rate: rate,
            ..PlatformConfig::default()
        });
    }
    if let Some(schedule) = opts.chaos() {
        job = job.with_chaos(schedule);
    }
    if let Some(policy) = opts.recovery() {
        job = job.with_recovery(policy);
    }
    if let Some(k) = opts.checkpoint_every {
        job = job.with_checkpoint_every(k);
    }
    match job.run(opts.method()) {
        Ok(r) => {
            println!(
                "{} on {} under {constraint:?} (target loss {target}):\n",
                opts.method().label(),
                w.label()
            );
            println!("  JCT            {:.0}s", r.jct_s);
            println!("  cost           ${:.2}", r.cost_usd);
            println!("  epochs         {}", r.epochs);
            println!("  restarts       {}", r.restarts);
            println!("  comm share     {:.1}%", r.comm_fraction() * 100.0);
            println!("  storage share  {:.1}%", r.storage_fraction() * 100.0);
            println!("  sched overhead {:.1}s", r.sched_overhead_s);
            println!(
                "  allocations    {}",
                r.allocations
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            );
            if opts.chaos.is_some() || opts.checkpoint_every.is_some() {
                let reg = ce_scaling::obs::global();
                println!(
                    "  recovery       {} retries, {} restores, {} replans, {} epochs lost",
                    reg.counter_value("recovery.retries"),
                    reg.counter_value("recovery.restores"),
                    reg.counter_value("recovery.replans"),
                    reg.counter_value("recovery.lost_epochs"),
                );
                println!(
                    "  checkpoints    {} taken ({:.1}s, ${:.4})",
                    reg.counter_value("recovery.checkpoints"),
                    reg.gauge_value("recovery.checkpoint_s"),
                    reg.gauge_value("recovery.checkpoint_usd"),
                );
            }
            if r.budget_violated || r.qos_violated {
                println!("  WARNING: constraint violated");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("training failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_cluster(opts: &Opts) {
    use ce_scaling::cluster::{
        policy_by_name, policy_names, ClusterSim, ClusterSpec, FleetEngine, FleetSpec, JobStatus,
        MAX_JOBS,
    };
    let jobs = opts.jobs.unwrap_or(40);
    if jobs > MAX_JOBS {
        eprintln!("invalid value for --jobs: {jobs} is over the ceiling of {MAX_JOBS} jobs");
        std::process::exit(2);
    }
    let rate = opts.rate.unwrap_or(12.0);
    let quota = opts.quota.unwrap_or(60);
    let policy_name = opts.policy.as_deref().unwrap_or("fifo");
    let Some(policy) = policy_by_name(policy_name) else {
        eprintln!(
            "{}",
            ce_scaling::sim::unknown_name_msg("policy", policy_name, policy_names())
        );
        std::process::exit(2);
    };
    let fleet = FleetSpec::poisson(jobs, rate, opts.seed.unwrap_or(42));
    let mut spec = ClusterSpec::new(fleet, quota);
    if let Some(cap) = opts.job_cap {
        spec = spec.with_job_cap(cap);
    }
    if let Some(topology) = opts.topology() {
        spec = spec.with_topology(topology);
    }
    if let Some(placement) = opts.placement() {
        spec = spec.with_placement(placement);
    }
    match opts.engine.as_deref() {
        None | Some("heap") => {}
        Some("naive") => spec = spec.with_engine(FleetEngine::Naive),
        Some(other) => {
            eprintln!("unknown engine: {other} (heap|naive)");
            std::process::exit(2);
        }
    }
    if let Some(schedule) = opts.chaos() {
        spec = spec.with_chaos(schedule);
    }
    if let Some(policy) = opts.recovery() {
        spec = spec.with_recovery(policy);
    }
    if let Some(k) = opts.checkpoint_every {
        spec = spec.with_checkpoint_every(k);
    }
    let report = ClusterSim::new(spec, policy)
        .with_obs(ce_scaling::obs::global())
        .run();
    println!(
        "{} jobs at {rate}/min over a {quota}-function quota, policy {}:\n",
        report.jobs.len(),
        report.policy
    );
    println!("  completed      {}", report.count(JobStatus::Completed));
    println!("  rejected       {}", report.count(JobStatus::Rejected));
    println!("  failed         {}", report.count(JobStatus::Failed));
    println!(
        "  QoS violations {:.1}%",
        report.qos_violation_rate() * 100.0
    );
    println!("  fleet cost     ${:.2}", report.fleet_dollars);
    println!("  makespan       {:.0}s", report.makespan_s);
    println!("  mean queueing  {:.1}s", report.mean_queue_delay_s());
    println!(
        "  quota use      {:.1}% mean, {} peak of {quota}",
        report.quota_utilization * 100.0,
        report.quota_peak
    );
    println!(
        "  contention     {:.1}s of stretched sync",
        report.contention_extra_s
    );
    if opts.topology.is_some() {
        println!(
            "  topology       {} placed by {}",
            report.topology, report.placement
        );
    }
    if opts.chaos.is_some() {
        let reg = ce_scaling::obs::global();
        println!(
            "  chaos          {} stalls, {} worker losses, {} degraded epochs",
            reg.counter_value("cluster.chaos_stalls"),
            reg.counter_value("cluster.chaos_worker_losses"),
            reg.counter_value("cluster.chaos_degraded_epochs"),
        );
        println!(
            "  recovery       {} retries, {} restores, {} checkpoints",
            reg.counter_value("recovery.retries"),
            reg.counter_value("recovery.restores"),
            reg.counter_value("recovery.checkpoints"),
        );
    }
}

fn cmd_serve(opts: &Opts) {
    use ce_scaling::serve::{ArrivalModel, ServeSim, ServeSpec};
    let rps = opts.rps.unwrap_or(20.0);
    let duration = opts.duration.unwrap_or(600.0);
    let arrivals = match opts.arrivals.as_deref().unwrap_or("poisson") {
        "poisson" => ArrivalModel::Poisson { rps },
        // One day/night cycle per half window, ±80% swing around the mean.
        "diurnal" => ArrivalModel::Diurnal {
            base_rps: rps,
            amplitude: 0.8,
            period_s: duration / 2.0,
        },
        "bursty" => ArrivalModel::Bursty {
            low_rps: rps / 4.0,
            high_rps: rps * 4.0,
            mean_dwell_s: 60.0,
        },
        other => {
            if let Some(path) = other.strip_prefix("trace:") {
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot read arrival log {path}: {e}");
                    std::process::exit(2);
                });
                let arrival_s = ce_scaling::serve::read_arrival_log(&text).unwrap_or_else(|e| {
                    eprintln!("bad arrival log {path}: {e}");
                    std::process::exit(2);
                });
                ArrivalModel::Trace { arrival_s }
            } else if other == "zoo" || other.starts_with("zoo:") {
                let rest = other.strip_prefix("zoo:").unwrap_or("");
                let spec = ce_scaling::serve::parse_zoo(rest).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
                ArrivalModel::Zoo { spec }
            } else {
                eprintln!(
                    "unknown arrivals model: {other} (poisson|diurnal|bursty|trace:<path>|zoo:<preset>)"
                );
                std::process::exit(2);
            }
        }
    };
    let expected = arrivals.expected_arrivals(duration);
    check_ceiling(expected, "arrivals", "--rps or --duration");
    let autoscaler_name = opts.autoscaler.as_deref().unwrap_or("target");
    let autoscaler = match ce_scaling::serve::parse_autoscaler(autoscaler_name) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let keepalive_name = opts.keepalive.as_deref().unwrap_or("fixed");
    let keep_alive = match ce_scaling::faas::parse_keep_alive(keepalive_name) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut spec = ServeSpec::new(arrivals, duration, opts.seed.unwrap_or(42))
        .with_slo_ms(opts.slo_ms.unwrap_or(500.0));
    if let Some(schedule) = opts.chaos() {
        spec = spec.with_chaos(schedule);
    }
    if let Some(cap) = opts.queue_cap {
        spec = spec.with_queue_cap(cap);
    }
    let resilient = opts.resilience();
    if let Some(res) = resilient.clone() {
        spec = spec.with_resilience(res);
    }
    if let Some(topology) = opts.topology() {
        spec = spec.with_topology(topology);
    }
    if let Some(placement) = opts.placement() {
        spec = spec.with_placement(placement);
    }
    let sim = ServeSim::new(spec, autoscaler, keep_alive).with_obs(ce_scaling::obs::global());
    if let Some(path) = &opts.arrival_log {
        let log = ce_scaling::serve::write_arrival_log(sim.arrivals());
        std::fs::write(path, log).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("arrival log written to {path}");
    }
    let r = sim.run();
    println!(
        "{} arrivals over {duration:.0}s, autoscaler {}, keep-alive {}:\n",
        r.arrivals, r.autoscaler, r.keep_alive
    );
    println!("  requests       {}", r.requests);
    println!(
        "  completed      {} ({} cold, {} warm)",
        r.completed, r.cold_starts, r.warm_starts
    );
    println!(
        "  shed           {} throttled, {} overload, {} outage; {} failed",
        r.shed_throttled, r.shed_overload, r.shed_outage, r.failed
    );
    if r.truncated > 0 {
        println!(
            "  truncated      {} parked past the end of the run",
            r.truncated
        );
    }
    if resilient.is_some() {
        println!(
            "  resilience     {} attempts ({} retries, {} hedges, {} hedge wins)",
            r.attempts, r.retries, r.hedges, r.hedge_wins
        );
        println!(
            "                 {} timed out, {} breaker-shed, {} degraded dispatches",
            r.timed_out, r.shed_breaker, r.degraded
        );
    }
    println!(
        "  latency        p50 {:.0}ms  p95 {:.0}ms  p99 {:.0}ms (SLO {:.0}ms)",
        r.p50_ms, r.p95_ms, r.p99_ms, r.slo_ms
    );
    println!(
        "  QoS violations {:.2}% of arrivals",
        r.violation_rate() * 100.0
    );
    println!(
        "  compute        {:.1} busy GB-s, {:.1} idle GB-s, {} prewarmed, {} expired",
        r.busy_gb_s, r.idle_gb_s, r.prewarmed, r.expired
    );
    println!(
        "  cost           ${:.4} (${:.2}/1M requests)",
        r.dollars,
        r.cost_per_million()
    );
    if r.pools.len() > 1 {
        println!("  topology       {} placed by {}", r.topology, r.placement);
        for p in &r.pools {
            println!(
                "    {:<12} {} requests ({} cold), {:.1} busy GB-s, ${:.4}",
                p.name, p.requests, p.cold_starts, p.busy_gb_s, p.dollars
            );
        }
    }
}

fn cmd_lifecycle(opts: &Opts) {
    use ce_scaling::lifecycle::{priority_by_name, priority_names, LifecycleSim, LifecycleSpec};
    use ce_scaling::serve::parse_autoscaler;
    let tenants = opts.tenants.unwrap_or(4);
    let duration = opts.duration.unwrap_or(300.0);
    let policy_name = opts.policy.as_deref().unwrap_or("serve-first");
    let Some(policy) = priority_by_name(policy_name) else {
        eprintln!(
            "{}",
            ce_scaling::sim::unknown_name_msg("priority policy", policy_name, priority_names())
        );
        std::process::exit(2);
    };
    let mut spec = LifecycleSpec::new(tenants, duration, opts.seed.unwrap_or(42));
    if let Some(q) = opts.quota {
        if q == 0 {
            eprintln!("invalid value for --quota: the shared quota needs at least 1 worker");
            std::process::exit(2);
        }
        spec = spec.with_quota(q);
    }
    if let Some(cap) = opts.job_cap {
        if cap == 0 {
            eprintln!("invalid value for --job-cap: a wave needs at least 1 worker");
            std::process::exit(2);
        }
        spec = spec.with_job_cap(cap);
    }
    if let Some(rps) = opts.rps {
        spec = spec.with_rps(rps);
    }
    // Each tenant's Poisson rate is drawn from [0.6, 1.4] × --rps.
    check_ceiling(
        f64::from(tenants) * 1.4 * spec.rps * duration,
        "arrivals",
        "--tenants, --rps or --duration",
    );
    if let Some(slo) = opts.slo_ms {
        spec = spec.with_slo_ms(slo);
    }
    if let Some(drift) = opts.drift_every {
        // Each tenant draws about duration / drift drift events up front.
        if drift > 0.0 {
            let expected = f64::from(tenants) * duration / drift;
            check_ceiling(
                expected,
                "drift events",
                "--drift-every, --tenants or --duration",
            );
        }
        spec = spec.with_drift_mean_s(drift);
    }
    if let Some(name) = &opts.autoscaler {
        if let Err(e) = parse_autoscaler(name) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        spec = spec.with_autoscaler(name);
    }
    if let Some(name) = &opts.keepalive {
        if let Err(e) = ce_scaling::faas::parse_keep_alive(name) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        spec = spec.with_keep_alive(name);
    }
    if let Some(schedule) = opts.chaos() {
        spec = spec.with_chaos(schedule);
    }
    if let Some(cap) = opts.queue_cap {
        spec = spec.with_queue_cap(cap);
    }
    let resilient = opts.resilience();
    if let Some(res) = resilient.clone() {
        spec = spec.with_resilience(res);
    }
    if let Some(topology) = opts.topology() {
        spec = spec.with_topology(topology);
    }
    if let Some(placement) = opts.placement() {
        spec = spec.with_placement(placement);
    }
    let quota = spec.quota;
    let r = LifecycleSim::new(spec, policy)
        .with_obs(ce_scaling::obs::global())
        .run();
    let sum = |f: fn(&ce_scaling::lifecycle::TenantOutcome) -> u64| -> u64 {
        r.tenants.iter().map(f).sum()
    };
    println!(
        "{tenants} tenants over {duration:.0}s on a {quota}-worker shared quota, policy {}:\n",
        r.policy
    );
    println!(
        "  requests       {} ({} completed, {} failed, {} shed)",
        r.requests(),
        sum(|t| t.completed),
        sum(|t| t.failed),
        sum(|t| t.shed_throttled + t.shed_overload + t.shed_outage + t.shed_breaker),
    );
    if resilient.is_some() {
        println!(
            "  resilience     {} attempts ({} retries, {} hedges, {} hedge wins)",
            sum(|t| t.attempts),
            sum(|t| t.retries),
            sum(|t| t.hedges),
            sum(|t| t.hedge_wins),
        );
        println!(
            "                 {} timed out, {} breaker-shed, {} degraded dispatches",
            sum(|t| t.timed_out),
            sum(|t| t.shed_breaker),
            sum(|t| t.degraded),
        );
    }
    println!(
        "  latency        p50 {:.0}ms  p95 {:.0}ms  p99 {:.0}ms",
        r.p50_ms, r.p95_ms, r.p99_ms
    );
    println!(
        "  serve QoS      {:.2}% of requests violated",
        r.serve_violation_rate() * 100.0
    );
    println!(
        "  training       {} runs: {} completed, {} failed, {} deadline misses",
        r.train_jobs(),
        sum(|t| t.jobs_completed),
        sum(|t| t.jobs_failed),
        r.train_misses(),
    );
    println!(
        "  epochs         {} dispatched, {} preempted, {} cold resumes",
        sum(|t| t.epochs),
        r.preemptions(),
        sum(|t| t.cold_resumes),
    );
    println!(
        "  lifecycle      {} drift events ({} skipped), {} redeploys",
        sum(|t| t.drift_events),
        sum(|t| t.drift_skipped),
        sum(|t| t.redeploys),
    );
    println!(
        "  quota          {:.1}% mean, {} peak of {quota}, {} head-of-line stalls",
        r.quota_utilization * 100.0,
        r.quota_peak,
        r.quota_stalls,
    );
    println!(
        "  cost           ${:.4} serving + ${:.4} training = ${:.4}",
        r.serve_dollars(),
        r.train_dollars(),
        r.total_dollars(),
    );
    if opts.topology.is_some() {
        println!("  topology       {} placed by {}", r.topology, r.placement);
    }
    let (sv, miss, usd) = r.frontier_point();
    println!("  frontier       ({sv:.4}, {miss:.4}, ${usd:.4})");
}

fn cmd_storage(opts: &Opts) {
    let env = Environment::aws_default();
    let w = opts.workload();
    let n = opts.n.unwrap_or(10);
    let cost_model = CostModel::new(&env);
    println!(
        "{} at {n} functions x 1769 MB (model blob {:.3} MB):\n",
        w.label(),
        w.model.model_mb
    );
    println!(
        "{:>13}  {:>12}  {:>12}  {:>10}",
        "storage", "epoch time", "epoch cost", "sync share"
    );
    for kind in StorageKind::ALL {
        let spec = env.storage.get(kind).expect("catalog");
        if !spec.supports_model(w.model.model_mb) {
            println!(
                "{:>13}  {:>12}  {:>12}  {:>10}",
                kind.to_string(),
                "N/A",
                "N/A",
                ""
            );
            continue;
        }
        let alloc = Allocation::new(n, 1769, kind);
        let (time, cost) = cost_model.epoch_estimate(&w, &alloc).expect("catalog");
        println!(
            "{:>13}  {:>11.1}s  {:>11.5}$  {:>9.0}%",
            kind.to_string(),
            time.total(),
            cost.total(),
            time.comm_fraction() * 100.0
        );
    }
}
