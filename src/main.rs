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
use ce_scaling::cluster::{AdmissionPolicy, ClusterSim, ClusterSpec, FleetEngine, FleetSpec};
use ce_scaling::faas::KeepAlive;
use ce_scaling::lifecycle::{LifecycleSim, LifecycleSpec, PriorityPolicy};
use ce_scaling::models::{Allocation, CostModel, Environment, Workload};
use ce_scaling::pareto::ParetoProfiler;
use ce_scaling::resilience::{BreakerSpec, BrownoutSpec, HedgePolicy, ResilienceSpec, RetryPolicy};
use ce_scaling::serve::{ArrivalModel, Autoscaler, ServeSim, ServeSpec};
use ce_scaling::storage::StorageKind;
use ce_scaling::topo::Topology;
use ce_scaling::tuning::{PartitionPlan, ShaSpec};
use ce_scaling::workflow::{Constraint, Method, RecoveryPolicy, TrainingJob, TuningJob};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every usage error ends here; runtime failures exit 1 where they
    // happen.
    if let Err(e) = run(&args) {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

/// Runs one command. An `Err` is a usage error: a bad command, flag,
/// value, or spec, found before any simulation starts.
fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        // run-config takes a file path, not flag options.
        "run-config" => return cmd_run_config(rest),
        "help" | "--help" | "-h" => return Err(USAGE.into()),
        _ => {}
    }
    let Some(&(_, cmd, _)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        return Err(format!("unknown command: {command}\n\n{USAGE}"));
    };
    let opts = Opts::parse(command, rest)?;
    cmd(&opts)?;
    if let Some(path) = &opts.metrics {
        // Every command binds its jobs to the process-global ce-obs
        // registry; the dump is the deterministic JSONL metrics
        // stream.
        std::fs::write(path, ce_scaling::obs::global().export_jsonl()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// Runs one flag-option command.
type CommandFn = fn(&Opts) -> Result<(), String>;

/// Every flag-option command, its runner, and the flags its builder
/// reads; every command also takes `--metrics`.
const COMMANDS: [(&str, CommandFn, &str); 7] = [
    ("profile", cmd_profile, "--model --dataset"),
    (
        "plan-tuning",
        cmd_plan_tuning,
        "--model --dataset --method --trials --budget --deadline --seed",
    ),
    (
        "train",
        cmd_train,
        "--model --dataset --method --budget --deadline --seed --failure-rate --chaos \
         --recovery --checkpoint-every",
    ),
    ("storage", cmd_storage, "--model --dataset -n"),
    (
        "cluster",
        cmd_cluster,
        "--jobs --rate --policy --seed --quota --job-cap --engine --chaos --recovery \
         --checkpoint-every --topology --placement",
    ),
    (
        "serve",
        cmd_serve,
        "--arrivals --arrival-log --duration --rps --seed --slo-ms --chaos --queue-cap \
         --topology --placement --autoscaler --keepalive --timeout-ms --retries \
         --retry-budget --hedge --breaker --brownout",
    ),
    (
        "lifecycle",
        cmd_lifecycle,
        "--tenants --policy --quota --job-cap --drift-every --duration --rps --seed --slo-ms \
         --chaos --queue-cap --topology --placement --autoscaler --keepalive --timeout-ms \
         --retries --retry-budget --hedge --breaker --brownout",
    ),
];

/// `run-config <file.json>`: run a declarative scenario and print its
/// reports as JSON.
fn cmd_run_config(args: &[String]) -> Result<(), String> {
    use ce_scaling::workflow::Scenario;
    let path = args
        .first()
        .ok_or("usage: ce-scaling run-config <scenario.json>")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scenario = Scenario::from_json(&json).map_err(|e| e.to_string())?;
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
    Ok(())
}

const USAGE: &str = "usage: ce-scaling <command> [options]\n\n\
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
       --chaos SPEC      fault schedule, e.g. 'crash:0.1@0..inf;outage:s3@600..1800'\n                    \
                         (train: platform; cluster: fleet-clock; serve: request;\n                    \
                         lifecycle: fleet-clock and request faults)\n  \
       --checkpoint-every K  snapshot the model to durable storage every K epochs\n  \
       --recovery P      retry|checkpoint|replan recovery policy (default retry)\n  \
       --metrics PATH    dump the ce-obs metrics/event stream as JSONL\n  \
       --arrivals M      poisson|diurnal|bursty|trace:<log.jsonl>|zoo:<preset>\n                    \
                         (serve; default poisson; zoo presets: mixed|steady|diurnal|\n                    \
                         bursty|coldtail)\n  \
       --rps R           mean arrival rate for `serve` (default 20)\n  \
       --duration S      arrival window for `serve`, seconds (default 600)\n  \
       --autoscaler A    fixed:<n>|target|prewarm|qlearn[:<episodes>:<epsilon>:<alpha>]\n                    \
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
       --topology T      substrate: single|edge-cloud|pool:<name>,<k>=<v>,..;link:<a>-<b>,..\n                    \
                         (cluster/serve/lifecycle; default single)\n  \
       --placement P     edge-first|latency-greedy|workload-aware\n                    \
                         (multi-pool topologies; default edge-first)\n\n\
     lifecycle reuses --duration, --rps, --quota, --job-cap, --seed, --chaos,\n\
     --autoscaler, --keepalive, --metrics, --topology, --placement, and every\n\
     resilience flag; its --policy is a priority policy:\n\
     serve-first|train-first|fair-share|deadline (default serve-first)\n\n\
     every command takes --metrics and refuses an option it does not read\n";

/// The flags as parsed: a value of the flag's type, a float within its
/// flag's range, or a spec grammar's parse. Sizes and registry names are
/// checked by the spec the command builds.
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
    chaos: Option<FaultSchedule>,
    checkpoint_every: Option<u32>,
    recovery: Option<RecoveryPolicy>,
    arrivals: Option<String>,
    rps: Option<f64>,
    duration: Option<f64>,
    autoscaler: Option<String>,
    keepalive: Option<String>,
    slo_ms: Option<f64>,
    arrival_log: Option<String>,
    tenants: Option<u32>,
    drift_every: Option<f64>,
    topology: Option<Topology>,
    placement: Option<String>,
    queue_cap: Option<usize>,
    timeout_ms: Option<f64>,
    retries: Option<u32>,
    retry_budget: Option<f64>,
    hedge: Option<HedgePolicy>,
    breaker: Option<f64>,
    brownout: Option<f64>,
}

impl Opts {
    /// Parses `command`'s flags. A flag the command does not read is
    /// refused, by the command's name when another command reads it.
    fn parse(command: &str, args: &[String]) -> Result<Opts, String> {
        let reads = |name: &str, flag: &str| {
            flag == "--metrics"
                || COMMANDS
                    .iter()
                    .any(|(n, _, flags)| *n == name && flags.split(' ').any(|f| f == flag))
        };
        let mut opts = Opts::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !reads(command, flag) {
                return Err(if COMMANDS.iter().any(|(name, ..)| reads(name, flag)) {
                    format!("{command} does not take {flag}")
                } else {
                    format!("unknown option: {flag}")
                });
            }
            let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
            match flag.as_str() {
                "--model" => opts.model = Some(value()?.clone()),
                "--dataset" => opts.dataset = Some(value()?.clone()),
                "--trials" => opts.trials = Some(parse_num(value()?, flag)?),
                "--budget" => opts.budget = Some(parse_f64(value()?, flag, POSITIVE)?),
                "--deadline" => opts.deadline = Some(parse_f64(value()?, flag, POSITIVE)?),
                "--method" => opts.method = Some(value()?.clone()),
                "--seed" => opts.seed = Some(parse_num(value()?, flag)?),
                "-n" => opts.n = Some(parse_num(value()?, flag)?),
                "--failure-rate" => {
                    opts.failure_rate = Some(parse_f64(value()?, flag, CLOSED_UNIT)?)
                }
                "--jobs" => opts.jobs = Some(parse_num(value()?, flag)?),
                "--rate" => opts.rate = Some(parse_f64(value()?, flag, POSITIVE)?),
                "--policy" => opts.policy = Some(value()?.clone()),
                "--quota" => opts.quota = Some(parse_num(value()?, flag)?),
                "--job-cap" => opts.job_cap = Some(parse_num(value()?, flag)?),
                "--engine" => opts.engine = Some(value()?.clone()),
                "--metrics" => opts.metrics = Some(value()?.clone()),
                "--chaos" => {
                    let spec = FaultSchedule::parse(value()?);
                    opts.chaos = Some(spec.map_err(|e| format!("invalid --chaos spec: {e}"))?);
                }
                "--checkpoint-every" => opts.checkpoint_every = Some(parse_num(value()?, flag)?),
                "--recovery" => {
                    let name = value()?;
                    opts.recovery = Some(RecoveryPolicy::by_name(name).ok_or_else(|| {
                        format!("unknown recovery policy: {name} (retry|checkpoint|replan)")
                    })?);
                }
                "--arrivals" => opts.arrivals = Some(value()?.clone()),
                "--rps" => opts.rps = Some(parse_f64(value()?, flag, NON_NEGATIVE)?),
                "--duration" => opts.duration = Some(parse_f64(value()?, flag, POSITIVE)?),
                "--autoscaler" => opts.autoscaler = Some(value()?.clone()),
                "--keepalive" => opts.keepalive = Some(value()?.clone()),
                "--slo-ms" => opts.slo_ms = Some(parse_f64(value()?, flag, POSITIVE_MS)?),
                "--arrival-log" => opts.arrival_log = Some(value()?.clone()),
                "--tenants" => opts.tenants = Some(parse_num(value()?, flag)?),
                "--drift-every" => {
                    opts.drift_every = Some(parse_f64(value()?, flag, NON_NEGATIVE)?)
                }
                "--topology" => {
                    let spec = ce_scaling::topo::parse_topology(value()?);
                    opts.topology =
                        Some(spec.map_err(|e| format!("invalid --topology spec: {e}"))?);
                }
                "--placement" => opts.placement = Some(value()?.clone()),
                "--queue-cap" => opts.queue_cap = Some(parse_num(value()?, flag)?),
                "--timeout-ms" => opts.timeout_ms = Some(parse_f64(value()?, flag, POSITIVE_MS)?),
                "--retries" => opts.retries = Some(parse_num(value()?, flag)?),
                "--retry-budget" => opts.retry_budget = Some(parse_f64(value()?, flag, POSITIVE)?),
                "--hedge" => opts.hedge = Some(HedgePolicy::parse(value()?)?),
                "--breaker" => opts.breaker = Some(parse_f64(value()?, flag, HALF_OPEN_UNIT)?),
                "--brownout" => opts.brownout = Some(parse_f64(value()?, flag, OPEN_UNIT)?),
                other => unreachable!("{other} is in a command's flags but has no parser"),
            }
        }
        Ok(opts)
    }

    fn workload(&self) -> Result<Workload, String> {
        Workload::by_name(
            self.model.as_deref().unwrap_or("lr"),
            self.dataset.as_deref(),
        )
    }

    fn method(&self) -> Result<Method, String> {
        Method::by_name(self.method.as_deref().unwrap_or("ce"))
    }

    /// The resilience spec the flags describe, disabled when no
    /// resilience flag was passed (the golden-preserving default).
    fn resilience(&self) -> ResilienceSpec {
        let spec = ResilienceSpec {
            timeout_ms: self.timeout_ms,
            retry: self.retries.map(RetryPolicy::new),
            retry_budget: self.retry_budget,
            hedge: self.hedge,
            breaker: self.breaker.map(BreakerSpec::new),
            brownout: self.brownout.map(BrownoutSpec::new),
        };
        if spec.enabled() {
            spec
        } else {
            ResilienceSpec::disabled()
        }
    }

    fn constraint(&self, default_budget: f64) -> Result<Constraint, String> {
        match (self.budget, self.deadline) {
            (Some(b), None) => Ok(Constraint::Budget(b)),
            (None, Some(t)) => Ok(Constraint::Deadline(t)),
            (None, None) => Ok(Constraint::Budget(default_budget)),
            (Some(_), Some(_)) => Err("pass either --budget or --deadline, not both".to_string()),
        }
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("invalid value for {flag}: {s}"))
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
fn parse_f64(s: &str, flag: &str, (ok, want): FloatRange) -> Result<f64, String> {
    let x: f64 = parse_num(s, flag)?;
    if x.is_finite() && ok(x) {
        Ok(x)
    } else {
        Err(format!("invalid value for {flag}: {s} {want}"))
    }
}

fn cmd_profile(opts: &Opts) -> Result<(), String> {
    let env = Environment::aws_default();
    let w = opts.workload()?;
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
    Ok(())
}

/// The bracket `plan-tuning` plans, and the method it plans with.
fn tuning_job(opts: &Opts) -> Result<(TuningJob, Method), String> {
    let w = opts.workload()?;
    let method = opts.method()?;
    let sha = ShaSpec::try_new(opts.trials.unwrap_or(256), 2, 2)
        .map_err(|e| format!("invalid value for --trials: {e}"))?;
    let profile = ParetoProfiler::new(&Environment::aws_default()).profile_workload(&w);
    let default_budget =
        PartitionPlan::uniform(*profile.cheapest().expect("nonempty"), sha).cost() * 2.0;
    let job =
        TuningJob::new(w, sha, opts.constraint(default_budget)?).with_seed(opts.seed.unwrap_or(42));
    Ok((job, method))
}

fn cmd_plan_tuning(opts: &Opts) -> Result<(), String> {
    let (job, method) = tuning_job(opts)?;
    let job = job.with_obs(ce_scaling::obs::global());
    let sha = job.sha;
    match job.plan_for(method) {
        Ok((plan, overhead_s, evals)) => {
            println!(
                "{} plan for {} ({} trials, {} stages) under {:?}:\n",
                method.label(),
                job.workload.label(),
                sha.initial_trials,
                sha.num_stages(),
                job.constraint
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
                plan.jct(job.env.max_concurrency),
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
    Ok(())
}

/// The job `train` runs, and the method it runs under.
fn training_job(opts: &Opts) -> Result<(TrainingJob, Method), String> {
    use ce_scaling::ml::curve::{table4_target, CurveParams};
    let w = opts.workload()?;
    let method = opts.method()?;
    let profile = ParetoProfiler::new(&Environment::aws_default()).profile_workload(&w);
    let boundary = profile.boundary();
    let mid = boundary[boundary.len() / 2];
    let params = CurveParams::for_workload(w.model.family, &w.dataset.name);
    let target = table4_target(w.model.family, &w.dataset.name);
    let default_budget = mid.cost_usd() * params.mean_epochs_to(target).expect("reachable") * 2.0;
    let every = opts.checkpoint_every.map_or(1, u64::from);
    ce_scaling::sim::SpecError::nonzero(&[(every, "--checkpoint-every", "epoch")])?;
    let mut job =
        TrainingJob::new(w, opts.constraint(default_budget)?).with_seed(opts.seed.unwrap_or(42));
    job.platform.failure_rate = opts.failure_rate.unwrap_or(job.platform.failure_rate);
    job.chaos = opts.chaos.clone();
    job.recovery = opts.recovery.unwrap_or(job.recovery);
    job.checkpoint_every = opts.checkpoint_every;
    Ok((job, method))
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    let (job, method) = training_job(opts)?;
    let job = job.with_obs(ce_scaling::obs::global());
    match job.run(method) {
        Ok(r) => {
            println!(
                "{} on {} under {:?} (target loss {}):\n",
                method.label(),
                job.workload.label(),
                job.constraint,
                job.target_loss
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
    Ok(())
}

/// The fleet `cluster` simulates, and the admission policy it runs.
fn cluster_spec(opts: &Opts) -> Result<(ClusterSpec, Box<dyn AdmissionPolicy>), String> {
    use ce_scaling::cluster::{policy_by_name, policy_names};
    let policy_name = opts.policy.as_deref().unwrap_or("fifo");
    let policy = policy_by_name(policy_name)
        .ok_or_else(|| ce_scaling::sim::unknown_name_msg("policy", policy_name, policy_names()))?;
    let fleet = FleetSpec::poisson(
        opts.jobs.unwrap_or(40),
        opts.rate.unwrap_or(12.0),
        opts.seed.unwrap_or(42),
    );
    let mut spec = ClusterSpec::new(fleet, opts.quota.unwrap_or(60));
    spec.job_cap = opts.job_cap.unwrap_or(spec.job_cap);
    spec.engine = match opts.engine.as_deref() {
        None | Some("heap") => FleetEngine::Heap,
        Some("naive") => FleetEngine::Naive,
        Some(other) => return Err(format!("unknown engine: {other} (heap|naive)")),
    };
    spec.chaos = opts.chaos.clone();
    spec.recovery = opts.recovery.unwrap_or(spec.recovery);
    spec.checkpoint_every = opts.checkpoint_every;
    spec.topology = opts.topology.clone().unwrap_or(spec.topology);
    spec.placement = opts.placement.clone().unwrap_or(spec.placement);
    spec.validate()?;
    Ok((spec, policy))
}

fn cmd_cluster(opts: &Opts) -> Result<(), String> {
    use ce_scaling::cluster::{ArrivalProcess, JobStatus};
    let (spec, policy) = cluster_spec(opts)?;
    let ArrivalProcess::Poisson { rate_per_min: rate } = spec.fleet.arrivals else {
        unreachable!("the CLI fleet is Poisson")
    };
    let quota = spec.quota;
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
    Ok(())
}

/// A serving run: the spec, its autoscaler and its keep-alive policy.
type ServeRun = (ServeSpec, Box<dyn Autoscaler>, Box<dyn KeepAlive>);

/// The run `serve` simulates. The spec is checked before either policy
/// is built (a `qlearn` autoscaler trains as it parses).
fn serve_spec(opts: &Opts) -> Result<ServeRun, String> {
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
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read arrival log {path}: {e}"))?;
                let arrival_s = ce_scaling::serve::read_arrival_log(&text)
                    .map_err(|e| format!("bad arrival log {path}: {e}"))?;
                ArrivalModel::Trace { arrival_s }
            } else if other == "zoo" || other.starts_with("zoo:") {
                let rest = other.strip_prefix("zoo:").unwrap_or("");
                ArrivalModel::Zoo {
                    spec: ce_scaling::serve::parse_zoo(rest)?,
                }
            } else {
                return Err(format!(
                    "unknown arrivals model: {other} (poisson|diurnal|bursty|trace:<path>|zoo:<preset>)"
                ));
            }
        }
    };
    let mut spec = ServeSpec::new(arrivals, duration, opts.seed.unwrap_or(42));
    spec.slo_ms = opts.slo_ms.unwrap_or(spec.slo_ms);
    spec.chaos = opts.chaos.clone();
    spec.queue_cap = opts.queue_cap.unwrap_or(spec.queue_cap);
    spec.resilience = opts.resilience();
    spec.topology = opts.topology.clone().unwrap_or(spec.topology);
    spec.placement = opts.placement.clone().unwrap_or(spec.placement);
    spec.validate()?;
    let autoscaler =
        ce_scaling::serve::parse_autoscaler(opts.autoscaler.as_deref().unwrap_or("target"))?;
    let keep_alive =
        ce_scaling::faas::parse_keep_alive(opts.keepalive.as_deref().unwrap_or("fixed"))
            .map_err(|e| e.to_string())?;
    Ok((spec, autoscaler, keep_alive))
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let (spec, autoscaler, keep_alive) = serve_spec(opts)?;
    let (duration, resilient) = (spec.duration_s, spec.resilience.enabled());
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
    if resilient {
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
    Ok(())
}

/// The fleet `lifecycle` simulates, and the priority policy it runs.
/// The simulator builds every tenant's autoscaler and keep-alive policy
/// by name, so both names are parsed here once the spec passes.
fn lifecycle_spec(opts: &Opts) -> Result<(LifecycleSpec, Box<dyn PriorityPolicy>), String> {
    use ce_scaling::lifecycle::{priority_by_name, priority_names};
    let policy_name = opts.policy.as_deref().unwrap_or("serve-first");
    let policy = priority_by_name(policy_name).ok_or_else(|| {
        ce_scaling::sim::unknown_name_msg("priority policy", policy_name, priority_names())
    })?;
    let mut spec = LifecycleSpec::new(
        opts.tenants.unwrap_or(4),
        opts.duration.unwrap_or(300.0),
        opts.seed.unwrap_or(42),
    );
    spec.quota = opts.quota.unwrap_or(spec.quota);
    spec.job_cap = opts.job_cap.unwrap_or(spec.job_cap);
    spec.rps = opts.rps.unwrap_or(spec.rps);
    spec.slo_ms = opts.slo_ms.unwrap_or(spec.slo_ms);
    spec.drift_mean_s = opts.drift_every.unwrap_or(spec.drift_mean_s);
    spec.autoscaler = opts.autoscaler.clone().unwrap_or(spec.autoscaler);
    spec.keep_alive = opts.keepalive.clone().unwrap_or(spec.keep_alive);
    spec.chaos = opts.chaos.clone();
    spec.queue_cap = opts.queue_cap.unwrap_or(spec.queue_cap);
    spec.resilience = opts.resilience();
    spec.topology = opts.topology.clone().unwrap_or(spec.topology);
    spec.placement = opts.placement.clone().unwrap_or(spec.placement);
    spec.validate()?;
    ce_scaling::serve::parse_autoscaler(&spec.autoscaler)?;
    ce_scaling::faas::parse_keep_alive(&spec.keep_alive).map_err(|e| e.to_string())?;
    Ok((spec, policy))
}

fn cmd_lifecycle(opts: &Opts) -> Result<(), String> {
    let (spec, policy) = lifecycle_spec(opts)?;
    let (tenants, duration, quota) = (spec.tenants, spec.duration_s, spec.quota);
    let resilient = spec.resilience.enabled();
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
    if resilient {
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
    Ok(())
}

fn cmd_storage(opts: &Opts) -> Result<(), String> {
    let env = Environment::aws_default();
    let w = opts.workload()?;
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
    Ok(())
}

#[cfg(test)]
mod tests {
    //! In-process flag fuzz: whole flag sets go through `Opts::parse` and
    //! each command's spec builder. No process is spawned and no
    //! simulation runs; a builder that accepts must hand back a spec its
    //! own `validate()` accepts, and every refusal is one line.

    use super::*;
    use ce_scaling::sim::SimRng;

    /// Values a numeric flag is drawn from: small valid ones half the
    /// time, else zero, negatives, non-finite, huge integers, extreme
    /// floats, or junk.
    const NUMBERS: (&[&str], &[&str]) = (
        &["1", "2", "8", "60", "0.5"],
        &[
            "0",
            "-0",
            "-1",
            "nan",
            "inf",
            "-inf",
            "1e-300",
            "1e300",
            "1e9",
            "100001",
            "4294967295",
            "4294967296",
            "18446744073709551616",
            "x",
            "",
        ],
    );
    const TOPOLOGIES: &[&str] = &[
        "single",
        "edge-cloud",
        "pool:a;pool:b",
        "pool:a,quota=0",
        "?",
    ];
    const PLACEMENTS: &[&str] = &["edge-first", "workload-aware", "nowhere"];
    const CHAOS: &[&str] = &["crash:0.1@0..inf", "outage:s3@10..20", "gremlins"];
    const RECOVERY: &[&str] = &["retry", "checkpoint", "replan", "pray"];
    const MODELS: &[&str] = &["lr", "svm", "gpt"];
    const DATASETS: &[&str] = &["higgs", "yfcc", "mnist"];
    const METHODS: &[&str] = &["ce", "lambdaml", "siren", "fixed", "magic"];
    /// Trained autoscalers stay tiny: a builder parses, and so trains,
    /// every one it accepts.
    const AUTOSCALERS: &[&str] = &[
        "target",
        "prewarm",
        "fixed:4",
        "fixed:0",
        "fixed:100000",
        "fixed:100001",
        "fixed:100000000",
        "fixed:4294967296",
        "qlearn:1:0.2:0.1",
        "qlearn:0:0.2:0.1",
        "psychic",
    ];
    const KEEP_ALIVES: &[&str] = &[
        "fixed",
        "fixed:60",
        "adaptive",
        "histogram",
        "fixed:-3",
        "lru",
    ];

    /// Draws `cases` flag sets of up to eight `(flag, values)` picks from
    /// `flags` (a numeric flag lists no values and draws from
    /// [`NUMBERS`]) and runs each through `Opts::parse` and `build`.
    /// Every refusal must be one non-empty line, and both outcomes must
    /// occur.
    fn fuzz(
        label: &str,
        cases: u32,
        flags: &[(&str, &[&str])],
        build: impl Fn(&Opts) -> Result<(), String>,
    ) {
        let mut rng = SimRng::new(0xF1A9).derive(label);
        let mut accepted = 0;
        for _ in 0..cases {
            let mut args = Vec::new();
            for _ in 0..rng.gen_index(9) {
                let (flag, values) = flags[rng.gen_index(flags.len())];
                let values = match (values.is_empty(), rng.bernoulli(0.5)) {
                    (false, _) => values,
                    (true, true) => NUMBERS.0,
                    (true, false) => NUMBERS.1,
                };
                args.push(flag.to_string());
                args.push(values[rng.gen_index(values.len())].to_string());
            }
            match Opts::parse(label, &args).and_then(|opts| build(&opts)) {
                Ok(()) => accepted += 1,
                Err(e) => assert!(
                    !e.is_empty() && !e.contains('\n'),
                    "{label} {args:?}: not one line: {e:?}"
                ),
            }
        }
        assert!(
            0 < accepted && accepted < cases,
            "{label}: {accepted} of {cases} flag sets accepted"
        );
    }

    #[test]
    fn serve_flags_build_valid_specs_or_fail_in_one_line() {
        let arrivals: &[&str] = &[
            "poisson",
            "diurnal",
            "bursty",
            "zoo:mixed",
            "zoo",
            "trace:/no/such/log",
            "magic",
        ];
        fuzz(
            "serve",
            400,
            &[
                ("--rps", &[]),
                ("--duration", &[]),
                ("--arrivals", arrivals),
                ("--autoscaler", AUTOSCALERS),
                ("--keepalive", KEEP_ALIVES),
                ("--queue-cap", &[]),
                ("--slo-ms", &[]),
                ("--seed", &[]),
                ("--timeout-ms", &[]),
                ("--retries", &[]),
                ("--hedge", &["p95", "100", "p50", "-1"]),
                ("--breaker", &[]),
                ("--topology", TOPOLOGIES),
                ("--placement", PLACEMENTS),
                ("--chaos", CHAOS),
            ],
            |opts| {
                let (spec, _, _) = serve_spec(opts)?;
                assert_eq!(spec.validate(), Ok(()), "{opts:?}");
                Ok(())
            },
        );
    }

    #[test]
    fn lifecycle_flags_build_valid_specs_or_fail_in_one_line() {
        let policies: &[&str] = &[
            "serve-first",
            "train-first",
            "fair-share",
            "deadline",
            "yolo",
        ];
        fuzz(
            "lifecycle",
            400,
            &[
                ("--tenants", &[]),
                ("--duration", &[]),
                ("--rps", &[]),
                ("--quota", &[]),
                ("--job-cap", &[]),
                ("--drift-every", &[]),
                ("--queue-cap", &[]),
                ("--slo-ms", &[]),
                ("--policy", policies),
                ("--autoscaler", AUTOSCALERS),
                ("--keepalive", KEEP_ALIVES),
                ("--retries", &[]),
                ("--topology", TOPOLOGIES),
                ("--placement", PLACEMENTS),
                ("--chaos", CHAOS),
            ],
            |opts| {
                let (spec, _) = lifecycle_spec(opts)?;
                assert_eq!(spec.validate(), Ok(()), "{opts:?}");
                Ok(())
            },
        );
    }

    #[test]
    fn cluster_flags_build_valid_specs_or_fail_in_one_line() {
        let policies: &[&str] = &["fifo", "edf", "cost-greedy", "reject-on-overload", "magic"];
        fuzz(
            "cluster",
            400,
            &[
                ("--jobs", &[]),
                ("--rate", &[]),
                ("--quota", &[]),
                ("--job-cap", &[]),
                ("--checkpoint-every", &[]),
                ("--seed", &[]),
                ("--policy", policies),
                ("--engine", &["heap", "naive", "quantum"]),
                ("--recovery", RECOVERY),
                ("--topology", TOPOLOGIES),
                ("--placement", PLACEMENTS),
                ("--chaos", CHAOS),
            ],
            |opts| {
                let (spec, _) = cluster_spec(opts)?;
                assert_eq!(spec.validate(), Ok(()), "{opts:?}");
                Ok(())
            },
        );
    }

    /// A finite positive budget or deadline, as every job needs.
    fn constraint_ok(c: Constraint) -> bool {
        let (Constraint::Budget(x) | Constraint::Deadline(x)) = c;
        x.is_finite() && x > 0.0
    }

    #[test]
    fn train_flags_build_runnable_jobs_or_fail_in_one_line() {
        fuzz(
            "train",
            150,
            &[
                ("--model", MODELS),
                ("--dataset", DATASETS),
                ("--method", METHODS),
                ("--budget", &[]),
                ("--deadline", &[]),
                ("--failure-rate", &[]),
                ("--checkpoint-every", &[]),
                ("--recovery", RECOVERY),
                ("--chaos", CHAOS),
                ("--seed", &[]),
            ],
            |opts| {
                let (job, _) = training_job(opts)?;
                assert_ne!(job.checkpoint_every, Some(0), "{opts:?}");
                assert!(constraint_ok(job.constraint), "{opts:?}");
                assert!((0.0..=1.0).contains(&job.platform.failure_rate), "{opts:?}");
                Ok(())
            },
        );
    }

    #[test]
    fn plan_tuning_flags_build_valid_brackets_or_fail_in_one_line() {
        let trials: &[&str] = &[
            "64",
            "256",
            "1024",
            "0",
            "3",
            "100",
            "4294967295",
            "-1",
            "x",
        ];
        fuzz(
            "plan-tuning",
            150,
            &[
                ("--model", MODELS),
                ("--dataset", DATASETS),
                ("--method", METHODS),
                ("--trials", trials),
                ("--budget", &[]),
                ("--deadline", &[]),
                ("--seed", &[]),
            ],
            |opts| {
                let (job, _) = tuning_job(opts)?;
                let sha = job.sha;
                let again = ShaSpec::try_new(
                    sha.initial_trials,
                    sha.reduction_factor,
                    sha.epochs_per_stage,
                );
                assert_eq!(again.ok(), Some(sha), "{opts:?}");
                assert!(constraint_ok(job.constraint), "{opts:?}");
                Ok(())
            },
        );
    }

    /// `help` prints each wrapped option description under the
    /// description column, and lists every flag a command reads.
    #[test]
    fn usage_aligns_wrapped_descriptions_and_lists_every_flag() {
        /// Where `--chaos SPEC      fault schedule` starts its description.
        const COLUMN: usize = 20;
        let options = USAGE
            .split_once("options:\n")
            .and_then(|(_, rest)| rest.split("\n\n").next())
            .expect("an options section");
        let mut wrapped = 0;
        for line in options.lines() {
            let text = line.trim_start();
            let indent = line.len() - text.len();
            if indent == 2 && text.starts_with('-') {
                continue;
            }
            wrapped += 1;
            assert_eq!(indent, COLUMN, "wrapped option line {line:?}");
        }
        assert!(wrapped > 0, "no wrapped option line in {options:?}");
        for (name, _, flags) in COMMANDS {
            for flag in flags.split_whitespace() {
                assert!(
                    options
                        .lines()
                        .any(|l| l.trim_start().starts_with(&format!("{flag} "))),
                    "{name} reads {flag}, but the usage text does not list it"
                );
            }
        }
    }
}
