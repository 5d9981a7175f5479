//! Property-based tests over the core invariants.
//!
//! Uses an in-tree seeded harness instead of proptest (the offline build
//! vendors no external crates): each property runs many randomized cases
//! drawn from a `SimRng` stream derived from the property's name, so
//! failures are reproducible by case index and the sweep is identical on
//! every run.

use ce_scaling::ml::curve::CurveParams;
use ce_scaling::ml::{DatasetSpec, ModelFamily, ModelSpec};
use ce_scaling::models::{Allocation, CostModel, Environment, EpochTimeModel, Workload};
use ce_scaling::pareto::{dominates, AllocPoint, ParetoProfiler, Profile};
use ce_scaling::sim::rng::SimRng;
use ce_scaling::storage::StorageKind;
use ce_scaling::tuning::{GreedyPlanner, Objective, PartitionPlan, ShaSpec};

/// Root seed for every property stream.
const PROP_SEED: u64 = 0xCE5C_A11E;

/// Runs `body` against `iters` independent randomized cases. Each case gets
/// its own deterministic RNG stream; on failure the case index is printed
/// so the exact inputs can be re-derived.
fn prop(label: &'static str, iters: u64, body: impl Fn(&mut SimRng)) {
    for case in 0..iters {
        let mut rng = SimRng::new(PROP_SEED).derive_idx(label, case);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!("property `{label}` failed on case {case}/{iters}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Spellings a grammar fuzzer draws from: mostly valid ones, and a
/// tenth of the time a broken one.
type Piece = (&'static [&'static str], &'static [&'static str]);

fn pick(rng: &mut SimRng, (valid, broken): Piece) -> &'static str {
    let options = if rng.bernoulli(0.9) { valid } else { broken };
    options[rng.gen_index(options.len())]
}

/// A fuzzed spelling of a registry name: one of `names`, a near miss, or
/// printable noise.
fn fuzzed_name(rng: &mut SimRng, names: &[&str]) -> String {
    let name = names[rng.gen_index(names.len())];
    match rng.gen_index(6) {
        0 | 1 => name.to_string(),
        2 => name.to_uppercase(),
        3 => format!("{name}{}", [" ", ":", "x", "-"][rng.gen_index(4)]),
        4 => name[..rng.gen_index(name.len() + 1)].to_string(),
        _ => (0..rng.gen_index(10))
            .map(|_| char::from(b' ' + rng.gen_index(95) as u8))
            .collect(),
    }
}

fn any_storage(rng: &mut SimRng) -> StorageKind {
    [
        StorageKind::S3,
        StorageKind::DynamoDb,
        StorageKind::ElastiCache,
        StorageKind::VmPs,
    ][rng.gen_index(4)]
}

fn point(time: f64, cost: f64) -> AllocPoint {
    AllocPoint {
        alloc: Allocation::new(1, 512, StorageKind::S3),
        time: ce_scaling::models::TimeBreakdown {
            load_s: 0.0,
            compute_s: time,
            sync_s: 0.0,
        },
        cost: ce_scaling::models::CostBreakdown {
            invocation: 0.0,
            compute: cost,
            storage_requests: 0.0,
            storage_runtime: 0.0,
        },
    }
}

/// The Pareto boundary is mutually non-dominated and weakly covers every
/// pruned point, for arbitrary point clouds.
#[test]
fn pareto_boundary_invariants() {
    prop("pareto_boundary", 128, |rng| {
        let n = 1 + rng.gen_index(59);
        let points: Vec<AllocPoint> = (0..n)
            .map(|_| point(rng.uniform_range(0.1, 1e4), rng.uniform_range(0.1, 1e3)))
            .collect();
        let profile = Profile::from_points(points.clone());
        let boundary = profile.boundary();
        assert!(!boundary.is_empty());
        for a in &boundary {
            for b in &boundary {
                assert!(
                    !dominates(a.time_s(), a.cost_usd(), b.time_s(), b.cost_usd())
                        || std::ptr::eq(*a, *b)
                );
            }
        }
        for p in &points {
            let covered = boundary
                .iter()
                .any(|b| b.time_s() <= p.time_s() && b.cost_usd() <= p.cost_usd());
            assert!(covered);
        }
    });
}

/// Epoch time decreases (weakly) with more memory, at any worker count and
/// storage; epoch cost is always positive.
#[test]
fn epoch_time_monotone_in_memory() {
    prop("epoch_time_monotone", 128, |rng| {
        let n = 1 + rng.gen_index(199) as u32;
        let mem_step = rng.gen_index(6);
        let storage = any_storage(rng);
        let env = Environment::aws_default();
        let w = Workload::new(ModelSpec::logistic_regression(), DatasetSpec::higgs());
        let ladder = [512u32, 1024, 1769, 3072, 5120, 8192, 10240];
        let m_lo = ladder[mem_step];
        let m_hi = ladder[mem_step + 1];
        let model = EpochTimeModel::new(&env);
        let t_lo = model.epoch_time(&w, &Allocation::new(n, m_lo, storage));
        let t_hi = model.epoch_time(&w, &Allocation::new(n, m_hi, storage));
        assert!(t_hi.total() <= t_lo.total() + 1e-9);
        let cost = CostModel::new(&env)
            .epoch_cost(&w, &Allocation::new(n, m_lo, storage), &t_lo)
            .expect("catalog storage");
        assert!(cost.total() > 0.0);
    });
}

/// Billed compute dollars equal n × memory-GB × seconds × rate for any
/// inputs (conservation of billing).
#[test]
fn billing_conservation() {
    prop("billing_conservation", 256, |rng| {
        let n = 1 + rng.gen_index(499) as u32;
        let mem = 128 + rng.gen_index(10240 - 128) as u32;
        let secs = rng.uniform_range(0.0, 1e5);
        let pricing = ce_scaling::models::FunctionPricing::aws_default();
        let cost = pricing.compute_cost(n, mem, secs);
        let expect = f64::from(n) * f64::from(mem) / 1024.0 * secs * pricing.per_gb_second;
        assert!((cost - expect).abs() < 1e-9 * expect.max(1.0));
    });
}

/// SHA stage arithmetic: trial counts follow q/rf^i exactly and the final
/// stage has `rf` trials.
#[test]
fn sha_stage_arithmetic() {
    prop("sha_stage_arithmetic", 64, |rng| {
        let power = 1 + rng.gen_index(13) as u32;
        let rf = 2 + rng.gen_index(2) as u32;
        let initial = rf.pow(power);
        let sha = ShaSpec::new(initial, rf, 2);
        assert_eq!(sha.num_stages(), power as usize);
        for s in 0..sha.num_stages() {
            assert_eq!(sha.trials_in_stage(s), initial / rf.pow(s as u32));
        }
        assert_eq!(sha.trials_in_stage(sha.num_stages() - 1), rf);
    });
}

/// The greedy planner never exceeds the budget and never does worse than
/// the optimal static plan, for any budget headroom.
#[test]
fn planner_dominates_static_under_any_budget() {
    prop("planner_dominates_static", 16, |rng| {
        let slack = rng.uniform_range(1.05, 4.0);
        let env = Environment::aws_default();
        let w = if rng.bernoulli(0.5) {
            Workload::lr_higgs()
        } else {
            Workload::mobilenet_cifar10()
        };
        let profile = ParetoProfiler::new(&env).profile_workload(&w);
        let sha = ShaSpec::new(64, 2, 2);
        let budget = PartitionPlan::uniform(*profile.cheapest().unwrap(), sha).cost() * slack;
        let planner = GreedyPlanner::new(&profile, sha, env.max_concurrency);
        let (plan, static_plan, _) = planner
            .plan(Objective::MinJctGivenBudget {
                budget,
                qos_s: None,
            })
            .expect("feasible");
        assert!(plan.cost() <= budget + 1e-9);
        assert!(plan.jct(env.max_concurrency) <= static_plan.jct(env.max_concurrency) + 1e-9);
    });
}

/// The convergence curve's epoch inversion round-trips for any parameters
/// and reachable target.
#[test]
fn curve_inversion_roundtrip() {
    prop("curve_inversion", 256, |rng| {
        let initial = rng.uniform_range(0.5, 5.0);
        let floor = initial * rng.uniform_range(0.01, 0.9);
        let rate = rng.uniform_range(0.01, 5.0);
        let target_frac = rng.uniform_range(0.05, 0.95);
        let params = CurveParams {
            initial,
            floor,
            rate,
            power: 1.0,
            obs_noise: 0.0,
            rate_var: 0.0,
        };
        let target = floor + (initial - floor) * target_frac;
        let e = params.mean_epochs_to(target).expect("reachable");
        assert!((params.mean_loss_at(e) - target).abs() < 1e-6);
    });
}

/// Deterministic streams: deriving the same label from the same seed
/// always yields the same sequence; different labels diverge.
#[test]
fn rng_stream_determinism() {
    prop("rng_stream_determinism", 128, |rng| {
        let seed = rng.next_u64();
        let len = 1 + rng.gen_index(12);
        let label: String = (0..len)
            .map(|_| char::from(b'a' + rng.gen_index(26) as u8))
            .collect();
        let a: Vec<u64> = {
            let mut r = SimRng::new(seed).derive(&label);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::new(seed).derive(&label);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = SimRng::new(seed).derive(&format!("{label}x"));
        let c: Vec<u64> = (0..8).map(|_| other.next_u64()).collect();
        assert_ne!(a, c);
    });
}

/// Storage request pricing is monotone in object size and never negative;
/// runtime pricing is monotone in duration.
#[test]
fn storage_pricing_monotone() {
    prop("storage_pricing_monotone", 256, |rng| {
        let size_a = rng.uniform_range(0.001, 500.0);
        let size_b = rng.uniform_range(0.001, 500.0);
        let secs_a = rng.uniform_range(0.0, 1e5);
        let secs_b = rng.uniform_range(0.0, 1e5);
        let storage = any_storage(rng);
        let env = Environment::aws_default();
        let spec = env.storage.get(storage).unwrap();
        let (lo, hi) = if size_a <= size_b {
            (size_a, size_b)
        } else {
            (size_b, size_a)
        };
        assert!(spec.pricing.put_cost(lo) <= spec.pricing.put_cost(hi));
        assert!(spec.pricing.get_cost(lo) <= spec.pricing.get_cost(hi));
        assert!(spec.pricing.put_cost(lo) >= 0.0);
        let (t_lo, t_hi) = if secs_a <= secs_b {
            (secs_a, secs_b)
        } else {
            (secs_b, secs_a)
        };
        assert!(spec.pricing.runtime_cost(t_lo) <= spec.pricing.runtime_cost(t_hi));
    });
}

/// Sync transfer counts: VM-PS always needs at most as many transfers as
/// stateless storage, and both grow linearly with n.
#[test]
fn sync_pattern_invariants() {
    prop("sync_pattern", 256, |rng| {
        let n = 1 + rng.gen_index(999) as u32;
        let env = Environment::aws_default();
        let s3 = env.storage.get(StorageKind::S3).unwrap();
        let vm = env.storage.get(StorageKind::VmPs).unwrap();
        let stateless = ce_scaling::storage::sync::transfers_per_iteration(s3, n);
        let vmps = ce_scaling::storage::sync::transfers_per_iteration(vm, n);
        assert!(vmps <= stateless);
        assert_eq!(stateless, 3 * n - 2);
        assert_eq!(vmps, 2 * n - 2);
    });
}

/// ModelSpec compute time is positive and monotone non-increasing in
/// memory for every family.
#[test]
fn compute_time_positive_and_monotone() {
    prop("compute_time_monotone", 256, |rng| {
        let mem = 128 + rng.gen_index(10000 - 128) as u32;
        let family_idx = rng.gen_index(5);
        let zoo = ModelSpec::paper_zoo();
        let model = &zoo[family_idx];
        let t = model.compute_time_per_mb(mem);
        assert!(t > 0.0);
        assert!(model.compute_time_per_mb(mem + 240) <= t + 1e-12);
        let _ = ModelFamily::LogisticRegression; // exercised via the zoo
    });
}

/// Instance-pool conservation: after any acquire/release sequence of
/// training waves, warm hits plus creations equal invocations, and the
/// pool never holds more instances than were created.
#[test]
fn instance_pool_conservation() {
    prop("instance_pool", 128, |rng| {
        use ce_scaling::faas::WavePool;
        use ce_scaling::sim::time::SimTime;
        let mut pool = WavePool::new();
        let mut now = 0.0f64;
        let ops = 1 + rng.gen_index(29);
        for _ in 0..ops {
            let n = 1 + rng.gen_index(19) as u32;
            let mem = [1024u32, 1769][rng.gen_index(2)];
            let busy = rng.uniform_range(1.0, 100.0);
            let before = pool.stats().invocations;
            let cold = pool.acquire(n, mem, SimTime::from_secs(now));
            assert_eq!(pool.stats().invocations - before, u64::from(n));
            assert!(cold <= n);
            now += busy;
            pool.release(n, mem, busy, SimTime::from_secs(now));
        }
        let stats = pool.stats();
        assert_eq!(stats.warm_hits + stats.created, stats.invocations);
        assert!(pool.len() as u64 <= stats.created);
    });
}

/// ASP inflation is ≥ 1, monotone in n, and bounded.
#[test]
fn asp_inflation_bounds() {
    prop("asp_inflation", 256, |rng| {
        use ce_scaling::models::asp_epoch_inflation;
        let n = 1 + rng.gen_index(4999) as u32;
        let f = asp_epoch_inflation(n);
        assert!((1.0..=1.35).contains(&f));
        assert!(asp_epoch_inflation(n + 1) >= f);
    });
}

/// Failure injection never reduces wall time, and scales billing with the
/// wall.
#[test]
fn failure_injection_monotone() {
    prop("failure_injection", 32, |rng| {
        use ce_scaling::faas::{ExecutionFidelity, FaasPlatform, PlatformConfig};
        let seed = rng.gen_index(200) as u64;
        let rate = rng.uniform_range(0.0, 0.4);
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(20, 1769, StorageKind::S3);
        let run = |failure_rate: f64| {
            let mut p = FaasPlatform::with_config(
                Environment::aws_default(),
                PlatformConfig {
                    failure_rate,
                    ..PlatformConfig::default()
                },
                seed,
            );
            p.run_epoch(&w, &alloc, ExecutionFidelity::Fast).unwrap()
        };
        let clean = run(0.0);
        let faulty = run(rate);
        assert!(faulty.wall_s + 1e-9 >= clean.wall_s - clean.failure_s);
        assert!(faulty.failure_s >= 0.0);
        if faulty.failures == 0 {
            assert_eq!(faulty.failure_s, 0.0);
        }
    });
}

/// Scheduler counter invariants (Algorithm 2, via ce-obs): a δ-drift
/// trigger precedes every adjustment, so `triggers >= adjustments` always;
/// and `evaluations` is monotone non-decreasing across epochs.
#[test]
fn scheduler_counter_invariants() {
    prop("scheduler_counters", 12, |rng| {
        use ce_scaling::ml::curve::LossCurve;
        use ce_scaling::training::{AdaptiveScheduler, SchedulerConfig, TrainingObjective};
        let env = Environment::aws_default();
        let w = Workload::mobilenet_cifar10();
        let profile = ParetoProfiler::new(&env).profile_workload(&w);
        let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");
        let budget = rng.uniform_range(20.0, 120.0);
        let delta = rng.uniform_range(0.005, 0.2);
        let mut sched = AdaptiveScheduler::new(
            &profile,
            TrainingObjective::MinJctGivenBudget { budget },
            0.2,
            params.initial,
            SchedulerConfig {
                delta,
                ..SchedulerConfig::default()
            },
        );
        sched.initial_allocation(40.0);
        let mut run = LossCurve::sample_optimal(&params, SimRng::new(rng.next_u64()));
        let mut last_evals = sched.stats().evaluations;
        for _ in 0..25 {
            sched.on_epoch_end(run.next_epoch(), 0.3, 30.0);
            let stats = sched.stats();
            assert!(
                stats.triggers >= stats.adjustments,
                "every adjustment must be preceded by a trigger: {stats:?}"
            );
            assert!(
                stats.evaluations >= last_evals,
                "evaluations must be monotone: {} < {last_evals}",
                stats.evaluations
            );
            last_evals = stats.evaluations;
        }
    });
}

/// The same seed gives the same bytes: a training job run twice into
/// fresh registries exports byte-identical metrics. No simulation reads
/// the thread count (DESIGN §5g), so CI's runs of this suite at 1 and at
/// 8 threads cover the thread dimension for this property and the two
/// below.
#[test]
fn same_seed_runs_export_identical_metrics_jsonl() {
    use ce_scaling::obs::Registry;
    use ce_scaling::workflow::{Constraint, Method, TrainingJob};

    // Two runs of the same job with the same seed, each feeding a fresh
    // registry, must export byte-identical JSONL: counters, gauges,
    // histograms, and the replayed event timeline are all sim-time
    // stamped and never touch the wall clock.
    let export = || {
        let reg = Registry::new();
        let job = TrainingJob::new(Workload::mobilenet_cifar10(), Constraint::Budget(100.0))
            .with_seed(11)
            .with_obs(&reg);
        job.run(Method::CeScaling).expect("converges");
        reg.export_jsonl()
    };
    let a = export();
    let b = export();
    assert!(!a.is_empty());
    assert!(a.lines().any(|l| l.contains("\"type\":\"event\"")));
    assert_eq!(a, b, "same seed must give a byte-identical metrics stream");
}

/// Random configurations of the cluster (policy × chaos × fleet engine)
/// and serving (arrival model × autoscaler × keep-alive) fleets, each run
/// twice into fresh registries, give identical reports and byte-identical
/// metric exports.
#[test]
fn sequential_and_parallel_runs_are_bit_identical() {
    use ce_scaling::chaos::FaultSchedule;
    use ce_scaling::cluster::{policy_by_name, ClusterSim, ClusterSpec, FleetEngine, FleetSpec};
    use ce_scaling::obs::Registry;
    use ce_scaling::serve::{autoscaler_by_name, ArrivalModel, ServeSim, ServeSpec};
    use ce_scaling::workflow::RecoveryPolicy;

    let cluster_chaos = [
        "",
        "crash:0.1@0..inf",
        "outage:s3@300..900;crash:0.05@0..inf",
    ];
    let policies = ["fifo", "edf", "cost-greedy", "reject-on-overload"];
    prop("seq_par_cluster", 3, |rng| {
        let jobs = 6 + rng.gen_index(12);
        let rate = rng.uniform_range(5.0, 40.0);
        let seed = rng.next_u64();
        let quota = 20 + rng.gen_index(100) as u32;
        let policy = policies[rng.gen_index(policies.len())];
        let chaos = cluster_chaos[rng.gen_index(cluster_chaos.len())];
        let engine = [FleetEngine::Heap, FleetEngine::Naive][rng.gen_index(2)];

        let run = || {
            let mut spec = ClusterSpec::new(FleetSpec::poisson(jobs, rate, seed), quota)
                .with_job_cap(6)
                .with_recovery(RecoveryPolicy::CheckpointResume)
                .with_checkpoint_every(5)
                .with_engine(engine);
            if !chaos.is_empty() {
                spec = spec.with_chaos(FaultSchedule::parse(chaos).expect("pool specs parse"));
            }
            let registry = Registry::new();
            let report = ClusterSim::new(spec, policy_by_name(policy).expect("known policy"))
                .with_obs(&registry)
                .run();
            (report, registry.export_jsonl())
        };
        let (first_report, first_jsonl) = run();
        let (second_report, second_jsonl) = run();
        let label = format!("jobs={jobs} policy={policy} chaos=`{chaos}` engine={engine:?}");
        assert_eq!(first_report, second_report, "reports diverge: {label}");
        assert_eq!(first_jsonl, second_jsonl, "metrics diverge: {label}");
    });

    let autoscalers = ["target", "prewarm", "fixed:32"];
    let keep_alives = ["adaptive", "histogram", "fixed:120"];
    prop("seq_par_serve", 3, |rng| {
        let rps = rng.uniform_range(10.0, 40.0);
        let duration = rng.uniform_range(120.0, 400.0);
        let seed = rng.next_u64();
        let arrivals = match rng.gen_index(3) {
            0 => ArrivalModel::Poisson { rps },
            1 => ArrivalModel::Diurnal {
                base_rps: rps,
                amplitude: 0.8,
                period_s: duration / 2.0,
            },
            _ => ArrivalModel::Bursty {
                low_rps: rps / 4.0,
                high_rps: rps * 4.0,
                mean_dwell_s: 60.0,
            },
        };
        let autoscaler = autoscalers[rng.gen_index(autoscalers.len())];
        let keep_alive = keep_alives[rng.gen_index(keep_alives.len())];

        let run = || {
            let registry = Registry::new();
            let sim = ServeSim::new(
                ServeSpec::new(arrivals.clone(), duration, seed).with_slo_ms(800.0),
                autoscaler_by_name(autoscaler).expect("known autoscaler"),
                ce_scaling::faas::keep_alive_by_name(keep_alive).expect("known keep-alive"),
            )
            .with_obs(&registry);
            let report = sim.run();
            (
                report.completed,
                report.dollars.to_bits(),
                registry.export_jsonl(),
            )
        };
        let label = format!("autoscaler={autoscaler} keep_alive={keep_alive}");
        assert_eq!(run(), run(), "serve run diverges: {label}");
    });
}

/// Random lifecycle fleets (tenants × priority policy × chaos), each run
/// twice into fresh registries, give identical reports and byte-identical
/// metric exports — preemption rollbacks, drift retrains and redeploys
/// included.
#[test]
fn lifecycle_runs_are_thread_count_invariant() {
    use ce_scaling::chaos::FaultSchedule;
    use ce_scaling::lifecycle::{priority_by_name, priority_names, LifecycleSim, LifecycleSpec};
    use ce_scaling::obs::Registry;

    let lifecycle_chaos = [
        "",
        "crash:0.1@0..inf",
        "outage:s3@30..90;throttle:0.2@0..inf",
    ];
    prop("seq_par_lifecycle", 3, |rng| {
        let tenants = 1 + rng.gen_index(3) as u32;
        let duration = rng.uniform_range(60.0, 150.0);
        let seed = rng.next_u64();
        let quota = 8 + rng.gen_index(25) as u32;
        let job_cap = 2 + rng.gen_index(7) as u32;
        let priority = priority_names()[rng.gen_index(priority_names().len())];
        let chaos = lifecycle_chaos[rng.gen_index(lifecycle_chaos.len())];

        let run = || {
            let mut spec = LifecycleSpec::new(tenants, duration, seed)
                .with_quota(quota)
                .with_job_cap(job_cap)
                .with_rps(rng_free_rps(tenants))
                .with_drift_mean_s(60.0);
            if !chaos.is_empty() {
                spec = spec.with_chaos(FaultSchedule::parse(chaos).expect("pool specs parse"));
            }
            let registry = Registry::new();
            let report = LifecycleSim::new(spec, priority_by_name(priority).expect("known"))
                .with_obs(&registry)
                .run();
            (report, registry.export_jsonl())
        };
        let (first_report, first_jsonl) = run();
        let (second_report, second_jsonl) = run();
        let label = format!("tenants={tenants} quota={quota} priority={priority} chaos=`{chaos}`");
        assert_eq!(
            first_report, second_report,
            "lifecycle reports diverge: {label}"
        );
        assert_eq!(
            first_jsonl, second_jsonl,
            "lifecycle metrics diverge: {label}"
        );
    });
}

/// The indexed (heap) fleet engine is a pure reimplementation of the
/// naive scan engine: over random small fleets — random size, arrival
/// rate, policy, quota, chaos spec, and recovery policy — both engines
/// must produce identical `JobOutcome` vectors and byte-identical
/// `cluster.*` metric exports.
#[test]
fn fleet_engines_are_differentially_identical() {
    use ce_scaling::chaos::FaultSchedule;
    use ce_scaling::cluster::{policy_by_name, ClusterSim, ClusterSpec, FleetEngine, FleetSpec};
    use ce_scaling::obs::Registry;
    use ce_scaling::workflow::RecoveryPolicy;

    let chaos_pool = [
        "",
        "crash:0.2@0..inf",
        "outage:s3@300..900;crash:0.05@0..inf",
        "degrade:elasticache:x4@0..1800;coldspike:x5@0..600",
        "wave:0.5@200..260;throttle:0.4~3/hx120",
    ];
    let policies = ["fifo", "edf", "cost-greedy", "reject-on-overload"];
    let recoveries = [
        RecoveryPolicy::Retry,
        RecoveryPolicy::CheckpointResume,
        RecoveryPolicy::Replan,
    ];
    prop("fleet_engine_differential", 4, |rng| {
        let jobs = 6 + rng.gen_index(15);
        let rate = rng.uniform_range(5.0, 40.0);
        let seed = rng.next_u64();
        let quota = 20 + rng.gen_index(100) as u32;
        let policy = policies[rng.gen_index(policies.len())];
        let chaos = chaos_pool[rng.gen_index(chaos_pool.len())];
        let recovery = recoveries[rng.gen_index(recoveries.len())];
        let job_cap = 4 + rng.gen_index(8) as u32;
        let checkpoint_every = 3 + rng.gen_index(5) as u32;

        let run = |engine: FleetEngine| {
            let mut spec = ClusterSpec::new(FleetSpec::poisson(jobs, rate, seed), quota)
                .with_job_cap(job_cap)
                .with_recovery(recovery)
                .with_checkpoint_every(checkpoint_every)
                .with_engine(engine);
            if !chaos.is_empty() {
                spec = spec.with_chaos(FaultSchedule::parse(chaos).expect("pool specs parse"));
            }
            let registry = Registry::new();
            let report = ClusterSim::new(spec, policy_by_name(policy).expect("known policy"))
                .with_obs(&registry)
                .run();
            (report, registry.export_jsonl())
        };
        let (heap_report, heap_jsonl) = run(FleetEngine::Heap);
        let (naive_report, naive_jsonl) = run(FleetEngine::Naive);
        let label = format!(
            "jobs={jobs} rate={rate:.1} quota={quota} policy={policy} \
             chaos=`{chaos}` recovery={recovery:?}"
        );
        assert_eq!(
            heap_report.jobs, naive_report.jobs,
            "outcomes diverge: {label}"
        );
        assert_eq!(heap_report, naive_report, "reports diverge: {label}");
        assert_eq!(heap_jsonl, naive_jsonl, "metrics diverge: {label}");
    });
}

/// Keeps the randomized lifecycle cases affordable: request load shrinks
/// as the tenant count grows, so total arrivals stay roughly constant.
fn rng_free_rps(tenants: u32) -> f64 {
    12.0 / tenants as f64
}

/// Resilience off is the identity: a spec carrying an explicitly
/// disabled `ResilienceSpec` produces byte-identical reports and metric
/// exports to a spec that never heard of resilience — the zero-draw
/// gating contract.
#[test]
fn disabled_resilience_is_byte_identical_to_baseline() {
    use ce_scaling::chaos::FaultSchedule;
    use ce_scaling::lifecycle::{priority_by_name, LifecycleSim, LifecycleSpec};
    use ce_scaling::obs::Registry;
    use ce_scaling::resilience::ResilienceSpec;
    use ce_scaling::serve::{autoscaler_by_name, ArrivalModel, ServeSim, ServeSpec};

    let chaos_pool = [
        "",
        "crash:0.2@10..60",
        "coldspike:x4@0..inf;crash:0.1@0..inf",
    ];
    prop("resilience_off_serve", 3, |rng| {
        let seed = rng.next_u64();
        let rps = rng.uniform_range(10.0, 30.0);
        let chaos = chaos_pool[rng.gen_index(chaos_pool.len())];
        let run = |resilient_off: bool| {
            let mut spec = ServeSpec::new(ArrivalModel::Poisson { rps }, 120.0, seed);
            if !chaos.is_empty() {
                spec = spec.with_chaos(FaultSchedule::parse(chaos).expect("pool specs parse"));
            }
            if resilient_off {
                spec = spec.with_resilience(ResilienceSpec::disabled());
            }
            let registry = Registry::new();
            let report = ServeSim::new(
                spec,
                autoscaler_by_name("target").expect("known autoscaler"),
                ce_scaling::faas::keep_alive_by_name("adaptive").expect("known keep-alive"),
            )
            .with_obs(&registry)
            .run();
            (report, registry.export_jsonl())
        };
        let (base, off) = (run(false), run(true));
        assert_eq!(
            base.0, off.0,
            "serve report drifts under a disabled spec: chaos=`{chaos}`"
        );
        assert_eq!(
            base.1, off.1,
            "serve metrics drift under a disabled spec: chaos=`{chaos}`"
        );
    });

    prop("resilience_off_lifecycle", 2, |rng| {
        let seed = rng.next_u64();
        let chaos = chaos_pool[rng.gen_index(chaos_pool.len())];
        let run = |resilient_off: bool| {
            let mut spec = LifecycleSpec::new(2, 90.0, seed)
                .with_quota(16)
                .with_rps(4.0)
                .with_drift_mean_s(45.0);
            if !chaos.is_empty() {
                spec = spec.with_chaos(FaultSchedule::parse(chaos).expect("pool specs parse"));
            }
            if resilient_off {
                spec = spec.with_resilience(ResilienceSpec::disabled());
            }
            let registry = Registry::new();
            let report = LifecycleSim::new(spec, priority_by_name("serve-first").expect("known"))
                .with_obs(&registry)
                .run();
            (report, registry.export_jsonl())
        };
        let (base, off) = (run(false), run(true));
        assert_eq!(
            base.0, off.0,
            "lifecycle report drifts under a disabled spec: chaos=`{chaos}`"
        );
        assert_eq!(
            base.1, off.1,
            "lifecycle metrics drift under a disabled spec: chaos=`{chaos}`"
        );
    });
}

/// Under arbitrary chaos × resilience configurations, the typed
/// verdicts partition arrivals exactly, every dispatch is an attempt,
/// and every attempt pays the per-invocation fee.
#[test]
fn resilient_chaos_partitions_arrivals_and_bills_every_attempt() {
    use ce_scaling::chaos::FaultSchedule;
    use ce_scaling::resilience::{
        BreakerSpec, BrownoutSpec, HedgePolicy, ResilienceSpec, RetryPolicy,
    };
    use ce_scaling::serve::{autoscaler_by_name, ArrivalModel, ServeSim, ServeSpec};

    // ce-faas pricing: dollars = per_invocation x attempts + GB-s terms.
    const PER_INVOCATION: f64 = 2e-7;
    let chaos_pool = [
        "crash:0.3@10..60",
        "outage:s3@30..70;crash:0.1@0..inf",
        "throttle:0.3@0..inf;crash:0.2@20..80",
        "coldspike:x6@0..inf;crash:0.4@0..inf",
    ];
    prop("resilience_partition", 8, |rng| {
        let seed = rng.next_u64();
        let chaos = chaos_pool[rng.gen_index(chaos_pool.len())];
        let res = ResilienceSpec {
            timeout_ms: rng.bernoulli(0.5).then(|| rng.uniform_range(300.0, 2000.0)),
            retry: rng
                .bernoulli(0.7)
                .then(|| RetryPolicy::new(1 + rng.gen_index(3) as u32)),
            retry_budget: None,
            hedge: rng.bernoulli(0.5).then_some(HedgePolicy::P95),
            breaker: rng.bernoulli(0.5).then(|| BreakerSpec::new(0.5)),
            brownout: rng.bernoulli(0.3).then(|| BrownoutSpec::new(0.5)),
        };
        let spec = ServeSpec::new(
            ArrivalModel::Poisson {
                rps: rng.uniform_range(10.0, 40.0),
            },
            120.0,
            seed,
        )
        .with_chaos(FaultSchedule::parse(chaos).expect("pool specs parse"))
        .with_queue_cap(1 + rng.gen_index(200))
        .with_resilience(res.clone());
        let r = ServeSim::new(
            spec,
            autoscaler_by_name("prewarm").expect("known autoscaler"),
            ce_scaling::faas::keep_alive_by_name("fixed:60").expect("known keep-alive"),
        )
        .run();
        let label = format!("chaos=`{chaos}` res={res:?}");
        if let Err(e) = r.verdicts().check() {
            panic!("{e}: {label}");
        }
        assert!(
            r.attempts >= r.completed + r.failed + r.timed_out,
            "settled requests each took at least one attempt: {label}"
        );
        assert!(
            r.dollars >= PER_INVOCATION * r.attempts as f64 - 1e-12,
            "every attempt owes the invocation fee: {label}"
        );
    });
}

// ---------------------------------------------------------------------------
// Trace-zoo statistics: the generator's families must actually *have* the
// temporal shape their name promises, not merely run. Each test measures a
// population statistic on a long window and checks it against the theoretical
// value with a generous tolerance — seeds are fixed, so these never flake.
// ---------------------------------------------------------------------------

/// Per-function arrival schedules for one preset on a fixed stream.
fn zoo_schedules(
    preset: &str,
    duration_s: f64,
) -> Vec<(ce_scaling::serve::FunctionClass, Vec<f64>)> {
    let spec = ce_scaling::serve::ZooSpec::preset(preset).expect("known preset");
    spec.per_function(duration_s, &SimRng::new(PROP_SEED).derive("zoo-stats"))
}

/// Least-squares slope of `y` against `x`.
fn slope(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let var: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    cov / var
}

/// Index of dispersion (Fano factor) of counts over fixed-width bins.
fn fano(arrivals: &[f64], duration_s: f64, bin_s: f64) -> f64 {
    let bins = (duration_s / bin_s) as usize;
    let mut counts = vec![0.0_f64; bins];
    for &t in arrivals {
        counts[((t / bin_s) as usize).min(bins - 1)] += 1.0;
    }
    let mean = counts.iter().sum::<f64>() / bins as f64;
    let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / bins as f64;
    var / mean
}

/// Empirical per-function counts follow the configured Zipf tail: the
/// log-log regression of count against rank recovers the exponent.
#[test]
fn zoo_empirical_popularity_recovers_the_zipf_exponent() {
    let spec = ce_scaling::serve::ZooSpec::preset("steady").expect("known preset");
    let schedules = zoo_schedules("steady", 2000.0);
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for (rank, (_, arrivals)) in schedules.iter().enumerate() {
        // Only ranks with enough arrivals for the count to concentrate.
        if arrivals.len() >= 50 {
            xs.push(((rank + 1) as f64).ln());
            ys.push((arrivals.len() as f64).ln());
        }
    }
    assert!(
        xs.len() >= 20,
        "need a fitting range, got {} ranks",
        xs.len()
    );
    let fitted = -slope(&xs, &ys);
    assert!(
        (fitted - spec.zipf_exponent).abs() < 0.2,
        "fitted Zipf exponent {fitted:.3} vs configured {}",
        spec.zipf_exponent
    );
}

/// Bursty-class functions are overdispersed (Fano factor well above the
/// Poisson value of 1); steady-class functions are not.
#[test]
fn zoo_bursty_functions_beat_the_poisson_fano_baseline() {
    let duration = 2400.0;
    let bursty = &zoo_schedules("bursty", duration)[0].1;
    let steady = &zoo_schedules("steady", duration)[0].1;
    let fano_bursty = fano(bursty, duration, 5.0);
    let fano_steady = fano(steady, duration, 5.0);
    assert!(
        fano_steady < 1.5,
        "steady head function should look Poisson, Fano {fano_steady:.2}"
    );
    assert!(
        fano_bursty > 2.0 && fano_bursty > 2.0 * fano_steady,
        "ON-OFF head function must be overdispersed: Fano {fano_bursty:.2} \
         vs steady {fano_steady:.2}"
    );
}

/// Diurnal-class functions actually swing: the peak quarter of each cycle
/// carries several times the arrivals of the trough quarter.
#[test]
fn zoo_diurnal_functions_swing_between_peak_and_trough() {
    let spec = ce_scaling::serve::ZooSpec::preset("diurnal").expect("known preset");
    let period = spec.diurnal_period_s;
    let duration = 4.0 * period;
    let head = &zoo_schedules("diurnal", duration)[0].1;
    // rate(t) = base·(1 + a·sin(2πt/period)): peak quarter centered at
    // period/4, trough quarter at 3·period/4.
    let (mut peak, mut trough) = (0u64, 0u64);
    for &t in head {
        let phase = (t % period) / period;
        if (0.125..0.375).contains(&phase) {
            peak += 1;
        } else if (0.625..0.875).contains(&phase) {
            trough += 1;
        }
    }
    // Theory at amplitude 0.8: mean quarter rates base·(1 ± 0.8·2√2/π),
    // a ratio of ≈6.1. Assert half that to stay far from flakiness.
    let ratio = peak as f64 / trough.max(1) as f64;
    assert!(
        ratio > 3.0,
        "peak/trough arrival ratio {ratio:.2} (peak {peak}, trough {trough})"
    );
}

/// Every preset's merged schedule is a valid arrival log: ascending,
/// finite, in-range, and bit-exact through the write/read round trip.
#[test]
fn zoo_schedules_roundtrip_the_arrival_log_for_every_preset() {
    use ce_scaling::serve::{read_arrival_log, write_arrival_log, ZooSpec};
    for preset in ce_scaling::serve::zoo_preset_names() {
        let spec = ZooSpec::preset(preset).expect("known preset");
        let arrivals = spec.generate(300.0, &SimRng::new(PROP_SEED).derive("zoo-log"));
        assert!(!arrivals.is_empty(), "{preset} generated nothing");
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "{preset} schedule must ascend"
        );
        assert!(
            arrivals
                .iter()
                .all(|&t| t.is_finite() && (0.0..300.0).contains(&t)),
            "{preset} schedule must stay finite and in-window"
        );
        let replayed = read_arrival_log(&write_arrival_log(&arrivals))
            .unwrap_or_else(|e| panic!("{preset} log must parse: {e}"));
        assert_eq!(replayed, arrivals, "{preset} log round trip must be exact");
    }
}

/// The keep-alive spec grammar never panics. Random `fixed:` bodies
/// (signs, numbers, exponents, `inf`, `NaN`, junk, empty) and random
/// policy names each parse to a policy or to the typed error naming
/// what is wrong, and a `fixed:` spec parses exactly when its body is a
/// finite number of seconds `>= 0`.
#[test]
fn keep_alive_specs_parse_or_fail_typed() {
    use ce_scaling::faas::{parse_keep_alive, KeepAliveParseError};
    use ce_scaling::sim::time::SimTime;
    const PIECES: [&str; 16] = [
        "0", "7", "42", ".5", "1e9", "1e400", "e", "inf", "infinity", "NaN", "nan", " ", "x", ":",
        "_", "",
    ];
    const NAMES: [&str; 8] = [
        "fixed",
        "adaptive",
        "histogram",
        "Fixed",
        "histogram:",
        "fixed;1",
        "lru",
        "",
    ];
    prop("keep-alive-spec", 500, |rng| {
        let mut body = String::new();
        if rng.bernoulli(0.3) {
            body.push_str(["+", "-"][rng.gen_index(2)]);
        }
        for _ in 0..rng.gen_index(4) {
            body.push_str(PIECES[rng.gen_index(PIECES.len())]);
        }
        let spec = match rng.gen_index(4) {
            0 | 1 => format!("fixed:{body}"),
            2 => NAMES[rng.gen_index(NAMES.len())].to_string(),
            _ => (0..rng.gen_index(8))
                .map(|_| char::from(b' ' + rng.gen_index(95) as u8))
                .collect(),
        };
        let outcome = parse_keep_alive(&spec);
        if let Err(e) = &outcome {
            assert!(!e.to_string().is_empty(), "{spec:?}: empty message");
        }
        match (outcome, spec.strip_prefix("fixed:")) {
            (Ok(policy), Some(rest)) => {
                let ttl: f64 = rest.parse().expect("accepted TTL parses");
                assert!(ttl.is_finite() && ttl >= 0.0, "{spec:?} accepted TTL {ttl}");
                assert_eq!(policy.ttl_s(SimTime::from_secs(0.0)), ttl, "{spec:?}");
            }
            (Err(KeepAliveParseError::InvalidTtl { raw, .. }), Some(rest)) => {
                assert_eq!(raw, rest, "{spec:?}");
                assert!(
                    !rest.parse::<f64>().is_ok_and(|v| v.is_finite() && v >= 0.0),
                    "{spec:?} rejected a valid TTL"
                );
            }
            (Ok(policy), None) => {
                assert!(
                    ["fixed", "adaptive", "histogram"].contains(&spec.as_str()),
                    "{spec:?} parsed as {}",
                    policy.name()
                );
            }
            (Err(KeepAliveParseError::UnknownPolicy(name)), None) => assert_eq!(name, spec),
            (Err(e), _) => panic!("{spec:?}: wrong error kind {e:?}"),
        }
    });
}

/// A loss history for the fitter's differential tests: an inverse-power
/// run of 3–600 epochs (600 is a run's epoch cap), noisy or exact,
/// sometimes with rollback replays (a segment re-observed from an
/// earlier checkpoint, as quota preemption produces). Sometimes one loss
/// is zero (so `min_loss == 0`) or hostile (NaN, ±inf, negative), or
/// every loss is zero.
fn fit_history(rng: &mut SimRng) -> (f64, Vec<f64>) {
    use ce_scaling::ml::curve::LossCurve;
    let initial = rng.uniform_range(0.5, 5.0);
    let params = CurveParams {
        initial,
        floor: initial * rng.uniform_range(0.0, 0.9),
        rate: 10f64.powf(rng.uniform_range(-2.5, 1.5)),
        power: 1.0,
        obs_noise: [0.0, 0.01, 0.05, 0.2][rng.gen_index(4)],
        rate_var: rng.uniform_range(0.0, 0.3),
    };
    let mut run = LossCurve::sample_optimal(&params, SimRng::new(rng.next_u64()));
    let mut history = Vec::new();
    let len = 3 + rng.gen_index(598);
    while history.len() < len {
        history.push(run.next_epoch());
        if history.len() > 4 && rng.bernoulli(0.05) {
            let checkpoint = rng.gen_index(history.len());
            let replay = history[checkpoint..].to_vec();
            history.extend(replay);
        }
    }
    history.truncate(len);
    let at = rng.gen_index(len);
    match rng.gen_index(10) {
        0 | 1 => history[at] = 0.0,
        2 => {
            let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.25, -0.0];
            history[at] = hostile[rng.gen_index(hostile.len())];
        }
        3 => history.fill(0.0),
        _ => {}
    }
    (initial, history)
}

fn assert_same_fit(
    got: Option<ce_scaling::training::FittedCurve>,
    oracle: Option<ce_scaling::training::FittedCurve>,
    what: &str,
) {
    let bits = |f: Option<ce_scaling::training::FittedCurve>| {
        f.map(|c| (c.initial.to_bits(), c.floor.to_bits(), c.rate.to_bits()))
    };
    assert_eq!(bits(got), bits(oracle), "{what}: {got:?} vs {oracle:?}");
}

/// The warm-started sweep, with its closed-form filter, returns the
/// exhaustive sweep's exact bits for every history and every hint: none,
/// the previous fit, the fit itself, an unrelated curve, and hostile
/// values.
#[test]
fn hinted_fit_matches_the_exhaustive_sweep() {
    use ce_scaling::training::{FittedCurve, LossCurveFitter};
    prop("hinted_fit_differential", 96, |rng| {
        let (initial, history) = fit_history(rng);
        let fitter = LossCurveFitter::new(initial);
        let oracle = fitter.fit_exhaustive(&history);
        let min_loss = history.iter().cloned().fold(f64::INFINITY, f64::min);
        let curve = |floor, rate| {
            Some(FittedCurve {
                initial,
                floor,
                rate,
            })
        };
        let mut hints = vec![
            None,
            fitter.fit_exhaustive(&history[..history.len() - 1]),
            oracle,
            curve(
                rng.uniform_range(0.0, 2.0),
                10f64.powf(rng.uniform_range(-4.0, 4.0)),
            ),
            curve(min_loss * 4.0 + 1.0, 0.5),
            curve(-1.0, 0.5),
            curve(f64::NAN, 0.5),
            curve(f64::INFINITY, 0.5),
        ];
        for rate in [
            0.0,
            -0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            1e-300,
        ] {
            hints.push(curve(min_loss / 2.0, rate));
        }
        for hint in hints {
            assert_same_fit(
                fitter.fit_pruned(&history, hint),
                oracle,
                &format!("len {} hint {hint:?}", history.len()),
            );
        }
    });
}

/// An online predictor's warm-started refits, filtered by the grid sums
/// it grows as it observes, equal a fresh exhaustive fit of the prefix:
/// after each of the first 120 observations, and at every 37th and the
/// last one after that.
#[test]
fn online_refits_match_fresh_exhaustive_fits() {
    use ce_scaling::training::{LossCurveFitter, OnlinePredictor};
    prop("online_refit_differential", 6, |rng| {
        let (initial, history) = fit_history(rng);
        let fitter = LossCurveFitter::new(initial);
        let mut online = OnlinePredictor::new(initial);
        for (n, &loss) in history.iter().enumerate() {
            online.observe(loss);
            if n >= 120 && n % 37 != 0 && n + 1 < history.len() {
                continue;
            }
            assert_same_fit(
                online.fitted(),
                fitter.fit_exhaustive(&history[..=n]),
                &format!("prefix {}", n + 1),
            );
        }
    });
}

/// The pruned sweep on real run histories: the per-epoch losses of traced
/// training jobs, a checkpoint-resume run under crashes included (so
/// rollback replays appear), fed through an `OnlinePredictor` give the
/// exhaustive sweep's exact bits at every prefix.
#[test]
fn online_refits_of_traced_runs_match_fresh_exhaustive_fits() {
    use ce_scaling::chaos::FaultSchedule;
    use ce_scaling::training::{LossCurveFitter, OnlinePredictor};
    use ce_scaling::workflow::{Constraint, Method, RecoveryPolicy, TraceKind, TrainingJob};
    let job = |w: Workload, seed| {
        TrainingJob::new(w, Constraint::Budget(1e4))
            .with_seed(seed)
            .with_trace()
    };
    let jobs = [
        job(Workload::mobilenet_cifar10(), 11),
        job(Workload::lr_higgs(), 23),
        job(Workload::mobilenet_cifar10(), 42)
            .with_chaos(FaultSchedule::parse("crash:0.15@0..inf").expect("chaos spec parses"))
            .with_recovery(RecoveryPolicy::CheckpointResume)
            .with_checkpoint_every(5),
    ];
    let mut rollbacks = 0;
    for job in jobs {
        let initial =
            CurveParams::for_workload(job.workload.model.family, &job.workload.dataset.name)
                .initial;
        let report = job.run(Method::CeScaling).expect("the job trains");
        let trace = report.trace.expect("traced run");
        let mut losses = Vec::new();
        for event in trace.events() {
            match event.kind {
                TraceKind::Epoch { loss, .. } => losses.push(loss),
                TraceKind::Fault { lost_epochs, .. } if lost_epochs > 0 => rollbacks += 1,
                _ => {}
            }
        }
        assert!(losses.len() >= 10, "only {} epochs", losses.len());
        let fitter = LossCurveFitter::new(initial);
        let mut online = OnlinePredictor::new(initial);
        for (n, &loss) in losses.iter().enumerate() {
            online.observe(loss);
            assert_same_fit(
                online.fitted(),
                fitter.fit_exhaustive(&losses[..=n]),
                &format!("seed {} prefix {}", job.seed, n + 1),
            );
        }
    }
    assert!(
        rollbacks > 0,
        "the crash run must replay rolled-back epochs"
    );
}

/// The process-wide profile memo is pure: two threads profiling two
/// different workloads, interleaved, each get exactly the profile a fresh
/// sweep gives.
#[test]
fn cached_profiles_match_fresh_sweeps_across_threads() {
    use std::sync::Barrier;
    let env = Environment::aws_default();
    let profiler = ParetoProfiler::new(&env);
    let workloads = [Workload::lr_higgs(), Workload::mobilenet_cifar10()];
    let fresh = workloads
        .each_ref()
        .map(|w| format!("{:?}", profiler.profile_workload(w)));
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for first in 0..2 {
            let (profiler, workloads, fresh, start) = (&profiler, &workloads, &fresh, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..8 {
                    let i = (first + round) % 2;
                    let cached = profiler.profile_workload_cached(&workloads[i]);
                    assert_eq!(
                        format!("{cached:?}"),
                        fresh[i],
                        "workload {i} round {round}"
                    );
                }
            });
        }
    });
}

/// The `--chaos` grammar never panics: random specs built from valid and
/// broken fault heads, services, severities, windows, bursts and
/// separators either parse or fail with a non-empty `ChaosSpecError`,
/// and every accepted spec round-trips through `Display`.
#[test]
fn chaos_specs_parse_or_fail_typed() {
    use ce_scaling::chaos::FaultSchedule;
    const HEADS: Piece = (
        &[
            "crash",
            "wave",
            "throttle",
            "coldspike",
            "outage",
            "degrade",
        ],
        &["meteor", "CRASH", "", " "],
    );
    const SERVICES: Piece = (
        &[
            "s3",
            "dynamodb",
            "DYNAMO",
            "elasticache",
            "redis",
            "cache",
            "vmps",
            "vm-ps",
        ],
        &["floppy", "", "s3 x"],
    );
    const RATES: Piece = (
        &["0", "1", "0.3", "1e-3", "0.000001", "-0", " 0.5 "],
        &["1.5", "-0.2", "NaN", "inf", "", "x0.5", "0..1"],
    );
    const FACTORS: Piece = (
        &["x4", "x1", "4", "1e3", "x1.5", "x1e300"],
        &["x0.5", "0", "1e400", "NaN", "", "xx2", "x"],
    );
    const STARTS: Piece = (
        &["0", "10", "0.5", "1e-7", "-0", " 3 "],
        &["-5", "inf", "", "x", "1e400"],
    );
    const ENDS: Piece = (
        &["inf", "INF", "Inf", "100", "1e6", "3600.5"],
        &["", "nan", "1e400", "0", "-inf", "..", "5..6"],
    );
    const PER_HOUR: Piece = (&["0", "2", "1.5", "1e-2"], &["-1", "inf", "", "NaN"]);
    const DURATIONS: Piece = (&["60", "0.5", "1e4", " 90"], &["0", "-60", "inf", ""]);
    const SEPARATORS: Piece = (&[";", "; ", " ;", ";;"], &[":", ",", "@", "~"]);
    prop("chaos-spec", 600, |rng| {
        let mut spec = String::new();
        for _ in 0..rng.gen_index(4) {
            if !spec.is_empty() {
                spec.push_str(pick(rng, SEPARATORS));
            }
            let head = pick(rng, HEADS);
            spec.push_str(head);
            let params = match head {
                "outage" => vec![pick(rng, SERVICES)],
                "degrade" => vec![pick(rng, SERVICES), pick(rng, FACTORS)],
                "coldspike" => vec![pick(rng, FACTORS)],
                _ => vec![pick(rng, RATES)],
            };
            for param in params {
                spec.push(':');
                spec.push_str(param);
            }
            if rng.bernoulli(0.05) {
                spec.push_str(":extra");
            }
            match rng.gen_index(20) {
                0 => {}
                1..=5 => {
                    spec.push('~');
                    spec.push_str(pick(rng, PER_HOUR));
                    spec.push_str(if rng.bernoulli(0.9) { "/hx" } else { "/h" });
                    spec.push_str(pick(rng, DURATIONS));
                }
                _ => {
                    spec.push('@');
                    spec.push_str(pick(rng, STARTS));
                    spec.push_str(if rng.bernoulli(0.9) { ".." } else { "-" });
                    spec.push_str(pick(rng, ENDS));
                }
            }
        }
        match FaultSchedule::parse(&spec) {
            Ok(schedule) => {
                let rendered = schedule.to_string();
                let again = FaultSchedule::parse(&rendered).unwrap_or_else(|e| {
                    panic!("{spec:?} rendered as unparseable {rendered:?}: {e}")
                });
                assert_eq!(schedule, again, "{spec:?} via {rendered:?}");
            }
            Err(e) => assert!(
                !e.message.is_empty() && !e.to_string().is_empty(),
                "{spec:?}: empty error message"
            ),
        }
    });
}

#[test]
fn scenarios_parse_or_fail_typed() {
    use ce_scaling::workflow::scenario::{Scenario, ScenarioError, ScenarioKind};
    const KINDS: Piece = (
        &["\"training\"", "\"tuning\""],
        &["\"Training\"", "1", "null", "{}"],
    );
    const MODELS: Piece = (
        &["\"lr\"", "\"svm\"", "\"mobilenet\"", "\"bert\""],
        &["\"gpt\"", "\"\"", "3", "[\"lr\"]"],
    );
    const DATASETS: Piece = (
        &["\"higgs\"", "\"yfcc\"", "\"cifar10\"", "null"],
        &["\"mnist\"", "0", "true"],
    );
    const AMOUNTS: Piece = (
        &["10", "1.5", "1e3", "300.0"],
        &[
            "0",
            "-1",
            "1e400",
            "-1e400",
            "\"10\"",
            "null",
            "18446744073709551616",
        ],
    );
    const METHODS: Piece = (
        &[
            "\"ce\"",
            "\"lambdaml\"",
            "\"siren\"",
            "\"cirrus\"",
            "\"fixed\"",
        ],
        &["\"CE\"", "\"magic\"", "7"],
    );
    const SEEDS: Piece = (
        &["[]", "[1]", "[1, 2]", "[18446744073709551615]"],
        &["[-1]", "[1.5]", "1", "[18446744073709551616]", "[\"1\"]"],
    );
    const TRIALS: Piece = (
        &["2", "64", "256", "2147483648"],
        &[
            "0",
            "1",
            "3",
            "100",
            "4000000000",
            "4294967296",
            "-2",
            "1e3",
            "99999999999999999999",
        ],
    );
    const EPOCHS: Piece = (&["1", "2", "5"], &["0", "-1", "2.5", "4294967296"]);
    const RATES: Piece = (
        &["0", "0.0", "0.3", "1", "1e-9"],
        &["2.0", "-1.0", "1e400", "-0.5", "\"0.1\""],
    );
    const STORAGES: Piece = (
        &["\"s3\"", "\"dynamodb\"", "\"elasticache\"", "\"vmps\""],
        &["\"floppy\"", "\"S3\"", "0"],
    );
    let accepted = std::cell::Cell::new(0);
    prop("scenario-json", 600, |rng| {
        let mut fields = Vec::new();
        let mut field = |rng: &mut SimRng, name: &str, piece: Piece, keep: f64| {
            if rng.bernoulli(keep) {
                fields.push(format!("\"{name}\": {}", pick(rng, piece)));
            }
        };
        field(rng, "kind", KINDS, 0.95);
        field(rng, "model", MODELS, 0.95);
        field(rng, "dataset", DATASETS, 0.3);
        field(rng, "method", METHODS, 0.3);
        field(rng, "seeds", SEEDS, 0.3);
        field(rng, "trials", TRIALS, 0.4);
        field(rng, "epochs_per_stage", EPOCHS, 0.3);
        field(rng, "failure_rate", RATES, 0.3);
        field(rng, "storage", STORAGES, 0.3);
        let budget = rng.bernoulli(0.6);
        let deadline = rng.bernoulli(if budget { 0.05 } else { 0.9 });
        let mut constraint = Vec::new();
        if budget {
            constraint.push(format!("\"budget\": {}", pick(rng, AMOUNTS)));
        }
        if deadline {
            constraint.push(format!("\"deadline\": {}", pick(rng, AMOUNTS)));
        }
        if rng.bernoulli(0.95) {
            fields.push(format!("\"constraint\": {{{}}}", constraint.join(", ")));
        }
        let rotate = rng.gen_index(fields.len() + 1);
        fields.rotate_left(rotate);
        let mut json = format!("{{{}}}", fields.join(", "));
        if rng.bernoulli(0.1) {
            json.truncate(rng.gen_index(json.len() + 1));
        }
        match Scenario::from_json(&json) {
            // What parses is what `run` accepts: one finite positive
            // limit, a failure rate in [0, 1], a valid tuning bracket.
            Ok(s) => {
                let limits = [s.constraint.budget, s.constraint.deadline];
                assert_eq!(limits.iter().flatten().count(), 1, "{json}");
                assert!(
                    limits.iter().flatten().all(|x| x.is_finite() && *x > 0.0),
                    "{json}"
                );
                assert!(
                    s.failure_rate.is_none_or(|r| (0.0..=1.0).contains(&r)),
                    "{json}"
                );
                if s.kind == ScenarioKind::Tuning {
                    let bracket = ShaSpec::try_new(
                        s.trials.unwrap_or(256),
                        2,
                        s.epochs_per_stage.unwrap_or(2),
                    );
                    assert!(bracket.is_ok(), "{json}");
                }
                accepted.set(accepted.get() + 1);
            }
            Err(ScenarioError::Invalid(msg)) => assert!(!msg.is_empty(), "{json}"),
            Err(e) => panic!("{json}: parsing failed as a run error: {e}"),
        }
    });
    // Both outcomes must be common, or the sweep tests one side only.
    assert!(
        (60..=540).contains(&accepted.get()),
        "{} accepted",
        accepted.get()
    );
}

#[test]
fn topology_specs_parse_or_fail_typed() {
    use ce_scaling::topo::{parse_topology, MAX_POOLS};
    const NAMES: Piece = (&["edge", "cloud", "a", "b", "eu"], &["", " ", "e-w"]);
    const POOL_KEYS: Piece = (
        &["quota", "rtt", "price", "compute", "cold"],
        &["bw", "", "Rtt"],
    );
    const LINK_KEYS: Piece = (&["rtt", "bw", "egress"], &["quota", "", "price"]);
    const QUOTAS: Piece = (&["1", "4", "60"], &["0", "-1", "1.5", "", "x"]);
    // Valid for every key: factors and bandwidth must be > 0, the rest >= 0.
    const VALUES: Piece = (
        &["1", "0.5", "40", "1e3"],
        &["0", "-1", "nan", "inf", "1e400", "", " 2", "x"],
    );
    const SEPARATORS: Piece = (&[";", "; ", ";;"], &[",", ":", "|"]);
    prop("topology-spec", 600, |rng| {
        let spec = match rng.gen_index(20) {
            0 => ["single", "edge-cloud", "Single", "", ";"][rng.gen_index(5)].to_string(),
            // Around the pool cap.
            1 => (0..MAX_POOLS - 1 + rng.gen_index(4))
                .map(|i| format!("pool:p{i}"))
                .collect::<Vec<_>>()
                .join(";"),
            _ => {
                // Half the specs draw only valid pieces and give each pool
                // a fresh name, so most of those parse.
                let strict = rng.bernoulli(0.5);
                let mut pools = 0;
                let pick = |rng: &mut SimRng, piece: Piece| {
                    if strict {
                        piece.0[rng.gen_index(piece.0.len())]
                    } else {
                        pick(rng, piece)
                    }
                };
                let mut spec = String::new();
                for _ in 0..rng.gen_index(6) {
                    if !spec.is_empty() {
                        spec.push_str(pick(rng, SEPARATORS));
                    }
                    let link = rng.bernoulli(0.3);
                    if link {
                        spec.push_str("link:");
                        spec.push_str(pick(rng, NAMES));
                        spec.push_str(if strict || rng.bernoulli(0.9) {
                            "-"
                        } else {
                            "~"
                        });
                        spec.push_str(pick(rng, NAMES));
                    } else {
                        spec.push_str(if strict || rng.bernoulli(0.95) {
                            "pool:"
                        } else {
                            "node:"
                        });
                        spec.push_str(if strict {
                            NAMES.0[pools]
                        } else {
                            pick(rng, NAMES)
                        });
                        pools += 1;
                    }
                    for _ in 0..rng.gen_index(4) {
                        let key = pick(rng, if link { LINK_KEYS } else { POOL_KEYS });
                        let value = pick(rng, if key == "quota" { QUOTAS } else { VALUES });
                        spec.push(',');
                        spec.push_str(key);
                        spec.push_str(if strict || rng.bernoulli(0.95) {
                            "="
                        } else {
                            ":"
                        });
                        spec.push_str(value);
                    }
                }
                spec
            }
        };
        match parse_topology(&spec) {
            Ok(topo) => {
                let n = topo.pools.len();
                assert!((1..=MAX_POOLS).contains(&n), "{spec:?}: {n} pools");
                for (i, pool) in topo.pools.iter().enumerate() {
                    assert!(
                        topo.pools[..i].iter().all(|p| p.name != pool.name),
                        "{spec:?}: duplicate pool {:?}",
                        pool.name
                    );
                    for factor in [pool.price_factor, pool.compute_factor, pool.cold_factor] {
                        assert!(factor.is_finite() && factor > 0.0, "{spec:?}: {pool:?}");
                    }
                    assert!(pool.rtt_ms.is_finite() && pool.rtt_ms >= 0.0, "{spec:?}");
                }
                for link in &topo.links {
                    for end in [&link.a, &link.b] {
                        assert!(topo.pool_index(end).is_some(), "{spec:?}: {link:?}");
                    }
                    assert!(
                        link.bandwidth_mbps.is_finite() && link.bandwidth_mbps > 0.0,
                        "{spec:?}: {link:?}"
                    );
                }
            }
            Err(e) => assert!(!e.is_empty(), "{spec:?}: empty error message"),
        }
    });
}

#[test]
fn placement_names_parse_or_fail_typed() {
    use ce_scaling::topo::{parse_placement, placement_names};
    prop("placement-name", 300, |rng| {
        let name = fuzzed_name(rng, placement_names());
        match parse_placement(&name) {
            Ok(policy) => assert_eq!(policy.name(), name),
            Err(e) => {
                assert!(
                    !placement_names().contains(&name.as_str()),
                    "{name:?} rejected"
                );
                assert!(e.contains("edge-first|latency-greedy"), "{name:?}: {e}");
            }
        }
    });
}

#[test]
fn autoscaler_specs_parse_or_fail_typed() {
    use ce_scaling::serve::{
        autoscaler_names, parse_autoscaler, MAX_CAPACITY, MAX_QLEARN_EPISODES,
    };
    // Valid episode counts stay tiny: an accepted spec trains a policy.
    const EPISODES: Piece = (
        &["1", "2", "+1"],
        &[
            "0",
            "-1",
            "1.5",
            "100001",
            "4294967295",
            "4294967296",
            "",
            "x",
        ],
    );
    const EPSILONS: Piece = (
        &["0", "0.2", "1", "1e-3"],
        &["1.5", "-0.1", "nan", "inf", ""],
    );
    const ALPHAS: Piece = (&["0.1", "1", "0.5"], &["0", "1.01", "-1", "NaN", "", "x"]);
    // Accepted sizes are only parsed here: a fixed pool prewarms its
    // whole size when a run starts, so no run is built from them.
    const SIZES: Piece = (
        &["1", "4", "600", "100000"],
        &[
            "0",
            "100001",
            "100000000",
            "4294967295",
            "4294967296",
            "-1",
            "",
        ],
    );
    prop("autoscaler-spec", 300, |rng| {
        let spec = if rng.bernoulli(0.7) {
            let mut parts = vec![pick(rng, EPISODES), pick(rng, EPSILONS), pick(rng, ALPHAS)];
            match rng.gen_index(10) {
                0 => parts.truncate(2),
                1 => parts.push(pick(rng, ALPHAS)),
                _ => {}
            }
            format!("qlearn:{}", parts.join(":"))
        } else if rng.bernoulli(0.5) {
            // Huge sizes as often as valid ones.
            let sizes = if rng.bernoulli(0.5) { SIZES.0 } else { SIZES.1 };
            format!("fixed:{}", sizes[rng.gen_index(sizes.len())])
        } else {
            // No `qlearn` here: a truncation could yield plain `qlearn`,
            // which trains for the default 300 episodes.
            fuzzed_name(rng, &["fixed:4", "target", "prewarm"])
        };
        let fixed_size = |n: &str| {
            n.parse::<u32>()
                .is_ok_and(|n| (1..=MAX_CAPACITY).contains(&n))
        };
        let well_formed = spec.strip_prefix("fixed:").map(fixed_size).or_else(|| {
            let body = spec.strip_prefix("qlearn:")?;
            let parts: Vec<&str> = body.split(':').collect();
            let ok = parts.len() == 3
                && parts[0]
                    .parse::<u32>()
                    .is_ok_and(|e| (1..=MAX_QLEARN_EPISODES).contains(&e))
                && parts[1]
                    .parse::<f64>()
                    .is_ok_and(|e| (0.0..=1.0).contains(&e))
                && parts[2].parse::<f64>().is_ok_and(|a| a > 0.0 && a <= 1.0);
            Some(ok)
        });
        match parse_autoscaler(&spec) {
            Ok(scaler) => {
                assert_ne!(well_formed, Some(false), "{spec:?} accepted");
                assert!(!scaler.name().is_empty(), "{spec:?}");
            }
            Err(e) => {
                assert_ne!(well_formed, Some(true), "{spec:?} rejected: {e}");
                let typed = ["qlearn", autoscaler_names()[0]]
                    .iter()
                    .any(|n| e.contains(n));
                assert!(typed, "{spec:?}: untyped error {e}");
            }
        }
    });
}

#[test]
fn zoo_specs_parse_or_fail_typed() {
    use ce_scaling::serve::{parse_zoo, zoo_preset_names};
    prop("zoo-spec", 300, |rng| {
        let rest = fuzzed_name(rng, zoo_preset_names());
        match parse_zoo(&rest) {
            Ok(spec) => assert_eq!(spec.preset, rest),
            Err(e) => {
                assert!(
                    !zoo_preset_names().contains(&rest.as_str()),
                    "{rest:?} rejected"
                );
                assert!(e.contains("mixed|steady"), "{rest:?}: {e}");
            }
        }
    });
}
