//! Cross-crate integration tests: full workflows through the facade.

use ce_scaling::faas::ExecutionFidelity;
use ce_scaling::ml::curve::{table4_target, CurveParams};
use ce_scaling::models::{Allocation, AllocationSpace, CostModel, EpochTimeModel, Workload};
use ce_scaling::prelude::*;
use ce_scaling::storage::StorageKind;
use ce_scaling::workflow::Method;

fn tuning_budget(w: &Workload, sha: ShaSpec, scale: f64) -> f64 {
    let env = Environment::aws_default();
    let profile = ParetoProfiler::new(&env).profile_workload(w);
    ce_scaling::tuning::PartitionPlan::uniform(*profile.cheapest().unwrap(), sha).cost() * scale
}

fn training_budget(w: &Workload, scale: f64) -> f64 {
    let env = Environment::aws_default();
    let profile = ParetoProfiler::new(&env).profile_workload(w);
    let boundary = profile.boundary();
    let mid = boundary[boundary.len() / 2];
    let params = CurveParams::for_workload(w.model.family, &w.dataset.name);
    let target = table4_target(w.model.family, &w.dataset.name);
    mid.cost_usd() * params.mean_epochs_to(target).unwrap() * scale
}

#[test]
fn tuning_full_pipeline_ce_beats_every_baseline() {
    let w = Workload::lr_higgs();
    let sha = ShaSpec::new(512, 2, 2);
    let budget = tuning_budget(&w, sha, 2.5);
    let job =
        TuningJob::new(w, sha, ce_scaling::workflow::Constraint::Budget(budget)).with_seed(100);
    let ce = job.run(Method::CeScaling).expect("CE plans");
    assert!(!ce.budget_violated);
    for baseline in [Method::LambdaMl, Method::Siren, Method::Fixed] {
        let r = job.run(baseline).expect("baseline plans");
        assert!(
            ce.jct_s <= r.jct_s * 1.02,
            "{}: CE {:.0}s vs {:.0}s",
            baseline.label(),
            ce.jct_s,
            r.jct_s
        );
    }
}

#[test]
fn tuning_finds_a_near_optimal_configuration() {
    let w = Workload::lr_higgs();
    let sha = ShaSpec::new(512, 2, 2);
    let budget = tuning_budget(&w, sha, 2.0);
    let job = TuningJob::new(w, sha, ce_scaling::workflow::Constraint::Budget(budget)).with_seed(5);
    let r = job.run(Method::CeScaling).unwrap();
    let quality = job.hyper.quality(&r.best_config);
    assert!(quality > 0.7, "SHA winner quality {quality:.2}");
}

#[test]
fn training_full_pipeline_converges_and_respects_budget() {
    let w = Workload::mobilenet_cifar10();
    let target = table4_target(w.model.family, &w.dataset.name);
    let budget = training_budget(&w, 2.5);
    let job = TrainingJob::new(w, ce_scaling::workflow::Constraint::Budget(budget)).with_seed(3);
    let r = job.run(Method::CeScaling).expect("converges");
    assert!(r.final_loss <= target);
    assert!(
        !r.budget_violated,
        "cost {:.2} vs budget {budget:.2}",
        r.cost_usd
    );
    assert!(r.jct_s > 0.0 && r.epochs > 5);
    assert!(r.comm_s < r.jct_s);
}

#[test]
fn training_reports_are_bit_identical_across_runs() {
    let w = Workload::mobilenet_cifar10();
    let budget = training_budget(&w, 2.0);
    let job = TrainingJob::new(w, ce_scaling::workflow::Constraint::Budget(budget)).with_seed(11);
    let a = job.run(Method::CeScaling).unwrap();
    let b = job.run(Method::CeScaling).unwrap();
    assert_eq!(a, b, "same seed must reproduce the identical report");
}

/// Scheduler and planner work counts are their own, not deltas of the
/// process-global `ce-obs` counters: another thread hammering those
/// counters mid-run must not move a single bit of either report. Both
/// jobs write to that registry too, so they race the writer on it.
#[test]
fn reports_ignore_concurrent_writes_to_the_global_registry() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    let w = Workload::mobilenet_cifar10();
    let train = TrainingJob::new(
        w.clone(),
        ce_scaling::workflow::Constraint::Budget(training_budget(&w, 2.0)),
    )
    .with_seed(11)
    .with_obs(ce_scaling::obs::global());
    let sha = ShaSpec::new(512, 2, 2);
    let tune = TuningJob::new(
        Workload::lr_higgs(),
        sha,
        ce_scaling::workflow::Constraint::Budget(tuning_budget(&Workload::lr_higgs(), sha, 2.5)),
    )
    .with_seed(100)
    .with_obs(ce_scaling::obs::global());
    let quiet = (
        train.run(Method::CeScaling).unwrap(),
        tune.run(Method::CeScaling).unwrap(),
    );
    let stop = AtomicBool::new(false);
    let writing = Barrier::new(2);
    let noisy = std::thread::scope(|scope| {
        scope.spawn(|| {
            let global = ce_scaling::obs::global();
            let mut started = false;
            while !stop.load(Ordering::Relaxed) {
                global.counter("scheduler.evaluations").add(7);
                global.counter("planner.evaluations").add(7);
                if !started {
                    // The jobs start only once the writer is live.
                    writing.wait();
                    started = true;
                }
                std::thread::yield_now();
            }
        });
        writing.wait();
        let noisy = (
            train.run(Method::CeScaling).unwrap(),
            tune.run(Method::CeScaling).unwrap(),
        );
        stop.store(true, Ordering::Relaxed);
        noisy
    });
    assert_eq!(
        quiet.0, noisy.0,
        "training report moved under registry noise"
    );
    assert_eq!(quiet.1, noisy.1, "tuning report moved under registry noise");
}

#[test]
fn different_seeds_give_different_stochastic_outcomes() {
    let w = Workload::mobilenet_cifar10();
    let budget = training_budget(&w, 2.0);
    let epochs: Vec<u32> = (0..4)
        .map(|seed| {
            TrainingJob::new(w.clone(), ce_scaling::workflow::Constraint::Budget(budget))
                .with_seed(seed)
                .run(Method::CeScaling)
                .unwrap()
                .epochs
        })
        .collect();
    let min = epochs.iter().min().unwrap();
    let max = epochs.iter().max().unwrap();
    assert!(
        max > min,
        "convergence epochs must vary across seeds: {epochs:?}"
    );
}

#[test]
fn analytical_model_tracks_simulator_within_paper_band() {
    // The Fig. 19/20 validation property, as a regression test.
    let w = Workload::lr_higgs();
    let env = Environment::aws_default();
    let time_model = EpochTimeModel::new(&env);
    let cost_model = CostModel::new(&env);
    for alloc in [
        Allocation::new(10, 1769, StorageKind::S3),
        Allocation::new(50, 1769, StorageKind::S3),
        Allocation::new(10, 3072, StorageKind::S3),
    ] {
        let est_t = time_model.training_time(&w, &alloc, 5);
        let est_c = cost_model.training_cost(&w, &alloc, 5).expect("catalog");
        let job = TrainingJob::new(
            w.clone(),
            ce_scaling::workflow::Constraint::Budget(f64::INFINITY),
        )
        .with_seed(2);
        let r = job.run_fixed_allocation(alloc, 5, ExecutionFidelity::Event);
        let t_err = (r.jct_s - est_t).abs() / r.jct_s;
        let c_err = (r.cost_usd - est_c).abs() / r.cost_usd;
        assert!(t_err < 0.10, "{alloc}: JCT error {t_err:.3}");
        assert!(c_err < 0.10, "{alloc}: cost error {c_err:.3}");
    }
}

#[test]
fn storage_pinning_flows_through_the_whole_stack() {
    let w = Workload::mobilenet_cifar10();
    let budget = training_budget(&w, 2.5);
    for storage in [StorageKind::S3, StorageKind::ElastiCache, StorageKind::VmPs] {
        let job = TrainingJob::new(w.clone(), ce_scaling::workflow::Constraint::Budget(budget))
            .with_seed(4)
            .with_space(AllocationSpace::aws_default().with_only_storage(storage));
        let r = job.run(Method::CeScaling).unwrap();
        assert!(
            r.allocations.iter().all(|a| a.storage == storage),
            "{storage}: leaked other storage"
        );
    }
}

#[test]
fn lambdaml_offline_prediction_violates_tight_budgets() {
    // §IV-C's reason for excluding LambdaML from the training comparison.
    let w = Workload::mobilenet_cifar10();
    let budget = training_budget(&w, 1.05);
    let violations = (0..6)
        .filter(|&seed| {
            TrainingJob::new(w.clone(), ce_scaling::workflow::Constraint::Budget(budget))
                .with_seed(seed)
                .run(Method::LambdaMl)
                .map(|r| r.budget_violated)
                .unwrap_or(true)
        })
        .count();
    assert!(violations > 0);
}

#[test]
fn training_survives_worker_failures() {
    // Failure injection: with a 5 % per-worker-epoch failure rate the job
    // still converges; JCT degrades but stays the same order.
    let w = Workload::mobilenet_cifar10();
    let budget = training_budget(&w, 3.0);
    let faulty = ce_scaling::faas::PlatformConfig {
        failure_rate: 0.05,
        ..ce_scaling::faas::PlatformConfig::default()
    };
    let mut clean_jct = 0.0;
    let mut faulty_jct = 0.0;
    let mut failures = 0;
    for seed in 0..3 {
        let base = TrainingJob::new(w.clone(), ce_scaling::workflow::Constraint::Budget(budget))
            .with_seed(seed);
        let clean = base.clone().run(Method::CeScaling).unwrap();
        let noisy = base
            .with_platform_config(faulty)
            .run(Method::CeScaling)
            .expect("converges despite failures");
        assert!(noisy.final_loss <= clean.final_loss.max(0.2001));
        clean_jct += clean.jct_s;
        faulty_jct += noisy.jct_s;
        failures += noisy.epochs; // epochs ran; failures counted below
    }
    assert!(failures > 0);
    assert!(
        faulty_jct > clean_jct,
        "failures must cost wall time: {faulty_jct} vs {clean_jct}"
    );
    assert!(
        faulty_jct < clean_jct * 3.0,
        "failure overhead out of bounds"
    );
}

#[test]
fn traces_record_the_full_timeline() {
    let w = Workload::mobilenet_cifar10();
    let budget = training_budget(&w, 2.0);
    let job = TrainingJob::new(w.clone(), ce_scaling::workflow::Constraint::Budget(budget))
        .with_seed(5)
        .with_trace();
    let r = job.run(Method::CeScaling).unwrap();
    let trace = r.trace.as_ref().expect("trace requested");
    assert_eq!(trace.count_epochs(), r.epochs as usize);
    assert_eq!(trace.count_adjustments(), r.restarts as usize);
    // Timeline ends with the Done event at the job's JCT.
    let last = trace.events().last().unwrap();
    assert!((last.at_s - r.jct_s).abs() < 1e-6);
    assert!(matches!(
        last.kind,
        ce_scaling::workflow::TraceKind::Done { .. }
    ));
    // JSONL export parses back.
    assert!(trace.to_jsonl().lines().count() >= r.epochs as usize);

    // Tuning traces carry one Stage event per stage.
    let sha = ShaSpec::new(64, 2, 2);
    let tjob = TuningJob::new(
        w,
        sha,
        ce_scaling::workflow::Constraint::Budget(tuning_budget(
            &Workload::mobilenet_cifar10(),
            sha,
            2.0,
        )),
    )
    .with_trace();
    let tr = tjob.run(Method::CeScaling).unwrap();
    let ttrace = tr.trace.as_ref().expect("trace requested");
    let stage_events = ttrace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, ce_scaling::workflow::TraceKind::Stage { .. }))
        .count();
    assert_eq!(stage_events, sha.num_stages());
}

#[test]
fn quickstart_facade_surface_is_usable() {
    // The README/quickstart API path, end to end.
    let env = Environment::aws_default();
    let profile =
        ParetoProfiler::new(&env).profile(&ModelSpec::logistic_regression(), &DatasetSpec::higgs());
    let theta = profile.cheapest_within_jct(120.0).expect("feasible");
    assert!(theta.time_s() <= 120.0);
    let schedulers = (
        LambdaMlScheduler::new(),
        SirenScheduler::new(),
        CirrusScheduler::new(),
        FixedScheduler::new(),
    );
    let _ = schedulers; // constructors exist and are exported
    let platform = FaasPlatform::new(env, 1);
    assert_eq!(platform.ledger().total_dollars(), 0.0);
    let _config = PlatformConfig::default();
    let _rng = SimRng::new(7);
    let _planner_cfg = PlannerConfig::default();
    let _sched_cfg = SchedulerConfig::default();
}
