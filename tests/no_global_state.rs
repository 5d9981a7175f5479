//! Library code takes no process-global state: a run of every simulator,
//! each on its default (private) registry or an injected one, leaves the
//! process-global `ce-obs` registry byte-for-byte untouched.
//!
//! This file is its own test binary, so its one test is the only code in
//! the process that could write to the global registry.

use ce_scaling::chaos::FaultSchedule;
use ce_scaling::cluster::{policy_by_name, ClusterSim, ClusterSpec, FleetSpec};
use ce_scaling::lifecycle::{priority_by_name, LifecycleSim, LifecycleSpec};
use ce_scaling::models::Workload;
use ce_scaling::obs::{global, Registry};
use ce_scaling::serve::{autoscaler_by_name, ArrivalModel, ServeSim, ServeSpec};
use ce_scaling::tuning::ShaSpec;
use ce_scaling::workflow::{Constraint, Method, RecoveryPolicy, TrainingJob, TuningJob};

#[test]
fn simulators_leave_the_global_registry_untouched() {
    let before = global().export_jsonl();

    let training = TrainingJob::new(Workload::lr_higgs(), Constraint::Budget(1e4))
        .with_seed(7)
        .run(Method::CeScaling)
        .expect("the job trains");
    assert!(training.epochs > 0);

    let tuning = TuningJob::new(
        Workload::lr_higgs(),
        ShaSpec::new(64, 2, 2),
        Constraint::Budget(1e4),
    )
    .with_seed(7)
    .run(Method::CeScaling)
    .expect("the bracket runs");
    assert!(tuning.cost_usd > 0.0);

    let fleet = ClusterSpec::new(FleetSpec::poisson(12, 20.0, 7), 64)
        .with_job_cap(6)
        .with_recovery(RecoveryPolicy::CheckpointResume)
        .with_checkpoint_every(3)
        .with_chaos(FaultSchedule::parse("crash:0.1@0..inf").expect("chaos spec parses"));
    let fleet = ClusterSim::new(fleet, policy_by_name("fifo").expect("known policy")).run();
    assert!(!fleet.jobs.is_empty());

    let lifecycle_obs = Registry::new();
    let lifecycle = LifecycleSpec::new(2, 120.0, 7)
        .with_quota(16)
        .with_job_cap(4)
        .with_rps(4.0);
    let lifecycle = LifecycleSim::new(lifecycle, priority_by_name("serve-first").expect("known"))
        .with_obs(&lifecycle_obs)
        .run();
    assert!(lifecycle.train_jobs() > 0, "the lifecycle run must train");

    let serve = ServeSim::new(
        ServeSpec::new(ArrivalModel::Poisson { rps: 5.0 }, 120.0, 7),
        autoscaler_by_name("target").expect("known autoscaler"),
        ce_scaling::faas::keep_alive_by_name("fixed:600").expect("known keep-alive"),
    )
    .run();
    assert!(serve.completed > 0);

    let after = global().export_jsonl();
    assert!(
        after == before,
        "a simulator wrote to the process-global registry ({} lines, {} before)",
        after.lines().count(),
        before.lines().count()
    );
    assert!(
        lifecycle_obs.counter_value("scheduler.evaluations") > 0,
        "the lifecycle's training jobs report to the lifecycle's registry"
    );
}
