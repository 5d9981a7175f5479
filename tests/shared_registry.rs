//! Metrics are write-only: a simulator's report never depends on what
//! else wrote to the registry it reports to. Each simulator runs once on
//! a fresh registry, and again on a registry that an identical run has
//! already written to; the two reports must be equal.
//!
//! Serving and lifecycle runs hedge at the live p95, so their outcome
//! reads the latency distribution while the run is in progress.

use ce_scaling::chaos::FaultSchedule;
use ce_scaling::cluster::{policy_by_name, ClusterSim, ClusterSpec, FleetSpec};
use ce_scaling::faas::keep_alive_by_name;
use ce_scaling::lifecycle::{priority_by_name, LifecycleSim, LifecycleSpec};
use ce_scaling::models::Workload;
use ce_scaling::obs::Registry;
use ce_scaling::resilience::{HedgePolicy, ResilienceSpec};
use ce_scaling::serve::{autoscaler_by_name, ArrivalModel, ServeSim, ServeSpec};
use ce_scaling::workflow::{Constraint, Method, RecoveryPolicy, TrainingJob};
use std::fmt::Debug;

/// Asserts that `run` reports the same on a fresh registry as on one an
/// earlier identical run already wrote to.
fn assert_registry_independent<R: PartialEq + Debug>(what: &str, run: impl Fn(&Registry) -> R) {
    let fresh = run(&Registry::new());
    let shared = Registry::new();
    run(&shared);
    assert!(
        !shared.export_jsonl().is_empty(),
        "{what}: the first run wrote nothing"
    );
    let again = run(&shared);
    assert_eq!(
        fresh, again,
        "{what}: the report moved on a registry another run wrote to"
    );
}

fn p95_hedging() -> ResilienceSpec {
    ResilienceSpec {
        hedge: Some(HedgePolicy::P95),
        ..ResilienceSpec::disabled()
    }
}

#[test]
fn serve_reports_do_not_depend_on_the_registry() {
    assert_registry_independent("serve", |obs| {
        let spec = ServeSpec::new(ArrivalModel::Poisson { rps: 20.0 }, 120.0, 7)
            .with_chaos(FaultSchedule::parse("coldspike:x4@0..inf").expect("chaos spec parses"))
            .with_resilience(p95_hedging());
        ServeSim::new(
            spec,
            autoscaler_by_name("target").expect("known autoscaler"),
            keep_alive_by_name("fixed").expect("known keep-alive"),
        )
        .with_obs(obs)
        .run()
    });
}

#[test]
fn lifecycle_reports_do_not_depend_on_the_registry() {
    assert_registry_independent("lifecycle", |obs| {
        let spec = LifecycleSpec::new(2, 120.0, 7)
            .with_quota(16)
            .with_job_cap(4)
            .with_rps(4.0)
            .with_resilience(p95_hedging());
        LifecycleSim::new(spec, priority_by_name("serve-first").expect("known policy"))
            .with_obs(obs)
            .run()
    });
}

#[test]
fn cluster_reports_do_not_depend_on_the_registry() {
    assert_registry_independent("cluster", |obs| {
        let spec = ClusterSpec::new(FleetSpec::poisson(12, 20.0, 7), 64)
            .with_job_cap(6)
            .with_recovery(RecoveryPolicy::CheckpointResume)
            .with_checkpoint_every(3)
            .with_chaos(FaultSchedule::parse("crash:0.1@0..inf").expect("chaos spec parses"));
        ClusterSim::new(spec, policy_by_name("fifo").expect("known policy"))
            .with_obs(obs)
            .run()
    });
}

#[test]
fn training_reports_do_not_depend_on_the_registry() {
    assert_registry_independent("training", |obs| {
        TrainingJob::new(Workload::lr_higgs(), Constraint::Budget(1e4))
            .with_seed(7)
            .with_obs(obs)
            .run(Method::CeScaling)
    });
}
