use super::*;

/// Simulations a pass must hold for the tail percentile to have ten
/// samples beyond it.
const MIN_SIMS: usize = 50;

fn args(list: &[&str]) -> Result<Args, String> {
    parse_args(list.iter().map(|s| s.to_string()))
}

#[test]
fn parses_the_command_line_and_rejects_bad_flags() {
    let ok = args(&[
        "--workload",
        "fleet-chaos",
        "--seed",
        "3",
        "--seconds",
        "20",
        "--trace",
        "1",
    ]);
    assert_eq!(
        ok,
        Ok(Args {
            kind: Kind::FleetChaos,
            seed: 3,
            seconds: 20.0,
            trace: true,
        })
    );
    for bad in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "fleet-chaos",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "fleet-chaos",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "fleet-chaos",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "fleet-chaos", "--seed", "1", "--seconds", "1"],
        &["--workload", "fleet-chaos", "--seed"],
        &["--bogus", "1"],
    ] {
        assert!(args(bad).is_err(), "{bad:?} should be rejected");
    }
}

#[test]
fn every_pass_is_large_enough_for_the_tail_the_trace_and_the_setups() {
    for kind in Kind::ALL {
        let pass = pass_ids(kind, 1);
        assert!(pass.len() >= MIN_SIMS.max(TRACED_SIMS).max(SETUP_SIMS));
        assert!(pass.len() / SETUP_REPS > 0, "setups fit in the first pass");
        assert_eq!(
            TRACED_SIMS % kind.cells(),
            0,
            "every cell is traced equally"
        );
        let seeds: std::collections::BTreeSet<u64> = pass.iter().map(|id| id.seed).collect();
        assert_eq!(seeds.len(), pass.len(), "one seed per simulation");
    }
}

#[test]
fn tail_percentile_leaves_ten_samples_beyond_it_at_the_minimum_count() {
    let samples: Vec<f64> = (1..=MIN_SIMS).map(|i| i as f64).collect();
    let tail = percentile(&samples, TAIL_PERCENTILE);
    assert_eq!(samples.iter().filter(|&&s| s > tail).count(), 10);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

/// The wrappers must be invisible to the simulators: for one seed of
/// every workload, the wrapped run's report and ce-obs export are
/// byte-identical to the unwrapped run's, and the wrappers saw calls.
#[test]
fn wrapped_runs_are_byte_identical_to_unwrapped_runs() {
    for kind in Kind::ALL {
        let w = Workload::setup(kind);
        let id = pass_ids(kind, 7)[0];
        let plain = simulate(&w, id);
        let probes = Probes::default();
        let mut tracer = Tracer::new();
        let traced = simulate_traced(&w, id, &probes, &mut tracer, 0);
        assert_eq!(
            format!("{:?}", plain.report),
            format!("{:?}", traced.report),
            "{}: wrapped report differs",
            kind.name()
        );
        assert_eq!(
            plain.jsonl,
            traced.jsonl,
            "{}: wrapped export differs",
            kind.name()
        );
        let wrapped: &[&str] = match kind {
            Kind::ServeDiurnal | Kind::ServeEdgeChaos => {
                &["ce-serve.autoscaler", "ce-faas.keepalive"]
            }
            Kind::FleetChaos => &["ce-cluster.policy"],
            Kind::LifecycleMix => &["ce-lifecycle.priority"],
        };
        for name in wrapped {
            let calls = tracer.totals(name, |_| true).3;
            assert!(calls > 0, "{}: no calls through {name}", kind.name());
        }
    }
}

/// The EDF policy has a dispatch key, so the heap fleet engine runs and
/// never calls `pick`; a wrapper that dropped `dispatch_key` would fall
/// back to the naive scan, which picks on every dispatch.
#[test]
fn admission_wrapper_keeps_the_heap_fleet_engine() {
    let w = Workload::setup(Kind::FleetChaos);
    let probes = Probes::default();
    let mut tracer = Tracer::new();
    simulate_traced(
        &w,
        pass_ids(Kind::FleetChaos, 7)[0],
        &probes,
        &mut tracer,
        0,
    );
    assert!(tracer.totals("ce-cluster.policy", |_| true).3 > 0);
    assert_eq!(probes.picks.load(std::sync::atomic::Ordering::Relaxed), 0);
}

#[test]
fn gate_rejects_broken_reports() {
    let w = Workload::setup(Kind::ServeEdgeChaos);
    let Report::Serve(good) = simulate(&w, pass_ids(Kind::ServeEdgeChaos, 7)[0]).report else {
        panic!("a serve workload returns a serve report");
    };
    assert_eq!(
        outcome::check(&Report::Serve(good.clone()), Kind::ServeEdgeChaos),
        Ok(())
    );
    let mut lost = good.clone();
    lost.completed -= 1;
    let mut nan = good.clone();
    nan.dollars = f64::NAN;
    let mut unbilled = good;
    unbilled.attempts = 0;
    for bad in [lost, nan, unbilled] {
        assert!(outcome::check(&Report::Serve(bad), Kind::ServeEdgeChaos).is_err());
    }
}

#[test]
fn repeats_of_a_seed_must_agree() {
    let w = Workload::setup(Kind::FleetChaos);
    let id = pass_ids(Kind::FleetChaos, 7)[0];
    let mut gate = Gate::default();
    assert!(gate
        .admit(w.kind, id, Ok(simulate(&w, id)), &Counters::new())
        .is_some());
    assert!(gate
        .admit(w.kind, id, Ok(simulate(&w, id)), &Counters::new())
        .is_some());
    gate.digests.insert(id, 0);
    assert!(gate
        .admit(w.kind, id, Ok(simulate(&w, id)), &Counters::new())
        .is_none());
    assert_eq!((gate.attempted, gate.failed), (3, 1));
}

#[test]
fn reference_speed_scales_by_the_kernel_time() {
    assert_eq!(reference::work(), reference::work(), "a fixed unit of work");
    let nominal = reference::NOMINAL_MS;
    assert_eq!(reference::at_reference(50.0, nominal), 50.0);
    assert_eq!(reference::at_reference(50.0, 2.0 * nominal), 25.0);
}
