//! Adaptive-scheduler benchmarks (Fig. 21b): per-epoch decision latency
//! with and without Pareto pruning, plus the online curve fit: a cold
//! bare fit, and the refits of a whole run as the scheduler drives them.

use ce_bench::Group;
use ce_ml::curve::{CurveParams, LossCurve};
use ce_ml::model::ModelFamily;
use ce_models::{Environment, Workload};
use ce_pareto::ParetoProfiler;
use ce_sim_core::rng::SimRng;
use ce_training::{
    AdaptiveScheduler, LossCurveFitter, OnlinePredictor, SchedulerConfig, TrainingObjective,
};
use std::hint::black_box;

fn bench_epoch_decision() {
    let env = Environment::aws_default();
    let w = Workload::mobilenet_cifar10();
    let profile = ParetoProfiler::new(&env).profile_workload(&w);
    let params = CurveParams::for_workload(ModelFamily::MobileNet, "Cifar10");

    let group = Group::new("scheduler/epoch-decision");
    for (name, use_pareto) in [("pareto", true), ("wo-pa-full-grid", false)] {
        group.bench(name, || {
            let mut sched = AdaptiveScheduler::new(
                &profile,
                TrainingObjective::MinJctGivenBudget { budget: 50.0 },
                0.2,
                params.initial,
                SchedulerConfig {
                    use_pareto,
                    delta: 0.01,
                    ..SchedulerConfig::default()
                },
            );
            sched.initial_allocation(40.0);
            let mut run = LossCurve::sample_optimal(&params, SimRng::new(3));
            for _ in 0..30 {
                black_box(sched.on_epoch_end(run.next_epoch(), 0.3, 30.0));
            }
            black_box(sched.stats())
        });
    }
}

fn bench_curve_fit() {
    let params = CurveParams::for_workload(ModelFamily::LogisticRegression, "Higgs");
    let group = Group::new("scheduler/curve-fit");
    for epochs in [5usize, 20, 60] {
        let mut run = LossCurve::sample_optimal(&params, SimRng::new(9));
        let history: Vec<f64> = (0..epochs).map(|_| run.next_epoch()).collect();
        let fitter = LossCurveFitter::new(params.initial);
        group.bench(&epochs.to_string(), || {
            black_box(fitter.fit(black_box(&history)))
        });
    }
}

/// The production path: one run of `epochs` epochs through
/// `OnlinePredictor::observe` and `predict` after every epoch, as
/// `AdaptiveScheduler::on_epoch_end` drives it, so each refit reads the
/// kept grid sums and is hinted by the previous fit. One iteration is
/// the whole run: `epochs − 2` refits.
fn bench_refit() {
    let params = CurveParams::for_workload(ModelFamily::LogisticRegression, "Higgs");
    let group = Group::new("scheduler/refit");
    for epochs in [28usize, 250, 600] {
        let mut run = LossCurve::sample_optimal(&params, SimRng::new(9));
        let history: Vec<f64> = (0..epochs).map(|_| run.next_epoch()).collect();
        group.bench(&epochs.to_string(), || {
            let mut online = OnlinePredictor::new(params.initial);
            for &loss in &history {
                online.observe(black_box(loss));
                black_box(online.predict(0.66));
            }
        });
    }
}

fn main() {
    bench_epoch_decision();
    bench_curve_fit();
    bench_refit();
}
