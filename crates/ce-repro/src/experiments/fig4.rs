//! Fig. 4: offline (sampling-based) vs online epoch-prediction error.
//!
//! Fig. 4a reports an average offline error of up to 40 %; Fig. 4b shows
//! the online error decreasing as training progresses, to about 5 %.

use crate::context;
use crate::report::{pct, Table};
use ce_ml::curve::LossCurve;
use ce_models::Workload;
use ce_sim_core::rng::SimRng;
use ce_training::{OfflinePredictor, OnlinePredictor};
use serde_json::{json, Value};

/// Runs the prediction-error comparison for LR-Higgs and
/// MobileNet-Cifar10.
pub fn run(quick: bool) -> Value {
    let seeds: Vec<u64> = if quick {
        (0..5).collect()
    } else {
        (0..25).collect()
    };
    let checkpoints = [5u32, 10, 15, 20, 25, 30, 35, 40];
    let mut out = Vec::new();

    println!("Fig. 4 — offline vs online prediction error\n");
    for w in [Workload::lr_higgs(), Workload::mobilenet_cifar10()] {
        let (params, target) = context::curve_and_target(&w);
        let mut offline_errs = Vec::new();
        let mut online_errs: Vec<Vec<f64>> = vec![Vec::new(); checkpoints.len()];
        for &seed in &seeds {
            let mut rng = SimRng::new(seed).derive("fig4");
            let mut run = LossCurve::sample_optimal(&params, rng.derive("run"));
            let truth = f64::from(run.true_epochs_to(target).expect("reachable"));

            let off = OfflinePredictor::new(params)
                .predict(target, &mut rng)
                .map_or(1.0, |p| (p.total_epochs - truth).abs() / truth);
            offline_errs.push(off);

            let mut online = OnlinePredictor::new(params.initial);
            let mut next_cp = 0;
            for e in 1..=*checkpoints.last().unwrap() {
                online.observe(run.next_epoch());
                if next_cp < checkpoints.len() && e == checkpoints[next_cp] {
                    let err = online
                        .predict(target)
                        .map_or(1.0, |p| (p.total_epochs - truth).abs() / truth);
                    online_errs[next_cp].push(err);
                    next_cp += 1;
                }
            }
        }
        let offline_mean = mean(&offline_errs);
        let online_series: Vec<f64> = online_errs.iter().map(|v| mean(v)).collect();

        let mut table = Table::new(["epochs observed", "online error", "offline error"]);
        for (i, &cp) in checkpoints.iter().enumerate() {
            table.row([
                cp.to_string(),
                pct(online_series[i]),
                if i == 0 {
                    pct(offline_mean)
                } else {
                    "".to_string()
                },
            ]);
        }
        println!("{} (target loss {target}):", w.label());
        table.print();
        println!();

        out.push(json!({
            "workload": w.label(),
            "offline_mean_error": offline_mean,
            "online_error_by_epoch": checkpoints
                .iter()
                .zip(&online_series)
                .map(|(c, e)| json!({"epochs": c, "error": e}))
                .collect::<Vec<_>>(),
        }));
    }
    json!({ "fig4": out })
}

/// Arithmetic mean, summed left to right (0 for an empty slice).
fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        0.0
    } else {
        data.iter().sum::<f64>() / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn offline_error_dominates_converged_online_error() {
        let v = super::run(true);
        for entry in v["fig4"].as_array().unwrap() {
            let offline = entry["offline_mean_error"].as_f64().unwrap();
            let series = entry["online_error_by_epoch"].as_array().unwrap();
            let last = series.last().unwrap()["error"].as_f64().unwrap();
            assert!(
                offline > last,
                "{}: offline {offline} !> online-final {last}",
                entry["workload"]
            );
            assert!(last < 0.15, "converged online error too high: {last}");
        }
    }
}
