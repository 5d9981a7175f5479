//! Figs. 19–20: validation of the analytical models against the
//! (simulated) platform.
//!
//! The paper trains LR on Higgs with S3, sweeping the number of functions
//! at 1769 MB (Fig. 19) and the memory size at 10 functions (Fig. 20),
//! and compares model-estimated JCT/cost against CloudWatch measurements.
//! Reported errors: 0.56–4.9 % JCT / 0.2–3.72 % cost over the function
//! sweep; 2.1–4.3 % / 1.5–7.6 % over the memory sweep.

use crate::report::{pct, Table};
use ce_faas::ExecutionFidelity;
use ce_models::{Allocation, CostModel, Environment, EpochTimeModel, Workload};
use ce_storage::StorageKind;
use ce_workflow::{Constraint, TrainingJob};
use serde_json::{json, Value};

const EPOCHS: u32 = 10;

fn validate(allocs: &[Allocation], quick: bool, label: &str) -> Value {
    let env = Environment::aws_default();
    let w = Workload::lr_higgs();
    let time_model = EpochTimeModel::new(&env);
    let cost_model = CostModel::new(&env);
    let seeds: Vec<u64> = if quick { vec![1, 2] } else { (1..=6).collect() };

    let mut table = Table::new([
        "Allocation",
        "est JCT",
        "meas JCT",
        "JCT err",
        "est cost",
        "meas cost",
        "cost err",
    ]);
    let mut rows = Vec::new();
    for &alloc in allocs {
        let est_jct = time_model.training_time(&w, &alloc, EPOCHS);
        let est_cost = cost_model
            .training_cost(&w, &alloc, EPOCHS)
            .expect("catalog");
        // Measure on the platform at full event fidelity, averaged over
        // seeds (the paper averages CloudWatch runs).
        let mut meas_jct = 0.0;
        let mut meas_cost = 0.0;
        for &seed in &seeds {
            let job = TrainingJob::new(w.clone(), Constraint::Budget(f64::INFINITY))
                .with_seed(seed)
                .with_obs(ce_obs::global());
            let r = job.run_fixed_allocation(alloc, EPOCHS, ExecutionFidelity::Event);
            meas_jct += r.jct_s;
            meas_cost += r.cost_usd;
        }
        meas_jct /= seeds.len() as f64;
        meas_cost /= seeds.len() as f64;
        let jct_err = (meas_jct - est_jct).abs() / meas_jct;
        let cost_err = (meas_cost - est_cost).abs() / meas_cost;
        table.row([
            alloc.to_string(),
            format!("{est_jct:.1}s"),
            format!("{meas_jct:.1}s"),
            pct(jct_err),
            format!("${est_cost:.4}"),
            format!("${meas_cost:.4}"),
            pct(cost_err),
        ]);
        rows.push(json!({
            "alloc": alloc.to_string(),
            "n": alloc.n,
            "memory_mb": alloc.memory_mb,
            "est_jct_s": est_jct,
            "meas_jct_s": meas_jct,
            "jct_err": jct_err,
            "est_cost_usd": est_cost,
            "meas_cost_usd": meas_cost,
            "cost_err": cost_err,
        }));
    }
    println!("{label}\n");
    table.print();
    println!();
    json!(rows)
}

/// Fig. 19: sweep the number of functions at 1769 MB.
pub fn run_fig19(quick: bool) -> Value {
    let allocs: Vec<Allocation> = [10u32, 20, 30, 40, 50]
        .iter()
        .map(|&n| Allocation::new(n, 1769, StorageKind::S3))
        .collect();
    let rows = validate(
        &allocs,
        quick,
        "Fig. 19 — model validation, LR-Higgs/S3, memory fixed at 1769 MB",
    );
    json!({ "fig19": rows })
}

/// Fig. 20: sweep the memory size at 10 functions.
pub fn run_fig20(quick: bool) -> Value {
    let allocs: Vec<Allocation> = [1024u32, 1536, 1769, 2048, 3072]
        .iter()
        .map(|&m| Allocation::new(10, m, StorageKind::S3))
        .collect();
    let rows = validate(
        &allocs,
        quick,
        "Fig. 20 — model validation, LR-Higgs/S3, 10 functions",
    );
    json!({ "fig20": rows })
}

#[cfg(test)]
mod tests {
    #[test]
    fn errors_within_paper_band() {
        // The paper's worst-case errors are 4.9 % (JCT) and 7.6 % (cost);
        // allow a slightly wider band for the simulated substrate.
        for v in [super::run_fig19(true), super::run_fig20(true)] {
            let key = if v.get("fig19").is_some() {
                "fig19"
            } else {
                "fig20"
            };
            for row in v[key].as_array().unwrap() {
                let jct_err = row["jct_err"].as_f64().unwrap();
                let cost_err = row["cost_err"].as_f64().unwrap();
                assert!(jct_err < 0.10, "{}: JCT err {jct_err}", row["alloc"]);
                assert!(cost_err < 0.10, "{}: cost err {cost_err}", row["alloc"]);
            }
        }
    }
}
