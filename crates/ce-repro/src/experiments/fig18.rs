//! Fig. 18: CE-scaling restricted to a single external storage service
//! (DynamoDB, S3, ElastiCache, VM-PS), training LR-Higgs and
//! MobileNet-Cifar10.
//!
//! Paper shape: JCT and cost vary across services; DynamoDB gives the
//! best trade-off for LR (tiny model) while ElastiCache wins for
//! MobileNet; DynamoDB is N/A for models above its 400 KB item limit;
//! and the expensive low-latency services do not always win — which is
//! exactly why CE-scaling optimizes storage jointly with n and m.

use crate::context;
use crate::report::{pct, secs, usd, Table};
use ce_models::{AllocationSpace, Environment, Workload};
use ce_storage::StorageKind;
use ce_workflow::{Constraint, Method, TrainingJob};
use serde_json::{json, Value};

/// Runs the fixed-storage sweep.
pub fn run(quick: bool) -> Value {
    let env = Environment::aws_default();
    let seeds = context::seeds(quick);
    let mut cells = Vec::new();

    println!("Fig. 18 — CE-scaling under fixed external storage\n");
    for w in [Workload::lr_higgs(), Workload::mobilenet_cifar10()] {
        let budget = context::training_budget(&env, &w);
        let mut table = Table::new(["Storage", "JCT", "Cost", "storage share"]);
        for storage in StorageKind::ALL {
            let spec = env.storage.get(storage).expect("catalog");
            if !spec.supports_model(w.model.model_mb) {
                table.row([
                    storage.letter().to_string(),
                    "N/A".into(),
                    "N/A".into(),
                    "".into(),
                ]);
                cells.push(json!({
                    "workload": w.label(),
                    "storage": storage.to_string(),
                    "na": true,
                }));
                continue;
            }
            let space = AllocationSpace::aws_default().with_only_storage(storage);
            let mut jct = 0.0;
            let mut cost = 0.0;
            let mut storage_usd = 0.0;
            let mut runs = 0u32;
            for &seed in &seeds {
                let job = TrainingJob::new(w.clone(), Constraint::Budget(budget))
                    .with_seed(seed)
                    .with_space(space.clone())
                    .with_obs(ce_obs::global());
                if let Ok(r) = job.run(Method::CeScaling) {
                    jct += r.jct_s;
                    cost += r.cost_usd;
                    storage_usd += r.storage_cost_usd;
                    runs += 1;
                }
            }
            let n = f64::from(runs.max(1));
            table.row([
                storage.letter().to_string(),
                secs(jct / n),
                usd(cost / n),
                pct(storage_usd / cost.max(1e-12)),
            ]);
            cells.push(json!({
                "workload": w.label(),
                "storage": storage.to_string(),
                "jct_s": jct / n,
                "cost_usd": cost / n,
                "storage_usd": storage_usd / n,
                "runs": runs,
            }));
        }
        println!("{} (budget {}):", w.label(), usd(budget));
        table.print();
        println!();
    }
    json!({ "fig18": cells })
}

#[cfg(test)]
mod tests {
    #[test]
    fn dynamodb_na_for_mobilenet_and_available_for_lr() {
        let v = super::run(true);
        let cells = v["fig18"].as_array().unwrap();
        let mn_ddb = cells
            .iter()
            .find(|c| c["workload"] == "MobileNet-Cifar10" && c["storage"] == "DynamoDB")
            .unwrap();
        assert_eq!(mn_ddb["na"], true);
        let lr_ddb = cells
            .iter()
            .find(|c| c["workload"] == "LR-Higgs" && c["storage"] == "DynamoDB")
            .unwrap();
        assert!(lr_ddb["jct_s"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn storage_choice_changes_outcomes() {
        let v = super::run(true);
        let cells = v["fig18"].as_array().unwrap();
        let jcts: Vec<f64> = cells
            .iter()
            .filter(|c| c["workload"] == "LR-Higgs" && c["na"] != true)
            .filter_map(|c| c["jct_s"].as_f64())
            .collect();
        let min = jcts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = jcts.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.05, "storage choice made no difference");
    }
}
