//! Figs. 16–17: CE-scaling vs Siren vs Cirrus when *all* methods are
//! pinned to the same external storage (S3, then VM-PS), for MobileNet
//! on Cifar10.
//!
//! This isolates CE-scaling's allocation quality from its storage choice:
//! the paper finds CE still wins on both JCT and cost, because it
//! allocates the "exact" resources per stage (tuning) and adapts the
//! function count/memory online with cheap restarts (training).

use crate::context;
use crate::report::{secs, usd, Table};
use ce_models::{AllocationSpace, Environment, Workload};
use ce_storage::StorageKind;
use ce_workflow::{Constraint, Method, TrainingJob, TuningJob};
use serde_json::{json, Value};

const STORAGES: [StorageKind; 2] = [StorageKind::S3, StorageKind::VmPs];
const METHODS: [Method; 3] = [Method::CeScaling, Method::Siren, Method::Cirrus];

/// Fig. 16: tuning under pinned storage.
pub fn run_fig16(quick: bool) -> Value {
    let env = Environment::aws_default();
    let sha = context::bracket(quick);
    let w = Workload::mobilenet_cifar10();
    let mut cells = Vec::new();

    println!("Fig. 16 — tuning under the same storage, MobileNet-Cifar10\n");
    for storage in STORAGES {
        let space = AllocationSpace::aws_default().with_only_storage(storage);
        // Budget from the pinned space so every method is feasible.
        let profile = ce_pareto::ParetoProfiler::new(&env)
            .with_space(space.clone())
            .profile_workload(&w);
        let budget = ce_tuning::PartitionPlan::uniform(*profile.cheapest().unwrap(), sha).cost()
            * context::BUDGET_SCALE;
        let mut table = Table::new(["Method", "JCT", "Cost"]);
        for method in METHODS {
            let job = TuningJob::new(w.clone(), sha, Constraint::Budget(budget))
                .with_seed(23)
                .with_space(space.clone())
                .with_obs(ce_obs::global());
            match job.run(method) {
                Ok(r) => {
                    table.row([method.label().to_string(), secs(r.jct_s), usd(r.cost_usd)]);
                    cells.push(json!({
                        "storage": storage.to_string(),
                        "method": method.label(),
                        "jct_s": r.jct_s,
                        "cost_usd": r.cost_usd,
                    }));
                }
                Err(e) => {
                    table.row([method.label().to_string(), "err".into(), e.to_string()]);
                    cells.push(json!({
                        "storage": storage.to_string(),
                        "method": method.label(),
                        "error": e.to_string(),
                    }));
                }
            }
        }
        println!("storage = {storage}:");
        table.print();
        println!();
    }
    json!({ "fig16": cells })
}

/// Fig. 17: training under pinned storage.
pub fn run_fig17(quick: bool) -> Value {
    let env = Environment::aws_default();
    let w = Workload::mobilenet_cifar10();
    let seeds = context::seeds(quick);
    let mut cells = Vec::new();

    println!("Fig. 17 — training under the same storage, MobileNet-Cifar10\n");
    for storage in STORAGES {
        let space = AllocationSpace::aws_default().with_only_storage(storage);
        let budget = context::training_budget(&env, &w);
        let mut table = Table::new(["Method", "JCT", "Cost", "Restarts"]);
        for method in METHODS {
            let mut jct = 0.0;
            let mut cost = 0.0;
            let mut restarts = 0.0;
            let mut runs = 0u32;
            for &seed in &seeds {
                let job = TrainingJob::new(w.clone(), Constraint::Budget(budget))
                    .with_seed(seed)
                    .with_space(space.clone())
                    .with_obs(ce_obs::global());
                if let Ok(r) = job.run(method) {
                    jct += r.jct_s;
                    cost += r.cost_usd;
                    restarts += f64::from(r.restarts);
                    runs += 1;
                }
            }
            let n = f64::from(runs.max(1));
            table.row([
                method.label().to_string(),
                secs(jct / n),
                usd(cost / n),
                format!("{:.1}", restarts / n),
            ]);
            cells.push(json!({
                "storage": storage.to_string(),
                "method": method.label(),
                "jct_s": jct / n,
                "cost_usd": cost / n,
                "restarts": restarts / n,
                "runs": runs,
            }));
        }
        println!("storage = {storage}:");
        table.print();
        println!();
    }
    json!({ "fig17": cells })
}

#[cfg(test)]
mod tests {
    #[test]
    fn ce_wins_tuning_even_with_pinned_storage() {
        let v = super::run_fig16(true);
        let cells = v["fig16"].as_array().unwrap();
        for storage in ["S3", "VM-PS"] {
            let get = |m: &str| {
                cells
                    .iter()
                    .find(|c| c["storage"] == storage && c["method"] == m)
                    .and_then(|c| c["jct_s"].as_f64())
            };
            let ce = get("CE-scaling").expect("CE ran");
            for m in ["Siren", "Cirrus"] {
                if let Some(b) = get(m) {
                    assert!(ce <= b * 1.05, "{storage}: CE {ce} vs {m} {b}");
                }
            }
        }
    }
}
