//! Fig. 11: normalized average per-trial resource (budget) per stage for
//! LR-Higgs, under CE-scaling, static (LambdaML), and Fixed.
//!
//! Paper shape: CE gives early stages *less* per trial than static and
//! later stages more; static methods put >80 % of the total budget in
//! the first two stages; Fixed starves early trials to <10 % of the
//! budget.

use crate::context;
use crate::report::Table;
use ce_models::Environment;
use ce_workflow::{Constraint, Method, TuningJob};
use serde_json::{json, Value};

/// Runs the per-stage allocation comparison.
pub fn run(quick: bool) -> Value {
    let env = Environment::aws_default();
    let sha = context::bracket(quick);
    let w = ce_models::Workload::lr_higgs();
    let budget = context::tuning_budget(&env, &w, sha);
    let job = TuningJob::new(w, sha, Constraint::Budget(budget)).with_obs(ce_obs::global());

    let methods = [Method::CeScaling, Method::LambdaMl, Method::Fixed];
    let mut plans = Vec::new();
    for m in methods {
        let (plan, _, _) = job.plan_for(m).expect("feasible");
        plans.push((m, plan));
    }
    // Reference: LambdaML's static plan (the paper normalizes to the
    // static method).
    let reference = plans
        .iter()
        .find(|(m, _)| *m == Method::LambdaMl)
        .map(|(_, p)| p.clone())
        .expect("LambdaML plan");

    println!("Fig. 11 — normalized per-trial budget per stage, LR-Higgs\n");
    let mut header = vec!["Method".to_string()];
    for s in 0..sha.num_stages() {
        header.push(format!("q={}", sha.trials_in_stage(s)));
    }
    let mut table = Table::new(header);
    let mut out = Vec::new();
    for (m, plan) in &plans {
        let norm = plan.per_trial_cost_normalized(&reference);
        let mut cells = vec![m.label().to_string()];
        cells.extend(norm.iter().map(|x| format!("{x:.2}")));
        table.row(cells);
        // Cumulative share of each method's own budget in the first two
        // stages (the paper's ">80 %" observation).
        let total: f64 = (0..sha.num_stages()).map(|i| plan.stage_cost(i)).sum();
        let first_two: f64 = (0..2).map(|i| plan.stage_cost(i)).sum();
        out.push(json!({
            "method": m.label(),
            "per_trial_normalized": norm,
            "first_two_stage_share": first_two / total,
        }));
    }
    table.print();
    json!({ "fig11": out })
}

#[cfg(test)]
mod tests {
    #[test]
    fn ce_shifts_budget_to_later_stages() {
        let v = super::run(true);
        let rows = v["fig11"].as_array().unwrap();
        let find = |m: &str| {
            rows.iter()
                .find(|r| r["method"] == m)
                .expect("method present")
        };
        let ce = find("CE-scaling");
        let ce_norm = ce["per_trial_normalized"].as_array().unwrap();
        let first = ce_norm.first().unwrap().as_f64().unwrap();
        let last = ce_norm.last().unwrap().as_f64().unwrap();
        // CE gives the last stage at least as much per-trial resource,
        // relative to static, as the first.
        assert!(last >= first, "first {first} last {last}");
        // Static concentrates the bulk of its budget in the early stages.
        let static_share = find("LambdaML")["first_two_stage_share"].as_f64().unwrap();
        assert!(
            static_share > 0.6,
            "static early-stage share {static_share}"
        );
    }
}
