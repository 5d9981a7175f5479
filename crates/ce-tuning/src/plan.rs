//! Resource partitioning plans and their objective values.
//!
//! A plan assigns one allocation `θ_i` to every SHA stage. Its predicted
//! JCT is Eq. 7's stage-sequential sum, extended with *trial waves*: a
//! stage running `q_i` concurrent trials of `n_i` functions each can only
//! run `⌊C / n_i⌋` trials at once under the platform concurrency quota
//! `C`, so early stages with thousands of trials execute in waves. This
//! is the resource-competition effect of Fig. 3 — flooding early stages
//! with per-trial resources multiplies the number of waves and blows up
//! the stage JCT.

use crate::sha::ShaSpec;
use ce_pareto::AllocPoint;

/// One allocation per SHA stage, with cached per-epoch estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Per-stage allocation points (`θ_1 … θ_d` with their epoch
    /// time/cost estimates).
    pub stages: Vec<AllocPoint>,
    /// The bracket this plan partitions.
    pub sha: ShaSpec,
}

impl PartitionPlan {
    /// Builds a plan; one point per stage.
    ///
    /// # Panics
    /// Panics if the stage count does not match the bracket.
    pub fn new(stages: Vec<AllocPoint>, sha: ShaSpec) -> Self {
        assert_eq!(stages.len(), sha.num_stages(), "one allocation per stage");
        PartitionPlan { stages, sha }
    }

    /// A *static* plan: the same allocation for every stage (the
    /// LambdaML/Siren baseline shape).
    pub fn uniform(point: AllocPoint, sha: ShaSpec) -> Self {
        PartitionPlan::new(vec![point; sha.num_stages()], sha)
    }

    /// Number of concurrent-trial waves stage `i` needs under a platform
    /// concurrency quota.
    pub fn waves(&self, stage: usize, max_concurrency: u32) -> u32 {
        let q = self.sha.trials_in_stage(stage);
        let n = self.stages[stage].alloc.n;
        let per_wave = (max_concurrency / n).max(1);
        q.div_ceil(per_wave)
    }

    /// Stage `i`'s JCT: `r_i · t'(θ_i) · waves_i`.
    pub fn stage_jct(&self, stage: usize, max_concurrency: u32) -> f64 {
        f64::from(self.sha.epochs_per_stage)
            * self.stages[stage].time_s()
            * f64::from(self.waves(stage, max_concurrency))
    }

    /// Stage `i`'s cost: `q_i · r_i · c'(θ_i)`.
    pub fn stage_cost(&self, stage: usize) -> f64 {
        f64::from(self.sha.trials_in_stage(stage))
            * f64::from(self.sha.epochs_per_stage)
            * self.stages[stage].cost_usd()
    }

    /// Total predicted JCT `T^h(a)` (Eq. 7 with waves).
    pub fn jct(&self, max_concurrency: u32) -> f64 {
        (0..self.stages.len())
            .map(|i| self.stage_jct(i, max_concurrency))
            .sum()
    }

    /// Total predicted cost `C^h(a)` (Eq. 8/11).
    pub fn cost(&self) -> f64 {
        (0..self.stages.len()).map(|i| self.stage_cost(i)).sum()
    }

    /// Per-trial cost share of each stage, normalized to a reference plan
    /// (Fig. 11's y-axis).
    pub fn per_trial_cost_normalized(&self, reference: &PartitionPlan) -> Vec<f64> {
        (0..self.stages.len())
            .map(|i| {
                let q = f64::from(self.sha.trials_in_stage(i));
                let own = self.stage_cost(i) / q;
                let base = reference.stage_cost(i) / q;
                own / base
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_models::{Allocation, CostBreakdown, TimeBreakdown};
    use ce_storage::StorageKind;

    fn point(n: u32, time: f64, cost: f64) -> AllocPoint {
        AllocPoint {
            alloc: Allocation::new(n, 1769, StorageKind::S3),
            time: TimeBreakdown {
                load_s: 0.0,
                compute_s: time,
                sync_s: 0.0,
            },
            cost: CostBreakdown {
                invocation: 0.0,
                compute: cost,
                storage_requests: 0.0,
                storage_runtime: 0.0,
            },
        }
    }

    fn sha() -> ShaSpec {
        ShaSpec::motivation_example() // 32,16,8,4,2 × 2 epochs
    }

    #[test]
    fn uniform_plan_has_identical_stages() {
        let plan = PartitionPlan::uniform(point(10, 5.0, 0.01), sha());
        assert_eq!(plan.stages.len(), 5);
        assert!(plan.stages.iter().all(|p| p.alloc.n == 10));
    }

    #[test]
    fn jct_sums_stage_epochs() {
        // No concurrency pressure: 32 trials × 10 fns = 320 ≤ 3000.
        let plan = PartitionPlan::uniform(point(10, 5.0, 0.01), sha());
        // 5 stages × 2 epochs × 5 s.
        assert!((plan.jct(3000) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cost_weights_by_trial_count() {
        let plan = PartitionPlan::uniform(point(10, 5.0, 0.01), sha());
        // Σ q_i = 62; × 2 epochs × $0.01.
        assert!((plan.cost() - 62.0 * 2.0 * 0.01).abs() < 1e-9);
    }

    #[test]
    fn waves_kick_in_under_concurrency_pressure() {
        let plan = PartitionPlan::uniform(point(100, 5.0, 0.01), sha());
        // Stage 1: 32 trials × 100 fns; 3000/100 = 30 trials per wave -> 2
        // waves.
        assert_eq!(plan.waves(0, 3000), 2);
        // Stage 3: 8 trials fit in one wave.
        assert_eq!(plan.waves(2, 3000), 1);
        // JCT doubles for stage 1 relative to an uncontended run.
        assert!((plan.stage_jct(0, 3000) - 2.0 * 2.0 * 5.0).abs() < 1e-9);
    }

    #[test]
    fn waves_handle_n_larger_than_quota() {
        let plan = PartitionPlan::uniform(point(100, 5.0, 0.01), sha());
        // Quota smaller than one trial's n: one trial at a time.
        assert_eq!(plan.waves(0, 50), 32);
    }

    #[test]
    fn early_stage_cost_dominates_static_plans() {
        // Fig. 3's observation: under static allocation the first stages
        // carry ~90 % of the cost because cost ∝ trial count.
        let plan = PartitionPlan::uniform(point(10, 5.0, 0.01), sha());
        let total = plan.cost();
        let first_three: f64 = (0..3).map(|i| plan.stage_cost(i)).sum();
        assert!(first_three / total > 0.85, "{}", first_three / total);
        let last = plan.stage_cost(4) / total;
        assert!(last < 0.05, "{last}");
    }

    #[test]
    fn per_trial_normalization_against_self_is_one() {
        let plan = PartitionPlan::uniform(point(10, 5.0, 0.01), sha());
        let norm = plan.per_trial_cost_normalized(&plan);
        assert!(norm.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn mixed_plan_objectives() {
        let cheap = point(4, 10.0, 0.004);
        let fast = point(25, 3.0, 0.02);
        let plan = PartitionPlan::new(vec![cheap, cheap, cheap, fast, fast], sha());
        let uniform_cheap = PartitionPlan::uniform(cheap, sha());
        // Upgrading late stages shortens JCT and raises cost.
        assert!(plan.jct(3000) < uniform_cheap.jct(3000));
        assert!(plan.cost() > uniform_cheap.cost());
        // ...but only modestly, since late stages have few trials.
        assert!(plan.cost() < uniform_cheap.cost() * 1.5);
    }

    #[test]
    #[should_panic(expected = "one allocation per stage")]
    fn stage_count_must_match() {
        PartitionPlan::new(vec![point(1, 1.0, 1.0)], sha());
    }
}
