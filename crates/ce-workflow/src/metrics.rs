//! Workflow-level metrics, one struct per figure family.

use ce_ml::HyperConfig;
use ce_models::Allocation;
use serde::Serialize;

/// Per-stage metrics of a tuning run (Figs. 3 and 11).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageMetrics {
    /// Stage index (0-based).
    pub stage: usize,
    /// Trials alive in this stage.
    pub trials: u32,
    /// The per-trial allocation used.
    pub alloc: Allocation,
    /// Wall-clock seconds of the stage (including trial waves).
    pub jct_s: f64,
    /// Dollars spent by all trials of the stage.
    pub cost_usd: f64,
}

/// Outcome of one trial in a bracket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TrialOutcome {
    /// The configuration the trial trained.
    pub config: HyperConfig,
    /// The last observed loss before termination (or bracket end).
    pub final_loss: f64,
    /// Stages the trial survived (1 = terminated after the first stage).
    pub stages_survived: u32,
}

/// The outcome of one hyperparameter-tuning bracket.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TuningReport {
    /// Total JCT in seconds, *including* scheduling overhead (the paper
    /// counts "the time from the start until the optimal trial is
    /// found").
    pub jct_s: f64,
    /// Total dollars across all trials.
    pub cost_usd: f64,
    /// Seconds of scheduling (planning) overhead included in `jct_s`.
    pub sched_overhead_s: f64,
    /// Per-stage breakdown.
    pub stages: Vec<StageMetrics>,
    /// The winning hyperparameter configuration.
    pub best_config: HyperConfig,
    /// The winner's final observed loss.
    pub best_loss: f64,
    /// Whether the budget constraint was violated.
    pub budget_violated: bool,
    /// Whether the QoS constraint was violated.
    pub qos_violated: bool,
    /// Candidate evaluations performed by the planner.
    pub planner_evaluations: u64,
    /// Per-trial outcomes, in the order the configurations were sampled.
    pub trials: Vec<TrialOutcome>,
    /// Optional execution timeline (populated by `with_trace`).
    pub trace: Option<crate::trace::Trace>,
}

/// The outcome of one model-training job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainingReport {
    /// Total JCT in seconds, including scheduling and restart overhead.
    pub jct_s: f64,
    /// Total dollars (functions + storage).
    pub cost_usd: f64,
    /// Epochs run until the target loss was reached.
    pub epochs: u32,
    /// Resource adjustments (function restarts) performed.
    pub restarts: u32,
    /// Seconds spent in parameter synchronization (the patterned bar of
    /// Fig. 12).
    pub comm_s: f64,
    /// Dollars of storage cost (the patterned bar of Fig. 13).
    pub storage_cost_usd: f64,
    /// Seconds of scheduling overhead (fits + selections + exposed
    /// restart time) included in `jct_s`.
    pub sched_overhead_s: f64,
    /// Final observed loss.
    pub final_loss: f64,
    /// Whether the budget constraint was violated.
    pub budget_violated: bool,
    /// Whether the QoS constraint was violated.
    pub qos_violated: bool,
    /// Distinct allocations used over the run, in order of adoption.
    pub allocations: Vec<Allocation>,
    /// Optional execution timeline (populated by `with_trace`).
    pub trace: Option<crate::trace::Trace>,
}

impl TrainingReport {
    /// Fraction of JCT spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        if self.jct_s == 0.0 {
            0.0
        } else {
            self.comm_s / self.jct_s
        }
    }

    /// Fraction of cost spent on storage.
    pub fn storage_fraction(&self) -> f64 {
        if self.cost_usd == 0.0 {
            0.0
        } else {
            self.storage_cost_usd / self.cost_usd
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_storage::StorageKind;

    #[test]
    fn fractions_are_safe_on_zero() {
        let r = TrainingReport {
            jct_s: 0.0,
            cost_usd: 0.0,
            epochs: 0,
            restarts: 0,
            comm_s: 0.0,
            storage_cost_usd: 0.0,
            sched_overhead_s: 0.0,
            final_loss: 1.0,
            budget_violated: false,
            qos_violated: false,
            allocations: vec![],
            trace: None,
        };
        assert_eq!(r.comm_fraction(), 0.0);
        assert_eq!(r.storage_fraction(), 0.0);
    }

    #[test]
    fn fractions_divide() {
        let r = TrainingReport {
            jct_s: 100.0,
            cost_usd: 10.0,
            epochs: 5,
            restarts: 1,
            comm_s: 25.0,
            storage_cost_usd: 2.5,
            sched_overhead_s: 1.0,
            final_loss: 0.2,
            budget_violated: false,
            qos_violated: false,
            allocations: vec![Allocation::new(10, 1769, StorageKind::S3)],
            trace: None,
        };
        assert_eq!(r.comm_fraction(), 0.25);
        assert_eq!(r.storage_fraction(), 0.25);
    }
}
