//! # ce-workflow
//!
//! End-to-end orchestration: run a hyperparameter-tuning bracket or a
//! model-training job on the simulated platform under any of the five
//! scheduling methods, and collect the metrics the paper's figures plot.
//!
//! * [`metrics`] — [`metrics::TuningReport`] and
//!   [`metrics::TrainingReport`]: JCT, cost, communication and storage
//!   breakdowns, restart counts, scheduling overhead, constraint
//!   violations.
//! * [`runner`] — [`runner::TuningJob`] and [`runner::TrainingJob`]:
//!   configure a workload + constraint + seed, pick a [`Method`], run.
//!
//! Scheduling overhead is charged into JCT (as the paper does — "all
//! experimental results include the scheduling overhead"): each candidate
//! evaluation costs [`EVAL_COST_S`] of scheduler time (the paper's
//! predictor is Python), each online curve fit costs [`FIT_COST_S`], and
//! resource adjustments pay the (delayed or eager) restart overhead of
//! `ce_faas::restart`.

pub mod metrics;
pub mod pipeline;
pub mod recovery;
pub mod runner;
pub mod scenario;
pub mod trace;

pub use metrics::{TrainingReport, TuningReport};
pub use pipeline::{PipelineJob, PipelineReport};
pub use recovery::RecoveryPolicy;
pub use runner::{EpochStep, TrainingExecution, TrainingJob, TuningJob};
pub use scenario::{Scenario, ScenarioOutcome};
pub use trace::{Trace, TraceEvent, TraceKind};

/// Simulated seconds of scheduler time per candidate evaluated
/// (Python-level analytical-model evaluation).
pub const EVAL_COST_S: f64 = 2.0e-3;

/// Simulated seconds per online loss-curve fit.
pub const FIT_COST_S: f64 = 0.05;

/// A user-facing constraint: spend at most this, or finish by then.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constraint {
    /// Budget in dollars; the objective becomes JCT minimization.
    Budget(f64),
    /// Deadline in seconds; the objective becomes cost minimization.
    Deadline(f64),
}

/// The scheduling methods compared by the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// CE-scaling (this paper).
    CeScaling,
    /// LambdaML: optimal static allocation, offline prediction, S3.
    LambdaMl,
    /// Siren: RL allocation, per-epoch adjustment, S3.
    Siren,
    /// Cirrus: VM-PS storage; static for tuning, online-prediction
    /// "modified Cirrus" for training.
    Cirrus,
    /// Fixed: equal split across stages and trials (tuning only).
    Fixed,
}

impl Method {
    /// All methods compared in the tuning figures (Figs. 9–10).
    pub const TUNING: [Method; 4] = [
        Method::CeScaling,
        Method::LambdaMl,
        Method::Siren,
        Method::Fixed,
    ];

    /// All methods compared in the training figures (Figs. 12–13).
    pub const TRAINING: [Method; 3] = [Method::CeScaling, Method::Siren, Method::Cirrus];

    /// The method a CLI or scenario name spells (`ce` or `ce-scaling`,
    /// `lambdaml`, `siren`, `cirrus`, `fixed`).
    ///
    /// # Errors
    /// The canonical unknown-name message listing the valid spellings.
    pub fn by_name(name: &str) -> Result<Method, String> {
        Ok(match name {
            "ce" | "ce-scaling" => Method::CeScaling,
            "lambdaml" => Method::LambdaMl,
            "siren" => Method::Siren,
            "cirrus" => Method::Cirrus,
            "fixed" => Method::Fixed,
            _ => {
                return Err(ce_sim_core::unknown_name_msg(
                    "method",
                    name,
                    &["ce", "lambdaml", "siren", "cirrus", "fixed"],
                ))
            }
        })
    }

    /// Display label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            Method::CeScaling => "CE-scaling",
            Method::LambdaMl => "LambdaML",
            Method::Siren => "Siren",
            Method::Cirrus => "Cirrus",
            Method::Fixed => "Fixed",
        }
    }
}

/// Workflow failure.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// No allocation satisfies the constraint for this method.
    Infeasible(String),
    /// The job did not converge within the epoch cap.
    DidNotConverge {
        /// Epochs run before giving up.
        epochs: u32,
    },
    /// The platform refused an epoch's concurrency request. Recoverable:
    /// a fleet scheduler retries the epoch once quota frees up.
    Quota(ce_faas::QuotaExceeded),
    /// The job's recovery policy gave up after too many consecutive
    /// failed attempts (see [`recovery::MAX_RECOVERY_ATTEMPTS`]).
    Unrecoverable {
        /// Consecutive recovery attempts before giving up.
        attempts: u32,
        /// The last fault, rendered.
        what: String,
    },
}

impl From<ce_faas::QuotaExceeded> for WorkflowError {
    fn from(e: ce_faas::QuotaExceeded) -> Self {
        WorkflowError::Quota(e)
    }
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::Infeasible(what) => write!(f, "infeasible: {what}"),
            WorkflowError::DidNotConverge { epochs } => {
                write!(
                    f,
                    "training did not reach the target loss in {epochs} epochs"
                )
            }
            WorkflowError::Quota(e) => write!(f, "{e}"),
            WorkflowError::Unrecoverable { attempts, what } => {
                write!(f, "gave up after {attempts} recovery attempts: {what}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}
