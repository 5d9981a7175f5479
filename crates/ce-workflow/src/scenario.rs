//! Declarative experiment scenarios: define a job as data (JSON via
//! serde), run it with one call. This is how downstream users script
//! studies without writing Rust — the CLI's `run-config` subcommand and
//! the scenario tests both consume it.
//!
//! ```json
//! {
//!   "kind": "training",
//!   "model": "mobilenet",
//!   "dataset": "cifar10",
//!   "constraint": { "budget": 30.0 },
//!   "method": "ce",
//!   "seeds": [1, 2, 3],
//!   "failure_rate": 0.05
//! }
//! ```

use crate::metrics::{TrainingReport, TuningReport};
use crate::runner::{TrainingJob, TuningJob};
use crate::{Constraint, Method, WorkflowError};
use ce_faas::PlatformConfig;
use ce_models::{AllocationSpace, Workload};
use ce_storage::StorageKind;
use ce_tuning::ShaSpec;
use serde::{Deserialize, Serialize};

/// A scenario as users write it.
#[derive(Debug, Clone, Deserialize)]
pub struct Scenario {
    /// `"training"` or `"tuning"`.
    pub kind: ScenarioKind,
    /// Model name: `lr`, `svm`, `mobilenet`, `resnet50`, `bert`.
    pub model: String,
    /// Dataset name: `higgs`, `yfcc`, `cifar10`, `imdb`. Defaults to the
    /// model's paper pairing when omitted.
    pub dataset: Option<String>,
    /// Budget or deadline.
    pub constraint: ScenarioConstraint,
    /// Scheduling method (default `ce`).
    pub method: Option<String>,
    /// Seeds to run (default `[42]`); results are averaged by the caller.
    #[serde(default)]
    pub seeds: Vec<u64>,
    /// Tuning only: SHA initial trials (default 256).
    pub trials: Option<u32>,
    /// Tuning only: epochs per stage (default 2).
    pub epochs_per_stage: Option<u32>,
    /// Training only: per-worker-epoch failure rate (default 0).
    pub failure_rate: Option<f64>,
    /// Pin every method to one storage service, named as
    /// [`StorageKind::from_token`] reads it.
    pub storage: Option<String>,
}

/// Scenario type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum ScenarioKind {
    /// A model-training job.
    Training,
    /// A hyperparameter-tuning bracket.
    Tuning,
}

/// Budget-or-deadline, as users write it.
#[derive(Debug, Clone, Copy, Deserialize)]
pub struct ScenarioConstraint {
    /// Dollars.
    pub budget: Option<f64>,
    /// Seconds.
    pub deadline: Option<f64>,
}

/// Results of running a scenario: one report per seed.
#[derive(Debug, Clone, Serialize)]
pub enum ScenarioOutcome {
    /// Training reports per seed.
    Training(Vec<TrainingReport>),
    /// Tuning reports per seed.
    Tuning(Vec<TuningReport>),
}

/// Scenario validation/run errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A field value was not understood.
    Invalid(String),
    /// The underlying job failed.
    Workflow(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invalid(what) => write!(f, "invalid scenario: {what}"),
            ScenarioError::Workflow(what) => write!(f, "scenario run failed: {what}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// Parses a scenario from JSON and checks every field [`Scenario::run`]
    /// reads, so a scenario that parses is one `run` accepts.
    pub fn from_json(json: &str) -> Result<Scenario, ScenarioError> {
        let scenario: Scenario =
            serde_json::from_str(json).map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        scenario.workload()?;
        scenario.method()?;
        scenario.constraint()?;
        scenario.storage_space()?;
        scenario.platform_config()?;
        if scenario.kind == ScenarioKind::Tuning {
            scenario.sha()?;
        }
        Ok(scenario)
    }

    fn workload(&self) -> Result<Workload, ScenarioError> {
        Workload::by_name(&self.model, self.dataset.as_deref()).map_err(ScenarioError::Invalid)
    }

    fn method(&self) -> Result<Method, ScenarioError> {
        Method::by_name(self.method.as_deref().unwrap_or("ce")).map_err(ScenarioError::Invalid)
    }

    fn constraint(&self) -> Result<Constraint, ScenarioError> {
        match (self.constraint.budget, self.constraint.deadline) {
            (Some(b), None) if b.is_finite() && b > 0.0 => Ok(Constraint::Budget(b)),
            (None, Some(t)) if t.is_finite() && t > 0.0 => Ok(Constraint::Deadline(t)),
            _ => Err(ScenarioError::Invalid(
                "constraint needs exactly one of a finite positive budget or deadline".into(),
            )),
        }
    }

    fn storage_space(&self) -> Result<Option<AllocationSpace>, ScenarioError> {
        let Some(name) = self.storage.as_deref() else {
            return Ok(None);
        };
        let kind = StorageKind::from_token(name)
            .ok_or_else(|| ScenarioError::Invalid(format!("unknown storage {name}")))?;
        Ok(Some(AllocationSpace::aws_default().with_only_storage(kind)))
    }

    /// The platform with the scenario's failure rate, which must lie in
    /// `[0, 1]`; `None` keeps the default platform.
    fn platform_config(&self) -> Result<Option<PlatformConfig>, ScenarioError> {
        let Some(rate) = self.failure_rate else {
            return Ok(None);
        };
        if !(0.0..=1.0).contains(&rate) {
            return Err(ScenarioError::Invalid(format!(
                "failure_rate must be in [0, 1], got {rate}"
            )));
        }
        Ok(Some(PlatformConfig {
            failure_rate: rate,
            ..PlatformConfig::default()
        }))
    }

    /// The tuning bracket: `trials` (default 256) halved by 2 per stage,
    /// `epochs_per_stage` (default 2) epochs each.
    fn sha(&self) -> Result<ShaSpec, ScenarioError> {
        ShaSpec::try_new(
            self.trials.unwrap_or(256),
            2,
            self.epochs_per_stage.unwrap_or(2),
        )
        .map_err(|e| ScenarioError::Invalid(format!("SHA bracket: {e}")))
    }

    fn seeds(&self) -> Vec<u64> {
        if self.seeds.is_empty() {
            vec![42]
        } else {
            self.seeds.clone()
        }
    }

    /// Runs the scenario, one job per seed.
    pub fn run(&self) -> Result<ScenarioOutcome, ScenarioError> {
        let workload = self.workload()?;
        let method = self.method()?;
        let constraint = self.constraint()?;
        let space = self.storage_space()?;
        let platform = self.platform_config()?;
        let map_err = |e: WorkflowError| ScenarioError::Workflow(e.to_string());
        match self.kind {
            ScenarioKind::Training => {
                let mut reports = Vec::new();
                for seed in self.seeds() {
                    let mut job = TrainingJob::new(workload.clone(), constraint).with_seed(seed);
                    if let Some(config) = platform {
                        job = job.with_platform_config(config);
                    }
                    if let Some(space) = &space {
                        job = job.with_space(space.clone());
                    }
                    reports.push(job.run(method).map_err(map_err)?);
                }
                Ok(ScenarioOutcome::Training(reports))
            }
            ScenarioKind::Tuning => {
                let sha = self.sha()?;
                let mut reports = Vec::new();
                for seed in self.seeds() {
                    let mut job = TuningJob::new(workload.clone(), sha, constraint).with_seed(seed);
                    if let Some(space) = &space {
                        job = job.with_space(space.clone());
                    }
                    reports.push(job.run(method).map_err(map_err)?);
                }
                Ok(ScenarioOutcome::Tuning(reports))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_scenario_from_json_runs() {
        let scenario = Scenario::from_json(
            r#"{
                "kind": "training",
                "model": "mobilenet",
                "constraint": { "budget": 40.0 },
                "seeds": [1, 2]
            }"#,
        )
        .unwrap();
        match scenario.run().unwrap() {
            ScenarioOutcome::Training(reports) => {
                assert_eq!(reports.len(), 2);
                assert!(reports.iter().all(|r| r.epochs > 0));
            }
            other => panic!("expected training outcome, got {other:?}"),
        }
    }

    #[test]
    fn tuning_scenario_with_pinned_storage() {
        let scenario = Scenario::from_json(
            r#"{
                "kind": "tuning",
                "model": "lr",
                "dataset": "higgs",
                "constraint": { "deadline": 100000.0 },
                "trials": 64,
                "storage": "s3"
            }"#,
        )
        .unwrap();
        match scenario.run().unwrap() {
            ScenarioOutcome::Tuning(reports) => {
                assert_eq!(reports.len(), 1);
                assert!(reports[0]
                    .stages
                    .iter()
                    .all(|s| s.alloc.storage == StorageKind::S3));
            }
            other => panic!("expected tuning outcome, got {other:?}"),
        }
    }

    #[test]
    fn failure_rate_flows_through() {
        let scenario = Scenario::from_json(
            r#"{
                "kind": "training",
                "model": "mobilenet",
                "constraint": { "budget": 60.0 },
                "failure_rate": 0.2,
                "seeds": [3]
            }"#,
        )
        .unwrap();
        let clean = Scenario {
            failure_rate: None,
            ..scenario.clone()
        };
        let jct = |o: ScenarioOutcome| match o {
            ScenarioOutcome::Training(r) => r[0].jct_s,
            _ => unreachable!(),
        };
        assert!(jct(scenario.run().unwrap()) > jct(clean.run().unwrap()));
    }

    #[test]
    fn invalid_fields_are_reported() {
        for json in [
            r#"{"kind": "training", "model": "gpt5", "constraint": {"budget": 1.0}}"#,
            r#"{"kind": "training", "model": "lr", "constraint": {}}"#,
            r#"{"kind": "training", "model": "lr",
                "constraint": {"budget": 1.0, "deadline": 2.0}}"#,
            "not json",
        ] {
            assert!(
                matches!(Scenario::from_json(json), Err(ScenarioError::Invalid(_))),
                "{json}"
            );
        }

        // `run` applies the same checks to a scenario built in code.
        let mut scenario = Scenario::from_json(
            r#"{"kind": "tuning", "model": "lr", "constraint": {"budget": 1.0}}"#,
        )
        .unwrap();
        scenario.trials = Some(100);
        assert!(matches!(scenario.run(), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn scenario_parses_every_field() {
        let s = Scenario::from_json(
            r#"{"kind": "tuning", "model": "lr", "dataset": "higgs",
                "constraint": {"budget": 10.0}, "method": "ce", "seeds": [1],
                "trials": 64, "epochs_per_stage": 2, "failure_rate": 0.0,
                "storage": "s3"}"#,
        )
        .unwrap();
        assert_eq!(s.kind, ScenarioKind::Tuning);
        assert_eq!(s.model, "lr");
        assert_eq!(s.dataset.as_deref(), Some("higgs"));
        assert_eq!(s.constraint.budget, Some(10.0));
        assert_eq!(s.constraint.deadline, None);
        assert_eq!(s.method.as_deref(), Some("ce"));
        assert_eq!(s.seeds, vec![1]);
        assert_eq!(s.trials, Some(64));
        assert_eq!(s.epochs_per_stage, Some(2));
        assert_eq!(s.failure_rate, Some(0.0));
        assert_eq!(s.storage.as_deref(), Some("s3"));
    }
}
