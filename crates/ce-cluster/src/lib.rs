//! # ce-cluster
//!
//! A discrete-event **multi-tenant fleet simulator**: many concurrent
//! CE-scaling training jobs from different tenants share one serverless
//! substrate — an account-level concurrency quota and four storage
//! services — under an admission controller with pluggable policies.
//!
//! The paper evaluates CE-scaling one workflow at a time; its premise
//! (account quotas, keep-warm pools, load-dependent storage choices)
//! only bites under multi-tenant load. This crate supplies that load:
//!
//! * [`arrival`] — seeded Poisson or trace-driven job arrivals over the
//!   workload zoo, each job carrying a QoS deadline and budget
//!   ([`ArrivalProcess`], [`JobSpec`], [`FleetSpec`]).
//! * [`contention`] — per-service storage contention: manually scaled
//!   services (ElastiCache, VM-PS) degrade fast under concurrent
//!   tenants, auto-scaling ones (S3, DynamoDB) slowly
//!   ([`ContentionModel`]).
//! * [`policy`] — admission + dispatch policies: FIFO, deadline-EDF,
//!   cost-greedy, reject-on-overload ([`AdmissionPolicy`]).
//! * [`fleet`] — the event loop ([`ClusterSim`]): epochs reserve quota
//!   for their simulated duration, queue waits can idle-expire warm
//!   pools, contention stretches sync time. Deterministic per seed —
//!   same seed ⇒ byte-identical `cluster.*` JSONL.
//! * [`report`] — per-job verdicts and the fleet's point on the
//!   QoS-violation-vs-cost frontier ([`FleetReport`]).
//!
//! ```
//! use ce_cluster::{ClusterSim, ClusterSpec, FleetSpec};
//! use ce_cluster::policy::Fifo;
//! use ce_obs::Registry;
//!
//! let registry = Registry::new();
//! let spec = ClusterSpec::new(FleetSpec::poisson(8, 10.0, 42), 60);
//! let report = ClusterSim::new(spec, Box::new(Fifo))
//!     .with_obs(&registry)
//!     .run();
//! assert_eq!(report.jobs.len(), 8);
//! assert!(report.fleet_dollars > 0.0);
//! ```

pub mod arrival;
pub mod contention;
pub mod fleet;
pub mod policy;
mod ready;
pub mod report;

pub use arrival::{ArrivalProcess, FleetSpec, JobSpec};
pub use contention::ContentionModel;
pub use fleet::{ClusterSim, ClusterSpec, FleetEngine};
pub use policy::{
    all_policies, policy_by_name, policy_names, Admission, AdmissionPolicy, ClusterView, ReadyJob,
};
pub use report::{dominates_point, dominates_point3, FleetReport, JobOutcome, JobStatus};
