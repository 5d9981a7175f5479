//! # ce-serve — request-level serverless inference serving
//!
//! A discrete-event, request-level simulator of serverless *inference
//! serving* built on the same deterministic core as the rest of the
//! CE-scaling reproduction. Where `ce-workflow` asks "how do I train
//! this model cheaply under a deadline", ce-serve asks the complementary
//! question: once the model is deployed, how should the platform scale
//! instances and retain warm capacity so that an open-loop stream of
//! inference requests meets its latency SLO at the lowest $/1M requests?
//!
//! The pieces:
//!
//! * [`arrival`] — open-loop arrival processes: Poisson, diurnal
//!   sinusoid (exact thinning), bursty two-state MMPP, and verbatim
//!   trace replay, plus a bit-exact JSONL arrival-log round trip.
//! * [`tracezoo`] — an Azure-Functions-style trace generator: Zipf
//!   per-function popularity over mixed temporal classes (steady,
//!   diurnal, bursty, rare-cold), with named presets
//!   (`--arrivals zoo:<preset>`).
//! * [`autoscale`] — pluggable [`Autoscaler`] policies: a static
//!   [`FixedPool`], Knative-style [`ConcurrencyTarget`] tracking,
//!   Little's-law [`PrewarmAhead`] provisioning, and the in-sim-trained
//!   [`qscale::QLearningAutoscaler`].
//! * Keep-alive economics come from `ce_faas::keepalive` — fixed TTL,
//!   cost-aware adaptive TTL, and histogram-of-gaps prediction — and
//!   every warm-idle GB-second is billed.
//! * [`engine`] — the request pipeline shared with `ce-lifecycle`:
//!   admission, queueing, cold starts, resilience, verdicts, and billing
//!   over arrival schedules and execution lanes.
//! * [`sim`] — the serving event loop: placement across topology pools,
//!   per-request latency accounting into `ce-obs` quantile histograms,
//!   and `ce-chaos` fault injection with typed shed outcomes.
//! * [`report`] — the aggregate [`ServeReport`] with its
//!   QoS-violation-vs-cost frontier point and Pareto dominance test.
//!
//! Everything is deterministic: same spec + same seed ⇒ byte-identical
//! metrics, across process restarts and across trace replay of a run's
//! own arrival log.
//!
//! ```
//! use ce_serve::{ArrivalModel, ConcurrencyTarget, ServeSim, ServeSpec};
//! use ce_faas::AdaptiveTtl;
//!
//! let spec = ServeSpec::new(ArrivalModel::Poisson { rps: 20.0 }, 60.0, 42);
//! let report = ServeSim::new(
//!     spec,
//!     Box::new(ConcurrencyTarget::default()),
//!     Box::new(AdaptiveTtl::default()),
//! )
//! .run();
//! assert_eq!(report.requests, report.completed + report.failed);
//! assert!(report.dollars > 0.0);
//! ```

pub mod arrival;
pub mod autoscale;
pub mod engine;
pub mod qscale;
pub mod report;
pub mod sim;
pub mod tracezoo;

pub use arrival::{
    check_arrivals, read_arrival_log, write_arrival_log, ArrivalModel, ArrivalRecord, MAX_ARRIVALS,
};
pub use autoscale::{
    autoscaler_by_name, autoscaler_names, fixed_pool_size, parse_autoscaler, Autoscaler,
    ConcurrencyTarget, FixedPool, LoadObservation, PrewarmAhead, ScaleDecision, MAX_CAPACITY,
    MAX_QLEARN_EPISODES,
};
pub use qscale::{QLearningAutoscaler, QScalerConfig};
pub use report::{PoolOutcome, ServeReport};
pub use sim::{ServeSim, ServeSpec};
pub use tracezoo::{parse_zoo, zoo_preset_names, FunctionClass, ZooSpec, MAX_ZOO_FUNCTIONS};
