//! # ce-faas
//!
//! A discrete-event serverless-platform simulator standing in for AWS
//! Lambda (the substitution the repro band requires — see DESIGN.md §1).
//!
//! The simulator reproduces the causal structure every quantity in the
//! paper flows from:
//!
//! * functions get CPU in proportion to memory (1 vCPU at 1769 MB, 6 at
//!   10 240 MB);
//! * cold starts are second-scale and avoidable by pre-warming;
//! * BSP epochs are barrier-synchronized — the wave advances at the pace
//!   of the *slowest* worker, so per-worker lognormal jitter produces the
//!   straggler overhead real deployments show;
//! * billing is per-invocation plus GB-seconds of *wall* time (barrier
//!   waits are billed, exactly as on Lambda);
//! * parameter synchronization goes through a [`ce_storage`] service with
//!   the Eq. 3 transfer pattern.
//!
//! Modules:
//!
//! * [`platform`] — [`platform::FaasPlatform`], the stateful simulator
//!   (warm pool, billing ledger, seeded RNG).
//! * [`epoch`] — the BSP epoch executor (event-driven at iteration
//!   granularity, plus a fast analytic+jitter path for large sweeps).
//! * [`billing`] — the billing ledger and its conservation invariants.
//! * [`restart`] — resource-adjustment (function restart) timing,
//!   including the paper's *delayed restart* overlap optimization (Fig 8).
//! * [`function`] — instance lifecycle: the per-instance serving pool
//!   ([`function::InstancePool`]) and the counted pool of training waves
//!   ([`function::WavePool`]), idle expiry, execution-limit accounting.
//! * [`keepalive`] — pluggable idle-expiry policies ([`keepalive::FixedTtl`],
//!   cost-aware [`keepalive::AdaptiveTtl`], Serverless-in-the-Wild-style
//!   [`keepalive::HistogramTtl`]) behind the [`keepalive::KeepAlive`] trait.
//! * [`quota`] — the account-level concurrency pool
//!   ([`quota::AccountQuota`], a plain value with one owner, leased
//!   through `&mut`) and the typed overload signal
//!   ([`quota::QuotaExceeded`]) multi-tenant schedulers react to.
//!
//! ```
//! use ce_faas::{ExecutionFidelity, FaasPlatform};
//! use ce_models::{Allocation, Environment, Workload};
//! use ce_storage::StorageKind;
//!
//! let mut platform = FaasPlatform::new(Environment::aws_default(), 42);
//! let w = Workload::lr_higgs();
//! let theta = Allocation::new(10, 1769, StorageKind::S3);
//! let first = platform.run_epoch(&w, &theta, ExecutionFidelity::Fast).unwrap();
//! assert_eq!(first.cold_starts, 10);
//! // The wave stays warm: the next epoch reuses every instance.
//! let second = platform.run_epoch(&w, &theta, ExecutionFidelity::Fast).unwrap();
//! assert_eq!(second.cold_starts, 0);
//! assert_eq!(platform.pool_stats().warm_hits, 10);
//! ```

pub mod billing;
pub mod epoch;
pub mod function;
pub mod keepalive;
pub mod platform;
pub mod quota;
pub mod restart;

pub use billing::{lost_wave_bill, BillingLedger};
pub use epoch::{ExecutionFidelity, MeasuredEpoch};
pub use function::{
    FunctionId, FunctionInstance, InstancePool, PoolStats, ReapedInstance, WavePool,
};
pub use keepalive::{
    keep_alive_by_name, parse_keep_alive, AdaptiveTtl, FixedTtl, HistogramTtl, KeepAlive,
    KeepAliveParseError,
};
pub use platform::{EpochError, FaasPlatform, PlatformConfig};
pub use quota::{AccountQuota, QuotaExceeded};
pub use restart::RestartPlan;
