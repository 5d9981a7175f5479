//! The ML *lifecycle* fleet: training and serving co-located on one
//! shared serverless account.
//!
//! ce-cluster simulates fleets of training jobs; ce-serve simulates
//! open-loop inference traffic. Both run against their own isolated
//! platform, which hides the tradeoff the paper is actually about:
//! training epochs and latency-sensitive requests drawing worker leases
//! from the *same* `ce_faas::AccountQuota`. This crate puts one tenant's
//! whole ML lifecycle — train, publish, serve, drift, retrain, redeploy
//! — on one `ce_sim_core` event heap and lets a pluggable
//! [`PriorityPolicy`] arbitrate the contention:
//!
//! * **serve-first** preempts running epochs whenever a request cannot
//!   lease a worker (the epoch rolls back to its last checkpoint via the
//!   existing ce-workflow recovery machinery, and the wasted work is
//!   billed);
//! * **train-first** never preempts and holds arrivals back behind
//!   queued epochs;
//! * **fair-share** splits the quota and preempts only past training's
//!   share;
//! * **deadline** preempts only epochs with comfortable deadline slack
//!   and lets urgent training drain first.
//!
//! A completed training run *publishes* a model version (paying the
//! Table-I snapshot transfer and request cost) and then *redeploys* it:
//! the serve stage's warm pool is flushed (billed honestly) and its
//! service-time/cold-start profile flips to the new version's. Drift
//! events degrade the serving profile until the retrain→publish→redeploy
//! DAG completes again.
//!
//! The output is a combined per-policy frontier point — (serve QoS
//! violation rate, train deadline-miss rate, total dollars) — compared
//! with [`ce_cluster::dominates_point3`].

pub mod priority;
pub mod report;
pub mod sim;
pub mod spec;

pub use priority::{
    all_priorities, priority_by_name, priority_names, PriorityPolicy, QuotaView, VictimView,
};
pub use report::{LifecycleReport, TenantOutcome};
pub use sim::LifecycleSim;
pub use spec::{LifecycleSpec, TenantSpec, RPS_JITTER};
