//! The lifecycle fleet simulator.
//!
//! One `ce_sim_core` event heap drives, per tenant, a request-level
//! serving loop *and* a stepwise training loop (ce-cluster's
//! head-of-line epoch dispatch over `ce_workflow::TrainingExecution`),
//! all leasing workers from one shared [`AccountQuota`]: a dispatched
//! request holds one worker until it completes, a dispatched epoch holds
//! its wave width. The [`PriorityPolicy`] arbitrates contention (see
//! `priority`), and a completed training run publishes a model version
//! that redeploys into the serve stage.
//!
//! Serving runs on the request engine shared with ce-serve
//! ([`ce_serve::engine`]): each tenant is one arrival schedule pinned to
//! one lane, and the fleet is the engine's capacity provider. A request
//! dispatch or retry leases a worker in its tenant's pool, preempting a
//! training epoch there when the policy allows (a retry can evict an
//! epoch under `serve-first`), while hedges take spare quota but never
//! preempt. Arrivals always queue; the policy's drain order hands freed
//! capacity to parked requests and queued epochs.
//!
//! # Determinism
//!
//! Same spec + same seed ⇒ byte-identical metrics at any thread count.
//! The event loop itself is sequential; the only parallelism is the
//! per-request jitter pre-draw, whose streams are keyed by tenant and
//! request *index*, so sharding them across threads cannot reorder
//! draws. Request chaos draws fork the `"lifecycle-chaos"` stream per
//! tenant, training crash draws fork it per dispatch attempt, and both
//! happen only in non-quiet instants with a non-zero rate, so a
//! zero-fault schedule is bit-identical to no schedule. Model-version
//! profiles are keyed by version index on the tenant's `model_seed`, so
//! *when* a retrain finishes never changes *what* it deploys.
//!
//! # Topology
//!
//! The fleet runs on a [`ce_topo::Topology`]: each pool owns its own
//! [`AccountQuota`] (the pool's ceiling, falling back to the spec's
//! shared quota), every tenant's serving is pinned to one pool at
//! build time, and each training run is placed independently when it
//! starts — so a retrain can land off-pool from the replicas it will
//! redeploy, in which case the publish pays the link's transfer time
//! and egress dollars on top of the Table-I snapshot cost. Pool
//! classes scale service time, cold starts, epoch walls, and $/GB-s;
//! the pool RTT rides on observed request latency. Preemption is
//! pool-local: a request can only evict an epoch holding workers in
//! *its* pool. The default single neutral pool multiplies by exactly
//! `1.0` and adds exactly `0.0` everywhere, and placement runs on a
//! forked `"topo"` stream the built-in policies never draw from, so
//! default runs are byte-identical to pre-topology builds.

use crate::priority::{PriorityPolicy, QuotaView, VictimView};
use crate::report::{LifecycleReport, TenantOutcome};
use crate::spec::{LifecycleSpec, TenantSpec};
use ce_chaos::CompiledSchedule;
use ce_faas::{parse_keep_alive, AccountQuota, InstancePool};
use ce_obs::Registry;
use ce_serve::engine::{fork_attempt, Capacity, Engine, Lane, Lease, ReqEv, Schedule, StreamKeys};
use ce_serve::{autoscaler_by_name, ArrivalModel, ServeSpec};
use ce_sim_core::event::EventQueue;
use ce_sim_core::rng::SimRng;
use ce_sim_core::time::SimTime;
use ce_storage::StorageKind;
use ce_topo::{NodePool, PlacementRequest, PoolView};
use ce_workflow::{Method, RecoveryPolicy, TrainingExecution, TrainingJob};
use serde_json::json;
use std::collections::VecDeque;

/// The store requests read model state from (outage target) and
/// publishes write to.
const BACKING: StorageKind = StorageKind::S3;
/// Service-time multiplier while the deployed model is drift-degraded.
const DRIFT_DEGRADE: f64 = 1.5;
/// Service-time multiplier of the stale bootstrap model (version 0);
/// the first published version is what the tenant actually wants to
/// serve.
const STALE_SERVICE_FACTOR: f64 = 1.15;
/// A training wave queued longer than this restarts cold.
const IDLE_EXPIRY_S: f64 = 600.0;

/// Simulation events (heap-ordered by time, FIFO on ties).
enum Ev {
    /// A request event of the engine (schedule = tenant).
    Req(ReqEv),
    /// `tenant`'s initial training job arrives.
    TrainArrival { tenant: u32 },
    /// `tenant`'s in-flight epoch completes — ignored when `attempt`
    /// is stale (the epoch was preempted after this was scheduled).
    EpochDone { tenant: u32, attempt: u64 },
    /// A preemption/chaos stall elapses; the run re-queues.
    TrainResume { tenant: u32 },
    /// A published model version goes live in the serve stage.
    Redeploy { tenant: u32, version: u32 },
    /// `tenant`'s deployed model drifts.
    Drift { tenant: u32 },
}

impl From<ReqEv> for Ev {
    fn from(ev: ReqEv) -> Self {
        Ev::Req(ev)
    }
}

/// Where a tenant's training currently stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TrainState {
    /// No run in flight (none yet, done, or failed). Drift can start a
    /// retrain from here.
    Idle,
    /// Queued for epoch dispatch.
    Ready,
    /// An epoch wave is executing.
    Running {
        workers: u32,
        started_s: f64,
        wall_s: f64,
        converged: bool,
    },
    /// Rolling back / waiting out a stall; a `TrainResume` is pending.
    Stalled,
    /// Converged; the publish transfer is in flight (`Redeploy`
    /// pending).
    Publishing,
}

/// Training-side chaos: the compiled schedule, its dedicated stream,
/// and the monotone dispatch-attempt counter for training crash draws.
struct ChaosState {
    schedule: CompiledSchedule,
    rng: SimRng,
    attempts: u64,
}

/// Per-tenant training counters accumulated inline and flushed once.
#[derive(Debug, Default, Clone)]
struct TrainTally {
    jobs_started: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    deadline_misses: u64,
    preemptions: u64,
    epochs: u64,
    cold_resumes: u64,
    train_dollars: f64,
    drift_events: u64,
    drift_skipped: u64,
    redeploys: u64,
}

/// One tenant's training loop and deployed model version (its serving
/// lives in the request engine, schedule and lane = tenant index).
struct TenantState {
    spec: TenantSpec,
    version: u32,
    /// The pool the tenant's replicas live in (pinned at build time).
    serve_pool: usize,
    /// The pool the current/latest training run was placed on.
    train_pool: usize,
    exec: Option<TrainingExecution>,
    train: TrainState,
    attempt: u64,
    runs: u32,
    deadline_abs_s: f64,
    queued_since: f64,
    tally: TrainTally,
}

/// The serving profile model version `version` deploys with: version 0
/// is the slow stale bootstrap; published versions draw a keyed
/// (service, cold-start) factor pair from the tenant's `model_seed`.
fn version_profile(spec: &TenantSpec, version: u32) -> (f64, f64) {
    if version == 0 {
        return (STALE_SERVICE_FACTOR, 1.0);
    }
    let mut rng = SimRng::new(spec.model_seed).derive_idx("model", u64::from(version));
    (rng.uniform_range(0.85, 1.0), rng.uniform_range(1.0, 1.25))
}

/// The shared quota and every tenant's training: the capacity provider
/// the request engine leases serving workers from.
struct Fleet {
    spec: LifecycleSpec,
    policy: Box<dyn PriorityPolicy>,
    /// One quota per topology pool, in pool-index order.
    quotas: Vec<AccountQuota>,
    placement: Box<dyn ce_topo::PlacementPolicy>,
    topo_rng: SimRng,
    /// Training runs placed per pool (reported multi-pool only).
    train_runs_by_pool: Vec<u64>,
    /// Off-pool model publishes that crossed a link.
    publish_transfers: u64,
    /// Egress dollars those publishes paid.
    transfer_dollars: f64,
    obs: Registry,
    chaos: Option<ChaosState>,
    tenants: Vec<TenantState>,
    train_ready: VecDeque<u32>,
    serve_held: u32,
    train_held: u32,
    util_integral: f64,
    last_event_s: f64,
    quota_stalls: u64,
}

/// The lifecycle fleet simulator (see the module docs).
pub struct LifecycleSim {
    engine: Engine<Ev>,
    fleet: Fleet,
}

impl LifecycleSim {
    /// Builds a simulator: generates every tenant's contract and
    /// compiles the fault schedule, all on derived streams.
    ///
    /// # Panics
    /// Panics when the spec names an unknown autoscaler or keep-alive
    /// policy — the CLI validates names before building.
    pub fn new(spec: LifecycleSpec, policy: Box<dyn PriorityPolicy>) -> Self {
        let pool_count = spec.topology.pools.len();
        assert!(
            (1..=256).contains(&pool_count),
            "a lifecycle topology needs 1..=256 pools"
        );
        let rng = SimRng::new(spec.seed).derive("lifecycle-sim");
        // A pure fork: deriving consumes no parent draws, so default
        // runs keep their exact bytes.
        let mut topo_rng = rng.derive("topo");
        let mut placement = ce_topo::parse_placement(&spec.placement)
            .unwrap_or_else(|e| panic!("invalid placement in spec: {e}"));
        let chaos = spec.chaos.as_ref().map(|s| {
            let chaos_rng = rng.derive("lifecycle-chaos");
            ChaosState {
                schedule: s.compile(&chaos_rng),
                rng: chaos_rng,
                attempts: 0,
            }
        });
        let quotas: Vec<AccountQuota> = spec
            .topology
            .pools
            .iter()
            .map(|p| AccountQuota::new(p.quota.unwrap_or(spec.quota)))
            .collect();
        // Tenants serve with the default serving profile and pricing;
        // the engine reads no arrival model, chaos, or topology from it.
        let pipeline = ServeSpec {
            slo_ms: spec.slo_ms,
            queue_cap: spec.queue_cap,
            backing: BACKING,
            resilience: spec.resilience.clone(),
            ..ServeSpec::new(ArrivalModel::Poisson { rps: 0.0 }, spec.duration_s, 0)
        };
        let tenant_specs = spec.tenant_specs();
        // Pin each tenant's replicas to one pool, in tenant-id order,
        // feeding back the pins so the policy can spread load.
        let mut serve_pools = vec![0; tenant_specs.len()];
        if pool_count > 1 {
            let mut pinned = vec![0u32; pool_count];
            let req = PlacementRequest {
                compute_s: pipeline.service_s,
                transfer_mb: 0.0,
                cold_ms: pipeline.cold_start_s * 1e3,
            };
            for serve_pool in &mut serve_pools {
                let views: Vec<PoolView> = spec
                    .topology
                    .pools
                    .iter()
                    .zip(&quotas)
                    .zip(&pinned)
                    .map(|((p, q), &n)| PoolView {
                        rtt_ms: p.rtt_ms,
                        price_factor: p.price_factor,
                        compute_factor: p.compute_factor,
                        cold_factor: p.cold_factor,
                        bandwidth_mbps: f64::INFINITY,
                        inflight: n,
                        queued: 0,
                        capacity: q.limit(),
                        warm_idle: 0,
                        quota: p.quota,
                    })
                    .collect();
                let idx = placement
                    .place(&views, &req, &mut topo_rng)
                    .min(pool_count - 1);
                *serve_pool = idx;
                pinned[idx] += 1;
            }
        }
        // Tenant `i` is the engine's schedule `i`, served on lane `i`.
        let mut schedules = Vec::new();
        let mut lanes = Vec::new();
        let mut tenants = Vec::new();
        for (i, (mut t, serve_pool)) in tenant_specs.into_iter().zip(serve_pools).enumerate() {
            let keys = StreamKeys {
                jitter: rng.derive_idx("tenant-serve", i as u64),
                chaos: chaos.as_ref().map(|c| c.rng.derive_idx("tenant", i as u64)),
                backoff: rng.derive_idx("tenant-backoff", i as u64),
                backoff_label: "request",
                tag: Some(t.id),
            };
            // The engine owns the arrival schedule from here on.
            let arrivals = std::mem::take(&mut t.arrival_s);
            let mut schedule = Schedule::new(arrivals, keys, i, false, &spec.resilience);
            schedule.service_factor = STALE_SERVICE_FACTOR;
            schedules.push(schedule);
            // The lane takes its pool's factors, RTT, and price; the
            // pool's quota binds through the account quota the fleet
            // leases from, not as a clamp on the lane's autoscaler.
            let node = NodePool {
                quota: None,
                ..spec.topology.pools[serve_pool].clone()
            };
            let keep_alive = parse_keep_alive(&spec.keep_alive).expect("known keep-alive");
            let autoscaler = autoscaler_by_name(&spec.autoscaler).expect("known autoscaler");
            let pool = InstancePool::new().with_keep_alive(keep_alive);
            lanes.push(Lane::new(node, pool, autoscaler, i));
            tenants.push(TenantState {
                version: 0,
                serve_pool,
                train_pool: serve_pool,
                exec: None,
                train: TrainState::Idle,
                attempt: 0,
                runs: 0,
                deadline_abs_s: f64::INFINITY,
                queued_since: 0.0,
                tally: TrainTally::default(),
                spec: t,
            });
        }
        let engine = Engine::new(
            pipeline,
            chaos.as_ref().map(|c| c.schedule.clone()),
            schedules,
            lanes,
        );
        LifecycleSim {
            engine,
            fleet: Fleet {
                quotas,
                placement,
                topo_rng,
                train_runs_by_pool: vec![0; pool_count],
                publish_transfers: 0,
                transfer_dollars: 0.0,
                obs: Registry::new(),
                chaos,
                tenants,
                train_ready: VecDeque::new(),
                serve_held: 0,
                train_held: 0,
                util_integral: 0.0,
                last_event_s: 0.0,
                quota_stalls: 0,
                spec,
                policy,
            },
        }
    }

    /// Sends `lifecycle.*` metrics to a shared registry.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.engine.obs = registry.clone();
        self.fleet.obs = registry.clone();
        self
    }

    /// Hands freed capacity to parked requests and queued epochs in the
    /// policy's drain order.
    fn drain_all(&mut self) {
        let (engine, fleet) = (&mut self.engine, &mut self.fleet);
        let t = engine.events.now().as_secs();
        if fleet.policy.serve_drains_first(&fleet.view(t)) {
            engine.drain(fleet);
            fleet.dispatch_trains(t, &mut engine.events);
        } else {
            fleet.dispatch_trains(t, &mut engine.events);
            engine.drain(fleet);
        }
    }

    /// Runs the simulation to completion and returns the aggregate
    /// report.
    pub fn run(mut self) -> LifecycleReport {
        if self.fleet.tenants.is_empty() {
            return self.finalize(SimTime::ZERO);
        }
        let engine = &mut self.engine;
        engine.start("lifecycle", false);
        for (tenant, st) in self.fleet.tenants.iter().enumerate() {
            engine.schedule_first_arrival(tenant);
            let tenant = tenant as u32;
            let train_at = SimTime::from_secs(st.spec.train_arrival_s);
            engine
                .events
                .schedule_at(train_at, Ev::TrainArrival { tenant });
            for &d in &st.spec.drift_s {
                engine
                    .events
                    .schedule_at(SimTime::from_secs(d), Ev::Drift { tenant });
            }
        }
        let tick_s = engine.spec.scale_tick_s;
        if engine.schedules.iter().any(|s| !s.arrivals.is_empty()) {
            let tick = Ev::Req(ReqEv::ScaleTick);
            engine.events.schedule_at(SimTime::from_secs(tick_s), tick);
        }

        while let Some((now, ev)) = self.engine.events.pop() {
            let t = now.as_secs();
            let (engine, fleet) = (&mut self.engine, &mut self.fleet);
            fleet.util_integral += f64::from(fleet.total_in_use()) * (t - fleet.last_event_s);
            fleet.last_event_s = t;
            match ev {
                Ev::Req(ReqEv::Arrival { sched, req }) => {
                    // Arrivals queue; the drain below dispatches in the
                    // policy's order, possibly at this instant.
                    if engine.arrive(sched as usize, req) {
                        engine.admit(sched as usize, req, false, fleet);
                    }
                }
                Ev::Req(ReqEv::Done(attempt)) => engine.finish(attempt, fleet),
                Ev::Req(ReqEv::HedgeFire { sched, req }) => {
                    engine.hedge_fire(sched as usize, req, fleet);
                }
                Ev::Req(ReqEv::Retry { sched, req }) => {
                    engine.launch_retry(sched as usize, req, fleet);
                }
                Ev::Req(ReqEv::ScaleTick) => {
                    // The tick drains before it reschedules itself.
                    engine.scale_tick();
                    self.drain_all();
                    if self.engine.work_remains() {
                        let tick = Ev::Req(ReqEv::ScaleTick);
                        self.engine.events.schedule_in(tick_s, tick);
                    }
                    continue;
                }
                Ev::Req(ReqEv::OutageEnd) => engine.outage_ended(),
                Ev::TrainArrival { tenant } => fleet.start_training_run(tenant as usize, t),
                Ev::EpochDone { tenant, attempt } => {
                    let tenant = tenant as usize;
                    if attempt != fleet.tenants[tenant].attempt {
                        // Preempted after this completion was scheduled;
                        // the wave's lease was already returned.
                        continue;
                    }
                    let TrainState::Running { workers, .. } = fleet.tenants[tenant].train else {
                        unreachable!("current attempt implies a running epoch");
                    };
                    fleet.quotas[fleet.tenants[tenant].train_pool].release(workers);
                    fleet.train_held -= workers;
                    let done = fleet.tenants[tenant]
                        .exec
                        .as_ref()
                        .expect("running epoch has an execution")
                        .is_done();
                    if done {
                        fleet.finish_training(tenant, t, &mut engine.events);
                    } else {
                        fleet.requeue(tenant, t);
                    }
                }
                Ev::TrainResume { tenant } => {
                    let tenant = tenant as usize;
                    let st = &fleet.tenants[tenant];
                    if st.train == TrainState::Stalled && st.exec.is_some() {
                        fleet.requeue(tenant, t);
                    }
                }
                Ev::Redeploy { tenant, version } => {
                    let tenant = tenant as usize;
                    let st = &mut fleet.tenants[tenant];
                    st.version = version;
                    let (service_factor, cold_factor) = version_profile(&st.spec, version);
                    let schedule = &mut engine.schedules[tenant];
                    schedule.drifted = false;
                    schedule.service_factor = service_factor;
                    schedule.cold_factor = cold_factor;
                    // The old version's warm sandboxes cannot serve the
                    // new model: flush them, billing their idle time.
                    engine.flush_lane(tenant);
                    st.train = TrainState::Idle;
                    st.tally.redeploys += 1;
                    fleet.obs.counter("lifecycle.redeploys").inc();
                    fleet.obs.event(
                        t,
                        "lifecycle.redeploy",
                        &[
                            ("tenant", json!(st.spec.id)),
                            ("version", json!(version)),
                            ("service_factor", json!(service_factor)),
                            ("cold_factor", json!(cold_factor)),
                        ],
                    );
                }
                Ev::Drift { tenant } => {
                    let tenant = tenant as usize;
                    let st = &mut fleet.tenants[tenant];
                    if st.train == TrainState::Idle && st.version >= 1 && st.exec.is_none() {
                        let schedule = &mut engine.schedules[tenant];
                        schedule.drifted = true;
                        let (service_factor, _) = version_profile(&st.spec, st.version);
                        schedule.service_factor = service_factor * DRIFT_DEGRADE;
                        st.tally.drift_events += 1;
                        fleet.obs.counter("lifecycle.drift_events").inc();
                        fleet
                            .obs
                            .event(t, "lifecycle.drift", &[("tenant", json!(st.spec.id))]);
                        fleet.start_training_run(tenant, t);
                    } else {
                        // No model deployed yet, or a retrain is
                        // already in flight.
                        st.tally.drift_skipped += 1;
                    }
                }
            }
            self.drain_all();
        }
        // The heap ran dry with requests still parked: under an outage
        // still in force they could never have served (shed_outage);
        // otherwise the run simply ended first (truncated).
        self.engine.settle_parked();
        let horizon = SimTime::max(
            self.engine.events.now(),
            SimTime::from_secs(self.fleet.spec.duration_s),
        );
        self.finalize(horizon)
    }

    /// Drains warm pools, settles unfinished runs, computes the bill,
    /// flushes metrics, and assembles the report.
    fn finalize(mut self, horizon: SimTime) -> LifecycleReport {
        self.engine.drain_pools(horizon);
        let horizon_s = horizon.as_secs();
        let fleet = &mut self.fleet;
        let mut outcomes = Vec::with_capacity(fleet.tenants.len());
        for (i, st) in fleet.tenants.iter_mut().enumerate() {
            // A run still in flight at the horizon: its spend counts,
            // and it is a miss if its deadline already passed.
            if let Some(exec) = st.exec.take() {
                st.tally.train_dollars +=
                    exec.report().cost_usd * fleet.spec.topology.pools[st.train_pool].price_factor;
                if horizon_s > st.deadline_abs_s {
                    st.tally.deadline_misses += 1;
                }
            }
            let schedule = &self.engine.schedules[i];
            let (sa, ta) = (&schedule.tally, &st.tally);
            outcomes.push(TenantOutcome {
                tenant: st.spec.id,
                workload: st.spec.workload.label(),
                requests: schedule.arrivals.len() as u64,
                completed: sa.completed,
                failed: sa.failed,
                timed_out: sa.timed_out,
                shed_throttled: sa.shed_throttled,
                shed_overload: sa.shed_overload,
                shed_outage: sa.shed_outage,
                shed_breaker: sa.shed_breaker,
                truncated: sa.truncated,
                cold_starts: sa.cold_starts,
                warm_starts: sa.warm_starts,
                slo_violations: sa.slo_violations,
                drifted_served: sa.drifted_served,
                attempts: sa.attempts,
                retries: sa.retries,
                hedges: sa.hedges,
                hedge_wins: sa.hedge_wins,
                degraded: sa.degraded,
                // Every attempt — hedge losers and failed retries
                // included — pays the invocation fee.
                serve_dollars: self.engine.dollars(i),
                jobs_started: ta.jobs_started,
                jobs_completed: ta.jobs_completed,
                jobs_failed: ta.jobs_failed,
                deadline_misses: ta.deadline_misses,
                preemptions: ta.preemptions,
                epochs: ta.epochs,
                cold_resumes: ta.cold_resumes,
                train_dollars: ta.train_dollars,
                drift_events: ta.drift_events,
                drift_skipped: ta.drift_skipped,
                redeploys: ta.redeploys,
                model_version: st.version,
            });
        }
        for outcome in &outcomes {
            debug_assert_eq!(outcome.verdicts().check(), Ok(()));
        }
        let total_limit = fleet.total_limit();
        let quota_utilization = if horizon_s > 0.0 && total_limit > 0 {
            fleet.util_integral / (horizon_s * f64::from(total_limit))
        } else {
            0.0
        };
        let quota_peak: u32 = fleet.quotas.iter().map(AccountQuota::peak).sum();
        let report = LifecycleReport {
            policy: fleet.policy.name().to_string(),
            topology: fleet.spec.topology.name.clone(),
            placement: fleet.placement.name().to_string(),
            tenants: outcomes,
            makespan_s: horizon_s,
            quota_peak,
            quota_utilization,
            quota_stalls: fleet.quota_stalls,
            p50_ms: self.engine.latency_quantile(0.50),
            p95_ms: self.engine.latency_quantile(0.95),
            p99_ms: self.engine.latency_quantile(0.99),
        };
        if report.requests() > 0 || report.train_jobs() > 0 {
            self.engine.flush_verdicts("lifecycle");
            let obs = &fleet.obs;
            let sum = |f: fn(&TenantOutcome) -> u64| -> u64 { report.tenants.iter().map(f).sum() };
            obs.counter("lifecycle.drifted_served")
                .add(sum(|t| t.drifted_served));
            obs.counter("lifecycle.jobs_started")
                .add(report.train_jobs());
            obs.counter("lifecycle.deadline_misses")
                .add(report.train_misses());
            obs.counter("lifecycle.cold_resumes")
                .add(sum(|t| t.cold_resumes));
            obs.counter("lifecycle.drift_skipped")
                .add(sum(|t| t.drift_skipped));
            obs.counter("lifecycle.quota_stalls")
                .add(fleet.quota_stalls);
            obs.gauge("lifecycle.makespan_s").set(horizon_s);
            obs.gauge("lifecycle.serve_dollars")
                .set(report.serve_dollars());
            obs.gauge("lifecycle.train_dollars")
                .set(report.train_dollars());
            obs.gauge("lifecycle.total_dollars")
                .set(report.total_dollars());
            obs.gauge("lifecycle.quota_peak").set(f64::from(quota_peak));
            obs.gauge("lifecycle.quota_utilization")
                .set(quota_utilization);
            obs.gauge("lifecycle.serve_violation_rate")
                .set(report.serve_violation_rate());
            obs.gauge("lifecycle.train_miss_rate")
                .set(report.train_miss_rate());
            // Substrate breakdown — emitted only when a real topology
            // is modeled, so single-pool goldens keep their bytes.
            if fleet.multi_pool() {
                obs.gauge("topo.pools").set(fleet.quotas.len() as f64);
                let mut tenants_by_pool = vec![0u64; fleet.quotas.len()];
                for st in &fleet.tenants {
                    tenants_by_pool[st.serve_pool] += 1;
                }
                for (i, p) in fleet.spec.topology.pools.iter().enumerate() {
                    obs.counter(&format!("topo.tenants.{}", p.name))
                        .add(tenants_by_pool[i]);
                    obs.counter(&format!("topo.train_runs.{}", p.name))
                        .add(fleet.train_runs_by_pool[i]);
                }
                obs.counter("topo.publish_transfers")
                    .add(fleet.publish_transfers);
                obs.gauge("topo.transfer_dollars")
                    .set(fleet.transfer_dollars);
            }
        }
        report
    }
}

impl Capacity<Ev> for Fleet {
    /// Leases one worker in the tenant's serve pool, preempting a
    /// running epoch *in that pool* if the policy allows (evicting
    /// workers elsewhere could not free this pool's quota).
    fn lease(&mut self, lane: usize, q: &mut EventQueue<Ev>) -> Lease {
        if self.acquire_serve_worker(lane, q.now().as_secs(), q) {
            Lease::Granted
        } else if self.multi_pool() {
            // Only this tenant's pool is exhausted; tenants pinned
            // elsewhere may still drain.
            Lease::Busy
        } else {
            Lease::Exhausted
        }
    }

    /// Takes a spare worker in the tenant's serve pool; hedges never
    /// preempt a training epoch.
    fn lease_hedge(&mut self, lane: usize) -> bool {
        if self.quotas[self.tenants[lane].serve_pool]
            .try_acquire(1)
            .is_err()
        {
            return false;
        }
        self.serve_held += 1;
        true
    }

    fn release(&mut self, lane: usize) {
        self.quotas[self.tenants[lane].serve_pool].release(1);
        self.serve_held -= 1;
    }
}

impl Fleet {
    /// Whether a real substrate (more than one pool) is modeled.
    fn multi_pool(&self) -> bool {
        self.quotas.len() > 1
    }

    /// Workers leased across every pool.
    fn total_in_use(&self) -> u32 {
        self.quotas.iter().map(AccountQuota::in_use).sum()
    }

    /// Combined concurrency ceiling across every pool.
    fn total_limit(&self) -> u32 {
        self.quotas.iter().map(AccountQuota::limit).sum()
    }

    /// What the placement policy sees of each pool when a training run
    /// is placed: live lease counts, queued-train depth, and the link
    /// bandwidth back to `serve_pool` (where the publish must land).
    fn train_views(&self, serve_pool: usize) -> Vec<PoolView> {
        let topo = &self.spec.topology;
        let mut queued = vec![0u32; self.quotas.len()];
        for &tid in &self.train_ready {
            queued[self.tenants[tid as usize].train_pool] += 1;
        }
        topo.pools
            .iter()
            .enumerate()
            .map(|(i, p)| PoolView {
                rtt_ms: p.rtt_ms,
                price_factor: p.price_factor,
                compute_factor: p.compute_factor,
                cold_factor: p.cold_factor,
                bandwidth_mbps: topo.bandwidth_mbps(i, serve_pool),
                inflight: self.quotas[i].in_use(),
                queued: queued[i],
                capacity: self.quotas[i].limit(),
                warm_idle: 0,
                quota: p.quota,
            })
            .collect()
    }

    /// What the priority policy sees at `t`.
    fn view(&self, t: f64) -> QuotaView {
        let ready_train_slack_s = self
            .train_ready
            .iter()
            .map(|&tid| self.tenants[tid as usize].deadline_abs_s - t)
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.min(s)))
            });
        QuotaView {
            now_s: t,
            in_use: self.total_in_use(),
            limit: self.total_limit(),
            serve_held: self.serve_held,
            train_held: self.train_held,
            ready_train_slack_s,
        }
    }

    /// Leases one worker in `tenant`'s serve pool for a request,
    /// preempting a running epoch *in that pool* if the policy allows
    /// (evicting workers elsewhere could not free this pool's quota).
    /// Returns `false` when the request must wait.
    fn acquire_serve_worker(&mut self, tenant: usize, t: f64, events: &mut EventQueue<Ev>) -> bool {
        let pool = self.tenants[tenant].serve_pool;
        if self.quotas[pool].try_acquire(1).is_ok() {
            self.serve_held += 1;
            return true;
        }
        let victims: Vec<VictimView> = self
            .tenants
            .iter()
            .enumerate()
            .filter_map(|(i, st)| match st.train {
                // A converged in-flight epoch is excluded: rolling it
                // back would strand the run un-finishable.
                TrainState::Running {
                    workers,
                    converged: false,
                    ..
                } if st.train_pool == pool => Some(VictimView {
                    tenant: i as u32,
                    workers,
                    slack_s: st.deadline_abs_s - t,
                }),
                _ => None,
            })
            .collect();
        if victims.is_empty() {
            return false;
        }
        let Some(vi) = self.policy.preempt_victim(&victims, &self.view(t)) else {
            return false;
        };
        self.preempt(victims[vi].tenant as usize, t, events);
        if self.quotas[pool].try_acquire(1).is_ok() {
            self.serve_held += 1;
            true
        } else {
            false
        }
    }

    /// Kills `tenant`'s in-flight epoch: the wave's workers return to
    /// the quota, the run rolls back to its latest checkpoint (partial
    /// epoch, restore transfer, and backoff stall all billed by
    /// [`TrainingExecution::inject_worker_loss`]), and a `TrainResume`
    /// fires once the stall elapses.
    fn preempt(&mut self, tenant: usize, t: f64, events: &mut EventQueue<Ev>) {
        let obs = self.obs.clone();
        let st = &mut self.tenants[tenant];
        let TrainState::Running {
            workers,
            started_s,
            wall_s,
            ..
        } = st.train
        else {
            unreachable!("preemption targets a running epoch");
        };
        self.quotas[st.train_pool].release(workers);
        self.train_held -= workers;
        st.attempt += 1;
        let at_fraction = if wall_s > 0.0 {
            ((t - started_s) / wall_s).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let stall = st
            .exec
            .as_mut()
            .expect("running epoch has an execution")
            .inject_worker_loss(at_fraction);
        st.train = TrainState::Stalled;
        st.tally.preemptions += 1;
        obs.counter("lifecycle.preemptions").inc();
        obs.event(
            t,
            "lifecycle.preemption",
            &[
                ("tenant", json!(st.spec.id)),
                ("workers", json!(workers)),
                ("at_fraction", json!(at_fraction)),
                ("stall_s", json!(stall)),
            ],
        );
        events.schedule_at(
            SimTime::from_secs(t + stall),
            Ev::TrainResume {
                tenant: tenant as u32,
            },
        );
    }

    /// Starts training run number `st.runs` for `tenant` (the initial
    /// job or a drift retrain): places it on a pool, sizes its
    /// allocation grid to that pool's ceiling, and queues it for
    /// dispatch.
    fn start_training_run(&mut self, tenant: usize, t: f64) {
        if self.multi_pool() {
            let serve_pool = self.tenants[tenant].serve_pool;
            let views = self.train_views(serve_pool);
            let req = PlacementRequest {
                compute_s: self.tenants[tenant].spec.deadline_span_s,
                transfer_mb: self.tenants[tenant].spec.workload.model.model_mb,
                cold_ms: 0.0,
            };
            let idx = self
                .placement
                .place(&views, &req, &mut self.topo_rng)
                .min(self.quotas.len() - 1);
            self.tenants[tenant].train_pool = idx;
            self.train_runs_by_pool[idx] += 1;
        }
        let cap = self
            .spec
            .job_cap
            .min(self.quotas[self.tenants[tenant].train_pool].limit());
        let (job, deadline_abs_s) = {
            let st = &mut self.tenants[tenant];
            let run = st.runs;
            st.runs += 1;
            st.tally.jobs_started += 1;
            let mut job = TrainingJob::new(
                st.spec.workload.clone(),
                ce_workflow::Constraint::Budget(st.spec.budget_usd),
            )
            .with_seed(st.spec.run_seed(run))
            .with_space(ce_models::AllocationSpace::aws_default().with_max_concurrency(cap))
            .with_recovery(RecoveryPolicy::CheckpointResume)
            .with_checkpoint_every(self.spec.checkpoint_every);
            job.env = self.spec.env.clone();
            (job, t + st.spec.deadline_span_s)
        };
        match TrainingExecution::start(job, Method::CeScaling) {
            Ok(exec) => {
                let st = &mut self.tenants[tenant];
                st.exec = Some(exec);
                st.train = TrainState::Ready;
                st.deadline_abs_s = deadline_abs_s;
                st.queued_since = t;
                self.train_ready.push_back(tenant as u32);
            }
            Err(_) => self.fail_train(tenant, t, 0.0),
        }
    }

    /// Marks `tenant`'s current run failed. Whatever it billed before
    /// failing still counts, and a failed run is a deadline miss.
    fn fail_train(&mut self, tenant: usize, t: f64, cost_usd: f64) {
        let obs = self.obs.clone();
        let price = self.spec.topology.pools[self.tenants[tenant].train_pool].price_factor;
        let st = &mut self.tenants[tenant];
        st.exec = None;
        st.train = TrainState::Idle;
        st.tally.jobs_failed += 1;
        st.tally.deadline_misses += 1;
        st.tally.train_dollars += cost_usd * price;
        obs.counter("lifecycle.train_failed").inc();
        obs.event(
            t,
            "lifecycle.train_failed",
            &[("tenant", json!(st.spec.id)), ("run", json!(st.runs - 1))],
        );
    }

    /// Checks the fault timeline before dispatching the head-of-line
    /// epoch. Returns `true` when chaos intercepted the dispatch: the
    /// run left the queue and a `TrainResume` is scheduled.
    fn train_chaos_intercepts(
        &mut self,
        tenant: usize,
        t: f64,
        events: &mut EventQueue<Ev>,
    ) -> bool {
        let Some(chaos) = self.chaos.as_mut() else {
            return false;
        };
        let active = chaos.schedule.active_at(t);
        if active.is_quiet() {
            return false;
        }
        let st = &mut self.tenants[tenant];
        let kind = st
            .exec
            .as_ref()
            .expect("queued run has an execution")
            .alloc()
            .storage;
        if let Some(until) = active.outage_until(kind) {
            self.train_ready.pop_front();
            st.train = TrainState::Stalled;
            self.obs.counter("lifecycle.chaos_stalls").inc();
            events.schedule_at(
                SimTime::from_secs(until.max(t)),
                Ev::TrainResume {
                    tenant: tenant as u32,
                },
            );
            return true;
        }
        if active.crash_rate > 0.0 {
            let mut draw = fork_attempt(&chaos.rng, chaos.attempts);
            chaos.attempts += 1;
            if draw.bernoulli(active.crash_rate) {
                self.train_ready.pop_front();
                let at_fraction = draw.uniform();
                let stall = st
                    .exec
                    .as_mut()
                    .expect("queued run has an execution")
                    .inject_worker_loss(at_fraction);
                st.train = TrainState::Stalled;
                self.obs.counter("lifecycle.chaos_stalls").inc();
                self.obs.counter("lifecycle.chaos_worker_losses").inc();
                events.schedule_at(
                    SimTime::from_secs(t + stall),
                    Ev::TrainResume {
                        tenant: tenant as u32,
                    },
                );
                return true;
            }
        }
        false
    }

    /// Dispatches queued epochs head-of-line while the quota fits them.
    /// A head wave that does not fit stalls the whole queue (skipping
    /// it would starve wide allocations behind narrow ones).
    fn dispatch_trains(&mut self, t: f64, events: &mut EventQueue<Ev>) {
        loop {
            let Some(&tid) = self.train_ready.front() else {
                return;
            };
            let tenant = tid as usize;
            if self.train_chaos_intercepts(tenant, t, events) {
                continue;
            }
            let workers = self.tenants[tenant]
                .exec
                .as_ref()
                .expect("queued run has an execution")
                .alloc()
                .n;
            let pool = self.tenants[tenant].train_pool;
            if let Err(e) = self.quotas[pool].try_acquire(workers) {
                if e.is_structural() {
                    // This wave can never fit the account limit.
                    self.train_ready.pop_front();
                    let cost = self.tenants[tenant]
                        .exec
                        .as_ref()
                        .map_or(0.0, |e| e.report().cost_usd);
                    self.fail_train(tenant, t, cost);
                    continue;
                }
                self.quota_stalls += 1;
                return;
            }
            self.train_ready.pop_front();
            let compute_factor = self.spec.topology.pools[pool].compute_factor;
            let st = &mut self.tenants[tenant];
            let wait = t - st.queued_since;
            if wait > IDLE_EXPIRY_S {
                st.exec
                    .as_mut()
                    .expect("queued run has an execution")
                    .cool_down();
                st.tally.cold_resumes += 1;
            }
            match st
                .exec
                .as_mut()
                .expect("queued run has an execution")
                .step_epoch()
            {
                Ok(step) => {
                    st.attempt += 1;
                    // The pool's silicon class stretches (or shrinks)
                    // the epoch wall; the neutral pool multiplies by
                    // exactly 1.0.
                    let wall_s = step.wall_s * compute_factor;
                    st.train = TrainState::Running {
                        workers,
                        started_s: t,
                        wall_s,
                        converged: step.converged,
                    };
                    st.tally.epochs += 1;
                    self.train_held += workers;
                    self.obs.counter("lifecycle.epochs").inc();
                    events.schedule_at(
                        SimTime::from_secs(t + wall_s),
                        Ev::EpochDone {
                            tenant: tid,
                            attempt: st.attempt,
                        },
                    );
                }
                Err(_) => {
                    // The platform itself refused the wave.
                    self.quotas[pool].release(workers);
                    let cost = st.exec.as_ref().map_or(0.0, |e| e.report().cost_usd);
                    self.fail_train(tenant, t, cost);
                }
            }
        }
    }

    /// A finished run publishes its model: the snapshot transfer and
    /// request cost go on the training bill, and the `Redeploy` fires
    /// when the transfer lands. A run that trained off-pool from the
    /// replicas it redeploys additionally pays the link's transfer
    /// time and egress dollars.
    fn finish_training(&mut self, tenant: usize, t: f64, events: &mut EventQueue<Ev>) {
        let obs = self.obs.clone();
        let train_pool = self.tenants[tenant].train_pool;
        let serve_pool = self.tenants[tenant].serve_pool;
        let price = self.spec.topology.pools[train_pool].price_factor;
        let st = &mut self.tenants[tenant];
        let exec = st.exec.take().expect("finished run has an execution");
        let alloc_kind = exec.alloc().storage;
        let billed = exec.report().cost_usd;
        match exec.finish_quiet() {
            Ok(report) => {
                st.tally.jobs_completed += 1;
                st.tally.train_dollars += report.cost_usd * price;
                let late = t > st.deadline_abs_s;
                if late {
                    st.tally.deadline_misses += 1;
                }
                let model_mb = st.spec.workload.model.model_mb;
                let (mut publish_s, publish_usd) = self
                    .spec
                    .env
                    .storage
                    .get(BACKING)
                    .or_else(|| self.spec.env.storage.get(alloc_kind))
                    .map_or((0.0, 0.0), |s| {
                        (s.transfer_time(model_mb), s.pricing.get_cost(model_mb))
                    });
                st.tally.train_dollars += publish_usd;
                if train_pool != serve_pool {
                    let topo = &self.spec.topology;
                    let (xfer_s, xfer_usd) = topo.transfer(train_pool, serve_pool, model_mb);
                    publish_s += xfer_s;
                    st.tally.train_dollars += xfer_usd;
                    self.publish_transfers += 1;
                    self.transfer_dollars += xfer_usd;
                }
                st.train = TrainState::Publishing;
                let version = st.version + 1;
                obs.counter("lifecycle.train_completed").inc();
                obs.event(
                    t,
                    "lifecycle.train_done",
                    &[
                        ("tenant", json!(st.spec.id)),
                        ("version", json!(version)),
                        ("epochs", json!(report.epochs)),
                        ("cost_usd", json!(report.cost_usd)),
                        ("late", json!(late)),
                    ],
                );
                events.schedule_at(
                    SimTime::from_secs(t + publish_s),
                    Ev::Redeploy {
                        tenant: tenant as u32,
                        version,
                    },
                );
            }
            Err(_) => {
                st.exec = None;
                self.fail_train(tenant, t, billed);
            }
        }
    }

    /// Queues `tenant`'s run for its next epoch dispatch.
    fn requeue(&mut self, tenant: usize, t: f64) {
        let st = &mut self.tenants[tenant];
        st.train = TrainState::Ready;
        st.queued_since = t;
        self.train_ready.push_back(tenant as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::{all_priorities, priority_by_name};
    use ce_chaos::FaultSchedule;
    use ce_resilience::{BreakerSpec, ResilienceSpec, RetryPolicy};

    /// A small, genuinely contended spec: 3 tenants on 12 workers.
    fn tight_spec(seed: u64) -> LifecycleSpec {
        LifecycleSpec::new(3, 120.0, seed)
            .with_quota(12)
            .with_job_cap(8)
            .with_rps(6.0)
            .with_drift_mean_s(60.0)
    }

    fn run_with(spec: LifecycleSpec, policy: &str) -> (LifecycleReport, String) {
        let registry = Registry::new();
        let policy = priority_by_name(policy).expect("known policy");
        let r = LifecycleSim::new(spec, policy).with_obs(&registry).run();
        (r, registry.export_jsonl())
    }

    #[test]
    fn same_seed_is_deterministic_down_to_the_bytes() {
        let (r1, m1) = run_with(tight_spec(42), "serve-first");
        let (r2, m2) = run_with(tight_spec(42), "serve-first");
        assert_eq!(r1, r2);
        assert_eq!(m1, m2, "metrics must be byte-identical");
        let (r3, _) = run_with(tight_spec(43), "serve-first");
        assert_ne!(r1, r3, "different seed, different run");
    }

    #[test]
    fn thread_count_does_not_change_the_bytes() {
        let (r1, m1) = rayon::with_threads(1, || run_with(tight_spec(7), "fair-share"));
        let (r8, m8) = rayon::with_threads(8, || run_with(tight_spec(7), "fair-share"));
        assert_eq!(r1, r8);
        assert_eq!(m1, m8);
    }

    #[test]
    fn every_request_gets_a_verdict() {
        let (r, _) = run_with(tight_spec(42), "serve-first");
        assert!(
            r.requests() > 500,
            "expected real traffic: {}",
            r.requests()
        );
        for t in &r.tenants {
            assert_eq!(
                t.completed + t.failed + t.shed_throttled + t.shed_overload + t.shed_outage,
                t.requests,
                "verdicts partition arrivals: {t:?}"
            );
            assert_eq!(t.cold_starts + t.warm_starts, t.completed + t.failed);
        }
        assert!(r.total_dollars() > 0.0);
        assert!(r.quota_peak <= 12);
    }

    #[test]
    fn serving_steals_quota_under_serve_first_but_never_under_train_first() {
        let (serve, _) = run_with(tight_spec(42), "serve-first");
        let (train, _) = run_with(tight_spec(42), "train-first");
        assert!(
            serve.preemptions() > 0,
            "a tight quota must force preemptions: {serve:?}"
        );
        assert_eq!(train.preemptions(), 0, "train-first never preempts");
        // The endpoints trade QoS for deadline misses.
        assert!(
            serve.serve_violation_rate() <= train.serve_violation_rate(),
            "serve-first must not serve worse: {} vs {}",
            serve.serve_violation_rate(),
            train.serve_violation_rate()
        );
    }

    #[test]
    fn training_completes_and_redeploys_models() {
        // Generous quota so training finishes fast and drift retrains.
        let spec = LifecycleSpec::new(2, 240.0, 11)
            .with_quota(32)
            .with_rps(2.0)
            .with_drift_mean_s(60.0);
        let (r, _) = run_with(spec, "fair-share");
        let redeploys: u64 = r.tenants.iter().map(|t| t.redeploys).sum();
        assert!(redeploys >= 1, "some model must publish: {r:?}");
        assert!(
            r.tenants.iter().any(|t| t.model_version >= 1),
            "a version must deploy: {r:?}"
        );
    }

    #[test]
    fn zero_fault_chaos_is_bitwise_clean() {
        let clean = run_with(tight_spec(23), "deadline");
        let zero = FaultSchedule::parse("crash:0@0..inf;coldspike:x1@0..inf").unwrap();
        let chaotic = run_with(tight_spec(23).with_chaos(zero), "deadline");
        assert_eq!(clean.0, chaotic.0);
        assert_eq!(clean.1, chaotic.1, "zero-fault chaos must be bit-clean");
    }

    #[test]
    fn chaos_changes_outcomes_but_stays_deterministic() {
        let storm = FaultSchedule::parse("crash:0.3@10..60;throttle:0.2@20..50").unwrap();
        let a = run_with(tight_spec(5).with_chaos(storm.clone()), "serve-first");
        let b = run_with(tight_spec(5).with_chaos(storm), "serve-first");
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        let (clean, _) = run_with(tight_spec(5), "serve-first");
        assert_ne!(a.0, clean, "a real storm must leave a mark");
    }

    #[test]
    fn policies_produce_distinct_frontier_points() {
        // Narrow waves on a wider quota: several epochs run
        // concurrently, so the policies' victim choices and protected
        // shares actually diverge (under one-wave-at-a-time contention
        // every preempting policy picks the same lone victim).
        let spec = |seed| {
            LifecycleSpec::new(3, 120.0, seed)
                .with_quota(16)
                .with_job_cap(4)
                .with_rps(6.0)
                .with_drift_mean_s(60.0)
        };
        let mut points = Vec::new();
        for policy in all_priorities() {
            let name = policy.name();
            let r = LifecycleSim::new(spec(42), policy).run();
            points.push((name, r.frontier_point()));
        }
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                assert_ne!(
                    points[i].1, points[j].1,
                    "{} and {} landed on the same point",
                    points[i].0, points[j].0
                );
            }
        }
    }

    #[test]
    fn timeouts_type_the_verdict_per_tenant() {
        let spec = tight_spec(42).with_resilience(ResilienceSpec {
            timeout_ms: Some(100.0),
            ..ResilienceSpec::disabled()
        });
        let (r, metrics) = run_with(spec, "serve-first");
        for t in &r.tenants {
            t.verdicts().check().unwrap();
        }
        let timed_out: u64 = r.tenants.iter().map(|t| t.timed_out).sum();
        assert!(
            timed_out > r.requests() / 2,
            "a 100 ms deadline kills most ~250 ms requests: {r:?}"
        );
        assert!(metrics.contains(r#""name":"lifecycle.timed_out""#));
        assert!(
            r.total_dollars() > 0.0,
            "killed attempts still bill their truncated busy time"
        );
    }

    #[test]
    fn retries_cut_failures_under_a_crash_storm_at_higher_cost() {
        let storm = || FaultSchedule::parse("crash:0.5@10..60").unwrap();
        let (base, _) = run_with(tight_spec(5).with_chaos(storm()), "serve-first");
        let spec = tight_spec(5)
            .with_chaos(storm())
            .with_resilience(ResilienceSpec {
                retry: Some(RetryPolicy::new(2)),
                ..ResilienceSpec::disabled()
            });
        let (r, _) = run_with(spec, "serve-first");
        for t in &r.tenants {
            t.verdicts().check().unwrap();
        }
        let failed = |rep: &LifecycleReport| -> u64 { rep.tenants.iter().map(|t| t.failed).sum() };
        let retries: u64 = r.tenants.iter().map(|t| t.retries).sum();
        assert!(retries > 0, "the storm must trigger retries: {r:?}");
        assert!(
            failed(&r) < failed(&base),
            "retries must save requests: {} vs {}",
            failed(&r),
            failed(&base)
        );
        assert!(
            r.serve_dollars() > base.serve_dollars(),
            "every extra attempt is billed: {} vs {}",
            r.serve_dollars(),
            base.serve_dollars()
        );
    }

    #[test]
    fn hedges_take_spare_quota_but_never_preempt_training() {
        // A generous quota leaves spare workers for hedges; train-first
        // structurally never preempts, so any preemption would be ours.
        let spec = LifecycleSpec::new(2, 120.0, 9)
            .with_quota(64)
            .with_rps(4.0)
            .with_resilience(ResilienceSpec {
                hedge: Some(ce_resilience::HedgePolicy::FixedMs(100.0)),
                ..ResilienceSpec::disabled()
            });
        let (r, _) = run_with(spec, "train-first");
        for t in &r.tenants {
            t.verdicts().check().unwrap();
        }
        let hedges: u64 = r.tenants.iter().map(|t| t.hedges).sum();
        let completed: u64 = r.tenants.iter().map(|t| t.completed).sum();
        let attempts: u64 = r.tenants.iter().map(|t| t.attempts).sum();
        assert!(
            hedges > 0,
            "a 100 ms delay under ~250 ms service hedges: {r:?}"
        );
        assert!(
            attempts > completed,
            "hedge losers are real billed attempts"
        );
        assert_eq!(r.preemptions(), 0, "hedges never evict an epoch");
        assert!(r.quota_peak <= 64, "hedges stay within the shared quota");
    }

    #[test]
    fn breaker_sheds_fast_during_a_total_crash_storm() {
        let storm = FaultSchedule::parse("crash:1@20..80").unwrap();
        let spec = tight_spec(7)
            .with_chaos(storm)
            .with_resilience(ResilienceSpec {
                breaker: Some(BreakerSpec::new(0.5)),
                ..ResilienceSpec::disabled()
            });
        let (r, metrics) = run_with(spec, "serve-first");
        for t in &r.tenants {
            t.verdicts().check().unwrap();
        }
        let shed: u64 = r.tenants.iter().map(|t| t.shed_breaker).sum();
        let failed: u64 = r.tenants.iter().map(|t| t.failed).sum();
        assert!(shed > 0, "every tenant's breaker must trip: {r:?}");
        assert!(
            shed > failed,
            "most doomed dispatches become fast sheds: {shed} vs {failed}"
        );
        assert!(metrics.contains(r#""name":"resilience.breaker""#));
    }

    #[test]
    fn tiny_queue_cap_sheds_overload_instead_of_queueing() {
        let spec = tight_spec(3).with_quota(4).with_queue_cap(2);
        let (r, _) = run_with(spec, "train-first");
        let overload: u64 = r.tenants.iter().map(|t| t.shed_overload).sum();
        assert!(overload > 0, "a 2-slot queue under 6 rps must shed: {r:?}");
        for t in &r.tenants {
            t.verdicts().check().unwrap();
        }
    }

    #[test]
    fn single_pool_topology_is_byte_identical_whatever_the_placement_name() {
        let (base, bm) = run_with(tight_spec(42), "serve-first");
        for placement in ce_topo::placement_names() {
            let spec = tight_spec(42)
                .with_topology(ce_topo::Topology::single())
                .with_placement(placement);
            let (mut r, m) = run_with(spec, "serve-first");
            // The report labels which policy was configured; the label
            // is the only thing allowed to differ single-pool.
            r.placement = base.placement.clone();
            assert_eq!(base, r, "placement {placement} must be inert single-pool");
            assert_eq!(bm, m, "single-pool metrics must keep their bytes");
        }
    }

    #[test]
    fn edge_cloud_lifecycle_is_deterministic_and_splits_the_fleet() {
        let spec = || {
            tight_spec(42)
                .with_topology(ce_topo::Topology::edge_cloud())
                .with_placement("workload-aware")
        };
        let (r1, m1) = run_with(spec(), "serve-first");
        let (r2, m2) = run_with(spec(), "serve-first");
        assert_eq!(r1, r2);
        assert_eq!(m1, m2, "multi-pool runs must stay byte-deterministic");
        assert_eq!(r1.topology, "edge-cloud");
        assert_eq!(r1.placement, "workload-aware");
        for t in &r1.tenants {
            t.verdicts().check().unwrap();
        }
        assert!(m1.contains(r#""name":"topo.pools""#));
        assert!(m1.contains(r#""name":"topo.tenants.edge""#));
        assert!(m1.contains(r#""name":"topo.train_runs.cloud""#));
        let (single, _) = run_with(tight_spec(42), "serve-first");
        assert_ne!(r1, single, "a real substrate must leave a mark");
    }

    #[test]
    fn off_pool_publishes_cross_the_link_and_pay_egress() {
        // Generous pools so training converges: workload-aware pins
        // serving to the idle low-RTT edge and places the wide
        // training waves on the deep cloud, so every publish crosses
        // the edge–cloud link.
        let spec = LifecycleSpec::new(2, 240.0, 11)
            .with_quota(32)
            .with_rps(2.0)
            .with_drift_mean_s(60.0)
            .with_topology(ce_topo::Topology::edge_cloud())
            .with_placement("workload-aware");
        let (r, metrics) = run_with(spec, "fair-share");
        let redeploys: u64 = r.tenants.iter().map(|t| t.redeploys).sum();
        assert!(redeploys >= 1, "some model must publish: {r:?}");
        assert!(
            metrics.contains(r#""name":"topo.publish_transfers""#),
            "multi-pool runs report their transfer tally"
        );
        let transfers: u64 = metrics
            .lines()
            .find(|l| l.contains(r#""name":"topo.publish_transfers""#))
            .and_then(|l| {
                serde_json::from_str::<serde_json::Value>(l)
                    .ok()
                    .and_then(|v| v["value"].as_u64())
            })
            .expect("transfer counter parses");
        assert!(
            transfers >= redeploys,
            "every off-pool publish crosses the link: {transfers} vs {redeploys}"
        );
    }

    #[test]
    fn empty_fleet_is_a_no_op() {
        let registry = Registry::new();
        let r = LifecycleSim::new(
            LifecycleSpec::new(0, 100.0, 1),
            priority_by_name("serve-first").expect("known"),
        )
        .with_obs(&registry)
        .run();
        assert_eq!(r.requests(), 0);
        assert_eq!(r.total_dollars(), 0.0);
        assert_eq!(registry.export_jsonl(), "");
    }
}
