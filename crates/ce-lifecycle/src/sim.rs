//! The lifecycle fleet simulator (DESIGN §5h).
//!
//! One `ce_sim_core` event heap drives, per tenant, a request-level
//! serving loop *and* a stepwise training loop, all leasing workers from
//! one `AccountQuota` per pool, which the training queue owns: a
//! dispatched request holds one worker until it completes, a dispatched
//! epoch holds its wave width. Training runs wait in the head-of-line
//! queue shared with ce-cluster ([`ce_cluster::wave::TrainQueue`]),
//! picked FIFO; it launches, lands and rolls back their waves and rules
//! what a fault does to them. The [`PriorityPolicy`] arbitrates
//! contention (see `priority`), and a completed training run publishes
//! a model version that redeploys into the serve stage.
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
//! Same spec + same seed ⇒ byte-identical metrics: the whole run is one
//! sequential event loop, and no simulation reads the thread count
//! (DESIGN §5g). Per-request jitter streams are keyed by tenant and
//! request *index*, request chaos draws fork the `"lifecycle-chaos"`
//! stream per tenant and training crash draws per dispatch attempt, and
//! model-version profiles are keyed by version index, so no draw depends
//! on event order. A zero-fault schedule draws nothing: it is
//! bit-identical to no schedule.
//!
//! # Topology
//!
//! Each pool owns its own `AccountQuota`; every tenant's serving is
//! pinned to one pool at build time, and each training run is placed
//! when it starts, so an off-pool retrain's publish pays the link's
//! transfer time and egress (DESIGN §5k). Preemption is pool-local. The
//! default single neutral pool is byte-identical to pre-topology builds.

use crate::priority::{PriorityPolicy, QuotaView, VictimView};
use crate::report::{LifecycleReport, TenantOutcome};
use crate::spec::{LifecycleSpec, TenantSpec};
use ce_cluster::wave::{Dispatch, FifoOrder, Finished, Landing, Stall, TrainQueue};
use ce_faas::{parse_keep_alive, InstancePool};
use ce_obs::{Counter, Registry};
use ce_serve::engine::{Capacity, Engine, Lane, Lease, ReqEv, Schedule, StreamKeys};
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

/// One tenant's training loop and deployed model version (its serving
/// lives in the request engine, schedule and lane = tenant index).
struct TenantState {
    spec: TenantSpec,
    version: u32,
    /// The pool the tenant's replicas live in (pinned at build time).
    serve_pool: usize,
    /// A finished run's publish transfer is in flight (`Redeploy`
    /// pending).
    publishing: bool,
    runs: u32,
    deadline_abs_s: f64,
    /// The training and lifecycle fields of the tenant's outcome,
    /// tallied inline; the rest is filled in once, at the end.
    tally: TenantOutcome,
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
    /// Every tenant's training run (run index = tenant index).
    trains: TrainQueue<VecDeque<usize>>,
    placement: Box<dyn ce_topo::PlacementPolicy>,
    topo_rng: SimRng,
    /// Training runs placed per pool (reported multi-pool only).
    train_runs_by_pool: Vec<u64>,
    /// Off-pool model publishes that crossed a link.
    publish_transfers: u64,
    /// Egress dollars those publishes paid.
    transfer_dollars: f64,
    obs: Registry,
    tenants: Vec<TenantState>,
    serve_held: u32,
    train_held: u32,
    quota_stalls: u64,
    /// The preemption candidates handed to the policy, rebuilt in place
    /// for every request that finds its pool full.
    victims: Vec<VictimView>,
    /// `lifecycle.epochs` and `lifecycle.chaos_degraded_epochs` handles.
    epochs_counter: Option<Counter>,
    degraded_counter: Option<Counter>,
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
    /// Panics with [`LifecycleSpec::validate`]'s message when it refuses
    /// the spec, and when the spec names an unknown autoscaler or
    /// keep-alive policy: check those with `ce_serve::parse_autoscaler`
    /// and `ce_faas::parse_keep_alive` before building.
    pub fn new(spec: LifecycleSpec, policy: Box<dyn PriorityPolicy>) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        let rng = SimRng::new(spec.seed).derive("lifecycle-sim");
        let chaos_rng = rng.derive("lifecycle-chaos");
        let chaos = spec.chaos.as_ref();
        let ready = VecDeque::new();
        let trains = TrainQueue::new(&spec.topology, spec.quota, chaos, chaos_rng.clone(), ready);
        let pool_count = trains.pool_count();
        // A pure fork: deriving consumes no parent draws, so default
        // runs keep their exact bytes.
        let mut topo_rng = rng.derive("topo");
        let mut placement = ce_topo::parse_placement(&spec.placement).expect("validated placement");
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
                let views: Vec<PoolView> = (0..pool_count)
                    .map(|p| PoolView {
                        inflight: pinned[p],
                        ..trains.pool_view(p, 0, f64::INFINITY)
                    })
                    .collect();
                let idx = placement
                    .place(&views, &req, &mut topo_rng)
                    .min(pool_count - 1);
                *serve_pool = idx;
                pinned[idx] += 1;
            }
        }
        // Every lane starts from a copy of one parsed policy, so a
        // `qlearn` autoscaler trains once, not once per tenant.
        let keep_alive = parse_keep_alive(&spec.keep_alive).expect("known keep-alive");
        let autoscaler = autoscaler_by_name(&spec.autoscaler).expect("known autoscaler");
        // Tenant `i` is the engine's schedule `i`, served on lane `i`.
        let mut schedules = Vec::new();
        let mut lanes = Vec::new();
        let mut tenants = Vec::new();
        for (i, (mut t, serve_pool)) in tenant_specs.into_iter().zip(serve_pools).enumerate() {
            let keys = StreamKeys {
                jitter: rng.derive_idx("tenant-serve", i as u64),
                chaos: chaos.map(|_| chaos_rng.derive_idx("tenant", i as u64)),
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
            let pool = InstancePool::new().with_keep_alive(keep_alive.clone_box());
            lanes.push(Lane::new(node, pool, autoscaler.clone_box(), i));
            tenants.push(TenantState {
                version: 0,
                serve_pool,
                publishing: false,
                runs: 0,
                deadline_abs_s: f64::INFINITY,
                tally: TenantOutcome::default(),
                spec: t,
            });
        }
        let engine = Engine::new(pipeline, trains.faults().cloned(), schedules, lanes);
        LifecycleSim {
            engine,
            fleet: Fleet {
                trains,
                placement,
                topo_rng,
                train_runs_by_pool: vec![0; pool_count],
                publish_transfers: 0,
                transfer_dollars: 0.0,
                obs: Registry::new(),
                tenants,
                serve_held: 0,
                train_held: 0,
                quota_stalls: 0,
                victims: Vec::new(),
                epochs_counter: None,
                degraded_counter: None,
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
            fleet.trains.advance(t);
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
                    let landed = fleet.trains.land(&FifoOrder, tenant, attempt, t);
                    // `None`: preempted after this completion was
                    // scheduled; the wave's lease was already returned.
                    let Some((wave, landing)) = landed else {
                        continue;
                    };
                    fleet.train_held -= wave.workers;
                    match landing {
                        Landing::Next => {}
                        Landing::Finished(run) => fleet.publish(tenant, t, run, &mut engine.events),
                        Landing::Failed { usd } => fleet.fail_train(tenant, t, usd),
                    }
                }
                Ev::TrainResume { tenant } => fleet.trains.resume(&FifoOrder, tenant as usize),
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
                    st.publishing = false;
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
                    let idle = !st.publishing && fleet.trains.exec(tenant).is_none();
                    if idle && st.version >= 1 {
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
            if let Some(exec) = fleet.trains.exec(i) {
                let price = fleet.spec.topology.pools[fleet.trains.pool(i)].price_factor;
                st.tally.train_dollars += exec.report().cost_usd * price;
                if horizon_s > st.deadline_abs_s {
                    st.tally.deadline_misses += 1;
                }
            }
            let schedule = &self.engine.schedules[i];
            let sa = &schedule.tally;
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
                model_version: st.version,
                ..std::mem::take(&mut st.tally)
            });
        }
        for outcome in &outcomes {
            debug_assert_eq!(outcome.verdicts().check(), Ok(()));
        }
        let trains = &fleet.trains;
        let quota_utilization = trains.utilization(horizon_s);
        let quota_peak = trains.peak();
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
            if trains.multi_pool() {
                let pool_count = trains.pool_count();
                obs.gauge("topo.pools").set(pool_count as f64);
                let mut tenants_by_pool = vec![0u64; pool_count];
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
    /// See [`Fleet::acquire_serve_worker`].
    fn lease(&mut self, lane: usize, q: &mut EventQueue<Ev>) -> Lease {
        if self.acquire_serve_worker(lane, q.now().as_secs(), q) {
            Lease::Granted
        } else if self.trains.multi_pool() {
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
        self.take_serve_worker(self.tenants[lane].serve_pool)
    }

    fn release(&mut self, lane: usize) {
        let pool = self.tenants[lane].serve_pool;
        self.trains.quota_mut(pool).release(1);
        self.serve_held -= 1;
    }
}

impl Fleet {
    /// Takes a spare worker in `pool` for a request, if there is one.
    fn take_serve_worker(&mut self, pool: usize) -> bool {
        let granted = self.trains.quota_mut(pool).try_acquire(1).is_ok();
        self.serve_held += u32::from(granted);
        granted
    }

    /// What the placement policy sees of each pool when a training run
    /// is placed: live lease counts, queued-train depth, and the link
    /// bandwidth back to `serve_pool` (where the publish must land).
    fn train_views(&self, serve_pool: usize) -> Vec<PoolView> {
        let (trains, topo) = (&self.trains, &self.spec.topology);
        let queued = trains.queued_by_pool();
        (0..queued.len())
            .map(|p| trains.pool_view(p, queued[p], topo.bandwidth_mbps(p, serve_pool)))
            .collect()
    }

    /// What the priority policy sees at `t`. Only a policy that reads
    /// the queued runs' slack pays for the fold over them.
    fn view(&self, t: f64) -> QuotaView {
        let slack = |&tid: &usize| self.tenants[tid].deadline_abs_s - t;
        let ready_train_slack_s = (self.policy.reads_train_slack())
            .then(|| self.trains.ready().iter().map(slack).reduce(f64::min))
            .flatten();
        QuotaView {
            now_s: t,
            in_use: self.trains.in_use(),
            limit: self.trains.limit(),
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
        if self.take_serve_worker(pool) {
            return true;
        }
        self.victims.clear();
        let trains = &self.trains;
        self.victims
            .extend(self.tenants.iter().enumerate().filter_map(|(i, st)| {
                let wave = trains.in_flight(i)?;
                // A run's last in-flight epoch is excluded: its run is
                // done whatever the rollback, and would be launched again.
                let last = trains.exec(i)?.is_done();
                (trains.pool(i) == pool && !last).then_some(VictimView {
                    tenant: i as u32,
                    workers: wave.workers,
                    slack_s: st.deadline_abs_s - t,
                })
            }));
        if self.victims.is_empty() {
            return false;
        }
        let Some(vi) = self.policy.preempt_victim(&self.victims, &self.view(t)) else {
            return false;
        };
        self.preempt(self.victims[vi].tenant as usize, t, events);
        self.take_serve_worker(pool)
    }

    /// Kills `tenant`'s in-flight epoch (see [`TrainQueue::rollback`]);
    /// a `TrainResume` fires once the stall elapses.
    fn preempt(&mut self, tenant: usize, t: f64, events: &mut EventQueue<Ev>) {
        let kill = self.trains.rollback(tenant, t);
        self.train_held -= kill.wave.workers;
        let st = &mut self.tenants[tenant];
        st.tally.preemptions += 1;
        self.obs.counter("lifecycle.preemptions").inc();
        self.obs.event(
            t,
            "lifecycle.preemption",
            &[
                ("tenant", json!(st.spec.id)),
                ("workers", json!(kill.wave.workers)),
                ("at_fraction", json!(kill.at_fraction)),
                ("stall_s", json!(kill.stall_s)),
            ],
        );
        let (at, tenant) = (SimTime::from_secs(t + kill.stall_s), tenant as u32);
        events.schedule_at(at, Ev::TrainResume { tenant });
    }

    /// Starts `tenant`'s next training run (the initial job or a drift
    /// retrain): places it on a pool, caps its allocation grid at that
    /// pool's ceiling, and queues it.
    fn start_training_run(&mut self, tenant: usize, t: f64) {
        let serve_pool = self.tenants[tenant].serve_pool;
        let mut pool = serve_pool;
        if self.trains.multi_pool() {
            let views = self.train_views(serve_pool);
            let req = PlacementRequest {
                compute_s: self.tenants[tenant].spec.deadline_span_s,
                transfer_mb: self.tenants[tenant].spec.workload.model.model_mb,
                cold_ms: 0.0,
            };
            pool = self
                .placement
                .place(&views, &req, &mut self.topo_rng)
                .min(views.len() - 1);
            self.train_runs_by_pool[pool] += 1;
        }
        let cap = self.spec.job_cap.min(self.trains.quota(pool).limit());
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
            .with_checkpoint_every(self.spec.checkpoint_every)
            .with_obs(&self.obs);
            job.env = self.spec.env.clone();
            (job, t + st.spec.deadline_span_s)
        };
        match TrainingExecution::start(job, Method::CeScaling) {
            Ok(exec) => {
                self.tenants[tenant].deadline_abs_s = deadline_abs_s;
                self.trains.start(&FifoOrder, tenant, pool, exec, t);
            }
            Err(_) => self.fail_train(tenant, t, 0.0),
        }
    }

    /// Marks `tenant`'s current run failed. What it billed before
    /// failing (`cost_usd`, already scaled by its pool's price class)
    /// still counts, and a failed run is a deadline miss.
    fn fail_train(&mut self, tenant: usize, t: f64, cost_usd: f64) {
        let obs = self.obs.clone();
        let st = &mut self.tenants[tenant];
        st.tally.jobs_failed += 1;
        st.tally.deadline_misses += 1;
        st.tally.train_dollars += cost_usd;
        obs.counter("lifecycle.train_failed").inc();
        obs.event(
            t,
            "lifecycle.train_failed",
            &[("tenant", json!(st.spec.id)), ("run", json!(st.runs - 1))],
        );
    }

    /// Launches queued epochs in FIFO order until one stalls on the quota
    /// (see [`TrainQueue::next`]). Training pays no storage contention
    /// here: only a degrade window stretches an epoch.
    fn dispatch_trains(&mut self, t: f64, events: &mut EventQueue<Ev>) {
        while let Some((run, next)) = self.trains.next(&FifoOrder, t, |_| 1.0) {
            match next {
                Dispatch::QuotaStall => {
                    self.quota_stalls += 1;
                    return;
                }
                Dispatch::Resume(stall) => {
                    if let Stall::WorkerLoss { .. } = stall {
                        self.obs.counter("lifecycle.chaos_worker_losses").inc();
                    }
                    self.obs.counter("lifecycle.chaos_stalls").inc();
                    let (at, tenant) = (SimTime::from_secs(stall.resume_s(t)), run as u32);
                    events.schedule_at(at, Ev::TrainResume { tenant });
                }
                Dispatch::Failed { usd, dequeue } => {
                    let cold = dequeue.is_some_and(|d| d.cold_resumed);
                    self.tenants[run].tally.cold_resumes += u64::from(cold);
                    self.fail_train(run, t, usd);
                }
                Dispatch::Land { attempt, wave } => {
                    let tally = &mut self.tenants[run].tally;
                    tally.cold_resumes += u64::from(wave.dequeue.cold_resumed);
                    tally.epochs += 1;
                    let obs = &self.obs;
                    if wave.degrade > 1.0 {
                        let name = "lifecycle.chaos_degraded_epochs";
                        obs.inc_held(&mut self.degraded_counter, name);
                    }
                    self.train_held += wave.workers;
                    obs.inc_held(&mut self.epochs_counter, "lifecycle.epochs");
                    // The stretched wall first, as this fleet always has:
                    // the landing instant keeps its bits.
                    let at = SimTime::from_secs(t + (wave.wall_s + wave.stretch_s));
                    let tenant = run as u32;
                    events.schedule_at(at, Ev::EpochDone { tenant, attempt });
                }
            }
        }
    }

    /// A finished run publishes its model: the snapshot transfer and
    /// request cost go on the training bill, and the `Redeploy` fires
    /// when the transfer lands. A run that trained off-pool from the
    /// replicas it redeploys additionally pays the link's transfer
    /// time and egress dollars.
    fn publish(&mut self, tenant: usize, t: f64, run: Finished, events: &mut EventQueue<Ev>) {
        let obs = self.obs.clone();
        let train_pool = self.trains.pool(tenant);
        let serve_pool = self.tenants[tenant].serve_pool;
        let st = &mut self.tenants[tenant];
        st.tally.jobs_completed += 1;
        st.tally.train_dollars += run.usd;
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
            .or_else(|| self.spec.env.storage.get(run.storage))
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
        st.publishing = true;
        let version = st.version + 1;
        obs.counter("lifecycle.train_completed").inc();
        obs.event(
            t,
            "lifecycle.train_done",
            &[
                ("tenant", json!(st.spec.id)),
                ("version", json!(version)),
                ("epochs", json!(run.report.epochs)),
                ("cost_usd", json!(run.report.cost_usd)),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::{all_priorities, priority_by_name, DeadlineAware};
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

    /// `clause` (with `{}` for the service) on every storage service.
    fn every_service(clause: &str) -> FaultSchedule {
        let clauses = StorageKind::ALL.map(|k| clause.replace("{}", k.token()));
        FaultSchedule::parse(&clauses.join(";")).expect("valid schedule")
    }

    /// Three tenants of narrow waves on a 16-worker quota.
    fn storm_spec(duration_s: f64) -> LifecycleSpec {
        LifecycleSpec::new(3, duration_s, 42)
            .with_quota(16)
            .with_job_cap(4)
            .with_rps(4.0)
    }

    #[test]
    fn the_wave_that_finishes_a_run_is_never_preempted() {
        // Eight tenants over 1,800 s take runs to the 600-epoch cap while
        // requests preempt training. A rollback of the capping wave
        // leaves its run done, so its resume would step a finished
        // execution; that wave must not be a victim.
        for policy in all_priorities() {
            let name = policy.name();
            let r =
                LifecycleSim::new(LifecycleSpec::new(8, 1800.0, 42).with_rps(6.0), policy).run();
            assert!(r.requests() > 0, "{name}: no traffic");
        }
    }

    #[test]
    fn an_outage_past_the_keep_alive_resumes_training_cold() {
        // The stall keeps the queue clock running, so waiting out a
        // 700 s outage expires the run's warm pool.
        let chaos = every_service("outage:{}@0..700");
        let (r, _) = run_with(storm_spec(1200.0).with_chaos(chaos), "serve-first");
        let cold: u64 = r.tenants.iter().map(|t| t.cold_resumes).sum();
        assert!(cold > 0, "no cold resume after a 700 s outage");
    }

    #[test]
    fn a_degrade_window_stretches_and_bills_training_epochs() {
        let (clean, _) = run_with(storm_spec(600.0), "serve-first");
        let chaos = every_service("degrade:{}:x4@0..inf");
        let (degraded, metrics) = run_with(storm_spec(600.0).with_chaos(chaos), "serve-first");
        assert!(
            degraded.train_dollars() > clean.train_dollars(),
            "{} vs clean {}",
            degraded.train_dollars(),
            clean.train_dollars()
        );
        assert!(metrics.contains("lifecycle.chaos_degraded_epochs"));
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
    #[should_panic(expected = "at least 1 tenant")]
    fn a_fleet_without_tenants_is_refused() {
        LifecycleSim::new(
            LifecycleSpec::new(0, 100.0, 1),
            priority_by_name("serve-first").expect("known"),
        );
    }

    /// Forwards only what a policy must implement, leaving every other
    /// method at its trait default.
    struct Forwarding(Box<dyn PriorityPolicy>);

    impl PriorityPolicy for Forwarding {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn preempt_victim(&self, victims: &[VictimView], view: &QuotaView) -> Option<usize> {
            self.0.preempt_victim(victims, view)
        }

        fn serve_drains_first(&self, view: &QuotaView) -> bool {
            self.0.serve_drains_first(view)
        }
    }

    #[test]
    fn a_wrapper_on_the_trait_defaults_runs_the_same_fleet() {
        // The built-in policies, and a deadline policy for which every
        // queued run is urgent, so its drain order turns on the slack.
        let policies = || {
            let mut all = all_priorities();
            all.push(Box::new(DeadlineAware {
                min_slack_s: f64::INFINITY,
            }));
            all
        };
        let run = |policy: Box<dyn PriorityPolicy>| {
            let registry = Registry::new();
            let r = LifecycleSim::new(tight_spec(42), policy)
                .with_obs(&registry)
                .run();
            (r, registry.export_jsonl())
        };
        for (plain, wrapped) in policies().into_iter().zip(policies()) {
            let name = plain.name();
            assert_eq!(run(plain), run(Box::new(Forwarding(wrapped))), "{name}");
        }
    }
}
