//! The request engine shared by every request-level simulator.
//!
//! [`crate::ServeSim`] and `ce_lifecycle::LifecycleSim` both drive one
//! request pipeline: the arrival gate (retry-budget deposit, throttle
//! storm, circuit breaker), admission and outage parking, dispatch with
//! jittered cold starts and service times, mid-request crashes and
//! timeout kills, hedges, budgeted retries with backoff, the verdict and
//! its bill, the autoscaler tick, and the end-of-run settlement of
//! parked requests. That pipeline lives here, once.
//!
//! # Schedules and lanes
//!
//! The engine splits its state in two:
//!
//! * a [`Schedule`] is one open-loop arrival schedule and everything
//!   keyed by its request index: the per-request resilience state, the
//!   circuit breaker, the retry budget, and the verdict [`Tally`];
//! * a [`Lane`] is one place requests execute: its `InstancePool`, its
//!   autoscaler, its admission capacity, in-flight count, and queue, and
//!   its slice of the GB-second bill at its pool's price factor.
//!
//! Serving runs one schedule over N lanes (one per topology pool, each
//! request placed at arrival); the lifecycle fleet runs one schedule and
//! one pinned lane per tenant. Every request executes on one lane, and
//! every lane serves one schedule.
//!
//! # Capacity
//!
//! A lane's autoscaler bounds how many attempts it runs at once; a
//! [`Capacity`] provider decides whether a worker can be leased at all.
//! Serving leases from nobody (`Unbounded`). The lifecycle fleet leases
//! from its shared account quota, preempting a training epoch for a
//! dispatch or retry when its priority policy allows, and taking only
//! spare quota for a hedge.
//!
//! # Stream keys
//!
//! Every draw is keyed by request index (and attempt or retry number),
//! so no draw depends on event order. The per-schedule [`StreamKeys`]
//! name the parents those keys fork from, which differ between the
//! simulators and are pinned by their golden fixtures:
//!
//! | draw                 | serve                         | lifecycle (tenant `t`)                          |
//! |----------------------|-------------------------------|-------------------------------------------------|
//! | attempt jitter       | `rng` · `"request"/i`         | `rng` · `"tenant-serve"/t` · `"request"/i`      |
//! | crash and throttle   | `chaos`                       | `chaos` · `"tenant"/t`                          |
//! | retry backoff        | `rng` · `"backoff"/i`         | `rng` · `"tenant-backoff"/t` · `"request"/i`    |
//! | breaker event, gauge | untagged                      | tagged with the tenant id                       |
//!
//! Attempt `k >= 1` forks the attempt-0 jitter and crash streams again by
//! `"attempt"/k`; retry `k` forks the backoff stream by `"retry"/k`. A
//! crash draw adds `"request-crash"/i`, a throttle draw
//! `"request-throttle"/i`. An attempt's jitter is drawn only for the path
//! it takes, cold or warm, once the pool has answered; the warm service
//! jitter shares the stream's first normal with the cold-start jitter.
//! Cold-start and service times multiply by the schedule's model factors
//! in a fixed order; serving passes exactly `1.0`, and `x * 1.0 == x`
//! keeps its bits.
//!
//! # Metrics
//!
//! The engine only writes to its registry, and touches its histograms
//! there only twice: [`Engine::start`] registers them, and
//! [`Engine::flush_verdicts`] publishes them once per run. In between,
//! the engine observes into its own [`LocalHistogram`]s, without a lock:
//! `{prefix}.latency_ms`, `{prefix}.queue_wait_ms`,
//! `{prefix}.cold_start_ms` and `resilience.attempts`. The end-to-end
//! latency distribution that the P95 hedge delay and the report's
//! quantiles read is the engine's own, so a run's outcome never depends
//! on what else wrote to a shared registry, and the P95 hedge read
//! before every primary attempt is an amortized O(1) step of its rank
//! cursor.

use crate::autoscale::{Autoscaler, LoadObservation, ScaleDecision};
use crate::sim::ServeSpec;
use ce_chaos::{ActiveFaults, CompiledSchedule};
use ce_faas::{FunctionId, InstancePool, ReapedInstance};
use ce_obs::{LocalHistogram, Registry};
use ce_resilience::{
    AttemptOutcome, BreakerState, CircuitBreaker, HedgePolicy, ResilienceSpec, RetryBudget,
};
use ce_sim_core::event::EventQueue;
use ce_sim_core::rng::SimRng;
use ce_sim_core::time::SimTime;
use ce_topo::NodePool;
use serde_json::json;
use std::collections::VecDeque;

/// The stream `attempt` forks from `base`: attempt `k >= 1` of a
/// request, or a numbered dispatch attempt of a training wave.
pub fn fork_attempt(base: &SimRng, attempt: u64) -> SimRng {
    base.derive_idx("attempt", attempt)
}

/// The parents of a schedule's random draws (see the module docs).
#[derive(Debug, Clone)]
pub struct StreamKeys {
    /// Parent of the per-request jitter streams.
    pub jitter: SimRng,
    /// Parent of the per-request crash and throttle draws; `None`
    /// without a fault schedule.
    pub chaos: Option<SimRng>,
    /// Parent of the per-request backoff streams.
    pub backoff: SimRng,
    /// Label `backoff` forks each request's stream by.
    pub backoff_label: &'static str,
    /// Tenant id tagged on breaker events and gauges.
    pub tag: Option<u32>,
}

/// Request-level events. Simulators with events of their own wrap
/// these (`From<ReqEv>`); heap order is by time, FIFO on ties.
#[derive(Debug)]
pub enum ReqEv {
    /// Request `req` of schedule `sched` arrives.
    Arrival { sched: u32, req: u32 },
    /// A dispatched attempt resolves (response, crash, or timeout kill).
    Done(Attempt),
    /// The hedge delay of a request's primary attempt elapsed.
    HedgeFire { sched: u32, req: u32 },
    /// A request's retry backoff elapsed; relaunch it.
    Retry { sched: u32, req: u32 },
    /// Autoscaler control-loop tick.
    ScaleTick,
    /// A backing-store outage window ends; parked requests dispatch.
    OutageEnd,
}

/// One dispatched attempt, carried to its resolution.
#[derive(Debug)]
pub struct Attempt {
    sched: u32,
    req: u32,
    attempt: u32,
    fid: FunctionId,
    arrival: SimTime,
    busy_s: f64,
    outcome: AttemptOutcome,
}

/// The answer to a dispatch or retry lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lease {
    /// A worker is held until the attempt resolves.
    Granted,
    /// This lane waits; other lanes may still lease.
    Busy,
    /// No lane can lease; stop draining.
    Exhausted,
}

/// Who a lane leases workers from (see the module docs).
pub trait Capacity<E> {
    /// Leases a worker on `lane` for a dispatch or retry now
    /// (`q.now()`); a preemption may schedule events of its own.
    fn lease(&mut self, lane: usize, q: &mut EventQueue<E>) -> Lease;
    /// Leases a worker on `lane` for a hedge; hedges never preempt.
    fn lease_hedge(&mut self, lane: usize) -> bool;
    /// Returns the worker of a resolved attempt on `lane`.
    fn release(&mut self, lane: usize);
}

/// Capacity without a provider: every lease succeeds.
pub(crate) struct Unbounded;

impl<E> Capacity<E> for Unbounded {
    fn lease(&mut self, _lane: usize, _q: &mut EventQueue<E>) -> Lease {
        Lease::Granted
    }

    fn lease_hedge(&mut self, _lane: usize) -> bool {
        true
    }

    fn release(&mut self, _lane: usize) {}
}

/// A schedule's verdict and billing counters.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub completed: u64,
    pub failed: u64,
    pub timed_out: u64,
    pub shed_throttled: u64,
    pub shed_overload: u64,
    pub shed_outage: u64,
    pub shed_breaker: u64,
    pub truncated: u64,
    pub cold_starts: u64,
    pub warm_starts: u64,
    pub slo_violations: u64,
    pub attempts: u64,
    pub retries: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub degraded: u64,
    /// Attempts dispatched while the schedule was marked drifted.
    pub drifted_served: u64,
    pub busy_gb_s: f64,
    pub idle_gb_s: f64,
}

/// The counts the verdict partition is checked over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdicts {
    pub requests: u64,
    pub completed: u64,
    pub failed: u64,
    pub timed_out: u64,
    pub shed_throttled: u64,
    pub shed_overload: u64,
    pub shed_outage: u64,
    pub shed_breaker: u64,
    pub truncated: u64,
    pub cold_starts: u64,
    pub warm_starts: u64,
    pub attempts: u64,
}

impl Verdicts {
    /// Every request ends in exactly one verdict, and every attempt
    /// starts cold or warm.
    pub fn check(&self) -> Result<(), String> {
        let settled = self.completed
            + self.failed
            + self.timed_out
            + self.shed_throttled
            + self.shed_overload
            + self.shed_outage
            + self.shed_breaker
            + self.truncated;
        if settled != self.requests {
            return Err(format!(
                "verdicts partition {settled} of {} arrivals: {self:?}",
                self.requests
            ));
        }
        if self.cold_starts + self.warm_starts != self.attempts {
            return Err(format!(
                "{} cold + {} warm starts for {} attempts: {self:?}",
                self.cold_starts, self.warm_starts, self.attempts
            ));
        }
        Ok(())
    }
}

/// The jitter of one attempt, drawn once the pool has said whether it
/// starts cold: `(cold-start multiplier, service multiplier)`, the first
/// `None` on a warm start.
///
/// Both paths start from the first normal `z` of the attempt's own
/// stream. A warm start's service jitter is `exp(σ_service · z)`; a cold
/// start's cold-start jitter is `exp(σ_cold · z)`, and its service jitter
/// takes the stream's next normal. The stream is a pure function of
/// (request, attempt), so the draw is the same whenever it happens.
fn path_jitter(
    mut stream: SimRng,
    cold: bool,
    cold_sigma: f64,
    service_sigma: f64,
) -> (Option<f64>, f64) {
    let z = stream.normal();
    if cold {
        let cold_jitter = (cold_sigma * z).exp();
        (Some(cold_jitter), stream.lognormal_jitter(service_sigma))
    } else {
        (None, (service_sigma * z).exp())
    }
}

/// Live resilience state of one request, allocated only when the spec
/// enables any mechanism (index = request index).
#[derive(Clone, Copy, Debug, Default)]
struct ReqState {
    /// Attempts launched so far (attempt indices 0..attempts).
    attempts: u32,
    /// Retries among those attempts (bounded by the policy).
    retries: u32,
    /// Attempts currently in flight.
    outstanding: u32,
    /// The request already has a verdict; later completions are losers.
    settled: bool,
    /// A hedge attempt was launched (at most one per request).
    hedged: bool,
    /// Attempt index of the hedge, when one launched.
    hedge_attempt: Option<u32>,
    /// This request is the circuit breaker's half-open probe.
    probe: bool,
    /// The most recent failure was a timeout (types the final verdict).
    timed_out_last: bool,
}

/// One arrival schedule and its per-request state.
pub struct Schedule {
    /// Arrival instants (seconds, ascending).
    pub arrivals: Vec<f64>,
    /// Requests arrived so far.
    arrived: usize,
    /// The schedule's verdict and billing counters.
    pub tally: Tally,
    /// Multiplier on service time (the deployed model's profile).
    pub service_factor: f64,
    /// Multiplier on cold-start latency (the deployed model's image).
    pub cold_factor: f64,
    /// Attempts dispatched while set count as `drifted_served`.
    pub drifted: bool,
    keys: StreamKeys,
    /// The lane of every request when `lane_of` is empty.
    home_lane: usize,
    /// Lane per request, written by placement at arrival.
    lane_of: Vec<u8>,
    rstate: Vec<ReqState>,
    breaker: Option<CircuitBreaker>,
    budget: Option<RetryBudget>,
}

impl Schedule {
    /// A schedule whose every request runs on `home_lane`, or, with
    /// `placed`, on the lane its simulator places it on at arrival.
    pub fn new(
        arrivals: Vec<f64>,
        keys: StreamKeys,
        home_lane: usize,
        placed: bool,
        resilience: &ResilienceSpec,
    ) -> Self {
        Schedule {
            lane_of: if placed {
                vec![0; arrivals.len()]
            } else {
                Vec::new()
            },
            arrivals,
            arrived: 0,
            tally: Tally::default(),
            service_factor: 1.0,
            cold_factor: 1.0,
            drifted: false,
            keys,
            home_lane,
            rstate: Vec::new(),
            breaker: resilience.breaker.map(CircuitBreaker::new),
            budget: resilience.budget(),
        }
    }
}

/// One place requests execute: an instance pool behind its own
/// autoscaler, admission queue, and slice of the bill.
pub struct Lane {
    /// The pool class: factors, RTT, price, and (when set) a quota
    /// clamping the lane's capacity and warm target.
    pub(crate) node: NodePool,
    pub(crate) pool: InstancePool,
    pub(crate) autoscaler: Box<dyn Autoscaler>,
    pub(crate) capacity: u32,
    pub(crate) inflight: u32,
    pub(crate) queue: VecDeque<(u32, SimTime)>,
    pub(crate) arrivals_since_tick: u32,
    /// Requests placed on this lane.
    pub(crate) requests: u64,
    pub(crate) cold_starts: u64,
    /// Instances pre-warmed by the autoscaler.
    pub(crate) prewarmed: u64,
    pub(crate) busy_gb_s: f64,
    pub(crate) idle_gb_s: f64,
    /// The schedule this lane serves.
    sched: usize,
}

impl Lane {
    /// An idle lane serving schedule `sched`.
    pub fn new(
        node: NodePool,
        pool: InstancePool,
        autoscaler: Box<dyn Autoscaler>,
        sched: usize,
    ) -> Self {
        Lane {
            node,
            pool,
            autoscaler,
            capacity: 1,
            inflight: 0,
            queue: VecDeque::new(),
            arrivals_since_tick: 0,
            requests: 0,
            cold_starts: 0,
            prewarmed: 0,
            busy_gb_s: 0.0,
            idle_gb_s: 0.0,
            sched,
        }
    }
}

/// Why an offered request could not be dispatched or queued.
enum Refusal {
    /// The lane's queue is full.
    Full,
    /// An outage outlasts the run.
    Unservable,
}

/// The shared request engine (see the module docs). It owns the event
/// heap; a simulator with events of its own wraps [`ReqEv`] in `E`.
pub struct Engine<E> {
    /// The pipeline parameters: service and cold-start profile, memory,
    /// SLO, admission queue, scale tick, pricing, backing store, and
    /// resilience. Arrivals, chaos, and topology are the simulators'.
    pub spec: ServeSpec,
    pub obs: Registry,
    pub schedules: Vec<Schedule>,
    pub(crate) lanes: Vec<Lane>,
    pub events: EventQueue<E>,
    chaos: Option<CompiledSchedule>,
    outage_end_pending: bool,
    /// The run's end-to-end latency distribution (see "Metrics").
    latency: LocalHistogram,
    queue_wait_h: Option<LocalHistogram>,
    cold_start_h: Option<LocalHistogram>,
    attempts_h: Option<LocalHistogram>,
}

impl<E: From<ReqEv>> Engine<E> {
    /// An engine over `schedules` and `lanes` under one fault timeline.
    pub fn new(
        spec: ServeSpec,
        chaos: Option<CompiledSchedule>,
        schedules: Vec<Schedule>,
        lanes: Vec<Lane>,
    ) -> Self {
        Engine {
            spec,
            obs: Registry::new(),
            schedules,
            lanes,
            events: EventQueue::with_capacity(1024),
            chaos,
            outage_end_pending: false,
            latency: LocalHistogram::with_quantiles(),
            queue_wait_h: None,
            cold_start_h: None,
            attempts_h: None,
        }
    }

    /// Readies a run: registers the `{prefix}.latency_ms` and
    /// `{prefix}.queue_wait_ms` histograms (plus `{prefix}.cold_start_ms`
    /// with `cold_starts`), allocates resilience state when enabled, and
    /// applies every lane autoscaler's initial decision.
    pub fn start(&mut self, prefix: &str, cold_starts: bool) {
        // Registered now, so a run without observations still exports
        // them; `flush_verdicts` fills them from the engine's own.
        let open = |name: &str| {
            self.obs.histogram(name).enable_quantiles();
            Some(LocalHistogram::with_quantiles())
        };
        open(&format!("{prefix}.latency_ms"));
        self.queue_wait_h = open(&format!("{prefix}.queue_wait_ms"));
        if cold_starts {
            self.cold_start_h = open(&format!("{prefix}.cold_start_ms"));
        }
        if self.spec.resilience.enabled() {
            for s in &mut self.schedules {
                s.rstate = vec![ReqState::default(); s.arrivals.len()];
            }
            self.attempts_h = open("resilience.attempts");
        }
        for li in 0..self.lanes.len() {
            let init = self.lanes[li].autoscaler.initial();
            self.apply_decision(li, init);
        }
    }

    /// Schedules the first arrival of schedule `sched`, if any.
    pub fn schedule_first_arrival(&mut self, sched: usize) {
        if let Some(&first) = self.schedules[sched].arrivals.first() {
            let sched = sched as u32;
            let ev = ReqEv::Arrival { sched, req: 0 };
            self.events
                .schedule_at(SimTime::from_secs(first), ev.into());
        }
    }

    /// GB factor of one instance (memory in GiB).
    fn gb(&self) -> f64 {
        f64::from(self.spec.memory_mb) / 1024.0
    }

    /// The fault environment now (quiet when no schedule is attached).
    fn active_faults(&self) -> ActiveFaults {
        match &self.chaos {
            None => ActiveFaults::quiet(),
            Some(c) => c.active_at(self.events.now().as_secs()),
        }
    }

    /// When a backing-store outage in force now ends, if one is.
    fn outage_until(&self) -> Option<f64> {
        self.active_faults().outage_until(self.spec.backing)
    }

    /// The lane request `req` of schedule `sched` runs on.
    fn lane_of(&self, sched: usize, req: u32) -> usize {
        let s = &self.schedules[sched];
        if s.lane_of.is_empty() {
            s.home_lane
        } else {
            s.lane_of[req as usize] as usize
        }
    }

    /// Records the placement of an admitted request on `lane`.
    pub(crate) fn place(&mut self, sched: usize, req: u32, lane: usize) {
        self.schedules[sched].lane_of[req as usize] = lane as u8;
        self.lanes[lane].requests += 1;
        self.lanes[lane].arrivals_since_tick += 1;
    }

    /// Bills instances that left `lane` warm-idle for their keep-warm
    /// GB-seconds.
    fn bill_idle(&mut self, lane: usize, gone: Vec<ReapedInstance>) {
        let gb = self.gb();
        let l = &mut self.lanes[lane];
        let tally = &mut self.schedules[l.sched].tally;
        for r in gone {
            let idle = r.warm_idle_s() * gb;
            l.idle_gb_s += idle;
            tally.idle_gb_s += idle;
        }
    }

    /// Reaps idle-expired instances of `lane` now.
    fn reap_lane(&mut self, lane: usize) {
        let reaped = self.lanes[lane].pool.reap_detailed(self.events.now());
        self.bill_idle(lane, reaped);
    }

    /// Reaps every lane serving schedule `sched` now.
    pub(crate) fn reap_schedule(&mut self, sched: usize) {
        for li in 0..self.lanes.len() {
            if self.lanes[li].sched == sched {
                self.reap_lane(li);
            }
        }
    }

    /// Evicts every idle instance of `lane` now (a new model version
    /// went live), billing each as warm until `min(expiry, now)`.
    pub fn flush_lane(&mut self, lane: usize) {
        let flushed = self.lanes[lane].pool.flush_idle(self.events.now());
        self.bill_idle(lane, flushed);
    }

    /// Expires every lane's remaining idle instances at the horizon.
    pub fn drain_pools(&mut self, horizon: SimTime) {
        for li in 0..self.lanes.len() {
            let drained = self.lanes[li].pool.drain_remaining(horizon);
            self.bill_idle(li, drained);
        }
    }

    /// Applies a scale decision to `lane`: clamps capacity (and, under a
    /// lane quota, the warm target too) and pre-warms any provisioning
    /// deficit (surplus drains via keep-alive expiry).
    fn apply_decision(&mut self, lane: usize, d: ScaleDecision) {
        let (memory_mb, now) = (self.spec.memory_mb, self.events.now());
        let l = &mut self.lanes[lane];
        let mut capacity = d.capacity.max(1);
        let mut warm_target = d.warm_target;
        if let Some(quota) = l.node.quota {
            capacity = capacity.min(quota.max(1));
            warm_target = warm_target.min(quota);
        }
        l.capacity = capacity;
        let provisioned = l.inflight + l.pool.warm_count(memory_mb, now);
        if warm_target > provisioned {
            let n = warm_target - provisioned;
            l.pool.prewarm(n, memory_mb, now);
            l.prewarmed += u64::from(n);
        }
    }

    /// One autoscaler tick: every lane, in index order, is reaped,
    /// observed, planned, and re-provisioned.
    pub fn scale_tick(&mut self) {
        let now = self.events.now();
        for li in 0..self.lanes.len() {
            self.reap_lane(li);
            let l = &self.lanes[li];
            let load = LoadObservation {
                now_s: now.as_secs(),
                tick_s: self.spec.scale_tick_s,
                inflight: l.inflight,
                queued: l.queue.len() as u32,
                warm_idle: l.pool.warm_count(self.spec.memory_mb, now),
                arrivals_in_tick: l.arrivals_since_tick,
                mean_service_s: self.spec.service_s
                    * self.schedules[l.sched].service_factor
                    * l.node.compute_factor,
            };
            let l = &mut self.lanes[li];
            l.arrivals_since_tick = 0;
            let decision = l.autoscaler.plan(&load);
            self.apply_decision(li, decision);
        }
    }

    /// Whether arrivals, attempts, or parked requests remain.
    pub fn work_remains(&self) -> bool {
        self.schedules.iter().any(|s| s.arrived < s.arrivals.len())
            || self
                .lanes
                .iter()
                .any(|l| l.inflight > 0 || !l.queue.is_empty())
    }

    /// Schedules one `OutageEnd` for the window ending at `resumes_at_s`
    /// unless one is already pending.
    fn await_outage_end(&mut self, resumes_at_s: f64) {
        if !self.outage_end_pending {
            let at = SimTime::from_secs(resumes_at_s);
            self.events.schedule_at(at, ReqEv::OutageEnd.into());
            self.outage_end_pending = true;
        }
    }

    /// Marks the pending `OutageEnd` as delivered.
    pub fn outage_ended(&mut self) {
        self.outage_end_pending = false;
    }

    /// The jitter stream of attempt `attempt` of a request: attempt 0
    /// draws from the request's stream, later attempts from a fork of it
    /// per attempt.
    fn jitter_stream(&self, sched: usize, req: u32, attempt: u32) -> SimRng {
        let request = self.schedules[sched]
            .keys
            .jitter
            .derive_idx("request", u64::from(req));
        if attempt == 0 {
            request
        } else {
            fork_attempt(&request, u64::from(attempt))
        }
    }

    /// Seconds after a primary dispatch at which its hedge launches:
    /// the live p95 of completed end-to-end latency (the SLO before any
    /// completions exist), or the fixed configured delay.
    fn hedge_delay_s(&mut self, policy: HedgePolicy) -> f64 {
        match policy {
            HedgePolicy::FixedMs(ms) => ms / 1e3,
            HedgePolicy::P95 => {
                self.latency
                    .quantile(0.95)
                    .unwrap_or(self.spec.slo_ms)
                    .max(1e-3)
                    / 1e3
            }
        }
    }

    /// The breaker-state gauge of schedule `sched`, tagged with its
    /// tenant when it has one.
    fn breaker_gauge(&self, sched: usize) -> String {
        match self.schedules[sched].keys.tag {
            None => "resilience.breaker_state".to_string(),
            Some(tag) => format!("resilience.breaker_state.t{tag}"),
        }
    }

    /// Emits a breaker transition event and the state gauge.
    fn note_breaker_transition(&self, sched: usize, from: BreakerState, to: BreakerState) {
        let mut fields = vec![("from", json!(from.name())), ("to", json!(to.name()))];
        if let Some(tag) = self.schedules[sched].keys.tag {
            fields.insert(0, ("tenant", json!(tag)));
        }
        let now_s = self.events.now().as_secs();
        self.obs.event(now_s, "resilience.breaker", &fields);
        self.obs
            .gauge(&self.breaker_gauge(sched))
            .set(to.as_gauge());
    }

    /// Feeds one attempt outcome to the schedule's circuit breaker.
    fn feed_breaker(&mut self, sched: usize, ok: bool, probe: bool) {
        let now_s = self.events.now().as_secs();
        let tr = self.schedules[sched]
            .breaker
            .as_mut()
            .and_then(|br| br.on_outcome(ok, probe, now_s));
        if let Some(tr) = tr {
            self.note_breaker_transition(sched, tr.from, tr.to);
        }
    }

    /// Records a settled request's attempt count.
    fn observe_attempts(&mut self, attempts: u32) {
        if let Some(h) = &mut self.attempts_h {
            h.observe(f64::from(attempts));
        }
    }

    /// Handles the arrival of request `req`: reaps the schedule's lanes,
    /// schedules the next arrival, and runs the arrival gate. Returns
    /// whether the request passed the gate and awaits [`Engine::admit`].
    pub fn arrive(&mut self, sched: usize, req: u32) -> bool {
        self.reap_schedule(sched);
        let s = &mut self.schedules[sched];
        s.arrived += 1;
        // A pinned schedule counts every arrival (even one shed at the
        // gate) toward its lane's tick; placed requests count on the
        // lane they are placed on.
        if s.lane_of.is_empty() {
            self.lanes[s.home_lane].arrivals_since_tick += 1;
        }
        if let Some(&next) = s.arrivals.get(req as usize + 1) {
            let ev = ReqEv::Arrival {
                sched: sched as u32,
                req: req + 1,
            };
            self.events.schedule_at(SimTime::from_secs(next), ev.into());
        }
        self.gate(sched, req)
    }

    /// The arrival gate: deposits into the retry budget, sheds on an
    /// active throttle storm or an open circuit breaker (the first
    /// admission after the cooldown is the half-open probe).
    fn gate(&mut self, sched: usize, req: u32) -> bool {
        let now_s = self.events.now().as_secs();
        if let Some(b) = &mut self.schedules[sched].budget {
            b.deposit();
        }
        let active = self.active_faults();
        let s = &mut self.schedules[sched];
        if !active.is_quiet() && active.throttle_rate > 0.0 {
            let chaos = s.keys.chaos.as_ref().expect("non-quiet implies a schedule");
            let mut draw = chaos.derive_idx("request-throttle", u64::from(req));
            if draw.bernoulli(active.throttle_rate) {
                s.tally.shed_throttled += 1;
                return false;
            }
        }
        let gate = s.breaker.as_mut().map(|br| {
            let before = br.state();
            let admitted = br.allow(now_s);
            (before, br.state(), admitted)
        });
        if let Some((before, after, admitted)) = gate {
            if before != after {
                self.note_breaker_transition(sched, before, after);
            }
            let s = &mut self.schedules[sched];
            if !admitted {
                s.tally.shed_breaker += 1;
                return false;
            }
            if after == BreakerState::HalfOpen {
                s.rstate[req as usize].probe = true;
            }
        }
        true
    }

    /// Admits a request that passed the gate onto its lane: parks it
    /// behind a backing-store outage, dispatches it when `dispatch_now`
    /// and the lane has capacity, else queues it — or sheds it when the
    /// queue is full (`shed_overload`) or the outage outlasts the run
    /// (`shed_outage`).
    pub fn admit<C: Capacity<E>>(
        &mut self,
        sched: usize,
        req: u32,
        dispatch_now: bool,
        cap: &mut C,
    ) {
        let arrival = self.events.now();
        match self.offer(sched, req, arrival, dispatch_now, cap) {
            Ok(()) => {}
            Err(Refusal::Full) => self.schedules[sched].tally.shed_overload += 1,
            Err(Refusal::Unservable) => self.schedules[sched].tally.shed_outage += 1,
        }
    }

    /// Parks, dispatches, or queues a request on its lane (see
    /// [`Engine::admit`]); a lease is taken only to dispatch.
    fn offer<C: Capacity<E>>(
        &mut self,
        sched: usize,
        req: u32,
        arrival: SimTime,
        dispatch_now: bool,
        cap: &mut C,
    ) -> Result<(), Refusal> {
        let li = self.lane_of(sched, req);
        let now = self.events.now();
        let queue_cap = self.spec.queue_cap;
        if let Some(resumes_at_s) = self.outage_until() {
            if resumes_at_s > self.spec.duration_s.max(now.as_secs()) {
                return Err(Refusal::Unservable);
            }
            if self.lanes[li].queue.len() >= queue_cap {
                return Err(Refusal::Full);
            }
            self.lanes[li].queue.push_back((req, arrival));
            self.await_outage_end(resumes_at_s);
            return Ok(());
        }
        if dispatch_now
            && self.lanes[li].inflight < self.lanes[li].capacity
            && cap.lease(li, &mut self.events) == Lease::Granted
        {
            self.dispatch(sched, req, arrival);
        } else if self.lanes[li].queue.len() < queue_cap {
            self.lanes[li].queue.push_back((req, arrival));
        } else {
            return Err(Refusal::Full);
        }
        Ok(())
    }

    /// Starts the next attempt of a request executing now (its lease is
    /// already held) and schedules its resolution. Attempt 0 draws from
    /// the request's base jitter and crash streams; later attempts fork
    /// fresh ones.
    fn dispatch(&mut self, sched: usize, req: u32, arrival: SimTime) {
        let resilient = self.spec.resilience.enabled();
        let attempt = if resilient {
            self.schedules[sched].rstate[req as usize].attempts
        } else {
            0
        };
        let li = self.lane_of(sched, req);
        let now = self.events.now();
        let active = self.active_faults();
        let stream = self.jitter_stream(sched, req, attempt);
        let spec = &self.spec;
        let s = &mut self.schedules[sched];
        let l = &mut self.lanes[li];
        let (fid, cold) = l.pool.acquire_one(spec.memory_mb, now);
        let (cold_jit, service_jit) =
            path_jitter(stream, cold, spec.cold_start_jitter, spec.service_jitter);
        let cold_s = if let Some(cold_jit) = cold_jit {
            s.tally.cold_starts += 1;
            l.cold_starts += 1;
            let spike = active.cold_start_factor.max(1.0);
            let cold_s = spec.cold_start_s * s.cold_factor * l.node.cold_factor * spike * cold_jit;
            if let Some(h) = &mut self.cold_start_h {
                h.observe(cold_s * 1e3);
            }
            cold_s
        } else {
            s.tally.warm_starts += 1;
            0.0
        };
        if s.drifted {
            s.tally.drifted_served += 1;
        }
        let mut service_s = spec.service_s * s.service_factor * l.node.compute_factor * service_jit;
        // Brownout: above the queue-depth threshold this attempt serves
        // the degraded (cheaper, faster) profile instead of letting the
        // backlog overflow into sheds.
        if let Some(b) = &spec.resilience.brownout {
            if b.active(l.queue.len(), spec.queue_cap) {
                service_s *= b.degrade_factor;
                s.tally.degraded += 1;
            }
        }
        let mut busy_s = cold_s + service_s;
        let mut outcome = AttemptOutcome::Ok;
        // Mid-request crash: the instance dies at a uniform fraction of
        // its execution.
        if !active.is_quiet() && active.crash_rate > 0.0 {
            let chaos = s.keys.chaos.as_ref().expect("non-quiet implies a schedule");
            let base = chaos.derive_idx("request-crash", u64::from(req));
            let mut draw = if attempt == 0 {
                base
            } else {
                fork_attempt(&base, u64::from(attempt))
            };
            if draw.bernoulli(active.crash_rate) {
                outcome = AttemptOutcome::Crashed;
                busy_s *= draw.uniform();
            }
        }
        // Timeout: the attempt is killed at the deadline. A crash that
        // would land past the deadline never happens — the kill wins.
        if let Some(tmo_s) = spec.resilience.timeout_s() {
            if busy_s > tmo_s {
                busy_s = tmo_s;
                outcome = AttemptOutcome::TimedOut;
            }
        }
        if attempt == 0 {
            if let Some(h) = &mut self.queue_wait_h {
                h.observe((now - arrival) * 1e3);
            }
        }
        l.inflight += 1;
        s.tally.attempts += 1;
        let sched = sched as u32;
        if resilient {
            let st = &mut s.rstate[req as usize];
            st.attempts += 1;
            st.outstanding += 1;
            // Hedge the primary attempt: the hedge launches once, after
            // the hedge delay, unless the request settles first.
            if let Some(policy) = spec.resilience.hedge.filter(|_| attempt == 0) {
                let at = now + self.hedge_delay_s(policy);
                let ev = ReqEv::HedgeFire { sched, req };
                self.events.schedule_at(at, ev.into());
            }
        }
        let done = Attempt {
            sched,
            req,
            attempt,
            fid,
            arrival,
            busy_s,
            outcome,
        };
        self.events
            .schedule_at(now + busy_s, ReqEv::Done(done).into());
    }

    /// Dispatches parked requests, lanes in index order, while capacity,
    /// leases, and the fault timeline allow. A lane is reaped before its
    /// queue drains.
    pub fn drain<C: Capacity<E>>(&mut self, cap: &mut C) {
        if self.lanes.iter().all(|l| l.queue.is_empty()) {
            return;
        }
        let now = self.events.now();
        if let Some(resumes_at_s) = self.outage_until() {
            // Same rule as admission: an overlapping outage window that
            // outlasts the run can never serve the parked requests.
            if resumes_at_s > self.spec.duration_s.max(now.as_secs()) {
                for l in &mut self.lanes {
                    self.schedules[l.sched].tally.shed_outage += l.queue.len() as u64;
                    l.queue.clear();
                }
            } else {
                self.await_outage_end(resumes_at_s);
            }
            return;
        }
        for li in 0..self.lanes.len() {
            if self.lanes[li].queue.is_empty() {
                continue;
            }
            self.reap_lane(li);
            while self.lanes[li].inflight < self.lanes[li].capacity
                && !self.lanes[li].queue.is_empty()
            {
                match cap.lease(li, &mut self.events) {
                    Lease::Granted => {}
                    Lease::Busy => break,
                    Lease::Exhausted => return,
                }
                let l = &mut self.lanes[li];
                let (sched, (req, arrival)) = (l.sched, l.queue.pop_front().expect("non-empty"));
                self.dispatch(sched, req, arrival);
            }
        }
    }

    /// Resolves a finished attempt: returns its lease, bills its
    /// GB-seconds (and, for a crash, the dead instance's keep-warm time),
    /// and settles the request — or, under resilience, lets a sibling
    /// race on or schedules a budgeted retry.
    pub fn finish<C: Capacity<E>>(&mut self, a: Attempt, cap: &mut C) {
        let sched = a.sched as usize;
        self.reap_schedule(sched);
        let li = self.lane_of(sched, a.req);
        cap.release(li);
        let (gb, now) = (self.gb(), self.events.now());
        let s = &mut self.schedules[sched];
        let l = &mut self.lanes[li];
        l.inflight -= 1;
        let busy_gb = a.busy_s * gb;
        s.tally.busy_gb_s += busy_gb;
        l.busy_gb_s += busy_gb;
        if a.outcome == AttemptOutcome::Crashed {
            // The instance died mid-request: remove it and bill its
            // keep-warm time up to the crash.
            let inst = l.pool.retire(a.fid);
            let idle_s = ((now - inst.created_at) - inst.busy_s - a.busy_s).max(0.0);
            let idle_gb = idle_s * gb;
            s.tally.idle_gb_s += idle_gb;
            l.idle_gb_s += idle_gb;
        } else {
            // Ok and timeout-killed attempts hand back a warm instance.
            l.pool.release(a.fid, a.busy_s, now);
        }
        if self.spec.resilience.enabled() {
            self.resolve_attempt(a);
        } else if a.outcome == AttemptOutcome::Crashed {
            // One attempt per request: its outcome is the verdict.
            self.schedules[sched].tally.failed += 1;
        } else {
            self.complete(sched, li, a.arrival);
        }
    }

    /// Counts a completion and its end-to-end latency; the lane's RTT
    /// rides on the observed latency (`+ 0.0` on a neutral pool).
    fn complete(&mut self, sched: usize, lane: usize, arrival: SimTime) {
        let tally = &mut self.schedules[sched].tally;
        tally.completed += 1;
        let latency_ms = (self.events.now() - arrival) * 1e3 + self.lanes[lane].node.rtt_ms;
        self.latency.observe(latency_ms);
        if latency_ms > self.spec.slo_ms {
            tally.slo_violations += 1;
        }
    }

    /// Resolves an attempt under resilience: settles the request, lets a
    /// sibling attempt race on, or schedules a budgeted retry.
    fn resolve_attempt(&mut self, a: Attempt) {
        let (sched, req) = (a.sched as usize, a.req as usize);
        let probe = self.schedules[sched].rstate[req].probe;
        self.feed_breaker(sched, a.outcome.is_ok(), probe);
        let s = &mut self.schedules[sched];
        s.rstate[req].outstanding -= 1;
        if a.outcome.is_ok() {
            let st = s.rstate[req];
            if st.settled {
                return; // a hedge loser finishing after the winner
            }
            s.rstate[req].settled = true;
            if st.hedge_attempt == Some(a.attempt) {
                s.tally.hedge_wins += 1;
            }
            let li = self.lane_of(sched, a.req);
            self.complete(sched, li, a.arrival);
            self.observe_attempts(st.attempts);
            return;
        }
        s.rstate[req].timed_out_last = a.outcome == AttemptOutcome::TimedOut;
        let st = s.rstate[req];
        if st.settled || st.outstanding > 0 {
            return; // a sibling attempt may still save the request
        }
        // Retry when the policy has attempts left and the schedule's
        // token-bucket budget funds one; otherwise the failure stands.
        let policy = self.spec.resilience.retry;
        let funded = policy
            .filter(|p| st.retries < p.max_retries)
            .filter(|_| s.budget.as_mut().is_none_or(RetryBudget::try_withdraw));
        let Some(policy) = funded else {
            self.settle_exhausted(sched, a.req);
            return;
        };
        let retry_no = st.retries + 1;
        s.rstate[req].retries = retry_no;
        s.tally.retries += 1;
        // Backoff jitter on a stream forked per (request, retry):
        // independent of event order and of every base stream.
        let mut jrng = s
            .keys
            .backoff
            .derive_idx(s.keys.backoff_label, u64::from(a.req))
            .derive_idx("retry", u64::from(retry_no));
        let backoff_s = policy.backoff_ms(retry_no, jrng.uniform_range(0.5, 1.5)) / 1e3;
        let ev = ReqEv::Retry {
            sched: a.sched,
            req: a.req,
        };
        let at = self.events.now() + backoff_s;
        self.events.schedule_at(at, ev.into());
    }

    /// Settles a request with its last failure mode as the verdict.
    fn settle_exhausted(&mut self, sched: usize, req: u32) {
        let s = &mut self.schedules[sched];
        let st = s.rstate[req as usize];
        s.rstate[req as usize].settled = true;
        if st.timed_out_last {
            s.tally.timed_out += 1;
        } else {
            s.tally.failed += 1;
        }
        self.observe_attempts(st.attempts);
    }

    /// Launches the hedge attempt of a request if the primary is still
    /// outstanding, the backing store is up, and a hedge lease is
    /// granted. Hedges are duplicates, not admissions: they bypass the
    /// lane's capacity, and their compute is billed like any attempt.
    pub fn hedge_fire<C: Capacity<E>>(&mut self, sched: usize, req: u32, cap: &mut C) {
        self.reap_schedule(sched);
        let st = self.schedules[sched].rstate[req as usize];
        if st.settled || st.hedged || st.outstanding == 0 {
            return; // already decided, or a retry owns recovery now
        }
        if self.outage_until().is_some() {
            return; // the hedge could not read model state anyway
        }
        if !cap.lease_hedge(self.lane_of(sched, req)) {
            return;
        }
        let s = &mut self.schedules[sched];
        s.rstate[req as usize].hedged = true;
        s.rstate[req as usize].hedge_attempt = Some(st.attempts);
        s.tally.hedges += 1;
        let arrival = SimTime::from_secs(s.arrivals[req as usize]);
        self.dispatch(sched, req, arrival);
    }

    /// Relaunches a request after its backoff on the lane it was placed
    /// on: dispatch within capacity and lease, park behind an outage or
    /// a busy lane, or let the failure stand when the queue is full or
    /// the outage outlasts the run.
    pub fn launch_retry<C: Capacity<E>>(&mut self, sched: usize, req: u32, cap: &mut C) {
        self.reap_schedule(sched);
        let arrival = SimTime::from_secs(self.schedules[sched].arrivals[req as usize]);
        if self.offer(sched, req, arrival, true, cap).is_err() {
            self.settle_exhausted(sched, req);
        }
    }

    /// Classifies everything still parked when the event heap runs dry:
    /// `shed_outage` when a backing-store outage is in force at the
    /// final instant, `truncated` when the run merely ended.
    pub fn settle_parked(&mut self) {
        if self.lanes.iter().all(|l| l.queue.is_empty()) {
            return;
        }
        let outage = self.outage_until().is_some();
        for l in &mut self.lanes {
            let tally = &mut self.schedules[l.sched].tally;
            let parked = l.queue.len() as u64;
            if outage {
                tally.shed_outage += parked;
            } else {
                tally.truncated += parked;
            }
            l.queue.clear();
        }
    }

    /// Schedule `sched`'s bill: every attempt pays the invocation fee,
    /// and each lane's GB-seconds pay its pool's price factor (exactly
    /// 1.0 on a neutral pool, which keeps the sum's bits).
    pub fn dollars(&self, sched: usize) -> f64 {
        let spec = &self.spec;
        let lanes = || self.lanes.iter().filter(|l| l.sched == sched);
        let mut dollars = spec.per_invocation * self.schedules[sched].tally.attempts as f64;
        for l in lanes() {
            dollars += l.busy_gb_s * spec.per_gb_second * l.node.price_factor;
        }
        for l in lanes() {
            dollars += l.idle_gb_s * spec.keep_warm_per_gb_s * l.node.price_factor;
        }
        dollars
    }

    /// One lane's share of the GB-second bill.
    pub(crate) fn lane_dollars(&self, lane: usize) -> f64 {
        let l = &self.lanes[lane];
        l.busy_gb_s * self.spec.per_gb_second * l.node.price_factor
            + l.idle_gb_s * self.spec.keep_warm_per_gb_s * l.node.price_factor
    }

    /// Latency quantile `q` in milliseconds (0 before any completion).
    pub fn latency_quantile(&mut self, q: f64) -> f64 {
        self.latency.quantile(q).unwrap_or(0.0)
    }

    /// Emits the verdict metrics summed over every schedule:
    /// `{prefix}.requests` and each verdict and start counter, plus —
    /// whenever resilience is on, so resilient runs export a stable
    /// metric set — the `resilience.*` group and breaker gauges. Also
    /// publishes the engine's histograms to the names [`Engine::start`]
    /// registered; call it once per run.
    pub fn flush_verdicts(&self, prefix: &str) {
        let obs = &self.obs;
        let publish = |name: &str, h: Option<&LocalHistogram>| {
            if let Some(h) = h {
                obs.histogram(name).merge_local(h);
            }
        };
        publish(&format!("{prefix}.latency_ms"), Some(&self.latency));
        publish(
            &format!("{prefix}.queue_wait_ms"),
            self.queue_wait_h.as_ref(),
        );
        publish(
            &format!("{prefix}.cold_start_ms"),
            self.cold_start_h.as_ref(),
        );
        publish("resilience.attempts", self.attempts_h.as_ref());
        let sum =
            |f: fn(&Tally) -> u64| -> u64 { self.schedules.iter().map(|s| f(&s.tally)).sum() };
        let count = |name: &str, n: u64| obs.counter(&format!("{prefix}.{name}")).add(n);
        count(
            "requests",
            self.schedules.iter().map(|s| s.arrivals.len() as u64).sum(),
        );
        count("completed", sum(|t| t.completed));
        count("failed", sum(|t| t.failed));
        count("shed_throttled", sum(|t| t.shed_throttled));
        count("shed_overload", sum(|t| t.shed_overload));
        count("shed_outage", sum(|t| t.shed_outage));
        count("cold_starts", sum(|t| t.cold_starts));
        count("warm_starts", sum(|t| t.warm_starts));
        count("slo_violations", sum(|t| t.slo_violations));
        // Truncation can occur without resilience (it replaces the old
        // mislabelled shed_outage); emitted only when non-zero so
        // pre-resilience goldens keep their exact bytes.
        let truncated = sum(|t| t.truncated);
        if truncated > 0 {
            count("truncated", truncated);
        }
        if !self.spec.resilience.enabled() {
            return;
        }
        count("timed_out", sum(|t| t.timed_out));
        count("shed_breaker", sum(|t| t.shed_breaker));
        obs.counter("resilience.attempts_total")
            .add(sum(|t| t.attempts));
        obs.counter("resilience.retries").add(sum(|t| t.retries));
        obs.counter("resilience.hedges").add(sum(|t| t.hedges));
        obs.counter("resilience.hedge_wins")
            .add(sum(|t| t.hedge_wins));
        obs.counter("resilience.degraded").add(sum(|t| t.degraded));
        for (i, s) in self.schedules.iter().enumerate() {
            if let Some(br) = &s.breaker {
                obs.gauge(&self.breaker_gauge(i)).set(br.state().as_gauge());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference answer: every sequence an attempt might need, drawn
    /// up front. The cold path (cold-start jitter, then service jitter)
    /// and the warm path (service jitter first, on a fresh copy of the
    /// stream) each read the attempt's stream from its start.
    struct RequestJitter {
        cold: f64,
        service_cold: f64,
        service_warm: f64,
    }

    impl RequestJitter {
        fn draw(key: SimRng, cold_sigma: f64, service_sigma: f64) -> Self {
            let mut cold_path = key.clone();
            let cold = cold_path.lognormal_jitter(cold_sigma);
            let service_cold = cold_path.lognormal_jitter(service_sigma);
            let mut warm_path = key;
            let service_warm = warm_path.lognormal_jitter(service_sigma);
            RequestJitter {
                cold,
                service_cold,
                service_warm,
            }
        }
    }

    #[test]
    fn the_taken_path_draws_the_three_draw_jitter_bit_for_bit() {
        let spec = ServeSpec::new(crate::ArrivalModel::Poisson { rps: 1.0 }, 1.0, 0);
        let sigmas = [
            (spec.cold_start_jitter, spec.service_jitter),
            (0.0, 0.0),
            (0.0, 0.3),
            (0.7, 0.0),
            (1.5, 2.5),
        ];
        for seed in 0..8 {
            let parent = SimRng::new(seed).derive("serve");
            for req in 0..250 {
                let request = parent.derive_idx("request", req);
                for attempt in 0..4 {
                    let key = if attempt == 0 {
                        request.clone()
                    } else {
                        fork_attempt(&request, attempt)
                    };
                    for (cold_sigma, service_sigma) in sigmas {
                        let want = RequestJitter::draw(key.clone(), cold_sigma, service_sigma);
                        let ctx = format!(
                            "seed {seed} request {req} attempt {attempt} σ ({cold_sigma}, {service_sigma})"
                        );
                        let (cold, service) =
                            path_jitter(key.clone(), true, cold_sigma, service_sigma);
                        assert_eq!(cold.map(f64::to_bits), Some(want.cold.to_bits()), "{ctx}");
                        assert_eq!(service.to_bits(), want.service_cold.to_bits(), "{ctx}");
                        let (cold, service) =
                            path_jitter(key.clone(), false, cold_sigma, service_sigma);
                        assert_eq!(cold, None, "{ctx}");
                        assert_eq!(service.to_bits(), want.service_warm.to_bits(), "{ctx}");
                    }
                }
            }
        }
    }
}
