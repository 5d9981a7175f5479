//! The request-level serving simulator.
//!
//! A [`ServeSim`] drives the shared request engine ([`crate::engine`])
//! with one open-loop arrival schedule over one lane per topology pool.
//! Each request is placed on a pool, dispatched to a warm instance (or
//! cold-starts one), executes for a jittered service time, and
//! completes; the autoscaler runs on a fixed tick and adjusts admission
//! capacity and the pre-warmed pool; the keep-alive policy decides when
//! idle instances expire, and every GB-second — busy or idle — is
//! billed.
//!
//! # Determinism
//!
//! Same spec + same seed ⇒ byte-identical metrics. Three RNG streams,
//! all derived from the seed by label, make this hold under policy and
//! chaos toggles:
//!
//! * `"arrivals"` — the arrival schedule, drawn once up front;
//! * `"request"/i` — per-request jitter, keyed by request *index*, so a
//!   request's draws do not depend on when (or in which order) it was
//!   dispatched — this is what makes trace-replay of a run's own arrival
//!   log reproduce its metrics bit-for-bit;
//! * `"serve-chaos"` — fault compilation plus per-request fault draws
//!   (keyed `"request-throttle"/i`, `"request-crash"/i`), drawn only in
//!   non-quiet instants, so a zero-fault schedule is bit-identical to no
//!   schedule.
//!
//! # Resilience
//!
//! A [`ce_resilience::ResilienceSpec`] adds per-request timeouts,
//! budgeted retries, hedging, circuit breaking, and brownout serving;
//! the engine runs them on attempt-keyed streams, so a disabled spec (the
//! default) is byte-identical to pre-resilience goldens.
//!
//! # Topology
//!
//! A [`ce_topo::Topology`] with more than one pool turns the run into
//! an edge–cloud routing problem: every request is placed onto a pool
//! at arrival by the spec's placement policy, executes in that pool's
//! own `InstancePool` behind that pool's own autoscaler clone (its
//! capacity clamped by the pool quota), pays the pool's compute and
//! cold-start factors on its service time, the pool's price factor on
//! its GB-seconds, and the pool's RTT on its *observed* latency.
//! Retries and hedges keep the primary's pool affinity. The default
//! single-pool topology is perfectly neutral — factors 1.0, RTT 0.0,
//! no quota — and placement short-circuits to pool 0 without building
//! views or touching the forked `"topo"` stream, so such runs are
//! byte-identical to the pre-topology simulator.

use crate::arrival::ArrivalModel;
use crate::autoscale::Autoscaler;
use crate::engine::{Engine, Lane, ReqEv, Schedule, StreamKeys, Unbounded};
use crate::report::{PoolOutcome, ServeReport};
use ce_chaos::FaultSchedule;
use ce_faas::{InstancePool, KeepAlive};
use ce_obs::Registry;
use ce_resilience::ResilienceSpec;
use ce_sim_core::rng::SimRng;
use ce_sim_core::time::SimTime;
use ce_sim_core::SpecError;
use ce_storage::StorageKind;
use ce_topo::{PlacementPolicy, PlacementRequest, PoolView, Topology};

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// The open-loop arrival process.
    pub arrivals: ArrivalModel,
    /// Arrival window length in seconds (the run drains after it).
    pub duration_s: f64,
    /// Master seed; every stream derives from it.
    pub seed: u64,
    /// Mean service time of one request (seconds).
    pub service_s: f64,
    /// Lognormal sigma of service jitter.
    pub service_jitter: f64,
    /// Mean cold-start latency (seconds).
    pub cold_start_s: f64,
    /// Lognormal sigma of cold-start jitter.
    pub cold_start_jitter: f64,
    /// Instance memory size (CPU scales with it on the platform).
    pub memory_mb: u32,
    /// End-to-end latency SLO in milliseconds.
    pub slo_ms: f64,
    /// Admission-queue capacity; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Autoscaler control-loop period (seconds).
    pub scale_tick_s: f64,
    /// $ per invocation (AWS: 2e-7).
    pub per_invocation: f64,
    /// $ per GB-second of execution (AWS: 1.66667e-5).
    pub per_gb_second: f64,
    /// $ per GB-second of provisioned-but-idle keep-warm time (AWS
    /// provisioned concurrency: ~4.1667e-6).
    pub keep_warm_per_gb_s: f64,
    /// The backing store requests read model state from (outage target).
    pub backing: StorageKind,
    /// Optional fault schedule.
    pub chaos: Option<FaultSchedule>,
    /// Request-level resilience configuration (disabled by default).
    pub resilience: ResilienceSpec,
    /// The substrate to run over (default: one neutral pool, which is
    /// byte-identical to not modeling a topology at all).
    pub topology: Topology,
    /// Placement-policy registry name routing requests across pools
    /// (only consulted when the topology has more than one pool).
    pub placement: String,
}

impl ServeSpec {
    /// A spec with AWS-like defaults: 250 ms mean service, 1.8 s cold
    /// starts, 1769 MB instances, a 500 ms SLO, and Lambda pricing.
    pub fn new(arrivals: ArrivalModel, duration_s: f64, seed: u64) -> Self {
        ServeSpec {
            arrivals,
            duration_s,
            seed,
            service_s: 0.25,
            service_jitter: 0.08,
            cold_start_s: 1.8,
            cold_start_jitter: 0.25,
            memory_mb: 1769,
            slo_ms: 500.0,
            queue_cap: 10_000,
            scale_tick_s: 2.0,
            per_invocation: 2e-7,
            per_gb_second: 1.66667e-5,
            keep_warm_per_gb_s: 4.1667e-6,
            backing: StorageKind::S3,
            chaos: None,
            resilience: ResilienceSpec::disabled(),
            topology: Topology::single(),
            placement: "edge-first".to_string(),
        }
    }

    /// Sets the latency SLO in milliseconds.
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = slo_ms;
        self
    }

    /// Attaches a fault schedule.
    pub fn with_chaos(mut self, chaos: FaultSchedule) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets the admission-queue capacity.
    pub fn with_queue_cap(mut self, queue_cap: usize) -> Self {
        self.queue_cap = queue_cap;
        self
    }

    /// Attaches a resilience configuration.
    pub fn with_resilience(mut self, resilience: ResilienceSpec) -> Self {
        self.resilience = resilience;
        self
    }

    /// Runs over the given substrate instead of the neutral single pool.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Selects the placement policy by registry name.
    pub fn with_placement(mut self, placement: &str) -> Self {
        self.placement = placement.to_string();
        self
    }

    /// Checks the run's size and ranges before any work is done: the
    /// arrival model's ranges, the expected arrivals against
    /// [`crate::MAX_ARRIVALS`], the queue capacity, and the substrate.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.arrivals.validate()?;
        crate::check_arrivals("arrivals", self.arrivals.expected_arrivals(self.duration_s))?;
        SpecError::nonzero(&[(self.queue_cap as u64, "queue_cap", "slot")])?;
        self.topology.validate(&self.placement)
    }
}

/// The request-level serving simulator (see the module docs).
pub struct ServeSim {
    /// One schedule (the arrival schedule) over one lane per pool.
    engine: Engine<ReqEv>,
    placement: Box<dyn PlacementPolicy>,
    /// The forked `"topo"` stream handed to the placement policy.
    topo_rng: SimRng,
    /// The pool views handed to the placement policy, rebuilt in place
    /// for every placed request.
    views: Vec<PoolView>,
}

impl ServeSim {
    /// Builds a simulator: generates the arrival schedule and compiles
    /// the fault schedule, both on their own derived streams.
    ///
    /// # Panics
    /// Panics with [`ServeSpec::validate`]'s message when it refuses the
    /// spec.
    pub fn new(
        spec: ServeSpec,
        autoscaler: Box<dyn Autoscaler>,
        keep_alive: Box<dyn KeepAlive>,
    ) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        let rng = SimRng::new(spec.seed).derive("serve");
        let mut arrival_rng = rng.derive("arrivals");
        let arrivals = spec.arrivals.generate(spec.duration_s, &mut arrival_rng);
        let chaos_rng = spec.chaos.as_ref().map(|_| rng.derive("serve-chaos"));
        let chaos = spec
            .chaos
            .as_ref()
            .zip(chaos_rng.as_ref())
            .map(|(s, r)| s.compile(r));
        let placement = ce_topo::parse_placement(&spec.placement).expect("validated placement");
        // Every pool gets its own instance pool plus clones of the
        // autoscaler and keep-alive policy, so per-pool control state
        // (EWMAs, learned tables, gap histograms) never cross-talks.
        let lanes: Vec<Lane> = spec
            .topology
            .pools
            .iter()
            .map(|node| {
                let pool = InstancePool::new().with_keep_alive(keep_alive.clone());
                Lane::new(node.clone(), pool, autoscaler.clone(), 0)
            })
            .collect();
        let keys = StreamKeys {
            jitter: rng.clone(),
            chaos: chaos_rng,
            backoff: rng.clone(),
            backoff_label: "backoff",
            tag: None,
        };
        // Multi-pool runs place every admitted request at arrival;
        // single-pool runs pin the schedule to pool 0.
        let placed = lanes.len() > 1;
        let schedule = Schedule::new(arrivals, keys, 0, placed, &spec.resilience);
        ServeSim {
            engine: Engine::new(spec, chaos, vec![schedule], lanes),
            placement,
            topo_rng: rng.derive("topo"),
            views: Vec::new(),
        }
    }

    /// Sends `serve.*` metrics to a shared registry.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.engine.obs = registry.clone();
        self
    }

    /// The pre-generated arrival schedule (seconds, ascending). Written
    /// out as a JSONL log, replaying it through [`ArrivalModel::Trace`]
    /// reproduces this run's metrics byte-for-byte.
    pub fn arrivals(&self) -> &[f64] {
        &self.engine.schedules[0].arrivals
    }

    /// Whether more than one pool is in play (placement is live).
    fn multi_pool(&self) -> bool {
        self.engine.lanes.len() > 1
    }

    /// Places one admitted request onto a pool. Single-pool runs
    /// short-circuit without building views or touching the `"topo"`
    /// stream — the byte-identity fast path.
    fn place_request(&mut self, req: u32) {
        if !self.multi_pool() {
            return;
        }
        let (spec, now) = (&self.engine.spec, self.engine.events.now());
        self.views.clear();
        self.views
            .extend(self.engine.lanes.iter().map(|l| PoolView {
                rtt_ms: l.node.rtt_ms,
                price_factor: l.node.price_factor,
                compute_factor: l.node.compute_factor,
                cold_factor: l.node.cold_factor,
                // Requests carry a negligible payload; only RTT, not
                // bulk transfer, separates the pools on the wire.
                bandwidth_mbps: f64::INFINITY,
                inflight: l.inflight,
                queued: l.queue.len() as u32,
                capacity: l.capacity,
                warm_idle: l.pool.warm_count(spec.memory_mb, now),
                quota: l.node.quota,
            }));
        let preq = PlacementRequest {
            compute_s: spec.service_s,
            transfer_mb: 0.0,
            cold_ms: spec.cold_start_s * 1e3,
        };
        let want = self.placement.place(&self.views, &preq, &mut self.topo_rng);
        self.engine.place(0, req, want.min(self.views.len() - 1));
    }

    /// Runs the simulation to completion and returns the aggregate
    /// report. A zero-traffic run schedules no events, touches no
    /// metrics, and spends zero dollars.
    pub fn run(mut self) -> ServeReport {
        if self.arrivals().is_empty() {
            return self.finalize(SimTime::ZERO);
        }
        let tick_s = self.engine.spec.scale_tick_s;
        self.engine.start("serve", true);
        self.engine.schedule_first_arrival(0);
        self.engine
            .events
            .schedule_at(SimTime::from_secs(tick_s), ReqEv::ScaleTick);
        // Serving leases from no shared quota; arrivals dispatch at once
        // when their pool has capacity.
        let cap = &mut Unbounded;
        while let Some((_, ev)) = self.engine.events.pop() {
            match ev {
                ReqEv::Arrival { sched, req } => {
                    // Requests shed at the gate never consume a
                    // placement decision.
                    if self.engine.arrive(sched as usize, req) {
                        self.place_request(req);
                        self.engine.admit(sched as usize, req, true, cap);
                    }
                }
                ReqEv::Done(attempt) => {
                    self.engine.finish(attempt, cap);
                    self.engine.drain(cap);
                }
                ReqEv::ScaleTick => {
                    self.engine.scale_tick();
                    self.engine.drain(cap);
                    if self.engine.work_remains() {
                        self.engine.events.schedule_in(tick_s, ReqEv::ScaleTick);
                    }
                }
                ReqEv::OutageEnd => {
                    self.engine.outage_ended();
                    self.engine.reap_schedule(0);
                    self.engine.drain(cap);
                }
                ReqEv::HedgeFire { sched, req } => self.engine.hedge_fire(sched as usize, req, cap),
                ReqEv::Retry { sched, req } => self.engine.launch_retry(sched as usize, req, cap),
            }
        }
        self.engine.settle_parked();
        let horizon = SimTime::max(
            self.engine.events.now(),
            SimTime::from_secs(self.engine.spec.duration_s),
        );
        self.finalize(horizon)
    }

    /// Drains the warm pools, computes the bill, flushes metrics, and
    /// assembles the report.
    fn finalize(mut self, horizon: SimTime) -> ServeReport {
        self.engine.drain_pools(horizon);
        let [p50_ms, p95_ms, p99_ms] = [0.50, 0.95, 0.99].map(|q| self.engine.latency_quantile(q));
        let e = &self.engine;
        let t = &e.schedules[0].tally;
        let expired: u64 = e.lanes.iter().map(|l| l.pool.stats().expired).sum();
        let prewarmed: u64 = e.lanes.iter().map(|l| l.prewarmed).sum();
        let requests = self.arrivals().len() as u64;
        let dollars = e.dollars(0);
        let pool_outcomes: Vec<PoolOutcome> = if self.multi_pool() {
            e.lanes
                .iter()
                .enumerate()
                .map(|(i, l)| PoolOutcome {
                    name: l.node.name.clone(),
                    requests: l.requests,
                    cold_starts: l.cold_starts,
                    busy_gb_s: l.busy_gb_s,
                    idle_gb_s: l.idle_gb_s,
                    dollars: e.lane_dollars(i),
                })
                .collect()
        } else {
            Vec::new()
        };
        let report = ServeReport {
            autoscaler: e.lanes[0].autoscaler.name(),
            keep_alive: e.lanes[0].pool.keep_alive().name(),
            arrivals: e.spec.arrivals.name().to_string(),
            topology: e.spec.topology.name.clone(),
            placement: e.spec.placement.clone(),
            pools: pool_outcomes,
            requests,
            completed: t.completed,
            failed: t.failed,
            timed_out: t.timed_out,
            shed_throttled: t.shed_throttled,
            shed_overload: t.shed_overload,
            shed_outage: t.shed_outage,
            shed_breaker: t.shed_breaker,
            truncated: t.truncated,
            cold_starts: t.cold_starts,
            warm_starts: t.warm_starts,
            slo_violations: t.slo_violations,
            prewarmed,
            expired,
            attempts: t.attempts,
            retries: t.retries,
            hedges: t.hedges,
            hedge_wins: t.hedge_wins,
            degraded: t.degraded,
            p50_ms,
            p95_ms,
            p99_ms,
            busy_gb_s: t.busy_gb_s,
            idle_gb_s: t.idle_gb_s,
            dollars,
            makespan_s: horizon.as_secs(),
            slo_ms: e.spec.slo_ms,
        };
        debug_assert_eq!(report.verdicts().check(), Ok(()));
        if requests > 0 {
            e.flush_verdicts("serve");
            let obs = &e.obs;
            obs.counter("serve.prewarmed").add(prewarmed);
            obs.counter("serve.expired").add(expired);
            obs.gauge("serve.busy_gb_s").add(t.busy_gb_s);
            obs.gauge("serve.idle_gb_s").add(t.idle_gb_s);
            obs.gauge("serve.dollars").add(dollars);
            obs.gauge("serve.cost_per_million_req")
                .set(report.cost_per_million());
            // The topo group is emitted only when a second pool exists,
            // so single-pool runs keep their pre-topology bytes.
            if self.multi_pool() {
                obs.gauge("topo.pools").set(e.lanes.len() as f64);
                for (i, l) in e.lanes.iter().enumerate() {
                    let name = &l.node.name;
                    obs.counter(&format!("topo.requests.{name}"))
                        .add(l.requests);
                    obs.counter(&format!("topo.cold_starts.{name}"))
                        .add(l.cold_starts);
                    obs.gauge(&format!("topo.busy_gb_s.{name}"))
                        .set(l.busy_gb_s);
                    obs.gauge(&format!("topo.dollars.{name}"))
                        .set(e.lane_dollars(i));
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::{autoscaler_by_name, ConcurrencyTarget, FixedPool, PrewarmAhead};
    use crate::ZooSpec;
    use ce_faas::{keep_alive_by_name, AdaptiveTtl, FixedTtl};
    use ce_resilience::HedgePolicy;

    fn poisson_spec(rps: f64, duration_s: f64, seed: u64) -> ServeSpec {
        ServeSpec::new(ArrivalModel::Poisson { rps }, duration_s, seed)
    }

    fn run_default(spec: ServeSpec) -> ServeReport {
        ServeSim::new(
            spec,
            Box::new(ConcurrencyTarget::default()),
            Box::new(FixedTtl::default()),
        )
        .run()
    }

    #[test]
    fn validate_refuses_what_the_run_cannot_hold() {
        assert_eq!(poisson_spec(20.0, 600.0, 1).validate(), Ok(()));
        let mut empty = Topology::single();
        empty.pools.clear();
        for (spec, needle) in [
            (
                poisson_spec(1e9, 1e9, 1),
                "over the ceiling of 10000000 arrivals",
            ),
            (poisson_spec(20.0, f64::NAN, 1), "~NaN arrivals"),
            (
                poisson_spec(1.0, 1.0, 1).with_queue_cap(0),
                "at least 1 slot",
            ),
            (
                poisson_spec(1.0, 1.0, 1).with_topology(empty),
                "at least one pool",
            ),
            (
                poisson_spec(1.0, 1.0, 1).with_placement("nowhere"),
                "unknown placement policy",
            ),
        ] {
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn validate_refuses_arrival_models_that_cannot_generate() {
        let diurnal = |amplitude: f64, period_s: f64| ArrivalModel::Diurnal {
            base_rps: 10.0,
            amplitude,
            period_s,
        };
        let bursty = |low_rps: f64, mean_dwell_s: f64| ArrivalModel::Bursty {
            low_rps,
            high_rps: 10.0,
            mean_dwell_s,
        };
        let mixed = ZooSpec::preset("mixed").expect("preset");
        let zoo = |edit: &dyn Fn(&mut ZooSpec)| {
            let mut spec = mixed.clone();
            edit(&mut spec);
            ArrivalModel::Zoo { spec }
        };
        let valid = [
            ArrivalModel::Poisson { rps: 0.0 },
            diurnal(0.0, 600.0),
            diurnal(0.999, 1e-9),
            bursty(0.0, 1e-9),
            zoo(&|_| {}),
            zoo(&|z| z.functions = crate::MAX_ZOO_FUNCTIONS),
            zoo(&|z| z.class_weights = [0.0, 0.0, 0.0, 1e-9]),
            zoo(&|z| (z.zipf_exponent, z.burst_factor) = (0.0, 1.0)),
        ];
        for arrivals in valid {
            let spec = ServeSpec::new(arrivals.clone(), 1.0, 1);
            assert_eq!(spec.validate(), Ok(()), "{arrivals:?}");
        }
        let refused = [
            (ArrivalModel::Poisson { rps: -1.0 }, "poisson rps"),
            (ArrivalModel::Poisson { rps: f64::NAN }, "poisson rps"),
            (diurnal(1.0, 600.0), "diurnal amplitude"),
            (diurnal(-0.1, 600.0), "diurnal amplitude"),
            (diurnal(f64::NAN, 600.0), "diurnal amplitude"),
            (diurnal(0.5, 0.0), "diurnal period_s"),
            (diurnal(0.5, f64::NAN), "diurnal period_s"),
            (bursty(-1.0, 60.0), "bursty low_rps"),
            (bursty(1.0, 0.0), "bursty mean_dwell_s"),
            (zoo(&|z| z.diurnal_amplitude = 1.0), "diurnal amplitude"),
            (zoo(&|z| z.diurnal_period_s = -1.0), "diurnal period_s"),
            (zoo(&|z| z.functions = 0), "at least 1 function"),
            (
                zoo(&|z| z.functions = crate::MAX_ZOO_FUNCTIONS + 1),
                "over the ceiling of 100000 zoo functions",
            ),
            (zoo(&|z| z.total_rps = f64::INFINITY), "zoo total_rps"),
            (zoo(&|z| z.cold_rate_rps = -0.5), "zoo cold_rate_rps"),
            (zoo(&|z| z.zipf_exponent = -1.0), "zoo zipf_exponent"),
            (zoo(&|z| z.zipf_exponent = f64::NAN), "zoo zipf_exponent"),
            (zoo(&|z| z.class_weights[2] = -0.1), "zoo class weight"),
            (zoo(&|z| z.class_weights = [0.0; 4]), "all zero"),
            (zoo(&|z| z.burst_factor = 0.5), "zoo burst_factor"),
            (zoo(&|z| z.burst_factor = f64::INFINITY), "zoo burst_factor"),
            (zoo(&|z| z.burst_dwell_s = 0.0), "zoo burst_dwell_s"),
        ];
        for (arrivals, needle) in refused {
            let spec = ServeSpec::new(arrivals.clone(), 1.0, 1);
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains(needle), "{arrivals:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 slot")]
    fn new_panics_on_a_refused_spec() {
        run_default(poisson_spec(1.0, 1.0, 1).with_queue_cap(0));
    }

    #[test]
    fn every_request_gets_a_verdict() {
        let r = run_default(poisson_spec(40.0, 300.0, 42));
        assert!(r.requests > 10_000 / 2, "~12k requests expected");
        assert_eq!(
            r.completed + r.failed + r.shed_throttled + r.shed_overload + r.shed_outage,
            r.requests,
            "verdicts partition arrivals: {r:?}"
        );
        assert_eq!(r.cold_starts + r.warm_starts, r.completed + r.failed);
        assert!(r.p50_ms > 0.0 && r.p99_ms >= r.p95_ms && r.p95_ms >= r.p50_ms);
        assert!(r.dollars > 0.0);
    }

    #[test]
    fn same_seed_is_deterministic_down_to_the_bytes() {
        let run = || {
            let registry = Registry::new();
            let r = ServeSim::new(
                poisson_spec(30.0, 120.0, 7),
                Box::new(ConcurrencyTarget::default()),
                Box::new(AdaptiveTtl::default()),
            )
            .with_obs(&registry)
            .run();
            (r, registry.export_jsonl())
        };
        let (r1, m1) = run();
        let (r2, m2) = run();
        assert_eq!(r1, r2);
        assert_eq!(m1, m2, "metrics must be byte-identical");
        let (r3, _) = {
            let registry = Registry::new();
            let r = ServeSim::new(
                poisson_spec(30.0, 120.0, 8),
                Box::new(ConcurrencyTarget::default()),
                Box::new(AdaptiveTtl::default()),
            )
            .with_obs(&registry)
            .run();
            (r, registry.export_jsonl())
        };
        assert_ne!(r1, r3, "different seed, different run");
    }

    #[test]
    fn zero_traffic_emits_nothing_and_costs_nothing() {
        let registry = Registry::new();
        let r = ServeSim::new(
            poisson_spec(0.0, 600.0, 42),
            Box::new(ConcurrencyTarget::default()),
            Box::new(FixedTtl::default()),
        )
        .with_obs(&registry)
        .run();
        assert_eq!(r.requests, 0);
        assert_eq!(r.dollars, 0.0);
        assert_eq!(registry.export_jsonl(), "", "no metrics, no events");
        assert_eq!(registry.event_count(), 0);
    }

    #[test]
    fn trace_replay_reproduces_the_run_bit_for_bit() {
        let spec = ServeSpec::new(
            ArrivalModel::Diurnal {
                base_rps: 20.0,
                amplitude: 0.8,
                period_s: 300.0,
            },
            240.0,
            42,
        );
        let make = |spec: ServeSpec| {
            ServeSim::new(
                spec,
                Box::new(ConcurrencyTarget::default()),
                Box::new(AdaptiveTtl::default()),
            )
        };
        let sim = make(spec.clone());
        let log = crate::arrival::write_arrival_log(sim.arrivals());
        let registry = Registry::new();
        let original = sim.with_obs(&registry).run();
        let original_metrics = registry.export_jsonl();

        let replay_spec = ServeSpec::new(
            ArrivalModel::Trace {
                arrival_s: crate::arrival::read_arrival_log(&log).expect("log parses"),
            },
            240.0,
            42,
        );
        let registry = Registry::new();
        let replay = make(replay_spec).with_obs(&registry).run();
        let replay_metrics = registry.export_jsonl();
        // Only the arrival model name differs; every number matches.
        assert_eq!(original.requests, replay.requests);
        assert_eq!(original.dollars.to_bits(), replay.dollars.to_bits());
        assert_eq!(original.p99_ms.to_bits(), replay.p99_ms.to_bits());
        assert_eq!(original_metrics, replay_metrics, "replay closure");
    }

    #[test]
    fn undersized_fixed_pool_queues_and_violates_slo() {
        // 50 rps x 0.25 s = 12.5 mean concurrency; 4 instances saturate.
        let r = ServeSim::new(
            poisson_spec(50.0, 120.0, 42),
            Box::new(FixedPool::new(4)),
            Box::new(FixedTtl::default()),
        )
        .run();
        assert!(
            r.slo_violations + r.shed_overload > r.requests / 2,
            "saturated pool must violate massively: {r:?}"
        );
        let roomy = ServeSim::new(
            poisson_spec(50.0, 120.0, 42),
            Box::new(FixedPool::new(32)),
            Box::new(FixedTtl::default()),
        )
        .run();
        assert!(
            roomy.violation_rate() < 0.05,
            "32 instances absorb 12.5 mean concurrency: {roomy:?}"
        );
    }

    #[test]
    fn zero_fault_schedule_matches_no_schedule_bit_for_bit() {
        let run = |chaos: Option<FaultSchedule>| {
            let mut spec = poisson_spec(30.0, 120.0, 11);
            spec.chaos = chaos;
            let registry = Registry::new();
            ServeSim::new(
                spec,
                Box::new(ConcurrencyTarget::default()),
                Box::new(FixedTtl::default()),
            )
            .with_obs(&registry)
            .run();
            registry.export_jsonl()
        };
        let clean = run(None);
        let zero = run(Some(
            FaultSchedule::parse("crash:0@0..inf;coldspike:x1@0..inf").unwrap(),
        ));
        assert_eq!(clean, zero);
    }

    #[test]
    fn throttle_storm_sheds_requests_without_billing_them() {
        let mut spec = poisson_spec(30.0, 60.0, 5);
        spec.chaos = Some(FaultSchedule::parse("throttle:1@0..inf").unwrap());
        let r = run_default(spec);
        assert_eq!(r.shed_throttled, r.requests, "total storm sheds all");
        assert_eq!(r.completed, 0);
        assert_eq!(r.cold_starts + r.warm_starts, 0, "nothing dispatched");
        assert_eq!(r.busy_gb_s, 0.0, "shed requests bill no execution");
    }

    #[test]
    fn outage_parks_requests_until_the_window_ends() {
        let mut spec = poisson_spec(20.0, 120.0, 9);
        // S3 down for the first 30 s of the run.
        spec.chaos = Some(FaultSchedule::parse("outage:s3@0..30").unwrap());
        let r = run_default(spec);
        assert_eq!(r.shed_outage, 0, "outage ends within the run");
        assert_eq!(
            r.completed + r.failed + r.shed_overload,
            r.requests,
            "parked requests eventually serve: {r:?}"
        );
        // Early arrivals waited for the window end: big queueing latency.
        assert!(r.p99_ms > 5_000.0, "30 s park shows in the tail: {r:?}");
    }

    #[test]
    fn endless_outage_sheds_with_a_typed_outcome() {
        let mut spec = poisson_spec(20.0, 60.0, 9);
        spec.chaos = Some(FaultSchedule::parse("outage:s3@0..inf").unwrap());
        let r = run_default(spec);
        assert_eq!(r.shed_outage, r.requests, "nothing can ever serve");
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn crash_windows_fail_requests_and_kill_instances() {
        let mut spec = poisson_spec(30.0, 120.0, 13);
        spec.chaos = Some(FaultSchedule::parse("crash:0.2@0..inf").unwrap());
        let r = run_default(spec);
        assert!(r.failed > 0, "20% crash rate must fire: {r:?}");
        let rate = r.failed as f64 / (r.completed + r.failed) as f64;
        assert!((0.1..0.3).contains(&rate), "empirical crash rate {rate}");
        assert!(r.violation_rate() >= rate, "failures count as violations");
    }

    #[test]
    fn adaptive_keep_alive_cuts_idle_spend_under_bursty_traffic() {
        // Bursts of tight arrivals separated by ~2-minute silences. The
        // adaptive policy learns sub-second gaps and expires instances
        // seconds into each silence; FixedTtl(600) keeps them warm
        // through every silence. The autoscaler scales provisioning to
        // zero, so nothing re-warms what keep-alive reclaims.
        let run = |ka: &str| {
            let spec = ServeSpec::new(
                ArrivalModel::Bursty {
                    low_rps: 0.0,
                    high_rps: 10.0,
                    mean_dwell_s: 120.0,
                },
                3000.0,
                21,
            );
            ServeSim::new(
                spec,
                Box::new(ConcurrencyTarget::default()),
                keep_alive_by_name(ka).unwrap(),
            )
            .run()
        };
        let fixed = run("fixed:600");
        let adaptive = run("adaptive");
        assert!(
            adaptive.idle_gb_s < fixed.idle_gb_s * 0.7,
            "adaptive {} vs fixed {}",
            adaptive.idle_gb_s,
            fixed.idle_gb_s
        );
        assert!(adaptive.expired > 0, "idle instances actually expired");
    }

    #[test]
    fn disabled_resilience_spec_is_bit_identical_to_none() {
        let run = |resilience: ResilienceSpec| {
            let mut spec = poisson_spec(30.0, 120.0, 17);
            spec.chaos =
                Some(FaultSchedule::parse("crash:0.15@0..60;coldspike:x3@30..90").unwrap());
            spec.resilience = resilience;
            let registry = Registry::new();
            let r = ServeSim::new(
                spec,
                Box::new(ConcurrencyTarget::default()),
                Box::new(AdaptiveTtl::default()),
            )
            .with_obs(&registry)
            .run();
            (r, registry.export_jsonl())
        };
        let (r1, m1) = run(ResilienceSpec::disabled());
        let (r2, m2) = run(ResilienceSpec::default());
        assert_eq!(r1, r2);
        assert_eq!(m1, m2, "disabled spec must change nothing");
    }

    #[test]
    fn retries_cut_failures_under_a_crash_window_at_higher_cost() {
        let run = |resilience: ResilienceSpec| {
            let mut spec = poisson_spec(30.0, 300.0, 13);
            spec.chaos = Some(FaultSchedule::parse("crash:0.2@0..inf").unwrap());
            spec.resilience = resilience;
            run_default(spec)
        };
        let base = run(ResilienceSpec::disabled());
        let retried = run(ResilienceSpec {
            retry: Some(ce_resilience::RetryPolicy::new(3)),
            retry_budget: Some(1.0),
            ..ResilienceSpec::disabled()
        });
        base.verdicts().check().unwrap();
        retried.verdicts().check().unwrap();
        assert!(retried.retries > 0, "retries must fire: {retried:?}");
        assert!(
            retried.failed < base.failed / 2,
            "3 retries beat a 20% crash rate: {} vs {}",
            retried.failed,
            base.failed
        );
        assert!(
            retried.attempts > retried.requests,
            "retries add billed attempts"
        );
        assert!(
            retried.dollars > base.dollars,
            "the resilience tax is billed honestly: {} vs {}",
            retried.dollars,
            base.dollars
        );
    }

    #[test]
    fn retry_budget_caps_the_retry_storm() {
        let run = |ratio: f64| {
            let mut spec = poisson_spec(30.0, 300.0, 13);
            spec.chaos = Some(FaultSchedule::parse("crash:0.5@0..inf").unwrap());
            spec.resilience = ResilienceSpec {
                retry: Some(ce_resilience::RetryPolicy::new(5)),
                retry_budget: Some(ratio),
                ..ResilienceSpec::disabled()
            };
            run_default(spec)
        };
        let tight = run(0.05);
        let loose = run(2.0);
        assert!(
            tight.retries < loose.retries / 2,
            "a 5% budget throttles a 50% crash storm: {} vs {}",
            tight.retries,
            loose.retries
        );
        // The bucket starts full, so some early retries always launch.
        assert!(tight.retries > 0);
    }

    #[test]
    fn timeouts_produce_typed_verdicts_and_bill_the_killed_time() {
        // 250 ms mean service; a 100 ms deadline kills nearly all of it.
        let mut spec = poisson_spec(10.0, 120.0, 19);
        spec.resilience = ResilienceSpec {
            timeout_ms: Some(100.0),
            ..ResilienceSpec::disabled()
        };
        let r = run_default(spec);
        r.verdicts().check().unwrap();
        assert!(
            r.timed_out > r.requests / 2,
            "most requests blow a 100 ms deadline: {r:?}"
        );
        assert_eq!(r.failed, 0, "no crash windows, no crash verdicts");
        assert!(r.dollars > 0.0, "killed attempts still bill");
    }

    #[test]
    fn hedging_cuts_tail_latency_under_cold_spikes() {
        // Sharp bursts under an uncapped prewarm scaler absorb into
        // cold starts; with a x6 cold-start spike the primary's cold
        // penalty dwarfs a warm hedge, so hedges launched at the p95
        // mark win the race and trim the tail.
        let run = |resilience: ResilienceSpec| {
            let arrivals = ArrivalModel::Bursty {
                low_rps: 2.0,
                high_rps: 150.0,
                mean_dwell_s: 10.0,
            };
            let mut spec = ServeSpec::new(arrivals, 400.0, 29);
            spec.chaos = Some(FaultSchedule::parse("coldspike:x6@0..inf").unwrap());
            spec.resilience = resilience;
            ServeSim::new(
                spec,
                Box::new(PrewarmAhead::default()),
                Box::new(FixedTtl::default()),
            )
            .run()
        };
        let base = run(ResilienceSpec::disabled());
        let hedged = run(ResilienceSpec {
            hedge: Some(HedgePolicy::P95),
            ..ResilienceSpec::disabled()
        });
        hedged.verdicts().check().unwrap();
        assert!(hedged.hedges > 0, "hedges must fire: {hedged:?}");
        assert!(hedged.hedge_wins > 0, "some hedges must win");
        assert!(
            hedged.p99_ms < base.p99_ms,
            "hedging trims the tail: {} vs {}",
            hedged.p99_ms,
            base.p99_ms
        );
        assert!(
            hedged.dollars > base.dollars,
            "losers' compute is billed: {} vs {}",
            hedged.dollars,
            base.dollars
        );
    }

    #[test]
    fn breaker_sheds_fast_during_a_crash_storm_and_recovers() {
        let mut spec = poisson_spec(30.0, 600.0, 31);
        // Total crash storm for the middle of the run.
        spec.chaos = Some(FaultSchedule::parse("crash:1@100..300").unwrap());
        spec.resilience = ResilienceSpec {
            breaker: Some(ce_resilience::BreakerSpec::new(0.5)),
            ..ResilienceSpec::disabled()
        };
        let registry = Registry::new();
        let r = ServeSim::new(
            spec,
            Box::new(ConcurrencyTarget::default()),
            Box::new(FixedTtl::default()),
        )
        .with_obs(&registry)
        .run();
        r.verdicts().check().unwrap();
        assert!(r.shed_breaker > 0, "the breaker must trip: {r:?}");
        assert!(
            r.shed_breaker > r.failed,
            "most doomed dispatches become fast sheds: {r:?}"
        );
        assert!(
            r.completed > r.requests / 2,
            "the breaker closes again after the storm: {r:?}"
        );
        let metrics = registry.export_jsonl();
        assert!(
            metrics.contains("resilience.breaker"),
            "transitions are events"
        );
    }

    #[test]
    fn brownout_serves_degraded_instead_of_shedding() {
        // 50 rps x 0.25 s against 4 instances with a tiny queue: the
        // degraded profile (4x faster) keeps the backlog servable.
        let run = |resilience: ResilienceSpec| {
            let mut spec = poisson_spec(50.0, 120.0, 37);
            spec.queue_cap = 40;
            spec.resilience = resilience;
            ServeSim::new(
                spec,
                Box::new(FixedPool::new(4)),
                Box::new(FixedTtl::default()),
            )
            .run()
        };
        let base = run(ResilienceSpec::disabled());
        let browned = run(ResilienceSpec {
            brownout: Some(ce_resilience::BrownoutSpec::new(0.25)),
            ..ResilienceSpec::disabled()
        });
        browned.verdicts().check().unwrap();
        assert!(browned.degraded > 0, "brownout must engage: {browned:?}");
        assert!(
            browned.shed_overload < base.shed_overload / 2,
            "degraded service absorbs the overload: {} vs {}",
            browned.shed_overload,
            base.shed_overload
        );
    }

    #[test]
    fn full_resilience_pipeline_keeps_the_verdict_partition_under_chaos() {
        let mut spec = poisson_spec(40.0, 400.0, 41);
        spec.chaos = Some(
            FaultSchedule::parse(
                "coldspike:x4@0..60;throttle:0.3@100..160;crash:0.3@180..260;outage:s3@300..330",
            )
            .unwrap(),
        );
        spec.resilience = ResilienceSpec {
            timeout_ms: Some(30_000.0),
            retry: Some(ce_resilience::RetryPolicy::new(2)),
            retry_budget: Some(0.5),
            hedge: Some(HedgePolicy::P95),
            breaker: Some(ce_resilience::BreakerSpec::new(0.6)),
            brownout: Some(ce_resilience::BrownoutSpec::new(0.5)),
        };
        let r = run_default(spec);
        r.verdicts().check().unwrap();
        assert!(r.attempts >= r.completed + r.failed + r.timed_out);
    }

    #[test]
    fn settle_parked_types_truncation_by_outage_state() {
        // No chaos: parked requests at the end of the run are truncated,
        // not shed_outage.
        let mut sim = ServeSim::new(
            poisson_spec(10.0, 60.0, 43),
            Box::new(ConcurrencyTarget::default()),
            Box::new(FixedTtl::default()),
        );
        let engine = &mut sim.engine;
        engine.lanes[0].queue.push_back((0, SimTime::ZERO));
        engine.lanes[0].queue.push_back((1, SimTime::ZERO));
        engine.settle_parked();
        assert_eq!(engine.schedules[0].tally.truncated, 2);
        assert_eq!(engine.schedules[0].tally.shed_outage, 0);
        assert!(engine.lanes[0].queue.is_empty());

        // An outage in force at the final instant keeps the old verdict.
        let mut spec = poisson_spec(10.0, 60.0, 43);
        spec.chaos = Some(FaultSchedule::parse("outage:s3@0..inf").unwrap());
        let mut sim = ServeSim::new(
            spec,
            Box::new(ConcurrencyTarget::default()),
            Box::new(FixedTtl::default()),
        );
        let engine = &mut sim.engine;
        engine.lanes[0].queue.push_back((0, SimTime::ZERO));
        engine.settle_parked();
        assert_eq!(engine.schedules[0].tally.shed_outage, 1);
        assert_eq!(engine.schedules[0].tally.truncated, 0);
    }

    #[test]
    fn overlapping_outages_shed_consistently_with_admission() {
        // Window A parks early arrivals; window B begins before A ends
        // and outlasts the run. The drain path must shed the parked
        // requests just like admission sheds the later ones.
        let mut spec = poisson_spec(20.0, 60.0, 47);
        spec.chaos = Some(FaultSchedule::parse("outage:s3@0..30;outage:s3@20..100000").unwrap());
        let r = run_default(spec);
        assert_eq!(
            r.shed_outage, r.requests,
            "every arrival is behind an outage that outlasts the run: {r:?}"
        );
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn single_pool_topology_is_byte_identical_whatever_the_placement_name() {
        // The zero-draw + neutral-factor contract: naming any placement
        // policy over the default single pool changes nothing, down to
        // the metric bytes.
        let run = |spec: ServeSpec| {
            let registry = Registry::new();
            let r = ServeSim::new(
                spec,
                Box::new(ConcurrencyTarget::default()),
                Box::new(AdaptiveTtl::default()),
            )
            .with_obs(&registry)
            .run();
            (r, registry.export_jsonl())
        };
        let (base, base_m) = run(poisson_spec(30.0, 120.0, 7));
        for placement in ce_topo::placement_names() {
            let spec = poisson_spec(30.0, 120.0, 7)
                .with_topology(ce_topo::Topology::single())
                .with_placement(placement);
            let (r, m) = run(spec);
            assert_eq!(base.dollars.to_bits(), r.dollars.to_bits(), "{placement}");
            assert_eq!(base.p99_ms.to_bits(), r.p99_ms.to_bits(), "{placement}");
            assert_eq!(base_m, m, "single-pool bytes moved under {placement}");
        }
    }

    #[test]
    fn single_pool_rtt_rides_on_observed_latency_only() {
        let run = |topo: &str| {
            let spec =
                poisson_spec(20.0, 120.0, 7).with_topology(ce_topo::parse_topology(topo).unwrap());
            run_default(spec)
        };
        let near = run("pool:near");
        let far = run("pool:far,rtt=40");
        // Same seed, same schedule: only the observed latency shifts.
        assert_eq!(near.completed, far.completed);
        assert_eq!(near.dollars.to_bits(), far.dollars.to_bits());
        // p50 comes out of bucketed histogram quantiles, so the 40 ms
        // offset shows up approximately, not exactly.
        let shift = far.p50_ms - near.p50_ms;
        assert!(
            (30.0..50.0).contains(&shift),
            "RTT shifts observed latency by ~40 ms: {} vs {}",
            far.p50_ms,
            near.p50_ms
        );
    }

    #[test]
    fn multi_pool_run_is_deterministic_and_splits_traffic() {
        let run = || {
            let spec = ServeSpec::new(ArrivalModel::Poisson { rps: 30.0 }, 180.0, 42)
                .with_topology(ce_topo::Topology::edge_cloud())
                .with_placement("workload-aware");
            let registry = Registry::new();
            let r = ServeSim::new(
                spec,
                Box::new(ConcurrencyTarget::default()),
                Box::new(AdaptiveTtl::default()),
            )
            .with_obs(&registry)
            .run();
            (r, registry.export_jsonl())
        };
        let (r1, m1) = run();
        let (r2, m2) = run();
        assert_eq!(r1, r2);
        assert_eq!(m1, m2, "multi-pool runs must stay byte-deterministic");
        assert_eq!(r1.pools.len(), 2, "per-pool breakdown is reported");
        let placed: u64 = r1.pools.iter().map(|p| p.requests).sum();
        assert_eq!(
            placed,
            r1.requests - r1.shed_throttled - r1.shed_breaker,
            "every admitted request lands on exactly one pool"
        );
        assert!(
            r1.pools.iter().all(|p| p.requests > 0),
            "workload-aware uses both pools: {:?}",
            r1.pools
        );
        let pool_dollars: f64 = r1.pools.iter().map(|p| p.dollars).sum();
        let gb_dollars = r1.dollars - 2e-7 * r1.attempts as f64;
        assert!(
            (pool_dollars - gb_dollars).abs() < 1e-9,
            "pool bills sum to the GB-second bill: {pool_dollars} vs {gb_dollars}"
        );
        assert!(m1.contains("topo.requests.edge"), "topo metrics emitted");
    }

    #[test]
    fn multi_pool_arrival_log_round_trips_bit_for_bit() {
        // The satellite claim: trace-replaying a multi-pool run's own
        // arrival log reproduces its metrics byte-for-byte (placement
        // decisions replay identically because they are pure functions
        // of arrival order and pool state).
        let topo_spec = |arrivals: ArrivalModel| {
            ServeSpec::new(arrivals, 240.0, 42)
                .with_topology(ce_topo::Topology::edge_cloud())
                .with_placement("workload-aware")
        };
        let sim = ServeSim::new(
            topo_spec(ArrivalModel::Diurnal {
                base_rps: 20.0,
                amplitude: 0.8,
                period_s: 300.0,
            }),
            Box::new(ConcurrencyTarget::default()),
            Box::new(AdaptiveTtl::default()),
        );
        let log = crate::arrival::write_arrival_log(sim.arrivals());
        let registry = Registry::new();
        let original = sim.with_obs(&registry).run();
        let original_metrics = registry.export_jsonl();

        let replay_spec = topo_spec(ArrivalModel::Trace {
            arrival_s: crate::arrival::read_arrival_log(&log).expect("log parses"),
        });
        let registry = Registry::new();
        let replay = ServeSim::new(
            replay_spec,
            Box::new(ConcurrencyTarget::default()),
            Box::new(AdaptiveTtl::default()),
        )
        .with_obs(&registry)
        .run();
        assert_eq!(original.requests, replay.requests);
        assert_eq!(original.dollars.to_bits(), replay.dollars.to_bits());
        assert_eq!(original.pools, replay.pools, "placement replays exactly");
        assert_eq!(original_metrics, registry.export_jsonl(), "replay closure");
    }

    #[test]
    fn edge_quota_caps_edge_capacity_and_overflow_reaches_the_cloud() {
        // edge-first at a load far beyond the edge quota of 8: the
        // cloud must absorb the overflow.
        let spec = ServeSpec::new(ArrivalModel::Poisson { rps: 80.0 }, 120.0, 11)
            .with_topology(ce_topo::Topology::edge_cloud())
            .with_placement("edge-first");
        let r = run_default(spec);
        let edge = r.pools.iter().find(|p| p.name == "edge").unwrap();
        let cloud = r.pools.iter().find(|p| p.name == "cloud").unwrap();
        // 80 rps x 0.25 s = 20 mean concurrency against a quota of 8:
        // most requests must overflow.
        assert!(cloud.requests > edge.requests, "{:?}", r.pools);
        assert!(edge.requests > 0, "the edge still serves its share");
    }

    #[test]
    fn autoscaler_registry_names_round_trip() {
        for name in ["fixed:8", "target", "prewarm"] {
            let r = ServeSim::new(
                poisson_spec(10.0, 30.0, 3),
                autoscaler_by_name(name).unwrap(),
                keep_alive_by_name("histogram").unwrap(),
            )
            .run();
            assert_eq!(r.autoscaler, name);
            assert_eq!(r.keep_alive, "histogram");
        }
    }
}
