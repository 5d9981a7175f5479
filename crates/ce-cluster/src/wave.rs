//! How one queued training run is launched as an epoch wave, and what a
//! fault on the fleet clock does to it.
//!
//! The paper's Algorithm 2 re-plans a training job one epoch at a time;
//! both fleet simulators ([`ClusterSim`](crate::ClusterSim) and
//! ce-lifecycle's co-located fleet) step a [`TrainingExecution`] wave by
//! wave against per-pool [`AccountQuota`]s through [`Waves`]. Launching
//! the run at the head of a queue goes: (1) in a non-quiet instant of
//! the fleet-clock fault timeline, an outage on the wave's storage
//! stalls the run, else a crash draw keyed by a monotone attempt counter
//! may kill the wave; (2) a wave that can never fit its pool fails the
//! run, one that does not fit yet stalls the queue (head-of-line, so
//! wide waves are not starved); (3) a queue wait past the platform
//! keep-alive ([`DEFAULT_TTL_S`]) cold-starts the wave; (4) the epoch
//! steps, and the workers go back if the platform refuses.
//!
//! Every fault rule lives here. A [`Stall`] names the instant the run
//! re-queues and the queue clock it re-queues with: a worker loss has
//! already charged its wasted work, restore and backoff to the run's
//! JCT, so its clock restarts at the resume; an outage charges nothing,
//! so the clock keeps running through it, and an outage longer than the
//! keep-alive resumes cold (idle time expires an instance whatever made
//! it idle). A started [`Wave`] carries the `degrade:` factor of its
//! storage at launch, by which the caller stretches the epoch's sync.
//! The queue discipline and the metric names stay with the caller.

use ce_chaos::{CompiledSchedule, FaultSchedule};
use ce_faas::keepalive::DEFAULT_TTL_S;
use ce_faas::AccountQuota;
use ce_sim_core::rng::SimRng;
use ce_storage::StorageKind;
use ce_topo::{NodePool, PoolView, Topology};
use ce_workflow::{EpochStep, TrainingExecution, TrainingReport};

/// How a run left the queue holding its wave's workers.
#[derive(Debug, Clone, Copy)]
pub struct Dequeue {
    /// Seconds since the run was queued.
    pub wait_s: f64,
    /// Whether the wait expired the run's warm pool.
    pub cold_resumed: bool,
}

/// An epoch wave that started.
#[derive(Debug, Clone, Copy)]
pub struct Wave {
    /// The epoch the execution ran.
    pub step: EpochStep,
    /// Workers the wave holds until it lands.
    pub workers: u32,
    /// The storage service of the allocation that ran.
    pub storage: StorageKind,
    /// The step's wall clock scaled by the pool's compute class.
    pub wall_s: f64,
    /// The `degrade:` factor of `storage` at launch (`1.0` = healthy).
    pub degrade: f64,
}

/// Why a fault took a run off the queue.
#[derive(Debug, Clone, Copy)]
pub enum StallCause {
    /// `storage` is dark until `until_s`.
    Outage { storage: StorageKind, until_s: f64 },
    /// A crash killed the wave at `at_fraction` of its epoch; the run
    /// absorbed it per its recovery policy, charging `stall_s` to its
    /// JCT.
    WorkerLoss { at_fraction: f64, stall_s: f64 },
}

/// A run a fault took off the queue (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Stall {
    /// What stalled the run.
    pub cause: StallCause,
    /// When the run re-queues.
    pub resume_s: f64,
    /// The queue clock the run re-queues with.
    pub queued_since: f64,
}

/// What became of the run at the head of the queue. Dollars are scaled
/// by the pool's price class.
#[derive(Debug, Clone, Copy)]
pub enum Launch {
    /// The wave does not fit its pool yet; the run keeps its place.
    QuotaStall,
    /// A fault stalls the run off the queue.
    Stalled(Stall),
    /// The run fails having billed `usd`: its wave can never fit its
    /// pool (`dequeue` is `None`), or the platform refused it.
    Failed { usd: f64, dequeue: Option<Dequeue> },
    /// The wave runs.
    Started { wave: Wave, dequeue: Dequeue },
}

/// A run that finished.
#[derive(Debug, Clone)]
pub struct Finished {
    /// The run's report.
    pub report: TrainingReport,
    /// The run's bill scaled by the pool's price class.
    pub usd: f64,
    /// The storage service of the run's final allocation.
    pub storage: StorageKind,
}

/// What became of a run whose wave completed.
#[derive(Debug, Clone)]
pub enum Landing {
    /// The run needs more epochs.
    Next,
    Finished(Finished),
    /// The run ran out of epochs without converging, having billed `usd`
    /// (scaled by the pool's price class).
    Failed {
        usd: f64,
    },
}

/// One [`AccountQuota`] per topology pool, with the pool's classes and
/// its time-weighted utilization, plus the fleet-clock fault timeline.
/// The quotas have no other owner: a caller that leases workers outside
/// a wave does so through [`Waves::quota_mut`].
#[derive(Debug)]
pub struct Waves {
    pools: Vec<NodePool>,
    quotas: Vec<AccountQuota>,
    /// Leased workers integrated over time, up to `last_s`.
    util_integral: f64,
    last_s: f64,
    faults: Option<CompiledSchedule>,
    /// Parent of the crash draws, one fork per attempt.
    rng: SimRng,
    attempts: u64,
}

impl Waves {
    /// Each pool of `topology` gets its own ceiling or `default_quota`;
    /// `chaos` is compiled against `rng`, which parents the crash draws.
    /// The caller's spec `validate()` has checked the pool count.
    pub fn new(
        topology: &Topology,
        default_quota: u32,
        chaos: Option<&FaultSchedule>,
        rng: SimRng,
    ) -> Self {
        let pools = &topology.pools;
        Waves {
            quotas: pools
                .iter()
                .map(|p| AccountQuota::new(p.quota.unwrap_or(default_quota)))
                .collect(),
            pools: pools.clone(),
            util_integral: 0.0,
            last_s: 0.0,
            faults: chaos.map(|s| s.compile(&rng)),
            rng,
            attempts: 0,
        }
    }

    /// Number of pools.
    pub fn pool_count(&self) -> usize {
        self.quotas.len()
    }

    /// Whether a real substrate (more than one pool) is modeled.
    pub fn multi_pool(&self) -> bool {
        self.quotas.len() > 1
    }

    /// Pool `pool`'s quota.
    pub fn quota(&self, pool: usize) -> &AccountQuota {
        &self.quotas[pool]
    }

    /// Pool `pool`'s quota, for leases the caller manages itself (a
    /// co-located fleet's serving workers).
    pub fn quota_mut(&mut self, pool: usize) -> &mut AccountQuota {
        &mut self.quotas[pool]
    }

    /// Workers leased across every pool.
    pub fn in_use(&self) -> u32 {
        self.quotas.iter().map(AccountQuota::in_use).sum()
    }

    /// Combined concurrency ceiling across every pool.
    pub fn limit(&self) -> u32 {
        self.quotas.iter().map(AccountQuota::limit).sum()
    }

    /// Sum of every pool's peak lease count.
    pub fn peak(&self) -> u32 {
        self.quotas.iter().map(AccountQuota::peak).sum()
    }

    /// Integrates the workers leased since the last call, up to `t`.
    pub fn advance(&mut self, t: f64) {
        self.util_integral += f64::from(self.in_use()) * (t - self.last_s);
        self.last_s = t;
    }

    /// Mean share of the combined ceiling leased over `[0, horizon_s]`.
    pub fn utilization(&self, horizon_s: f64) -> f64 {
        let limit = self.limit();
        if horizon_s > 0.0 && limit > 0 {
            self.util_integral / (horizon_s * f64::from(limit))
        } else {
            0.0
        }
    }

    /// What a placement policy sees of pool `p`: its classes, leases
    /// and ceiling, `queued` units waiting on it, and the bandwidth of
    /// the link its data would cross.
    pub fn pool_view(&self, p: usize, queued: u32, bandwidth_mbps: f64) -> PoolView {
        let pool = &self.pools[p];
        PoolView {
            rtt_ms: pool.rtt_ms,
            price_factor: pool.price_factor,
            compute_factor: pool.compute_factor,
            cold_factor: pool.cold_factor,
            bandwidth_mbps,
            inflight: self.quotas[p].in_use(),
            queued,
            capacity: self.quotas[p].limit(),
            warm_idle: 0,
            quota: pool.quota,
        }
    }

    /// The compiled fault timeline, if any.
    pub fn faults(&self) -> Option<&CompiledSchedule> {
        self.faults.as_ref()
    }

    /// Tries to launch `exec`'s next wave on `pool` at `t`, the run
    /// queued since `queued_since` (see the module docs).
    pub fn launch(
        &mut self,
        pool: usize,
        exec: &mut TrainingExecution,
        t: f64,
        queued_since: f64,
    ) -> Launch {
        let degrade = match self.fault_check(exec, t, queued_since) {
            Ok(degrade) => degrade,
            Err(stall) => return Launch::Stalled(stall),
        };
        let workers = exec.alloc().n;
        if let Err(e) = self.quotas[pool].try_acquire(workers) {
            if !e.is_structural() {
                return Launch::QuotaStall;
            }
            let usd = exec.report().cost_usd * self.pools[pool].price_factor;
            return Launch::Failed { usd, dequeue: None };
        }
        let wait_s = t - queued_since;
        let dequeue = Dequeue {
            wait_s,
            cold_resumed: wait_s > DEFAULT_TTL_S,
        };
        if dequeue.cold_resumed {
            exec.cool_down();
        }
        let storage = exec.alloc().storage;
        let Ok(step) = exec.step_epoch() else {
            self.quotas[pool].release(workers);
            let usd = exec.report().cost_usd * self.pools[pool].price_factor;
            return Launch::Failed {
                usd,
                dequeue: Some(dequeue),
            };
        };
        let wall_s = step.wall_s * self.pools[pool].compute_factor;
        Launch::Started {
            wave: Wave {
                step,
                workers,
                storage,
                wall_s,
                degrade,
            },
            dequeue,
        }
    }

    /// The fleet-clock fault check for a run queued since
    /// `queued_since`: the stall when a fault takes the run off the
    /// queue, else the `degrade:` factor of the wave's storage.
    fn fault_check(
        &mut self,
        exec: &mut TrainingExecution,
        t: f64,
        queued_since: f64,
    ) -> Result<f64, Stall> {
        let Some(faults) = self.faults.as_ref() else {
            return Ok(1.0);
        };
        let active = faults.active_at(t);
        if active.is_quiet() {
            return Ok(1.0);
        }
        let storage = exec.alloc().storage;
        if let Some(until_s) = active.outage_until(storage) {
            return Err(Stall {
                cause: StallCause::Outage { storage, until_s },
                resume_s: until_s.max(t),
                queued_since,
            });
        }
        if active.crash_rate > 0.0 {
            let mut draw = self.rng.derive_idx("attempt", self.attempts);
            self.attempts += 1;
            if draw.bernoulli(active.crash_rate) {
                let at_fraction = draw.uniform();
                let stall_s = exec.inject_worker_loss(at_fraction);
                return Err(Stall {
                    cause: StallCause::WorkerLoss {
                        at_fraction,
                        stall_s,
                    },
                    resume_s: t + stall_s,
                    queued_since: t + stall_s,
                });
            }
        }
        Ok(active.degrade_factor(storage))
    }

    /// A wave of `workers` on `pool` completed: the workers go back, and
    /// a run that is done is taken out of `exec` and finished.
    pub fn land(
        &mut self,
        pool: usize,
        workers: u32,
        exec: &mut Option<TrainingExecution>,
    ) -> Landing {
        self.quotas[pool].release(workers);
        let Some(run) = exec.take_if(|e| e.is_done()) else {
            return Landing::Next;
        };
        let price = self.pools[pool].price_factor;
        let storage = run.alloc().storage;
        let billed = run.report().cost_usd;
        match run.finish_quiet() {
            Ok(report) => Landing::Finished(Finished {
                usd: report.cost_usd * price,
                report,
                storage,
            }),
            Err(_) => Landing::Failed {
                usd: billed * price,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{training_job, FleetSpec, FLEET_METHOD};
    use ce_faas::PlatformConfig;
    use ce_workflow::TrainingJob;

    /// `clause` (with `{}` for the service) on every storage service.
    fn every_service(clause: &str) -> String {
        StorageKind::ALL
            .map(|k| clause.replace("{}", k.token()))
            .join(";")
    }

    /// The first job of a small fleet, its allocation grid capped at 8.
    fn job() -> TrainingJob {
        let fleet = FleetSpec::poisson(1, 1.0, 7);
        training_job(&fleet.generate()[0], &fleet.env, 8)
    }

    fn exec() -> TrainingExecution {
        TrainingExecution::start(job(), FLEET_METHOD).expect("job starts")
    }

    /// One pool of `quota` workers under `chaos`.
    fn waves(quota: u32, chaos: Option<&str>) -> Waves {
        let schedule = chaos.map(|s| FaultSchedule::parse(s).expect("valid schedule"));
        let rng = SimRng::new(1).derive("chaos");
        Waves::new(&Topology::single(), quota, schedule.as_ref(), rng)
    }

    #[test]
    fn a_wave_that_fits_starts_and_holds_its_workers() {
        let mut w = waves(64, None);
        let mut e = exec();
        let n = e.alloc().n;
        let storage = e.alloc().storage;
        let Launch::Started { wave, dequeue } = w.launch(0, &mut e, 10.0, 4.0) else {
            panic!("an idle pool starts the wave");
        };
        assert_eq!(
            (wave.workers, wave.storage, wave.step.epoch),
            (n, storage, 1)
        );
        assert_eq!(wave.wall_s, wave.step.wall_s);
        assert_eq!(dequeue.wait_s, 6.0);
        assert!(!dequeue.cold_resumed);
        assert_eq!(w.in_use(), n);
    }

    #[test]
    fn quiet_instants_and_zero_crash_rates_draw_nothing() {
        // Quiet at t = 10: the crash window opens later.
        let mut w = waves(64, Some("crash:1@100..200"));
        assert!(matches!(
            w.launch(0, &mut exec(), 10.0, 10.0),
            Launch::Started { .. }
        ));
        assert_eq!(w.attempts, 0);
        // Not quiet (every service degrades), but no crash rate.
        let mut w = waves(64, Some(&every_service("degrade:{}:x2@0..inf")));
        assert!(!w.faults().expect("compiled").active_at(10.0).is_quiet());
        assert!(matches!(
            w.launch(0, &mut exec(), 10.0, 10.0),
            Launch::Started { .. }
        ));
        assert_eq!(w.attempts, 0);
    }

    #[test]
    fn an_outage_on_the_wave_storage_stalls_it_without_a_draw() {
        let dark = every_service("outage:{}@0..100");
        let mut w = waves(64, Some(&format!("{dark};crash:1@0..inf")));
        let mut e = exec();
        let Launch::Stalled(Stall {
            cause: StallCause::Outage { storage, until_s },
            resume_s,
            ..
        }) = w.launch(0, &mut e, 10.0, 0.0)
        else {
            panic!("every service is dark");
        };
        assert_eq!((storage, until_s), (e.alloc().storage, 100.0));
        assert_eq!(resume_s, 100.0);
        assert_eq!((w.attempts, w.in_use(), e.report().epochs), (0, 0, 0));
    }

    #[test]
    fn an_outage_stall_keeps_the_queue_clock_running() {
        let mut w = waves(64, Some(&every_service("outage:{}@0..100")));
        let Launch::Stalled(stall) = w.launch(0, &mut exec(), 10.0, 3.0) else {
            panic!("every service is dark");
        };
        assert_eq!(stall.queued_since, 3.0);
        // Waiting out the outage expires the warm pool: the queue wait
        // at the resume counts from the original stamp.
        let mut w = waves(64, Some(&every_service("outage:{}@0..700")));
        let mut e = exec();
        let Launch::Stalled(stall) = w.launch(0, &mut e, 0.0, 0.0) else {
            panic!("every service is dark");
        };
        let Launch::Started { dequeue, .. } =
            w.launch(0, &mut e, stall.resume_s, stall.queued_since)
        else {
            panic!("the outage has lifted");
        };
        assert_eq!(dequeue.wait_s, 700.0);
        assert!(dequeue.cold_resumed);
    }

    #[test]
    fn a_crash_draw_kills_the_wave_and_advances_the_attempt_counter() {
        let mut w = waves(64, Some("crash:1@0..inf"));
        let mut e = exec();
        for attempt in 1..=2 {
            let Launch::Stalled(Stall {
                cause:
                    StallCause::WorkerLoss {
                        at_fraction,
                        stall_s,
                    },
                resume_s,
                queued_since,
            }) = w.launch(0, &mut e, 10.0, 0.0)
            else {
                panic!("a certain crash kills every wave");
            };
            assert!((0.0..1.0).contains(&at_fraction));
            assert!(stall_s > 0.0);
            // The stall is charged to JCT: the clock restarts at the resume.
            assert_eq!((resume_s, queued_since), (10.0 + stall_s, 10.0 + stall_s));
            assert_eq!((w.attempts, w.in_use()), (attempt, 0));
        }
    }

    #[test]
    fn a_started_wave_carries_its_storage_degrade_factor() {
        let degrade = every_service("degrade:{}:x3@0..100");
        let mut w = waves(64, Some(&degrade));
        let Launch::Started { wave, .. } = w.launch(0, &mut exec(), 10.0, 10.0) else {
            panic!("a degrade window does not stall the wave");
        };
        assert_eq!(wave.degrade, 3.0);
        // Quiet once the window closes.
        let mut w = waves(64, Some(&degrade));
        let Launch::Started { wave, .. } = w.launch(0, &mut exec(), 150.0, 150.0) else {
            panic!("an idle pool starts the wave");
        };
        assert_eq!(wave.degrade, 1.0);
    }

    #[test]
    fn a_wave_that_does_not_fit_yet_keeps_its_place() {
        let mut w = waves(8, None);
        let mut e = exec();
        // Leave one worker fewer free than the wave needs.
        w.quota_mut(0).try_acquire(9 - e.alloc().n).unwrap();
        assert!(matches!(w.launch(0, &mut e, 0.0, 0.0), Launch::QuotaStall));
        assert_eq!((w.in_use(), e.report().epochs), (9 - e.alloc().n, 0));
    }

    #[test]
    fn a_wave_that_can_never_fit_fails_with_the_price_scaled_bill() {
        let mut topology = Topology::single();
        topology.pools[0].price_factor = 0.5;
        let mut w = Waves::new(&topology, 0, None, SimRng::new(1));
        let mut e = exec();
        let Launch::Failed { usd, dequeue: None } = w.launch(0, &mut e, 0.0, 0.0) else {
            panic!("a zero quota never fits");
        };
        assert_eq!(usd, e.report().cost_usd * 0.5);
    }

    #[test]
    fn a_refused_wave_gives_its_workers_back() {
        let platform = PlatformConfig {
            max_concurrency: 0,
            ..PlatformConfig::default()
        };
        let mut e = TrainingExecution::start(job().with_platform_config(platform), FLEET_METHOD)
            .expect("job starts");
        let mut w = waves(64, None);
        let Launch::Failed {
            usd,
            dequeue: Some(dequeue),
        } = w.launch(0, &mut e, 700.0, 0.0)
        else {
            panic!("the platform refuses every wave");
        };
        assert_eq!(usd, e.report().cost_usd);
        assert!(dequeue.cold_resumed);
        assert_eq!(w.in_use(), 0);
    }

    #[test]
    fn a_wait_past_the_keep_alive_cold_starts_the_wave() {
        // The second wave after a wait of `wait_s`: the first one leaves
        // the run's pool warm.
        let second = |wait_s: f64| {
            let mut w = waves(64, None);
            let mut run = Some(exec());
            let e = run.as_mut().expect("fresh run");
            let Launch::Started { wave, .. } = w.launch(0, e, 0.0, 0.0) else {
                panic!("an idle pool starts the wave");
            };
            assert!(matches!(w.land(0, wave.workers, &mut run), Landing::Next));
            let e = run.as_mut().expect("the run continues");
            let Launch::Started { wave, dequeue } = w.launch(0, e, 1000.0, 1000.0 - wait_s) else {
                panic!("an idle pool starts the wave");
            };
            (dequeue.cold_resumed, wave.step.cold_starts)
        };
        let (warm, warm_starts) = second(DEFAULT_TTL_S);
        let (cold, cold_starts) = second(DEFAULT_TTL_S + 1.0);
        assert!(!warm && cold);
        assert!(cold_starts > warm_starts, "{cold_starts} vs {warm_starts}");
    }

    #[test]
    fn landing_returns_the_workers_and_finishes_a_done_run() {
        let mut topology = Topology::single();
        topology.pools[0].price_factor = 0.5;
        topology.pools[0].compute_factor = 2.0;
        let mut w = Waves::new(&topology, 64, None, SimRng::new(1));
        let mut run = Some(exec());
        let landing = loop {
            let e = run.as_mut().expect("the run continues");
            let Launch::Started { wave, .. } = w.launch(0, e, 0.0, 0.0) else {
                panic!("an idle pool starts the wave");
            };
            assert_eq!(wave.wall_s, wave.step.wall_s * 2.0);
            match w.land(0, wave.workers, &mut run) {
                Landing::Next => assert!(run.is_some()),
                done => break done,
            }
            assert_eq!(w.in_use(), 0);
        };
        assert!(run.is_none(), "a finished run leaves its slot");
        assert_eq!(w.in_use(), 0);
        let Landing::Finished(done) = landing else {
            panic!("the job converges: {landing:?}");
        };
        assert_eq!(done.usd, done.report.cost_usd * 0.5);
    }

    #[test]
    fn pools_report_views_totals_and_utilization() {
        let mut w = Waves::new(&Topology::edge_cloud(), 40, None, SimRng::new(1));
        assert!(w.multi_pool());
        assert_eq!((w.pool_count(), w.limit()), (2, 8 + 40));
        w.quota_mut(0).try_acquire(6).unwrap();
        let view = w.pool_view(0, 3, 7.0);
        assert_eq!((view.inflight, view.queued, view.capacity), (6, 3, 8));
        assert_eq!((view.bandwidth_mbps, view.quota), (7.0, Some(8)));
        w.advance(4.0);
        w.quota_mut(0).release(6);
        w.advance(8.0);
        assert_eq!(w.utilization(8.0), 24.0 / (8.0 * 48.0));
        assert_eq!(w.utilization(0.0), 0.0);
        assert_eq!(w.peak(), 6);
    }
}
