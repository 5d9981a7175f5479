//! Both fleets' one head-of-line training queue, and what a fault on the
//! fleet clock does to the epoch waves it launches.
//!
//! The paper's Algorithm 2 re-plans a training job one epoch at a time;
//! both fleet simulators ([`ClusterSim`](crate::ClusterSim) and
//! ce-lifecycle's co-located fleet) queue their runs in a [`TrainQueue`],
//! which steps each [`TrainingExecution`] wave by wave against one
//! [`AccountQuota`] per topology pool, hands the fleet's event loop typed
//! [`Dispatch`] instructions, and rolls back a wave killed in flight.
//! The fleets differ only in their [`PickRule`]; metric names, events
//! and outcomes stay with each fleet. Launching the run at the head of
//! the queue goes: (1) in a non-quiet instant of the fleet-clock fault
//! timeline, an outage on the wave's storage stalls the run, else a
//! crash draw keyed by a monotone attempt counter may kill the wave;
//! (2) a wave that can never fit its pool fails the run, one that does
//! not fit yet stalls the queue (head-of-line, so wide waves are not
//! starved); (3) a queue wait past the platform keep-alive
//! ([`DEFAULT_TTL_S`]) cold-starts the wave; (4) the epoch steps, and
//! the workers go back if the platform refuses.
//!
//! Every fault rule lives here. A [`Stall`] names the instant the run
//! re-queues: a worker loss has already charged its wasted work, restore
//! and backoff to the run's JCT, so its queue clock restarts at the
//! resume; an outage charges nothing, so the clock keeps running through
//! it, and an outage longer than the keep-alive resumes cold (idle time
//! expires an instance whatever made it idle). A started [`Wave`]'s sync
//! stretches by the `degrade:` factor of its storage at launch.

use ce_chaos::{CompiledSchedule, FaultSchedule};
use ce_faas::keepalive::DEFAULT_TTL_S;
use ce_faas::AccountQuota;
use ce_sim_core::rng::SimRng;
use ce_storage::StorageKind;
use ce_topo::{NodePool, PoolView, Topology};
use ce_workflow::{EpochStep, TrainingExecution, TrainingReport};
use std::collections::VecDeque;

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
    /// The sync stretch charged to the run (see [`TrainQueue::next`]).
    pub stretch_s: f64,
    /// When the wave started.
    pub started_s: f64,
    /// How the run left the queue to start it.
    pub dequeue: Dequeue,
}

/// Why a fault took a run off the queue (see the module docs).
#[derive(Debug, Clone, Copy)]
pub enum Stall {
    /// `storage` is dark until `until_s`.
    Outage { storage: StorageKind, until_s: f64 },
    /// A crash killed the wave at `at_fraction` of its epoch; the run
    /// absorbed it per its recovery policy, charging `stall_s` to its
    /// JCT.
    WorkerLoss { at_fraction: f64, stall_s: f64 },
}

impl Stall {
    /// When a run this stall took off the queue at `t` re-queues.
    pub fn resume_s(&self, t: f64) -> f64 {
        match *self {
            Stall::Outage { until_s, .. } => until_s.max(t),
            Stall::WorkerLoss { stall_s, .. } => t + stall_s,
        }
    }
}

/// What the fleet's event loop does after one launch of the queue's
/// head. Dollars are scaled by the pool's price class.
#[derive(Debug, Clone, Copy)]
pub enum Dispatch {
    /// The head's wave does not fit its pool yet: it keeps its place,
    /// and the queue idles until the next event.
    QuotaStall,
    /// A fault took the run off the queue: schedule its resume at
    /// [`Stall::resume_s`].
    Resume(Stall),
    /// The run's wave started: schedule its landing, tagged `attempt`,
    /// `wave.wall_s + wave.stretch_s` after `wave.started_s`.
    Land { attempt: u64, wave: Wave },
    /// The run failed having billed `usd`: its wave can never fit its
    /// pool (`dequeue` is `None`), or the platform refused it.
    Failed { usd: f64, dequeue: Option<Dequeue> },
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
    /// The run needs more epochs; it is queued again.
    Next,
    Finished(Finished),
    /// The run ran out of epochs without converging, having billed `usd`
    /// (scaled by the pool's price class).
    Failed {
        usd: f64,
    },
}

/// A wave killed in flight (see [`TrainQueue::rollback`]).
#[derive(Debug, Clone, Copy)]
pub struct Rollback {
    /// The wave, its workers given back.
    pub wave: Wave,
    /// How far into its wall clock the wave was killed.
    pub at_fraction: f64,
    /// The stall charged to the run's JCT, after which it re-queues.
    pub stall_s: f64,
}

/// How a fleet orders its ready runs: the one rule in which the two
/// fleets differ. Generic, so the per-event path makes no `dyn` call.
pub trait PickRule {
    /// The ready order the rule keeps inside the [`TrainQueue`].
    type Ready;
    /// Adds `run`, its next wave `workers` wide, queued since
    /// `queued_since`.
    fn push(&self, ready: &mut Self::Ready, run: usize, workers: u32, queued_since: f64);
    /// The ready run to launch at `t`, or `None` to idle until the next
    /// event.
    fn head(&self, queue: &TrainQueue<Self::Ready>, t: f64) -> Option<usize>;
    /// Takes `run`, which [`Self::head`] just named, out of the order.
    fn remove(&self, ready: &mut Self::Ready, run: usize);
}

/// First in, first out: runs launch in the order they became ready.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoOrder;

impl PickRule for FifoOrder {
    type Ready = VecDeque<usize>;

    fn push(&self, ready: &mut VecDeque<usize>, run: usize, _: u32, _: f64) {
        ready.push_back(run);
    }

    fn head(&self, queue: &TrainQueue<VecDeque<usize>>, _: f64) -> Option<usize> {
        queue.ready.front().copied()
    }

    fn remove(&self, ready: &mut VecDeque<usize>, run: usize) {
        let head = ready.pop_front();
        debug_assert_eq!(head, Some(run), "only the head leaves a FIFO");
    }
}

/// Where a run of a [`TrainQueue`] stands.
#[derive(Debug, Clone, Copy, Default)]
enum RunState {
    /// No run, or it finished or failed.
    #[default]
    Idle,
    /// In the ready order.
    Ready,
    /// Its wave is in flight.
    Running(Wave),
    /// Off the queue until its resume.
    Stalled,
}

#[derive(Default)]
struct Run {
    exec: Option<TrainingExecution>,
    pool: usize,
    queued_since: f64,
    attempt: u64,
    state: RunState,
}

impl Run {
    /// Drops the run, its bill scaled by `pool`'s price class.
    fn fail(&mut self, pool: &NodePool, dequeue: Option<Dequeue>) -> Dispatch {
        let exec = self.exec.take().expect("a failing run has an execution");
        self.state = RunState::Idle;
        let usd = exec.report().cost_usd * pool.price_factor;
        Dispatch::Failed { usd, dequeue }
    }
}

/// The fleet-clock fault timeline and the crash draws against it.
struct Faults {
    schedule: Option<CompiledSchedule>,
    /// Parent of the crash draws, one fork per attempt.
    rng: SimRng,
    attempts: u64,
}

impl Faults {
    /// The stall when a fault at `t` takes `exec`'s run off the queue,
    /// else the `degrade:` factor of the wave's storage.
    fn check(&mut self, exec: &mut TrainingExecution, t: f64) -> Result<f64, Stall> {
        let Some(schedule) = self.schedule.as_ref() else {
            return Ok(1.0);
        };
        let active = schedule.active_at(t);
        if active.is_quiet() {
            return Ok(1.0);
        }
        let storage = exec.alloc().storage;
        if let Some(until_s) = active.outage_until(storage) {
            return Err(Stall::Outage { storage, until_s });
        }
        if active.crash_rate > 0.0 {
            let mut draw = self.rng.derive_idx("attempt", self.attempts);
            self.attempts += 1;
            if draw.bernoulli(active.crash_rate) {
                let at_fraction = draw.uniform();
                let stall_s = exec.inject_worker_loss(at_fraction);
                return Err(Stall::WorkerLoss {
                    at_fraction,
                    stall_s,
                });
            }
        }
        Ok(active.degrade_factor(storage))
    }
}

/// Both fleets' head-of-line training queue (see the module docs): the
/// runs, which the fleet numbers (job or tenant index), their ready
/// order `R`, one [`AccountQuota`] per topology pool and the fault
/// timeline. The quotas have no other owner: a fleet leases workers
/// outside a wave through [`Self::quota_mut`].
pub struct TrainQueue<R> {
    pools: Vec<NodePool>,
    quotas: Vec<AccountQuota>,
    /// Leased workers integrated over time, up to `last_s`.
    util_integral: f64,
    last_s: f64,
    faults: Faults,
    runs: Vec<Run>,
    ready: R,
}

impl<R> TrainQueue<R> {
    /// An empty queue keeping its ready runs in `ready`. Each pool of
    /// `topology` (as validated by the caller's spec) gets its own ceiling
    /// or `default_quota`; `chaos` is compiled against `rng`, which
    /// parents the crash draws.
    pub fn new(
        topology: &Topology,
        default_quota: u32,
        chaos: Option<&FaultSchedule>,
        rng: SimRng,
        ready: R,
    ) -> Self {
        let pools = &topology.pools;
        TrainQueue {
            quotas: pools
                .iter()
                .map(|p| AccountQuota::new(p.quota.unwrap_or(default_quota)))
                .collect(),
            pools: pools.clone(),
            util_integral: 0.0,
            last_s: 0.0,
            faults: Faults {
                schedule: chaos.map(|s| s.compile(&rng)),
                rng,
                attempts: 0,
            },
            runs: Vec::new(),
            ready,
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

    /// Pool `pool`'s quota, for leases the fleet manages itself (a
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
        self.faults.schedule.as_ref()
    }

    /// The ready order.
    pub fn ready(&self) -> &R {
        &self.ready
    }

    /// Runs in the ready order, per pool.
    pub fn queued_by_pool(&self) -> Vec<u32> {
        let mut queued = vec![0; self.pool_count()];
        for run in &self.runs {
            queued[run.pool] += u32::from(matches!(run.state, RunState::Ready));
        }
        queued
    }

    /// `run`'s execution, while it is queued, stalled or in flight.
    pub fn exec(&self, run: usize) -> Option<&TrainingExecution> {
        self.runs.get(run)?.exec.as_ref()
    }

    /// The pool `run` last started on.
    pub fn pool(&self, run: usize) -> usize {
        self.runs[run].pool
    }

    /// `run`'s wave in flight, if it has one.
    pub fn in_flight(&self, run: usize) -> Option<&Wave> {
        match &self.runs.get(run)?.state {
            RunState::Running(wave) => Some(wave),
            _ => None,
        }
    }

    /// Queues `exec` as `run` on `pool` at `t`.
    pub fn start<P: PickRule<Ready = R>>(
        &mut self,
        pick: &P,
        run: usize,
        pool: usize,
        exec: TrainingExecution,
        t: f64,
    ) {
        if run >= self.runs.len() {
            self.runs.resize_with(run + 1, Run::default);
        }
        let r = &mut self.runs[run];
        (r.exec, r.pool, r.queued_since) = (Some(exec), pool, t);
        self.enqueue(pick, run);
    }

    /// `run`'s stall is over: it re-queues with the queue clock the
    /// stall left it.
    pub fn resume<P: PickRule<Ready = R>>(&mut self, pick: &P, run: usize) {
        if let RunState::Stalled = self.runs[run].state {
            self.enqueue(pick, run);
        }
    }

    fn enqueue<P: PickRule<Ready = R>>(&mut self, pick: &P, run: usize) {
        let r = &mut self.runs[run];
        r.state = RunState::Ready;
        let exec = r.exec.as_ref().expect("a queued run has an execution");
        pick.push(&mut self.ready, run, exec.alloc().n, r.queued_since);
    }

    /// Launches the run `pick` names at `t`, if it names one (see the
    /// module docs), and returns it with what the fleet does next. A
    /// started wave's sync stretches by
    /// `(contention − 1 + (degrade − 1)) × sync_s`, where `contention`
    /// is the fleet's factor for the wave's storage.
    pub fn next<P: PickRule<Ready = R>>(
        &mut self,
        pick: &P,
        t: f64,
        contention: impl FnOnce(StorageKind) -> f64,
    ) -> Option<(usize, Dispatch)> {
        let i = pick.head(self, t)?;
        let dispatch = self.launch(i, t, contention);
        if !matches!(dispatch, Dispatch::QuotaStall) {
            pick.remove(&mut self.ready, i);
        }
        Some((i, dispatch))
    }

    fn launch(&mut self, i: usize, t: f64, factor: impl FnOnce(StorageKind) -> f64) -> Dispatch {
        let run = &mut self.runs[i];
        let exec = run.exec.as_mut().expect("a queued run has an execution");
        debug_assert!(!exec.is_done(), "a run that is done is launched again");
        let degrade = match self.faults.check(exec, t) {
            Ok(degrade) => degrade,
            Err(stall) => {
                if let Stall::WorkerLoss { .. } = stall {
                    run.queued_since = stall.resume_s(t);
                }
                run.state = RunState::Stalled;
                return Dispatch::Resume(stall);
            }
        };
        let (quota, pool) = (&mut self.quotas[run.pool], &self.pools[run.pool]);
        let workers = exec.alloc().n;
        if let Err(e) = quota.try_acquire(workers) {
            if !e.is_structural() {
                return Dispatch::QuotaStall;
            }
            return run.fail(pool, None);
        }
        let wait_s = t - run.queued_since;
        let dequeue = Dequeue {
            wait_s,
            cold_resumed: wait_s > DEFAULT_TTL_S,
        };
        if dequeue.cold_resumed {
            exec.cool_down();
        }
        let storage = exec.alloc().storage;
        let Ok(step) = exec.step_epoch() else {
            quota.release(workers);
            return run.fail(pool, Some(dequeue));
        };
        let stretch_s = (factor(storage) - 1.0 + (degrade - 1.0)) * step.sync_s;
        exec.charge_contention(stretch_s);
        let wave = Wave {
            step,
            workers,
            storage,
            wall_s: step.wall_s * pool.compute_factor,
            degrade,
            stretch_s,
            started_s: t,
            dequeue,
        };
        run.attempt += 1;
        run.state = RunState::Running(wave);
        Dispatch::Land {
            attempt: run.attempt,
            wave,
        }
    }

    /// `run`'s wave tagged `attempt` lands at `t`; `None` if a rollback
    /// killed it after its landing was scheduled. The workers go back,
    /// and a run that is done finishes; one that is not re-queues, its
    /// queue clock at `t`.
    pub fn land<P: PickRule<Ready = R>>(
        &mut self,
        pick: &P,
        run: usize,
        attempt: u64,
        t: f64,
    ) -> Option<(Wave, Landing)> {
        let r = &mut self.runs[run];
        if attempt != r.attempt {
            return None;
        }
        let RunState::Running(wave) = std::mem::take(&mut r.state) else {
            unreachable!("the current attempt has a wave in flight");
        };
        self.quotas[r.pool].release(wave.workers);
        let price = self.pools[r.pool].price_factor;
        let Some(done) = r.exec.take_if(|e| e.is_done()) else {
            r.queued_since = t;
            self.enqueue(pick, run);
            return Some((wave, Landing::Next));
        };
        let (storage, billed) = (done.alloc().storage, done.report().cost_usd);
        let landing = match done.finish_quiet() {
            Ok(report) => Landing::Finished(Finished {
                usd: report.cost_usd * price,
                report,
                storage,
            }),
            Err(_) => Landing::Failed {
                usd: billed * price,
            },
        };
        Some((wave, landing))
    }

    /// Kills `run`'s wave in flight at `t`: the workers go back, the
    /// attempt moves on so the wave's landing is ignored, and the run
    /// rolls back as for a worker loss
    /// ([`TrainingExecution::inject_worker_loss`]), to re-queue at
    /// `t + stall_s` with its queue clock restarted there.
    pub fn rollback(&mut self, run: usize, t: f64) -> Rollback {
        let r = &mut self.runs[run];
        let RunState::Running(wave) = r.state else {
            unreachable!("a rollback kills a wave in flight");
        };
        self.quotas[r.pool].release(wave.workers);
        r.attempt += 1;
        let wall_s = wave.wall_s + wave.stretch_s;
        let at_fraction = if wall_s > 0.0 {
            ((t - wave.started_s) / wall_s).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let exec = r.exec.as_mut().expect("a wave in flight has an execution");
        let stall_s = exec.inject_worker_loss(at_fraction);
        (r.queued_since, r.state) = (t + stall_s, RunState::Stalled);
        Rollback {
            wave,
            at_fraction,
            stall_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{training_job, FleetSpec, FLEET_METHOD};
    use ce_faas::PlatformConfig;
    use ce_workflow::TrainingJob;

    type Fifo = TrainQueue<VecDeque<usize>>;

    /// `clause` (with `{}` for the service) on every storage service.
    fn every_service(clause: &str) -> String {
        StorageKind::ALL
            .map(|k| clause.replace("{}", k.token()))
            .join(";")
    }

    /// The first job of a small fleet, its allocation grid capped at `cap`.
    fn job(cap: u32) -> TrainingJob {
        let fleet = FleetSpec::poisson(1, 1.0, 7);
        training_job(&fleet.generate()[0], &fleet.env, cap)
    }

    fn exec() -> TrainingExecution {
        TrainingExecution::start(job(8), FLEET_METHOD).expect("job starts")
    }

    /// An empty FIFO queue over one pool of `quota` workers under
    /// `chaos`.
    fn one_pool(quota: u32, chaos: Option<&str>) -> Fifo {
        let schedule = chaos.map(|s| FaultSchedule::parse(s).expect("valid schedule"));
        let rng = SimRng::new(1).derive("chaos");
        TrainQueue::new(
            &Topology::single(),
            quota,
            schedule.as_ref(),
            rng,
            VecDeque::new(),
        )
    }

    /// An empty FIFO queue over `topology`'s pools, each of `quota`
    /// workers unless it has its own.
    fn pools(topology: &Topology, quota: u32) -> Fifo {
        TrainQueue::new(topology, quota, None, SimRng::new(1), VecDeque::new())
    }

    /// `q` holding `exec` as run 0 on pool 0, queued since `t`.
    fn queue(mut q: Fifo, exec: TrainingExecution, t: f64) -> Fifo {
        q.start(&FifoOrder, 0, 0, exec, t);
        q
    }

    /// Launches the head at `t` with no storage contention.
    fn next(q: &mut Fifo, t: f64) -> Option<(usize, Dispatch)> {
        q.next(&FifoOrder, t, |_| 1.0)
    }

    /// Launches the head at `t` and expects its wave to start.
    fn started(q: &mut Fifo, t: f64) -> (u64, Wave, Dequeue) {
        match next(q, t) {
            Some((0, Dispatch::Land { attempt, wave })) => (attempt, wave, wave.dequeue),
            other => panic!("the wave should start: {other:?}"),
        }
    }

    /// Launches the head at `t` and expects a fault to stall it.
    fn stalled(q: &mut Fifo, t: f64) -> Stall {
        match next(q, t) {
            Some((0, Dispatch::Resume(stall))) => stall,
            other => panic!("a fault should stall the run: {other:?}"),
        }
    }

    #[test]
    fn a_wave_that_fits_starts_and_holds_its_workers() {
        let e = exec();
        let (n, storage) = (e.alloc().n, e.alloc().storage);
        let mut q = queue(one_pool(64, None), e, 4.0);
        let (attempt, wave, dequeue) = started(&mut q, 10.0);
        assert_eq!(
            (wave.workers, wave.storage, wave.step.epoch),
            (n, storage, 1)
        );
        assert_eq!((wave.wall_s, wave.started_s), (wave.step.wall_s, 10.0));
        assert_eq!((attempt, wave.degrade, wave.stretch_s), (1, 1.0, 0.0));
        assert_eq!(dequeue.wait_s, 6.0);
        assert!(!dequeue.cold_resumed);
        assert_eq!((q.in_use(), q.ready().len()), (n, 0));
        assert!(matches!(q.runs[0].state, RunState::Running(w) if w.workers == n));
    }

    #[test]
    fn quiet_instants_and_zero_crash_rates_draw_nothing() {
        // Quiet at t = 10: the crash window opens later.
        let mut q = queue(one_pool(64, Some("crash:1@100..200")), exec(), 10.0);
        started(&mut q, 10.0);
        assert_eq!(q.faults.attempts, 0);
        // Not quiet (every service degrades), but no crash rate.
        let degrade = every_service("degrade:{}:x2@0..inf");
        let mut q = queue(one_pool(64, Some(&degrade)), exec(), 10.0);
        assert!(!q.faults().expect("compiled").active_at(10.0).is_quiet());
        started(&mut q, 10.0);
        assert_eq!(q.faults.attempts, 0);
    }

    #[test]
    fn an_outage_on_the_wave_storage_stalls_it_without_a_draw() {
        let dark = every_service("outage:{}@0..100");
        let e = exec();
        let storage = e.alloc().storage;
        let mut q = queue(
            one_pool(64, Some(&format!("{dark};crash:1@0..inf"))),
            e,
            0.0,
        );
        let stall = stalled(&mut q, 10.0);
        let Stall::Outage {
            storage: s,
            until_s,
        } = stall
        else {
            panic!("every service is dark");
        };
        assert_eq!((s, until_s, stall.resume_s(10.0)), (storage, 100.0, 100.0));
        let epochs = q.exec(0).expect("stalled").report().epochs;
        assert_eq!((q.faults.attempts, q.in_use(), epochs), (0, 0, 0));
    }

    #[test]
    fn a_fault_stall_takes_the_run_off_the_queue_until_its_resume() {
        let mut q = queue(
            one_pool(64, Some(&every_service("outage:{}@0..100"))),
            exec(),
            3.0,
        );
        let stall = stalled(&mut q, 10.0);
        assert_eq!(stall.resume_s(10.0), 100.0);
        assert!(matches!(q.runs[0].state, RunState::Stalled));
        assert!(q.ready().is_empty());
        assert!(
            next(&mut q, 10.0).is_none(),
            "a stalled run is off the queue"
        );
        q.resume(&FifoOrder, 0);
        assert!(matches!(q.runs[0].state, RunState::Ready));
        // The outage charged nothing: the queue clock kept running.
        assert_eq!(q.runs[0].queued_since, 3.0);
        assert_eq!(started(&mut q, 100.0).2.wait_s, 97.0);
    }

    #[test]
    fn an_outage_stall_keeps_the_queue_clock_running() {
        let mut q = queue(
            one_pool(64, Some(&every_service("outage:{}@0..700"))),
            exec(),
            0.0,
        );
        let resume_s = stalled(&mut q, 0.0).resume_s(0.0);
        q.resume(&FifoOrder, 0);
        let (_, _, dequeue) = started(&mut q, resume_s);
        assert_eq!(dequeue.wait_s, 700.0);
        assert!(dequeue.cold_resumed);
    }

    #[test]
    fn a_crash_draw_kills_the_wave_and_advances_the_attempt_counter() {
        let mut q = queue(one_pool(64, Some("crash:1@0..inf")), exec(), 0.0);
        for attempt in 1..=2 {
            let stall = stalled(&mut q, 10.0);
            let Stall::WorkerLoss {
                at_fraction,
                stall_s,
            } = stall
            else {
                panic!("a certain crash kills every wave");
            };
            assert!((0.0..1.0).contains(&at_fraction));
            assert!(stall_s > 0.0);
            // The stall is charged to JCT: the clock restarts at the resume.
            let resume_s = stall.resume_s(10.0);
            assert_eq!(
                (resume_s, q.runs[0].queued_since),
                (10.0 + stall_s, 10.0 + stall_s)
            );
            assert_eq!((q.faults.attempts, q.in_use()), (attempt, 0));
            q.resume(&FifoOrder, 0);
        }
    }

    #[test]
    fn a_started_wave_stretches_by_its_contention_and_storage_degrade() {
        let degrade = every_service("degrade:{}:x3@0..100");
        let mut q = queue(one_pool(64, Some(&degrade)), exec(), 10.0);
        let (_, wave, _) = started(&mut q, 10.0);
        assert_eq!(wave.degrade, 3.0);
        assert_eq!(wave.stretch_s, 2.0 * wave.step.sync_s);
        // Quiet once the window closes; the fleet's contention alone
        // stretches the wave.
        let mut q = queue(one_pool(64, Some(&degrade)), exec(), 150.0);
        let Some((_, Dispatch::Land { wave, .. })) = q.next(&FifoOrder, 150.0, |_| 1.5) else {
            panic!("an idle pool starts the wave");
        };
        assert_eq!(wave.degrade, 1.0);
        assert_eq!(wave.stretch_s, 0.5 * wave.step.sync_s);
    }

    #[test]
    fn a_quota_stalled_head_keeps_its_place_and_blocks_the_runs_behind_it() {
        let narrow = TrainingExecution::start(job(1), FLEET_METHOD).expect("job starts");
        let mut q = queue(one_pool(9, None), exec(), 0.0);
        q.start(&FifoOrder, 1, 0, narrow, 1.0);
        let wide = q.exec(0).expect("queued").alloc().n;
        assert!(wide > 1, "the head is wider than the run behind it");
        // One worker fewer free than the head needs: the narrow run
        // behind it would fit, but waits its turn.
        q.quota_mut(0).try_acquire(10 - wide).unwrap();
        for _ in 0..2 {
            assert!(matches!(next(&mut q, 5.0), Some((0, Dispatch::QuotaStall))));
            assert_eq!(q.ready(), &VecDeque::from([0, 1]));
            assert!(matches!(q.runs[0].state, RunState::Ready));
        }
        let epochs = q.exec(0).expect("queued").report().epochs;
        assert_eq!((q.in_use(), epochs), (10 - wide, 0));
        q.quota_mut(0).release(10 - wide);
        assert_eq!(started(&mut q, 6.0).2.wait_s, 6.0);
        assert!(matches!(
            next(&mut q, 6.0),
            Some((1, Dispatch::Land { .. }))
        ));
        assert!(next(&mut q, 6.0).is_none());
    }

    #[test]
    fn a_wave_that_can_never_fit_fails_with_the_price_scaled_bill() {
        let mut topology = Topology::single();
        topology.pools[0].price_factor = 0.5;
        let e = exec();
        let billed = e.report().cost_usd;
        let mut q = queue(pools(&topology, 0), e, 0.0);
        let Some((0, Dispatch::Failed { usd, dequeue: None })) = next(&mut q, 0.0) else {
            panic!("a zero quota never fits");
        };
        assert_eq!(usd, billed * 0.5);
        assert!(q.exec(0).is_none() && matches!(q.runs[0].state, RunState::Idle));
    }

    #[test]
    fn a_refused_wave_gives_its_workers_back() {
        let platform = PlatformConfig {
            max_concurrency: 0,
            ..PlatformConfig::default()
        };
        let refused = || {
            let job = job(8).with_platform_config(platform);
            TrainingExecution::start(job, FLEET_METHOD).expect("job starts")
        };
        // What the refused run has billed, stepped by hand.
        let mut twin = refused();
        twin.cool_down();
        assert!(
            twin.step_epoch().is_err(),
            "the platform refuses every wave"
        );
        let mut q = queue(one_pool(64, None), refused(), 0.0);
        let Some((
            0,
            Dispatch::Failed {
                usd,
                dequeue: Some(dequeue),
            },
        )) = next(&mut q, 700.0)
        else {
            panic!("the platform refuses every wave");
        };
        assert_eq!(usd, twin.report().cost_usd);
        assert!(dequeue.cold_resumed);
        assert_eq!(q.in_use(), 0);
    }

    #[test]
    fn a_wait_past_the_keep_alive_cold_starts_the_wave() {
        // The second wave after a wait of `wait_s`: the first one leaves
        // the run's pool warm.
        let second = |wait_s: f64| {
            let mut q = queue(one_pool(64, None), exec(), 0.0);
            let (attempt, _, _) = started(&mut q, 0.0);
            let landed = q.land(&FifoOrder, 0, attempt, 1000.0 - wait_s);
            assert!(matches!(landed, Some((_, Landing::Next))));
            let (_, wave, dequeue) = started(&mut q, 1000.0);
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
        let mut q = queue(pools(&topology, 64), exec(), 0.0);
        let landing = loop {
            let (attempt, wave, _) = started(&mut q, 0.0);
            assert_eq!(wave.wall_s, wave.step.wall_s * 2.0);
            let (landed, landing) = q.land(&FifoOrder, 0, attempt, 0.0).expect("current");
            assert_eq!(landed.workers, wave.workers);
            assert_eq!(q.in_use(), 0);
            match landing {
                Landing::Next => assert!(matches!(q.runs[0].state, RunState::Ready)),
                done => break done,
            }
        };
        assert!(q.exec(0).is_none(), "a finished run leaves its slot");
        assert!(matches!(q.runs[0].state, RunState::Idle));
        let Landing::Finished(done) = landing else {
            panic!("the job converges: {landing:?}");
        };
        assert_eq!(done.usd, done.report.cost_usd * 0.5);
    }

    #[test]
    fn a_landing_scheduled_before_a_rollback_is_ignored() {
        let mut q = queue(one_pool(64, None), exec(), 0.0);
        let (attempt, wave, _) = started(&mut q, 0.0);
        let wall_s = wave.wall_s + wave.stretch_s;
        let kill = q.rollback(0, wall_s / 2.0);
        assert_eq!((kill.wave.workers, q.in_use()), (wave.workers, 0));
        assert_eq!(kill.at_fraction, 0.5);
        let resume_s = wall_s / 2.0 + kill.stall_s;
        assert!(matches!(q.runs[0].state, RunState::Stalled));
        assert!(q.land(&FifoOrder, 0, attempt, wall_s).is_none());
        assert!(
            matches!(q.runs[0].state, RunState::Stalled),
            "the stale landing is ignored"
        );
        q.resume(&FifoOrder, 0);
        // As for a worker loss, the clock restarts at the resume.
        assert_eq!(q.runs[0].queued_since, resume_s);
        let (again, wave, _) = started(&mut q, resume_s);
        assert_eq!((again, wave.started_s), (attempt + 2, resume_s));
        let (_, landing) = q.land(&FifoOrder, 0, again, 900.0).expect("current");
        assert!(matches!(landing, Landing::Next));
        assert_eq!(q.runs[0].queued_since, 900.0);
    }

    #[test]
    fn queued_counts_per_pool_match_the_queue() {
        let mut q = queue(pools(&Topology::edge_cloud(), 40), exec(), 0.0);
        q.start(&FifoOrder, 1, 1, exec(), 0.0);
        q.start(&FifoOrder, 2, 1, exec(), 0.0);
        assert_eq!((q.queued_by_pool(), q.ready().len()), (vec![1, 2], 3));
        assert!(matches!(
            next(&mut q, 0.0),
            Some((0, Dispatch::Land { .. }))
        ));
        assert_eq!((q.queued_by_pool(), q.ready().len()), (vec![0, 2], 2));
        while next(&mut q, 0.0).is_some() {}
        assert_eq!((q.queued_by_pool(), q.ready().len()), (vec![0, 0], 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a run that is done is launched again")]
    fn launching_a_run_that_is_done_is_a_bug() {
        let mut e = exec();
        while !e.is_done() {
            e.step_epoch().expect("the platform takes the wave");
        }
        next(&mut queue(one_pool(64, None), e, 0.0), 0.0);
    }

    #[test]
    fn pools_report_views_totals_and_utilization() {
        let mut w = pools(&Topology::edge_cloud(), 40);
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
