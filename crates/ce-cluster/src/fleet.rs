//! The discrete-event fleet simulator.
//!
//! One shared substrate — an account-level concurrency quota and four
//! storage services — and many tenant jobs interleaved on it in
//! simulated time. Each job is a [`ce_workflow::TrainingExecution`]
//! stepped one epoch at a time through the shared [`TrainQueue`]: the
//! wave's workers are reserved from the account quota for the epoch's
//! duration, its sync time stretches by the storage service's current
//! load, and the job re-queues when the epoch completes. Everything is
//! deterministic per seed: the event queue breaks ties FIFO, policies
//! break ties on job id, and every job's own RNG streams are derived
//! from its spec.
//!
//! Cross-tenant effects modeled:
//!
//! * **quota queueing** — a wave waits until the shared pool can supply
//!   it (head-of-line, so wide waves are not starved);
//! * **cold resumes** — a queue wait longer than the platform's idle
//!   expiry drops the job's warm pool, so its next wave cold-starts;
//! * **storage contention** — sync time stretches by the
//!   [`ContentionModel`] factor for the service's concurrent load,
//!   sampled when the epoch is dispatched.
//!
//! # Topology
//!
//! Under a multi-pool [`Topology`] each admitted job is placed once, at
//! admission, by the spec's placement policy; its waves then draw from
//! that pool's quota, and its wall time and bill scale by the pool's
//! classes (DESIGN §5k). The default [`Topology::single`] pool is
//! neutral and skips placement, so single-pool runs are byte-identical
//! to the pre-topology simulator.

use crate::arrival::{check_jobs, training_job, FleetSpec, JobSpec, FLEET_METHOD};
use crate::contention::ContentionModel;
use crate::policy::{Admission, AdmissionPolicy, ClusterView, ReadyJob};
use crate::ready::ReadySet;
use crate::report::{FleetReport, JobOutcome, JobStatus};
use crate::wave::{Dequeue, Dispatch, Finished, Landing, PickRule, Stall, TrainQueue};
use ce_chaos::FaultSchedule;
use ce_obs::{Counter, Histogram, Registry};
use ce_sim_core::event::EventQueue;
use ce_sim_core::rng::SimRng;
use ce_sim_core::time::SimTime;
use ce_sim_core::SpecError;
use ce_topo::{PlacementRequest, PoolView, Topology};
use ce_workflow::{RecoveryPolicy, TrainingExecution, TrainingReport};
use serde_json::json;

/// Which dispatch core drives the fleet.
///
/// Both engines produce byte-identical outcomes and metrics for every
/// seed (differentially tested); they differ only in how the ready
/// queue is searched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetEngine {
    /// The original per-event linear scan: every dispatch decision
    /// materializes the whole ready queue, runs the policy's `pick`
    /// over it, and removes the winner with an O(queue) shift. Kept as
    /// the differential-testing oracle.
    Naive,
    /// The indexed engine: the ready queue is an ordered set keyed by
    /// the policy's
    /// [`dispatch_key`](crate::policy::AdmissionPolicy::dispatch_key)
    /// and the job id, so each decision is O(log queue). Falls back to
    /// [`FleetEngine::Naive`] for policies without a dispatch key.
    #[default]
    Heap,
}

/// A fleet run's configuration.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Who arrives when, wanting what.
    pub fleet: FleetSpec,
    /// The shared account-level concurrency limit.
    pub quota: u32,
    /// Per-job concurrency ceiling (reserved-concurrency style): each
    /// job's allocation grid is capped at `min(job_cap, quota)`. Equal
    /// to `quota` by default, which lets one wide job monopolize the
    /// account.
    pub job_cap: u32,
    /// Cross-tenant storage contention.
    pub contention: ContentionModel,
    /// Fleet-wide fault schedule, interpreted on the *fleet* clock: a
    /// dispatch that lands in a storage-outage window stalls until the
    /// window lifts, a crash window kills the dispatched wave, a degrade
    /// window stretches its sync. (Throttle/cold-spike faults are
    /// per-platform behaviours; inject those via a job's own schedule.)
    pub chaos: Option<FaultSchedule>,
    /// Recovery policy every fleet job runs under.
    pub recovery: RecoveryPolicy,
    /// Checkpoint interval for checkpointing recovery policies.
    pub checkpoint_every: Option<u32>,
    /// Which dispatch core to run (defaults to [`FleetEngine::Heap`]).
    pub engine: FleetEngine,
    /// The substrate jobs run on (defaults to [`Topology::single`],
    /// one neutral pool deferring to `quota`).
    pub topology: Topology,
    /// Placement-policy registry name (only consulted multi-pool).
    pub placement: String,
}

impl ClusterSpec {
    /// A cluster over `fleet` with the given shared quota and default
    /// contention.
    pub fn new(fleet: FleetSpec, quota: u32) -> Self {
        ClusterSpec {
            fleet,
            quota,
            job_cap: quota,
            contention: ContentionModel::aws_default(),
            chaos: None,
            recovery: RecoveryPolicy::Retry,
            checkpoint_every: None,
            engine: FleetEngine::default(),
            topology: Topology::single(),
            placement: "edge-first".to_string(),
        }
    }

    /// Caps every job's waves below the account quota so tenants
    /// actually run concurrently instead of time-slicing the account.
    pub fn with_job_cap(mut self, cap: u32) -> Self {
        self.job_cap = cap;
        self
    }

    /// Injects a fleet-wide fault schedule (fleet-clock time).
    pub fn with_chaos(mut self, schedule: FaultSchedule) -> Self {
        self.chaos = Some(schedule);
        self
    }

    /// Sets the recovery policy every fleet job runs under.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Sets the checkpoint interval for checkpointing policies.
    pub fn with_checkpoint_every(mut self, epochs: u32) -> Self {
        self.checkpoint_every = Some(epochs);
        self
    }

    /// Selects the dispatch core (outcomes are engine-independent).
    pub fn with_engine(mut self, engine: FleetEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Runs the fleet on `topology` instead of the single neutral pool.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Selects the placement policy by registry name (multi-pool only).
    pub fn with_placement(mut self, name: &str) -> Self {
        self.placement = name.to_string();
        self
    }

    /// Checks the run's size and ranges before any work is done: the
    /// fleet size against [`crate::MAX_JOBS`], at least one worker in the quota
    /// and the job cap, at least one epoch between checkpoints, and the
    /// substrate. It generates no job.
    pub fn validate(&self) -> Result<(), SpecError> {
        check_jobs("jobs", self.fleet.jobs)?;
        SpecError::nonzero(&[
            (self.quota.into(), "quota", "worker"),
            (self.job_cap.into(), "job_cap", "worker"),
            (
                self.checkpoint_every.map_or(1, u64::from),
                "checkpoint_every",
                "epoch",
            ),
        ])?;
        self.topology.validate(&self.placement)
    }
}

#[derive(Debug, Clone, Copy)]
enum FleetEvent {
    /// `job` arrives.
    Arrival { job: usize },
    /// `job`'s wave tagged `attempt` lands.
    EpochDone { job: usize, attempt: u64 },
    /// A chaos-stalled job is ready to queue again.
    Resume { job: usize },
}

/// The ready queue in the active engine's representation: the naive
/// engine keeps `(job, workers, queued since)` in the order the jobs
/// became ready and scans; the heap engine keeps job indices ordered by
/// `(dispatch key, job id)`. Both read a queue clock and an allocation
/// that stay fixed while the job waits.
#[derive(Debug)]
enum ReadyQueue {
    Naive(Vec<(usize, u32, f64)>),
    Indexed(ReadySet),
}

/// The cluster's pick rule, its admission policy through the engine's
/// ready queue, with what the policy reads of the fleet.
struct PolicyOrder {
    policy: Box<dyn AdmissionPolicy>,
    jobs: Vec<JobSpec>,
    /// Epochs in flight.
    running: usize,
}

impl PickRule for PolicyOrder {
    type Ready = ReadyQueue;

    fn push(&self, ready: &mut ReadyQueue, run: usize, workers: u32, queued_since_s: f64) {
        match ready {
            ReadyQueue::Naive(queue) => queue.push((run, workers, queued_since_s)),
            ReadyQueue::Indexed(set) => {
                let job = ReadyJob {
                    spec: &self.jobs[run],
                    workers,
                    queued_since_s,
                };
                let key = self.policy.dispatch_key(&job);
                set.push(key.expect("indexed engine requires a keyed policy"), run);
            }
        }
    }

    fn head(&self, queue: &TrainQueue<ReadyQueue>, t: f64) -> Option<usize> {
        match queue.ready() {
            ReadyQueue::Naive(ready) => {
                if ready.is_empty() {
                    return None;
                }
                let jobs: Vec<ReadyJob<'_>> = ready
                    .iter()
                    .map(|&(i, workers, queued_since_s)| ReadyJob {
                        spec: &self.jobs[i],
                        workers,
                        queued_since_s,
                    })
                    .collect();
                let pick = self.policy.pick(&jobs, &self.view(queue, t))?;
                Some(ready[pick].0)
            }
            ReadyQueue::Indexed(set) => set.peek_min(),
        }
    }

    /// Every removal targets the job the policy just picked, so the
    /// indexed engine pops its minimum.
    fn remove(&self, ready: &mut ReadyQueue, run: usize) {
        match ready {
            ReadyQueue::Naive(queue) => {
                let pos = queue
                    .iter()
                    .position(|j| j.0 == run)
                    .expect("job is queued");
                queue.remove(pos);
            }
            ReadyQueue::Indexed(set) => {
                let popped = set.pop_min();
                debug_assert_eq!(popped, Some(run), "removal must target the set minimum");
            }
        }
    }
}

impl PolicyOrder {
    /// What the admission policy sees at `now_s`.
    fn view(&self, trains: &TrainQueue<ReadyQueue>, now_s: f64) -> ClusterView {
        ClusterView {
            now_s,
            quota_in_use: trains.in_use(),
            quota_limit: trains.limit(),
            queue_len: match trains.ready() {
                ReadyQueue::Naive(queue) => queue.len(),
                ReadyQueue::Indexed(set) => set.len(),
            },
            running: self.running,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    queue_delay_s: f64,
    cold_resumes: u32,
    epochs: u32,
}

/// The multi-tenant cluster simulation.
pub struct ClusterSim {
    spec: ClusterSpec,
    policy: Box<dyn AdmissionPolicy>,
    obs: Registry,
}

/// A fleet run's state, built when the run starts.
struct Fleet {
    spec: ClusterSpec,
    /// The policy and the jobs.
    order: PolicyOrder,
    obs: Registry,
    slots: Vec<Slot>,
    outcomes: Vec<Option<JobOutcome>>,
    /// The head-of-line queue, its ready order in the engine's
    /// representation; a single neutral pool by default.
    trains: TrainQueue<ReadyQueue>,
    placement: Box<dyn ce_topo::PlacementPolicy>,
    topo_rng: SimRng,
    /// Live (admitted, non-terminal) jobs per pool — the placement
    /// policy's queue-pressure signal.
    live_by_pool: Vec<u32>,
    /// Jobs ever placed on each pool, for the `topo.jobs.*` counters.
    placed_by_pool: Vec<u64>,
    /// Epochs in flight per storage service (`StorageKind as usize`).
    active_by_kind: [u32; 4],
    contention_extra_s: f64,
    metrics: DispatchMetrics,
}

/// The `cluster.*` handles dispatch updates per epoch or quota stall,
/// each registered at its first use (see [`Registry::inc_held`]).
#[derive(Default)]
struct DispatchMetrics {
    epochs: Option<Counter>,
    chaos_degraded_epochs: Option<Counter>,
    quota_stalls: Option<Counter>,
    queue_delay_s: Option<Histogram>,
    cold_resumes: Option<Counter>,
}

impl ClusterSim {
    /// Builds a simulation; metrics go to a private registry unless
    /// overridden with [`Self::with_obs`].
    ///
    /// # Panics
    /// Panics with [`ClusterSpec::validate`]'s message when it refuses
    /// the spec.
    pub fn new(spec: ClusterSpec, policy: Box<dyn AdmissionPolicy>) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        ClusterSim {
            spec,
            policy,
            obs: Registry::new(),
        }
    }

    /// Routes fleet metrics and events into `registry`.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.obs = registry.clone();
        self
    }

    /// Runs the fleet to completion and reports the frontier point.
    pub fn run(self) -> FleetReport {
        Fleet::new(self).run()
    }
}

impl Fleet {
    /// Generates the jobs and picks the engine: the indexed ready-set
    /// needs a keyed policy; anything else runs the naive scan.
    fn new(ClusterSim { spec, policy, obs }: ClusterSim) -> Self {
        let jobs = spec.fleet.generate();
        let keyed = jobs.first().is_none_or(|spec| {
            let probe = ReadyJob {
                spec,
                workers: 1,
                queued_since_s: 0.0,
            };
            policy.dispatch_key(&probe).is_some()
        });
        let ready = if spec.engine == FleetEngine::Heap && keyed {
            ReadyQueue::Indexed(ReadySet::default())
        } else {
            ReadyQueue::Naive(Vec::new())
        };
        // Pool quotas default to the shared account limit. Crash draws fork
        // the fleet seed, so adding jobs never shifts any job's own draws.
        let chaos_rng = SimRng::new(spec.fleet.seed).derive("fleet-chaos");
        let chaos = spec.chaos.as_ref();
        let trains = TrainQueue::new(&spec.topology, spec.quota, chaos, chaos_rng, ready);
        let pool_count = trains.pool_count();
        // Placement draws (if a policy makes any) fork the fleet's root
        // stream, so adding pools never shifts job draws.
        let placement = ce_topo::parse_placement(&spec.placement).expect("validated placement");
        let topo_rng = SimRng::new(spec.fleet.seed).derive("topo");
        Fleet {
            slots: vec![Slot::default(); jobs.len()],
            outcomes: vec![None; jobs.len()],
            order: PolicyOrder {
                policy,
                jobs,
                running: 0,
            },
            obs,
            trains,
            placement,
            topo_rng,
            live_by_pool: vec![0; pool_count],
            placed_by_pool: vec![0; pool_count],
            active_by_kind: [0; 4],
            contention_extra_s: 0.0,
            metrics: DispatchMetrics::default(),
            spec,
        }
    }

    /// Places an admitted job on a pool. Single-pool topologies skip
    /// the policy entirely (index 0 is forced), preserving the
    /// pre-topology byte stream.
    fn place_job(&mut self, i: usize) -> usize {
        let trains = &self.trains;
        if !trains.multi_pool() {
            self.live_by_pool[0] += 1;
            self.placed_by_pool[0] += 1;
            return 0;
        }
        // Batches ship with the wave: nothing crosses a link.
        let views: Vec<PoolView> = (0..trains.pool_count())
            .map(|p| trains.pool_view(p, self.live_by_pool[p], f64::INFINITY))
            .collect();
        let job = &self.order.jobs[i];
        let req = PlacementRequest {
            // The deadline bounds the job's compute demand on a
            // neutral pool: long-deadline jobs read as heavy.
            compute_s: job.deadline_s,
            transfer_mb: 0.0,
            cold_ms: 0.0,
        };
        let pool = self
            .placement
            .place(&views, &req, &mut self.topo_rng)
            .min(views.len() - 1);
        self.live_by_pool[pool] += 1;
        self.placed_by_pool[pool] += 1;
        pool
    }

    fn run(mut self) -> FleetReport {
        let n = self.order.jobs.len();
        let mut events = EventQueue::with_capacity(n + 1);
        for (i, job) in self.order.jobs.iter().enumerate() {
            events.schedule_at(
                SimTime::from_secs(job.arrival_s),
                FleetEvent::Arrival { job: i },
            );
        }

        let mut makespan_s = 0.0f64;
        while let Some((at, event)) = events.pop() {
            let t = at.as_secs();
            // Time-weighted quota utilization: integrate reservations
            // over the interval that just elapsed.
            self.trains.advance(t);
            makespan_s = makespan_s.max(t);
            match event {
                FleetEvent::Arrival { job } => self.on_arrival(job, t),
                FleetEvent::EpochDone { job, attempt } => self.on_epoch_done(job, attempt, t),
                // A chaos-stalled job becomes ready again.
                FleetEvent::Resume { job } => self.trains.resume(&self.order, job),
            }
            self.dispatch(t, &mut events);
        }

        self.finalize(makespan_s)
    }

    fn on_arrival(&mut self, i: usize, t: f64) {
        let job = &self.order.jobs[i];
        self.obs.counter("cluster.arrivals").inc();
        self.obs.event(
            t,
            "cluster.job_arrived",
            &[
                ("job", json!(job.id)),
                ("tenant", json!(job.tenant)),
                ("workload", json!(job.workload.label())),
                ("deadline_s", json!(job.deadline_s)),
            ],
        );
        let view = self.order.view(&self.trains, t);
        if self.order.policy.admit(job, &view) == Admission::Reject {
            self.settle(i, t, JobStatus::Rejected, 0.0, None);
            return;
        }
        self.obs.counter("cluster.admitted").inc();
        let pool = self.place_job(i);
        let job = &self.order.jobs[i];
        // Cap the allocation grid below the *pool's* limit so placed
        // waves never structurally overflow their pool.
        let cap = self.spec.job_cap.min(self.trains.quota(pool).limit());
        let mut tj = training_job(job, &self.spec.fleet.env, cap)
            .with_obs(&self.obs)
            .with_recovery(self.spec.recovery);
        if let Some(k) = self.spec.checkpoint_every {
            tj = tj.with_checkpoint_every(k);
        }
        match TrainingExecution::start(tj, FLEET_METHOD) {
            Ok(exec) => self.trains.start(&self.order, i, pool, exec, t),
            Err(_) => self.fail_job(i, pool, t, 0.0),
        }
    }

    /// Launches ready epochs until the policy picks none or one stalls
    /// on the quota (see [`TrainQueue::next`]).
    fn dispatch(&mut self, t: f64, events: &mut EventQueue<FleetEvent>) {
        loop {
            let (active, model) = (&mut self.active_by_kind, &self.spec.contention);
            let next = self.trains.next(&self.order, t, |storage| {
                active[storage as usize] += 1;
                model.sync_slowdown(storage, active[storage as usize])
            });
            let Some((i, next)) = next else { return };
            match next {
                Dispatch::QuotaStall => {
                    let stalls = &mut self.metrics.quota_stalls;
                    self.obs.inc_held(stalls, "cluster.quota_stalls");
                    return;
                }
                Dispatch::Resume(stall) => {
                    // The job waits out the stall off the queue.
                    self.obs.counter("cluster.chaos_stalls").inc();
                    let job = ("job", json!(self.order.jobs[i].id));
                    match stall {
                        Stall::Outage { storage, until_s } => self.obs.event(
                            t,
                            "cluster.chaos_outage_stall",
                            &[
                                job,
                                ("service", json!(format!("{storage:?}"))),
                                ("until_s", json!(until_s)),
                            ],
                        ),
                        Stall::WorkerLoss {
                            at_fraction,
                            stall_s,
                        } => {
                            self.obs.counter("cluster.chaos_worker_losses").inc();
                            self.obs.event(
                                t,
                                "cluster.chaos_worker_loss",
                                &[
                                    job,
                                    ("at_fraction", json!(at_fraction)),
                                    ("stall_s", json!(stall_s)),
                                ],
                            );
                        }
                    }
                    let at = SimTime::from_secs(stall.resume_s(t));
                    events.schedule_at(at, FleetEvent::Resume { job: i });
                }
                Dispatch::Failed { usd, dequeue } => {
                    if let Some(dequeue) = dequeue {
                        self.book_wait(i, dequeue);
                    }
                    self.fail_job(i, self.trains.pool(i), t, usd);
                }
                Dispatch::Land { attempt, wave } => {
                    self.book_wait(i, wave.dequeue);
                    let (obs, m) = (&self.obs, &mut self.metrics);
                    obs.inc_held(&mut m.epochs, "cluster.epochs");
                    // A degrade window stretches this epoch's sync on top
                    // of whatever the other tenants already cost it.
                    if wave.degrade > 1.0 {
                        let name = "cluster.chaos_degraded_epochs";
                        obs.inc_held(&mut m.chaos_degraded_epochs, name);
                    }
                    self.contention_extra_s += wave.stretch_s;
                    self.slots[i].epochs = wave.step.epoch;
                    self.order.running += 1;
                    // Summed left to right, as this fleet always has: the
                    // landing instant keeps its bits.
                    let at = SimTime::from_secs(t + wave.wall_s + wave.stretch_s);
                    events.schedule_at(at, FleetEvent::EpochDone { job: i, attempt });
                }
            }
        }
    }

    /// Books the queue wait of a job that left the queue holding its
    /// wave's workers.
    fn book_wait(&mut self, i: usize, dequeue: Dequeue) {
        let slot = &mut self.slots[i];
        slot.queue_delay_s += dequeue.wait_s;
        let (obs, m) = (&self.obs, &mut self.metrics);
        m.queue_delay_s
            .get_or_insert_with(|| obs.histogram("cluster.queue_delay_s"))
            .observe(dequeue.wait_s);
        if dequeue.cold_resumed {
            slot.cold_resumes += 1;
            obs.inc_held(&mut m.cold_resumes, "cluster.cold_resumes");
        }
    }

    fn on_epoch_done(&mut self, i: usize, attempt: u64, t: f64) {
        let landed = self.trains.land(&self.order, i, attempt, t);
        let (wave, landing) = landed.expect("a fleet wave is never rolled back");
        self.active_by_kind[wave.storage as usize] -= 1;
        self.order.running -= 1;
        match landing {
            Landing::Next => {}
            Landing::Finished(Finished { report, usd, .. }) => {
                self.settle(i, t, JobStatus::Completed, usd, Some(&report));
                self.live_by_pool[self.trains.pool(i)] -= 1;
            }
            Landing::Failed { usd } => self.fail_job(i, self.trains.pool(i), t, usd),
        }
    }

    /// Marks a job on `pool` failed (infeasible at admission, structural
    /// quota overflow, or non-convergence), its bill `cost_usd` counted.
    fn fail_job(&mut self, i: usize, pool: usize, t: f64, cost_usd: f64) {
        self.live_by_pool[pool] -= 1;
        self.settle(i, t, JobStatus::Failed, cost_usd, None);
    }

    /// Ends job `i` at `t` with `status`, having billed `cost_usd`: its
    /// counters, its event and its outcome. Only a job that completed
    /// (with `report`) by its deadline kept its QoS. A rejected job has
    /// nothing in its slot; a failed one keeps its last wave's epoch.
    fn settle(
        &mut self,
        i: usize,
        t: f64,
        status: JobStatus,
        cost_usd: f64,
        report: Option<&TrainingReport>,
    ) {
        let (job, slot) = (&self.order.jobs[i], &self.slots[i]);
        let qos_violated = status != JobStatus::Completed || t - job.arrival_s > job.deadline_s;
        let budget_violated = report.is_some_and(|r| r.budget_violated);
        let (counter, event) = match status {
            JobStatus::Completed => ("cluster.completed", "cluster.job_done"),
            JobStatus::Rejected => ("cluster.rejected", "cluster.job_rejected"),
            JobStatus::Failed => ("cluster.failed", "cluster.job_failed"),
        };
        self.obs.counter(counter).inc();
        if qos_violated {
            self.obs.counter("cluster.qos_violations").inc();
        }
        if budget_violated {
            self.obs.counter("cluster.budget_violations").inc();
        }
        let mut fields = vec![("job", json!(job.id))];
        if let Some(report) = report {
            fields.extend([
                ("epochs", json!(report.epochs)),
                ("cost_usd", json!(cost_usd)),
                ("qos_violated", json!(qos_violated)),
            ]);
        }
        self.obs.event(t, event, &fields);
        self.outcomes[i] = Some(JobOutcome {
            id: job.id,
            tenant: job.tenant,
            status,
            arrival_s: job.arrival_s,
            finish_s: t,
            queue_delay_s: slot.queue_delay_s,
            epochs: report.map_or(slot.epochs, |r| r.epochs),
            cost_usd,
            qos_violated,
            budget_violated,
            cold_resumes: slot.cold_resumes,
        });
    }

    fn finalize(mut self, makespan_s: f64) -> FleetReport {
        let jobs: Vec<JobOutcome> = self
            .outcomes
            .drain(..)
            .map(|o| o.expect("every job reaches a terminal state"))
            .collect();
        let fleet_dollars: f64 = jobs.iter().map(|j| j.cost_usd).sum();
        let (trains, obs) = (&self.trains, &self.obs);
        let quota_utilization = trains.utilization(makespan_s);
        let quota_peak = trains.peak();
        obs.gauge("cluster.makespan_s").set(makespan_s);
        obs.gauge("cluster.fleet_dollars").set(fleet_dollars);
        obs.gauge("cluster.quota_peak").set(f64::from(quota_peak));
        obs.gauge("cluster.quota_utilization")
            .set(quota_utilization);
        obs.gauge("cluster.contention_extra_s")
            .set(self.contention_extra_s);
        if trains.multi_pool() {
            let pools = &self.spec.topology.pools;
            obs.gauge("topo.pools").set(pools.len() as f64);
            for (p, pool) in pools.iter().enumerate() {
                obs.counter(&format!("topo.jobs.{}", pool.name))
                    .add(self.placed_by_pool[p]);
            }
        }
        FleetReport {
            policy: self.order.policy.name().to_string(),
            topology: self.spec.topology.name.clone(),
            placement: self.placement.name().to_string(),
            jobs,
            makespan_s,
            fleet_dollars,
            quota_utilization,
            quota_peak,
            contention_extra_s: self.contention_extra_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DeadlineEdf, Fifo, RejectOnOverload};

    fn small_fleet(seed: u64) -> FleetSpec {
        FleetSpec::poisson(12, 8.0, seed)
    }

    #[test]
    fn validate_refuses_what_the_fleet_cannot_run() {
        let ok = ClusterSpec::new(small_fleet(5), 60);
        assert_eq!(ok.validate(), Ok(()));
        let mut empty = Topology::single();
        empty.pools.clear();
        for (spec, needle) in [
            (
                ClusterSpec::new(FleetSpec::poisson(crate::MAX_JOBS + 1, 8.0, 5), 60),
                "over the ceiling of 100000 jobs",
            ),
            (ClusterSpec::new(small_fleet(5), 0), "at least 1 worker"),
            (ok.clone().with_job_cap(0), "at least 1 worker"),
            (ok.clone().with_checkpoint_every(0), "at least 1 epoch"),
            (ok.clone().with_topology(empty), "at least one pool"),
            (
                ok.clone().with_placement("magic"),
                "unknown placement policy",
            ),
        ] {
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 worker")]
    fn new_panics_on_a_refused_spec() {
        ClusterSim::new(ClusterSpec::new(small_fleet(5), 0), Box::new(Fifo));
    }

    #[test]
    fn fleet_runs_to_completion_and_accounts_every_job() {
        let registry = Registry::new();
        let spec = ClusterSpec::new(small_fleet(5), 60);
        let report = ClusterSim::new(spec, Box::new(Fifo))
            .with_obs(&registry)
            .run();
        assert_eq!(report.jobs.len(), 12);
        assert_eq!(registry.counter_value("cluster.arrivals"), 12);
        let terminal = report.count(JobStatus::Completed)
            + report.count(JobStatus::Rejected)
            + report.count(JobStatus::Failed);
        assert_eq!(terminal, 12);
        assert!(report.count(JobStatus::Completed) > 0);
        assert!(report.fleet_dollars > 0.0);
        assert!(report.makespan_s > 0.0);
        assert!(report.quota_peak > 0);
        assert!(report.quota_utilization > 0.0 && report.quota_utilization <= 1.0);
    }

    #[test]
    fn same_seed_same_bytes() {
        let run = || {
            let registry = Registry::new();
            let spec = ClusterSpec::new(small_fleet(11), 40);
            let report = ClusterSim::new(spec, Box::new(DeadlineEdf))
                .with_obs(&registry)
                .run();
            (registry.export_jsonl(), report)
        };
        let (a_jsonl, a_report) = run();
        let (b_jsonl, b_report) = run();
        assert_eq!(a_jsonl, b_jsonl, "fleet JSONL must be byte-identical");
        assert_eq!(a_report, b_report);
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let registry = Registry::new();
            ClusterSim::new(ClusterSpec::new(small_fleet(seed), 40), Box::new(Fifo))
                .with_obs(&registry)
                .run()
        };
        assert_ne!(run(1).fleet_dollars, run(2).fleet_dollars);
    }

    #[test]
    fn tight_quota_queues_jobs() {
        let run = |quota| {
            let registry = Registry::new();
            let report = ClusterSim::new(
                ClusterSpec::new(FleetSpec::poisson(10, 30.0, 13), quota),
                Box::new(Fifo),
            )
            .with_obs(&registry)
            .run();
            (report, registry)
        };
        let (tight, tight_reg) = run(12);
        let (roomy, _) = run(600);
        assert!(
            tight.mean_queue_delay_s() > roomy.mean_queue_delay_s(),
            "tight {} vs roomy {}",
            tight.mean_queue_delay_s(),
            roomy.mean_queue_delay_s()
        );
        assert!(tight_reg.counter_value("cluster.quota_stalls") > 0);
    }

    #[test]
    fn job_cap_lets_tenants_run_concurrently() {
        // Capping per-job waves below the quota turns time-slicing into
        // genuine concurrency: peak reservations exceed any single wave.
        let registry = Registry::new();
        let spec = ClusterSpec::new(FleetSpec::poisson(12, 30.0, 5), 60).with_job_cap(8);
        let report = ClusterSim::new(spec, Box::new(Fifo))
            .with_obs(&registry)
            .run();
        assert_eq!(report.count(JobStatus::Completed), report.jobs.len());
        assert!(
            report.quota_peak > 8,
            "peak {} should exceed one capped wave",
            report.quota_peak
        );
    }

    #[test]
    fn reject_policy_sheds_load_under_pressure() {
        let registry = Registry::new();
        let spec = ClusterSpec::new(FleetSpec::poisson(20, 60.0, 17), 15);
        let report = ClusterSim::new(spec, Box::new(RejectOnOverload { max_queue: 3 }))
            .with_obs(&registry)
            .run();
        assert!(report.count(JobStatus::Rejected) > 0);
        assert_eq!(
            registry.counter_value("cluster.rejected") as usize,
            report.count(JobStatus::Rejected)
        );
    }

    fn all_service_outage(start: f64, end: f64) -> FaultSchedule {
        FaultSchedule::parse(&format!(
            "outage:s3@{start}..{end};outage:dynamodb@{start}..{end};\
             outage:elasticache@{start}..{end};outage:vmps@{start}..{end}"
        ))
        .unwrap()
    }

    #[test]
    fn zero_fault_fleet_chaos_is_bit_identical_to_clean() {
        let run = |chaos: Option<FaultSchedule>| {
            let registry = Registry::new();
            let mut spec = ClusterSpec::new(small_fleet(5), 60);
            spec.chaos = chaos;
            let report = ClusterSim::new(spec, Box::new(Fifo))
                .with_obs(&registry)
                .run();
            (registry.export_jsonl(), report)
        };
        let (clean_jsonl, clean) = run(None);
        let zero = FaultSchedule::parse("crash:0@0..inf;coldspike:x1@0..inf").unwrap();
        let (chaos_jsonl, chaotic) = run(Some(zero));
        assert_eq!(clean_jsonl, chaos_jsonl);
        assert_eq!(clean, chaotic);
    }

    #[test]
    fn chaotic_fleets_are_deterministic_per_seed() {
        let run = || {
            let registry = Registry::new();
            let spec = ClusterSpec::new(small_fleet(11), 60)
                .with_chaos(FaultSchedule::parse("crash:0.15@0..inf").unwrap())
                .with_recovery(RecoveryPolicy::CheckpointResume);
            let report = ClusterSim::new(spec, Box::new(Fifo))
                .with_obs(&registry)
                .run();
            (registry.export_jsonl(), report)
        };
        let (a_jsonl, a) = run();
        let (b_jsonl, b) = run();
        assert_eq!(
            a_jsonl, b_jsonl,
            "chaotic fleet JSONL must be byte-identical"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn outage_window_stalls_dispatches_and_stretches_makespan() {
        let run = |chaos: Option<FaultSchedule>| {
            let registry = Registry::new();
            let mut spec = ClusterSpec::new(small_fleet(7), 60);
            spec.chaos = chaos;
            let report = ClusterSim::new(spec, Box::new(Fifo))
                .with_obs(&registry)
                .run();
            (report, registry)
        };
        let (clean, _) = run(None);
        let (stormy, reg) = run(Some(all_service_outage(0.0, 900.0)));
        assert!(reg.counter_value("cluster.chaos_stalls") > 0);
        assert!(
            stormy.makespan_s > clean.makespan_s,
            "outage {} vs clean {}",
            stormy.makespan_s,
            clean.makespan_s
        );
        // Every job still reaches a terminal state.
        assert_eq!(stormy.jobs.len(), 12);
    }

    #[test]
    fn fleet_crashes_roll_jobs_back_and_still_complete() {
        let registry = Registry::new();
        let spec = ClusterSpec::new(small_fleet(9), 60)
            .with_chaos(FaultSchedule::parse("crash:0.2@0..inf").unwrap())
            .with_recovery(RecoveryPolicy::CheckpointResume)
            .with_checkpoint_every(5);
        let report = ClusterSim::new(spec, Box::new(Fifo))
            .with_obs(&registry)
            .run();
        assert!(registry.counter_value("cluster.chaos_worker_losses") > 0);
        assert!(registry.counter_value("recovery.retries") > 0);
        assert!(registry.counter_value("recovery.checkpoints") > 0);
        assert!(
            report.count(JobStatus::Completed) > 0,
            "checkpointed jobs should survive 20% crash rates"
        );
    }

    /// Runs `spec` under `policy` on the given engine and returns the
    /// metrics bytes plus the report.
    fn run_engine(spec: ClusterSpec, policy: &str, engine: FleetEngine) -> (String, FleetReport) {
        let registry = Registry::new();
        let report = ClusterSim::new(
            spec.with_engine(engine),
            crate::policy::policy_by_name(policy).expect("known policy"),
        )
        .with_obs(&registry)
        .run();
        (registry.export_jsonl(), report)
    }

    #[test]
    fn heap_engine_is_bit_identical_to_naive_across_policies() {
        for policy in ["fifo", "edf", "cost-greedy", "reject-on-overload"] {
            let spec = || ClusterSpec::new(FleetSpec::poisson(14, 20.0, 31), 30).with_job_cap(8);
            let (naive_jsonl, naive) = run_engine(spec(), policy, FleetEngine::Naive);
            let (heap_jsonl, heap) = run_engine(spec(), policy, FleetEngine::Heap);
            assert_eq!(naive_jsonl, heap_jsonl, "{policy}: metrics diverged");
            assert_eq!(naive, heap, "{policy}: report diverged");
        }
    }

    #[test]
    fn heap_engine_is_bit_identical_to_naive_under_chaos() {
        let spec = || {
            ClusterSpec::new(small_fleet(9), 60)
                .with_chaos(FaultSchedule::parse("crash:0.2@0..inf;outage:s3@300..900").unwrap())
                .with_recovery(RecoveryPolicy::CheckpointResume)
                .with_checkpoint_every(5)
        };
        let (naive_jsonl, naive) = run_engine(spec(), "fifo", FleetEngine::Naive);
        let (heap_jsonl, heap) = run_engine(spec(), "fifo", FleetEngine::Heap);
        assert_eq!(naive_jsonl, heap_jsonl, "chaotic metrics diverged");
        assert_eq!(naive, heap);
    }

    #[test]
    fn head_of_line_quota_stalls_preserve_fifo_arrival_order() {
        // A quota too tight for concurrent waves forces head-of-line
        // stalls (tight_quota_queues_jobs proves stalls > 0 for this
        // spec). Under FIFO the stalled head must keep its place: the
        // indexed engine's queue order — and therefore every outcome,
        // delay, and counter — must match the naive scan's bit for bit.
        let spec = || ClusterSpec::new(FleetSpec::poisson(10, 30.0, 13), 12);
        let (naive_jsonl, naive) = run_engine(spec(), "fifo", FleetEngine::Naive);
        let (heap_jsonl, heap) = run_engine(spec(), "fifo", FleetEngine::Heap);
        assert_eq!(naive_jsonl, heap_jsonl);
        assert_eq!(naive, heap);
        // The regime actually stalled — otherwise this test is vacuous.
        let registry = Registry::new();
        ClusterSim::new(spec(), Box::new(Fifo))
            .with_obs(&registry)
            .run();
        assert!(registry.counter_value("cluster.quota_stalls") > 0);
    }

    #[test]
    fn single_pool_topology_is_byte_identical_whatever_the_placement_name() {
        let run = |spec: ClusterSpec| {
            let registry = Registry::new();
            let report = ClusterSim::new(spec, Box::new(Fifo))
                .with_obs(&registry)
                .run();
            (registry.export_jsonl(), report)
        };
        let (base_jsonl, base) = run(ClusterSpec::new(small_fleet(5), 60));
        for placement in ce_topo::placement_names() {
            let spec = ClusterSpec::new(small_fleet(5), 60)
                .with_topology(Topology::single())
                .with_placement(placement);
            let (jsonl, mut report) = run(spec);
            assert_eq!(
                base_jsonl, jsonl,
                "placement {placement} must be inert single-pool"
            );
            // The report records the configured policy name; everything
            // else must match the pre-topology run exactly.
            assert_eq!(report.placement, *placement);
            report.placement = base.placement.clone();
            assert_eq!(base, report);
        }
    }

    #[test]
    fn edge_cloud_fleet_is_deterministic_and_splits_jobs_across_pools() {
        // A bursty fleet overflows the edge pool's depth-8 quota, so
        // edge-first placement must land jobs on both pools.
        let run = || {
            let registry = Registry::new();
            let spec = ClusterSpec::new(FleetSpec::poisson(16, 60.0, 7), 40)
                .with_topology(Topology::edge_cloud())
                .with_placement("edge-first");
            let report = ClusterSim::new(spec, Box::new(Fifo))
                .with_obs(&registry)
                .run();
            (registry.export_jsonl(), report, registry)
        };
        let (a_jsonl, a, reg) = run();
        let (b_jsonl, b, _) = run();
        assert_eq!(a_jsonl, b_jsonl, "edge-cloud fleet must be byte-stable");
        assert_eq!(a, b);
        assert_eq!(a.topology, "edge-cloud");
        assert_eq!(a.placement, "edge-first");
        let edge = reg.counter_value("topo.jobs.edge");
        let cloud = reg.counter_value("topo.jobs.cloud");
        assert!(edge > 0 && cloud > 0, "edge {edge} cloud {cloud}");
        assert_eq!(edge + cloud, 16, "every admitted job is placed once");
        // A real substrate leaves a mark on the outcome.
        let registry = Registry::new();
        let single = ClusterSim::new(
            ClusterSpec::new(FleetSpec::poisson(16, 60.0, 7), 40),
            Box::new(Fifo),
        )
        .with_obs(&registry)
        .run();
        assert_ne!(a, single);
    }

    #[test]
    fn single_slot_quota_serializes_but_completes() {
        // Quota 1 caps every job's allocation grid to single-function
        // waves: the fleet fully serializes yet still finishes cleanly.
        let registry = Registry::new();
        let spec = ClusterSpec::new(small_fleet(29), 1);
        let report = ClusterSim::new(spec, Box::new(Fifo))
            .with_obs(&registry)
            .run();
        assert_eq!(report.count(JobStatus::Failed), 0);
        assert_eq!(report.count(JobStatus::Completed), report.jobs.len());
        assert_eq!(report.quota_peak, 1);
    }
}
