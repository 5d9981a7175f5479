//! The discrete-event fleet simulator.
//!
//! One shared substrate — an account-level concurrency quota and four
//! storage services — and many tenant jobs interleaved on it in
//! simulated time. Each job is a [`ce_workflow::TrainingExecution`]
//! stepped one epoch at a time: [`Waves`] reserves the wave's workers
//! from the account quota for the epoch's duration, the fleet inflates
//! its sync time by the storage service's current load, and requeues
//! the job when the epoch completes. Everything is deterministic per
//! seed: the event queue breaks ties FIFO, policies break ties on job
//! id, and every job's own RNG streams are derived from its spec.
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
//! admission, by the spec's placement policy (fed per-pool quota
//! occupancy and live job counts). The job's waves then draw from that
//! pool's own account quota, its allocation grid is capped below the
//! pool limit, its epoch wall time stretches by the pool's compute
//! class, and its bill scales by the pool's price class. Training data
//! is co-located with the job (batches ship with the wave), so no
//! inter-pool transfers are billed here — that cost appears in
//! `ce-lifecycle`, where a published model may cross the link to its
//! serving pool. The default [`Topology::single`] pool is neutral
//! (factors `1.0`, quota deferring to the spec), placement is a pure
//! function of its forked `"topo"` stream, and the built-in policies
//! draw nothing from it — so single-pool runs are byte-identical to the
//! pre-topology simulator.

use crate::arrival::{check_jobs, training_job, FleetSpec, JobSpec, FLEET_METHOD};
use crate::contention::ContentionModel;
use crate::policy::{Admission, AdmissionPolicy, ClusterView, ReadyJob};
use crate::ready::ReadySet;
use crate::report::{FleetReport, JobOutcome, JobStatus};
use crate::wave::{Dequeue, Finished, Landing, Launch, StallCause, Wave, Waves};
use ce_chaos::FaultSchedule;
use ce_obs::{Counter, Histogram, Registry};
use ce_sim_core::event::EventQueue;
use ce_sim_core::rng::SimRng;
use ce_sim_core::time::SimTime;
use ce_sim_core::SpecError;
use ce_topo::{PlacementRequest, PoolView, Topology};
use ce_workflow::{RecoveryPolicy, TrainingExecution};
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
    Arrival {
        job: usize,
    },
    EpochDone {
        job: usize,
    },
    /// A chaos-stalled job is ready to queue again.
    Resume {
        job: usize,
    },
}

/// The ready queue in the active engine's representation: the naive
/// engine keeps job indices in the order they became ready and scans;
/// the heap engine keeps them ordered by `(dispatch key, job id)`.
#[derive(Debug)]
enum ReadyQueue {
    Naive(Vec<usize>),
    Indexed(ReadySet),
}

impl ReadyQueue {
    fn len(&self) -> usize {
        match self {
            ReadyQueue::Naive(queue) => queue.len(),
            ReadyQueue::Indexed(set) => set.len(),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    queued_since: f64,
    queue_delay_s: f64,
    cold_resumes: u32,
    in_flight: Option<Wave>,
    epochs: u32,
    /// The pool the job was placed on at admission.
    pool: usize,
}

/// The multi-tenant cluster simulation.
pub struct ClusterSim {
    spec: ClusterSpec,
    policy: Box<dyn AdmissionPolicy>,
    obs: Registry,
    // --- run state ---
    jobs: Vec<JobSpec>,
    execs: Vec<Option<TrainingExecution>>,
    slots: Vec<Slot>,
    outcomes: Vec<Option<JobOutcome>>,
    /// The ready queue, in the engine's representation.
    ready: ReadyQueue,
    /// One quota per topology pool (a single neutral pool by default)
    /// and the fleet-clock fault timeline.
    waves: Waves,
    placement: Box<dyn ce_topo::PlacementPolicy>,
    topo_rng: SimRng,
    /// Live (admitted, non-terminal) jobs per pool — the placement
    /// policy's queue-pressure signal.
    live_by_pool: Vec<u32>,
    /// Jobs ever placed on each pool, for the `topo.jobs.*` counters.
    placed_by_pool: Vec<u64>,
    /// Epochs in flight per storage service (`StorageKind as usize`).
    active_by_kind: [u32; 4],
    running: usize,
    contention_extra_s: f64,
    /// Handles of the metrics dispatch updates per epoch or per quota
    /// stall.
    metrics: DispatchMetrics,
}

/// `cluster.*` handles held by the simulation rather than looked up by
/// name on every epoch or stall. Each is registered at its first use,
/// exactly when a by-name lookup would have registered it.
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
        // Pool quotas default to the shared account limit. Crash draws
        // fork a `"fleet-chaos"` stream of the fleet seed, so adding or
        // removing jobs never shifts any job's own draws.
        let chaos_rng = SimRng::new(spec.fleet.seed).derive("fleet-chaos");
        let waves = Waves::new(&spec.topology, spec.quota, spec.chaos.as_ref(), chaos_rng);
        let pool_count = waves.pool_count();
        // Placement draws (if a policy ever makes any) come from a fork
        // of the fleet's root stream, so adding pools never shifts job
        // draws.
        let placement = ce_topo::parse_placement(&spec.placement).expect("validated placement");
        let topo_rng = SimRng::new(spec.fleet.seed).derive("topo");
        ClusterSim {
            spec,
            policy,
            obs: Registry::new(),
            jobs: Vec::new(),
            execs: Vec::new(),
            slots: Vec::new(),
            outcomes: Vec::new(),
            ready: ReadyQueue::Naive(Vec::new()),
            waves,
            placement,
            topo_rng,
            live_by_pool: vec![0; pool_count],
            placed_by_pool: vec![0; pool_count],
            active_by_kind: [0; 4],
            running: 0,
            contention_extra_s: 0.0,
            metrics: DispatchMetrics::default(),
        }
    }

    /// Routes fleet metrics and events into `registry`.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.obs = registry.clone();
        self
    }

    fn view(&self, now_s: f64) -> ClusterView {
        ClusterView {
            now_s,
            quota_in_use: self.waves.in_use(),
            quota_limit: self.waves.limit(),
            queue_len: self.ready.len(),
            running: self.running,
        }
    }

    /// Places an admitted job on a pool. Single-pool topologies skip
    /// the policy entirely (index 0 is forced), preserving the
    /// pre-topology byte stream.
    fn place_job(&mut self, i: usize) -> usize {
        if !self.waves.multi_pool() {
            self.live_by_pool[0] += 1;
            self.placed_by_pool[0] += 1;
            return 0;
        }
        // Batches ship with the wave: nothing crosses a link.
        let views: Vec<PoolView> = (0..self.waves.pool_count())
            .map(|p| self.waves.pool_view(p, self.live_by_pool[p], f64::INFINITY))
            .collect();
        let job = &self.jobs[i];
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
        self.slots[i].pool = pool;
        self.live_by_pool[pool] += 1;
        self.placed_by_pool[pool] += 1;
        pool
    }

    /// Runs the fleet to completion and reports the frontier point.
    pub fn run(mut self) -> FleetReport {
        self.jobs = self.spec.fleet.generate();
        let n = self.jobs.len();
        self.execs = (0..n).map(|_| None).collect();
        self.slots = vec![Slot::default(); n];
        self.outcomes = vec![None; n];

        // Resolve the engine: the indexed ready-set needs a keyed
        // policy; anything else runs the naive scan.
        let keyed = match self.jobs.first() {
            Some(spec) => {
                let probe = ReadyJob {
                    spec,
                    workers: 1,
                    queued_since_s: 0.0,
                };
                self.policy.dispatch_key(&probe).is_some()
            }
            None => true,
        };
        self.ready = if self.spec.engine == FleetEngine::Heap && keyed {
            ReadyQueue::Indexed(ReadySet::default())
        } else {
            ReadyQueue::Naive(Vec::new())
        };

        let mut events: EventQueue<FleetEvent> = EventQueue::with_capacity(n + 1);
        for (i, job) in self.jobs.iter().enumerate() {
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
            self.waves.advance(t);
            makespan_s = makespan_s.max(t);
            match event {
                FleetEvent::Arrival { job } => self.on_arrival(job, t),
                FleetEvent::EpochDone { job } => self.on_epoch_done(job, t),
                // A chaos-stalled job becomes ready again.
                FleetEvent::Resume { job } => self.enqueue(job),
            }
            self.dispatch(t, &mut events);
        }

        self.finalize(makespan_s)
    }

    fn on_arrival(&mut self, i: usize, t: f64) {
        let job = &self.jobs[i];
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
        let view = self.view(t);
        if self.policy.admit(job, &view) == Admission::Reject {
            self.obs.counter("cluster.rejected").inc();
            self.obs.counter("cluster.qos_violations").inc();
            self.obs
                .event(t, "cluster.job_rejected", &[("job", json!(job.id))]);
            self.outcomes[i] = Some(JobOutcome {
                id: job.id,
                tenant: job.tenant,
                status: JobStatus::Rejected,
                arrival_s: job.arrival_s,
                finish_s: t,
                queue_delay_s: 0.0,
                epochs: 0,
                cost_usd: 0.0,
                qos_violated: true,
                budget_violated: false,
                cold_resumes: 0,
            });
            return;
        }
        self.obs.counter("cluster.admitted").inc();
        let pool = self.place_job(i);
        let job = &self.jobs[i];
        // Cap the allocation grid below the *pool's* limit so placed
        // waves never structurally overflow their pool.
        let mut tj = training_job(
            job,
            &self.spec.fleet.env,
            self.spec.job_cap.min(self.waves.quota(pool).limit()),
        )
        .with_obs(&self.obs)
        .with_recovery(self.spec.recovery);
        if let Some(k) = self.spec.checkpoint_every {
            tj = tj.with_checkpoint_every(k);
        }
        match TrainingExecution::start(tj, FLEET_METHOD) {
            Ok(exec) => {
                self.execs[i] = Some(exec);
                self.slots[i].queued_since = t;
                self.enqueue(i);
            }
            Err(_) => self.fail_job(i, t, 0.0),
        }
    }

    /// Adds job `i` to the ready queue. Its `queued_since` stamp and
    /// allocation must already be final: the indexed engine's dispatch
    /// key is computed here and must not change while the job waits.
    fn enqueue(&mut self, i: usize) {
        let key = match &self.ready {
            ReadyQueue::Naive(_) => 0.0,
            ReadyQueue::Indexed(_) => {
                let job = ReadyJob {
                    spec: &self.jobs[i],
                    workers: self.execs[i].as_ref().expect("queued job runs").alloc().n,
                    queued_since_s: self.slots[i].queued_since,
                };
                self.policy
                    .dispatch_key(&job)
                    .expect("indexed engine requires a keyed policy")
            }
        };
        match &mut self.ready {
            ReadyQueue::Naive(queue) => queue.push(i),
            ReadyQueue::Indexed(set) => set.push(key, i),
        }
    }

    /// The job the policy dispatches next. `None` idles the cluster
    /// until the next event.
    fn pick_next(&self, t: f64) -> Option<usize> {
        match &self.ready {
            ReadyQueue::Naive(queue) => {
                if queue.is_empty() {
                    return None;
                }
                let ready: Vec<ReadyJob<'_>> = queue
                    .iter()
                    .map(|&i| ReadyJob {
                        spec: &self.jobs[i],
                        workers: self.execs[i].as_ref().expect("queued job runs").alloc().n,
                        queued_since_s: self.slots[i].queued_since,
                    })
                    .collect();
                let view = self.view(t);
                let pick = self.policy.pick(&ready, &view)?;
                Some(queue[pick])
            }
            ReadyQueue::Indexed(set) => set.peek_min(),
        }
    }

    /// Removes the picked job `i` from the ready queue. Every removal
    /// targets the job the policy just picked, so the indexed engine
    /// pops its minimum.
    fn remove_ready(&mut self, i: usize) {
        match &mut self.ready {
            ReadyQueue::Naive(queue) => {
                let pos = queue.iter().position(|&j| j == i).expect("job is queued");
                queue.remove(pos);
            }
            ReadyQueue::Indexed(set) => {
                let popped = set.pop_min();
                debug_assert_eq!(popped, Some(i), "removal must target the set minimum");
            }
        }
    }

    /// Launches ready epochs while the policy picks one that fits; a
    /// quota stall idles the queue until the next event (see
    /// [`Waves::launch`]).
    fn dispatch(&mut self, t: f64, events: &mut EventQueue<FleetEvent>) {
        while let Some(i) = self.pick_next(t) {
            let exec = self.execs[i].as_mut().expect("queued job runs");
            let slot = &self.slots[i];
            match self.waves.launch(slot.pool, exec, t, slot.queued_since) {
                Launch::QuotaStall => {
                    let obs = &self.obs;
                    self.metrics
                        .quota_stalls
                        .get_or_insert_with(|| obs.counter("cluster.quota_stalls"))
                        .inc();
                    return;
                }
                Launch::Stalled(stall) => {
                    // The job waits out the stall off the queue; its queue
                    // clock is the stall's (see `ce_cluster::wave`).
                    self.remove_ready(i);
                    self.slots[i].queued_since = stall.queued_since;
                    self.obs.counter("cluster.chaos_stalls").inc();
                    let job = ("job", json!(self.jobs[i].id));
                    match stall.cause {
                        StallCause::Outage { storage, until_s } => self.obs.event(
                            t,
                            "cluster.chaos_outage_stall",
                            &[
                                job,
                                ("service", json!(format!("{storage:?}"))),
                                ("until_s", json!(until_s)),
                            ],
                        ),
                        StallCause::WorkerLoss {
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
                    events.schedule_at(
                        SimTime::from_secs(stall.resume_s),
                        FleetEvent::Resume { job: i },
                    );
                }
                Launch::Failed { usd, dequeue } => {
                    self.remove_ready(i);
                    if let Some(dequeue) = dequeue {
                        self.book_wait(i, dequeue);
                    }
                    self.execs[i] = None;
                    self.fail_job(i, t, usd);
                }
                Launch::Started { wave, dequeue } => {
                    self.remove_ready(i);
                    self.book_wait(i, dequeue);
                    let obs = &self.obs;
                    self.metrics
                        .epochs
                        .get_or_insert_with(|| obs.counter("cluster.epochs"))
                        .inc();
                    let ki = wave.storage as usize;
                    self.active_by_kind[ki] += 1;
                    let factor = self
                        .spec
                        .contention
                        .sync_slowdown(wave.storage, self.active_by_kind[ki]);
                    // A degrade window stretches this epoch's sync on top
                    // of whatever the other tenants already cost it.
                    if wave.degrade > 1.0 {
                        let obs = &self.obs;
                        self.metrics
                            .chaos_degraded_epochs
                            .get_or_insert_with(|| obs.counter("cluster.chaos_degraded_epochs"))
                            .inc();
                    }
                    let extra = (factor - 1.0 + (wave.degrade - 1.0)) * wave.step.sync_s;
                    let exec = self.execs[i].as_mut().expect("queued job runs");
                    exec.charge_contention(extra);
                    self.contention_extra_s += extra;
                    let slot = &mut self.slots[i];
                    slot.in_flight = Some(wave);
                    slot.epochs = wave.step.epoch;
                    self.running += 1;
                    events.schedule_at(
                        SimTime::from_secs(t + wave.wall_s + extra),
                        FleetEvent::EpochDone { job: i },
                    );
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
            m.cold_resumes
                .get_or_insert_with(|| obs.counter("cluster.cold_resumes"))
                .inc();
        }
    }

    fn on_epoch_done(&mut self, i: usize, t: f64) {
        let slot = &mut self.slots[i];
        let wave = slot.in_flight.take().expect("epoch was in flight");
        self.active_by_kind[wave.storage as usize] -= 1;
        self.running -= 1;
        match self.waves.land(slot.pool, wave.workers, &mut self.execs[i]) {
            Landing::Next => {
                self.slots[i].queued_since = t;
                self.enqueue(i);
            }
            Landing::Finished(Finished { report, usd, .. }) => {
                let job = &self.jobs[i];
                let qos_violated = t - job.arrival_s > job.deadline_s;
                self.obs.counter("cluster.completed").inc();
                if qos_violated {
                    self.obs.counter("cluster.qos_violations").inc();
                }
                if report.budget_violated {
                    self.obs.counter("cluster.budget_violations").inc();
                }
                self.obs.event(
                    t,
                    "cluster.job_done",
                    &[
                        ("job", json!(job.id)),
                        ("epochs", json!(report.epochs)),
                        ("cost_usd", json!(usd)),
                        ("qos_violated", json!(qos_violated)),
                    ],
                );
                self.outcomes[i] = Some(JobOutcome {
                    id: job.id,
                    tenant: job.tenant,
                    status: JobStatus::Completed,
                    arrival_s: job.arrival_s,
                    finish_s: t,
                    queue_delay_s: self.slots[i].queue_delay_s,
                    epochs: report.epochs,
                    cost_usd: usd,
                    qos_violated,
                    budget_violated: report.budget_violated,
                    cold_resumes: self.slots[i].cold_resumes,
                });
                self.live_by_pool[self.slots[i].pool] -= 1;
            }
            Landing::Failed { usd } => self.fail_job(i, t, usd),
        }
    }

    /// Marks a job failed (admission-time infeasibility, structural
    /// quota overflow, or non-convergence). Fleet dollars still count
    /// `cost_usd`, what it billed before failing, already scaled by its
    /// pool's price class. Every caller runs after placement, so the
    /// pool is final.
    fn fail_job(&mut self, i: usize, t: f64, cost_usd: f64) {
        self.live_by_pool[self.slots[i].pool] -= 1;
        let job = &self.jobs[i];
        let slot = &self.slots[i];
        self.obs.counter("cluster.failed").inc();
        self.obs.counter("cluster.qos_violations").inc();
        self.obs
            .event(t, "cluster.job_failed", &[("job", json!(job.id))]);
        self.outcomes[i] = Some(JobOutcome {
            id: job.id,
            tenant: job.tenant,
            status: JobStatus::Failed,
            arrival_s: job.arrival_s,
            finish_s: t,
            queue_delay_s: slot.queue_delay_s,
            epochs: slot.epochs,
            cost_usd,
            qos_violated: true,
            budget_violated: false,
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
        let quota_utilization = self.waves.utilization(makespan_s);
        let quota_peak = self.waves.peak();
        self.obs.gauge("cluster.makespan_s").set(makespan_s);
        self.obs.gauge("cluster.fleet_dollars").set(fleet_dollars);
        self.obs
            .gauge("cluster.quota_peak")
            .set(f64::from(quota_peak));
        self.obs
            .gauge("cluster.quota_utilization")
            .set(quota_utilization);
        self.obs
            .gauge("cluster.contention_extra_s")
            .set(self.contention_extra_s);
        if self.waves.multi_pool() {
            self.obs
                .gauge("topo.pools")
                .set(self.spec.topology.pools.len() as f64);
            for (p, pool) in self.spec.topology.pools.iter().enumerate() {
                self.obs
                    .counter(&format!("topo.jobs.{}", pool.name))
                    .add(self.placed_by_pool[p]);
            }
        }
        FleetReport {
            policy: self.policy.name().to_string(),
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
