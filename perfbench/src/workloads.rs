//! The four benchmark workloads, built only from the simulators' public
//! APIs. Each simulation is one (seed, cell) pair; the lifecycle
//! workload cycles through eight cells, the others have one.

use crate::trace::Probes;
use ce_chaos::FaultSchedule;
use ce_cluster::{ClusterSim, ClusterSpec, FleetReport, FleetSpec};
use ce_faas::KeepAlive;
use ce_lifecycle::{LifecycleReport, LifecycleSim, LifecycleSpec};
use ce_obs::Registry;
use ce_resilience::{HedgePolicy, ResilienceSpec, RetryPolicy};
use ce_serve::{ArrivalModel, Autoscaler, ServeReport, ServeSim, ServeSpec};
use ce_topo::Topology;
use ce_workflow::RecoveryPolicy;
use std::sync::Mutex;
use std::time::Instant;

/// Serve SLO every serve workload is judged against (ms).
const SLO_MS: f64 = 800.0;

/// `serve-diurnal`: arrival window (s). 80 s at 200 req/s base is
/// ~23k requests per simulation.
const DIURNAL_WINDOW_S: f64 = 80.0;
/// `serve-edge-chaos`: arrival window (s), ~24k requests at the zoo's
/// 40 req/s.
const EDGE_WINDOW_S: f64 = 600.0;
const EDGE_CHAOS: &str = "crash:0.2@0..inf;coldspike:x4@0..inf";
/// `fleet-chaos`: jobs per fleet. A 1,000-function quota only becomes
/// contended after ~200 jobs (0.7-1.1 s per simulation), so the quota
/// is scaled down with the job count to keep it contended: about two
/// thirds of the jobs violate QoS.
pub const FLEET_JOBS: usize = 40;
const FLEET_RATE_PER_MIN: f64 = 4.0;
const FLEET_QUOTA: u32 = 300;
const FLEET_CHAOS: &str = "crash:0.05@0..inf;outage:s3@1800..3600";
/// `lifecycle-mix`: serve window (s) and the tenant counts it cycles.
const LIFECYCLE_WINDOW_S: f64 = 300.0;
const LIFECYCLE_TENANTS: [u32; 2] = [4, 8];
const LIFECYCLE_QUOTA: u32 = 32;
/// Priority policies in the order the lifecycle cells cycle them.
pub const PRIORITIES: [&str; 4] = ["serve-first", "train-first", "fair-share", "deadline"];

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeDiurnal,
    ServeEdgeChaos,
    FleetChaos,
    LifecycleMix,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ServeDiurnal,
        Kind::ServeEdgeChaos,
        Kind::FleetChaos,
        Kind::LifecycleMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeDiurnal => "serve-diurnal",
            Kind::ServeEdgeChaos => "serve-edge-chaos",
            Kind::FleetChaos => "fleet-chaos",
            Kind::LifecycleMix => "lifecycle-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Simulations in one pass of the seed list, each on its own seed.
    /// The more distinct simulations a run covers, the less its medians
    /// hang on which seeds it drew, so a pass takes most of a 25 s run
    /// on the reference box where simulations differ most from seed to
    /// seed; `serve-diurnal` simulations differ little, and a run covers
    /// its pass twice. Lifecycle passes are whole rounds of its cells.
    pub fn pass_len(self) -> usize {
        match self {
            Kind::ServeDiurnal => 50,
            Kind::FleetChaos => 110,
            Kind::ServeEdgeChaos => 170,
            Kind::LifecycleMix => 28 * self.cells(),
        }
    }

    /// The shared quota the gate holds `quota_peak` to.
    pub fn quota(self) -> u32 {
        match self {
            Kind::FleetChaos => FLEET_QUOTA,
            Kind::LifecycleMix => LIFECYCLE_QUOTA,
            Kind::ServeDiurnal | Kind::ServeEdgeChaos => u32::MAX,
        }
    }

    /// Cells a pass cycles through: the lifecycle's (priority, tenants)
    /// pairs, one for every other workload.
    pub fn cells(self) -> usize {
        match self {
            Kind::LifecycleMix => LIFECYCLE_TENANTS.len() * PRIORITIES.len(),
            _ => 1,
        }
    }
}

/// Seed `i` of the pass: a splitmix64 mix of the base seed and `i`, so
/// neighbouring base seeds give unrelated simulation seeds.
pub fn pass_seed(base: u64, i: u64) -> u64 {
    let mut z = base
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One simulation of a workload: its seed and its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimId {
    pub seed: u64,
    pub cell: usize,
}

impl SimId {
    /// `(priority, tenants)` of a lifecycle cell.
    pub fn lifecycle_cell(self) -> (&'static str, u32) {
        (
            PRIORITIES[self.cell % PRIORITIES.len()],
            LIFECYCLE_TENANTS[self.cell / PRIORITIES.len()],
        )
    }
}

/// Everything built once per run: parsed specs and constructed
/// policies (the `qlearn` autoscaler is trained here).
pub struct Workload {
    pub kind: Kind,
    chaos: Option<FaultSchedule>,
    topology: Option<Topology>,
    // Behind mutexes so one workload can build simulators on several
    // worker threads (the policy traits are `Send` but not `Sync`).
    autoscaler: Option<Mutex<Box<dyn Autoscaler>>>,
    keep_alive: Option<Mutex<Box<dyn KeepAlive>>>,
    /// Host time the Q-learning autoscaler took to train.
    pub qlearn_train_ms: f64,
}

/// A built simulator, ready to run.
// Built and consumed one at a time, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Sim {
    Serve(ServeSim),
    Cluster(ClusterSim),
    Lifecycle(LifecycleSim),
}

/// A simulator's report.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Report {
    Serve(ServeReport),
    Fleet(FleetReport),
    Lifecycle(LifecycleReport),
}

impl Sim {
    pub fn run(self) -> Report {
        match self {
            Sim::Serve(s) => Report::Serve(s.run()),
            Sim::Cluster(s) => Report::Fleet(s.run()),
            Sim::Lifecycle(s) => Report::Lifecycle(s.run()),
        }
    }
}

fn lock<T: ?Sized>(policy: &Option<Mutex<Box<T>>>) -> std::sync::MutexGuard<'_, Box<T>> {
    policy
        .as_ref()
        .expect("serve workloads construct their policies at setup")
        .lock()
        .expect("a policy mutex is only held to clone the policy, which does not panic")
}

fn parse_chaos(spec: &str) -> FaultSchedule {
    FaultSchedule::parse(spec).unwrap_or_else(|e| panic!("chaos spec {spec:?}: {e}"))
}

impl Workload {
    /// Parses the workload's specs and constructs its policies.
    pub fn setup(kind: Kind) -> Workload {
        let mut w = Workload {
            kind,
            chaos: None,
            topology: None,
            autoscaler: None,
            keep_alive: None,
            qlearn_train_ms: 0.0,
        };
        let keep_alive = |name: &str| {
            ce_faas::parse_keep_alive(name).unwrap_or_else(|e| panic!("keep-alive {name}: {e}"))
        };
        match kind {
            Kind::ServeDiurnal => {
                w.autoscaler = Some(Mutex::new(
                    ce_serve::parse_autoscaler("prewarm").expect("prewarm"),
                ));
                w.keep_alive = Some(Mutex::new(keep_alive("histogram")));
            }
            Kind::ServeEdgeChaos => {
                w.chaos = Some(parse_chaos(EDGE_CHAOS));
                w.topology = Some(ce_topo::parse_topology("edge-cloud").expect("edge-cloud"));
                let start = Instant::now();
                let qlearn = ce_serve::parse_autoscaler("qlearn").expect("qlearn");
                w.qlearn_train_ms = start.elapsed().as_secs_f64() * 1e3;
                w.autoscaler = Some(Mutex::new(qlearn));
                w.keep_alive = Some(Mutex::new(keep_alive("adaptive")));
            }
            Kind::FleetChaos => w.chaos = Some(parse_chaos(FLEET_CHAOS)),
            Kind::LifecycleMix => {}
        }
        w
    }

    /// Draws the inputs a fleet simulator draws itself at the start of
    /// `run()`: the fleet's job list. This fills the process-wide Pareto
    /// profile cache the job generator reads, so the first timed
    /// simulation does not pay for it. A no-op for the other workloads.
    pub fn draw_inputs(&self, id: SimId) {
        if self.kind == Kind::FleetChaos {
            std::hint::black_box(self.fleet_spec(id.seed).generate());
        }
    }

    fn fleet_spec(&self, seed: u64) -> FleetSpec {
        FleetSpec::poisson(FLEET_JOBS, FLEET_RATE_PER_MIN, seed)
    }

    /// Builds the simulator for `id`, metrics into `obs`. With `probes`,
    /// the injected policies are wrapped in timing wrappers.
    pub fn build(&self, id: SimId, obs: &Registry, probes: Option<&Probes>) -> Sim {
        match self.kind {
            Kind::ServeDiurnal | Kind::ServeEdgeChaos => {
                let spec = self.serve_spec(id.seed);
                let mut autoscaler = lock(&self.autoscaler).clone_box();
                let mut keep_alive = lock(&self.keep_alive).clone_box();
                if let Some(p) = probes {
                    autoscaler = p.wrap_autoscaler(autoscaler);
                    keep_alive = p.wrap_keep_alive(keep_alive);
                }
                Sim::Serve(ServeSim::new(spec, autoscaler, keep_alive).with_obs(obs))
            }
            Kind::FleetChaos => {
                let spec = ClusterSpec::new(self.fleet_spec(id.seed), FLEET_QUOTA)
                    .with_recovery(RecoveryPolicy::CheckpointResume)
                    .with_checkpoint_every(5)
                    .with_chaos(self.chaos.clone().expect("fleet chaos"));
                let mut policy = ce_cluster::policy_by_name("edf").expect("edf");
                if let Some(p) = probes {
                    policy = p.wrap_admission(policy);
                }
                Sim::Cluster(ClusterSim::new(spec, policy).with_obs(obs))
            }
            Kind::LifecycleMix => {
                let (priority, tenants) = id.lifecycle_cell();
                let spec = LifecycleSpec::new(tenants, LIFECYCLE_WINDOW_S, id.seed)
                    .with_quota(LIFECYCLE_QUOTA)
                    .with_job_cap(8)
                    .with_rps(4.0)
                    .with_drift_mean_s(150.0);
                let mut policy = ce_lifecycle::priority_by_name(priority).expect("priority");
                if let Some(p) = probes {
                    policy = p.wrap_priority(policy);
                }
                Sim::Lifecycle(LifecycleSim::new(spec, policy).with_obs(obs))
            }
        }
    }

    fn serve_spec(&self, seed: u64) -> ServeSpec {
        match self.kind {
            Kind::ServeDiurnal => ServeSpec::new(
                ArrivalModel::Diurnal {
                    base_rps: 200.0,
                    amplitude: 0.8,
                    period_s: 500.0,
                },
                DIURNAL_WINDOW_S,
                seed,
            )
            .with_slo_ms(SLO_MS),
            Kind::ServeEdgeChaos => {
                // Breaker and brownout stay off: under this chaos the
                // breaker stays open and turns the run into a shedding
                // fast path, and brownout never fires.
                let mut resilience = ResilienceSpec::disabled();
                resilience.timeout_ms = Some(2000.0);
                resilience.retry = Some(RetryPolicy::new(2));
                resilience.retry_budget = Some(0.5);
                resilience.hedge = Some(HedgePolicy::P95);
                ServeSpec::new(
                    ArrivalModel::Zoo {
                        spec: ce_serve::parse_zoo("bursty").expect("bursty preset"),
                    },
                    EDGE_WINDOW_S,
                    seed,
                )
                .with_slo_ms(SLO_MS)
                .with_topology(self.topology.clone().expect("edge topology"))
                .with_placement("workload-aware")
                .with_chaos(self.chaos.clone().expect("edge chaos"))
                .with_resilience(resilience)
            }
            _ => unreachable!("not a serve workload"),
        }
    }
}
