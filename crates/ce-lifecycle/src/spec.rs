//! Lifecycle fleet configuration and deterministic tenant generation.
//!
//! A lifecycle fleet is `tenants` independent ML services sharing one
//! account quota. Each tenant owns a training workload (a budgeted
//! ce-workflow job from the paper's zoo) *and* an open-loop serving
//! workload (a Poisson request stream), plus a drift process that
//! periodically invalidates the deployed model and triggers a retrain.
//! Generation mirrors `ce_cluster::FleetSpec::generate`: budgets and
//! deadlines are sized from each workload's Pareto profile so they are
//! feasible but not lavish, and everything derives from the master seed
//! so fleets are byte-identical per seed.

use ce_chaos::FaultSchedule;
use ce_ml::curve::CurveParams;
use ce_models::{AllocationSpace, Environment, Workload};
use ce_pareto::ParetoProfiler;
use ce_resilience::ResilienceSpec;
use ce_serve::{check_arrivals, fixed_pool_size, ArrivalModel, MAX_CAPACITY};
use ce_sim_core::rng::SimRng;
use ce_sim_core::SpecError;
use ce_topo::Topology;

/// The range each tenant's request rate is drawn from, as multiples of
/// [`LifecycleSpec::rps`].
pub const RPS_JITTER: (f64, f64) = (0.6, 1.4);

/// Configuration of one lifecycle run.
#[derive(Debug, Clone)]
pub struct LifecycleSpec {
    /// Number of tenants (each trains *and* serves).
    pub tenants: u32,
    /// Serve-arrival window length in seconds (the run drains after it).
    pub duration_s: f64,
    /// Master seed; every stream derives from it.
    pub seed: u64,
    /// Shared account concurrency limit (workers), leased by both
    /// request dispatches (1 each) and epoch waves (`alloc().n` each).
    pub quota: u32,
    /// Cap on one training wave's width (the allocation grid never
    /// plans waves the shared limit could not supply).
    pub job_cap: u32,
    /// Mean per-tenant request rate (requests/second); each tenant's
    /// actual rate is jittered around this.
    pub rps: f64,
    /// End-to-end request latency SLO in milliseconds.
    pub slo_ms: f64,
    /// Mean seconds between drift events per tenant (exponential gaps);
    /// `0` disables drift entirely.
    pub drift_mean_s: f64,
    /// Training snapshot interval in epochs (rollback granularity under
    /// preemption).
    pub checkpoint_every: u32,
    /// Autoscaler registry name, one instance per tenant
    /// (`ce_serve::autoscaler_by_name`).
    pub autoscaler: String,
    /// Keep-alive registry name, one instance per tenant
    /// (`ce_faas::parse_keep_alive`).
    pub keep_alive: String,
    /// Optional fault schedule shared by both halves of the lifecycle.
    pub chaos: Option<FaultSchedule>,
    /// Per-tenant admission-queue capacity (requests).
    pub queue_cap: usize,
    /// Request-level resilience policies (timeouts, retries, hedging,
    /// circuit breaking, brownout), applied per tenant. Disabled by
    /// default, in which case the run is bit-identical to one built
    /// before the resilience layer existed.
    pub resilience: ResilienceSpec,
    /// The substrate the fleet runs on. Each pool wraps its own worker
    /// quota (`pool.quota`, falling back to [`LifecycleSpec::quota`]);
    /// the default single neutral pool reproduces pre-topology runs
    /// byte-for-byte.
    pub topology: Topology,
    /// Placement-policy registry name
    /// (`ce_topo::parse_placement`); only consulted multi-pool.
    pub placement: String,
    /// The environment training jobs run in.
    pub env: Environment,
}

impl LifecycleSpec {
    /// A spec with defaults sized so a handful of tenants genuinely
    /// contend: 48 shared workers, 8-wide training waves, ~4 rps per
    /// tenant, a 500 ms SLO, and drift every ~3 minutes.
    pub fn new(tenants: u32, duration_s: f64, seed: u64) -> Self {
        LifecycleSpec {
            tenants,
            duration_s,
            seed,
            quota: 48,
            job_cap: 8,
            rps: 4.0,
            slo_ms: 500.0,
            drift_mean_s: 180.0,
            checkpoint_every: 5,
            autoscaler: "target".to_string(),
            keep_alive: "fixed".to_string(),
            chaos: None,
            queue_cap: 10_000,
            resilience: ResilienceSpec::disabled(),
            topology: Topology::single(),
            placement: "edge-first".to_string(),
            env: Environment::aws_default(),
        }
    }

    /// Sets the shared account quota.
    pub fn with_quota(mut self, quota: u32) -> Self {
        self.quota = quota;
        self
    }

    /// Sets the training wave-width cap.
    pub fn with_job_cap(mut self, job_cap: u32) -> Self {
        self.job_cap = job_cap;
        self
    }

    /// Sets the mean per-tenant request rate.
    pub fn with_rps(mut self, rps: f64) -> Self {
        self.rps = rps;
        self
    }

    /// Sets the request latency SLO in milliseconds.
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = slo_ms;
        self
    }

    /// Sets the mean drift interval (`0` disables drift).
    pub fn with_drift_mean_s(mut self, drift_mean_s: f64) -> Self {
        self.drift_mean_s = drift_mean_s;
        self
    }

    /// Attaches a fault schedule.
    pub fn with_chaos(mut self, chaos: FaultSchedule) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets the per-tenant admission-queue capacity.
    pub fn with_queue_cap(mut self, queue_cap: usize) -> Self {
        self.queue_cap = queue_cap;
        self
    }

    /// Attaches request-level resilience policies.
    pub fn with_resilience(mut self, resilience: ResilienceSpec) -> Self {
        self.resilience = resilience;
        self
    }

    /// Runs the fleet on `topology` instead of the single neutral pool.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the placement policy arbitrating multi-pool runs.
    pub fn with_placement(mut self, name: &str) -> Self {
        self.placement = name.to_string();
        self
    }

    /// Checks the run's size and ranges before any work is done: at
    /// least one tenant, worker, queue slot and checkpoint epoch; the
    /// tenants against [`ce_cluster::MAX_JOBS`] (each trains at least
    /// once); the most arrivals the tenants could draw ([`RPS_JITTER`]'s
    /// upper end at every tenant) and the expected drift events against
    /// [`ce_serve::MAX_ARRIVALS`]; and the substrate. It draws nothing
    /// and generates no tenant.
    pub fn validate(&self) -> Result<(), SpecError> {
        SpecError::nonzero(&[
            (self.tenants.into(), "tenants", "tenant"),
            (self.quota.into(), "quota", "worker"),
            (self.job_cap.into(), "job_cap", "worker"),
            (self.queue_cap as u64, "queue_cap", "slot"),
            (self.checkpoint_every.into(), "checkpoint_every", "epoch"),
        ])?;
        ce_cluster::check_jobs("tenants", self.tenants as usize)?;
        let tenants = f64::from(self.tenants);
        check_arrivals(
            "arrivals",
            tenants * RPS_JITTER.1 * self.rps * self.duration_s,
        )?;
        // A non-positive mean disables drift; a NaN one fails the check.
        if self.drift_mean_s > 0.0 || self.drift_mean_s.is_nan() {
            check_arrivals(
                "drift events",
                tenants * self.duration_s / self.drift_mean_s,
            )?;
        }
        // Every tenant's lane prewarms its own fixed pool up front. A bad
        // size is left to the autoscaler parser; a `qlearn` spec is never
        // parsed here, since parsing it trains.
        if let Some(Ok(size)) = fixed_pool_size(&self.autoscaler) {
            SpecError::at_most(
                "warm instances",
                tenants * f64::from(size),
                MAX_CAPACITY as usize,
            )?;
        }
        self.topology.validate(&self.placement)
    }

    /// Generates the per-tenant specs, deterministically per seed.
    ///
    /// Budget is the mid-boundary allocation's cost over the mean epoch
    /// count times U(2, 3); the deadline span is the matching runtime
    /// times U(1.3, 1.8) — headroom that preemption rollbacks and quota
    /// stalls eat quickly. Serve arrivals and drift times are drawn on
    /// per-tenant derived streams, so adding a tenant never shifts
    /// another tenant's draws.
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        let rng = SimRng::new(self.seed).derive("lifecycle");
        let zoo = ce_cluster::FleetSpec::zoo();
        // Anchor on the same capped grid the jobs will actually plan
        // over — an uncapped anchor would size deadlines around waves
        // the quota can never supply.
        let space =
            AllocationSpace::aws_default().with_max_concurrency(self.job_cap.min(self.quota));
        // Per-workload (mid-boundary cost/epoch, time/epoch, mean
        // epochs): profile once, reuse across tenants.
        let anchors: Vec<(f64, f64, f64)> = zoo
            .iter()
            .map(|w| {
                let profile = ParetoProfiler::new(&self.env)
                    .with_space(space.clone())
                    .profile_workload_cached(w);
                let boundary = profile.boundary();
                let mid = boundary[boundary.len() / 2];
                let curve = CurveParams::for_workload(w.model.family, &w.dataset.name);
                let target = ce_ml::curve::table4_target(w.model.family, &w.dataset.name);
                let epochs = curve.mean_epochs_to(target).unwrap_or(50.0);
                (mid.cost_usd(), mid.time_s(), epochs)
            })
            .collect();

        (0..self.tenants)
            .map(|t| {
                let mut trng = rng.derive_idx("tenant", u64::from(t));
                let wi = trng.gen_index(zoo.len());
                let (cost_per_epoch, time_per_epoch, epochs) = anchors[wi];
                let budget_usd = cost_per_epoch * epochs * trng.uniform_range(2.0, 3.0);
                let deadline_span_s = time_per_epoch * epochs * trng.uniform_range(1.3, 1.8);
                let train_arrival_s = trng.uniform_range(0.0, 30.0);
                let rps = self.rps * trng.uniform_range(RPS_JITTER.0, RPS_JITTER.1);
                let mut arrival_rng = trng.derive("serve-arrivals");
                let arrival_s =
                    ArrivalModel::Poisson { rps }.generate(self.duration_s, &mut arrival_rng);
                let drift_s = drift_times(self.drift_mean_s, self.duration_s, trng.derive("drift"));
                TenantSpec {
                    id: t,
                    workload: zoo[wi].clone(),
                    train_arrival_s,
                    budget_usd,
                    deadline_span_s,
                    rps,
                    arrival_s,
                    drift_s,
                    train_seed: trng.next_u64(),
                    model_seed: trng.next_u64(),
                }
            })
            .collect()
    }
}

/// Exponential drift gaps with mean `mean_s`, clipped to the arrival
/// window. A non-positive mean disables drift.
fn drift_times(mean_s: f64, duration_s: f64, mut rng: SimRng) -> Vec<f64> {
    if mean_s <= 0.0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u = rng.uniform();
        t += -(1.0 - u).ln() * mean_s;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

/// One tenant's whole lifecycle contract: what it trains, under which
/// budget and deadline, and the serving traffic it must answer while
/// doing so.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Fleet-unique tenant id (also the event-loop iteration order).
    pub id: u32,
    /// What the tenant (re)trains.
    pub workload: Workload,
    /// When the initial training job arrives, seconds from start.
    pub train_arrival_s: f64,
    /// Dollar budget per training run.
    pub budget_usd: f64,
    /// Deadline span per training run, seconds from the run's start
    /// (queueing, stalls, and preemption rollbacks all count).
    pub deadline_span_s: f64,
    /// The tenant's mean request rate (requests/second).
    pub rps: f64,
    /// Pre-drawn serve arrival offsets, seconds, ascending.
    pub arrival_s: Vec<f64>,
    /// Pre-drawn drift instants, seconds, ascending.
    pub drift_s: Vec<f64>,
    /// Base seed for training runs (run `r` derives its own seed).
    pub train_seed: u64,
    /// Seed for per-version serving-profile draws.
    pub model_seed: u64,
}

impl TenantSpec {
    /// The seed training run `run` executes under: run 0 is the initial
    /// job, run `r` the r-th retrain. Derived, so a retrain's loss curve
    /// does not depend on when drift triggered it.
    pub fn run_seed(&self, run: u32) -> u64 {
        SimRng::new(self.train_seed)
            .derive_idx("run", u64::from(run))
            .next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_specs_are_deterministic_per_seed() {
        let spec = LifecycleSpec::new(6, 120.0, 7);
        assert_eq!(spec.tenant_specs(), spec.tenant_specs());
        let other = LifecycleSpec::new(6, 120.0, 8);
        assert_ne!(spec.tenant_specs(), other.tenant_specs());
    }

    #[test]
    fn contracts_are_feasible_and_streams_are_clipped() {
        let spec = LifecycleSpec::new(8, 200.0, 3);
        let tenants = spec.tenant_specs();
        assert_eq!(tenants.len(), 8);
        for t in &tenants {
            assert!(t.budget_usd > 0.0);
            assert!(t.deadline_span_s > 0.0);
            assert!(t.train_arrival_s >= 0.0 && t.train_arrival_s <= 30.0);
            assert!(t.arrival_s.windows(2).all(|w| w[0] <= w[1]));
            assert!(t.drift_s.iter().all(|&d| d < 200.0));
            assert!(t.drift_s.windows(2).all(|w| w[0] <= w[1]));
        }
        // Per-tenant derivation: adding tenants never shifts draws.
        let bigger = LifecycleSpec::new(12, 200.0, 3).tenant_specs();
        assert_eq!(&bigger[..8], &tenants[..]);
    }

    #[test]
    fn validate_refuses_what_the_fleet_cannot_run() {
        let ok = LifecycleSpec::new(4, 300.0, 1);
        assert_eq!(ok.validate(), Ok(()));
        let with = |f: fn(&mut LifecycleSpec)| {
            let mut spec = ok.clone();
            f(&mut spec);
            spec.validate().unwrap_err().to_string()
        };
        for (err, needle) in [
            (with(|s| s.tenants = 0), "at least 1 tenant"),
            (with(|s| s.quota = 0), "at least 1 worker"),
            (with(|s| s.job_cap = 0), "at least 1 worker"),
            (with(|s| s.queue_cap = 0), "at least 1 slot"),
            (with(|s| s.checkpoint_every = 0), "at least 1 epoch"),
            (
                with(|s| s.tenants = u32::MAX),
                "over the ceiling of 100000 tenants",
            ),
            (
                with(|s| s.rps = 1e6),
                "over the ceiling of 10000000 arrivals",
            ),
            (with(|s| s.drift_mean_s = 1e-6), "drift events"),
            (with(|s| s.drift_mean_s = f64::NAN), "drift events"),
            (
                with(|s| s.autoscaler = "fixed:100000".into()),
                "over the ceiling of 100000 warm instances",
            ),
            (
                with(|s| s.placement = "nowhere".into()),
                "unknown placement",
            ),
        ] {
            assert!(err.contains(needle), "{err}");
        }
        // The bound is the top of the rate jitter at every tenant.
        let top = |rps_scale: f64| LifecycleSpec {
            tenants: 1,
            rps: rps_scale * 1e7 / (RPS_JITTER.1 * 300.0),
            drift_mean_s: 0.0,
            ..ok.clone()
        };
        assert_eq!(top(1.0).validate(), Ok(()));
        assert!(top(1.001).validate().is_err());
        // Fixed pools are bounded across the fleet: 4 tenants × 25,000.
        let fixed = |size: u32| LifecycleSpec {
            autoscaler: format!("fixed:{size}"),
            ..ok.clone()
        };
        assert_eq!(fixed(25_000).validate(), Ok(()));
        assert!(fixed(25_001).validate().is_err());
    }

    #[test]
    fn zero_drift_mean_disables_drift() {
        let spec = LifecycleSpec::new(4, 300.0, 5).with_drift_mean_s(0.0);
        assert!(spec.tenant_specs().iter().all(|t| t.drift_s.is_empty()));
    }

    #[test]
    fn run_seeds_differ_across_runs_but_not_across_calls() {
        let spec = LifecycleSpec::new(1, 60.0, 11);
        let t = &spec.tenant_specs()[0];
        assert_eq!(t.run_seed(0), t.run_seed(0));
        assert_ne!(t.run_seed(0), t.run_seed(1));
    }
}
