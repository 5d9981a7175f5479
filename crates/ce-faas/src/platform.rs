//! The stateful platform simulator.
//!
//! [`FaasPlatform`] runs one tenant's BSP training epochs: each epoch is
//! one wave of `n` functions at one memory size (Algorithm 2), launched
//! warm from the instances earlier waves left idle, or cold. The wave is
//! acquired and released as a whole and nothing reads one instance of
//! it, so the platform's warm pool is a counted [`WavePool`]: how many
//! instances of each size went idle at each instant, expiring after the
//! provider's fixed [`crate::keepalive::DEFAULT_TTL_S`] window.

use crate::billing::{lost_wave_bill, BillingLedger};
use crate::epoch::{self, ExecutionFidelity, MeasuredEpoch};
use crate::function::{PoolStats, WavePool};
use crate::quota::QuotaExceeded;
use ce_chaos::{CompiledSchedule, FaultSchedule};
use ce_models::{Allocation, Environment, UnknownStorage, Workload};
use ce_obs::{Counter, Gauge, Histogram, Registry};
use ce_sim_core::rng::SimRng;
use ce_sim_core::time::SimTime;
use ce_storage::{StorageCatalog, StorageKind};
use serde_json::json;
use std::fmt;

/// Why an epoch attempt produced no [`MeasuredEpoch`].
///
/// Quota rejections and unknown-storage lookups are *admission* errors: the
/// wave never launched and nothing was billed. The fault variants come from
/// an attached [`FaultSchedule`] and are *recoverable*: the caller decides
/// whether to back off, restore a checkpoint, or re-plan.
#[derive(Debug, Clone, PartialEq)]
pub enum EpochError {
    /// Concurrency admission failed (platform limit); see
    /// [`QuotaExceeded`].
    Quota(QuotaExceeded),
    /// The allocation names a storage service missing from the catalog.
    UnknownStorage(UnknownStorage),
    /// `lost` workers died at `at_fraction` of the epoch; the whole BSP
    /// wave's progress for this epoch is gone. `wasted_s` of wall time and
    /// `wasted_usd` of spend were burned and already recorded.
    WorkerLost {
        lost: u32,
        at_fraction: f64,
        wasted_s: f64,
        wasted_usd: f64,
    },
    /// The invocation wave was throttled (HTTP 429) before any worker
    /// started; `stall_s` is the platform's suggested minimum wait.
    Throttled { stall_s: f64 },
    /// The allocation's storage service is in an outage window until
    /// `resumes_at_s` on the platform clock.
    StorageUnavailable {
        service: StorageKind,
        resumes_at_s: f64,
    },
}

impl fmt::Display for EpochError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochError::Quota(q) => q.fmt(f),
            EpochError::UnknownStorage(e) => e.fmt(f),
            EpochError::WorkerLost {
                lost, at_fraction, ..
            } => write!(
                f,
                "{lost} worker(s) lost at {:.0}% of the epoch",
                at_fraction * 100.0
            ),
            EpochError::Throttled { stall_s } => {
                write!(f, "invocation wave throttled (suggest {stall_s:.1}s wait)")
            }
            EpochError::StorageUnavailable {
                service,
                resumes_at_s,
            } => write!(f, "{service} unavailable until t={resumes_at_s:.0}s"),
        }
    }
}

impl std::error::Error for EpochError {}

impl From<UnknownStorage> for EpochError {
    fn from(e: UnknownStorage) -> Self {
        EpochError::UnknownStorage(e)
    }
}

/// Per-platform fault-injection state: the compiled schedule plus the
/// dedicated RNG stream its decisions draw from. The stream is derived
/// from the platform seed by label only, so attaching a schedule never
/// shifts the epoch jitter streams — clean and chaotic runs stay
/// draw-for-draw comparable.
#[derive(Debug, Clone)]
struct ChaosState {
    schedule: CompiledSchedule,
    rng: SimRng,
    /// Monotone attempt counter keying fault draws. Counts *attempts*
    /// (including failed ones), unlike `epochs_run`, which only counts
    /// executed epochs — so a redone epoch re-derives the same jitter
    /// stream it would have had in a clean run.
    attempts: u64,
    /// One-shot latches for wave-kill windows, by compiled window index.
    fired_waves: Vec<bool>,
}

/// Handles of the `faas.*` metrics an executed epoch updates, looked up
/// once per platform rather than by name on every epoch. They are made
/// at the first executed epoch, where the by-name lookups registered
/// them, so a platform that executes none exports nothing. The two
/// histograms are registered at their first observation.
#[derive(Debug, Clone)]
struct EpochMetrics {
    invocations: Counter,
    cold_starts: Counter,
    warm_starts: Counter,
    failures: Counter,
    retries: Counter,
    limit_breaches: Counter,
    billed_gb_s: Gauge,
    dollars: Gauge,
    cold_start_s: Option<Histogram>,
    retry_stall_s: Option<Histogram>,
}

impl EpochMetrics {
    fn new(obs: &Registry) -> Self {
        EpochMetrics {
            invocations: obs.counter("faas.invocations"),
            cold_starts: obs.counter("faas.cold_starts"),
            warm_starts: obs.counter("faas.warm_starts"),
            failures: obs.counter("faas.failures"),
            retries: obs.counter("faas.retries"),
            limit_breaches: obs.counter("faas.limit_breaches"),
            billed_gb_s: obs.gauge("faas.billed_gb_s"),
            dollars: obs.gauge("faas.dollars"),
            cold_start_s: None,
            retry_stall_s: None,
        }
    }
}

/// Stochastic-behaviour knobs of the simulated platform.
///
/// The jitter magnitudes are calibrated so the analytical models of
/// `ce-models` predict the simulator within the relative-error bands the
/// paper reports against CloudWatch (0.56–4.9 % JCT, 0.2–7.6 % cost;
/// Figs. 19–20).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// Lognormal sigma of per-worker compute-duration jitter.
    pub compute_jitter: f64,
    /// Lognormal sigma of per-transfer network jitter.
    pub network_jitter: f64,
    /// Mean cold-start latency in seconds.
    pub cold_start_s: f64,
    /// Lognormal sigma of cold-start jitter.
    pub cold_start_jitter: f64,
    /// Maximum concurrent functions (AWS burst quota).
    pub max_concurrency: u32,
    /// Probability that a worker fails during one epoch and must be
    /// retried (the platform re-invokes it; the BSP barrier stalls for
    /// the re-execution). 0 by default — failure injection is opt-in.
    pub failure_rate: f64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            compute_jitter: 0.015,
            network_jitter: 0.06,
            cold_start_s: 1.8,
            cold_start_jitter: 0.25,
            max_concurrency: 3000,
            failure_rate: 0.0,
        }
    }
}

/// The simulated serverless platform: warm pools, billing, and seeded
/// randomness. One `FaasPlatform` instance represents one tenant account
/// running one job; parallel trials clone it with derived RNG streams.
#[derive(Debug, Clone)]
pub struct FaasPlatform {
    env: Environment,
    config: PlatformConfig,
    rng: SimRng,
    ledger: BillingLedger,
    /// The warm pool the epoch waves reuse (idle expiry, limits).
    pool: WavePool,
    /// The platform clock: advanced by every epoch's wall time, anchors
    /// warm-instance idle expiry.
    now: SimTime,
    epochs_run: u64,
    /// Observability sink. Private by default; [`Self::with_registry`]
    /// shares one. All platform metrics are counters/gauges (commutative
    /// adds), so aggregation across forked trial platforms is
    /// order-insensitive.
    obs: Registry,
    /// `obs`'s epoch metric handles, once an epoch has executed.
    metrics: Option<EpochMetrics>,
    /// Optional fault injection; `None` (the default) is the clean
    /// platform, bit-identical to builds without chaos support.
    chaos: Option<ChaosState>,
}

impl FaasPlatform {
    /// Creates a platform over `env` with the default stochastic config.
    pub fn new(env: Environment, seed: u64) -> Self {
        FaasPlatform::with_config(env, PlatformConfig::default(), seed)
    }

    /// Creates a platform with an explicit config.
    pub fn with_config(env: Environment, config: PlatformConfig, seed: u64) -> Self {
        FaasPlatform {
            env,
            config,
            rng: SimRng::new(seed).derive("faas-platform"),
            ledger: BillingLedger::new(),
            pool: WavePool::new(),
            now: SimTime::ZERO,
            epochs_run: 0,
            obs: Registry::new(),
            metrics: None,
            chaos: None,
        }
    }

    /// Attaches a fault schedule, compiled on this platform's dedicated
    /// `"faults"` stream. A zero-fault schedule (no windows, or all
    /// severities zero) leaves every simulated number bit-identical to a
    /// platform with no schedule at all.
    pub fn with_chaos(mut self, schedule: &FaultSchedule) -> Self {
        let faults_rng = self.rng.derive("faults");
        let compiled = schedule.compile(&faults_rng);
        self.chaos = Some(ChaosState {
            fired_waves: vec![false; compiled.windows().len()],
            schedule: compiled,
            rng: faults_rng,
            attempts: 0,
        });
        self
    }

    /// Sends platform metrics (`faas.*`) to a shared registry.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.obs = registry.clone();
        self.metrics = None;
        self
    }

    /// The registry the platform's metrics live in.
    pub fn registry(&self) -> &Registry {
        &self.obs
    }

    /// The environment this platform simulates.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// The stochastic config.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Accumulated billing.
    pub fn ledger(&self) -> &BillingLedger {
        &self.ledger
    }

    /// Number of warm instances available at `memory_mb` right now.
    pub fn warm_count(&self, memory_mb: u32) -> u32 {
        self.pool.warm_count(memory_mb, self.now)
    }

    /// Provisions `n` warm instances of `memory_mb` (pre-warming before
    /// a stage starts or ahead of a delayed restart).
    pub fn prewarm(&mut self, n: u32, memory_mb: u32) {
        self.pool.prewarm(n, memory_mb, self.now);
    }

    /// Drops all warm instances (tenant teardown between phases).
    pub fn cool_down(&mut self) {
        self.pool.cool_down();
    }

    /// The platform clock (sum of executed epochs' wall time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the platform clock by `dt_s` seconds without running
    /// anything: recovery backoffs and checkpoint transfers burn real
    /// simulated time, which moves fault windows along and lets idle warm
    /// instances expire.
    pub fn advance(&mut self, dt_s: f64) {
        assert!(dt_s >= 0.0, "time cannot run backwards");
        self.now += dt_s;
    }

    /// Instance-pool counters (cold starts, warm hits, idle expiries,
    /// execution-limit breaches).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Samples the attached fault schedule for one epoch attempt. Returns
    /// a fatal error, or `(config, env)` overrides (cold-start spike,
    /// degraded storage) for the epoch about to execute.
    ///
    /// All draws come from the chaos stream keyed by a monotone *attempt*
    /// counter, never from the epoch jitter streams, and a quiet instant
    /// draws nothing — so surviving epochs match their clean twins
    /// draw-for-draw.
    fn sample_chaos(
        &mut self,
        w: &Workload,
        alloc: &Allocation,
    ) -> Result<(PlatformConfig, Option<Environment>), EpochError> {
        let mut config = self.config;
        let mut env_override = None;
        let Some(chaos) = self.chaos.as_mut() else {
            return Ok((config, env_override));
        };
        let active = chaos.schedule.active_at(self.now.as_secs());
        if active.is_quiet() {
            return Ok((config, env_override));
        }
        let mut draw = chaos.rng.derive_idx("attempt", chaos.attempts);
        chaos.attempts += 1;

        // Throttling storm: the invoke API rejects the wave before any
        // worker starts; nothing runs, nothing is billed.
        if active.throttle_rate > 0.0 && draw.bernoulli(active.throttle_rate) {
            self.obs.counter("chaos.throttles").inc();
            return Err(EpochError::Throttled {
                stall_s: self.config.cold_start_s,
            });
        }
        // Storage outage: the wave cannot sync gradients at all.
        if let Some(resumes_at_s) = active.outage_until(alloc.storage) {
            self.obs.counter("chaos.storage_outages").inc();
            return Err(EpochError::StorageUnavailable {
                service: alloc.storage,
                resumes_at_s,
            });
        }
        // Fatal worker loss: a one-shot correlated wave kill, or the
        // per-attempt crash draw. One lost worker wastes the whole BSP
        // wave's epoch; the partial work is billed below.
        let mut lost = 0u32;
        for &(window, fraction) in active.wave_kills() {
            if !chaos.fired_waves[window] {
                chaos.fired_waves[window] = true;
                let killed = (fraction * f64::from(alloc.n)).ceil() as u32;
                lost = lost.max(killed.clamp(1, alloc.n));
            }
        }
        if lost == 0 && active.crash_rate > 0.0 && draw.bernoulli(active.crash_rate) {
            lost = 1;
        }
        if lost > 0 {
            // Surface the typed catalog error rather than letting
            // EpochTimeModel's panic fire below.
            if self.env.storage.get(alloc.storage).is_none() {
                return Err(EpochError::UnknownStorage(UnknownStorage {
                    storage: alloc.storage,
                }));
            }
            let at_fraction = draw.uniform();
            let (wasted_s, wasted_usd) = lost_wave_bill(&self.env, w, alloc, at_fraction);
            self.ledger
                .record_invocations(alloc.n, self.env.pricing.per_invocation);
            self.ledger.record_compute(
                alloc.n,
                alloc.memory_mb,
                wasted_s,
                self.env.pricing.per_gb_second,
            );
            self.now += wasted_s;
            self.obs.counter("chaos.worker_losses").add(u64::from(lost));
            self.obs.gauge("chaos.wasted_s").add(wasted_s);
            self.obs.gauge("chaos.wasted_usd").add(wasted_usd);
            self.obs.event(
                self.now.as_secs(),
                "chaos.worker_lost",
                &[
                    ("lost", json!(lost)),
                    ("at_fraction", json!(at_fraction)),
                    ("wasted_s", json!(wasted_s)),
                ],
            );
            return Err(EpochError::WorkerLost {
                lost,
                at_fraction,
                wasted_s,
                wasted_usd,
            });
        }
        // Non-fatal modifiers: these shift means, not draws, so the epoch
        // still consumes exactly the jitter stream of its clean twin.
        if active.cold_start_factor > 1.0 {
            config.cold_start_s *= active.cold_start_factor;
            self.obs.counter("chaos.cold_spikes").inc();
        }
        let degrade = active.degrade_factor(alloc.storage);
        if degrade > 1.0 {
            let mut env = self.env.clone();
            let services = env
                .storage
                .services()
                .iter()
                .map(|s| {
                    if s.kind == alloc.storage {
                        s.degraded(degrade)
                    } else {
                        s.clone()
                    }
                })
                .collect();
            env.storage = StorageCatalog::from_specs(services);
            env_override = Some(env);
            self.obs.counter("chaos.degraded_epochs").inc();
        }
        Ok((config, env_override))
    }

    /// Runs one BSP training epoch of `w` under `alloc`, consuming warm
    /// instances where available and billing everything to the ledger.
    ///
    /// # Errors
    /// Returns [`EpochError::Quota`] — a recoverable admission signal,
    /// never a panic — when `alloc.n` exceeds the platform concurrency
    /// limit. A rejected epoch runs nothing and
    /// bills nothing; the breach is counted under
    /// `faas.limit_breaches` / `faas.quota_rejections`.
    /// [`EpochError::UnknownStorage`] reports an allocation whose storage
    /// service is missing from the catalog. The remaining variants are
    /// injected faults from an attached [`FaultSchedule`]; worker losses
    /// bill their wasted partial work before returning.
    pub fn run_epoch(
        &mut self,
        w: &Workload,
        alloc: &Allocation,
        fidelity: ExecutionFidelity,
    ) -> Result<MeasuredEpoch, EpochError> {
        if alloc.n > self.config.max_concurrency {
            self.obs.counter("faas.limit_breaches").inc();
            self.obs.counter("faas.quota_rejections").inc();
            return Err(EpochError::Quota(QuotaExceeded {
                requested: alloc.n,
                in_use: 0,
                limit: self.config.max_concurrency,
            }));
        }
        let (config, env_override) = self.sample_chaos(w, alloc)?;
        let breaches_before = self.pool.stats().limit_breaches;
        let cold = self.pool.acquire(alloc.n, alloc.memory_mb, self.now);

        let mut epoch_rng = self.rng.derive_idx("epoch", self.epochs_run);
        self.epochs_run += 1;
        let measured = match epoch::simulate_epoch(
            env_override.as_ref().unwrap_or(&self.env),
            &config,
            w,
            alloc,
            cold,
            fidelity,
            &mut epoch_rng,
        ) {
            Ok(m) => m,
            Err(e) => {
                // Unknown storage: the wave never launched. Return the
                // instances untouched.
                self.pool.release(alloc.n, alloc.memory_mb, 0.0, self.now);
                return Err(e.into());
            }
        };
        self.now += measured.wall_s;
        self.pool
            .release(alloc.n, alloc.memory_mb, measured.wall_s, self.now);

        self.ledger
            .record_invocations(alloc.n, self.env.pricing.per_invocation);
        self.ledger.record_compute(
            alloc.n,
            alloc.memory_mb,
            measured.wall_s,
            self.env.pricing.per_gb_second,
        );
        self.ledger.record_storage(
            measured.cost.storage_requests,
            measured.cost.storage_runtime,
        );

        let obs = &self.obs;
        let m = self.metrics.get_or_insert_with(|| EpochMetrics::new(obs));
        m.invocations.add(u64::from(alloc.n));
        m.cold_starts.add(u64::from(cold));
        m.warm_starts.add(u64::from(alloc.n - cold));
        m.failures.add(u64::from(measured.failures));
        m.retries.add(u64::from(measured.failures));
        m.billed_gb_s
            .add(f64::from(alloc.n) * f64::from(alloc.memory_mb) / 1024.0 * measured.wall_s);
        m.dollars.add(measured.cost.total());
        m.limit_breaches
            .add(self.pool.stats().limit_breaches - breaches_before);
        if cold > 0 {
            m.cold_start_s
                .get_or_insert_with(|| obs.histogram("faas.cold_start_s"))
                .observe(measured.cold_start_s);
        }
        if measured.failures > 0 {
            m.retry_stall_s
                .get_or_insert_with(|| obs.histogram("faas.retry_stall_s"))
                .observe(measured.failure_s);
        }
        Ok(measured)
    }

    /// Derives an independent platform for a parallel trial: same
    /// environment and config, fresh ledger and warm pool, RNG stream
    /// keyed by `label`/`idx`.
    pub fn fork(&self, label: &str, idx: u64) -> FaasPlatform {
        FaasPlatform {
            env: self.env.clone(),
            config: self.config,
            rng: self.rng.derive_idx(label, idx),
            ledger: BillingLedger::new(),
            pool: WavePool::new(),
            now: SimTime::ZERO,
            epochs_run: 0,
            // Forked trials share the sink: their counter adds commute,
            // so the aggregate is deterministic regardless of trial order.
            obs: self.obs.clone(),
            metrics: self.metrics.clone(),
            // Forks run offline trials (profiling, tuning brackets); fault
            // schedules target the online training platform only.
            chaos: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_storage::StorageKind;

    fn platform() -> FaasPlatform {
        FaasPlatform::new(Environment::aws_default(), 42)
    }

    fn lr_alloc() -> Allocation {
        Allocation::new(10, 1769, StorageKind::S3)
    }

    #[test]
    fn epoch_bills_ledger() {
        let mut p = platform();
        let w = Workload::lr_higgs();
        let m = p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap();
        let l = p.ledger();
        assert_eq!(l.invocations, 10);
        assert!(l.gb_seconds > 0.0);
        assert!((l.gb_seconds - 10.0 * 1769.0 / 1024.0 * m.wall_s).abs() < 1e-9);
        assert!(l.total_dollars() > 0.0);
    }

    #[test]
    fn cold_then_warm_waves() {
        let mut p = platform();
        let w = Workload::lr_higgs();
        let first = p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap();
        assert_eq!(first.cold_starts, 10);
        let second = p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap();
        assert_eq!(second.cold_starts, 0);
        assert!(first.cold_start_s > 1.0, "cold wave pays the cold start");
        assert_eq!(second.cold_start_s, 0.0, "warm wave pays none");
    }

    #[test]
    fn prewarm_eliminates_cold_starts() {
        let mut p = platform();
        let w = Workload::lr_higgs();
        p.prewarm(10, 1769);
        let m = p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap();
        assert_eq!(m.cold_starts, 0);
    }

    #[test]
    fn cool_down_forgets_warm_pool() {
        let mut p = platform();
        let w = Workload::lr_higgs();
        p.run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap();
        p.cool_down();
        let m = p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap();
        assert_eq!(m.cold_starts, 10);
    }

    #[test]
    fn growing_the_wave_cold_starts_only_new_instances() {
        let mut p = platform();
        let w = Workload::lr_higgs();
        p.run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap();
        let bigger = Allocation::new(16, 1769, StorageKind::S3);
        let m = p.run_epoch(&w, &bigger, ExecutionFidelity::Fast).unwrap();
        assert_eq!(m.cold_starts, 6);
    }

    #[test]
    fn concurrency_quota_is_a_typed_error() {
        let mut p = platform();
        let w = Workload::lr_higgs();
        let huge = Allocation::new(5000, 1769, StorageKind::S3);
        let err = p.run_epoch(&w, &huge, ExecutionFidelity::Fast).unwrap_err();
        let EpochError::Quota(quota) = err else {
            panic!("a quota error, got {err}");
        };
        assert!(quota.is_structural(), "5000 > 3000 can never fit");
        assert_eq!(quota.limit, 3000);
        assert_eq!(p.registry().counter("faas.limit_breaches").get(), 1);
        assert_eq!(p.registry().counter("faas.quota_rejections").get(), 1);
        assert_eq!(p.ledger().invocations, 0, "a rejected epoch bills nothing");
    }

    #[test]
    fn epoch_metrics_register_at_the_first_executed_epoch_and_forks_share_them() {
        let registry = Registry::new();
        let names = || -> Vec<String> {
            let snapshot = registry.snapshot();
            snapshot.as_object().unwrap().keys().cloned().collect()
        };
        let w = Workload::lr_higgs();
        let mut p = FaasPlatform::new(Environment::aws_default(), 3)
            .with_registry(&registry)
            .with_chaos(&FaultSchedule::parse("throttle:1@0..10").unwrap());
        assert!(names().is_empty(), "an idle platform exports nothing");
        assert!(p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .is_err());
        assert_eq!(names(), ["chaos.throttles"], "no faas.* without an epoch");
        p.advance(20.0);
        p.run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap();
        let after_one = names();
        assert!(after_one.iter().any(|n| n == "faas.cold_start_s"));
        assert!(
            !after_one.iter().any(|n| n == "faas.retry_stall_s"),
            "a histogram registers at its first observation"
        );
        // A fork's fresh pool starts cold, into the same registry.
        let mut fork = p.fork("trial", 0);
        fork.run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap();
        p.run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap();
        assert_eq!(registry.counter_value("faas.invocations"), 30);
        assert_eq!(registry.counter_value("faas.cold_starts"), 20);
        assert_eq!(registry.counter_value("faas.warm_starts"), 10);
        assert_eq!(names().len(), after_one.len());
    }

    #[test]
    fn same_seed_same_measurements() {
        let run = || {
            let mut p = FaasPlatform::new(Environment::aws_default(), 7);
            let w = Workload::lr_higgs();
            (0..3)
                .map(|_| {
                    p.run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
                        .unwrap()
                        .wall_s
                })
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn forked_platforms_are_independent_but_deterministic() {
        let p = platform();
        let w = Workload::lr_higgs();
        let mut a1 = p.fork("trial", 0);
        let mut a2 = p.fork("trial", 0);
        let mut b = p.fork("trial", 1);
        let wa1 = a1
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap()
            .wall_s;
        let wa2 = a2
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap()
            .wall_s;
        let wb = b
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap()
            .wall_s;
        assert_eq!(wa1, wa2);
        assert_ne!(wa1, wb);
        assert_eq!(p.ledger().total_dollars(), 0.0, "fork must not bill parent");
    }

    #[test]
    fn zero_fault_schedule_is_bit_identical_to_no_schedule() {
        let run = |schedule: Option<FaultSchedule>| {
            let registry = Registry::new();
            let mut p = FaasPlatform::new(Environment::aws_default(), 7).with_registry(&registry);
            if let Some(s) = schedule {
                p = p.with_chaos(&s);
            }
            let w = Workload::lr_higgs();
            let walls: Vec<f64> = (0..5)
                .map(|_| {
                    p.run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
                        .unwrap()
                        .wall_s
                })
                .collect();
            (walls, registry.export_jsonl())
        };
        let clean = run(None);
        let zero = run(Some(
            FaultSchedule::parse("crash:0@0..inf;coldspike:x1@0..inf").unwrap(),
        ));
        assert_eq!(clean.0, zero.0, "zero-fault walls must match clean");
        assert_eq!(clean.1, zero.1, "zero-fault JSONL must be byte-identical");
    }

    #[test]
    fn chaos_leaves_surviving_epoch_draws_unchanged() {
        // The schedule-level extension of
        // `epoch::tests::failure_toggle_preserves_jitter_streams`: with a
        // crash schedule attached, the i-th *executed* epoch must consume
        // exactly the jitter draws of the clean run's i-th epoch — fault
        // decisions live on their own stream keyed by attempt, and redone
        // epochs re-derive the same epoch stream index.
        let w = Workload::lr_higgs();
        let run = |schedule: Option<FaultSchedule>| {
            let mut p = FaasPlatform::new(Environment::aws_default(), 11);
            if let Some(s) = schedule {
                p = p.with_chaos(&s);
            }
            let mut epochs = Vec::new();
            let mut faults = 0;
            while epochs.len() < 8 {
                // Pre-warm so pool state (cold counts) cannot diverge
                // between the clean and chaotic histories.
                p.prewarm(10, 1769);
                match p.run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast) {
                    Ok(m) => epochs.push(m),
                    Err(e) => {
                        assert!(
                            matches!(
                                e,
                                EpochError::WorkerLost { .. }
                                    | EpochError::Throttled { .. }
                                    | EpochError::StorageUnavailable { .. }
                            ),
                            "{e}"
                        );
                        faults += 1;
                        assert!(faults < 1000, "chaos must not starve the job");
                    }
                }
            }
            (epochs, faults)
        };
        let (clean, zero_faults) = run(None);
        assert_eq!(zero_faults, 0);
        let (chaotic, faults) = run(Some(FaultSchedule::parse("crash:0.4@0..inf").unwrap()));
        assert!(faults > 0, "40% per-attempt crashes must fire in 8 epochs");
        for (i, (c, f)) in clean.iter().zip(&chaotic).enumerate() {
            assert_eq!(c.time, f.time, "epoch {i}: jitter draws must survive");
            assert_eq!(c.wall_s, f.wall_s, "epoch {i}");
        }
    }

    #[test]
    fn throttle_storm_rejects_waves_without_billing() {
        let mut p = FaasPlatform::new(Environment::aws_default(), 3)
            .with_chaos(&FaultSchedule::parse("throttle:1@0..inf").unwrap());
        let w = Workload::lr_higgs();
        let err = p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap_err();
        assert!(matches!(err, EpochError::Throttled { stall_s } if stall_s > 0.0));
        assert_eq!(p.ledger().invocations, 0, "a throttled wave bills nothing");
        assert_eq!(p.registry().counter("chaos.throttles").get(), 1);
    }

    #[test]
    fn storage_outage_names_service_and_end_time() {
        let mut p = FaasPlatform::new(Environment::aws_default(), 3)
            .with_chaos(&FaultSchedule::parse("outage:s3@0..500").unwrap());
        let w = Workload::lr_higgs();
        let err = p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap_err();
        assert_eq!(
            err,
            EpochError::StorageUnavailable {
                service: StorageKind::S3,
                resumes_at_s: 500.0
            }
        );
        // A different service rides out the outage untouched.
        let vmps = Allocation::new(10, 1769, StorageKind::VmPs);
        assert!(p.run_epoch(&w, &vmps, ExecutionFidelity::Fast).is_ok());
        // Past the window the service is back.
        p.advance(600.0);
        assert!(p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .is_ok());
    }

    #[test]
    fn worker_loss_bills_partial_epoch_and_advances_clock() {
        let mut p = FaasPlatform::new(Environment::aws_default(), 5)
            .with_chaos(&FaultSchedule::parse("crash:1@0..inf").unwrap());
        let w = Workload::lr_higgs();
        let err = p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap_err();
        let EpochError::WorkerLost {
            lost,
            at_fraction,
            wasted_s,
            wasted_usd,
        } = err
        else {
            panic!("expected WorkerLost, got {err:?}");
        };
        assert_eq!(lost, 1);
        assert!((0.0..1.0).contains(&at_fraction));
        assert!((p.now().as_secs() - wasted_s).abs() < 1e-12);
        assert!(wasted_usd > 0.0);
        assert_eq!(p.ledger().invocations, 10, "partial work is billed");
        assert_eq!(p.registry().counter("chaos.worker_losses").get(), 1);
        assert_eq!(p.registry().event_count(), 1, "fault emits an event");
    }

    #[test]
    fn wave_kill_fires_exactly_once_per_window() {
        let mut p = FaasPlatform::new(Environment::aws_default(), 5)
            .with_chaos(&FaultSchedule::parse("wave:0.5@0..1e9").unwrap());
        let w = Workload::lr_higgs();
        let err = p
            .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
            .unwrap_err();
        assert!(
            matches!(err, EpochError::WorkerLost { lost: 5, .. }),
            "half of 10 workers: {err:?}"
        );
        // The window is still open but the latch has fired: later epochs run.
        for _ in 0..3 {
            assert!(p
                .run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
                .is_ok());
        }
    }

    #[test]
    fn cold_spike_slows_cold_waves_only() {
        let wall_of_first_epoch = |spec: &str| {
            let mut p = FaasPlatform::new(Environment::aws_default(), 13)
                .with_chaos(&FaultSchedule::parse(spec).unwrap());
            let w = Workload::lr_higgs();
            p.run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
                .unwrap()
        };
        let clean = wall_of_first_epoch("coldspike:x1@0..inf");
        let spiked = wall_of_first_epoch("coldspike:x5@0..inf");
        assert!((spiked.cold_start_s - 5.0 * clean.cold_start_s).abs() < 1e-9);
        assert!(spiked.wall_s > clean.wall_s);
        assert_eq!(spiked.time, clean.time, "only the cold-start mean moves");
    }

    #[test]
    fn degraded_storage_slows_sync_during_window() {
        let first_epoch = |spec: Option<&str>| {
            let mut p = FaasPlatform::new(Environment::aws_default(), 17);
            if let Some(s) = spec {
                p = p.with_chaos(&FaultSchedule::parse(s).unwrap());
            }
            let w = Workload::lr_higgs();
            p.run_epoch(&w, &lr_alloc(), ExecutionFidelity::Fast)
                .unwrap()
        };
        let clean = first_epoch(None);
        let degraded = first_epoch(Some("degrade:s3:x4@0..inf"));
        assert!(degraded.time.sync_s > clean.time.sync_s);
        assert_eq!(
            degraded.time.compute_s, clean.time.compute_s,
            "compute is untouched by a storage brownout"
        );
    }
}
