//! The BSP epoch executor.
//!
//! One epoch is: (cold start) → dataset load → `k` iterations of
//! {gradient compute, barrier, synchronization}. Functions are billed for
//! wall time including barrier waits, so per-worker jitter turns directly
//! into straggler cost — the effect that makes over-parallelizing small
//! models unprofitable.
//!
//! Two fidelities:
//!
//! * [`ExecutionFidelity::Event`] — a discrete-event simulation at
//!   iteration granularity: every worker's every iteration is an event in
//!   a [`ce_sim_core::EventQueue`], barriers take the max across workers,
//!   each transfer draws its own network jitter. Used by the validation
//!   experiments (Figs. 19–20).
//! * [`ExecutionFidelity::Fast`] — the analytical Eq. 2/3 value with one
//!   aggregate jitter draw per component and a closed-form straggler
//!   factor (`E[max of n lognormals] ≈ exp(σ√(2 ln n))`). Used by the
//!   large sweeps (16 384-trial tuning brackets), where event granularity
//!   would cost millions of events per configuration.

use crate::platform::PlatformConfig;
use ce_models::{Allocation, CostBreakdown, Environment, TimeBreakdown, UnknownStorage, Workload};
use ce_sim_core::event::EventQueue;
use ce_sim_core::rng::SimRng;
use ce_sim_core::time::SimTime;
use ce_storage::{sync, StorageSpec};

/// How faithfully to simulate an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionFidelity {
    /// Full event-driven simulation (per-worker, per-iteration events).
    Event,
    /// Analytic value with aggregate jitter (for large sweeps).
    Fast,
}

/// One measured (simulated) epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredEpoch {
    /// Measured time components (jittered counterparts of Eq. 2).
    pub time: TimeBreakdown,
    /// Measured cost components (Eq. 4/5 over the measured wall time).
    pub cost: CostBreakdown,
    /// Total wall-clock seconds including cold start and stragglers.
    pub wall_s: f64,
    /// Number of functions that cold-started in this wave.
    pub cold_starts: u32,
    /// Seconds of the wall spent on cold starts.
    pub cold_start_s: f64,
    /// Seconds lost to barrier waits beyond the mean compute time.
    pub straggler_s: f64,
    /// Worker failures (and retries) during this epoch.
    pub failures: u32,
    /// Seconds the BSP barrier stalled waiting for failed workers to be
    /// re-invoked and redo their lost work.
    pub failure_s: f64,
}

/// Simulates one epoch. `cold` of the `alloc.n` workers start cold.
///
/// Returns [`UnknownStorage`] when the allocation names a storage service
/// that is not in the environment's catalog.
pub fn simulate_epoch(
    env: &Environment,
    config: &PlatformConfig,
    w: &Workload,
    alloc: &Allocation,
    cold: u32,
    fidelity: ExecutionFidelity,
    rng: &mut SimRng,
) -> Result<MeasuredEpoch, UnknownStorage> {
    match fidelity {
        ExecutionFidelity::Event => simulate_event(env, config, w, alloc, cold, rng),
        ExecutionFidelity::Fast => simulate_fast(env, config, w, alloc, cold, rng),
    }
}

/// Cost of the epoch given its measured time (shared by both paths).
fn bill(
    env: &Environment,
    spec: &StorageSpec,
    w: &Workload,
    alloc: &Allocation,
    time: &TimeBreakdown,
    wall_s: f64,
) -> CostBreakdown {
    let k = w.dataset.iterations_per_epoch(alloc.n, w.batch);
    let storage = sync::epoch_bill(spec, alloc.n, w.model.model_mb, k, wall_s);
    let _ = time;
    CostBreakdown {
        invocation: env.pricing.invocation_cost(alloc.n),
        compute: env.pricing.compute_cost(alloc.n, alloc.memory_mb, wall_s),
        storage_requests: storage.request_dollars,
        storage_runtime: storage.runtime_dollars,
    }
}

/// Expected maximum of `n` iid lognormal(0, σ) samples, as a multiplier.
fn straggler_factor(n: u32, sigma: f64) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    (sigma * (2.0 * f64::from(n).ln()).sqrt()).exp()
}

fn cold_start_overhead(config: &PlatformConfig, cold: u32, rng: &mut SimRng) -> f64 {
    // The wave starts when the slowest cold instance is up.
    (0..cold)
        .map(|_| config.cold_start_s * rng.lognormal_jitter(config.cold_start_jitter))
        .fold(0.0, f64::max)
}

/// Samples this epoch's worker failures: each of the `n` workers fails
/// independently with `failure_rate`; a failed worker is re-invoked
/// (cold start) and redoes a uniform fraction of its epoch work. Retries
/// run concurrently, so the BSP barrier stalls for the *slowest* retry,
/// not their sum.
///
/// Fault sampling draws from its own forked stream (`derive` is
/// order-independent and leaves the parent untouched), so toggling
/// failure injection never shifts the jitter streams of an otherwise
/// identical run — clean and faulty runs stay comparable draw-for-draw.
fn failure_overhead(
    config: &PlatformConfig,
    n: u32,
    per_worker_epoch_s: f64,
    rng: &SimRng,
) -> (u32, f64) {
    if config.failure_rate <= 0.0 {
        return (0, 0.0);
    }
    let mut rng = rng.derive("faults");
    let mut failures = 0;
    let mut stall_s = 0.0f64;
    for _ in 0..n {
        if rng.bernoulli(config.failure_rate) {
            failures += 1;
            let redo = rng.uniform() * per_worker_epoch_s;
            let retry = config.cold_start_s * rng.lognormal_jitter(config.cold_start_jitter) + redo;
            stall_s = stall_s.max(retry);
        }
    }
    (failures, stall_s)
}

fn simulate_fast(
    env: &Environment,
    config: &PlatformConfig,
    w: &Workload,
    alloc: &Allocation,
    cold: u32,
    rng: &mut SimRng,
) -> Result<MeasuredEpoch, UnknownStorage> {
    let spec = env.storage.get(alloc.storage).ok_or(UnknownStorage {
        storage: alloc.storage,
    })?;
    assert!(spec.supports_model(w.model.model_mb));
    let shard_mb = w.dataset.shard_mb(alloc.n);
    let k = w.dataset.iterations_per_epoch(alloc.n, w.batch);

    let cold_s = cold_start_overhead(config, cold, rng);
    let load_s = shard_mb / env.load_bandwidth_mbps * rng.lognormal_jitter(config.network_jitter);
    let mean_compute = shard_mb * w.model.compute_time_per_mb(alloc.memory_mb);
    let straggle = straggler_factor(alloc.n, config.compute_jitter);
    let compute_s = mean_compute * straggle * rng.lognormal_jitter(config.compute_jitter);
    let sync_s = f64::from(k)
        * sync::sync_time(spec, alloc.n, w.model.model_mb)
        * rng.lognormal_jitter(config.network_jitter);

    let time = TimeBreakdown {
        load_s,
        compute_s,
        sync_s,
    };
    let (failures, failure_s) = failure_overhead(config, alloc.n, load_s + mean_compute, rng);
    let wall_s = cold_s + failure_s + time.total();
    Ok(MeasuredEpoch {
        cost: bill(env, spec, w, alloc, &time, wall_s),
        time,
        wall_s,
        cold_starts: cold,
        cold_start_s: cold_s,
        straggler_s: mean_compute * (straggle - 1.0),
        failures,
        failure_s,
    })
}

/// Worker-iteration completion event.
#[derive(Debug, Clone, Copy)]
struct IterDone {
    worker: u32,
}

fn simulate_event(
    env: &Environment,
    config: &PlatformConfig,
    w: &Workload,
    alloc: &Allocation,
    cold: u32,
    rng: &mut SimRng,
) -> Result<MeasuredEpoch, UnknownStorage> {
    let spec = env.storage.get(alloc.storage).ok_or(UnknownStorage {
        storage: alloc.storage,
    })?;
    assert!(spec.supports_model(w.model.model_mb));
    let n = alloc.n;
    let shard_mb = w.dataset.shard_mb(n);
    let k = w.dataset.iterations_per_epoch(n, w.batch);
    let per_iter_mb = shard_mb / f64::from(k);
    let u = w.model.compute_time_per_mb(alloc.memory_mb);

    let cold_s = cold_start_overhead(config, cold, rng);
    let mut queue: EventQueue<IterDone> = EventQueue::new();

    // Every worker loads its shard, then starts iteration 1. Loads share
    // the long-term store, each with its own network jitter; the barrier
    // structure means only the slowest matters per iteration.
    let mut ready_at = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let load = shard_mb / env.load_bandwidth_mbps * rng.lognormal_jitter(config.network_jitter);
        ready_at.push(cold_s + load);
    }
    let load_end = ready_at.iter().cloned().fold(0.0, f64::max);
    let mut load_s = load_end - cold_s;

    let mut compute_s = 0.0;
    let mut sync_s = 0.0;
    let mut mean_compute_total = 0.0;
    let mut barrier_time = load_end;
    for _iter in 0..k {
        for worker in 0..n {
            let d = per_iter_mb * u * rng.lognormal_jitter(config.compute_jitter);
            queue.schedule_at(SimTime::from_secs(barrier_time + d), IterDone { worker });
        }
        let mut slowest = barrier_time;
        for _ in 0..n {
            let (at, ev) = queue.pop().expect("worker completion");
            debug_assert!(ev.worker < n);
            slowest = slowest.max(at.as_secs());
        }
        compute_s += slowest - barrier_time;
        mean_compute_total += per_iter_mb * u;
        // Synchronization: each of the Eq. 3 transfers draws its own
        // network jitter; transfers are sequential along the critical
        // path (aggregate-then-redistribute).
        let transfers = sync::transfers_per_iteration(spec, n);
        let per_transfer = spec.transfer_time_contended(w.model.model_mb, n);
        let mut sync_d = 0.0;
        for _ in 0..transfers {
            sync_d += per_transfer * rng.lognormal_jitter(config.network_jitter);
        }
        sync_s += sync_d;
        barrier_time = slowest + sync_d;
    }
    // Guard against k = 0 degenerate workloads.
    if k == 0 {
        load_s = load_end - cold_s;
    }
    let (failures, failure_s) = failure_overhead(config, n, load_s + mean_compute_total, rng);
    // Use the event clock (plus failure stalls) as ground truth.
    let wall_s = barrier_time + failure_s;
    let time = TimeBreakdown {
        load_s,
        compute_s,
        sync_s,
    };
    Ok(MeasuredEpoch {
        cost: bill(env, spec, w, alloc, &time, wall_s),
        time,
        wall_s,
        cold_starts: cold,
        cold_start_s: cold_s,
        straggler_s: compute_s - mean_compute_total,
        failures,
        failure_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_models::EpochTimeModel;
    use ce_storage::StorageKind;

    fn env() -> Environment {
        Environment::aws_default()
    }

    fn run(
        w: &Workload,
        alloc: &Allocation,
        fidelity: ExecutionFidelity,
        seed: u64,
    ) -> MeasuredEpoch {
        let env = env();
        let config = PlatformConfig::default();
        let mut rng = SimRng::new(seed);
        simulate_epoch(&env, &config, w, alloc, 0, fidelity, &mut rng)
            .expect("storage service in catalog")
    }

    #[test]
    fn unknown_storage_is_a_typed_error() {
        let mut env = env();
        env.storage = env.storage.only(StorageKind::VmPs);
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(4, 1769, StorageKind::S3);
        let config = PlatformConfig::default();
        for fidelity in [ExecutionFidelity::Fast, ExecutionFidelity::Event] {
            let mut rng = SimRng::new(1);
            let err = simulate_epoch(&env, &config, &w, &alloc, 0, fidelity, &mut rng)
                .expect_err("missing service must not panic");
            assert_eq!(err.storage, StorageKind::S3);
        }
    }

    #[test]
    fn fast_mode_tracks_analytic_model_within_percent() {
        let env = env();
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let predicted = EpochTimeModel::new(&env).epoch_time(&w, &alloc).total();
        let mut errors = Vec::new();
        for seed in 0..20 {
            let m = run(&w, &alloc, ExecutionFidelity::Fast, seed);
            errors.push((m.wall_s - predicted).abs() / predicted);
        }
        let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean_err < 0.08, "mean relative error {mean_err}");
    }

    #[test]
    fn event_mode_tracks_analytic_model_within_percent() {
        let env = env();
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let predicted = EpochTimeModel::new(&env).epoch_time(&w, &alloc).total();
        let m = run(&w, &alloc, ExecutionFidelity::Event, 3);
        let err = (m.wall_s - predicted).abs() / predicted;
        assert!(err < 0.15, "relative error {err}");
    }

    #[test]
    fn event_and_fast_agree_on_average() {
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(4, 1769, StorageKind::DynamoDb);
        let avg = |fidelity| {
            (0..10)
                .map(|s| run(&w, &alloc, fidelity, s).wall_s)
                .sum::<f64>()
                / 10.0
        };
        let fast = avg(ExecutionFidelity::Fast);
        let event = avg(ExecutionFidelity::Event);
        let rel = (fast - event).abs() / event;
        assert!(rel < 0.10, "fast {fast} vs event {event}");
    }

    #[test]
    fn cold_start_adds_wall_time() {
        let env = env();
        let config = PlatformConfig::default();
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let mut rng = SimRng::new(5);
        let warm = simulate_epoch(
            &env,
            &config,
            &w,
            &alloc,
            0,
            ExecutionFidelity::Fast,
            &mut rng,
        )
        .unwrap();
        let mut rng = SimRng::new(5);
        let cold = simulate_epoch(
            &env,
            &config,
            &w,
            &alloc,
            10,
            ExecutionFidelity::Fast,
            &mut rng,
        )
        .unwrap();
        assert_eq!(warm.cold_start_s, 0.0);
        assert!(cold.cold_start_s > 1.0);
        assert!(cold.wall_s > warm.wall_s);
    }

    #[test]
    fn straggler_overhead_grows_with_workers() {
        assert!(straggler_factor(1, 0.05) == 1.0);
        assert!(straggler_factor(10, 0.05) > 1.0);
        assert!(straggler_factor(100, 0.05) > straggler_factor(10, 0.05));
    }

    #[test]
    fn event_mode_stragglers_nonnegative() {
        let w = Workload::mobilenet_cifar10();
        let alloc = Allocation::new(8, 1769, StorageKind::S3);
        let m = run(&w, &alloc, ExecutionFidelity::Event, 7);
        assert!(m.straggler_s >= 0.0);
        assert!(m.time.compute_s > 0.0);
        assert!(m.time.sync_s > 0.0);
    }

    #[test]
    fn wall_includes_all_components() {
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        for fidelity in [ExecutionFidelity::Fast, ExecutionFidelity::Event] {
            let m = run(&w, &alloc, fidelity, 11);
            assert!(
                m.wall_s >= m.time.total() - 1e-9,
                "{fidelity:?}: wall {} < components {}",
                m.wall_s,
                m.time.total()
            );
        }
    }

    #[test]
    fn billing_uses_wall_time() {
        let env = env();
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let m = run(&w, &alloc, ExecutionFidelity::Fast, 13);
        let expect = env.pricing.compute_cost(10, 1769, m.wall_s);
        assert!((m.cost.compute - expect).abs() < 1e-12);
    }

    #[test]
    fn vmps_epoch_bills_runtime_storage() {
        let w = Workload::mobilenet_cifar10();
        let alloc = Allocation::new(10, 1769, StorageKind::VmPs);
        let m = run(&w, &alloc, ExecutionFidelity::Fast, 17);
        assert!(m.cost.storage_runtime > 0.0);
        assert_eq!(m.cost.storage_requests, 0.0);
    }

    #[test]
    fn no_failures_by_default() {
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(50, 1769, StorageKind::S3);
        for fidelity in [ExecutionFidelity::Fast, ExecutionFidelity::Event] {
            let m = run(&w, &alloc, fidelity, 23);
            assert_eq!(m.failures, 0);
            assert_eq!(m.failure_s, 0.0);
        }
    }

    #[test]
    fn failure_injection_stalls_the_barrier() {
        let env = env();
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(50, 1769, StorageKind::S3);
        let config = PlatformConfig {
            failure_rate: 0.2,
            ..PlatformConfig::default()
        };
        let mut total_failures = 0;
        for seed in 0..10 {
            let mut rng = SimRng::new(seed);
            let faulty = simulate_epoch(
                &env,
                &config,
                &w,
                &alloc,
                0,
                ExecutionFidelity::Fast,
                &mut rng,
            )
            .unwrap();
            let mut rng = SimRng::new(seed);
            let clean = simulate_epoch(
                &env,
                &PlatformConfig::default(),
                &w,
                &alloc,
                0,
                ExecutionFidelity::Fast,
                &mut rng,
            )
            .unwrap();
            total_failures += faulty.failures;
            if faulty.failures > 0 {
                assert!(faulty.failure_s > 0.0);
                assert!(faulty.wall_s > clean.wall_s);
                // Failed work is billed: cost grows with the wall.
                assert!(faulty.cost.compute > clean.cost.compute);
            }
        }
        // With 50 workers at 20 % failure probability, failures must
        // occur across 10 epochs.
        assert!(total_failures > 20, "only {total_failures} failures");
    }

    #[test]
    fn failure_toggle_preserves_jitter_streams() {
        // Fault sampling lives on its own forked stream: switching
        // injection on must leave every other draw (load/compute/sync
        // jitter) untouched, so the faulty run is the clean run plus a
        // stall — not a different trajectory.
        let env = env();
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(50, 1769, StorageKind::S3);
        let faulty_config = PlatformConfig {
            failure_rate: 0.2,
            ..PlatformConfig::default()
        };
        for fidelity in [ExecutionFidelity::Fast, ExecutionFidelity::Event] {
            for seed in 0..5 {
                let mut rng = SimRng::new(seed);
                let clean = simulate_epoch(
                    &env,
                    &PlatformConfig::default(),
                    &w,
                    &alloc,
                    0,
                    fidelity,
                    &mut rng,
                )
                .unwrap();
                let mut rng = SimRng::new(seed);
                let faulty =
                    simulate_epoch(&env, &faulty_config, &w, &alloc, 0, fidelity, &mut rng)
                        .unwrap();
                assert_eq!(clean.time, faulty.time, "{fidelity:?} seed {seed}");
                assert!(
                    (faulty.wall_s - (clean.wall_s + faulty.failure_s)).abs() < 1e-12,
                    "{fidelity:?} seed {seed}: faulty wall must be clean wall + stall"
                );
            }
        }
    }

    #[test]
    fn failure_rate_scales_overhead() {
        let env = env();
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(50, 1769, StorageKind::S3);
        let mean_stall = |rate: f64| {
            let config = PlatformConfig {
                failure_rate: rate,
                ..PlatformConfig::default()
            };
            (0..20)
                .map(|seed| {
                    let mut rng = SimRng::new(seed);
                    simulate_epoch(
                        &env,
                        &config,
                        &w,
                        &alloc,
                        0,
                        ExecutionFidelity::Fast,
                        &mut rng,
                    )
                    .unwrap()
                    .failure_s
                })
                .sum::<f64>()
                / 20.0
        };
        assert!(mean_stall(0.3) > mean_stall(0.05));
    }

    #[test]
    fn single_worker_event_epoch() {
        // n = 1 exercises the degenerate barrier and VM-PS's zero-transfer
        // sync path.
        let w = Workload::lr_higgs();
        let alloc = Allocation::new(1, 1769, StorageKind::VmPs);
        let m = run(&w, &alloc, ExecutionFidelity::Event, 19);
        assert_eq!(m.time.sync_s, 0.0);
        assert!(m.wall_s > 0.0);
    }
}
