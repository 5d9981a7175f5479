//! Event-driven execution of one SHA tuning stage.
//!
//! A stage runs `q` concurrent trials, each a training job of `n`
//! functions for `r` epochs, under the platform concurrency quota. The
//! plan-level model in `ce-tuning` approximates this with rigid *waves*
//! (`⌈q / ⌊C/n⌋⌉` rounds); this executor schedules trials greedily on the
//! event queue — a new trial starts the moment capacity frees — giving a
//! slightly tighter wall clock and an exact peak-concurrency check. The
//! tests pin the analytic wave bound from above and the perfect-packing
//! bound from below.

use crate::platform::PlatformConfig;
use ce_models::{Allocation, CostModel, Environment, EpochTimeModel, Workload};
use ce_sim_core::event::EventQueue;
use ce_sim_core::rng::SimRng;
use ce_sim_core::time::SimTime;

/// Measured execution of one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredStage {
    /// Stage wall-clock seconds (last trial completion).
    pub wall_s: f64,
    /// Dollars across all trials.
    pub cost_usd: f64,
    /// Maximum functions running at once (must respect the quota).
    pub peak_functions: u32,
    /// Trials executed.
    pub trials: u32,
}

/// Simulates a stage of `trials` trials × `epochs` epochs each, every
/// trial using `alloc`, under `max_concurrency` total functions.
///
/// # Panics
/// Panics if `trials == 0` or `epochs == 0`.
#[allow(clippy::too_many_arguments)] // flat signature mirrors the stage parameters q, r, C of the plan model
pub fn simulate_stage(
    env: &Environment,
    config: &PlatformConfig,
    w: &Workload,
    alloc: &Allocation,
    trials: u32,
    epochs: u32,
    max_concurrency: u32,
    rng: &mut SimRng,
) -> MeasuredStage {
    assert!(trials > 0 && epochs > 0);
    let slots = (max_concurrency / alloc.n).max(1);
    let time_model = EpochTimeModel::new(env);
    let cost_model = CostModel::new(env);
    let mean_epoch = time_model.epoch_time(w, alloc).total();
    let mean_cost = cost_model
        .epoch_estimate(w, alloc)
        .expect("measured stage allocations come from the environment catalog")
        .1;

    // Per-trial durations/costs: r epochs with trial-level jitter.
    let durations: Vec<f64> = (0..trials)
        .map(|_| {
            f64::from(epochs) * mean_epoch * rng.lognormal_jitter(config.compute_jitter.max(0.02))
        })
        .collect();
    let costs: Vec<f64> = (0..trials)
        .map(|_| f64::from(epochs) * mean_cost.total() * rng.lognormal_jitter(0.02))
        .collect();

    // Greedy packing on the event queue: start trials while slots free,
    // start the next one at each completion.
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut next_trial: u32 = 0;
    let mut running: u32 = 0;
    let mut peak: u32 = 0;
    let mut wall = 0.0f64;
    while next_trial < trials && running < slots {
        queue.schedule_at(
            SimTime::from_secs(durations[next_trial as usize]),
            next_trial,
        );
        next_trial += 1;
        running += 1;
    }
    peak = peak.max(running * alloc.n);
    while let Some((at, _trial)) = queue.pop() {
        running -= 1;
        wall = wall.max(at.as_secs());
        if next_trial < trials {
            queue.schedule_at(at + durations[next_trial as usize], next_trial);
            next_trial += 1;
            running += 1;
            peak = peak.max((running) * alloc.n);
        }
    }
    MeasuredStage {
        wall_s: wall,
        cost_usd: costs.iter().sum(),
        peak_functions: peak,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_storage::StorageKind;

    fn setup() -> (Environment, PlatformConfig, Workload) {
        (
            Environment::aws_default(),
            PlatformConfig::default(),
            Workload::lr_higgs(),
        )
    }

    fn run(alloc: Allocation, trials: u32, epochs: u32, quota: u32, seed: u64) -> MeasuredStage {
        let (env, config, w) = setup();
        let mut rng = SimRng::new(seed);
        simulate_stage(&env, &config, &w, &alloc, trials, epochs, quota, &mut rng)
    }

    #[test]
    fn respects_the_concurrency_quota() {
        let alloc = Allocation::new(100, 1769, StorageKind::S3);
        let m = run(alloc, 32, 2, 3000, 1);
        assert!(m.peak_functions <= 3000, "peak {}", m.peak_functions);
        assert_eq!(m.trials, 32);
    }

    #[test]
    fn wall_between_perfect_packing_and_wave_bound() {
        let (env, _, w) = setup();
        let alloc = Allocation::new(100, 1769, StorageKind::S3);
        let quota = 3000;
        let trials = 32u32;
        let epochs = 2u32;
        let m = run(alloc, trials, epochs, quota, 3);
        let mean_epoch = EpochTimeModel::new(&env).epoch_time(&w, &alloc).total();
        let trial_s = f64::from(epochs) * mean_epoch;
        let slots = quota / alloc.n; // 30
        let waves = trials.div_ceil(slots); // 2
                                            // Lower bound: perfect packing of total work over the slots.
        let ideal = trial_s * f64::from(trials) / f64::from(slots);
        // Upper bound: the rigid wave model plus jitter headroom.
        let wave_bound = trial_s * f64::from(waves) * 1.15;
        assert!(
            m.wall_s >= ideal * 0.85,
            "wall {} < ideal {ideal}",
            m.wall_s
        );
        assert!(
            m.wall_s <= wave_bound,
            "wall {} > waves {wave_bound}",
            m.wall_s
        );
    }

    #[test]
    fn uncontended_stage_runs_fully_parallel() {
        let (env, _, w) = setup();
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let m = run(alloc, 16, 2, 3000, 5);
        // 16 trials × 10 fns = 160 ≤ 3000: wall ≈ slowest single trial.
        let mean_epoch = EpochTimeModel::new(&env).epoch_time(&w, &alloc).total();
        assert!(m.wall_s < 2.0 * mean_epoch * 1.2);
        assert_eq!(m.peak_functions, 160);
    }

    #[test]
    fn single_slot_serializes_trials() {
        let (env, _, w) = setup();
        // n = 200 with quota 200: one trial at a time.
        let alloc = Allocation::new(200, 1769, StorageKind::S3);
        let m = run(alloc, 4, 1, 200, 7);
        let mean_epoch = EpochTimeModel::new(&env).epoch_time(&w, &alloc).total();
        assert!(m.wall_s > 3.5 * mean_epoch);
        assert_eq!(m.peak_functions, 200);
    }

    #[test]
    fn deterministic_per_seed() {
        let alloc = Allocation::new(50, 1769, StorageKind::S3);
        assert_eq!(run(alloc, 8, 2, 3000, 9), run(alloc, 8, 2, 3000, 9));
        assert_ne!(
            run(alloc, 8, 2, 3000, 9).wall_s,
            run(alloc, 8, 2, 3000, 10).wall_s
        );
    }

    #[test]
    fn cost_scales_with_trial_count() {
        let alloc = Allocation::new(10, 1769, StorageKind::S3);
        let small = run(alloc, 8, 2, 3000, 11);
        let large = run(alloc, 32, 2, 3000, 11);
        let ratio = large.cost_usd / small.cost_usd;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }
}
