//! Resource-adjustment (function restart) timing, including the paper's
//! *delayed restart* optimization (§III-D, Fig. 8).
//!
//! When the adaptive scheduler decides at the end of epoch `k − 1` to move
//! from allocation `θ` to `θ*`, the naive approach stops the wave, cold
//! starts the new one, has it load data and pull the model, and only then
//! resumes — the whole pipeline is exposed. The delayed restart instead
//! launches the new functions *during* epoch `k` so that they are up and
//! have loaded data exactly when the old wave finishes uploading its last
//! gradients; the new wave pulls the merged model directly. Only the part
//! of the new wave's preparation that does not fit inside epoch `k`
//! remains exposed.

use ce_models::{Allocation, Environment, EpochTimeModel, UnknownStorage, Workload};

/// Timing of one resource adjustment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartPlan {
    /// Seconds of preparation the new wave needs: cold start + dataset
    /// load + model pull.
    pub prepare_s: f64,
    /// Seconds before the end of the running epoch at which the new wave
    /// should be launched (Fig. 8's optimal launch time).
    pub launch_before_end_s: f64,
    /// Seconds of adjustment overhead actually exposed on the critical
    /// path (0 when the preparation hides entirely inside the epoch).
    pub exposed_overhead_s: f64,
}

/// Computes the adjustment timing when switching to `next` while `current`
/// runs one more epoch of duration `epoch_s`.
///
/// With `delayed = false` (the WO-dr ablation of Fig. 21b) the whole
/// preparation is exposed; with `delayed = true` only the overhang beyond
/// the running epoch is.
///
/// Returns [`UnknownStorage`] when `next` names a storage service that is
/// not in the environment's catalog.
pub fn plan_restart(
    env: &Environment,
    w: &Workload,
    next: &Allocation,
    current_epoch_s: f64,
    delayed: bool,
) -> Result<RestartPlan, UnknownStorage> {
    // Validate the catalog lookup before EpochTimeModel, whose contract
    // still panics on a missing service.
    let model_pull = env
        .storage
        .get(next.storage)
        .ok_or(UnknownStorage {
            storage: next.storage,
        })?
        .transfer_time(w.model.model_mb);
    let time_model = EpochTimeModel::new(env);
    let next_load = time_model.epoch_time(w, next).load_s;
    let prepare_s = env.cold_start_s + next_load + model_pull;
    Ok(if delayed {
        let launch = prepare_s.min(current_epoch_s);
        RestartPlan {
            prepare_s,
            launch_before_end_s: launch,
            exposed_overhead_s: (prepare_s - current_epoch_s).max(0.0),
        }
    } else {
        RestartPlan {
            prepare_s,
            launch_before_end_s: 0.0,
            exposed_overhead_s: prepare_s,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_storage::StorageKind;

    fn setup() -> (Environment, Workload, Allocation) {
        (
            Environment::aws_default(),
            Workload::lr_higgs(),
            Allocation::new(20, 1769, StorageKind::S3),
        )
    }

    #[test]
    fn delayed_restart_hides_preparation_in_long_epochs() {
        let (env, w, next) = setup();
        let plan = plan_restart(&env, &w, &next, 1000.0, true).unwrap();
        assert!(plan.prepare_s < 1000.0);
        assert_eq!(plan.exposed_overhead_s, 0.0);
        assert!((plan.launch_before_end_s - plan.prepare_s).abs() < 1e-12);
    }

    #[test]
    fn delayed_restart_exposes_only_overhang_in_short_epochs() {
        let (env, w, next) = setup();
        let plan = plan_restart(&env, &w, &next, 1.0, true).unwrap();
        assert!(plan.prepare_s > 1.0);
        assert!((plan.exposed_overhead_s - (plan.prepare_s - 1.0)).abs() < 1e-12);
        assert_eq!(plan.launch_before_end_s, 1.0);
    }

    #[test]
    fn eager_restart_exposes_everything() {
        let (env, w, next) = setup();
        let plan = plan_restart(&env, &w, &next, 1000.0, false).unwrap();
        assert_eq!(plan.exposed_overhead_s, plan.prepare_s);
        assert_eq!(plan.launch_before_end_s, 0.0);
    }

    #[test]
    fn preparation_includes_cold_start_load_and_pull() {
        let (env, w, next) = setup();
        let plan = plan_restart(&env, &w, &next, 100.0, true).unwrap();
        // Must at least cover the cold start.
        assert!(plan.prepare_s > env.cold_start_s);
    }

    #[test]
    fn delayed_never_slower_than_eager() {
        let (env, w, next) = setup();
        for epoch_s in [0.5, 5.0, 50.0, 500.0] {
            let delayed = plan_restart(&env, &w, &next, epoch_s, true).unwrap();
            let eager = plan_restart(&env, &w, &next, epoch_s, false).unwrap();
            assert!(delayed.exposed_overhead_s <= eager.exposed_overhead_s + 1e-12);
        }
    }

    #[test]
    fn unknown_storage_is_a_typed_error() {
        let (mut env, w, next) = setup();
        env.storage = env.storage.only(StorageKind::VmPs);
        let err =
            plan_restart(&env, &w, &next, 10.0, true).expect_err("missing service must not panic");
        assert_eq!(err.storage, StorageKind::S3);
    }

    #[test]
    fn bigger_models_need_longer_pulls() {
        let env = Environment::aws_default();
        let lr = Workload::lr_higgs();
        let bert = Workload::bert_imdb();
        let next_lr = Allocation::new(20, 1769, StorageKind::S3);
        let next_bert = Allocation::new(20, 1769, StorageKind::S3);
        let a = plan_restart(&env, &lr, &next_lr, 10.0, false).unwrap();
        let b = plan_restart(&env, &bert, &next_bert, 10.0, false).unwrap();
        assert!(b.prepare_s > a.prepare_s);
    }
}
