//! The Cirrus baseline \[4\].
//!
//! Cirrus runs serverless ML with an EC2 VM parameter server as the
//! intermediate store, so its profile is always VM-PS-pinned. Allocation
//! is static. For the §IV-C training comparison the paper *modifies*
//! Cirrus to use the same online prediction as CE-scaling; the modified
//! variant adjusts at runtime but keeps Cirrus's two handicaps: VM-PS
//! whether or not it is the right storage, and eager (non-overlapped)
//! function restarts.

use crate::statics::{optimal_static_plan, StaticError};
use ce_pareto::Profile;
use ce_training::{AdaptiveScheduler, SchedulerConfig, TrainingObjective};
use ce_tuning::{Objective, PartitionPlan, ShaSpec};

/// The Cirrus scheduler.
#[derive(Debug, Clone, Default)]
pub struct CirrusScheduler;

impl CirrusScheduler {
    /// Creates the scheduler (stateless).
    pub fn new() -> Self {
        CirrusScheduler
    }

    /// Static tuning plan over a VM-PS-pinned profile.
    pub fn tuning_plan(
        &self,
        vmps_profile: &Profile,
        sha: ShaSpec,
        objective: Objective,
        max_concurrency: u32,
    ) -> Result<PartitionPlan, StaticError> {
        optimal_static_plan(vmps_profile, sha, objective, max_concurrency)
    }

    /// The "modified Cirrus" online training scheduler: CE-scaling's
    /// Algorithm 2 machinery, but on the VM-PS-pinned profile with eager
    /// restarts (no Fig. 8 overlap).
    pub fn online_training_scheduler(
        &self,
        vmps_profile: &Profile,
        objective: TrainingObjective,
        target_loss: f64,
        initial_loss: f64,
    ) -> AdaptiveScheduler {
        AdaptiveScheduler::new(
            vmps_profile,
            objective,
            target_loss,
            initial_loss,
            SchedulerConfig {
                delayed_restart: false,
                ..SchedulerConfig::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_models::{AllocationSpace, Environment, Workload};
    use ce_pareto::ParetoProfiler;
    use ce_storage::StorageKind;

    fn vmps_profile(w: &Workload) -> Profile {
        let env = Environment::aws_default();
        ParetoProfiler::new(&env)
            .with_space(AllocationSpace::aws_default().with_only_storage(StorageKind::VmPs))
            .profile_workload(w)
    }

    #[test]
    fn all_cirrus_allocations_use_vmps() {
        let w = Workload::mobilenet_cifar10();
        let p = vmps_profile(&w);
        let sha = ShaSpec::motivation_example();
        let budget = PartitionPlan::uniform(*p.cheapest().unwrap(), sha).cost() * 2.0;
        let plan = CirrusScheduler::new()
            .tuning_plan(
                &p,
                sha,
                Objective::MinJctGivenBudget {
                    budget,
                    qos_s: None,
                },
                3000,
            )
            .unwrap();
        assert!(plan
            .stages
            .iter()
            .all(|s| s.alloc.storage == StorageKind::VmPs));
    }

    #[test]
    fn modified_cirrus_uses_eager_restarts() {
        let w = Workload::mobilenet_cifar10();
        let p = vmps_profile(&w);
        let sched = CirrusScheduler::new().online_training_scheduler(
            &p,
            TrainingObjective::MinJctGivenBudget { budget: 100.0 },
            0.2,
            2.3,
        );
        assert!(!sched.delayed_restart());
    }
}
