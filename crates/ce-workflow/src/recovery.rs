//! Recovery policies for jobs running under fault injection (ce-chaos).
//!
//! A fault surfaced by the platform ([`ce_faas::EpochError`]) destroys
//! progress back to the last *durable* snapshot of the model. What a job
//! does next is its recovery policy:
//!
//! * [`RecoveryPolicy::Retry`] — back off and restart training from
//!   scratch. No checkpoint cost, but every worker loss pays the full
//!   progress made so far.
//! * [`RecoveryPolicy::CheckpointResume`] — snapshot the model to the
//!   allocation's storage service every *k* epochs (paying the Table-I
//!   transfer time and request cost) and resume from the latest snapshot
//!   on failure, losing at most *k* epochs.
//! * [`RecoveryPolicy::Replan`] — checkpoint-resume, plus feed the wasted
//!   time and dollars into the adaptive scheduler so the failure shows up
//!   as observed drift and can trigger a resource adjustment.
//!
//! Backoff is deterministic (exponential, seeded by nothing): recovery
//! must not perturb the RNG streams that make clean and chaotic runs
//! draw-for-draw comparable.

/// Base of the deterministic exponential backoff (seconds).
pub const BACKOFF_BASE_S: f64 = 2.0;

/// Cap on a single backoff stall (seconds).
pub const BACKOFF_CAP_S: f64 = 120.0;

/// Consecutive failed recovery attempts before a job gives up.
pub const MAX_RECOVERY_ATTEMPTS: u32 = 64;

/// Epoch interval between snapshots when a checkpointing policy is used
/// and the job does not configure its own.
pub const DEFAULT_CHECKPOINT_EVERY: u32 = 5;

/// What a job does when the platform loses its workers mid-epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryPolicy {
    /// Back off and restart from scratch (epoch 0).
    Retry,
    /// Snapshot every *k* epochs; resume from the latest snapshot.
    CheckpointResume,
    /// Checkpoint-resume, plus report the failure to the scheduler as
    /// observed cost/time drift so it can re-plan the allocation.
    Replan,
}

impl RecoveryPolicy {
    /// Every policy, in comparison-sweep order.
    pub const ALL: [RecoveryPolicy; 3] = [
        RecoveryPolicy::Retry,
        RecoveryPolicy::CheckpointResume,
        RecoveryPolicy::Replan,
    ];

    /// Short label used by CLI flags and experiment CSVs.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryPolicy::Retry => "retry",
            RecoveryPolicy::CheckpointResume => "checkpoint",
            RecoveryPolicy::Replan => "replan",
        }
    }

    /// Parses a CLI spelling (`retry`, `checkpoint`, `checkpoint-resume`,
    /// `replan`, `re-plan`).
    pub fn by_name(name: &str) -> Option<RecoveryPolicy> {
        match name.to_ascii_lowercase().as_str() {
            "retry" => Some(RecoveryPolicy::Retry),
            "checkpoint" | "checkpoint-resume" | "resume" => Some(RecoveryPolicy::CheckpointResume),
            "replan" | "re-plan" => Some(RecoveryPolicy::Replan),
            _ => None,
        }
    }

    /// Whether the policy snapshots the model while training.
    pub fn uses_checkpoints(&self) -> bool {
        !matches!(self, RecoveryPolicy::Retry)
    }
}

/// Deterministic exponential backoff: `base · 2^(attempt−1)`, capped.
/// `attempt` is 1-based (the first retry waits `base`).
pub fn backoff_s(base_s: f64, attempt: u32, cap_s: f64) -> f64 {
    debug_assert!(attempt >= 1, "backoff attempt is 1-based");
    (base_s * 2f64.powi((attempt - 1).min(64) as i32)).min(cap_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_s(2.0, 1, 120.0), 2.0);
        assert_eq!(backoff_s(2.0, 2, 120.0), 4.0);
        assert_eq!(backoff_s(2.0, 3, 120.0), 8.0);
        assert_eq!(backoff_s(2.0, 7, 120.0), 120.0);
        assert_eq!(backoff_s(2.0, 64, 120.0), 120.0);
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in RecoveryPolicy::ALL {
            assert_eq!(RecoveryPolicy::by_name(p.label()), Some(p));
        }
        assert_eq!(
            RecoveryPolicy::by_name("checkpoint-resume"),
            Some(RecoveryPolicy::CheckpointResume)
        );
        assert_eq!(
            RecoveryPolicy::by_name("re-plan"),
            Some(RecoveryPolicy::Replan)
        );
        assert_eq!(RecoveryPolicy::by_name("nope"), None);
    }

    #[test]
    fn only_retry_skips_checkpoints() {
        assert!(!RecoveryPolicy::Retry.uses_checkpoints());
        assert!(RecoveryPolicy::CheckpointResume.uses_checkpoints());
        assert!(RecoveryPolicy::Replan.uses_checkpoints());
    }
}
