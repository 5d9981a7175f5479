//! Priority/preemption policies arbitrating the shared quota.
//!
//! Two decisions, both pluggable. *Preemption*: when a request cannot
//! lease a worker, may a running epoch be killed for it (and which)?
//! The preempted epoch rolls back to its latest checkpoint through the
//! ce-workflow recovery machinery — the partial epoch, the restore
//! transfer, and the backoff stall are all billed to the training job.
//! *Drain order*: when capacity frees up, do parked requests or queued
//! epochs dispatch first? Policies differentiate along the classic
//! latency-vs-throughput axis; `deadline` additionally reads each
//! training run's remaining slack.

/// What a policy sees when arbitrating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaView {
    /// Current simulation time (seconds).
    pub now_s: f64,
    /// Workers currently leased from the shared quota.
    pub in_use: u32,
    /// The account-level concurrency limit.
    pub limit: u32,
    /// Workers held by in-flight requests.
    pub serve_held: u32,
    /// Workers held by in-flight epochs.
    pub train_held: u32,
    /// Smallest deadline slack (s, negative once late) among *queued*
    /// training runs, if any is queued and [read](PriorityPolicy::reads_train_slack).
    pub ready_train_slack_s: Option<f64>,
}

/// One preemptible epoch (in flight, not yet converged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VictimView {
    /// The tenant whose epoch is running.
    pub tenant: u32,
    /// Workers the epoch holds.
    pub workers: u32,
    /// The run's deadline slack at `now` (seconds; negative = late).
    pub slack_s: f64,
}

/// A pluggable priority/preemption policy.
pub trait PriorityPolicy: Send + Sync {
    /// Short name used in reports and metric labels.
    fn name(&self) -> &'static str;

    /// Picks which in-flight epoch dies so a request can dispatch, or
    /// `None` to make the request wait. `victims` is ordered by tenant
    /// id; implementations must pick deterministically.
    fn preempt_victim(&self, victims: &[VictimView], view: &QuotaView) -> Option<usize>;

    /// Whether freed capacity goes to parked requests before queued
    /// epochs. The default favors requests (they are latency-bound).
    fn serve_drains_first(&self, view: &QuotaView) -> bool {
        let _ = view;
        true
    }

    /// Whether the policy reads [`QuotaView::ready_train_slack_s`], which
    /// the fleet computes only then. `true` by default, so a wrapper that
    /// does not forward this still sees the slack.
    fn reads_train_slack(&self) -> bool {
        true
    }
}

/// Index of the widest victim; ties break on the earlier index (lower
/// tenant id), so preemption is deterministic.
fn widest(victims: &[VictimView]) -> Option<usize> {
    let mut best: Option<(usize, u32)> = None;
    for (i, v) in victims.iter().enumerate() {
        if best.is_none_or(|(_, w)| v.workers > w) {
            best = Some((i, v.workers));
        }
    }
    best.map(|(i, _)| i)
}

/// Requests always win: any running epoch is fair game, widest first
/// (one kill frees the most workers), and freed capacity serves parked
/// requests before queued epochs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeFirst;

impl PriorityPolicy for ServeFirst {
    fn name(&self) -> &'static str {
        "serve-first"
    }

    fn preempt_victim(&self, victims: &[VictimView], _view: &QuotaView) -> Option<usize> {
        widest(victims)
    }

    fn reads_train_slack(&self) -> bool {
        false
    }
}

/// Training always wins: epochs are never preempted, and queued epochs
/// dispatch before parked requests (arrivals queue behind them too).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainFirst;

impl PriorityPolicy for TrainFirst {
    fn name(&self) -> &'static str {
        "train-first"
    }

    fn preempt_victim(&self, _victims: &[VictimView], _view: &QuotaView) -> Option<usize> {
        None
    }

    fn serve_drains_first(&self, _view: &QuotaView) -> bool {
        false
    }

    fn reads_train_slack(&self) -> bool {
        false
    }
}

/// Splits the quota: serving may preempt only while training holds more
/// than its share, and drains first only while serving holds less than
/// its own.
#[derive(Debug, Clone, Copy)]
pub struct FairShare {
    /// Fraction of the quota reserved for serving (the rest is
    /// training's protected share).
    pub serve_share: f64,
}

impl Default for FairShare {
    fn default() -> Self {
        FairShare { serve_share: 0.5 }
    }
}

impl PriorityPolicy for FairShare {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn preempt_victim(&self, victims: &[VictimView], view: &QuotaView) -> Option<usize> {
        let train_share = (f64::from(view.limit) * (1.0 - self.serve_share)).floor();
        if f64::from(view.train_held) > train_share {
            widest(victims)
        } else {
            None
        }
    }

    fn serve_drains_first(&self, view: &QuotaView) -> bool {
        f64::from(view.serve_held) < f64::from(view.limit) * self.serve_share
    }

    fn reads_train_slack(&self) -> bool {
        false
    }
}

/// Deadline-aware: preempts only epochs whose run still has comfortable
/// slack (killing the *most* relaxed victim), and lets queued training
/// drain first once some run's slack falls below the threshold.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineAware {
    /// Minimum deadline slack (seconds) a run must retain to be
    /// preemptible — and below which queued training turns urgent.
    pub min_slack_s: f64,
}

impl Default for DeadlineAware {
    fn default() -> Self {
        DeadlineAware { min_slack_s: 240.0 }
    }
}

impl PriorityPolicy for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn preempt_victim(&self, victims: &[VictimView], _view: &QuotaView) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, v) in victims.iter().enumerate() {
            if v.slack_s < self.min_slack_s {
                continue;
            }
            if best.is_none_or(|(_, s)| v.slack_s > s) {
                best = Some((i, v.slack_s));
            }
        }
        best.map(|(i, _)| i)
    }

    fn serve_drains_first(&self, view: &QuotaView) -> bool {
        view.ready_train_slack_s
            .is_none_or(|slack| slack >= self.min_slack_s)
    }
}

/// Every policy, for frontier sweeps.
pub fn all_priorities() -> Vec<Box<dyn PriorityPolicy>> {
    vec![
        Box::new(ServeFirst),
        Box::new(TrainFirst),
        Box::new(FairShare::default()),
        Box::new(DeadlineAware::default()),
    ]
}

/// The registry names `priority_by_name` accepts, in presentation
/// order. CLI error messages list these so a typo'd `--policy` shows
/// the user what would have worked.
pub fn priority_names() -> &'static [&'static str] {
    &["serve-first", "train-first", "fair-share", "deadline"]
}

/// Builds a policy by name (CLI surface).
pub fn priority_by_name(name: &str) -> Option<Box<dyn PriorityPolicy>> {
    match name {
        "serve-first" => Some(Box::new(ServeFirst)),
        "train-first" => Some(Box::new(TrainFirst)),
        "fair-share" => Some(Box::new(FairShare::default())),
        "deadline" => Some(Box::new(DeadlineAware::default())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(serve_held: u32, train_held: u32) -> QuotaView {
        QuotaView {
            now_s: 100.0,
            in_use: serve_held + train_held,
            limit: 32,
            serve_held,
            train_held,
            ready_train_slack_s: None,
        }
    }

    fn victims() -> Vec<VictimView> {
        vec![
            VictimView {
                tenant: 0,
                workers: 4,
                slack_s: 100.0,
            },
            VictimView {
                tenant: 1,
                workers: 8,
                slack_s: 900.0,
            },
            VictimView {
                tenant: 2,
                workers: 8,
                slack_s: 500.0,
            },
        ]
    }

    #[test]
    fn registry_round_trips_every_name() {
        for name in priority_names() {
            let p = priority_by_name(name).expect("registered policy");
            assert_eq!(&p.name(), name);
        }
        assert!(priority_by_name("magic").is_none());
        assert_eq!(all_priorities().len(), priority_names().len());
    }

    #[test]
    fn serve_first_kills_the_widest_earliest_victim() {
        let v = victims();
        assert_eq!(ServeFirst.preempt_victim(&v, &view(2, 20)), Some(1));
        assert!(ServeFirst.serve_drains_first(&view(2, 20)));
    }

    #[test]
    fn train_first_never_preempts_and_drains_trains_first() {
        let v = victims();
        assert_eq!(TrainFirst.preempt_victim(&v, &view(2, 20)), None);
        assert!(!TrainFirst.serve_drains_first(&view(2, 20)));
    }

    #[test]
    fn fair_share_protects_trainings_share() {
        let p = FairShare::default();
        let v = victims();
        // Training at 20/32 > 16: over its share, preemptible.
        assert_eq!(p.preempt_victim(&v, &view(2, 20)), Some(1));
        // Training at 12/32 <= 16: protected.
        assert_eq!(p.preempt_victim(&v, &view(2, 12)), None);
        assert!(p.serve_drains_first(&view(10, 12)));
        assert!(!p.serve_drains_first(&view(16, 12)));
    }

    #[test]
    fn deadline_spares_urgent_runs() {
        let p = DeadlineAware::default();
        let v = victims();
        // Tenant 0 (slack 100 < 240) is spared; tenant 1 has most slack.
        assert_eq!(p.preempt_victim(&v, &view(2, 20)), Some(1));
        let urgent: Vec<VictimView> = v
            .iter()
            .map(|x| VictimView {
                slack_s: 10.0,
                ..*x
            })
            .collect();
        assert_eq!(p.preempt_victim(&urgent, &view(2, 20)), None);
        let mut w = view(2, 20);
        w.ready_train_slack_s = Some(30.0);
        assert!(!p.serve_drains_first(&w));
        w.ready_train_slack_s = Some(1000.0);
        assert!(p.serve_drains_first(&w));
    }
}
