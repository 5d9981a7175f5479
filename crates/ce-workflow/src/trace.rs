//! Execution traces: an opt-in, machine-readable timeline of what a job
//! did — every epoch, every resource adjustment, every stage — for
//! debugging schedulers and for visualization.

use ce_models::Allocation;
use serde::Serialize;

/// One timeline event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Seconds since job start when the event completed.
    pub at_s: f64,
    /// What happened.
    pub kind: TraceKind,
}

/// Event payloads.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceKind {
    /// Planning finished (tuning) or the initial allocation was chosen
    /// (training).
    Planned {
        /// Scheduler evaluations spent.
        evaluations: u64,
        /// The initial allocation.
        initial: Allocation,
    },
    /// One training epoch completed.
    Epoch {
        /// Epoch index (1-based).
        epoch: u32,
        /// Observed loss.
        loss: f64,
        /// Wall seconds of the epoch.
        wall_s: f64,
        /// Dollars billed for the epoch.
        cost_usd: f64,
    },
    /// The scheduler switched allocations.
    Adjustment {
        /// Allocation switched away from.
        from: Allocation,
        /// Allocation switched to.
        to: Allocation,
        /// Seconds of exposed restart overhead.
        exposed_s: f64,
    },
    /// One SHA stage completed (tuning).
    Stage {
        /// Stage index (0-based).
        stage: usize,
        /// Trials that ran in the stage.
        trials: u32,
        /// Stage wall seconds.
        jct_s: f64,
        /// Stage dollars.
        cost_usd: f64,
    },
    /// The job reached its target (training) or selected a winner
    /// (tuning).
    Done {
        /// Final loss (training) or winner loss (tuning).
        loss: f64,
    },
    /// The model was snapshotted to storage (checkpointing recovery).
    Checkpoint {
        /// Progress epoch the snapshot captures.
        epoch: u32,
        /// Seconds the snapshot transfer took.
        time_s: f64,
        /// Dollars the snapshot billed (storage puts + wave wall time).
        cost_usd: f64,
    },
    /// A platform fault interrupted the job.
    Fault {
        /// The fault, rendered.
        what: String,
        /// Seconds the job stalled recovering.
        stall_s: f64,
        /// Progress epochs destroyed (rolled back past the snapshot).
        lost_epochs: u32,
    },
}

/// A job timeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event at `at_s`.
    pub fn push(&mut self, at_s: f64, kind: TraceKind) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.at_s <= at_s),
            "trace must be time-ordered"
        );
        self.events.push(TraceEvent { at_s, kind });
    }

    /// All events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of one variant, by discriminant-matching closure.
    pub fn count_adjustments(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Adjustment { .. }))
            .count()
    }

    /// Number of completed epochs recorded.
    pub fn count_epochs(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Epoch { .. }))
            .count()
    }

    /// Replays the timeline into a [`ce_obs::Registry`] event sink, one
    /// structured event per trace entry, stamped with the trace's
    /// sim-time. This is the single export path for timelines: the
    /// `--metrics` JSONL stream and [`Self::to_jsonl`] both derive from
    /// the same events.
    pub fn replay_into(&self, registry: &ce_obs::Registry) {
        use serde_json::json;
        for e in &self.events {
            match &e.kind {
                TraceKind::Planned {
                    evaluations,
                    initial,
                } => registry.event(
                    e.at_s,
                    "planned",
                    &[
                        ("evaluations", json!(*evaluations)),
                        ("initial", json!(initial.to_string())),
                    ],
                ),
                TraceKind::Epoch {
                    epoch,
                    loss,
                    wall_s,
                    cost_usd,
                } => registry.event(
                    e.at_s,
                    "epoch",
                    &[
                        ("epoch", json!(*epoch)),
                        ("loss", json!(*loss)),
                        ("wall_s", json!(*wall_s)),
                        ("cost_usd", json!(*cost_usd)),
                    ],
                ),
                TraceKind::Adjustment {
                    from,
                    to,
                    exposed_s,
                } => registry.event(
                    e.at_s,
                    "adjustment",
                    &[
                        ("from", json!(from.to_string())),
                        ("to", json!(to.to_string())),
                        ("exposed_s", json!(*exposed_s)),
                    ],
                ),
                TraceKind::Stage {
                    stage,
                    trials,
                    jct_s,
                    cost_usd,
                } => registry.event(
                    e.at_s,
                    "stage",
                    &[
                        ("stage", json!(*stage)),
                        ("trials", json!(*trials)),
                        ("jct_s", json!(*jct_s)),
                        ("cost_usd", json!(*cost_usd)),
                    ],
                ),
                TraceKind::Done { loss } => {
                    registry.event(e.at_s, "done", &[("loss", json!(*loss))]);
                }
                TraceKind::Checkpoint {
                    epoch,
                    time_s,
                    cost_usd,
                } => registry.event(
                    e.at_s,
                    "checkpoint",
                    &[
                        ("epoch", json!(*epoch)),
                        ("time_s", json!(*time_s)),
                        ("cost_usd", json!(*cost_usd)),
                    ],
                ),
                TraceKind::Fault {
                    what,
                    stall_s,
                    lost_epochs,
                } => registry.event(
                    e.at_s,
                    "fault",
                    &[
                        ("what", json!(what)),
                        ("stall_s", json!(*stall_s)),
                        ("lost_epochs", json!(*lost_epochs)),
                    ],
                ),
            }
        }
    }

    /// Serializes the trace as JSON lines (one event per line).
    pub fn to_jsonl(&self) -> String {
        self.events
            .iter()
            .map(|e| serde_json::to_string(e).expect("serializable"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_storage::StorageKind;

    fn alloc() -> Allocation {
        Allocation::new(10, 1769, StorageKind::S3)
    }

    #[test]
    fn records_in_order_and_counts() {
        let mut t = Trace::new();
        t.push(
            0.0,
            TraceKind::Planned {
                evaluations: 100,
                initial: alloc(),
            },
        );
        t.push(
            10.0,
            TraceKind::Epoch {
                epoch: 1,
                loss: 0.5,
                wall_s: 10.0,
                cost_usd: 0.01,
            },
        );
        t.push(
            10.5,
            TraceKind::Adjustment {
                from: alloc(),
                to: Allocation::new(20, 1769, StorageKind::S3),
                exposed_s: 0.5,
            },
        );
        t.push(
            20.0,
            TraceKind::Epoch {
                epoch: 2,
                loss: 0.4,
                wall_s: 9.5,
                cost_usd: 0.01,
            },
        );
        t.push(20.0, TraceKind::Done { loss: 0.4 });
        assert_eq!(t.events().len(), 5);
        assert_eq!(t.count_epochs(), 2);
        assert_eq!(t.count_adjustments(), 1);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut t = Trace::new();
        t.push(
            1.0,
            TraceKind::Epoch {
                epoch: 1,
                loss: 0.9,
                wall_s: 1.0,
                cost_usd: 0.001,
            },
        );
        let lines = t.to_jsonl();
        let parsed: serde_json::Value = serde_json::from_str(&lines).unwrap();
        assert_eq!(parsed, serde_json::to_value(&t.events()[0]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected_in_debug() {
        let mut t = Trace::new();
        t.push(5.0, TraceKind::Done { loss: 0.1 });
        t.push(1.0, TraceKind::Done { loss: 0.1 });
    }
}
