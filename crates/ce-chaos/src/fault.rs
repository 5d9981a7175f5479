//! The typed fault taxonomy: what can break, and with what severity.

use ce_storage::StorageKind;
use std::fmt;

/// One kind of injected fault, with its severity parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Each epoch attempt inside the window loses a worker fatally with
    /// probability `rate` (the whole BSP wave's progress for that epoch is
    /// wasted — barrier semantics mean one lost worker stalls everyone).
    WorkerCrash { rate: f64 },
    /// A one-shot correlated kill: the first epoch attempt inside the window
    /// loses `ceil(fraction * n)` workers at once (spot reclaim, AZ event).
    WaveKill { fraction: f64 },
    /// The storage service refuses all requests while the window is open;
    /// jobs bound to it must stall until the window closes.
    StorageOutage { service: StorageKind },
    /// Brownout: the service's latency is multiplied by `factor` and its
    /// bandwidth divided by `factor` while the window is open.
    StorageDegrade { service: StorageKind, factor: f64 },
    /// Each invocation wave inside the window is throttled (HTTP 429) with
    /// probability `rate` before any worker starts.
    ThrottleStorm { rate: f64 },
    /// Cold-start mean latency is multiplied by `factor` inside the window
    /// (placement pressure, image-pull storms).
    ColdStartSpike { factor: f64 },
}

impl FaultKind {
    /// Short stable label used in spec strings, counters, and trace events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::WorkerCrash { .. } => "crash",
            FaultKind::WaveKill { .. } => "wave",
            FaultKind::StorageOutage { .. } => "outage",
            FaultKind::StorageDegrade { .. } => "degrade",
            FaultKind::ThrottleStorm { .. } => "throttle",
            FaultKind::ColdStartSpike { .. } => "coldspike",
        }
    }

    /// True when the fault's severity is a no-op (rate 0, factor <= 1).
    /// Zero-severity faults never draw from the fault stream, which is what
    /// makes a zero-fault schedule bit-identical to no schedule at all.
    pub fn is_zero(&self) -> bool {
        match self {
            FaultKind::WorkerCrash { rate } | FaultKind::ThrottleStorm { rate } => *rate <= 0.0,
            FaultKind::WaveKill { fraction } => *fraction <= 0.0,
            FaultKind::StorageOutage { .. } => false,
            FaultKind::StorageDegrade { factor, .. } | FaultKind::ColdStartSpike { factor } => {
                *factor <= 1.0
            }
        }
    }
}

impl fmt::Display for FaultKind {
    /// The fault's head clause in the `--chaos` spec grammar, e.g.
    /// `crash:0.2` or `degrade:elasticache:x4`. Inverse of the parser's
    /// head grammar for in-range severities.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::WorkerCrash { rate } => write!(f, "crash:{rate}"),
            FaultKind::WaveKill { fraction } => write!(f, "wave:{fraction}"),
            FaultKind::StorageOutage { service } => {
                write!(f, "outage:{}", service.token())
            }
            FaultKind::StorageDegrade { service, factor } => {
                write!(f, "degrade:{}:x{factor}", service.token())
            }
            FaultKind::ThrottleStorm { rate } => write!(f, "throttle:{rate}"),
            FaultKind::ColdStartSpike { factor } => write!(f, "coldspike:x{factor}"),
        }
    }
}

/// A fault active over the half-open simulated-time window
/// `[start_s, end_s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    pub start_s: f64,
    pub end_s: f64,
    pub fault: FaultKind,
}

impl FaultWindow {
    pub fn contains(&self, t_s: f64) -> bool {
        t_s >= self.start_s && t_s < self.end_s
    }
}

impl fmt::Display for FaultWindow {
    /// The window clause `fault@start..end`; an unbounded end renders as
    /// `inf`, matching what the parser accepts.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}..", self.fault, self.start_s)?;
        if self.end_s.is_infinite() {
            f.write_str("inf")
        } else {
            write!(f, "{}", self.end_s)
        }
    }
}

/// A Poisson burst process: windows of `fault`, each `duration_s` long, with
/// arrival times drawn at compile time at a mean rate of `per_hour`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    pub fault: FaultKind,
    pub per_hour: f64,
    pub duration_s: f64,
}

impl fmt::Display for BurstSpec {
    /// The burst clause `fault~per_hour/hxduration`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}~{}/hx{}", self.fault, self.per_hour, self.duration_s)
    }
}
