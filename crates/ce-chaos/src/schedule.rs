//! Fault schedules: scripted windows plus seed-derived Poisson bursts, and
//! the compiled form the platform queries every epoch attempt.

use crate::fault::{BurstSpec, FaultKind, FaultWindow};
use crate::parse::{self, ChaosSpecError};
use ce_sim_core::SimRng;
use ce_storage::StorageKind;
use std::fmt;

/// Default horizon for materialising Poisson bursts: one simulated week.
pub const DEFAULT_HORIZON_S: f64 = 7.0 * 24.0 * 3600.0;

/// A declarative fault schedule. Scripted windows are taken verbatim; burst
/// processes are materialised into windows deterministically at
/// [`FaultSchedule::compile`] time from a caller-supplied RNG stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    pub windows: Vec<FaultWindow>,
    pub bursts: Vec<BurstSpec>,
    /// Burst arrivals are generated on `[0, horizon_s)`.
    pub horizon_s: f64,
}

impl FaultSchedule {
    /// The empty schedule: injects nothing, compiles to a quiet timeline.
    pub fn none() -> Self {
        FaultSchedule {
            windows: Vec::new(),
            bursts: Vec::new(),
            horizon_s: DEFAULT_HORIZON_S,
        }
    }

    /// A schedule made of scripted windows only.
    pub fn scripted(windows: Vec<FaultWindow>) -> Self {
        FaultSchedule {
            windows,
            ..FaultSchedule::none()
        }
    }

    /// Parses the `;`-separated spec grammar (see the crate docs).
    pub fn parse(spec: &str) -> Result<Self, ChaosSpecError> {
        parse::parse(spec)
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.bursts.is_empty()
    }

    /// Materialises the schedule into a queryable timeline. Burst arrival
    /// times come from child streams of `rng` (`derive_idx("burst", i)`), so
    /// the compiled timeline depends only on the seed and the spec — never
    /// on how many draws the simulation has made elsewhere.
    pub fn compile(&self, rng: &SimRng) -> CompiledSchedule {
        let mut windows = self.windows.clone();
        for (i, burst) in self.bursts.iter().enumerate() {
            if burst.per_hour <= 0.0 || burst.duration_s <= 0.0 {
                continue;
            }
            let mut arrivals = rng.derive_idx("burst", i as u64);
            let rate_per_s = burst.per_hour / 3600.0;
            let mut t = 0.0_f64;
            loop {
                // Exponential inter-arrival via inverse CDF; uniform() is in
                // [0, 1), so 1 - u is in (0, 1] and the log is finite.
                t += -(1.0 - arrivals.uniform()).ln() / rate_per_s;
                if t >= self.horizon_s {
                    break;
                }
                windows.push(FaultWindow {
                    start_s: t,
                    end_s: t + burst.duration_s,
                    fault: burst.fault,
                });
            }
        }
        // Stable order by start time so window indices (used for one-shot
        // wave-kill firing) are deterministic.
        windows.sort_by(|a, b| {
            a.start_s
                .total_cmp(&b.start_s)
                .then(a.end_s.total_cmp(&b.end_s))
        });
        CompiledSchedule { windows }
    }
}

impl fmt::Display for FaultSchedule {
    /// Renders the schedule back into the `;`-separated spec grammar
    /// (windows first, then bursts; the empty schedule renders as the
    /// empty string). For any schedule whose values satisfy the grammar's
    /// range constraints — which includes everything [`FaultSchedule::parse`]
    /// accepts — `parse(schedule.to_string())` reconstructs the schedule.
    /// The burst horizon is not part of the grammar and is not rendered;
    /// parsed schedules always carry [`DEFAULT_HORIZON_S`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for w in &self.windows {
            if !first {
                f.write_str(";")?;
            }
            write!(f, "{w}")?;
            first = false;
        }
        for b in &self.bursts {
            if !first {
                f.write_str(";")?;
            }
            write!(f, "{b}")?;
            first = false;
        }
        Ok(())
    }
}

/// A materialised fault timeline: every burst resolved into concrete
/// windows, ready for point-in-time queries.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSchedule {
    windows: Vec<FaultWindow>,
}

impl CompiledSchedule {
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Aggregates every window containing `t_s` into the faults in force at
    /// that instant. Overlapping windows of the same kind take the worst
    /// severity (max rate/factor); outages take the latest end time.
    pub fn active_at(&self, t_s: f64) -> ActiveFaults {
        let mut active = ActiveFaults::quiet();
        for (idx, w) in self.windows.iter().enumerate() {
            if !w.contains(t_s) || w.fault.is_zero() {
                continue;
            }
            match w.fault {
                FaultKind::WorkerCrash { rate } => {
                    active.crash_rate = active.crash_rate.max(rate);
                }
                FaultKind::WaveKill { fraction } => {
                    active.wave_kills.push((idx, fraction));
                }
                FaultKind::ThrottleStorm { rate } => {
                    active.throttle_rate = active.throttle_rate.max(rate);
                }
                FaultKind::ColdStartSpike { factor } => {
                    active.cold_start_factor = active.cold_start_factor.max(factor);
                }
                FaultKind::StorageOutage { service } => {
                    let slot = &mut active.outage_until[kind_index(service)];
                    *slot = Some(slot.map_or(w.end_s, |cur: f64| cur.max(w.end_s)));
                }
                FaultKind::StorageDegrade { service, factor } => {
                    let slot = &mut active.degrade_factor[kind_index(service)];
                    *slot = slot.max(factor);
                }
            }
        }
        active
    }
}

/// The aggregate fault state at one instant of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveFaults {
    /// Per-epoch-attempt probability of a fatal worker loss (max over windows).
    pub crash_rate: f64,
    /// Per-attempt probability the invocation wave is throttled.
    pub throttle_rate: f64,
    /// Multiplier on the cold-start mean (>= 1).
    pub cold_start_factor: f64,
    /// Open wave-kill windows as `(window index, fraction)`; the index lets
    /// the platform fire each window exactly once.
    wave_kills: Vec<(usize, f64)>,
    outage_until: [Option<f64>; StorageKind::ALL.len()],
    degrade_factor: [f64; StorageKind::ALL.len()],
}

impl ActiveFaults {
    pub fn quiet() -> Self {
        ActiveFaults {
            crash_rate: 0.0,
            throttle_rate: 0.0,
            cold_start_factor: 1.0,
            wave_kills: Vec::new(),
            outage_until: [None; StorageKind::ALL.len()],
            degrade_factor: [1.0; StorageKind::ALL.len()],
        }
    }

    /// True when nothing is in force: the platform may skip the fault stream
    /// entirely, guaranteeing draw-for-draw equality with a clean run.
    pub fn is_quiet(&self) -> bool {
        self.crash_rate <= 0.0
            && self.throttle_rate <= 0.0
            && self.cold_start_factor <= 1.0
            && self.wave_kills.is_empty()
            && self.outage_until.iter().all(Option::is_none)
            && self.degrade_factor.iter().all(|f| *f <= 1.0)
    }

    /// If `service` is down right now, the earliest time it comes back.
    pub fn outage_until(&self, service: StorageKind) -> Option<f64> {
        self.outage_until[kind_index(service)]
    }

    /// Latency/bandwidth degradation factor for `service` (1.0 = healthy).
    pub fn degrade_factor(&self, service: StorageKind) -> f64 {
        self.degrade_factor[kind_index(service)]
    }

    pub fn wave_kills(&self) -> &[(usize, f64)] {
        &self.wave_kills
    }
}

fn kind_index(kind: StorageKind) -> usize {
    StorageKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("StorageKind::ALL covers every variant")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_quiet_everywhere() {
        let c = FaultSchedule::none().compile(&SimRng::new(1));
        assert!(c.windows().is_empty());
        assert!(c.active_at(0.0).is_quiet());
        assert!(c.active_at(1e9).is_quiet());
    }

    #[test]
    fn zero_severity_windows_are_zero_fault() {
        let s = FaultSchedule::parse("crash:0@0..inf;coldspike:x1@0..inf").unwrap();
        let c = s.compile(&SimRng::new(1));
        assert!(c.windows().iter().all(|w| w.fault.is_zero()));
        assert!(c.active_at(5.0).is_quiet());
    }

    #[test]
    fn windows_are_half_open_and_aggregate_worst_case() {
        let s = FaultSchedule::parse("crash:0.1@0..100;crash:0.4@50..60;outage:s3@50..80").unwrap();
        let c = s.compile(&SimRng::new(1));
        assert_eq!(c.active_at(55.0).crash_rate, 0.4);
        assert_eq!(c.active_at(60.0).crash_rate, 0.1); // end is exclusive
        assert_eq!(c.active_at(55.0).outage_until(StorageKind::S3), Some(80.0));
        assert_eq!(c.active_at(80.0).outage_until(StorageKind::S3), None);
        assert!(c.active_at(100.0).is_quiet());
    }

    #[test]
    fn burst_materialisation_is_deterministic_per_seed() {
        let s = FaultSchedule::parse("throttle:0.8~6/hx60").unwrap();
        let a = s.compile(&SimRng::new(9));
        let b = s.compile(&SimRng::new(9));
        assert_eq!(a.windows(), b.windows());
        assert!(!a.windows().is_empty(), "6/h over a week must fire");
        let other = s.compile(&SimRng::new(10));
        assert_ne!(a.windows(), other.windows(), "seed must move arrivals");
        for w in a.windows() {
            assert!((w.end_s - w.start_s - 60.0).abs() < 1e-9);
        }
    }

    #[test]
    fn burst_rate_matches_poisson_mean() {
        let mut s = FaultSchedule::parse("crash:0.5~12/hx30").unwrap();
        s.horizon_s = 100.0 * 3600.0;
        let c = s.compile(&SimRng::new(3));
        let n = c.windows().len() as f64;
        let expect = 12.0 * 100.0;
        assert!(
            (n - expect).abs() / expect < 0.15,
            "got {n} arrivals, expected ~{expect}"
        );
    }

    #[test]
    fn degrade_and_coldspike_report_factors() {
        let s = FaultSchedule::parse("degrade:elasticache:x4@0..10;coldspike:x5@0..10").unwrap();
        let c = s.compile(&SimRng::new(1));
        let a = c.active_at(5.0);
        assert_eq!(a.degrade_factor(StorageKind::ElastiCache), 4.0);
        assert_eq!(a.degrade_factor(StorageKind::S3), 1.0);
        assert_eq!(a.cold_start_factor, 5.0);
        assert!(!a.is_quiet());
    }

    #[test]
    fn wave_kill_windows_carry_their_index() {
        let s = FaultSchedule::parse("wave:0.5@10..20").unwrap();
        let c = s.compile(&SimRng::new(1));
        let a = c.active_at(15.0);
        assert_eq!(a.wave_kills(), &[(0, 0.5)]);
        assert!(c.active_at(25.0).wave_kills().is_empty());
    }
}
