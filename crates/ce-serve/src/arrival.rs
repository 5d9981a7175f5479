//! Open-loop request arrival processes.
//!
//! Serving traffic is *open loop*: requests arrive on their own schedule
//! regardless of how the platform is coping, which is what makes
//! under-provisioning visible as queueing and SLO violations. Four
//! processes cover the serving literature's standard shapes: homogeneous
//! Poisson, a diurnal sinusoid (generated exactly via thinning), a
//! two-state Markov-modulated Poisson process for bursts, and verbatim
//! trace replay.
//!
//! All generation happens up front from a dedicated RNG stream, so the
//! arrival schedule is a pure function of (model, duration, seed) — and
//! replaying a run's emitted arrival log through [`ArrivalModel::Trace`]
//! reproduces the exact same schedule (floats round-trip through JSON via
//! shortest-representation formatting).

use ce_sim_core::rng::SimRng;
use ce_sim_core::SpecError;
use serde::{Deserialize, Serialize};

/// An open-loop arrival process over `[0, duration_s)`.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalModel {
    /// Homogeneous Poisson arrivals at `rps` requests per second.
    Poisson {
        /// Mean arrival rate (requests per second).
        rps: f64,
    },
    /// Inhomogeneous Poisson with rate
    /// `base_rps * (1 + amplitude * sin(2π t / period_s))` — a diurnal
    /// day/night swing. Generated exactly by thinning.
    Diurnal {
        /// Mean arrival rate (requests per second).
        base_rps: f64,
        /// Relative swing in `[0, 1)`: peak = base×(1+a), trough = base×(1−a).
        amplitude: f64,
        /// Period of one day/night cycle, in seconds.
        period_s: f64,
    },
    /// Two-state Markov-modulated Poisson process: exponential dwell
    /// times alternate between a quiet rate and a burst rate.
    Bursty {
        /// Arrival rate in the quiet state (requests per second).
        low_rps: f64,
        /// Arrival rate in the burst state (requests per second).
        high_rps: f64,
        /// Mean dwell time in each state, in seconds.
        mean_dwell_s: f64,
    },
    /// Verbatim replay of explicit arrival offsets (seconds, ascending).
    Trace {
        /// Arrival instants in seconds from run start.
        arrival_s: Vec<f64>,
    },
    /// A production-style trace zoo: Zipf-popular functions with mixed
    /// temporal classes (see [`crate::tracezoo::ZooSpec`]).
    Zoo {
        /// The zoo generator configuration.
        spec: crate::tracezoo::ZooSpec,
    },
}

/// The most arrivals one run may schedule: ten times the largest
/// committed benchmark arm (1M requests). [`check_arrivals`] refuses a
/// spec whose expected arrivals (or lifecycle drift events) exceed it,
/// and no schedule reserves more slots than this up front.
pub const MAX_ARRIVALS: usize = 10_000_000;

/// The one check of [`MAX_ARRIVALS`]: refuses a run that would schedule
/// more than it events of one kind (`what`) on average.
pub fn check_arrivals(what: &'static str, expected: f64) -> Result<(), SpecError> {
    SpecError::at_most(what, expected, MAX_ARRIVALS)
}

/// `Ok` when `ok`, else an error naming `field`, its `value`, and what it
/// `must` be.
fn check(ok: bool, field: &str, value: f64, must: &str) -> Result<(), SpecError> {
    if ok {
        Ok(())
    } else {
        Err(SpecError::Invalid(format!(
            "invalid {field}: {value} (must be {must})"
        )))
    }
}

/// A finite value `>= min`.
pub(crate) fn check_at_least(field: &str, value: f64, min: f64) -> Result<(), SpecError> {
    let ok = value.is_finite() && value >= min;
    check(ok, field, value, &format!("finite and >= {min}"))
}

/// An arrival rate: finite and `>= 0`.
pub(crate) fn check_rate(field: &str, rps: f64) -> Result<(), SpecError> {
    check_at_least(field, rps, 0.0)
}

/// A diurnal swing: amplitude in `[0, 1)` (a trough rate of zero or
/// below has no thinning probability) and a period `> 0`.
pub(crate) fn check_diurnal(amplitude: f64, period_s: f64) -> Result<(), SpecError> {
    check(
        (0.0..1.0).contains(&amplitude),
        "diurnal amplitude",
        amplitude,
        "in [0, 1)",
    )?;
    check(period_s > 0.0, "diurnal period_s", period_s, "> 0")
}

/// A mean dwell time `> 0`: a zero dwell never leaves the state clock.
pub(crate) fn check_dwell(field: &str, dwell_s: f64) -> Result<(), SpecError> {
    check(dwell_s > 0.0, field, dwell_s, "> 0")
}

/// Up-front capacity for a schedule of about `expected` arrivals.
fn capacity_hint(expected: f64) -> usize {
    expected.min(MAX_ARRIVALS as f64) as usize + 16
}

/// Samples an exponential gap at `rate` per second (inverse CDF).
fn exp_gap(rng: &mut SimRng, rate: f64) -> f64 {
    -(1.0 - rng.uniform()).ln() / rate
}

impl ArrivalModel {
    /// Checks the model's ranges: finite rates `>= 0`, a diurnal
    /// amplitude in `[0, 1)` and period `> 0`, a bursty dwell `> 0`, and
    /// a zoo's own ranges ([`crate::ZooSpec::validate`]). A trace is
    /// checked when its log is read.
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            ArrivalModel::Poisson { rps } => check_rate("poisson rps", *rps),
            ArrivalModel::Diurnal {
                base_rps,
                amplitude,
                period_s,
            } => {
                check_rate("diurnal base_rps", *base_rps)?;
                check_diurnal(*amplitude, *period_s)
            }
            ArrivalModel::Bursty {
                low_rps,
                high_rps,
                mean_dwell_s,
            } => {
                check_rate("bursty low_rps", *low_rps)?;
                check_rate("bursty high_rps", *high_rps)?;
                check_dwell("bursty mean_dwell_s", *mean_dwell_s)
            }
            ArrivalModel::Trace { .. } => Ok(()),
            ArrivalModel::Zoo { spec } => spec.validate(),
        }
    }

    /// Generates the full arrival schedule over `[0, duration_s)` from
    /// `rng`. Returns ascending arrival instants in seconds. The model
    /// must pass [`ArrivalModel::validate`].
    pub fn generate(&self, duration_s: f64, rng: &mut SimRng) -> Vec<f64> {
        match self {
            ArrivalModel::Poisson { rps } => {
                if *rps <= 0.0 {
                    return Vec::new();
                }
                let mut out = Vec::with_capacity(capacity_hint(rps * duration_s));
                let mut t = exp_gap(rng, *rps);
                while t < duration_s {
                    out.push(t);
                    t += exp_gap(rng, *rps);
                }
                out
            }
            ArrivalModel::Diurnal {
                base_rps,
                amplitude,
                period_s,
            } => {
                debug_assert!(
                    (0.0..1.0).contains(amplitude),
                    "diurnal amplitude must be in [0, 1)"
                );
                if *base_rps <= 0.0 {
                    return Vec::new();
                }
                // Thinning: candidates at the peak rate, each kept with
                // probability rate(t)/rate_max. Exact for any bounded
                // intensity function.
                let rate_max = base_rps * (1.0 + amplitude);
                let rate = |t: f64| {
                    base_rps * (1.0 + amplitude * (2.0 * std::f64::consts::PI * t / period_s).sin())
                };
                let mut out = Vec::with_capacity(capacity_hint(base_rps * duration_s));
                let mut t = exp_gap(rng, rate_max);
                while t < duration_s {
                    if rng.uniform() < rate(t) / rate_max {
                        out.push(t);
                    }
                    t += exp_gap(rng, rate_max);
                }
                out
            }
            ArrivalModel::Bursty {
                low_rps,
                high_rps,
                mean_dwell_s,
            } => {
                if *low_rps <= 0.0 && *high_rps <= 0.0 {
                    return Vec::new();
                }
                let mut out = Vec::new();
                let mut t = 0.0;
                let mut high = false;
                let mut state_until = exp_gap(rng, 1.0 / mean_dwell_s);
                while t < duration_s {
                    let rate = if high { *high_rps } else { *low_rps };
                    // A zero-rate state emits nothing; skip to its end.
                    let gap = if rate > 0.0 {
                        exp_gap(rng, rate)
                    } else {
                        f64::INFINITY
                    };
                    if t + gap >= state_until {
                        // The exponential clock is memoryless: jumping to
                        // the state boundary and redrawing is exact.
                        t = state_until;
                        high = !high;
                        state_until = t + exp_gap(rng, 1.0 / mean_dwell_s);
                        continue;
                    }
                    t += gap;
                    if t < duration_s {
                        out.push(t);
                    }
                }
                out
            }
            ArrivalModel::Trace { arrival_s } => arrival_s
                .iter()
                .copied()
                .filter(|&t| t >= 0.0 && t < duration_s)
                .collect(),
            // The zoo forks per-function child streams off `rng` rather
            // than drawing from it, so generation parallelizes over
            // functions while staying a pure function of the stream.
            ArrivalModel::Zoo { spec } => spec.generate(duration_s, rng),
        }
    }

    /// Mean number of arrivals over `[0, duration_s)`: the mean rate times
    /// the window (a bursty process spends equal mean time in each
    /// state), or a trace's length.
    pub fn expected_arrivals(&self, duration_s: f64) -> f64 {
        match self {
            ArrivalModel::Poisson { rps } => rps * duration_s,
            ArrivalModel::Diurnal { base_rps, .. } => base_rps * duration_s,
            ArrivalModel::Bursty {
                low_rps, high_rps, ..
            } => 0.5 * (low_rps + high_rps) * duration_s,
            ArrivalModel::Trace { arrival_s } => arrival_s.len() as f64,
            ArrivalModel::Zoo { spec } => spec.total_rps * duration_s,
        }
    }

    /// Stable display name for reports and CLI echo.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalModel::Poisson { .. } => "poisson",
            ArrivalModel::Diurnal { .. } => "diurnal",
            ArrivalModel::Bursty { .. } => "bursty",
            ArrivalModel::Trace { .. } => "trace",
            ArrivalModel::Zoo { .. } => "zoo",
        }
    }
}

/// One line of an arrival log: a single request's arrival offset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalRecord {
    /// Arrival instant in seconds from run start.
    pub at_s: f64,
}

/// Serializes an arrival schedule as JSONL (`{"at_s":...}` per line).
/// Floats use shortest round-trip formatting, so
/// [`read_arrival_log`] recovers them bit-exactly.
pub fn write_arrival_log(arrival_s: &[f64]) -> String {
    let mut out = String::new();
    for &at_s in arrival_s {
        out.push_str(&serde_json::to_string(&ArrivalRecord { at_s }).expect("record serializes"));
        out.push('\n');
    }
    out
}

/// Parses an arrival log produced by [`write_arrival_log`] back into a
/// schedule. Blank lines are skipped; malformed lines are an error.
pub fn read_arrival_log(text: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: ArrivalRecord =
            serde_json::from_str(line).map_err(|e| format!("arrival log line {}: {e:?}", i + 1))?;
        // The simulator's event heap assumes an ascending, finite
        // schedule; reject anything else here rather than simulating
        // nonsense.
        if !rec.at_s.is_finite() || rec.at_s < 0.0 {
            return Err(format!(
                "arrival log line {}: at_s must be a finite timestamp >= 0, got {}",
                i + 1,
                rec.at_s
            ));
        }
        if let Some(&prev) = out.last() {
            if rec.at_s < prev {
                return Err(format!(
                    "arrival log line {}: timestamps must be non-decreasing ({} after {prev})",
                    i + 1,
                    rec.at_s
                ));
            }
        }
        out.push(rec.at_s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42).derive("test-arrivals")
    }

    #[test]
    fn poisson_hits_the_requested_rate() {
        let a = ArrivalModel::Poisson { rps: 50.0 }.generate(1000.0, &mut rng());
        let rate = a.len() as f64 / 1000.0;
        assert!((rate - 50.0).abs() < 2.0, "empirical rate {rate}");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!(a.iter().all(|&t| (0.0..1000.0).contains(&t)));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let m = ArrivalModel::Diurnal {
            base_rps: 20.0,
            amplitude: 0.8,
            period_s: 600.0,
        };
        assert_eq!(m.generate(300.0, &mut rng()), m.generate(300.0, &mut rng()));
        let other = m.generate(300.0, &mut SimRng::new(7).derive("test-arrivals"));
        assert_ne!(m.generate(300.0, &mut rng()), other, "seed matters");
    }

    #[test]
    fn diurnal_peak_outpaces_trough() {
        let m = ArrivalModel::Diurnal {
            base_rps: 40.0,
            amplitude: 0.9,
            period_s: 1000.0,
        };
        let a = m.generate(1000.0, &mut rng());
        // First half-period is the high-rate phase, second the trough.
        let peak = a.iter().filter(|&&t| t < 500.0).count();
        let trough = a.len() - peak;
        assert!(
            peak as f64 > 2.0 * trough as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn bursty_alternates_rates() {
        let m = ArrivalModel::Bursty {
            low_rps: 2.0,
            high_rps: 200.0,
            mean_dwell_s: 50.0,
        };
        let a = m.generate(2000.0, &mut rng());
        let mean_rate = a.len() as f64 / 2000.0;
        // The time-average rate sits near the midpoint of the two states.
        assert!((60.0..140.0).contains(&mean_rate), "mean rate {mean_rate}");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
    }

    #[test]
    fn arrival_log_round_trips_bit_exactly() {
        let a = ArrivalModel::Poisson { rps: 30.0 }.generate(100.0, &mut rng());
        let log = write_arrival_log(&a);
        let back = read_arrival_log(&log).expect("log parses");
        assert_eq!(a.len(), back.len());
        for (x, y) in a.iter().zip(&back) {
            assert_eq!(x.to_bits(), y.to_bits(), "float drift through JSONL");
        }
        // And replaying the trace reproduces the schedule verbatim.
        let replay = ArrivalModel::Trace { arrival_s: back }.generate(100.0, &mut rng());
        assert_eq!(a, replay);
    }

    #[test]
    fn arrival_log_rejects_unusable_timestamps() {
        let err = |log: &str| read_arrival_log(log).expect_err(log);
        assert!(err("not json").contains("line 1"));
        assert!(err("{\"at_s\": -1.0}").contains("finite timestamp"));
        assert!(err("{\"at_s\": 5.0}\n{\"at_s\": 1.0}").contains("non-decreasing"));
        // Equal timestamps (a burst) are legal.
        assert_eq!(
            read_arrival_log("{\"at_s\": 1.0}\n{\"at_s\": 1.0}").unwrap(),
            vec![1.0, 1.0]
        );
    }

    #[test]
    fn trace_filters_out_of_window_arrivals() {
        let m = ArrivalModel::Trace {
            arrival_s: vec![-1.0, 0.0, 5.0, 99.9, 100.0, 200.0],
        };
        assert_eq!(m.generate(100.0, &mut rng()), vec![0.0, 5.0, 99.9]);
    }

    #[test]
    fn zero_rate_generates_nothing() {
        assert!(ArrivalModel::Poisson { rps: 0.0 }
            .generate(100.0, &mut rng())
            .is_empty());
    }
}
