//! Azure-Functions-style invocation trace zoo.
//!
//! Production FaaS traffic ("Serverless in the Wild", the Azure
//! Functions traces) is dominated by two facts the synthetic arrival
//! models above miss: per-function popularity is *heavy-tailed* (a few
//! functions carry most invocations; a long tail is invoked rarely),
//! and different functions follow different temporal classes — steady
//! Poisson hum, diurnal day/night swings, ON-OFF bursts, and rare
//! cold-tail functions whose every invocation is a cold start.
//!
//! [`ZooSpec`] generates such traces deterministically: function `i`
//! gets a Zipf share `(i+1)^-s` of the total rate, a temporal class
//! drawn from the preset's class mix, and its own arrival schedule from
//! a per-function forked RNG stream (so no function's schedule depends
//! on another's draws). The merged schedule is an ordinary ascending
//! arrival vector — it round-trips through the arrival-log format and
//! replays bit-exactly via `--arrivals trace:<log>`.

use ce_sim_core::rng::SimRng;
use ce_sim_core::SpecError;

use crate::arrival::{check_at_least, check_diurnal, check_dwell, check_rate, ArrivalModel};

/// The most functions one zoo may hold: 500 times the largest preset.
/// Generation keeps a popularity weight and a schedule per function.
pub const MAX_ZOO_FUNCTIONS: u32 = 100_000;

/// Temporal class of one function in the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionClass {
    /// Homogeneous Poisson at the function's rate.
    Steady,
    /// Sinusoidal day/night swing around the function's rate.
    Diurnal,
    /// Two-state ON-OFF (MMPP) bursts, time-averaging the rate.
    Bursty,
    /// Rare cold-tail invocations: the rate is capped far below the
    /// keep-alive horizon, so effectively every call is a cold start.
    RareCold,
}

impl FunctionClass {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FunctionClass::Steady => "steady",
            FunctionClass::Diurnal => "diurnal",
            FunctionClass::Bursty => "bursty",
            FunctionClass::RareCold => "rare-cold",
        }
    }
}

/// A seeded generator of production-style invocation traces.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooSpec {
    /// Preset name, echoed in reports.
    pub preset: String,
    /// Number of functions in the zoo.
    pub functions: u32,
    /// Aggregate arrival rate across all functions (requests/second).
    pub total_rps: f64,
    /// Zipf popularity exponent `s`: function `i` carries a share
    /// proportional to `(i+1)^-s`. Larger ⇒ heavier head.
    pub zipf_exponent: f64,
    /// Class mix `[steady, diurnal, bursty, rare-cold]`; normalized.
    pub class_weights: [f64; 4],
    /// Amplitude of diurnal-class functions, in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Period of one diurnal cycle, seconds.
    pub diurnal_period_s: f64,
    /// Burst-state rate multiplier for bursty-class functions: the ON
    /// rate is `burst_factor ×` the OFF rate, time-averaging to the
    /// function's Zipf share.
    pub burst_factor: f64,
    /// Mean ON/OFF dwell time for bursty-class functions, seconds.
    pub burst_dwell_s: f64,
    /// Rate cap for rare-cold functions (requests/second).
    pub cold_rate_rps: f64,
}

/// Names of the built-in presets, for CLI errors and docs.
#[must_use]
pub fn zoo_preset_names() -> &'static [&'static str] {
    &["mixed", "steady", "diurnal", "bursty", "coldtail"]
}

impl ZooSpec {
    /// A named preset, or `None` for an unknown name.
    #[must_use]
    pub fn preset(name: &str) -> Option<ZooSpec> {
        let base = ZooSpec {
            preset: name.to_string(),
            functions: 80,
            total_rps: 40.0,
            zipf_exponent: 1.1,
            class_weights: [0.4, 0.25, 0.25, 0.1],
            diurnal_amplitude: 0.8,
            diurnal_period_s: 600.0,
            burst_factor: 8.0,
            burst_dwell_s: 30.0,
            cold_rate_rps: 0.02,
        };
        match name {
            // The headline production-style mix.
            "mixed" => Some(base),
            // Single-class variants isolate one temporal shape while
            // keeping the Zipf popularity skew.
            "steady" => Some(ZooSpec {
                class_weights: [1.0, 0.0, 0.0, 0.0],
                ..base
            }),
            "diurnal" => Some(ZooSpec {
                class_weights: [0.0, 1.0, 0.0, 0.0],
                ..base
            }),
            "bursty" => Some(ZooSpec {
                class_weights: [0.0, 0.0, 1.0, 0.0],
                ..base
            }),
            // A long cold tail: many rarely-invoked functions.
            "coldtail" => Some(ZooSpec {
                functions: 200,
                total_rps: 20.0,
                zipf_exponent: 0.9,
                class_weights: [0.25, 0.15, 0.2, 0.4],
                ..base
            }),
            _ => None,
        }
    }

    /// Checks the zoo's ranges: 1 to [`MAX_ZOO_FUNCTIONS`] functions,
    /// finite rates `>= 0`, a finite Zipf exponent `>= 0`, finite class
    /// weights `>= 0` with a positive sum, the diurnal swing's ranges, a
    /// finite burst factor `>= 1`, and a burst dwell `> 0`.
    pub fn validate(&self) -> Result<(), SpecError> {
        SpecError::nonzero(&[(u64::from(self.functions), "zoo functions", "function")])?;
        SpecError::at_most(
            "zoo functions",
            f64::from(self.functions),
            MAX_ZOO_FUNCTIONS as usize,
        )?;
        check_rate("zoo total_rps", self.total_rps)?;
        check_rate("zoo cold_rate_rps", self.cold_rate_rps)?;
        check_at_least("zoo zipf_exponent", self.zipf_exponent, 0.0)?;
        for w in self.class_weights {
            check_at_least("zoo class weight", w, 0.0)?;
        }
        if self.class_weights.iter().sum::<f64>() <= 0.0 {
            return Err(SpecError::Invalid(
                "invalid zoo class weights: all zero (at least one must be > 0)".to_string(),
            ));
        }
        check_diurnal(self.diurnal_amplitude, self.diurnal_period_s)?;
        check_at_least("zoo burst_factor", self.burst_factor, 1.0)?;
        check_dwell("zoo burst_dwell_s", self.burst_dwell_s)
    }

    /// Normalized Zipf popularity weights over the zoo's functions.
    #[must_use]
    pub fn popularity(&self) -> Vec<f64> {
        let raw: Vec<f64> = (0..self.functions)
            .map(|i| f64::from(i + 1).powf(-self.zipf_exponent))
            .collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }

    /// The temporal class of function `i`, drawn from the preset's
    /// class mix on a per-function forked stream.
    #[must_use]
    pub fn class_of(&self, i: u32, rng: &SimRng) -> FunctionClass {
        let total: f64 = self.class_weights.iter().sum();
        let mut u = rng.derive_idx("zoo-class", u64::from(i)).uniform() * total;
        for (class, &w) in [
            FunctionClass::Steady,
            FunctionClass::Diurnal,
            FunctionClass::Bursty,
            FunctionClass::RareCold,
        ]
        .iter()
        .zip(&self.class_weights)
        {
            u -= w;
            if u < 0.0 {
                return *class;
            }
        }
        FunctionClass::Steady
    }

    /// The arrival process of one function, given its Zipf-share rate.
    fn model_for(&self, class: FunctionClass, rate_rps: f64) -> ArrivalModel {
        match class {
            FunctionClass::Steady => ArrivalModel::Poisson { rps: rate_rps },
            FunctionClass::Diurnal => ArrivalModel::Diurnal {
                base_rps: rate_rps,
                amplitude: self.diurnal_amplitude,
                period_s: self.diurnal_period_s,
            },
            FunctionClass::Bursty => {
                // OFF/ON rates averaging to `rate_rps` with the preset's
                // ON:OFF ratio: low = 2r/(1+f), high = f·low.
                let low = 2.0 * rate_rps / (1.0 + self.burst_factor);
                ArrivalModel::Bursty {
                    low_rps: low,
                    high_rps: self.burst_factor * low,
                    mean_dwell_s: self.burst_dwell_s,
                }
            }
            FunctionClass::RareCold => ArrivalModel::Poisson {
                rps: rate_rps.min(self.cold_rate_rps),
            },
        }
    }

    /// Generates every function's schedule over `[0, duration_s)`:
    /// `(class, ascending arrivals)` per function, in function order.
    ///
    /// Each function draws only from its own `derive_idx("zoo-fn", i)`
    /// fork of `rng`, so the result is a pure function of (spec,
    /// duration, stream) regardless of call order.
    #[must_use]
    pub fn per_function(&self, duration_s: f64, rng: &SimRng) -> Vec<(FunctionClass, Vec<f64>)> {
        let popularity = self.popularity();
        (0..u64::from(self.functions))
            .map(|i| {
                let class = self.class_of(i as u32, rng);
                let rate = self.total_rps * popularity[i as usize];
                let mut fn_rng = rng.derive_idx("zoo-fn", i);
                (
                    class,
                    self.model_for(class, rate)
                        .generate(duration_s, &mut fn_rng),
                )
            })
            .collect()
    }

    /// The merged zoo schedule: all functions' arrivals in ascending
    /// time order (ties broken by function index, so the merge is
    /// byte-deterministic).
    #[must_use]
    pub fn generate(&self, duration_s: f64, rng: &SimRng) -> Vec<f64> {
        let mut tagged: Vec<(f64, u32)> = self
            .per_function(duration_s, rng)
            .into_iter()
            .enumerate()
            .flat_map(|(i, (_, arrivals))| {
                arrivals
                    .into_iter()
                    .map(move |t| (t, i as u32))
                    .collect::<Vec<_>>()
            })
            .collect();
        tagged.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        tagged.into_iter().map(|(t, _)| t).collect()
    }
}

/// Parses the `<preset>` tail of an `--arrivals zoo:<preset>` spec.
///
/// # Errors
/// A human-readable message for an empty or multi-segment spec, or an
/// unknown preset name (the message lists the valid presets).
pub fn parse_zoo(rest: &str) -> Result<ZooSpec, String> {
    if rest.is_empty() {
        return Err(format!(
            "zoo spec is missing a preset name (zoo:<preset>; presets: {})",
            zoo_preset_names().join("|")
        ));
    }
    if rest.contains(':') {
        return Err(format!(
            "malformed zoo spec {rest:?}: expected zoo:<preset> (presets: {})",
            zoo_preset_names().join("|")
        ));
    }
    ZooSpec::preset(rest).ok_or_else(|| {
        format!(
            "unknown zoo preset: {rest} ({})",
            zoo_preset_names().join("|")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42).derive("test-zoo")
    }

    #[test]
    fn every_preset_parses_and_generates() {
        for name in zoo_preset_names() {
            let spec = parse_zoo(name).expect(name);
            assert_eq!(spec.preset, *name);
            let arrivals = spec.generate(60.0, &rng());
            assert!(!arrivals.is_empty(), "{name} generated nothing");
            assert!(
                arrivals.windows(2).all(|w| w[0] <= w[1]),
                "{name} not ascending"
            );
            assert!(arrivals
                .iter()
                .all(|&t| t.is_finite() && (0.0..60.0).contains(&t)));
        }
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(parse_zoo("").unwrap_err().contains("missing a preset"));
        assert!(parse_zoo("mixed:3").unwrap_err().contains("malformed"));
        let err = parse_zoo("azure2019").unwrap_err();
        assert!(err.contains("unknown zoo preset"));
        assert!(err.contains("mixed"), "error must list presets: {err}");
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = ZooSpec::preset("mixed").unwrap();
        let a = spec.generate(120.0, &rng());
        let b = spec.generate(120.0, &rng());
        assert_eq!(a, b);
        let other = spec.generate(120.0, &SimRng::new(7).derive("test-zoo"));
        assert_ne!(a, other, "seed must matter");
    }

    #[test]
    fn popularity_is_normalized_and_head_heavy() {
        let spec = ZooSpec::preset("mixed").unwrap();
        let p = spec.popularity();
        assert_eq!(p.len(), 80);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1] && p[1] > p[10] && p[10] > p[79]);
    }

    #[test]
    fn single_class_presets_draw_only_their_class() {
        let spec = ZooSpec::preset("bursty").unwrap();
        let r = rng();
        for i in 0..spec.functions {
            assert_eq!(spec.class_of(i, &r), FunctionClass::Bursty);
        }
    }

    #[test]
    fn total_rate_lands_near_the_spec() {
        // Long window so the empirical aggregate rate concentrates.
        let spec = ZooSpec::preset("steady").unwrap();
        let arrivals = spec.generate(600.0, &rng());
        let rate = arrivals.len() as f64 / 600.0;
        assert!(
            (rate - spec.total_rps).abs() < 0.1 * spec.total_rps,
            "aggregate rate {rate} vs spec {}",
            spec.total_rps
        );
    }
}
