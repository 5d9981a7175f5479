//! Shared formatting for registry-name lookup failures, and the typed
//! error every run spec's `validate()` returns.
//!
//! Every pluggable registry in the workspace (autoscalers, keep-alive
//! policies, dispatch policies, priority policies, placement policies)
//! rejects an unknown spelling with the same message shape: the kind,
//! the offending name, and the valid spellings pipe-joined in
//! presentation order. Centralising the format keeps CLI and bench
//! diagnostics byte-identical across binaries.

/// Formats the canonical `unknown <kind>: <name> (a|b|c)` message.
///
/// ```
/// use ce_sim_core::unknown_name_msg;
/// assert_eq!(
///     unknown_name_msg("autoscaler", "psychic", &["fixed:<n>", "target"]),
///     "unknown autoscaler: psychic (fixed:<n>|target)"
/// );
/// ```
pub fn unknown_name_msg(kind: &str, name: &str, valid: &[&str]) -> String {
    format!("unknown {kind}: {name} ({})", valid.join("|"))
}

/// Why a run spec was refused before any work was done. Each spec's
/// `validate()` returns one, and each simulator constructor panics with
/// its message.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The run would schedule about `expected` items of `what`, over the
    /// ceiling of `max` (NaN and infinity are over every ceiling).
    OverCeiling {
        what: &'static str,
        expected: f64,
        max: usize,
    },
    /// `field` is zero but must count at least one `unit`.
    Zero {
        field: &'static str,
        unit: &'static str,
    },
    /// A name or grammar in the spec was refused, with the parser's
    /// message.
    Invalid(String),
}

impl SpecError {
    /// `Ok` when `expected <= max`, written so that NaN and infinity fail.
    pub fn at_most(what: &'static str, expected: f64, max: usize) -> Result<(), SpecError> {
        if expected <= max as f64 {
            Ok(())
        } else {
            Err(SpecError::OverCeiling {
                what,
                expected,
                max,
            })
        }
    }

    /// `Ok` unless some `(count, field, unit)` has a zero count.
    pub fn nonzero(counts: &[(u64, &'static str, &'static str)]) -> Result<(), SpecError> {
        match counts.iter().find(|c| c.0 == 0) {
            Some(&(_, field, unit)) => Err(SpecError::Zero { field, unit }),
            None => Ok(()),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::OverCeiling {
                what,
                expected,
                max,
            } => write!(
                f,
                "the run would schedule ~{expected:.3e} {what}, over the ceiling of {max} {what}"
            ),
            SpecError::Zero { field, unit } => {
                write!(f, "invalid {field}: must be at least 1 {unit}")
            }
            SpecError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for String {
    fn from(e: SpecError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::{unknown_name_msg, SpecError};

    #[test]
    fn ceilings_refuse_nan_and_infinity() {
        assert_eq!(SpecError::at_most("arrivals", 10.0, 10), Ok(()));
        for bad in [11.0, f64::NAN, f64::INFINITY] {
            let err = SpecError::at_most("arrivals", bad, 10).unwrap_err();
            assert!(
                err.to_string().contains("over the ceiling of 10 arrivals"),
                "{err}"
            );
        }
    }

    #[test]
    fn joins_valid_spellings_with_pipes() {
        assert_eq!(
            unknown_name_msg("priority policy", "nope", &["serve-first", "fair-share"]),
            "unknown priority policy: nope (serve-first|fair-share)"
        );
    }

    #[test]
    fn single_spelling_has_no_separator() {
        assert_eq!(
            unknown_name_msg("policy", "x", &["fifo"]),
            "unknown policy: x (fifo)"
        );
    }
}
