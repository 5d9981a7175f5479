//! Parser for the `--chaos` spec grammar (see the crate docs for the full
//! grammar table). Every error carries the offending clause so CLI users get
//! actionable messages.

use crate::fault::{BurstSpec, FaultKind, FaultWindow};
use crate::schedule::FaultSchedule;
use ce_storage::StorageKind;
use std::fmt;

/// A malformed `--chaos` spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpecError {
    pub message: String,
}

impl fmt::Display for ChaosSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid chaos spec: {}", self.message)
    }
}

impl std::error::Error for ChaosSpecError {}

fn err<T>(message: impl Into<String>) -> Result<T, ChaosSpecError> {
    Err(ChaosSpecError {
        message: message.into(),
    })
}

/// Parses a `;`-separated list of window (`fault@start..end`) and burst
/// (`fault~per_hour/hxduration`) clauses. An empty spec is the empty
/// (zero-fault) schedule.
pub fn parse(spec: &str) -> Result<FaultSchedule, ChaosSpecError> {
    let mut schedule = FaultSchedule::none();
    for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        if let Some((head, range)) = clause.split_once('@') {
            let fault = parse_fault(head.trim(), clause)?;
            let (start_s, end_s) = parse_range(range.trim(), clause)?;
            schedule.windows.push(FaultWindow {
                start_s,
                end_s,
                fault,
            });
        } else if let Some((head, tail)) = clause.split_once('~') {
            let fault = parse_fault(head.trim(), clause)?;
            let (per_hour, duration_s) = parse_burst(tail.trim(), clause)?;
            schedule.bursts.push(BurstSpec {
                fault,
                per_hour,
                duration_s,
            });
        } else {
            return err(format!(
                "clause `{clause}` has neither a window (`@start..end`) nor \
                 a burst (`~per_hour/hxduration`)"
            ));
        }
    }
    Ok(schedule)
}

fn parse_fault(head: &str, clause: &str) -> Result<FaultKind, ChaosSpecError> {
    let mut parts = head.split(':');
    let kind = parts.next().unwrap_or_default();
    let fault = match kind {
        "crash" => FaultKind::WorkerCrash {
            rate: parse_probability(parts.next(), "crash rate", clause)?,
        },
        "wave" => FaultKind::WaveKill {
            fraction: parse_probability(parts.next(), "wave fraction", clause)?,
        },
        "throttle" => FaultKind::ThrottleStorm {
            rate: parse_probability(parts.next(), "throttle rate", clause)?,
        },
        "coldspike" => FaultKind::ColdStartSpike {
            factor: parse_factor(parts.next(), "coldspike factor", clause)?,
        },
        "outage" => FaultKind::StorageOutage {
            service: parse_service(parts.next(), clause)?,
        },
        "degrade" => FaultKind::StorageDegrade {
            service: parse_service(parts.next(), clause)?,
            factor: parse_factor(parts.next(), "degrade factor", clause)?,
        },
        other => {
            return err(format!(
                "unknown fault `{other}` in `{clause}` (expected crash, wave, \
                 throttle, coldspike, outage, or degrade)"
            ))
        }
    };
    if let Some(extra) = parts.next() {
        return err(format!("trailing `:{extra}` in `{clause}`"));
    }
    Ok(fault)
}

fn parse_probability(token: Option<&str>, what: &str, clause: &str) -> Result<f64, ChaosSpecError> {
    let token = match token {
        Some(t) if !t.is_empty() => t,
        _ => return err(format!("missing {what} in `{clause}`")),
    };
    match token.parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
        _ => err(format!("{what} `{token}` in `{clause}` must be in [0, 1]")),
    }
}

/// Factors are written `xN` (e.g. `x4`); the leading `x` is optional.
fn parse_factor(token: Option<&str>, what: &str, clause: &str) -> Result<f64, ChaosSpecError> {
    let token = match token {
        Some(t) if !t.is_empty() => t,
        _ => return err(format!("missing {what} in `{clause}`")),
    };
    let digits = token.strip_prefix('x').unwrap_or(token);
    match digits.parse::<f64>() {
        Ok(f) if f >= 1.0 && f.is_finite() => Ok(f),
        _ => err(format!("{what} `{token}` in `{clause}` must be >= 1")),
    }
}

fn parse_service(token: Option<&str>, clause: &str) -> Result<StorageKind, ChaosSpecError> {
    let token = match token {
        Some(t) if !t.is_empty() => t,
        _ => return err(format!("missing storage service in `{clause}`")),
    };
    let token = token.to_ascii_lowercase();
    match StorageKind::from_token(&token) {
        Some(service) => Ok(service),
        None => err(format!(
            "unknown storage service `{token}` in `{clause}` (expected s3, \
             dynamodb, elasticache, or vmps)"
        )),
    }
}

fn parse_range(range: &str, clause: &str) -> Result<(f64, f64), ChaosSpecError> {
    let Some((start, end)) = range.split_once("..") else {
        return err(format!(
            "window `{range}` in `{clause}` must be `start..end`"
        ));
    };
    let start_s = match start.trim().parse::<f64>() {
        Ok(s) if s >= 0.0 && s.is_finite() => s,
        _ => return err(format!("bad window start `{start}` in `{clause}`")),
    };
    let end = end.trim();
    let end_s = if end.eq_ignore_ascii_case("inf") {
        f64::INFINITY
    } else {
        match end.parse::<f64>() {
            Ok(e) if e.is_finite() => e,
            _ => return err(format!("bad window end `{end}` in `{clause}`")),
        }
    };
    if end_s <= start_s {
        return err(format!("empty window `{range}` in `{clause}`"));
    }
    Ok((start_s, end_s))
}

/// Burst tail: `<per_hour>/hx<duration_s>`, e.g. `2/hx60`.
fn parse_burst(tail: &str, clause: &str) -> Result<(f64, f64), ChaosSpecError> {
    let Some((rate, dur)) = tail.split_once("/hx") else {
        return err(format!(
            "burst `{tail}` in `{clause}` must be `<per-hour>/hx<duration-s>`"
        ));
    };
    let per_hour = match rate.trim().parse::<f64>() {
        Ok(r) if r >= 0.0 && r.is_finite() => r,
        _ => return err(format!("bad burst rate `{rate}` in `{clause}`")),
    };
    let duration_s = match dur.trim().parse::<f64>() {
        Ok(d) if d > 0.0 && d.is_finite() => d,
        _ => return err(format!("bad burst duration `{dur}` in `{clause}`")),
    };
    Ok((per_hour, duration_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_clause_kind() {
        let s = FaultSchedule::parse(
            "crash:0.2@0..inf; wave:0.5@300..360; outage:s3@600..1800; \
             degrade:elasticache:x4@0..900; throttle:0.3@0..inf; \
             coldspike:x5@0..120; throttle:0.8~2/hx60",
        )
        .unwrap();
        assert_eq!(s.windows.len(), 6);
        assert_eq!(s.bursts.len(), 1);
        assert_eq!(s.windows[0].fault, FaultKind::WorkerCrash { rate: 0.2 });
        assert!(s.windows[0].end_s.is_infinite());
        assert_eq!(
            s.bursts[0],
            BurstSpec {
                fault: FaultKind::ThrottleStorm { rate: 0.8 },
                per_hour: 2.0,
                duration_s: 60.0,
            }
        );
    }

    #[test]
    fn empty_spec_is_the_empty_schedule() {
        assert!(FaultSchedule::parse("").unwrap().is_empty());
        assert!(FaultSchedule::parse(" ; ").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "crash",
            "crash:1.5@0..10",
            "crash:0.1@10..10",
            "crash:0.1@10..5",
            "crash:0.1@-5..10",
            "meteor:0.1@0..10",
            "outage:floppy@0..10",
            "degrade:s3@0..10",
            "coldspike:x0.5@0..10",
            "throttle:0.5~2perh",
            "crash:0.1:extra@0..10",
        ] {
            assert!(
                FaultSchedule::parse(bad).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn malformed_specs_yield_typed_errors_not_panics() {
        // Every malformed clause must come back as a ChaosSpecError whose
        // message names the offending clause — never a panic, never a
        // silently-dropped clause.
        for bad in [
            "crash:0.1@1800..600",  // window runs backwards
            "meteor:0.1@0..10",     // unknown fault name
            "outage:floppy@0..10",  // unknown service name
            "crash:-0.2@0..10",     // negative rate
            "wave:-1@0..10",        // negative fraction
            "throttle:0.5~-2/hx60", // negative burst rate
            ":",                    // empty head, no window/burst
            "@0..10",               // empty fault head
            "~2/hx60",              // burst with empty head
            "crash:0.1@..10",       // missing window start
            "crash:0.1@0..",        // missing window end
        ] {
            let e = FaultSchedule::parse(bad).expect_err(bad);
            assert!(
                !e.message.is_empty() && e.to_string().starts_with("invalid chaos spec:"),
                "`{bad}` gave unhelpful error `{e}`"
            );
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        // Display emits the canonical grammar, so parse ∘ display is the
        // identity on everything parse accepts.
        for spec in [
            "crash:0.2@0..inf",
            "outage:s3@300..900",
            "degrade:elasticache:x4@0..900",
            "degrade:vmps:x2@60..120",
            "outage:dynamodb@10..20",
            "wave:0.5@300..360",
            "coldspike:x5@0..120",
            "throttle:0.8~2/hx60",
            "crash:0.05@0..inf;outage:s3@1800..3600;throttle:0.3~1.5/hx90",
            "",
        ] {
            let parsed = FaultSchedule::parse(spec).expect(spec);
            let rendered = parsed.to_string();
            let again = FaultSchedule::parse(&rendered)
                .unwrap_or_else(|e| panic!("rendering `{rendered}` of `{spec}` unparseable: {e}"));
            assert_eq!(parsed, again, "spec `{spec}` via `{rendered}`");
        }
        // Aliases normalize to canonical service tokens.
        let s =
            FaultSchedule::parse("outage:DYNAMO@0..1;outage:redis@1..2;outage:vm-ps@2..3").unwrap();
        assert_eq!(
            s.to_string(),
            "outage:dynamodb@0..1;outage:elasticache@1..2;outage:vmps@2..3"
        );
    }

    #[test]
    fn service_aliases_resolve() {
        let s =
            FaultSchedule::parse("outage:DYNAMO@0..1;outage:redis@0..1;outage:vm-ps@0..1").unwrap();
        assert_eq!(
            s.windows[0].fault,
            FaultKind::StorageOutage {
                service: StorageKind::DynamoDb
            }
        );
        assert_eq!(
            s.windows[1].fault,
            FaultKind::StorageOutage {
                service: StorageKind::ElastiCache
            }
        );
        assert_eq!(
            s.windows[2].fault,
            FaultKind::StorageOutage {
                service: StorageKind::VmPs
            }
        );
    }
}
