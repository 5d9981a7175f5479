//! Request-level resilience policies.
//!
//! The serving simulators (`ce-serve`, `ce-lifecycle`) compose a
//! per-request pipeline out of five independent mechanisms, all
//! configured through one [`ResilienceSpec`]:
//!
//! * **timeouts** — an attempt that runs past the deadline is killed at
//!   the deadline and resolves with a typed `TimedOut` verdict;
//! * **retries** — a failed or timed-out attempt is relaunched after an
//!   exponential backoff, but only while the token-bucket
//!   [`RetryBudget`] has credit, so a correlated failure burst cannot
//!   amplify itself into a retry storm;
//! * **hedging** — a second attempt launches at the live p95-latency
//!   mark (or a fixed delay) and the first completion wins; the loser
//!   keeps running and its compute is billed;
//! * **circuit breaking** — a per-service [`CircuitBreaker`] watches a
//!   sliding window of attempt outcomes and converts doomed dispatches
//!   into fast sheds while open, probing with single requests when
//!   half-open;
//! * **brownout** — above a queue-depth threshold, admission serves a
//!   cheaper degraded profile (shorter service time) instead of letting
//!   the queue overflow into sheds.
//!
//! Everything here is plain deterministic state: no clocks, no
//! randomness. Where a policy wants jitter (retry backoff), the caller
//! draws it on a stream forked per (request, attempt) and passes the
//! factor in, which is what keeps resilient runs byte-identical per
//! seed — and resilience-off runs byte-identical to the pre-resilience
//! goldens.

/// How one dispatched attempt ended. Fed to the [`CircuitBreaker`] and
/// used by the simulators to decide whether a retry is warranted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt completed and produced a response.
    Ok,
    /// The instance crashed mid-attempt (chaos fault).
    Crashed,
    /// The attempt ran past the request timeout and was killed.
    TimedOut,
}

impl AttemptOutcome {
    /// Whether the attempt produced a usable response.
    pub fn is_ok(self) -> bool {
        matches!(self, AttemptOutcome::Ok)
    }
}

/// Exponential-backoff retry policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retries).
    pub max_retries: u32,
    /// Backoff before the first retry (milliseconds).
    pub base_backoff_ms: f64,
    /// Backoff growth factor per further retry.
    pub multiplier: f64,
}

impl RetryPolicy {
    /// A policy with 200 ms base backoff doubling per retry.
    pub fn new(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff_ms: 200.0,
            multiplier: 2.0,
        }
    }

    /// Backoff before retry number `retry` (1-based), scaled by a
    /// caller-drawn `jitter` factor so concurrent retries decorrelate.
    pub fn backoff_ms(&self, retry: u32, jitter: f64) -> f64 {
        debug_assert!(retry >= 1, "retry numbers are 1-based");
        self.base_backoff_ms * self.multiplier.powi(retry as i32 - 1) * jitter
    }
}

/// Token-bucket retry budget (the Finagle scheme): every arrival
/// deposits `ratio` tokens, every retry withdraws one. Under a
/// correlated failure burst the bucket drains and retries stop, capping
/// the retry amplification factor at `ratio` in steady state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    /// Tokens deposited per arrival.
    pub ratio: f64,
    /// Bucket capacity (burst allowance).
    cap: f64,
    tokens: f64,
}

impl RetryBudget {
    /// Default tokens-per-arrival ratio when retries are enabled
    /// without an explicit budget: at most ~20% extra load from retries.
    pub const DEFAULT_RATIO: f64 = 0.2;

    /// A budget that earns `ratio` tokens per arrival. The bucket
    /// starts full at a capacity of `max(10, 100 * ratio)` tokens, so
    /// isolated early failures can always retry.
    pub fn new(ratio: f64) -> Self {
        let cap = (100.0 * ratio).max(10.0);
        RetryBudget {
            ratio,
            cap,
            tokens: cap,
        }
    }

    /// Credits one arrival.
    pub fn deposit(&mut self) {
        self.tokens = (self.tokens + self.ratio).min(self.cap);
    }

    /// Spends one token if available; `false` means the retry must not
    /// launch.
    pub fn try_withdraw(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Remaining credit (test/observability hook).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// When a hedge attempt launches relative to its primary's dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HedgePolicy {
    /// Hedge after a fixed delay in milliseconds.
    FixedMs(f64),
    /// Hedge at the live p95 of completed end-to-end latency; before
    /// any completions exist the simulator falls back to its SLO.
    P95,
}

impl HedgePolicy {
    /// Parses `p95` or a positive millisecond delay, mirroring the
    /// registry parsers elsewhere: the error lists the valid forms.
    pub fn parse(s: &str) -> Result<HedgePolicy, String> {
        if s == "p95" {
            return Ok(HedgePolicy::P95);
        }
        match s.parse::<f64>() {
            Ok(ms) if ms > 0.0 && ms.is_finite() => Ok(HedgePolicy::FixedMs(ms)),
            _ => Err(format!("unknown hedge policy: {s} (p95|<delay-ms>)")),
        }
    }

    /// Display name (round-trips through [`HedgePolicy::parse`]).
    pub fn name(&self) -> String {
        match self {
            HedgePolicy::FixedMs(ms) => format!("{ms}"),
            HedgePolicy::P95 => "p95".to_string(),
        }
    }
}

/// Circuit-breaker configuration: a sliding outcome window plus a
/// cooldown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerSpec {
    /// Open when the windowed failure rate reaches this fraction.
    pub failure_threshold: f64,
    /// Number of most-recent attempt outcomes considered.
    pub window: usize,
    /// Outcomes required before the rate is trusted at all.
    pub min_samples: usize,
    /// Seconds the breaker stays open before probing half-open.
    pub cooldown_s: f64,
}

impl BreakerSpec {
    /// A breaker tripping at `failure_threshold` over a 20-outcome
    /// window (min 10 samples) with a 30 s cooldown.
    pub fn new(failure_threshold: f64) -> Self {
        BreakerSpec {
            failure_threshold,
            window: 20,
            min_samples: 10,
            cooldown_s: 30.0,
        }
    }
}

/// Breaker state. The gauge encoding (`as_gauge`) is part of the
/// metrics contract: 0 closed, 1 open, 2 half-open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; outcomes are recorded.
    Closed,
    /// All admissions shed fast until the cooldown elapses.
    Open,
    /// One probe in flight decides reopen-vs-close.
    HalfOpen,
}

impl BreakerState {
    /// Metric encoding for the `resilience.breaker_state` gauge.
    pub fn as_gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }

    /// Display name (used in breaker transition events).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Windowed-failure-rate circuit breaker.
///
/// Closed: outcomes enter a ring buffer; when at least `min_samples`
/// are present and the failure fraction reaches the threshold, the
/// breaker opens (window cleared). Open: [`CircuitBreaker::allow`]
/// rejects until `cooldown_s` has elapsed, then admits exactly one
/// probe (half-open). Half-open: the probe's outcome either closes the
/// breaker or reopens it for another cooldown; non-probe outcomes
/// (stragglers dispatched before the trip) are ignored so a stale
/// crash cannot flap the state.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    spec: BreakerSpec,
    state: BreakerState,
    /// Ring buffer of recent outcomes (true = ok).
    window: Vec<bool>,
    next_slot: usize,
    filled: usize,
    failures: usize,
    opened_at_s: f64,
    probe_in_flight: bool,
}

/// A state transition, returned so the caller can emit an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    pub from: BreakerState,
    pub to: BreakerState,
}

impl CircuitBreaker {
    /// A closed breaker with an empty window.
    pub fn new(spec: BreakerSpec) -> Self {
        CircuitBreaker {
            window: vec![false; spec.window.max(1)],
            spec,
            state: BreakerState::Closed,
            next_slot: 0,
            filled: 0,
            failures: 0,
            opened_at_s: 0.0,
            probe_in_flight: false,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether an arrival at `now_s` may dispatch. May move the breaker
    /// from open to half-open; there is no separate transition getter —
    /// a caller that needs to observe the open→half-open edge reads
    /// [`CircuitBreaker::state`] before and after the call.
    pub fn allow(&mut self, now_s: f64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now_s - self.opened_at_s >= self.spec.cooldown_s {
                    self.state = BreakerState::HalfOpen;
                    self.probe_in_flight = true;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    false
                } else {
                    self.probe_in_flight = true;
                    true
                }
            }
        }
    }

    /// Records an attempt outcome; `probe` marks the half-open probe
    /// attempt. Returns a transition when the state changed.
    pub fn on_outcome(&mut self, ok: bool, probe: bool, now_s: f64) -> Option<BreakerTransition> {
        match self.state {
            BreakerState::Closed => {
                self.push(ok);
                if self.filled >= self.spec.min_samples.max(1)
                    && self.failure_rate() >= self.spec.failure_threshold
                {
                    self.trip(now_s);
                    return Some(BreakerTransition {
                        from: BreakerState::Closed,
                        to: BreakerState::Open,
                    });
                }
                None
            }
            BreakerState::HalfOpen if probe => {
                self.probe_in_flight = false;
                if ok {
                    self.state = BreakerState::Closed;
                    self.clear();
                    Some(BreakerTransition {
                        from: BreakerState::HalfOpen,
                        to: BreakerState::Closed,
                    })
                } else {
                    self.state = BreakerState::Open;
                    self.opened_at_s = now_s;
                    Some(BreakerTransition {
                        from: BreakerState::HalfOpen,
                        to: BreakerState::Open,
                    })
                }
            }
            // Stragglers finishing while open or half-open say nothing
            // about the service *now*; ignore them.
            _ => None,
        }
    }

    /// Windowed failure fraction (0 when empty).
    pub fn failure_rate(&self) -> f64 {
        if self.filled == 0 {
            return 0.0;
        }
        self.failures as f64 / self.filled as f64
    }

    fn push(&mut self, ok: bool) {
        if self.filled == self.window.len() {
            // Evict the oldest outcome from the ring.
            if !self.window[self.next_slot] {
                self.failures -= 1;
            }
        } else {
            self.filled += 1;
        }
        self.window[self.next_slot] = ok;
        if !ok {
            self.failures += 1;
        }
        self.next_slot = (self.next_slot + 1) % self.window.len();
    }

    fn trip(&mut self, now_s: f64) {
        self.state = BreakerState::Open;
        self.opened_at_s = now_s;
        self.clear();
    }

    fn clear(&mut self) {
        self.window.fill(false);
        self.next_slot = 0;
        self.filled = 0;
        self.failures = 0;
    }
}

/// Brownout / degraded-mode serving: while the admission queue is at or
/// above `queue_frac` of its capacity, dispatches run a degraded
/// profile whose service time is scaled by `degrade_factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutSpec {
    /// Queue-depth fraction (of queue capacity) that activates brownout.
    pub queue_frac: f64,
    /// Service-time multiplier of the degraded profile (in `(0, 1)`).
    pub degrade_factor: f64,
}

impl BrownoutSpec {
    /// Brownout at half-full queue with the given degrade factor.
    pub fn new(degrade_factor: f64) -> Self {
        BrownoutSpec {
            queue_frac: 0.5,
            degrade_factor,
        }
    }

    /// Whether a dispatch observing `queued` of `cap` queue slots runs
    /// degraded.
    pub fn active(&self, queued: usize, cap: usize) -> bool {
        queued as f64 >= self.queue_frac * cap as f64 && queued > 0
    }
}

/// The full per-request resilience configuration. The default
/// ([`ResilienceSpec::disabled`]) turns every mechanism off, and a
/// disabled spec is the byte-identity contract: simulators must take
/// exactly the pre-resilience code paths (zero extra RNG draws, zero
/// extra events, zero extra metrics) when given one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceSpec {
    /// Per-attempt execution deadline (milliseconds).
    pub timeout_ms: Option<f64>,
    /// Retry-on-failure policy.
    pub retry: Option<RetryPolicy>,
    /// Tokens earned per arrival for the retry budget. `None` with
    /// retries enabled uses [`RetryBudget::DEFAULT_RATIO`].
    pub retry_budget: Option<f64>,
    /// Hedged-request policy.
    pub hedge: Option<HedgePolicy>,
    /// Circuit-breaker configuration.
    pub breaker: Option<BreakerSpec>,
    /// Brownout / degraded-mode configuration.
    pub brownout: Option<BrownoutSpec>,
}

impl ResilienceSpec {
    /// Every mechanism off (the golden-preserving default).
    pub fn disabled() -> Self {
        ResilienceSpec::default()
    }

    /// Whether any mechanism is configured.
    pub fn enabled(&self) -> bool {
        self.timeout_ms.is_some()
            || self.retry.is_some()
            || self.hedge.is_some()
            || self.breaker.is_some()
            || self.brownout.is_some()
    }

    /// The attempt deadline in seconds, if one is set.
    pub fn timeout_s(&self) -> Option<f64> {
        self.timeout_ms.map(|ms| ms / 1e3)
    }

    /// The retry budget this spec implies: the explicit ratio, or the
    /// default ratio when retries are on without one, or `None`.
    pub fn budget(&self) -> Option<RetryBudget> {
        match (self.retry, self.retry_budget) {
            (_, Some(ratio)) => Some(RetryBudget::new(ratio)),
            (Some(_), None) => Some(RetryBudget::new(RetryBudget::DEFAULT_RATIO)),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spec_reports_disabled() {
        let spec = ResilienceSpec::disabled();
        assert!(!spec.enabled());
        assert_eq!(spec.timeout_s(), None);
        assert!(spec.budget().is_none());
        let on = ResilienceSpec {
            retry: Some(RetryPolicy::new(2)),
            ..ResilienceSpec::disabled()
        };
        assert!(on.enabled());
        let b = on.budget().expect("retries imply a budget");
        assert!((b.ratio - RetryBudget::DEFAULT_RATIO).abs() < 1e-12);
    }

    #[test]
    fn backoff_grows_exponentially_and_scales_with_jitter() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 100.0,
            multiplier: 2.0,
        };
        assert!((p.backoff_ms(1, 1.0) - 100.0).abs() < 1e-9);
        assert!((p.backoff_ms(2, 1.0) - 200.0).abs() < 1e-9);
        assert!((p.backoff_ms(3, 1.0) - 400.0).abs() < 1e-9);
        assert!((p.backoff_ms(2, 0.5) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn retry_budget_starves_under_a_failure_storm() {
        let mut b = RetryBudget::new(0.25);
        // Burst allowance: the bucket starts full.
        let burst = (0..100).filter(|_| b.try_withdraw()).count();
        assert_eq!(burst, 25, "cap = max(10, 100*ratio)");
        assert!(!b.try_withdraw(), "bucket empty");
        // Four arrivals earn one retry (0.25 is exact in binary).
        for _ in 0..4 {
            b.deposit();
        }
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw());
    }

    #[test]
    fn retry_budget_caps_accumulation() {
        let mut b = RetryBudget::new(0.5);
        for _ in 0..100_000 {
            b.deposit();
        }
        let drained = (0..100_000).filter(|_| b.try_withdraw()).count();
        assert_eq!(drained, 50, "cap = 100 * ratio");
    }

    #[test]
    fn hedge_policy_parses_and_round_trips() {
        assert_eq!(HedgePolicy::parse("p95").unwrap(), HedgePolicy::P95);
        assert_eq!(
            HedgePolicy::parse("250").unwrap(),
            HedgePolicy::FixedMs(250.0)
        );
        for bad in ["", "p50", "-1", "0", "nan", "inf"] {
            let err = HedgePolicy::parse(bad).unwrap_err();
            assert!(err.contains("p95|<delay-ms>"), "{err}");
        }
        for name in ["p95", "250"] {
            assert_eq!(HedgePolicy::parse(name).unwrap().name(), name);
        }
    }

    #[test]
    fn breaker_trips_on_windowed_failures_and_recovers_via_probe() {
        let mut b = CircuitBreaker::new(BreakerSpec {
            failure_threshold: 0.5,
            window: 10,
            min_samples: 4,
            cooldown_s: 30.0,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        // Three failures: below min_samples, still closed.
        for _ in 0..3 {
            assert!(b.on_outcome(false, false, 1.0).is_none());
        }
        assert!(b.allow(1.0));
        // Fourth failure reaches min_samples at 100% failure: open.
        let t = b.on_outcome(false, false, 2.0).expect("trips");
        assert_eq!((t.from, t.to), (BreakerState::Closed, BreakerState::Open));
        assert!(!b.allow(10.0), "cooling down");
        // Cooldown elapsed: exactly one probe is admitted.
        assert!(b.allow(32.0));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(33.0), "second admission waits on the probe");
        // Straggler outcomes don't flap a half-open breaker.
        assert!(b.on_outcome(false, false, 33.5).is_none());
        // Probe succeeds: closed, window reset.
        let t = b.on_outcome(true, true, 34.0).expect("closes");
        assert_eq!(
            (t.from, t.to),
            (BreakerState::HalfOpen, BreakerState::Closed)
        );
        assert!(b.allow(35.0));
        assert_eq!(b.failure_rate(), 0.0, "window cleared on close");
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let mut b = CircuitBreaker::new(BreakerSpec {
            failure_threshold: 0.5,
            window: 4,
            min_samples: 2,
            cooldown_s: 10.0,
        });
        b.on_outcome(false, false, 0.0);
        b.on_outcome(false, false, 0.0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(10.0), "probe after cooldown");
        let t = b.on_outcome(false, true, 11.0).expect("reopens");
        assert_eq!((t.from, t.to), (BreakerState::HalfOpen, BreakerState::Open));
        assert!(!b.allow(15.0), "cooldown restarts from the failed probe");
        assert!(b.allow(21.0), "second probe after the fresh cooldown");
    }

    #[test]
    fn breaker_window_slides() {
        let mut b = CircuitBreaker::new(BreakerSpec {
            failure_threshold: 0.6,
            window: 5,
            min_samples: 5,
            cooldown_s: 1.0,
        });
        // 2 failures then 3 oks: 40% < 60%, closed.
        for ok in [false, false, true, true, true] {
            assert!(b.on_outcome(ok, false, 0.0).is_none());
        }
        // Two more failures evict the leading failures: window is now
        // [true, true, true, false, false] = 40%, still closed.
        assert!(b.on_outcome(false, false, 0.0).is_none());
        assert!(b.on_outcome(false, false, 0.0).is_none());
        assert!((b.failure_rate() - 0.4).abs() < 1e-12);
        // A third failure makes it 60%: trips.
        assert!(b.on_outcome(false, false, 0.0).is_some());
    }

    #[test]
    fn brownout_activates_on_queue_fraction() {
        let s = BrownoutSpec::new(0.6);
        assert!(!s.active(0, 100), "empty queue never browns out");
        assert!(!s.active(49, 100));
        assert!(s.active(50, 100));
        assert!(s.active(100, 100));
        // Tiny caps: the `queued > 0` guard keeps cap=0 sane.
        assert!(!s.active(0, 0));
        assert!(s.active(1, 1));
    }

    #[test]
    fn breaker_state_gauge_encoding_is_stable() {
        assert_eq!(BreakerState::Closed.as_gauge(), 0.0);
        assert_eq!(BreakerState::Open.as_gauge(), 1.0);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 2.0);
        assert_eq!(BreakerState::HalfOpen.name(), "half-open");
    }
}
