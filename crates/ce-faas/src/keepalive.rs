//! Pluggable keep-alive (idle-expiry) policies for warm function
//! instances.
//!
//! Providers differ in how long an idle instance stays warm before the
//! platform reclaims it. The classic fixed window (AWS Lambda's observed
//! ~10 min) is [`FixedTtl`]; "The High Cost of Keeping Warm" and the
//! Serverless-in-the-Wild line of work motivate the two adaptive
//! alternatives: [`AdaptiveTtl`] tracks an EWMA of inter-arrival gaps and
//! keeps instances warm just long enough to catch the next expected
//! request, and [`HistogramTtl`] predicts the idle window from a
//! log-bucket histogram of observed gaps (keep warm until the p99 gap).
//!
//! Policies are deterministic pure functions of the arrival history —
//! they draw no randomness — so swapping one in never perturbs any RNG
//! stream and the simulator stays byte-identical per seed.

use ce_obs::LogBuckets;
use ce_sim_core::time::SimTime;

/// The provider-default fixed idle window, in seconds.
pub const DEFAULT_TTL_S: f64 = 600.0;

/// A keep-alive policy: decides how long an idle warm instance survives.
///
/// [`KeepAlive::observe_arrival`] is fed every invocation arrival so
/// adaptive policies can learn the traffic's inter-arrival structure;
/// [`KeepAlive::ttl_s`] is consulted whenever the pool reaps or counts
/// warm instances.
pub trait KeepAlive: std::fmt::Debug + Send {
    /// Stable display name, e.g. `fixed:600` / `adaptive` / `histogram`.
    fn name(&self) -> String;

    /// Idle seconds after which a warm instance is reclaimed, as of `now`.
    fn ttl_s(&self, now: SimTime) -> f64;

    /// Feeds one invocation arrival into the policy's model.
    fn observe_arrival(&mut self, _now: SimTime) {}

    /// Clones the policy behind the trait object.
    fn clone_box(&self) -> Box<dyn KeepAlive>;
}

impl Clone for Box<dyn KeepAlive> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Keep idle instances warm for a fixed window (the provider default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedTtl(pub f64);

impl Default for FixedTtl {
    fn default() -> Self {
        FixedTtl(DEFAULT_TTL_S)
    }
}

impl KeepAlive for FixedTtl {
    fn name(&self) -> String {
        // Integer seconds render without a trailing ".0" so the common
        // cases read naturally ("fixed:600").
        if self.0.fract() == 0.0 {
            format!("fixed:{}", self.0 as u64)
        } else {
            format!("fixed:{}", self.0)
        }
    }

    fn ttl_s(&self, _now: SimTime) -> f64 {
        self.0
    }

    fn clone_box(&self) -> Box<dyn KeepAlive> {
        Box::new(*self)
    }
}

/// Cost-aware adaptive TTL: an EWMA of inter-arrival gaps times a safety
/// margin, clamped to `[min_ttl_s, max_ttl_s]`.
///
/// Under steady traffic the EWMA converges to the mean gap, so instances
/// stay warm just past the next expected arrival; when traffic thins
/// (diurnal trough) the gaps grow, the TTL rises toward — and is capped
/// at — the ski-rental break-even, past which paying a cold start is
/// cheaper than idling the instance.
#[derive(Debug, Clone)]
pub struct AdaptiveTtl {
    /// EWMA smoothing factor in `(0, 1]` (weight of the newest gap).
    pub alpha: f64,
    /// Safety margin multiplying the EWMA gap.
    pub margin: f64,
    /// TTL floor in seconds.
    pub min_ttl_s: f64,
    /// TTL ceiling in seconds (the ski-rental break-even when built via
    /// [`AdaptiveTtl::cost_aware`]).
    pub max_ttl_s: f64,
    ewma_gap_s: Option<f64>,
    last_arrival: Option<SimTime>,
}

impl AdaptiveTtl {
    /// An adaptive policy with explicit clamp bounds.
    pub fn new(margin: f64, min_ttl_s: f64, max_ttl_s: f64) -> Self {
        assert!(min_ttl_s <= max_ttl_s, "TTL floor above ceiling");
        AdaptiveTtl {
            alpha: 0.1,
            margin,
            min_ttl_s,
            max_ttl_s,
            ewma_gap_s: None,
            last_arrival: None,
        }
    }

    /// Derives the TTL ceiling from the billing model (ski rental): keep
    /// an instance warm no longer than the point where accumulated
    /// keep-warm spend exceeds the cost of just eating a cold start.
    /// `latency_value` scales the cold start's effective cost to account
    /// for its QoS damage on top of the billed GB-seconds (a pure
    /// dollars-for-dollars trade would cap the TTL at a few seconds and
    /// disable keep-alive entirely).
    pub fn cost_aware(
        cold_start_s: f64,
        per_gb_second: f64,
        keep_warm_per_gb_s: f64,
        latency_value: f64,
    ) -> Self {
        let break_even_s = latency_value * cold_start_s * per_gb_second / keep_warm_per_gb_s;
        AdaptiveTtl::new(3.0, 10.0, break_even_s.max(10.0))
    }

    /// The current EWMA of inter-arrival gaps, once two arrivals exist.
    pub fn ewma_gap_s(&self) -> Option<f64> {
        self.ewma_gap_s
    }
}

impl Default for AdaptiveTtl {
    fn default() -> Self {
        // AWS-like numbers: 1.8 s cold start, on-demand compute at
        // 1.66667e-5 $/GB-s vs provisioned keep-warm at 4.1667e-6, and a
        // 50x latency value => a ~360 s ceiling.
        AdaptiveTtl::cost_aware(1.8, 1.66667e-5, 4.1667e-6, 50.0)
    }
}

impl KeepAlive for AdaptiveTtl {
    fn name(&self) -> String {
        "adaptive".to_string()
    }

    fn ttl_s(&self, _now: SimTime) -> f64 {
        match self.ewma_gap_s {
            // No gap data yet: stay conservative (the ceiling), matching
            // the cold-pool behaviour of a freshly deployed function.
            None => self.max_ttl_s,
            Some(gap) => (gap * self.margin).clamp(self.min_ttl_s, self.max_ttl_s),
        }
    }

    fn observe_arrival(&mut self, now: SimTime) {
        if let Some(last) = self.last_arrival {
            let gap = (now - last).max(0.0);
            self.ewma_gap_s = Some(match self.ewma_gap_s {
                None => gap,
                Some(ewma) => ewma + self.alpha * (gap - ewma),
            });
        }
        self.last_arrival = Some(now);
    }

    fn clone_box(&self) -> Box<dyn KeepAlive> {
        Box::new(self.clone())
    }
}

/// Histogram-based inter-arrival prediction (Serverless-in-the-Wild
/// style): log-bucket tallies of observed gaps; the TTL is a high
/// percentile of that distribution, so the pool keeps instances warm
/// long enough to catch all but the rarest stragglers.
///
/// The percentile is kept up to date as gaps arrive rather than found
/// by walking the histogram on every query. The gaps live in a
/// [`LogBuckets`] window, whose rank cursor sits on the bucket holding
/// the nearest-rank gap: an arrival tallies its gap in the dense window
/// and walks the cursor to the rank's bucket, at most one occupied
/// bucket away. The bucket's value is recomputed only when that bucket
/// changes, and [`KeepAlive::ttl_s`] reads a stored value.
#[derive(Debug, Clone)]
pub struct HistogramTtl {
    /// Which gap percentile to keep instances warm for.
    percentile: f64,
    /// Safety margin multiplying the percentile gap.
    margin: f64,
    /// TTL floor in seconds.
    min_ttl_s: f64,
    /// TTL ceiling in seconds.
    max_ttl_s: f64,
    /// Gap observations needed before trusting the histogram; below this
    /// the policy falls back to [`DEFAULT_TTL_S`] (clamped).
    warmup: u64,
    /// Log-bucket tallies of the observed gaps; zero gaps (duplicate
    /// timestamps) count below every bucket.
    gaps: LogBuckets,
    /// The nearest-rank percentile gap: its bucket's value, or 0 while
    /// the rank falls among the zero gaps.
    gap_s: f64,
    last_arrival: Option<SimTime>,
}

impl HistogramTtl {
    /// A histogram policy keeping instances warm for the `percentile`
    /// inter-arrival gap, clamped to `[min_ttl_s, max_ttl_s]`.
    pub fn new(percentile: f64, min_ttl_s: f64, max_ttl_s: f64) -> Self {
        assert!((0.0..=1.0).contains(&percentile), "percentile in [0,1]");
        assert!(min_ttl_s <= max_ttl_s, "TTL floor above ceiling");
        HistogramTtl {
            percentile,
            margin: 1.25,
            min_ttl_s,
            max_ttl_s,
            warmup: 20,
            gaps: LogBuckets::default(),
            gap_s: 0.0,
            last_arrival: None,
        }
    }

    /// Gap observations recorded so far.
    pub fn samples(&self) -> u64 {
        self.gaps.total()
    }

    /// Records one gap and reads the gap at rank
    /// `max(ceil(percentile * total), 1)`.
    fn record_gap(&mut self, gap: f64) {
        self.gaps.observe(gap);
        let rank = self.gaps.rank(self.percentile);
        self.gap_s = self.gaps.value_at(rank).unwrap_or(0.0);
    }
}

impl Default for HistogramTtl {
    fn default() -> Self {
        HistogramTtl::new(0.99, 10.0, DEFAULT_TTL_S)
    }
}

impl KeepAlive for HistogramTtl {
    fn name(&self) -> String {
        "histogram".to_string()
    }

    fn ttl_s(&self, _now: SimTime) -> f64 {
        // Past the warmup at least one gap exists, so `gap_s` is live.
        let gap = if self.gaps.total() < self.warmup {
            DEFAULT_TTL_S
        } else {
            self.gap_s * self.margin
        };
        gap.clamp(self.min_ttl_s, self.max_ttl_s)
    }

    fn observe_arrival(&mut self, now: SimTime) {
        if let Some(last) = self.last_arrival {
            self.record_gap((now - last).max(0.0));
        }
        self.last_arrival = Some(now);
    }

    fn clone_box(&self) -> Box<dyn KeepAlive> {
        Box::new(self.clone())
    }
}

/// Why a keep-alive policy spec failed to parse. Distinguishes a TTL
/// problem inside a recognized `fixed:<seconds>` spec from a policy
/// name the registry has never heard of, so CLIs can print the right
/// hint for each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeepAliveParseError {
    /// `fixed:<seconds>` was recognized but the TTL is unusable: not a
    /// number, NaN, infinite, or negative.
    InvalidTtl { raw: String, reason: &'static str },
    /// The policy name itself is unknown.
    UnknownPolicy(String),
}

impl std::fmt::Display for KeepAliveParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeepAliveParseError::InvalidTtl { raw, reason } => {
                write!(f, "invalid keep-alive TTL {raw:?}: {reason} (want a finite number of seconds >= 0)")
            }
            KeepAliveParseError::UnknownPolicy(name) => {
                let msg = ce_sim_core::unknown_name_msg(
                    "keep-alive policy",
                    name,
                    &["fixed[:<ttl-s>]", "adaptive", "histogram"],
                );
                write!(f, "{msg}")
            }
        }
    }
}

impl std::error::Error for KeepAliveParseError {}

/// Parses a keep-alive policy spec: `fixed` (600 s), `fixed:<seconds>`,
/// `adaptive`, or `histogram`, with a typed error saying what is wrong
/// with anything else. NaN, infinite, and negative TTLs are rejected —
/// they would silently disable or immortalize instances downstream.
pub fn parse_keep_alive(name: &str) -> Result<Box<dyn KeepAlive>, KeepAliveParseError> {
    if let Some(rest) = name.strip_prefix("fixed:") {
        let ttl: f64 = rest.parse().map_err(|_| KeepAliveParseError::InvalidTtl {
            raw: rest.to_string(),
            reason: "not a number",
        })?;
        if ttl.is_nan() {
            return Err(KeepAliveParseError::InvalidTtl {
                raw: rest.to_string(),
                reason: "NaN",
            });
        }
        if ttl.is_infinite() {
            return Err(KeepAliveParseError::InvalidTtl {
                raw: rest.to_string(),
                reason: "infinite",
            });
        }
        if ttl < 0.0 {
            return Err(KeepAliveParseError::InvalidTtl {
                raw: rest.to_string(),
                reason: "negative",
            });
        }
        return Ok(Box::new(FixedTtl(ttl)));
    }
    match name {
        "fixed" => Ok(Box::new(FixedTtl::default())),
        "adaptive" => Ok(Box::new(AdaptiveTtl::default())),
        "histogram" => Ok(Box::new(HistogramTtl::default())),
        other => Err(KeepAliveParseError::UnknownPolicy(other.to_string())),
    }
}

/// Parses a keep-alive policy name, `None` on any parse error. Thin
/// wrapper over [`parse_keep_alive`] for callers that don't need the
/// diagnostic.
pub fn keep_alive_by_name(name: &str) -> Option<Box<dyn KeepAlive>> {
    parse_keep_alive(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_sim_core::rng::SimRng;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn fixed_ttl_is_constant_and_named() {
        let p = FixedTtl::default();
        assert_eq!(p.ttl_s(t(0.0)), 600.0);
        assert_eq!(p.ttl_s(t(1e6)), 600.0);
        assert_eq!(p.name(), "fixed:600");
        assert_eq!(FixedTtl(42.5).name(), "fixed:42.5");
    }

    #[test]
    fn adaptive_ttl_tracks_gap_ewma() {
        let mut p = AdaptiveTtl::new(3.0, 1.0, 1e9);
        assert_eq!(p.ttl_s(t(0.0)), 1e9, "no data: ceiling");
        // Steady 10 s gaps: the EWMA converges to 10, TTL to 30.
        for i in 0..200 {
            p.observe_arrival(t(f64::from(i) * 10.0));
        }
        let ttl = p.ttl_s(t(2000.0));
        assert!((ttl - 30.0).abs() < 1e-6, "ttl {ttl}");
        // Traffic thins to 100 s gaps: the TTL grows toward 300.
        for i in 0..200 {
            p.observe_arrival(t(2000.0 + f64::from(i) * 100.0));
        }
        let ttl = p.ttl_s(t(25_000.0));
        assert!(ttl > 250.0, "ttl {ttl} should approach 300");
    }

    #[test]
    fn cost_aware_ceiling_is_the_break_even() {
        let p = AdaptiveTtl::cost_aware(1.8, 1.66667e-5, 4.1667e-6, 50.0);
        // 50 * 1.8 * (1.66667e-5 / 4.1667e-6) ~= 360 s.
        assert!((p.max_ttl_s - 360.0).abs() < 1.0, "ceiling {}", p.max_ttl_s);
    }

    #[test]
    fn histogram_ttl_learns_the_gap_percentile() {
        let mut p = HistogramTtl::new(0.99, 1.0, 1e9);
        assert_eq!(p.ttl_s(t(0.0)), 600.0, "warmup fallback");
        // 97 gaps of 5 s and 3 of 50 s: rank 99 of 100 lands in the 50 s
        // bucket (nearest-rank).
        let mut now = 0.0;
        p.observe_arrival(t(now));
        for i in 0..100 {
            now += if i % 33 == 7 { 50.0 } else { 5.0 };
            p.observe_arrival(t(now));
        }
        let ttl = p.ttl_s(t(now));
        assert!(
            (50.0..=75.0).contains(&ttl),
            "p99 gap ~50 s x margin: ttl {ttl}"
        );
    }

    /// The reference answer: [`HistogramTtl::ttl_s`] as a full walk of
    /// the gap window's counts up to the nearest-rank percentile, without
    /// the window's rank cursor.
    fn walked_ttl_s(p: &HistogramTtl) -> f64 {
        let total = p.gaps.total();
        if total < p.warmup {
            return DEFAULT_TTL_S.clamp(p.min_ttl_s, p.max_ttl_s);
        }
        let rank = ((p.percentile * total as f64).ceil() as u64).max(1);
        let (lo, counts) = p.gaps.window();
        let mut seen = p.gaps.zeros();
        let gap = if seen >= rank {
            0.0
        } else {
            let idx = (lo..)
                .zip(counts)
                .find_map(|(idx, &n)| {
                    seen += n;
                    (seen >= rank).then_some(idx)
                })
                // Past every finite bucket: the `+inf` gaps' bucket.
                .unwrap_or(i32::MAX);
            ce_obs::log_bucket_value(idx)
        };
        (gap * p.margin).clamp(p.min_ttl_s, p.max_ttl_s)
    }

    /// One seeded gap sequence: log-uniform gaps over 1e-6..1e4 s, runs
    /// of zero gaps (duplicate timestamps), and bursts of sub-millisecond
    /// gaps that pull the rank back into lower buckets. A `wide` sequence
    /// adds gaps at the subnormal and the 1e300 scale, some `+inf` gaps,
    /// and long falling runs that grow the window downward across the
    /// whole finite span.
    fn gap_sequence(rng: &mut SimRng, len: usize, wide: bool) -> Vec<f64> {
        let mut gaps = Vec::with_capacity(len);
        while gaps.len() < len {
            let run = 1 + rng.gen_index(40);
            match rng.gen_index(if wide { 7 } else { 4 }) {
                0 => gaps.extend(std::iter::repeat_n(0.0, run)),
                1 => gaps.extend((0..run).map(|_| 10f64.powf(rng.uniform_range(-6.0, -3.0)))),
                2 => gaps.extend((0..run).map(|_| 10f64.powf(rng.uniform_range(2.0, 4.0)))),
                4 => gaps.extend((0..run).map(|_| f64::from_bits(1 + rng.next_u64() % (1 << 52)))),
                5 => gaps.extend((0..run).map(|_| {
                    if rng.bernoulli(0.1) {
                        f64::INFINITY
                    } else {
                        1e300 * rng.uniform_range(1.0, 100.0)
                    }
                })),
                6 => {
                    // Each gap below the last, from up to 1e300 down
                    // past the subnormals to zero.
                    let mut gap = 10f64.powf(rng.uniform_range(0.0, 300.0));
                    for _ in 0..run * 10 {
                        gaps.push(gap);
                        gap /= rng.uniform_range(1.05, 1e10);
                    }
                }
                _ => gaps.extend((0..run).map(|_| 10f64.powf(rng.uniform_range(-6.0, 4.0)))),
            }
        }
        gaps.truncate(len);
        gaps
    }

    #[test]
    fn histogram_ttl_matches_the_reference_walk_after_every_arrival() {
        // Every positive finite gap falls in one of these buckets.
        let span = (ce_obs::log_bucket_index(f64::MAX)
            - ce_obs::log_bucket_index(f64::from_bits(1))
            + 1) as usize;
        let root = SimRng::new(0x4b45_4550);
        for percentile in [0.0, 0.5, 0.99, 1.0] {
            for case in 0..48 {
                let mut rng = root.derive_idx("keepalive-gaps", case);
                // Unclamped, so every percentile move shows in the TTL.
                let mut p = HistogramTtl::new(percentile, 0.0, f64::INFINITY);
                let mut now = 0.0;
                p.observe_arrival(t(now));
                // The reference walks the whole window, which a wide
                // sequence grows to ~73k buckets: keep those shorter.
                let (len, wide) = if case < 40 { (600, false) } else { (200, true) };
                for (i, gap) in gap_sequence(&mut rng, len, wide).into_iter().enumerate() {
                    now += gap;
                    if wide {
                        // Fed as gaps, not timestamps: a clock near 1e300
                        // would round every later small gap away.
                        p.record_gap(gap);
                    } else {
                        p.observe_arrival(t(now));
                    }
                    let (fast, walked) = (p.ttl_s(t(now)), walked_ttl_s(&p));
                    assert_eq!(
                        fast.to_bits(),
                        walked.to_bits(),
                        "p{percentile} case {case} arrival {i}: {fast} vs {walked}"
                    );
                    let window = p.gaps.window().1.len();
                    assert!(window <= span, "window {window} > {span}, case {case}");
                }
                assert!(p.samples() > p.warmup, "sequence crosses the warmup");
            }
        }
    }

    #[test]
    fn a_clone_mid_stream_answers_like_the_original() {
        let root = SimRng::new(0x434c_4f4e);
        for case in 0..20 {
            let mut rng = root.derive_idx("keepalive-clone", case);
            let mut a: Box<dyn KeepAlive> = Box::new(HistogramTtl::new(0.99, 0.0, f64::INFINITY));
            let mut now = 0.0;
            let mut gaps = gap_sequence(&mut rng, 400, case % 2 == 1).into_iter();
            let split = 1 + rng.gen_index(300);
            for gap in gaps.by_ref().take(split) {
                now += gap;
                a.observe_arrival(t(now));
            }
            let mut b = a.clone_box();
            for (i, gap) in gaps.enumerate() {
                now += gap;
                a.observe_arrival(t(now));
                b.observe_arrival(t(now));
                assert_eq!(
                    a.ttl_s(t(now)).to_bits(),
                    b.ttl_s(t(now)).to_bits(),
                    "case {case}, arrival {i} after the clone at {split}"
                );
            }
        }
    }

    #[test]
    fn policies_parse_by_name() {
        assert_eq!(keep_alive_by_name("fixed").unwrap().name(), "fixed:600");
        assert_eq!(keep_alive_by_name("fixed:45").unwrap().name(), "fixed:45");
        assert_eq!(keep_alive_by_name("adaptive").unwrap().name(), "adaptive");
        assert_eq!(keep_alive_by_name("histogram").unwrap().name(), "histogram");
        assert!(keep_alive_by_name("fixed:-3").is_none());
        assert!(keep_alive_by_name("nope").is_none());
    }

    #[test]
    fn bad_ttls_report_typed_errors() {
        let invalid = |spec: &str, reason: &str| match parse_keep_alive(spec) {
            Err(KeepAliveParseError::InvalidTtl { reason: r, .. }) => {
                assert_eq!(r, reason, "{spec}")
            }
            other => panic!("{spec}: expected InvalidTtl({reason}), got {other:?}"),
        };
        invalid("fixed:-3", "negative");
        invalid("fixed:-0.001", "negative");
        invalid("fixed:NaN", "NaN");
        invalid("fixed:inf", "infinite");
        invalid("fixed:-inf", "infinite"); // infinity checked before sign
        invalid("fixed:ten", "not a number");
        invalid("fixed:", "not a number");
        assert!(matches!(
            parse_keep_alive("lru"),
            Err(KeepAliveParseError::UnknownPolicy(n)) if n == "lru"
        ));
        // Edge TTLs that are valid: zero (reap immediately) and huge.
        assert_eq!(parse_keep_alive("fixed:0").unwrap().name(), "fixed:0");
        assert!(parse_keep_alive("fixed:1e9").is_ok());
        // The error text names the offending value for CLI use.
        let msg = parse_keep_alive("fixed:NaN").unwrap_err().to_string();
        assert!(msg.contains("NaN"), "{msg}");
    }

    #[test]
    fn boxed_policies_clone() {
        let mut a: Box<dyn KeepAlive> = Box::new(AdaptiveTtl::new(2.0, 1.0, 100.0));
        a.observe_arrival(t(0.0));
        a.observe_arrival(t(10.0));
        let b = a.clone();
        assert_eq!(a.ttl_s(t(10.0)), b.ttl_s(t(10.0)));
    }
}
