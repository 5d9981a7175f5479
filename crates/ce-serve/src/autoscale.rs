//! Pluggable autoscaling policies for the serving simulator.
//!
//! The scaler runs on a fixed tick. Each tick it sees a
//! [`LoadObservation`] (in-flight work, queue depth, warm capacity,
//! recent arrivals) and returns a [`ScaleDecision`]: the concurrency
//! *capacity* (how many requests may execute at once) and the *warm
//! target* (how many instances should be provisioned, busy or idle).
//! Keeping capacity and provisioning separate is what distinguishes the
//! three policies:
//!
//! * [`FixedPool`] — a static pool: capacity and warm target pinned at a
//!   configured size. Overpays at the trough, saturates at the peak.
//! * [`ConcurrencyTarget`] — Knative-style tracking: an EWMA of observed
//!   concurrency (in-flight + queued) divided by a per-instance target,
//!   times a headroom factor.
//! * [`PrewarmAhead`] — the paper's pre-warm policy: predicts concurrency
//!   from the arrival rate via Little's law and provisions *ahead* of
//!   demand, leaving admission effectively uncapped so bursts absorb
//!   into cold starts instead of the queue.
//!
//! Policies are deterministic and RNG-free, mirroring the keep-alive
//! contract in `ce_faas::keepalive`.

/// What the scaler sees at one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadObservation {
    /// Tick instant (seconds).
    pub now_s: f64,
    /// Seconds since the previous tick.
    pub tick_s: f64,
    /// Requests currently executing.
    pub inflight: u32,
    /// Requests parked in the admission queue.
    pub queued: u32,
    /// Idle warm instances available right now.
    pub warm_idle: u32,
    /// Requests that arrived since the previous tick.
    pub arrivals_in_tick: u32,
    /// Mean service time of one request (seconds).
    pub mean_service_s: f64,
}

/// The scaler's output for the next tick interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleDecision {
    /// Max requests executing at once; arrivals beyond it queue.
    pub capacity: u32,
    /// Desired provisioned instances (busy + idle). The simulator
    /// pre-warms the deficit; surplus drains via keep-alive expiry.
    pub warm_target: u32,
}

/// An autoscaling policy (see the module docs for the taxonomy).
pub trait Autoscaler: std::fmt::Debug + Send {
    /// Stable display name, e.g. `fixed:32` / `target` / `prewarm`.
    fn name(&self) -> String;

    /// The decision in force before the first tick.
    fn initial(&self) -> ScaleDecision;

    /// One tick of the control loop.
    fn plan(&mut self, load: &LoadObservation) -> ScaleDecision;

    /// Clones the policy behind the trait object.
    fn clone_box(&self) -> Box<dyn Autoscaler>;
}

impl Clone for Box<dyn Autoscaler> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A statically provisioned pool of `size` instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPool {
    /// Pool size (capacity == warm target).
    pub size: u32,
}

impl FixedPool {
    /// A fixed pool of `size` instances.
    pub fn new(size: u32) -> Self {
        assert!(size > 0, "a fixed pool needs at least one instance");
        FixedPool { size }
    }
}

impl Autoscaler for FixedPool {
    fn name(&self) -> String {
        format!("fixed:{}", self.size)
    }

    fn initial(&self) -> ScaleDecision {
        ScaleDecision {
            capacity: self.size,
            warm_target: self.size,
        }
    }

    fn plan(&mut self, _load: &LoadObservation) -> ScaleDecision {
        self.initial()
    }

    fn clone_box(&self) -> Box<dyn Autoscaler> {
        Box::new(*self)
    }
}

/// Knative-style concurrency tracking: capacity follows an EWMA of
/// observed concurrency scaled by `headroom / target`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyTarget {
    /// Desired concurrent requests per instance (Knative's
    /// `container-concurrency`; 1.0 for single-request instances).
    pub target: f64,
    /// Over-provisioning factor above the tracked concurrency.
    pub headroom: f64,
    /// EWMA smoothing factor (weight of the newest observation).
    pub alpha: f64,
    /// Capacity floor.
    pub min: u32,
    /// Capacity ceiling.
    pub max: u32,
    ewma_concurrency: f64,
}

impl ConcurrencyTarget {
    /// A tracker targeting one request per instance with the given
    /// headroom, clamped to `[min, max]` instances.
    pub fn new(headroom: f64, min: u32, max: u32) -> Self {
        assert!(min <= max, "capacity floor above ceiling");
        ConcurrencyTarget {
            target: 1.0,
            headroom,
            alpha: 0.3,
            min,
            max,
            ewma_concurrency: 0.0,
        }
    }
}

impl Default for ConcurrencyTarget {
    fn default() -> Self {
        ConcurrencyTarget::new(1.2, 1, 100_000)
    }
}

impl Autoscaler for ConcurrencyTarget {
    fn name(&self) -> String {
        "target".to_string()
    }

    fn initial(&self) -> ScaleDecision {
        ScaleDecision {
            capacity: self.min.max(1),
            warm_target: 0,
        }
    }

    fn plan(&mut self, load: &LoadObservation) -> ScaleDecision {
        let demand = f64::from(load.inflight) + f64::from(load.queued);
        self.ewma_concurrency += self.alpha * (demand - self.ewma_concurrency);
        // Deadband: the EWMA decays geometrically and never reaches zero
        // on its own, which would pin ceil() at one instance forever.
        if self.ewma_concurrency < 0.1 {
            self.ewma_concurrency = 0.0;
        }
        let wanted = (self.ewma_concurrency * self.headroom / self.target).ceil() as u32;
        ScaleDecision {
            // Admission keeps a floor so a lone arrival never queues…
            capacity: wanted.clamp(self.min.max(1), self.max),
            // …but provisioning scales to zero (Knative-style): with no
            // demand, nothing is re-warmed and the keep-alive policy
            // decides how long the last instances linger.
            warm_target: wanted.min(self.max),
        }
    }

    fn clone_box(&self) -> Box<dyn Autoscaler> {
        Box::new(*self)
    }
}

/// Pre-warm-ahead: Little's-law concurrency prediction from the arrival
/// rate, provisioned with margin `gamma`; admission is left uncapped so
/// prediction misses surface as cold starts, never as queueing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrewarmAhead {
    /// Provisioning margin over the Little's-law prediction.
    pub gamma: f64,
    /// EWMA smoothing factor for the arrival rate.
    pub alpha: f64,
    ewma_rps: f64,
}

/// The "uncapped" admission capacity [`PrewarmAhead`] reports.
const UNCAPPED: u32 = u32::MAX / 2;

impl PrewarmAhead {
    /// A pre-warm policy with provisioning margin `gamma`.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma >= 1.0, "margin below 1 under-provisions by design");
        PrewarmAhead {
            gamma,
            alpha: 0.3,
            ewma_rps: 0.0,
        }
    }
}

impl Default for PrewarmAhead {
    fn default() -> Self {
        PrewarmAhead::new(1.3)
    }
}

impl Autoscaler for PrewarmAhead {
    fn name(&self) -> String {
        "prewarm".to_string()
    }

    fn initial(&self) -> ScaleDecision {
        ScaleDecision {
            capacity: UNCAPPED,
            warm_target: 0,
        }
    }

    fn plan(&mut self, load: &LoadObservation) -> ScaleDecision {
        let rps = f64::from(load.arrivals_in_tick) / load.tick_s.max(1e-9);
        self.ewma_rps += self.alpha * (rps - self.ewma_rps);
        // Little's law: L = λW.
        let predicted = self.ewma_rps * load.mean_service_s;
        ScaleDecision {
            capacity: UNCAPPED,
            warm_target: (predicted * self.gamma).ceil() as u32,
        }
    }

    fn clone_box(&self) -> Box<dyn Autoscaler> {
        Box::new(*self)
    }
}

/// The most training episodes a `qlearn:<episodes>:..` spec may ask
/// for: parsing the spec trains the policy, and this bounds that to a
/// few seconds (the default is 300).
pub const MAX_QLEARN_EPISODES: u32 = 100_000;

/// The most instances an autoscaler may admit or keep warm in one pool:
/// the largest `fixed:<n>` size, and the learned autoscaler's capacity
/// clamp. A fixed pool prewarms all of them up front.
pub const MAX_CAPACITY: u32 = 100_000;

/// The spellings [`parse_autoscaler`] accepts, in presentation order.
/// CLI error messages list these so a typo'd `--autoscaler` shows the
/// user what would have worked.
pub fn autoscaler_names() -> &'static [&'static str] {
    &[
        "fixed:<n>",
        "target",
        "prewarm",
        "qlearn[:<episodes>:<epsilon>:<alpha>]",
    ]
}

fn unknown_autoscaler(name: &str) -> String {
    ce_sim_core::unknown_name_msg("autoscaler", name, autoscaler_names())
}

/// The pool size of a `fixed:<size>` spec, parsed and range-checked as
/// [`parse_autoscaler`] does; `None` for any other spec. Builds nothing,
/// so a caller can bound what a fixed pool would prewarm.
///
/// # Errors
/// [`parse_autoscaler`]'s message for a malformed or out-of-range size.
pub fn fixed_pool_size(name: &str) -> Option<Result<u32, String>> {
    let rest = name.strip_prefix("fixed:")?;
    Some(match rest.parse::<u32>() {
        Err(_) => Err(unknown_autoscaler(name)),
        Ok(size) if !(1..=MAX_CAPACITY).contains(&size) => Err(format!(
            "invalid fixed:<n> pool size {size}: must be in [1, {MAX_CAPACITY}]"
        )),
        Ok(size) => Ok(size),
    })
}

/// Parses an autoscaler spec: `fixed:<size>`, `target`, `prewarm`, or
/// `qlearn` (optionally `qlearn:<episodes>:<epsilon>:<alpha>`, which
/// trains the frozen policy with those hyperparameters).
///
/// # Errors
/// A human-readable message: invalid `qlearn` hyperparameters get a
/// targeted diagnosis; everything else lists the valid spellings.
pub fn parse_autoscaler(name: &str) -> Result<Box<dyn Autoscaler>, String> {
    if let Some(size) = fixed_pool_size(name) {
        return Ok(Box::new(FixedPool::new(size?)));
    }
    if name == "qlearn" || name.starts_with("qlearn:") {
        let mut config = crate::qscale::QScalerConfig::default();
        if let Some(rest) = name.strip_prefix("qlearn:") {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() != 3 {
                return Err(format!(
                    "malformed qlearn spec {name:?}: expected qlearn:<episodes>:<epsilon>:<alpha>"
                ));
            }
            config.episodes = parts[0]
                .parse::<u32>()
                .ok()
                .filter(|e| (1..=MAX_QLEARN_EPISODES).contains(e))
                .ok_or_else(|| {
                    format!(
                        "invalid qlearn train-episodes {:?}: must be an integer in \
                         [1, {MAX_QLEARN_EPISODES}]",
                        parts[0]
                    )
                })?;
            config.epsilon = parts[1]
                .parse::<f64>()
                .ok()
                .filter(|e| (0.0..=1.0).contains(e))
                .ok_or_else(|| {
                    format!("invalid qlearn epsilon {:?}: must be in [0, 1]", parts[1])
                })?;
            config.alpha = parts[2]
                .parse::<f64>()
                .ok()
                .filter(|a| *a > 0.0 && *a <= 1.0)
                .ok_or_else(|| format!("invalid qlearn alpha {:?}: must be in (0, 1]", parts[2]))?;
        }
        return Ok(Box::new(crate::qscale::QLearningAutoscaler::train(config)));
    }
    match name {
        "target" => Ok(Box::new(ConcurrencyTarget::default())),
        "prewarm" => Ok(Box::new(PrewarmAhead::default())),
        _ => Err(unknown_autoscaler(name)),
    }
}

/// [`parse_autoscaler`] with the error dropped, for callers that only
/// need a yes/no registry lookup.
pub fn autoscaler_by_name(name: &str) -> Option<Box<dyn Autoscaler>> {
    parse_autoscaler(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(inflight: u32, queued: u32, arrivals: u32) -> LoadObservation {
        LoadObservation {
            now_s: 10.0,
            tick_s: 2.0,
            inflight,
            queued,
            warm_idle: 0,
            arrivals_in_tick: arrivals,
            mean_service_s: 0.25,
        }
    }

    #[test]
    fn fixed_pool_never_moves() {
        let mut p = FixedPool::new(32);
        assert_eq!(p.initial().capacity, 32);
        let d = p.plan(&obs(100, 500, 1000));
        assert_eq!(d.capacity, 32);
        assert_eq!(d.warm_target, 32);
        assert_eq!(p.name(), "fixed:32");
    }

    #[test]
    fn concurrency_target_tracks_demand_up_and_down() {
        let mut p = ConcurrencyTarget::new(1.2, 1, 10_000);
        let mut cap = 0;
        for _ in 0..50 {
            cap = p.plan(&obs(40, 10, 100)).capacity;
        }
        // Converges to ceil(50 * 1.2) = 60.
        assert_eq!(cap, 60, "steady demand 50 with 1.2 headroom");
        for _ in 0..50 {
            cap = p.plan(&obs(2, 0, 4)).capacity;
        }
        assert!(cap <= 3, "scaled down after the trough: {cap}");
        for _ in 0..50 {
            p.plan(&obs(0, 0, 0));
        }
        let idle = p.plan(&obs(0, 0, 0));
        assert_eq!(idle.warm_target, 0, "scales provisioning to zero");
        assert!(idle.capacity >= 1, "admission floor stays open");
    }

    #[test]
    fn concurrency_target_respects_clamp() {
        let mut p = ConcurrencyTarget::new(1.2, 4, 16);
        assert!(p.plan(&obs(0, 0, 0)).capacity >= 4);
        for _ in 0..50 {
            assert!(p.plan(&obs(1000, 1000, 1000)).capacity <= 16);
        }
    }

    #[test]
    fn prewarm_ahead_predicts_via_littles_law() {
        let mut p = PrewarmAhead::new(1.3);
        let mut warm = 0;
        for _ in 0..50 {
            // 200 arrivals per 2 s tick = 100 rps; L = 100 × 0.25 = 25.
            warm = p.plan(&obs(0, 0, 200)).warm_target;
        }
        assert_eq!(warm, 33, "ceil(25 × 1.3)");
        assert!(p.plan(&obs(0, 0, 200)).capacity > 1_000_000, "uncapped");
    }

    #[test]
    fn policies_parse_by_name() {
        assert_eq!(autoscaler_by_name("fixed:8").unwrap().name(), "fixed:8");
        assert_eq!(autoscaler_by_name("target").unwrap().name(), "target");
        assert_eq!(autoscaler_by_name("prewarm").unwrap().name(), "prewarm");
        assert!(autoscaler_by_name("fixed:0").is_none());
        assert!(autoscaler_by_name("fixed:100000").is_some());
        let huge = parse_autoscaler("fixed:100000000").err().unwrap();
        assert!(huge.contains("must be in [1, 100000]"), "{huge}");
        assert!(autoscaler_by_name("nope").is_none());
    }

    #[test]
    fn qlearn_parses_with_and_without_hyperparameters() {
        assert_eq!(parse_autoscaler("qlearn").unwrap().name(), "qlearn");
        assert_eq!(
            parse_autoscaler("qlearn:50:0.3:0.2").unwrap().name(),
            "qlearn"
        );
    }

    #[test]
    fn qlearn_rejects_invalid_hyperparameters_with_typed_messages() {
        let err = |s: &str| parse_autoscaler(s).unwrap_err();
        assert!(err("qlearn:0:0.2:0.1").contains("train-episodes"));
        assert!(err("qlearn:abc:0.2:0.1").contains("train-episodes"));
        assert!(err("qlearn:50:1.5:0.1").contains("epsilon"));
        assert!(err("qlearn:50:-0.1:0.1").contains("epsilon"));
        assert!(err("qlearn:50:0.2:0.0").contains("alpha"));
        assert!(err("qlearn:50:0.2:2.0").contains("alpha"));
        assert!(err("qlearn:50:0.2").contains("malformed qlearn spec"));
        let unknown = err("psychic");
        assert!(
            unknown.contains("fixed:<n>|target|prewarm"),
            "unknown-name error must keep listing the classic spellings: {unknown}"
        );
        assert!(unknown.contains("qlearn"), "and the new one: {unknown}");
    }
}
