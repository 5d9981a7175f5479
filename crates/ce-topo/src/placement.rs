//! Pluggable placement policies over a [`crate::Topology`].
//!
//! A policy sees one [`PoolView`] per pool — live load, capacity and
//! the pool's static classes — plus a [`PlacementRequest`] describing
//! the unit being placed (its expected compute seconds, bytes that
//! would cross the network, and cold-start class), and returns a pool
//! index.
//!
//! # Determinism
//!
//! Policies receive a dedicated `SimRng` forked from the host
//! simulator's root stream by the label `"topo"`, so a stochastic
//! policy can draw without perturbing any other stream. All three
//! built-ins draw **nothing** (the zero-draw contract the single-pool
//! byte-identity argument relies on), and every score comparison
//! breaks ties toward the lowest pool index.
//!
//! The `workload-aware` planner follows the spark-sched
//! `WorkloadAwareFairPlanner` idiom (SNIPPETS.md snippets 2–3): a
//! pool's attractiveness is a weighted dominant-share over the two
//! resources that matter here — compute occupancy and network share —
//! with the canonical 0.3/0.7 compute/storage weighting.

use ce_sim_core::SimRng;

/// What a placement policy sees of one pool at decision time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolView {
    /// Client RTT to the pool (milliseconds).
    pub rtt_ms: f64,
    /// $/GB-s multiplier.
    pub price_factor: f64,
    /// Service-time multiplier.
    pub compute_factor: f64,
    /// Cold-start multiplier.
    pub cold_factor: f64,
    /// Effective bandwidth from the request's data home to this pool
    /// in MB/s (`f64::INFINITY` when no bytes would cross a link).
    pub bandwidth_mbps: f64,
    /// Units currently executing in the pool.
    pub inflight: u32,
    /// Units parked in the pool's admission queue.
    pub queued: u32,
    /// Current concurrency capacity (autoscaler-driven, quota-clamped).
    pub capacity: u32,
    /// Idle warm instances available right now.
    pub warm_idle: u32,
    /// Hard concurrency ceiling (`None` = bottomless).
    pub quota: Option<u32>,
}

impl PoolView {
    /// Whether the pool can absorb one more unit without backlogging.
    pub fn has_headroom(&self) -> bool {
        self.inflight + self.queued < self.capacity.max(1)
    }
}

/// The unit being placed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementRequest {
    /// Expected busy time on a neutral pool (seconds).
    pub compute_s: f64,
    /// Bytes that must cross the network if placed off-home (MB).
    pub transfer_mb: f64,
    /// Cold-start latency class on a neutral pool (milliseconds).
    pub cold_ms: f64,
}

/// Weight of the compute dominant-share in the workload-aware score
/// (the spark-sched `COMPUTE_WORKLOAD_WEIGHT` idiom).
pub const COMPUTE_WORKLOAD_WEIGHT: f64 = 0.3;
/// Weight of the network/storage dominant-share in the workload-aware
/// score (the spark-sched `STORAGE_WORKLOAD_WEIGHT` idiom).
pub const STORAGE_WORKLOAD_WEIGHT: f64 = 0.7;

/// A placement policy: maps (pool states, request) to a pool index.
pub trait PlacementPolicy: std::fmt::Debug + Send {
    /// Stable registry name, e.g. `edge-first`.
    fn name(&self) -> &'static str;

    /// Picks the pool for one unit. `views` is never empty; the result
    /// is clamped by the caller. `rng` is the forked `"topo"` stream;
    /// the built-ins never touch it.
    fn place(&mut self, views: &[PoolView], req: &PlacementRequest, rng: &mut SimRng) -> usize;
}

/// Lowest index with the strictly smallest score (NaN scores never win).
fn argmin(views: &[PoolView], score: impl Fn(&PoolView) -> f64) -> usize {
    let mut best = 0;
    let mut best_score = f64::INFINITY;
    for (i, v) in views.iter().enumerate() {
        let s = score(v);
        if s < best_score {
            best_score = s;
            best = i;
        }
    }
    best
}

/// Prefer the closest pool that still has headroom; overflow to the
/// deepest pool (bottomless quota beats any finite one) when every
/// pool is backlogged.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeFirst;

impl PlacementPolicy for EdgeFirst {
    fn name(&self) -> &'static str {
        "edge-first"
    }

    fn place(&mut self, views: &[PoolView], _req: &PlacementRequest, _rng: &mut SimRng) -> usize {
        if views.iter().any(PoolView::has_headroom) {
            return argmin(views, |v| {
                if v.has_headroom() {
                    v.rtt_ms
                } else {
                    f64::INFINITY
                }
            });
        }
        // Everyone is backlogged: overflow toward depth.
        argmin(views, |v| -v.quota.map_or(f64::INFINITY, f64::from))
    }
}

/// Minimize the expected end-to-end latency of this one request: RTT
/// plus estimated queue wait plus (cold start if no warm instance is
/// idle) plus the pool-scaled service time.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyGreedy;

impl PlacementPolicy for LatencyGreedy {
    fn name(&self) -> &'static str {
        "latency-greedy"
    }

    fn place(&mut self, views: &[PoolView], req: &PlacementRequest, _rng: &mut SimRng) -> usize {
        argmin(views, |v| {
            let service_ms = req.compute_s * v.compute_factor * 1e3;
            let wait_ms = if v.inflight < v.capacity.max(1) {
                0.0
            } else {
                f64::from(v.queued + 1) / f64::from(v.capacity.max(1)) * service_ms
            };
            let cold_ms = if v.warm_idle == 0 {
                req.cold_ms * v.cold_factor
            } else {
                0.0
            };
            v.rtt_ms + wait_ms + cold_ms + service_ms
        })
    }
}

/// Weighted dominant-share planner in the spark-sched idiom: score
/// each pool on `0.3 × compute share + 0.7 × network share` and take
/// the minimum. Compute share is the pool's occupancy after admitting
/// this unit, scaled by its compute class; network share is the time
/// the request would spend on the wire (RTT plus transfer) relative
/// to its own compute demand.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadAware;

impl PlacementPolicy for WorkloadAware {
    fn name(&self) -> &'static str {
        "workload-aware"
    }

    fn place(&mut self, views: &[PoolView], req: &PlacementRequest, _rng: &mut SimRng) -> usize {
        argmin(views, |v| {
            let compute_share = v.compute_factor * f64::from(v.inflight + v.queued + 1)
                / f64::from(v.capacity.max(1));
            let wire_s = v.rtt_ms / 1e3 + req.transfer_mb / v.bandwidth_mbps;
            let network_share = wire_s / req.compute_s.max(1e-9);
            COMPUTE_WORKLOAD_WEIGHT * compute_share + STORAGE_WORKLOAD_WEIGHT * network_share
        })
    }
}

/// The spellings [`parse_placement`] accepts, in presentation order.
pub fn placement_names() -> &'static [&'static str] {
    &["edge-first", "latency-greedy", "workload-aware"]
}

/// Parses a placement-policy name.
///
/// # Errors
/// The canonical unknown-name message listing the valid spellings.
pub fn parse_placement(name: &str) -> Result<Box<dyn PlacementPolicy>, String> {
    match name {
        "edge-first" => Ok(Box::new(EdgeFirst)),
        "latency-greedy" => Ok(Box::new(LatencyGreedy)),
        "workload-aware" => Ok(Box::new(WorkloadAware)),
        _ => Err(ce_sim_core::unknown_name_msg(
            "placement policy",
            name,
            placement_names(),
        )),
    }
}

/// [`parse_placement`] with the error dropped, for registry lookups.
pub fn placement_by_name(name: &str) -> Option<Box<dyn PlacementPolicy>> {
    parse_placement(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(rtt_ms: f64, inflight: u32, capacity: u32) -> PoolView {
        PoolView {
            rtt_ms,
            price_factor: 1.0,
            compute_factor: 1.0,
            cold_factor: 1.0,
            bandwidth_mbps: f64::INFINITY,
            inflight,
            queued: 0,
            capacity,
            warm_idle: 0,
            quota: None,
        }
    }

    fn req() -> PlacementRequest {
        PlacementRequest {
            compute_s: 0.25,
            transfer_mb: 0.0,
            cold_ms: 1800.0,
        }
    }

    fn rng() -> SimRng {
        SimRng::new(1).derive("topo")
    }

    #[test]
    fn edge_first_prefers_low_rtt_until_full_then_overflows_to_depth() {
        let mut p = EdgeFirst;
        let edge = |inflight| {
            let mut v = view(5.0, inflight, 4);
            v.quota = Some(4);
            v
        };
        let cloud = view(40.0, 0, 100);
        assert_eq!(p.place(&[edge(0), cloud], &req(), &mut rng()), 0);
        assert_eq!(p.place(&[edge(4), cloud], &req(), &mut rng()), 1);
        // Every pool backlogged: the bottomless one absorbs overflow.
        let full_cloud = view(40.0, 100, 100);
        assert_eq!(p.place(&[edge(4), full_cloud], &req(), &mut rng()), 1);
    }

    #[test]
    fn latency_greedy_trades_rtt_against_queueing_and_cold_starts() {
        let mut p = LatencyGreedy;
        // Close but saturated with a deep backlog loses to far-but-idle.
        let mut near_full = view(5.0, 8, 8);
        near_full.queued = 50;
        let far_idle = view(40.0, 0, 8);
        assert_eq!(p.place(&[near_full, far_idle], &req(), &mut rng()), 1);
        // Warm instance beats an equally-near cold pool.
        let cold = view(5.0, 0, 8);
        let mut warm = view(5.0, 0, 8);
        warm.warm_idle = 2;
        assert_eq!(p.place(&[cold, warm], &req(), &mut rng()), 1);
    }

    #[test]
    fn workload_aware_balances_occupancy_against_the_wire() {
        let mut p = WorkloadAware;
        // Idle edge wins: tiny RTT share, low occupancy.
        let mut edge = view(5.0, 0, 4);
        edge.price_factor = 0.6;
        let cloud = view(40.0, 0, 100);
        assert_eq!(p.place(&[edge, cloud], &req(), &mut rng()), 0);
        // As the edge fills, its compute share crosses the cloud's
        // RTT share and traffic spills over.
        edge.inflight = 4;
        edge.queued = 4;
        assert_eq!(p.place(&[edge, cloud], &req(), &mut rng()), 1);
    }

    #[test]
    fn workload_aware_respects_the_snippet_weighting() {
        assert_eq!(COMPUTE_WORKLOAD_WEIGHT, 0.3);
        assert_eq!(STORAGE_WORKLOAD_WEIGHT, 0.7);
        assert_eq!(COMPUTE_WORKLOAD_WEIGHT + STORAGE_WORKLOAD_WEIGHT, 1.0);
    }

    #[test]
    fn ties_break_toward_the_lowest_index() {
        let mut lat = LatencyGreedy;
        let v = view(10.0, 0, 8);
        assert_eq!(lat.place(&[v, v, v], &req(), &mut rng()), 0);
    }

    #[test]
    fn registry_names_round_trip_and_reject_unknowns() {
        for name in placement_names() {
            assert_eq!(placement_by_name(name).unwrap().name(), *name);
        }
        let err = parse_placement("psychic").unwrap_err();
        assert!(
            err.contains("unknown placement policy: psychic")
                && err.contains("edge-first|latency-greedy|workload-aware"),
            "{err}"
        );
    }

    #[test]
    fn builtin_policies_never_draw_from_the_topo_stream() {
        let mut r = rng();
        let before = r.clone().uniform();
        let views = [view(5.0, 2, 4), view(40.0, 0, 100)];
        for name in placement_names() {
            let mut p = placement_by_name(name).unwrap();
            p.place(&views, &req(), &mut r);
        }
        assert_eq!(
            r.uniform().to_bits(),
            before.to_bits(),
            "zero-draw contract: placing must not advance the stream"
        );
    }
}
