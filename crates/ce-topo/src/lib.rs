//! # ce-topo
//!
//! A heterogeneous edge–cloud substrate for the CE-scaling
//! reproduction. One homogeneous serverless region becomes a set of
//! named [`NodePool`]s — an edge site with few cores, low RTT, cheap
//! GB-seconds and fast cold starts; a cloud region with bottomless
//! capacity a WAN hop away — joined by [`NetworkLink`]s whose
//! transfers cost real simulated seconds and real egress dollars.
//! Pluggable [`PlacementPolicy`] implementations decide where each
//! request or training wave runs.
//!
//! The default [`Topology::single`] is one neutral pool (all factors
//! 1.0, RTT 0.0), and the built-in policies draw nothing from their
//! RNG stream, so simulators threading a topology through their
//! arithmetic stay byte-identical to their pre-topology selves until
//! a second pool actually appears.
//!
//! ```
//! use ce_sim_core::SimRng;
//! use ce_topo::{parse_placement, parse_topology, PlacementRequest, PoolView};
//!
//! let topo = parse_topology("edge-cloud").unwrap();
//! assert_eq!(topo.pools.len(), 2);
//!
//! // 500 MB published from edge (pool 0) to cloud (pool 1): five
//! // seconds on the 100 MB/s link plus 40 ms latency, and real money.
//! let (secs, usd) = topo.transfer(0, 1, 500.0);
//! assert!(secs > 5.0 && usd > 0.0);
//!
//! // An idle edge pool attracts the workload-aware planner.
//! let mut policy = parse_placement("workload-aware").unwrap();
//! let views: Vec<PoolView> = (0..topo.pools.len())
//!     .map(|i| PoolView {
//!         rtt_ms: topo.pools[i].rtt_ms,
//!         price_factor: topo.pools[i].price_factor,
//!         compute_factor: topo.pools[i].compute_factor,
//!         cold_factor: topo.pools[i].cold_factor,
//!         bandwidth_mbps: f64::INFINITY,
//!         inflight: 0,
//!         queued: 0,
//!         capacity: 8,
//!         warm_idle: 0,
//!         quota: topo.pools[i].quota,
//!     })
//!     .collect();
//! let req = PlacementRequest { compute_s: 0.25, transfer_mb: 0.0, cold_ms: 1800.0 };
//! let mut rng = SimRng::new(42).derive("topo");
//! assert_eq!(policy.place(&views, &req, &mut rng), 0);
//! ```

pub mod placement;
pub mod topology;

pub use placement::{
    parse_placement, placement_by_name, placement_names, EdgeFirst, LatencyGreedy, PlacementPolicy,
    PlacementRequest, PoolView, WorkloadAware, COMPUTE_WORKLOAD_WEIGHT, STORAGE_WORKLOAD_WEIGHT,
};
pub use topology::{
    parse_topology, topology_names, NetworkLink, NodePool, Topology, DEFAULT_LINK_BW_MBPS,
    DEFAULT_LINK_EGRESS_USD_PER_GB, DEFAULT_LINK_RTT_MS, MAX_POOLS,
};
