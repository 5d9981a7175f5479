//! The substrate model: named node pools joined by a modeled network.
//!
//! A [`Topology`] is a set of [`NodePool`]s — each a serverless region
//! with its own capacity ceiling, round-trip time to the clients,
//! price multiplier, compute-speed class, and cold-start class — plus
//! the [`NetworkLink`]s between them. Links carry checkpoint/model
//! transfers: moving bytes across a link costs real simulated time
//! (the ce-storage transfer model: size over bandwidth plus latency)
//! and real egress dollars.
//!
//! The default [`Topology::single`] is one neutral pool: every factor
//! is exactly `1.0` and the RTT is exactly `0.0`, so a simulator
//! threading those through its arithmetic produces bit-identical
//! results to one that never heard of topologies (`x * 1.0 == x` and
//! `x + 0.0 == x` for the finite non-negative values involved).

use ce_sim_core::SpecError;

/// One serverless region (an "edge site" or "cloud region").
#[derive(Debug, Clone, PartialEq)]
pub struct NodePool {
    /// Display name, unique within the topology.
    pub name: String,
    /// Concurrency ceiling of the pool (`None` = effectively bottomless
    /// cloud capacity). Autoscaler capacity and pre-warm targets are
    /// clamped to it.
    pub quota: Option<u32>,
    /// Client round-trip time to this pool in milliseconds; added to
    /// every observed request latency served from it.
    pub rtt_ms: f64,
    /// Multiplier on every $/GB-s rate billed in this pool.
    pub price_factor: f64,
    /// Multiplier on service time (edge silicon is often slower).
    pub compute_factor: f64,
    /// Multiplier on cold-start latency (small images start faster).
    pub cold_factor: f64,
}

impl NodePool {
    /// A neutral pool: no quota, zero RTT, every factor exactly 1.0.
    pub fn neutral(name: &str) -> Self {
        NodePool {
            name: name.to_string(),
            quota: None,
            rtt_ms: 0.0,
            price_factor: 1.0,
            compute_factor: 1.0,
            cold_factor: 1.0,
        }
    }
}

/// A bidirectional network link between two pools.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLink {
    /// One endpoint (a pool name).
    pub a: String,
    /// The other endpoint.
    pub b: String,
    /// One-way transfer latency in milliseconds.
    pub rtt_ms: f64,
    /// Link bandwidth in MB/s (the ce-storage convention).
    pub bandwidth_mbps: f64,
    /// Egress price in $/GB for bytes crossing the link.
    pub egress_usd_per_gb: f64,
}

/// Link parameters assumed when two pools have no explicit link: a
/// conservative WAN hop.
pub const DEFAULT_LINK_RTT_MS: f64 = 40.0;
/// Default inter-pool bandwidth in MB/s.
pub const DEFAULT_LINK_BW_MBPS: f64 = 100.0;
/// Default egress price in $/GB (AWS internet egress class).
pub const DEFAULT_LINK_EGRESS_USD_PER_GB: f64 = 0.09;
/// The most pools a topology may hold: the serving simulators tag each
/// request with its pool in one byte.
pub const MAX_POOLS: usize = 256;

/// A named substrate: pools plus the links between them.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Display name (`single`, `edge-cloud`, or `custom`).
    pub name: String,
    /// The pools, in placement-index order.
    pub pools: Vec<NodePool>,
    /// Explicit links; absent pairs fall back to the default WAN hop.
    pub links: Vec<NetworkLink>,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::single()
    }
}

impl Topology {
    /// Checks a run's substrate: 1..=[`MAX_POOLS`] pools, no pool quota
    /// of 0 (as [`parse_topology`] rules), and a known placement-policy
    /// name (see [`crate::parse_placement`]).
    pub fn validate(&self, placement: &str) -> Result<(), SpecError> {
        self.check_pools().map_err(SpecError::Invalid)?;
        let least_quota = self.pools.iter().filter_map(|p| p.quota).min();
        SpecError::nonzero(&[(least_quota.map_or(1, u64::from), "pool quota", "worker")])?;
        crate::parse_placement(placement)
            .map(drop)
            .map_err(SpecError::Invalid)
    }

    /// The one check of the pool count against 1..=[`MAX_POOLS`].
    fn check_pools(&self) -> Result<(), String> {
        match self.pools.len() {
            0 => Err("a topology needs at least one pool".to_string()),
            n if n > MAX_POOLS => Err(format!(
                "too many pools: {n} (a topology holds at most {MAX_POOLS})"
            )),
            _ => Ok(()),
        }
    }

    /// The default substrate: one neutral pool, no network. Runs over
    /// it are byte-identical to runs that never model a topology.
    pub fn single() -> Self {
        Topology {
            name: "single".to_string(),
            pools: vec![NodePool::neutral("default")],
            links: Vec::new(),
        }
    }

    /// The canonical two-pool preset: a shallow, cheap, fast-starting
    /// edge site close to the clients, and a bottomless cloud region a
    /// WAN hop away.
    pub fn edge_cloud() -> Self {
        Topology {
            name: "edge-cloud".to_string(),
            pools: vec![
                NodePool {
                    name: "edge".to_string(),
                    quota: Some(8),
                    rtt_ms: 5.0,
                    price_factor: 0.6,
                    compute_factor: 1.0,
                    cold_factor: 0.5,
                },
                NodePool {
                    name: "cloud".to_string(),
                    quota: None,
                    rtt_ms: 40.0,
                    price_factor: 1.0,
                    compute_factor: 1.0,
                    cold_factor: 1.0,
                },
            ],
            links: vec![NetworkLink {
                a: "edge".to_string(),
                b: "cloud".to_string(),
                rtt_ms: DEFAULT_LINK_RTT_MS,
                bandwidth_mbps: DEFAULT_LINK_BW_MBPS,
                egress_usd_per_gb: DEFAULT_LINK_EGRESS_USD_PER_GB,
            }],
        }
    }

    /// Index of the pool named `name`.
    pub fn pool_index(&self, name: &str) -> Option<usize> {
        self.pools.iter().position(|p| p.name == name)
    }

    /// The explicit link between two pool indices, if one was declared.
    pub fn link_between(&self, from: usize, to: usize) -> Option<&NetworkLink> {
        let (an, bn) = (&self.pools[from].name, &self.pools[to].name);
        self.links
            .iter()
            .find(|l| (&l.a == an && &l.b == bn) || (&l.a == bn && &l.b == an))
    }

    /// Effective bandwidth in MB/s between two pool indices: infinite
    /// within a pool, the declared link's otherwise, the WAN default
    /// when no link was declared.
    pub fn bandwidth_mbps(&self, from: usize, to: usize) -> f64 {
        if from == to {
            return f64::INFINITY;
        }
        self.link_between(from, to)
            .map_or(DEFAULT_LINK_BW_MBPS, |l| l.bandwidth_mbps)
    }

    /// Cost of moving `size_mb` from pool `from` to pool `to`:
    /// `(seconds, egress dollars)`. Intra-pool moves are free; the
    /// time model mirrors `ce_storage::StorageSpec::transfer_time`
    /// (size over bandwidth plus link latency).
    pub fn transfer(&self, from: usize, to: usize, size_mb: f64) -> (f64, f64) {
        if from == to {
            return (0.0, 0.0);
        }
        let (rtt_ms, bw, egress) = self.link_between(from, to).map_or(
            (
                DEFAULT_LINK_RTT_MS,
                DEFAULT_LINK_BW_MBPS,
                DEFAULT_LINK_EGRESS_USD_PER_GB,
            ),
            |l| (l.rtt_ms, l.bandwidth_mbps, l.egress_usd_per_gb),
        );
        let secs = size_mb / bw + rtt_ms / 1e3;
        let dollars = size_mb / 1024.0 * egress;
        (secs, dollars)
    }
}

/// The spellings [`parse_topology`] accepts, in presentation order.
/// (Custom `pool:…;link:…` grammars are accepted too; these are the
/// named presets listed in CLI diagnostics.)
pub fn topology_names() -> &'static [&'static str] {
    &[
        "single",
        "edge-cloud",
        "pool:<name>,<k>=<v>,..;link:<a>-<b>,..",
    ]
}

fn parse_f64(kind: &str, key: &str, value: &str) -> Result<f64, String> {
    let v: f64 = value
        .parse()
        .map_err(|_| format!("invalid {kind} {key} {value:?}: expected a number"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!(
            "invalid {kind} {key} {value:?}: must be finite and >= 0"
        ));
    }
    Ok(v)
}

fn parse_pool(body: &str) -> Result<NodePool, String> {
    let mut parts = body.split(',');
    let name = parts.next().unwrap_or("").trim();
    if name.is_empty() {
        return Err("pool entry needs a name: pool:<name>[,k=v..]".to_string());
    }
    let mut pool = NodePool::neutral(name);
    for kv in parts {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("malformed pool attribute {kv:?}: expected k=v"))?;
        match k.trim() {
            "quota" => {
                let q: u32 =
                    v.parse().ok().filter(|&q| q >= 1).ok_or_else(|| {
                        format!("invalid pool quota {v:?}: must be an integer >= 1")
                    })?;
                pool.quota = Some(q);
            }
            "rtt" => pool.rtt_ms = parse_f64("pool", "rtt", v)?,
            "price" => pool.price_factor = parse_f64("pool", "price", v)?,
            "compute" => pool.compute_factor = parse_f64("pool", "compute", v)?,
            "cold" => pool.cold_factor = parse_f64("pool", "cold", v)?,
            other => {
                return Err(format!(
                    "unknown pool attribute {other:?} (quota|rtt|price|compute|cold)"
                ))
            }
        }
    }
    if pool.price_factor <= 0.0 || pool.compute_factor <= 0.0 || pool.cold_factor <= 0.0 {
        return Err(format!("pool {name:?}: factors must be > 0"));
    }
    Ok(pool)
}

fn parse_link(body: &str) -> Result<NetworkLink, String> {
    let mut parts = body.split(',');
    let ends = parts.next().unwrap_or("").trim();
    let (a, b) = ends
        .split_once('-')
        .ok_or_else(|| format!("malformed link endpoints {ends:?}: expected <a>-<b>"))?;
    if a.is_empty() || b.is_empty() || a == b {
        return Err(format!(
            "malformed link endpoints {ends:?}: need two distinct pools"
        ));
    }
    let mut link = NetworkLink {
        a: a.to_string(),
        b: b.to_string(),
        rtt_ms: DEFAULT_LINK_RTT_MS,
        bandwidth_mbps: DEFAULT_LINK_BW_MBPS,
        egress_usd_per_gb: DEFAULT_LINK_EGRESS_USD_PER_GB,
    };
    for kv in parts {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("malformed link attribute {kv:?}: expected k=v"))?;
        match k.trim() {
            "rtt" => link.rtt_ms = parse_f64("link", "rtt", v)?,
            "bw" => {
                link.bandwidth_mbps = parse_f64("link", "bw", v)?;
                if link.bandwidth_mbps <= 0.0 {
                    return Err(format!("invalid link bw {v:?}: must be > 0"));
                }
            }
            "egress" => link.egress_usd_per_gb = parse_f64("link", "egress", v)?,
            other => return Err(format!("unknown link attribute {other:?} (rtt|bw|egress)")),
        }
    }
    Ok(link)
}

/// Parses a topology spec: a preset name (`single`, `edge-cloud`) or a
/// semicolon-joined custom grammar of `pool:` and `link:` entries, e.g.
/// `pool:edge,quota=4,rtt=5,price=0.6;pool:cloud,rtt=40;link:edge-cloud,bw=200`.
///
/// # Errors
/// A human-readable message naming the offending entry or attribute.
pub fn parse_topology(spec: &str) -> Result<Topology, String> {
    match spec {
        "single" => return Ok(Topology::single()),
        "edge-cloud" => return Ok(Topology::edge_cloud()),
        _ => {}
    }
    let mut topo = Topology {
        name: "custom".to_string(),
        pools: Vec::new(),
        links: Vec::new(),
    };
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        if let Some(body) = entry.strip_prefix("pool:") {
            let pool = parse_pool(body)?;
            if topo.pools.iter().any(|p| p.name == pool.name) {
                return Err(format!("duplicate pool name {:?}", pool.name));
            }
            topo.pools.push(pool);
        } else if let Some(body) = entry.strip_prefix("link:") {
            topo.links.push(parse_link(body)?);
        } else {
            return Err(ce_sim_core::unknown_name_msg(
                "topology",
                spec,
                topology_names(),
            ));
        }
    }
    topo.check_pools()?;
    for link in &topo.links {
        for end in [&link.a, &link.b] {
            if topo.pool_index(end).is_none() {
                return Err(format!("link references unknown pool {end:?}"));
            }
        }
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_topology_is_perfectly_neutral() {
        let t = Topology::single();
        assert_eq!(t.pools.len(), 1);
        let p = &t.pools[0];
        assert_eq!(p.rtt_ms.to_bits(), 0.0_f64.to_bits());
        assert_eq!(p.price_factor, 1.0);
        assert_eq!(p.compute_factor, 1.0);
        assert_eq!(p.cold_factor, 1.0);
        assert_eq!(p.quota, None);
        // The neutrality identities the byte-identity contract rests on.
        let x = 123.456789e-3;
        assert_eq!((x * p.price_factor).to_bits(), x.to_bits());
        assert_eq!((x + p.rtt_ms).to_bits(), x.to_bits());
    }

    #[test]
    fn edge_cloud_preset_shapes_the_tradeoff() {
        let t = Topology::edge_cloud();
        assert_eq!(t.pools.len(), 2);
        let edge = &t.pools[t.pool_index("edge").unwrap()];
        let cloud = &t.pools[t.pool_index("cloud").unwrap()];
        assert!(edge.rtt_ms < cloud.rtt_ms, "edge is closer");
        assert!(edge.price_factor < cloud.price_factor, "edge is cheaper");
        assert!(
            edge.quota.is_some() && cloud.quota.is_none(),
            "edge is shallow"
        );
        assert!(edge.cold_factor < cloud.cold_factor, "edge starts faster");
    }

    #[test]
    fn transfer_bills_time_and_egress_across_links_only() {
        let t = Topology::edge_cloud();
        assert_eq!(t.transfer(0, 0, 500.0), (0.0, 0.0), "intra-pool is free");
        let (secs, usd) = t.transfer(0, 1, 500.0);
        // 500 MB at 100 MB/s + 40 ms latency; 500/1024 GB at $0.09/GB.
        assert!((secs - (5.0 + 0.04)).abs() < 1e-12, "secs {secs}");
        assert!((usd - 500.0 / 1024.0 * 0.09).abs() < 1e-12, "usd {usd}");
        let (rev_secs, rev_usd) = t.transfer(1, 0, 500.0);
        assert_eq!((secs, usd), (rev_secs, rev_usd), "links are symmetric");
    }

    #[test]
    fn missing_links_fall_back_to_the_wan_default() {
        let t = parse_topology("pool:a;pool:b").unwrap();
        let (secs, usd) = t.transfer(0, 1, 100.0);
        assert!(secs > 0.0 && usd > 0.0, "default WAN hop is not free");
        assert_eq!(t.bandwidth_mbps(0, 1), DEFAULT_LINK_BW_MBPS);
        assert_eq!(t.bandwidth_mbps(0, 0), f64::INFINITY);
    }

    #[test]
    fn custom_grammar_round_trips_attributes() {
        let t = parse_topology(
            "pool:edge,quota=4,rtt=2.5,price=0.5,compute=1.5,cold=0.25;\
             pool:cloud,rtt=80;link:edge-cloud,rtt=60,bw=250,egress=0.05",
        )
        .unwrap();
        assert_eq!(t.name, "custom");
        assert_eq!(t.pools[0].quota, Some(4));
        assert_eq!(t.pools[0].rtt_ms, 2.5);
        assert_eq!(t.pools[1].rtt_ms, 80.0);
        let l = t.link_between(0, 1).unwrap();
        assert_eq!(
            (l.rtt_ms, l.bandwidth_mbps, l.egress_usd_per_gb),
            (60.0, 250.0, 0.05)
        );
    }

    #[test]
    fn parser_rejects_malformed_specs_with_targeted_messages() {
        let err = |s: &str| parse_topology(s).unwrap_err();
        assert!(err("nope").contains("unknown topology"));
        assert!(err("pool:a;pool:a").contains("duplicate pool"));
        assert!(err("pool:a,quota=0").contains("quota"));
        let mut zero = Topology::edge_cloud();
        zero.pools[0].quota = Some(0);
        let refused = zero.validate("edge-first").unwrap_err().to_string();
        assert!(
            refused.contains("pool quota: must be at least 1 worker"),
            "{refused}"
        );
        assert!(Topology::edge_cloud().validate("nowhere").is_err());
        assert!(err("pool:a,price=-1").contains("price"));
        assert!(err("pool:a,wat=1").contains("unknown pool attribute"));
        assert!(err("pool:a;link:a-a").contains("distinct"));
        assert!(err("pool:a;link:a-ghost").contains("unknown pool"));
        assert!(err("link:a-b").contains("at least one pool"));
        assert!(err(";").contains("at least one pool"));
    }

    #[test]
    fn parser_caps_the_pool_count() {
        let spec = |n: usize| {
            (0..n)
                .map(|i| format!("pool:p{i}"))
                .collect::<Vec<_>>()
                .join(";")
        };
        assert_eq!(
            parse_topology(&spec(MAX_POOLS)).unwrap().pools.len(),
            MAX_POOLS
        );
        let err = parse_topology(&spec(MAX_POOLS + 1)).unwrap_err();
        assert!(err.contains("too many pools: 257"), "{err}");
        assert!(err.contains("at most 256"), "{err}");
    }
}
