//! Storage service descriptions (Table I).

use serde::Serialize;
use std::fmt;

/// Every name a spec may give a service, the canonical one first: the
/// one table behind [`StorageKind::token`] and [`StorageKind::from_token`].
const SERVICE_TOKENS: [(&str, StorageKind); 8] = [
    ("s3", StorageKind::S3),
    ("dynamodb", StorageKind::DynamoDb),
    ("dynamo", StorageKind::DynamoDb),
    ("elasticache", StorageKind::ElastiCache),
    ("cache", StorageKind::ElastiCache),
    ("redis", StorageKind::ElastiCache),
    ("vmps", StorageKind::VmPs),
    ("vm-ps", StorageKind::VmPs),
];

/// The four external storage services evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum StorageKind {
    /// Amazon S3: auto-scaling object store, high latency, cheapest.
    S3,
    /// Amazon DynamoDB: auto-scaling KV store, medium latency, 400 KB
    /// object-size limit, priced per capacity unit (per KB written).
    DynamoDb,
    /// Amazon ElastiCache (Redis): manually provisioned cache, low latency,
    /// priced per runtime.
    ElastiCache,
    /// A user-managed EC2 parameter server: low latency, priced per
    /// runtime, and — uniquely — able to aggregate gradients *locally*.
    VmPs,
}

impl StorageKind {
    /// All four services, in the paper's Table I order.
    pub const ALL: [StorageKind; 4] = [
        StorageKind::S3,
        StorageKind::DynamoDb,
        StorageKind::ElastiCache,
        StorageKind::VmPs,
    ];

    /// The service's canonical spec name: `s3`, `dynamodb`,
    /// `elasticache` or `vmps`.
    pub fn token(self) -> &'static str {
        let named = SERVICE_TOKENS.iter().find(|(_, k)| *k == self);
        named.expect("every service has a name").0
    }

    /// The service a spec names by `token`, its canonical name or an
    /// alias, matched exactly.
    pub fn from_token(token: &str) -> Option<StorageKind> {
        SERVICE_TOKENS
            .iter()
            .find(|(t, _)| *t == token)
            .map(|&(_, k)| k)
    }

    /// Single-letter label used by Fig. 18 ("D, S, E, and V").
    pub fn letter(self) -> char {
        match self {
            StorageKind::S3 => 'S',
            StorageKind::DynamoDb => 'D',
            StorageKind::ElastiCache => 'E',
            StorageKind::VmPs => 'V',
        }
    }
}

impl fmt::Display for StorageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StorageKind::S3 => "S3",
            StorageKind::DynamoDb => "DynamoDB",
            StorageKind::ElastiCache => "ElastiCache",
            StorageKind::VmPs => "VM-PS",
        };
        f.write_str(name)
    }
}

/// Whether capacity scales automatically with load (Table I column 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingMode {
    /// The provider scales transparently (S3, DynamoDB).
    Auto,
    /// The user provisions fixed capacity (ElastiCache, VM-PS).
    Manual,
}

/// How a service charges (Table I column 3; Eq. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PricingModel {
    /// Charged per data request (S3, DynamoDB).
    ///
    /// `per_put` / `per_get` are dollars per request for objects up to
    /// `unit_kb` kilobytes; larger objects consume `ceil(size/unit_kb)`
    /// units (this models DynamoDB's per-KB write units; S3 uses a single
    /// flat unit with a very large `unit_kb`).
    PerRequest {
        per_put: f64,
        per_get: f64,
        unit_kb: f64,
    },
    /// Charged per provisioned runtime (ElastiCache, VM-PS), in dollars per
    /// hour. Eq. 5 bills `(t/60 + 1)` minutes for an epoch of `t` seconds.
    PerRuntime { dollars_per_hour: f64 },
}

impl PricingModel {
    /// Dollars for one PUT of `size_mb` megabytes (0 for runtime pricing).
    pub fn put_cost(&self, size_mb: f64) -> f64 {
        match *self {
            PricingModel::PerRequest {
                per_put, unit_kb, ..
            } => per_put * (size_mb * 1024.0 / unit_kb).max(1.0).ceil(),
            PricingModel::PerRuntime { .. } => 0.0,
        }
    }

    /// Dollars for one GET of `size_mb` megabytes (0 for runtime pricing).
    pub fn get_cost(&self, size_mb: f64) -> f64 {
        match *self {
            PricingModel::PerRequest {
                per_get, unit_kb, ..
            } => per_get * (size_mb * 1024.0 / unit_kb).max(1.0).ceil(),
            PricingModel::PerRuntime { .. } => 0.0,
        }
    }

    /// Dollars for keeping the service attached for `secs` seconds.
    ///
    /// Per Eq. 5 runtime-charged services bill whole minutes, with one
    /// minute of minimum billing: `(t/60 + 1) · p_s`.
    pub fn runtime_cost(&self, secs: f64) -> f64 {
        match *self {
            PricingModel::PerRequest { .. } => 0.0,
            PricingModel::PerRuntime { dollars_per_hour } => {
                let per_minute = dollars_per_hour / 60.0;
                (secs / 60.0 + 1.0) * per_minute
            }
        }
    }

    /// True if this service charges per request.
    pub fn is_per_request(&self) -> bool {
        matches!(self, PricingModel::PerRequest { .. })
    }
}

/// A complete description of one external storage service.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSpec {
    /// Which service this is.
    pub kind: StorageKind,
    /// Table I scaling column.
    pub scaling: ScalingMode,
    /// Sustained per-connection bandwidth, MB/s (`b_s` in Eq. 3).
    pub bandwidth_mbps: f64,
    /// Per-request latency, seconds (`ℓ_s` in Eq. 3).
    pub latency_s: f64,
    /// Pricing model (`p_s` in Eq. 5).
    pub pricing: PricingModel,
    /// Maximum object size in MB, if the service has one (DynamoDB: 400 KB).
    pub max_object_mb: Option<f64>,
    /// Whether the service aggregates gradients locally (VM-PS; Fig. 5).
    /// Local aggregation yields the `(2n − 2)` transfer pattern of Eq. 3.
    pub aggregates_locally: bool,
    /// Total provisioned capacity in MB/s for manually-scaled services,
    /// shared across concurrent clients. `None` (the default catalog)
    /// models no contention — per-connection bandwidth holds at any
    /// concurrency, as for auto-scaling services. Set it to study
    /// saturation of a fixed-size ElastiCache node or parameter server.
    pub aggregate_capacity_mbps: Option<f64>,
}

impl StorageSpec {
    /// Whether a model of `model_mb` megabytes fits this service's object
    /// size limit (Table II marks DynamoDB "N/A" for MobileNet and larger).
    pub fn supports_model(&self, model_mb: f64) -> bool {
        self.max_object_mb.is_none_or(|cap| model_mb <= cap)
    }

    /// Time in seconds to move one object of `size_mb` megabytes once:
    /// `size/b_s + ℓ_s` (the bracketed term of Eq. 3).
    pub fn transfer_time(&self, size_mb: f64) -> f64 {
        debug_assert!(size_mb >= 0.0);
        size_mb / self.bandwidth_mbps + self.latency_s
    }

    /// Per-connection bandwidth when `concurrency` clients transfer at
    /// once: the nominal per-connection rate, capped by an equal share
    /// of the aggregate capacity if one is provisioned.
    pub fn effective_bandwidth(&self, concurrency: u32) -> f64 {
        let share = self
            .aggregate_capacity_mbps
            .map_or(f64::INFINITY, |cap| cap / f64::from(concurrency.max(1)));
        self.bandwidth_mbps.min(share)
    }

    /// Transfer time under concurrent load (see
    /// [`Self::effective_bandwidth`]).
    pub fn transfer_time_contended(&self, size_mb: f64, concurrency: u32) -> f64 {
        debug_assert!(size_mb >= 0.0);
        size_mb / self.effective_bandwidth(concurrency) + self.latency_s
    }

    /// Returns this spec with a provisioned aggregate capacity.
    pub fn with_aggregate_capacity(mut self, capacity_mbps: f64) -> Self {
        assert!(capacity_mbps > 0.0);
        self.aggregate_capacity_mbps = Some(capacity_mbps);
        self
    }

    /// Returns this spec under a brownout: per-request latency multiplied
    /// and bandwidth (plus any aggregate capacity) divided by `factor`.
    /// A factor of 1.0 returns the spec unchanged, so applying a
    /// zero-severity degradation window is exactly the healthy service.
    pub fn degraded(&self, factor: f64) -> Self {
        assert!(factor >= 1.0, "degradation factor must be >= 1");
        let mut spec = self.clone();
        spec.latency_s *= factor;
        spec.bandwidth_mbps /= factor;
        spec.aggregate_capacity_mbps = spec.aggregate_capacity_mbps.map(|c| c / factor);
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_request(per_put: f64, per_get: f64, unit_kb: f64) -> PricingModel {
        PricingModel::PerRequest {
            per_put,
            per_get,
            unit_kb,
        }
    }

    #[test]
    fn service_names_round_trip_and_match_exactly() {
        for kind in StorageKind::ALL {
            assert_eq!(StorageKind::from_token(kind.token()), Some(kind));
        }
        let tokens = StorageKind::ALL.map(StorageKind::token);
        assert_eq!(tokens, ["s3", "dynamodb", "elasticache", "vmps"]);
        assert_eq!(
            StorageKind::from_token("redis"),
            Some(StorageKind::ElastiCache)
        );
        assert_eq!(StorageKind::from_token("vm-ps"), Some(StorageKind::VmPs));
        assert_eq!(StorageKind::from_token("S3"), None);
        assert_eq!(StorageKind::from_token("floppy"), None);
    }

    #[test]
    fn flat_request_pricing_charges_one_unit() {
        let p = per_request(5e-6, 4e-7, 1e9);
        assert_eq!(p.put_cost(12.0), 5e-6);
        assert_eq!(p.get_cost(0.001), 4e-7);
    }

    #[test]
    fn per_kb_pricing_scales_with_size() {
        // DynamoDB-style: 1 KB write units.
        let p = per_request(1.25e-6, 2.5e-7, 1.0);
        // 0.1 MB = 102.4 KB -> 103 units.
        assert_eq!(p.put_cost(0.1), 1.25e-6 * 103.0);
        // Tiny object still pays one unit.
        assert_eq!(p.put_cost(0.0001), 1.25e-6);
    }

    #[test]
    fn runtime_pricing_bills_whole_minutes_plus_one() {
        let p = PricingModel::PerRuntime {
            dollars_per_hour: 0.60,
        };
        let per_minute = 0.01;
        // 120 s -> (2 + 1) minutes.
        assert!((p.runtime_cost(120.0) - 3.0 * per_minute).abs() < 1e-12);
        // Zero runtime still bills the 1-minute floor.
        assert!((p.runtime_cost(0.0) - per_minute).abs() < 1e-12);
        assert_eq!(p.put_cost(10.0), 0.0);
        assert_eq!(p.get_cost(10.0), 0.0);
    }

    #[test]
    fn request_pricing_has_no_runtime_component() {
        let p = per_request(5e-6, 4e-7, 1e9);
        assert_eq!(p.runtime_cost(3600.0), 0.0);
        assert!(p.is_per_request());
    }

    #[test]
    fn object_size_limit_enforced() {
        let spec = StorageSpec {
            kind: StorageKind::DynamoDb,
            scaling: ScalingMode::Auto,
            bandwidth_mbps: 100.0,
            latency_s: 0.01,
            pricing: per_request(1.25e-6, 2.5e-7, 1.0),
            max_object_mb: Some(0.4),
            aggregates_locally: false,
            aggregate_capacity_mbps: None,
        };
        assert!(spec.supports_model(0.39));
        assert!(!spec.supports_model(12.0)); // MobileNet is 12 MB -> N/A
    }

    #[test]
    fn transfer_time_is_bandwidth_plus_latency() {
        let spec = StorageSpec {
            kind: StorageKind::S3,
            scaling: ScalingMode::Auto,
            bandwidth_mbps: 100.0,
            latency_s: 0.05,
            pricing: per_request(5e-6, 4e-7, 1e9),
            max_object_mb: None,
            aggregates_locally: false,
            aggregate_capacity_mbps: None,
        };
        assert!((spec.transfer_time(10.0) - 0.15).abs() < 1e-12);
        assert!((spec.transfer_time(0.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn degraded_scales_latency_up_and_bandwidth_down() {
        let spec = StorageSpec {
            kind: StorageKind::ElastiCache,
            scaling: ScalingMode::Manual,
            bandwidth_mbps: 100.0,
            latency_s: 0.002,
            pricing: PricingModel::PerRuntime {
                dollars_per_hour: 0.1,
            },
            max_object_mb: None,
            aggregates_locally: false,
            aggregate_capacity_mbps: Some(1000.0),
        };
        let slow = spec.degraded(4.0);
        assert!((slow.latency_s - 0.008).abs() < 1e-12);
        assert!((slow.bandwidth_mbps - 25.0).abs() < 1e-12);
        assert_eq!(slow.aggregate_capacity_mbps, Some(250.0));
        // A factor of 1 is exactly the healthy service.
        assert_eq!(spec.degraded(1.0), spec);
        // Transfer time strictly worsens.
        assert!(slow.transfer_time(12.0) > spec.transfer_time(12.0));
    }

    #[test]
    fn display_and_letters() {
        assert_eq!(StorageKind::S3.to_string(), "S3");
        assert_eq!(StorageKind::VmPs.to_string(), "VM-PS");
        let letters: String = StorageKind::ALL.iter().map(|k| k.letter()).collect();
        assert_eq!(letters, "SDEV");
    }
}
