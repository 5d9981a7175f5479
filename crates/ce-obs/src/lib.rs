//! Deterministic observability for the CE-scaling reproduction.
//!
//! A [`Registry`] holds named [`Counter`]s, [`Gauge`]s, and [`Histogram`]s
//! plus a structured event sink. Two rules make the layer deterministic —
//! the property the paper's Fig. 21 overhead analysis and the repo's
//! reproducibility tests rely on:
//!
//! 1. **Sim-time only.** Events are stamped with simulation seconds passed
//!    in by the caller; the layer never reads a wall clock.
//! 2. **Stable export order.** Metrics export sorted by name (`BTreeMap`),
//!    events in append order. Same seed ⇒ byte-identical JSONL.
//!
//! Handles are cheap `Arc` clones, so instrumented components keep their
//! own handle and the registry can be snapshotted at any time. Every
//! library component writes to an injected registry, a private
//! [`Registry::new`] unless the caller passes one; only binaries (the
//! CLIs and the figure harness) pass [`global()`].
//!
//! # JSONL schema
//!
//! One JSON object per line:
//!
//! ```text
//! {"type":"counter","name":"faas.cold_starts","value":12}
//! {"type":"gauge","name":"storage.s3.dollars","value":0.0875}
//! {"type":"histogram","name":"faas.queue_wait_s","count":3,"sum":1.5,"min":0.1,"max":0.9,"mean":0.5}
//! {"type":"summary","name":"serve.latency_ms","count":3,"p50":210.1,"p95":287.3,"p99":287.3}
//! {"type":"event","at_s":12.5,"name":"stage_done","stage":1,...}
//! ```
//!
//! Counter lines come first (sorted by name), then gauges, then
//! histograms, then quantile summaries (only for histograms with
//! [`Histogram::enable_quantiles`] — plain histograms export exactly the
//! bytes they always did), then events.

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Geometric bucket growth factor for quantile-tracking histograms: each
/// bucket spans a 2 % relative range, so any extracted quantile is within
/// ±1 % of the exact order statistic.
pub const BUCKET_GAMMA: f64 = 1.02;

/// Log-bucket index of a positive value: `floor(ln(v) / ln(GAMMA))`.
/// Values `<= 0` have no log bucket and are tracked separately.
pub fn log_bucket_index(v: f64) -> i32 {
    debug_assert!(v > 0.0, "log bucket of non-positive value {v}");
    (v.ln() / BUCKET_GAMMA.ln()).floor() as i32
}

/// Representative value of log bucket `i` (the geometric bucket middle).
pub fn log_bucket_value(i: i32) -> f64 {
    ((f64::from(i) + 0.5) * BUCKET_GAMMA.ln()).exp()
}

/// A monotonically increasing `u64` metric.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable / accumulable `f64` metric (stored as bits in an atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Accumulates `delta` (used for running dollar/GB-s totals).
    pub fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Running distribution summary: count / sum / min / max, plus optional
/// log-bucket tallies for quantile extraction (see
/// [`Histogram::enable_quantiles`]).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<Mutex<HistogramState>>);

/// Geometric bucket tallies: bucket `i` counts observations in
/// `[GAMMA^i, GAMMA^(i+1))`; non-positive observations land in `zeros`.
#[derive(Debug, Default, Clone)]
struct BucketTable {
    zeros: u64,
    counts: BTreeMap<i32, u64>,
}

#[derive(Debug, Default, Clone)]
struct HistogramState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// `Some` once quantile tracking is enabled; plain histograms carry
    /// no buckets and export exactly the bytes they always did.
    buckets: Option<BucketTable>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let mut state = self.0.lock().expect("histogram lock");
        if state.count == 0 {
            state.min = value;
            state.max = value;
        } else {
            state.min = state.min.min(value);
            state.max = state.max.max(value);
        }
        state.count += 1;
        state.sum += value;
        if let Some(buckets) = state.buckets.as_mut() {
            if value > 0.0 {
                *buckets.counts.entry(log_bucket_index(value)).or_insert(0) += 1;
            } else {
                buckets.zeros += 1;
            }
        }
    }

    /// Turns on log-bucket quantile tracking (idempotent). Only
    /// observations recorded *after* this call are bucketed, so enable it
    /// right after creating the histogram. Quantile-enabled histograms
    /// additionally export a `summary` JSONL record.
    pub fn enable_quantiles(&self) {
        let mut state = self.0.lock().expect("histogram lock");
        if state.buckets.is_none() {
            state.buckets = Some(BucketTable::default());
        }
    }

    /// Whether [`Histogram::enable_quantiles`] was called.
    pub fn quantiles_enabled(&self) -> bool {
        self.0.lock().expect("histogram lock").buckets.is_some()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest-rank over the log
    /// buckets, accurate to the 2 % bucket width and clamped to the exact
    /// observed `[min, max]`. Returns `None` when empty or when quantile
    /// tracking is disabled.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let state = self.0.lock().expect("histogram lock");
        let buckets = state.buckets.as_ref()?;
        let total = buckets.zeros + buckets.counts.values().sum::<u64>();
        if total == 0 {
            return None;
        }
        // Nearest-rank: the smallest bucket whose cumulative count covers
        // rank = ceil(q * total), with rank at least 1.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        if rank == total {
            return Some(state.max);
        }
        if buckets.zeros >= rank {
            return Some(state.min.min(0.0));
        }
        let mut seen = buckets.zeros;
        for (&idx, &n) in buckets.counts.iter() {
            seen += n;
            if seen >= rank {
                return Some(log_bucket_value(idx).clamp(state.min, state.max));
            }
        }
        Some(state.max)
    }

    /// Folds every observation of `other` into this histogram:
    /// count/sum/min/max and bucket tables combine, and quantile
    /// tracking is enabled here if `other` had it. Folding into an empty
    /// histogram reproduces `other`'s state bit for bit.
    pub fn merge_from(&self, other: &Histogram) {
        let theirs = other.0.lock().expect("histogram lock").clone();
        let mut state = self.0.lock().expect("histogram lock");
        if theirs.count > 0 {
            if state.count == 0 {
                state.min = theirs.min;
                state.max = theirs.max;
            } else {
                state.min = state.min.min(theirs.min);
                state.max = state.max.max(theirs.max);
            }
            state.count += theirs.count;
            state.sum += theirs.sum;
        }
        if let Some(their_buckets) = theirs.buckets {
            let buckets = state.buckets.get_or_insert_with(BucketTable::default);
            buckets.zeros += their_buckets.zeros;
            for (idx, n) in their_buckets.counts {
                *buckets.counts.entry(idx).or_insert(0) += n;
            }
        }
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile (see [`Histogram::quantile`]).
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile (see [`Histogram::quantile`]).
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.lock().expect("histogram lock").count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.0.lock().expect("histogram lock").sum
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let state = self.0.lock().expect("histogram lock");
        if state.count == 0 {
            0.0
        } else {
            state.sum / state.count as f64
        }
    }
}

/// A structured event stamped with simulation time.
#[derive(Clone, Debug)]
pub struct Event {
    /// Simulation time in seconds (never wall clock).
    pub at_s: f64,
    /// Event name, e.g. `"epoch_end"`.
    pub name: String,
    /// Free-form payload fields.
    pub fields: Map,
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    events: Mutex<Vec<Event>>,
}

/// A named collection of metrics plus an event sink.
///
/// Cloning shares the underlying storage (a handle, not a copy).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field(
                "counters",
                &self.inner.counters.lock().expect("counters lock").len(),
            )
            .field(
                "gauges",
                &self.inner.gauges.lock().expect("gauges lock").len(),
            )
            .field(
                "histograms",
                &self.inner.histograms.lock().expect("histograms lock").len(),
            )
            .field(
                "events",
                &self.inner.events.lock().expect("events lock").len(),
            )
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock().expect("counters lock");
        counters.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.inner.gauges.lock().expect("gauges lock");
        gauges.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut histograms = self.inner.histograms.lock().expect("histograms lock");
        histograms.entry(name.to_string()).or_default().clone()
    }

    /// Current value of counter `name` (0 if it was never created).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .expect("counters lock")
            .get(name)
            .map(Counter::get)
            .unwrap_or(0)
    }

    /// Current value of gauge `name` (0.0 if it was never created).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.inner
            .gauges
            .lock()
            .expect("gauges lock")
            .get(name)
            .map(Gauge::get)
            .unwrap_or(0.0)
    }

    /// Records a structured event at simulation time `at_s`.
    pub fn event(&self, at_s: f64, name: &str, fields: &[(&str, Value)]) {
        let mut map = Map::new();
        for (k, v) in fields {
            map.insert((*k).to_string(), v.clone());
        }
        self.inner.events.lock().expect("events lock").push(Event {
            at_s,
            name: name.to_string(),
            fields: map,
        });
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        self.inner.events.lock().expect("events lock").len()
    }

    /// Resets every metric and drops all events. Metric handles held by
    /// instrumented components stay valid for counters/gauges/histograms
    /// that already exist (they are zeroed, not replaced).
    pub fn reset(&self) {
        for counter in self.inner.counters.lock().expect("counters lock").values() {
            counter.0.store(0, Ordering::Relaxed);
        }
        for gauge in self.inner.gauges.lock().expect("gauges lock").values() {
            gauge.0.store(0, Ordering::Relaxed);
        }
        for histogram in self
            .inner
            .histograms
            .lock()
            .expect("histograms lock")
            .values()
        {
            let mut state = histogram.0.lock().expect("histogram lock");
            let quantiles = state.buckets.is_some();
            *state = HistogramState::default();
            if quantiles {
                state.buckets = Some(BucketTable::default());
            }
        }
        self.inner.events.lock().expect("events lock").clear();
    }

    /// One JSON object per metric/event, in deterministic order: counters,
    /// gauges, histograms (each sorted by name), then events in append
    /// order. Ends with a trailing newline when non-empty.
    pub fn export_jsonl(&self) -> String {
        let mut lines = Vec::new();
        for (name, counter) in self.inner.counters.lock().expect("counters lock").iter() {
            lines.push(
                json!({"type": "counter", "name": name.as_str(), "value": counter.get()})
                    .to_string(),
            );
        }
        for (name, gauge) in self.inner.gauges.lock().expect("gauges lock").iter() {
            lines.push(
                json!({"type": "gauge", "name": name.as_str(), "value": gauge.get()}).to_string(),
            );
        }
        let histograms = self.inner.histograms.lock().expect("histograms lock");
        for (name, histogram) in histograms.iter() {
            let state = histogram.0.lock().expect("histogram lock").clone();
            lines.push(
                json!({
                    "type": "histogram",
                    "name": name.as_str(),
                    "count": state.count,
                    "sum": state.sum,
                    "min": state.min,
                    "max": state.max,
                    "mean": if state.count == 0 { 0.0 } else { state.sum / state.count as f64 },
                })
                .to_string(),
            );
        }
        // Quantile summaries in a second pass so plain histograms keep the
        // exact byte layout they had before quantiles existed.
        for (name, histogram) in histograms.iter() {
            if !histogram.quantiles_enabled() {
                continue;
            }
            lines.push(
                json!({
                    "type": "summary",
                    "name": name.as_str(),
                    "count": histogram.count(),
                    "p50": histogram.p50().unwrap_or(0.0),
                    "p95": histogram.p95().unwrap_or(0.0),
                    "p99": histogram.p99().unwrap_or(0.0),
                })
                .to_string(),
            );
        }
        drop(histograms);
        for event in self.inner.events.lock().expect("events lock").iter() {
            let mut map = Map::new();
            map.insert("type".to_string(), Value::String("event".to_string()));
            map.insert("at_s".to_string(), json!(event.at_s));
            map.insert("name".to_string(), Value::String(event.name.clone()));
            for (k, v) in event.fields.iter() {
                map.insert(k.clone(), v.clone());
            }
            lines.push(Value::Object(map).to_string());
        }
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Folds every metric and event from `other` into this registry.
    ///
    /// Built for deterministic fan-in: parallel sweeps give each cell a
    /// private registry, then merge the cells **in input order** on the
    /// calling thread, so the combined registry is a pure function of
    /// the cell registries and the merge order — never of scheduling.
    ///
    /// Semantics per kind:
    /// * **counters** — added (exact; `u64`).
    /// * **gauges** — accumulated (`add`), matching the running-total
    ///   gauges instrumented code emits. A `set`-style gauge should be
    ///   read from its cell registry before merging; "last write wins"
    ///   across cells is not reconstructible from final values.
    /// * **histograms** — count/sum/min/max and bucket tables combined;
    ///   quantile tracking is enabled on the target if either side had
    ///   it.
    /// * **events** — appended in `other`'s order after the target's.
    pub fn merge_from(&self, other: &Registry) {
        for (name, counter) in other.inner.counters.lock().expect("counters lock").iter() {
            let v = counter.get();
            if v != 0 {
                self.counter(name).add(v);
            }
        }
        for (name, gauge) in other.inner.gauges.lock().expect("gauges lock").iter() {
            let v = gauge.get();
            if v != 0.0 {
                self.gauge(name).add(v);
            }
        }
        for (name, histogram) in other
            .inner
            .histograms
            .lock()
            .expect("histograms lock")
            .iter()
        {
            self.histogram(name).merge_from(histogram);
        }
        let their_events = other.inner.events.lock().expect("events lock").clone();
        self.inner
            .events
            .lock()
            .expect("events lock")
            .extend(their_events);
    }

    /// The metrics (no events) as one JSON object keyed by metric name.
    pub fn snapshot(&self) -> Value {
        let mut map = Map::new();
        for (name, counter) in self.inner.counters.lock().expect("counters lock").iter() {
            map.insert(name.clone(), json!(counter.get()));
        }
        for (name, gauge) in self.inner.gauges.lock().expect("gauges lock").iter() {
            map.insert(name.clone(), json!(gauge.get()));
        }
        for (name, histogram) in self
            .inner
            .histograms
            .lock()
            .expect("histograms lock")
            .iter()
        {
            let state = histogram.0.lock().expect("histogram lock").clone();
            map.insert(
                name.clone(),
                json!({"count": state.count, "sum": state.sum, "min": state.min, "max": state.max}),
            );
        }
        Value::Object(map)
    }
}

/// The process-wide registry used by the binaries' `--metrics` flag.
///
/// Library code never touches it: components default to a private
/// [`Registry`], and only binaries hand them this one. The global exists
/// so experiment entry points (plain `fn(bool) -> Value`) can share one
/// sink without threading a parameter through every signature.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let registry = Registry::new();
        let c = registry.counter("x.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(registry.counter_value("x.count"), 5);
        assert_eq!(registry.counter_value("never-created"), 0);
        // Same name → same underlying metric.
        registry.counter("x.count").inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn gauges_set_and_accumulate() {
        let registry = Registry::new();
        let g = registry.gauge("dollars");
        g.set(1.5);
        g.add(0.25);
        assert!((g.get() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_tracks_summary() {
        let registry = Registry::new();
        let h = registry.histogram("wait_s");
        for v in [2.0, 1.0, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 6.0).abs() < 1e-12);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn export_is_deterministic_and_sorted() {
        let build = || {
            let registry = Registry::new();
            registry.counter("b.second").add(2);
            registry.counter("a.first").add(1);
            registry.gauge("g").set(0.5);
            registry.event(1.5, "epoch_end", &[("epoch", json!(3))]);
            registry.event(2.5, "done", &[]);
            registry.export_jsonl()
        };
        let a = build();
        assert_eq!(a, build(), "same construction must be byte-identical");
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].contains("a.first"), "sorted by name: {a}");
        assert!(lines[1].contains("b.second"));
        assert!(lines[3].contains("epoch_end"));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn quantiles_match_known_uniform_distribution() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        h.enable_quantiles();
        // 1..=1000: exact pXX is XX0 (nearest rank); buckets are 2 % wide,
        // so allow the documented relative error plus the bucket middle.
        for v in 1..=1000u32 {
            h.observe(f64::from(v));
        }
        for (q, exact) in [(0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.quantile(q).expect("non-empty");
            assert!(
                (got - exact).abs() / exact < 0.02,
                "q={q}: got {got}, want ~{exact}"
            );
        }
        assert_eq!(h.quantile(1.0), Some(1000.0), "max clamp");
        assert!(h.quantile(0.0).expect("min rank") <= 1.02);
    }

    #[test]
    fn quantiles_handle_point_mass_and_zeros() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        h.enable_quantiles();
        for _ in 0..10 {
            h.observe(7.0);
        }
        // A point mass: every quantile collapses to the single value
        // (clamped to the exact min/max, so no bucket-middle error).
        assert_eq!(h.p50(), Some(7.0));
        assert_eq!(h.p99(), Some(7.0));
        for _ in 0..90 {
            h.observe(0.0);
        }
        // 90 % of mass at zero: the median is the zeros bucket.
        assert_eq!(h.p50(), Some(0.0));
    }

    #[test]
    fn quantiles_disabled_returns_none_and_keeps_export_stable() {
        let registry = Registry::new();
        let h = registry.histogram("plain");
        h.observe(1.0);
        assert_eq!(h.quantile(0.5), None);
        let export = registry.export_jsonl();
        assert!(
            !export.contains("\"summary\""),
            "plain histograms must not grow summary lines: {export}"
        );
        let q = registry.histogram("fancy");
        q.enable_quantiles();
        q.observe(2.0);
        let export = registry.export_jsonl();
        assert!(
            export.contains("\"summary\""),
            "enabled => summary: {export}"
        );
        assert!(
            export.find("\"histogram\"").unwrap() < export.find("\"summary\"").unwrap(),
            "summaries come after all histogram lines"
        );
    }

    #[test]
    fn reset_preserves_quantile_tracking() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        h.enable_quantiles();
        h.observe(5.0);
        registry.reset();
        assert_eq!(h.count(), 0);
        h.observe(3.0);
        assert!(h.p50().is_some(), "buckets survive reset");
    }

    #[test]
    fn log_bucket_round_trip_is_within_bucket_width() {
        for v in [1e-6, 0.3, 1.0, 42.0, 1.7e9] {
            let i = log_bucket_index(v);
            let mid = log_bucket_value(i);
            assert!(
                (mid / v).abs().ln().abs() <= BUCKET_GAMMA.ln(),
                "v={v}: bucket middle {mid} too far"
            );
        }
    }

    #[test]
    fn summary_record_shape_matches_module_doc() {
        // The module doc promises exactly {type,name,count,p50,p95,p99}
        // for summary lines — no p90. Round-trip the export through the
        // JSON parser and check the key set, not just a substring.
        let registry = Registry::new();
        let h = registry.histogram("serve.latency_ms");
        h.enable_quantiles();
        for v in [210.1, 250.0, 287.3] {
            h.observe(v);
        }
        let export = registry.export_jsonl();
        let summary_line = export
            .lines()
            .find(|l| l.contains(r#""type":"summary""#))
            .expect("summary line present");
        let parsed: Value = serde_json::from_str(summary_line).expect("valid JSON");
        let obj = parsed.as_object().expect("object");
        let mut keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["count", "name", "p50", "p95", "p99", "type"]);
        assert_eq!(obj.get("count").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn merge_from_combines_all_metric_kinds_in_order() {
        let a = Registry::new();
        a.counter("n").add(2);
        a.gauge("dollars").add(1.5);
        let ha = a.histogram("wait");
        ha.enable_quantiles();
        ha.observe(1.0);
        ha.observe(3.0);
        a.event(1.0, "first", &[]);

        let b = Registry::new();
        b.counter("n").add(3);
        b.counter("only_b").add(1);
        b.gauge("dollars").add(0.25);
        let hb = b.histogram("wait");
        hb.enable_quantiles();
        hb.observe(2.0);
        b.event(0.5, "second", &[]);

        let target = Registry::new();
        target.merge_from(&a);
        target.merge_from(&b);
        assert_eq!(target.counter_value("n"), 5);
        assert_eq!(target.counter_value("only_b"), 1);
        assert!((target.gauge_value("dollars") - 1.75).abs() < 1e-12);
        let h = target.histogram("wait");
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 6.0).abs() < 1e-12);
        assert!(h.p50().is_some(), "bucket tables merged");
        // Events keep merge order, not timestamp order: cell order is
        // the deterministic input order.
        let export = target.export_jsonl();
        assert!(export.find("first").unwrap() < export.find("second").unwrap());

        // Merging the same cells in the same order is byte-stable.
        let target2 = Registry::new();
        target2.merge_from(&a);
        target2.merge_from(&b);
        assert_eq!(export, target2.export_jsonl());
    }

    #[test]
    fn reset_zeroes_existing_handles() {
        let registry = Registry::new();
        let c = registry.counter("n");
        c.add(7);
        registry.event(0.0, "e", &[]);
        registry.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(registry.event_count(), 0);
        c.inc();
        assert_eq!(registry.counter_value("n"), 1, "handle stays live");
    }
}
