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
//! own handle and the registry can be snapshotted at any time. A
//! component that owns a distribution outright observes into a
//! lock-free [`LocalHistogram`] and publishes it once with
//! [`Histogram::merge_local`]. Every library component writes to an
//! injected registry, a private [`Registry::new`] unless the caller
//! passes one; only binaries (the CLIs and the figure harness) pass
//! [`global()`].
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
pub struct Histogram(Arc<Mutex<LocalHistogram>>);

/// Geometric bucket tallies with a rank cursor: ce-obs's quantile
/// histograms and `ce_faas`'s histogram keep-alive both keep one.
///
/// Bucket `i` counts observations in `[GAMMA^i, GAMMA^(i+1))`;
/// non-positive (and NaN) observations count as zeros below every
/// bucket, and `+inf` lands in bucket `i32::MAX`, counted apart.
///
/// The finite buckets live in one dense window, `counts[k]` being bucket
/// `lo + k`, that grows to cover every bucket observed. Every positive
/// finite `f64` falls in one of ≈73k buckets, so the window never
/// exceeds ≈590 KB; `+inf` stays out of it, or it would span 2^31 slots.
///
/// The rank cursor `(at, below)` records that `counts[..at]` holds
/// `below` observations. A prefix count is the same for every rank, so a
/// read walks the cursor from wherever the last read left it to the
/// answer's bucket: repeated reads at one quantile move it by the few
/// buckets the observations in between shifted the rank. The window
/// also keeps the last bucket [`LogBuckets::value_at`] answered and that
/// bucket's value, so a read landing in the same bucket costs no `exp`.
#[derive(Debug, Default, Clone)]
pub struct LogBuckets {
    zeros: u64,
    top: u64,
    /// Every observation: `zeros + top + counts.sum()`.
    total: u64,
    lo: i32,
    counts: Vec<u64>,
    at: usize,
    below: u64,
    /// The last bucket `value_at` answered, and its `log_bucket_value`.
    answered: Option<(i32, f64)>,
}

impl LogBuckets {
    /// Tallies one observation.
    pub fn observe(&mut self, value: f64) {
        self.total += 1;
        if value == f64::INFINITY {
            self.top += 1;
        } else if value > 0.0 {
            let slot = self.slot(log_bucket_index(value));
            self.counts[slot] += 1;
            if slot < self.at {
                self.below += 1;
            }
        } else {
            self.zeros += 1;
        }
    }

    /// Every observation tallied.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations `<= 0` or NaN.
    pub fn zeros(&self) -> u64 {
        self.zeros
    }

    /// The dense window of finite buckets: the first bucket's index and
    /// the counts from it up (empty before any finite observation).
    pub fn window(&self) -> (i32, &[u64]) {
        (self.lo, &self.counts)
    }

    /// The nearest rank of quantile `q`: `max(ceil(q · total), 1)`, with
    /// `q` clamped to `[0, 1]`.
    pub fn rank(&self, q: f64) -> u64 {
        ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1)
    }

    /// The bucket holding the `rank`-th smallest observation (`1 ..=
    /// total`): `None` when that is a zero, `i32::MAX` when it is `+inf`.
    /// Walks the rank cursor there.
    fn bucket_at(&mut self, rank: u64) -> Option<i32> {
        debug_assert!(
            (1..=self.total).contains(&rank),
            "rank {rank} of {}",
            self.total
        );
        if rank <= self.zeros {
            None
        } else if rank > self.total - self.top {
            Some(i32::MAX)
        } else {
            Some(self.seek(rank - self.zeros))
        }
    }

    /// The [`log_bucket_value`] of the bucket holding the `rank`-th
    /// smallest observation (`1 ..= total`), or `None` when that is a
    /// zero; an `+inf` observation answers bucket `i32::MAX`, worth
    /// `+inf`. Walks the rank cursor there, and reuses the last answer
    /// when the bucket has not moved.
    pub fn value_at(&mut self, rank: u64) -> Option<f64> {
        let idx = self.bucket_at(rank)?;
        match self.answered {
            Some((answered, value)) if answered == idx => Some(value),
            _ => {
                let value = log_bucket_value(idx);
                self.answered = Some((idx, value));
                Some(value)
            }
        }
    }

    /// The window slot of finite bucket `idx`, growing the window to
    /// reach it. The window grows downward by at least its own length,
    /// so a falling run of observations costs amortized O(1), but never
    /// below the bucket of the smallest positive `f64`.
    fn slot(&mut self, idx: i32) -> usize {
        if self.counts.is_empty() {
            self.lo = idx;
        } else if idx < self.lo {
            let floor = log_bucket_index(f64::from_bits(1));
            let lo = idx.min(self.lo - self.counts.len() as i32).max(floor);
            let grow = (self.lo - lo) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.lo = lo;
            self.at += grow;
        }
        let slot = (idx - self.lo) as usize;
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
        }
        slot
    }

    /// The bucket holding the `need`-th smallest finite positive
    /// observation (`1 ..= counts.sum()`), walking the cursor there.
    fn seek(&mut self, need: u64) -> i32 {
        while self.at > 0 && self.below - self.counts[self.at - 1] >= need {
            self.at -= 1;
            self.below -= self.counts[self.at];
        }
        while self.below < need {
            self.below += self.counts[self.at];
            self.at += 1;
        }
        self.lo + self.at as i32 - 1
    }

    /// Adds `other`'s tallies; the window becomes the union of both and
    /// the cursor restarts at the bottom.
    fn merge_from(&mut self, other: &LogBuckets) {
        self.zeros += other.zeros;
        self.top += other.top;
        self.total += other.total;
        if !other.counts.is_empty() {
            let hi = other.lo + other.counts.len() as i32 - 1;
            let start = self.slot(other.lo);
            self.slot(hi);
            for (mine, theirs) in self.counts[start..].iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        }
        self.at = 0;
        self.below = 0;
    }
}

/// A histogram with one owner: count / sum / min / max, plus optional
/// [`LogBuckets`] for quantiles. It observes without a lock; a
/// simulation keeps one per metric it observes on every event and
/// publishes it into a registry [`Histogram`] once, with
/// [`Histogram::merge_local`]. The registry's [`Histogram`] is this
/// state behind a lock, so both forms answer every read alike.
#[derive(Debug, Default, Clone)]
pub struct LocalHistogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// `Some` once quantile tracking is enabled; plain histograms carry
    /// no buckets and export exactly the bytes they always did.
    buckets: Option<LogBuckets>,
}

impl LocalHistogram {
    /// An empty histogram that tracks quantiles.
    pub fn with_quantiles() -> Self {
        LocalHistogram {
            buckets: Some(LogBuckets::default()),
            ..LocalHistogram::default()
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if let Some(buckets) = self.buckets.as_mut() {
            buckets.observe(value);
        }
    }

    /// Turns on log-bucket quantile tracking (idempotent); see
    /// [`Histogram::enable_quantiles`].
    fn enable_quantiles(&mut self) {
        self.buckets.get_or_insert_with(LogBuckets::default);
    }

    /// Whether quantile tracking is on.
    fn quantiles_enabled(&self) -> bool {
        self.buckets.is_some()
    }

    /// The `q`-quantile; see [`Histogram::quantile`].
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        let buckets = self.buckets.as_mut()?;
        if buckets.total() == 0 {
            return None;
        }
        // Nearest-rank: the smallest bucket whose cumulative count covers
        // rank = ceil(q * total), with rank at least 1.
        let rank = buckets.rank(q);
        if rank == buckets.total() {
            return Some(self.max);
        }
        Some(match buckets.value_at(rank) {
            Some(value) => value.clamp(self.min, self.max),
            None => self.min.min(0.0),
        })
    }

    /// Folds every observation of `other` into this histogram; see
    /// [`Histogram::merge_from`].
    fn merge_from(&mut self, other: &LocalHistogram) {
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
            self.count += other.count;
            self.sum += other.sum;
        }
        if let Some(their_buckets) = &other.buckets {
            self.buckets
                .get_or_insert_with(LogBuckets::default)
                .merge_from(their_buckets);
        }
    }

    /// Empties the histogram, keeping quantile tracking as it was.
    fn reset(&mut self) {
        let quantiles = self.quantiles_enabled();
        *self = LocalHistogram::default();
        if quantiles {
            self.enable_quantiles();
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        self.0.lock().expect("histogram lock").observe(value);
    }

    /// Turns on log-bucket quantile tracking (idempotent). Only
    /// observations recorded *after* this call are bucketed, so enable it
    /// right after creating the histogram. Quantile-enabled histograms
    /// additionally export a `summary` JSONL record.
    pub fn enable_quantiles(&self) {
        self.0.lock().expect("histogram lock").enable_quantiles();
    }

    /// Whether [`Histogram::enable_quantiles`] was called.
    pub fn quantiles_enabled(&self) -> bool {
        self.0.lock().expect("histogram lock").quantiles_enabled()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest-rank over the log
    /// buckets, accurate to the 2 % bucket width and clamped to the exact
    /// observed `[min, max]`. Returns `None` when empty or when quantile
    /// tracking is disabled. Repeated reads at one `q` cost amortized
    /// O(1), and no `exp` while the answer's bucket stays put (see
    /// [`LogBuckets`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.0.lock().expect("histogram lock").quantile(q)
    }

    /// Folds every observation of `other` into this histogram:
    /// count/sum/min/max and bucket tables combine, and quantile
    /// tracking is enabled here if `other` had it. Folding into an empty
    /// histogram reproduces `other`'s state bit for bit.
    pub fn merge_from(&self, other: &Histogram) {
        let theirs = other.0.lock().expect("histogram lock").clone();
        self.merge_local(&theirs);
    }

    /// Folds an owned histogram into this one, as
    /// [`Histogram::merge_from`] does: publishing a [`LocalHistogram`]
    /// into a histogram nothing else observed gives the bytes observing
    /// each value here would have.
    pub fn merge_local(&self, other: &LocalHistogram) {
        self.0.lock().expect("histogram lock").merge_from(other);
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
        self.0.lock().expect("histogram lock").mean()
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

/// The handle stored under `name`, created on first use. A hit looks the
/// name up by `&str` and allocates nothing; only a miss builds the key.
fn get_or_create<T: Clone + Default>(map: &Mutex<BTreeMap<String, T>>, name: &str) -> T {
    let mut map = map.lock().expect("metric map lock");
    if let Some(handle) = map.get(name) {
        return handle.clone();
    }
    map.entry(name.to_string()).or_default().clone()
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
        get_or_create(&self.inner.counters, name)
    }

    /// Increments the counter held in `slot`, getting or creating `name`
    /// there first: a held handle registers where a lookup would have.
    pub fn inc_held(&self, slot: &mut Option<Counter>, name: &str) {
        slot.get_or_insert_with(|| self.counter(name)).inc();
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_create(&self.inner.gauges, name)
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_create(&self.inner.histograms, name)
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
            histogram.0.lock().expect("histogram lock").reset();
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
            let state = histogram.0.lock().expect("histogram lock");
            lines.push(
                json!({
                    "type": "histogram",
                    "name": name.as_str(),
                    "count": state.count,
                    "sum": state.sum,
                    "min": state.min,
                    "max": state.max,
                    "mean": state.mean(),
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
            let state = histogram.0.lock().expect("histogram lock");
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
    use ce_sim_core::rng::SimRng;

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

    /// The reference answer: the bucket table as an ordered map, summed
    /// and walked from the bottom on every read, as the histogram kept it
    /// before the dense window. `+inf` lands in bucket `i32::MAX`.
    #[derive(Clone, Default)]
    struct MapTable {
        zeros: u64,
        counts: BTreeMap<i32, u64>,
    }

    #[derive(Clone, Default)]
    struct MapHistogram {
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        buckets: Option<MapTable>,
    }

    impl MapHistogram {
        fn observe(&mut self, value: f64) {
            if self.count == 0 {
                self.min = value;
                self.max = value;
            } else {
                self.min = self.min.min(value);
                self.max = self.max.max(value);
            }
            self.count += 1;
            self.sum += value;
            if let Some(buckets) = self.buckets.as_mut() {
                if value > 0.0 {
                    *buckets.counts.entry(log_bucket_index(value)).or_insert(0) += 1;
                } else {
                    buckets.zeros += 1;
                }
            }
        }

        fn quantile(&self, q: f64) -> Option<f64> {
            let buckets = self.buckets.as_ref()?;
            let total = buckets.zeros + buckets.counts.values().sum::<u64>();
            if total == 0 {
                return None;
            }
            let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
            if rank == total {
                return Some(self.max);
            }
            if buckets.zeros >= rank {
                return Some(self.min.min(0.0));
            }
            let mut seen = buckets.zeros;
            for (&idx, &n) in buckets.counts.iter() {
                seen += n;
                if seen >= rank {
                    return Some(log_bucket_value(idx).clamp(self.min, self.max));
                }
            }
            Some(self.max)
        }

        fn merge_from(&mut self, theirs: &MapHistogram) {
            if theirs.count > 0 {
                if self.count == 0 {
                    self.min = theirs.min;
                    self.max = theirs.max;
                } else {
                    self.min = self.min.min(theirs.min);
                    self.max = self.max.max(theirs.max);
                }
                self.count += theirs.count;
                self.sum += theirs.sum;
            }
            if let Some(their_buckets) = &theirs.buckets {
                let buckets = self.buckets.get_or_insert_with(MapTable::default);
                buckets.zeros += their_buckets.zeros;
                for (&idx, &n) in &their_buckets.counts {
                    *buckets.counts.entry(idx).or_insert(0) += n;
                }
            }
        }

        fn reset(&mut self) {
            let quantiles = self.buckets.is_some();
            *self = MapHistogram::default();
            if quantiles {
                self.buckets = Some(MapTable::default());
            }
        }
    }

    /// The JSONL a registry holding exactly the oracle histograms
    /// `named` exports.
    fn oracle_export(named: &[(&str, MapHistogram)]) -> String {
        let mut lines = Vec::new();
        for (name, h) in named {
            let mean = if h.count == 0 {
                0.0
            } else {
                h.sum / h.count as f64
            };
            lines.push(
                json!({"type": "histogram", "name": name, "count": h.count, "sum": h.sum,
                       "min": h.min, "max": h.max, "mean": mean})
                .to_string(),
            );
        }
        for (name, h) in named.iter().filter(|(_, h)| h.buckets.is_some()) {
            lines.push(
                json!({"type": "summary", "name": name, "count": h.count,
                       "p50": h.quantile(0.50).unwrap_or(0.0),
                       "p95": h.quantile(0.95).unwrap_or(0.0),
                       "p99": h.quantile(0.99).unwrap_or(0.0)})
                .to_string(),
            );
        }
        lines.join("\n") + "\n"
    }

    /// An observation: mostly a millisecond-scale latency times `scale`,
    /// sometimes (one in `edge_odds`) one of the edge cases.
    fn any_value(rng: &mut SimRng, scale: f64, edge_odds: usize) -> f64 {
        if rng.gen_index(edge_odds) != 0 {
            return scale * rng.uniform_range(0.1, 2_000.0);
        }
        match rng.gen_index(10) {
            0 => 0.0,
            1 => -rng.uniform_range(0.0, 1_000.0),
            2 => f64::NAN,
            3 => f64::from_bits(1 + rng.next_u64() % ((1 << 52) - 1)),
            4 => 1e300 * rng.uniform_range(1.0, 2.0),
            5 => 1e-300 * rng.uniform_range(1.0, 2.0),
            6 => f64::MAX,
            7 => f64::INFINITY,
            8 => f64::NEG_INFINITY,
            _ => f64::MIN_POSITIVE,
        }
    }

    fn window_len(h: &Histogram) -> usize {
        let state = h.0.lock().expect("histogram lock");
        state.buckets.as_ref().map_or(0, |b| b.counts.len())
    }

    #[test]
    fn dense_bucket_window_matches_the_map_oracle() {
        // Every positive finite f64 falls in one of these buckets.
        let span = (log_bucket_index(f64::MAX) - log_bucket_index(f64::from_bits(1)) + 1) as usize;
        assert!(span < 74_000, "finite span {span}");
        let names = ["a", "b", "c"];
        for seed in 0..60 {
            let mut rng = SimRng::new(seed);
            let registry = Registry::new();
            let handles: Vec<Histogram> = names.iter().map(|n| registry.histogram(n)).collect();
            let mut oracle = vec![MapHistogram::default(); names.len()];
            // "c" stays plain until a merge turns its quantiles on.
            for (h, o) in handles.iter().zip(&mut oracle).take(2) {
                h.enable_quantiles();
                o.buckets = Some(MapTable::default());
            }
            // Each histogram's latencies sit in their own decades, so the
            // windows are disjoint until the edge cases widen them.
            let scales: Vec<f64> = (0..names.len())
                .map(|_| 10f64.powi(rng.gen_index(41) as i32 * 5 - 100))
                .collect();
            let edge_odds = [4, 30, usize::MAX][rng.gen_index(3)];
            // One fixed `q` per histogram, read again and again across
            // observations, so reads often land in the bucket the last
            // read answered and take its cached value.
            let sticky: Vec<f64> = (0..names.len()).map(|_| rng.uniform()).collect();
            for step in 0..500 {
                let i = rng.gen_index(names.len());
                let ctx = format!("seed {seed} step {step} histogram {}", names[i]);
                match rng.gen_index(20) {
                    0..=10 => {
                        let v = any_value(&mut rng, scales[i], edge_odds);
                        handles[i].observe(v);
                        oracle[i].observe(v);
                    }
                    11..=16 => {
                        let q = match rng.gen_index(8) {
                            0 => 0.0,
                            1 => 0.5,
                            2 => 0.95,
                            3 => 0.99,
                            4 => 1.0,
                            5 => rng.uniform(),
                            _ => sticky[i],
                        };
                        let want = oracle[i].quantile(q).map(f64::to_bits);
                        // The repeat reads the same bucket at once.
                        for read in 0..2 {
                            let got = handles[i].quantile(q).map(f64::to_bits);
                            assert_eq!(got, want, "quantile({q}) read {read}, {ctx}");
                        }
                    }
                    17 => {
                        let j = rng.gen_index(names.len());
                        handles[i].merge_from(&handles[j]);
                        let theirs = oracle[j].clone();
                        oracle[i].merge_from(&theirs);
                    }
                    18 if rng.bernoulli(0.125) => {
                        registry.reset();
                        oracle.iter_mut().for_each(MapHistogram::reset);
                    }
                    _ => {
                        let named: Vec<(&str, MapHistogram)> =
                            names.iter().copied().zip(oracle.iter().cloned()).collect();
                        assert_eq!(registry.export_jsonl(), oracle_export(&named), "{ctx}");
                    }
                }
                for h in &handles {
                    assert!(
                        window_len(h) <= span,
                        "window {} > {span}, {ctx}",
                        window_len(h)
                    );
                }
            }
        }
    }

    #[test]
    fn a_published_local_histogram_matches_one_observed_in_the_registry() {
        let qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0];
        for seed in 0..60 {
            let mut rng = SimRng::new(seed);
            let scale = 10f64.powi(rng.gen_index(41) as i32 * 5 - 100);
            let edge_odds = [4, 30, usize::MAX][rng.gen_index(3)];
            let quantiles = rng.gen_index(4) != 0;
            let len = [0, 1, 2, 50, 400][rng.gen_index(5)];
            let ctx = format!("seed {seed}, {len} values, quantiles {quantiles}");
            let open = |registry: &Registry| {
                let h = registry.histogram("h");
                if quantiles {
                    h.enable_quantiles();
                }
                h
            };
            let direct_registry = Registry::new();
            let direct = open(&direct_registry);
            let mut local = if quantiles {
                LocalHistogram::with_quantiles()
            } else {
                LocalHistogram::default()
            };
            for step in 0..len {
                let v = any_value(&mut rng, scale, edge_odds);
                direct.observe(v);
                local.observe(v);
                // Live reads, as the request engine's hedge delay makes.
                if rng.gen_index(4) == 0 {
                    let q = rng.uniform();
                    assert_eq!(
                        local.quantile(q).map(f64::to_bits),
                        direct.quantile(q).map(f64::to_bits),
                        "live quantile({q}) at step {step}, {ctx}"
                    );
                }
            }
            let published_registry = Registry::new();
            let published = open(&published_registry);
            published.merge_local(&local);
            assert_eq!(
                published_registry.export_jsonl(),
                direct_registry.export_jsonl(),
                "{ctx}"
            );
            assert_eq!(
                (local.count(), local.sum().to_bits(), local.mean().to_bits()),
                (
                    direct.count(),
                    direct.sum().to_bits(),
                    direct.mean().to_bits()
                ),
                "{ctx}"
            );
            for q in qs.into_iter().chain((0..8).map(|_| rng.uniform())) {
                let want = direct.quantile(q).map(f64::to_bits);
                assert_eq!(
                    published.quantile(q).map(f64::to_bits),
                    want,
                    "quantile({q}), {ctx}"
                );
                assert_eq!(
                    local.quantile(q).map(f64::to_bits),
                    want,
                    "local quantile({q}), {ctx}"
                );
            }
        }
    }
}
