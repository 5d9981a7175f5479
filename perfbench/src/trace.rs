//! Outside-in tracing: spans recorded around the public simulator calls,
//! and transparent wrappers around the injected policy trait objects.
//!
//! Nothing inside the simulators is instrumented. A wrapper forwards
//! every call to the policy it wraps and counts it, and times a sample
//! of the calls, in a shared [`Probe`]; the calls are aggregated into one
//! span per parent `new` or `run` span rather than recorded one by one.

use ce_cluster::{Admission, AdmissionPolicy, ClusterView, JobSpec, ReadyJob};
use ce_faas::KeepAlive;
use ce_lifecycle::{PriorityPolicy, QuotaView, VictimView};
use ce_serve::{Autoscaler, LoadObservation, ScaleDecision};
use ce_sim_core::time::SimTime;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Every call through a wrapper is counted; one in [`SAMPLE_EVERY`],
/// picked by a hash of the call number so that no periodic call pattern
/// aliases with it, is timed. Keep-alive policies are called hundreds of
/// thousands of times per simulation, and timing every call would
/// stretch the run it measures by a third.
const SAMPLE_EVERY: u64 = 8;

/// Host time `Instant::now` plus `elapsed` reports around no work: the
/// timer's own cost, subtracted from every timed call.
fn timer_floor_ns() -> f64 {
    static FLOOR: OnceLock<f64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut samples: Vec<u128> = (0..2001)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(());
                start.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    })
}

/// Call count and estimated host time of one wrapped policy. Counters
/// are statistics only (they publish no other data), hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

impl Probe {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if !(n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32).is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.timed_ns.fetch_add(nanos, Ordering::Relaxed);
        self.timed.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Returns `(calls, estimated nanoseconds)` since the last take and
    /// resets the probe. The estimate scales the timed calls' mean, net
    /// of the timer's own cost, to every call.
    pub fn take(&self) -> (u64, u64) {
        let calls = self.calls.swap(0, Ordering::Relaxed);
        let timed = self.timed.swap(0, Ordering::Relaxed);
        let timed_ns = self.timed_ns.swap(0, Ordering::Relaxed);
        if timed == 0 {
            return (calls, 0);
        }
        let mean = (timed_ns as f64 / timed as f64 - timer_floor_ns()).max(0.0);
        (calls, (mean * calls as f64).round() as u64)
    }
}

/// One probe per injectable policy layer. Clones share the probes, so
/// the per-pool clones a simulator makes all report to the same place.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub autoscaler: Arc<Probe>,
    pub keep_alive: Arc<Probe>,
    pub admission: Arc<Probe>,
    pub priority: Arc<Probe>,
    /// `AdmissionPolicy::pick` calls alone: the heap fleet engine never
    /// makes one, so a non-zero count means the wrapper lost the engine.
    pub picks: Arc<AtomicU64>,
}

/// A policy behind a timing wrapper.
struct Timed<T: ?Sized> {
    inner: Box<T>,
    probe: Arc<Probe>,
    picks: Option<Arc<AtomicU64>>,
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Timed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl Probes {
    pub fn wrap_autoscaler(&self, inner: Box<dyn Autoscaler>) -> Box<dyn Autoscaler> {
        Box::new(Timed {
            inner,
            probe: self.autoscaler.clone(),
            picks: None,
        })
    }

    pub fn wrap_keep_alive(&self, inner: Box<dyn KeepAlive>) -> Box<dyn KeepAlive> {
        Box::new(Timed {
            inner,
            probe: self.keep_alive.clone(),
            picks: None,
        })
    }

    pub fn wrap_admission(&self, inner: Box<dyn AdmissionPolicy>) -> Box<dyn AdmissionPolicy> {
        Box::new(Timed {
            inner,
            probe: self.admission.clone(),
            picks: Some(self.picks.clone()),
        })
    }

    pub fn wrap_priority(&self, inner: Box<dyn PriorityPolicy>) -> Box<dyn PriorityPolicy> {
        Box::new(Timed {
            inner,
            probe: self.priority.clone(),
            picks: None,
        })
    }
}

impl Autoscaler for Timed<dyn Autoscaler> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial(&self) -> ScaleDecision {
        self.probe.time(|| self.inner.initial())
    }

    fn plan(&mut self, load: &LoadObservation) -> ScaleDecision {
        let inner = &mut self.inner;
        self.probe.time(|| inner.plan(load))
    }

    fn clone_box(&self) -> Box<dyn Autoscaler> {
        Box::new(Timed {
            inner: self.inner.clone_box(),
            probe: self.probe.clone(),
            picks: None,
        })
    }
}

impl KeepAlive for Timed<dyn KeepAlive> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn ttl_s(&self, now: SimTime) -> f64 {
        self.probe.time(|| self.inner.ttl_s(now))
    }

    fn observe_arrival(&mut self, now: SimTime) {
        let inner = &mut self.inner;
        self.probe.time(|| inner.observe_arrival(now));
    }

    fn clone_box(&self) -> Box<dyn KeepAlive> {
        Box::new(Timed {
            inner: self.inner.clone_box(),
            probe: self.probe.clone(),
            picks: None,
        })
    }
}

impl AdmissionPolicy for Timed<dyn AdmissionPolicy> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(&self, job: &JobSpec, view: &ClusterView) -> Admission {
        self.probe.time(|| self.inner.admit(job, view))
    }

    fn pick(&self, ready: &[ReadyJob<'_>], view: &ClusterView) -> Option<usize> {
        if let Some(picks) = &self.picks {
            picks.fetch_add(1, Ordering::Relaxed);
        }
        self.probe.time(|| self.inner.pick(ready, view))
    }

    // Forwarded so the heap fleet engine stays selected for keyed
    // policies (the trait default would fall back to the naive scan).
    fn dispatch_key(&self, job: &ReadyJob<'_>) -> Option<f64> {
        self.probe.time(|| self.inner.dispatch_key(job))
    }
}

impl PriorityPolicy for Timed<dyn PriorityPolicy> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn preempt_victim(&self, victims: &[VictimView], view: &QuotaView) -> Option<usize> {
        self.probe.time(|| self.inner.preempt_victim(victims, view))
    }

    fn serve_drains_first(&self, view: &QuotaView) -> bool {
        self.probe.time(|| self.inner.serve_drains_first(view))
    }
}

/// One recorded span. Aggregated spans (`calls > 0`) stand for every
/// call through one wrapped policy during their parent span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Index of the simulation the span belongs to.
    pub sim: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub calls: u64,
}

/// Spans kept in memory and written out once, at the end of the run.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, sim: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            sim,
            start_ns,
            dur_ns: 0,
            calls: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.dur_ns = end - span.start_ns;
    }

    /// Records a probe's calls during `parent` as one aggregated child.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, probe: &Probe) {
        let (calls, nanos) = probe.take();
        if calls == 0 {
            return;
        }
        let (sim, start_ns) = (self.spans[parent].sim, self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            parent: Some(parent),
            sim,
            start_ns,
            dur_ns: nanos,
            calls,
        });
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.dur_ns);
            }
        }
        out
    }

    /// `(total duration, total self time, span count, call count)` of
    /// every span named `name`, optionally only those of matching sims.
    pub fn totals(&self, name: &str, keep_sim: impl Fn(usize) -> bool) -> (u64, u64, u64, u64) {
        let self_ns = self.self_ns();
        let mut t = (0, 0, 0, 0);
        for (s, own) in self.spans.iter().zip(self_ns) {
            if s.name == name && keep_sim(s.sim) {
                t.0 += s.dur_ns;
                t.1 += own;
                t.2 += 1;
                t.3 += s.calls;
            }
        }
        t
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = serde_json::json!({
                "id": id,
                "parent": s.parent,
                "sim": s.sim,
                "name": s.name,
                "start_ns": s.start_ns,
                "dur_ns": s.dur_ns,
                "calls": s.calls,
            });
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
