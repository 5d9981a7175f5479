//! Function-instance lifecycle: warm pools with idle expiry, invocation
//! accounting, and execution-limit tracking.
//!
//! AWS Lambda keeps an invoked instance warm for a provider-determined
//! idle window (minutes), reuses it for subsequent invocations at the
//! same memory size, and enforces a hard per-invocation execution limit
//! ([`MAX_EXECUTION_S`]). Invocations that exceed the limit are
//! *counted*: the simulator's requests and epochs are atomic, so the
//! breach is surfaced as a diagnostic rather than a mid-run kill.
//!
//! Two pools model this, one per way the platform is invoked:
//!
//! * [`InstancePool`] serves requests one at a time. It keeps a record
//!   per instance, because serving retires a crashed instance by id and
//!   bills each reaped instance's own warm lifetime.
//!   [`InstancePool::acquire_one`] reuses the most recently used
//!   unexpired warm instance of the right size or cold-starts one;
//!   [`InstancePool::release`] returns it warm.
//! * [`WavePool`] serves BSP training waves ([`crate::FaasPlatform`]). A
//!   wave acquires and releases all its instances together and nothing
//!   reads one of them, so the pool keeps only how many instances of
//!   each size went idle at each instant.

use crate::keepalive::{FixedTtl, KeepAlive, DEFAULT_TTL_S};
use ce_sim_core::time::SimTime;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// The per-invocation execution limit in seconds (Lambda: 15 min).
pub const MAX_EXECUTION_S: f64 = 900.0;

/// Identifier of one function instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunctionId(pub u64);

/// One warm (or executing) function instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionInstance {
    /// Stable identifier.
    pub id: FunctionId,
    /// Memory size the instance was provisioned with.
    pub memory_mb: u32,
    /// Completed invocations on this instance.
    pub invocations: u32,
    /// Total busy seconds across invocations.
    pub busy_s: f64,
    /// When the instance was provisioned (keep-warm billing anchor).
    pub created_at: SimTime,
    /// When the instance last finished work (idle-expiry anchor).
    pub idle_since: SimTime,
    /// Whether the instance is currently executing.
    pub executing: bool,
}

/// One instance removed from the pool by idle expiry, annotated with the
/// instant it stopped being warm — the information a serving simulator
/// needs to bill keep-warm GB-seconds analytically.
#[derive(Debug, Clone, PartialEq)]
pub struct ReapedInstance {
    /// The removed instance, final counters included.
    pub instance: FunctionInstance,
    /// When the instance ceased to be warm (`idle_since + ttl`, capped at
    /// the drain horizon for end-of-run accounting).
    pub retained_until: SimTime,
}

impl ReapedInstance {
    /// Seconds the instance spent provisioned but not executing — its
    /// whole warm lifetime minus busy time. This is the keep-warm
    /// (provisioned-concurrency) billing base.
    pub fn warm_idle_s(&self) -> f64 {
        ((self.retained_until - self.instance.created_at) - self.instance.busy_s).max(0.0)
    }
}

/// Aggregate pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Instances ever created (== cold starts).
    pub created: u64,
    /// Invocations served.
    pub invocations: u64,
    /// Warm reuses (invocations that did not cold start).
    pub warm_hits: u64,
    /// Instances reaped by idle expiry.
    pub expired: u64,
    /// Invocations that exceeded the execution limit.
    pub limit_breaches: u64,
    /// Executing instances force-killed via [`InstancePool::retire`]
    /// (chaos crashes, not idle expiry).
    pub retired: u64,
}

/// Whether an instance idle since `idle_since` has expired as of `now`.
/// `now - idle_since` falls as `idle_since` rises, so in `idle_since`
/// order the expired entries of a deque are a prefix.
fn expired(now: SimTime, idle_since: SimTime, ttl: f64) -> bool {
    now - idle_since > ttl
}

/// One deque of idle entries per memory size, each sorted by the
/// instant its entries went idle.
#[derive(Debug, Clone, Default)]
struct BySize<T> {
    sizes: Vec<(u32, VecDeque<T>)>,
}

impl<T> BySize<T> {
    fn get(&self, memory_mb: u32) -> Option<&VecDeque<T>> {
        self.sizes
            .iter()
            .find(|(mb, _)| *mb == memory_mb)
            .map(|(_, q)| q)
    }

    /// `memory_mb`'s deque, created empty if new.
    fn deque(&mut self, memory_mb: u32) -> &mut VecDeque<T> {
        let s = match self.sizes.iter().position(|(mb, _)| *mb == memory_mb) {
            Some(s) => s,
            None => {
                self.sizes.push((memory_mb, VecDeque::new()));
                self.sizes.len() - 1
            }
        };
        &mut self.sizes[s].1
    }
}

/// Sort key of an idle instance in its memory size's index: the instant
/// it went idle, then its id reversed. The back of an index is thus the
/// most recently used instance, the lowest id among ties.
type IdleKey = (SimTime, Reverse<u64>);

impl BySize<IdleKey> {
    /// Inserts `keys`, ascending, in order. They are appended when they
    /// all sort after the back (the common case: time only moves
    /// forward), else merged in from the back in one pass, so a batch
    /// costs the run it lands in once, not once per key.
    fn insert(q: &mut VecDeque<IdleKey>, keys: impl DoubleEndedIterator<Item = IdleKey> + Clone) {
        let mut old = q.len();
        q.extend(keys.clone());
        if old == 0 || old == q.len() || q[old - 1] < q[old] {
            return;
        }
        let mut write = q.len();
        let mut new = keys.rev().peekable();
        while let Some(&key) = new.peek() {
            write -= 1;
            if old > 0 && q[old - 1] > key {
                q[write] = q[old - 1];
                old -= 1;
            } else {
                q[write] = key;
                new.next();
            }
        }
    }

    /// Unindexes every instance expired as of `now` and returns their
    /// ids in ascending order.
    fn pop_expired(&mut self, now: SimTime, ttl: f64) -> Vec<u64> {
        let mut gone = Vec::new();
        for (_, q) in &mut self.sizes {
            while let Some(&(since, Reverse(id))) = q.front() {
                if !expired(now, since, ttl) {
                    break;
                }
                q.pop_front();
                gone.push(id);
            }
        }
        gone.sort_unstable();
        gone
    }
}

/// A pool of function instances serving one request at a time.
#[derive(Debug, Clone)]
pub struct InstancePool {
    /// Live instances, sorted by id: ids are handed out in increasing
    /// order, new instances are only ever appended, and every removal
    /// keeps the survivors' order. [`InstancePool::position`] relies on it.
    instances: Vec<FunctionInstance>,
    /// Every idle instance of `instances`, once, under its memory size,
    /// sorted by [`IdleKey`]; no executing one. Warm reuse takes the
    /// back, idle expiry pops the front.
    idle: BySize<IdleKey>,
    next_id: u64,
    /// Idle-expiry policy (default: the provider's fixed 600 s window).
    keep_alive: Box<dyn KeepAlive>,
    stats: PoolStats,
}

impl InstancePool {
    /// Creates a pool with Lambda-like defaults (fixed 10 min idle
    /// expiry).
    pub fn new() -> Self {
        InstancePool {
            instances: Vec::new(),
            idle: BySize::default(),
            next_id: 0,
            keep_alive: Box::new(FixedTtl::default()),
            stats: PoolStats::default(),
        }
    }

    /// Replaces the idle-expiry policy (builder form).
    pub fn with_keep_alive(mut self, policy: Box<dyn KeepAlive>) -> Self {
        self.keep_alive = policy;
        self
    }

    /// The active idle-expiry policy.
    pub fn keep_alive(&self) -> &dyn KeepAlive {
        self.keep_alive.as_ref()
    }

    /// Pool counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Currently warm (idle, unexpired as of `now`) instances at
    /// `memory_mb`: the index's length past its expired prefix.
    pub fn warm_count(&self, memory_mb: u32, now: SimTime) -> u32 {
        let ttl = self.keep_alive.ttl_s(now);
        self.idle.get(memory_mb).map_or(0, |q| {
            q.len() - q.partition_point(|&(since, _)| expired(now, since, ttl))
        }) as u32
    }

    /// Reaps instances idle past the keep-alive TTL as of `now` and
    /// returns them in id order, annotated with the instant each stopped
    /// being warm (`idle_since + ttl`), so callers can bill keep-warm
    /// time exactly. When nothing has expired this costs one comparison
    /// per memory size.
    pub fn reap_detailed(&mut self, now: SimTime) -> Vec<ReapedInstance> {
        let timeout = self.keep_alive.ttl_s(now);
        let gone = self.idle.pop_expired(now, timeout);
        let mut reaped = Vec::with_capacity(gone.len());
        self.take_sorted(&gone, |instance| {
            reaped.push(ReapedInstance {
                retained_until: instance.idle_since + timeout,
                instance,
            })
        });
        self.stats.expired += reaped.len() as u64;
        reaped
    }

    /// Expires every idle instance at the end of a run, in id order: each
    /// counts as warm until `min(idle_since + ttl, horizon)`. Executing
    /// instances stay (there are none once all in-flight work has
    /// drained).
    pub fn drain_remaining(&mut self, horizon: SimTime) -> Vec<ReapedInstance> {
        let timeout = self.keep_alive.ttl_s(horizon);
        for (_, q) in &mut self.idle.sizes {
            q.clear();
        }
        let mut reaped = Vec::new();
        self.instances.retain(|inst| {
            if !inst.executing {
                reaped.push(ReapedInstance {
                    instance: inst.clone(),
                    retained_until: SimTime::min(inst.idle_since + timeout, horizon),
                });
            }
            inst.executing
        });
        self.stats.expired += reaped.len() as u64;
        reaped
    }

    /// Evicts every idle instance *now* — a new model version was
    /// deployed and the old warm sandboxes can no longer serve. Each is
    /// billed as warm until `min(idle_since + ttl, now)`, the same
    /// honest accounting as [`InstancePool::drain_remaining`]; executing
    /// instances finish their in-flight request (a rolling deploy) and
    /// are recycled on release.
    pub fn flush_idle(&mut self, now: SimTime) -> Vec<ReapedInstance> {
        self.drain_remaining(now)
    }

    /// Force-kills the executing instance `id` (a chaos crash, not idle
    /// expiry) and returns it. Panics if it is missing or not executing.
    pub fn retire(&mut self, id: FunctionId) -> FunctionInstance {
        let idx = self.position(id).expect("retired instance exists");
        assert!(
            self.instances[idx].executing,
            "retire of idle instance {id:?}"
        );
        self.stats.retired += 1;
        self.instances.remove(idx)
    }

    /// Acquires a single instance for one request: reuses the
    /// most-recently-used unexpired warm instance at `memory_mb`, the
    /// lowest id among ties, else cold-starts one. Returns the id and
    /// whether it cold-started. This does not reap — serving loops reap
    /// on their own cadence via [`InstancePool::reap_detailed`].
    pub fn acquire_one(&mut self, memory_mb: u32, now: SimTime) -> (FunctionId, bool) {
        self.keep_alive.observe_arrival(now);
        let ttl = self.keep_alive.ttl_s(now);
        self.stats.invocations += 1;
        // The unexpired instances are a suffix of the index: if its back
        // has expired, every instance has.
        let q = self.idle.deque(memory_mb);
        match q.back() {
            Some(&(since, Reverse(id))) if !expired(now, since, ttl) => {
                q.pop_back();
                let idx = self
                    .position(FunctionId(id))
                    .expect("indexed instance exists");
                self.instances[idx].executing = true;
                self.stats.warm_hits += 1;
                (FunctionId(id), false)
            }
            _ => (self.provision(memory_mb, now, true), true),
        }
    }

    /// Releases the executing instance `id` after an invocation of
    /// `busy_s` seconds ending at `now`.
    pub fn release(&mut self, id: FunctionId, busy_s: f64, now: SimTime) {
        if busy_s > MAX_EXECUTION_S {
            self.stats.limit_breaches += 1;
        }
        let idx = self
            .position(id)
            .unwrap_or_else(|| panic!("instance {id:?} is not live"));
        let inst = &mut self.instances[idx];
        assert!(inst.executing, "double release of {id:?}");
        inst.executing = false;
        inst.invocations += 1;
        inst.busy_s += busy_s;
        inst.idle_since = now;
        let q = self.idle.deque(inst.memory_mb);
        BySize::insert(q, std::iter::once((now, Reverse(id.0))));
    }

    /// Provisions `n` warm instances at `memory_mb` without invoking
    /// them (AWS "provisioned concurrency" / an autoscaler's pre-warming).
    pub fn prewarm(&mut self, n: u32, memory_mb: u32, now: SimTime) {
        let first = self.next_id;
        for _ in 0..n {
            self.provision(memory_mb, now, false);
        }
        // Descending ids give ascending keys at one instant.
        let keys = (first..self.next_id).rev().map(|id| (now, Reverse(id)));
        BySize::insert(self.idle.deque(memory_mb), keys);
    }

    /// Appends a new instance (a cold start, or a prewarm when not
    /// `executing`) and returns its id. Prewarmed instances are left for
    /// the caller to index.
    fn provision(&mut self, memory_mb: u32, now: SimTime, executing: bool) -> FunctionId {
        let id = FunctionId(self.next_id);
        self.next_id += 1;
        self.instances.push(FunctionInstance {
            id,
            memory_mb,
            invocations: 0,
            busy_s: 0.0,
            created_at: now,
            idle_since: now,
            executing,
        });
        self.stats.created += 1;
        id
    }

    /// Removes the instances `ids` (ascending, live) from the store in
    /// one compaction pass from the first of them, handing each to
    /// `sink` in id order.
    fn take_sorted(&mut self, ids: &[u64], mut sink: impl FnMut(FunctionInstance)) {
        let Some(&first) = ids.first() else {
            return;
        };
        let mut write = self
            .position(FunctionId(first))
            .expect("indexed instance exists");
        let mut read = write;
        for &id in ids {
            while self.instances[read].id.0 != id {
                self.instances.swap(write, read);
                write += 1;
                read += 1;
            }
            sink(self.instances[read].clone());
            read += 1;
        }
        self.instances.drain(write..read);
    }

    /// Index of the live instance `id`, by binary search over the
    /// id-sorted pool.
    fn position(&self, id: FunctionId) -> Option<usize> {
        self.instances.binary_search_by_key(&id.0, |i| i.id.0).ok()
    }
}

impl Default for InstancePool {
    fn default() -> Self {
        Self::new()
    }
}

/// A counted warm pool for BSP training waves.
///
/// Per memory size it keeps a deque of *cohorts*, `(idle_since, count)`:
/// how many idle instances went idle at each instant, in strictly
/// increasing `idle_since`. Instances in flight are not held at all;
/// [`WavePool::release`] hands a wave back by its size. Idle expiry is
/// the provider's fixed [`DEFAULT_TTL_S`] window and reads nothing but
/// `idle_since`, so taking the newest cohorts first leaves the same
/// multiset of `idle_since` values that an [`InstancePool`] reusing its
/// most recently used instances leaves, and every count and
/// [`PoolStats`] field matches it.
#[derive(Debug, Clone, Default)]
pub struct WavePool {
    idle: BySize<(SimTime, u32)>,
    stats: PoolStats,
}

impl WavePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pool counters (`retired` stays 0: a wave is never retired).
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Currently warm (idle, unexpired as of `now`) instances at
    /// `memory_mb`: the counts of its unexpired cohorts, a suffix.
    pub fn warm_count(&self, memory_mb: u32, now: SimTime) -> u32 {
        self.idle.get(memory_mb).map_or(0, |q| {
            q.iter()
                .rev()
                .take_while(|&&(since, _)| !expired(now, since, DEFAULT_TTL_S))
                .map(|&(_, n)| n)
                .sum()
        })
    }

    /// Acquires a wave of `n` instances of `memory_mb` at `now`: reaps
    /// every expired cohort, reuses up to `n` warm instances, newest
    /// first, and cold-starts the rest. Returns how many cold-started.
    pub fn acquire(&mut self, n: u32, memory_mb: u32, now: SimTime) -> u32 {
        for (_, q) in &mut self.idle.sizes {
            while let Some(&(since, count)) = q.front() {
                if !expired(now, since, DEFAULT_TTL_S) {
                    break;
                }
                q.pop_front();
                self.stats.expired += u64::from(count);
            }
        }
        let q = self.idle.deque(memory_mb);
        let mut warm = 0;
        while warm < n {
            let Some(back) = q.back_mut() else {
                break;
            };
            let take = back.1.min(n - warm);
            warm += take;
            back.1 -= take;
            if back.1 == 0 {
                q.pop_back();
            }
        }
        self.stats.invocations += u64::from(n);
        self.stats.warm_hits += u64::from(warm);
        self.stats.created += u64::from(n - warm);
        n - warm
    }

    /// Returns a wave of `n` instances of `memory_mb` warm after an
    /// invocation of `busy_s` seconds ending at `now`.
    pub fn release(&mut self, n: u32, memory_mb: u32, busy_s: f64, now: SimTime) {
        if busy_s > MAX_EXECUTION_S {
            self.stats.limit_breaches += u64::from(n);
        }
        self.push(n, memory_mb, now);
    }

    /// Provisions `n` warm instances at `memory_mb` without invoking
    /// them (the planner's pre-warming before a stage starts).
    pub fn prewarm(&mut self, n: u32, memory_mb: u32, now: SimTime) {
        self.stats.created += u64::from(n);
        self.push(n, memory_mb, now);
    }

    /// Drops every idle instance immediately (tenant-side teardown).
    pub fn cool_down(&mut self) {
        for (_, q) in &mut self.idle.sizes {
            self.stats.expired += q.drain(..).map(|(_, n)| u64::from(n)).sum::<u64>();
        }
    }

    /// Number of idle instances held, expired or not.
    pub fn len(&self) -> usize {
        let counts = self.idle.sizes.iter().flat_map(|(_, q)| q);
        counts.map(|&(_, n)| n as usize).sum()
    }

    /// Whether the pool holds no instances.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `n` instances idle since `now`: a new back cohort, or more
    /// of the back one when it went idle at the same instant. Time only
    /// moves forward, so the deque stays sorted.
    fn push(&mut self, n: u32, memory_mb: u32, now: SimTime) {
        if n == 0 {
            return;
        }
        let q = self.idle.deque(memory_mb);
        match q.back_mut() {
            Some((since, count)) if *since == now => *count += n,
            back => {
                debug_assert!(back.is_none_or(|(since, _)| *since < now), "time ran back");
                q.push_back((now, n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keepalive::{AdaptiveTtl, HistogramTtl};
    use ce_sim_core::rng::SimRng;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// The reference answer for both pools: the pool as whole-store
    /// scans over one record per instance, with no idle index and no
    /// cohorts. Every operation walks `instances` the way the pool did
    /// before it kept an index.
    struct ScanPool {
        instances: Vec<FunctionInstance>,
        next_id: u64,
        keep_alive: Box<dyn KeepAlive>,
        stats: PoolStats,
    }

    impl ScanPool {
        fn new(keep_alive: Box<dyn KeepAlive>) -> Self {
            ScanPool {
                instances: Vec::new(),
                next_id: 0,
                keep_alive,
                stats: PoolStats::default(),
            }
        }

        fn warm_count(&self, memory_mb: u32, now: SimTime) -> u32 {
            let ttl = self.keep_alive.ttl_s(now);
            self.instances
                .iter()
                .filter(|i| !i.executing && i.memory_mb == memory_mb && now - i.idle_since <= ttl)
                .count() as u32
        }

        fn reap(&mut self, now: SimTime) {
            let timeout = self.keep_alive.ttl_s(now);
            let before = self.instances.len();
            self.instances
                .retain(|i| i.executing || now - i.idle_since <= timeout);
            self.stats.expired += (before - self.instances.len()) as u64;
        }

        fn reap_detailed(&mut self, now: SimTime) -> Vec<ReapedInstance> {
            let timeout = self.keep_alive.ttl_s(now);
            let expired = |i: &FunctionInstance| !i.executing && now - i.idle_since > timeout;
            if !self.instances.iter().any(expired) {
                return Vec::new();
            }
            let mut reaped = Vec::new();
            let mut kept = Vec::with_capacity(self.instances.len());
            for inst in self.instances.drain(..) {
                if inst.executing || now - inst.idle_since <= timeout {
                    kept.push(inst);
                } else {
                    let retained_until = inst.idle_since + timeout;
                    reaped.push(ReapedInstance {
                        instance: inst,
                        retained_until,
                    });
                }
            }
            self.instances = kept;
            self.stats.expired += reaped.len() as u64;
            reaped
        }

        fn drain_remaining(&mut self, horizon: SimTime) -> Vec<ReapedInstance> {
            let timeout = self.keep_alive.ttl_s(horizon);
            let mut reaped = Vec::new();
            let mut kept = Vec::new();
            for inst in self.instances.drain(..) {
                if inst.executing {
                    kept.push(inst);
                } else {
                    let retained_until = SimTime::min(inst.idle_since + timeout, horizon);
                    reaped.push(ReapedInstance {
                        instance: inst,
                        retained_until,
                    });
                }
            }
            self.instances = kept;
            self.stats.expired += reaped.len() as u64;
            reaped
        }

        fn flush_idle(&mut self, now: SimTime) -> Vec<ReapedInstance> {
            self.drain_remaining(now)
        }

        fn retire(&mut self, id: FunctionId) -> FunctionInstance {
            let idx = self.instances.iter().position(|i| i.id == id).unwrap();
            assert!(self.instances[idx].executing);
            self.stats.retired += 1;
            self.instances.remove(idx)
        }

        fn cold_start(&mut self, memory_mb: u32, now: SimTime, executing: bool) -> FunctionId {
            let id = FunctionId(self.next_id);
            self.next_id += 1;
            self.instances.push(FunctionInstance {
                id,
                memory_mb,
                invocations: 0,
                busy_s: 0.0,
                created_at: now,
                idle_since: now,
                executing,
            });
            self.stats.created += 1;
            id
        }

        fn acquire(&mut self, n: u32, memory_mb: u32, now: SimTime) -> (Vec<FunctionId>, u32) {
            self.keep_alive.observe_arrival(now);
            self.reap(now);
            let mut ids = Vec::with_capacity(n as usize);
            let mut warm: Vec<usize> = (0..self.instances.len())
                .filter(|&i| {
                    !self.instances[i].executing && self.instances[i].memory_mb == memory_mb
                })
                .collect();
            warm.sort_by(|&a, &b| {
                self.instances[b]
                    .idle_since
                    .cmp(&self.instances[a].idle_since)
            });
            for &idx in warm.iter().take(n as usize) {
                self.instances[idx].executing = true;
                ids.push(self.instances[idx].id);
                self.stats.warm_hits += 1;
            }
            let cold = n - ids.len() as u32;
            for _ in 0..cold {
                ids.push(self.cold_start(memory_mb, now, true));
            }
            self.stats.invocations += u64::from(n);
            (ids, cold)
        }

        fn acquire_one(&mut self, memory_mb: u32, now: SimTime) -> (FunctionId, bool) {
            self.keep_alive.observe_arrival(now);
            let ttl = self.keep_alive.ttl_s(now);
            let mut best: Option<usize> = None;
            for (idx, inst) in self.instances.iter().enumerate() {
                if !inst.executing && inst.memory_mb == memory_mb && now - inst.idle_since <= ttl {
                    best = match best {
                        Some(b) if self.instances[b].idle_since >= inst.idle_since => Some(b),
                        _ => Some(idx),
                    };
                }
            }
            self.stats.invocations += 1;
            if let Some(idx) = best {
                self.instances[idx].executing = true;
                self.stats.warm_hits += 1;
                return (self.instances[idx].id, false);
            }
            (self.cold_start(memory_mb, now, true), true)
        }

        fn release(&mut self, ids: &[FunctionId], busy_s: f64, now: SimTime) {
            if busy_s > MAX_EXECUTION_S {
                self.stats.limit_breaches += ids.len() as u64;
            }
            for id in ids {
                let inst = self.instances.iter_mut().find(|i| i.id == *id).unwrap();
                assert!(inst.executing);
                inst.executing = false;
                inst.invocations += 1;
                inst.busy_s += busy_s;
                inst.idle_since = now;
            }
        }

        fn prewarm(&mut self, n: u32, memory_mb: u32, now: SimTime) {
            for _ in 0..n {
                self.cold_start(memory_mb, now, false);
            }
        }

        fn clear_idle(&mut self) {
            let before = self.instances.len();
            self.instances.retain(|i| i.executing);
            self.stats.expired += (before - self.instances.len()) as u64;
        }
    }

    /// Panics unless every idle instance appears exactly once in its
    /// memory size's index, in key order, and no executing one does.
    fn assert_index_consistent(pool: &InstancePool) {
        let mut indexed = 0;
        for (k, (mb, q)) in pool.idle.sizes.iter().enumerate() {
            assert!(
                pool.idle.sizes[..k].iter().all(|(other, _)| other != mb),
                "memory size {mb} indexed twice"
            );
            assert!(
                q.iter().zip(q.iter().skip(1)).all(|(a, b)| a < b),
                "index of {mb} MB out of key order"
            );
            for &(since, Reverse(id)) in q {
                let inst = &pool.instances[pool.position(FunctionId(id)).expect("indexed id live")];
                assert!(!inst.executing, "executing instance {id} indexed");
                assert_eq!(inst.memory_mb, *mb, "instance {id} under the wrong size");
                assert_eq!(inst.idle_since, since, "instance {id} under a stale key");
            }
            indexed += q.len();
        }
        let idle = pool.instances.iter().filter(|i| !i.executing).count();
        assert_eq!(indexed, idle, "idle instances missing from the index");
    }

    /// Panics unless two reaped lists match instance for instance, in
    /// order, with bit-equal `retained_until`.
    fn assert_same_reaped(got: &[ReapedInstance], want: &[ReapedInstance]) {
        assert_eq!(got, want);
        for (g, w) in got.iter().zip(want) {
            assert_eq!(
                g.retained_until.as_secs().to_bits(),
                w.retained_until.as_secs().to_bits()
            );
        }
    }

    /// Runs `body` against `iters` independent seeded cases, naming the
    /// failing case so its inputs can be re-derived.
    fn prop(label: &'static str, iters: u64, body: impl Fn(&mut SimRng)) {
        for case in 0..iters {
            let mut rng = SimRng::new(0x1D1E_1DE5).derive_idx(label, case);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
            if let Err(payload) = outcome {
                eprintln!("property `{label}` failed on case {case}/{iters}");
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// A keep-alive policy of any kind, with short enough windows that
    /// instances expire within a case.
    fn any_keep_alive(rng: &mut SimRng) -> Box<dyn KeepAlive> {
        match rng.gen_index(3) {
            0 => Box::new(FixedTtl([0.0, 5.0, 60.0, 600.0][rng.gen_index(4)])),
            1 => Box::new(AdaptiveTtl::new(
                rng.uniform_range(1.0, 4.0),
                rng.uniform_range(0.0, 10.0),
                rng.uniform_range(20.0, 400.0),
            )),
            _ => Box::new(HistogramTtl::new(
                [0.5, 0.9, 0.99][rng.gen_index(3)],
                rng.uniform_range(0.0, 10.0),
                rng.uniform_range(20.0, 400.0),
            )),
        }
    }

    /// Acquires `n` instances one request at a time at `now`.
    fn acquire_each(pool: &mut InstancePool, n: u32, memory_mb: u32, now: SimTime) -> Vec<u64> {
        (0..n)
            .map(|_| pool.acquire_one(memory_mb, now).0 .0)
            .collect()
    }

    #[test]
    fn first_acquire_is_all_cold() {
        let mut pool = WavePool::new();
        assert_eq!(pool.acquire(5, 1769, t(0.0)), 5);
        assert_eq!(pool.stats().created, 5);
        assert_eq!(pool.stats().warm_hits, 0);
        assert!(pool.is_empty(), "a wave in flight is not held");
    }

    #[test]
    fn release_then_acquire_reuses_warm() {
        let mut pool = WavePool::new();
        pool.acquire(5, 1769, t(0.0));
        pool.release(5, 1769, 10.0, t(10.0));
        assert_eq!(pool.warm_count(1769, t(10.0)), 5);
        assert_eq!(pool.acquire(5, 1769, t(10.0)), 0);
        assert_eq!(pool.stats().warm_hits, 5);
        // Same instances, reused: none created, none left idle.
        assert_eq!(pool.stats().created, 5);
        assert_eq!(pool.warm_count(1769, t(10.0)), 0);
    }

    #[test]
    fn memory_size_partitions_the_pool() {
        let mut pool = WavePool::new();
        pool.acquire(3, 1769, t(0.0));
        pool.release(3, 1769, 1.0, t(1.0));
        // Different memory: all cold.
        assert_eq!(pool.acquire(3, 3538, t(1.0)), 3);
        assert_eq!(pool.warm_count(1769, t(1.0)), 3);
    }

    #[test]
    fn idle_timeout_expires_instances() {
        let mut pool = WavePool::new();
        pool.acquire(4, 1769, t(0.0));
        pool.release(4, 1769, 1.0, t(1.0));
        assert_eq!(pool.warm_count(1769, t(500.0)), 4);
        // Past the 600 s idle window: expired.
        assert_eq!(pool.warm_count(1769, t(700.0)), 0);
        assert_eq!(pool.acquire(4, 1769, t(700.0)), 4);
        assert_eq!(pool.stats().expired, 4);
    }

    #[test]
    fn partial_warm_pool_cold_starts_the_rest() {
        let mut pool = WavePool::new();
        pool.acquire(3, 1769, t(0.0));
        pool.release(3, 1769, 1.0, t(1.0));
        assert_eq!(pool.acquire(8, 1769, t(1.0)), 5);
        assert_eq!(pool.stats().invocations, 11);
    }

    #[test]
    fn execution_limit_breaches_are_counted() {
        let mut pool = WavePool::new();
        pool.acquire(2, 1769, t(0.0));
        pool.release(2, 1769, 1200.0, t(1200.0));
        assert_eq!(pool.stats().limit_breaches, 2);
        // Within the limit: no breach.
        pool.acquire(2, 1769, t(1200.0));
        pool.release(2, 1769, 100.0, t(1300.0));
        assert_eq!(pool.stats().limit_breaches, 2);
    }

    #[test]
    fn cool_down_keeps_waves_in_flight() {
        let mut pool = WavePool::new();
        pool.acquire(2, 1769, t(0.0));
        pool.release(2, 1769, 1.0, t(1.0));
        pool.acquire(1, 1769, t(1.0));
        pool.cool_down();
        assert!(pool.is_empty());
        assert_eq!(pool.stats().expired, 1, "only the idle instance is dropped");
        // The wave in flight comes back warm.
        pool.release(1, 1769, 1.0, t(2.0));
        assert_eq!(pool.warm_count(1769, t(2.0)), 1);
    }

    #[test]
    fn wave_reuse_takes_the_newest_cohorts_first() {
        let mut pool = WavePool::new();
        pool.prewarm(4, 1769, t(0.0));
        pool.acquire(2, 1769, t(300.0));
        pool.release(2, 1769, 1.0, t(300.0));
        // A prewarm at the instant of a release joins its cohort.
        pool.prewarm(1, 1769, t(300.0));
        assert_eq!(pool.idle.get(1769).unwrap(), &[(t(0.0), 2), (t(300.0), 3)]);
        // Four reuse the three idle since 300, then split the older
        // cohort; the one left went idle at 0 and expires first.
        assert_eq!(pool.acquire(4, 1769, t(300.0)), 0);
        assert_eq!(pool.idle.get(1769).unwrap(), &[(t(0.0), 1)]);
        pool.release(4, 1769, 1.0, t(301.0));
        assert_eq!(pool.warm_count(1769, t(601.0)), 4);
        assert_eq!(pool.len(), 5);
        assert_eq!(pool.acquire(0, 1769, t(601.0)), 0);
        assert_eq!((pool.stats().expired, pool.len()), (1, 4));
    }

    #[test]
    fn wave_pool_matches_the_scanning_oracle() {
        prop("wave-pool-vs-scan", 200, |rng| {
            let mut pool = WavePool::new();
            let mut oracle = ScanPool::new(Box::new(FixedTtl(DEFAULT_TTL_S)));
            let sizes = [1769, 3008];
            // Waves in flight: their memory size and the oracle's ids.
            let mut waves: Vec<(u32, Vec<FunctionId>)> = Vec::new();
            let mut now = 0.0;
            for step in 0..300 {
                // Runs of one instant merge cohorts; long steps cross the
                // keep-alive window.
                now += match rng.gen_index(10) {
                    0..=3 => 0.0,
                    4..=7 => rng.uniform_range(0.0, 120.0),
                    _ => rng.uniform_range(500.0, 700.0),
                };
                let at = t(now);
                let memory_mb = sizes[rng.gen_index(sizes.len())];
                let ctx = format!("step {step} at {now}");
                match rng.gen_index(9) {
                    0..=2 => {
                        let n = rng.gen_index(12) as u32;
                        let (ids, cold) = oracle.acquire(n, memory_mb, at);
                        assert_eq!(pool.acquire(n, memory_mb, at), cold, "cold, {ctx}");
                        waves.push((memory_mb, ids));
                    }
                    3..=5 if !waves.is_empty() => {
                        let (mb, ids) = waves.swap_remove(rng.gen_index(waves.len()));
                        let busy_s = rng.uniform_range(0.0, 1_200.0);
                        pool.release(ids.len() as u32, mb, busy_s, at);
                        oracle.release(&ids, busy_s, at);
                        // A re-plan prewarms at the instant of a release.
                        if rng.bernoulli(0.3) {
                            let n = rng.gen_index(6) as u32;
                            pool.prewarm(n, mb, at);
                            oracle.prewarm(n, mb, at);
                        }
                    }
                    6 | 7 => {
                        let n = rng.gen_index(6) as u32;
                        pool.prewarm(n, memory_mb, at);
                        oracle.prewarm(n, memory_mb, at);
                    }
                    8 if rng.bernoulli(0.3) => {
                        pool.cool_down();
                        oracle.clear_idle();
                    }
                    _ => {}
                }
                for mb in sizes {
                    assert_eq!(
                        pool.warm_count(mb, at),
                        oracle.warm_count(mb, at),
                        "warm_count({mb}), {ctx}"
                    );
                }
                let idle = oracle.instances.iter().filter(|i| !i.executing).count();
                assert_eq!(pool.len(), idle, "idle instances held, {ctx}");
                assert_eq!(pool.stats(), oracle.stats, "stats, {ctx}");
            }
        });
    }

    #[test]
    fn busy_time_and_invocations_accumulate() {
        let mut pool = InstancePool::new();
        let (id, _) = pool.acquire_one(1769, t(0.0));
        pool.release(id, 5.0, t(5.0));
        let (id, _) = pool.acquire_one(1769, t(5.0));
        pool.release(id, 7.0, t(12.0));
        assert_eq!(pool.stats().invocations, 2);
        assert_eq!(pool.instances.len(), 1);
        assert_eq!(pool.instances[0].invocations, 2);
        assert_eq!(pool.instances[0].busy_s, 12.0);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut pool = InstancePool::new();
        let (id, _) = pool.acquire_one(1769, t(0.0));
        pool.release(id, 1.0, t(1.0));
        pool.release(id, 1.0, t(2.0));
    }

    #[test]
    fn acquire_one_reuses_mru_and_cold_starts() {
        let mut pool = InstancePool::new();
        let (a, cold) = pool.acquire_one(1769, t(0.0));
        assert!(cold);
        pool.release(a, 1.0, t(1.0));
        let (b, cold) = pool.acquire_one(1769, t(2.0));
        assert!(!cold);
        assert_eq!(a, b, "single warm instance is reused");
        // While b executes, a second request must cold-start.
        let (c, cold) = pool.acquire_one(1769, t(2.5));
        assert!(cold);
        assert_ne!(b, c);
        pool.release(b, 1.0, t(3.0));
        pool.release(c, 1.0, t(3.5));
        // MRU: the most recently released (c) wins the next request.
        let (d, cold) = pool.acquire_one(1769, t(4.0));
        assert!(!cold);
        assert_eq!(d, c);
        assert_eq!(pool.stats().invocations, 4);
        assert_eq!(pool.stats().warm_hits, 2);
    }

    #[test]
    fn acquire_one_respects_keep_alive_expiry() {
        let mut pool = InstancePool::new().with_keep_alive(Box::new(FixedTtl(30.0)));
        let (a, _) = pool.acquire_one(1769, t(0.0));
        pool.release(a, 1.0, t(1.0));
        let (_, cold) = pool.acquire_one(1769, t(100.0));
        assert!(cold, "past the 30 s TTL the warm instance is unusable");
    }

    #[test]
    fn reap_detailed_reports_warm_lifetime() {
        let mut pool = InstancePool::new();
        let (id, _) = pool.acquire_one(1769, t(0.0));
        pool.release(id, 10.0, t(10.0));
        let reaped = pool.reap_detailed(t(2000.0));
        assert_eq!(reaped.len(), 1);
        let r = &reaped[0];
        // Warm until idle_since (10) + ttl (600) = 610; created at 0 with
        // 10 s busy => 600 s of pure keep-warm idling.
        assert_eq!(r.retained_until, t(610.0));
        assert!((r.warm_idle_s() - 600.0).abs() < 1e-9);
        assert_eq!(pool.stats().expired, 1);
        assert!(pool.instances.is_empty());
    }

    #[test]
    fn drain_remaining_caps_at_the_horizon() {
        let mut pool = InstancePool::new();
        let (id, _) = pool.acquire_one(1769, t(0.0));
        pool.release(id, 5.0, t(5.0));
        // Horizon before the TTL would expire the instance.
        let reaped = pool.drain_remaining(t(100.0));
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].retained_until, t(100.0));
        assert!((reaped[0].warm_idle_s() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn retire_removes_executing_instances() {
        let mut pool = InstancePool::new();
        let (a, _) = pool.acquire_one(1769, t(0.0));
        let (b, _) = pool.acquire_one(1769, t(0.0));
        assert_eq!(pool.retire(a).id, a);
        assert_eq!(pool.stats().retired, 1);
        assert_eq!(pool.instances.len(), 1);
        // The survivor still releases normally.
        pool.release(b, 1.0, t(1.0));
    }

    #[test]
    #[should_panic(expected = "retire of idle instance")]
    fn retire_of_idle_instance_panics() {
        let mut pool = InstancePool::new();
        let (id, _) = pool.acquire_one(1769, t(0.0));
        pool.release(id, 1.0, t(1.0));
        pool.retire(id);
    }

    #[test]
    fn adaptive_keep_alive_shrinks_the_warm_window() {
        // Steady 5 s arrivals teach the adaptive policy a ~15 s TTL, so a
        // 60 s gap expires the instance where FixedTtl(600) would not.
        let mut pool =
            InstancePool::new().with_keep_alive(Box::new(AdaptiveTtl::new(3.0, 1.0, 1e9)));
        let mut now = 0.0;
        for _ in 0..100 {
            let (id, _) = pool.acquire_one(1769, t(now));
            pool.release(id, 1.0, t(now + 1.0));
            now += 5.0;
        }
        assert_eq!(pool.warm_count(1769, t(now)), 1);
        assert_eq!(pool.warm_count(1769, t(now + 60.0)), 0, "adaptive expiry");
        let mut fixed = InstancePool::new();
        let (id, _) = fixed.acquire_one(1769, t(0.0));
        fixed.release(id, 1.0, t(1.0));
        assert_eq!(fixed.warm_count(1769, t(61.0)), 1, "fixed 600 s survives");
    }

    #[test]
    fn every_mutation_keeps_the_pool_sorted_by_id() {
        // `release` and `retire` find instances by binary search, which
        // needs the id order to survive any mix of mutations.
        let mut rng = ce_sim_core::rng::SimRng::new(11);
        let mut pool = InstancePool::new();
        let mut executing: Vec<FunctionId> = Vec::new();
        let mut now = 0.0;
        for _ in 0..2_000 {
            now += rng.uniform_range(0.0, 200.0);
            let memory_mb = [512, 1769][rng.gen_index(2)];
            match rng.gen_index(7) {
                0 => {
                    let n = rng.gen_index(6) as u32;
                    let ids = acquire_each(&mut pool, n, memory_mb, t(now));
                    executing.extend(ids.into_iter().map(FunctionId));
                }
                1 => executing.push(pool.acquire_one(memory_mb, t(now)).0),
                2 => pool.prewarm(rng.gen_index(4) as u32, memory_mb, t(now)),
                3 if !executing.is_empty() => {
                    let id = executing.swap_remove(rng.gen_index(executing.len()));
                    assert_eq!(pool.retire(id).id, id);
                }
                4 => {
                    pool.reap_detailed(t(now));
                }
                5 if rng.bernoulli(0.1) => {
                    pool.flush_idle(t(now));
                }
                _ => {
                    rng.shuffle(&mut executing);
                    let n = rng.gen_index(executing.len() + 1);
                    for id in executing.split_off(n) {
                        pool.release(id, 1.0, t(now));
                    }
                }
            }
            assert!(
                pool.instances.windows(2).all(|w| w[0].id.0 < w[1].id.0),
                "pool out of id order"
            );
            assert!(executing.iter().all(|&id| pool.position(id).is_some()));
            assert_index_consistent(&pool);
        }
    }

    #[test]
    fn indexed_pool_matches_the_scanning_oracle() {
        prop("indexed-pool-vs-scan", 120, |rng| {
            let policy = any_keep_alive(rng);
            let mut pool = InstancePool::new().with_keep_alive(policy.clone());
            let mut oracle = ScanPool::new(policy);
            let sizes = [512, 1769, 3008];
            let mut executing: Vec<FunctionId> = Vec::new();
            let mut now = 0.0;
            for step in 0..300 {
                // Runs of one instant exercise the tie rule; a rare step
                // back exercises inserts below the back of an index.
                now = match rng.gen_index(10) {
                    0..=3 => now,
                    4..=7 => now + rng.uniform_range(0.0, 20.0),
                    8 => now + rng.uniform_range(0.0, 500.0),
                    _ => (now - rng.uniform_range(0.0, 5.0)).max(0.0),
                };
                let at = t(now);
                let memory_mb = sizes[rng.gen_index(sizes.len())];
                let ctx = format!("step {step} at {now}");
                match rng.gen_index(12) {
                    0 => {
                        // A burst of requests at one instant.
                        for _ in 0..rng.gen_index(8) {
                            let got = pool.acquire_one(memory_mb, at);
                            assert_eq!(got, oracle.acquire_one(memory_mb, at), "burst, {ctx}");
                            executing.push(got.0);
                        }
                    }
                    1 | 2 => {
                        let got = pool.acquire_one(memory_mb, at);
                        assert_eq!(got, oracle.acquire_one(memory_mb, at), "acquire_one, {ctx}");
                        executing.push(got.0);
                    }
                    3 | 4 => {
                        // Releases at one instant, in random id order.
                        rng.shuffle(&mut executing);
                        let keep = rng.gen_index(executing.len() + 1);
                        for id in executing.split_off(keep) {
                            let busy_s = rng.uniform_range(0.0, 1_000.0);
                            pool.release(id, busy_s, at);
                            oracle.release(&[id], busy_s, at);
                        }
                    }
                    5 => {
                        let n = rng.gen_index(5) as u32;
                        pool.prewarm(n, memory_mb, at);
                        oracle.prewarm(n, memory_mb, at);
                    }
                    6..=8 => {
                        let got = pool.reap_detailed(at);
                        assert_same_reaped(&got, &oracle.reap_detailed(at));
                    }
                    9 if !executing.is_empty() => {
                        let id = executing.swap_remove(rng.gen_index(executing.len()));
                        assert_eq!(pool.retire(id), oracle.retire(id), "retire, {ctx}");
                    }
                    10 => match rng.gen_index(4) {
                        0 => assert_same_reaped(&pool.flush_idle(at), &oracle.flush_idle(at)),
                        1 => assert_same_reaped(
                            &pool.drain_remaining(at),
                            &oracle.drain_remaining(at),
                        ),
                        _ => {}
                    },
                    _ => {}
                }
                for mb in sizes {
                    assert_eq!(
                        pool.warm_count(mb, at),
                        oracle.warm_count(mb, at),
                        "warm_count({mb}), {ctx}"
                    );
                }
                assert_eq!(pool.instances, oracle.instances, "store, {ctx}");
                assert_eq!(pool.stats(), oracle.stats, "stats, {ctx}");
                assert_index_consistent(&pool);
            }
        });
    }

    #[test]
    fn warm_reuse_takes_the_lowest_id_among_the_latest() {
        let mut pool = InstancePool::new();
        assert_eq!(
            acquire_each(&mut pool, 6, 1769, t(0.0)),
            vec![0, 1, 2, 3, 4, 5]
        );
        // 0 goes idle at 4 and 3 at 5. Also at 5: releases in shuffled
        // id order, and a prewarm of 6 and 7.
        pool.release(FunctionId(0), 1.0, t(4.0));
        pool.release(FunctionId(3), 1.0, t(5.0));
        for id in [5, 1, 4] {
            pool.release(FunctionId(id), 1.0, t(5.0));
        }
        pool.prewarm(2, 1769, t(5.0));
        assert_index_consistent(&pool);
        let (one, cold) = pool.acquire_one(1769, t(6.0));
        assert_eq!((one, cold), (FunctionId(1), false));
        // Most recent first, ascending ids among ties, then the older 0.
        assert_eq!(
            acquire_each(&mut pool, 6, 1769, t(6.0)),
            vec![3, 4, 5, 6, 7, 0]
        );
        assert_eq!(pool.stats().created, 8);
    }

    #[test]
    fn reaped_and_drained_instances_come_out_in_id_order() {
        let mut pool = InstancePool::new().with_keep_alive(Box::new(FixedTtl(10.0)));
        assert_eq!(acquire_each(&mut pool, 3, 3008, t(0.0)), vec![0, 1, 2]);
        assert_eq!(acquire_each(&mut pool, 3, 512, t(0.0)), vec![3, 4, 5]);
        // Idle order interleaves the two sizes and runs against the ids.
        for (id, at) in [(5, 1.0), (1, 1.0), (2, 2.0), (3, 2.0), (4, 3.0), (0, 3.0)] {
            pool.release(FunctionId(id), 1.0, t(at));
        }
        let ids = |r: &[ReapedInstance]| r.iter().map(|r| r.instance.id.0).collect::<Vec<_>>();
        let reaped = pool.reap_detailed(t(12.5));
        assert_eq!(ids(&reaped), vec![1, 2, 3, 5]);
        assert_eq!(reaped[0].retained_until, t(11.0));
        let more = acquire_each(&mut pool, 2, 512, t(12.5));
        assert_eq!(more, vec![4, 6], "4 warm, 6 cold");
        for id in more {
            pool.release(FunctionId(id), 1.0, t(12.5));
        }
        let drained = pool.drain_remaining(t(20.0));
        assert_eq!(ids(&drained), vec![0, 4, 6]);
        assert!(pool.instances.is_empty());
        assert_index_consistent(&pool);
    }
}
