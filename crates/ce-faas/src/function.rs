//! Function-instance lifecycle: warm pools with idle expiry, invocation
//! accounting, and execution-limit tracking.
//!
//! AWS Lambda keeps an invoked instance warm for a provider-determined
//! idle window (minutes), reuses it for subsequent invocations at the
//! same memory size, and enforces a hard per-invocation execution limit
//! (15 min). The pool models exactly that: [`InstancePool::acquire`]
//! reuses unexpired warm instances of the right size and cold-starts the
//! remainder; [`InstancePool::release`] returns them warm; invocations
//! that exceed the execution limit are *counted* (the simulator's
//! epochs are atomic, so the breach is surfaced as a diagnostic rather
//! than a mid-epoch kill).

use crate::keepalive::{FixedTtl, KeepAlive};
use ce_sim_core::time::SimTime;
use std::cmp::Reverse;
use std::collections::VecDeque;

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

/// Sort key of an idle instance in its memory size's index: the instant
/// it went idle, then its id reversed. The back of an index is thus the
/// most recently used instance, the lowest id among ties.
type IdleKey = (SimTime, Reverse<u64>);

/// Whether an instance idle since `idle_since` has expired as of `now`.
/// `now - idle_since` falls as `idle_since` rises, so in key order the
/// expired instances of an index are a prefix.
fn expired(now: SimTime, idle_since: SimTime, ttl: f64) -> bool {
    now - idle_since > ttl
}

/// The idle instances of a pool, one key-sorted deque per memory size.
#[derive(Debug, Clone, Default)]
struct IdleIndex {
    sizes: Vec<(u32, VecDeque<IdleKey>)>,
}

impl IdleIndex {
    fn get(&self, memory_mb: u32) -> Option<&VecDeque<IdleKey>> {
        self.sizes
            .iter()
            .find(|(mb, _)| *mb == memory_mb)
            .map(|(_, q)| q)
    }

    /// `memory_mb`'s deque, created empty if new.
    fn deque(&mut self, memory_mb: u32) -> &mut VecDeque<IdleKey> {
        let s = match self.sizes.iter().position(|(mb, _)| *mb == memory_mb) {
            Some(s) => s,
            None => {
                self.sizes.push((memory_mb, VecDeque::new()));
                self.sizes.len() - 1
            }
        };
        &mut self.sizes[s].1
    }

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

    fn clear(&mut self) {
        for (_, q) in &mut self.sizes {
            q.clear();
        }
    }
}

/// A pool of function instances for one tenant.
#[derive(Debug, Clone)]
pub struct InstancePool {
    /// Live instances, sorted by id: ids are handed out in increasing
    /// order, new instances are only ever appended, and every removal
    /// keeps the survivors' order. [`InstancePool::position`] relies on it.
    instances: Vec<FunctionInstance>,
    /// Every idle instance of `instances`, once, under its memory size,
    /// sorted by [`IdleKey`]; no executing instance. Warm reuse takes
    /// the back, idle expiry pops the front.
    idle: IdleIndex,
    next_id: u64,
    /// Idle-expiry policy (default: the provider's fixed 600 s window).
    keep_alive: Box<dyn KeepAlive>,
    /// Per-invocation execution limit (Lambda: 900 s).
    pub max_execution_s: f64,
    stats: PoolStats,
}

impl InstancePool {
    /// Creates a pool with Lambda-like defaults (fixed 10 min idle
    /// expiry, 15 min execution limit).
    pub fn new() -> Self {
        InstancePool {
            instances: Vec::new(),
            idle: IdleIndex::default(),
            next_id: 0,
            keep_alive: Box::new(FixedTtl::default()),
            max_execution_s: 900.0,
            stats: PoolStats::default(),
        }
    }

    /// Replaces the idle-expiry policy (builder form).
    pub fn with_keep_alive(mut self, policy: Box<dyn KeepAlive>) -> Self {
        self.keep_alive = policy;
        self
    }

    /// Replaces the idle-expiry policy in place.
    pub fn set_keep_alive(&mut self, policy: Box<dyn KeepAlive>) {
        self.keep_alive = policy;
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

    /// Reaps instances idle past the keep-alive TTL as of `now`.
    pub fn reap(&mut self, now: SimTime) {
        self.reap_detailed(now);
    }

    /// Like [`InstancePool::reap`], but returns the removed instances in
    /// id order, annotated with the instant each stopped being warm
    /// (`idle_since + ttl`), so callers can bill keep-warm time exactly.
    /// When nothing has expired this costs one comparison per memory
    /// size.
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
        self.idle.clear();
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

    /// Force-kills executing instances (a chaos crash, not idle expiry)
    /// and returns them. Panics if an id is missing or not executing.
    pub fn retire(&mut self, ids: &[FunctionId]) -> Vec<FunctionInstance> {
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let idx = self.position(*id).expect("retired instance exists");
            assert!(
                self.instances[idx].executing,
                "retire of idle instance {id:?}"
            );
            out.push(self.instances.remove(idx));
        }
        self.stats.retired += ids.len() as u64;
        out
    }

    /// Acquires `n` instances of `memory_mb` at time `now`, reusing warm
    /// ones first, most recently used first (Lambda's observed policy)
    /// and the lowest id among ties. Returns the acquired ids and how
    /// many cold-started.
    pub fn acquire(&mut self, n: u32, memory_mb: u32, now: SimTime) -> (Vec<FunctionId>, u32) {
        self.keep_alive.observe_arrival(now);
        // After the reap every indexed instance is unexpired.
        self.reap(now);
        let q = self.idle.deque(memory_mb);
        let warm = q.len().min(n as usize);
        let mut ids = Vec::with_capacity(n as usize);
        ids.extend(
            q.drain(q.len() - warm..)
                .rev()
                .map(|(_, Reverse(id))| FunctionId(id)),
        );
        let mut sorted = ids.clone();
        sorted.sort_unstable_by_key(|id| id.0);
        self.for_each_sorted(&sorted, |inst| inst.executing = true);
        self.stats.warm_hits += warm as u64;
        let cold = n - warm as u32;
        for _ in 0..cold {
            ids.push(self.provision(memory_mb, now, true));
        }
        self.stats.invocations += u64::from(n);
        (ids, cold)
    }

    /// Acquires a single instance for one request (the serving fast
    /// path): reuses the most-recently-used unexpired warm instance at
    /// `memory_mb`, the lowest id among ties, else cold-starts one.
    /// Returns the id and whether it cold-started. Unlike
    /// [`InstancePool::acquire`], this does not reap — serving loops
    /// reap on their own cadence via [`InstancePool::reap_detailed`].
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

    /// Releases instances after an invocation of `busy_s` seconds ending
    /// at `now`.
    pub fn release(&mut self, ids: &[FunctionId], busy_s: f64, now: SimTime) {
        if busy_s > self.max_execution_s {
            self.stats.limit_breaches += ids.len() as u64;
        }
        let mut order = Vec::new();
        let ids = if ids.len() > 1 {
            order.extend_from_slice(ids);
            order.sort_unstable_by_key(|id| id.0);
            &order
        } else {
            ids
        };
        let (mut memory_mb, mut mixed) = (None, false);
        self.for_each_sorted(ids, |inst| {
            assert!(inst.executing, "double release of {:?}", inst.id);
            inst.executing = false;
            inst.invocations += 1;
            inst.busy_s += busy_s;
            inst.idle_since = now;
            mixed |= memory_mb.is_some_and(|mb| mb != inst.memory_mb);
            memory_mb = Some(inst.memory_mb);
        });
        // Descending ids give ascending keys at one instant.
        let keys = ids.iter().rev().map(|id| (now, Reverse(id.0)));
        match memory_mb {
            Some(mb) if !mixed => IdleIndex::insert(self.idle.deque(mb), keys),
            // A batch over several memory sizes: index each id on its own.
            Some(_) => {
                for id in ids.iter().rev() {
                    let idx = self.position(*id).expect("released instance exists");
                    let q = self.idle.deque(self.instances[idx].memory_mb);
                    IdleIndex::insert(q, std::iter::once((now, Reverse(id.0))));
                }
            }
            None => {}
        }
    }

    /// Provisions `n` warm instances at `memory_mb` without invoking
    /// them (AWS "provisioned concurrency" / the planner's pre-warming
    /// before a stage starts).
    pub fn prewarm(&mut self, n: u32, memory_mb: u32, now: SimTime) {
        let first = self.next_id;
        for _ in 0..n {
            self.provision(memory_mb, now, false);
        }
        // Descending ids give ascending keys, as in `release`.
        let keys = (first..self.next_id).rev().map(|id| (now, Reverse(id)));
        IdleIndex::insert(self.idle.deque(memory_mb), keys);
    }

    /// Drops every idle instance immediately (tenant-side teardown).
    pub fn clear_idle(&mut self) {
        let before = self.instances.len();
        self.idle.clear();
        self.instances.retain(|i| i.executing);
        self.stats.expired += (before - self.instances.len()) as u64;
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

    /// Applies `f` to the live instances `ids` (ascending), found by one
    /// binary search each for a few ids or by one merge pass over the
    /// store for a large batch. Panics if an id is not live.
    fn for_each_sorted(&mut self, ids: &[FunctionId], mut f: impl FnMut(&mut FunctionInstance)) {
        let few = ids.len() * 16 < self.instances.len();
        let mut at = 0;
        for id in ids {
            let rest = &self.instances[at..];
            at += if few {
                rest.partition_point(|i| i.id.0 < id.0)
            } else {
                rest.iter()
                    .position(|i| i.id.0 >= id.0)
                    .unwrap_or(rest.len())
            };
            match self.instances.get_mut(at) {
                Some(inst) if inst.id == *id => f(inst),
                _ => panic!("instance {id:?} is not live"),
            }
        }
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

    /// Number of live (warm or executing) instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the pool holds no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

impl Default for InstancePool {
    fn default() -> Self {
        Self::new()
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

    /// The reference answer: the pool as whole-store scans, with no idle
    /// index. Every operation walks `instances` the way the pool did
    /// before it kept one.
    struct ScanPool {
        instances: Vec<FunctionInstance>,
        next_id: u64,
        keep_alive: Box<dyn KeepAlive>,
        max_execution_s: f64,
        stats: PoolStats,
    }

    impl ScanPool {
        fn new(keep_alive: Box<dyn KeepAlive>) -> Self {
            ScanPool {
                instances: Vec::new(),
                next_id: 0,
                keep_alive,
                max_execution_s: 900.0,
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

        fn retire(&mut self, ids: &[FunctionId]) -> Vec<FunctionInstance> {
            let mut out = Vec::with_capacity(ids.len());
            for id in ids {
                let idx = self.instances.iter().position(|i| i.id == *id).unwrap();
                assert!(self.instances[idx].executing);
                out.push(self.instances.remove(idx));
            }
            self.stats.retired += ids.len() as u64;
            out
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
            if busy_s > self.max_execution_s {
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

    #[test]
    fn first_acquire_is_all_cold() {
        let mut pool = InstancePool::new();
        let (ids, cold) = pool.acquire(5, 1769, t(0.0));
        assert_eq!(ids.len(), 5);
        assert_eq!(cold, 5);
        assert_eq!(pool.stats().created, 5);
        assert_eq!(pool.stats().warm_hits, 0);
    }

    #[test]
    fn release_then_acquire_reuses_warm() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(5, 1769, t(0.0));
        pool.release(&ids, 10.0, t(10.0));
        let (ids2, cold) = pool.acquire(5, 1769, t(10.0));
        assert_eq!(cold, 0);
        assert_eq!(pool.stats().warm_hits, 5);
        // Same instances, reused.
        let mut a: Vec<u64> = ids.iter().map(|i| i.0).collect();
        let mut b: Vec<u64> = ids2.iter().map(|i| i.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn memory_size_partitions_the_pool() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(3, 1769, t(0.0));
        pool.release(&ids, 1.0, t(1.0));
        // Different memory: all cold.
        let (_, cold) = pool.acquire(3, 3538, t(1.0));
        assert_eq!(cold, 3);
        assert_eq!(pool.warm_count(1769, t(1.0)), 3);
    }

    #[test]
    fn idle_timeout_expires_instances() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(4, 1769, t(0.0));
        pool.release(&ids, 1.0, t(1.0));
        assert_eq!(pool.warm_count(1769, t(500.0)), 4);
        // Past the 600 s idle window: expired.
        assert_eq!(pool.warm_count(1769, t(700.0)), 0);
        let (_, cold) = pool.acquire(4, 1769, t(700.0));
        assert_eq!(cold, 4);
        assert_eq!(pool.stats().expired, 4);
    }

    #[test]
    fn partial_warm_pool_cold_starts_the_rest() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(3, 1769, t(0.0));
        pool.release(&ids, 1.0, t(1.0));
        let (ids2, cold) = pool.acquire(8, 1769, t(1.0));
        assert_eq!(ids2.len(), 8);
        assert_eq!(cold, 5);
    }

    #[test]
    fn execution_limit_breaches_are_counted() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(2, 1769, t(0.0));
        pool.release(&ids, 1200.0, t(1200.0));
        assert_eq!(pool.stats().limit_breaches, 2);
        // Within the limit: no breach.
        let (ids, _) = pool.acquire(2, 1769, t(1200.0));
        pool.release(&ids, 100.0, t(1300.0));
        assert_eq!(pool.stats().limit_breaches, 2);
    }

    #[test]
    fn busy_time_and_invocations_accumulate() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(1, 1769, t(0.0));
        pool.release(&ids, 5.0, t(5.0));
        let (ids, _) = pool.acquire(1, 1769, t(5.0));
        pool.release(&ids, 7.0, t(12.0));
        assert_eq!(pool.stats().invocations, 2);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(1, 1769, t(0.0));
        pool.release(&ids, 1.0, t(1.0));
        pool.release(&ids, 1.0, t(2.0));
    }

    #[test]
    fn acquire_one_reuses_mru_and_cold_starts() {
        let mut pool = InstancePool::new();
        let (a, cold) = pool.acquire_one(1769, t(0.0));
        assert!(cold);
        pool.release(&[a], 1.0, t(1.0));
        let (b, cold) = pool.acquire_one(1769, t(2.0));
        assert!(!cold);
        assert_eq!(a, b, "single warm instance is reused");
        // While b executes, a second request must cold-start.
        let (c, cold) = pool.acquire_one(1769, t(2.5));
        assert!(cold);
        assert_ne!(b, c);
        pool.release(&[b], 1.0, t(3.0));
        pool.release(&[c], 1.0, t(3.5));
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
        pool.release(&[a], 1.0, t(1.0));
        let (_, cold) = pool.acquire_one(1769, t(100.0));
        assert!(cold, "past the 30 s TTL the warm instance is unusable");
    }

    #[test]
    fn reap_detailed_reports_warm_lifetime() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(1, 1769, t(0.0));
        pool.release(&ids, 10.0, t(10.0));
        let reaped = pool.reap_detailed(t(2000.0));
        assert_eq!(reaped.len(), 1);
        let r = &reaped[0];
        // Warm until idle_since (10) + ttl (600) = 610; created at 0 with
        // 10 s busy => 600 s of pure keep-warm idling.
        assert_eq!(r.retained_until, t(610.0));
        assert!((r.warm_idle_s() - 600.0).abs() < 1e-9);
        assert_eq!(pool.stats().expired, 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn drain_remaining_caps_at_the_horizon() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(1, 1769, t(0.0));
        pool.release(&ids, 5.0, t(5.0));
        // Horizon before the TTL would expire the instance.
        let reaped = pool.drain_remaining(t(100.0));
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].retained_until, t(100.0));
        assert!((reaped[0].warm_idle_s() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn retire_removes_executing_instances() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(2, 1769, t(0.0));
        let killed = pool.retire(&ids[..1]);
        assert_eq!(killed.len(), 1);
        assert_eq!(killed[0].id, ids[0]);
        assert_eq!(pool.stats().retired, 1);
        assert_eq!(pool.len(), 1);
        // The survivor still releases normally.
        pool.release(&ids[1..], 1.0, t(1.0));
    }

    #[test]
    #[should_panic(expected = "retire of idle instance")]
    fn retire_of_idle_instance_panics() {
        let mut pool = InstancePool::new();
        let (ids, _) = pool.acquire(1, 1769, t(0.0));
        pool.release(&ids, 1.0, t(1.0));
        pool.retire(&ids);
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
            pool.release(&[id], 1.0, t(now + 1.0));
            now += 5.0;
        }
        assert_eq!(pool.warm_count(1769, t(now)), 1);
        assert_eq!(pool.warm_count(1769, t(now + 60.0)), 0, "adaptive expiry");
        let mut fixed = InstancePool::new();
        let (id, _) = fixed.acquire_one(1769, t(0.0));
        fixed.release(&[id], 1.0, t(1.0));
        assert_eq!(fixed.warm_count(1769, t(61.0)), 1, "fixed 600 s survives");
    }

    #[test]
    fn clear_idle_keeps_executing_instances() {
        let mut pool = InstancePool::new();
        let (first, _) = pool.acquire(2, 1769, t(0.0));
        pool.release(&first, 1.0, t(1.0));
        let (_executing, _) = pool.acquire(1, 1769, t(1.0));
        pool.clear_idle();
        assert_eq!(pool.len(), 1);
        assert!(!pool.is_empty());
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
                0 => executing.extend(pool.acquire(rng.gen_index(6) as u32, memory_mb, t(now)).0),
                1 => executing.push(pool.acquire_one(memory_mb, t(now)).0),
                2 => pool.prewarm(rng.gen_index(4) as u32, memory_mb, t(now)),
                3 if !executing.is_empty() => {
                    let id = executing.swap_remove(rng.gen_index(executing.len()));
                    assert_eq!(pool.retire(&[id])[0].id, id);
                }
                4 => {
                    pool.reap_detailed(t(now));
                }
                5 if rng.bernoulli(0.1) => pool.clear_idle(),
                _ => {
                    rng.shuffle(&mut executing);
                    let n = rng.gen_index(executing.len() + 1);
                    pool.release(&executing.split_off(n), 1.0, t(now));
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
                        let n = rng.gen_index(8) as u32;
                        let got = pool.acquire(n, memory_mb, at);
                        assert_eq!(got, oracle.acquire(n, memory_mb, at), "acquire, {ctx}");
                        executing.extend(got.0);
                    }
                    1 | 2 => {
                        let got = pool.acquire_one(memory_mb, at);
                        assert_eq!(got, oracle.acquire_one(memory_mb, at), "acquire_one, {ctx}");
                        executing.push(got.0);
                    }
                    3 | 4 => {
                        // A batch at one instant, in random id order.
                        rng.shuffle(&mut executing);
                        let keep = rng.gen_index(executing.len() + 1);
                        let batch = executing.split_off(keep);
                        let busy_s = rng.uniform_range(0.0, 1_000.0);
                        pool.release(&batch, busy_s, at);
                        oracle.release(&batch, busy_s, at);
                    }
                    5 => {
                        let n = rng.gen_index(5) as u32;
                        pool.prewarm(n, memory_mb, at);
                        oracle.prewarm(n, memory_mb, at);
                    }
                    6 => {
                        pool.reap(at);
                        oracle.reap(at);
                    }
                    7 | 8 => {
                        let got = pool.reap_detailed(at);
                        assert_same_reaped(&got, &oracle.reap_detailed(at));
                    }
                    9 if !executing.is_empty() => {
                        rng.shuffle(&mut executing);
                        let n = 1 + rng.gen_index(executing.len().min(3));
                        let gone = executing.split_off(executing.len() - n);
                        assert_eq!(pool.retire(&gone), oracle.retire(&gone), "retire, {ctx}");
                    }
                    10 => match rng.gen_index(6) {
                        0 => assert_same_reaped(&pool.flush_idle(at), &oracle.flush_idle(at)),
                        1 => assert_same_reaped(
                            &pool.drain_remaining(at),
                            &oracle.drain_remaining(at),
                        ),
                        2 => {
                            pool.clear_idle();
                            oracle.clear_idle();
                        }
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
        let (ids, _) = pool.acquire(6, 1769, t(0.0)); // ids 0..6
        pool.release(&ids[..1], 1.0, t(4.0)); // 0 idle since 4
        pool.release(&ids[3..4], 1.0, t(5.0)); // 3 idle since 5
                                               // A release batch in shuffled order and a prewarm, both at 5.
        pool.release(&[ids[5], ids[1], ids[4]], 1.0, t(5.0));
        pool.prewarm(2, 1769, t(5.0)); // 6 and 7
        assert_index_consistent(&pool);
        let (one, cold) = pool.acquire_one(1769, t(6.0));
        assert_eq!((one, cold), (FunctionId(1), false));
        // Most recent first, ascending ids among ties, then the older 0.
        let (batch, cold) = pool.acquire(6, 1769, t(6.0));
        let batch: Vec<u64> = batch.iter().map(|id| id.0).collect();
        assert_eq!((batch, cold), (vec![3, 4, 5, 6, 7, 0], 0));
    }

    #[test]
    fn reaped_and_drained_instances_come_out_in_id_order() {
        let mut pool = InstancePool::new().with_keep_alive(Box::new(FixedTtl(10.0)));
        let (big, _) = pool.acquire(3, 3008, t(0.0)); // 0, 1, 2
        let (small, _) = pool.acquire(3, 512, t(0.0)); // 3, 4, 5
                                                       // Idle order interleaves the two sizes and runs against the ids.
        pool.release(&[small[2], big[1]], 1.0, t(1.0));
        pool.release(&[big[2], small[0]], 1.0, t(2.0));
        pool.release(&[small[1], big[0]], 1.0, t(3.0));
        let ids = |r: &[ReapedInstance]| r.iter().map(|r| r.instance.id.0).collect::<Vec<_>>();
        let reaped = pool.reap_detailed(t(12.5));
        assert_eq!(ids(&reaped), vec![1, 2, 3, 5]);
        assert_eq!(reaped[0].retained_until, t(11.0));
        let (more, _) = pool.acquire(2, 512, t(12.5)); // 4 warm, 6 cold
        pool.release(&more, 1.0, t(12.5));
        let drained = pool.drain_remaining(t(20.0));
        assert_eq!(ids(&drained), vec![0, 4, 6]);
        assert!(pool.is_empty());
        assert_index_consistent(&pool);
    }
}
