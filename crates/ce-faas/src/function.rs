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
use serde::{Deserialize, Serialize};

/// Identifier of one function instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FunctionId(pub u64);

/// One warm (or executing) function instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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

/// A pool of function instances for one tenant.
#[derive(Debug, Clone)]
pub struct InstancePool {
    /// Live instances, sorted by id: ids are handed out in increasing
    /// order, new instances are only ever appended, and every removal
    /// keeps the survivors' order. [`InstancePool::position`] relies on it.
    instances: Vec<FunctionInstance>,
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
    /// `memory_mb`.
    pub fn warm_count(&self, memory_mb: u32, now: SimTime) -> u32 {
        let ttl = self.keep_alive.ttl_s(now);
        self.instances
            .iter()
            .filter(|i| !i.executing && i.memory_mb == memory_mb && now - i.idle_since <= ttl)
            .count() as u32
    }

    /// Reaps instances idle past the keep-alive TTL as of `now`.
    pub fn reap(&mut self, now: SimTime) {
        let timeout = self.keep_alive.ttl_s(now);
        let before = self.instances.len();
        self.instances
            .retain(|i| i.executing || now - i.idle_since <= timeout);
        self.stats.expired += (before - self.instances.len()) as u64;
    }

    /// Like [`InstancePool::reap`], but returns the removed instances
    /// annotated with the instant each stopped being warm
    /// (`idle_since + ttl`), so callers can bill keep-warm time exactly.
    pub fn reap_detailed(&mut self, now: SimTime) -> Vec<ReapedInstance> {
        let timeout = self.keep_alive.ttl_s(now);
        let expired = |i: &FunctionInstance| !i.executing && now - i.idle_since > timeout;
        if !self.instances.iter().any(expired) {
            // The common case on a serving loop's every event: keep the
            // pool as it is rather than rebuild it.
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

    /// Expires every idle instance at the end of a run: each counts as
    /// warm until `min(idle_since + ttl, horizon)`. Executing instances
    /// stay (there are none once all in-flight work has drained).
    pub fn drain_remaining(&mut self, horizon: SimTime) -> Vec<ReapedInstance> {
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
    /// ones first. Returns the acquired ids and how many cold-started.
    pub fn acquire(&mut self, n: u32, memory_mb: u32, now: SimTime) -> (Vec<FunctionId>, u32) {
        self.keep_alive.observe_arrival(now);
        self.reap(now);
        let mut ids = Vec::with_capacity(n as usize);
        // Warm reuse, most-recently-used first (Lambda's observed policy).
        let mut warm: Vec<usize> = (0..self.instances.len())
            .filter(|&i| !self.instances[i].executing && self.instances[i].memory_mb == memory_mb)
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
            let id = FunctionId(self.next_id);
            self.next_id += 1;
            self.instances.push(FunctionInstance {
                id,
                memory_mb,
                invocations: 0,
                busy_s: 0.0,
                created_at: now,
                idle_since: now,
                executing: true,
            });
            ids.push(id);
            self.stats.created += 1;
        }
        self.stats.invocations += u64::from(n);
        (ids, cold)
    }

    /// Acquires a single instance for one request (the serving fast
    /// path): reuses the most-recently-used unexpired warm instance at
    /// `memory_mb`, else cold-starts one. Returns the id and whether it
    /// cold-started. Unlike [`InstancePool::acquire`], this does not reap
    /// — serving loops reap on their own cadence via
    /// [`InstancePool::reap_detailed`].
    pub fn acquire_one(&mut self, memory_mb: u32, now: SimTime) -> (FunctionId, bool) {
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
        let id = FunctionId(self.next_id);
        self.next_id += 1;
        self.instances.push(FunctionInstance {
            id,
            memory_mb,
            invocations: 0,
            busy_s: 0.0,
            created_at: now,
            idle_since: now,
            executing: true,
        });
        self.stats.created += 1;
        (id, true)
    }

    /// Releases instances after an invocation of `busy_s` seconds ending
    /// at `now`.
    pub fn release(&mut self, ids: &[FunctionId], busy_s: f64, now: SimTime) {
        if busy_s > self.max_execution_s {
            self.stats.limit_breaches += ids.len() as u64;
        }
        for id in ids {
            let idx = self.position(*id).expect("released instance exists");
            let inst = &mut self.instances[idx];
            assert!(inst.executing, "double release of {id:?}");
            inst.executing = false;
            inst.invocations += 1;
            inst.busy_s += busy_s;
            inst.idle_since = now;
        }
    }

    /// Provisions `n` warm instances at `memory_mb` without invoking
    /// them (AWS "provisioned concurrency" / the planner's pre-warming
    /// before a stage starts).
    pub fn prewarm(&mut self, n: u32, memory_mb: u32, now: SimTime) {
        for _ in 0..n {
            let id = FunctionId(self.next_id);
            self.next_id += 1;
            self.instances.push(FunctionInstance {
                id,
                memory_mb,
                invocations: 0,
                busy_s: 0.0,
                created_at: now,
                idle_since: now,
                executing: false,
            });
            self.stats.created += 1;
        }
    }

    /// Drops every idle instance immediately (tenant-side teardown).
    pub fn clear_idle(&mut self) {
        let before = self.instances.len();
        self.instances.retain(|i| i.executing);
        self.stats.expired += (before - self.instances.len()) as u64;
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
    use crate::keepalive::AdaptiveTtl;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
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
        }
    }
}
