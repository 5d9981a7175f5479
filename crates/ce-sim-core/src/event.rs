//! Time-ordered event queue.
//!
//! The platform simulator (`ce-faas`) advances simulated time by popping
//! events in `(time, sequence)` order. Sequence numbers break ties in FIFO
//! order, which keeps simultaneous completions deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event queue delivering items in non-decreasing time order; items
/// scheduled at equal times are delivered in insertion (FIFO) order.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first delivery.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue at t = 0 with room for `capacity` pending
    /// events before the heap reallocates. Large drivers (fleet
    /// simulations schedule one arrival per job up front) know their
    /// high-water mark in advance.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the delivery time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time (causality violation).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: {} < {}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        debug_assert!(delay >= 0.0, "negative delay {delay}");
        let at = self.now + delay.max(0.0);
        self.schedule_at(at, event);
    }

    /// Pops the next event, advancing the clock to its delivery time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.now = e.at;
            (e.at, e.event)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops every remaining event, in delivery order.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3.0), "c");
        q.schedule_at(SimTime::from_secs(1.0), "a");
        q.schedule_at(SimTime::from_secs(2.0), "b");
        let order: Vec<&str> = drain(&mut q);
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = drain(&mut q);
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(2.5, ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (at, _) = q.pop().unwrap();
        assert_eq!(at.as_secs(), 2.5);
        assert_eq!(q.now().as_secs(), 2.5);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_in(1.0, "first");
        q.pop();
        q.schedule_in(1.0, "second");
        let (at, _) = q.pop().unwrap();
        assert_eq!(at.as_secs(), 2.0);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2.0), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        for i in 0..4 {
            q.schedule_in(f64::from(4 - i), i);
        }
        let order: Vec<i32> = drain(&mut q);
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_in(10.0, "late");
        q.schedule_in(1.0, "early");
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, "early");
        q.schedule_in(2.0, "mid"); // at t = 3.0 absolute
        let (t_mid, mid) = q.pop().unwrap();
        assert_eq!(mid, "mid");
        assert_eq!(t_mid.as_secs(), 3.0);
        let (_, last) = q.pop().unwrap();
        assert_eq!(last, "late");
    }
}
