//! A time-ordered event queue for closed-loop simulation drivers.
//!
//! The queue is a [`BinaryHeap`] keyed on `(time, insertion sequence)`, so
//! same-time events pop in the order they were pushed and every run is
//! reproducible (DESIGN.md §12.1).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A registered event-kind handle, returned by [`EventQueue::kind`] and
/// accepted by [`EventQueue::push_kind`]. Kind `0` is the pre-registered
/// default every plain [`EventQueue::push`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKind(u8);

/// Per-event-kind telemetry: how many events of this kind were scheduled
/// and fired, and their cumulative sim-time dwell (enqueue→fire).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Kind name as registered via [`EventQueue::kind`].
    pub name: &'static str,
    /// Events of this kind scheduled.
    pub pushes: u64,
    /// Events of this kind dispatched.
    pub pops: u64,
    /// Cumulative scheduled-ahead sim time (fire time minus the queue's
    /// current time at push), picoseconds.
    pub held_ps: u64,
}

/// Deterministic event-core telemetry, accumulated by every push/pop.
///
/// All counters are pure functions of the event sequence, so same-seed runs
/// produce identical stats. The conservation identities the metrics layer
/// checks (`validate_event_core`): `dispatched == enqueued − pending`, and
/// the per-kind breakdown partitions pushes, pops and dwell exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCoreStats {
    /// Total events scheduled.
    pub enqueued: u64,
    /// Total events fired.
    pub dispatched: u64,
    /// Cumulative enqueue→fire sim-time dwell across all events,
    /// picoseconds.
    pub dwell_ps: u64,
    /// Per-kind breakdown, in registration order (kind 0 first).
    pub kinds: Vec<KindStats>,
}

/// One pending event. Ordered so the max-heap's top is the earliest time,
/// then the lowest insertion sequence.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    kind: u8,
    event: E,
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        Reverse((self.at, self.seq)).cmp(&Reverse((other.at, other.seq)))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Scheduled<E> {}

/// A deterministic time-ordered queue of events.
///
/// Ties on time pop in insertion order, so simulations are fully
/// reproducible.
///
/// ```
/// use rambda_des::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(20), "b");
/// q.push(SimTime::from_ns(10), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(20), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Pending events, earliest on top.
    heap: BinaryHeap<Scheduled<E>>,
    /// Next insertion sequence number (the deterministic FIFO tie-break).
    seq: u64,
    /// Time of the most recent pop — the queue's notion of "now", used to
    /// charge each push its enqueue→fire dwell.
    last_pop: SimTime,
    /// Always-on deterministic telemetry (see [`EventCoreStats`]).
    stats: EventCoreStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            last_pop: SimTime::ZERO,
            stats: EventCoreStats {
                kinds: vec![KindStats { name: "event", ..KindStats::default() }],
                ..EventCoreStats::default()
            },
        }
    }

    /// Registers (or looks up) an event kind by name, for per-kind
    /// telemetry. Returns the existing handle when the name is already
    /// registered. At most 256 kinds per queue.
    pub fn kind(&mut self, name: &'static str) -> EventKind {
        if let Some(i) = self.stats.kinds.iter().position(|k| k.name == name) {
            return EventKind(i as u8);
        }
        assert!(self.stats.kinds.len() < 256, "event-kind registry is full");
        self.stats.kinds.push(KindStats { name, ..KindStats::default() });
        EventKind((self.stats.kinds.len() - 1) as u8)
    }

    /// The telemetry accumulated so far.
    pub fn stats(&self) -> &EventCoreStats {
        &self.stats
    }

    /// Schedules `event` at `at` under the default kind.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.push_kind(at, EventKind(0), event);
    }

    /// Schedules `event` at `at`, attributing it to `kind` in the telemetry.
    pub fn push_kind(&mut self, at: SimTime, kind: EventKind, event: E) {
        let held = at.as_ps().saturating_sub(self.last_pop.as_ps());
        self.stats.enqueued += 1;
        self.stats.dwell_ps += held;
        let ks = &mut self.stats.kinds[kind.0 as usize];
        ks.pushes += 1;
        ks.held_ps += held;
        self.heap.push(Scheduled { at, seq: self.seq, kind: kind.0, event });
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Scheduled { at, kind, event, .. } = self.heap.pop()?;
        self.last_pop = at;
        self.stats.dispatched += 1;
        self.stats.kinds[kind as usize].pops += 1;
        Some((at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next", &self.heap.peek().map(|s| s.at))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_ns(7), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_ns(5), "b");
        q.push(SimTime::from_ns(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn push_at_drained_time_keeps_fifo() {
        // Two events at the same instant, one pushed after an earlier event
        // at that instant has already popped: insertion order must hold.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), "first");
        q.push(SimTime::from_ns(30), "later");
        assert_eq!(q.pop().unwrap().1, "first");
        q.push(SimTime::from_ns(30), "second");
        assert_eq!(q.pop().unwrap(), (SimTime::from_ns(30), "later"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ns(30), "second"));
    }

    #[test]
    fn far_future_overflow_promotes_in_order() {
        // Times spread over seven orders of magnitude still pop in order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(500_000), 2);
        q.push(SimTime::from_us(100_000), 1);
        q.push(SimTime::from_us(900_000), 3);
        q.push(SimTime::from_ns(50), 0);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn event_core_stats_identities_hold() {
        let mut q = EventQueue::new();
        let serve = q.kind("serve");
        assert_eq!(q.kind("serve"), serve, "re-registering a kind returns the same handle");
        q.push(SimTime::from_ns(10), "a");
        q.push_kind(SimTime::from_ns(20), serve, "b");
        q.push(SimTime::from_us(500_000), "far");
        assert_eq!(q.pop().unwrap().1, "a");
        let s = q.stats();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.dispatched, 1);
        assert_eq!(s.dispatched, s.enqueued - q.len() as u64);
        // Dwell is charged at push relative to the queue's current time
        // (zero before any pop), total and per kind.
        assert_eq!(s.dwell_ps, 10_000 + 20_000 + 500_000_000_000);
        assert_eq!(s.kinds[0].name, "event");
        assert_eq!(s.kinds[0].pushes, 2);
        assert_eq!(s.kinds[1].name, "serve");
        assert_eq!(s.kinds[1].pushes, 1);
        assert_eq!(s.kinds[1].held_ps, 20_000);
        assert_eq!(s.kinds.iter().map(|k| k.pushes).sum::<u64>(), s.enqueued);
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.dispatched, s.enqueued);
        assert_eq!(s.kinds.iter().map(|k| k.pops).sum::<u64>(), s.dispatched);
    }

    #[test]
    fn steady_state_churn_reuses_capacity() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0u64);
        q.pop();
        let capacity = q.heap.capacity();
        for round in 1..10u64 {
            q.push(SimTime::from_ns(round), round);
            assert_eq!(q.pop().unwrap().1, round);
        }
        assert_eq!(q.heap.capacity(), capacity, "one-in-flight churn never grows the heap");
    }
}
