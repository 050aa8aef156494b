//! Differential property test: [`EventQueue`] against an independent
//! reference binary-heap scheduler, driven by identical seeded push/pop
//! schedules. Pop order — including same-time FIFO ties — must match
//! exactly; this is the determinism contract that keeps golden reports
//! byte-identical across scheduler implementations (DESIGN.md §12).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rambda_des::{EventQueue, SimRng, SimTime};

/// The reference scheduler: a max-heap over `(time, seq)` with inverted
/// ordering, written independently of `EventQueue`'s own implementation.
#[derive(Default)]
struct ReferenceQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

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
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl<E> ReferenceQueue<E> {
    fn push(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }
}

/// Runs one randomized schedule against both queues, asserting every pop
/// matches. `time_range_ps` controls how widely event times spread — small
/// ranges maximize same-time ties, huge ranges mix picosecond and
/// far-future gaps in one heap.
fn differential_run(seed: u64, ops: usize, time_range_ps: u64) {
    let mut rng = SimRng::seed(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut reference: ReferenceQueue<u64> = ReferenceQueue::default();
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    for step in 0..ops {
        // Biased towards pushes so the queues grow, with pop bursts.
        if queue.is_empty() || rng.chance(0.55) {
            // Mix in exact ties (same at as `now`) and pushes into the
            // already-drained past.
            let at = if rng.chance(0.15) {
                now
            } else {
                SimTime::from_ps(now.as_ps().saturating_add(rng.gen_range(0..time_range_ps)))
            };
            queue.push(at, next_id);
            reference.push(at, next_id);
            next_id += 1;
        } else {
            let a = queue.pop();
            let b = reference.pop();
            assert_eq!(a, b, "divergence at step {step} (seed {seed})");
            if let Some((at, _)) = a {
                now = at;
            }
        }
        assert_eq!(queue.len(), reference.heap.len());
    }
    // Drain both to the end: full order must agree.
    loop {
        let a = queue.pop();
        let b = reference.pop();
        assert_eq!(a, b, "drain divergence (seed {seed})");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn near_horizon_schedules_match_reference() {
    // Times within a few microseconds: the common closed-loop case.
    for seed in 0..8 {
        differential_run(seed, 4_000, 5 << 20);
    }
}

#[test]
fn tie_heavy_schedules_match_reference() {
    // 1-ns range: nearly everything collides on the same few instants.
    for seed in 100..108 {
        differential_run(seed, 4_000, 1_000);
    }
}

#[test]
fn far_future_schedules_match_reference() {
    // Spreads over about a simulated second: far-future events interleave
    // with near ones.
    for seed in 200..208 {
        differential_run(seed, 4_000, 1 << 40);
    }
}

#[test]
fn mixed_scale_schedules_match_reference() {
    // Per-seed range sweep from 16 ps to about five simulated minutes.
    for (i, seed) in (300..312).enumerate() {
        differential_run(seed, 2_000, 1 << (4 + 4 * i as u32));
    }
}
