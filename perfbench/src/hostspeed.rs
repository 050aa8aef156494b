//! The host-speed reference: a fixed kernel timed next to every design run.
//!
//! The benchmark runs on shared virtual machines whose speed drifts: for
//! seconds to minutes at a time the same code runs up to 1.8× slower, and
//! a whole run can fall inside a slow phase. Neither a median nor a low
//! quantile over one run's batches removes that. The kernel below slows
//! down with the simulator in those phases. It is made of the operations
//! of the simulator's hot path: a binary-heap event queue at the `kvs_get`
//! driver's depth, hash-table lookups, a small boxed message per event, a
//! histogram and a growing log. The end-to-end mode times one pass of it
//! before and after every design run, and multiplies that run's times by
//! [`REFERENCE_S`] over the mean of the two. That restates each time at the
//! speed of a host that runs one pass in `REFERENCE_S`.
//!
//! The kernel is deterministic and shares no code with the simulator, so a
//! change to the simulator moves the scaled times as it moves wall times.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// One pass's wall time on the reference host: a 2-vCPU Intel Xeon virtual
/// machine, in its fast phase.
pub const REFERENCE_S: f64 = 0.008;

/// Keys in the kernel's table: 256 KB, so it stays in the L2 cache like the
/// simulator's hot state.
const KEYS: u64 = 8_192;
/// Events one pass pops and pushes.
const EVENTS: usize = 100_000;
/// Events in flight: the `kvs_get` driver queue's depth.
const DEPTH: u64 = 160;
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel's state. It is allocated once, before the first design run,
/// and reused by every pass, so the kernel leaves the allocator as it found
/// it and adds a constant 2 MB to the process's resident memory.
pub struct HostSpeed {
    table: HashMap<u64, [u8; 24]>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    log: Vec<(u64, u64)>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut table = HashMap::with_capacity(KEYS as usize);
        for k in 0..KEYS {
            table.insert(k.wrapping_mul(MIX), [k as u8; 24]);
        }
        HostSpeed { table, heap: BinaryHeap::with_capacity(DEPTH as usize), log: Vec::with_capacity(EVENTS) }
    }

    /// One pass: `EVENTS` events through a heap of `DEPTH`, each with a
    /// table lookup, a boxed message, a histogram update and a log entry.
    fn pass(&mut self) -> u64 {
        let mut x = 88_172_645_463_325_252u64;
        self.heap.clear();
        self.log.clear();
        for id in 0..DEPTH {
            self.heap.push(Reverse((xorshift(&mut x) % 1000, id)));
        }
        let mut hist = [0u64; 64];
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((t, id)) = self.heap.pop().expect("the heap never drains");
            let k = (xorshift(&mut x) % KEYS).wrapping_mul(MIX);
            let v = self.table.get(&k).map_or(0, |v| u64::from(v[3]));
            let msg = Box::new([t, id, v, acc]);
            acc = acc.wrapping_add(black_box(msg).iter().sum::<u64>());
            hist[(63 - (t | 1).leading_zeros()) as usize] += 1;
            self.log.push((t, id));
            self.heap.push(Reverse((t + 1 + xorshift(&mut x) % 1000, id)));
        }
        acc.wrapping_add(hist.iter().sum::<u64>()).wrapping_add(self.log.len() as u64)
    }

    /// Wall seconds of one pass.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.pass());
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_does_the_same_work() {
        let mut kernel = HostSpeed::new();
        let first = kernel.pass();
        assert_eq!(kernel.pass(), first);
        assert_eq!(kernel.log.len(), EVENTS);
    }
}
