//! The non-deterministic side of the profiler: host wall-clock attribution.
//!
//! Everything else this crate records is a pure function of the simulation
//! seed. [`HostProf`] is deliberately not: it measures where *host* time
//! goes while the simulator runs, so `report --profile` can say which
//! design or handler burns the wall clock. To keep the simulation crates
//! free of wall-clock calls (analyzer rule R2), the clock is injected as a
//! closure returning monotonic nanoseconds — the `report` binary passes
//! `std::time::Instant`, tests pass a fake counter.
//!
//! Timing is sampled: only every Nth [`HostProf::time`] call per profiler
//! pays the two clock reads, and recorded durations are scaled back up by
//! the sampling factor, so hot per-request paths stay cheap. Output is the
//! folded-stack text format (`frame;subframe <value>` per line) that
//! `inferno`/`flamegraph.pl` consume; it is git-ignored and never part of
//! golden artifacts.

use std::collections::BTreeMap;

/// A sampling wall-clock attributor. See the module docs.
pub struct HostProf {
    clock: Box<dyn FnMut() -> u64>,
    every: u32,
    calls: u32,
    frames: BTreeMap<String, FrameStat>,
}

#[derive(Debug, Clone, Copy, Default)]
struct FrameStat {
    ns: u64,
    samples: u64,
}

impl std::fmt::Debug for HostProf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostProf")
            .field("every", &self.every)
            .field("calls", &self.calls)
            .field("frames", &self.frames.len())
            .finish()
    }
}

impl HostProf {
    /// A profiler timing every call (sampling factor 1). `clock` must
    /// return monotonic nanoseconds.
    pub fn new(clock: impl FnMut() -> u64 + 'static) -> Self {
        HostProf::sampling(clock, 1)
    }

    /// A profiler timing one in `every` calls and scaling recorded
    /// durations by `every` to compensate.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn sampling(clock: impl FnMut() -> u64 + 'static, every: u32) -> Self {
        assert!(every > 0, "sampling factor must be positive");
        HostProf { clock: Box::new(clock), every, calls: 0, frames: BTreeMap::new() }
    }

    /// Runs `f`, attributing its (sampled, scaled) wall time to `frame`.
    /// Nest frames by joining names with `;` — the folded-stack separator.
    pub fn time<R>(&mut self, frame: &str, f: impl FnOnce() -> R) -> R {
        self.calls = self.calls.wrapping_add(1);
        if !self.calls.is_multiple_of(self.every) {
            return f();
        }
        let t0 = (self.clock)();
        let out = f();
        let dt = (self.clock)().saturating_sub(t0);
        let stat = self.frames.entry(frame.to_string()).or_default();
        stat.ns += dt.saturating_mul(self.every as u64);
        stat.samples += 1;
        out
    }

    /// Number of distinct frames recorded.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Renders the folded-stack text: one `frame;subframe <ns>` line per
    /// frame in name order, ready for `flamegraph.pl`/`inferno`.
    pub fn export_folded(&self) -> String {
        let mut out = String::new();
        for (frame, stat) in &self.frames {
            out.push_str(frame);
            out.push(' ');
            out.push_str(&stat.ns.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A fake monotonic clock advancing 10 ns per read.
    fn fake_clock() -> impl FnMut() -> u64 {
        let t = Rc::new(Cell::new(0u64));
        move || {
            let now = t.get();
            t.set(now + 10);
            now
        }
    }

    #[test]
    fn frames_accumulate_and_fold() {
        let mut prof = HostProf::new(fake_clock());
        let v = prof.time("run;kvs.rambda", || 41 + 1);
        assert_eq!(v, 42);
        prof.time("run;kvs.rambda", || ());
        prof.time("render", || ());
        assert_eq!(prof.frame_count(), 2);
        // Each timed call sees the clock advance once between its two reads.
        assert_eq!(prof.export_folded(), "render 10\nrun;kvs.rambda 20\n");
    }

    #[test]
    fn sampling_skips_calls_but_scales_durations() {
        let mut prof = HostProf::sampling(fake_clock(), 4);
        for _ in 0..8 {
            prof.time("hot", || ());
        }
        // Calls 4 and 8 are timed (10 ns each), scaled ×4 → 80 ns total.
        assert_eq!(prof.export_folded(), "hot 80\n");
    }

    #[test]
    #[should_panic(expected = "sampling factor must be positive")]
    fn zero_sampling_factor_panics() {
        let _ = HostProf::sampling(|| 0, 0);
    }
}
