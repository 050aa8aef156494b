//! Whole-run critical-path analysis over the span DAG.
//!
//! Every traced request is a chain of leg spans, each classified onto a
//! resource [`Track`]. Within one request the legs are serial (they
//! partition the issue→completion interval), so summing them per track
//! attributes the run's simulated time to the resources that spent it. The
//! tracer accumulates, online and deterministically:
//!
//! * per-track busy work (the sum of span durations on that track),
//! * total busy work across all tracks,
//! * per-request durations (count + longest).
//!
//! The whole-run **critical path** is the busiest track's work sum: the
//! resource that dominates the run's sim time (DESIGN.md §14).
//!
//! Accumulation happens inside the tracer's existing enabled-buffer guard,
//! so [`crate::Tracer::disabled`] runs skip it entirely and the fast-path
//! runners pay nothing.

use rambda_metrics::Json;

use crate::event::Track;

/// Online accumulator the tracer updates per leg/request. Lives inside the
/// tracer's enabled-only buffer, so disabled runs never touch it.
#[derive(Debug, Clone, Default)]
pub(crate) struct CritAcc {
    /// Busy picoseconds per track, indexed by `Track::id() - 1`.
    track_busy_ps: [u64; 8],
    /// Span count per track, same indexing.
    track_spans: [u64; 8],
    /// Completed request count.
    requests: u64,
    /// Longest single request duration, picoseconds.
    longest_request_ps: u64,
}

impl CritAcc {
    /// Charges one leg span of `work_ps` to `track`.
    pub(crate) fn leg(&mut self, track: Track, work_ps: u64) {
        let i = track.id() as usize - 1;
        self.track_busy_ps[i] += work_ps;
        self.track_spans[i] += 1;
    }

    /// Records one finished request of `dur_ps`.
    pub(crate) fn finish(&mut self, dur_ps: u64) {
        self.requests += 1;
        self.longest_request_ps = self.longest_request_ps.max(dur_ps);
    }

    /// Freezes the accumulator into a summary.
    pub(crate) fn summarize(&self) -> CriticalPathSummary {
        let tracks: Vec<TrackWork> = Track::ALL
            .iter()
            .map(|&t| {
                let i = t.id() as usize - 1;
                TrackWork { track: t, busy_ps: self.track_busy_ps[i], spans: self.track_spans[i] }
            })
            .collect();
        CriticalPathSummary {
            total_work_ps: self.track_busy_ps.iter().sum(),
            critical_path_ps: self.track_busy_ps.iter().copied().max().unwrap_or(0),
            spans: self.track_spans.iter().sum(),
            requests: self.requests,
            longest_request_ps: self.longest_request_ps,
            tracks,
        }
    }
}

/// One track's share of the run's busy work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackWork {
    /// The resource track.
    pub track: Track,
    /// Busy picoseconds summed over the track's spans.
    pub busy_ps: u64,
    /// Number of spans charged to the track.
    pub spans: u64,
}

/// The frozen whole-run critical-path analysis, from
/// [`crate::Tracer::critical_path`].
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathSummary {
    /// Total busy work across every span, picoseconds.
    pub total_work_ps: u64,
    /// The busiest track's work sum — the run's critical path,
    /// picoseconds.
    pub critical_path_ps: u64,
    /// Total leg spans recorded.
    pub spans: u64,
    /// Requests completed.
    pub requests: u64,
    /// Longest single request duration, picoseconds.
    pub longest_request_ps: u64,
    /// Per-track breakdown, in [`Track::ALL`] display order.
    pub tracks: Vec<TrackWork>,
}

impl CriticalPathSummary {
    /// Renders the analysis as a deterministic JSON value. Tracks with no
    /// spans are omitted so the section stays compact.
    pub fn to_json(&self) -> Json {
        let mut tracks = Json::obj();
        for t in &self.tracks {
            if t.spans == 0 {
                continue;
            }
            let mut o = Json::obj();
            o.push("busy_ps", Json::U64(t.busy_ps));
            o.push("spans", Json::U64(t.spans));
            tracks.push(t.track.name(), o);
        }
        let mut out = Json::obj();
        out.push("total_work_ps", Json::U64(self.total_work_ps));
        out.push("critical_path_ps", Json::U64(self.critical_path_ps));
        out.push("spans", Json::U64(self.spans));
        out.push("requests", Json::U64(self.requests));
        out.push("longest_request_ps", Json::U64(self.longest_request_ps));
        out.push("tracks", tracks);
        out
    }
}

#[cfg(test)]
mod tests {
    use rambda_des::SimTime;
    use rambda_metrics::StageRecorder;

    use crate::Tracer;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn five_span_dag_has_known_critical_path() {
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::flight_recorder();

        // Request 0: fabric 30 ns, accel 50 ns.
        let mut r0 = tracer.observe(&mut rec, ns(0));
        r0.leg("fabric_request", ns(30));
        r0.leg("apu_compute", ns(80));
        r0.finish(ns(80));
        // Request 1: fabric 20 ns, coherence 30 ns, mem 10 ns.
        let mut r1 = tracer.observe(&mut rec, ns(100));
        r1.leg("fabric_request", ns(120));
        r1.leg("coherence", ns(150));
        r1.leg("mem_chase", ns(160));
        r1.finish(ns(160));

        let cp = tracer.critical_path().expect("enabled tracer analyzes");
        // Track sums: fabric 50, accel 50, coherence 30, mem 10 → total 140,
        // critical path 50 (ties on fabric/accel).
        assert_eq!(cp.total_work_ps, 140_000);
        assert_eq!(cp.critical_path_ps, 50_000);
        assert_eq!(cp.spans, 5);
        assert_eq!(cp.requests, 2);
        assert_eq!(cp.longest_request_ps, 80_000);
        let fabric = cp.tracks.iter().find(|t| t.track.name() == "fabric").unwrap();
        assert_eq!((fabric.busy_ps, fabric.spans), (50_000, 2));

        let json = cp.to_json().render();
        assert!(json.contains("\"critical_path_ps\": 50000"), "{json}");
        assert!(!json.contains("smartnic"), "empty tracks are omitted: {json}");
    }

    #[test]
    fn degenerate_single_span_request_is_serial() {
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::flight_recorder();
        let mut r = tracer.observe(&mut rec, ns(5));
        r.leg("cpu_serve", ns(25));
        r.finish(ns(25));

        let cp = tracer.critical_path().expect("enabled");
        assert_eq!(cp.total_work_ps, 20_000);
        assert_eq!(cp.critical_path_ps, 20_000);
        assert_eq!((cp.spans, cp.requests), (1, 1));
        assert_eq!(cp.longest_request_ps, 20_000);
    }

    #[test]
    fn disabled_tracer_reports_no_critical_path() {
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::disabled();
        let mut r = tracer.observe(&mut rec, ns(0));
        r.leg("cpu_serve", ns(10));
        r.finish(ns(10));
        assert!(tracer.critical_path().is_none());
    }

    #[test]
    fn empty_enabled_tracer_reports_zero_work() {
        let tracer = Tracer::flight_recorder();
        let cp = tracer.critical_path().expect("enabled");
        assert_eq!(cp.total_work_ps, 0);
        assert_eq!(cp.critical_path_ps, 0);
    }
}
