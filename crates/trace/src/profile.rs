//! The deterministic profile artifact: one JSON document per profiled run.
//!
//! [`profile_json`] folds the two deterministic profiler outputs into one
//! canonical document the golden/determinism tests can byte-compare:
//!
//! * the report's `event_core` section (scheduler telemetry, already
//!   validated by `RunReport::validate`),
//! * the tracer's [`crate::Tracer::critical_path`] analysis (per-track
//!   busy work).
//!
//! The wall-clock side ([`crate::HostProf`]) is deliberately *not* here:
//! its folded-stack export is a separate, git-ignored artifact.

use rambda_metrics::{Json, RunReport};

use crate::tracer::Tracer;

/// Renders the deterministic profile document for one run. The tracer may
/// be disabled (no `critical_path` section then); the report may lack an
/// `event_core` section when profiling was off.
pub fn profile_json(report: &RunReport, tracer: &Tracer) -> String {
    let mut out = Json::obj();
    out.push("name", Json::Str(report.name.clone()));
    out.push("seed", Json::U64(report.seed));
    out.push("completed", Json::U64(report.completed));
    out.push("throughput_ops", Json::F64(report.throughput_ops));
    if let Some(ec) = &report.event_core {
        out.push("event_core", ec.to_json());
    }
    if let Some(cp) = tracer.critical_path() {
        out.push("critical_path", cp.to_json());
    }
    out.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda_des::{SimTime, Span};
    use rambda_metrics::{HistSummary, MetricSet, StageRecorder};

    #[test]
    fn profile_document_is_deterministic() {
        let rec0 = StageRecorder::active();
        let mut resources = MetricSet::new();
        resources.set("net.c2s.bytes", 4096);
        let report = RunReport::new(
            "toy",
            7,
            1,
            0.0,
            Span::from_us(1),
            HistSummary::of(rec0.total()),
            &rec0,
            resources,
        );

        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::flight_recorder();
        let mut obs = tracer.observe(&mut rec, SimTime::from_ns(0));
        obs.leg("fabric_request", SimTime::from_ns(30));
        obs.finish(SimTime::from_ns(30));

        let a = profile_json(&report, &tracer);
        let b = profile_json(&report, &tracer);
        assert_eq!(a, b);
        assert!(!a.contains("c2s"), "resource counters stay out: {a}");
        assert!(a.contains("\"critical_path\""), "{a}");

        // Disabled tracer: document still renders, minus the section.
        let plain = profile_json(&report, &Tracer::disabled());
        assert!(!plain.contains("critical_path"));
    }
}
