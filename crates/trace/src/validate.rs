//! Cross-validation of a trace against its run's [`RunReport`].
//!
//! The trace and the report are produced by independent code paths from the
//! same simulated events (the tracer mirrors the `StageRecorder`, the
//! sampler mirrors the resources' own counters), so agreement between them
//! is a real end-to-end check, not a tautology.

use std::collections::{BTreeMap, BTreeSet};

use rambda_metrics::{MetricSet, RunReport};

use crate::event::TraceEvent;
use crate::tracer::Tracer;

/// Maximum relative error of the histogram's log-bucket percentiles
/// (`1/(SUBS+1)` — see `rambda_des::hist`).
const HIST_REL_ERR: f64 = 1.0 / 17.0;

/// Checks that a bucketed percentile is consistent with the exact one: the
/// bucket's lower edge never exceeds the exact value and sits within the
/// histogram's worst-case relative error below it.
fn check_percentile(what: &str, hist_ps: u64, exact_ps: u64) -> Result<(), String> {
    if hist_ps > exact_ps {
        return Err(format!("{what}: histogram reports {hist_ps} ps above the exact {exact_ps} ps"));
    }
    let floor = exact_ps as f64 * (1.0 - HIST_REL_ERR) - 1.0;
    if (hist_ps as f64) < floor {
        return Err(format!(
            "{what}: histogram reports {hist_ps} ps, below the resolution floor {floor:.0} ps of the \
             exact {exact_ps} ps"
        ));
    }
    Ok(())
}

impl Tracer {
    /// Validates this trace against the [`RunReport`] of the same run.
    ///
    /// Checks, in order:
    ///
    /// 1. the tracer was enabled and 2. the ring did not overflow (a
    ///    partial trace cannot partition anything);
    /// 3. each request's leg spans partition its issue→completion interval
    ///    exactly, to the picosecond;
    /// 4. the trace holds exactly the report's traced request count and
    ///    5. the same total latency sum;
    /// 6. per-stage span count and time agree exactly with the report's
    ///    stage table, in both directions (no extra or missing stages);
    /// 7. the report's bucketed p99/p999 sit within the histogram's
    ///    worst-case resolution of the exact trace percentiles;
    /// 8. the final counter samples equal the report's resource counters
    ///    (so the sampler's last integral matches the resources' own busy
    ///    time), taken at the report's makespan;
    /// 9. every counter sampled anywhere in the trace — periodic samples
    ///    included — is one the report publishes (a sample list that drifts
    ///    from the final publisher list fails here).
    ///
    /// Because of (3) + (5), the integral of the derived
    /// outstanding-requests series equals the report's total latency sum —
    /// the sweep in the Chrome exporter uses the same request intervals.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn cross_validate(&self, report: &RunReport) -> Result<(), String> {
        if !self.is_enabled() {
            return Err("tracer is disabled; nothing to validate".to_string());
        }
        if self.dropped() > 0 {
            return Err(format!("ring dropped {} events; trace is partial", self.dropped()));
        }

        let mut req_totals: BTreeMap<u64, u64> = BTreeMap::new();
        let mut req_leg_sums: BTreeMap<u64, u64> = BTreeMap::new();
        let mut stage_sums: BTreeMap<&str, (u64, u128)> = BTreeMap::new();
        let mut total_sum: u128 = 0;
        let mut sampled: BTreeSet<&str> = BTreeSet::new();
        for ev in self.events() {
            match ev {
                TraceEvent::Span { req, stage, start_ps, end_ps, .. } => {
                    *req_leg_sums.entry(*req).or_insert(0) += end_ps - start_ps;
                    let slot = stage_sums.entry(*stage).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += u128::from(end_ps - start_ps);
                }
                TraceEvent::Request { req, start_ps, end_ps, .. } => {
                    req_totals.insert(*req, end_ps - start_ps);
                    total_sum += u128::from(end_ps - start_ps);
                }
                TraceEvent::Sample { name, .. } => {
                    sampled.insert(name);
                }
                TraceEvent::Fault { .. } => {}
            }
        }

        for (req, total) in &req_totals {
            let legs = req_leg_sums.get(req).copied().unwrap_or(0);
            if legs != *total {
                return Err(format!("request {req}: legs sum to {legs} ps but the request took {total} ps"));
            }
        }
        if let Some(req) = req_leg_sums.keys().find(|r| !req_totals.contains_key(r)) {
            return Err(format!("request {req} has leg spans but no request span"));
        }

        if req_totals.len() as u64 != report.total.count {
            return Err(format!(
                "trace holds {} requests but the report traced {}",
                req_totals.len(),
                report.total.count
            ));
        }
        if total_sum != report.total.sum_ps {
            return Err(format!(
                "traced request totals sum to {} ps but the report's traced total is {} ps",
                total_sum, report.total.sum_ps
            ));
        }

        for (stage, summary) in &report.stages {
            let (count, sum) = stage_sums.get(stage.as_str()).copied().unwrap_or((0, 0));
            if count != summary.count || sum != summary.sum_ps {
                return Err(format!(
                    "stage {stage}: trace has {count} spans / {sum} ps, report has {} / {} ps",
                    summary.count, summary.sum_ps
                ));
            }
        }
        if let Some(stage) = stage_sums.keys().find(|s| !report.stages.iter().any(|(n, _)| n == *s)) {
            return Err(format!("trace stage {stage} is missing from the report"));
        }

        let exact = self.tail_report(0);
        check_percentile("p99", report.total.p99_ps, exact.p99_ps)?;
        check_percentile("p999", report.total.p999_ps, exact.p999_ps)?;

        match self.final_at_ps() {
            None => return Err("no final counter sample was recorded".to_string()),
            Some(at) if at != report.elapsed_ps => {
                return Err(format!(
                    "final sample taken at {at} ps but the report's makespan is {} ps",
                    report.elapsed_ps
                ));
            }
            Some(_) => {}
        }
        let finals: BTreeMap<&str, u64> = self.final_counters().collect();
        // `event_core.*` and the scope-section mirrors are attached after
        // the run's final sample (`SimBuilder::run`); their own mirror
        // identities are enforced by `RunReport::validate_event_core` and
        // `validate_scopes`.
        let mut scope_mirrors = MetricSet::new();
        if let Some(scopes) = &report.scopes {
            scopes.publish_metrics(&mut scope_mirrors);
        }
        for (name, value) in report.resources.counters() {
            if name.starts_with("event_core.") || scope_mirrors.counter(name).is_some() {
                continue;
            }
            if finals.get(name).copied() != Some(value) {
                return Err(format!(
                    "resource counter {name}: report says {value}, final trace sample says {:?}",
                    finals.get(name)
                ));
            }
        }
        if let Some(name) = sampled.iter().find(|n| report.resources.counter(n).is_none()) {
            return Err(format!("trace sampled counter {name} that the report does not publish"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda_des::{Histogram, SimTime, Span};
    use rambda_metrics::{HistSummary, StageRecorder};

    /// Runs a tiny synthetic "runner" with recorder + tracer in lockstep
    /// and assembles the matching report.
    fn run(tracer: &mut Tracer) -> RunReport {
        let mut rec = StageRecorder::active();
        let mut latency = Histogram::new();
        let mut done_at = SimTime::ZERO;
        for i in 0..50u64 {
            let t0 = SimTime::from_us(i);
            let mut obs = tracer.observe(&mut rec, t0);
            obs.leg("fabric_request", t0 + Span::from_ns(200));
            obs.leg("apu_compute", obs.now() + Span::from_ns(300 + 40 * (i % 7)));
            let done = obs.now();
            obs.finish(done);
            latency.record(done - t0);
            done_at = done_at.max(done);
            tracer.maybe_sample(done, |s| s.set("accel.ops", i + 1));
        }
        let mut resources = MetricSet::new();
        resources.set("accel.ops", 50);
        tracer.final_sample(done_at, &resources);
        RunReport::new(
            "test.traced",
            3,
            50,
            1.0e6,
            done_at.saturating_since(SimTime::ZERO),
            HistSummary::of(&latency),
            &rec,
            resources,
        )
    }

    #[test]
    fn consistent_run_cross_validates() {
        let mut tracer = Tracer::flight_recorder();
        let report = run(&mut tracer);
        report.validate().expect("report is self-consistent");
        tracer.cross_validate(&report).expect("trace matches report");
    }

    #[test]
    fn disabled_tracer_fails() {
        let mut tracer = Tracer::disabled();
        let report = run(&mut tracer);
        let err = tracer.cross_validate(&report).unwrap_err();
        assert!(err.contains("disabled"), "{err}");
    }

    #[test]
    fn overflowed_ring_fails() {
        let mut tracer = Tracer::bounded(8, Span::from_us(50));
        let report = run(&mut tracer);
        let err = tracer.cross_validate(&report).unwrap_err();
        assert!(err.contains("dropped"), "{err}");
    }

    #[test]
    fn mismatched_counters_fail() {
        let mut tracer = Tracer::flight_recorder();
        let mut report = run(&mut tracer);
        report.resources.set("accel.ops", 51);
        let err = tracer.cross_validate(&report).unwrap_err();
        assert!(err.contains("accel.ops"), "{err}");
    }

    #[test]
    fn periodic_sample_of_an_unpublished_counter_fails() {
        // A periodic sample list that names a counter the final publisher
        // list drops: the final snapshot still matches the report, so only
        // the periodic samples can catch the drift.
        let mut tracer = Tracer::flight_recorder();
        tracer.maybe_sample(SimTime::from_us(60), |s| s.set("accel.ghost_ops", 1));
        let report = run(&mut tracer);
        let err = tracer.cross_validate(&report).unwrap_err();
        assert!(err.contains("accel.ghost_ops"), "{err}");
    }

    #[test]
    fn foreign_stage_fails() {
        let mut tracer = Tracer::flight_recorder();
        let mut report = run(&mut tracer);
        report.stages.retain(|(name, _)| name != "apu_compute");
        let err = tracer.cross_validate(&report).unwrap_err();
        assert!(err.contains("apu_compute"), "{err}");
    }

    #[test]
    fn percentile_check_enforces_the_resolution_band() {
        check_percentile("p99", 1000, 1000).unwrap();
        check_percentile("p99", 950, 1000).unwrap();
        let above = check_percentile("p99", 1001, 1000).unwrap_err();
        assert!(above.contains("above"), "{above}");
        let below = check_percentile("p99", 900, 1000).unwrap_err();
        assert!(below.contains("resolution floor"), "{below}");
    }
}
