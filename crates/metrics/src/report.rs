//! Per-stage latency recording and the serializable run report.
//!
//! A runner threads a [`StageRecorder`] through its serve closure: each
//! request opens a [`ReqTrace`] at its issue time and cuts the critical
//! path into named legs (`doorbell`, `fabric`, `coherence`, `apu_compute`,
//! `nvm_persist`, ...). Because the legs partition the issue→completion
//! interval exactly, the report can assert a hard identity — the stage sums
//! equal the total sum to the picosecond — which catches any runner that
//! drops or double-counts a leg.

use std::collections::BTreeMap;

use rambda_des::{Histogram, SimTime, Span};

use crate::event_core::EventCoreSummary;
use crate::json::Json;
use crate::scope::ScopesSummary;
use crate::set::MetricSet;
use crate::timeline::{wait_counter, Timeline, TimelineSummary};

/// Compact, exact summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact sum of all samples, picoseconds.
    pub sum_ps: u128,
    /// Smallest sample (0 when empty).
    pub min_ps: u64,
    /// Largest sample (0 when empty).
    pub max_ps: u64,
    /// Exact arithmetic mean (0 when empty).
    pub mean_ps: u64,
    /// Median, to bucket resolution.
    pub p50_ps: u64,
    /// 99th percentile, to bucket resolution.
    pub p99_ps: u64,
    /// 99.9th percentile, to bucket resolution (the paper's tail arguments
    /// need more than p99).
    pub p999_ps: u64,
}

impl HistSummary {
    /// Summarizes a histogram.
    pub fn of(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            sum_ps: h.sum_ps(),
            min_ps: h.min().as_ps(),
            max_ps: h.max().as_ps(),
            mean_ps: h.mean().as_ps(),
            p50_ps: h.percentile(0.5).as_ps(),
            p99_ps: h.percentile(0.99).as_ps(),
            p999_ps: h.percentile(0.999).as_ps(),
        }
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean_ps as f64 / 1.0e6
    }

    pub(crate) fn to_json(self) -> Json {
        let mut o = Json::obj();
        o.push("count", Json::U64(self.count));
        // Report sums saturate at u64::MAX in JSON; quick-mode runs are
        // many orders of magnitude below this.
        o.push("sum_ps", Json::U64(u64::try_from(self.sum_ps).unwrap_or(u64::MAX)));
        o.push("min_ps", Json::U64(self.min_ps));
        o.push("max_ps", Json::U64(self.max_ps));
        o.push("mean_ps", Json::U64(self.mean_ps));
        o.push("p50_ps", Json::U64(self.p50_ps));
        o.push("p99_ps", Json::U64(self.p99_ps));
        o.push("p999_ps", Json::U64(self.p999_ps));
        o
    }
}

/// Collects one latency histogram per named pipeline stage, plus the
/// issue→completion total over the same requests.
#[derive(Debug, Clone)]
pub struct StageRecorder {
    active: bool,
    stages: BTreeMap<&'static str, Histogram>,
    total: Histogram,
    timeline: Option<Timeline>,
    timeline_summary: Option<TimelineSummary>,
}

impl StageRecorder {
    /// A recorder that records, including a windowed [`Timeline`] fed by
    /// every [`StageRecorder::request`] completion.
    pub fn active() -> Self {
        StageRecorder {
            active: true,
            stages: BTreeMap::new(),
            total: Histogram::new(),
            timeline: Some(Timeline::default()),
            timeline_summary: None,
        }
    }

    /// A no-op recorder for uninstrumented runs (every call is a cheap
    /// branch, so the plain `run_*` entry points share the serve code).
    pub fn disabled() -> Self {
        StageRecorder {
            active: false,
            stages: BTreeMap::new(),
            total: Histogram::new(),
            timeline: None,
            timeline_summary: None,
        }
    }

    /// Whether this recorder records.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Records `to - from` under `stage`.
    pub fn segment(&mut self, stage: &'static str, from: SimTime, to: SimTime) {
        if !self.active {
            return;
        }
        self.stages.entry(stage).or_default().record(to.saturating_since(from));
    }

    /// Records one request's issue→completion total (and buckets it into
    /// the timeline window its completion falls in).
    pub fn request(&mut self, issued: SimTime, done: SimTime) {
        if !self.active {
            return;
        }
        self.total.record(done.saturating_since(issued));
        if let Some(tl) = &mut self.timeline {
            tl.record(issued, done);
        }
    }

    /// Opens a per-request trace cursor at `issued`.
    pub fn trace(&mut self, issued: SimTime) -> ReqTrace<'_> {
        ReqTrace { rec: self, start: issued, cursor: issued }
    }

    /// The total histogram over all traced requests.
    pub fn total(&self) -> &Histogram {
        &self.total
    }

    /// The histogram for one stage, if any request exercised it.
    pub fn stage(&self, name: &str) -> Option<&Histogram> {
        self.stages.get(name)
    }

    /// Iterates stages in name order.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.stages.iter().map(|(k, v)| (*k, v))
    }

    /// If the timeline's snapshot grid is due at `now`, returns the tick to
    /// stamp a counter snapshot with (see [`StageRecorder::timeline_snapshot`]).
    pub fn timeline_due(&mut self, now: SimTime) -> Option<SimTime> {
        self.timeline.as_mut()?.due(now)
    }

    /// Stores `set`'s cumulative counters as the timeline snapshot at `tick`.
    pub fn timeline_snapshot(&mut self, tick: SimTime, set: &MetricSet) {
        if let Some(tl) = &mut self.timeline {
            tl.snapshot(tick, set);
        }
    }

    /// Folds the live timeline into its bounded summary; called once by the
    /// report assembly glue with the run makespan and the final resource
    /// counters. A second call overwrites the first.
    pub fn finalize_timeline(&mut self, makespan: Span, finals: &MetricSet) {
        if let Some(tl) = &self.timeline {
            self.timeline_summary = Some(tl.finalize(makespan, finals));
        }
    }

    /// The finalized timeline, if [`StageRecorder::finalize_timeline`] ran.
    pub fn timeline_summary(&self) -> Option<&TimelineSummary> {
        self.timeline_summary.as_ref()
    }
}

/// A cursor cutting one request's critical path into consecutive legs.
///
/// Legs must be cut at non-decreasing times; overlapped work (parallel
/// branches) is folded into a single leg cut at the joining `max`.
#[derive(Debug)]
pub struct ReqTrace<'a> {
    rec: &'a mut StageRecorder,
    start: SimTime,
    cursor: SimTime,
}

impl ReqTrace<'_> {
    /// Ends the current leg at `now`, charging it to `stage`, and moves the
    /// cursor forward.
    pub fn leg(&mut self, stage: &'static str, now: SimTime) {
        debug_assert!(now >= self.cursor, "trace leg {stage} moved backwards");
        self.rec.segment(stage, self.cursor, now);
        self.cursor = self.cursor.max(now);
    }

    /// The current cursor position.
    pub fn now(&self) -> SimTime {
        self.cursor
    }

    /// Closes the trace: records the issue→`done` total.
    ///
    /// For the stage-sum identity to hold, the last leg must have been cut
    /// exactly at `done`; a debug assertion enforces it, and
    /// [`RunReport::validate`] catches it in release builds.
    pub fn finish(self, done: SimTime) {
        debug_assert!(
            !self.rec.active || done == self.cursor,
            "trace finished at {done:?} but legs cover up to {:?}",
            self.cursor
        );
        self.rec.request(self.start, done);
    }
}

/// A serializable report of one closed-loop run: the headline numbers, the
/// per-stage latency breakdown, and the per-resource counters.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Runner name, e.g. `"kvs.rambda"`.
    pub name: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Measured (post-warm-up) requests.
    pub completed: u64,
    /// Steady-state throughput, operations/second.
    pub throughput_ops: f64,
    /// Simulated time of the last completion (run makespan), picoseconds.
    pub elapsed_ps: u64,
    /// Post-warm-up issue→response latency (what `RunStats` reports).
    pub latency: HistSummary,
    /// Issue→response latency over *all* traced requests (warm-up included).
    pub total: HistSummary,
    /// Per-stage breakdown, name-sorted; sums partition `total` exactly.
    pub stages: Vec<(String, HistSummary)>,
    /// Per-resource counters and utilization gauges.
    pub resources: MetricSet,
    /// Windowed time series (per-window latency + per-resource busy/wait
    /// deltas), when the recorder's timeline was finalized.
    pub timeline: Option<TimelineSummary>,
    /// Deterministic event-core scheduler telemetry, attached via
    /// [`RunReport::attach_event_core`] when profiling is enabled.
    pub event_core: Option<EventCoreSummary>,
    /// Per-entity scoped metrics (per-scope counters/latency/windows, hot
    /// sketches, SLO digest), attached via [`RunReport::attach_scopes`]
    /// when the run enabled scoping.
    pub scopes: Option<ScopesSummary>,
}

impl RunReport {
    /// Assembles a report from a finished recorder.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        seed: u64,
        completed: u64,
        throughput_ops: f64,
        elapsed: Span,
        latency: HistSummary,
        rec: &StageRecorder,
        resources: MetricSet,
    ) -> Self {
        let mut report = RunReport {
            name: name.to_string(),
            seed,
            completed,
            throughput_ops,
            elapsed_ps: elapsed.as_ps(),
            latency,
            total: HistSummary::of(rec.total()),
            stages: rec.stages().map(|(n, h)| (n.to_string(), HistSummary::of(h))).collect(),
            resources,
            timeline: rec.timeline_summary().cloned(),
            event_core: None,
            scopes: None,
        };
        report.publish_utilization();
        report
    }

    /// Attaches the event-core telemetry section: stores the summary and
    /// publishes its counters under the `event_core` prefix so
    /// `validate_event_core` can cross-check them. Runs without profiling
    /// never call this, keeping their JSON byte-identical to the goldens.
    pub fn attach_event_core(&mut self, summary: EventCoreSummary) {
        summary.publish_metrics(&mut self.resources, "event_core");
        self.event_core = Some(summary);
    }

    /// Attaches the scoped-metrics section: stores the summary and
    /// publishes its `scope.*` / `hot.*` / `slo.*` mirror counters so
    /// `validate_scopes` can cross-check them. Unscoped runs never call
    /// this, keeping their JSON byte-identical to the goldens.
    pub fn attach_scopes(&mut self, summary: ScopesSummary) {
        summary.publish_metrics(&mut self.resources);
        self.scopes = Some(summary);
    }

    /// Derives `*.utilization` gauges from published `*.busy_ps` counters
    /// (scaled by the sibling `*.units` counter when present) and the run
    /// makespan.
    fn publish_utilization(&mut self) {
        if self.elapsed_ps == 0 {
            return;
        }
        let busy: Vec<(String, u64, u64)> = self
            .resources
            .counters()
            .filter_map(|(name, value)| {
                let base = name.strip_suffix(".busy_ps")?;
                let units = self.resources.counter(&format!("{base}.units")).unwrap_or(1).max(1);
                Some((base.to_string(), value, units))
            })
            .collect();
        for (base, busy_ps, units) in busy {
            let util = busy_ps as f64 / (units as f64 * self.elapsed_ps as f64);
            self.resources.gauge(&format!("{base}.utilization"), util);
        }
    }

    /// Per-stage `(name, mean_us, share_of_total_time)` rows, name-sorted.
    pub fn breakdown(&self) -> Vec<(String, f64, f64)> {
        let total = self.total.sum_ps.max(1) as f64;
        self.stages.iter().map(|(name, s)| (name.clone(), s.mean_us(), s.sum_ps as f64 / total)).collect()
    }

    /// Checks the report's internal consistency.
    ///
    /// - the stage sums partition the traced total exactly;
    /// - the traced total covers at least the measured requests, and its
    ///   min/max envelope the post-warm-up latency histogram;
    /// - the traced mean and the measured mean agree within a loose factor
    ///   (warm-up requests differ, but not by orders of magnitude).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let stage_sum: u128 = self.stages.iter().map(|(_, s)| s.sum_ps).sum();
        if stage_sum != self.total.sum_ps {
            return Err(format!(
                "stage sums ({} ps) do not partition the traced total ({} ps)",
                stage_sum, self.total.sum_ps
            ));
        }
        if self.total.count < self.latency.count {
            return Err(format!("traced {} requests but measured {}", self.total.count, self.latency.count));
        }
        if self.latency.count != self.completed {
            return Err(format!(
                "latency histogram holds {} samples for {} completions",
                self.latency.count, self.completed
            ));
        }
        if self.latency.count > 0 {
            if self.total.min_ps > self.latency.min_ps || self.total.max_ps < self.latency.max_ps {
                return Err(format!(
                    "traced envelope [{}, {}] does not contain measured [{}, {}]",
                    self.total.min_ps, self.total.max_ps, self.latency.min_ps, self.latency.max_ps
                ));
            }
            let traced = self.total.mean_ps.max(1) as f64;
            let measured = self.latency.mean_ps.max(1) as f64;
            let ratio = traced / measured;
            if !(0.2..=5.0).contains(&ratio) {
                return Err(format!(
                    "traced mean {} ps and measured mean {} ps disagree (ratio {ratio:.2})",
                    self.total.mean_ps, self.latency.mean_ps
                ));
            }
        }
        self.validate_faults()?;
        self.validate_rnic()?;
        self.validate_event_core()?;
        self.validate_timeline()?;
        self.validate_scopes()
    }

    /// Checks the scoped-metrics conservation identities (analyzer rule
    /// R10 keeps the mirror list in sync with the `scopes` publisher):
    ///
    /// - **histogram conservation** — the per-scope latency histograms
    ///   merge to the traced total bucket-for-bucket, and their counts and
    ///   sums telescope to it exactly;
    /// - **window conservation** — each scope's windows sit on the global
    ///   timeline grid, and per window the scope counts/sums telescope to
    ///   the global window exactly;
    /// - **counter conservation** — per-scope counters sum to the rollup,
    ///   and every rollup counter sharing a name with a global resource
    ///   counter equals it exactly (the fabric's per-link scopes publish
    ///   under global names, so each link's traffic is attributed once);
    /// - **sketch conservation** — the space-saving sketches' monitored
    ///   counts sum to their observation totals, rankings are
    ///   non-increasing with `err ≤ count`, and an exact (`err == 0`)
    ///   hot-scope entry equals its scope's request counter;
    /// - the SLO digest re-derives from the timeline, and the published
    ///   `scope.*` / `hot.*` / `slo.*` counters mirror the section.
    ///
    /// A report without an attached section (every unscoped run) reduces
    /// to `Ok(())`.
    fn validate_scopes(&self) -> Result<(), String> {
        let Some(sc) = &self.scopes else { return Ok(()) };
        if sc.merged != self.total {
            return Err(format!("scope merged summary {:?} != traced total {:?}", sc.merged, self.total));
        }
        let count: u64 = sc.scopes.iter().map(|s| s.latency.count).sum();
        let sum: u128 = sc.scopes.iter().map(|s| s.latency.sum_ps).sum();
        if count != sc.merged.count || sum != sc.merged.sum_ps {
            return Err(format!(
                "per-scope histograms hold {count} samples / {sum} ps, merged says {} / {} ps",
                sc.merged.count, sc.merged.sum_ps
            ));
        }
        for s in &sc.scopes {
            let requests = s.set.counter("requests").unwrap_or(0);
            if requests != s.latency.count {
                return Err(format!(
                    "scope {} counted {requests} requests but recorded {} latencies",
                    s.name, s.latency.count
                ));
            }
            let recorded = s.set.counter("latency_ps").unwrap_or(0);
            if recorded != u64::try_from(s.latency.sum_ps).unwrap_or(u64::MAX) {
                return Err(format!(
                    "scope {} latency_ps counter {recorded} != histogram sum {} ps",
                    s.name, s.latency.sum_ps
                ));
            }
        }
        // Counter conservation: recompute the rollup from the children and
        // hold any name shared with the global resources to the same value.
        let mut recomputed = MetricSet::new();
        for s in &sc.scopes {
            recomputed.merge(&s.set);
        }
        for (name, value) in recomputed.counters() {
            if sc.rollup.counter(name) != Some(value) {
                return Err(format!(
                    "rollup counter {name} = {:?} does not equal the per-scope sum {value}",
                    sc.rollup.counter(name)
                ));
            }
        }
        if sc.rollup.counters().count() != recomputed.counters().count() {
            return Err("rollup carries counters no scope published".to_string());
        }
        for (name, value) in sc.rollup.counters() {
            if let Some(global) = self.resources.counter(name) {
                if global != value {
                    return Err(format!(
                        "scoped counter {name} sums to {value} but the global counter says {global}"
                    ));
                }
            }
        }
        // Window conservation against the global timeline grid.
        match &self.timeline {
            Some(tl) => {
                for s in &sc.scopes {
                    if s.windows.len() != tl.windows.len() {
                        return Err(format!(
                            "scope {} has {} windows on a {}-window global grid",
                            s.name,
                            s.windows.len(),
                            tl.windows.len()
                        ));
                    }
                }
                for (i, global) in tl.windows.iter().enumerate() {
                    let count: u64 = sc.scopes.iter().map(|s| s.windows[i].count).sum();
                    let sum: u128 = sc.scopes.iter().map(|s| s.windows[i].sum_ps).sum();
                    if count != global.count || sum != global.sum_ps {
                        return Err(format!(
                            "window {i}: scopes hold {count} samples / {sum} ps, global window \
                             holds {} / {} ps",
                            global.count, global.sum_ps
                        ));
                    }
                }
            }
            None => {
                if sc.scopes.iter().any(|s| !s.windows.is_empty()) || sc.slo.windows != 0 {
                    return Err("scoped windows present without a global timeline".to_string());
                }
            }
        }
        // Sketch conservation: monitored counts sum to the observation
        // total (a space-saving invariant — every observation lands in
        // exactly one monitored counter, eviction moves mass, never drops
        // it), rankings are ordered, and exact entries match ground truth.
        if sc.top_hits() != sc.keys_observed {
            return Err(format!(
                "hot-key counts sum to {} for {} observations",
                sc.top_hits(),
                sc.keys_observed
            ));
        }
        for rows in sc.hot_keys.windows(2) {
            if rows[0].count < rows[1].count {
                return Err(format!("hot keys out of order: {rows:?}"));
            }
        }
        for row in &sc.hot_keys {
            if row.err > row.count {
                return Err(format!("hot key {} error {} exceeds its count {}", row.key, row.err, row.count));
            }
        }
        let scope_hits: u64 = sc.hot_scopes.iter().map(|r| r.count).sum();
        if scope_hits != sc.merged.count {
            return Err(format!(
                "hot-scope counts sum to {scope_hits} for {} recorded requests",
                sc.merged.count
            ));
        }
        for row in &sc.hot_scopes {
            if row.err > row.count {
                return Err(format!(
                    "hot scope {} error {} exceeds its count {}",
                    row.scope, row.err, row.count
                ));
            }
            if row.err == 0 {
                let truth =
                    sc.scopes.iter().find(|s| s.name == row.scope).map(|s| s.latency.count).unwrap_or(0);
                if row.count != truth {
                    return Err(format!(
                        "exact hot-scope entry {} claims {} requests, scope recorded {truth}",
                        row.scope, row.count
                    ));
                }
            }
        }
        // The SLO digest must re-derive from the timeline it summarizes.
        let derived = crate::scope::SloSummary::derive(sc.slo.target_p99_ps, self.timeline.as_ref());
        if derived != sc.slo {
            return Err(format!(
                "SLO digest {:?} does not re-derive from the timeline ({derived:?})",
                sc.slo
            ));
        }
        // The published counters must mirror the structured section.
        let counter = |name: &str| self.resources.counter(name).unwrap_or(0);
        let mirror: [(&str, u64); 8] = [
            ("scope.count", sc.scopes.len() as u64),
            ("scope.requests", sc.merged.count),
            ("scope.latency_ps", u64::try_from(sc.merged.sum_ps).unwrap_or(u64::MAX)),
            ("hot.keys_tracked", sc.hot_keys.len() as u64),
            ("hot.observed", sc.keys_observed),
            ("hot.top_hits", sc.top_hits()),
            ("slo.violations", sc.slo.violations),
            ("slo.windows", sc.slo.windows),
        ];
        for (name, expect) in mirror {
            if counter(name) != expect {
                return Err(format!(
                    "published counter {name} = {} does not mirror the scopes section ({expect})",
                    counter(name)
                ));
            }
        }
        if self.resources.gauge_value("slo.burn_rate") != Some(sc.slo.burn_rate) {
            return Err(format!(
                "published gauge slo.burn_rate = {:?} does not mirror the section ({})",
                self.resources.gauge_value("slo.burn_rate"),
                sc.slo.burn_rate
            ));
        }
        Ok(())
    }

    /// Checks the event-core conservation identities (analyzer rule R9
    /// keeps this list in sync with the `event_core` publisher):
    ///
    /// - `dispatched == enqueued − pending`: every scheduled event is fired
    ///   or still pending — none vanish;
    /// - the per-kind breakdown partitions pushes, pops, and dwell exactly;
    /// - the counters published under the `event_core` prefix mirror the
    ///   structured section value for value.
    ///
    /// A report without an attached section (every non-profiled run)
    /// reduces to `Ok(())`.
    fn validate_event_core(&self) -> Result<(), String> {
        let Some(ec) = &self.event_core else { return Ok(()) };
        if ec.pending > ec.enqueued || ec.dispatched != ec.enqueued - ec.pending {
            return Err(format!(
                "event core dispatched {} events, but {} enqueued − {} pending",
                ec.dispatched, ec.enqueued, ec.pending
            ));
        }
        let pushes: u64 = ec.kinds.iter().map(|k| k.pushes).sum();
        let pops: u64 = ec.kinds.iter().map(|k| k.pops).sum();
        let held: u64 = ec.kinds.iter().map(|k| k.held_ps).sum();
        if pushes != ec.enqueued || pops != ec.dispatched || held != ec.dwell_ps {
            return Err(format!(
                "event-core kinds partition {pushes} pushes / {pops} pops / {held} ps dwell, totals \
                 say {} / {} / {} ps",
                ec.enqueued, ec.dispatched, ec.dwell_ps
            ));
        }
        // The published counters must mirror the structured section.
        let counter = |name: &str| self.resources.counter(name).unwrap_or(0);
        let mirror: [(&str, u64); 4] = [
            ("event_core.enqueued", ec.enqueued),
            ("event_core.dispatched", ec.dispatched),
            ("event_core.pending", ec.pending),
            ("event_core.dwell_ps", ec.dwell_ps),
        ];
        for (name, expect) in mirror {
            if counter(name) != expect {
                return Err(format!(
                    "published counter {name} = {} does not mirror the event_core section ({expect})",
                    counter(name)
                ));
            }
        }
        let kind_sum = |suffix: &str| -> u64 {
            self.resources
                .counters()
                .filter(|(name, _)| name.starts_with("event_core.kind.") && name.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        if kind_sum(".pushes") != ec.enqueued
            || kind_sum(".pops") != ec.dispatched
            || kind_sum(".held_ps") != ec.dwell_ps
        {
            return Err(format!(
                "published event_core.kind.* counters ({} pushes / {} pops / {} ps held) do not \
                 mirror the section totals",
                kind_sum(".pushes"),
                kind_sum(".pops"),
                kind_sum(".held_ps")
            ));
        }
        Ok(())
    }

    /// Checks the cross-layer fault/recovery identities. Every injected
    /// fault must be matched by exactly one detection at some RNIC (drops
    /// and flaps by timeout, corruptions by NACK), and every detection by
    /// either a retransmission or an abandoned operation; the recovery
    /// stall counter mirrors `backoff_ns` exactly. All identities reduce to
    /// `0 == 0` for a healthy-fabric run, which publishes none of these
    /// counters.
    fn validate_faults(&self) -> Result<(), String> {
        let sum = |suffix: &str| -> u64 {
            self.resources.counters().filter(|(name, _)| name.ends_with(suffix)).map(|(_, v)| v).sum()
        };
        let lost = sum(".faults.dropped") + sum(".faults.flapped");
        let timeouts = sum(".timeouts");
        if lost != timeouts {
            return Err(format!("{lost} lost frames (drops + flaps) but {timeouts} timeout detections"));
        }
        let corrupted = sum(".faults.corrupted");
        let nacks = sum(".nacks");
        if corrupted != nacks {
            return Err(format!("{corrupted} corrupted frames but {nacks} NACK detections"));
        }
        let recovered = sum(".retransmits") + sum(".retries_exhausted");
        if timeouts + nacks != recovered {
            return Err(format!(
                "{} loss detections but {recovered} retransmissions + abandoned operations",
                timeouts + nacks
            ));
        }
        let backoff_ns = sum(".backoff_ns");
        let busy_ps = sum(".recovery.busy_ps");
        if backoff_ns * 1000 != busy_ps {
            return Err(format!("backoff_ns {backoff_ns} does not mirror recovery.busy_ps {busy_ps}"));
        }
        Ok(())
    }

    /// Checks the RNIC operation-count identities (analyzer rule R9 keeps
    /// this list in sync with `publish_metrics`). Summed over every
    /// endpoint in the run:
    ///
    /// - `doorbells <= wqes`, and the two are zero together: `post` is the
    ///   only increment site for both, ringing one doorbell per WQE chain
    ///   of at least one entry (chained WQEs after the first ride the
    ///   amortized pipeline path and ring nothing);
    /// - `cqes <= wqes + inbound_writes + inbound_reads`: every CQE is
    ///   caused either by a signaled local posting or by an inbound
    ///   delivery (the two-sided receive path) — completions never
    ///   materialize out of thin air.
    ///
    /// A run that publishes no RNIC counters (the micro designs) reduces
    /// every identity to `0 == 0`.
    fn validate_rnic(&self) -> Result<(), String> {
        let sum = |suffix: &str| -> u64 {
            self.resources.counters().filter(|(name, _)| name.ends_with(suffix)).map(|(_, v)| v).sum()
        };
        let doorbells = sum(".doorbells");
        let wqes = sum(".wqes");
        if doorbells > wqes {
            return Err(format!("{doorbells} doorbells rang for only {wqes} posted WQEs"));
        }
        if (doorbells == 0) != (wqes == 0) {
            return Err(format!("{wqes} WQEs posted but {doorbells} doorbells rang"));
        }
        let cqes = sum(".cqes");
        let inbound = sum(".inbound_writes") + sum(".inbound_reads");
        if cqes > wqes + inbound {
            return Err(format!(
                "{cqes} completions but only {wqes} posted WQEs + {inbound} inbound deliveries"
            ));
        }
        Ok(())
    }

    /// Checks the windowed timeline (when present) against the whole-run
    /// totals:
    ///
    /// - merging the per-window histograms reproduces the traced total
    ///   exactly (same samples, exact merge) — the throughput side of the
    ///   Little's-law cross-check (`Σ window counts == total count` and
    ///   `Σ window sums == total time in system`);
    /// - the windows tile the makespan: minimal in number, covering it;
    /// - every resource with a `*.busy_ps` counter has a delta series, and
    ///   each series telescopes to its final busy/wait counter to the
    ///   picosecond — the busy-time side of the utilization law.
    fn validate_timeline(&self) -> Result<(), String> {
        let Some(tl) = &self.timeline else { return Ok(()) };
        if tl.merged != self.total {
            return Err(format!("timeline merged summary {:?} != traced total {:?}", tl.merged, self.total));
        }
        let window_count: u64 = tl.windows.iter().map(|w| w.count).sum();
        if window_count != self.total.count {
            return Err(format!(
                "timeline windows hold {} samples, total {}",
                window_count, self.total.count
            ));
        }
        let window_sum: u128 = tl.windows.iter().map(|w| w.sum_ps).sum();
        if window_sum != self.total.sum_ps {
            return Err(format!("timeline window sums {} ps, total {} ps", window_sum, self.total.sum_ps));
        }
        let n = tl.windows.len() as u64;
        if n == 0 || tl.window_ps == 0 {
            return Err("timeline has no windows".to_string());
        }
        if tl.elapsed_ps != self.elapsed_ps {
            return Err(format!("timeline elapsed {} ps, report {} ps", tl.elapsed_ps, self.elapsed_ps));
        }
        if n * tl.window_ps < self.elapsed_ps || (n - 1) * tl.window_ps >= self.elapsed_ps.max(1) {
            return Err(format!(
                "{} windows of {} ps do not tile the {} ps makespan",
                n, tl.window_ps, self.elapsed_ps
            ));
        }
        let busy_bases: Vec<&str> =
            self.resources.counters().filter_map(|(name, _)| name.strip_suffix(".busy_ps")).collect();
        if busy_bases.len() != tl.resources.len() {
            return Err(format!(
                "timeline carries {} resource series for {} busy counters",
                tl.resources.len(),
                busy_bases.len()
            ));
        }
        for series in &tl.resources {
            if series.busy_delta_ps.len() != tl.windows.len()
                || series.wait_delta_ps.len() != tl.windows.len()
            {
                return Err(format!("resource {} series length mismatch", series.name));
            }
            let busy: u64 = series.busy_delta_ps.iter().sum();
            let expect = self.resources.counter(&format!("{}.busy_ps", series.name)).unwrap_or(0);
            if busy != expect {
                return Err(format!(
                    "resource {} busy deltas sum to {} ps, counter says {} ps",
                    series.name, busy, expect
                ));
            }
            let wait: u64 = series.wait_delta_ps.iter().sum();
            let wait_expect = wait_counter(&self.resources, &series.name)
                .and_then(|name| self.resources.counter(&name))
                .unwrap_or(0);
            if wait != wait_expect {
                return Err(format!(
                    "resource {} wait deltas sum to {} ps, counter says {} ps",
                    series.name, wait, wait_expect
                ));
            }
        }
        Ok(())
    }

    /// Renders the report as a deterministic JSON value.
    pub fn to_json(&self) -> Json {
        let mut stages = Json::obj();
        for (name, summary) in &self.stages {
            stages.push(name, summary.to_json());
        }
        let mut out = Json::obj();
        out.push("name", Json::Str(self.name.clone()));
        out.push("seed", Json::U64(self.seed));
        out.push("completed", Json::U64(self.completed));
        out.push("throughput_ops", Json::F64(self.throughput_ops));
        out.push("elapsed_ps", Json::U64(self.elapsed_ps));
        out.push("latency", self.latency.to_json());
        out.push("total", self.total.to_json());
        out.push("stages", stages);
        out.push("resources", self.resources.to_json());
        if let Some(tl) = &self.timeline {
            out.push("timeline", tl.to_json());
        }
        if let Some(ec) = &self.event_core {
            out.push("event_core", ec.to_json());
        }
        if let Some(sc) = &self.scopes {
            out.push("scopes", sc.to_json());
        }
        out
    }

    /// Renders the report as canonical pretty-printed JSON (the golden-file
    /// format: byte-identical across runs for identical inputs).
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn trace_legs_partition_the_total() {
        let mut rec = StageRecorder::active();
        for i in 0..10u64 {
            let t0 = ns(i * 100);
            let mut tr = rec.trace(t0);
            tr.leg("fabric", t0 + Span::from_ns(30));
            tr.leg("compute", t0 + Span::from_ns(70));
            let done = t0 + Span::from_ns(70);
            tr.finish(done);
        }
        let stage_sum: u128 = rec.stages().map(|(_, h)| h.sum_ps()).sum();
        assert_eq!(stage_sum, rec.total().sum_ps());
        assert_eq!(rec.total().count(), 10);
        assert_eq!(rec.stage("fabric").unwrap().mean(), Span::from_ns(30));
        assert_eq!(rec.stage("compute").unwrap().mean(), Span::from_ns(40));
        assert!(rec.stage("missing").is_none());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = StageRecorder::disabled();
        let mut tr = rec.trace(ns(0));
        tr.leg("fabric", ns(10));
        tr.finish(ns(10));
        assert!(!rec.is_active());
        assert_eq!(rec.total().count(), 0);
        assert_eq!(rec.stages().count(), 0);
    }

    fn sample_report(drop_a_leg: bool) -> RunReport {
        let mut rec = StageRecorder::active();
        let mut latency = Histogram::new();
        for i in 0..20u64 {
            let t0 = ns(i * 1000);
            let mid = t0 + Span::from_ns(400);
            let done = t0 + Span::from_ns(1000);
            let mut tr = rec.trace(t0);
            tr.leg("first", mid);
            if !drop_a_leg {
                tr.leg("second", done);
            }
            rec.request(t0, done);
            if i >= 2 {
                latency.record(done - t0);
            }
        }
        let mut resources = MetricSet::new();
        resources.set("cpu.busy_ps", 10_000_000);
        resources.set("cpu.units", 4);
        RunReport::new(
            "test.run",
            7,
            18,
            1.0e6,
            Span::from_us(20),
            HistSummary::of(&latency),
            &rec,
            resources,
        )
    }

    #[test]
    fn complete_report_validates() {
        let report = sample_report(false);
        report.validate().expect("report should be consistent");
        // Utilization derived from busy_ps, units, and the makespan.
        let util = report.resources.gauge_value("cpu.utilization").unwrap();
        assert!((util - 10.0e6 / (4.0 * 20.0e6)).abs() < 1e-12, "{util}");
        let rows = report.breakdown();
        assert_eq!(rows.len(), 2);
        let share: f64 = rows.iter().map(|(_, _, s)| s).sum();
        assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");
    }

    #[test]
    fn dropped_leg_fails_validation() {
        let report = sample_report(true);
        let err = report.validate().unwrap_err();
        assert!(err.contains("partition"), "{err}");
    }

    #[test]
    fn report_json_is_deterministic() {
        let a = sample_report(false).to_json_string();
        let b = sample_report(false).to_json_string();
        assert_eq!(a, b);
        assert!(a.contains("\"name\": \"test.run\""));
        assert!(a.contains("\"first\""));
        assert!(a.contains("cpu.utilization"));
    }

    #[test]
    fn summary_percentiles_are_ordered() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(Span::from_ns(i));
        }
        let s = HistSummary::of(&h);
        assert!(s.p50_ps <= s.p99_ps, "{s:?}");
        assert!(s.p99_ps <= s.p999_ps, "{s:?}");
        assert!(s.p999_ps <= s.max_ps, "{s:?}");
        // p99.9 lands within bucket resolution of the exact 9990 ns.
        let exact = 9_990_000.0;
        assert!((s.p999_ps as f64 - exact).abs() / exact < 0.07, "{s:?}");
    }

    #[test]
    fn fault_recovery_identities_are_checked() {
        let mut report = sample_report(false);
        report.resources.set("net.faults.dropped", 2);
        report.resources.set("net.faults.flapped", 1);
        report.resources.set("net.faults.corrupted", 2);
        report.resources.set("client.rnic.timeouts", 3);
        report.resources.set("client.rnic.nacks", 2);
        report.resources.set("client.rnic.retransmits", 4);
        report.resources.set("client.rnic.retries_exhausted", 1);
        report.resources.set("client.rnic.backoff_ns", 50);
        report.resources.set("client.rnic.recovery.busy_ps", 50_000);
        report.validate().expect("consistent fault counters");

        report.resources.set("client.rnic.retransmits", 5);
        let err = report.validate().unwrap_err();
        assert!(err.contains("loss detections"), "{err}");
        report.resources.set("client.rnic.retransmits", 4);

        report.resources.set("client.rnic.backoff_ns", 51);
        let err = report.validate().unwrap_err();
        assert!(err.contains("mirror"), "{err}");
        report.resources.set("client.rnic.backoff_ns", 50);

        report.resources.set("net.faults.dropped", 9);
        let err = report.validate().unwrap_err();
        assert!(err.contains("timeout detections"), "{err}");
    }

    #[test]
    fn event_core_identities_are_checked() {
        use crate::event_core::{EventCoreSummary, EventKindSummary};
        let mut report = sample_report(false);
        report.validate().expect("no section, nothing to check");
        let ec = EventCoreSummary {
            enqueued: 10,
            dispatched: 9,
            pending: 1,
            dwell_ps: 500,
            kinds: vec![EventKindSummary { name: "event".to_string(), pushes: 10, pops: 9, held_ps: 500 }],
        };
        report.attach_event_core(ec);
        report.validate().expect("consistent event-core section");
        assert!(report.to_json_string().contains("\"event_core\""));

        // A published counter that drifts from the section fails the mirror.
        report.resources.set("event_core.enqueued", 11);
        let err = report.validate().unwrap_err();
        assert!(err.contains("mirror"), "{err}");
        report.resources.set("event_core.enqueued", 10);
        report.validate().expect("restored");

        // Losing a pending event breaks the dispatch conservation identity.
        report.event_core.as_mut().unwrap().pending = 0;
        let err = report.validate().unwrap_err();
        assert!(err.contains("dispatched"), "{err}");
        report.event_core.as_mut().unwrap().pending = 1;

        // The per-kind breakdown must partition the totals.
        report.event_core.as_mut().unwrap().kinds[0].pops = 8;
        let err = report.validate().unwrap_err();
        assert!(err.contains("kinds partition"), "{err}");
    }

    /// Builds a fully-scoped report the way `SimBuilder::run` does: trace
    /// every request, scope-record every request, finalize the timeline,
    /// then attach the scoped summary. `skip_one_scope_record` drops one
    /// request from the scoped view to break histogram conservation.
    fn scoped_report(skip_one_scope_record: bool) -> RunReport {
        use crate::scope::{ScopeConfig, ScopedMetrics};
        let mut rec = StageRecorder::active();
        let mut scopes = ScopedMetrics::active(ScopeConfig { top_k: 2, slo_p99_ps: 500_000 });
        let mut latency = Histogram::new();
        for i in 0..20u64 {
            let t0 = ns(i * 1000);
            let done = t0 + Span::from_ns(1000);
            let mut tr = rec.trace(t0);
            tr.leg("serve", done);
            rec.request(t0, done);
            if !(skip_one_scope_record && i == 7) {
                scopes.record(if i % 4 == 0 { "shard/0" } else { "shard/1" }, t0, done);
            }
            scopes.observe_key(i % 3);
            if i >= 2 {
                latency.record(done - t0);
            }
        }
        let mut resources = MetricSet::new();
        resources.set("cpu.busy_ps", 10_000_000);
        resources.set("cpu.units", 4);
        rec.finalize_timeline(Span::from_us(20), &resources);
        let mut report = RunReport::new(
            "test.scoped",
            7,
            18,
            1.0e6,
            Span::from_us(20),
            HistSummary::of(&latency),
            &rec,
            resources,
        );
        report.attach_scopes(scopes.finalize(report.timeline.as_ref()));
        report
    }

    #[test]
    fn scoped_report_validates_and_serializes() {
        let report = scoped_report(false);
        report.validate().expect("scoped report should be consistent");
        let text = report.to_json_string();
        assert!(text.contains("\"scopes\""), "{text}");
        assert!(text.contains("\"shard/0\""), "{text}");
        assert!(text.contains("\"hot_keys\""), "{text}");
        assert!(text.contains("\"burn_rate\""), "{text}");
        assert_eq!(report.resources.counter("scope.requests"), Some(20));
        assert_eq!(report.resources.counter("hot.observed"), Some(20));
        // Byte-identical across identical rebuilds.
        assert_eq!(text, scoped_report(false).to_json_string());
    }

    #[test]
    fn unscoped_request_breaks_histogram_conservation() {
        let report = scoped_report(true);
        let err = report.validate().unwrap_err();
        assert!(err.contains("scope merged"), "{err}");
    }

    #[test]
    fn scope_identities_catch_tampering() {
        // A drifted mirror counter.
        let mut report = scoped_report(false);
        report.resources.set("scope.requests", 21);
        let err = report.validate().unwrap_err();
        assert!(err.contains("mirror"), "{err}");

        // A scope whose counter disagrees with its own histogram.
        let mut report = scoped_report(false);
        report.scopes.as_mut().unwrap().scopes[0].set.add("requests", 1);
        let err = report.validate().unwrap_err();
        assert!(err.contains("requests"), "{err}");

        // An SLO digest that no longer re-derives from the timeline.
        let mut report = scoped_report(false);
        report.scopes.as_mut().unwrap().slo.violations += 1;
        let err = report.validate().unwrap_err();
        assert!(err.contains("re-derive"), "{err}");

        // A hot-scope entry claiming exactness with a wrong count.
        let mut report = scoped_report(false);
        {
            let sc = report.scopes.as_mut().unwrap();
            sc.hot_scopes[0].count += 1;
            sc.hot_scopes[1].count -= 1;
        }
        let err = report.validate().unwrap_err();
        assert!(err.contains("hot-scope") || err.contains("exact"), "{err}");
    }

    #[test]
    fn mismatched_latency_count_fails_validation() {
        let mut report = sample_report(false);
        report.completed += 1;
        let err = report.validate().unwrap_err();
        assert!(err.contains("completions"), "{err}");
    }
}
