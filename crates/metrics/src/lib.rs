//! # rambda-metrics — the deterministic run-report observability layer.
//!
//! Every serving design in the workspace produces the same headline numbers
//! (throughput + a latency histogram). This crate adds the layer
//! underneath: *where the time goes and which resource it goes to*.
//!
//! Three pieces compose:
//!
//! - [`MetricSet`] — a name-sorted registry of `u64` counters and `f64`
//!   gauges. DES resources ([`rambda_des::Server`], [`rambda_des::Link`],
//!   [`rambda_des::Throttle`]) expose cheap counters (busy time, bytes
//!   moved, queue delay, acquisitions); component crates publish them here
//!   under dotted prefixes (`accel.slots.*`, `mem.dram.*`, `rnic.pcie.*`).
//! - [`StageRecorder`] / [`ReqTrace`] — per-request critical-path tracing.
//!   A runner cuts each request into named legs (doorbell, fabric,
//!   coherence, APU compute, NVM persist, ...); the legs partition the
//!   issue→completion interval exactly, which [`RunReport::validate`]
//!   asserts to the picosecond.
//! - [`RunReport`] — the serde-style serializable artifact: headline stats,
//!   per-stage latency breakdown, per-resource counters and utilization.
//!   [`RunReport::to_json_string`] renders canonical JSON (via the local
//!   [`json::Json`] encoder — the workspace's vendored `serde` shim has
//!   no runtime serializer) that is byte-identical across runs, which the
//!   golden-report tests in `tests/` gate on.
//! - [`Timeline`] / [`TimelineSummary`] — windowed time-series telemetry:
//!   per-window latency histograms and per-resource busy/wait deltas on a
//!   deterministic sim-time grid, cross-checked against the whole-run
//!   totals by exact merge and busy-time identities (DESIGN.md §10).
//! - [`ScopedMetrics`] / [`ScopesSummary`] — per-entity attribution: named
//!   child scopes (shard, replica, table, link) whose counters, latency
//!   histograms, and timeline windows provably roll up to the global
//!   report; deterministic space-saving [`TopKSketch`]es over hot keys and
//!   hot scopes; and a windowed [`SloSummary`] burn-rate digest
//!   (DESIGN.md §15).
//!
//! Determinism is the design constraint throughout: `BTreeMap` storage,
//! insertion-ordered JSON objects, shortest-round-trip float formatting,
//! and no wall-clock anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event_core;
pub mod json;
mod report;
mod scope;
mod set;
mod sketch;
mod timeline;

pub use event_core::{EventCoreSummary, EventKindSummary};
pub use json::Json;
pub use report::{HistSummary, ReqTrace, RunReport, StageRecorder};
pub use scope::{HotScope, ScopeConfig, ScopeSummary, ScopedMetrics, ScopesSummary, SloSummary};
pub use set::MetricSet;
pub use sketch::{SketchEntry, TopKSketch};
pub use timeline::{ResourceSeries, Timeline, TimelineSummary};
