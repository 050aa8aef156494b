//! The unified experiment entry point: [`SimBuilder`] + [`Design`].
//!
//! Historically every runner exposed three entry points (`run_X`,
//! `run_X_report`, `run_X_report_traced`) and fault injection would have
//! added a fourth axis. `SimBuilder` collapses the matrix: a [`Design`]
//! names *what* to simulate, the builder configures *how* (testbed, fault
//! plan, flight recorder), and `run()` always yields a validated-shape
//! [`RunReport`].
//!
//! ```
//! use rambda::{Design, SimBuilder, Testbed};
//! use rambda::micro::MicroParams;
//! use rambda_accel::DataLocation;
//!
//! let report = SimBuilder::new(Design::micro_rambda(
//!         MicroParams::quick(), DataLocation::HostDram, true, 7))
//!     .config(&Testbed::default())
//!     .run();
//! assert!(report.completed > 0);
//! ```
//!
//! Application designs (KVS, TXN, DLRM) register themselves through
//! extension traits on [`Design`] in their own crates, so the builder's
//! surface stays identical across the workspace:
//!
//! ```text
//! use rambda_kvs::KvsDesigns;
//! let report = SimBuilder::new(Design::kvs_rambda(params, location))
//!     .faults(FaultConfig::lossy(9, 1e-3))
//!     .tracer(&mut tracer)
//!     .run();
//! ```

use rambda_fabric::FaultConfig;
use rambda_metrics::{MetricSet, RunReport, ScopeConfig, ScopedMetrics, StageRecorder};
use rambda_trace::Tracer;

use crate::config::Testbed;
use crate::driver::RunStats;
use crate::report::build_report;

/// Everything a runner needs besides its own parameters: the stage
/// recorder + resource sink the report is built from, the (possibly
/// disabled) flight recorder, and the run's fault plan.
///
/// Runners receive this by value and destructure it; the borrows inside
/// live for the duration of one `run()`.
pub struct SimCtx<'a> {
    /// Per-stage latency recorder (always active under the builder).
    pub rec: &'a mut StageRecorder,
    /// Resource counter sink for the final report.
    pub resources: &'a mut MetricSet,
    /// Flight recorder; `Tracer::disabled()` when none was attached.
    pub tracer: &'a mut Tracer,
    /// Fault plan to install on the run's `Network` (disabled by default).
    /// Single-machine designs without a network ignore it.
    pub faults: &'a FaultConfig,
    /// Per-entity scoped metrics; `ScopedMetrics::disabled()` unless the
    /// builder enabled scoping. Designs tag each request with its scope
    /// (shard, replica, table) and feed hot keys into the sketch; the
    /// builder folds the registry into the report's `scopes` section.
    pub scopes: &'a mut ScopedMetrics,
}

/// Builds a throwaway [`SimCtx`] (disabled recorder, tracer and fault
/// plan) bound to `$ctx`, for the stats-only `run_*` entry points that
/// predate the builder. Internal plumbing for the runner crates.
#[doc(hidden)]
#[macro_export]
macro_rules! rambda_stats_only_ctx {
    ($ctx:ident) => {
        let mut rec = ::rambda_metrics::StageRecorder::disabled();
        let mut resources = ::rambda_metrics::MetricSet::new();
        let mut tracer = ::rambda_trace::Tracer::disabled();
        let faults = ::rambda_fabric::FaultConfig::disabled();
        let mut scopes = ::rambda_metrics::ScopedMetrics::disabled();
        let $ctx = $crate::SimCtx {
            rec: &mut rec,
            resources: &mut resources,
            tracer: &mut tracer,
            faults: &faults,
            scopes: &mut scopes,
        };
    };
}

/// The boxed runner closure a [`Design`] carries.
type RunFn = Box<dyn for<'a> FnOnce(&Testbed, SimCtx<'a>) -> RunStats>;

/// A named, seeded experiment: what [`SimBuilder`] runs.
///
/// The micro designs have inherent constructors here; application crates
/// add theirs via extension traits (`KvsDesigns`, `TxnDesigns`,
/// `DlrmDesigns`).
pub struct Design {
    name: &'static str,
    seed: u64,
    run: RunFn,
}

impl Design {
    /// Builds a design from its report name, seed, and runner closure.
    ///
    /// This is the extension point for application crates; in-tree callers
    /// use the named constructors instead.
    pub fn from_runner(
        name: &'static str,
        seed: u64,
        run: impl for<'a> FnOnce(&Testbed, SimCtx<'a>) -> RunStats + 'static,
    ) -> Design {
        Design { name, seed, run: Box::new(run) }
    }

    /// The report name this design will carry (e.g. `kvs.rambda`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The seed recorded in the report.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl std::fmt::Debug for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Design").field("name", &self.name).field("seed", &self.seed).finish()
    }
}

/// Builder for one simulation run. See the module docs for the shape.
#[derive(Debug)]
pub struct SimBuilder<'a> {
    design: Design,
    testbed: Testbed,
    faults: FaultConfig,
    tracer: Option<&'a mut Tracer>,
    profile: bool,
    scopes: Option<ScopeConfig>,
}

impl<'a> SimBuilder<'a> {
    /// Starts a run of `design` on the default Tab. II testbed, with
    /// faults disabled and no flight recorder.
    pub fn new(design: Design) -> Self {
        SimBuilder {
            design,
            testbed: Testbed::default(),
            faults: FaultConfig::disabled(),
            tracer: None,
            profile: false,
            scopes: None,
        }
    }

    /// Uses `testbed` instead of the default configuration.
    pub fn config(mut self, testbed: &Testbed) -> Self {
        self.testbed = testbed.clone();
        self
    }

    /// Installs a fault plan on the run's network. A disabled config
    /// (`FaultConfig::disabled()`) leaves the run byte-identical to one
    /// that never called this.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a flight recorder: per-request spans, periodic resource
    /// samples and injected-fault instants land in `tracer`.
    pub fn tracer(mut self, tracer: &'a mut Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enables deterministic profiling: the report gains an `event_core`
    /// section (scheduler telemetry with validated conservation identities).
    pub fn profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Enables per-entity scoped metrics: the design tags each request
    /// with its scope (shard, replica, embedding table), hot keys feed a
    /// deterministic top-K sketch, and the report gains a `scopes` section
    /// whose conservation identities `RunReport::validate` checks. Runs
    /// without this stay byte-identical to pre-scoping reports.
    pub fn scopes(mut self, config: ScopeConfig) -> Self {
        self.scopes = Some(config);
        self
    }

    /// Runs the design and assembles its [`RunReport`].
    pub fn run(self) -> RunReport {
        let mut rec = StageRecorder::active();
        let mut resources = MetricSet::new();
        let mut no_tracer = Tracer::disabled();
        let tracer = self.tracer.unwrap_or(&mut no_tracer);
        let mut scoped = match self.scopes {
            Some(config) => ScopedMetrics::active(config),
            None => ScopedMetrics::disabled(),
        };
        let ctx = SimCtx {
            rec: &mut rec,
            resources: &mut resources,
            tracer,
            faults: &self.faults,
            scopes: &mut scoped,
        };
        let stats = (self.design.run)(&self.testbed, ctx);
        let mut report = build_report(self.design.name, self.design.seed, &stats, &mut rec, resources);
        if self.profile {
            report.attach_event_core(rambda_metrics::EventCoreSummary::of(&stats.event_core, 0));
        }
        if scoped.is_active() {
            report.attach_scopes(scoped.finalize(report.timeline.as_ref()));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_closed_loop, DriverConfig};
    use rambda_des::{Server, SimTime, Span};

    fn toy_design(seed: u64) -> Design {
        Design::from_runner("toy", seed, |_tb, ctx| {
            let SimCtx { rec, resources, tracer, faults, scopes } = ctx;
            assert!(!faults.is_active(), "toy design runs healthy");
            let scope_names = ["conn/0", "conn/1"];
            let mut server = Server::new(2);
            let stats = run_closed_loop(&DriverConfig::new(2, 2_000), |c, at| {
                let mut tr = tracer.observe(rec, at);
                let start = server.acquire(at, Span::from_ns(100));
                let done = start + Span::from_ns(100);
                tr.leg("cpu_serve", done);
                tr.finish(done);
                scopes.record(scope_names[c], at, done);
                scopes.observe_key(c as u64);
                done
            });
            resources.observe_server("server", &server);
            tracer.final_sample(SimTime::ZERO + stats.makespan, resources);
            stats
        })
    }

    #[test]
    fn builder_produces_a_validated_report() {
        let report = SimBuilder::new(toy_design(3)).run();
        report.validate().expect("consistent report");
        assert_eq!(report.name, "toy");
        assert_eq!(report.seed, 3);
        assert!(report.completed > 0);
        assert!(report.timeline.is_some(), "builder always records stages");
    }

    #[test]
    fn builder_scopes_attach_and_validate() {
        use rambda_metrics::ScopeConfig;
        let plain = SimBuilder::new(toy_design(3)).run();
        let scoped = SimBuilder::new(toy_design(3)).scopes(ScopeConfig::default()).run();
        scoped.validate().expect("scoped report holds its conservation identities");
        let section = scoped.scopes.as_ref().expect("scopes section attached");
        assert_eq!(section.scopes.len(), 2);
        assert_eq!(section.merged.count, scoped.total.count);
        // Scoping is passive: the simulated run is unchanged, and the
        // unscoped report has no scopes section at all.
        assert_eq!(plain.elapsed_ps, scoped.elapsed_ps);
        assert_eq!(plain.total, scoped.total);
        assert!(plain.scopes.is_none());
        assert!(!plain.to_json_string().contains("\"scopes\""));
        // Same seed, same scoped run, byte for byte.
        let again = SimBuilder::new(toy_design(3)).scopes(ScopeConfig::default()).run();
        assert_eq!(scoped.to_json_string(), again.to_json_string());
    }

    #[test]
    fn builder_feeds_the_attached_tracer() {
        let mut tracer = Tracer::flight_recorder();
        let report = SimBuilder::new(toy_design(3)).tracer(&mut tracer).run();
        tracer.cross_validate(&report).expect("trace matches report");
    }

    #[test]
    fn traced_and_scoped_run_cross_validates() {
        use rambda_metrics::ScopeConfig;
        let mut tracer = Tracer::flight_recorder();
        let mut report =
            SimBuilder::new(toy_design(3)).tracer(&mut tracer).scopes(ScopeConfig::default()).run();
        report.validate().expect("scoped report holds its identities");
        tracer.cross_validate(&report).expect("scope mirrors attached after the final sample are exempt");
        // The exemption defers to `validate_scopes`, which still catches a
        // tampered mirror.
        let requests = report.resources.counter("scope.requests").expect("scope mirror published");
        report.resources.set("scope.requests", requests + 1);
        assert!(report.validate().is_err(), "tampered scope.requests must fail validation");
    }

    #[test]
    fn design_debug_hides_the_closure() {
        let d = toy_design(9);
        assert_eq!(d.name(), "toy");
        assert_eq!(d.seed(), 9);
        assert!(format!("{d:?}").contains("toy"));
    }
}
