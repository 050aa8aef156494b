//! The one way to run a design: [`SimBuilder`] + [`Design`].
//!
//! A [`Design`] names *what* to simulate, the builder configures *how*
//! (testbed, fault plan, flight recorder), and `run()` always yields a
//! validated-shape [`RunReport`]. Inside, a runner hands its
//! [`Components`] and per-request closure to [`SimCtx::run`], which
//! observes every design the same way.
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

use rambda_des::SimTime;
use rambda_fabric::{FaultConfig, Network};
use rambda_metrics::{HistSummary, MetricSet, RunReport, ScopeConfig, ScopedMetrics, StageRecorder};
use rambda_rnic::RdmaError;
use rambda_trace::{ReqObs, Tracer};

use crate::config::Testbed;
use crate::driver::{run_closed_loop, DriverConfig, RunStats};

/// The simulated components of one design, as the framework observes
/// them.
///
/// A runner gathers every component it publishes (machines, core pools,
/// accelerators, the network) into one struct and implements this trait
/// on it; [`SimCtx::run`] then samples, publishes and fault-drains that
/// struct the same way for every design.
pub trait Components {
    /// Publishes every component's counters except the network's: the
    /// design's one publisher list, used for the periodic samples and the
    /// final report alike.
    fn publish(&self, s: &mut MetricSet);

    /// The design's network, if it has one. The framework installs the
    /// run's fault plan on it, publishes it under `net`, forwards its
    /// injected-fault log to the flight recorder and publishes its links
    /// as `link/net.*` scopes. Single-machine designs keep the default.
    fn net(&mut self) -> Option<&mut Network> {
        None
    }
}

/// Publishes `rig` in full: its own list plus its network under `net`.
fn publish_all<R: Components>(rig: &mut R, s: &mut MetricSet) {
    rig.publish(s);
    if let Some(net) = rig.net() {
        net.publish_metrics(s, "net");
    }
}

/// Everything a runner needs besides its own parameters: the stage
/// recorder and resource sink the report is built from, the (possibly
/// disabled) flight recorder, the run's fault plan and the scoped-metrics
/// registry. Only [`SimBuilder::run`] builds one; a runner hands it its
/// components and serve closure through [`SimCtx::run`].
pub struct SimCtx<'a> {
    rec: &'a mut StageRecorder,
    resources: &'a mut MetricSet,
    tracer: &'a mut Tracer,
    faults: &'a FaultConfig,
    scopes: &'a mut ScopedMetrics,
}

impl SimCtx<'_> {
    /// Runs the closed loop `driver` over the design's components `rig`.
    ///
    /// `serve(rig, req, client, issued)` simulates one request and returns
    /// its completion time; it charges critical-path legs and scope
    /// attribution through `req`. An `Err` means the RDMA layer exhausted
    /// its retransmission budget: the framework sheds the request — the
    /// client observes a timeout at the error-completion time, charged to
    /// a `shed` leg — instead of asserting. Around each call the framework
    /// opens the request trace, closes it at the completion time, records
    /// the request under `scope_names[i]` for the `i` given to
    /// [`Request::scope`] and takes a periodic sample of `rig`, shed
    /// requests included. After the run it drains the network's fault
    /// events into the flight recorder and publishes the final counter
    /// set, the per-link scopes and the trace's final sample.
    pub fn run<R, F>(
        self,
        driver: &DriverConfig,
        scope_names: &[String],
        rig: &mut R,
        mut serve: F,
    ) -> RunStats
    where
        R: Components,
        F: FnMut(&mut R, &mut Request<'_>, usize, SimTime) -> Result<SimTime, RdmaError>,
    {
        let SimCtx { rec, resources, tracer, faults, scopes } = self;
        if let Some(net) = rig.net() {
            net.install_faults(faults);
        }
        let stats = run_closed_loop(driver, |client, at| {
            let mut req = Request { trace: tracer.observe(rec, at), scopes: &mut *scopes, scope: None };
            let done = serve(rig, &mut req, client, at).unwrap_or_else(|err| {
                req.leg("shed", err.at());
                err.at()
            });
            let Request { trace, scopes, scope } = req;
            trace.finish(done);
            if let Some(i) = scope {
                scopes.record(&scope_names[i], at, done);
            }
            tracer.sample_with(rec, at, |s| publish_all(rig, s));
            done
        });
        publish_all(rig, resources);
        if let Some(net) = rig.net() {
            for ev in net.drain_fault_events() {
                tracer.fault(ev.kind.name(), ev.at, ev.from.0, ev.to.0);
            }
            net.publish_scoped(scopes, "net");
        }
        tracer.final_sample(SimTime::ZERO + stats.makespan, resources);
        stats
    }
}

/// One request in flight under [`SimCtx::run`]: its trace cursor, plus
/// the scope and keys it is attributed to.
#[derive(Debug)]
pub struct Request<'a> {
    trace: ReqObs<'a>,
    scopes: &'a mut ScopedMetrics,
    scope: Option<usize>,
}

impl Request<'_> {
    /// Ends the current critical-path leg at `now`, charging it to `stage`.
    pub fn leg(&mut self, stage: &'static str, now: SimTime) {
        self.trace.leg(stage, now);
    }

    /// Attributes the request to scope `index` of the run's scope names.
    pub fn scope(&mut self, index: usize) {
        self.scope = Some(index);
    }

    /// Feeds `key` into the hot-key sketch.
    pub fn key(&mut self, key: u64) {
        self.scopes.observe_key(key);
    }
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
        // Closing the timeline against the makespan and the final counters
        // makes its busy-time identity exact.
        rec.finalize_timeline(stats.makespan, &resources);
        let latency = HistSummary::of(&stats.latency);
        let (name, seed) = (self.design.name, self.design.seed);
        let mut report = RunReport::new(
            name,
            seed,
            stats.completed,
            stats.throughput_ops,
            stats.makespan,
            latency,
            &rec,
            resources,
        );
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
    use rambda_des::{Server, Span};

    /// A toy design: two server units behind two scoped connections.
    struct Toy {
        server: Server,
    }

    impl Components for Toy {
        fn publish(&self, s: &mut MetricSet) {
            s.observe_server("server", &self.server);
        }
    }

    fn toy_design(seed: u64) -> Design {
        Design::from_runner("toy", seed, |_tb, ctx| {
            let scope_names = ["conn/0".to_string(), "conn/1".to_string()];
            let mut toy = Toy { server: Server::new(2) };
            ctx.run(&DriverConfig::new(2, 2_000), &scope_names, &mut toy, |toy, req, c, at| {
                let start = toy.server.acquire(at, Span::from_ns(100));
                let done = start + Span::from_ns(100);
                req.leg("cpu_serve", done);
                req.scope(c);
                req.key(c as u64);
                Ok(done)
            })
        })
    }

    #[test]
    fn builder_produces_a_validated_report() {
        let report = SimBuilder::new(toy_design(3)).run();
        report.validate().expect("consistent report");
        assert_eq!(report.name, "toy");
        assert_eq!(report.seed, 3);
        assert!(report.completed > 0);
        // The timeline closes exactly against the final counters.
        let tl = report.timeline.as_ref().expect("builder always records stages");
        assert_eq!(tl.merged, report.total);
        let busy: u64 = tl.resources.iter().find(|r| r.name == "server").unwrap().busy_delta_ps.iter().sum();
        assert_eq!(busy, report.resources.counter("server.busy_ps").unwrap());
        assert!(report.resources.counter("server.acquisitions").unwrap() >= 2_000);
        let util = report.resources.gauge_value("server.utilization").unwrap();
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
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
