//! The profiled run report is a pure function of the seed: same-seed
//! profiled runs render byte-identical report JSON (mirroring
//! `determinism.rs` for unprofiled reports), the event-core identities
//! validate, the driver's event accounting matches its closed loop exactly
//! on the paper's two headline designs, and profiling never perturbs the
//! simulated run it observes.

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_metrics::RunReport;
use rambda_trace::Tracer;
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::TxnSpec;

/// Runs `design` once under the profiler, with the flight recorder
/// attached and cross-validated against the report.
fn profiled(design: Design) -> RunReport {
    let tb = Testbed::default();
    let mut tracer = Tracer::flight_recorder();
    let report = SimBuilder::new(design).config(&tb).tracer(&mut tracer).profile().run();
    report.validate().expect("profiled report validates its event-core identities");
    tracer.cross_validate(&report).expect("trace agrees with the report");
    report
}

fn kvs_design() -> Design {
    Design::kvs_rambda(KvsParams::quick(), DataLocation::HostDram)
}

fn txn_design() -> Design {
    Design::txn_rambda_tx(TxnParams::quick(TxnSpec::read_write(64)))
}

#[test]
fn same_seed_profiles_are_byte_identical() {
    for design in [kvs_design, txn_design] {
        let a = profiled(design()).to_json_string();
        let b = profiled(design()).to_json_string();
        assert_eq!(a, b, "same-seed profiled reports must be byte-identical");
        assert!(a.contains("\"event_core\""), "the profiled report embeds the event-core section");
    }
}

#[test]
fn driver_event_accounting_matches_the_closed_loop() {
    let kvs = KvsParams::quick();
    let txn = TxnParams::quick(TxnSpec::read_write(64));
    // (name, design, clients × window, requests); txn issues serially.
    let cases = [
        ("kvs.rambda", kvs_design(), kvs.clients as u64 * kvs.window as u64, kvs.requests),
        ("txn.rambda_tx", txn_design(), 1, txn.txns),
    ];
    for (name, design, window, requests) in cases {
        let report = profiled(design);
        let ec = report.event_core.as_ref().expect("profiled report carries event-core telemetry");
        let pushes = |kind: &str| {
            ec.kinds
                .iter()
                .find(|k| k.name == kind)
                .unwrap_or_else(|| panic!("{name}: no {kind} kind"))
                .pushes
        };
        // Every client's window is primed once; every later request is
        // re-armed by a completion; every scheduled event fires.
        assert_eq!(pushes("prime"), window.min(requests), "{name}: prime pushes");
        assert_eq!(pushes("prime") + pushes("serve"), requests, "{name}: one push per request");
        assert_eq!(ec.enqueued, requests, "{name}: the driver is the queue's only client");
        assert_eq!(ec.dispatched, ec.enqueued, "{name}: every event fires");
        assert_eq!(ec.pending, 0, "{name}: the queue drains");
    }
}

#[test]
fn profiling_never_perturbs_the_run_it_observes() {
    let tb = Testbed::default();
    let plain = SimBuilder::new(kvs_design()).config(&tb).run();
    let profiled_report = profiled(kvs_design());
    assert_eq!(plain.completed, profiled_report.completed);
    assert_eq!(plain.elapsed_ps, profiled_report.elapsed_ps);
    assert_eq!(plain.latency.p99_ps, profiled_report.latency.p99_ps);
    // The unprofiled report stays exactly as before the profiler existed:
    // no event-core section — goldens are safe.
    assert!(plain.event_core.is_none());
    assert!(plain.resources.counters().all(|(n, _)| !n.starts_with("event_core.")));
}
