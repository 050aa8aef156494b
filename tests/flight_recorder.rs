//! End-to-end acceptance for the per-request flight recorder: a traced KVS
//! run must cross-validate against its own `RunReport`, export loadable
//! Chrome trace JSON and a well-formed compact binary, and attribute its
//! tail to a concrete stage and resource — while a disabled tracer must
//! leave the run report bit-for-bit unchanged. Every registered design
//! cross-validates, and so do the network designs under injected loss.

use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_fabric::FaultConfig;
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_metrics::Json;
use rambda_trace::{Tracer, Track};
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::TxnSpec;

/// Runs `design` with a flight recorder and `faults`, and checks the report
/// and the trace against each other.
fn cross_validated(name: &str, design: Design, faults: FaultConfig) {
    let mut tracer = Tracer::flight_recorder();
    let report = SimBuilder::new(design).faults(faults).tracer(&mut tracer).run();
    report.validate().unwrap_or_else(|e| panic!("{name}: inconsistent report: {e}"));
    tracer.cross_validate(&report).unwrap_or_else(|e| panic!("{name}: trace disagrees with report: {e}"));
}

#[test]
fn every_design_cross_validates() {
    let reg = rambda_bench::quick_registry();
    assert!(reg.is_complete(), "quick registry must cover every runner");
    for name in reg.names() {
        cross_validated(name, reg.design(name).unwrap(), FaultConfig::disabled());
    }
    // The two variants outside the registry go through the same framework.
    let ddio = Design::micro_rambda_always_ddio(MicroParams::quick().with_nvm(), true, 1);
    cross_validated("micro.rambda (DDIO ablation)", ddio, FaultConfig::disabled());
    let pure_reads = Design::txn_pure_reads(TxnParams::quick(TxnSpec::single_write(64)));
    cross_validated("txn.pure_reads", pure_reads, FaultConfig::disabled());
}

#[test]
fn lossy_runs_cross_validate() {
    let reg = rambda_bench::quick_registry();
    for name in ["kvs.rambda", "txn.rambda_tx"] {
        cross_validated(name, reg.design(name).unwrap(), FaultConfig::lossy(0xFA17, 1e-3));
    }
}

#[test]
fn traced_kvs_run_cross_validates_and_exports() {
    let tb = Testbed::default();
    let p = KvsParams::quick();
    let mut tracer = Tracer::flight_recorder();
    let report =
        SimBuilder::new(Design::kvs_rambda(p, DataLocation::HostDram)).config(&tb).tracer(&mut tracer).run();

    report.validate().expect("report internally consistent");
    tracer.cross_validate(&report).expect("trace agrees with the run report");
    assert_eq!(tracer.dropped(), 0, "quick run must fit in the flight-recorder ring");

    // Chrome export: valid JSON with a non-empty traceEvents array.
    let chrome = tracer.export_chrome_json();
    let parsed = Json::parse(&chrome).expect("chrome export parses");
    match parsed.get("traceEvents") {
        Some(Json::Arr(events)) => assert!(!events.is_empty(), "trace must carry events"),
        other => panic!("missing traceEvents array: {other:?}"),
    }

    // Binary export: magic, version, and room for the dropped-count footer.
    let blob = tracer.export_binary();
    assert_eq!(&blob[..4], b"RMBT");
    assert!(blob.len() > 16);

    // Tail attribution: the worst 10 requests each name a dominating stage
    // and a known resource track; percentiles are ordered.
    let tail = tracer.tail_report(10);
    assert_eq!(tail.worst.len(), 10);
    for w in &tail.worst {
        assert!(!w.dominant_stage.is_empty(), "worst request lacks a stage");
        assert!(
            Track::ALL.iter().any(|t| t.name() == w.dominant_track),
            "unknown track {}",
            w.dominant_track
        );
        assert!(w.total_ps >= tail.p99_ps, "worst requests sit in the tail");
    }
    assert!(tail.p50_ps <= tail.p99_ps && tail.p99_ps <= tail.p999_ps && tail.p999_ps <= tail.max_ps);
    assert!(!tail.dominant_tail_stage.is_empty() && !tail.dominant_tail_track.is_empty());
}

#[test]
fn disabled_tracer_leaves_the_report_unchanged() {
    let tb = Testbed::default();
    let p = KvsParams::quick();
    let plain = SimBuilder::new(Design::kvs_rambda(p.clone(), DataLocation::HostDram)).config(&tb).run();
    let mut off = Tracer::disabled();
    let traced =
        SimBuilder::new(Design::kvs_rambda(p, DataLocation::HostDram)).config(&tb).tracer(&mut off).run();

    assert!(!off.is_enabled());
    assert!(off.is_empty(), "a disabled tracer records nothing");
    assert_eq!(
        plain.to_json_string(),
        traced.to_json_string(),
        "threading a disabled tracer must not perturb the run"
    );
}
