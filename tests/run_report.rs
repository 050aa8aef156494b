//! Golden run-report tests: quick-mode observability reports must be
//! byte-identical across runs and across commits.
//!
//! Each test renders a [`RunReport`] to its canonical JSON and compares it
//! against a snapshot under `tests/goldens/`. A drift means either a
//! behavioural change in a simulator (expected: regenerate with
//! `RAMBDA_UPDATE_GOLDENS=1 cargo test -p rambda-integration-tests`) or a
//! nondeterminism bug (never acceptable).

use std::fs;
use std::path::PathBuf;

use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_dlrm::{DlrmDesigns, DlrmParams};
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_metrics::RunReport;
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::{DlrmProfile, TxnSpec};

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// Validates `report` and compares its JSON against `tests/goldens/{name}.json`.
fn check_golden(name: &str, report: &RunReport) {
    report.validate().unwrap_or_else(|e| panic!("{name}: inconsistent report: {e}"));
    let rendered = report.to_json_string();
    let path = goldens_dir().join(format!("{name}.json"));
    if std::env::var_os("RAMBDA_UPDATE_GOLDENS").is_some() {
        fs::create_dir_all(goldens_dir()).unwrap();
        fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); generate it with RAMBDA_UPDATE_GOLDENS=1", path.display())
    });
    assert_eq!(
        rendered, golden,
        "{name}: run report drifted from its golden snapshot; if the simulator \
         change is intentional, regenerate with RAMBDA_UPDATE_GOLDENS=1"
    );
}

fn micro_report() -> RunReport {
    SimBuilder::new(Design::micro_rambda(MicroParams::quick(), DataLocation::HostDram, true, 1))
        .config(&Testbed::default())
        .run()
}

fn kvs_report() -> RunReport {
    SimBuilder::new(Design::kvs_rambda(KvsParams::quick(), DataLocation::HostDram))
        .config(&Testbed::default())
        .run()
}

fn txn_report() -> RunReport {
    SimBuilder::new(Design::txn_rambda_tx(TxnParams::quick(TxnSpec::read_write(64))))
        .config(&Testbed::default())
        .run()
}

fn dlrm_report() -> RunReport {
    let books = DlrmProfile::by_name("Books").unwrap();
    SimBuilder::new(Design::dlrm_rambda(DlrmParams::quick(books), DataLocation::HostDram))
        .config(&Testbed::default())
        .run()
}

#[test]
fn golden_micro_rambda_report() {
    check_golden("micro_rambda", &micro_report());
}

#[test]
fn golden_kvs_rambda_report() {
    check_golden("kvs_rambda", &kvs_report());
}

#[test]
fn golden_txn_rambda_report() {
    check_golden("txn_rambda", &txn_report());
}

#[test]
fn golden_dlrm_rambda_report() {
    check_golden("dlrm_rambda", &dlrm_report());
}

#[test]
fn reports_are_deterministic_across_runs() {
    // Two fresh worlds, same seed: byte-identical JSON. This is the
    // invariant the golden files rely on.
    assert_eq!(micro_report().to_json_string(), micro_report().to_json_string());
    assert_eq!(kvs_report().to_json_string(), kvs_report().to_json_string());
    assert_eq!(txn_report().to_json_string(), txn_report().to_json_string());
    assert_eq!(dlrm_report().to_json_string(), dlrm_report().to_json_string());
}

#[test]
fn every_runner_emits_a_consistent_report() {
    // The acceptance bar: each design's per-stage breakdown must partition
    // its traced critical path and agree with the measured RunStats
    // histogram (RunReport::validate checks both).
    let tb = Testbed::default();

    let mp = MicroParams { requests: 4_000, ..MicroParams::quick() };
    let kp = KvsParams { requests: 4_000, ..KvsParams::quick() };
    let xp = TxnParams { txns: 1_000, ..TxnParams::quick(TxnSpec::read_write(64)) };
    let dp = DlrmParams { queries: 2_000, ..DlrmParams::quick(DlrmProfile::by_name("Books").unwrap()) };
    let designs = vec![
        Design::micro_cpu(mp, 8, 16),
        Design::micro_rambda(mp, DataLocation::HostDram, true, 1),
        Design::kvs_cpu(kp.clone()),
        Design::kvs_rambda(kp.clone(), DataLocation::HostDram),
        Design::kvs_smartnic(kp),
        Design::txn_hyperloop(xp.clone()),
        Design::txn_rambda_tx(xp),
        Design::dlrm_cpu(dp.clone(), 8),
        Design::dlrm_rambda(dp, DataLocation::HostDram),
    ];
    let reports: Vec<RunReport> = designs.into_iter().map(|d| SimBuilder::new(d).config(&tb).run()).collect();

    let expected_names = [
        "micro.cpu",
        "micro.rambda",
        "kvs.cpu",
        "kvs.rambda",
        "kvs.smartnic",
        "txn.hyperloop",
        "txn.rambda_tx",
        "dlrm.cpu",
        "dlrm.rambda",
    ];
    assert_eq!(reports.len(), expected_names.len());
    for (report, expected) in reports.iter().zip(expected_names) {
        assert_eq!(report.name, expected);
        report.validate().unwrap_or_else(|e| panic!("{expected}: {e}"));
        assert!(report.completed > 0, "{expected}: no completions");
        assert!(!report.stages.is_empty(), "{expected}: no stage breakdown");
        assert!(!report.resources.is_empty(), "{expected}: no resource counters");
        // Every report carries at least one derived utilization gauge.
        assert!(
            report.resources.gauges().any(|(k, _)| k.ends_with(".utilization")),
            "{expected}: no utilization gauges"
        );
    }
}
