//! CLI contract of the `report` binary's export modes: the scoped-metrics
//! mode (DESIGN.md §15) and the run-report export with its `--profile`
//! section (§14) and its `--loss` fault plan. Bad selections fail fast with
//! the valid-runner listing before any simulation runs or output directory
//! is created, mirroring the `--trace-runner` validation.

use std::path::Path;
use std::process::{Command, Output};

use rambda::{SimBuilder, Testbed};
use rambda_fabric::FaultConfig;

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report")).args(args).output().expect("spawn report")
}

#[test]
fn unknown_scopes_runner_fails_fast_with_listing() {
    let out = report(&["--scopes", "nope"]);
    assert_eq!(out.status.code(), Some(2), "bad runner must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--scopes"), "{err}");
    // The shared check prints every valid runner, so the user can fix the
    // invocation without reading the source.
    for runner in ["micro.cpu", "kvs.rambda", "txn.rambda_tx", "dlrm.rambda"] {
        assert!(err.contains(runner), "listing missing {runner}: {err}");
    }
}

#[test]
fn stray_scopes_out_without_scopes_fails_fast() {
    let dir = format!("{}/stray-scopes-out", env!("CARGO_TARGET_TMPDIR"));
    let out = report(&["--scopes-out", &dir]);
    assert_eq!(out.status.code(), Some(2), "stray --scopes-out must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--scopes-out has no effect without --scopes"), "{err}");
    assert!(!Path::new(&dir).exists(), "fail-fast must not create the output dir");
}

#[test]
fn scopes_combined_with_trace_or_profile_fails_fast() {
    let dir = format!("{}/scopes-vs-trace", env!("CARGO_TARGET_TMPDIR"));
    for other in [&["--trace", &dir][..], &["--report-out", &dir], &["--report-out", &dir, "--profile"]] {
        let out = report(&[&["--scopes", "kvs.rambda"], other].concat());
        assert_eq!(out.status.code(), Some(2), "{other:?} + --scopes must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("mutually exclusive"), "{err}");
        assert!(!Path::new(&dir).exists(), "fail-fast must not create the {other:?} dir");
    }
}

#[test]
fn stray_report_runner_without_report_out_fails_fast() {
    let out = report(&["--report-runner", "kvs.rambda"]);
    assert_eq!(out.status.code(), Some(2), "stray --report-runner must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--report-runner has no effect without --report-out"), "{err}");
}

#[test]
fn scoped_export_writes_both_artifacts_and_validates() {
    let dir = format!("{}/scopes-ok", env!("CARGO_TARGET_TMPDIR"));
    let out = report(&["--scopes", "micro.rambda", "--scopes-out", &dir]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scope conservation identities validated"), "{stdout}");
    assert!(stdout.contains("hot keys"), "{stdout}");
    assert!(stdout.contains("slo windows="), "{stdout}");

    let scoped = std::fs::read_to_string(format!("{dir}/micro.rambda.scopes.json")).expect("scoped json");
    assert!(scoped.contains("\"scopes\""), "scoped report must carry the scopes section");
    let unscoped =
        std::fs::read_to_string(format!("{dir}/micro.rambda.unscoped.json")).expect("unscoped json");
    assert!(!unscoped.contains("\"scopes\""), "unscoped report must omit the scopes section");
}

#[test]
fn profiled_report_export_carries_the_event_core_section() {
    let dir = format!("{}/report-profiled", env!("CARGO_TARGET_TMPDIR"));
    let out = report(&["--report-out", &dir, "--report-runner", "micro.rambda", "--profile"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("micro.rambda — stage breakdown"), "{stdout}");

    // The written bytes are exactly a validating in-process profiled run.
    let design = rambda_bench::quick_registry().design("micro.rambda").expect("registered runner");
    let expected = SimBuilder::new(design).config(&Testbed::default()).profile().run();
    expected.validate().expect("profiled report validates its event-core identities");
    let text = std::fs::read_to_string(format!("{dir}/micro.rambda.report.json")).expect("report json");
    assert_eq!(text, expected.to_json_string());
    let ec = expected.event_core.as_ref().expect("profiled report carries the event-core section");
    assert!(ec.dispatched > 0, "no events dispatched");
}

#[test]
fn unprofiled_report_export_omits_the_event_core_section() {
    let dir = format!("{}/report-plain", env!("CARGO_TARGET_TMPDIR"));
    let out = report(&["--report-out", &dir, "--report-runner", "micro.rambda"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("stage breakdown"), "{stdout}");
    let text = std::fs::read_to_string(format!("{dir}/micro.rambda.report.json")).expect("report json");
    assert!(!text.contains("\"event_core\""), "unprofiled report must omit the event-core section");
}

#[test]
fn stray_profile_without_report_out_fails_fast() {
    let dir = format!("{}/stray-profile", env!("CARGO_TARGET_TMPDIR"));
    let out = report(&["--scopes", "micro.rambda", "--scopes-out", &dir, "--profile"]);
    assert_eq!(out.status.code(), Some(2), "stray --profile must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--profile has no effect without --report-out"), "{err}");
    assert!(!Path::new(&dir).exists(), "fail-fast must not create the output dir");
}

#[test]
fn lossy_report_export_carries_the_fault_counters() {
    let dir = format!("{}/report-lossy", env!("CARGO_TARGET_TMPDIR"));
    let out = report(&["--report-out", &dir, "--report-runner", "kvs.rambda", "--loss", "1e-3"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(format!("{dir}/kvs.rambda.report.json")).expect("report json");

    // The written bytes are exactly a validating in-process run under the
    // CLI's seeded plan, and differ from the clean run.
    let run = |faults: FaultConfig| {
        let design = rambda_bench::quick_registry().design("kvs.rambda").expect("registered runner");
        SimBuilder::new(design).config(&Testbed::default()).faults(faults).run()
    };
    let lossy = run(FaultConfig::lossy(0xFA17, 1e-3));
    lossy.validate().expect("lossy report validates its fault/recovery identities");
    assert_eq!(text, lossy.to_json_string());
    let dropped: u64 = lossy
        .resources
        .counters()
        .filter(|(name, _)| name.ends_with(".faults.dropped"))
        .map(|(_, v)| v)
        .sum();
    assert!(dropped > 0, "lossy report carries no dropped frames");
    assert_ne!(text, run(FaultConfig::disabled()).to_json_string(), "lossy report equals the clean one");
}

#[test]
fn scopes_with_loss_fails_fast() {
    let dir = format!("{}/scopes-lossy", env!("CARGO_TARGET_TMPDIR"));
    let out = report(&["--scopes", "kvs.rambda", "--scopes-out", &dir, "--loss", "1e-3"]);
    assert_eq!(out.status.code(), Some(2), "--scopes with --loss must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--loss has no effect with --scopes"), "{err}");
    assert!(!Path::new(&dir).exists(), "fail-fast must not create the output dir");
}
