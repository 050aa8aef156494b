//! CLI contract of the `report` binary's scoped-metrics mode (DESIGN.md
//! §15): bad selections fail fast with the valid-runner listing before any
//! simulation runs or output directory is created, mirroring the existing
//! `--trace-runner`/`--profile-runner` validation.

use std::path::Path;
use std::process::{Command, Output};

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
    for other in ["--trace", "--profile", "--report-out"] {
        let out = report(&["--scopes", "kvs.rambda", other, &dir]);
        assert_eq!(out.status.code(), Some(2), "{other} + --scopes must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("mutually exclusive"), "{err}");
        assert!(!Path::new(&dir).exists(), "fail-fast must not create the {other} dir");
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
