//! Integration tests for `cargo xtask analyze`: the negative fixtures under
//! `tests/fixtures/` must trip every rule (through the library *and* through
//! the binary's exit code), and the real workspace must analyze clean.

use std::path::PathBuf;
use std::process::Command;

use xtask::rules::{analyze, Config};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().expect("xtask has a parent").to_path_buf()
}

#[test]
fn bad_fixture_trips_every_rule() {
    let analysis = analyze(&Config::rambda(fixture_root("bad"))).expect("fixture scans");
    let hits: Vec<(&str, &str, &str)> =
        analysis.violations.iter().map(|v| (v.rule, v.path.as_str(), v.token.as_str())).collect();

    let kvs = "crates/kvs/src/lib.rs";
    let ring = "crates/ring/src/lib.rs";
    let des = "crates/des/src/lib.rs";
    let fabric = "crates/fabric/src/lib.rs";
    let txn = "crates/txn/src/lib.rs";
    for expected in [
        ("R1", kvs, "HashMap"),
        ("R1", kvs, "HashSet"),
        ("R2", kvs, "Instant"),
        ("R2", kvs, "thread::spawn"),
        ("R2", kvs, "std::env"),
        ("R3", kvs, "forbid(unsafe_code)"),
        ("R3", ring, "deny(unsafe_op_in_unsafe_fn)"),
        ("R3", ring, "unsafe"),
        ("R4", des, "pub fn frobnicate"),
        ("R5", fabric, "println!"),
        ("R5", fabric, "eprintln!"),
        ("R6", txn, "run_txn_report"),
        ("R6", txn, "run_txn_report_traced"),
        ("R6", "crates/txn/src/caller.rs", "run_txn_report_traced"),
        ("R6", txn, "run_hyperloop"),
    ] {
        assert!(hits.contains(&expected), "missing expected violation {expected:?} in {hits:#?}");
    }

    // The driver binary under src/bin/ reads std::env and prints, yet must
    // trip nothing: R1/R2/R5 exempt bin targets.
    assert!(
        hits.iter().all(|(_, p, _)| !p.contains("/src/bin/")),
        "driver binaries are exempt from R1/R2/R5: {hits:#?}"
    );
    // The println! inside the fabric fixture's #[cfg(test)] module is
    // masked: exactly the two library-code prints fire.
    let r5_fabric = hits.iter().filter(|(r, p, _)| *r == "R5" && *p == fabric).count();
    assert_eq!(r5_fabric, 2, "test-module prints must be masked: {hits:#?}");

    // The documented `unsafe` in the ring fixture and the HashMap inside the
    // kvs fixture's #[cfg(test)] module must NOT be flagged: exactly one R3
    // unsafe-token violation, and every R1 hit sits outside the test module.
    let undocumented: Vec<_> =
        hits.iter().filter(|(r, p, t)| *r == "R3" && *p == ring && *t == "unsafe").collect();
    assert_eq!(undocumented.len(), 1, "only the uncommented unsafe should fire: {hits:#?}");
    let r1_lines: Vec<u32> =
        analysis.violations.iter().filter(|v| v.rule == "R1" && v.path == kvs).map(|v| v.line).collect();
    assert!(
        r1_lines.iter().all(|&l| l < 21),
        "R1 must skip the #[cfg(test)] module (lines >= 21): {r1_lines:?}"
    );
}

#[test]
fn bad_fixture_fails_through_the_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root"])
        .arg(fixture_root("bad"))
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[R1] HashMap"), "diagnostic names the token:\n{stdout}");
    assert!(stdout.contains("crates/kvs/src/lib.rs:"), "diagnostic is file:line:\n{stdout}");
}

#[test]
fn r7_fixture_trips_partition_hazards_and_clean_twin_passes() {
    let analysis = analyze(&Config::rambda(fixture_root("r7/bad"))).expect("fixture scans");
    let hits: Vec<(&str, &str)> = analysis.violations.iter().map(|v| (v.rule, v.token.as_str())).collect();
    for expected in [("R7", "static mut EPOCH"), ("R7", "thread_local!"), ("R7", "SharedState.cache: Rc")] {
        assert!(hits.contains(&expected), "missing expected violation {expected:?} in {hits:#?}");
    }
    assert_eq!(hits.len(), 3, "exactly the three hazards fire: {hits:#?}");
    // The shared-cell diagnostic carries the reachability path that makes
    // the sharing concrete.
    let cell = analysis.violations.iter().find(|v| v.token.contains("SharedState")).unwrap();
    assert!(
        cell.hint.contains("Machine .state -> SharedState"),
        "hint must show the reachability path: {}",
        cell.hint
    );

    let clean = analyze(&Config::rambda(fixture_root("r7/clean"))).expect("fixture scans");
    assert!(clean.is_clean(), "a Cell unreachable from Machine must not fire: {:#?}", clean.violations);
}

#[test]
fn r8_fixture_trips_rng_provenance_and_clean_twin_passes() {
    let analysis = analyze(&Config::rambda(fixture_root("r8/bad"))).expect("fixture scans");
    let hits: Vec<(&str, &str)> = analysis.violations.iter().map(|v| (v.rule, v.token.as_str())).collect();
    for expected in [("R8", "thread_rng"), ("R8", "rng.clone()"), ("R8", "World.rng: SimRng")] {
        assert!(hits.contains(&expected), "missing expected violation {expected:?} in {hits:#?}");
    }
    // The literal seed and the unsalted seed each fire once; the
    // `SimRng::seed(params.seed)` call must not.
    let seeds = hits.iter().filter(|(r, t)| *r == "R8" && *t == "SimRng::seed").count();
    assert_eq!(seeds, 2, "literal + unsalted seed, nothing else: {hits:#?}");
    assert_eq!(hits.len(), 5, "exactly the five provenance breaks fire: {hits:#?}");

    // The clean twin exercises the exemptions: a bare-literal seed() inside
    // `impl SimRng`, a literal seed under #[cfg(test)], and one RNG beside
    // a single machine.
    let clean = analyze(&Config::rambda(fixture_root("r8/clean"))).expect("fixture scans");
    assert!(clean.is_clean(), "R8 exemptions must hold: {:#?}", clean.violations);
}

#[test]
fn r9_fixture_trips_unguarded_counters_and_clean_twin_passes() {
    let analysis = analyze(&Config::rambda(fixture_root("r9/bad"))).expect("fixture scans");
    let hits: Vec<(&str, &str, &str)> =
        analysis.violations.iter().map(|v| (v.rule, v.path.as_str(), v.token.as_str())).collect();
    let rnic = "crates/rnic/src/lib.rs";
    assert!(hits.contains(&("R9", rnic, "doorbells")), "unguarded counter fires: {hits:#?}");
    assert!(hits.contains(&("R9", rnic, "cqes")), "unguarded counter fires: {hits:#?}");
    // `.wqes` is mentioned by the identity; the error prose naming
    // "doorbells" contains whitespace and must not count as coverage.
    assert!(!hits.contains(&("R9", rnic, "wqes")), "guarded counter must not fire: {hits:#?}");
    assert_eq!(hits.len(), 2, "exactly the two unguarded counters fire: {hits:#?}");

    let clean = analyze(&Config::rambda(fixture_root("r9/clean"))).expect("fixture scans");
    assert!(clean.is_clean(), "fully guarded counters must pass: {:#?}", clean.violations);
}

#[test]
fn r10_fixture_trips_unguarded_scope_mirrors_and_clean_twin_passes() {
    // The bad twin satisfies R9 (a generic `validate_totals` names every
    // mirror) but leaves two of the three `scope.`/`hot.` mirrors out of
    // the dedicated `validate_scopes` identity — exactly those fire, and
    // only under R10.
    let analysis = analyze(&Config::rambda(fixture_root("r10/bad"))).expect("fixture scans");
    let hits: Vec<(&str, &str, &str)> =
        analysis.violations.iter().map(|v| (v.rule, v.path.as_str(), v.token.as_str())).collect();
    let metrics = "crates/metrics/src/lib.rs";
    assert!(hits.contains(&("R10", metrics, "scope.latency_ps")), "unguarded mirror fires: {hits:#?}");
    assert!(hits.contains(&("R10", metrics, "hot.top_hits")), "unguarded mirror fires: {hits:#?}");
    assert!(!hits.contains(&("R10", metrics, "scope.count")), "guarded mirror must not fire: {hits:#?}");
    assert!(hits.iter().all(|(r, _, _)| *r == "R10"), "generic coverage keeps R9 quiet: {hits:#?}");
    assert_eq!(hits.len(), 2, "exactly the two unguarded mirrors fire: {hits:#?}");

    let clean = analyze(&Config::rambda(fixture_root("r10/clean"))).expect("fixture scans");
    assert!(clean.is_clean(), "validate_scopes coverage must pass: {:#?}", clean.violations);
}

#[test]
fn r9_covers_the_metrics_crate_event_core_publisher() {
    // The metrics crate is itself a stats crate now: the event-core
    // summary's `publish_metrics` (an impl method, not a free fn) must be
    // scanned, and an identity that skips one of its suffixes must fire.
    let analysis = analyze(&Config::rambda(fixture_root("r9ec/bad"))).expect("fixture scans");
    let hits: Vec<(&str, &str, &str)> =
        analysis.violations.iter().map(|v| (v.rule, v.path.as_str(), v.token.as_str())).collect();
    let metrics = "crates/metrics/src/lib.rs";
    assert!(hits.contains(&("R9", metrics, "dwell_ps")), "unguarded scheduler counter fires: {hits:#?}");
    assert!(!hits.contains(&("R9", metrics, "enqueued")), "guarded counter must not fire: {hits:#?}");
    assert!(!hits.contains(&("R9", metrics, "dispatched")), "guarded counter must not fire: {hits:#?}");
    assert_eq!(hits.len(), 1, "exactly the unguarded counter fires: {hits:#?}");

    let clean = analyze(&Config::rambda(fixture_root("r9ec/clean"))).expect("fixture scans");
    assert!(clean.is_clean(), "fully guarded event-core publisher passes: {:#?}", clean.violations);
}

#[test]
fn json_output_through_the_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--json", "--root"])
        .arg(fixture_root("r9/bad"))
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "violations still exit 1 under --json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"files_scanned\":"), "JSON object on stdout:\n{stdout}");
    assert!(stdout.contains("\"rule\":\"R9\""), "violations are serialized:\n{stdout}");
    assert!(stdout.contains("\"token\":\"doorbells\""), "tokens are serialized:\n{stdout}");
    assert!(stdout.contains("\"clean\":false"), "verdict is serialized:\n{stdout}");
}

#[test]
fn github_annotations_through_the_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--github", "--root"])
        .arg(fixture_root("r7/bad"))
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "violations still exit 1 under --github");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("::error file=crates/fabric/src/lib.rs,line="),
        "workflow annotations name file and line:\n{stdout}"
    );
    assert!(stdout.contains("title=analyze R7::"), "annotations carry the rule:\n{stdout}");
}

#[test]
fn allowlist_entry_without_reason_refuses_to_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root"])
        .arg(fixture_root("noreason"))
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(2), "an unjustified allowlist entry is an I/O-class error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no `# reason`"), "error names the missing reason:\n{stderr}");
}

#[test]
fn stale_allowlist_entry_is_an_error() {
    let analysis = analyze(&Config::rambda(fixture_root("stale"))).expect("fixture scans");
    assert!(analysis.violations.is_empty(), "fixture itself is clean: {:#?}", analysis.violations);
    assert_eq!(analysis.stale_allows.len(), 1, "the unused entry must be reported");
    assert!(!analysis.is_clean(), "stale entries alone must fail the run");

    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root"])
        .arg(fixture_root("stale"))
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "stale allowlist entries must exit 1");
}

#[test]
fn real_workspace_is_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root"])
        .arg(workspace_root())
        .output()
        .expect("xtask binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "workspace must analyze clean:\n{stdout}\n{stderr}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--frobnicate"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}
