//! Negative fixture for `cargo xtask analyze`: a crate breaking R6 —
//! deprecated runner shims and a stats-only entry point that must not
//! exist at all now that `SimBuilder` is the sole run entry point. Never
//! compiled — scanned by xtask/tests.

#![forbid(unsafe_code)]

/// A legacy entry point with an unhelpful deprecation note: trips R6.
#[deprecated(note = "old entry point")]
pub fn run_txn_report() -> u64 {
    0
}

/// Even a properly routed note no longer saves a shim: the definition
/// itself trips R6, and the live call site over in `caller.rs` trips the
/// second half of the rule.
#[deprecated(note = "use SimBuilder with Design::txn_rambda_tx")]
pub fn run_txn_report_traced() -> u64 {
    1
}

/// A stats-only entry point beside `SimBuilder`: returning the closed
/// loop's `RunStats` from a `pub fn` trips R6.
pub fn run_hyperloop(testbed: &Testbed, params: &TxnParams) -> RunStats {
    unimplemented!()
}
