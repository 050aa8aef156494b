//! Workspace automation tasks (`cargo xtask ...`).
//!
//! The library holds `analyze`, a dependency-free static analyzer that
//! enforces the workspace's determinism and unsafety invariants (DESIGN.md
//! §8), so the negative-fixture tests under `xtask/tests/` can drive it
//! directly. `bench` only forwards to the `rambda-bench` harness binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod parse;
pub mod rules;

pub use rules::{analyze, Analysis, Config, Violation};
