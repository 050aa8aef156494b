//! DLRM inference on Rambda (Sec. IV-C / VI-D).
//!
//! * [`model`] — the functional model: an embedding table with gather-reduce
//!   (sum/max/min/mean), a small MLP, and end-to-end inference.
//! * [`merci`] — MERCI sub-query memoization: pair-clustered memo tables at
//!   0.25× the embedding size; reduction plans that replace co-occurring
//!   pairs with single memo reads, bit-for-bit equal to the naive reduction
//!   up to float associativity.
//! * [`serving`] — the Fig. 13 experiments: CPU (1–16 cores) vs Rambda /
//!   Rambda-LD / Rambda-LH, where the CPU preprocesses requests and the
//!   accelerator performs the bandwidth-bound embedding reduction — the
//!   CPU-accelerator *collaboration* pattern of Sec. III-C. Serving times
//!   each query from its reduction plan alone; the functional model is
//!   exercised by the tests and `examples/dlrm_inference.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod merci;
pub mod model;
pub mod serving;

pub use merci::{MemoTable, ReductionPlan};
pub use model::{DlrmModel, EmbeddingTable, Mlp, ReduceOp};
pub use serving::{DlrmCosts, DlrmDesigns, DlrmParams};
