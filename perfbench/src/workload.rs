//! The three workloads, the designs each one runs, and the output check.
//!
//! Every design is built through its public `Design::*` constructor and
//! `*Params`, with the benchmark's seed written into `*Params.seed`, and run
//! by `SimBuilder` under the default serial execution.

use rambda::Design;
use rambda_accel::DataLocation;
use rambda_dlrm::{DlrmDesigns, DlrmParams};
use rambda_kvs::{KvsDesigns, KvsParams, KvsWorkload};
use rambda_metrics::RunReport;
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::{DlrmProfile, TxnSpec};

/// The seed whose simulated output is pinned by [`FINGERPRINTS`].
pub const DEFAULT_SEED: u64 = 42;

/// One design a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignKind {
    KvsCpu,
    KvsRambda,
    KvsSmartnic,
    DlrmCpu,
    DlrmRambda,
    TxnHyperloop,
    TxnRambdaTx,
}

/// How a design reaches the remote side: which RNIC verb carries its
/// requests and responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    OneSided,
    TwoSided,
    /// The Smart NIC serves from its own cores; no host RNIC verb.
    None,
}

impl DesignKind {
    pub fn name(self) -> &'static str {
        match self {
            DesignKind::KvsCpu => "kvs.cpu",
            DesignKind::KvsRambda => "kvs.rambda",
            DesignKind::KvsSmartnic => "kvs.smartnic",
            DesignKind::DlrmCpu => "dlrm.cpu",
            DesignKind::DlrmRambda => "dlrm.rambda",
            DesignKind::TxnHyperloop => "txn.hyperloop",
            DesignKind::TxnRambdaTx => "txn.rambda_tx",
        }
    }

    pub fn verb(self) -> Verb {
        match self {
            DesignKind::KvsCpu | DesignKind::DlrmCpu => Verb::TwoSided,
            DesignKind::KvsSmartnic => Verb::None,
            _ => Verb::OneSided,
        }
    }

    /// Whether the design runs an accelerator (cpoll discovery, APU memory
    /// traffic over the coherent link).
    pub fn has_accel(self) -> bool {
        matches!(self, DesignKind::KvsRambda | DesignKind::DlrmRambda | DesignKind::TxnRambdaTx)
    }

    /// Requests (queries, transactions) of one full run.
    pub fn requests(self) -> u64 {
        match self {
            DesignKind::KvsCpu | DesignKind::KvsRambda | DesignKind::KvsSmartnic => 30_000,
            DesignKind::DlrmCpu | DesignKind::DlrmRambda => 5_000,
            DesignKind::TxnHyperloop | DesignKind::TxnRambdaTx => 8_000,
        }
    }

    /// Requests of one driver window (clients × per-client window): the
    /// truncated run that times set-up, and the driver queue's depth in
    /// steady state.
    pub fn window_requests(self) -> u64 {
        match self {
            DesignKind::TxnHyperloop | DesignKind::TxnRambdaTx => 1,
            _ => 10 * 16,
        }
    }

    /// The driver's warm-up fraction for this design's app.
    fn warmup(self) -> f64 {
        match self {
            DesignKind::TxnHyperloop | DesignKind::TxnRambdaTx => 0.05,
            _ => 0.1,
        }
    }

    /// Post-warm-up requests a run of `requests` must report as completed,
    /// by the closed-loop driver's accounting.
    pub fn expected_completed(self, requests: u64) -> u64 {
        let warmup = ((requests as f64) * self.warmup()) as u64;
        requests - warmup.max(1)
    }

    /// Builds the design with `seed` in its params, sized to `requests`.
    pub fn design(self, seed: u64, requests: u64) -> Design {
        match self {
            DesignKind::KvsCpu => Design::kvs_cpu(kvs_params(seed, requests)),
            DesignKind::KvsRambda => Design::kvs_rambda(kvs_params(seed, requests), DataLocation::HostDram),
            DesignKind::KvsSmartnic => Design::kvs_smartnic(kvs_params(seed, requests)),
            DesignKind::DlrmCpu => Design::dlrm_cpu(dlrm_params(seed, requests), 8),
            DesignKind::DlrmRambda => {
                Design::dlrm_rambda(dlrm_params(seed, requests), DataLocation::HostDram)
            }
            DesignKind::TxnHyperloop => Design::txn_hyperloop(txn_params(seed, requests)),
            DesignKind::TxnRambdaTx => Design::txn_rambda_tx(txn_params(seed, requests)),
        }
    }
}

/// Fig. 8 read-intensive set-up: uniform keys, 100 % GET, 10 clients ×
/// window 16.
pub fn kvs_params(seed: u64, requests: u64) -> KvsParams {
    KvsParams {
        requests,
        window: 16,
        clients: 10,
        zipf: None,
        workload: KvsWorkload::ReadIntensive,
        seed,
        ..KvsParams::quick()
    }
}

/// The Books profile with MERCI memoization, 10 clients × window 16.
pub fn dlrm_params(seed: u64, queries: u64) -> DlrmParams {
    let books = DlrmProfile::by_name("Books").expect("Books is a built-in DLRM profile");
    DlrmParams { queries, clients: 10, merci: true, seed, ..DlrmParams::quick(books) }
}

/// Fig. 12 r4w2 transactions with 64 B values over 100 K preloaded keys.
pub fn txn_params(seed: u64, txns: u64) -> TxnParams {
    TxnParams { txns, keys: 100_000, seed, ..TxnParams::quick(TxnSpec::read_write(64)) }
}

/// A workload: a named set of designs run back to back in one process.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub designs: &'static [DesignKind],
    /// Typical request and response payloads on the wire, bytes.
    pub msg_bytes: [u64; 2],
    /// Memory the workload's data path touches.
    pub mem_kind: rambda_mem::MemKind,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "kvs_get",
        designs: &[DesignKind::KvsCpu, DesignKind::KvsRambda, DesignKind::KvsSmartnic],
        msg_bytes: [16, 72],
        mem_kind: rambda_mem::MemKind::Dram,
    },
    Workload {
        name: "dlrm_gather",
        designs: &[DesignKind::DlrmCpu, DesignKind::DlrmRambda],
        msg_bytes: [300, 16],
        mem_kind: rambda_mem::MemKind::Dram,
    },
    Workload {
        name: "txn_chain",
        designs: &[DesignKind::TxnHyperloop, DesignKind::TxnRambdaTx],
        msg_bytes: [150, 64],
        mem_kind: rambda_mem::MemKind::Nvm,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The headline numbers of one run: what the output check compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub completed: u64,
    pub elapsed_ps: u64,
    pub p50_ps: u64,
    pub p99_ps: u64,
    pub p999_ps: u64,
    pub throughput_ops: f64,
}

impl Fingerprint {
    pub fn of(report: &RunReport) -> Self {
        Fingerprint {
            completed: report.completed,
            elapsed_ps: report.elapsed_ps,
            p50_ps: report.latency.p50_ps,
            p99_ps: report.latency.p99_ps,
            p999_ps: report.latency.p999_ps,
            throughput_ops: report.throughput_ops,
        }
    }
}

/// Fingerprints of every design's full run at [`DEFAULT_SEED`], recorded
/// with the benchmark (`rambda-perfbench --fingerprints` prints this table).
pub const FINGERPRINTS: [(&str, Fingerprint); 7] = [
    (
        "kvs.cpu",
        Fingerprint {
            completed: 27000,
            elapsed_ps: 2769831782,
            p50_ps: 14680064,
            p99_ps: 15204352,
            p999_ps: 15204352,
            throughput_ops: 10850694.444444444,
        },
    ),
    (
        "kvs.rambda",
        Fingerprint {
            completed: 27000,
            elapsed_ps: 2615492745,
            p50_ps: 13926400,
            p99_ps: 13926400,
            p999_ps: 13926400,
            throughput_ops: 11488970.588235294,
        },
    ),
    (
        "kvs.smartnic",
        Fingerprint {
            completed: 27000,
            elapsed_ps: 14364445093,
            p50_ps: 75497472,
            p99_ps: 75497472,
            p999_ps: 79691776,
            throughput_ops: 2088748.6065314014,
        },
    ),
    (
        "dlrm.cpu",
        Fingerprint {
            completed: 4500,
            elapsed_ps: 1666903582,
            p50_ps: 52428800,
            p99_ps: 60817408,
            p999_ps: 65011712,
            throughput_ops: 3009077.9689675113,
        },
    ),
    (
        "dlrm.rambda",
        Fingerprint {
            completed: 4500,
            elapsed_ps: 44008847457,
            p50_ps: 1409286144,
            p99_ps: 1677721600,
            p999_ps: 1744830464,
            throughput_ops: 113323.17957644329,
        },
    ),
    (
        "txn.hyperloop",
        Fingerprint {
            completed: 7600,
            elapsed_ps: 383838936541,
            p50_ps: 47077018,
            p99_ps: 48234496,
            p999_ps: 50331648,
            throughput_ops: 20842.336903384512,
        },
    ),
    (
        "txn.rambda_tx",
        Fingerprint {
            completed: 7600,
            elapsed_ps: 144217078376,
            p50_ps: 17825792,
            p99_ps: 18874368,
            p999_ps: 18874368,
            throughput_ops: 55479.4076441787,
        },
    ),
];

/// Checks the report of a run of `requests`: it must validate, and its
/// fingerprint must equal the pinned one at the default seed, or carry the
/// expected post-warm-up count at any other seed.
pub fn check(
    kind: DesignKind,
    seed: u64,
    requests: u64,
    report: &RunReport,
    pinned: &[(&str, Fingerprint)],
) -> Result<(), String> {
    report.validate().map_err(|e| format!("{}: report does not validate: {e}", kind.name()))?;
    let got = Fingerprint::of(report);
    if seed == DEFAULT_SEED {
        let want = pinned
            .iter()
            .find(|(name, _)| *name == kind.name())
            .map(|(_, fp)| *fp)
            .ok_or_else(|| format!("{}: no recorded fingerprint", kind.name()))?;
        if got != want {
            return Err(format!("{}: fingerprint {got:?} differs from the recorded {want:?}", kind.name()));
        }
    } else {
        let want = kind.expected_completed(requests);
        if got.completed != want {
            return Err(format!("{}: completed {} requests, expected {want}", kind.name(), got.completed));
        }
    }
    Ok(())
}
