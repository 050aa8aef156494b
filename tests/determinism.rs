//! Reproducibility: every experiment is a deterministic function of its
//! seed — identical runs, bit-for-bit identical statistics.

use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_trace::Tracer;
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::TxnSpec;

/// Runs `design` on the default testbed and renders its report.
fn json(design: Design) -> String {
    SimBuilder::new(design).config(&Testbed::default()).run().to_json_string()
}

#[test]
fn micro_runs_are_reproducible() {
    let p = MicroParams::quick();
    let dram_cpoll = || Design::micro_rambda(p, DataLocation::HostDram, true, 7);
    assert_eq!(json(dram_cpoll()), json(dram_cpoll()));
    let nvm_spin_poll = || Design::micro_rambda(p.with_nvm(), DataLocation::HostDram, false, 7);
    assert_eq!(json(nvm_spin_poll()), json(nvm_spin_poll()));
    // The CPU run takes no seed: fully deterministic.
    assert_eq!(json(Design::micro_cpu(p, 4, 16)), json(Design::micro_cpu(p, 4, 16)));
}

#[test]
fn kvs_runs_are_reproducible_and_seed_sensitive() {
    let p = KvsParams { requests: 10_000, ..KvsParams::quick() }.with_zipf(0.9);
    let rambda = || Design::kvs_rambda(p.clone(), DataLocation::HostDram);
    assert_eq!(json(rambda()), json(rambda()));

    let mut p2 = p.clone();
    p2.seed = p.seed + 1;
    let c = SimBuilder::new(Design::kvs_cpu(p)).run();
    let d = SimBuilder::new(Design::kvs_cpu(p2)).run();
    // A different seed produces a (slightly) different run.
    assert!(c.latency.mean_ps != d.latency.mean_ps || c.throughput_ops != d.throughput_ops);
}

#[test]
fn every_runner_report_is_byte_identical_across_runs() {
    // Each runner is executed twice in fresh worlds and must render
    // byte-identical RunReport JSON — the exact property the
    // golden snapshots and CI gate rely on (DESIGN.md §8). This covers every
    // design, including the runners the golden files do not snapshot, so a
    // nondeterministic container sneaking into any simulator state (the
    // analyzer's rule R1 territory) fails here at runtime too.
    // The canonical quick-mode registry covers every named runner, so this
    // loop automatically picks up new designs as they are installed.
    let reg = rambda_bench::quick_registry();
    assert!(reg.is_complete(), "quick registry must cover every runner");
    for name in reg.names() {
        let first = json(reg.design(name).unwrap());
        let second = json(reg.design(name).unwrap());
        assert_eq!(first, second, "{name}: report JSON differs between identical runs");
    }
}

#[test]
fn txn_runs_are_reproducible() {
    let p = TxnParams { txns: 2_000, ..TxnParams::quick(TxnSpec::read_write(64)) };
    assert_eq!(json(Design::txn_rambda_tx(p.clone())), json(Design::txn_rambda_tx(p)));
}

#[test]
fn traced_runs_export_byte_identical_artifacts() {
    // The flight recorder must not weaken the reproducibility guarantee:
    // with tracing enabled, two runs of the same seed render byte-identical
    // compact binaries and byte-identical Chrome JSON — the property the
    // `.trace.bin` format exists to make checkable.
    let tb = Testbed::default();

    let micro_run = || {
        let mut t = Tracer::flight_recorder();
        let r = SimBuilder::new(Design::micro_rambda(MicroParams::quick(), DataLocation::HostDram, true, 7))
            .config(&tb)
            .tracer(&mut t)
            .run();
        (r, t)
    };
    let (ra, ta) = micro_run();
    let (rb, tb_) = micro_run();
    assert_eq!(ra.to_json_string(), rb.to_json_string());
    assert_eq!(ta.export_binary(), tb_.export_binary(), "micro.rambda binary traces differ");
    assert_eq!(ta.export_chrome_json(), tb_.export_chrome_json(), "micro.rambda chrome traces differ");

    let p = KvsParams::quick();
    let kvs_run = || {
        let mut t = Tracer::flight_recorder();
        let r = SimBuilder::new(Design::kvs_rambda(p.clone(), DataLocation::HostDram))
            .config(&tb)
            .tracer(&mut t)
            .run();
        (r, t)
    };
    let (ra, ta) = kvs_run();
    let (rb, tb_) = kvs_run();
    assert_eq!(ra.to_json_string(), rb.to_json_string());
    assert_eq!(ta.export_binary(), tb_.export_binary(), "kvs.rambda binary traces differ");
    assert_eq!(ta.export_chrome_json(), tb_.export_chrome_json(), "kvs.rambda chrome traces differ");
}
