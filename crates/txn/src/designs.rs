//! The Fig. 11 two-replica emulation and the Fig. 12 latency experiments.
//!
//! One physical server exposes two 25 GbE ports, each backed by a replica
//! instance; the client's Smart-NIC ARM cores route chain traffic between
//! the ports, adding the 2–3 µs that stands in for a datacenter network hop.
//! Transactions are issued serially by the client (window 1), as in the
//! paper, so the latency reduction also reflects throughput.

use rambda::{run_closed_loop, Design, DriverConfig, RunStats, SimCtx, Testbed};
use rambda_accel::{AccelEngine, DataLocation};
use rambda_des::{SimRng, SimTime, Span};
use rambda_fabric::{Network, NodeId};
use rambda_mem::MemKind;
use rambda_rnic::{MrInfo, PostFlags, PostPath, RdmaError, WriteOpts};
use rambda_trace::{ReqObs, Tracer};
use rambda_workloads::{KeyDist, TxnSpec};

use crate::chain::{Chain, TxnWrite};

const CLIENT: NodeId = NodeId(0);
const PORT0: NodeId = NodeId(1);
const PORT1: NodeId = NodeId(2);

/// Per-machine RNG stream salts. Each simulated machine draws from its own
/// deterministically salted `SimRng` stream (`SimRng::stream(seed, salt)`),
/// so one machine's draws never depend on how many values another machine
/// consumed.
const CLIENT_WORKLOAD_SALT: u64 = 0xC0;
const CLIENT_ROUTE_SALT: u64 = 0xC1;
const PORT0_ACCEL_SALT: u64 = 0xA0;
const PORT1_ACCEL_SALT: u64 = 0xA1;

/// Transaction experiment parameters.
#[derive(Debug, Clone)]
pub struct TxnParams {
    /// Key-value pair size (64 B or 1024 B in Fig. 12).
    pub value_bytes: u32,
    /// Transaction shape ((0,1) or (4,2) in Fig. 12).
    pub spec: TxnSpec,
    /// Transactions to execute (100 K in the paper).
    pub txns: u64,
    /// Key space (100 K pairs pre-loaded).
    pub keys: u64,
    /// RNG seed.
    pub seed: u64,
}

impl TxnParams {
    /// A fast configuration for tests.
    pub fn quick(spec: TxnSpec) -> Self {
        TxnParams { value_bytes: spec.value_bytes, spec, txns: 4_000, keys: 100_000, seed: 7 }
    }

    /// Paper-scale: 100 K transactions.
    pub fn paper(spec: TxnSpec) -> Self {
        TxnParams { txns: 100_000, ..TxnParams::quick(spec) }
    }

    fn driver(&self) -> DriverConfig {
        // Serial issue: one client, window 1.
        DriverConfig { clients: 1, window: 1, requests: self.txns, warmup: 0.05 }
    }

    /// Scoped runs attribute each transaction to its first key's home
    /// replica (`replica/{key % 2}`) — the coordinator that would own the
    /// key in a sharded two-replica deployment.
    fn scope_names(&self) -> Vec<String> {
        (0..2u64).map(|r| format!("replica/{r}")).collect()
    }
}

/// The home replica a scoped run attributes a transaction to: its first
/// sampled key, modulo the two Fig. 11 replicas.
fn scope_of(reads: &[u64], writes: &[TxnWrite]) -> usize {
    let key = reads.first().copied().unwrap_or_else(|| writes.first().map_or(0, |w| w.key));
    (key % 2) as usize
}

/// The shared Fig. 11 world: network, two replica machines (ports), the
/// client, and the functional chain.
struct TxnWorld {
    net: Network,
    client: rambda::Machine,
    port0: rambda::Machine,
    port1: rambda::Machine,
    chain: Chain,
    dist: KeyDist,
    /// Mean ARM routing delay between the ports (2-3 µs in Sec. VI-C).
    route_mean: Span,
}

impl TxnWorld {
    fn new(testbed: &Testbed, params: &TxnParams) -> Self {
        // DDIO disabled on the server, as both systems do in Sec. VI-C.
        let mut world = TxnWorld {
            net: Network::new(testbed.net.clone()),
            client: rambda::Machine::new(CLIENT, testbed, false),
            port0: rambda::Machine::new(PORT0, testbed, false),
            port1: rambda::Machine::new(PORT1, testbed, false),
            chain: Chain::new(2),
            dist: KeyDist::uniform(params.keys),
            route_mean: Span::from_ns(3_000),
        };
        // Pre-load 100K pairs (bulk path; state matches per-txn execution).
        // Key `k` holds `value_bytes` copies of its low byte.
        let values: Vec<Vec<u8>> = (0..=u8::MAX).map(|b| vec![b; params.value_bytes as usize]).collect();
        world.chain.preload((0..params.keys).map(|key| (key, &values[(key & 0xFF) as usize])));
        world
    }

    /// Routes a message from one server port to the other through the
    /// client's Smart-NIC ARM cores (Fig. 11): wire + ARM forward + wire.
    /// `rng` is the client machine's routing-jitter stream.
    fn route(&mut self, at: SimTime, from: NodeId, to: NodeId, bytes: u64, rng: &mut SimRng) -> SimTime {
        let at_arm = self.net.send(at, from, CLIENT, bytes);
        let forwarded =
            at_arm + self.route_mean + Span::from_ns_f64(self.route_mean.as_ns_f64() * rng.exp(0.08));
        self.net.send(forwarded, CLIENT, to, bytes)
    }

    /// Samples one transaction's key set from the client's workload stream.
    fn sample_txn(
        &mut self,
        spec: &TxnSpec,
        value_bytes: u32,
        rng: &mut SimRng,
    ) -> (Vec<u64>, Vec<TxnWrite>) {
        let keys = spec.sample_keys(&self.dist, rng);
        let (read_keys, write_keys) = keys.split_at(spec.reads);
        let writes =
            write_keys.iter().map(|&key| TxnWrite { key, value: vec![0xCD; value_bytes as usize] }).collect();
        (read_keys.to_vec(), writes)
    }
}

/// Degraded-mode completion: the RDMA layer exhausted its retransmission
/// budget, so the design sheds the transaction — the client observes a
/// timeout at the error-completion time — instead of asserting.
fn shed(mut tr: ReqObs<'_>, err: &RdmaError) -> SimTime {
    let at = err.at();
    tr.leg("shed", at);
    tr.finish(at);
    at
}

/// Forwards the run's injected-fault log from the network to the flight
/// recorder as instants on the fabric track.
fn drain_faults(net: &mut Network, tracer: &mut Tracer) {
    for ev in net.drain_fault_events() {
        tracer.fault(ev.kind.name(), ev.at, ev.from.0, ev.to.0);
    }
}

/// [`Design`] constructors for the transaction experiments, so
/// [`rambda::SimBuilder`] can run them.
pub trait TxnDesigns {
    /// The HyperLoop baseline (`txn.hyperloop`).
    fn txn_hyperloop(params: TxnParams) -> Design;
    /// Rambda-Tx (`txn.rambda_tx`).
    fn txn_rambda_tx(params: TxnParams) -> Design;
}

impl TxnDesigns for Design {
    fn txn_hyperloop(params: TxnParams) -> Design {
        Design::from_runner("txn.hyperloop", params.seed, move |tb, ctx| {
            run_hyperloop_inner(tb, &params, ctx)
        })
    }

    fn txn_rambda_tx(params: TxnParams) -> Design {
        Design::from_runner("txn.rambda_tx", params.seed, move |tb, ctx| {
            run_rambda_tx_inner(tb, &params, ctx)
        })
    }
}

/// HyperLoop: group-based RDMA primitives triggered by the RNIC. Reads are
/// one-sided reads to the head; each *write* is one group-RDMA operation
/// that traverses the whole chain — and multi-write transactions must issue
/// them sequentially (the Sec. IV-B limitation Rambda removes).
pub fn run_hyperloop(testbed: &Testbed, params: &TxnParams) -> RunStats {
    rambda::rambda_stats_only_ctx!(ctx);
    run_hyperloop_inner(testbed, params, ctx)
}

fn run_hyperloop_inner(testbed: &Testbed, params: &TxnParams, ctx: SimCtx<'_>) -> RunStats {
    let SimCtx { rec, resources, tracer, faults, scopes } = ctx;
    let mut w = TxnWorld::new(testbed, params);
    let mut workload_rng = SimRng::stream(params.seed, CLIENT_WORKLOAD_SALT);
    let mut route_rng = SimRng::stream(params.seed, CLIENT_ROUTE_SALT);
    w.net.install_faults(faults);
    let nvm0 = w.port0.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
    let nvm1 = w.port1.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
    let spec = params.spec;
    let value = params.value_bytes as u64;
    let opts = WriteOpts { post: PostPath::HostMmio, batch: 1, flags: PostFlags::SIGNALED };
    let scope_names = params.scope_names();

    let stats = run_closed_loop(&params.driver(), |_c, at| {
        let mut trace = tracer.observe(rec, at);
        let (reads, writes) = w.sample_txn(&spec, params.value_bytes, &mut workload_rng);
        let home = scope_of(&reads, &writes);
        for &key in &reads {
            scopes.observe_key(key);
        }
        for wr in &writes {
            scopes.observe_key(wr.key);
        }
        let fin = 'txn: {
            let mut t = at;

            // Sequential one-sided reads from the head replica's NVM.
            for _ in 0..reads.len() {
                let out = match rambda_rnic::rdma_read(
                    t,
                    &mut w.client.rnic,
                    &mut w.port0.rnic,
                    &mut w.net,
                    &mut w.port0.mem,
                    nvm0,
                    value,
                    WriteOpts { flags: PostFlags::NONE, ..opts },
                ) {
                    Ok(out) => out,
                    Err(e) => break 'txn shed(trace, &e),
                };
                t = out.data_at;
            }
            trace.leg("read_rtts", t);

            // Sequential group-RDMA writes, one chain round per KV pair.
            let n_writes = writes.len();
            for _ in 0..n_writes {
                // Client -> port0: log-entry write into NVM (single tuple).
                let entry = 1 + value + 12;
                let d0 = match rambda_rnic::rdma_write(
                    t,
                    &mut w.client.rnic,
                    &mut w.port0.rnic,
                    &mut w.net,
                    &mut w.port0.mem,
                    &mut w.client.mem,
                    nvm0,
                    entry,
                    WriteOpts { flags: PostFlags::NONE, ..opts },
                ) {
                    Ok(out) => out,
                    Err(e) => break 'txn shed(trace, &e),
                };
                // RNIC-triggered forward to the next replica through the ARM.
                let fwd = w.port0.rnic.rx_process(d0.delivered_at);
                let at_p1 = w.route(fwd, PORT0, PORT1, entry, &mut route_rng);
                let (d1, _) = w.port1.rnic.deliver_write(at_p1, nvm1, entry, &mut w.port1.mem);
                // Tail ACK back-propagates: port1 -> port0 -> client.
                let ack_at_p0 = w.route(d1, PORT1, PORT0, 0, &mut route_rng);
                let acked = w.net.send(ack_at_p0, PORT0, CLIENT, 0);
                t = w.client.rnic.complete(acked, &mut w.client.mem);
            }
            trace.leg("chain_writes", t);

            // Functional effect.
            let _ = w.chain.execute(&reads, writes);
            // CQE polled on a client core (cheap).
            let fin = t + Span::from_ns(100);
            trace.leg("cqe_poll", fin);
            trace.finish(fin);
            tracer.sample_with(rec, at, |s| {
                w.client.publish_metrics(s, "client");
                w.port0.publish_metrics(s, "port0");
                w.port1.publish_metrics(s, "port1");
                w.net.publish_metrics(s, "net");
            });
            fin
        };
        // Scope attribution covers shed transactions too: every traced
        // transaction lands on exactly one home replica.
        scopes.record(&scope_names[home], at, fin);
        fin
    });
    drain_faults(&mut w.net, tracer);
    if rec.is_active() {
        w.client.publish_metrics(resources, "client");
        w.port0.publish_metrics(resources, "port0");
        w.port1.publish_metrics(resources, "port1");
        w.net.publish_metrics(resources, "net");
        w.net.publish_scoped(scopes, "net");
        tracer.final_sample(SimTime::ZERO + stats.makespan, resources);
    }
    stats
}

/// Rambda-Tx: the client issues one combined multi-tuple request; the
/// accelerator at each replica parses the log entry near-data, enforces
/// concurrency control, and forwards along the chain — one chain round per
/// *transaction*.
pub fn run_rambda_tx(testbed: &Testbed, params: &TxnParams) -> RunStats {
    rambda::rambda_stats_only_ctx!(ctx);
    run_rambda_tx_inner(testbed, params, ctx)
}

fn run_rambda_tx_inner(testbed: &Testbed, params: &TxnParams, ctx: SimCtx<'_>) -> RunStats {
    let SimCtx { rec, resources, tracer, faults, scopes } = ctx;
    let mut w = TxnWorld::new(testbed, params);
    let mut workload_rng = SimRng::stream(params.seed, CLIENT_WORKLOAD_SALT);
    let mut route_rng = SimRng::stream(params.seed, CLIENT_ROUTE_SALT);
    let mut accel0_rng = SimRng::stream(params.seed, PORT0_ACCEL_SALT);
    let mut accel1_rng = SimRng::stream(params.seed, PORT1_ACCEL_SALT);
    w.net.install_faults(faults);
    // Request rings live in NVM and double as the redo log (Sec. IV-B).
    let ring0 = w.port0.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
    let ring1 = w.port1.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
    let client_mr = w.client.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
    let mut accel0 = AccelEngine::new(testbed.accel_config(DataLocation::HostNvm, true));
    let mut accel1 = AccelEngine::new(testbed.accel_config(DataLocation::HostNvm, true));
    let spec = params.spec;
    let opts = WriteOpts { post: PostPath::HostMmio, batch: 1, flags: PostFlags::NONE };
    let accel_opts = WriteOpts { post: PostPath::AccelMmio, batch: 1, flags: PostFlags::NONE };
    let scope_names = params.scope_names();

    let stats = run_closed_loop(&params.driver(), |_c, at| {
        let mut trace = tracer.observe(rec, at);
        let (reads, writes) = w.sample_txn(&spec, params.value_bytes, &mut workload_rng);
        let home = scope_of(&reads, &writes);
        for &key in &reads {
            scopes.observe_key(key);
        }
        for wr in &writes {
            scopes.observe_key(wr.key);
        }
        let entry = spec.log_entry_bytes();

        let fin = 'txn: {
            // One combined request into the head's NVM ring (= redo log write).
            let d0 = match rambda_rnic::rdma_write(
                at,
                &mut w.client.rnic,
                &mut w.port0.rnic,
                &mut w.net,
                &mut w.port0.mem,
                &mut w.client.mem,
                ring0,
                entry,
                opts,
            ) {
                Ok(out) => out,
                Err(e) => break 'txn shed(trace, &e),
            };
            trace.leg("fabric_request", d0.delivered_at);

            // Head accelerator: on the cpoll signal it forwards the (already
            // durable) entry down the chain immediately; parsing, concurrency
            // control and the read set overlap with the chain round trip.
            let t = accel0.discover(d0.delivered_at, 1, &mut accel0_rng);
            trace.leg("coherence", t);
            let start = accel0.claim_slot(t);
            trace.leg("dispatch", start);
            let wqe = accel0.sq_write_wqe(start);
            let fwd_posted = w.port0.rnic.post(wqe, PostPath::AccelMmio, 1);
            let at_p1 = w.route(fwd_posted, PORT0, PORT1, entry, &mut route_rng);

            let mut local = accel0.ring_read(start, entry.min(256), &mut w.port0.mem);
            local = accel0.compute(local, 2 + spec.ops() as u64); // CC + parse
            for _ in 0..reads.len() {
                local = accel0.mem_access(local, params.value_bytes as u64, false, &mut w.port0.mem);
            }
            accel0.release_slot(d0.delivered_at, local);

            // Tail accelerator: the entry is durable once delivered into the
            // NVM ring, so the ACK goes out on discovery; the local apply
            // happens off the critical path.
            let (d1, _) = w.port1.rnic.deliver_write(at_p1, ring1, entry, &mut w.port1.mem);
            let t1 = accel1.discover(d1, 1, &mut accel1_rng);
            let start1 = accel1.claim_slot(t1);
            let wqe1 = accel1.sq_write_wqe(start1);
            let ack_posted = w.port1.rnic.post(wqe1, PostPath::AccelMmio, 1);
            let mut tail_local = accel1.ring_read(start1, entry.min(256), &mut w.port1.mem);
            tail_local = accel1.compute(tail_local, 1 + spec.ops() as u64);
            accel1.release_slot(d1, tail_local);

            // Tail ACK back through the chain; the head commits once both the
            // ACK and its own processing are done, then responds to the client.
            let ack_at_p0 = w.route(ack_posted, PORT1, PORT0, 0, &mut route_rng);
            // The chain round trip and the head's local work run in parallel;
            // the critical path resumes at their join point.
            trace.leg("chain_round", ack_at_p0.max(local));
            let commit = accel0.compute(ack_at_p0.max(local), 1);
            trace.leg("commit", commit);
            let resp = match rambda_rnic::rdma_write(
                commit,
                &mut w.port0.rnic,
                &mut w.client.rnic,
                &mut w.net,
                &mut w.client.mem,
                &mut w.port0.mem,
                client_mr,
                8 + reads.len() as u64 * params.value_bytes as u64,
                accel_opts,
            ) {
                Ok(out) => out,
                Err(e) => break 'txn shed(trace, &e),
            };
            trace.leg("fabric_response", resp.delivered_at);

            // Functional effect.
            let _ = w.chain.execute(&reads, writes);
            trace.finish(resp.delivered_at);
            tracer.sample_with(rec, at, |s| {
                w.client.publish_metrics(s, "client");
                w.port0.publish_metrics(s, "port0");
                w.port1.publish_metrics(s, "port1");
                accel0.publish_metrics(s, "accel0");
                accel1.publish_metrics(s, "accel1");
                w.net.publish_metrics(s, "net");
            });
            resp.delivered_at
        };
        // Scope attribution covers shed transactions too: every traced
        // transaction lands on exactly one home replica.
        scopes.record(&scope_names[home], at, fin);
        fin
    });
    drain_faults(&mut w.net, tracer);
    if rec.is_active() {
        w.client.publish_metrics(resources, "client");
        w.port0.publish_metrics(resources, "port0");
        w.port1.publish_metrics(resources, "port1");
        accel0.publish_metrics(resources, "accel0");
        accel1.publish_metrics(resources, "accel1");
        w.net.publish_metrics(resources, "net");
        w.net.publish_scoped(scopes, "net");
        tracer.final_sample(SimTime::ZERO + stats.makespan, resources);
    }
    stats
}

/// The pure-read fast path (Sec. IV-B): chain replication already provides
/// consistency, so a client reads directly from the head's NVM with a
/// one-sided RDMA read — identical in both designs, which is why Fig. 12
/// excludes pure reads.
pub fn run_pure_reads(testbed: &Testbed, params: &TxnParams) -> RunStats {
    let mut w = TxnWorld::new(testbed, params);
    let mut workload_rng = SimRng::stream(params.seed, CLIENT_WORKLOAD_SALT);
    let nvm0 = w.port0.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
    let value = params.value_bytes as u64;
    let opts = WriteOpts::host_unsignaled();

    run_closed_loop(&params.driver(), |_c, at| {
        let key = w.dist.sample(&mut workload_rng);
        let data_at = rambda_rnic::rdma_read(
            at,
            &mut w.client.rnic,
            &mut w.port0.rnic,
            &mut w.net,
            &mut w.port0.mem,
            nvm0,
            value,
            opts,
        )
        .map(|out| out.data_at)
        .unwrap_or_else(|e| e.at());
        // Functional effect: a read-only transaction at the head.
        let res = w.chain.execute(&[key], Vec::new());
        debug_assert!(res.reads[0].is_some(), "pre-loaded key must exist");
        data_at
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb() -> Testbed {
        Testbed::default()
    }

    #[test]
    fn pure_reads_skip_the_chain() {
        // One network round trip + NVM read: far below even the (0,1)
        // write transaction, and identical across designs by construction.
        let p = TxnParams { txns: 2_000, ..TxnParams::quick(TxnSpec::single_write(64)) };
        let reads = run_pure_reads(&tb(), &p);
        let writes = run_rambda_tx(&tb(), &p);
        assert!(
            reads.mean_us() < 0.5 * writes.mean_us(),
            "pure read {} vs write txn {}",
            reads.mean_us(),
            writes.mean_us()
        );
    }

    #[test]
    fn fig12_single_write_is_a_wash() {
        // (0,1): both designs pay one chain round; Rambda may be up to a few
        // percent slower (UPI on the path).
        let p = TxnParams::quick(TxnSpec::single_write(64));
        let hl = run_hyperloop(&tb(), &p).mean_us();
        let rt = run_rambda_tx(&tb(), &p).mean_us();
        // Paper: "may even be a bit (less than 3%) slower"; our accelerator
        // model charges slightly more per-hop work (doorbells are explicit
        // rather than RNIC-firmware-triggered), so allow up to ~15%.
        let diff = (rt - hl) / hl;
        assert!((-0.05..0.15).contains(&diff), "hyperloop={hl} rambda={rt} diff={diff}");
    }

    #[test]
    fn fig12_multi_op_txn_favors_rambda() {
        // (4,2): HyperLoop pays 4 read RTTs + 2 chain rounds; Rambda pays
        // one chain round. Paper: 63.2%-66.8% lower average latency.
        let p = TxnParams::quick(TxnSpec::read_write(64));
        let hl = run_hyperloop(&tb(), &p);
        let rt = run_rambda_tx(&tb(), &p);
        let saving = 1.0 - rt.mean_us() / hl.mean_us();
        assert!((0.5..0.8).contains(&saving), "saving={saving} hl={} rt={}", hl.mean_us(), rt.mean_us());
        // Tail saving in the same band (64.5%-69.1% in the paper).
        let tail_saving = 1.0 - rt.p99_us() / hl.p99_us();
        assert!((0.45..0.85).contains(&tail_saving), "tail saving={tail_saving}");
    }

    #[test]
    fn fig12_larger_values_cost_more() {
        let small = TxnParams::quick(TxnSpec::read_write(64));
        let large = TxnParams::quick(TxnSpec::read_write(1024));
        let s = run_rambda_tx(&tb(), &small).mean_us();
        let l = run_rambda_tx(&tb(), &large).mean_us();
        assert!(l > s, "1024B ({l}) should cost more than 64B ({s})");
        let hs = run_hyperloop(&tb(), &small).mean_us();
        let hlat = run_hyperloop(&tb(), &large).mean_us();
        assert!(hlat > hs);
    }

    #[test]
    fn chains_stay_consistent_under_both_designs() {
        // The functional chain inside each run must not diverge; re-run a
        // small workload and check.
        let p = TxnParams { txns: 500, ..TxnParams::quick(TxnSpec::read_write(64)) };
        let _ = run_hyperloop(&tb(), &p);
        let _ = run_rambda_tx(&tb(), &p);
        // Direct functional check.
        let mut world = TxnWorld::new(&tb(), &p);
        let mut workload_rng = SimRng::stream(p.seed, CLIENT_WORKLOAD_SALT);
        let spec = p.spec;
        for _ in 0..200 {
            let (r, w2) = world.sample_txn(&spec, p.value_bytes, &mut workload_rng);
            world.chain.execute(&r, w2);
        }
        world.chain.check_consistency().unwrap();
    }
}
