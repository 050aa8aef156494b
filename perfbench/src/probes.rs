//! Layer probes: each layer's public hot entry point timed from outside,
//! with arguments shaped like the workload's own calls.
//!
//! A probe runs its call `iters` times per repetition and reports the
//! median host nanoseconds per call over [`REPS`] repetitions. Simulated
//! time advances between calls so no resource piles up an unbounded queue.

use std::hint::black_box;
use std::time::Instant;

use rambda::{Machine, Testbed};
use rambda_accel::{AccelEngine, DataLocation};
use rambda_coherence::CcInterconnect;
use rambda_des::{EventQueue, Histogram, SimRng, SimTime, Span};
use rambda_dlrm::{DlrmModel, MemoTable, ReductionPlan};
use rambda_fabric::{Network, NodeId};
use rambda_kvs::{KvConfig, KvStore};
use rambda_mem::{AccessKind, MemReq, MemorySystem};
use rambda_metrics::StageRecorder;
use rambda_rnic::{rdma_write, two_sided_send, MrInfo, PostFlags, PostPath, WriteOpts};
use rambda_trace::Tracer;
use rambda_txn::{Chain, TxnWrite};
use rambda_workloads::{KeyDist, KvMix, TxnSpec, Zipf};

use crate::spans::Spans;
use crate::workload::{dlrm_params, Workload};

const REPS: usize = 5;

/// Embedding rows a dlrm.rambda query gathers, on average (Books profile).
const GATHER_ROWS: usize = 46;
/// One embedding row: 64 f32 values.
const ROW_BYTES: u64 = 256;
/// Functional store and key space of the KVS and TXN workloads.
const KEYS: u64 = 100_000;
/// The leg names a request records; a probe uses the first `legs`.
const LEG_NAMES: [&str; 12] = [
    "fabric_request",
    "coherence",
    "dispatch",
    "ring_read",
    "apu_compute",
    "sq_wqe",
    "doorbell",
    "gather",
    "cpu_serve",
    "replicate",
    "persist",
    "fabric_response",
];

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Median ns per call of `f` over [`REPS`] repetitions of `iters` calls.
fn per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    let samples = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f(i);
                i += 1;
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(samples)
}

fn at_ns(i: u64, gap_ns: u64) -> SimTime {
    SimTime::from_ns(i * gap_ns)
}

/// Runs every probe for `w` and returns `(metric, value)` pairs. `legs` is
/// the workload's mean number of recorded legs per request.
pub fn run(w: &Workload, legs: usize, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let tb = Testbed::default();
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut probe = |name: &'static str, spans: &mut Spans, f: &mut dyn FnMut() -> f64| {
        let v = spans.span(format!("probe {name}"), |_| f());
        out.push((name, v));
    };

    probe("des.queue_ns_per_op", spans, &mut || {
        let mut q: EventQueue<(usize, SimTime)> = EventQueue::new();
        let mut rng = SimRng::seed(1);
        for c in 0..w.designs[0].window_requests() as usize {
            q.push(at_ns(c as u64, 1), (c, SimTime::ZERO));
        }
        per_call(200_000, |_| {
            let (t, ev) = q.pop().expect("queue holds its depth");
            q.push(t + Span::from_ns(1_000 + rng.gen_range(0..20_000)), black_box(ev));
        })
    });

    probe("fabric.transmit_ns", spans, &mut || {
        let mut net = Network::new(tb.net.clone());
        per_call(200_000, |i| {
            let (from, to) = if i % 2 == 0 { (NodeId(0), NodeId(1)) } else { (NodeId(1), NodeId(0)) };
            black_box(net.transmit(at_ns(i, 1_000), from, to, w.msg_bytes[(i % 2) as usize]));
        })
    });

    let opts = WriteOpts { post: PostPath::HostMmio, batch: 16, flags: PostFlags::NONE };
    probe("rnic.rdma_write_ns", spans, &mut || {
        let (mut client, mut server, mut net) = machines(&tb);
        let mr = server.rnic.register_region(MrInfo::adaptive(w.mem_kind));
        per_call(100_000, |i| {
            let out = rdma_write(
                at_ns(i, 2_000),
                &mut client.rnic,
                &mut server.rnic,
                &mut net,
                &mut server.mem,
                &mut client.mem,
                mr,
                w.msg_bytes[0],
                opts,
            );
            black_box(out.expect("fault-free fabric delivers"));
        })
    });

    probe("rnic.two_sided_send_ns", spans, &mut || {
        let (mut client, mut server, mut net) = machines(&tb);
        let mr = server.rnic.register_region(MrInfo::adaptive(w.mem_kind));
        per_call(100_000, |i| {
            let out = two_sided_send(
                at_ns(i, 2_000),
                &mut client.rnic,
                &mut server.rnic,
                &mut net,
                &mut server.mem,
                mr,
                w.msg_bytes[0],
                opts,
            );
            black_box(out.expect("fault-free fabric delivers"));
        })
    });

    probe("mem.access_ns", spans, &mut || {
        let mut mem = MemorySystem::new(tb.mem.clone(), false);
        let req = MemReq { kind: w.mem_kind, access: AccessKind::Read, bytes: 64 };
        per_call(200_000, |i| {
            black_box(mem.access(at_ns(i, 20), req));
        })
    });

    probe("accel.gather_ns_per_row", spans, &mut || {
        let mut mem = MemorySystem::new(tb.mem.clone(), false);
        let mut engine = AccelEngine::new(tb.accel_config(DataLocation::HostDram, true));
        per_call(4_000, |i| {
            black_box(engine.gather(at_ns(i, 20_000), GATHER_ROWS, ROW_BYTES, &mut mem));
        }) / GATHER_ROWS as f64
    });

    probe("accel.discover_ns", spans, &mut || {
        let mut engine = AccelEngine::new(tb.accel_config(DataLocation::HostDram, true));
        let mut rng = SimRng::seed(2);
        per_call(200_000, |i| {
            black_box(engine.discover(at_ns(i, 1_000), 10, &mut rng));
        })
    });

    probe("coherence.link_ns", spans, &mut || {
        let mut cc = CcInterconnect::new(tb.cc.clone());
        per_call(200_000, |i| {
            black_box(cc.accel_gather_line(at_ns(i, 100), 16));
        })
    });

    probe("kvs.store_get_ns", spans, &mut || {
        let mut store = KvStore::new(KvConfig::for_pairs(KEYS as usize, 64));
        let value = [7u8; 64];
        for key in 0..KEYS {
            store.put_slice(key, &value);
        }
        let mut rng = SimRng::seed(3);
        per_call(200_000, |_| {
            black_box(store.get(rng.gen_range(0..KEYS)));
        })
    });

    probe("workloads.next_op_ns", spans, &mut || {
        let mix = KvMix::new(KeyDist::uniform(KEYS), 1.0, 64);
        let mut rng = SimRng::seed(4);
        per_call(200_000, |_| {
            black_box(mix.next_op(&mut rng));
        })
    });

    probe("txn.preload_ms", spans, &mut || {
        let samples = (0..3)
            .map(|_| {
                let t = Instant::now();
                let mut chain = Chain::new(2);
                chain.preload((0..KEYS).map(|key| (key, vec![(key & 0xFF) as u8; 64])));
                black_box(&chain);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(samples)
    });

    probe("txn.execute_ns", spans, &mut || {
        let mut chain = Chain::new(2);
        chain.preload((0..KEYS).map(|key| (key, vec![(key & 0xFF) as u8; 64])));
        let spec = TxnSpec::read_write(64);
        let dist = KeyDist::uniform(KEYS);
        let mut rng = SimRng::seed(5);
        per_call(4_000, |_| {
            let keys = spec.sample_keys(&dist, &mut rng);
            let (reads, writes) = keys.split_at(spec.reads);
            let writes = writes.iter().map(|&key| TxnWrite { key, value: vec![0xCD; 64] }).collect();
            black_box(chain.execute(reads, writes));
        })
    });

    let params = dlrm_params(6, 1);
    let model = DlrmModel::synthetic(params.functional_rows as usize, params.dim);
    let memo = MemoTable::build(&model.embedding);
    let zipf = Zipf::new(params.functional_rows as u64 / 2, params.profile.zipf_theta);
    let mut rng = SimRng::seed(6);
    let queries: Vec<_> = (0..256)
        .map(|_| {
            rambda_dlrm::merci::sample_correlated_query(
                &params.profile,
                params.functional_rows,
                &zipf,
                &mut rng,
            )
        })
        .collect();
    probe("dlrm.plan_reduce_ns", spans, &mut || {
        per_call(4_000, |i| {
            let plan = ReductionPlan::build(&queries[(i % 256) as usize], &memo);
            black_box(plan.reduce(&model.embedding, &memo));
        })
    });
    let reduced = ReductionPlan::build(&queries[0], &memo).reduce(&model.embedding, &memo);
    probe("dlrm.mlp_forward_ns", spans, &mut || {
        per_call(20_000, |_| {
            black_box(model.mlp.forward(black_box(&reduced)));
        })
    });

    probe("metrics.hist_record_ns", spans, &mut || {
        let mut h = Histogram::new();
        per_call(500_000, |i| h.record(Span::from_ps(1_000_000 + (i * 7_919) % 10_000_000)))
    });

    // The always-on observation a plain run pays per request: a disabled
    // flight recorder over the active stage recorder, with the workload's
    // leg count.
    probe("trace.observe_ns", spans, &mut || {
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::disabled();
        let legs = legs.clamp(1, LEG_NAMES.len());
        per_call(100_000, |i| {
            let at = at_ns(i, 1_000);
            let mut tr = tracer.observe(&mut rec, at);
            for (l, name) in LEG_NAMES[..legs].iter().enumerate() {
                tr.leg(name, at + Span::from_ns(100 * (l as u64 + 1)));
            }
            tr.finish(at + Span::from_ns(100 * legs as u64));
        })
    });

    out
}

fn machines(tb: &Testbed) -> (Machine, Machine, Network) {
    (Machine::new(NodeId(0), tb, false), Machine::new(NodeId(1), tb, false), Network::new(tb.net.clone()))
}
