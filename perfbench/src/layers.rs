//! The metric catalogue: end-to-end and per-layer metric names with their
//! units, the layer map (which end-to-end metric each per-layer metric
//! should move, and where), and the host-share attribution.

use rambda_metrics::RunReport;

use crate::workload::{DesignKind, Verb};

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [(&str, &str); 4] =
    [("sim_req_per_s", "1/s"), ("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// One row of the layer map.
pub struct LayerRow {
    pub metric: &'static str,
    pub unit: &'static str,
    /// The workspace crate the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// The workload it should move it on.
    pub on: &'static str,
    /// The workload predicted to show no change, if any.
    pub no_change_on: &'static str,
}

const fn row(
    metric: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
    no_change_on: &'static str,
) -> LayerRow {
    LayerRow { metric, unit, layer, moves, on, no_change_on }
}

const SRPS: &str = "sim_req_per_s";

/// Every per-layer metric, in output order.
pub const LAYER_MAP: [LayerRow; 45] = [
    row("des.queue_ns_per_op", "ns", "des", SRPS, "kvs_get", "txn_chain"),
    row("fabric.transmit_ns", "ns", "fabric", SRPS, "kvs_get", "dlrm_gather"),
    row("fabric.msgs_per_req", "count", "fabric", SRPS, "kvs_get", "dlrm_gather"),
    row("rnic.rdma_write_ns", "ns", "rnic", SRPS, "kvs_get", "-"),
    row("rnic.two_sided_send_ns", "ns", "rnic", SRPS, "kvs_get", "-"),
    row("rnic.pcie_transfers_per_req", "count", "rnic", SRPS, "kvs_get", "-"),
    row("rnic.verbs_per_req", "count", "rnic", SRPS, "kvs_get", "-"),
    row("accel.gather_ns_per_row", "ns", "accel", SRPS, "dlrm_gather", "kvs_get"),
    row("accel.discover_ns", "ns", "accel", SRPS, "dlrm_gather", "kvs_get"),
    row("accel.mem_ops_per_req", "count", "accel", SRPS, "dlrm_gather", "kvs_get"),
    row("coherence.link_ns", "ns", "coherence", SRPS, "dlrm_gather", "kvs_get"),
    row("mem.access_ns", "ns", "mem", SRPS, "dlrm_gather", "kvs_get"),
    row("mem.transfers_per_req", "count", "mem", SRPS, "dlrm_gather", "kvs_get"),
    row("dlrm.plan_reduce_ns", "ns", "dlrm", SRPS, "dlrm_gather", "-"),
    row("dlrm.mlp_forward_ns", "ns", "dlrm", SRPS, "dlrm_gather", "-"),
    row("txn.preload_ms", "ms", "txn", "setup_s", "txn_chain", "-"),
    row("txn.execute_ns", "ns", "txn", SRPS, "txn_chain", "-"),
    row("kvs.store_get_ns", "ns", "kvs", SRPS, "kvs_get", "-"),
    row("workloads.next_op_ns", "ns", "workloads", SRPS, "kvs_get", "-"),
    row("trace.observe_ns", "ns", "trace", SRPS, "kvs_get", "dlrm_gather"),
    row("metrics.hist_record_ns", "ns", "metrics", SRPS, "kvs_get", "dlrm_gather"),
    row("metrics.validate_ms", "ms", "metrics", "run_s", "all", "-"),
    row("metrics.render_ms", "ms", "metrics", "run_s", "all", "-"),
    row("core.serve_ns_per_req", "ns", "core", SRPS, "all", "-"),
    row("core.setup_ms", "ms", "core", "setup_s", "all", "-"),
    row("fabric.queue_us_per_req", "us", "fabric", "none (simulated time)", "all", "all"),
    row("mem.queue_us_per_req", "us", "mem", "none (simulated time)", "all", "all"),
    row("accel.slot_wait_us_per_req", "us", "accel", "none (simulated time)", "all", "all"),
    row("des.host_share", "ratio", "des", SRPS, "kvs_get", "txn_chain"),
    row("fabric.host_share", "ratio", "fabric", SRPS, "kvs_get", "dlrm_gather"),
    row("rnic.host_share", "ratio", "rnic", SRPS, "kvs_get", "-"),
    row("mem.host_share", "ratio", "mem", SRPS, "dlrm_gather", "kvs_get"),
    row("coherence.host_share", "ratio", "coherence", SRPS, "dlrm_gather", "kvs_get"),
    row("accel.host_share", "ratio", "accel", SRPS, "dlrm_gather", "kvs_get"),
    row("kvs.host_share", "ratio", "kvs", SRPS, "kvs_get", "-"),
    row("txn.host_share", "ratio", "txn", SRPS, "txn_chain", "-"),
    row("dlrm.host_share", "ratio", "dlrm", SRPS, "dlrm_gather", "-"),
    row("workloads.host_share", "ratio", "workloads", SRPS, "kvs_get", "-"),
    row("trace.host_share", "ratio", "trace", SRPS, "kvs_get", "dlrm_gather"),
    row("metrics.host_share", "ratio", "metrics", SRPS, "kvs_get", "dlrm_gather"),
    row("core.unattributed_share", "ratio", "core", SRPS, "all", "-"),
    row("trace.overhead_ratio", "ratio", "trace", "none (traced run only)", "all", "-"),
    row("trace.profile_overhead_ratio", "ratio", "trace", "none (profiled run only)", "all", "-"),
    row("metrics.scopes_overhead_ratio", "ratio", "metrics", "none (scoped run only)", "all", "-"),
    row("trace.events_per_req", "count", "trace", "none (traced run only)", "all", "-"),
];

/// The unit of a per-layer metric.
#[cfg(test)]
pub fn layer_unit(metric: &str) -> Option<&'static str> {
    LAYER_MAP.iter().find(|r| r.metric == metric).map(|r| r.unit)
}

/// Per-request counts a profiled report carries, summed over the
/// machines' counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReqCounts {
    pub requests: f64,
    pub msgs: f64,
    pub pcie: f64,
    pub verbs: f64,
    pub mem_transfers: f64,
    pub accel_mem_ops: f64,
    pub fabric_queue_ps: f64,
    pub mem_queue_ps: f64,
    pub slot_wait_ps: f64,
}

impl ReqCounts {
    /// Totals (not yet per request) from one report's counters.
    pub fn of(report: &RunReport) -> Self {
        let mut c = ReqCounts { requests: report.total.count as f64, ..ReqCounts::default() };
        for (name, v) in report.resources.counters() {
            let v = v as f64;
            let is_mem = name.contains("mem.");
            if name == "net.messages" {
                c.msgs += v;
            } else if name.contains(".pcie.") && name.ends_with(".transfers") {
                c.pcie += v;
            } else if name.ends_with(".rnic.inbound_writes") || name.ends_with(".rnic.inbound_reads") {
                c.verbs += v;
            } else if is_mem && name.ends_with(".transfers") {
                c.mem_transfers += v;
            } else if name.starts_with("accel") && name.ends_with(".mem_ops") {
                c.accel_mem_ops += v;
            } else if name.starts_with("net.") && name.ends_with(".queue_ps") {
                c.fabric_queue_ps += v;
            } else if is_mem && name.ends_with(".queue_ps") {
                c.mem_queue_ps += v;
            } else if name.starts_with("accel") && name.ends_with(".slots.wait_ps") {
                c.slot_wait_ps += v;
            }
        }
        c
    }

    pub fn add(&mut self, o: &ReqCounts) {
        self.requests += o.requests;
        self.msgs += o.msgs;
        self.pcie += o.pcie;
        self.verbs += o.verbs;
        self.mem_transfers += o.mem_transfers;
        self.accel_mem_ops += o.accel_mem_ops;
        self.fabric_queue_ps += o.fabric_queue_ps;
        self.mem_queue_ps += o.mem_queue_ps;
        self.slot_wait_ps += o.slot_wait_ps;
    }

    fn per_req(&self, total: f64) -> f64 {
        if self.requests > 0.0 {
            total / self.requests
        } else {
            0.0
        }
    }
}

/// Per-request metrics derived from summed counts: `(metric, value)`.
pub fn per_request_metrics(c: &ReqCounts) -> Vec<(&'static str, f64)> {
    vec![
        ("fabric.msgs_per_req", c.per_req(c.msgs)),
        ("rnic.pcie_transfers_per_req", c.per_req(c.pcie)),
        ("rnic.verbs_per_req", c.per_req(c.verbs)),
        ("mem.transfers_per_req", c.per_req(c.mem_transfers)),
        ("accel.mem_ops_per_req", c.per_req(c.accel_mem_ops)),
        ("fabric.queue_us_per_req", c.per_req(c.fabric_queue_ps) / 1e6),
        ("mem.queue_us_per_req", c.per_req(c.mem_queue_ps) / 1e6),
        ("accel.slot_wait_us_per_req", c.per_req(c.slot_wait_ps) / 1e6),
    ]
}

/// Host nanoseconds one request of `kind` spends in each layer, estimated
/// as probe ns/op × ops per request. Layers are attributed by self cost so
/// no call is counted twice: an RNIC verb is charged without the fabric
/// transmit inside it, and an accelerator gather row without the memory
/// accesses and coherent-link crossings inside it.
pub fn layer_ns_per_req(
    kind: DesignKind,
    c: &ReqCounts,
    probe: &dyn Fn(&str) -> f64,
) -> Vec<(&'static str, f64)> {
    let per = |total: f64| c.per_req(total);
    let transmit = probe("fabric.transmit_ns");
    let verb_self = match kind.verb() {
        Verb::OneSided => (probe("rnic.rdma_write_ns") - transmit).max(0.0),
        Verb::TwoSided => (probe("rnic.two_sided_send_ns") - transmit).max(0.0),
        Verb::None => 0.0,
    };
    let access = probe("mem.access_ns");
    let link = probe("coherence.link_ns");
    let (coherence, accel) = if kind.has_accel() {
        // Each accelerator memory transfer crosses the coherent link twice
        // (request out, data back); a 256 B row is four such lines.
        let row_self = (probe("accel.gather_ns_per_row") - 4.0 * (access + 2.0 * link)).max(0.0);
        (2.0 * per(c.mem_transfers) * link, probe("accel.discover_ns") + per(c.accel_mem_ops) * row_self)
    } else {
        (0.0, 0.0)
    };
    let app = |k: &[DesignKind], v: f64| if k.contains(&kind) { v } else { 0.0 };
    use DesignKind::*;
    vec![
        ("des.host_share", probe("des.queue_ns_per_op")),
        ("fabric.host_share", per(c.msgs) * transmit),
        ("rnic.host_share", per(c.verbs) * verb_self),
        ("mem.host_share", per(c.mem_transfers) * access),
        ("coherence.host_share", coherence),
        ("accel.host_share", accel),
        ("kvs.host_share", app(&[KvsCpu, KvsRambda, KvsSmartnic], probe("kvs.store_get_ns"))),
        ("txn.host_share", app(&[TxnHyperloop, TxnRambdaTx], probe("txn.execute_ns"))),
        (
            "dlrm.host_share",
            app(&[DlrmCpu, DlrmRambda], probe("dlrm.plan_reduce_ns") + probe("dlrm.mlp_forward_ns")),
        ),
        ("workloads.host_share", app(&[KvsCpu, KvsRambda, KvsSmartnic], probe("workloads.next_op_ns"))),
        ("trace.host_share", probe("trace.observe_ns")),
        ("metrics.host_share", probe("metrics.hist_record_ns")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let names: Vec<(&str, &str)> =
            END_TO_END.iter().copied().chain(LAYER_MAP.iter().map(|r| (r.metric, r.unit))).collect();
        for (name, unit) in &names {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
        }
        for (i, (a, _)) in names.iter().enumerate() {
            assert!(names[i + 1..].iter().all(|(b, _)| a != b), "{a} listed twice");
        }
    }

    #[test]
    fn every_host_share_has_a_layer_map_row() {
        let zero = |_: &str| 0.0;
        for kind in [DesignKind::KvsRambda, DesignKind::DlrmCpu, DesignKind::TxnHyperloop] {
            for (name, _) in layer_ns_per_req(kind, &ReqCounts::default(), &zero) {
                assert!(layer_unit(name).is_some(), "{name} has no layer-map row");
            }
        }
        for (name, _) in per_request_metrics(&ReqCounts::default()) {
            assert!(layer_unit(name).is_some(), "{name} has no layer-map row");
        }
    }

    /// The benchmark definition at the repository root names exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_definition_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for r in &LAYER_MAP {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", r.metric, r.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"name\": ").count();
        let workloads = crate::workload::WORKLOADS.len();
        assert_eq!(
            listed,
            END_TO_END.len() + LAYER_MAP.len() + workloads,
            "BENCHMARK.json lists extra names"
        );
    }
}
