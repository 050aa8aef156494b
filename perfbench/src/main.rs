//! Host-cost benchmark of the Rambda simulator.
//!
//! ```text
//! rambda-perfbench --workload <kvs_get|dlrm_gather|txn_chain> --seed <n> --seconds <s> --trace <0|1>
//! rambda-perfbench --fingerprints
//! ```
//!
//! With `--trace 0` it runs the workload's designs back to back, batch
//! after batch, for `--seconds`, and prints the end-to-end metrics, with
//! every time scaled to a reference host speed (see `hostspeed.rs`). With
//! `--trace 1` it runs the traced mode instead: plain, traced, profiled and
//! scoped runs of every design plus the layer probes, and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `NOTES.md` for what each metric means and why each workload exists.

mod hostspeed;
mod layers;
mod probes;
mod spans;
mod workload;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rambda::SimBuilder;
use rambda_des::Span;
use rambda_metrics::{RunReport, ScopeConfig};
use rambda_trace::Tracer;

use crate::hostspeed::HostSpeed;
use crate::layers::{layer_ns_per_req, per_request_metrics, ReqCounts, END_TO_END, LAYER_MAP};
use crate::spans::Spans;
use crate::workload::{check, workload, DesignKind, Fingerprint, Workload, DEFAULT_SEED, FINGERPRINTS};

const USAGE: &str =
    "usage: rambda-perfbench --workload <kvs_get|dlrm_gather|txn_chain> --seed <n> --seconds <s> \
                     --trace <0|1>\n       rambda-perfbench --fingerprints";

/// Batches (end-to-end) and repetitions (traced) run at least this often,
/// however short `--seconds` is, so every reported value is a median.
const MIN_BATCHES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--fingerprints" {
            return Ok(None);
        }
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("expected 0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => unreachable!("flags are checked above"),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

/// Design runs attempted and failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one design run, counting a panic or an `Err` as a failure.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(result) => result,
            Err(panic) => Err(panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .map_or_else(|| format!("{what}: panicked"), |msg| format!("{what}: panicked: {msg}"))),
        };
        outcome
            .map_err(|e| {
                eprintln!("perfbench: FAILED {e}");
                self.failed += 1;
            })
            .ok()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The `q` quantile of `v`, interpolating linearly between order
/// statistics; 0 for an empty sample.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// Host times of one design: set-up (the run truncated to one driver
/// window), the full run, and the report's validate and render.
#[derive(Debug, Clone, Copy, Default)]
struct DesignTimes {
    setup_s: f64,
    full_s: f64,
    validate_s: f64,
    render_s: f64,
    requests: u64,
}

impl DesignTimes {
    fn serve_s(&self) -> f64 {
        (self.full_s - self.setup_s).max(1e-9)
    }
}

/// One plain run of `kind`: truncated run, full run, output check, render.
/// The times are measured even when the output check fails; the check's
/// verdict comes back beside them.
fn plain_run(kind: DesignKind, seed: u64, spans: &mut Spans) -> (DesignTimes, RunReport, Result<(), String>) {
    let name = kind.name();
    let requests = kind.requests();
    let t = Instant::now();
    let truncated = spans.span(format!("truncated run {name}"), |s| {
        let design = s.span(format!("build {name}"), |_| kind.design(seed, kind.window_requests()));
        SimBuilder::new(design).run()
    });
    let setup_s = secs(t.elapsed());
    black_box(truncated.completed);
    let t = Instant::now();
    let report = spans.span(format!("full run {name}"), |s| {
        let design = s.span(format!("build {name}"), |_| kind.design(seed, requests));
        SimBuilder::new(design).run()
    });
    let full_s = secs(t.elapsed());
    let t = Instant::now();
    let verdict =
        spans.span(format!("validate {name}"), |_| check(kind, seed, requests, &report, &FINGERPRINTS));
    let validate_s = secs(t.elapsed());
    let t = Instant::now();
    let json = spans.span(format!("to_json_string {name}"), |_| report.to_json_string());
    let render_s = secs(t.elapsed());
    black_box(json.len());
    (DesignTimes { setup_s, full_s, validate_s, render_s, requests }, report, verdict)
}

/// Resident-set high-water mark of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("reading VmHWM: {e}"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM line in process status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line `{line}`"))?;
    Ok(kb / 1024.0)
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end mode: batches of every design until `seconds` elapse.
/// Every design run's times are scaled to the reference host speed by the
/// host-speed kernel timed before and after it (see `hostspeed.rs`).
fn end_to_end(w: &Workload, args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let mut spans = Spans::new(false);
    let (mut serve, mut run, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_serve, mut speed) = (Vec::new(), Vec::new());
    let mut requests = 0;
    let start = Instant::now();
    let mut batches = 0;
    let mut host = HostSpeed::new();
    let mut kernel_s = host.time();
    while batches < MIN_BATCHES || secs(start.elapsed()) < args.seconds {
        batches += 1;
        let mut batch = Vec::new();
        for &kind in w.designs {
            let mut measured = None;
            tally.attempt(kind.name(), || {
                let (times, _, verdict) = plain_run(kind, args.seed, &mut spans);
                measured = Some(times);
                verdict
            });
            let after = host.time();
            let scale = hostspeed::REFERENCE_S / ((kernel_s + after) / 2.0);
            kernel_s = after;
            batch.extend(measured.map(|t| (t, scale)));
        }
        // A batch that lost a design to a panic is not comparable with the
        // others.
        if batch.len() < w.designs.len() {
            continue;
        }
        requests = batch.iter().map(|(t, _)| t.requests).sum::<u64>();
        let sum = |f: &dyn Fn(&DesignTimes) -> f64| batch.iter().map(|(t, k)| f(t) * k).sum::<f64>();
        serve.push(sum(&DesignTimes::serve_s));
        run.push(sum(&|t| t.full_s + t.validate_s + t.render_s));
        setup.push(sum(&|t| t.setup_s));
        wall_serve.push(batch.iter().map(|(t, _)| t.serve_s()).sum::<f64>());
        speed.push(batch.iter().map(|(_, k)| k).sum::<f64>() / batch.len() as f64);
    }
    if serve.is_empty() {
        return Err("no batch ran every design to completion".into());
    }
    // Printed beside the metrics, not part of the result: the unscaled
    // rate, and this host's speed relative to the reference host.
    println!("wall.sim_req_per_s = {:.6} 1/s", requests as f64 / median(wall_serve));
    println!("host.speed = {:.6} ratio", median(speed));
    let values = [requests as f64 / median(serve), median(run), median(setup), peak_rss_mb()?];
    Ok(END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name.to_string(), v, unit)).collect())
}

/// Wall seconds of the plain, traced (+profiled), profiled-only and
/// scoped-only runs of one design.
#[derive(Debug, Clone, Copy, Default)]
struct ObserverTimes {
    plain_s: f64,
    traced_s: f64,
    profiled_s: f64,
    scoped_s: f64,
}

/// The flight recorder's sampling grid (its default).
const SAMPLE_INTERVAL: Span = Span::from_us(50);

/// A ring capacity that holds a whole traced run of the design whose plain
/// run produced `plain`: each request's span and legs, plus one sample event
/// per counter at every grid tick and at the end, with 25 % headroom.
fn ring_capacity(plain: &RunReport) -> usize {
    let legs = plain.stages.len() as u64 + 1;
    let counters = plain.resources.counters().count() as u64 + 1;
    let ticks = plain.elapsed_ps / SAMPLE_INTERVAL.as_ps() + 2;
    let events = plain.total.count * legs + (ticks + 1) * counters;
    (events + events / 4 + 4096) as usize
}

/// A traced and profiled run of `kind`, with the flight recorder sized to
/// hold the whole run so `cross_validate` sees every event. Its fingerprint
/// must equal the plain run's. Returns the report (with its layer counters
/// and event-core section), its wall seconds and the events the ring held.
fn traced_run(
    kind: DesignKind,
    seed: u64,
    plain: &RunReport,
    spans: &mut Spans,
) -> Result<(RunReport, f64, usize), String> {
    let name = kind.name();
    let mut tracer = Tracer::bounded(ring_capacity(plain), SAMPLE_INTERVAL);
    let t = Instant::now();
    let report = spans.span(format!("traced run {name}"), |s| {
        let design = s.span(format!("build {name}"), |_| kind.design(seed, kind.requests()));
        SimBuilder::new(design).tracer(&mut tracer).profile().run()
    });
    let traced_s = secs(t.elapsed());
    spans.span(format!("validate {name} traced"), |_| report.validate())?;
    spans
        .span(format!("cross_validate {name}"), |_| tracer.cross_validate(&report))
        .map_err(|e| format!("{name}: cross_validate: {e}"))?;
    if Fingerprint::of(&report) != Fingerprint::of(plain) {
        return Err(format!("{name}: the traced run's fingerprint differs from the plain run's"));
    }
    Ok((report, traced_s, tracer.len()))
}

/// A run with one observer switched on (profiling or scopes), checked by
/// `validate`; returns its wall seconds.
fn observed_run(kind: DesignKind, seed: u64, scoped: bool, spans: &mut Spans) -> Result<f64, String> {
    let name = kind.name();
    let label = if scoped { "scoped" } else { "profiled" };
    let t = Instant::now();
    let report = spans.span(format!("{label} run {name}"), |s| {
        let design = s.span(format!("build {name}"), |_| kind.design(seed, kind.requests()));
        let builder = SimBuilder::new(design);
        // Scopes run without the tracer: cross_validate rejects a
        // tracer+scopes report (see NOTES.md).
        if scoped { builder.scopes(ScopeConfig::default()) } else { builder.profile() }.run()
    });
    let wall = secs(t.elapsed());
    spans.span(format!("validate {name} {label}"), |_| report.validate())?;
    Ok(wall)
}

/// The traced mode: per-layer metrics from observed runs and layer probes.
fn traced(w: &Workload, args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let mut spans = Spans::new(true);
    let n = w.designs.len();
    let mut plain: Vec<Vec<DesignTimes>> = vec![Vec::new(); n];
    let mut observed: Vec<Vec<ObserverTimes>> = vec![Vec::new(); n];
    let mut counts: Vec<Option<ReqCounts>> = vec![None; n];
    let mut legs = vec![0usize; n];
    let mut events = vec![0f64; n];
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_BATCHES || secs(start.elapsed()) < args.seconds {
        reps += 1;
        for (i, &kind) in w.designs.iter().enumerate() {
            let plain_result = tally.attempt(kind.name(), || {
                let (times, report, verdict) = plain_run(kind, args.seed, &mut spans);
                verdict.map(|()| (times, report))
            });
            let Some((times, report)) = plain_result else {
                continue;
            };
            let traced = tally.attempt(kind.name(), || traced_run(kind, args.seed, &report, &mut spans));
            drop(report);
            let profiled = tally.attempt(kind.name(), || observed_run(kind, args.seed, false, &mut spans));
            let scoped = tally.attempt(kind.name(), || observed_run(kind, args.seed, true, &mut spans));
            plain[i].push(times);
            if let (Some((report, traced_s, held)), Some(profiled_s), Some(scoped_s)) =
                (traced, profiled, scoped)
            {
                counts[i] = Some(ReqCounts::of(&report));
                legs[i] = report.stages.len();
                events[i] = held as f64 / report.total.count.max(1) as f64;
                observed[i].push(ObserverTimes { plain_s: times.full_s, traced_s, profiled_s, scoped_s });
            }
        }
    }
    if plain.iter().any(Vec::is_empty) || counts.iter().any(Option::is_none) {
        return Err("a design never completed a plain and a traced run".into());
    }

    let mean_legs = legs.iter().sum::<usize>().div_ceil(n);
    let probed = probes::run(w, mean_legs, &mut spans);
    let probe = |name: &str| probed.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);

    // Per-design medians, then workload sums.
    let med = |i: usize, f: &dyn Fn(&DesignTimes) -> f64| median(plain[i].iter().map(f).collect());
    let ratio = |f: &dyn Fn(&ObserverTimes) -> f64, base: &dyn Fn(&ObserverTimes) -> f64| {
        let rep = observed.iter().map(Vec::len).min().unwrap_or(0);
        median(
            (0..rep)
                .map(|r| {
                    observed.iter().map(|o| f(&o[r])).sum::<f64>()
                        / observed.iter().map(|o| base(&o[r])).sum::<f64>()
                })
                .collect(),
        )
    };
    let mut design_rows: Metrics = Vec::new();
    let mut serve_ns = 0.0;
    let mut requests = 0.0;
    let mut attributed: Vec<(&'static str, f64)> = Vec::new();
    let mut total_counts = ReqCounts::default();
    for (i, &kind) in w.designs.iter().enumerate() {
        let serve = med(i, &|t| t.serve_s()) * 1e9;
        let reqs = kind.requests() as f64;
        design_rows.push((format!("core.serve_ns_per_req.{}", kind.name()), serve / reqs, "ns"));
        design_rows.push((format!("core.setup_ms.{}", kind.name()), med(i, &|t| t.setup_s) * 1e3, "ms"));
        serve_ns += serve;
        requests += reqs;
        let c = counts[i].expect("checked above");
        total_counts.add(&c);
        for (name, ns) in layer_ns_per_req(kind, &c, &probe) {
            match attributed.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += ns * reqs,
                None => attributed.push((name, ns * reqs)),
            }
        }
    }

    let mut values: Vec<(&'static str, f64)> = probed;
    values.extend(per_request_metrics(&total_counts));
    let shares: Vec<(&'static str, f64)> =
        attributed.iter().map(|&(name, ns)| (name, ns / serve_ns)).collect();
    let unattributed = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
    values.extend(shares);
    values.push(("core.unattributed_share", unattributed));
    values.push(("core.serve_ns_per_req", serve_ns / requests));
    let sum_med = |f: &dyn Fn(&DesignTimes) -> f64| (0..n).map(|i| med(i, f)).sum::<f64>() * 1e3;
    values.push(("core.setup_ms", sum_med(&|t| t.setup_s)));
    values.push(("metrics.validate_ms", sum_med(&|t| t.validate_s)));
    values.push(("metrics.render_ms", sum_med(&|t| t.render_s)));
    values.push(("trace.overhead_ratio", ratio(&|o| o.traced_s, &|o| o.profiled_s)));
    values.push(("trace.profile_overhead_ratio", ratio(&|o| o.profiled_s, &|o| o.plain_s)));
    values.push(("metrics.scopes_overhead_ratio", ratio(&|o| o.scoped_s, &|o| o.plain_s)));
    values.push(("trace.events_per_req", events.iter().sum::<f64>() / n as f64));

    let mut metrics: Metrics = Vec::new();
    for row in &LAYER_MAP {
        let v = values.iter().find(|(n, _)| *n == row.metric).map(|(_, v)| *v);
        let v = v.ok_or_else(|| format!("per-layer metric {} was not measured", row.metric))?;
        metrics.push((row.metric.to_string(), v, row.unit));
    }
    write_traced_outputs(w, args.seed, &spans, &metrics, &design_rows)?;
    Ok(metrics)
}

/// Writes the span log and the per-layer table next to the benchmark.
fn write_traced_outputs(
    w: &Workload,
    seed: u64,
    spans: &Spans,
    metrics: &Metrics,
    design_rows: &Metrics,
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let spans_path = dir.join(format!("{}.seed{seed}.spans.json", w.name));
    std::fs::write(&spans_path, spans.to_json())
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    let mut table = format!("per-layer table: workload {} seed {seed}\n", w.name);
    table.push_str(&format!(
        "{:<34} {:>14} {:<6} {:<10} {:<24} {:<12} {}\n",
        "metric", "value", "unit", "layer", "should move", "on", "no change on"
    ));
    for (name, v, unit) in metrics {
        let row = LAYER_MAP.iter().find(|r| r.metric == name).expect("metrics come from the layer map");
        table.push_str(&format!(
            "{name:<34} {v:>14.4} {unit:<6} {:<10} {:<24} {:<12} {}\n",
            row.layer, row.moves, row.on, row.no_change_on
        ));
    }
    for (name, v, unit) in design_rows {
        table.push_str(&format!("{name:<34} {v:>14.4} {unit:<6}\n"));
    }
    table.push_str("\nspan self time, ms\n");
    for (name, ns) in spans.self_times() {
        table.push_str(&format!("  {name:<48} {:>10.3}\n", ns as f64 / 1e6));
    }
    let table_path = dir.join(format!("{}.seed{seed}.layers.txt", w.name));
    std::fs::write(&table_path, &table).map_err(|e| format!("writing {}: {e}", table_path.display()))?;
    eprint!("{table}");
    eprintln!("perfbench: wrote {} and {}", spans_path.display(), table_path.display());
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
        })
        .collect();
    let correct = tally.failed == 0 && tally.attempted > 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Prints the [`FINGERPRINTS`] table for the current code, for re-recording
/// after a change that deliberately alters simulated output.
fn print_fingerprints() {
    for w in workload::WORKLOADS {
        for &kind in w.designs {
            let report = SimBuilder::new(kind.design(DEFAULT_SEED, kind.requests())).run();
            let f = Fingerprint::of(&report);
            println!(
                "    (\"{}\", Fingerprint {{ completed: {}, elapsed_ps: {}, p50_ps: {}, p99_ps: {}, p999_ps: {}, throughput_ops: {:?} }}),",
                kind.name(), f.completed, f.elapsed_ps, f.p50_ps, f.p99_ps, f.p999_ps, f.throughput_ops
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print_fingerprints();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload `{}` (known: {})", args.workload, names.join(", "));
        return ExitCode::from(2);
    };
    let mut tally = Tally::default();
    let started = Instant::now();
    let result = if args.trace { traced(&w, &args, &mut tally) } else { end_to_end(&w, &args, &mut tally) };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, v, unit) in &metrics {
        println!("{name} = {v:.6} {unit}");
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} ratio ({} of {} design runs failed; workload {}, seed {}, {:.1} s)",
        tally.failed,
        tally.attempted,
        w.name,
        args.seed,
        secs(started.elapsed())
    );
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn args(list: &[&str]) -> Result<Option<Args>, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&["--workload", "kvs_get", "--seed", "7", "--seconds", "12", "--trace", "1"])
            .unwrap()
            .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("kvs_get", 7, 12.0, true));
        assert!(args(&["--fingerprints"]).unwrap().is_none());
        assert!(args(&["--workload", "kvs_get", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "kvs_get", "--seconds", "0"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "the workload is required");
        assert!(args(&["--workload"]).is_err());
        assert_eq!(args(&["--bogus", "1"]).err().as_deref(), Some("unknown flag --bogus"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally { attempted: 3, failed: 1 };
        let metrics: Metrics = vec![("run_s".into(), 0.5, "s"), ("setup_s".into(), f64::NAN, "s")];
        let line = result_line(&tally, &metrics);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"run_s\": {\"value\": 0.5, \
             \"unit\": \"s\"}, \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(vec![5.0, 1.0, 3.0, 2.0, 4.0], 0.25), 2.0);
        assert_eq!(median(Vec::new()), 0.0);
    }

    /// A panicking or mismatching design run counts as a failure and is
    /// never skipped.
    #[test]
    fn a_wrong_fingerprint_is_counted_as_a_failure() {
        let kind = DesignKind::KvsRambda;
        let requests = 2_000;
        let report = SimBuilder::new(kind.design(DEFAULT_SEED, requests)).run();
        let mut wrong = Fingerprint::of(&report);
        wrong.elapsed_ps += 1;
        let pinned = [(kind.name(), wrong)];
        let mut tally = Tally::default();
        assert!(tally.attempt("wrong", || check(kind, DEFAULT_SEED, requests, &report, &pinned)).is_none());
        let right = [(kind.name(), Fingerprint::of(&report))];
        assert!(tally.attempt("right", || check(kind, DEFAULT_SEED, requests, &report, &right)).is_some());
        assert!(tally.attempt("panic", || -> Result<(), String> { panic!("boom") }).is_none());
        // At another seed only the post-warm-up count is checked.
        let other = SimBuilder::new(kind.design(DEFAULT_SEED + 1, requests)).run();
        assert!(tally
            .attempt("other seed", || check(kind, DEFAULT_SEED + 1, requests, &other, &pinned))
            .is_some());
        assert_eq!((tally.attempted, tally.failed), (4, 2));
    }

    #[test]
    fn same_seed_runs_give_identical_fingerprints() {
        for w in WORKLOADS {
            for &kind in w.designs {
                let requests = kind.window_requests() * 4;
                let a = Fingerprint::of(&SimBuilder::new(kind.design(5, requests)).run());
                let b = Fingerprint::of(&SimBuilder::new(kind.design(5, requests)).run());
                assert_eq!(a, b, "{}", kind.name());
                assert_eq!(a.completed, kind.expected_completed(requests), "{}", kind.name());
            }
        }
    }

    /// The pinned table matches the current program at the default seed:
    /// full-size runs of every design.
    #[test]
    fn pinned_fingerprints_hold_at_the_default_seed() {
        for w in WORKLOADS {
            for &kind in w.designs {
                let report = SimBuilder::new(kind.design(DEFAULT_SEED, kind.requests())).run();
                check(kind, DEFAULT_SEED, kind.requests(), &report, &FINGERPRINTS).unwrap();
            }
        }
    }
}
