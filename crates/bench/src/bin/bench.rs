//! The continuous-benchmark driver behind `cargo xtask bench`.
//!
//! ```text
//! bench [--quick] [--sweep NAME]... [--out DIR] [--compare PATH] [--list]
//! ```
//!
//! Runs the declarative sweeps in `rambda_bench::harness`, writes one
//! byte-deterministic `BENCH_<sweep>.json` per sweep into `--out`
//! (default `bench/out`), and prints each sweep's ASCII table.
//!
//! With `--compare PATH` (a directory of baseline `BENCH_<sweep>.json`
//! files — normally `bench/baselines` — or a single file), every fresh
//! sweep is diffed against its baseline; any throughput drop or p99 rise
//! beyond the baseline's tolerance prints a readable diff line and the
//! process exits non-zero, which CI gates on.
//!
//! The simulator's own wall-clock cost is measured by the `perfbench/`
//! benchmark, not here: every artifact this binary writes is a pure
//! function of the seed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rambda_bench::harness::{compare, is_gating, run_sweep, sweep_names, SweepResult};

const USAGE: &str = "\
Usage: bench [--quick] [--sweep NAME]... [--out DIR] [--compare PATH]
             [--scopes] [--list]

  --quick          CI-sized runs (the committed baselines are quick-mode)
  --sweep NAME     run only the named sweep (repeatable; default: all)
  --out DIR        artifact directory (default: bench/out)
  --compare PATH   baseline dir or file to gate against; regressions exit 1
  --scopes         run each point under the scoped-metrics registry; sweep
                   JSON and tables gain a hottest-scope request-share column
  --list           print the defined sweep names and exit
";

struct Args {
    quick: bool,
    sweeps: Vec<String>,
    out: PathBuf,
    compare: Option<PathBuf>,
    scopes: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        quick: false,
        sweeps: Vec::new(),
        out: PathBuf::from("bench/out"),
        compare: None,
        scopes: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--scopes" => args.scopes = true,
            "--sweep" => {
                let name = it.next().ok_or("--sweep requires a name")?;
                if !sweep_names().contains(&name.as_str()) {
                    return Err(format!(
                        "unknown sweep `{name}` — valid sweeps: {}",
                        sweep_names().join(", ")
                    ));
                }
                args.sweeps.push(name);
            }
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out requires a directory")?),
            "--compare" => args.compare = Some(PathBuf::from(it.next().ok_or("--compare requires a path")?)),
            "--list" => {
                for name in sweep_names() {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.sweeps.is_empty() {
        args.sweeps = sweep_names().iter().map(|s| s.to_string()).collect();
    }
    Ok(Some(args))
}

/// Loads the baseline for `sweep` from a directory of `BENCH_<sweep>.json`
/// files or a single file.
fn load_baseline(path: &Path, sweep: &str) -> Result<SweepResult, String> {
    let file = if path.is_dir() { path.join(format!("BENCH_{sweep}.json")) } else { path.to_path_buf() };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read baseline {}: {e}", file.display()))?;
    let baseline = SweepResult::from_json_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    if baseline.sweep != sweep {
        return Err(format!("{} holds sweep `{}`, expected `{sweep}`", file.display(), baseline.sweep));
    }
    Ok(baseline)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    let mut regressions = Vec::new();
    for sweep in &args.sweeps {
        let result = match run_sweep(sweep, args.quick, args.scopes) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: sweep {sweep}: {e}");
                return ExitCode::from(2);
            }
        };
        let file = args.out.join(format!("BENCH_{sweep}.json"));
        if let Err(e) = std::fs::write(&file, result.to_json_string()) {
            eprintln!("error: cannot write {}: {e}", file.display());
            return ExitCode::from(2);
        }
        println!("{}", result.render_table());

        if let Some(base_path) = &args.compare {
            if !is_gating(sweep) {
                println!("{sweep}: non-gating, comparison skipped");
                continue;
            }
            match load_baseline(base_path, sweep) {
                Ok(baseline) => {
                    let diffs = compare(&result, &baseline);
                    if diffs.is_empty() {
                        println!("{sweep}: no regression vs {}", base_path.display());
                    } else {
                        for d in &diffs {
                            eprintln!("REGRESSION {d}");
                        }
                        regressions.extend(diffs);
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    regressions.push(e);
                }
            }
        }
    }

    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("\n{} regression(s) — see diff lines above", regressions.len());
        ExitCode::FAILURE
    }
}
