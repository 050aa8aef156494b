//! The analyzer's rule engine.
//!
//! Ten rules, each enforcing one repo invariant (DESIGN.md §8 and §13):
//!
//! * **R1** — no `HashMap`/`HashSet` in simulation crates: their iteration
//!   order is randomized per process and can leak into event ordering and
//!   run reports. Use `BTreeMap`/`BTreeSet` or the sorted-iteration
//!   `rambda_des::DetHashMap` wrapper (xtask doesn't link the simulation
//!   crates, so no intra-doc link here).
//! * **R2** — no wall-clock (`std::time::Instant` / `SystemTime`), no
//!   `thread::spawn`, no `std::env` / `std::fs` access in simulation crates:
//!   a simulation is a pure function of its config and seed.
//! * **R3** — `unsafe` is confined to the ring crate; every `unsafe` there
//!   is preceded by a `// SAFETY:` comment; every other crate's `lib.rs`
//!   carries `#![forbid(unsafe_code)]`; the ring crate's `lib.rs` carries
//!   `#![deny(unsafe_op_in_unsafe_fn)]`.
//! * **R4** — every `pub` item in the foundation crates (`des`, `metrics`,
//!   `trace`) has a doc comment.
//! * **R5** — no `println!` / `eprintln!` (nor `print!` / `eprint!`)
//!   outside driver binaries: a simulation reports through `RunReport` and
//!   the flight recorder, never by writing to the terminal mid-run.
//! * **R6** — `SimBuilder` is the sole run entry point: no `#[deprecated]`
//!   runner shim may exist, no in-tree code may still call one, and no
//!   `pub fn` may return the closed loop's `RunStats` (a stats-only entry
//!   point beside the builder). A fresh deprecation cycle or stats-only
//!   wrapper would silently reopen the double-API surface.
//! * **R7** — no hidden shared mutable state: no `static mut`, no
//!   `thread_local!`, and no shared-ownership / interior-mutability cell
//!   (`Rc`, `RefCell`, `Cell`, ...) on a type reachable from a simulated
//!   machine through the field-type graph. Any of these lets state leak
//!   between machines or between runs in one process, which breaks
//!   same-seed/same-bytes; the diagnostic carries the reachability path.
//! * **R8** — RNG provenance: every RNG in simulation crates flows from
//!   the workload seed via a salting call (`SimRng::stream(seed, SALT)` /
//!   `fork`). Literal seeds, ambient entropy sources, RNG `.clone()`, and
//!   a single RNG owned beside multiple machines (one stream feeding both
//!   sides of a future partition boundary) are all flagged.
//! * **R9** — identity coverage: every counter suffix a stats crate
//!   publishes from `publish_metrics` into the `MetricSet` must appear in
//!   some `validate_*` conservation identity in the metrics crate, so new
//!   counters can't land unguarded.
//! * **R10** — scope coverage: every counter published under the `scope.`
//!   or `hot.` prefix (the scoped-metrics mirrors, DESIGN.md §15) must
//!   appear in the dedicated `validate_scopes` identity specifically —
//!   coverage by some other `validate_*` function does not count, because
//!   only the scope conservation identities actually cross-check the
//!   rollup and sketch invariants those mirrors summarize.
//!
//! R1, R2, R4, R5, R7 and R8 skip `#[cfg(test)]` modules: a test may model
//! against a `HashMap`, spawn threads, seed an RNG literally, or print
//! diagnostics without affecting simulation output. R1, R2, R5, R7 and R8
//! also skip `src/bin/` targets — a driver binary is ordinary host code
//! that may read flags and write files. R3 is enforced everywhere —
//! undocumented `unsafe` in a test is still a bug. R6 skips test modules
//! and `use` statements (re-exporting a shim keeps it reachable without
//! endorsing it) and allows calls within the defining file.
//!
//! R1–R5 operate on the token stream; R6–R10 consume the item-level parse
//! layer ([`crate::parse`]): declarations, attribute text, `impl`
//! membership, struct fields and the workspace type graph. Both views come
//! from the same [`ParsedFile`], so "test code" means the same thing to
//! every rule.
//!
//! Violations can be allowlisted in `xtask/analyze.allow`; every entry
//! must carry a trailing `# reason` comment, and stale entries (matching
//! nothing) are themselves errors so the file stays honest.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{Token, TokenKind};
use crate::parse::{Item, ItemKind, ParsedFile, TypeGraph, Vis};

/// What the analyzer looks at and which crates each rule applies to.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory containing `crates/`).
    pub root: PathBuf,
    /// Crate directory names (under `crates/`) holding simulation state;
    /// R1, R2, R7 and R8 apply here.
    pub sim_crates: Vec<String>,
    /// The single crate directory allowed to contain `unsafe` (R3).
    pub unsafe_crate: String,
    /// Crate directory names whose whole `pub` surface must be documented
    /// (R4).
    pub doc_crates: Vec<String>,
    /// Crate directory names allowed to print outside `src/bin/` targets
    /// (R5) — the table-rendering bench crate.
    pub print_crates: Vec<String>,
    /// The type representing one simulated machine: the root of R7's
    /// reachability walk and the partition boundary R8 guards.
    pub machine_type: String,
    /// Crate directory names whose `publish_metrics` counter suffixes R9
    /// and R10 collect.
    pub stats_crates: Vec<String>,
    /// Crate directory names whose `validate_*` functions R9 and R10
    /// search for conservation identities.
    pub identity_crates: Vec<String>,
    /// Path to the allowlist file, relative to `root`.
    pub allowlist: PathBuf,
}

impl Config {
    /// The Rambda workspace configuration: every crate is a simulation
    /// crate except `ring` (real atomics, verified by the interleaving
    /// model in `crates/ring/src/model.rs` instead).
    pub fn rambda(root: PathBuf) -> Self {
        let sim = [
            "accel",
            "bench",
            "coherence",
            "core",
            "des",
            "dlrm",
            "fabric",
            "kvs",
            "mem",
            "metrics",
            "power",
            "rnic",
            "smartnic",
            "trace",
            "txn",
            "workloads",
        ];
        Config {
            root,
            sim_crates: sim.iter().map(|s| s.to_string()).collect(),
            unsafe_crate: "ring".to_string(),
            doc_crates: vec!["des".to_string(), "metrics".to_string(), "trace".to_string()],
            print_crates: vec!["bench".to_string()],
            machine_type: "Machine".to_string(),
            stats_crates: vec!["rnic".to_string(), "metrics".to_string()],
            identity_crates: vec!["metrics".to_string()],
            allowlist: PathBuf::from("xtask/analyze.allow"),
        }
    }
}

/// One rule violation, pointing at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`R1`..`R10`).
    pub rule: &'static str,
    /// Path relative to the workspace root, with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The offending token or construct (what allowlist entries match on).
    pub token: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {} — {}", self.path, self.line, self.rule, self.token, self.hint)
    }
}

/// The outcome of one analyzer run.
#[derive(Debug)]
pub struct Analysis {
    /// Violations not covered by the allowlist.
    pub violations: Vec<Violation>,
    /// Violations covered by the allowlist (reported for transparency).
    pub allowed: Vec<Violation>,
    /// Allowlist entries that matched nothing (errors: delete them).
    pub stale_allows: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Whether the workspace is clean (no violations, no stale entries).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty()
    }
}

/// One parsed allowlist line: `rule path token-substring  # reason`.
#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path: String,
    token: String,
    raw: String,
    used: bool,
}

fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let (line, reason) = match raw_line.split_once('#') {
            Some((head, tail)) => (head.trim(), Some(tail.trim())),
            None => (raw_line.trim(), None),
        };
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), Some(token), None) => {
                // Every exception must say why it exists: a bare entry is
                // indistinguishable from a forgotten one.
                if reason.is_none_or(str::is_empty) {
                    return Err(format!(
                        "allowlist line {}: entry has no `# reason` — justify the exception: `{raw_line}`",
                        lineno + 1
                    ));
                }
                entries.push(AllowEntry {
                    rule: rule.to_string(),
                    path: path.to_string(),
                    token: token.to_string(),
                    raw: raw_line.trim().to_string(),
                    used: false,
                });
            }
            _ => {
                return Err(format!(
                    "allowlist line {}: expected `RULE path token  # reason`, got `{raw_line}`",
                    lineno + 1
                ))
            }
        }
    }
    Ok(entries)
}

/// Runs every rule over `crates/*/src/**/*.rs` under `cfg.root` and applies
/// the allowlist.
///
/// # Errors
///
/// Returns an error if the workspace layout or the allowlist cannot be read.
pub fn analyze(cfg: &Config) -> io::Result<Analysis> {
    let mut violations = Vec::new();
    let mut files_scanned = 0usize;
    let mut parsed: Vec<ParsedFile> = Vec::new();

    let crates_dir = cfg.root.join("crates");
    let mut crate_dirs: Vec<PathBuf> =
        fs::read_dir(&crates_dir)?.filter_map(|e| e.ok()).map(|e| e.path()).filter(|p| p.is_dir()).collect();
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        let crate_name = crate_dir.file_name().unwrap().to_string_lossy().to_string();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        let mut saw_lib_rs = false;
        for file in &files {
            files_scanned += 1;
            let rel = rel_path(&cfg.root, file);
            let source = fs::read_to_string(file)?;
            let pf = ParsedFile::parse(&rel, &crate_name, source);
            let is_lib_rs =
                file.file_name().is_some_and(|n| n == "lib.rs") && file.parent().is_some_and(|p| p == src);
            saw_lib_rs |= is_lib_rs;

            if cfg.sim_crates.contains(&crate_name) && !pf.is_bin {
                rule_r1(&pf, &mut violations);
                rule_r2(&pf, &mut violations);
            }
            rule_r3_file(cfg, &crate_name, is_lib_rs, &pf, &mut violations);
            if cfg.doc_crates.contains(&crate_name) {
                rule_r4(&pf, &mut violations);
            }
            if !cfg.print_crates.contains(&crate_name) && !pf.is_bin {
                rule_r5(&pf, &mut violations);
            }
            if cfg.sim_crates.contains(&crate_name) && !pf.is_bin {
                rule_r8_file(cfg, &pf, &mut violations);
            }
            parsed.push(pf);
        }
        if !saw_lib_rs && !files.is_empty() {
            violations.push(Violation {
                rule: "R3",
                path: rel_path(&cfg.root, &src.join("lib.rs")),
                line: 1,
                token: "lib.rs".to_string(),
                hint: "crate has no src/lib.rs to carry its unsafe-code lint attribute".to_string(),
            });
        }
    }

    rule_r6(&parsed, &mut violations);
    rule_r7(cfg, &parsed, &mut violations);
    rule_r9(cfg, &parsed, &mut violations);
    rule_r10(cfg, &parsed, &mut violations);

    // Apply the allowlist.
    let allow_path = cfg.root.join(&cfg.allowlist);
    let mut entries = match fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text).map_err(io::Error::other)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut kept = Vec::new();
    let mut allowed = Vec::new();
    for v in violations {
        let entry =
            entries.iter_mut().find(|a| a.rule == v.rule && a.path == v.path && v.token.contains(&a.token));
        match entry {
            Some(a) => {
                a.used = true;
                allowed.push(v);
            }
            None => kept.push(v),
        }
    }
    let stale_allows = entries.iter().filter(|a| !a.used).map(|a| a.raw.clone()).collect();
    Ok(Analysis { violations: kept, allowed, stale_allows, files_scanned })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// R1: banned hash collections in simulation crates.
fn rule_r1(f: &ParsedFile, out: &mut Vec<Violation>) {
    for (i, t) in f.tokens.iter().enumerate() {
        if f.test_mask[i] {
            continue;
        }
        if let Some(name @ ("HashMap" | "HashSet")) = t.ident() {
            out.push(Violation {
                rule: "R1",
                path: f.rel.clone(),
                line: t.line,
                token: name.to_string(),
                hint: format!(
                    "iteration order can leak into simulation state; use {} or rambda_des::{}",
                    if name == "HashMap" { "BTreeMap" } else { "BTreeSet" },
                    if name == "HashMap" { "DetHashMap" } else { "DetHashSet" },
                ),
            });
        }
    }
}

/// R2: wall-clock, threads and environment-dependent I/O in sim crates.
fn rule_r2(f: &ParsedFile, out: &mut Vec<Violation>) {
    // Single banned identifiers.
    for (i, t) in f.tokens.iter().enumerate() {
        if f.test_mask[i] {
            continue;
        }
        if let Some(name @ ("Instant" | "SystemTime")) = t.ident() {
            out.push(Violation {
                rule: "R2",
                path: f.rel.clone(),
                line: t.line,
                token: name.to_string(),
                hint: "wall-clock breaks seeded reproducibility; model time with rambda_des::SimTime"
                    .to_string(),
            });
        }
    }
    // Banned `a::b` paths (matched on significant tokens so whitespace and
    // comments between segments cannot hide them).
    let sig: Vec<(usize, &Token)> = f.tokens.iter().enumerate().filter(|(_, t)| !t.is_comment()).collect();
    let banned_paths: [(&str, &str, &str); 3] = [
        ("thread", "spawn", "real threads have no place inside a deterministic simulation"),
        ("std", "env", "environment access makes runs machine-dependent; pass configuration explicitly"),
        ("std", "fs", "filesystem access inside a simulation breaks reproducibility; do I/O in the driver"),
    ];
    for w in sig.windows(4) {
        let [(i0, a), (_, c1), (_, c2), (_, b)] = w else { continue };
        if f.test_mask[*i0] || !c1.is_punct(':') || !c2.is_punct(':') {
            continue;
        }
        for (first, second, why) in &banned_paths {
            if a.ident() == Some(first) && b.ident() == Some(second) {
                out.push(Violation {
                    rule: "R2",
                    path: f.rel.clone(),
                    line: a.line,
                    token: format!("{first}::{second}"),
                    hint: (*why).to_string(),
                });
            }
        }
    }
}

/// R5: print-family macros outside driver binaries and the bench crate.
fn rule_r5(f: &ParsedFile, out: &mut Vec<Violation>) {
    let sig: Vec<(usize, &Token)> = f.tokens.iter().enumerate().filter(|(_, t)| !t.is_comment()).collect();
    for w in sig.windows(2) {
        let [(i0, mac), (_, bang)] = w else { continue };
        if f.test_mask[*i0] || !bang.is_punct('!') {
            continue;
        }
        if let Some(name @ ("println" | "eprintln" | "print" | "eprint")) = mac.ident() {
            out.push(Violation {
                rule: "R5",
                path: f.rel.clone(),
                line: mac.line,
                token: format!("{name}!"),
                hint: "simulation crates stay silent; print from a src/bin driver or the bench tables"
                    .to_string(),
            });
        }
    }
}

/// R6: `SimBuilder` is the sole run entry point — no deprecated runner
/// shim may exist, nothing in-tree still calls a name that is shimmed, and
/// no `pub fn` returns `RunStats`.
///
/// Two passes over the parse layer. The first flags every
/// `#[deprecated] pub fn` item outright: the legacy `run_*_report` era is
/// over, and a new deprecation cycle would reopen the double-API surface
/// `SimBuilder` retired. It also flags every non-test `pub fn` whose
/// return type names `RunStats`, except the methods of `SimCtx`: its
/// `run` is the closed loop that produces the value a runner closure hands
/// to the builder, and nothing else may. The second pass flags any
/// identifier use of a deprecated name outside its defining file(s),
/// skipping test modules and `use` statements, so stragglers surface even
/// if the definition is allowlisted during a migration.
fn rule_r6(files: &[ParsedFile], out: &mut Vec<Violation>) {
    // name -> files defining a deprecated fn of that name.
    let mut deprecated: BTreeMap<&str, Vec<&str>> = BTreeMap::new();

    for f in files {
        for item in &f.items {
            if item.kind != ItemKind::Fn || item.vis != Vis::Pub || item.in_test {
                continue;
            }
            if item.impl_of.as_deref() != Some("SimCtx") && returns_type(f, item, "RunStats") {
                out.push(Violation {
                    rule: "R6",
                    path: f.rel.clone(),
                    line: f.tokens[item.span.0].line,
                    token: item.name.clone(),
                    hint: "a pub fn returning RunStats is a stats-only entry point; return a Design and run \
                           it with SimBuilder::new(design).run()"
                        .to_string(),
                });
            }
            if !item.deprecated {
                continue;
            }
            out.push(Violation {
                rule: "R6",
                path: f.rel.clone(),
                line: f.tokens[item.span.0].line,
                token: item.name.clone(),
                hint: "deprecated runner shims are retired; delete the shim — SimBuilder::new(Design::...)\
                       .run() is the only run entry point"
                    .to_string(),
            });
            deprecated.entry(&item.name).or_default().push(&f.rel);
        }
    }

    for f in files {
        for (i, t) in f.tokens.iter().enumerate() {
            if f.test_mask[i] || f.use_mask[i] {
                continue;
            }
            let Some(name) = t.ident() else { continue };
            let Some(defs) = deprecated.get(name) else { continue };
            if defs.iter().any(|d| *d == f.rel) {
                continue;
            }
            out.push(Violation {
                rule: "R6",
                path: f.rel.clone(),
                line: t.line,
                token: name.to_string(),
                hint: "this runner is deprecated; build the run with SimBuilder::new(Design::...).run()"
                    .to_string(),
            });
        }
    }
}

/// Whether the fn `item` declares a return type naming `ty`: the tokens
/// after the `->` that follows its parameter list, up to a `where` clause
/// or the body. Arrows inside generics or parameters (closure bounds such
/// as `impl FnOnce() -> RunStats`) do not count.
fn returns_type(f: &ParsedFile, item: &Item, ty: &str) -> bool {
    let end = item.body.map_or(item.span.1, |(start, _)| start.saturating_sub(1));
    let sig = &f.tokens[item.span.0..end.min(f.tokens.len())];
    let Some(name_at) =
        sig.windows(2).position(|w| w[0].ident() == Some("fn") && w[1].ident() == Some(item.name.as_str()))
    else {
        return false;
    };
    // Skip the generics and the parameter list.
    let (mut angle, mut paren) = (0i32, 0i32);
    let mut i = name_at + 2;
    while i < sig.len() {
        let t = &sig[i];
        i += 1;
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !sig[i - 2].is_punct('-') {
            angle -= 1;
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
            if paren == 0 && angle == 0 {
                break;
            }
        }
    }
    if !(i + 1 < sig.len() && sig[i].is_punct('-') && sig[i + 1].is_punct('>')) {
        return false;
    }
    for t in &sig[i + 2..] {
        match t.ident() {
            Some("where") => break,
            Some(id) if id == ty => return true,
            _ => {}
        }
    }
    false
}

/// The shared-ownership / interior-mutability markers R7 refuses on
/// machine-reachable types: each one lets two owners alias the same
/// mutable cell.
const SHARED_CELLS: [&str; 8] = ["Rc", "Arc", "RefCell", "Cell", "UnsafeCell", "OnceCell", "Mutex", "RwLock"];

/// R7: no hidden shared mutable state. Flags process-global mutable
/// state (`static mut`, `thread_local!`) in sim crates, and shared-cell
/// fields on any type reachable from the machine type through the
/// workspace field-type graph — each diagnostic carries the reachability
/// path that makes the sharing concrete.
fn rule_r7(cfg: &Config, files: &[ParsedFile], out: &mut Vec<Violation>) {
    let sim: Vec<&ParsedFile> =
        files.iter().filter(|f| cfg.sim_crates.contains(&f.crate_name) && !f.is_bin).collect();

    for f in &sim {
        for item in &f.items {
            if item.in_test {
                continue;
            }
            if item.kind == ItemKind::Static && item.mutable {
                out.push(Violation {
                    rule: "R7",
                    path: f.rel.clone(),
                    line: item.line,
                    token: format!("static mut {}", item.name),
                    hint: "process-global mutable state is shared by every simulated machine and \
                           outlives the run; own it per machine instead"
                        .to_string(),
                });
            }
            if item.kind == ItemKind::MacroCall && item.name == "thread_local" {
                out.push(Violation {
                    rule: "R7",
                    path: f.rel.clone(),
                    line: item.line,
                    token: "thread_local!".to_string(),
                    hint: "thread-local state outlives the run and leaks into the next one in the \
                           same process; own the state per machine instead"
                        .to_string(),
                });
            }
        }
    }

    let graph = TypeGraph::build(sim.iter().copied());
    let reach = graph.reachable(std::slice::from_ref(&cfg.machine_type));
    for (ty, path) in &reach {
        for def in graph.defs.get(ty).into_iter().flatten() {
            if !cfg.sim_crates.contains(&def.crate_name) {
                continue;
            }
            for field in &def.fields {
                let Some(marker) = field.ty_idents.iter().find(|t| SHARED_CELLS.contains(&t.as_str())) else {
                    continue;
                };
                out.push(Violation {
                    rule: "R7",
                    path: def.rel.clone(),
                    line: field.line,
                    token: format!("{ty}.{}: {marker}", field.name),
                    hint: format!(
                        "{marker} on a type reachable from a simulated machine ({path}) aliases state \
                         between owners; give each machine exclusive ownership"
                    ),
                });
            }
        }
    }
}

/// Ambient entropy sources R8 bans: any of these severs a run's output
/// from its seed.
const ENTROPY_SOURCES: [&str; 5] = ["thread_rng", "from_entropy", "OsRng", "getrandom", "RandomState"];

/// R8 (per file): RNG provenance. `SimRng::seed` calls outside the RNG's
/// own `impl` must take an argument that names a seed; entropy sources and
/// RNG `.clone()` are banned outright.
fn rule_r8_file(cfg: &Config, f: &ParsedFile, out: &mut Vec<Violation>) {
    // Constructions inside `impl SimRng` are the primitives themselves
    // (`fork` and `stream` both bottom out in `seed`).
    let own_impl: Vec<(usize, usize)> = f
        .items
        .iter()
        .filter(|i| i.kind == ItemKind::Impl && i.name == "SimRng")
        .filter_map(|i| i.body)
        .collect();
    let in_own_impl = |idx: usize| own_impl.iter().any(|&(a, b)| idx >= a && idx <= b);

    let sig: Vec<(usize, &Token)> = f.tokens.iter().enumerate().filter(|(_, t)| !t.is_comment()).collect();

    for (si, &(i0, t)) in sig.iter().enumerate() {
        if f.test_mask[i0] {
            continue;
        }
        // Entropy sources, anywhere in live code.
        if let Some(name) = t.ident() {
            if ENTROPY_SOURCES.contains(&name) {
                out.push(Violation {
                    rule: "R8",
                    path: f.rel.clone(),
                    line: t.line,
                    token: name.to_string(),
                    hint: "ambient entropy severs the run from its seed; all randomness flows from the \
                           workload seed via SimRng::stream(seed, salt)"
                        .to_string(),
                });
            }
        }
        // `SimRng::seed(args)` with args that don't mention a seed.
        if t.ident() == Some("SimRng") && !in_own_impl(i0) {
            let path_call = (
                sig.get(si + 1).map(|&(_, u)| u.is_punct(':')),
                sig.get(si + 2).map(|&(_, u)| u.is_punct(':')),
                sig.get(si + 3).and_then(|&(_, u)| u.ident()),
                sig.get(si + 4).map(|&(_, u)| u.is_punct('(')),
            );
            if let (Some(true), Some(true), Some("seed"), Some(true)) = path_call {
                let args = call_args(&sig, si + 4);
                let arg_idents: Vec<String> =
                    args.iter().filter_map(|t| t.ident()).map(str::to_lowercase).collect();
                if arg_idents.is_empty() {
                    out.push(Violation {
                        rule: "R8",
                        path: f.rel.clone(),
                        line: t.line,
                        token: "SimRng::seed".to_string(),
                        hint: "literal seed severs provenance from the workload seed; derive the stream \
                               with SimRng::stream(cfg.seed, SALT) or fork an existing RNG"
                            .to_string(),
                    });
                } else if !arg_idents.iter().any(|id| id.contains("seed") || id.contains("salt")) {
                    out.push(Violation {
                        rule: "R8",
                        path: f.rel.clone(),
                        line: t.line,
                        token: "SimRng::seed".to_string(),
                        hint: "the seed argument does not flow from a workload seed; thread the run's \
                               seed through and salt it (SimRng::stream / fork)"
                            .to_string(),
                    });
                }
            }
        }
        // `rng.clone()` duplicates a stream: both copies emit the same
        // draws, which is never what a partitioned simulation wants.
        if let Some(name) = t.ident() {
            let is_rng = name == "rng" || name.ends_with("_rng") || name.ends_with("Rng");
            let cloned = sig.get(si + 1).is_some_and(|&(_, u)| u.is_punct('.'))
                && sig.get(si + 2).is_some_and(|&(_, u)| u.ident() == Some("clone"))
                && sig.get(si + 3).is_some_and(|&(_, u)| u.is_punct('('));
            if is_rng && cloned && !in_own_impl(i0) {
                out.push(Violation {
                    rule: "R8",
                    path: f.rel.clone(),
                    line: t.line,
                    token: format!("{name}.clone()"),
                    hint: "cloning an RNG duplicates its stream across owners; fork() a salted child \
                           stream instead"
                        .to_string(),
                });
            }
        }
    }

    // Structural half: one RNG owned beside multiple machines serves both
    // sides of a future partition boundary.
    for item in &f.items {
        if !matches!(item.kind, ItemKind::Struct | ItemKind::Union) || item.in_test {
            continue;
        }
        let machines: usize = item
            .fields
            .iter()
            .map(|fl| {
                if !fl.ty_idents.iter().any(|t| t == &cfg.machine_type) {
                    0
                } else if fl.ty_idents.iter().any(|t| matches!(t.as_str(), "Vec" | "VecDeque" | "BTreeMap")) {
                    2 // a collection of machines is always "more than one"
                } else {
                    1
                }
            })
            .sum();
        if machines < 2 {
            continue;
        }
        for fl in &item.fields {
            if fl.ty_idents.iter().any(|t| t == "SimRng") {
                out.push(Violation {
                    rule: "R8",
                    path: f.rel.clone(),
                    line: fl.line,
                    token: format!("{}.{}: SimRng", item.name, fl.name),
                    hint: format!(
                        "one RNG owned beside {machines} machines feeds both sides of a partition \
                         boundary; fork() a salted per-machine stream instead"
                    ),
                });
            }
        }
    }
}

/// The argument tokens of a call whose `(` sits at significant index
/// `open` — everything up to the matching `)`.
fn call_args<'a>(sig: &[(usize, &'a Token)], open: usize) -> Vec<&'a Token> {
    let mut depth = 0i32;
    let mut args = Vec::new();
    for &(_, t) in &sig[open..] {
        match t.kind {
            TokenKind::Punct('(') => {
                depth += 1;
                if depth == 1 {
                    continue;
                }
            }
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        args.push(t);
    }
    args
}

/// One counter suffix published from a stats crate's `publish_metrics`,
/// with the location the diagnostic points at. Shared by R9 and R10.
struct Published {
    rel: String,
    line: u32,
    suffix: String,
}

/// Collects every `m.set("...")` counter suffix inside `publish_metrics`
/// functions of the stats crates (the shared front half of R9 and R10).
fn collect_published(cfg: &Config, files: &[ParsedFile]) -> Vec<Published> {
    let mut published: Vec<Published> = Vec::new();
    for f in files.iter().filter(|f| cfg.stats_crates.contains(&f.crate_name)) {
        for item in &f.items {
            if item.kind != ItemKind::Fn || item.name != "publish_metrics" || item.in_test {
                continue;
            }
            let Some((b0, b1)) = item.body else { continue };
            let body = &f.tokens[b0..=b1.min(f.tokens.len().saturating_sub(1))];
            let sig: Vec<&Token> = body.iter().filter(|t| !t.is_comment()).collect();
            for (i, t) in sig.iter().enumerate() {
                if t.ident() != Some("set")
                    || !sig.get(i.wrapping_sub(1)).is_some_and(|u| u.is_punct('.'))
                    || !sig.get(i + 1).is_some_and(|u| u.is_punct('('))
                {
                    continue;
                }
                // The first string literal among the arguments is the
                // counter name (possibly a `format!` template).
                let mut depth = 0i32;
                for u in &sig[i + 1..] {
                    match u.kind {
                        TokenKind::Punct('(') => depth += 1,
                        TokenKind::Punct(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if let Some(text) = u.str_text() {
                        let suffix = strip_placeholders(text);
                        let suffix = suffix.trim_start_matches('.');
                        if !suffix.is_empty() {
                            published.push(Published {
                                rel: f.rel.clone(),
                                line: u.line,
                                suffix: suffix.to_string(),
                            });
                        }
                        break;
                    }
                }
            }
        }
    }
    published
}

/// Collects every suffix-like string literal inside identity-crate
/// validator functions whose name satisfies `accept` (the shared back half
/// of R9 and R10).
fn collect_covered(cfg: &Config, files: &[ParsedFile], accept: impl Fn(&str) -> bool) -> Vec<String> {
    let mut covered: Vec<String> = Vec::new();
    for f in files.iter().filter(|f| cfg.identity_crates.contains(&f.crate_name)) {
        for item in &f.items {
            if item.kind != ItemKind::Fn || !accept(&item.name) || item.in_test {
                continue;
            }
            let Some((b0, b1)) = item.body else { continue };
            for t in &f.tokens[b0..=b1.min(f.tokens.len().saturating_sub(1))] {
                let Some(text) = t.str_text() else { continue };
                let n = strip_placeholders(text);
                // Error-message literals contain spaces; counter suffixes
                // don't.
                if !n.is_empty() && !n.contains(char::is_whitespace) {
                    covered.push(n);
                }
            }
        }
    }
    covered
}

/// Whether any collected identity literal mentions `suffix`.
fn covers(covered: &[String], suffix: &str) -> bool {
    covered.iter().any(|c| c.trim_start_matches('.') == suffix || c.ends_with(&format!(".{suffix}")))
}

/// R9: identity coverage. Every counter suffix published from a stats
/// crate's `publish_metrics` must appear in some `validate_*` string
/// literal in the metrics crate — the conservation identities read
/// counters by suffix, so an unmentioned suffix is an unguarded counter.
fn rule_r9(cfg: &Config, files: &[ParsedFile], out: &mut Vec<Violation>) {
    let published = collect_published(cfg, files);
    let covered = collect_covered(cfg, files, |name| name.starts_with("validate"));
    for p in &published {
        if !covers(&covered, &p.suffix) {
            out.push(Violation {
                rule: "R9",
                path: p.rel.clone(),
                line: p.line,
                token: p.suffix.clone(),
                hint: format!(
                    "counter `{}` is published into the MetricSet but no validate_* conservation \
                     identity mentions it; add one to the metrics report validation",
                    p.suffix
                ),
            });
        }
    }
}

/// R10: scope coverage. Every counter published under the `scope.` / `hot.`
/// prefixes (the scoped-metrics mirrors) must appear in the dedicated
/// `validate_scopes` identity — being mentioned by some other `validate_*`
/// function satisfies R9 but not R10, because only `validate_scopes`
/// cross-checks the per-scope rollup and hot-key sketch invariants those
/// mirrors summarize.
fn rule_r10(cfg: &Config, files: &[ParsedFile], out: &mut Vec<Violation>) {
    let published = collect_published(cfg, files);
    let covered = collect_covered(cfg, files, |name| name == "validate_scopes");
    for p in published.iter().filter(|p| p.suffix.starts_with("scope.") || p.suffix.starts_with("hot.")) {
        if !covers(&covered, &p.suffix) {
            out.push(Violation {
                rule: "R10",
                path: p.rel.clone(),
                line: p.line,
                token: p.suffix.clone(),
                hint: format!(
                    "scoped-metrics mirror `{}` is published into the MetricSet but validate_scopes \
                     never mentions it; extend the scope conservation identities",
                    p.suffix
                ),
            });
        }
    }
}

/// Removes `{...}` format placeholders from a format-string literal:
/// `"{prefix}.doorbells"` becomes `".doorbells"`.
fn strip_placeholders(text: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in text.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// R3, per file: unsafe confinement, SAFETY comments, lint attributes.
fn rule_r3_file(cfg: &Config, crate_name: &str, is_lib_rs: bool, f: &ParsedFile, out: &mut Vec<Violation>) {
    let is_unsafe_crate = crate_name == cfg.unsafe_crate;
    let tokens = &f.tokens;
    let path = &f.rel;

    if !is_unsafe_crate {
        for t in tokens {
            if t.ident() == Some("unsafe") {
                out.push(Violation {
                    rule: "R3",
                    path: path.to_string(),
                    line: t.line,
                    token: "unsafe".to_string(),
                    hint: format!(
                        "unsafe is confined to crates/{}; move the code there or find a safe formulation",
                        cfg.unsafe_crate
                    ),
                });
            }
        }
        if is_lib_rs && !has_ident_pair(tokens, "forbid", "unsafe_code") {
            out.push(Violation {
                rule: "R3",
                path: path.to_string(),
                line: 1,
                token: "forbid(unsafe_code)".to_string(),
                hint: "add #![forbid(unsafe_code)] at the top of lib.rs".to_string(),
            });
        }
    } else {
        if is_lib_rs && !has_ident_pair(tokens, "deny", "unsafe_op_in_unsafe_fn") {
            out.push(Violation {
                rule: "R3",
                path: path.to_string(),
                line: 1,
                token: "deny(unsafe_op_in_unsafe_fn)".to_string(),
                hint: "add #![deny(unsafe_op_in_unsafe_fn)] at the top of lib.rs".to_string(),
            });
        }
        // Every `unsafe` needs a `// SAFETY:` comment directly above it.
        for (i, t) in tokens.iter().enumerate() {
            if t.ident() != Some("unsafe") {
                continue;
            }
            // Walk back through the comment block above the `unsafe`: each
            // comment must sit within 5 lines of the code below it, but a
            // contiguous run of comment lines counts as one block, so a long
            // multi-line SAFETY justification is credited in full.
            let mut window_line = t.line;
            let mut documented = false;
            for p in tokens[..i].iter().rev() {
                // Stop at the previous `unsafe`: one comment cannot cover two.
                if p.ident() == Some("unsafe") {
                    break;
                }
                if !p.is_comment() {
                    continue;
                }
                if window_line.saturating_sub(p.end_line) > 5 {
                    break;
                }
                if p.comment_text().is_some_and(|c| c.contains("SAFETY:")) {
                    documented = true;
                    break;
                }
                window_line = p.line;
            }
            if !documented {
                out.push(Violation {
                    rule: "R3",
                    path: path.to_string(),
                    line: t.line,
                    token: "unsafe".to_string(),
                    hint: "precede every unsafe with a // SAFETY: comment justifying it".to_string(),
                });
            }
        }
    }
}

/// `first` followed (within the next few significant tokens) by `second` —
/// matches `#![forbid(unsafe_code)]` without caring about exact punctuation.
fn has_ident_pair(tokens: &[Token], first: &str, second: &str) -> bool {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    sig.iter().enumerate().any(|(i, t)| {
        t.ident() == Some(first) && sig[i + 1..].iter().take(4).any(|u| u.ident() == Some(second))
    })
}

/// R4: every `pub` item carries a doc comment. Re-hosted on the parse
/// layer: an item is documented iff a `///` doc comment or `#[doc]`
/// attribute sits in its preamble; `pub(crate)`, `pub use`, modules
/// (documented by `//!` inside their own file) and struct fields are
/// exempt.
fn rule_r4(f: &ParsedFile, out: &mut Vec<Violation>) {
    for item in &f.items {
        if item.vis != Vis::Pub || item.in_test || item.docd {
            continue;
        }
        let kw = match item.kind {
            ItemKind::Fn => "fn",
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Trait => "trait",
            ItemKind::Union => "union",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::TypeAlias => "type",
            ItemKind::Mod | ItemKind::Impl | ItemKind::Use | ItemKind::MacroCall => continue,
        };
        out.push(Violation {
            rule: "R4",
            path: f.rel.clone(),
            line: item.line,
            token: format!("pub {kw} {}", item.name),
            hint: "document every public item in the foundation crates (/// ...)".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse("test.rs", "kvs", src.to_string())
    }

    fn run_rule<F>(src: &str, f: F) -> Vec<Violation>
    where
        F: Fn(&ParsedFile, &mut Vec<Violation>),
    {
        let pf = parse(src);
        let mut out = Vec::new();
        f(&pf, &mut out);
        out
    }

    #[test]
    fn r1_flags_hash_collections_but_not_in_tests_or_strings() {
        let v = run_rule("use std::collections::HashMap;\nlet s: HashSet<u8>;", rule_r1);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].token, "HashMap");
        assert_eq!(v[1].line, 2);
        assert!(run_rule("let s = \"HashMap\"; // HashMap", rule_r1).is_empty());
        assert!(run_rule("#[cfg(test)]\nmod tests { use std::collections::HashMap; }", rule_r1).is_empty());
    }

    #[test]
    fn r2_flags_wallclock_threads_and_env() {
        let v = run_rule(
            "use std::time::Instant;\nfn f() { std::thread::spawn(f); let h = std::env::var(\"HOME\"); }",
            rule_r2,
        );
        let tokens: Vec<&str> = v.iter().map(|v| v.token.as_str()).collect();
        assert!(tokens.contains(&"Instant"));
        assert!(tokens.contains(&"thread::spawn"));
        assert!(tokens.contains(&"std::env"));
        assert!(run_rule("#[cfg(test)]\nmod tests { fn f() { std::thread::spawn(g); } }", rule_r2).is_empty());
    }

    fn run_r3(src: &str, crate_name: &str, is_lib: bool) -> Vec<Violation> {
        let cfg = Config::rambda(PathBuf::from("."));
        let pf = ParsedFile::parse("test.rs", crate_name, src.to_string());
        let mut out = Vec::new();
        rule_r3_file(&cfg, crate_name, is_lib, &pf, &mut out);
        out
    }

    #[test]
    fn r3_unsafe_outside_ring_is_flagged() {
        let v = run_r3("fn f() { unsafe { g() } }", "kvs", false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].token, "unsafe");
    }

    #[test]
    fn r3_lib_rs_lint_attributes() {
        assert_eq!(run_r3("#![forbid(unsafe_code)]", "kvs", true).len(), 0);
        assert_eq!(run_r3("//! docs only", "kvs", true).len(), 1);
        assert_eq!(run_r3("#![deny(unsafe_op_in_unsafe_fn)]", "ring", true).len(), 0);
        assert_eq!(run_r3("//! docs only", "ring", true).len(), 1);
    }

    #[test]
    fn r3_safety_comments_in_ring() {
        let ok = "// SAFETY: exclusive owner.\nunsafe { g() }";
        assert!(run_r3(ok, "ring", false).is_empty());
        let missing = "unsafe { g() }";
        assert_eq!(run_r3(missing, "ring", false).len(), 1);
        // One comment cannot cover two unsafe sites.
        let shared =
            "// SAFETY: covers only the first.\nunsafe impl Send for X {}\nunsafe impl Sync for X {}";
        assert_eq!(run_r3(shared, "ring", false).len(), 1);
        // A comment more than five lines up does not count.
        let far = "// SAFETY: too far away.\n\n\n\n\n\n\nunsafe { g() }";
        assert_eq!(run_r3(far, "ring", false).len(), 1);
    }

    #[test]
    fn r4_requires_docs_on_pub_items() {
        let v = run_rule("pub fn f() {}\n/// documented\npub struct S;", rule_r4);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].token, "pub fn f");
        // Attributes between the doc comment and the item are fine.
        assert!(run_rule("/// doc\n#[derive(Debug)]\npub struct S;", rule_r4).is_empty());
        // pub(crate), pub use and #[doc] attributes are exempt/satisfied.
        assert!(run_rule("pub(crate) fn f() {}\npub use foo::Bar;", rule_r4).is_empty());
        assert!(run_rule("#[doc = \"x\"]\npub fn f() {}", rule_r4).is_empty());
        // `pub const NAME` is an item; `pub const fn` reports as fn.
        let v = run_rule("pub const X: u8 = 0;\npub const fn f() {}", rule_r4);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].token, "pub const X");
        assert_eq!(v[1].token, "pub fn f");
        // Methods inside impl blocks are covered too.
        let v = run_rule("pub struct S;\nimpl S { pub fn m(&self) {} }", rule_r4);
        assert!(v.iter().any(|v| v.token == "pub fn m"), "{v:?}");
    }

    #[test]
    fn r5_flags_print_macros_outside_tests() {
        let v = run_rule("fn f() { println!(\"x\"); eprint!(\"y\"); }", rule_r5);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].token, "println!");
        assert_eq!(v[1].token, "eprint!");
        // Test modules, strings and comments are exempt.
        assert!(run_rule("#[cfg(test)]\nmod tests { fn f() { println!(\"x\"); } }", rule_r5).is_empty());
        assert!(run_rule("let s = \"println!\"; // println!(no)", rule_r5).is_empty());
        // A bare `print` identifier without `!` is not a macro call.
        assert!(run_rule("fn print() {} fn g() { print(); }", rule_r5).is_empty());
    }

    fn parsed(rel: &str, src: &str) -> ParsedFile {
        let crate_name = rel.split('/').nth(1).unwrap_or("kvs");
        ParsedFile::parse(rel, crate_name, src.to_string())
    }

    #[test]
    fn r6_flags_every_deprecated_shim_definition() {
        // Even a well-routed note no longer saves a shim: the deprecation
        // cycle is over and the definition itself is the violation.
        let routed = parsed(
            "crates/kvs/src/designs.rs",
            "#[deprecated(note = \"use SimBuilder with Design::kvs_rambda\")]\npub fn run_old() {}",
        );
        let mut out = Vec::new();
        rule_r6(&[routed], &mut out);
        assert_eq!(out.len(), 1, "a shim definition must trip R6: {out:?}");
        assert_eq!(out[0].rule, "R6");
        assert_eq!(out[0].token, "run_old");
        assert!(out[0].hint.contains("delete the shim"), "{}", out[0].hint);

        // Non-shim deprecations outside the pattern stay out of scope: a
        // private fn, or one inside a test module.
        let exempt = parsed(
            "crates/kvs/src/designs.rs",
            "#[deprecated]\nfn private_old() {}\n#[cfg(test)]\nmod t { #[deprecated]\npub fn test_old() {} }",
        );
        let mut out = Vec::new();
        rule_r6(&[exempt], &mut out);
        assert!(out.is_empty(), "private and test-module fns are exempt: {out:?}");
    }

    #[test]
    fn r6_flags_pub_fns_returning_run_stats() {
        let src = "pub fn run_cpu(tb: &Testbed) -> RunStats { todo!() }\n\
                   pub fn run_pair() -> (rambda::RunStats, u64) { todo!() }\n\
                   pub fn design(run: impl FnOnce(&Testbed) -> RunStats) -> Design { todo!() }\n\
                   pub fn generic<F: Fn() -> RunStats>(f: F) -> u64 where F: Clone { 0 }\n\
                   fn private() -> RunStats { todo!() }\n\
                   pub(crate) fn restricted() -> RunStats { todo!() }\n\
                   impl SimCtx<'_> { pub fn run(self) -> RunStats { todo!() } }\n\
                   #[cfg(test)]\nmod t { pub fn helper() -> RunStats { todo!() } }";
        let mut out = Vec::new();
        rule_r6(&[parsed("crates/kvs/src/designs.rs", src)], &mut out);
        let names: Vec<&str> = out.iter().map(|v| v.token.as_str()).collect();
        // Only the two pub fns whose own return type names RunStats fire:
        // closure bounds, private/restricted fns, SimCtx's loop and test
        // helpers are exempt.
        assert_eq!(names, ["run_cpu", "run_pair"], "{out:?}");
        assert!(out[0].hint.contains("stats-only"), "{}", out[0].hint);
    }

    #[test]
    fn r6_flags_external_callers_but_not_reexports_or_tests() {
        let def = parsed(
            "crates/kvs/src/designs.rs",
            "#[deprecated(note = \"use SimBuilder\")]\npub fn run_old() {}\nfn helper() { run_old(); }",
        );
        let reexport = parsed(
            "crates/kvs/src/lib.rs",
            "#[allow(deprecated)]\npub use designs::run_old;\n#[cfg(test)]\nmod t { fn f() { run_old(); } }",
        );
        let caller = parsed("crates/bench/src/harness.rs", "fn sweep() { let r = run_old(); }");
        let mut out = Vec::new();
        rule_r6(&[def, reexport, caller], &mut out);
        // The definition itself plus the one live external caller; the
        // re-export, the test-module call, and the same-file helper stay
        // exempt.
        assert_eq!(out.len(), 2, "definition + live external caller: {out:?}");
        assert_eq!(out[0].path, "crates/kvs/src/designs.rs");
        assert_eq!(out[1].path, "crates/bench/src/harness.rs");
        assert_eq!(out[1].token, "run_old");
    }

    fn run_cross<F>(files: Vec<ParsedFile>, f: F) -> Vec<Violation>
    where
        F: Fn(&Config, &[ParsedFile], &mut Vec<Violation>),
    {
        let cfg = Config::rambda(PathBuf::from("."));
        let mut out = Vec::new();
        f(&cfg, &files, &mut out);
        out
    }

    #[test]
    fn r7_flags_globals_and_reachable_cells_with_paths() {
        let v = run_cross(
            vec![parsed(
                "crates/kvs/src/lib.rs",
                "pub static mut TICKS: u64 = 0;\nthread_local! { static S: u64 = 0; }",
            )],
            rule_r7,
        );
        let tokens: Vec<&str> = v.iter().map(|v| v.token.as_str()).collect();
        assert!(tokens.contains(&"static mut TICKS"), "{v:?}");
        assert!(tokens.contains(&"thread_local!"), "{v:?}");

        // A RefCell two hops from Machine is flagged, with the path.
        let v = run_cross(
            vec![
                parsed("crates/core/src/machine.rs", "pub struct Machine { pub cache: CacheModel }"),
                parsed(
                    "crates/mem/src/cache.rs",
                    "use std::rc::Rc;\npub struct CacheModel { pub lines: Rc<RefCell<u64>> }",
                ),
            ],
            rule_r7,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].token.contains("CacheModel.lines"), "{v:?}");
        assert!(v[0].hint.contains("Machine"), "the hint carries the path: {v:?}");

        // The same cell on an unreachable type is NOT flagged.
        let v = run_cross(
            vec![parsed("crates/mem/src/cache.rs", "pub struct Island { pub c: RefCell<u64> }")],
            rule_r7,
        );
        assert!(v.is_empty(), "unreachable types are not partition hazards: {v:?}");

        // Test modules are exempt.
        let v = run_cross(
            vec![parsed("crates/kvs/src/lib.rs", "#[cfg(test)]\nmod t { pub static mut X: u64 = 0; }")],
            rule_r7,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r8_flags_literal_seeds_entropy_and_clones() {
        let cfg = Config::rambda(PathBuf::from("."));
        let run = |src: &str| {
            let pf = parsed("crates/kvs/src/lib.rs", src);
            let mut out = Vec::new();
            rule_r8_file(&cfg, &pf, &mut out);
            out
        };
        let v = run("fn f() { let rng = SimRng::seed(42); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].token, "SimRng::seed");
        // A seed that flows from the workload config passes.
        assert!(run("fn f(params: &P) { let rng = SimRng::seed(params.seed); }").is_empty());
        assert!(run("fn f(cfg: &C) { let rng = SimRng::seed(cfg.seed ^ SALT); }").is_empty());
        // A non-seed argument is an unsalted root.
        let v = run("fn f(tick: u64) { let rng = SimRng::seed(tick); }");
        assert_eq!(v.len(), 1, "{v:?}");
        // Entropy sources and clones.
        let v = run("fn f() { let s = RandomState::new(); }");
        assert_eq!(v[0].token, "RandomState");
        let v = run("fn f(rng: &SimRng) { let dup = rng.clone(); }");
        assert_eq!(v[0].token, "rng.clone()");
        // Inside `impl SimRng`, seed() calls are the primitive itself.
        assert!(
            run("impl SimRng { pub fn fork(&mut self) -> Self { SimRng::seed(self.next()) } }").is_empty()
        );
        // Tests may seed literally.
        assert!(run("#[cfg(test)]\nmod t { fn f() { let r = SimRng::seed(42); } }").is_empty());
    }

    #[test]
    fn r8_flags_one_rng_owned_beside_multiple_machines() {
        let cfg = Config::rambda(PathBuf::from("."));
        let pf = parsed(
            "crates/txn/src/designs.rs",
            "struct World { client: rambda::Machine, server: rambda::Machine, rng: SimRng }",
        );
        let mut out = Vec::new();
        rule_r8_file(&cfg, &pf, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].token, "World.rng: SimRng");

        // One machine + one RNG is fine; a Vec of machines is not.
        let one = parsed("crates/txn/src/designs.rs", "struct W { m: Machine, rng: SimRng }");
        let mut out = Vec::new();
        rule_r8_file(&cfg, &one, &mut out);
        assert!(out.is_empty(), "{out:?}");
        let many = parsed("crates/txn/src/designs.rs", "struct W { ms: Vec<Machine>, rng: SimRng }");
        let mut out = Vec::new();
        rule_r8_file(&cfg, &many, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn r9_uncovered_counters_are_flagged() {
        let rnic = parsed(
            "crates/rnic/src/endpoint.rs",
            "impl E { pub fn publish_metrics(&self, m: &mut M, prefix: &str) {\n\
             m.set(&format!(\"{prefix}.doorbells\"), self.d);\n\
             m.set(&format!(\"{prefix}.wqes\"), self.w);\n } }",
        );
        let metrics = parsed(
            "crates/metrics/src/report.rs",
            "impl R { fn validate_rnic(&self) { let w = self.sum(\".wqes\"); } }",
        );
        let v = run_cross(vec![rnic, metrics], rule_r9);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].token, "doorbells");
        assert_eq!(v[0].path, "crates/rnic/src/endpoint.rs");
    }

    #[test]
    fn r9_covered_counters_pass_and_error_strings_do_not_cover() {
        let rnic = parsed(
            "crates/rnic/src/endpoint.rs",
            "impl E { pub fn publish_metrics(&self, m: &mut M, p: &str) {\n\
             m.set(&format!(\"{p}.cqes\"), self.c);\n } }",
        );
        // An error-message literal mentioning the counter does NOT count as
        // an identity; a suffix literal does.
        let vague = parsed(
            "crates/metrics/src/report.rs",
            "impl R { fn validate_x(&self) { let e = \"too many cqes in flight\"; } }",
        );
        let v = run_cross(vec![rnic, vague], rule_r9);
        assert_eq!(v.len(), 1, "prose must not satisfy coverage: {v:?}");

        let exact = parsed(
            "crates/metrics/src/report.rs",
            "impl R { fn validate_rnic(&self) { let c = self.sum(\".cqes\"); } }",
        );
        let rnic2 = parsed(
            "crates/rnic/src/endpoint.rs",
            "impl E { pub fn publish_metrics(&self, m: &mut M, p: &str) {\n\
             m.set(&format!(\"{p}.cqes\"), self.c);\n } }",
        );
        let v = run_cross(vec![rnic2, exact], rule_r9);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r9_scans_the_metrics_crate_publisher_too() {
        // The event-core summary publishes from the metrics crate itself;
        // its counters need identity coverage like any stats crate's.
        let metrics = parsed(
            "crates/metrics/src/event_core.rs",
            "impl S { pub fn publish_metrics(&self, m: &mut M, p: &str) {\n\
             m.set(&format!(\"{p}.dwell_ps\"), self.d);\n } }\n\
             fn validate_event_core() { let _ = \".enqueued\"; }",
        );
        let v = run_cross(vec![metrics], rule_r9);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].token, "dwell_ps");
        assert_eq!(v[0].path, "crates/metrics/src/event_core.rs");
    }

    #[test]
    fn r10_scope_mirrors_need_validate_scopes_specifically() {
        // `scope.count` is covered by a generic validate_* fn — enough for
        // R9, but R10 demands validate_scopes itself.
        let publisher = parsed(
            "crates/metrics/src/scope.rs",
            "impl S { pub fn publish_metrics(&self, m: &mut M) {\n\
             m.set(\"scope.count\", self.n);\n\
             m.set(\"hot.observed\", self.o);\n } }",
        );
        let elsewhere = parsed(
            "crates/metrics/src/report.rs",
            "impl R { fn validate_other(&self) { let c = self.counter(\"scope.count\"); } }",
        );
        let v = run_cross(vec![publisher, elsewhere], rule_r10);
        let tokens: Vec<&str> = v.iter().map(|v| v.token.as_str()).collect();
        assert!(tokens.contains(&"scope.count"), "generic coverage must not satisfy R10: {v:?}");
        assert!(tokens.contains(&"hot.observed"), "{v:?}");
        assert_eq!(v.len(), 2, "{v:?}");

        // The same mirrors mentioned inside validate_scopes pass.
        let publisher = parsed(
            "crates/metrics/src/scope.rs",
            "impl S { pub fn publish_metrics(&self, m: &mut M) {\n\
             m.set(\"scope.count\", self.n);\n\
             m.set(\"hot.observed\", self.o);\n } }",
        );
        let guarded = parsed(
            "crates/metrics/src/report.rs",
            "impl R { fn validate_scopes(&self) { let _ = (\"scope.count\", \"hot.observed\"); } }",
        );
        let v = run_cross(vec![publisher, guarded], rule_r10);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r10_ignores_unprefixed_counters() {
        // Counters outside the scope./hot. namespaces are R9's business,
        // never R10's — even when completely unguarded.
        let publisher = parsed(
            "crates/rnic/src/endpoint.rs",
            "impl E { pub fn publish_metrics(&self, m: &mut M, p: &str) {\n\
             m.set(&format!(\"{p}.doorbells\"), self.d);\n } }",
        );
        let v = run_cross(vec![publisher], rule_r10);
        assert!(v.is_empty(), "unprefixed counters are out of scope: {v:?}");
    }

    #[test]
    fn allowlist_parses_and_rejects_garbage() {
        let entries =
            parse_allowlist("# comment\n\nR1 crates/des/src/detmap.rs HashMap  # backing store\n").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "R1");
        assert!(parse_allowlist("R1 only-two").is_err());
    }

    #[test]
    fn allowlist_entries_without_a_reason_are_errors() {
        let err = parse_allowlist("R1 crates/des/src/detmap.rs HashMap\n").unwrap_err();
        assert!(err.contains("no `# reason`"), "{err}");
        let err = parse_allowlist("R1 crates/des/src/detmap.rs HashMap  #   \n").unwrap_err();
        assert!(err.contains("no `# reason`"), "{err}");
    }
}
