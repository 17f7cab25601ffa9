//! The repository benchmark: end-to-end `verify` runs on four workloads,
//! timed from outside through the public crate APIs, plus a traced run
//! that times each obligation layer separately.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <packaged|pdl-bank|factory|rel-capstone|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: one client in one process, with at most
//! `nproc` worker threads. A run builds the inputs from the seed several
//! times (`setup_s` is the median), makes one warm-up pass, then repeats
//! passes over the inputs for `--seconds`, checking every verdict against a
//! known answer. The last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`; the line before
//! it starts with `#` and records the host's `nproc`, the worker count,
//! `failed_frac` and the number of passes.
//!
//! - `--trace 0` reports the end-to-end metrics: `setup_s`; the median
//!   wall time of a pass, `wall_s`; the mean user + system CPU time of a
//!   pass, `cpu_s`; and the process's peak RSS, `peak_rss_mb`.
//! - `--trace 1` reports the per-layer metrics ([`PER_LAYER`]): median
//!   milliseconds per pass for each layer, the counts each layer works
//!   through, and `attrib.coverage`, the share of a whole serial `verify`
//!   that the layer calls account for. A `verify` workload whose coverage
//!   is below 0.95 by more than its measurement error is reported as
//!   incorrect (see [`trace::short_of_coverage`]). Metrics of layers a
//!   workload does not run read 0.
//! - `--workload all` runs each workload in its own child process and then
//!   prints one combined object whose metric names carry the workload.
//!
//! Every `ECLECTIC_*` variable is removed from the environment first, so
//! no knob of the program under test changes what is measured.

mod sys;
mod trace;
mod work;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use work::{Capstone, CapstoneRun, Inputs, Job, Workload, R};

const USAGE: &str = "usage: perfbench --workload <packaged|pdl-bank|factory|rel-capstone|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Fewest measured passes per run, however long a pass takes.
const MIN_PASSES: usize = 3;

/// Fewest and most set-ups per run; set-up repeats until it has used a
/// twentieth of `--seconds`, within these limits.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;

/// Every per-layer metric, in output order, with its unit.
const PER_LAYER: [(&str, &str); 32] = [
    ("rpr.wgrammar.check_schema_ms", "ms"),
    ("algebraic.termination_ms", "ms"),
    ("algebraic.completeness_ms", "ms"),
    ("algebraic.completeness.evaluated", "count"),
    ("algebraic.completeness.us_per_query", "us"),
    ("refine.reach.explore_ms", "ms"),
    ("refine.reach.states", "count"),
    ("refine.reach.truncated_jobs", "count"),
    ("refine.obligations.axioms_ms", "ms"),
    ("refine.witness_ms", "ms"),
    ("refine.witness.candidates", "count"),
    ("refine.interp2.equations_ms", "ms"),
    ("refine.interp2.instances", "count"),
    ("refine.obligations.dynamic_ms", "ms"),
    ("rpr.pdl.universe_states", "count"),
    ("rpr.pdl.applications", "count"),
    ("rpr.pdl.denotations_computed", "count"),
    ("rpr.pdl.cache_hit_ratio", "ratio"),
    ("refine.equivalence.cross_ms", "ms"),
    ("refine.equivalence.comparisons", "count"),
    ("core.domains.build_ms", "ms"),
    ("core.fuzz.build_domain_ms", "ms"),
    ("core.verify.serial_ms", "ms"),
    ("core.verify.parallel_ms", "ms"),
    ("kernel.sched.speedup", "ratio"),
    ("attrib.coverage", "ratio"),
    ("attrib.unattributed_ms", "ms"),
    ("kernel.rel.build_ms", "ms"),
    ("kernel.rel.closure_ms", "ms"),
    ("kernel.rel.lazy_sweep_ms", "ms"),
    ("kernel.rel.closure_pairs", "count"),
    ("kernel.rel.mem_bytes", "bytes"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> R<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> R<&str> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> R<u64> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// One named measurement.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// A finished run: the checked job counts, the metrics, and the facts
/// printed on the `#` line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    facts: String,
}

impl Report {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Reads back a result line [`Report::json`] printed.
    fn parse(line: &str) -> Option<Report> {
        let field = |key: &str| -> Option<&str> {
            let rest = line.split(&format!("\"{key}\": ")).nth(1)?;
            rest.split([',', '}']).next()
        };
        let mut metrics = Vec::new();
        let body = line.split("\"metrics\": {").nth(1)?;
        for entry in body.split("}, ").filter(|e| e.contains("\"value\"")) {
            let mut quoted = entry.split('"');
            let name = quoted.nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
            metrics.push(metric(name, value.parse().ok()?, unit));
        }
        Some(Report {
            correct: field("correct")? == "true",
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
            facts: String::new(),
        })
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Builds the inputs repeatedly (see [`MIN_SETUPS`]) and keeps the last
/// set, with the wall time of every build in seconds.
fn timed_setups(w: Workload, args: &Args) -> R<(Inputs, Vec<f64>)> {
    let budget = Duration::from_secs(args.seconds) / 20;
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let inputs = work::setup(w, args.seed)?;
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS && started.elapsed() >= budget;
        if enough || times.len() >= MAX_SETUPS {
            return Ok((inputs, times));
        }
    }
}

/// Runs `pass` once to warm up, then until `seconds` have passed and at
/// least [`MIN_PASSES`] were measured (or four times `seconds`, whichever
/// comes first). Returns the warm-up pass and the measured passes.
fn repeat<P>(seconds: u64, mut pass: impl FnMut() -> P) -> (P, Vec<P>) {
    let warm = pass();
    let run = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(pass());
        let t = started.elapsed();
        if (t >= run && passes.len() >= MIN_PASSES) || t >= 4 * run {
            return (warm, passes);
        }
    }
}

/// One end-to-end pass: wall and CPU seconds to reach every verdict, and
/// the checked job counts.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    attempted: u64,
    failed: u64,
}

/// Times `reach` (which reaches the verdicts), then runs `check` on its
/// result outside the timed interval; `check` returns the number of
/// failed jobs out of `attempted`.
fn timed<T>(attempted: u64, reach: impl FnOnce() -> T, check: impl FnOnce(T) -> u64) -> Pass {
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let out = reach();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    Pass {
        wall_s,
        cpu_s,
        attempted,
        failed: check(out),
    }
}

fn verify_pass(jobs: &[Job], workers: usize) -> Pass {
    timed(
        jobs.len() as u64,
        || {
            jobs.iter()
                .map(|j| work::run_verify(j, workers))
                .collect::<Vec<_>>()
        },
        |outcomes| {
            let held = |(j, o): (&Job, &Option<_>)| {
                o.as_ref().is_some_and(|o| work::verdict_holds(j.expect, o))
            };
            jobs.iter().zip(&outcomes).filter(|&p| !held(p)).count() as u64
        },
    )
}

fn capstone_pass(c: &Capstone, workers: usize) -> Pass {
    let reach = || {
        catch_unwind(AssertUnwindSafe(|| {
            let closed = c.closure(workers);
            let (boxed, diamond) = c.lazy_sweeps();
            CapstoneRun {
                closed,
                boxed,
                diamond,
            }
        }))
        .ok()
    };
    timed(1, reach, |run| u64::from(!run.is_some_and(|r| c.holds(&r))))
}

/// The `--trace 0` run.
fn end_to_end(w: Workload, args: &Args, workers: usize) -> R<Report> {
    let (inputs, setups) = timed_setups(w, args)?;
    let (warm, passes) = match &inputs {
        Inputs::Verify(jobs) => repeat(args.seconds, || verify_pass(jobs, workers)),
        Inputs::Capstone(c) => repeat(args.seconds, || capstone_pass(c, workers)),
    };
    let all = || passes.iter().chain(std::iter::once(&warm));
    let attempted = all().map(|p| p.attempted).sum();
    let failed = all().map(|p| p.failed).sum();
    let cpu_total: f64 = passes.iter().map(|p| p.cpu_s).sum();
    let mut facts = format!(
        "setups={} passes={} jobs_per_pass={}",
        setups.len(),
        passes.len(),
        warm.attempted
    );
    // The highest percentile of pass wall time with at least ten passes
    // above it, when there are enough passes for one.
    if passes.len() >= 20 {
        let mut walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        walls.sort_by(f64::total_cmp);
        let q = 100 * (walls.len() - 10) / walls.len();
        let _ = write!(facts, " wall_p{q}_s={}", walls[walls.len() - 11]);
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(setups), "s"),
            metric(
                "wall_s",
                median(passes.iter().map(|p| p.wall_s).collect()),
                "s",
            ),
            metric("cpu_s", cpu_total / passes.len() as f64, "s"),
            metric("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        ],
        facts,
    })
}

/// The per-layer values of a `verify` workload's traced passes. Times are
/// medians per pass; counts come from the last pass (they repeat exactly).
fn verify_layers(passes: &[trace::TracedPass]) -> Vec<(&'static str, f64)> {
    let med = |f: &dyn Fn(&trace::TracedPass) -> f64| median(passes.iter().map(f).collect());
    let last = passes.last().expect("at least one pass").counts;
    let completeness_ms = med(&|p| p.layers.completeness);
    let lookups = last.hits + last.computed;
    let serial_ms = med(&|p| p.serial_ms);
    let parallel_ms = med(&|p| p.parallel_ms);
    vec![
        ("rpr.wgrammar.check_schema_ms", med(&|p| p.layers.grammar)),
        ("algebraic.termination_ms", med(&|p| p.layers.termination)),
        ("algebraic.completeness_ms", completeness_ms),
        ("algebraic.completeness.evaluated", last.evaluated as f64),
        (
            "algebraic.completeness.us_per_query",
            completeness_ms * 1e3 / last.evaluated.max(1) as f64,
        ),
        ("refine.reach.explore_ms", med(&|p| p.layers.exploration)),
        ("refine.reach.states", last.states as f64),
        ("refine.reach.truncated_jobs", last.truncated as f64),
        ("refine.obligations.axioms_ms", med(&|p| p.layers.axioms)),
        ("refine.witness_ms", med(&|p| p.layers.witness)),
        ("refine.witness.candidates", last.candidates as f64),
        ("refine.interp2.equations_ms", med(&|p| p.layers.equations)),
        ("refine.interp2.instances", last.instances as f64),
        ("refine.obligations.dynamic_ms", med(&|p| p.layers.dynamic)),
        ("rpr.pdl.universe_states", last.universe_states as f64),
        ("rpr.pdl.applications", last.applications as f64),
        ("rpr.pdl.denotations_computed", last.computed as f64),
        (
            "rpr.pdl.cache_hit_ratio",
            last.hits as f64 / lookups.max(1) as f64,
        ),
        ("refine.equivalence.cross_ms", med(&|p| p.layers.cross)),
        ("refine.equivalence.comparisons", last.comparisons as f64),
        ("core.verify.serial_ms", serial_ms),
        ("core.verify.parallel_ms", parallel_ms),
        ("kernel.sched.speedup", serial_ms / parallel_ms),
        (
            "attrib.unattributed_ms",
            med(&|p| p.serial_ms - p.layers.total()),
        ),
    ]
}

/// One traced capstone pass at one worker.
struct CapstoneStep {
    closure_ms: f64,
    sweep_ms: f64,
    pairs: usize,
    bytes: usize,
    ok: bool,
}

fn capstone_step(c: &Capstone) -> CapstoneStep {
    let t0 = Instant::now();
    let closed = catch_unwind(AssertUnwindSafe(|| c.closure(1)))
        .ok()
        .flatten();
    let closure_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let (boxed, diamond) = catch_unwind(AssertUnwindSafe(|| c.lazy_sweeps())).unwrap_or_default();
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (pairs, bytes) = closed
        .as_ref()
        .map_or((0, 0), |r| (r.count_ones(), r.mem_bytes()));
    let ok = c.holds(&CapstoneRun {
        closed,
        boxed,
        diamond,
    });
    CapstoneStep {
        closure_ms,
        sweep_ms,
        pairs,
        bytes,
        ok,
    }
}

/// The `--trace 1` run: one worker, except for the parallel reference.
fn traced(w: Workload, args: &Args, workers: usize) -> R<Report> {
    let (inputs, setups) = timed_setups(w, args)?;
    let setups_done = setups.len();
    let setup_ms = median(setups) * 1e3;
    let mut measured: Vec<(&str, f64)> = Vec::new();
    let (attempted, failed, covered, facts) = match &inputs {
        Inputs::Verify(jobs) => {
            let mut serial_first = false;
            let (warm, passes) = repeat(args.seconds, || {
                serial_first = !serial_first;
                trace::pass(jobs, workers, serial_first)
            });
            measured = verify_layers(&passes);
            let build = if w == Workload::Factory {
                "core.fuzz.build_domain_ms"
            } else {
                "core.domains.build_ms"
            };
            measured.push((build, setup_ms));
            let all = || passes.iter().chain(std::iter::once(&warm));
            let (coverage, std_err) = trace::coverage(all());
            measured.push(("attrib.coverage", coverage));
            (
                all().map(|p| p.attempted).sum(),
                all().map(|p| p.failed).sum(),
                !trace::short_of_coverage(coverage, std_err),
                format!(
                    "setups={setups_done} passes={} attrib.coverage={coverage:.4}±{std_err:.4} \
                     (min {})",
                    passes.len(),
                    trace::MIN_COVERAGE
                ),
            )
        }
        Inputs::Capstone(c) => {
            let (warm, steps) = repeat(args.seconds, || capstone_step(c));
            let last = steps.last().expect("at least one pass");
            measured.extend([
                ("kernel.rel.build_ms", setup_ms),
                (
                    "kernel.rel.closure_ms",
                    median(steps.iter().map(|s| s.closure_ms).collect()),
                ),
                (
                    "kernel.rel.lazy_sweep_ms",
                    median(steps.iter().map(|s| s.sweep_ms).collect()),
                ),
                ("kernel.rel.closure_pairs", last.pairs as f64),
                ("kernel.rel.mem_bytes", last.bytes as f64),
            ]);
            let failed = steps.iter().chain(std::iter::once(&warm)).filter(|s| !s.ok);
            // The relation kernel's own byte count beside the process's
            // peak RSS: recorded as a finding, not gated.
            let facts = format!(
                "setups={setups_done} passes={} kernel.rel.mem_bytes={:.1}MiB peak_rss_mb={:.1}",
                steps.len(),
                last.bytes as f64 / f64::from(1 << 20),
                sys::peak_rss_mb()
            );
            (steps.len() as u64 + 1, failed.count() as u64, true, facts)
        }
    };
    let value = |name: &str| {
        measured
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |m| m.1)
    };
    Ok(Report {
        correct: covered && failed == 0,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, value(name), unit))
            .collect(),
        facts,
    })
}

/// Runs every workload in its own child process (so each peak RSS is that
/// workload's alone), echoing their output, then prints one combined
/// object whose metrics are named `<workload>.<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut combined = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        facts: String::new(),
    };
    for w in work::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let stdout = match out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            _ => {
                eprintln!("perfbench: the {} run failed", w.name());
                return ExitCode::FAILURE;
            }
        };
        print!("{stdout}");
        let Some(child) = stdout.lines().last().and_then(Report::parse) else {
            eprintln!("perfbench: the {} run printed no result", w.name());
            return ExitCode::FAILURE;
        };
        combined.correct &= child.correct;
        combined.attempted += child.attempted;
        combined.failed += child.failed;
        for m in child.metrics {
            combined.metrics.push(Metric {
                name: format!("{}.{}", w.name(), m.name),
                ..m
            });
        }
    }
    println!("{}", combined.json());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Environment hygiene: no knob of the code under test may change what
    // is measured. Unset `ECLECTIC_THREADS` means one worker wherever the
    // code reads it; every worker count used here is passed explicitly.
    // No other thread exists yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ECLECTIC_") {
            std::env::remove_var(&key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let nproc = sys::nproc();
    let workers = sys::available_parallelism().min(nproc).max(1);
    let result = if args.trace {
        traced(w, &args, workers)
    } else {
        end_to_end(w, &args, workers)
    };
    match result {
        Ok(report) => {
            let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
            println!(
                "# workload={} seed={} trace={} nproc={nproc} workers={workers} \
                 failed_frac={failed_frac} {}",
                w.name(),
                args.seed,
                u8::from(args.trace),
                report.facts
            );
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}
