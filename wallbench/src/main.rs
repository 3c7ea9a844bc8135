//! wallbench — the wall-clock benchmark of `feves encode` and `feves serve`.
//!
//! ```text
//! wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! wallbench [--quick] [--seed <n>]      every workload, untraced then traced
//! wallbench --list                      every metric, its unit, direction and bound
//! wallbench --repeat-check              two sets of ten untraced runs, held to the bounds
//! ```
//!
//! Run from the root of a checkout. It builds the release `feves` binary,
//! generates seeded Y4M inputs, drives the binary for the end-to-end numbers
//! (`--trace 0`) or replays the inputs in-process, layer by layer, beside CLI
//! probes (`--trace 1`), checks every output, and prints one JSON object per
//! run as its last line. See README.md.

mod calib;
mod child;
mod cli;
mod e2e;
mod farm;
mod gen;
mod layers;
mod repeat;
mod spec;
mod stats;
mod trace;

use spec::{Metric, Workload, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where and how one run measures.
#[derive(Clone)]
pub struct Ctx {
    /// The release `feves` binary.
    pub feves: PathBuf,
    /// Scratch space under the build's target directory.
    pub work: PathBuf,
    pub seed: u64,
    /// How long the measured part of an untraced run lasts.
    pub seconds: f64,
}

/// Make `dir` an empty directory.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
}

impl Ctx {
    /// An empty directory `<work>/<name>`.
    pub fn fresh_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.work.join(name);
        fresh_dir(&dir)?;
        Ok(dir)
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub ops: cli::Ops,
    pub metrics: Vec<(&'static str, f64)>,
    /// The untraced run's metrics as the clock read them, before each time
    /// was divided by the host's slowdown during it (see `calib`). For
    /// whoever reads the table; never part of the result object.
    pub by_the_clock: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The contract's result object. A metric of `table` that is missing or
    /// not a number makes the run incorrect; it is never printed as zero.
    fn to_json(&self, table: &[Metric], quick: bool) -> String {
        let mut correct = self.ops.failed == 0;
        let mut fields = Vec::new();
        for m in table {
            match self.value(m.name) {
                Some(v) if v.is_finite() => fields.push(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )),
                _ => {
                    eprintln!("FAILED metric {} was not measured", m.name);
                    correct = false;
                }
            }
        }
        let quick = if quick { "\"quick\": true, " } else { "" };
        format!(
            "{{{quick}\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ops.attempted,
            self.ops.failed,
            fields.join(", ")
        )
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    fn clock_value(&self, name: &str) -> Option<f64> {
        let read = self.by_the_clock.iter().find(|(n, _)| *n == name);
        read.map(|m| m.1)
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    list: bool,
    repeat_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        list: false,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is neither 0 nor 1")),
                })
            }
            "--quick" => a.quick = true,
            "--list" => a.list = true,
            "--repeat-check" => a.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn list() {
    println!("workloads:");
    for w in spec::workloads(false) {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!(
        "\nend-to-end metrics (--trace 0); bound = share of the parent's median it may worsen by:"
    );
    for m in END_TO_END {
        println!(
            "  {:<20} {:<9} {:<6} better, bound {:>5.1} %  -- {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.note
        );
    }
    println!("\nper-layer metrics (--trace 1) and the end-to-end metric each should move:");
    for m in PER_LAYER {
        println!(
            "  {:<34} {:<9} {:<6} better  -> {}",
            m.name,
            m.unit,
            m.better.name(),
            m.note
        );
    }
}

/// Build the program under test the way a user would, and find it.
fn build_feves() -> Result<(PathBuf, PathBuf), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("src/bin/feves.rs").is_file() {
        return Err(format!(
            "{} is not the root of a feves checkout",
            root.display()
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "feves",
        ])
        .current_dir(&root)
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err("cargo build --release --bin feves failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let target = root.join(target);
    let feves = target.join("release").join("feves");
    if !feves.is_file() {
        return Err(format!("{} was not built", feves.display()));
    }
    Ok((feves, target.join("wallbench")))
}

/// Run one workload once and print its table and its result object. A run
/// that printed its result object succeeded as a run, whatever the object
/// says.
fn run_one(ctx: &Ctx, w: &Workload, traced: bool, quick: bool) -> Result<(), String> {
    eprintln!(
        "== {} ({}, seed {}) ==",
        w.name,
        if traced { "traced" } else { "untraced" },
        ctx.seed
    );
    let (outcome, table) = if traced {
        (layers::run(ctx, w), PER_LAYER)
    } else {
        (e2e::run(ctx, w), END_TO_END)
    };
    let outcome = outcome.map_err(|e| format!("{}: {e}", w.name))?;
    for m in table {
        if let Some(v) = outcome.value(m.name) {
            let clock = outcome.clock_value(m.name).filter(|c| *c != v);
            let clock = clock.map_or(String::new(), |c| format!("  (by the clock {c:.4})"));
            eprintln!("  {:<34} {:>14.4} {}{clock}", m.name, v, m.unit);
        }
    }
    eprintln!(
        "  {} operation(s), {} failed",
        outcome.ops.attempted, outcome.ops.failed
    );
    println!("{}", outcome.to_json(table, quick));
    Ok(())
}

/// `Ok(false)` only when `--repeat-check` found a metric out of its bound.
fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.list {
        list();
        return Ok(true);
    }
    let all = spec::workloads(args.quick);
    let chosen: Vec<Workload> = match &args.workload {
        None => all,
        Some(name) => {
            let w = all.iter().find(|w| w.name == name);
            vec![*w.ok_or_else(|| format!("unknown workload {name} (see --list)"))?]
        }
    };
    let (feves, work) = build_feves()?;
    let ctx = Ctx {
        feves,
        work,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick { 3.0 } else { 30.0 }),
    };
    if args.repeat_check {
        return repeat::check(&ctx, &chosen);
    }
    let modes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    // Untraced runs first: the traced replay holds clips in this process's
    // memory, and a child's peak RSS cannot read below its parent's.
    for &traced in modes {
        for w in &chosen {
            run_one(&ctx, w, traced, args.quick)?;
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
