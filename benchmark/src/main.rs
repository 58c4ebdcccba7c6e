//! Host-time benchmark of graphene-rs. See `README.md` beside `Cargo.toml`
//! for why each workload and metric was chosen.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result as the last line
//! hostbench run [--seed N] [--seconds S] [--repeats K] [--traced] [--out FILE]
//! hostbench check                                                      tiny sizes, names against BENCHMARK.json
//! hostbench compare <a.json> <b.json>
//! ```

mod check;
mod harness;
mod inputs;
mod layers;
mod report;
mod serve;
mod solve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use layers::{Item, Ledger};
use report::{peak_rss_mb, Manifest, Outcome};
use solve::{Kind, SolverWorkload};
use stats::{describe, median};
use trace::Tracer;

/// Set-up runs this many times in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Where traces and saved results go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One run of one workload, as the driver asks for it.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Small inputs, for `check` and the smoke test.
    pub tiny: bool,
}

fn solver_untraced(kind: Kind, args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(SolverWorkload::setup(kind, args.seed, args.tiny, &mut None)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");

    // Every right-hand side is used at least once, so the device-cycle mean
    // does not depend on how many operations fit into the window.
    let mut op_s = Vec::new();
    let start = Instant::now();
    while op_s.len() < inputs::RHS_PER_SYSTEM || start.elapsed().as_secs_f64() < args.seconds {
        let op = workload.op(&mut None);
        op_s.push(op.seconds);
        out.count(op.verdict);
    }
    let cycles = workload.gate.mean_cycles().ok_or("a right-hand side never completed")?;
    out.set("setup_s", median(&setup_s));
    out.set("solve_s", median(&op_s));
    // Operations per second over each whole pass through the right-hand
    // sides; the median over passes shrugs off a stall that hits one of them.
    let pass_rate: Vec<f64> = op_s
        .chunks_exact(inputs::RHS_PER_SYSTEM)
        .map(|pass| pass.len() as f64 / pass.iter().sum::<f64>())
        .collect();
    out.set("solves_per_s", median(&pass_rate));
    out.set("device_mcycles", cycles / 1e6);
    out.set("peak_rss_mb", peak_rss_mb()?);
    println!("setup_s: {}", describe(&setup_s, "s"));
    println!("solve_s: {}", describe(&op_s, "s"));
    println!("solves_per_s per pass: {}", describe(&pass_rate, "1/s"));
    Ok(())
}

/// What one operation of `workload` on right-hand side `rhs` solves, as the
/// layer replica takes it.
fn items(workload: &SolverWorkload, rhs: usize) -> Vec<Item<'_>> {
    workload
        .systems
        .iter()
        .map(|s| Item { a: &s.a, config: &s.config, opts: &s.opts, b: &s.rhs[rhs] })
        .collect()
}

fn solver_traced(
    kind: Kind,
    args: &RunArgs,
    tracer: &mut Tracer,
    cache_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let (_, workload) =
        tracer.operation(|t| SolverWorkload::setup(kind, args.seed, args.tiny, &mut Some(t)));
    let mut workload = workload?;
    let mut ledger = Ledger::default();
    let mut last_report = None;
    let start = Instant::now();
    // Top-level operation and its replica alternate on the same input.
    while ledger.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (e2e_op, op) = tracer.operation(|t| workload.op(&mut Some(t)));
        let rhs = op.rhs;
        last_report = op.report.or(last_report);
        out.count(op.verdict);
        let (digest, cycles) = ledger.replica_op(tracer, e2e_op, &items(&workload, rhs))?;
        if let Err(e) = workload.gate.observe(rhs, digest, cycles) {
            out.problems.push(format!("replica diverged from the top-level call: {e}"));
        }
    }
    ledger.metrics(tracer, out);

    let report = last_report.ok_or("no operation left a report")?;
    layers::probes(tracer, &items(&workload, 0), &report, cache_dir, out)?;
    for name in serve::SERVE_METRICS {
        out.set(name, 0.0);
    }
    Ok(())
}

/// Run one workload and return what it found.
fn run_workload(args: &RunArgs, manifest: &Manifest) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let kind = match args.workload.as_str() {
        "fig8_mpir" => Some(Kind::Fig8Mpir),
        "heat_multi_rhs" => Some(Kind::HeatMultiRhs),
        "cold_oneshot" => Some(Kind::ColdOneshot),
        "serve_mix" => None,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if args.traced {
        let mut tracer = Tracer::new();
        let cache_dir = out_dir().join(format!("tune-{}", std::process::id()));
        let result = match kind {
            Some(kind) => solver_traced(kind, args, &mut tracer, &cache_dir, &mut out),
            None => serve::run(args, Some((&mut tracer, &cache_dir)), &mut out),
        };
        // The tuner's cache is the benchmark's own scratch; leave none behind.
        let _ = std::fs::remove_dir_all(&cache_dir);
        result?;
        let path = out_dir().join(format!("trace_{}.json", args.workload));
        tracer.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        match kind {
            Some(kind) => solver_untraced(kind, args, &mut out)?,
            None => serve::run(args, None, &mut out)?,
        }
    }
    out.reconcile(manifest.metrics(args.traced));
    Ok(out)
}

fn main() -> ExitCode {
    // The repo reads many `GRAPHENE_*` variables, and several silently
    // reroute the executor, backend, tuner or fault plan. None may leak in.
    // Done first, while this is the only thread.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("GRAPHENE_") {
            std::env::remove_var(&name);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match harness::dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("hostbench: {message}");
            ExitCode::from(2)
        }
    }
}
