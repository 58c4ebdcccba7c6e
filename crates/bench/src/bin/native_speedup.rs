//! **native_speedup** — host-dispatch speedup and coverage gate for the
//! fused kernels: `ipu-sim:fused` against `ipu-sim`.
//!
//! Runs the fig8-class solve (IR-PBiCGStab+ILU(0) with double-word MPIR,
//! the budget_check workload) on the default lowered route and with fused
//! dispatch, and
//!
//! 1. asserts every device observable is identical (solution bits, device
//!    cycles, exchanged bytes, superstep/sync counts, per-label splits) —
//!    the fused kernels' bit-and-cycle-identity contract;
//! 2. asserts the fig8 hot-op codelets actually fused (SpMV, the residual
//!    SpMV), that both triangular sweeps run as kernel instructions on both
//!    routes, and that every vertex is lowered — a silent miss would
//!    quietly forfeit the speedup;
//! 3. gates each route on its own per-iteration host dispatch time: neither
//!    the default (lowered) route nor fused dispatch may be more than 25 %
//!    slower than in the committed `results/native_speedup.json`. Skipped,
//!    with a note, when that file is absent or records a different problem
//!    size; and
//! 4. reports the fused / default ratio, which falls whenever the default
//!    route gets faster, so it only has a floor, `--min-speedup` (default
//!    1): below it the fused kernels are slower than what they fuse.
//!
//! Output: a small table on stdout and `results/native_speedup.json`
//! (override with `--out <path>`). `--scale <f>` grows the matrix,
//! `--repeats <n>` takes the best of `n` timed runs per backend.

use std::rc::Rc;

use backend::{BackendSpec, IpuVariant};
use graphene_bench::{header, Args, Fingerprint};
use graphene_core::config::SolverConfig;
use graphene_core::runner::{solve_or_panic, SolveOptions, SolveResult};
use graphene_core::solvers::ExtendedPrecision;
use ipu_sim::model::IpuModel;
use json::Json;
use sparse::formats::CsrMatrix;
use sparse::gen::suitesparse::by_name;

/// Best-of-`repeats` host seconds for one `ipu-sim` variant (plus the last
/// result — every repeat is bit-identical by construction).
fn run(
    variant: IpuVariant,
    a: Rc<CsrMatrix>,
    b: &[f64],
    cfg: &SolverConfig,
    repeats: usize,
) -> (SolveResult, f64) {
    let opts = SolveOptions {
        model: IpuModel::m2000(),
        rows_per_tile: 32,
        // Keep the residual monitor wired (as budget_check does) so
        // `iterations` is the real count — per-iteration host dispatch is
        // the number the gate compares.
        record_history: true,
        backend: Some(BackendSpec::IpuSim(variant)),
        ..SolveOptions::default()
    };
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let r = solve_or_panic(a.clone(), b, cfg, &opts);
        best = best.min(r.report.host_seconds);
        last = Some(r);
    }
    (last.expect("at least one repeat"), best)
}

/// The fused-kernel names the fig8 hot path must hit. A miss on any of
/// these forfeits the speedup the library exists for, so it fails the gate
/// rather than just slowing down. The triangular sweeps are not among them:
/// they are kernel instructions of the lowered form, required on both
/// routes.
const REQUIRED_KERNELS: &[&str] = &["spmv", "spmv_residual"];

/// The kernel instructions (`codelet::Kernel`) fig8's ILU(0) sweeps must
/// run as, on both routes.
const REQUIRED_INSTRUCTIONS: &[&str] = &["forward_subst", "backward_subst_div"];

/// The committed artifact each route's per-iteration time is held against.
const BASELINE: &str = "results/native_speedup.json";
/// How much slower than the baseline either route may measure.
const REGRESSION_BOUND: f64 = 0.25;

/// `interp_host_seconds_per_iter` and `fused_host_seconds_per_iter` of the
/// committed artifact, if it is there and describes this run's problem
/// (same matrix rows and iteration count).
fn committed_per_iter(rows: usize, iterations: usize) -> Option<(f64, f64)> {
    let doc = Json::parse(&std::fs::read_to_string(BASELINE).ok()?).ok()?;
    let same_problem = doc.get("rows")?.as_u64()? == rows as u64
        && doc.get("iterations")?.as_u64()? == iterations as u64;
    if !same_problem {
        return None;
    }
    let per_iter = |key: &str| doc.get(key)?.as_f64();
    Some((per_iter("interp_host_seconds_per_iter")?, per_iter("fused_host_seconds_per_iter")?))
}

fn main() {
    let args = Args::parse();
    let scale = args.get("--scale", 0.002);
    let repeats = args.get("--repeats", 3.0) as usize;
    let min_speedup = args.get("--min-speedup", 1.0);
    let out = args.get_str("--out", BASELINE);

    // The budget_check fig8 workload: MPIR(dw) { PBiCGStab(100) { ILU(0) } }.
    let a = Rc::new(by_name("G3_circuit", scale));
    let b = sparse::gen::random_vector(a.nrows, 8);
    let cfg = SolverConfig::Mpir {
        inner: Box::new(SolverConfig::BiCgStab {
            max_iters: 100,
            rel_tol: 0.0,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        }),
        precision: ExtendedPrecision::DoubleWord,
        max_outer: 60,
        rel_tol: 1e-9,
    };
    header(&format!(
        "native_speedup: fig8-class MPIR solve on G3_circuit@{scale} ({} rows, {} nnz)",
        a.nrows,
        a.nnz()
    ));

    let (ri, interp_s) = run(IpuVariant::Default, a.clone(), &b, &cfg, repeats);
    let (rf, fused_s) = run(IpuVariant::Fused, a.clone(), &b, &cfg, repeats);

    // 1. Bit-and-cycle identity.
    assert_eq!(
        Fingerprint::of(&ri),
        Fingerprint::of(&rf),
        "fused dispatch disagrees with the interpreter — determinism violation"
    );

    // 2. Kernel coverage.
    let selection = |r: &SolveResult| {
        r.report
            .compile
            .as_ref()
            .and_then(|c| c.pass("native-kernel-selection"))
            .cloned()
            .expect("the engine stamps the kernel selection into its compile report")
    };
    let sel = selection(&rf);
    let selections = [selection(&ri), sel.clone()];
    let kernel_vertices = selections.each_ref().map(|s| s.counter("vertices_kernel"));
    let not_instructions: Vec<&str> = REQUIRED_INSTRUCTIONS
        .iter()
        .copied()
        .filter(|k| selections.iter().any(|s| s.counter(&format!("kernel.{k}")) == 0))
        .collect();
    let missing: Vec<&str> = REQUIRED_KERNELS
        .iter()
        .copied()
        .filter(|k| sel.counter(&format!("fused.{k}")) == 0)
        .collect();
    let (vertices, lowered) = (sel.counter("vertices_total"), sel.counter("vertices_lowered"));
    println!(
        "kernels: {}/{} codelets fused; {lowered}/{vertices} vertices lowered; \
         {kernel_vertices:?} vertices a kernel instruction (ipu-sim, ipu-sim:fused)",
        sel.counter("codelets_fused"),
        sel.counter("codelets_total"),
    );
    if !missing.is_empty() {
        eprintln!("hot-op codelets did not fuse: {missing:?}");
        std::process::exit(1);
    }
    if !not_instructions.is_empty() {
        eprintln!("sweeps not a kernel instruction on every route: {not_instructions:?}");
        std::process::exit(1);
    }
    if lowered != vertices {
        eprintln!("{} vertices run on the dynamic interpreter", vertices - lowered);
        std::process::exit(1);
    }

    // 3. Per-iteration host-dispatch speedup.
    let iters = ri.iterations.max(1) as f64;
    let interp_per_iter = interp_s / iters;
    let fused_per_iter = fused_s / iters;
    let speedup = interp_per_iter / fused_per_iter;
    println!("backend\thost_s\thost_s_per_iter\tdevice_cycles");
    println!("ipu-sim\t{interp_s:.4}\t{interp_per_iter:.6}\t{}", ri.stats.device_cycles());
    println!("ipu-sim:fused\t{fused_s:.4}\t{fused_per_iter:.6}\t{}", rf.stats.device_cycles());
    println!("speedup\t{speedup:.2}x\t(floor: {min_speedup:.1}x)");
    // Read before `--out` (by default the same file) is overwritten below.
    let committed = committed_per_iter(a.nrows, ri.iterations);
    // Each route against its own committed time.
    let routes = committed.map(|(interp, fused)| {
        [("ipu-sim", interp_per_iter, interp), ("ipu-sim:fused", fused_per_iter, fused)]
    });
    match &routes {
        Some(routes) => {
            for (route, now, then) in routes {
                println!(
                    "{route} vs committed\t{:.2}x\t(gate: <= {:.2}x of {then:.6} s/iter)",
                    now / then,
                    1.0 + REGRESSION_BOUND
                );
            }
        }
        None => println!("vs committed\tskipped\t(no {BASELINE} for this problem size)"),
    }

    let doc = Json::obj(vec![
        ("bin", Json::from("native_speedup")),
        ("matrix", Json::from("G3_circuit")),
        ("scale", Json::from(scale)),
        ("rows", Json::from(a.nrows as f64)),
        ("nnz", Json::from(a.nnz() as f64)),
        ("repeats", Json::from(repeats as f64)),
        ("iterations", Json::from(ri.iterations as f64)),
        ("interp_host_seconds", Json::from(interp_s)),
        ("fused_host_seconds", Json::from(fused_s)),
        ("interp_host_seconds_per_iter", Json::from(interp_per_iter)),
        ("fused_host_seconds_per_iter", Json::from(fused_per_iter)),
        ("speedup", Json::from(speedup)),
        ("min_speedup", Json::from(min_speedup)),
        ("codelets_total", Json::from(sel.counter("codelets_total"))),
        ("codelets_fused", Json::from(sel.counter("codelets_fused"))),
        ("vertices_total", Json::from(vertices)),
        ("vertices_lowered", Json::from(lowered)),
        ("vertices_kernel", Json::from(kernel_vertices[0])),
        ("device_cycles", Json::from(ri.stats.device_cycles() as f64)),
        ("bit_identical", Json::from(true)),
    ]);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("[graphene] cannot create {}: {e}", dir.display());
        }
    }
    match std::fs::write(&out, doc.to_pretty()) {
        Ok(()) => eprintln!("[graphene] wrote {out}"),
        Err(e) => eprintln!("[graphene] cannot write {out}: {e}"),
    }

    if speedup < min_speedup {
        eprintln!(
            "fused per-iteration host dispatch speedup {speedup:.2}x is below the \
             {min_speedup:.1}x floor: the fused kernels no longer pay for themselves"
        );
        std::process::exit(1);
    }
    for (route, now, then) in routes.into_iter().flatten() {
        if now > then * (1.0 + REGRESSION_BOUND) {
            eprintln!(
                "{route} per-iteration host dispatch {now:.6} s is more than {:.0} % slower \
                 than the committed {then:.6} s",
                REGRESSION_BOUND * 100.0
            );
            std::process::exit(1);
        }
    }
}
