//! **native_speedup** — host-dispatch time and kernel-coverage gate for
//! the lowered route on the fig8-class solve (IR-PBiCGStab+ILU(0) with
//! double-word MPIR, the budget_check workload). Every vertex runs on its
//! lowered form (`Graph::compile` refuses a codelet it cannot lower), and
//! the bin fails
//!
//! 1. when SpMV, its residual, either ILU(0) sweep, the dot product's
//!    per-tile stage (`x · y` or `x · x`) or the sum of its partials does
//!    not run as a kernel instruction (`codelet::Kernel`): a silent miss
//!    would quietly forfeit the speed they exist for; and
//! 2. when the per-iteration host dispatch time is more than 25 % over the
//!    committed `results/native_speedup.json`. Skipped, with a note, when
//!    that file is absent or records a different problem size.
//!
//! Output: a small table on stdout and `results/native_speedup.json`
//! (override with `--out <path>`). `--scale <f>` grows the matrix,
//! `--repeats <n>` takes the best of `n` timed runs.

use std::rc::Rc;

use graphene_bench::{header, Args};
use graphene_core::config::SolverConfig;
use graphene_core::runner::{solve_or_panic, SolveOptions, SolveResult};
use graphene_core::solvers::ExtendedPrecision;
use ipu_sim::model::IpuModel;
use json::Json;
use sparse::formats::CsrMatrix;
use sparse::gen::suitesparse::by_name;

/// Best-of-`repeats` host seconds (plus the last result — every repeat is
/// bit-identical by construction).
fn run(a: Rc<CsrMatrix>, b: &[f64], cfg: &SolverConfig, repeats: usize) -> (SolveResult, f64) {
    let opts = SolveOptions {
        model: IpuModel::m2000(),
        rows_per_tile: 32,
        // Keep the residual monitor wired (as budget_check does) so
        // `iterations` is the real count — per-iteration host dispatch is
        // the number the gate compares.
        record_history: true,
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

/// The kernel instructions fig8's hot path must run as: SpMV and its
/// residual, the two ILU(0) sweeps, and BiCGStab's reductions in both
/// stages.
const REQUIRED_KERNELS: &[&str] =
    &["spmv", "spmv_residual", "forward_subst", "backward_subst_div", "dot", "dot_square", "sum"];

/// The committed artifact the per-iteration time is held against.
const BASELINE: &str = "results/native_speedup.json";
/// How much slower than the baseline the route may measure.
const REGRESSION_BOUND: f64 = 0.25;

/// `host_seconds_per_iter` of the committed artifact, if it is there and
/// describes this run's problem (same matrix rows and iteration count).
fn committed_per_iter(rows: usize, iterations: usize) -> Option<f64> {
    let doc = Json::parse(&std::fs::read_to_string(BASELINE).ok()?).ok()?;
    let same_problem = doc.get("rows")?.as_u64()? == rows as u64
        && doc.get("iterations")?.as_u64()? == iterations as u64;
    if !same_problem {
        return None;
    }
    doc.get("host_seconds_per_iter")?.as_f64()
}

fn main() {
    let args = Args::parse();
    let scale = args.get("--scale", 0.002);
    let repeats = args.get("--repeats", 3.0) as usize;
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

    let (r, host_s) = run(a.clone(), &b, &cfg, repeats);

    // 1. Kernel coverage.
    let sel = r
        .report
        .compile
        .as_ref()
        .and_then(|c| c.pass("native-kernel-selection"))
        .cloned()
        .expect("the compiler stamps the kernel selection into its report");
    let vertices = sel.counter("vertices_total");
    let kernel_vertices = sel.counter("vertices_kernel");
    let missing: Vec<&str> = REQUIRED_KERNELS
        .iter()
        .copied()
        .filter(|k| sel.counter(&format!("kernel.{k}")) == 0)
        .collect();
    println!("kernels: {kernel_vertices}/{vertices} vertices a kernel instruction");
    if !missing.is_empty() {
        eprintln!("hot-op codelets not a kernel instruction: {missing:?}");
        std::process::exit(1);
    }

    // 2. Per-iteration host dispatch against the committed time.
    let per_iter = host_s / r.iterations.max(1) as f64;
    println!("backend\thost_s\thost_s_per_iter\tdevice_cycles");
    println!("ipu-sim\t{host_s:.4}\t{per_iter:.6}\t{}", r.stats.device_cycles());
    // Read before `--out` (by default the same file) is overwritten below.
    let committed = committed_per_iter(a.nrows, r.iterations);
    match committed {
        Some(then) => println!(
            "vs committed\t{:.2}x\t(gate: <= {:.2}x of {then:.6} s/iter)",
            per_iter / then,
            1.0 + REGRESSION_BOUND
        ),
        None => println!("vs committed\tskipped\t(no {BASELINE} for this problem size)"),
    }

    let doc = Json::obj(vec![
        ("bin", Json::from("native_speedup")),
        ("matrix", Json::from("G3_circuit")),
        ("scale", Json::from(scale)),
        ("rows", Json::from(a.nrows as f64)),
        ("nnz", Json::from(a.nnz() as f64)),
        ("repeats", Json::from(repeats as f64)),
        ("iterations", Json::from(r.iterations as f64)),
        ("host_seconds", Json::from(host_s)),
        ("host_seconds_per_iter", Json::from(per_iter)),
        ("codelets_total", Json::from(sel.counter("codelets_total"))),
        ("vertices_total", Json::from(vertices)),
        ("vertices_kernel", Json::from(kernel_vertices)),
        ("device_cycles", Json::from(r.stats.device_cycles() as f64)),
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

    if let Some(then) = committed {
        if per_iter > then * (1.0 + REGRESSION_BOUND) {
            eprintln!(
                "per-iteration host dispatch {per_iter:.6} s is more than {:.0} % slower than \
                 the committed {then:.6} s",
                REGRESSION_BOUND * 100.0
            );
            std::process::exit(1);
        }
    }
}
