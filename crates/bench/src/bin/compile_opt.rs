//! Graph-compiler optimisation benchmark — host dispatch overhead of the
//! optimised `ExecPlan` vs the unoptimised one.
//!
//! Workload: the Figure 8 solver — MPIR(double-word) wrapping
//! PBiCGStab+ILU(0) — on a scaled Poisson system. Device cycles are
//! *identical* in both modes (the passes are cycle-neutral by contract,
//! asserted here); what changes is host wall-clock per solver iteration,
//! because the optimised plan dispatches fewer steps.
//!
//! Output: a small table on stdout and `results/compile_opt.json`
//! (override with `--out <path>`). `--scale <f>` grows the grid,
//! `--repeats <n>` takes the best of `n` timed runs per mode.

use std::rc::Rc;

use graphene_bench::{header, Args, Fingerprint};
use graphene_core::config::SolverConfig;
use graphene_core::runner::{solve_or_panic, SolveOptions, SolveResult};
use graphene_core::solvers::ExtendedPrecision;
use ipu_sim::model::IpuModel;
use json::Json;
use sparse::formats::CsrMatrix;
use sparse::gen::{poisson_3d_7pt, rhs_for_ones};

/// Best-of-`repeats` host seconds for one compile/execute mode.
fn run(
    optimise: bool,
    a: Rc<CsrMatrix>,
    b: &[f64],
    cfg: &SolverConfig,
    repeats: usize,
    rows_per_tile: usize,
) -> (SolveResult, f64) {
    let opts = SolveOptions {
        model: IpuModel::mk2(),
        rows_per_tile,
        // History callbacks also give the per-iteration denominator; their
        // host cost is identical across modes.
        record_history: true,
        optimise: Some(optimise),
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

fn mode_json(name: &str, r: &SolveResult, host_s: f64) -> Json {
    let iters = r.iterations.max(1) as f64;
    let compile = r.report.compile.as_ref().expect("runner stamps compile report");
    Json::obj(vec![
        ("mode", Json::from(name)),
        ("host_seconds", Json::from(host_s)),
        ("host_seconds_per_iteration", Json::from(host_s / iters)),
        ("iterations", Json::from(r.iterations as f64)),
        ("device_cycles", Json::from(r.stats.device_cycles() as f64)),
        ("source_steps", Json::from(compile.source_steps as f64)),
        ("plan_steps", Json::from(compile.plan_steps as f64)),
        ("compile", compile.to_value()),
    ])
}

fn main() {
    let args = Args::parse();
    let scale = args.get("--scale", 0.1);
    let repeats = args.get("--repeats", 3.0) as usize;
    // The paper-style fig8 runs use 32 rows/tile; finer partitions put
    // proportionally more vertices on the device.
    let rows_per_tile = args.get("--rows-per-tile", 16.0) as usize;
    let out = args.get_str("--out", "results/compile_opt.json");

    // 3-D 7-point Poisson, sides scaled from a 32^3 base grid.
    let n = ((32f64.powi(3) * scale).cbrt().round() as usize).max(8);
    let a = Rc::new(poisson_3d_7pt(n, n, n));
    let b = rhs_for_ones(&a);
    // The Figure 8 IPU configuration: MPIR(dw) { PBiCGStab(100) { ILU(0) } }.
    let cfg = SolverConfig::Mpir {
        inner: Box::new(SolverConfig::BiCgStab {
            max_iters: 100,
            rel_tol: 0.0,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        }),
        precision: ExtendedPrecision::DoubleWord,
        max_outer: 10,
        rel_tol: 1e-9,
    };

    header(&format!(
        "compile_opt: MPIR(dw)+PBiCGStab+ILU(0) on poisson {n}x{n}x{n} ({} rows, {} nnz)",
        a.nrows,
        a.nnz()
    ));

    let (r_opt, s_opt) = run(true, a.clone(), &b, &cfg, repeats, rows_per_tile);
    let (r_no, s_no) = run(false, a.clone(), &b, &cfg, repeats, rows_per_tile);

    // Cycle-neutrality contract: optimisation may only remove host
    // dispatch overhead, never simulated device work.
    assert_eq!(
        Fingerprint::of(&r_opt),
        Fingerprint::of(&r_no),
        "optimisation changed device semantics"
    );

    let iters = r_opt.iterations.max(1) as f64;
    fn report(r: &SolveResult) -> &profile::CompileReport {
        r.report.compile.as_ref().unwrap()
    }
    println!("mode\thost_s\thost_s/iter\tplan_steps");
    println!("optimised\t{s_opt:.4}\t{:.6}\t{}", s_opt / iters, report(&r_opt).plan_steps);
    println!("no_opt\t{s_no:.4}\t{:.6}\t{}", s_no / iters, report(&r_no).plan_steps);
    println!(
        "speedup vs no_opt: {:.2}x (device cycles identical: {})",
        s_no / s_opt,
        r_opt.stats.device_cycles()
    );
    print!("{}", report(&r_opt).render());

    let doc = Json::obj(vec![
        ("bin", Json::from("compile_opt")),
        ("grid", Json::from(n as f64)),
        ("rows", Json::from(a.nrows as f64)),
        ("nnz", Json::from(a.nnz() as f64)),
        ("rows_per_tile", Json::from(rows_per_tile as f64)),
        ("repeats", Json::from(repeats as f64)),
        ("device_cycles", Json::from(r_opt.stats.device_cycles() as f64)),
        ("cycle_identical", Json::from(true)),
        ("speedup_vs_no_opt", Json::from(s_no / s_opt)),
        (
            "modes",
            Json::arr(vec![
                mode_json("optimised", &r_opt, s_opt),
                mode_json("no_opt", &r_no, s_no),
            ]),
        ),
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
}
