//! **budget_check** — the cycle-budget regression gate.
//!
//! Re-runs a fixed fig5-style SpMV, a fixed fig8-style solve, a CG solve
//! and a symmetric Gauss-Seidel sweep and compares their device-cycle totals (plus per-iteration host dispatch,
//! informational) against the committed `results/baselines.json`. Device
//! cycles are bit-deterministic, so any drift is a real cost-model or
//! compiler change: the gate fails when a measurement regresses beyond
//! the tolerance (`--tol`, default 1%). Improvements beyond tolerance
//! also fail — they mean the committed budget is stale and must be
//! re-blessed, keeping the baseline honest in both directions.
//!
//! Knobs:
//!
//! * `GRAPHENE_BUDGET_BLESS=1` — rewrite `results/baselines.json` with
//!   the measured numbers instead of checking (use after an intentional
//!   cost change, and commit the diff): the one way to land one;
//! * `--tol 0.05` — widen the relative tolerance.
//!
//! The gate has no switch that turns a failure into a warning: the removed
//! override variable, set, stops it with a message naming
//! `GRAPHENE_BUDGET_BLESS` before it measures anything (exit 2, as for a
//! missing baseline).
//!
//! Host dispatch seconds vary with the runner's hardware, so they are
//! recorded in the baseline for context but never gate.

use std::rc::Rc;

use graphene_bench::{header, ipu_friendly_grid, measure_spmv, Args};
use graphene_core::config::SolverConfig;
use graphene_core::env::EnvConfig;
use graphene_core::runner::{solve_or_panic, SolveOptions, SolveResult};
use graphene_core::solvers::ExtendedPrecision;
use ipu_sim::model::IpuModel;
use json::Json;
use sparse::gen::poisson_3d_7pt;
use sparse::gen::suitesparse::by_name;

const BASELINE_PATH: &str = "results/baselines.json";

/// The variable that used to let a failing gate pass.
const REMOVED_OVERRIDE: &str = "GRAPHENE_BUDGET_OVERRIDE";

struct Measurement {
    name: &'static str,
    device_cycles: u64,
    iterations: u64,
    host_seconds_per_iter: f64,
}

fn measure() -> Vec<Measurement> {
    // fig5-style: SpMV with halo exchange on a fixed Poisson grid.
    let grid = ipu_friendly_grid(40_000);
    let a = Rc::new(poisson_3d_7pt(grid.nx, grid.ny, grid.nz));
    let model = IpuModel::with_ipus(1);
    let spmv = measure_spmv(a, &model, Some(grid), true);

    // fig8-style: IR-PBiCGStab+ILU(0) with double-word MPIR on the
    // paper's first matrix, small scale.
    let a = Rc::new(by_name("G3_circuit", 0.002));
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
    let opts =
        SolveOptions { model: IpuModel::m2000(), rows_per_tile: 32, ..SolveOptions::default() };
    let solve = solve_or_panic(a, &b, &cfg, &opts);

    // The heat workload's shape: unpreconditioned CG and one symmetric
    // Gauss-Seidel sweep on a small 3-D Poisson, 64 rows per Mk2 tile.
    let a = Rc::new(poisson_3d_7pt(12, 12, 12));
    let b = sparse::gen::random_vector(a.nrows, 8);
    let opts =
        SolveOptions { model: IpuModel::mk2(), rows_per_tile: 64, ..SolveOptions::default() };
    let cg = SolverConfig::Cg { max_iters: 50, rel_tol: 0.0, precond: None };
    let cg = solve_or_panic(a.clone(), &b, &cg, &opts);
    let sgs = SolverConfig::GaussSeidel { sweeps: 1, symmetric: true, rel_tol: 0.0 };
    let sgs = solve_or_panic(a, &b, &sgs, &opts);
    let solved = |name, s: &SolveResult| Measurement {
        name,
        device_cycles: s.stats.device_cycles(),
        iterations: s.iterations.max(1) as u64,
        host_seconds_per_iter: s.report.host_seconds / s.iterations.max(1) as f64,
    };

    vec![
        Measurement {
            name: "fig5_spmv",
            device_cycles: spmv.total_cycles,
            iterations: 1,
            host_seconds_per_iter: 0.0,
        },
        Measurement {
            name: "fig8_solve",
            device_cycles: solve.stats.device_cycles(),
            iterations: solve.iterations.max(1) as u64,
            host_seconds_per_iter: solve.report.host_seconds / solve.iterations.max(1) as f64,
        },
        solved("heat_cg", &cg),
        solved("sgs_solve", &sgs),
    ]
}

fn to_json(ms: &[Measurement]) -> Json {
    Json::obj([
        ("bin", Json::from("budget_check")),
        (
            "budgets",
            Json::Obj(
                ms.iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj([
                                ("device_cycles", Json::from(m.device_cycles)),
                                ("iterations", Json::from(m.iterations)),
                                ("host_seconds_per_iter", Json::from(m.host_seconds_per_iter)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// An on/off variable through the one flag grammar; a typo stops the gate
/// rather than reading as "off".
fn env_on(key: &str) -> bool {
    EnvConfig::flag(key).unwrap_or_else(|e| panic!("{e}")) == Some(true)
}

fn main() {
    if EnvConfig::text(REMOVED_OVERRIDE).is_some() {
        eprintln!(
            "{REMOVED_OVERRIDE} was removed: the budget gate no longer passes a failing check. \
             Unset it; for an intentional cycle change, rerun with GRAPHENE_BUDGET_BLESS=1 and \
             commit the new {BASELINE_PATH}."
        );
        std::process::exit(2);
    }
    let args = Args::parse();
    let tol = args.get("--tol", 0.01);
    header(&format!("budget_check: device-cycle regression gate (tolerance {:.1}%)", tol * 100.0));
    let measured = measure();

    if env_on("GRAPHENE_BUDGET_BLESS") {
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write(BASELINE_PATH, to_json(&measured).to_pretty()).expect("write baselines");
        println!("blessed {} budgets into {BASELINE_PATH}", measured.len());
        for m in &measured {
            println!("  {}\tdevice_cycles={}\titers={}", m.name, m.device_cycles, m.iterations);
        }
        return;
    }

    let text = match std::fs::read_to_string(BASELINE_PATH) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "cannot read {BASELINE_PATH}: {e}\nrun with GRAPHENE_BUDGET_BLESS=1 to create it"
            );
            std::process::exit(2);
        }
    };
    let baseline = Json::parse(&text).expect("baselines.json parses");
    let budgets = baseline.get("budgets").expect("baselines.json has 'budgets'");

    println!("check\tbaseline\tmeasured\tdelta\tverdict");
    let mut failures = 0u32;
    for m in &measured {
        let Some(base) = budgets.get(m.name) else {
            println!("{}\t-\t{}\t-\tNEW (re-bless to record)", m.name, m.device_cycles);
            failures += 1;
            continue;
        };
        let base_cycles = base.get("device_cycles").and_then(Json::as_u64).unwrap_or(0);
        let delta = m.device_cycles as f64 / base_cycles.max(1) as f64 - 1.0;
        let ok = delta.abs() <= tol;
        println!(
            "{}\t{}\t{}\t{:+.3}%\t{}",
            m.name,
            base_cycles,
            m.device_cycles,
            delta * 100.0,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failures += 1;
        }
        // Host dispatch: informational only (hardware-dependent).
        let base_host = base.get("host_seconds_per_iter").and_then(Json::as_f64).unwrap_or(0.0);
        if base_host > 0.0 && m.host_seconds_per_iter > 0.0 {
            println!(
                "{}.host_dispatch\t{:.6}s\t{:.6}s\t{:+.1}%\tinfo",
                m.name,
                base_host,
                m.host_seconds_per_iter,
                (m.host_seconds_per_iter / base_host - 1.0) * 100.0
            );
        }
    }

    if failures > 0 {
        println!(
            "{failures} budget check(s) failed beyond {:.1}% tolerance.\n\
             If the cycle change is intentional, rerun with GRAPHENE_BUDGET_BLESS=1 and commit \
             the new {BASELINE_PATH}.",
            tol * 100.0
        );
        std::process::exit(1);
    }
    println!("all budgets within tolerance");
}
