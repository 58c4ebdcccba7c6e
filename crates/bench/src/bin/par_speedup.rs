//! Host-schedule speedup check — `ipu-sim` (one host thread) vs
//! `ipu-sim:par` (tile-parallel), same lowered-form dispatch.
//!
//! Runs the *same* solve under both, asserts that every observable
//! (solution bits, device cycles, exchanged bytes, superstep and sync
//! counts, per-label splits) is identical, and reports the host
//! wall-clock for each. On a multi-core
//! runner the tile-parallel schedule should win; on a single-core box the
//! numbers are informational only, so this binary never fails on a
//! missing speedup — only on a determinism violation.
//!
//! Output: a small table on stdout and `results/par_speedup.json`
//! (override with `--out <path>`). `--scale <f>` grows the grid,
//! `--repeats <n>` takes the best of `n` timed runs per backend.

use std::rc::Rc;

use backend::{BackendSpec, IpuVariant};
use graphene_bench::{header, Args, Fingerprint};
use graphene_core::config::SolverConfig;
use graphene_core::runner::{solve_or_panic, SolveOptions, SolveResult};
use ipu_sim::model::IpuModel;
use json::Json;
use sparse::formats::CsrMatrix;
use sparse::gen::{poisson_3d_7pt, rhs_for_ones};

/// Best-of-`repeats` host seconds for one `ipu-sim` variant (plus the last
/// result for fingerprinting — every repeat is bit-identical by
/// construction).
fn run(
    variant: IpuVariant,
    a: Rc<CsrMatrix>,
    b: &[f64],
    cfg: &SolverConfig,
    repeats: usize,
) -> (SolveResult, f64) {
    let opts = SolveOptions {
        model: IpuModel::mk2(),
        record_history: false,
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

fn main() {
    let args = Args::parse();
    let scale = args.get("--scale", 0.35);
    let repeats = args.get("--repeats", 3.0) as usize;
    let out = args.get_str("--out", "results/par_speedup.json");

    // 3-D 7-point Poisson, sides scaled from a 32^3 base grid.
    let n = ((32f64.powi(3) * scale).cbrt().round() as usize).max(8);
    let a = Rc::new(poisson_3d_7pt(n, n, n));
    let b = rhs_for_ones(&a);
    let cfg = SolverConfig::BiCgStab { max_iters: 30, rel_tol: 1e-8, precond: None };

    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    header(&format!(
        "par_speedup: BiCgStab on poisson {n}x{n}x{n} ({} rows, {} nnz), {threads} host cores",
        a.nrows,
        a.nnz()
    ));

    let (rs, seq_s) = run(IpuVariant::Default, a.clone(), &b, &cfg, repeats);
    let (rp, par_s) = run(IpuVariant::Par, a.clone(), &b, &cfg, repeats);

    // Determinism contract: nothing observable may differ.
    assert_eq!(Fingerprint::of(&rs), Fingerprint::of(&rp), "ipu-sim:par disagrees with ipu-sim");

    let speedup = seq_s / par_s;
    println!("backend\thost_s\tdevice_cycles");
    println!("ipu-sim\t{seq_s:.4}\t{}", rs.stats.device_cycles());
    println!("ipu-sim:par\t{par_s:.4}\t{}", rp.stats.device_cycles());
    println!("speedup\t{speedup:.2}x\t(threads={threads})");

    let doc = Json::obj(vec![
        ("bin", Json::from("par_speedup")),
        ("grid", Json::from(n as f64)),
        ("rows", Json::from(rs.x.len() as f64)),
        ("nnz", Json::from(a.nnz() as f64)),
        ("threads", Json::from(threads as f64)),
        ("repeats", Json::from(repeats as f64)),
        ("host_seconds", Json::from(seq_s)),
        ("par_host_seconds", Json::from(par_s)),
        ("speedup", Json::from(speedup)),
        ("device_cycles", Json::from(rs.stats.device_cycles() as f64)),
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
}
