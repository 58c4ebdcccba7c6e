//! **tune_cache** — gate for the cost-model auto-tuner and its persistent
//! plan cache (`GRAPHENE_TUNE`, see DESIGN.md §14).
//!
//! Runs the fig8-class solve (IR-PBiCGStab+ILU(0) with double-word MPIR,
//! the budget_check workload) with tuning enabled against a dedicated
//! plan-cache directory, and gates on the tuner's whole contract:
//!
//! 1. the tuned plan's modelled probe cycles are no worse than the
//!    default heuristic's (the default candidate is always in the search
//!    space, so the argmin can only tie or win);
//! 2. the second solve is a **cache hit**: zero candidates scored, and
//!    the solve it produces is bit-identical to the cold-tuned one —
//!    loading a plan must be indistinguishable from searching for it.
//!
//! `--expect-hit` additionally requires the *first* solve to already hit
//! the cache (the CI second invocation); `--cache <dir>` overrides the
//! cache directory (default: `GRAPHENE_TUNE_CACHE`, else `.graphene-cache`,
//! as for any tuned solve). Output: a table on stdout and `results/tune.json`
//! (override with `--out <path>`).

use std::rc::Rc;

use backend::BackendSpec;
use graphene_bench::{header, Args, Fingerprint};
use graphene_core::config::SolverConfig;
use graphene_core::env::EnvConfig;
use graphene_core::runner::{solve_or_panic, SolveOptions, SolveResult};
use graphene_core::solvers::ExtendedPrecision;
use ipu_sim::model::IpuModel;
use json::Json;
use profile::PassStat;

fn tune_pass(r: &SolveResult) -> PassStat {
    r.report
        .compile
        .as_ref()
        .and_then(|c| c.pass("graphene-tune"))
        .expect("tuned solve stamps the graphene-tune pass into its compile report")
        .clone()
}

fn main() {
    let args = Args::parse();
    let scale = args.get("--scale", 0.002);
    let expect_hit = args.has("--expect-hit");
    let out = args.get_str("--out", "results/tune.json");
    let cache_default = EnvConfig::tune_cache();
    let cache = std::path::PathBuf::from(args.get_str("--cache", &cache_default.to_string_lossy()));

    // The budget_check fig8 workload: MPIR(dw) { PBiCGStab(100) { ILU(0) } }.
    let a = Rc::new(sparse::gen::suitesparse::by_name("G3_circuit", scale));
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
        "tune_cache: fig8-class MPIR solve on G3_circuit@{scale} ({} rows, {} nnz), cache {}",
        a.nrows,
        a.nnz(),
        cache.display()
    ));

    let tuned_opts = SolveOptions {
        model: IpuModel::m2000(),
        rows_per_tile: 32,
        record_history: true,
        backend: Some(BackendSpec::IpuSim),
        tune: Some(true),
        tune_cache: Some(cache.clone()),
        ..SolveOptions::default()
    };

    // -- 1st solve: cold tune (or a hit, when the cache is pre-warmed). --
    let r1 = solve_or_panic(a.clone(), &b, &cfg, &tuned_opts);
    let p1 = tune_pass(&r1);
    println!(
        "run1: cache_hit={} candidates={} modelled={} default={} rpt={} tiles={} search_us={}",
        p1.counter("cache_hit"),
        p1.counter("candidates_scored"),
        p1.counter("modelled_cycles"),
        p1.counter("default_cycles"),
        p1.counter("rows_per_tile"),
        p1.counter("tiles"),
        p1.counter("search_micros"),
    );
    if expect_hit && p1.counter("cache_hit") != 1 {
        eprintln!("--expect-hit: first solve missed the cache (was it cleared?)");
        std::process::exit(1);
    }
    if !expect_hit && p1.counter("cache_hit") != 0 {
        eprintln!("first solve unexpectedly hit the cache — stale cache dir? pass --expect-hit");
        std::process::exit(1);
    }

    // Gate 1: the search can only tie or beat the default heuristic.
    if p1.counter("modelled_cycles") > p1.counter("default_cycles") {
        eprintln!(
            "tuned plan ({} modelled cycles) is worse than the default heuristic ({})",
            p1.counter("modelled_cycles"),
            p1.counter("default_cycles")
        );
        std::process::exit(1);
    }

    // -- 2nd solve: must hit, score nothing, and reproduce run1 exactly. --
    let r2 = solve_or_panic(a.clone(), &b, &cfg, &tuned_opts);
    let p2 = tune_pass(&r2);
    println!(
        "run2: cache_hit={} candidates={} search_us={}",
        p2.counter("cache_hit"),
        p2.counter("candidates_scored"),
        p2.counter("search_micros"),
    );
    if p2.counter("cache_hit") != 1 || p2.counter("candidates_scored") != 0 {
        eprintln!("second solve did not hit the plan cache");
        std::process::exit(1);
    }
    if Fingerprint::of(&r1) != Fingerprint::of(&r2) {
        eprintln!("cache hit is not bit-identical to the cold tune — determinism violation");
        std::process::exit(1);
    }

    // -- Informational: the untuned solve on the same stack. ------------
    let untuned = solve_or_panic(
        a.clone(),
        &b,
        &cfg,
        &SolveOptions {
            model: IpuModel::m2000(),
            rows_per_tile: 32,
            record_history: true,
            tune: Some(false),
            ..SolveOptions::default()
        },
    );
    println!("metric\tuntuned\ttuned");
    println!("device_cycles\t{}\t{}", untuned.stats.device_cycles(), r1.stats.device_cycles());
    println!("iterations\t{}\t{}", untuned.iterations, r1.iterations);
    println!(
        "modelled probe cycles: tuned {} vs default {} ({}x)",
        p1.counter("modelled_cycles"),
        p1.counter("default_cycles"),
        p1.counter("default_cycles") as f64 / p1.counter("modelled_cycles").max(1) as f64
    );

    let strategy = p1
        .counters
        .iter()
        .find(|(k, _)| k.starts_with("strategy."))
        .map(|(k, _)| k["strategy.".len()..].to_string())
        .unwrap_or_default();
    let doc = Json::obj(vec![
        ("bin", Json::from("tune_cache")),
        ("matrix", Json::from("G3_circuit")),
        ("scale", Json::from(scale)),
        ("rows", Json::from(a.nrows as f64)),
        ("nnz", Json::from(a.nnz() as f64)),
        ("expect_hit", Json::from(expect_hit)),
        ("run1_cache_hit", Json::from(p1.counter("cache_hit"))),
        ("run2_cache_hit", Json::from(p2.counter("cache_hit"))),
        ("candidates_scored", Json::from(p1.counter("candidates_scored"))),
        ("modelled_cycles", Json::from(p1.counter("modelled_cycles"))),
        ("default_cycles", Json::from(p1.counter("default_cycles"))),
        ("strategy", Json::from(strategy.as_str())),
        ("rows_per_tile", Json::from(p1.counter("rows_per_tile"))),
        ("tiles", Json::from(p1.counter("tiles"))),
        ("search_micros_cold", Json::from(p1.counter("search_micros"))),
        ("search_micros_hit", Json::from(p2.counter("search_micros"))),
        ("untuned_device_cycles", Json::from(untuned.stats.device_cycles())),
        ("tuned_device_cycles", Json::from(r1.stats.device_cycles())),
        ("untuned_iterations", Json::from(untuned.iterations)),
        ("tuned_iterations", Json::from(r1.iterations)),
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
