//! **perf_attrib** — plan-aware performance attribution on the paper's
//! headline solver stack (the fig8 configuration: IR-PBiCGStab+ILU(0)
//! with double-word MPIR).
//!
//! Runs the same solve on `ipu-sim` and `ipu-sim:fused`, hard-asserts the
//! attribution contract —
//!
//! * per-step cycles partition `device_cycles` with zero remainder,
//! * the attribution section and the device cycles of `ipu-sim:fused` are
//!   bit-identical to `ipu-sim`'s,
//!
//! — then prints the top steps by cycles with their imbalance and
//! roofline numbers, and writes `results/perf_attrib.json`.

use std::rc::Rc;

use backend::{BackendSpec, IpuVariant};
use graphene_bench::{header, Args};
use graphene_core::config::SolverConfig;
use graphene_core::runner::{solve_or_panic, SolveOptions};
use graphene_core::solvers::ExtendedPrecision;
use ipu_sim::model::IpuModel;
use json::Json;
use sparse::gen::suitesparse::{by_name, PAPER_MATRICES};

fn main() {
    let args = Args::parse();
    let scale = args.get("--scale", 0.004);
    let top_k = args.get("--top", 10.0) as usize;
    let info = &PAPER_MATRICES[0];
    header(&format!(
        "perf_attrib: per-step attribution of IR-PBiCGStab+ILU(0) on {} at scale {scale}",
        info.name
    ));

    let a = Rc::new(by_name(info.name, scale));
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
    let model = IpuModel::m2000();

    let run = |variant: IpuVariant| {
        let opts = SolveOptions {
            model: model.clone(),
            rows_per_tile: 32,
            backend: Some(BackendSpec::IpuSim(variant)),
            ..SolveOptions::default()
        };
        solve_or_panic(a.clone(), &b, &cfg, &opts)
    };

    let seq = run(IpuVariant::Default);

    // -- The attribution contract, hard-asserted on every run. ---------
    let perf = seq.report.perf.as_ref().expect("every run records attribution");
    assert_eq!(
        perf.steps_total(),
        seq.stats.device_cycles(),
        "per-step cycles must partition device_cycles exactly"
    );
    let fused = run(IpuVariant::Fused);
    assert_eq!(
        perf.attribution_json(),
        fused.report.perf.as_ref().expect("every run records attribution").attribution_json(),
        "ipu-sim:fused: attribution must be bit-identical to ipu-sim"
    );
    assert_eq!(
        seq.stats.device_cycles(),
        fused.stats.device_cycles(),
        "ipu-sim:fused: device cycles must be identical to ipu-sim"
    );

    println!(
        "rows\t{}\tnnz\t{}\titers\t{}\tdevice_cycles\t{}\tattributed\t{}",
        a.nrows,
        a.nnz(),
        seq.iterations,
        seq.stats.device_cycles(),
        perf.steps_total(),
    );
    print!("{}", perf.render(top_k));

    // -- results/perf_attrib.json: top-k steps by total cycles. --------
    let steps = Json::arr(perf.steps.iter().take(top_k).map(|s| {
        Json::obj([
            ("id", Json::from(s.id)),
            ("kind", Json::from(s.kind.as_str())),
            ("label", Json::from(s.label.as_str())),
            ("name", Json::from(s.name.as_str())),
            ("runs", Json::from(s.runs)),
            ("total_cycles", Json::from(s.total_cycles)),
            ("compute_cycles", Json::from(s.compute_cycles)),
            ("exchange_cycles", Json::from(s.exchange_cycles)),
            ("sync_cycles", Json::from(s.sync_cycles)),
            ("exchange_bytes", Json::from(s.exchange_bytes())),
            ("imbalance_pct", Json::from(s.imbalance_pct)),
            ("arithmetic_intensity", Json::from(s.arithmetic_intensity)),
            ("peak_pct", Json::from(s.peak_pct)),
        ])
    }));
    let t = &perf.totals;
    let doc = Json::obj([
        ("bin", Json::from("perf_attrib")),
        ("matrix", Json::from(info.name)),
        ("rows", Json::from(a.nrows)),
        ("nnz", Json::from(a.nnz())),
        ("iterations", Json::from(seq.iterations)),
        ("device_cycles", Json::from(seq.stats.device_cycles())),
        ("attributed_cycles", Json::from(perf.steps_total())),
        ("partition_exact", Json::from(true)),
        ("bit_identical_across_backends", Json::from(true)),
        (
            "speed_of_light",
            Json::obj([
                ("perfect_balance_cycles", Json::from(t.perfect_balance_cycles)),
                ("zero_exchange_cycles", Json::from(t.zero_exchange_cycles)),
                ("ideal_cycles", Json::from(t.ideal_cycles)),
            ]),
        ),
        ("top_steps", steps),
    ]);
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[graphene] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("perf_attrib.json");
    match std::fs::write(&path, doc.to_pretty()) {
        Ok(()) => eprintln!("[graphene] wrote {}", path.display()),
        Err(e) => eprintln!("[graphene] cannot write {}: {e}", path.display()),
    }
}
