//! Fault-class resilience sweep over the paper's solver stacks.
//!
//! For each fault class (`flip`, `xflip`, `xdrop`, `stall`) a set of
//! seeded single-fault plans — confined to the measured superstep span of
//! the healthy program — is injected into (a) the preconditioned
//! BiCGStab stack and (b) the flagship MPIR(double-word){PBiCGStab{ILU}}
//! stack. Every outcome is tallied against the resilience trichotomy
//! (converged | recovered | structured error) and every *accepted*
//! solution's residual is recomputed independently in f64: the
//! silent-data-corruption escape count must be zero, and the binary exits
//! nonzero otherwise.
//!
//! Also asserts the zero-overhead-when-off contract (a solve with the
//! inert default `RecoveryPolicy` is bit-identical to a plain solve) and
//! reports the mean device-cycle overhead of recovery per class.
//!
//! Output: a per-class table on stdout and `results/resilience.json`
//! (override with `--out <path>`). `--scale <f>` grows the grid,
//! `--seeds <n>` sets the number of seeded plans per (class, stack).

use std::rc::Rc;

use graphene_bench::{header, Args, Fingerprint};
use graphene_core::config::SolverConfig;
use graphene_core::runner::{solve, SolveOptions, TOLERANCE_SAFETY};
use graphene_core::{RecoveryPolicy, SolveStatus};
use ipu_sim::fault::FaultPlan;
use ipu_sim::model::IpuModel;
use json::Json;
use sparse::formats::CsrMatrix;
use sparse::gen::{poisson_2d_5pt, rhs_for_ones};

const CLASSES: [&str; 4] = ["flip", "xflip", "xdrop", "stall"];

/// Independent ground truth: ‖b − A·x‖/‖b‖ in f64.
fn true_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.spmv_alloc(x);
    let r2: f64 = b.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum();
    let b2: f64 = b.iter().map(|v| v * v).sum();
    r2.sqrt() / b2.sqrt().max(f64::MIN_POSITIVE)
}

#[derive(Default, Clone)]
struct ClassTally {
    cases: u32,
    fired: u32,
    converged: u32,
    recovered: u32,
    errored: u32,
    sdc_escapes: u32,
    total_attempts: u32,
    /// Σ resilience.total_device_cycles over all Ok cases.
    total_cycles: u64,
    ok_cases: u32,
}

fn main() {
    let args = Args::parse();
    let scale = args.get("--scale", 1.0);
    let seeds = args.get("--seeds", 5.0) as u64;
    let out = args.get_str("--out", "results/resilience.json");

    let n = ((16f64 * scale.sqrt()).round() as usize).max(8);
    let a = Rc::new(poisson_2d_5pt(n, n, 1.0));
    let b = rhs_for_ones(&a);
    header(&format!(
        "resilience: seeded fault sweep on poisson {n}x{n} ({} rows, {} nnz), {seeds} seeds/class",
        a.nrows,
        a.nnz()
    ));

    let stacks: Vec<(&str, SolverConfig, f64)> = vec![
        (
            "pbicgstab+ilu0",
            SolverConfig::BiCgStab {
                max_iters: 200,
                rel_tol: 1e-6,
                precond: Some(Box::new(SolverConfig::Ilu0 {})),
            },
            1e-6,
        ),
        (
            "mpir{pbicgstab+ilu0}",
            SolverConfig::from_json(
                r#"{"type":"mpir","precision":"double_word","max_outer":6,"rel_tol":1e-10,
                    "inner":{"type":"bi_cg_stab","max_iters":40,"rel_tol":0.0,
                             "precond":{"type":"ilu0"}}}"#,
            )
            .expect("valid stack"),
            1e-10,
        ),
    ];

    let opts = SolveOptions {
        model: IpuModel::tiny(4),
        tiles: Some(4),
        record_history: false,
        ..SolveOptions::default()
    };
    // The runner's judge admits true residuals up to tolerance x
    // TOLERANCE_SAFETY (the recursive-vs-true residual safety factor);
    // an accepted solution beyond that is an SDC escape.
    let safety = TOLERANCE_SAFETY;

    let mut stack_docs = Vec::new();
    let mut total_escapes = 0u32;

    for (stack_name, cfg, tol) in &stacks {
        // Healthy baseline: cycles for the overhead ratio, supersteps to
        // confine the seeded coordinates inside the program. A failure
        // here is a broken stack, not a fault-injection outcome — exit
        // nonzero with the structured error instead of panicking.
        let healthy = match solve(a.clone(), &b, cfg, &opts) {
            Ok(res) => res,
            Err(e) => {
                eprintln!("[{stack_name}] healthy baseline failed: {e}");
                std::process::exit(1);
            }
        };
        let smax = healthy.stats.supersteps().max(2);
        let healthy_cycles = healthy.stats.device_cycles();

        // Zero-overhead-when-off: the inert default policy must not
        // perturb the program at all.
        let off = solve(
            a.clone(),
            &b,
            cfg,
            &SolveOptions { recovery: Some(RecoveryPolicy::default()), ..opts.clone() },
        )
        .expect("policy-off solve");
        assert_eq!(
            Fingerprint::of(&healthy),
            Fingerprint::of(&off),
            "[{stack_name}] inert recovery policy perturbed the program"
        );
        assert!(off.report.resilience.is_none());

        println!("\n## {stack_name} (healthy: {healthy_cycles} cycles, {smax} supersteps)");
        println!("class\tcases\tfired\tconv\trecov\terror\tsdc\tavg_attempts\tcycle_overhead");

        let mut class_docs = Vec::new();
        for class in CLASSES {
            let mut t = ClassTally::default();
            for seed in 1..=seeds {
                let spec = format!("seed={seed};n=1;classes={class};smax={smax};wmax=16");
                let plan = FaultPlan::parse(&spec).expect("spec parses");
                let fopts = SolveOptions { faults: Some(plan), ..opts.clone() };
                t.cases += 1;
                match solve(a.clone(), &b, cfg, &fopts) {
                    Ok(res) => {
                        let resil =
                            res.report.resilience.clone().expect("faulted solve stamps resilience");
                        if !resil.faults_injected.is_empty() {
                            t.fired += 1;
                        }
                        t.total_attempts += resil.attempts;
                        t.total_cycles += resil.total_device_cycles;
                        t.ok_cases += 1;
                        let rel = true_residual(&a, &res.x, &b);
                        if rel > tol * safety {
                            eprintln!(
                                "[{stack_name}/{class}] seed {seed}: SDC escape! \
                                 accepted residual {rel:.3e} (bound {:.3e})",
                                tol * safety
                            );
                            t.sdc_escapes += 1;
                        }
                        match res.status {
                            SolveStatus::Converged => t.converged += 1,
                            SolveStatus::Recovered => t.recovered += 1,
                            SolveStatus::MaxIters => {
                                eprintln!(
                                    "[{stack_name}/{class}] seed {seed}: accepted MaxIters \
                                     under a resilient policy"
                                );
                                t.sdc_escapes += 1;
                            }
                        }
                    }
                    Err(e) => {
                        t.errored += 1;
                        t.total_attempts += 1;
                        println!("  ({class} seed {seed}: {e})");
                    }
                }
            }
            let avg_attempts =
                if t.ok_cases > 0 { t.total_attempts as f64 / t.cases as f64 } else { 1.0 };
            let overhead = if t.ok_cases > 0 {
                t.total_cycles as f64 / (t.ok_cases as u64 * healthy_cycles) as f64
            } else {
                f64::NAN
            };
            println!(
                "{class}\t{}\t{}\t{}\t{}\t{}\t{}\t{avg_attempts:.2}\t{overhead:.3}x",
                t.cases, t.fired, t.converged, t.recovered, t.errored, t.sdc_escapes
            );
            total_escapes += t.sdc_escapes;
            class_docs.push((
                class.to_string(),
                Json::obj(vec![
                    ("cases", Json::from(t.cases as f64)),
                    ("fired", Json::from(t.fired as f64)),
                    ("converged", Json::from(t.converged as f64)),
                    ("recovered", Json::from(t.recovered as f64)),
                    ("errored", Json::from(t.errored as f64)),
                    ("sdc_escapes", Json::from(t.sdc_escapes as f64)),
                    ("avg_attempts", Json::from(avg_attempts)),
                    ("cycle_overhead", Json::from(overhead)),
                ]),
            ));
        }
        stack_docs.push((
            stack_name.to_string(),
            Json::obj(vec![
                ("healthy_cycles", Json::from(healthy_cycles as f64)),
                ("supersteps", Json::from(smax as f64)),
                ("zero_overhead_when_off", Json::from(true)),
                ("classes", Json::Obj(class_docs)),
            ]),
        ));
    }

    let doc = Json::obj(vec![
        ("bin", Json::from("resilience")),
        ("grid", Json::from(n as f64)),
        ("rows", Json::from(a.nrows as f64)),
        ("nnz", Json::from(a.nnz() as f64)),
        ("seeds_per_class", Json::from(seeds as f64)),
        ("sdc_escapes_total", Json::from(total_escapes as f64)),
        ("stacks", Json::Obj(stack_docs)),
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

    assert_eq!(total_escapes, 0, "silent data corruption escaped the detectors");
    println!("\nno silently-wrong answer escaped ({} faulted runs)", {
        stacks.len() as u64 * CLASSES.len() as u64 * seeds
    });
}
