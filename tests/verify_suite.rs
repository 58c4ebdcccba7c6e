//! The differential-oracle verification suite (tier-1).
//!
//! Every solver configuration in
//! `graphene_core::config::verification_suite()` is executed on the
//! simulated IPU and compared against a host-side dense f64 LU oracle on
//! at least three generated matrix families; simulator invariants
//! (double-run bit determinism, label balance, exchange-byte
//! conservation) and MatrixMarket round-trips ride along.
//!
//! Case counts for the randomised properties scale with
//! `GRAPHENE_VERIFY_CASES` (default keeps `cargo test -q` within its
//! budget); the differential matrix set is fixed.

use std::rc::Rc;

use graphene::graphene_core::config::SolverConfig;
use graphene::sparse::gen::{poisson_2d_5pt, rhs_for_ones};
use graphene::sparse::io::{read_matrix_market, write_matrix_market_with, MmSymmetry};
use verify::differential::{all_case_names, check_cases, run_two_grid};
use verify::generators;
use verify::invariants::{assert_deterministic, audit_exchange_conservation};
use verify::resilience::{
    assert_fault_trichotomy, assert_faulted_determinism, assert_zero_overhead_when_off,
};

// ---- differential suite, sharded for test-runner parallelism ----------

const KRYLOV: &[&str] = &["cg", "cg+ilu0", "bicgstab", "bicgstab+ilu0", "bicgstab+gauss_seidel"];
const SMOOTHERS: &[&str] = &["jacobi", "gauss_seidel", "chebyshev"];
const MPIR: &[&str] = &["mpir-working", "mpir-double_word", "mpir-emulated_f64"];

#[test]
fn differential_krylov() {
    let outcomes = check_cases(KRYLOV);
    assert!(outcomes.len() >= KRYLOV.len() * 3);
}

#[test]
fn differential_smoothers() {
    let outcomes = check_cases(SMOOTHERS);
    assert!(outcomes.len() >= SMOOTHERS.len() * 3);
}

#[test]
fn differential_mpir() {
    let outcomes = check_cases(MPIR);
    assert!(outcomes.len() >= MPIR.len() * 3);
    // The extended-precision configs must actually beat the working-
    // precision f32 floor (the paper's central claim, Figs 9/10).
    for o in &outcomes {
        if o.case == "mpir-double_word" || o.case == "mpir-emulated_f64" {
            assert!(o.residual < 1e-10, "[{}/{}] residual {:.3e}", o.case, o.family, o.residual);
        }
    }
}

/// The shards above must cover the whole suite: a configuration added to
/// `verification_suite()` without a home here fails this test.
#[test]
fn differential_shards_cover_suite() {
    let mut sharded: Vec<&str> = [KRYLOV, SMOOTHERS, MPIR].concat();
    sharded.sort_unstable();
    let mut all = all_case_names();
    all.sort_unstable();
    assert_eq!(sharded, all, "suite entries not covered by a differential shard");
}

/// Multigrid is structured-grid-only and not expressible as a
/// `SolverConfig`; verify the hand-driven V(2,2) two-grid cycle against
/// the same oracle.
#[test]
fn differential_two_grid() {
    let (residual, forward) = run_two_grid(6);
    assert!(residual < 5e-3, "two-grid residual {residual:.3e}");
    assert!(forward < 5e-2, "two-grid forward error {forward:.3e}");
}

// ---- simulator invariants ---------------------------------------------

#[test]
fn double_runs_are_bit_identical() {
    let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
    let b = rhs_for_ones(&a);
    for cfg in [
        SolverConfig::BiCgStab {
            max_iters: 30,
            rel_tol: 1e-6,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        },
        SolverConfig::paper_default(20, 3, 1e-12),
    ] {
        let rep = assert_deterministic(a.clone(), &b, &cfg);
        assert!(rep.device_cycles > 0);
    }
}

/// Every vertex of every configuration in the verification suite, and of
/// the four stacks the host benchmark replays (fig8's MPIR{BiCGStab{ILU0}}
/// in double-word, heat's CG, symmetric Gauss-Seidel, damped Jacobi), builds:
/// a DSL change that builds a codelet the lowering cannot type is a compile
/// error (`SolveError::Compile`), and `solve_or_panic` fails here.
///
/// Of the four benchmark stacks, exactly so many vertices also run an inner
/// loop as one accumulate instruction: on four tiles, four per compute set
/// of SpMV (all but MPIR's double-word residual, which casts its f32
/// values), ILU(0) substitution, Gauss-Seidel row update or dot / norm stage
/// one, and one per sum of partials. A DSL change that breaks the pattern
/// runs those loops a trip at a time — correct, ≈1.4× slower — and fails
/// here instead. And exactly so many run an element-wise map (`x + p·α`, a
/// copy, a zero fill) as one map instruction, a column at a time: not the
/// scalar maps that read what they store (`iter + 1`), select, compare or
/// cast. And exactly so many run as one kernel instruction, per family:
/// every f32 SpMV and SpMV residual, fig8's ILU(0) forward and backward
/// sweeps, SGS's Gauss-Seidel row updates, and every f32 reduction's dot /
/// norm stage and sums, whose loops the looped count still holds. The looped
/// vertices that are no kernel are fig8's four double-word dot stages of
/// MPIR's outer loop; heat, SGS and Jacobi have none.
#[test]
fn every_solver_vertex_is_lowered() {
    use graphene::graphene_core::runner::{solve_or_panic, SolveOptions};
    use graphene::graphene_core::solvers::ExtendedPrecision;

    let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
    let b = rhs_for_ones(&a);
    let opts = SolveOptions {
        model: graphene::dsl::prelude::IpuModel::tiny(4),
        tiles: Some(4),
        ..SolveOptions::default()
    };
    let suite = graphene::graphene_core::config::verification_suite();
    // A benchmark stack's `vertices_looped`, `vertices_mapped` and
    // `vertices_kernel`, the last per kernel family.
    type Pinned = Option<(u64, u64, &'static [(&'static str, u64)])>;
    const FIG8_KERNELS: &[(&str, u64)] = &[
        ("backward_subst_div", 8),
        ("dot", 20),
        ("dot_square", 16),
        ("forward_subst", 8),
        ("spmv", 8),
        ("spmv_residual", 4),
        ("sum", 9),
    ];
    let mut stacks: Vec<(&str, SolverConfig, Pinned)> =
        suite.into_iter().map(|case| (case.name, case.config, None)).collect();
    stacks.extend([
        (
            "fig8",
            SolverConfig::Mpir {
                inner: Box::new(SolverConfig::BiCgStab {
                    max_iters: 20,
                    rel_tol: 0.0,
                    precond: Some(Box::new(SolverConfig::Ilu0 {})),
                }),
                precision: ExtendedPrecision::DoubleWord,
                max_outer: 4,
                rel_tol: 1e-9,
            },
            Some((77, 31, FIG8_KERNELS)),
        ),
        (
            "heat",
            SolverConfig::Cg { max_iters: 100, rel_tol: 1e-6, precond: None },
            Some((
                38,
                14,
                &[("dot", 12), ("dot_square", 12), ("spmv", 4), ("spmv_residual", 4), ("sum", 6)],
            )),
        ),
        (
            "sgs",
            SolverConfig::GaussSeidel { sweeps: 1, symmetric: true, rel_tol: 0.0 },
            Some((8, 0, &[("gauss_seidel", 8)])),
        ),
        (
            "jacobi",
            SolverConfig::Jacobi { sweeps: 2, omega: 2.0 / 3.0 },
            Some((4, 4, &[("spmv_residual", 4)])),
        ),
    ]);
    for (name, config, pinned) in stacks {
        let res = solve_or_panic(a.clone(), &b, &config, &opts);
        let compile = res.report.compile.as_ref().expect("compile report present");
        let sel = compile.pass("native-kernel-selection").expect("selection stamped");
        let total = sel.counter("vertices_total");
        assert!(total > 0, "[{name}] no vertices");
        if let Some((looped, mapped, kernels)) = pinned {
            assert_eq!(sel.counter("vertices_looped"), looped, "[{name}] of {total}");
            assert_eq!(sel.counter("vertices_mapped"), mapped, "[{name}] of {total}");
            let kernel: u64 = kernels.iter().map(|(_, n)| n).sum();
            assert_eq!(sel.counter("vertices_kernel"), kernel, "[{name}] of {total}");
            let families: Vec<(&str, u64)> = sel
                .counters
                .iter()
                .filter_map(|(k, n)| Some((k.strip_prefix("kernel.")?, *n)))
                .collect();
            assert_eq!(families, kernels, "[{name}] kernel families");
        }
    }
}

/// Auto-tuning must preserve the determinism contract: a plan-cache hit,
/// run on an engine of its own, reproduces the cold-tune solve bit for bit
/// and cycle for cycle, per label and per phase.
#[test]
fn tuned_solves_hit_the_cache_and_stay_engine_equivalent() {
    use graphene::graphene_core::runner::{solve_or_panic, SolveOptions, SolveResult};

    let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
    let b = rhs_for_ones(&a);
    let cfg = SolverConfig::BiCgStab {
        max_iters: 50,
        rel_tol: 1e-6,
        precond: Some(Box::new(SolverConfig::Ilu0 {})),
    };
    let cache = std::env::temp_dir().join(format!("graphene-verify-tune-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let base = SolveOptions {
        model: graphene::dsl::prelude::IpuModel::tiny(4),
        tiles: Some(4),
        tune: Some(true),
        tune_cache: Some(cache.clone()),
        ..SolveOptions::default()
    };

    let pass = |r: &SolveResult, key: &str| {
        r.report
            .compile
            .as_ref()
            .and_then(|c| c.pass("graphene-tune"))
            .expect("tuned solve stamps graphene-tune")
            .counter(key)
    };
    // Cold tune, then a warm solve that must come from the cache with the
    // search skipped entirely...
    let cold = solve_or_panic(a.clone(), &b, &cfg, &base);
    assert_eq!(pass(&cold, "cache_hit"), 0);
    assert!(pass(&cold, "candidates_scored") > 0);
    let warm = solve_or_panic(a.clone(), &b, &cfg, &base);
    assert_eq!(pass(&warm, "cache_hit"), 1);
    assert_eq!(pass(&warm, "candidates_scored"), 0);
    // ...and be bit-identical to it.
    let cb: Vec<u64> = cold.x.iter().map(|v| v.to_bits()).collect();
    let wb: Vec<u64> = warm.x.iter().map(|v| v.to_bits()).collect();
    assert_eq!(cb, wb, "cache hit diverged from the cold tune");
    assert_eq!(cold.stats.device_cycles(), warm.stats.device_cycles());
    assert_eq!(cold.stats.exchange_bytes(), warm.stats.exchange_bytes());
    assert_eq!(cold.stats.labels_by_phase_sorted(), warm.stats.labels_by_phase_sorted());
    let _ = std::fs::remove_dir_all(&cache);
}

// ---- fault-injection resilience ---------------------------------------

/// Under seeded single-fault plans the outcome is exactly one of
/// {converged, recovered, structured error} — the accepted residual is
/// recomputed independently in f64, so a silently-corrupted answer cannot
/// pass. Case count scales with `GRAPHENE_VERIFY_CASES`.
#[test]
fn seeded_faults_never_yield_silently_wrong_answers() {
    let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
    let b = rhs_for_ones(&a);
    let cfg = SolverConfig::BiCgStab {
        max_iters: 200,
        rel_tol: 1e-6,
        precond: Some(Box::new(SolverConfig::Ilu0 {})),
    };
    let cases = verify::cases_from_env(12) as u64;
    let rep = assert_fault_trichotomy(a, &b, &cfg, 1e-6, 1..=cases);
    assert_eq!(rep.cases as u64, cases);
    assert!(rep.faults_fired > 0, "sweep never fired a fault: {rep:?}");
}

/// A faulted solve replays bit-identically across runs and across every
/// engine option, and the machinery costs nothing when off.
#[test]
fn faulted_solves_are_deterministic_and_free_when_off() {
    let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
    let b = rhs_for_ones(&a);
    let cfg = SolverConfig::BiCgStab {
        max_iters: 200,
        rel_tol: 1e-6,
        precond: Some(Box::new(SolverConfig::Ilu0 {})),
    };
    assert_faulted_determinism(
        a.clone(),
        &b,
        &cfg,
        "seed=5;n=2;classes=flip+xflip+xdrop+stall;smax=250;wmax=16",
    );
    assert_faulted_determinism(a.clone(), &b, &cfg, "flip@s60.t1:w5.b30;stall@s10.t0:c500");
    assert_zero_overhead_when_off(a, &b, &cfg);
}

#[test]
fn exchange_bytes_are_conserved() {
    let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
    let b = rhs_for_ones(&a);
    for cfg in [
        SolverConfig::BiCgStab { max_iters: 10, rel_tol: 0.0, precond: None },
        SolverConfig::Jacobi { sweeps: 12, omega: 2.0 / 3.0 },
        SolverConfig::GaussSeidel { sweeps: 6, symmetric: true, rel_tol: 0.0 },
    ] {
        let audit = audit_exchange_conservation(a.clone(), &b, &cfg);
        assert!(audit.exchange_steps > 0);
        assert_eq!(audit.traced_bytes, audit.stats_bytes);
    }
}

// ---- MatrixMarket round-trips over generated matrices -----------------

fn roundtrip(a: &graphene::sparse::formats::CsrMatrix, symmetry: MmSymmetry) {
    let mut buf = Vec::new();
    write_matrix_market_with(&mut buf, a, symmetry).expect("matrix matches requested symmetry");
    let back = read_matrix_market(&buf[..]).expect("written file parses");
    assert_eq!(a, &back, "round-trip through {symmetry:?} storage changed the matrix");
}

#[test]
fn matrix_market_roundtrips_general() {
    let cases = verify::cases_from_env(12) as u64;
    for seed in 0..cases {
        let a =
            generators::random_general(6 + (seed as usize % 9), 5 + (seed as usize % 7), 24, seed);
        roundtrip(&a, MmSymmetry::General);
    }
}

#[test]
fn matrix_market_roundtrips_symmetric() {
    let cases = verify::cases_from_env(12) as u64;
    for seed in 0..cases {
        let a = generators::random_symmetric(10 + (seed as usize % 8), 3, seed);
        roundtrip(&a, MmSymmetry::Symmetric);
    }
}

#[test]
fn matrix_market_roundtrips_skew_symmetric() {
    let cases = verify::cases_from_env(12) as u64;
    for seed in 0..cases {
        let a = generators::random_skew(10 + (seed as usize % 8), 3, seed);
        roundtrip(&a, MmSymmetry::SkewSymmetric);
    }
}
