//! End-to-end integration tests: the full pipeline from host matrix to
//! device solution, across solver configurations, precisions, matrices
//! and machine sizes — and cross-checked against the native f64 CPU
//! baseline.

use std::rc::Rc;

use graphene::baselines::cpu::CpuSolver;
use graphene::graphene_core::config::SolverConfig;
use graphene::graphene_core::runner::{solve_or_panic, SolveOptions};
use graphene::graphene_core::solvers::ExtendedPrecision;
use graphene::ipu_sim::IpuModel;
use graphene::sparse::gen;

fn opts(tiles: usize) -> SolveOptions {
    SolveOptions { model: IpuModel::tiny(tiles), tiles: Some(tiles), ..SolveOptions::default() }
}

fn bicgstab_ilu(max_iters: u32, tol: f32) -> SolverConfig {
    SolverConfig::BiCgStab {
        max_iters,
        rel_tol: tol,
        precond: Some(Box::new(SolverConfig::Ilu0 {})),
    }
}

#[test]
fn device_solution_matches_cpu_baseline() {
    let a = Rc::new(gen::poisson_2d_5pt(14, 14, 1.0));
    let b = gen::random_vector(a.nrows, 3);
    let dev = solve_or_panic(a.clone(), &b, &bicgstab_ilu(300, 1e-7), &opts(4));
    let mut x_cpu = vec![0.0; a.nrows];
    CpuSolver::new(1000, 1e-12, true).solve(&a, &b, &mut x_cpu);
    // Both solve (nearly) the same system; agreement limited by the f32
    // device data.
    let num: f64 = dev.x.iter().zip(&x_cpu).map(|(a, b)| (a - b) * (a - b)).sum();
    let den: f64 = x_cpu.iter().map(|v| v * v).sum();
    assert!((num / den).sqrt() < 1e-4, "device vs cpu mismatch {:.3e}", (num / den).sqrt());
}

#[test]
fn all_suitesparse_analogues_solve() {
    for name in ["G3_circuit", "af_shell7", "Geo_1438", "Hook_1498"] {
        let a = Rc::new(gen::suitesparse::by_name(name, 0.001));
        let b = gen::random_vector(a.nrows, 5);
        let res = solve_or_panic(a, &b, &bicgstab_ilu(500, 1e-5), &opts(8));
        assert!(res.residual < 1e-4, "{name}: residual {:.3e}", res.residual);
    }
}

#[test]
fn solution_independent_of_tile_count() {
    // The result must not depend on how many tiles the system spans
    // (up to working precision and preconditioner locality).
    let a = Rc::new(gen::poisson_2d_5pt(12, 12, 1.0));
    let b = gen::rhs_for_ones(&a);
    for tiles in [1usize, 2, 5, 16] {
        let res = solve_or_panic(a.clone(), &b, &bicgstab_ilu(400, 1e-6), &opts(tiles));
        assert!(res.residual < 2e-6, "{tiles} tiles: residual {:.3e}", res.residual);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-3, "{tiles} tiles: x = {v}");
        }
    }
}

#[test]
fn device_cycles_are_deterministic() {
    let a = Rc::new(gen::poisson_2d_5pt(10, 10, 1.0));
    let b = gen::rhs_for_ones(&a);
    let cfg = bicgstab_ilu(50, 1e-6);
    let r1 = solve_or_panic(a.clone(), &b, &cfg, &opts(4));
    let r2 = solve_or_panic(a, &b, &cfg, &opts(4));
    assert_eq!(r1.stats.device_cycles(), r2.stats.device_cycles());
    assert_eq!(r1.x, r2.x);
    assert_eq!(r1.iterations, r2.iterations);
}

#[test]
fn mpir_precisions_order_correctly() {
    // Floors must order: working >= double-word >= emulated f64.
    let a = Rc::new(gen::poisson_2d_5pt(16, 16, 1.0));
    let b = gen::random_vector(a.nrows, 11);
    let mut floors = Vec::new();
    for precision in
        [ExtendedPrecision::Working, ExtendedPrecision::DoubleWord, ExtendedPrecision::EmulatedF64]
    {
        let cfg = SolverConfig::Mpir {
            inner: Box::new(bicgstab_ilu(50, 0.0)),
            precision,
            max_outer: 5,
            rel_tol: 1e-18,
        };
        let res = solve_or_panic(a.clone(), &b, &cfg, &opts(4));
        floors.push(res.residual);
    }
    assert!(floors[1] < floors[0] * 1e-3, "dw {} vs working {}", floors[1], floors[0]);
    assert!(floors[2] < floors[1] * 2.0, "f64 {} vs dw {}", floors[2], floors[1]);
    assert!(floors[1] < 1e-10);
}

#[test]
fn deep_nesting_works() {
    // MPIR { BiCGStab { GaussSeidel } } — three levels.
    let a = Rc::new(gen::poisson_2d_5pt(10, 10, 1.0));
    let b = gen::rhs_for_ones(&a);
    let cfg = SolverConfig::Mpir {
        inner: Box::new(SolverConfig::BiCgStab {
            max_iters: 80,
            rel_tol: 0.0,
            precond: Some(Box::new(SolverConfig::GaussSeidel {
                sweeps: 2,
                symmetric: false,
                rel_tol: 0.0,
            })),
        }),
        precision: ExtendedPrecision::DoubleWord,
        max_outer: 4,
        rel_tol: 1e-10,
    };
    assert_eq!(cfg.depth(), 3);
    let res = solve_or_panic(a, &b, &cfg, &opts(4));
    assert!(res.residual < 1e-9, "residual {:.3e}", res.residual);
}

#[test]
fn solver_history_tracks_monitor_and_device_time_positive() {
    let a = Rc::new(gen::poisson_2d_5pt(10, 10, 1.0));
    let b = gen::rhs_for_ones(&a);
    let res = solve_or_panic(a, &b, &bicgstab_ilu(30, 1e-6), &opts(2));
    assert_eq!(res.history.len(), res.iterations);
    assert!(res.seconds > 0.0);
    // History iterations are 1..=n, strictly increasing.
    for (k, (it, _)) in res.history.iter().enumerate() {
        assert_eq!(*it, k + 1);
    }
}

#[test]
fn asymmetric_system_solves() {
    // BiCGStab's raison d'être: nonsymmetric systems. A 1D
    // convection-diffusion matrix (upwind, diagonally dominant).
    let n = 80;
    let mut coo = graphene::sparse::formats::CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 3.0);
        if i > 0 {
            coo.push(i, i - 1, -2.0); // convection: stronger lower band
        }
        if i + 1 < n {
            coo.push(i, i + 1, -0.5);
        }
    }
    let a = Rc::new(coo.to_csr());
    assert!(!a.is_symmetric(1e-12));
    let b = gen::random_vector(n, 1);
    let res = solve_or_panic(a.clone(), &b, &bicgstab_ilu(200, 1e-6), &opts(3));
    assert!(res.residual < 2e-6, "residual {:.3e}", res.residual);
}

#[test]
fn chebyshev_preconditioner_accelerates_cg() {
    let a = Rc::new(gen::poisson_2d_5pt(16, 16, 1.0));
    let b = gen::rhs_for_ones(&a);
    let plain = SolverConfig::Cg { max_iters: 400, rel_tol: 1e-6, precond: None };
    let cheb = SolverConfig::Cg {
        max_iters: 400,
        rel_tol: 1e-6,
        precond: Some(Box::new(SolverConfig::Chebyshev { degree: 4, eig_ratio: 30.0 })),
    };
    let r1 = solve_or_panic(a.clone(), &b, &plain, &opts(4));
    let r2 = solve_or_panic(a, &b, &cheb, &opts(4));
    assert!(r2.residual < 2e-6, "residual {:.3e}", r2.residual);
    assert!(r2.iterations < r1.iterations, "cheb {} vs plain {}", r2.iterations, r1.iterations);
}

#[test]
fn geometric_partition_option_is_honoured() {
    use graphene::sparse::gen::Grid3;
    use graphene::sparse::partition::Partition;
    let a = Rc::new(gen::poisson_3d_7pt(8, 8, 8));
    let b = gen::rhs_for_ones(&a);
    let part = Partition::grid_3d(Grid3 { nx: 8, ny: 8, nz: 8 }, 2, 2, 2);
    let o =
        SolveOptions { model: IpuModel::tiny(8), partition: Some(part), ..SolveOptions::default() };
    let res = solve_or_panic(a, &b, &bicgstab_ilu(300, 1e-6), &o);
    assert!(res.residual < 2e-6);
}
