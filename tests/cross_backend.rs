//! Cross-backend integration tests (tier-1).
//!
//! The backend abstraction's contract, end to end:
//!
//! * the cross-backend differential sweep — the Krylov subset of the
//!   verification suite on both the IPU simulator and the CPU baseline,
//!   judged against the oracle and against each other;
//! * every `SolveOptions::backend = ipu-sim[:<variant>]` is bit- and
//!   cycle-identical to `ipu-sim`, the interpreted reference, and reports
//!   the name it was pinned to;
//! * the registry refuses unknown names with `SolveError::Config` and
//!   capability mismatches with `SolveError::Backend` — typed errors,
//!   never panics;
//! * external-backend reports are schema-v3 (`backend` section) and
//!   round-trip through the JSON wire format.

use std::rc::Rc;

use graphene::backend::{BackendSpec, IpuVariant};
use graphene::graphene_core::config::SolverConfig;
use graphene::graphene_core::resilience::SolveError;
use graphene::graphene_core::resolve_backend;
use graphene::graphene_core::runner::{solve, SolveOptions};
use graphene::ipu_sim::fault::FaultPlan;
use graphene::prelude::IpuModel;
use graphene::profile::SolveReport;
use graphene::sparse::gen::{poisson_2d_5pt, rhs_for_ones};
use verify::cross_backend::{check_cross_backend, cpu_supported_cases};

fn sim_opts() -> SolveOptions {
    SolveOptions {
        model: IpuModel::tiny(4),
        tiles: Some(4),
        record_history: false,
        ..SolveOptions::default()
    }
}

fn krylov() -> SolverConfig {
    SolverConfig::BiCgStab { max_iters: 120, rel_tol: 1e-6, precond: None }
}

// ---- the cross-backend differential sweep (satellite 5 / CI leg) ------

#[test]
fn cross_backend_differential_suite() {
    let outcomes = check_cross_backend(&cpu_supported_cases());
    // Two backend rows per (case, family); at least 3 families per case.
    assert!(outcomes.len() >= cpu_supported_cases().len() * 3 * 2);
    assert!(outcomes.iter().any(|o| o.backend == "cpu"));
    assert!(outcomes.iter().any(|o| o.backend == "ipu-sim"));
}

// ---- backend selection equivalence (tentpole acceptance) --------------

#[test]
fn every_ipu_sim_backend_matches_the_interpreted_reference() {
    let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
    let b = rhs_for_ones(&a);
    let cfg = krylov();
    let run = |variant| {
        let spec = BackendSpec::IpuSim(variant);
        let res =
            solve(Rc::clone(&a), &b, &cfg, &SolveOptions { backend: Some(spec), ..sim_opts() })
                .unwrap();
        assert_eq!(res.report.executor, spec.name());
        let info = res.report.backend.as_ref().expect("v3 report names its backend");
        assert_eq!(info.family, "ipu-sim");
        assert_eq!(info.timing, "cycle-model");
        assert_eq!(info.name, spec.name());
        res
    };
    let reference = run(IpuVariant::Default);
    let fused = run(IpuVariant::Fused);
    assert_eq!(fused.x, reference.x, "bits must match");
    assert_eq!(fused.stats.device_cycles(), reference.stats.device_cycles(), "cycles must match");
}

#[test]
fn removed_backend_spellings_are_config_errors() {
    for name in ["ipu-sim:seq", "ipu-sim:native", "ipu-sim:legacy", "ipu-sim:par"] {
        match resolve_backend(name, &sim_opts()) {
            Err(SolveError::Config(msg)) => assert!(msg.contains("unknown backend"), "{msg}"),
            Ok(_) => panic!("`{name}` must not resolve"),
            Err(other) => panic!("expected Config, got {other}"),
        }
    }
}

// ---- the registry: typed refusals, never panics (satellite 3) ---------

#[test]
fn unknown_backend_is_a_config_error() {
    match resolve_backend("quantum-annealer", &sim_opts()) {
        Err(SolveError::Config(msg)) => {
            assert!(msg.contains("unknown backend"), "{msg}");
            assert!(msg.contains("gpu-model") && msg.contains("ipu-sim:fused"), "{msg}");
        }
        Ok(_) => panic!("unknown backend must not resolve"),
        Err(other) => panic!("expected Config, got {other}"),
    }
}

#[test]
fn faults_on_gpu_model_are_a_typed_capability_error() {
    let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
    let b = rhs_for_ones(&a);
    let opts = SolveOptions {
        backend: Some(BackendSpec::GpuModel),
        faults: Some(FaultPlan::parse("flip@s40.t1:w3.b30").unwrap()),
        ..sim_opts()
    };
    match solve(a, &b, &krylov(), &opts) {
        Err(SolveError::Backend { backend, reason }) => {
            assert_eq!(backend, "gpu-model");
            assert!(reason.contains("fault injection"), "{reason}");
        }
        other => panic!("expected Backend error, got {other:?}"),
    }
}

#[test]
fn tuning_on_cpu_backend_is_a_typed_capability_error() {
    let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
    let b = rhs_for_ones(&a);
    let opts = SolveOptions {
        backend: Some(BackendSpec::Cpu { parallel: false }),
        tune: Some(true),
        ..sim_opts()
    };
    match solve(a, &b, &krylov(), &opts) {
        Err(SolveError::Backend { backend, reason }) => {
            assert_eq!(backend, "cpu");
            assert!(reason.contains("auto-tuning"), "{reason}");
        }
        other => panic!("expected Backend error, got {other:?}"),
    }
}

#[test]
fn unsupported_solver_on_cpu_backend_is_a_typed_error() {
    let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
    let b = rhs_for_ones(&a);
    let cfg = SolverConfig::Jacobi { sweeps: 30, omega: 0.8 };
    let opts = SolveOptions { backend: Some(BackendSpec::Cpu { parallel: false }), ..sim_opts() };
    match solve(a, &b, &cfg, &opts) {
        Err(SolveError::Backend { backend, reason }) => {
            assert_eq!(backend, "cpu");
            assert!(reason.contains("jacobi"), "{reason}");
        }
        other => panic!("expected Backend error, got {other:?}"),
    }
}

// ---- external backends through the runner (satellite 2) ---------------

#[test]
fn cpu_backend_solve_reports_wall_clock_accounting() {
    let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
    let b = rhs_for_ones(&a);
    let opts = SolveOptions {
        backend: Some(BackendSpec::Cpu { parallel: false }),
        record_history: true,
        ..sim_opts()
    };
    let res = solve(Rc::clone(&a), &b, &krylov(), &opts).unwrap();
    assert!(res.residual < 1e-6 * 100.0, "residual {}", res.residual);
    assert_eq!(res.stats.device_cycles(), 0, "no simulated device ran");
    assert!(res.seconds > 0.0, "wall-clock seconds must be positive");
    assert!(!res.history.is_empty());
    let info = res.report.backend.as_ref().expect("backend section present");
    assert_eq!(info.name, "cpu");
    assert_eq!(info.family, "cpu");
    assert_eq!(info.timing, "wall-clock");
    // `summarize`-compatible accounting: n/nnz/iterations/seconds filled.
    assert_eq!(res.report.n, a.nrows);
    assert_eq!(res.report.nnz, a.nnz());
    assert_eq!(res.report.iterations, res.iterations);
    assert!(res.report.seconds > 0.0);
    assert!(res.report.host_seconds >= res.report.seconds);

    // The wire format round-trips with the backend section intact.
    let parsed = SolveReport::from_value(&res.report.to_value()).unwrap();
    let back = parsed.backend.expect("backend survives the round-trip");
    assert_eq!(back.timing, "wall-clock");
}

#[test]
fn gpu_model_backend_reports_modelled_seconds() {
    let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
    let b = rhs_for_ones(&a);
    let opts = SolveOptions { backend: Some(BackendSpec::GpuModel), ..sim_opts() };
    let res = solve(a, &b, &krylov(), &opts).unwrap();
    assert!(res.residual < 1e-6 * 100.0, "residual {}", res.residual);
    assert_eq!(res.stats.device_cycles(), 0);
    assert!(res.seconds > 0.0, "modelled seconds must be positive");
    let info = res.report.backend.as_ref().expect("backend section present");
    assert_eq!(info.name, "gpu-model");
    assert_eq!(info.timing, "roofline-model");
}

#[test]
fn cpu_parallel_backend_is_bit_identical_to_sequential() {
    let a = Rc::new(poisson_2d_5pt(12, 12, 1.0));
    let b = rhs_for_ones(&a);
    let run = |parallel| {
        let opts = SolveOptions { backend: Some(BackendSpec::Cpu { parallel }), ..sim_opts() };
        solve(Rc::clone(&a), &b, &krylov(), &opts).unwrap()
    };
    let seq = run(false);
    let par = run(true);
    assert_eq!(seq.x, par.x);
    assert_eq!(seq.iterations, par.iterations);
    assert_eq!(seq.report.backend.as_ref().unwrap().name, "cpu");
    assert_eq!(par.report.backend.as_ref().unwrap().name, "cpu:par");
}
