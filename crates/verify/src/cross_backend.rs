//! Cross-backend differential testing.
//!
//! [`differential`](crate::differential) checks one device against a
//! dense-LU oracle; this module checks *backends against each other*
//! through the `Backend` trait: the same f32-rounded system, the same
//! solver-config JSON, executed on the IPU simulator **and** the native
//! CPU baseline, each judged against the oracle bounds and then against
//! one another. The backends implement genuinely different algorithms in
//! different precisions (recursive f32 on the device, plain f64 on the
//! host), so the cross-check bound is a small multiple of the per-device
//! forward bound — agreement there means both converged to the same
//! mathematical solution, which is exactly the property a backend
//! abstraction must not break.
//!
//! The CPU baseline implements the Krylov subset of the suite (CG and
//! BiCGStab, optionally ILU(0)-preconditioned); [`cpu_supported_cases`]
//! names it, and a test pins it so a suite extension makes an explicit
//! decision about baseline coverage.

use std::rc::Rc;

use backend::BackendSpec;
use backend::{Backend, SolvePlan};
use graphene_core::backends::backend_for;
use graphene_core::config::{verification_suite, VerifyCase};
use graphene_core::runner::SolveOptions;

use crate::differential::MIN_FAMILIES;
use crate::generators::{random_rhs, solver_families, Family};
use crate::oracle::{self, DenseLu};

/// Suite entries the CPU baseline backend implements. The rest of the
/// suite (smoothers, MPIR) is simulator-only by design.
pub fn cpu_supported_cases() -> Vec<&'static str> {
    vec!["cg", "cg+ilu0", "bicgstab", "bicgstab+ilu0"]
}

/// One (configuration, family, backend) execution, plus the cross-check.
#[derive(Clone, Debug)]
pub struct CrossOutcome {
    pub case: &'static str,
    pub family: &'static str,
    pub backend: String,
    pub residual: f64,
    pub forward: f64,
    pub iterations: usize,
    /// Relative difference ‖x_this − x_ipu‖/‖x_ipu‖ against the IPU
    /// simulator's solution for the same case+family (0 for the IPU row).
    pub vs_ipu: f64,
}

fn sim_opts() -> SolveOptions {
    SolveOptions {
        model: dsl::prelude::IpuModel::tiny(4),
        tiles: Some(4),
        record_history: false,
        ..SolveOptions::default()
    }
}

struct Prepared {
    fam: Family,
    a32: Rc<sparse::formats::CsrMatrix>,
    lu: DenseLu,
    cond: f64,
    b: Vec<f64>,
}

fn prepare(fam: Family, seed: u64) -> Prepared {
    let a32 = Rc::new(oracle::rounded_f32(&fam.a));
    let lu = DenseLu::factor(&a32).expect("verification family must be nonsingular");
    let cond = oracle::cond_est(&a32, &lu, 30);
    let b: Vec<f64> = random_rhs(a32.nrows, seed).iter().map(|v| *v as f32 as f64).collect();
    Prepared { fam, a32, lu, cond, b }
}

fn run_backend(be: &dyn Backend, case: &VerifyCase, prep: &Prepared) -> (Vec<f64>, usize) {
    let plan = SolvePlan {
        a: Rc::clone(&prep.a32),
        solver: case.config.to_value(),
        record_history: false,
    };
    let mut prepared = be.prepare(&plan).unwrap_or_else(|e| {
        panic!("[{}/{}] {} refused the plan: {e}", case.name, prep.fam.name, be.name())
    });
    let run = prepared
        .execute(&prep.b, None)
        .unwrap_or_else(|e| panic!("[{}/{}] {} failed: {e}", case.name, prep.fam.name, be.name()));
    (run.x, run.iterations)
}

/// Run the CPU-supported suite subset on the IPU simulator and the CPU
/// baseline through the [`Backend`] trait, assert each backend against
/// the oracle bounds and the backends against each other, and assert
/// that the sequential and parallel CPU backends are bit-identical.
/// Returns all outcomes for reporting.
pub fn check_cross_backend(names: &[&str]) -> Vec<CrossOutcome> {
    let suite = verification_suite();
    let cases: Vec<&VerifyCase> = names
        .iter()
        .map(|n| {
            suite
                .iter()
                .find(|c| c.name == *n)
                .unwrap_or_else(|| panic!("unknown verification case '{n}'"))
        })
        .collect();
    let prepared: Vec<Prepared> = solver_families()
        .into_iter()
        .enumerate()
        .map(|(i, f)| prepare(f, 1000 + i as u64))
        .collect();

    let base = sim_opts();
    let ipu = backend_for(BackendSpec::parse("ipu-sim").unwrap(), &base);
    let cpu = backend_for(BackendSpec::parse("cpu").unwrap(), &base);
    let cpu_par = backend_for(BackendSpec::parse("cpu:par").unwrap(), &base);

    let mut outcomes = Vec::new();
    for case in cases {
        let mut ran = 0usize;
        for prep in &prepared {
            if case.spd_only && !prep.fam.spd {
                continue;
            }
            if prep.cond > case.cond_bound {
                continue;
            }
            let x_ref = prep.lu.solve(&prep.b);
            let (x_ipu, it_ipu) = run_backend(ipu.as_ref(), case, prep);
            let (x_cpu, it_cpu) = run_backend(cpu.as_ref(), case, prep);
            let (x_cpu_par, it_cpu_par) = run_backend(cpu_par.as_ref(), case, prep);
            assert_eq!(
                x_cpu, x_cpu_par,
                "[{}/{}] cpu and cpu:par must be bit-identical",
                case.name, prep.fam.name
            );
            assert_eq!(it_cpu, it_cpu_par);

            for (backend, x, iterations) in [(&ipu, &x_ipu, it_ipu), (&cpu, &x_cpu, it_cpu)] {
                let out = CrossOutcome {
                    case: case.name,
                    family: prep.fam.name,
                    backend: backend.name(),
                    residual: oracle::rel_residual(&prep.a32, x, &prep.b),
                    forward: oracle::rel_error(x, &x_ref),
                    iterations,
                    vs_ipu: oracle::rel_error(x, &x_ipu),
                };
                assert!(
                    out.residual <= case.residual_bound,
                    "[{}/{}/{}] residual {:.3e} exceeds bound {:.1e}",
                    out.case,
                    out.family,
                    out.backend,
                    out.residual,
                    case.residual_bound,
                );
                assert!(
                    out.forward <= case.forward_bound,
                    "[{}/{}/{}] forward error {:.3e} exceeds bound {:.1e}",
                    out.case,
                    out.family,
                    out.backend,
                    out.forward,
                    case.forward_bound,
                );
                // Different algorithms, different precisions — but the
                // same mathematical solution: the cross-difference stays
                // within a small multiple of the per-device bound.
                assert!(
                    out.vs_ipu <= 2.0 * case.forward_bound,
                    "[{}/{}/{}] cross-backend difference {:.3e} exceeds {:.1e}",
                    out.case,
                    out.family,
                    out.backend,
                    out.vs_ipu,
                    2.0 * case.forward_bound,
                );
                outcomes.push(out);
            }
            ran += 1;
        }
        assert!(
            ran >= MIN_FAMILIES,
            "case '{}' only cross-checked {ran} families (minimum {MIN_FAMILIES})",
            case.name,
        );
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_supported_cases_exist_in_the_suite() {
        let suite = verification_suite();
        for name in cpu_supported_cases() {
            assert!(suite.iter().any(|c| c.name == name), "'{name}' missing from the suite");
        }
    }

    #[test]
    fn cpu_subset_is_a_deliberate_decision() {
        // Every Krylov entry without a smoother/MPIR wrapper should be in
        // the CPU subset; extending the suite must revisit this list.
        assert_eq!(cpu_supported_cases().len(), 4);
    }
}
