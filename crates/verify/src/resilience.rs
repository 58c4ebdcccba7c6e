//! Fault-injection resilience properties.
//!
//! The fault layer (`ipu_sim::fault`) and the recovery state machine
//! (`graphene_core::resilience`) together make a strong, checkable
//! promise: **no silently-wrong answer escapes**. This module packages
//! that promise as three reusable properties:
//!
//! * [`assert_fault_trichotomy`] — under any seeded single-fault plan the
//!   outcome is exactly one of {converged within tolerance, recovered
//!   within tolerance, structured error}. The residual of every accepted
//!   solution is *independently* recomputed here (f64 SpMV against the
//!   original system), so a corrupted device cannot vouch for itself —
//!   the SDC escape rate over the swept fault classes must be zero.
//! * [`assert_faulted_determinism`] — a faulted solve replays
//!   bit-identically: same solution bits, same cycle counts, same
//!   resilience record (or the same structured error) across repeated
//!   runs and across both `ipu-sim` backends.
//! * [`assert_zero_overhead_when_off`] — with no fault plan and the inert
//!   default [`RecoveryPolicy`], the runner emits *exactly* the pre-fault
//!   program: solution bits, device cycles and label partitions match a
//!   plain solve, no `checkpoint` label appears, and the report carries
//!   no resilience section.

use std::rc::Rc;

use dsl::prelude::IpuModel;
use graphene_core::config::SolverConfig;
use graphene_core::runner::{solve, SolveOptions, SolveResult};
use graphene_core::{RecoveryPolicy, SolveError, SolveStatus};
use ipu_sim::fault::FaultPlan;
use sparse::formats::CsrMatrix;

use crate::oracle;

fn sim_opts(tiles: usize) -> SolveOptions {
    SolveOptions {
        model: IpuModel::tiny(tiles),
        tiles: Some(tiles),
        record_history: false,
        ..SolveOptions::default()
    }
}

/// How one faulted case ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// First attempt converged (the fault missed, was benign, or was
    /// absorbed by the iteration).
    Converged,
    /// At least one detection → rollback/restart/degradation preceded a
    /// healthy finish.
    Recovered,
    /// A structured [`SolveError`] surfaced.
    Errored,
}

/// What the trichotomy sweep observed.
#[derive(Clone, Debug, Default)]
pub struct TrichotomyReport {
    pub cases: u32,
    pub converged: u32,
    pub recovered: u32,
    pub errored: u32,
    /// Cases in which at least one injected fault actually fired.
    pub faults_fired: u32,
}

/// Residual acceptance bound for an accepted solution: the runner's own
/// judge admits up to `tolerance × 100` (host-recomputed true residual vs
/// the device's recursive-f32 convergence test), and this independent
/// check allows the same safety factor.
const ACCEPT_SAFETY: f64 = 100.0;

/// Sweep seeded single-fault plans over one system/config and assert the
/// trichotomy for every seed. `rel_tol` must match the configuration's
/// outermost tolerance (it bounds what "within tolerance" means here).
pub fn assert_fault_trichotomy(
    a: Rc<CsrMatrix>,
    b: &[f64],
    config: &SolverConfig,
    rel_tol: f64,
    seeds: impl IntoIterator<Item = u64>,
) -> TrichotomyReport {
    let mut rep = TrichotomyReport::default();
    // Measure the healthy program once so seeded coordinates actually land
    // inside it (the grammar's default smax=4096 outruns small solves).
    let probe = solve(a.clone(), b, config, &sim_opts(2)).expect("healthy probe solve");
    let smax = probe.stats.supersteps().max(2);
    for seed in seeds {
        let spec = format!("seed={seed};n=1;classes=flip+xflip+xdrop+stall;smax={smax};wmax=16");
        let plan = FaultPlan::parse(&spec).expect("fault spec parses");
        let opts = SolveOptions { faults: Some(plan), ..sim_opts(2) };
        rep.cases += 1;
        match solve(a.clone(), b, config, &opts) {
            Ok(res) => {
                // Independent ground truth: recompute ‖b − A·x‖/‖b‖ in
                // f64 from the returned solution. A silently corrupted
                // answer fails here no matter what the runner recorded.
                let true_rel = oracle::rel_residual(&a, &res.x, b);
                assert!(
                    true_rel <= rel_tol * ACCEPT_SAFETY,
                    "seed {seed}: accepted solution has true residual {true_rel:.3e} \
                     (bound {:.3e}) — an SDC escaped",
                    rel_tol * ACCEPT_SAFETY
                );
                let resil = res
                    .report
                    .resilience
                    .as_ref()
                    .expect("faulted solve must stamp a resilience section");
                if !resil.faults_injected.is_empty() {
                    rep.faults_fired += 1;
                }
                match res.status {
                    SolveStatus::Converged => rep.converged += 1,
                    SolveStatus::Recovered => {
                        assert!(
                            resil.attempts > 1,
                            "seed {seed}: Recovered status with a single attempt"
                        );
                        assert!(
                            !resil.detections.is_empty(),
                            "seed {seed}: Recovered status without a detection record"
                        );
                        rep.recovered += 1;
                    }
                    SolveStatus::MaxIters => panic!(
                        "seed {seed}: faulted solve accepted MaxIters (residual {:.3e}) — \
                         the resilient policy must either converge, recover or error",
                        res.residual
                    ),
                }
            }
            Err(e) => {
                // Structured failure is an allowed leg of the trichotomy,
                // but it must be a *detector* verdict, not a panic and
                // not a config complaint (the inputs are valid).
                match e {
                    SolveError::NonFinite { .. }
                    | SolveError::Diverged { .. }
                    | SolveError::Stagnated { .. }
                    | SolveError::ToleranceNotReached { .. }
                    | SolveError::Breakdown(_) => rep.errored += 1,
                    other => panic!("seed {seed}: unexpected error class {other:?}"),
                }
            }
        }
    }
    assert_eq!(rep.cases, rep.converged + rep.recovered + rep.errored);
    rep
}

/// Solution bits, device cycles, exchange bytes and the per-label phase
/// splits.
type Fingerprint = (Vec<u64>, u64, u64, Vec<(String, [u64; 3])>);

fn fingerprint(r: &SolveResult) -> Fingerprint {
    (
        r.x.iter().map(|v| v.to_bits()).collect(),
        r.stats.device_cycles(),
        r.stats.exchange_bytes(),
        r.stats.labels_by_phase_sorted(),
    )
}

/// Run the same faulted solve three times and require one outcome
/// throughout — bit-identical solutions, cycle-identical stats and an equal
/// resilience record, or exactly the same structured error. The fault layer
/// keys on superstep coordinates, not on host state.
pub fn assert_faulted_determinism(a: Rc<CsrMatrix>, b: &[f64], config: &SolverConfig, spec: &str) {
    let plan = FaultPlan::parse(spec).expect("fault spec parses");
    let opts = SolveOptions { faults: Some(plan), ..sim_opts(2) };
    // What must replay: the fingerprint, status and resilience record, or
    // the structured error.
    let run = || {
        solve(a.clone(), b, config, &opts).map(|r| (fingerprint(&r), r.status, r.report.resilience))
    };
    let want = run();
    for replay in 0..2 {
        assert_eq!(want, run(), "faulted solve drifted (replay {replay})");
    }
}

/// With faults off and the inert default policy, the solve must be
/// bit-identical to a plain run: same solution, same cycles, same label
/// partition, no `checkpoint` label, no resilience section.
pub fn assert_zero_overhead_when_off(a: Rc<CsrMatrix>, b: &[f64], config: &SolverConfig) {
    let plain = solve(a.clone(), b, config, &sim_opts(2)).expect("plain solve");
    let armed_off =
        SolveOptions { faults: None, recovery: Some(RecoveryPolicy::default()), ..sim_opts(2) };
    let off = solve(a.clone(), b, config, &armed_off).expect("policy-off solve");
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&off),
        "inert recovery policy perturbed the program"
    );
    assert_eq!(off.status, plain.status);
    assert!(
        off.report.resilience.is_none(),
        "healthy un-faulted solve must not stamp a resilience section"
    );
    assert!(
        !off.stats.labels_by_phase_sorted().iter().any(|(n, _)| n == "checkpoint"),
        "no checkpoint work may be emitted when checkpointing is off"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen::{poisson_2d_5pt, rhs_for_ones};

    fn system() -> (Rc<CsrMatrix>, Vec<f64>) {
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        (a, b)
    }

    fn cfg(rel_tol: f32) -> SolverConfig {
        SolverConfig::BiCgStab {
            max_iters: 200,
            rel_tol,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        }
    }

    #[test]
    fn seeded_single_faults_obey_the_trichotomy() {
        let (a, b) = system();
        let cases = crate::cases_from_env(8) as u64;
        let rep = assert_fault_trichotomy(a, &b, &cfg(1e-6), 1e-6, 1..=cases);
        assert_eq!(rep.cases as u64, cases);
        // The sweep is only meaningful if the plans actually fire.
        assert!(rep.faults_fired > 0, "no seeded fault ever fired: {rep:?}");
    }

    #[test]
    fn faulted_solve_replays_bit_identically() {
        let (a, b) = system();
        assert_faulted_determinism(a, &b, &cfg(1e-6), "seed=11;n=2;classes=flip+xflip+xdrop");
    }

    #[test]
    fn explicit_fault_coordinates_replay_bit_identically() {
        let (a, b) = system();
        assert_faulted_determinism(a, &b, &cfg(1e-6), "flip@s60.t1:w5.b30;stall@s10.t0:c500");
    }

    #[test]
    fn recovery_machinery_costs_nothing_when_off() {
        let (a, b) = system();
        assert_zero_overhead_when_off(a, &b, &cfg(1e-6));
    }
}
