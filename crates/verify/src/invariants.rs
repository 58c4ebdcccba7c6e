//! Simulator-level invariants.
//!
//! The simulated machine is fully deterministic, so strong structural
//! checks are cheap:
//!
//! * [`assert_deterministic`] — running the *same* solve twice must give
//!   bit-identical solutions and cycle-identical profiles (device cycles,
//!   per-label/per-phase splits, exchanged bytes, superstep count). Any
//!   drift means hidden host state leaked into the program.
//! * [`audit_exchange_conservation`] — with a trace attached, the bytes
//!   recorded per exchange step must sum to exactly
//!   `CycleStats::exchange_bytes()`, the label stack must balance
//!   (`label_underflows == 0`), and the per-label cycle attribution must
//!   partition `device_cycles` exactly.

use std::rc::Rc;

use dsl::prelude::*;
use graph::Engine;
use graphene_core::config::SolverConfig;
use graphene_core::dist::DistSystem;
use graphene_core::runner::{solve_or_panic, SolveOptions, SolveResult};
use graphene_core::solvers::solver_from_config;
use profile::TraceRecorder;
use sparse::formats::CsrMatrix;

fn sim_opts() -> SolveOptions {
    SolveOptions {
        model: IpuModel::tiny(4),
        tiles: Some(4),
        record_history: false,
        ..SolveOptions::default()
    }
}

/// What the double-run determinism check compared.
#[derive(Clone, Debug)]
pub struct DeterminismReport {
    pub device_cycles: u64,
    pub iterations: usize,
    pub exchange_bytes: u64,
}

/// Solution bits, device cycles, exchange bytes, supersteps, syncs and the
/// per-label phase splits.
type Fingerprint = (Vec<u64>, u64, u64, u64, u64, Vec<(String, [u64; 3])>);

fn fingerprint(r: &SolveResult) -> Fingerprint {
    (
        r.x.iter().map(|v| v.to_bits()).collect(),
        r.stats.device_cycles(),
        r.stats.exchange_bytes(),
        r.stats.supersteps(),
        r.stats.sync_count(),
        r.stats.labels_by_phase_sorted(),
    )
}

/// Run the same solve twice and require bit/cycle-identical outcomes.
pub fn assert_deterministic(
    a: Rc<CsrMatrix>,
    b: &[f64],
    config: &SolverConfig,
) -> DeterminismReport {
    let r1 = solve_or_panic(a.clone(), b, config, &sim_opts());
    let r2 = solve_or_panic(a.clone(), b, config, &sim_opts());
    let (x1, dc1, xb1, ss1, sc1, lb1) = fingerprint(&r1);
    let (x2, dc2, xb2, ss2, sc2, lb2) = fingerprint(&r2);
    assert_eq!(x1, x2, "solution bits differ between identical runs");
    assert_eq!(dc1, dc2, "device cycles differ between identical runs");
    assert_eq!(xb1, xb2, "exchanged bytes differ between identical runs");
    assert_eq!(ss1, ss2, "superstep counts differ between identical runs");
    assert_eq!(sc1, sc2, "sync counts differ between identical runs");
    assert_eq!(lb1, lb2, "per-label cycle splits differ between identical runs");
    assert_eq!(r1.iterations, r2.iterations, "iteration counts differ");
    DeterminismReport { device_cycles: dc1, iterations: r1.iterations, exchange_bytes: xb1 }
}

/// What the exchange-conservation audit measured.
#[derive(Clone, Debug)]
pub struct ExchangeAudit {
    /// Σ bytes over every traced exchange step.
    pub traced_bytes: u64,
    /// `CycleStats::exchange_bytes()` for the same run.
    pub stats_bytes: u64,
    pub device_cycles: u64,
    pub exchange_steps: usize,
}

/// Execute a solver with a trace attached and check byte conservation,
/// label balance and exact label attribution.
pub fn audit_exchange_conservation(
    a: Rc<CsrMatrix>,
    b: &[f64],
    config: &SolverConfig,
) -> ExchangeAudit {
    let engine = traced_run(&a, b, config);
    let stats = engine.stats();
    assert_eq!(stats.label_underflows(), 0, "label stack underflowed during execution");
    let labelled: u64 = stats.labels_sorted().iter().map(|(_, c)| c).sum();
    assert_eq!(
        labelled + stats.unlabelled_cycles(),
        stats.device_cycles(),
        "per-label cycles do not partition device_cycles"
    );

    let trace = engine.trace().expect("trace was attached");
    let traced_bytes: u64 = trace.exchanges().iter().map(|e| e.bytes).sum();
    assert_eq!(
        traced_bytes,
        stats.exchange_bytes(),
        "traced exchange bytes disagree with CycleStats::exchange_bytes()"
    );
    ExchangeAudit {
        traced_bytes,
        stats_bytes: stats.exchange_bytes(),
        device_cycles: stats.device_cycles(),
        exchange_steps: trace.exchanges().len(),
    }
}

/// Build the solver program for `config` on four tiles of a tiny machine
/// and run it once with a trace attached.
fn traced_run(a: &Rc<CsrMatrix>, b: &[f64], config: &SolverConfig) -> Engine {
    let part = sparse::partition::Partition::balanced_by_nnz(a, 4);
    let mut ctx = DslCtx::new(IpuModel::tiny(4));
    let sys = DistSystem::build(&mut ctx, a.clone(), part);
    let bt = sys.new_vector(&mut ctx, "b", DType::F32);
    let xt = sys.new_vector(&mut ctx, "x", DType::F32);
    let mut solver = solver_from_config(config);
    solver.setup(&mut ctx, &sys);
    solver.solve(&mut ctx, &sys, bt, xt);

    let mut engine = ctx.build_engine().expect("solver program compiles");
    engine.set_trace(TraceRecorder::default());
    sys.upload(&mut engine);
    engine.write_tensor(bt.id, &sys.to_device_order(b));
    engine.run();
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen::{poisson_2d_5pt, rhs_for_ones};

    #[test]
    fn small_bicgstab_run_is_deterministic() {
        let a = Rc::new(poisson_2d_5pt(6, 6, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab { max_iters: 10, rel_tol: 0.0, precond: None };
        let rep = assert_deterministic(a, &b, &cfg);
        assert!(rep.device_cycles > 0);
        assert!(rep.exchange_bytes > 0);
    }

    #[test]
    fn small_run_conserves_exchange_bytes() {
        let a = Rc::new(poisson_2d_5pt(6, 6, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::Jacobi { sweeps: 8, omega: 2.0 / 3.0 };
        let audit = audit_exchange_conservation(a, &b, &cfg);
        assert!(audit.exchange_steps > 0);
        assert_eq!(audit.traced_bytes, audit.stats_bytes);
    }
}
