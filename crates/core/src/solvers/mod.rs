//! The solver and preconditioner suite (paper §V).
//!
//! Every solver implements [`Solver`], emitting TensorDSL/CodeDSL program
//! steps during symbolic execution. The key property of the paper's design
//! is preserved: **any solver can serve as the preconditioner of any
//! other**, so a configuration is a tree —
//! e.g. `MPIR { BiCGStab { ILU(0) } }`.
//!
//! The tree is composed and observed through the one interface: the
//! runner attaches its host-side [`Probes`] (iteration counter / residual
//! [`Monitor`], sentinel, checkpointer) with [`Solver::instrument`], and a
//! nesting solver forwards what its children should carry — no solver
//! downcasts a child to wire it.

use std::cell::RefCell;
use std::rc::Rc;

use dsl::prelude::*;
use sparse::formats::CsrMatrix;

use crate::dist::DistSystem;

pub mod bicgstab;
pub mod cg;
pub mod chebyshev;
pub mod gauss_seidel;
pub mod identity;
pub mod ilu;
pub mod jacobi;
pub mod mpir;
pub mod multigrid;

pub use bicgstab::BiCgStab;
pub use cg::Cg;
pub use chebyshev::Chebyshev;
pub use gauss_seidel::GaussSeidel;
pub use identity::Identity;
pub use ilu::{Dilu, Ilu0};
pub use jacobi::Jacobi;
pub use mpir::{ExtendedPrecision, Mpir};
pub use multigrid::TwoGrid;

/// A solver/preconditioner that contributes program steps.
///
/// Contract: `setup` is invoked exactly once (before the parent's loop —
/// factorisations and other reusable work go here); `solve` emits the steps
/// that improve `x` toward `A x = b`. When used as a preconditioner the
/// caller zeroes `x` first, so `solve` computes `x ≈ A⁻¹ b` from scratch;
/// as an outer solver `x` carries the initial guess.
pub trait Solver: std::any::Any {
    fn name(&self) -> &'static str;

    /// Runtime-typed access, for reading a concrete solver's outputs after
    /// symbolic execution (`Mpir::x_ext`).
    fn as_any(&mut self) -> &mut dyn std::any::Any;

    /// Attach host-side probes to the program `solve` will emit; `shift`
    /// is the extended-precision base when this solver refines a
    /// correction on top of one (MPIR's inner solver). Call before
    /// `solve`. The default ignores them: stationary methods and
    /// factorisations have no iteration to probe.
    fn instrument(&mut self, _probes: &Probes, _shift: Option<TensorRef>) {}

    /// One-time setup: workspace allocation, ILU factorisation, nested
    /// preconditioner setup.
    fn setup(&mut self, ctx: &mut DslCtx, sys: &DistSystem);

    /// Emit the solve program. `b` and `x` are distributed vectors in the
    /// system's halo layout.
    fn solve(&mut self, ctx: &mut DslCtx, sys: &DistSystem, b: TensorRef, x: TensorRef);
}

/// What the runner can attach to a Krylov solver's loop: all optional, all
/// host-side (callbacks cost zero device cycles; only the checkpoint's
/// device copy is charged, under its own label).
#[derive(Clone, Default)]
pub struct Probes {
    /// Iteration counter and true-residual recorder.
    pub monitor: Option<Monitor>,
    /// In-flight watchdog: fed by the monitor's residual stream, and
    /// hooked into every loop condition so a trip aborts the whole solver
    /// nest at the next iteration boundary.
    pub sentinel: Option<crate::resilience::Sentinel>,
    /// Periodic snapshots of the solution for rollback recovery.
    pub checkpoint: Option<crate::resilience::Checkpointer>,
}

/// Records the *true* relative residual ‖b − A·x‖₂ / ‖b‖₂ in f64 on the
/// host — the quantity plotted in the paper's Figures 9 and 10. Device
/// solvers invoke it through host callbacks (§III-A: "we use CPU callbacks
/// to inform the user about the solver's progress").
///
/// The residual is evaluated against the system **as the device sees it**:
/// matrix values and right-hand side rounded to f32 (the device's working
/// precision), with the arithmetic itself in f64. This matches the paper's
/// setting — its solvers consume single-precision device data, and only
/// the *solution* carries extended precision — and is what lets MPIR
/// curves reach 1e-13..1e-15 instead of flooring at the f32 data-rounding
/// level.
///
/// A monitor is wired into a compiled program once and serves every run of
/// it: the right-hand side, the iteration counter and the history live in
/// cells shared by every clone, and [`reset`](Monitor::reset) starts a run.
#[derive(Clone)]
pub struct Monitor {
    /// The device system: `A` with its values rounded to f32.
    pub a: Rc<CsrMatrix>,
    /// The current run's right-hand side, rounded to f32.
    pub b: Rhs,
    /// device flat index of each global row's owned slot.
    pub gather: Rc<Vec<usize>>,
    run: Rc<RefCell<MonitorRun>>,
    /// `false`: [`record`](Monitor::record) only counts the iteration.
    residuals: bool,
}

/// A run's right-hand side, shared by a [`Monitor`] and its callbacks.
#[derive(Clone, Default)]
pub struct Rhs(Rc<RefCell<Vec<f64>>>);

impl Rhs {
    /// The values in global row order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let b = self.0.borrow();
        (0..b.len()).map(move |i| b[i])
    }
}

/// What one run of a [`Monitor`] has seen.
#[derive(Default)]
struct MonitorRun {
    b_norm: f64,
    /// Iterations counted.
    counter: usize,
    /// (cumulative inner iteration, relative true residual).
    history: Vec<(usize, f64)>,
}

impl Monitor {
    /// A monitor of `sys`, started on `b` (see [`Monitor::reset`]).
    pub fn new(sys: &DistSystem, b: Rc<Vec<f64>>) -> Monitor {
        let m = Monitor::of(sys);
        m.reset(&b);
        m
    }

    /// A monitor of `sys` with no run started: the f32-rounded matrix and
    /// the device slot of each row, built once per compiled program.
    pub fn of(sys: &DistSystem) -> Monitor {
        let mut gather = vec![0usize; sys.num_rows()];
        for (t, layout) in sys.halo.layouts.iter().enumerate() {
            let base = sys.vec_chunks[t].start;
            for (local, &row) in layout.owned.iter().enumerate() {
                gather[row] = base + local;
            }
        }
        // The device system: values rounded to working precision.
        let mut a32 = (*sys.a).clone();
        for v in &mut a32.values {
            *v = *v as f32 as f64;
        }
        Monitor {
            a: Rc::new(a32),
            b: Rhs::default(),
            gather: Rc::new(gather),
            run: Rc::default(),
            residuals: true,
        }
    }

    /// Start a run on right-hand side `b`: every clone sees `b` rounded to
    /// f32, a zero counter and an empty history.
    pub fn reset(&self, b: &[f64]) {
        let b32: Vec<f64> = b.iter().map(|&v| v as f32 as f64).collect();
        let b_norm = b32.iter().map(|v| v * v).sum::<f64>().sqrt().max(f64::MIN_POSITIVE);
        *self.b.0.borrow_mut() = b32;
        *self.run.borrow_mut() = MonitorRun { b_norm, ..MonitorRun::default() };
    }

    /// This monitor (same counter), counting iterations only: no tensor is
    /// read back and no f64 SpMV runs per iteration, so `iterations()` is
    /// right even when nobody wants the history.
    pub fn count_only(mut self) -> Monitor {
        self.residuals = false;
        self
    }

    /// Emit a callback recording the true residual of `x` (plus `shift`,
    /// when `x` is a correction on top of an extended-precision base).
    /// When a [`Sentinel`](crate::resilience::Sentinel) is given, every
    /// recorded sample also feeds its non-finite / divergence /
    /// stagnation detectors.
    pub fn record(
        &self,
        ctx: &mut DslCtx,
        x: TensorRef,
        shift: Option<TensorRef>,
        sentinel: Option<crate::resilience::Sentinel>,
    ) {
        let m = self.clone();
        if !m.residuals {
            return ctx.callback(move |_| m.run.borrow_mut().counter += 1);
        }
        let xid = x.id;
        let sid = shift.map(|s| s.id);
        ctx.callback(move |view| {
            let dev = view.read_f64(xid);
            let base = sid.map(|s| view.read_f64(s));
            let n = m.gather.len();
            let mut xg = vec![0.0; n];
            for (row, &slot) in m.gather.iter().enumerate() {
                xg[row] = dev[slot] + base.as_ref().map_or(0.0, |b| b[slot]);
            }
            let ax = m.a.spmv_alloc(&xg);
            let r2: f64 = m.b.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum();
            let mut run = m.run.borrow_mut();
            run.counter += 1;
            let (c, rel) = (run.counter, r2.sqrt() / run.b_norm);
            run.history.push((c, rel));
            drop(run);
            if let Some(s) = &sentinel {
                s.observe(c, rel);
            }
        });
    }

    /// The recorded history: (iteration, relative residual).
    pub fn take_history(&self) -> Vec<(usize, f64)> {
        std::mem::take(&mut self.run.borrow_mut().history)
    }

    /// Total recorded iterations.
    pub fn iterations(&self) -> usize {
        self.run.borrow().counter
    }
}

/// Zero a distributed vector (owned elements).
pub fn zero(ctx: &mut DslCtx, x: TensorRef) {
    ctx.assign(x, dsl::TExpr::c_f32(0.0));
}

/// Build a solver tree from a configuration.
pub fn solver_from_config(cfg: &crate::config::SolverConfig) -> Box<dyn Solver> {
    use crate::config::SolverConfig as C;
    match cfg {
        C::Identity => Box::new(Identity::new()),
        C::Jacobi { sweeps, omega } => Box::new(Jacobi::new(*sweeps, *omega)),
        C::GaussSeidel { sweeps, symmetric, rel_tol } => Box::new(if *rel_tol > 0.0 {
            GaussSeidel::with_tolerance(*sweeps, *rel_tol, *symmetric)
        } else {
            GaussSeidel::new(*sweeps, *symmetric)
        }),
        C::Chebyshev { degree, eig_ratio } => Box::new(Chebyshev::new(*degree, *eig_ratio)),
        C::Ilu0 {} => Box::new(Ilu0::new()),
        C::Dilu {} => Box::new(Dilu::new()),
        C::BiCgStab { max_iters, rel_tol, precond } => {
            let p = precond.as_ref().map(|c| solver_from_config(c));
            Box::new(BiCgStab::new(*max_iters, *rel_tol, p))
        }
        C::Cg { max_iters, rel_tol, precond } => {
            let p = precond.as_ref().map(|c| solver_from_config(c));
            Box::new(Cg::new(*max_iters, *rel_tol, p))
        }
        C::Mpir { inner, precision, max_outer, rel_tol } => {
            Box::new(Mpir::new(solver_from_config(inner), *precision, *max_outer, *rel_tol))
        }
    }
}
