//! Mixed-Precision Iterative Refinement (paper §V-B).
//!
//! Moler's iterative refinement, revisited for hardware without native
//! double precision. Each outer iteration performs:
//!
//! 1. `r = b − A·x` in **extended precision** — double-word arithmetic
//!    (the paper's novel combination) or software-emulated f64;
//! 2. solve `A·c = r` in **working precision** (any inner solver, run for
//!    a fixed number of iterations — the paper uses PBiCGStab+ILU(0) with
//!    100 iterations per refinement step);
//! 3. `x ← x + c` in extended precision.
//!
//! With `ExtendedPrecision::Working` the residual is computed in f32 —
//! plain IR, the paper's control configuration that does *not* improve the
//! convergence floor (Figs 9/10).

use dsl::prelude::*;
use dsl::TExpr;

use crate::dist::DistSystem;
use crate::solvers::{zero, Probes, Solver};

/// Which arithmetic carries MPIR steps 1 and 3.
///
/// Wire names (used by the JSON solver config, see
/// `config::precision_name`): `"working"`, `"double_word"`,
/// `"emulated_f64"`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtendedPrecision {
    /// f32 — plain iterative refinement, no precision gain (control).
    Working,
    /// Double-word (f32 pair, Joldes et al.): ~13–14 decimal digits at
    /// ~5% of the emulated-double cost (Table I).
    DoubleWord,
    /// Software-emulated IEEE f64: ~16 digits, ~180x per-op cost.
    EmulatedF64,
}

impl ExtendedPrecision {
    pub fn dtype(self) -> DType {
        match self {
            ExtendedPrecision::Working => DType::F32,
            ExtendedPrecision::DoubleWord => DType::DoubleWord,
            ExtendedPrecision::EmulatedF64 => DType::F64Emulated,
        }
    }
}

pub struct Mpir {
    inner: Box<dyn Solver>,
    precision: ExtendedPrecision,
    max_outer: u32,
    rel_tol: f64,
    /// Extended-precision solution tensor (readable after run for the
    /// full-precision result).
    pub x_ext: Option<TensorRef>,
    /// See [`Solver::instrument`]. The monitor and the sentinel are
    /// forwarded to the inner solver (so true residuals are recorded on
    /// top of `x_ext` and a trip unwinds both loop levels); the checkpoint
    /// stays here and snapshots `x_ext` once per outer refinement step.
    probes: Probes,
}

impl Mpir {
    pub fn new(
        inner: Box<dyn Solver>,
        precision: ExtendedPrecision,
        max_outer: u32,
        rel_tol: f64,
    ) -> Mpir {
        assert!(max_outer > 0);
        Mpir { inner, precision, max_outer, rel_tol, x_ext: None, probes: Probes::default() }
    }
}

impl Solver for Mpir {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "mpir"
    }

    fn instrument(&mut self, probes: &Probes, _shift: Option<TensorRef>) {
        self.probes = probes.clone();
    }

    fn setup(&mut self, ctx: &mut DslCtx, sys: &DistSystem) {
        self.inner.setup(ctx, sys);
    }

    fn solve(&mut self, ctx: &mut DslCtx, sys: &DistSystem, b: TensorRef, x: TensorRef) {
        let ext = self.precision.dtype();
        let x_ext = sys.new_vector(ctx, "mpir_x", ext);
        let r_ext = sys.new_vector(ctx, "mpir_r", ext);
        let r_work = sys.new_vector(ctx, "mpir_rw", DType::F32);
        let c = sys.new_vector(ctx, "mpir_c", DType::F32);
        let res2 = ctx.scalar("mpir_res2", ext);
        let b2 = ctx.scalar("mpir_b2", ext);
        let outer = ctx.scalar("mpir_outer", DType::F32);
        let pred = ctx.scalar("mpir_pred", DType::Bool);
        self.x_ext = Some(x_ext);

        let max_outer = self.max_outer as f32;
        let tol2 = (self.rel_tol * self.rel_tol) as f32;

        let Probes { monitor, sentinel, checkpoint } = self.probes.clone();
        self.inner.instrument(
            &Probes { monitor, sentinel: sentinel.clone(), checkpoint: None },
            Some(x_ext),
        );

        ctx.label("mpir", |ctx| {
            // x_ext = x (promoted); ‖b‖² in extended precision.
            ctx.assign(x_ext, x.to(ext));
            ctx.reduce_into(b2, b.to(ext) * b.to(ext));
            ctx.assign(outer, TExpr::c_f32(0.0));
            let chk = checkpoint.map(|c| (c.setup(ctx, sys, ext), c));

            ctx.while_(
                |ctx| {
                    // Step 1: extended-precision residual + norm.
                    ctx.label("extended", |ctx| {
                        sys.residual(ctx, r_ext, b, x_ext);
                        ctx.reduce_into(res2, r_ext * r_ext);
                    });
                    // Guard the relative test with an absolute floor: for
                    // b = 0 (b2 = 0) a pure relative predicate can never
                    // pass, and for subnormal b the product b2·tol²
                    // underflows to 0 — either way the loop would burn all
                    // max_outer iterations on an (exactly) converged
                    // solution.
                    let cont = if self.rel_tol > 0.0 {
                        let thresh = (b2.ex() * tol2).max_(f32::MIN_POSITIVE);
                        outer.ex().lt(max_outer).and(res2.ex().gt(thresh))
                    } else {
                        outer.ex().lt(max_outer)
                    };
                    ctx.assign(pred, cont);
                    // Host-side detections abort the refinement loop at
                    // the next outer-iteration boundary (see bicgstab.rs).
                    if let Some(s) = &sentinel {
                        s.emit_abort_hook(ctx, pred);
                    }
                    pred
                },
                |ctx| {
                    // Step 2: round the residual to working precision and
                    // solve A c = r for the correction.
                    ctx.label("extended", |ctx| ctx.assign(r_work, r_ext.to(DType::F32)));
                    zero(ctx, c);
                    self.inner.solve(ctx, sys, r_work, c);
                    // Step 3: extended-precision update.
                    ctx.label("extended", |ctx| ctx.assign(x_ext, x_ext + c.to(ext)));
                    ctx.assign(outer, outer + 1.0f32);
                    if let Some((st, ck)) = &chk {
                        ck.emit_step(ctx, st, x_ext, outer);
                    }
                },
            );
            // Round the refined solution back to the working-precision
            // output tensor.
            ctx.assign(x, x_ext.to(DType::F32));
        });
    }
}
