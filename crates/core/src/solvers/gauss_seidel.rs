//! Gauss-Seidel, level-set scheduled (paper §V-D).
//!
//! The sweep updates components in place,
//!
//! ```text
//! x_i ← ( b_i − Σ_{j≠i} a_ij x_j ) / a_ii
//! ```
//!
//! using already-updated values for local rows in earlier levels — the
//! inherently sequential dependency the paper breaks with Level-Set
//! Scheduling (§V-A): rows of one level run concurrently on the tile's six
//! workers, separated by the lightweight IPUTHREADING barriers. Across
//! tiles the sweep is block-Jacobi: halo values are refreshed once per
//! sweep by the blockwise §IV exchange and held fixed within it.

use dsl::prelude::*;
use graph::codelet::{CodeletId, Kernel};

use crate::dist::DistSystem;
use crate::solvers::Solver;

pub struct GaussSeidel {
    sweeps: u32,
    /// Follow each forward sweep with a backward sweep (SSOR-like
    /// symmetric smoothing).
    symmetric: bool,
    /// Standalone-solver mode: stop early once ‖b − A x‖ ≤ rel_tol·‖b‖
    /// (checked on the device after every sweep). `0.0` = fixed sweeps,
    /// the smoother/preconditioner mode.
    rel_tol: f32,
    fwd: Option<CodeletId>,
    bwd: Option<CodeletId>,
}

impl GaussSeidel {
    pub fn new(sweeps: u32, symmetric: bool) -> GaussSeidel {
        assert!(sweeps > 0, "gauss-seidel needs at least one sweep");
        GaussSeidel { sweeps, symmetric, rel_tol: 0.0, fwd: None, bwd: None }
    }

    /// The standalone-solver variant (paper §V-D: GS is "valuable as a
    /// standalone solver in finite volume methods"): sweep until the
    /// relative residual drops below `rel_tol` or `max_sweeps` is reached.
    pub fn with_tolerance(max_sweeps: u32, rel_tol: f32, symmetric: bool) -> GaussSeidel {
        assert!(max_sweeps > 0 && rel_tol > 0.0);
        GaussSeidel { sweeps: max_sweeps, symmetric, rel_tol, fwd: None, bwd: None }
    }

    /// Emit exactly `sweeps` forward sweeps (smoother building block used
    /// by the two-grid cycle). Requires `setup()`.
    pub fn solve_sweeps(
        &self,
        ctx: &mut DslCtx,
        sys: &DistSystem,
        b: TensorRef,
        x: TensorRef,
        sweeps: u32,
    ) {
        let fwd = self.fwd.expect("setup() not called");
        ctx.label("gauss_seidel", |ctx| {
            ctx.repeat(sweeps, |ctx| {
                self.sweep(ctx, sys, fwd, &sys.fwd_levels, b, x);
            });
        });
    }

    fn sweep(
        &self,
        ctx: &mut DslCtx,
        sys: &DistSystem,
        codelet: CodeletId,
        levels: &[Vec<Vec<usize>>],
        b: TensorRef,
        x: TensorRef,
    ) {
        sys.halo_exchange(ctx, x);
        let mut vertices = Vec::with_capacity(sys.num_tiles());
        for (t, vc) in sys.vec_chunks.iter().enumerate() {
            if vc.owned == 0 {
                continue;
            }
            let mut operands = vec![
                TensorSlice { tensor: x.id, start: vc.start, len: vc.total },
                TensorSlice { tensor: b.id, start: vc.start, len: vc.owned },
            ];
            operands.extend(crate::dist::matrix_operands(sys, t));
            vertices.push(Vertex {
                tile: vc.tile,
                codelet,
                operands,
                kind: VertexKind::LevelSet { levels: levels[t].clone() },
            });
        }
        ctx.execute("gauss_seidel", vertices);
    }
}

impl Solver for GaussSeidel {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "gauss_seidel"
    }

    fn setup(&mut self, ctx: &mut DslCtx, _sys: &DistSystem) {
        // One row update for both directions: the level order each vertex
        // carries is the sweep's direction.
        self.fwd = Some(ctx.add_codelet(Kernel::GaussSeidel.codelet("gs_forward")));
        if self.symmetric {
            self.bwd = Some(ctx.add_codelet(Kernel::GaussSeidel.codelet("gs_backward")));
        }
    }

    fn solve(&mut self, ctx: &mut DslCtx, sys: &DistSystem, b: TensorRef, x: TensorRef) {
        let fwd = self.fwd.expect("setup() not called");
        if self.rel_tol == 0.0 {
            // Smoother/preconditioner mode: a fixed number of sweeps, no
            // residual work.
            ctx.label("gauss_seidel", |ctx| {
                ctx.repeat(self.sweeps, |ctx| {
                    self.sweep(ctx, sys, fwd, &sys.fwd_levels, b, x);
                    if let Some(bwd) = self.bwd {
                        self.sweep(ctx, sys, bwd, &sys.bwd_levels, b, x);
                    }
                });
            });
            return;
        }
        // Standalone-solver mode: TensorDSL computes the residual and its
        // norm (the split the paper's §III example describes — "the
        // Gauss-Seidel solver uses TensorDSL to calculate the residual and
        // its vector norm, and CodeDSL to perform the smoothing step").
        let r = sys.new_vector(ctx, "gs_r", DType::F32);
        let res2 = ctx.scalar("gs_res2", DType::F32);
        let b2 = ctx.scalar("gs_b2", DType::F32);
        let iter = ctx.scalar("gs_iter", DType::F32);
        let pred = ctx.scalar("gs_pred", DType::Bool);
        let max_sweeps = self.sweeps as f32;
        let tol2 = self.rel_tol * self.rel_tol;
        ctx.label("gauss_seidel", |ctx| {
            ctx.reduce_into(b2, b * b);
            ctx.assign(iter, dsl::TExpr::c_f32(0.0));
            ctx.while_(
                |ctx| {
                    sys.residual(ctx, r, b, x);
                    ctx.reduce_into(res2, r * r);
                    ctx.assign(pred, iter.ex().lt(max_sweeps).and(res2.ex().gt(b2 * tol2)));
                    pred
                },
                |ctx| {
                    self.sweep(ctx, sys, fwd, &sys.fwd_levels, b, x);
                    if let Some(bwd) = self.bwd {
                        self.sweep(ctx, sys, bwd, &sys.bwd_levels, b, x);
                    }
                    ctx.assign(iter, iter + 1.0f32);
                },
            );
        });
    }
}
