//! Preconditioned Conjugate Gradient.
//!
//! The classic Krylov method for symmetric positive-definite systems —
//! all four of the paper's benchmark matrices are SPD, making PCG the
//! natural companion to the more general PBiCGStab the paper headlines.
//! Like every solver here it is expressed in TensorDSL and accepts any
//! other solver as its preconditioner.

use dsl::prelude::*;
use dsl::TExpr;

use crate::dist::DistSystem;
use crate::solvers::{zero, Probes, Solver};

pub struct Cg {
    max_iters: u32,
    rel_tol: f32,
    precond: Option<Box<dyn Solver>>,
    /// See [`Solver::instrument`].
    probes: Probes,
    shift: Option<TensorRef>,
}

impl Cg {
    pub fn new(max_iters: u32, rel_tol: f32, precond: Option<Box<dyn Solver>>) -> Cg {
        assert!(max_iters > 0);
        Cg { max_iters, rel_tol, precond, probes: Probes::default(), shift: None }
    }
}

impl Solver for Cg {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "cg"
    }

    fn instrument(&mut self, probes: &Probes, shift: Option<TensorRef>) {
        self.probes = probes.clone();
        self.shift = shift;
    }

    fn setup(&mut self, ctx: &mut DslCtx, sys: &DistSystem) {
        if let Some(p) = self.precond.as_mut() {
            p.setup(ctx, sys);
        }
    }

    fn solve(&mut self, ctx: &mut DslCtx, sys: &DistSystem, b: TensorRef, x: TensorRef) {
        let r = sys.new_vector(ctx, "cg_r", DType::F32);
        let z = sys.new_vector(ctx, "cg_z", DType::F32);
        let p = sys.new_vector(ctx, "cg_p", DType::F32);
        let q = sys.new_vector(ctx, "cg_q", DType::F32);
        let rz = ctx.scalar("cg_rz", DType::F32);
        let rz_old = ctx.scalar("cg_rz_old", DType::F32);
        let alpha = ctx.scalar("cg_alpha", DType::F32);
        let res2 = ctx.scalar("cg_res2", DType::F32);
        let b2 = ctx.scalar("cg_b2", DType::F32);
        let iter = ctx.scalar("cg_iter", DType::F32);
        let pred = ctx.scalar("cg_pred", DType::Bool);

        let max_iters = self.max_iters as f32;
        let tol2 = self.rel_tol * self.rel_tol;

        ctx.label("cg", |ctx| {
            sys.residual(ctx, r, b, x);
            match self.precond.as_mut() {
                Some(m) => {
                    zero(ctx, z);
                    ctx.label("precond", |ctx| m.solve(ctx, sys, r, z));
                }
                None => ctx.copy(r, z),
            }
            ctx.copy(z, p);
            ctx.label("reduce", |ctx| {
                ctx.reduce_into(rz_old, r * z);
                ctx.reduce_into(b2, b * b);
                ctx.reduce_into(res2, r * r);
            });
            ctx.assign(iter, TExpr::c_f32(0.0));
            let Probes { monitor, sentinel, checkpoint } = self.probes.clone();
            let chk = checkpoint.map(|c| (c.setup(ctx, sys, DType::F32), c));

            ctx.while_(
                |ctx| {
                    // Absolute floor guards b = 0 / subnormal-b underflow
                    // of the relative threshold (see bicgstab.rs).
                    let cont = if tol2 > 0.0 {
                        let thresh = (b2.ex() * tol2).max_(f32::MIN_POSITIVE);
                        iter.ex().lt(max_iters).and(res2.ex().gt(thresh))
                    } else {
                        iter.ex().lt(max_iters)
                    };
                    ctx.assign(pred, cont);
                    // Host-side detections abort the loop at the next
                    // iteration boundary (see bicgstab.rs).
                    if let Some(s) = &sentinel {
                        s.emit_abort_hook(ctx, pred);
                    }
                    pred
                },
                |ctx| {
                    ctx.label("spmv", |ctx| sys.spmv(ctx, q, p));
                    let pq = ctx.scalar("cg_pq", DType::F32);
                    ctx.label("reduce", |ctx| ctx.reduce_into(pq, p * q));
                    ctx.assign(alpha, TExpr::select(pq.ex().eq_(0.0f32), 0.0f32, rz_old / pq));
                    ctx.label("elementwise", |ctx| {
                        ctx.assign(x, x + p * alpha);
                        ctx.assign(r, r - q * alpha);
                    });
                    match self.precond.as_mut() {
                        Some(m) => {
                            zero(ctx, z);
                            ctx.label("precond", |ctx| m.solve(ctx, sys, r, z));
                        }
                        None => ctx.copy(r, z),
                    }
                    let beta = ctx.scalar("cg_beta", DType::F32);
                    ctx.label("reduce", |ctx| ctx.reduce_into(rz, r * z));
                    ctx.assign(beta, TExpr::select(rz_old.ex().eq_(0.0f32), 0.0f32, rz / rz_old));
                    ctx.label("elementwise", |ctx| ctx.assign(p, z + p * beta));
                    ctx.assign(rz_old, rz.ex());
                    ctx.label("reduce", |ctx| ctx.reduce_into(res2, r * r));
                    ctx.assign(iter, iter + 1.0f32);
                    if let Some(mon) = &monitor {
                        mon.record(ctx, x, self.shift, sentinel.clone());
                    }
                    if let Some((st, ck)) = &chk {
                        ck.emit_step(ctx, st, x, iter);
                    }
                },
            );
        });
    }
}
