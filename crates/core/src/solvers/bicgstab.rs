//! Preconditioned BiCGStab (paper §V-C, Fig 4).
//!
//! Van der Vorst's stabilised bi-conjugate gradient method; any [`Solver`]
//! serves as the preconditioner `M`. The TensorDSL rendition below tracks
//! the paper's Figure 4 closely — compare:
//!
//! ```text
//! Tensor yA = preconditioner.solve(pA);
//! AyA = A * yA;                       // SpMV
//! alpha = rA0rA / (rA0 * AyA).reduce();
//! Tensor sA = rA - alpha * AyA;
//! ```
//!
//! All vector work is working-precision f32 — the paper's Figures 9/10
//! show it stalls near 1e-6 relative residual without iterative
//! refinement, which is exactly what this implementation reproduces.

use dsl::prelude::*;
use dsl::TExpr;

use crate::dist::DistSystem;
use crate::solvers::{zero, Probes, Solver};

pub struct BiCgStab {
    max_iters: u32,
    /// Relative residual target; `0.0` runs exactly `max_iters` iterations
    /// (the fixed-iteration inner mode MPIR uses).
    rel_tol: f32,
    precond: Option<Box<dyn Solver>>,
    /// See [`Solver::instrument`].
    probes: Probes,
    /// When this solver refines a correction on top of an extended base
    /// solution (MPIR step 2), the base tensor for true-residual records.
    shift: Option<TensorRef>,
}

impl BiCgStab {
    pub fn new(max_iters: u32, rel_tol: f32, precond: Option<Box<dyn Solver>>) -> BiCgStab {
        assert!(max_iters > 0);
        BiCgStab { max_iters, rel_tol, precond, probes: Probes::default(), shift: None }
    }
}

impl Solver for BiCgStab {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "bicgstab"
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
        // Workspace (fresh per solve-site; symbolic execution runs once).
        let r = sys.new_vector(ctx, "bicg_r", DType::F32);
        let r0 = sys.new_vector(ctx, "bicg_r0", DType::F32);
        let p = sys.new_vector(ctx, "bicg_p", DType::F32);
        let v = sys.new_vector(ctx, "bicg_v", DType::F32);
        let y = sys.new_vector(ctx, "bicg_y", DType::F32);
        let s = sys.new_vector(ctx, "bicg_s", DType::F32);
        let z = sys.new_vector(ctx, "bicg_z", DType::F32);
        let t = sys.new_vector(ctx, "bicg_t", DType::F32);
        let rho = ctx.scalar("bicg_rho", DType::F32);
        let rho_old = ctx.scalar("bicg_rho_old", DType::F32);
        let alpha = ctx.scalar("bicg_alpha", DType::F32);
        let omega = ctx.scalar("bicg_omega", DType::F32);
        let res2 = ctx.scalar("bicg_res2", DType::F32);
        let b2 = ctx.scalar("bicg_b2", DType::F32);
        let iter = ctx.scalar("bicg_iter", DType::F32);
        let pred = ctx.scalar("bicg_pred", DType::Bool);

        let max_iters = self.max_iters as f32;
        let tol2 = self.rel_tol * self.rel_tol;

        ctx.label("bicgstab", |ctx| {
            // r = b - A x ; r0 = r ; p = r ; rho_old = r0·r ; b2 = b·b.
            sys.residual(ctx, r, b, x);
            ctx.copy(r, r0);
            ctx.copy(r, p);
            ctx.label("reduce", |ctx| {
                ctx.reduce_into(rho_old, r0 * r);
                ctx.reduce_into(b2, b * b);
                ctx.reduce_into(res2, r * r);
            });
            ctx.assign(iter, TExpr::c_f32(0.0));
            let Probes { monitor, sentinel, checkpoint } = self.probes.clone();
            let chk = checkpoint.map(|c| (c.setup(ctx, sys, DType::F32), c));

            ctx.while_(
                |ctx| {
                    // Continue while iter < max and (no tolerance, or
                    // res2 > max(tol² · b2, tiny)). NaNs compare false ⇒
                    // breakdown terminates the loop, as on the real
                    // framework's singularity early-exit. The absolute
                    // floor guards b = 0 (b2 = 0 makes a pure relative
                    // test unsatisfiable) and subnormal b where b2·tol²
                    // underflows to 0 in f32.
                    let cont = if tol2 > 0.0 {
                        let thresh = (b2.ex() * tol2).max_(f32::MIN_POSITIVE);
                        iter.ex().lt(max_iters).and(res2.ex().gt(thresh))
                    } else {
                        iter.ex().lt(max_iters)
                    };
                    ctx.assign(pred, cont);
                    // A tripped sentinel (host-side detection) overrides
                    // the predicate to false — aborts this loop and, as
                    // every enclosing loop carries the same hook, the
                    // whole solver nest.
                    if let Some(s) = &sentinel {
                        s.emit_abort_hook(ctx, pred);
                    }
                    pred
                },
                |ctx| {
                    // y = M⁻¹ p ; v = A y.
                    match self.precond.as_mut() {
                        Some(m) => {
                            zero(ctx, y);
                            ctx.label("precond", |ctx| m.solve(ctx, sys, p, y));
                        }
                        None => ctx.copy(p, y),
                    }
                    ctx.label("spmv", |ctx| sys.spmv(ctx, v, y));
                    // alpha = rho_old / (r0·v), guarded against the
                    // breakdown r0·v = 0 (e.g. after exact convergence
                    // when running fixed-iteration mode for MPIR).
                    let r0v = ctx.scalar("bicg_r0v", DType::F32);
                    ctx.label("reduce", |ctx| ctx.reduce_into(r0v, r0 * v));
                    ctx.assign(alpha, TExpr::select(r0v.ex().eq_(0.0f32), 0.0f32, rho_old / r0v));
                    // s = r - alpha v.
                    ctx.label("elementwise", |ctx| ctx.assign(s, r - v * alpha));
                    // z = M⁻¹ s ; t = A z.
                    match self.precond.as_mut() {
                        Some(m) => {
                            zero(ctx, z);
                            ctx.label("precond", |ctx| m.solve(ctx, sys, s, z));
                        }
                        None => ctx.copy(s, z),
                    }
                    ctx.label("spmv", |ctx| sys.spmv(ctx, t, z));
                    // omega = (t·s)/(t·t), guarded against t = 0 (exact
                    // convergence after the first half-step).
                    let ts = ctx.scalar("bicg_ts", DType::F32);
                    let tt = ctx.scalar("bicg_tt", DType::F32);
                    ctx.label("reduce", |ctx| {
                        ctx.reduce_into(ts, t * s);
                        ctx.reduce_into(tt, t * t);
                    });
                    ctx.assign(omega, TExpr::select(tt.ex().eq_(0.0f32), 0.0f32, ts / tt));
                    // x += alpha y + omega z ; r = s - omega t.
                    ctx.label("elementwise", |ctx| {
                        ctx.assign(x, x + y * alpha + z * omega);
                        ctx.assign(r, s - t * omega);
                    });
                    ctx.label("reduce", |ctx| {
                        ctx.reduce_into(res2, r * r);
                        ctx.reduce_into(rho, r0 * r);
                    });
                    // BiCG breakdown (r ⟂ r0, or ω = 0): restart the
                    // Krylov process from the current residual — the
                    // framework's "early exit due to singularity" path.
                    let brk = ctx.scalar("bicg_breakdown", DType::Bool);
                    ctx.assign(brk, rho.ex().abs().le(res2 * 1e-8f32).or(omega.ex().eq_(0.0f32)));
                    ctx.if_else(
                        brk,
                        |ctx| {
                            ctx.copy(r, r0);
                            ctx.copy(r, p);
                            ctx.reduce_into(rho_old, r0 * r);
                        },
                        |ctx| {
                            // beta = (rho/rho_old)(alpha/omega);
                            // p = r + beta (p - omega v).
                            let beta = ctx.scalar("bicg_beta", DType::F32);
                            ctx.assign(
                                beta,
                                TExpr::select(
                                    rho_old.ex().eq_(0.0f32),
                                    0.0f32,
                                    (rho / rho_old) * (alpha / omega),
                                ),
                            );
                            ctx.label("elementwise", |ctx| {
                                ctx.assign(p, r + (p - v * omega) * beta)
                            });
                            ctx.assign(rho_old, rho.ex());
                        },
                    );
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
