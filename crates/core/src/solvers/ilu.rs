//! Incomplete LU factorisation preconditioners (paper §V-E).
//!
//! **ILU(0)** computes approximate factors `A ≈ L U` on the original
//! sparsity pattern (no fill-in); **DILU** computes only the diagonal of
//! `U`, with `M = (D + L) D⁻¹ (D + U)` sharing `A`'s off-diagonals. Both
//! phases — factorisation and the forward/backward substitutions — run on
//! the device, level-set scheduled across each tile's six workers (§V-A).
//!
//! Tile locality: the factorisation and substitutions operate on each
//! tile's *local block* (halo columns are disregarded), i.e. the
//! preconditioner is block-Jacobi-ILU across tiles — exactly the
//! behaviour the paper observes and discusses in §VI-D ("decomposing the
//! domain across such a large number of small subdomains has a substantial
//! negative impact on the effectiveness of the ILU preconditioner, as it
//! completely disregards halo values").

use dsl::prelude::*;
use graph::codelet::{CodeletId, Kernel};

use crate::dist::{matrix_operands, DistSystem};
use crate::solvers::Solver;

/// ILU(0): full incomplete factors on the original pattern.
pub struct Ilu0 {
    lu_vals: Option<TensorRef>,
    lu_diag: Option<TensorRef>,
    factorize: Option<CodeletId>,
    fwd: Option<CodeletId>,
    bwd: Option<CodeletId>,
}

impl Ilu0 {
    pub fn new() -> Ilu0 {
        Ilu0 { lu_vals: None, lu_diag: None, factorize: None, fwd: None, bwd: None }
    }
}

impl Default for Ilu0 {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver for Ilu0 {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "ilu0"
    }

    fn setup(&mut self, ctx: &mut DslCtx, sys: &DistSystem) {
        // Working copies of the matrix data: the factorisation overwrites
        // them, the original matrix stays intact for SpMVs.
        let lu_vals = ctx.alloc_like(sys.vals, DType::F32);
        let lu_diag = ctx.alloc_like(sys.diag, DType::F32);
        ctx.copy(sys.vals, lu_vals);
        ctx.copy(sys.diag, lu_diag);
        self.lu_vals = Some(lu_vals);
        self.lu_diag = Some(lu_diag);
        self.factorize = Some(ctx.add_codelet(ilu0_factorize_codelet()));
        self.fwd = Some(ctx.add_codelet(Kernel::Forward { divide: false }.codelet("ilu_forward")));
        self.bwd = Some(ctx.add_codelet(Kernel::Backward { divide: true }.codelet("ilu_backward")));

        // The factorisation itself: one level-set vertex per tile, driven
        // by the forward dependency levels.
        let mut vertices = Vec::with_capacity(sys.num_tiles());
        for (t, vc) in sys.vec_chunks.iter().enumerate() {
            if vc.owned == 0 {
                continue;
            }
            let mo = matrix_operands(sys, t);
            let operands = vec![
                // lu_vals / lu_diag share chunk layout with vals / diag.
                TensorSlice { tensor: lu_vals.id, start: mo[1].start, len: mo[1].len },
                TensorSlice { tensor: lu_diag.id, start: mo[0].start, len: mo[0].len },
                mo[2], // cols
                mo[3], // rptr
            ];
            vertices.push(Vertex {
                tile: vc.tile,
                codelet: self.factorize.unwrap(),
                operands,
                kind: VertexKind::LevelSet { levels: sys.fwd_levels[t].clone() },
            });
        }
        ctx.label("ilu_factorize", |ctx| ctx.execute("ilu0_factorize", vertices));
    }

    fn solve(&mut self, ctx: &mut DslCtx, sys: &DistSystem, b: TensorRef, x: TensorRef) {
        let lu_vals = self.lu_vals.expect("setup() not called");
        let lu_diag = self.lu_diag.expect("setup() not called");
        ctx.label("ilu_solve", |ctx| {
            substitution(ctx, sys, self.fwd.unwrap(), &sys.fwd_levels, lu_vals, lu_diag, b, x);
            substitution(ctx, sys, self.bwd.unwrap(), &sys.bwd_levels, lu_vals, lu_diag, x, x);
        });
    }
}

/// DILU: diagonal-only incomplete factorisation.
pub struct Dilu {
    d: Option<TensorRef>,
    factorize: Option<CodeletId>,
    fwd: Option<CodeletId>,
    bwd: Option<CodeletId>,
}

impl Dilu {
    pub fn new() -> Dilu {
        Dilu { d: None, factorize: None, fwd: None, bwd: None }
    }
}

impl Default for Dilu {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver for Dilu {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "dilu"
    }

    fn setup(&mut self, ctx: &mut DslCtx, sys: &DistSystem) {
        let d = ctx.alloc_like(sys.diag, DType::F32);
        ctx.copy(sys.diag, d);
        self.d = Some(d);
        self.factorize = Some(ctx.add_codelet(dilu_factorize_codelet()));
        self.fwd = Some(ctx.add_codelet(Kernel::Forward { divide: true }.codelet("dilu_forward")));
        self.bwd =
            Some(ctx.add_codelet(Kernel::Backward { divide: false }.codelet("dilu_backward")));

        let mut vertices = Vec::with_capacity(sys.num_tiles());
        for (t, vc) in sys.vec_chunks.iter().enumerate() {
            if vc.owned == 0 {
                continue;
            }
            let mo = matrix_operands(sys, t);
            let operands = vec![
                TensorSlice { tensor: d.id, start: mo[0].start, len: mo[0].len },
                mo[1], // vals (read-only for DILU)
                mo[2], // cols
                mo[3], // rptr
            ];
            vertices.push(Vertex {
                tile: vc.tile,
                codelet: self.factorize.unwrap(),
                operands,
                kind: VertexKind::LevelSet { levels: sys.fwd_levels[t].clone() },
            });
        }
        ctx.label("dilu_factorize", |ctx| ctx.execute("dilu_factorize", vertices));
    }

    fn solve(&mut self, ctx: &mut DslCtx, sys: &DistSystem, b: TensorRef, x: TensorRef) {
        let d = self.d.expect("setup() not called");
        ctx.label("dilu_solve", |ctx| {
            // Forward: (D + L) w = b, dividing by d_i.
            substitution(ctx, sys, self.fwd.unwrap(), &sys.fwd_levels, sys.vals, d, b, x);
            // Backward: z_i = w_i − d_i⁻¹ Σ_{j>i} a_ij z_j.
            substitution(ctx, sys, self.bwd.unwrap(), &sys.bwd_levels, sys.vals, d, x, x);
        });
    }
}

/// Emit one substitution pass. When `rhs == out` the codelet updates
/// in place (the backward pass).
#[allow(clippy::too_many_arguments)]
fn substitution(
    ctx: &mut DslCtx,
    sys: &DistSystem,
    codelet: CodeletId,
    levels: &[Vec<Vec<usize>>],
    lu_vals: TensorRef,
    lu_diag: TensorRef,
    rhs: TensorRef,
    out: TensorRef,
) {
    let in_place = rhs.id == out.id;
    let mut vertices = Vec::with_capacity(sys.num_tiles());
    for (t, vc) in sys.vec_chunks.iter().enumerate() {
        if vc.owned == 0 {
            continue;
        }
        let mo = matrix_operands(sys, t);
        let mut operands = vec![TensorSlice { tensor: out.id, start: vc.start, len: vc.owned }];
        if !in_place {
            operands.push(TensorSlice { tensor: rhs.id, start: vc.start, len: vc.owned });
        }
        operands.push(TensorSlice { tensor: lu_vals.id, start: mo[1].start, len: mo[1].len });
        operands.push(TensorSlice { tensor: lu_diag.id, start: mo[0].start, len: mo[0].len });
        operands.push(mo[2]);
        operands.push(mo[3]);
        vertices.push(Vertex {
            tile: vc.tile,
            codelet,
            operands,
            kind: VertexKind::LevelSet { levels: levels[t].clone() },
        });
    }
    ctx.execute("substitution", vertices);
}

/// ILU(0) factorisation, per-row (level-set; local 0 = row `i`).
///
/// IKJ Gaussian elimination restricted to the local pattern:
/// ```text
/// for k in pattern(i), k < i (ascending):
///     l_ik = a_ik / u_kk            (stored in place of a_ik)
///     a_ii -= l_ik * a_ki            (diagonal update, if a_ki exists)
///     for j in pattern(i), j > k, j local:
///         a_ij -= l_ik * a_kj        (if a_kj exists)
/// ```
/// Params: `lu_vals` (mut) · `lu_diag` (mut) · `cols` · `rptr`.
fn ilu0_factorize_codelet() -> graph::codelet::Codelet {
    let (mut cb, row) = CodeDsl::new_level_set("ilu0_factorize");
    let lvals = cb.param(DType::F32, true);
    let ldiag = cb.param(DType::F32, true);
    let cols = cb.param(DType::I32, false);
    let rptr = cb.param(DType::I32, false);
    let i = row.get();
    let nrows = cb.let_(ldiag.len());
    let lo = cb.let_(rptr.at(i.clone()));
    let hi = cb.let_(rptr.at(i.clone() + 1));
    cb.for_(lo.clone(), hi.clone(), Val::i32(1), |cb, kk| {
        let k = cb.let_(cols.at(kk.clone()));
        // Lower-triangular, local entry (k < i implies k < nrows).
        cb.if_(k.clone().lt(i.clone()), |cb| {
            let lik = cb.let_(lvals.at(kk.clone()) / ldiag.at(k.clone()));
            cb.store(lvals, kk.clone(), lik.clone());
            let klo = cb.let_(rptr.at(k.clone()));
            let khi = cb.let_(rptr.at(k.clone() + 1));
            // Diagonal update: a_ii -= l_ik * a_ki.
            cb.for_(klo.clone(), khi.clone(), Val::i32(1), |cb, mm| {
                cb.if_(cols.at(mm.clone()).eq_(i.clone()), |cb| {
                    cb.store(ldiag, i.clone(), ldiag.at(i.clone()) - lik.clone() * lvals.at(mm));
                });
            });
            // Row updates: a_ij -= l_ik * a_kj for j > k in the pattern.
            cb.for_(lo.clone(), hi.clone(), Val::i32(1), |cb, jj| {
                let j = cb.let_(cols.at(jj.clone()));
                cb.if_(j.clone().gt(k.clone()).and(j.clone().lt(nrows.clone())), |cb| {
                    cb.for_(klo.clone(), khi.clone(), Val::i32(1), |cb, mm| {
                        cb.if_(cols.at(mm.clone()).eq_(j.clone()), |cb| {
                            cb.store(
                                lvals,
                                jj.clone(),
                                lvals.at(jj.clone()) - lik.clone() * lvals.at(mm),
                            );
                        });
                    });
                });
            });
        });
    });
    cb.build()
}

/// DILU factorisation, per-row: `d_i = a_ii − Σ_{k<i} a_ik a_ki / d_k`.
/// Params: `d` (mut) · `vals` · `cols` · `rptr`.
fn dilu_factorize_codelet() -> graph::codelet::Codelet {
    let (mut cb, row) = CodeDsl::new_level_set("dilu_factorize");
    let d = cb.param(DType::F32, true);
    let vals = cb.param(DType::F32, false);
    let cols = cb.param(DType::I32, false);
    let rptr = cb.param(DType::I32, false);
    let i = row.get();
    let lo = cb.let_(rptr.at(i.clone()));
    let hi = cb.let_(rptr.at(i.clone() + 1));
    cb.for_(lo, hi, Val::i32(1), |cb, kk| {
        let k = cb.let_(cols.at(kk.clone()));
        cb.if_(k.clone().lt(i.clone()), |cb| {
            let klo = cb.let_(rptr.at(k.clone()));
            let khi = cb.let_(rptr.at(k.clone() + 1));
            cb.for_(klo, khi, Val::i32(1), |cb, mm| {
                cb.if_(cols.at(mm.clone()).eq_(i.clone()), |cb| {
                    cb.store(
                        d,
                        i.clone(),
                        d.at(i.clone()) - vals.at(kk.clone()) * vals.at(mm) / d.at(k.clone()),
                    );
                });
            });
        });
    });
    cb.build()
}
