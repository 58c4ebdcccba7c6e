//! The fused-kernel library the engine dispatches vertices to.
//!
//! Interpreting the codelet IR per vertex per iteration is the bulk of
//! host time on a solver stack. The fast path in every production sparse
//! stack (PopSparse's pre-specialised block kernels, kease-sparse-knl's
//! template-monomorphised micro-kernels) is code *selected at plan time*,
//! not interpreted. This module is that selection: when an engine is built
//! with `EngineOptions::fusion` on, [`KernelTable::build`] pattern-matches each
//! codelet's IR + operand declarations against a small library of fused,
//! monomorphised Rust kernels — modified-CSR SpMV/residual, the four
//! triangular level-set sweeps, fused element-wise maps (axpy/scale/…),
//! worker-parallel reductions and serial sums — in all three device
//! precisions (f32, double-word, emulated f64).
//!
//! The contract, enforced by `verify::assert_executor_equivalence` and the
//! unit tests below, is strict: a fused kernel must produce **bit-identical
//! values** and **identical `CycleStats`/flop/byte accounting** to the
//! interpreter. Values are exact because every kernel reproduces the
//! interpreter's arithmetic domains (`apply_bin`'s f32 / TwoF32 / f64
//! branches) operation for operation; accounting is exact because each
//! kernel charges the same [`CostModel`] calls the interpreter would,
//! hoisted out of the data loop as closed-form per-row / per-entry charges.
//! ipu-sim's cost model stays the accounting *oracle*; native code is only
//! the *data path*. Anything the matchers do not recognise — and any
//! operand whose runtime storage dtype differs from what the match assumed
//! — falls back to the interpreter, per vertex. The interpreter alone
//! (`fusion` off, the default) is the reference every kernel is compared
//! against.

use crate::codelet::{
    apply_bin, apply_un, parfor_makespan, promote, BinOp, Charge, Codelet, Expr, Lowerer,
    ParamData, ParamDecl, Stmt, UnOp, Value,
};
use crate::compute::VertexKind;
use crate::graph::Graph;
use ipu_sim::cost::{CostModel, DType, Op};
use ipu_sim::threading::level_set_cycles;
// The tests' interpreter oracle (`interp_level_set`) builds the full schedule.
#[cfg(test)]
use ipu_sim::threading::LevelSchedule;
use twofloat::{TwoF32, TwoFloat};

/// Runtime storage dtype of a parameter slice.
fn dtype_of(p: &ParamData) -> DType {
    match p {
        ParamData::F32(_) | ParamData::F32Ro(_) => DType::F32,
        ParamData::I32(_) | ParamData::I32Ro(_) => DType::I32,
        ParamData::Bool(_) | ParamData::BoolRo(_) => DType::Bool,
        ParamData::Dw(_) | ParamData::DwRo(_) => DType::DoubleWord,
        ParamData::F64(_) | ParamData::F64Ro(_) => DType::F64Emulated,
    }
}

fn as_f32s<'s>(p: &'s ParamData) -> Option<&'s [f32]> {
    match p {
        ParamData::F32(s) => Some(s),
        ParamData::F32Ro(s) => Some(s),
        _ => None,
    }
}

fn as_i32s<'s>(p: &'s ParamData) -> Option<&'s [i32]> {
    match p {
        ParamData::I32(s) => Some(s),
        ParamData::I32Ro(s) => Some(s),
        _ => None,
    }
}

/// Charge + result dtype of evaluating `e` once inside a fused loop, as
/// the lowering derives them with the *declared* dtypes standing in for
/// storage and `Local(0)` — the loop index — the only typed local. `None`
/// when the lowering cannot type `e`. Callers that rely on this must verify
/// storage dtype == declared dtype at run time (loads and stores are
/// charged at the runtime storage dtype).
fn expr_charge(e: &Expr, decls: &[ParamDecl], cost: &CostModel) -> Option<(Charge, DType)> {
    let storage: Vec<DType> = decls.iter().map(|p| p.dtype).collect();
    let mut charge = Charge::default();
    let typed = Lowerer { storage: &storage, cost }.expr(e, &[Some(DType::I32)], &mut charge)?;
    Some((charge, typed.dtype))
}

/// Generic (but charge-free) expression evaluation — semantically identical
/// to `Interp::eval` because it reuses `apply_bin`/`apply_un`/`convert`.
/// `i` substitutes for `Local(0)`, the fused loop index.
fn eval_value(e: &Expr, params: &[ParamData], i: i32) -> Value {
    match e {
        Expr::Const(v) => *v,
        Expr::Local(_) => Value::I32(i), // matchers admit only Local(0)
        Expr::ParamLen(p) => Value::I32(params[*p].len() as i32),
        Expr::Index { param, index } => {
            let k = eval_value(index, params, i).as_i64() as usize;
            params[*param].get(k)
        }
        Expr::Unary { op, arg } => apply_un(*op, eval_value(arg, params, i)).0,
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_value(lhs, params, i);
            let b = eval_value(rhs, params, i);
            apply_bin(*op, a, b).0
        }
        Expr::Convert { to, arg } => eval_value(arg, params, i).convert(*to),
        Expr::Select { cond, then, otherwise } => {
            let c = eval_value(cond, params, i).as_bool();
            let t = eval_value(then, params, i);
            let o = eval_value(otherwise, params, i);
            if c {
                t
            } else {
                o
            }
        }
    }
}

fn expr_uses_only_local0(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::ParamLen(_) => true,
        Expr::Local(l) => *l == 0,
        Expr::Index { index, .. } => expr_uses_only_local0(index),
        Expr::Unary { arg, .. } | Expr::Convert { arg, .. } => expr_uses_only_local0(arg),
        Expr::Binary { lhs, rhs, .. } => expr_uses_only_local0(lhs) && expr_uses_only_local0(rhs),
        Expr::Select { cond, then, otherwise } => {
            expr_uses_only_local0(cond)
                && expr_uses_only_local0(then)
                && expr_uses_only_local0(otherwise)
        }
    }
}

// ---------------------------------------------------------------------------
// Monomorphised expression trees: one enum per arithmetic domain, mirroring
// apply_bin's three float branches. Cross-domain edges reproduce the exact
// lift/round the dynamic promotion performs (f32 -> TwoF32 via from_f is
// exact; anything -> f64 via as_f64 is exact; narrowing rounds once, like
// Value::convert). Ops outside {+,-,*,/,neg,abs,sqrt,convert} stay on the
// generic path.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Ix {
    /// The fused loop index.
    Loop,
    /// A constant index (scalar operands are loaded as `param[0]`).
    At(usize),
}

impl Ix {
    #[inline]
    fn idx(self, i: usize) -> usize {
        match self {
            Ix::Loop => i,
            Ix::At(k) => k,
        }
    }
}

#[derive(Clone, Debug)]
enum FT {
    C(f32),
    L(usize, Ix),
    Add(Box<FT>, Box<FT>),
    Sub(Box<FT>, Box<FT>),
    Mul(Box<FT>, Box<FT>),
    Div(Box<FT>, Box<FT>),
    Neg(Box<FT>),
    Abs(Box<FT>),
    Sqrt(Box<FT>),
    /// `Value::convert(F32)` of a double-word: `to_f64() as f32`.
    FromD(Box<DT>),
    /// `Value::convert(F32)` of an emulated f64: `as f32`.
    FromQ(Box<QT>),
}

#[derive(Clone, Debug)]
enum DT {
    C(TwoF32),
    L(usize, Ix),
    /// Exact lift of an f32 (`as_dw` / `Value::convert(DoubleWord)`).
    Lift(Box<FT>),
    /// `TwoFloat::from_f64` split of an emulated f64.
    FromQ(Box<QT>),
    Add(Box<DT>, Box<DT>),
    Sub(Box<DT>, Box<DT>),
    Mul(Box<DT>, Box<DT>),
    Div(Box<DT>, Box<DT>),
    Neg(Box<DT>),
    Abs(Box<DT>),
    Sqrt(Box<DT>),
}

#[derive(Clone, Debug)]
enum QT {
    C(f64),
    L(usize, Ix),
    FromF(Box<FT>),
    FromD(Box<DT>),
    Add(Box<QT>, Box<QT>),
    Sub(Box<QT>, Box<QT>),
    Mul(Box<QT>, Box<QT>),
    Div(Box<QT>, Box<QT>),
    Neg(Box<QT>),
    Abs(Box<QT>),
    Sqrt(Box<QT>),
}

#[derive(Clone, Debug)]
enum Tree {
    F(FT),
    D(DT),
    Q(QT),
}

fn eval_f(t: &FT, ps: &[ParamData], i: usize) -> f32 {
    match t {
        FT::C(v) => *v,
        FT::L(p, ix) => match &ps[*p] {
            ParamData::F32(s) => s[ix.idx(i)],
            ParamData::F32Ro(s) => s[ix.idx(i)],
            _ => unreachable!("tree load dtype verified before dispatch"),
        },
        FT::Add(a, b) => eval_f(a, ps, i) + eval_f(b, ps, i),
        FT::Sub(a, b) => eval_f(a, ps, i) - eval_f(b, ps, i),
        FT::Mul(a, b) => eval_f(a, ps, i) * eval_f(b, ps, i),
        FT::Div(a, b) => eval_f(a, ps, i) / eval_f(b, ps, i),
        FT::Neg(a) => -eval_f(a, ps, i),
        FT::Abs(a) => eval_f(a, ps, i).abs(),
        FT::Sqrt(a) => eval_f(a, ps, i).sqrt(),
        FT::FromD(a) => eval_d(a, ps, i).to_f64() as f32,
        FT::FromQ(a) => eval_q(a, ps, i) as f32,
    }
}

fn eval_d(t: &DT, ps: &[ParamData], i: usize) -> TwoF32 {
    match t {
        DT::C(v) => *v,
        DT::L(p, ix) => match &ps[*p] {
            ParamData::Dw(s) => s[ix.idx(i)],
            ParamData::DwRo(s) => s[ix.idx(i)],
            _ => unreachable!("tree load dtype verified before dispatch"),
        },
        DT::Lift(a) => TwoFloat::from_f(eval_f(a, ps, i)),
        DT::FromQ(a) => TwoFloat::from_f64(eval_q(a, ps, i)),
        DT::Add(a, b) => eval_d(a, ps, i) + eval_d(b, ps, i),
        DT::Sub(a, b) => eval_d(a, ps, i) - eval_d(b, ps, i),
        DT::Mul(a, b) => eval_d(a, ps, i) * eval_d(b, ps, i),
        DT::Div(a, b) => eval_d(a, ps, i) / eval_d(b, ps, i),
        DT::Neg(a) => -eval_d(a, ps, i),
        DT::Abs(a) => eval_d(a, ps, i).abs(),
        DT::Sqrt(a) => eval_d(a, ps, i).sqrt(),
    }
}

fn eval_q(t: &QT, ps: &[ParamData], i: usize) -> f64 {
    match t {
        QT::C(v) => *v,
        QT::L(p, ix) => match &ps[*p] {
            ParamData::F64(s) => s[ix.idx(i)].0,
            ParamData::F64Ro(s) => s[ix.idx(i)].0,
            _ => unreachable!("tree load dtype verified before dispatch"),
        },
        QT::FromF(a) => eval_f(a, ps, i) as f64,
        QT::FromD(a) => eval_d(a, ps, i).to_f64(),
        QT::Add(a, b) => eval_q(a, ps, i) + eval_q(b, ps, i),
        QT::Sub(a, b) => eval_q(a, ps, i) - eval_q(b, ps, i),
        QT::Mul(a, b) => eval_q(a, ps, i) * eval_q(b, ps, i),
        QT::Div(a, b) => eval_q(a, ps, i) / eval_q(b, ps, i),
        QT::Neg(a) => -eval_q(a, ps, i),
        QT::Abs(a) => eval_q(a, ps, i).abs(),
        QT::Sqrt(a) => eval_q(a, ps, i).sqrt(),
    }
}

fn eval_tree(t: &Tree, ps: &[ParamData], i: usize) -> Value {
    match t {
        Tree::F(f) => Value::F32(eval_f(f, ps, i)),
        Tree::D(d) => Value::Dw(eval_d(d, ps, i)),
        Tree::Q(q) => Value::F64(eval_q(q, ps, i)),
    }
}

fn tree_dtype(t: &Tree) -> DType {
    match t {
        Tree::F(_) => DType::F32,
        Tree::D(_) => DType::DoubleWord,
        Tree::Q(_) => DType::F64Emulated,
    }
}

/// Lift a tree into a (weakly) higher domain, exactly as dynamic promotion
/// would lift the corresponding value.
fn lift_tree(t: Tree, to: DType) -> Option<Tree> {
    match (t, to) {
        (t @ Tree::F(_), DType::F32) | (t @ Tree::D(_), DType::DoubleWord) => Some(t),
        (t @ Tree::Q(_), DType::F64Emulated) => Some(t),
        (Tree::F(f), DType::DoubleWord) => Some(Tree::D(DT::Lift(Box::new(f)))),
        (Tree::F(f), DType::F64Emulated) => Some(Tree::Q(QT::FromF(Box::new(f)))),
        (Tree::D(d), DType::F64Emulated) => Some(Tree::Q(QT::FromD(Box::new(d)))),
        _ => None,
    }
}

/// `Value::convert` as a tree edge — also handles narrowing.
fn convert_tree(t: Tree, to: DType) -> Option<Tree> {
    match to {
        DType::F32 => Some(Tree::F(match t {
            Tree::F(f) => f,
            Tree::D(d) => FT::FromD(Box::new(d)),
            Tree::Q(q) => FT::FromQ(Box::new(q)),
        })),
        DType::DoubleWord => Some(Tree::D(match t {
            Tree::D(d) => d,
            Tree::F(f) => DT::Lift(Box::new(f)),
            Tree::Q(q) => DT::FromQ(Box::new(q)),
        })),
        DType::F64Emulated => Some(Tree::Q(match t {
            Tree::Q(q) => q,
            Tree::F(f) => QT::FromF(Box::new(f)),
            Tree::D(d) => QT::FromD(Box::new(d)),
        })),
        _ => None,
    }
}

fn bin_tree(op: BinOp, a: Tree, b: Tree) -> Option<Tree> {
    let dt = promote(tree_dtype(&a), tree_dtype(&b));
    let (a, b) = (lift_tree(a, dt)?, lift_tree(b, dt)?);
    Some(match (a, b) {
        (Tree::F(x), Tree::F(y)) => Tree::F(match op {
            BinOp::Add => FT::Add(Box::new(x), Box::new(y)),
            BinOp::Sub => FT::Sub(Box::new(x), Box::new(y)),
            BinOp::Mul => FT::Mul(Box::new(x), Box::new(y)),
            BinOp::Div => FT::Div(Box::new(x), Box::new(y)),
            _ => return None,
        }),
        (Tree::D(x), Tree::D(y)) => Tree::D(match op {
            BinOp::Add => DT::Add(Box::new(x), Box::new(y)),
            BinOp::Sub => DT::Sub(Box::new(x), Box::new(y)),
            BinOp::Mul => DT::Mul(Box::new(x), Box::new(y)),
            BinOp::Div => DT::Div(Box::new(x), Box::new(y)),
            _ => return None,
        }),
        (Tree::Q(x), Tree::Q(y)) => Tree::Q(match op {
            BinOp::Add => QT::Add(Box::new(x), Box::new(y)),
            BinOp::Sub => QT::Sub(Box::new(x), Box::new(y)),
            BinOp::Mul => QT::Mul(Box::new(x), Box::new(y)),
            BinOp::Div => QT::Div(Box::new(x), Box::new(y)),
            _ => return None,
        }),
        _ => unreachable!("both sides lifted to the same domain"),
    })
}

fn un_tree(op: UnOp, a: Tree) -> Option<Tree> {
    Some(match a {
        Tree::F(x) => Tree::F(match op {
            UnOp::Neg => FT::Neg(Box::new(x)),
            UnOp::Abs => FT::Abs(Box::new(x)),
            UnOp::Sqrt => FT::Sqrt(Box::new(x)),
            UnOp::Not => return None,
        }),
        Tree::D(x) => Tree::D(match op {
            UnOp::Neg => DT::Neg(Box::new(x)),
            UnOp::Abs => DT::Abs(Box::new(x)),
            UnOp::Sqrt => DT::Sqrt(Box::new(x)),
            UnOp::Not => return None,
        }),
        Tree::Q(x) => Tree::Q(match op {
            UnOp::Neg => QT::Neg(Box::new(x)),
            UnOp::Abs => QT::Abs(Box::new(x)),
            UnOp::Sqrt => QT::Sqrt(Box::new(x)),
            UnOp::Not => return None,
        }),
    })
}

/// Compile an expression into a monomorphised tree. `None` is not an error
/// — the kernel simply evaluates generically (still fused, still exact).
fn compile_tree(e: &Expr, decls: &[ParamDecl]) -> Option<Tree> {
    match e {
        Expr::Const(Value::F32(v)) => Some(Tree::F(FT::C(*v))),
        Expr::Const(Value::Dw(v)) => Some(Tree::D(DT::C(*v))),
        Expr::Const(Value::F64(v)) => Some(Tree::Q(QT::C(*v))),
        Expr::Const(_) => None,
        Expr::Index { param, index } => {
            let ix = match index.as_ref() {
                Expr::Local(0) => Ix::Loop,
                Expr::Const(Value::I32(k)) if *k >= 0 => Ix::At(*k as usize),
                _ => return None,
            };
            match decls.get(*param)?.dtype {
                DType::F32 => Some(Tree::F(FT::L(*param, ix))),
                DType::DoubleWord => Some(Tree::D(DT::L(*param, ix))),
                DType::F64Emulated => Some(Tree::Q(QT::L(*param, ix))),
                _ => None,
            }
        }
        Expr::Unary { op, arg } => un_tree(*op, compile_tree(arg, decls)?),
        Expr::Binary { op, lhs, rhs } => {
            bin_tree(*op, compile_tree(lhs, decls)?, compile_tree(rhs, decls)?)
        }
        Expr::Convert { to, arg } => convert_tree(compile_tree(arg, decls)?, *to),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The kernels.
// ---------------------------------------------------------------------------

/// Modified-CSR SpMV / residual over the `build_spmv_codelet` template.
/// `x`/`y`/`b` storage may be any of f32 / double-word / emulated f64 (MPIR
/// binds the same codelet at several precisions); the matrix operands must
/// be f32 values + i32 topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpmvKernel {
    residual: bool,
}

/// Which of the four triangular level-set sweeps this codelet is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SubstKind {
    /// `ilu_forward` / `dilu_forward`: `w_i = (b_i - Σ_{j<i} l_ij w_j) [/ d_i]`.
    Forward { divide: bool },
    /// `ilu_backward` / `dilu_backward`.
    Backward { divide: bool },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubstKernel {
    kind: SubstKind,
}

/// A fused element-wise map: `dst[i] = f(i)` over a worker-parallel loop —
/// the shape `DslCtx` lowers every tensor assignment to (axpy, scale,
/// pointwise combinations, scalar broadcasts, …).
#[derive(Clone, Debug)]
pub struct MapKernel {
    dst: usize,
    /// Parameter whose length bounds the loop.
    lead: usize,
    decls: Vec<DType>,
    /// Per-iteration charge: loop step + value + store.
    iter: Charge,
    value: Expr,
    tree: Option<Tree>,
}

/// A worker-parallel reduction: `out[0] = Σ_i f(i)` (the `reduce1` shape).
#[derive(Clone, Debug)]
pub struct ReduceKernel {
    lead: usize,
    decls: Vec<DType>,
    zero: Value,
    /// Per-iteration charge: loop step + value + accumulate.
    iter: Charge,
    /// Final store charge.
    fin: Charge,
    value: Expr,
    tree: Option<Tree>,
}

/// A serial sum: `out[0] = Σ_i in[i]` (the reduce-tree combiner shape).
#[derive(Clone, Debug)]
pub struct SumKernel {
    decls: Vec<DType>,
    zero: Value,
    iter: Charge,
    fin: Charge,
}

/// One entry of the kernel library, selected for a codelet at plan time.
#[derive(Clone, Debug)]
pub enum FusedKernel {
    Spmv(SpmvKernel),
    Subst(SubstKernel),
    Map(MapKernel),
    Reduce(ReduceKernel),
    Sum(SumKernel),
}

impl FusedKernel {
    /// Stable kernel name, stamped into the compile report.
    pub fn name(&self) -> &'static str {
        match self {
            FusedKernel::Spmv(SpmvKernel { residual: false }) => "spmv",
            FusedKernel::Spmv(SpmvKernel { residual: true }) => "spmv_residual",
            FusedKernel::Subst(s) => match s.kind {
                SubstKind::Forward { divide: false } => "forward_subst",
                SubstKind::Forward { divide: true } => "forward_subst_div",
                SubstKind::Backward { divide: true } => "backward_subst_div",
                SubstKind::Backward { divide: false } => "backward_subst",
            },
            FusedKernel::Map(_) => "map",
            FusedKernel::Reduce(_) => "reduce",
            FusedKernel::Sum(_) => "sum",
        }
    }

    /// Execute the kernel for one vertex. Returns `None` — *before touching
    /// any data* — when the runtime operand layout does not satisfy the
    /// kernel's assumptions; the engine then falls back to the interpreter.
    pub fn run(
        &self,
        kind: &VertexKind,
        params: &mut [ParamData],
        cost: &CostModel,
        workers: u64,
    ) -> Option<Charge> {
        match (self, kind) {
            (FusedKernel::Spmv(k), VertexKind::Simple) => k.run(params, cost, workers),
            (FusedKernel::Subst(k), VertexKind::LevelSet { levels }) => {
                k.run(levels, params, cost, workers)
            }
            (FusedKernel::Map(k), VertexKind::Simple) => k.run(params, cost, workers),
            (FusedKernel::Reduce(k), VertexKind::Simple) => k.run(params, cost, workers),
            (FusedKernel::Sum(k), VertexKind::Simple) => k.run(params, cost),
            _ => None,
        }
    }
}

/// Check that every runtime operand slice has the storage dtype the static
/// analysis assumed (the interpreter charges loads and stores at *storage*
/// dtype, and `ParamData::get` yields storage-typed values).
fn storage_matches(params: &[ParamData], decls: &[DType]) -> bool {
    params.len() == decls.len() && params.iter().zip(decls).all(|(p, d)| dtype_of(p) == *d)
}

impl SpmvKernel {
    fn run(&self, params: &mut [ParamData], cost: &CostModel, workers: u64) -> Option<Charge> {
        let o = if self.residual { 3 } else { 2 };
        if params.len() != o + 4 {
            return None;
        }
        let (y, rest) = params.split_first_mut()?;
        // After the split every index into `rest` is the param id minus 1.
        let diag = as_f32s(&rest[o - 1])?;
        let vals = as_f32s(&rest[o])?;
        let cols = as_i32s(&rest[o + 1])?;
        let rptr = as_i32s(&rest[o + 2])?;
        let dx = dtype_of(&rest[0]);
        let dy = dtype_of(y);
        let n = y.len();
        if rptr.len() < n + 1 {
            return None;
        }

        // Per-row / per-entry charges, hoisted from the interpreter's walk
        // of the template body (accumulation domain da = promote(f32, dx)).
        let da = promote(DType::F32, dx);
        let (l_f32, l_i32) =
            (cost.op_cycles(Op::Load, DType::F32), cost.op_cycles(Op::Load, DType::I32));
        let l_x = cost.op_cycles(Op::Load, dx);
        let sz_x = dx.size_bytes() as u64;
        let mul_c = if dx == DType::DoubleWord {
            cost.op_cycles_mixed_dw(Op::Mul)
        } else {
            cost.op_cycles(Op::Mul, da)
        };
        let add_c = cost.op_cycles(Op::Add, da);
        let addi_c = cost.op_cycles(Op::Add, DType::I32);
        let ls = cost.op_cycles(Op::LoopStep, DType::I32);
        let row_fixed = ls + l_f32 + l_x + mul_c + 2 * l_i32 + addi_c;
        let entry = ls + l_f32 + l_i32 + l_x + mul_c + add_c;
        let (mul_f, add_f) = (cost.op_flops(Op::Mul, da), cost.op_flops(Op::Add, da));
        let store_c = cost.op_cycles(Op::Store, dy);
        let sz_y = dy.size_bytes() as u64;
        let (l_b, sz_b, sub_c, sub_f) = if self.residual {
            let db = dtype_of(&rest[1]);
            let dsub = promote(db, da);
            let mixed = dsub == DType::DoubleWord && (db == DType::F32 || da == DType::F32);
            let sub_c = if mixed {
                cost.op_cycles_mixed_dw(Op::Sub)
            } else {
                cost.op_cycles(Op::Sub, dsub)
            };
            (
                cost.op_cycles(Op::Load, db),
                db.size_bytes() as u64,
                sub_c,
                cost.op_flops(Op::Sub, dsub),
            )
        } else {
            (0, 0, 0, 0)
        };

        let (mut serial, mut flops, mut mem) = (0u64, 0u64, 0u64);
        for r in 0..n {
            let lo = rptr[r] as usize;
            let hi = rptr[r + 1] as usize;
            let nnz = (hi - lo) as u64;
            serial += row_fixed + nnz * entry + l_b + sub_c + store_c;
            flops += mul_f + nnz * (mul_f + add_f) + sub_f;
            mem += 4 + sz_x + 8 + nnz * (8 + sz_x) + sz_b + sz_y;

            // Data path, monomorphised on the accumulation domain.
            let acc = match &rest[0] {
                ParamData::F32Ro(x) => {
                    let mut acc = diag[r] * x[r];
                    for k in lo..hi {
                        acc += vals[k] * x[cols[k] as usize];
                    }
                    Value::F32(acc)
                }
                ParamData::DwRo(x) => {
                    let mut acc = TwoFloat::from_f(diag[r]) * x[r];
                    for k in lo..hi {
                        acc += TwoFloat::from_f(vals[k]) * x[cols[k] as usize];
                    }
                    Value::Dw(acc)
                }
                ParamData::F64Ro(x) => {
                    let mut acc = diag[r] as f64 * x[r].0;
                    for k in lo..hi {
                        acc += vals[k] as f64 * x[cols[k] as usize].0;
                    }
                    Value::F64(acc)
                }
                _ => return None,
            };
            let v = if self.residual { apply_bin(BinOp::Sub, rest[1].get(r), acc).0 } else { acc };
            y.set(r, v.convert(dy));
        }
        Some(Charge { cycles: parfor_makespan(serial, workers, cost), flops, mem_bytes: mem })
    }
}

impl SubstKernel {
    fn run(
        &self,
        levels: &[Vec<usize>],
        params: &mut [ParamData],
        cost: &CostModel,
        workers: u64,
    ) -> Option<Charge> {
        let forward = matches!(self.kind, SubstKind::Forward { .. });
        let want = if forward { 6 } else { 5 };
        if params.len() != want {
            return None;
        }
        let (w, rest) = params.split_first_mut()?;
        // Storage must be exactly the declared all-f32/i32 layout.
        let w_slice = match w {
            ParamData::F32(s) => s,
            _ => return None,
        };
        let o = if forward { 1 } else { 0 }; // rest offset of lvals
        let b = if forward { Some(as_f32s(&rest[0])?) } else { None };
        let lvals = as_f32s(&rest[o])?;
        let ldiag = as_f32s(&rest[o + 1])?;
        let cols = as_i32s(&rest[o + 2])?;
        let rptr = as_i32s(&rest[o + 3])?;
        let n = w_slice.len();
        if rptr.len() < n + 1 {
            return None;
        }

        let l_f = cost.op_cycles(Op::Load, DType::F32);
        let l_i = cost.op_cycles(Op::Load, DType::I32);
        let ls = cost.op_cycles(Op::LoopStep, DType::I32);
        let addi = cost.op_cycles(Op::Add, DType::I32);
        let cmp_i = cost.op_cycles(Op::Cmp, DType::I32);
        let cmp_b = cost.op_cycles(Op::Cmp, DType::Bool);
        let br = cost.op_cycles(Op::Branch, DType::Bool);
        let mul = cost.op_cycles(Op::Mul, DType::F32);
        let add = cost.op_cycles(Op::Add, DType::F32);
        let sub = cost.op_cycles(Op::Sub, DType::F32);
        let div = cost.op_cycles(Op::Div, DType::F32);
        let st = cost.op_cycles(Op::Store, DType::F32);
        // Per-row fixed / per-entry / per-taken-entry charges, and the
        // epilogue, per sweep variant (hoisted from the template walk).
        let (base, per_entry, per_taken, epi, epi_flops, epi_mem) = match self.kind {
            SubstKind::Forward { divide } => (
                l_f + l_i + addi + l_i,
                ls + l_i + cmp_i + br,
                2 * l_f + mul + sub,
                if divide { l_f + div + st } else { st },
                if divide { 1 } else { 0 },
                if divide { 8u64 } else { 4 },
            ),
            SubstKind::Backward { divide } => (
                l_i + addi + l_i,
                ls + l_i + 2 * cmp_i + cmp_b + br,
                2 * l_f + mul + add,
                if divide { l_f + sub + l_f + div + st } else { l_f + l_f + div + sub + st },
                2,
                12,
            ),
        };
        let base_mem: u64 = if forward { 4 + 8 } else { 8 };

        let (mut flops, mut mem) = (0u64, 0u64);
        // Each row is solved inside the makespan's cost callback (called
        // once per row, in level order) and returns the row's charge.
        let cycles = level_set_cycles(levels, workers as usize, cost, |i| {
            let lo = rptr[i] as usize;
            let hi = rptr[i + 1] as usize;
            let entries = (hi - lo) as u64;
            let mut taken = 0u64;
            match self.kind {
                SubstKind::Forward { divide } => {
                    let mut acc = b.unwrap()[i];
                    for k in lo..hi {
                        let j = cols[k];
                        if (j as i64) < (i as i64) {
                            acc -= lvals[k] * w_slice[j as usize];
                            taken += 1;
                        }
                    }
                    w_slice[i] = if divide { acc / ldiag[i] } else { acc };
                }
                SubstKind::Backward { divide } => {
                    let mut acc = 0.0f32;
                    for k in lo..hi {
                        let j = cols[k];
                        if (j as i64) > (i as i64) && (j as i64) < (n as i64) {
                            acc += lvals[k] * w_slice[j as usize];
                            taken += 1;
                        }
                    }
                    w_slice[i] = if divide {
                        (w_slice[i] - acc) / ldiag[i]
                    } else {
                        w_slice[i] - acc / ldiag[i]
                    };
                }
            }
            flops += 2 * taken + epi_flops;
            mem += base_mem + entries * 4 + taken * 8 + epi_mem;
            base + entries * per_entry + taken * per_taken + epi
        });
        Some(Charge { cycles, flops, mem_bytes: mem })
    }
}

impl MapKernel {
    fn run(&self, params: &mut [ParamData], cost: &CostModel, workers: u64) -> Option<Charge> {
        let _ = cost;
        if !storage_matches(params, &self.decls) {
            return None;
        }
        let n = params[self.lead].len();
        match &self.tree {
            Some(t) => {
                for i in 0..n {
                    let v = eval_tree(t, params, i);
                    params[self.dst].set(i, v);
                }
            }
            None => {
                for i in 0..n {
                    let v = eval_value(&self.value, params, i as i32);
                    params[self.dst].set(i, v.convert(self.decls[self.dst]));
                }
            }
        }
        Some(Charge {
            cycles: parfor_makespan(n as u64 * self.iter.cycles, workers, cost),
            flops: n as u64 * self.iter.flops,
            mem_bytes: n as u64 * self.iter.mem_bytes,
        })
    }
}

impl ReduceKernel {
    fn run(&self, params: &mut [ParamData], cost: &CostModel, workers: u64) -> Option<Charge> {
        if !storage_matches(params, &self.decls) {
            return None;
        }
        let n = params[self.lead].len();
        let acc = match (&self.tree, self.zero) {
            (Some(Tree::F(t)), Value::F32(z)) => {
                let mut acc = z;
                for i in 0..n {
                    acc += eval_f(t, params, i);
                }
                Value::F32(acc)
            }
            (Some(t), Value::Dw(z)) => {
                let mut acc = z;
                for i in 0..n {
                    // Exact lift of an f32 or Dw term, as apply_bin would.
                    let term = match t {
                        Tree::F(f) => TwoFloat::from_f(eval_f(f, params, i)),
                        Tree::D(d) => eval_d(d, params, i),
                        Tree::Q(_) => return None,
                    };
                    acc += term;
                }
                Value::Dw(acc)
            }
            (Some(t), Value::F64(z)) => {
                let mut acc = z;
                for i in 0..n {
                    let term = match t {
                        Tree::F(f) => eval_f(f, params, i) as f64,
                        Tree::D(d) => eval_d(d, params, i).to_f64(),
                        Tree::Q(q) => eval_q(q, params, i),
                    };
                    acc += term;
                }
                Value::F64(acc)
            }
            _ => {
                let mut acc = self.zero;
                for i in 0..n {
                    acc = apply_bin(BinOp::Add, acc, eval_value(&self.value, params, i as i32)).0;
                }
                acc
            }
        };
        let dst_dt = self.decls[0];
        params[0].set(0, acc.convert(dst_dt));
        Some(Charge {
            cycles: parfor_makespan(n as u64 * self.iter.cycles, workers, cost) + self.fin.cycles,
            flops: n as u64 * self.iter.flops + self.fin.flops,
            mem_bytes: n as u64 * self.iter.mem_bytes + self.fin.mem_bytes,
        })
    }
}

impl SumKernel {
    fn run(&self, params: &mut [ParamData], cost: &CostModel) -> Option<Charge> {
        let _ = cost;
        if !storage_matches(params, &self.decls) {
            return None;
        }
        let n = params[1].len();
        let acc = match (self.zero, &params[1]) {
            (Value::F32(z), ParamData::F32Ro(s)) => {
                Value::F32(s.iter().take(n).fold(z, |a, &v| a + v))
            }
            (Value::I32(z), ParamData::I32Ro(s)) => {
                // The interpreter's I32 domain adds in i64 then truncates.
                Value::I32(s.iter().take(n).fold(z, |a, &v| (a as i64 + v as i64) as i32))
            }
            (Value::Dw(z), ParamData::DwRo(s)) => {
                Value::Dw(s.iter().take(n).fold(z, |a, &v| a + v))
            }
            (Value::F64(z), ParamData::F64Ro(s)) => {
                Value::F64(s.iter().take(n).fold(z, |a, &v| a + v.0))
            }
            _ => return None,
        };
        params[0].set(0, acc.convert(self.decls[0]));
        Some(Charge {
            // A *serial* For loop: no worker makespan, no spawn.
            cycles: n as u64 * self.iter.cycles + self.fin.cycles,
            flops: n as u64 * self.iter.flops + self.fin.flops,
            mem_bytes: n as u64 * self.iter.mem_bytes + self.fin.mem_bytes,
        })
    }
}

// ---------------------------------------------------------------------------
// Matchers.
// ---------------------------------------------------------------------------

/// Rebuild the `build_spmv_codelet` template (crates/core/src/dist.rs) as
/// the `CodeDsl` builder lowers it, for exact structural comparison. Any
/// drift in the real builder makes the match fail — a safe fallback, never
/// a wrong kernel.
///
/// Returns `(params, num_locals, body)`. Public (like
/// [`forward_subst_template`]) for the interpreter microbench in
/// `crates/bench/benches/host_kernels.rs`, which times the interpreter on
/// the codelets the solvers really run.
pub fn spmv_template(residual: bool) -> (Vec<ParamDecl>, usize, Vec<Stmt>) {
    use BinOp::*;
    let ro = |dtype| ParamDecl { dtype, mutable: false };
    let mut params = vec![ParamDecl { dtype: DType::F32, mutable: true }, ro(DType::F32)];
    if residual {
        params.push(ro(DType::F32));
    }
    let d = params.len(); // diag
    params.extend([ro(DType::F32), ro(DType::F32), ro(DType::I32), ro(DType::I32)]);
    let (vals, cols, rptr) = (d + 1, d + 2, d + 3);
    let store_value = if residual {
        Expr::bin(Sub, Expr::index(2, Expr::Local(0)), Expr::Local(1))
    } else {
        Expr::Local(1)
    };
    let body = vec![Stmt::ParFor {
        local: 0,
        start: Expr::Const(Value::I32(0)),
        end: Expr::ParamLen(0),
        body: vec![
            Stmt::SetLocal(
                1,
                Expr::bin(Mul, Expr::index(d, Expr::Local(0)), Expr::index(1, Expr::Local(0))),
            ),
            Stmt::SetLocal(2, Expr::index(rptr, Expr::Local(0))),
            Stmt::SetLocal(
                3,
                Expr::index(rptr, Expr::bin(Add, Expr::Local(0), Expr::Const(Value::I32(1)))),
            ),
            Stmt::For {
                local: 4,
                start: Expr::Local(2),
                end: Expr::Local(3),
                step: Expr::Const(Value::I32(1)),
                body: vec![Stmt::SetLocal(
                    1,
                    Expr::bin(
                        Add,
                        Expr::Local(1),
                        Expr::bin(
                            Mul,
                            Expr::index(vals, Expr::Local(4)),
                            Expr::index(1, Expr::index(cols, Expr::Local(4))),
                        ),
                    ),
                )],
            },
            Stmt::Store { param: 0, index: Expr::Local(0), value: store_value },
        ],
    }];
    (params, 5, body)
}

/// Rebuild `forward_subst_codelet` (crates/core/src/solvers/ilu.rs): a
/// level-set codelet, the row index in local 0.
pub fn forward_subst_template(divide: bool) -> (Vec<ParamDecl>, usize, Vec<Stmt>) {
    use BinOp::*;
    let ro = |dtype| ParamDecl { dtype, mutable: false };
    let params = vec![
        ParamDecl { dtype: DType::F32, mutable: true }, // w
        ro(DType::F32),                                 // b
        ro(DType::F32),                                 // lvals
        ro(DType::F32),                                 // ldiag
        ro(DType::I32),                                 // cols
        ro(DType::I32),                                 // rptr
    ];
    let store_value = if divide {
        Expr::bin(Div, Expr::Local(1), Expr::index(3, Expr::Local(0)))
    } else {
        Expr::Local(1)
    };
    let body = vec![
        Stmt::SetLocal(1, Expr::index(1, Expr::Local(0))),
        Stmt::SetLocal(2, Expr::index(5, Expr::Local(0))),
        Stmt::SetLocal(
            3,
            Expr::index(5, Expr::bin(Add, Expr::Local(0), Expr::Const(Value::I32(1)))),
        ),
        Stmt::For {
            local: 4,
            start: Expr::Local(2),
            end: Expr::Local(3),
            step: Expr::Const(Value::I32(1)),
            body: vec![
                Stmt::SetLocal(5, Expr::index(4, Expr::Local(4))),
                Stmt::If {
                    cond: Expr::bin(Lt, Expr::Local(5), Expr::Local(0)),
                    then: vec![Stmt::SetLocal(
                        1,
                        Expr::bin(
                            Sub,
                            Expr::Local(1),
                            Expr::bin(
                                Mul,
                                Expr::index(2, Expr::Local(4)),
                                Expr::index(0, Expr::Local(5)),
                            ),
                        ),
                    )],
                    otherwise: vec![],
                },
            ],
        },
        Stmt::Store { param: 0, index: Expr::Local(0), value: store_value },
    ];
    (params, 6, body)
}

/// Rebuild `backward_subst_codelet` (crates/core/src/solvers/ilu.rs): a
/// level-set codelet, the row index in local 0.
pub fn backward_subst_template(divide: bool) -> (Vec<ParamDecl>, usize, Vec<Stmt>) {
    use BinOp::*;
    let ro = |dtype| ParamDecl { dtype, mutable: false };
    let params = vec![
        ParamDecl { dtype: DType::F32, mutable: true }, // z
        ro(DType::F32),                                 // lvals
        ro(DType::F32),                                 // ldiag
        ro(DType::I32),                                 // cols
        ro(DType::I32),                                 // rptr
    ];
    let store_value = if divide {
        Expr::bin(
            Div,
            Expr::bin(Sub, Expr::index(0, Expr::Local(0)), Expr::Local(2)),
            Expr::index(2, Expr::Local(0)),
        )
    } else {
        Expr::bin(
            Sub,
            Expr::index(0, Expr::Local(0)),
            Expr::bin(Div, Expr::Local(2), Expr::index(2, Expr::Local(0))),
        )
    };
    let body = vec![
        Stmt::SetLocal(1, Expr::ParamLen(0)),
        Stmt::SetLocal(2, Expr::Const(Value::F32(0.0))),
        Stmt::SetLocal(3, Expr::index(4, Expr::Local(0))),
        Stmt::SetLocal(
            4,
            Expr::index(4, Expr::bin(Add, Expr::Local(0), Expr::Const(Value::I32(1)))),
        ),
        Stmt::For {
            local: 5,
            start: Expr::Local(3),
            end: Expr::Local(4),
            step: Expr::Const(Value::I32(1)),
            body: vec![
                Stmt::SetLocal(6, Expr::index(3, Expr::Local(5))),
                Stmt::If {
                    cond: Expr::bin(
                        And,
                        Expr::bin(Gt, Expr::Local(6), Expr::Local(0)),
                        Expr::bin(Lt, Expr::Local(6), Expr::Local(1)),
                    ),
                    then: vec![Stmt::SetLocal(
                        2,
                        Expr::bin(
                            Add,
                            Expr::Local(2),
                            Expr::bin(
                                Mul,
                                Expr::index(1, Expr::Local(5)),
                                Expr::index(0, Expr::Local(6)),
                            ),
                        ),
                    )],
                    otherwise: vec![],
                },
            ],
        },
        Stmt::Store { param: 0, index: Expr::Local(0), value: store_value },
    ];
    (params, 7, body)
}

fn matches_template(c: &Codelet, t: &(Vec<ParamDecl>, usize, Vec<Stmt>)) -> bool {
    c.params == t.0 && c.num_locals == t.1 && c.body == t.2
}

fn match_spmv(c: &Codelet) -> Option<FusedKernel> {
    for residual in [false, true] {
        if matches_template(c, &spmv_template(residual)) {
            return Some(FusedKernel::Spmv(SpmvKernel { residual }));
        }
    }
    None
}

fn match_subst(c: &Codelet) -> Option<FusedKernel> {
    for divide in [false, true] {
        if matches_template(c, &forward_subst_template(divide)) {
            return Some(FusedKernel::Subst(SubstKernel { kind: SubstKind::Forward { divide } }));
        }
        if matches_template(c, &backward_subst_template(divide)) {
            return Some(FusedKernel::Subst(SubstKernel { kind: SubstKind::Backward { divide } }));
        }
    }
    None
}

/// The fused element-wise map shape `DslCtx::assign` lowers to:
/// one `ParFor` over `Local(0)` holding a single store at the loop index.
fn match_map(c: &Codelet, cost: &CostModel) -> Option<FusedKernel> {
    let [Stmt::ParFor { local: 0, start, end, body }] = c.body.as_slice() else {
        return None;
    };
    if *start != Expr::Const(Value::I32(0)) {
        return None;
    }
    let Expr::ParamLen(lead) = end else {
        return None;
    };
    let [Stmt::Store { param: dst, index: Expr::Local(0), value }] = body.as_slice() else {
        return None;
    };
    if !expr_uses_only_local0(value) {
        return None;
    }
    let (vc, _) = expr_charge(value, &c.params, cost)?;
    let dst_dt = c.params[*dst].dtype;
    let store = Charge {
        cycles: cost.op_cycles(Op::Store, dst_dt),
        flops: 0,
        mem_bytes: dst_dt.size_bytes() as u64,
    };
    let iter = Charge::cy(cost.op_cycles(Op::LoopStep, DType::I32)).plus(vc).plus(store);
    Some(FusedKernel::Map(MapKernel {
        dst: *dst,
        lead: *lead,
        decls: c.params.iter().map(|p| p.dtype).collect(),
        iter,
        value: value.clone(),
        tree: compile_tree(value, &c.params),
    }))
}

/// The worker-parallel reduction shape (`DslCtx`'s `reduce1`): zero an
/// accumulator local, fold `acc = acc + f(i)` over a `ParFor`, store once.
fn match_reduce(c: &Codelet, cost: &CostModel) -> Option<FusedKernel> {
    let [Stmt::SetLocal(acc, Expr::Const(zero)), Stmt::ParFor { local: 0, start, end, body }, Stmt::Store { param: 0, index: Expr::Const(Value::I32(0)), value: Expr::Local(acc_s) }] =
        c.body.as_slice()
    else {
        return None;
    };
    if *acc == 0 || acc_s != acc || *start != Expr::Const(Value::I32(0)) {
        return None;
    }
    let Expr::ParamLen(lead) = end else {
        return None;
    };
    let [Stmt::SetLocal(acc_b, Expr::Binary { op: BinOp::Add, lhs, rhs })] = body.as_slice() else {
        return None;
    };
    if acc_b != acc || **lhs != Expr::Local(*acc) || !expr_uses_only_local0(rhs) {
        return None;
    }
    let acc_dt = zero.dtype();
    let (vc, vdt) = expr_charge(rhs, &c.params, cost)?;
    // The accumulator's dtype must be a fixed point of the promotion, or
    // the per-iteration add charge would drift.
    if promote(acc_dt, vdt) != acc_dt {
        return None;
    }
    let mixed = acc_dt == DType::DoubleWord && vdt == DType::F32;
    let add_c =
        if mixed { cost.op_cycles_mixed_dw(Op::Add) } else { cost.op_cycles(Op::Add, acc_dt) };
    let add = Charge { cycles: add_c, flops: cost.op_flops(Op::Add, acc_dt), mem_bytes: 0 };
    let iter = Charge::cy(cost.op_cycles(Op::LoopStep, DType::I32)).plus(vc).plus(add);
    let dst_dt = c.params[0].dtype;
    let fin = Charge {
        cycles: cost.op_cycles(Op::Store, dst_dt),
        flops: 0,
        mem_bytes: dst_dt.size_bytes() as u64,
    };
    Some(FusedKernel::Reduce(ReduceKernel {
        lead: *lead,
        decls: c.params.iter().map(|p| p.dtype).collect(),
        zero: *zero,
        iter,
        fin,
        value: (**rhs).clone(),
        tree: compile_tree(rhs, &c.params),
    }))
}

/// The serial combiner shape (`DslCtx`'s `sum_codelet`, used by the
/// hierarchical reduce tree): `out[0] = Σ in[i]` over a plain `For`.
fn match_sum(c: &Codelet, cost: &CostModel) -> Option<FusedKernel> {
    if c.params.len() != 2 || !c.params[0].mutable || c.params[1].mutable {
        return None;
    }
    let [Stmt::SetLocal(1, Expr::Const(zero)), Stmt::For { local: 0, start, end, step, body }, Stmt::Store { param: 0, index: Expr::Const(Value::I32(0)), value: Expr::Local(1) }] =
        c.body.as_slice()
    else {
        return None;
    };
    if *start != Expr::Const(Value::I32(0))
        || *end != Expr::ParamLen(1)
        || *step != Expr::Const(Value::I32(1))
    {
        return None;
    }
    let expected =
        Stmt::SetLocal(1, Expr::bin(BinOp::Add, Expr::Local(1), Expr::index(1, Expr::Local(0))));
    if body.len() != 1 || body[0] != expected {
        return None;
    }
    let in_dt = c.params[1].dtype;
    let acc_dt = zero.dtype();
    if acc_dt != in_dt
        || !matches!(acc_dt, DType::F32 | DType::I32 | DType::DoubleWord | DType::F64Emulated)
    {
        return None;
    }
    let (load, _) = expr_charge(&Expr::index(1, Expr::Local(0)), &c.params, cost)?;
    let add = Charge {
        cycles: cost.op_cycles(Op::Add, acc_dt),
        flops: cost.op_flops(Op::Add, acc_dt),
        mem_bytes: 0,
    };
    let iter = Charge::cy(cost.op_cycles(Op::LoopStep, DType::I32)).plus(load).plus(add);
    let dst_dt = c.params[0].dtype;
    let fin = Charge {
        cycles: cost.op_cycles(Op::Store, dst_dt),
        flops: 0,
        mem_bytes: dst_dt.size_bytes() as u64,
    };
    Some(FusedKernel::Sum(SumKernel {
        decls: c.params.iter().map(|p| p.dtype).collect(),
        zero: *zero,
        iter,
        fin,
    }))
}

fn match_codelet(c: &Codelet, cost: &CostModel) -> Option<FusedKernel> {
    match_spmv(c)
        .or_else(|| match_subst(c))
        .or_else(|| match_sum(c, cost))
        .or_else(|| match_reduce(c, cost))
        .or_else(|| match_map(c, cost))
}

/// The plan-time kernel selection: one optional fused kernel per codelet.
#[derive(Clone, Debug, Default)]
pub struct KernelTable {
    kernels: Vec<Option<FusedKernel>>,
}

impl KernelTable {
    /// Pattern-match every codelet in the graph against the library.
    pub fn build(graph: &Graph) -> KernelTable {
        KernelTable {
            kernels: graph.codelets.iter().map(|c| match_codelet(c, &graph.cost)).collect(),
        }
    }

    /// A table that fuses nothing (`EngineOptions::fusion` off): every
    /// vertex takes the interpreter.
    pub fn disabled(graph: &Graph) -> KernelTable {
        KernelTable { kernels: vec![None; graph.codelets.len()] }
    }

    pub fn get(&self, codelet: usize) -> Option<&FusedKernel> {
        self.kernels.get(codelet).and_then(|k| k.as_ref())
    }

    /// `(codelet name, fused kernel name)` for each codelet, `None` where
    /// the codelet falls back to the interpreter.
    pub fn selection<'g>(&self, graph: &'g Graph) -> Vec<(&'g str, Option<&'static str>)> {
        graph
            .codelets
            .iter()
            .zip(&self.kernels)
            .map(|(c, k)| (c.name.as_str(), k.as_ref().map(|k| k.name())))
            .collect()
    }

    pub fn fused_count(&self) -> usize {
        self.kernels.iter().filter(|k| k.is_some()).count()
    }

    pub fn total(&self) -> usize {
        self.kernels.len()
    }
}

// ---------------------------------------------------------------------------
// Differential tests: every kernel vs the interpreter, on adversarial
// operand layouts. The contract under test is *exact* equality — output
// bits, cycles, flops and SRAM bytes.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::Interp;
    use twofloat::SoftDouble;

    const WORKERS: u64 = 6;

    fn cm() -> CostModel {
        CostModel::default()
    }

    fn codelet(name: &str, params: Vec<ParamDecl>, num_locals: usize, body: Vec<Stmt>) -> Codelet {
        let c = Codelet { name: name.into(), params, num_locals, body };
        c.validate().expect("test codelet validates");
        c
    }

    fn from_template(name: &str, t: (Vec<ParamDecl>, usize, Vec<Stmt>)) -> Codelet {
        codelet(name, t.0, t.1, t.2)
    }

    fn mutp(dtype: DType) -> ParamDecl {
        ParamDecl { dtype, mutable: true }
    }

    fn rop(dtype: DType) -> ParamDecl {
        ParamDecl { dtype, mutable: false }
    }

    /// Exactly `run_vertex`'s Simple arm.
    fn interp_simple(c: &Codelet, params: &mut [ParamData], cost: &CostModel) -> Charge {
        let mut it = Interp::new(cost, params, c.num_locals, WORKERS);
        let cycles = it.run(&c.body);
        Charge { cycles, flops: it.flops, mem_bytes: it.mem_bytes }
    }

    /// Exactly `run_vertex`'s LevelSet arm.
    fn interp_level_set(
        c: &Codelet,
        params: &mut [ParamData],
        levels: &[Vec<usize>],
        cost: &CostModel,
    ) -> Charge {
        let mut it = Interp::new(cost, params, c.num_locals, WORKERS);
        let mut row_cost: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for level in levels {
            for &row in level {
                it.locals[0] = Value::I32(row as i32);
                let before = it.cycles;
                it.run(&c.body);
                row_cost.insert(row, it.cycles - before);
            }
        }
        let schedule = LevelSchedule::build(levels, WORKERS as usize, |i| row_cost[&i]);
        Charge {
            cycles: schedule.cycles(|i| row_cost[&i], cost),
            flops: it.flops,
            mem_bytes: it.mem_bytes,
        }
    }

    fn f32_bits(s: &[f32]) -> Vec<u32> {
        s.iter().map(|v| v.to_bits()).collect()
    }

    // ------------------------------------------------------------------
    // SpMV
    // ------------------------------------------------------------------

    /// Ragged CSR with an empty row and a single-entry row.
    fn csr() -> (Vec<i32>, Vec<i32>, Vec<f32>, Vec<f32>) {
        let rptr = vec![0, 2, 2, 5, 6, 6, 10];
        let cols = vec![1, 3, 0, 2, 5, 4, 0, 2, 3, 5];
        let vals: Vec<f32> = (0..10).map(|i| 0.3 + 0.17 * i as f32).collect();
        let diag: Vec<f32> = (0..6).map(|i| 1.5 - 0.1 * i as f32).collect();
        (rptr, cols, vals, diag)
    }

    #[test]
    fn spmv_f32_matches_interpreter() {
        let cost = cm();
        let c = from_template("spmv", spmv_template(false));
        let k = match_codelet(&c, &cost).expect("spmv template matches");
        assert_eq!(k.name(), "spmv");
        let (rptr, cols, vals, diag) = csr();
        let x: Vec<f32> = (0..6).map(|i| (0.37 * i as f32).sin()).collect();
        let mut y_int = vec![0.0f32; 6];
        let mut y_nat = vec![0.0f32; 6];
        let ri = {
            let mut p = vec![
                ParamData::F32(&mut y_int),
                ParamData::F32Ro(&x),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ];
            interp_simple(&c, &mut p, &cost)
        };
        let rn = {
            let mut p = vec![
                ParamData::F32(&mut y_nat),
                ParamData::F32Ro(&x),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ];
            k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).expect("layout accepted")
        };
        assert_eq!(ri, rn);
        assert_eq!(f32_bits(&y_int), f32_bits(&y_nat));
    }

    #[test]
    fn spmv_empty_matrix_matches_interpreter() {
        let cost = cm();
        let c = from_template("spmv", spmv_template(false));
        let k = match_codelet(&c, &cost).unwrap();
        let rptr = vec![0i32];
        let (cols, vals, diag, x): (Vec<i32>, Vec<f32>, Vec<f32>, Vec<f32>) =
            (vec![], vec![], vec![], vec![]);
        let mut y_int: Vec<f32> = vec![];
        let mut y_nat: Vec<f32> = vec![];
        let ri = {
            let mut p = vec![
                ParamData::F32(&mut y_int),
                ParamData::F32Ro(&x),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ];
            interp_simple(&c, &mut p, &cost)
        };
        let rn = {
            let mut p = vec![
                ParamData::F32(&mut y_nat),
                ParamData::F32Ro(&x),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ];
            k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).unwrap()
        };
        assert_eq!(ri, rn);
    }

    #[test]
    fn spmv_dw_and_f64_x_match_interpreter() {
        let cost = cm();
        let c = from_template("spmv", spmv_template(false));
        let k = match_codelet(&c, &cost).unwrap();
        let (rptr, cols, vals, diag) = csr();
        // Dw x and y (the MPIR inner-residual layout).
        let xd: Vec<TwoF32> = (0..6).map(|i| TwoFloat::from_f64(1.0 / (3.0 + i as f64))).collect();
        let mut yd_int = vec![TwoF32::from_f64(0.0); 6];
        let mut yd_nat = vec![TwoF32::from_f64(0.0); 6];
        let ri = {
            let mut p = vec![
                ParamData::Dw(&mut yd_int),
                ParamData::DwRo(&xd),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ];
            interp_simple(&c, &mut p, &cost)
        };
        let rn = {
            let mut p = vec![
                ParamData::Dw(&mut yd_nat),
                ParamData::DwRo(&xd),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ];
            k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).unwrap()
        };
        assert_eq!(ri, rn);
        assert_eq!(yd_int, yd_nat);

        // F64-emulated x and y.
        let xq: Vec<SoftDouble> = (0..6).map(|i| SoftDouble(1.0 / (3.0 + i as f64))).collect();
        let mut yq_int = vec![SoftDouble(0.0); 6];
        let mut yq_nat = vec![SoftDouble(0.0); 6];
        let ri = {
            let mut p = vec![
                ParamData::F64(&mut yq_int),
                ParamData::F64Ro(&xq),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ];
            interp_simple(&c, &mut p, &cost)
        };
        let rn = {
            let mut p = vec![
                ParamData::F64(&mut yq_nat),
                ParamData::F64Ro(&xq),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ];
            k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).unwrap()
        };
        assert_eq!(ri, rn);
        let bits = |s: &[SoftDouble]| s.iter().map(|v| v.0.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&yq_int), bits(&yq_nat));
    }

    #[test]
    fn spmv_residual_mixed_dw_matches_interpreter() {
        let cost = cm();
        let c = from_template("spmv_residual", spmv_template(true));
        let k = match_codelet(&c, &cost).expect("residual template matches");
        assert_eq!(k.name(), "spmv_residual");
        let (rptr, cols, vals, diag) = csr();
        // Dw x against an f32 b: exercises the mixed-precision subtract.
        let xd: Vec<TwoF32> = (0..6).map(|i| TwoFloat::from_f64(0.21 * (i as f64 + 1.0))).collect();
        let b: Vec<f32> = (0..6).map(|i| 2.0 - 0.3 * i as f32).collect();
        let mut y_int = vec![TwoF32::from_f64(0.0); 6];
        let mut y_nat = vec![TwoF32::from_f64(0.0); 6];
        let ri = {
            let mut p = vec![
                ParamData::Dw(&mut y_int),
                ParamData::DwRo(&xd),
                ParamData::F32Ro(&b),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ];
            interp_simple(&c, &mut p, &cost)
        };
        let rn = {
            let mut p = vec![
                ParamData::Dw(&mut y_nat),
                ParamData::DwRo(&xd),
                ParamData::F32Ro(&b),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ];
            k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).unwrap()
        };
        assert_eq!(ri, rn);
        assert_eq!(y_int, y_nat);
    }

    #[test]
    fn spmv_declines_unexpected_storage() {
        let cost = cm();
        let c = from_template("spmv", spmv_template(false));
        let k = match_codelet(&c, &cost).unwrap();
        // I32 x is not one of the monomorphised accumulation domains.
        let rptr = vec![0i32, 1];
        let cols = vec![0i32];
        let vals = vec![1.0f32];
        let diag = vec![1.0f32];
        let x = vec![3i32];
        let mut y = vec![0.0f32; 1];
        let mut p = vec![
            ParamData::F32(&mut y),
            ParamData::I32Ro(&x),
            ParamData::F32Ro(&diag),
            ParamData::F32Ro(&vals),
            ParamData::I32Ro(&cols),
            ParamData::I32Ro(&rptr),
        ];
        assert!(k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).is_none());
    }

    // ------------------------------------------------------------------
    // Triangular sweeps
    // ------------------------------------------------------------------

    /// `(rptr, cols, vals, diag, levels)` of a triangular sweep.
    type Sweep = (Vec<i32>, Vec<i32>, Vec<f32>, Vec<f32>, Vec<Vec<usize>>);

    /// Strictly-lower CSR structure for n=5 plus a not-taken entry (j >= i)
    /// to exercise the branch, and an empty row.
    fn lower() -> Sweep {
        let rptr = vec![0, 1, 2, 2, 5, 7];
        let cols = vec![0, 0, 0, 1, 3, 2, 4]; // row 0: j=0 (not taken: j==i)
        let vals: Vec<f32> = (0..7).map(|i| 0.4 + 0.11 * i as f32).collect();
        let diag: Vec<f32> = (0..5).map(|i| 2.0 + 0.25 * i as f32).collect();
        let levels = vec![vec![0, 1, 2], vec![3], vec![4]];
        (rptr, cols, vals, diag, levels)
    }

    #[test]
    fn forward_subst_matches_interpreter() {
        let cost = cm();
        for divide in [false, true] {
            let c = from_template("fwd", forward_subst_template(divide));
            let k = match_codelet(&c, &cost).expect("forward template matches");
            assert_eq!(k.name(), if divide { "forward_subst_div" } else { "forward_subst" });
            let (rptr, cols, vals, diag, levels) = lower();
            let b: Vec<f32> = (0..5).map(|i| 1.0 + 0.5 * i as f32).collect();
            let mut w_int = vec![0.0f32; 5];
            let mut w_nat = vec![0.0f32; 5];
            let ri = {
                let mut p = vec![
                    ParamData::F32(&mut w_int),
                    ParamData::F32Ro(&b),
                    ParamData::F32Ro(&vals),
                    ParamData::F32Ro(&diag),
                    ParamData::I32Ro(&cols),
                    ParamData::I32Ro(&rptr),
                ];
                interp_level_set(&c, &mut p, &levels, &cost)
            };
            let rn = {
                let mut p = vec![
                    ParamData::F32(&mut w_nat),
                    ParamData::F32Ro(&b),
                    ParamData::F32Ro(&vals),
                    ParamData::F32Ro(&diag),
                    ParamData::I32Ro(&cols),
                    ParamData::I32Ro(&rptr),
                ];
                k.run(&VertexKind::LevelSet { levels: levels.clone() }, &mut p, &cost, WORKERS)
                    .expect("layout accepted")
            };
            assert_eq!(ri, rn, "divide={divide}");
            assert_eq!(f32_bits(&w_int), f32_bits(&w_nat), "divide={divide}");
        }
    }

    #[test]
    fn backward_subst_matches_interpreter() {
        let cost = cm();
        for divide in [false, true] {
            let c = from_template("bwd", backward_subst_template(divide));
            let k = match_codelet(&c, &cost).expect("backward template matches");
            assert_eq!(k.name(), if divide { "backward_subst_div" } else { "backward_subst" });
            // Strictly-upper structure, plus j==i and j==n guards.
            let rptr = vec![0, 2, 4, 5, 6, 6];
            let cols = vec![1, 4, 2, 1, 4, 3, 5]; // j==1 on row 1 not taken; cols[6] unused
            let vals: Vec<f32> = (0..7).map(|i| 0.3 + 0.13 * i as f32).collect();
            let diag: Vec<f32> = (0..5).map(|i| 1.5 + 0.2 * i as f32).collect();
            let levels = vec![vec![4, 3], vec![2, 1], vec![0]];
            let w0: Vec<f32> = (0..5).map(|i| (0.9 * i as f32).cos()).collect();
            let mut w_int = w0.clone();
            let mut w_nat = w0.clone();
            let ri = {
                let mut p = vec![
                    ParamData::F32(&mut w_int),
                    ParamData::F32Ro(&vals),
                    ParamData::F32Ro(&diag),
                    ParamData::I32Ro(&cols),
                    ParamData::I32Ro(&rptr),
                ];
                interp_level_set(&c, &mut p, &levels, &cost)
            };
            let rn = {
                let mut p = vec![
                    ParamData::F32(&mut w_nat),
                    ParamData::F32Ro(&vals),
                    ParamData::F32Ro(&diag),
                    ParamData::I32Ro(&cols),
                    ParamData::I32Ro(&rptr),
                ];
                k.run(&VertexKind::LevelSet { levels: levels.clone() }, &mut p, &cost, WORKERS)
                    .expect("layout accepted")
            };
            assert_eq!(ri, rn, "divide={divide}");
            assert_eq!(f32_bits(&w_int), f32_bits(&w_nat), "divide={divide}");
        }
    }

    #[test]
    fn subst_requires_level_set_vertex() {
        let cost = cm();
        let c = from_template("fwd", forward_subst_template(true));
        let k = match_codelet(&c, &cost).unwrap();
        let rptr = vec![0i32, 0];
        let (cols, vals): (Vec<i32>, Vec<f32>) = (vec![], vec![]);
        let diag = vec![1.0f32];
        let b = vec![1.0f32];
        let mut w = vec![0.0f32];
        let mut p = vec![
            ParamData::F32(&mut w),
            ParamData::F32Ro(&b),
            ParamData::F32Ro(&vals),
            ParamData::F32Ro(&diag),
            ParamData::I32Ro(&cols),
            ParamData::I32Ro(&rptr),
        ];
        assert!(k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).is_none());
    }

    // ------------------------------------------------------------------
    // Map / reduce / sum
    // ------------------------------------------------------------------

    /// `y[i] = y[i] + a[0] * x[i]` — in-place axpy, the canonical map.
    fn axpy_codelet(dy: DType, dx: DType, da: DType) -> Codelet {
        codelet(
            "axpy",
            vec![mutp(dy), rop(dx), rop(da)],
            1,
            vec![Stmt::ParFor {
                local: 0,
                start: Expr::Const(Value::I32(0)),
                end: Expr::ParamLen(0),
                body: vec![Stmt::Store {
                    param: 0,
                    index: Expr::Local(0),
                    value: Expr::bin(
                        BinOp::Add,
                        Expr::index(0, Expr::Local(0)),
                        Expr::bin(
                            BinOp::Mul,
                            Expr::index(2, Expr::Const(Value::I32(0))),
                            Expr::index(1, Expr::Local(0)),
                        ),
                    ),
                }],
            }],
        )
    }

    #[test]
    fn map_axpy_matches_interpreter() {
        let cost = cm();
        let c = axpy_codelet(DType::F32, DType::F32, DType::F32);
        let k = match_codelet(&c, &cost).expect("axpy is a map");
        assert_eq!(k.name(), "map");
        for n in [0usize, 1, 7] {
            let x: Vec<f32> = (0..n).map(|i| (0.31 * i as f32).sin()).collect();
            let a = vec![0.75f32];
            let y0: Vec<f32> = (0..n).map(|i| 1.0 - 0.2 * i as f32).collect();
            let mut y_int = y0.clone();
            let mut y_nat = y0.clone();
            let ri = {
                let mut p =
                    vec![ParamData::F32(&mut y_int), ParamData::F32Ro(&x), ParamData::F32Ro(&a)];
                interp_simple(&c, &mut p, &cost)
            };
            let rn = {
                let mut p =
                    vec![ParamData::F32(&mut y_nat), ParamData::F32Ro(&x), ParamData::F32Ro(&a)];
                k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).expect("layout accepted")
            };
            assert_eq!(ri, rn, "n={n}");
            assert_eq!(f32_bits(&y_int), f32_bits(&y_nat), "n={n}");
        }
    }

    #[test]
    fn map_mixed_dw_axpy_matches_interpreter() {
        // Dw destination, Dw scalar, f32 x: mixed-precision multiply plus
        // the exact f32 -> Dw lift on the add.
        let cost = cm();
        let c = axpy_codelet(DType::DoubleWord, DType::F32, DType::DoubleWord);
        let k = match_codelet(&c, &cost).expect("mixed axpy is a map");
        let n = 6;
        let x: Vec<f32> = (0..n).map(|i| (0.41 * i as f32).cos()).collect();
        let a = vec![TwoFloat::from_f64(1.0 / 3.0)];
        let y0: Vec<TwoF32> = (0..n).map(|i| TwoFloat::from_f64(0.7 + 0.1 * i as f64)).collect();
        let mut y_int = y0.clone();
        let mut y_nat = y0;
        let ri = {
            let mut p = vec![ParamData::Dw(&mut y_int), ParamData::F32Ro(&x), ParamData::DwRo(&a)];
            interp_simple(&c, &mut p, &cost)
        };
        let rn = {
            let mut p = vec![ParamData::Dw(&mut y_nat), ParamData::F32Ro(&x), ParamData::DwRo(&a)];
            k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).expect("layout accepted")
        };
        assert_eq!(ri, rn);
        assert_eq!(y_int, y_nat);
    }

    #[test]
    fn map_declines_storage_dtype_mismatch() {
        // Matched for f32 decls; at run time the destination arrives as Dw
        // (a tensor the planner retyped) -> decline, interpreter fallback.
        let cost = cm();
        let c = axpy_codelet(DType::F32, DType::F32, DType::F32);
        let k = match_codelet(&c, &cost).unwrap();
        let x = vec![1.0f32, 2.0];
        let a = vec![0.5f32];
        let mut y = vec![TwoFloat::from_f64(0.0); 2];
        let mut p = vec![ParamData::Dw(&mut y), ParamData::F32Ro(&x), ParamData::F32Ro(&a)];
        assert!(k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).is_none());
    }

    /// `y[i] = value` over `y`, reading `x` (parameter 1).
    fn map_codelet(dy: DType, value: Expr) -> Codelet {
        codelet(
            "map",
            vec![mutp(dy), rop(DType::F32)],
            1,
            vec![Stmt::ParFor {
                local: 0,
                start: Expr::Const(Value::I32(0)),
                end: Expr::ParamLen(0),
                body: vec![Stmt::Store { param: 0, index: Expr::Local(0), value }],
            }],
        )
    }

    #[test]
    fn map_bool_arithmetic_matches_interpreter() {
        // `(x[i] > 0) + (x[i] < 1)`: Bool + Bool is charged as Bool and is
        // the I32 0, 1 or 2. The per-element charge comes from the lowering,
        // which types it; stored to an I32 and to an F32 destination.
        let cost = cm();
        let x_i = || Expr::index(1, Expr::Local(0));
        let value = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Gt, x_i(), Expr::Const(Value::F32(0.0))),
            Expr::bin(BinOp::Lt, x_i(), Expr::Const(Value::F32(1.0))),
        );
        let x = vec![-1.0f32, 0.0, 0.5, 1.0, 2.0, f32::NAN];

        let c = map_codelet(DType::I32, value.clone());
        let k = match_codelet(&c, &cost).expect("a Bool-arithmetic map is a map");
        assert_eq!(k.name(), "map");
        let (mut y_int, mut y_nat) = (vec![7i32; x.len()], vec![7i32; x.len()]);
        let ri = interp_simple(&c, &mut [ParamData::I32(&mut y_int), ParamData::F32Ro(&x)], &cost);
        let rn = k
            .run(
                &VertexKind::Simple,
                &mut [ParamData::I32(&mut y_nat), ParamData::F32Ro(&x)],
                &cost,
                WORKERS,
            )
            .expect("layout accepted");
        assert_eq!(ri, rn);
        assert_eq!(y_int, y_nat);
        assert_eq!(y_int, [1, 1, 2, 1, 1, 0]);

        let c = map_codelet(DType::F32, value);
        let k = match_codelet(&c, &cost).expect("a Bool-arithmetic map is a map");
        let (mut y_int, mut y_nat) = (vec![7.0f32; x.len()], vec![7.0f32; x.len()]);
        let ri = interp_simple(&c, &mut [ParamData::F32(&mut y_int), ParamData::F32Ro(&x)], &cost);
        let rn = k
            .run(
                &VertexKind::Simple,
                &mut [ParamData::F32(&mut y_nat), ParamData::F32Ro(&x)],
                &cost,
                WORKERS,
            )
            .expect("layout accepted");
        assert_eq!(ri, rn);
        assert_eq!(f32_bits(&y_int), f32_bits(&y_nat));
    }

    #[test]
    fn map_with_a_non_integer_index_is_not_fused() {
        // `x[1.0]`: the dynamic interpreter truncates any index to an
        // integer, the lowering — where the map's charge comes from — types
        // only I32 indices, so this codelet stays on `Interp`.
        let cost = cm();
        let c = map_codelet(DType::F32, Expr::index(1, Expr::Const(Value::F32(1.0))));
        assert!(match_codelet(&c, &cost).is_none());
        let c = map_codelet(DType::F32, Expr::index(1, Expr::Const(Value::I32(1))));
        assert!(match_codelet(&c, &cost).is_some());
    }

    /// `out[0] = sum_i x[i] * y[i]` with an explicit accumulator dtype.
    fn dot_codelet(dacc: Value, dout: DType, dx: DType, dy: DType) -> Codelet {
        codelet(
            "dot",
            vec![mutp(dout), rop(dx), rop(dy)],
            2,
            vec![
                Stmt::SetLocal(1, Expr::Const(dacc)),
                Stmt::ParFor {
                    local: 0,
                    start: Expr::Const(Value::I32(0)),
                    end: Expr::ParamLen(1),
                    body: vec![Stmt::SetLocal(
                        1,
                        Expr::bin(
                            BinOp::Add,
                            Expr::Local(1),
                            Expr::bin(
                                BinOp::Mul,
                                Expr::index(1, Expr::Local(0)),
                                Expr::index(2, Expr::Local(0)),
                            ),
                        ),
                    )],
                },
                Stmt::Store { param: 0, index: Expr::Const(Value::I32(0)), value: Expr::Local(1) },
            ],
        )
    }

    #[test]
    fn reduce_dot_matches_interpreter() {
        let cost = cm();
        let c = dot_codelet(Value::F32(0.0), DType::F32, DType::F32, DType::F32);
        let k = match_codelet(&c, &cost).expect("dot is a reduce");
        assert_eq!(k.name(), "reduce");
        for n in [0usize, 1, 9] {
            let x: Vec<f32> = (0..n).map(|i| (0.23 * i as f32).sin()).collect();
            let y: Vec<f32> = (0..n).map(|i| 1.0 + 0.05 * i as f32).collect();
            let mut o_int = vec![0.0f32];
            let mut o_nat = vec![0.0f32];
            let ri = {
                let mut p =
                    vec![ParamData::F32(&mut o_int), ParamData::F32Ro(&x), ParamData::F32Ro(&y)];
                interp_simple(&c, &mut p, &cost)
            };
            let rn = {
                let mut p =
                    vec![ParamData::F32(&mut o_nat), ParamData::F32Ro(&x), ParamData::F32Ro(&y)];
                k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).expect("layout accepted")
            };
            assert_eq!(ri, rn, "n={n}");
            assert_eq!(o_int[0].to_bits(), o_nat[0].to_bits(), "n={n}");
        }
    }

    #[test]
    fn reduce_dw_accumulator_over_f32_terms_matches_interpreter() {
        // Dw accumulator folding f32 products: the mixed-precision add and
        // the exact from_f lift, per iteration.
        let cost = cm();
        let c = dot_codelet(
            Value::Dw(TwoFloat::from_f64(0.0)),
            DType::DoubleWord,
            DType::F32,
            DType::F32,
        );
        let k = match_codelet(&c, &cost).expect("dw dot is a reduce");
        let n = 11;
        let x: Vec<f32> = (0..n).map(|i| (0.19 * i as f32).cos()).collect();
        let y: Vec<f32> = (0..n).map(|i| 0.6 + 0.07 * i as f32).collect();
        let mut o_int = vec![TwoFloat::from_f64(0.0)];
        let mut o_nat = vec![TwoFloat::from_f64(0.0)];
        let ri = {
            let mut p = vec![ParamData::Dw(&mut o_int), ParamData::F32Ro(&x), ParamData::F32Ro(&y)];
            interp_simple(&c, &mut p, &cost)
        };
        let rn = {
            let mut p = vec![ParamData::Dw(&mut o_nat), ParamData::F32Ro(&x), ParamData::F32Ro(&y)];
            k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).expect("layout accepted")
        };
        assert_eq!(ri, rn);
        assert_eq!(o_int, o_nat);
    }

    /// The reduce-tree combiner: `out[0] = sum_i in[i]` over a serial For.
    fn sum_codelet(zero: Value, dt: DType) -> Codelet {
        codelet(
            "sum",
            vec![mutp(dt), rop(dt)],
            2,
            vec![
                Stmt::SetLocal(1, Expr::Const(zero)),
                Stmt::For {
                    local: 0,
                    start: Expr::Const(Value::I32(0)),
                    end: Expr::ParamLen(1),
                    step: Expr::Const(Value::I32(1)),
                    body: vec![Stmt::SetLocal(
                        1,
                        Expr::bin(BinOp::Add, Expr::Local(1), Expr::index(1, Expr::Local(0))),
                    )],
                },
                Stmt::Store { param: 0, index: Expr::Const(Value::I32(0)), value: Expr::Local(1) },
            ],
        )
    }

    #[test]
    fn sum_f32_matches_interpreter() {
        let cost = cm();
        let c = sum_codelet(Value::F32(0.0), DType::F32);
        let k = match_codelet(&c, &cost).expect("combiner is a sum");
        assert_eq!(k.name(), "sum");
        for n in [0usize, 1, 8] {
            let xs: Vec<f32> = (0..n).map(|i| (0.51 * i as f32).sin()).collect();
            let mut o_int = vec![0.0f32];
            let mut o_nat = vec![0.0f32];
            let ri = {
                let mut p = vec![ParamData::F32(&mut o_int), ParamData::F32Ro(&xs)];
                interp_simple(&c, &mut p, &cost)
            };
            let rn = {
                let mut p = vec![ParamData::F32(&mut o_nat), ParamData::F32Ro(&xs)];
                k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).expect("layout accepted")
            };
            assert_eq!(ri, rn, "n={n}");
            assert_eq!(o_int[0].to_bits(), o_nat[0].to_bits(), "n={n}");
        }
    }

    #[test]
    fn sum_i32_truncation_matches_interpreter() {
        // The interpreter's I32 domain adds in i64 then truncates to i32 at
        // every step; i32::MAX inputs make a wrapping-add shortcut visible.
        let cost = cm();
        let c = sum_codelet(Value::I32(0), DType::I32);
        let k = match_codelet(&c, &cost).expect("i32 combiner is a sum");
        let xs = vec![i32::MAX, 1, i32::MAX, -7, 123_456_789];
        let mut o_int = vec![0i32];
        let mut o_nat = vec![0i32];
        let ri = {
            let mut p = vec![ParamData::I32(&mut o_int), ParamData::I32Ro(&xs)];
            interp_simple(&c, &mut p, &cost)
        };
        let rn = {
            let mut p = vec![ParamData::I32(&mut o_nat), ParamData::I32Ro(&xs)];
            k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).expect("layout accepted")
        };
        assert_eq!(ri, rn);
        assert_eq!(o_int, o_nat);
    }

    #[test]
    fn sum_dw_matches_interpreter() {
        let cost = cm();
        let c = sum_codelet(Value::Dw(TwoFloat::from_f64(0.0)), DType::DoubleWord);
        let k = match_codelet(&c, &cost).unwrap();
        let xs: Vec<TwoF32> = (0..7).map(|i| TwoFloat::from_f64(0.1 * i as f64 + 1e-9)).collect();
        let mut o_int = vec![TwoFloat::from_f64(0.0)];
        let mut o_nat = vec![TwoFloat::from_f64(0.0)];
        let ri = {
            let mut p = vec![ParamData::Dw(&mut o_int), ParamData::DwRo(&xs)];
            interp_simple(&c, &mut p, &cost)
        };
        let rn = {
            let mut p = vec![ParamData::Dw(&mut o_nat), ParamData::DwRo(&xs)];
            k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).unwrap()
        };
        assert_eq!(ri, rn);
        assert_eq!(o_int, o_nat);
    }

    #[test]
    fn matcher_rejects_near_misses() {
        let cost = cm();
        // A map whose value reads a *different* element than the loop index
        // — stays a map only if the expression uses Local(0) exclusively;
        // reading Local(1) must fail the match.
        let c = codelet(
            "shift",
            vec![mutp(DType::F32), rop(DType::F32)],
            2,
            vec![Stmt::ParFor {
                local: 0,
                start: Expr::Const(Value::I32(0)),
                end: Expr::ParamLen(0),
                body: vec![Stmt::Store {
                    param: 0,
                    index: Expr::Local(0),
                    value: Expr::index(1, Expr::Local(1)),
                }],
            }],
        );
        assert!(match_codelet(&c, &cost).is_none());
        // A reduce whose accumulator would narrow per iteration (f32 acc
        // over Dw terms: promote(F32, Dw) != F32) must fall back.
        let c = dot_codelet(Value::F32(0.0), DType::F32, DType::DoubleWord, DType::F32);
        assert!(match_codelet(&c, &cost).is_none());
    }
}
