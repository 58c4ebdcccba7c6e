//! Kernel instructions: a whole codelet recognised at lowering as one of the
//! solvers' templates, bound to exactly the storage the template declares,
//! and run as one native loop.
//!
//! The solvers build these codelets from the templates below — the SpMV and
//! its residual, the two ILU(0) / DILU sweeps, the Gauss-Seidel row update,
//! and the two stages of every F32 reduction: the dot product's per-tile
//! partial and the sum of the partials — so a codelet that is not exactly
//! one of them is some other codelet, and runs its lowered program.
//!
//! A kernel's vertex has no register program beside it: the loop is the
//! only route. Values are exact because the loop performs the interpreter's
//! F32 operations in its order, and a row whose result is a NaN is computed
//! again through the one out-of-line copy of each operator, so its payload
//! is the interpreter's too. The loop takes its `+ − × ÷` as a type
//! parameter ([`F32Ops`]): [`Native`] on the engine's route, and in tests an
//! operator that keeps the other NaN, which only that recompute can undo.
//! Charges are exact because the loop adds, per row, the closed-form sums of
//! what the interpreter charges for each statement of the template, and
//! schedules the rows as it does: the SpMV's and the dot's trips under the
//! `ParFor` makespan, the sweeps' and the Gauss-Seidel rows' level by level,
//! the sum's serially. It reads what the interpreter reads before each
//! row's store, in its order, so an index out of range (row pointers
//! shorter than the rows, say) panics on the row where the interpreter
//! panics.

use super::interp::parfor_makespan;
use super::ir::{arith_f32, through_f64, BinOp, Codelet, Expr, ParamData, ParamDecl, Stmt, Value};
use super::lower::Charge;
use crate::compute::VertexKind;
use ipu_sim::cost::{CostModel, DType, Op};
use ipu_sim::threading::{level_set_cycles_in, LptScratch};

/// A codelet template as its builder emits it: parameters, number of
/// locals, body.
pub type Template = (Vec<ParamDecl>, usize, Vec<Stmt>);

/// A kernel instruction: one family of solver codelets, run a whole vertex
/// at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// `spmv` / `spmv_residual` (`residual`), a `Simple` vertex: per row
    /// `i` of `y`, `y_i = d_i x_i + Σ_k v_k x_{c_k}` or
    /// `y_i = b_i − (d_i x_i + Σ_k v_k x_{c_k})`.
    Spmv { residual: bool },
    /// `dilu_forward` (`divide`) / `ilu_forward`, a `LevelSet` vertex: per
    /// row `i`, `w_i = (b_i − Σ_{j<i} l_ij w_j) / d_i` or
    /// `w_i = b_i − Σ_{j<i} l_ij w_j`.
    Forward { divide: bool },
    /// `ilu_backward` (`divide`) / `dilu_backward`, a `LevelSet` vertex:
    /// per row `i`, `z_i = (z_i − Σ_{i<j<n} u_ij z_j) / u_ii` or
    /// `z_i = z_i − (Σ_{i<j<n} u_ij z_j) / u_ii`.
    Backward { divide: bool },
    /// `gs_forward` / `gs_backward`, a `LevelSet` vertex: per row `i`,
    /// `x_i = (b_i − Σ_k v_k x_{c_k}) / d_i` over the row's off-diagonal
    /// entries. The level order carries the sweep's direction.
    GaussSeidel,
    /// `dot` / `dot_square` (`square`), a `Simple` vertex: a reduction's
    /// per-tile stage, `p_0 = Σ_i x_i y_i` or `p_0 = Σ_i x_i x_i`.
    Dot { square: bool },
    /// `sum`, a `Simple` vertex: a reduction's tree and final stages,
    /// `p_0 = Σ_i q_i` over the partials `q`.
    Sum,
}

/// The f32 `+ − × ÷` a kernel loop performs. Which NaN an operation returns
/// when two meet is the compiler's choice, so the loops take the operators
/// as a parameter: a test runs them with operators that choose otherwise,
/// and sees that a NaN row's recompute, not the operand order, decides what
/// is stored.
pub trait F32Ops {
    fn add(x: f32, y: f32) -> f32;
    fn sub(x: f32, y: f32) -> f32;
    fn mul(x: f32, y: f32) -> f32;
    fn div(x: f32, y: f32) -> f32;
}

/// Rust's operators: what the engine runs.
pub struct Native;

impl F32Ops for Native {
    #[inline(always)]
    fn add(x: f32, y: f32) -> f32 {
        x + y
    }

    #[inline(always)]
    fn sub(x: f32, y: f32) -> f32 {
        x - y
    }

    #[inline(always)]
    fn mul(x: f32, y: f32) -> f32 {
        x * y
    }

    #[inline(always)]
    fn div(x: f32, y: f32) -> f32 {
        x / y
    }
}

impl Kernel {
    /// The kernel `codelet` is for operands of `storage` on a `LevelSet`
    /// vertex (`level_set`) or a `Simple` one, if it is one: exactly a
    /// template, on exactly the storage it declares. The solvers build their
    /// codelets from the templates, so there is no second definition to
    /// drift; anything else — a near miss, MPIR's SpMV over double-word
    /// storage — runs its lowered program, never a wrong kernel.
    pub(super) fn recognise(
        codelet: &Codelet,
        storage: &[DType],
        level_set: bool,
    ) -> Option<Kernel> {
        use DType::{F32, I32};
        use Kernel::*;
        let candidates: &[Kernel] = match (level_set, storage) {
            (false, [F32, F32, F32, F32, I32, I32]) => &[Spmv { residual: false }],
            (false, [F32, F32, F32, F32, F32, I32, I32]) => &[Spmv { residual: true }],
            (true, [F32, F32, F32, F32, I32, I32]) => {
                &[Forward { divide: false }, Forward { divide: true }, GaussSeidel]
            }
            (true, [F32, F32, F32, I32, I32]) => {
                &[Backward { divide: false }, Backward { divide: true }]
            }
            (false, [F32, F32, F32]) => &[Dot { square: false }],
            (false, [F32, F32]) => &[Dot { square: true }, Sum],
            _ => return None,
        };
        candidates.iter().copied().find(|k| {
            let (params, num_locals, body) = k.template();
            codelet.params == params && codelet.num_locals == num_locals && codelet.body == body
        })
    }

    /// The codelet this kernel runs, as its builder emits it.
    fn template(self) -> Template {
        match self {
            Kernel::Spmv { residual } => spmv_template(residual),
            Kernel::Forward { divide } => forward_subst_template(divide),
            Kernel::Backward { divide } => backward_subst_template(divide),
            Kernel::GaussSeidel => gauss_seidel_template(),
            Kernel::Dot { square } => dot_template(square),
            Kernel::Sum => sum_template(),
        }
    }

    /// The codelet `name` for this kernel's template.
    pub fn codelet(self, name: &str) -> Codelet {
        let (params, num_locals, body) = self.template();
        Codelet { name: name.into(), params, num_locals, body }
    }

    /// Stable family name, stamped into the compile report.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Spmv { residual: false } => "spmv",
            Kernel::Spmv { residual: true } => "spmv_residual",
            Kernel::Forward { divide: false } => "forward_subst",
            Kernel::Forward { divide: true } => "forward_subst_div",
            Kernel::Backward { divide: false } => "backward_subst",
            Kernel::Backward { divide: true } => "backward_subst_div",
            Kernel::GaussSeidel => "gauss_seidel",
            Kernel::Dot { square: false } => "dot",
            Kernel::Dot { square: true } => "dot_square",
            Kernel::Sum => "sum",
        }
    }

    /// Run one vertex of the kind the kernel was recognised for, its f32
    /// operators `O`, scheduling a level set's rows in `lpt`.
    pub(super) fn run<O: F32Ops>(
        self,
        kind: &VertexKind,
        params: &mut [ParamData],
        lpt: &mut LptScratch,
        cost: &CostModel,
        workers: u64,
    ) -> Charge {
        match (self, kind) {
            (Kernel::Spmv { residual }, VertexKind::Simple) => {
                spmv::<O>(residual, params, cost, workers)
            }
            (Kernel::Forward { divide }, VertexKind::LevelSet { levels }) => {
                forward::<O>(divide, levels, params, lpt, cost, workers)
            }
            (Kernel::Backward { divide }, VertexKind::LevelSet { levels }) => {
                backward::<O>(divide, levels, params, lpt, cost, workers)
            }
            (Kernel::GaussSeidel, VertexKind::LevelSet { levels }) => {
                gauss_seidel::<O>(levels, params, lpt, cost, workers)
            }
            (Kernel::Dot { square }, VertexKind::Simple) => dot::<O>(square, params, cost, workers),
            (Kernel::Sum, VertexKind::Simple) => sum::<O>(params, cost),
            _ => unreachable!("{self:?} was recognised for the other vertex kind"),
        }
    }
}

/// The SpMV over `y · x · diag · vals · cols · rptr`, or its residual over
/// `y · x · b · diag · vals · cols · rptr`.
fn spmv<O: F32Ops>(
    residual: bool,
    params: &mut [ParamData],
    cost: &CostModel,
    workers: u64,
) -> Charge {
    use ParamData::{F32Ro, I32Ro, F32};
    // `recognise` pinned the storage and the template the mutability.
    let (y, x, b, diag, vals, cols, rptr) = match params {
        [F32(y), F32Ro(x), F32Ro(diag), F32Ro(vals), I32Ro(cols), I32Ro(rptr)] if !residual => {
            (y, x, None, diag, vals, cols, rptr)
        }
        [F32(y), F32Ro(x), F32Ro(b), F32Ro(diag), F32Ro(vals), I32Ro(cols), I32Ro(rptr)] => {
            (y, x, Some(&**b), diag, vals, cols, rptr)
        }
        _ => unreachable!("the SpMV template is bound to its declared storage"),
    };
    let y: &mut [f32] = y;
    let (x, diag, vals, cols, rptr) = (&**x, &**diag, &**vals, &**cols, &**rptr);
    // `ParamLen`, the `ParFor`'s end: no rows when it wraps negative.
    let n = (y.len() as i32).max(0) as usize;

    // Per row: the loop step, the loads of `d_i` and `x_i` and their
    // product, two row-pointer loads and the `i + 1`, the load of `b_i`
    // and the subtract when there is one, the store of `y_i`; per trip:
    // the loop step, three loads, the multiply and the add.
    let l_f = cost.op_cycles(Op::Load, DType::F32);
    let l_i = cost.op_cycles(Op::Load, DType::I32);
    let step = cost.op_cycles(Op::LoopStep, DType::I32);
    let mul = cost.op_cycles(Op::Mul, DType::F32);
    let (sub, sub_flops, b_mem) =
        if residual { (l_f + cost.op_cycles(Op::Sub, DType::F32), 1, 4) } else { (0, 0, 0) };
    let row_cy = step
        + 2 * l_f
        + mul
        + 2 * l_i
        + cost.op_cycles(Op::Add, DType::I32)
        + sub
        + cost.op_cycles(Op::Store, DType::F32);
    let trip_cy = step + 2 * l_f + l_i + mul + cost.op_cycles(Op::Add, DType::F32);

    let mut trips = 0u64;
    for i in 0..n {
        let mut acc = O::mul(diag[i], x[i]);
        let (lo, hi) = (rptr[i] as i64, rptr[i + 1] as i64);
        for k in lo..hi {
            let k = k as usize;
            acc = O::add(acc, O::mul(vals[k], x[cols[k] as usize]));
        }
        let mut v = match b {
            Some(b) => O::sub(b[i], acc),
            None => acc,
        };
        if v.is_nan() {
            v = spmv_row_nan(i, lo..hi, x, b, diag, vals, cols);
        }
        y[i] = through_f64(v);
        trips += (hi - lo).max(0) as u64;
    }
    let rows = n as u64;
    Charge {
        cycles: parfor_makespan(rows * row_cy + trips * trip_cy, workers, cost),
        flops: rows * (1 + sub_flops) + trips * 2,
        mem_bytes: rows * (20 + b_mem) + trips * 12,
    }
}

/// Row `i` of the SpMV again, every operation through `arith_f32`: which
/// NaN a native operation returns depends on how the compiler ordered its
/// operands, and this is the interpreter's answer.
#[cold]
#[inline(never)]
fn spmv_row_nan(
    i: usize,
    trips: std::ops::Range<i64>,
    x: &[f32],
    b: Option<&[f32]>,
    diag: &[f32],
    vals: &[f32],
    cols: &[i32],
) -> f32 {
    use BinOp::*;
    let mut acc = arith_f32(Mul, diag[i], x[i]);
    for k in trips {
        let k = k as usize;
        acc = arith_f32(Add, acc, arith_f32(Mul, vals[k], x[cols[k] as usize]));
    }
    match b {
        Some(b) => arith_f32(Sub, b[i], acc),
        None => acc,
    }
}

/// The forward sweep over `w · b · lvals · ldiag · cols · rptr`.
fn forward<O: F32Ops>(
    divide: bool,
    levels: &[Vec<usize>],
    params: &mut [ParamData],
    lpt: &mut LptScratch,
    cost: &CostModel,
    workers: u64,
) -> Charge {
    use ParamData::{F32Ro, I32Ro, F32};
    // `recognise` pinned the storage and the template the mutability.
    let [F32(w), F32Ro(b), F32Ro(lvals), F32Ro(ldiag), I32Ro(cols), I32Ro(rptr)] = params else {
        unreachable!("the forward template is bound to its declared storage")
    };
    let w: &mut [f32] = w;
    let (b, lvals, ldiag, cols, rptr) = (&**b, &**lvals, &**ldiag, &**cols, &**rptr);

    // Per row: the prologue (the load of `b_i`, two row-pointer loads and
    // the `i + 1`); per trip: the loop step, the column load and the guard
    // (one compare, the branch); per accumulated trip: two loads, the
    // multiply and the subtract; the epilogue: the store of `w_i`, after
    // the load of `d_i` and the divide when there is one.
    let l_f = cost.op_cycles(Op::Load, DType::F32);
    let l_i = cost.op_cycles(Op::Load, DType::I32);
    let row_fixed = l_f + l_i + cost.op_cycles(Op::Add, DType::I32) + l_i;
    let trip = cost.op_cycles(Op::LoopStep, DType::I32)
        + l_i
        + cost.op_cycles(Op::Cmp, DType::I32)
        + cost.op_cycles(Op::Branch, DType::Bool);
    let taken_cy =
        2 * l_f + cost.op_cycles(Op::Mul, DType::F32) + cost.op_cycles(Op::Sub, DType::F32);
    let store = cost.op_cycles(Op::Store, DType::F32);
    let (epilogue, epilogue_flops, epilogue_mem) = if divide {
        (l_f + cost.op_cycles(Op::Div, DType::F32) + store, 1, 8)
    } else {
        (store, 0, 4)
    };

    let (mut flops, mut mem) = (0u64, 0u64);
    // Each row is solved inside the schedule's cost callback (called once
    // per row, in level order) and returns the row's cycles.
    let cycles = level_set_cycles_in(lpt, levels, workers as usize, cost, |i| {
        let mut acc = b[i];
        let (lo, hi) = (rptr[i] as i64, rptr[i + 1] as i64);
        let row = i as i64;
        let mut taken = 0u64;
        for k in lo..hi {
            let j = cols[k as usize] as i64;
            if j < row {
                acc = O::sub(acc, O::mul(lvals[k as usize], w[j as usize]));
                taken += 1;
            }
        }
        let mut v = if divide { O::div(acc, ldiag[i]) } else { acc };
        if v.is_nan() {
            v = forward_row_nan(divide, i, lo..hi, w, b, lvals, ldiag, cols);
        }
        w[i] = through_f64(v);
        let trips = (hi - lo).max(0) as u64;
        flops += 2 * taken + epilogue_flops;
        mem += 12 + trips * 4 + taken * 8 + epilogue_mem;
        row_fixed + trips * trip + taken * taken_cy + epilogue
    });
    Charge { cycles, flops, mem_bytes: mem }
}

/// Row `i` of the forward sweep again, every operation through
/// `arith_f32`: which NaN a native operation returns depends on how the
/// compiler ordered its operands, and this is the interpreter's answer.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn forward_row_nan(
    divide: bool,
    i: usize,
    trips: std::ops::Range<i64>,
    w: &[f32],
    b: &[f32],
    lvals: &[f32],
    ldiag: &[f32],
    cols: &[i32],
) -> f32 {
    use BinOp::*;
    let mut acc = b[i];
    for k in trips {
        let j = cols[k as usize] as i64;
        if j < i as i64 {
            acc = arith_f32(Sub, acc, arith_f32(Mul, lvals[k as usize], w[j as usize]));
        }
    }
    if divide {
        arith_f32(Div, acc, ldiag[i])
    } else {
        acc
    }
}

/// The backward sweep over `z · lvals · ldiag · cols · rptr`.
fn backward<O: F32Ops>(
    divide: bool,
    levels: &[Vec<usize>],
    params: &mut [ParamData],
    lpt: &mut LptScratch,
    cost: &CostModel,
    workers: u64,
) -> Charge {
    use ParamData::{F32Ro, I32Ro, F32};
    // `recognise` pinned the storage and the template the mutability.
    let [F32(z), F32Ro(lvals), F32Ro(ldiag), I32Ro(cols), I32Ro(rptr)] = params else {
        unreachable!("the backward template is bound to its declared storage")
    };
    let z: &mut [f32] = z;
    let (lvals, ldiag, cols, rptr) = (&**lvals, &**ldiag, &**cols, &**rptr);
    // `ParamLen`, as the template's local 1 holds it.
    let n = z.len() as i32 as i64;

    // Per row: the prologue (two row-pointer loads and the `i + 1`); per
    // trip: the loop step, the column load and the guard (two compares,
    // their `And`, the branch); per accumulated trip: two loads, the
    // multiply and the add; the epilogue: the store of `z_i` and what its
    // value costs.
    let l_f = cost.op_cycles(Op::Load, DType::F32);
    let l_i = cost.op_cycles(Op::Load, DType::I32);
    let cmp_i = cost.op_cycles(Op::Cmp, DType::I32);
    let row_fixed = l_i + cost.op_cycles(Op::Add, DType::I32) + l_i;
    let trip = cost.op_cycles(Op::LoopStep, DType::I32)
        + l_i
        + 2 * cmp_i
        + cost.op_cycles(Op::Cmp, DType::Bool)
        + cost.op_cycles(Op::Branch, DType::Bool);
    let taken_cy =
        2 * l_f + cost.op_cycles(Op::Mul, DType::F32) + cost.op_cycles(Op::Add, DType::F32);
    let epilogue = 2 * l_f
        + cost.op_cycles(Op::Sub, DType::F32)
        + cost.op_cycles(Op::Div, DType::F32)
        + cost.op_cycles(Op::Store, DType::F32);

    let (mut flops, mut mem) = (0u64, 0u64);
    // Each row is solved inside the schedule's cost callback (called once
    // per row, in level order) and returns the row's cycles.
    let cycles = level_set_cycles_in(lpt, levels, workers as usize, cost, |i| {
        let (lo, hi) = (rptr[i] as i64, rptr[i + 1] as i64);
        let row = i as i64;
        let mut acc = 0.0f32;
        let mut taken = 0u64;
        for k in lo..hi {
            let j = cols[k as usize] as i64;
            if j > row && j < n {
                acc = O::add(acc, O::mul(lvals[k as usize], z[j as usize]));
                taken += 1;
            }
        }
        let mut v = if divide {
            O::div(O::sub(z[i], acc), ldiag[i])
        } else {
            O::sub(z[i], O::div(acc, ldiag[i]))
        };
        if v.is_nan() {
            v = backward_row_nan(divide, i, n, lo..hi, z, lvals, ldiag, cols);
        }
        z[i] = through_f64(v);
        let trips = (hi - lo).max(0) as u64;
        flops += 2 * taken + 2;
        mem += 8 + trips * 4 + taken * 8 + 12;
        row_fixed + trips * trip + taken * taken_cy + epilogue
    });
    Charge { cycles, flops, mem_bytes: mem }
}

/// Row `i` of the backward sweep again, every operation through
/// `arith_f32`: which NaN a native operation returns depends on how the
/// compiler ordered its operands, and this is the interpreter's answer.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn backward_row_nan(
    divide: bool,
    i: usize,
    n: i64,
    trips: std::ops::Range<i64>,
    z: &[f32],
    lvals: &[f32],
    ldiag: &[f32],
    cols: &[i32],
) -> f32 {
    use BinOp::*;
    let mut acc = 0.0f32;
    for k in trips {
        let j = cols[k as usize] as i64;
        if j > i as i64 && j < n {
            acc = arith_f32(Add, acc, arith_f32(Mul, lvals[k as usize], z[j as usize]));
        }
    }
    if divide {
        arith_f32(Div, arith_f32(Sub, z[i], acc), ldiag[i])
    } else {
        arith_f32(Sub, z[i], arith_f32(Div, acc, ldiag[i]))
    }
}

/// The Gauss-Seidel row update over `x · b · diag · vals · cols · rptr`.
fn gauss_seidel<O: F32Ops>(
    levels: &[Vec<usize>],
    params: &mut [ParamData],
    lpt: &mut LptScratch,
    cost: &CostModel,
    workers: u64,
) -> Charge {
    use ParamData::{F32Ro, I32Ro, F32};
    // `recognise` pinned the storage and the template the mutability.
    let [F32(x), F32Ro(b), F32Ro(diag), F32Ro(vals), I32Ro(cols), I32Ro(rptr)] = params else {
        unreachable!("the Gauss-Seidel template is bound to its declared storage")
    };
    let x: &mut [f32] = x;
    let (b, diag, vals, cols, rptr) = (&**b, &**diag, &**vals, &**cols, &**rptr);

    // Per row: the load of `b_i`, two row-pointer loads and the `i + 1`,
    // then the load of `d_i`, the divide and the store of `x_i`; per trip:
    // the loop step, three loads, the multiply and the subtract.
    let l_f = cost.op_cycles(Op::Load, DType::F32);
    let l_i = cost.op_cycles(Op::Load, DType::I32);
    let row_cy = 2 * l_f
        + 2 * l_i
        + cost.op_cycles(Op::Add, DType::I32)
        + cost.op_cycles(Op::Div, DType::F32)
        + cost.op_cycles(Op::Store, DType::F32);
    let trip_cy = cost.op_cycles(Op::LoopStep, DType::I32)
        + 2 * l_f
        + l_i
        + cost.op_cycles(Op::Mul, DType::F32)
        + cost.op_cycles(Op::Sub, DType::F32);

    let (mut flops, mut mem) = (0u64, 0u64);
    // Each row is solved inside the schedule's cost callback (called once
    // per row, in level order) and returns the row's cycles.
    let cycles = level_set_cycles_in(lpt, levels, workers as usize, cost, |i| {
        let mut acc = b[i];
        let (lo, hi) = (rptr[i] as i64, rptr[i + 1] as i64);
        for k in lo..hi {
            let k = k as usize;
            acc = O::sub(acc, O::mul(vals[k], x[cols[k] as usize]));
        }
        let mut v = O::div(acc, diag[i]);
        if v.is_nan() {
            v = gs_row_nan(i, lo..hi, x, b, diag, vals, cols);
        }
        x[i] = through_f64(v);
        let trips = (hi - lo).max(0) as u64;
        flops += 1 + 2 * trips;
        mem += 20 + 12 * trips;
        row_cy + trips * trip_cy
    });
    Charge { cycles, flops, mem_bytes: mem }
}

/// Row `i` of the Gauss-Seidel update again, every operation through
/// `arith_f32`: which NaN a native operation returns depends on how the
/// compiler ordered its operands, and this is the interpreter's answer.
#[cold]
#[inline(never)]
fn gs_row_nan(
    i: usize,
    trips: std::ops::Range<i64>,
    x: &[f32],
    b: &[f32],
    diag: &[f32],
    vals: &[f32],
    cols: &[i32],
) -> f32 {
    use BinOp::*;
    let mut acc = b[i];
    for k in trips {
        let k = k as usize;
        acc = arith_f32(Sub, acc, arith_f32(Mul, vals[k], x[cols[k] as usize]));
    }
    arith_f32(Div, acc, diag[i])
}

/// The dot product's per-tile stage over `p · x · y`, or `p · x` squared.
fn dot<O: F32Ops>(
    square: bool,
    params: &mut [ParamData],
    cost: &CostModel,
    workers: u64,
) -> Charge {
    use ParamData::{F32Ro, F32};
    // `recognise` pinned the storage and the template the mutability.
    let (p, x, y) = match params {
        [F32(p), F32Ro(x)] if square => (p, &**x, &**x),
        [F32(p), F32Ro(x), F32Ro(y)] if !square => (p, &**x, &**y),
        _ => unreachable!("the dot template is bound to its declared storage"),
    };
    // `ParamLen`, the `ParFor`'s end: no trips when it wraps negative.
    let n = (x.len() as i32).max(0) as usize;

    // Per trip: the loop step, two loads, the multiply and the add; then
    // the store of the partial.
    let l_f = cost.op_cycles(Op::Load, DType::F32);
    let trip_cy = cost.op_cycles(Op::LoopStep, DType::I32)
        + 2 * l_f
        + cost.op_cycles(Op::Mul, DType::F32)
        + cost.op_cycles(Op::Add, DType::F32);

    let mut acc = 0.0f32;
    for i in 0..n {
        acc = O::add(acc, O::mul(x[i], y[i]));
    }
    if acc.is_nan() {
        acc = dot_nan(n, x, y);
    }
    p[0] = through_f64(acc);
    let trips = n as u64;
    Charge {
        cycles: parfor_makespan(trips * trip_cy, workers, cost)
            + cost.op_cycles(Op::Store, DType::F32),
        flops: trips * 2,
        mem_bytes: trips * 8 + 4,
    }
}

/// The dot again, every operation through `arith_f32`: which NaN a native
/// operation returns depends on how the compiler ordered its operands, and
/// this is the interpreter's answer.
#[cold]
#[inline(never)]
fn dot_nan(n: usize, x: &[f32], y: &[f32]) -> f32 {
    use BinOp::*;
    (0..n).fold(0.0, |acc, i| arith_f32(Add, acc, arith_f32(Mul, x[i], y[i])))
}

/// The sum of the partials over `p · q`.
fn sum<O: F32Ops>(params: &mut [ParamData], cost: &CostModel) -> Charge {
    use ParamData::{F32Ro, F32};
    // `recognise` pinned the storage and the template the mutability.
    let [F32(p), F32Ro(q)] = params else {
        unreachable!("the sum template is bound to its declared storage")
    };
    let q: &[f32] = q;
    // `ParamLen`, the `For`'s end: no trips when it wraps negative.
    let n = (q.len() as i32).max(0) as usize;

    // Per trip: the loop step, the load and the add; then the store.
    let trip_cy = cost.op_cycles(Op::LoopStep, DType::I32)
        + cost.op_cycles(Op::Load, DType::F32)
        + cost.op_cycles(Op::Add, DType::F32);

    let mut acc = 0.0f32;
    for &v in &q[..n] {
        acc = O::add(acc, v);
    }
    if acc.is_nan() {
        acc = sum_nan(&q[..n]);
    }
    p[0] = through_f64(acc);
    let trips = n as u64;
    Charge {
        cycles: trips * trip_cy + cost.op_cycles(Op::Store, DType::F32),
        flops: trips,
        mem_bytes: trips * 4 + 4,
    }
}

/// The sum again, every add through `arith_f32`: which NaN a native add
/// returns depends on how the compiler ordered its operands, and this is
/// the interpreter's answer.
#[cold]
#[inline(never)]
fn sum_nan(q: &[f32]) -> f32 {
    q.iter().fold(0.0, |acc, &v| arith_f32(BinOp::Add, acc, v))
}

/// The SpMV codelet (`spmv`) and its residual (`residual`) the distributed
/// system builds: a `ParFor` over the rows of `y`, per row
/// `acc = d_i x_i; for k in rptr[i]..rptr[i+1] { acc = acc + v_k x_{c_k} }`,
/// then `y_i = acc` or `y_i = b_i − acc`. Params: `y` (mut) · `x` · `b` (the
/// residual's) · `diag` · `vals` · `cols` · `rptr`. Over a double-word `x`
/// the accumulation promotes: that is MPIR's residual.
pub fn spmv_template(residual: bool) -> Template {
    use BinOp::*;
    let ro = |dtype| ParamDecl { dtype, mutable: false };
    let mut params = vec![ParamDecl { dtype: DType::F32, mutable: true }, ro(DType::F32)];
    if residual {
        params.push(ro(DType::F32)); // b
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

/// The forward substitution ILU(0) (`ilu_forward`) and DILU
/// (`dilu_forward`, `divide`) run: a level-set codelet, the row index in
/// local 0, per row `w_i = b_i − Σ_{j<i} l_ij w_j`, over `d_i` with
/// `divide`. Params: `w` (mut) · `b` · `lu_vals` · `lu_diag` · `cols` ·
/// `rptr`; ILU(0)'s unit lower factor leaves `lu_diag` unread.
pub fn forward_subst_template(divide: bool) -> Template {
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

/// The backward substitution ILU(0) (`ilu_backward`, `divide`) and DILU
/// (`dilu_backward`) run, in place on `z`: a level-set codelet, the row
/// index in local 0, per row `z_i = (z_i − Σ_{i<j<n} u_ij z_j) / u_ii`, or
/// `z_i = z_i − (Σ_{i<j<n} u_ij z_j) / u_ii` without `divide`. Params: `z`
/// (mut) · `lu_vals` · `lu_diag` · `cols` · `rptr`.
pub fn backward_subst_template(divide: bool) -> Template {
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

/// The Gauss-Seidel row update `gs_forward` and `gs_backward` both run: a
/// level-set codelet, the row index in local 0, per row
/// `acc = b_i; for k in rptr[i]..rptr[i+1] { acc = acc − v_k x_{c_k} }`,
/// then `x_i = acc / d_i`. Params: `x` (mut, owned and halo) · `b` · `diag`
/// · `vals` · `cols` · `rptr`.
pub fn gauss_seidel_template() -> Template {
    use BinOp::*;
    let ro = |dtype| ParamDecl { dtype, mutable: false };
    let params = vec![
        ParamDecl { dtype: DType::F32, mutable: true }, // x
        ro(DType::F32),                                 // b
        ro(DType::F32),                                 // diag
        ro(DType::F32),                                 // vals
        ro(DType::I32),                                 // cols
        ro(DType::I32),                                 // rptr
    ];
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
            body: vec![Stmt::SetLocal(
                1,
                Expr::bin(
                    Sub,
                    Expr::Local(1),
                    Expr::bin(
                        Mul,
                        Expr::index(3, Expr::Local(4)),
                        Expr::index(0, Expr::index(4, Expr::Local(4))),
                    ),
                ),
            )],
        },
        Stmt::Store {
            param: 0,
            index: Expr::Local(0),
            value: Expr::bin(Div, Expr::Local(1), Expr::index(2, Expr::Local(0))),
        },
    ];
    (params, 5, body)
}

/// A reduction's per-tile stage `DslCtx::reduce_into` builds for `x * y`,
/// or for `x * x` (`square`): `acc = 0; ParFor i < len(x) { acc = acc +
/// x_i y_i }; p_0 = acc`, local 0 the index and local 1 the accumulator.
/// Params: the partial `p` (mut) · `x` · `y` (not `square`'s).
pub fn dot_template(square: bool) -> Template {
    let ro = ParamDecl { dtype: DType::F32, mutable: false };
    let mut params = vec![ParamDecl { dtype: DType::F32, mutable: true }, ro];
    let y = if square { 1 } else { 2 };
    if !square {
        params.push(ro);
    }
    let product =
        Expr::bin(BinOp::Mul, Expr::index(1, Expr::Local(0)), Expr::index(y, Expr::Local(0)));
    (
        params,
        2,
        reduction_body(Stmt::ParFor {
            local: 0,
            start: Expr::Const(Value::I32(0)),
            end: Expr::ParamLen(1),
            body: vec![Stmt::SetLocal(1, Expr::bin(BinOp::Add, Expr::Local(1), product))],
        }),
    )
}

/// A reduction's tree and final stages over F32 partials, as
/// `DslCtx::reduce_into` builds them: `acc = 0; For i < len(q) step 1 {
/// acc = acc + q_i }; p_0 = acc`. Params: `p` (mut) · `q`.
pub fn sum_template() -> Template {
    let params = vec![
        ParamDecl { dtype: DType::F32, mutable: true },  // p
        ParamDecl { dtype: DType::F32, mutable: false }, // q
    ];
    (
        params,
        2,
        reduction_body(Stmt::For {
            local: 0,
            start: Expr::Const(Value::I32(0)),
            end: Expr::ParamLen(1),
            step: Expr::Const(Value::I32(1)),
            body: vec![Stmt::SetLocal(
                1,
                Expr::bin(BinOp::Add, Expr::Local(1), Expr::index(1, Expr::Local(0))),
            )],
        }),
    )
}

/// Both reduction stages' bodies: local 1 from zero, `each` accumulating
/// into it, then element 0 of parameter 0 stored from it.
fn reduction_body(each: Stmt) -> Vec<Stmt> {
    vec![
        Stmt::SetLocal(1, Expr::Const(Value::F32(0.0))),
        each,
        Stmt::Store { param: 0, index: Expr::Const(Value::I32(0)), value: Expr::Local(1) },
    ]
}
