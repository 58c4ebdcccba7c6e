//! Kernel instructions: a whole codelet recognised at lowering as one of the
//! solvers' templates, bound to exactly the storage the template declares,
//! and run as one native loop.
//!
//! A kernel's vertex has no register program beside it: the loop is the
//! only route. Values are exact because the loop performs the interpreter's
//! F32 operations in its order, and a row whose result is a NaN is computed
//! again through the one out-of-line copy of each operator, so its payload
//! is the interpreter's too. Charges are exact because the loop adds, per
//! row, the closed-form sums of what the interpreter charges for each
//! statement of the template, and schedules the rows as it does. It reads
//! what the interpreter reads before each row's store, in its order, so an
//! index out of range (row pointers shorter than the rows, say) panics on
//! the row where the interpreter panics.

use super::ir::{arith_f32, through_f64, BinOp, Codelet, Expr, ParamData, ParamDecl, Stmt, Value};
use super::lower::Charge;
use ipu_sim::cost::{CostModel, DType, Op};
use ipu_sim::threading::{level_set_cycles_in, LptScratch};

/// A codelet template as its builder emits it: parameters, number of
/// locals, body.
pub type Template = (Vec<ParamDecl>, usize, Vec<Stmt>);

/// Whether `c` is template `t`, exactly. Any drift in the real builder
/// makes the match fail: a safe fallback, never a wrong kernel.
pub(crate) fn is_template(c: &Codelet, t: &Template) -> bool {
    c.params == t.0 && c.num_locals == t.1 && c.body == t.2
}

/// A kernel instruction: one family of solver codelets, run a whole
/// `LevelSet` vertex at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// `dilu_forward` (`divide`) / `ilu_forward`: per row `i`,
    /// `w_i = (b_i − Σ_{j<i} l_ij w_j) / d_i` or `w_i = b_i − Σ_{j<i} l_ij w_j`.
    Forward { divide: bool },
    /// `ilu_backward` (`divide`) / `dilu_backward`: per row `i`,
    /// `z_i = (z_i − Σ_{i<j<n} u_ij z_j) / u_ii` or
    /// `z_i = z_i − (Σ_{i<j<n} u_ij z_j) / u_ii`.
    Backward { divide: bool },
}

impl Kernel {
    /// The kernel `codelet` is for operands of `storage`, if it is one.
    pub(super) fn recognise(codelet: &Codelet, storage: &[DType]) -> Option<Kernel> {
        use DType::{F32, I32};
        let forward = match storage {
            [F32, F32, F32, F32, I32, I32] => true,
            [F32, F32, F32, I32, I32] => false,
            _ => return None,
        };
        [false, true].into_iter().find_map(|divide| {
            let (template, kernel) = if forward {
                (forward_subst_template(divide), Kernel::Forward { divide })
            } else {
                (backward_subst_template(divide), Kernel::Backward { divide })
            };
            is_template(codelet, &template).then_some(kernel)
        })
    }

    /// Stable family name, stamped into the compile report.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Forward { divide: false } => "forward_subst",
            Kernel::Forward { divide: true } => "forward_subst_div",
            Kernel::Backward { divide: false } => "backward_subst",
            Kernel::Backward { divide: true } => "backward_subst_div",
        }
    }

    /// Run one `LevelSet` vertex over `levels`, scheduling it in `lpt`.
    pub(super) fn run(
        self,
        levels: &[Vec<usize>],
        params: &mut [ParamData],
        lpt: &mut LptScratch,
        cost: &CostModel,
        workers: u64,
    ) -> Charge {
        match self {
            Kernel::Forward { divide } => forward(divide, levels, params, lpt, cost, workers),
            Kernel::Backward { divide } => backward(divide, levels, params, lpt, cost, workers),
        }
    }
}

/// The forward sweep over `w · b · lvals · ldiag · cols · rptr`.
fn forward(
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
                acc -= lvals[k as usize] * w[j as usize];
                taken += 1;
            }
        }
        let mut v = if divide { acc / ldiag[i] } else { acc };
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
fn backward(
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
                acc += lvals[k as usize] * z[j as usize];
                taken += 1;
            }
        }
        let mut v = if divide { (z[i] - acc) / ldiag[i] } else { z[i] - acc / ldiag[i] };
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

/// Rebuild `forward_subst_codelet` (crates/core/src/solvers/ilu.rs): a
/// level-set codelet, the row index in local 0. Public for the interpreter
/// microbench and the tests that hold the kernel to `Interp`.
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

/// Rebuild `backward_subst_codelet` (crates/core/src/solvers/ilu.rs): a
/// level-set codelet, the row index in local 0. Public for the interpreter
/// microbench and the tests that hold the kernel to `Interp`.
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
