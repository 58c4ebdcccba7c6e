//! The codelet IR and its two cycle-accounting interpreters.
//!
//! A codelet is the unit of computation bound to a tile — Poplar's
//! C++-compiled vertex code. Here it is a small structured IR (expressions
//! and statements over *dynamically typed* values, matching the paper's
//! dynamically typed DSLs) executed by a tree-walking interpreter that
//! charges the [`ipu_sim::CostModel`] for every operation it performs.
//! [`Interp`] walks the IR as built, discovering dtypes and charges node by
//! node; [`Lowered`] is the same codelet typed and costed once for the
//! storage dtypes of one vertex's operands and flattened into a register
//! program — what the engine runs, with `Interp` as its fallback and its
//! oracle.
//!
//! Codelets access data exclusively through their declared **parameters**
//! (tensor slices handed to the vertex), mirroring the tile-local
//! perspective of CodeDSL: "algorithms … can only access parts of tensors
//! that are mapped to the executing tile".

use crate::compute::VertexKind;
use ipu_sim::cost::{CostModel, DType, Op};
use ipu_sim::threading::{level_set_cycles, level_set_cycles_in, LptScratch};
use twofloat::{SoftDouble, TwoF32, TwoFloat};

/// Index of a codelet within a graph.
pub type CodeletId = usize;
/// Index of a local variable slot within a codelet.
pub type LocalId = usize;
/// Index of a parameter within a codelet.
pub type ParamId = usize;

/// A dynamically typed scalar value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    F32(f32),
    I32(i32),
    Bool(bool),
    /// Double-word (f32 pair, Joldes arithmetic).
    Dw(TwoF32),
    /// Software-emulated binary64.
    F64(f64),
}

impl Value {
    pub fn dtype(self) -> DType {
        match self {
            Value::F32(_) => DType::F32,
            Value::I32(_) => DType::I32,
            Value::Bool(_) => DType::Bool,
            Value::Dw(_) => DType::DoubleWord,
            Value::F64(_) => DType::F64Emulated,
        }
    }

    /// Numeric value as f64 (bools become 0/1).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::F32(v) => v as f64,
            Value::I32(v) => v as f64,
            Value::Bool(v) => v as u8 as f64,
            Value::Dw(v) => v.to_f64(),
            Value::F64(v) => v,
        }
    }

    pub fn as_i64(self) -> i64 {
        match self {
            Value::I32(v) => v as i64,
            Value::Bool(v) => v as i64,
            Value::F32(v) => v as i64,
            Value::Dw(v) => v.to_f64() as i64,
            Value::F64(v) => v as i64,
        }
    }

    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(v) => v,
            Value::I32(v) => v != 0,
            Value::F32(v) => v != 0.0,
            Value::Dw(v) => v.to_f64() != 0.0,
            Value::F64(v) => v != 0.0,
        }
    }

    /// Convert to another device type (with the rounding that implies).
    pub fn convert(self, to: DType) -> Value {
        match to {
            DType::F32 => Value::F32(self.as_f64() as f32),
            DType::I32 => Value::I32(self.as_i64() as i32),
            DType::Bool => Value::Bool(self.as_bool()),
            DType::DoubleWord => match self {
                Value::Dw(v) => Value::Dw(v),
                // From f32: exact. From f64: split into hi+lo.
                Value::F32(v) => Value::Dw(TwoFloat::from_f(v)),
                other => Value::Dw(TwoFloat::from_f64(other.as_f64())),
            },
            DType::F64Emulated => Value::F64(self.as_f64()),
        }
    }
}

/// Binary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    /// Integer remainder.
    Rem,
}

impl BinOp {
    pub(crate) fn cost_op(self) -> Op {
        match self {
            BinOp::Add => Op::Add,
            BinOp::Sub => Op::Sub,
            BinOp::Mul => Op::Mul,
            BinOp::Div | BinOp::Rem => Op::Div,
            BinOp::Min => Op::Min,
            BinOp::Max => Op::Max,
            _ => Op::Cmp,
        }
    }
}

/// Unary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Abs,
    Sqrt,
    Not,
}

/// The numeric promotion lattice of the dynamically typed DSLs:
/// Bool < I32 < F32 < DoubleWord < F64Emulated.
pub(crate) fn promote(a: DType, b: DType) -> DType {
    fn rank(d: DType) -> u8 {
        match d {
            DType::Bool => 0,
            DType::I32 => 1,
            DType::F32 => 2,
            DType::DoubleWord => 3,
            DType::F64Emulated => 4,
        }
    }
    if rank(a) >= rank(b) {
        a
    } else {
        b
    }
}

/// Apply a binary operation with dynamic promotion. Returns the result and
/// the dtype whose cost applies.
pub fn apply_bin(op: BinOp, a: Value, b: Value) -> (Value, DType) {
    let dt = promote(a.dtype(), b.dtype());
    let val = match dt {
        DType::I32 | DType::Bool => bin_i64(op, a.as_i64(), b.as_i64()),
        DType::F32 => bin_f32(op, as_f32(a), as_f32(b)),
        DType::DoubleWord => bin_dw(op, as_dw(a), as_dw(b)),
        DType::F64Emulated => bin_f64(op, a.as_f64(), b.as_f64()),
    };
    (val, dt)
}

// Two helpers per promoted domain, together the single definition of every
// operator: `arith_*` for `+ − × ÷ % min max`, which yields the domain's
// type, and `cmp_*` for comparisons and logic, which yield a bool (and cost
// at the operand type). `apply_bin` reaches them through the promotion
// ladder and the `bin_*` wrappers, which build its `Value`; the lowered form
// calls them directly (its operands are promoted once, at lowering).
//
// The three float `arith_*` are `#[inline(never)]`: of two different NaNs,
// which payload `+`, `*`, `min` or `max` returns is the compiler's choice
// per call site (IEEE 754 leaves it open and LLVM commutes all four), so
// one answer on every route takes one compiled copy of each operator.

/// An arithmetic operator sent to `cmp_*`, or a comparison to `arith_*`.
#[cold]
fn misrouted(op: BinOp) -> ! {
    unreachable!("{op:?} sent to the other kind of operator")
}

/// The I32 / Bool domain, evaluated in i64 and wrapped to i32. `Div` and
/// `Rem` by zero panic (Rust's integer division), on every path.
#[inline]
fn arith_i64(op: BinOp, x: i64, y: i64) -> i64 {
    use BinOp::*;
    let v = match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => x / y,
        Rem => x % y,
        Min => x.min(y),
        Max => x.max(y),
        _ => misrouted(op),
    };
    v as i32 as i64
}

#[inline]
fn cmp_i64(op: BinOp, x: i64, y: i64) -> bool {
    use BinOp::*;
    match op {
        Eq => x == y,
        Ne => x != y,
        Lt => x < y,
        Le => x <= y,
        Gt => x > y,
        Ge => x >= y,
        And => x != 0 && y != 0,
        Or => x != 0 || y != 0,
        _ => misrouted(op),
    }
}

#[inline]
fn bin_i64(op: BinOp, x: i64, y: i64) -> Value {
    if op.cost_op() == Op::Cmp {
        Value::Bool(cmp_i64(op, x, y))
    } else {
        Value::I32(arith_i64(op, x, y) as i32)
    }
}

#[inline(never)]
fn arith_f32(op: BinOp, x: f32, y: f32) -> f32 {
    use BinOp::*;
    match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => x / y,
        Rem => x % y,
        Min => x.min(y),
        Max => x.max(y),
        _ => misrouted(op),
    }
}

#[inline]
fn cmp_f32(op: BinOp, x: f32, y: f32) -> bool {
    use BinOp::*;
    match op {
        Eq => x == y,
        Ne => x != y,
        Lt => x < y,
        Le => x <= y,
        Gt => x > y,
        Ge => x >= y,
        And => x != 0.0 && y != 0.0,
        Or => x != 0.0 || y != 0.0,
        _ => misrouted(op),
    }
}

#[inline]
fn bin_f32(op: BinOp, x: f32, y: f32) -> Value {
    if op.cost_op() == Op::Cmp {
        Value::Bool(cmp_f32(op, x, y))
    } else {
        Value::F32(arith_f32(op, x, y))
    }
}

#[inline(never)]
fn arith_dw(op: BinOp, x: TwoF32, y: TwoF32) -> TwoF32 {
    use BinOp::*;
    match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => x / y,
        Rem => TwoFloat::from_f64(x.to_f64() % y.to_f64()),
        Min => {
            if x < y {
                x
            } else {
                y
            }
        }
        Max => {
            if x > y {
                x
            } else {
                y
            }
        }
        _ => misrouted(op),
    }
}

#[inline]
fn cmp_dw(op: BinOp, x: TwoF32, y: TwoF32) -> bool {
    use BinOp::*;
    match op {
        Eq => x == y,
        Ne => x != y,
        Lt => x < y,
        Le => x <= y || x == y,
        Gt => x > y,
        Ge => x >= y || x == y,
        And => x.to_f64() != 0.0 && y.to_f64() != 0.0,
        Or => x.to_f64() != 0.0 || y.to_f64() != 0.0,
        _ => misrouted(op),
    }
}

#[inline]
fn bin_dw(op: BinOp, x: TwoF32, y: TwoF32) -> Value {
    if op.cost_op() == Op::Cmp {
        Value::Bool(cmp_dw(op, x, y))
    } else {
        Value::Dw(arith_dw(op, x, y))
    }
}

#[inline(never)]
fn arith_f64(op: BinOp, x: f64, y: f64) -> f64 {
    use BinOp::*;
    match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => x / y,
        Rem => x % y,
        Min => x.min(y),
        Max => x.max(y),
        _ => misrouted(op),
    }
}

#[inline]
fn cmp_f64(op: BinOp, x: f64, y: f64) -> bool {
    use BinOp::*;
    match op {
        Eq => x == y,
        Ne => x != y,
        Lt => x < y,
        Le => x <= y,
        Gt => x > y,
        Ge => x >= y,
        And => x != 0.0 && y != 0.0,
        Or => x != 0.0 || y != 0.0,
        _ => misrouted(op),
    }
}

#[inline]
fn bin_f64(op: BinOp, x: f64, y: f64) -> Value {
    if op.cost_op() == Op::Cmp {
        Value::Bool(cmp_f64(op, x, y))
    } else {
        Value::F64(arith_f64(op, x, y))
    }
}

/// An operand of the F32 domain: an f32 payload exactly as it is (a
/// signalling NaN keeps its bits), an I32 or Bool widened.
#[inline]
fn as_f32(v: Value) -> f32 {
    match v {
        Value::F32(x) => x,
        other => other.as_f64() as f32,
    }
}

pub(crate) fn as_dw(v: Value) -> TwoF32 {
    match v {
        Value::Dw(x) => x,
        Value::F32(x) => TwoFloat::from_f(x),
        other => TwoFloat::from_f64(other.as_f64()),
    }
}

/// Apply a unary operation.
pub fn apply_un(op: UnOp, a: Value) -> (Value, DType) {
    let dt = a.dtype();
    let val = match (op, a) {
        (UnOp::Neg, Value::F32(v)) => Value::F32(-v),
        (UnOp::Neg, Value::I32(v)) => Value::I32(-v),
        (UnOp::Neg, Value::Dw(v)) => Value::Dw(-v),
        (UnOp::Neg, Value::F64(v)) => Value::F64(-v),
        (UnOp::Neg, Value::Bool(v)) => Value::Bool(!v),
        (UnOp::Abs, Value::F32(v)) => Value::F32(v.abs()),
        (UnOp::Abs, Value::I32(v)) => Value::I32(v.abs()),
        (UnOp::Abs, Value::Dw(v)) => Value::Dw(v.abs()),
        (UnOp::Abs, Value::F64(v)) => Value::F64(v.abs()),
        (UnOp::Abs, Value::Bool(v)) => Value::Bool(v),
        (UnOp::Sqrt, Value::F32(v)) => Value::F32(v.sqrt()),
        (UnOp::Sqrt, Value::I32(v)) => Value::F32((v as f32).sqrt()),
        (UnOp::Sqrt, Value::Dw(v)) => Value::Dw(v.sqrt()),
        (UnOp::Sqrt, Value::F64(v)) => Value::F64(v.sqrt()),
        (UnOp::Sqrt, Value::Bool(_)) => panic!("sqrt of bool"),
        (UnOp::Not, v) => Value::Bool(!v.as_bool()),
    };
    (val, dt)
}

/// An expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Const(Value),
    /// Read a local variable.
    Local(LocalId),
    /// Number of elements of a parameter slice (known per vertex).
    ParamLen(ParamId),
    /// Load `param[index]`.
    Index {
        param: ParamId,
        index: Box<Expr>,
    },
    Unary {
        op: UnOp,
        arg: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Explicit type conversion.
    Convert {
        to: DType,
        arg: Box<Expr>,
    },
    /// `cond ? then : otherwise` (both sides evaluated on the IPU's
    /// branch-free select).
    Select {
        cond: Box<Expr>,
        then: Box<Expr>,
        otherwise: Box<Expr>,
    },
}

impl Expr {
    pub fn c(v: Value) -> Expr {
        Expr::Const(v)
    }

    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    pub fn un(op: UnOp, arg: Expr) -> Expr {
        Expr::Unary { op, arg: Box::new(arg) }
    }

    pub fn index(param: ParamId, index: Expr) -> Expr {
        Expr::Index { param, index: Box::new(index) }
    }
}

/// A statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `locals[id] = expr`.
    SetLocal(LocalId, Expr),
    /// `param[index] = value`.
    Store {
        param: ParamId,
        index: Expr,
        value: Expr,
    },
    If {
        cond: Expr,
        then: Vec<Stmt>,
        otherwise: Vec<Stmt>,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    /// `for local = start; local < end; local += step`.
    For {
        local: LocalId,
        start: Expr,
        end: Expr,
        step: Expr,
        body: Vec<Stmt>,
    },
    /// Like `For`, but iterations are independent and spread across the
    /// tile's worker threads: executed sequentially (deterministic), costed
    /// as `spawn + ceil(body cycles / workers)`.
    ParFor {
        local: LocalId,
        start: Expr,
        end: Expr,
        body: Vec<Stmt>,
    },
}

/// Declared parameter of a codelet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamDecl {
    pub dtype: DType,
    /// Whether the codelet writes this parameter.
    pub mutable: bool,
}

/// A codelet: the computational kernel bound to vertices.
#[derive(Clone, Debug, PartialEq)]
pub struct Codelet {
    pub name: String,
    pub params: Vec<ParamDecl>,
    pub num_locals: usize,
    pub body: Vec<Stmt>,
}

impl Codelet {
    /// Static validation: parameter and local references in range, stores
    /// only to mutable parameters.
    pub fn validate(&self) -> Result<(), String> {
        fn check_expr(c: &Codelet, e: &Expr) -> Result<(), String> {
            match e {
                Expr::Const(_) => Ok(()),
                Expr::Local(l) => {
                    (*l < c.num_locals).then_some(()).ok_or(format!("local {l} out of range"))
                }
                Expr::ParamLen(p) => {
                    (*p < c.params.len()).then_some(()).ok_or(format!("param {p} out of range"))
                }
                Expr::Index { param, index } => {
                    if *param >= c.params.len() {
                        return Err(format!("param {param} out of range"));
                    }
                    check_expr(c, index)
                }
                Expr::Unary { arg, .. } | Expr::Convert { arg, .. } => check_expr(c, arg),
                Expr::Binary { lhs, rhs, .. } => {
                    check_expr(c, lhs)?;
                    check_expr(c, rhs)
                }
                Expr::Select { cond, then, otherwise } => {
                    check_expr(c, cond)?;
                    check_expr(c, then)?;
                    check_expr(c, otherwise)
                }
            }
        }
        fn check_stmts(c: &Codelet, stmts: &[Stmt]) -> Result<(), String> {
            for s in stmts {
                match s {
                    Stmt::SetLocal(l, e) => {
                        if *l >= c.num_locals {
                            return Err(format!("local {l} out of range"));
                        }
                        check_expr(c, e)?;
                    }
                    Stmt::Store { param, index, value } => {
                        let decl =
                            c.params.get(*param).ok_or(format!("param {param} out of range"))?;
                        if !decl.mutable {
                            return Err(format!("store to immutable param {param} in {}", c.name));
                        }
                        check_expr(c, index)?;
                        check_expr(c, value)?;
                    }
                    Stmt::If { cond, then, otherwise } => {
                        check_expr(c, cond)?;
                        check_stmts(c, then)?;
                        check_stmts(c, otherwise)?;
                    }
                    Stmt::While { cond, body } => {
                        check_expr(c, cond)?;
                        check_stmts(c, body)?;
                    }
                    Stmt::For { local, start, end, step, body } => {
                        if *local >= c.num_locals {
                            return Err(format!("loop local {local} out of range"));
                        }
                        check_expr(c, start)?;
                        check_expr(c, end)?;
                        check_expr(c, step)?;
                        check_stmts(c, body)?;
                    }
                    Stmt::ParFor { local, start, end, body } => {
                        if *local >= c.num_locals {
                            return Err(format!("loop local {local} out of range"));
                        }
                        check_expr(c, start)?;
                        check_expr(c, end)?;
                        check_stmts(c, body)?;
                    }
                }
            }
            Ok(())
        }
        check_stmts(self, &self.body)
    }
}

/// One typed storage slice handed to a codelet parameter.
///
/// Immutable parameters are carried as shared (`*Ro`) slices so the engine
/// never materialises an aliasing `&mut` for data a vertex only reads —
/// the property the tile-parallel schedule relies on when several workers
/// read the same broadcast operand concurrently. [`Codelet::validate`]
/// statically rejects stores to immutable parameters, so `set` on a
/// read-only variant is unreachable.
pub enum ParamData<'a> {
    F32(&'a mut [f32]),
    I32(&'a mut [i32]),
    Bool(&'a mut [bool]),
    Dw(&'a mut [TwoF32]),
    F64(&'a mut [SoftDouble]),
    F32Ro(&'a [f32]),
    I32Ro(&'a [i32]),
    BoolRo(&'a [bool]),
    DwRo(&'a [TwoF32]),
    F64Ro(&'a [SoftDouble]),
}

impl ParamData<'_> {
    pub fn len(&self) -> usize {
        match self {
            ParamData::F32(s) => s.len(),
            ParamData::I32(s) => s.len(),
            ParamData::Bool(s) => s.len(),
            ParamData::Dw(s) => s.len(),
            ParamData::F64(s) => s.len(),
            ParamData::F32Ro(s) => s.len(),
            ParamData::I32Ro(s) => s.len(),
            ParamData::BoolRo(s) => s.len(),
            ParamData::DwRo(s) => s.len(),
            ParamData::F64Ro(s) => s.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn get(&self, i: usize) -> Value {
        match self {
            ParamData::F32(s) => Value::F32(s[i]),
            ParamData::I32(s) => Value::I32(s[i]),
            ParamData::Bool(s) => Value::Bool(s[i]),
            ParamData::Dw(s) => Value::Dw(s[i]),
            ParamData::F64(s) => Value::F64(s[i].0),
            ParamData::F32Ro(s) => Value::F32(s[i]),
            ParamData::I32Ro(s) => Value::I32(s[i]),
            ParamData::BoolRo(s) => Value::Bool(s[i]),
            ParamData::DwRo(s) => Value::Dw(s[i]),
            ParamData::F64Ro(s) => Value::F64(s[i].0),
        }
    }

    pub(crate) fn set(&mut self, i: usize, v: Value) {
        match self {
            ParamData::F32(s) => s[i] = through_f64(v.as_f64() as f32),
            ParamData::I32(s) => s[i] = v.as_i64() as i32,
            ParamData::Bool(s) => s[i] = v.as_bool(),
            ParamData::Dw(s) => s[i] = as_dw(v),
            ParamData::F64(s) => s[i] = SoftDouble(v.as_f64()),
            ParamData::F32Ro(_)
            | ParamData::I32Ro(_)
            | ParamData::BoolRo(_)
            | ParamData::DwRo(_)
            | ParamData::F64Ro(_) => {
                unreachable!("store to immutable param rejected by Codelet::validate")
            }
        }
    }
}

/// An f32 widened to f64 and narrowed back: the same number, a NaN made
/// quiet. Every F32 store goes through it, on every route. Spelled out,
/// because the compiler folds `v as f64 as f32` to `v` where it sees both
/// casts and keeps it where it does not, so a signalling NaN would be stored
/// quiet on one route and as it is on another.
#[inline]
fn through_f64(v: f32) -> f32 {
    if v.is_nan() {
        f32::from_bits(v.to_bits() | 0x0040_0000)
    } else {
        v
    }
}

/// The interpreter state for one codelet invocation.
pub struct Interp<'a, 'b> {
    pub cost: &'a CostModel,
    pub params: &'a mut [ParamData<'b>],
    pub locals: Vec<Value>,
    pub cycles: u64,
    /// Useful floating-point operations performed (logical flops — a
    /// double-word add counts one). Work counters, not time: `ParFor`
    /// shrinks `cycles` but leaves these untouched.
    pub flops: u64,
    /// Bytes moved to/from tile SRAM by element loads and stores.
    pub mem_bytes: u64,
    /// Worker threads available to `ParFor` (6 on the Mk2).
    pub workers: u64,
}

impl<'a, 'b> Interp<'a, 'b> {
    pub fn new(
        cost: &'a CostModel,
        params: &'a mut [ParamData<'b>],
        num_locals: usize,
        workers: u64,
    ) -> Self {
        Interp {
            cost,
            params,
            locals: vec![Value::I32(0); num_locals],
            cycles: 0,
            flops: 0,
            mem_bytes: 0,
            workers,
        }
    }

    fn eval(&mut self, e: &Expr) -> Value {
        match e {
            Expr::Const(v) => *v,
            Expr::Local(l) => self.locals[*l],
            Expr::ParamLen(p) => Value::I32(self.params[*p].len() as i32),
            Expr::Index { param, index } => {
                let i = self.eval(index).as_i64() as usize;
                let v = self.params[*param].get(i);
                self.cycles += self.cost.op_cycles(Op::Load, v.dtype());
                self.mem_bytes += v.dtype().size_bytes() as u64;
                v
            }
            Expr::Unary { op, arg } => {
                let a = self.eval(arg);
                let (v, dt) = apply_un(*op, a);
                let cost_op = match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Abs => Op::Abs,
                    UnOp::Sqrt => Op::Sqrt,
                    UnOp::Not => Op::Cmp,
                };
                self.cycles += self.cost.op_cycles(cost_op, dt);
                self.flops += self.cost.op_flops(cost_op, dt);
                v
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                let (da, db) = (a.dtype(), b.dtype());
                let (v, dt) = apply_bin(*op, a, b);
                let cost_op = op.cost_op();
                // Mixed double-word ⊗ single-word ops use the cheaper
                // Joldes DW⊗FP algorithms (cost only; the value is
                // computed at full pair precision either way).
                let mixed = dt == DType::DoubleWord && (da == DType::F32 || db == DType::F32);
                self.cycles += if mixed {
                    self.cost.op_cycles_mixed_dw(cost_op)
                } else {
                    self.cost.op_cycles(cost_op, dt)
                };
                self.flops += self.cost.op_flops(cost_op, dt);
                v
            }
            Expr::Convert { to, arg } => {
                let a = self.eval(arg);
                self.cycles += self.cost.op_cycles(Op::Convert, *to);
                a.convert(*to)
            }
            Expr::Select { cond, then, otherwise } => {
                let c = self.eval(cond).as_bool();
                let t = self.eval(then);
                let o = self.eval(otherwise);
                self.cycles += self.cost.op_cycles(Op::Branch, DType::Bool);
                if c {
                    t
                } else {
                    o
                }
            }
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.exec(s);
        }
    }

    fn exec(&mut self, s: &Stmt) {
        match s {
            Stmt::SetLocal(l, e) => {
                let v = self.eval(e);
                self.locals[*l] = v;
            }
            Stmt::Store { param, index, value } => {
                let i = self.eval(index).as_i64() as usize;
                let v = self.eval(value);
                let dt = self.params[*param].get(i).dtype();
                self.params[*param].set(i, v.convert(dt));
                self.cycles += self.cost.op_cycles(Op::Store, dt);
                self.mem_bytes += dt.size_bytes() as u64;
            }
            Stmt::If { cond, then, otherwise } => {
                let c = self.eval(cond).as_bool();
                self.cycles += self.cost.op_cycles(Op::Branch, DType::Bool);
                if c {
                    self.exec_block(then);
                } else {
                    self.exec_block(otherwise);
                }
            }
            Stmt::While { cond, body } => loop {
                let c = self.eval(cond).as_bool();
                self.cycles += self.cost.op_cycles(Op::Branch, DType::Bool);
                if !c {
                    break;
                }
                self.exec_block(body);
            },
            Stmt::For { local, start, end, step, body } => {
                let mut i = self.eval(start).as_i64();
                let e = self.eval(end).as_i64();
                let st = self.eval(step).as_i64().max(1);
                while i < e {
                    self.locals[*local] = Value::I32(i as i32);
                    self.cycles += self.cost.op_cycles(Op::LoopStep, DType::I32);
                    self.exec_block(body);
                    i += st;
                }
            }
            Stmt::ParFor { local, start, end, body } => {
                let s0 = self.eval(start).as_i64();
                let e0 = self.eval(end).as_i64();
                let before = self.cycles;
                for i in s0..e0 {
                    self.locals[*local] = Value::I32(i as i32);
                    self.cycles += self.cost.op_cycles(Op::LoopStep, DType::I32);
                    self.exec_block(body);
                }
                // Independent iterations spread over the workers: replace
                // the serial cost with the parallel makespan.
                let serial = self.cycles - before;
                self.cycles = before + parfor_makespan(serial, self.workers, self.cost);
            }
        }
    }

    /// Run a codelet body to completion; returns the cycles consumed.
    pub fn run(&mut self, body: &[Stmt]) -> u64 {
        self.exec_block(body);
        self.cycles
    }

    /// Run one vertex of `kind` over `body`; returns the cycles it takes
    /// (for a `LevelSet`, the per-level LPT makespan over the workers).
    pub fn run_vertex(&mut self, kind: &VertexKind, body: &[Stmt]) -> u64 {
        match kind {
            VertexKind::Simple => self.run(body),
            VertexKind::LevelSet { levels } => {
                // Each row runs inside the makespan's cost callback (once, in
                // level order), so no per-row table outlives its level.
                level_set_cycles(levels, self.workers as usize, self.cost, |row| {
                    self.locals[0] = Value::I32(row as i32);
                    let before = self.cycles;
                    self.run(body);
                    self.cycles - before
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The lowered form: a codelet typed and costed once, at engine build.
//
// A codelet is dynamically typed only while it is being *built*. Bound to a
// vertex its operands have fixed storage dtypes, so every expression node's
// dtype — hence its promotion, its arithmetic domain and its `CostModel`
// charge — is known before the first run. `Lowered::lower` resolves all
// three into a typed tree, then flattens that into a linear program over one
// register file per domain, with control flow as jumps and one charge per
// basic block — except that a counted loop whose body is one (guarded)
// multiply-accumulate becomes one instruction that runs the loop to its end
// ([`MacLoop`]). What is left to run time is data: values, trip counts, the
// `ParFor` makespan and the level-set schedule. `Interp` above stays as the
// fallback for what cannot be typed, and as the oracle the lowered form is
// tested against.
// ---------------------------------------------------------------------------

/// What a fragment of codelet IR costs every time it executes — and, summed
/// over a run, a vertex's footprint: time (`cycles`, which worker-parallel
/// constructs shrink) plus work (logical flops and SRAM traffic, which they
/// do not).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Charge {
    pub cycles: u64,
    pub flops: u64,
    pub mem_bytes: u64,
}

impl Charge {
    fn cy(cycles: u64) -> Charge {
        Charge { cycles, flops: 0, mem_bytes: 0 }
    }

    fn plus(self, o: Charge) -> Charge {
        Charge {
            cycles: self.cycles + o.cycles,
            flops: self.flops + o.flops,
            mem_bytes: self.mem_bytes + o.mem_bytes,
        }
    }

    /// `n` of these, summed.
    fn times(self, n: u64) -> Charge {
        Charge { cycles: self.cycles * n, flops: self.flops * n, mem_bytes: self.mem_bytes * n }
    }
}

/// The `ParFor` makespan rule: serial body cycles replaced by
/// `spawn + ceil(serial / workers)`, never worse than serial, floor one
/// cycle for the degenerate empty loop.
pub(crate) fn parfor_makespan(serial: u64, workers: u64, cost: &CostModel) -> u64 {
    let parallel = cost.worker_spawn_cycles + serial.div_ceil(workers);
    parallel.min(serial.max(1))
}

/// A typed expression: `dtype` is what evaluating the node yields, on every
/// execution.
#[derive(Debug)]
struct TExpr {
    dtype: DType,
    kind: TKind,
}

#[derive(Debug)]
enum TKind {
    Const(Value),
    Local(LocalId),
    ParamLen(ParamId),
    /// `index` is I32.
    Load {
        param: ParamId,
        index: Box<TExpr>,
    },
    /// `Neg` / `Abs` / `Sqrt`: the result stays in the argument's domain.
    Unary {
        op: UnOp,
        arg: Box<TExpr>,
    },
    /// Logical not of the argument's truth value, whatever its dtype.
    Not(Box<TExpr>),
    /// Arithmetic: both operands already have this node's dtype (never
    /// Bool: Bool operands are taken as I32).
    Arith {
        op: BinOp,
        lhs: Box<TExpr>,
        rhs: Box<TExpr>,
    },
    /// Comparison or logic: both operands have dtype `dom`, the result is Bool.
    Compare {
        op: BinOp,
        dom: DType,
        lhs: Box<TExpr>,
        rhs: Box<TExpr>,
    },
    /// `Value::convert` to this node's dtype: an explicit `Convert`, an
    /// operand's promotion, or a stored value's narrowing.
    Cast(Box<TExpr>),
    Select {
        cond: Box<TExpr>,
        then: Box<TExpr>,
        otherwise: Box<TExpr>,
    },
}

impl TExpr {
    fn new(dtype: DType, kind: TKind) -> TExpr {
        TExpr { dtype, kind }
    }

    /// This expression as a `to`, converted if it is not one already.
    fn cast(self, to: DType) -> TExpr {
        if self.dtype == to {
            self
        } else {
            TExpr::new(to, TKind::Cast(Box::new(self)))
        }
    }
}

/// A statement with its static charge: expressions have no control flow
/// (`Select` evaluates both sides), so everything a statement's own
/// expressions cost is one precomputed sum.
#[derive(Debug)]
enum LStmt {
    SetLocal {
        local: LocalId,
        value: TExpr,
        charge: Charge,
    },
    /// `value` already has the parameter's storage dtype.
    Store {
        param: ParamId,
        index: TExpr,
        value: TExpr,
        charge: Charge,
    },
    /// `charge`: the condition and the branch.
    If {
        cond: TExpr,
        charge: Charge,
        then: Vec<LStmt>,
        otherwise: Vec<LStmt>,
    },
    /// `charge`: one test of the condition and its branch.
    While {
        cond: TExpr,
        charge: Charge,
        body: Vec<LStmt>,
    },
    /// `head`: the bounds, evaluated once. Each trip also costs `LoopStep`.
    For {
        local: LocalId,
        start: TExpr,
        end: TExpr,
        step: TExpr,
        head: Charge,
        body: Vec<LStmt>,
    },
    ParFor {
        local: LocalId,
        start: TExpr,
        end: TExpr,
        head: Charge,
        body: Vec<LStmt>,
    },
}

/// Per local: the dtype it holds on every path reaching a program point, or
/// `None` where paths disagree (reading it there cannot be typed).
type Locals = Vec<Option<DType>>;

fn join(into: &mut Locals, other: &Locals) {
    for (a, b) in into.iter_mut().zip(other) {
        if *a != *b {
            *a = None;
        }
    }
}

/// Typing context of one lowering: the operands' *storage* dtypes — not
/// `ParamDecl::dtype`: MPIR binds the F32-declared SpMV to double-word
/// storage, and loads and stores are charged at storage dtype.
struct Lowerer<'a> {
    storage: &'a [DType],
    cost: &'a CostModel,
}

impl Lowerer<'_> {
    /// Type `e` under `locals`, adding what one evaluation costs to `ch`.
    /// `None` for what cannot be typed or what `Interp` would panic on
    /// whenever it ran: a local read where two dtypes meet, `Select` arms
    /// of different dtypes, a non-integer index, `Sqrt` of I32 / Bool
    /// (which has no cost row).
    fn expr(&self, e: &Expr, locals: &[Option<DType>], ch: &mut Charge) -> Option<TExpr> {
        let cost = self.cost;
        Some(match e {
            Expr::Const(v) => TExpr::new(v.dtype(), TKind::Const(*v)),
            Expr::Local(l) => TExpr::new((*locals.get(*l)?)?, TKind::Local(*l)),
            Expr::ParamLen(p) => {
                self.storage.get(*p)?;
                TExpr::new(DType::I32, TKind::ParamLen(*p))
            }
            Expr::Index { param, index } => {
                let index = Box::new(self.int(index, locals, ch)?);
                let dt = *self.storage.get(*param)?;
                ch.cycles += cost.op_cycles(Op::Load, dt);
                ch.mem_bytes += dt.size_bytes() as u64;
                TExpr::new(dt, TKind::Load { param: *param, index })
            }
            Expr::Unary { op, arg } => {
                let arg = Box::new(self.expr(arg, locals, ch)?);
                let dt = arg.dtype;
                let cost_op = match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Abs => Op::Abs,
                    UnOp::Sqrt if dt.is_float() => Op::Sqrt,
                    UnOp::Sqrt => return None,
                    UnOp::Not => Op::Cmp,
                };
                ch.cycles += cost.op_cycles(cost_op, dt);
                ch.flops += cost.op_flops(cost_op, dt);
                match op {
                    UnOp::Not => TExpr::new(DType::Bool, TKind::Not(arg)),
                    _ => TExpr::new(dt, TKind::Unary { op: *op, arg }),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.expr(lhs, locals, ch)?;
                let b = self.expr(rhs, locals, ch)?;
                let (da, db) = (a.dtype, b.dtype);
                let dt = promote(da, db);
                let cost_op = op.cost_op();
                // The cheaper Joldes DW⊗FP algorithms (cost only).
                let mixed = dt == DType::DoubleWord && (da == DType::F32 || db == DType::F32);
                ch.cycles += if mixed {
                    cost.op_cycles_mixed_dw(cost_op)
                } else {
                    cost.op_cycles(cost_op, dt)
                };
                ch.flops += cost.op_flops(cost_op, dt);
                // Bool ⊗ Bool is charged as Bool and, like any `apply_bin`
                // of the integer domain, evaluated in i64: `true + true` is
                // the I32 2, so arithmetic takes its operands as I32.
                let compares = cost_op == Op::Cmp;
                let dom = if dt == DType::Bool && !compares { DType::I32 } else { dt };
                let (lhs, rhs) = (Box::new(a.cast(dom)), Box::new(b.cast(dom)));
                if compares {
                    TExpr::new(DType::Bool, TKind::Compare { op: *op, dom, lhs, rhs })
                } else {
                    TExpr::new(dom, TKind::Arith { op: *op, lhs, rhs })
                }
            }
            Expr::Convert { to, arg } => {
                let arg = Box::new(self.expr(arg, locals, ch)?);
                ch.cycles += cost.op_cycles(Op::Convert, *to);
                TExpr::new(*to, TKind::Cast(arg))
            }
            Expr::Select { cond, then, otherwise } => {
                let cond = Box::new(self.expr(cond, locals, ch)?);
                let then = Box::new(self.expr(then, locals, ch)?);
                let otherwise = Box::new(self.expr(otherwise, locals, ch)?);
                if then.dtype != otherwise.dtype {
                    return None;
                }
                ch.cycles += cost.op_cycles(Op::Branch, DType::Bool);
                TExpr::new(then.dtype, TKind::Select { cond, then, otherwise })
            }
        })
    }

    /// An index or loop bound: typed, and I32.
    fn int(&self, e: &Expr, locals: &[Option<DType>], ch: &mut Charge) -> Option<TExpr> {
        self.expr(e, locals, ch).filter(|e| e.dtype == DType::I32)
    }

    fn block(&self, stmts: &[Stmt], locals: &mut Locals) -> Option<Vec<LStmt>> {
        stmts.iter().map(|s| self.stmt(s, locals)).collect()
    }

    /// Lower a loop body to the fixpoint of its entry state: `entry` comes
    /// in as the state before the loop and goes out as the join of that
    /// with the state after any number of trips, which is also the state
    /// after the loop. `pass` lowers one trip from a given entry and
    /// returns the state at its end. A local's state only ever falls from
    /// a dtype to `None`, so this takes at most one pass per local, and a
    /// pass that fails early would fail at the fixpoint too.
    fn fixpoint<R>(
        &self,
        entry: &mut Locals,
        mut pass: impl FnMut(&Locals) -> Option<(R, Locals)>,
    ) -> Option<R> {
        loop {
            let (lowered, exit) = pass(entry)?;
            let before = entry.clone();
            join(entry, &exit);
            if *entry == before {
                return Some(lowered);
            }
        }
    }

    /// A counted loop's body: each trip starts with `local` an I32.
    fn counted(&self, local: LocalId, body: &[Stmt], locals: &mut Locals) -> Option<Vec<LStmt>> {
        locals.get(local)?;
        self.fixpoint(locals, |entry| {
            let mut trip = entry.clone();
            trip[local] = Some(DType::I32);
            Some((self.block(body, &mut trip)?, trip))
        })
    }

    fn stmt(&self, s: &Stmt, locals: &mut Locals) -> Option<LStmt> {
        let branch = Charge::cy(self.cost.op_cycles(Op::Branch, DType::Bool));
        Some(match s {
            Stmt::SetLocal(local, e) => {
                let mut charge = Charge::default();
                let value = self.expr(e, locals, &mut charge)?;
                *locals.get_mut(*local)? = Some(value.dtype);
                LStmt::SetLocal { local: *local, value, charge }
            }
            Stmt::Store { param, index, value } => {
                let mut charge = Charge::default();
                let index = self.int(index, locals, &mut charge)?;
                let value = self.expr(value, locals, &mut charge)?;
                let dt = *self.storage.get(*param)?;
                charge.cycles += self.cost.op_cycles(Op::Store, dt);
                charge.mem_bytes += dt.size_bytes() as u64;
                LStmt::Store { param: *param, index, value: value.cast(dt), charge }
            }
            Stmt::If { cond, then, otherwise } => {
                let mut charge = branch;
                let cond = self.expr(cond, locals, &mut charge)?;
                let mut other = locals.clone();
                let then = self.block(then, locals)?;
                let otherwise = self.block(otherwise, &mut other)?;
                join(locals, &other);
                LStmt::If { cond, charge, then, otherwise }
            }
            Stmt::While { cond, body } => {
                let (cond, charge, body) = self.fixpoint(locals, |head| {
                    let mut charge = branch;
                    let cond = self.expr(cond, head, &mut charge)?;
                    let mut trip = head.clone();
                    Some(((cond, charge, self.block(body, &mut trip)?), trip))
                })?;
                LStmt::While { cond, charge, body }
            }
            Stmt::For { local, start, end, step, body } => {
                let mut head = Charge::default();
                let start = self.int(start, locals, &mut head)?;
                let end = self.int(end, locals, &mut head)?;
                let step = self.int(step, locals, &mut head)?;
                let body = self.counted(*local, body, locals)?;
                LStmt::For { local: *local, start, end, step, head, body }
            }
            Stmt::ParFor { local, start, end, body } => {
                let mut head = Charge::default();
                let start = self.int(start, locals, &mut head)?;
                let end = self.int(end, locals, &mut head)?;
                let body = self.counted(*local, body, locals)?;
                LStmt::ParFor { local: *local, start, end, head, body }
            }
        })
    }
}

/// A codelet lowered for one binding: operand storage dtypes and vertex
/// kind fixed, every node typed and costed, then flattened into a linear
/// register program. The typed tree does not outlive [`Lowered::lower`].
#[derive(Debug)]
pub struct Lowered {
    code: Vec<Ins>,
    /// What each `Charge` instruction adds: one per basic block.
    charges: Vec<Charge>,
    /// What each `MacLoop` instruction runs.
    loops: Vec<MacLoop>,
    /// Registers per file (in [`file`] order): the locals, then the
    /// temporaries and loop counters at their deepest.
    files: [Reg; 5],
    /// `ParFor` sites, one snapshot slot each.
    sites: usize,
    /// Each local's dtype when the vertex ends, where every path agrees.
    exit: Vec<Option<DType>>,
    /// Whether this was lowered for a `LevelSet` vertex, whose locals carry
    /// over from one row to the next.
    level_set: bool,
}

impl Lowered {
    /// Lower `codelet` for operands of the given storage dtypes, for a
    /// `LevelSet` vertex or a `Simple` one. `None` — never a panic — when
    /// the body cannot be typed (see `Lowerer::expr`); such a vertex
    /// keeps the dynamic [`Interp`].
    pub fn lower(
        codelet: &Codelet,
        storage: &[DType],
        level_set: bool,
        cost: &CostModel,
    ) -> Option<Lowered> {
        // Every parameter id must fit an instruction's `Param`.
        if storage.len() != codelet.params.len() || Param::try_from(storage.len()).is_err() {
            return None;
        }
        let lowerer = Lowerer { storage, cost };
        // Locals start as the I32 zero.
        let mut locals: Locals = vec![Some(DType::I32); codelet.num_locals];
        let body = if level_set {
            // One set of locals serves every row, so a row may start with
            // what the previous one left behind; local 0 is the row index.
            lowerer.counted(0, &codelet.body, &mut locals)?
        } else {
            lowerer.block(&codelet.body, &mut locals)?
        };
        let mut em = Emitter::new(codelet.num_locals, cost.op_cycles(Op::LoopStep, DType::I32))?;
        em.block(&body)?;
        em.close()?;
        Some(Lowered {
            code: em.code,
            charges: em.charges,
            loops: em.loops,
            files: em.size,
            sites: em.sites,
            exit: locals,
            level_set,
        })
    }

    /// Run one vertex in `regs` (any contents). Storage bits and the
    /// returned footprint are what [`Interp::run_vertex`] leaves and
    /// reports for the same binding; [`Lowered::local`] reads back the
    /// locals it leaves.
    pub fn run_vertex(
        &self,
        kind: &VertexKind,
        params: &mut [ParamData],
        regs: &mut Regs,
        cost: &CostModel,
        workers: u64,
    ) -> Charge {
        assert_eq!(
            self.level_set,
            matches!(kind, VertexKind::LevelSet { .. }),
            "lowered for the other vertex kind"
        );
        let Regs { files, lpt } = regs;
        files.reset(&self.files, self.sites);
        let mut run = Charge::default();
        let cycles = match kind {
            VertexKind::Simple => {
                self.exec(files, params, &mut run, cost, workers);
                run.cycles
            }
            VertexKind::LevelSet { levels } => {
                level_set_cycles_in(lpt, levels, workers as usize, cost, |row| {
                    files.i[0] = row as i32 as i64;
                    let before = run.cycles;
                    self.exec(files, params, &mut run, cost, workers);
                    run.cycles - before
                })
            }
        };
        Charge { cycles, ..run }
    }

    /// Local `l` as the last [`Lowered::run_vertex`] in `regs` left it —
    /// what [`Interp`] leaves in `locals[l]` — when its dtype at the end is
    /// known statically. `None` where paths disagree: nothing after that
    /// point could have read it and been typed, so it is dead.
    pub fn local(&self, regs: &Regs, l: LocalId) -> Option<Value> {
        Some(regs.files.get((*self.exit.get(l)?)?, l as Reg))
    }

    /// How many counted loops run as one accumulate instruction
    /// ([`MacLoop`]) rather than a trip at a time.
    pub fn loops(&self) -> usize {
        self.loops.len()
    }

    /// Run the program once from the top: the whole body, or one row.
    fn exec(
        &self,
        reg: &mut Files,
        params: &mut [ParamData],
        run: &mut Charge,
        cost: &CostModel,
        workers: u64,
    ) {
        let mut pc = 0;
        while let Some(&ins) = self.code.get(pc) {
            pc += 1;
            match ins {
                Ins::Charge(k) => *run = run.plus(self.charges[k as usize]),
                Ins::ConstI(r, v) => reg.i[r] = v as i64,
                Ins::ConstB(r, v) => reg.b[r] = v,
                Ins::ConstF(r, v) => reg.f[r] = v,
                Ins::ConstW(r, v) => reg.w[r] = v,
                Ins::ConstD(r, v) => reg.d[r] = v,
                Ins::MovI(dst, src) => reg.i[dst] = reg.i[src] as i32 as i64,
                Ins::MovB(dst, src) => reg.b[dst] = reg.b[src],
                Ins::MovF(dst, src) => reg.f[dst] = reg.f[src],
                Ins::MovW(dst, src) => reg.w[dst] = reg.w[src],
                Ins::MovD(dst, src) => reg.d[dst] = reg.d[src],
                Ins::Len(r, param) => reg.i[r] = params[param as usize].len() as i32 as i64,
                Ins::LoadI(Elem { val, param, index }) => {
                    reg.i[val] = i64::load(&params[param as usize], reg.i[index] as usize)
                }
                Ins::LoadB(Elem { val, param, index }) => {
                    reg.b[val] = bool::load(&params[param as usize], reg.i[index] as usize)
                }
                Ins::LoadF(Elem { val, param, index }) => {
                    reg.f[val] = f32::load(&params[param as usize], reg.i[index] as usize)
                }
                Ins::LoadW(Elem { val, param, index }) => {
                    reg.w[val] = TwoF32::load(&params[param as usize], reg.i[index] as usize)
                }
                Ins::LoadD(Elem { val, param, index }) => {
                    reg.d[val] = f64::load(&params[param as usize], reg.i[index] as usize)
                }
                Ins::ArithI(Bin { op, dst, a, b }) => {
                    reg.i[dst] = arith_i64(op, reg.i[a], reg.i[b])
                }
                Ins::ArithF(Bin { op, dst, a, b }) => {
                    reg.f[dst] = arith_f32(op, reg.f[a], reg.f[b])
                }
                Ins::ArithW(Bin { op, dst, a, b }) => reg.w[dst] = arith_dw(op, reg.w[a], reg.w[b]),
                Ins::ArithD(Bin { op, dst, a, b }) => {
                    reg.d[dst] = arith_f64(op, reg.d[a], reg.d[b])
                }
                Ins::CmpI(Bin { op, dst, a, b }) => reg.b[dst] = cmp_i64(op, reg.i[a], reg.i[b]),
                // Two Bools compare as the integers 0 and 1, as in `apply_bin`.
                Ins::CmpB(Bin { op, dst, a, b }) => {
                    reg.b[dst] = cmp_i64(op, reg.b[a] as i64, reg.b[b] as i64)
                }
                Ins::CmpF(Bin { op, dst, a, b }) => reg.b[dst] = cmp_f32(op, reg.f[a], reg.f[b]),
                Ins::CmpW(Bin { op, dst, a, b }) => reg.b[dst] = cmp_dw(op, reg.w[a], reg.w[b]),
                Ins::CmpD(Bin { op, dst, a, b }) => reg.b[dst] = cmp_f64(op, reg.d[a], reg.d[b]),
                Ins::Cast { from, to, dst, src } => {
                    let v = reg.get(from, src).convert(to);
                    reg.put(dst, v);
                }
                Ins::Unary { op, dt, dst, src } => {
                    let v = apply_un(op, reg.get(dt, src)).0;
                    reg.put(dst, v);
                }
                Ins::Not { from, dst, src } => reg.b[dst] = !reg.get(from, src).as_bool(),
                Ins::Truth { from, dst, src } => reg.b[dst] = reg.get(from, src).as_bool(),
                Ins::Select { dt, dst, cond, then, otherwise } => {
                    let v = reg.get(dt, if reg.b[cond] { then } else { otherwise });
                    reg.put(dst, v);
                }
                Ins::StoreI(Elem { val, param, index }) => {
                    i64::store(&mut params[param as usize], reg.i[index] as usize, reg.i[val])
                }
                Ins::StoreB(Elem { val, param, index }) => {
                    bool::store(&mut params[param as usize], reg.i[index] as usize, reg.b[val])
                }
                Ins::StoreF(Elem { val, param, index }) => {
                    f32::store(&mut params[param as usize], reg.i[index] as usize, reg.f[val])
                }
                Ins::StoreW(Elem { val, param, index }) => {
                    TwoF32::store(&mut params[param as usize], reg.i[index] as usize, reg.w[val])
                }
                Ins::StoreD(Elem { val, param, index }) => {
                    f64::store(&mut params[param as usize], reg.i[index] as usize, reg.d[val])
                }
                Ins::Jmp(to) => pc = to as usize,
                Ins::JmpIfNot { cond, to } => {
                    if !reg.b[cond] {
                        pc = to as usize;
                    }
                }
                Ins::ForInit { ctr, local, exit } => {
                    reg.i[ctr + 2] = reg.i[ctr + 2].max(1);
                    if reg.i[ctr] < reg.i[ctr + 1] {
                        reg.i[local] = reg.i[ctr] as i32 as i64;
                    } else {
                        pc = exit as usize;
                    }
                }
                Ins::ForNext { ctr, local, body } => {
                    reg.i[ctr] += reg.i[ctr + 2];
                    if reg.i[ctr] < reg.i[ctr + 1] {
                        reg.i[local] = reg.i[ctr] as i32 as i64;
                        pc = body as usize;
                    }
                }
                Ins::MacLoop(n) => {
                    let m = &self.loops[n as usize];
                    match m.dt {
                        DType::F32 => mac_loop::<f32>(m, reg, params, run),
                        DType::DoubleWord => mac_loop::<TwoF32>(m, reg, params, run),
                        DType::F64Emulated => mac_loop::<f64>(m, reg, params, run),
                        DType::I32 | DType::Bool => unreachable!("accumulates in a float domain"),
                    }
                }
                Ins::ParBegin(site) => reg.par[site as usize] = run.cycles,
                Ins::ParEnd(site) => {
                    // Independent trips spread over the workers: the serial
                    // cycles since `ParBegin` become the parallel makespan.
                    let before = reg.par[site as usize];
                    run.cycles = before + parfor_makespan(run.cycles - before, workers, cost);
                }
            }
        }
    }
}

/// A register: a slot of the file its dtype implies.
type Reg = u16;

/// A parameter id inside an instruction: [`Lowered::lower`] declines a
/// codelet with more parameters than this counts, so every id fits.
type Param = u16;

/// A jump target or a side-table index inside an instruction, if `n` fits.
fn index(n: usize) -> Option<u32> {
    u32::try_from(n).ok()
}

/// Which file holds a dtype's values: the order of [`Lowered::files`].
fn file(dt: DType) -> usize {
    match dt {
        DType::I32 => 0,
        DType::Bool => 1,
        DType::F32 => 2,
        DType::DoubleWord => 3,
        DType::F64Emulated => 4,
    }
}

/// One instruction of a lowered codelet, one per typed node. Registers are
/// read in the file their dtype names (`I` i64, `B` bool, `F` f32, `W`
/// double-word, `D` emulated f64) before `dst` is written, so `dst` may be
/// an operand; `param`s index the vertex's operands, jump targets the
/// program and the other `u32`s their side tables. Every instruction but
/// `Cast`, `Unary`, `Not`, `Truth` and `Select` — cold: rare in the solvers'
/// codelets — reads and writes its own domain's registers and storage, with
/// no [`Value`] in between.
#[derive(Clone, Copy, Debug)]
enum Ins {
    /// Add `charges[k]`: what the basic block this closes costs.
    Charge(u32),
    /// `X[r] = v`.
    ConstI(Reg, i32),
    ConstB(Reg, bool),
    ConstF(Reg, f32),
    ConstW(Reg, TwoF32),
    ConstD(Reg, f64),
    /// `X[dst] = X[src]` within one file; an I32 as `get` / `put` move it,
    /// through `i32`.
    MovI(Reg, Reg),
    MovB(Reg, Reg),
    MovF(Reg, Reg),
    MovW(Reg, Reg),
    MovD(Reg, Reg),
    /// `I[r] = len(params[param])`.
    Len(Reg, Param),
    /// `X[val] = params[param][I[index]]`, in the parameter's storage domain.
    LoadI(Elem),
    LoadB(Elem),
    LoadF(Elem),
    LoadW(Elem),
    LoadD(Elem),
    /// Arithmetic in one domain (never Bool).
    ArithI(Bin),
    ArithF(Bin),
    ArithW(Bin),
    ArithD(Bin),
    /// A comparison or logic in the operands' domain, into a Bool register.
    CmpI(Bin),
    CmpB(Bin),
    CmpF(Bin),
    CmpW(Bin),
    CmpD(Bin),
    /// `Value::convert`.
    Cast {
        from: DType,
        to: DType,
        dst: Reg,
        src: Reg,
    },
    /// `Neg` / `Abs` / `Sqrt` through `apply_un`, within `dt`'s file.
    Unary {
        op: UnOp,
        dt: DType,
        dst: Reg,
        src: Reg,
    },
    /// `B[dst] = !truth(src)`.
    Not {
        from: DType,
        dst: Reg,
        src: Reg,
    },
    /// `B[dst] = truth(src)`: a condition that is not a Bool.
    Truth {
        from: DType,
        dst: Reg,
        src: Reg,
    },
    /// Both arms are already evaluated; `B[cond]` picks one.
    Select {
        dt: DType,
        dst: Reg,
        cond: Reg,
        then: Reg,
        otherwise: Reg,
    },
    /// `params[param][I[index]] = X[val]`, through [`Domain::store`]: what
    /// `ParamData::set` writes.
    StoreI(Elem),
    StoreB(Elem),
    StoreF(Elem),
    StoreW(Elem),
    StoreD(Elem),
    Jmp(u32),
    JmpIfNot {
        cond: Reg,
        to: u32,
    },
    /// Enter a counted loop whose counter, bound and step are
    /// `I[ctr..ctr + 3]`: the step becomes at least 1; with a trip to run,
    /// `I[local]` is the counter, else jump to `exit`.
    ForInit {
        ctr: Reg,
        local: Reg,
        exit: u32,
    },
    /// Step the counter; with another trip to run, `I[local]` is the
    /// counter and the body runs again from `body`.
    ForNext {
        ctr: Reg,
        local: Reg,
        body: u32,
    },
    /// Run the rest of a counted loop `ForInit` has entered, body and
    /// `ForNext` both: `loops[n]`.
    MacLoop(u32),
    /// Remember, in the site's slot, the cycles charged before a `ParFor`.
    ParBegin(u32),
    /// Replace the site's serial cycles by the `ParFor` makespan.
    ParEnd(u32),
}

// Dispatch copies an instruction per step; the loop's operands live in a
// side table and ids are as narrow as a codelet needs, so that no variant
// outgrows two words.
const _: () = assert!(std::mem::size_of::<Ins>() <= 16);

/// An element `params[param][I[index]]` and the register `val` it is loaded
/// into or stored from, in the parameter's storage domain.
#[derive(Clone, Copy, Debug)]
struct Elem {
    val: Reg,
    param: Param,
    index: Reg,
}

/// `dst = X[a] op X[b]`.
#[derive(Clone, Copy, Debug)]
struct Bin {
    op: BinOp,
    dst: Reg,
    a: Reg,
    b: Reg,
}

/// A counted loop whose body is one multiply-accumulate, run to its end by
/// one instruction — the inner loop of SpMV, of forward and backward
/// substitution, of a Gauss-Seidel row, of a dot product. In a float domain
/// `dt`, with `x` and `y` already in it:
///
/// ```text
/// (A)  acc = acc ⊕ (x ⊗ y)
/// (B)  j = cols[k]; if test { (A) }        (k the loop local, no else)
/// ```
///
/// It does what the flat program does, in its order, with the same bounds
/// checks and the same out-of-line operators, and leaves the registers as
/// the flat program leaves them. What it charges is the flat program's
/// per-block sums: `trip` on every trip, `taken` on every trip that
/// accumulates.
#[derive(Clone, Copy, Debug)]
struct MacLoop {
    dt: DType,
    /// The loop's counter registers and its local, as in `ForNext`.
    ctr: Reg,
    local: Reg,
    acc: Reg,
    add: BinOp,
    mul: BinOp,
    x: Operand,
    y: Operand,
    /// Shape (B): `j = params[cols][k]` and the test.
    guard: Option<Guard>,
    /// `LoopStep`, plus the load of `j`, the test and its branch in (B).
    trip: Charge,
    /// The accumulate.
    taken: Charge,
}

/// An accumulate operand in the accumulator's domain.
#[derive(Clone, Copy, Debug)]
enum Operand {
    /// A local.
    Reg(Reg),
    /// `params[param][I[index]]`.
    Load { param: Param, index: Reg },
    /// `params[param][params[via][I[index]]]`.
    Gather { param: Param, via: Param, index: Reg },
}

#[derive(Clone, Copy, Debug)]
struct Guard {
    j: Reg,
    cols: Param,
    test: Test<Reg>,
}

/// An I32 comparison of two locals, or two of them joined by `And` / `Or`:
/// over their registers as recognised, over [`Ix`] once bound.
#[derive(Clone, Copy, Debug)]
enum Test<R> {
    One(Cmp<R>),
    Two(BinOp, Cmp<R>, Cmp<R>),
}

/// `a op b`.
#[derive(Clone, Copy, Debug)]
struct Cmp<R> {
    op: BinOp,
    a: R,
    b: R,
}

/// A local's register, if `e` reads one.
fn local_reg(e: &TExpr) -> Option<Reg> {
    match e.kind {
        TKind::Local(l) => Reg::try_from(l).ok(),
        _ => None,
    }
}

impl MacLoop {
    /// The accumulate loop a counted loop over `local` is, if its typed
    /// body has shape (A) or (B). `ctr` holds its counter registers.
    fn recognise(local: Reg, ctr: Reg, loop_step: u64, body: &[LStmt]) -> Option<MacLoop> {
        let (guard, unconditional, acc) = match body {
            [acc] => (None, Charge::default(), acc),
            [set_j, branch] => {
                let LStmt::SetLocal { local: j, value, charge: load } = set_j else { return None };
                let LStmt::If { cond, charge: test, then, otherwise } = branch else { return None };
                let ([acc], []) = (then.as_slice(), otherwise.as_slice()) else { return None };
                let TKind::Load { param: cols, index } = &value.kind else { return None };
                if value.dtype != DType::I32 || local_reg(index)? != local {
                    return None;
                }
                let j = Reg::try_from(*j).ok()?;
                let guard = Guard { j, cols: *cols as Param, test: Test::of(cond)? };
                (Some(guard), load.plus(*test), acc)
            }
            _ => return None,
        };
        let LStmt::SetLocal { local: acc, value, charge: taken } = acc else { return None };
        let TKind::Arith { op: add, lhs, rhs } = &value.kind else { return None };
        let TKind::Arith { op: mul, lhs: x, rhs: y } = &rhs.kind else { return None };
        let acc = Reg::try_from(*acc).ok()?;
        if !value.dtype.is_float() || local_reg(lhs)? != acc {
            return None;
        }
        Some(MacLoop {
            dt: value.dtype,
            ctr,
            local,
            acc,
            add: *add,
            mul: *mul,
            x: Operand::of(x)?,
            y: Operand::of(y)?,
            guard,
            trip: Charge::cy(loop_step).plus(unconditional),
            taken: *taken,
        })
    }
}

impl Operand {
    /// A local or a load through at most one index load, each index a
    /// local: no `Cast`, so already in the arithmetic's domain.
    fn of(e: &TExpr) -> Option<Operand> {
        match &e.kind {
            TKind::Local(_) => Some(Operand::Reg(local_reg(e)?)),
            TKind::Load { param, index } => {
                let param = *param as Param;
                Some(match &index.kind {
                    TKind::Local(_) => Operand::Load { param, index: local_reg(index)? },
                    TKind::Load { param: via, index } => {
                        Operand::Gather { param, via: *via as Param, index: local_reg(index)? }
                    }
                    _ => return None,
                })
            }
            _ => None,
        }
    }
}

impl Test<Reg> {
    fn of(e: &TExpr) -> Option<Test<Reg>> {
        match &e.kind {
            &TKind::Compare {
                op: op @ (BinOp::And | BinOp::Or),
                dom: DType::Bool,
                ref lhs,
                ref rhs,
            } => Some(Test::Two(op, Cmp::of(lhs)?, Cmp::of(rhs)?)),
            _ => Cmp::of(e).map(Test::One),
        }
    }

    /// This test as every trip of `m` evaluates it, entering with `i`.
    #[inline(always)]
    fn bind(self, m: &MacLoop, i: &File<i64>) -> Test<Ix> {
        let cmp = |c: Cmp<Reg>| Cmp { op: c.op, a: Ix::bind(c.a, m, i), b: Ix::bind(c.b, m, i) };
        match self {
            Test::One(c) => Test::One(cmp(c)),
            Test::Two(op, a, b) => Test::Two(op, cmp(a), cmp(b)),
        }
    }
}

impl Test<Ix> {
    /// Whether the trip with these `k` and `j` accumulates.
    #[inline(always)]
    fn eval(self, k: i64, j: i64) -> bool {
        let cmp = |c: Cmp<Ix>| cmp_i64(c.op, c.a.at(k, j), c.b.at(k, j));
        match self {
            Test::One(c) => cmp(c),
            // Two Bools join as the integers 0 and 1, as `CmpB` joins them.
            Test::Two(op, a, b) => cmp_i64(op, cmp(a) as i64, cmp(b) as i64),
        }
    }
}

impl Cmp<Reg> {
    fn of(e: &TExpr) -> Option<Cmp<Reg>> {
        use BinOp::*;
        match &e.kind {
            &TKind::Compare {
                op: op @ (Eq | Ne | Lt | Le | Gt | Ge),
                dom: DType::I32,
                ref lhs,
                ref rhs,
            } => Some(Cmp { op, a: local_reg(lhs)?, b: local_reg(rhs)? }),
            _ => None,
        }
    }
}

/// An index or guard operand of a [`MacLoop`], bound at the loop's entry:
/// the loop local `k`, `j`, or a value no trip changes.
#[derive(Clone, Copy, Debug)]
enum Ix {
    K,
    J,
    Fixed(i64),
}

impl Ix {
    /// What I32 register `r` holds on each trip of `m`, entering with `i`.
    /// `j` is tested first: it may be the loop local's own register, which
    /// every trip then writes last with `j`.
    #[inline(always)]
    fn bind(r: Reg, m: &MacLoop, i: &File<i64>) -> Ix {
        match m.guard {
            Some(g) if g.j == r => Ix::J,
            _ if r == m.local => Ix::K,
            _ => Ix::Fixed(i[r]),
        }
    }

    #[inline(always)]
    fn at(self, k: i64, j: i64) -> i64 {
        match self {
            Ix::K => k,
            Ix::J => j,
            Ix::Fixed(v) => v,
        }
    }
}

/// An accumulate operand bound at the loop's entry: its storage matched and
/// its registers read once.
enum Bound<'p, D: Accumulate> {
    /// The accumulator, as the trip finds it.
    Acc,
    /// Any other register: no trip writes it.
    Fixed(D),
    /// `slice[ix]`.
    Load(&'p [D::Stored], Ix),
    /// `slice[cols[ix]]`.
    Gather(&'p [D::Stored], &'p [i32], Ix),
}

impl<'p, D: Accumulate> Bound<'p, D> {
    #[inline(always)]
    fn bind(op: Operand, m: &MacLoop, reg: &Files, params: &'p [ParamData]) -> Bound<'p, D> {
        let ix = |r| Ix::bind(r, m, &reg.i);
        let slice = |p: Param| D::slice(&params[p as usize]);
        match op {
            Operand::Reg(r) if r == m.acc => Bound::Acc,
            Operand::Reg(r) => Bound::Fixed(D::regs(reg)[r]),
            Operand::Load { param, index } => Bound::Load(slice(param), ix(index)),
            Operand::Gather { param, via, index } => {
                Bound::Gather(slice(param), i64::slice(&params[via as usize]), ix(index))
            }
        }
    }

    /// The operand on the trip with these `k`, `j` and accumulator; every
    /// element bounds-checked.
    #[inline(always)]
    fn get(&self, acc: D, k: i64, j: i64) -> D {
        match *self {
            Bound::Acc => acc,
            Bound::Fixed(v) => v,
            Bound::Load(s, ix) => D::value(s[ix.at(k, j) as usize]),
            Bound::Gather(s, cols, ix) => D::value(s[cols[ix.at(k, j) as usize] as usize]),
        }
    }
}

/// Run the loop `m` from its first trip, which `ForInit` has found and
/// written the local for, to its end. What the trips read is bound once, at
/// entry; the counter, the loop local, `j` and the accumulator then live in
/// variables, and the last three go back to their registers once, at exit,
/// as the flat program leaves them. (A panic mid-loop leaves them stale:
/// nothing reads them, since the next vertex resets every register.) The
/// counter's registers are temporaries no instruction after the loop reads.
/// One compiled copy per domain, out of line: the flat program's dispatch
/// loop keeps its shape. The binding and per-trip helpers it calls are
/// `#[inline(always)]`: left to the compiler they stayed calls, ≈10 % of
/// `fig8_mpir`'s replay, and inlined the benchmark ran ≈5 % faster.
#[inline(never)]
fn mac_loop<D: Accumulate>(m: &MacLoop, reg: &mut Files, params: &[ParamData], run: &mut Charge) {
    let (end, step) = (reg.i[m.ctr + 1], reg.i[m.ctr + 2]);
    let mut ctr = reg.i[m.ctr];
    let x = Bound::<D>::bind(m.x, m, reg, params);
    let y = Bound::<D>::bind(m.y, m, reg, params);
    let guard = m.guard.map(|g| (i64::slice(&params[g.cols as usize]), g.test.bind(m, &reg.i)));
    let (mut k, mut acc) = (reg.i[m.local], D::regs(reg)[m.acc]);
    let mut j = m.guard.map_or(0, |g| reg.i[g.j]);
    let (mut trips, mut taken) = (0, 0);
    while ctr < end {
        k = ctr as i32 as i64;
        ctr += step;
        trips += 1;
        if let Some((cols, test)) = guard {
            j = cols[k as usize] as i64;
            if !test.eval(k, j) {
                continue;
            }
        }
        let (x, y) = (x.get(acc, k, j), y.get(acc, k, j));
        acc = D::arith(m.add, acc, D::arith(m.mul, x, y));
        taken += 1;
    }
    // In the flat program's order: `j` may be the local's own register.
    reg.i[m.local] = k;
    if let Some(g) = m.guard {
        reg.i[g.j] = j;
    }
    D::regs_mut(reg)[m.acc] = acc;
    *run = run.plus(m.trip.times(trips)).plus(m.taken.times(taken));
}

/// Scratch a lowered vertex runs in, reused from vertex to vertex: one
/// register file per domain, a snapshot slot per `ParFor` site, and the
/// level-set schedule's buffers.
#[derive(Debug, Default)]
pub struct Regs {
    files: Files,
    lpt: LptScratch,
}

#[derive(Debug, Default)]
struct Files {
    i: File<i64>,
    b: File<bool>,
    f: File<f32>,
    w: File<TwoF32>,
    d: File<f64>,
    par: Vec<u64>,
}

impl Files {
    /// Size every file for one program, all zero: locals start as the I32
    /// zero, and nothing else is read before it is written.
    fn reset(&mut self, sizes: &[Reg; 5], sites: usize) {
        self.i.reset(sizes[0]);
        self.b.reset(sizes[1]);
        self.f.reset(sizes[2]);
        self.w.reset(sizes[3]);
        self.d.reset(sizes[4]);
        self.par.clear();
        self.par.resize(sites, 0);
    }

    /// `X[r]` as a `Value`: for the cold instructions and [`Lowered::local`].
    #[inline]
    fn get(&self, dt: DType, r: Reg) -> Value {
        match dt {
            DType::I32 => Value::I32(self.i[r] as i32),
            DType::Bool => Value::Bool(self.b[r]),
            DType::F32 => Value::F32(self.f[r]),
            DType::DoubleWord => Value::Dw(self.w[r]),
            DType::F64Emulated => Value::F64(self.d[r]),
        }
    }

    #[inline]
    fn put(&mut self, r: Reg, v: Value) {
        match v {
            Value::I32(x) => self.i[r] = x as i64,
            Value::Bool(x) => self.b[r] = x,
            Value::F32(x) => self.f[r] = x,
            Value::Dw(x) => self.w[r] = x,
            Value::F64(x) => self.d[r] = x,
        }
    }
}

/// One domain's registers, indexed by [`Reg`].
#[derive(Debug, Default)]
struct File<T>(Vec<T>);

impl<T: Copy + Default> File<T> {
    fn reset(&mut self, n: Reg) {
        self.0.clear();
        self.0.resize(n as usize, T::default());
    }
}

impl<T> std::ops::Index<Reg> for File<T> {
    type Output = T;

    #[inline]
    fn index(&self, r: Reg) -> &T {
        &self.0[r as usize]
    }
}

impl<T> std::ops::IndexMut<Reg> for File<T> {
    #[inline]
    fn index_mut(&mut self, r: Reg) -> &mut T {
        &mut self.0[r as usize]
    }
}

/// Flattens a typed body: registers allocated stack-wise, statements to
/// instructions, control flow to jumps, and per-statement charges summed
/// per basic block. A program too long for its `u32` jump targets and
/// table indices is declined.
struct Emitter {
    code: Vec<Ins>,
    charges: Vec<Charge>,
    loops: Vec<MacLoop>,
    /// The open block's charge so far.
    pending: Charge,
    /// Per file: the next free register, and the most ever in use.
    top: [Reg; 5],
    size: [Reg; 5],
    sites: usize,
    /// `LoopStep`, charged per trip of `For` / `ParFor`.
    loop_step: u64,
}

impl Emitter {
    /// Registers `0..num_locals` of every file are the locals: local `l`
    /// lives in register `l` of the file of its dtype at that point.
    fn new(num_locals: usize, loop_step: u64) -> Option<Emitter> {
        let n = Reg::try_from(num_locals).ok()?;
        Some(Emitter {
            code: Vec::new(),
            charges: Vec::new(),
            loops: Vec::new(),
            pending: Charge::default(),
            top: [n; 5],
            size: [n; 5],
            sites: 0,
            loop_step,
        })
    }

    /// A fresh register of `dt`'s file, free again when `top` is restored.
    fn temp(&mut self, dt: DType) -> Option<Reg> {
        let f = file(dt);
        let r = self.top[f];
        // Three counter registers sit at `ctr..ctr + 3`: keep `r + 2` in range.
        r.checked_add(3)?;
        self.top[f] = r + 1;
        self.size[f] = self.size[f].max(r + 1);
        Some(r)
    }

    fn charge(&mut self, c: Charge) {
        self.pending = self.pending.plus(c);
    }

    /// Close the open block: what it costs becomes one instruction.
    fn close(&mut self) -> Option<()> {
        if self.pending != Charge::default() {
            self.code.push(Ins::Charge(index(self.charges.len())?));
            self.charges.push(self.pending);
            self.pending = Charge::default();
        }
        Some(())
    }

    /// Close the open block with `ins` (a jump or a `ParFor` bracket);
    /// returns where it sits, for [`Emitter::patch`].
    fn end_block(&mut self, ins: Ins) -> Option<usize> {
        self.close()?;
        self.code.push(ins);
        Some(self.code.len() - 1)
    }

    /// A jump target here: the open block closes.
    fn label(&mut self) -> Option<u32> {
        self.close()?;
        index(self.code.len())
    }

    /// Aim the forward jump at `at` here.
    fn patch(&mut self, at: usize) -> Option<()> {
        let here = self.label()?;
        match &mut self.code[at] {
            Ins::Jmp(to) | Ins::JmpIfNot { to, .. } | Ins::ForInit { exit: to, .. } => *to = here,
            other => unreachable!("patched a non-jump {other:?}"),
        }
        Some(())
    }

    /// Emit `e`; returns the register holding its value. The outermost
    /// node writes `dst` if given (an operand may be `dst`: every
    /// instruction reads before it writes); a local read is its own
    /// register and emits nothing unless it must move.
    fn expr(&mut self, e: &TExpr, dst: Option<Reg>) -> Option<Reg> {
        let dt = e.dtype;
        if let TKind::Local(l) = e.kind {
            let src = Reg::try_from(l).ok()?;
            return Some(match dst {
                Some(dst) if dst != src => {
                    self.code.push(match dt {
                        DType::I32 => Ins::MovI(dst, src),
                        DType::Bool => Ins::MovB(dst, src),
                        DType::F32 => Ins::MovF(dst, src),
                        DType::DoubleWord => Ins::MovW(dst, src),
                        DType::F64Emulated => Ins::MovD(dst, src),
                    });
                    dst
                }
                _ => src,
            });
        }
        let mark = self.top;
        let [a, b, c] = match &e.kind {
            TKind::Const(_) | TKind::ParamLen(_) | TKind::Local(_) => [0; 3],
            TKind::Load { index: arg, .. }
            | TKind::Unary { arg, .. }
            | TKind::Not(arg)
            | TKind::Cast(arg) => [self.expr(arg, None)?, 0, 0],
            TKind::Arith { lhs, rhs, .. } | TKind::Compare { lhs, rhs, .. } => {
                [self.expr(lhs, None)?, self.expr(rhs, None)?, 0]
            }
            TKind::Select { cond, then, otherwise } => {
                [self.truth(cond)?, self.expr(then, None)?, self.expr(otherwise, None)?]
            }
        };
        // The operands' temporaries are free once this node has read them.
        self.top = mark;
        let dst = match dst {
            Some(dst) => dst,
            None => self.temp(dt)?,
        };
        self.code.push(match &e.kind {
            TKind::Const(v) => match *v {
                Value::I32(v) => Ins::ConstI(dst, v),
                Value::Bool(v) => Ins::ConstB(dst, v),
                Value::F32(v) => Ins::ConstF(dst, v),
                Value::Dw(v) => Ins::ConstW(dst, v),
                Value::F64(v) => Ins::ConstD(dst, v),
            },
            TKind::Local(_) => unreachable!("a local read emits no instruction"),
            TKind::ParamLen(param) => Ins::Len(dst, *param as Param),
            &TKind::Load { param, .. } => {
                let elem = Elem { val: dst, param: param as Param, index: a };
                match dt {
                    DType::I32 => Ins::LoadI(elem),
                    DType::Bool => Ins::LoadB(elem),
                    DType::F32 => Ins::LoadF(elem),
                    DType::DoubleWord => Ins::LoadW(elem),
                    DType::F64Emulated => Ins::LoadD(elem),
                }
            }
            TKind::Unary { op, .. } => Ins::Unary { op: *op, dt, dst, src: a },
            TKind::Not(arg) => Ins::Not { from: arg.dtype, dst, src: a },
            TKind::Cast(arg) => Ins::Cast { from: arg.dtype, to: dt, dst, src: a },
            &TKind::Arith { op, .. } => {
                let bin = Bin { op, dst, a, b };
                match dt {
                    DType::I32 => Ins::ArithI(bin),
                    DType::F32 => Ins::ArithF(bin),
                    DType::DoubleWord => Ins::ArithW(bin),
                    DType::F64Emulated => Ins::ArithD(bin),
                    DType::Bool => unreachable!("Bool arithmetic is typed I32"),
                }
            }
            &TKind::Compare { op, dom, .. } => {
                let bin = Bin { op, dst, a, b };
                match dom {
                    DType::I32 => Ins::CmpI(bin),
                    DType::Bool => Ins::CmpB(bin),
                    DType::F32 => Ins::CmpF(bin),
                    DType::DoubleWord => Ins::CmpW(bin),
                    DType::F64Emulated => Ins::CmpD(bin),
                }
            }
            TKind::Select { .. } => Ins::Select { dt, dst, cond: a, then: b, otherwise: c },
        });
        Some(dst)
    }

    /// Emit a condition; returns the Bool register holding its truth.
    fn truth(&mut self, e: &TExpr) -> Option<Reg> {
        if e.dtype == DType::Bool {
            return self.expr(e, None);
        }
        let mark = self.top;
        let src = self.expr(e, None)?;
        self.top = mark;
        let dst = self.temp(DType::Bool)?;
        self.code.push(Ins::Truth { from: e.dtype, dst, src });
        Some(dst)
    }

    fn block(&mut self, stmts: &[LStmt]) -> Option<()> {
        stmts.iter().try_for_each(|s| self.stmt(s))
    }

    /// Emit one statement; its temporaries are free again after it.
    fn stmt(&mut self, s: &LStmt) -> Option<()> {
        let mark = self.top;
        match s {
            LStmt::SetLocal { local, value, charge } => {
                self.expr(value, Some(Reg::try_from(*local).ok()?))?;
                self.charge(*charge);
            }
            LStmt::Store { param, index, value, charge } => {
                let index = self.expr(index, None)?;
                let val = self.expr(value, None)?;
                let elem = Elem { val, param: *param as Param, index };
                self.code.push(match value.dtype {
                    DType::I32 => Ins::StoreI(elem),
                    DType::Bool => Ins::StoreB(elem),
                    DType::F32 => Ins::StoreF(elem),
                    DType::DoubleWord => Ins::StoreW(elem),
                    DType::F64Emulated => Ins::StoreD(elem),
                });
                self.charge(*charge);
            }
            LStmt::If { cond, charge, then, otherwise } => {
                let cond = self.truth(cond)?;
                self.charge(*charge);
                let to_else = self.end_block(Ins::JmpIfNot { cond, to: 0 })?;
                self.top = mark;
                self.block(then)?;
                if otherwise.is_empty() {
                    self.patch(to_else)?;
                } else {
                    let to_end = self.end_block(Ins::Jmp(0))?;
                    self.patch(to_else)?;
                    self.block(otherwise)?;
                    self.patch(to_end)?;
                }
            }
            LStmt::While { cond, charge, body } => {
                let head = self.label()?;
                let cond = self.truth(cond)?;
                self.charge(*charge);
                let exit = self.end_block(Ins::JmpIfNot { cond, to: 0 })?;
                self.top = mark;
                self.block(body)?;
                self.end_block(Ins::Jmp(head))?;
                self.patch(exit)?;
            }
            LStmt::For { local, start, end, step, head, body } => {
                self.counted(*local, [start, end], Some(step), *head, body)?
            }
            LStmt::ParFor { local, start, end, head, body } => {
                self.counted(*local, [start, end], None, *head, body)?
            }
        }
        self.top = mark;
        Some(())
    }

    /// A `For` (`step` given) or a `ParFor` (no `step`: step 1, bracketed by
    /// `ParBegin` / `ParEnd`): the bounds go into hidden counter registers,
    /// so a body that writes `local` does not change the trip count. An
    /// accumulate body runs as one [`MacLoop`] in place of itself and its
    /// `ForNext`.
    fn counted(
        &mut self,
        local: LocalId,
        [start, end]: [&TExpr; 2],
        step: Option<&TExpr>,
        head: Charge,
        body: &[LStmt],
    ) -> Option<()> {
        let local = Reg::try_from(local).ok()?;
        let ctr = self.temp(DType::I32)?;
        self.temp(DType::I32)?;
        self.temp(DType::I32)?;
        self.expr(start, Some(ctr))?;
        self.expr(end, Some(ctr + 1))?;
        match step {
            Some(step) => {
                self.expr(step, Some(ctr + 2))?;
            }
            None => self.code.push(Ins::ConstI(ctr + 2, 1)),
        }
        self.charge(head);
        // The snapshot sees every charge before it: `ParBegin` closes the
        // block the bounds were charged in.
        let site = if step.is_none() {
            let site = index(self.sites)?;
            self.sites += 1;
            self.end_block(Ins::ParBegin(site))?;
            Some(site)
        } else {
            None
        };
        let init = self.end_block(Ins::ForInit { ctr, local, exit: 0 })?;
        match MacLoop::recognise(local, ctr, self.loop_step, body) {
            Some(m) => {
                self.code.push(Ins::MacLoop(index(self.loops.len())?));
                self.loops.push(m);
            }
            None => {
                let trip = self.label()?;
                self.charge(Charge::cy(self.loop_step));
                self.block(body)?;
                self.end_block(Ins::ForNext { ctr, local, body: trip })?;
            }
        }
        self.patch(init)?;
        if let Some(site) = site {
            self.end_block(Ins::ParEnd(site))?;
        }
        Some(())
    }
}

/// A lowered codelet met storage other than the `want` it was typed for,
/// or stores to a read-only operand: a lowering bug. Said without indexing
/// the slice.
#[cold]
fn mistyped(want: DType) -> ! {
    unreachable!("an operand's storage is not the {want:?} lowering typed, or is read-only")
}

/// A register domain: the Rust type a dtype's values have in registers, and
/// how a parameter's storage holds them.
trait Domain: Copy {
    /// One element of a parameter whose storage is this domain's.
    type Stored: Copy;
    /// The elements of `p`, whose storage is this domain's.
    fn slice<'p>(p: &'p ParamData) -> &'p [Self::Stored];
    /// An element as a register holds it.
    fn value(s: Self::Stored) -> Self;
    /// `p[i] = v`, exactly as `ParamData::set` writes `v`'s [`Value`].
    fn store(p: &mut ParamData, i: usize, v: Self);

    /// `p[i]`.
    #[inline]
    fn load(p: &ParamData, i: usize) -> Self {
        Self::value(Self::slice(p)[i])
    }
}

impl Domain for i64 {
    type Stored = i32;

    #[inline]
    fn slice<'p>(p: &'p ParamData) -> &'p [i32] {
        match p {
            ParamData::I32(s) => s,
            ParamData::I32Ro(s) => s,
            _ => mistyped(DType::I32),
        }
    }

    #[inline]
    fn value(s: i32) -> i64 {
        s as i64
    }

    #[inline]
    fn store(p: &mut ParamData, i: usize, v: i64) {
        match p {
            ParamData::I32(s) => s[i] = v as i32,
            _ => mistyped(DType::I32),
        }
    }
}

impl Domain for bool {
    type Stored = bool;

    #[inline]
    fn slice<'p>(p: &'p ParamData) -> &'p [bool] {
        match p {
            ParamData::Bool(s) => s,
            ParamData::BoolRo(s) => s,
            _ => mistyped(DType::Bool),
        }
    }

    #[inline]
    fn value(s: bool) -> bool {
        s
    }

    #[inline]
    fn store(p: &mut ParamData, i: usize, v: bool) {
        match p {
            ParamData::Bool(s) => s[i] = v,
            _ => mistyped(DType::Bool),
        }
    }
}

impl Domain for f32 {
    type Stored = f32;

    #[inline]
    fn slice<'p>(p: &'p ParamData) -> &'p [f32] {
        match p {
            ParamData::F32(s) => s,
            ParamData::F32Ro(s) => s,
            _ => mistyped(DType::F32),
        }
    }

    #[inline]
    fn value(s: f32) -> f32 {
        s
    }

    #[inline]
    fn store(p: &mut ParamData, i: usize, v: f32) {
        match p {
            ParamData::F32(s) => s[i] = through_f64(v),
            _ => mistyped(DType::F32),
        }
    }
}

impl Domain for TwoF32 {
    type Stored = TwoF32;

    #[inline]
    fn slice<'p>(p: &'p ParamData) -> &'p [TwoF32] {
        match p {
            ParamData::Dw(s) => s,
            ParamData::DwRo(s) => s,
            _ => mistyped(DType::DoubleWord),
        }
    }

    #[inline]
    fn value(s: TwoF32) -> TwoF32 {
        s
    }

    #[inline]
    fn store(p: &mut ParamData, i: usize, v: TwoF32) {
        match p {
            ParamData::Dw(s) => s[i] = v,
            _ => mistyped(DType::DoubleWord),
        }
    }
}

impl Domain for f64 {
    type Stored = SoftDouble;

    #[inline]
    fn slice<'p>(p: &'p ParamData) -> &'p [SoftDouble] {
        match p {
            ParamData::F64(s) => s,
            ParamData::F64Ro(s) => s,
            _ => mistyped(DType::F64Emulated),
        }
    }

    #[inline]
    fn value(s: SoftDouble) -> f64 {
        s.0
    }

    #[inline]
    fn store(p: &mut ParamData, i: usize, v: f64) {
        match p {
            ParamData::F64(s) => s[i] = SoftDouble(v),
            _ => mistyped(DType::F64Emulated),
        }
    }
}

/// A float domain a [`MacLoop`] accumulates in: its register file, and its
/// arithmetic through the one compiled copy of each operator.
trait Accumulate: Domain {
    fn regs(f: &Files) -> &File<Self>;
    fn regs_mut(f: &mut Files) -> &mut File<Self>;
    fn arith(op: BinOp, x: Self, y: Self) -> Self;
}

impl Accumulate for f32 {
    #[inline]
    fn regs(f: &Files) -> &File<f32> {
        &f.f
    }

    #[inline]
    fn regs_mut(f: &mut Files) -> &mut File<f32> {
        &mut f.f
    }

    #[inline]
    fn arith(op: BinOp, x: f32, y: f32) -> f32 {
        arith_f32(op, x, y)
    }
}

impl Accumulate for TwoF32 {
    #[inline]
    fn regs(f: &Files) -> &File<TwoF32> {
        &f.w
    }

    #[inline]
    fn regs_mut(f: &mut Files) -> &mut File<TwoF32> {
        &mut f.w
    }

    #[inline]
    fn arith(op: BinOp, x: TwoF32, y: TwoF32) -> TwoF32 {
        arith_dw(op, x, y)
    }
}

impl Accumulate for f64 {
    #[inline]
    fn regs(f: &Files) -> &File<f64> {
        &f.d
    }

    #[inline]
    fn regs_mut(f: &mut Files) -> &mut File<f64> {
        &mut f.d
    }

    #[inline]
    fn arith(op: BinOp, x: f64, y: f64) -> f64 {
        arith_f64(op, x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use BinOp::*;

    fn cm() -> CostModel {
        CostModel::default()
    }

    fn run_codelet(c: &Codelet, params: &mut [ParamData]) -> u64 {
        c.validate().unwrap();
        let cost = cm();
        let mut interp = Interp::new(&cost, params, c.num_locals, 6);
        interp.run(&c.body)
    }

    /// y[i] = a*x[i] + y[i] over the slice (an axpy codelet).
    fn axpy_codelet() -> Codelet {
        Codelet {
            name: "axpy".into(),
            params: vec![
                ParamDecl { dtype: DType::F32, mutable: false }, // x
                ParamDecl { dtype: DType::F32, mutable: true },  // y
                ParamDecl { dtype: DType::F32, mutable: false }, // a (scalar)
            ],
            num_locals: 1,
            body: vec![Stmt::ParFor {
                local: 0,
                start: Expr::c(Value::I32(0)),
                end: Expr::ParamLen(0),
                body: vec![Stmt::Store {
                    param: 1,
                    index: Expr::Local(0),
                    value: Expr::bin(
                        Add,
                        Expr::bin(
                            Mul,
                            Expr::index(2, Expr::c(Value::I32(0))),
                            Expr::index(0, Expr::Local(0)),
                        ),
                        Expr::index(1, Expr::Local(0)),
                    ),
                }],
            }],
        }
    }

    #[test]
    fn axpy_computes_and_costs() {
        let c = axpy_codelet();
        let mut x = [1.0f32, 2.0, 3.0];
        let mut y = [10.0f32, 20.0, 30.0];
        let mut a = [2.0f32];
        let cycles = run_codelet(
            &c,
            &mut [ParamData::F32(&mut x), ParamData::F32(&mut y), ParamData::F32(&mut a)],
        );
        assert_eq!(y, [12.0, 24.0, 36.0]);
        assert!(cycles > 0);
    }

    /// Flop/byte counters measure *work*, so `ParFor` must leave them
    /// untouched even though it shrinks the cycle makespan.
    #[test]
    fn flop_and_byte_counters_are_work_not_time() {
        let c = axpy_codelet();
        c.validate().unwrap();
        let cost = cm();
        let mut x = [1.0f32, 2.0, 3.0];
        let mut y = [10.0f32, 20.0, 30.0];
        let mut a = [2.0f32];
        let mut params = [ParamData::F32(&mut x), ParamData::F32(&mut y), ParamData::F32(&mut a)];
        let mut interp = Interp::new(&cost, &mut params, c.num_locals, 6);
        interp.run(&c.body);
        // 3 iterations × (mul + add) = 6 flops; 3 × (3 loads + 1 store) × 4 B.
        assert_eq!(interp.flops, 6);
        assert_eq!(interp.mem_bytes, 48);

        // Same codelet with one worker: more cycles, identical work.
        let mut x1 = [1.0f32, 2.0, 3.0];
        let mut y1 = [10.0f32, 20.0, 30.0];
        let mut a1 = [2.0f32];
        let mut params1 =
            [ParamData::F32(&mut x1), ParamData::F32(&mut y1), ParamData::F32(&mut a1)];
        let mut serial = Interp::new(&cost, &mut params1, c.num_locals, 1);
        serial.run(&c.body);
        assert!(serial.cycles >= interp.cycles);
        assert_eq!(serial.flops, interp.flops);
        assert_eq!(serial.mem_bytes, interp.mem_bytes);
    }

    #[test]
    fn parfor_cheaper_than_serial_for() {
        let c = axpy_codelet();
        // Same codelet but with a serial For.
        let mut serial = c.clone();
        if let Stmt::ParFor { local, start, end, body } = serial.body.remove(0) {
            serial.body.push(Stmt::For { local, start, end, step: Expr::c(Value::I32(1)), body });
        }
        let run = |c: &Codelet| {
            let mut x = vec![1.0f32; 600];
            let mut y = vec![0.0f32; 600];
            let mut a = [3.0f32];
            run_codelet(
                c,
                &mut [ParamData::F32(&mut x), ParamData::F32(&mut y), ParamData::F32(&mut a)],
            )
        };
        let par = run(&c);
        let ser = run(&serial);
        let ratio = ser as f64 / par as f64;
        assert!(ratio > 4.0 && ratio < 6.5, "ratio {ratio}");
    }

    #[test]
    fn dynamic_promotion_f32_dw() {
        let (v, dt) = apply_bin(Add, Value::F32(1.0), Value::Dw(TwoFloat::from_f64(1e-9)));
        assert_eq!(dt, DType::DoubleWord);
        match v {
            Value::Dw(d) => assert!((d.to_f64() - (1.0 + 1e-9)).abs() < 1e-15),
            other => panic!("expected Dw, got {other:?}"),
        }
    }

    const ALL_BINOPS: [BinOp; 15] =
        [Add, Sub, Mul, Div, Min, Max, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Rem];

    /// Adversarial operands per dtype: signed zeros, infinities, a quiet and
    /// a *signalling* NaN, subnormals and the extremes for F32; the
    /// wrap-around corners for I32; and Dw / F64 values that f32 cannot
    /// represent.
    ///
    /// The signalling NaN (only a bit flip produces one) is what an F32
    /// operand's route to `arith_f32` decides: widened to f64 and back it
    /// would be quieted, handed over untouched `Min` / `Max` may return its
    /// bits. Every route hands it over untouched.
    fn adversarial_operands() -> Vec<Value> {
        let f32s = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fa0_0000),
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 2.0,
            f32::MAX,
            -1.0,
            1.5,
        ];
        let i32s = [i32::MIN, -1, 0, 1, i32::MAX];
        let dws = [1.0 + 1e-9, 16_777_217.0, -0.0, f64::INFINITY, f64::NAN];
        let f64s = [1.0 + 1e-9, 1e300, -0.0, i32::MAX as f64 + 0.5, f64::NEG_INFINITY, f64::NAN];
        let mut out: Vec<Value> = f32s.into_iter().map(Value::F32).collect();
        out.extend(i32s.into_iter().map(Value::I32));
        out.extend([Value::Bool(false), Value::Bool(true)]);
        out.extend(dws.into_iter().map(|v| Value::Dw(TwoFloat::from_f64(v))));
        out.extend(f64s.into_iter().map(Value::F64));
        out
    }

    /// A value's dtype and exact bit pattern (so NaNs and signed zeros
    /// compare as what they are).
    fn bits(v: Value) -> (DType, u64) {
        let b = match v {
            Value::F32(x) => x.to_bits() as u64,
            Value::I32(x) => x as u32 as u64,
            Value::Bool(x) => x as u64,
            Value::Dw(x) => (x.hi().to_bits() as u64) << 32 | x.lo().to_bits() as u64,
            Value::F64(x) => x.to_bits(),
        };
        (v.dtype(), b)
    }

    /// `Interp::eval` of one `Expr::Binary` over constants: value, cycles
    /// and flops, or `None` if evaluation panicked.
    fn interp_binary(op: BinOp, a: Value, b: Value) -> Option<(Value, u64, u64)> {
        std::panic::catch_unwind(|| {
            let cost = cm();
            let mut params: [ParamData; 0] = [];
            let mut interp = Interp::new(&cost, &mut params, 0, 6);
            let v = interp.eval(&Expr::bin(op, Expr::c(a), Expr::c(b)));
            (v, interp.cycles, interp.flops)
        })
        .ok()
    }

    /// The same `Expr::Binary` through the lowered form: `local 0 = a op b`
    /// typed and costed at lowering, then run.
    fn lowered_binary(op: BinOp, a: Value, b: Value) -> Option<(Value, u64, u64)> {
        let cost = cm();
        let c = Codelet {
            name: "binary".into(),
            params: vec![],
            num_locals: 1,
            body: vec![Stmt::SetLocal(0, Expr::bin(op, Expr::c(a), Expr::c(b)))],
        };
        // Typing two constants never fails, whatever they would divide by.
        let lowered = Lowered::lower(&c, &[], false, &cost).expect("two constants type");
        std::panic::catch_unwind(|| {
            let mut regs = Regs::default();
            let run = lowered.run_vertex(&VertexKind::Simple, &mut [], &mut regs, &cost, 6);
            let local = lowered.local(&regs, 0).expect("local 0 is typed at the end");
            (local, run.cycles, run.flops)
        })
        .ok()
    }

    /// `acc = a; for k in 0..1 { acc = acc op (xs[k] op ys[k]) }` over
    /// `xs = [a]`, `ys = [b]` of one float dtype: a trip of the accumulate
    /// loop instruction. The accumulator at the end, cycles and flops.
    fn looped_binary(op: BinOp, a: Value, b: Value) -> (Value, u64, u64) {
        let cost = cm();
        let dt = a.dtype();
        let at = |param, k| Expr::index(param, Expr::c(Value::I32(k)));
        let k = |param| Expr::index(param, Expr::Local(0));
        let c = Codelet {
            name: "looped".into(),
            params: vec![ParamDecl { dtype: dt, mutable: false }; 2],
            num_locals: 2,
            body: vec![
                Stmt::SetLocal(1, at(0, 0)),
                Stmt::For {
                    local: 0,
                    start: Expr::c(Value::I32(0)),
                    end: Expr::c(Value::I32(1)),
                    step: Expr::c(Value::I32(1)),
                    body: vec![Stmt::SetLocal(
                        1,
                        Expr::bin(op, Expr::Local(1), Expr::bin(op, k(0), k(1))),
                    )],
                },
            ],
        };
        let lowered = Lowered::lower(&c, &[dt, dt], false, &cost).expect("one float dtype types");
        assert_eq!(lowered.loops(), 1, "{op:?} {a:?} {b:?}: one loop instruction");
        let mut regs = Regs::default();
        let mut run = |params: &mut [ParamData]| {
            lowered.run_vertex(&VertexKind::Simple, params, &mut regs, &cost, 6)
        };
        let run = match (a, b) {
            (Value::F32(a), Value::F32(b)) => {
                run(&mut [ParamData::F32Ro(&[a]), ParamData::F32Ro(&[b])])
            }
            (Value::Dw(a), Value::Dw(b)) => {
                run(&mut [ParamData::DwRo(&[a]), ParamData::DwRo(&[b])])
            }
            (Value::F64(a), Value::F64(b)) => {
                run(&mut [ParamData::F64Ro(&[SoftDouble(a)]), ParamData::F64Ro(&[SoftDouble(b)])])
            }
            other => unreachable!("{other:?} is not one float dtype"),
        };
        (lowered.local(&regs, 1).expect("the accumulator is typed"), run.cycles, run.flops)
    }

    /// One semantics, three routes: for every operator and every ordered
    /// pair of operands (hence of dtypes), the dynamic `Interp` and the
    /// lowered form yield the bits `apply_bin` yields and charge what the
    /// cost model says for the promoted dtype (the mixed double-word rate
    /// iff the result is double-word and one side is f32).
    ///
    /// Integer `Div` / `Rem` by zero (both sides I32 or Bool) **panics** —
    /// Rust's integer division, "attempt to divide by zero" — on all three;
    /// the lowered form when it runs, not when it is built.
    ///
    /// Two *different* NaNs are held to their bits like any other pair:
    /// all routes end in the one compiled copy of `arith_f32` / `arith_dw` /
    /// `arith_f64` (run this under `--release` too, where inlining would
    /// otherwise let each call site pick its own payload).
    ///
    /// An arithmetic operator over two operands of one float dtype also
    /// goes through the accumulate loop instruction, as `a op (a op b)`:
    /// both of its operator slots.
    #[test]
    fn interp_binary_matches_apply_bin_and_the_cost_formulas() {
        let cost = cm();
        let operands = adversarial_operands();
        let mut checked = 0;
        let mut div_by_zero = 0;
        let mut looped = 0;
        for op in ALL_BINOPS {
            for &a in &operands {
                for &b in &operands {
                    let (da, db) = (a.dtype(), b.dtype());
                    let dt = promote(da, db);
                    let int_domain = matches!(dt, DType::I32 | DType::Bool);
                    if int_domain && matches!(op, Div | Rem) && b.as_i64() == 0 {
                        assert!(
                            std::panic::catch_unwind(|| apply_bin(op, a, b)).is_err(),
                            "apply_bin {op:?} {a:?} {b:?} must panic"
                        );
                        assert!(
                            interp_binary(op, a, b).is_none(),
                            "Interp {op:?} {a:?} {b:?} must panic"
                        );
                        assert!(
                            lowered_binary(op, a, b).is_none(),
                            "lowered {op:?} {a:?} {b:?} must panic"
                        );
                        div_by_zero += 1;
                        continue;
                    }
                    let (want, want_dt) = apply_bin(op, a, b);
                    assert_eq!(want_dt, dt);
                    let mixed = dt == DType::DoubleWord && (da == DType::F32 || db == DType::F32);
                    let want_cycles = if mixed {
                        cost.op_cycles_mixed_dw(op.cost_op())
                    } else {
                        cost.op_cycles(op.cost_op(), dt)
                    };
                    let want_flops = cost.op_flops(op.cost_op(), dt);
                    for (route, got) in
                        [("Interp", interp_binary(op, a, b)), ("lowered", lowered_binary(op, a, b))]
                    {
                        let who = format!("{route}: {op:?} {a:?} {b:?}");
                        let (got, cycles, flops) = got.unwrap_or_else(|| panic!("{who} panicked"));
                        assert_eq!(bits(got), bits(want), "{who}");
                        assert_eq!((cycles, flops), (want_cycles, want_flops), "{who}");
                    }
                    checked += 1;
                    if da == db && dt.is_float() && op.cost_op() != Op::Cmp {
                        let who = format!("loop instruction: {op:?} {a:?} {b:?}");
                        let (got, cycles, flops) = looped_binary(op, a, b);
                        assert_eq!(bits(got), bits(apply_bin(op, a, want).0), "{who}");
                        let loads = 3 * cost.op_cycles(Op::Load, dt);
                        let trip = cost.op_cycles(Op::LoopStep, DType::I32);
                        assert_eq!(cycles, loads + trip + 2 * want_cycles, "{who}");
                        assert_eq!(flops, 2 * want_flops, "{who}");
                        looped += 1;
                    }
                }
            }
        }
        // Every dtype pair was present, and the zero divisors were met; every
        // arithmetic operator went through the loop instruction over every
        // pair of one float dtype.
        assert_eq!(checked + div_by_zero, ALL_BINOPS.len() * operands.len() * operands.len());
        assert!(div_by_zero > 0);
        let float = |v: &&Value| v.dtype().is_float();
        let same = operands
            .iter()
            .filter(float)
            .map(|a| operands.iter().filter(|b| b.dtype() == a.dtype()).count());
        let arithmetic = ALL_BINOPS.iter().filter(|op| op.cost_op() != Op::Cmp).count();
        assert_eq!(looped, arithmetic * same.sum::<usize>());
    }

    #[test]
    fn f32_arithmetic_actually_rounds() {
        // The crucial property for MPIR experiments: F32 values really are
        // f32.
        let (v, _) = apply_bin(Add, Value::F32(1.0), Value::F32(1e-8));
        assert_eq!(v, Value::F32(1.0));
        // While DW keeps the tiny addend.
        let (v, _) = apply_bin(Add, Value::Dw(TwoFloat::from_f(1.0)), Value::F32(1e-8));
        assert_ne!(v.as_f64(), 1.0);
    }

    #[test]
    fn dw_ops_cost_table1() {
        let cost = cm();
        let c = Codelet {
            name: "dw_add".into(),
            params: vec![ParamDecl { dtype: DType::DoubleWord, mutable: true }],
            num_locals: 0,
            body: vec![Stmt::Store {
                param: 0,
                index: Expr::c(Value::I32(0)),
                value: Expr::bin(
                    Add,
                    Expr::index(0, Expr::c(Value::I32(0))),
                    Expr::index(0, Expr::c(Value::I32(1))),
                ),
            }],
        };
        let mut data = [TwoFloat::from_f(1.0f32), TwoFloat::from_f(2.0f32)];
        let mut params = [ParamData::Dw(&mut data)];
        let mut interp = Interp::new(&cost, &mut params, 0, 6);
        let cycles = interp.run(&c.body);
        // 2 loads + 1 add + 1 store, all double-word.
        let expect = 2 * cost.op_cycles(Op::Load, DType::DoubleWord)
            + cost.op_cycles(Op::Add, DType::DoubleWord)
            + cost.op_cycles(Op::Store, DType::DoubleWord);
        assert_eq!(cycles, expect);
        assert_eq!(data[0].to_f64(), 3.0);
    }

    #[test]
    fn while_and_if_control_flow() {
        // Sum integers 1..=10 with a while loop, then clamp via if.
        let c = Codelet {
            name: "sum".into(),
            params: vec![ParamDecl { dtype: DType::I32, mutable: true }],
            num_locals: 2,
            body: vec![
                Stmt::SetLocal(0, Expr::c(Value::I32(1))),
                Stmt::SetLocal(1, Expr::c(Value::I32(0))),
                Stmt::While {
                    cond: Expr::bin(Le, Expr::Local(0), Expr::c(Value::I32(10))),
                    body: vec![
                        Stmt::SetLocal(1, Expr::bin(Add, Expr::Local(1), Expr::Local(0))),
                        Stmt::SetLocal(0, Expr::bin(Add, Expr::Local(0), Expr::c(Value::I32(1)))),
                    ],
                },
                Stmt::If {
                    cond: Expr::bin(Gt, Expr::Local(1), Expr::c(Value::I32(50))),
                    then: vec![Stmt::Store {
                        param: 0,
                        index: Expr::c(Value::I32(0)),
                        value: Expr::Local(1),
                    }],
                    otherwise: vec![Stmt::Store {
                        param: 0,
                        index: Expr::c(Value::I32(0)),
                        value: Expr::c(Value::I32(-1)),
                    }],
                },
            ],
        };
        let mut out = [0i32];
        run_codelet(&c, &mut [ParamData::I32(&mut out)]);
        assert_eq!(out[0], 55);
    }

    #[test]
    fn validation_catches_bad_references() {
        let c = Codelet {
            name: "bad".into(),
            params: vec![ParamDecl { dtype: DType::F32, mutable: false }],
            num_locals: 0,
            body: vec![Stmt::Store {
                param: 0,
                index: Expr::c(Value::I32(0)),
                value: Expr::c(Value::F32(1.0)),
            }],
        };
        assert!(c.validate().unwrap_err().contains("immutable"));
        let c2 = Codelet {
            name: "bad2".into(),
            params: vec![],
            num_locals: 1,
            body: vec![Stmt::SetLocal(3, Expr::c(Value::I32(0)))],
        };
        assert!(c2.validate().is_err());
    }

    #[test]
    fn conversions_round_correctly() {
        let v = Value::F64(1.0 + 1e-9);
        assert_eq!(v.convert(DType::F32), Value::F32(1.0));
        let dw = v.convert(DType::DoubleWord);
        assert!((dw.as_f64() - (1.0 + 1e-9)).abs() < 1e-16);
        assert_eq!(Value::F32(2.9).convert(DType::I32), Value::I32(2));
        assert_eq!(Value::I32(0).convert(DType::Bool), Value::Bool(false));
    }

    /// An instruction names a parameter in a `u16`: a codelet with more
    /// parameters than that counts does not lower — `None`, not a panic —
    /// and runs on `Interp`; one parameter fewer lowers.
    #[test]
    fn a_codelet_with_65536_parameters_runs_on_interp() {
        let wide = |n: usize| Codelet {
            name: "wide".into(),
            params: vec![ParamDecl { dtype: DType::F32, mutable: true }; n],
            num_locals: 0,
            body: vec![Stmt::Store {
                param: n - 1,
                index: Expr::c(Value::I32(0)),
                value: Expr::c(Value::F32(2.5)),
            }],
        };
        let n = 1 << 16;
        assert!(Lowered::lower(&wide(n), &vec![DType::F32; n], false, &cm()).is_none());
        assert!(Lowered::lower(&wide(n - 1), &vec![DType::F32; n - 1], false, &cm()).is_some());
        let mut data = vec![[0.0f32]; n];
        let mut params: Vec<ParamData> = data.iter_mut().map(|d| ParamData::F32(d)).collect();
        assert!(run_codelet(&wide(n), &mut params) > 0);
        drop(params);
        assert_eq!(data[n - 1], [2.5]);
    }

    #[test]
    fn select_evaluates_branchlessly() {
        let cost = cm();
        let mut params: [ParamData; 0] = [];
        let mut interp = Interp::new(&cost, &mut params, 0, 6);
        let e = Expr::Select {
            cond: Box::new(Expr::bin(Lt, Expr::c(Value::I32(3)), Expr::c(Value::I32(5)))),
            then: Box::new(Expr::c(Value::F32(1.0))),
            otherwise: Box::new(Expr::c(Value::F32(-1.0))),
        };
        assert_eq!(interp.eval(&e), Value::F32(1.0));
    }
}
