//! Values, the operators over them, and the IR built from both: expressions,
//! statements, codelets, and the typed operand slices a vertex hands a
//! codelet.

use ipu_sim::cost::{DType, Op};
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
pub(super) fn arith_i64(op: BinOp, x: i64, y: i64) -> i64 {
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
pub(super) fn cmp_i64(op: BinOp, x: i64, y: i64) -> bool {
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
pub(crate) fn arith_f32(op: BinOp, x: f32, y: f32) -> f32 {
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
pub(super) fn cmp_f32(op: BinOp, x: f32, y: f32) -> bool {
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
pub(super) fn arith_dw(op: BinOp, x: TwoF32, y: TwoF32) -> TwoF32 {
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
pub(super) fn cmp_dw(op: BinOp, x: TwoF32, y: TwoF32) -> bool {
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
pub(super) fn arith_f64(op: BinOp, x: f64, y: f64) -> f64 {
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
pub(super) fn cmp_f64(op: BinOp, x: f64, y: f64) -> bool {
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
/// never materialises a `&mut` for data a vertex only reads.
/// [`Codelet::validate`]
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
pub(crate) fn through_f64(v: f32) -> f32 {
    if v.is_nan() {
        f32::from_bits(v.to_bits() | 0x0040_0000)
    } else {
        v
    }
}
