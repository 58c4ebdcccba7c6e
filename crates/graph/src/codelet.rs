//! The codelet IR and its cycle-accounting interpreter.
//!
//! A codelet is the unit of computation bound to a tile — Poplar's
//! C++-compiled vertex code. Here it is a small structured IR (expressions
//! and statements over *dynamically typed* values, matching the paper's
//! dynamically typed DSLs) executed by a tree-walking interpreter that
//! charges the [`ipu_sim::CostModel`] for every operation it performs.
//!
//! Codelets access data exclusively through their declared **parameters**
//! (tensor slices handed to the vertex), mirroring the tile-local
//! perspective of CodeDSL: "algorithms … can only access parts of tensors
//! that are mapped to the executing tile".

use ipu_sim::cost::{CostModel, DType, Op};
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
        DType::F32 => bin_f32(op, a.as_f64() as f32, b.as_f64() as f32),
        DType::DoubleWord => bin_dw(op, as_dw(a), as_dw(b)),
        DType::F64Emulated => bin_f64(op, a.as_f64(), b.as_f64()),
    };
    (val, dt)
}

// One helper per promoted domain: the single definition of every operator.
// `apply_bin` reaches them through the promotion ladder, `Interp::eval`
// directly when both operands already have the domain's dtype.
// Comparisons / logic produce Bool but cost at the operand type.

/// The I32 / Bool domain, evaluated in i64 and wrapped to i32. `Div` and
/// `Rem` by zero panic (Rust's integer division), on every path.
#[inline]
fn bin_i64(op: BinOp, x: i64, y: i64) -> Value {
    use BinOp::*;
    match op {
        Add => Value::I32((x + y) as i32),
        Sub => Value::I32((x - y) as i32),
        Mul => Value::I32((x * y) as i32),
        Div => Value::I32((x / y) as i32),
        Rem => Value::I32((x % y) as i32),
        Min => Value::I32(x.min(y) as i32),
        Max => Value::I32(x.max(y) as i32),
        Eq => Value::Bool(x == y),
        Ne => Value::Bool(x != y),
        Lt => Value::Bool(x < y),
        Le => Value::Bool(x <= y),
        Gt => Value::Bool(x > y),
        Ge => Value::Bool(x >= y),
        And => Value::Bool(x != 0 && y != 0),
        Or => Value::Bool(x != 0 || y != 0),
    }
}

#[inline]
fn bin_f32(op: BinOp, x: f32, y: f32) -> Value {
    use BinOp::*;
    match op {
        Add => Value::F32(x + y),
        Sub => Value::F32(x - y),
        Mul => Value::F32(x * y),
        Div => Value::F32(x / y),
        Rem => Value::F32(x % y),
        Min => Value::F32(x.min(y)),
        Max => Value::F32(x.max(y)),
        Eq => Value::Bool(x == y),
        Ne => Value::Bool(x != y),
        Lt => Value::Bool(x < y),
        Le => Value::Bool(x <= y),
        Gt => Value::Bool(x > y),
        Ge => Value::Bool(x >= y),
        And => Value::Bool(x != 0.0 && y != 0.0),
        Or => Value::Bool(x != 0.0 || y != 0.0),
    }
}

fn bin_dw(op: BinOp, x: TwoF32, y: TwoF32) -> Value {
    use BinOp::*;
    match op {
        Add => Value::Dw(x + y),
        Sub => Value::Dw(x - y),
        Mul => Value::Dw(x * y),
        Div => Value::Dw(x / y),
        Rem => Value::Dw(TwoFloat::from_f64(x.to_f64() % y.to_f64())),
        Min => Value::Dw(if x < y { x } else { y }),
        Max => Value::Dw(if x > y { x } else { y }),
        Eq => Value::Bool(x == y),
        Ne => Value::Bool(x != y),
        Lt => Value::Bool(x < y),
        Le => Value::Bool(x <= y || x == y),
        Gt => Value::Bool(x > y),
        Ge => Value::Bool(x >= y || x == y),
        And => Value::Bool(x.to_f64() != 0.0 && y.to_f64() != 0.0),
        Or => Value::Bool(x.to_f64() != 0.0 || y.to_f64() != 0.0),
    }
}

fn bin_f64(op: BinOp, x: f64, y: f64) -> Value {
    use BinOp::*;
    match op {
        Add => Value::F64(x + y),
        Sub => Value::F64(x - y),
        Mul => Value::F64(x * y),
        Div => Value::F64(x / y),
        Rem => Value::F64(x % y),
        Min => Value::F64(x.min(y)),
        Max => Value::F64(x.max(y)),
        Eq => Value::Bool(x == y),
        Ne => Value::Bool(x != y),
        Lt => Value::Bool(x < y),
        Le => Value::Bool(x <= y),
        Gt => Value::Bool(x > y),
        Ge => Value::Bool(x >= y),
        And => Value::Bool(x != 0.0 && y != 0.0),
        Or => Value::Bool(x != 0.0 || y != 0.0),
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
            ParamData::F32(s) => s[i] = v.as_f64() as f32,
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
                let cost_op = op.cost_op();
                let (v, dt, cycles) = match (a, b) {
                    // Same dtype on both sides (almost every node of SpMV,
                    // substitution, axpy and dot): nothing to promote or
                    // convert, and never the mixed double-word charge.
                    (Value::F32(x), Value::F32(y)) => {
                        (bin_f32(*op, x, y), DType::F32, self.cost.op_cycles(cost_op, DType::F32))
                    }
                    (Value::I32(x), Value::I32(y)) => (
                        bin_i64(*op, x as i64, y as i64),
                        DType::I32,
                        self.cost.op_cycles(cost_op, DType::I32),
                    ),
                    _ => {
                        let (da, db) = (a.dtype(), b.dtype());
                        let (v, dt) = apply_bin(*op, a, b);
                        // Mixed double-word ⊗ single-word ops use the cheaper
                        // Joldes DW⊗FP algorithms (cost only; the value is
                        // computed at full pair precision either way).
                        let mixed =
                            dt == DType::DoubleWord && (da == DType::F32 || db == DType::F32);
                        let cycles = if mixed {
                            self.cost.op_cycles_mixed_dw(cost_op)
                        } else {
                            self.cost.op_cycles(cost_op, dt)
                        };
                        (v, dt, cycles)
                    }
                };
                self.cycles += cycles;
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
                let parallel = self.cost.worker_spawn_cycles + serial.div_ceil(self.workers);
                self.cycles = before + parallel.min(serial.max(1));
            }
        }
    }

    /// Run a codelet body to completion; returns the cycles consumed.
    pub fn run(&mut self, body: &[Stmt]) -> u64 {
        self.exec_block(body);
        self.cycles
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

    /// Adversarial operands per dtype: signed zeros, infinities, NaN,
    /// subnormals and the extremes for F32; the wrap-around corners for
    /// I32; and Dw / F64 values that f32 cannot represent.
    ///
    /// The NaN is quiet. A *signalling* F32 NaN is the one input whose bits
    /// are not pinned here: `apply_bin` widens F32 operands to f64 and back
    /// (which quiets them) and the fast path does not, so `Min` / `Max` of
    /// two NaNs may keep the signalling payload in a local. No operator
    /// produces one (only a bit flip can), every arithmetic operator quiets
    /// it, and `ParamData::set` narrows through f64, so tensor storage never
    /// sees the difference.
    fn adversarial_operands() -> Vec<Value> {
        let f32s = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
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

    /// The interpreter's same-dtype fast paths are an optimisation, not a
    /// second semantics: for every operator and every ordered pair of
    /// operands (hence of dtypes), `Interp` yields the bits `apply_bin`
    /// yields and charges what the cost model says for the promoted dtype
    /// (the mixed double-word rate iff the result is double-word and one
    /// side is f32).
    ///
    /// Integer `Div` / `Rem` by zero (both sides I32 or Bool) **panics** —
    /// Rust's integer division, "attempt to divide by zero" — through
    /// `apply_bin` and through the interpreter alike.
    #[test]
    fn interp_binary_matches_apply_bin_and_the_cost_formulas() {
        let cost = cm();
        let operands = adversarial_operands();
        let mut checked = 0;
        let mut div_by_zero = 0;
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
                    let (got, cycles, flops) =
                        interp_binary(op, a, b).unwrap_or_else(|| panic!("{op:?} {a:?} {b:?}"));
                    assert_eq!(bits(got), bits(want), "{op:?} {a:?} {b:?}");
                    assert_eq!((cycles, flops), (want_cycles, want_flops), "{op:?} {a:?} {b:?}");
                    checked += 1;
                }
            }
        }
        // Every dtype pair was present, and the zero divisors were met.
        assert_eq!(checked + div_by_zero, ALL_BINOPS.len() * operands.len() * operands.len());
        assert!(div_by_zero > 0);
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
