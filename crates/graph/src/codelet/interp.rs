//! The dynamic interpreter: walks the IR as built, discovering dtypes and
//! charges node by node.

use super::ir::{apply_bin, apply_un, Expr, ParamData, Stmt, UnOp, Value};
use crate::compute::VertexKind;
use ipu_sim::cost::{CostModel, DType, Op};
use ipu_sim::threading::level_set_cycles;

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

    pub(super) fn eval(&mut self, e: &Expr) -> Value {
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

/// The `ParFor` makespan rule: serial body cycles replaced by
/// `spawn + ceil(serial / workers)`, never worse than serial, floor one
/// cycle for the degenerate empty loop.
pub(crate) fn parfor_makespan(serial: u64, workers: u64, cost: &CostModel) -> u64 {
    let parallel = cost.worker_spawn_cycles + serial.div_ceil(workers);
    parallel.min(serial.max(1))
}
