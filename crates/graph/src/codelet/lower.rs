//! The typing pass, and the lowered form it builds.

use super::emit::{Emitter, Ins, MacLoop, Map, Param, Reg};
use super::ir::{promote, BinOp, Codelet, Expr, LocalId, ParamId, Stmt, UnOp, Value};
use super::kernels::Kernel;
use super::machine::Regs;
use ipu_sim::cost::{CostModel, DType, Op};

// ---------------------------------------------------------------------------
// The lowered form: a codelet typed and costed once, at graph compile.
//
// A codelet is dynamically typed only while it is being *built*. Bound to a
// vertex its operands have fixed storage dtypes, so every expression node's
// dtype — hence its promotion, its arithmetic domain and its `CostModel`
// charge — is known before the first run. `Lowered::lower` resolves all
// three into a typed tree, then flattens that into a linear program over one
// register file per domain, with control flow as jumps and one charge per
// basic block — except that a counted loop whose body is one (guarded)
// multiply-accumulate becomes one instruction that runs the loop to its end
// ([`MacLoop`]), a `ParFor` whose trip is an element-wise map runs a column
// at a time, as one instruction ([`Map`]), and a codelet that is one of the
// solvers' templates — the SpMV, its residual, the two triangular sweeps,
// the Gauss-Seidel row update — runs as one native loop ([`Kernel`]), with
// no program at all. What is left to run time is data: values, trip counts,
// the `ParFor` makespan and the level-set schedule. A body that cannot be
// typed is a compile error (`Graph::compile`), so the engine runs every
// vertex on its lowered form; `Interp` is the oracle it is tested against.
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
    pub(super) fn cy(cycles: u64) -> Charge {
        Charge { cycles, flops: 0, mem_bytes: 0 }
    }

    pub(super) fn plus(self, o: Charge) -> Charge {
        Charge {
            cycles: self.cycles + o.cycles,
            flops: self.flops + o.flops,
            mem_bytes: self.mem_bytes + o.mem_bytes,
        }
    }

    /// `n` of these, summed.
    pub(super) fn times(self, n: u64) -> Charge {
        Charge { cycles: self.cycles * n, flops: self.flops * n, mem_bytes: self.mem_bytes * n }
    }
}

/// A typed expression: `dtype` is what evaluating the node yields, on every
/// execution.
#[derive(Debug)]
pub(super) struct TExpr {
    pub(super) dtype: DType,
    pub(super) kind: TKind,
}

#[derive(Debug)]
pub(super) enum TKind {
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
pub(super) enum LStmt {
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
#[derive(Clone, Debug)]
pub struct Lowered {
    pub(super) code: Vec<Ins>,
    /// What each `Charge` instruction adds: one per basic block.
    pub(super) charges: Vec<Charge>,
    /// What each `MacLoop` instruction runs.
    pub(super) loops: Vec<MacLoop>,
    /// What each `Map` instruction runs.
    pub(super) maps: Vec<Map>,
    /// The whole vertex as one native loop, when the codelet is a kernel's
    /// template bound to the storage it declares: then there is no program.
    pub(super) kernel: Option<Kernel>,
    /// Registers per file (in [`file`] order): the locals, then the
    /// temporaries and loop counters at their deepest.
    pub(super) files: [Reg; 5],
    /// `ParFor` sites, one snapshot slot each.
    pub(super) sites: usize,
    /// Each local's dtype when the vertex ends, where every path agrees.
    /// All `None` under a kernel, which keeps no locals: nothing reads a
    /// vertex's locals after it.
    pub(super) exit: Vec<Option<DType>>,
    /// Whether this was lowered for a `LevelSet` vertex, whose locals carry
    /// over from one row to the next.
    pub(super) level_set: bool,
}

impl Lowered {
    /// Lower `codelet` for operands of the given storage dtypes, for a
    /// `LevelSet` vertex or a `Simple` one. `None` — never a panic — when
    /// the body cannot be typed (see `Lowerer::expr`), which
    /// `Graph::compile` reports as a `CompileError::Codelet`.
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
        if let Some(kernel) = Kernel::recognise(codelet, storage, level_set) {
            return Some(Lowered {
                code: Vec::new(),
                charges: Vec::new(),
                loops: Vec::new(),
                maps: Vec::new(),
                kernel: Some(kernel),
                files: [0; 5],
                sites: 0,
                exit: vec![None; codelet.num_locals],
                level_set,
            });
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
            maps: em.maps,
            kernel: None,
            files: em.size,
            sites: em.sites,
            exit: locals,
            level_set,
        })
    }

    /// Local `l` as the last [`Lowered::run_vertex`] in `regs` left it —
    /// what [`Interp`] leaves in `locals[l]` — when its dtype at the end is
    /// known statically. `None` where paths disagree: nothing after that
    /// point could have read it and been typed, so it is dead.
    pub fn local(&self, regs: &Regs, l: LocalId) -> Option<Value> {
        Some(regs.files.get((*self.exit.get(l)?)?, l as Reg))
    }

    /// How many counted loops run as one accumulate instruction
    /// ([`MacLoop`]) rather than a trip at a time, a kernel's included.
    pub fn loops(&self) -> usize {
        self.loops.len() + self.kernel.is_some() as usize
    }

    /// The kernel instruction that runs the vertex, if there is one.
    pub fn kernel(&self) -> Option<Kernel> {
        self.kernel
    }

    /// How many `ParFor`s run as one element-wise map instruction
    /// ([`Map`]), a column at a time rather than a trip at a time.
    pub fn maps(&self) -> usize {
        self.maps.len()
    }
}
