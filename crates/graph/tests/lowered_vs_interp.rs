//! The lowered form against the dynamic interpreter, at codelet level.
//!
//! `Lowered::lower` types and costs a codelet once for a binding (operand
//! storage dtypes, vertex kind) and flattens it into a register program;
//! `Interp` discovers both per node per run. The contract: where lowering
//! returns `Some`, one vertex leaves the same storage bits, the same locals
//! and the same cycles / flops / SRAM bytes behind on both routes (or
//! panics on both); where the body cannot be typed it returns `None`,
//! without a panic, and `Graph::compile` returns `CompileError::Codelet`.
//!
//! The lowered form's locals are registers, read back through
//! `Lowered::local`, which knows a local's dtype at the end wherever every
//! path agrees on it. Where paths disagree the local is dead — no typed
//! read of it can follow — so there is nothing to compare.

use graph::codelet::{
    backward_subst_template, dot_template, forward_subst_template, gauss_seidel_template,
    spmv_template, sum_template, BinOp, Charge, Codelet, Expr, F32Ops, Interp, Kernel, Lowered,
    Native, ParamData, ParamDecl, Regs, Stmt, UnOp, Value,
};
use graph::compute::{ComputeSet, TensorSlice, Vertex, VertexKind};
use graph::program::Prog;
use graph::tensor::TensorDef;
use graph::{CompileError, Executable, Graph};
use ipu_sim::cost::{CostModel, DType, Op};
use ipu_sim::model::IpuModel;
use proptest::TestRng;
use twofloat::{SoftDouble, TwoF32, TwoFloat};

const WORKERS: u64 = 6;
const DTYPES: [DType; 5] =
    [DType::F32, DType::I32, DType::Bool, DType::DoubleWord, DType::F64Emulated];

/// Owned storage of one operand.
#[derive(Clone, Debug)]
enum Buf {
    F32(Vec<f32>),
    I32(Vec<i32>),
    Bool(Vec<bool>),
    Dw(Vec<TwoF32>),
    F64(Vec<SoftDouble>),
}

impl Buf {
    fn param(&mut self, mutable: bool) -> ParamData<'_> {
        match (self, mutable) {
            (Buf::F32(v), true) => ParamData::F32(v),
            (Buf::F32(v), false) => ParamData::F32Ro(v),
            (Buf::I32(v), true) => ParamData::I32(v),
            (Buf::I32(v), false) => ParamData::I32Ro(v),
            (Buf::Bool(v), true) => ParamData::Bool(v),
            (Buf::Bool(v), false) => ParamData::BoolRo(v),
            (Buf::Dw(v), true) => ParamData::Dw(v),
            (Buf::Dw(v), false) => ParamData::DwRo(v),
            (Buf::F64(v), true) => ParamData::F64(v),
            (Buf::F64(v), false) => ParamData::F64Ro(v),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            Buf::F32(_) => DType::F32,
            Buf::I32(_) => DType::I32,
            Buf::Bool(_) => DType::Bool,
            Buf::Dw(_) => DType::DoubleWord,
            Buf::F64(_) => DType::F64Emulated,
        }
    }

    /// Exact bit patterns, so NaNs and signed zeros compare as what they are.
    fn bits(&self) -> Vec<u64> {
        match self {
            Buf::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
            Buf::I32(v) => v.iter().map(|&x| x as u32 as u64).collect(),
            Buf::Bool(v) => v.iter().map(|&x| x as u64).collect(),
            Buf::Dw(v) => v.iter().map(|x| value_bits(Value::Dw(*x)).1).collect(),
            Buf::F64(v) => v.iter().map(|x| x.0.to_bits()).collect(),
        }
    }
}

fn value_bits(v: Value) -> (DType, u64) {
    let b = match v {
        Value::F32(x) => x.to_bits() as u64,
        Value::I32(x) => x as u32 as u64,
        Value::Bool(x) => x as u64,
        Value::Dw(x) => (x.hi().to_bits() as u64) << 32 | x.lo().to_bits() as u64,
        Value::F64(x) => x.to_bits(),
    };
    (v.dtype(), b)
}

/// What one vertex leaves behind. A local is `None` where the lowered form
/// has no static dtype for it at the end.
#[derive(Debug, PartialEq)]
struct Outcome {
    run: Charge,
    storage: Vec<Vec<u64>>,
    locals: Vec<Option<(DType, u64)>>,
}

fn params<'a>(codelet: &Codelet, bufs: &'a mut [Buf]) -> Vec<ParamData<'a>> {
    bufs.iter_mut().zip(&codelet.params).map(|(b, decl)| b.param(decl.mutable)).collect()
}

/// `None` when the run panicked (an integer division by zero, say).
fn outcome(
    bufs: &[Buf],
    run: impl FnOnce(&mut [Buf]) -> (Charge, Vec<Option<Value>>) + std::panic::UnwindSafe,
) -> Option<Outcome> {
    let mut bufs = bufs.to_vec();
    std::panic::catch_unwind(move || {
        let (run, locals) = run(&mut bufs);
        Outcome {
            run,
            storage: bufs.iter().map(Buf::bits).collect(),
            locals: locals.into_iter().map(|v| v.map(value_bits)).collect(),
        }
    })
    .ok()
}

fn interp_outcome(c: &Codelet, kind: &VertexKind, bufs: &[Buf]) -> Option<Outcome> {
    let cost = CostModel::default();
    outcome(bufs, |bufs| {
        let mut p = params(c, bufs);
        let mut interp = Interp::new(&cost, &mut p, c.num_locals, WORKERS);
        let cycles = interp.run_vertex(kind, &c.body);
        let locals = interp.locals.iter().copied().map(Some).collect();
        (Charge { cycles, flops: interp.flops, mem_bytes: interp.mem_bytes }, locals)
    })
}

fn lower(c: &Codelet, kind: &VertexKind, bufs: &[Buf]) -> Option<Lowered> {
    let storage: Vec<DType> = bufs.iter().map(Buf::dtype).collect();
    let level_set = matches!(kind, VertexKind::LevelSet { .. });
    Lowered::lower(c, &storage, level_set, &CostModel::default())
}

/// The lowered route's outcome, a kernel's f32 operations through `O`.
fn lowered_outcome<O: F32Ops>(
    c: &Codelet,
    l: &Lowered,
    kind: &VertexKind,
    bufs: &[Buf],
) -> Option<Outcome> {
    let cost = CostModel::default();
    outcome(bufs, |bufs| {
        // Scratch comes in dirty, from a run of the same vertex on other
        // storage: the lowered form must reset it itself.
        let mut regs = Regs::default();
        let mut other = bufs.to_vec();
        let _ = l.run_vertex_with::<O>(kind, &mut params(c, &mut other), &mut regs, &cost, WORKERS);
        let mut p = params(c, bufs);
        let run = l.run_vertex_with::<O>(kind, &mut p, &mut regs, &cost, WORKERS);
        (run, (0..c.num_locals).map(|local| l.local(&regs, local)).collect())
    })
}

/// Lower, run both routes, compare. `None` if the codelet did not lower,
/// else whether the run completed (on both routes) rather than panicked (on
/// both); a kernel that panicked must have left `Interp`'s storage
/// ([`panics_alike`]).
fn check(c: &Codelet, kind: &VertexKind, bufs: &[Buf], who: &str) -> Option<bool> {
    check_with::<Native>(c, kind, bufs, who)
}

/// [`check`], a kernel's f32 operations through `O`.
fn check_with<O: F32Ops>(c: &Codelet, kind: &VertexKind, bufs: &[Buf], who: &str) -> Option<bool> {
    c.validate().unwrap_or_else(|e| panic!("{who}: generated codelet is invalid: {e}"));
    let lowered = lower(c, kind, bufs)?;
    let mut want = interp_outcome(c, kind, bufs);
    let got = lowered_outcome::<O>(c, &lowered, kind, bufs);
    if let (Some(want), Some(got)) = (&mut want, &got) {
        // A local with no static dtype at the end is dead by construction.
        for (w, g) in want.locals.iter_mut().zip(&got.locals) {
            if g.is_none() {
                *w = None;
            }
        }
    }
    assert_eq!(want, got, "{who}: lowered diverged from Interp\n{c:#?}\n{kind:?}\n{bufs:?}");
    if want.is_none() && lowered.kernel().is_some() {
        // A kernel stores a row (or a partial) at a time, as `Interp` does,
        // so where both panic they left the same storage behind.
        panics_alike(c, kind, bufs, who);
    }
    Some(want.is_some())
}

// ---- the generator ---------------------------------------------------------

struct Gen<'r> {
    rng: &'r mut TestRng,
    /// Common length of every operand, so a loop bounded by any `ParamLen`
    /// indexes every parameter in range.
    n: usize,
    storage: Vec<DType>,
    mutable: Vec<bool>,
    num_locals: usize,
    /// Loop variables and `While` counters in scope: never assigned by a
    /// generated `SetLocal`, so loops terminate and indices stay in range.
    reserved: Vec<usize>,
    /// Locals that hold an in-range index here.
    index_locals: Vec<usize>,
}

impl Gen<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.rng.below(xs.len())]
    }

    fn constant(&mut self) -> Value {
        let x = (self.below(17) as f64 - 8.0) * 0.75;
        match self.pick(&DTYPES) {
            DType::F32 => Value::F32(x as f32),
            DType::I32 => Value::I32(self.below(7) as i32 - 2),
            DType::Bool => Value::Bool(self.below(2) == 1),
            DType::DoubleWord => Value::Dw(TwoFloat::from_f64(x + 1e-9)),
            DType::F64Emulated => Value::F64(x + 1e-12),
        }
    }

    /// An in-range index, if this scope has one: a loop variable, a constant
    /// below `n`, or an element of an immutable I32 operand (generated in
    /// `0..n`).
    fn index(&mut self, depth: usize) -> Option<Expr> {
        let mut sources = self.index_locals.len() + (self.n > 0) as usize;
        if sources == 0 {
            return None;
        }
        let cols: Vec<usize> = (0..self.storage.len())
            .filter(|&p| self.storage[p] == DType::I32 && !self.mutable[p])
            .collect();
        if depth > 0 && !cols.is_empty() {
            sources += 1;
        }
        let k = self.below(sources);
        Some(if k < self.index_locals.len() {
            Expr::Local(self.index_locals[k])
        } else if k == self.index_locals.len() && self.n > 0 {
            Expr::c(Value::I32(self.below(self.n) as i32))
        } else {
            Expr::index(self.pick(&cols), self.index(depth - 1)?)
        })
    }

    fn load(&mut self, depth: usize) -> Option<Expr> {
        let p = self.below(self.storage.len());
        Some(Expr::index(p, self.index(depth)?))
    }

    fn expr(&mut self, depth: usize) -> Expr {
        if depth == 0 || self.below(3) == 0 {
            return match self.below(5) {
                0 => Expr::c(self.constant()),
                1 => Expr::Local(self.below(self.num_locals)),
                2 => Expr::ParamLen(self.below(self.storage.len())),
                _ => self.load(1).unwrap_or_else(|| Expr::c(self.constant())),
            };
        }
        // Mostly steer away from what cannot be typed; the rest exercises
        // the `None` path.
        let steer = self.below(5) > 0;
        let float = self.pick(&[DType::F32, DType::DoubleWord, DType::F64Emulated]);
        match self.below(6) {
            0 => {
                let op = self.pick(&[UnOp::Neg, UnOp::Abs, UnOp::Sqrt, UnOp::Not]);
                let arg = self.expr(depth - 1);
                let arg = if op == UnOp::Sqrt && steer {
                    Expr::Convert { to: float, arg: Box::new(arg) }
                } else {
                    arg
                };
                Expr::un(op, arg)
            }
            1 | 2 => {
                use BinOp::*;
                let op = self
                    .pick(&[Add, Sub, Mul, Div, Min, Max, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Rem]);
                Expr::bin(op, self.expr(depth - 1), self.expr(depth - 1))
            }
            3 => Expr::Convert { to: self.pick(&DTYPES), arg: Box::new(self.expr(depth - 1)) },
            4 => {
                let to = self.pick(&DTYPES);
                let arm = |g: &mut Self| {
                    let e = g.expr(depth - 1);
                    Box::new(if steer { Expr::Convert { to, arg: Box::new(e) } } else { e })
                };
                let (then, otherwise) = (arm(self), arm(self));
                Expr::Select { cond: Box::new(self.expr(depth - 1)), then, otherwise }
            }
            _ => self.load(2).unwrap_or_else(|| self.expr(depth - 1)),
        }
    }

    /// A local no loop in scope depends on.
    fn free_local(&mut self) -> Option<usize> {
        let free: Vec<usize> =
            (0..self.num_locals).filter(|l| !self.reserved.contains(l)).collect();
        (!free.is_empty()).then(|| self.pick(&free))
    }

    fn block(&mut self, depth: usize) -> Vec<Stmt> {
        let len = 1 + self.below(3);
        (0..len).flat_map(|_| self.stmt(depth)).collect()
    }

    /// A loop body with `local` reserved, and an index if `indexes`.
    fn body(&mut self, local: usize, indexes: bool, depth: usize) -> Vec<Stmt> {
        self.reserved.push(local);
        if indexes {
            self.index_locals.push(local);
        }
        let body = self.block(depth - 1);
        if indexes {
            self.index_locals.pop();
        }
        self.reserved.pop();
        body
    }

    fn stmt(&mut self, depth: usize) -> Vec<Stmt> {
        let set_local = |g: &mut Self| match g.free_local() {
            Some(l) => vec![Stmt::SetLocal(l, g.expr(2))],
            None => vec![],
        };
        let kinds = if depth == 0 { 3 } else { 16 };
        match self.below(kinds) {
            7 | 8 => self.accumulate().unwrap_or_else(|| set_local(self)),
            12..=15 => {
                // A `ParFor` whose trip is an element-wise map (or a near miss).
                let Some(local) = self.free_local() else { return set_local(self) };
                self.reserved.push(local);
                let map = self.map(local);
                self.reserved.pop();
                map.unwrap_or_else(|| set_local(self))
            }
            9..=11 => {
                // A `ParFor` whose trip is a row (or a near miss).
                let Some(local) = self.free_local() else { return set_local(self) };
                self.reserved.push(local);
                self.index_locals.push(local);
                let body = self.row(local);
                self.index_locals.pop();
                self.reserved.pop();
                let Some(body) = body else { return set_local(self) };
                vec![Stmt::ParFor { local, start: i(0), end: Expr::ParamLen(0), body }]
            }
            0 | 1 => set_local(self),
            2 => {
                let targets: Vec<usize> =
                    (0..self.storage.len()).filter(|&p| self.mutable[p]).collect();
                match self.index(1) {
                    Some(index) => {
                        vec![Stmt::Store { param: self.pick(&targets), index, value: self.expr(2) }]
                    }
                    None => set_local(self),
                }
            }
            3 => vec![Stmt::If {
                cond: self.expr(2),
                then: self.block(depth - 1),
                otherwise: if self.below(2) == 0 { vec![] } else { self.block(depth - 1) },
            }],
            4 | 5 => {
                let Some(local) = self.free_local() else { return set_local(self) };
                let end = if self.below(2) == 0 {
                    Expr::ParamLen(self.below(self.storage.len()))
                } else {
                    Expr::c(Value::I32(self.below(self.n + 1) as i32))
                };
                let start = Expr::c(Value::I32(self.below(2) as i32));
                let parallel = self.below(2) == 0;
                let body = self.body(local, true, depth);
                vec![if parallel {
                    Stmt::ParFor { local, start, end, body }
                } else {
                    let step = Expr::c(Value::I32(self.below(3) as i32));
                    Stmt::For { local, start, end, step, body }
                }]
            }
            _ => {
                // `w = 0; while w < k { …; w = w + 1 }`, `w` untouched by `…`.
                let Some(w) = self.free_local() else { return set_local(self) };
                let k = self.below(3) as i32;
                let mut body = self.body(w, false, depth);
                body.push(Stmt::SetLocal(
                    w,
                    Expr::bin(BinOp::Add, Expr::Local(w), Expr::c(Value::I32(1))),
                ));
                vec![
                    Stmt::SetLocal(w, Expr::c(Value::I32(0))),
                    Stmt::While {
                        cond: Expr::bin(BinOp::Lt, Expr::Local(w), Expr::c(Value::I32(k))),
                        body,
                    },
                ]
            }
        }
    }

    /// `acc = p[c]` and a counted loop over `k` of `acc = acc ⊕ (x ⊗ y)`,
    /// half the time guarded as `j = cols[k]; if test { … }` — the shape
    /// that runs as one instruction, operands mostly of the accumulator's
    /// storage dtype, sometimes a near miss: another dtype (a cast), or
    /// `(x ⊗ y) ⊕ acc`.
    fn accumulate(&mut self) -> Option<Vec<Stmt>> {
        use BinOp::*;
        let floats: Vec<usize> =
            (0..self.storage.len()).filter(|&p| self.storage[p].is_float()).collect();
        let cols: Vec<usize> = (0..self.storage.len())
            .filter(|&p| self.storage[p] == DType::I32 && !self.mutable[p])
            .collect();
        let mut free: Vec<usize> =
            (0..self.num_locals).filter(|l| !self.reserved.contains(l)).collect();
        if floats.is_empty() || self.n == 0 || free.len() < 3 {
            return None;
        }
        let mut take = |g: &mut Self| free.swap_remove(g.below(free.len()));
        let (acc, k, j) = (take(self), take(self), take(self));
        let p = self.pick(&floats);
        let init =
            Stmt::SetLocal(acc, Expr::index(p, Expr::c(Value::I32(self.below(self.n) as i32))));
        let same: Vec<usize> =
            floats.iter().copied().filter(|&q| self.storage[q] == self.storage[p]).collect();
        let guarded = !cols.is_empty() && self.below(2) == 0;
        let operand = |g: &mut Self| {
            let q = if g.below(6) == 0 { g.pick(&floats) } else { g.pick(&same) };
            let at = if guarded && g.below(2) == 0 { j } else { k };
            match g.below(4) {
                0 => Expr::Local(acc),
                1 if !cols.is_empty() => {
                    Expr::index(q, Expr::index(g.pick(&cols), Expr::Local(at)))
                }
                _ => Expr::index(q, Expr::Local(at)),
            }
        };
        let ops = [Add, Sub, Mul, Div, Min, Max];
        let product = Expr::bin(self.pick(&ops), operand(self), operand(self));
        let add = self.pick(&ops);
        let update = if self.below(8) == 0 {
            Expr::bin(add, product, Expr::Local(acc))
        } else {
            Expr::bin(add, Expr::Local(acc), product)
        };
        let mut body = vec![Stmt::SetLocal(acc, update)];
        if guarded {
            let mut i32s = vec![j, k];
            i32s.extend(&self.index_locals);
            let cmp = |g: &mut Self| {
                let op = g.pick(&[Eq, Ne, Lt, Le, Gt, Ge]);
                Expr::bin(op, Expr::Local(g.pick(&i32s)), Expr::Local(g.pick(&i32s)))
            };
            let cond = match self.below(3) {
                0 => cmp(self),
                _ => Expr::bin(self.pick(&[And, Or]), cmp(self), cmp(self)),
            };
            body = vec![
                Stmt::SetLocal(j, Expr::index(self.pick(&cols), Expr::Local(k))),
                Stmt::If { cond, then: body, otherwise: vec![] },
            ];
        }
        let start = Expr::c(Value::I32(self.below(2) as i32));
        let end = Expr::ParamLen(self.below(self.storage.len()));
        let lp = if self.below(2) == 0 {
            Stmt::ParFor { local: k, start, end, body }
        } else {
            let step = Expr::c(Value::I32(self.below(3) as i32));
            Stmt::For { local: k, start, end, step, body }
        };
        Some(vec![init, lp])
    }

    /// A row over `row`: a prologue of `SetLocal`s (one of them, at times,
    /// reading a local before writing it, which a level set carries from
    /// row to row), an accumulate loop counted from a load indexed by the
    /// row, and an epilogue of `Store`s and `SetLocal`s — and its near
    /// misses: a branch in the prologue, a second loop, a loop last, a
    /// store not indexed by the row, an epilogue reading `j` or the loop
    /// local.
    fn row(&mut self, row: usize) -> Option<Vec<Stmt>> {
        use BinOp::*;
        let mut acc = self.accumulate()?;
        let (
            Stmt::SetLocal(a, _),
            Stmt::ParFor { local: k, end, body, .. } | Stmt::For { local: k, end, body, .. },
        ) = (&acc[0], acc[1].clone())
        else {
            unreachable!("accumulate builds an init and a loop")
        };
        let a = *a;
        let j = match &body[0] {
            Stmt::SetLocal(j, _) if body.len() == 2 => Some(*j),
            _ => None,
        };
        let cols: Vec<usize> = (0..self.storage.len())
            .filter(|&p| self.storage[p] == DType::I32 && !self.mutable[p])
            .collect();
        let start = match cols.is_empty() {
            false if self.below(3) > 0 => Expr::index(self.pick(&cols), Expr::Local(row)),
            _ => i(self.below(2) as i32),
        };
        acc[1] = Stmt::For { local: k, start, end, step: i(1 + self.below(4) as i32 / 3), body };
        // Mostly what a row's prologue reads: an index load at the row, a
        // value of the accumulator's storage; at times any expression.
        let Stmt::SetLocal(_, Expr::Index { param: p, .. }) = &acc[0] else {
            unreachable!("the accumulator starts as a load")
        };
        let same: Vec<usize> =
            (0..self.storage.len()).filter(|&q| self.storage[q] == self.storage[*p]).collect();
        let mut prologue: Vec<Stmt> = vec![];
        for _ in 0..self.below(3) {
            let value = match self.below(3) {
                0 => self.expr(1),
                1 if !cols.is_empty() => Expr::index(self.pick(&cols), Expr::Local(row)),
                _ => Expr::index(self.pick(&same), Expr::Local(row)),
            };
            if let Some(l) = self.free_local().filter(|&l| l != a) {
                prologue.push(Stmt::SetLocal(l, value));
            }
        }
        if self.below(4) == 0 {
            if let Some(c) = self.free_local() {
                prologue.push(Stmt::SetLocal(c, Expr::bin(Add, Expr::Local(c), i(1))));
            }
        }
        if self.below(10) == 0 {
            prologue.push(Stmt::If { cond: self.expr(1), then: self.block(0), otherwise: vec![] });
        }
        let mut out = prologue;
        out.extend(acc);
        if self.below(10) == 0 {
            out.extend(self.accumulate().unwrap_or_default());
        }
        if self.below(10) == 0 {
            return Some(out);
        }
        let targets: Vec<usize> = (0..self.storage.len()).filter(|&p| self.mutable[p]).collect();
        for _ in 0..1 + self.below(2) {
            let read = match self.below(6) {
                0 => Expr::Local(k),
                1 => Expr::Local(j.unwrap_or(k)),
                _ => Expr::Local(a),
            };
            let value = match self.below(3) {
                0 => {
                    Expr::bin(self.pick(&[Add, Sub, Mul, Div]), read, self.load(1).unwrap_or(i(1)))
                }
                _ => read,
            };
            let index = match self.below(5) {
                0 => self.index(1).unwrap_or(Expr::Local(row)),
                _ => Expr::Local(row),
            };
            out.push(match self.free_local() {
                Some(l) if self.below(4) == 0 => Stmt::SetLocal(l, value),
                _ => Stmt::Store { param: self.pick(&targets), index, value },
            });
        }
        Some(out)
    }

    /// A constant of float dtype `dt`.
    fn float(&mut self, dt: DType) -> Value {
        let x = (self.below(17) as f64 - 8.0) * 0.75;
        match dt {
            DType::F32 => Value::F32(x as f32),
            DType::DoubleWord => Value::Dw(TwoFloat::from_f64(x + 1e-9)),
            _ => Value::F64(x + 1e-12),
        }
    }

    /// A `ParFor` over `local` whose trip is one to three stores at
    /// `p[local]`, each of a tree of constants, loads at `local`, loads at
    /// a constant of a parameter the trip does not store, and arithmetic,
    /// all in the stored parameters' float storage: an element-wise map.
    /// One time in three a near miss: a store at `local + 1`, a read of a
    /// stored parameter at a constant or at `local + 1`, a local carried
    /// from trip to trip, a cast, a gather; at times a loop of no trips.
    fn map(&mut self, local: usize) -> Option<Vec<Stmt>> {
        let floats: Vec<usize> =
            (0..self.storage.len()).filter(|&p| self.storage[p].is_float()).collect();
        let targets: Vec<usize> = floats.iter().copied().filter(|&p| self.mutable[p]).collect();
        if targets.is_empty() {
            return None;
        }
        let target = self.pick(&targets);
        let dt = self.storage[target];
        let same: Vec<usize> = floats.iter().copied().filter(|&p| self.storage[p] == dt).collect();
        let stores: Vec<usize> =
            targets.iter().copied().filter(|&p| self.storage[p] == dt).collect();
        let dsts: Vec<usize> = (0..1 + self.below(3)).map(|_| self.pick(&stores)).collect();
        let scalars = same.iter().copied().filter(|p| !dsts.contains(p)).collect();
        let cols = (0..self.storage.len())
            .filter(|&p| self.storage[p] == DType::I32 && !self.mutable[p])
            .collect();
        let trip = Trip { dt, local, near: self.below(3) == 0, same, dsts, scalars, cols };
        let mut body: Vec<Stmt> = trip
            .dsts
            .iter()
            .map(|&param| {
                let index = match trip.near && self.below(4) == 0 {
                    true => next(local),
                    false => Expr::Local(local),
                };
                Stmt::Store { param, index, value: trip.tree(self, 3) }
            })
            .collect();
        if trip.near && self.below(4) == 0 {
            if let Some(l) = self.free_local() {
                body.insert(self.below(body.len() + 1), Stmt::SetLocal(l, next(l)));
            }
        }
        let end = Expr::ParamLen(trip.dsts[0]);
        let start = match self.below(8) {
            0 => Expr::ParamLen(trip.dsts[0]),
            1 => i(1),
            _ => i(0),
        };
        Some(vec![Stmt::ParFor { local, start, end, body }])
    }

    fn buf(&mut self, dtype: DType, mutable: bool) -> Buf {
        let n = self.n;
        let x = |g: &mut Self| (g.below(33) as f64 - 16.0) * 0.375;
        match dtype {
            DType::F32 => Buf::F32((0..n).map(|_| x(self) as f32).collect()),
            // Immutable I32 operands are index sources: keep them in range.
            DType::I32 if !mutable => Buf::I32((0..n).map(|_| self.below(n) as i32).collect()),
            DType::I32 => Buf::I32((0..n).map(|_| self.below(9) as i32 - 4).collect()),
            DType::Bool => Buf::Bool((0..n).map(|_| self.below(2) == 1).collect()),
            DType::DoubleWord => {
                Buf::Dw((0..n).map(|_| TwoFloat::from_f64(x(self) + 1e-9)).collect())
            }
            DType::F64Emulated => Buf::F64((0..n).map(|_| SoftDouble(x(self) + 1e-12)).collect()),
        }
    }
}

/// What [`Gen::map`] builds a trip's values from: the float storage `dt`,
/// the loop local, whether to build near misses, the parameters of `dt`,
/// those the trip stores, the rest, and the index operands.
struct Trip {
    dt: DType,
    local: usize,
    near: bool,
    same: Vec<usize>,
    dsts: Vec<usize>,
    scalars: Vec<usize>,
    cols: Vec<usize>,
}

impl Trip {
    fn tree(&self, g: &mut Gen, depth: usize) -> Expr {
        use BinOp::*;
        if depth == 0 || g.below(3) == 0 {
            return self.leaf(g);
        }
        let op = g.pick(&[Add, Sub, Mul, Div, Min, Max]);
        Expr::bin(op, self.tree(g, depth - 1), self.tree(g, depth - 1))
    }

    fn leaf(&self, g: &mut Gen) -> Expr {
        let c = |g: &mut Gen| i(g.below(g.n.max(1)) as i32);
        match g.below(if self.near { 9 } else { 5 }) {
            0 => Expr::c(g.float(self.dt)),
            1 if !self.scalars.is_empty() => Expr::index(g.pick(&self.scalars), c(g)),
            5 => Expr::index(g.pick(&self.dsts), c(g)),
            6 => Expr::index(g.pick(&self.same), next(self.local)),
            7 => Expr::Convert { to: self.dt, arg: Box::new(g.load(1).unwrap_or(i(1))) },
            8 if !self.cols.is_empty() => Expr::index(
                g.pick(&self.same),
                Expr::index(g.pick(&self.cols), Expr::Local(self.local)),
            ),
            8 => Expr::Local(g.free_local().unwrap_or(self.local)),
            _ => Expr::index(g.pick(&self.same), Expr::Local(self.local)),
        }
    }
}

/// `l + 1`.
fn next(l: usize) -> Expr {
    Expr::bin(BinOp::Add, Expr::Local(l), i(1))
}

/// One random vertex: a codelet over every `Expr` / `Stmt` form, a storage
/// dtype per operand drawn independently of the F32 / I32 it declares, and
/// a vertex kind; one time in twelve each the backward- and the
/// forward-substitution template itself ([`sweep_case`]), the SpMV or its
/// residual ([`spmv_case`]), the Gauss-Seidel row update or a near miss of
/// it ([`gs_case`]) and a reduction stage or a near miss of it
/// ([`reduction_case`]).
fn random_case(rng: &mut TestRng) -> (Codelet, VertexKind, Vec<Buf>) {
    match rng.below(12) {
        0 => return sweep_case(rng, false),
        1 => return sweep_case(rng, true),
        2 => return spmv_case(rng),
        3 => return gs_case(rng),
        4 => return reduction_case(rng),
        _ => {}
    }
    // Now and then more elements than a map's chunk holds.
    let n = if rng.below(6) == 0 { 60 + rng.below(90) } else { rng.below(6) };
    let num_params = 1 + rng.below(4);
    let storage: Vec<DType> = (0..num_params).map(|_| DTYPES[rng.below(5)]).collect();
    let mutable: Vec<bool> = (0..num_params).map(|p| p == 0 || rng.below(3) == 0).collect();
    let level_set = rng.below(3) == 0;
    let mut g = Gen {
        rng,
        n,
        storage,
        mutable,
        num_locals: 2 + level_set as usize + 3,
        reserved: vec![],
        index_locals: vec![],
    };
    if level_set {
        // Local 0 is the row, set by the vertex for every row.
        g.reserved.push(0);
        g.index_locals.push(0);
    }
    // A level-set body is, half of the time, a row over local 0.
    let body = match level_set && g.below(2) == 0 {
        true => g.row(0).unwrap_or_else(|| g.block(2)),
        false => g.block(2),
    };
    let params = (0..num_params)
        .map(|p| ParamDecl {
            dtype: if g.storage[p] == DType::I32 { DType::I32 } else { DType::F32 },
            mutable: g.mutable[p],
        })
        .collect();
    let bufs = (0..num_params).map(|p| g.buf(g.storage[p], g.mutable[p])).collect();
    let kind = if level_set {
        // Rows in `0..n`, in up to three levels, some of them empty.
        let levels = (0..g.below(4))
            .map(|_| if n == 0 { vec![] } else { (0..g.below(4)).map(|_| g.below(n)).collect() })
            .collect();
        VertexKind::LevelSet { levels }
    } else {
        VertexKind::Simple
    };
    let codelet = Codelet { name: "random".into(), params, num_locals: g.num_locals, body };
    (codelet, kind, bufs)
}

/// `n` rows of a random CSR structure for the kernel templates: row
/// pointers and columns up to `cols`. At times the pointers are shorter
/// than `n + 1` (the kernel panics on the row where `Interp` does) or one
/// steps back (a row of no trips).
fn random_csr(rng: &mut TestRng, n: usize, cols: usize) -> (Vec<i32>, Vec<i32>) {
    let mut rptr = vec![0i32];
    for _ in 0..n {
        let next = rptr.last().unwrap() + rng.below(5) as i32;
        rptr.push(next);
    }
    let nnz = rptr[n] as usize;
    let cols = (0..nnz).map(|_| rng.below(cols) as i32).collect();
    match rng.below(10) {
        0 => rptr.truncate(rng.below(n + 1)),
        1 if n > 1 => rptr[1 + rng.below(n - 1)] -= 3,
        _ => {}
    }
    (rptr, cols)
}

/// A kernel operand's value: now and then a signalling or a quiet NaN of
/// some payload, or a zero.
fn kernel_value(rng: &mut TestRng) -> f32 {
    match rng.below(24) {
        0 => f32::from_bits(0x7f80_0001 + rng.below(4) as u32),
        1 => f32::from_bits(0xffc0_0000 | rng.below(1 << 10) as u32),
        2 => 0.0,
        _ => (rng.below(33) as f32 - 16.0) * 0.375,
    }
}

/// `n` rows, now and then more than a tile holds.
fn kernel_rows(rng: &mut TestRng) -> usize {
    if rng.below(6) == 0 {
        20 + rng.below(60)
    } else {
        rng.below(8)
    }
}

/// Up to five levels of up to ten of `n` rows, wider than the six workers
/// at times, an id past the last row now and then.
fn random_levels(rng: &mut TestRng, n: usize) -> VertexKind {
    let levels = (0..rng.below(6))
        .map(|_| {
            (0..rng.below(11))
                .map(|_| {
                    let past = rng.below(16) == 0;
                    rng.below((n + past as usize).max(1))
                })
                .collect()
        })
        .collect();
    VertexKind::LevelSet { levels }
}

/// The backward- or the forward-substitution template exactly, for either
/// `divide`, over the F32 / I32 storage it declares: [`kernel_rows`] rows
/// of a [`random_csr`] structure with columns below, on and above the
/// diagonal and up to `n + 1` (the backward guard skips `j >= n`, the
/// forward one `j >= i`), empty rows among them; [`kernel_value`]s; up to
/// five levels of up to ten rows, wider than the six workers at times, an id
/// past the last row now and then.
fn sweep_case(rng: &mut TestRng, forward: bool) -> (Codelet, VertexKind, Vec<Buf>) {
    let n = kernel_rows(rng);
    let (rptr, cols) = random_csr(rng, n, n + 2);
    let nnz = cols.len();
    let mut value = || kernel_value(rng);
    let x = Buf::F32((0..n).map(|_| value()).collect());
    let b = forward.then(|| Buf::F32((0..n).map(|_| value()).collect()));
    let lvals = Buf::F32((0..nnz).map(|_| value()).collect());
    let ldiag = Buf::F32((0..n).map(|_| value()).collect());
    let template = if forward { forward_subst_template } else { backward_subst_template };
    let (params, num_locals, body) = template(rng.below(2) == 0);
    let bufs = [x].into_iter().chain(b).chain([lvals, ldiag, Buf::I32(cols), Buf::I32(rptr)]);
    (codelet(params, num_locals, body), random_levels(rng, n), bufs.collect())
}

/// The Gauss-Seidel template over the F32 / I32 storage it declares:
/// [`kernel_rows`] rows of `b` and `diag`, `x` longer by up to three halo
/// entries, a [`random_csr`] structure whose columns reach the halo and,
/// now and then, one past it (a gather that panics on both routes),
/// [`kernel_value`]s, [`random_levels`]. One time in three a near miss
/// that runs its lowered program: a guard around the update, a cast of
/// `x[c_k]`, double-word `x` and `b`, or a spare local.
fn gs_case(rng: &mut TestRng) -> (Codelet, VertexKind, Vec<Buf>) {
    use BinOp::*;
    let n = kernel_rows(rng);
    let len = n + rng.below(4);
    let reach = if rng.below(8) == 0 { len + 1 } else { len.max(1) };
    let (rptr, cols) = random_csr(rng, n, reach);
    let nnz = cols.len();
    let mut value = || kernel_value(rng);
    let x: Vec<f32> = (0..len).map(|_| value()).collect();
    let b: Vec<f32> = (0..n).map(|_| value()).collect();
    let diag = Buf::F32((0..n).map(|_| value()).collect());
    let vals = Buf::F32((0..nnz).map(|_| value()).collect());
    let near = rng.below(12);
    let mut c = template(gauss_seidel_template());
    c.num_locals += matches!(near, 0 | 3) as usize;
    let Stmt::For { body, .. } = &mut c.body[3] else { unreachable!("the row's loop") };
    match near {
        // `j = cols[k]; if j != i { … }`.
        0 => {
            let update = body.remove(0);
            body.push(Stmt::SetLocal(5, Expr::index(4, Expr::Local(4))));
            body.push(Stmt::If {
                cond: Expr::bin(Ne, Expr::Local(5), Expr::Local(0)),
                then: vec![update],
                otherwise: vec![],
            });
        }
        // `acc − v_k · F32(x[c_k])`.
        1 => {
            let gather = Expr::index(0, Expr::index(4, Expr::Local(4)));
            let cast = Expr::Convert { to: DType::F32, arg: Box::new(gather) };
            let product = Expr::bin(Mul, Expr::index(3, Expr::Local(4)), cast);
            body[0] = Stmt::SetLocal(1, Expr::bin(Sub, Expr::Local(1), product));
        }
        _ => {}
    }
    let vector = |v: Vec<f32>| match near {
        2 => Buf::Dw(v.into_iter().map(|v| TwoFloat::from_f64(v as f64 + 1e-9)).collect()),
        _ => Buf::F32(v),
    };
    let bufs = vec![vector(x), vector(b), diag, vals, Buf::I32(cols), Buf::I32(rptr)];
    (c, random_levels(rng, n), bufs)
}

/// The SpMV or its residual template exactly, over the F32 / I32 storage it
/// declares: [`kernel_rows`] rows of `y`, a [`random_csr`] structure whose
/// columns reach one past `x` now and then (a gather that panics on both
/// routes), [`kernel_value`]s; `diag` now and then a row short.
fn spmv_case(rng: &mut TestRng) -> (Codelet, VertexKind, Vec<Buf>) {
    let n = kernel_rows(rng);
    let reach = if rng.below(8) == 0 { n + 1 } else { n.max(1) };
    let (rptr, cols) = random_csr(rng, n, reach);
    let nnz = cols.len();
    let residual = rng.below(2) == 0;
    let diag_rows = if rng.below(16) == 0 { n.saturating_sub(1) } else { n };
    let mut value = || kernel_value(rng);
    let y = Buf::F32((0..n).map(|_| value()).collect());
    let x = Buf::F32((0..n).map(|_| value()).collect());
    let b = residual.then(|| Buf::F32((0..n).map(|_| value()).collect()));
    let diag = Buf::F32((0..diag_rows).map(|_| value()).collect());
    let vals = Buf::F32((0..nnz).map(|_| value()).collect());
    let (params, num_locals, body) = spmv_template(residual);
    let bufs = [y, x].into_iter().chain(b).chain([diag, vals, Buf::I32(cols), Buf::I32(rptr)]);
    (codelet(params, num_locals, body), VertexKind::Simple, bufs.collect())
}

/// A reduction stage's template over the F32 storage it declares: the dot
/// (`x · y`, or `x · x`) of up to 149 [`kernel_value`]s, or the sum of as
/// many partials. Now and then `y` is short or the partial empty (a panic
/// on both routes), or the partial longer than one. One time in three a
/// near miss that runs its lowered program: a sum of the operands rather
/// than their product, a cast, a scalar leaf, a gather (one past `y` now
/// and then), a double-word partial, a spare local or a level-set vertex.
fn reduction_case(rng: &mut TestRng) -> (Codelet, VertexKind, Vec<Buf>) {
    use BinOp::*;
    let n = if rng.below(4) == 0 { 60 + rng.below(90) } else { rng.below(24) };
    let kernel = match rng.below(3) {
        0 => Kernel::Dot { square: false },
        1 => Kernel::Dot { square: true },
        _ => Kernel::Sum,
    };
    let mut c = kernel.codelet("reduction");
    let partial = match rng.below(16) {
        0 => 0,
        1 => 2,
        _ => 1,
    };
    let y_len = if rng.below(10) == 0 { rng.below(n + 1) } else { n };
    let mut value = || kernel_value(rng);
    let p = Buf::F32((0..partial).map(|_| value()).collect());
    let x = Buf::F32((0..n).map(|_| value()).collect());
    let y = Buf::F32((0..y_len).map(|_| value()).collect());
    let mut bufs = vec![p, x];
    if kernel == (Kernel::Dot { square: false }) {
        bufs.push(y);
    }
    let mut kind = VertexKind::Simple;
    let near = rng.below(21);
    // The dot's `x_i · y_i` (`x_i · x_i`), as its near misses rewrite it.
    let last = bufs.len() - 1;
    let x_i = || Expr::index(1, Expr::Local(0));
    let y_i = || Expr::index(last, Expr::Local(0));
    let product = match (near, kernel) {
        (0, Kernel::Dot { .. }) => Some(Expr::bin(Add, x_i(), y_i())),
        (1, Kernel::Dot { .. }) => {
            Some(Expr::bin(Mul, Expr::Convert { to: DType::F32, arg: Box::new(x_i()) }, y_i()))
        }
        (2, Kernel::Dot { .. }) => Some(Expr::bin(Mul, x_i(), Expr::index(last, i(0)))),
        (3, Kernel::Dot { .. }) => {
            let len = bufs[last].bits().len();
            let reach = len + (rng.below(8) == 0) as usize;
            let g = (0..n).map(|_| rng.below(reach.max(1)) as i32).collect();
            bufs.push(Buf::I32(g));
            c.params.push(ro(DType::I32));
            Some(Expr::bin(Mul, x_i(), Expr::index(last, Expr::index(last + 1, Expr::Local(0)))))
        }
        _ => None,
    };
    if let Some(product) = product {
        let Stmt::ParFor { body, .. } = &mut c.body[1] else { unreachable!("the dot's loop") };
        body[0] = Stmt::SetLocal(1, Expr::bin(Add, Expr::Local(1), product));
    }
    match near {
        // A double-word partial: an F32 accumulator over double-word terms
        // would change its dtype across the loop's back-edge, and not lower.
        4 => bufs[0] = Buf::Dw(vec![TwoFloat::from_f64(1e-9); partial]),
        5 => c.num_locals += 1,
        6 => kind = random_levels(rng, n),
        _ => {}
    }
    (c, kind, bufs)
}

#[test]
fn random_codelets_run_identically_lowered_and_dynamic() {
    let cases = 4900;
    let (mut lowered, mut completed, mut level_sets, mut wide) = (0, 0, 0, 0);
    let (mut looped, mut level_set_loops, mut mapped, mut chunked) = (0, 0, 0, 0);
    let (mut kernels, mut kernels_ran, mut forward, mut spmv, mut gs) = (0, 0, 0, 0, 0);
    let (mut dots, mut sums) = (0, 0);
    for seed in 0..cases {
        let mut rng = TestRng::seed_from_u64(0x10e7_0000 + seed);
        let (codelet, kind, bufs) = random_case(&mut rng);
        if let Some(ran) = check(&codelet, &kind, &bufs, &format!("seed {seed}")) {
            lowered += 1;
            completed += ran as u64;
            level_sets += matches!(kind, VertexKind::LevelSet { .. }) as u32;
            wide += bufs.iter().any(|b| matches!(b.dtype(), DType::DoubleWord | DType::F64Emulated))
                as u32;
            let form = lower(&codelet, &kind, &bufs).unwrap();
            looped += (form.loops() > 0) as u32;
            level_set_loops += (form.loops() > 0
                && form.kernel().is_none()
                && matches!(kind, VertexKind::LevelSet { .. }))
                as u32;
            mapped += (form.maps() > 0) as u32;
            chunked += (form.maps() > 0 && bufs[0].bits().len() > 64) as u32;
            kernels += form.kernel().is_some() as u32;
            kernels_ran += (form.kernel().is_some() && ran) as u32;
            forward += matches!(form.kernel(), Some(Kernel::Forward { .. })) as u32;
            spmv += matches!(form.kernel(), Some(Kernel::Spmv { .. })) as u32;
            gs += (form.kernel() == Some(Kernel::GaussSeidel)) as u32;
            dots += matches!(form.kernel(), Some(Kernel::Dot { .. })) as u32;
            sums += (form.kernel() == Some(Kernel::Sum)) as u32;
        }
    }
    // Not vacuous: most random bodies type and run to the end, level sets,
    // wide storage under F32-declared parameters, accumulate loops (level-set
    // rows' among them) and maps, some over more than one chunk, run as one
    // instruction among them, and both sweeps, the SpMV, the Gauss-Seidel
    // row update and both reduction stages as one kernel instruction, most
    // of them to the end.
    assert!(completed * 2 > cases, "{completed} of {cases} ran lowered ({lowered} lowered)");
    assert!(level_sets > 400 && wide > 1000, "{level_sets} level sets, {wide} wide");
    assert!(looped > 600, "{looped} took the accumulate loop instruction");
    assert!(level_set_loops > 150, "{level_set_loops} level-set programs with a loop instruction");
    assert!(mapped > 300 && chunked > 20, "{mapped} took the map instruction, {chunked} chunked");
    assert!(kernels > 850 && kernels_ran > 550, "{kernels} kernels, {kernels_ran} ran to the end");
    assert!(dots > 150 && sums > 75, "{dots} dot, {sums} sum kernels");
    let backward = kernels - forward - spmv - gs - dots - sums;
    assert!(
        forward > 150 && backward > 150 && spmv > 150 && gs > 150,
        "{forward} forward, {backward} backward, {spmv} SpMV, {gs} Gauss-Seidel kernels"
    );
}

// ---- directed cases --------------------------------------------------------

fn i(v: i32) -> Expr {
    Expr::c(Value::I32(v))
}

fn f(v: f32) -> Expr {
    Expr::c(Value::F32(v))
}

fn rw(dtype: DType) -> ParamDecl {
    ParamDecl { dtype, mutable: true }
}

fn ro(dtype: DType) -> ParamDecl {
    ParamDecl { dtype, mutable: false }
}

fn codelet(params: Vec<ParamDecl>, num_locals: usize, body: Vec<Stmt>) -> Codelet {
    Codelet { name: "directed".into(), params, num_locals, body }
}

fn must_lower(c: &Codelet, kind: &VertexKind, bufs: &[Buf], who: &str) {
    assert_eq!(check(c, kind, bufs, who), Some(true), "{who}: must lower and run");
}

/// MPIR binds the F32-declared SpMV to double-word and to emulated-f64
/// vectors: loads, the mixed multiply and the store are typed and charged
/// by storage, not by declaration.
#[test]
fn spmv_lowers_for_every_vector_storage_under_its_f32_declaration() {
    let (params, num_locals, body) = spmv_template(false);
    let c = codelet(params, num_locals, body);
    let x64: Vec<f64> = (0..4).map(|k| 1.0 / (3.0 + k as f64)).collect();
    let vectors = |dtype| match dtype {
        DType::F32 => Buf::F32(x64.iter().map(|&v| v as f32).collect()),
        DType::DoubleWord => Buf::Dw(x64.iter().map(|&v| TwoFloat::from_f64(v)).collect()),
        _ => Buf::F64(x64.iter().map(|&v| SoftDouble(v)).collect()),
    };
    let mut cycles = vec![];
    for dtype in [DType::F32, DType::DoubleWord, DType::F64Emulated] {
        let bufs = vec![
            vectors(dtype),
            vectors(dtype),
            Buf::F32(vec![2.0, 2.5, 3.0, 3.5]),
            Buf::F32(vec![0.5, -0.25, 0.125, 0.75, -1.5]),
            Buf::I32(vec![1, 0, 3, 2, 0]),
            Buf::I32(vec![0, 1, 3, 3, 5]),
        ];
        must_lower(&c, &VertexKind::Simple, &bufs, &format!("spmv over {dtype:?}"));
        cycles.push(interp_outcome(&c, &VertexKind::Simple, &bufs).unwrap().run.cycles);
    }
    assert!(cycles[0] < cycles[1] && cycles[1] < cycles[2], "{cycles:?}");
}

/// Local 1 is an I32 before the loop and a double-word at its back-edge,
/// so no dtype holds at the loop head — but every trip writes it before
/// reading it.
#[test]
fn a_local_retyped_across_a_back_edge_lowers_when_written_before_read() {
    let c = codelet(
        vec![rw(DType::F32), ro(DType::F32)],
        2,
        vec![Stmt::For {
            local: 0,
            start: i(0),
            end: Expr::ParamLen(0),
            step: i(1),
            body: vec![
                Stmt::SetLocal(1, Expr::index(1, Expr::Local(0))),
                Stmt::Store {
                    param: 0,
                    index: Expr::Local(0),
                    value: Expr::bin(BinOp::Mul, Expr::Local(1), f(3.0)),
                },
                Stmt::SetLocal(
                    1,
                    Expr::Convert { to: DType::DoubleWord, arg: Box::new(Expr::Local(1)) },
                ),
            ],
        }],
    );
    let bufs = vec![Buf::F32(vec![0.0; 3]), Buf::F32(vec![1.5, -2.0, 0.25])];
    must_lower(&c, &VertexKind::Simple, &bufs, "retyped local");

    // Read first, and the head's two dtypes meet: not typed.
    let mut read_first = c.clone();
    let Stmt::For { body, .. } = &mut read_first.body[0] else { unreachable!() };
    body.swap(0, 1);
    assert!(lower(&read_first, &VertexKind::Simple, &bufs).is_none());
}

/// A level-set vertex keeps one set of locals across its rows: local 1
/// counts the rows seen so far, carried from each row to the next.
#[test]
fn level_set_rows_carry_locals_over() {
    let c = codelet(
        vec![rw(DType::I32)],
        2,
        vec![
            Stmt::SetLocal(1, Expr::bin(BinOp::Add, Expr::Local(1), i(1))),
            Stmt::Store { param: 0, index: Expr::Local(0), value: Expr::Local(1) },
        ],
    );
    let kind = VertexKind::LevelSet { levels: vec![vec![2, 0], vec![], vec![3]] };
    let bufs = vec![Buf::I32(vec![0; 4])];
    must_lower(&c, &kind, &bufs, "row carry-over");
    let storage = lowered_outcome::<Native>(&c, &lower(&c, &kind, &bufs).unwrap(), &kind, &bufs);
    assert_eq!(storage.unwrap().storage[0], vec![2, 0, 1, 3]);

    // Carried over as an F32 into a row that reads it as the I32 it began
    // as: the first row and the rest disagree, so it is not typed — though
    // as a `Simple` vertex, which runs the body once, it is.
    let retyped = codelet(
        vec![rw(DType::I32)],
        2,
        vec![
            Stmt::Store { param: 0, index: Expr::Local(0), value: Expr::Local(1) },
            Stmt::SetLocal(1, f(1.0)),
        ],
    );
    assert!(lower(&retyped, &kind, &bufs).is_none());
    must_lower(&retyped, &VertexKind::Simple, &bufs, "one row");
}

/// An empty `ParFor` costs its bounds plus the one cycle the makespan rule
/// floors at; nested in a `For`, once per outer trip — and that `For` in a
/// `While`, three back-edges around one snapshot slot.
#[test]
fn empty_and_nested_parfor() {
    let parfor = |body| Stmt::ParFor { local: 1, start: i(0), end: Expr::ParamLen(1), body };
    let store = Stmt::Store {
        param: 0,
        index: Expr::Local(0),
        value: Expr::bin(
            BinOp::Add,
            Expr::index(0, Expr::Local(0)),
            Expr::index(1, Expr::Local(1)),
        ),
    };
    let c = codelet(
        vec![rw(DType::F32), ro(DType::F32)],
        2,
        vec![Stmt::For {
            local: 0,
            start: i(0),
            end: Expr::ParamLen(0),
            step: i(1),
            body: vec![parfor(vec![store])],
        }],
    );
    let bufs = vec![Buf::F32(vec![1.0, 2.0]), Buf::F32(vec![0.5, 0.25, 0.125])];
    must_lower(&c, &VertexKind::Simple, &bufs, "ParFor in For");
    let in_while = codelet(
        vec![rw(DType::F32), ro(DType::F32)],
        3,
        vec![
            Stmt::SetLocal(2, i(0)),
            Stmt::While {
                cond: Expr::bin(BinOp::Lt, Expr::Local(2), i(3)),
                body: vec![
                    c.body[0].clone(),
                    Stmt::SetLocal(2, Expr::bin(BinOp::Add, Expr::Local(2), i(1))),
                ],
            },
        ],
    );
    must_lower(&in_while, &VertexKind::Simple, &bufs, "ParFor in For in While");

    let empty = vec![Buf::F32(vec![1.0, 2.0]), Buf::F32(vec![])];
    must_lower(&c, &VertexKind::Simple, &empty, "empty ParFor in For");
    let alone = codelet(vec![rw(DType::F32), ro(DType::F32)], 2, vec![parfor(vec![])]);
    must_lower(&alone, &VertexKind::Simple, &empty, "empty ParFor");
    assert_eq!(interp_outcome(&alone, &VertexKind::Simple, &empty).unwrap().run.cycles, 1);
}

/// Bool ⊗ Bool arithmetic is charged as Bool and yields an I32.
#[test]
fn bool_arithmetic_yields_i32() {
    let t = || Expr::c(Value::Bool(true));
    let c = codelet(
        vec![rw(DType::I32), ro(DType::Bool)],
        1,
        vec![
            Stmt::SetLocal(0, Expr::bin(BinOp::Add, t(), Expr::index(1, i(0)))),
            Stmt::Store {
                param: 0,
                index: i(0),
                value: Expr::bin(BinOp::Mul, Expr::Local(0), Expr::bin(BinOp::Max, t(), t())),
            },
            Stmt::Store { param: 0, index: i(1), value: Expr::un(UnOp::Neg, t()) },
        ],
    );
    let bufs = vec![Buf::I32(vec![0, 9]), Buf::Bool(vec![true])];
    must_lower(&c, &VertexKind::Simple, &bufs, "bool arithmetic");
    let got = interp_outcome(&c, &VertexKind::Simple, &bufs).unwrap();
    assert_eq!(got.storage[0], vec![2, 0], "true + true = 2; -true = false = 0");
    assert_eq!(got.locals, vec![Some((DType::I32, 2))]);
}

/// `c` on one `Simple` vertex of a one-tile graph whose operands are
/// tensors with the storage of `bufs`, compiled.
fn compile_one(c: Codelet, bufs: &[Buf]) -> Result<Executable, CompileError> {
    let mut g = Graph::new(IpuModel::tiny(1));
    let operands = bufs
        .iter()
        .enumerate()
        .map(|(k, b)| {
            let len = b.bits().len();
            let t = g.add_tensor(TensorDef::on_tile(format!("p{k}"), b.dtype(), len, 0)).unwrap();
            TensorSlice::whole(t, len)
        })
        .collect();
    let codelet = g.add_codelet(c).unwrap();
    let mut cs = ComputeSet::new("one");
    cs.add(Vertex { tile: 0, codelet, operands, kind: VertexKind::Simple });
    let cs = g.add_compute_set(cs).unwrap();
    g.compile(Prog::Execute(cs))
}

/// What lowering declines: what it cannot type, and what `Interp` panics on
/// whenever it gets there. Each is a compile error naming the codelet.
#[test]
fn untypable_bodies_are_none_not_a_panic() {
    let set = |e| vec![Stmt::SetLocal(0, e)];
    let meet = vec![
        Stmt::If {
            cond: Expr::index(1, i(0)),
            then: vec![Stmt::SetLocal(1, f(1.0))],
            otherwise: vec![Stmt::SetLocal(1, i(1))],
        },
        Stmt::SetLocal(0, Expr::Local(1)),
    ];
    let sqrt_i32 = Expr::un(UnOp::Sqrt, i(4));
    let table: Vec<(&str, Vec<Stmt>)> = vec![
        ("a local read where two dtypes meet", meet),
        (
            "Select arms of different dtypes",
            set(Expr::Select {
                cond: Box::new(Expr::c(Value::Bool(true))),
                then: Box::new(f(1.0)),
                otherwise: Box::new(i(1)),
            }),
        ),
        ("an F32 index", set(Expr::index(0, f(0.0)))),
        (
            "a Bool store index",
            vec![Stmt::Store { param: 0, index: Expr::c(Value::Bool(false)), value: f(0.0) }],
        ),
        (
            "an F32 loop bound",
            vec![Stmt::For { local: 0, start: i(0), end: f(2.0), step: i(1), body: vec![] }],
        ),
        (
            "an F32 ParFor start",
            vec![Stmt::ParFor { local: 0, start: f(0.0), end: i(2), body: vec![] }],
        ),
        ("Sqrt of I32", set(sqrt_i32.clone())),
        ("Sqrt of Bool", set(Expr::un(UnOp::Sqrt, Expr::c(Value::Bool(true))))),
        (
            "Sqrt of I32 behind a false condition",
            vec![Stmt::If {
                cond: Expr::c(Value::Bool(false)),
                then: set(sqrt_i32),
                otherwise: vec![],
            }],
        ),
    ];
    let bufs = vec![Buf::F32(vec![0.0; 2]), Buf::Bool(vec![true])];
    for (what, body) in table {
        let c = Codelet {
            name: what.into(),
            ..codelet(vec![rw(DType::F32), ro(DType::Bool)], 2, body)
        };
        c.validate().unwrap();
        assert!(lower(&c, &VertexKind::Simple, &bufs).is_none(), "{what} must not lower");
        let err = compile_one(c, &bufs).unwrap_err();
        assert!(
            matches!(&err, CompileError::Codelet(m) if m.contains(&format!("'{what}'"))),
            "{what}: {err}"
        );
    }
}

/// A vertex lowering cannot type is a compile error that names its codelet,
/// the storage it was bound to and its kind, even where `Interp` would run
/// it: here `sqrt` of an I32, which has no cost row, behind a condition
/// that is never true.
#[test]
fn an_untypable_vertex_is_a_compile_error() {
    let c = Codelet {
        name: "sqrt_i32".into(),
        ..codelet(
            vec![rw(DType::F32)],
            0,
            vec![
                Stmt::If {
                    cond: Expr::c(Value::Bool(false)),
                    then: vec![Stmt::Store {
                        param: 0,
                        index: i(0),
                        value: Expr::un(UnOp::Sqrt, i(4)),
                    }],
                    otherwise: vec![],
                },
                Stmt::Store { param: 0, index: i(1), value: f(3.0) },
            ],
        )
    };
    let bufs = vec![Buf::F32(vec![0.0; 2])];
    assert!(lower(&c, &VertexKind::Simple, &bufs).is_none());
    assert!(interp_outcome(&c, &VertexKind::Simple, &bufs).is_some(), "the sqrt never runs");
    let err = compile_one(c, &bufs).unwrap_err();
    let want = "codelet 'sqrt_i32' cannot be typed for operand storage [F32] on a simple vertex";
    assert!(matches!(&err, CompileError::Codelet(m) if m == want), "{err}");
}

// ---- flattening edge cases -------------------------------------------------

/// Run `c` lowered on `bufs`; the lowered form and the registers it left.
fn run_lowered(c: &Codelet, kind: &VertexKind, bufs: &mut [Buf]) -> (Lowered, Regs) {
    let lowered = lower(c, kind, bufs).expect("lowers");
    let mut regs = Regs::default();
    lowered.run_vertex(kind, &mut params(c, bufs), &mut regs, &CostModel::default(), WORKERS);
    (lowered, regs)
}

/// A statement in the block a `ParFor` begins is charged before the
/// makespan snapshot: the workers do not share it. Charged after, it would
/// have been divided among them.
#[test]
fn a_statement_before_a_parfor_is_charged_before_its_snapshot() {
    let c = codelet(
        vec![rw(DType::F64Emulated), ro(DType::F64Emulated)],
        2,
        vec![
            Stmt::SetLocal(1, Expr::bin(BinOp::Div, Expr::index(1, i(0)), Expr::index(1, i(1)))),
            Stmt::ParFor {
                local: 0,
                start: i(0),
                end: Expr::ParamLen(0),
                body: vec![Stmt::Store {
                    param: 0,
                    index: Expr::Local(0),
                    value: Expr::bin(BinOp::Mul, Expr::Local(1), Expr::index(1, Expr::Local(0))),
                }],
            },
        ],
    );
    let n = 12;
    let bufs = vec![
        Buf::F64(vec![SoftDouble(0.0); n]),
        Buf::F64((0..n).map(|k| SoftDouble(1.0 + k as f64)).collect()),
    ];
    must_lower(&c, &VertexKind::Simple, &bufs, "statement before ParFor");

    let cm = CostModel::default();
    let (f64e, i32) = (DType::F64Emulated, DType::I32);
    let stmt = 2 * cm.op_cycles(Op::Load, f64e) + cm.op_cycles(Op::Div, f64e);
    let trip = cm.op_cycles(Op::LoopStep, i32)
        + cm.op_cycles(Op::Load, f64e)
        + cm.op_cycles(Op::Mul, f64e)
        + cm.op_cycles(Op::Store, f64e);
    let serial = n as u64 * trip;
    let makespan = |serial: u64| (cm.worker_spawn_cycles + serial.div_ceil(WORKERS)).min(serial);
    let got = interp_outcome(&c, &VertexKind::Simple, &bufs).unwrap().run.cycles;
    assert_eq!(got, stmt + makespan(serial));
    assert_ne!(got, makespan(stmt + serial), "the charge's place is observable");
}

/// A step of zero or less counts as one, whether it is a constant or read
/// from an operand at run time.
#[test]
fn a_for_step_of_zero_or_less_counts_as_one() {
    for step in [0, -3] {
        for from_data in [false, true] {
            let c = codelet(
                vec![rw(DType::F32), ro(DType::I32)],
                1,
                vec![Stmt::For {
                    local: 0,
                    start: i(1),
                    end: Expr::ParamLen(0),
                    step: if from_data { Expr::index(1, i(0)) } else { i(step) },
                    body: vec![Stmt::Store {
                        param: 0,
                        index: Expr::Local(0),
                        value: Expr::Convert { to: DType::F32, arg: Box::new(Expr::Local(0)) },
                    }],
                }],
            );
            let bufs = vec![Buf::F32(vec![-1.0; 4]), Buf::I32(vec![step])];
            let who = format!("step {step}, from data: {from_data}");
            must_lower(&c, &VertexKind::Simple, &bufs, &who);
            let got = interp_outcome(&c, &VertexKind::Simple, &bufs).unwrap();
            assert_eq!(got.storage[0], Buf::F32(vec![-1.0, 1.0, 2.0, 3.0]).bits(), "{who}");
        }
    }
}

/// A body that overwrites its own loop local — with another I32, or with a
/// value of another dtype — changes neither the trip count nor what the
/// next trip sees: a hidden counter drives the loop.
#[test]
fn a_body_overwriting_its_loop_local_keeps_the_trip_count() {
    let store = |value| Stmt::Store { param: 0, index: i(0), value };
    let sum = |value| Expr::bin(BinOp::Add, Expr::index(0, i(0)), value);
    for (what, overwrite, then) in [
        ("I32", Expr::bin(BinOp::Add, Expr::Local(0), i(100)), Expr::Local(0)),
        ("F32", f(0.5), Expr::bin(BinOp::Mul, Expr::Local(0), f(3.0))),
    ] {
        let body = vec![
            store(sum(Expr::Convert { to: DType::F32, arg: Box::new(Expr::Local(0)) })),
            Stmt::SetLocal(0, overwrite),
            store(sum(Expr::Convert { to: DType::F32, arg: Box::new(then) })),
        ];
        let bufs = vec![Buf::F32(vec![0.0; 5])];
        let for_ = Stmt::For {
            local: 0,
            start: i(0),
            end: Expr::ParamLen(0),
            step: i(1),
            body: body.clone(),
        };
        let par = Stmt::ParFor { local: 0, start: i(0), end: Expr::ParamLen(0), body };
        for (kind, stmt) in [("For", for_), ("ParFor", par)] {
            let who = format!("{kind} overwriting its local with an {what}");
            let c = codelet(vec![rw(DType::F32)], 1, vec![stmt]);
            must_lower(&c, &VertexKind::Simple, &bufs, &who);
            let trips: f32 = (0..5).map(|t| t as f32).sum();
            let second: f32 = if what == "I32" { trips + 500.0 } else { 5.0 * 1.5 };
            let want = Buf::F32(vec![trips + second, 0.0, 0.0, 0.0, 0.0]).bits();
            let got = interp_outcome(&c, &VertexKind::Simple, &bufs).unwrap();
            assert_eq!(got.storage[0], want, "{who}");
        }
    }
}

/// A `While` whose condition reads a local its body writes, here an F32
/// accumulator.
#[test]
fn a_while_condition_on_a_body_written_local() {
    use BinOp::*;
    let c = codelet(
        vec![rw(DType::F32)],
        2,
        vec![
            Stmt::SetLocal(1, f(0.0)),
            Stmt::While {
                cond: Expr::bin(Lt, Expr::Local(1), f(3.5)),
                body: vec![
                    Stmt::SetLocal(1, Expr::bin(Add, Expr::Local(1), f(1.25))),
                    Stmt::Store {
                        param: 0,
                        index: i(0),
                        value: Expr::bin(Add, Expr::index(0, i(0)), Expr::Local(1)),
                    },
                ],
            },
        ],
    );
    let bufs = vec![Buf::F32(vec![0.0])];
    must_lower(&c, &VertexKind::Simple, &bufs, "while on a body-written local");
    let got = interp_outcome(&c, &VertexKind::Simple, &bufs).unwrap();
    assert_eq!(got.storage[0], Buf::F32(vec![1.25 + 2.5 + 3.75]).bits());
}

/// An `If` with an empty else as a `LevelSet` row's last statement: its
/// jump lands on the end of the program, and the next row starts over.
#[test]
fn an_if_with_an_empty_else_ends_a_level_set_row() {
    let c = codelet(
        vec![rw(DType::F32), ro(DType::F32)],
        2,
        vec![
            Stmt::SetLocal(1, Expr::index(1, Expr::Local(0))),
            Stmt::If {
                cond: Expr::bin(BinOp::Gt, Expr::Local(1), f(0.0)),
                then: vec![Stmt::Store {
                    param: 0,
                    index: Expr::Local(0),
                    value: Expr::bin(BinOp::Mul, Expr::Local(1), f(2.0)),
                }],
                otherwise: vec![],
            },
        ],
    );
    let kind = VertexKind::LevelSet { levels: vec![vec![0, 2], vec![1], vec![3]] };
    let bufs = vec![Buf::F32(vec![9.0; 4]), Buf::F32(vec![1.0, -1.0, 0.5, 2.0])];
    must_lower(&c, &kind, &bufs, "empty else ending a row");
    let got = interp_outcome(&c, &kind, &bufs).unwrap();
    assert_eq!(got.storage[0], Buf::F32(vec![2.0, 9.0, 1.0, 4.0]).bits());
}

/// `Select`, `If`, `While` and `Not` take the truth of a condition of any
/// dtype: zero is false, anything else — a NaN included — is true.
#[test]
fn non_bool_conditions_take_their_truth() {
    let cond = |k| Expr::index(1, i(k));
    let select = |k| Expr::Select {
        cond: Box::new(cond(k)),
        then: Box::new(f(1.0)),
        otherwise: Box::new(f(-1.0)),
    };
    let store = |k, value| Stmt::Store { param: 0, index: i(k), value };
    let c = codelet(
        vec![rw(DType::F32), ro(DType::F32)],
        1,
        vec![
            store(0, select(0)),
            store(1, select(1)),
            store(2, select(2)),
            Stmt::If {
                cond: cond(1),
                then: vec![store(3, f(5.0))],
                otherwise: vec![store(3, f(6.0))],
            },
            Stmt::If { cond: cond(0), then: vec![store(4, f(5.0))], otherwise: vec![] },
            store(5, Expr::Convert { to: DType::F32, arg: Box::new(Expr::un(UnOp::Not, cond(0))) }),
            Stmt::SetLocal(0, i(0)),
            Stmt::While {
                cond: Expr::bin(
                    BinOp::Sub,
                    cond(1),
                    Expr::Convert { to: DType::F32, arg: Box::new(Expr::Local(0)) },
                ),
                body: vec![Stmt::SetLocal(0, Expr::bin(BinOp::Add, Expr::Local(0), i(1)))],
            },
            store(6, Expr::Convert { to: DType::F32, arg: Box::new(Expr::Local(0)) }),
        ],
    );
    for dtype in [DType::F32, DType::I32, DType::DoubleWord, DType::F64Emulated] {
        // Zero, three, and (for the floats) a NaN.
        let bufs = vec![
            Buf::F32(vec![0.0; 7]),
            match dtype {
                DType::F32 => Buf::F32(vec![0.0, 3.0, f32::NAN]),
                DType::I32 => Buf::I32(vec![0, 3, 7]),
                DType::DoubleWord => {
                    Buf::Dw([0.0, 3.0, f64::NAN].into_iter().map(TwoFloat::from_f64).collect())
                }
                _ => Buf::F64([0.0, 3.0, f64::NAN].into_iter().map(SoftDouble).collect()),
            },
        ];
        let who = format!("{dtype:?} conditions");
        must_lower(&c, &VertexKind::Simple, &bufs, &who);
        let got = interp_outcome(&c, &VertexKind::Simple, &bufs).unwrap();
        let want = Buf::F32(vec![-1.0, 1.0, 1.0, 5.0, 0.0, 1.0, 3.0]).bits();
        assert_eq!(got.storage[0], want, "{who}");
    }
}

/// Two paths leave local 1 as an F32 and as an I32: no dtype is static at
/// the end, so it reads back `None` — dead, since no typed read could
/// follow — while `Interp` holds whichever path ran. Local 0 reads back.
#[test]
fn a_local_without_a_static_exit_dtype_reads_back_none() {
    let c = codelet(
        vec![rw(DType::F32), ro(DType::Bool)],
        2,
        vec![
            Stmt::If {
                cond: Expr::index(1, i(0)),
                then: vec![Stmt::SetLocal(1, f(1.0))],
                otherwise: vec![Stmt::SetLocal(1, i(1))],
            },
            Stmt::SetLocal(0, f(2.0)),
        ],
    );
    let mut bufs = vec![Buf::F32(vec![0.0]), Buf::Bool(vec![true])];
    must_lower(&c, &VertexKind::Simple, &bufs, "dead local");
    let (lowered, regs) = run_lowered(&c, &VertexKind::Simple, &mut bufs);
    assert_eq!(lowered.local(&regs, 0), Some(Value::F32(2.0)));
    assert_eq!(lowered.local(&regs, 1), None);
    assert_eq!(lowered.local(&regs, 2), None, "out of range");
    let interp = interp_outcome(&c, &VertexKind::Simple, &bufs).unwrap();
    assert_eq!(interp.locals[1], Some((DType::F32, 1.0f32.to_bits() as u64)));
}

/// A store writes what `ParamData::set` writes for the value's `Value`: a
/// signalling NaN, −0.0 and a subnormal, copied between operands of F32,
/// double-word and emulated-f64 storage, and a signalling NaN stored as a
/// constant, leave `Interp`'s bits. (CI runs this under `--release` too,
/// where the compiler may fold the F32 store's round trip through f64.)
#[test]
fn a_store_writes_nans_signed_zeros_and_subnormals_as_interp_does() {
    let (snan32, tiny32) = (f32::from_bits(0x7fa0_0000), f32::from_bits(1));
    let (snan64, tiny64) = (f64::from_bits(0x7ff4_0000_0000_0000), f64::from_bits(1));
    for dtype in FLOATS {
        let (src, snan) = match dtype {
            DType::F32 => (Buf::F32(vec![snan32, -0.0, tiny32]), Value::F32(snan32)),
            DType::DoubleWord => (
                Buf::Dw(vec![
                    TwoFloat::from_parts(snan32, 0.0),
                    TwoFloat::from_parts(-0.0, -0.0),
                    TwoFloat::from_parts(1.0, tiny32),
                ]),
                Value::Dw(TwoFloat::from_parts(snan32, -0.0)),
            ),
            _ => (
                Buf::F64(vec![SoftDouble(snan64), SoftDouble(-0.0), SoftDouble(tiny64)]),
                Value::F64(snan64),
            ),
        };
        let c = codelet(
            vec![rw(DType::F32), ro(DType::F32)],
            1,
            vec![
                Stmt::ParFor {
                    local: 0,
                    start: i(0),
                    end: Expr::ParamLen(1),
                    body: vec![Stmt::Store {
                        param: 0,
                        index: Expr::Local(0),
                        value: Expr::index(1, Expr::Local(0)),
                    }],
                },
                Stmt::Store { param: 0, index: i(3), value: Expr::c(snan) },
            ],
        );
        let bufs = vec![floats(dtype, &[9.0; 4]), src];
        must_lower(&c, &VertexKind::Simple, &bufs, &format!("stores over {dtype:?}"));
    }
}

/// A local copied into another moves within its file, for each of the five:
/// `l[2p + 1] = l[2p] = params[p][0]`.
#[test]
fn a_local_copied_into_another_moves_in_each_file() {
    let c = codelet(
        DTYPES.iter().map(|&dtype| ro(dtype)).collect(),
        2 * DTYPES.len(),
        (0..DTYPES.len())
            .flat_map(|p| {
                [
                    Stmt::SetLocal(2 * p, Expr::index(p, i(0))),
                    Stmt::SetLocal(2 * p + 1, Expr::Local(2 * p)),
                ]
            })
            .collect(),
    );
    // Signalling NaNs and a −0.0: any arithmetic in a move shows in the bits.
    let bufs = vec![
        Buf::F32(vec![f32::from_bits(0x7fa0_0000)]),
        Buf::I32(vec![-7]),
        Buf::Bool(vec![true]),
        Buf::Dw(vec![TwoFloat::from_parts(1.0 / 3.0, -0.0)]),
        Buf::F64(vec![SoftDouble(f64::from_bits(0x7ff4_0000_0000_0000))]),
    ];
    must_lower(&c, &VertexKind::Simple, &bufs, "moves");
    let (lowered, regs) = run_lowered(&c, &VertexKind::Simple, &mut bufs.clone());
    for (p, &dtype) in DTYPES.iter().enumerate() {
        let (from, to) = (lowered.local(&regs, 2 * p), lowered.local(&regs, 2 * p + 1));
        assert_eq!(from.map(value_bits), to.map(value_bits), "{dtype:?}");
        assert_eq!(to.map(|v| v.dtype()), Some(dtype));
    }
}

// ---- the accumulate loop instruction ---------------------------------------

const FLOATS: [DType; 3] = [DType::F32, DType::DoubleWord, DType::F64Emulated];

/// `xs` in float storage `dtype`.
fn floats(dtype: DType, xs: &[f64]) -> Buf {
    match dtype {
        DType::F32 => Buf::F32(xs.iter().map(|&v| v as f32).collect()),
        DType::DoubleWord => Buf::Dw(xs.iter().map(|&v| TwoFloat::from_f64(v)).collect()),
        DType::F64Emulated => Buf::F64(xs.iter().map(|&v| SoftDouble(v)).collect()),
        other => unreachable!("{other:?} is not a float dtype"),
    }
}

/// `k + 1 / (3 + i)` for `i` in `0..4`: thirds, fifths and sixths are not
/// f32 values.
fn vector(dtype: DType, k: f64) -> Buf {
    floats(dtype, &(0..4).map(|i| k + 1.0 / (3.0 + i as f64)).collect::<Vec<_>>())
}

/// Four rows of a sparse matrix in the solvers' layout: values, column
/// indices, row pointers. With `col5`, row 2 names column 5, past every
/// vector: only a guard that excludes it keeps its load in range.
fn rows(dtype: DType, col5: bool) -> [Buf; 3] {
    let last = if col5 { 5 } else { 3 };
    [
        floats(dtype, &[0.5, -0.25, 0.125, 0.75, -1.5, 2.0, 0.375, -0.625, 1.25, -0.0625]),
        Buf::I32(vec![0, 1, 2, 0, 3, 1, 2, last, 0, 3]),
        Buf::I32(vec![0, 3, 5, 8, 10]),
    ]
}

/// [`must_lower`], with `loops` counted loops run as one accumulate
/// instruction.
fn must_loop(c: &Codelet, kind: &VertexKind, bufs: &[Buf], who: &str, loops: usize) {
    must_lower(c, kind, bufs, who);
    assert_eq!(lower(c, kind, bufs).unwrap().loops(), loops, "{who}: accumulate loops");
}

fn template((params, num_locals, body): (Vec<ParamDecl>, usize, Vec<Stmt>)) -> Codelet {
    codelet(params, num_locals, body)
}

/// [`must_lower`], the vertex run as kernel instruction `kernel`, its loop
/// counted as one accumulate loop.
fn must_kernel(c: &Codelet, kind: &VertexKind, bufs: &[Buf], who: &str, kernel: Kernel) {
    must_lower(c, kind, bufs, who);
    let l = lower(c, kind, bufs).unwrap();
    assert_eq!((l.kernel(), l.loops()), (Some(kernel), 1), "{who}: kernel, loops");
}

/// The Gauss-Seidel row update (level-set; local 0 the row): `acc = b[i];
/// for k in rptr[i]..rptr[i+1] { acc = acc - vals[k] * x[cols[k]] }; x[i]
/// = acc / diag[i]`. Params: x (mut) · b · diag · vals · cols · rptr.
fn gauss_seidel() -> Codelet {
    template(gauss_seidel_template())
}

/// The Gauss-Seidel row update as it runs over `bufs` on `kind`: one kernel
/// instruction over F32 storage, else a program whose loop is one
/// accumulate instruction; and it leaves what `Interp` leaves.
fn must_gs(bufs: &[Buf], kind: &VertexKind, who: &str) {
    if bufs[0].dtype() == DType::F32 {
        must_kernel(&gauss_seidel(), kind, bufs, who, Kernel::GaussSeidel);
    } else {
        must_loop(&gauss_seidel(), kind, bufs, who, 1);
    }
}

/// The solvers' inner loops — SpMV and its residual (shape A, a gather),
/// forward substitution (B, one comparison), backward substitution (B,
/// `And`), the Gauss-Seidel row (A, `Sub`, in both level orders) — each run
/// as one instruction under F32, double-word and emulated-f64 storage, and
/// leave what `Interp` leaves: storage bits, locals, cycles, flops and
/// bytes. Under F32 each vertex is one kernel instruction, the loop
/// included; backward substitution lowers under F32 only.
#[test]
fn the_solver_inner_loops_run_as_one_instruction_in_every_float_domain() {
    let forward = VertexKind::LevelSet { levels: vec![vec![0], vec![1, 2], vec![3]] };
    let backward = VertexKind::LevelSet { levels: vec![vec![3], vec![2, 1], vec![0]] };
    for dtype in FLOATS {
        let v = |k| vector(dtype, k);
        for residual in [false, true] {
            let [vals, cols, rptr] = rows(dtype, false);
            let mut bufs = vec![v(0.0), v(1.0)];
            if residual {
                bufs.push(v(2.0));
            }
            bufs.extend([v(3.0), vals, cols, rptr]);
            let who = format!("spmv (residual: {residual}) over {dtype:?}");
            must_spmv(&template(spmv_template(residual)), &bufs, &who, residual);
        }
        for divide in [false, true] {
            let [vals, cols, rptr] = rows(dtype, true);
            let bufs = vec![v(0.0), v(1.0), vals.clone(), v(3.0), cols.clone(), rptr.clone()];
            let who = format!("forward substitution (divide: {divide}) over {dtype:?}");
            let forward_subst = template(forward_subst_template(divide));
            if dtype == DType::F32 {
                must_kernel(&forward_subst, &forward, &bufs, &who, Kernel::Forward { divide });
            } else {
                must_loop(&forward_subst, &forward, &bufs, &who, 1);
            }
            // Its accumulator starts as the F32 zero: over wider storage
            // the loop head sees two dtypes, and the body is not typed.
            let bufs = vec![v(1.0), vals, v(3.0), cols, rptr];
            let backward_subst = template(backward_subst_template(divide));
            if dtype != DType::F32 {
                assert!(lower(&backward_subst, &backward, &bufs).is_none());
                continue;
            }
            let who = format!("backward substitution (divide: {divide})");
            must_kernel(&backward_subst, &backward, &bufs, &who, Kernel::Backward { divide });
        }
        let [vals, cols, rptr] = rows(dtype, false);
        let bufs = vec![v(1.0), v(2.0), v(3.0), vals, cols, rptr];
        for kind in [&forward, &backward] {
            must_gs(&bufs, kind, &format!("Gauss-Seidel row over {dtype:?}, {kind:?}"));
        }
    }
}

// Locals of the two directed loop shapes below.
const K: usize = 0;
const ACC: usize = 1;
const J: usize = 2;
const LO: usize = 3;
const HI: usize = 4;

/// `acc = out[0]; lo = 1; hi = 2; for k in start..end step step { body };
/// out[0] = acc`. Params: out (mut) · a · b · cols.
fn counted(start: i32, end: Expr, step: i32, body: Vec<Stmt>) -> Codelet {
    codelet(
        vec![rw(DType::F32), ro(DType::F32), ro(DType::F32), ro(DType::I32)],
        5,
        vec![
            Stmt::SetLocal(ACC, Expr::index(0, i(0))),
            Stmt::SetLocal(LO, i(1)),
            Stmt::SetLocal(HI, i(2)),
            Stmt::For { local: K, start: i(start), end, step: i(step), body },
            Stmt::Store { param: 0, index: i(0), value: Expr::Local(ACC) },
        ],
    )
}

fn acc() -> Expr {
    Expr::Local(ACC)
}

/// `a[k]`.
fn a_k() -> Expr {
    Expr::index(1, Expr::Local(K))
}

/// `b[k]`.
fn b_k() -> Expr {
    Expr::index(2, Expr::Local(K))
}

/// `b[cols[k]]`.
fn b_gathered() -> Expr {
    Expr::index(2, Expr::index(3, Expr::Local(K)))
}

fn set_acc(value: Expr) -> Stmt {
    Stmt::SetLocal(ACC, value)
}

/// `j = cols[at]; if test { acc = acc + a[k] * b[j] } else { otherwise }`.
fn guarded(at: usize, test: Expr, otherwise: Vec<Stmt>) -> Vec<Stmt> {
    let b_j = Expr::index(2, Expr::Local(J));
    vec![
        Stmt::SetLocal(J, Expr::index(3, Expr::Local(at))),
        Stmt::If {
            cond: test,
            then: vec![set_acc(Expr::bin(BinOp::Add, acc(), Expr::bin(BinOp::Mul, a_k(), b_j)))],
            otherwise,
        },
    ]
}

/// `out`, `a`, `b` of one float storage dtype and `cols` in range of `b`.
fn operands(dtype: DType, cols: Vec<i32>) -> Vec<Buf> {
    let xs: Vec<f64> = (0..6).map(|k| 0.75 - k as f64 / 7.0).collect();
    let ys: Vec<f64> = (0..6).map(|k| 1.0 / (2.0 + k as f64)).collect();
    vec![floats(dtype, &[0.3]), floats(dtype, &xs), floats(dtype, &ys), Buf::I32(cols)]
}

fn cmp(op: BinOp, a: usize, b: usize) -> Expr {
    Expr::bin(op, Expr::Local(a), Expr::Local(b))
}

/// `c` with `j = b[1]` (a float of `b`'s storage) set before its loop.
fn float_local_before(mut c: Codelet) -> Codelet {
    let at = c.body.iter().position(|s| matches!(s, Stmt::For { .. })).unwrap();
    c.body.insert(at, Stmt::SetLocal(J, Expr::index(2, i(1))));
    c
}

/// The loop instruction's edges — the two guard joins, a guard never true,
/// an empty loop, steps past one, the accumulator as an operand — and the
/// near misses that stay on the flat program: each leaves what `Interp`
/// leaves.
#[test]
fn accumulate_loops_and_their_near_misses_match_the_interpreter() {
    use BinOp::*;
    let len = || Expr::ParamLen(3);
    let product = |x, y| Expr::bin(Mul, x, y);
    let cases: Vec<(&str, Codelet, usize)> = vec![
        (
            "an And guard",
            counted(
                0,
                len(),
                1,
                guarded(K, Expr::bin(And, cmp(Ge, J, LO), cmp(Le, J, HI)), vec![]),
            ),
            1,
        ),
        (
            "an Or guard",
            counted(0, len(), 1, guarded(K, Expr::bin(Or, cmp(Lt, J, LO), cmp(Gt, J, HI)), vec![])),
            1,
        ),
        ("a guard false on every trip", counted(0, len(), 1, guarded(K, cmp(Ne, J, J), vec![])), 1),
        (
            "an empty loop",
            counted(3, i(3), 1, vec![set_acc(Expr::bin(Add, acc(), product(a_k(), b_k())))]),
            1,
        ),
        (
            "a start past the end",
            counted(5, i(1), 1, vec![set_acc(Expr::bin(Add, acc(), product(a_k(), b_k())))]),
            1,
        ),
        (
            "step 2",
            counted(
                0,
                len(),
                2,
                vec![set_acc(Expr::bin(Sub, acc(), product(a_k(), b_gathered())))],
            ),
            1,
        ),
        (
            "step 3, Max of a quotient",
            counted(
                1,
                len(),
                3,
                vec![set_acc(Expr::bin(Max, acc(), Expr::bin(Div, a_k(), b_gathered())))],
            ),
            1,
        ),
        (
            "a step of zero",
            counted(0, len(), 0, vec![set_acc(Expr::bin(Add, acc(), product(a_k(), b_k())))]),
            1,
        ),
        (
            "acc also an operand",
            counted(0, len(), 1, vec![set_acc(Expr::bin(Add, acc(), product(acc(), a_k())))]),
            1,
        ),
        (
            "acc both operands",
            counted(0, len(), 1, vec![set_acc(Expr::bin(Sub, acc(), product(acc(), acc())))]),
            1,
        ),
        (
            "a float local that is not acc as an operand",
            float_local_before(counted(
                0,
                len(),
                1,
                vec![set_acc(Expr::bin(Add, acc(), product(Expr::Local(J), a_k())))],
            )),
            1,
        ),
        (
            "an operand indexed by a local set before the loop",
            counted(
                0,
                len(),
                1,
                vec![set_acc(Expr::bin(
                    Add,
                    acc(),
                    product(Expr::index(1, Expr::Local(HI)), b_k()),
                ))],
            ),
            1,
        ),
        (
            "j the loop local's own register",
            counted(
                0,
                len(),
                1,
                vec![
                    Stmt::SetLocal(K, Expr::index(3, Expr::Local(K))),
                    Stmt::If {
                        cond: cmp(Gt, K, LO),
                        then: vec![set_acc(Expr::bin(Add, acc(), product(a_k(), b_k())))],
                        otherwise: vec![],
                    },
                ],
            ),
            1,
        ),
        // j = 2 on the last trip: `j` is written and `acc` is not.
        (
            "a guard false on the last trip",
            counted(0, len(), 1, guarded(K, cmp(Lt, J, HI), vec![])),
            1,
        ),
        // Near misses: one trip at a time.
        (
            "(x ⊗ y) ⊕ acc",
            counted(0, len(), 1, vec![set_acc(Expr::bin(Add, product(a_k(), b_k()), acc()))]),
            0,
        ),
        (
            "a Cast operand",
            counted(
                0,
                len(),
                1,
                vec![set_acc(Expr::bin(
                    Add,
                    acc(),
                    product(Expr::Convert { to: DType::F32, arg: Box::new(a_k()) }, b_k()),
                ))],
            ),
            0,
        ),
        (
            "an else arm",
            counted(0, len(), 1, guarded(K, cmp(Lt, J, HI), vec![Stmt::SetLocal(LO, i(0))])),
            0,
        ),
        (
            "a second body statement",
            counted(
                0,
                len(),
                1,
                vec![
                    set_acc(Expr::bin(Add, acc(), product(a_k(), b_k()))),
                    Stmt::SetLocal(LO, Expr::Local(K)),
                ],
            ),
            0,
        ),
        (
            "a guard load not indexed by the loop local",
            counted(0, len(), 1, guarded(LO, cmp(Lt, J, HI), vec![])),
            0,
        ),
    ];
    for (what, c, loops) in cases {
        for dtype in FLOATS {
            let bufs = operands(dtype, vec![3, 0, 2, 1, 5, 2]);
            must_loop(&c, &VertexKind::Simple, &bufs, &format!("{what} over {dtype:?}"), loops);
        }
    }

    // A guard false on the last trip leaves that trip's `j` and the
    // accumulator as the trip before left it.
    let last = counted(0, len(), 1, guarded(K, cmp(Lt, J, HI), vec![]));
    let (lowered, regs) =
        run_lowered(&last, &VertexKind::Simple, &mut operands(DType::F32, vec![3, 0, 2, 1, 5, 2]));
    let (before, regs_before) =
        run_lowered(&last, &VertexKind::Simple, &mut operands(DType::F32, vec![3, 0, 2, 1, 5]));
    assert_eq!(lowered.local(&regs, J), Some(Value::I32(2)));
    assert_eq!(lowered.local(&regs, ACC), before.local(&regs_before, ACC));

    // MPIR's residual shape: f32 values into a double-word accumulator.
    let mixed = counted(
        0,
        Expr::ParamLen(3),
        1,
        vec![set_acc(Expr::bin(Add, acc(), product(a_k(), b_gathered())))],
    );
    let mut bufs = operands(DType::DoubleWord, vec![3, 0, 2, 1, 5, 2]);
    bufs[1] = floats(DType::F32, &[0.5, -0.25, 0.125, 0.75, -1.5, 2.0]);
    must_loop(&mixed, &VertexKind::Simple, &bufs, "f32 values, double-word accumulator", 0);

    // Never true: every trip charged, nothing accumulated.
    let never = counted(0, Expr::ParamLen(3), 1, guarded(K, cmp(Ne, J, J), vec![]));
    let bufs = operands(DType::F32, vec![3, 0, 2, 1, 5, 2]);
    let got = interp_outcome(&never, &VertexKind::Simple, &bufs).unwrap();
    assert_eq!(got.storage[0], bufs[0].bits());
    let cm = CostModel::default();
    let trip = cm.op_cycles(Op::LoopStep, DType::I32)
        + cm.op_cycles(Op::Load, DType::I32)
        + cm.op_cycles(Op::Cmp, DType::I32)
        + cm.op_cycles(Op::Branch, DType::Bool);
    let fixed = cm.op_cycles(Op::Load, DType::F32) + cm.op_cycles(Op::Store, DType::F32);
    assert_eq!(got.run.cycles, fixed + 6 * trip);
}

/// A dot product's per-tile stage: `acc = 0; ParFor i { acc = acc + x[i] *
/// y[i] }; out[0] = acc`. Over F32 storage it is the dot kernel's template
/// and runs as that kernel; over the wider storages the loop instruction
/// charges between `ParBegin` and `ParEnd`. Either way the makespan covers
/// the whole loop.
#[test]
fn a_parfor_reduction_runs_as_one_instruction_inside_its_makespan() {
    use BinOp::*;
    let n = 24;
    let cm = CostModel::default();
    for dtype in FLOATS {
        let zero = match dtype {
            DType::F32 => Value::F32(0.0),
            DType::DoubleWord => Value::Dw(TwoFloat::from_f64(0.0)),
            _ => Value::F64(0.0),
        };
        let x_i = |p| Expr::index(p, Expr::Local(0));
        let c = codelet(
            vec![rw(DType::F32), ro(DType::F32), ro(DType::F32)],
            2,
            vec![
                Stmt::SetLocal(1, Expr::c(zero)),
                Stmt::ParFor {
                    local: 0,
                    start: i(0),
                    end: Expr::ParamLen(1),
                    body: vec![Stmt::SetLocal(
                        1,
                        Expr::bin(Add, Expr::Local(1), Expr::bin(Mul, x_i(1), x_i(2))),
                    )],
                },
                Stmt::Store { param: 0, index: i(0), value: Expr::Local(1) },
            ],
        );
        let xs: Vec<f64> = (0..n).map(|k| 1.0 / (1.0 + k as f64)).collect();
        let bufs = vec![floats(dtype, &[0.0]), floats(dtype, &xs), floats(dtype, &xs)];
        let who = format!("dot over {dtype:?}");
        must_loop(&c, &VertexKind::Simple, &bufs, &who, 1);

        let trip = cm.op_cycles(Op::LoopStep, DType::I32)
            + 2 * cm.op_cycles(Op::Load, dtype)
            + cm.op_cycles(Op::Mul, dtype)
            + cm.op_cycles(Op::Add, dtype);
        let serial = n as u64 * trip;
        let makespan = (cm.worker_spawn_cycles + serial.div_ceil(WORKERS)).min(serial);
        let got = interp_outcome(&c, &VertexKind::Simple, &bufs).unwrap().run;
        assert_eq!(got.cycles, makespan + cm.op_cycles(Op::Store, dtype), "{who}");
        assert!(makespan < serial, "{who}: the workers share the loop");
        let flops = cm.op_flops(Op::Mul, dtype) + cm.op_flops(Op::Add, dtype);
        assert_eq!(got.flops, n as u64 * flops, "{who}");
        assert_eq!(got.mem_bytes, (2 * n as u64 + 1) * dtype.size_bytes() as u64, "{who}");
    }
}

/// A gather past the end of its operand panics on both routes, the loop
/// instruction's like the flat program's.
#[test]
fn an_out_of_bounds_gather_panics_on_both_routes() {
    let c = counted(
        0,
        Expr::ParamLen(3),
        1,
        vec![set_acc(Expr::bin(BinOp::Add, acc(), Expr::bin(BinOp::Mul, a_k(), b_gathered())))],
    );
    for dtype in FLOATS {
        let bufs = operands(dtype, vec![3, 0, 6, 1, 5, 2]);
        let who = format!("column 6 of 6 over {dtype:?}");
        assert_eq!(check(&c, &VertexKind::Simple, &bufs, &who), Some(false), "{who}");
        assert_eq!(lower(&c, &VertexKind::Simple, &bufs).unwrap().loops(), 1, "{who}");
    }
}

// ---- rows -------------------------------------------------------------------

/// The SpMV as it runs over `bufs`: one kernel instruction over F32
/// storage, else a program whose loop is one accumulate instruction; and it
/// leaves what `Interp` leaves.
fn must_spmv(c: &Codelet, bufs: &[Buf], who: &str, residual: bool) {
    if bufs[0].dtype() == DType::F32 {
        must_kernel(c, &VertexKind::Simple, bufs, who, Kernel::Spmv { residual });
    } else {
        must_loop(c, &VertexKind::Simple, bufs, who, 1);
    }
}

/// The edges of a row: an empty row (`lo == hi`), every row empty, a
/// `ParFor` of no trips (the makespan's floor of one cycle), empty levels,
/// row ids that are a sparse, unordered subset, and a level set of one row.
#[test]
fn degenerate_rows_match_the_interpreter() {
    let spmv = template(spmv_template(false));
    for dtype in FLOATS {
        let v = |k| vector(dtype, k);
        let vals = floats(dtype, &[0.5, -0.25, 0.125, 0.75, -1.5]);
        // Rows 1 and 3 hold nothing.
        let (cols, rptr) = (Buf::I32(vec![1, 0, 3, 0, 2]), Buf::I32(vec![0, 3, 3, 5, 5]));
        let bufs = vec![v(0.0), v(1.0), v(3.0), vals.clone(), cols.clone(), rptr.clone()];
        must_spmv(&spmv, &bufs, &format!("empty rows over {dtype:?}"), false);
        let empty = vec![v(0.0), v(1.0), v(3.0), vals.clone(), cols.clone(), Buf::I32(vec![0; 5])];
        must_spmv(&spmv, &empty, &format!("all empty over {dtype:?}"), false);

        let none = floats(dtype, &[]);
        let bufs = vec![none.clone(), none.clone(), none, vals.clone(), cols.clone(), rptr.clone()];
        must_spmv(&spmv, &bufs, &format!("no trips over {dtype:?}"), false);
        assert_eq!(interp_outcome(&spmv, &VertexKind::Simple, &bufs).unwrap().run.cycles, 1);

        let bufs = vec![v(1.0), v(2.0), v(3.0), vals, cols, rptr];
        for (what, levels) in [
            ("empty levels", vec![vec![], vec![2, 0], vec![], vec![3, 1], vec![]]),
            ("no levels", vec![]),
            ("sparse unordered ids", vec![vec![3], vec![1, 3, 0]]),
            ("one row", vec![vec![2]]),
        ] {
            let kind = VertexKind::LevelSet { levels };
            must_gs(&bufs, &kind, &format!("{what} over {dtype:?}"));
        }
    }
}

/// A row id past the row pointers, a gather past the vector, a row pointer
/// past the values, a store past the output: each panics on both routes, as
/// the flat program's bounds checks would, with the same storage left.
#[test]
fn an_out_of_bounds_row_or_gather_index_panics_on_both_routes() {
    let gs = gauss_seidel();
    let spmv = template(spmv_template(false));
    for dtype in FLOATS {
        let v = |k| vector(dtype, k);
        let [vals, cols, rptr] = rows(dtype, false);
        let bufs = vec![v(1.0), v(2.0), v(3.0), vals.clone(), cols.clone(), rptr.clone()];
        let past = VertexKind::LevelSet { levels: vec![vec![0], vec![4]] };
        let who = format!("row id 4 of 4 over {dtype:?}");
        panics_alike(&gs, &past, &bufs, &who);

        let [vals, _, rptr] = rows(dtype, false);
        let gather = Buf::I32(vec![0, 1, 2, 0, 3, 1, 2, 4, 0, 3]);
        let bufs = vec![v(0.0), v(1.0), v(3.0), vals.clone(), gather, rptr];
        let who = format!("column 4 of 4 over {dtype:?}");
        panics_alike(&spmv, &VertexKind::Simple, &bufs, &who);

        let long = Buf::I32(vec![0, 3, 5, 8, 11]);
        let bufs = vec![v(0.0), v(1.0), v(3.0), vals, cols, long];
        let who = format!("row pointer 11 of 10 over {dtype:?}");
        panics_alike(&spmv, &VertexKind::Simple, &bufs, &who);
        let l = lower(&spmv, &VertexKind::Simple, &bufs).unwrap();
        let kernel = (dtype == DType::F32).then_some(Kernel::Spmv { residual: false });
        assert_eq!((l.kernel(), l.loops()), (kernel, 1), "{who}");
    }
}

/// What a level-set row around a loop leaves in its locals — the loop local
/// and `j` after the last trip, a counter carried from row to row, a local
/// set after the loop from `k` — reads back as `Interp` leaves it; and so
/// do rows with a branch before the loop, two loops, a store of a value
/// that needs a cast, or the loop last. None is the forward kernel's
/// template: each runs as a program, its loops as accumulate instructions.
#[test]
fn a_rows_locals_and_its_near_misses_match_the_interpreter() {
    use BinOp::*;
    let kind = VertexKind::LevelSet { levels: vec![vec![0], vec![1, 2], vec![3]] };
    let [vals, cols, rptr] = rows(DType::F32, false);
    let v = |k| vector(DType::F32, k);
    let bufs = vec![v(0.0), v(1.0), vals, v(3.0), cols, rptr];
    let base = template(forward_subst_template(true));
    let with = |at: usize, extra: Vec<Stmt>| {
        let mut c = base.clone();
        c.num_locals = 8;
        c.body.splice(at..at, extra);
        c
    };
    // Locals 6 and 7 are free: a counter carried over, and `k` copied.
    let count = Stmt::SetLocal(6, Expr::bin(Add, Expr::Local(6), i(1)));
    let carried = with(0, vec![count.clone()]);
    must_loop(&carried, &kind, &bufs, "a counter carried from row to row", 1);
    let (lowered, regs) = run_lowered(&carried, &kind, &mut bufs.clone());
    assert_eq!(lowered.local(&regs, 6), Some(Value::I32(4)), "four rows counted");
    let epilogue = with(5, vec![Stmt::SetLocal(7, Expr::Local(4)), count.clone()]);
    must_loop(&epilogue, &kind, &bufs, "an epilogue reading the loop local", 1);
    let store_j = with(
        5,
        vec![Stmt::Store {
            param: 0,
            index: Expr::Local(5),
            value: Expr::bin(Add, Expr::index(0, Expr::Local(5)), Expr::Local(1)),
        }],
    );
    must_loop(&store_j, &kind, &bufs, "a store indexed by j, not the row", 1);

    let branch = with(
        0,
        vec![Stmt::If {
            cond: Expr::bin(Lt, Expr::Local(0), i(2)),
            then: vec![count],
            otherwise: vec![],
        }],
    );
    must_loop(&branch, &kind, &bufs, "a branch in the prologue", 1);
    let Stmt::For { .. } = &base.body[3] else { unreachable!("the loop is statement 3") };
    let twice = with(4, vec![base.body[3].clone()]);
    must_loop(&twice, &kind, &bufs, "two loops", 2);
    let cast = with(
        5,
        vec![Stmt::Store {
            param: 0,
            index: Expr::Local(0),
            value: Expr::Convert { to: DType::I32, arg: Box::new(Expr::Local(1)) },
        }],
    );
    must_loop(&cast, &kind, &bufs, "a store of a value it casts", 1);
    let last = {
        let mut c = base.clone();
        c.body.pop();
        c
    };
    must_loop(&last, &kind, &bufs, "the loop last", 1);
}

// ---- the map instruction ---------------------------------------------------

/// [`must_lower`], with `maps` `ParFor`s run as one map instruction each.
fn must_map(c: &Codelet, kind: &VertexKind, bufs: &[Buf], who: &str, maps: usize) {
    must_lower(c, kind, bufs, who);
    assert_eq!(lower(c, kind, bufs).unwrap().maps(), maps, "{who}: maps");
}

/// `n` elements `k + 1 / (3 + i)` in float storage `dtype`.
fn elements(dtype: DType, n: usize, k: f64) -> Buf {
    floats(dtype, &(0..n).map(|i| k + 1.0 / (3.0 + i as f64)).collect::<Vec<_>>())
}

/// The solvers' maps as `DslCtx::assign` and `DslCtx::materialize` build
/// them — CG's `x + p·α`, `r − q·α` and `z + p·β`, BiCGStab's `r − v·α`,
/// `x + y·α + z·ω`, `s − t·ω` and `r + (p − v·ω)·β`, the zero fill, a
/// materialised `x + p·α` and a scalar copied into another — each vertex one
/// map instruction under F32, double-word and emulated-f64 storage, over 75
/// elements a tile (two chunks), leaving what `Interp` leaves: storage bits,
/// locals, cycles, flops and bytes.
#[test]
fn the_solvers_maps_run_as_one_instruction_in_every_float_domain() {
    use dsl::{DslCtx, TExpr};
    for dtype in FLOATS {
        let mut ctx = DslCtx::new(IpuModel::tiny(2));
        let [x, p, r, q, z, v, y, s, t] = ["x", "p", "r", "q", "z", "v", "y", "s", "t"]
            .map(|name| ctx.vector(name, dtype, 150, 2));
        let [alpha, beta, omega, rz, rz_old] =
            ["alpha", "beta", "omega", "rz", "rz_old"].map(|name| ctx.scalar(name, dtype));
        let zero = match dtype {
            DType::F32 => TExpr::c_f32(0.0),
            DType::DoubleWord => TExpr::c_dw(0.0),
            _ => TExpr::c_f64(0.0),
        };
        ctx.assign(x, x + p * alpha);
        ctx.assign(r, r - q * alpha);
        ctx.assign(p, z + p * beta);
        ctx.assign(s, r - v * alpha);
        ctx.assign(x, x + y * alpha + z * omega);
        ctx.assign(r, s - t * omega);
        ctx.assign(p, r + (p - v * omega) * beta);
        ctx.assign(x, zero);
        ctx.materialize(x + p * alpha);
        ctx.assign(rz_old, rz.ex());
        let graph = ctx.graph();
        let mut vertices = 0;
        for vertex in graph.compute_sets.iter().flat_map(|cs| &cs.vertices) {
            let c = &graph.codelets[vertex.codelet];
            let bufs: Vec<Buf> = (vertex.operands.iter().enumerate())
                .map(|(k, op)| elements(graph.tensors[op.tensor].dtype, op.len, k as f64))
                .collect();
            must_map(c, &vertex.kind, &bufs, &format!("{} over {dtype:?}", c.name), 1);
            vertices += 1;
        }
        assert_eq!(vertices, 9 * 2 + 1, "nine vector maps on two tiles, one scalar copy");
    }
}

/// `out[i] = x[i]; sum[i] = x[i] + y[i]; product[i] = x[i] * y[i]; diff[i]
/// = x[i] - y[0]`. Params: out · sum · product · diff (mut) · x · y.
fn nan_map() -> Codelet {
    use BinOp::*;
    let at = |p| Expr::index(p, Expr::Local(0));
    let store = |param, value| Stmt::Store { param, index: Expr::Local(0), value };
    codelet(
        vec![
            rw(DType::F32),
            rw(DType::F32),
            rw(DType::F32),
            rw(DType::F32),
            ro(DType::F32),
            ro(DType::F32),
        ],
        1,
        vec![Stmt::ParFor {
            local: 0,
            start: i(0),
            end: Expr::ParamLen(4),
            body: vec![
                store(0, at(4)),
                store(1, Expr::bin(Add, at(4), at(5))),
                store(2, Expr::bin(Mul, at(4), at(5))),
                store(3, Expr::bin(Sub, at(4), Expr::index(5, i(0)))),
            ],
        }],
    )
}

/// A NaN payload survives a map's store as it survives the flat program's:
/// a signalling NaN copied is stored quiet, its payload kept; two NaNs of
/// different payloads and signs added or multiplied keep the one `arith_*`
/// keeps, whatever the column loop's compiled code would pick; a NaN meets
/// finite values and a signed zero. In every float storage, over 70
/// elements (a chunk and a bit), every pair of the six values.
#[test]
fn a_nan_payload_survives_a_maps_store() {
    let n = 70;
    let f32s = [0x7f80_0001, 0xffc0_1234, 0x7fc0_0abc, 1.5f32.to_bits(), 0x8000_0000, 0x7fc0_0000];
    let f64s = [
        0x7ff0_0000_0000_0001,
        0xfff8_0000_0000_1234,
        0x7ff8_0000_0000_0abc,
        1.5f64.to_bits(),
        0x8000_0000_0000_0000,
        0x7ff8_0000_0000_0000,
    ];
    let pick = |k: usize, second: bool| if second { (k / 6) % 6 } else { k % 6 };
    let c = nan_map();
    for dtype in FLOATS {
        let vector = |second: bool| match dtype {
            DType::F32 => Buf::F32((0..n).map(|k| f32::from_bits(f32s[pick(k, second)])).collect()),
            DType::DoubleWord => Buf::Dw(
                (0..n).map(|k| TwoFloat::from_f(f32::from_bits(f32s[pick(k, second)]))).collect(),
            ),
            _ => Buf::F64(
                (0..n).map(|k| SoftDouble(f64::from_bits(f64s[pick(k, second)]))).collect(),
            ),
        };
        let out = floats(dtype, &vec![0.0; n]);
        let bufs = vec![out.clone(), out.clone(), out.clone(), out, vector(false), vector(true)];
        let who = format!("NaN payloads over {dtype:?}");
        must_map(&c, &VertexKind::Simple, &bufs, &who, 1);
        if dtype == DType::F32 {
            let lowered = lower(&c, &VertexKind::Simple, &bufs).unwrap();
            let got = lowered_outcome::<Native>(&c, &lowered, &VertexKind::Simple, &bufs).unwrap();
            let quiet: Vec<u64> = (0..n)
                .map(|k| f32s[k % 6])
                .map(|b| if f32::from_bits(b).is_nan() { b | 0x0040_0000 } else { b } as u64)
                .collect();
            assert_eq!(got.storage[0], quiet, "{who}: a copy keeps each payload, quieted");
        }
    }
}

/// `ParFor i in start..len(bound) { out[i] = x[i] * a[c] }`. Params: out
/// (mut) · x · a.
fn scaled(bound: usize, c: i32) -> Codelet {
    let value = Expr::bin(BinOp::Mul, Expr::index(1, Expr::Local(0)), Expr::index(2, i(c)));
    codelet(
        vec![rw(DType::F32), ro(DType::F32), ro(DType::F32)],
        1,
        vec![Stmt::ParFor {
            local: 0,
            start: i(0),
            end: Expr::ParamLen(bound),
            body: vec![Stmt::Store { param: 0, index: Expr::Local(0), value }],
        }],
    )
}

/// A load past its operand, in the first chunk and past it, a store past
/// its output and a scalar load past its operand: each panics on both
/// routes, the map instruction's chunk slices as the flat program's element
/// accesses would. With no trips to run, the scalar load past its operand
/// never happens, on either route.
#[test]
fn an_out_of_range_load_or_store_in_a_map_panics_on_both_routes() {
    for dtype in FLOATS {
        let v = |n| elements(dtype, n, 1.0);
        for (what, c, bufs, completes) in [
            ("a load past x, first chunk", scaled(0, 0), vec![v(70), v(3), v(1)], false),
            ("a load past x, second chunk", scaled(0, 0), vec![v(70), v(69), v(1)], false),
            ("a store past out", scaled(1, 0), vec![v(69), v(70), v(1)], false),
            ("a scalar load past a", scaled(0, 1), vec![v(70), v(70), v(1)], false),
            ("a scalar load past a, no trips", scaled(0, 5), vec![v(0), v(70), v(1)], true),
        ] {
            let who = format!("{what} over {dtype:?}");
            assert_eq!(check(&c, &VertexKind::Simple, &bufs, &who), Some(completes), "{who}");
            assert_eq!(lower(&c, &VertexKind::Simple, &bufs).unwrap().maps(), 1, "{who}");
        }
    }
}

/// The map's edges and its near misses, each leaving what `Interp` leaves.
/// One instruction: a `ParFor` from 1, of no trips, of one, 64, 65 and 130
/// trips (chunk boundaries), a second store reading what the first stored,
/// a float local read in every trip, a store of a constant, a parameter
/// read at a constant it does not store. The flat program: a store at `i +
/// 1`, a read of the stored parameter at a constant or at `i + 1`, a local
/// carried from trip to trip, a float local set in the trip, a cast, a
/// gather, a branch, a `For`.
#[test]
fn a_maps_edges_and_near_misses_match_the_interpreter() {
    use BinOp::*;
    // Params: y (mut) · x · a · cols; local 1 is `a[1]`, set before the loop.
    let (y, x, a) = (
        || Expr::index(0, Expr::Local(0)),
        || Expr::index(1, Expr::Local(0)),
        || Expr::index(2, i(0)),
    );
    let store = |index, value| Stmt::Store { param: 0, index, value };
    let map = |start: i32, end: Expr, body: Vec<Stmt>| {
        codelet(
            vec![rw(DType::F32), ro(DType::F32), ro(DType::F32), ro(DType::I32)],
            3,
            vec![
                Stmt::SetLocal(1, Expr::index(2, i(1))),
                Stmt::ParFor { local: 0, start: i(start), end, body },
            ],
        )
    };
    let len = || Expr::ParamLen(0);
    let short = || Expr::bin(Sub, Expr::ParamLen(0), i(1));
    let base = || store(Expr::Local(0), Expr::bin(Add, Expr::bin(Mul, x(), a()), Expr::Local(1)));
    let ok: Vec<(&str, Codelet)> = vec![
        ("the base map", map(0, len(), vec![base()])),
        ("a ParFor from 1", map(1, len(), vec![base()])),
        (
            "a second store reading the first",
            map(0, len(), vec![base(), store(Expr::Local(0), Expr::bin(Sub, y(), x()))]),
        ),
        ("a store of a constant", map(0, len(), vec![store(Expr::Local(0), f(0.0))])),
        ("a store of a local", map(0, len(), vec![store(Expr::Local(0), Expr::Local(1))])),
        (
            "a scalar read twice",
            map(
                0,
                len(),
                vec![store(Expr::Local(0), Expr::bin(Div, a(), Expr::bin(Min, x(), a())))],
            ),
        ),
    ];
    let flat: Vec<(&str, Codelet)> = vec![
        ("a store at i + 1", map(0, short(), vec![store(next(0), x())])),
        (
            "the stored parameter read at a constant",
            map(0, len(), vec![store(Expr::Local(0), Expr::bin(Add, Expr::index(0, i(0)), x()))]),
        ),
        (
            "the stored parameter read at i + 1",
            map(
                0,
                short(),
                vec![store(Expr::Local(0), Expr::bin(Add, Expr::index(0, next(0)), x()))],
            ),
        ),
        (
            "a local carried from trip to trip",
            map(0, len(), vec![Stmt::SetLocal(2, next(2)), base()]),
        ),
        ("a float local set in the trip", map(0, len(), vec![Stmt::SetLocal(1, x()), base()])),
        (
            "a cast",
            map(
                0,
                len(),
                vec![store(Expr::Local(0), Expr::Convert { to: DType::F32, arg: Box::new(x()) })],
            ),
        ),
        (
            "a gather",
            map(
                0,
                len(),
                vec![store(Expr::Local(0), Expr::index(1, Expr::index(3, Expr::Local(0))))],
            ),
        ),
        (
            "a branch",
            map(
                0,
                len(),
                vec![Stmt::If {
                    cond: Expr::bin(Lt, x(), a()),
                    then: vec![base()],
                    otherwise: vec![],
                }],
            ),
        ),
        (
            "a loop",
            map(
                0,
                len(),
                vec![Stmt::For {
                    local: 2,
                    start: i(0),
                    end: i(2),
                    step: i(1),
                    body: vec![base()],
                }],
            ),
        ),
    ];
    for n in [0, 1, 3, 64, 65, 130] {
        let cols = Buf::I32((0..n).map(|k| (k * 7 % n) as i32).collect());
        let bufs = vec![
            floats(DType::F32, &vec![-2.0; n]),
            elements(DType::F32, n, 0.5),
            elements(DType::F32, 2, -1.5),
            cols,
        ];
        for (what, c) in &ok {
            must_map(c, &VertexKind::Simple, &bufs, &format!("{what}, {n} elements"), 1);
        }
        for (what, c) in &flat {
            must_map(c, &VertexKind::Simple, &bufs, &format!("{what}, {n} elements"), 0);
        }
    }
}

// ---- the kernel instruction ------------------------------------------------

/// The backward sweep's adversarial layout: a strictly upper structure plus
/// entries the guard skips — `j == i` (row 1's column 1, and row 3's in the
/// second layout) and `j == n` (column 5 of 5, reached in the second
/// layout) — an empty row, and levels that are not in row order.
fn backward_layout(reach_n: bool) -> Vec<Buf> {
    let rptr = if reach_n { vec![0, 2, 4, 5, 7, 7] } else { vec![0, 2, 4, 5, 6, 6] };
    vec![
        Buf::F32((0..5).map(|i| (0.9 * i as f32).cos()).collect()),
        Buf::F32((0..7).map(|i| 0.3 + 0.13 * i as f32).collect()),
        Buf::F32((0..5).map(|i| 1.5 + 0.2 * i as f32).collect()),
        Buf::I32(vec![1, 4, 2, 1, 4, 3, 5]),
        Buf::I32(rptr),
    ]
}

/// The backward sweeps run as one kernel instruction on the adversarial
/// layout, and leave `Interp`'s storage bits and charge; so do rows whose
/// values are NaNs (a signalling one among them, whose payload the store
/// quiets) and a zero on the diagonal.
#[test]
fn the_backward_kernel_matches_the_interpreter_on_an_adversarial_layout() {
    let levels = VertexKind::LevelSet { levels: vec![vec![4, 3], vec![2, 1], vec![0]] };
    let nans = |mut bufs: Vec<Buf>| {
        if let [Buf::F32(z), Buf::F32(lvals), Buf::F32(ldiag), ..] = &mut bufs[..] {
            z[4] = f32::from_bits(0x7f80_0001);
            lvals[1] = f32::from_bits(0xffc0_1234);
            ldiag[0] = 0.0;
        }
        bufs
    };
    for divide in [false, true] {
        let c = template(backward_subst_template(divide));
        for (what, bufs) in [
            ("layout", backward_layout(false)),
            ("j == n reached", backward_layout(true)),
            ("NaNs and a zero pivot", nans(backward_layout(true))),
        ] {
            let who = format!("{what} (divide: {divide})");
            must_kernel(&c, &levels, &bufs, &who, Kernel::Backward { divide });
        }
    }
}

/// Row pointers shorter than `n + 1`: either kernel runs the rows whose
/// pointers exist and leaves what `Interp` leaves, and panics where it
/// does, on a row whose pointer is missing.
#[test]
fn a_short_row_pointer_runs_the_kernel_as_interp_does() {
    for divide in [false, true] {
        let c = template(backward_subst_template(divide));
        let mut bufs = backward_layout(false);
        bufs[4] = Buf::I32(vec![0, 2, 4, 5, 6]);
        let covered = VertexKind::LevelSet { levels: vec![vec![3, 2], vec![1], vec![0]] };
        let who = format!("backward, four row pointers of six (divide: {divide})");
        must_kernel(&c, &covered, &bufs, &who, Kernel::Backward { divide });
        let past = VertexKind::LevelSet { levels: vec![vec![4, 3], vec![2, 1], vec![0]] };
        panics_alike(&c, &past, &bufs, &format!("{who}: row 4"));

        let c = template(forward_subst_template(divide));
        let mut bufs = forward_layout();
        bufs[5] = Buf::I32(vec![0, 1, 2, 2, 5]);
        let covered = VertexKind::LevelSet { levels: vec![vec![0, 1, 2], vec![3]] };
        let who = format!("forward, five row pointers of six (divide: {divide})");
        must_kernel(&c, &covered, &bufs, &who, Kernel::Forward { divide });
        panics_alike(&c, &forward_levels(), &bufs, &format!("{who}: row 4"));
    }
}

/// One statement or one local off the template, a declaration off it, or
/// the template on a `Simple` vertex: no kernel instruction, and the
/// lowered program leaves what `Interp` leaves.
#[test]
fn the_backward_kernels_near_misses_run_their_lowered_program() {
    let levels = VertexKind::LevelSet { levels: vec![vec![4, 3], vec![2, 1], vec![0]] };
    let bufs = backward_layout(true);
    let (params, locals, body) = backward_subst_template(true);
    let mut no_store = body.clone();
    no_store.pop();
    let mut rptr_f32 = params.clone();
    rptr_f32[4].dtype = DType::F32;
    for (what, c) in [
        ("no store", codelet(params.clone(), locals, no_store)),
        ("a spare local", codelet(params.clone(), locals + 1, body.clone())),
        ("rptr declared F32", codelet(rptr_f32, locals, body.clone())),
    ] {
        let lowered = lower(&c, &levels, &bufs).unwrap_or_else(|| panic!("{what} lowers"));
        assert_eq!(lowered.kernel(), None, "{what}");
        assert_eq!(check(&c, &levels, &bufs, what), Some(true), "{what}");
    }
    let simple = codelet(params, locals, body);
    let lowered = lower(&simple, &VertexKind::Simple, &bufs).expect("lowers as a simple vertex");
    assert_eq!(lowered.kernel(), None);
    assert_eq!(check(&simple, &VertexKind::Simple, &bufs, "simple vertex"), Some(true));
}

/// The forward sweep's adversarial layout, `n = 5`: a strictly lower
/// structure plus entries the guard skips — `j == i` in rows 0, 3 and 4 —
/// an empty row (2), and a level of three rows.
fn forward_layout() -> Vec<Buf> {
    vec![
        Buf::F32(vec![0.0; 5]),
        Buf::F32((0..5).map(|i| 1.0 + 0.5 * i as f32).collect()),
        Buf::F32((0..7).map(|i| 0.4 + 0.11 * i as f32).collect()),
        Buf::F32((0..5).map(|i| 2.0 + 0.25 * i as f32).collect()),
        Buf::I32(vec![0, 0, 0, 1, 3, 2, 4]),
        Buf::I32(vec![0, 1, 2, 2, 5, 7]),
    ]
}

fn forward_levels() -> VertexKind {
    VertexKind::LevelSet { levels: vec![vec![0, 1, 2], vec![3], vec![4]] }
}

/// The forward sweeps run as one kernel instruction on the adversarial
/// layout, and leave `Interp`'s storage bits and charge; so do rows whose
/// values are NaNs — a signalling one in `b` of a row that takes no entry
/// (the store quiets it), two with payloads meeting in one product — and a
/// zero on the diagonal.
#[test]
fn the_forward_kernel_matches_the_interpreter_on_an_adversarial_layout() {
    let mut nans = forward_layout();
    if let [_, Buf::F32(b), Buf::F32(lvals), Buf::F32(ldiag), ..] = &mut nans[..] {
        b[0] = f32::from_bits(0x7f80_0001);
        b[3] = f32::from_bits(0xffc0_1234);
        lvals[2] = f32::from_bits(0x7fc0_0042);
        ldiag[2] = 0.0;
    }
    for divide in [false, true] {
        let c = template(forward_subst_template(divide));
        for (what, bufs) in [("layout", forward_layout()), ("NaNs and a zero pivot", nans.clone())]
        {
            let who = format!("{what} (divide: {divide})");
            must_kernel(&c, &forward_levels(), &bufs, &who, Kernel::Forward { divide });
        }
    }
}

/// A row pointer that steps back (row 2 of `[0, 1, 2, 1, 5, 7]`) runs no
/// trips and charges none, as `Interp` reads it, and row 3 then runs from
/// pointer 1; a negative one panics at its row's first trip on both routes.
/// Both sweeps read their pointers so.
#[test]
fn a_row_pointer_that_steps_back_or_goes_negative_runs_the_kernel_as_interp_does() {
    for divide in [false, true] {
        let c = template(forward_subst_template(divide));
        let mut bufs = forward_layout();
        bufs[5] = Buf::I32(vec![0, 1, 2, 1, 5, 7]);
        let who = format!("forward, a pointer stepping back (divide: {divide})");
        must_kernel(&c, &forward_levels(), &bufs, &who, Kernel::Forward { divide });
        bufs[5] = Buf::I32(vec![0, 1, -1, 2, 5, 7]);
        let who = format!("forward, a negative pointer (divide: {divide})");
        panics_alike(&c, &forward_levels(), &bufs, &format!("{who}: row 2"));

        let c = template(backward_subst_template(divide));
        let levels = VertexKind::LevelSet { levels: vec![vec![4, 3], vec![2, 1], vec![0]] };
        let mut bufs = backward_layout(true);
        bufs[4] = Buf::I32(vec![0, 2, 4, 1, 7, 7]);
        let who = format!("backward, a pointer stepping back (divide: {divide})");
        must_kernel(&c, &levels, &bufs, &who, Kernel::Backward { divide });
        bufs[4] = Buf::I32(vec![0, 2, -4, 5, 7, 7]);
        let who = format!("backward, a negative pointer (divide: {divide})");
        panics_alike(&c, &levels, &bufs, &format!("{who}: row 2"));
    }
}

/// One statement or one local off the forward template, or a declaration
/// off it: no kernel instruction, and the lowered program leaves what
/// `Interp` leaves. (Over double-word or f64 storage the template is a row
/// instruction: `every_solver_row_runs_as_one_instruction_in_every_float_domain`.)
#[test]
fn the_forward_kernels_near_misses_run_their_lowered_program() {
    let bufs = forward_layout();
    let (params, locals, body) = forward_subst_template(true);
    let mut no_store = body.clone();
    no_store.pop();
    let mut b_i32 = params.clone();
    b_i32[1].dtype = DType::I32;
    for (what, c) in [
        ("no store", codelet(params.clone(), locals, no_store)),
        ("a spare local", codelet(params.clone(), locals + 1, body.clone())),
        ("b declared I32", codelet(b_i32, locals, body.clone())),
    ] {
        let lowered =
            lower(&c, &forward_levels(), &bufs).unwrap_or_else(|| panic!("{what} lowers"));
        assert_eq!(lowered.kernel(), None, "{what}");
        assert_eq!(check(&c, &forward_levels(), &bufs, what), Some(true), "{what}");
    }
}

/// The forward template on a `Simple` vertex: no kernel instruction (the
/// kernel runs level sets only), and the lowered program leaves what
/// `Interp` leaves, row 0 alone.
#[test]
fn the_forward_kernel_requires_a_level_set_vertex() {
    let bufs = forward_layout();
    for divide in [false, true] {
        let c = template(forward_subst_template(divide));
        let lowered = lower(&c, &VertexKind::Simple, &bufs).expect("lowers as a simple vertex");
        assert_eq!(lowered.kernel(), None, "divide: {divide}");
        let who = format!("simple vertex (divide: {divide})");
        assert_eq!(check(&c, &VertexKind::Simple, &bufs, &who), Some(true), "{who}");
    }
}

/// A NaN of its own payload for every `k`: signs, signalling and quiet ones
/// alternate, and the low bits (`k + 1`) stay apart when an operation
/// quiets it.
fn nan(k: u32) -> f32 {
    let sign = (k % 2) << 31;
    let quiet = if k.is_multiple_of(3) { 0 } else { 0x0040_0000 };
    f32::from_bits(sign | 0x7f80_0000 | quiet | (k + 1))
}

/// One vertex per kernel family whose rows meet two NaNs of different
/// payloads in every operation: the SpMV and its residual (`d_i · x_i`,
/// `v_k · x_{c_k}`, the sum, `b_i − …`), both forward sweeps (`l_ij · w_j`,
/// `b_i − …`, `… / d_i`), both backward sweeps (`u_ij · z_j`, the sum,
/// `z_i − …`, the divide) and the Gauss-Seidel update (`v_k · x_{c_k}`,
/// `acc − …`, `… / d_i`), a dot (`x_i · y_i`, the sum) and a sum of
/// partials.
fn nan_rows() -> Vec<(String, Codelet, VertexKind, Vec<Buf>, Kernel)> {
    let nans = |from: u32, n: u32| Buf::F32((from..from + n).map(nan).collect());
    let mut cases = vec![];
    for residual in [false, true] {
        let mut bufs = vec![Buf::F32(vec![0.0; 4]), nans(0, 4)];
        if residual {
            bufs.push(nans(40, 4));
        }
        // Row 0 gathers x_0 (its own), row 2 none, row 3 three entries.
        let (cols, rptr) = (Buf::I32(vec![0, 1, 3, 2, 0, 1]), Buf::I32(vec![0, 2, 3, 3, 6]));
        bufs.extend([nans(10, 4), nans(20, 6), cols, rptr]);
        let (who, c) = (format!("spmv NaN rows (residual: {residual})"), spmv_template(residual));
        cases.push((who, template(c), VertexKind::Simple, bufs, Kernel::Spmv { residual }));
    }
    for divide in [false, true] {
        let mut bufs = forward_layout();
        let [_, b, lvals, ldiag, ..] = &mut bufs[..] else { unreachable!() };
        (*b, *lvals, *ldiag) = (nans(0, 5), nans(10, 7), nans(20, 5));
        let who = format!("forward NaN rows (divide: {divide})");
        let c = template(forward_subst_template(divide));
        cases.push((who, c, forward_levels(), bufs, Kernel::Forward { divide }));

        let mut bufs = backward_layout(true);
        let [z, lvals, ldiag, ..] = &mut bufs[..] else { unreachable!() };
        (*z, *lvals, *ldiag) = (nans(0, 5), nans(10, 7), nans(20, 5));
        let who = format!("backward NaN rows (divide: {divide})");
        let c = template(backward_subst_template(divide));
        cases.push((who, c, backward_levels(), bufs, Kernel::Backward { divide }));
    }
    let mut bufs = gs_layout();
    let [x, b, diag, vals, ..] = &mut bufs[..] else { unreachable!() };
    (*x, *b, *diag, *vals) = (nans(0, 7), nans(10, 5), nans(20, 5), nans(30, 8));
    let who = "Gauss-Seidel NaN rows".to_string();
    cases.push((who, gauss_seidel(), gs_levels(true), bufs, Kernel::GaussSeidel));
    let dot = Kernel::Dot { square: false };
    let bufs = vec![Buf::F32(vec![0.0]), nans(0, 5), nans(10, 5)];
    cases.push(("dot NaN terms".into(), dot.codelet("dot"), VertexKind::Simple, bufs, dot));
    let bufs = vec![Buf::F32(vec![0.0]), nans(0, 6)];
    cases.push((
        "sum of NaN partials".into(),
        Kernel::Sum.codelet("sum"),
        VertexKind::Simple,
        bufs,
        Kernel::Sum,
    ));
    cases
}

/// On the rows of [`nan_rows`] a native operation returns one of the two
/// NaNs, and which depends on how the compiler ordered its operands, so
/// each order leaves its own bits. Every kernel leaves `Interp`'s: it
/// computes a NaN row again in the interpreter's order.
#[test]
fn a_nan_row_keeps_the_interpreters_payload_whatever_the_operand_order() {
    for (who, c, kind, bufs, kernel) in nan_rows() {
        must_kernel(&c, &kind, &bufs, &who, kernel);
    }
}

/// f32 operators that return, where two NaNs meet, the second one
/// (quieted): the order a compiler may pick as well as the other.
struct Swapped;

impl Swapped {
    fn pick(x: f32, y: f32, native: f32) -> f32 {
        if x.is_nan() && y.is_nan() {
            f32::from_bits(y.to_bits() | 0x0040_0000)
        } else {
            native
        }
    }
}

impl F32Ops for Swapped {
    fn add(x: f32, y: f32) -> f32 {
        Swapped::pick(x, y, x + y)
    }

    fn sub(x: f32, y: f32) -> f32 {
        Swapped::pick(x, y, x - y)
    }

    fn mul(x: f32, y: f32) -> f32 {
        Swapped::pick(x, y, x * y)
    }

    fn div(x: f32, y: f32) -> f32 {
        Swapped::pick(x, y, x / y)
    }
}

/// The rows of [`nan_rows`] with every kernel's operators [`Swapped`]: the
/// other payload wherever two NaNs meet, which only the NaN row's
/// recompute through the interpreter's operators turns back into
/// `Interp`'s bits. Without that recompute each family fails here, in debug
/// and in release builds alike.
#[test]
fn a_nan_row_keeps_the_interpreters_payload_under_swapped_operators() {
    for (who, c, kind, bufs, kernel) in nan_rows() {
        assert_eq!(lower(&c, &kind, &bufs).unwrap().kernel(), Some(kernel), "{who}");
        assert_eq!(check_with::<Swapped>(&c, &kind, &bufs, &who), Some(true), "{who}");
    }
}

/// The Gauss-Seidel adversarial layout, five rows of `b` and `diag` over
/// an `x` of seven (two halo entries): rows that read a halo entry, one
/// that reads its own column, one that reads a row updated before it in the
/// same sweep, and an empty row (2). Params: x · b · diag · vals · cols ·
/// rptr.
fn gs_layout() -> Vec<Buf> {
    vec![
        Buf::F32((0..7).map(|i| (0.7 * i as f32).sin()).collect()),
        Buf::F32((0..5).map(|i| 1.0 + 0.5 * i as f32).collect()),
        Buf::F32((0..5).map(|i| 4.0 + 0.25 * i as f32).collect()),
        Buf::F32((0..8).map(|i| -0.3 + 0.07 * i as f32).collect()),
        Buf::I32(vec![1, 5, 0, 3, 6, 2, 4, 0]),
        Buf::I32(vec![0, 2, 3, 3, 6, 8]),
    ]
}

/// The forward (`forward`) or the backward sweep's levels over
/// [`gs_layout`]'s rows.
fn gs_levels(forward: bool) -> VertexKind {
    let levels = if forward {
        vec![vec![0, 2], vec![1, 3], vec![4]]
    } else {
        vec![vec![4], vec![3, 1], vec![2, 0]]
    };
    VertexKind::LevelSet { levels }
}

fn backward_levels() -> VertexKind {
    VertexKind::LevelSet { levels: vec![vec![4, 3], vec![2, 1], vec![0]] }
}

/// Both routes panic and leave the same storage bits behind: every row
/// before the one that panics stored alike, so it is the same row. Every
/// kernel's panic cases go through it; a map's do not, since a map stores a
/// chunk at a time, so where its storage stands at a panic differs.
fn panics_alike(c: &Codelet, kind: &VertexKind, bufs: &[Buf], who: &str) {
    let l = lower(c, kind, bufs).unwrap_or_else(|| panic!("{who}: lowers"));
    let cost = CostModel::default();
    let run = |lowered: bool| {
        let mut bufs = bufs.to_vec();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut p = params(c, &mut bufs);
            if lowered {
                l.run_vertex(kind, &mut p, &mut Regs::default(), &cost, WORKERS);
            } else {
                Interp::new(&cost, &mut p, c.num_locals, WORKERS).run_vertex(kind, &c.body);
            }
        }))
        .is_err();
        (panicked, bufs.iter().map(Buf::bits).collect::<Vec<_>>())
    };
    let want = run(false);
    assert!(want.0, "{who}: Interp must panic");
    assert_eq!(want, run(true), "{who}: the lowered route panics on another row");
}

/// The Gauss-Seidel update runs as one kernel instruction in either level
/// order and leaves `Interp`'s storage bits and charge: on the adversarial
/// layout; with NaNs (a signalling one in `b`, whose payload the store
/// quiets) and a zero pivot on the empty row; with every row empty; with no
/// levels, empty levels, and a row id repeated.
#[test]
fn the_gauss_seidel_kernel_matches_the_interpreter_on_an_adversarial_layout() {
    let mut nans = gs_layout();
    if let [Buf::F32(x), Buf::F32(b), Buf::F32(diag), Buf::F32(vals), ..] = &mut nans[..] {
        b[0] = f32::from_bits(0x7f80_0001);
        x[5] = f32::from_bits(0xffc0_1234);
        vals[3] = f32::from_bits(0x7fc0_0042);
        diag[2] = 0.0;
    }
    let mut empty = gs_layout();
    empty[5] = Buf::I32(vec![0; 6]);
    for forward in [true, false] {
        for (what, bufs) in [
            ("layout", gs_layout()),
            ("NaNs and a zero pivot", nans.clone()),
            ("empty", empty.clone()),
        ] {
            let who = format!("{what} (forward: {forward})");
            must_kernel(&gauss_seidel(), &gs_levels(forward), &bufs, &who, Kernel::GaussSeidel);
        }
    }
    for (what, levels) in [
        ("no levels", vec![]),
        ("empty levels", vec![vec![], vec![3, 1], vec![]]),
        ("a row id repeated", vec![vec![1], vec![4, 1]]),
    ] {
        let kind = VertexKind::LevelSet { levels };
        must_kernel(&gauss_seidel(), &kind, &gs_layout(), what, Kernel::GaussSeidel);
    }
}

/// Row pointers shorter than the rows run the rows whose pointers exist; a
/// pointer that steps back runs no trips for its row and charges none; a
/// negative pointer, a column past `x`, a row id past `b` and a missing
/// pointer panic — each on the same row on both routes.
#[test]
fn the_gauss_seidel_kernel_panics_where_the_interpreter_does() {
    let gs = gauss_seidel();
    let with = |at: usize, buf: Buf| {
        let mut bufs = gs_layout();
        bufs[at] = buf;
        bufs
    };
    let short = with(5, Buf::I32(vec![0, 2, 3, 3]));
    let covered = VertexKind::LevelSet { levels: vec![vec![0, 2], vec![1]] };
    must_kernel(&gs, &covered, &short, "three row pointers of six", Kernel::GaussSeidel);
    let back = with(5, Buf::I32(vec![0, 2, 3, 1, 6, 8]));
    must_kernel(&gs, &gs_levels(true), &back, "a pointer stepping back", Kernel::GaussSeidel);
    for (what, bufs, kind) in [
        ("a missing pointer", short.clone(), gs_levels(true)),
        ("a negative pointer", with(5, Buf::I32(vec![0, 2, -1, 3, 6, 8])), gs_levels(true)),
        ("column 7 of 7", with(4, Buf::I32(vec![1, 5, 0, 3, 7, 2, 4, 0])), gs_levels(false)),
        ("row id 5 of 5", gs_layout(), VertexKind::LevelSet { levels: vec![vec![0, 1], vec![5]] }),
    ] {
        assert_eq!(lower(&gs, &kind, &bufs).unwrap().kernel(), Some(Kernel::GaussSeidel), "{what}");
        panics_alike(&gs, &kind, &bufs, what);
    }
}

/// A guard around the update, a cast in it, a spare local, double-word
/// storage, or the template on a `Simple` vertex: no kernel
/// instruction, and the lowered program leaves what `Interp` leaves.
#[test]
fn the_gauss_seidel_kernels_near_misses_run_their_lowered_program() {
    use BinOp::*;
    let (params, locals, body) = gauss_seidel_template();
    let with_update = |locals: usize, trip: Vec<Stmt>| {
        let mut body = body.clone();
        let Stmt::For { body: loop_body, .. } = &mut body[3] else { unreachable!("the loop") };
        *loop_body = trip;
        codelet(params.clone(), locals, body)
    };
    let update = |x: Expr| {
        let product = Expr::bin(Mul, Expr::index(3, Expr::Local(4)), x);
        Stmt::SetLocal(1, Expr::bin(Sub, Expr::Local(1), product))
    };
    let gather = || Expr::index(0, Expr::index(4, Expr::Local(4)));
    let guard = with_update(
        locals + 1,
        vec![
            Stmt::SetLocal(5, Expr::index(4, Expr::Local(4))),
            Stmt::If {
                cond: Expr::bin(Ne, Expr::Local(5), Expr::Local(0)),
                then: vec![update(gather())],
                otherwise: vec![],
            },
        ],
    );
    let cast = with_update(
        locals,
        vec![update(Expr::Convert { to: DType::F32, arg: Box::new(gather()) })],
    );
    let mut wide = gs_layout();
    for v in &mut wide[..4] {
        let Buf::F32(xs) = v else { unreachable!("x, b, diag and vals are F32") };
        *v = Buf::Dw(xs.iter().map(|&x| TwoFloat::from_f64(x as f64 / 3.0)).collect());
    }
    for forward in [true, false] {
        let kind = gs_levels(forward);
        // The cast keeps the loop off the accumulate instruction too.
        for (what, c, bufs, loops) in [
            ("a guard", guard.clone(), gs_layout(), 1),
            ("a cast", cast.clone(), gs_layout(), 0),
            ("a spare local", codelet(params.clone(), locals + 1, body.clone()), gs_layout(), 1),
            ("double-word storage", gauss_seidel(), wide.clone(), 1),
        ] {
            let who = format!("{what} (forward: {forward})");
            let lowered = lower(&c, &kind, &bufs).unwrap_or_else(|| panic!("{who} lowers"));
            assert_eq!((lowered.kernel(), lowered.loops()), (None, loops), "{who}");
            assert_eq!(check(&c, &kind, &bufs, &who), Some(true), "{who}");
        }
    }
    let simple = gauss_seidel();
    let lowered = lower(&simple, &VertexKind::Simple, &gs_layout()).expect("lowers");
    assert_eq!(lowered.kernel(), None);
    assert_eq!(check(&simple, &VertexKind::Simple, &gs_layout(), "simple vertex"), Some(true));
}

/// One statement or one local off the SpMV template, a declaration off it,
/// or the template on a `LevelSet` vertex: no kernel instruction, and the
/// lowered program leaves what `Interp` leaves. Short row pointers and a
/// short diagonal run the kernel to the row where `Interp` panics.
#[test]
fn the_spmv_kernels_near_misses_run_their_lowered_program() {
    let [vals, cols, rptr] = rows(DType::F32, false);
    let v = |k| vector(DType::F32, k);
    let bufs = vec![v(0.0), v(1.0), v(2.0), v(3.0), vals, cols, rptr];
    let (params, locals, body) = spmv_template(true);
    let mut no_store = body.clone();
    let [Stmt::ParFor { body: trip, .. }] = &mut no_store[..] else { unreachable!("one ParFor") };
    trip.pop();
    let mut vals_i32 = params.clone();
    vals_i32[4].dtype = DType::I32;
    for (what, c) in [
        ("no store", codelet(params.clone(), locals, no_store)),
        ("a spare local", codelet(params.clone(), locals + 1, body.clone())),
        ("vals declared I32", codelet(vals_i32, locals, body.clone())),
    ] {
        let lowered = lower(&c, &VertexKind::Simple, &bufs).unwrap_or_else(|| panic!("{what}"));
        assert_eq!(lowered.kernel(), None, "{what}");
        assert_eq!(check(&c, &VertexKind::Simple, &bufs, what), Some(true), "{what}");
    }
    let c = codelet(params, locals, body);
    let levels = VertexKind::LevelSet { levels: vec![vec![0, 2], vec![1]] };
    let lowered = lower(&c, &levels, &bufs).expect("lowers for a level set");
    assert_eq!(lowered.kernel(), None);
    assert_eq!(check(&c, &levels, &bufs, "a level set"), Some(true));

    for (what, at, short) in [
        ("three row pointers of five", 6, Buf::I32(vec![0, 3, 5])),
        ("a diagonal of three", 3, Buf::F32(vec![2.0, 2.5, 3.0])),
    ] {
        let mut bufs = bufs.clone();
        bufs[at] = short;
        let kernel = lower(&c, &VertexKind::Simple, &bufs).unwrap().kernel();
        assert_eq!(kernel, Some(Kernel::Spmv { residual: true }), "{what}");
        panics_alike(&c, &VertexKind::Simple, &bufs, what);
    }
}

/// `n` F32 values, signs and magnitudes mixed, none of them NaN.
fn terms(n: usize, k: f32) -> Buf {
    Buf::F32((0..n).map(|i| (k + 0.37 * i as f32).sin() * (1.0 + i as f32)).collect())
}

/// The dot (`x · y` and `x · x`) and the sum of partials run as one kernel
/// instruction each and leave `Interp`'s storage bits and charge: no terms
/// (the `ParFor` makespan's floor), one, 23 and 64 (a tile's worth), 150;
/// a `−0.0` sum (`0 + −0` is `+0`); a signalling NaN, whose payload the
/// store quiets; infinities that meet as `∞ − ∞`; a partial longer than
/// one, of which the stage writes element 0.
#[test]
fn the_reduction_kernels_match_the_interpreter() {
    let run = |kernel: Kernel, bufs: &[Buf], who: &str| {
        must_kernel(&kernel.codelet("reduction"), &VertexKind::Simple, bufs, who, kernel)
    };
    let (dot, square) = (Kernel::Dot { square: false }, Kernel::Dot { square: true });
    let zeros = Buf::F32(vec![-0.0; 3]);
    let snan = Buf::F32(vec![1.0, f32::from_bits(0x7f80_0001), 2.0]);
    let infs = Buf::F32(vec![f32::INFINITY, 1.0, f32::NEG_INFINITY]);
    let mut cases: Vec<(String, [Buf; 3])> = [0, 1, 23, 64, 150]
        .into_iter()
        .map(|n| (format!("{n} terms"), [Buf::F32(vec![7.0]), terms(n, 0.0), terms(n, 1.0)]))
        .collect();
    for (what, q) in [("negative zeros", zeros), ("a signalling NaN", snan), ("∞ − ∞", infs)]
    {
        cases.push((what.into(), [Buf::F32(vec![0.0]), q.clone(), terms(3, 2.0)]));
        let longer = format!("{what}, a longer partial");
        cases.push((longer, [Buf::F32(vec![3.0, 4.0]), q, terms(3, 2.0)]));
    }
    for (who, bufs) in &cases {
        run(dot, bufs, who);
        run(square, &bufs[..2], who);
        run(Kernel::Sum, &bufs[..2], who);
    }
}

/// A `y` shorter than `x` panics on the element where `Interp` does, and an
/// empty partial on its store, for either stage; both routes leave the same
/// storage behind.
#[test]
fn the_reduction_kernels_panic_where_the_interpreter_does() {
    let dot = Kernel::Dot { square: false };
    let (p, none) = (|| Buf::F32(vec![5.0]), || Buf::F32(vec![]));
    for (what, kernel, bufs) in [
        ("y of 3 for x of 5", dot, vec![p(), terms(5, 0.0), terms(3, 1.0)]),
        ("an empty y", dot, vec![p(), terms(5, 0.0), none()]),
        ("an empty partial", dot, vec![none(), terms(5, 0.0), terms(5, 1.0)]),
        ("an empty partial, squared", Kernel::Dot { square: true }, vec![none(), terms(5, 0.0)]),
        ("an empty partial, summed", Kernel::Sum, vec![none(), terms(5, 0.0)]),
        ("an empty partial of no terms", Kernel::Sum, vec![none(), none()]),
    ] {
        let c = kernel.codelet("reduction");
        assert_eq!(lower(&c, &VertexKind::Simple, &bufs).unwrap().kernel(), Some(kernel), "{what}");
        panics_alike(&c, &VertexKind::Simple, &bufs, what);
    }
}

/// A sum of the operands rather than their product, a cast of `x_i`, a
/// scalar leaf, a gather, a double-word partial, a spare local, or the
/// template on a `LevelSet` vertex: no kernel instruction, and the lowered
/// program leaves what `Interp` leaves. The sum's near misses too: a spare
/// local, a double-word partial, a level set.
#[test]
fn the_reduction_kernels_near_misses_run_their_lowered_program() {
    use BinOp::*;
    let (params, locals, body) = dot_template(false);
    let with_term = |term: Expr, params: Vec<ParamDecl>| {
        let mut body = body.clone();
        let Stmt::ParFor { body: trip, .. } = &mut body[1] else { unreachable!("the loop") };
        trip[0] = Stmt::SetLocal(1, Expr::bin(Add, Expr::Local(1), term));
        codelet(params, locals, body)
    };
    let (x_i, y_i) = (|| Expr::index(1, Expr::Local(0)), || Expr::index(2, Expr::Local(0)));
    let mut gathered = params.clone();
    gathered.push(ro(DType::I32));
    let cast = Expr::Convert { to: DType::F32, arg: Box::new(x_i()) };
    let gather = Expr::index(2, Expr::index(3, Expr::Local(0)));
    let bufs = vec![Buf::F32(vec![0.0]), terms(9, 0.0), terms(9, 1.0)];
    let mut with_cols = bufs.clone();
    with_cols.push(Buf::I32(vec![8, 0, 3, 3, 1, 7, 2, 6, 5]));
    // A double-word partial: an F32 accumulator over double-word terms would
    // change its dtype across the loop's back-edge, and not lower.
    let wide = |bufs: &[Buf]| -> Vec<Buf> {
        let mut bufs = bufs.to_vec();
        bufs[0] = Buf::Dw(vec![TwoFloat::from_f64(1.0 / 3.0)]);
        bufs
    };
    let levels = VertexKind::LevelSet { levels: vec![vec![0, 2], vec![1]] };
    let simple = VertexKind::Simple;
    let template = codelet(params.clone(), locals, body.clone());
    let (sum_params, sum_locals, sum_body) = sum_template();
    let sum = codelet(sum_params.clone(), sum_locals, sum_body.clone());
    let sum_bufs = bufs[..2].to_vec();
    for (what, c, kind, bufs) in [
        (
            "a sum, not a product",
            with_term(Expr::bin(Add, x_i(), y_i()), params.clone()),
            &simple,
            bufs.clone(),
        ),
        ("a cast", with_term(Expr::bin(Mul, cast, y_i()), params.clone()), &simple, bufs.clone()),
        (
            "a scalar leaf",
            with_term(Expr::bin(Mul, x_i(), Expr::index(2, i(0))), params.clone()),
            &simple,
            bufs.clone(),
        ),
        ("a gather", with_term(Expr::bin(Mul, x_i(), gather), gathered), &simple, with_cols),
        ("a double-word partial", template.clone(), &simple, wide(&bufs)),
        ("a spare local", codelet(params.clone(), locals + 1, body.clone()), &simple, bufs.clone()),
        ("a level set", template, &levels, bufs.clone()),
        (
            "a sum with a spare local",
            codelet(sum_params, sum_locals + 1, sum_body),
            &simple,
            sum_bufs.clone(),
        ),
        ("a double-word sum", sum.clone(), &simple, wide(&sum_bufs)),
        ("a sum on a level set", sum, &levels, sum_bufs),
    ] {
        let lowered = lower(&c, kind, &bufs).unwrap_or_else(|| panic!("{what} lowers"));
        assert_eq!(lowered.kernel(), None, "{what}");
        assert_eq!(check(&c, kind, &bufs, what), Some(true), "{what}");
    }
}
