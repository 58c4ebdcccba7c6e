//! The TensorDSL context: symbolic execution of tensor programs.
//!
//! `DslCtx` is the embedding of TensorDSL (paper §III). Running Rust code
//! against it is the *symbolic execution* step of the paper's pipeline: the
//! code does not compute values, it extends a dataflow graph and an
//! execution schedule —
//!
//! * [`DslCtx::assign`] / [`DslCtx::materialize`] lower an expression tree
//!   into **one fused codelet per tile** scheduled in the current program
//!   step (lazy materialisation, §III-C);
//! * [`DslCtx::reduce`] emits the two-stage (per-tile partials → tile 0)
//!   reduction;
//! * [`DslCtx::if_`] / [`DslCtx::while_`] / [`DslCtx::repeat`] manage the
//!   **control-flow stack** (§III-B): each branch pushes a program step,
//!   symbolically executes its lambda, then pops;
//! * scalars broadcast against vectors by NumPy's rule, inside the
//!   generated codelets (no expansion in memory).
//!
//! [`DslCtx::build_engine`] hands the result to the graph compiler and
//! engine.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use graph::codelet::{BinOp, Codelet, Expr, Kernel, ParamDecl, Stmt, Value};
use graph::compute::{ComputeSet, TensorSlice, Vertex, VertexKind};
use graph::engine::{Engine, HostCallback, HostView};
use graph::graph::{CompileError, Graph};
use graph::passes::CompileOptions;
use graph::program::{ElemCopy, ExchangeStep, Prog};
use graph::tensor::{TensorChunk, TensorDef, TensorId};
use ipu_sim::cost::DType;
use ipu_sim::model::IpuModel;

use crate::texpr::{TExpr, TensorRef};

/// The TensorDSL context.
pub struct DslCtx {
    graph: Graph,
    /// The control-flow stack: the top frame is the program step currently
    /// being populated by symbolic execution.
    frames: Vec<Vec<Prog>>,
    fresh: usize,
    /// Host callbacks; a callback's id (`Prog::Callback(id)`) is its index.
    callbacks: Vec<HostCallback>,
}

impl DslCtx {
    pub fn new(model: IpuModel) -> Self {
        DslCtx {
            graph: Graph::new(model),
            frames: vec![Vec::new()],
            fresh: 0,
            callbacks: Vec::new(),
        }
    }

    pub fn model(&self) -> &IpuModel {
        &self.graph.model
    }

    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}_{}", self.fresh)
    }

    /// Append a step to the current program frame.
    pub fn emit(&mut self, p: Prog) {
        self.frames.last_mut().expect("frame stack never empty").push(p);
    }

    // ---------------------------------------------------------------
    // Tensor creation
    // ---------------------------------------------------------------

    /// Add a tensor with an explicit mapping.
    pub fn add_tensor(&mut self, def: TensorDef) -> Result<TensorRef, CompileError> {
        let dtype = def.dtype;
        let scalar = def.len() == 1;
        let id = self.graph.add_tensor(def)?;
        Ok(TensorRef { id, dtype, scalar })
    }

    /// A scalar (length-1, tile-0) tensor.
    pub fn scalar(&mut self, name: impl Into<String>, dtype: DType) -> TensorRef {
        self.add_tensor(TensorDef::on_tile(name, dtype, 1, 0)).expect("scalar allocation")
    }

    /// A vector distributed linearly over the first `tiles` tiles.
    pub fn vector(
        &mut self,
        name: impl Into<String>,
        dtype: DType,
        len: usize,
        tiles: usize,
    ) -> TensorRef {
        self.add_tensor(TensorDef::linear(name, dtype, len, tiles)).expect("vector allocation")
    }

    /// A tensor with the same mapping as `like` (possibly another dtype).
    pub fn alloc_like(&mut self, like: TensorRef, dtype: DType) -> TensorRef {
        let name = self.fresh_name("t");
        let chunks = self.graph.tensors[like.id].chunks.clone();
        self.add_tensor(TensorDef { name, dtype, chunks }).expect("alloc_like")
    }

    pub fn chunks_of(&self, t: TensorRef) -> &[TensorChunk] {
        &self.graph.tensors[t.id].chunks
    }

    pub fn owned_len(&self, t: TensorRef) -> usize {
        self.graph.tensors[t.id].owned_len()
    }

    // ---------------------------------------------------------------
    // Materialisation
    // ---------------------------------------------------------------

    /// Materialise `expr` into a fresh tensor (mapping taken from the first
    /// vector leaf, or a scalar if all leaves are scalar).
    pub fn materialize(&mut self, expr: impl Into<TExpr>) -> TensorRef {
        let expr = expr.into();
        let dtype = expr.dtype();
        let dst = if let Some(v) = expr.leaves().iter().find(|l| !l.scalar) {
            self.alloc_like(*v, dtype)
        } else {
            let name = self.fresh_name("s");
            self.scalar(name, dtype)
        };
        self.assign(dst, expr);
        dst
    }

    /// Materialise `expr` into `dst`: one fused codelet per tile chunk,
    /// elementwise over the *owned* elements, scalars broadcast.
    pub fn assign(&mut self, dst: TensorRef, expr: impl Into<TExpr>) {
        let expr = expr.into();
        let leaves = expr.leaves();
        // Every vector leaf must share dst's owned layout.
        let dst_chunks = self.graph.tensors[dst.id].chunks.clone();
        for l in leaves.iter().filter(|l| !l.scalar && l.id != dst.id) {
            let lc = &self.graph.tensors[l.id].chunks;
            assert_eq!(
                lc.len(),
                dst_chunks.len(),
                "vector leaf '{}' not aligned with destination '{}'",
                self.graph.tensors[l.id].name,
                self.graph.tensors[dst.id].name
            );
            for (a, b) in lc.iter().zip(&dst_chunks) {
                assert!(
                    a.tile == b.tile && a.owned == b.owned,
                    "vector leaf mapping mismatch: {:?} vs {:?}",
                    a,
                    b
                );
            }
        }

        // Build the fused codelet: params = [dst] ++ leaves (dedup, skipping
        // dst if it is also a leaf — read via the mutable param).
        let mut param_of: HashMap<TensorId, usize> = HashMap::new();
        let mut params = vec![ParamDecl { dtype: dst.dtype, mutable: true }];
        param_of.insert(dst.id, 0);
        let mut param_leaves: Vec<TensorRef> = Vec::new();
        for l in &leaves {
            if let Entry::Vacant(slot) = param_of.entry(l.id) {
                slot.insert(params.len());
                params.push(ParamDecl { dtype: l.dtype, mutable: false });
                param_leaves.push(*l);
            }
        }
        let body_expr = lower(&expr, &param_of, &leaves);
        let codelet = Codelet {
            name: self.fresh_name("fused"),
            params,
            num_locals: 1,
            body: vec![Stmt::ParFor {
                local: 0,
                start: Expr::Const(Value::I32(0)),
                end: Expr::ParamLen(0),
                body: vec![Stmt::Store { param: 0, index: Expr::Local(0), value: body_expr }],
            }],
        };
        let codelet = self.graph.add_codelet(codelet).expect("fused codelet");

        // One vertex per destination chunk.
        let mut cs = ComputeSet::new(self.fresh_name("materialize"));
        for (ci, chunk) in dst_chunks.iter().enumerate() {
            if chunk.owned == 0 {
                continue;
            }
            let mut operands =
                vec![TensorSlice { tensor: dst.id, start: chunk.start, len: chunk.owned }];
            for l in &param_leaves {
                if l.scalar {
                    operands.push(TensorSlice { tensor: l.id, start: 0, len: 1 });
                } else {
                    let lc = self.graph.tensors[l.id].chunks[ci];
                    operands.push(TensorSlice { tensor: l.id, start: lc.start, len: lc.owned });
                }
            }
            cs.add(Vertex { tile: chunk.tile, codelet, operands, kind: VertexKind::Simple });
        }
        let cs = self.graph.add_compute_set(cs).expect("materialize compute set");
        self.emit(Prog::Execute(cs));
    }

    /// Sum-reduce `expr` over its owned elements into a fresh scalar.
    /// The reduction is fused: the expression is evaluated inside the
    /// per-tile accumulation loop (stage 1), partials are gathered to tile
    /// 0 and summed (stage 2).
    pub fn reduce(&mut self, expr: impl Into<TExpr>) -> TensorRef {
        let expr = expr.into();
        let dtype = expr.dtype();
        let name = self.fresh_name("red");
        let out = self.scalar(name, dtype);
        self.reduce_into(out, expr);
        out
    }

    /// Sum-reduce `expr` into an existing scalar tensor.
    pub fn reduce_into(&mut self, out: TensorRef, expr: impl Into<TExpr>) {
        let expr = expr.into();
        assert!(out.scalar, "reduce target must be a scalar");
        let dtype = expr.dtype();
        let leaves = expr.leaves();
        let vec_leaf = leaves
            .iter()
            .find(|l| !l.scalar)
            .copied()
            .unwrap_or_else(|| panic!("reduce of all-scalar expression; use assign"));
        let chunks = self.graph.tensors[vec_leaf.id].chunks.clone();
        let active: Vec<&TensorChunk> = chunks.iter().filter(|c| c.owned > 0).collect();

        // Partials: one element per active chunk, resident on its tile.
        let mut pstart = 0usize;
        let pchunks: Vec<TensorChunk> = active
            .iter()
            .map(|c| {
                let ch = TensorChunk { tile: c.tile, start: pstart, owned: 1, total: 1 };
                pstart += 1;
                ch
            })
            .collect();
        let pname = self.fresh_name("partials");
        let partials = self
            .add_tensor(TensorDef { name: pname, dtype, chunks: pchunks })
            .expect("partials tensor");

        // Stage 1 codelet: partial[0] = sum over owned of expr(i).
        let mut param_of: HashMap<TensorId, usize> = HashMap::new();
        let mut params = vec![ParamDecl { dtype, mutable: true }]; // partial
        let mut param_leaves: Vec<TensorRef> = Vec::new();
        for l in &leaves {
            if let Entry::Vacant(slot) = param_of.entry(l.id) {
                slot.insert(params.len());
                params.push(ParamDecl { dtype: l.dtype, mutable: false });
                param_leaves.push(*l);
            }
        }
        // The solvers' dot products and norms are the dot kernel's template;
        // any other expression gets a body of its own.
        let stage1 = match dot_square(&expr) {
            Some(square) => Kernel::Dot { square }.codelet(&self.fresh_name("reduce1")),
            None => {
                let body_expr = lower(&expr, &param_of, &leaves);
                let zero = zero_const(dtype);
                let lead = param_leaves
                    .iter()
                    .position(|l| l.id == vec_leaf.id)
                    .expect("vector leaf is a parameter")
                    + 1;
                Codelet {
                    name: self.fresh_name("reduce1"),
                    params,
                    num_locals: 2, // 0 = loop index, 1 = accumulator
                    body: vec![
                        Stmt::SetLocal(1, Expr::Const(zero)),
                        Stmt::ParFor {
                            local: 0,
                            start: Expr::Const(Value::I32(0)),
                            end: Expr::ParamLen(lead),
                            body: vec![Stmt::SetLocal(
                                1,
                                Expr::bin(BinOp::Add, Expr::Local(1), body_expr),
                            )],
                        },
                        Stmt::Store {
                            param: 0,
                            index: Expr::Const(Value::I32(0)),
                            value: Expr::Local(1),
                        },
                    ],
                }
            }
        };
        let stage1 = self.graph.add_codelet(stage1).expect("reduce stage 1");
        let mut cs1 = ComputeSet::new(self.fresh_name("reduce_partials"));
        for (k, chunk) in active.iter().enumerate() {
            let mut operands = vec![TensorSlice { tensor: partials.id, start: k, len: 1 }];
            for l in &param_leaves {
                if l.scalar {
                    operands.push(TensorSlice { tensor: l.id, start: 0, len: 1 });
                } else {
                    let lc = self.graph.tensors[l.id]
                        .chunks
                        .iter()
                        .find(|c| c.tile == chunk.tile)
                        .copied()
                        .expect("aligned leaf chunk");
                    operands.push(TensorSlice { tensor: l.id, start: lc.start, len: lc.owned });
                }
            }
            cs1.add(Vertex {
                tile: chunk.tile,
                codelet: stage1,
                operands,
                kind: VertexKind::Simple,
            });
        }
        let cs1 = self.graph.add_compute_set(cs1).expect("reduce cs1");
        self.emit(Prog::Execute(cs1));

        // Stage 2: reduce the partials down to the output tile. For large
        // tile counts this is hierarchical (√T groups reduced on group
        // leaders, then the leaders on the output tile) — a flat gather of
        // thousands of 4-byte values onto one tile would serialise on its
        // receive port, which is not how Poplar's reduction library works.
        let mut partials = partials;
        let mut active_count = active.len();
        while active_count > 64 {
            let group = (active_count as f64).sqrt().ceil() as usize;
            let num_groups = active_count.div_ceil(group);
            // Leader partials: one element per group, on the group's first
            // tile.
            let pdef = &self.graph.tensors[partials.id];
            let leader_chunks: Vec<TensorChunk> = (0..num_groups)
                .map(|gi| TensorChunk {
                    tile: pdef.chunks[gi * group].tile,
                    start: gi,
                    owned: 1,
                    total: 1,
                })
                .collect();
            let lname = self.fresh_name("partials");
            let leaders = self
                .add_tensor(TensorDef { name: lname, dtype, chunks: leader_chunks })
                .expect("leader partials");
            let sum_codelet = self.sum_codelet(dtype, out.dtype);
            let mut cs = ComputeSet::new(self.fresh_name("reduce_tree"));
            for gi in 0..num_groups {
                let lo = gi * group;
                let hi = (lo + group).min(active_count);
                cs.add(Vertex {
                    tile: self.graph.tensors[leaders.id].chunks[gi].tile,
                    codelet: sum_codelet,
                    operands: vec![
                        TensorSlice { tensor: leaders.id, start: gi, len: 1 },
                        TensorSlice { tensor: partials.id, start: lo, len: hi - lo },
                    ],
                    kind: VertexKind::Simple,
                });
            }
            let cs = self.graph.add_compute_set(cs).expect("reduce tree cs");
            self.emit(Prog::Execute(cs));
            partials = leaders;
            active_count = num_groups;
        }

        let stage2 = self.sum_codelet(dtype, out.dtype);
        let out_tile = self.graph.tensors[out.id].chunks[0].tile;
        let mut cs2 = ComputeSet::new(self.fresh_name("reduce_final"));
        cs2.add(Vertex {
            tile: out_tile,
            codelet: stage2,
            operands: vec![
                TensorSlice { tensor: out.id, start: 0, len: 1 },
                TensorSlice { tensor: partials.id, start: 0, len: active_count },
            ],
            kind: VertexKind::Simple,
        });
        let cs2 = self.graph.add_compute_set(cs2).expect("reduce cs2");
        self.emit(Prog::Execute(cs2));
    }

    /// A codelet summing its second parameter into element 0 of its first:
    /// the sum kernel's template over F32 partials.
    fn sum_codelet(&mut self, in_dtype: DType, out_dtype: DType) -> graph::codelet::CodeletId {
        let name = self.fresh_name("sum");
        let c = if (in_dtype, out_dtype) == (DType::F32, DType::F32) {
            Kernel::Sum.codelet(&name)
        } else {
            Codelet {
                name,
                params: vec![
                    ParamDecl { dtype: out_dtype, mutable: true },
                    ParamDecl { dtype: in_dtype, mutable: false },
                ],
                num_locals: 2,
                body: vec![
                    Stmt::SetLocal(1, Expr::Const(zero_const(in_dtype))),
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
                    Stmt::Store {
                        param: 0,
                        index: Expr::Const(Value::I32(0)),
                        value: Expr::Local(1),
                    },
                ],
            }
        };
        self.graph.add_codelet(c).expect("sum codelet")
    }

    // ---------------------------------------------------------------
    // Data movement
    // ---------------------------------------------------------------

    /// Whole-tensor copy between identically mapped tensors.
    pub fn copy(&mut self, src: TensorRef, dst: TensorRef) {
        self.emit(Prog::Copy { src: src.id, dst: dst.id });
    }

    /// Emit an exchange phase (e.g. the §IV halo exchange).
    pub fn exchange(&mut self, name: impl Into<String>, copies: Vec<ElemCopy>) {
        self.emit(Prog::Exchange(ExchangeStep { name: name.into(), copies }));
    }

    // ---------------------------------------------------------------
    // Custom codelets (CodeDSL integration)
    // ---------------------------------------------------------------

    /// Register a CodeDSL-built codelet.
    pub fn add_codelet(&mut self, c: Codelet) -> graph::codelet::CodeletId {
        self.graph.add_codelet(c).expect("codelet")
    }

    /// Execute a set of custom vertices as one compute set.
    pub fn execute(&mut self, name: impl Into<String>, vertices: Vec<Vertex>) {
        let mut cs = ComputeSet::new(name);
        for v in vertices {
            cs.add(v);
        }
        let cs = self.graph.add_compute_set(cs).expect("custom compute set");
        self.emit(Prog::Execute(cs));
    }

    // ---------------------------------------------------------------
    // Control flow (the control-flow stack, §III-B)
    // ---------------------------------------------------------------

    fn scoped(&mut self, f: impl FnOnce(&mut Self)) -> Prog {
        self.frames.push(Vec::new());
        f(self);
        let steps = self.frames.pop().expect("scoped frame present");
        match steps.len() {
            0 => Prog::Nop,
            1 => steps.into_iter().next().unwrap(),
            _ => Prog::Seq(steps),
        }
    }

    /// `if (pred) { then }`.
    pub fn if_(&mut self, pred: TensorRef, then: impl FnOnce(&mut Self)) {
        let t = self.scoped(then);
        self.emit(Prog::If { pred: pred.id, then: Box::new(t), otherwise: Box::new(Prog::Nop) });
    }

    /// `if (pred) { then } else { otherwise }`.
    pub fn if_else(
        &mut self,
        pred: TensorRef,
        then: impl FnOnce(&mut Self),
        otherwise: impl FnOnce(&mut Self),
    ) {
        let t = self.scoped(then);
        let e = self.scoped(otherwise);
        self.emit(Prog::If { pred: pred.id, then: Box::new(t), otherwise: Box::new(e) });
    }

    /// `while (cond()) { body }`: `cond` is symbolically executed into a
    /// condition program that must leave its verdict in the returned scalar.
    pub fn while_(
        &mut self,
        cond: impl FnOnce(&mut Self) -> TensorRef,
        body: impl FnOnce(&mut Self),
    ) {
        let mut pred = None;
        let c = self.scoped(|ctx| {
            pred = Some(cond(ctx));
        });
        let b = self.scoped(body);
        self.emit(Prog::While {
            cond: Box::new(c),
            pred: pred.expect("condition returns a scalar").id,
            body: Box::new(b),
        });
    }

    /// Fixed-trip-count loop.
    pub fn repeat(&mut self, n: u32, body: impl FnOnce(&mut Self)) {
        let b = self.scoped(body);
        self.emit(Prog::Repeat(n, Box::new(b)));
    }

    /// Attribute device time of `body` to a named profiler scope.
    pub fn label(&mut self, name: impl Into<String>, body: impl FnOnce(&mut Self)) {
        let b = self.scoped(body);
        self.emit(Prog::Label(name.into(), Box::new(b)));
    }

    /// Schedule a host callback (progress reporting, host-side checks).
    pub fn callback(&mut self, f: impl FnMut(&mut HostView<'_>) + 'static) {
        self.emit(Prog::Callback(self.callbacks.len()));
        self.callbacks.push(Box::new(f));
    }

    // ---------------------------------------------------------------
    // Finishing
    // ---------------------------------------------------------------

    /// Compile the graph + program and construct the engine (registering
    /// all callbacks) — steps 3 and 4 of the paper's pipeline. The graph
    /// compiler lowers the program to an [`graph::ExecPlan`] and plans its
    /// communication; nothing here reads the environment.
    pub fn build_engine(mut self) -> Result<Engine, CompileError> {
        assert_eq!(self.frames.len(), 1, "unbalanced control-flow stack");
        let steps = self.frames.pop().unwrap();
        let program =
            if steps.len() == 1 { steps.into_iter().next().unwrap() } else { Prog::Seq(steps) };
        let exec = self.graph.compile(program)?;
        let mut engine = Engine::new(exec);
        for (id, cb) in self.callbacks.into_iter().enumerate() {
            engine.register_callback(id, cb);
        }
        Ok(engine)
    }

    /// [`DslCtx::build_engine`]; [`CompileOptions`] has no fields.
    pub fn build_engine_with(self, _options: CompileOptions) -> Result<Engine, CompileError> {
        self.build_engine()
    }
}

/// Translate a TensorDSL expression into a CodeDSL expression where leaf
/// `k` reads `param_of[leaf]` at the loop index (vectors) or 0 (scalars).
fn lower(e: &TExpr, param_of: &HashMap<TensorId, usize>, leaves: &[TensorRef]) -> Expr {
    match e {
        TExpr::Tensor(t) => {
            let p = param_of[&t.id];
            let scalar = leaves.iter().find(|l| l.id == t.id).map(|l| l.scalar).unwrap_or(false);
            if scalar {
                Expr::index(p, Expr::Const(Value::I32(0)))
            } else {
                Expr::index(p, Expr::Local(0))
            }
        }
        TExpr::Const(v) => Expr::Const(*v),
        TExpr::Bin(op, a, b) => {
            Expr::bin(*op, lower(a, param_of, leaves), lower(b, param_of, leaves))
        }
        TExpr::Un(op, a) => Expr::un(*op, lower(a, param_of, leaves)),
        TExpr::Convert(d, a) => Expr::Convert { to: *d, arg: Box::new(lower(a, param_of, leaves)) },
        TExpr::Select(c, t, o) => Expr::Select {
            cond: Box::new(lower(c, param_of, leaves)),
            then: Box::new(lower(t, param_of, leaves)),
            otherwise: Box::new(lower(o, param_of, leaves)),
        },
    }
}

/// For a product of two F32 vector leaves, whether they are one leaf
/// (`x * x`): the reductions [`Kernel::Dot`] runs.
fn dot_square(expr: &TExpr) -> Option<bool> {
    let TExpr::Bin(BinOp::Mul, a, b) = expr else { return None };
    match (&**a, &**b) {
        (TExpr::Tensor(x), TExpr::Tensor(y))
            if [x, y].iter().all(|t| t.dtype == DType::F32 && !t.scalar) =>
        {
            Some(x.id == y.id)
        }
        _ => None,
    }
}

fn zero_const(dtype: DType) -> Value {
    match dtype {
        DType::F32 => Value::F32(0.0),
        DType::I32 => Value::I32(0),
        DType::Bool => Value::Bool(false),
        DType::DoubleWord => Value::Dw(twofloat::TwoF32::ZERO),
        DType::F64Emulated => Value::F64(0.0),
    }
}
