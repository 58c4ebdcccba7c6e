//! The graph builder and compiler.
//!
//! [`Graph`] accumulates tensors (with SRAM accounting against the machine
//! model), codelets and compute sets; [`Graph::compile`] validates
//! everything against the machine — parameter arity, slice bounds, mutable
//! aliasing, predicate shapes, exchange type-correctness — and freezes an
//! [`Executable`] for the engine. This is the stand-in for Poplar's graph
//! compiler; its cycle-precise communication schedules are reproduced by
//! the cost model at execution time.

use crate::codelet::{Codelet, CodeletId};
use crate::compute::{ComputeSet, ComputeSetId, VertexKind};
use crate::passes::{self, LoweredTable};
use crate::plan::ExecPlan;
use crate::program::{ExchangeStep, Prog};
use crate::tensor::{TensorDef, TensorId};
use ipu_sim::cost::{CostModel, DType};
use ipu_sim::memory::TileMemory;
use ipu_sim::model::IpuModel;
use profile::CompileReport;

/// Errors raised while building or compiling a graph.
#[derive(Debug)]
pub enum CompileError {
    Tensor(String),
    Codelet(String),
    Vertex(String),
    Program(String),
    OutOfMemory(ipu_sim::memory::OutOfTileMemory),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Tensor(m) => write!(f, "tensor error: {m}"),
            CompileError::Codelet(m) => write!(f, "codelet error: {m}"),
            CompileError::Vertex(m) => write!(f, "vertex error: {m}"),
            CompileError::Program(m) => write!(f, "program error: {m}"),
            CompileError::OutOfMemory(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The dataflow graph under construction.
#[derive(Clone, Debug)]
pub struct Graph {
    pub model: IpuModel,
    pub cost: CostModel,
    pub tensors: Vec<TensorDef>,
    pub codelets: Vec<Codelet>,
    pub compute_sets: Vec<ComputeSet>,
    memory: TileMemory,
}

impl Graph {
    pub fn new(model: IpuModel) -> Self {
        let memory = TileMemory::new(&model);
        Graph {
            model,
            cost: CostModel::default(),
            tensors: Vec::new(),
            codelets: Vec::new(),
            compute_sets: Vec::new(),
            memory,
        }
    }

    /// Add a tensor, reserving its SRAM on every tile it maps to.
    pub fn add_tensor(&mut self, def: TensorDef) -> Result<TensorId, CompileError> {
        def.validate().map_err(CompileError::Tensor)?;
        for c in &def.chunks {
            if c.tile >= self.model.num_tiles() {
                return Err(CompileError::Tensor(format!(
                    "tensor '{}' mapped to tile {} outside the {}-tile machine",
                    def.name,
                    c.tile,
                    self.model.num_tiles()
                )));
            }
            self.memory
                .alloc(c.tile, c.total * def.dtype.size_bytes())
                .map_err(CompileError::OutOfMemory)?;
        }
        self.tensors.push(def);
        Ok(self.tensors.len() - 1)
    }

    /// Shorthand: a length-1 scalar tensor on tile 0.
    pub fn add_scalar(
        &mut self,
        name: impl Into<String>,
        dtype: DType,
    ) -> Result<TensorId, CompileError> {
        self.add_tensor(TensorDef::on_tile(name, dtype, 1, 0))
    }

    pub fn add_codelet(&mut self, c: Codelet) -> Result<CodeletId, CompileError> {
        c.validate().map_err(CompileError::Codelet)?;
        self.codelets.push(c);
        Ok(self.codelets.len() - 1)
    }

    pub fn add_compute_set(&mut self, cs: ComputeSet) -> Result<ComputeSetId, CompileError> {
        self.validate_compute_set(&cs)?;
        self.compute_sets.push(cs);
        Ok(self.compute_sets.len() - 1)
    }

    /// SRAM ledger (peak utilisation diagnostics).
    pub fn memory(&self) -> &TileMemory {
        &self.memory
    }

    fn validate_compute_set(&self, cs: &ComputeSet) -> Result<(), CompileError> {
        for (vi, v) in cs.vertices.iter().enumerate() {
            let codelet = self.codelets.get(v.codelet).ok_or_else(|| {
                CompileError::Vertex(format!("{}[{vi}]: codelet {} missing", cs.name, v.codelet))
            })?;
            if v.tile >= self.model.num_tiles() {
                return Err(CompileError::Vertex(format!(
                    "{}[{vi}]: tile {} out of range",
                    cs.name, v.tile
                )));
            }
            if v.operands.len() != codelet.params.len() {
                return Err(CompileError::Vertex(format!(
                    "{}[{vi}]: {} operands for {} params of '{}'",
                    cs.name,
                    v.operands.len(),
                    codelet.params.len(),
                    codelet.name
                )));
            }
            for (oi, op) in v.operands.iter().enumerate() {
                let t = self.tensors.get(op.tensor).ok_or_else(|| {
                    CompileError::Vertex(format!(
                        "{}[{vi}] operand {oi}: tensor {} missing",
                        cs.name, op.tensor
                    ))
                })?;
                if op.start + op.len > t.len() {
                    return Err(CompileError::Vertex(format!(
                        "{}[{vi}] operand {oi}: slice {}..{} exceeds tensor '{}' of len {}",
                        cs.name,
                        op.start,
                        op.start + op.len,
                        t.name,
                        t.len()
                    )));
                }
                // Mutable operands must be resident on the vertex's tile —
                // a tile can only write its own SRAM.
                if codelet.params[oi].mutable && !t.resident_on(v.tile, op.start, op.len) {
                    return Err(CompileError::Vertex(format!(
                        "{}[{vi}] operand {oi}: mutable slice of '{}' not resident on tile {}",
                        cs.name, t.name, v.tile
                    )));
                }
            }
            // Aliased operands within one vertex are undefined on real
            // hardware (and would be unsound to hand out as distinct
            // slices); reject any overlap — callers bind one parameter per
            // distinct region.
            for i in 0..v.operands.len() {
                for j in i + 1..v.operands.len() {
                    let (a, b) = (&v.operands[i], &v.operands[j]);
                    if a.tensor != b.tensor {
                        continue;
                    }
                    let overlap = a.start < b.start + b.len && b.start < a.start + a.len;
                    if overlap {
                        return Err(CompileError::Vertex(format!(
                            "{}[{vi}]: operands {i} and {j} alias tensor '{}'",
                            cs.name, self.tensors[a.tensor].name
                        )));
                    }
                }
            }
            if let VertexKind::LevelSet { levels } = &v.kind {
                let mut seen = std::collections::HashSet::new();
                for row in levels.iter().flatten() {
                    if !seen.insert(*row) {
                        return Err(CompileError::Vertex(format!(
                            "{}[{vi}]: row {row} appears in multiple levels",
                            cs.name
                        )));
                    }
                }
                if codelet.num_locals == 0 {
                    return Err(CompileError::Vertex(format!(
                        "{}[{vi}]: level-set codelet '{}' needs local 0 for the row index",
                        cs.name, codelet.name
                    )));
                }
            }
        }
        Ok(())
    }

    fn validate_exchange(&self, ex: &ExchangeStep) -> Result<(), CompileError> {
        for c in &ex.copies {
            let s = self.tensors.get(c.src).ok_or_else(|| {
                CompileError::Program(format!("exchange '{}': src tensor missing", ex.name))
            })?;
            let d = self.tensors.get(c.dst).ok_or_else(|| {
                CompileError::Program(format!("exchange '{}': dst tensor missing", ex.name))
            })?;
            if s.dtype != d.dtype {
                return Err(CompileError::Program(format!(
                    "exchange '{}': dtype mismatch {:?} -> {:?}",
                    ex.name, s.dtype, d.dtype
                )));
            }
            if c.src_start + c.len > s.len() || c.dst_start + c.len > d.len() {
                return Err(CompileError::Program(format!(
                    "exchange '{}': copy out of range",
                    ex.name
                )));
            }
            // Each side of a blockwise copy must be a single-tile region —
            // that is the point of the reordering strategy.
            let src_tile = s.tile_of(c.src_start);
            let dst_tile = d.tile_of(c.dst_start);
            if src_tile.is_none() || !s.resident_on(src_tile.unwrap(), c.src_start, c.len) {
                return Err(CompileError::Program(format!(
                    "exchange '{}': source region spans tiles",
                    ex.name
                )));
            }
            if dst_tile.is_none() || !d.resident_on(dst_tile.unwrap(), c.dst_start, c.len) {
                return Err(CompileError::Program(format!(
                    "exchange '{}': destination region spans tiles",
                    ex.name
                )));
            }
        }
        Ok(())
    }

    fn validate_prog(&self, p: &Prog) -> Result<(), CompileError> {
        match p {
            Prog::Nop | Prog::Callback(_) => Ok(()),
            Prog::Seq(v) => v.iter().try_for_each(|p| self.validate_prog(p)),
            Prog::Execute(cs) => {
                if *cs >= self.compute_sets.len() {
                    return Err(CompileError::Program(format!("compute set {cs} missing")));
                }
                Ok(())
            }
            Prog::Exchange(ex) => self.validate_exchange(ex),
            Prog::Copy { src, dst } => {
                let s = self
                    .tensors
                    .get(*src)
                    .ok_or_else(|| CompileError::Program("copy src missing".into()))?;
                let d = self
                    .tensors
                    .get(*dst)
                    .ok_or_else(|| CompileError::Program("copy dst missing".into()))?;
                if s.dtype != d.dtype || s.chunks != d.chunks {
                    return Err(CompileError::Program(format!(
                        "copy '{}' -> '{}': tensors must have identical dtype and mapping \
                         (use an exchange or a conversion codelet otherwise)",
                        s.name, d.name
                    )));
                }
                Ok(())
            }
            Prog::Repeat(_, p) | Prog::Label(_, p) => self.validate_prog(p),
            Prog::If { pred, then, otherwise } => {
                self.validate_pred(*pred)?;
                self.validate_prog(then)?;
                self.validate_prog(otherwise)
            }
            Prog::While { cond, pred, body } => {
                self.validate_prog(cond)?;
                self.validate_pred(*pred)?;
                self.validate_prog(body)
            }
        }
    }

    fn validate_pred(&self, pred: TensorId) -> Result<(), CompileError> {
        let t = self
            .tensors
            .get(pred)
            .ok_or_else(|| CompileError::Program(format!("predicate tensor {pred} missing")))?;
        if t.len() != 1 {
            return Err(CompileError::Program(format!(
                "predicate '{}' must be a scalar (len 1), has len {}",
                t.name,
                t.len()
            )));
        }
        Ok(())
    }

    /// Validate the program, lower it to an [`ExecPlan`] and freeze an
    /// executable.
    ///
    /// This is the graph *compiler*: validation, lowering of the `Prog`
    /// tree into the flat [`ExecPlan`] arena, the planning passes
    /// (`crate::passes`) that precompute every broadcast, exchange
    /// program, sync decision and tile grouping the engine will replay,
    /// and the lowering of every vertex's codelet for its operand storage
    /// — a codelet that cannot be typed is a [`CompileError::Codelet`].
    /// The per-pass statistics are stamped on the executable as a
    /// [`CompileReport`].
    pub fn compile(self, program: Prog) -> Result<Executable, CompileError> {
        self.validate_prog(&program)?;
        let (plan, lowered, report) = passes::compile_plan(&self, &program)?;
        Ok(Executable { graph: self, plan, lowered, report })
    }
}

/// A compiled (graph, program) pair ready for the engine: the graph, the
/// validated program lowered to an [`ExecPlan`], every vertex's codelet
/// lowered for its operands, and the [`CompileReport`] describing what the
/// pass pipeline did.
#[derive(Clone, Debug)]
pub struct Executable {
    pub graph: Graph,
    /// The lowered, planned program the engine executes.
    pub plan: ExecPlan,
    /// The form the engine runs each vertex on.
    pub lowered: LoweredTable,
    /// Per-pass compile statistics.
    pub report: CompileReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::{Expr, ParamDecl, Stmt, Value};
    use crate::compute::{TensorSlice, Vertex};

    fn tiny_graph() -> Graph {
        Graph::new(IpuModel::tiny(4))
    }

    fn store_codelet(mutable: bool) -> Codelet {
        Codelet {
            name: "store".into(),
            params: vec![ParamDecl { dtype: DType::F32, mutable }],
            num_locals: 0,
            body: if mutable {
                vec![Stmt::Store {
                    param: 0,
                    index: Expr::c(Value::I32(0)),
                    value: Expr::c(Value::F32(1.0)),
                }]
            } else {
                vec![]
            },
        }
    }

    #[test]
    fn tensor_memory_is_accounted() {
        let mut g = tiny_graph();
        let cap = g.memory().capacity();
        g.add_tensor(TensorDef::on_tile("a", DType::F32, cap / 4, 0)).unwrap();
        assert_eq!(g.memory().used(0), cap);
        let err = g.add_tensor(TensorDef::on_tile("b", DType::F32, 1, 0)).unwrap_err();
        assert!(matches!(err, CompileError::OutOfMemory(_)));
        // Other tiles unaffected.
        g.add_tensor(TensorDef::on_tile("c", DType::F32, 8, 1)).unwrap();
    }

    #[test]
    fn vertex_arity_checked() {
        let mut g = tiny_graph();
        let t = g.add_tensor(TensorDef::on_tile("x", DType::F32, 4, 0)).unwrap();
        let c = g.add_codelet(store_codelet(true)).unwrap();
        let mut cs = ComputeSet::new("cs");
        cs.add(Vertex {
            tile: 0,
            codelet: c,
            operands: vec![TensorSlice::whole(t, 4), TensorSlice::whole(t, 4)],
            kind: VertexKind::Simple,
        });
        assert!(matches!(g.add_compute_set(cs), Err(CompileError::Vertex(_))));
    }

    #[test]
    fn mutable_operand_must_be_resident() {
        let mut g = tiny_graph();
        let t = g.add_tensor(TensorDef::on_tile("x", DType::F32, 4, 1)).unwrap();
        let c = g.add_codelet(store_codelet(true)).unwrap();
        let mut cs = ComputeSet::new("cs");
        cs.add(Vertex {
            tile: 0, // but x lives on tile 1
            codelet: c,
            operands: vec![TensorSlice::whole(t, 4)],
            kind: VertexKind::Simple,
        });
        let err = g.add_compute_set(cs).unwrap_err();
        assert!(err.to_string().contains("not resident"));
    }

    #[test]
    fn mutable_aliasing_rejected() {
        let mut g = tiny_graph();
        let t = g.add_tensor(TensorDef::on_tile("x", DType::F32, 8, 0)).unwrap();
        let c = g
            .add_codelet(Codelet {
                name: "two".into(),
                params: vec![
                    ParamDecl { dtype: DType::F32, mutable: true },
                    ParamDecl { dtype: DType::F32, mutable: false },
                ],
                num_locals: 0,
                body: vec![],
            })
            .unwrap();
        let mut cs = ComputeSet::new("cs");
        cs.add(Vertex {
            tile: 0,
            codelet: c,
            operands: vec![
                TensorSlice { tensor: t, start: 0, len: 5 },
                TensorSlice { tensor: t, start: 4, len: 4 },
            ],
            kind: VertexKind::Simple,
        });
        let err = g.add_compute_set(cs).unwrap_err();
        assert!(err.to_string().contains("alias"));
        // Disjoint slices are fine.
        let mut cs2 = ComputeSet::new("cs2");
        cs2.add(Vertex {
            tile: 0,
            codelet: c,
            operands: vec![
                TensorSlice { tensor: t, start: 0, len: 4 },
                TensorSlice { tensor: t, start: 4, len: 4 },
            ],
            kind: VertexKind::Simple,
        });
        g.add_compute_set(cs2).unwrap();
    }

    #[test]
    fn predicate_must_be_scalar() {
        let mut g = tiny_graph();
        let p = g.add_tensor(TensorDef::on_tile("p", DType::Bool, 2, 0)).unwrap();
        let err = g
            .compile(Prog::If {
                pred: p,
                then: Box::new(Prog::Nop),
                otherwise: Box::new(Prog::Nop),
            })
            .unwrap_err();
        assert!(err.to_string().contains("scalar"));
    }

    #[test]
    fn predicate_tensor_must_exist() {
        let g = tiny_graph();
        let err = g
            .compile(Prog::If {
                pred: 42,
                then: Box::new(Prog::Nop),
                otherwise: Box::new(Prog::Nop),
            })
            .unwrap_err();
        assert!(err.to_string().contains("predicate tensor 42 missing"), "{err}");
    }

    #[test]
    fn while_predicate_validated_even_in_nested_position() {
        // The While sits inside Repeat/Label scaffolding; validation must
        // still reach its predicate.
        let mut g = tiny_graph();
        let p = g.add_tensor(TensorDef::on_tile("p", DType::F32, 3, 0)).unwrap();
        let w = Prog::While { cond: Box::new(Prog::Nop), pred: p, body: Box::new(Prog::Nop) };
        let err = g
            .compile(Prog::Repeat(2, Box::new(Prog::Label("outer".into(), Box::new(w)))))
            .unwrap_err();
        assert!(err.to_string().contains("scalar"), "{err}");
    }

    #[test]
    fn copy_requires_identical_mapping() {
        let mut g = tiny_graph();
        let a = g.add_tensor(TensorDef::linear("a", DType::F32, 8, 2)).unwrap();
        let b = g.add_tensor(TensorDef::linear("b", DType::F32, 8, 4)).unwrap();
        let err = g.compile(Prog::Copy { src: a, dst: b }).unwrap_err();
        assert!(err.to_string().contains("identical"));
    }

    #[test]
    fn exchange_regions_must_be_single_tile() {
        let mut g = tiny_graph();
        let a = g.add_tensor(TensorDef::linear("a", DType::F32, 8, 2)).unwrap();
        let b = g.add_tensor(TensorDef::linear("b", DType::F32, 8, 2)).unwrap();
        // Copy spanning the tile boundary at element 4.
        let ex = ExchangeStep {
            name: "bad".into(),
            copies: vec![crate::program::ElemCopy {
                src: a,
                src_start: 2,
                dst: b,
                dst_start: 0,
                len: 4,
            }],
        };
        let err = g.compile(Prog::Exchange(ex)).unwrap_err();
        assert!(err.to_string().contains("spans tiles"));
    }
}
