//! The fused-kernel library the engine dispatches vertices to when it is
//! built with `EngineOptions::fusion` on.
//!
//! Every vertex already runs its codelet's lowered form
//! (`codelet::Lowered`), typed and costed once at engine build. What is
//! left is specialising a whole codelet to native loops — how every
//! production sparse stack gets its speed (PopSparse's pre-specialised
//! block kernels, kease-sparse-knl's template-monomorphised micro-kernels).
//! This module does that, behind `fusion`, for the modified-CSR SpMV and
//! its residual alone, monomorphised on the storage they are bound to. The
//! triangular sweeps are not here: both are kernel instructions of the
//! lowered form (`codelet::Kernel`), on every route. [`KernelTable::build`]
//! compares each codelet with the SpMV templates, exactly; any other
//! codelet runs its lowered form, with or without `fusion`.
//!
//! The contract, enforced by `verify::assert_executor_equivalence` and the
//! unit tests below, is strict: a fused kernel must produce **bit-identical
//! values** and **identical `CycleStats`/flop/byte accounting** to the
//! interpreter. Values are exact because the kernel reproduces the
//! interpreter's arithmetic domains (`apply_bin`'s f32 / TwoF32 / f64
//! branches) operation for operation; accounting is exact because it
//! charges the same [`CostModel`] calls the interpreter would, hoisted out
//! of the data loop as closed-form per-row / per-entry charges. ipu-sim's
//! cost model stays the accounting *oracle*; native code is only the *data
//! path*. A runtime operand layout the kernel was not built for makes it
//! decline, per vertex, and the vertex takes its lowered form.

use crate::codelet::{
    apply_bin, is_template, parfor_makespan, promote, BinOp, Charge, Codelet, Expr, ParamData,
    ParamDecl, Stmt, Template, Value,
};
use crate::compute::VertexKind;
use crate::graph::Graph;
use ipu_sim::cost::{CostModel, DType, Op};
use twofloat::TwoFloat;

/// Runtime storage dtype of a parameter slice.
fn dtype_of(p: &ParamData) -> DType {
    match p {
        ParamData::F32(_) | ParamData::F32Ro(_) => DType::F32,
        ParamData::I32(_) | ParamData::I32Ro(_) => DType::I32,
        ParamData::Bool(_) | ParamData::BoolRo(_) => DType::Bool,
        ParamData::Dw(_) | ParamData::DwRo(_) => DType::DoubleWord,
        ParamData::F64(_) | ParamData::F64Ro(_) => DType::F64Emulated,
    }
}

fn as_f32s<'s>(p: &'s ParamData) -> Option<&'s [f32]> {
    match p {
        ParamData::F32(s) => Some(s),
        ParamData::F32Ro(s) => Some(s),
        _ => None,
    }
}

fn as_i32s<'s>(p: &'s ParamData) -> Option<&'s [i32]> {
    match p {
        ParamData::I32(s) => Some(s),
        ParamData::I32Ro(s) => Some(s),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The kernel.
// ---------------------------------------------------------------------------

/// One entry of the kernel library, selected for a codelet at plan time:
/// modified-CSR SpMV / residual over the `build_spmv_codelet` template.
/// `x`/`y`/`b` storage may be any of f32 / double-word / emulated f64 (MPIR
/// binds the same codelet at several precisions); the matrix operands must
/// be f32 values + i32 topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusedKernel {
    residual: bool,
}

impl FusedKernel {
    /// Stable kernel name, stamped into the compile report.
    pub fn name(&self) -> &'static str {
        if self.residual {
            "spmv_residual"
        } else {
            "spmv"
        }
    }

    /// Execute the kernel for one vertex. Returns `None` — *before
    /// touching any data* — when the vertex kind or the runtime operand
    /// layout does not satisfy the kernel's assumptions; the engine then
    /// runs the vertex's lowered form.
    pub fn run(
        &self,
        kind: &VertexKind,
        params: &mut [ParamData],
        cost: &CostModel,
        workers: u64,
    ) -> Option<Charge> {
        if !matches!(kind, VertexKind::Simple) {
            return None;
        }
        let o = if self.residual { 3 } else { 2 };
        if params.len() != o + 4 {
            return None;
        }
        let (y, rest) = params.split_first_mut()?;
        // After the split every index into `rest` is the param id minus 1.
        let diag = as_f32s(&rest[o - 1])?;
        let vals = as_f32s(&rest[o])?;
        let cols = as_i32s(&rest[o + 1])?;
        let rptr = as_i32s(&rest[o + 2])?;
        let dx = dtype_of(&rest[0]);
        let dy = dtype_of(y);
        let n = y.len();
        if rptr.len() < n + 1 {
            return None;
        }

        // Per-row / per-entry charges, hoisted from the interpreter's walk
        // of the template body (accumulation domain da = promote(f32, dx)).
        let da = promote(DType::F32, dx);
        let (l_f32, l_i32) =
            (cost.op_cycles(Op::Load, DType::F32), cost.op_cycles(Op::Load, DType::I32));
        let l_x = cost.op_cycles(Op::Load, dx);
        let sz_x = dx.size_bytes() as u64;
        let mul_c = if dx == DType::DoubleWord {
            cost.op_cycles_mixed_dw(Op::Mul)
        } else {
            cost.op_cycles(Op::Mul, da)
        };
        let add_c = cost.op_cycles(Op::Add, da);
        let addi_c = cost.op_cycles(Op::Add, DType::I32);
        let ls = cost.op_cycles(Op::LoopStep, DType::I32);
        let row_fixed = ls + l_f32 + l_x + mul_c + 2 * l_i32 + addi_c;
        let entry = ls + l_f32 + l_i32 + l_x + mul_c + add_c;
        let (mul_f, add_f) = (cost.op_flops(Op::Mul, da), cost.op_flops(Op::Add, da));
        let store_c = cost.op_cycles(Op::Store, dy);
        let sz_y = dy.size_bytes() as u64;
        let (l_b, sz_b, sub_c, sub_f) = if self.residual {
            let db = dtype_of(&rest[1]);
            let dsub = promote(db, da);
            let mixed = dsub == DType::DoubleWord && (db == DType::F32 || da == DType::F32);
            let sub_c = if mixed {
                cost.op_cycles_mixed_dw(Op::Sub)
            } else {
                cost.op_cycles(Op::Sub, dsub)
            };
            (
                cost.op_cycles(Op::Load, db),
                db.size_bytes() as u64,
                sub_c,
                cost.op_flops(Op::Sub, dsub),
            )
        } else {
            (0, 0, 0, 0)
        };

        let (mut serial, mut flops, mut mem) = (0u64, 0u64, 0u64);
        for r in 0..n {
            // Row pointers in i64, as the interpreter reads them: one that
            // steps back runs no trips, a negative one panics at its first.
            let (lo, hi) = (rptr[r] as i64, rptr[r + 1] as i64);
            let nnz = (hi - lo).max(0) as u64;
            serial += row_fixed + nnz * entry + l_b + sub_c + store_c;
            flops += mul_f + nnz * (mul_f + add_f) + sub_f;
            mem += 4 + sz_x + 8 + nnz * (8 + sz_x) + sz_b + sz_y;

            // Data path, monomorphised on the accumulation domain.
            let acc = match &rest[0] {
                ParamData::F32Ro(x) => {
                    let mut acc = diag[r] * x[r];
                    for k in lo..hi {
                        let k = k as usize;
                        acc += vals[k] * x[cols[k] as usize];
                    }
                    Value::F32(acc)
                }
                ParamData::DwRo(x) => {
                    let mut acc = TwoFloat::from_f(diag[r]) * x[r];
                    for k in lo..hi {
                        let k = k as usize;
                        acc += TwoFloat::from_f(vals[k]) * x[cols[k] as usize];
                    }
                    Value::Dw(acc)
                }
                ParamData::F64Ro(x) => {
                    let mut acc = diag[r] as f64 * x[r].0;
                    for k in lo..hi {
                        let k = k as usize;
                        acc += vals[k] as f64 * x[cols[k] as usize].0;
                    }
                    Value::F64(acc)
                }
                _ => return None,
            };
            let v = if self.residual { apply_bin(BinOp::Sub, rest[1].get(r), acc).0 } else { acc };
            y.set(r, v.convert(dy));
        }
        Some(Charge { cycles: parfor_makespan(serial, workers, cost), flops, mem_bytes: mem })
    }
}

// ---------------------------------------------------------------------------
// Matchers.
// ---------------------------------------------------------------------------

/// Rebuild the `build_spmv_codelet` template (crates/core/src/dist.rs) as
/// the `CodeDsl` builder lowers it, for exact structural comparison. Any
/// drift in the real builder makes the match fail — a safe fallback, never
/// a wrong kernel.
///
/// Returns `(params, num_locals, body)`. Public (like
/// `codelet::forward_subst_template`) for the interpreter microbench in
/// `crates/bench/benches/host_kernels.rs`, which times the interpreter on
/// the codelets the solvers really run.
pub fn spmv_template(residual: bool) -> Template {
    use BinOp::*;
    let ro = |dtype| ParamDecl { dtype, mutable: false };
    let mut params = vec![ParamDecl { dtype: DType::F32, mutable: true }, ro(DType::F32)];
    if residual {
        params.push(ro(DType::F32));
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

fn match_codelet(c: &Codelet) -> Option<FusedKernel> {
    [false, true]
        .into_iter()
        .find(|&residual| is_template(c, &spmv_template(residual)))
        .map(|residual| FusedKernel { residual })
}

/// The plan-time kernel selection: one optional fused kernel per codelet.
#[derive(Clone, Debug, Default)]
pub struct KernelTable {
    kernels: Vec<Option<FusedKernel>>,
}

impl KernelTable {
    /// Match every codelet in the graph against the library.
    pub fn build(graph: &Graph) -> KernelTable {
        KernelTable { kernels: graph.codelets.iter().map(match_codelet).collect() }
    }

    /// A table that fuses nothing (`EngineOptions::fusion` off): every
    /// vertex takes its lowered form.
    pub fn disabled(graph: &Graph) -> KernelTable {
        KernelTable { kernels: vec![None; graph.codelets.len()] }
    }

    pub fn get(&self, codelet: usize) -> Option<&FusedKernel> {
        self.kernels.get(codelet).and_then(|k| k.as_ref())
    }

    /// The name of each matched codelet's kernel, in codelet order.
    pub fn fused(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.kernels.iter().flatten().map(FusedKernel::name)
    }

    pub fn total(&self) -> usize {
        self.kernels.len()
    }
}

// ---------------------------------------------------------------------------
// Differential tests: the fused route — the library kernel where one
// matches, else the lowered form — against the interpreter, on adversarial
// operand layouts. The contract under test is *exact* equality: output
// bits, cycles, flops and SRAM bytes.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::{backward_subst_template, forward_subst_template, Interp, Lowered, Regs};
    use twofloat::{SoftDouble, TwoF32};

    const WORKERS: u64 = 6;

    /// Owned storage of one operand.
    #[derive(Clone)]
    enum Buf {
        F32(Vec<f32>),
        I32(Vec<i32>),
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
                (Buf::Dw(v), true) => ParamData::Dw(v),
                (Buf::Dw(v), false) => ParamData::DwRo(v),
                (Buf::F64(v), true) => ParamData::F64(v),
                (Buf::F64(v), false) => ParamData::F64Ro(v),
            }
        }

        fn bits(&self) -> Vec<u64> {
            match self {
                Buf::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
                Buf::I32(v) => v.iter().map(|&x| x as u32 as u64).collect(),
                Buf::Dw(v) => v
                    .iter()
                    .map(|x| (x.hi().to_bits() as u64) << 32 | x.lo().to_bits() as u64)
                    .collect(),
                Buf::F64(v) => v.iter().map(|x| x.0.to_bits()).collect(),
            }
        }
    }

    fn params<'a>(c: &Codelet, bufs: &'a mut [Buf]) -> Vec<ParamData<'a>> {
        bufs.iter_mut().zip(&c.params).map(|(b, decl)| b.param(decl.mutable)).collect()
    }

    /// One vertex as `run_vertex` runs it with `fusion` on: the matched
    /// kernel if it accepts the layout, else the lowered form. Also names
    /// the kernel that ran.
    fn fused_route(
        c: &Codelet,
        kind: &VertexKind,
        params: &mut [ParamData],
        cost: &CostModel,
    ) -> (Charge, Option<&'static str>) {
        if let Some(k) = match_codelet(c) {
            if let Some(run) = k.run(kind, params, cost, WORKERS) {
                return (run, Some(k.name()));
            }
        }
        let storage: Vec<DType> = params.iter().map(dtype_of).collect();
        let level_set = matches!(kind, VertexKind::LevelSet { .. });
        let lowered = Lowered::lower(c, &storage, level_set, cost).expect("the codelet lowers");
        (lowered.run_vertex(kind, params, &mut Regs::default(), cost, WORKERS), None)
    }

    /// Run one vertex on the fused route and on `Interp`, each on its own
    /// copy of `bufs`; require the same storage bits and the same charge.
    /// The kernel that ran, `None` for the lowered form.
    fn check(c: &Codelet, kind: &VertexKind, bufs: &[Buf]) -> Option<&'static str> {
        c.validate().expect("test codelet validates");
        let cost = CostModel::default();
        let (mut want, mut got) = (bufs.to_vec(), bufs.to_vec());
        let mut p = params(c, &mut want);
        let mut interp = Interp::new(&cost, &mut p, c.num_locals, WORKERS);
        let cycles = interp.run_vertex(kind, &c.body);
        let oracle = Charge { cycles, flops: interp.flops, mem_bytes: interp.mem_bytes };
        let (run, kernel) = fused_route(c, kind, &mut params(c, &mut got), &cost);
        assert_eq!(oracle, run, "{}: charge", c.name);
        let bits = |bufs: &[Buf]| bufs.iter().map(Buf::bits).collect::<Vec<_>>();
        assert_eq!(bits(&want), bits(&got), "{}: storage bits", c.name);
        kernel
    }

    fn codelet(name: &str, params: Vec<ParamDecl>, num_locals: usize, body: Vec<Stmt>) -> Codelet {
        Codelet { name: name.into(), params, num_locals, body }
    }

    fn from_template(name: &str, t: Template) -> Codelet {
        codelet(name, t.0, t.1, t.2)
    }

    fn mutp(dtype: DType) -> ParamDecl {
        ParamDecl { dtype, mutable: true }
    }

    fn rop(dtype: DType) -> ParamDecl {
        ParamDecl { dtype, mutable: false }
    }

    fn dw_zeros(n: usize) -> Buf {
        Buf::Dw(vec![TwoFloat::from_f64(0.0); n])
    }

    // ------------------------------------------------------------------
    // SpMV
    // ------------------------------------------------------------------

    /// Ragged CSR with an empty row and a single-entry row: diag, vals,
    /// cols, rptr.
    fn csr() -> [Buf; 4] {
        [
            Buf::F32((0..6).map(|i| 1.5 - 0.1 * i as f32).collect()),
            Buf::F32((0..10).map(|i| 0.3 + 0.17 * i as f32).collect()),
            Buf::I32(vec![1, 3, 0, 2, 5, 4, 0, 2, 3, 5]),
            Buf::I32(vec![0, 2, 2, 5, 6, 6, 10]),
        ]
    }

    /// `vectors` followed by the CSR matrix.
    fn spmv_operands(vectors: impl IntoIterator<Item = Buf>) -> Vec<Buf> {
        vectors.into_iter().chain(csr()).collect()
    }

    #[test]
    fn spmv_f32_matches_interpreter() {
        let c = from_template("spmv", spmv_template(false));
        let x = Buf::F32((0..6).map(|i| (0.37 * i as f32).sin()).collect());
        let bufs = spmv_operands([Buf::F32(vec![0.0; 6]), x]);
        assert_eq!(check(&c, &VertexKind::Simple, &bufs), Some("spmv"));
    }

    #[test]
    fn spmv_empty_matrix_matches_interpreter() {
        let c = from_template("spmv", spmv_template(false));
        let empty = || Buf::F32(vec![]);
        let bufs = [empty(), empty(), empty(), empty(), Buf::I32(vec![]), Buf::I32(vec![0])];
        assert_eq!(check(&c, &VertexKind::Simple, &bufs), Some("spmv"));
    }

    #[test]
    fn spmv_dw_and_f64_x_match_interpreter() {
        // Dw x and y (the MPIR inner-residual layout), then F64-emulated.
        let c = from_template("spmv", spmv_template(false));
        let x = |i: usize| 1.0 / (3.0 + i as f64);
        let dw = spmv_operands([
            dw_zeros(6),
            Buf::Dw((0..6).map(|i| TwoFloat::from_f64(x(i))).collect()),
        ]);
        let f64s = spmv_operands([
            Buf::F64(vec![SoftDouble(0.0); 6]),
            Buf::F64((0..6).map(|i| SoftDouble(x(i))).collect()),
        ]);
        for bufs in [dw, f64s] {
            assert_eq!(check(&c, &VertexKind::Simple, &bufs), Some("spmv"));
        }
    }

    #[test]
    fn spmv_residual_mixed_dw_matches_interpreter() {
        // Dw x against an f32 b: exercises the mixed-precision subtract.
        let c = from_template("spmv_residual", spmv_template(true));
        let x = Buf::Dw((0..6).map(|i| TwoFloat::from_f64(0.21 * (i as f64 + 1.0))).collect());
        let b = Buf::F32((0..6).map(|i| 2.0 - 0.3 * i as f32).collect());
        let bufs = spmv_operands([dw_zeros(6), x, b]);
        assert_eq!(check(&c, &VertexKind::Simple, &bufs), Some("spmv_residual"));
    }

    #[test]
    fn spmv_declines_unexpected_storage() {
        let cost = CostModel::default();
        let c = from_template("spmv", spmv_template(false));
        let k = match_codelet(&c).unwrap();
        // I32 x is not one of the monomorphised accumulation domains.
        let mut bufs = [
            Buf::F32(vec![0.0]),
            Buf::I32(vec![3]),
            Buf::F32(vec![1.0]),
            Buf::F32(vec![1.0]),
            Buf::I32(vec![0]),
            Buf::I32(vec![0, 1]),
        ];
        let mut p = params(&c, &mut bufs);
        assert!(k.run(&VertexKind::Simple, &mut p, &cost, WORKERS).is_none());
    }

    /// Row pointers the interpreter reads as `i32`s, not lengths: one that
    /// steps back (row 2 of `[0, 1, 2, 1, 5, 7]`) runs no trips and charges
    /// none, and the rows after it read from where the next pointer says.
    /// A negative pointer panics at its row's first trip on both routes.
    #[test]
    fn spmv_row_pointers_that_step_back_or_go_negative_match_interpreter() {
        let c = from_template("spmv", spmv_template(false));
        let layout = |rptr: Vec<i32>| {
            vec![
                Buf::F32(vec![0.0; 5]),
                Buf::F32((0..5).map(|i| 0.5 + 0.25 * i as f32).collect()),
                Buf::F32((0..5).map(|i| 2.0 - 0.125 * i as f32).collect()),
                Buf::F32((0..7).map(|i| 0.3 + 0.17 * i as f32).collect()),
                Buf::I32(vec![1, 0, 4, 2, 3, 0, 1]),
                Buf::I32(rptr),
            ]
        };
        let back = layout(vec![0, 1, 2, 1, 5, 7]);
        assert_eq!(check(&c, &VertexKind::Simple, &back), Some("spmv"));

        let negative = layout(vec![0, 1, -1, 2, 5, 7]);
        let cost = CostModel::default();
        let panics = |run: &dyn Fn(&mut [Buf])| {
            let mut bufs = negative.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut bufs))).is_err()
        };
        let interp = panics(&|bufs| {
            let mut p = params(&c, bufs);
            Interp::new(&cost, &mut p, c.num_locals, WORKERS)
                .run_vertex(&VertexKind::Simple, &c.body);
        });
        let kernel = match_codelet(&c).unwrap();
        let fused = panics(&|bufs| {
            let _ = kernel.run(&VertexKind::Simple, &mut params(&c, bufs), &cost, WORKERS);
        });
        assert!(interp && fused, "a negative row pointer: interp panics {interp}, fused {fused}");
    }

    // ------------------------------------------------------------------
    // The shapes outside the library — the DSL's `ParFor` map, the
    // `reduce1` dot, the serial `sum` combiner: under `fusion` they run
    // their lowered form.
    // ------------------------------------------------------------------

    /// `y[i] = value` over `y`, parameter 0.
    fn map_codelet(params: Vec<ParamDecl>, value: Expr) -> Codelet {
        let store = Stmt::Store { param: 0, index: Expr::Local(0), value };
        let (start, end) = (Expr::Const(Value::I32(0)), Expr::ParamLen(0));
        codelet("map", params, 1, vec![Stmt::ParFor { local: 0, start, end, body: vec![store] }])
    }

    /// `y[i] = y[i] + a[0] * x[i]` — in-place axpy, the canonical map.
    fn axpy_codelet(dy: DType, dx: DType, da: DType) -> Codelet {
        let a_x = Expr::bin(
            BinOp::Mul,
            Expr::index(2, Expr::Const(Value::I32(0))),
            Expr::index(1, Expr::Local(0)),
        );
        let value = Expr::bin(BinOp::Add, Expr::index(0, Expr::Local(0)), a_x);
        map_codelet(vec![mutp(dy), rop(dx), rop(da)], value)
    }

    #[test]
    fn map_axpy_matches_interpreter() {
        let c = axpy_codelet(DType::F32, DType::F32, DType::F32);
        for n in [0usize, 1, 7] {
            let bufs = [
                Buf::F32((0..n).map(|i| 1.0 - 0.2 * i as f32).collect()),
                Buf::F32((0..n).map(|i| (0.31 * i as f32).sin()).collect()),
                Buf::F32(vec![0.75]),
            ];
            assert_eq!(check(&c, &VertexKind::Simple, &bufs), None, "n={n}");
        }
    }

    #[test]
    fn map_mixed_dw_axpy_matches_interpreter() {
        // Dw destination, Dw scalar, f32 x: the mixed-precision multiply
        // plus the exact f32 -> Dw lift on the add.
        let c = axpy_codelet(DType::DoubleWord, DType::F32, DType::DoubleWord);
        let bufs = [
            Buf::Dw((0..6).map(|i| TwoFloat::from_f64(0.7 + 0.1 * i as f64)).collect()),
            Buf::F32((0..6).map(|i| (0.41 * i as f32).cos()).collect()),
            Buf::Dw(vec![TwoFloat::from_f64(1.0 / 3.0)]),
        ];
        assert_eq!(check(&c, &VertexKind::Simple, &bufs), None);
    }

    #[test]
    fn map_declines_storage_dtype_mismatch() {
        // Declared f32, the destination bound to Dw storage (a tensor the
        // planner retyped): the lowered form is typed for the storage.
        let c = axpy_codelet(DType::F32, DType::F32, DType::F32);
        let bufs = [dw_zeros(2), Buf::F32(vec![1.0, 2.0]), Buf::F32(vec![0.5])];
        assert_eq!(check(&c, &VertexKind::Simple, &bufs), None);
    }

    #[test]
    fn map_bool_arithmetic_matches_interpreter() {
        // `(x[i] > 0) + (x[i] < 1)`: Bool + Bool is charged as Bool and is
        // the I32 0, 1 or 2; stored to an I32 and to an F32 destination.
        let x_i = || Expr::index(1, Expr::Local(0));
        let value = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Gt, x_i(), Expr::Const(Value::F32(0.0))),
            Expr::bin(BinOp::Lt, x_i(), Expr::Const(Value::F32(1.0))),
        );
        let x = Buf::F32(vec![-1.0, 0.0, 0.5, 1.0, 2.0, f32::NAN]);
        let c = map_codelet(vec![mutp(DType::I32), rop(DType::F32)], value.clone());
        assert_eq!(check(&c, &VertexKind::Simple, &[Buf::I32(vec![7; 6]), x.clone()]), None);
        let c = map_codelet(vec![mutp(DType::F32), rop(DType::F32)], value);
        assert_eq!(check(&c, &VertexKind::Simple, &[Buf::F32(vec![7.0; 6]), x]), None);
    }

    #[test]
    fn map_with_a_non_integer_index_is_not_fused() {
        // `x[1.0]`: the dynamic interpreter truncates any index to an
        // integer, the lowering types only I32 indices, so this codelet is
        // neither fused nor lowered: it stays on `Interp`.
        let cost = CostModel::default();
        let storage = [DType::F32, DType::F32];
        let copy = |at| map_codelet(vec![mutp(DType::F32), rop(DType::F32)], Expr::index(1, at));
        let c = copy(Expr::Const(Value::F32(1.0)));
        assert!(match_codelet(&c).is_none());
        assert!(Lowered::lower(&c, &storage, false, &cost).is_none());
        let c = copy(Expr::Const(Value::I32(1)));
        assert!(Lowered::lower(&c, &storage, false, &cost).is_some());
    }

    /// `out[0] = sum_i x[i] * y[i]` with an explicit accumulator dtype.
    fn dot_codelet(acc: Value, dout: DType, dx: DType, dy: DType) -> Codelet {
        codelet(
            "dot",
            vec![mutp(dout), rop(dx), rop(dy)],
            2,
            vec![
                Stmt::SetLocal(1, Expr::Const(acc)),
                Stmt::ParFor {
                    local: 0,
                    start: Expr::Const(Value::I32(0)),
                    end: Expr::ParamLen(1),
                    body: vec![Stmt::SetLocal(
                        1,
                        Expr::bin(
                            BinOp::Add,
                            Expr::Local(1),
                            Expr::bin(
                                BinOp::Mul,
                                Expr::index(1, Expr::Local(0)),
                                Expr::index(2, Expr::Local(0)),
                            ),
                        ),
                    )],
                },
                Stmt::Store { param: 0, index: Expr::Const(Value::I32(0)), value: Expr::Local(1) },
            ],
        )
    }

    #[test]
    fn reduce_dot_matches_interpreter() {
        let f32s = dot_codelet(Value::F32(0.0), DType::F32, DType::F32, DType::F32);
        let f64s = dot_codelet(
            Value::F64(0.0),
            DType::F64Emulated,
            DType::F64Emulated,
            DType::F64Emulated,
        );
        for n in [0usize, 1, 9] {
            let x = |i: usize| (0.23 * i as f64).sin();
            let y = |i: usize| 1.0 + 0.05 * i as f64;
            let bufs = [
                Buf::F32(vec![0.0]),
                Buf::F32((0..n).map(|i| x(i) as f32).collect()),
                Buf::F32((0..n).map(|i| y(i) as f32).collect()),
            ];
            assert_eq!(check(&f32s, &VertexKind::Simple, &bufs), None, "f32, n={n}");
            let bufs = [
                Buf::F64(vec![SoftDouble(0.0)]),
                Buf::F64((0..n).map(|i| SoftDouble(x(i))).collect()),
                Buf::F64((0..n).map(|i| SoftDouble(y(i))).collect()),
            ];
            assert_eq!(check(&f64s, &VertexKind::Simple, &bufs), None, "f64, n={n}");
        }
    }

    #[test]
    fn reduce_dw_accumulator_over_f32_terms_matches_interpreter() {
        // Dw accumulator folding f32 products: the mixed-precision add rate
        // and the exact from_f lift, per iteration.
        let zero = Value::Dw(TwoFloat::from_f64(0.0));
        let c = dot_codelet(zero, DType::DoubleWord, DType::F32, DType::F32);
        let bufs = [
            dw_zeros(1),
            Buf::F32((0..11).map(|i| (0.19 * i as f32).cos()).collect()),
            Buf::F32((0..11).map(|i| 0.6 + 0.07 * i as f32).collect()),
        ];
        assert_eq!(check(&c, &VertexKind::Simple, &bufs), None);
    }

    /// The reduce-tree combiner: `out[0] = sum_i in[i]` over a serial For.
    fn sum_codelet(zero: Value, dt: DType) -> Codelet {
        codelet(
            "sum",
            vec![mutp(dt), rop(dt)],
            2,
            vec![
                Stmt::SetLocal(1, Expr::Const(zero)),
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
                Stmt::Store { param: 0, index: Expr::Const(Value::I32(0)), value: Expr::Local(1) },
            ],
        )
    }

    #[test]
    fn sum_f32_matches_interpreter() {
        let c = sum_codelet(Value::F32(0.0), DType::F32);
        for n in [0usize, 1, 8] {
            let xs = Buf::F32((0..n).map(|i| (0.51 * i as f32).sin()).collect());
            assert_eq!(check(&c, &VertexKind::Simple, &[Buf::F32(vec![0.0]), xs]), None, "n={n}");
        }
    }

    #[test]
    fn sum_i32_truncation_matches_interpreter() {
        // The interpreter's I32 domain adds in i64 then truncates to i32 at
        // every step; i32::MAX inputs make a wrapping-add shortcut visible.
        let c = sum_codelet(Value::I32(0), DType::I32);
        let xs = Buf::I32(vec![i32::MAX, 1, i32::MAX, -7, 123_456_789]);
        assert_eq!(check(&c, &VertexKind::Simple, &[Buf::I32(vec![0]), xs]), None);
    }

    #[test]
    fn sum_dw_matches_interpreter() {
        // And its emulated-f64 twin.
        let x = |i: usize| 0.1 * i as f64 + 1e-9;
        let dw = sum_codelet(Value::Dw(TwoFloat::from_f64(0.0)), DType::DoubleWord);
        let xs = Buf::Dw((0..7).map(|i| TwoFloat::from_f64(x(i))).collect());
        assert_eq!(check(&dw, &VertexKind::Simple, &[dw_zeros(1), xs]), None);
        let f64s = sum_codelet(Value::F64(0.0), DType::F64Emulated);
        let xs = Buf::F64((0..7).map(|i| SoftDouble(x(i))).collect());
        assert_eq!(check(&f64s, &VertexKind::Simple, &[Buf::F64(vec![SoftDouble(0.0)]), xs]), None);
    }

    #[test]
    fn matcher_rejects_near_misses() {
        // One declaration or one local off a template: no kernel, whatever
        // the rest says.
        let mut spmv = spmv_template(false);
        spmv.0[1].dtype = DType::DoubleWord;
        let mut residual = spmv_template(true);
        residual.1 += 1;
        for (name, t) in [("spmv", spmv), ("spmv_residual", residual)] {
            assert!(match_codelet(&from_template(name, t)).is_none(), "{name}");
        }
        // The map, reduction and sum shapes are not in the library, nor are
        // the triangular sweeps: they are kernel instructions of the
        // lowered form.
        let f32s = DType::F32;
        for c in [
            axpy_codelet(f32s, f32s, f32s),
            dot_codelet(Value::F32(0.0), f32s, f32s, f32s),
            sum_codelet(Value::F32(0.0), f32s),
            from_template("fwd", forward_subst_template(false)),
            from_template("fwd", forward_subst_template(true)),
            from_template("bwd", backward_subst_template(false)),
            from_template("bwd", backward_subst_template(true)),
        ] {
            assert!(match_codelet(&c).is_none(), "{}", c.name);
        }
    }
}
