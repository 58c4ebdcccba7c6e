//! Whole vertices as the engine runs them — a kernel instruction where the
//! codelet is one of the solvers' templates bound to the storage it
//! declares, else the lowered register program — against `Interp`, on
//! adversarial operand layouts. The contract under test
//! is *exact* equality: output bits, cycles, flops and SRAM bytes.

use crate::codelet::{
    backward_subst_template, dot_template, forward_subst_template, spmv_template, sum_template,
    BinOp, Charge, Codelet, Expr, Interp, Kernel, Lowered, ParamData, ParamDecl, Regs, Stmt,
    Template, Value,
};
use crate::compute::VertexKind;
use ipu_sim::cost::{CostModel, DType};
use twofloat::{SoftDouble, TwoF32, TwoFloat};

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

    fn dtype(&self) -> DType {
        match self {
            Buf::F32(_) => DType::F32,
            Buf::I32(_) => DType::I32,
            Buf::Dw(_) => DType::DoubleWord,
            Buf::F64(_) => DType::F64Emulated,
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

/// `c` lowered for the storage of `bufs` on a vertex of `kind`.
fn lower(c: &Codelet, kind: &VertexKind, bufs: &[Buf]) -> Option<Lowered> {
    let storage: Vec<DType> = bufs.iter().map(Buf::dtype).collect();
    let level_set = matches!(kind, VertexKind::LevelSet { .. });
    Lowered::lower(c, &storage, level_set, &CostModel::default())
}

fn interp(c: &Codelet, kind: &VertexKind, bufs: &mut [Buf], cost: &CostModel) -> Charge {
    let mut p = params(c, bufs);
    let mut interp = Interp::new(cost, &mut p, c.num_locals, WORKERS);
    let cycles = interp.run_vertex(kind, &c.body);
    Charge { cycles, flops: interp.flops, mem_bytes: interp.mem_bytes }
}

/// One vertex as `run_vertex` runs it: on its lowered form. Also names the
/// kernel instruction that ran, if one did.
fn engine_route(
    c: &Codelet,
    kind: &VertexKind,
    bufs: &mut [Buf],
    cost: &CostModel,
) -> (Charge, Option<&'static str>) {
    let l = lower(c, kind, bufs).unwrap_or_else(|| panic!("{} does not lower", c.name));
    let run = l.run_vertex(kind, &mut params(c, bufs), &mut Regs::default(), cost, WORKERS);
    (run, l.kernel().map(Kernel::name))
}

/// Run one vertex on the engine's route and on `Interp`, each on its own
/// copy of `bufs`; require the same storage bits and the same charge. The
/// kernel instruction that ran, `None` for a register program.
fn check(c: &Codelet, kind: &VertexKind, bufs: &[Buf]) -> Option<&'static str> {
    c.validate().expect("test codelet validates");
    let cost = CostModel::default();
    let (mut want, mut got) = (bufs.to_vec(), bufs.to_vec());
    let oracle = interp(c, kind, &mut want, &cost);
    let (run, kernel) = engine_route(c, kind, &mut got, &cost);
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
// SpMV: the kernel instruction over F32 storage, a register program over
// wider vectors.
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
    let bufs = spmv_operands([Buf::F32(vec![0.0; 6]), x.clone()]);
    assert_eq!(check(&c, &VertexKind::Simple, &bufs), Some("spmv"));
    let c = from_template("spmv_residual", spmv_template(true));
    let b = Buf::F32((0..6).map(|i| 2.0 - 0.3 * i as f32).collect());
    let bufs = spmv_operands([Buf::F32(vec![0.0; 6]), x, b]);
    assert_eq!(check(&c, &VertexKind::Simple, &bufs), Some("spmv_residual"));
}

#[test]
fn spmv_empty_matrix_matches_interpreter() {
    // No rows: the `ParFor` makespan's floor of one cycle.
    let c = from_template("spmv", spmv_template(false));
    let empty = || Buf::F32(vec![]);
    let bufs = [empty(), empty(), empty(), empty(), Buf::I32(vec![]), Buf::I32(vec![0])];
    assert_eq!(check(&c, &VertexKind::Simple, &bufs), Some("spmv"));
}

#[test]
fn spmv_dw_and_f64_x_match_interpreter() {
    // Dw x and y (the MPIR inner-residual layout), then F64-emulated: not
    // the storage the template declares, so a register program.
    let c = from_template("spmv", spmv_template(false));
    let x = |i: usize| 1.0 / (3.0 + i as f64);
    let dw =
        spmv_operands([dw_zeros(6), Buf::Dw((0..6).map(|i| TwoFloat::from_f64(x(i))).collect())]);
    let f64s = spmv_operands([
        Buf::F64(vec![SoftDouble(0.0); 6]),
        Buf::F64((0..6).map(|i| SoftDouble(x(i))).collect()),
    ]);
    for bufs in [dw, f64s] {
        assert_eq!(check(&c, &VertexKind::Simple, &bufs), None);
    }
}

#[test]
fn spmv_residual_mixed_dw_matches_interpreter() {
    // Dw x against an f32 b: exercises the mixed-precision subtract.
    let c = from_template("spmv_residual", spmv_template(true));
    let x = Buf::Dw((0..6).map(|i| TwoFloat::from_f64(0.21 * (i as f64 + 1.0))).collect());
    let b = Buf::F32((0..6).map(|i| 2.0 - 0.3 * i as f32).collect());
    let bufs = spmv_operands([dw_zeros(6), x, b]);
    assert_eq!(check(&c, &VertexKind::Simple, &bufs), None);
}

/// The near miss runs its lowered program: an I32 `x` is not the storage
/// the template declares, so no kernel instruction, and the register
/// program leaves what `Interp` leaves.
#[test]
fn spmv_declines_unexpected_storage() {
    let c = from_template("spmv", spmv_template(false));
    let bufs = [
        Buf::F32(vec![0.0, 0.0]),
        Buf::I32(vec![3, -2]),
        Buf::F32(vec![1.0, 0.5]),
        Buf::F32(vec![1.0, 0.25]),
        Buf::I32(vec![1, 0]),
        Buf::I32(vec![0, 1, 2]),
    ];
    assert!(lower(&c, &VertexKind::Simple, &bufs).is_some_and(|l| l.kernel().is_none()));
    assert_eq!(check(&c, &VertexKind::Simple, &bufs), None);
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
    // Whether the run panicked, and the storage it left: the rows before
    // the panic stored alike, so both routes stop on the same row.
    let panics = |run: &dyn Fn(&mut [Buf])| {
        let mut bufs = negative.clone();
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut bufs))).is_err();
        (panicked, bufs.iter().map(Buf::bits).collect::<Vec<_>>())
    };
    let by_interp = panics(&|bufs| {
        interp(&c, &VertexKind::Simple, bufs, &cost);
    });
    let by_kernel = panics(&|bufs| {
        engine_route(&c, &VertexKind::Simple, bufs, &cost);
    });
    assert!(by_interp.0, "a negative row pointer: interp must panic");
    assert_eq!(by_interp, by_kernel, "a negative row pointer: the kernel panics on another row");
}

// ------------------------------------------------------------------
// The DSL's `ParFor` map, which runs its register program, and the
// `reduce1` dot and the serial `sum` combiner, kernels over F32 storage and
// register programs over the rest.
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
    // `x[1.0]`: the dynamic interpreter truncates any index to an integer,
    // the lowering types only I32 indices, so this codelet is neither a
    // kernel nor lowered: `Graph::compile` refuses it. `x[1]` lowers.
    let bufs = [Buf::F32(vec![0.0; 3]), Buf::F32(vec![1.0, 2.0, 3.0])];
    let copy = |at| map_codelet(vec![mutp(DType::F32), rop(DType::F32)], Expr::index(1, at));
    let c = copy(Expr::Const(Value::F32(1.0)));
    assert!(lower(&c, &VertexKind::Simple, &bufs).is_none());
    let c = copy(Expr::Const(Value::I32(1)));
    assert_eq!(check(&c, &VertexKind::Simple, &bufs), None);
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
    let f64s =
        dot_codelet(Value::F64(0.0), DType::F64Emulated, DType::F64Emulated, DType::F64Emulated);
    for n in [0usize, 1, 9] {
        let x = |i: usize| (0.23 * i as f64).sin();
        let y = |i: usize| 1.0 + 0.05 * i as f64;
        let bufs = [
            Buf::F32(vec![0.0]),
            Buf::F32((0..n).map(|i| x(i) as f32).collect()),
            Buf::F32((0..n).map(|i| y(i) as f32).collect()),
        ];
        assert_eq!(check(&f32s, &VertexKind::Simple, &bufs), Some("dot"), "f32, n={n}");
        let square = from_template("dot_square", dot_template(true));
        assert_eq!(
            check(&square, &VertexKind::Simple, &bufs[..2]),
            Some("dot_square"),
            "f32 squared, n={n}"
        );
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
        let bufs = [Buf::F32(vec![0.0]), xs];
        assert_eq!(check(&c, &VertexKind::Simple, &bufs), Some("sum"), "n={n}");
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
    // One declaration or one local off a template: no kernel, whatever the
    // rest says, and the register program leaves what `Interp` leaves.
    let vector = |n: usize| Buf::F32((0..n).map(|i| 0.5 + i as f32).collect());
    let spmv_bufs = |residual: bool| {
        let vectors = if residual { 3 } else { 2 };
        (0..vectors).map(|_| vector(6)).chain(csr()).collect::<Vec<_>>()
    };
    let mut spmv = spmv_template(false);
    spmv.0[1].dtype = DType::DoubleWord;
    let mut residual = spmv_template(true);
    residual.1 += 1;
    for (name, t, bufs) in
        [("spmv", spmv, spmv_bufs(false)), ("spmv_residual", residual, spmv_bufs(true))]
    {
        assert_eq!(check(&from_template(name, t), &VertexKind::Simple, &bufs), None, "{name}");
    }
    // The map shape and the reduction stages one local off are no kernel;
    // nor are the triangular sweeps on a `Simple` vertex, or the SpMV and
    // the reduction stages on a `LevelSet` one: each template is a kernel
    // for the vertex kind it is built for.
    let f32s = DType::F32;
    let mut dot = dot_template(false);
    dot.1 += 1;
    let mut sum = sum_template();
    sum.1 += 1;
    let simple = [
        (axpy_codelet(f32s, f32s, f32s), vec![vector(4), vector(4), vector(1)]),
        (from_template("dot", dot), vec![vector(1), vector(4), vector(4)]),
        (from_template("sum", sum), vec![vector(1), vector(4)]),
    ];
    for (c, bufs) in simple {
        assert_eq!(check(&c, &VertexKind::Simple, &bufs), None, "{}", c.name);
    }
    let sweeps = [
        from_template("fwd", forward_subst_template(false)),
        from_template("fwd", forward_subst_template(true)),
        from_template("bwd", backward_subst_template(false)),
        from_template("bwd", backward_subst_template(true)),
    ];
    for c in sweeps {
        let storage: Vec<DType> = c.params.iter().map(|p| p.dtype).collect();
        let lowered = Lowered::lower(&c, &storage, false, &CostModel::default());
        assert_eq!(lowered.and_then(|l| l.kernel()), None, "{}", c.name);
    }
    let spmv = from_template("spmv", spmv_template(false));
    let lowered = lower(&spmv, &VertexKind::LevelSet { levels: vec![] }, &spmv_bufs(false));
    assert_eq!(lowered.and_then(|l| l.kernel()), None, "spmv on a level set");
    let level_set = VertexKind::LevelSet { levels: vec![] };
    for (c, bufs) in [
        (from_template("dot", dot_template(false)), vec![vector(1), vector(4), vector(4)]),
        (from_template("sum", sum_template()), vec![vector(1), vector(4)]),
    ] {
        let lowered = lower(&c, &level_set, &bufs);
        assert_eq!(lowered.and_then(|l| l.kernel()), None, "{} on a level set", c.name);
    }
}
