//! Criterion benchmarks of the host-side kernels: the CPU baseline's CSR
//! SpMV (sequential vs rayon), ILU(0) factorisation, the framework's
//! compile-time analyses (halo decomposition, level sets, partitioning),
//! and both codelet interpreter routes on the vertex shapes a solve
//! replays.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graph::codelet::{
    BinOp, Codelet, Expr, Interp, Kernel, Lowered, ParamData, ParamDecl, Regs, Stmt, Value,
};
use graph::compute::{ComputeSet, TensorSlice, Vertex, VertexKind};
use graph::program::Prog;
use graph::tensor::TensorDef;
use graph::{Engine, Graph};
use ipu_sim::cost::{CostModel, DType};
use ipu_sim::model::IpuModel;
use sparse::formats::CsrMatrix;
use sparse::gen::{poisson_3d_7pt, Grid3};
use sparse::halo::HaloDecomposition;
use sparse::levelset::{LevelSets, Sweep};
use sparse::partition::Partition;

fn matrix() -> CsrMatrix {
    poisson_3d_7pt(24, 24, 24)
}

fn bench_spmv(c: &mut Criterion) {
    let a = matrix();
    let x: Vec<f64> = (0..a.nrows).map(|i| (i as f64 * 0.17).sin()).collect();
    let mut y = vec![0.0; a.nrows];
    let mut g = c.benchmark_group("cpu_spmv_24cubed");
    g.bench_function("sequential", |b| {
        b.iter(|| baselines::cpu::spmv_seq(black_box(&a), black_box(&x), &mut y))
    });
    g.bench_function("rayon", |b| {
        b.iter(|| baselines::cpu::spmv_par(black_box(&a), black_box(&x), &mut y))
    });
    g.finish();
}

fn bench_ilu_factorise(c: &mut Criterion) {
    let a = matrix();
    c.bench_function("cpu_ilu0_factorise_24cubed", |b| {
        b.iter(|| baselines::cpu::Ilu0Factors::new(black_box(&a)))
    });
}

fn bench_analyses(c: &mut Criterion) {
    let a = matrix();
    let grid = Grid3 { nx: 24, ny: 24, nz: 24 };
    let mut g = c.benchmark_group("compile_analyses");
    for tiles in [8usize, 64] {
        let part = Partition::grid_3d_auto(grid, tiles);
        g.bench_with_input(BenchmarkId::new("halo_decomposition", tiles), &part, |b, p| {
            b.iter(|| HaloDecomposition::build(black_box(&a), black_box(p)))
        });
    }
    g.bench_function("level_sets_forward", |b| {
        b.iter(|| LevelSets::analyze(black_box(&a), Sweep::Forward))
    });
    g.bench_function("partition_by_nnz_64", |b| {
        b.iter(|| Partition::balanced_by_nnz(black_box(&a), 64))
    });

    // The shape a cold one-shot solve builds: 40³ Poisson on 1000 tiles of
    // 64 rows, where per-tile and per-row costs, not the matrix, dominate.
    let a = poisson_3d_7pt(40, 40, 40);
    let part = Partition::balanced_by_nnz(&a, 1000);
    g.bench_function("halo_and_local_matrices_40cubed_1000", |b| {
        b.iter(|| HaloDecomposition::build(black_box(&a), black_box(&part)).local_matrices(&a))
    });
    let locals = HaloDecomposition::build(&a, &part).local_matrices(&a);
    g.bench_function("level_sets_of_locals_40cubed_1000", |b| {
        b.iter(|| {
            for local in black_box(&locals) {
                black_box(LevelSets::analyze(&local.a, Sweep::Forward));
                black_box(LevelSets::analyze(&local.a, Sweep::Backward));
            }
        })
    });
    g.finish();
}

/// `y[i] = a[0] * x[i] + y[i]`, the shape of every fused-expression map.
fn axpy_codelet() -> Codelet {
    let ro = |dtype| ParamDecl { dtype, mutable: false };
    Codelet {
        name: "axpy".into(),
        params: vec![
            ro(DType::F32),
            ParamDecl { dtype: DType::F32, mutable: true },
            ro(DType::F32),
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
                    BinOp::Add,
                    Expr::bin(
                        BinOp::Mul,
                        Expr::index(2, Expr::c(Value::I32(0))),
                        Expr::index(0, Expr::Local(0)),
                    ),
                    Expr::index(1, Expr::Local(0)),
                ),
            }],
        }],
    }
}

/// `x[i] = x[i] + y[i] * alpha[0] + z[i] * omega[0]`: BiCGStab's update of
/// its iterate, a map over two scalars as `DslCtx::assign` builds it.
fn two_scalar_codelet() -> Codelet {
    let ro = |dtype| ParamDecl { dtype, mutable: false };
    let at = |param| Expr::index(param, Expr::Local(0));
    let scalar = |param| Expr::index(param, Expr::c(Value::I32(0)));
    Codelet {
        name: "two_scalar".into(),
        params: vec![
            ParamDecl { dtype: DType::F32, mutable: true },
            ro(DType::F32),
            ro(DType::F32),
            ro(DType::F32),
            ro(DType::F32),
        ],
        num_locals: 1,
        body: vec![Stmt::ParFor {
            local: 0,
            start: Expr::c(Value::I32(0)),
            end: Expr::ParamLen(0),
            body: vec![Stmt::Store {
                param: 0,
                index: Expr::Local(0),
                value: Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Add, at(0), Expr::bin(BinOp::Mul, at(1), scalar(2))),
                    Expr::bin(BinOp::Mul, at(3), scalar(4)),
                ),
            }],
        }],
    }
}

/// The interpreter routes, per element, on one tile's worth of rows (32 is what
/// the benchmark's `fig8_mpir` maps to a tile, 64 what `cold_oneshot` does; the
/// two maps also at 39 and 256, a part-filled chunk of the map instruction and
/// four whole ones): `lowered` is the form the compiler builds per vertex and
/// the engine runs (for SpMV, its residual, the dot, the two sweeps, the Gauss-Seidel
/// update and the sum a kernel instruction), and `dynamic` the tree-walking
/// `Interp` it is tested against. An axpy map, BiCGStab's
/// two-scalar map, the SpMV codelet and its residual, a dot product's
/// per-tile stage, the forward- and backward-substitution and the
/// Gauss-Seidel `LevelSet` vertices go through them at codelet level, and
/// a reduction's sum over 23 and 64 partials; `engine` is the forward vertex through
/// `Engine::run`, so the per-vertex path around the lowered form (operand
/// slicing, scratch, stats) is measured too. A regression shows here in
/// seconds, without the 16 s host benchmark.
fn bench_interpreter(c: &mut Criterion) {
    let cost = CostModel::default();
    let mut g = c.benchmark_group("interpreter");
    // Both routes over one vertex of `$n` elements: `$params` is
    // re-evaluated per iteration, as the engine re-slices operands per
    // vertex.
    macro_rules! both_routes {
        ($name:expr, $n:expr, $codelet:expr, $kind:expr, $params:expr) => {{
            let (codelet, kind): (&Codelet, &VertexKind) = (&$codelet, &$kind);
            let storage: Vec<DType> = codelet.params.iter().map(|p| p.dtype).collect();
            let level_set = matches!(kind, VertexKind::LevelSet { .. });
            let lowered = Lowered::lower(codelet, &storage, level_set, &cost)
                .expect("the solver codelets lower");
            let mut regs = Regs::default();
            g.bench_function(format!("{}/{}/lowered", $name, $n), |b| {
                b.iter(|| black_box(&lowered).run_vertex(kind, &mut $params, &mut regs, &cost, 6))
            });
            g.bench_function(format!("{}/{}/dynamic", $name, $n), |b| {
                b.iter(|| {
                    Interp::new(&cost, &mut $params, codelet.num_locals, 6)
                        .run_vertex(kind, black_box(&codelet.body))
                })
            });
        }};
    }

    for n in [32usize, 39, 64, 256] {
        g.throughput(Throughput::Elements(n as u64));
        // One tile's block of a 5-point stencil, in the device's layout:
        // dense f32 diagonal + off-diagonal CSR with i32 indices.
        let a = sparse::gen::poisson_2d_5pt(8, n / 8, 1.0);
        let m = a.to_modified();
        let diag: Vec<f32> = m.diag.iter().map(|&v| v as f32).collect();
        let vals: Vec<f32> = m.values.iter().map(|&v| v as f32).collect();
        let cols: Vec<i32> = m.col_idx.iter().map(|&c| c as i32).collect();
        let rptr: Vec<i32> = m.row_ptr.iter().map(|&p| p as i32).collect();
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).sin()).collect();
        let ones = vec![1.0f32; n];
        let mut y = vec![0.0f32; n];
        let mut r = vec![0.0f32; n];
        let mut sum = [0.0f32];
        let alpha = [0.5f32];
        let omega = [-0.25f32];
        let levels = VertexKind::LevelSet { levels: LevelSets::analyze(&a, Sweep::Forward).levels };
        let backward_levels =
            VertexKind::LevelSet { levels: LevelSets::analyze(&a, Sweep::Backward).levels };

        both_routes!(
            "axpy",
            n,
            axpy_codelet(),
            VertexKind::Simple,
            [ParamData::F32Ro(&x), ParamData::F32(&mut y), ParamData::F32Ro(&alpha)]
        );
        both_routes!(
            "two_scalar",
            n,
            two_scalar_codelet(),
            VertexKind::Simple,
            [
                ParamData::F32(&mut y),
                ParamData::F32Ro(&x),
                ParamData::F32Ro(&alpha),
                ParamData::F32Ro(&ones),
                ParamData::F32Ro(&omega),
            ]
        );
        // The rest at one tile's rows only.
        if n != 32 && n != 64 {
            continue;
        }
        both_routes!(
            "spmv",
            n,
            Kernel::Spmv { residual: false }.codelet("spmv"),
            VertexKind::Simple,
            [
                ParamData::F32(&mut y),
                ParamData::F32Ro(&x),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ]
        );
        both_routes!(
            "residual",
            n,
            Kernel::Spmv { residual: true }.codelet("residual"),
            VertexKind::Simple,
            [
                ParamData::F32(&mut r),
                ParamData::F32Ro(&x),
                ParamData::F32Ro(&ones),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ]
        );
        both_routes!(
            "dot",
            n,
            Kernel::Dot { square: false }.codelet("dot"),
            VertexKind::Simple,
            [ParamData::F32(&mut sum), ParamData::F32Ro(&x), ParamData::F32Ro(&ones)]
        );
        let forward_subst = Kernel::Forward { divide: true }.codelet("forward_subst");
        both_routes!(
            "forward_subst_level_set",
            n,
            forward_subst,
            levels,
            [
                ParamData::F32(&mut y),
                ParamData::F32Ro(&ones),
                ParamData::F32Ro(&vals),
                ParamData::F32Ro(&diag),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ]
        );
        both_routes!(
            "backward_subst_level_set",
            n,
            Kernel::Backward { divide: true }.codelet("backward_subst"),
            backward_levels,
            [
                ParamData::F32(&mut y),
                ParamData::F32Ro(&vals),
                ParamData::F32Ro(&diag),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ]
        );
        both_routes!(
            "gauss_seidel_level_set",
            n,
            Kernel::GaussSeidel.codelet("gauss_seidel"),
            levels,
            [
                ParamData::F32(&mut y),
                ParamData::F32Ro(&ones),
                ParamData::F32Ro(&diag),
                ParamData::F32Ro(&vals),
                ParamData::I32Ro(&cols),
                ParamData::I32Ro(&rptr),
            ]
        );

        let mut graph = Graph::new(IpuModel::tiny(1));
        let mut tensor = |name: &str, dtype, values: &[f64]| {
            let t = graph.add_tensor(TensorDef::on_tile(name, dtype, values.len(), 0)).unwrap();
            (t, values.to_vec())
        };
        let as_f64 = |v: &[i32]| v.iter().map(|&i| i as f64).collect::<Vec<_>>();
        let operands = [
            tensor("w", DType::F32, &vec![0.0; n]),
            tensor("b", DType::F32, &vec![1.0; n]),
            tensor("lvals", DType::F32, &m.values),
            tensor("ldiag", DType::F32, &m.diag),
            tensor("cols", DType::I32, &as_f64(&cols)),
            tensor("rptr", DType::I32, &as_f64(&rptr)),
        ];
        let codelet = graph.add_codelet(forward_subst).unwrap();
        let mut cs = ComputeSet::new("forward_subst");
        cs.add(Vertex {
            tile: 0,
            codelet,
            operands: operands.iter().map(|(t, v)| TensorSlice::whole(*t, v.len())).collect(),
            kind: levels,
        });
        let cs = graph.add_compute_set(cs).unwrap();
        let mut engine = Engine::new(graph.compile(Prog::Execute(cs)).unwrap());
        for (t, values) in &operands {
            engine.write_tensor(*t, values);
        }
        g.bench_function(format!("forward_subst_level_set/{n}/engine"), |b| {
            b.iter(|| engine.run())
        });
    }
    // A reduction's tree and final stages: a sum of 23 partials and of 64.
    for n in [23usize, 64] {
        g.throughput(Throughput::Elements(n as u64));
        let partials: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).cos()).collect();
        let mut sum = [0.0f32];
        both_routes!(
            "sum",
            n,
            Kernel::Sum.codelet("sum"),
            VertexKind::Simple,
            [ParamData::F32(&mut sum), ParamData::F32Ro(&partials)]
        );
    }
    g.finish();
}

criterion_group!(benches, bench_spmv, bench_ilu_factorise, bench_analyses, bench_interpreter);
criterion_main!(benches);
