//! A level-set vertex's row ids are opaque labels: the engine hands each to
//! the codelet in local 0 and schedules the measured row costs, and nothing
//! on that path may size a table by the *value* of a row id.
//!
//! Nor may a vertex or a compute set allocate at all: the operand slices,
//! the per-tile cycle list, the tensor base table, the registers and the
//! level-set schedule's buffers each live in a buffer that serves the whole
//! run, so what one `Engine::run` requests depends neither on how many
//! vertices a compute set holds nor on how often it executes.
//!
//! This is its own test binary because it installs a counting global
//! allocator; the counters are per thread, so nothing else is counted on a
//! measured one.

use graph::codelet::{
    backward_subst_template, forward_subst_template, BinOp, Codelet, Expr, ParamDecl, Stmt, Value,
};
use graph::compute::{ComputeSet, TensorSlice, Vertex, VertexKind};
use graph::graph::Graph;
use graph::program::Prog;
use graph::tensor::TensorDef;
use graph::{Engine, EngineOptions};
use ipu_sim::clock::Phase;
use ipu_sim::cost::{CostModel, DType, Op};
use ipu_sim::model::IpuModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    /// Requests (allocations and reallocations) this thread has made.
    static REQUESTS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are `const`-initialised thread-local
// `Cell`s without a destructor, so touching them neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|b| b.set(b.get() + layout.size()));
        let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTED.try_with(|b| b.set(b.get() + new_size));
        let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const FAR_ROW: usize = 1_000_000;

#[test]
fn sparse_row_ids_cost_what_dense_ones_do_and_size_no_table() {
    // Row 0 seeds x[0]; the other row, whatever its id, writes x[1] from it.
    let mut g = Graph::new(IpuModel::tiny(1));
    let x = g.add_tensor(TensorDef::on_tile("x", DType::F32, 2, 0)).unwrap();
    let c = g
        .add_codelet(Codelet {
            name: "seed_then_step".into(),
            params: vec![ParamDecl { dtype: DType::F32, mutable: true }],
            num_locals: 1,
            body: vec![Stmt::If {
                cond: Expr::bin(BinOp::Eq, Expr::Local(0), Expr::c(Value::I32(0))),
                then: vec![Stmt::Store {
                    param: 0,
                    index: Expr::c(Value::I32(0)),
                    value: Expr::c(Value::F32(1.0)),
                }],
                otherwise: vec![Stmt::Store {
                    param: 0,
                    index: Expr::c(Value::I32(1)),
                    value: Expr::bin(
                        BinOp::Add,
                        Expr::index(0, Expr::c(Value::I32(0))),
                        Expr::c(Value::F32(1.0)),
                    ),
                }],
            }],
        })
        .unwrap();
    let mut cs = ComputeSet::new("sparse_rows");
    cs.add(Vertex {
        tile: 0,
        codelet: c,
        operands: vec![TensorSlice::whole(x, 2)],
        kind: VertexKind::LevelSet { levels: vec![vec![0], vec![FAR_ROW]] },
    });
    let cs = g.add_compute_set(cs).unwrap();
    let mut e = Engine::new(g.compile(Prog::Execute(cs)).unwrap());

    e.run(); // warm-up: lazily built engine state is not the vertex's cost
    let before = REQUESTED.with(Cell::get);
    e.run();
    let requested = REQUESTED.with(Cell::get) - before;

    assert_eq!(e.read_tensor(x), vec![1.0, 2.0]);

    // The charge is what it always was: spawn + per level (row + barrier),
    // a row being compare + branch (+ load + add) + store.
    let cm = CostModel::default();
    let head = cm.op_cycles(Op::Cmp, DType::I32) + cm.op_cycles(Op::Branch, DType::Bool);
    let store = cm.op_cycles(Op::Store, DType::F32);
    let row0 = head + store;
    let far = head + cm.op_cycles(Op::Load, DType::F32) + cm.op_cycles(Op::Add, DType::F32) + store;
    let vertex = cm.worker_spawn_cycles + row0 + far + 2 * cm.worker_sync_cycles;
    assert_eq!(e.stats().phase_cycles(Phase::Compute), 2 * vertex, "two runs of one vertex");

    // A table indexed by row id would be FAR_ROW + 1 entries (≥ 8 MB of u64).
    assert!(
        requested < FAR_ROW,
        "one run requested {requested} bytes: something is sized by the row id"
    );
}

/// Allocator requests of one warm `Engine::run` of a single compute set of
/// `vertices` vertices, spread over four tiles, each scaling its own two
/// elements of `x` by a scalar operand: `Simple` vertices in a `ParFor`, or
/// `LevelSet` vertices a row at a time over two levels; the compute set
/// executed `repeats` times.
fn requests_of_one_run(vertices: usize, level_set: bool, repeats: u32) -> usize {
    let mut g = Graph::new(IpuModel::tiny(4));
    let x = g.add_tensor(TensorDef::linear("x", DType::F32, 2 * 64, 4)).unwrap();
    let a = g.add_tensor(TensorDef::linear("a", DType::F32, 4, 4)).unwrap();
    let scale = Stmt::Store {
        param: 0,
        index: Expr::Local(0),
        value: Expr::bin(BinOp::Mul, Expr::index(0, Expr::Local(0)), Expr::Local(1)),
    };
    let body = if level_set {
        vec![Stmt::SetLocal(1, Expr::index(1, Expr::c(Value::I32(0)))), scale]
    } else {
        vec![
            Stmt::SetLocal(1, Expr::index(1, Expr::c(Value::I32(0)))),
            Stmt::ParFor {
                local: 0,
                start: Expr::c(Value::I32(0)),
                end: Expr::ParamLen(0),
                body: vec![scale],
            },
        ]
    };
    let c = g
        .add_codelet(Codelet {
            name: "scale".into(),
            params: vec![
                ParamDecl { dtype: DType::F32, mutable: true },
                ParamDecl { dtype: DType::F32, mutable: false },
            ],
            num_locals: 2,
            body,
        })
        .unwrap();
    let mut cs = ComputeSet::new("scale");
    for v in 0..vertices {
        // `linear` maps 32 consecutive elements of `x`, one of `a`, per tile.
        let tile = v / 16;
        cs.add(Vertex {
            tile,
            codelet: c,
            operands: vec![
                TensorSlice { tensor: x, start: 2 * v, len: 2 },
                TensorSlice { tensor: a, start: tile, len: 1 },
            ],
            kind: if level_set {
                VertexKind::LevelSet { levels: vec![vec![1], vec![0]] }
            } else {
                VertexKind::Simple
            },
        });
    }
    let cs = g.add_compute_set(cs).unwrap();
    let prog = match repeats {
        1 => Prog::Execute(cs),
        n => Prog::Repeat(n, Box::new(Prog::Execute(cs))),
    };
    let mut e = Engine::new(g.compile(prog).unwrap());
    e.write_tensor(x, &[1.0; 128]);
    e.write_tensor(a, &[2.0; 4]);

    e.run(); // warm-up, as above
    let before = REQUESTS.with(Cell::get);
    e.run();
    let requests = REQUESTS.with(Cell::get) - before;

    let mut want = vec![1.0; 128];
    want[..2 * vertices].fill(2f64.powi(2 * repeats as i32));
    assert_eq!(e.read_tensor(x), want, "{vertices} vertices, two runs of {repeats}");
    requests
}

#[test]
fn a_compute_set_of_64_vertices_requests_no_more_allocations_than_one_of_1() {
    let (one, many) = (requests_of_one_run(1, false, 1), requests_of_one_run(64, false, 1));
    assert!(many <= one, "1 vertex: {one} requests per run; 64 vertices: {many}");
}

#[test]
fn a_compute_set_of_64_level_set_vertices_requests_no_more_allocations_than_one_of_1() {
    let (one, many) = (requests_of_one_run(1, true, 1), requests_of_one_run(64, true, 1));
    assert!(many <= one, "1 vertex: {one} requests per run; 64 vertices: {many}");
}

/// The operand buffer, the per-tile cycle list and the tensor base table
/// serve a whole run, not one compute set.
#[test]
fn a_compute_set_executed_8_times_requests_no_more_allocations_than_executed_once() {
    for level_set in [false, true] {
        let (once, eight) =
            (requests_of_one_run(16, level_set, 1), requests_of_one_run(16, level_set, 8));
        assert!(eight <= once, "level set: {level_set}; once: {once} requests; 8×: {eight}");
    }
}

/// Rows of one sweep vertex: one pivot row and seven that read it, so the
/// second level is wider than a tile's six workers.
const SWEEP_ROWS: usize = 8;

/// Allocator requests of one warm `Engine::run`, under `options`, of a
/// compute set of `vertices` triangular-sweep vertices on one tile, each
/// over its own `SWEEP_ROWS` rows: the forward sweep (rows 1.. read row 0)
/// or the backward one (rows ..7 read row 7), each in two levels, the
/// second of seven rows. Also the first vertex's solution.
fn sweep_requests(vertices: usize, forward: bool, options: EngineOptions) -> (usize, Vec<f64>) {
    let n = SWEEP_ROWS;
    let pivot = if forward { 0 } else { n - 1 };
    let others: Vec<usize> = (0..n).filter(|&i| i != pivot).collect();
    let mut g = Graph::new(IpuModel::tiny(1));
    let mut tensor = |name: &str, dtype, per_vertex: usize, values: Vec<f64>| {
        let len = per_vertex * vertices;
        let t = g.add_tensor(TensorDef::on_tile(name, dtype, len, 0)).unwrap();
        (t, per_vertex, values.repeat(vertices))
    };
    let w = tensor("w", DType::F32, n, (0..n).map(|i| 1.0 + i as f64).collect());
    let b = tensor("b", DType::F32, n, vec![1.0; n]);
    let vals = tensor("vals", DType::F32, n - 1, vec![0.5; n - 1]);
    let diag = tensor("diag", DType::F32, n, vec![2.0; n]);
    let cols = tensor("cols", DType::I32, n - 1, vec![pivot as f64; n - 1]);
    let rptr = {
        // The pivot's row is empty, every other row holds one entry.
        let mut ends = vec![0.0];
        for i in 0..n {
            ends.push(ends[i] + (i != pivot) as u8 as f64);
        }
        tensor("rptr", DType::I32, n + 1, ends)
    };
    let (template, operands) = if forward {
        (forward_subst_template(true), vec![&w, &b, &vals, &diag, &cols, &rptr])
    } else {
        (backward_subst_template(true), vec![&w, &vals, &diag, &cols, &rptr])
    };
    let (params, num_locals, body) = template;
    let c = g.add_codelet(Codelet { name: "sweep".into(), params, num_locals, body }).unwrap();
    let mut cs = ComputeSet::new("sweep");
    for v in 0..vertices {
        cs.add(Vertex {
            tile: 0,
            codelet: c,
            operands: operands
                .iter()
                .map(|&&(t, per, _)| TensorSlice { tensor: t, start: v * per, len: per })
                .collect(),
            kind: VertexKind::LevelSet { levels: vec![vec![pivot], others.clone()] },
        });
    }
    let cs = g.add_compute_set(cs).unwrap();
    let mut e = Engine::with_options(g.compile(Prog::Execute(cs)).unwrap(), options);
    let selection = e.compile_report().pass("native-kernel-selection").unwrap();
    assert_eq!(selection.counter("vertices_kernel"), vertices as u64, "a kernel instruction each");
    for (t, _, values) in [&w, &b, &vals, &diag, &cols, &rptr] {
        e.write_tensor(*t, values);
    }

    e.run(); // warm-up, as above
    let before = REQUESTS.with(Cell::get);
    e.run();
    let requests = REQUESTS.with(Cell::get) - before;
    (requests, e.read_tensor(w.0)[..n].to_vec())
}

/// The triangular sweeps — both a kernel instruction on every route —
/// schedule their levels in the run's buffers too, a level wider than the
/// workers included.
#[test]
fn a_compute_set_of_64_sweep_vertices_requests_no_more_allocations_than_one_of_1() {
    for forward in [false, true] {
        let (_, reference) = sweep_requests(1, forward, EngineOptions::ALL[0]);
        for options in EngineOptions::ALL {
            let ((one, x1), (many, x64)) =
                (sweep_requests(1, forward, options), sweep_requests(64, forward, options));
            let who = format!("forward: {forward}, {options:?}");
            assert_eq!((&x1, &x64), (&reference, &reference), "{who}: solutions");
            assert!(many <= one, "{who}: 1 vertex: {one} requests per run; 64 vertices: {many}");
        }
    }
}
