//! Property test: random `Prog` trees execute identically on every engine
//! built from their compiled plan.
//!
//! The engine's contract is determinism: two engines replaying one plan
//! must leave bit-identical tensor storage and cycle-identical `CycleStats`
//! behind, with per-step attribution that partitions the device cycles.
//! This test generates depth-bounded random program trees over a small
//! fixed graph (compute sets with and without compiler-inserted
//! broadcasts, a cross-tile exchange, whole-tensor copies, loops,
//! branches, labels and host callbacks) and checks one engine's run
//! against another's.

use graph::codelet::{BinOp, Codelet, Expr, ParamDecl, Stmt, Value};
use graph::compute::{ComputeSet, TensorSlice, Vertex, VertexKind};
use graph::graph::Graph;
use graph::program::{ElemCopy, ExchangeStep, Prog};
use graph::tensor::{TensorDef, TensorId};
use graph::Engine;
use ipu_sim::cost::DType;
use ipu_sim::model::IpuModel;
use profile::TraceRecorder;
use proptest::TestRng;

/// The fixed material a random program is built from.
struct Fixture {
    graph: Graph,
    /// Identically mapped data tensors (valid `Copy` pairs).
    data: Vec<TensorId>,
    /// Tile-3 vector filled from the remote tile-0 scalar.
    y: TensorId,
    /// Scalar broadcast source (tile 0).
    s: TensorId,
    /// Length-1 predicate holding 0.0 (branch false / loop exit).
    pred_false: TensorId,
    /// Length-1 predicate holding 1.0 (branch true).
    pred_true: TensorId,
    /// `double` compute set over `data[0]` (no broadcast).
    cs_double: usize,
    /// `fill` compute set reading the remote scalar (broadcast).
    cs_fill: usize,
}

fn fixture() -> Fixture {
    let mut g = Graph::new(IpuModel::tiny(4));
    let data: Vec<TensorId> = (0..3)
        .map(|i| g.add_tensor(TensorDef::linear(format!("d{i}"), DType::F32, 8, 2)).unwrap())
        .collect();
    let y = g.add_tensor(TensorDef::on_tile("y", DType::F32, 4, 3)).unwrap();
    let s = g.add_tensor(TensorDef::on_tile("s", DType::F32, 1, 0)).unwrap();
    let pred_false = g.add_tensor(TensorDef::on_tile("p0", DType::F32, 1, 0)).unwrap();
    let pred_true = g.add_tensor(TensorDef::on_tile("p1", DType::F32, 1, 0)).unwrap();

    let scale = g
        .add_codelet(Codelet {
            name: "scale".into(),
            params: vec![ParamDecl { dtype: DType::F32, mutable: true }],
            num_locals: 1,
            body: vec![Stmt::ParFor {
                local: 0,
                start: Expr::c(Value::I32(0)),
                end: Expr::ParamLen(0),
                body: vec![Stmt::Store {
                    param: 0,
                    index: Expr::Local(0),
                    value: Expr::bin(
                        BinOp::Mul,
                        Expr::index(0, Expr::Local(0)),
                        Expr::c(Value::F32(1.25)),
                    ),
                }],
            }],
        })
        .unwrap();
    let fill = g
        .add_codelet(Codelet {
            name: "fill".into(),
            params: vec![
                ParamDecl { dtype: DType::F32, mutable: false },
                ParamDecl { dtype: DType::F32, mutable: true },
            ],
            num_locals: 1,
            body: vec![Stmt::For {
                local: 0,
                start: Expr::c(Value::I32(0)),
                end: Expr::ParamLen(1),
                step: Expr::c(Value::I32(1)),
                body: vec![Stmt::Store {
                    param: 1,
                    index: Expr::Local(0),
                    value: Expr::index(0, Expr::c(Value::I32(0))),
                }],
            }],
        })
        .unwrap();

    // One `scale` vertex per resident chunk of d0 — a plain superstep.
    let mut cs = ComputeSet::new("scale_d0");
    for (tile, start) in [(0usize, 0usize), (1, 4)] {
        cs.add(Vertex {
            tile,
            codelet: scale,
            operands: vec![TensorSlice { tensor: data[0], start, len: 4 }],
            kind: VertexKind::Simple,
        });
    }
    let cs_double = g.add_compute_set(cs).unwrap();

    // `fill` on tile 3 reads the tile-0 scalar: the compiler must insert
    // a broadcast exchange before this superstep.
    let mut cs = ComputeSet::new("fill_y");
    cs.add(Vertex {
        tile: 3,
        codelet: fill,
        operands: vec![TensorSlice::whole(s, 1), TensorSlice::whole(y, 4)],
        kind: VertexKind::Simple,
    });
    let cs_fill = g.add_compute_set(cs).unwrap();

    Fixture { graph: g, data, y, s, pred_false, pred_true, cs_double, cs_fill }
}

/// A cross-tile exchange: two elements from d0's tile-0 chunk into d1's
/// tile-1 chunk.
fn halo(f: &Fixture) -> ExchangeStep {
    ExchangeStep {
        name: "halo".into(),
        copies: vec![ElemCopy {
            src: f.data[0],
            src_start: 1,
            dst: f.data[1],
            dst_start: 5,
            len: 2,
        }],
    }
}

/// Generate a random depth-bounded program tree over the fixture.
fn gen_prog(rng: &mut TestRng, f: &Fixture, depth: usize) -> Prog {
    // At the depth limit only leaves remain.
    let kinds = if depth == 0 { 7 } else { 12 };
    match rng.below(kinds) {
        0 => Prog::Nop,
        1 => Prog::Execute(f.cs_double),
        2 => Prog::Execute(f.cs_fill),
        3 => Prog::Exchange(halo(f)),
        4 => {
            let src = f.data[rng.below(f.data.len())];
            let dst = f.data[rng.below(f.data.len())];
            Prog::Copy { src, dst }
        }
        5 => Prog::Callback(rng.below(2)),
        6 => Prog::Copy { src: f.data[2], dst: f.data[2] }, // self-copy
        7 => {
            let n = rng.below(3);
            Prog::Seq((0..n).map(|_| gen_prog(rng, f, depth - 1)).collect())
        }
        8 => Prog::Repeat(rng.below(3) as u32, Box::new(gen_prog(rng, f, depth - 1))),
        9 => Prog::Label(format!("l{}", rng.below(3)), Box::new(gen_prog(rng, f, depth - 1))),
        10 => {
            let pred = if rng.below(2) == 0 { f.pred_false } else { f.pred_true };
            Prog::If {
                pred,
                then: Box::new(gen_prog(rng, f, depth - 1)),
                otherwise: Box::new(gen_prog(rng, f, depth - 1)),
            }
        }
        _ => Prog::While {
            // pred_false: the loop tests once, runs the cond once, exits.
            cond: Box::new(gen_prog(rng, f, depth - 1)),
            pred: f.pred_false,
            body: Box::new(gen_prog(rng, f, depth - 1)),
        },
    }
}

/// Everything one run leaves behind that must not depend on the engine
/// options.
#[derive(Debug, PartialEq)]
struct Observed {
    tensors: Vec<Vec<u64>>,
    device_cycles: u64,
    exchange_bytes: u64,
    supersteps: u64,
    sync_count: u64,
    labels: Vec<(String, [u64; 3])>,
    tile_busy: Vec<u64>,
}

/// What additionally must not depend on the engine options: the per-step
/// attribution and the trace.
#[derive(Debug, PartialEq)]
struct PerPlan {
    /// Σ per-step cycles of the perf attribution.
    perf_total: u64,
    perf_json: String,
    trace: String,
}

/// Build an engine for `prog`, seed its storage deterministically, run
/// with the perf recorder and a trace attached, and collect the lot.
fn run(f: &Fixture, prog: &Prog) -> (Observed, PerPlan) {
    let exec = f.graph.clone().compile(prog.clone()).expect("random program must validate");
    let mut e = Engine::new(exec);
    e.enable_perf();
    e.set_trace(TraceRecorder::default());
    for (k, cb) in [(0usize, 10.0f64), (1, 100.0)] {
        e.register_callback(
            k,
            Box::new(move |view: &mut graph::engine::HostView<'_>| {
                let mut v = view.read_f64(0);
                v[0] += cb;
                view.write_f64(0, &v);
            }),
        );
    }
    for (i, t) in f.data.iter().enumerate() {
        let vals: Vec<f64> = (0..8).map(|j| (i as f64 + 1.0) * 0.5 + j as f64).collect();
        e.write_tensor(*t, &vals);
    }
    e.write_tensor(f.y, &[0.0; 4]);
    e.write_scalar(f.s, 7.5);
    e.write_scalar(f.pred_false, 0.0);
    e.write_scalar(f.pred_true, 1.0);
    e.run();
    let mut tensors: Vec<Vec<u64>> = Vec::new();
    for t in f.data.iter().chain([&f.y, &f.s, &f.pred_false, &f.pred_true]) {
        tensors.push(e.read_tensor(*t).into_iter().map(f64::to_bits).collect());
    }
    let report = e.perf_report(8).expect("perf recorder was armed");
    let observed = Observed {
        tensors,
        device_cycles: e.stats().device_cycles(),
        exchange_bytes: e.stats().exchange_bytes(),
        supersteps: e.stats().supersteps(),
        sync_count: e.stats().sync_count(),
        labels: e.stats().labels_by_phase_sorted(),
        tile_busy: e.stats().tile_busy_all().to_vec(),
    };
    let per_plan = PerPlan {
        perf_total: report.steps_total(),
        perf_json: report.attribution_json(),
        trace: format!("{:?}", e.trace().expect("trace was attached").events()),
    };
    (observed, per_plan)
}

/// Storage bits, the cycle profile, the perf attribution (which partitions
/// `device_cycles` with no remainder) and the trace events are the same on
/// two engines built from one program.
#[test]
fn random_trees_execute_identically_under_every_dispatch_schedule_and_plan() {
    let f = fixture();
    for seed in 0..48u64 {
        let mut rng = TestRng::seed_from_u64(0x5eed_0000 + seed);
        let prog = gen_prog(&mut rng, &f, 4);
        let (want, want_plan) = run(&f, &prog);
        assert_eq!(
            want_plan.perf_total, want.device_cycles,
            "per-step cycles must partition device_cycles (seed {seed}): {prog:?}"
        );
        let (got, got_plan) = run(&f, &prog);
        assert_eq!(want, got, "a second engine diverged (seed {seed}): {prog:?}");
        assert_eq!(want_plan, got_plan, "perf/trace diverged (seed {seed}): {prog:?}");
    }
}
