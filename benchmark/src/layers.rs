//! The layer replica: one solve rebuilt from the layers' public functions,
//! with a span around each call, in the order `runner::solve` makes them
//! (partition → `DistSystem::build` → solver program → `build_engine` →
//! upload → `Engine::run` → readback → f64 residual).
//!
//! This is the only file that reaches below the top-level API. A later
//! change that records spans inside the program deletes it in one piece.
//! Until then its fidelity is checked on every operation: the replica must
//! return the same solution bits and device cycles as the top-level call on
//! the same input.

use std::rc::Rc;

use graphene::dsl::prelude::{CompileOptions, DType, DslCtx};
use graphene::graphene_core::autotune;
use graphene::graphene_core::config::SolverConfig;
use graphene::graphene_core::dist::DistSystem;
use graphene::graphene_core::runner::SolveOptions;
use graphene::graphene_core::solvers::{solver_from_config, Monitor, Mpir};
use graphene::ipu_sim::clock::Phase;
use graphene::profile::SolveReport;
use graphene::sparse::fingerprint::StructureFingerprint;
use graphene::sparse::formats::CsrMatrix;
use graphene::sparse::halo::HaloDecomposition;
use graphene::sparse::levelset::{LevelSets, Sweep};
use graphene::sparse::partition::Partition;

use crate::check::digest;
use crate::report::Outcome;
use crate::solve::{execute, prepare};
use crate::stats::median;
use crate::trace::Tracer;

/// The spans of one replica solve, in call order. Their sum is what the
/// replica attributes; the rest of a top-level `execute` is unattributed.
const LAYER_SPANS: [(&str, &str); 10] = [
    ("sparse.partition", "sparse.partition_s"),
    ("dist.build", "dist.build_s"),
    ("dsl.program", "dsl.program_s"),
    ("graph.build_engine", "graph.build_engine_s"),
    ("engine.upload", "engine.upload_s"),
    ("engine.run", "engine.run_s"),
    ("engine.readback", "engine.readback_s"),
    ("runner.judge", "runner.judge_s"),
    ("runner.report", "runner.report_s"),
    ("runner.teardown", "runner.teardown_s"),
];

/// One system to solve: what `runner::solve` takes.
pub struct Item<'a> {
    pub a: &'a Rc<CsrMatrix>,
    pub config: &'a SolverConfig,
    pub opts: &'a SolveOptions,
    pub b: &'a [f64],
}

/// Counts read at the layer boundaries of one replica operation (summed
/// over its systems).
#[derive(Default)]
struct Counts {
    halo_volume: f64,
    codelets: f64,
    plan_steps: f64,
    supersteps: f64,
    device_cycles: f64,
    compute_cycles: f64,
    exchange_cycles: f64,
    sync_cycles: f64,
    exchange_bytes: f64,
    syncs: f64,
}

/// The tile count `runner::solve` picks with default options.
fn pick_tiles(opts: &SolveOptions, rows: usize) -> usize {
    rows.div_ceil(opts.rows_per_tile).max(1).min(opts.model.num_tiles()).min(rows)
}

/// Replica of one solve. Returns the solution digest and adds to `counts`.
fn solve(t: &mut Tracer, item: &Item<'_>, counts: &mut Counts) -> Result<u64, String> {
    let (a, b) = (item.a, item.b);
    let tiles = pick_tiles(item.opts, a.nrows);
    let part = t.span("sparse.partition", |_| Partition::balanced_by_nnz(a, tiles));
    let mut ctx = DslCtx::new(item.opts.model.clone());
    let sys = t.span("dist.build", |_| DistSystem::build(&mut ctx, Rc::clone(a), part));
    let (bt, xt, x_ext) = t.span("dsl.program", |_| {
        let bt = sys.new_vector(&mut ctx, "b", DType::F32);
        let xt = sys.new_vector(&mut ctx, "x", DType::F32);
        let mut solver = solver_from_config(item.config);
        solver.setup(&mut ctx, &sys);
        solver.solve(&mut ctx, &sys, bt, xt);
        // MPIR keeps the extended-precision solution in its own tensor.
        let x_ext = solver.as_any().downcast_mut::<Mpir>().and_then(|m| m.x_ext);
        (bt, xt, x_ext)
    });
    let mut engine = t
        .span("graph.build_engine", |_| {
            ctx.build_engine_with(CompileOptions::default()).map(|mut e| {
                e.enable_perf();
                e
            })
        })
        .map_err(|e| e.to_string())?;
    t.span("engine.upload", |_| {
        sys.upload(&mut engine);
        engine.write_tensor(bt.id, &sys.to_device_order(b));
    });
    t.span("engine.run", |_| engine.run());
    let x = t.span("engine.readback", |_| {
        let raw = engine.read_tensor(x_ext.map_or(xt.id, |x| x.id));
        sys.from_device_order(&raw)
    });
    let residual = t.span("runner.judge", |_| {
        // The runner judges against the system as the device sees it.
        let monitor = Monitor::new(&sys, Rc::new(b.to_vec()));
        let ax = monitor.a.spmv_alloc(&x);
        let rr: f64 = monitor.b.iter().zip(&ax).map(|(b, ax)| (b - ax) * (b - ax)).sum();
        let bb: f64 = monitor.b.iter().map(|b| b * b).sum();
        (rr / bb).sqrt()
    });
    let report = t.span("runner.report", |_| {
        let perf = engine.perf_report(12);
        let mut report = SolveReport::new("solve").with_stats(engine.stats());
        report.solver = item.config.to_value();
        report.final_residual = residual;
        report.compile = Some(engine.compile_report().clone());
        report.perf = perf;
        report
    });

    let stats = engine.stats();
    counts.halo_volume += sys.halo_volume() as f64;
    counts.codelets += engine.graph().codelets.len() as f64;
    counts.plan_steps += engine.plan().steps.len() as f64;
    counts.supersteps += stats.supersteps() as f64;
    counts.device_cycles += stats.device_cycles() as f64;
    counts.compute_cycles += stats.phase_cycles(Phase::Compute) as f64;
    counts.exchange_cycles += stats.phase_cycles(Phase::Exchange) as f64;
    counts.sync_cycles += stats.phase_cycles(Phase::Sync) as f64;
    counts.exchange_bytes += stats.exchange_bytes() as f64;
    counts.syncs += stats.sync_count() as f64;
    let digest = digest(&x);
    t.span("runner.teardown", |_| drop((report, engine, sys, x)));
    Ok(digest)
}

/// Pairs of (top-level operation, replica operation) on the same inputs,
/// and what the replica counted.
#[derive(Default)]
pub struct Ledger {
    pairs: Vec<(u64, u64)>,
    counts: Vec<Counts>,
}

impl Ledger {
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Run the replica of one operation (all its `items`) and pair it with
    /// the top-level operation `e2e_op` that just ran on the same inputs.
    /// Returns the replica's combined digest and device cycles, which must
    /// equal the top-level operation's.
    pub fn replica_op(
        &mut self,
        t: &mut Tracer,
        e2e_op: u64,
        items: &[Item<'_>],
    ) -> Result<(u64, u64), String> {
        let mut counts = Counts::default();
        let (op, digests) = t.operation(|t| {
            t.span("replica.op", |t| {
                let mut digests = 0u64;
                for item in items {
                    digests = digests.rotate_left(1) ^ solve(t, item, &mut counts)?;
                }
                Ok::<u64, String>(digests)
            })
        });
        let cycles = counts.device_cycles as u64;
        self.pairs.push((e2e_op, op));
        self.counts.push(counts);
        Ok((digests?, cycles))
    }

    /// Turn the recorded spans and counts into the per-layer metrics of the
    /// solve path.
    pub fn metrics(&self, t: &Tracer, out: &mut Outcome) {
        if self.pairs.is_empty() {
            out.problems.push("no replica operation ran".into());
            return;
        }
        let per_replica = |span: &str| -> Vec<f64> {
            self.pairs.iter().map(|&(_, r)| t.seconds_in(r, span)).collect()
        };
        for (span, metric) in LAYER_SPANS {
            out.set(metric, median(&per_replica(span)));
        }
        let count = |f: fn(&Counts) -> f64| median(&self.counts.iter().map(f).collect::<Vec<_>>());
        out.set("dist.halo_volume", count(|c| c.halo_volume));
        out.set("dsl.codelets", count(|c| c.codelets));
        out.set("graph.plan_steps", count(|c| c.plan_steps));
        out.set("engine.supersteps", count(|c| c.supersteps));
        out.set("ipu.compute_cycles", count(|c| c.compute_cycles));
        out.set("ipu.exchange_cycles", count(|c| c.exchange_cycles));
        out.set("ipu.sync_cycles", count(|c| c.sync_cycles));
        out.set("ipu.exchange_bytes", count(|c| c.exchange_bytes));
        out.set("ipu.syncs", count(|c| c.syncs));
        for c in &self.counts {
            if c.compute_cycles + c.exchange_cycles + c.sync_cycles != c.device_cycles {
                out.problems.push("compute + exchange + sync cycles != device cycles".into());
            }
        }
        let run_s = per_replica("engine.run");
        let rate = |f: fn(&Counts) -> f64| {
            median(&self.counts.iter().zip(&run_s).map(|(c, s)| f(c) / s).collect::<Vec<_>>())
        };
        out.set("engine.supersteps_per_s", rate(|c| c.supersteps));
        out.set("engine.mcycles_per_s", rate(|c| c.device_cycles * 1e-6));

        // What the replica misses of a top-level call, and what the spans cost.
        let e2e: Vec<f64> = self
            .pairs
            .iter()
            .map(|&(e, _)| t.seconds_in(e, "backend.prepare") + t.seconds_in(e, "backend.execute"))
            .collect();
        let attributed: Vec<f64> = self
            .pairs
            .iter()
            .map(|&(_, r)| LAYER_SPANS.iter().map(|(span, _)| t.seconds_in(r, span)).sum())
            .collect();
        let missed: Vec<f64> = e2e.iter().zip(&attributed).map(|(e, a)| e - a).collect();
        let ratio: Vec<f64> = e2e.iter().zip(&missed).map(|(e, m)| m / e).collect();
        out.set("runner.unattributed_s", median(&missed));
        out.set("trace.unattributed_ratio", median(&ratio));
        out.set("trace.overhead_ratio", median(&per_replica("replica.op")) / median(&e2e));
        out.set("backend.execute_s", median(&t.per_op("backend.execute")));
        out.set("backend.prepare_s", median(&t.per_op("backend.prepare")));
    }
}

/// Layer functions that run inside `DistSystem::build` or only with tuning
/// on, so no replica span isolates them: each is called once on its own.
/// Also the plain single-threaded `cpu` backend on the same systems, as the
/// reference. `cache_dir` is a benchmark-owned directory for the tuner.
pub fn probes(
    t: &mut Tracer,
    items: &[Item<'_>],
    report: &SolveReport,
    cache_dir: &std::path::Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // `profile` + `json`: a solve report out, a solver configuration in.
    let timed = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..9)
            .map(|_| {
                let start = std::time::Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    };
    out.set("report.serialize_s", timed(&mut || drop(std::hint::black_box(report.to_json()))));
    let config_text = items[0].config.to_json();
    out.set(
        "config.parse_s",
        timed(&mut || drop(std::hint::black_box(SolverConfig::from_json(&config_text)))),
    );

    let mut cpu_s = 0.0;
    for item in items {
        let a = item.a;
        t.span("sparse.fingerprint", |_| StructureFingerprint::of(a));
        let part = Partition::balanced_by_nnz(a, pick_tiles(item.opts, a.nrows));
        let locals =
            t.span("sparse.halo", |_| HaloDecomposition::build(a, &part).local_matrices(a));
        t.span("sparse.levelset", |_| {
            for local in &locals {
                LevelSets::analyze(&local.a, Sweep::Forward);
                LevelSets::analyze(&local.a, Sweep::Backward);
            }
        });

        let reference = cpu_reference(item.config);
        let mut plan = prepare("cpu", a, &reference, item.opts)?;
        let start = std::time::Instant::now();
        execute(&mut *plan, item.b)?;
        cpu_s += start.elapsed().as_secs_f64();
    }
    out.set("sparse.fingerprint_s", t.seconds_in(0, "sparse.fingerprint"));
    out.set("sparse.halo_s", t.seconds_in(0, "sparse.halo"));
    out.set("sparse.levelset_s", t.seconds_in(0, "sparse.levelset"));
    out.set("backend.cpu_solve_s", cpu_s);

    // The tuner is off by default, so only a probe sees it: one search into
    // an empty cache, then the same call again as a cache hit.
    let first = &items[0];
    let opts = SolveOptions { tune_cache: Some(cache_dir.to_path_buf()), ..first.opts.clone() };
    let searched = t
        .span("tune.search", |_| autotune::tune(first.a, first.config, &opts))
        .map_err(|e| e.to_string())?;
    let hit = t
        .span("tune.hit", |_| autotune::tune(first.a, first.config, &opts))
        .map_err(|e| e.to_string())?;
    if searched.cache_hit || !hit.cache_hit {
        out.problems.push("tuner probe: expected a cache miss followed by a hit".into());
    }
    out.set("tune.search_s", t.seconds_in(0, "tune.search"));
    out.set("tune.hit_s", t.seconds_in(0, "tune.hit"));
    out.set("tune.candidates", searched.candidates_scored as f64);
    Ok(())
}

/// The solver the `cpu` backend runs as the reference. It implements CG and
/// BiCGStab (optionally with ILU(0)) in f64, so: a Krylov stack keeps its
/// method and budget (and its preconditioner only if that is ILU(0)); MPIR
/// becomes its inner solver run to the outer tolerance; a fixed-budget
/// smoother becomes CG with as many iterations as the smoother makes matrix
/// passes.
fn cpu_reference(config: &SolverConfig) -> SolverConfig {
    let keep_ilu =
        |p: &Option<Box<SolverConfig>>| p.clone().filter(|p| matches!(**p, SolverConfig::Ilu0 {}));
    let passes = |n: u32| SolverConfig::Cg { max_iters: n, rel_tol: 0.0, precond: None };
    match config {
        SolverConfig::Cg { max_iters, rel_tol, precond } => SolverConfig::Cg {
            max_iters: *max_iters,
            rel_tol: *rel_tol,
            precond: keep_ilu(precond),
        },
        SolverConfig::BiCgStab { max_iters, rel_tol, precond } => SolverConfig::BiCgStab {
            max_iters: *max_iters,
            rel_tol: *rel_tol,
            precond: keep_ilu(precond),
        },
        SolverConfig::Mpir { inner, max_outer, rel_tol, .. } => match cpu_reference(inner) {
            SolverConfig::BiCgStab { max_iters, precond, .. } => SolverConfig::BiCgStab {
                max_iters: max_iters * max_outer,
                rel_tol: *rel_tol as f32,
                precond,
            },
            SolverConfig::Cg { max_iters, precond, .. } => SolverConfig::Cg {
                max_iters: max_iters * max_outer,
                rel_tol: *rel_tol as f32,
                precond,
            },
            other => other,
        },
        SolverConfig::GaussSeidel { sweeps, symmetric, .. } => {
            passes(if *symmetric { 2 * sweeps } else { *sweeps })
        }
        SolverConfig::Jacobi { sweeps, .. } => passes(*sweeps),
        _ => passes(1),
    }
}
