//! The three solver workloads, end to end. Everything here goes through the
//! pinned top-level surface only: `graphene_core::backends::resolve` →
//! `Backend::prepare` → `PreparedPlan::execute`, default options, no
//! executor choice and no `GRAPHENE_*` variable.

use std::rc::Rc;
use std::time::Instant;

use graphene::backend::{PreparedPlan, SolvePlan};
use graphene::graphene_core::backends::resolve;
use graphene::graphene_core::config::SolverConfig;
use graphene::graphene_core::runner::SolveOptions;
use graphene::profile::SolveReport;
use graphene::sparse::formats::CsrMatrix;

use crate::check::{digest, judge, Determinism};
use crate::inputs::{self, System, RHS_PER_SYSTEM};
use crate::trace::Tracer;

/// Which of the solver workloads to run.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Fig8Mpir,
    HeatMultiRhs,
    ColdOneshot,
}

impl Kind {
    /// `true`: one plan is prepared at set-up and every operation is one
    /// `execute` on it. `false`: an operation resolves, prepares and executes
    /// afresh, on each of the workload's systems in turn.
    fn reuses_plan(self) -> bool {
        self != Kind::ColdOneshot
    }

    fn warmup_ops(self) -> usize {
        if self.reuses_plan() {
            1
        } else {
            2
        }
    }

    fn systems(self, seed: u64, tiny: bool) -> Vec<System> {
        match self {
            Kind::Fig8Mpir => inputs::fig8_mpir(seed, tiny),
            Kind::HeatMultiRhs => inputs::heat_multi_rhs(seed, tiny),
            Kind::ColdOneshot => inputs::cold_oneshot(seed, tiny),
        }
    }
}

/// One solution as the top-level API returns it.
pub struct Solution {
    pub x: Vec<f64>,
    /// The residual the program reports for `x`.
    pub reported: f64,
    /// Simulated device cycles of the solve.
    pub device_cycles: u64,
    pub report: SolveReport,
}

pub fn prepare(
    backend: &str,
    a: &Rc<CsrMatrix>,
    config: &SolverConfig,
    opts: &SolveOptions,
) -> Result<Box<dyn PreparedPlan>, String> {
    let backend = resolve(backend, opts).map_err(|e| e.to_string())?;
    let plan = SolvePlan { a: Rc::clone(a), solver: config.to_value(), record_history: false };
    backend.prepare(&plan).map_err(|e| e.to_string())
}

pub fn execute(plan: &mut dyn PreparedPlan, b: &[f64]) -> Result<Solution, String> {
    let run = plan.execute(b, None).map_err(|e| e.to_string())?;
    let device_cycles = run.timing.cycle_stats().map_or(0, |s| s.device_cycles());
    Ok(Solution { x: run.x, reported: run.residual, device_cycles, report: run.report })
}

/// Run `f` under a span when a tracer is given, bare otherwise: end-to-end
/// numbers are measured with tracing off.
pub fn spanned<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// One timed operation.
pub struct Op {
    pub seconds: f64,
    /// Which right-hand side the operation used.
    pub rhs: usize,
    /// The outcome of the benchmark's checks on it.
    pub verdict: Result<(), String>,
    /// The last solve's report (for the serialisation probe).
    pub report: Option<SolveReport>,
}

/// A solver workload after set-up.
pub struct SolverWorkload {
    kind: Kind,
    pub systems: Vec<System>,
    plans: Vec<Box<dyn PreparedPlan>>,
    /// Operations cycle through the right-hand sides; each index is one
    /// input of the determinism gate.
    pub gate: Determinism,
    next_rhs: usize,
}

impl SolverWorkload {
    /// Everything up to the first timed operation: input generation,
    /// `resolve` + `prepare` where the plan is reused, and the warm-up
    /// operations.
    pub fn setup(
        kind: Kind,
        seed: u64,
        tiny: bool,
        tracer: &mut Option<&mut Tracer>,
    ) -> Result<SolverWorkload, String> {
        let systems = kind.systems(seed, tiny);
        let mut plans = Vec::new();
        if kind.reuses_plan() {
            for s in &systems {
                plans.push(spanned(tracer, "backend.prepare", || {
                    prepare("ipu-sim", &s.a, &s.config, &s.opts)
                })?);
            }
        }
        let mut w = SolverWorkload {
            kind,
            systems,
            plans,
            gate: Determinism::new(RHS_PER_SYSTEM),
            next_rhs: 0,
        };
        for _ in 0..kind.warmup_ops() {
            w.op(tracer).verdict.map_err(|e| format!("warm-up operation failed: {e}"))?;
        }
        Ok(w)
    }

    /// One operation on the next right-hand side, timed, then checked
    /// outside the timer.
    pub fn op(&mut self, tracer: &mut Option<&mut Tracer>) -> Op {
        let rhs = self.next_rhs;
        self.next_rhs = (rhs + 1) % RHS_PER_SYSTEM;
        let start = Instant::now();
        let mut solutions = Vec::with_capacity(self.systems.len());
        for (i, s) in self.systems.iter().enumerate() {
            let b = &s.rhs[rhs];
            solutions.push(if self.kind.reuses_plan() {
                let plan = &mut *self.plans[i];
                spanned(tracer, "backend.execute", || execute(plan, b))
            } else {
                spanned(tracer, "backend.prepare", || prepare("ipu-sim", &s.a, &s.config, &s.opts))
                    .and_then(|mut plan| {
                        spanned(tracer, "backend.execute", || execute(&mut *plan, b))
                    })
            });
        }
        let seconds = start.elapsed().as_secs_f64();

        let mut report = None;
        let mut verdict = Ok(());
        let (mut digests, mut cycles) = (0u64, 0u64);
        for (s, solution) in self.systems.iter().zip(solutions) {
            match solution {
                Ok(sol) => {
                    let judged = judge(&s.config, &s.a32, &s.rhs[rhs], &sol.x, sol.reported);
                    verdict = verdict.and(judged);
                    digests = digests.rotate_left(1) ^ digest(&sol.x);
                    cycles += sol.device_cycles;
                    report = Some(sol.report);
                }
                Err(e) => verdict = verdict.and(Err(e)),
            }
        }
        if verdict.is_ok() {
            verdict = self.gate.observe(rhs, digests, cycles);
        }
        Op { seconds, rhs, verdict, report }
    }
}
