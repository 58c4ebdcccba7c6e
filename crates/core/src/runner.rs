//! The one-call host API, and the plan behind it.
//!
//! The paper's Figure 2 as it runs here, in order:
//!
//! 1. **entry** — [`solve`] (or `IpuSimBackend::prepare`) takes the
//!    caller's [`SolveOptions`];
//! 2. **resolve** — [`SolveOptions::resolved`] fills every option left at
//!    "ask the environment" from [`EnvConfig`], once; below this line
//!    nothing reads the environment and `None` means the default;
//! 3. **dispatch** — `cpu`, `cpu:par` and `gpu-model` leave for
//!    `backends::external_solve`; everything else is the simulated IPU;
//! 4. **[`Plan::new`]** — what depends on the matrix, configuration and
//!    options only: validation, recovery policy, fault plan, the tuner's
//!    decision, the partition;
//! 5. **[`Plan::run`]** — what depends on `b` and `x0`: validation, the
//!    deadline, the 0×0 / 1×1 host answers, then the attempt loop;
//! 6. **attempt** — one full device run: distribute (a row with a zero or
//!    missing diagonal is a [`SolveError::Config`] naming it), symbolically
//!    execute the solver (probes attached through `Solver::instrument`),
//!    compile, upload, run, read back, recompute the true residual in f64;
//! 7. **judge** — accept, or name a detection; a detection rolls back to
//!    the last finite checkpoint and retries, first with the same
//!    configuration (up to `max_restarts` per rung), then down the
//!    degradation ladder (up to `max_degradations` steps) — the detect →
//!    rollback → restart → degrade state machine of [`crate::resilience`]
//!    — before the detection's typed error is returned;
//! 8. **report** — the accepted attempt and everything that happened on
//!    the way, as one [`SolveReport`].
//!
//! Failures are structured ([`SolveError`]). The detectors are armed by a
//! [`RecoveryPolicy`] or by an active fault plan, which auto-selects
//! [`RecoveryPolicy::resilient`].

use std::rc::Rc;
use std::time::{Duration, Instant};

use dsl::prelude::*;
use graph::FaultState;
use ipu_sim::clock::CycleStats;
use ipu_sim::fault::FaultPlan;
use profile::{DetectionRecord, PerfReport, Resilience, SolveReport, TraceRecorder};
use sparse::formats::CsrMatrix;
use sparse::partition::Partition;

use crate::autotune::TuneDecision;
use crate::config::SolverConfig;
use crate::dist::DistSystem;
use crate::env::{EnvConfig, TraceConfig};
use crate::resilience::{
    degrade, target_tolerance, validate_config, Checkpointer, Detection, DetectionKind,
    RecoveryPolicy, Sentinel, SolveError, SolveStatus,
};
use crate::solvers::{solver_from_config, Monitor, Mpir, Probes};

/// Options controlling partitioning, machine size and instrumentation.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// The machine to simulate.
    pub model: IpuModel,
    /// Tiles to use (`None`: one tile per ~`rows_per_tile` rows, capped by
    /// the machine).
    pub tiles: Option<usize>,
    /// Target rows per tile when `tiles` is `None`.
    pub rows_per_tile: usize,
    /// Record the true relative residual after every solver iteration
    /// (host callbacks; free in device time, costly in wall time).
    pub record_history: bool,
    /// Optional geometric partition (for structured-grid problems);
    /// falls back to nnz-balanced contiguous blocks.
    pub partition: Option<Partition>,
    /// Initial guess (zeros if `None`).
    pub x0: Option<Vec<f64>>,
    /// Deterministic hardware fault injection (`None`: whatever
    /// `GRAPHENE_FAULTS` selects, no faults when unset). See
    /// `ipu_sim::fault::FaultPlan` for the spec grammar.
    pub faults: Option<FaultPlan>,
    /// Detection/recovery policy (`None`: [`RecoveryPolicy::resilient`]
    /// when a fault plan is active, the inert default otherwise).
    pub recovery: Option<RecoveryPolicy>,
    /// Cost-model auto-tuning (`None`: whatever `GRAPHENE_TUNE` selects,
    /// off when unset). When on and no explicit `partition` is given, the
    /// tuner searches partition strategy x rows-per-tile by
    /// modelled probe cycles and applies the winner; decisions are cached
    /// on disk keyed by matrix structure (see [`crate::autotune`]).
    pub tune: Option<bool>,
    /// Plan-cache directory override for tuning (`None`: whatever
    /// `GRAPHENE_TUNE_CACHE` selects, `.graphene-cache/` when unset).
    pub tune_cache: Option<std::path::PathBuf>,
    /// The structured grid behind the matrix, if any: lets the tuner
    /// consider geometric `Partition::grid_3d_auto` candidates. Ignored
    /// (with a silent fallback to the algebraic families) when its cell
    /// count does not match the matrix.
    pub grid: Option<sparse::gen::Grid3>,
    /// Backend to run the solve on (`None`: whatever `GRAPHENE_BACKEND`
    /// selects, `ipu-sim` when unset) — the one selector of how a solve
    /// executes. `ipu-sim[:fused]` run on the simulated IPU and
    /// differ in host wall-clock only; `cpu`, `cpu:par` and `gpu-model`
    /// dispatch to the baseline backends via [`crate::backends`] — same
    /// report schema, their own timing domain.
    pub backend: Option<backend::BackendSpec>,
    /// Wall-clock budget for the whole solve, measured from `solve()`
    /// entry (`None`: unlimited — the default, byte-identical to before
    /// this option existed). Enforced mid-run via the [`Sentinel`]'s
    /// host-callback abort: past the cutoff, the device loop unwinds at
    /// the next superstep and the solve returns
    /// [`SolveError::DeadlineExceeded`]. Deadlines are terminal — the
    /// recovery loop never restarts or degrades past one.
    pub deadline: Option<Duration>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            model: IpuModel::mk2(),
            tiles: None,
            rows_per_tile: 64,
            record_history: true,
            partition: None,
            x0: None,
            faults: None,
            recovery: None,
            tune: None,
            tune_cache: None,
            grid: None,
            backend: None,
            deadline: None,
        }
    }
}

impl SolveOptions {
    /// Tiles for `rows` rows at `rows_per_tile` (the tuner varies it): a
    /// pinned `tiles` wins outright, capped by the machine and the rows.
    pub(crate) fn pick_tiles(&self, rows: usize, rows_per_tile: usize) -> usize {
        let by_rows = rows.div_ceil(rows_per_tile).max(1);
        self.tiles.unwrap_or(by_rows).min(self.model.num_tiles()).min(rows)
    }

    /// These options with each of the four fields that can stand for "ask
    /// the environment" (`backend`, `faults`, `tune`, `tune_cache`) filled
    /// from [`EnvConfig`] where the caller left it `None`. A pinned field's
    /// variable is not read, so it cannot fail the solve; a malformed value
    /// of one that is read does. In the result a remaining `None` means the
    /// default (`ipu-sim`, no faults, no tuning).
    pub fn resolved(&self) -> Result<SolveOptions, SolveError> {
        let mut o = self.clone();
        if o.backend.is_none() {
            o.backend = EnvConfig::backend()?;
        }
        if o.faults.is_none() {
            o.faults = EnvConfig::faults()?;
        }
        if o.tune.is_none() {
            o.tune = EnvConfig::flag("GRAPHENE_TUNE")?;
        }
        if o.tune_cache.is_none() {
            o.tune_cache = Some(EnvConfig::tune_cache());
        }
        Ok(o)
    }
}

/// The outcome of a solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The solution in global row order (extended precision when MPIR ran).
    pub x: Vec<f64>,
    /// True relative residual ‖b−Ax‖/‖b‖ of the returned solution (f64).
    pub residual: f64,
    /// (iteration, true relative residual) samples, if recorded.
    pub history: Vec<(usize, f64)>,
    /// Inner iterations executed (final attempt).
    pub iterations: usize,
    /// Device profile (final attempt).
    pub stats: CycleStats,
    /// Device time in seconds at the machine's clock (final attempt).
    pub seconds: f64,
    /// How the solve ended; `Recovered` means at least one rollback
    /// restart or degradation step preceded the healthy finish.
    pub status: SolveStatus,
    /// Machine-readable profile + convergence record of this solve;
    /// label totals partition `stats.device_cycles()` exactly. Carries a
    /// `resilience` section when faults or recovery were in play.
    pub report: SolveReport,
}

/// Everything one device run produced, before judgement.
struct Attempt {
    x: Vec<f64>,
    residual: f64,
    history: Vec<(usize, f64)>,
    iterations: usize,
    stats: CycleStats,
    seconds: f64,
    host_seconds: f64,
    compile: profile::CompileReport,
    /// Sentinel detection that tripped mid-run, if any.
    detection: Option<Detection>,
    /// Last finite checkpoint, already mapped to global row order.
    snapshot_global: Option<Vec<f64>>,
    checkpoints: u64,
    checkpoint_cycles: u64,
    /// Per-step performance attribution.
    perf: Option<PerfReport>,
}

/// What the post-attempt judge decided.
enum Verdict {
    /// Accept the attempt's result with this status.
    Accept(SolveStatus),
    /// A detector fired; recover if the policy's budget allows.
    Recover(Detection),
}

/// Safety factor on the configured tolerance when judging the *host-side*
/// residual: the device converges on its recursive f32 residual, whose
/// floor sits slightly above the true residual the host recomputes.
/// Public so independent judges (the serve layer's SDC check, the
/// resilience bench) apply exactly the acceptance threshold the runner
/// does.
pub const TOLERANCE_SAFETY: f64 = 100.0;

/// Solve `A x = b` with the configured solver hierarchy on the backend
/// `opts.backend` / `GRAPHENE_BACKEND` selects (the simulated IPU when
/// neither does). `opts.x0` is the initial guess (zeros if `None`).
///
/// A straight line: resolve the options against the environment, dispatch
/// on the backend, then [`Plan::new`] and [`Plan::run`].
///
/// Returns a structured [`SolveError`] instead of panicking on invalid
/// inputs, compile failures, or detected-but-unrecoverable numerical
/// trouble. A successful return is *judged*: when the configuration
/// promises a tolerance, the host-recomputed true residual met it (up to
/// a fixed safety factor) — a corrupted run cannot return `Ok` with a
/// silently wrong solution.
pub fn solve(
    a: Rc<CsrMatrix>,
    b: &[f64],
    config: &SolverConfig,
    opts: &SolveOptions,
) -> Result<SolveResult, SolveError> {
    // Wall-clock origin for the deadline and the retry budget. Both are
    // measured from entry, so time spent queued before `solve()` is the
    // caller's to account for (the serve layer passes *remaining* time).
    let start = Instant::now();
    let opts = opts.resolved()?;
    match opts.backend {
        None | Some(backend::BackendSpec::IpuSim) => {}
        Some(external) => {
            return crate::backends::external_solve(external, a, b, config, &opts, start)
        }
    }
    Plan::new(a, config, &opts)?.run(b, opts.x0.as_deref(), start)
}

/// Everything about a solve on the simulated IPU that is a function of the
/// matrix, the solver configuration and the (resolved) options alone:
/// validated inputs, the recovery policy, the fault plan, the tuner's
/// decision and the partition. Built once — per [`solve`] call, or per
/// `Backend::prepare` and then shared by every `execute` — and run once
/// per right-hand side. The compiled engine is rebuilt by every attempt;
/// holding it here is ROADMAP item 3.
pub struct Plan {
    a: Rc<CsrMatrix>,
    config: SolverConfig,
    model: IpuModel,
    record_history: bool,
    deadline: Option<Duration>,
    faults: Option<FaultPlan>,
    policy: RecoveryPolicy,
    tiles: usize,
    partition: Partition,
    decision: Option<TuneDecision>,
    trace: Option<TraceConfig>,
}

/// What the attempt loop has accumulated so far; stamped into the report.
#[derive(Default)]
struct Ledger {
    attempts: u32,
    restarts: u32,
    degradations: Vec<String>,
    detections: Vec<DetectionRecord>,
    checkpoints: u64,
    device_cycles: u64,
}

/// Matrix-side validation: typed errors instead of panics.
pub(crate) fn check_system(
    a: &CsrMatrix,
    config: &SolverConfig,
    partition: Option<&Partition>,
) -> Result<(), SolveError> {
    if a.nrows != a.ncols {
        return Err(SolveError::Config(format!("matrix is {}x{}, not square", a.nrows, a.ncols)));
    }
    validate_config(config)?;
    match partition {
        Some(p) if p.num_rows() != a.nrows => Err(SolveError::Config(format!(
            "partition covers {} rows but matrix has {}",
            p.num_rows(),
            a.nrows
        ))),
        _ => Ok(()),
    }
}

/// Vector-side validation, the already-expired deadline (which never runs
/// a device at all) and the degenerate systems answered on the host:
/// `Ok(Some(_))` is the finished result of a 0×0 or 1×1 system.
pub(crate) fn preflight(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    config: &SolverConfig,
    start: Instant,
    deadline: Option<Duration>,
) -> Result<Option<SolveResult>, SolveError> {
    let bad_len = |name: &str, len: usize| {
        SolveError::Config(format!("{name} has {len} entries but matrix has {} rows", a.nrows))
    };
    if b.len() != a.nrows {
        return Err(bad_len("b", b.len()));
    }
    if let Some(x0) = x0.filter(|x0| x0.len() != a.nrows) {
        return Err(bad_len("x0", x0.len()));
    }
    if deadline.is_some_and(|d| start.elapsed() >= d) {
        return Err(deadline_error(start, deadline));
    }
    if a.nrows == 0 {
        return Ok(Some(trivial_result(config, a, Vec::new(), 0.0)));
    }
    if a.nrows > 1 {
        return Ok(None);
    }
    // 1×1: solve in f64 against the f32-rounded value the device would see.
    let a00 = a.values.first().copied().unwrap_or(0.0) as f32 as f64;
    let b0 = b[0] as f32 as f64;
    if a00 == 0.0 {
        if b0 != 0.0 {
            return Err(SolveError::Breakdown(
                "singular 1x1 system: A[0,0] = 0 with b != 0".into(),
            ));
        }
        return Ok(Some(trivial_result(config, a, vec![0.0], 0.0)));
    }
    let x = b0 / a00;
    let residual = if b0 != 0.0 { ((b0 - a00 * x) / b0).abs() } else { 0.0 };
    Ok(Some(trivial_result(config, a, vec![x], residual)))
}

impl Plan {
    /// The b-independent half of a solve. `opts` are taken as resolved
    /// ([`SolveOptions::resolved`]): a `None` below means the default, not
    /// "ask the environment". The trace destination backs no option, so
    /// it is read here, once per plan.
    pub fn new(
        a: Rc<CsrMatrix>,
        config: &SolverConfig,
        opts: &SolveOptions,
    ) -> Result<Plan, SolveError> {
        check_system(&a, config, opts.partition.as_ref())?;
        let policy = opts.recovery.clone().unwrap_or_else(|| {
            if opts.faults.is_some() {
                RecoveryPolicy::resilient()
            } else {
                RecoveryPolicy::default()
            }
        });
        // Auto-tuning is opt-in, yields to a pinned partition, and has
        // nothing to decide for a system the host answers (0×0, 1×1).
        let tune_on = opts.tune == Some(true) && opts.partition.is_none() && a.nrows > 1;
        let decision = tune_on.then(|| crate::autotune::tune(&a, config, opts)).transpose()?;
        let (tiles, partition) = match &decision {
            Some(d) => (d.tiles, d.partition.clone()),
            None => {
                // 0 tiles only for the 0×0 system, which never reaches them.
                let tiles = opts.pick_tiles(a.nrows, opts.rows_per_tile);
                let partition = opts
                    .partition
                    .clone()
                    .unwrap_or_else(|| Partition::balanced_by_nnz(&a, tiles.max(1)));
                (tiles, partition)
            }
        };
        Ok(Plan {
            a,
            config: config.clone(),
            model: opts.model.clone(),
            record_history: opts.record_history,
            deadline: opts.deadline,
            faults: opts.faults.clone(),
            policy,
            tiles,
            partition,
            decision,
            trace: EnvConfig::trace(),
        })
    }

    /// The per-right-hand-side half: validate `b` and `x0`, answer
    /// degenerate systems on the host, then drive attempts — run, judge,
    /// and on a detection roll back, restart or degrade — until one is
    /// accepted or the policy's budget is spent. `start` is the origin of
    /// the deadline and of the retry budget.
    pub fn run(
        &self,
        b: &[f64],
        x0: Option<&[f64]>,
        start: Instant,
    ) -> Result<SolveResult, SolveError> {
        if let Some(done) = preflight(&self.a, b, x0, &self.config, start, self.deadline)? {
            return Ok(done);
        }
        let deadline_at = self.deadline.map(|d| start + d);
        let policy = &self.policy;
        // One FaultState for the whole run: one-shot faults that fired in
        // a rolled-back attempt stay fired (transient faults don't
        // replay), and the event log accumulates across attempts.
        let mut fault_state =
            self.faults.as_ref().map(|p| FaultState::new(p.clone(), self.model.num_tiles()));
        let mut cfg = self.config.clone();
        let mut guess = x0.map(<[f64]>::to_vec);
        let mut restarts_this_rung: u32 = 0;
        let mut ledger = Ledger::default();

        loop {
            ledger.attempts += 1;
            if deadline_at.is_some_and(|at| Instant::now() >= at) {
                return Err(deadline_error(start, self.deadline));
            }
            let att = self.run_attempt(b, &cfg, guess.as_deref(), deadline_at, &mut fault_state)?;
            ledger.checkpoints += att.checkpoints;
            ledger.device_cycles += att.stats.device_cycles();

            let det = match judge(&att, &cfg, policy) {
                Verdict::Accept(status) => {
                    let status = if ledger.attempts > 1 { SolveStatus::Recovered } else { status };
                    let report = self.report(&att, &cfg, status, &ledger, fault_state.as_ref());
                    return Ok(SolveResult {
                        x: att.x,
                        residual: att.residual,
                        history: att.history,
                        iterations: att.iterations,
                        stats: att.stats,
                        seconds: att.seconds,
                        status,
                        report,
                    });
                }
                Verdict::Recover(det) => det,
            };
            ledger.detections.push(DetectionRecord {
                attempt: ledger.attempts,
                kind: det.kind.name().to_string(),
                iteration: det.iteration,
                residual: det.residual,
                detail: det.detail.clone(),
            });
            // Deadlines are terminal: the budget is wall-clock, so another
            // attempt can only finish even later.
            if det.kind == DetectionKind::Deadline {
                return Err(deadline_error(start, self.deadline));
            }
            // The retry budget is wall-clock too. Within it: restart from
            // the last finite checkpoint (else the caller's initial guess)
            // with the same configuration, then one rung down the ladder.
            let spent = policy.backoff.budget_exhausted(start.elapsed());
            let may_degrade =
                !spent && (ledger.degradations.len() as u32) < policy.max_degradations;
            if !spent && restarts_this_rung < policy.max_restarts {
                restarts_this_rung += 1;
                ledger.restarts += 1;
            } else if let Some((next, desc)) = may_degrade.then(|| degrade(&cfg)).flatten() {
                cfg = next;
                ledger.degradations.push(desc);
                restarts_this_rung = 0;
            } else {
                // Budget spent: surface the detection as a typed error.
                return Err(detection_error(&det, ledger.attempts, att.residual, &cfg));
            }
            guess = att.snapshot_global.or_else(|| x0.map(<[f64]>::to_vec));
            backoff_sleep(policy, ledger.attempts - 1, start, deadline_at, self.deadline)?;
        }
    }

    /// The report of an accepted attempt.
    fn report(
        &self,
        att: &Attempt,
        cfg: &SolverConfig,
        status: SolveStatus,
        ledger: &Ledger,
        fault_state: Option<&FaultState>,
    ) -> SolveReport {
        let mut report = SolveReport::new("solve").with_stats(&att.stats);
        report.solver = cfg.to_value();
        report.n = self.a.nrows;
        report.nnz = self.a.nnz();
        report.tiles = self.tiles;
        report.iterations = att.iterations;
        report.final_residual = att.residual;
        report.seconds = att.seconds;
        report.host_seconds = att.host_seconds;
        report.executor = backend::BackendSpec::IpuSim.name().to_string();
        report.history = att.history.clone();
        // Schema-v3 backend section: which device family ran this solve
        // and in which timing domain its seconds live.
        report.backend = Some(profile::BackendInfo {
            name: report.executor.clone(),
            family: "ipu-sim".to_string(),
            timing: "cycle-model".to_string(),
            seconds: att.seconds,
        });
        let mut compile = att.compile.clone();
        compile.passes.extend(self.decision.as_ref().map(TuneDecision::pass_stat));
        report.perf = att.perf.clone().map(|mut p| {
            // Host-side solve metrics live in the perf section's registry;
            // device attribution stays deterministic (see
            // `PerfReport::attribution_json`).
            let m = &mut p.metrics;
            m.counter_add("solve.attempts", ledger.attempts as u64);
            m.counter_add("solve.restarts", ledger.restarts as u64);
            m.counter_add("solve.degradations", ledger.degradations.len() as u64);
            m.counter_add("solve.detections", ledger.detections.len() as u64);
            m.counter_add("solve.checkpoints", ledger.checkpoints);
            m.gauge_set("solve.iterations", att.iterations as f64);
            m.gauge_set("solve.final_residual", att.residual);
            if let Some(d) = &self.decision {
                m.counter_add("tune.cache_hits", d.cache_hit as u64);
                m.counter_add("tune.cache_misses", (!d.cache_hit) as u64);
                m.counter_add("tune.candidates_scored", d.candidates_scored as u64);
                m.counter_add("tune.search_micros", d.search_micros);
                m.gauge_set("tune.modelled_cycles", d.plan.modelled_cycles as f64);
                m.gauge_set("tune.default_cycles", d.plan.default_cycles as f64);
            }
            if let Some(sel) = att.compile.pass("native-kernel-selection") {
                m.counter_add("native.codelets_total", sel.counter("codelets_total"));
                m.counter_add("native.vertices_looped", sel.counter("vertices_looped"));
                m.counter_add("native.vertices_mapped", sel.counter("vertices_mapped"));
                m.counter_add("native.vertices_kernel", sel.counter("vertices_kernel"));
            }
            m.observe("solve.host_seconds", &[1e-3, 1e-2, 1e-1, 1.0, 10.0], att.host_seconds);
            p
        });
        report.compile = Some(compile);
        // A healthy, fault-free, checkpoint-free first attempt carries no
        // resilience section.
        let eventful = self.faults.is_some()
            || ledger.attempts > 1
            || !ledger.detections.is_empty()
            || ledger.checkpoints > 0;
        report.resilience = eventful.then(|| Resilience {
            status: status.name().to_string(),
            attempts: ledger.attempts,
            restarts: ledger.restarts,
            degradations: ledger.degradations.clone(),
            faults_injected: fault_state.map(|f| f.log().to_vec()).unwrap_or_default(),
            detections: ledger.detections.clone(),
            checkpoints: ledger.checkpoints,
            checkpoint_cycles: att.checkpoint_cycles,
            total_device_cycles: ledger.device_cycles,
        });
        report
    }

    /// One full device run: build, compile, execute, read back.
    fn run_attempt(
        &self,
        b: &[f64],
        cfg: &SolverConfig,
        x0: Option<&[f64]>,
        deadline_at: Option<Instant>,
        fault_state: &mut Option<FaultState>,
    ) -> Result<Attempt, SolveError> {
        let policy = &self.policy;
        let mut ctx = DslCtx::new(self.model.clone());
        let sys = DistSystem::try_build(&mut ctx, self.a.clone(), self.partition.clone())
            .map_err(|e| SolveError::Config(e.to_string()))?;
        let bt = sys.new_vector(&mut ctx, "b", DType::F32);
        let xt = sys.new_vector(&mut ctx, "x", DType::F32);

        let monitor = Monitor::new(&sys, Rc::new(b.to_vec()));
        // A deadline arms the sentinel even under an otherwise-inert
        // policy: its abort hook is what unwinds the device loop at the
        // cutoff.
        let sentinel = (policy.wants_sentinel() || deadline_at.is_some()).then(|| {
            let s = Sentinel::new(policy.divergence_factor, policy.stagnation_window);
            match deadline_at {
                Some(at) => s.with_deadline(at),
                None => s,
            }
        });
        let checkpoint =
            (policy.checkpoint_every > 0).then(|| Checkpointer::new(policy.checkpoint_every));
        // Every run counts its iterations; the per-iteration true residual
        // (an f64 SpMV on the host) is paid for only when the caller wants
        // the history or the sentinel needs the stream for its detectors.
        let residuals = self.record_history || sentinel.is_some();
        let probes = Probes {
            monitor: Some(if residuals { monitor.clone() } else { monitor.clone().count_only() }),
            sentinel,
            checkpoint,
        };
        let mut solver = solver_from_config(cfg);
        solver.instrument(&probes, None);
        solver.setup(&mut ctx, &sys);
        solver.solve(&mut ctx, &sys, bt, xt);

        // If MPIR ran, read the extended-precision solution tensor instead
        // of the rounded f32 output.
        let x_ext = solver.as_any().downcast_mut::<Mpir>().and_then(|m| m.x_ext);

        before_build(&mut ctx);
        let mut engine = ctx.build_engine().map_err(|e| SolveError::Compile(e.to_string()))?;
        // Per-step performance attribution rides along with every run: pure
        // host-side bookkeeping, zero device cycles.
        engine.enable_perf();
        // Hand the (cross-attempt) fault state to this attempt's engine.
        engine.set_fault_state(fault_state.take());
        // Tracing is opt-in (`GRAPHENE_TRACE`): record a timeline alongside
        // the cycle accounting and drop a Chrome trace + a text profile
        // report next to it after the run.
        if let Some(t) = &self.trace {
            engine.set_trace(TraceRecorder::new(t.tile_lanes));
        }
        sys.upload(&mut engine);
        engine.write_tensor(bt.id, &sys.to_device_order(b));
        if let Some(x0) = x0 {
            engine.write_tensor(xt.id, &sys.to_device_order(x0));
        }
        // Host wall-clock around the device run — device `seconds` come
        // from the cycle model and do not depend on the host.
        let host_start = Instant::now();
        engine.run();
        let host_seconds = host_start.elapsed().as_secs_f64();
        let perf = engine.perf_report(12);
        if let (Some(t), Some(trace)) = (&self.trace, engine.trace()) {
            let path = profile::numbered_trace_path(&t.path);
            eprint!(
                "{}",
                profile::write_trace_artifacts(&path, trace, engine.stats(), perf.as_ref(), 12)
            );
        }
        // Take the fault state back (fired flags + event log) for the next
        // attempt / the final report.
        *fault_state = engine.take_fault_state();

        let raw = engine.read_tensor(x_ext.map(|t| t.id).unwrap_or(xt.id));
        let x = sys.from_device_order(&raw);
        let residual = true_residual(&monitor, &x);

        let stats = engine.stats().clone();
        // Map the last finite device-order snapshot to global row order.
        let snapshot_global = probes
            .checkpoint
            .as_ref()
            .and_then(|c| c.snapshot())
            .map(|snap| monitor.gather.iter().map(|&slot| snap[slot]).collect());
        Ok(Attempt {
            x,
            residual,
            history: if self.record_history { monitor.take_history() } else { Vec::new() },
            iterations: monitor.iterations(),
            seconds: engine.elapsed_seconds(),
            host_seconds,
            compile: engine.compile_report().clone(),
            detection: probes.sentinel.as_ref().and_then(|s| s.detection()),
            snapshot_global,
            checkpoints: probes.checkpoint.as_ref().map_or(0, |c| c.count()),
            checkpoint_cycles: stats.label_cycles("checkpoint"),
            stats,
            perf,
        })
    }
}

/// ‖b − A·x‖/‖b‖ against the system as the device sees it (f32-rounded
/// data, f64 arithmetic — see [`Monitor`] for why), recomputed on the host
/// from the returned `x` so a corrupted device cannot under-report it. For
/// b = 0 the absolute norm ‖Ax‖ is reported instead (a zero rhs has no
/// scale to be relative to).
fn true_residual(monitor: &Monitor, x: &[f64]) -> f64 {
    let ax = monitor.a.spmv_alloc(x);
    let r2: f64 = monitor.b.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum();
    let b2: f64 = monitor.b.iter().map(|v| v * v).sum();
    if b2 > 0.0 {
        (r2 / b2).sqrt()
    } else {
        r2.sqrt()
    }
}

/// The typed error a spent recovery budget surfaces for a detection.
fn detection_error(
    det: &Detection,
    attempts: u32,
    residual: f64,
    cfg: &SolverConfig,
) -> SolveError {
    match det.kind {
        DetectionKind::NonFinite => SolveError::NonFinite { attempt: attempts },
        DetectionKind::Divergence => {
            SolveError::Diverged { attempt: attempts, residual: det.residual }
        }
        DetectionKind::Stagnation => SolveError::Stagnated { attempt: attempts },
        DetectionKind::ToleranceMiss => SolveError::ToleranceNotReached {
            residual,
            target: target_tolerance(cfg).unwrap_or(0.0),
            attempts,
        },
        // Deadline detections are returned via `deadline_error` (which
        // knows the solve's start time) before this mapping is reached.
        DetectionKind::Deadline => SolveError::DeadlineExceeded { elapsed_ms: 0, budget_ms: 0 },
    }
}

/// The [`SolveError::DeadlineExceeded`] for a solve that started at
/// `start` under the given budget.
pub(crate) fn deadline_error(start: Instant, budget: Option<Duration>) -> SolveError {
    SolveError::DeadlineExceeded {
        elapsed_ms: start.elapsed().as_millis() as u64,
        budget_ms: budget.map(|d| d.as_millis() as u64).unwrap_or(0),
    }
}

/// Sleep the policy's backoff delay before 0-based retry `retry`.
/// Default-inert (zero delay, zero syscalls); with a deadline armed, a
/// sleep that would cross the cutoff returns `DeadlineExceeded` instead
/// of sleeping into certain failure.
fn backoff_sleep(
    policy: &RecoveryPolicy,
    retry: u32,
    start: Instant,
    deadline_at: Option<Instant>,
    budget: Option<Duration>,
) -> Result<(), SolveError> {
    let delay = policy.backoff.delay_ms(retry);
    if delay == 0 {
        return Ok(());
    }
    let delay = Duration::from_millis(delay);
    if deadline_at.is_some_and(|at| Instant::now() + delay >= at) {
        return Err(deadline_error(start, budget));
    }
    std::thread::sleep(delay);
    Ok(())
}

/// [`solve`], panicking with the error's `Display` on failure — the
/// drop-in shim for benches and examples that treat failure as fatal.
pub fn solve_or_panic(
    a: Rc<CsrMatrix>,
    b: &[f64],
    config: &SolverConfig,
    opts: &SolveOptions,
) -> SolveResult {
    match solve(a, b, config, opts) {
        Ok(res) => res,
        Err(e) => panic!("solve failed: {e}"),
    }
}

/// Judge one finished attempt. Order matters:
/// 1. a non-finite solution or residual is always a detection;
/// 2. a finite result that meets the configured tolerance is accepted
///    even if a detector tripped late (the host-side residual is ground
///    truth, so this can never accept a wrong answer);
/// 3. an in-flight sentinel detection is honoured;
/// 4. otherwise the residual is weighed against the tolerance and the
///    policy's divergence factor. Configs without a tolerance run a
///    fixed budget — finishing it is success (`MaxIters`), as before.
fn judge(att: &Attempt, cfg: &SolverConfig, policy: &RecoveryPolicy) -> Verdict {
    if !att.residual.is_finite() || att.x.iter().any(|v| !v.is_finite()) {
        return Verdict::Recover(Detection {
            kind: DetectionKind::NonFinite,
            iteration: att.iterations,
            residual: f64::NAN,
            detail: "non-finite solution or residual after run".into(),
        });
    }
    let target = target_tolerance(cfg);
    if let Some(t) = target {
        if att.residual <= t * TOLERANCE_SAFETY {
            return Verdict::Accept(SolveStatus::Converged);
        }
    }
    if let Some(det) = &att.detection {
        return Verdict::Recover(det.clone());
    }
    match target {
        None => Verdict::Accept(SolveStatus::MaxIters),
        Some(t) => {
            if att.residual > policy.divergence_factor {
                Verdict::Recover(Detection {
                    kind: DetectionKind::Divergence,
                    iteration: 0,
                    residual: att.residual,
                    detail: format!(
                        "final residual {:.3e} beyond divergence factor {:.1e}",
                        att.residual, policy.divergence_factor
                    ),
                })
            } else if policy.retry_on_tolerance_miss {
                Verdict::Recover(Detection {
                    kind: DetectionKind::ToleranceMiss,
                    iteration: 0,
                    residual: att.residual,
                    detail: format!(
                        "residual {:.3e} above target {t:.1e} after full budget",
                        att.residual
                    ),
                })
            } else {
                Verdict::Accept(SolveStatus::MaxIters)
            }
        }
    }
}

/// Result for degenerate systems answered on the host (0×0 and 1×1).
fn trivial_result(config: &SolverConfig, a: &CsrMatrix, x: Vec<f64>, residual: f64) -> SolveResult {
    let mut report = SolveReport::new("solve");
    report.solver = config.to_value();
    report.n = a.nrows;
    report.nnz = a.nnz();
    SolveResult {
        x,
        residual,
        history: Vec::new(),
        iterations: 0,
        stats: CycleStats::new(0),
        seconds: 0.0,
        status: SolveStatus::Converged,
        report,
    }
}

/// Called on every attempt's graph just before it is compiled: nothing,
/// outside this module's tests, which add a vertex the compiler refuses.
#[cfg(not(test))]
fn before_build(_: &mut DslCtx) {}
#[cfg(test)]
use tests::before_build;

#[cfg(test)]
mod tests {
    use super::*;
    use graph::codelet::{Codelet, Expr, ParamDecl, Stmt, UnOp, Value};
    use sparse::gen::{poisson_2d_5pt, poisson_3d_7pt, rhs_for_ones, tridiagonal};
    use std::cell::Cell;

    thread_local! {
        /// Set by a test: every attempt's graph gains one untypable vertex.
        static UNTYPABLE: Cell<bool> = const { Cell::new(false) };
    }

    /// When the test on this thread asks, bind one vertex to a codelet the
    /// lowering cannot type (`sqrt` of an I32, which has no cost row).
    pub(super) fn before_build(ctx: &mut DslCtx) {
        if !UNTYPABLE.get() {
            return;
        }
        let codelet = ctx.add_codelet(Codelet {
            name: "sqrt_i32".into(),
            params: vec![ParamDecl { dtype: DType::F32, mutable: true }],
            num_locals: 0,
            body: vec![Stmt::Store {
                param: 0,
                index: Expr::c(Value::I32(0)),
                value: Expr::un(UnOp::Sqrt, Expr::c(Value::I32(4))),
            }],
        });
        let t = ctx.scalar("untypable", DType::F32);
        let operands = vec![TensorSlice::whole(t.id, 1)];
        ctx.execute(
            "untypable",
            vec![Vertex { tile: 0, codelet, operands, kind: VertexKind::Simple }],
        );
    }

    #[test]
    fn an_untypable_codelet_is_a_compile_error_not_a_panic() {
        let a = Rc::new(poisson_2d_5pt(4, 4, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::Jacobi { sweeps: 1, omega: 1.0 };
        UNTYPABLE.set(true);
        let res = solve(a, &b, &cfg, &opts(2));
        UNTYPABLE.set(false);
        match res {
            Err(SolveError::Compile(m)) => assert!(m.contains("codelet 'sqrt_i32'"), "{m}"),
            Err(e) => panic!("not a compile error: {e}"),
            Ok(_) => panic!("an untypable codelet solved"),
        }
    }

    fn opts(tiles: usize) -> SolveOptions {
        SolveOptions { model: IpuModel::tiny(tiles), tiles: Some(tiles), ..SolveOptions::default() }
    }

    #[test]
    fn bicgstab_solves_small_poisson() {
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab { max_iters: 200, rel_tol: 1e-6, precond: None };
        let res = solve_or_panic(a, &b, &cfg, &opts(4));
        assert!(res.residual < 2e-6, "residual {}", res.residual);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-3, "x = {v}");
        }
        assert!(res.iterations > 0);
        assert!(res.stats.device_cycles() > 0);
        assert_eq!(res.status, SolveStatus::Converged);
        // A healthy, fault-free solve carries no resilience section.
        assert!(res.report.resilience.is_none());
    }

    #[test]
    fn cg_solves_spd_system() {
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::Cg { max_iters: 200, rel_tol: 1e-6, precond: None };
        let res = solve_or_panic(a, &b, &cfg, &opts(4));
        assert!(res.residual < 2e-6, "residual {}", res.residual);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-3, "x = {v}");
        }
    }

    #[test]
    fn pcg_with_ilu_converges_faster_than_plain_cg() {
        let a = Rc::new(poisson_2d_5pt(14, 14, 1.0));
        let b = rhs_for_ones(&a);
        let plain = SolverConfig::Cg { max_iters: 500, rel_tol: 1e-6, precond: None };
        let pre = SolverConfig::Cg {
            max_iters: 500,
            rel_tol: 1e-6,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        };
        let r1 = solve_or_panic(a.clone(), &b, &plain, &opts(2));
        let r2 = solve_or_panic(a, &b, &pre, &opts(2));
        assert!(r2.residual < 2e-6);
        assert!(r2.iterations < r1.iterations, "{} vs {}", r2.iterations, r1.iterations);
    }

    #[test]
    fn mpir_over_cg_reaches_extended_precision() {
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::Mpir {
            inner: Box::new(SolverConfig::Cg {
                max_iters: 40,
                rel_tol: 0.0,
                precond: Some(Box::new(SolverConfig::Ilu0 {})),
            }),
            precision: crate::solvers::ExtendedPrecision::DoubleWord,
            max_outer: 8,
            rel_tol: 1e-11,
        };
        let res = solve_or_panic(a, &b, &cfg, &opts(2));
        assert!(res.residual < 1e-10, "residual {}", res.residual);
    }

    #[test]
    fn ilu_preconditioning_cuts_iterations() {
        let a = Rc::new(poisson_2d_5pt(12, 12, 1.0));
        let b = rhs_for_ones(&a);
        let plain = SolverConfig::BiCgStab { max_iters: 400, rel_tol: 1e-6, precond: None };
        let pre = SolverConfig::BiCgStab {
            max_iters: 400,
            rel_tol: 1e-6,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        };
        let r1 = solve_or_panic(a.clone(), &b, &plain, &opts(2));
        let r2 = solve_or_panic(a, &b, &pre, &opts(2));
        assert!(r2.residual < 2e-6);
        assert!(r2.iterations < r1.iterations, "ilu {} vs plain {}", r2.iterations, r1.iterations);
    }

    #[test]
    fn standalone_gauss_seidel_stops_at_tolerance() {
        // GS as a standalone solver with a residual check per sweep.
        let a = Rc::new(poisson_2d_5pt(6, 6, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::GaussSeidel { sweeps: 500, symmetric: false, rel_tol: 1e-4 };
        let res = solve_or_panic(a, &b, &cfg, &opts(2));
        assert!(res.residual < 1.5e-4, "residual {}", res.residual);
        for v in &res.x {
            assert!((v - 1.0).abs() < 1e-2, "x = {v}");
        }
    }

    #[test]
    fn gauss_seidel_preconditioner_works() {
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab {
            max_iters: 200,
            rel_tol: 1e-5,
            precond: Some(Box::new(SolverConfig::GaussSeidel {
                sweeps: 2,
                symmetric: true,
                rel_tol: 0.0,
            })),
        };
        let res = solve_or_panic(a, &b, &cfg, &opts(3));
        assert!(res.residual < 1e-4, "residual {}", res.residual);
    }

    #[test]
    fn jacobi_and_dilu_preconditioners_work() {
        let a = Rc::new(poisson_3d_7pt(5, 5, 5));
        let b = rhs_for_ones(&a);
        for precond in [
            SolverConfig::Jacobi { sweeps: 2, omega: 0.8 },
            SolverConfig::Dilu {},
            SolverConfig::Identity,
        ] {
            let cfg = SolverConfig::BiCgStab {
                max_iters: 300,
                rel_tol: 1e-5,
                precond: Some(Box::new(precond.clone())),
            };
            let res = solve_or_panic(a.clone(), &b, &cfg, &opts(4));
            assert!(res.residual < 1e-4, "{precond:?}: residual {}", res.residual);
        }
    }

    #[test]
    fn mpir_double_word_beats_f32_floor() {
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        // Plain f32 BiCGStab stalls around 1e-6..1e-7 relative residual.
        // (rel_tol 1e-12 is unreachable in f32: this run finishes its
        // budget above tolerance, which the default policy accepts.)
        let plain = SolverConfig::BiCgStab { max_iters: 400, rel_tol: 1e-12, precond: None };
        let rp = solve_or_panic(a.clone(), &b, &plain, &opts(2));
        assert_eq!(rp.status, SolveStatus::MaxIters);
        // MPIR with double-word refinement pushes far below the f32 floor.
        let mpir = SolverConfig::Mpir {
            inner: Box::new(SolverConfig::BiCgStab {
                max_iters: 40,
                rel_tol: 0.0,
                precond: Some(Box::new(SolverConfig::Ilu0 {})),
            }),
            precision: crate::solvers::ExtendedPrecision::DoubleWord,
            max_outer: 10,
            rel_tol: 1e-11,
        };
        let rm = solve_or_panic(a, &b, &mpir, &opts(2));
        assert!(rm.residual < 1e-10, "mpir residual {}", rm.residual);
        assert!(rm.residual < rp.residual / 100.0, "mpir {} vs plain {}", rm.residual, rp.residual);
    }

    #[test]
    fn tridiagonal_exact_with_gs_solver_stack() {
        // Fully sequential level structure still computes correctly.
        let a = Rc::new(tridiagonal(40));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab {
            max_iters: 100,
            rel_tol: 1e-6,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        };
        let res = solve_or_panic(a, &b, &cfg, &opts(2));
        // ILU(0) of a tridiagonal matrix is exact per block → immediate.
        assert!(res.residual < 1e-6, "residual {}", res.residual);
        assert!(res.iterations <= 10);
    }

    #[test]
    fn history_is_monotone_ish_and_recorded() {
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab { max_iters: 50, rel_tol: 1e-6, precond: None };
        let res = solve_or_panic(a, &b, &cfg, &opts(2));
        assert!(!res.history.is_empty());
        let first = res.history.first().unwrap().1;
        let last = res.history.last().unwrap().1;
        assert!(last < first, "no progress: {first} -> {last}");
        // Iterations numbered 1..n.
        assert_eq!(res.history[0].0, 1);
    }

    #[test]
    fn iterations_are_counted_with_and_without_history() {
        // The counter used to live in the residual-recording callback, so
        // `iterations` read 0 whenever `record_history` was off. Counting
        // is a host callback of its own: free on the device either way.
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        let bicg = SolverConfig::BiCgStab { max_iters: 50, rel_tol: 1e-6, precond: None };
        let mpir = SolverConfig::Mpir {
            inner: Box::new(SolverConfig::Cg { max_iters: 10, rel_tol: 0.0, precond: None }),
            precision: crate::solvers::ExtendedPrecision::DoubleWord,
            max_outer: 8,
            rel_tol: 1e-10,
        };
        for cfg in [bicg, mpir] {
            let run = |record_history| {
                solve_or_panic(a.clone(), &b, &cfg, &SolveOptions { record_history, ..opts(2) })
            };
            let (on, off) = (run(true), run(false));
            assert!(on.iterations > 0, "{cfg:?}");
            assert_eq!(on.iterations, off.iterations, "{cfg:?}");
            assert_eq!(on.report.iterations, off.report.iterations, "{cfg:?}");
            assert_eq!(on.history.len(), on.iterations, "{cfg:?}");
            assert!(off.history.is_empty());
            assert_eq!(on.stats.device_cycles(), off.stats.device_cycles(), "{cfg:?}");
            assert_eq!(on.stats.supersteps(), off.stats.supersteps(), "{cfg:?}");
            let bits = |r: &SolveResult| r.x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&on), bits(&off), "{cfg:?}");
        }
    }

    #[test]
    fn bicgstab_zero_rhs_exits_immediately() {
        // b = 0 makes b2·tol² = 0; with a pure relative test the predicate
        // is unsatisfiable once res2 > 0. With x0 = 0 the residual is
        // exactly zero, so the loop must exit without iterating.
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = vec![0.0; a.nrows];
        let cfg = SolverConfig::BiCgStab { max_iters: 100, rel_tol: 1e-6, precond: None };
        let res = solve_or_panic(a, &b, &cfg, &opts(2));
        assert_eq!(res.iterations, 0, "zero rhs must not iterate");
        assert!(res.x.iter().all(|&v| v == 0.0));
        assert_eq!(res.residual, 0.0);
    }

    #[test]
    fn mpir_zero_rhs_exits_immediately() {
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = vec![0.0; a.nrows];
        let cfg = SolverConfig::Mpir {
            inner: Box::new(SolverConfig::BiCgStab { max_iters: 40, rel_tol: 0.0, precond: None }),
            precision: crate::solvers::ExtendedPrecision::DoubleWord,
            max_outer: 8,
            rel_tol: 1e-13,
        };
        let res = solve_or_panic(a, &b, &cfg, &opts(2));
        assert_eq!(res.iterations, 0, "zero rhs must not iterate");
        assert!(res.x.iter().all(|&v| v == 0.0));
        assert_eq!(res.residual, 0.0);
    }

    #[test]
    fn bicgstab_zero_rhs_does_not_burn_max_iters() {
        // Regression for the b = 0 convergence-predicate bug: with b2 = 0
        // the pre-fix predicate `res2 > b2·tol²` reduces to `res2 > 0`,
        // which only fails once the recursive residual underflows to exact
        // zero — dozens of wasted iterations (101 on this problem) after
        // the solution is converged to working precision. The absolute
        // floor (f32::MIN_POSITIVE) exits at 76 iterations; 90 sits
        // between the two (the simulator is deterministic).
        let a = Rc::new(poisson_2d_5pt(16, 16, 1.0));
        let b = vec![0.0; a.nrows];
        let max_iters = 90;
        let cfg = SolverConfig::BiCgStab { max_iters, rel_tol: 1e-6, precond: None };
        let o = SolveOptions { x0: Some(vec![1.0; a.nrows]), ..opts(2) };
        let res = solve_or_panic(a, &b, &cfg, &o);
        assert!(
            res.iterations < max_iters as usize,
            "burned all {} iterations on a zero rhs",
            res.iterations
        );
        // b = 0 reports the absolute norm ‖Ax‖; x must have been driven
        // to (near) zero.
        assert!(res.residual < 1e-4, "residual {}", res.residual);
    }

    #[test]
    fn mpir_subnormal_threshold_does_not_burn_max_outer() {
        // Same bug at the MPIR level: b ~ 1e-8 with rel_tol = 1e-16 makes
        // b2·tol² ≈ 6e-47 underflow to 0 even in double-word, while the
        // double-word residual stalls near its ~1e-13 relative floor —
        // res2 ≈ 6e-41 stays > 0, so pre-fix every outer iteration ran.
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b: Vec<f64> = rhs_for_ones(&a).iter().map(|v| v * 1e-8).collect();
        let inner_iters = 40;
        let max_outer = 8;
        let cfg = SolverConfig::Mpir {
            inner: Box::new(SolverConfig::BiCgStab {
                max_iters: inner_iters,
                rel_tol: 0.0,
                precond: Some(Box::new(SolverConfig::Ilu0 {})),
            }),
            precision: crate::solvers::ExtendedPrecision::DoubleWord,
            max_outer,
            rel_tol: 1e-16,
        };
        let res = solve_or_panic(a, &b, &cfg, &opts(2));
        assert!(
            res.iterations < (max_outer * inner_iters) as usize,
            "burned all outer iterations ({} inner)",
            res.iterations
        );
        assert!(res.residual < 1e-9, "residual {}", res.residual);
    }

    #[test]
    fn initial_guess_is_honoured() {
        // Starting at the exact solution must converge immediately.
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab { max_iters: 200, rel_tol: 1e-5, precond: None };
        let cold = solve_or_panic(a.clone(), &b, &cfg, &opts(2));
        let warm_opts = SolveOptions { x0: Some(vec![1.0; a.nrows]), ..opts(2) };
        let warm = solve_or_panic(a, &b, &cfg, &warm_opts);
        assert!(warm.iterations < cold.iterations, "{} vs {}", warm.iterations, cold.iterations);
    }

    #[test]
    fn every_ipu_sim_backend_is_bit_identical_and_reported() {
        use backend::BackendSpec;
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab {
            max_iters: 60,
            rel_tol: 1e-6,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        };
        // The backend pinned, and left to the default: the same device.
        let run = |backend| {
            let res = solve_or_panic(a.clone(), &b, &cfg, &SolveOptions { backend, ..opts(4) });
            assert_eq!(res.report.executor, "ipu-sim");
            assert_eq!(res.report.backend.as_ref().expect("backend stamped").name, "ipu-sim");
            assert!(res.report.host_seconds > 0.0);
            res
        };
        let pinned = run(Some(BackendSpec::IpuSim));
        let default = run(None);
        let bits = |r: &SolveResult| r.x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&pinned), bits(&default), "solutions differ");
        assert_eq!(pinned.iterations, default.iterations);
        assert_eq!(pinned.stats.device_cycles(), default.stats.device_cycles());
        assert_eq!(pinned.seconds, default.seconds, "device time is host-independent");
        // The compile report records the selection: SpMV, its residual and
        // both ILU(0) sweeps run as kernel instructions.
        let compile = pinned.report.compile.as_ref().expect("compile report present");
        let sel = compile.pass("native-kernel-selection").expect("selection stamped");
        for k in ["spmv", "spmv_residual", "forward_subst", "backward_subst_div"] {
            let n = sel.counter(&format!("kernel.{k}"));
            assert!(n > 0, "{k} is no kernel instruction: {:?}", sel.counters);
        }
        assert!(sel.counter("vertices_total") > 0);
    }

    #[test]
    fn solve_json_config_end_to_end() {
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::from_json(
            r#"{
                "type": "bi_cg_stab", "max_iters": 150, "rel_tol": 1e-6,
                "precond": { "type": "ilu0" }
            }"#,
        )
        .unwrap();
        let res = solve_or_panic(a, &b, &cfg, &opts(4));
        assert!(res.residual < 2e-6);
    }

    // ------------------------------------------------------------------
    // Structured errors, edge cases, fault injection & recovery
    // ------------------------------------------------------------------

    #[test]
    fn dimension_mismatches_are_config_errors_not_panics() {
        let a = Rc::new(poisson_2d_5pt(4, 4, 1.0));
        let cfg = SolverConfig::Cg { max_iters: 10, rel_tol: 1e-6, precond: None };
        // b wrong length.
        assert!(matches!(solve(a.clone(), &[1.0; 3], &cfg, &opts(2)), Err(SolveError::Config(_))));
        // x0 wrong length.
        let bad = SolveOptions { x0: Some(vec![0.0; 5]), ..opts(2) };
        let b = rhs_for_ones(&a);
        assert!(matches!(solve(a.clone(), &b, &cfg, &bad), Err(SolveError::Config(_))));
        // Zero iteration budget.
        let zcfg = SolverConfig::Cg { max_iters: 0, rel_tol: 1e-6, precond: None };
        assert!(matches!(solve(a, &b, &zcfg, &opts(2)), Err(SolveError::Config(_))));
    }

    #[test]
    fn empty_and_single_row_systems_short_circuit() {
        let cfg = SolverConfig::BiCgStab { max_iters: 10, rel_tol: 1e-6, precond: None };
        // 0x0: trivially converged, no device run.
        let a0 = Rc::new(CsrMatrix {
            nrows: 0,
            ncols: 0,
            row_ptr: vec![0],
            col_idx: vec![],
            values: vec![],
        });
        let r0 = solve(a0, &[], &cfg, &opts(1)).unwrap();
        assert!(r0.x.is_empty());
        assert_eq!(r0.status, SolveStatus::Converged);
        assert_eq!(r0.stats.device_cycles(), 0);
        // 1x1: solved on the host.
        let a1 = Rc::new(CsrMatrix {
            nrows: 1,
            ncols: 1,
            row_ptr: vec![0, 1],
            col_idx: vec![0],
            values: vec![4.0],
        });
        let r1 = solve(a1, &[8.0], &cfg, &opts(1)).unwrap();
        assert_eq!(r1.x, vec![2.0]);
        assert_eq!(r1.iterations, 0);
        // Singular 1x1 with nonzero rhs: structured breakdown.
        let a_sing = Rc::new(CsrMatrix {
            nrows: 1,
            ncols: 1,
            row_ptr: vec![0, 1],
            col_idx: vec![0],
            values: vec![0.0],
        });
        assert!(matches!(
            solve(a_sing.clone(), &[1.0], &cfg, &opts(1)),
            Err(SolveError::Breakdown(_))
        ));
        // ... but a fully zero 1x1 system has the solution x = 0.
        let rz = solve(a_sing, &[0.0], &cfg, &opts(1)).unwrap();
        assert_eq!(rz.x, vec![0.0]);
    }

    #[test]
    fn faulted_solve_recovers_and_reports() {
        // A bit-flip in x mid-solve; the resilient policy (auto-selected
        // by the fault plan) detects the corrupted convergence and
        // restarts. The final answer must still meet tolerance.
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab { max_iters: 200, rel_tol: 1e-6, precond: None };
        let o = SolveOptions {
            faults: Some(FaultPlan::parse("flip@s40.t1:w3.b30").unwrap()),
            ..opts(2)
        };
        let res = solve(a, &b, &cfg, &o).expect("recovery should succeed");
        assert!(res.residual < 2e-6 * TOLERANCE_SAFETY, "residual {}", res.residual);
        let r = res.report.resilience.as_ref().expect("faulted solve must stamp resilience");
        assert_eq!(r.faults_injected.len(), 1, "{:?}", r.faults_injected);
        assert_eq!(r.faults_injected[0].class, "flip");
        assert!(r.total_device_cycles >= res.stats.device_cycles());
        // Either the solve absorbed the flip and converged in one attempt
        // or it detected and recovered; both are healthy outcomes, and
        // the status must reflect which one happened.
        if r.attempts > 1 {
            assert_eq!(res.status, SolveStatus::Recovered);
            assert!(!r.detections.is_empty());
        } else {
            assert_eq!(res.status, SolveStatus::Converged);
        }
    }

    #[test]
    fn faulted_solve_is_deterministic() {
        // Same fault plan, two runs: bit-identical solutions and cycles.
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab { max_iters: 150, rel_tol: 1e-6, precond: None };
        let o = SolveOptions {
            faults: Some(FaultPlan::parse("seed=7;n=3;classes=flip+xflip").unwrap()),
            ..opts(2)
        };
        let run = || solve(a.clone(), &b, &cfg, &o);
        match (run(), run()) {
            (Ok(r1), Ok(r2)) => {
                let b1: Vec<u64> = r1.x.iter().map(|v| v.to_bits()).collect();
                let b2: Vec<u64> = r2.x.iter().map(|v| v.to_bits()).collect();
                assert_eq!(b1, b2, "faulted solve not bit-deterministic");
                assert_eq!(r1.stats.device_cycles(), r2.stats.device_cycles());
                assert_eq!(r1.report.resilience, r2.report.resilience);
            }
            (Err(e1), Err(e2)) => assert_eq!(e1, e2, "faulted solve not error-deterministic"),
            (r1, r2) => panic!(
                "outcomes diverged: {:?} vs {:?}",
                r1.map(|r| r.residual),
                r2.map(|r| r.residual)
            ),
        }
    }

    #[test]
    fn divergence_detector_aborts_instead_of_burning_budget() {
        // CG applied outside its theory: a skew-dominant nonsymmetric
        // tridiagonal (weak SPD symmetric part, ±1 skew off-diagonals).
        // The direction recurrence assumes symmetry, so the residual grows
        // geometrically. With the divergence detector armed and no
        // recovery budget, the sentinel aborts the loop mid-run and the
        // caller gets a structured error well before max_iters.
        let n = 30usize;
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            if i > 0 {
                col_idx.push((i - 1) as u32);
                values.push(-1.0);
            }
            col_idx.push(i as u32);
            values.push(0.5);
            if i + 1 < n {
                col_idx.push((i + 1) as u32);
                values.push(1.0);
            }
            row_ptr.push(col_idx.len());
        }
        let a = Rc::new(CsrMatrix { nrows: n, ncols: n, row_ptr, col_idx, values });
        let b = rhs_for_ones(&a);
        let max_iters = 5000;
        let cfg = SolverConfig::Cg { max_iters, rel_tol: 1e-10, precond: None };
        let o = SolveOptions {
            recovery: Some(RecoveryPolicy { divergence_factor: 1e3, ..RecoveryPolicy::default() }),
            ..opts(2)
        };
        match solve(a, &b, &cfg, &o) {
            Err(SolveError::Diverged { residual, .. }) => {
                assert!(residual > 1e3, "residual {residual}");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn stagnation_detector_fires_on_unreachable_tolerance() {
        // Plain f32 BiCGStab cannot reach 1e-12; with the stagnation
        // detector armed and no retry budget this is a structured
        // Stagnated error instead of a burned budget + silent miss.
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        let max_iters = 4000;
        let cfg = SolverConfig::BiCgStab { max_iters, rel_tol: 1e-12, precond: None };
        let o = SolveOptions {
            recovery: Some(RecoveryPolicy {
                // The stall sets in around iteration 13 and the device's
                // *recursive* f32 residual self-exits near iteration 21
                // (it keeps shrinking below the true-residual floor — the
                // exact recursive-vs-true gap of the paper's Fig 9), so
                // the window must fit inside that span.
                stagnation_window: 5,
                ..RecoveryPolicy::default()
            }),
            ..opts(2)
        };
        match solve(a, &b, &cfg, &o) {
            Err(SolveError::Stagnated { attempt }) => assert_eq!(attempt, 1),
            other => panic!("expected Stagnated, got {other:?}"),
        }
    }

    #[test]
    fn degradation_ladder_is_walked_and_recorded() {
        // Force the ladder: a policy that treats any tolerance miss as
        // recoverable, no restarts, on a config that cannot reach its
        // tolerance. Every rung is tried and recorded, then the typed
        // error surfaces.
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab {
            max_iters: 30,
            rel_tol: 1e-12, // unreachable in f32
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        };
        let o = SolveOptions {
            recovery: Some(RecoveryPolicy {
                max_restarts: 0,
                max_degradations: 4,
                retry_on_tolerance_miss: true,
                ..RecoveryPolicy::default()
            }),
            ..opts(2)
        };
        match solve(a, &b, &cfg, &o) {
            Err(SolveError::ToleranceNotReached { attempts, .. }) => {
                // initial + ilu0->jacobi + jacobi->none = 3 attempts.
                assert_eq!(attempts, 3);
            }
            other => panic!("expected ToleranceNotReached, got {other:?}"),
        }
    }

    #[test]
    fn checkpointing_overhead_is_labelled_and_rollback_restarts_from_snapshot() {
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab { max_iters: 60, rel_tol: 1e-6, precond: None };
        let o = SolveOptions {
            recovery: Some(RecoveryPolicy { checkpoint_every: 10, ..RecoveryPolicy::default() }),
            ..opts(2)
        };
        let res = solve(a, &b, &cfg, &o).unwrap();
        let r = res.report.resilience.as_ref().expect("checkpointing stamps resilience");
        assert!(r.checkpoints > 0, "no checkpoints taken");
        assert!(r.checkpoint_cycles > 0, "checkpoint label recorded no cycles");
        assert_eq!(r.checkpoint_cycles, res.stats.label_cycles("checkpoint"));
        // The overhead must stay a small fraction of the solve.
        assert!(
            r.checkpoint_cycles * 5 < res.stats.device_cycles(),
            "checkpoint overhead {} of {}",
            r.checkpoint_cycles,
            res.stats.device_cycles()
        );
    }

    #[test]
    fn zero_overhead_when_off_cycles_match_plain_run() {
        // Default policy + no faults: the emitted program, cycle profile
        // and solution must be bit-identical to a run made with a
        // recovery-free build.
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab { max_iters: 80, rel_tol: 1e-6, precond: None };
        let plain = solve_or_panic(a.clone(), &b, &cfg, &opts(2));
        // An explicit (default) policy is the same as None.
        let o = SolveOptions { recovery: Some(RecoveryPolicy::default()), ..opts(2) };
        let with_policy = solve_or_panic(a, &b, &cfg, &o);
        assert_eq!(plain.stats.device_cycles(), with_policy.stats.device_cycles());
        assert_eq!(plain.stats.supersteps(), with_policy.stats.supersteps());
        let xb: Vec<u64> = plain.x.iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u64> = with_policy.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb);
        assert_eq!(plain.stats.label_cycles("checkpoint"), 0);
        assert!(plain.report.resilience.is_none());
        assert!(with_policy.report.resilience.is_none());
    }

    fn tmp_tune_cache(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graphene-runner-tune-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn tuned_solve_stamps_decision_hits_cache_and_stays_bit_identical() {
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab {
            max_iters: 100,
            rel_tol: 1e-6,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        };
        let dir = tmp_tune_cache("stamp");
        let o = SolveOptions { tune: Some(true), tune_cache: Some(dir.clone()), ..opts(4) };
        let cold = solve_or_panic(a.clone(), &b, &cfg, &o);
        assert!(cold.residual < 2e-6, "residual {}", cold.residual);
        let pass = |r: &SolveResult| {
            r.report
                .compile
                .as_ref()
                .and_then(|c| c.pass("graphene-tune"))
                .expect("tuned solve must stamp the graphene-tune pass")
                .clone()
        };
        let cp = pass(&cold);
        assert_eq!(cp.counter("cache_hit"), 0, "{:?}", cp.counters);
        assert!(cp.counter("candidates_scored") > 1, "{:?}", cp.counters);
        assert!(
            cp.counter("modelled_cycles") <= cp.counter("default_cycles"),
            "tuned plan worse than the default heuristic: {:?}",
            cp.counters
        );

        // Second solve: a cache hit, no candidates scored, and the applied
        // plan — hence the whole solve — bit-identical to the cold run.
        let warm = solve_or_panic(a.clone(), &b, &cfg, &o);
        let wp = pass(&warm);
        assert_eq!(wp.counter("cache_hit"), 1, "{:?}", wp.counters);
        assert_eq!(wp.counter("candidates_scored"), 0, "{:?}", wp.counters);
        assert_eq!(wp.counter("rows_per_tile"), cp.counter("rows_per_tile"));
        assert_eq!(wp.counter("tiles"), cp.counter("tiles"));
        let cb: Vec<u64> = cold.x.iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u64> = warm.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(cb, wb, "cache hit must reproduce the cold-tune solve bit for bit");
        assert_eq!(cold.stats.device_cycles(), warm.stats.device_cycles());

        // Tuning disabled: no stamp, and the default heuristic path runs.
        let off = solve_or_panic(a, &b, &cfg, &SolveOptions { tune: Some(false), ..opts(4) });
        assert!(off
            .report
            .compile
            .as_ref()
            .map(|c| c.pass("graphene-tune").is_none())
            .unwrap_or(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tuned_solve_reports_metrics_and_honours_pinned_partition() {
        let a = Rc::new(poisson_2d_5pt(10, 10, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab { max_iters: 100, rel_tol: 1e-6, precond: None };
        let dir = tmp_tune_cache("metrics");
        let o = SolveOptions { tune: Some(true), tune_cache: Some(dir.clone()), ..opts(4) };
        let res = solve_or_panic(a.clone(), &b, &cfg, &o);
        let m = &res.report.perf.as_ref().expect("perf report").metrics;
        assert_eq!(m.counter("tune.cache_misses"), 1);
        assert_eq!(m.counter("tune.cache_hits"), 0);
        assert!(m.counter("tune.candidates_scored") > 0);

        // An explicit partition wins over tuning: no search, no stamp.
        let part = Partition::contiguous(a.nrows, 3);
        let o2 = SolveOptions {
            tune: Some(true),
            tune_cache: Some(dir.clone()),
            partition: Some(part),
            ..opts(4)
        };
        let pinned = solve_or_panic(a, &b, &cfg, &o2);
        assert!(pinned
            .report
            .compile
            .as_ref()
            .map(|c| c.pass("graphene-tune").is_none())
            .unwrap_or(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tuned_solve_with_grid_considers_geometric_candidates() {
        let a = Rc::new(poisson_3d_7pt(4, 4, 4));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab { max_iters: 150, rel_tol: 1e-5, precond: None };
        let dir = tmp_tune_cache("grid");
        let o = SolveOptions {
            tune: Some(true),
            tune_cache: Some(dir.clone()),
            grid: Some(sparse::gen::Grid3 { nx: 4, ny: 4, nz: 4 }),
            ..opts(4)
        };
        let res = solve_or_panic(a, &b, &cfg, &o);
        assert!(res.residual < 1e-4, "residual {}", res.residual);
        let pass = res
            .report
            .compile
            .as_ref()
            .and_then(|c| c.pass("graphene-tune"))
            .expect("stamp present")
            .clone();
        // Whatever family won, it was a real search over >2 candidates
        // (the geometric family was enumerable).
        assert!(pass.counter("candidates_scored") > 2, "{:?}", pass.counters);
        assert!(pass.counters.iter().any(|(k, _)| k.starts_with("strategy.")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mpir_recovers_from_injected_fault() {
        // The paper's flagship config under a seeded fault: either the
        // refinement absorbs it or the recovery layer restarts; the final
        // result must reach MPIR-grade accuracy either way.
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::Mpir {
            inner: Box::new(SolverConfig::BiCgStab {
                max_iters: 40,
                rel_tol: 0.0,
                precond: Some(Box::new(SolverConfig::Ilu0 {})),
            }),
            precision: crate::solvers::ExtendedPrecision::DoubleWord,
            max_outer: 10,
            rel_tol: 1e-11,
        };
        let o = SolveOptions {
            faults: Some(FaultPlan::parse("flip@s60.t0:w1.b27").unwrap()),
            ..opts(2)
        };
        let res = solve(a, &b, &cfg, &o).expect("mpir should survive one bit flip");
        assert!(res.residual < 1e-11 * TOLERANCE_SAFETY, "residual {}", res.residual);
    }
}
