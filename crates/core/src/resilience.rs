//! Detection, recovery and graceful degradation for solves (the
//! counterpart of `ipu_sim::fault` on the solver side).
//!
//! The runner composes four pieces:
//!
//! * [`SolveError`] / [`SolveStatus`] — the structured outcome of a solve.
//!   `solve` no longer panics on bad inputs or silently returns garbage on
//!   a diverged run; every failure mode has a typed, printable error.
//! * [`Sentinel`] — a host-side watchdog fed by the convergence monitor's
//!   callbacks. It trips on non-finite residuals, divergence (residual
//!   grows past `divergence_factor`× the starting point) and stagnation
//!   (no improvement for `stagnation_window` monitored iterations), and
//!   **aborts the device loop mid-run**: each solver's `while` condition
//!   re-reads the predicate scalar after a host callback that forces it to
//!   false once the sentinel has tripped, so nested loops unwind at the
//!   next superstep instead of burning the full iteration budget.
//! * [`Checkpointer`] — periodic device-side snapshots of the solution
//!   vector (a labelled `checkpoint` copy, so the overhead is measurable
//!   via `CycleStats::label_cycles("checkpoint")`), mirrored to the host.
//!   Rollback restarts from the last *finite* snapshot.
//! * [`RecoveryPolicy`] + [`degrade`] — the retry state machine: restart
//!   the same configuration up to `max_restarts` times per rung, then step
//!   down a bounded degradation ladder (drop the preconditioner
//!   ILU→Jacobi→none, escalate MPIR's extended precision) before giving
//!   up with the detection's typed error.
//!
//! The entire layer is pay-for-what-you-use: with the default policy and
//! no fault plan, no sentinel or checkpoint steps are emitted and the
//! compiled program is bit-identical to one built before this module
//! existed.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dsl::prelude::*;
use dsl::TExpr;

use crate::config::SolverConfig;
use crate::dist::DistSystem;

// ----------------------------------------------------------------------
// Outcomes
// ----------------------------------------------------------------------

/// Terminal status of a successful solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// Reached the configured tolerance on the first attempt.
    Converged,
    /// Ran the full iteration budget (fixed-iteration configs, or a
    /// tolerance miss the policy chose to accept).
    MaxIters,
    /// Reached the tolerance, but only after at least one rollback
    /// restart or degradation step.
    Recovered,
}

impl SolveStatus {
    /// Wire name used in the report's `resilience.status` field.
    pub fn name(self) -> &'static str {
        match self {
            SolveStatus::Converged => "converged",
            SolveStatus::MaxIters => "max_iters",
            SolveStatus::Recovered => "recovered",
        }
    }
}

/// Why a solve failed. Every variant is a *structured* refusal: the
/// solver detected the condition and stopped, rather than returning a
/// silently wrong `x`.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// Invalid inputs or solver configuration (dimension mismatches,
    /// zero iteration budgets, malformed fault specs).
    Config(String),
    /// The solver program failed to compile onto the machine (e.g. a
    /// tile's tensors exceed its SRAM).
    Compile(String),
    /// A monitored scalar went NaN/Inf and the recovery budget is spent.
    NonFinite { attempt: u32 },
    /// The residual grew past the policy's divergence factor and the
    /// recovery budget is spent.
    Diverged { attempt: u32, residual: f64 },
    /// No residual improvement for the policy's stagnation window and
    /// the recovery budget is spent.
    Stagnated { attempt: u32 },
    /// Structural breakdown (e.g. a singular 1×1 system).
    Breakdown(String),
    /// The final attempt finished finite but above the configured
    /// tolerance, and the policy demanded convergence.
    ToleranceNotReached { residual: f64, target: f64, attempts: u32 },
    /// The selected backend refused the plan or an execution option: a
    /// capability mismatch (fault injection on the GPU model, auto-tuning
    /// on a wall-clock backend, a solver hierarchy the backend does not
    /// implement) or a backend-internal failure. Always a typed refusal,
    /// never a panic.
    Backend { backend: String, reason: String },
    /// The solve's wall-clock deadline (`SolveOptions::deadline`) passed
    /// before a converged result was produced. Enforced mid-run by the
    /// [`Sentinel`]'s host-callback abort, so the device loop unwinds at
    /// the next superstep instead of burning the rest of its budget.
    /// Deadlines are terminal: the runner never retries past one.
    DeadlineExceeded { elapsed_ms: u64, budget_ms: u64 },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Config(msg) => write!(f, "invalid solve configuration: {msg}"),
            SolveError::Compile(msg) => write!(f, "solver program failed to compile: {msg}"),
            SolveError::NonFinite { attempt } => {
                write!(f, "non-finite values detected (attempt {attempt}, recovery exhausted)")
            }
            SolveError::Diverged { attempt, residual } => {
                write!(f, "solver diverged to residual {residual:.3e} (attempt {attempt})")
            }
            SolveError::Stagnated { attempt } => {
                write!(f, "solver stagnated (attempt {attempt}, recovery exhausted)")
            }
            SolveError::Breakdown(msg) => write!(f, "solver breakdown: {msg}"),
            SolveError::ToleranceNotReached { residual, target, attempts } => write!(
                f,
                "residual {residual:.3e} above target {target:.1e} after {attempts} attempt(s)"
            ),
            SolveError::Backend { backend, reason } => {
                write!(f, "backend `{backend}`: {reason}")
            }
            SolveError::DeadlineExceeded { elapsed_ms, budget_ms } => {
                write!(f, "deadline exceeded: {elapsed_ms} ms elapsed of a {budget_ms} ms budget")
            }
        }
    }
}

impl std::error::Error for SolveError {}

// ----------------------------------------------------------------------
// Detections
// ----------------------------------------------------------------------

/// What a detector fired on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectionKind {
    /// NaN/Inf in a monitored scalar or the returned solution.
    NonFinite,
    /// Residual grew past `divergence_factor` × its starting point.
    Divergence,
    /// No residual improvement for `stagnation_window` iterations.
    Stagnation,
    /// Finished finite but above the configured tolerance.
    ToleranceMiss,
    /// The wall-clock deadline passed mid-attempt.
    Deadline,
}

impl DetectionKind {
    /// Wire name used in the report's `resilience.detections[].kind`.
    pub fn name(self) -> &'static str {
        match self {
            DetectionKind::NonFinite => "non_finite",
            DetectionKind::Divergence => "divergence",
            DetectionKind::Stagnation => "stagnation",
            DetectionKind::ToleranceMiss => "tolerance_miss",
            DetectionKind::Deadline => "deadline",
        }
    }
}

/// One detector firing (within a single attempt; the runner stamps the
/// attempt number when it records it).
#[derive(Clone, Debug, PartialEq)]
pub struct Detection {
    pub kind: DetectionKind,
    /// Monitored iteration at detection time (0: post-run check).
    pub iteration: usize,
    /// Relative residual observed (NaN for non-finite detections).
    pub residual: f64,
    pub detail: String,
}

// ----------------------------------------------------------------------
// Sentinel — in-flight residual watchdog
// ----------------------------------------------------------------------

#[derive(Default)]
struct SentinelState {
    /// Absolute wall-clock cutoff; past it the Deadline detector trips.
    deadline: Option<Instant>,
    /// First residual observed this attempt (divergence baseline).
    baseline: Option<f64>,
    best: f64,
    since_best: usize,
    detection: Option<Detection>,
}

/// Host-side watchdog over the monitored residual stream. Cloned into
/// monitor callbacks and loop-condition abort callbacks; all clones share
/// state, which [`Sentinel::reset`] clears before each attempt. See the
/// module docs for the detectors.
#[derive(Clone)]
pub struct Sentinel {
    divergence_factor: f64,
    stagnation_window: usize,
    state: Rc<RefCell<SentinelState>>,
}

impl Sentinel {
    pub fn new(divergence_factor: f64, stagnation_window: usize) -> Sentinel {
        let sentinel = Sentinel { divergence_factor, stagnation_window, state: Rc::default() };
        sentinel.reset(None);
        sentinel
    }

    /// Start an attempt: nothing observed, nothing detected, and the
    /// wall-clock deadline detector armed at `deadline`. Past it, the
    /// sentinel trips with [`DetectionKind::Deadline`] on the next poll
    /// (every monitored sample and every loop-condition abort hook polls),
    /// so the device loop unwinds within one superstep of the cutoff.
    pub fn reset(&self, deadline: Option<Instant>) {
        *self.state.borrow_mut() =
            SentinelState { deadline, best: f64::INFINITY, ..SentinelState::default() };
    }

    /// Check the deadline detector. Returns true if the sentinel is
    /// tripped (by this poll or any earlier detector).
    pub fn poll_deadline(&self) -> bool {
        let mut st = self.state.borrow_mut();
        if st.detection.is_some() {
            return true;
        }
        match st.deadline {
            Some(at) if Instant::now() >= at => {
                st.detection = Some(Detection {
                    kind: DetectionKind::Deadline,
                    iteration: 0,
                    residual: f64::NAN,
                    detail: "wall-clock deadline passed mid-attempt".into(),
                });
                true
            }
            _ => false,
        }
    }

    /// Feed one monitored (iteration, relative residual) sample. Trips at
    /// most once per attempt; later samples are ignored once tripped.
    pub fn observe(&self, iteration: usize, residual: f64) {
        let _ = self.poll_deadline();
        let mut st = self.state.borrow_mut();
        if st.detection.is_some() {
            return;
        }
        if !residual.is_finite() {
            st.detection = Some(Detection {
                kind: DetectionKind::NonFinite,
                iteration,
                residual: f64::NAN,
                detail: format!("monitored residual is {residual} at iteration {iteration}"),
            });
            return;
        }
        let baseline = *st.baseline.get_or_insert(residual);
        // Divergence: measured against the worse of the baseline and 1.0
        // so an excellent initial guess (baseline ~1e-12) doesn't turn
        // routine iteration noise into a divergence call.
        let ceiling = self.divergence_factor * baseline.max(1.0);
        if residual > ceiling {
            st.detection = Some(Detection {
                kind: DetectionKind::Divergence,
                iteration,
                residual,
                detail: format!(
                    "residual {residual:.3e} exceeds {:.1e} x baseline {baseline:.3e}",
                    self.divergence_factor
                ),
            });
            return;
        }
        // Stagnation: no meaningful improvement over the best-so-far for
        // a full window of monitored iterations.
        if residual < st.best * 0.999 {
            st.best = residual;
            st.since_best = 0;
        } else {
            st.since_best += 1;
            if self.stagnation_window > 0 && st.since_best >= self.stagnation_window {
                st.detection = Some(Detection {
                    kind: DetectionKind::Stagnation,
                    iteration,
                    residual,
                    detail: format!(
                        "no improvement on best {best:.3e} for {n} iterations",
                        best = st.best,
                        n = st.since_best
                    ),
                });
            }
        }
    }

    /// Has any detector fired this attempt?
    pub fn tripped(&self) -> bool {
        self.state.borrow().detection.is_some()
    }

    /// The detection that tripped the sentinel, if any.
    pub fn detection(&self) -> Option<Detection> {
        self.state.borrow().detection.clone()
    }

    /// Emit the loop-abort hook: a host callback (zero device cycles)
    /// that forces the loop-continue predicate scalar to false once the
    /// sentinel has tripped. Called by solvers inside their `while`
    /// condition, after assigning `pred`; because *every* enclosing loop
    /// re-evaluates its own hooked condition, one trip unwinds the whole
    /// solver nest within one sweep of condition checks.
    pub fn emit_abort_hook(&self, ctx: &mut DslCtx, pred: TensorRef) {
        let s = self.clone();
        let pid = pred.id;
        ctx.callback(move |view| {
            if s.poll_deadline() || s.tripped() {
                view.write_f64(pid, &[0.0]);
            }
        });
    }
}

// ----------------------------------------------------------------------
// Checkpointer — periodic solution snapshots for rollback
// ----------------------------------------------------------------------

/// Device tensors backing one solver's checkpoint stream.
#[derive(Clone, Copy)]
pub struct CheckpointTensors {
    /// Device copy of the solution at the last checkpoint.
    pub chk: TensorRef,
    /// Next iteration count at which to checkpoint (f32 scalar).
    pub next: TensorRef,
    /// Scratch predicate: "a checkpoint is due this iteration".
    pub due: TensorRef,
}

/// Periodic checkpoints of the solution vector. The device copy runs
/// under a `checkpoint` label (its cycles are the measurable overhead);
/// a host callback mirrors each snapshot so rollback works even after
/// the engine that produced it has been reset. All clones share the
/// snapshot and the count, which [`Checkpointer::reset`] clears.
#[derive(Clone)]
pub struct Checkpointer {
    /// Checkpoint every `every` solver iterations (> 0).
    every: u32,
    /// Last snapshot whose values were all finite (device element order).
    snapshot: Rc<RefCell<Option<Vec<f64>>>>,
    /// Snapshots taken (including non-finite ones that were discarded).
    count: Rc<RefCell<u64>>,
}

impl Checkpointer {
    pub fn new(every: u32) -> Checkpointer {
        assert!(every > 0, "checkpoint interval must be positive");
        Checkpointer {
            every,
            snapshot: Rc::new(RefCell::new(None)),
            count: Rc::new(RefCell::new(0)),
        }
    }

    /// Allocate the checkpoint tensors. Call once per solve site, before
    /// the iteration loop. `dtype` must match the solution tensor that
    /// will be checkpointed.
    pub fn setup(&self, ctx: &mut DslCtx, sys: &DistSystem, dtype: DType) -> CheckpointTensors {
        let chk = sys.new_vector(ctx, "chk_x", dtype);
        let next = ctx.scalar("chk_next", DType::F32);
        let due = ctx.scalar("chk_due", DType::Bool);
        ctx.assign(next, TExpr::c_f32(self.every as f32));
        CheckpointTensors { chk, next, due }
    }

    /// Emit one loop-body checkpoint step: when the iteration counter
    /// reaches the next checkpoint mark, copy `x` into the checkpoint
    /// tensor (labelled `checkpoint`) and mirror it to the host.
    pub fn emit_step(
        &self,
        ctx: &mut DslCtx,
        st: &CheckpointTensors,
        x: TensorRef,
        iter: TensorRef,
    ) {
        ctx.assign(st.due, st.next.ex().le(iter.ex()));
        let every = self.every as f32;
        let me = self.clone();
        let chk_id = st.chk.id;
        ctx.if_(st.due, |ctx| {
            ctx.label("checkpoint", |ctx| {
                ctx.copy(x, st.chk);
                ctx.assign(st.next, st.next + every);
            });
            ctx.callback(move |view| {
                let snap = view.read_f64(chk_id);
                *me.count.borrow_mut() += 1;
                if snap.iter().all(|v| v.is_finite()) {
                    *me.snapshot.borrow_mut() = Some(snap);
                }
            });
        });
    }

    /// Start an attempt: no snapshot, none taken.
    pub fn reset(&self) {
        *self.snapshot.borrow_mut() = None;
        *self.count.borrow_mut() = 0;
    }

    /// Last finite snapshot, in device element order.
    pub fn snapshot(&self) -> Option<Vec<f64>> {
        self.snapshot.borrow().clone()
    }

    /// Snapshots taken (finite or not).
    pub fn count(&self) -> u64 {
        *self.count.borrow()
    }
}

// ----------------------------------------------------------------------
// Backoff — seeded, jittered exponential retry delays
// ----------------------------------------------------------------------

/// The splitmix64 mixing function (same constants as
/// `ipu_sim::fault` and `sparse::fingerprint`): a stateless, uniform
/// 64-bit mix used wherever this crate needs deterministic
/// pseudo-randomness that replays bit-identically under a fixed seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Jittered exponential backoff between retry attempts, plus a total
/// wall-clock retry budget. Default-inert: `base_ms == 0` means no
/// delays and no budget, so existing solves are byte-identical.
///
/// The delay for retry `k` (0-based) is
/// `min(max_ms, base_ms * factor^k)`, scaled by a jitter factor drawn
/// uniformly from `[1 - jitter, 1 + jitter)` via splitmix64 of
/// `(seed, k)` — a pure function of the seed and the retry index, so a
/// replay under the same seed sleeps the exact same schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Backoff {
    /// Delay before the first retry, in milliseconds. 0 disables
    /// backoff entirely (no sleeps, no budget enforcement).
    pub base_ms: u64,
    /// Multiplier applied per subsequent retry (>= 1.0).
    pub factor: f64,
    /// Ceiling on any single delay, in milliseconds.
    pub max_ms: u64,
    /// Fraction of each delay randomised, in `[0, 1]`. 0: deterministic
    /// un-jittered delays (still deterministic *with* jitter — the
    /// jitter stream is seeded).
    pub jitter: f64,
    /// splitmix64 seed for the jitter stream.
    pub seed: u64,
    /// Total wall-clock budget for the whole retry loop, in
    /// milliseconds, measured from solve entry. Once elapsed time
    /// crosses it, the runner stops retrying and returns the
    /// detection's typed error. 0: unlimited.
    pub budget_ms: u64,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff { base_ms: 0, factor: 2.0, max_ms: 10_000, jitter: 0.0, seed: 0, budget_ms: 0 }
    }
}

impl Backoff {
    /// Are delays (and the budget) active at all?
    pub fn enabled(&self) -> bool {
        self.base_ms > 0
    }

    /// Re-seed the jitter stream (builder style).
    pub fn with_seed(mut self, seed: u64) -> Backoff {
        self.seed = seed;
        self
    }

    /// The delay before 0-based retry `retry`, in milliseconds. Pure:
    /// same `(self, retry)` → same answer, always.
    pub fn delay_ms(&self, retry: u32) -> u64 {
        if self.base_ms == 0 {
            return 0;
        }
        let raw = self.base_ms as f64 * self.factor.max(1.0).powi(retry as i32);
        let capped = raw.min(self.max_ms as f64);
        let j = self.jitter.clamp(0.0, 1.0);
        if j == 0.0 {
            return capped.round() as u64;
        }
        let bits = splitmix64(self.seed ^ splitmix64(retry as u64));
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (capped * (1.0 - j + 2.0 * j * unit)).round() as u64
    }

    /// Has the total retry budget been spent?
    pub fn budget_exhausted(&self, elapsed: Duration) -> bool {
        self.enabled() && self.budget_ms > 0 && elapsed.as_millis() as u64 >= self.budget_ms
    }
}

// ----------------------------------------------------------------------
// Recovery policy + degradation ladder
// ----------------------------------------------------------------------

/// How aggressively a solve detects trouble and tries to recover.
///
/// The default policy is inert — no detectors, no checkpoints, no
/// retries — and leaves the emitted program bit-identical to a build
/// without this module. [`RecoveryPolicy::resilient`] is the
/// fault-tolerant profile the runner auto-selects when a fault plan is
/// active.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Rollback-and-restart budget *per configuration rung*.
    pub max_restarts: u32,
    /// Total degradation steps across the whole solve.
    pub max_degradations: u32,
    /// Checkpoint the solution every this many solver iterations
    /// (0: no checkpoints; rollback restarts from the initial guess).
    pub checkpoint_every: u32,
    /// Trip the divergence detector when the monitored residual exceeds
    /// this factor × max(first residual, 1.0). `INFINITY`: disabled.
    pub divergence_factor: f64,
    /// Trip the stagnation detector after this many monitored iterations
    /// without improvement. 0: disabled.
    pub stagnation_window: usize,
    /// Treat a finite-but-above-tolerance finish as recoverable (retry /
    /// degrade) instead of returning `SolveStatus::MaxIters`.
    pub retry_on_tolerance_miss: bool,
    /// Delay schedule between retries plus the total wall-clock retry
    /// budget. Default-inert (no delays, no budget).
    pub backoff: Backoff,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_restarts: 0,
            max_degradations: 0,
            checkpoint_every: 0,
            divergence_factor: f64::INFINITY,
            stagnation_window: 0,
            retry_on_tolerance_miss: false,
            backoff: Backoff::default(),
        }
    }
}

impl RecoveryPolicy {
    /// The fault-tolerant profile: all detectors armed, periodic
    /// checkpoints, two restarts per rung, four degradation steps.
    pub fn resilient() -> RecoveryPolicy {
        RecoveryPolicy {
            max_restarts: 2,
            max_degradations: 4,
            checkpoint_every: 50,
            divergence_factor: 1e4,
            stagnation_window: 60,
            retry_on_tolerance_miss: true,
            backoff: Backoff::default(),
        }
    }

    /// Do any in-flight detectors need the sentinel wired into the
    /// solver program?
    pub fn wants_sentinel(&self) -> bool {
        self.divergence_factor.is_finite() || self.stagnation_window > 0
    }

    /// Does the policy ever retry at all? (If not, the runner skips all
    /// recovery bookkeeping.)
    pub fn wants_recovery(&self) -> bool {
        self.max_restarts > 0 || self.max_degradations > 0
    }
}

/// One step down the graceful-degradation ladder: a more robust (if
/// slower or less accurate) configuration, plus a human-readable
/// description of the step. `None` when the ladder is exhausted.
///
/// The ladder, applied innermost-first:
/// 1. strong preconditioners (ILU0/DILU/Gauss-Seidel/Chebyshev) step
///    down to damped Jacobi — factorisation-based preconditioners are
///    the most numerically fragile stage under corrupted state;
/// 2. Jacobi / Identity preconditioners are dropped entirely;
/// 3. MPIR escalates its extended precision (Working → DoubleWord →
///    EmulatedF64) once its inner chain is exhausted — more headroom
///    against rounding-driven stagnation, at higher per-op cost.
pub fn degrade(cfg: &SolverConfig) -> Option<(SolverConfig, String)> {
    use crate::solvers::ExtendedPrecision as P;
    match cfg {
        SolverConfig::Mpir { inner, precision, max_outer, rel_tol } => {
            if let Some((inner2, desc)) = degrade(inner) {
                return Some((
                    SolverConfig::Mpir {
                        inner: Box::new(inner2),
                        precision: *precision,
                        max_outer: *max_outer,
                        rel_tol: *rel_tol,
                    },
                    desc,
                ));
            }
            let next = match precision {
                P::Working => P::DoubleWord,
                P::DoubleWord => P::EmulatedF64,
                P::EmulatedF64 => return None,
            };
            Some((
                SolverConfig::Mpir {
                    inner: inner.clone(),
                    precision: next,
                    max_outer: *max_outer,
                    rel_tol: *rel_tol,
                },
                format!(
                    "mpir precision {} -> {}",
                    crate::config::precision_name(*precision),
                    crate::config::precision_name(next)
                ),
            ))
        }
        SolverConfig::BiCgStab { max_iters, rel_tol, precond } => {
            degrade_precond(precond).map(|(p, desc)| {
                (
                    SolverConfig::BiCgStab { max_iters: *max_iters, rel_tol: *rel_tol, precond: p },
                    desc,
                )
            })
        }
        SolverConfig::Cg { max_iters, rel_tol, precond } => {
            degrade_precond(precond).map(|(p, desc)| {
                (SolverConfig::Cg { max_iters: *max_iters, rel_tol: *rel_tol, precond: p }, desc)
            })
        }
        // Leaf smoothers have no more robust fallback.
        _ => None,
    }
}

fn degrade_precond(
    precond: &Option<Box<SolverConfig>>,
) -> Option<(Option<Box<SolverConfig>>, String)> {
    let p = precond.as_deref()?;
    match p {
        // Strong/factorisation preconditioners -> damped Jacobi.
        SolverConfig::Ilu0 {}
        | SolverConfig::Dilu {}
        | SolverConfig::GaussSeidel { .. }
        | SolverConfig::Chebyshev { .. }
        | SolverConfig::BiCgStab { .. }
        | SolverConfig::Cg { .. }
        | SolverConfig::Mpir { .. } => Some((
            Some(Box::new(SolverConfig::Jacobi { sweeps: 2, omega: 0.8 })),
            format!("preconditioner {} -> jacobi", config_tag(p)),
        )),
        // Weak preconditioners -> none.
        SolverConfig::Jacobi { .. } | SolverConfig::Identity => {
            Some((None, format!("preconditioner {} -> none", config_tag(p))))
        }
    }
}

/// Short wire-style tag for degradation messages.
fn config_tag(cfg: &SolverConfig) -> &'static str {
    match cfg {
        SolverConfig::Identity => "identity",
        SolverConfig::Jacobi { .. } => "jacobi",
        SolverConfig::GaussSeidel { .. } => "gauss_seidel",
        SolverConfig::Chebyshev { .. } => "chebyshev",
        SolverConfig::Ilu0 {} => "ilu0",
        SolverConfig::Dilu {} => "dilu",
        SolverConfig::Cg { .. } => "cg",
        SolverConfig::BiCgStab { .. } => "bi_cg_stab",
        SolverConfig::Mpir { .. } => "mpir",
    }
}

/// The relative-residual tolerance a configuration promises, if any.
/// Fixed-iteration configs (`rel_tol = 0`) and pure smoothers return
/// `None` — they run a fixed budget, and "ran the budget" is success.
pub fn target_tolerance(cfg: &SolverConfig) -> Option<f64> {
    match cfg {
        SolverConfig::Mpir { rel_tol, .. } if *rel_tol > 0.0 => Some(*rel_tol),
        SolverConfig::BiCgStab { rel_tol, .. } | SolverConfig::Cg { rel_tol, .. }
            if *rel_tol > 0.0 =>
        {
            Some(*rel_tol as f64)
        }
        SolverConfig::GaussSeidel { rel_tol, .. } if *rel_tol > 0.0 => Some(*rel_tol as f64),
        _ => None,
    }
}

/// Validate a configuration tree before building anything, so bad
/// configs surface as [`SolveError::Config`] instead of panics inside
/// solver constructors.
pub fn validate_config(cfg: &SolverConfig) -> Result<(), SolveError> {
    match cfg {
        SolverConfig::Jacobi { sweeps, .. } | SolverConfig::GaussSeidel { sweeps, .. } => {
            if *sweeps == 0 {
                return Err(SolveError::Config(format!("{}: sweeps must be > 0", config_tag(cfg))));
            }
        }
        SolverConfig::Chebyshev { degree, .. } => {
            if *degree == 0 {
                return Err(SolveError::Config("chebyshev: degree must be > 0".into()));
            }
        }
        SolverConfig::BiCgStab { max_iters, precond, .. }
        | SolverConfig::Cg { max_iters, precond, .. } => {
            if *max_iters == 0 {
                return Err(SolveError::Config(format!(
                    "{}: max_iters must be > 0",
                    config_tag(cfg)
                )));
            }
            if let Some(p) = precond {
                validate_config(p)?;
            }
        }
        SolverConfig::Mpir { inner, max_outer, .. } => {
            if *max_outer == 0 {
                return Err(SolveError::Config("mpir: max_outer must be > 0".into()));
            }
            validate_config(inner)?;
        }
        SolverConfig::Identity | SolverConfig::Ilu0 {} | SolverConfig::Dilu {} => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::ExtendedPrecision;

    #[test]
    fn default_policy_is_inert() {
        let p = RecoveryPolicy::default();
        assert!(!p.wants_sentinel());
        assert!(!p.wants_recovery());
        assert_eq!(p.checkpoint_every, 0);
        assert!(!p.retry_on_tolerance_miss);
        let r = RecoveryPolicy::resilient();
        assert!(r.wants_sentinel());
        assert!(r.wants_recovery());
    }

    #[test]
    fn sentinel_trips_on_non_finite() {
        let s = Sentinel::new(f64::INFINITY, 0);
        s.observe(1, 0.5);
        assert!(!s.tripped());
        s.observe(2, f64::NAN);
        let d = s.detection().unwrap();
        assert_eq!(d.kind, DetectionKind::NonFinite);
        assert_eq!(d.iteration, 2);
        // Trips once; later (even healthy) samples don't overwrite it.
        s.observe(3, 0.1);
        assert_eq!(s.detection().unwrap().kind, DetectionKind::NonFinite);
    }

    #[test]
    fn sentinel_trips_on_divergence_relative_to_baseline() {
        let s = Sentinel::new(100.0, 0);
        s.observe(1, 2.0);
        s.observe(2, 150.0); // 75x baseline: fine
        assert!(!s.tripped());
        s.observe(3, 250.0); // 125x baseline: diverged
        let d = s.detection().unwrap();
        assert_eq!(d.kind, DetectionKind::Divergence);
        assert_eq!(d.residual, 250.0);
    }

    #[test]
    fn sentinel_divergence_floor_protects_good_guesses() {
        // Baseline 1e-12: ceiling is factor * 1.0, not factor * 1e-12.
        let s = Sentinel::new(100.0, 0);
        s.observe(1, 1e-12);
        s.observe(2, 1e-6); // a million times the baseline, still tiny
        assert!(!s.tripped());
        s.observe(3, 200.0);
        assert!(s.tripped());
    }

    #[test]
    fn sentinel_trips_on_stagnation() {
        let s = Sentinel::new(f64::INFINITY, 3);
        s.observe(1, 1.0);
        s.observe(2, 0.5); // improvement resets the window
        s.observe(3, 0.5);
        s.observe(4, 0.5);
        assert!(!s.tripped());
        s.observe(5, 0.5);
        let d = s.detection().unwrap();
        assert_eq!(d.kind, DetectionKind::Stagnation);
    }

    #[test]
    fn degradation_ladder_is_bounded_and_ordered() {
        // ILU-preconditioned BiCGStab: ilu0 -> jacobi -> none -> exhausted.
        let cfg = SolverConfig::BiCgStab {
            max_iters: 100,
            rel_tol: 1e-6,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        };
        let (c1, d1) = degrade(&cfg).unwrap();
        assert!(d1.contains("ilu0 -> jacobi"), "{d1}");
        let (c2, d2) = degrade(&c1).unwrap();
        assert!(d2.contains("jacobi -> none"), "{d2}");
        assert!(degrade(&c2).is_none(), "{c2:?}");
    }

    #[test]
    fn degradation_of_mpir_degrades_inner_first_then_escalates_precision() {
        let cfg = SolverConfig::Mpir {
            inner: Box::new(SolverConfig::BiCgStab {
                max_iters: 40,
                rel_tol: 0.0,
                precond: Some(Box::new(SolverConfig::Ilu0 {})),
            }),
            precision: ExtendedPrecision::DoubleWord,
            max_outer: 8,
            rel_tol: 1e-11,
        };
        let steps: Vec<String> =
            std::iter::successors(degrade(&cfg), |(c, _)| degrade(c)).map(|(_, d)| d).collect();
        assert_eq!(
            steps,
            vec![
                "preconditioner ilu0 -> jacobi".to_string(),
                "preconditioner jacobi -> none".to_string(),
                "mpir precision double_word -> emulated_f64".to_string(),
            ]
        );
    }

    #[test]
    fn target_tolerance_follows_the_outermost_config() {
        assert_eq!(
            target_tolerance(&SolverConfig::BiCgStab {
                max_iters: 10,
                rel_tol: 1e-6,
                precond: None
            }),
            Some(1e-6f32 as f64)
        );
        assert_eq!(
            target_tolerance(&SolverConfig::BiCgStab {
                max_iters: 10,
                rel_tol: 0.0,
                precond: None
            }),
            None
        );
        assert_eq!(target_tolerance(&SolverConfig::Ilu0 {}), None);
    }

    #[test]
    fn validate_rejects_zero_budgets() {
        assert!(matches!(
            validate_config(&SolverConfig::BiCgStab { max_iters: 0, rel_tol: 0.0, precond: None }),
            Err(SolveError::Config(_))
        ));
        assert!(matches!(
            validate_config(&SolverConfig::Cg {
                max_iters: 10,
                rel_tol: 0.0,
                precond: Some(Box::new(SolverConfig::Jacobi { sweeps: 0, omega: 0.5 })),
            }),
            Err(SolveError::Config(_))
        ));
        assert!(validate_config(&SolverConfig::paper_default(100, 20, 1e-13)).is_ok());
    }

    #[test]
    fn backoff_default_is_inert() {
        let b = Backoff::default();
        assert!(!b.enabled());
        assert_eq!(b.delay_ms(0), 0);
        assert_eq!(b.delay_ms(7), 0);
        assert!(!b.budget_exhausted(Duration::from_secs(3600)));
        // The default policy embeds the inert backoff.
        assert_eq!(RecoveryPolicy::default().backoff, Backoff::default());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let b = Backoff { base_ms: 10, factor: 2.0, max_ms: 55, ..Backoff::default() };
        assert_eq!(b.delay_ms(0), 10);
        assert_eq!(b.delay_ms(1), 20);
        assert_eq!(b.delay_ms(2), 40);
        assert_eq!(b.delay_ms(3), 55); // capped, not 80
        assert_eq!(b.delay_ms(9), 55);
    }

    #[test]
    fn backoff_jitter_is_seed_deterministic_and_bounded() {
        let b = Backoff { base_ms: 100, jitter: 0.5, seed: 42, ..Backoff::default() };
        for retry in 0..16 {
            let d = b.delay_ms(retry);
            assert_eq!(d, b.clone().delay_ms(retry), "replay must be bit-identical");
            let raw = (100.0 * 2f64.powi(retry as i32)).min(10_000.0);
            assert!(d as f64 >= (raw * 0.5).floor() && d as f64 <= (raw * 1.5).ceil(), "{d}");
        }
        // A different seed gives a different schedule somewhere.
        let b2 = b.clone().with_seed(43);
        assert!((0..16).any(|r| b.delay_ms(r) != b2.delay_ms(r)));
    }

    #[test]
    fn backoff_budget_tracks_elapsed_wall_clock() {
        let b = Backoff { base_ms: 5, budget_ms: 100, ..Backoff::default() };
        assert!(!b.budget_exhausted(Duration::from_millis(99)));
        assert!(b.budget_exhausted(Duration::from_millis(100)));
        // No budget configured: never exhausted.
        let b = Backoff { base_ms: 5, budget_ms: 0, ..Backoff::default() };
        assert!(!b.budget_exhausted(Duration::from_secs(10)));
    }

    #[test]
    fn sentinel_deadline_trips_once_past_the_cutoff() {
        let s = Sentinel::new(f64::INFINITY, 0);
        s.reset(Some(Instant::now() - Duration::from_millis(1)));
        assert!(s.poll_deadline());
        let d = s.detection().unwrap();
        assert_eq!(d.kind, DetectionKind::Deadline);
        // A healthy sample doesn't clear it.
        s.observe(1, 0.5);
        assert_eq!(s.detection().unwrap().kind, DetectionKind::Deadline);
        // The next attempt starts clean, with its own deadline.
        s.reset(None);
        assert!(!s.poll_deadline() && !s.tripped());

        let s = Sentinel::new(f64::INFINITY, 0);
        s.reset(Some(Instant::now() + Duration::from_secs(3600)));
        assert!(!s.poll_deadline());
        s.observe(1, 0.5);
        assert!(!s.tripped());
    }

    #[test]
    fn sentinel_observe_polls_the_deadline() {
        let s = Sentinel::new(f64::INFINITY, 0);
        s.reset(Some(Instant::now() - Duration::from_millis(1)));
        s.observe(3, 0.25);
        assert_eq!(s.detection().unwrap().kind, DetectionKind::Deadline);
    }

    #[test]
    fn solve_errors_display_useful_messages() {
        let e = SolveError::Diverged { attempt: 2, residual: 1e8 };
        assert!(e.to_string().contains("1.000e8") || e.to_string().contains("diverged"));
        let e = SolveError::ToleranceNotReached { residual: 1e-3, target: 1e-6, attempts: 3 };
        assert!(e.to_string().contains("3 attempt"));
    }
}
