//! The serve engine: admission, worker fleet, terminal accounting.
//!
//! One `Mutex<State>` guards the queues, the outcome map and the
//! counters; two condvars signal it (`work`: jobs arrived or requeued,
//! `done`: a job reached a terminal state). Workers are plain
//! `std::thread`s — backend handles hold `Rc` state and are not `Send`,
//! so each worker leases its own handle from the shared
//! [`BackendPool`] and keeps thread-local plan caches.
//!
//! The job state machine (documented in DESIGN.md §16):
//!
//! ```text
//! submit ─┬─ rejected (QueueFull / Rejected)                [terminal]
//!         └─ queued ── picked ─┬─ expired → DeadlineExceeded [terminal]
//!               ▲              └─ running ─┬─ Done            [terminal]
//!               │                          ├─ DeadlineExceeded[terminal]
//!               │                          ├─ failed ─┬─ retry (backoff)
//!               │                          │          └─ Quarantined
//!               │                          └─ panic ─┬─ requeue ──┐
//!               │                (worker respawned)  └─ Quarantined│
//!               └──────────────────────────────────────────────────┘
//! ```
//!
//! Every admitted job ends in exactly one of Done / Quarantined /
//! DeadlineExceeded; every submitted job is that or rejected at
//! admission — [`ServeStats::accounting_ok`] checks the arithmetic.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use backend::pool::BackendPool;
use backend::{Backend, Capabilities, PreparedPlan, SolvePlan};
use graphene_core::backends::backend_for;
use graphene_core::resilience::{splitmix64, target_tolerance};
use graphene_core::runner::{self, TOLERANCE_SAFETY};
use json::Json;
use profile::metrics::Metrics;
use sparse::formats::CsrMatrix;

use crate::job::{is_deadline, x_digest, JobOutcome, JobResult, JobSpec};
use crate::queue::{job_cost, QueuedJob, TenantQueues};
use crate::{JobId, ServeError, ServeOptions};

/// Latency histogram bounds, ms (shared by the queue/solve histograms).
const LATENCY_BOUNDS_MS: [f64; 10] =
    [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 5000.0];

// ----------------------------------------------------------------------
// Shared state
// ----------------------------------------------------------------------

struct State {
    queues: TenantQueues,
    /// Terminal outcome of every accepted job, keyed by id.
    results: BTreeMap<JobId, JobOutcome>,
    submitted: u64,
    accepted: u64,
    rejected: u64,
    /// Jobs picked by a worker and not yet terminal or requeued.
    inflight: u64,
    retries: u64,
    sdc_escapes: u64,
    /// (worker id, job id) for every panic caught at a worker boundary.
    worker_losses: Vec<(usize, JobId)>,
    next_worker_id: usize,
    shutdown: bool,
    metrics: Metrics,
    /// Admission→terminal latency of each completed (Done) job, ms.
    latencies_ms: Vec<f64>,
    tenants: BTreeMap<String, TenantCounts>,
}

struct Shared {
    opts: ServeOptions,
    pool: BackendPool,
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
    /// Worker join handles — grows when a panicked worker is respawned.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

fn lock<'a>(m: &'a Mutex<State>) -> MutexGuard<'a, State> {
    // A worker can only panic outside this lock (solves run unlocked),
    // so a poisoned mutex still holds consistent state.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ----------------------------------------------------------------------
// Engine
// ----------------------------------------------------------------------

/// The running service: submit jobs, await outcomes, then
/// [`finish`](ServeEngine::finish) for the stats.
pub struct ServeEngine {
    shared: Arc<Shared>,
    started: Instant,
}

impl ServeEngine {
    /// Validate the configuration, probe the backend's capabilities
    /// against what the fleet needs, and spawn the workers.
    pub fn start(opts: ServeOptions) -> Result<ServeEngine, ServeError> {
        if opts.workers == 0 || opts.queue_capacity == 0 || opts.max_attempts == 0 {
            return Err(ServeError::Rejected {
                reason: "workers, queue_capacity and max_attempts must all be >= 1".into(),
            });
        }
        // A storm must parse and the backend must honour fault plans —
        // checked once here, not per job mid-flight.
        if let Some(storm) = &opts.storm {
            storm
                .plan_for(1)
                .map_err(|e| ServeError::Rejected { reason: format!("invalid storm spec: {e}") })?;
        }
        let required =
            Capabilities { fault_injection: opts.storm.is_some(), ..Capabilities::default() };
        let spec = opts.backend;
        let base = opts.base.clone();
        let pool = BackendPool::new(required, Box::new(move || backend_for(spec, &base)))
            .map_err(|e| ServeError::Rejected { reason: e.to_string() })?;

        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queues: TenantQueues::new(opts.queue_capacity, opts.quantum),
                results: BTreeMap::new(),
                submitted: 0,
                accepted: 0,
                rejected: 0,
                inflight: 0,
                retries: 0,
                sdc_escapes: 0,
                worker_losses: Vec::new(),
                next_worker_id: opts.workers,
                shutdown: false,
                metrics: Metrics::new(),
                latencies_ms: Vec::new(),
                tenants: BTreeMap::new(),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            handles: Mutex::new(Vec::new()),
            pool,
            opts,
        });
        let workers = shared.opts.workers;
        {
            let mut handles = shared.handles.lock().unwrap_or_else(|e| e.into_inner());
            for id in 0..workers {
                handles.push(spawn_worker(Arc::clone(&shared), id));
            }
        }
        Ok(ServeEngine { shared, started: Instant::now() })
    }

    /// Admit one job. Returns its id, or a typed rejection — admission
    /// never blocks and never drops silently.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        if spec.b.len() != spec.a.nrows || spec.a.nrows != spec.a.ncols {
            return Err(ServeError::Rejected {
                reason: format!(
                    "dimension mismatch: A is {}x{}, b has {} entries",
                    spec.a.nrows,
                    spec.a.ncols,
                    spec.b.len()
                ),
            });
        }
        if spec.faults.is_some() && !self.shared.pool.capabilities().fault_injection {
            return Err(ServeError::Rejected {
                reason: format!(
                    "backend `{}` does not support fault injection",
                    self.shared.pool.name()
                ),
            });
        }
        let now = Instant::now();
        let deadline = spec.deadline.or(self.shared.opts.default_deadline);
        let mut st = lock(&self.shared.state);
        if st.shutdown {
            return Err(ServeError::Rejected { reason: "engine is shutting down".into() });
        }
        st.submitted += 1;
        let id = st.submitted;
        let tenant = spec.tenant.clone();
        st.tenants.entry(tenant.clone()).or_default().submitted += 1;
        let cost = job_cost(spec.a.nnz());
        let job = QueuedJob {
            id,
            spec,
            attempts: 0,
            enqueued: now,
            deadline_at: deadline.map(|d| now + d),
            cost,
        };
        match st.queues.admit(job) {
            Ok(()) => {
                st.accepted += 1;
                let depth = st.queues.len() as f64;
                st.metrics.gauge_set("serve.queue_depth", depth);
                drop(st);
                self.shared.work.notify_one();
                Ok(id)
            }
            Err(e) => {
                st.rejected += 1;
                st.tenants.entry(tenant).or_default().rejected += 1;
                st.metrics.counter_add("serve.rejected", 1);
                Err(e)
            }
        }
    }

    /// Terminal outcome of an accepted job, if it has reached one.
    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        lock(&self.shared.state).results.get(&id).cloned()
    }

    /// Block until every accepted job has a terminal outcome, or the
    /// timeout elapses ([`ServeError::Timeout`] — the CI deadlock gate).
    pub fn drain(&self, timeout: Duration) -> Result<(), ServeError> {
        let start = Instant::now();
        let mut st = lock(&self.shared.state);
        while (st.results.len() as u64) < st.accepted {
            let left = timeout
                .checked_sub(start.elapsed())
                .ok_or(ServeError::Timeout { waited_ms: start.elapsed().as_millis() as u64 })?;
            let (guard, res) =
                self.shared.done.wait_timeout(st, left).unwrap_or_else(|e| e.into_inner());
            st = guard;
            if res.timed_out() && (st.results.len() as u64) < st.accepted {
                return Err(ServeError::Timeout { waited_ms: start.elapsed().as_millis() as u64 });
            }
        }
        Ok(())
    }

    /// Stop accepting work, let queued jobs finish, join the workers,
    /// and return the final statistics.
    pub fn finish(self) -> ServeStats {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        // Respawned workers push new handles while we join — drain until
        // the vector stays empty.
        loop {
            let handle = {
                let mut handles = self.shared.handles.lock().unwrap_or_else(|e| e.into_inner());
                handles.pop()
            };
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        let st = lock(&self.shared.state);
        let wall = self.started.elapsed().as_secs_f64().max(1e-9);
        let mut done = 0u64;
        let mut quarantined = 0u64;
        let mut deadline_exceeded = 0u64;
        for outcome in st.results.values() {
            match outcome {
                JobOutcome::Done(_) => done += 1,
                JobOutcome::Quarantined { .. } => quarantined += 1,
                JobOutcome::DeadlineExceeded { .. } => deadline_exceeded += 1,
            }
        }
        let mut lat = st.latencies_ms.clone();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let q = |q: f64| -> f64 {
            if lat.is_empty() {
                return 0.0;
            }
            let idx = ((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len()) - 1;
            lat[idx]
        };
        ServeStats {
            submitted: st.submitted,
            accepted: st.accepted,
            rejected: st.rejected,
            done,
            quarantined,
            deadline_exceeded,
            retries: st.retries,
            sdc_escapes: st.sdc_escapes,
            worker_losses: st.worker_losses.len() as u64,
            wall_seconds: wall,
            solves_per_sec: done as f64 / wall,
            p50_ms: q(0.50),
            p99_ms: q(0.99),
            tenants: st.tenants.clone(),
            metrics: st.metrics.clone(),
        }
    }
}

// ----------------------------------------------------------------------
// Workers
// ----------------------------------------------------------------------

/// Worker-thread-local execution context: the leased backend handle and
/// the plan-coalescing caches. Discarded (with the thread) when a panic
/// tears the worker down — a respawned worker starts clean.
struct WorkerCtx {
    handle: Box<dyn Backend>,
    /// Every distinct job matrix seen since the last eviction: the job's
    /// `Arc` and the worker's `Rc` copy of it. Identity is `Arc::ptr_eq`;
    /// holding the `Arc` is what makes that sound — the allocation cannot
    /// be freed and its address handed to a different matrix while a plan
    /// below still refers to this entry.
    mats: Vec<(Arc<CsrMatrix>, Rc<CsrMatrix>)>,
    /// (index into `mats`, solver-config JSON) → prepared plan. Many jobs
    /// sharing one structure and solver coalesce onto one prepare.
    plans: HashMap<(usize, String), Box<dyn PreparedPlan>>,
}

/// Cache growth bound: past this many distinct matrices or (matrix,
/// solver) pairs the worker's caches reset (simple epoch eviction —
/// correctness does not depend on cache contents).
const PLAN_CACHE_CAP: usize = 32;

fn spawn_worker(shared: Arc<Shared>, worker_id: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("serve-worker-{worker_id}"))
        .spawn(move || worker_main(shared, worker_id))
        .expect("spawn serve worker")
}

fn worker_main(shared: Arc<Shared>, worker_id: usize) {
    let mut ctx =
        WorkerCtx { handle: shared.pool.lease(), mats: Vec::new(), plans: HashMap::new() };
    loop {
        // ---- pick ----------------------------------------------------
        let mut job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(job) = st.queues.pick() {
                    st.inflight += 1;
                    let depth = st.queues.len() as f64;
                    st.metrics.gauge_set("serve.queue_depth", depth);
                    break job;
                }
                if st.shutdown && st.inflight == 0 {
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };

        // ---- queued expiry -------------------------------------------
        if job.deadline_at.is_some_and(|at| Instant::now() >= at) {
            let outcome = JobOutcome::DeadlineExceeded {
                attempts: job.attempts,
                total_ms: job.enqueued.elapsed().as_millis() as u64,
            };
            record_terminal(&shared, &job, outcome);
            continue;
        }

        // ---- run, with the panic boundary ----------------------------
        let result = catch_unwind(AssertUnwindSafe(|| run_job(&shared, &mut job, &mut ctx)));
        match result {
            Ok(outcome) => record_terminal(&shared, &job, outcome),
            Err(payload) => {
                // Worker-crash containment: record the loss, requeue or
                // quarantine the job, respawn a replacement worker, and
                // let this thread (and its possibly-poisoned caches) die.
                let msg = panic_message(&payload);
                let respawn_id = {
                    let mut st = lock(&shared.state);
                    st.worker_losses.push((worker_id, job.id));
                    st.metrics.counter_add("serve.worker_losses", 1);
                    let id = st.next_worker_id;
                    st.next_worker_id += 1;
                    id
                };
                if job.attempts >= shared.opts.max_attempts {
                    let outcome = JobOutcome::Quarantined {
                        attempts: job.attempts,
                        last_error: format!("panic: {msg}"),
                    };
                    record_terminal(&shared, &job, outcome);
                } else {
                    // `retries` is settled from the job's final attempt
                    // count at terminal time — only the requeue event is
                    // counted here.
                    let mut st = lock(&shared.state);
                    st.inflight -= 1;
                    st.metrics.counter_add("serve.requeues", 1);
                    st.queues.requeue(job);
                    drop(st);
                    shared.work.notify_one();
                }
                let handle = spawn_worker(Arc::clone(&shared), respawn_id);
                shared.handles.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                return;
            }
        }
    }
}

/// Record a terminal outcome: counters, per-tenant accounting, latency
/// observation, and both condvars (a finished job frees a worker *and*
/// may satisfy a drain).
fn record_terminal(shared: &Shared, job: &QueuedJob, outcome: JobOutcome) {
    let total_ms = job.enqueued.elapsed().as_millis() as f64;
    let tenant_name = job.spec.tenant.clone();
    let mut st = lock(&shared.state);
    match &outcome {
        JobOutcome::Done(r) => {
            st.tenants.entry(tenant_name).or_default().done += 1;
            st.retries += (r.attempts.saturating_sub(1)) as u64;
            if r.sdc_escape {
                st.sdc_escapes += 1;
                st.metrics.counter_add("serve.sdc_escapes", 1);
            }
            st.metrics.counter_add("serve.done", 1);
            st.metrics.observe("serve.queue_ms", &LATENCY_BOUNDS_MS, r.queue_ms as f64);
            st.metrics.observe("serve.solve_ms", &LATENCY_BOUNDS_MS, r.solve_ms as f64);
            st.metrics.observe("serve.total_ms", &LATENCY_BOUNDS_MS, total_ms);
            st.latencies_ms.push(total_ms);
        }
        JobOutcome::Quarantined { attempts, .. } => {
            st.tenants.entry(tenant_name).or_default().quarantined += 1;
            st.retries += (attempts.saturating_sub(1)) as u64;
            st.metrics.counter_add("serve.quarantined", 1);
        }
        JobOutcome::DeadlineExceeded { .. } => {
            st.tenants.entry(tenant_name).or_default().deadline_exceeded += 1;
            st.metrics.counter_add("serve.deadline_exceeded", 1);
        }
    }
    st.results.insert(job.id, outcome);
    st.inflight -= 1;
    drop(st);
    shared.done.notify_all();
    shared.work.notify_all();
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ----------------------------------------------------------------------
// Job execution
// ----------------------------------------------------------------------

/// Run one job to a terminal outcome: the attempt/retry loop with
/// chaos-panic injection, deadline checks, seeded backoff, quarantine,
/// and the independent SDC judge. Panics escape to the worker boundary
/// with `job.attempts` already counting the panicked attempt.
fn run_job(shared: &Shared, job: &mut QueuedJob, ctx: &mut WorkerCtx) -> JobOutcome {
    let opts = &shared.opts;
    let job_seed = splitmix64(opts.seed ^ job.id);
    let backoff = opts.backoff.clone().with_seed(job_seed);
    let queue_ms = job.enqueued.elapsed().as_millis() as u64;
    let work_start = Instant::now();

    loop {
        if job.deadline_at.is_some_and(|at| Instant::now() >= at) {
            return JobOutcome::DeadlineExceeded {
                attempts: job.attempts,
                total_ms: job.enqueued.elapsed().as_millis() as u64,
            };
        }
        job.attempts += 1;
        if job.attempts <= job.spec.chaos.panic_attempts {
            panic!("chaos: injected worker panic on attempt {} of job {}", job.attempts, job.id);
        }

        match attempt(shared, job, ctx, job_seed) {
            Ok(mut result) => {
                result.attempts = job.attempts;
                result.queue_ms = queue_ms;
                result.solve_ms = work_start.elapsed().as_millis() as u64;
                return JobOutcome::Done(Box::new(result));
            }
            Err(err) => {
                if err.terminal_deadline {
                    return JobOutcome::DeadlineExceeded {
                        attempts: job.attempts,
                        total_ms: job.enqueued.elapsed().as_millis() as u64,
                    };
                }
                if job.attempts >= opts.max_attempts {
                    return JobOutcome::Quarantined {
                        attempts: job.attempts,
                        last_error: err.message,
                    };
                }
                // Seeded backoff between attempts; sleeping past the
                // deadline is itself a deadline, not a blind sleep.
                let delay = Duration::from_millis(backoff.delay_ms(job.attempts - 1));
                if !delay.is_zero() {
                    if job.deadline_at.is_some_and(|at| Instant::now() + delay >= at) {
                        return JobOutcome::DeadlineExceeded {
                            attempts: job.attempts,
                            total_ms: job.enqueued.elapsed().as_millis() as u64,
                        };
                    }
                    std::thread::sleep(delay);
                }
            }
        }
    }
}

/// One attempt's failure: a message plus whether it is a terminal
/// deadline (never retried).
struct AttemptError {
    message: String,
    terminal_deadline: bool,
}

/// Execute one solve attempt. Jobs carrying faults or a deadline run
/// through `runner::solve` directly (fault plans and mid-run aborts are
/// per-job state a shared prepared plan cannot hold); plain jobs
/// coalesce onto the worker's prepared-plan cache.
fn attempt(
    shared: &Shared,
    job: &QueuedJob,
    ctx: &mut WorkerCtx,
    job_seed: u64,
) -> Result<JobResult, AttemptError> {
    let spec = &job.spec;
    let storm_faults = match (&spec.faults, &shared.opts.storm) {
        (Some(f), _) => Some(f.clone()),
        (None, Some(storm)) => Some(storm.plan_for(job_seed).map_err(|e| AttemptError {
            message: format!("storm spec failed to derive a plan: {e}"),
            terminal_deadline: false,
        })?),
        (None, None) => None,
    };

    if ctx.plans.len() >= PLAN_CACHE_CAP || ctx.mats.len() >= PLAN_CACHE_CAP {
        ctx.plans.clear();
        ctx.mats.clear();
    }
    let (mat_id, rc) = worker_matrix(ctx, spec);
    let (x, residual, iterations, report) = if storm_faults.is_some() || job.deadline_at.is_some() {
        let mut run_opts = shared.opts.base.clone();
        run_opts.backend = Some(shared.opts.backend);
        run_opts.record_history = false;
        run_opts.faults = storm_faults;
        // The runner measures its deadline from solve() entry: pass the
        // *remaining* budget, so queue time already spent counts.
        run_opts.deadline = job.deadline_at.map(|at| at.saturating_duration_since(Instant::now()));
        match runner::solve(rc, &spec.b, &spec.config, &run_opts) {
            Ok(res) => (res.x, res.residual, res.iterations, res.report),
            Err(e) => {
                return Err(AttemptError {
                    terminal_deadline: is_deadline(&e),
                    message: e.to_string(),
                })
            }
        }
    } else {
        // Plan-coalescing path: one prepare per (worker, matrix, solver).
        let key = (mat_id, spec.config.to_value().to_string());
        let hit = ctx.plans.contains_key(&key);
        {
            let mut st = lock(&shared.state);
            st.metrics.counter_add(if hit { "serve.plan_hits" } else { "serve.plan_misses" }, 1);
        }
        if !hit {
            let plan = SolvePlan { a: rc, solver: spec.config.to_value(), record_history: false };
            let prepared = ctx
                .handle
                .prepare(&plan)
                .map_err(|e| AttemptError { message: e.to_string(), terminal_deadline: false })?;
            ctx.plans.insert(key.clone(), prepared);
        }
        let prepared = ctx.plans.get_mut(&key).expect("plan just inserted");
        let run = prepared.execute(&spec.b, None);
        // A cached plan keeps no device between jobs: up to
        // `PLAN_CACHE_CAP` held devices per worker cost more memory than
        // the compile they save (DESIGN.md §16).
        prepared.release();
        match run {
            Ok(run) => (run.x, run.residual, run.iterations, run.report),
            Err(e) => {
                // A failed plan may hold poisoned state: drop it so the
                // retry re-prepares from scratch.
                ctx.plans.remove(&key);
                return Err(AttemptError { message: e.to_string(), terminal_deadline: false });
            }
        }
    };

    // Independent SDC judge: recompute ‖b−Ax‖/‖b‖ host-side in f64 and
    // hold the result to its own *claim*. Two ways a wrong answer can
    // sneak past the runner into a `Done`:
    //
    // * the run claims convergence (claimed residual inside the runner's
    //   acceptance band) but the recomputed residual is outside it — the
    //   runner's own judge was bypassed or fed a corrupted residual;
    // * the run reports an honest residual (e.g. an `Accept(MaxIters)`
    //   under the default non-retrying policy — a tolerance miss the
    //   runner truthfully surfaces) but the returned `x` does not
    //   reproduce it — readback corruption or a cross-contaminated
    //   cached plan serving another job's solution.
    //
    // A disagreement in either direction is an escape — reported, never
    // swallowed.
    let true_res = true_residual(&spec.a, &x, &spec.b);
    let sdc_escape = match target_tolerance(&spec.config) {
        Some(tol) if residual <= tol * TOLERANCE_SAFETY => {
            !within(true_res, tol * TOLERANCE_SAFETY)
        }
        _ => !within(true_res, residual * RESIDUAL_AGREEMENT + RESIDUAL_SLACK),
    };

    Ok(JobResult {
        x_digest: x_digest(&x),
        x,
        residual,
        iterations,
        attempts: 0, // filled by run_job
        queue_ms: 0, // filled by run_job
        solve_ms: 0, // filled by run_job
        sdc_escape,
        report,
    })
}

/// The worker's cache slot and `Rc` copy of a job's matrix (one deep copy
/// per distinct matrix per worker, then shared by every job and plan
/// using it).
fn worker_matrix(ctx: &mut WorkerCtx, spec: &JobSpec) -> (usize, Rc<CsrMatrix>) {
    let id = ctx.mats.iter().position(|(job, _)| Arc::ptr_eq(job, &spec.a)).unwrap_or_else(|| {
        ctx.mats.push((Arc::clone(&spec.a), Rc::new((*spec.a).clone())));
        ctx.mats.len() - 1
    });
    (id, Rc::clone(&ctx.mats[id].1))
}

/// How far the independent recompute may drift from the run's claimed
/// residual before the claim is judged corrupt. The runner recomputes
/// its residual host-side in f64 over the same `(A, x, b)`, so healthy
/// runs agree to rounding; a factor of 8 plus an absolute floor absorbs
/// summation-order noise without masking a genuinely wrong `x`.
const RESIDUAL_AGREEMENT: f64 = 8.0;
const RESIDUAL_SLACK: f64 = 1e-12;

/// Whether a recomputed residual is within `bound`: never for a NaN, so a
/// NaN residual is judged an escape.
fn within(residual: f64, bound: f64) -> bool {
    residual <= bound
}

/// ‖b − A x‖₂ / ‖b‖₂ in plain f64 on the host.
fn true_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.spmv_alloc(x);
    let mut rr = 0.0;
    let mut bb = 0.0;
    for i in 0..b.len() {
        let r = b[i] - ax[i];
        rr += r * r;
        bb += b[i] * b[i];
    }
    if bb == 0.0 {
        rr.sqrt()
    } else {
        (rr / bb).sqrt()
    }
}

// ----------------------------------------------------------------------
// Stats
// ----------------------------------------------------------------------

/// Per-tenant terminal accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantCounts {
    pub submitted: u64,
    pub done: u64,
    pub rejected: u64,
    pub quarantined: u64,
    pub deadline_exceeded: u64,
}

/// Final service statistics, returned by [`ServeEngine::finish`].
#[derive(Clone, Debug)]
pub struct ServeStats {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub done: u64,
    pub quarantined: u64,
    pub deadline_exceeded: u64,
    /// Attempts beyond the first, across all jobs (includes attempts
    /// lost to worker panics).
    pub retries: u64,
    /// Done jobs whose independent residual check failed — must be 0
    /// for the chaos gate to pass.
    pub sdc_escapes: u64,
    /// Panics caught at a worker boundary (each respawned a worker).
    pub worker_losses: u64,
    pub wall_seconds: f64,
    /// Sustained throughput: Done jobs per wall-clock second.
    pub solves_per_sec: f64,
    /// Exact admission→done latency percentiles over completed jobs, ms.
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub tenants: BTreeMap<String, TenantCounts>,
    pub metrics: Metrics,
}

impl ServeStats {
    /// The no-lost-jobs ledger: every submission is accounted for in
    /// exactly one terminal class.
    pub fn accounting_ok(&self) -> bool {
        self.submitted == self.accepted + self.rejected
            && self.accepted == self.done + self.quarantined + self.deadline_exceeded
    }

    pub fn to_value(&self) -> Json {
        Json::obj([
            ("submitted", Json::from(self.submitted)),
            ("accepted", Json::from(self.accepted)),
            ("rejected", Json::from(self.rejected)),
            ("done", Json::from(self.done)),
            ("quarantined", Json::from(self.quarantined)),
            ("deadline_exceeded", Json::from(self.deadline_exceeded)),
            ("retries", Json::from(self.retries)),
            ("sdc_escapes", Json::from(self.sdc_escapes)),
            ("worker_losses", Json::from(self.worker_losses)),
            ("accounting_ok", Json::from(self.accounting_ok())),
            ("wall_seconds", Json::from(self.wall_seconds)),
            ("solves_per_sec", Json::from(self.solves_per_sec)),
            ("p50_ms", Json::from(self.p50_ms)),
            ("p99_ms", Json::from(self.p99_ms)),
            (
                "tenants",
                Json::Obj(
                    self.tenants
                        .iter()
                        .map(|(name, t)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("submitted", Json::from(t.submitted)),
                                    ("done", Json::from(t.done)),
                                    ("rejected", Json::from(t.rejected)),
                                    ("quarantined", Json::from(t.quarantined)),
                                    ("deadline_exceeded", Json::from(t.deadline_exceeded)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("metrics", self.metrics.to_value()),
        ])
    }
}
