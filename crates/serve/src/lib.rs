//! # graphene-serve — the multi-tenant batch solve service
//!
//! ROADMAP item 3 ("solver-as-a-service"): the layer that turns
//! single-shot `runner::solve` calls into a *fleet* — a job queue that
//! accepts solve requests (matrix + solver config + tenant + deadline),
//! coalesces same-structure jobs onto shared prepared plans, and
//! schedules them across a pool of worker threads, with **robustness as
//! the headline contract**:
//!
//! * **Bounded per-tenant queues, deficit-round-robin fairness** —
//!   admission is reject-not-block ([`ServeError::QueueFull`] at the
//!   boundary, never a blocked caller or a silent drop), and one
//!   flooding tenant cannot starve another (see [`queue`]).
//! * **Per-job wall-clock deadlines** — enforced *mid-run* through
//!   `SolveOptions::deadline` and the resilience Sentinel's
//!   host-callback abort; an expired job terminates as
//!   [`JobOutcome::DeadlineExceeded`], whether it expired queued,
//!   mid-solve, or during a retry backoff sleep.
//! * **Seeded retry backoff + poison-job quarantine** — failed attempts
//!   retry under the jittered exponential [`Backoff`] schedule
//!   (per-job splitmix64 seed: replays are bit-identical), and a job
//!   that keeps failing is quarantined after
//!   [`ServeOptions::max_attempts`] so one pathological matrix cannot
//!   wedge a worker or starve its tenant.
//! * **Worker-crash containment** — a panicking job is caught at the
//!   worker boundary, counted as a [`ServeError::WorkerLost`] event,
//!   its worker *respawned*, and the in-flight job requeued (or
//!   quarantined when its attempt budget is spent).
//! * **Chaos-storm survival** — a [`StormSpec`] (or `GRAPHENE_FAULTS`
//!   reaching the runner underneath) injects deterministic per-job
//!   fault plans derived from `splitmix64(seed ^ job_id)`; every
//!   completed job is re-judged by an *independent* host-side f64
//!   residual check, so an SDC escape is counted, never silent.
//!
//! **Accounting invariant** (checked by `ServeStats::accounting_ok` and
//! hard-gated in CI): every submitted job terminates in exactly one of
//! *done / rejected / quarantined / deadline-exceeded* — no lost jobs,
//! under any interleaving of retries, worker crashes and shutdown.
//!
//! Threading contract: `Backend` handles hold `Rc` state and are not
//! `Send`, so each worker thread leases its own handle from a
//! [`backend::pool::BackendPool`] (validated against the fleet's
//! capability requirements at engine start) and keeps thread-local
//! caches of `Rc` matrices and prepared plans keyed by matrix identity
//! — the "coalesce same-fingerprint jobs onto shared tuned plans"
//! story, amortising one deep clone + prepare per (worker, structure).

use std::fmt;
use std::time::Duration;

pub mod engine;
pub mod job;
pub mod queue;

pub use engine::{ServeEngine, ServeStats, TenantCounts};
pub use job::{Chaos, JobOutcome, JobResult, JobSpec};
pub use queue::{QueuedJob, TenantQueues};

use graphene_core::resilience::Backoff;
use graphene_core::runner::SolveOptions;
use ipu_sim::fault::FaultPlan;

/// Job identifier: assigned densely in submission order, starting at 1.
pub type JobId = u64;

// ----------------------------------------------------------------------
// Errors
// ----------------------------------------------------------------------

/// Typed serving failure. Load shedding and capability mismatches are
/// structured refusals at the admission boundary — never a panic, a
/// block, or a silent drop.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The tenant's bounded queue is at capacity: the job is *rejected*
    /// at admission (reject-not-block). Resubmit later or shed load.
    QueueFull { tenant: String, capacity: usize },
    /// The job or engine configuration cannot be served: dimension
    /// mismatch, a capability the pooled backend lacks (e.g. fault
    /// injection on `cpu`), a malformed storm spec, or submission after
    /// shutdown.
    Rejected { reason: String },
    /// A job panicked inside a worker; the worker was torn down and
    /// respawned. Reported as an *event* in [`ServeStats`] — the job
    /// itself is requeued or quarantined, never lost.
    WorkerLost { worker: usize },
    /// A drain/wait did not complete within its timeout (the CI
    /// deadlock gate turns this into a hard failure).
    Timeout { waited_ms: u64 },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { tenant, capacity } => {
                write!(f, "queue full for tenant `{tenant}` (capacity {capacity}): job rejected")
            }
            ServeError::Rejected { reason } => write!(f, "job rejected: {reason}"),
            ServeError::WorkerLost { worker } => {
                write!(f, "worker {worker} lost to a panicking job (respawned)")
            }
            ServeError::Timeout { waited_ms } => {
                write!(f, "serve operation timed out after {waited_ms} ms")
            }
        }
    }
}

impl std::error::Error for ServeError {}

// ----------------------------------------------------------------------
// Chaos storms
// ----------------------------------------------------------------------

/// A fleet-wide chaos-storm template: every job without an explicit
/// per-job fault plan gets a seeded plan derived from
/// `splitmix64(engine seed ^ job id)` — a pure function of the seed and
/// the submission order, so two runs with the same seed inject the
/// exact same faults into the exact same jobs regardless of worker
/// interleaving.
#[derive(Clone, Debug, PartialEq)]
pub struct StormSpec {
    /// Faults per job.
    pub n: u32,
    /// `+`-separated fault classes (the `GRAPHENE_FAULTS` grammar):
    /// `flip`, `xflip`, `xdrop`, `stall`.
    pub classes: String,
    /// Superstep draw range `[1, smax)`.
    pub smax: u64,
    /// Word-index draw range `[0, wmax)`.
    pub wmax: u32,
}

impl StormSpec {
    /// The default storm: one fault per job drawn from all classes,
    /// early enough in the run (`smax`) to land inside small solves.
    pub fn storm() -> StormSpec {
        StormSpec { n: 1, classes: "flip+xflip+xdrop+stall".into(), smax: 256, wmax: 16 }
    }

    /// The seeded per-job fault plan this template derives.
    pub fn plan_for(&self, seed: u64) -> Result<FaultPlan, String> {
        FaultPlan::parse(&format!(
            "seed={seed};n={};classes={};smax={};wmax={}",
            self.n, self.classes, self.smax, self.wmax
        ))
    }
}

// ----------------------------------------------------------------------
// Options
// ----------------------------------------------------------------------

/// Engine configuration. `Default` is a small two-worker fleet on the
/// default backend with inert backoff and no storm.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads (each owns a leased backend handle). Must be ≥ 1.
    pub workers: usize,
    /// Per-tenant bounded-queue capacity (fresh admissions; retries of
    /// already-admitted jobs are exempt — their liability was counted
    /// at admission). Must be ≥ 1.
    pub queue_capacity: usize,
    /// Deficit-round-robin quantum, in job-cost units (see
    /// [`queue::job_cost`]). Larger quanta favour throughput over
    /// interleaving; fairness holds for any value ≥ 1.
    pub quantum: u64,
    /// Attempts (including the first) before a failing job is
    /// quarantined. Must be ≥ 1.
    pub max_attempts: u32,
    /// Retry delay schedule between attempts of one job. The per-job
    /// jitter stream is re-seeded from `splitmix64(seed ^ job_id)`, so
    /// replays under a fixed engine seed sleep identical schedules.
    pub backoff: Backoff,
    /// Engine seed: storms and backoff jitter derive from it.
    pub seed: u64,
    /// Fleet-wide chaos storm (None: no injected faults). Requires the
    /// backend's `fault_injection` capability — checked at engine
    /// start, refused typed.
    pub storm: Option<StormSpec>,
    /// The backend family every worker leases from.
    pub backend: backend::BackendSpec,
    /// Machine/partition options for the solves (its `backend`,
    /// `record_history`, `faults` and `deadline` fields are managed per
    /// job by the engine).
    pub base: SolveOptions,
    /// Deadline applied to jobs that don't carry their own.
    pub default_deadline: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 2,
            queue_capacity: 64,
            quantum: 4,
            max_attempts: 3,
            backoff: Backoff::default(),
            seed: 0,
            storm: None,
            backend: backend::BackendSpec::IpuSim(backend::IpuVariant::Default),
            base: SolveOptions::default(),
            default_deadline: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_spec_derives_parseable_seeded_plans() {
        let storm = StormSpec::storm();
        let p1 = storm.plan_for(1).expect("default storm must parse");
        let p2 = storm.plan_for(1).unwrap();
        let p3 = storm.plan_for(2).unwrap();
        // Same seed: identical resolved faults; different seed: a
        // different draw (pure function of the seed).
        assert_eq!(p1.resolve(4), p2.resolve(4));
        assert_ne!(p1.resolve(4), p3.resolve(4));
        assert!(StormSpec { classes: "warp".into(), ..StormSpec::storm() }.plan_for(1).is_err());
    }

    #[test]
    fn serve_errors_display_their_contract() {
        let e = ServeError::QueueFull { tenant: "alice".into(), capacity: 4 };
        assert!(e.to_string().contains("alice"));
        assert!(e.to_string().contains("rejected"));
        assert!(ServeError::WorkerLost { worker: 3 }.to_string().contains("respawned"));
    }
}
