//! Job specifications and terminal outcomes.
//!
//! The accounting contract lives in the types: a job that enters the
//! engine terminates in exactly one [`JobOutcome`] (or was rejected at
//! admission and never entered). Outcomes carry a [`digest`]
//! (`JobOutcome::digest`) so the chaos bench can compare two same-seed
//! runs bit-for-bit without storing full solution vectors.

use std::sync::Arc;
use std::time::Duration;

use graphene_core::config::SolverConfig;
use graphene_core::resilience::SolveError;
use ipu_sim::fault::FaultPlan;
use json::Json;
use profile::SolveReport;
use sparse::fingerprint::{fold64, fold_bytes};
use sparse::formats::CsrMatrix;

/// Test-only chaos directives a job can carry: the hooks the chaos-storm
/// suite uses to exercise worker-crash containment deterministically.
/// Inert by default.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Chaos {
    /// Panic inside the worker for the first N attempts of this job
    /// (0: never). `N < max_attempts` exercises crash-then-recover;
    /// `N ≥ max_attempts` produces a poison job that quarantines.
    pub panic_attempts: u32,
}

/// One solve request, as submitted by a tenant.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Tenant identity — the fairness and queue-capacity domain.
    pub tenant: String,
    /// System matrix. `Arc` so many queued jobs share one structure;
    /// workers coalesce jobs with the same matrix identity onto one
    /// prepared plan.
    pub a: Arc<CsrMatrix>,
    /// Right-hand side (must match `a.nrows`).
    pub b: Vec<f64>,
    /// Solver hierarchy to run.
    pub config: SolverConfig,
    /// Wall-clock budget from *admission* (queue wait counts). `None`
    /// falls back to `ServeOptions::default_deadline`.
    pub deadline: Option<Duration>,
    /// Explicit per-job fault plan (overrides the engine storm).
    pub faults: Option<FaultPlan>,
    /// Deterministic failure-injection directives (tests only).
    pub chaos: Chaos,
}

impl JobSpec {
    /// A plain job: no deadline, no faults, no chaos.
    pub fn new(tenant: &str, a: Arc<CsrMatrix>, b: Vec<f64>, config: SolverConfig) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            a,
            b,
            config,
            deadline: None,
            faults: None,
            chaos: Chaos::default(),
        }
    }
}

/// What a completed (Done) job produced.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Solution vector.
    pub x: Vec<f64>,
    /// FNV-1a digest of the solution bits — the determinism witness.
    pub x_digest: u64,
    /// The solver's reported true relative residual.
    pub residual: f64,
    /// Inner iterations of the final (successful) attempt.
    pub iterations: usize,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Time spent queued before the first attempt started, ms.
    pub queue_ms: u64,
    /// Time spent inside solve attempts (incl. retries/backoff), ms.
    pub solve_ms: u64,
    /// The engine's *independent* host-side f64 residual check
    /// disagreed with the solver's verdict: the solution claims
    /// convergence but ‖b−Ax‖/‖b‖ is outside the acceptance band. This
    /// is a silent-data-corruption escape — surfaced, never swallowed.
    pub sdc_escape: bool,
    /// Full per-solve report (schema v3) from the final attempt.
    pub report: SolveReport,
}

/// The exactly-one terminal state of an admitted job.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Solved (possibly after retries). Check `sdc_escape` before
    /// trusting the bits under fault injection. Boxed: a result carries a
    /// whole report, the other outcomes a few words.
    Done(Box<JobResult>),
    /// Failed `attempts` times and was quarantined so it cannot wedge a
    /// worker or starve its tenant.
    Quarantined { attempts: u32, last_error: String },
    /// Its wall-clock budget expired — queued, mid-solve, or between
    /// retries.
    DeadlineExceeded { attempts: u32, total_ms: u64 },
}

impl JobOutcome {
    /// Short class tag (`done` / `quarantined` / `deadline`).
    pub fn class(&self) -> &'static str {
        match self {
            JobOutcome::Done(_) => "done",
            JobOutcome::Quarantined { .. } => "quarantined",
            JobOutcome::DeadlineExceeded { .. } => "deadline",
        }
    }

    /// Determinism digest: class tag folded with the solution bits (0
    /// for non-Done outcomes). Two same-seed runs must produce equal
    /// digests job-for-job; timing fields are deliberately excluded.
    pub fn digest(&self) -> u64 {
        let class = fold_bytes(0xcbf29ce484222325, self.class().as_bytes());
        match self {
            JobOutcome::Done(r) => fold64(class, r.x_digest),
            JobOutcome::Quarantined { attempts, .. } => fold64(class, *attempts as u64),
            JobOutcome::DeadlineExceeded { .. } => class,
        }
    }

    /// Compact JSON for per-job artifacts (timing included — use
    /// [`digest`](Self::digest) for determinism comparisons, not this).
    pub fn to_value(&self) -> Json {
        match self {
            JobOutcome::Done(r) => Json::obj([
                ("class", Json::from("done")),
                ("x_digest", Json::from(format!("{:016x}", r.x_digest))),
                ("residual", Json::from(r.residual)),
                ("iterations", Json::from(r.iterations as u64)),
                ("attempts", Json::from(r.attempts as u64)),
                ("queue_ms", Json::from(r.queue_ms)),
                ("solve_ms", Json::from(r.solve_ms)),
                ("sdc_escape", Json::from(r.sdc_escape)),
            ]),
            JobOutcome::Quarantined { attempts, last_error } => Json::obj([
                ("class", Json::from("quarantined")),
                ("attempts", Json::from(*attempts as u64)),
                ("last_error", Json::from(last_error.as_str())),
            ]),
            JobOutcome::DeadlineExceeded { attempts, total_ms } => Json::obj([
                ("class", Json::from("deadline")),
                ("attempts", Json::from(*attempts as u64)),
                ("total_ms", Json::from(*total_ms)),
            ]),
        }
    }
}

/// Digest of a solution vector's bit pattern (FNV-1a over the f64 LE
/// bytes): equal iff the solutions are bit-identical.
pub fn x_digest(x: &[f64]) -> u64 {
    let mut d = 0xcbf29ce484222325;
    for v in x {
        d = fold_bytes(d, &v.to_le_bytes());
    }
    d
}

/// Is this solve error a terminal deadline (no retry) as opposed to a
/// retryable failure?
pub fn is_deadline(err: &SolveError) -> bool {
    matches!(err, SolveError::DeadlineExceeded { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_separate_classes_and_bits() {
        let done = |bits: &[f64]| {
            JobOutcome::Done(Box::new(JobResult {
                x: bits.to_vec(),
                x_digest: x_digest(bits),
                residual: 1e-9,
                iterations: 3,
                attempts: 1,
                queue_ms: 0,
                solve_ms: 1,
                sdc_escape: false,
                report: SolveReport::new("test"),
            }))
        };
        assert_eq!(done(&[1.0, 2.0]).digest(), done(&[1.0, 2.0]).digest());
        assert_ne!(done(&[1.0, 2.0]).digest(), done(&[1.0, 2.5]).digest());
        let q = JobOutcome::Quarantined { attempts: 3, last_error: "x".into() };
        let d = JobOutcome::DeadlineExceeded { attempts: 1, total_ms: 5 };
        assert_ne!(q.digest(), d.digest());
        assert_ne!(q.digest(), done(&[1.0, 2.0]).digest());
        // -0.0 and 0.0 are different bit patterns: the digest sees bits,
        // not values.
        assert_ne!(x_digest(&[0.0]), x_digest(&[-0.0]));
    }

    #[test]
    fn outcome_json_carries_the_class() {
        let q = JobOutcome::Quarantined { attempts: 3, last_error: "diverged".into() };
        let v = q.to_value();
        assert_eq!(v.get("class").and_then(Json::as_str), Some("quarantined"));
        assert_eq!(v.get("attempts").and_then(Json::as_u64), Some(3));
    }
}
