//! Integration tests for the serve engine: the robustness contract
//! end-to-end — mixed workloads complete with clean accounting,
//! deadlines terminate jobs in every phase, panicking jobs are contained
//! and their workers respawned, poison jobs quarantine, and admission
//! sheds load instead of blocking.

use std::sync::Arc;
use std::time::Duration;

use graphene_core::config::SolverConfig;
use graphene_core::resilience::Backoff;
use serve::{Chaos, JobOutcome, JobSpec, ServeEngine, ServeError, ServeOptions, StormSpec};
use sparse::gen::{poisson_2d_5pt, tridiagonal};

const DRAIN: Duration = Duration::from_secs(120);

fn cg(max_iters: u32) -> SolverConfig {
    SolverConfig::Cg { max_iters, rel_tol: 1e-8, precond: None }
}

fn spd_spec(tenant: &str, n: usize) -> JobSpec {
    let a = Arc::new(tridiagonal(n));
    let b = vec![1.0; n];
    JobSpec::new(tenant, a, b, cg(200))
}

fn opts() -> ServeOptions {
    ServeOptions { workers: 2, ..ServeOptions::default() }
}

#[test]
fn mixed_workload_completes_with_clean_accounting() {
    let engine = ServeEngine::start(opts()).unwrap();
    let a_small = Arc::new(tridiagonal(24));
    let a_grid = Arc::new(poisson_2d_5pt(6, 6, 1.0));
    let mut ids = Vec::new();
    for i in 0..6 {
        let (tenant, a) = if i % 2 == 0 { ("alice", &a_small) } else { ("bob", &a_grid) };
        let n = a.nrows;
        ids.push(
            engine
                .submit(JobSpec::new(tenant, Arc::clone(a), vec![1.0; n], cg(300)))
                .expect("admission"),
        );
    }
    engine.drain(DRAIN).unwrap();
    for id in &ids {
        match engine.outcome(*id) {
            Some(JobOutcome::Done(r)) => {
                assert!(!r.sdc_escape, "healthy solve flagged as SDC escape");
                assert_eq!(r.attempts, 1);
                assert!(r.residual.is_finite());
            }
            other => panic!("job {id}: expected Done, got {other:?}"),
        }
    }
    let stats = engine.finish();
    assert!(stats.accounting_ok(), "{stats:?}");
    assert_eq!(stats.done, 6);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.sdc_escapes, 0);
    assert_eq!(stats.tenants["alice"].done, 3);
    assert_eq!(stats.tenants["bob"].done, 3);
    // Same matrix + solver repeatedly: the plan cache must have coalesced
    // (strictly fewer prepares than solves across the fleet).
    let hits = stats.metrics.counter("serve.plan_hits");
    let misses = stats.metrics.counter("serve.plan_misses");
    assert_eq!(hits + misses, 6);
    assert!(hits >= 1, "no plan coalescing: hits={hits} misses={misses}");
}

#[test]
fn zero_deadline_expires_in_queue() {
    let engine = ServeEngine::start(opts()).unwrap();
    let mut spec = spd_spec("t", 16);
    spec.deadline = Some(Duration::ZERO);
    let id = engine.submit(spec).unwrap();
    engine.drain(DRAIN).unwrap();
    match engine.outcome(id) {
        Some(JobOutcome::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = engine.finish();
    assert!(stats.accounting_ok());
    assert_eq!(stats.deadline_exceeded, 1);
}

#[test]
fn short_deadline_aborts_a_large_solve_mid_run() {
    // A 48x48 Poisson solve takes well over 2ms of host time in the
    // simulator; the Sentinel abort must cut it off and the job must
    // terminate as DeadlineExceeded, not hang.
    let engine = ServeEngine::start(opts()).unwrap();
    let a = Arc::new(poisson_2d_5pt(48, 48, 1.0));
    let n = a.nrows;
    let mut spec = JobSpec::new("t", a, vec![1.0; n], cg(4000));
    spec.deadline = Some(Duration::from_millis(2));
    let id = engine.submit(spec).unwrap();
    engine.drain(DRAIN).unwrap();
    match engine.outcome(id) {
        Some(JobOutcome::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(engine.finish().accounting_ok());
}

#[test]
fn panicking_job_is_contained_and_worker_respawned() {
    let engine = ServeEngine::start(opts()).unwrap();
    let mut chaotic = spd_spec("t", 16);
    chaotic.chaos = Chaos { panic_attempts: 1 };
    let id = engine.submit(chaotic).unwrap();
    // A healthy job after the crash: the respawned worker must serve it.
    let healthy = engine.submit(spd_spec("t", 16)).unwrap();
    engine.drain(DRAIN).unwrap();
    match engine.outcome(id) {
        Some(JobOutcome::Done(r)) => assert_eq!(r.attempts, 2, "panic attempt must count"),
        other => panic!("expected Done after one panic, got {other:?}"),
    }
    assert!(matches!(engine.outcome(healthy), Some(JobOutcome::Done(_))));
    let stats = engine.finish();
    assert!(stats.accounting_ok());
    assert_eq!(stats.worker_losses, 1);
    assert_eq!(stats.retries, 1);
}

#[test]
fn poison_job_quarantines_after_max_attempts() {
    let mut o = opts();
    o.max_attempts = 3;
    let engine = ServeEngine::start(o).unwrap();
    let mut poison = spd_spec("t", 16);
    poison.chaos = Chaos { panic_attempts: u32::MAX };
    let id = engine.submit(poison).unwrap();
    engine.drain(DRAIN).unwrap();
    match engine.outcome(id) {
        Some(JobOutcome::Quarantined { attempts, last_error }) => {
            assert_eq!(attempts, 3);
            assert!(last_error.contains("panic"), "{last_error}");
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    let stats = engine.finish();
    assert!(stats.accounting_ok());
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.worker_losses, 3, "every attempt cost a worker");
}

#[test]
fn admission_rejects_instead_of_blocking_when_full() {
    // One worker wedged on a long solve; a burst beyond capacity must be
    // rejected typed, and every accepted job still terminates.
    let mut o = opts();
    o.workers = 1;
    o.queue_capacity = 4;
    let engine = ServeEngine::start(o).unwrap();
    let slow = Arc::new(poisson_2d_5pt(32, 32, 1.0));
    let n = slow.nrows;
    engine.submit(JobSpec::new("t", slow, vec![1.0; n], cg(2000))).unwrap();
    let mut accepted = 1u64;
    let mut rejected = 0u64;
    for _ in 0..12 {
        match engine.submit(spd_spec("t", 8)) {
            Ok(_) => accepted += 1,
            Err(ServeError::QueueFull { tenant, capacity }) => {
                assert_eq!(tenant, "t");
                assert_eq!(capacity, 4);
                rejected += 1;
            }
            Err(e) => panic!("unexpected rejection type: {e}"),
        }
    }
    assert!(rejected >= 8, "burst of 12 into capacity 4 must shed load (rejected {rejected})");
    engine.drain(DRAIN).unwrap();
    let stats = engine.finish();
    assert!(stats.accounting_ok());
    assert_eq!(stats.accepted, accepted);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.done, accepted);
}

#[test]
fn dimension_mismatch_and_shutdown_are_typed_rejections() {
    let engine = ServeEngine::start(opts()).unwrap();
    let mut bad = spd_spec("t", 8);
    bad.b.pop();
    assert!(matches!(engine.submit(bad), Err(ServeError::Rejected { .. })));
    let stats = engine.finish();
    assert_eq!(stats.submitted, 0, "pre-admission rejects never enter the ledger");
    assert!(stats.accounting_ok());
}

#[test]
fn same_seed_storm_runs_are_bit_identical() {
    // The chaos-determinism contract: two engines with the same seed and
    // storm, fed the same jobs, produce identical per-job outcome
    // digests — regardless of worker interleaving.
    let run = || {
        let mut o = opts();
        o.seed = 42;
        o.storm = Some(StormSpec::storm());
        o.backoff = Backoff { base_ms: 1, max_ms: 4, jitter: 0.5, ..Backoff::default() };
        let engine = ServeEngine::start(o).unwrap();
        let mut ids = Vec::new();
        for i in 0..4 {
            let tenant = if i % 2 == 0 { "alice" } else { "bob" };
            ids.push(engine.submit(spd_spec(tenant, 20)).unwrap());
        }
        engine.drain(DRAIN).unwrap();
        let digests: Vec<u64> =
            ids.iter().map(|id| engine.outcome(*id).unwrap().digest()).collect();
        let stats = engine.finish();
        assert!(stats.accounting_ok());
        assert_eq!(stats.sdc_escapes, 0, "SDC escaped the independent judge");
        digests
    };
    assert_eq!(run(), run(), "same-seed chaos runs diverged");
}

#[test]
fn storm_requires_fault_injection_capability() {
    let mut o = opts();
    o.backend = backend::BackendSpec::Cpu { parallel: false };
    o.storm = Some(StormSpec::storm());
    match ServeEngine::start(o) {
        Err(ServeError::Rejected { reason }) => {
            assert!(reason.contains("fault_injection"), "{reason}");
        }
        other => panic!("cpu backend must refuse a storm, got {:?}", other.is_ok()),
    }
    // Without the storm the cpu backend serves fine.
    let mut o = opts();
    o.backend = backend::BackendSpec::Cpu { parallel: false };
    let engine = ServeEngine::start(o).unwrap();
    let id = engine.submit(spd_spec("t", 16)).unwrap();
    engine.drain(DRAIN).unwrap();
    assert!(matches!(engine.outcome(id), Some(JobOutcome::Done(_))));
    assert!(engine.finish().accounting_ok());
}

/// The plan cache identifies a matrix by its `Arc` allocation. A job's
/// matrix freed after the job, and a different matrix allocated where it
/// was, must not be served the first one's prepared plan.
#[test]
fn a_freed_matrix_whose_address_is_reused_does_not_hit_its_plan() {
    let engine = ServeEngine::start(ServeOptions { workers: 1, ..ServeOptions::default() })
        .expect("engine starts");
    let n = 24;
    let run = |a: &Arc<sparse::formats::CsrMatrix>| {
        let id = engine.submit(JobSpec::new("t", Arc::clone(a), vec![1.0; n], cg(200))).unwrap();
        engine.drain(DRAIN).unwrap();
        match engine.outcome(id) {
            Some(JobOutcome::Done(r)) => r,
            other => panic!("expected Done, got {other:?}"),
        }
    };

    let first = Arc::new(tridiagonal(n));
    let first_x = run(&first).x;
    // The one worker takes its next job only after dropping the previous
    // one, so once this job is done the engine's queue no longer holds
    // `first`.
    run(&Arc::new(poisson_2d_5pt(6, 4, 1.0)));

    // Same shape, twice the values: half the solution.
    let mut scaled = tridiagonal(n);
    scaled.values.iter_mut().for_each(|v| *v *= 2.0);
    let address = Arc::as_ptr(&first) as usize;
    drop(first);
    // Allocate until the allocator hands the freed block out again (the
    // first try, with a thread-local free list), keeping the misses alive.
    let mut second = Arc::new(scaled.clone());
    let mut misses = Vec::new();
    while Arc::as_ptr(&second) as usize != address && misses.len() < 64 {
        misses.push(std::mem::replace(&mut second, Arc::new(scaled.clone())));
    }

    let r = run(&second);
    assert!(!r.sdc_escape, "the job was served another matrix's plan");
    for (x2, x1) in r.x.iter().zip(&first_x) {
        assert!((x2 - x1 / 2.0).abs() < 1e-4, "{x2} is not half of {x1}");
    }
    assert!(engine.finish().accounting_ok());
}
