//! Serving-layer benchmark and chaos gate.
//!
//! Two modes over the `graphene-serve` multi-tenant engine:
//!
//! * **Throughput (default)** — an open-loop mixed workload (several
//!   tenants, several matrix structures and solver stacks) submitted
//!   up-front and drained; reports sustained solves/sec and exact
//!   p50/p99 admission→done latency to `results/serve.json`.
//! * **Chaos (`--chaos`)** — the robustness gate: a seeded fault storm
//!   (on fault-capable backends), panic-chaos jobs, poison jobs and
//!   zero-deadline jobs, run **twice with the same seed**. Hard-fails
//!   (exit 1, diagnostic on stderr) on any SDC escape, any lost job
//!   (accounting violation), any quarantine-policy violation, or any
//!   divergence between the two same-seed runs.
//!
//! The backend comes from `GRAPHENE_BACKEND` (default `ipu-sim`); the
//! chaos storm is only armed when the backend supports fault injection,
//! so the same binary gates both the simulator and the CPU baseline.
//!
//! Flags: `--jobs <n>` (default 24), `--workers <n>` (default 2),
//! `--seed <n>` (default 42), `--chaos`, `--out <path>`.

use std::sync::Arc;
use std::time::Duration;

use backend::BackendSpec;
use graphene_bench::{header, Args};
use graphene_core::config::SolverConfig;
use graphene_core::env::EnvConfig;
use graphene_core::resilience::Backoff;
use json::Json;
use serve::{Chaos, JobSpec, ServeEngine, ServeOptions, ServeStats, StormSpec};
use sparse::formats::CsrMatrix;
use sparse::gen::{poisson_2d_5pt, tridiagonal};

/// Structured failure: diagnostic on stderr, nonzero exit — the typed
/// path the CI chaos gate watches (never a panic).
fn fail(msg: &str) -> ! {
    eprintln!("[serve] FAIL: {msg}");
    std::process::exit(1);
}

const TENANTS: [&str; 3] = ["alice", "bob", "carol"];

/// Solver mix. The CPU baseline implements cg/bi_cg_stab (± ilu0) only,
/// so the third stack differs by backend family; both mixes exercise a
/// preconditioned and two plain Krylov stacks.
fn solver_for(i: usize, ipu: bool) -> SolverConfig {
    match i % 3 {
        0 => SolverConfig::Cg { max_iters: 300, rel_tol: 1e-6, precond: None },
        1 => SolverConfig::BiCgStab { max_iters: 300, rel_tol: 1e-6, precond: None },
        _ if ipu => SolverConfig::Cg {
            max_iters: 300,
            rel_tol: 1e-6,
            precond: Some(Box::new(SolverConfig::Jacobi { sweeps: 2, omega: 2.0 / 3.0 })),
        },
        _ => SolverConfig::BiCgStab {
            max_iters: 300,
            rel_tol: 1e-6,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        },
    }
}

/// The deterministic job mix: job `i` gets tenant `i % 3`, one of two
/// shared matrices (coalescing food), and one of three solver stacks.
fn workload(jobs: usize, scale: f64, ipu: bool) -> Vec<JobSpec> {
    let n1 = ((24.0 * scale.sqrt()).round() as usize).max(8);
    let g = ((8.0 * scale.sqrt()).round() as usize).max(4);
    let mats: [Arc<CsrMatrix>; 2] =
        [Arc::new(tridiagonal(n1)), Arc::new(poisson_2d_5pt(g, g, 1.0))];
    (0..jobs)
        .map(|i| {
            let a = Arc::clone(&mats[i % 2]);
            let n = a.nrows;
            JobSpec::new(TENANTS[i % TENANTS.len()], a, vec![1.0; n], solver_for(i, ipu))
        })
        .collect()
}

fn base_options(args: &Args, spec: BackendSpec) -> ServeOptions {
    ServeOptions {
        workers: args.get("--workers", 2.0) as usize,
        queue_capacity: 4096, // open-loop: admission must not shed deterministically-compared jobs
        max_attempts: 3,
        seed: args.get("--seed", 42.0) as u64,
        backend: spec,
        ..ServeOptions::default()
    }
}

/// Run one engine over a prepared workload; returns per-job (class,
/// digest) pairs in submission order plus the final stats.
fn run(opts: ServeOptions, specs: &[JobSpec]) -> (Vec<(String, u64)>, ServeStats) {
    let engine = match ServeEngine::start(opts) {
        Ok(e) => e,
        Err(e) => fail(&format!("engine start: {e}")),
    };
    let mut ids = Vec::with_capacity(specs.len());
    for spec in specs {
        match engine.submit(spec.clone()) {
            Ok(id) => ids.push(id),
            Err(e) => fail(&format!("submission rejected unexpectedly: {e}")),
        }
    }
    if let Err(e) = engine.drain(Duration::from_secs(600)) {
        fail(&format!("drain did not complete: {e} (possible deadlock or lost job)"));
    }
    let outcomes: Vec<(String, u64)> = ids
        .iter()
        .map(|id| {
            let o = engine
                .outcome(*id)
                .unwrap_or_else(|| fail(&format!("job {id} has no terminal outcome: lost")));
            (o.class().to_string(), o.digest())
        })
        .collect();
    (outcomes, engine.finish())
}

fn check_accounting(stats: &ServeStats) {
    if !stats.accounting_ok() {
        fail(&format!(
            "accounting violated: submitted={} accepted={} rejected={} \
             done={} quarantined={} deadline_exceeded={}",
            stats.submitted,
            stats.accepted,
            stats.rejected,
            stats.done,
            stats.quarantined,
            stats.deadline_exceeded
        ));
    }
    if stats.sdc_escapes != 0 {
        fail(&format!("{} silent-data-corruption escapes", stats.sdc_escapes));
    }
}

fn main() {
    let args = Args::parse();
    let jobs = args.get("--jobs", 24.0) as usize;
    let scale = args.get("--scale", 1.0);
    let chaos = args.has("--chaos");
    let out = args.get_str("--out", "results/serve.json");

    let spec = match EnvConfig::backend() {
        Ok(s) => s.unwrap_or(BackendSpec::IpuSim),
        Err(e) => fail(&e.to_string()),
    };
    let fault_capable = spec.family() == "ipu-sim";
    header(&format!(
        "serve: {} mode, backend {}, {jobs} jobs, {} workers",
        if chaos { "chaos" } else { "throughput" },
        spec.name(),
        args.get("--workers", 2.0) as usize
    ));

    let mut specs = workload(jobs, scale, fault_capable);
    let mut opts = base_options(&args, spec);

    if chaos {
        // Arm the storm where the backend can honour it, plus the
        // orthogonal chaos classes: every 5th job panics once (crash
        // containment), every 11th is poison (quarantine), every 7th
        // carries an already-expired deadline (queued expiry). All
        // deterministic functions of the job index.
        if fault_capable {
            opts.storm = Some(StormSpec::storm());
        }
        opts.backoff = Backoff { base_ms: 1, max_ms: 8, jitter: 0.5, ..Backoff::default() };
        for (i, s) in specs.iter_mut().enumerate() {
            if i % 5 == 1 {
                s.chaos = Chaos { panic_attempts: 1 };
            }
            if i % 11 == 3 {
                s.chaos = Chaos { panic_attempts: u32::MAX };
            }
            if i % 7 == 2 {
                s.deadline = Some(Duration::ZERO);
            }
        }
    }

    let (outcomes, stats) = run(opts.clone(), &specs);
    check_accounting(&stats);

    let mut doc = vec![
        ("bin", Json::from("serve")),
        ("mode", Json::from(if chaos { "chaos" } else { "throughput" })),
        ("backend", Json::from(spec.name())),
        ("jobs", Json::from(jobs as u64)),
        ("workers", Json::from(opts.workers as u64)),
        ("seed", Json::from(opts.seed)),
        ("solves_per_sec", Json::from(stats.solves_per_sec)),
        ("p50_ms", Json::from(stats.p50_ms)),
        ("p99_ms", Json::from(stats.p99_ms)),
        ("stats", stats.to_value()),
    ];

    if chaos {
        // Quarantine-policy check: poison jobs must be quarantined with
        // exactly max_attempts attempts; panic-once and healthy jobs
        // must not be.
        for (i, (class, _)) in outcomes.iter().enumerate() {
            let poison = i % 11 == 3;
            let expired = i % 7 == 2;
            if poison && !expired && class != "quarantined" {
                fail(&format!("poison job {i} ended as `{class}`, not quarantined"));
            }
            if !poison && class == "quarantined" && !fault_capable {
                fail(&format!("non-poison job {i} was quarantined without a storm"));
            }
            if expired && class != "deadline" {
                fail(&format!("expired job {i} ended as `{class}`, not deadline"));
            }
        }
        // Determinism: an identical engine over an identical workload
        // must reproduce every outcome bit-for-bit.
        let (outcomes2, stats2) = run(opts.clone(), &specs);
        check_accounting(&stats2);
        if outcomes != outcomes2 {
            let diff = outcomes
                .iter()
                .zip(&outcomes2)
                .position(|(a, b)| a != b)
                .map(|i| {
                    format!("first divergence at job {i}: {:?} vs {:?}", outcomes[i], outcomes2[i])
                })
                .unwrap_or_else(|| "length mismatch".into());
            fail(&format!("same-seed chaos runs diverged: {diff}"));
        }
        println!(
            "chaos gate: {} done, {} quarantined, {} deadline-expired, {} worker losses, \
             {} retries, 0 SDC escapes, 0 lost jobs, runs bit-identical",
            stats.done,
            stats.quarantined,
            stats.deadline_exceeded,
            stats.worker_losses,
            stats.retries
        );
        doc.push(("runs_bit_identical", Json::from(true)));
        doc.push(("storm_armed", Json::from(fault_capable)));
    } else {
        println!(
            "throughput: {:.1} solves/sec over {} jobs ({} workers), p50 {:.2} ms, p99 {:.2} ms",
            stats.solves_per_sec, stats.done, opts.workers, stats.p50_ms, stats.p99_ms
        );
    }

    let doc = Json::obj(doc);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("[graphene] cannot create {}: {e}", dir.display());
        }
    }
    match std::fs::write(&out, doc.to_pretty()) {
        Ok(()) => eprintln!("[graphene] wrote {out}"),
        Err(e) => fail(&format!("cannot write {out}: {e}")),
    }
}
