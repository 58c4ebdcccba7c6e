//! `serve_mix`: what a tenant of `graphene-serve` waits for. One engine, one
//! worker, this thread as the load generator. The pinned surface is
//! `ServeEngine::{start, submit, outcome, finish}` with default options
//! apart from `workers` and `queue_capacity`.

use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphene::graphene_core::runner::SolveOptions;
use graphene::serve::{JobOutcome, JobSpec, ServeEngine, ServeOptions, ServeStats};
use graphene::sparse::formats::CsrMatrix;

use crate::check::{digest, judge, Determinism};
use crate::inputs::{self, rounded_to_f32, JobTemplate, JOB_CYCLE};
use crate::layers::{self, Item, Ledger};
use crate::report::{peak_rss_mb, Outcome};
use crate::solve::{execute, prepare, spanned};
use crate::stats::{describe, mean, median, percentile};
use crate::trace::Tracer;
use crate::{RunArgs, SETUP_REPEATS};

/// Jobs run before timing starts, so the hot pool's plans are cached.
const WARMUP_JOBS: usize = 24;
/// Job cycles of the round-trip phase; its gated value is their median.
const RTT_CYCLES: usize = 3;
/// Outstanding jobs in the saturation phase.
const SAT_OUTSTANDING: usize = 16;
/// Open-loop rate of the paced phase, jobs per second.
const PACED_RATE: f64 = 30.0;
/// `outcome` is polled at this interval: `JobResult::queue_ms`/`solve_ms`
/// are whole milliseconds, too coarse for jobs of a few milliseconds.
const POLL: Duration = Duration::from_micros(50);
/// Poll interval of the saturation phase.
const COARSE_POLL: Duration = Duration::from_millis(1);
/// Jobs of the cycle that the traced run also sends through the replica.
const REPLICA_JOBS: usize = 24;

/// The per-layer metrics of the serve layer; a workload that does not
/// exercise it reports them as 0.
pub const SERVE_METRICS: [&str; 12] = [
    "serve.submit_us",
    "serve.queue_wait_ms",
    "serve.service_ms",
    "serve.overhead_ms",
    "serve.plan_hits",
    "serve.plan_misses",
    "serve.plan_hit_ratio",
    "serve.retries",
    "serve.rejected",
    "serve.lat_p50_ms",
    "serve.lat_p95_ms",
    "serve.gen_lag_ms",
];

enum Load {
    /// Each of `outstanding` clients sends its next job when the previous
    /// one completes.
    Closed { outstanding: usize },
    /// Jobs are due on a fixed schedule, whatever the engine does.
    Open { per_second: f64 },
}

/// When a phase stops submitting.
enum Until {
    /// After exactly this many jobs.
    Jobs(usize),
    /// After this long.
    Elapsed(Duration),
    /// After this long and at least this many job cycles, at the end of the
    /// cycle then in progress: only whole cycles are comparable.
    WholeCycles(Duration, usize),
}

impl Load {
    /// Wait for something to change, keeping this thread off the worker's
    /// back: the sandbox's two CPUs can be siblings of one core, where a
    /// busy generator slows the worker by a third.
    fn wait(&self, engine: &ServeEngine) -> Result<(), String> {
        let pause = match self {
            // The one job in flight is all that is accepted and not yet
            // terminal: block until it is.
            Load::Closed { outstanding: 1 } => {
                return engine.drain(Duration::from_secs(600)).map_err(|e| format!("drain: {e}"));
            }
            // Only throughput is read off this loop, and the queue stays
            // deep, so a coarse poll loses nothing.
            Load::Closed { .. } => COARSE_POLL,
            Load::Open { .. } => POLL,
        };
        std::thread::sleep(pause);
        Ok(())
    }
}

#[derive(Default)]
struct Phase {
    /// Origin (submit, or due time in an open loop) → outcome visible.
    latency_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    /// How late the open-loop generator submitted each job.
    lag_ms: Vec<f64>,
    /// When each job's outcome became visible, seconds into the phase.
    done_at_s: Vec<f64>,
}

impl Phase {
    /// Mean latency of each whole job cycle, in completion order. Every
    /// cycle holds the same work, so the cycles are comparable samples, and
    /// their median shrugs off a stall that hits one of them.
    fn cycle_latency_ms(&self) -> Vec<f64> {
        self.latency_ms.chunks_exact(JOB_CYCLE).map(mean).collect()
    }

    /// Completions per second over each whole job cycle.
    fn cycle_rate(&self) -> Vec<f64> {
        let ends: Vec<f64> =
            self.done_at_s.chunks_exact(JOB_CYCLE).map(|c| c[JOB_CYCLE - 1]).collect();
        let starts = std::iter::once(0.0).chain(ends.iter().copied());
        ends.iter().zip(starts).map(|(end, start)| JOB_CYCLE as f64 / (end - start)).collect()
    }
}

struct Generator {
    templates: Vec<JobTemplate>,
    a32: Vec<CsrMatrix>,
    /// Every submitted matrix stays alive to the end of the run: the
    /// engine's plan cache is keyed by matrix address, and a freed address
    /// that a different matrix reuses would hit the wrong plan.
    keep: Vec<Arc<CsrMatrix>>,
    gate: Determinism,
    cursor: usize,
}

impl Generator {
    fn next_job(&mut self) -> (usize, JobSpec) {
        let index = self.cursor;
        self.cursor = (index + 1) % self.templates.len();
        let t = &self.templates[index];
        let a = if t.fresh { Arc::new((*t.a).clone()) } else { Arc::clone(&t.a) };
        self.keep.push(Arc::clone(&a));
        let mut spec = JobSpec::new(t.tenant, a, t.b.clone(), t.config.clone());
        spec.deadline = t.deadline;
        (index, spec)
    }

    /// The benchmark's verdict on one terminal outcome.
    fn check(&mut self, index: usize, outcome: &JobOutcome) -> Result<(), String> {
        let t = &self.templates[index];
        match outcome {
            JobOutcome::Done(r) if r.sdc_escape => Err("engine flagged an SDC escape".into()),
            JobOutcome::Done(r) => {
                judge(&t.config, &self.a32[index], &t.b, &r.x, r.residual)?;
                self.gate.observe(index, digest(&r.x), r.report.cycles.device)
            }
            other => Err(format!("job ended as {}", other.class())),
        }
    }
}

/// Offer `load` until `until` says stop, then wait for every job in flight.
fn drive(
    engine: &ServeEngine,
    generator: &mut Generator,
    load: Load,
    until: Until,
    out: &mut Outcome,
) -> Phase {
    struct InFlight {
        id: u64,
        index: usize,
        origin: Instant,
    }
    let mut phase = Phase::default();
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut submitted = 0usize;
    let start = Instant::now();
    loop {
        let now = Instant::now();
        let elapsed = now.duration_since(start);
        let open = match until {
            Until::Jobs(n) => submitted < n,
            Until::Elapsed(window) => elapsed < window,
            Until::WholeCycles(window, at_least) => {
                elapsed < window
                    || submitted < at_least * JOB_CYCLE
                    || !submitted.is_multiple_of(JOB_CYCLE)
            }
        };
        loop {
            let origin = match load {
                Load::Closed { outstanding } if open && in_flight.len() < outstanding => now,
                Load::Open { per_second } if open => {
                    let due = start + Duration::from_secs_f64(submitted as f64 / per_second);
                    if due > now {
                        break;
                    }
                    phase.lag_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                    due
                }
                _ => break,
            };
            let (index, spec) = generator.next_job();
            submitted += 1;
            let before = Instant::now();
            let admitted = engine.submit(spec);
            phase.submit_us.push(before.elapsed().as_secs_f64() * 1e6);
            match admitted {
                Ok(id) => in_flight.push(InFlight { id, index, origin }),
                Err(e) => out.count(Err(format!("refused at admission: {e}"))),
            }
        }
        in_flight.retain(|job| match engine.outcome(job.id) {
            None => true,
            Some(outcome) => {
                phase.latency_ms.push(job.origin.elapsed().as_secs_f64() * 1e3);
                phase.done_at_s.push(start.elapsed().as_secs_f64());
                if let JobOutcome::Done(r) = &outcome {
                    phase.queue_ms.push(r.queue_ms as f64);
                    phase.service_ms.push(r.solve_ms as f64);
                }
                out.count(generator.check(job.index, &outcome));
                false
            }
        });
        if !open && in_flight.is_empty() {
            break;
        }
        if let Err(e) = load.wait(engine) {
            out.problems.push(e);
            break;
        }
    }
    phase
}

/// Input generation, `ServeEngine::start` and the warm-up jobs.
fn setup(seed: u64, out: &mut Outcome) -> Result<(ServeEngine, Generator), String> {
    let templates = inputs::serve_mix(seed);
    let options = ServeOptions { workers: 1, queue_capacity: 4096, ..ServeOptions::default() };
    let engine = ServeEngine::start(options).map_err(|e| e.to_string())?;
    let mut generator = Generator {
        a32: templates.iter().map(|t| rounded_to_f32(&t.a)).collect(),
        gate: Determinism::new(templates.len()),
        templates,
        keep: Vec::new(),
        cursor: 0,
    };
    let load = Load::Closed { outstanding: 1 };
    drive(&engine, &mut generator, load, Until::Jobs(WARMUP_JOBS), out);
    if out.failed > 0 {
        return Err("a warm-up job failed".into());
    }
    Ok((engine, generator))
}

/// The engine's own ledger must balance, with no silent corruption.
fn settle(stats: &ServeStats, out: &mut Outcome) {
    if !stats.accounting_ok() {
        out.problems.push("serve accounting does not balance".into());
    }
    if stats.sdc_escapes != 0 {
        out.problems.push(format!("{} SDC escapes", stats.sdc_escapes));
    }
}

/// Run the workload. `traced` is `Some` in the traced run, with the directory
/// for the tuner's cache.
pub fn run(
    args: &RunArgs,
    traced: Option<(&mut Tracer, &std::path::Path)>,
    out: &mut Outcome,
) -> Result<(), String> {
    let RunArgs { seed, seconds, tiny, .. } = *args;
    let setup_repeats = if traced.is_some() { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut last: Option<(ServeEngine, Generator)> = None;
    for _ in 0..setup_repeats {
        if let Some((engine, _)) = last.take() {
            settle(&engine.finish(), out);
        }
        let start = Instant::now();
        last = Some(setup(seed, out)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (engine, mut generator) = last.expect("at least one set-up");
    // The round-trip phase is a fixed number of whole job cycles, the same
    // work in every run; the other phases share what is left of `seconds`.
    let start = Instant::now();
    let cycles = if tiny { 1 } else { RTT_CYCLES };
    let one = Load::Closed { outstanding: 1 };
    let rtt = drive(&engine, &mut generator, one, Until::Jobs(cycles * JOB_CYCLE), out);
    // Read here, at a stated amount of work: the engine keeps every job's
    // outcome (~23 KB each), so at the end of the run the peak would follow
    // the number of jobs the saturation phase got through.
    let peak_rss_mb = peak_rss_mb()?;
    let left = (seconds - start.elapsed().as_secs_f64()).max(0.0);
    let sat_share = if traced.is_some() { 0.4 } else { 1.0 };
    let many = Load::Closed { outstanding: SAT_OUTSTANDING };
    let until = Until::WholeCycles(Duration::from_secs_f64(left * sat_share), cycles);
    let sat = drive(&engine, &mut generator, many, until, out);

    println!("round trip, one job in flight: {}", describe(&rtt.latency_ms, "ms"));
    println!("  its mean per job cycle: {}", describe(&rtt.cycle_latency_ms(), "ms"));
    println!(
        "jobs/s per cycle, {SAT_OUTSTANDING} in flight: {}",
        describe(&sat.cycle_rate(), "1/s")
    );

    let Some((tracer, cache_dir)) = traced else {
        settle(&engine.finish(), out);
        out.set("setup_s", median(&setup_s));
        out.set("solve_s", median(&rtt.cycle_latency_ms()) / 1e3);
        out.set("solves_per_s", median(&sat.cycle_rate()));
        let cycles = generator.gate.mean_cycles().ok_or("a job of the cycle never completed")?;
        out.set("device_mcycles", cycles / 1e6);
        out.set("peak_rss_mb", peak_rss_mb);
        return Ok(());
    };

    let paced_load = Load::Open { per_second: PACED_RATE };
    // At least a second, so a short run still paces a few dozen jobs.
    let left = (seconds - start.elapsed().as_secs_f64()).max(1.0);
    let until = Until::Elapsed(Duration::from_secs_f64(left));
    let paced = drive(&engine, &mut generator, paced_load, until, out);
    let stats = engine.finish();
    settle(&stats, out);

    // The same jobs straight through the top-level API, then through the
    // layer replica, on this thread.
    let defaults = SolveOptions::default();
    let mut ledger = Ledger::default();
    let mut direct_ms = Vec::new();
    let mut last_report = None;
    for (index, t) in generator.templates.iter().enumerate() {
        let a = Rc::new((*t.a).clone());
        let (op, solution) = tracer.operation(|tr| {
            let mut tr = Some(tr);
            let start = Instant::now();
            let solution = spanned(&mut tr, "backend.prepare", || {
                prepare("ipu-sim", &a, &t.config, &defaults)
            })
            .and_then(|mut plan| spanned(&mut tr, "backend.execute", || execute(&mut *plan, &t.b)));
            direct_ms.push(start.elapsed().as_secs_f64() * 1e3);
            solution
        });
        let solution = solution?;
        // Served, direct and replica runs of one job must agree bit for bit.
        let mut same = generator.gate.observe(index, digest(&solution.x), solution.device_cycles);
        last_report = Some(solution.report);
        if index < REPLICA_JOBS {
            let item = Item { a: &a, config: &t.config, opts: &defaults, b: &t.b };
            let (replica_digest, cycles) = ledger.replica_op(tracer, op, &[item])?;
            same = same.and(generator.gate.observe(index, replica_digest, cycles));
        }
        if let Err(e) = same {
            out.problems.push(format!("direct call or replica diverged from the served job: {e}"));
        }
    }
    ledger.metrics(tracer, out);
    let first = &generator.templates[0];
    let a = Rc::new((*first.a).clone());
    let item = Item { a: &a, config: &first.config, opts: &defaults, b: &first.b };
    let report = last_report.ok_or("the job cycle is empty")?;
    layers::probes(tracer, &[item], &report, cache_dir, out)?;

    let hits = stats.metrics.counter("serve.plan_hits") as f64;
    let misses = stats.metrics.counter("serve.plan_misses") as f64;
    out.set(
        "serve.submit_us",
        median(&[&rtt.submit_us[..], &sat.submit_us, &paced.submit_us].concat()),
    );
    out.set("serve.queue_wait_ms", mean(&sat.queue_ms));
    out.set("serve.service_ms", mean(&sat.service_ms));
    // Whole cycles on both sides, so the same work is compared.
    out.set("serve.overhead_ms", median(&rtt.cycle_latency_ms()) - mean(&direct_ms));
    out.set("serve.plan_hits", hits);
    out.set("serve.plan_misses", misses);
    out.set("serve.plan_hit_ratio", hits / (hits + misses));
    out.set("serve.retries", stats.retries as f64);
    out.set("serve.rejected", stats.rejected as f64);
    out.set("serve.lat_p50_ms", median(&paced.latency_ms));
    out.set("serve.lat_p95_ms", percentile(&paced.latency_ms, 95.0));
    out.set("serve.gen_lag_ms", percentile(&paced.lag_ms, 95.0));
    Ok(())
}
