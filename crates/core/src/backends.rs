//! # The backend registry — `graphene_core`'s side of the abstraction
//!
//! The `backend` crate defines the device contract ([`Backend`] /
//! [`PreparedPlan`]) and implements the CPU and GPU-model baselines; this
//! module adds the piece that must live above the DSL and solver layers:
//!
//! * [`IpuSimBackend`] — the cycle-modelled IPU simulator behind the
//!   trait. `prepare` resolves
//!   the options and builds a [`runner::Plan`](crate::runner::Plan);
//!   `execute` is `Plan::run`, so a trait-level run is bit-, cycle- and
//!   report-identical to `runner::solve` with that backend pinned.
//! * [`resolve`] / [`backend_for`] — the name → backend registry behind
//!   `GRAPHENE_BACKEND` and `SolveOptions::backend`. Unknown names are
//!   [`SolveError::Config`].
//! * [`external_solve`] — where `runner::solve` sends non-IPU backends:
//!   the runner's own input checks and host answers, capability checks
//!   (fault injection or auto-tuning on a backend that lacks them is a
//!   typed [`SolveError::Backend`], never a panic), prepare/execute
//!   through the trait, then the same tolerance judgement the IPU path
//!   applies.
//!
//! The call graph is a DAG: `runner::solve` → {`Plan`, `external_solve`},
//! `IpuSimPrepared` → `Plan`; nothing here calls back into `solve`.

use std::rc::Rc;
use std::time::Instant;

use backend::{
    Backend, BackendError, BackendRun, BackendSpec, Capabilities, PreparedPlan, SolvePlan, Timing,
};
use ipu_sim::clock::CycleStats;
use sparse::formats::CsrMatrix;

use crate::config::SolverConfig;
use crate::resilience::{target_tolerance, SolveError, SolveStatus};
use crate::runner::{
    check_system, deadline_error, preflight, Plan, SolveOptions, SolveResult, TOLERANCE_SAFETY,
};

// ----------------------------------------------------------------------
// The IPU simulator as a backend
// ----------------------------------------------------------------------

/// The simulated IPU behind the [`Backend`] trait.
pub struct IpuSimBackend {
    /// Machine/partition options every execution of this backend uses
    /// (its `backend` field is overridden).
    base: SolveOptions,
}

impl IpuSimBackend {
    pub fn new(base: SolveOptions) -> IpuSimBackend {
        IpuSimBackend { base }
    }
}

impl Backend for IpuSimBackend {
    fn name(&self) -> String {
        BackendSpec::IpuSim.name().to_string()
    }

    fn family(&self) -> &'static str {
        "ipu-sim"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            cycle_accounting: true,
            fault_injection: true,
            auto_tuning: true,
            perf_attribution: true,
            ..Capabilities::default()
        }
    }

    /// Everything that does not depend on the right-hand side happens
    /// here, once: the environment is resolved, the matrix, configuration
    /// and partition are validated (a non-square matrix or a malformed
    /// configuration is refused now, not by the first `execute`), the
    /// tuner decides and the matrix is partitioned. One visible
    /// consequence: under tuning the decision is taken once per plan, so
    /// every execute's report carries the prepare-time `tune.*` counters
    /// (a cache miss stays a miss however many times the plan runs).
    fn prepare(&self, plan: &SolvePlan) -> Result<Box<dyn PreparedPlan>, BackendError> {
        let name = self.name();
        let config = SolverConfig::from_value(&plan.solver).map_err(|e| {
            BackendError::Unsupported { backend: name.clone(), what: format!("solver config: {e}") }
        })?;
        let opts = SolveOptions {
            backend: Some(BackendSpec::IpuSim),
            record_history: plan.record_history,
            ..self.base.clone()
        };
        let plan = opts
            .resolved()
            .and_then(|o| Plan::new(Rc::clone(&plan.a), &config, &o))
            .map_err(|e| BackendError::Failed { backend: name.clone(), reason: e.to_string() })?;
        Ok(Box::new(IpuSimPrepared { name, plan }))
    }
}

struct IpuSimPrepared {
    name: String,
    plan: Plan,
}

impl PreparedPlan for IpuSimPrepared {
    fn execute(&mut self, b: &[f64], x0: Option<&[f64]>) -> Result<BackendRun, BackendError> {
        let res = self.plan.run(b, x0, Instant::now()).map_err(|e| BackendError::Failed {
            backend: self.name.clone(),
            reason: e.to_string(),
        })?;
        Ok(BackendRun {
            x: res.x,
            residual: res.residual,
            iterations: res.iterations,
            history: res.history,
            timing: Timing::Cycles { stats: res.stats, seconds: res.seconds },
            report: res.report,
        })
    }
}

// ----------------------------------------------------------------------
// The registry
// ----------------------------------------------------------------------

/// Instantiate the backend a parsed spec names. `base` supplies the
/// machine/partition options for the IPU simulator (ignored by the
/// baselines, which have no tiles to configure).
pub fn backend_for(spec: BackendSpec, base: &SolveOptions) -> Box<dyn Backend> {
    match spec {
        BackendSpec::IpuSim => Box::new(IpuSimBackend::new(base.clone())),
        BackendSpec::Cpu { parallel } => Box::new(backend::cpu::CpuBackend::new(parallel)),
        BackendSpec::GpuModel => Box::new(backend::gpu::GpuModelBackend::h100()),
    }
}

/// Look a backend up by registry name (the `GRAPHENE_BACKEND` grammar).
/// Unknown names are a [`SolveError::Config`] carrying the known list.
pub fn resolve(name: &str, base: &SolveOptions) -> Result<Box<dyn Backend>, SolveError> {
    let spec = BackendSpec::parse(name).map_err(SolveError::Config)?;
    Ok(backend_for(spec, base))
}

// ----------------------------------------------------------------------
// The runner's external dispatch path
// ----------------------------------------------------------------------

/// Run a solve on a non-IPU backend: the runner's input checks and host
/// answers, capability checks, then the trait. Called by `runner::solve`
/// with resolved options when they select `cpu`, `cpu:par` or
/// `gpu-model`; `start` is the solve's entry time.
pub(crate) fn external_solve(
    spec: BackendSpec,
    a: Rc<CsrMatrix>,
    b: &[f64],
    config: &SolverConfig,
    opts: &SolveOptions,
    start: Instant,
) -> Result<SolveResult, SolveError> {
    check_system(&a, config, opts.partition.as_ref())?;
    if let Some(done) = preflight(&a, b, opts.x0.as_deref(), config, start, opts.deadline)? {
        return Ok(done);
    }
    let be = backend_for(spec, opts);
    let caps = be.capabilities();
    let name = be.name();

    // Capability mismatches are typed refusals.
    let refuse = |what: &str| SolveError::Backend {
        backend: name.clone(),
        reason: format!("{what} requested, but this backend does not support it"),
    };
    if opts.faults.is_some() && !caps.fault_injection {
        return Err(refuse("fault injection"));
    }
    if opts.tune == Some(true) && !caps.auto_tuning {
        return Err(refuse("auto-tuning"));
    }

    let plan = SolvePlan {
        a: Rc::clone(&a),
        solver: config.to_value(),
        record_history: opts.record_history,
    };
    let map_err = |e: BackendError| match e {
        BackendError::Unknown(n) => SolveError::Config(format!("unknown backend `{n}`")),
        BackendError::Unsupported { backend, what } => {
            SolveError::Backend { backend, reason: format!("does not support {what}") }
        }
        BackendError::Failed { backend, reason } => SolveError::Backend { backend, reason },
    };
    let mut prepared = be.prepare(&plan).map_err(map_err)?;
    let run = prepared.execute(b, opts.x0.as_deref()).map_err(map_err)?;
    // External backends have no mid-run abort hook, so the deadline is
    // enforced post-hoc: a run that finishes past the cutoff is a typed
    // DeadlineExceeded, never a silently late result.
    if opts.deadline.is_some_and(|budget| start.elapsed() >= budget) {
        return Err(deadline_error(start, opts.deadline));
    }

    // The same judgement contract as the IPU path: a non-finite or
    // tolerance-missing result is a typed error, never a silently wrong x.
    if !run.residual.is_finite() || run.x.iter().any(|v| !v.is_finite()) {
        return Err(SolveError::NonFinite { attempt: 1 });
    }
    let status = match target_tolerance(config) {
        Some(t) if run.residual > t * TOLERANCE_SAFETY => {
            return Err(SolveError::ToleranceNotReached {
                residual: run.residual,
                target: t,
                attempts: 1,
            })
        }
        Some(_) => SolveStatus::Converged,
        None => SolveStatus::MaxIters,
    };
    let seconds = run.timing.seconds();
    Ok(SolveResult {
        x: run.x,
        residual: run.residual,
        history: run.history,
        iterations: run.iterations,
        // External backends count no device cycles; their time lives in
        // the report's `backend` section in its own domain.
        stats: CycleStats::new(0),
        seconds,
        status,
        report: run.report,
    })
}

#[cfg(test)]
mod tests {
    use dsl::prelude::IpuModel;
    use sparse::gen::{poisson_2d_5pt, rhs_for_ones};

    use super::*;
    use crate::runner::solve;

    fn sim_opts() -> SolveOptions {
        SolveOptions {
            model: IpuModel::tiny(4),
            tiles: Some(4),
            record_history: false,
            ..SolveOptions::default()
        }
    }

    fn cfg() -> SolverConfig {
        SolverConfig::BiCgStab { max_iters: 60, rel_tol: 1e-6, precond: None }
    }

    #[test]
    fn unknown_backend_names_are_config_errors() {
        let e = resolve("tpu", &sim_opts()).err().expect("unknown name must fail");
        match e {
            SolveError::Config(msg) => {
                assert!(msg.contains("unknown backend"), "{msg}");
                assert!(msg.contains("gpu-model"), "{msg}");
            }
            other => panic!("expected Config, got {other}"),
        }
    }

    #[test]
    fn registry_names_round_trip_through_the_trait() {
        for name in backend::KNOWN_BACKENDS {
            let be = resolve(name, &sim_opts()).unwrap();
            assert_eq!(be.name(), *name);
            assert_eq!(be.family(), BackendSpec::parse(name).unwrap().family());
        }
    }

    /// A report with what legitimately differs between an execute of a
    /// prepared plan and a direct solve blanked: host wall-clock, and how
    /// the tuner's plan was *obtained* (searched at prepare vs hit from the
    /// cache that search wrote).
    fn comparable(report: &profile::SolveReport) -> String {
        let mut r = report.clone();
        r.host_seconds = 0.0;
        let perf = r.perf.take().expect("ipu-sim attributes every run");
        for pass in r.compile.iter_mut().flat_map(|c| &mut c.passes) {
            let volatile = ["cache_hit", "candidates_scored", "search_micros"];
            if pass.name == "graphene-tune" {
                pass.counters.retain(|(k, _)| !volatile.contains(&k.as_str()));
            }
        }
        let m = &perf.metrics;
        let counters = ["attempts", "restarts", "degradations", "detections", "checkpoints"]
            .map(|k| m.counter(&format!("solve.{k}")));
        let gauges = ["solve.iterations", "solve.final_residual", "tune.modelled_cycles"]
            .map(|k| m.gauge(k).map(f64::to_bits));
        format!("{}\n{}\n{counters:?}\n{gauges:?}", r.to_value(), perf.attribution_json())
    }

    #[test]
    fn ipu_sim_backend_matches_a_direct_runner_call() {
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        let b2: Vec<f64> = b.iter().enumerate().map(|(i, v)| 2.0 * v + i as f64).collect();
        let ones = vec![1.0; a.nrows];
        let tiny = |n: usize, values: Vec<f64>| {
            let row_ptr = (0..=n).collect();
            Rc::new(CsrMatrix { nrows: n, ncols: n, row_ptr, col_idx: vec![0; n], values })
        };
        let cache = std::env::temp_dir().join(format!("graphene-plan-tune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let faults = ipu_sim::fault::FaultPlan::parse("seed=7;n=3;classes=flip+xflip").unwrap();

        // One prepare, then every (b, x0) through `execute`, against the
        // same number of direct `runner::solve` calls.
        type Runs<'a> = Vec<(&'a [f64], Option<&'a [f64]>)>;
        let cases: Vec<(&str, Rc<CsrMatrix>, SolveOptions, Runs<'_>)> = vec![
            ("plain", a.clone(), sim_opts(), vec![(&b, None), (&b2, Some(&ones)), (&b, None)]),
            ("0x0", tiny(0, vec![]), sim_opts(), vec![(&[], None), (&[], None)]),
            ("1x1", tiny(1, vec![4.0]), sim_opts(), vec![(&[8.0], None), (&[3.0], Some(&[1.0]))]),
            (
                "faulted",
                a.clone(),
                SolveOptions { faults: Some(faults), ..sim_opts() },
                vec![(&b, None), (&b2, None)],
            ),
            (
                "tuned",
                a.clone(),
                SolveOptions { tune: Some(true), tune_cache: Some(cache.clone()), ..sim_opts() },
                vec![(&b, None), (&b2, Some(&ones))],
            ),
            (
                "expired deadline",
                a.clone(),
                SolveOptions { deadline: Some(std::time::Duration::ZERO), ..sim_opts() },
                vec![(&b, None)],
            ),
        ];
        for (case, a, base, runs) in cases {
            let be = IpuSimBackend::new(base.clone());
            assert!(be.capabilities().cycle_accounting);
            let plan =
                SolvePlan { a: Rc::clone(&a), solver: cfg().to_value(), record_history: false };
            let mut prepared = be.prepare(&plan).unwrap_or_else(|e| panic!("{case}: {e}"));
            for (b, x0) in runs {
                let pinned = SolveOptions {
                    backend: Some(BackendSpec::IpuSim),
                    x0: x0.map(<[f64]>::to_vec),
                    ..base.clone()
                };
                let (run, direct) =
                    match (prepared.execute(b, x0), solve(a.clone(), b, &cfg(), &pinned)) {
                        (Ok(run), Ok(direct)) => (run, direct),
                        (Err(BackendError::Failed { reason, .. }), Err(e)) => {
                            // Elapsed milliseconds aside, the same typed error.
                            let kind = |s: &str| s.split(':').next().map(str::to_string);
                            assert_eq!(kind(&reason), kind(&e.to_string()), "{case}");
                            continue;
                        }
                        (run, direct) => {
                            panic!(
                                "{case}: outcomes diverged: {:?} vs {:?}",
                                run.err(),
                                direct.err()
                            )
                        }
                    };
                assert_ne!(case, "expired deadline", "an expired deadline must not run");
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
                assert_eq!(bits(&run.x), bits(&direct.x), "{case}: solution bits");
                assert_eq!(run.residual.to_bits(), direct.residual.to_bits(), "{case}");
                assert_eq!(run.iterations, direct.iterations, "{case}");
                let stats = run.timing.cycle_stats().expect("ipu-sim counts cycles");
                assert_eq!(stats.device_cycles(), direct.stats.device_cycles(), "{case}");
                assert_eq!(stats.supersteps(), direct.stats.supersteps(), "{case}");
                assert_eq!(
                    stats.labels_by_phase_sorted(),
                    direct.stats.labels_by_phase_sorted(),
                    "{case}"
                );
                if a.nrows > 1 {
                    assert_eq!(comparable(&run.report), comparable(&direct.report), "{case}");
                    let info = run.report.backend.as_ref().expect("schema v3 stamps the backend");
                    assert_eq!(
                        (info.name.as_str(), info.timing.as_str()),
                        ("ipu-sim", "cycle-model")
                    );
                    assert_eq!(run.report.executor, be.name());
                    assert!(run.iterations > 0, "{case}: iterations are counted without history");
                } else {
                    assert_eq!(run.report.to_value(), direct.report.to_value(), "{case}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&cache);

        // What does not depend on b is refused by `prepare`, not by the
        // first `execute`: a non-square matrix, a configuration that
        // parses but is invalid (an unparseable one: the next test).
        let be = IpuSimBackend::new(sim_opts());
        let wide = Rc::new(CsrMatrix { ncols: a.ncols + 1, ..(*a).clone() });
        let zero_budget = SolverConfig::Cg { max_iters: 0, rel_tol: 1e-6, precond: None };
        for (a, solver) in [(wide, cfg()), (a.clone(), zero_budget)] {
            let plan = SolvePlan { a, solver: solver.to_value(), record_history: false };
            assert!(matches!(be.prepare(&plan), Err(BackendError::Failed { .. })));
        }
    }

    #[test]
    fn a_zero_or_missing_diagonal_fails_execute_with_a_config_error_naming_the_row() {
        let a = poisson_2d_5pt(4, 4, 1.0);
        let k = |row: usize| {
            a.row_ptr[row] + a.row(row).0.iter().position(|&c| c == row as u32).unwrap()
        };
        let mut missing = a.clone();
        let at = k(6);
        missing.col_idx.remove(at);
        missing.values.remove(at);
        missing.row_ptr[7..].iter_mut().for_each(|p| *p -= 1);
        let mut zero = a.clone();
        zero.values[k(11)] = 0.0;
        let b = vec![1.0; a.nrows];
        let name = "ipu-sim";
        for (m, row) in [(&missing, 6), (&zero, 11)] {
            let plan = SolvePlan {
                a: Rc::new(m.clone()),
                solver: cfg().to_value(),
                record_history: false,
            };
            let mut prepared = resolve(name, &sim_opts()).unwrap().prepare(&plan).unwrap();
            match prepared.execute(&b, None) {
                Err(BackendError::Failed { reason, .. }) => {
                    let want = SolveError::Config(String::new()).to_string();
                    assert!(reason.starts_with(&want), "{name}: {reason}");
                    assert!(reason.contains(&format!("row {row} ")), "{name}: {reason}");
                }
                other => panic!("{name}: expected a config error, got {:?}", other.err()),
            }
        }
        // The 1×1 host answers do not reach the device and are unchanged: an
        // empty row with b = 0 is the zero solution.
        let empty = CsrMatrix { nrows: 1, ncols: 1, row_ptr: vec![0, 0], ..CsrMatrix::default() };
        let plan = SolvePlan { a: Rc::new(empty), solver: cfg().to_value(), record_history: false };
        let mut prepared = resolve("ipu-sim", &sim_opts()).unwrap().prepare(&plan).unwrap();
        assert_eq!(prepared.execute(&[0.0], None).unwrap().x, vec![0.0]);
    }

    #[test]
    fn ipu_sim_backend_refuses_malformed_solver_json() {
        let be = IpuSimBackend::new(sim_opts());
        let plan = SolvePlan {
            a: Rc::new(poisson_2d_5pt(4, 4, 1.0)),
            solver: json::Json::obj([("type", json::Json::Str("warp-drive".into()))]),
            record_history: false,
        };
        match be.prepare(&plan) {
            Err(BackendError::Unsupported { backend, what }) => {
                assert_eq!(backend, be.name());
                assert!(what.contains("solver config"), "{what}");
            }
            Err(other) => panic!("expected Unsupported, got {other}"),
            Ok(_) => panic!("malformed config must not prepare"),
        }
    }
}
