//! # The backend registry — `graphene_core`'s side of the abstraction
//!
//! The `backend` crate defines the device contract ([`Backend`] /
//! [`PreparedPlan`]) and implements the CPU and GPU-model baselines; this
//! module adds the piece that must live above the DSL and solver layers:
//!
//! * [`IpuSimBackend`] — the cycle-modelled IPU simulator behind the
//!   trait. One type, three variants ([`IpuVariant`]), each a
//!   [`runner::solve`] with `SolveOptions::backend` pinned under the
//!   hood, so a trait-level run is bit- and cycle-identical to calling
//!   the runner with that backend.
//! * [`resolve`] / [`backend_for`] — the name → backend registry behind
//!   `GRAPHENE_BACKEND` and `SolveOptions::backend`. Unknown names are
//!   [`SolveError::Config`].
//! * [`external_solve`] — the runner's dispatch path for non-IPU
//!   backends: capability checks first (fault injection or auto-tuning on
//!   a backend that lacks them is a typed [`SolveError::Backend`], never
//!   a panic), then prepare/execute through the trait, then the same
//!   tolerance judgement the IPU path applies.

use std::rc::Rc;

use backend::{
    Backend, BackendError, BackendRun, BackendSpec, Capabilities, IpuVariant, PreparedPlan,
    SolvePlan, Timing,
};
use ipu_sim::clock::CycleStats;
use ipu_sim::fault::FaultPlan;
use sparse::formats::CsrMatrix;

use crate::config::SolverConfig;
use crate::resilience::{target_tolerance, SolveError, SolveStatus};
use crate::runner::{solve, SolveOptions, SolveResult, TOLERANCE_SAFETY};

// ----------------------------------------------------------------------
// The IPU simulator as a backend
// ----------------------------------------------------------------------

/// The simulated IPU behind the [`Backend`] trait. Each prepared plan
/// replays through [`runner::solve`](crate::runner::solve) with the
/// variant pinned, so results, `CycleStats` and reports are identical to
/// calling the runner directly.
pub struct IpuSimBackend {
    variant: IpuVariant,
    /// Machine/partition options every execution of this backend uses
    /// (its `backend` field is overridden by the variant).
    base: SolveOptions,
}

impl IpuSimBackend {
    pub fn new(variant: IpuVariant, base: SolveOptions) -> IpuSimBackend {
        IpuSimBackend { variant, base }
    }
}

impl Backend for IpuSimBackend {
    fn name(&self) -> String {
        BackendSpec::IpuSim(self.variant).name().to_string()
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
            parallel_host: self.variant == IpuVariant::Par,
            ..Capabilities::default()
        }
    }

    fn prepare(&self, plan: &SolvePlan) -> Result<Box<dyn PreparedPlan>, BackendError> {
        let config = SolverConfig::from_value(&plan.solver).map_err(|e| {
            BackendError::Unsupported { backend: self.name(), what: format!("solver config: {e}") }
        })?;
        let mut opts = self.base.clone();
        opts.backend = Some(BackendSpec::IpuSim(self.variant));
        opts.record_history = plan.record_history;
        Ok(Box::new(IpuSimPrepared { name: self.name(), a: Rc::clone(&plan.a), config, opts }))
    }
}

struct IpuSimPrepared {
    name: String,
    a: Rc<CsrMatrix>,
    config: SolverConfig,
    opts: SolveOptions,
}

impl PreparedPlan for IpuSimPrepared {
    fn execute(&mut self, b: &[f64], x0: Option<&[f64]>) -> Result<BackendRun, BackendError> {
        let mut opts = self.opts.clone();
        opts.x0 = x0.map(<[f64]>::to_vec);
        let res = solve(Rc::clone(&self.a), b, &self.config, &opts).map_err(|e| {
            BackendError::Failed { backend: self.name.clone(), reason: e.to_string() }
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
        BackendSpec::IpuSim(v) => Box::new(IpuSimBackend::new(v, base.clone())),
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

/// Run a solve on a non-IPU backend: capability checks, then the trait.
/// Called by `runner::solve` when `SolveOptions::backend` /
/// `GRAPHENE_BACKEND` selects `cpu`, `cpu:par` or `gpu-model`.
pub(crate) fn external_solve(
    spec: BackendSpec,
    a: Rc<CsrMatrix>,
    b: &[f64],
    config: &SolverConfig,
    opts: &SolveOptions,
) -> Result<SolveResult, SolveError> {
    // External backends have no mid-run abort hook, so the deadline is
    // enforced post-hoc: a run that finishes past the cutoff is a typed
    // DeadlineExceeded, never a silently late result.
    let start = std::time::Instant::now();
    let be = backend_for(spec, opts);
    let caps = be.capabilities();
    let name = be.name();

    // Capability mismatches are typed refusals (satellite contract).
    let fault_plan = match &opts.faults {
        Some(p) => Some(p.clone()),
        None => FaultPlan::from_env().map_err(SolveError::Config)?,
    };
    if fault_plan.is_some() && !caps.fault_injection {
        return Err(SolveError::Backend {
            backend: name.clone(),
            reason: "fault injection requested, but this backend does not support it".into(),
        });
    }
    let tune_on = match opts.tune {
        Some(t) => t,
        None => crate::autotune::tune_enabled_from_env()?,
    };
    if tune_on && !caps.auto_tuning {
        return Err(SolveError::Backend {
            backend: name.clone(),
            reason: "auto-tuning requested, but this backend does not support it".into(),
        });
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
    if let Some(budget) = opts.deadline {
        if start.elapsed() >= budget {
            return Err(SolveError::DeadlineExceeded {
                elapsed_ms: start.elapsed().as_millis() as u64,
                budget_ms: budget.as_millis() as u64,
            });
        }
    }

    // The same judgement contract as the IPU path: a non-finite or
    // tolerance-missing result is a typed error, never a silently wrong x.
    if !run.residual.is_finite() || run.x.iter().any(|v| !v.is_finite()) {
        return Err(SolveError::NonFinite { attempt: 1 });
    }
    let status = match target_tolerance(config) {
        Some(t) => {
            if run.residual <= t * TOLERANCE_SAFETY {
                SolveStatus::Converged
            } else {
                return Err(SolveError::ToleranceNotReached {
                    residual: run.residual,
                    target: t,
                    attempts: 1,
                });
            }
        }
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

    #[test]
    fn ipu_sim_backend_matches_a_direct_runner_call() {
        let a = Rc::new(poisson_2d_5pt(8, 8, 1.0));
        let b = rhs_for_ones(&a);
        let direct = solve(Rc::clone(&a), &b, &cfg(), &sim_opts()).unwrap();

        let be = IpuSimBackend::new(IpuVariant::Fused, sim_opts());
        assert!(be.capabilities().cycle_accounting);
        let plan = SolvePlan { a: Rc::clone(&a), solver: cfg().to_value(), record_history: false };
        let run = be.prepare(&plan).unwrap().execute(&b, None).unwrap();

        assert_eq!(run.x, direct.x, "trait-level run must be bit-identical");
        assert_eq!(run.residual, direct.residual);
        let stats = run.timing.cycle_stats().expect("ipu-sim counts cycles");
        assert_eq!(stats.device_cycles(), direct.stats.device_cycles());
        let info = run.report.backend.as_ref().expect("schema v3 stamps the backend");
        assert_eq!(info.name, be.name());
        assert_eq!(run.report.executor, be.name());
        assert_eq!(info.timing, "cycle-model");
    }

    #[test]
    fn ipu_sim_backend_refuses_malformed_solver_json() {
        let be = IpuSimBackend::new(IpuVariant::Default, sim_opts());
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
