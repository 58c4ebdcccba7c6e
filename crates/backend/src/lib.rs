//! # graphene-backend — the device/backend abstraction
//!
//! The paper's evaluation is inherently multi-backend: the IPU framework
//! versus HYPRE-on-Xeon and HYPRE+cuSPARSE-on-H100 (§VI-A). This crate
//! gives those comparators one execution contract so a solve can be
//! retargeted without touching the call site:
//!
//! * [`Backend`] — a named device with a [`Capabilities`] matrix that
//!   turns a backend-agnostic [`SolvePlan`] into a [`PreparedPlan`];
//! * [`PreparedPlan`] — executes against concrete right-hand sides and
//!   returns a [`BackendRun`]: solution bits, convergence record, a
//!   [`Timing`] that is cycle-accurate, wall-clock or roofline-modelled
//!   depending on what the device can honestly account, and the full
//!   [`SolveReport`] (schema v3 carries the `backend` section);
//! * [`BackendSpec`] — the `GRAPHENE_BACKEND` registry grammar
//!   (`ipu-sim | cpu[:par] | gpu-model`): one parser
//!   ([`BackendSpec::parse`]) and one place that reads the environment
//!   ([`BackendSpec::from_env`]).
//!
//! The CPU ([`cpu::CpuBackend`]) and GPU ([`gpu::GpuModelBackend`])
//! backends live here; the IPU-simulator backend is implemented in
//! `graphene_core::backends` (it needs the DSL and solver layers, which
//! sit above this crate) and registered through the same trait.
//!
//! # How cycle-accounting and wall-time backends coexist
//!
//! Each backend reports time in the domain it can defend: the simulator
//! counts device cycles (bit-deterministic, host-independent), the CPU
//! baseline measures host wall-clock, and the GPU roofline model derives
//! seconds analytically. [`Timing`] keeps the three apart — comparisons
//! across domains are the *evaluation's* job (Figs 7/8), never silently
//! collapsed by the abstraction.

pub mod cpu;
pub mod gpu;
pub mod pool;

use std::fmt;
use std::rc::Rc;

use ipu_sim::clock::CycleStats;
use json::Json;
use profile::SolveReport;
use sparse::formats::CsrMatrix;

// ----------------------------------------------------------------------
// Backend names — the registry grammar
// ----------------------------------------------------------------------

/// A parsed backend selection — the value of `GRAPHENE_BACKEND` or
/// `SolveOptions::backend`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendSpec {
    /// The cycle-modelled IPU simulator (the framework under study).
    IpuSim,
    /// Native f64 CPU baseline (the HYPRE analogue); `parallel` selects
    /// rayon row-block parallelism for the SpMVs.
    Cpu { parallel: bool },
    /// The H100 roofline performance model (the cuSPARSE analogue):
    /// real f64 numerics, analytically modelled seconds.
    GpuModel,
}

/// Every name [`BackendSpec::parse`] accepts, in display order.
pub const KNOWN_BACKENDS: &[&str] = &["ipu-sim", "cpu", "cpu:par", "gpu-model"];

/// Backend names that were removed, each with the name that now selects
/// what it used to. Selecting one is an error, not an unknown name.
const REMOVED_BACKENDS: &[(&str, &str)] =
    &[("ipu-sim:fused", "ipu-sim (SpMV and the ILU(0) sweeps run as kernel instructions there)")];

/// Variables `GRAPHENE_BACKEND` replaced, each with the name that now
/// selects what it used to. Setting one is an error, not a silent ignore.
const REMOVED_VARIABLES: &[(&str, &str)] = &[
    ("GRAPHENE_PAR", "ipu-sim (the tile-parallel schedule is gone)"),
    ("GRAPHENE_NATIVE", "ipu-sim (SpMV and the ILU(0) sweeps run as kernel instructions there)"),
    ("GRAPHENE_LEGACY_INTERP", "ipu-sim (the tree-walking interpreter is gone)"),
    ("GRAPHENE_NO_OPT", "ipu-sim (the graph compiler has one pipeline)"),
];

impl BackendSpec {
    /// Parse a backend name from the registry grammar. Unknown names are
    /// errors listing the known spellings — a typo'd backend silently
    /// running the default would invalidate a whole evaluation — and a
    /// removed one (`REMOVED_BACKENDS`) is an error naming its replacement.
    pub fn parse(s: &str) -> Result<BackendSpec, String> {
        let name = s.trim().to_ascii_lowercase();
        if let Some((_, replacement)) = REMOVED_BACKENDS.iter().find(|(old, _)| *old == name) {
            return Err(format!(
                "GRAPHENE_BACKEND: backend `{name}` was removed; select GRAPHENE_BACKEND={replacement}"
            ));
        }
        match name.as_str() {
            "ipu-sim" => Ok(BackendSpec::IpuSim),
            "cpu" => Ok(BackendSpec::Cpu { parallel: false }),
            "cpu:par" => Ok(BackendSpec::Cpu { parallel: true }),
            "gpu-model" => Ok(BackendSpec::GpuModel),
            other => Err(format!(
                "GRAPHENE_BACKEND: unknown backend `{other}` (known: {})",
                KNOWN_BACKENDS.join(", ")
            )),
        }
    }

    /// Canonical registry name (the string [`parse`](Self::parse) maps back).
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::IpuSim => "ipu-sim",
            BackendSpec::Cpu { parallel: false } => "cpu",
            BackendSpec::Cpu { parallel: true } => "cpu:par",
            BackendSpec::GpuModel => "gpu-model",
        }
    }

    /// Backend family (and plan-cache key component): the simulator, or
    /// one of the baselines.
    pub fn family(&self) -> &'static str {
        match self {
            BackendSpec::IpuSim => "ipu-sim",
            BackendSpec::Cpu { .. } => "cpu",
            BackendSpec::GpuModel => "gpu-model",
        }
    }

    /// Read `GRAPHENE_BACKEND`: `Ok(None)` when unset or empty (CI matrix
    /// templating produces empty strings for absent legs). A removed
    /// variable (`REMOVED_VARIABLES`) set to a non-empty value is an error
    /// naming its replacement.
    pub fn from_env() -> Result<Option<BackendSpec>, String> {
        BackendSpec::from_vars(|k| std::env::var(k).ok())
    }

    /// [`from_env`](Self::from_env) over an arbitrary variable lookup.
    fn from_vars(get: impl Fn(&str) -> Option<String>) -> Result<Option<BackendSpec>, String> {
        for (var, replacement) in REMOVED_VARIABLES {
            if get(var).is_some_and(|v| !v.trim().is_empty()) {
                return Err(format!(
                    "{var} was removed; unset it and select GRAPHENE_BACKEND={replacement}"
                ));
            }
        }
        match get("GRAPHENE_BACKEND").as_deref().map(str::trim) {
            None | Some("") => Ok(None),
            Some(name) => BackendSpec::parse(name).map(Some),
        }
    }
}

// ----------------------------------------------------------------------
// Capabilities
// ----------------------------------------------------------------------

/// What a backend can honestly do. Callers check before asking; the
/// runner turns a mismatch into a typed error instead of a panic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// Reports bit-deterministic device cycles ([`Timing::Cycles`]).
    pub cycle_accounting: bool,
    /// Reports measured host wall-clock time ([`Timing::Wall`]).
    pub wall_clock: bool,
    /// Reports analytically modelled seconds ([`Timing::Modelled`]).
    pub modelled_time: bool,
    /// Honours deterministic fault-injection plans.
    pub fault_injection: bool,
    /// Supports the cost-model auto-tuner (plan-cache keyed by backend
    /// family — see the `tune` crate).
    pub auto_tuning: bool,
    /// Produces per-step performance attribution (`SolveReport.perf`).
    pub perf_attribution: bool,
    /// Uses host thread parallelism for its kernels.
    pub parallel_host: bool,
}

impl Capabilities {
    /// The capabilities in `required` that this matrix lacks, by field
    /// name — empty when every requirement is met. The handle pool
    /// ([`pool::BackendPool`]) refuses construction when this is
    /// non-empty, naming exactly what is missing.
    pub fn missing(&self, required: Capabilities) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut need = |want: bool, have: bool, name: &'static str| {
            if want && !have {
                out.push(name);
            }
        };
        need(required.cycle_accounting, self.cycle_accounting, "cycle_accounting");
        need(required.wall_clock, self.wall_clock, "wall_clock");
        need(required.modelled_time, self.modelled_time, "modelled_time");
        need(required.fault_injection, self.fault_injection, "fault_injection");
        need(required.auto_tuning, self.auto_tuning, "auto_tuning");
        need(required.perf_attribution, self.perf_attribution, "perf_attribution");
        need(required.parallel_host, self.parallel_host, "parallel_host");
        out
    }

    /// Does this matrix satisfy every capability `required` asks for?
    pub fn covers(&self, required: Capabilities) -> bool {
        self.missing(required).is_empty()
    }
}

// ----------------------------------------------------------------------
// Errors
// ----------------------------------------------------------------------

/// Typed backend failure. `Unsupported` is the capability-mismatch
/// contract: asking a backend for something its [`Capabilities`] deny
/// (fault injection on the GPU model, a solver the CPU baseline does not
/// implement) is a structured refusal, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// No backend registered under this name.
    Unknown(String),
    /// The plan (or an execution option) needs a capability this backend
    /// does not have.
    Unsupported { backend: String, what: String },
    /// The backend accepted the plan but execution failed.
    Failed { backend: String, reason: String },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unknown(name) => {
                write!(f, "unknown backend `{name}` (known: {})", KNOWN_BACKENDS.join(", "))
            }
            BackendError::Unsupported { backend, what } => {
                write!(f, "backend `{backend}` does not support {what}")
            }
            BackendError::Failed { backend, reason } => {
                write!(f, "backend `{backend}` failed: {reason}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

// ----------------------------------------------------------------------
// The plan and its results
// ----------------------------------------------------------------------

/// The backend-agnostic description of one solve: the compiled plan
/// *structure* every backend replays — the shared CSR matrix (from
/// `crates/sparse`) and the solver hierarchy in its JSON wire format
/// (`SolverConfig::to_value`). Backends lower this to their own form in
/// [`Backend::prepare`]: the simulator compiles a graph program, the CPU
/// baseline picks an f64 kernel chain, the GPU model derives level sets.
#[derive(Clone, Debug)]
pub struct SolvePlan {
    pub a: Rc<CsrMatrix>,
    /// Solver configuration, internally tagged (`"type"`) JSON.
    pub solver: Json,
    /// Record the per-iteration true-residual history.
    pub record_history: bool,
}

/// Time in the domain the backend can defend — never silently collapsed
/// into one scalar across backends (see the module docs).
#[derive(Clone, Debug)]
pub enum Timing {
    /// Bit-deterministic simulated device cycles and their seconds at
    /// the modelled clock.
    Cycles { stats: CycleStats, seconds: f64 },
    /// Measured host wall-clock seconds.
    Wall { seconds: f64 },
    /// Analytically modelled seconds (no measurement happened).
    Modelled { seconds: f64 },
}

impl Timing {
    /// Seconds in this timing's own domain.
    pub fn seconds(&self) -> f64 {
        match self {
            Timing::Cycles { seconds, .. }
            | Timing::Wall { seconds }
            | Timing::Modelled { seconds } => *seconds,
        }
    }

    /// Wire name for the report's `backend.timing` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Timing::Cycles { .. } => "cycle-model",
            Timing::Wall { .. } => "wall-clock",
            Timing::Modelled { .. } => "roofline-model",
        }
    }

    /// The device cycle profile, when this backend counts cycles.
    pub fn cycle_stats(&self) -> Option<&CycleStats> {
        match self {
            Timing::Cycles { stats, .. } => Some(stats),
            _ => None,
        }
    }
}

/// Everything one backend execution produced.
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Solution in global row order, f64.
    pub x: Vec<f64>,
    /// True relative residual ‖b−Ax‖/‖b‖ recomputed by the backend host-
    /// side in f64 (never trusted from the device).
    pub residual: f64,
    /// Inner iterations executed.
    pub iterations: usize,
    /// (iteration, true relative residual) samples, if recorded.
    pub history: Vec<(usize, f64)>,
    /// Time in the backend's own accounting domain.
    pub timing: Timing,
    /// The full schema-v3 report (its `backend` section names this
    /// backend) — what the unified reporter aggregates.
    pub report: SolveReport,
}

// ----------------------------------------------------------------------
// The trait pair
// ----------------------------------------------------------------------

/// A device that can replay a [`SolvePlan`].
pub trait Backend {
    /// Registry name (`"ipu-sim"`, `"cpu:par"`, `"gpu-model"`, ...).
    fn name(&self) -> String;
    /// Backend family (`"ipu-sim"` | `"cpu"` | `"gpu-model"`) — the
    /// plan-cache key component.
    fn family(&self) -> &'static str;
    /// What this backend can honestly do.
    fn capabilities(&self) -> Capabilities;
    /// Lower the plan to this backend's executable form. Fails with
    /// [`BackendError::Unsupported`] when the solver hierarchy needs
    /// something the backend cannot do.
    fn prepare(&self, plan: &SolvePlan) -> Result<Box<dyn PreparedPlan>, BackendError>;
}

/// A lowered plan, ready to execute against concrete data.
pub trait PreparedPlan {
    /// Solve for right-hand side `b` from initial guess `x0` (zeros when
    /// `None`).
    fn execute(&mut self, b: &[f64], x0: Option<&[f64]>) -> Result<BackendRun, BackendError>;

    /// Free what the plan holds between executes; the next `execute`
    /// rebuilds it, with the same results. A no-op unless the backend holds
    /// something (the simulated IPU holds its compiled device).
    fn release(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_round_trips() {
        for name in KNOWN_BACKENDS {
            let spec = BackendSpec::parse(name).unwrap();
            assert_eq!(spec.name(), *name, "canonical name must round-trip");
        }
        // Case/whitespace-insensitive.
        assert_eq!(BackendSpec::parse(" CPU:PAR ").unwrap(), BackendSpec::Cpu { parallel: true });
        assert_eq!(BackendSpec::parse(" IPU-Sim").unwrap(), BackendSpec::IpuSim);
    }

    #[test]
    fn unknown_names_error_with_the_known_list() {
        // The spellings of the deleted engine paths are unknown too.
        let removed = ["ipu-sim:seq", "ipu-sim:native", "ipu-sim:legacy", "ipu-sim:par"];
        for bad in ["tpu", "ipu-sim:vector", "cpu:simd", "gpu", "ipu"].into_iter().chain(removed) {
            let e = BackendSpec::parse(bad).unwrap_err();
            assert!(e.contains("unknown backend"), "{e}");
            assert!(e.contains("ipu-sim, cpu") && e.contains("gpu-model"), "{e}");
        }
    }

    #[test]
    fn families_partition_the_registry() {
        assert_eq!(BackendSpec::parse("ipu-sim").unwrap().family(), "ipu-sim");
        assert_eq!(BackendSpec::parse("cpu:par").unwrap().family(), "cpu");
        assert_eq!(BackendSpec::parse("gpu-model").unwrap().family(), "gpu-model");
    }

    // ---- the environment ----

    fn from_vars(vars: &[(&str, &str)]) -> Result<Option<BackendSpec>, String> {
        BackendSpec::from_vars(|k| {
            vars.iter().find(|(name, _)| *name == k).map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn graphene_backend_selects_and_empty_counts_as_unset() {
        assert_eq!(from_vars(&[]), Ok(None));
        assert_eq!(from_vars(&[("GRAPHENE_BACKEND", "  ")]), Ok(None));
        assert_eq!(
            from_vars(&[("GRAPHENE_BACKEND", " cpu:par ")]),
            Ok(Some(BackendSpec::Cpu { parallel: true }))
        );
        assert!(from_vars(&[("GRAPHENE_BACKEND", "ipu-sim:seq")])
            .unwrap_err()
            .contains("unknown backend"));
    }

    #[test]
    fn a_removed_variable_is_an_error_naming_its_replacement() {
        for (var, value, replacement) in [
            ("GRAPHENE_PAR", "1", "GRAPHENE_BACKEND=ipu-sim (the tile-parallel schedule is gone)"),
            ("GRAPHENE_PAR", "0", "GRAPHENE_BACKEND=ipu-sim (the tile-parallel schedule is gone)"),
            ("GRAPHENE_NATIVE", "1", "GRAPHENE_BACKEND=ipu-sim (SpMV and the ILU(0) sweeps"),
            ("GRAPHENE_NATIVE", "0", "GRAPHENE_BACKEND=ipu-sim (SpMV and the ILU(0) sweeps"),
            ("GRAPHENE_LEGACY_INTERP", "garbage", "GRAPHENE_BACKEND=ipu-sim "),
            ("GRAPHENE_NO_OPT", "1", "GRAPHENE_BACKEND=ipu-sim (the graph compiler has one"),
        ] {
            // Whatever GRAPHENE_BACKEND says, and whatever the value.
            for backend in [None, Some("cpu"), Some("ipu-sim")] {
                let mut vars = vec![(var, value)];
                vars.extend(backend.map(|b| ("GRAPHENE_BACKEND", b)));
                let e = from_vars(&vars).unwrap_err();
                assert!(e.contains(var) && e.contains("was removed"), "{e}");
                assert!(e.contains(replacement), "{e}");
            }
            // Empty still counts as unset.
            assert_eq!(from_vars(&[(var, "")]), Ok(None));
        }
    }

    /// The removed name is an error naming its replacement, through the
    /// parser and through the variable, however it is spelled; it is not an
    /// unknown backend, and nothing panics.
    #[test]
    fn a_removed_backend_name_is_an_error_naming_its_replacement() {
        for name in ["ipu-sim:fused", " IPU-SIM:Fused "] {
            for e in [
                BackendSpec::parse(name).unwrap_err(),
                from_vars(&[("GRAPHENE_BACKEND", name)]).unwrap_err(),
            ] {
                assert!(e.contains("`ipu-sim:fused` was removed"), "{e}");
                assert!(e.contains("select GRAPHENE_BACKEND=ipu-sim "), "{e}");
                assert!(!e.contains("unknown backend"), "{e}");
            }
        }
        assert!(!KNOWN_BACKENDS.contains(&"ipu-sim:fused"));
    }

    #[test]
    fn timing_kinds_name_their_domain() {
        assert_eq!(Timing::Wall { seconds: 1.0 }.kind(), "wall-clock");
        assert_eq!(Timing::Modelled { seconds: 1.0 }.kind(), "roofline-model");
        let t = Timing::Cycles { stats: CycleStats::new(1), seconds: 0.5 };
        assert_eq!(t.kind(), "cycle-model");
        assert_eq!(t.seconds(), 0.5);
        assert!(t.cycle_stats().is_some());
        assert!(Timing::Wall { seconds: 1.0 }.cycle_stats().is_none());
    }

    #[test]
    fn backend_error_display_is_structured() {
        let e = BackendError::Unsupported {
            backend: "gpu-model".into(),
            what: "fault injection".into(),
        };
        assert_eq!(e.to_string(), "backend `gpu-model` does not support fault injection");
        assert!(BackendError::Unknown("tpu".into()).to_string().contains("known:"));
    }
}
