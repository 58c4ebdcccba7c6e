//! # graphene-core — the solver framework
//!
//! The paper's primary contribution, assembled from the substrate crates:
//! a suite of nested, preconditioned sparse linear solvers expressed in
//! TensorDSL/CodeDSL and executed on the cycle-modelled IPU.
//!
//! * [`dist`] — the distributed system: modified-CSR matrix on tiles,
//!   distributed vectors with halo slots, blockwise halo exchange, SpMV
//!   and extended-precision residual kernels.
//! * [`solvers`] — PBiCGStab (§V-C), Gauss-Seidel (§V-D), ILU(0)/DILU
//!   (§V-E), Jacobi, identity, and Mixed-Precision Iterative Refinement
//!   (§V-B) with double-word or emulated-double extended precision. Any
//!   solver nests as a preconditioner of any other.
//! * [`config`] — the JSON solver-hierarchy configuration (§V).
//! * [`runner`] — the one-call host API and the [`runner::Plan`] behind
//!   it: partition a matrix, build the program, run it, return the
//!   solution with cycle statistics and residual history.
//! * [`env`] — the one place the process environment is read.
//! * [`autotune`] — opt-in cost-model auto-tuning (`GRAPHENE_TUNE=1` or
//!   `SolveOptions::tune`): scores partition/rows-per-tile/pass-toggle
//!   candidates by a modelled-cycle SpMV probe and caches winners on disk
//!   keyed by the matrix structure fingerprint (see the `tune` crate).
//! * [`backends`] — the device registry behind `GRAPHENE_BACKEND`: the
//!   IPU simulator (all three `ipu-sim` variants), the native-CPU baseline
//!   and the GPU roofline model behind one `backend::Backend` trait, with
//!   typed capability-mismatch refusals.
//! * [`resilience`] — structured solve outcomes ([`SolveError`] /
//!   [`SolveStatus`]), in-flight detectors (non-finite / divergence /
//!   stagnation), checkpoint-rollback recovery and the bounded
//!   graceful-degradation ladder that keep a solve honest when
//!   `ipu_sim::fault` injects hardware faults underneath it.

pub mod autotune;
pub mod backends;
pub mod config;
pub mod dist;
pub mod env;
pub mod resilience;
pub mod runner;
pub mod solvers;

pub use backends::{backend_for, resolve as resolve_backend, IpuSimBackend};
pub use config::SolverConfig;
pub use dist::DistSystem;
pub use resilience::{RecoveryPolicy, SolveError, SolveStatus};
pub use runner::{solve, solve_or_panic, SolveOptions, SolveResult};
pub use solvers::{solver_from_config, Solver};

/// Convenience prelude.
pub mod prelude {
    pub use crate::config::SolverConfig;
    pub use crate::dist::DistSystem;
    pub use crate::resilience::{RecoveryPolicy, SolveError, SolveStatus};
    pub use crate::runner::{solve, solve_or_panic, SolveOptions, SolveResult};
    pub use crate::solvers::{solver_from_config, Solver};
}
