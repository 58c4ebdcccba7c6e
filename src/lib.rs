//! # graphene
//!
//! Facade crate for the `graphene-rs` workspace — a from-scratch Rust
//! reproduction of *"Accelerating Sparse Linear Solvers on Intelligence
//! Processing Units"* (IPPS 2025).
//!
//! The workspace layers, bottom-up:
//!
//! * [`twofloat`] — double-word arithmetic (Joldes et al. / Lange–Rump) and
//!   software-emulated double precision.
//! * [`ipu_sim`] — a deterministic, cycle-modelled simulator of the
//!   GraphCore Mk2 IPU: tiles, SRAM, six worker threads per tile, BSP
//!   supersteps, and the all-to-all exchange fabric.
//! * [`graph`] — the Poplar-style programming model: tensors with tile
//!   mappings, compute sets, program steps, codelets (a typed stack VM),
//!   the graph compiler and the engine, which runs each vertex on its
//!   codelet's lowered form — for the solvers' SpMV and triangular sweeps
//!   one native kernel instruction — in program order on one host thread.
//! * [`dsl`] — CodeDSL (tile-local codelet description) and TensorDSL
//!   (global tensor expressions with lazy, fusing materialisation and a
//!   control-flow stack).
//! * [`sparse`] — host-side sparse matrix formats, generators, MatrixMarket
//!   IO, row-wise partitioning, halo-region reordering and level-set
//!   scheduling.
//! * [`core`](graphene_core) — the paper's contribution proper: distributed
//!   matrices/vectors on tiles, SpMV with blockwise halo exchange, the
//!   solver & preconditioner suite (PBiCGStab, Gauss-Seidel, ILU(0), DILU,
//!   Jacobi), mixed-precision iterative refinement and JSON solver
//!   configuration.
//! * [`baselines`] — the CPU (native Rust, sequential + rayon) and GPU
//!   (roofline model) comparators used by the evaluation benches.
//! * [`backend`] — the device/backend abstraction unifying the simulator
//!   and the baselines behind one `Backend` trait and the
//!   `GRAPHENE_BACKEND` registry grammar — `ipu-sim`, `cpu`, `cpu:par`,
//!   `gpu-model`; the one selector of
//!   how a solve executes (see [`graphene_core::backends`] for the
//!   registry itself).
//! * [`serve`] — the fault-tolerant multi-tenant solve service: bounded
//!   per-tenant queues with deficit-round-robin fairness, per-job
//!   deadlines, seeded retry backoff, poison-job quarantine,
//!   worker-crash containment and chaos-storm testing with an
//!   independent SDC judge.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.

pub use backend;
pub use baselines;
pub use dsl;
pub use graph;
pub use graphene_core;
pub use ipu_sim;
pub use profile;
pub use serve;
pub use sparse;
pub use twofloat;

/// Convenience prelude re-exporting the types most programs need.
pub mod prelude {
    pub use dsl::prelude::*;
    pub use graphene_core::prelude::*;
    pub use ipu_sim::IpuModel;
    pub use sparse::{CsrMatrix, ModifiedCsr};
    pub use twofloat::{SoftDouble, TwoF32, TwoFloat};
}
