//! # graph — the Poplar-style programming model
//!
//! Poplar programs consist of three artifacts (paper §II-A):
//!
//! 1. a **dataflow graph**: tensors (with an explicit mapping of elements to
//!    tiles) and *vertices* — codelet instances bound to tensor slices —
//!    grouped into **compute sets** of parallel-executable vertices;
//! 2. an **execution schedule**: a DAG of *program steps* (execute a
//!    compute set, copy/exchange tensors, loop, branch, call the host);
//! 3. **codelets**: the per-tile computational kernels.
//!
//! This crate reproduces that model against the [`ipu_sim`] machine.
//! Codelets are not C++ compiled to machine code but a small, typed,
//! dynamically-checked IR ([`codelet`]) interpreted with *per-operation
//! cycle accounting* — every arithmetic node charges the paper's Table I
//! cost for its runtime type, every BSP superstep takes the per-tile
//! maximum, every exchange is costed by the fabric model. The observable
//! behaviour (results + cycle profile) matches what Poplar's profiler
//! reports on real hardware; only the substrate differs.
//!
//! The [`dsl`](https://crates.io/crates/graphene-dsl) crate layers CodeDSL
//! and TensorDSL on top of this API; nothing here is DSL-specific.

pub mod codelet;
pub mod compute;
pub mod engine;
pub mod graph;
pub mod kernels;
pub mod passes;
pub mod perf;
pub mod plan;
pub mod program;
pub mod tensor;

pub use codelet::{
    BinOp, Charge, Codelet, CodeletId, Expr, LocalId, ParamDecl, ParamId, Stmt, UnOp, Value,
};
pub use compute::{ComputeSet, ComputeSetId, Vertex, VertexKind};
pub use engine::{Engine, EngineOptions, FaultState};
pub use graph::{CompileError, Executable, Graph};
pub use kernels::{FusedKernel, KernelTable};
pub use passes::parse_flag;
pub use plan::{ExecPlan, PlanStep, StepId};
pub use program::{ExchangeStep, Prog};
pub use tensor::{TensorChunk, TensorDef, TensorId};
