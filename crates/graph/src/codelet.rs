//! The codelet IR and its two cycle-accounting interpreters.
//!
//! A codelet is the unit of computation bound to a tile — Poplar's
//! C++-compiled vertex code. Here it is a small structured IR (expressions
//! and statements over *dynamically typed* values, matching the paper's
//! dynamically typed DSLs) executed by a tree-walking interpreter that
//! charges the [`ipu_sim::CostModel`] for every operation it performs.
//! [`Interp`] walks the IR as built, discovering dtypes and charges node by
//! node; [`Lowered`] is the same codelet typed and costed once for the
//! storage dtypes of one vertex's operands and flattened into a register
//! program — what the engine runs, with `Interp` as its oracle. A codelet
//! that cannot be lowered is a compile error, not a slower route.
//!
//! Codelets access data exclusively through their declared **parameters**
//! (tensor slices handed to the vertex), mirroring the tile-local
//! perspective of CodeDSL: "algorithms … can only access parts of tensors
//! that are mapped to the executing tile".
//!
//! The pieces, in the order a vertex meets them:
//! - `ir`: values, operators (the one definition of every operator's
//!   semantics), expressions, statements, codelets and operand slices;
//! - `interp`: the dynamic interpreter;
//! - `lower`: the typing pass, and the lowered form it builds;
//! - `emit`: the flattening of a typed body into instructions;
//! - `kernels`: the solver templates run whole as one native loop;
//! - `machine`: the register machine that runs them.

mod emit;
mod interp;
mod ir;
mod kernels;
mod lower;
mod machine;
#[cfg(test)]
mod tests;

pub use interp::Interp;
pub use ir::{
    apply_bin, apply_un, BinOp, Codelet, CodeletId, Expr, LocalId, ParamData, ParamDecl, ParamId,
    Stmt, UnOp, Value,
};
pub use kernels::{
    backward_subst_template, dot_template, forward_subst_template, gauss_seidel_template,
    spmv_template, sum_template, F32Ops, Kernel, Native, Template,
};
pub use lower::{Charge, Lowered};
pub use machine::Regs;
