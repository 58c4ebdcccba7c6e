//! The lowered execution plan — the compiler's output IR.
//!
//! Poplar's defining property is that the *compiler* schedules all
//! communication and supersteps ahead of time; the runtime only replays a
//! static plan. This module is the simulator's equivalent of that compiled
//! artifact: [`ExecPlan`], a flat arena of [`PlanStep`]s lowered from the
//! [`Prog`](crate::program::Prog) tree by [`crate::passes`], in which
//!
//! * every `Execute` carries its precomputed broadcast
//!   [`ExchangeProgram`], sync cost and tile-grouped vertex spans;
//! * every `Exchange`/`Copy` carries its resolved [`BlockCopy`]s, fabric
//!   cycles and sync decision;
//! * control flow (`Repeat`/`If`/`While`/`Label`) is a structured
//!   reference into the arena.
//!
//! The engine walks this plan without deriving anything: no operand chunk
//! walks, no region hashing, no `ExchangeProgram` construction on the hot
//! path — all of that happened once, at `Graph::compile` time, inside the
//! pass pipeline (`crate::passes`).

use ipu_sim::exchange::ExchangeProgram;
use ipu_sim::model::TileId;

use crate::compute::ComputeSetId;
use crate::program::ElemCopy;
use crate::tensor::TensorId;

/// Index of a step in the plan arena.
pub type StepId = usize;

/// Precomputed execution data for one `Prog::Execute`.
#[derive(Clone, Debug, Default)]
pub struct ExecuteStep {
    pub cs: ComputeSetId,
    /// Compute-set name (owned here so the hot path never re-borrows the
    /// graph to format trace labels).
    pub name: String,
    /// Trace label of the compiler-inserted broadcast (`"bcast:{name}"`).
    pub bcast_name: String,
    /// Compiler-inserted pre-compute-set exchange for operands read from
    /// remote tiles; empty when every operand is tile-local.
    pub bcast: ExchangeProgram,
    /// Fabric cycles of `bcast` (0 when empty).
    pub bcast_cycles: u64,
    /// BSP barrier cost for this superstep (inter-IPU when the vertex
    /// tiles or broadcast sources span chips).
    pub sync_cycles: u64,
    /// The tiles with at least one vertex, ascending: the per-tile cycle
    /// list the engine fills.
    pub tiles: Vec<TileId>,
}

/// One resolved exchange phase: the sync decision, the costed fabric
/// program and the element copies to apply.
#[derive(Clone, Debug, Default)]
pub struct ExchangePhase {
    pub name: String,
    /// Barrier cost preceding this phase.
    pub sync_cycles: u64,
    /// The costed fabric program (resolved `BlockCopy`s).
    pub program: ExchangeProgram,
    /// Fabric cycles of `program`.
    pub cycles: u64,
    /// The element copies the host applies to storage.
    pub copies: Vec<ElemCopy>,
}

/// Precomputed execution data for one `Prog::Copy`.
#[derive(Clone, Debug, Default)]
pub struct CopyStep {
    pub src: TensorId,
    pub dst: TensorId,
    /// Trace label (`"copy:{src name}"`).
    pub name: String,
    /// Per-tile worker-parallel memcpy cycles, tile-ascending.
    pub per_tile: Vec<(TileId, u64)>,
}

/// One node of the lowered plan.
#[derive(Clone, Debug)]
pub enum PlanStep {
    /// Do nothing.
    Nop,
    /// Execute child steps in order.
    Seq(Vec<StepId>),
    /// One BSP superstep with its precomputed broadcast and sync.
    Execute(ExecuteStep),
    /// One `Prog::Exchange`: its sync, then its costed fabric program.
    Exchange(ExchangePhase),
    /// Whole-tensor on-tile copy with precomputed per-tile cycles.
    Copy(CopyStep),
    /// Fixed-trip-count loop over a child step.
    Repeat(u32, StepId),
    /// Branch on a scalar predicate tensor; the decision synchronises all
    /// tiles at the precomputed cost.
    If { pred: TensorId, then: StepId, otherwise: StepId, sync_cycles: u64 },
    /// `loop { cond; if !pred break; body }` with the per-test sync cost.
    While { cond: StepId, pred: TensorId, body: StepId, sync_cycles: u64 },
    /// Attribute the child's device time to a named scope.
    Label(String, StepId),
    /// Invoke a registered host callback.
    Callback(usize),
}

/// A compiled program: a flat step arena plus the root step.
#[derive(Clone, Debug, Default)]
pub struct ExecPlan {
    pub steps: Vec<PlanStep>,
    pub root: StepId,
    /// Every callback id referenced by a reachable step — checked against
    /// the registered callbacks at `Engine::run` entry.
    pub callback_ids: Vec<usize>,
}

impl ExecPlan {
    /// Append a step to the arena and return its id.
    pub fn push(&mut self, step: PlanStep) -> StepId {
        self.steps.push(step);
        self.steps.len() - 1
    }

    pub fn step(&self, id: StepId) -> &PlanStep {
        &self.steps[id]
    }

    /// Ids of all steps reachable from the root (an arena entry nothing
    /// points at is dead weight, not semantics).
    pub fn reachable(&self) -> Vec<StepId> {
        let mut seen = vec![false; self.steps.len()];
        let mut stack = vec![self.root];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id], true) {
                continue;
            }
            out.push(id);
            match &self.steps[id] {
                PlanStep::Seq(children) => stack.extend(children.iter().copied()),
                PlanStep::Repeat(_, c) | PlanStep::Label(_, c) => stack.push(*c),
                PlanStep::If { then, otherwise, .. } => {
                    stack.push(*then);
                    stack.push(*otherwise);
                }
                PlanStep::While { cond, body, .. } => {
                    stack.push(*cond);
                    stack.push(*body);
                }
                _ => {}
            }
        }
        out
    }

    /// Number of reachable *dispatchable* steps — what the engine hands to
    /// its step dispatcher per traversal: `Execute`, `Exchange`, `Copy`,
    /// `Callback`, and the predicate reads of `If`/`While`. Control-flow
    /// scaffolding (`Seq`, `Repeat`, `Label`) and `Nop` count zero. This is
    /// the `CompileReport`'s `plan_steps`.
    pub fn num_dispatch_steps(&self) -> usize {
        self.reachable()
            .into_iter()
            .filter(|&id| {
                matches!(
                    self.steps[id],
                    PlanStep::Execute(_)
                        | PlanStep::Exchange(_)
                        | PlanStep::Copy(_)
                        | PlanStep::Callback(_)
                        | PlanStep::If { .. }
                        | PlanStep::While { .. }
                )
            })
            .count()
    }

    /// Recompute `callback_ids` from the reachable steps (deduplicated,
    /// ascending).
    pub fn refresh_callback_ids(&mut self) {
        let mut ids: Vec<usize> = self
            .reachable()
            .into_iter()
            .filter_map(|id| match self.steps[id] {
                PlanStep::Callback(cb) => Some(cb),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        self.callback_ids = ids;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_ignores_orphans() {
        let mut p = ExecPlan::default();
        let a = p.push(PlanStep::Callback(3));
        let _orphan = p.push(PlanStep::Callback(9));
        let b = p.push(PlanStep::Nop);
        let seq = p.push(PlanStep::Seq(vec![a, b]));
        p.root = p.push(PlanStep::Label("top".into(), seq));
        let mut r = p.reachable();
        r.sort_unstable();
        assert_eq!(r, vec![a, b, seq, p.root]);
        assert_eq!(p.num_dispatch_steps(), 1); // only the callback
        p.refresh_callback_ids();
        assert_eq!(p.callback_ids, vec![3]); // orphan's id not included
    }

    #[test]
    fn dispatch_steps_count_control_flow_decisions() {
        let mut p = ExecPlan::default();
        let e = p.push(PlanStep::Execute(ExecuteStep::default()));
        let x = p.push(PlanStep::Exchange(ExchangePhase::default()));
        let n = p.push(PlanStep::Nop);
        let iff = p.push(PlanStep::If { pred: 0, then: e, otherwise: n, sync_cycles: 1 });
        let rep = p.push(PlanStep::Repeat(4, x));
        p.root = p.push(PlanStep::Seq(vec![iff, rep]));
        // Execute + Exchange + If decision = 3; Repeat/Seq/Nop free.
        assert_eq!(p.num_dispatch_steps(), 3);
    }
}
