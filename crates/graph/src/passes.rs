//! The graph compiler's pass pipeline.
//!
//! `Graph::compile` lowers the [`Prog`] tree into an [`ExecPlan`] arena and
//! runs it through the passes in this module. *All* communication planning
//! lives here — the engine replays precomputed steps and never derives a
//! broadcast, an [`ExchangeProgram`] or a sync decision at run time (the
//! Poplar property the paper's BSP cost claims lean on: the compiler
//! schedules everything, the runtime replays a static plan).
//!
//! Pipeline (one, always the same):
//!
//! 1. **lowering** — structural translation of the `Prog` tree into arena
//!    steps (no costs yet), one plan step per source step; collects every
//!    `Callback` id for the engine's run-entry registration check.
//! 2. **`broadcast-planning`** — computes each `Execute` step's
//!    compiler-inserted broadcast (operand chunk walk, region dedup on the
//!    real `(tensor, start, len)` key), BSP sync cost and tile-grouped
//!    vertex spans.
//! 3. **`exchange-planning`** — resolves each `Exchange` step's
//!    `BlockCopy`s, fabric cycles and sync decision, and each `Copy`
//!    step's per-tile memcpy cycles.
//!
//! Every pass emits a [`PassStat`] (steps before/after + counters) into
//! the [`CompileReport`] stamped on the `Executable`.

use std::collections::{BTreeMap, HashSet};

use ipu_sim::exchange::{BlockCopy, ExchangeProgram, RegionKey};
use ipu_sim::model::{IpuModel, TileId};
use profile::{CompileReport, PassStat};

use crate::compute::ComputeSetId;
use crate::graph::Graph;
use crate::plan::{CopyStep, ExchangePhase, ExecPlan, ExecuteStep, PlanStep, StepId};
use crate::program::{ElemCopy, Prog};
use crate::tensor::TensorId;
use ipu_sim::cost::Op;

/// Compile-time options: none. The type is kept, field-less, because the
/// host benchmark package (`benchmark/`) calls
/// `DslCtx::build_engine_with(CompileOptions::default())`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileOptions;

/// The one grammar of the on/off variables (`GRAPHENE_TUNE`,
/// `GRAPHENE_BUDGET_*`): empty means unset (CI matrix
/// templating produces empty strings for legs that leave a key out),
/// `1/true/on/yes` and `0/false/off/no` in any case, and a typo is an
/// error rather than a silent default.
pub fn parse_flag(var: &str, value: &str) -> Result<Option<bool>, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "" => Ok(None),
        "1" | "true" | "on" | "yes" => Ok(Some(true)),
        "0" | "false" | "off" | "no" => Ok(Some(false)),
        other => Err(format!(
            "{var}: unrecognised value `{other}` (expected 0/1/true/false/on/off/yes/no)"
        )),
    }
}

/// Does the tile set span more than one chip?
pub(crate) fn spans_chips(model: &IpuModel, tiles: impl IntoIterator<Item = TileId>) -> bool {
    let mut it = tiles.into_iter();
    match it.next() {
        None => false,
        Some(first) => it.any(|t| !model.same_chip(first, t)),
    }
}

// ----------------------------------------------------------------------
// Step planners — the single home of communication/sync derivation,
// called by the compile-time passes over the arena.
// ----------------------------------------------------------------------

/// Plan one `Prog::Execute`: the compiler-inserted broadcast for operands
/// resident on other tiles, the BSP sync cost, and the tile-grouped
/// vertex spans for the tile-parallel schedule.
pub fn plan_execute(graph: &Graph, cs_id: ComputeSetId) -> ExecuteStep {
    let cs = &graph.compute_sets[cs_id];
    let model = &graph.model;
    let cost = &graph.cost;

    // The fabric moves each source region to each destination tile once,
    // however many vertices on that tile read it — dedup on
    // `(region, dst_tile)`. Regions are keyed by the real
    // `(tensor, start, len)` tuple, so distinct regions can never merge.
    let mut seen: HashSet<(RegionKey, TileId)> = HashSet::new();
    let mut bcast: Vec<BlockCopy> = Vec::new();
    for v in &cs.vertices {
        for op in &v.operands {
            let t = &graph.tensors[op.tensor];
            let end = op.start + op.len;
            let mut i = op.start;
            while i < end {
                let chunk = t.chunk_of(i).expect("slice validated at compile time");
                let stop = chunk.end().min(end);
                if chunk.tile != v.tile {
                    let src_region = RegionKey::new(op.tensor, i, stop - i);
                    if seen.insert((src_region, v.tile)) {
                        bcast.push(BlockCopy {
                            src_tile: chunk.tile,
                            dst_tile: v.tile,
                            bytes: (stop - i) * t.dtype.size_bytes(),
                            src_region,
                        });
                    }
                }
                i = stop;
            }
        }
    }

    // BSP sync before the compute set: every participating tile takes
    // part in the barrier — including the *source* tiles of the
    // compiler-inserted broadcast, which may sit on another chip even
    // when the vertices themselves do not.
    let tiles = cs.tiles();
    let participants = tiles.iter().copied().chain(bcast.iter().map(|c| c.src_tile));
    let sync_cycles = if spans_chips(model, participants) {
        cost.sync_inter_ipu_cycles
    } else {
        cost.sync_on_chip_cycles
    };

    // Vertex indices grouped by tile (tile-ascending, program order
    // within a tile) — the tile-parallel schedule's work list.
    let mut groups: BTreeMap<TileId, Vec<usize>> = BTreeMap::new();
    for (i, v) in cs.vertices.iter().enumerate() {
        groups.entry(v.tile).or_default().push(i);
    }

    let bcast = ExchangeProgram::new(bcast);
    let bcast_cycles = bcast.cycles(model, cost);
    ExecuteStep {
        cs: cs_id,
        name: cs.name.clone(),
        bcast_name: format!("bcast:{}", cs.name),
        bcast,
        bcast_cycles,
        sync_cycles,
        tile_groups: groups.into_iter().collect(),
    }
}

/// Plan one `Prog::Exchange`: resolve the element copies to costed
/// `BlockCopy`s and decide the sync span.
pub fn plan_exchange(graph: &Graph, name: String, copies: Vec<ElemCopy>) -> ExchangePhase {
    let model = &graph.model;
    let cost = &graph.cost;
    let blocks: Vec<BlockCopy> = copies
        .iter()
        .map(|c| {
            let s = &graph.tensors[c.src];
            let d = &graph.tensors[c.dst];
            BlockCopy {
                src_tile: s.tile_of(c.src_start).expect("validated"),
                dst_tile: d.tile_of(c.dst_start).expect("validated"),
                bytes: c.len * s.dtype.size_bytes(),
                src_region: RegionKey::new(c.src, c.src_start, c.len),
            }
        })
        .collect();
    // The barrier before an exchange spans every participating tile; a
    // copy that crosses chips needs the inter-IPU sync, exactly as
    // `plan_execute` charges it for compute sets.
    let participants = blocks.iter().flat_map(|c| [c.src_tile, c.dst_tile]);
    let sync_cycles = if spans_chips(model, participants) {
        cost.sync_inter_ipu_cycles
    } else {
        cost.sync_on_chip_cycles
    };
    let program = ExchangeProgram::new(blocks);
    let cycles = program.cycles(model, cost);
    ExchangePhase { name, sync_cycles, program, cycles, copies }
}

/// Plan one `Prog::Copy`: the per-tile worker-parallel memcpy cycles.
pub fn plan_copy(graph: &Graph, src: TensorId, dst: TensorId) -> CopyStep {
    let def = &graph.tensors[src];
    let cost = &graph.cost;
    let workers = graph.model.workers_per_tile as u64;
    let move_cost = cost.op_cycles(Op::Load, def.dtype) + cost.op_cycles(Op::Store, def.dtype);
    let per_tile: Vec<(TileId, u64)> = def
        .chunks
        .iter()
        .map(|c| {
            (c.tile, cost.worker_spawn_cycles + (c.total as u64 * move_cost).div_ceil(workers))
        })
        .collect();
    CopyStep { src, dst, name: format!("copy:{}", def.name), per_tile }
}

// ----------------------------------------------------------------------
// Lowering
// ----------------------------------------------------------------------

/// Lower a `Prog` tree to an unplanned arena skeleton. `Execute` /
/// `Exchange` / `Copy` steps carry their source references but no costs;
/// the mandatory planning passes fill them in. Collects every `Callback`
/// id mentioned anywhere in the tree (reachable or not) so the engine can
/// reject unregistered callbacks at run entry.
fn lower(graph: &Graph, prog: &Prog, plan: &mut ExecPlan) -> StepId {
    match prog {
        Prog::Nop => plan.push(PlanStep::Nop),
        Prog::Seq(steps) => {
            let children: Vec<StepId> = steps.iter().map(|s| lower(graph, s, plan)).collect();
            plan.push(PlanStep::Seq(children))
        }
        Prog::Execute(cs) => {
            plan.push(PlanStep::Execute(ExecuteStep { cs: *cs, ..ExecuteStep::default() }))
        }
        Prog::Exchange(ex) => plan.push(PlanStep::Exchange(ExchangePhase {
            name: ex.name.clone(),
            copies: ex.copies.clone(),
            ..ExchangePhase::default()
        })),
        Prog::Copy { src, dst } => {
            plan.push(PlanStep::Copy(CopyStep { src: *src, dst: *dst, ..CopyStep::default() }))
        }
        Prog::Repeat(n, body) => {
            let b = lower(graph, body, plan);
            plan.push(PlanStep::Repeat(*n, b))
        }
        Prog::If { pred, then, otherwise } => {
            let t = lower(graph, then, plan);
            let o = lower(graph, otherwise, plan);
            plan.push(PlanStep::If {
                pred: *pred,
                then: t,
                otherwise: o,
                sync_cycles: graph.cost.sync_on_chip_cycles,
            })
        }
        Prog::While { cond, pred, body } => {
            let c = lower(graph, cond, plan);
            let b = lower(graph, body, plan);
            plan.push(PlanStep::While {
                cond: c,
                pred: *pred,
                body: b,
                sync_cycles: graph.cost.sync_on_chip_cycles,
            })
        }
        Prog::Label(name, body) => {
            let b = lower(graph, body, plan);
            plan.push(PlanStep::Label(name.clone(), b))
        }
        Prog::Callback(id) => {
            if !plan.callback_ids.contains(id) {
                plan.callback_ids.push(*id);
            }
            plan.push(PlanStep::Callback(*id))
        }
    }
}

// ----------------------------------------------------------------------
// Passes
// ----------------------------------------------------------------------

/// Fill every `Execute` step's broadcast, sync and tile groups.
fn pass_broadcast_planning(graph: &Graph, plan: &mut ExecPlan) -> PassStat {
    let mut stat = PassStat::new("broadcast-planning", plan.num_dispatch_steps());
    for id in 0..plan.steps.len() {
        let cs = match &plan.steps[id] {
            PlanStep::Execute(es) => es.cs,
            _ => continue,
        };
        let es = plan_execute(graph, cs);
        stat.count("compute_sets", 1);
        stat.count("broadcast_copies", es.bcast.copies.len() as u64);
        stat.count("broadcast_bytes", es.bcast.total_bytes() as u64);
        plan.steps[id] = PlanStep::Execute(es);
    }
    stat.steps_after = plan.num_dispatch_steps();
    stat
}

/// Resolve every `Exchange` and `Copy` step.
fn pass_exchange_planning(graph: &Graph, plan: &mut ExecPlan) -> PassStat {
    let mut stat = PassStat::new("exchange-planning", plan.num_dispatch_steps());
    for step in &mut plan.steps {
        match step {
            PlanStep::Exchange(ph) => {
                let ExchangePhase { name, copies, .. } = std::mem::take(ph);
                *ph = plan_exchange(graph, name, copies);
                stat.count("exchange_phases", 1);
                stat.count("block_copies", ph.program.copies.len() as u64);
            }
            PlanStep::Copy(cp) => {
                *cp = plan_copy(graph, cp.src, cp.dst);
                stat.count("copy_steps", 1);
            }
            _ => {}
        }
    }
    stat.steps_after = plan.num_dispatch_steps();
    stat
}

// ----------------------------------------------------------------------
// Pass manager
// ----------------------------------------------------------------------

/// Lower `prog` and run the pass pipeline, returning the executable plan
/// and the per-pass compile report.
pub fn compile_plan(graph: &Graph, prog: &Prog) -> (ExecPlan, CompileReport) {
    let mut plan = ExecPlan::default();
    plan.root = lower(graph, prog, &mut plan);
    plan.callback_ids.sort_unstable();

    let passes =
        vec![pass_broadcast_planning(graph, &mut plan), pass_exchange_planning(graph, &mut plan)];
    let report = CompileReport {
        source_steps: prog.num_steps(),
        plan_steps: plan.num_dispatch_steps(),
        passes,
    };
    debug_assert_eq!(report.plan_steps, report.source_steps, "no pass adds or removes a step");
    (plan, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_sim::model::IpuModel;

    fn graph2() -> Graph {
        Graph::new(IpuModel::tiny(2))
    }

    #[test]
    fn callback_ids_include_unreachable_callbacks() {
        // A callback inside Repeat(0) never runs, but its id is still
        // collected so run-entry registration checks cover it.
        let g = graph2();
        let prog = Prog::Seq(vec![Prog::Callback(7), Prog::Repeat(0, Box::new(Prog::Callback(3)))]);
        let (plan, _) = compile_plan(&g, &prog);
        assert_eq!(plan.callback_ids, vec![3, 7]);
    }
}
