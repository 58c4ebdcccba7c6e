//! The graph compiler's pass pipeline.
//!
//! `Graph::compile` lowers the [`Prog`] tree into an [`ExecPlan`] arena and
//! runs it through the passes in this module. *All* communication planning
//! lives here — the engine replays precomputed steps and never derives a
//! broadcast, an [`ExchangeProgram`] or a sync decision at run time (the
//! Poplar property the paper's BSP cost claims lean on: the compiler
//! schedules everything, the runtime replays a static plan).
//!
//! Pipeline:
//!
//! 1. **lowering** — structural translation of the `Prog` tree into arena
//!    steps (no costs yet); collects every `Callback` id for the engine's
//!    run-entry registration check.
//! 2. **`broadcast-planning`** *(mandatory)* — computes each `Execute`
//!    step's compiler-inserted broadcast (operand chunk walk, region
//!    dedup on the real `(tensor, start, len)` key), BSP sync cost and
//!    tile-grouped vertex spans.
//! 3. **`exchange-planning`** *(mandatory)* — resolves each
//!    `Exchange` phase's `BlockCopy`s, fabric cycles and sync decision,
//!    and each `Copy` step's per-tile memcpy cycles.
//! 4. **`cleanup`** *(optimising)* — removes `Nop`s, empty/singleton
//!    `Seq`s, `Repeat(0, _)` and label scopes with nothing inside. Only
//!    steps that record *nothing* are eliminated, so the cycle profile is
//!    bit-identical with the pass on or off.
//! 5. **`exchange-coalescing`** *(optimising)* — fuses adjacent
//!    `Exchange` dispatches inside a `Seq` into one multi-phase dispatch.
//!    Each phase keeps its own sync + exchange recording; only host
//!    dispatch overhead is removed.
//! 6. **`dead-code-analysis`** *(optimising, report-only)* — liveness of
//!    compute sets and tensors. Storage is indexed by `TensorId` and
//!    reachable from host APIs (`read_tensor`/callbacks), so nothing is
//!    deleted; the pass reports what a memory planner could reclaim.
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
use crate::program::{ExchangeStep, Prog};
use crate::tensor::TensorId;
use ipu_sim::cost::Op;

/// Compile-time options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the optimising passes (cleanup, coalescing, dead-code
    /// analysis). The mandatory planning passes always run. Disable with
    /// `GRAPHENE_NO_OPT=1` to get a plan that mirrors the source tree
    /// step for step.
    pub optimise: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { optimise: true }
    }
}

impl CompileOptions {
    /// Read `GRAPHENE_NO_OPT` through [`parse_flag`]: a truthy value
    /// disables the optimising passes, unset, empty or falsy enables them,
    /// anything else is an error naming the variable and the value.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var("GRAPHENE_NO_OPT").unwrap_or_default();
        Ok(CompileOptions { optimise: parse_flag("GRAPHENE_NO_OPT", &value)? != Some(true) })
    }
}

/// The one grammar of the on/off variables (`GRAPHENE_NO_OPT`,
/// `GRAPHENE_TUNE`, `GRAPHENE_BUDGET_*`): empty means unset (CI matrix
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
pub fn plan_exchange(graph: &Graph, ex: &ExchangeStep) -> ExchangePhase {
    let model = &graph.model;
    let cost = &graph.cost;
    let copies: Vec<BlockCopy> = ex
        .copies
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
    let participants = copies.iter().flat_map(|c| [c.src_tile, c.dst_tile]);
    let sync_cycles = if spans_chips(model, participants) {
        cost.sync_inter_ipu_cycles
    } else {
        cost.sync_on_chip_cycles
    };
    let program = ExchangeProgram::new(copies);
    let cycles = program.cycles(model, cost);
    ExchangePhase { name: ex.name.clone(), sync_cycles, program, cycles, copies: ex.copies.clone() }
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
        Prog::Exchange(ex) => plan.push(PlanStep::Exchange(vec![ExchangePhase {
            name: ex.name.clone(),
            copies: ex.copies.clone(),
            ..ExchangePhase::default()
        }])),
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

/// Mandatory: fill every `Execute` step's broadcast, sync and tile
/// groups.
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

/// Mandatory: resolve every `Exchange` phase and `Copy` step.
fn pass_exchange_planning(graph: &Graph, plan: &mut ExecPlan) -> PassStat {
    let mut stat = PassStat::new("exchange-planning", plan.num_dispatch_steps());
    for id in 0..plan.steps.len() {
        match &plan.steps[id] {
            PlanStep::Exchange(phases) => {
                let planned: Vec<ExchangePhase> = phases
                    .iter()
                    .map(|ph| {
                        plan_exchange(
                            graph,
                            &ExchangeStep { name: ph.name.clone(), copies: ph.copies.clone() },
                        )
                    })
                    .collect();
                stat.count("exchange_phases", planned.len() as u64);
                stat.count(
                    "block_copies",
                    planned.iter().map(|p| p.program.copies.len() as u64).sum(),
                );
                plan.steps[id] = PlanStep::Exchange(planned);
            }
            PlanStep::Copy(cp) => {
                let planned = plan_copy(graph, cp.src, cp.dst);
                stat.count("copy_steps", 1);
                plan.steps[id] = PlanStep::Copy(planned);
            }
            _ => {}
        }
    }
    stat.steps_after = plan.num_dispatch_steps();
    stat
}

/// Optimising: remove steps that record nothing — `Nop`s, empty and
/// singleton `Seq`s, `Repeat(0, _)`, `Repeat(_, <nothing>)` and `Label`
/// scopes whose body vanished. `If`/`While` always survive (their
/// decision syncs all tiles), with eliminated branches replaced by `Nop`.
fn pass_cleanup(plan: &mut ExecPlan) -> PassStat {
    let mut stat = PassStat::new("cleanup", plan.num_dispatch_steps());

    fn simplify(plan: &mut ExecPlan, id: StepId, stat: &mut PassStat) -> Option<StepId> {
        match plan.steps[id].clone() {
            PlanStep::Nop => {
                stat.count("nops_removed", 1);
                None
            }
            PlanStep::Seq(children) => {
                let mut out: Vec<StepId> = Vec::with_capacity(children.len());
                for c in children {
                    let Some(kept) = simplify(plan, c, stat) else { continue };
                    // Flatten nested sequences into the parent.
                    if let PlanStep::Seq(inner) = &plan.steps[kept] {
                        stat.count("seqs_flattened", 1);
                        out.extend(inner.iter().copied());
                    } else {
                        out.push(kept);
                    }
                }
                match out.len() {
                    0 => {
                        stat.count("empty_seqs_removed", 1);
                        None
                    }
                    1 => {
                        stat.count("seqs_unwrapped", 1);
                        Some(out[0])
                    }
                    _ => {
                        plan.steps[id] = PlanStep::Seq(out);
                        Some(id)
                    }
                }
            }
            PlanStep::Repeat(n, body) => {
                if n == 0 {
                    stat.count("zero_repeats_removed", 1);
                    return None;
                }
                match simplify(plan, body, stat) {
                    None => {
                        stat.count("empty_repeats_removed", 1);
                        None
                    }
                    Some(b) => {
                        plan.steps[id] = PlanStep::Repeat(n, b);
                        Some(id)
                    }
                }
            }
            PlanStep::Label(name, body) => match simplify(plan, body, stat) {
                // An empty label scope records no cycles (label entries
                // are created lazily on record), so dropping it leaves
                // the per-label partition bit-identical.
                None => {
                    stat.count("empty_labels_removed", 1);
                    None
                }
                Some(b) => {
                    plan.steps[id] = PlanStep::Label(name, b);
                    Some(id)
                }
            },
            PlanStep::If { pred, then, otherwise, sync_cycles } => {
                let nop = |plan: &mut ExecPlan| plan.push(PlanStep::Nop);
                let t = simplify(plan, then, stat).unwrap_or_else(|| nop(plan));
                let o = simplify(plan, otherwise, stat).unwrap_or_else(|| nop(plan));
                plan.steps[id] = PlanStep::If { pred, then: t, otherwise: o, sync_cycles };
                Some(id)
            }
            PlanStep::While { cond, pred, body, sync_cycles } => {
                let nop = |plan: &mut ExecPlan| plan.push(PlanStep::Nop);
                let c = simplify(plan, cond, stat).unwrap_or_else(|| nop(plan));
                let b = simplify(plan, body, stat).unwrap_or_else(|| nop(plan));
                plan.steps[id] = PlanStep::While { cond: c, pred, body: b, sync_cycles };
                Some(id)
            }
            PlanStep::Execute(_)
            | PlanStep::Exchange(_)
            | PlanStep::Copy(_)
            | PlanStep::Callback(_) => Some(id),
        }
    }

    let root = plan.root;
    plan.root = simplify(plan, root, &mut stat).unwrap_or_else(|| plan.push(PlanStep::Nop));
    stat.steps_after = plan.num_dispatch_steps();
    stat
}

/// Optimising: fuse adjacent `Exchange` dispatches inside each `Seq` into
/// one multi-phase dispatch. Every phase keeps its own sync and exchange
/// recording, so the cycle profile (and the trace's per-phase events) are
/// bit-identical; only host dispatch overhead is removed.
fn pass_exchange_coalescing(plan: &mut ExecPlan) -> PassStat {
    let mut stat = PassStat::new("exchange-coalescing", plan.num_dispatch_steps());
    for id in plan.reachable() {
        let PlanStep::Seq(children) = &plan.steps[id] else { continue };
        let children = children.clone();
        let mut out: Vec<StepId> = Vec::with_capacity(children.len());
        for c in children {
            if let (Some(&prev), PlanStep::Exchange(phases)) = (out.last(), &plan.steps[c]) {
                if matches!(plan.steps[prev], PlanStep::Exchange(_)) {
                    let phases = phases.clone();
                    if let PlanStep::Exchange(dst) = &mut plan.steps[prev] {
                        dst.extend(phases);
                    }
                    stat.count("exchanges_coalesced", 1);
                    continue;
                }
            }
            out.push(c);
        }
        plan.steps[id] = PlanStep::Seq(out);
    }
    stat.steps_after = plan.num_dispatch_steps();
    stat
}

/// Optimising, report-only: liveness of compute sets and tensors. The
/// engine's storage is indexed by `TensorId` and reachable through host
/// APIs (`read_tensor`, `write_tensor`, callbacks), so nothing is
/// deleted — the pass reports what a memory planner could reclaim.
fn pass_dead_code_analysis(graph: &Graph, plan: &mut ExecPlan) -> PassStat {
    let mut stat = PassStat::new("dead-code-analysis", plan.num_dispatch_steps());
    let mut live_cs: HashSet<ComputeSetId> = HashSet::new();
    let mut live_t: HashSet<TensorId> = HashSet::new();
    for id in plan.reachable() {
        match &plan.steps[id] {
            PlanStep::Execute(es) => {
                live_cs.insert(es.cs);
                for v in &graph.compute_sets[es.cs].vertices {
                    for op in &v.operands {
                        live_t.insert(op.tensor);
                    }
                }
            }
            PlanStep::Exchange(phases) => {
                for ph in phases {
                    for c in &ph.copies {
                        live_t.insert(c.src);
                        live_t.insert(c.dst);
                    }
                }
            }
            PlanStep::Copy(cp) => {
                live_t.insert(cp.src);
                live_t.insert(cp.dst);
            }
            PlanStep::If { pred, .. } | PlanStep::While { pred, .. } => {
                live_t.insert(*pred);
            }
            _ => {}
        }
    }
    let dead_cs = graph.compute_sets.len() - live_cs.len();
    let dead_tensors = (0..graph.tensors.len()).filter(|t| !live_t.contains(t)).collect::<Vec<_>>();
    let dead_bytes: usize = dead_tensors
        .iter()
        .map(|&t| {
            let def = &graph.tensors[t];
            def.chunks.iter().map(|c| c.total * def.dtype.size_bytes()).sum::<usize>()
        })
        .sum();
    stat.count("dead_compute_sets", dead_cs as u64);
    stat.count("dead_tensors", dead_tensors.len() as u64);
    stat.count("dead_bytes", dead_bytes as u64);
    stat.steps_after = plan.num_dispatch_steps();
    stat
}

// ----------------------------------------------------------------------
// Pass manager
// ----------------------------------------------------------------------

/// Lower `prog` and run the pass pipeline, returning the executable plan
/// and the per-pass compile report.
pub fn compile_plan(
    graph: &Graph,
    prog: &Prog,
    options: CompileOptions,
) -> (ExecPlan, CompileReport) {
    let mut plan = ExecPlan::default();
    plan.root = lower(graph, prog, &mut plan);
    plan.callback_ids.sort_unstable();

    let mut report = CompileReport {
        optimised: options.optimise,
        source_steps: prog.num_steps(),
        plan_steps: 0,
        passes: Vec::new(),
    };
    report.passes.push(pass_broadcast_planning(graph, &mut plan));
    report.passes.push(pass_exchange_planning(graph, &mut plan));
    if options.optimise {
        report.passes.push(pass_cleanup(&mut plan));
        report.passes.push(pass_exchange_coalescing(&mut plan));
        report.passes.push(pass_dead_code_analysis(graph, &mut plan));
    }
    report.plan_steps = plan.num_dispatch_steps();
    (plan, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ElemCopy;
    use crate::tensor::TensorDef;
    use ipu_sim::cost::DType;
    use ipu_sim::model::IpuModel;

    fn graph2() -> Graph {
        Graph::new(IpuModel::tiny(2))
    }

    #[test]
    fn cleanup_removes_only_silent_steps() {
        let mut g = graph2();
        let a = g.add_tensor(TensorDef::on_tile("a", DType::F32, 4, 0)).unwrap();
        let b = g.add_tensor(TensorDef::on_tile("b", DType::F32, 4, 1)).unwrap();
        let ex = ExchangeStep {
            name: "x".into(),
            copies: vec![ElemCopy { src: a, src_start: 0, dst: b, dst_start: 0, len: 4 }],
        };
        let prog = Prog::Seq(vec![
            Prog::Nop,
            Prog::Label("empty".into(), Box::new(Prog::Nop)),
            Prog::Repeat(0, Box::new(Prog::Exchange(ex.clone()))),
            Prog::Repeat(3, Box::new(Prog::Nop)),
            Prog::Seq(vec![]),
            Prog::Exchange(ex),
        ]);
        let (plan, report) = compile_plan(&g, &prog, CompileOptions { optimise: true });
        // Only the live exchange dispatch survives.
        assert_eq!(plan.num_dispatch_steps(), 1);
        let cleanup = report.pass("cleanup").unwrap();
        assert!(cleanup.counter("nops_removed") >= 2);
        assert_eq!(cleanup.counter("zero_repeats_removed"), 1);
        assert_eq!(cleanup.counter("empty_labels_removed"), 1);
        // Without optimisation the silent steps survive lowering: the
        // Repeat(0) body's exchange still counts as a dispatchable step.
        let (plan_no, report_no) = compile_plan(&g, &prog, CompileOptions { optimise: false });
        assert!(plan_no.num_dispatch_steps() > 1);
        assert!(report_no.pass("cleanup").is_none());
        assert!(!report_no.optimised);
    }

    #[test]
    fn coalescing_merges_adjacent_exchanges_only() {
        let mut g = graph2();
        let a = g.add_tensor(TensorDef::on_tile("a", DType::F32, 4, 0)).unwrap();
        let b = g.add_tensor(TensorDef::on_tile("b", DType::F32, 4, 1)).unwrap();
        let c = g.add_tensor(TensorDef::on_tile("c", DType::F32, 4, 1)).unwrap();
        let ex1 = ExchangeStep {
            name: "x1".into(),
            copies: vec![ElemCopy { src: a, src_start: 0, dst: b, dst_start: 0, len: 4 }],
        };
        let ex2 = ExchangeStep {
            name: "x2".into(),
            copies: vec![ElemCopy { src: a, src_start: 0, dst: c, dst_start: 0, len: 4 }],
        };
        let prog = Prog::Seq(vec![
            Prog::Exchange(ex1.clone()),
            Prog::Exchange(ex2.clone()),
            Prog::Callback(0),
            Prog::Exchange(ex1),
        ]);
        let (plan, report) = compile_plan(&g, &prog, CompileOptions { optimise: true });
        // Dispatches: [Exchange(x1+x2), Callback, Exchange(x1)] = 3.
        assert_eq!(plan.num_dispatch_steps(), 3);
        assert_eq!(report.pass("exchange-coalescing").unwrap().counter("exchanges_coalesced"), 1);
        // The merged dispatch holds both phases, in order, fully planned.
        let merged = plan
            .reachable()
            .into_iter()
            .find_map(|id| match plan.step(id) {
                PlanStep::Exchange(phases) if phases.len() == 2 => Some(phases.clone()),
                _ => None,
            })
            .expect("merged exchange dispatch");
        assert_eq!(merged[0].name, "x1");
        assert_eq!(merged[1].name, "x2");
        assert!(merged.iter().all(|p| p.cycles > 0 && p.sync_cycles > 0));
        // Unoptimised: four dispatches, no coalescing pass at all.
        let (plan_no, report_no) =
            compile_plan(&g, &Prog::Seq(vec![]), CompileOptions { optimise: false });
        assert_eq!(plan_no.num_dispatch_steps(), 0);
        assert!(report_no.pass("exchange-coalescing").is_none());
    }

    #[test]
    fn dead_code_analysis_reports_without_deleting() {
        let mut g = graph2();
        let a = g.add_tensor(TensorDef::on_tile("a", DType::F32, 4, 0)).unwrap();
        let b = g.add_tensor(TensorDef::on_tile("b", DType::F32, 4, 0)).unwrap();
        let _dead = g.add_tensor(TensorDef::on_tile("dead", DType::F32, 100, 1)).unwrap();
        let (plan, report) =
            compile_plan(&g, &Prog::Copy { src: a, dst: b }, CompileOptions { optimise: true });
        let dca = report.pass("dead-code-analysis").unwrap();
        assert_eq!(dca.counter("dead_tensors"), 1);
        assert_eq!(dca.counter("dead_bytes"), 400);
        // Nothing was deleted: the plan still addresses the same tensors.
        assert_eq!(plan.num_dispatch_steps(), 1);
    }

    #[test]
    fn callback_ids_include_unreachable_callbacks() {
        // A callback inside Repeat(0) never runs, but its id is still
        // collected so run-entry registration checks cover it.
        let g = graph2();
        let prog = Prog::Seq(vec![Prog::Callback(7), Prog::Repeat(0, Box::new(Prog::Callback(3)))]);
        let (plan, _) = compile_plan(&g, &prog, CompileOptions { optimise: true });
        assert_eq!(plan.callback_ids, vec![3, 7]);
    }
}
