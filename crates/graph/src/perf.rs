//! Static per-step metadata for performance attribution.
//!
//! The profile crate's [`PerfRecorder`] collects *dynamic* per-`StepId`
//! cycle/byte counts but deliberately knows nothing about plans or graphs
//! (it must stay dependency-free below `graphene-graph`). This module
//! supplies the other half: a walk over the [`ExecPlan`] that labels every
//! step with its kind, source name, innermost enclosing `Label` scope,
//! and the static exchange shape (bytes per link class, region count,
//! broadcast fan-out) a single execution moves.
//!
//! [`PerfRecorder`]: profile::perf::PerfRecorder

use crate::graph::Graph;
use crate::plan::{ExecPlan, PlanStep, StepId};
use ipu_sim::exchange::ExchangeProgram;
use ipu_sim::model::IpuModel;
use profile::perf::{StepKind, StepMeta};
use profile::UNLABELLED;

/// Split an exchange program's bytes by link class: `(on_chip, link)` —
/// copies whose endpoints share a chip ride the fabric, the rest cross
/// IPU-Links.
pub fn split_bytes_by_link(program: &ExchangeProgram, model: &IpuModel) -> (u64, u64) {
    let mut on_chip = 0u64;
    let mut link = 0u64;
    for c in &program.copies {
        if model.same_chip(c.src_tile, c.dst_tile) {
            on_chip += c.bytes as u64;
        } else {
            link += c.bytes as u64;
        }
    }
    (on_chip, link)
}

/// Broadcast fan-out: the maximum number of destination copies fed from
/// one source region (1 = pure point-to-point, n = one region broadcast
/// to n destinations).
fn max_fanout(program: &ExchangeProgram) -> u64 {
    let mut keys: Vec<_> = program.copies.iter().map(|c| (c.src_tile, c.src_region)).collect();
    keys.sort_unstable();
    let mut best = 0u64;
    let mut run = 0u64;
    let mut prev = None;
    for k in keys {
        if Some(k) == prev {
            run += 1;
        } else {
            run = 1;
            prev = Some(k);
        }
        best = best.max(run);
    }
    best
}

/// Build one [`StepMeta`] per arena slot of `plan` (unreachable slots get
/// [`StepMeta::control`] placeholders — they can never charge cycles).
/// The label walk mirrors the engine's dynamic label stack: each step is
/// tagged with the innermost `Label` scope on its path from the root.
pub fn build_step_metas(plan: &ExecPlan) -> Vec<StepMeta> {
    let mut metas: Vec<StepMeta> = (0..plan.steps.len()).map(StepMeta::control).collect();
    let mut visited = vec![false; plan.steps.len()];
    walk(plan, plan.root, UNLABELLED, &mut metas, &mut visited);
    metas
}

fn walk(
    plan: &ExecPlan,
    id: StepId,
    label: &str,
    metas: &mut Vec<StepMeta>,
    visited: &mut Vec<bool>,
) {
    if std::mem::replace(&mut visited[id], true) {
        return;
    }
    metas[id].label = label.to_string();
    match plan.step(id) {
        PlanStep::Nop | PlanStep::Seq(_) | PlanStep::Repeat(..) | PlanStep::Callback(_) => {}
        PlanStep::Execute(es) => {
            metas[id].kind = StepKind::Execute;
            metas[id].name = es.name.clone();
            if !es.bcast.is_empty() {
                metas[id].regions = es.bcast.num_regions() as u64;
                metas[id].max_fanout = max_fanout(&es.bcast);
            }
        }
        PlanStep::Exchange(ph) => {
            metas[id].kind = StepKind::Exchange;
            metas[id].name = ph.name.clone();
            metas[id].regions = ph.program.num_regions() as u64;
            metas[id].max_fanout = max_fanout(&ph.program);
        }
        PlanStep::Copy(cp) => {
            metas[id].kind = StepKind::Copy;
            metas[id].name = cp.name.clone();
        }
        PlanStep::If { .. } => {
            metas[id].kind = StepKind::Control;
            metas[id].name = "if".to_string();
        }
        PlanStep::While { .. } => {
            metas[id].kind = StepKind::Control;
            metas[id].name = "while".to_string();
        }
        PlanStep::Label(..) => {}
    }
    // Recurse with the scope updated at Label nodes.
    match plan.step(id) {
        PlanStep::Seq(children) => {
            for &c in children {
                walk(plan, c, label, metas, visited);
            }
        }
        PlanStep::Repeat(_, c) => walk(plan, *c, label, metas, visited),
        PlanStep::Label(name, c) => {
            let inner = name.clone();
            walk(plan, *c, &inner, metas, visited);
        }
        PlanStep::If { then, otherwise, .. } => {
            walk(plan, *then, label, metas, visited);
            walk(plan, *otherwise, label, metas, visited);
        }
        PlanStep::While { cond, body, .. } => {
            walk(plan, *cond, label, metas, visited);
            walk(plan, *body, label, metas, visited);
        }
        _ => {}
    }
}

/// SRAM bytes one execution of a whole-tensor copy moves: read src + write
/// dst, element-wise.
pub fn copy_mem_bytes(graph: &Graph, src: usize, dst: usize) -> u64 {
    let s = &graph.tensors[src];
    let d = &graph.tensors[dst];
    (s.len() * s.dtype.size_bytes() + d.len() * d.dtype.size_bytes()) as u64
}
