//! Worker-thread scheduling within one tile — the IPUTHREADING analogue.
//!
//! A Mk2 tile runs six hardware worker threads. The paper's Level-Set
//! Scheduled solvers (§V-A) initially synchronised levels with one Poplar
//! compute set per level, which exploded graph compile time; their
//! IPUTHREADING library instead spawns workers once per codelet and inserts
//! lightweight `sync` barriers between levels (`run`/`runall`/`sync`
//! instructions). This module reproduces that scheme: it partitions the
//! work items of each level across the workers (deterministic greedy LPT)
//! and costs the result as
//!
//! ```text
//! spawn + Σ_levels ( max_worker(Σ item cycles) + worker_sync )
//! ```

use crate::cost::CostModel;
use crate::model::WorkerId;

/// Assignment of work items (by index) to workers, per level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelSchedule {
    /// `assignments[level][worker]` = indices of the items that worker
    /// executes in that level.
    pub assignments: Vec<Vec<Vec<usize>>>,
    pub num_workers: usize,
}

impl LevelSchedule {
    /// Build a schedule for `levels` (each a list of item indices) where
    /// item `i` costs `cost(i)` cycles. Within each level items are
    /// assigned longest-processing-time-first to the least-loaded worker —
    /// deterministic and within 4/3 of the optimal makespan.
    pub fn build(
        levels: &[Vec<usize>],
        num_workers: usize,
        mut cost: impl FnMut(usize) -> u64,
    ) -> Self {
        assert!(num_workers > 0);
        let mut assignments = Vec::with_capacity(levels.len());
        let mut loads = vec![0u64; num_workers];
        for level in levels {
            let mut items: Vec<(usize, u64)> = level.iter().map(|&i| (i, cost(i))).collect();
            let mut per_worker: Vec<Vec<usize>> = vec![Vec::new(); num_workers];
            lpt_level(&mut items, &mut loads, |w, idx| per_worker[w].push(idx));
            assignments.push(per_worker);
        }
        LevelSchedule { assignments, num_workers }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.assignments.len()
    }

    /// Total cycles for one execution of this schedule on one tile.
    pub fn cycles(&self, mut cost: impl FnMut(usize) -> u64, cm: &CostModel) -> u64 {
        let mut total = cm.worker_spawn_cycles;
        for level in &self.assignments {
            let makespan = level
                .iter()
                .map(|items| items.iter().map(|&i| cost(i)).sum::<u64>())
                .max()
                .unwrap_or(0);
            total += makespan + cm.worker_sync_cycles;
        }
        total
    }

    /// The order in which items must be executed to respect level
    /// dependencies when the schedule is run by a *sequential* interpreter
    /// standing in for the six workers: levels in order; within a level any
    /// order is valid (we use worker-major order).
    pub fn sequential_order(&self) -> Vec<usize> {
        let mut order = Vec::new();
        for level in &self.assignments {
            for items in level {
                order.extend_from_slice(items);
            }
        }
        order
    }

    /// Worker utilisation of the most imbalanced level, in [0, 1].
    pub fn worst_level_balance(&self, mut cost: impl FnMut(usize) -> u64) -> f64 {
        let mut worst = 1.0f64;
        for level in &self.assignments {
            let loads: Vec<u64> =
                level.iter().map(|items| items.iter().map(|&i| cost(i)).sum()).collect();
            let max = *loads.iter().max().unwrap_or(&0);
            if max == 0 {
                continue;
            }
            let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
            worst = worst.min(mean / max as f64);
        }
        worst
    }
}

/// Cycles of one level-set vertex — what
/// `LevelSchedule::build(levels, num_workers, cost).cycles(cost, cm)`
/// returns — without materialising the schedule: the same per-level LPT
/// over two scratch vectors that every level reuses, keeping only each
/// level's makespan. A level with no more items than workers puts one item
/// on each (as the paper's level-set solvers do whenever a level fits the
/// six workers), so its makespan is its largest item and it skips the LPT.
///
/// `cost` is called exactly once per item, levels in order and items in
/// listed order, so a caller may *execute* the item there and return the
/// cycles that took. Item ids are opaque (never used as an index).
pub fn level_set_cycles(
    levels: &[Vec<usize>],
    num_workers: usize,
    cm: &CostModel,
    cost: impl FnMut(usize) -> u64,
) -> u64 {
    level_set_cycles_in(&mut LptScratch::default(), levels, num_workers, cm, cost)
}

/// The two buffers [`level_set_cycles_in`] schedules a level in, kept by a
/// caller that runs many level-set vertices so that only the first
/// allocates.
#[derive(Debug, Default)]
pub struct LptScratch {
    loads: Vec<u64>,
    items: Vec<(usize, u64)>,
}

/// [`level_set_cycles`] in the caller's buffers.
pub fn level_set_cycles_in(
    scratch: &mut LptScratch,
    levels: &[Vec<usize>],
    num_workers: usize,
    cm: &CostModel,
    mut cost: impl FnMut(usize) -> u64,
) -> u64 {
    assert!(num_workers > 0);
    let LptScratch { loads, items } = scratch;
    // `lpt_level` zeroes the loads per level.
    loads.resize(num_workers, 0);
    let mut total = cm.worker_spawn_cycles;
    for level in levels {
        let makespan = if level.len() <= num_workers {
            // LPT gives each item a worker of its own (a zero-cost item may
            // share one, adding nothing): the makespan is the largest item.
            level.iter().map(|&i| cost(i)).max().unwrap_or(0)
        } else {
            items.clear();
            items.extend(level.iter().map(|&i| (i, cost(i))));
            lpt_level(items, loads, |_, _| {})
        };
        total += makespan + cm.worker_sync_cycles;
    }
    total
}

/// One level of the schedule: assign `items` (`(index, cycles)`) to workers
/// longest-processing-time-first, each to the least-loaded worker, and
/// return the level's makespan. Reorders `items` and overwrites `loads`.
fn lpt_level(
    items: &mut [(usize, u64)],
    loads: &mut [u64],
    mut assign: impl FnMut(WorkerId, usize),
) -> u64 {
    // LPT: heaviest first; ties broken by index for determinism.
    items.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    loads.fill(0);
    for &(idx, c) in items.iter() {
        let w = least_loaded(loads);
        loads[w] += c;
        assign(w, idx);
    }
    loads.iter().copied().max().unwrap_or(0)
}

fn least_loaded(loads: &[u64]) -> WorkerId {
    let mut best = 0;
    for (w, &l) in loads.iter().enumerate() {
        if l < loads[best] {
            best = w;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `level_set_cycles` is `build(..).cycles(..)` without the schedule:
        /// empty levels, single rows, cost ties (costs drawn from 0..4) and
        /// sparse row ids included, for 1–8 workers. Half the levels are
        /// short, mostly no more rows than workers (the case that skips the
        /// LPT), with costs of 0 or 10, so zero-cost ties are common. It also
        /// keeps its calling contract: one `cost` call per item, in listed
        /// order.
        #[test]
        fn level_set_cycles_equals_the_built_schedule(
            workers in 1usize..9,
            level_costs in proptest::collection::vec(
                prop_oneof![
                    proptest::collection::vec(0u64..2, 0..5),
                    proptest::collection::vec(0u64..4, 0..10),
                ],
                0..8,
            ),
        ) {
            let mut cost_of = HashMap::new();
            let levels: Vec<Vec<usize>> = level_costs
                .iter()
                .map(|costs| {
                    costs
                        .iter()
                        .map(|&c| {
                            // Ids are opaque: spread them so nothing can index by them.
                            let id = 1_000_003 * (cost_of.len() + 1);
                            cost_of.insert(id, c * 10);
                            id
                        })
                        .collect()
                })
                .collect();
            let cm = CostModel::default();
            let want = LevelSchedule::build(&levels, workers, |i| cost_of[&i])
                .cycles(|i| cost_of[&i], &cm);
            let mut calls = Vec::new();
            let got = level_set_cycles(&levels, workers, &cm, |i| {
                calls.push(i);
                cost_of[&i]
            });
            prop_assert_eq!(got, want);
            prop_assert_eq!(calls, levels.concat());
        }
    }

    #[test]
    fn single_level_balances_uniform_work() {
        let levels = vec![(0..12).collect::<Vec<_>>()];
        let s = LevelSchedule::build(&levels, 6, |_| 10);
        let cm = CostModel::default();
        // 12 items of 10 cycles over 6 workers -> makespan 20.
        assert_eq!(s.cycles(|_| 10, &cm), cm.worker_spawn_cycles + 20 + cm.worker_sync_cycles);
        assert!((s.worst_level_balance(|_| 10) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lpt_handles_skewed_costs() {
        // One heavy item + many light ones: LPT puts the heavy one alone.
        let levels = vec![vec![0, 1, 2, 3, 4, 5, 6]];
        let cost = |i: usize| if i == 0 { 60 } else { 10 };
        let s = LevelSchedule::build(&levels, 6, cost);
        let cm = CostModel::default();
        // Optimal makespan: 60 (heavy alone) since 6 light items spread as
        // 10+10 on some workers -> max(60, 20) = 60.
        assert_eq!(s.cycles(cost, &cm), cm.worker_spawn_cycles + 60 + cm.worker_sync_cycles);
    }

    #[test]
    fn levels_serialise() {
        let levels = vec![vec![0], vec![1], vec![2]];
        let s = LevelSchedule::build(&levels, 6, |_| 100);
        let cm = CostModel::default();
        assert_eq!(
            s.cycles(|_| 100, &cm),
            cm.worker_spawn_cycles + 3 * (100 + cm.worker_sync_cycles)
        );
        assert_eq!(s.num_levels(), 3);
    }

    #[test]
    fn sequential_order_respects_levels() {
        let levels = vec![vec![3, 1], vec![0, 2]];
        let s = LevelSchedule::build(&levels, 2, |_| 1);
        let order = s.sequential_order();
        assert_eq!(order.len(), 4);
        let pos = |x: usize| order.iter().position(|&i| i == x).unwrap();
        // Level 0 items before level 1 items.
        assert!(pos(3) < pos(0));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn schedule_covers_all_items_exactly_once() {
        let levels = vec![(0..7).collect::<Vec<_>>(), (7..20).collect::<Vec<_>>()];
        let s = LevelSchedule::build(&levels, 6, |i| (i as u64 % 5) + 1);
        let mut seen: Vec<usize> = s.sequential_order();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_never_slower() {
        let levels = vec![(0..40).collect::<Vec<_>>()];
        let cost = |i: usize| (i as u64 % 7) + 3;
        let cm = CostModel::default();
        let s1 = LevelSchedule::build(&levels, 1, cost).cycles(cost, &cm);
        let s6 = LevelSchedule::build(&levels, 6, cost).cycles(cost, &cm);
        assert!(s6 < s1);
        // And roughly 6x for uniform-ish work.
        let ratio = (s1 - cm.worker_spawn_cycles) as f64 / (s6 - cm.worker_spawn_cycles) as f64;
        assert!(ratio > 4.0, "ratio {ratio}");
    }
}
