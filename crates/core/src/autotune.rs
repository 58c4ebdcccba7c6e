//! Cost-model auto-tuning for [`crate::runner::solve`].
//!
//! This is the runner-side half of the `tune` crate: it knows how to turn
//! a [`tune::Candidate`] into an actual partition and a compiled **probe
//! program** (one distributed SpMV over the real matrix on the real
//! machine model), and scores it by the probe's modelled device cycles.
//! The probe is value-independent — the cost model charges by structure,
//! not data — and fault-free (fault state is only ever injected by the
//! runner into solve attempts), so scores are bit-deterministic and
//! independent of the engine options.
//!
//! The search itself, the argmin and the persistent plan cache live in
//! `tune`; this module supplies the scorer, derives the cache key from
//! (structure fingerprint, solver config, machine model, pinned options)
//! and packages the decision for the runner to apply and stamp into the
//! report.

use std::rc::Rc;

use dsl::prelude::*;
use profile::PassStat;
use sparse::fingerprint::StructureFingerprint;
use sparse::formats::CsrMatrix;
use sparse::gen::Grid3;
use sparse::partition::Partition;
use tune::{
    candidate_space, solver_key, tune_with_cache, Candidate, PlanCache, Score, Strategy, TuneKey,
    TunedPlan, DEFAULT_CACHE_DIR,
};

use crate::config::SolverConfig;
use crate::dist::DistSystem;
use crate::resilience::SolveError;
use crate::runner::SolveOptions;

/// What the tuner decided for one solve, ready to apply and to stamp.
#[derive(Clone, Debug)]
pub struct TuneDecision {
    /// The winning partition, built for the solve to use directly.
    pub partition: Partition,
    /// Tile count the partition targets (its part count).
    pub tiles: usize,
    /// The full plan — freshly searched or loaded from the cache.
    pub plan: TunedPlan,
    /// `true` when the plan came from the on-disk cache.
    pub cache_hit: bool,
    /// Candidates scored by this call (0 on a cache hit).
    pub candidates_scored: usize,
    /// Host microseconds the search took (~0 on a hit).
    pub search_micros: u64,
}

impl TuneDecision {
    /// The `"graphene-tune"` pass stamp for the compile report: how the
    /// plan was obtained and what it says.
    pub fn pass_stat(&self) -> PassStat {
        let mut s = PassStat::new("graphene-tune", 0);
        s.count("cache_hit", self.cache_hit as u64);
        s.count("candidates_scored", self.candidates_scored as u64);
        s.count("modelled_cycles", self.plan.modelled_cycles);
        s.count("default_cycles", self.plan.default_cycles);
        s.count("rows_per_tile", self.plan.rows_per_tile as u64);
        s.count("tiles", self.tiles as u64);
        s.count(&format!("strategy.{}", self.plan.strategy.name()), 1);
        s.count("search_micros", self.search_micros);
        s
    }
}

/// Build the partition a candidate describes, or say why it cannot exist
/// (only the geometric family can fail — an unfactorable part count).
fn build_partition(
    a: &CsrMatrix,
    grid: Option<Grid3>,
    strategy: Strategy,
    tiles: usize,
) -> Result<Partition, String> {
    match strategy {
        Strategy::Contiguous => Ok(Partition::contiguous(a.nrows, tiles)),
        Strategy::BalancedByNnz => Ok(Partition::balanced_by_nnz(a, tiles)),
        Strategy::Grid3dAuto => {
            let g = grid.ok_or("no grid supplied")?;
            Partition::try_grid_3d_auto(g, tiles).ok_or_else(|| {
                format!("cannot factor {tiles} parts into {}x{}x{}", g.nx, g.ny, g.nz)
            })
        }
    }
}

/// Compile and run the probe (one distributed SpMV) for a candidate and
/// return its modelled device cycles.
fn probe_cycles(a: &Rc<CsrMatrix>, model: &IpuModel, part: &Partition) -> Result<u64, String> {
    let mut ctx = DslCtx::new(model.clone());
    let sys =
        DistSystem::try_build(&mut ctx, a.clone(), part.clone()).map_err(|e| e.to_string())?;
    let x = sys.new_vector(&mut ctx, "tune_x", DType::F32);
    let y = sys.new_vector(&mut ctx, "tune_y", DType::F32);
    sys.spmv(&mut ctx, y, x);
    let mut engine = ctx.build_engine().map_err(|e| e.to_string())?;
    sys.upload(&mut engine);
    engine.run();
    Ok(engine.stats().device_cycles())
}

/// Search (or load) the best plan for `(a, config, opts)`. Reads nothing
/// from the environment: `opts` are taken as resolved, a `None` meaning
/// the default.
///
/// Only called when tuning is enabled and the caller did not pin a
/// partition. Never fails the solve on cache trouble — only on a
/// candidate space where even the default heuristic cannot be scored.
pub fn tune(
    a: &Rc<CsrMatrix>,
    config: &SolverConfig,
    opts: &SolveOptions,
) -> Result<TuneDecision, SolveError> {
    // The geometric family needs a grid that actually describes the rows.
    let grid = opts.grid.filter(|g| g.num_cells() == a.nrows);

    let (candidates, default_idx) =
        candidate_space(opts.rows_per_tile, opts.tiles.is_some(), grid.is_some());

    // Cache key: structure fingerprint x everything else that shapes the
    // probe or the space.
    let fp = StructureFingerprint::of(a);
    let m = &opts.model;
    let key_parts = [
        config.to_value().to_string(),
        format!(
            "model:{}x{}x{}:mem{}:clk{}",
            m.num_ipus, m.tiles_per_ipu, m.workers_per_tile, m.tile_memory_bytes, m.clock_hz
        ),
        format!("rpt:{}", opts.rows_per_tile),
        format!("tiles:{:?}", opts.tiles),
        format!("grid:{}", grid.map(|g| format!("{}x{}x{}", g.nx, g.ny, g.nz)).unwrap_or_default()),
        // Backend family: only ipu-sim plans are tuned today, but the key
        // must never collide with a future backend's plans for the same
        // matrix (the plan encodes ipu-sim partition decisions).
        "backend:ipu-sim".to_string(),
    ];
    let key_refs: Vec<&str> = key_parts.iter().map(String::as_str).collect();
    let key = TuneKey::new(fp.digest, solver_key(&key_refs));
    let cache = PlanCache::at(opts.tune_cache.clone().unwrap_or_else(|| DEFAULT_CACHE_DIR.into()));

    let score = |cand: &Candidate| -> Result<Score, String> {
        let tiles = opts.pick_tiles(a.nrows, cand.rows_per_tile);
        let part = build_partition(a, grid, cand.strategy, tiles)?;
        let device_cycles = probe_cycles(a, &opts.model, &part)?;
        let imbalance_milli = (part.nnz_imbalance(a) * 1000.0).round() as u64;
        Ok(Score { device_cycles, imbalance_milli })
    };

    let outcome = tune_with_cache(&cache, &key, &candidates, default_idx, score)
        .map_err(SolveError::Config)?;

    // Materialise the winner (identical whether it was just scored or
    // loaded: partition construction is deterministic in the plan).
    let plan = outcome.plan;
    let tiles = opts.pick_tiles(a.nrows, plan.rows_per_tile);
    let partition = build_partition(a, grid, plan.strategy, tiles).map_err(|e| {
        SolveError::Config(format!("cached plan is not realisable ({e}); clear the tune cache"))
    })?;
    Ok(TuneDecision {
        partition,
        tiles,
        plan,
        cache_hit: outcome.cache_hit,
        candidates_scored: outcome.candidates_scored,
        search_micros: outcome.search_micros,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_cycles_are_deterministic_and_partition_sensitive() {
        let a = Rc::new(sparse::gen::poisson_2d_5pt(12, 12, 1.0));
        let model = IpuModel::tiny(8);
        let p4 = Partition::balanced_by_nnz(&a, 4);
        let c1 = probe_cycles(&a, &model, &p4).unwrap();
        let c2 = probe_cycles(&a, &model, &p4).unwrap();
        assert_eq!(c1, c2, "probe must be bit-deterministic");
        // More tiles → a different (here: cheaper) modelled program.
        let p8 = Partition::balanced_by_nnz(&a, 8);
        let c8 = probe_cycles(&a, &model, &p8).unwrap();
        assert_ne!(c1, c8, "partition must move the objective");
    }
}
