//! # graphene-tune — cost-model auto-tuning with a persistent plan cache
//!
//! Every solve used to run on fixed heuristics: nnz-balanced contiguous
//! partitioning at `rows_per_tile = 64`, default storage parameters. This
//! crate turns those into a *searched* decision:
//!
//! 1. **Candidates** — the cross product of partition strategy
//!    ([`Strategy`]: contiguous / nnz-balanced / geometric 3D boxes) and
//!    a rows-per-tile ladder (which sets the part count), enumerated
//!    deterministically by [`candidate_space`].
//! 2. **Scoring** — the caller supplies a probe closure that compiles a
//!    small representative program (one distributed SpMV) for a candidate
//!    and returns its **modelled device cycles** from the simulator's cost
//!    model — candidates are scored without running a single solver
//!    iteration. The partition's nnz imbalance is the tie-breaker (the
//!    PR 6 imbalance analysis), then enumeration order, so the argmin in
//!    [`tune_with_cache`] is fully deterministic.
//! 3. **Persistence** — the winner is written to a versioned JSON file in
//!    [`PlanCache`] (`GRAPHENE_TUNE_CACHE` dir, default
//!    `.graphene-cache/`), keyed by ([`StructureFingerprint`] digest,
//!    solver-config key, [`COST_MODEL_REVISION`]). The second solve of a
//!    structure loads the plan and skips the search entirely; a cost-model
//!    bump or schema change invalidates the entry rather than reusing a
//!    stale score.
//!
//! The crate is deliberately free of solver machinery (it sits *below*
//! `graphene-core`, which wires it into `runner::solve`): it owns the
//! search space, the argmin and the cache, and scores through the closure
//! the runner provides.

use std::path::PathBuf;
use std::time::Instant;

use ipu_sim::COST_MODEL_REVISION;
use json::Json;
use sparse::fingerprint::fold_bytes;

/// Version of the on-disk plan schema. Bump on any incompatible change;
/// older files then read as cache misses, never as garbage plans.
pub const TUNE_SCHEMA_VERSION: u64 = 2;

/// Default cache directory (relative to the working directory;
/// `GRAPHENE_TUNE_CACHE` / `SolveOptions::tune_cache` override it).
pub const DEFAULT_CACHE_DIR: &str = ".graphene-cache";

// ---------------------------------------------------------------------
// Candidates
// ---------------------------------------------------------------------

/// Partition family of a candidate configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Equal-sized contiguous row blocks (`Partition::contiguous`).
    Contiguous,
    /// Contiguous blocks balanced by nnz (`Partition::balanced_by_nnz`).
    BalancedByNnz,
    /// Geometric box decomposition (`Partition::grid_3d_auto`) — only
    /// enumerable when the caller knows the matrix came from a grid.
    Grid3dAuto,
}

impl Strategy {
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Contiguous => "contiguous",
            Strategy::BalancedByNnz => "balanced_by_nnz",
            Strategy::Grid3dAuto => "grid_3d_auto",
        }
    }

    pub fn from_name(s: &str) -> Option<Strategy> {
        Some(match s {
            "contiguous" => Strategy::Contiguous,
            "balanced_by_nnz" => Strategy::BalancedByNnz,
            "grid_3d_auto" => Strategy::Grid3dAuto,
            _ => return None,
        })
    }
}

/// One point in the search space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    pub strategy: Strategy,
    /// Target rows per tile; sets the part count for unpinned tile counts.
    pub rows_per_tile: usize,
}

/// What the probe measured for one candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Score {
    /// Modelled device cycles of the probe program — the objective.
    pub device_cycles: u64,
    /// Partition nnz imbalance in milli-units (1000 = perfectly
    /// balanced) — the deterministic tie-breaker.
    pub imbalance_milli: u64,
}

/// The rows-per-tile ladder searched when the caller has not pinned the
/// tile count.
pub const ROWS_PER_TILE_LADDER: &[usize] = &[16, 32, 64, 128, 256];

/// Enumerate the candidate space deterministically and return it together
/// with the index of the **default-heuristic candidate** (nnz-balanced at
/// `default_rows_per_tile`) — always a member, so the argmin can never be
/// worse than the untuned configuration. `has_grid` enables the geometric
/// family.
pub fn candidate_space(
    default_rows_per_tile: usize,
    rows_per_tile_pinned: bool,
    has_grid: bool,
) -> (Vec<Candidate>, usize) {
    let mut ladder: Vec<usize> = if rows_per_tile_pinned {
        vec![default_rows_per_tile]
    } else {
        let mut l = ROWS_PER_TILE_LADDER.to_vec();
        if !l.contains(&default_rows_per_tile) {
            l.push(default_rows_per_tile);
        }
        l.sort_unstable();
        l
    };
    ladder.dedup();
    let mut strategies = vec![Strategy::BalancedByNnz, Strategy::Contiguous];
    if has_grid {
        strategies.push(Strategy::Grid3dAuto);
    }
    let mut out = Vec::new();
    let mut default_idx = 0;
    for &rows_per_tile in &ladder {
        for &strategy in &strategies {
            if strategy == Strategy::BalancedByNnz && rows_per_tile == default_rows_per_tile {
                default_idx = out.len();
            }
            out.push(Candidate { strategy, rows_per_tile });
        }
    }
    (out, default_idx)
}

// ---------------------------------------------------------------------
// Keys and plans
// ---------------------------------------------------------------------

/// The composite cache key: what must match for a stored plan to be
/// reusable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneKey {
    /// `StructureFingerprint::of(a).digest` — the sparsity structure.
    pub fingerprint: u64,
    /// Digest of everything else that shapes the search: solver config,
    /// machine model, pinned options (see [`solver_key`]).
    pub solver_key: u64,
    /// `ipu_sim::COST_MODEL_REVISION` at tuning time.
    pub model_revision: u32,
}

impl TuneKey {
    pub fn new(fingerprint: u64, solver_key: u64) -> TuneKey {
        TuneKey { fingerprint, solver_key, model_revision: COST_MODEL_REVISION }
    }

    /// The cache file carrying this key.
    pub fn file_name(&self) -> String {
        format!(
            "plan-{:016x}-{:016x}-r{}.json",
            self.fingerprint, self.solver_key, self.model_revision
        )
    }
}

/// Digest the non-structural half of the cache key from canonical string
/// parts (solver-config JSON, model parameters, pinned options). Order
/// matters; every part is length-delimited so parts cannot bleed into
/// each other.
pub fn solver_key(parts: &[&str]) -> u64 {
    let mut digest = 0x7455_4e45_4b45_5953;
    for p in parts {
        digest = fold_bytes(digest, p.as_bytes());
    }
    digest
}

/// A tuned configuration — the cacheable outcome of one search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TunedPlan {
    pub strategy: Strategy,
    pub rows_per_tile: usize,
    /// Modelled probe device cycles of the winner.
    pub modelled_cycles: u64,
    /// Modelled probe device cycles of the default-heuristic candidate —
    /// kept in the plan so cache hits can still report the margin.
    pub default_cycles: u64,
    /// Candidates scored by the cold search that produced this plan.
    pub candidates_scored: u64,
}

impl TunedPlan {
    pub fn to_value(&self, key: &TuneKey) -> Json {
        Json::obj([
            ("schema", Json::from(TUNE_SCHEMA_VERSION)),
            ("model_revision", Json::from(key.model_revision as u64)),
            ("fingerprint", Json::from(format!("{:016x}", key.fingerprint).as_str())),
            ("solver_key", Json::from(format!("{:016x}", key.solver_key).as_str())),
            ("strategy", Json::from(self.strategy.name())),
            ("rows_per_tile", Json::from(self.rows_per_tile)),
            ("modelled_cycles", Json::from(self.modelled_cycles)),
            ("default_cycles", Json::from(self.default_cycles)),
            ("candidates_scored", Json::from(self.candidates_scored)),
        ])
    }

    /// Parse a cache document, validating schema version and every key
    /// component. Any mismatch or malformation is an `Err` (treated as a
    /// miss by [`PlanCache::load`]).
    pub fn from_value(v: &Json, key: &TuneKey) -> Result<TunedPlan, String> {
        let u = |k: &str| {
            v.get(k).and_then(Json::as_u64).ok_or_else(|| format!("missing integer '{k}'"))
        };
        let s = |k: &str| {
            v.get(k).and_then(Json::as_str).ok_or_else(|| format!("missing string '{k}'"))
        };
        if u("schema")? != TUNE_SCHEMA_VERSION {
            return Err(format!("schema {} != {TUNE_SCHEMA_VERSION}", u("schema")?));
        }
        if u("model_revision")? != key.model_revision as u64 {
            return Err("cost-model revision mismatch".into());
        }
        if s("fingerprint")? != format!("{:016x}", key.fingerprint) {
            return Err("fingerprint mismatch".into());
        }
        if s("solver_key")? != format!("{:016x}", key.solver_key) {
            return Err("solver key mismatch".into());
        }
        Ok(TunedPlan {
            strategy: Strategy::from_name(s("strategy")?).ok_or_else(|| {
                format!("unknown strategy '{}'", s("strategy").unwrap_or_default())
            })?,
            rows_per_tile: u("rows_per_tile")?.max(1) as usize,
            modelled_cycles: u("modelled_cycles")?,
            default_cycles: u("default_cycles")?,
            candidates_scored: u("candidates_scored")?,
        })
    }
}

// ---------------------------------------------------------------------
// The on-disk cache
// ---------------------------------------------------------------------

/// Directory of versioned JSON plan files, one per [`TuneKey`].
#[derive(Clone, Debug)]
pub struct PlanCache {
    pub dir: PathBuf,
}

impl PlanCache {
    pub fn at(dir: impl Into<PathBuf>) -> PlanCache {
        PlanCache { dir: dir.into() }
    }

    pub fn path_of(&self, key: &TuneKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Load the plan stored under `key`. **Every** failure mode — no
    /// file, unreadable file, torn write, schema/revision/key mismatch —
    /// is a clean `None` (a cache miss), never an error: a corrupt cache
    /// entry re-tunes and is overwritten.
    pub fn load(&self, key: &TuneKey) -> Option<TunedPlan> {
        let text = std::fs::read_to_string(self.path_of(key)).ok()?;
        let doc = Json::parse(&text).ok()?;
        TunedPlan::from_value(&doc, key).ok()
    }

    /// Persist `plan` under `key` (write-to-temp + rename, so concurrent
    /// readers never observe a torn file). The temp name is unique per
    /// *writer* — pid alone is not enough, because two threads of one
    /// process sharing a temp path could rename each other's
    /// half-written file into place — so a process-wide counter joins
    /// the pid and every concurrent `store` works on its own file.
    pub fn store(&self, key: &TuneKey, plan: &TunedPlan) -> Result<PathBuf, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let path = self.path_of(key);
        let tmp = self.dir.join(format!(
            ".{}.tmp-{}-{}",
            key.file_name(),
            std::process::id(),
            NEXT_TMP.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, plan.to_value(key).to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot rename {} -> {}: {e}", tmp.display(), path.display()))?;
        Ok(path)
    }
}

// ---------------------------------------------------------------------
// The search
// ---------------------------------------------------------------------

/// What one [`tune_with_cache`] call decided, and how.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    pub plan: TunedPlan,
    /// `true` when the plan came from the cache (no candidate scored).
    pub cache_hit: bool,
    /// Candidates scored by *this* call (0 on a hit).
    pub candidates_scored: usize,
    /// Host microseconds spent searching (≈0 on a hit).
    pub search_micros: u64,
}

/// Tune: consult the cache, else score every candidate with `score` and
/// persist the deterministic argmin.
///
/// `score` returns `Err` for candidates that cannot be realised (e.g. an
/// unfactorable geometric decomposition) — they are skipped. The default
/// candidate must always be scorable; if everything fails the search
/// errors rather than guessing. Ordering: lowest `device_cycles`, then
/// lowest `imbalance_milli`, then first enumerated.
pub fn tune_with_cache<F>(
    cache: &PlanCache,
    key: &TuneKey,
    candidates: &[Candidate],
    default_idx: usize,
    mut score: F,
) -> Result<TuneOutcome, String>
where
    F: FnMut(&Candidate) -> Result<Score, String>,
{
    let start = Instant::now();
    if let Some(plan) = cache.load(key) {
        return Ok(TuneOutcome {
            plan,
            cache_hit: true,
            candidates_scored: 0,
            search_micros: start.elapsed().as_micros() as u64,
        });
    }
    assert!(default_idx < candidates.len(), "default candidate must be in the space");
    let mut best: Option<(usize, Score)> = None;
    let mut default_cycles = None;
    let mut scored = 0usize;
    for (i, cand) in candidates.iter().enumerate() {
        let s = match score(cand) {
            Ok(s) => s,
            Err(e) => {
                if i == default_idx {
                    return Err(format!("default candidate failed to score: {e}"));
                }
                continue;
            }
        };
        scored += 1;
        if i == default_idx {
            default_cycles = Some(s.device_cycles);
        }
        let better = match &best {
            None => true,
            Some((_, b)) => {
                (s.device_cycles, s.imbalance_milli) < (b.device_cycles, b.imbalance_milli)
            }
        };
        if better {
            best = Some((i, s));
        }
    }
    let (idx, s) = best.ok_or("no candidate could be scored")?;
    let winner = candidates[idx];
    let plan = TunedPlan {
        strategy: winner.strategy,
        rows_per_tile: winner.rows_per_tile,
        modelled_cycles: s.device_cycles,
        default_cycles: default_cycles.expect("default candidate was scored"),
        candidates_scored: scored as u64,
    };
    if let Err(e) = cache.store(key, &plan) {
        // A read-only cache dir degrades to tune-every-time, not failure.
        eprintln!("[graphene-tune] cannot persist plan: {e}");
    }
    Ok(TuneOutcome {
        plan,
        cache_hit: false,
        candidates_scored: scored,
        search_micros: start.elapsed().as_micros() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> PlanCache {
        let dir = std::env::temp_dir().join(format!("graphene-tune-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        PlanCache::at(dir)
    }

    fn fake_score(c: &Candidate) -> Result<Score, String> {
        // Deterministic synthetic objective: favour 64 rows/tile, then
        // contiguous.
        let cycles = 1000
            + (c.rows_per_tile as i64 - 64).unsigned_abs()
            + if c.strategy == Strategy::Contiguous { 0 } else { 5 };
        Ok(Score { device_cycles: cycles, imbalance_milli: 1000 })
    }

    #[test]
    fn space_contains_default_and_is_deterministic() {
        let (cands, didx) = candidate_space(64, false, false);
        assert_eq!(cands[didx], Candidate { strategy: Strategy::BalancedByNnz, rows_per_tile: 64 });
        let (again, didx2) = candidate_space(64, false, false);
        assert_eq!(cands, again);
        assert_eq!(didx, didx2);
        // The ladder (16..256) times the two algebraic families.
        assert_eq!(cands.len(), 10);
        // Pinned tiles collapse the ladder; grid adds the third family.
        let (pinned, _) = candidate_space(32, true, true);
        assert!(pinned.iter().all(|c| c.rows_per_tile == 32));
        assert!(pinned.iter().any(|c| c.strategy == Strategy::Grid3dAuto));
    }

    #[test]
    fn cold_tune_persists_and_second_call_hits() {
        let cache = tmp_cache("roundtrip");
        let key = TuneKey::new(0xabc, 0xdef);
        let (cands, didx) = candidate_space(32, false, false);
        let cold = tune_with_cache(&cache, &key, &cands, didx, fake_score).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.candidates_scored, cands.len());
        // Winner under the synthetic objective: contiguous @ 64.
        assert_eq!(cold.plan.strategy, Strategy::Contiguous);
        assert_eq!(cold.plan.rows_per_tile, 64);
        assert!(cold.plan.modelled_cycles <= cold.plan.default_cycles);

        let hit = tune_with_cache(&cache, &key, &cands, didx, |_| {
            panic!("a cache hit must not score candidates")
        })
        .unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.candidates_scored, 0);
        assert_eq!(hit.plan, cold.plan);
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn mismatched_keys_and_corruption_read_as_misses() {
        let cache = tmp_cache("invalidate");
        let key = TuneKey::new(1, 2);
        let (cands, didx) = candidate_space(32, false, false);
        let cold = tune_with_cache(&cache, &key, &cands, didx, fake_score).unwrap();
        assert!(!cold.cache_hit);

        // Different fingerprint or solver key: miss.
        assert!(cache.load(&TuneKey::new(99, 2)).is_none());
        assert!(cache.load(&TuneKey::new(1, 99)).is_none());
        // Cost-model revision bump: miss (the file stays keyed to r1).
        let bumped = TuneKey { model_revision: key.model_revision + 1, ..key };
        assert!(cache.load(&bumped).is_none());
        // Torn/corrupt file: miss, then a re-tune overwrites it.
        std::fs::write(cache.path_of(&key), "{\"schema\": 1, \"trunc").unwrap();
        assert!(cache.load(&key).is_none());
        let again = tune_with_cache(&cache, &key, &cands, didx, fake_score).unwrap();
        assert!(!again.cache_hit);
        assert_eq!(again.plan, cold.plan);
        assert!(cache.load(&key).is_some(), "re-tune must repair the entry");
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_reads() {
        // Satellite contract: N threads hammer `store`/`load` on the
        // same key; every `load` must return either a clean miss or a
        // plan one of the writers actually stored — never a torn read,
        // a parse error surfacing, or a panic.
        let cache = tmp_cache("concurrent");
        let key = TuneKey::new(0xfeed, 0xbeef);
        let variant = |i: u64| TunedPlan {
            strategy: Strategy::Contiguous,
            rows_per_tile: 16 + (i as usize % 8) * 16,
            modelled_cycles: 1000 + i,
            default_cycles: 2000,
            candidates_scored: i,
        };
        let n_threads: u64 = 8;
        let iters: u64 = 40;
        let handles: Vec<_> = (0..n_threads)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..iters {
                        let id = t * iters + i;
                        cache.store(&key, &variant(id)).expect("store must not fail");
                        if let Some(seen) = cache.load(&key) {
                            // Whatever we read is exactly some writer's
                            // plan: the full struct round-trips, so a
                            // torn/interleaved file cannot sneak through
                            // (it would fail parse => a clean miss).
                            assert_eq!(
                                seen,
                                variant(seen.candidates_scored),
                                "torn read: {seen:?}"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no writer thread may panic");
        }
        // The dust settles on one complete winner, and no temp litter
        // under a *different* writer id can shadow it.
        let final_plan = cache.load(&key).expect("a completed store must be visible");
        assert_eq!(final_plan, variant(final_plan.candidates_scored));
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn unscorable_candidates_are_skipped_not_fatal() {
        let cache = tmp_cache("skip");
        let key = TuneKey::new(3, 4);
        let (cands, didx) = candidate_space(32, false, true);
        let out = tune_with_cache(&cache, &key, &cands, didx, |c| {
            if c.strategy == Strategy::Grid3dAuto {
                Err("unfactorable".into())
            } else {
                fake_score(c)
            }
        })
        .unwrap();
        assert!(out.candidates_scored < cands.len());
        assert_ne!(out.plan.strategy, Strategy::Grid3dAuto);
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn solver_key_separates_parts() {
        assert_ne!(solver_key(&["ab", "c"]), solver_key(&["a", "bc"]));
        assert_ne!(solver_key(&["x"]), solver_key(&["x", ""]));
        assert_eq!(solver_key(&["cfg", "model"]), solver_key(&["cfg", "model"]));
    }

    #[test]
    fn keys_from_different_backends_never_collide() {
        // The autotuner ends every solver-key part list with a
        // `backend:<family>` component (see `graphene_core::autotune`);
        // the same matrix + config tuned for another backend must hash to
        // a different key, a different cache file, and a cache miss.
        let shared = ["{\"type\":\"bi_cg_stab\"}", "model:1x4x6:mem65536:clk1330000000"];
        let mut keys = Vec::new();
        for family in ["backend:ipu-sim", "backend:cpu", "backend:gpu-model"] {
            let parts: Vec<&str> = shared.iter().copied().chain([family]).collect();
            keys.push(TuneKey::new(0xf00d, solver_key(&parts)));
        }
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i].solver_key, keys[j].solver_key);
                assert_ne!(keys[i].file_name(), keys[j].file_name());
            }
        }

        // And through the cache itself: a plan stored under the ipu-sim
        // key reads back only under that key.
        let cache = tmp_cache("backend-keys");
        let (cands, didx) = candidate_space(32, false, false);
        let cold = tune_with_cache(&cache, &keys[0], &cands, didx, fake_score).unwrap();
        assert!(!cold.cache_hit);
        assert!(cache.load(&keys[0]).is_some());
        assert!(cache.load(&keys[1]).is_none(), "cpu key must miss the ipu-sim plan");
        assert!(cache.load(&keys[2]).is_none(), "gpu-model key must miss the ipu-sim plan");
        let _ = std::fs::remove_dir_all(&cache.dir);
    }
}
