//! Machine-readable solve reports.
//!
//! A [`SolveReport`] merges the engine's cycle profile with solver-level
//! outcomes (convergence history, final residual) into one JSON document,
//! the artifact the bench binaries drop into `results/*.json` so that
//! plots and regression checks never re-parse human-readable tables.
//!
//! Schema (all cycle counts are device cycles):
//!
//! ```json
//! {
//!   "name": "fig5/poisson3d-64",
//!   "solver": { "type": "bi_cg_stab", ... } | null,
//!   "matrix": { "n": 262144, "nnz": 1810432 },
//!   "machine": { "tiles": 5888 },
//!   "solve": {
//!     "iterations": 100,
//!     "final_residual": 1.3e-14,
//!     "seconds": 0.0123,
//!     "history": [[1, 0.5], [2, 0.01], ...]
//!   },
//!   "cycles": {
//!     "device": 123456, "compute": 100000, "exchange": 20000,
//!     "sync": 3456, "exchange_bytes": 789, "sync_count": 42,
//!     "supersteps": 17, "label_underflows": 0
//!   },
//!   "labels": [
//!     { "name": "spmv", "total": 900, "compute": 800, "exchange": 90, "sync": 10 },
//!     { "name": "<unlabelled>", ... }
//!   ],
//!   "tiles": { "used": 4, "min": 10, "median": 12, "max": 20,
//!               "mean": 13.5, "balance": 0.675 },
//!   "backend": { "name": "ipu-sim", "family": "ipu-sim",
//!                "timing": "cycle-model", "seconds": 0.0123 }
//! }
//! ```
//!
//! Invariant (tested): `Σ labels[].total == cycles.device` — the
//! `<unlabelled>` entry absorbs cycles recorded outside any label scope.

use crate::compile_report::CompileReport;
use crate::perf::PerfReport;
use crate::resilience::Resilience;
use ipu_sim::clock::{CycleStats, Phase};
use json::Json;

/// Name of the implicit label bucket for cycles recorded outside any
/// `Prog::Label` scope.
pub const UNLABELLED: &str = "<unlabelled>";

/// Current report schema version, serialised as `"schema"`. Version
/// history: 1 (implicit — reports without the key) covers everything up
/// to the resilience section; 2 adds the key itself and the optional
/// `"perf"` performance-attribution section; 3 adds the optional
/// `"backend"` section naming the backend that executed the solve and
/// the timing domain its seconds live in. All additions are
/// backward-compatible: a v3 parser reads v1/v2 reports (absent sections
/// parse as `None`/defaults).
pub const SCHEMA_VERSION: u32 = 3;

/// Which backend executed a solve and in what timing domain it accounts
/// (schema v3). Reports written by earlier schemas parse with `None`.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendInfo {
    /// Registry name: `"ipu-sim"`, `"cpu:par"`, `"gpu-model"`, ...
    pub name: String,
    /// Backend family: `"ipu-sim"` | `"cpu"` | `"gpu-model"`.
    pub family: String,
    /// Timing domain of `seconds`: `"cycle-model"` (simulated device
    /// cycles at the modelled clock), `"wall-clock"` (measured host
    /// time) or `"roofline-model"` (analytically derived).
    pub timing: String,
    /// Solve time in that domain — the authoritative per-backend number
    /// for cross-backend figures (cycle-model backends also fill the
    /// `cycles` section; wall/modelled backends leave it zeroed).
    pub seconds: f64,
}

impl BackendInfo {
    pub fn to_value(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("family", Json::from(self.family.as_str())),
            ("timing", Json::from(self.timing.as_str())),
            ("seconds", Json::from(self.seconds)),
        ])
    }

    pub fn from_value(v: &Json) -> Result<BackendInfo, String> {
        let s = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("backend: missing string '{k}'"))
        };
        Ok(BackendInfo {
            name: s("name")?,
            family: s("family")?,
            timing: s("timing")?,
            seconds: v
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or("backend: missing number 'seconds'")?,
        })
    }
}

/// Totals of the engine's cycle accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CycleBreakdown {
    pub device: u64,
    pub compute: u64,
    pub exchange: u64,
    pub sync: u64,
    pub exchange_bytes: u64,
    pub sync_count: u64,
    pub supersteps: u64,
    /// `pop_label` calls on an empty label stack (label-balance bugs);
    /// 0 in any healthy run.
    pub label_underflows: u64,
}

/// Device cycles attributed to one label (innermost-wins), split by phase.
#[derive(Clone, Debug, PartialEq)]
pub struct LabelEntry {
    pub name: String,
    pub total: u64,
    pub compute: u64,
    pub exchange: u64,
    pub sync: u64,
}

/// Busy-cycle statistics over the tiles that did any compute work.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TileUtil {
    /// Tiles with nonzero busy cycles.
    pub used: usize,
    pub min: u64,
    pub median: u64,
    pub max: u64,
    pub mean: f64,
    /// Mean tile utilisation relative to the compute critical path
    /// (1.0 = perfectly balanced); `CycleStats::compute_balance`.
    pub balance: f64,
}

/// One solve, profiled. See the module docs for the JSON schema.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveReport {
    /// Schema version this report was written with ([`SCHEMA_VERSION`]);
    /// reports without the key parse as 1.
    pub schema: u32,
    pub name: String,
    /// The solver configuration (`SolverConfig::to_value`), or `Null`.
    pub solver: Json,
    pub n: usize,
    pub nnz: usize,
    pub tiles: usize,
    pub iterations: usize,
    pub final_residual: f64,
    pub seconds: f64,
    /// Host wall-clock seconds spent inside `engine.run()` (0.0 when not
    /// measured); device `seconds` do not depend on the host.
    pub host_seconds: f64,
    /// What ran the solve — the same string as `backend.name`, e.g.
    /// `"ipu-sim"` (reports written before schema v3 carry
    /// `"sequential"`/`"parallel"`; empty when unrecorded).
    pub executor: String,
    /// (iteration, true relative residual) samples.
    pub history: Vec<(usize, f64)>,
    pub cycles: CycleBreakdown,
    pub labels: Vec<LabelEntry>,
    pub tile_util: TileUtil,
    /// How the executed plan was compiled (pass pipeline statistics);
    /// `None` for reports written before the graph compiler existed or
    /// when the engine did not expose one.
    pub compile: Option<CompileReport>,
    /// Fault-injection and recovery record; `None` for healthy solves run
    /// without fault injection and for reports written before the
    /// resilience layer existed.
    pub resilience: Option<Resilience>,
    /// Plan-aware performance attribution (per-step cycles, imbalance,
    /// congestion, roofline, host metrics); `None` for reports written
    /// before schema v2 and for runs that recorded no attribution (the
    /// baseline backends, which have no plan steps).
    pub perf: Option<PerfReport>,
    /// Which backend executed the solve and its timing domain (schema
    /// v3); `None` for reports written before the backend abstraction.
    pub backend: Option<BackendInfo>,
    /// Free-form extra fields, serialised under `"extra"`.
    pub extra: Vec<(String, Json)>,
}

impl SolveReport {
    /// Empty report with only a name.
    pub fn new(name: impl Into<String>) -> SolveReport {
        SolveReport {
            schema: SCHEMA_VERSION,
            name: name.into(),
            solver: Json::Null,
            n: 0,
            nnz: 0,
            tiles: 0,
            iterations: 0,
            final_residual: 0.0,
            seconds: 0.0,
            host_seconds: 0.0,
            executor: String::new(),
            history: Vec::new(),
            cycles: CycleBreakdown::default(),
            labels: Vec::new(),
            tile_util: TileUtil::default(),
            compile: None,
            resilience: None,
            perf: None,
            backend: None,
            extra: Vec::new(),
        }
    }

    /// Fill the cycle/label/tile sections from a cycle profile. The label
    /// list gets an [`UNLABELLED`] entry so totals partition
    /// `device_cycles` exactly.
    pub fn with_stats(mut self, stats: &CycleStats) -> SolveReport {
        self.cycles = CycleBreakdown {
            device: stats.device_cycles(),
            compute: stats.phase_cycles(Phase::Compute),
            exchange: stats.phase_cycles(Phase::Exchange),
            sync: stats.phase_cycles(Phase::Sync),
            exchange_bytes: stats.exchange_bytes(),
            sync_count: stats.sync_count(),
            supersteps: stats.supersteps(),
            label_underflows: stats.label_underflows(),
        };
        self.labels = stats
            .labels_by_phase_sorted()
            .into_iter()
            .map(|(name, p)| LabelEntry {
                name,
                total: p.iter().sum(),
                compute: p[Phase::Compute as usize],
                exchange: p[Phase::Exchange as usize],
                sync: p[Phase::Sync as usize],
            })
            .collect();
        if stats.unlabelled_cycles() > 0 || self.labels.is_empty() {
            self.labels.push(LabelEntry {
                name: UNLABELLED.to_string(),
                total: stats.unlabelled_cycles(),
                compute: stats.unlabelled_phase_cycles(Phase::Compute),
                exchange: stats.unlabelled_phase_cycles(Phase::Exchange),
                sync: stats.unlabelled_phase_cycles(Phase::Sync),
            });
        }
        self.tile_util = tile_util(stats);
        self
    }

    /// Sum of all label totals — equals `cycles.device` by construction.
    pub fn labels_total(&self) -> u64 {
        self.labels.iter().map(|l| l.total).sum()
    }

    // ------------------------------------------------------------------
    // JSON
    // ------------------------------------------------------------------

    pub fn to_value(&self) -> Json {
        let c = &self.cycles;
        let t = &self.tile_util;
        let mut pairs = vec![
            // The version stamps the *writer*: re-serialising a parsed v1
            // report emits the current schema, since the output now has
            // the current document shape.
            ("schema".to_string(), Json::from(SCHEMA_VERSION)),
            ("name".to_string(), Json::from(self.name.as_str())),
            ("solver".to_string(), self.solver.clone()),
            (
                "matrix".to_string(),
                Json::obj([("n", Json::from(self.n)), ("nnz", Json::from(self.nnz))]),
            ),
            ("machine".to_string(), Json::obj([("tiles", Json::from(self.tiles))])),
            (
                "solve".to_string(),
                Json::obj([
                    ("iterations", Json::from(self.iterations)),
                    ("final_residual", Json::from(self.final_residual)),
                    ("seconds", Json::from(self.seconds)),
                    ("host_seconds", Json::from(self.host_seconds)),
                    ("executor", Json::from(self.executor.as_str())),
                    (
                        "history",
                        Json::arr(
                            self.history
                                .iter()
                                .map(|&(i, r)| Json::arr([Json::from(i), Json::from(r)])),
                        ),
                    ),
                ]),
            ),
            (
                "cycles".to_string(),
                Json::obj([
                    ("device", Json::from(c.device)),
                    ("compute", Json::from(c.compute)),
                    ("exchange", Json::from(c.exchange)),
                    ("sync", Json::from(c.sync)),
                    ("exchange_bytes", Json::from(c.exchange_bytes)),
                    ("sync_count", Json::from(c.sync_count)),
                    ("supersteps", Json::from(c.supersteps)),
                    ("label_underflows", Json::from(c.label_underflows)),
                ]),
            ),
            (
                "labels".to_string(),
                Json::arr(self.labels.iter().map(|l| {
                    Json::obj([
                        ("name", Json::from(l.name.as_str())),
                        ("total", Json::from(l.total)),
                        ("compute", Json::from(l.compute)),
                        ("exchange", Json::from(l.exchange)),
                        ("sync", Json::from(l.sync)),
                    ])
                })),
            ),
            (
                "tiles".to_string(),
                Json::obj([
                    ("used", Json::from(t.used)),
                    ("min", Json::from(t.min)),
                    ("median", Json::from(t.median)),
                    ("max", Json::from(t.max)),
                    ("mean", Json::from(t.mean)),
                    ("balance", Json::from(t.balance)),
                ]),
            ),
        ];
        if let Some(compile) = &self.compile {
            pairs.push(("compile".to_string(), compile.to_value()));
        }
        if let Some(resilience) = &self.resilience {
            pairs.push(("resilience".to_string(), resilience.to_value()));
        }
        if let Some(perf) = &self.perf {
            pairs.push(("perf".to_string(), perf.to_value()));
        }
        if let Some(backend) = &self.backend {
            pairs.push(("backend".to_string(), backend.to_value()));
        }
        if !self.extra.is_empty() {
            pairs.push(("extra".to_string(), Json::Obj(self.extra.clone())));
        }
        Json::Obj(pairs)
    }

    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    pub fn from_json(text: &str) -> Result<SolveReport, String> {
        SolveReport::from_value(&Json::parse(text).map_err(|e| e.to_string())?)
    }

    pub fn from_value(v: &Json) -> Result<SolveReport, String> {
        let str_of = |v: &Json, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string '{k}'"))
        };
        let u64_of = |v: &Json, k: &str| -> Result<u64, String> {
            v.get(k).and_then(Json::as_u64).ok_or_else(|| format!("missing integer '{k}'"))
        };
        let f64_of = |v: &Json, k: &str| -> Result<f64, String> {
            v.get(k).and_then(Json::as_f64).ok_or_else(|| format!("missing number '{k}'"))
        };
        let section = |k: &str| -> Result<&Json, String> {
            v.get(k).ok_or_else(|| format!("missing section '{k}'"))
        };

        let matrix = section("matrix")?;
        let machine = section("machine")?;
        let solve = section("solve")?;
        let cycles = section("cycles")?;
        let tiles_s = section("tiles")?;

        let history = solve
            .get("history")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .map(|pair| {
                        let p = pair.as_arr().ok_or("history entry not a pair")?;
                        let i = p.first().and_then(Json::as_u64).ok_or("bad history iteration")?;
                        let r = p.get(1).and_then(Json::as_f64).ok_or("bad history residual")?;
                        Ok((i as usize, r))
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .transpose()?
            .unwrap_or_default();

        let labels = v
            .get("labels")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .map(|l| {
                        Ok(LabelEntry {
                            name: str_of(l, "name")?,
                            total: u64_of(l, "total")?,
                            compute: u64_of(l, "compute")?,
                            exchange: u64_of(l, "exchange")?,
                            sync: u64_of(l, "sync")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .transpose()?
            .unwrap_or_default();

        Ok(SolveReport {
            // Absent in reports written before the version was recorded.
            schema: v.get("schema").and_then(Json::as_u64).unwrap_or(1) as u32,
            name: str_of(v, "name")?,
            solver: v.get("solver").cloned().unwrap_or(Json::Null),
            n: u64_of(matrix, "n")? as usize,
            nnz: u64_of(matrix, "nnz")? as usize,
            tiles: u64_of(machine, "tiles")? as usize,
            iterations: u64_of(solve, "iterations")? as usize,
            final_residual: f64_of(solve, "final_residual")?,
            seconds: f64_of(solve, "seconds")?,
            // Absent in reports written before host timing existed.
            host_seconds: solve.get("host_seconds").and_then(Json::as_f64).unwrap_or(0.0),
            executor: solve.get("executor").and_then(Json::as_str).unwrap_or_default().to_string(),
            history,
            cycles: CycleBreakdown {
                device: u64_of(cycles, "device")?,
                compute: u64_of(cycles, "compute")?,
                exchange: u64_of(cycles, "exchange")?,
                sync: u64_of(cycles, "sync")?,
                exchange_bytes: u64_of(cycles, "exchange_bytes")?,
                sync_count: u64_of(cycles, "sync_count")?,
                supersteps: u64_of(cycles, "supersteps")?,
                // Absent in reports written before the stat existed.
                label_underflows: cycles
                    .get("label_underflows")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            },
            labels,
            tile_util: TileUtil {
                used: u64_of(tiles_s, "used")? as usize,
                min: u64_of(tiles_s, "min")?,
                median: u64_of(tiles_s, "median")?,
                max: u64_of(tiles_s, "max")?,
                mean: f64_of(tiles_s, "mean")?,
                balance: f64_of(tiles_s, "balance")?,
            },
            // Absent in reports written before the graph compiler existed.
            compile: v.get("compile").map(CompileReport::from_value).transpose()?,
            // Absent in healthy reports and all reports written before the
            // resilience layer existed.
            resilience: v.get("resilience").map(Resilience::from_value).transpose()?,
            // Absent before schema v2 and in runs without attribution.
            perf: v.get("perf").map(PerfReport::from_value).transpose()?,
            // Absent before schema v3 (the backend abstraction).
            backend: v.get("backend").map(BackendInfo::from_value).transpose()?,
            extra: v.get("extra").and_then(Json::as_obj).map(|o| o.to_vec()).unwrap_or_default(),
        })
    }
}

/// Busy-cycle statistics over tiles that did any work.
pub(crate) fn tile_util(stats: &CycleStats) -> TileUtil {
    let mut busy: Vec<u64> = stats.tile_busy_all().iter().copied().filter(|&c| c > 0).collect();
    busy.sort_unstable();
    if busy.is_empty() {
        return TileUtil::default();
    }
    let used = busy.len();
    let mean = busy.iter().sum::<u64>() as f64 / used as f64;
    let max = busy[used - 1];
    TileUtil {
        used,
        min: busy[0],
        median: busy[used / 2],
        max,
        mean,
        // mean/max over *used* tiles (1.0 = perfectly balanced). Unlike
        // `CycleStats::compute_balance` this ignores idle tiles, so a
        // solve occupying 98 of 5,888 tiles reports the balance of the 98.
        balance: mean / max.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> CycleStats {
        let mut s = CycleStats::new(4);
        s.record_sync(6);
        s.push_label("cg");
        s.record_compute([(0, 10), (1, 30), (2, 20)]);
        s.push_label("spmv");
        s.record_exchange(40);
        s.record_exchange_bytes(1024);
        s.record_compute([(0, 50), (1, 50), (2, 50), (3, 50)]);
        s.pop_label();
        s.record_sync(4);
        s.pop_label();
        s
    }

    #[test]
    fn label_totals_partition_device_cycles() {
        let r = SolveReport::new("t").with_stats(&sample_stats());
        assert_eq!(r.labels_total(), r.cycles.device);
        assert!(r.labels.iter().any(|l| l.name == UNLABELLED && l.total == 6));
        let spmv = r.labels.iter().find(|l| l.name == "spmv").unwrap();
        assert_eq!(spmv.compute, 50);
        assert_eq!(spmv.exchange, 40);
        assert_eq!(spmv.total, 90);
    }

    #[test]
    fn phase_totals_match_stats() {
        let s = sample_stats();
        let r = SolveReport::new("t").with_stats(&s);
        assert_eq!(r.cycles.device, s.device_cycles());
        assert_eq!(r.cycles.compute, s.phase_cycles(Phase::Compute));
        assert_eq!(r.cycles.exchange, s.phase_cycles(Phase::Exchange));
        assert_eq!(r.cycles.sync, s.phase_cycles(Phase::Sync));
        assert_eq!(r.cycles.exchange_bytes, 1024);
        assert_eq!(r.cycles.sync_count, 2);
        // Per-label phase split also partitions each phase total.
        for phase in [Phase::Compute, Phase::Exchange, Phase::Sync] {
            let sum: u64 = r
                .labels
                .iter()
                .map(|l| match phase {
                    Phase::Compute => l.compute,
                    Phase::Exchange => l.exchange,
                    Phase::Sync => l.sync,
                })
                .sum();
            assert_eq!(sum, s.phase_cycles(phase), "{phase:?}");
        }
    }

    #[test]
    fn tile_util_ignores_idle_tiles() {
        let r = SolveReport::new("t").with_stats(&sample_stats());
        // Tile 3 worked once (50), tiles 0..=2 twice.
        assert_eq!(r.tile_util.used, 4);
        assert_eq!(r.tile_util.min, 50);
        assert_eq!(r.tile_util.max, 80);
    }

    #[test]
    fn json_round_trip() {
        let mut r = SolveReport::new("fig5/poisson-8").with_stats(&sample_stats());
        r.solver = Json::obj([("type", Json::from("cg"))]);
        r.n = 64;
        r.nnz = 288;
        r.tiles = 4;
        r.iterations = 12;
        r.final_residual = 3.25e-7;
        r.seconds = 0.001953125;
        r.history = vec![(1, 0.5), (2, 0.125)];
        r.extra.push(("ipus".to_string(), Json::from(2u64)));
        let mut pass = crate::PassStat::new("exchange-planning", 9);
        pass.count("copy_steps", 2);
        r.compile =
            Some(crate::CompileReport { source_steps: 9, plan_steps: 9, passes: vec![pass] });
        let text = r.to_json();
        let back = SolveReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        // Reports written before the compiler existed parse with None.
        let mut legacy = r.to_value();
        if let Json::Obj(pairs) = &mut legacy {
            pairs.retain(|(k, _)| k != "compile");
        }
        let parsed = SolveReport::from_json(&legacy.to_pretty()).unwrap();
        assert_eq!(parsed.compile, None);
    }

    #[test]
    fn label_underflows_surface_in_report() {
        // Regression: an unbalanced pop_label used to vanish in release
        // builds; it must show up in the report and its JSON.
        let mut s = sample_stats();
        s.pop_label(); // underflow
        let r = SolveReport::new("t").with_stats(&s);
        assert_eq!(r.cycles.label_underflows, 1);
        let back = SolveReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.cycles.label_underflows, 1);
        // Healthy runs report 0, and old reports without the field parse
        // as 0.
        let healthy = SolveReport::new("t").with_stats(&sample_stats());
        assert_eq!(healthy.cycles.label_underflows, 0);
        let mut legacy = healthy.to_value();
        if let Json::Obj(pairs) = &mut legacy {
            for (k, v) in pairs.iter_mut() {
                if k == "cycles" {
                    if let Json::Obj(cp) = v {
                        cp.retain(|(ck, _)| ck != "label_underflows");
                    }
                }
            }
        }
        let parsed = SolveReport::from_json(&legacy.to_pretty()).unwrap();
        assert_eq!(parsed.cycles.label_underflows, 0);
    }

    #[test]
    fn host_timing_round_trips_and_legacy_reports_parse() {
        let mut r = SolveReport::new("t").with_stats(&sample_stats());
        r.host_seconds = 0.125;
        r.executor = "parallel".to_string();
        let back = SolveReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.host_seconds, 0.125);
        assert_eq!(back.executor, "parallel");
        // Reports written before host timing existed parse with defaults.
        let mut legacy = r.to_value();
        if let Json::Obj(pairs) = &mut legacy {
            for (k, v) in pairs.iter_mut() {
                if k == "solve" {
                    if let Json::Obj(sp) = v {
                        sp.retain(|(sk, _)| sk != "host_seconds" && sk != "executor");
                    }
                }
            }
        }
        let parsed = SolveReport::from_json(&legacy.to_pretty()).unwrap();
        assert_eq!(parsed.host_seconds, 0.0);
        assert_eq!(parsed.executor, "");
    }

    #[test]
    fn resilience_round_trips_and_legacy_reports_parse() {
        use crate::resilience::{DetectionRecord, Resilience};
        use ipu_sim::fault::FaultEvent;
        let mut r = SolveReport::new("faulted").with_stats(&sample_stats());
        r.resilience = Some(Resilience {
            status: "recovered".to_string(),
            attempts: 2,
            restarts: 1,
            degradations: vec!["preconditioner ilu0 -> jacobi".to_string()],
            faults_injected: vec![FaultEvent {
                superstep: 12,
                tile: 3,
                class: "flip".to_string(),
                detail: "'x'[5] bit 22".to_string(),
            }],
            detections: vec![DetectionRecord {
                attempt: 1,
                kind: "non_finite".to_string(),
                iteration: 14,
                residual: f64::NAN,
                detail: "residual is NaN".to_string(),
            }],
            checkpoints: 3,
            checkpoint_cycles: 420,
            total_device_cycles: 99_000,
        });
        let back = SolveReport::from_json(&r.to_json()).unwrap();
        let res = back.resilience.as_ref().unwrap();
        assert_eq!(res.status, "recovered");
        assert_eq!(res.attempts, 2);
        assert_eq!(res.restarts, 1);
        assert_eq!(res.degradations, vec!["preconditioner ilu0 -> jacobi".to_string()]);
        assert_eq!(res.faults_injected, r.resilience.as_ref().unwrap().faults_injected);
        // NaN residual serialises as null and parses back as NaN.
        assert!(res.detections[0].residual.is_nan());
        assert_eq!(res.detections[0].kind, "non_finite");
        assert_eq!(res.checkpoints, 3);
        assert_eq!(res.checkpoint_cycles, 420);
        assert_eq!(res.total_device_cycles, 99_000);

        // A healthy solve emits no "resilience" key at all — byte-for-byte
        // the PR 1-4 schema.
        let healthy = SolveReport::new("t").with_stats(&sample_stats());
        assert!(!healthy.to_json().contains("resilience"));

        // Reports written before the resilience layer existed (PR 1-4)
        // parse unchanged with `resilience: None`.
        let mut legacy = r.to_value();
        if let Json::Obj(pairs) = &mut legacy {
            pairs.retain(|(k, _)| k != "resilience");
        }
        let parsed = SolveReport::from_json(&legacy.to_pretty()).unwrap();
        assert_eq!(parsed.resilience, None);
        assert_eq!(parsed.cycles, r.cycles);
    }

    #[test]
    fn schema_version_and_perf_round_trip() {
        use crate::perf::{PerfRecorder, PerfReport, StepKind, StepMeta};
        let mut r = SolveReport::new("t").with_stats(&sample_stats());
        assert_eq!(r.schema, SCHEMA_VERSION);
        // A report without a perf section has no "perf" key at all.
        assert!(!r.to_json().contains("\"perf\""));
        let metas = vec![
            StepMeta::control(0),
            StepMeta {
                id: 1,
                kind: StepKind::Execute,
                name: "spmv".into(),
                label: "cg".into(),
                regions: 0,
                max_fanout: 0,
            },
        ];
        let mut rec = PerfRecorder::new(2, 4);
        rec.record_sync(1, 150);
        rec.record_compute(1, &[(0, 10), (1, 30)]);
        rec.record_flops(1, 8, 64);
        let mut perf = PerfReport::build(&metas, &rec, 2.0, 4);
        perf.metrics.counter_add("solve.attempts", 1);
        perf.metrics.observe("solve.host_seconds", &[0.01, 0.1], 0.05);
        r.perf = Some(perf);
        let back = SolveReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.schema, SCHEMA_VERSION);
        let bp = back.perf.as_ref().unwrap();
        assert_eq!(bp.steps_total(), rec.total_cycles());
        assert_eq!(bp.metrics.counter("solve.attempts"), 1);

        // A pre-v2 report (no "schema", no "perf") parses as schema 1 with
        // perf None — backward compatible.
        let mut legacy = r.to_value();
        if let Json::Obj(pairs) = &mut legacy {
            pairs.retain(|(k, _)| k != "schema" && k != "perf");
        }
        let parsed = SolveReport::from_json(&legacy.to_pretty()).unwrap();
        assert_eq!(parsed.schema, 1);
        assert_eq!(parsed.perf, None);
        assert_eq!(parsed.cycles, r.cycles);
    }

    #[test]
    fn backend_section_round_trips_and_legacy_reports_parse() {
        let mut r = SolveReport::new("t").with_stats(&sample_stats());
        // A report without a backend section has no "backend" key at all.
        assert!(!r.to_json().contains("\"backend\""));
        r.backend = Some(BackendInfo {
            name: "cpu:par".to_string(),
            family: "cpu".to_string(),
            timing: "wall-clock".to_string(),
            seconds: 0.25,
        });
        let back = SolveReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        let info = back.backend.as_ref().unwrap();
        assert_eq!(info.name, "cpu:par");
        assert_eq!(info.family, "cpu");
        assert_eq!(info.timing, "wall-clock");
        assert_eq!(info.seconds, 0.25);

        // A v2 report (no "backend" key) parses with None — backward
        // compatible, and re-serialising stamps the current schema.
        let mut legacy = r.to_value();
        if let Json::Obj(pairs) = &mut legacy {
            pairs.retain(|(k, _)| k != "backend");
            for (k, v) in pairs.iter_mut() {
                if k == "schema" {
                    *v = Json::from(2u64);
                }
            }
        }
        let parsed = SolveReport::from_json(&legacy.to_pretty()).unwrap();
        assert_eq!(parsed.schema, 2);
        assert_eq!(parsed.backend, None);
        assert_eq!(parsed.cycles, r.cycles);
        let restamped = SolveReport::from_json(&parsed.to_json()).unwrap();
        assert_eq!(restamped.schema, SCHEMA_VERSION);
    }

    #[test]
    fn from_json_rejects_missing_sections() {
        assert!(SolveReport::from_json(r#"{"name":"x"}"#).is_err());
        assert!(SolveReport::from_json("not json").is_err());
    }
}
