//! Shared infrastructure for the evaluation binaries.
//!
//! Each binary regenerates one table or figure of the paper (see
//! DESIGN.md §3 for the index). All accept `--scale <f>` to grow problem
//! sizes toward paper scale and print tab-separated series suitable for
//! plotting.

pub mod summary;

use std::path::PathBuf;
use std::rc::Rc;

use dsl::prelude::*;
use graphene_core::dist::DistSystem;
use graphene_core::env::EnvConfig;
use graphene_core::runner::SolveResult;
use ipu_sim::clock::Phase;
use json::Json;
use sparse::formats::CsrMatrix;
use sparse::gen::Grid3;
use sparse::partition::Partition;

/// Minimal CLI parsing: `--scale 0.05 --ipus 4 ...` (flags of f64).
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Args {
        Args { raw: std::env::args().collect() }
    }

    pub fn get(&self, flag: &str, default: f64) -> f64 {
        self.raw
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn has(&self, flag: &str) -> bool {
        self.raw.iter().any(|a| a == flag)
    }

    /// String-valued flag (`--out path/to/file.json`).
    pub fn get_str(&self, flag: &str, default: &str) -> String {
        self.raw
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.raw.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

/// Every device observable of a solve: solution bits, device cycles,
/// exchanged bytes, superstep and sync counts, per-label phase splits. Two
/// runs with equal fingerprints are the same run on the device.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    x_bits: Vec<u64>,
    device_cycles: u64,
    exchange_bytes: u64,
    supersteps: u64,
    syncs: u64,
    labels: Vec<(String, [u64; 3])>,
}

impl Fingerprint {
    pub fn of(r: &SolveResult) -> Fingerprint {
        Fingerprint {
            x_bits: r.x.iter().map(|v| v.to_bits()).collect(),
            device_cycles: r.stats.device_cycles(),
            exchange_bytes: r.stats.exchange_bytes(),
            supersteps: r.stats.supersteps(),
            syncs: r.stats.sync_count(),
            labels: r.stats.labels_by_phase_sorted(),
        }
    }
}

/// Outcome of one simulated SpMV measurement.
#[derive(Clone, Copy, Debug)]
pub struct SpmvMeasurement {
    pub total_cycles: u64,
    pub compute_cycles: u64,
    pub exchange_cycles: u64,
    pub sync_cycles: u64,
    pub seconds: f64,
    pub halo_elements: usize,
    pub block_copies: usize,
}

impl SpmvMeasurement {
    /// Machine-readable form for [`Reporter`] runs.
    pub fn to_value(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::from("spmv")),
            ("total_cycles", Json::from(self.total_cycles)),
            ("compute_cycles", Json::from(self.compute_cycles)),
            ("exchange_cycles", Json::from(self.exchange_cycles)),
            ("sync_cycles", Json::from(self.sync_cycles)),
            ("seconds", Json::from(self.seconds)),
            ("halo_elements", Json::from(self.halo_elements)),
            ("block_copies", Json::from(self.block_copies)),
        ])
    }
}

/// Collects per-run [`SolveReport`](profile::SolveReport)s / measurements
/// from one evaluation binary and, when `GRAPHENE_REPORT=<dir>` is set,
/// writes them as `<dir>/<bin>.json` on [`Reporter::finish`].
///
/// The JSON shape is `{"bin": <name>, "runs": [<run>, ...]}` where each
/// run is either a full SolveReport object (see DESIGN.md §profiling) or
/// an ad-hoc object tagged with `"label"`.
pub struct Reporter {
    bin: String,
    dir: Option<PathBuf>,
    runs: Vec<Json>,
}

impl Reporter {
    /// A reporter for binary `bin`; inert unless `GRAPHENE_REPORT` is set.
    pub fn from_env(bin: &str) -> Reporter {
        Reporter { bin: bin.to_string(), dir: EnvConfig::report_dir(), runs: Vec::new() }
    }

    /// Whether reports will actually be written.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Record a full solve under `label` (stores its [`profile::SolveReport`]).
    pub fn add_solve(&mut self, label: &str, res: &SolveResult) {
        if self.dir.is_none() {
            return;
        }
        let mut report = res.report.clone();
        report.name = format!("{}/{label}", self.bin);
        self.runs.push(report.to_value());
    }

    /// Record an SpMV measurement under `label`.
    pub fn add_spmv(&mut self, label: &str, m: &SpmvMeasurement) {
        let mut v = m.to_value();
        self.add_json(label, &mut v);
    }

    /// Record an arbitrary JSON object under `label`.
    ///
    /// `value` should be an object; the label is spliced in as `"label"`.
    pub fn add_json(&mut self, label: &str, value: &mut Json) {
        if self.dir.is_none() {
            return;
        }
        if let Json::Obj(fields) = value {
            fields.insert(0, ("label".to_string(), Json::from(label)));
        }
        self.runs.push(value.clone());
    }

    /// Write `<dir>/<bin>.json` (pretty) when reporting is enabled.
    ///
    /// Returns the path written, if any. Errors are reported to stderr
    /// rather than panicking: a failed report must not fail the benchmark.
    pub fn finish(&self) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let doc = Json::obj(vec![
            ("bin", Json::from(self.bin.as_str())),
            ("runs", Json::Arr(self.runs.clone())),
        ]);
        let path = dir.join(format!("{}.json", self.bin));
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("[graphene] cannot create report dir {}: {e}", dir.display());
            return None;
        }
        match std::fs::write(&path, doc.to_pretty()) {
            Ok(()) => {
                eprintln!("[graphene] wrote solve report {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("[graphene] cannot write report {}: {e}", path.display());
                None
            }
        }
    }
}

/// Run one SpMV on the simulated machine and report its cycle profile.
///
/// `partition` defaults to a geometric box decomposition when `grid` is
/// given (the paper's mesh subdivision), else nnz-balanced row blocks.
pub fn measure_spmv(
    a: Rc<CsrMatrix>,
    model: &IpuModel,
    grid: Option<Grid3>,
    with_exchange: bool,
) -> SpmvMeasurement {
    let tiles = model.num_tiles().min(a.nrows);
    let part = match grid {
        Some(g) if g.num_cells() == a.nrows => Partition::grid_3d_auto(g, tiles),
        _ => Partition::balanced_by_nnz(&a, tiles),
    };
    measure_spmv_with_partition(a, model, part, with_exchange)
}

/// [`measure_spmv`] with an explicit partition.
pub fn measure_spmv_with_partition(
    a: Rc<CsrMatrix>,
    model: &IpuModel,
    part: Partition,
    with_exchange: bool,
) -> SpmvMeasurement {
    let mut ctx = DslCtx::new(model.clone());
    let sys = DistSystem::build(&mut ctx, a, part);
    let x = sys.new_vector(&mut ctx, "x", DType::F32);
    let y = sys.new_vector(&mut ctx, "y", DType::F32);
    if with_exchange {
        sys.spmv(&mut ctx, y, x);
    } else {
        sys.spmv_no_exchange(&mut ctx, y, x);
    }
    let halo_elements = sys.halo_volume();
    let block_copies = sys.halo.num_block_copies();
    let mut engine = ctx.build_engine().expect("spmv program compiles");
    // GRAPHENE_TRACE=<path> drops a Chrome trace + text report per
    // measurement (sequence-numbered across runs in one process).
    let trace_cfg = EnvConfig::trace();
    if let Some(t) = &trace_cfg {
        engine.set_trace(profile::TraceRecorder::new(t.tile_lanes));
        engine.enable_perf();
    }
    sys.upload(&mut engine);
    engine.run();
    if let (Some(t), Some(trace)) = (&trace_cfg, engine.trace()) {
        let perf = engine.perf_report(12);
        let path = profile::numbered_trace_path(&t.path);
        profile::write_trace_artifacts(&path, trace, engine.stats(), perf.as_ref(), 12);
    }
    let stats = engine.stats();
    SpmvMeasurement {
        total_cycles: stats.device_cycles(),
        compute_cycles: stats.phase_cycles(Phase::Compute),
        exchange_cycles: stats.phase_cycles(Phase::Exchange),
        sync_cycles: stats.phase_cycles(Phase::Sync),
        seconds: engine.elapsed_seconds(),
        halo_elements,
        block_copies,
    }
}

/// Pick a cubic grid whose cell count is close to `target_rows`.
pub fn cubic_grid(target_rows: usize) -> Grid3 {
    let side = (target_rows as f64).cbrt().round().max(4.0) as usize;
    Grid3 { nx: side, ny: side, nz: side }
}

/// Pick a grid close to `target_rows` whose sides divide evenly into the
/// box decompositions of 1–16 Mk2 IPUs (tile counts 1472·n = 23·2^k boxes,
/// factored as 23·2^i × 2^j × 2^l). The paper does the same: grid sizes
/// are adjusted "to ensure each tile processed the same number of rows",
/// making load imbalance zero and leaving the halo exchange as the only
/// deviation from ideal scaling.
pub fn ipu_friendly_grid(target_rows: usize) -> Grid3 {
    let s = (target_rows as f64).cbrt();
    let nx = 23 * ((s / 23.0).round().max(1.0) as usize);
    let ny = 32 * ((s / 32.0).round().max(1.0) as usize);
    let nz = ny;
    Grid3 { nx, ny, nz }
}

/// Pretty separator line for the binaries.
pub fn header(title: &str) {
    println!("# {title}");
}

/// Power draws used for the paper's energy comparison (Table III):
/// measured IPU power (420 W for four Mk2s on an M2000), CPU TDP (350 W),
/// GPU TDP (700 W).
pub mod power {
    pub const IPU_M2000_W: f64 = 420.0;
    pub const CPU_XEON_W: f64 = 350.0;
    pub const GPU_H100_W: f64 = 700.0;

    /// Energy in millijoules for a duration at a power draw.
    pub fn mj(seconds: f64, watts: f64) -> f64 {
        seconds * watts * 1e3
    }
}

/// The shared driver of Figures 9 and 10: convergence of
/// PBiCGStab+ILU(0) on one benchmark matrix under the four refinement
/// configurations the paper compares.
pub fn convergence_figure(fig: &str, matrix: &str, scale: f64, inner_iters: u32) {
    use graphene_core::config::SolverConfig;
    use graphene_core::runner::{solve_or_panic, SolveOptions};
    use graphene_core::solvers::ExtendedPrecision;

    let a = Rc::new(sparse::gen::suitesparse::by_name(matrix, scale));
    let b = sparse::gen::random_vector(a.nrows, 9);
    header(&format!(
        "{fig}: convergence of PBiCGStab+ILU(0) on {matrix} analogue \
         ({} rows, {} nnz), {inner_iters} iterations per IR step",
        a.nrows,
        a.nnz()
    ));

    let total_iters = 6 * inner_iters;
    let configs: [(&str, SolverConfig); 4] = [
        (
            "no_ir",
            SolverConfig::BiCgStab {
                max_iters: total_iters,
                rel_tol: 1e-20,
                precond: Some(Box::new(SolverConfig::Ilu0 {})),
            },
        ),
        ("ir", mpir_cfg(ExtendedPrecision::Working, inner_iters)),
        ("mpir_dw", mpir_cfg(ExtendedPrecision::DoubleWord, inner_iters)),
        ("mpir_dp", mpir_cfg(ExtendedPrecision::EmulatedF64, inner_iters)),
    ];

    let opts =
        SolveOptions { model: IpuModel::m2000(), rows_per_tile: 32, ..SolveOptions::default() };
    // "Fig 9" -> "fig9": the GRAPHENE_REPORT file name for this figure.
    let mut reporter = Reporter::from_env(&fig.to_lowercase().replace(' ', ""));
    for (name, cfg) in configs {
        let res = solve_or_panic(a.clone(), &b, &cfg, &opts);
        reporter.add_solve(name, &res);
        println!("## config {name}: final residual {:.3e}", res.residual);
        println!("config\titer\trel_residual");
        for (it, r) in &res.history {
            println!("{name}\t{it}\t{r:.6e}");
        }
    }
    reporter.finish();
}

fn mpir_cfg(
    precision: graphene_core::solvers::ExtendedPrecision,
    inner_iters: u32,
) -> graphene_core::config::SolverConfig {
    use graphene_core::config::SolverConfig;
    SolverConfig::Mpir {
        inner: Box::new(SolverConfig::BiCgStab {
            max_iters: inner_iters,
            rel_tol: 0.0,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        }),
        precision,
        max_outer: 6,
        rel_tol: 1e-20,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen::poisson_3d_7pt;

    #[test]
    fn measure_spmv_is_deterministic() {
        let g = Grid3 { nx: 8, ny: 8, nz: 8 };
        let a = Rc::new(poisson_3d_7pt(8, 8, 8));
        let m1 = measure_spmv(a.clone(), &IpuModel::tiny(8), Some(g), true);
        let m2 = measure_spmv(a, &IpuModel::tiny(8), Some(g), true);
        assert_eq!(m1.total_cycles, m2.total_cycles);
        assert!(m1.exchange_cycles > 0);
        assert!(m1.compute_cycles > 0);
    }

    #[test]
    fn no_exchange_variant_is_cheaper() {
        let g = Grid3 { nx: 8, ny: 8, nz: 8 };
        let a = Rc::new(poisson_3d_7pt(8, 8, 8));
        let with = measure_spmv(a.clone(), &IpuModel::tiny(8), Some(g), true);
        let without = measure_spmv(a, &IpuModel::tiny(8), Some(g), false);
        assert!(without.total_cycles < with.total_cycles);
        assert_eq!(without.exchange_cycles, 0);
    }

    #[test]
    fn cubic_grid_near_target() {
        let g = cubic_grid(1000);
        assert_eq!((g.nx, g.ny, g.nz), (10, 10, 10));
    }

    #[test]
    fn reporter_inert_without_env_and_writes_json_with_it() {
        // Without GRAPHENE_REPORT the reporter is a no-op.
        std::env::remove_var("GRAPHENE_REPORT");
        let mut off = Reporter::from_env("unit");
        assert!(!off.enabled());
        let mut v = Json::obj(vec![("x", Json::from(1u64))]);
        off.add_json("a", &mut v);
        assert!(off.finish().is_none());

        // With it, finish() writes <dir>/<bin>.json holding all runs.
        let dir = std::env::temp_dir().join(format!("graphene-report-test-{}", std::process::id()));
        std::env::set_var("GRAPHENE_REPORT", &dir);
        let mut on = Reporter::from_env("unit");
        std::env::remove_var("GRAPHENE_REPORT");
        assert!(on.enabled());
        let g = Grid3 { nx: 6, ny: 6, nz: 6 };
        let a = Rc::new(sparse::gen::poisson_3d_7pt(6, 6, 6));
        let m = measure_spmv(a, &IpuModel::tiny(4), Some(g), true);
        on.add_spmv("tiny", &m);
        let path = on.finish().expect("report written");
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("bin").and_then(|b| b.as_str()), Some("unit"));
        let runs = doc.get("runs").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("label").and_then(|l| l.as_str()), Some("tiny"));
        assert_eq!(runs[0].get("total_cycles").and_then(|c| c.as_u64()), Some(m.total_cycles));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
