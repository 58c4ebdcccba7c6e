//! # graphene-profile — PopVision for the simulated IPU
//!
//! Poplar ships with PopVision, a graph/system analyser that shows BSP
//! execution as a timeline of compute sets, exchanges and syncs, per-tile
//! utilisation, and cycle breakdowns. This crate is the simulator's
//! equivalent, built on the deterministic cycle counts of
//! [`ipu_sim::clock::CycleStats`]:
//!
//! * [`TraceRecorder`] — an event recorder the execution engine drives in
//!   lock-step with its cycle accounting. Serialises to Chrome
//!   trace-event JSON ([`TraceRecorder::to_chrome_trace`]) loadable in
//!   Perfetto / `chrome://tracing`: one lane for device steps, one for the
//!   nested label slices, and one lane per (capped) tile.
//! * [`text_report`] — a PopVision-style text report: phase breakdown,
//!   hottest labels and compute sets, tile-utilisation histogram,
//!   exchange-volume tables.
//! * [`SolveReport`] — a machine-readable JSON record of one solve
//!   (config, convergence history, cycle/phase/label breakdown) whose
//!   per-label cycle totals partition `device_cycles` exactly.
//!
//! Everything is gated behind explicit opt-in: the engine records nothing
//! unless a recorder is attached, and the host APIs attach one only under
//! `GRAPHENE_TRACE` / write reports only under `GRAPHENE_REPORT` (read by
//! `graphene_core::env::EnvConfig`; nothing in this crate reads the
//! environment).

mod compile_report;
pub mod metrics;
pub mod perf;
mod report;
mod resilience;
mod solve_report;
mod trace;

pub use compile_report::{CompileReport, PassStat};
pub use metrics::{Histogram, Metrics};
pub use perf::{PerfRecorder, PerfReport, SpeedOfLight, StepKind, StepMeta, StepReport};
pub use report::text_report;
pub use resilience::{DetectionRecord, Resilience};
pub use solve_report::{
    BackendInfo, CycleBreakdown, LabelEntry, SolveReport, TileUtil, SCHEMA_VERSION, UNLABELLED,
};
pub use trace::{parse_tile_lanes, ExchangeRecord, Lane, TraceEvent, TraceRecorder};

use std::path::PathBuf;

static TRACE_SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// `base`, sequence-numbered: the first call in a process returns the
/// path verbatim, the `n`-th (n ≥ 1) inserts `-n` before the extension
/// (`fig5.trace.json` → `fig5.trace-1.json`), so a binary that runs the
/// device several times keeps one trace per run instead of clobbering
/// the same file.
pub fn numbered_trace_path(base: &std::path::Path) -> PathBuf {
    let n = TRACE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    if n == 0 {
        return base.to_path_buf();
    }
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let name = match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}-{n}.{ext}"),
        None => format!("{stem}-{n}"),
    };
    base.with_file_name(name)
}

/// Write a Chrome trace and its companion text report (`*.report.txt`)
/// for one finished run; used by both `runner::solve` and the bench
/// measurement helpers. Failures go to stderr — profiling must never
/// fail the run it observes.
pub fn write_trace_artifacts(
    path: &std::path::Path,
    trace: &TraceRecorder,
    stats: &ipu_sim::clock::CycleStats,
    perf: Option<&PerfReport>,
    top_k: usize,
) -> String {
    match trace.write_chrome_trace(path) {
        Ok(()) => eprintln!("[graphene] chrome trace written to {}", path.display()),
        Err(e) => eprintln!("[graphene] failed to write trace {}: {e}", path.display()),
    }
    let mut report = text_report(stats, Some(trace), top_k);
    if let Some(p) = perf {
        report.push('\n');
        report.push_str(&p.render(top_k));
    }
    let report_path = path.with_extension("report.txt");
    match std::fs::write(&report_path, &report) {
        Ok(()) => eprintln!("[graphene] profile report written to {}", report_path.display()),
        Err(e) => {
            eprintln!("[graphene] failed to write report {}: {e}", report_path.display())
        }
    }
    report
}
