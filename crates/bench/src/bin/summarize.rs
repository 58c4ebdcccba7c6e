//! **summarize** — aggregate every `results/*.json` experiment artifact
//! into one machine-readable `results/summary.json` plus a human-readable
//! markdown table `results/summary.md`.
//!
//! Two artifact shapes are understood:
//!
//! * Reporter documents — `{"bin": ..., "runs": [...]}`, where each run is
//!   either a full `SolveReport` (summarised as a solve row: iterations,
//!   residual, device cycles, schema version; any schema back to v1) or an
//!   ad-hoc labelled object (its scalar fields are carried through);
//! * bespoke top-level objects (`native_speedup.json`, `resilience.json`,
//!   `perf_attrib.json`...) — their top-level scalars are carried through.
//!
//! A missing results directory, unreadable files, truncated JSON and
//! unknown shapes are all listed under `"skipped"` rather than failing
//! the aggregation: a half-finished experiment sweep still summarises.
//! The one thing that fails it is finding no solve row at all: the
//! documents are still written, but the exit code is 1, so the Solves
//! table cannot go empty unnoticed. The logic lives in
//! `graphene_bench::summary` (tested there).

use graphene_bench::summary::summarize_dir;
use graphene_bench::{header, Args};

fn main() {
    let args = Args::parse();
    let dir = std::path::PathBuf::from(args.get_str("--dir", "results"));
    header(&format!("summarize: aggregating {}/*.json", dir.display()));

    let summary = summarize_dir(&dir);
    for s in &summary.skipped {
        eprintln!("[graphene] skipped {s}");
    }

    if summary.files.is_empty() && !summary.skipped.is_empty() {
        // Nothing aggregatable (most likely the directory is missing):
        // warn and write nothing.
        eprintln!("[graphene] nothing to summarize under {}", dir.display());
        println!("summarized 0 files: 0 solve rows, 0 bins, {} skipped", summary.skipped.len());
        std::process::exit(1);
    }

    let json_path = dir.join("summary.json");
    match std::fs::write(&json_path, summary.to_json().to_pretty()) {
        Ok(()) => eprintln!("[graphene] wrote {}", json_path.display()),
        Err(e) => eprintln!("[graphene] cannot write {}: {e}", json_path.display()),
    }
    let md_path = dir.join("summary.md");
    match std::fs::write(&md_path, summary.to_markdown()) {
        Ok(()) => eprintln!("[graphene] wrote {}", md_path.display()),
        Err(e) => eprintln!("[graphene] cannot write {}: {e}", md_path.display()),
    }
    println!(
        "summarized {} files: {} solve rows, {} bins, {} skipped",
        summary.files.len(),
        summary.solves.len(),
        summary.bins.len(),
        summary.skipped.len()
    );
    if summary.solves.is_empty() {
        eprintln!(
            "[graphene] no solve rows under {}: run the figure/table binaries with \
             GRAPHENE_REPORT={} first",
            dir.display(),
            dir.display()
        );
        std::process::exit(1);
    }
}
