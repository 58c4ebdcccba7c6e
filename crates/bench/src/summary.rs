//! Aggregation behind the `summarize` binary, as a library so the
//! robustness contract is testable: a half-finished experiment sweep —
//! missing directory, truncated JSON, unknown shapes, pre-v2 schema
//! reports — must still summarise, with every casualty listed under
//! `skipped` instead of failing the aggregation.

use std::path::Path;

use json::Json;
use profile::SolveReport;

/// Everything one aggregation pass collected.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// The `*.json` files considered, in sorted order.
    pub files: Vec<String>,
    /// One row per parseable `SolveReport` run.
    pub solves: Vec<Json>,
    /// Per-binary scalar facts, in file order.
    pub bins: Vec<(String, Json)>,
    /// Files (or the directory itself) that could not be read or parsed,
    /// with the reason. Never fatal.
    pub skipped: Vec<String>,
}

/// Scalar top-level fields of an object, in document order.
fn scalars(v: &Json) -> Vec<(String, Json)> {
    match v {
        Json::Obj(pairs) => pairs
            .iter()
            .filter(|(_, v)| matches!(v, Json::Num(_) | Json::Str(_) | Json::Bool(_)))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        _ => Vec::new(),
    }
}

fn fmt_cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Aggregate every `<dir>/*.json` artifact (except `summary*`).
///
/// A missing or unreadable directory yields an *empty* summary with the
/// failure recorded in `skipped` — callers decide whether that is fatal;
/// the `summarize` binary just reports it.
pub fn summarize_dir(dir: &Path) -> Summary {
    let mut summary = Summary::default();
    let mut paths: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().and_then(|e| e.to_str()) == Some("json")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| !n.starts_with("summary"))
            })
            .collect(),
        Err(e) => {
            summary.skipped.push(format!("{}: {e}", dir.display()));
            return summary;
        }
    };
    paths.sort();

    for path in &paths {
        let fname = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
        summary.files.push(fname.clone());
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                summary.skipped.push(format!("{fname}: {e}"));
                continue;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                summary.skipped.push(format!("{fname}: {e}"));
                continue;
            }
        };
        let bin = doc
            .get("bin")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| fname.trim_end_matches(".json").to_string());
        match doc.get("runs").and_then(Json::as_arr) {
            Some(runs) => {
                let mut adhoc = 0usize;
                for run in runs {
                    // `from_value` accepts every schema back to v1 (absent
                    // "schema" parses as 1); runs that are not solve
                    // reports at all count as ad-hoc rather than skipping
                    // the file.
                    if let Ok(r) = SolveReport::from_value(run) {
                        summary.solves.push(Json::obj([
                            ("file", Json::from(fname.as_str())),
                            ("name", Json::from(r.name.as_str())),
                            ("schema", Json::from(r.schema)),
                            ("n", Json::from(r.n)),
                            ("nnz", Json::from(r.nnz)),
                            ("tiles", Json::from(r.tiles)),
                            ("iterations", Json::from(r.iterations)),
                            ("final_residual", Json::from(r.final_residual)),
                            ("device_cycles", Json::from(r.cycles.device)),
                            ("seconds", Json::from(r.seconds)),
                            ("executor", Json::from(r.executor.as_str())),
                            // Pre-v3 reports carry no backend section; all
                            // of those were simulator runs by construction.
                            (
                                "backend",
                                Json::from(
                                    r.backend.as_ref().map_or("ipu-sim", |b| b.name.as_str()),
                                ),
                            ),
                            (
                                "timing",
                                Json::from(
                                    r.backend.as_ref().map_or("cycle-model", |b| b.timing.as_str()),
                                ),
                            ),
                            ("has_perf", Json::from(r.perf.is_some())),
                        ]));
                    } else {
                        adhoc += 1;
                    }
                }
                let mut facts = vec![("solve_runs".to_string(), Json::from(runs.len() - adhoc))];
                if adhoc > 0 {
                    facts.push(("adhoc_runs".to_string(), Json::from(adhoc)));
                }
                summary.bins.push((bin, Json::Obj(facts)));
            }
            None => summary.bins.push((bin, Json::Obj(scalars(&doc)))),
        }
    }
    summary
}

impl Summary {
    /// The machine-readable `summary.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bin", Json::from("summarize")),
            ("files", Json::arr(self.files.iter().map(|f| Json::from(f.as_str())))),
            ("solves", Json::Arr(self.solves.clone())),
            ("bins", Json::Obj(self.bins.clone())),
            ("skipped", Json::arr(self.skipped.iter().map(|s| Json::from(s.as_str())))),
        ])
    }

    /// The human-readable `summary.md` document.
    pub fn to_markdown(&self) -> String {
        let mut md = String::from("# Experiment summary\n\n## Solves\n\n");
        md.push_str(
            "| report | backend | n | nnz | tiles | iters | residual | device cycles | device s |\n",
        );
        md.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|\n");
        for s in &self.solves {
            let g = |k: &str| s.get(k).map(fmt_cell).unwrap_or_default();
            md.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                g("name"),
                g("backend"),
                g("n"),
                g("nnz"),
                g("tiles"),
                g("iterations"),
                g("final_residual"),
                g("device_cycles"),
                g("seconds"),
            ));
        }
        md.push_str("\n## Per-binary facts\n\n");
        for (bin, facts) in &self.bins {
            md.push_str(&format!("### {bin}\n\n"));
            let pairs = scalars(facts);
            if pairs.is_empty() {
                md.push_str("(no scalar facts)\n\n");
                continue;
            }
            md.push_str("| key | value |\n|---|---|\n");
            for (k, v) in pairs {
                md.push_str(&format!("| {k} | {} |\n", fmt_cell(&v)));
            }
            md.push('\n');
        }
        if !self.skipped.is_empty() {
            md.push_str("## Skipped\n\n");
            for s in &self.skipped {
                md.push_str(&format!("- {s}\n"));
            }
        }
        md
    }
}
