//! The committed `BENCH_<pr>.json` files are the record of every measured
//! speed claim, so each must keep the fields a reader (or a trajectory
//! built from them) looks up: `pr`, `title`, `parent_commit`, `method`,
//! the seed-42 pairs, and per workload and end-to-end metric of
//! `BENCHMARK.json` a summary with both sides' medians and their ratio.
//!
//! Committed evidence is not rewritten, so both spellings that exist are
//! accepted: `ratio_change_over_parent` / `change_better_in_pairs` ("k/n")
//! with pairs of `{"parent": x, "change": y}`, and `BENCH_20.json`'s older
//! `ratio` / `change_better_pairs` (a count) with pairs of `[x, y]`.

use json::Json;
use std::path::{Path, PathBuf};

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `BENCH_<pr>.json` files at the repository root, with their `<pr>`.
fn bench_files() -> Vec<(u64, PathBuf)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<(u64, PathBuf)> = std::fs::read_dir(root)
        .expect("the repository root lists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let pr = name.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse().ok()?;
            Some((pr, path))
        })
        .collect();
    files.sort();
    files
}

/// The workloads and end-to-end metric names `BENCHMARK.json` declares.
fn benchmark() -> (Vec<String>, Vec<String>) {
    let doc = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCHMARK.json"));
    let names = |key: &str| -> Vec<String> {
        let list = doc.get(key).and_then(Json::as_arr).expect("BENCHMARK.json lists them");
        list.iter().map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
    };
    (names("workloads"), names("end_to_end"))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// One side's value of `metric` in a seed-42 pair, in either spelling.
fn side(pair: &Json, metric: &str, parent: bool) -> Option<f64> {
    let v = pair.get(metric)?;
    match v.as_arr() {
        Some([p, c]) => (if parent { p } else { c }).as_f64(),
        Some(_) => None,
        None => v.get(if parent { "parent" } else { "change" })?.as_f64(),
    }
}

#[test]
fn every_committed_bench_file_has_the_bench_schema() {
    let files = bench_files();
    assert!(files.len() >= 11, "only {} BENCH files found", files.len());
    let (workloads, metrics) = benchmark();
    for (pr, path) in &files {
        let doc = read(path);
        let who = path.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(doc.get("pr").and_then(Json::as_u64), Some(*pr), "{who}: pr");
        for key in ["title", "method"] {
            let text = doc.get(key).and_then(Json::as_str).unwrap_or("");
            assert!(!text.trim().is_empty(), "{who}: {key} missing or empty");
        }
        let parent = doc.get("parent_commit").and_then(Json::as_str).unwrap_or("");
        assert!(
            parent.len() == 40 && parent.bytes().all(|b| b.is_ascii_hexdigit()),
            "{who}: parent_commit {parent:?} is not a full commit id"
        );
        let summary = doc.get("summary_seed42").unwrap_or_else(|| panic!("{who}: no summary"));
        let pairs = doc.get("pairs_seed42").unwrap_or_else(|| panic!("{who}: no pairs"));
        for w in &workloads {
            let pairs = pairs.get(w).and_then(Json::as_arr).unwrap_or(&[]);
            assert!(!pairs.is_empty(), "{who}: no seed-42 pairs for {w}");
            for m in &metrics {
                let who = format!("{who}: {w} {m}");
                let s = summary.get(w).and_then(|s| s.get(m));
                let s = s.unwrap_or_else(|| panic!("{who}: not summarised"));
                let num = |key: &str| s.get(key).and_then(Json::as_f64);
                let (p, c) = (num("parent_median"), num("change_median"));
                let (p, c) = p.zip(c).unwrap_or_else(|| panic!("{who}: medians missing"));
                let ratio = num("ratio_change_over_parent").or_else(|| num("ratio"));
                let ratio = ratio.unwrap_or_else(|| panic!("{who}: ratio missing"));
                assert!(close(ratio, c / p), "{who}: ratio {ratio} is not {c} / {p}");
                let better =
                    s.get("change_better_in_pairs").or_else(|| s.get("change_better_pairs"));
                let better = better.unwrap_or_else(|| panic!("{who}: better pairs missing"));
                assert!(
                    better.as_u64().is_some() || better.as_str().is_some_and(|b| b.contains('/')),
                    "{who}: better pairs {better:?}"
                );
                for (median_of, is_parent) in [(p, true), (c, false)] {
                    let values: Option<Vec<f64>> =
                        pairs.iter().map(|pair| side(pair, m, is_parent)).collect();
                    let values = values.unwrap_or_else(|| panic!("{who}: a pair lacks it"));
                    let m = median(values);
                    assert!(close(m, median_of), "{who}: median {median_of}, pairs say {m}");
                }
            }
        }
    }
}
