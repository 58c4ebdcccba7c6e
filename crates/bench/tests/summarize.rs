//! Robustness contract of the `summarize` aggregation: partial sweeps —
//! truncated JSON, pre-v2 schema reports, unknown shapes, a missing
//! directory — summarise instead of failing.

use std::path::PathBuf;
use std::rc::Rc;

use graphene_bench::summary::summarize_dir;
use graphene_core::config::SolverConfig;
use graphene_core::runner::{solve_or_panic, SolveOptions};
use json::Json;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphene-summarize-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn missing_directory_is_a_warning_not_a_crash() {
    let dir = std::env::temp_dir().join("graphene-summarize-definitely-absent");
    let _ = std::fs::remove_dir_all(&dir);
    let s = summarize_dir(&dir);
    assert!(s.files.is_empty());
    assert!(s.solves.is_empty());
    assert_eq!(s.skipped.len(), 1, "{:?}", s.skipped);
    // The documents still render.
    assert!(s.to_json().get("skipped").is_some());
    assert!(s.to_markdown().contains("## Skipped"));
}

#[test]
fn partial_sweep_skips_casualties_and_keeps_the_rest() {
    let dir = tmp_dir("mixed");

    // 1. A valid Reporter document holding a real (current-schema) solve.
    let a = Rc::new(sparse::gen::poisson_2d_5pt(8, 8, 1.0));
    let b = sparse::gen::rhs_for_ones(&a);
    let cfg = SolverConfig::BiCgStab { max_iters: 50, rel_tol: 1e-5, precond: None };
    // Pinned, so the backend column below does not depend on the ambient
    // `GRAPHENE_BACKEND`.
    let pinned = backend::BackendSpec::IpuSim;
    let opts = SolveOptions {
        model: ipu_sim::IpuModel::tiny(4),
        tiles: Some(4),
        backend: Some(pinned),
        ..SolveOptions::default()
    };
    let res = solve_or_panic(a, &b, &cfg, &opts);
    let doc =
        Json::obj([("bin", Json::from("unit")), ("runs", Json::Arr(vec![res.report.to_value()]))]);
    std::fs::write(dir.join("good.json"), doc.to_pretty()).unwrap();

    // 2. The same report stripped down to the v1 schema (no "schema", no
    //    "perf" section) — still summarises, as schema 1.
    let mut v1 = res.report.to_value();
    if let Json::Obj(pairs) = &mut v1 {
        pairs.retain(|(k, _)| k != "schema" && k != "perf" && k != "backend");
    }
    let v1doc = Json::obj([("bin", Json::from("oldrun")), ("runs", Json::Arr(vec![v1]))]);
    std::fs::write(dir.join("oldrun.json"), v1doc.to_pretty()).unwrap();

    // 3. A truncated artifact (a run that died mid-write).
    std::fs::write(dir.join("truncated.json"), "{\"bin\": \"crashed\", \"runs\": [{\"na").unwrap();

    // 4. A bespoke top-level object: scalars carry through.
    std::fs::write(
        dir.join("bespoke.json"),
        Json::obj([("speedup", Json::from(3.5)), ("legs", Json::from(4u64))]).to_pretty(),
    )
    .unwrap();

    let s = summarize_dir(&dir);
    assert_eq!(s.files.len(), 4, "{:?}", s.files);
    assert_eq!(s.skipped.len(), 1, "only the truncated file skips: {:?}", s.skipped);
    assert!(s.skipped[0].starts_with("truncated.json"), "{:?}", s.skipped);
    assert_eq!(s.solves.len(), 2, "current + v1 schema rows: {:?}", s.solves);
    let schemas: Vec<u64> =
        s.solves.iter().filter_map(|r| r.get("schema").and_then(Json::as_u64)).collect();
    assert!(schemas.contains(&1), "v1 report must summarise as schema 1: {schemas:?}");
    // The backend column: v3 reports carry their own attribution; the
    // backendless v1 row defaults to the simulator (all pre-v3 artifacts
    // were simulator runs by construction).
    let backends: Vec<&str> =
        s.solves.iter().filter_map(|r| r.get("backend").and_then(Json::as_str)).collect();
    assert!(backends.contains(&pinned.name()), "{backends:?}");
    assert!(backends.contains(&"ipu-sim"), "v1 fallback: {backends:?}");
    let bins: Vec<&str> = s.bins.iter().map(|(b, _)| b.as_str()).collect();
    assert_eq!(bins, ["bespoke", "unit", "oldrun"], "sorted file order, bespoke first");
    let bespoke = &s.bins.iter().find(|(b, _)| b == "bespoke").unwrap().1;
    assert_eq!(bespoke.get("legs").and_then(Json::as_u64), Some(4));

    // The rendered artifacts mention both the survivors and the casualty.
    let md = s.to_markdown();
    assert!(md.contains("truncated.json"));
    assert!(md.contains("### bespoke"));

    // The binary: exit 0 while there are solve rows, non-zero once none is
    // left (the documents are written either way), so an empty Solves
    // table fails whatever ran it.
    let summarize = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_summarize"))
            .arg("--dir")
            .arg(&dir)
            .output()
            .expect("summarize runs")
    };
    assert!(summarize().status.success());
    assert!(std::fs::read_to_string(dir.join("summary.md")).unwrap().contains("| solve |"));
    std::fs::remove_file(dir.join("good.json")).unwrap();
    std::fs::remove_file(dir.join("oldrun.json")).unwrap();
    let out = summarize();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("summary.md").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
