//! Drives the built `hostbench` binary the way its users do.

use std::process::Command;

fn hostbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hostbench")).args(args).output().expect("spawn hostbench")
}

/// `check` runs every workload of `BENCHMARK.json` at tiny sizes, traced and
/// untraced, and fails unless each named metric is printed exactly once with
/// its unit, nothing unnamed is printed, and every operation, the
/// determinism gate, the replica and the serve accounting hold.
#[test]
fn check_mode_passes_on_tiny_sizes() {
    let out = hostbench(&["check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in ["fig8_mpir", "heat_multi_rhs", "cold_oneshot", "serve_mix"] {
        assert!(
            stdout.contains(&format!("check: {workload} done")),
            "{workload} missing:\n{stdout}"
        );
    }
}

/// The driver's form prints the result object as the last line of stdout,
/// with exactly the four keys of the contract.
#[test]
fn a_single_run_ends_with_the_result_object() {
    let out = hostbench(&[
        "--workload",
        "heat_multi_rhs",
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--tiny",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = json::Json::parse(stdout.lines().last().expect("some output")).expect("valid JSON");
    let keys: Vec<&str> =
        last.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(json::Json::as_bool), Some(true));
    assert!(last.get("attempted").and_then(json::Json::as_u64).unwrap() >= 1);
}

/// A `GRAPHENE_*` variable in the caller's environment must not reach the
/// program: the engine panics on this value when it sees it.
#[test]
fn graphene_variables_are_scrubbed() {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(["--workload", "cold_oneshot", "--seed", "7", "--seconds", "0.2", "--trace", "0"])
        .arg("--tiny")
        .env("GRAPHENE_PAR", "garbage")
        .output()
        .expect("spawn hostbench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = hostbench(&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
