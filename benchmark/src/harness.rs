//! The command line: one run in the driver's form, and the `run`, `check`
//! and `compare` conveniences built on it. Every workload run is its own
//! child process, so peak memory and lazy set-up belong to that workload.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use json::Json;

use crate::report::{Manifest, MetricDef};
use crate::stats::{median, quartile_spread};
use crate::{out_dir, run_workload, RunArgs};

/// `Ok(true)`: every check passed. `Ok(false)`: the benchmark ran and found
/// a failure. `Err`: it could not run as asked.
pub fn dispatch(args: &[String]) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    match args.first().map(String::as_str) {
        Some("run") => run_all(&manifest, &Flags::parse(&args[1..], &manifest)?),
        Some("check") => check(&manifest),
        Some("compare") => match &args[1..] {
            [a, b] => compare(&manifest, a, b),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some(flag) if flag.starts_with("--") => single(&manifest, &Flags::parse(args, &manifest)?),
        _ => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run [--seed N] [--seconds S] [--repeats K] [--traced] [--out FILE] \
                  | check | compare <a.json> <b.json>"
            .into()),
    }
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    repeats: usize,
    out: Option<PathBuf>,
}

impl Flags {
    fn defaults(manifest: &Manifest) -> Flags {
        Flags {
            workload: None,
            seed: 42,
            seconds: manifest.run_seconds,
            trace: false,
            tiny: false,
            repeats: 1,
            out: None,
        }
    }

    fn parse(args: &[String], manifest: &Manifest) -> Result<Flags, String> {
        let mut f = Flags::defaults(manifest);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let number =
                |v: &String| v.parse::<f64>().map_err(|_| format!("{flag}: bad number `{v}`"));
            match flag.as_str() {
                "--workload" => f.workload = Some(value()?.clone()),
                "--seed" => f.seed = value()?.parse().map_err(|_| "--seed: not a whole number")?,
                "--seconds" => f.seconds = number(value()?)?,
                "--trace" => f.trace = number(value()?)? != 0.0,
                "--repeats" => f.repeats = number(value()?)? as usize,
                "--out" => f.out = Some(PathBuf::from(value()?)),
                "--traced" => f.trace = true,
                "--tiny" => f.tiny = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if !(f.seconds > 0.0 && f.seconds <= 600.0) || f.repeats == 0 {
            return Err("--seconds must be in (0, 600] and --repeats at least 1".into());
        }
        Ok(f)
    }
}

/// The driver's form: run one workload here, print the result last.
fn single(manifest: &Manifest, flags: &Flags) -> Result<bool, String> {
    let args = RunArgs {
        workload: flags.workload.clone().ok_or("--workload is required")?,
        seed: flags.seed,
        seconds: flags.seconds,
        traced: flags.trace,
        tiny: flags.tiny,
    };
    let outcome = run_workload(&args, manifest)?;
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", outcome.to_json(manifest.metrics(args.traced)));
    Ok(outcome.correct())
}

/// Run one workload in a child process and return its parsed result line.
fn child(workload: &str, flags: &Flags, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if flags.tiny {
        cmd.arg("--tiny");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or(format!("{workload}: no output"))?;
    let result = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    if !output.status.success() && result.get("correct").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    Ok(result)
}

fn value_of(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Run every workload (each `repeats` times, and once traced if asked),
/// print every metric by name with its unit, and save the results.
fn run_all(manifest: &Manifest, flags: &Flags) -> Result<bool, String> {
    let mut all_correct = true;
    let mut saved = Vec::new();
    for workload in &manifest.workloads {
        let mut modes = vec![("end_to_end", false, flags.repeats)];
        if flags.trace {
            modes.push(("per_layer", true, 1));
        }
        let mut entry = Vec::new();
        for (key, traced, repeats) in modes {
            let mut results = Vec::new();
            for _ in 0..repeats {
                let result = child(workload, flags, traced)?;
                let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
                let count = |k| result.get(k).and_then(Json::as_u64).unwrap_or(0);
                println!(
                    "{workload} [{key}] correct={correct} attempted={} failed={}",
                    count("attempted"),
                    count("failed")
                );
                all_correct &= correct;
                results.push(result);
            }
            for def in manifest.metrics(traced) {
                let values: Vec<f64> =
                    results.iter().filter_map(|r| value_of(r, &def.name)).collect();
                if !values.is_empty() {
                    println!("  {:<28} {:>16.6} {}", def.name, median(&values), def.unit);
                }
            }
            entry.push((key, Json::arr(results)));
        }
        saved.push((workload.clone(), Json::obj(entry)));
    }
    let file = Json::obj([
        ("seed", Json::from(flags.seed)),
        ("seconds", Json::from(flags.seconds)),
        ("runs", Json::Obj(saved)),
    ]);
    let path =
        flags.out.clone().unwrap_or_else(|| out_dir().join(format!("run-seed{}.json", flags.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("saved {}", path.display());
    Ok(all_correct)
}

/// Tiny sizes, every workload, both trace modes: every metric named in
/// `BENCHMARK.json` is printed exactly once with its unit, nothing else is,
/// and every check passes.
fn check(manifest: &Manifest) -> Result<bool, String> {
    let flags = Flags { seconds: 0.5, tiny: true, ..Flags::defaults(manifest) };
    let mut ok = true;
    let mut complain = |what: String| {
        println!("check: {what}");
        ok = false;
    };
    let well_formed = |name: &str| {
        !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for def in manifest.end_to_end.iter().chain(&manifest.per_layer) {
        if !well_formed(&def.name) {
            complain(format!("metric name `{}` is not [A-Za-z0-9_.-]+", def.name));
        }
    }
    for workload in &manifest.workloads {
        if !well_formed(workload) {
            complain(format!("workload name `{workload}` is not [A-Za-z0-9_.-]+"));
        }
        for traced in [false, true] {
            let result = child(workload, &flags, traced)?;
            let defs = manifest.metrics(traced);
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                complain(format!("{workload} trace={traced}: not correct"));
            }
            let printed = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
            for def in defs {
                let matching: Vec<&Json> =
                    printed.iter().filter(|(k, _)| k == &def.name).map(|(_, v)| v).collect();
                match matching.as_slice() {
                    [one] if one.get("unit").and_then(Json::as_str) == Some(&def.unit) => {}
                    [_] => complain(format!("{workload}: {} has the wrong unit", def.name)),
                    other => {
                        complain(format!("{workload}: {} printed {} times", def.name, other.len()))
                    }
                }
            }
            for (name, _) in printed {
                if !defs.iter().any(|d| &d.name == name) {
                    complain(format!("{workload}: {name} is not named in BENCHMARK.json"));
                }
            }
        }
        println!("check: {workload} done");
    }
    Ok(ok)
}

/// Every end-to-end value of `metric` on `workload` in a saved results file.
fn saved_values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(|r| r.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(Json::as_arr)
        .map(|runs| runs.iter().filter_map(|r| value_of(r, metric)).collect())
        .unwrap_or_default()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if def.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The end-to-end metric that counts the modelled machine instead of
/// measuring the host: for one seed it must repeat exactly.
const EXACT_METRIC: &str = "device_mcycles";

/// Per metric and workload: both medians, the ratio with its base, and `ok`,
/// `regressed` or `unresolved` (run-to-run spread wider than the bound)
/// against the bounds `BENCHMARK.json` fixes; `changed` where two files of one
/// seed disagree on the simulated cycle count.
fn compare(manifest: &Manifest, a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a_file, b_file) = (load(a_path)?, load(b_path)?);
    println!("base a = {a_path}, b = {b_path}; ratio = b / a");
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "ratio", "spread", "bound"
    );
    let seed = |file: &Json| file.get("seed").and_then(Json::as_u64);
    let same_seed = seed(&a_file).is_some() && seed(&a_file) == seed(&b_file);
    let mut none_regressed = true;
    for workload in &manifest.workloads {
        for def in &manifest.end_to_end {
            let a = saved_values(&a_file, workload, &def.name);
            let b = saved_values(&b_file, workload, &def.name);
            if a.is_empty() || b.is_empty() {
                return Err(format!("{workload}/{}: missing from one of the files", def.name));
            }
            let (ma, mb) = (median(&a), median(&b));
            let bound = def.bound.ok_or(format!("{}: no bound in BENCHMARK.json", def.name))?;
            let spread = quartile_spread(&a).unwrap_or(0.0).max(quartile_spread(&b).unwrap_or(0.0));
            let verdict = if same_seed && def.name == EXACT_METRIC && ma != mb {
                none_regressed = false;
                "changed"
            } else if spread > bound {
                "unresolved"
            } else if worsening(def, ma, mb) > bound {
                none_regressed = false;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {:<16} {ma:>14.6} {mb:>14.6} {:>8.4} {spread:>8.4} {bound:>7.3}  {verdict} ({})",
                def.name,
                mb / ma,
                def.unit
            );
        }
    }
    Ok(none_regressed)
}
