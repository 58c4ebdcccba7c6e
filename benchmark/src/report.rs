//! `BENCHMARK.json` as the single list of metric names and units, and the
//! result a run prints.

use std::collections::BTreeMap;

use json::Json;

/// The contract file, embedded at build time so the binary and the file it
/// is checked against cannot drift apart.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Manifest {
    /// How long one run measures unless `--seconds` says otherwise.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn load() -> Result<Manifest, String> {
        let doc = Json::parse(MANIFEST).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json: no `{key}` list"))
        };
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        higher_is_better: text(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run with this `--trace` value must print.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// What one run of one workload found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Broken run-level checks (determinism, accounting, replica fidelity).
    pub problems: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Record a metric; a name is set once.
    pub fn set(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            self.problems.push(format!("metric {name} is not finite"));
        }
        if self.values.insert(name.to_string(), value).is_some() {
            self.problems.push(format!("metric {name} set twice"));
        }
    }

    /// Count one attempted operation, and its failure if it has one.
    pub fn count(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("operation {} failed: {why}", self.attempted);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Hold the recorded metrics against the manifest: every named metric
    /// present, nothing unnamed.
    pub fn reconcile(&mut self, defs: &[MetricDef]) {
        for d in defs {
            if !self.values.contains_key(&d.name) {
                self.problems.push(format!("metric {} was not measured", d.name));
            }
        }
        for name in self.values.keys() {
            if !defs.iter().any(|d| &d.name == name) {
                self.problems.push(format!("metric {name} is not named in BENCHMARK.json"));
            }
        }
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        let metrics = defs.iter().filter_map(|d| {
            let value = *self.values.get(&d.name)?;
            let entry =
                Json::obj([("value", Json::from(value)), ("unit", Json::from(d.unit.as_str()))]);
            Some((d.name.clone(), entry))
        });
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}
