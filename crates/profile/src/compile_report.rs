//! Compile-time reporting: what the graph compiler's pass pipeline did.
//!
//! Poplar's compiler reports its lowering and optimisation work through
//! PopVision's compilation summary; this is the simulator's equivalent. A
//! [`CompileReport`] is produced by `Graph::compile` (crate `graphene-graph`)
//! each time a program is lowered to its `ExecPlan`, records one
//! [`PassStat`] per optimisation pass, and is stamped into
//! [`SolveReport`](crate::SolveReport) under `"compile"` so results files
//! capture *how* the executed plan was built.
//!
//! Schema:
//!
//! ```json
//! {
//!   "optimised": true,
//!   "source_steps": 123,
//!   "plan_steps": 98,
//!   "passes": [
//!     { "name": "broadcast-planning", "steps_before": 123,
//!       "steps_after": 123, "counters": { "broadcast_copies": 40 } },
//!     ...
//!   ]
//! }
//! ```

use json::Json;

/// What one compiler pass did to the plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassStat {
    /// Pass name, e.g. `"exchange-coalescing"`.
    pub name: String,
    /// Executable plan steps before the pass ran.
    pub steps_before: usize,
    /// Executable plan steps after the pass ran.
    pub steps_after: usize,
    /// Free-form pass-specific counters (copies deduped, regions merged,
    /// dead tensors found, ...), in insertion order.
    pub counters: Vec<(String, u64)>,
}

impl PassStat {
    pub fn new(name: impl Into<String>, steps_before: usize) -> PassStat {
        PassStat {
            name: name.into(),
            steps_before,
            steps_after: steps_before,
            counters: Vec::new(),
        }
    }

    /// Add (or accumulate into) a named counter.
    pub fn count(&mut self, key: &str, n: u64) {
        match self.counters.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v += n,
            None => self.counters.push((key.to_string(), n)),
        }
    }

    /// Value of a named counter (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == key).map(|&(_, v)| v).unwrap_or(0)
    }
}

/// Summary of one `Graph::compile` invocation: the lowering and every
/// optimisation pass that ran over the resulting plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompileReport {
    /// Whether the optimising passes ran (`false` under `GRAPHENE_NO_OPT=1`
    /// or `CompileOptions { optimise: false, .. }`).
    pub optimised: bool,
    /// `Prog::num_steps()` of the source program tree.
    pub source_steps: usize,
    /// Executable steps in the final plan (control-flow arena nodes
    /// excluded) — what the engine actually dispatches per traversal.
    pub plan_steps: usize,
    /// One entry per pass, in execution order.
    pub passes: Vec<PassStat>,
}

impl CompileReport {
    /// Look up a pass by name.
    pub fn pass(&self, name: &str) -> Option<&PassStat> {
        self.passes.iter().find(|p| p.name == name)
    }

    /// Total steps removed across all passes.
    pub fn steps_removed(&self) -> usize {
        self.passes.iter().map(|p| p.steps_before.saturating_sub(p.steps_after)).sum()
    }

    /// A short human-readable summary, one line per pass.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "compile: {} source steps -> {} plan steps ({})\n",
            self.source_steps,
            self.plan_steps,
            if self.optimised { "optimised" } else { "unoptimised" },
        ));
        for p in &self.passes {
            out.push_str(&format!(
                "  pass {:<24} {:>5} -> {:<5}",
                p.name, p.steps_before, p.steps_after
            ));
            for (k, v) in &p.counters {
                out.push_str(&format!("  {k}={v}"));
            }
            out.push('\n');
        }
        out
    }

    // ------------------------------------------------------------------
    // JSON
    // ------------------------------------------------------------------

    pub fn to_value(&self) -> Json {
        Json::obj([
            ("optimised", Json::Bool(self.optimised)),
            ("source_steps", Json::from(self.source_steps)),
            ("plan_steps", Json::from(self.plan_steps)),
            (
                "passes",
                Json::arr(self.passes.iter().map(|p| {
                    Json::obj([
                        ("name", Json::from(p.name.as_str())),
                        ("steps_before", Json::from(p.steps_before)),
                        ("steps_after", Json::from(p.steps_after)),
                        (
                            "counters",
                            Json::Obj(
                                p.counters
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })),
            ),
        ])
    }

    pub fn from_value(v: &Json) -> Result<CompileReport, String> {
        let u64_of = |v: &Json, k: &str| -> Result<u64, String> {
            v.get(k).and_then(Json::as_u64).ok_or_else(|| format!("missing integer '{k}'"))
        };
        let passes = v
            .get("passes")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .map(|p| {
                        Ok(PassStat {
                            name: p
                                .get("name")
                                .and_then(Json::as_str)
                                .ok_or("missing pass name")?
                                .to_string(),
                            steps_before: u64_of(p, "steps_before")? as usize,
                            steps_after: u64_of(p, "steps_after")? as usize,
                            counters: p
                                .get("counters")
                                .and_then(Json::as_obj)
                                .map(|o| {
                                    o.iter()
                                        .map(|(k, v)| {
                                            Ok((k.clone(), v.as_u64().ok_or("bad counter value")?))
                                        })
                                        .collect::<Result<Vec<_>, String>>()
                                })
                                .transpose()?
                                .unwrap_or_default(),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .transpose()?
            .unwrap_or_default();
        Ok(CompileReport {
            optimised: v.get("optimised").and_then(Json::as_bool).unwrap_or(false),
            source_steps: u64_of(v, "source_steps")? as usize,
            plan_steps: u64_of(v, "plan_steps")? as usize,
            passes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompileReport {
        let mut p1 = PassStat::new("broadcast-planning", 10);
        p1.count("broadcast_copies", 7);
        p1.count("broadcast_copies", 3);
        let mut p2 = PassStat::new("cleanup", 10);
        p2.steps_after = 8;
        p2.count("nops_removed", 2);
        CompileReport { optimised: true, source_steps: 12, plan_steps: 8, passes: vec![p1, p2] }
    }

    #[test]
    fn counters_accumulate() {
        let r = sample();
        assert_eq!(r.pass("broadcast-planning").unwrap().counter("broadcast_copies"), 10);
        assert_eq!(r.pass("cleanup").unwrap().counter("missing"), 0);
        assert_eq!(r.steps_removed(), 2);
    }

    #[test]
    fn json_round_trip() {
        let r = sample();
        let back = CompileReport::from_value(&Json::parse(&r.to_value().to_pretty()).unwrap());
        assert_eq!(back.unwrap(), r);
    }

    #[test]
    fn render_mentions_every_pass() {
        let text = sample().render();
        assert!(text.contains("broadcast-planning"));
        assert!(text.contains("cleanup"));
        assert!(text.contains("nops_removed=2"));
        assert!(text.contains("optimised"));
    }
}
