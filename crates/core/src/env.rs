//! The process environment, read in one place.
//!
//! [`EnvConfig`] is the only code under `crates/core/src` that reads the
//! environment, and [`EnvConfig::text`] the only line of it that does
//! (`GRAPHENE_BACKEND`, whose reader also refuses the removed variables,
//! goes through `BackendSpec::from_env`). The runner asks once per entry
//! ([`SolveOptions::resolved`](crate::runner::SolveOptions::resolved) for
//! the four variables that back an option, [`Plan::new`](crate::runner::Plan::new)
//! for the trace pair); below that line nothing consults the environment.
//! The bench binaries and the verification sweeps read their own
//! variables through it too, so [`EnvConfig::VARIABLES`] is the whole
//! surface (README "Environment" is tested against it).
//!
//! Every reader treats unset and empty alike (CI matrix templating
//! produces empty strings for legs that leave a key out) and — the trace
//! lane cap aside — turns a malformed value into a [`SolveError::Config`]
//! naming the variable, never into a silent default.

use std::path::PathBuf;

use backend::BackendSpec;
use ipu_sim::fault::FaultPlan;

use crate::resilience::SolveError;

const FLAG: &str = "`1/true/on/yes`, `0/false/off/no`";
const BACKENDS: &str = "`ipu-sim`, `cpu`, `cpu:par`, `gpu-model`";
const FAULTS: &str = "a fault plan: `flip@s10.t3:w0.b4`, `seed=7;n=3;classes=flip+xflip`, ...";

/// Where `GRAPHENE_TRACE` sends the Chrome traces (the base path: each
/// engine run takes the next [`profile::numbered_trace_path`] of it) and
/// how many per-tile lanes each carries (`GRAPHENE_TRACE_TILES`).
#[derive(Clone, Debug)]
pub struct TraceConfig {
    pub path: PathBuf,
    pub tile_lanes: usize,
}

/// The readers, one per variable (or pair). A namespace: the environment
/// is read when asked for, not cached, so a pinned option's variable is
/// never looked at.
pub struct EnvConfig;

impl EnvConfig {
    /// Every `GRAPHENE_*` variable the repository reads: `[name, accepted
    /// values, what unset or empty means, what it stands in for]`.
    pub const VARIABLES: [[&'static str; 4]; 10] = [
        ["GRAPHENE_BACKEND", BACKENDS, "`ipu-sim`", "`SolveOptions::backend`"],
        ["GRAPHENE_FAULTS", FAULTS, "no faults", "`SolveOptions::faults`"],
        ["GRAPHENE_TUNE", FLAG, "off", "`SolveOptions::tune`"],
        ["GRAPHENE_TUNE_CACHE", "a directory", "`.graphene-cache`", "`SolveOptions::tune_cache`"],
        ["GRAPHENE_TRACE", "a file path", "no trace", "a Chrome trace + text report per run"],
        ["GRAPHENE_TRACE_TILES", "a count or `all` (else: default)", "16", "trace tile lanes"],
        ["GRAPHENE_REPORT", "a directory", "no reports", "bench binaries' `<dir>/<bin>.json`"],
        ["GRAPHENE_VERIFY_CASES", "a positive integer", "shallow", "verification sweep depth"],
        ["GRAPHENE_BUDGET_BLESS", FLAG, "off", "`budget_check` rewrites the baseline"],
        ["GRAPHENE_BUDGET_OVERRIDE", FLAG, "off", "`budget_check` warns, never fails"],
    ];

    /// The value of `var`, `None` when unset, empty or blank.
    pub fn text(var: &str) -> Option<String> {
        std::env::var(var).ok().filter(|v| !v.trim().is_empty())
    }

    pub fn backend() -> Result<Option<BackendSpec>, SolveError> {
        BackendSpec::from_env().map_err(SolveError::Config)
    }

    pub fn faults() -> Result<Option<FaultPlan>, SolveError> {
        Self::text("GRAPHENE_FAULTS")
            .map(|spec| FaultPlan::parse(&spec).map_err(SolveError::Config))
            .transpose()
    }

    pub fn tune_cache() -> PathBuf {
        Self::text("GRAPHENE_TUNE_CACHE").unwrap_or_else(|| tune::DEFAULT_CACHE_DIR.into()).into()
    }

    pub fn trace() -> Option<TraceConfig> {
        let lanes = Self::text("GRAPHENE_TRACE_TILES");
        Some(TraceConfig {
            path: Self::text("GRAPHENE_TRACE")?.into(),
            tile_lanes: profile::parse_tile_lanes(lanes.as_deref()),
        })
    }

    pub fn report_dir() -> Option<PathBuf> {
        Self::text("GRAPHENE_REPORT").map(PathBuf::from)
    }

    pub fn verify_cases() -> Result<Option<u32>, SolveError> {
        let Some(v) = Self::text("GRAPHENE_VERIFY_CASES") else { return Ok(None) };
        v.trim().parse().ok().filter(|&n| n > 0).map(Some).ok_or_else(|| {
            SolveError::Config(format!("GRAPHENE_VERIFY_CASES: `{v}` is not a positive integer"))
        })
    }

    /// One of the on/off variables, through the shared grammar
    /// ([`graph::parse_flag`]).
    pub fn flag(var: &str) -> Result<Option<bool>, SolveError> {
        Self::text(var).map_or(Ok(None), |v| graph::parse_flag(var, &v)).map_err(SolveError::Config)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn flag_grammar() {
        // One grammar for every on/off variable: what `GRAPHENE_TUNE`
        // accepts, `GRAPHENE_BUDGET_BLESS` accepts, and a typo in either is
        // an error naming the variable and the value.
        for var in ["GRAPHENE_TUNE", "GRAPHENE_BUDGET_BLESS"] {
            for (v, want) in [
                ("", None),
                ("  ", None),
                ("1", Some(true)),
                ("true", Some(true)),
                ("ON", Some(true)),
                ("yes", Some(true)),
                ("0", Some(false)),
                ("false", Some(false)),
                ("off", Some(false)),
                ("No", Some(false)),
            ] {
                assert_eq!(graph::parse_flag(var, v).unwrap(), want, "{var}={v:?}");
            }
            for v in ["maybe", "2", "ture", "tuned", "-1"] {
                let e = graph::parse_flag(var, v).unwrap_err();
                assert!(e.contains(var) && e.contains(v), "{e}");
            }
        }
    }

    #[test]
    fn readme_environment_table_is_the_variables() {
        let readme = include_str!("../../../README.md");
        let section = readme.split("\n## Environment\n").nth(1).expect("README has the section");
        let section = section.split("\n## ").next().unwrap_or(section);
        let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `GRAPHENE_")).collect();
        let want: Vec<String> = super::EnvConfig::VARIABLES
            .iter()
            .map(|[name, values, unset, backs]| {
                format!("| `{name}` | {values} | {unset} | {backs} |")
            })
            .collect();
        assert_eq!(rows, want);
    }
}
