//! Plan-aware performance attribution ("graphene-scope").
//!
//! The engine's [`CycleStats`] answers *what phase/label* cycles went to;
//! this module answers *which `ExecPlan` step, compute set, and tile*.
//! The execution engine drives a [`PerfRecorder`] in lock-step with its
//! cycle accounting: every planned step that charges device cycles also
//! stamps them onto its `StepId`, so per-step totals **partition
//! `device_cycles` exactly** — the same invariant style as the label
//! accounting, and tested property-style over random programs.
//!
//! From the raw recorder plus static per-step metadata
//! ([`StepMeta`], built by the graph crate from the `ExecPlan`) a
//! [`PerfReport`] derives:
//!
//! * per-step cycle/byte/sync attribution mapped back to source labels;
//! * load-imbalance analysis per compute set — makespan vs mean tile
//!   cycles, imbalance %, top-k hottest tiles;
//! * exchange-congestion tables — bytes per link class (on-chip fabric vs
//!   IPU-Link), region counts, broadcast fan-out;
//! * a roofline summary — flops, SRAM bytes, arithmetic intensity and
//!   achieved-vs-peak throughput per step;
//! * a speed-of-light "what-if": device cycles under perfect tile balance
//!   and/or zero exchange.
//!
//! Everything is host-side observation: attaching a recorder never
//! changes device cycle totals, and the report is bit-identical on one
//! host thread and tile-parallel (all aggregation is
//! order-independent integer arithmetic; derived floats are computed from
//! identical integers by identical expressions).
//!
//! [`CycleStats`]: ipu_sim::clock::CycleStats

use crate::metrics::Metrics;
use json::Json;

/// What kind of plan step a [`StepMeta`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// A compute set execution (optionally with a broadcast exchange).
    Execute,
    /// A data exchange.
    Exchange,
    /// An on-tile tensor copy.
    Copy,
    /// Control flow that charges sync cycles (`If`/`While` conditions).
    Control,
}

impl StepKind {
    pub fn as_str(self) -> &'static str {
        match self {
            StepKind::Execute => "execute",
            StepKind::Exchange => "exchange",
            StepKind::Copy => "copy",
            StepKind::Control => "control",
        }
    }
}

impl std::str::FromStr for StepKind {
    type Err = String;

    /// The kind [`StepKind::as_str`] names.
    fn from_str(s: &str) -> Result<StepKind, String> {
        match s {
            "execute" => Ok(StepKind::Execute),
            "exchange" => Ok(StepKind::Exchange),
            "copy" => Ok(StepKind::Copy),
            "control" => Ok(StepKind::Control),
            other => Err(format!("unknown step kind {other:?}")),
        }
    }
}

/// Static, per-execution metadata for one plan step, derived from the
/// `ExecPlan` by `graphene-graph` (which knows the plan/graph types this
/// crate must not depend on).
#[derive(Clone, Debug)]
pub struct StepMeta {
    pub id: usize,
    pub kind: StepKind,
    /// Compute-set / exchange / copy name.
    pub name: String,
    /// Innermost enclosing source label ([`crate::UNLABELLED`] outside any).
    pub label: String,
    /// Distinct exchange regions moved per execution of this step.
    pub regions: u64,
    /// Broadcast fan-out: max destination copies sharing one source
    /// region per execution (1 = point-to-point).
    pub max_fanout: u64,
}

impl StepMeta {
    /// Placeholder for steps that never charge cycles (Seq/Nop/...).
    pub fn control(id: usize) -> StepMeta {
        StepMeta {
            id,
            kind: StepKind::Control,
            name: String::new(),
            label: crate::UNLABELLED.to_string(),
            regions: 0,
            max_fanout: 0,
        }
    }
}

/// Dynamic per-step accumulators.
#[derive(Clone, Debug, Default)]
struct StepDyn {
    compute_runs: u64,
    exchange_runs: u64,
    syncs: u64,
    compute_cycles: u64,
    exchange_cycles: u64,
    sync_cycles: u64,
    /// Σ over runs of Σ per-tile busy cycles (for mean-vs-makespan).
    sum_busy: u64,
    /// Max tiles that participated in any one run.
    participants: u64,
    on_chip_bytes: u64,
    link_bytes: u64,
    flops: u64,
    mem_bytes: u64,
    /// Per-tile busy cycles across all runs; empty until first compute.
    tile_busy: Vec<u64>,
}

/// The raw per-step recorder the engine drives during plan replay.
///
/// All methods are O(participating tiles) or O(1); nothing here reads the
/// clock, so attaching a recorder cannot perturb device cycle totals.
#[derive(Clone, Debug)]
pub struct PerfRecorder {
    steps: Vec<StepDyn>,
    num_tiles: usize,
}

impl PerfRecorder {
    pub fn new(num_steps: usize, num_tiles: usize) -> PerfRecorder {
        PerfRecorder { steps: vec![StepDyn::default(); num_steps], num_tiles }
    }

    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// One compute superstep of `step`: per-tile busy cycles, in any
    /// order (aggregation is order-independent).
    pub fn record_compute(&mut self, step: usize, per_tile: &[(usize, u64)]) {
        let d = &mut self.steps[step];
        if d.tile_busy.is_empty() {
            d.tile_busy = vec![0; self.num_tiles];
        }
        let mut max = 0u64;
        let mut sum = 0u64;
        for &(tile, cycles) in per_tile {
            d.tile_busy[tile] += cycles;
            sum += cycles;
            max = max.max(cycles);
        }
        d.compute_cycles += max;
        d.sum_busy += sum;
        d.participants = d.participants.max(per_tile.len() as u64);
        d.compute_runs += 1;
    }

    /// One exchange phase of `step`, with its bytes split by link class.
    pub fn record_exchange(&mut self, step: usize, cycles: u64, on_chip: u64, link: u64) {
        let d = &mut self.steps[step];
        d.exchange_cycles += cycles;
        d.on_chip_bytes += on_chip;
        d.link_bytes += link;
        d.exchange_runs += 1;
    }

    /// One BSP sync charged by `step`.
    pub fn record_sync(&mut self, step: usize, cycles: u64) {
        let d = &mut self.steps[step];
        d.sync_cycles += cycles;
        d.syncs += 1;
    }

    /// Work counters for one compute superstep of `step` (flops and SRAM
    /// bytes summed over participating tiles).
    pub fn record_flops(&mut self, step: usize, flops: u64, mem_bytes: u64) {
        let d = &mut self.steps[step];
        d.flops += flops;
        d.mem_bytes += mem_bytes;
    }

    /// Σ over steps of (compute + exchange + sync) cycles — equals the
    /// engine's `device_cycles` when every charge site passes a step id.
    pub fn total_cycles(&self) -> u64 {
        self.steps.iter().map(|d| d.compute_cycles + d.exchange_cycles + d.sync_cycles).sum()
    }
}

/// One step's row in the report.
#[derive(Clone, Debug, PartialEq)]
pub struct StepReport {
    pub id: usize,
    pub kind: String,
    pub name: String,
    pub label: String,
    /// Times the step executed (max over its charge kinds).
    pub runs: u64,
    pub compute_cycles: u64,
    pub exchange_cycles: u64,
    pub sync_cycles: u64,
    pub total_cycles: u64,
    pub syncs: u64,
    pub on_chip_bytes: u64,
    pub link_bytes: u64,
    /// Distinct exchange regions per execution (static).
    pub regions: u64,
    /// Max destination copies sharing one source region (static).
    pub max_fanout: u64,
    /// Tiles participating in one compute superstep.
    pub participants: u64,
    /// Σ per-tile busy cycles across all runs.
    pub sum_busy: u64,
    /// `100·(1 − mean/makespan)` over participating tiles; 0 = perfect.
    pub imbalance_pct: f64,
    /// Top-k busiest `(tile, busy_cycles)` for this step.
    pub hot_tiles: Vec<(u64, u64)>,
    pub flops: u64,
    pub mem_bytes: u64,
    /// flops / SRAM bytes — the roofline x-axis.
    pub arithmetic_intensity: f64,
    /// Achieved per-tile throughput as % of the cost model's f32 FMA peak.
    pub peak_pct: f64,
}

impl StepReport {
    pub fn exchange_bytes(&self) -> u64 {
        self.on_chip_bytes + self.link_bytes
    }
}

/// Whole-run totals and the speed-of-light "what-if" estimates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpeedOfLight {
    /// Σ per-step cycles == device cycles.
    pub device_cycles: u64,
    pub compute_cycles: u64,
    pub exchange_cycles: u64,
    pub sync_cycles: u64,
    /// Compute replaced by `ceil(Σ busy / participants)` per step —
    /// device cycles if every compute set were perfectly balanced.
    pub perfect_balance_cycles: u64,
    /// Device cycles with all exchange removed (syncs kept).
    pub zero_exchange_cycles: u64,
    /// Perfect balance *and* zero exchange: balanced compute + syncs —
    /// the BSP lower bound this plan could approach.
    pub ideal_cycles: u64,
}

/// The assembled perf section: per-step attribution, imbalance,
/// congestion, roofline, speed-of-light, and host-side [`Metrics`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfReport {
    /// Steps that charged any cycles, sorted by total cycles descending
    /// (ties by id ascending).
    pub steps: Vec<StepReport>,
    /// Plan size (including steps that never charged cycles).
    pub plan_steps: usize,
    pub num_tiles: usize,
    /// The cost model's per-tile f32 FMA peak, flops/cycle.
    pub peak_flops_per_cycle: f64,
    pub totals: SpeedOfLight,
    /// Host-side metrics (attempt latency, retries, checkpoints...);
    /// empty at engine level, filled in by `runner::solve`. Excluded from
    /// [`PerfReport::attribution_json`] because host wall-clock is not
    /// deterministic.
    pub metrics: Metrics,
}

impl PerfReport {
    /// Assemble a report from static metadata plus the recorder.
    /// `metas.len()` must equal the recorder's step count.
    pub fn build(
        metas: &[StepMeta],
        rec: &PerfRecorder,
        peak_flops_per_cycle: f64,
        top_k: usize,
    ) -> PerfReport {
        assert_eq!(metas.len(), rec.steps.len(), "meta/recorder step count mismatch");
        let mut steps = Vec::new();
        let mut totals = SpeedOfLight::default();
        for (meta, d) in metas.iter().zip(&rec.steps) {
            let total = d.compute_cycles + d.exchange_cycles + d.sync_cycles;
            totals.device_cycles += total;
            totals.compute_cycles += d.compute_cycles;
            totals.exchange_cycles += d.exchange_cycles;
            totals.sync_cycles += d.sync_cycles;
            let balanced = if d.participants > 0 {
                d.sum_busy.div_ceil(d.participants)
            } else {
                d.compute_cycles
            };
            totals.perfect_balance_cycles += balanced + d.exchange_cycles + d.sync_cycles;
            totals.zero_exchange_cycles += d.compute_cycles + d.sync_cycles;
            totals.ideal_cycles += balanced + d.sync_cycles;
            if total == 0 && d.flops == 0 && d.on_chip_bytes + d.link_bytes == 0 {
                continue;
            }
            let mean =
                if d.participants > 0 { d.sum_busy as f64 / d.participants as f64 } else { 0.0 };
            let imbalance_pct = if d.compute_cycles > 0 && d.participants > 0 {
                100.0 * (1.0 - mean / d.compute_cycles as f64)
            } else {
                0.0
            };
            let mut hot: Vec<(u64, u64)> = d
                .tile_busy
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(t, &c)| (t as u64, c))
                .collect();
            hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            hot.truncate(top_k);
            let arithmetic_intensity =
                if d.mem_bytes > 0 { d.flops as f64 / d.mem_bytes as f64 } else { 0.0 };
            let denom = d.compute_cycles as f64 * d.participants as f64 * peak_flops_per_cycle;
            let peak_pct = if denom > 0.0 { 100.0 * d.flops as f64 / denom } else { 0.0 };
            steps.push(StepReport {
                id: meta.id,
                kind: meta.kind.as_str().to_string(),
                name: meta.name.clone(),
                label: meta.label.clone(),
                runs: d.compute_runs.max(d.exchange_runs).max(d.syncs),
                compute_cycles: d.compute_cycles,
                exchange_cycles: d.exchange_cycles,
                sync_cycles: d.sync_cycles,
                total_cycles: total,
                syncs: d.syncs,
                on_chip_bytes: d.on_chip_bytes,
                link_bytes: d.link_bytes,
                regions: meta.regions,
                max_fanout: meta.max_fanout,
                participants: d.participants,
                sum_busy: d.sum_busy,
                imbalance_pct,
                hot_tiles: hot,
                flops: d.flops,
                mem_bytes: d.mem_bytes,
                arithmetic_intensity,
                peak_pct,
            });
        }
        steps.sort_by(|a, b| b.total_cycles.cmp(&a.total_cycles).then(a.id.cmp(&b.id)));
        PerfReport {
            steps,
            plan_steps: metas.len(),
            num_tiles: rec.num_tiles,
            peak_flops_per_cycle,
            totals,
            metrics: Metrics::new(),
        }
    }

    /// Σ per-step total cycles — the partition invariant's left-hand side.
    pub fn steps_total(&self) -> u64 {
        self.steps.iter().map(|s| s.total_cycles).sum()
    }

    // ------------------------------------------------------------------
    // JSON
    // ------------------------------------------------------------------

    fn value_impl(&self, with_metrics: bool) -> Json {
        let t = &self.totals;
        let mut pairs = vec![
            ("plan_steps".to_string(), Json::from(self.plan_steps)),
            ("num_tiles".to_string(), Json::from(self.num_tiles)),
            ("peak_flops_per_cycle".to_string(), Json::from(self.peak_flops_per_cycle)),
            (
                "totals".to_string(),
                Json::obj([
                    ("device_cycles", Json::from(t.device_cycles)),
                    ("compute_cycles", Json::from(t.compute_cycles)),
                    ("exchange_cycles", Json::from(t.exchange_cycles)),
                    ("sync_cycles", Json::from(t.sync_cycles)),
                    ("perfect_balance_cycles", Json::from(t.perfect_balance_cycles)),
                    ("zero_exchange_cycles", Json::from(t.zero_exchange_cycles)),
                    ("ideal_cycles", Json::from(t.ideal_cycles)),
                ]),
            ),
            (
                "steps".to_string(),
                Json::arr(self.steps.iter().map(|s| {
                    Json::obj([
                        ("id", Json::from(s.id)),
                        ("kind", Json::from(s.kind.as_str())),
                        ("name", Json::from(s.name.as_str())),
                        ("label", Json::from(s.label.as_str())),
                        ("runs", Json::from(s.runs)),
                        ("compute_cycles", Json::from(s.compute_cycles)),
                        ("exchange_cycles", Json::from(s.exchange_cycles)),
                        ("sync_cycles", Json::from(s.sync_cycles)),
                        ("total_cycles", Json::from(s.total_cycles)),
                        ("syncs", Json::from(s.syncs)),
                        ("on_chip_bytes", Json::from(s.on_chip_bytes)),
                        ("link_bytes", Json::from(s.link_bytes)),
                        ("regions", Json::from(s.regions)),
                        ("max_fanout", Json::from(s.max_fanout)),
                        ("participants", Json::from(s.participants)),
                        ("sum_busy", Json::from(s.sum_busy)),
                        ("imbalance_pct", Json::from(s.imbalance_pct)),
                        (
                            "hot_tiles",
                            Json::arr(
                                s.hot_tiles
                                    .iter()
                                    .map(|&(t, c)| Json::arr([Json::from(t), Json::from(c)])),
                            ),
                        ),
                        ("flops", Json::from(s.flops)),
                        ("mem_bytes", Json::from(s.mem_bytes)),
                        ("arithmetic_intensity", Json::from(s.arithmetic_intensity)),
                        ("peak_pct", Json::from(s.peak_pct)),
                    ])
                })),
            ),
        ];
        if with_metrics && !self.metrics.is_empty() {
            pairs.push(("metrics".to_string(), self.metrics.to_value()));
        }
        Json::Obj(pairs)
    }

    pub fn to_value(&self) -> Json {
        self.value_impl(true)
    }

    /// The deterministic attribution subset (no host-side metrics),
    /// serialised compactly — what the engine-option bit-identity tests
    /// and `perf_attrib` compare.
    pub fn attribution_json(&self) -> String {
        self.value_impl(false).to_string()
    }

    pub fn from_value(v: &Json) -> Result<PerfReport, String> {
        let u = |v: &Json, k: &str| -> Result<u64, String> {
            v.get(k).and_then(Json::as_u64).ok_or_else(|| format!("perf: missing '{k}'"))
        };
        let f = |v: &Json, k: &str| -> Result<f64, String> {
            v.get(k).and_then(Json::as_f64).ok_or_else(|| format!("perf: missing '{k}'"))
        };
        let s = |v: &Json, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("perf: missing '{k}'"))
        };
        let t = v.get("totals").ok_or("perf: missing 'totals'")?;
        let steps = v
            .get("steps")
            .and_then(Json::as_arr)
            .ok_or("perf: missing 'steps'")?
            .iter()
            .map(|sv| {
                let hot_tiles = sv
                    .get("hot_tiles")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(|p| {
                                let p = p.as_arr()?;
                                Some((p.first()?.as_u64()?, p.get(1)?.as_u64()?))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                Ok(StepReport {
                    id: u(sv, "id")? as usize,
                    kind: s(sv, "kind")?,
                    name: s(sv, "name")?,
                    label: s(sv, "label")?,
                    runs: u(sv, "runs")?,
                    compute_cycles: u(sv, "compute_cycles")?,
                    exchange_cycles: u(sv, "exchange_cycles")?,
                    sync_cycles: u(sv, "sync_cycles")?,
                    total_cycles: u(sv, "total_cycles")?,
                    syncs: u(sv, "syncs")?,
                    on_chip_bytes: u(sv, "on_chip_bytes")?,
                    link_bytes: u(sv, "link_bytes")?,
                    regions: u(sv, "regions")?,
                    max_fanout: u(sv, "max_fanout")?,
                    participants: u(sv, "participants")?,
                    sum_busy: u(sv, "sum_busy")?,
                    imbalance_pct: f(sv, "imbalance_pct")?,
                    hot_tiles,
                    flops: u(sv, "flops")?,
                    mem_bytes: u(sv, "mem_bytes")?,
                    arithmetic_intensity: f(sv, "arithmetic_intensity")?,
                    peak_pct: f(sv, "peak_pct")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PerfReport {
            steps,
            plan_steps: u(v, "plan_steps")? as usize,
            num_tiles: u(v, "num_tiles")? as usize,
            peak_flops_per_cycle: f(v, "peak_flops_per_cycle")?,
            totals: SpeedOfLight {
                device_cycles: u(t, "device_cycles")?,
                compute_cycles: u(t, "compute_cycles")?,
                exchange_cycles: u(t, "exchange_cycles")?,
                sync_cycles: u(t, "sync_cycles")?,
                perfect_balance_cycles: u(t, "perfect_balance_cycles")?,
                zero_exchange_cycles: u(t, "zero_exchange_cycles")?,
                ideal_cycles: u(t, "ideal_cycles")?,
            },
            metrics: v.get("metrics").map(Metrics::from_value).transpose()?.unwrap_or_default(),
        })
    }

    // ------------------------------------------------------------------
    // Text rendering
    // ------------------------------------------------------------------

    /// PopVision-style text sections: top-k attribution table, imbalance
    /// per compute set, exchange congestion, roofline, speed-of-light,
    /// metrics. Appended to the `*.report.txt` profiling artifact.
    pub fn render(&self, top_k: usize) -> String {
        let mut out = String::new();
        let dev = self.totals.device_cycles;
        out.push_str(&format!(
            "== per-step attribution (top {} of {} active / {} plan steps) ==\n",
            top_k.min(self.steps.len()),
            self.steps.len(),
            self.plan_steps
        ));
        out.push_str(
            "  id kind      label            name                       runs      total  share\n",
        );
        for s in self.steps.iter().take(top_k) {
            out.push_str(&format!(
                "{:>4} {:<9} {:<16} {:<26} {:>5} {:>10} {:>5.1}%\n",
                s.id,
                s.kind,
                clip(&s.label, 16),
                clip(&s.name, 26),
                s.runs,
                group(s.total_cycles),
                pct(s.total_cycles, dev),
            ));
        }

        let computes: Vec<&StepReport> =
            self.steps.iter().filter(|s| s.kind == "execute" && s.compute_cycles > 0).collect();
        if !computes.is_empty() {
            out.push_str("\n== load imbalance per compute set ==\n");
            out.push_str(
                "  id name                       tiles   makespan       mean  imbal  hottest tiles\n",
            );
            for s in computes.iter().take(top_k) {
                let mean = if s.participants > 0 {
                    s.sum_busy as f64 / s.participants as f64
                } else {
                    0.0
                };
                let hot = s
                    .hot_tiles
                    .iter()
                    .take(4)
                    .map(|&(t, c)| format!("{t}:{}", group(c)))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!(
                    "{:>4} {:<26} {:>5} {:>10} {:>10} {:>5.1}%  {}\n",
                    s.id,
                    clip(&s.name, 26),
                    s.participants,
                    group(s.compute_cycles),
                    group(mean.round() as u64),
                    s.imbalance_pct,
                    hot,
                ));
            }
        }

        let exchanges: Vec<&StepReport> =
            self.steps.iter().filter(|s| s.exchange_bytes() > 0).collect();
        if !exchanges.is_empty() {
            out.push_str("\n== exchange congestion ==\n");
            out.push_str(
                "  id name                        on-chip B     link B  regions  fanout     cycles\n",
            );
            for s in exchanges.iter().take(top_k) {
                out.push_str(&format!(
                    "{:>4} {:<26} {:>11} {:>10} {:>8} {:>7} {:>10}\n",
                    s.id,
                    clip(&s.name, 26),
                    group(s.on_chip_bytes),
                    group(s.link_bytes),
                    s.regions,
                    s.max_fanout,
                    group(s.exchange_cycles),
                ));
            }
        }

        let hot_flops: Vec<&StepReport> = self.steps.iter().filter(|s| s.flops > 0).collect();
        if !hot_flops.is_empty() {
            out.push_str(&format!(
                "\n== roofline (per-tile f32 peak {:.2} flops/cycle) ==\n",
                self.peak_flops_per_cycle
            ));
            out.push_str(
                "  id name                            flops     SRAM B  flops/B  % peak\n",
            );
            for s in hot_flops.iter().take(top_k) {
                out.push_str(&format!(
                    "{:>4} {:<26} {:>11} {:>10} {:>8.3} {:>6.2}%\n",
                    s.id,
                    clip(&s.name, 26),
                    group(s.flops),
                    group(s.mem_bytes),
                    s.arithmetic_intensity,
                    s.peak_pct,
                ));
            }
        }

        let t = &self.totals;
        out.push_str("\n== speed of light ==\n");
        out.push_str(&format!(
            "device cycles          {:>14}  (compute {} / exchange {} / sync {})\n",
            group(t.device_cycles),
            group(t.compute_cycles),
            group(t.exchange_cycles),
            group(t.sync_cycles),
        ));
        out.push_str(&format!(
            "perfect balance        {:>14}  ({:.1}% of device)\n",
            group(t.perfect_balance_cycles),
            pct(t.perfect_balance_cycles, t.device_cycles),
        ));
        out.push_str(&format!(
            "zero exchange          {:>14}  ({:.1}% of device)\n",
            group(t.zero_exchange_cycles),
            pct(t.zero_exchange_cycles, t.device_cycles),
        ));
        out.push_str(&format!(
            "ideal (both)           {:>14}  ({:.1}% of device)\n",
            group(t.ideal_cycles),
            pct(t.ideal_cycles, t.device_cycles),
        ));

        if !self.metrics.is_empty() {
            out.push_str("\n== host metrics ==\n");
            out.push_str(&self.metrics.to_value().to_pretty());
            out.push('\n');
        }
        out
    }
}

fn group(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn clip(s: &str, w: usize) -> String {
    if s.len() <= w {
        s.to_string()
    } else {
        format!(
            "{}…",
            &s[..s.char_indices().take(w - 1).last().map_or(0, |(i, c)| i + c.len_utf8())]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<StepMeta>, PerfRecorder) {
        let mut metas: Vec<StepMeta> = (0..4).map(StepMeta::control).collect();
        metas[1] = StepMeta {
            id: 1,
            kind: StepKind::Execute,
            name: "spmv".into(),
            label: "cg".into(),
            regions: 0,
            max_fanout: 0,
        };
        metas[2] = StepMeta {
            id: 2,
            kind: StepKind::Exchange,
            name: "halo".into(),
            label: "cg".into(),
            regions: 3,
            max_fanout: 2,
        };
        let mut rec = PerfRecorder::new(4, 4);
        rec.record_sync(1, 150);
        rec.record_compute(1, &[(0, 10), (1, 30), (2, 20)]);
        rec.record_flops(1, 12, 96);
        rec.record_sync(1, 150);
        rec.record_compute(1, &[(0, 10), (1, 30), (2, 20)]);
        rec.record_flops(1, 12, 96);
        rec.record_sync(2, 150);
        rec.record_exchange(2, 40, 512, 128);
        (metas, rec)
    }

    #[test]
    fn per_step_totals_partition_recorder_total() {
        let (metas, rec) = sample();
        let r = PerfReport::build(&metas, &rec, 2.0, 8);
        assert_eq!(r.steps_total(), rec.total_cycles());
        assert_eq!(r.totals.device_cycles, rec.total_cycles());
        // 2 runs of max-30 compute + 2×150 sync.
        let spmv = r.steps.iter().find(|s| s.name == "spmv").unwrap();
        assert_eq!(spmv.compute_cycles, 60);
        assert_eq!(spmv.sync_cycles, 300);
        assert_eq!(spmv.runs, 2);
        assert_eq!(spmv.participants, 3);
        assert_eq!(spmv.sum_busy, 120);
        assert_eq!(spmv.flops, 24);
        assert_eq!(spmv.mem_bytes, 192);
        // mean 40 vs makespan 60 → 33.3% imbalance.
        assert!((spmv.imbalance_pct - 100.0 * (1.0 - 40.0 / 60.0)).abs() < 1e-12);
        assert_eq!(spmv.hot_tiles[0], (1, 60));
        let halo = r.steps.iter().find(|s| s.name == "halo").unwrap();
        assert_eq!(halo.on_chip_bytes, 512);
        assert_eq!(halo.link_bytes, 128);
        assert_eq!(halo.regions, 3);
        assert_eq!(halo.max_fanout, 2);
    }

    #[test]
    fn speed_of_light_bounds() {
        let (metas, rec) = sample();
        let r = PerfReport::build(&metas, &rec, 2.0, 8);
        let t = &r.totals;
        // Balanced spmv: ceil(120/3)=40 per... summed per step: 2-run sum
        // collapses to ceil(sum_busy/participants)=40 total.
        assert_eq!(t.perfect_balance_cycles, 40 + t.exchange_cycles + t.sync_cycles);
        assert_eq!(t.zero_exchange_cycles, t.device_cycles - t.exchange_cycles);
        assert_eq!(t.ideal_cycles, 40 + t.sync_cycles);
        assert!(t.ideal_cycles <= t.perfect_balance_cycles);
        assert!(t.perfect_balance_cycles <= t.device_cycles);
    }

    #[test]
    fn json_round_trip_and_attribution_subset() {
        let (metas, rec) = sample();
        let mut r = PerfReport::build(&metas, &rec, 2.0, 8);
        r.metrics.counter_add("solve.attempts", 1);
        let back = PerfReport::from_value(&r.to_value()).unwrap();
        assert_eq!(back, r);
        // attribution_json excludes the (non-deterministic) metrics.
        assert!(!r.attribution_json().contains("metrics"));
        assert!(r.to_value().to_pretty().contains("metrics"));
    }

    #[test]
    fn render_has_all_sections() {
        let (metas, rec) = sample();
        let r = PerfReport::build(&metas, &rec, 2.0, 8);
        let text = r.render(10);
        for needle in [
            "per-step attribution",
            "load imbalance",
            "exchange congestion",
            "roofline",
            "speed of light",
        ] {
            assert!(text.contains(needle), "missing section {needle}:\n{text}");
        }
    }
}
