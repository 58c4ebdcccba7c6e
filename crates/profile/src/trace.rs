//! The trace recorder and its Chrome trace-event serialisation.
//!
//! The execution engine calls one recorder method per program step,
//! mirroring exactly what it records into `CycleStats`; the recorder keeps
//! its own monotone device clock (in cycles) so that `Σ event durations on
//! the step lane == device_cycles`. Serialisation follows the Chrome
//! trace-event format (`ph: "X"` complete events, `ph: "M"` metadata), with
//! one tick = one device cycle, so Perfetto's time axis reads directly in
//! cycles.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use json::Json;

/// Default number of per-tile lanes emitted into the Chrome trace. Real
/// machines have 1472 tiles per chip; a trace with one lane per tile of a
/// 16-IPU partition would be unusable (and enormous), so only the first
/// `tile_lanes` tiles get individual lanes. Override with the
/// `GRAPHENE_TRACE_TILES` environment variable or
/// [`TraceRecorder::new`].
pub const DEFAULT_TILE_LANES: usize = 16;

/// Hard cap on recorded events; past it, new events are dropped (counted
/// and reported in the trace metadata) so a long solve cannot exhaust
/// memory.
const MAX_EVENTS: usize = 1_000_000;

/// Which timeline lane an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Device steps: compute sets, exchanges, syncs — the BSP critical
    /// path; durations on this lane sum to `device_cycles`.
    Steps,
    /// Nested label slices (`Prog::Label` scopes).
    Labels,
    /// Busy time of one tile during compute steps.
    Tile(usize),
}

/// One completed slice.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub name: String,
    pub lane: Lane,
    /// Start, in device cycles since the recorder was attached.
    pub ts: u64,
    /// Duration in device cycles.
    pub dur: u64,
    /// Extra key/values shown in the trace viewer's args pane.
    pub args: Vec<(&'static str, Json)>,
}

/// Aggregated record of one exchange step (for the text report's
/// exchange-volume table).
#[derive(Clone, Debug)]
pub struct ExchangeRecord {
    pub name: String,
    pub cycles: u64,
    pub bytes: u64,
    pub regions: usize,
}

/// Records engine execution as timeline events; see the module docs.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    tile_lanes: usize,
    clock: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
    /// (label, start-cycle) for labels currently open.
    open_labels: Vec<(String, u64)>,
    exchanges: Vec<ExchangeRecord>,
    /// compute-set name -> (total makespan cycles, executions).
    compute_totals: HashMap<String, (u64, u64)>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new(DEFAULT_TILE_LANES)
    }
}

/// Parse a `GRAPHENE_TRACE_TILES` value into a tile-lane cap:
/// `None`/empty/unparseable → [`DEFAULT_TILE_LANES`], a number → that many
/// lanes (`0` disables per-tile lanes entirely), `all` (case-insensitive)
/// → one lane per tile, uncapped.
pub fn parse_tile_lanes(v: Option<&str>) -> usize {
    match v {
        Some(s) if s.eq_ignore_ascii_case("all") => usize::MAX,
        Some(s) => s.trim().parse().unwrap_or(DEFAULT_TILE_LANES),
        None => DEFAULT_TILE_LANES,
    }
}

impl TraceRecorder {
    /// New recorder with `tile_lanes` per-tile lanes.
    pub fn new(tile_lanes: usize) -> TraceRecorder {
        TraceRecorder {
            tile_lanes,
            clock: 0,
            events: Vec::new(),
            dropped: 0,
            open_labels: Vec::new(),
            exchanges: Vec::new(),
            compute_totals: HashMap::new(),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= MAX_EVENTS {
            self.dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    // ------------------------------------------------------------------
    // Recording (driven by the execution engine)
    // ------------------------------------------------------------------

    /// One compute superstep. `per_tile` lists each participating tile's
    /// busy cycles; device time advances by the maximum (BSP makespan).
    ///
    /// Tile lane events are emitted in the order given. The engine always
    /// supplies `per_tile` sorted by tile id — either schedule merges its
    /// per-tile cycles in tile-id order — so the recorded timeline (and
    /// its Chrome-trace serialisation) is bit-identical whatever the
    /// host thread count was.
    pub fn compute(&mut self, name: &str, per_tile: &[(usize, u64)]) {
        let makespan = per_tile.iter().map(|&(_, c)| c).max().unwrap_or(0);
        let start = self.clock;
        for &(tile, cycles) in per_tile {
            if tile < self.tile_lanes && cycles > 0 {
                self.push(TraceEvent {
                    name: name.to_string(),
                    lane: Lane::Tile(tile),
                    ts: start,
                    dur: cycles,
                    args: Vec::new(),
                });
            }
        }
        self.push(TraceEvent {
            name: name.to_string(),
            lane: Lane::Steps,
            ts: start,
            dur: makespan,
            args: vec![("phase", Json::from("compute")), ("tiles", Json::from(per_tile.len()))],
        });
        self.clock += makespan;
        let e = self.compute_totals.entry(name.to_string()).or_insert((0, 0));
        e.0 += makespan;
        e.1 += 1;
    }

    /// One exchange phase: `cycles` of device time moving `bytes` over the
    /// fabric in `regions` distinct source regions.
    pub fn exchange(&mut self, name: &str, cycles: u64, bytes: u64, regions: usize) {
        self.push(TraceEvent {
            name: name.to_string(),
            lane: Lane::Steps,
            ts: self.clock,
            dur: cycles,
            args: vec![
                ("phase", Json::from("exchange")),
                ("bytes", Json::from(bytes)),
                ("regions", Json::from(regions)),
            ],
        });
        self.clock += cycles;
        self.exchanges.push(ExchangeRecord { name: name.to_string(), cycles, bytes, regions });
    }

    /// One BSP synchronisation barrier.
    pub fn sync(&mut self, cycles: u64) {
        self.push(TraceEvent {
            name: "sync".to_string(),
            lane: Lane::Steps,
            ts: self.clock,
            dur: cycles,
            args: vec![("phase", Json::from("sync"))],
        });
        self.clock += cycles;
    }

    /// A zero-duration marker on the Steps lane — fault injections,
    /// detections and recovery actions use these so they line up with the
    /// device timeline without perturbing the clock.
    pub fn instant(&mut self, name: &str, detail: &str) {
        self.push(TraceEvent {
            name: name.to_string(),
            lane: Lane::Steps,
            ts: self.clock,
            dur: 0,
            args: vec![("phase", Json::from("instant")), ("detail", Json::from(detail))],
        });
    }

    /// Enter a named scope (`Prog::Label`).
    pub fn begin_label(&mut self, name: &str) {
        self.open_labels.push((name.to_string(), self.clock));
    }

    /// Leave the innermost scope, emitting its slice.
    pub fn end_label(&mut self) {
        let popped = self.open_labels.pop();
        debug_assert!(popped.is_some(), "end_label without begin_label");
        if let Some((name, start)) = popped {
            let depth = self.open_labels.len();
            self.push(TraceEvent {
                name,
                lane: Lane::Labels,
                ts: start,
                dur: self.clock - start,
                args: vec![("depth", Json::from(depth))],
            });
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Device cycles recorded so far (mirrors `CycleStats::device_cycles`
    /// for the steps recorded through this recorder).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// All recorded events (unsorted; serialisation sorts by start time).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events dropped past the recorder's memory cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-exchange-step records, in execution order.
    pub fn exchanges(&self) -> &[ExchangeRecord] {
        &self.exchanges
    }

    /// Exchange steps aggregated by name: `(name, executions, cycles,
    /// bytes)`, sorted descending by bytes.
    pub fn exchanges_by_name(&self) -> Vec<(String, u64, u64, u64)> {
        let mut agg: HashMap<&str, (u64, u64, u64)> = HashMap::new();
        for e in &self.exchanges {
            let a = agg.entry(&e.name).or_insert((0, 0, 0));
            a.0 += 1;
            a.1 += e.cycles;
            a.2 += e.bytes;
        }
        let mut v: Vec<_> =
            agg.into_iter().map(|(n, (c, cy, b))| (n.to_string(), c, cy, b)).collect();
        v.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
        v
    }

    /// Compute sets aggregated by name: `(name, total makespan cycles,
    /// executions)`, sorted descending by cycles.
    pub fn compute_sets_sorted(&self) -> Vec<(String, u64, u64)> {
        let mut v: Vec<_> =
            self.compute_totals.iter().map(|(n, &(c, k))| (n.clone(), c, k)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    // ------------------------------------------------------------------
    // Chrome trace-event serialisation
    // ------------------------------------------------------------------

    /// Serialise to the Chrome trace-event JSON object format. Loadable in
    /// Perfetto / `chrome://tracing`; one tick = one device cycle. Events
    /// are sorted by start time (ties: longer slice first, so nesting
    /// renders correctly), giving monotonically non-decreasing `ts`.
    pub fn to_chrome_trace(&self) -> Json {
        const PID_DEVICE: u32 = 0;
        const PID_TILES: u32 = 1;
        const TID_STEPS: u32 = 0;
        const TID_LABELS: u32 = 1;

        let mut events: Vec<Json> = Vec::new();
        let meta = |name: &str, pid: u32, tid: Option<u32>, value: &str| {
            let mut pairs = vec![
                ("name".to_string(), Json::from(name)),
                ("ph".to_string(), Json::from("M")),
                ("ts".to_string(), Json::from(0u64)),
                ("pid".to_string(), Json::from(pid)),
            ];
            if let Some(t) = tid {
                pairs.push(("tid".to_string(), Json::from(t)));
            }
            pairs.push(("args".to_string(), Json::obj([("name", Json::from(value))])));
            Json::Obj(pairs)
        };
        events.push(meta("process_name", PID_DEVICE, None, "device"));
        events.push(meta("thread_name", PID_DEVICE, Some(TID_STEPS), "steps"));
        events.push(meta("thread_name", PID_DEVICE, Some(TID_LABELS), "labels"));
        events.push(meta("process_name", PID_TILES, None, "tiles"));
        // Sized by the highest tile lane actually recorded (not by the
        // cap, which may be "all tiles" = usize::MAX).
        let max_tile = self
            .events
            .iter()
            .filter_map(|e| match e.lane {
                Lane::Tile(t) => Some(t),
                _ => None,
            })
            .max();
        let mut tile_named = vec![false; max_tile.map_or(0, |t| t + 1)];
        for ev in &self.events {
            if let Lane::Tile(t) = ev.lane {
                if t < tile_named.len() && !tile_named[t] {
                    tile_named[t] = true;
                }
            }
        }
        for (t, named) in tile_named.iter().enumerate() {
            if *named {
                events.push(meta("thread_name", PID_TILES, Some(t as u32), &format!("tile {t}")));
            }
        }

        // Slices, sorted by (ts asc, dur desc): non-decreasing timestamps
        // and proper nesting on each lane. Labels still open when the
        // trace is serialised are closed "now" (at the current clock).
        let mut slices: Vec<&TraceEvent> = self.events.iter().collect();
        let synth: Vec<TraceEvent> = self
            .open_labels
            .iter()
            .enumerate()
            .map(|(depth, (name, start))| TraceEvent {
                name: name.clone(),
                lane: Lane::Labels,
                ts: *start,
                dur: self.clock - start,
                args: vec![("depth", Json::from(depth)), ("open", Json::from(true))],
            })
            .collect();
        slices.extend(synth.iter());
        slices.sort_by(|a, b| a.ts.cmp(&b.ts).then(b.dur.cmp(&a.dur)));

        // Cumulative counter series (ph "C") derived from the sorted slice
        // stream: exchange bytes and sync count over device time. Perfetto
        // renders these as step graphs under the device process.
        let mut cum_bytes = 0u64;
        let mut cum_syncs = 0u64;
        for ev in slices {
            let (pid, tid) = match ev.lane {
                Lane::Steps => (PID_DEVICE, TID_STEPS),
                Lane::Labels => (PID_DEVICE, TID_LABELS),
                Lane::Tile(t) => (PID_TILES, t as u32),
            };
            let mut pairs = vec![
                ("name".to_string(), Json::from(ev.name.as_str())),
                ("ph".to_string(), Json::from("X")),
                ("ts".to_string(), Json::from(ev.ts)),
                ("dur".to_string(), Json::from(ev.dur)),
                ("pid".to_string(), Json::from(pid)),
                ("tid".to_string(), Json::from(tid)),
            ];
            if !ev.args.is_empty() {
                pairs.push((
                    "args".to_string(),
                    Json::Obj(ev.args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()),
                ));
            }
            events.push(Json::Obj(pairs));
            if ev.lane != Lane::Steps {
                continue;
            }
            let phase = ev.args.iter().find(|(k, _)| *k == "phase").and_then(|(_, v)| v.as_str());
            let counter = match phase {
                Some("exchange") => {
                    cum_bytes += ev
                        .args
                        .iter()
                        .find(|(k, _)| *k == "bytes")
                        .and_then(|(_, v)| v.as_u64())
                        .unwrap_or(0);
                    Some(("exchange bytes", Json::obj([("bytes", Json::from(cum_bytes))])))
                }
                Some("sync") => {
                    cum_syncs += 1;
                    Some(("syncs", Json::obj([("count", Json::from(cum_syncs))])))
                }
                _ => None,
            };
            if let Some((name, args)) = counter {
                events.push(Json::obj([
                    ("name", Json::from(name)),
                    ("ph", Json::from("C")),
                    ("ts", Json::from(ev.ts)),
                    ("pid", Json::from(PID_DEVICE)),
                    ("args", args),
                ]));
            }
        }

        Json::obj([
            ("traceEvents", Json::Arr(events)),
            (
                "otherData",
                Json::obj([
                    ("clock", Json::from("ipu device cycles (1 trace tick = 1 cycle)")),
                    ("device_cycles", Json::from(self.clock)),
                    ("dropped_events", Json::from(self.dropped)),
                ]),
            ),
        ])
    }

    /// Write the Chrome trace (compact JSON) to `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_chrome_trace().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceRecorder {
        let mut t = TraceRecorder::new(4);
        t.begin_label("solver");
        t.sync(10);
        t.exchange("halo", 20, 512, 3);
        t.begin_label("spmv");
        t.compute("spmv_cs", &[(0, 100), (1, 80), (9, 40)]);
        t.end_label();
        t.compute("axpy", &[(0, 5), (1, 5)]);
        t.end_label();
        t
    }

    #[test]
    fn clock_sums_step_durations() {
        let t = sample();
        assert_eq!(t.clock(), 10 + 20 + 100 + 5);
        let steps: u64 = t.events().iter().filter(|e| e.lane == Lane::Steps).map(|e| e.dur).sum();
        assert_eq!(steps, t.clock());
    }

    #[test]
    fn tile_lanes_are_capped() {
        let t = sample();
        // Tile 9 exceeds the 4-lane cap and must not appear.
        assert!(t.events().iter().all(|e| e.lane != Lane::Tile(9)));
        assert!(t.events().iter().any(|e| e.lane == Lane::Tile(0)));
    }

    #[test]
    fn labels_nest_and_span() {
        let t = sample();
        let labels: Vec<_> = t.events().iter().filter(|e| e.lane == Lane::Labels).collect();
        assert_eq!(labels.len(), 2);
        let spmv = labels.iter().find(|e| e.name == "spmv").unwrap();
        let solver = labels.iter().find(|e| e.name == "solver").unwrap();
        assert_eq!(spmv.dur, 100);
        assert_eq!(solver.ts, 0);
        assert_eq!(solver.dur, t.clock());
        // Proper nesting.
        assert!(solver.ts <= spmv.ts && spmv.ts + spmv.dur <= solver.ts + solver.dur);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_monotone_ts() {
        let t = sample();
        let text = t.to_chrome_trace().to_string();
        let v = Json::parse(&text).expect("valid JSON");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!evs.is_empty());
        let mut last = 0u64;
        for e in evs {
            let ts = e.get("ts").unwrap().as_u64().unwrap();
            assert!(ts >= last, "ts regressed: {ts} < {last}");
            last = ts;
            let ph = e.get("ph").unwrap().as_str().unwrap();
            assert!(ph == "X" || ph == "M" || ph == "C");
            if ph == "X" {
                assert!(e.get("dur").unwrap().as_u64().is_some());
            }
        }
        // Metadata names both processes.
        assert!(text.contains("\"device\"") && text.contains("\"tiles\""));
    }

    #[test]
    fn counter_events_accumulate_exchange_bytes_and_syncs() {
        let mut t = sample();
        t.exchange("halo", 5, 100, 1);
        let v = t.to_chrome_trace();
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        let bytes: Vec<u64> = evs
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("C")
                    && e.get("name").and_then(Json::as_str) == Some("exchange bytes")
            })
            .map(|e| e.get("args").unwrap().get("bytes").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(bytes, vec![512, 612]);
        let syncs: Vec<u64> = evs
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("C")
                    && e.get("name").and_then(Json::as_str) == Some("syncs")
            })
            .map(|e| e.get("args").unwrap().get("count").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(syncs, vec![1]);
    }

    #[test]
    fn tile_lane_cap_parses_from_env_values() {
        assert_eq!(parse_tile_lanes(None), DEFAULT_TILE_LANES);
        assert_eq!(parse_tile_lanes(Some("4")), 4);
        assert_eq!(parse_tile_lanes(Some(" 32 ")), 32);
        assert_eq!(parse_tile_lanes(Some("0")), 0);
        assert_eq!(parse_tile_lanes(Some("all")), usize::MAX);
        assert_eq!(parse_tile_lanes(Some("ALL")), usize::MAX);
        assert_eq!(parse_tile_lanes(Some("nonsense")), DEFAULT_TILE_LANES);
        assert_eq!(parse_tile_lanes(Some("")), DEFAULT_TILE_LANES);

        // The parsed cap is respected by the recorder: a lane count of 2
        // drops tiles ≥ 2, "all" keeps every tile, 0 keeps none.
        let mut capped = TraceRecorder::new(parse_tile_lanes(Some("2")));
        capped.compute("cs", &[(0, 5), (1, 5), (2, 5), (9, 5)]);
        assert!(capped.events().iter().any(|e| e.lane == Lane::Tile(1)));
        assert!(capped.events().iter().all(|e| e.lane != Lane::Tile(2)));
        let mut all = TraceRecorder::new(parse_tile_lanes(Some("all")));
        all.compute("cs", &[(0, 5), (9, 5)]);
        assert!(all.events().iter().any(|e| e.lane == Lane::Tile(9)));
        all.to_chrome_trace(); // uncapped lanes must not blow up serialisation
        let mut none = TraceRecorder::new(parse_tile_lanes(Some("0")));
        none.compute("cs", &[(0, 5)]);
        assert!(none.events().iter().all(|e| !matches!(e.lane, Lane::Tile(_))));
    }

    #[test]
    fn open_labels_are_closed_in_serialisation() {
        let mut t = TraceRecorder::new(1);
        t.begin_label("dangling");
        t.sync(7);
        let v = t.to_chrome_trace();
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        let found = evs.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("dangling")
                && e.get("dur").and_then(Json::as_u64) == Some(7)
        });
        assert!(found, "open label missing from trace");
    }

    #[test]
    fn identical_recordings_serialise_identically() {
        // The engine-equivalence guarantee leans on this: equal event streams
        // (per-tile lists pre-sorted by tile id) must produce equal bytes.
        let a = sample().to_chrome_trace().to_string();
        let b = sample().to_chrome_trace().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn aggregations_sum_per_name() {
        let mut t = sample();
        t.exchange("halo", 5, 100, 1);
        let ex = t.exchanges_by_name();
        assert_eq!(ex[0].0, "halo");
        assert_eq!(ex[0].1, 2); // executions
        assert_eq!(ex[0].2, 25); // cycles
        assert_eq!(ex[0].3, 612); // bytes
        let cs = t.compute_sets_sorted();
        assert_eq!(cs[0].0, "spmv_cs");
        assert_eq!(cs[0].1, 100);
    }
}
