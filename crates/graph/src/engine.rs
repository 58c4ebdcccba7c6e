//! The execution engine — replay of a compiled [`ExecPlan`].
//!
//! The engine walks the flat plan the graph compiler produced at
//! `Graph::compile` time: every `Execute` step already carries its
//! broadcast [`ipu_sim::ExchangeProgram`], sync cost and participating
//! tiles; every `Exchange`/`Copy` its resolved block copies and
//! cycles. Nothing is derived on the hot path — the simulator counterpart
//! of loading a Poplar executable onto the device (where the statically
//! compiled exchange is the whole point) and reading the profiler
//! afterwards.
//!
//! Cost semantics per step:
//!
//! * `Execute` — one BSP superstep: a sync barrier, the precomputed
//!   broadcast exchange for operands read from remote tiles, then the
//!   per-tile maximum of codelet cycles.
//! * `Exchange` — a sync plus the fabric cost of the resolved
//!   blockwise copies (broadcast-aware, all-to-all, IPU-Link latency when
//!   chips are crossed).
//! * `Copy` — an on-tile memcpy parallelised over the worker threads.
//! * `If`/`While` — control-flow decisions synchronise all tiles.
//!
//! # One path
//!
//! The simulated *device* semantics are fixed, and so is how the *host*
//! runs each vertex. Dispatch is decided per vertex at engine build, in two
//! tiers: the codelet's lowered form ([`Lowered`]) — for the solvers' SpMV,
//! its residual and the two triangular sweeps one kernel instruction, else
//! the body typed and costed for the vertex's operand storage dtypes and
//! flattened into a register program — or, for a body that cannot be
//! typed, the dynamic [`Interp`], the oracle the lowered form is tested
//! against.
//!
//! Every compute set runs its vertices in program order on the caller's
//! thread; tile and worker concurrency is a device property, modelled in
//! cycles (per-tile counts merged in tile-id order), not a host schedule.

use std::collections::{BTreeMap, HashMap};

use ipu_sim::clock::CycleStats;
use ipu_sim::cost::DType;
use ipu_sim::exchange::ExchangeProgram;
use ipu_sim::fault::{Fault, FaultEvent, FaultKind, FaultPlan};
use ipu_sim::model::TileId;
use profile::perf::{PerfRecorder, PerfReport};
use profile::{CompileReport, PassStat, TraceRecorder};
use twofloat::{SoftDouble, TwoF32, TwoFloat};

use crate::codelet::{Charge, Codelet, Interp, Lowered, ParamData, Regs};
use crate::compute::{TensorSlice, Vertex, VertexKind};
use crate::graph::{Executable, Graph};
use crate::plan::{CopyStep, ExchangePhase, ExecPlan, ExecuteStep, PlanStep, StepId};
use crate::program::ElemCopy;
use crate::tensor::TensorId;

/// Runtime state of a [`FaultPlan`] inside one engine.
///
/// The plan itself is pure description; this carries what has actually
/// happened — which faults have fired (each fault is one-shot: a transient
/// upset, not a stuck-at), the log of fired events, and the per-run
/// superstep counter. The runner moves this state between engines across
/// recovery attempts ([`Engine::take_fault_state`] /
/// [`Engine::set_fault_state`]) so a fault that fired before a rollback
/// does not re-fire after it.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    resolved: Vec<Fault>,
    fired: Vec<bool>,
    log: Vec<FaultEvent>,
    /// Compute supersteps completed in the current `run()` (resets to 0 at
    /// the start of each run; exchange phases carry the superstep of the
    /// compute step that follows them).
    superstep: u64,
}

impl FaultState {
    /// Resolve `plan` against a concrete tile count. Resolution is a pure
    /// function of (plan, `num_tiles`), so the same plan replays
    /// bit-identically across engines and runs.
    pub fn new(plan: FaultPlan, num_tiles: usize) -> FaultState {
        let resolved = plan.resolve(num_tiles);
        let fired = vec![false; resolved.len()];
        FaultState { plan, resolved, fired, log: Vec::new(), superstep: 0 }
    }

    /// The plan this state was resolved from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The concrete faults the plan resolved to.
    pub fn resolved(&self) -> &[Fault] {
        &self.resolved
    }

    /// Every fault that has fired so far, in firing order.
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Whether every resolved fault has fired.
    pub fn all_fired(&self) -> bool {
        self.fired.iter().all(|&f| f)
    }
}

/// Typed backing storage of one tensor.
#[derive(Clone, Debug)]
pub enum Storage {
    F32(Vec<f32>),
    I32(Vec<i32>),
    Bool(Vec<bool>),
    Dw(Vec<TwoF32>),
    F64(Vec<SoftDouble>),
}

impl Storage {
    fn zeros(dtype: DType, len: usize) -> Storage {
        match dtype {
            DType::F32 => Storage::F32(vec![0.0; len]),
            DType::I32 => Storage::I32(vec![0; len]),
            DType::Bool => Storage::Bool(vec![false; len]),
            DType::DoubleWord => Storage::Dw(vec![TwoFloat::ZERO; len]),
            DType::F64Emulated => Storage::F64(vec![SoftDouble::ZERO; len]),
        }
    }

    fn len(&self) -> usize {
        match self {
            Storage::F32(v) => v.len(),
            Storage::I32(v) => v.len(),
            Storage::Bool(v) => v.len(),
            Storage::Dw(v) => v.len(),
            Storage::F64(v) => v.len(),
        }
    }

    fn get_f64(&self, i: usize) -> f64 {
        match self {
            Storage::F32(v) => v[i] as f64,
            Storage::I32(v) => v[i] as f64,
            Storage::Bool(v) => v[i] as u8 as f64,
            Storage::Dw(v) => v[i].to_f64(),
            Storage::F64(v) => v[i].0,
        }
    }

    fn set_f64(&mut self, i: usize, x: f64) {
        match self {
            Storage::F32(v) => v[i] = x as f32,
            Storage::I32(v) => v[i] = x as i32,
            Storage::Bool(v) => v[i] = x != 0.0,
            Storage::Dw(v) => v[i] = TwoFloat::from_f64(x),
            Storage::F64(v) => v[i] = SoftDouble(x),
        }
    }
}

/// Host-side view of tensor storage handed to callbacks.
pub struct HostView<'a> {
    pub graph: &'a Graph,
    storage: &'a mut [Storage],
}

impl HostView<'_> {
    /// Read a tensor's values as f64 (double-word pairs are summed —
    /// lossless; f32 widened).
    pub fn read_f64(&self, t: TensorId) -> Vec<f64> {
        let s = &self.storage[t];
        (0..s.len()).map(|i| s.get_f64(i)).collect()
    }

    /// Write f64 values into a tensor with the conversion its dtype
    /// implies.
    pub fn write_f64(&mut self, t: TensorId, values: &[f64]) {
        let s = &mut self.storage[t];
        assert_eq!(values.len(), s.len(), "length mismatch writing tensor {t}");
        for (i, &v) in values.iter().enumerate() {
            s.set_f64(i, v);
        }
    }

    /// Read element 0 of a tensor as f64.
    pub fn read_scalar(&self, t: TensorId) -> f64 {
        self.storage[t].get_f64(0)
    }
}

/// A registered host callback.
pub type HostCallback = Box<dyn FnMut(&mut HostView<'_>)>;

/// The execution engine for one compiled program.
pub struct Engine {
    graph: Graph,
    /// The compiled plan the engine replays.
    plan: ExecPlan,
    /// What the compiler's pass pipeline did to produce `plan`.
    report: CompileReport,
    storage: Vec<Storage>,
    stats: CycleStats,
    callbacks: HashMap<usize, HostCallback>,
    /// Optional timeline recorder, driven in lock-step with `stats`.
    trace: Option<TraceRecorder>,
    /// Optional fault-injection state. `None` (the default) keeps the hot
    /// path untouched: execution, stats and traces are bit-identical to an
    /// engine built before this field existed.
    faults: Option<FaultState>,
    /// Optional per-plan-step performance recorder, driven in lock-step
    /// with `stats`. Purely observational: it never reads or advances the
    /// clock, so device cycle totals are identical with or without it.
    perf: Option<PerfRecorder>,
    /// Every vertex's codelet lowered for its operand storage dtypes,
    /// stamped into the compile report as the `"native-kernel-selection"`
    /// pass.
    lowered: LoweredTable,
}

impl Engine {
    /// Build an engine: every vertex on its codelet's lowered form.
    pub fn new(exec: Executable) -> Self {
        let Executable { graph, plan, mut report } = exec;
        let lowered = LoweredTable::build(&graph);
        let mut stat = PassStat::new("native-kernel-selection", report.plan_steps);
        stat.count("codelets_total", graph.codelets.len() as u64);
        // Totals, not a row per codelet: a vertex that is not lowered runs
        // on the dynamic interpreter, correct but slower; one whose inner
        // loops are not recognised runs them a trip at a time, one whose
        // rows are not recognised runs each row's statements one
        // instruction at a time, and one whose maps are not recognised
        // runs them a trip at a time.
        let Coverage {
            vertices,
            lowered: vertices_lowered,
            looped,
            rowed,
            mapped,
            kernels: families,
        } = lowered.coverage();
        stat.count("vertices_total", vertices);
        stat.count("vertices_lowered", vertices_lowered);
        stat.count("vertices_looped", looped);
        stat.count("vertices_rowed", rowed);
        stat.count("vertices_mapped", mapped);
        stat.count("vertices_kernel", families.values().sum());
        for (name, n) in families {
            stat.count(&format!("kernel.{name}"), n);
        }
        report.passes.push(stat);
        let storage = graph.tensors.iter().map(|t| Storage::zeros(t.dtype, t.len())).collect();
        let stats = CycleStats::new(graph.model.num_tiles());
        Engine {
            graph,
            plan,
            report,
            storage,
            stats,
            callbacks: HashMap::new(),
            trace: None,
            faults: None,
            perf: None,
            lowered,
        }
    }

    /// Attach a fresh per-step performance recorder sized to this engine's
    /// plan and machine; subsequent `run()` calls attribute every cycle
    /// charge to its `StepId`. No effect on device cycles.
    pub fn enable_perf(&mut self) {
        self.perf = Some(PerfRecorder::new(self.plan.steps.len(), self.graph.model.num_tiles()));
    }

    /// The attached perf recorder, if any.
    pub fn perf(&self) -> Option<&PerfRecorder> {
        self.perf.as_ref()
    }

    /// Assemble the perf section from the attached recorder plus the
    /// plan's static step metadata. `None` when no recorder is attached.
    pub fn perf_report(&self, top_k: usize) -> Option<PerfReport> {
        let rec = self.perf.as_ref()?;
        let metas = crate::perf::build_step_metas(&self.plan);
        let peak = self.graph.cost.peak_flops_per_cycle(self.graph.model.workers_per_tile as u64);
        Some(PerfReport::build(&metas, rec, peak, top_k))
    }

    /// Arm a fault plan: resolve it against this engine's tile count and
    /// start with a fresh (nothing-fired) state.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        let tiles = self.graph.model.num_tiles();
        self.faults = Some(FaultState::new(plan, tiles));
    }

    /// Transplant previously taken fault state (e.g. across the engine
    /// rebuild of a recovery attempt, so already-fired transient faults do
    /// not re-fire).
    pub fn set_fault_state(&mut self, state: Option<FaultState>) {
        self.faults = state;
    }

    /// Detach and return the fault state, if any.
    pub fn take_fault_state(&mut self) -> Option<FaultState> {
        self.faults.take()
    }

    /// Faults that have fired so far (empty when no plan is armed).
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.as_ref().map(|f| f.log.as_slice()).unwrap_or(&[])
    }

    /// What the compiler's pass pipeline did to produce the plan this
    /// engine replays.
    pub fn compile_report(&self) -> &CompileReport {
        &self.report
    }

    /// The compiled plan this engine replays.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Register the host callback invoked by `Prog::Callback(id)`.
    pub fn register_callback(&mut self, id: usize, f: HostCallback) {
        self.callbacks.insert(id, f);
    }

    /// Accumulated cycle statistics across all `run()` calls since the last
    /// reset.
    pub fn stats(&self) -> &CycleStats {
        &self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Attach a trace recorder; subsequent `run()` calls record one
    /// timeline event per program step alongside the cycle accounting.
    pub fn set_trace(&mut self, trace: TraceRecorder) {
        self.trace = Some(trace);
    }

    /// The attached trace recorder, if any.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    /// Device seconds corresponding to the accumulated cycles.
    pub fn elapsed_seconds(&self) -> f64 {
        self.graph.model.cycles_to_seconds(self.stats.device_cycles())
    }

    pub fn read_tensor(&self, t: TensorId) -> Vec<f64> {
        let s = &self.storage[t];
        (0..s.len()).map(|i| s.get_f64(i)).collect()
    }

    pub fn write_tensor(&mut self, t: TensorId, values: &[f64]) {
        let s = &mut self.storage[t];
        assert_eq!(values.len(), s.len(), "length mismatch writing tensor {t}");
        for (i, &v) in values.iter().enumerate() {
            s.set_f64(i, v);
        }
    }

    pub fn read_scalar(&self, t: TensorId) -> f64 {
        self.storage[t].get_f64(0)
    }

    pub fn write_scalar(&mut self, t: TensorId, v: f64) {
        self.storage[t].set_f64(0, v);
    }

    /// Execute the program once.
    ///
    /// Panics if the program mentions a `Prog::Callback` id with no
    /// registered callback — silently skipping a host callback (progress
    /// reporting, data transfer) would corrupt solver state invisibly.
    pub fn run(&mut self) {
        for id in &self.plan.callback_ids {
            assert!(
                self.callbacks.contains_key(id),
                "program invokes host callback {id}, but no callback with that id was \
                 registered (Engine::register_callback) before Engine::run"
            );
        }
        if let Some(f) = self.faults.as_mut() {
            // Superstep coordinates are per-run; fired flags persist.
            f.superstep = 0;
        }
        let mut ctx = ExecCtx {
            graph: &self.graph,
            storage: &mut self.storage,
            stats: &mut self.stats,
            callbacks: &mut self.callbacks,
            trace: &mut self.trace,
            faults: &mut self.faults,
            perf: &mut self.perf,
            lowered: &self.lowered,
            bases: TensorBases::default(),
            per_tile: Vec::new(),
            params: Vec::new(),
            regs: Regs::default(),
        };
        ctx.exec_step(&self.plan, self.plan.root);
        debug_assert_eq!(
            self.stats.label_depth(),
            0,
            "label stack unbalanced after program execution"
        );
        debug_assert_eq!(
            self.stats.label_underflows(),
            0,
            "pop_label underflowed during program execution"
        );
    }
}

struct ExecCtx<'a> {
    graph: &'a Graph,
    storage: &'a mut Vec<Storage>,
    stats: &'a mut CycleStats,
    callbacks: &'a mut HashMap<usize, HostCallback>,
    trace: &'a mut Option<TraceRecorder>,
    faults: &'a mut Option<FaultState>,
    perf: &'a mut Option<PerfRecorder>,
    lowered: &'a LoweredTable,
    // Buffers kept for the whole run, so that replay allocates per run, not
    // per compute set or vertex: the storage's base pointers (refilled per
    // compute set), the per-tile cycle list, the operand slices (empty
    // between vertices) and the lowered form's registers.
    bases: TensorBases,
    per_tile: Vec<(TileId, u64)>,
    params: Vec<ParamData<'a>>,
    regs: Regs,
}

impl ExecCtx<'_> {
    /// Walk the compiled plan — the hot path. Every step is replayed from
    /// its precomputed data; nothing is derived here.
    fn exec_step(&mut self, plan: &ExecPlan, id: StepId) {
        match plan.step(id) {
            PlanStep::Nop => {}
            PlanStep::Seq(children) => {
                children.iter().for_each(|&c| self.exec_step(plan, c));
            }
            PlanStep::Execute(es) => self.execute_planned(id, es),
            PlanStep::Exchange(ph) => self.exchange_planned(id, ph),
            PlanStep::Copy(cp) => self.copy_planned(id, cp),
            PlanStep::Repeat(n, body) => {
                for _ in 0..*n {
                    self.exec_step(plan, *body);
                }
            }
            PlanStep::If { pred, then, otherwise, sync_cycles } => {
                // A control-flow decision synchronises all tiles; both
                // branches must leave the label stack balanced.
                let depth = self.stats.label_depth();
                self.record_sync(id, *sync_cycles);
                if self.read_pred(*pred) {
                    self.exec_step(plan, *then);
                } else {
                    self.exec_step(plan, *otherwise);
                }
                debug_assert_eq!(
                    self.stats.label_depth(),
                    depth,
                    "If branch left label stack unbalanced"
                );
            }
            PlanStep::While { cond, pred, body, sync_cycles } => {
                let depth = self.stats.label_depth();
                loop {
                    self.exec_step(plan, *cond);
                    self.record_sync(id, *sync_cycles);
                    if !self.read_pred(*pred) {
                        break;
                    }
                    self.exec_step(plan, *body);
                    debug_assert_eq!(
                        self.stats.label_depth(),
                        depth,
                        "While body left label stack unbalanced"
                    );
                }
            }
            PlanStep::Label(name, body) => {
                let depth = self.stats.label_depth();
                self.stats.push_label(name.clone());
                if let Some(t) = self.trace.as_mut() {
                    t.begin_label(name);
                }
                self.exec_step(plan, *body);
                if let Some(t) = self.trace.as_mut() {
                    t.end_label();
                }
                self.stats.pop_label();
                debug_assert_eq!(
                    self.stats.label_depth(),
                    depth,
                    "Label body left label stack unbalanced"
                );
            }
            PlanStep::Callback(id) => self.invoke_callback(*id),
        }
    }

    fn invoke_callback(&mut self, id: usize) {
        if let Some(mut cb) = self.callbacks.remove(&id) {
            let mut view = HostView { graph: self.graph, storage: self.storage };
            cb(&mut view);
            self.callbacks.insert(id, cb);
        }
    }

    fn read_pred(&self, t: TensorId) -> bool {
        self.storage[t].get_f64(0) != 0.0
    }

    /// Record a sync barrier into the stats and the trace, keeping both
    /// clocks in lock-step. `step` attributes the charge to a plan step
    /// for the perf recorder.
    fn record_sync(&mut self, step: StepId, cycles: u64) {
        self.stats.record_sync(cycles);
        if let Some(t) = self.trace.as_mut() {
            t.sync(cycles);
        }
        if let Some(p) = self.perf.as_mut() {
            p.record_sync(step, cycles);
        }
    }

    /// Record an exchange phase (time + volume) into the stats and trace.
    fn record_exchange(
        &mut self,
        step: StepId,
        name: &str,
        program: &ExchangeProgram,
        cycles: u64,
    ) {
        self.stats.record_exchange(cycles);
        self.stats.record_exchange_bytes(program.total_bytes() as u64);
        if let Some(t) = self.trace.as_mut() {
            t.exchange(name, cycles, program.total_bytes() as u64, program.num_regions());
        }
        if let Some(p) = self.perf.as_mut() {
            let (on_chip, link) = crate::perf::split_bytes_by_link(program, &self.graph.model);
            p.record_exchange(step, cycles, on_chip, link);
        }
    }

    /// Record a compute superstep into the stats and trace.
    fn record_compute(&mut self, step: StepId, name: &str, per_tile: &[(TileId, u64)]) {
        if let Some(t) = self.trace.as_mut() {
            t.compute(name, per_tile);
        }
        if let Some(p) = self.perf.as_mut() {
            p.record_compute(step, per_tile);
        }
        self.stats.record_compute(per_tile.iter().copied());
    }

    /// Replay one precomputed `Execute` step: the compiler-inserted
    /// broadcast (if any), the BSP barrier, then the vertices in program
    /// order. The per-tile cycle list is sorted by tile id, so the recorded
    /// stats and trace events do not depend on the host's hash-iteration
    /// order.
    fn execute_planned(&mut self, step: StepId, es: &ExecuteStep) {
        let cs = &self.graph.compute_sets[es.cs];
        if !es.bcast.is_empty() {
            self.record_exchange(step, &es.bcast_name, &es.bcast, es.bcast_cycles);
        }
        self.record_sync(step, es.sync_cycles);
        if self.faults.is_some() {
            // Fault hooks run before the vertices, so the perturbed state
            // (and hence every downstream bit) does not depend on how the
            // vertices are run.
            self.apply_sram_faults(es);
        }

        let (graph, lowered) = (self.graph, self.lowered);
        self.bases.refill(self.storage);
        let bases = &self.bases;
        // Per-tile cycles plus the superstep's total work counters. Program
        // order, not tile order: a vertex reading what another wrote in the
        // same compute set sees the write when it comes later.
        let mut per_tile = std::mem::take(&mut self.per_tile);
        per_tile.clear();
        per_tile.extend(es.tiles.iter().map(|&t| (t, 0)));
        let (mut flops, mut mem_bytes) = (0u64, 0u64);
        for (i, v) in cs.vertices.iter().enumerate() {
            let form = lowered.get(es.cs, i);
            let (params, regs) = (&mut self.params, &mut self.regs);
            let run = run_vertex(graph, bases, v, form, params, regs);
            let slot = per_tile
                .binary_search_by_key(&v.tile, |&(t, _)| t)
                .expect("the plan's tiles cover every vertex's tile");
            per_tile[slot].1 += run.cycles;
            flops += run.flops;
            mem_bytes += run.mem_bytes;
        }
        if self.faults.is_some() {
            per_tile = self.apply_stall_faults(&es.name, per_tile);
        }
        if let Some(p) = self.perf.as_mut() {
            p.record_flops(step, flops, mem_bytes);
        }
        self.record_compute(step, &es.name, &per_tile);
        self.per_tile = per_tile;
        if let Some(f) = self.faults.as_mut() {
            f.superstep += 1;
        }
    }

    /// Replay one precomputed exchange phase: barrier, fabric cost, then
    /// the element copies against host storage.
    fn exchange_planned(&mut self, step: StepId, ph: &ExchangePhase) {
        self.record_sync(step, ph.sync_cycles);
        self.record_exchange(step, &ph.name, &ph.program, ph.cycles);
        if self.faults.is_some() {
            self.exchange_with_faults(ph);
            return;
        }
        for c in &ph.copies {
            apply_copy(self.storage, c);
        }
    }

    /// Replay one precomputed whole-tensor copy: worker-parallel memcpy
    /// cycles per tile, then the data movement (self-copies cost the same
    /// but move nothing).
    fn copy_planned(&mut self, step: StepId, cp: &CopyStep) {
        if let Some(p) = self.perf.as_mut() {
            p.record_flops(step, 0, crate::perf::copy_mem_bytes(self.graph, cp.src, cp.dst));
        }
        if self.faults.is_some() {
            let per_tile = self.apply_stall_faults(&cp.name, cp.per_tile.clone());
            self.record_compute(step, &cp.name, &per_tile);
        } else {
            self.record_compute(step, &cp.name, &cp.per_tile);
        }
        if cp.src != cp.dst {
            let (a, b) = index_two(self.storage, cp.src, cp.dst);
            copy_all(a, b);
        }
        if let Some(f) = self.faults.as_mut() {
            f.superstep += 1;
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (no-ops unless a FaultPlan is armed)
    // ------------------------------------------------------------------

    /// Fire pending `SramBitFlip` faults aimed at this compute superstep:
    /// the `word`-th float element (counting the float operands of the
    /// tile's vertices in program order) gets one bit flipped just before
    /// the vertices run.
    fn apply_sram_faults(&mut self, es: &ExecuteStep) {
        let Some(fs) = self.faults.as_mut() else { return };
        let ss = fs.superstep;
        let cs = &self.graph.compute_sets[es.cs];
        for fi in 0..fs.resolved.len() {
            let f = fs.resolved[fi];
            let FaultKind::SramBitFlip { word, bit } = f.kind else { continue };
            if fs.fired[fi] || f.superstep != ss {
                continue;
            }
            // Enumerate the float words the target tile touches in this
            // superstep, in program order.
            let mut targets: Vec<(TensorId, usize, usize)> = Vec::new(); // (tensor, start, len)
            let mut total = 0usize;
            for v in &cs.vertices {
                if v.tile != f.tile {
                    continue;
                }
                for op in &v.operands {
                    let dtype = self.graph.tensors[op.tensor].dtype;
                    if matches!(dtype, DType::F32 | DType::DoubleWord | DType::F64Emulated) {
                        targets.push((op.tensor, op.start, op.len));
                        total += op.len;
                    }
                }
            }
            if total == 0 {
                // The tile touches no float data here; the upset lands in
                // unused SRAM and is harmless. Fired so it does not haunt
                // later supersteps (the coordinate has passed).
                fs.fired[fi] = true;
                fs.log.push(FaultEvent {
                    superstep: ss,
                    tile: f.tile,
                    class: "flip".into(),
                    detail: format!("no float words on tile {} in '{}'", f.tile, es.name),
                });
                continue;
            }
            let mut idx = word as usize % total;
            let (tensor, elem) = targets
                .iter()
                .find_map(|&(t, start, len)| {
                    if idx < len {
                        Some((t, start + idx))
                    } else {
                        idx -= len;
                        None
                    }
                })
                .expect("index within concatenated operand length");
            let (old, new) = flip_bit(self.storage, tensor, elem, bit);
            fs.fired[fi] = true;
            let detail = format!(
                "'{}'[{}] bit {}: {:e} -> {:e} (before '{}')",
                self.graph.tensors[tensor].name, elem, bit, old, new, es.name
            );
            fs.log.push(FaultEvent { superstep: ss, tile: f.tile, class: "flip".into(), detail });
            if let Some(t) = self.trace.as_mut() {
                t.instant("fault:flip", &fs.log.last().unwrap().detail);
            }
        }
    }

    /// Add pending `Stall` cycles aimed at this compute superstep to the
    /// per-tile cycle list (under BSP every other tile waits at the next
    /// sync, so the makespan — and only the makespan — grows).
    fn apply_stall_faults(
        &mut self,
        name: &str,
        mut per_tile: Vec<(TileId, u64)>,
    ) -> Vec<(TileId, u64)> {
        let Some(fs) = self.faults.as_mut() else { return per_tile };
        let ss = fs.superstep;
        for fi in 0..fs.resolved.len() {
            let f = fs.resolved[fi];
            let FaultKind::Stall { cycles } = f.kind else { continue };
            if fs.fired[fi] || f.superstep != ss {
                continue;
            }
            match per_tile.binary_search_by_key(&f.tile, |&(t, _)| t) {
                Ok(i) => per_tile[i].1 += cycles,
                Err(i) => per_tile.insert(i, (f.tile, cycles)),
            }
            fs.fired[fi] = true;
            let detail = format!("tile {} +{} cycles in '{}'", f.tile, cycles, name);
            fs.log.push(FaultEvent { superstep: ss, tile: f.tile, class: "stall".into(), detail });
            if let Some(t) = self.trace.as_mut() {
                t.instant("fault:stall", &fs.log.last().unwrap().detail);
            }
        }
        per_tile
    }

    /// Apply an exchange phase's copies with pending `ExchangeDrop` /
    /// `ExchangeBitFlip` faults. An exchange phase carries the superstep
    /// coordinate of the compute step that follows it, so `xdrop@s4`
    /// perturbs the exchange feeding compute superstep 4.
    fn exchange_with_faults(&mut self, ph: &ExchangePhase) {
        let mut skip = vec![false; ph.copies.len()];
        let mut flips: Vec<(usize, usize, u8)> = Vec::new(); // (copy idx, fault idx, bit)
        let graph = self.graph;
        if let Some(fs) = self.faults.as_mut() {
            let ss = fs.superstep;
            for fi in 0..fs.resolved.len() {
                let f = fs.resolved[fi];
                if fs.fired[fi] || f.superstep != ss {
                    continue;
                }
                match f.kind {
                    FaultKind::ExchangeDrop { word } => {
                        let landing = copies_landing_on(graph, &ph.copies, f.tile);
                        if landing.is_empty() {
                            continue; // nothing lands here; try a later phase
                        }
                        let i = landing[word as usize % landing.len()];
                        skip[i] = true;
                        fs.fired[fi] = true;
                        let c = &ph.copies[i];
                        let detail = format!(
                            "dropped '{}'[{}..{}] -> '{}'[{}..{}] in '{}'",
                            self.graph.tensors[c.src].name,
                            c.src_start,
                            c.src_start + c.len,
                            self.graph.tensors[c.dst].name,
                            c.dst_start,
                            c.dst_start + c.len,
                            ph.name,
                        );
                        fs.log.push(FaultEvent {
                            superstep: ss,
                            tile: f.tile,
                            class: "xdrop".into(),
                            detail,
                        });
                        if let Some(t) = self.trace.as_mut() {
                            t.instant("fault:xdrop", &fs.log.last().unwrap().detail);
                        }
                    }
                    FaultKind::ExchangeBitFlip { word: _, bit } => {
                        let landing = copies_landing_on(graph, &ph.copies, f.tile);
                        let Some(&i) = landing.first() else { continue };
                        flips.push((i, fi, bit));
                    }
                    _ => {}
                }
            }
        }
        for (i, c) in ph.copies.iter().enumerate() {
            if !skip[i] {
                apply_copy(self.storage, c);
            }
        }
        for (i, fi, bit) in flips {
            let c = &ph.copies[i];
            let word = match self.faults.as_ref().unwrap().resolved[fi].kind {
                FaultKind::ExchangeBitFlip { word, .. } => word,
                _ => unreachable!(),
            };
            let elem = c.dst_start + word as usize % c.len;
            let (old, new) = flip_bit(self.storage, c.dst, elem, bit);
            let fs = self.faults.as_mut().unwrap();
            let ss = fs.superstep;
            let tile = fs.resolved[fi].tile;
            fs.fired[fi] = true;
            let detail = format!(
                "'{}'[{}] bit {}: {:e} -> {:e} (delivery in '{}')",
                self.graph.tensors[c.dst].name, elem, bit, old, new, ph.name,
            );
            fs.log.push(FaultEvent { superstep: ss, tile, class: "xflip".into(), detail });
            if let Some(t) = self.trace.as_mut() {
                t.instant("fault:xflip", &fs.log.last().unwrap().detail);
            }
        }
    }
}

/// Raw per-tensor base pointers into the engine's storage.
///
/// Refilled once per compute set from the unique `&mut [Storage]`, then
/// read by [`params_from_bases`] for each vertex in turn. A vertex needs
/// `&mut` slices into some tensors and shared slices into others at once,
/// which borrowing `storage` per operand cannot express.
///
/// Sound because the pointers are only dereferenced through
/// `params_from_bases`, which materialises `&mut` slices solely for
/// *mutable* operands, and only for as long as one vertex runs:
/// `run_vertex` empties its operand buffer before it returns, so no slice
/// is alive when anything else touches the storage (the next vertex, an
/// exchange, a callback, the next `refill`). Within that one vertex,
/// `Graph::add_compute_set` (`validate_compute_set`) has checked that every
/// operand is in bounds and that no two operands overlap, so no `&mut`
/// slice aliases another slice.
#[derive(Default)]
struct TensorBases {
    bases: Vec<RawBase>,
}

#[derive(Clone, Copy)]
enum RawBase {
    F32(*mut f32),
    I32(*mut i32),
    Bool(*mut bool),
    Dw(*mut TwoF32),
    F64(*mut SoftDouble),
}

impl TensorBases {
    fn refill(&mut self, storage: &mut [Storage]) {
        self.bases.clear();
        self.bases.extend(storage.iter_mut().map(|s| match s {
            Storage::F32(v) => RawBase::F32(v.as_mut_ptr()),
            Storage::I32(v) => RawBase::I32(v.as_mut_ptr()),
            Storage::Bool(v) => RawBase::Bool(v.as_mut_ptr()),
            Storage::Dw(v) => RawBase::Dw(v.as_mut_ptr()),
            Storage::F64(v) => RawBase::F64(v.as_mut_ptr()),
        }));
    }
}

/// Every vertex's codelet lowered at engine build, memoised per (codelet,
/// operand storage dtypes, vertex kind): a graph has a few dozen distinct
/// bindings and thousands of vertices, so each vertex holds an index.
struct LoweredTable {
    /// One entry per distinct binding; `None` for one that cannot be typed
    /// (remembered too, so it is tried once).
    forms: Vec<Option<Lowered>>,
    /// Per compute set, per vertex: its form's index.
    of_vertex: Vec<Vec<u32>>,
}

impl LoweredTable {
    fn build(graph: &Graph) -> LoweredTable {
        let mut forms: Vec<Option<Lowered>> = Vec::new();
        // What each form was lowered for, and each codelet's forms: the
        // memo keys, needed only here.
        let mut bindings: Vec<(bool, Vec<DType>)> = Vec::new();
        let mut of_codelet: Vec<Vec<u32>> = vec![Vec::new(); graph.codelets.len()];
        let mut form_of = |v: &Vertex| -> u32 {
            let level_set = matches!(v.kind, VertexKind::LevelSet { .. });
            // Compared in place: a hit allocates nothing.
            let storage = || v.operands.iter().map(|op| graph.tensors[op.tensor].dtype);
            let known = of_codelet[v.codelet].iter().copied().find(|&f| {
                let (for_level_set, for_storage) = &bindings[f as usize];
                *for_level_set == level_set && for_storage.iter().copied().eq(storage())
            });
            known.unwrap_or_else(|| {
                let storage: Vec<DType> = storage().collect();
                let f = u32::try_from(forms.len()).expect("fewer than 2^32 distinct bindings");
                forms.push(Lowered::lower(
                    &graph.codelets[v.codelet],
                    &storage,
                    level_set,
                    &graph.cost,
                ));
                bindings.push((level_set, storage));
                of_codelet[v.codelet].push(f);
                f
            })
        };
        let of_vertex = graph
            .compute_sets
            .iter()
            .map(|cs| cs.vertices.iter().map(&mut form_of).collect())
            .collect();
        LoweredTable { forms, of_vertex }
    }

    /// The lowered form of vertex `vertex` of compute set `cs`, if its
    /// binding could be typed.
    fn get(&self, cs: usize, vertex: usize) -> Option<&Lowered> {
        self.forms[self.of_vertex[cs][vertex] as usize].as_ref()
    }

    fn coverage(&self) -> Coverage {
        let mut c = Coverage::default();
        for &f in self.of_vertex.iter().flatten() {
            let form = self.forms[f as usize].as_ref();
            c.vertices += 1;
            c.lowered += form.is_some() as u64;
            c.looped += form.is_some_and(|l| l.loops() > 0) as u64;
            c.rowed += form.is_some_and(|l| l.rows() > 0) as u64;
            c.mapped += form.is_some_and(|l| l.maps() > 0) as u64;
            if let Some(k) = form.and_then(Lowered::kernel) {
                *c.kernels.entry(k.name()).or_default() += 1;
            }
        }
        c
    }
}

/// How many vertices the lowered forms cover, and how far.
#[derive(Default)]
struct Coverage {
    vertices: u64,
    /// With a lowered form.
    lowered: u64,
    /// Whose lowered form runs at least one loop as one accumulate
    /// instruction, a row's loop included.
    looped: u64,
    /// Whose lowered form runs at least one row as one instruction.
    rowed: u64,
    /// Whose lowered form runs at least one element-wise map as one
    /// instruction.
    mapped: u64,
    /// Whose lowered form runs the whole vertex as one kernel instruction,
    /// per kernel family, by name.
    kernels: BTreeMap<&'static str, u64>,
}

/// Hand out one slice per operand: `&mut` for mutable parameters, shared
/// for immutable ones. The slices claim the engine's lifetime `'a`; they
/// are alive only while one vertex runs (see `TensorBases`).
fn params_from_bases<'a, 'b>(
    bases: &'b TensorBases,
    codelet: &'a Codelet,
    operands: &'a [TensorSlice],
) -> impl Iterator<Item = ParamData<'a>> + use<'a, 'b> {
    operands.iter().zip(&codelet.params).map(|(op, decl)| {
        // SAFETY: slices validated in-bounds and pairwise disjoint when the
        // compute set was added; see `TensorBases`.
        unsafe {
            match bases.bases[op.tensor] {
                RawBase::F32(p) => {
                    if decl.mutable {
                        ParamData::F32(std::slice::from_raw_parts_mut(p.add(op.start), op.len))
                    } else {
                        ParamData::F32Ro(std::slice::from_raw_parts(p.add(op.start), op.len))
                    }
                }
                RawBase::I32(p) => {
                    if decl.mutable {
                        ParamData::I32(std::slice::from_raw_parts_mut(p.add(op.start), op.len))
                    } else {
                        ParamData::I32Ro(std::slice::from_raw_parts(p.add(op.start), op.len))
                    }
                }
                RawBase::Bool(p) => {
                    if decl.mutable {
                        ParamData::Bool(std::slice::from_raw_parts_mut(p.add(op.start), op.len))
                    } else {
                        ParamData::BoolRo(std::slice::from_raw_parts(p.add(op.start), op.len))
                    }
                }
                RawBase::Dw(p) => {
                    if decl.mutable {
                        ParamData::Dw(std::slice::from_raw_parts_mut(p.add(op.start), op.len))
                    } else {
                        ParamData::DwRo(std::slice::from_raw_parts(p.add(op.start), op.len))
                    }
                }
                RawBase::F64(p) => {
                    if decl.mutable {
                        ParamData::F64(std::slice::from_raw_parts_mut(p.add(op.start), op.len))
                    } else {
                        ParamData::F64Ro(std::slice::from_raw_parts(p.add(op.start), op.len))
                    }
                }
            }
        }
    })
}

/// Run one vertex and return its footprint: BSP time plus the *work*
/// counters (logical flops, SRAM traffic) the roofline analysis needs.
/// Cycles are time (worker-parallel constructs shrink them); flops/bytes
/// are work (parallelism leaves them unchanged).
///
/// Two tiers, decided at engine build: the codelet's lowered form (a kernel
/// instruction or a register program); else — a body lowering could not
/// type — the dynamic interpreter. Free of engine state: a vertex's result
/// depends only on the graph, the storage it reads and its own operands.
///
/// `params` (empty between vertices) and `regs` are buffers reused from
/// vertex to vertex for a whole run, so replay does not allocate per
/// vertex.
fn run_vertex<'a>(
    graph: &'a Graph,
    bases: &TensorBases,
    v: &'a Vertex,
    lowered: Option<&Lowered>,
    params: &mut Vec<ParamData<'a>>,
    regs: &mut Regs,
) -> Charge {
    let codelet = &graph.codelets[v.codelet];
    let cost = &graph.cost;
    let workers = graph.model.workers_per_tile as u64;
    params.extend(params_from_bases(bases, codelet, &v.operands));
    let run = match lowered {
        Some(l) => l.run_vertex(&v.kind, params, regs, cost, workers),
        None => {
            let mut interp = Interp::new(cost, params, codelet.num_locals, workers);
            let cycles = interp.run_vertex(&v.kind, &codelet.body);
            Charge { cycles, flops: interp.flops, mem_bytes: interp.mem_bytes }
        }
    };
    params.clear();
    run
}

fn index_two(storage: &mut [Storage], a: usize, b: usize) -> (&mut Storage, &mut Storage) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = storage.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = storage.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

fn copy_all(src: &Storage, dst: &mut Storage) {
    match (src, dst) {
        (Storage::F32(s), Storage::F32(d)) => d.copy_from_slice(s),
        (Storage::I32(s), Storage::I32(d)) => d.copy_from_slice(s),
        (Storage::Bool(s), Storage::Bool(d)) => d.copy_from_slice(s),
        (Storage::Dw(s), Storage::Dw(d)) => d.copy_from_slice(s),
        (Storage::F64(s), Storage::F64(d)) => d.copy_from_slice(s),
        _ => unreachable!("copy dtypes validated at compile time"),
    }
}

/// Indices of the copies in `copies` whose destination element lands on
/// `tile` (by the destination tensor's tile map at the copy's start).
fn copies_landing_on(graph: &Graph, copies: &[ElemCopy], tile: TileId) -> Vec<usize> {
    copies
        .iter()
        .enumerate()
        .filter(|(_, c)| graph.tensors[c.dst].tile_of(c.dst_start) == Some(tile))
        .map(|(i, _)| i)
        .collect()
}

/// Flip one bit of element `i` of tensor `t` (fault injection). For f32 the
/// bit indexes the IEEE-754 word; for double-word pairs it hits the high
/// word; for emulated f64 the low 32 bits of the binary64 word; for i32 the
/// integer bits; for bool any bit toggles the value. Returns the element's
/// (old, new) value as f64 for the fault log.
fn flip_bit(storage: &mut [Storage], t: TensorId, i: usize, bit: u8) -> (f64, f64) {
    let old = storage[t].get_f64(i);
    match &mut storage[t] {
        Storage::F32(v) => v[i] = f32::from_bits(v[i].to_bits() ^ (1u32 << bit)),
        Storage::I32(v) => v[i] ^= 1i32 << bit,
        Storage::Bool(v) => v[i] = !v[i],
        Storage::Dw(v) => {
            let hi = f32::from_bits(v[i].hi().to_bits() ^ (1u32 << bit));
            v[i] = TwoFloat::from_parts(hi, v[i].lo());
        }
        Storage::F64(v) => v[i] = SoftDouble(f64::from_bits(v[i].0.to_bits() ^ (1u64 << bit))),
    }
    let new = storage[t].get_f64(i);
    (old, new)
}

fn apply_copy(storage: &mut [Storage], c: &ElemCopy) {
    if c.src == c.dst {
        match &mut storage[c.src] {
            Storage::F32(v) => v.copy_within(c.src_start..c.src_start + c.len, c.dst_start),
            Storage::I32(v) => v.copy_within(c.src_start..c.src_start + c.len, c.dst_start),
            Storage::Bool(v) => v.copy_within(c.src_start..c.src_start + c.len, c.dst_start),
            Storage::Dw(v) => v.copy_within(c.src_start..c.src_start + c.len, c.dst_start),
            Storage::F64(v) => v.copy_within(c.src_start..c.src_start + c.len, c.dst_start),
        }
        return;
    }
    let (s, d) = index_two(storage, c.src, c.dst);
    match (s, d) {
        (Storage::F32(s), Storage::F32(d)) => d[c.dst_start..c.dst_start + c.len]
            .copy_from_slice(&s[c.src_start..c.src_start + c.len]),
        (Storage::I32(s), Storage::I32(d)) => d[c.dst_start..c.dst_start + c.len]
            .copy_from_slice(&s[c.src_start..c.src_start + c.len]),
        (Storage::Bool(s), Storage::Bool(d)) => d[c.dst_start..c.dst_start + c.len]
            .copy_from_slice(&s[c.src_start..c.src_start + c.len]),
        (Storage::Dw(s), Storage::Dw(d)) => d[c.dst_start..c.dst_start + c.len]
            .copy_from_slice(&s[c.src_start..c.src_start + c.len]),
        (Storage::F64(s), Storage::F64(d)) => d[c.dst_start..c.dst_start + c.len]
            .copy_from_slice(&s[c.src_start..c.src_start + c.len]),
        _ => unreachable!("exchange dtypes validated at compile time"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::{BinOp, Codelet, Expr, ParamDecl, Stmt, Value};
    use crate::compute::{ComputeSet, Vertex};
    use crate::program::{ExchangeStep, Prog};
    use crate::tensor::TensorDef;
    use ipu_sim::clock::Phase;
    use ipu_sim::model::IpuModel;

    /// A two-tile graph and the program that doubles its distributed
    /// tensor in place.
    fn double_graph() -> (Graph, Prog, TensorId) {
        let mut g = Graph::new(IpuModel::tiny(2));
        let x = g.add_tensor(TensorDef::linear("x", DType::F32, 8, 2)).unwrap();
        let c = g
            .add_codelet(Codelet {
                name: "double".into(),
                params: vec![ParamDecl { dtype: DType::F32, mutable: true }],
                num_locals: 1,
                body: vec![Stmt::ParFor {
                    local: 0,
                    start: Expr::c(Value::I32(0)),
                    end: Expr::ParamLen(0),
                    body: vec![Stmt::Store {
                        param: 0,
                        index: Expr::Local(0),
                        value: Expr::bin(
                            BinOp::Mul,
                            Expr::index(0, Expr::Local(0)),
                            Expr::c(Value::F32(2.0)),
                        ),
                    }],
                }],
            })
            .unwrap();
        let mut cs = ComputeSet::new("double");
        for tile in 0..2 {
            cs.add(Vertex {
                tile,
                codelet: c,
                operands: vec![TensorSlice { tensor: x, start: tile * 4, len: 4 }],
                kind: VertexKind::Simple,
            });
        }
        let cs = g.add_compute_set(cs).unwrap();
        (g, Prog::Execute(cs), x)
    }

    fn double_in_place() -> (Executable, TensorId) {
        let (g, prog, x) = double_graph();
        (g.compile(prog).unwrap(), x)
    }

    #[test]
    fn execute_runs_and_costs() {
        let (exec, x) = double_in_place();
        let mut e = Engine::new(exec);
        e.write_tensor(x, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        e.run();
        assert_eq!(e.read_tensor(x), vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]);
        assert!(e.stats().device_cycles() > 0);
        assert!(e.stats().phase_cycles(Phase::Compute) > 0);
        assert!(e.stats().phase_cycles(Phase::Sync) > 0);
        // Balanced tiles: BSP max equals each tile's busy time.
        assert_eq!(e.stats().tile_busy(0), e.stats().tile_busy(1));
    }

    #[test]
    fn repeat_multiplies_work() {
        let (g, prog, x) = double_graph();
        let mut e = Engine::new(g.compile(Prog::Repeat(3, Box::new(prog))).unwrap());
        e.write_tensor(x, &[1.0; 8]);
        e.run();
        assert_eq!(e.read_tensor(x), vec![8.0; 8]);
    }

    #[test]
    fn remote_scalar_operand_costs_exchange() {
        // A vertex on tile 1 reading a scalar on tile 0 must pay for the
        // broadcast.
        let mut g = Graph::new(IpuModel::tiny(2));
        let s = g.add_scalar("alpha", DType::F32).unwrap();
        let y = g.add_tensor(TensorDef::on_tile("y", DType::F32, 4, 1)).unwrap();
        let c = g
            .add_codelet(Codelet {
                name: "fill".into(),
                params: vec![
                    ParamDecl { dtype: DType::F32, mutable: false },
                    ParamDecl { dtype: DType::F32, mutable: true },
                ],
                num_locals: 1,
                body: vec![Stmt::For {
                    local: 0,
                    start: Expr::c(Value::I32(0)),
                    end: Expr::ParamLen(1),
                    step: Expr::c(Value::I32(1)),
                    body: vec![Stmt::Store {
                        param: 1,
                        index: Expr::Local(0),
                        value: Expr::index(0, Expr::c(Value::I32(0))),
                    }],
                }],
            })
            .unwrap();
        let mut cs = ComputeSet::new("fill");
        cs.add(Vertex {
            tile: 1,
            codelet: c,
            operands: vec![TensorSlice::whole(s, 1), TensorSlice::whole(y, 4)],
            kind: VertexKind::Simple,
        });
        let cs = g.add_compute_set(cs).unwrap();
        let mut e = Engine::new(g.compile(Prog::Execute(cs)).unwrap());
        e.write_scalar(s, 7.5);
        e.run();
        assert_eq!(e.read_tensor(y), vec![7.5; 4]);
        assert!(e.stats().phase_cycles(Phase::Exchange) > 0, "broadcast not costed");
    }

    #[test]
    fn exchange_moves_data_between_tiles() {
        let mut g = Graph::new(IpuModel::tiny(2));
        let a = g.add_tensor(TensorDef::on_tile("a", DType::F32, 4, 0)).unwrap();
        let b = g.add_tensor(TensorDef::on_tile("b", DType::F32, 4, 1)).unwrap();
        let ex = ExchangeStep {
            name: "halo".into(),
            copies: vec![ElemCopy { src: a, src_start: 1, dst: b, dst_start: 0, len: 3 }],
        };
        let mut e = Engine::new(g.compile(Prog::Exchange(ex)).unwrap());
        e.write_tensor(a, &[1.0, 2.0, 3.0, 4.0]);
        e.run();
        assert_eq!(e.read_tensor(b), vec![2.0, 3.0, 4.0, 0.0]);
        assert!(e.stats().phase_cycles(Phase::Exchange) > 0);
    }

    #[test]
    fn exchange_within_one_tensor() {
        // The §IV layout: separator values copied into halo slots of the
        // same distributed tensor.
        let mut g = Graph::new(IpuModel::tiny(2));
        let x = g
            .add_tensor(TensorDef {
                name: "x".into(),
                dtype: DType::F32,
                chunks: vec![
                    crate::tensor::TensorChunk { tile: 0, start: 0, owned: 3, total: 4 },
                    crate::tensor::TensorChunk { tile: 1, start: 4, owned: 3, total: 4 },
                ],
            })
            .unwrap();
        // Tile 0's last owned element -> tile 1's halo slot, and vice versa.
        let ex = ExchangeStep {
            name: "halo".into(),
            copies: vec![
                ElemCopy { src: x, src_start: 2, dst: x, dst_start: 7, len: 1 },
                ElemCopy { src: x, src_start: 4, dst: x, dst_start: 3, len: 1 },
            ],
        };
        let mut e = Engine::new(g.compile(Prog::Exchange(ex)).unwrap());
        e.write_tensor(x, &[10.0, 11.0, 12.0, 0.0, 20.0, 21.0, 22.0, 0.0]);
        e.run();
        assert_eq!(e.read_tensor(x), vec![10.0, 11.0, 12.0, 20.0, 20.0, 21.0, 22.0, 12.0]);
    }

    #[test]
    fn while_loop_terminates_on_predicate() {
        // Counter decrements from 3; predicate codelet sets pred = counter > 0.
        let mut g = Graph::new(IpuModel::tiny(1));
        let counter = g.add_scalar("counter", DType::I32).unwrap();
        let pred = g.add_scalar("pred", DType::Bool).unwrap();
        let dec = g
            .add_codelet(Codelet {
                name: "dec".into(),
                params: vec![ParamDecl { dtype: DType::I32, mutable: true }],
                num_locals: 0,
                body: vec![Stmt::Store {
                    param: 0,
                    index: Expr::c(Value::I32(0)),
                    value: Expr::bin(
                        BinOp::Sub,
                        Expr::index(0, Expr::c(Value::I32(0))),
                        Expr::c(Value::I32(1)),
                    ),
                }],
            })
            .unwrap();
        let test = g
            .add_codelet(Codelet {
                name: "test".into(),
                params: vec![
                    ParamDecl { dtype: DType::I32, mutable: false },
                    ParamDecl { dtype: DType::Bool, mutable: true },
                ],
                num_locals: 0,
                body: vec![Stmt::Store {
                    param: 1,
                    index: Expr::c(Value::I32(0)),
                    value: Expr::bin(
                        BinOp::Gt,
                        Expr::index(0, Expr::c(Value::I32(0))),
                        Expr::c(Value::I32(0)),
                    ),
                }],
            })
            .unwrap();
        let mut cs_dec = ComputeSet::new("dec");
        cs_dec.add(Vertex {
            tile: 0,
            codelet: dec,
            operands: vec![TensorSlice::whole(counter, 1)],
            kind: VertexKind::Simple,
        });
        let cs_dec = g.add_compute_set(cs_dec).unwrap();
        let mut cs_test = ComputeSet::new("test");
        cs_test.add(Vertex {
            tile: 0,
            codelet: test,
            operands: vec![TensorSlice::whole(counter, 1), TensorSlice::whole(pred, 1)],
            kind: VertexKind::Simple,
        });
        let cs_test = g.add_compute_set(cs_test).unwrap();
        let prog = Prog::While {
            cond: Box::new(Prog::Execute(cs_test)),
            pred,
            body: Box::new(Prog::Execute(cs_dec)),
        };
        let mut e = Engine::new(g.compile(prog).unwrap());
        e.write_scalar(counter, 3.0);
        e.run();
        assert_eq!(e.read_scalar(counter), 0.0);
    }

    #[test]
    fn labels_attribute_cycles() {
        let (g, prog, _) = double_graph();
        let mut e = Engine::new(g.compile(Prog::Label("phase_a".into(), Box::new(prog))).unwrap());
        e.run();
        assert_eq!(e.stats().label_cycles("phase_a"), e.stats().device_cycles());
    }

    #[test]
    fn callback_reads_and_writes() {
        let mut g = Graph::new(IpuModel::tiny(1));
        let x = g.add_tensor(TensorDef::on_tile("x", DType::F32, 2, 0)).unwrap();
        let mut e = Engine::new(g.compile(Prog::Callback(9)).unwrap());
        e.register_callback(
            9,
            Box::new(move |view| {
                let v = view.read_f64(0);
                view.write_f64(0, &[v[0] + 1.0, v[1] * 2.0]);
            }),
        );
        e.write_tensor(x, &[10.0, 10.0]);
        e.run();
        assert_eq!(e.read_tensor(x), vec![11.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "no callback with that id was registered")]
    fn unregistered_callback_rejected_at_run_entry() {
        let g = Graph::new(IpuModel::tiny(1));
        let mut e = Engine::new(g.compile(Prog::Callback(7)).unwrap());
        e.run();
    }

    #[test]
    #[should_panic(expected = "no callback with that id was registered")]
    fn callback_in_unreachable_branch_still_requires_registration() {
        // Even a callback the traversal can never reach (Repeat(0)) must
        // be registered — the check covers the whole source tree, so a
        // missing registration fails loudly instead of surfacing only on
        // the execution path that happens to hit it.
        let g = Graph::new(IpuModel::tiny(1));
        let prog = Prog::Repeat(0, Box::new(Prog::Callback(3)));
        let mut e = Engine::new(g.compile(prog).unwrap());
        e.run();
    }

    #[test]
    fn copy_between_identically_mapped_tensors() {
        let mut g = Graph::new(IpuModel::tiny(2));
        let a = g.add_tensor(TensorDef::linear("a", DType::F32, 6, 2)).unwrap();
        let b = g.add_tensor(TensorDef::linear("b", DType::F32, 6, 2)).unwrap();
        let mut e = Engine::new(g.compile(Prog::Copy { src: a, dst: b }).unwrap());
        e.write_tensor(a, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        e.run();
        assert_eq!(e.read_tensor(b), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(e.stats().phase_cycles(Phase::Compute) > 0);
    }

    #[test]
    fn nested_control_flow_repeat_in_while() {
        // while (n > 0) { repeat(2) { n -= 1; sum += 1 } } with n = 5:
        // the body overshoots to n = -1, sum = 6.
        let mut g = Graph::new(IpuModel::tiny(1));
        let n = g.add_scalar("n", DType::I32).unwrap();
        let sum = g.add_scalar("sum", DType::I32).unwrap();
        let pred = g.add_scalar("pred", DType::Bool).unwrap();
        let step = g
            .add_codelet(Codelet {
                name: "step".into(),
                params: vec![
                    ParamDecl { dtype: DType::I32, mutable: true },
                    ParamDecl { dtype: DType::I32, mutable: true },
                ],
                num_locals: 0,
                body: vec![
                    Stmt::Store {
                        param: 0,
                        index: Expr::c(Value::I32(0)),
                        value: Expr::bin(
                            BinOp::Sub,
                            Expr::index(0, Expr::c(Value::I32(0))),
                            Expr::c(Value::I32(1)),
                        ),
                    },
                    Stmt::Store {
                        param: 1,
                        index: Expr::c(Value::I32(0)),
                        value: Expr::bin(
                            BinOp::Add,
                            Expr::index(1, Expr::c(Value::I32(0))),
                            Expr::c(Value::I32(1)),
                        ),
                    },
                ],
            })
            .unwrap();
        let test = g
            .add_codelet(Codelet {
                name: "test".into(),
                params: vec![
                    ParamDecl { dtype: DType::I32, mutable: false },
                    ParamDecl { dtype: DType::Bool, mutable: true },
                ],
                num_locals: 0,
                body: vec![Stmt::Store {
                    param: 1,
                    index: Expr::c(Value::I32(0)),
                    value: Expr::bin(
                        BinOp::Gt,
                        Expr::index(0, Expr::c(Value::I32(0))),
                        Expr::c(Value::I32(0)),
                    ),
                }],
            })
            .unwrap();
        let mut cs_step = ComputeSet::new("step");
        cs_step.add(Vertex {
            tile: 0,
            codelet: step,
            operands: vec![TensorSlice::whole(n, 1), TensorSlice::whole(sum, 1)],
            kind: VertexKind::Simple,
        });
        let cs_step = g.add_compute_set(cs_step).unwrap();
        let mut cs_test = ComputeSet::new("test");
        cs_test.add(Vertex {
            tile: 0,
            codelet: test,
            operands: vec![TensorSlice::whole(n, 1), TensorSlice::whole(pred, 1)],
            kind: VertexKind::Simple,
        });
        let cs_test = g.add_compute_set(cs_test).unwrap();
        let prog = Prog::While {
            cond: Box::new(Prog::Execute(cs_test)),
            pred,
            body: Box::new(Prog::Repeat(2, Box::new(Prog::Execute(cs_step)))),
        };
        let mut e = Engine::new(g.compile(prog).unwrap());
        e.write_scalar(n, 5.0);
        e.run();
        assert_eq!(e.read_scalar(n), -1.0);
        assert_eq!(e.read_scalar(sum), 6.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn write_tensor_length_checked() {
        let mut g = Graph::new(IpuModel::tiny(1));
        let x = g.add_tensor(TensorDef::on_tile("x", DType::F32, 4, 0)).unwrap();
        let mut e = Engine::new(g.compile(Prog::Nop).unwrap());
        e.write_tensor(x, &[1.0, 2.0]);
    }

    #[test]
    fn exchange_of_double_word_preserves_pairs() {
        let mut g = Graph::new(IpuModel::tiny(2));
        let a = g.add_tensor(TensorDef::on_tile("a", DType::DoubleWord, 2, 0)).unwrap();
        let b = g.add_tensor(TensorDef::on_tile("b", DType::DoubleWord, 2, 1)).unwrap();
        let ex = ExchangeStep {
            name: "dw".into(),
            copies: vec![ElemCopy { src: a, src_start: 0, dst: b, dst_start: 0, len: 2 }],
        };
        let mut e = Engine::new(g.compile(Prog::Exchange(ex)).unwrap());
        e.write_tensor(a, &[1.0 + 1e-9, -2.5]);
        e.run();
        let got = e.read_tensor(b);
        assert!((got[0] - (1.0 + 1e-9)).abs() < 1e-15, "{}", got[0]);
        assert_eq!(got[1], -2.5);
    }

    #[test]
    fn stats_accumulate_across_runs_and_reset() {
        let (exec, _) = double_in_place();
        let mut e = Engine::new(exec);
        e.run();
        let one = e.stats().device_cycles();
        e.run();
        assert_eq!(e.stats().device_cycles(), 2 * one);
        e.reset_stats();
        assert_eq!(e.stats().device_cycles(), 0);
        e.run();
        assert_eq!(e.stats().device_cycles(), one);
    }

    #[test]
    fn elapsed_seconds_matches_clock() {
        let (exec, _) = double_in_place();
        let hz = exec.graph.model.clock_hz;
        let mut e = Engine::new(exec);
        e.run();
        let want = e.stats().device_cycles() as f64 / hz;
        assert!((e.elapsed_seconds() - want).abs() < 1e-15);
    }

    /// A 2-chip × 2-tile system: tiles {0,1} on chip 0, {2,3} on chip 1.
    fn two_chips() -> IpuModel {
        IpuModel { num_ipus: 2, tiles_per_ipu: 2, ..IpuModel::mk2() }
    }

    /// Codelet filling a mutable vector with a read-only scalar.
    fn fill_codelet(g: &mut Graph) -> usize {
        g.add_codelet(Codelet {
            name: "fill".into(),
            params: vec![
                ParamDecl { dtype: DType::F32, mutable: false },
                ParamDecl { dtype: DType::F32, mutable: true },
            ],
            num_locals: 1,
            body: vec![Stmt::For {
                local: 0,
                start: Expr::c(Value::I32(0)),
                end: Expr::ParamLen(1),
                step: Expr::c(Value::I32(1)),
                body: vec![Stmt::Store {
                    param: 1,
                    index: Expr::Local(0),
                    value: Expr::index(0, Expr::c(Value::I32(0))),
                }],
            }],
        })
        .unwrap()
    }

    /// Codelet doubling its single mutable vector parameter.
    fn double_codelet(g: &mut Graph) -> usize {
        g.add_codelet(Codelet {
            name: "double".into(),
            params: vec![ParamDecl { dtype: DType::F32, mutable: true }],
            num_locals: 1,
            body: vec![Stmt::ParFor {
                local: 0,
                start: Expr::c(Value::I32(0)),
                end: Expr::ParamLen(0),
                body: vec![Stmt::Store {
                    param: 0,
                    index: Expr::Local(0),
                    value: Expr::bin(
                        BinOp::Mul,
                        Expr::index(0, Expr::Local(0)),
                        Expr::c(Value::F32(2.0)),
                    ),
                }],
            }],
        })
        .unwrap()
    }

    // ---- satellite regression: exchange() must charge the inter-IPU
    // sync when a copy crosses chips, exactly as execute_compute_set
    // does for a compute set spanning the same tiles. ------------------

    #[test]
    fn inter_chip_exchange_charges_inter_ipu_sync() {
        // Copy from tile 0 (chip 0) to tile 2 (chip 1).
        let mut g = Graph::new(two_chips());
        let a = g.add_tensor(TensorDef::on_tile("a", DType::F32, 4, 0)).unwrap();
        let b = g.add_tensor(TensorDef::on_tile("b", DType::F32, 4, 2)).unwrap();
        let want = g.cost.sync_inter_ipu_cycles;
        let ex = ExchangeStep {
            name: "cross".into(),
            copies: vec![ElemCopy { src: a, src_start: 0, dst: b, dst_start: 0, len: 4 }],
        };
        let mut e = Engine::new(g.compile(Prog::Exchange(ex)).unwrap());
        e.run();
        assert_eq!(
            e.stats().phase_cycles(Phase::Sync),
            want,
            "an exchange whose copies cross chips must pay the inter-IPU sync"
        );

        // The same tiles participating in a compute set pay the same sync:
        // the two paths must agree.
        let mut g2 = Graph::new(two_chips());
        let x0 = g2.add_tensor(TensorDef::on_tile("x0", DType::F32, 4, 0)).unwrap();
        let x2 = g2.add_tensor(TensorDef::on_tile("x2", DType::F32, 4, 2)).unwrap();
        let c = double_codelet(&mut g2);
        let mut cs = ComputeSet::new("span");
        for (tile, t) in [(0usize, x0), (2usize, x2)] {
            cs.add(Vertex {
                tile,
                codelet: c,
                operands: vec![TensorSlice::whole(t, 4)],
                kind: VertexKind::Simple,
            });
        }
        let cs = g2.add_compute_set(cs).unwrap();
        let mut e2 = Engine::new(g2.compile(Prog::Execute(cs)).unwrap());
        e2.run();
        assert_eq!(
            e2.stats().phase_cycles(Phase::Sync),
            e.stats().phase_cycles(Phase::Sync),
            "exchange and compute-set sync costs disagree for the same tile span"
        );
    }

    #[test]
    fn on_chip_exchange_still_charges_on_chip_sync() {
        let mut g = Graph::new(two_chips());
        let a = g.add_tensor(TensorDef::on_tile("a", DType::F32, 4, 0)).unwrap();
        let b = g.add_tensor(TensorDef::on_tile("b", DType::F32, 4, 1)).unwrap();
        let want = g.cost.sync_on_chip_cycles;
        let ex = ExchangeStep {
            name: "local".into(),
            copies: vec![ElemCopy { src: a, src_start: 0, dst: b, dst_start: 0, len: 4 }],
        };
        let mut e = Engine::new(g.compile(Prog::Exchange(ex)).unwrap());
        e.run();
        assert_eq!(e.stats().phase_cycles(Phase::Sync), want);
    }

    // ---- satellite regression: the compiler-inserted broadcast must
    // move each (source region, destination tile) pair exactly once,
    // however many vertices on that tile read it. ----------------------

    /// Exchange cost/volume of a compute set with `n` vertices on tile 1
    /// all reading the same remote scalar on tile 0.
    fn bcast_fanin(n: usize) -> (u64, u64) {
        let mut g = Graph::new(IpuModel::tiny(2));
        let s = g.add_scalar("alpha", DType::F32).unwrap();
        let c = fill_codelet(&mut g);
        let mut cs = ComputeSet::new("fanin");
        for i in 0..n {
            let y = g.add_tensor(TensorDef::on_tile(format!("y{i}"), DType::F32, 4, 1)).unwrap();
            cs.add(Vertex {
                tile: 1,
                codelet: c,
                operands: vec![TensorSlice::whole(s, 1), TensorSlice::whole(y, 4)],
                kind: VertexKind::Simple,
            });
        }
        let cs = g.add_compute_set(cs).unwrap();
        let mut e = Engine::new(g.compile(Prog::Execute(cs)).unwrap());
        e.run();
        (e.stats().phase_cycles(Phase::Exchange), e.stats().exchange_bytes())
    }

    #[test]
    fn broadcast_to_same_tile_is_deduplicated() {
        let (one_cycles, one_bytes) = bcast_fanin(1);
        let (three_cycles, three_bytes) = bcast_fanin(3);
        assert!(one_bytes > 0);
        assert_eq!(
            three_bytes, one_bytes,
            "three vertices on one tile reading the same remote scalar must cost one copy"
        );
        assert_eq!(three_cycles, one_cycles, "deduplicated broadcast must cost one transfer");
    }

    #[test]
    fn broadcast_to_distinct_tiles_still_fans_out() {
        // The dedupe key includes the destination tile: readers on
        // *different* tiles each receive their own copy.
        let mut g = Graph::new(IpuModel::tiny(3));
        let s = g.add_scalar("alpha", DType::F32).unwrap();
        let c = fill_codelet(&mut g);
        let mut cs = ComputeSet::new("fanout");
        for tile in 1..3 {
            let y =
                g.add_tensor(TensorDef::on_tile(format!("y{tile}"), DType::F32, 4, tile)).unwrap();
            cs.add(Vertex {
                tile,
                codelet: c,
                operands: vec![TensorSlice::whole(s, 1), TensorSlice::whole(y, 4)],
                kind: VertexKind::Simple,
            });
        }
        let cs = g.add_compute_set(cs).unwrap();
        let mut e = Engine::new(g.compile(Prog::Execute(cs)).unwrap());
        e.run();
        let (_, one_bytes) = bcast_fanin(1);
        assert_eq!(e.stats().exchange_bytes(), 2 * one_bytes, "one copy per destination tile");
    }

    // ---- satellite regression: a broadcast whose *source* lives on
    // another chip forces the inter-IPU sync even when the compute
    // set's vertices all sit on one chip. ------------------------------

    #[test]
    fn remote_chip_broadcast_source_forces_inter_ipu_sync() {
        let mut g = Graph::new(two_chips());
        let s = g.add_scalar("alpha", DType::F32).unwrap(); // tile 0, chip 0
        let y = g.add_tensor(TensorDef::on_tile("y", DType::F32, 4, 2)).unwrap(); // chip 1
        let want = g.cost.sync_inter_ipu_cycles;
        let c = fill_codelet(&mut g);
        let mut cs = ComputeSet::new("fill");
        cs.add(Vertex {
            tile: 2,
            codelet: c,
            operands: vec![TensorSlice::whole(s, 1), TensorSlice::whole(y, 4)],
            kind: VertexKind::Simple,
        });
        let cs = g.add_compute_set(cs).unwrap();
        let mut e = Engine::new(g.compile(Prog::Execute(cs)).unwrap());
        e.write_scalar(s, 3.0);
        e.run();
        assert_eq!(e.read_tensor(y), vec![3.0; 4]);
        assert_eq!(
            e.stats().phase_cycles(Phase::Sync),
            want,
            "a broadcast sourced from another chip must pay the inter-IPU sync"
        );
    }

    // ---- dispatch ----------------------------------------------------

    /// Device cycles, exchange bytes, supersteps, syncs, per-label phases.
    type Fingerprint = (u64, u64, u64, u64, Vec<(String, [u64; 3])>);

    fn fingerprint(e: &Engine) -> Fingerprint {
        (
            e.stats().device_cycles(),
            e.stats().exchange_bytes(),
            e.stats().supersteps(),
            e.stats().sync_count(),
            e.stats().labels_by_phase_sorted(),
        )
    }

    /// Two engines built from one executable leave the same bits, the
    /// same stats and the same per-tile busy time, and the bits are what
    /// the codelet computes: every input doubled.
    #[test]
    fn every_dispatch_and_schedule_matches_the_interpreted_single_thread_bitwise() {
        let (exec, x) = double_in_place();
        let input = [1.5, -2.0, 3.25, 4.0, 5.5, -6.0, 7.75, 8.0];
        let run = || {
            let mut e = Engine::new(exec.clone());
            e.write_tensor(x, &input);
            e.run();
            e
        };
        let (reference, e) = (run(), run());
        let bits = |e: &Engine| e.read_tensor(x).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let doubled: Vec<u64> = input.iter().map(|v| (2.0 * v).to_bits()).collect();
        assert_eq!(bits(&reference), doubled, "tensor bits");
        assert_eq!(bits(&reference), bits(&e), "tensor bits differ");
        assert_eq!(fingerprint(&reference), fingerprint(&e), "stats differ");
        for t in 0..2 {
            assert_eq!(reference.stats().tile_busy(t), e.stats().tile_busy(t));
        }
    }

    #[test]
    fn the_selection_pass_counts_every_vertex_by_what_runs_it() {
        let (exec, _) = double_in_place();
        let e = Engine::new(exec);
        let sel = e.compile_report().pass("native-kernel-selection").unwrap();
        // Both vertices lowered, each its map as one instruction, with no
        // accumulate loop and no row and no kernel instruction. No
        // per-codelet rows: only a kernel family that runs gets a
        // `kernel.*` counter.
        assert_eq!(sel.counter("codelets_total"), 1);
        assert_eq!(sel.counter("vertices_total"), 2);
        assert_eq!(sel.counter("vertices_lowered"), 2);
        assert_eq!(sel.counter("vertices_looped"), 0);
        assert_eq!(sel.counter("vertices_rowed"), 0);
        assert_eq!(sel.counter("vertices_mapped"), 2);
        assert_eq!(sel.counter("vertices_kernel"), 0);
        assert_eq!(sel.counters.len(), 7, "{:?}", sel.counters);
    }

    #[test]
    fn cross_tile_read_write_runs_in_program_order() {
        // Tile 0 doubles x[0..4] while tile 1 reads x[0] in the same
        // compute set. The engine accepts the program and runs the vertices
        // in program order, so the reader sees the write exactly when it
        // comes later.
        let build = |writer_first: bool| {
            let mut g = Graph::new(IpuModel::tiny(2));
            let x = g.add_tensor(TensorDef::linear("x", DType::F32, 8, 2)).unwrap();
            let y = g.add_tensor(TensorDef::on_tile("y", DType::F32, 4, 1)).unwrap();
            let dbl = double_codelet(&mut g);
            let fill = fill_codelet(&mut g);
            let write = Vertex {
                tile: 0,
                codelet: dbl,
                operands: vec![TensorSlice { tensor: x, start: 0, len: 4 }],
                kind: VertexKind::Simple,
            };
            let read = Vertex {
                tile: 1,
                codelet: fill,
                operands: vec![
                    TensorSlice { tensor: x, start: 0, len: 1 },
                    TensorSlice::whole(y, 4),
                ],
                kind: VertexKind::Simple,
            };
            let mut cs = ComputeSet::new("read-write");
            let (first, second) = if writer_first { (write, read) } else { (read, write) };
            cs.add(first);
            cs.add(second);
            let cs = g.add_compute_set(cs).unwrap();
            (g.compile(Prog::Execute(cs)).unwrap(), x, y)
        };
        for writer_first in [true, false] {
            let (exec, x, y) = build(writer_first);
            let mut e = Engine::new(exec);
            e.write_tensor(x, &[3.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0]);
            e.run();
            let want = if writer_first { 6.0 } else { 3.0 };
            let who = format!("writer_first={writer_first}");
            assert_eq!(e.read_tensor(y), vec![want; 4], "{who}");
            assert_eq!(e.read_tensor(x), vec![6.0, 2.0, 2.0, 2.0, 5.0, 5.0, 5.0, 5.0], "{who}");
        }
    }

    #[test]
    fn same_tile_read_after_write_sees_the_write() {
        // A read overlapping a write from an earlier vertex on the *same*
        // tile sees the written value.
        let mut g = Graph::new(IpuModel::tiny(2));
        let x = g.add_tensor(TensorDef::on_tile("x", DType::F32, 4, 0)).unwrap();
        let y = g.add_tensor(TensorDef::on_tile("y", DType::F32, 4, 0)).unwrap();
        let dbl = double_codelet(&mut g);
        let fill = fill_codelet(&mut g);
        let mut cs = ComputeSet::new("chain");
        cs.add(Vertex {
            tile: 0,
            codelet: dbl,
            operands: vec![TensorSlice::whole(x, 4)],
            kind: VertexKind::Simple,
        });
        cs.add(Vertex {
            tile: 0,
            codelet: fill,
            operands: vec![TensorSlice { tensor: x, start: 0, len: 1 }, TensorSlice::whole(y, 4)],
            kind: VertexKind::Simple,
        });
        let cs = g.add_compute_set(cs).unwrap();
        let mut e = Engine::new(g.compile(Prog::Execute(cs)).unwrap());
        e.write_tensor(x, &[2.0, 0.0, 0.0, 0.0]);
        e.run();
        assert_eq!(e.read_tensor(y), vec![4.0; 4], "same-tile RAW order must be preserved");
    }

    #[test]
    fn level_set_vertex_runs_rows_in_level_order() {
        // x[row] = (row == 0) ? 1 : x[row-1] + 1 — a chain; levels must
        // serialise it correctly.
        let mut g = Graph::new(IpuModel::tiny(1));
        let x = g.add_tensor(TensorDef::on_tile("x", DType::F32, 5, 0)).unwrap();
        let c = g
            .add_codelet(Codelet {
                name: "chain".into(),
                params: vec![ParamDecl { dtype: DType::F32, mutable: true }],
                num_locals: 1,
                body: vec![Stmt::If {
                    cond: Expr::bin(BinOp::Eq, Expr::Local(0), Expr::c(Value::I32(0))),
                    then: vec![Stmt::Store {
                        param: 0,
                        index: Expr::Local(0),
                        value: Expr::c(Value::F32(1.0)),
                    }],
                    otherwise: vec![Stmt::Store {
                        param: 0,
                        index: Expr::Local(0),
                        value: Expr::bin(
                            BinOp::Add,
                            Expr::index(
                                0,
                                Expr::bin(BinOp::Sub, Expr::Local(0), Expr::c(Value::I32(1))),
                            ),
                            Expr::c(Value::F32(1.0)),
                        ),
                    }],
                }],
            })
            .unwrap();
        let mut cs = ComputeSet::new("chain");
        cs.add(Vertex {
            tile: 0,
            codelet: c,
            operands: vec![TensorSlice::whole(x, 5)],
            kind: VertexKind::LevelSet { levels: (0..5).map(|i| vec![i]).collect() },
        });
        let cs = g.add_compute_set(cs).unwrap();
        let mut e = Engine::new(g.compile(Prog::Execute(cs)).unwrap());
        e.run();
        assert_eq!(e.read_tensor(x), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use ipu_sim::fault::FaultPlan;

    fn run_faulted(exec: &Executable, x: TensorId, spec: &str) -> (Vec<f64>, u64) {
        let mut e = Engine::new(exec.clone());
        e.set_faults(FaultPlan::parse(spec).unwrap());
        e.write_tensor(x, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        e.run();
        (e.read_tensor(x), e.stats().device_cycles())
    }

    #[test]
    fn sram_flip_perturbs_one_word_identically_under_both_schedules() {
        let (exec, x) = double_in_place();
        // Flip bit 30 of float word 1 on tile 1 (tile 1 owns x[4..8], so
        // word 1 is x[5]) before superstep 0.
        let spec = "flip@s0.t1:w1.b30";
        let (seq, seq_cycles) = run_faulted(&exec, x, spec);
        let (again, again_cycles) = run_faulted(&exec, x, spec);
        assert_eq!(seq, again, "fault replay must be engine-independent");
        assert_eq!(seq_cycles, again_cycles);
        // Only x[5] differs from the clean answer.
        let clean = vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0];
        for (i, (a, b)) in seq.iter().zip(&clean).enumerate() {
            if i == 5 {
                assert_ne!(a, b, "faulted word unchanged");
            } else {
                assert_eq!(a, b, "fault leaked to word {i}");
            }
        }
        // The faulted value is the bit-flipped input, doubled.
        let flipped = f32::from_bits(6.0f32.to_bits() ^ (1 << 30)) as f64;
        assert_eq!(seq[5], flipped * 2.0);
    }

    #[test]
    fn fault_fires_once_and_is_logged() {
        let (exec, x) = double_in_place();
        let mut e = Engine::new(exec);
        e.set_faults(FaultPlan::parse("flip@s0.t0:w0.b1").unwrap());
        e.write_tensor(x, &[1.0; 8]);
        e.run();
        assert_eq!(e.fault_log().len(), 1);
        assert_eq!(e.fault_log()[0].class, "flip");
        let after_first = e.read_tensor(x);
        // Second run: the transient fault has already fired, so execution
        // is clean (doubling whatever is in storage, with no new flip).
        e.run();
        assert_eq!(e.fault_log().len(), 1, "one-shot fault re-fired");
        let expected: Vec<f64> = after_first.iter().map(|v| v * 2.0).collect();
        assert_eq!(e.read_tensor(x), expected);
    }

    #[test]
    fn stall_fault_grows_makespan_only() {
        let (exec, x) = double_in_place();
        let clean = {
            let mut e = Engine::new(exec.clone());
            e.write_tensor(x, &[1.0; 8]);
            e.run();
            (e.read_tensor(x), e.stats().device_cycles())
        };
        let mut e = Engine::new(exec);
        e.set_faults(FaultPlan::parse("stall@s0.t1:c5000").unwrap());
        e.write_tensor(x, &[1.0; 8]);
        e.run();
        assert_eq!(e.read_tensor(x), clean.0, "a stall must not corrupt data");
        assert_eq!(
            e.stats().device_cycles(),
            clean.1 + 5000,
            "the whole chip waits for the stalled tile"
        );
        assert_eq!(e.fault_log().len(), 1);
        assert_eq!(e.fault_log()[0].class, "stall");
    }

    #[test]
    fn exchange_drop_leaves_stale_destination() {
        let mut g = Graph::new(IpuModel::tiny(2));
        let a = g.add_tensor(TensorDef::on_tile("a", DType::F32, 4, 0)).unwrap();
        let b = g.add_tensor(TensorDef::on_tile("b", DType::F32, 4, 1)).unwrap();
        let ex = ExchangeStep {
            name: "halo".into(),
            copies: vec![ElemCopy { src: a, src_start: 1, dst: b, dst_start: 0, len: 3 }],
        };
        let exec = g.compile(Prog::Exchange(ex)).unwrap();
        // The copy lands on tile 1; drop it -> b keeps its zeros. The
        // exchange is still *charged* (the fabric sent the data, the
        // receiver lost it), so cycles are unchanged.
        let clean_cycles = {
            let mut e = Engine::new(exec.clone());
            e.write_tensor(a, &[1.0, 2.0, 3.0, 4.0]);
            e.run();
            assert_eq!(e.read_tensor(b), vec![2.0, 3.0, 4.0, 0.0]);
            e.stats().device_cycles()
        };
        let mut e = Engine::new(exec.clone());
        e.set_faults(FaultPlan::parse("xdrop@s0.t1").unwrap());
        e.write_tensor(a, &[1.0, 2.0, 3.0, 4.0]);
        e.run();
        assert_eq!(e.read_tensor(b), vec![0.0; 4], "dropped copy must leave stale data");
        assert_eq!(e.stats().device_cycles(), clean_cycles);
        assert_eq!(e.fault_log().len(), 1);
        assert_eq!(e.fault_log()[0].class, "xdrop");
        // A drop aimed at tile 0 has nothing to drop there: it never
        // fires, and the copy goes through.
        let mut e = Engine::new(exec);
        e.set_faults(FaultPlan::parse("xdrop@s0.t0").unwrap());
        e.write_tensor(a, &[1.0, 2.0, 3.0, 4.0]);
        e.run();
        assert_eq!(e.read_tensor(b), vec![2.0, 3.0, 4.0, 0.0]);
        assert!(e.fault_log().is_empty());
    }

    #[test]
    fn exchange_flip_corrupts_delivery() {
        let mut g = Graph::new(IpuModel::tiny(2));
        let a = g.add_tensor(TensorDef::on_tile("a", DType::F32, 4, 0)).unwrap();
        let b = g.add_tensor(TensorDef::on_tile("b", DType::F32, 4, 1)).unwrap();
        let ex = ExchangeStep {
            name: "halo".into(),
            copies: vec![ElemCopy { src: a, src_start: 0, dst: b, dst_start: 0, len: 4 }],
        };
        let exec = g.compile(Prog::Exchange(ex)).unwrap();
        let mut e = Engine::new(exec);
        e.set_faults(FaultPlan::parse("xflip@s0.t1:w2.b31").unwrap());
        e.write_tensor(a, &[1.0, 2.0, 3.0, 4.0]);
        e.run();
        // Word 2 of the delivered block arrives sign-flipped; the source
        // is untouched.
        assert_eq!(e.read_tensor(b), vec![1.0, 2.0, -3.0, 4.0]);
        assert_eq!(e.read_tensor(a), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.fault_log().len(), 1);
        assert_eq!(e.fault_log()[0].class, "xflip");
    }

    #[test]
    fn faulted_run_is_bit_deterministic() {
        let (exec, x) = double_in_place();
        let spec = "seed=7;n=4;smax=2;wmax=8";
        let (r1, c1) = run_faulted(&exec, x, spec);
        let (r2, c2) = run_faulted(&exec, x, spec);
        assert_eq!(r1, r2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn fault_state_transplants_across_engines() {
        let (exec, x) = double_in_place();
        let mut e1 = Engine::new(exec.clone());
        e1.set_faults(FaultPlan::parse("flip@s0.t0:w0.b1").unwrap());
        e1.write_tensor(x, &[1.0; 8]);
        e1.run();
        let st = e1.take_fault_state().unwrap();
        assert!(st.all_fired());
        // A rebuilt engine carrying the state runs clean.
        let mut e2 = Engine::new(exec);
        e2.set_fault_state(Some(st));
        e2.write_tensor(x, &[1.0; 8]);
        e2.run();
        assert_eq!(e2.read_tensor(x), vec![2.0; 8]);
        assert_eq!(e2.fault_log().len(), 1, "log travels with the state");
    }
}
