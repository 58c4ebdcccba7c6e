//! The cycle cost model.
//!
//! Arithmetic costs follow the paper's **Table I** exactly for the three
//! floating-point families (native f32, double-word, emulated f64). Costs
//! for memory/integer/control operations reflect the Mk2 tile
//! microarchitecture the paper leans on in §VI-D: a two-pipeline core that
//! can dual-issue one floating-point instruction with one load/store or
//! integer instruction, and single-cycle conditional branches.

/// Revision of the cycle cost model. Bump this whenever a change alters
/// *any* modelled cycle count (arithmetic rates, exchange fabric costs,
/// sync charges, ...): persisted artifacts scored against the model — most
/// importantly the tuned-plan cache (`graphene-tune`) — key on it so stale
/// scores are invalidated rather than silently reused.
pub const COST_MODEL_REVISION: u32 = 1;

/// Data types that exist on the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DType {
    /// Native IEEE binary32.
    F32,
    /// Double-word: an (f32, f32) pair, Joldes et al. arithmetic.
    DoubleWord,
    /// Software-emulated IEEE binary64 (compiler-rt style).
    F64Emulated,
    /// 32-bit signed integer.
    I32,
    /// Boolean / predicate.
    Bool,
}

impl DType {
    /// Bytes occupied by one element in tile SRAM.
    #[inline]
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::DoubleWord => 8,
            DType::F64Emulated => 8,
            DType::I32 => 4,
            DType::Bool => 1,
        }
    }

    /// Whether this is one of the floating-point families of Table I.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, DType::F32 | DType::DoubleWord | DType::F64Emulated)
    }
}

/// Abstract operations the codelet VM executes; each combination of
/// (op, dtype) has a fixed cycle cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    Add,
    Sub,
    Mul,
    Div,
    /// Fused multiply-add (one instruction on the IPU for f32).
    Fma,
    Neg,
    Abs,
    Sqrt,
    Min,
    Max,
    /// Comparison producing a predicate.
    Cmp,
    /// Load one element from tile SRAM.
    Load,
    /// Store one element to tile SRAM.
    Store,
    /// Per-iteration loop bookkeeping (compare + branch + index update).
    LoopStep,
    /// A taken/untaken conditional branch.
    Branch,
    /// Integer ALU operation (index arithmetic).
    IntAlu,
    /// Type conversion between dtypes.
    Convert,
}

/// The cost model: pure functions from (op, dtype) to cycles, plus the
/// fabric and sync parameters used by [`crate::exchange`].
#[derive(Clone, Debug)]
pub struct CostModel {
    /// On-chip exchange bandwidth per tile, bytes per cycle. The Mk2's
    /// aggregate 8 TB/s fabric over 1,472 tiles at 1.325 GHz gives ≈4 B/c.
    pub exchange_bytes_per_cycle: f64,
    /// Fixed overhead per exchanged region (the "communication instruction"
    /// the paper's reordering strategy amortises — one per region instead of
    /// one per cell).
    pub region_overhead_cycles: u64,
    /// On-chip BSP sync cost per superstep.
    pub sync_on_chip_cycles: u64,
    /// Additional sync cost when a superstep spans multiple chips.
    pub sync_inter_ipu_cycles: u64,
    /// IPU-Link bandwidth per tile, bytes per cycle (links are shared and
    /// packaged; far below the on-chip fabric).
    pub ipu_link_bytes_per_cycle: f64,
    /// Latency adder for any superstep that exchanges across chips.
    pub ipu_link_latency_cycles: u64,
    /// Cost of spawning + joining the six workers once (the IPUTHREADING
    /// `runall`/`sync` pair).
    pub worker_spawn_cycles: u64,
    /// Cost of one intra-tile worker barrier (between level-set levels).
    pub worker_sync_cycles: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            exchange_bytes_per_cycle: 4.0,
            region_overhead_cycles: 12,
            sync_on_chip_cycles: 150,
            sync_inter_ipu_cycles: 600,
            ipu_link_bytes_per_cycle: 2.0,
            ipu_link_latency_cycles: 300,
            worker_spawn_cycles: 24,
            worker_sync_cycles: 12,
        }
    }
}

// The per-(op, dtype) lookups here and on `DType` are `#[inline]` because the
// codelet interpreter (another crate) calls them once or twice per IR node,
// and without LTO a non-generic function is not inlined across crates.
impl CostModel {
    /// Cycles for one execution of `op` on `dtype` (paper Table I for the
    /// floating-point arithmetic rows).
    #[inline]
    pub fn op_cycles(&self, op: Op, dtype: DType) -> u64 {
        use DType::*;
        use Op::*;
        match (op, dtype) {
            // --- Table I arithmetic ---
            (Add | Sub, F32) => 6,
            (Mul, F32) => 6,
            (Div, F32) => 6,
            (Fma, F32) => 6,
            (Add | Sub, DoubleWord) => 132,
            (Mul, DoubleWord) => 162,
            (Div, DoubleWord) => 240,
            (Fma, DoubleWord) => 132 + 162,
            (Add | Sub, F64Emulated) => 1080,
            (Mul, F64Emulated) => 1260,
            (Div, F64Emulated) => 2520,
            (Fma, F64Emulated) => 1080 + 1260,
            // --- derived float ops ---
            (Neg | Abs, F32) => 1,
            (Neg | Abs, DoubleWord) => 2,
            (Neg | Abs, F64Emulated) => 12,
            (Sqrt, F32) => 36,
            (Sqrt, DoubleWord) => 520,
            (Sqrt, F64Emulated) => 4200,
            (Min | Max | Cmp, F32) => 2,
            (Min | Max | Cmp, DoubleWord) => 8,
            (Min | Max | Cmp, F64Emulated) => 40,
            // --- integer / bool ---
            (Add | Sub | Mul | IntAlu | Min | Max | Cmp, I32) => 1,
            (Div, I32) => 12,
            (Neg | Abs, I32) => 1,
            (_, Bool) => 1,
            // --- memory: dual-issue hides most loads behind FP work, but
            // charge one slot; double-width types move two words ---
            (Load | Store, F32 | I32) => 1,
            (Load | Store, DoubleWord | F64Emulated) => 2,
            // --- control ---
            (LoopStep, _) => 2,
            (Branch, _) => 1,
            (Convert, _) => 2,
            // anything else (e.g. Fma on I32) is a modelling error
            (op, dt) => unreachable!("no cost for {op:?} on {dt:?}"),
        }
    }

    /// Cycles for a *mixed* double-word ⊗ single-word operation — the
    /// cheaper Joldes algorithms between a double-word and a plain float
    /// (`DWPlusFP` 10 flops, `DWTimesFP3` 6 flops, `DWDivFP3` 10 flops).
    /// Matrix coefficients stay in working precision during MPIR's
    /// extended residual, so its SpMV is dominated by these.
    #[inline]
    pub fn op_cycles_mixed_dw(&self, op: Op) -> u64 {
        match op {
            Op::Mul | Op::Fma => 36,
            Op::Add | Op::Sub => 60,
            Op::Div => 60,
            other => self.op_cycles(other, DType::DoubleWord),
        }
    }

    /// Useful floating-point operations one logical `op` performs —
    /// independent of the precision family, so a double-word add counts
    /// as one flop even though it retires ~20 instructions. Rooflines
    /// and achieved-vs-peak comparisons are only meaningful over *useful*
    /// work; the emulation overhead shows up as cycles, not flops.
    /// Non-arithmetic ops (compares, sign ops, moves) count zero.
    #[inline]
    pub fn op_flops(&self, op: Op, dtype: DType) -> u64 {
        if !dtype.is_float() {
            return 0;
        }
        match op {
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Sqrt => 1,
            Op::Fma => 2,
            _ => 0,
        }
    }

    /// Peak f32 throughput of one tile in flops per cycle: `workers`
    /// pipelines each retiring one FMA (2 flops) every
    /// `op_cycles(Fma, F32)` cycles. The roofline ceiling the perf
    /// reports compare achieved throughput against — self-consistent
    /// with this cost model rather than quoting datasheet numbers.
    pub fn peak_flops_per_cycle(&self, workers: u64) -> f64 {
        workers as f64 * 2.0 / self.op_cycles(Op::Fma, DType::F32) as f64
    }

    /// Cycles to move `bytes` through the on-chip fabric as one region.
    pub fn on_chip_region_cycles(&self, bytes: usize) -> u64 {
        self.region_overhead_cycles + (bytes as f64 / self.exchange_bytes_per_cycle).ceil() as u64
    }

    /// Cycles to move `bytes` across an IPU-Link as one region
    /// (excluding the per-superstep latency adder).
    pub fn ipu_link_region_cycles(&self, bytes: usize) -> u64 {
        self.region_overhead_cycles + (bytes as f64 / self.ipu_link_bytes_per_cycle).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_arithmetic_costs() {
        let c = CostModel::default();
        // Table I rows, verbatim.
        assert_eq!(c.op_cycles(Op::Add, DType::F32), 6);
        assert_eq!(c.op_cycles(Op::Mul, DType::F32), 6);
        assert_eq!(c.op_cycles(Op::Div, DType::F32), 6);
        assert_eq!(c.op_cycles(Op::Add, DType::DoubleWord), 132);
        assert_eq!(c.op_cycles(Op::Mul, DType::DoubleWord), 162);
        assert_eq!(c.op_cycles(Op::Div, DType::DoubleWord), 240);
        assert_eq!(c.op_cycles(Op::Add, DType::F64Emulated), 1080);
        assert_eq!(c.op_cycles(Op::Mul, DType::F64Emulated), 1260);
        assert_eq!(c.op_cycles(Op::Div, DType::F64Emulated), 2520);
    }

    #[test]
    fn double_word_far_cheaper_than_emulated_double() {
        let c = CostModel::default();
        for op in [Op::Add, Op::Mul, Op::Div] {
            let dw = c.op_cycles(op, DType::DoubleWord);
            let dp = c.op_cycles(op, DType::F64Emulated);
            assert!(dp > 7 * dw, "{op:?}: dw={dw} dp={dp}");
        }
    }

    #[test]
    fn element_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::DoubleWord.size_bytes(), 8);
        assert_eq!(DType::F64Emulated.size_bytes(), 8);
        assert_eq!(DType::I32.size_bytes(), 4);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }

    #[test]
    fn region_cost_scales_with_bytes() {
        let c = CostModel::default();
        let small = c.on_chip_region_cycles(64);
        let big = c.on_chip_region_cycles(6400);
        assert!(big > small);
        // Overhead dominates tiny regions — the motivation for blockwise
        // transfers.
        assert_eq!(c.on_chip_region_cycles(4), c.region_overhead_cycles + 1);
    }

    #[test]
    fn ipu_link_slower_than_fabric() {
        let c = CostModel::default();
        assert!(c.ipu_link_region_cycles(4096) > c.on_chip_region_cycles(4096));
    }
}
