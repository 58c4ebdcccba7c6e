//! Cycle accounting — the simulator's answer to Poplar's profiler.
//!
//! Under BSP, device time is the sum over supersteps of
//! `max_tile(compute) + exchange + sync`. [`CycleStats`] accumulates that
//! critical path, keeps per-tile busy counters (for utilisation/balance
//! diagnostics), and attributes device time to nested, named *phases* so
//! that experiments like the paper's Table IV ("which fraction of solver
//! time is ILU solve / SpMV / reduce / extended-precision ops") fall out
//! directly.
//!
//! Attribution is *innermost-wins*: while `["solver", "spmv"]` is on the
//! label stack, cycles go to `spmv` only. Cycles recorded with an empty
//! stack land in an explicit unlabelled bucket
//! ([`CycleStats::unlabelled_cycles`]), so that
//! `Σ label_cycles + unlabelled_cycles == device_cycles` holds exactly —
//! the invariant the profiling layer's reports are built on.

use std::collections::HashMap;

use crate::model::TileId;

/// Category of device time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Tiles executing codelets.
    Compute,
    /// The exchange fabric / IPU-Links moving data.
    Exchange,
    /// BSP synchronisation barriers.
    Sync,
}

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; 3] = [Phase::Compute, Phase::Exchange, Phase::Sync];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Exchange => "exchange",
            Phase::Sync => "sync",
        }
    }
}

/// Accumulated cycle statistics for one engine execution.
#[derive(Clone, Debug, Default)]
pub struct CycleStats {
    device_cycles: u64,
    by_phase: [u64; 3],
    tile_busy: Vec<u64>,
    /// label -> device cycles (split by phase) attributed while that label
    /// was innermost.
    labels: HashMap<String, [u64; 3]>,
    /// Cycles recorded while the label stack was empty.
    unlabelled: [u64; 3],
    label_stack: Vec<String>,
    supersteps: u64,
    /// Bytes moved over the exchange fabric / IPU-Links.
    exchange_bytes: u64,
    /// Number of synchronisation barriers executed.
    sync_count: u64,
    /// Number of `pop_label` calls made while the stack was already empty —
    /// each one is a label-balance bug in the caller that would otherwise
    /// silently skew attribution.
    label_underflows: u64,
}

impl CycleStats {
    pub fn new(num_tiles: usize) -> Self {
        CycleStats { tile_busy: vec![0; num_tiles], ..Default::default() }
    }

    /// Enter a named attribution scope (e.g. `"spmv"`, `"ilu_solve"`).
    pub fn push_label(&mut self, label: impl Into<String>) {
        self.label_stack.push(label.into());
    }

    /// Leave the innermost attribution scope.
    ///
    /// Popping an empty stack is a label-balance bug in the caller. It used
    /// to be a debug assertion that compiled away to a *silent* no-op in
    /// release builds, so one unbalanced caller could permanently skew
    /// attribution without a trace. It is now counted
    /// ([`label_underflows`]) so reports and the engine's label-balance
    /// check can surface it in every build profile. Cycles recorded after
    /// an underflow go to the unlabelled bucket rather than being
    /// misattributed to a stale outer label.
    ///
    /// [`label_underflows`]: CycleStats::label_underflows
    pub fn pop_label(&mut self) {
        if self.label_stack.pop().is_none() {
            self.label_underflows += 1;
        }
    }

    /// Number of times `pop_label` was called on an empty stack. Any
    /// non-zero value indicates a label-balance bug in a caller.
    pub fn label_underflows(&self) -> u64 {
        self.label_underflows
    }

    /// Current nesting depth of the label stack.
    pub fn label_depth(&self) -> usize {
        self.label_stack.len()
    }

    /// The current label stack, outermost first.
    pub fn label_stack(&self) -> &[String] {
        &self.label_stack
    }

    fn attribute(&mut self, phase: Phase, cycles: u64) {
        match self.label_stack.last() {
            Some(l) => self.labels.entry(l.clone()).or_insert([0; 3])[phase as usize] += cycles,
            None => self.unlabelled[phase as usize] += cycles,
        }
    }

    /// Record one compute superstep: `per_tile` holds the busy cycles of
    /// each participating tile; device time advances by the maximum
    /// (the BSP makespan).
    ///
    /// The accumulation is order-independent (per-tile sums and a max), so
    /// the stats do not depend on the order the engine lists the tiles in
    /// (it uses tile-id order).
    pub fn record_compute(&mut self, per_tile: impl IntoIterator<Item = (TileId, u64)>) {
        let mut max = 0;
        for (tile, cycles) in per_tile {
            self.tile_busy[tile] += cycles;
            max = max.max(cycles);
        }
        self.device_cycles += max;
        self.by_phase[Phase::Compute as usize] += max;
        self.attribute(Phase::Compute, max);
        self.supersteps += 1;
    }

    /// Record an exchange phase of `cycles` device time.
    pub fn record_exchange(&mut self, cycles: u64) {
        self.device_cycles += cycles;
        self.by_phase[Phase::Exchange as usize] += cycles;
        self.attribute(Phase::Exchange, cycles);
    }

    /// Record data volume for the current exchange phase (bytes over the
    /// fabric / links). Kept separate from [`record_exchange`] so callers
    /// that only model time keep working.
    ///
    /// [`record_exchange`]: CycleStats::record_exchange
    pub fn record_exchange_bytes(&mut self, bytes: u64) {
        self.exchange_bytes += bytes;
    }

    /// Record a synchronisation barrier of `cycles`.
    pub fn record_sync(&mut self, cycles: u64) {
        self.device_cycles += cycles;
        self.by_phase[Phase::Sync as usize] += cycles;
        self.attribute(Phase::Sync, cycles);
        self.sync_count += 1;
    }

    /// Total device cycles (the BSP critical path).
    pub fn device_cycles(&self) -> u64 {
        self.device_cycles
    }

    /// Device cycles spent in a category.
    pub fn phase_cycles(&self, phase: Phase) -> u64 {
        self.by_phase[phase as usize]
    }

    /// Total bytes moved over the exchange fabric / IPU-Links.
    pub fn exchange_bytes(&self) -> u64 {
        self.exchange_bytes
    }

    /// Number of synchronisation barriers executed.
    pub fn sync_count(&self) -> u64 {
        self.sync_count
    }

    /// Device cycles attributed to a named scope (0 if never entered).
    pub fn label_cycles(&self, label: &str) -> u64 {
        self.labels.get(label).map(|p| p.iter().sum()).unwrap_or(0)
    }

    /// Device cycles attributed to a named scope in one category.
    pub fn label_phase_cycles(&self, label: &str, phase: Phase) -> u64 {
        self.labels.get(label).map(|p| p[phase as usize]).unwrap_or(0)
    }

    /// Device cycles recorded while no label was active. Together with the
    /// named labels this partitions `device_cycles` exactly.
    pub fn unlabelled_cycles(&self) -> u64 {
        self.unlabelled.iter().sum()
    }

    /// Unlabelled device cycles in one category.
    pub fn unlabelled_phase_cycles(&self, phase: Phase) -> u64 {
        self.unlabelled[phase as usize]
    }

    /// All label attributions, sorted descending by cycles. Does not
    /// include the unlabelled bucket (see [`unlabelled_cycles`]).
    ///
    /// [`unlabelled_cycles`]: CycleStats::unlabelled_cycles
    pub fn labels_sorted(&self) -> Vec<(String, u64)> {
        let mut v: Vec<_> =
            self.labels.iter().map(|(k, p)| (k.clone(), p.iter().sum::<u64>())).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// All label attributions with their per-phase split
    /// `[compute, exchange, sync]`, sorted descending by total cycles.
    pub fn labels_by_phase_sorted(&self) -> Vec<(String, [u64; 3])> {
        let mut v: Vec<_> = self.labels.iter().map(|(k, p)| (k.clone(), *p)).collect();
        v.sort_by(|a, b| {
            let (ta, tb) = (a.1.iter().sum::<u64>(), b.1.iter().sum::<u64>());
            tb.cmp(&ta).then(a.0.cmp(&b.0))
        });
        v
    }

    /// Busy cycles of one tile.
    pub fn tile_busy(&self, tile: TileId) -> u64 {
        self.tile_busy[tile]
    }

    /// Per-tile busy counters (index = tile id).
    pub fn tile_busy_all(&self) -> &[u64] {
        &self.tile_busy
    }

    /// Mean tile utilisation relative to the compute critical path:
    /// 1.0 = perfectly balanced.
    pub fn compute_balance(&self) -> f64 {
        let compute = self.by_phase[Phase::Compute as usize];
        if compute == 0 || self.tile_busy.is_empty() {
            return 1.0;
        }
        let mean = self.tile_busy.iter().sum::<u64>() as f64 / self.tile_busy.len() as f64;
        mean / compute as f64
    }

    /// Number of compute supersteps recorded.
    pub fn supersteps(&self) -> u64 {
        self.supersteps
    }

    /// Reset all counters, keeping the tile count.
    pub fn reset(&mut self) {
        let n = self.tile_busy.len();
        *self = CycleStats::new(n);
    }

    /// Merge another stats object into this one (sequential composition).
    pub fn merge(&mut self, other: &CycleStats) {
        self.device_cycles += other.device_cycles;
        for i in 0..3 {
            self.by_phase[i] += other.by_phase[i];
            self.unlabelled[i] += other.unlabelled[i];
        }
        for (t, c) in other.tile_busy.iter().enumerate() {
            if t < self.tile_busy.len() {
                self.tile_busy[t] += c;
            }
        }
        for (k, p) in &other.labels {
            let e = self.labels.entry(k.clone()).or_insert([0; 3]);
            for i in 0..3 {
                e[i] += p[i];
            }
        }
        self.supersteps += other.supersteps;
        self.exchange_bytes += other.exchange_bytes;
        self.sync_count += other.sync_count;
        self.label_underflows += other.label_underflows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsp_takes_the_max() {
        let mut s = CycleStats::new(3);
        s.record_compute([(0, 10), (1, 30), (2, 20)]);
        assert_eq!(s.device_cycles(), 30);
        assert_eq!(s.tile_busy(0), 10);
        assert_eq!(s.tile_busy(1), 30);
        assert_eq!(s.supersteps(), 1);
    }

    #[test]
    fn record_compute_is_order_independent() {
        // The engine lists tiles in tile-id order, but the stats must not
        // depend on it: any permutation of the same per-tile pairs records
        // identical stats.
        let mut fwd = CycleStats::new(4);
        fwd.record_compute([(0, 10), (1, 30), (2, 20), (3, 5)]);
        let mut rev = CycleStats::new(4);
        rev.record_compute([(3, 5), (2, 20), (1, 30), (0, 10)]);
        assert_eq!(fwd.device_cycles(), rev.device_cycles());
        assert_eq!(fwd.tile_busy_all(), rev.tile_busy_all());
        assert_eq!(fwd.supersteps(), rev.supersteps());
    }

    #[test]
    fn phases_accumulate_separately() {
        let mut s = CycleStats::new(2);
        s.record_compute([(0, 100)]);
        s.record_exchange(40);
        s.record_sync(10);
        assert_eq!(s.device_cycles(), 150);
        assert_eq!(s.phase_cycles(Phase::Compute), 100);
        assert_eq!(s.phase_cycles(Phase::Exchange), 40);
        assert_eq!(s.phase_cycles(Phase::Sync), 10);
        assert_eq!(s.sync_count(), 1);
    }

    #[test]
    fn labels_attribute_innermost() {
        let mut s = CycleStats::new(1);
        s.push_label("solver");
        s.record_compute([(0, 5)]);
        s.push_label("spmv");
        s.record_compute([(0, 7)]);
        s.pop_label();
        s.record_exchange(3);
        s.pop_label();
        s.record_compute([(0, 100)]); // unattributed
        assert_eq!(s.label_cycles("spmv"), 7);
        assert_eq!(s.label_cycles("solver"), 8);
        assert_eq!(s.label_cycles("nope"), 0);
        let sorted = s.labels_sorted();
        assert_eq!(sorted[0].0, "solver");
    }

    #[test]
    fn labels_plus_unlabelled_partition_device_cycles() {
        let mut s = CycleStats::new(2);
        s.record_sync(6); // unlabelled
        s.push_label("a");
        s.record_compute([(0, 10), (1, 4)]);
        s.push_label("b");
        s.record_exchange(9);
        s.pop_label();
        s.pop_label();
        s.record_compute([(0, 21)]); // unlabelled
        let labelled: u64 = s.labels_sorted().iter().map(|(_, c)| c).sum();
        assert_eq!(labelled + s.unlabelled_cycles(), s.device_cycles());
        assert_eq!(s.unlabelled_cycles(), 27);
        assert_eq!(s.unlabelled_phase_cycles(Phase::Sync), 6);
        assert_eq!(s.label_phase_cycles("a", Phase::Compute), 10);
        assert_eq!(s.label_phase_cycles("b", Phase::Exchange), 9);
        assert_eq!(s.label_phase_cycles("b", Phase::Compute), 0);
    }

    #[test]
    fn exchange_bytes_accumulate() {
        let mut s = CycleStats::new(1);
        s.record_exchange(10);
        s.record_exchange_bytes(256);
        s.record_exchange(5);
        s.record_exchange_bytes(64);
        assert_eq!(s.exchange_bytes(), 320);
    }

    #[test]
    fn unbalanced_pop_is_counted_not_silent() {
        // Regression: in release builds an unbalanced pop_label used to be
        // a silent no-op; it must be observable as a counted stat.
        let mut s = CycleStats::new(1);
        assert_eq!(s.label_underflows(), 0);
        s.pop_label();
        assert_eq!(s.label_underflows(), 1);
        s.push_label("a");
        s.pop_label(); // balanced — no new underflow
        s.pop_label(); // unbalanced again
        assert_eq!(s.label_underflows(), 2);
        // Attribution after an underflow still lands in the unlabelled
        // bucket, keeping the partition invariant intact.
        s.record_compute([(0, 9)]);
        assert_eq!(s.unlabelled_cycles(), 9);
        assert_eq!(s.unlabelled_cycles(), s.device_cycles());
    }

    #[test]
    fn underflows_merge_and_reset() {
        let mut a = CycleStats::new(1);
        a.pop_label();
        let mut b = CycleStats::new(1);
        b.pop_label();
        b.pop_label();
        a.merge(&b);
        assert_eq!(a.label_underflows(), 3);
        a.reset();
        assert_eq!(a.label_underflows(), 0);
    }

    #[test]
    fn label_depth_tracks_stack() {
        let mut s = CycleStats::new(1);
        assert_eq!(s.label_depth(), 0);
        s.push_label("a");
        s.push_label("b");
        assert_eq!(s.label_depth(), 2);
        assert_eq!(s.label_stack(), ["a".to_string(), "b".to_string()]);
        s.pop_label();
        assert_eq!(s.label_depth(), 1);
    }

    #[test]
    fn balance_reflects_imbalance() {
        let mut s = CycleStats::new(2);
        s.record_compute([(0, 100), (1, 0)]);
        assert!((s.compute_balance() - 0.5).abs() < 1e-9);
        let mut b = CycleStats::new(2);
        b.record_compute([(0, 50), (1, 50)]);
        assert!((b.compute_balance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = CycleStats::new(2);
        a.push_label("x");
        a.record_compute([(0, 10)]);
        a.pop_label();
        let mut b = CycleStats::new(2);
        b.push_label("x");
        b.record_exchange(5);
        b.record_exchange_bytes(128);
        b.pop_label();
        b.record_sync(2);
        a.merge(&b);
        assert_eq!(a.device_cycles(), 17);
        assert_eq!(a.label_cycles("x"), 15);
        assert_eq!(a.label_phase_cycles("x", Phase::Exchange), 5);
        assert_eq!(a.exchange_bytes(), 128);
        assert_eq!(a.sync_count(), 1);
        assert_eq!(a.unlabelled_cycles(), 2);
    }
}
