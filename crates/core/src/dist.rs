//! The distributed linear system on the device.
//!
//! `DistSystem` takes a host matrix and a partition and produces everything
//! the solvers need on the simulated IPU:
//!
//! * the §IV halo decomposition and the per-tile local matrices in the
//!   paper's **modified CSR** layout (dense diagonal + off-diagonal CSR,
//!   §II-C), with column indices renumbered into each tile's local vector
//!   layout `[interior | separators | halo]`;
//! * device tensors for the matrix data and a constructor for distributed
//!   vectors carrying halo slots;
//! * the blockwise **halo-exchange** step (one region copy per consumer,
//!   broadcast over the all-to-all fabric);
//! * SpMV and residual compute sets built from a CodeDSL codelet;
//! * the per-tile forward/backward **level sets** used by Gauss-Seidel and
//!   ILU.

use std::rc::Rc;

use dsl::prelude::*;
use graph::codelet::Kernel;
use graph::engine::Engine;
use graph::program::ElemCopy;
use sparse::formats::CsrMatrix;
use sparse::halo::HaloDecomposition;
use sparse::levelset::{LevelSets, Sweep};
use sparse::partition::Partition;

/// Matrix + partition lowered onto the device.
pub struct DistSystem {
    /// Host copy of the (global) matrix, full precision.
    pub a: Rc<CsrMatrix>,
    pub part: Partition,
    pub halo: HaloDecomposition,
    /// Chunk layout shared by every distributed vector: per tile,
    /// `owned` solution entries followed by halo slots.
    pub vec_chunks: Vec<TensorChunk>,
    /// Device matrix tensors (modified CSR, tile-local column indices).
    pub diag: TensorRef,
    pub vals: TensorRef,
    pub cols: TensorRef,
    pub rptr: TensorRef,
    /// Halo-exchange template: (src flat index, dst flat index, len)
    /// within the shared vector layout.
    halo_copies: Vec<(usize, usize, usize)>,
    /// Per-tile dependency levels of the local lower/upper triangles.
    pub fwd_levels: Vec<Vec<Vec<usize>>>,
    pub bwd_levels: Vec<Vec<Vec<usize>>>,
    /// Per-tile (diag_start, vals_start, rptr_start) offsets into the
    /// matrix tensors.
    mat_offsets: Vec<(usize, usize, usize)>,
    /// Per-tile off-diagonal nnz.
    mat_nnz: Vec<usize>,
    /// Host-side data of the matrix tensors, in their device dtypes.
    diag_data: Vec<f32>,
    vals_data: Vec<f32>,
    cols_data: Vec<i32>,
    rptr_data: Vec<i32>,
    /// The single SpMV / residual codelets (shared by all tiles).
    spmv_codelet: graph::codelet::CodeletId,
    residual_codelet: graph::codelet::CodeletId,
}

/// Why a matrix cannot be laid out on the device: row `row` (global id) has
/// no diagonal entry, or a zero one. The modified CSR keeps the diagonal as
/// a dense array of pivots, so every row needs a nonzero one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZeroDiagonal {
    pub row: usize,
}

impl std::fmt::Display for ZeroDiagonal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "row {} has a zero or missing diagonal entry; the device's modified CSR needs a \
             nonzero diagonal in every row",
            self.row
        )
    }
}

impl std::error::Error for ZeroDiagonal {}

impl DistSystem {
    /// Decompose `a` over `part` and allocate the matrix on the device.
    /// Panics where [`DistSystem::try_build`] returns an error.
    pub fn build(ctx: &mut DslCtx, a: Rc<CsrMatrix>, part: Partition) -> DistSystem {
        Self::try_build(ctx, a, part).expect("matrix with a full nonzero diagonal")
    }

    /// Decompose `a` over `part` and allocate the matrix on the device, or
    /// name the first row (in tile order) whose diagonal is zero or
    /// missing; `ctx` is untouched then.
    ///
    /// One pass per tile over its rows writes the modified CSR straight
    /// into the four tensor arrays, with columns renumbered through the
    /// decomposition's one global → local map; the forward and backward
    /// level sets then take one pass each over the tile's off-diagonal
    /// pattern.
    pub fn try_build(
        ctx: &mut DslCtx,
        a: Rc<CsrMatrix>,
        part: Partition,
    ) -> Result<DistSystem, ZeroDiagonal> {
        assert!(
            part.num_parts() <= ctx.model().num_tiles(),
            "partition has more parts ({}) than the machine has tiles ({})",
            part.num_parts(),
            ctx.model().num_tiles()
        );
        let halo = HaloDecomposition::build(&a, &part);
        let num_tiles = part.num_parts();

        // Vector layout.
        let mut vec_chunks = Vec::with_capacity(num_tiles);
        let mut start = 0usize;
        for (t, layout) in halo.layouts.iter().enumerate() {
            let total = layout.local_len();
            vec_chunks.push(TensorChunk { tile: t, start, owned: layout.owned.len(), total });
            start += total;
        }

        // Matrix tensors: per tile, the modified-CSR arrays back to back.
        // Every row holds one diagonal entry, so the rest is off-diagonal.
        let n = a.nrows;
        let off_diagonal = a.nnz().saturating_sub(n);
        let mut diag_data = Vec::with_capacity(n);
        let mut vals_data = Vec::with_capacity(off_diagonal);
        let mut cols_data = Vec::with_capacity(off_diagonal);
        let mut rptr_data = Vec::with_capacity(n + num_tiles);
        let mut diag_chunks = Vec::with_capacity(num_tiles);
        let mut vals_chunks = Vec::with_capacity(num_tiles);
        let mut cols_chunks = Vec::with_capacity(num_tiles);
        let mut rptr_chunks = Vec::with_capacity(num_tiles);
        let mut fwd_levels = Vec::with_capacity(num_tiles);
        let mut bwd_levels = Vec::with_capacity(num_tiles);
        let mut mat_offsets = Vec::with_capacity(num_tiles);
        let mut mat_nnz = Vec::with_capacity(num_tiles);
        // One tile's off-diagonal pattern, reused: the level sets read it.
        let mut row_ptr: Vec<usize> = Vec::new();
        let mut col_idx: Vec<u32> = Vec::new();
        let mut columns = halo.local_columns();
        for (t, layout) in halo.layouts.iter().enumerate() {
            columns.enter(t);
            let (d0, v0, r0) = (diag_data.len(), vals_data.len(), rptr_data.len());
            mat_offsets.push((d0, v0, r0));
            row_ptr.clear();
            row_ptr.push(0);
            col_idx.clear();
            for (i, &row) in layout.owned.iter().enumerate() {
                let mut d = 0.0;
                for &(c, v) in columns.row(&a, row) {
                    if c as usize == i {
                        d = v;
                    } else {
                        col_idx.push(c);
                        vals_data.push(v as f32);
                    }
                }
                if d == 0.0 {
                    return Err(ZeroDiagonal { row });
                }
                diag_data.push(d as f32);
                row_ptr.push(col_idx.len());
            }
            cols_data.extend(col_idx.iter().map(|&c| c as i32));
            rptr_data.extend(row_ptr.iter().map(|&p| p as i32));

            let (rows, nnz) = (layout.owned.len(), col_idx.len());
            mat_nnz.push(nnz);
            diag_chunks.push(TensorChunk { tile: t, start: d0, owned: rows, total: rows });
            vals_chunks.push(TensorChunk { tile: t, start: v0, owned: nnz, total: nnz });
            cols_chunks.push(TensorChunk { tile: t, start: v0, owned: nnz, total: nnz });
            rptr_chunks.push(TensorChunk { tile: t, start: r0, owned: rows + 1, total: rows + 1 });

            // Level sets of the local lower/upper triangles: halo columns
            // (>= rows) are never dependencies.
            let levels = |sweep| LevelSets::of_pattern(rows, &row_ptr, &col_idx, sweep).levels;
            fwd_levels.push(levels(Sweep::Forward));
            bwd_levels.push(levels(Sweep::Backward));
        }

        let diag = ctx
            .add_tensor(TensorDef { name: "A_diag".into(), dtype: DType::F32, chunks: diag_chunks })
            .expect("diag tensor");
        let vals = ctx
            .add_tensor(TensorDef { name: "A_vals".into(), dtype: DType::F32, chunks: vals_chunks })
            .expect("vals tensor");
        let cols = ctx
            .add_tensor(TensorDef { name: "A_cols".into(), dtype: DType::I32, chunks: cols_chunks })
            .expect("cols tensor");
        let rptr = ctx
            .add_tensor(TensorDef { name: "A_rptr".into(), dtype: DType::I32, chunks: rptr_chunks })
            .expect("rptr tensor");

        // Halo-exchange template in vector-layout flat indices.
        let mut halo_copies = Vec::new();
        for r in &halo.regions {
            let src = vec_chunks[r.owner].start + r.src_start;
            for (k, &t) in r.consumers.iter().enumerate() {
                let dst = vec_chunks[t].start + r.dst_starts[k];
                halo_copies.push((src, dst, r.len()));
            }
        }

        // The SpMV and its residual over the modified-CSR layout (the dense
        // diagonal of §II-C first), `graph::codelet::spmv_template`.
        let spmv_codelet = ctx.add_codelet(Kernel::Spmv { residual: false }.codelet("spmv"));
        let residual_codelet = ctx.add_codelet(Kernel::Spmv { residual: true }.codelet("residual"));

        Ok(DistSystem {
            a,
            part,
            halo,
            vec_chunks,
            diag,
            vals,
            cols,
            rptr,
            halo_copies,
            fwd_levels,
            bwd_levels,
            mat_offsets,
            mat_nnz,
            diag_data,
            vals_data,
            cols_data,
            rptr_data,
            spmv_codelet,
            residual_codelet,
        })
    }

    pub fn num_tiles(&self) -> usize {
        self.vec_chunks.len()
    }

    pub fn num_rows(&self) -> usize {
        self.a.nrows
    }

    /// Total halo elements moved per exchange.
    pub fn halo_volume(&self) -> usize {
        self.halo_copies.iter().map(|&(_, _, l)| l).sum()
    }

    /// Allocate a distributed vector with halo slots.
    pub fn new_vector(&self, ctx: &mut DslCtx, name: impl Into<String>, dtype: DType) -> TensorRef {
        ctx.add_tensor(TensorDef { name: name.into(), dtype, chunks: self.vec_chunks.clone() })
            .expect("distributed vector")
    }

    /// Emit the blockwise halo exchange for a distributed vector.
    pub fn halo_exchange(&self, ctx: &mut DslCtx, x: TensorRef) {
        if self.halo_copies.is_empty() {
            return;
        }
        let copies = self
            .halo_copies
            .iter()
            .map(|&(src, dst, len)| ElemCopy {
                src: x.id,
                src_start: src,
                dst: x.id,
                dst_start: dst,
                len,
            })
            .collect();
        ctx.exchange("halo", copies);
    }

    /// Emit the *naive* per-cell halo exchange (one copy per cell per
    /// consumer) — the ablation baseline for the §IV reordering strategy.
    pub fn halo_exchange_naive(&self, ctx: &mut DslCtx, x: TensorRef) {
        let mut copies = Vec::new();
        for &(src, dst, len) in &self.halo_copies {
            for k in 0..len {
                copies.push(ElemCopy {
                    src: x.id,
                    src_start: src + k,
                    dst: x.id,
                    dst_start: dst + k,
                    len: 1,
                });
            }
        }
        if !copies.is_empty() {
            ctx.exchange("halo_naive", copies);
        }
    }

    /// `y = A x` (working precision): halo exchange on `x`, then one SpMV
    /// vertex per tile.
    pub fn spmv(&self, ctx: &mut DslCtx, y: TensorRef, x: TensorRef) {
        self.spmv_inner(ctx, y, x, true);
    }

    /// `y = A x` without the halo exchange (scaling-study variant that
    /// isolates compute; halo values are whatever the slots hold).
    pub fn spmv_no_exchange(&self, ctx: &mut DslCtx, y: TensorRef, x: TensorRef) {
        self.spmv_inner(ctx, y, x, false);
    }

    fn spmv_inner(&self, ctx: &mut DslCtx, y: TensorRef, x: TensorRef, exchange: bool) {
        if exchange {
            self.halo_exchange(ctx, x);
        }
        let mut vertices = Vec::with_capacity(self.num_tiles());
        for (t, vc) in self.vec_chunks.iter().enumerate() {
            if vc.owned == 0 {
                continue;
            }
            let mut operands = vec![
                TensorSlice { tensor: y.id, start: vc.start, len: vc.owned },
                TensorSlice { tensor: x.id, start: vc.start, len: vc.total },
            ];
            operands.extend(self.matrix_operands_for(t));
            vertices.push(Vertex {
                tile: vc.tile,
                codelet: self.spmv_codelet,
                operands,
                kind: VertexKind::Simple,
            });
        }
        ctx.execute("spmv", vertices);
    }

    /// `r = b - A x` in the dtype of `r`/`x` — used for the initial
    /// residual and for MPIR's extended-precision residual (step 1).
    /// `x` and `r` may be F32, DoubleWord or F64Emulated; the matrix stays
    /// in working precision, products and accumulation promote to the
    /// extended type.
    pub fn residual(&self, ctx: &mut DslCtx, r: TensorRef, b: TensorRef, x: TensorRef) {
        self.halo_exchange(ctx, x);
        let mut vertices = Vec::with_capacity(self.num_tiles());
        for (t, vc) in self.vec_chunks.iter().enumerate() {
            if vc.owned == 0 {
                continue;
            }
            let mut operands = vec![
                TensorSlice { tensor: r.id, start: vc.start, len: vc.owned },
                TensorSlice { tensor: x.id, start: vc.start, len: vc.total },
                TensorSlice { tensor: b.id, start: vc.start, len: vc.owned },
            ];
            operands.extend(self.matrix_operands_for(t));
            vertices.push(Vertex {
                tile: vc.tile,
                codelet: self.residual_codelet,
                operands,
                kind: VertexKind::Simple,
            });
        }
        ctx.execute("residual", vertices);
    }

    pub(crate) fn matrix_operands_for(&self, t: usize) -> Vec<TensorSlice> {
        let rows = self.vec_chunks[t].owned;
        // Reconstruct per-tile offsets: matrix tensors have one chunk per
        // tile in tile order with cumulative starts; track via prefix sums
        // stored below.
        let (ds, vs, cs, rs) = self.matrix_offsets(t);
        let nnz = self.matrix_nnz(t);
        vec![
            TensorSlice { tensor: self.diag.id, start: ds, len: rows },
            TensorSlice { tensor: self.vals.id, start: vs, len: nnz },
            TensorSlice { tensor: self.cols.id, start: cs, len: nnz },
            TensorSlice { tensor: self.rptr.id, start: rs, len: rows + 1 },
        ]
    }

    fn matrix_offsets(&self, t: usize) -> (usize, usize, usize, usize) {
        let (d, v, r) = self.mat_offsets[t];
        (d, v, v, r)
    }

    fn matrix_nnz(&self, t: usize) -> usize {
        self.mat_nnz[t]
    }

    /// Write the matrix data into a built engine (step 4 of the pipeline).
    pub fn upload(&self, engine: &mut Engine) {
        engine.write_f32(self.diag.id, &self.diag_data);
        engine.write_f32(self.vals.id, &self.vals_data);
        engine.write_i32(self.cols.id, &self.cols_data);
        engine.write_i32(self.rptr.id, &self.rptr_data);
    }

    /// Rearrange a global host vector into the device vector layout
    /// (owned values in local order, halo slots filled with owners'
    /// values).
    pub fn to_device_order(&self, global: &[f64]) -> Vec<f64> {
        let len = self.vec_chunks.last().map_or(0, |vc| vc.start + vc.total);
        let mut device = Vec::with_capacity(len);
        for layout in &self.halo.layouts {
            device.extend(layout.owned.iter().chain(&layout.halo).map(|&row| global[row]));
        }
        device
    }

    /// Gather a device-layout vector (as read from the engine) back into
    /// global ordering.
    pub fn from_device_order(&self, device: &[f64]) -> Vec<f64> {
        let mut global = vec![0.0; self.num_rows()];
        for (vc, layout) in self.vec_chunks.iter().zip(&self.halo.layouts) {
            let owned = &device[vc.start..vc.start + vc.owned];
            for (&row, &v) in layout.owned.iter().zip(owned) {
                global[row] = v;
            }
        }
        global
    }
}

/// The operand slices (diag, vals, cols, rptr) of tile `t`'s local matrix —
/// used by solvers that bind custom codelets to the matrix data.
pub fn matrix_operands(sys: &DistSystem, t: usize) -> Vec<TensorSlice> {
    sys.matrix_operands_for(t)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use sparse::gen::{poisson_2d_5pt, poisson_3d_7pt, Grid3};

    fn build_spmv_engine(
        a: CsrMatrix,
        parts: usize,
    ) -> (Engine, Rc<CsrMatrix>, TensorRef, TensorRef, DistSystem) {
        let a = Rc::new(a);
        let part = Partition::balanced_by_nnz(&a, parts);
        let mut ctx = DslCtx::new(IpuModel::tiny(parts));
        let sys = DistSystem::build(&mut ctx, a.clone(), part);
        let x = sys.new_vector(&mut ctx, "x", DType::F32);
        let y = sys.new_vector(&mut ctx, "y", DType::F32);
        sys.spmv(&mut ctx, y, x);
        let mut e = ctx.build_engine().unwrap();
        sys.upload(&mut e);
        (e, a, x, y, sys)
    }

    #[test]
    fn distributed_spmv_matches_host() {
        let (mut e, a, x, y, sys) = build_spmv_engine(poisson_2d_5pt(8, 8, 1.0), 4);
        let xs: Vec<f64> = (0..64).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        // Deliberately stale halo slots: exchange inside spmv must fix them.
        let mut dev = sys.to_device_order(&xs);
        for vc in &sys.vec_chunks {
            for k in vc.owned..vc.total {
                dev[vc.start + k] = -1234.0;
            }
        }
        e.write_tensor(x.id, &dev);
        e.run();
        let got = sys.from_device_order(&e.read_tensor(y.id));
        let want = a.spmv_alloc(&xs);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3, "{g} vs {w}"); // f32 working precision
        }
    }

    #[test]
    fn spmv_on_3d_poisson_many_tiles() {
        let (mut e, a, x, y, sys) = build_spmv_engine(poisson_3d_7pt(6, 6, 6), 8);
        let xs: Vec<f64> = (0..a.nrows).map(|i| (i as f64 * 0.1).sin()).collect();
        e.write_tensor(x.id, &sys.to_device_order(&xs));
        e.run();
        let got = sys.from_device_order(&e.read_tensor(y.id));
        let want = a.spmv_alloc(&xs);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn residual_in_double_word_beats_f32() {
        let a = Rc::new(poisson_2d_5pt(6, 6, 1.0));
        let part = Partition::balanced_by_nnz(&a, 2);
        let mut ctx = DslCtx::new(IpuModel::tiny(2));
        let sys = DistSystem::build(&mut ctx, a.clone(), part);
        let b = sys.new_vector(&mut ctx, "b", DType::F32);
        let x32 = sys.new_vector(&mut ctx, "x32", DType::F32);
        let xdw = sys.new_vector(&mut ctx, "xdw", DType::DoubleWord);
        let r32 = sys.new_vector(&mut ctx, "r32", DType::F32);
        let rdw = sys.new_vector(&mut ctx, "rdw", DType::DoubleWord);
        sys.residual(&mut ctx, r32, b, x32);
        sys.residual(&mut ctx, rdw, b, xdw);
        let mut e = ctx.build_engine().unwrap();
        sys.upload(&mut e);
        // Exact solution of A x = b for x = ones ⇒ residual should be 0;
        // perturb x slightly so cancellation precision matters.
        let xs: Vec<f64> = (0..36).map(|i| 1.0 + 1e-7 * (i as f64)).collect();
        let bs = a.spmv_alloc(&xs);
        e.write_tensor(b.id, &sys.to_device_order(&bs));
        e.write_tensor(x32.id, &sys.to_device_order(&xs));
        e.write_tensor(xdw.id, &sys.to_device_order(&xs));
        e.run();
        let g32 = sys.from_device_order(&e.read_tensor(r32.id));
        let gdw = sys.from_device_order(&e.read_tensor(rdw.id));
        let err32: f64 = g32.iter().map(|v| v.abs()).sum();
        let errdw: f64 = gdw.iter().map(|v| v.abs()).sum();
        // b itself was rounded to f32 on upload, so neither is exactly 0,
        // but the double-word residual must be far more accurate.
        assert!(errdw < err32 / 4.0, "dw {errdw} vs f32 {err32}");
    }

    #[test]
    fn halo_exchange_volume_matches_decomposition() {
        let a = poisson_3d_7pt(8, 8, 8);
        let grid = Grid3 { nx: 8, ny: 8, nz: 8 };
        let part = Partition::grid_3d(grid, 2, 2, 2);
        let mut ctx = DslCtx::new(IpuModel::tiny(8));
        let sys = DistSystem::build(&mut ctx, Rc::new(a), part);
        assert_eq!(sys.halo_volume(), sys.halo.exchange_volume());
        assert!(sys.halo_volume() > 0);
    }

    #[test]
    fn device_order_roundtrip() {
        let a = Rc::new(poisson_2d_5pt(5, 5, 1.0));
        let xs: Vec<f64> = (0..25).map(|i| i as f64).collect();
        // Three parts, then more parts than rows: five tiles own nothing.
        for parts in [3, 30] {
            let part = Partition::contiguous(25, parts);
            let mut ctx = DslCtx::new(IpuModel::tiny(parts));
            let sys = DistSystem::build(&mut ctx, a.clone(), part);
            let device = sys.to_device_order(&xs);
            assert_eq!(device.len(), sys.vec_chunks.iter().map(|vc| vc.total).sum::<usize>());
            for (vc, layout) in sys.vec_chunks.iter().zip(&sys.halo.layouts) {
                let rows = layout.owned.iter().chain(&layout.halo);
                let want: Vec<f64> = rows.map(|&r| xs[r]).collect();
                assert_eq!(&device[vc.start..vc.start + vc.total], &want[..]);
            }
            assert_eq!(sys.from_device_order(&device), xs);
        }
    }

    #[test]
    fn level_sets_cover_local_rows() {
        let a = poisson_2d_5pt(6, 6, 1.0);
        let part = Partition::contiguous(36, 4);
        let mut ctx = DslCtx::new(IpuModel::tiny(4));
        let sys = DistSystem::build(&mut ctx, Rc::new(a), part);
        for t in 0..4 {
            let rows = sys.vec_chunks[t].owned;
            let covered: usize = sys.fwd_levels[t].iter().map(Vec::len).sum();
            assert_eq!(covered, rows);
            let covered_b: usize = sys.bwd_levels[t].iter().map(Vec::len).sum();
            assert_eq!(covered_b, rows);
        }
    }

    #[test]
    fn a_zero_or_missing_diagonal_is_an_error_naming_the_global_row() {
        let a = poisson_2d_5pt(4, 4, 1.0);
        let without = |row: usize, value: Option<f64>| {
            let mut b = a.clone();
            let k = b.row_ptr[row] + b.row(row).0.iter().position(|&c| c as usize == row).unwrap();
            match value {
                Some(v) => b.values[k] = v,
                None => {
                    b.col_idx.remove(k);
                    b.values.remove(k);
                    b.row_ptr[row + 1..].iter_mut().for_each(|p| *p -= 1);
                }
            }
            Rc::new(b)
        };
        for (b, row) in [(without(9, None), 9), (without(2, Some(0.0)), 2), (without(15, None), 15)]
        {
            let mut ctx = DslCtx::new(IpuModel::tiny(3));
            let err = DistSystem::try_build(&mut ctx, b, Partition::contiguous(16, 3)).err();
            assert_eq!(err, Some(ZeroDiagonal { row }));
            assert!(err.unwrap().to_string().contains(&format!("row {row} ")));
            assert!(ctx.graph().tensors.is_empty() && ctx.graph().codelets.is_empty());
        }
    }

    /// `to_modified_local` as it was: a tile-local CSR split into a dense
    /// diagonal and an off-diagonal CSR. With the loop of the old
    /// `DistSystem::build` in [`oracle_data`], the oracle the one-pass build
    /// must reproduce.
    fn to_modified_local(m: &CsrMatrix) -> sparse::formats::ModifiedCsr {
        let n = m.nrows;
        let mut diag = vec![0.0; n];
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for (i, d) in diag.iter_mut().enumerate() {
            let (cols, vals) = m.row(i);
            for (c, v) in cols.iter().zip(vals) {
                if *c as usize == i {
                    *d = *v;
                } else {
                    col_idx.push(*c);
                    values.push(*v);
                }
            }
            assert!(*d != 0.0, "local row {i} has a zero/missing diagonal");
            row_ptr.push(col_idx.len());
        }
        sparse::formats::ModifiedCsr { nrows: n, ncols: m.ncols, diag, row_ptr, col_idx, values }
    }

    /// What the old `DistSystem::build` put in the four tensors and the
    /// level sets: local matrices first, then a modified CSR and two level
    /// analyses per tile.
    fn oracle_data(a: &CsrMatrix, part: &Partition) -> (Vec<Vec<u64>>, Levels, Levels) {
        let (mut diag, mut vals, mut cols, mut rptr) = (vec![], vec![], vec![], vec![]);
        let (mut fwd, mut bwd) = (vec![], vec![]);
        for lm in HaloDecomposition::build(a, part).local_matrices(a) {
            let m = to_modified_local(&lm.a);
            diag.extend(m.diag);
            vals.extend(m.values);
            cols.extend(m.col_idx.iter().map(|&c| c as f64));
            rptr.extend(m.row_ptr.iter().map(|&p| p as f64));
            fwd.push(LevelSets::analyze(&lm.a, Sweep::Forward).levels);
            bwd.push(LevelSets::analyze(&lm.a, Sweep::Backward).levels);
        }
        // The device's values: the f32 and i32 the upload writes.
        let f32_bits = |v: &[f64]| v.iter().map(|&x| (x as f32).to_bits() as u64).collect();
        let i32_bits = |v: &[f64]| v.iter().map(|&x| x as i32 as u64).collect();
        (vec![f32_bits(&diag), f32_bits(&vals), i32_bits(&cols), i32_bits(&rptr)], fwd, bwd)
    }

    type Levels = Vec<Vec<Vec<usize>>>;

    fn assert_matches_oracle(a: Rc<CsrMatrix>, part: Partition) {
        let want = oracle_data(&a, &part);
        let mut ctx = DslCtx::new(IpuModel::tiny(part.num_parts()));
        let sys = DistSystem::build(&mut ctx, a, part);
        let f32_bits = |v: &[f32]| v.iter().map(|x| x.to_bits() as u64).collect();
        let i32_bits = |v: &[i32]| v.iter().map(|&x| x as u64).collect();
        let tensors = vec![
            f32_bits(&sys.diag_data),
            f32_bits(&sys.vals_data),
            i32_bits(&sys.cols_data),
            i32_bits(&sys.rptr_data),
        ];
        let got = (tensors, sys.fwd_levels.clone(), sys.bwd_levels.clone());
        assert_eq!(got, want);
        // The per-tile slices of the four tensors follow the local row counts.
        let (mut v0, mut r0) = (0, 0);
        for (t, vc) in sys.vec_chunks.iter().enumerate() {
            let nnz = sys.mat_nnz[t];
            assert_eq!(sys.mat_offsets[t], (r0 - t, v0, r0));
            assert_eq!(sys.rptr_data[r0 + vc.owned], nnz as i32);
            v0 += nnz;
            r0 += vc.owned + 1;
        }
        assert_eq!((v0, r0), (sys.vals_data.len(), sys.rptr_data.len()));
        // Every level vector is sized exactly.
        for l in sys.fwd_levels.iter().chain(&sys.bwd_levels).flatten() {
            assert_eq!(l.capacity(), l.len());
        }
    }

    /// A random SPD matrix under one of the three partition families, with
    /// some rows stripped to their diagonal and, optionally, one tile cut
    /// off from every other (no separator, no halo).
    fn arb_case() -> impl Strategy<Value = (CsrMatrix, Partition)> {
        let dims = (1usize..6, 1usize..6, 1usize..4);
        ((0usize..3, dims), 1usize..14, any::<u64>(), 0usize..4, any::<bool>()).prop_map(
            |((family, (nx, ny, nz)), parts, seed, diag_only_every, isolate)| {
                let n = nx * ny * nz;
                let a = sparse::gen::random_spd(n, 5, seed);
                let part = match family {
                    0 => Partition::contiguous(n, parts),
                    1 => Partition::balanced_by_nnz(&a, parts),
                    _ => {
                        let p = 1 + parts % 3;
                        let grid = Grid3 { nx, ny, nz };
                        Partition::grid_3d(grid, p.min(nx), p.min(ny), (parts % 2 + 1).min(nz))
                    }
                };
                let cut = (seed % part.num_parts() as u64) as u32;
                let stripped =
                    |i: usize| diag_only_every > 0 && i.is_multiple_of(diag_only_every + 2);
                let coupled = |i: usize, j: usize| (part.owner[i] == cut) == (part.owner[j] == cut);
                let mut coo = sparse::formats::CooMatrix::new(n, n);
                for i in 0..n {
                    let (cols, vals) = a.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        let j = c as usize;
                        if i == j || (!stripped(i) && (!isolate || coupled(i, j))) {
                            coo.push(i, j, v);
                        }
                    }
                }
                (coo.to_csr(), part)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn one_pass_build_matches_the_oracle(case in arb_case()) {
            let (a, part) = case;
            assert_matches_oracle(Rc::new(a), part);
        }
    }

    /// `a` stored as no constructor here stores it: every row reversed and,
    /// in every third row, each entry repeated at half its value (the
    /// diagonal too), so rows are unsorted and hold duplicate columns.
    fn non_canonical(a: &CsrMatrix) -> CsrMatrix {
        let mut row_ptr = vec![0];
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for i in 0..a.nrows {
            let (cols, vals) = a.row(i);
            let copies = if i % 3 == 0 { 2 } else { 1 };
            for copy in 0..copies {
                for (&c, &v) in cols.iter().zip(vals).rev() {
                    col_idx.push(c);
                    values.push(if copy == 0 { v } else { 0.5 * v });
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { row_ptr, col_idx, values, ..a.clone() }
    }

    #[test]
    fn one_pass_build_matches_the_oracle_on_corner_cases() {
        let spd = Rc::new(sparse::gen::random_spd(30, 5, 3));
        let wide = Rc::new(non_canonical(&sparse::gen::random_spd(40, 25, 5)));
        let cube = Rc::new(poisson_3d_7pt(6, 6, 6));
        let cases = [
            (spd.clone(), Partition::contiguous(30, 1)),
            (spd.clone(), Partition::contiguous(30, 45)),
            (spd.clone(), Partition::balanced_by_nnz(&spd, 40)),
            (Rc::new(CsrMatrix::identity(12)), Partition::contiguous(12, 4)),
            (cube.clone(), Partition::grid_3d(Grid3 { nx: 6, ny: 6, nz: 6 }, 3, 2, 2)),
            (cube.clone(), Partition::balanced_by_nnz(&cube, 16)),
            (Rc::new(non_canonical(&cube)), Partition::balanced_by_nnz(&cube, 9)),
            (wide, Partition::contiguous(40, 6)),
        ];
        for (a, part) in cases {
            assert_matches_oracle(a, part);
        }
    }
}
