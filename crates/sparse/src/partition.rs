//! Row-wise domain decomposition.
//!
//! The framework distributes the matrix row-wise across all tiles (§II-B).
//! Two families of partitions are provided: *contiguous* ranges balanced by
//! row count or by nnz (the general-matrix path), and *geometric box*
//! decompositions for matrices that come from structured grids (the
//! Poisson scaling study) — the latter minimise the surface-to-volume
//! ratio, which directly controls halo-exchange volume.

use crate::formats::CsrMatrix;
use crate::gen::Grid3;

/// An assignment of every matrix row to exactly one part (tile).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// `parts[p]` = sorted global row ids owned by part `p`. May be empty
    /// for over-decomposed small problems.
    pub parts: Vec<Vec<usize>>,
    /// `owner[row]` = part id.
    pub owner: Vec<u32>,
}

impl Partition {
    fn from_owner(owner: Vec<u32>, num_parts: usize) -> Self {
        let mut parts = vec![Vec::new(); num_parts];
        for (row, &p) in owner.iter().enumerate() {
            parts[p as usize].push(row);
        }
        Partition { parts, owner }
    }

    /// Equal-sized contiguous row blocks.
    pub fn contiguous(num_rows: usize, num_parts: usize) -> Self {
        assert!(num_parts > 0);
        let mut owner = vec![0u32; num_rows];
        for (row, o) in owner.iter_mut().enumerate() {
            // Distribute remainders evenly: part p owns rows
            // [p*n/P, (p+1)*n/P).
            *o = ((row * num_parts) / num_rows.max(1)) as u32;
        }
        Self::from_owner(owner, num_parts)
    }

    /// Contiguous row blocks balanced by nonzero count — the load balance
    /// that matters for SpMV, where per-row cost is proportional to nnz.
    ///
    /// Whenever `num_rows >= num_parts`, every part is guaranteed at least
    /// one row: if the accumulated nnz stalls below the next threshold
    /// (light head rows ahead of a heavy tail), advancement is forced once
    /// the remaining rows are only just enough to feed the remaining
    /// parts. Over-decomposed problems (`num_rows < num_parts`) still
    /// leave trailing parts empty, as documented on [`Partition::parts`].
    pub fn balanced_by_nnz(a: &CsrMatrix, num_parts: usize) -> Self {
        assert!(num_parts > 0);
        let total = a.nnz() as f64;
        let per_part = total / num_parts as f64;
        let mut owner = vec![0u32; a.nrows];
        let mut acc = 0.0;
        let mut part = 0u32;
        for (row, o) in owner.iter_mut().enumerate() {
            // Advance to the next part when this one has its share (the
            // `acc > 0` guard keeps all-zero matrices from starving part
            // 0), but never beyond the last part...
            let wants = acc > 0.0
                && acc >= per_part * (part as f64 + 1.0)
                && (part as usize) < num_parts - 1;
            // ...and advance unconditionally once the unassigned rows are
            // exactly enough to give each remaining part one row — the
            // guarantee the cap alone cannot provide.
            let parts_after = num_parts - 1 - part as usize;
            let must = a.nrows >= num_parts && a.nrows - row <= parts_after;
            if wants || must {
                part += 1;
            }
            *o = part;
            acc += a.row_nnz(row) as f64;
        }
        Self::from_owner(owner, num_parts)
    }

    /// Geometric box decomposition of a 3D grid into `px × py × pz`
    /// subdomains (must multiply to the part count you want).
    pub fn grid_3d(grid: Grid3, px: usize, py: usize, pz: usize) -> Self {
        assert!(px >= 1 && py >= 1 && pz >= 1);
        assert!(px <= grid.nx && py <= grid.ny && pz <= grid.nz, "more parts than cells per axis");
        let num_parts = px * py * pz;
        let mut owner = vec![0u32; grid.num_cells()];
        for (i, o) in owner.iter_mut().enumerate() {
            let (x, y, z) = grid.coords(i);
            let bx = x * px / grid.nx;
            let by = y * py / grid.ny;
            let bz = z * pz / grid.nz;
            *o = ((bz * py + by) * px + bx) as u32;
        }
        Self::from_owner(owner, num_parts)
    }

    /// Geometric box decomposition of a 2D grid.
    pub fn grid_2d(nx: usize, ny: usize, px: usize, py: usize) -> Self {
        Self::grid_3d(Grid3 { nx, ny, nz: 1 }, px, py, 1)
    }

    /// Pick a near-cubic factorisation of `num_parts` for `grid` and build
    /// the box decomposition. Falls back to slabs if the grid is too small
    /// along an axis.
    pub fn grid_3d_auto(grid: Grid3, num_parts: usize) -> Self {
        Self::try_grid_3d_auto(grid, num_parts).unwrap_or_else(|| {
            panic!("cannot factor {num_parts} parts into grid {}x{}x{}", grid.nx, grid.ny, grid.nz)
        })
    }

    /// [`Partition::grid_3d_auto`] returning `None` instead of panicking
    /// when `num_parts` has no factorisation bounded by the grid — the
    /// auto-tuner uses this to filter unfeasible geometric candidates.
    pub fn try_grid_3d_auto(grid: Grid3, num_parts: usize) -> Option<Self> {
        let (px, py, pz) = try_factor3(num_parts, grid.nx, grid.ny, grid.nz)?;
        Some(Self::grid_3d(grid, px, py, pz))
    }

    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    pub fn num_rows(&self) -> usize {
        self.owner.len()
    }

    #[inline]
    pub fn owner_of(&self, row: usize) -> usize {
        self.owner[row] as usize
    }

    pub fn rows_of(&self, part: usize) -> &[usize] {
        &self.parts[part]
    }

    /// Max part size / mean part size (1.0 = perfect row balance).
    pub fn row_imbalance(&self) -> f64 {
        let max = self.parts.iter().map(Vec::len).max().unwrap_or(0) as f64;
        let nonempty = self.parts.iter().filter(|p| !p.is_empty()).count().max(1);
        let mean = self.owner.len() as f64 / nonempty as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// nnz of the heaviest part / mean nnz per part.
    pub fn nnz_imbalance(&self, a: &CsrMatrix) -> f64 {
        let loads: Vec<usize> =
            self.parts.iter().map(|rows| rows.iter().map(|&r| a.row_nnz(r)).sum()).collect();
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let nonempty = loads.iter().filter(|&&l| l > 0).count().max(1);
        let mean = a.nnz() as f64 / nonempty as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Check internal consistency (each row in exactly one part, owners
    /// match).
    pub fn validate(&self) -> bool {
        let mut count = 0;
        for (p, rows) in self.parts.iter().enumerate() {
            let mut prev = None;
            for &r in rows {
                if self.owner.get(r).copied() != Some(p as u32) {
                    return false;
                }
                if prev.is_some_and(|q| q >= r) {
                    return false; // not sorted / duplicate
                }
                prev = Some(r);
                count += 1;
            }
        }
        count == self.owner.len()
    }
}

/// Factor `n` into three near-equal factors bounded by the grid
/// dimensions; `None` when no bounded factorisation exists.
fn try_factor3(n: usize, nx: usize, ny: usize, nz: usize) -> Option<(usize, usize, usize)> {
    let mut best = None;
    let mut best_score = f64::INFINITY;
    for px in 1..=n {
        if !n.is_multiple_of(px) || px > nx {
            continue;
        }
        let rest = n / px;
        for py in 1..=rest {
            if !rest.is_multiple_of(py) || py > ny {
                continue;
            }
            let pz = rest / py;
            if pz > nz {
                continue;
            }
            // Prefer near-cubic boxes: minimise the surface of the
            // *largest* box (ceil sides), which both favours cubic shapes
            // and penalises uneven splits — the BSP makespan is set by the
            // biggest box.
            let (sx, sy, sz) =
                (nx.div_ceil(px) as f64, ny.div_ceil(py) as f64, nz.div_ceil(pz) as f64);
            let score = sx * sy + sy * sz + sx * sz;
            if score < best_score {
                best_score = score;
                best = Some((px, py, pz));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{poisson_3d_7pt, tridiagonal};

    #[test]
    fn contiguous_covers_all_rows() {
        let p = Partition::contiguous(10, 3);
        assert!(p.validate());
        assert_eq!(p.num_parts(), 3);
        let sizes: Vec<usize> = p.parts.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)), "{sizes:?}");
        // Contiguity.
        for rows in &p.parts {
            for w in rows.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn contiguous_more_parts_than_rows() {
        let p = Partition::contiguous(2, 5);
        assert!(p.validate());
        assert_eq!(p.parts.iter().filter(|r| !r.is_empty()).count(), 2);
    }

    #[test]
    fn nnz_balance_beats_row_split_on_skewed_matrix() {
        // First rows dense, later rows sparse.
        let mut coo = crate::formats::CooMatrix::new(100, 100);
        for i in 0..100 {
            coo.push(i, i, 1.0);
            if i < 10 {
                for j in 0..50 {
                    if j != i {
                        coo.push(i, j, 0.1);
                    }
                }
            }
        }
        let a = coo.to_csr();
        let by_rows = Partition::contiguous(100, 4);
        let by_nnz = Partition::balanced_by_nnz(&a, 4);
        assert!(by_nnz.validate());
        assert!(by_nnz.nnz_imbalance(&a) < by_rows.nnz_imbalance(&a));
    }

    #[test]
    fn grid_3d_boxes_are_connected_and_balanced() {
        let grid = Grid3 { nx: 8, ny: 8, nz: 8 };
        let a = poisson_3d_7pt(8, 8, 8);
        let p = Partition::grid_3d(grid, 2, 2, 2);
        assert!(p.validate());
        assert_eq!(p.num_parts(), 8);
        assert!(p.row_imbalance() < 1.01);
        assert!(p.nnz_imbalance(&a) < 1.1);
        // Each box is 4x4x4 = 64 cells.
        assert!(p.parts.iter().all(|r| r.len() == 64));
    }

    #[test]
    fn grid_auto_factors_cube() {
        let grid = Grid3 { nx: 16, ny: 16, nz: 16 };
        let p = Partition::grid_3d_auto(grid, 8);
        assert_eq!(p.num_parts(), 8);
        assert!(p.validate());
        assert!(p.parts.iter().all(|r| r.len() == 512));
    }

    #[test]
    fn balanced_by_nnz_is_contiguous() {
        let a = tridiagonal(50);
        let p = Partition::balanced_by_nnz(&a, 7);
        assert!(p.validate());
        for rows in &p.parts {
            for w in rows.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot factor")]
    fn impossible_grid_factorisation_panics() {
        // 7 parts across a 2x2x2 grid cannot work (7 > 2 on every axis and
        // prime).
        Partition::grid_3d_auto(Grid3 { nx: 2, ny: 2, nz: 2 }, 7);
    }

    #[test]
    fn try_grid_auto_reports_feasibility() {
        assert!(Partition::try_grid_3d_auto(Grid3 { nx: 2, ny: 2, nz: 2 }, 7).is_none());
        let p = Partition::try_grid_3d_auto(Grid3 { nx: 4, ny: 4, nz: 4 }, 8).unwrap();
        assert_eq!(p.num_parts(), 8);
        assert!(p.validate());
    }

    /// Regression: a heavy row after a light head used to stall `acc`
    /// below every threshold, so the cap's "never leave later parts
    /// without rows" promise was broken — all trailing parts came back
    /// empty. Every part must get at least one row when
    /// `num_rows >= num_parts`.
    #[test]
    fn balanced_by_nnz_never_leaves_parts_empty() {
        // One dense row carrying ~97% of the nnz; every other row a lone
        // diagonal. Placing the heavy row last starves the accumulator.
        let build = |heavy_row: usize, n: usize| {
            let mut coo = crate::formats::CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 1.0);
            }
            for j in 0..n {
                if j != heavy_row {
                    coo.push(heavy_row, j, 0.5);
                }
            }
            coo.to_csr()
        };
        for n in [4usize, 8, 17] {
            for heavy_row in [0, n / 2, n - 1] {
                let a = build(heavy_row, n);
                for parts in 1..=n {
                    let p = Partition::balanced_by_nnz(&a, parts);
                    assert!(p.validate());
                    assert!(
                        p.parts.iter().all(|rows| !rows.is_empty()),
                        "empty part: n={n} heavy_row={heavy_row} parts={parts} sizes={:?}",
                        p.parts.iter().map(Vec::len).collect::<Vec<_>>()
                    );
                }
            }
        }
        // All-zero-structure edge (nnz = 0 everywhere is impossible in
        // CSR-with-diagonal workloads, but the identity-free case must
        // still cover every part).
        let empty = crate::formats::CooMatrix::new(5, 5).to_csr();
        let p = Partition::balanced_by_nnz(&empty, 5);
        assert!(p.validate());
        assert!(p.parts.iter().all(|rows| rows.len() == 1));
    }

    #[test]
    fn balanced_by_nnz_overdecomposed_stays_supported() {
        let a = tridiagonal(3);
        let p = Partition::balanced_by_nnz(&a, 8);
        assert!(p.validate());
        assert_eq!(p.parts.iter().filter(|r| !r.is_empty()).count(), 3);
    }
}
