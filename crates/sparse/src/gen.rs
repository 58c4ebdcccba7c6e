//! Deterministic problem generators.
//!
//! The paper's evaluation (§VI-A) uses two matrix sources: discretisations
//! of the Poisson equation on regular 3D grids with a 7-point stencil (for
//! the scaling study), and four SPD matrices from the SuiteSparse
//! collection (for the solver benchmarks). The Poisson generators here are
//! exact reproductions; the SuiteSparse matrices are not redistributable or
//! downloadable in this environment, so [`suitesparse`] provides synthetic
//! *analogues* that match the documented statistics (rows, nnz/row,
//! symmetry, positive-definiteness, conditioning class) at a configurable
//! scale — see that module's docs for the per-matrix substitution record.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::formats::{CooMatrix, CsrMatrix};

/// A regular 3D grid and its row numbering, kept alongside the matrix so
/// partitioners can do geometric (box) decompositions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl Grid3 {
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.ny + y) * self.nx + x
    }

    #[inline]
    pub fn coords(&self, i: usize) -> (usize, usize, usize) {
        let x = i % self.nx;
        let y = (i / self.nx) % self.ny;
        let z = i / (self.nx * self.ny);
        (x, y, z)
    }

    pub fn num_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// 7-point finite-difference discretisation of −Δu on an
/// `nx × ny × nz` grid with Dirichlet boundaries: diagonal 6, neighbours −1.
/// SPD; the scaling-study workload of the paper (Figs 5, 6).
pub fn poisson_3d_7pt(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let g = Grid3 { nx, ny, nz };
    let n = g.num_cells();
    let mut coo = CooMatrix::new(n, n);
    coo.entries.reserve(7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = g.index(x, y, z);
                coo.push(i, i, 6.0);
                if x > 0 {
                    coo.push(i, g.index(x - 1, y, z), -1.0);
                }
                if x + 1 < nx {
                    coo.push(i, g.index(x + 1, y, z), -1.0);
                }
                if y > 0 {
                    coo.push(i, g.index(x, y - 1, z), -1.0);
                }
                if y + 1 < ny {
                    coo.push(i, g.index(x, y + 1, z), -1.0);
                }
                if z > 0 {
                    coo.push(i, g.index(x, y, z - 1), -1.0);
                }
                if z + 1 < nz {
                    coo.push(i, g.index(x, y, z + 1), -1.0);
                }
            }
        }
    }
    coo.into_csr()
}

/// 5-point discretisation of an anisotropic Laplacian
/// −(∂²/∂x² + eps ∂²/∂y²) on an `nx × ny` grid, Dirichlet boundaries.
/// `eps = 1` is the standard Poisson problem; `eps ≫ 1` or `≪ 1` raises the
/// condition number (used by the shell-structure analogue).
pub fn poisson_2d_5pt(nx: usize, ny: usize, eps: f64) -> CsrMatrix {
    let n = nx * ny;
    let idx = |x: usize, y: usize| y * nx + x;
    let mut coo = CooMatrix::new(n, n);
    coo.entries.reserve(5 * n);
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            coo.push(i, i, 2.0 + 2.0 * eps);
            if x > 0 {
                coo.push(i, idx(x - 1, y), -1.0);
            }
            if x + 1 < nx {
                coo.push(i, idx(x + 1, y), -1.0);
            }
            if y > 0 {
                coo.push(i, idx(x, y - 1), -eps);
            }
            if y + 1 < ny {
                coo.push(i, idx(x, y + 1), -eps);
            }
        }
    }
    coo.into_csr()
}

/// Heterogeneous-coefficient 7-point Poisson: each cell gets a conductivity
/// `k = contrast^u` with `u ~ U(-1, 1)`; face weights are harmonic means.
/// Dirichlet boundaries keep it SPD. Larger `contrast` raises the condition
/// number — the knob used to match the conditioning class of the paper's
/// geomechanics matrices.
pub fn heterogeneous_poisson_3d(
    nx: usize,
    ny: usize,
    nz: usize,
    contrast: f64,
    seed: u64,
) -> CsrMatrix {
    assert!(contrast >= 1.0);
    let g = Grid3 { nx, ny, nz };
    let n = g.num_cells();
    let mut rng = SmallRng::seed_from_u64(seed);
    let k: Vec<f64> = (0..n).map(|_| contrast.powf(rng.gen_range(-1.0..1.0))).collect();
    let w = |i: usize, j: usize| 2.0 * k[i] * k[j] / (k[i] + k[j]);

    let mut coo = CooMatrix::new(n, n);
    coo.entries.reserve(7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = g.index(x, y, z);
                let mut diag = 0.0;
                let mut neighbour = |j: usize, coo: &mut CooMatrix| {
                    let wij = w(i, j);
                    coo.push(i, j, -wij);
                    diag += wij;
                };
                if x > 0 {
                    neighbour(g.index(x - 1, y, z), &mut coo);
                }
                if x + 1 < nx {
                    neighbour(g.index(x + 1, y, z), &mut coo);
                }
                if y > 0 {
                    neighbour(g.index(x, y - 1, z), &mut coo);
                }
                if y + 1 < ny {
                    neighbour(g.index(x, y + 1, z), &mut coo);
                }
                if z > 0 {
                    neighbour(g.index(x, y, z - 1), &mut coo);
                }
                if z + 1 < nz {
                    neighbour(g.index(x, y, z + 1), &mut coo);
                }
                // Dirichlet: boundary faces contribute their own k to the
                // diagonal, keeping the matrix nonsingular.
                let missing = 6
                    - ((x > 0) as usize
                        + (x + 1 < nx) as usize
                        + (y > 0) as usize
                        + (y + 1 < ny) as usize
                        + (z > 0) as usize
                        + (z + 1 < nz) as usize);
                diag += missing as f64 * k[i];
                coo.push(i, i, diag);
            }
        }
    }
    coo.into_csr()
}

/// SPD tridiagonal matrix (1D Poisson): diag 2, off-diagonals −1.
pub fn tridiagonal(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0);
        if i > 0 {
            coo.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
        }
    }
    coo.into_csr()
}

/// Random symmetric diagonally-dominant (hence SPD) matrix with roughly
/// `nnz_per_row` entries per row. Used by property tests.
pub fn random_spd(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    let mut row_sums = vec![0.0f64; n];
    // A 1x1 matrix has no valid off-diagonal target; redrawing would spin
    // forever.
    let offdiag_each = if n < 2 { 0 } else { nnz_per_row.saturating_sub(1) / 2 };
    for i in 0..n {
        for _ in 0..offdiag_each {
            // Redraw on the diagonal instead of skipping: a skip silently
            // drops the row below its nnz budget. Duplicate (i, j) draws
            // are allowed — `CooMatrix::to_csr` sums duplicates, and
            // `row_sums` accumulates |v| per draw, which upper-bounds the
            // merged |Σv|, so strict dominance survives the merge.
            let mut j = rng.gen_range(0..n);
            while j == i {
                j = rng.gen_range(0..n);
            }
            let v = rng.gen_range(-1.0..1.0);
            coo.push(i, j, v);
            coo.push(j, i, v);
            row_sums[i] += v.abs();
            row_sums[j] += v.abs();
        }
    }
    for (i, sum) in row_sums.iter().enumerate() {
        // Strict diagonal dominance with margin.
        coo.push(i, i, sum + 1.0 + rng.gen_range(0.0..0.5));
    }
    coo.into_csr()
}

/// Kronecker product `A ⊗ B`. If both factors are SPD the product is SPD;
/// used to expand scalar stencils into multi-DOF "block" matrices the way
/// structural problems (shells, elasticity) couple displacement components.
pub fn kron(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let n = a.nrows * b.nrows;
    let m = a.ncols * b.ncols;
    let mut coo = CooMatrix::new(n, m);
    coo.entries.reserve(a.nnz() * b.nnz());
    for ia in 0..a.nrows {
        let (acols, avals) = a.row(ia);
        for ib in 0..b.nrows {
            let (bcols, bvals) = b.row(ib);
            let row = ia * b.nrows + ib;
            for (ja, va) in acols.iter().zip(avals) {
                for (jb, vb) in bcols.iter().zip(bvals) {
                    let col = *ja as usize * b.ncols + *jb as usize;
                    coo.push(row, col, va * vb);
                }
            }
        }
    }
    coo.into_csr()
}

/// A small dense SPD matrix for block expansion: `I + c·(ones)` with unit
/// diagonal boost — eigenvalues 1 and 1 + c·b, SPD for c > 0.
pub fn dense_spd_block(b: usize, c: f64) -> CsrMatrix {
    let mut coo = CooMatrix::new(b, b);
    for i in 0..b {
        for j in 0..b {
            let v = if i == j { 1.0 + c } else { c };
            coo.push(i, j, v);
        }
    }
    coo.into_csr()
}

/// Deterministic right-hand side: `b = A·x*` for the all-ones solution, so
/// the solver's true error is measurable.
pub fn rhs_for_ones(a: &CsrMatrix) -> Vec<f64> {
    a.spmv_alloc(&vec![1.0; a.ncols])
}

/// Deterministic pseudo-random vector in [-1, 1).
pub fn random_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

pub mod suitesparse;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_3d_shape_and_symmetry() {
        let a = poisson_3d_7pt(4, 3, 2);
        assert_eq!(a.nrows, 24);
        assert!(a.is_symmetric(0.0));
        assert!(a.has_full_nonzero_diagonal());
        // Interior cell has 7 entries; corner has 4.
        assert_eq!(a.row_nnz(0), 4);
        // nnz = 7n - 2(boundary faces) ... check against direct count.
        let expect = 24 * 7 - 2 * (3 * 2/*x faces*/ + 4 * 2/*y faces*/ + 4 * 3/*z faces*/);
        assert_eq!(a.nnz(), expect);
    }

    #[test]
    fn poisson_row_sums_vanish_in_interior() {
        let a = poisson_3d_7pt(5, 5, 5);
        let g = Grid3 { nx: 5, ny: 5, nz: 5 };
        let i = g.index(2, 2, 2);
        let (_, vals) = a.row(i);
        assert_eq!(vals.iter().sum::<f64>(), 0.0);
        assert_eq!(vals.len(), 7);
    }

    #[test]
    fn grid3_index_roundtrip() {
        let g = Grid3 { nx: 4, ny: 5, nz: 6 };
        for i in 0..g.num_cells() {
            let (x, y, z) = g.coords(i);
            assert_eq!(g.index(x, y, z), i);
        }
    }

    #[test]
    fn poisson_2d_anisotropy() {
        let a = poisson_2d_5pt(4, 4, 100.0);
        assert!(a.is_symmetric(0.0));
        assert_eq!(a.get(5, 5), 2.0 + 200.0);
        assert_eq!(a.get(5, 6), -1.0); // x-neighbour
        assert_eq!(a.get(5, 9), -100.0); // y-neighbour
    }

    #[test]
    fn heterogeneous_poisson_is_spd_shaped() {
        let a = heterogeneous_poisson_3d(4, 4, 4, 1000.0, 42);
        assert!(a.is_symmetric(1e-12));
        assert!(a.has_full_nonzero_diagonal());
        // Weak diagonal dominance with Dirichlet margin at boundaries.
        for i in 0..a.nrows {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                if *c as usize == i {
                    diag = *v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag >= off - 1e-9, "row {i}: diag {diag} < offsum {off}");
        }
    }

    #[test]
    fn heterogeneous_poisson_deterministic() {
        let a = heterogeneous_poisson_3d(3, 3, 3, 10.0, 7);
        let b = heterogeneous_poisson_3d(3, 3, 3, 10.0, 7);
        assert_eq!(a, b);
        let c = heterogeneous_poisson_3d(3, 3, 3, 10.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_spd_is_symmetric_dominant() {
        let a = random_spd(50, 7, 123);
        assert!(a.is_symmetric(1e-12));
        for i in 0..a.nrows {
            let (cols, vals) = a.row(i);
            let diag = a.get(i, i);
            let off: f64 = cols
                .iter()
                .zip(vals)
                .filter(|(c, _)| **c as usize != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(diag > off, "row {i}");
        }
    }

    #[test]
    fn random_spd_nnz_bounds_pinned() {
        // Regression: a diagonal draw used to be *skipped*, silently
        // shrinking rows below the requested budget. With redraws, every
        // row makes exactly `offdiag_each` symmetric draw pairs, so the
        // structural nnz is n (diagonal) + 2·n·offdiag_each draws minus
        // whatever duplicate (i, j) draws merged in `to_csr`.
        for seed in 0..50 {
            // n = 2 forces every off-diagonal draw onto the single valid
            // target, the worst case for both old bugs: j == i draws are
            // frequent and every repeated draw is a duplicate.
            let a = random_spd(2, 3, seed);
            assert_eq!(a.nnz(), 4, "seed {seed}: 2 diag + 1 merged pair each side");
            assert!(a.is_symmetric(1e-12));

            let n = 30;
            let nnz_per_row = 5;
            let offdiag_each = (nnz_per_row - 1) / 2;
            let a = random_spd(n, nnz_per_row, seed);
            // Lower bound: the diagonal plus at least one merged entry
            // pair per row's draws. Upper bound: nothing merged at all.
            assert!(a.nnz() > n, "seed {seed}: off-diagonals present");
            assert!(
                a.nnz() <= n + 2 * n * offdiag_each,
                "seed {seed}: nnz {} above the duplicate-free maximum",
                a.nnz()
            );
            // No self-entry draw may survive as a dropped slot: every row
            // has its diagonal plus at least one off-diagonal entry.
            for i in 0..n {
                assert!(a.get(i, i) != 0.0, "seed {seed}: row {i} diagonal");
                assert!(a.row_nnz(i) >= 2, "seed {seed}: row {i} lost its draws");
            }
            assert!(a.is_symmetric(1e-12));
        }
        // Degenerate sizes terminate (the redraw loop must not spin).
        assert_eq!(random_spd(1, 5, 7).nnz(), 1);
        assert_eq!(random_spd(0, 5, 7).nnz(), 0);
    }

    #[test]
    fn kron_matches_definition() {
        let a = tridiagonal(2); // [[2,-1],[-1,2]]
        let b = dense_spd_block(2, 0.5);
        let k = kron(&a, &b);
        assert_eq!(k.nrows, 4);
        // k[0][0] = a[0][0] * b[0][0] = 2 * 1.5
        assert_eq!(k.get(0, 0), 3.0);
        // k[0][2] = a[0][1] * b[0][0] = -1 * 1.5
        assert_eq!(k.get(0, 2), -1.5);
        // k[1][2] = a[0][1]*b[1][0] = -0.5
        assert_eq!(k.get(1, 2), -0.5);
        assert!(k.is_symmetric(1e-15));
    }

    #[test]
    fn rhs_for_ones_solves_back() {
        let a = tridiagonal(5);
        let b = rhs_for_ones(&a);
        // A * 1 = b by construction.
        assert_eq!(b, a.spmv_alloc(&[1.0; 5]));
        // First row: 2 - 1 = 1.
        assert_eq!(b[0], 1.0);
        // Interior: 2 - 1 - 1 = 0.
        assert_eq!(b[2], 0.0);
    }
}
