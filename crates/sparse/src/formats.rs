//! Sparse matrix storage formats.
//!
//! `CsrMatrix` is the standard three-array Compressed Row Storage format.
//! `ModifiedCsr` is the paper's variant (§II-C): diagonal entries live in a
//! separate dense array instead of inside the CSR structure, saving their
//! column indices and giving solvers O(1) access to each row's pivot.
//! `CooMatrix` is the assembly/interchange format.
//!
//! Host-side values are `f64` (full precision for assembly and reference
//! computations); conversion to device precision happens at upload.

use std::fmt;

/// Coordinate-format matrix used for assembly and IO.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CooMatrix {
    pub nrows: usize,
    pub ncols: usize,
    /// (row, col, value) triplets, in any order; duplicates are summed on
    /// conversion to CSR.
    pub entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix { nrows, ncols, entries: Vec::new() }
    }

    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.entries.push((row as u32, col as u32, value));
    }

    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Convert to CSR, summing duplicate coordinates and dropping explicit
    /// zeros produced by the summation.
    pub fn to_csr(&self) -> CsrMatrix {
        self.clone().into_csr()
    }

    /// [`CooMatrix::to_csr`], sorting the triplets in place instead of a
    /// copy of them.
    pub fn into_csr(self) -> CsrMatrix {
        let mut entries = self.entries;
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        row_ptr.push(0);

        let mut current_row = 0u32;
        let mut i = 0;
        while i < entries.len() {
            let (r, c, _) = entries[i];
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            // Sum duplicates.
            let mut v = 0.0;
            let mut j = i;
            while j < entries.len() && entries[j].0 == r && entries[j].1 == c {
                v += entries[j].2;
                j += 1;
            }
            col_idx.push(c);
            values.push(v);
            i = j;
        }
        while row_ptr.len() <= self.nrows {
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { nrows: self.nrows, ncols: self.ncols, row_ptr, col_idx, values }
    }
}

/// Compressed Row Storage (CSR/CRS) matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CsrMatrix {
    pub nrows: usize,
    pub ncols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row i's entries; length nrows+1.
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<u32>,
    pub values: Vec<f64>,
}

impl CsrMatrix {
    /// An identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of one row.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Number of entries in a row.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Entry (i, j), or 0 if not stored. Binary search within the row
    /// (rows are sorted by column).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Reference SpMV: `y = A * x` in f64.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c as usize];
            }
            *yi = acc;
        }
    }

    /// `y = A * x`, allocating the result.
    pub fn spmv_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// Structural + numerical symmetry check (within `tol` relative).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                let vt = self.get(*c as usize, i);
                let scale = v.abs().max(vt.abs()).max(1e-300);
                if (v - vt).abs() / scale > tol {
                    return false;
                }
            }
        }
        true
    }

    /// The dense diagonal (0.0 where a diagonal entry is missing).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Whether every diagonal entry exists and is nonzero — a prerequisite
    /// for the modified CSR format and for Gauss-Seidel/ILU.
    pub fn has_full_nonzero_diagonal(&self) -> bool {
        self.nrows == self.ncols && self.diagonal().iter().all(|&d| d != 0.0)
    }

    /// Transpose (CSR -> CSR of Aᵀ).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.col_idx {
            counts[c as usize] += 1;
        }
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for i in 0..self.ncols {
            row_ptr[i + 1] = row_ptr[i] + counts[i];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = row_ptr.clone();
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                let dst = next[*c as usize];
                col_idx[dst] = i as u32;
                values[dst] = *v;
                next[*c as usize] += 1;
            }
        }
        CsrMatrix { nrows: self.ncols, ncols: self.nrows, row_ptr, col_idx, values }
    }

    /// Extract the submatrix of `rows` with columns renumbered by `col_map`
    /// (global column -> local column, `u32::MAX` = dropped).
    pub fn extract(&self, rows: &[usize], col_map: &[u32]) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for &r in rows {
            let (cols, vals) = self.row(r);
            let mut entries: Vec<(u32, f64)> = cols
                .iter()
                .zip(vals)
                .filter_map(|(c, v)| {
                    let lc = col_map[*c as usize];
                    (lc != u32::MAX).then_some((lc, *v))
                })
                .collect();
            entries.sort_unstable_by_key(|e| e.0);
            for (c, v) in entries {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let ncols = col_map.iter().filter(|&&c| c != u32::MAX).count();
        CsrMatrix { nrows: rows.len(), ncols, row_ptr, col_idx, values }
    }

    /// Convert to the paper's modified CSR format. Requires a full nonzero
    /// diagonal.
    pub fn to_modified(&self) -> ModifiedCsr {
        assert!(
            self.has_full_nonzero_diagonal(),
            "modified CSR requires a full nonzero diagonal (apply a row permutation first)"
        );
        let n = self.nrows;
        let mut diag = vec![0.0; n];
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for (i, d) in diag.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                if *c as usize == i {
                    *d = *v;
                } else {
                    col_idx.push(*c);
                    values.push(*v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        ModifiedCsr { nrows: n, ncols: self.ncols, diag, row_ptr, col_idx, values }
    }

    /// Apply a symmetric permutation: `B[i][j] = A[perm[i]][perm[j]]`
    /// (i.e. `perm` maps new index -> old index).
    pub fn permute_symmetric(&self, perm: &[usize]) -> CsrMatrix {
        assert_eq!(self.nrows, self.ncols);
        assert_eq!(perm.len(), self.nrows);
        let mut inv = vec![0u32; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new as u32;
        }
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for (new_row, &old_row) in perm.iter().enumerate() {
            let (cols, vals) = self.row(old_row);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(new_row, inv[*c as usize] as usize, *v);
            }
        }
        coo.into_csr()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CsrMatrix {}x{} ({} nnz)", self.nrows, self.ncols, self.nnz())
    }
}

/// The paper's modified CSR: off-diagonal CSR + dense diagonal array.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModifiedCsr {
    pub nrows: usize,
    pub ncols: usize,
    /// Dense diagonal, length nrows.
    pub diag: Vec<f64>,
    /// CSR of the off-diagonal entries only.
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<u32>,
    pub values: Vec<f64>,
}

impl ModifiedCsr {
    /// Off-diagonal entries of one row.
    #[inline]
    pub fn off_diag_row(&self, i: usize) -> (&[u32], &[f64]) {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Total stored entries (off-diagonals + diagonal).
    pub fn nnz(&self) -> usize {
        self.values.len() + self.nrows
    }

    /// Memory footprint in bytes with f32 values and u32 indices (device
    /// layout) — demonstrates the format's saving over plain CSR.
    pub fn device_bytes(&self) -> usize {
        // diag f32 + offdiag f32 + col idx u32 + row ptr u32
        4 * self.diag.len()
            + 4 * self.values.len()
            + 4 * self.col_idx.len()
            + 4 * self.row_ptr.len()
    }

    /// Reference SpMV `y = A x` including the diagonal.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..self.nrows {
            let (cols, vals) = self.off_diag_row(i);
            let mut acc = self.diag[i] * x[i];
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c as usize];
            }
            y[i] = acc;
        }
    }

    /// Reconstruct a plain CSR (for testing / export).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for i in 0..self.nrows {
            coo.push(i, i, self.diag[i]);
            let (cols, vals) = self.off_diag_row(i);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(i, *c as usize, *v);
            }
        }
        coo.into_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3x3 test matrix:
    /// [ 4 -1  0]
    /// [-1  4 -1]
    /// [ 0 -1  4]
    fn tridiag3() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i < 2 {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn coo_to_csr_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 5.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.get(0, 1), 0.0);
    }

    #[test]
    fn csr_handles_empty_rows() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(3, 3, 2.0);
        let csr = coo.to_csr();
        assert_eq!(csr.row_nnz(1), 0);
        assert_eq!(csr.row_nnz(2), 0);
        assert_eq!(csr.get(3, 3), 2.0);
        assert_eq!(csr.row_ptr.len(), 5);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = tridiag3();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.spmv_alloc(&x);
        assert_eq!(y, vec![4.0 - 2.0, -1.0 + 8.0 - 3.0, -2.0 + 12.0]);
    }

    #[test]
    fn symmetry_detection() {
        assert!(tridiag3().is_symmetric(1e-12));
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        assert!(!coo.to_csr().is_symmetric(1e-12));
    }

    #[test]
    fn transpose_involution() {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 1, 2.0);
        coo.push(2, 0, -1.0);
        coo.push(1, 3, 5.0);
        let a = coo.to_csr();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        assert_eq!(a.transpose().get(1, 0), 2.0);
    }

    #[test]
    fn modified_csr_roundtrip_and_spmv() {
        let a = tridiag3();
        let m = a.to_modified();
        assert_eq!(m.diag, vec![4.0, 4.0, 4.0]);
        assert_eq!(m.values.len(), 4); // 4 off-diagonal entries
        assert_eq!(m.to_csr(), a);
        let x = vec![1.0, -1.0, 0.5];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        a.spmv(&x, &mut y1);
        m.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn modified_csr_saves_memory() {
        let a = tridiag3();
        let m = a.to_modified();
        // Plain CSR device bytes: values f32 + col u32 per nnz + row_ptr.
        let plain = 8 * a.nnz() + 4 * (a.nrows + 1);
        assert!(m.device_bytes() < plain);
    }

    #[test]
    #[should_panic(expected = "nonzero diagonal")]
    fn modified_csr_requires_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.to_csr().to_modified();
    }

    #[test]
    fn symmetric_permutation_preserves_spmv() {
        let a = tridiag3();
        let perm = vec![2, 0, 1]; // new -> old
        let b = a.permute_symmetric(&perm);
        // B x' where x'[new] = x[perm[new]] must equal (A x) permuted.
        let x = vec![1.0, 2.0, 3.0];
        let xp: Vec<f64> = perm.iter().map(|&o| x[o]).collect();
        let y = a.spmv_alloc(&x);
        let yp = b.spmv_alloc(&xp);
        for (new, &old) in perm.iter().enumerate() {
            assert!((yp[new] - y[old]).abs() < 1e-14);
        }
    }

    #[test]
    fn extract_renumbers_columns() {
        let a = tridiag3();
        // Take rows {1, 2}, map columns 1->0, 2->1, drop column 0.
        let mut col_map = vec![u32::MAX; 3];
        col_map[1] = 0;
        col_map[2] = 1;
        let sub = a.extract(&[1, 2], &col_map);
        assert_eq!(sub.nrows, 2);
        assert_eq!(sub.ncols, 2);
        assert_eq!(sub.get(0, 0), 4.0); // A[1][1]
        assert_eq!(sub.get(0, 1), -1.0); // A[1][2]
        assert_eq!(sub.get(1, 0), -1.0); // A[2][1]
        assert_eq!(sub.get(1, 1), 4.0); // A[2][2]
    }

    #[test]
    fn identity_spmv_is_identity() {
        let i = CsrMatrix::identity(5);
        let x: Vec<f64> = (0..5).map(|v| v as f64).collect();
        assert_eq!(i.spmv_alloc(&x), x);
        assert!(i.has_full_nonzero_diagonal());
    }
}
