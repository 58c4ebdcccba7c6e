//! Property-based sparse-matrix generators.
//!
//! All generators are deterministic functions of their `seed` (they draw
//! from the proptest shim's [`TestRng`]), so every failure reproduces
//! exactly. Structural invariants the rest of the suite relies on:
//!
//! * [`spd_dominant`] — symmetric and strictly diagonally dominant with a
//!   positive diagonal, hence SPD by Gershgorin;
//! * [`nonsym_dominant`] — strictly (row-)diagonally dominant but *not*
//!   symmetric, hence nonsingular but outside CG territory;
//! * [`banded_dominant`] — nonsymmetric entries confined to a band,
//!   strictly diagonally dominant;
//! * [`random_symmetric`] / [`random_skew`] — dense-pattern-free matrices
//!   with exact (skew-)symmetry for MatrixMarket round-trip properties.
//!
//! The differential suite's fixed matrix families live in
//! [`solver_families`].

use std::rc::Rc;

use proptest::TestRng;
use sparse::formats::{CooMatrix, CsrMatrix};
use sparse::gen::{poisson_2d_5pt, random_spd, tridiagonal};

/// A named test matrix plus the properties the differential runner needs
/// to know about it.
pub struct Family {
    pub name: &'static str,
    /// Symmetric positive definite (safe for CG / Chebyshev).
    pub spd: bool,
    pub a: Rc<CsrMatrix>,
}

/// Uniform value in [-1, 1).
fn sym_unit(rng: &mut TestRng) -> f64 {
    2.0 * rng.unit_f64() - 1.0
}

/// Pick `extras` distinct off-diagonal columns for row `i`.
fn pick_cols(rng: &mut TestRng, n: usize, i: usize, extras: usize) -> Vec<usize> {
    let mut cols = Vec::with_capacity(extras);
    let mut guard = 0;
    while cols.len() < extras && guard < 16 * extras + 16 {
        guard += 1;
        let j = rng.below(n);
        if j != i && !cols.contains(&j) {
            cols.push(j);
        }
    }
    cols
}

/// Symmetric, strictly diagonally dominant, positive diagonal ⇒ SPD.
///
/// Roughly `extras_per_row` off-diagonal pairs per row with values in
/// [-1, 1); the diagonal is the full row off-diagonal mass plus
/// `1 + unit` slack.
pub fn spd_dominant(n: usize, extras_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x5bd1_e995);
    let mut off = vec![Vec::<(usize, f64)>::new(); n];
    for i in 0..n {
        for j in pick_cols(&mut rng, n, i, extras_per_row) {
            // Insert symmetrically; skip if the mirror already exists so
            // the pattern stays duplicate-free.
            if off[i].iter().any(|&(c, _)| c == j) {
                continue;
            }
            let v = sym_unit(&mut rng);
            off[i].push((j, v));
            off[j].push((i, v));
        }
    }
    let mut coo = CooMatrix::new(n, n);
    for (i, row) in off.iter().enumerate() {
        let row_mass: f64 = row.iter().map(|&(_, v)| v.abs()).sum();
        coo.push(i, i, row_mass + 1.0 + rng.unit_f64());
        for &(j, v) in row {
            coo.push(i, j, v);
        }
    }
    coo.to_csr()
}

/// Strictly row-diagonally dominant with an asymmetric pattern.
pub fn nonsym_dominant(n: usize, extras_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let cols = pick_cols(&mut rng, n, i, extras_per_row);
        let mut row_mass = 0.0;
        let mut entries = Vec::with_capacity(cols.len());
        for j in cols {
            let v = sym_unit(&mut rng);
            row_mass += v.abs();
            entries.push((j, v));
        }
        coo.push(i, i, row_mass + 1.0 + rng.unit_f64());
        for (j, v) in entries {
            coo.push(i, j, v);
        }
    }
    coo.to_csr()
}

/// Nonsymmetric entries confined to `|i − j| ≤ bandwidth`, strictly
/// diagonally dominant.
pub fn banded_dominant(n: usize, bandwidth: usize, seed: u64) -> CsrMatrix {
    assert!(bandwidth >= 1);
    let mut rng = TestRng::seed_from_u64(seed ^ 0x85eb_ca6b);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let lo = i.saturating_sub(bandwidth);
        let hi = (i + bandwidth).min(n - 1);
        let mut row_mass = 0.0;
        let mut entries = Vec::new();
        for j in lo..=hi {
            if j == i || rng.unit_f64() < 0.35 {
                continue; // keep some holes in the band
            }
            let v = sym_unit(&mut rng);
            row_mass += v.abs();
            entries.push((j, v));
        }
        coo.push(i, i, row_mass + 1.0 + rng.unit_f64());
        for (j, v) in entries {
            coo.push(i, j, v);
        }
    }
    coo.to_csr()
}

/// Random rectangular matrix with a duplicate-free pattern (for
/// MatrixMarket round-trip properties).
pub fn random_general(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let mut rng = TestRng::seed_from_u64(seed ^ 0xc2b2_ae35);
    let mut seen = std::collections::HashSet::new();
    let mut coo = CooMatrix::new(nrows, ncols);
    let mut guard = 0;
    while coo.nnz() < nnz && guard < 32 * nnz + 32 {
        guard += 1;
        let (i, j) = (rng.below(nrows), rng.below(ncols));
        if seen.insert((i, j)) {
            // Avoid exact zeros: a stored zero does not survive CSR
            // round-trips through code that prunes explicit zeros.
            coo.push(i, j, sym_unit(&mut rng) + 2.0);
        }
    }
    coo.to_csr()
}

/// Exactly symmetric square matrix (both triangles stored).
pub fn random_symmetric(n: usize, extras_per_row: usize, seed: u64) -> CsrMatrix {
    spd_dominant(n, extras_per_row, seed)
}

/// Exactly skew-symmetric square matrix: `a[j][i] = -a[i][j]`, zero
/// diagonal (not stored).
pub fn random_skew(n: usize, extras_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x27d4_eb2f);
    let mut off = vec![Vec::<(usize, f64)>::new(); n];
    for i in 0..n {
        for j in pick_cols(&mut rng, n, i, extras_per_row) {
            if off[i].iter().any(|&(c, _)| c == j) {
                continue;
            }
            let v = sym_unit(&mut rng) + 2.0; // nonzero
            let (lo, hi) = if i > j { (j, i) } else { (i, j) };
            // a[hi][lo] = v (strict lower), a[lo][hi] = -v.
            off[hi].push((lo, v));
            off[lo].push((hi, -v));
        }
    }
    let mut coo = CooMatrix::new(n, n);
    for (i, row) in off.iter().enumerate() {
        for &(j, v) in row {
            coo.push(i, j, v);
        }
    }
    coo.to_csr()
}

/// Random right-hand side with entries in [-1, 1).
pub fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x1656_67b1);
    (0..n).map(|_| sym_unit(&mut rng)).collect()
}

/// The fixed matrix families the differential suite runs every solver
/// configuration against. Small on purpose: each entry is solved by a
/// dozen configurations on the simulated device under `cargo test`.
pub fn solver_families() -> Vec<Family> {
    vec![
        Family { name: "poisson2d", spd: true, a: Rc::new(poisson_2d_5pt(8, 8, 1.0)) },
        Family { name: "tridiag", spd: true, a: Rc::new(tridiagonal(48)) },
        Family { name: "random_spd", spd: true, a: Rc::new(random_spd(40, 4, 11)) },
        Family { name: "spd_dd", spd: true, a: Rc::new(spd_dominant(36, 3, 21)) },
        Family { name: "nonsym_dd", spd: false, a: Rc::new(nonsym_dominant(48, 3, 7)) },
        Family { name: "banded_dd", spd: false, a: Rc::new(banded_dominant(40, 3, 5)) },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spd_dominant_is_symmetric_and_dominant() {
        let a = spd_dominant(30, 4, 42);
        assert!(a.is_symmetric(0.0));
        for i in 0..a.nrows {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut mass = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                if *c as usize == i {
                    diag = *v;
                } else {
                    mass += v.abs();
                }
            }
            assert!(diag > mass, "row {i} not dominant: {diag} vs {mass}");
        }
    }

    #[test]
    fn nonsym_dominant_is_dominant_but_not_symmetric() {
        let a = nonsym_dominant(40, 3, 1);
        assert!(!a.is_symmetric(1e-12));
        for i in 0..a.nrows {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut mass = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                if *c as usize == i {
                    diag = *v;
                } else {
                    mass += v.abs();
                }
            }
            assert!(diag > mass, "row {i} not dominant");
        }
    }

    #[test]
    fn banded_respects_bandwidth() {
        let bw = 3;
        let a = banded_dominant(32, bw, 3);
        for i in 0..a.nrows {
            let (cols, _) = a.row(i);
            for c in cols {
                let j = *c as usize;
                assert!(i.abs_diff(j) <= bw, "entry ({i},{j}) outside band");
            }
        }
    }

    #[test]
    fn skew_is_exactly_skew() {
        let a = random_skew(24, 3, 9);
        for i in 0..a.nrows {
            let (cols, vals) = a.row(i);
            for (c, v) in cols.iter().zip(vals) {
                let j = *c as usize;
                assert_ne!(i, j, "diagonal entry in skew matrix");
                assert_eq!(a.get(j, i), -v, "mirror mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = spd_dominant(20, 3, 77);
        let b = spd_dominant(20, 3, 77);
        assert_eq!(a.values, b.values);
        assert_eq!(a.col_idx, b.col_idx);
    }
}
