//! Synthetic analogues of the paper's SuiteSparse benchmark matrices.
//!
//! The paper evaluates on four real, symmetric, positive-definite matrices
//! from the SuiteSparse collection (Table II). The collection is not
//! reachable from this environment and the matrices are too large to vendor,
//! so each gets a deterministic generator matched to its documented
//! characteristics. The substitution record, per matrix:
//!
//! | Matrix      | Paper (rows / nnz / domain)            | Analogue |
//! |-------------|----------------------------------------|----------|
//! | G3_circuit  | 1.58 M / 7.7 M (~4.8/row), circuit     | 2D 5-point Laplacian — same nnz/row class (≤5), SPD, large-diameter graph like a power grid |
//! | af_shell7   | 0.50 M / 17.6 M (~35/row), sheet-metal shell | anisotropic 2D 5-point ⊗ dense 6×6 SPD block (the 6 DOFs of a shell node; ≤30 entries/row) — anisotropy reproduces shell ill-conditioning |
//! | Geo_1438    | 1.44 M / 63.1 M (~44/row), geomechanics | heterogeneous 3D 7-point ⊗ dense 3×3 SPD block (3 displacement DOFs, ≤21 entries/row) with coefficient contrast for conditioning |
//! | Hook_1498   | 1.50 M / 60.9 M (~41/row), steel hook   | as Geo_1438 with stronger heterogeneity and different seed |
//!
//! What the experiments actually exercise — SPD-ness, nnz/row within a
//! small factor, graph locality, and a condition number high enough that a
//! single-precision Krylov solver stalls around 1e-6 relative residual —
//! is preserved; exact spectra are not. A real `.mtx` file can be
//! substituted at any time through [`crate::io::read_matrix_market_file`].
//!
//! All generators take `scale ∈ (0, 1]`: the fraction of the paper's row
//! count to generate (default benches use ~1–5% for CI-friendly runtimes).

use crate::formats::CsrMatrix;
use crate::gen::{dense_spd_block, heterogeneous_poisson_3d, kron, poisson_2d_5pt};

/// Static description of one benchmark matrix (paper Table II).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatrixInfo {
    pub name: &'static str,
    pub paper_rows: usize,
    pub paper_nnz: usize,
}

/// The paper's Table II inventory.
pub const PAPER_MATRICES: [MatrixInfo; 4] = [
    MatrixInfo { name: "G3_circuit", paper_rows: 1_585_478, paper_nnz: 7_660_826 },
    MatrixInfo { name: "af_shell7", paper_rows: 504_855, paper_nnz: 17_579_155 },
    MatrixInfo { name: "Geo_1438", paper_rows: 1_437_960, paper_nnz: 63_156_690 },
    MatrixInfo { name: "Hook_1498", paper_rows: 1_498_023, paper_nnz: 60_917_445 },
];

fn scaled_side(paper_rows: usize, scale: f64, dofs_per_node: usize, dims: u32) -> usize {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let target_nodes = (paper_rows as f64 * scale / dofs_per_node as f64).max(64.0);
    (target_nodes.powf(1.0 / dims as f64).round() as usize).max(4)
}

/// Analogue of **G3_circuit** (circuit simulation, ~4.8 nnz/row).
pub fn g3_circuit_like(scale: f64) -> CsrMatrix {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let side = scaled_side(PAPER_MATRICES[0].paper_rows, scale, 1, 2);
    // 2D Laplacian grid (≤5 entries/row, SPD, huge graph diameter) plus a
    // sprinkling of random symmetric "via" connections: circuit matrices
    // are *irregular*, which is what gives their triangular factors deep
    // dependency chains (poor level-set parallelism) — a property the
    // Table IV breakdown is sensitive to.
    let grid = poisson_2d_5pt(side, side, 1.0);
    let n = grid.nrows;
    let mut coo = crate::formats::CooMatrix::new(n, n);
    for i in 0..n {
        let (cols, vals) = grid.row(i);
        for (c, v) in cols.iter().zip(vals) {
            coo.push(i, *c as usize, *v);
        }
    }
    let mut rng = SmallRng::seed_from_u64(3);
    for i in 0..n / 20 {
        let a = (i * 20 + rng.gen_range(0..20)).min(n - 1);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        // Conductance-like coupling: keep diagonal dominance.
        coo.push(a, b, -0.5);
        coo.push(b, a, -0.5);
        coo.push(a, a, 0.5);
        coo.push(b, b, 0.5);
    }
    coo.into_csr()
}

/// Analogue of **af_shell7** (sheet-metal shell, ~35 nnz/row, ill-conditioned).
pub fn af_shell7_like(scale: f64) -> CsrMatrix {
    let side = scaled_side(PAPER_MATRICES[1].paper_rows, scale, 6, 2);
    // Thin-shell stiffness: strongly anisotropic membrane with the six
    // coupled DOFs of a shell node (3 displacements + 3 rotations).
    // 5-point stencil ⊗ dense 6x6 SPD block: ≤30 entries/row, matching the
    // paper's ~35/row class; the anisotropy reproduces shell
    // ill-conditioning.
    let scalar = poisson_2d_5pt(side, side, 500.0);
    kron(&scalar, &dense_spd_block(6, 0.3))
}

/// Analogue of **Geo_1438** (geomechanical deformation, ~44 nnz/row).
pub fn geo_1438_like(scale: f64) -> CsrMatrix {
    let side = scaled_side(PAPER_MATRICES[2].paper_rows, scale, 3, 3);
    // 3D heterogeneous diffusion ⊗ 3 displacement DOFs.
    let scalar = heterogeneous_poisson_3d(side, side, side, 1e3, 1438);
    kron(&scalar, &dense_spd_block(3, 0.4))
}

/// Analogue of **Hook_1498** (steel hook elasticity, ~41 nnz/row).
pub fn hook_1498_like(scale: f64) -> CsrMatrix {
    let side = scaled_side(PAPER_MATRICES[3].paper_rows, scale, 3, 3);
    let scalar = heterogeneous_poisson_3d(side, side, side, 1e4, 1498);
    kron(&scalar, &dense_spd_block(3, 0.3))
}

/// Generate the analogue by paper name (panics on unknown names).
pub fn by_name(name: &str, scale: f64) -> CsrMatrix {
    match name {
        "G3_circuit" => g3_circuit_like(scale),
        "af_shell7" => af_shell7_like(scale),
        "Geo_1438" => geo_1438_like(scale),
        "Hook_1498" => hook_1498_like(scale),
        other => panic!("unknown benchmark matrix: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_analogues_are_spd_shaped() {
        for info in PAPER_MATRICES {
            let a = by_name(info.name, 0.002);
            assert!(a.nrows > 0, "{}", info.name);
            assert!(a.is_symmetric(1e-10), "{} not symmetric", info.name);
            assert!(a.has_full_nonzero_diagonal(), "{} diagonal", info.name);
        }
    }

    #[test]
    fn nnz_per_row_matches_class() {
        // G3_circuit class: < 6 per row. Shell/geo class: tens per row.
        let g3 = g3_circuit_like(0.002);
        let g3_density = g3.nnz() as f64 / g3.nrows as f64;
        assert!(g3_density < 6.0, "g3 density {g3_density}");

        let shell = af_shell7_like(0.01);
        let d = shell.nnz() as f64 / shell.nrows as f64;
        assert!((20.0..36.0).contains(&d), "af_shell7 density {d}");

        let geo = geo_1438_like(0.001);
        let d = geo.nnz() as f64 / geo.nrows as f64;
        assert!((12.0..22.0).contains(&d), "geo density {d}");
    }

    #[test]
    fn scale_controls_rows() {
        let small = g3_circuit_like(0.001);
        let large = g3_circuit_like(0.004);
        assert!(large.nrows > 2 * small.nrows);
        // Within 30% of target.
        let target = PAPER_MATRICES[0].paper_rows as f64 * 0.004;
        let ratio = large.nrows as f64 / target;
        assert!((0.7..1.3).contains(&ratio), "rows {} target {target}", large.nrows);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(geo_1438_like(0.0005), geo_1438_like(0.0005));
        assert_eq!(hook_1498_like(0.0005), hook_1498_like(0.0005));
        // Geo and Hook differ despite the same construction.
        assert_ne!(geo_1438_like(0.0005), hook_1498_like(0.0005));
    }

    #[test]
    #[should_panic(expected = "unknown benchmark matrix")]
    fn unknown_name_panics() {
        by_name("nd24k", 0.01);
    }
}
