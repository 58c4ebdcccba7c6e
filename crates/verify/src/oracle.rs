//! Host-side f64 ground truth.
//!
//! The device works on f32-rounded matrix data, so the fair oracle solves
//! the *rounded* system in f64: factor `fl32(A)` densely with partial
//! pivoting and compare the device solution against that. For the small
//! matrices the differential suite uses (n ≲ 600) dense LU is exact to
//! ~n·u₆₄·κ(A), far below every bound the suite asserts.

use sparse::formats::CsrMatrix;

/// The matrix as the device sees it: every value rounded through f32.
pub fn rounded_f32(a: &CsrMatrix) -> CsrMatrix {
    let mut r = a.clone();
    for v in &mut r.values {
        *v = *v as f32 as f64;
    }
    r
}

/// Dense LU factorisation with partial pivoting (Doolittle, f64).
pub struct DenseLu {
    n: usize,
    /// Row-major packed L\U factors.
    lu: Vec<f64>,
    /// `piv[k]` = original row swapped into position k at step k.
    piv: Vec<usize>,
}

impl DenseLu {
    /// Factor a square sparse matrix densely. Returns `None` when a pivot
    /// column is exactly zero (structurally or numerically singular).
    pub fn factor(a: &CsrMatrix) -> Option<DenseLu> {
        assert_eq!(a.nrows, a.ncols, "oracle needs a square matrix");
        let n = a.nrows;
        let mut lu = vec![0.0f64; n * n];
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (c, v) in cols.iter().zip(vals) {
                lu[i * n + *c as usize] = *v;
            }
        }
        let mut piv = vec![0usize; n];
        for k in 0..n {
            // Partial pivot: largest |entry| in column k at or below row k.
            let (mut p, mut best) = (k, lu[k * n + k].abs());
            for r in k + 1..n {
                let cand = lu[r * n + k].abs();
                if cand > best {
                    p = r;
                    best = cand;
                }
            }
            if best == 0.0 {
                return None;
            }
            piv[k] = p;
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
            }
            let pivot = lu[k * n + k];
            for r in k + 1..n {
                let m = lu[r * n + k] / pivot;
                lu[r * n + k] = m;
                if m != 0.0 {
                    for j in k + 1..n {
                        lu[r * n + j] -= m * lu[k * n + j];
                    }
                }
            }
        }
        Some(DenseLu { n, lu, piv })
    }

    /// Solve `A x = b` using the stored factors.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let mut x = b.to_vec();
        // Apply the row interchanges, then L (unit lower), then U.
        for k in 0..n {
            x.swap(k, self.piv[k]);
            let xk = x[k];
            if xk != 0.0 {
                for (r, xr) in x.iter_mut().enumerate().skip(k + 1) {
                    *xr -= self.lu[r * n + k] * xk;
                }
            }
        }
        for k in (0..n).rev() {
            let mut s = x[k];
            for (j, xj) in x.iter().enumerate().skip(k + 1) {
                s -= self.lu[k * n + j] * xj;
            }
            x[k] = s / self.lu[k * n + k];
        }
        x
    }
}

/// Reference dense SpMV built from random access — deliberately a
/// different code path from `CsrMatrix::spmv` so the two can be
/// differentially tested against each other.
pub fn dense_spmv(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.ncols, x.len());
    (0..a.nrows).map(|i| (0..a.ncols).map(|j| a.get(i, j) * x[j]).sum()).collect()
}

/// Reference dot product (f64 accumulation).
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// ‖x‖₂.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Rough 2-norm condition-number estimate: power iteration for the
/// largest singular direction and inverse iteration (through the LU
/// factors) for the smallest. Accurate to a small factor — enough to
/// decide whether a matrix is "well-conditioned" for a smoother.
pub fn cond_est(a: &CsrMatrix, lu: &DenseLu, iters: usize) -> f64 {
    let n = a.nrows;
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).sin()).collect();
    let mut lambda_max = 0.0f64;
    for _ in 0..iters {
        let w = a.spmv_alloc(&v);
        lambda_max = norm2(&w);
        if lambda_max == 0.0 {
            return f64::INFINITY;
        }
        v = w.iter().map(|x| x / lambda_max).collect();
    }
    let mut u: Vec<f64> = (0..n).map(|i| 1.0 - (i as f64 * 0.3).cos()).collect();
    let mut inv_norm = 0.0f64;
    for _ in 0..iters {
        let w = lu.solve(&u);
        inv_norm = norm2(&w);
        if inv_norm == 0.0 {
            return f64::INFINITY;
        }
        u = w.iter().map(|x| x / inv_norm).collect();
    }
    lambda_max * inv_norm
}

/// Relative residual ‖b − A·x‖ / ‖b‖ (absolute ‖A·x‖ when b = 0).
pub fn rel_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.spmv_alloc(x);
    let r2: f64 = b.iter().zip(&ax).map(|(b, ax)| (b - ax) * (b - ax)).sum();
    let b2 = dot(b, b);
    if b2 > 0.0 {
        (r2 / b2).sqrt()
    } else {
        r2.sqrt()
    }
}

/// Relative forward error ‖x − x_ref‖ / ‖x_ref‖ (absolute when x_ref = 0).
pub fn rel_error(x: &[f64], x_ref: &[f64]) -> f64 {
    assert_eq!(x.len(), x_ref.len());
    let d2: f64 = x.iter().zip(x_ref).map(|(a, b)| (a - b) * (a - b)).sum();
    let n2 = dot(x_ref, x_ref);
    if n2 > 0.0 {
        (d2 / n2).sqrt()
    } else {
        d2.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{nonsym_dominant, random_rhs, spd_dominant};
    use sparse::gen::{poisson_2d_5pt, rhs_for_ones};

    #[test]
    fn lu_solves_identity() {
        let a = CsrMatrix::identity(5);
        let lu = DenseLu::factor(&a).unwrap();
        let b = vec![3.0, -1.0, 0.5, 2.0, 7.0];
        assert_eq!(lu.solve(&b), b);
    }

    #[test]
    fn lu_recovers_known_solution() {
        let a = poisson_2d_5pt(7, 6, 1.0);
        let b = rhs_for_ones(&a);
        let x = DenseLu::factor(&a).unwrap().solve(&b);
        for v in &x {
            assert!((v - 1.0).abs() < 1e-12, "x = {v}");
        }
    }

    #[test]
    fn lu_residual_is_tiny_on_random_systems() {
        for seed in [1u64, 2, 3] {
            let a = nonsym_dominant(40, 4, seed);
            let b = random_rhs(40, seed);
            let x = DenseLu::factor(&a).unwrap().solve(&b);
            let r = rel_residual(&a, &x, &b);
            assert!(r < 1e-13, "seed {seed}: residual {r:.3e}");
        }
    }

    #[test]
    fn lu_requires_pivoting_matrix() {
        // Zero leading diagonal entry: Doolittle without pivoting fails,
        // partial pivoting must succeed.
        let mut coo = sparse::formats::CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo.to_csr();
        let x = DenseLu::factor(&a).unwrap().solve(&[5.0, 9.0]);
        assert_eq!(x, vec![9.0, 5.0]);
    }

    #[test]
    fn singular_matrix_rejected() {
        let mut coo = sparse::formats::CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0); // column 1 empty ⇒ singular
        assert!(DenseLu::factor(&coo.to_csr()).is_none());
    }

    #[test]
    fn csr_spmv_matches_dense_reference() {
        for seed in [10u64, 20, 30] {
            let a = spd_dominant(24, 3, seed);
            let x = random_rhs(24, seed + 1);
            let fast = a.spmv_alloc(&x);
            let slow = dense_spmv(&a, &x);
            for (f, s) in fast.iter().zip(&slow) {
                assert!((f - s).abs() <= 1e-12 * (1.0 + s.abs()), "{f} vs {s}");
            }
        }
    }

    #[test]
    fn cond_est_separates_well_from_ill_conditioned() {
        // Strongly dominant random SPD: κ is a small constant.
        let good = spd_dominant(32, 3, 8);
        let lu = DenseLu::factor(&good).unwrap();
        let kg = cond_est(&good, &lu, 30);
        assert!(kg < 50.0, "dominant κ estimate {kg:.1}");
        // 1D Poisson: κ ≈ 4n²/π² ≈ 930 at n = 48.
        let bad = sparse::gen::tridiagonal(48);
        let lu = DenseLu::factor(&bad).unwrap();
        let kb = cond_est(&bad, &lu, 30);
        assert!(kb > 300.0, "tridiagonal κ estimate {kb:.1}");
    }

    #[test]
    fn rounded_f32_rounds_every_value() {
        let a = spd_dominant(16, 3, 4);
        let r = rounded_f32(&a);
        for (orig, rv) in a.values.iter().zip(&r.values) {
            assert_eq!(*rv, *orig as f32 as f64);
        }
    }
}
