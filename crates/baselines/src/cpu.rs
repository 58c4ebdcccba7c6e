//! Native f64 CPU baselines (the HYPRE analogue).
//!
//! Implements exactly the operations the paper benchmarks on the Xeon:
//! CSR SpMV (sequential and rayon-parallel — HYPRE-with-MPI's row-block
//! parallelism), ILU(0) factorisation/substitution, and BiCGStab in native
//! double precision (the CPU "uses native double precision without MPIR").
//!
//! Timing follows the paper's methodology (§VI-A): warm the cache with
//! 1,000 operations, then time the next 1,000.

use std::time::Instant;

use json::Json;
use profile::{BackendInfo, SolveReport};
use rayon::prelude::*;
use sparse::formats::CsrMatrix;

/// Sequential CSR SpMV, f64.
pub fn spmv_seq(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    a.spmv(x, y);
}

/// Rayon-parallel CSR SpMV, f64 (row-block parallelism).
pub fn spmv_par(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols);
    assert_eq!(y.len(), a.nrows);
    y.par_iter_mut().enumerate().for_each(|(i, yi)| {
        let (cols, vals) = a.row(i);
        let mut acc = 0.0;
        for (c, v) in cols.iter().zip(vals) {
            acc += v * x[*c as usize];
        }
        *yi = acc;
    });
}

/// Time one operation with the paper's warm-up methodology: `warmup`
/// untimed repetitions, then the mean of `reps` timed ones.
pub fn time_op(mut op: impl FnMut(), warmup: usize, reps: usize) -> f64 {
    for _ in 0..warmup {
        op();
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        op();
    }
    t0.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// ILU(0) factors of a CSR matrix (global, sequential — the 1-rank HYPRE
/// setting; the multi-rank block variant lives in the IPU framework).
pub struct Ilu0Factors {
    /// Same structure as the input matrix; lower entries hold L (unit
    /// diagonal), upper entries hold U.
    vals: Vec<f64>,
    diag: Vec<f64>,
    cols: Vec<u32>,
    rptr: Vec<usize>,
    n: usize,
}

impl Ilu0Factors {
    /// IKJ factorisation restricted to the original pattern.
    pub fn new(a: &CsrMatrix) -> Ilu0Factors {
        assert_eq!(a.nrows, a.ncols);
        let n = a.nrows;
        let mut diag = vec![0.0; n];
        let mut vals = Vec::with_capacity(a.nnz());
        let mut cols = Vec::with_capacity(a.nnz());
        let mut rptr = vec![0usize];
        for (i, d) in diag.iter_mut().enumerate() {
            let (cs, vs) = a.row(i);
            for (c, v) in cs.iter().zip(vs) {
                if *c as usize == i {
                    *d = *v;
                } else {
                    cols.push(*c);
                    vals.push(*v);
                }
            }
            rptr.push(vals.len());
            assert!(*d != 0.0, "row {i}: zero diagonal");
        }
        for i in 0..n {
            for kk in rptr[i]..rptr[i + 1] {
                let k = cols[kk] as usize;
                if k >= i {
                    continue;
                }
                let lik = vals[kk] / diag[k];
                vals[kk] = lik;
                // Diagonal update.
                for mm in rptr[k]..rptr[k + 1] {
                    if cols[mm] as usize == i {
                        diag[i] -= lik * vals[mm];
                    }
                }
                // Row updates within the pattern.
                for jj in rptr[i]..rptr[i + 1] {
                    let j = cols[jj] as usize;
                    if j > k {
                        for mm in rptr[k]..rptr[k + 1] {
                            if cols[mm] as usize == j {
                                vals[jj] -= lik * vals[mm];
                            }
                        }
                    }
                }
            }
        }
        Ilu0Factors { vals, diag, cols, rptr, n }
    }

    /// Solve `L U z = r` (forward + backward substitution).
    pub fn solve(&self, r: &[f64], z: &mut [f64]) {
        let n = self.n;
        // Forward: w = L⁻¹ r (unit L).
        for i in 0..n {
            let mut acc = r[i];
            for kk in self.rptr[i]..self.rptr[i + 1] {
                let j = self.cols[kk] as usize;
                if j < i {
                    acc -= self.vals[kk] * z[j];
                }
            }
            z[i] = acc;
        }
        // Backward: z = U⁻¹ w.
        for i in (0..n).rev() {
            let mut acc = z[i];
            for kk in self.rptr[i]..self.rptr[i + 1] {
                let j = self.cols[kk] as usize;
                if j > i {
                    acc -= self.vals[kk] * z[j];
                }
            }
            z[i] = acc / self.diag[i];
        }
    }

    /// Dependency levels of the triangular solves (for the GPU model).
    pub fn level_counts(&self) -> (usize, usize) {
        let mut fwd = vec![0u32; self.n];
        let mut bwd = vec![0u32; self.n];
        let mut fmax = 0;
        let mut bmax = 0;
        for i in 0..self.n {
            for kk in self.rptr[i]..self.rptr[i + 1] {
                let j = self.cols[kk] as usize;
                if j < i {
                    fwd[i] = fwd[i].max(fwd[j] + 1);
                }
            }
            fmax = fmax.max(fwd[i]);
        }
        for i in (0..self.n).rev() {
            for kk in self.rptr[i]..self.rptr[i + 1] {
                let j = self.cols[kk] as usize;
                if j > i {
                    bwd[i] = bwd[i].max(bwd[j] + 1);
                }
            }
            bmax = bmax.max(bwd[i]);
        }
        (fmax as usize + 1, bmax as usize + 1)
    }
}

/// Which Krylov method the CPU baseline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuMethod {
    /// BiCGStab (general systems) — the paper's CPU comparator.
    BiCgStab,
    /// Conjugate Gradient (SPD systems).
    Cg,
}

impl CpuMethod {
    /// Wire name, matching the solver-config `"type"` tags.
    pub fn name(self) -> &'static str {
        match self {
            CpuMethod::BiCgStab => "bi_cg_stab",
            CpuMethod::Cg => "cg",
        }
    }
}

/// Outcome of a CPU baseline solve, with the same accounting split as a
/// `SolveReport` so `summarize` can aggregate IPU and baseline runs into
/// one table (see [`CpuSolveStats::to_solve_report`]).
#[derive(Clone, Debug)]
pub struct CpuSolveStats {
    pub iterations: usize,
    pub relative_residual: f64,
    /// Total wall time: setup (factorisation) + iteration loop.
    pub seconds: f64,
    /// Wall time of the setup phase (ILU factorisation; 0 without it).
    pub setup_seconds: f64,
    /// Wall time of the iteration loop alone — the quantity comparable
    /// to a device solve's `seconds`.
    pub solve_seconds: f64,
    /// (iteration, relative residual) history.
    pub history: Vec<(usize, f64)>,
    /// Executor that ran the kernels: `"cpu"` or `"cpu:par"`.
    pub executor: String,
    /// Wire name of the method (`"bi_cg_stab"` / `"cg"`).
    pub method: &'static str,
}

impl CpuSolveStats {
    /// Package this solve as a schema-v3 [`SolveReport`] with a `backend`
    /// section, so the unified reporter and `summarize` treat baseline
    /// runs exactly like device runs. The cycle sections stay zeroed —
    /// this backend accounts wall-clock time, not cycles.
    pub fn to_solve_report(&self, name: &str, solver: Json, a: &CsrMatrix) -> SolveReport {
        let mut r = SolveReport::new(name);
        r.solver = solver;
        r.n = a.nrows;
        r.nnz = a.nnz();
        r.iterations = self.iterations;
        r.final_residual = self.relative_residual;
        r.seconds = self.solve_seconds;
        r.host_seconds = self.seconds;
        r.executor = self.executor.clone();
        r.history = self.history.clone();
        r.backend = Some(BackendInfo {
            name: self.executor.clone(),
            family: "cpu".to_string(),
            timing: "wall-clock".to_string(),
            seconds: self.solve_seconds,
        });
        r
    }
}

/// The CPU baseline solver: BiCGStab or CG, optionally ILU(0)-
/// preconditioned, in f64 — sequential or rayon-parallel SpMV.
pub struct CpuSolver {
    pub max_iters: usize,
    pub rel_tol: f64,
    pub use_ilu: bool,
    pub method: CpuMethod,
    /// Rayon row-block parallel SpMV (bit-identical to sequential — the
    /// per-row accumulation order does not change).
    pub parallel: bool,
}

impl CpuSolver {
    /// BiCGStab with parallel SpMV — the historical constructor.
    pub fn new(max_iters: usize, rel_tol: f64, use_ilu: bool) -> CpuSolver {
        CpuSolver { max_iters, rel_tol, use_ilu, method: CpuMethod::BiCgStab, parallel: true }
    }

    /// Executor wire name for reports.
    pub fn executor_name(&self) -> &'static str {
        if self.parallel {
            "cpu:par"
        } else {
            "cpu"
        }
    }

    fn spmv(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        if self.parallel {
            spmv_par(a, x, y);
        } else {
            spmv_seq(a, x, y);
        }
    }

    /// Solve `A x = b` from a zero initial guess.
    pub fn solve(&self, a: &CsrMatrix, b: &[f64], x: &mut [f64]) -> CpuSolveStats {
        self.solve_from(a, b, x, None)
    }

    /// Solve `A x = b` from the initial guess `x0` (zeros when `None`).
    pub fn solve_from(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        x0: Option<&[f64]>,
    ) -> CpuSolveStats {
        let n = a.nrows;
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        let t0 = Instant::now();
        let ilu = self.use_ilu.then(|| Ilu0Factors::new(a));
        let setup_seconds = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        match x0 {
            Some(g) => {
                assert_eq!(g.len(), n);
                x.copy_from_slice(g);
            }
            None => x.fill(0.0),
        }
        // r = b − A·x (exactly b for a zero guess: A·0 accumulates to
        // +0.0 per row and b − 0.0 is bit-identical to b).
        let mut r = vec![0.0; n];
        self.spmv(a, x, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        let mut stats = match self.method {
            CpuMethod::BiCgStab => self.bicgstab(a, b, x, r, &ilu),
            CpuMethod::Cg => self.cg(a, b, x, r, &ilu),
        };
        stats.setup_seconds = setup_seconds;
        stats.solve_seconds = t1.elapsed().as_secs_f64();
        stats.seconds = setup_seconds + stats.solve_seconds;
        stats
    }

    /// BiCGStab from residual `r` (x already holds the initial guess).
    fn bicgstab(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        mut r: Vec<f64>,
        ilu: &Option<Ilu0Factors>,
    ) -> CpuSolveStats {
        let n = a.nrows;
        let dot = |u: &[f64], v: &[f64]| u.iter().zip(v).map(|(a, b)| a * b).sum::<f64>();
        let bnorm2 = dot(b, b).max(f64::MIN_POSITIVE);
        let tol2 = self.rel_tol * self.rel_tol * bnorm2;

        let mut r0 = r.clone();
        let mut p = r.clone();
        let mut rho_old = dot(&r0, &r);
        let mut y = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut z = vec![0.0; n];
        let mut t = vec![0.0; n];
        let mut s = vec![0.0; n];
        let mut history = Vec::new();
        let mut iterations = 0;
        let mut res2 = dot(&r, &r);

        while iterations < self.max_iters && res2 > tol2 {
            match ilu {
                Some(f) => f.solve(&p, &mut y),
                None => y.copy_from_slice(&p),
            }
            self.spmv(a, &y, &mut v);
            let r0v = dot(&r0, &v);
            let alpha = if r0v == 0.0 { 0.0 } else { rho_old / r0v };
            for i in 0..n {
                s[i] = r[i] - alpha * v[i];
            }
            match ilu {
                Some(f) => f.solve(&s, &mut z),
                None => z.copy_from_slice(&s),
            }
            self.spmv(a, &z, &mut t);
            let tt = dot(&t, &t);
            let omega = if tt == 0.0 { 0.0 } else { dot(&t, &s) / tt };
            for i in 0..n {
                x[i] += alpha * y[i] + omega * z[i];
                r[i] = s[i] - omega * t[i];
            }
            res2 = dot(&r, &r);
            let rho = dot(&r0, &r);
            if rho.abs() <= 1e-12 * res2 || omega == 0.0 {
                // Breakdown: restart from the current residual.
                r0.copy_from_slice(&r);
                p.copy_from_slice(&r);
                rho_old = dot(&r0, &r);
            } else {
                let beta = (rho / rho_old) * (alpha / omega);
                for i in 0..n {
                    p[i] = r[i] + beta * (p[i] - omega * v[i]);
                }
                rho_old = rho;
            }
            iterations += 1;
            history.push((iterations, (res2 / bnorm2).sqrt()));
        }

        CpuSolveStats {
            iterations,
            relative_residual: (res2 / bnorm2).sqrt(),
            seconds: 0.0,
            setup_seconds: 0.0,
            solve_seconds: 0.0,
            history,
            executor: self.executor_name().to_string(),
            method: CpuMethod::BiCgStab.name(),
        }
    }

    /// Preconditioned CG from residual `r` (x already holds the guess).
    fn cg(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        mut r: Vec<f64>,
        ilu: &Option<Ilu0Factors>,
    ) -> CpuSolveStats {
        let n = a.nrows;
        let dot = |u: &[f64], v: &[f64]| u.iter().zip(v).map(|(a, b)| a * b).sum::<f64>();
        let bnorm2 = dot(b, b).max(f64::MIN_POSITIVE);
        let tol2 = self.rel_tol * self.rel_tol * bnorm2;

        let mut z = vec![0.0; n];
        match ilu {
            Some(f) => f.solve(&r, &mut z),
            None => z.copy_from_slice(&r),
        }
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        let mut v = vec![0.0; n];
        let mut history = Vec::new();
        let mut iterations = 0;
        let mut res2 = dot(&r, &r);

        while iterations < self.max_iters && res2 > tol2 {
            self.spmv(a, &p, &mut v);
            let pv = dot(&p, &v);
            if pv == 0.0 || rz == 0.0 {
                break; // breakdown: direction lost its energy norm
            }
            let alpha = rz / pv;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * v[i];
            }
            res2 = dot(&r, &r);
            iterations += 1;
            history.push((iterations, (res2 / bnorm2).sqrt()));
            if res2 <= tol2 {
                break;
            }
            match ilu {
                Some(f) => f.solve(&r, &mut z),
                None => z.copy_from_slice(&r),
            }
            let rz_new = dot(&r, &z);
            let beta = rz_new / rz;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
            rz = rz_new;
        }

        CpuSolveStats {
            iterations,
            relative_residual: (res2 / bnorm2).sqrt(),
            seconds: 0.0,
            setup_seconds: 0.0,
            solve_seconds: 0.0,
            history,
            executor: self.executor_name().to_string(),
            method: CpuMethod::Cg.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen::{poisson_2d_5pt, poisson_3d_7pt, rhs_for_ones, tridiagonal};

    #[test]
    fn par_spmv_matches_seq() {
        let a = poisson_3d_7pt(8, 8, 8);
        let x: Vec<f64> = (0..a.nrows).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut y1 = vec![0.0; a.nrows];
        let mut y2 = vec![0.0; a.nrows];
        spmv_seq(&a, &x, &mut y1);
        spmv_par(&a, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn ilu_exact_on_tridiagonal() {
        // ILU(0) of a tridiagonal matrix has no discarded fill ⇒ exact LU.
        let a = tridiagonal(50);
        let f = Ilu0Factors::new(&a);
        let b = rhs_for_ones(&a);
        let mut z = vec![0.0; 50];
        f.solve(&b, &mut z);
        for v in &z {
            assert!((v - 1.0).abs() < 1e-12, "{v}");
        }
    }

    #[test]
    fn bicgstab_converges_f64() {
        let a = poisson_2d_5pt(20, 20, 1.0);
        let b = rhs_for_ones(&a);
        let mut x = vec![0.0; a.nrows];
        let stats = CpuSolver::new(1000, 1e-10, false).solve(&a, &b, &mut x);
        assert!(stats.relative_residual < 1e-10, "{}", stats.relative_residual);
        for v in &x {
            assert!((v - 1.0).abs() < 1e-7, "{v}");
        }
    }

    #[test]
    fn ilu_preconditioning_cuts_iterations_f64() {
        let a = poisson_2d_5pt(24, 24, 1.0);
        let b = rhs_for_ones(&a);
        let mut x = vec![0.0; a.nrows];
        let plain = CpuSolver::new(2000, 1e-9, false).solve(&a, &b, &mut x);
        let pre = CpuSolver::new(2000, 1e-9, true).solve(&a, &b, &mut x);
        assert!(pre.relative_residual < 1e-9);
        assert!(pre.iterations < plain.iterations, "{} vs {}", pre.iterations, plain.iterations);
    }

    #[test]
    fn level_counts_of_tridiagonal_are_n() {
        let a = tridiagonal(30);
        let f = Ilu0Factors::new(&a);
        assert_eq!(f.level_counts(), (30, 30));
        let d = CsrMatrix::identity(10);
        let fd = Ilu0Factors::new(&d);
        assert_eq!(fd.level_counts(), (1, 1));
    }

    #[test]
    fn time_op_returns_positive() {
        let mut acc = 0u64;
        let t = time_op(
            || {
                acc = acc.wrapping_add(std::hint::black_box(1));
            },
            10,
            10,
        );
        assert!(t >= 0.0);
    }
}
