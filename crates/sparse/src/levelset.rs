//! Level-set scheduling (§V-A).
//!
//! Sequential solvers like Gauss-Seidel and the ILU substitution sweep rows
//! in order, each row depending on already-updated values via the strictly
//! lower (forward sweep) or strictly upper (backward sweep) triangle. The
//! dependency graph is a DAG; clustering it into *levels* — row r's level =
//! 1 + max level of the rows it depends on — lets all rows of one level run
//! in parallel (here: across a tile's six worker threads) while preserving
//! the sequential method's exact result and convergence rate.

use crate::formats::CsrMatrix;

/// Which triangle carries the dependencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// Dependencies in the strictly lower triangle (forward substitution /
    /// forward Gauss-Seidel).
    Forward,
    /// Dependencies in the strictly upper triangle (backward substitution).
    Backward,
}

/// The computed level structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelSets {
    /// `levels[k]` = rows in level k, ascending. Processing levels in order
    /// reproduces the sequential sweep exactly.
    pub levels: Vec<Vec<usize>>,
    /// `level_of[row]` = level index.
    pub level_of: Vec<u32>,
    pub sweep: Sweep,
}

impl LevelSets {
    /// Compute levels for a sweep over `a` (typically a tile-local matrix).
    /// Only columns `< a.nrows` count as dependencies — halo columns (≥
    /// nrows in the local layout) are frozen inputs, mirroring the paper's
    /// observation that tile-local (D)ILU "completely disregards halo
    /// values".
    pub fn analyze(a: &CsrMatrix, sweep: Sweep) -> Self {
        Self::of_pattern(a.nrows, &a.row_ptr, &a.col_idx, sweep)
    }

    /// [`LevelSets::analyze`] over a bare sparsity pattern: `n` rows, row
    /// `i`'s columns `cols[row_ptr[i]..row_ptr[i + 1]]`. Diagonal entries
    /// may be present or not (a row never depends on itself), so the
    /// off-diagonal pattern of a modified CSR gives the same levels as the
    /// full matrix. One pass over the pattern, then a counting sort of the
    /// rows into exactly sized levels.
    pub fn of_pattern(n: usize, row_ptr: &[usize], cols: &[u32], sweep: Sweep) -> Self {
        // Row i's level is 1 + the highest level among the rows it depends
        // on, so visiting rows in sweep order finds every dependency done.
        fn assign(
            n: usize,
            row_ptr: &[usize],
            cols: &[u32],
            order: impl Iterator<Item = usize>,
            depends: impl Fn(usize, usize) -> bool,
        ) -> (Vec<u32>, u32) {
            let mut level_of = vec![0u32; n];
            let mut num_levels = 0;
            for i in order {
                let mut lvl = 0;
                for &c in &cols[row_ptr[i]..row_ptr[i + 1]] {
                    let j = c as usize;
                    if depends(i, j) {
                        lvl = lvl.max(level_of[j] + 1);
                    }
                }
                level_of[i] = lvl;
                num_levels = num_levels.max(lvl + 1);
            }
            (level_of, num_levels)
        }
        let (level_of, num_levels) = match sweep {
            Sweep::Forward => assign(n, row_ptr, cols, 0..n, |i, j| j < i),
            Sweep::Backward => assign(n, row_ptr, cols, (0..n).rev(), |i, j| j > i && j < n),
        };
        let mut sizes = vec![0usize; num_levels as usize];
        for &l in &level_of {
            sizes[l as usize] += 1;
        }
        let mut levels: Vec<Vec<usize>> = sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
        for (i, &l) in level_of.iter().enumerate() {
            levels[l as usize].push(i);
        }
        LevelSets { levels, level_of, sweep }
    }

    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Mean rows per level — the parallelism available to the six workers.
    pub fn mean_parallelism(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        self.level_of.len() as f64 / self.levels.len() as f64
    }

    /// Verify the defining invariant: every dependency of a row lies in a
    /// strictly earlier level.
    pub fn validate(&self, a: &CsrMatrix) -> bool {
        let n = a.nrows;
        for i in 0..n {
            let (cols, _) = a.row(i);
            for &c in cols {
                let j = c as usize;
                let depends = match self.sweep {
                    Sweep::Forward => j < i,
                    Sweep::Backward => j > i && j < n,
                };
                if depends && self.level_of[j] >= self.level_of[i] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::formats::CooMatrix;
    use crate::gen::{poisson_2d_5pt, poisson_3d_7pt, tridiagonal};

    #[test]
    fn diagonal_matrix_is_one_level() {
        let a = CsrMatrix::identity(5);
        let ls = LevelSets::analyze(&a, Sweep::Forward);
        assert_eq!(ls.num_levels(), 1);
        assert_eq!(ls.levels[0], vec![0, 1, 2, 3, 4]);
        assert!(ls.validate(&a));
    }

    #[test]
    fn tridiagonal_is_fully_sequential() {
        // Each row depends on the previous: n levels.
        let a = tridiagonal(6);
        let ls = LevelSets::analyze(&a, Sweep::Forward);
        assert_eq!(ls.num_levels(), 6);
        assert!(ls.validate(&a));
        let back = LevelSets::analyze(&a, Sweep::Backward);
        assert_eq!(back.num_levels(), 6);
        assert_eq!(back.level_of[5], 0);
        assert_eq!(back.level_of[0], 5);
        assert!(back.validate(&a));
    }

    #[test]
    fn poisson_2d_levels_are_antidiagonals() {
        // 5-point stencil: level(x, y) = x + y ("wavefront").
        let nx = 5;
        let a = poisson_2d_5pt(nx, 4, 1.0);
        let ls = LevelSets::analyze(&a, Sweep::Forward);
        assert_eq!(ls.num_levels(), 5 + 4 - 1);
        for y in 0..4 {
            for x in 0..nx {
                assert_eq!(ls.level_of[y * nx + x], (x + y) as u32);
            }
        }
        assert!(ls.validate(&a));
    }

    #[test]
    fn poisson_3d_parallelism_feeds_six_workers() {
        let a = poisson_3d_7pt(12, 12, 12);
        let ls = LevelSets::analyze(&a, Sweep::Forward);
        // Wavefront levels of a 12^3 grid hold up to ~78 rows; mean well
        // above 6 -> the six workers can be kept busy, as the paper found.
        assert!(ls.mean_parallelism() > 6.0, "parallelism {}", ls.mean_parallelism());
        assert!(ls.validate(&a));
    }

    #[test]
    fn halo_columns_are_not_dependencies() {
        // A 3-row local matrix whose rows reference column 5 (a halo slot
        // in a 3-row, 6-col local layout): levels must ignore it.
        let mut coo = CooMatrix::new(3, 6);
        for i in 0..3 {
            coo.push(i, i, 4.0);
            coo.push(i, 5, -1.0);
        }
        coo.push(2, 0, -1.0);
        let a = coo.to_csr();
        let ls = LevelSets::analyze(&a, Sweep::Forward);
        assert_eq!(ls.level_of, vec![0, 0, 1]);
        assert!(ls.validate(&a));
    }

    #[test]
    fn levels_partition_all_rows() {
        let a = poisson_2d_5pt(7, 7, 1.0);
        let ls = LevelSets::analyze(&a, Sweep::Forward);
        let mut all: Vec<usize> = ls.levels.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..49).collect::<Vec<_>>());
    }

    #[test]
    fn empty_matrix() {
        let a = CooMatrix::new(0, 0).to_csr();
        let ls = LevelSets::analyze(&a, Sweep::Forward);
        assert_eq!(ls.num_levels(), 0);
        assert!(ls.validate(&a));
    }

    /// `LevelSets::analyze` as it was before `of_pattern`: per-level vectors
    /// grown by push. Kept as the oracle the counting sort must reproduce.
    pub(crate) fn analyze_oracle(a: &CsrMatrix, sweep: Sweep) -> LevelSets {
        let n = a.nrows;
        let mut level_of = vec![0u32; n];
        let mut max_level = 0u32;
        match sweep {
            Sweep::Forward => {
                for i in 0..n {
                    let (cols, _) = a.row(i);
                    let mut lvl = 0u32;
                    for &c in cols {
                        let j = c as usize;
                        if j < i {
                            lvl = lvl.max(level_of[j] + 1);
                        }
                    }
                    level_of[i] = lvl;
                    max_level = max_level.max(lvl);
                }
            }
            Sweep::Backward => {
                for i in (0..n).rev() {
                    let (cols, _) = a.row(i);
                    let mut lvl = 0u32;
                    for &c in cols {
                        let j = c as usize;
                        if j > i && j < n {
                            lvl = lvl.max(level_of[j] + 1);
                        }
                    }
                    level_of[i] = lvl;
                    max_level = max_level.max(lvl);
                }
            }
        }
        let mut levels = vec![Vec::new(); max_level as usize + 1];
        for i in 0..n {
            levels[level_of[i] as usize].push(i);
        }
        if n == 0 {
            levels.clear();
        }
        LevelSets { levels, level_of, sweep }
    }

    /// A random pattern in the shape of a tile-local matrix: `n` rows,
    /// `n + halo` columns, rows of 0–6 entries in no particular column
    /// order, the diagonal present or not.
    fn random_local(n: usize, halo: usize, seed: u64) -> CsrMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ncols = n + halo;
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for _ in 0..n {
            let len = if ncols == 0 { 0 } else { rng.gen_range(0..7usize) };
            for _ in 0..len {
                col_idx.push(rng.gen_range(0..ncols) as u32);
            }
            row_ptr.push(col_idx.len());
        }
        let values = vec![1.0; col_idx.len()];
        CsrMatrix { nrows: n, ncols, row_ptr, col_idx, values }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn analyze_matches_the_oracle(n in 0usize..48, halo in 0usize..8, seed in any::<u64>()) {
            let a = random_local(n, halo, seed);
            for sweep in [Sweep::Forward, Sweep::Backward] {
                let got = LevelSets::analyze(&a, sweep);
                prop_assert_eq!(&got, &analyze_oracle(&a, sweep));
                for level in &got.levels {
                    prop_assert_eq!(level.capacity(), level.len());
                }
            }
        }
    }
}
