//! Blockwise halo-exchange reordering — the paper's §IV.
//!
//! After row-wise decomposition, a tile's rows reference columns owned by
//! other tiles. Those *halo* values must be refreshed after every update of
//! the distributed vector. On cached architectures one reorders for
//! locality; the IPU is cacheless, so the paper reorders for
//! *communication* instead:
//!
//! 1. identify **separator** cells (owned here, needed by neighbours) and
//!    the exact set of neighbouring tiles requiring each;
//! 2. group separator cells with identical neighbour-tile sets into
//!    **regions**;
//! 3. create the corresponding **halo regions** on the consumers;
//! 4. give each separator region and all of its halo copies the *same
//!    internal cell order*.
//!
//! The payoff: a halo exchange is one contiguous block copy per region —
//! broadcast to every consumer over the all-to-all fabric — with no
//! per-cell communication instructions and no local reordering on either
//! side.
//!
//! The resulting per-tile memory layout of a distributed vector is
//! `[interior cells | separator regions… | halo regions…]` (paper Fig 3b).

use crate::formats::CsrMatrix;
use crate::partition::Partition;

/// Classification of a cell from one tile's perspective (paper Fig 3a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellKind {
    /// Owned and referenced only by the owner.
    Interior,
    /// Owned here, needed by at least one neighbour.
    Separator,
    /// Owned elsewhere, needed here.
    Halo,
    /// Not referenced by this tile at all.
    Foreign,
}

/// A separator region and its halo copies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Tile owning the separator cells.
    pub owner: usize,
    /// Tiles holding a halo copy (sorted, never contains `owner`).
    pub consumers: Vec<usize>,
    /// Global row ids in the region's *consistent order* (ascending global
    /// id — identical at the source and every destination).
    pub cells: Vec<usize>,
    /// Start of the region in the owner's local vector layout.
    pub src_start: usize,
    /// Start of the halo copy in each consumer's local layout
    /// (parallel to `consumers`).
    pub dst_starts: Vec<usize>,
}

impl Region {
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Per-tile memory layout of a distributed vector.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TileLayout {
    /// Global rows owned by the tile, in local order:
    /// interior first, then separator regions back-to-back.
    pub owned: Vec<usize>,
    /// How many of `owned` are interior cells.
    pub num_interior: usize,
    /// Global rows of the halo cells, in local order (region by region);
    /// local index of `halo[k]` is `owned.len() + k`.
    pub halo: Vec<usize>,
}

impl TileLayout {
    /// Total local vector length (owned + halo slots).
    pub fn local_len(&self) -> usize {
        self.owned.len() + self.halo.len()
    }
}

/// The tile-local submatrix: this tile's rows with columns renumbered into
/// its local vector layout.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalMatrix {
    /// `a.nrows == layout.owned.len()`, `a.ncols == layout.local_len()`.
    pub a: CsrMatrix,
}

/// The complete halo decomposition of a matrix over a partition.
#[derive(Clone, Debug)]
pub struct HaloDecomposition {
    pub layouts: Vec<TileLayout>,
    pub regions: Vec<Region>,
    /// `owner_slot[row] = (tile, local index)` of the owned copy.
    pub owner_slot: Vec<(u32, u32)>,
}

impl HaloDecomposition {
    /// Build the decomposition following the paper's four steps, over dense
    /// arrays and without hashing: the consumer sets are a CSR over cells
    /// built in two counting passes, a tile's separator cells are grouped by
    /// comparing consumer-set slices and laid out by a counting sort, and
    /// every layout vector is sized exactly.
    pub fn build(a: &CsrMatrix, part: &Partition) -> Self {
        assert_eq!(a.nrows, part.num_rows());
        assert_eq!(a.nrows, a.ncols, "halo decomposition requires a square matrix");
        let num_tiles = part.num_parts();

        // Step 1: for every cell, the set of foreign tiles that reference it.
        let (cons_ptr, cons) = consumer_sets(a, part);
        let consumers_of = |j: usize| &cons[cons_ptr[j]..cons_ptr[j + 1]];

        // Step 2, tile by tile in ascending order: interior cells in part
        // order, then the separator cells grouped into regions by consumer
        // set. A tile's separators fall into few sets, so each finds its
        // group by comparing its set with one representative cell per group
        // found so far. Ranking the groups by set and a counting sort then
        // lay the regions out back to back in the owned tail, each in
        // ascending global id (`parts` are sorted): the consistent order.
        let mut layouts = Vec::with_capacity(num_tiles);
        let mut regions = Vec::new();
        let mut halo_len = vec![0usize; num_tiles];
        // Per tile, reused: a representative cell per group, every
        // separator with its group, the groups ranked by consumer set, and
        // each group's size, then next free slot, then end in `owned`.
        let (mut reps, mut members, mut ranked, mut next) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (t, rows) in part.parts.iter().enumerate() {
            let mut owned = Vec::with_capacity(rows.len());
            reps.clear();
            members.clear();
            for &r in rows {
                let set = consumers_of(r);
                if set.is_empty() {
                    owned.push(r);
                    continue;
                }
                let g = match reps.iter().rposition(|&x| consumers_of(x) == set) {
                    Some(g) => g,
                    None => {
                        reps.push(r);
                        reps.len() - 1
                    }
                };
                members.push((r, g));
            }
            let num_interior = owned.len();
            ranked.clear();
            ranked.extend(0..reps.len());
            ranked.sort_unstable_by(|&x, &y| consumers_of(reps[x]).cmp(consumers_of(reps[y])));
            next.clear();
            next.resize(reps.len(), 0);
            for &(_, g) in &members {
                next[g] += 1;
            }
            let mut start = num_interior;
            for &g in &ranked {
                let size = next[g];
                next[g] = start;
                start += size;
            }
            owned.resize(rows.len(), 0);
            for &(r, g) in &members {
                owned[next[g]] = r;
                next[g] += 1;
            }
            let mut start = num_interior;
            for &g in &ranked {
                let cells = owned[start..next[g]].to_vec();
                let consumers: Vec<usize> =
                    consumers_of(reps[g]).iter().map(|&c| c as usize).collect();
                for &c in &consumers {
                    halo_len[c] += cells.len();
                }
                regions.push(Region {
                    owner: t,
                    consumers,
                    cells,
                    src_start: start,
                    dst_starts: vec![],
                });
                start = next[g];
            }
            layouts.push(TileLayout { owned, num_interior, halo: Vec::new() });
        }

        // Steps 3+4: every region's halo copy lands on each consumer, in
        // region order, after the consumer's (now final) owned part.
        for (layout, &len) in layouts.iter_mut().zip(&halo_len) {
            layout.halo.reserve_exact(len);
        }
        for r in &mut regions {
            r.dst_starts = r
                .consumers
                .iter()
                .map(|&t| {
                    let layout = &mut layouts[t];
                    let start = layout.local_len();
                    layout.halo.extend_from_slice(&r.cells);
                    start
                })
                .collect();
        }

        // Owner slots for gather/scatter.
        let mut owner_slot = vec![(0u32, 0u32); a.nrows];
        for (t, layout) in layouts.iter().enumerate() {
            for (local, &row) in layout.owned.iter().enumerate() {
                owner_slot[row] = (t as u32, local as u32);
            }
        }

        HaloDecomposition { layouts, regions, owner_slot }
    }

    pub fn num_tiles(&self) -> usize {
        self.layouts.len()
    }

    /// Cell classification from `tile`'s perspective.
    pub fn cell_kind(&self, tile: usize, row: usize) -> CellKind {
        let l = &self.layouts[tile];
        if self.owner_slot[row].0 as usize == tile {
            let local = self.owner_slot[row].1 as usize;
            if local < l.num_interior {
                CellKind::Interior
            } else {
                CellKind::Separator
            }
        } else if l.halo.contains(&row) {
            CellKind::Halo
        } else {
            CellKind::Foreign
        }
    }

    /// Build the tile-local submatrices: each tile's rows (in local owned
    /// order) with columns renumbered into the tile's local vector layout.
    /// Panics if a row references a column that is neither owned nor in the
    /// halo — impossible by construction of the decomposition.
    pub fn local_matrices(&self, a: &CsrMatrix) -> Vec<LocalMatrix> {
        let mut columns = self.local_columns();
        self.layouts
            .iter()
            .enumerate()
            .map(|(t, layout)| {
                columns.enter(t);
                let nnz = layout.owned.iter().map(|&r| a.row_nnz(r)).sum();
                let mut row_ptr = Vec::with_capacity(layout.owned.len() + 1);
                let mut col_idx = Vec::with_capacity(nnz);
                let mut values = Vec::with_capacity(nnz);
                row_ptr.push(0);
                for &row in &layout.owned {
                    for &(c, v) in columns.row(a, row) {
                        col_idx.push(c);
                        values.push(v);
                    }
                    row_ptr.push(col_idx.len());
                }
                LocalMatrix {
                    a: CsrMatrix {
                        nrows: layout.owned.len(),
                        ncols: layout.local_len(),
                        row_ptr,
                        col_idx,
                        values,
                    },
                }
            })
            .collect()
    }

    /// A global → local column renumbering for this decomposition, one tile
    /// at a time (see [`LocalColumns`]).
    pub fn local_columns(&self) -> LocalColumns<'_> {
        let n = self.owner_slot.len();
        LocalColumns { halo: self, slot: vec![0; n], tile: 0, row: Vec::new() }
    }

    /// Scatter a global vector into per-tile local vectors (owned + halo
    /// slots filled).
    pub fn scatter(&self, global: &[f64]) -> Vec<Vec<f64>> {
        self.layouts
            .iter()
            .map(|l| {
                let mut v = Vec::with_capacity(l.local_len());
                v.extend(l.owned.iter().map(|&r| global[r]));
                v.extend(l.halo.iter().map(|&r| global[r]));
                v
            })
            .collect()
    }

    /// Gather per-tile local vectors (owned parts only) back into a global
    /// vector.
    pub fn gather(&self, locals: &[Vec<f64>]) -> Vec<f64> {
        let mut global = vec![0.0; self.owner_slot.len()];
        for (t, l) in self.layouts.iter().enumerate() {
            for (local, &row) in l.owned.iter().enumerate() {
                global[row] = locals[t][local];
            }
        }
        global
    }

    /// Perform a halo exchange on host-side local vectors: copy each
    /// separator region from its owner into every consumer's halo slots.
    /// Blockwise by construction — the inner loop is a contiguous copy.
    pub fn exchange(&self, locals: &mut [Vec<f64>]) {
        for r in &self.regions {
            for (k, &t) in r.consumers.iter().enumerate() {
                let (src_tile, rest) = if r.owner < t {
                    let (a, b) = locals.split_at_mut(t);
                    (&a[r.owner], &mut b[0])
                } else {
                    let (a, b) = locals.split_at_mut(r.owner);
                    (&b[0], &mut a[t])
                };
                let src = &src_tile[r.src_start..r.src_start + r.len()];
                let dst = &mut rest[r.dst_starts[k]..r.dst_starts[k] + r.len()];
                dst.copy_from_slice(src);
            }
        }
    }

    /// Total halo communication volume in elements (sum over regions of
    /// region size × number of consumers).
    pub fn exchange_volume(&self) -> usize {
        self.regions.iter().map(|r| r.len() * r.consumers.len()).sum()
    }

    /// Number of blockwise copies in one exchange (regions × consumers) —
    /// versus `exchange_volume()` copies for the naive per-cell scheme.
    pub fn num_block_copies(&self) -> usize {
        self.regions.iter().map(|r| r.consumers.len()).sum()
    }
}

/// Step 1 of [`HaloDecomposition::build`]: for every cell `j`, the sorted
/// set of foreign tiles that reference it (row `i` referencing column `j`
/// means `owner(i)` needs cell `j`), as a CSR `(ptr, tiles)` over cells built
/// in two counting passes. Tiles are visited in ascending order and
/// `seen[j]` holds the last tile that counted cell `j`, so every set comes
/// out sorted and without duplicates.
fn consumer_sets(a: &CsrMatrix, part: &Partition) -> (Vec<usize>, Vec<u32>) {
    fn visit(a: &CsrMatrix, part: &Partition, seen: &mut [u32], mut f: impl FnMut(usize, u32)) {
        seen.fill(u32::MAX);
        for (t, rows) in part.parts.iter().enumerate() {
            let t = t as u32;
            for &i in rows {
                for &c in &a.col_idx[a.row_ptr[i]..a.row_ptr[i + 1]] {
                    let j = c as usize;
                    if part.owner[j] != t && seen[j] != t {
                        seen[j] = t;
                        f(j, t);
                    }
                }
            }
        }
    }
    let n = a.nrows;
    let mut seen = vec![0u32; n];
    // Pass 1 counts each set's size into ptr[j + 1]; the prefix sum turns
    // the counts into starts.
    let mut ptr = vec![0usize; n + 1];
    visit(a, part, &mut seen, |j, _| ptr[j + 1] += 1);
    let mut sum = 0;
    for p in &mut ptr {
        sum += *p;
        *p = sum;
    }
    // Pass 2 fills, advancing ptr[j] to the end of set j; shifting by one
    // restores the starts.
    let mut tiles = vec![0u32; ptr[n]];
    visit(a, part, &mut seen, |j, t| {
        tiles[ptr[j]] = t;
        ptr[j] += 1;
    });
    ptr.copy_within(0..n, 1);
    ptr[0] = 0;
    (ptr, tiles)
}

/// Global → local column renumbering, one tile at a time. One map serves
/// every tile: entering a tile writes the local index of each of its owned
/// and halo cells, stamped with the tile, so nothing is cleared between
/// tiles and "neither owned nor halo" is a stamp mismatch.
pub struct LocalColumns<'h> {
    halo: &'h HaloDecomposition,
    /// `slot[j]`: (tile + 1) << 32 | cell `j`'s local index in that tile, for
    /// the tile that stamped it last (0: never stamped). One load per entry.
    slot: Vec<u64>,
    /// The current tile + 1.
    tile: u32,
    /// The renumbered row [`LocalColumns::row`] returns, reused.
    row: Vec<(u32, f64)>,
}

impl LocalColumns<'_> {
    /// Make tile `t`'s layout the target of [`LocalColumns::row`].
    pub fn enter(&mut self, t: usize) {
        self.tile = t as u32 + 1;
        let layout = &self.halo.layouts[t];
        for (local, &cell) in layout.owned.iter().chain(&layout.halo).enumerate() {
            self.slot[cell] = (self.tile as u64) << 32 | local as u64;
        }
    }

    /// Row `row` of `a` with its columns renumbered into the current tile's
    /// layout, sorted by local column. Panics if the row references a
    /// column that is neither owned by nor in the halo of that tile.
    #[inline]
    pub fn row(&mut self, a: &CsrMatrix, row: usize) -> &[(u32, f64)] {
        let (cols, vals) = a.row(row);
        self.row.clear();
        for (&c, &v) in cols.iter().zip(vals) {
            let slot = self.slot[c as usize];
            assert!(slot >> 32 == self.tile as u64, "referenced column neither owned nor halo");
            self.row.push((slot as u32, v));
        }
        self.row.sort_unstable_by_key(|e| e.0);
        &self.row
    }
}

/// The decomposition as it was built before the counting passes, kept as
/// the oracle the dense-array builders must reproduce exactly.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::HashMap;

    use super::*;

    type Groups = HashMap<(u32, Vec<u32>), Vec<usize>>;

    /// `HaloDecomposition::build`: per-cell consumer `Vec`s and a hash map
    /// of (owner, consumer set) groups.
    pub(crate) fn build(a: &CsrMatrix, part: &Partition) -> HaloDecomposition {
        assert_eq!(a.nrows, part.num_rows());
        assert_eq!(a.nrows, a.ncols, "halo decomposition requires a square matrix");
        let num_tiles = part.num_parts();

        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); a.nrows];
        for i in 0..a.nrows {
            let ti = part.owner[i];
            let (cols, _) = a.row(i);
            for &c in cols {
                let j = c as usize;
                let tj = part.owner[j];
                if ti != tj && !consumers[j].contains(&ti) {
                    consumers[j].push(ti);
                }
            }
        }
        for c in &mut consumers {
            c.sort_unstable();
        }

        let mut groups: Groups = HashMap::new();
        for (j, cons) in consumers.iter().enumerate() {
            if !cons.is_empty() {
                groups.entry((part.owner[j], cons.clone())).or_default().push(j);
            }
        }
        let mut keyed: Vec<_> = groups.into_iter().collect();
        keyed.sort_by(|x, y| x.0.cmp(&y.0));
        for (_, cells) in &mut keyed {
            cells.sort_unstable();
        }

        let mut is_separator = vec![false; a.nrows];
        for (_, cells) in &keyed {
            for &c in cells {
                is_separator[c] = true;
            }
        }
        let mut layouts: Vec<TileLayout> = (0..num_tiles)
            .map(|t| {
                let interior: Vec<usize> =
                    part.rows_of(t).iter().copied().filter(|&r| !is_separator[r]).collect();
                TileLayout { num_interior: interior.len(), owned: interior, halo: Vec::new() }
            })
            .collect();

        let mut regions: Vec<Region> = Vec::with_capacity(keyed.len());
        for ((owner, cons), cells) in keyed {
            let owner = owner as usize;
            let src_start = layouts[owner].owned.len();
            layouts[owner].owned.extend_from_slice(&cells);
            let mut dst_starts = Vec::with_capacity(cons.len());
            for &t in &cons {
                let t = t as usize;
                dst_starts.push(layouts[t].halo.len());
                layouts[t].halo.extend_from_slice(&cells);
            }
            regions.push(Region {
                owner,
                consumers: cons.iter().map(|&t| t as usize).collect(),
                cells,
                src_start,
                dst_starts,
            });
        }
        for r in &mut regions {
            for (k, &t) in r.consumers.iter().enumerate() {
                r.dst_starts[k] += layouts[t].owned.len();
            }
        }

        let mut owner_slot = vec![(0u32, 0u32); a.nrows];
        for (t, layout) in layouts.iter().enumerate() {
            for (local, &row) in layout.owned.iter().enumerate() {
                owner_slot[row] = (t as u32, local as u32);
            }
        }

        HaloDecomposition { layouts, regions, owner_slot }
    }

    /// `HaloDecomposition::local_matrices`: a hash-map column map per tile
    /// and a `Vec` per row.
    pub(crate) fn local_matrices(h: &HaloDecomposition, a: &CsrMatrix) -> Vec<LocalMatrix> {
        h.layouts
            .iter()
            .map(|layout| {
                let mut col_map: HashMap<usize, u32> = HashMap::with_capacity(layout.local_len());
                for (local, &row) in layout.owned.iter().enumerate() {
                    col_map.insert(row, local as u32);
                }
                for (k, &row) in layout.halo.iter().enumerate() {
                    col_map.insert(row, (layout.owned.len() + k) as u32);
                }
                let mut row_ptr = Vec::with_capacity(layout.owned.len() + 1);
                let mut col_idx = Vec::new();
                let mut values = Vec::new();
                row_ptr.push(0);
                for &row in &layout.owned {
                    let (cols, vals) = a.row(row);
                    let mut entries: Vec<(u32, f64)> = cols
                        .iter()
                        .zip(vals)
                        .map(|(c, v)| {
                            let lc = *col_map
                                .get(&(*c as usize))
                                .expect("referenced column neither owned nor halo");
                            (lc, *v)
                        })
                        .collect();
                    entries.sort_unstable_by_key(|e| e.0);
                    for (c, v) in entries {
                        col_idx.push(c);
                        values.push(v);
                    }
                    row_ptr.push(col_idx.len());
                }
                LocalMatrix {
                    a: CsrMatrix {
                        nrows: layout.owned.len(),
                        ncols: layout.local_len(),
                        row_ptr,
                        col_idx,
                        values,
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::gen::{poisson_2d_5pt, poisson_3d_7pt, Grid3};

    /// The paper's Fig 3 setting: an 8x8 mesh on four tiles (2x2 boxes).
    fn fig3() -> (CsrMatrix, Partition, HaloDecomposition) {
        let a = poisson_2d_5pt(8, 8, 1.0);
        let p = Partition::grid_2d(8, 8, 2, 2);
        let h = HaloDecomposition::build(&a, &p);
        (a, p, h)
    }

    #[test]
    fn fig3_cell_classification() {
        let (_, p, h) = fig3();
        // Tile 0 owns the lower-left 4x4 box (rows y<4, x<4).
        // Cell (0,0) = row 0: interior. Cell (3,3) = row 27: separator.
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(h.cell_kind(0, 0), CellKind::Interior);
        let idx = |x: usize, y: usize| y * 8 + x;
        assert_eq!(h.cell_kind(0, idx(3, 3)), CellKind::Separator);
        assert_eq!(h.cell_kind(0, idx(3, 0)), CellKind::Separator); // right edge
        assert_eq!(h.cell_kind(0, idx(4, 0)), CellKind::Halo); // tile 1's left edge
        assert_eq!(h.cell_kind(0, idx(7, 7)), CellKind::Foreign); // far corner
    }

    #[test]
    fn fig3_region_structure() {
        let (_, _, h) = fig3();
        // With a 5-point stencil, each tile's separator cells split into:
        // right-edge region {consumer: right neighbour} (4 cells),
        // top-edge region {consumer: top neighbour} (4 cells).
        // The corner cell is in BOTH edge sets?? No: 5-point has no
        // diagonal neighbours, so corner cell (3,3) of tile 0 is needed by
        // tile 1 (via (4,3)) and tile 2 (via (3,4)) -> its own region with
        // two consumers.
        let tile0: Vec<&Region> = h.regions.iter().filter(|r| r.owner == 0).collect();
        assert_eq!(tile0.len(), 3, "{tile0:#?}");
        let mut sizes: Vec<(usize, Vec<usize>)> =
            tile0.iter().map(|r| (r.len(), r.consumers.clone())).collect();
        sizes.sort();
        assert_eq!(sizes[0], (1, vec![1, 2])); // corner broadcast region
        assert_eq!(sizes[1], (3, vec![1]));
        assert_eq!(sizes[2], (3, vec![2]));
        // Total: 4 tiles x 3 regions.
        assert_eq!(h.regions.len(), 12);
    }

    #[test]
    fn layout_is_interior_then_separators_then_halo() {
        let (_, _, h) = fig3();
        let l = &h.layouts[0];
        assert_eq!(l.owned.len(), 16);
        assert_eq!(l.num_interior, 9); // 3x3 interior of a 4x4 box
                                       // From each of the two neighbours: a 3-cell edge region plus that
                                       // neighbour's own corner-broadcast region.
        assert_eq!(l.halo.len(), 8);
        assert_eq!(l.local_len(), 24);
    }

    #[test]
    fn consistent_ordering_between_src_and_dst() {
        let (_, _, h) = fig3();
        for r in &h.regions {
            // Source slice in the owner's layout holds exactly r.cells in
            // order.
            let owner = &h.layouts[r.owner];
            assert_eq!(&owner.owned[r.src_start..r.src_start + r.len()], &r.cells[..]);
            // Every destination slice holds the same cells in the same
            // order.
            for (k, &t) in r.consumers.iter().enumerate() {
                let cons = &h.layouts[t];
                let off = r.dst_starts[k] - cons.owned.len();
                assert_eq!(&cons.halo[off..off + r.len()], &r.cells[..]);
            }
        }
    }

    #[test]
    fn exchange_then_local_spmv_matches_global() {
        let (a, _, h) = fig3();
        let x: Vec<f64> = (0..a.nrows).map(|i| (i as f64 * 0.37).sin()).collect();
        let want = a.spmv_alloc(&x);

        let locals_mats = h.local_matrices(&a);
        // Start with owned values only; halo slots stale.
        let mut locals: Vec<Vec<f64>> = h
            .layouts
            .iter()
            .map(|l| {
                let mut v: Vec<f64> = l.owned.iter().map(|&r| x[r]).collect();
                v.extend(std::iter::repeat_n(f64::NAN, l.halo.len()));
                v
            })
            .collect();
        h.exchange(&mut locals);
        let mut ys: Vec<Vec<f64>> = Vec::new();
        for (t, lm) in locals_mats.iter().enumerate() {
            let mut y = vec![0.0; lm.a.nrows];
            lm.a.spmv(&locals[t], &mut y);
            ys.push(y);
        }
        let got = h.gather(&ys);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let a = poisson_3d_7pt(6, 6, 6);
        let p = Partition::grid_3d(Grid3 { nx: 6, ny: 6, nz: 6 }, 2, 2, 2);
        let h = HaloDecomposition::build(&a, &p);
        let x: Vec<f64> = (0..a.nrows).map(|i| i as f64).collect();
        let locals = h.scatter(&x);
        // Halo slots must hold the owner's values after scatter.
        for (t, l) in h.layouts.iter().enumerate() {
            for (k, &row) in l.halo.iter().enumerate() {
                assert_eq!(locals[t][l.owned.len() + k], x[row]);
            }
        }
        assert_eq!(h.gather(&locals), x);
    }

    #[test]
    fn blockwise_far_fewer_copies_than_per_cell() {
        let a = poisson_3d_7pt(12, 12, 12);
        let p = Partition::grid_3d(Grid3 { nx: 12, ny: 12, nz: 12 }, 2, 2, 2);
        let h = HaloDecomposition::build(&a, &p);
        // A 6x6x6 box face has 36 separator cells -> regions collapse the
        // per-cell copies by several times (faces dominate; edge strips are
        // smaller regions).
        assert!(
            h.num_block_copies() * 5 <= h.exchange_volume(),
            "copies {} volume {}",
            h.num_block_copies(),
            h.exchange_volume()
        );
    }

    #[test]
    fn single_tile_has_no_regions() {
        let a = poisson_2d_5pt(5, 5, 1.0);
        let p = Partition::contiguous(25, 1);
        let h = HaloDecomposition::build(&a, &p);
        assert!(h.regions.is_empty());
        assert_eq!(h.layouts[0].num_interior, 25);
        assert_eq!(h.exchange_volume(), 0);
    }

    #[test]
    fn every_halo_cell_is_someones_separator() {
        let (_, p, h) = fig3();
        for (t, l) in h.layouts.iter().enumerate() {
            for &row in &l.halo {
                let owner = p.owner_of(row);
                assert_ne!(owner, t);
                assert_eq!(h.cell_kind(owner, row), CellKind::Separator);
            }
        }
    }

    /// `a` with every entry (i, j) for which `keep(i, j)` is false removed.
    fn filtered(a: &CsrMatrix, keep: impl Fn(usize, usize) -> bool) -> CsrMatrix {
        let mut row_ptr = vec![0];
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for i in 0..a.nrows {
            let (cols, vals) = a.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if keep(i, c as usize) {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { row_ptr, col_idx, values, ..a.clone() }
    }

    /// The decomposition, its local matrices and their level sets are
    /// exactly what the oracle builds.
    fn assert_matches_oracle(a: &CsrMatrix, part: &Partition) {
        use crate::levelset::{LevelSets, Sweep};
        let (got, want) = (HaloDecomposition::build(a, part), oracle::build(a, part));
        assert_eq!(got.layouts, want.layouts);
        assert_eq!(got.regions, want.regions);
        assert_eq!(got.owner_slot, want.owner_slot);
        let (got, want) = (got.local_matrices(a), oracle::local_matrices(&want, a));
        assert_eq!(got, want);
        for (g, w) in got.iter().zip(&want) {
            let bits = |m: &LocalMatrix| m.a.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w));
            for sweep in [Sweep::Forward, Sweep::Backward] {
                let levels = LevelSets::analyze(&g.a, sweep);
                assert_eq!(levels, crate::levelset::tests::analyze_oracle(&w.a, sweep));
            }
        }
    }

    /// A random SPD matrix (and, for the grid family, its grid) under one
    /// of the three partition families, with some rows stripped to their
    /// diagonal and, optionally, one tile cut off from every other so that
    /// it has neither separators nor halo.
    fn arb_case() -> impl Strategy<Value = (CsrMatrix, Partition)> {
        let dims = (1usize..6, 1usize..6, 1usize..4);
        ((0usize..3, dims), 1usize..14, any::<u64>(), 0usize..4, any::<bool>()).prop_map(
            |((family, (nx, ny, nz)), parts, seed, diag_only_every, isolate)| {
                let n = nx * ny * nz;
                let a = crate::gen::random_spd(n, 5, seed);
                let part = match family {
                    0 => Partition::contiguous(n, parts),
                    1 => Partition::balanced_by_nnz(&a, parts),
                    _ => {
                        let grid = Grid3 { nx, ny, nz };
                        let p = 1 + parts % 3;
                        Partition::grid_3d(grid, p.min(nx), p.min(ny), (parts % 2 + 1).min(nz))
                    }
                };
                let stripped =
                    |i: usize| diag_only_every > 0 && i.is_multiple_of(diag_only_every + 2);
                let a = filtered(&a, |i, j| i == j || !stripped(i));
                let cut = (seed % part.num_parts() as u64) as u32;
                let a = filtered(&a, |i, j| {
                    !isolate || (part.owner[i] == cut) == (part.owner[j] == cut)
                });
                (a, part)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn dense_builders_match_the_oracle(case in arb_case()) {
            let (a, part) = case;
            assert_matches_oracle(&a, &part);
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
    fn dense_builders_match_the_oracle_on_corner_cases() {
        let spd = crate::gen::random_spd(30, 5, 3);
        // Rows of about 25 entries, 50 with the duplicates: past the length
        // where the row sort stops being an insertion sort.
        let wide = non_canonical(&crate::gen::random_spd(40, 25, 5));
        let (a, _, _) = fig3();
        let cube = poisson_3d_7pt(6, 6, 6);
        let cut_off = filtered(&spd, |i, j| (i < 10) == (j < 10));
        let cases = [
            (spd.clone(), Partition::contiguous(30, 1)),
            (spd.clone(), Partition::contiguous(30, 45)),
            (spd.clone(), Partition::balanced_by_nnz(&spd, 40)),
            (CsrMatrix::identity(12), Partition::contiguous(12, 4)),
            (cut_off, Partition::contiguous(30, 3)),
            (a, Partition::grid_2d(8, 8, 2, 2)),
            (cube.clone(), Partition::grid_3d(Grid3 { nx: 6, ny: 6, nz: 6 }, 3, 2, 2)),
            (cube.clone(), Partition::balanced_by_nnz(&cube, 16)),
            (non_canonical(&cube), Partition::balanced_by_nnz(&cube, 9)),
            (wide, Partition::contiguous(40, 6)),
        ];
        for (a, part) in &cases {
            assert_matches_oracle(a, part);
        }
        // The cut-off case really has a tile with no halo and no separator.
        let h = HaloDecomposition::build(&cases[4].0, &cases[4].1);
        assert!(h.layouts[0].halo.is_empty());
        assert_eq!(h.layouts[0].num_interior, h.layouts[0].owned.len());
        // Parts beyond the rows are empty tiles.
        let h = HaloDecomposition::build(&cases[1].0, &cases[1].1);
        assert!(h.layouts.iter().any(|l| l.local_len() == 0));
    }
}
