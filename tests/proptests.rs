//! Property-based tests on the core data structures and numerical
//! invariants, spanning crates.

use proptest::prelude::*;

use graphene::sparse::formats::{CooMatrix, CsrMatrix};
use graphene::sparse::halo::HaloDecomposition;
use graphene::sparse::levelset::{LevelSets, Sweep};
use graphene::sparse::partition::Partition;
use graphene::twofloat::{joldes, lange_rump, SoftDouble, TwoF32, TwoFloat};

// ---------------------------------------------------------------------
// twofloat: double-word arithmetic vs f64 reference
// ---------------------------------------------------------------------

fn reasonable_f64() -> impl Strategy<Value = f64> {
    // Well inside f32 range so intermediate products stay finite.
    prop_oneof![-1e12f64..1e12, -1.0f64..1.0, (-1e-12f64..1e-12).prop_map(|v| v + 1e-30),]
}

proptest! {
    #[test]
    fn dw_add_matches_f64(x in reasonable_f64(), y in reasonable_f64()) {
        let a = TwoF32::from_f64(x);
        let b = TwoF32::from_f64(y);
        let want = a.to_f64() + b.to_f64();
        let got = (a + b).to_f64();
        let scale = want.abs().max(a.to_f64().abs()).max(b.to_f64().abs()).max(1e-300);
        // Joldes bound: ~3u^2 relative to the operand scale (catastrophic
        // cancellation reduces relative accuracy of the *result*, not of
        // the representation).
        prop_assert!((got - want).abs() / scale < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn dw_mul_matches_f64(x in reasonable_f64(), y in reasonable_f64()) {
        let a = TwoF32::from_f64(x);
        let b = TwoF32::from_f64(y);
        let want = a.to_f64() * b.to_f64();
        let got = (a * b).to_f64();
        prop_assert!((got - want).abs() <= want.abs() * 1e-12 + 1e-300);
    }

    #[test]
    fn dw_div_matches_f64(x in reasonable_f64(), y in reasonable_f64()) {
        prop_assume!(y.abs() > 1e-6);
        let a = TwoF32::from_f64(x);
        let b = TwoF32::from_f64(y);
        let want = a.to_f64() / b.to_f64();
        let got = (a / b).to_f64();
        prop_assert!((got - want).abs() <= want.abs() * 1e-11 + 1e-300);
    }

    #[test]
    fn dw_results_always_normalised(x in reasonable_f64(), y in reasonable_f64()) {
        let a = TwoF32::from_f64(x);
        let b = TwoF32::from_f64(y);
        for r in [a + b, a - b, a * b] {
            // Normalised pair: hi + lo rounds to hi.
            prop_assert_eq!(r.hi() + r.lo(), r.hi());
        }
    }

    #[test]
    fn lange_rump_faithful_per_op(x in reasonable_f64(), y in reasonable_f64()) {
        let a = TwoF32::from_f64(x);
        let b = TwoF32::from_f64(y);
        let (h, l) = lange_rump::mul_dw_dw(a.hi(), a.lo(), b.hi(), b.lo());
        let want = a.to_f64() * b.to_f64();
        let got = h as f64 + l as f64;
        prop_assert!((got - want).abs() <= want.abs() * 1e-10 + 1e-300);
    }

    #[test]
    fn joldes_mixed_ops_match_full(x in reasonable_f64(), y in -1e6f32..1e6f32) {
        let a = TwoF32::from_f64(x);
        let full = a * TwoFloat::from_f(y);
        let (h, l) = joldes::mul_dw_f(a.hi(), a.lo(), y);
        let mixed = h as f64 + l as f64;
        prop_assert!((mixed - full.to_f64()).abs() <= full.to_f64().abs() * 1e-11 + 1e-300);
    }

    #[test]
    fn softdouble_is_transparent_f64(x in any::<f64>(), y in any::<f64>()) {
        prop_assume!(x.is_finite() && y.is_finite());
        prop_assert_eq!((SoftDouble(x) + SoftDouble(y)).0, x + y);
        prop_assert_eq!((SoftDouble(x) * SoftDouble(y)).0, x * y);
    }
}

// ---------------------------------------------------------------------
// sparse: structural invariants
// ---------------------------------------------------------------------

fn arb_coo(max_n: usize, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -10.0f64..10.0), 1..max_nnz).prop_map(
            move |entries| {
                let mut coo = CooMatrix::new(n, n);
                for (r, c, v) in entries {
                    coo.push(r, c, v);
                }
                coo
            },
        )
    })
}

/// A random SPD-ish matrix (symmetric pattern, dominant diagonal) with a
/// full diagonal — what the partition/halo machinery expects.
fn arb_spd(max_n: usize) -> impl Strategy<Value = CsrMatrix> {
    (4usize..max_n, any::<u64>())
        .prop_map(|(n, seed)| graphene::sparse::gen::random_spd(n, 5, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coo_csr_preserves_sums(coo in arb_coo(30, 120)) {
        let csr = coo.to_csr();
        // Row sums must match the triplet sums.
        let mut want = vec![0.0f64; coo.nrows];
        for &(r, _, v) in &coo.entries {
            want[r as usize] += v;
        }
        for (i, want) in want.iter().enumerate().take(csr.nrows) {
            let (_, vals) = csr.row(i);
            let got: f64 = vals.iter().sum();
            prop_assert!((got - want).abs() < 1e-9);
        }
        // Columns sorted, in range.
        for i in 0..csr.nrows {
            let (cols, _) = csr.row(i);
            for w in cols.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            if let Some(&c) = cols.last() {
                prop_assert!((c as usize) < csr.ncols);
            }
        }
    }

    #[test]
    fn transpose_is_involution(coo in arb_coo(25, 100)) {
        let a = coo.to_csr();
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn spmv_is_linear(coo in arb_coo(20, 60), seed in any::<u64>()) {
        let a = coo.to_csr();
        let x = graphene::sparse::gen::random_vector(a.ncols, seed);
        let y = graphene::sparse::gen::random_vector(a.ncols, seed ^ 1);
        let axy = a.spmv_alloc(&x.iter().zip(&y).map(|(x, y)| x + y).collect::<Vec<_>>());
        let ax = a.spmv_alloc(&x);
        let ay = a.spmv_alloc(&y);
        for i in 0..a.nrows {
            prop_assert!((axy[i] - ax[i] - ay[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn matrix_market_roundtrip(coo in arb_coo(20, 80)) {
        let a = coo.to_csr();
        let mut buf = Vec::new();
        graphene::sparse::io::write_matrix_market(&mut buf, &a).unwrap();
        let back = graphene::sparse::io::read_matrix_market(&buf[..]).unwrap();
        prop_assert_eq!(a, back);
    }

    #[test]
    fn partition_covers_exactly(a in arb_spd(60), parts in 1usize..9) {
        let p = Partition::balanced_by_nnz(&a, parts);
        prop_assert!(p.validate());
        prop_assert_eq!(p.num_rows(), a.nrows);
        // Every row owned exactly once is implied by validate(); owners in
        // range:
        for &o in &p.owner {
            prop_assert!((o as usize) < parts);
        }
    }

    #[test]
    fn all_partition_families_validate_and_leave_no_part_empty(
        a in arb_spd(60),
        parts in 1usize..9,
    ) {
        // Whenever num_parts <= num_rows, every family must cover all rows
        // exactly once AND give every part at least one row (the
        // balanced_by_nnz empty-tail regression).
        prop_assume!(parts <= a.nrows);
        for (name, p) in [
            ("contiguous", Partition::contiguous(a.nrows, parts)),
            ("balanced_by_nnz", Partition::balanced_by_nnz(&a, parts)),
        ] {
            prop_assert!(p.validate(), "{}: validate() failed", name);
            prop_assert_eq!(p.num_rows(), a.nrows);
            prop_assert_eq!(p.num_parts(), parts);
            for (i, rows) in p.parts.iter().enumerate() {
                prop_assert!(!rows.is_empty(), "{}: part {} of {} empty", name, i, parts);
            }
        }
    }

    #[test]
    fn grid_partitions_validate_and_leave_no_part_empty(
        nx in 2usize..7, ny in 2usize..7, nz in 2usize..7,
        px in 1usize..4, py in 1usize..4, pz in 1usize..4,
    ) {
        prop_assume!(px <= nx && py <= ny && pz <= nz);
        let grid = graphene::sparse::gen::Grid3 { nx, ny, nz };
        let parts = px * py * pz;
        // (px, py, pz) is a witness that `parts` factors within the grid,
        // so the exhaustive auto search must succeed too.
        let p = Partition::try_grid_3d_auto(grid, parts)
            .expect("feasible part count must factor");
        prop_assert!(p.validate());
        prop_assert_eq!(p.num_rows(), grid.num_cells());
        prop_assert_eq!(p.num_parts(), parts);
        for (i, rows) in p.parts.iter().enumerate() {
            prop_assert!(!rows.is_empty(), "grid part {} of {} empty", i, parts);
        }
    }

    #[test]
    fn halo_invariants(a in arb_spd(50), parts in 2usize..6) {
        let p = Partition::balanced_by_nnz(&a, parts);
        let h = HaloDecomposition::build(&a, &p);
        // 1. Consistent ordering between source and destinations.
        for r in &h.regions {
            prop_assert!(!r.is_empty());
            prop_assert!(!r.consumers.contains(&r.owner));
            let owner = &h.layouts[r.owner];
            prop_assert_eq!(&owner.owned[r.src_start..r.src_start + r.len()], &r.cells[..]);
        }
        // 2. Exchange + local SpMV == global SpMV.
        let x = graphene::sparse::gen::random_vector(a.nrows, 5);
        let want = a.spmv_alloc(&x);
        let mats = h.local_matrices(&a);
        let mut locals: Vec<Vec<f64>> = h
            .layouts
            .iter()
            .map(|l| {
                let mut v: Vec<f64> = l.owned.iter().map(|&r| x[r]).collect();
                v.extend(std::iter::repeat_n(0.0, l.halo.len()));
                v
            })
            .collect();
        h.exchange(&mut locals);
        let mut ys = Vec::new();
        for (t, lm) in mats.iter().enumerate() {
            let mut y = vec![0.0; lm.a.nrows];
            lm.a.spmv(&locals[t], &mut y);
            ys.push(y);
        }
        let got = h.gather(&ys);
        for i in 0..a.nrows {
            prop_assert!((got[i] - want[i]).abs() < 1e-9, "{} vs {}", got[i], want[i]);
        }
    }

    #[test]
    fn level_sets_valid_for_any_matrix(a in arb_spd(60)) {
        for sweep in [Sweep::Forward, Sweep::Backward] {
            let ls = LevelSets::analyze(&a, sweep);
            prop_assert!(ls.validate(&a));
            let total: usize = ls.levels.iter().map(Vec::len).sum();
            prop_assert_eq!(total, a.nrows);
        }
    }

    #[test]
    fn symmetric_permutation_preserves_spectrum_proxy(a in arb_spd(30), seed in any::<u64>()) {
        // Frobenius norm and trace are invariant under symmetric
        // permutation.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut perm: Vec<usize> = (0..a.nrows).collect();
        perm.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
        let b = a.permute_symmetric(&perm);
        prop_assert!((a.fro_norm() - b.fro_norm()).abs() < 1e-9);
        let tr_a: f64 = a.diagonal().iter().sum();
        let tr_b: f64 = b.diagonal().iter().sum();
        prop_assert!((tr_a - tr_b).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// device: randomised elementwise programs match host evaluation
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn device_elementwise_matches_host(
        xs in proptest::collection::vec(-100.0f64..100.0, 6..40),
        scale in -4.0f64..4.0,
        tiles in 1usize..5,
    ) {
        use graphene::dsl::prelude::*;
        let n = xs.len();
        let mut ctx = DslCtx::new(IpuModel::tiny(tiles));
        let x = ctx.vector("x", DType::F32, n, tiles);
        let y = ctx.materialize((x * scale as f32 + 1.0f32).abs());
        let mut e = ctx.build_engine().unwrap();
        e.write_tensor(x.id, &xs);
        e.run();
        let got = e.read_tensor(y.id);
        for (g, xv) in got.iter().zip(&xs) {
            let want = (*xv as f32 * scale as f32 + 1.0).abs() as f64;
            prop_assert!((g - want).abs() < 1e-5, "{g} vs {want}");
        }
    }

    #[test]
    fn device_reduce_matches_host(
        xs in proptest::collection::vec(-10.0f64..10.0, 4..64),
        tiles in 1usize..6,
    ) {
        use graphene::dsl::prelude::*;
        let n = xs.len();
        let mut ctx = DslCtx::new(IpuModel::tiny(tiles));
        let x = ctx.vector("x", DType::F32, n, tiles);
        let s = ctx.reduce(x * x);
        let mut e = ctx.build_engine().unwrap();
        e.write_tensor(x.id, &xs);
        e.run();
        let want: f64 = xs.iter().map(|v| {
            let f = *v as f32;
            (f * f) as f64
        }).sum();
        let got = e.read_scalar(s.id);
        prop_assert!((got - want).abs() <= want.abs() * 1e-5 + 1e-5, "{got} vs {want}");
    }
}
