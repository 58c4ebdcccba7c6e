//! Distributed-vs-host consistency: every device kernel must compute the
//! same values as a straightforward host implementation (up to working
//! precision), for a variety of matrices and decompositions.

use std::rc::Rc;

use graphene::dsl::prelude::*;
use graphene::graphene_core::dist::DistSystem;
use graphene::graphene_core::solvers::{zero, GaussSeidel, Ilu0, Jacobi, Solver};
use graphene::sparse::formats::CsrMatrix;
use graphene::sparse::gen;
use graphene::sparse::partition::Partition;

/// Each test below that runs a program runs it under both dispatch routes
/// of the engine.
const ENGINES: [EngineOptions; 2] = EngineOptions::ALL;

fn build(a: &Rc<CsrMatrix>, tiles: usize) -> (DslCtx, DistSystem, TensorRef, TensorRef) {
    let part = Partition::balanced_by_nnz(a, tiles);
    let mut ctx = DslCtx::new(IpuModel::tiny(tiles));
    let sys = DistSystem::build(&mut ctx, a.clone(), part);
    let b = sys.new_vector(&mut ctx, "b", DType::F32);
    let x = sys.new_vector(&mut ctx, "x", DType::F32);
    (ctx, sys, b, x)
}

#[test]
fn spmv_matches_host_across_decompositions() {
    for o in ENGINES {
        let matrices: Vec<CsrMatrix> = vec![
            gen::poisson_2d_5pt(9, 7, 1.0),
            gen::poisson_3d_7pt(5, 4, 6),
            gen::random_spd(60, 9, 17),
            gen::tridiagonal(41),
        ];
        for a in matrices {
            let a = Rc::new(a);
            let xs = gen::random_vector(a.nrows, 23);
            let want = a.spmv_alloc(&xs);
            for tiles in [1usize, 3, 7] {
                let (mut ctx, sys, _b, x) = build(&a, tiles);
                let y = sys.new_vector(&mut ctx, "y", DType::F32);
                sys.spmv(&mut ctx, y, x);
                let mut e = ctx.build_engine_on(o).unwrap();
                sys.upload(&mut e);
                e.write_tensor(x.id, &sys.to_device_order(&xs));
                e.run();
                let got = sys.from_device_order(&e.read_tensor(y.id));
                let scale: f64 = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() / scale < 1e-5,
                        "{} rows, {tiles} tiles: {g} vs {w}",
                        a.nrows
                    );
                }
            }
        }
    }
}

/// Host Gauss-Seidel restricted to tile-local updates (the block-hybrid
/// sweep the device performs): within the sweep, off-tile values stay at
/// their pre-sweep snapshot.
fn host_block_gs(a: &CsrMatrix, part: &Partition, b: &[f64], x: &mut [f64]) {
    let snapshot = x.to_vec();
    // The device sweeps each tile's rows in its local (reordered) order;
    // level-set order is equivalent to any topological order of the local
    // dependency DAG, which the local row order is NOT in general — but
    // the fixed point is the same and one sweep differs only via
    // local-vs-global ordering. To compare exactly, mirror the device's
    // local ordering.
    let halo = graphene::sparse::halo::HaloDecomposition::build(a, part);
    for (t, layout) in halo.layouts.iter().enumerate() {
        let _ = t;
        // Process in level order of the local matrix, exactly like the
        // device.
        let lm = &halo.local_matrices(a)[t];
        let levels = graphene::sparse::levelset::LevelSets::analyze(
            &lm.a,
            graphene::sparse::levelset::Sweep::Forward,
        );
        for level in &levels.levels {
            for &li in level {
                let row = layout.owned[li];
                let (cols, vals) = a.row(row);
                let mut acc = b[row];
                let mut diag = 0.0;
                for (c, v) in cols.iter().zip(vals) {
                    let j = *c as usize;
                    if j == row {
                        diag = *v;
                    } else if part.owner_of(j) == t {
                        acc -= v * x[j]; // local: possibly updated
                    } else {
                        acc -= v * snapshot[j]; // halo: pre-sweep value
                    }
                }
                x[row] = acc / diag;
            }
        }
    }
}

#[test]
fn gauss_seidel_sweep_matches_host_reference() {
    for o in ENGINES {
        let a = Rc::new(gen::poisson_2d_5pt(8, 8, 1.0));
        let part = Partition::balanced_by_nnz(&a, 3);
        let bs = gen::random_vector(a.nrows, 2);
        let x0 = gen::random_vector(a.nrows, 4);

        let mut ctx = DslCtx::new(IpuModel::tiny(3));
        let sys = DistSystem::build(&mut ctx, a.clone(), part.clone());
        let b = sys.new_vector(&mut ctx, "b", DType::F32);
        let x = sys.new_vector(&mut ctx, "x", DType::F32);
        let mut gs = GaussSeidel::new(1, false);
        gs.setup(&mut ctx, &sys);
        gs.solve(&mut ctx, &sys, b, x);
        let mut e = ctx.build_engine_on(o).unwrap();
        sys.upload(&mut e);
        e.write_tensor(b.id, &sys.to_device_order(&bs));
        e.write_tensor(x.id, &sys.to_device_order(&x0));
        e.run();
        let got = sys.from_device_order(&e.read_tensor(x.id));

        // Host reference in f64 with the same blocking: f32 rounding bounds
        // the difference.
        let mut want = x0.clone();
        host_block_gs(&a, &part, &bs, &mut want);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }
}

#[test]
fn gs_sweeps_reduce_residual_monotonically() {
    for o in ENGINES {
        let a = Rc::new(gen::poisson_2d_5pt(10, 10, 1.0));
        let bs = gen::rhs_for_ones(&a);
        let mut prev = f64::INFINITY;
        for sweeps in [1u32, 4, 16] {
            let (mut ctx, sys, b, x) = build(&a, 4);
            let mut gs = GaussSeidel::new(sweeps, false);
            gs.setup(&mut ctx, &sys);
            gs.solve(&mut ctx, &sys, b, x);
            let mut e = ctx.build_engine_on(o).unwrap();
            sys.upload(&mut e);
            e.write_tensor(b.id, &sys.to_device_order(&bs));
            e.run();
            let got = sys.from_device_order(&e.read_tensor(x.id));
            let r: f64 = a
                .spmv_alloc(&got)
                .iter()
                .zip(&bs)
                .map(|(ax, b)| (ax - b) * (ax - b))
                .sum::<f64>()
                .sqrt();
            assert!(r < prev, "sweeps {sweeps}: {r} !< {prev}");
            prev = r;
        }
    }
}

#[test]
fn jacobi_matches_host_reference() {
    for o in ENGINES {
        let a = Rc::new(gen::random_spd(40, 5, 99));
        let bs = gen::random_vector(40, 1);
        let (mut ctx, sys, b, x) = build(&a, 2);
        let mut j = Jacobi::new(3, 0.8);
        j.setup(&mut ctx, &sys);
        zero(&mut ctx, x);
        j.solve(&mut ctx, &sys, b, x);
        let mut e = ctx.build_engine_on(o).unwrap();
        sys.upload(&mut e);
        e.write_tensor(b.id, &sys.to_device_order(&bs));
        e.run();
        let got = sys.from_device_order(&e.read_tensor(x.id));

        // Host: x <- x + w D^-1 (b - A x), 3 times from zero.
        let diag = a.diagonal();
        let mut want = vec![0.0; 40];
        for _ in 0..3 {
            let ax = a.spmv_alloc(&want);
            for i in 0..40 {
                want[i] += 0.8 * (bs[i] - ax[i]) / diag[i];
            }
        }
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }
}

#[test]
fn ilu_preconditioner_is_linear_operator() {
    for o in ENGINES {
        // M^-1(alpha r1 + r2) == alpha M^-1 r1 + M^-1 r2 (up to f32): the
        // breakdown-investigation invariant — the preconditioner must be a
        // fixed linear operator.
        let a = Rc::new(gen::poisson_2d_5pt(7, 7, 1.0));
        let apply = |rhs: &[f64]| -> Vec<f64> {
            let (mut ctx, sys, b, x) = build(&a, 3);
            let mut ilu = Ilu0::new();
            ilu.setup(&mut ctx, &sys);
            zero(&mut ctx, x);
            ilu.solve(&mut ctx, &sys, b, x);
            let mut e = ctx.build_engine_on(o).unwrap();
            sys.upload(&mut e);
            e.write_tensor(b.id, &sys.to_device_order(rhs));
            e.run();
            sys.from_device_order(&e.read_tensor(x.id))
        };
        let r1 = gen::random_vector(49, 6);
        let r2 = gen::random_vector(49, 7);
        let combo: Vec<f64> = r1.iter().zip(&r2).map(|(a, b)| 2.5 * a + b).collect();
        let m1 = apply(&r1);
        let m2 = apply(&r2);
        let mc = apply(&combo);
        for i in 0..49 {
            let lin = 2.5 * m1[i] + m2[i];
            assert!((mc[i] - lin).abs() < 1e-3, "row {i}: {} vs {lin}", mc[i]);
        }
    }
}

#[test]
fn dilu_matches_host_reference_single_tile() {
    for o in ENGINES {
        // DILU on one tile vs a host implementation of
        // M = (D+L) D⁻¹ (D+U) with d_i = a_ii − Σ_{k<i} a_ik a_ki / d_k.
        let a = Rc::new(gen::random_spd(30, 6, 55));
        let rhs = gen::random_vector(30, 3);
        let (mut ctx, sys, b, x) = build(&a, 1);
        let mut dilu = graphene::graphene_core::solvers::Dilu::new();
        dilu.setup(&mut ctx, &sys);
        zero(&mut ctx, x);
        dilu.solve(&mut ctx, &sys, b, x);
        let mut e = ctx.build_engine_on(o).unwrap();
        sys.upload(&mut e);
        e.write_tensor(b.id, &sys.to_device_order(&rhs));
        e.run();
        let got = sys.from_device_order(&e.read_tensor(x.id));

        // Host reference.
        let n = 30;
        let mut d = a.diagonal();
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (c, v) in cols.iter().zip(vals) {
                let k = *c as usize;
                if k < i {
                    let aki = a.get(k, i);
                    d[i] -= v * aki / d[k];
                }
            }
        }
        // Forward: w_i = (b_i - Σ_{j<i} a_ij w_j) / d_i.
        let mut w = vec![0.0; n];
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let mut acc = rhs[i];
            for (c, v) in cols.iter().zip(vals) {
                let j = *c as usize;
                if j < i {
                    acc -= v * w[j];
                }
            }
            w[i] = acc / d[i];
        }
        // Backward: z_i = w_i - (Σ_{j>i} a_ij z_j) / d_i.
        let mut z = w.clone();
        for i in (0..n).rev() {
            let (cols, vals) = a.row(i);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                let j = *c as usize;
                if j > i {
                    acc += v * z[j];
                }
            }
            z[i] = w[i] - acc / d[i];
        }
        for (g, want) in got.iter().zip(&z) {
            assert!((g - want).abs() < 1e-3 * (1.0 + want.abs()), "{g} vs {want}");
        }
    }
}

#[test]
fn symmetric_gs_at_least_as_good_per_sweep() {
    for o in ENGINES {
        let a = Rc::new(gen::poisson_2d_5pt(9, 9, 1.0));
        let bs = gen::rhs_for_ones(&a);
        let residual_after = |symmetric: bool| -> f64 {
            let (mut ctx, sys, b, x) = build(&a, 2);
            let mut gs = GaussSeidel::new(2, symmetric);
            gs.setup(&mut ctx, &sys);
            gs.solve(&mut ctx, &sys, b, x);
            let mut e = ctx.build_engine_on(o).unwrap();
            sys.upload(&mut e);
            e.write_tensor(b.id, &sys.to_device_order(&bs));
            e.run();
            let got = sys.from_device_order(&e.read_tensor(x.id));
            a.spmv_alloc(&got)
                .iter()
                .zip(&bs)
                .map(|(ax, b)| (ax - b) * (ax - b))
                .sum::<f64>()
                .sqrt()
        };
        let fwd = residual_after(false);
        let sym = residual_after(true);
        assert!(sym < fwd, "symmetric {sym} vs forward {fwd}");
    }
}

#[test]
fn halo_exchange_refreshes_all_copies() {
    for o in ENGINES {
        let a = Rc::new(gen::poisson_3d_7pt(6, 6, 6));
        let part = Partition::grid_3d(gen::Grid3 { nx: 6, ny: 6, nz: 6 }, 2, 2, 2);
        let mut ctx = DslCtx::new(IpuModel::tiny(8));
        let sys = DistSystem::build(&mut ctx, a.clone(), part);
        let x = sys.new_vector(&mut ctx, "x", DType::F32);
        sys.halo_exchange(&mut ctx, x);
        let mut e = ctx.build_engine_on(o).unwrap();
        sys.upload(&mut e);
        // Owned values = global index; halo slots poisoned.
        let xs: Vec<f64> = (0..a.nrows).map(|i| i as f64).collect();
        let mut dev = sys.to_device_order(&xs);
        for vc in &sys.vec_chunks {
            for k in vc.owned..vc.total {
                dev[vc.start + k] = -1.0;
            }
        }
        e.write_tensor(x.id, &dev);
        e.run();
        let after = e.read_tensor(x.id);
        for (t, vc) in sys.vec_chunks.iter().enumerate() {
            for (k, &row) in sys.halo.layouts[t].halo.iter().enumerate() {
                assert_eq!(after[vc.start + vc.owned + k], row as f64, "tile {t} halo slot {k}");
            }
        }
    }
}
