//! Seeded inputs of the four workloads. The seed drives the right-hand
//! sides, the serve job mix and the `random_spd` matrices; the program only
//! ever sees what is generated here.

use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use graphene::graphene_core::config::SolverConfig;
use graphene::graphene_core::runner::SolveOptions;
use graphene::graphene_core::solvers::ExtendedPrecision;
use graphene::ipu_sim::IpuModel;
use graphene::sparse::formats::CsrMatrix;
use graphene::sparse::gen::suitesparse::by_name;
use graphene::sparse::gen::{poisson_2d_5pt, poisson_3d_7pt, random_spd, random_vector};

/// Right-hand sides per system; operations cycle through them, so every
/// `(A, b)` pair recurs and the determinism gate has something to compare.
pub const RHS_PER_SYSTEM: usize = 4;

/// splitmix64: one independent stream per `(seed, lane)`.
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `A` with its values rounded to f32: the system the device actually
/// solves (see `graphene_core::solvers::Monitor`), against which the
/// benchmark recomputes residuals.
pub fn rounded_to_f32(a: &CsrMatrix) -> CsrMatrix {
    let mut r = a.clone();
    for v in &mut r.values {
        *v = *v as f32 as f64;
    }
    r
}

/// One linear system with its solver stack, machine and right-hand sides.
pub struct System {
    pub a: Rc<CsrMatrix>,
    pub a32: CsrMatrix,
    pub config: SolverConfig,
    pub opts: SolveOptions,
    pub rhs: Vec<Vec<f64>>,
}

impl System {
    fn new(a: CsrMatrix, config: SolverConfig, opts: SolveOptions, seed: u64, lane: u64) -> System {
        let rhs = (0..RHS_PER_SYSTEM as u64)
            .map(|k| random_vector(a.nrows, mix(seed, lane * 16 + k)))
            .collect();
        System { a32: rounded_to_f32(&a), a: Rc::new(a), config, opts, rhs }
    }
}

fn machine(model: IpuModel, rows_per_tile: usize) -> SolveOptions {
    SolveOptions { model, rows_per_tile, record_history: false, ..SolveOptions::default() }
}

/// The paper's flagship stack (Fig. 8): MPIR over ILU(0)-preconditioned
/// BiCGStab on the G3_circuit analogue, one M2000.
pub fn fig8_mpir(seed: u64, tiny: bool) -> Vec<System> {
    let (scale, inner) = if tiny { (0.0002, 20) } else { (0.001, 100) };
    let config = SolverConfig::Mpir {
        inner: Box::new(SolverConfig::BiCgStab {
            max_iters: inner,
            rel_tol: 0.0,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        }),
        precision: ExtendedPrecision::DoubleWord,
        max_outer: 60,
        rel_tol: 1e-9,
    };
    vec![System::new(by_name("G3_circuit", scale), config, machine(IpuModel::m2000(), 32), seed, 0)]
}

/// One implicit heat step `(I + 0.3 L) u' = u` on a cube, solved by CG: the
/// prepare-once / execute-many shape of time stepping.
pub fn heat_multi_rhs(seed: u64, tiny: bool) -> Vec<System> {
    let side = if tiny { 8 } else { 32 };
    let mut a = poisson_3d_7pt(side, side, side);
    for row in 0..a.nrows {
        for k in a.row_ptr[row]..a.row_ptr[row + 1] {
            let on_diagonal = a.col_idx[k] as usize == row;
            a.values[k] = 0.3 * a.values[k] + if on_diagonal { 1.0 } else { 0.0 };
        }
    }
    let config = SolverConfig::Cg { max_iters: 100, rel_tol: 1e-6, precond: None };
    vec![System::new(a, config, machine(IpuModel::mk2(), 64), seed, 0)]
}

/// Two large one-shot smoother calls: a structured grid under level-set
/// Gauss-Seidel and an irregular ~20 nnz/row matrix under damped Jacobi.
pub fn cold_oneshot(seed: u64, tiny: bool) -> Vec<System> {
    let (side, scale) = if tiny { (10, 0.001) } else { (40, 0.02) };
    let sgs = SolverConfig::GaussSeidel { sweeps: 1, symmetric: true, rel_tol: 0.0 };
    let jacobi = SolverConfig::Jacobi { sweeps: 2, omega: 2.0 / 3.0 };
    vec![
        System::new(poisson_3d_7pt(side, side, side), sgs, machine(IpuModel::mk2(), 64), seed, 0),
        System::new(by_name("Geo_1438", scale), jacobi, machine(IpuModel::mk2(), 64), seed, 1),
    ]
}

// ----------------------------------------------------------------------
// serve_mix
// ----------------------------------------------------------------------

/// Length of the job cycle: 18 fresh-matrix jobs (every eighth slot) and 14
/// rounds of the nine hot `(matrix, solver)` pairs.
pub const JOB_CYCLE: usize = 144;

/// One job of the cycle. Submitting it twice submits the same `(A, b)`.
pub struct JobTemplate {
    pub tenant: &'static str,
    pub a: Arc<CsrMatrix>,
    /// `true`: a matrix no other job shares. It is submitted under a new
    /// `Arc` every time, which the engine's plan cache sees as a miss.
    pub fresh: bool,
    pub b: Vec<f64>,
    pub config: SolverConfig,
    pub deadline: Option<Duration>,
}

/// The seeded job cycle. Tenants a/b/c are drawn at 50/30/20 %. Seven of
/// eight jobs pair a hot-pool matrix (three of them) with one of three solver
/// stacks at `rel_tol` 1e-6; every eighth brings a fresh `random_spd` matrix,
/// a plan-cache miss. Every twelfth carries a (generous) deadline, which
/// routes it past the plan cache.
///
/// The mix is stratified: the hot jobs come in rounds, each round a seeded
/// permutation of the nine pairs, so every seed offers the same amount of
/// each kind of work and only order, right-hand sides, tenants and the
/// random matrices change. With freely drawn pairs the median round trip
/// moved by a quarter from seed to seed.
pub fn serve_mix(seed: u64) -> Vec<JobTemplate> {
    let hot = [
        Arc::new(poisson_2d_5pt(16, 16, 1.0)),
        Arc::new(random_spd(320, 7, mix(seed, 1))),
        Arc::new(poisson_3d_7pt(6, 6, 6)),
    ];
    let jacobi = SolverConfig::Jacobi { sweeps: 2, omega: 2.0 / 3.0 };
    let solvers = [
        SolverConfig::Cg { max_iters: 300, rel_tol: 1e-6, precond: None },
        SolverConfig::BiCgStab {
            max_iters: 300,
            rel_tol: 1e-6,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        },
        SolverConfig::Cg { max_iters: 300, rel_tol: 1e-6, precond: Some(Box::new(jacobi)) },
    ];
    let mut round: Vec<usize> = Vec::new();
    let (mut fresh_jobs, mut hot_jobs) = (0u64, 0u64);
    (0..JOB_CYCLE as u64)
        .map(|j| {
            let draw = |lane: u64, n: u64| mix(seed, 1000 + j * 8 + lane) % n;
            let tenant = match draw(0, 10) {
                0..=4 => "a",
                5..=7 => "b",
                _ => "c",
            };
            let fresh = j % 8 == 7;
            let (a, solver) = if fresh {
                fresh_jobs += 1;
                (Arc::new(random_spd(200, 5, mix(seed, 1000 + j * 8 + 1))), fresh_jobs as usize % 3)
            } else {
                if round.is_empty() {
                    // Fisher-Yates over the nine pairs, seeded per round.
                    round = (0..9).collect();
                    for i in (1..9).rev() {
                        round.swap(
                            i,
                            (mix(seed, 5000 + hot_jobs * 16 + i as u64) % (i as u64 + 1)) as usize,
                        );
                    }
                }
                hot_jobs += 1;
                let pair = round.pop().expect("refilled above");
                (Arc::clone(&hot[pair / 3]), pair % 3)
            };
            JobTemplate {
                tenant,
                b: random_vector(a.nrows, mix(seed, 1000 + j * 8 + 3)),
                a,
                fresh,
                config: solvers[solver].clone(),
                deadline: (j % 12 == 11).then_some(Duration::from_secs(120)),
            }
        })
        .collect()
}
