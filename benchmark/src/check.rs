//! The benchmark's own correctness checks, independent of what the program
//! reports: a recomputed residual on every operation and a determinism gate
//! over repeated inputs.

use graphene::graphene_core::config::SolverConfig;
use graphene::sparse::formats::CsrMatrix;

/// The acceptance factor on a configured tolerance. The device converges on
/// its recursive f32 residual, whose floor sits slightly above the true one.
const TOLERANCE_FACTOR: f64 = 100.0;
/// How far the recomputed residual of a fixed-budget smoother may sit from
/// the reported one.
const AGREEMENT_FACTOR: f64 = 8.0;

/// ‖b − A x‖₂ / ‖b‖₂ in f64, with `b` rounded to f32 like the device's copy.
/// `a32` is the f32-rounded matrix (`inputs::rounded_to_f32`).
pub fn rel_residual(a32: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a32.spmv_alloc(x);
    let (mut rr, mut bb) = (0.0, 0.0);
    for (b, ax) in b.iter().zip(&ax) {
        let b = *b as f32 as f64;
        rr += (b - ax) * (b - ax);
        bb += b * b;
    }
    (rr / bb).sqrt()
}

/// FNV-1a over the solution's bits: equal iff bit-identical.
pub fn digest(x: &[f64]) -> u64 {
    let mut d: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in x.iter().flat_map(|v| v.to_le_bytes()) {
        d = (d ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    d
}

/// The relative tolerance a configuration promises, if it promises one.
fn promised_tolerance(config: &SolverConfig) -> Option<f64> {
    let positive = |t: f64| (t > 0.0).then_some(t);
    match config {
        SolverConfig::Mpir { rel_tol, .. } => positive(*rel_tol),
        SolverConfig::Cg { rel_tol, .. }
        | SolverConfig::BiCgStab { rel_tol, .. }
        | SolverConfig::GaussSeidel { rel_tol, .. } => positive(*rel_tol as f64),
        _ => None,
    }
}

/// Judge one solution: within `100 x rel_tol` where the configuration has a
/// tolerance; otherwise (fixed-budget smoothers) below 1.0 and within a
/// factor 8 of the reported residual. `iterations` is deliberately not
/// consulted — it reads 0 whenever `record_history` is off.
pub fn judge(
    config: &SolverConfig,
    a32: &CsrMatrix,
    b: &[f64],
    x: &[f64],
    reported: f64,
) -> Result<(), String> {
    let recomputed = rel_residual(a32, b, x);
    match promised_tolerance(config) {
        Some(tol) if recomputed <= TOLERANCE_FACTOR * tol => Ok(()),
        Some(tol) => {
            Err(format!("residual {recomputed:.3e} misses {TOLERANCE_FACTOR} x {tol:.1e}"))
        }
        None => {
            let agree = recomputed <= reported * AGREEMENT_FACTOR
                && reported <= recomputed * AGREEMENT_FACTOR;
            if recomputed < 1.0 && agree {
                Ok(())
            } else {
                Err(format!("residual {recomputed:.3e} vs reported {reported:.3e}"))
            }
        }
    }
}

/// Determinism gate: the first result seen for an input is the reference;
/// any later result on the same input must match it bit for bit, in solution
/// digest and in device cycles.
pub struct Determinism {
    seen: Vec<Option<(u64, u64)>>,
}

impl Determinism {
    pub fn new(inputs: usize) -> Determinism {
        Determinism { seen: vec![None; inputs] }
    }

    pub fn observe(&mut self, input: usize, digest: u64, cycles: u64) -> Result<(), String> {
        match self.seen[input] {
            None => {
                self.seen[input] = Some((digest, cycles));
                Ok(())
            }
            Some(first) if first == (digest, cycles) => Ok(()),
            Some((d, c)) => Err(format!(
                "input {input} not deterministic: digest {d:016x}/{digest:016x}, cycles {c}/{cycles}"
            )),
        }
    }

    /// Mean device cycles over the inputs, each counted once, so the value
    /// does not depend on how many operations fitted into the run. `None`
    /// until every input has been seen.
    pub fn mean_cycles(&self) -> Option<f64> {
        let cycles: Option<Vec<f64>> = self.seen.iter().map(|s| s.map(|(_, c)| c as f64)).collect();
        cycles.map(|c| crate::stats::mean(&c))
    }
}
