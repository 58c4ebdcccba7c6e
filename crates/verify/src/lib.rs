//! `graphene-verify` — a differential-oracle correctness harness.
//!
//! The simulator stack is deterministic end to end, which makes it
//! unusually testable: every solver configuration can be executed on the
//! simulated device and compared bit-for-bit across runs, and compared
//! numerically against a host-side f64 oracle. This crate packages that
//! idea into four reusable pieces:
//!
//! * [`generators`] — property-based sparse-matrix generators (SPD,
//!   diagonally dominant, banded, random sparsity) plus the fixed family
//!   set the differential suite runs against;
//! * [`oracle`] — a dense f64 LU factorisation with partial pivoting and
//!   reference kernels (SpMV, dot, norms) used as ground truth;
//! * [`differential`] — the runner that executes every entry of
//!   [`graphene_core::config::verification_suite`] on the simulated IPU
//!   and asserts per-configuration residual and forward-error bounds;
//! * [`cross_backend`] — the same idea across *backends*: the Krylov
//!   subset of the suite executed on both the IPU simulator and the
//!   native CPU baseline through the `Backend` trait, each judged
//!   against the oracle and against each other;
//! * [`ulp_audit`] — sweeps the double-word (`twofloat`) primitives over
//!   adversarial operands and asserts the Joldes et al. error bounds and
//!   the normalisation invariant;
//! * [`invariants`] — simulator-level checks: double-run bit determinism,
//!   label-stack balance, exchange-byte conservation, and equivalence of
//!   the engine's fused and lowered dispatch;
//! * [`resilience`] — fault-injection properties: the outcome trichotomy
//!   under seeded faults (converged | recovered | structured error, with
//!   the accepted residual independently recomputed so no silently-wrong
//!   answer escapes), bit-determinism of faulted replays across runs and
//!   engine options, and zero overhead when the machinery is off.
//!
//! The heavyweight sweeps scale with the `GRAPHENE_VERIFY_CASES`
//! environment variable (see [`cases_from_env`]) so CI can turn the dial
//! up without code changes while the default `cargo test -q` stays within
//! a ~30 s budget.

pub mod cross_backend;
pub mod differential;
pub mod generators;
pub mod invariants;
pub mod oracle;
pub mod resilience;
pub mod ulp_audit;

/// Number of randomised cases a sweep should run: `GRAPHENE_VERIFY_CASES`
/// when set, else `default`. The value scales *per-sweep* case counts, so
/// a single knob deepens every property in the suite.
///
/// Panics (failing the sweep) on a value that is not a positive integer:
/// CI's deep pass must not silently run the shallow default on a typo.
pub fn cases_from_env(default: u32) -> u32 {
    match graphene_core::env::EnvConfig::verify_cases() {
        Ok(cases) => cases.unwrap_or(default),
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn cases_default_when_unset() {
        // The variable is not set under `cargo test` unless the caller
        // exports it; either way the result is positive.
        assert!(super::cases_from_env(7) > 0);
    }
}
