//! Plan-equivalence invariants for the graph compiler.
//!
//! `Graph::compile` lowers the program tree to an [`graph::ExecPlan`] and
//! (unless `GRAPHENE_NO_OPT` is set) runs the optimisation pass pipeline
//! over it. Every pass must be *observationally cycle-neutral*: it may
//! remove host dispatch overhead, never simulated device work. The
//! contract, checked here: the optimised plan (the default) and the
//! unoptimised plan (`GRAPHENE_NO_OPT=1`) — a direct lowering of the
//! program tree, every step planned on its own — of the same solve
//! must produce **bit-identical solutions** and **cycle-identical
//! profiles**: device cycles, per-phase splits, per-label partitions,
//! per-tile busy time, superstep and sync counts, exchanged bytes, the
//! recorded residual history, and the modelled device seconds. Any drift
//! means an optimisation pass changed device semantics instead of host
//! bookkeeping — precisely the bug class this harness exists to catch.

use std::rc::Rc;

use dsl::prelude::*;
use graphene_core::config::SolverConfig;
use graphene_core::runner::{solve_or_panic, SolveOptions, SolveResult};
use profile::CompileReport;
use sparse::formats::CsrMatrix;

fn sim_opts() -> SolveOptions {
    SolveOptions {
        model: IpuModel::tiny(4),
        tiles: Some(4),
        record_history: true,
        ..SolveOptions::default()
    }
}

/// What the plan equivalence check compared.
#[derive(Clone, Debug)]
pub struct PlanEquivalence {
    pub device_cycles: u64,
    pub iterations: usize,
    /// Dispatch steps in the optimised plan.
    pub optimised_steps: usize,
    /// Dispatch steps in the unoptimised plan.
    pub unoptimised_steps: usize,
}

fn compile_report(r: &SolveResult) -> &CompileReport {
    r.report.compile.as_ref().expect("runner stamps the compile report")
}

/// Run the same solve through the optimised and the unoptimised plan and
/// require bit-identical solutions and cycle-identical profiles.
pub fn assert_plan_equivalence(
    a: Rc<CsrMatrix>,
    b: &[f64],
    config: &SolverConfig,
) -> PlanEquivalence {
    let with = |optimise| SolveOptions { optimise: Some(optimise), ..sim_opts() };
    let opt = solve_or_panic(a.clone(), b, config, &with(true));
    let noopt = solve_or_panic(a.clone(), b, config, &with(false));

    crate::invariants::assert_same("optimised vs unoptimised plan", &opt, &noopt);

    let ro = compile_report(&opt);
    let rn = compile_report(&noopt);
    assert!(ro.optimised, "optimised run lost its CompileReport flag");
    assert!(!rn.optimised, "unoptimised run lost its CompileReport flag");
    assert_eq!(
        ro.source_steps, rn.source_steps,
        "source step counts differ between compiles of the same program"
    );
    assert!(
        ro.plan_steps <= rn.plan_steps,
        "optimisation increased dispatch steps ({} > {})",
        ro.plan_steps,
        rn.plan_steps
    );
    PlanEquivalence {
        device_cycles: opt.stats.device_cycles(),
        iterations: opt.iterations,
        optimised_steps: ro.plan_steps,
        unoptimised_steps: rn.plan_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen::{poisson_2d_5pt, rhs_for_ones};

    #[test]
    fn small_bicgstab_plans_are_equivalent() {
        let a = Rc::new(poisson_2d_5pt(6, 6, 1.0));
        let b = rhs_for_ones(&a);
        let cfg = SolverConfig::BiCgStab {
            max_iters: 8,
            rel_tol: 0.0,
            precond: Some(Box::new(SolverConfig::Ilu0 {})),
        };
        let eq = assert_plan_equivalence(a, &b, &cfg);
        assert!(eq.device_cycles > 0);
        assert!(eq.optimised_steps > 0);
        assert!(eq.optimised_steps <= eq.unoptimised_steps);
    }
}
