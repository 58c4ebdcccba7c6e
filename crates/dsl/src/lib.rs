//! # dsl — CodeDSL and TensorDSL
//!
//! The paper's central usability contribution (§III): two embedded,
//! dynamically typed DSLs that let algebraic algorithms be written close to
//! their mathematical notation, then *symbolically executed* to produce the
//! dataflow graph, execution schedule and codelets of the Poplar-style
//! programming model.
//!
//! * [`code::CodeDsl`] — **CodeDSL**: tile-centric codelet description.
//!   Control flow (`for_`, `while_`, `if_`) is emitted *into* the generated
//!   codelet.
//! * [`ctx::DslCtx`] + [`texpr::TExpr`] — **TensorDSL**: global operations
//!   on distributed tensors. Expressions are lazy objects; materialisation
//!   generates one fused codelet per tile; control flow manipulates the
//!   *control-flow stack* that assembles the execution schedule.
//!
//! The two languages combine freely: TensorDSL's materialiser generates
//! CodeDSL-level IR internally, and custom CodeDSL codelets (SpMV,
//! level-set Gauss-Seidel/ILU sweeps) are scheduled through
//! [`ctx::DslCtx::execute`].
//!
//! The π example from the paper's Figure 1:
//!
//! ```
//! use dsl::prelude::*;
//!
//! let mut ctx = DslCtx::new(IpuModel::tiny(4));
//! // A tensor distributed over 4 tiles.
//! let x = ctx.vector("x", DType::F32, 10_000, 4);
//!
//! // Fill it with the Leibniz sequence using CodeDSL.
//! let mut cb = CodeDsl::new("leibniz");
//! let xs = cb.param(DType::F32, true);
//! let off = cb.param(DType::I32, false); // global offset of this slice
//! cb.par_for(Val::i32(0), xs.len(), |cb, i| {
//!     let g = cb.let_(i.clone() + off.at(Val::i32(0)));
//!     let sign = Val::select(g.clone().rem(2).eq_(Val::i32(0)), Val::f32(1.0), Val::f32(-1.0));
//!     cb.store(xs, i, sign / (g * 2 + Val::i32(1)).to(DType::F32));
//! });
//! let leibniz = ctx.add_codelet(cb.build());
//! let offsets = ctx.vector("offsets", DType::I32, 4, 4);
//! let chunks = ctx.chunks_of(x).to_vec();
//! let vertices = chunks.iter().enumerate().map(|(k, c)| Vertex {
//!     tile: c.tile,
//!     codelet: leibniz,
//!     operands: vec![
//!         TensorSlice { tensor: x.id, start: c.start, len: c.owned },
//!         TensorSlice { tensor: offsets.id, start: k, len: 1 },
//!     ],
//!     kind: VertexKind::Simple,
//! }).collect();
//! ctx.execute("fill", vertices);
//!
//! // Calculate pi from the sequence using TensorDSL.
//! let pi = ctx.reduce(x * 4.0f32);
//!
//! let mut engine = ctx.build_engine().unwrap();
//! engine.write_tensor(offsets.id, &[0.0, 2500.0, 5000.0, 7500.0]);
//! engine.run();
//! let got = engine.read_scalar(pi.id);
//! assert!((got - std::f64::consts::PI).abs() < 1e-3, "pi = {got}");
//! ```

pub mod code;
pub mod ctx;
pub mod texpr;

pub use code::{CodeDsl, Param, Val, Var};
pub use ctx::DslCtx;
pub use texpr::{TExpr, TensorRef};

/// Everything needed to write DSL programs.
pub mod prelude {
    pub use crate::code::{CodeDsl, Param, Val, Var};
    pub use crate::ctx::DslCtx;
    pub use crate::texpr::{TExpr, TensorRef};
    pub use graph::compute::{TensorSlice, Vertex, VertexKind};
    pub use graph::passes::CompileOptions;
    pub use graph::tensor::{TensorChunk, TensorDef};
    pub use ipu_sim::cost::DType;
    pub use ipu_sim::model::IpuModel;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use graph::codelet::Value;
    use ipu_sim::clock::Phase;

    #[test]
    fn materialize_elementwise_over_tiles() {
        let mut ctx = DslCtx::new(IpuModel::tiny(3));
        let x = ctx.vector("x", DType::F32, 9, 3);
        let y = ctx.vector("y", DType::F32, 9, 3);
        let z = ctx.materialize(x * 2.0f32 + y);
        let mut e = ctx.build_engine().unwrap();
        e.write_tensor(x.id, &(0..9).map(|i| i as f64).collect::<Vec<_>>());
        e.write_tensor(y.id, &[1.0; 9]);
        e.run();
        let got = e.read_tensor(z.id);
        let want: Vec<f64> = (0..9).map(|i| 2.0 * i as f64 + 1.0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scalar_broadcasts_into_vector_ops() {
        let mut ctx = DslCtx::new(IpuModel::tiny(2));
        let x = ctx.vector("x", DType::F32, 6, 2);
        let alpha = ctx.scalar("alpha", DType::F32);
        let z = ctx.materialize(x * alpha);
        let mut e = ctx.build_engine().unwrap();
        e.write_tensor(x.id, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        e.write_scalar(alpha.id, 10.0);
        e.run();
        assert_eq!(e.read_tensor(z.id), vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        // Broadcasting the scalar to tile 1 costs exchange cycles.
        assert!(e.stats().phase_cycles(Phase::Exchange) > 0);
    }

    #[test]
    fn fused_expression_is_one_compute_set() {
        // (x*2 + y) / (x + 1) — five ops, one materialisation.
        let mut ctx = DslCtx::new(IpuModel::tiny(2));
        let x = ctx.vector("x", DType::F32, 4, 2);
        let y = ctx.vector("y", DType::F32, 4, 2);
        let before = ctx.graph().compute_sets.len();
        let _z = ctx.materialize((x * 2.0f32 + y) / (x + 1.0f32));
        assert_eq!(ctx.graph().compute_sets.len(), before + 1);
    }

    #[test]
    fn reduce_sums_across_tiles() {
        let mut ctx = DslCtx::new(IpuModel::tiny(4));
        let x = ctx.vector("x", DType::F32, 100, 4);
        let dot = ctx.reduce(x * x);
        let mut e = ctx.build_engine().unwrap();
        e.write_tensor(x.id, &vec![2.0; 100]);
        e.run();
        assert_eq!(e.read_scalar(dot.id), 400.0);
    }

    #[test]
    fn reduce_uses_tree_above_64_tiles() {
        // 150 tiles forces the hierarchical (√T-ary) reduction path.
        let tiles = 150;
        let n = 600;
        let mut ctx = DslCtx::new(IpuModel::tiny(tiles));
        let x = ctx.vector("x", DType::F32, n, tiles);
        let s = ctx.reduce(x.ex());
        // Two levels of tree + stage 1 ⇒ strictly more compute sets than a
        // flat reduction's two.
        assert!(ctx.graph().compute_sets.len() >= 3);
        let mut e = ctx.build_engine().unwrap();
        let vals: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        e.write_tensor(x.id, &vals);
        e.run();
        let want: f64 = vals.iter().sum();
        assert!((e.read_scalar(s.id) - want).abs() < 1e-3, "{} vs {want}", e.read_scalar(s.id));
    }

    #[test]
    fn tree_reduce_matches_flat_for_dw() {
        let tiles = 80;
        let mut ctx = DslCtx::new(IpuModel::tiny(tiles));
        let x = ctx.vector("x", DType::DoubleWord, 160, tiles);
        let s = ctx.reduce(x.ex());
        let mut e = ctx.build_engine().unwrap();
        e.write_tensor(x.id, &vec![1.0 + 1e-9; 160]);
        e.run();
        let want = 160.0 * (1.0 + 1e-9);
        assert!((e.read_scalar(s.id) - want).abs() < 1e-9);
    }

    #[test]
    fn select_texpr_guards_division() {
        let mut ctx = DslCtx::new(IpuModel::tiny(1));
        let num = ctx.scalar("num", DType::F32);
        let den = ctx.scalar("den", DType::F32);
        let out = ctx.scalar("out", DType::F32);
        ctx.assign(out, TExpr::select(den.ex().eq_(0.0f32), 0.0f32, num / den));
        let mut e = ctx.build_engine().unwrap();
        e.write_scalar(num.id, 6.0);
        e.write_scalar(den.id, 0.0);
        e.run();
        assert_eq!(e.read_scalar(out.id), 0.0);
        // And the non-degenerate case divides.
        let mut ctx = DslCtx::new(IpuModel::tiny(1));
        let num = ctx.scalar("num", DType::F32);
        let den = ctx.scalar("den", DType::F32);
        let out = ctx.scalar("out", DType::F32);
        ctx.assign(out, TExpr::select(den.ex().eq_(0.0f32), 0.0f32, num / den));
        let mut e = ctx.build_engine().unwrap();
        e.write_scalar(num.id, 6.0);
        e.write_scalar(den.id, 2.0);
        e.run();
        assert_eq!(e.read_scalar(out.id), 3.0);
    }

    #[test]
    fn while_loop_counts_down() {
        let mut ctx = DslCtx::new(IpuModel::tiny(1));
        let n = ctx.scalar("n", DType::F32);
        let iters = ctx.scalar("iters", DType::F32);
        ctx.while_(
            |c| c.materialize(n.ex().gt(0.0f32)),
            |c| {
                c.assign(n, n - 1.0f32);
                c.assign(iters, iters + 1.0f32);
            },
        );
        let mut e = ctx.build_engine().unwrap();
        e.write_scalar(n.id, 5.0);
        e.run();
        assert_eq!(e.read_scalar(n.id), 0.0);
        assert_eq!(e.read_scalar(iters.id), 5.0);
    }

    #[test]
    fn if_else_picks_branch() {
        let mut ctx = DslCtx::new(IpuModel::tiny(1));
        let x = ctx.scalar("x", DType::F32);
        let out = ctx.scalar("out", DType::F32);
        let pred = ctx.scalar("pred", DType::Bool);
        ctx.assign(pred, x.ex().lt(3.0f32));
        ctx.if_else(
            pred,
            |c| c.assign(out, TExpr::c_f32(1.0)),
            |c| c.assign(out, TExpr::c_f32(2.0)),
        );
        let mut e = ctx.build_engine().unwrap();
        e.write_scalar(x.id, 5.0);
        e.run();
        assert_eq!(e.read_scalar(out.id), 2.0);
    }

    #[test]
    fn repeat_accumulates() {
        let mut ctx = DslCtx::new(IpuModel::tiny(2));
        let x = ctx.vector("x", DType::F32, 4, 2);
        ctx.repeat(5, |c| c.assign(x, x + 1.0f32));
        let mut e = ctx.build_engine().unwrap();
        e.run();
        assert_eq!(e.read_tensor(x.id), vec![5.0; 4]);
    }

    #[test]
    fn double_word_tensor_keeps_precision() {
        let mut ctx = DslCtx::new(IpuModel::tiny(2));
        let x = ctx.vector("x", DType::DoubleWord, 4, 2);
        let y = ctx.materialize(x + TExpr::c_dw(1e-9));
        let mut e = ctx.build_engine().unwrap();
        e.write_tensor(x.id, &[1.0; 4]);
        e.run();
        let got = e.read_tensor(y.id);
        for v in got {
            assert!((v - (1.0 + 1e-9)).abs() < 1e-15, "{v}");
        }
    }

    #[test]
    fn conversion_f32_to_dw_and_back() {
        let mut ctx = DslCtx::new(IpuModel::tiny(1));
        let x = ctx.vector("x", DType::F32, 2, 1);
        let xd = ctx.alloc_like(x, DType::DoubleWord);
        ctx.assign(xd, x.to(DType::DoubleWord));
        let back = ctx.alloc_like(x, DType::F32);
        ctx.assign(back, xd.to(DType::F32));
        let mut e = ctx.build_engine().unwrap();
        e.write_tensor(x.id, &[1.5, -2.25]);
        e.run();
        assert_eq!(e.read_tensor(back.id), vec![1.5, -2.25]);
    }

    #[test]
    fn callback_observes_progress() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut ctx = DslCtx::new(IpuModel::tiny(1));
        let k = ctx.scalar("k", DType::F32);
        let seen2 = seen.clone();
        let kid = k.id;
        ctx.repeat(3, move |c| {
            c.assign(k, k + 1.0f32);
            let seen3 = seen2.clone();
            c.callback(move |view| {
                seen3.borrow_mut().push(view.read_scalar(kid));
            });
        });
        let mut e = ctx.build_engine().unwrap();
        e.run();
        assert_eq!(*seen.borrow(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn owned_prefix_only_touched_when_halo_present() {
        // A vector with halo slots: elementwise op must not clobber them.
        let mut ctx = DslCtx::new(IpuModel::tiny(2));
        let def = TensorDef {
            name: "x".into(),
            dtype: DType::F32,
            chunks: vec![
                TensorChunk { tile: 0, start: 0, owned: 2, total: 3 },
                TensorChunk { tile: 1, start: 3, owned: 2, total: 3 },
            ],
        };
        let x = ctx.add_tensor(def).unwrap();
        ctx.assign(x, x + 1.0f32);
        let mut e = ctx.build_engine().unwrap();
        e.write_tensor(x.id, &[1.0, 2.0, 99.0, 3.0, 4.0, 88.0]);
        e.run();
        assert_eq!(e.read_tensor(x.id), vec![2.0, 3.0, 99.0, 4.0, 5.0, 88.0]);
    }

    #[test]
    fn reduce_respects_owned_prefix() {
        let mut ctx = DslCtx::new(IpuModel::tiny(2));
        let def = TensorDef {
            name: "x".into(),
            dtype: DType::F32,
            chunks: vec![
                TensorChunk { tile: 0, start: 0, owned: 2, total: 3 },
                TensorChunk { tile: 1, start: 3, owned: 2, total: 3 },
            ],
        };
        let x = ctx.add_tensor(def).unwrap();
        let s = ctx.reduce(x.ex());
        let mut e = ctx.build_engine().unwrap();
        e.write_tensor(x.id, &[1.0, 2.0, 1000.0, 3.0, 4.0, 1000.0]);
        e.run();
        assert_eq!(e.read_scalar(s.id), 10.0);
    }

    #[test]
    fn figure1_abs_check() {
        // The paper's Figure 1 tail: If (Abs(pi - 3.141f) < 0.001f) ...
        let mut ctx = DslCtx::new(IpuModel::tiny(1));
        let pi = ctx.scalar("pi", DType::F32);
        let found = ctx.scalar("found", DType::Bool);
        #[allow(clippy::approx_constant)] // the paper's literal
        let close = (pi - 3.141f32).abs().lt(0.001f32);
        ctx.assign(found, close);
        let mut e = ctx.build_engine().unwrap();
        e.write_scalar(pi.id, std::f64::consts::PI);
        e.run();
        assert_eq!(e.read_scalar(found.id), 1.0);
    }

    #[test]
    fn const_value_dtype() {
        assert_eq!(Value::F32(1.0).dtype(), DType::F32);
        assert_eq!(TExpr::c_dw(1.0).dtype(), DType::DoubleWord);
        assert_eq!(TExpr::c_f64(1.0).dtype(), DType::F64Emulated);
    }
}
