//! Unit tests of the operators, the interpreter and the lowered form.

use super::interp::Interp;
use super::ir::{apply_bin, promote, BinOp, Codelet, Expr, ParamData, ParamDecl, Stmt, Value};
use super::lower::Lowered;
use super::machine::Regs;
use crate::compute::VertexKind;
use ipu_sim::cost::{CostModel, DType, Op};
use twofloat::{SoftDouble, TwoFloat};
use BinOp::*;

fn cm() -> CostModel {
    CostModel::default()
}

fn run_codelet(c: &Codelet, params: &mut [ParamData]) -> u64 {
    c.validate().unwrap();
    let cost = cm();
    let mut interp = Interp::new(&cost, params, c.num_locals, 6);
    interp.run(&c.body)
}

/// y[i] = a*x[i] + y[i] over the slice (an axpy codelet).
fn axpy_codelet() -> Codelet {
    Codelet {
        name: "axpy".into(),
        params: vec![
            ParamDecl { dtype: DType::F32, mutable: false }, // x
            ParamDecl { dtype: DType::F32, mutable: true },  // y
            ParamDecl { dtype: DType::F32, mutable: false }, // a (scalar)
        ],
        num_locals: 1,
        body: vec![Stmt::ParFor {
            local: 0,
            start: Expr::c(Value::I32(0)),
            end: Expr::ParamLen(0),
            body: vec![Stmt::Store {
                param: 1,
                index: Expr::Local(0),
                value: Expr::bin(
                    Add,
                    Expr::bin(
                        Mul,
                        Expr::index(2, Expr::c(Value::I32(0))),
                        Expr::index(0, Expr::Local(0)),
                    ),
                    Expr::index(1, Expr::Local(0)),
                ),
            }],
        }],
    }
}

#[test]
fn axpy_computes_and_costs() {
    let c = axpy_codelet();
    let mut x = [1.0f32, 2.0, 3.0];
    let mut y = [10.0f32, 20.0, 30.0];
    let mut a = [2.0f32];
    let cycles = run_codelet(
        &c,
        &mut [ParamData::F32(&mut x), ParamData::F32(&mut y), ParamData::F32(&mut a)],
    );
    assert_eq!(y, [12.0, 24.0, 36.0]);
    assert!(cycles > 0);
}

/// Flop/byte counters measure *work*, so `ParFor` must leave them
/// untouched even though it shrinks the cycle makespan.
#[test]
fn flop_and_byte_counters_are_work_not_time() {
    let c = axpy_codelet();
    c.validate().unwrap();
    let cost = cm();
    let mut x = [1.0f32, 2.0, 3.0];
    let mut y = [10.0f32, 20.0, 30.0];
    let mut a = [2.0f32];
    let mut params = [ParamData::F32(&mut x), ParamData::F32(&mut y), ParamData::F32(&mut a)];
    let mut interp = Interp::new(&cost, &mut params, c.num_locals, 6);
    interp.run(&c.body);
    // 3 iterations × (mul + add) = 6 flops; 3 × (3 loads + 1 store) × 4 B.
    assert_eq!(interp.flops, 6);
    assert_eq!(interp.mem_bytes, 48);

    // Same codelet with one worker: more cycles, identical work.
    let mut x1 = [1.0f32, 2.0, 3.0];
    let mut y1 = [10.0f32, 20.0, 30.0];
    let mut a1 = [2.0f32];
    let mut params1 = [ParamData::F32(&mut x1), ParamData::F32(&mut y1), ParamData::F32(&mut a1)];
    let mut serial = Interp::new(&cost, &mut params1, c.num_locals, 1);
    serial.run(&c.body);
    assert!(serial.cycles >= interp.cycles);
    assert_eq!(serial.flops, interp.flops);
    assert_eq!(serial.mem_bytes, interp.mem_bytes);
}

#[test]
fn parfor_cheaper_than_serial_for() {
    let c = axpy_codelet();
    // Same codelet but with a serial For.
    let mut serial = c.clone();
    if let Stmt::ParFor { local, start, end, body } = serial.body.remove(0) {
        serial.body.push(Stmt::For { local, start, end, step: Expr::c(Value::I32(1)), body });
    }
    let run = |c: &Codelet| {
        let mut x = vec![1.0f32; 600];
        let mut y = vec![0.0f32; 600];
        let mut a = [3.0f32];
        run_codelet(
            c,
            &mut [ParamData::F32(&mut x), ParamData::F32(&mut y), ParamData::F32(&mut a)],
        )
    };
    let par = run(&c);
    let ser = run(&serial);
    let ratio = ser as f64 / par as f64;
    assert!(ratio > 4.0 && ratio < 6.5, "ratio {ratio}");
}

#[test]
fn dynamic_promotion_f32_dw() {
    let (v, dt) = apply_bin(Add, Value::F32(1.0), Value::Dw(TwoFloat::from_f64(1e-9)));
    assert_eq!(dt, DType::DoubleWord);
    match v {
        Value::Dw(d) => assert!((d.to_f64() - (1.0 + 1e-9)).abs() < 1e-15),
        other => panic!("expected Dw, got {other:?}"),
    }
}

const ALL_BINOPS: [BinOp; 15] =
    [Add, Sub, Mul, Div, Min, Max, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Rem];

/// Adversarial operands per dtype: signed zeros, infinities, a quiet and
/// a *signalling* NaN, subnormals and the extremes for F32; the
/// wrap-around corners for I32; and Dw / F64 values that f32 cannot
/// represent.
///
/// The signalling NaN (only a bit flip produces one) is what an F32
/// operand's route to `arith_f32` decides: widened to f64 and back it
/// would be quieted, handed over untouched `Min` / `Max` may return its
/// bits. Every route hands it over untouched.
fn adversarial_operands() -> Vec<Value> {
    let f32s = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0x7fa0_0000),
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 2.0,
        f32::MAX,
        -1.0,
        1.5,
    ];
    let i32s = [i32::MIN, -1, 0, 1, i32::MAX];
    let dws = [1.0 + 1e-9, 16_777_217.0, -0.0, f64::INFINITY, f64::NAN];
    let f64s = [1.0 + 1e-9, 1e300, -0.0, i32::MAX as f64 + 0.5, f64::NEG_INFINITY, f64::NAN];
    let mut out: Vec<Value> = f32s.into_iter().map(Value::F32).collect();
    out.extend(i32s.into_iter().map(Value::I32));
    out.extend([Value::Bool(false), Value::Bool(true)]);
    out.extend(dws.into_iter().map(|v| Value::Dw(TwoFloat::from_f64(v))));
    out.extend(f64s.into_iter().map(Value::F64));
    out
}

/// A value's dtype and exact bit pattern (so NaNs and signed zeros
/// compare as what they are).
fn bits(v: Value) -> (DType, u64) {
    let b = match v {
        Value::F32(x) => x.to_bits() as u64,
        Value::I32(x) => x as u32 as u64,
        Value::Bool(x) => x as u64,
        Value::Dw(x) => (x.hi().to_bits() as u64) << 32 | x.lo().to_bits() as u64,
        Value::F64(x) => x.to_bits(),
    };
    (v.dtype(), b)
}

/// `Interp::eval` of one `Expr::Binary` over constants: value, cycles
/// and flops, or `None` if evaluation panicked.
fn interp_binary(op: BinOp, a: Value, b: Value) -> Option<(Value, u64, u64)> {
    std::panic::catch_unwind(|| {
        let cost = cm();
        let mut params: [ParamData; 0] = [];
        let mut interp = Interp::new(&cost, &mut params, 0, 6);
        let v = interp.eval(&Expr::bin(op, Expr::c(a), Expr::c(b)));
        (v, interp.cycles, interp.flops)
    })
    .ok()
}

/// The same `Expr::Binary` through the lowered form: `local 0 = a op b`
/// typed and costed at lowering, then run.
fn lowered_binary(op: BinOp, a: Value, b: Value) -> Option<(Value, u64, u64)> {
    let cost = cm();
    let c = Codelet {
        name: "binary".into(),
        params: vec![],
        num_locals: 1,
        body: vec![Stmt::SetLocal(0, Expr::bin(op, Expr::c(a), Expr::c(b)))],
    };
    // Typing two constants never fails, whatever they would divide by.
    let lowered = Lowered::lower(&c, &[], false, &cost).expect("two constants type");
    std::panic::catch_unwind(|| {
        let mut regs = Regs::default();
        let run = lowered.run_vertex(&VertexKind::Simple, &mut [], &mut regs, &cost, 6);
        let local = lowered.local(&regs, 0).expect("local 0 is typed at the end");
        (local, run.cycles, run.flops)
    })
    .ok()
}

/// `acc = a; for k in 0..1 { acc = acc op (xs[k] op ys[k]) }` over
/// `xs = [a]`, `ys = [b]` of one float dtype: a trip of the accumulate
/// loop instruction. The accumulator at the end, cycles and flops.
fn looped_binary(op: BinOp, a: Value, b: Value) -> (Value, u64, u64) {
    let cost = cm();
    let dt = a.dtype();
    let at = |param, k| Expr::index(param, Expr::c(Value::I32(k)));
    let k = |param| Expr::index(param, Expr::Local(0));
    let c = Codelet {
        name: "looped".into(),
        params: vec![ParamDecl { dtype: dt, mutable: false }; 2],
        num_locals: 2,
        body: vec![
            Stmt::SetLocal(1, at(0, 0)),
            Stmt::For {
                local: 0,
                start: Expr::c(Value::I32(0)),
                end: Expr::c(Value::I32(1)),
                step: Expr::c(Value::I32(1)),
                body: vec![Stmt::SetLocal(
                    1,
                    Expr::bin(op, Expr::Local(1), Expr::bin(op, k(0), k(1))),
                )],
            },
        ],
    };
    let lowered = Lowered::lower(&c, &[dt, dt], false, &cost).expect("one float dtype types");
    assert_eq!(lowered.loops(), 1, "{op:?} {a:?} {b:?}: one loop instruction");
    let mut regs = Regs::default();
    let mut run = |params: &mut [ParamData]| {
        lowered.run_vertex(&VertexKind::Simple, params, &mut regs, &cost, 6)
    };
    let run = match (a, b) {
        (Value::F32(a), Value::F32(b)) => {
            run(&mut [ParamData::F32Ro(&[a]), ParamData::F32Ro(&[b])])
        }
        (Value::Dw(a), Value::Dw(b)) => run(&mut [ParamData::DwRo(&[a]), ParamData::DwRo(&[b])]),
        (Value::F64(a), Value::F64(b)) => {
            run(&mut [ParamData::F64Ro(&[SoftDouble(a)]), ParamData::F64Ro(&[SoftDouble(b)])])
        }
        other => unreachable!("{other:?} is not one float dtype"),
    };
    (lowered.local(&regs, 1).expect("the accumulator is typed"), run.cycles, run.flops)
}

/// One semantics, three routes: for every operator and every ordered
/// pair of operands (hence of dtypes), the dynamic `Interp` and the
/// lowered form yield the bits `apply_bin` yields and charge what the
/// cost model says for the promoted dtype (the mixed double-word rate
/// iff the result is double-word and one side is f32).
///
/// Integer `Div` / `Rem` by zero (both sides I32 or Bool) **panics** —
/// Rust's integer division, "attempt to divide by zero" — on all three;
/// the lowered form when it runs, not when it is built.
///
/// Two *different* NaNs are held to their bits like any other pair:
/// all routes end in the one compiled copy of `arith_f32` / `arith_dw` /
/// `arith_f64` (run this under `--release` too, where inlining would
/// otherwise let each call site pick its own payload).
///
/// An arithmetic operator over two operands of one float dtype also
/// goes through the accumulate loop instruction, as `a op (a op b)`:
/// both of its operator slots.
#[test]
fn interp_binary_matches_apply_bin_and_the_cost_formulas() {
    let cost = cm();
    let operands = adversarial_operands();
    let mut checked = 0;
    let mut div_by_zero = 0;
    let mut looped = 0;
    for op in ALL_BINOPS {
        for &a in &operands {
            for &b in &operands {
                let (da, db) = (a.dtype(), b.dtype());
                let dt = promote(da, db);
                let int_domain = matches!(dt, DType::I32 | DType::Bool);
                if int_domain && matches!(op, Div | Rem) && b.as_i64() == 0 {
                    assert!(
                        std::panic::catch_unwind(|| apply_bin(op, a, b)).is_err(),
                        "apply_bin {op:?} {a:?} {b:?} must panic"
                    );
                    assert!(
                        interp_binary(op, a, b).is_none(),
                        "Interp {op:?} {a:?} {b:?} must panic"
                    );
                    assert!(
                        lowered_binary(op, a, b).is_none(),
                        "lowered {op:?} {a:?} {b:?} must panic"
                    );
                    div_by_zero += 1;
                    continue;
                }
                let (want, want_dt) = apply_bin(op, a, b);
                assert_eq!(want_dt, dt);
                let mixed = dt == DType::DoubleWord && (da == DType::F32 || db == DType::F32);
                let want_cycles = if mixed {
                    cost.op_cycles_mixed_dw(op.cost_op())
                } else {
                    cost.op_cycles(op.cost_op(), dt)
                };
                let want_flops = cost.op_flops(op.cost_op(), dt);
                for (route, got) in
                    [("Interp", interp_binary(op, a, b)), ("lowered", lowered_binary(op, a, b))]
                {
                    let who = format!("{route}: {op:?} {a:?} {b:?}");
                    let (got, cycles, flops) = got.unwrap_or_else(|| panic!("{who} panicked"));
                    assert_eq!(bits(got), bits(want), "{who}");
                    assert_eq!((cycles, flops), (want_cycles, want_flops), "{who}");
                }
                checked += 1;
                if da == db && dt.is_float() && op.cost_op() != Op::Cmp {
                    let who = format!("loop instruction: {op:?} {a:?} {b:?}");
                    let (got, cycles, flops) = looped_binary(op, a, b);
                    assert_eq!(bits(got), bits(apply_bin(op, a, want).0), "{who}");
                    let loads = 3 * cost.op_cycles(Op::Load, dt);
                    let trip = cost.op_cycles(Op::LoopStep, DType::I32);
                    assert_eq!(cycles, loads + trip + 2 * want_cycles, "{who}");
                    assert_eq!(flops, 2 * want_flops, "{who}");
                    looped += 1;
                }
            }
        }
    }
    // Every dtype pair was present, and the zero divisors were met; every
    // arithmetic operator went through the loop instruction over every
    // pair of one float dtype.
    assert_eq!(checked + div_by_zero, ALL_BINOPS.len() * operands.len() * operands.len());
    assert!(div_by_zero > 0);
    let float = |v: &&Value| v.dtype().is_float();
    let same = operands
        .iter()
        .filter(float)
        .map(|a| operands.iter().filter(|b| b.dtype() == a.dtype()).count());
    let arithmetic = ALL_BINOPS.iter().filter(|op| op.cost_op() != Op::Cmp).count();
    assert_eq!(looped, arithmetic * same.sum::<usize>());
}

#[test]
fn f32_arithmetic_actually_rounds() {
    // The crucial property for MPIR experiments: F32 values really are
    // f32.
    let (v, _) = apply_bin(Add, Value::F32(1.0), Value::F32(1e-8));
    assert_eq!(v, Value::F32(1.0));
    // While DW keeps the tiny addend.
    let (v, _) = apply_bin(Add, Value::Dw(TwoFloat::from_f(1.0)), Value::F32(1e-8));
    assert_ne!(v.as_f64(), 1.0);
}

#[test]
fn dw_ops_cost_table1() {
    let cost = cm();
    let c = Codelet {
        name: "dw_add".into(),
        params: vec![ParamDecl { dtype: DType::DoubleWord, mutable: true }],
        num_locals: 0,
        body: vec![Stmt::Store {
            param: 0,
            index: Expr::c(Value::I32(0)),
            value: Expr::bin(
                Add,
                Expr::index(0, Expr::c(Value::I32(0))),
                Expr::index(0, Expr::c(Value::I32(1))),
            ),
        }],
    };
    let mut data = [TwoFloat::from_f(1.0f32), TwoFloat::from_f(2.0f32)];
    let mut params = [ParamData::Dw(&mut data)];
    let mut interp = Interp::new(&cost, &mut params, 0, 6);
    let cycles = interp.run(&c.body);
    // 2 loads + 1 add + 1 store, all double-word.
    let expect = 2 * cost.op_cycles(Op::Load, DType::DoubleWord)
        + cost.op_cycles(Op::Add, DType::DoubleWord)
        + cost.op_cycles(Op::Store, DType::DoubleWord);
    assert_eq!(cycles, expect);
    assert_eq!(data[0].to_f64(), 3.0);
}

#[test]
fn while_and_if_control_flow() {
    // Sum integers 1..=10 with a while loop, then clamp via if.
    let c = Codelet {
        name: "sum".into(),
        params: vec![ParamDecl { dtype: DType::I32, mutable: true }],
        num_locals: 2,
        body: vec![
            Stmt::SetLocal(0, Expr::c(Value::I32(1))),
            Stmt::SetLocal(1, Expr::c(Value::I32(0))),
            Stmt::While {
                cond: Expr::bin(Le, Expr::Local(0), Expr::c(Value::I32(10))),
                body: vec![
                    Stmt::SetLocal(1, Expr::bin(Add, Expr::Local(1), Expr::Local(0))),
                    Stmt::SetLocal(0, Expr::bin(Add, Expr::Local(0), Expr::c(Value::I32(1)))),
                ],
            },
            Stmt::If {
                cond: Expr::bin(Gt, Expr::Local(1), Expr::c(Value::I32(50))),
                then: vec![Stmt::Store {
                    param: 0,
                    index: Expr::c(Value::I32(0)),
                    value: Expr::Local(1),
                }],
                otherwise: vec![Stmt::Store {
                    param: 0,
                    index: Expr::c(Value::I32(0)),
                    value: Expr::c(Value::I32(-1)),
                }],
            },
        ],
    };
    let mut out = [0i32];
    run_codelet(&c, &mut [ParamData::I32(&mut out)]);
    assert_eq!(out[0], 55);
}

#[test]
fn validation_catches_bad_references() {
    let c = Codelet {
        name: "bad".into(),
        params: vec![ParamDecl { dtype: DType::F32, mutable: false }],
        num_locals: 0,
        body: vec![Stmt::Store {
            param: 0,
            index: Expr::c(Value::I32(0)),
            value: Expr::c(Value::F32(1.0)),
        }],
    };
    assert!(c.validate().unwrap_err().contains("immutable"));
    let c2 = Codelet {
        name: "bad2".into(),
        params: vec![],
        num_locals: 1,
        body: vec![Stmt::SetLocal(3, Expr::c(Value::I32(0)))],
    };
    assert!(c2.validate().is_err());
}

#[test]
fn conversions_round_correctly() {
    let v = Value::F64(1.0 + 1e-9);
    assert_eq!(v.convert(DType::F32), Value::F32(1.0));
    let dw = v.convert(DType::DoubleWord);
    assert!((dw.as_f64() - (1.0 + 1e-9)).abs() < 1e-16);
    assert_eq!(Value::F32(2.9).convert(DType::I32), Value::I32(2));
    assert_eq!(Value::I32(0).convert(DType::Bool), Value::Bool(false));
}

/// An instruction names a parameter in a `u16`: a codelet with more
/// parameters than that counts does not lower — `None`, not a panic, and
/// so a compile error — though `Interp` runs it; one parameter fewer lowers.
#[test]
fn a_codelet_with_65536_parameters_runs_on_interp() {
    let wide = |n: usize| Codelet {
        name: "wide".into(),
        params: vec![ParamDecl { dtype: DType::F32, mutable: true }; n],
        num_locals: 0,
        body: vec![Stmt::Store {
            param: n - 1,
            index: Expr::c(Value::I32(0)),
            value: Expr::c(Value::F32(2.5)),
        }],
    };
    let n = 1 << 16;
    assert!(Lowered::lower(&wide(n), &vec![DType::F32; n], false, &cm()).is_none());
    assert!(Lowered::lower(&wide(n - 1), &vec![DType::F32; n - 1], false, &cm()).is_some());
    let mut data = vec![[0.0f32]; n];
    let mut params: Vec<ParamData> = data.iter_mut().map(|d| ParamData::F32(d)).collect();
    assert!(run_codelet(&wide(n), &mut params) > 0);
    drop(params);
    assert_eq!(data[n - 1], [2.5]);
}

#[test]
fn select_evaluates_branchlessly() {
    let cost = cm();
    let mut params: [ParamData; 0] = [];
    let mut interp = Interp::new(&cost, &mut params, 0, 6);
    let e = Expr::Select {
        cond: Box::new(Expr::bin(Lt, Expr::c(Value::I32(3)), Expr::c(Value::I32(5)))),
        then: Box::new(Expr::c(Value::F32(1.0))),
        otherwise: Box::new(Expr::c(Value::F32(-1.0))),
    };
    assert_eq!(interp.eval(&e), Value::F32(1.0));
}
