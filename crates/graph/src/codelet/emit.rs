//! Flattening: a typed body becomes register instructions, with control
//! flow as jumps, one charge per basic block, and the multiply-accumulate
//! loops and the element-wise maps it recognises as one instruction each.

use super::ir::{BinOp, LocalId, UnOp, Value};
use super::lower::{Charge, LStmt, TExpr, TKind};
use ipu_sim::cost::DType;
use twofloat::TwoF32;

/// A register: a slot of the file its dtype implies.
pub(super) type Reg = u16;

/// A parameter id inside an instruction: [`Lowered::lower`] declines a
/// codelet with more parameters than this counts, so every id fits.
pub(super) type Param = u16;

/// A jump target or a side-table index inside an instruction, if `n` fits.
fn index(n: usize) -> Option<u32> {
    u32::try_from(n).ok()
}

/// Which file holds a dtype's values: the order of [`Lowered::files`].
fn file(dt: DType) -> usize {
    match dt {
        DType::I32 => 0,
        DType::Bool => 1,
        DType::F32 => 2,
        DType::DoubleWord => 3,
        DType::F64Emulated => 4,
    }
}

/// One instruction of a lowered codelet, one per typed node. Registers are
/// read in the file their dtype names (`I` i64, `B` bool, `F` f32, `W`
/// double-word, `D` emulated f64) before `dst` is written, so `dst` may be
/// an operand; `param`s index the vertex's operands, jump targets the
/// program and the other `u32`s their side tables. Every instruction but
/// `Cast`, `Unary`, `Not`, `Truth` and `Select` — cold: rare in the solvers'
/// codelets — reads and writes its own domain's registers and storage, with
/// no [`Value`] in between.
#[derive(Clone, Copy, Debug)]
pub(super) enum Ins {
    /// Add `charges[k]`: what the basic block this closes costs.
    Charge(u32),
    /// `X[r] = v`.
    ConstI(Reg, i32),
    ConstB(Reg, bool),
    ConstF(Reg, f32),
    ConstW(Reg, TwoF32),
    ConstD(Reg, f64),
    /// `X[dst] = X[src]` within one file; an I32 as `get` / `put` move it,
    /// through `i32`.
    MovI(Reg, Reg),
    MovB(Reg, Reg),
    MovF(Reg, Reg),
    MovW(Reg, Reg),
    MovD(Reg, Reg),
    /// `I[r] = len(params[param])`.
    Len(Reg, Param),
    /// `X[val] = params[param][I[index]]`, in the parameter's storage domain.
    LoadI(Elem),
    LoadB(Elem),
    LoadF(Elem),
    LoadW(Elem),
    LoadD(Elem),
    /// Arithmetic in one domain (never Bool).
    ArithI(Bin),
    ArithF(Bin),
    ArithW(Bin),
    ArithD(Bin),
    /// A comparison or logic in the operands' domain, into a Bool register.
    CmpI(Bin),
    CmpB(Bin),
    CmpF(Bin),
    CmpW(Bin),
    CmpD(Bin),
    /// `Value::convert`.
    Cast {
        from: DType,
        to: DType,
        dst: Reg,
        src: Reg,
    },
    /// `Neg` / `Abs` / `Sqrt` through `apply_un`, within `dt`'s file.
    Unary {
        op: UnOp,
        dt: DType,
        dst: Reg,
        src: Reg,
    },
    /// `B[dst] = !truth(src)`.
    Not {
        from: DType,
        dst: Reg,
        src: Reg,
    },
    /// `B[dst] = truth(src)`: a condition that is not a Bool.
    Truth {
        from: DType,
        dst: Reg,
        src: Reg,
    },
    /// Both arms are already evaluated; `B[cond]` picks one.
    Select {
        dt: DType,
        dst: Reg,
        cond: Reg,
        then: Reg,
        otherwise: Reg,
    },
    /// `params[param][I[index]] = X[val]`, through [`Domain::store`]: what
    /// `ParamData::set` writes.
    StoreI(Elem),
    StoreB(Elem),
    StoreF(Elem),
    StoreW(Elem),
    StoreD(Elem),
    Jmp(u32),
    JmpIfNot {
        cond: Reg,
        to: u32,
    },
    /// Enter a counted loop whose counter, bound and step are
    /// `I[ctr..ctr + 3]`: the step becomes at least 1; with a trip to run,
    /// `I[local]` is the counter, else jump to `exit`.
    ForInit {
        ctr: Reg,
        local: Reg,
        exit: u32,
    },
    /// Step the counter; with another trip to run, `I[local]` is the
    /// counter and the body runs again from `body`.
    ForNext {
        ctr: Reg,
        local: Reg,
        body: u32,
    },
    /// Run the rest of a counted loop `ForInit` has entered, body and
    /// `ForNext` both: `loops[n]`, its counter registers at `ctr`.
    MacLoop {
        ctr: Reg,
        n: u32,
    },
    /// Run the rest of a `ParFor` `ForInit` has entered, a column at a
    /// time: `maps[n]`, its counter registers at `ctr` and its local `local`.
    Map {
        ctr: Reg,
        local: Reg,
        n: u32,
    },
    /// Remember, in the site's slot, the cycles charged before a `ParFor`.
    ParBegin(u32),
    /// Replace the site's serial cycles by the `ParFor` makespan.
    ParEnd(u32),
}

// Dispatch copies an instruction per step; the loop's operands live in a
// side table and ids are as narrow as a codelet needs, so that no variant
// outgrows two words.
const _: () = assert!(std::mem::size_of::<Ins>() <= 16);

/// An element `params[param][I[index]]` and the register `val` it is loaded
/// into or stored from, in the parameter's storage domain.
#[derive(Clone, Copy, Debug)]
pub(super) struct Elem {
    pub(super) val: Reg,
    pub(super) param: Param,
    pub(super) index: Reg,
}

/// `dst = X[a] op X[b]`.
#[derive(Clone, Copy, Debug)]
pub(super) struct Bin {
    pub(super) op: BinOp,
    pub(super) dst: Reg,
    pub(super) a: Reg,
    pub(super) b: Reg,
}

/// A counted loop whose body is one multiply-accumulate, run to its end by
/// one instruction — the inner loop of a dot product or of a solver row
/// bound to wider storage than its kernel takes (MPIR's double-word and
/// f64 ones). In a float domain `dt`, with `x` and `y` already in it:
///
/// ```text
/// (A)  acc = acc ⊕ (x ⊗ y)
/// (B)  j = cols[k]; if test { (A) }        (k the loop local, no else)
/// ```
///
/// It does what the flat program does, in its order, with the same bounds
/// checks and the same out-of-line operators, and leaves the registers as
/// the flat program leaves them. What it charges is the flat program's
/// per-block sums: `trip` on every trip, `taken` on every trip that
/// accumulates.
#[derive(Clone, Copy, Debug)]
pub(super) struct MacLoop {
    pub(super) dt: DType,
    /// The loop local, as in `ForNext`.
    pub(super) local: Reg,
    pub(super) acc: Reg,
    pub(super) add: BinOp,
    pub(super) mul: BinOp,
    pub(super) x: Operand,
    pub(super) y: Operand,
    /// Shape (B): `j = params[cols][k]` and the test.
    pub(super) guard: Option<Guard>,
    /// `LoopStep`, plus the load of `j`, the test and its branch in (B).
    pub(super) trip: Charge,
    /// The accumulate.
    pub(super) taken: Charge,
}

/// An accumulate operand in the accumulator's domain.
#[derive(Clone, Copy, Debug)]
pub(super) enum Operand {
    /// A local.
    Reg(Reg),
    /// `params[param][I[index]]`.
    Load { param: Param, index: Reg },
    /// `params[param][params[via][I[index]]]`.
    Gather { param: Param, via: Param, index: Reg },
}

#[derive(Clone, Copy, Debug)]
pub(super) struct Guard {
    pub(super) j: Reg,
    pub(super) cols: Param,
    pub(super) test: Test<Reg>,
}

/// An I32 comparison of two locals, or two of them joined by `And` / `Or`:
/// over their registers as recognised, over [`Ix`] once bound.
#[derive(Clone, Copy, Debug)]
pub(super) enum Test<R> {
    One(Cmp<R>),
    Two(BinOp, Cmp<R>, Cmp<R>),
}

/// `a op b`.
#[derive(Clone, Copy, Debug)]
pub(super) struct Cmp<R> {
    pub(super) op: BinOp,
    pub(super) a: R,
    pub(super) b: R,
}

/// A local's register, if `e` reads one.
fn local_reg(e: &TExpr) -> Option<Reg> {
    match e.kind {
        TKind::Local(l) => Reg::try_from(l).ok(),
        _ => None,
    }
}

impl MacLoop {
    /// The accumulate loop a counted loop over `local` is, if its typed
    /// body has shape (A) or (B).
    fn recognise(local: Reg, loop_step: u64, body: &[LStmt]) -> Option<MacLoop> {
        let (guard, unconditional, acc) = match body {
            [acc] => (None, Charge::default(), acc),
            [set_j, branch] => {
                let LStmt::SetLocal { local: j, value, charge: load } = set_j else { return None };
                let LStmt::If { cond, charge: test, then, otherwise } = branch else { return None };
                let ([acc], []) = (then.as_slice(), otherwise.as_slice()) else { return None };
                let TKind::Load { param: cols, index } = &value.kind else { return None };
                if value.dtype != DType::I32 || local_reg(index)? != local {
                    return None;
                }
                let j = Reg::try_from(*j).ok()?;
                let guard = Guard { j, cols: *cols as Param, test: Test::of(cond)? };
                (Some(guard), load.plus(*test), acc)
            }
            _ => return None,
        };
        let LStmt::SetLocal { local: acc, value, charge: taken } = acc else { return None };
        let TKind::Arith { op: add, lhs, rhs } = &value.kind else { return None };
        let TKind::Arith { op: mul, lhs: x, rhs: y } = &rhs.kind else { return None };
        let acc = Reg::try_from(*acc).ok()?;
        if !value.dtype.is_float() || local_reg(lhs)? != acc {
            return None;
        }
        Some(MacLoop {
            dt: value.dtype,
            local,
            acc,
            add: *add,
            mul: *mul,
            x: Operand::of(x)?,
            y: Operand::of(y)?,
            guard,
            trip: Charge::cy(loop_step).plus(unconditional),
            taken: *taken,
        })
    }
}

impl Operand {
    /// A local or a load through at most one index load, each index a
    /// local: no `Cast`, so already in the arithmetic's domain.
    fn of(e: &TExpr) -> Option<Operand> {
        match &e.kind {
            TKind::Local(_) => Some(Operand::Reg(local_reg(e)?)),
            TKind::Load { param, index } => {
                let param = *param as Param;
                Some(match &index.kind {
                    TKind::Local(_) => Operand::Load { param, index: local_reg(index)? },
                    TKind::Load { param: via, index } => {
                        Operand::Gather { param, via: *via as Param, index: local_reg(index)? }
                    }
                    _ => return None,
                })
            }
            _ => None,
        }
    }
}

impl Test<Reg> {
    fn of(e: &TExpr) -> Option<Test<Reg>> {
        match &e.kind {
            &TKind::Compare {
                op: op @ (BinOp::And | BinOp::Or),
                dom: DType::Bool,
                ref lhs,
                ref rhs,
            } => Some(Test::Two(op, Cmp::of(lhs)?, Cmp::of(rhs)?)),
            _ => Cmp::of(e).map(Test::One),
        }
    }
}

impl Cmp<Reg> {
    fn of(e: &TExpr) -> Option<Cmp<Reg>> {
        use BinOp::*;
        match &e.kind {
            &TKind::Compare {
                op: op @ (Eq | Ne | Lt | Le | Gt | Ge),
                dom: DType::I32,
                ref lhs,
                ref rhs,
            } => Some(Cmp { op, a: local_reg(lhs)?, b: local_reg(rhs)? }),
            _ => None,
        }
    }
}

/// How many trips a [`Map`] runs a column over at once, how many columns
/// one of its stores and broadcast scalars the whole map may use, and how
/// many parameters it may name: they live on the stack.
pub(super) const MAP_CHUNK: usize = 64;
pub(super) const MAP_COLS: usize = 8;
pub(super) const MAP_SCALARS: usize = 8;
pub(super) const MAP_PARAMS: usize = 8;

/// An element-wise map: a `ParFor` whose trip is straight-line `Store`s at
/// `p[local]` of trees ([`Node`]) of constants, locals, loads and
/// arithmetic in one float domain `dt` — what `DslCtx::assign` builds,
/// `x + p·α`, `r − q·α`, the zero fill. No trip reads what another writes:
/// a stored parameter is read only at `p[local]`, any other load is
/// `q[local]` or `q[c]` for a constant `c`.
///
/// So one instruction runs the trips a column at a time rather than a trip
/// at a time: per chunk of at most [`MAP_CHUNK`] trips, each store's
/// expression node by node, each node one loop over the chunk, then the
/// store — every element in the order the flat program visits it, with
/// the same operator per element and the same bounds checks. Constants,
/// locals and `q[c]` are bound once, at entry (no trip changes them). It
/// leaves `I[local]` as the last trip leaves it and charges `trip` per trip.
#[derive(Debug)]
pub(super) struct Map {
    pub(super) dt: DType,
    /// What [`Src::Splat`] reads.
    pub(super) scalars: Vec<Scalar>,
    /// Run once per chunk, in order.
    pub(super) code: Vec<Column>,
    /// `LoopStep` plus the stores.
    pub(super) trip: Charge,
    /// Bit `p` set: the map reads or writes `params[p]`.
    pub(super) reals: u8,
}

/// A value every trip of a [`Map`] reads alike.
#[derive(Clone, Copy, Debug)]
pub(super) enum Scalar {
    Real(Value),
    Local(Reg),
    /// `params[param][c]`.
    At(Param, i64),
}

/// A [`Map`] column's operand: another column, or a scalar broadcast.
#[derive(Clone, Copy, Debug)]
pub(super) enum Src {
    Col(u8),
    Splat(u8),
}

/// One loop over a chunk of a [`Map`]'s trips. A column is written once
/// per chunk, after every column it reads.
#[derive(Clone, Copy, Debug)]
pub(super) enum Column {
    /// `col[dst] = params[param][trips]`.
    Load { dst: u8, param: Param },
    /// `col[dst] = a op b`.
    Arith { op: BinOp, dst: u8, a: Src, b: Src },
    /// `params[param][trips] = val`, through `Domain::stored`.
    Store { param: Param, val: Src },
}

impl Map {
    /// The map a `ParFor` trip over `local` is, if it has the shape; `trip`
    /// is what each trip costs besides its statements (`LoopStep`).
    pub(super) fn recognise(local: Reg, body: &[LStmt], trip: Charge) -> Option<Map> {
        let LStmt::Store { value, .. } = body.first()? else { return None };
        let mut scan = Scan { dt: value.dtype, reals: 0 };
        if !scan.dt.is_float() {
            return None;
        }
        let (mut stores, mut stored, mut charge) = (vec![], 0u8, trip);
        for s in body {
            let LStmt::Store { param, index, value, charge: c } = s else { return None };
            if value.dtype != scan.dt || local_reg(index)? != local {
                return None;
            }
            let p = scan.real(Param::try_from(*param).ok()?)?;
            stored |= 1 << p;
            stores.push((p, scan.node(value)?));
            charge = charge.plus(*c);
        }
        let Scan { dt, reals } = scan;
        let mut map = Map { dt, scalars: vec![], code: vec![], trip: charge, reals };
        for (param, value) in &stores {
            let val = map.src(value, local, stored, &mut 0)?;
            map.code.push(Column::Store { param: *param, val });
        }
        Some(map)
    }

    /// Columns for `e`, the next free one `next`; its value's operand. A
    /// load that could see another trip's store declines the map.
    fn src(&mut self, e: &Node, local: Reg, stored: u8, next: &mut u8) -> Option<Src> {
        fn column(next: &mut u8) -> Option<u8> {
            let c = *next;
            *next += 1;
            (usize::from(*next) <= MAP_COLS).then_some(c)
        }
        Some(match e {
            Node::Real(v) => self.splat(Scalar::Real(*v))?,
            Node::Local(r) => self.splat(Scalar::Local(*r))?,
            &Node::At { param, index } if index == local => {
                let dst = column(next)?;
                self.code.push(Column::Load { dst, param });
                Src::Col(dst)
            }
            Node::Load(param, index) if stored >> param & 1 == 0 => match **index {
                Node::Int(c) => self.splat(Scalar::At(*param, c))?,
                _ => return None,
            },
            Node::Arith(op, ab) => {
                let a = self.src(&ab[0], local, stored, next)?;
                let b = self.src(&ab[1], local, stored, next)?;
                let dst = column(next)?;
                self.code.push(Column::Arith { op: *op, dst, a, b });
                Src::Col(dst)
            }
            _ => return None,
        })
    }

    fn splat(&mut self, s: Scalar) -> Option<Src> {
        let k = u8::try_from(self.scalars.len()).ok().filter(|&k| usize::from(k) < MAP_SCALARS)?;
        self.scalars.push(s);
        Some(Src::Splat(k))
    }
}

/// A map's expression, as [`Scan::node`] reads it off the typed tree: in
/// the I32 domain as an index, else in the map's float domain.
#[derive(Debug)]
pub(super) enum Node {
    Int(i64),
    Real(Value),
    Local(Reg),
    /// `params[param][I[index]]`: a load indexed by a local.
    At {
        param: Param,
        index: Reg,
    },
    Load(Param, Box<Node>),
    Arith(BinOp, Box<[Node; 2]>),
}

/// What [`Map::recognise`] has found to touch so far.
struct Scan {
    dt: DType,
    reals: u8,
}

impl Scan {
    /// `p` read or written in the map's float domain.
    fn real(&mut self, p: Param) -> Option<Param> {
        self.reals |= (usize::from(p) < MAP_PARAMS).then(|| 1 << p)?;
        Some(p)
    }

    /// `e` as a map expression: I32, or of the map's float domain.
    fn node(&mut self, e: &TExpr) -> Option<Node> {
        let int = e.dtype == DType::I32;
        if !int && e.dtype != self.dt {
            return None;
        }
        Some(match &e.kind {
            TKind::Const(Value::I32(v)) => Node::Int(*v as i64),
            TKind::Const(v) => Node::Real(*v),
            TKind::Local(_) => Node::Local(local_reg(e)?),
            TKind::Load { param, index } => {
                let mut p = Param::try_from(*param).ok()?;
                if !int {
                    p = self.real(p)?;
                }
                match &index.kind {
                    TKind::Local(_) => Node::At { param: p, index: local_reg(index)? },
                    _ => Node::Load(p, Box::new(self.node(index)?)),
                }
            }
            TKind::Arith { op, lhs, rhs } => {
                Node::Arith(*op, Box::new([self.node(lhs)?, self.node(rhs)?]))
            }
            _ => return None,
        })
    }
}

/// Flattens a typed body: registers allocated stack-wise, statements to
/// instructions, control flow to jumps, and per-statement charges summed
/// per basic block. A program too long for its `u32` jump targets and
/// table indices is declined.
pub(super) struct Emitter {
    pub(super) code: Vec<Ins>,
    pub(super) charges: Vec<Charge>,
    pub(super) loops: Vec<MacLoop>,
    pub(super) maps: Vec<Map>,
    /// The open block's charge so far.
    pending: Charge,
    /// Per file: the next free register, and the most ever in use.
    top: [Reg; 5],
    pub(super) size: [Reg; 5],
    pub(super) sites: usize,
    /// `LoopStep`, charged per trip of `For` / `ParFor`.
    loop_step: u64,
}

impl Emitter {
    /// Registers `0..num_locals` of every file are the locals: local `l`
    /// lives in register `l` of the file of its dtype at that point.
    pub(super) fn new(num_locals: usize, loop_step: u64) -> Option<Emitter> {
        let n = Reg::try_from(num_locals).ok()?;
        Some(Emitter {
            code: Vec::new(),
            charges: Vec::new(),
            loops: Vec::new(),
            maps: Vec::new(),
            pending: Charge::default(),
            top: [n; 5],
            size: [n; 5],
            sites: 0,
            loop_step,
        })
    }

    /// A fresh register of `dt`'s file, free again when `top` is restored.
    fn temp(&mut self, dt: DType) -> Option<Reg> {
        let f = file(dt);
        let r = self.top[f];
        // Three counter registers sit at `ctr..ctr + 3`: keep `r + 2` in range.
        r.checked_add(3)?;
        self.top[f] = r + 1;
        self.size[f] = self.size[f].max(r + 1);
        Some(r)
    }

    fn charge(&mut self, c: Charge) {
        self.pending = self.pending.plus(c);
    }

    /// Close the open block: what it costs becomes one instruction.
    pub(super) fn close(&mut self) -> Option<()> {
        if self.pending != Charge::default() {
            self.code.push(Ins::Charge(index(self.charges.len())?));
            self.charges.push(self.pending);
            self.pending = Charge::default();
        }
        Some(())
    }

    /// Close the open block with `ins` (a jump or a `ParFor` bracket);
    /// returns where it sits, for [`Emitter::patch`].
    fn end_block(&mut self, ins: Ins) -> Option<usize> {
        self.close()?;
        self.code.push(ins);
        Some(self.code.len() - 1)
    }

    /// A jump target here: the open block closes.
    fn label(&mut self) -> Option<u32> {
        self.close()?;
        index(self.code.len())
    }

    /// Aim the forward jump at `at` here.
    fn patch(&mut self, at: usize) -> Option<()> {
        let here = self.label()?;
        match &mut self.code[at] {
            Ins::Jmp(to) | Ins::JmpIfNot { to, .. } | Ins::ForInit { exit: to, .. } => *to = here,
            other => unreachable!("patched a non-jump {other:?}"),
        }
        Some(())
    }

    /// Emit `e`; returns the register holding its value. The outermost
    /// node writes `dst` if given (an operand may be `dst`: every
    /// instruction reads before it writes); a local read is its own
    /// register and emits nothing unless it must move.
    fn expr(&mut self, e: &TExpr, dst: Option<Reg>) -> Option<Reg> {
        let dt = e.dtype;
        if let TKind::Local(l) = e.kind {
            let src = Reg::try_from(l).ok()?;
            return Some(match dst {
                Some(dst) if dst != src => {
                    self.code.push(match dt {
                        DType::I32 => Ins::MovI(dst, src),
                        DType::Bool => Ins::MovB(dst, src),
                        DType::F32 => Ins::MovF(dst, src),
                        DType::DoubleWord => Ins::MovW(dst, src),
                        DType::F64Emulated => Ins::MovD(dst, src),
                    });
                    dst
                }
                _ => src,
            });
        }
        let mark = self.top;
        let [a, b, c] = match &e.kind {
            TKind::Const(_) | TKind::ParamLen(_) | TKind::Local(_) => [0; 3],
            TKind::Load { index: arg, .. }
            | TKind::Unary { arg, .. }
            | TKind::Not(arg)
            | TKind::Cast(arg) => [self.expr(arg, None)?, 0, 0],
            TKind::Arith { lhs, rhs, .. } | TKind::Compare { lhs, rhs, .. } => {
                [self.expr(lhs, None)?, self.expr(rhs, None)?, 0]
            }
            TKind::Select { cond, then, otherwise } => {
                [self.truth(cond)?, self.expr(then, None)?, self.expr(otherwise, None)?]
            }
        };
        // The operands' temporaries are free once this node has read them.
        self.top = mark;
        let dst = match dst {
            Some(dst) => dst,
            None => self.temp(dt)?,
        };
        self.code.push(match &e.kind {
            TKind::Const(v) => match *v {
                Value::I32(v) => Ins::ConstI(dst, v),
                Value::Bool(v) => Ins::ConstB(dst, v),
                Value::F32(v) => Ins::ConstF(dst, v),
                Value::Dw(v) => Ins::ConstW(dst, v),
                Value::F64(v) => Ins::ConstD(dst, v),
            },
            TKind::Local(_) => unreachable!("a local read emits no instruction"),
            TKind::ParamLen(param) => Ins::Len(dst, *param as Param),
            &TKind::Load { param, .. } => {
                let elem = Elem { val: dst, param: param as Param, index: a };
                match dt {
                    DType::I32 => Ins::LoadI(elem),
                    DType::Bool => Ins::LoadB(elem),
                    DType::F32 => Ins::LoadF(elem),
                    DType::DoubleWord => Ins::LoadW(elem),
                    DType::F64Emulated => Ins::LoadD(elem),
                }
            }
            TKind::Unary { op, .. } => Ins::Unary { op: *op, dt, dst, src: a },
            TKind::Not(arg) => Ins::Not { from: arg.dtype, dst, src: a },
            TKind::Cast(arg) => Ins::Cast { from: arg.dtype, to: dt, dst, src: a },
            &TKind::Arith { op, .. } => {
                let bin = Bin { op, dst, a, b };
                match dt {
                    DType::I32 => Ins::ArithI(bin),
                    DType::F32 => Ins::ArithF(bin),
                    DType::DoubleWord => Ins::ArithW(bin),
                    DType::F64Emulated => Ins::ArithD(bin),
                    DType::Bool => unreachable!("Bool arithmetic is typed I32"),
                }
            }
            &TKind::Compare { op, dom, .. } => {
                let bin = Bin { op, dst, a, b };
                match dom {
                    DType::I32 => Ins::CmpI(bin),
                    DType::Bool => Ins::CmpB(bin),
                    DType::F32 => Ins::CmpF(bin),
                    DType::DoubleWord => Ins::CmpW(bin),
                    DType::F64Emulated => Ins::CmpD(bin),
                }
            }
            TKind::Select { .. } => Ins::Select { dt, dst, cond: a, then: b, otherwise: c },
        });
        Some(dst)
    }

    /// Emit a condition; returns the Bool register holding its truth.
    fn truth(&mut self, e: &TExpr) -> Option<Reg> {
        if e.dtype == DType::Bool {
            return self.expr(e, None);
        }
        let mark = self.top;
        let src = self.expr(e, None)?;
        self.top = mark;
        let dst = self.temp(DType::Bool)?;
        self.code.push(Ins::Truth { from: e.dtype, dst, src });
        Some(dst)
    }

    pub(super) fn block(&mut self, stmts: &[LStmt]) -> Option<()> {
        stmts.iter().try_for_each(|s| self.stmt(s))
    }

    /// Emit one statement; its temporaries are free again after it.
    fn stmt(&mut self, s: &LStmt) -> Option<()> {
        let mark = self.top;
        match s {
            LStmt::SetLocal { local, value, charge } => {
                self.expr(value, Some(Reg::try_from(*local).ok()?))?;
                self.charge(*charge);
            }
            LStmt::Store { param, index, value, charge } => {
                let index = self.expr(index, None)?;
                let val = self.expr(value, None)?;
                let elem = Elem { val, param: *param as Param, index };
                self.code.push(match value.dtype {
                    DType::I32 => Ins::StoreI(elem),
                    DType::Bool => Ins::StoreB(elem),
                    DType::F32 => Ins::StoreF(elem),
                    DType::DoubleWord => Ins::StoreW(elem),
                    DType::F64Emulated => Ins::StoreD(elem),
                });
                self.charge(*charge);
            }
            LStmt::If { cond, charge, then, otherwise } => {
                let cond = self.truth(cond)?;
                self.charge(*charge);
                let to_else = self.end_block(Ins::JmpIfNot { cond, to: 0 })?;
                self.top = mark;
                self.block(then)?;
                if otherwise.is_empty() {
                    self.patch(to_else)?;
                } else {
                    let to_end = self.end_block(Ins::Jmp(0))?;
                    self.patch(to_else)?;
                    self.block(otherwise)?;
                    self.patch(to_end)?;
                }
            }
            LStmt::While { cond, charge, body } => {
                let head = self.label()?;
                let cond = self.truth(cond)?;
                self.charge(*charge);
                let exit = self.end_block(Ins::JmpIfNot { cond, to: 0 })?;
                self.top = mark;
                self.block(body)?;
                self.end_block(Ins::Jmp(head))?;
                self.patch(exit)?;
            }
            LStmt::For { local, start, end, step, head, body } => {
                self.counted(*local, [start, end], Some(step), *head, body)?
            }
            LStmt::ParFor { local, start, end, head, body } => {
                self.counted(*local, [start, end], None, *head, body)?
            }
        }
        self.top = mark;
        Some(())
    }

    /// A `For` (`step` given) or a `ParFor` (no `step`: step 1, bracketed by
    /// `ParBegin` / `ParEnd`): the bounds go into hidden counter registers,
    /// so a body that writes `local` does not change the trip count. An
    /// accumulate body runs as one [`MacLoop`] in place of itself and its
    /// `ForNext`; a `ParFor` whose trip is an element-wise map, as one
    /// [`Map`].
    fn counted(
        &mut self,
        local: LocalId,
        [start, end]: [&TExpr; 2],
        step: Option<&TExpr>,
        head: Charge,
        body: &[LStmt],
    ) -> Option<()> {
        let local = Reg::try_from(local).ok()?;
        let ctr = self.temp(DType::I32)?;
        self.temp(DType::I32)?;
        self.temp(DType::I32)?;
        self.expr(start, Some(ctr))?;
        self.expr(end, Some(ctr + 1))?;
        match step {
            Some(step) => {
                self.expr(step, Some(ctr + 2))?;
            }
            None => self.code.push(Ins::ConstI(ctr + 2, 1)),
        }
        self.charge(head);
        // The snapshot sees every charge before it: `ParBegin` closes the
        // block the bounds were charged in.
        let site = if step.is_none() {
            let site = index(self.sites)?;
            self.sites += 1;
            self.end_block(Ins::ParBegin(site))?;
            Some(site)
        } else {
            None
        };
        let init = self.end_block(Ins::ForInit { ctr, local, exit: 0 })?;
        let step_charge = Charge::cy(self.loop_step);
        if let Some(m) = MacLoop::recognise(local, self.loop_step, body) {
            self.code.push(Ins::MacLoop { ctr, n: index(self.loops.len())? });
            self.loops.push(m);
        } else if let Some(map) =
            step.is_none().then(|| Map::recognise(local, body, step_charge)).flatten()
        {
            self.code.push(Ins::Map { ctr, local, n: index(self.maps.len())? });
            self.maps.push(map);
        } else {
            let trip = self.label()?;
            self.charge(step_charge);
            self.block(body)?;
            self.end_block(Ins::ForNext { ctr, local, body: trip })?;
        }
        self.patch(init)?;
        if let Some(site) = site {
            self.end_block(Ins::ParEnd(site))?;
        }
        Some(())
    }
}
