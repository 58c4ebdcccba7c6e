//! The register machine: runs a lowered program over one register file per
//! domain, a multiply-accumulate loop as one instruction, an element-wise
//! map as one instruction, a column at a time, and a kernel's vertex as one
//! native loop.

use super::emit::{
    Bin, Cmp, Column, Elem, Ins, MacLoop, Map, Operand, Param, Reg, Scalar, Src, Test, MAP_CHUNK,
    MAP_COLS, MAP_PARAMS, MAP_SCALARS,
};
use super::interp::parfor_makespan;
use super::ir::{
    apply_un, arith_dw, arith_f32, arith_f64, arith_i64, cmp_dw, cmp_f32, cmp_f64, cmp_i64,
    through_f64, BinOp, ParamData, Value,
};
use super::kernels::{F32Ops, Native};
use super::lower::{Charge, Lowered};
use crate::compute::VertexKind;
use ipu_sim::cost::{CostModel, DType};
use ipu_sim::threading::{level_set_cycles_in, LptScratch};
use std::cell::Cell;
use twofloat::{SoftDouble, TwoF32};

impl Lowered {
    /// Run one vertex in `regs` (any contents). Storage bits and the
    /// returned footprint are what [`Interp::run_vertex`] leaves and
    /// reports for the same binding; [`Lowered::local`] reads back the
    /// locals it leaves. A kernel's vertex is the kernel's one native loop.
    pub fn run_vertex(
        &self,
        kind: &VertexKind,
        params: &mut [ParamData],
        regs: &mut Regs,
        cost: &CostModel,
        workers: u64,
    ) -> Charge {
        self.run_vertex_with::<Native>(kind, params, regs, cost, workers)
    }

    /// [`Lowered::run_vertex`], a kernel's loop performing its f32
    /// operations through `O` (see [`F32Ops`]).
    pub fn run_vertex_with<O: F32Ops>(
        &self,
        kind: &VertexKind,
        params: &mut [ParamData],
        regs: &mut Regs,
        cost: &CostModel,
        workers: u64,
    ) -> Charge {
        assert_eq!(
            self.level_set,
            matches!(kind, VertexKind::LevelSet { .. }),
            "lowered for the other vertex kind"
        );
        if let Some(k) = self.kernel {
            return k.run::<O>(kind, params, &mut regs.lpt, cost, workers);
        }
        regs.files.reset(&self.files, self.sites);
        let mut run = Charge::default();
        let cycles = match kind {
            VertexKind::Simple => {
                self.exec(&mut regs.files, params, &mut run, cost, workers);
                run.cycles
            }
            VertexKind::LevelSet { levels } => {
                let Regs { files, lpt } = regs;
                level_set_cycles_in(lpt, levels, workers as usize, cost, |row| {
                    files.i[0] = row as i32 as i64;
                    let before = run.cycles;
                    self.exec(files, params, &mut run, cost, workers);
                    run.cycles - before
                })
            }
        };
        Charge { cycles, ..run }
    }

    /// Run the program once from the top: the whole body, or one row.
    fn exec(
        &self,
        reg: &mut Files,
        params: &mut [ParamData],
        run: &mut Charge,
        cost: &CostModel,
        workers: u64,
    ) {
        let mut pc = 0;
        while let Some(&ins) = self.code.get(pc) {
            pc += 1;
            match ins {
                Ins::Charge(k) => *run = run.plus(self.charges[k as usize]),
                Ins::ConstI(r, v) => reg.i[r] = v as i64,
                Ins::ConstB(r, v) => reg.b[r] = v,
                Ins::ConstF(r, v) => reg.f[r] = v,
                Ins::ConstW(r, v) => reg.w[r] = v,
                Ins::ConstD(r, v) => reg.d[r] = v,
                Ins::MovI(dst, src) => reg.i[dst] = reg.i[src] as i32 as i64,
                Ins::MovB(dst, src) => reg.b[dst] = reg.b[src],
                Ins::MovF(dst, src) => reg.f[dst] = reg.f[src],
                Ins::MovW(dst, src) => reg.w[dst] = reg.w[src],
                Ins::MovD(dst, src) => reg.d[dst] = reg.d[src],
                Ins::Len(r, param) => reg.i[r] = params[param as usize].len() as i32 as i64,
                Ins::LoadI(Elem { val, param, index }) => {
                    reg.i[val] = i64::load(&params[param as usize], reg.i[index] as usize)
                }
                Ins::LoadB(Elem { val, param, index }) => {
                    reg.b[val] = bool::load(&params[param as usize], reg.i[index] as usize)
                }
                Ins::LoadF(Elem { val, param, index }) => {
                    reg.f[val] = f32::load(&params[param as usize], reg.i[index] as usize)
                }
                Ins::LoadW(Elem { val, param, index }) => {
                    reg.w[val] = TwoF32::load(&params[param as usize], reg.i[index] as usize)
                }
                Ins::LoadD(Elem { val, param, index }) => {
                    reg.d[val] = f64::load(&params[param as usize], reg.i[index] as usize)
                }
                Ins::ArithI(Bin { op, dst, a, b }) => {
                    reg.i[dst] = arith_i64(op, reg.i[a], reg.i[b])
                }
                Ins::ArithF(Bin { op, dst, a, b }) => {
                    reg.f[dst] = arith_f32(op, reg.f[a], reg.f[b])
                }
                Ins::ArithW(Bin { op, dst, a, b }) => reg.w[dst] = arith_dw(op, reg.w[a], reg.w[b]),
                Ins::ArithD(Bin { op, dst, a, b }) => {
                    reg.d[dst] = arith_f64(op, reg.d[a], reg.d[b])
                }
                Ins::CmpI(Bin { op, dst, a, b }) => reg.b[dst] = cmp_i64(op, reg.i[a], reg.i[b]),
                // Two Bools compare as the integers 0 and 1, as in `apply_bin`.
                Ins::CmpB(Bin { op, dst, a, b }) => {
                    reg.b[dst] = cmp_i64(op, reg.b[a] as i64, reg.b[b] as i64)
                }
                Ins::CmpF(Bin { op, dst, a, b }) => reg.b[dst] = cmp_f32(op, reg.f[a], reg.f[b]),
                Ins::CmpW(Bin { op, dst, a, b }) => reg.b[dst] = cmp_dw(op, reg.w[a], reg.w[b]),
                Ins::CmpD(Bin { op, dst, a, b }) => reg.b[dst] = cmp_f64(op, reg.d[a], reg.d[b]),
                Ins::Cast { from, to, dst, src } => {
                    let v = reg.get(from, src).convert(to);
                    reg.put(dst, v);
                }
                Ins::Unary { op, dt, dst, src } => {
                    let v = apply_un(op, reg.get(dt, src)).0;
                    reg.put(dst, v);
                }
                Ins::Not { from, dst, src } => reg.b[dst] = !reg.get(from, src).as_bool(),
                Ins::Truth { from, dst, src } => reg.b[dst] = reg.get(from, src).as_bool(),
                Ins::Select { dt, dst, cond, then, otherwise } => {
                    let v = reg.get(dt, if reg.b[cond] { then } else { otherwise });
                    reg.put(dst, v);
                }
                Ins::StoreI(Elem { val, param, index }) => {
                    i64::store(&mut params[param as usize], reg.i[index] as usize, reg.i[val])
                }
                Ins::StoreB(Elem { val, param, index }) => {
                    bool::store(&mut params[param as usize], reg.i[index] as usize, reg.b[val])
                }
                Ins::StoreF(Elem { val, param, index }) => {
                    f32::store(&mut params[param as usize], reg.i[index] as usize, reg.f[val])
                }
                Ins::StoreW(Elem { val, param, index }) => {
                    TwoF32::store(&mut params[param as usize], reg.i[index] as usize, reg.w[val])
                }
                Ins::StoreD(Elem { val, param, index }) => {
                    f64::store(&mut params[param as usize], reg.i[index] as usize, reg.d[val])
                }
                Ins::Jmp(to) => pc = to as usize,
                Ins::JmpIfNot { cond, to } => {
                    if !reg.b[cond] {
                        pc = to as usize;
                    }
                }
                Ins::ForInit { ctr, local, exit } => {
                    reg.i[ctr + 2] = reg.i[ctr + 2].max(1);
                    if reg.i[ctr] < reg.i[ctr + 1] {
                        reg.i[local] = reg.i[ctr] as i32 as i64;
                    } else {
                        pc = exit as usize;
                    }
                }
                Ins::ForNext { ctr, local, body } => {
                    reg.i[ctr] += reg.i[ctr + 2];
                    if reg.i[ctr] < reg.i[ctr + 1] {
                        reg.i[local] = reg.i[ctr] as i32 as i64;
                        pc = body as usize;
                    }
                }
                Ins::MacLoop { ctr, n } => {
                    let m = &self.loops[n as usize];
                    match m.dt {
                        DType::F32 => mac_loop::<f32>(m, ctr, reg, params, run),
                        DType::DoubleWord => mac_loop::<TwoF32>(m, ctr, reg, params, run),
                        DType::F64Emulated => mac_loop::<f64>(m, ctr, reg, params, run),
                        DType::I32 | DType::Bool => unreachable!("accumulates in a float domain"),
                    }
                }
                Ins::Map { ctr, local, n } => {
                    let m = &self.maps[n as usize];
                    match m.dt {
                        DType::F32 => map::<f32>(m, [ctr, local], reg, params, run),
                        DType::DoubleWord => map::<TwoF32>(m, [ctr, local], reg, params, run),
                        DType::F64Emulated => map::<f64>(m, [ctr, local], reg, params, run),
                        DType::I32 | DType::Bool => unreachable!("a map is of a float domain"),
                    }
                }
                Ins::ParBegin(site) => reg.par[site as usize] = run.cycles,
                Ins::ParEnd(site) => {
                    // Independent trips spread over the workers: the serial
                    // cycles since `ParBegin` become the parallel makespan.
                    let before = reg.par[site as usize];
                    run.cycles = before + parfor_makespan(run.cycles - before, workers, cost);
                }
            }
        }
    }
}

impl Test<Reg> {
    /// This test as every trip of `m` evaluates it, entering with `i`.
    #[inline(always)]
    fn bind(self, m: &MacLoop, i: &[i64]) -> Test<Ix> {
        let cmp = |c: Cmp<Reg>| Cmp { op: c.op, a: Ix::bind(c.a, m, i), b: Ix::bind(c.b, m, i) };
        match self {
            Test::One(c) => Test::One(cmp(c)),
            Test::Two(op, a, b) => Test::Two(op, cmp(a), cmp(b)),
        }
    }
}

impl Test<Ix> {
    /// Whether the trip with these `k` and `j` accumulates.
    #[inline(always)]
    fn eval(self, k: i64, j: i64) -> bool {
        let cmp = |c: Cmp<Ix>| cmp_i64(c.op, c.a.at(k, j), c.b.at(k, j));
        match self {
            Test::One(c) => cmp(c),
            // Two Bools join as the integers 0 and 1, as `CmpB` joins them.
            Test::Two(op, a, b) => cmp_i64(op, cmp(a) as i64, cmp(b) as i64),
        }
    }
}

/// An index or guard operand of a [`MacLoop`], bound at the loop's entry:
/// the loop local `k`, `j`, or a value no trip changes.
#[derive(Clone, Copy, Debug)]
enum Ix {
    K,
    J,
    Fixed(i64),
}

impl Ix {
    /// What I32 register `r` holds on each trip of `m`, entering with `i`.
    /// `j` is tested first: it may be the loop local's own register, which
    /// every trip then writes last with `j`.
    #[inline(always)]
    fn bind(r: Reg, m: &MacLoop, i: &[i64]) -> Ix {
        match m.guard {
            Some(g) if g.j == r => Ix::J,
            _ if r == m.local => Ix::K,
            _ => Ix::Fixed(i[r as usize]),
        }
    }

    #[inline(always)]
    fn at(self, k: i64, j: i64) -> i64 {
        match self {
            Ix::K => k,
            Ix::J => j,
            Ix::Fixed(v) => v,
        }
    }
}

/// A parameter's elements in a float domain: read-only, or writable through
/// cells, so that one binding serves a map's loads and its stores.
#[derive(Clone, Copy)]
enum Slot<'p, T> {
    Ro(&'p [T]),
    Rw(&'p [Cell<T>]),
}

impl<T: Copy> Slot<'_, T> {
    #[inline(always)]
    fn get(self, i: usize) -> T {
        match self {
            Slot::Ro(s) => s[i],
            Slot::Rw(s) => s[i].get(),
        }
    }
}

impl<'p, T> Slot<'p, T> {
    /// The elements, to store to.
    #[inline(always)]
    fn cells(self) -> &'p [Cell<T>] {
        match self {
            Slot::Rw(s) => s,
            Slot::Ro(_) => unreachable!("store to immutable param rejected by Codelet::validate"),
        }
    }
}

/// An accumulate operand bound at the loop's entry: its storage matched and
/// its registers read once.
enum Bound<'p, D: Accumulate> {
    /// The accumulator, as the trip finds it.
    Acc,
    /// Any other register: no trip writes it.
    Fixed(D),
    /// `slice[ix]`.
    Load(Slot<'p, D::Stored>, Ix),
    /// `slice[cols[ix]]`.
    Gather(Slot<'p, D::Stored>, &'p [i32], Ix),
}

impl<'p, D: Accumulate> Bound<'p, D> {
    /// `op` as the trips of `m` read it over `params`, entering with
    /// registers `i` and `d`.
    #[inline(always)]
    fn bind(op: Operand, m: &MacLoop, i: &[i64], d: &[D], params: &'p [ParamData]) -> Bound<'p, D> {
        let real = |p: Param| Slot::Ro(D::slice(&params[p as usize]));
        match op {
            Operand::Reg(r) if r == m.acc => Bound::Acc,
            Operand::Reg(r) => Bound::Fixed(d[r as usize]),
            Operand::Load { param, index } => Bound::Load(real(param), Ix::bind(index, m, i)),
            Operand::Gather { param, via, index } => {
                Bound::Gather(real(param), i64::slice(&params[via as usize]), Ix::bind(index, m, i))
            }
        }
    }

    /// The operand on the trip with these `k`, `j` and accumulator; every
    /// element bounds-checked.
    #[inline(always)]
    fn get(&self, acc: D, k: i64, j: i64) -> D {
        match *self {
            Bound::Acc => acc,
            Bound::Fixed(v) => v,
            Bound::Load(s, ix) => D::value(s.get(ix.at(k, j) as usize)),
            Bound::Gather(s, cols, ix) => D::value(s.get(cols[ix.at(k, j) as usize] as usize)),
        }
    }
}

/// The trips of `m` over `params` from counter `ctr` while it is below
/// `end`, by `step` (at least 1), in registers `i` and `d`: how many ran,
/// and how many of them accumulated. What the trips read is bound once, at entry; the
/// counter, the loop local, `j` and the accumulator then live in variables,
/// and the last three go back to their registers once, at exit, as the flat
/// program leaves them. (A panic mid-loop leaves them stale: nothing reads
/// them, since the next vertex resets every register.) The binding and
/// per-trip helpers are `#[inline(always)]`: left to the compiler they
/// stayed calls, ≈10 % of `fig8_mpir`'s replay, and inlined the benchmark
/// ran ≈5 % faster.
#[inline(always)]
fn accumulate<D: Accumulate>(
    m: &MacLoop,
    bounds: [i64; 3],
    i: &mut [i64],
    d: &mut [D],
    params: &[ParamData],
) -> (u64, u64) {
    let x = Bound::bind(m.x, m, i, d, params);
    let y = Bound::bind(m.y, m, i, d, params);
    let cols = m.guard.map_or(&[][..], |g| i64::slice(&params[g.cols as usize]));
    // The shapes the solvers' loops take, each its own compiled loop.
    match (&x, &y) {
        (&Bound::Load(xs, Ix::K), &Bound::Gather(ys, via, Ix::K)) => {
            Bound2 { x: AtK(xs), y: GatherK(ys, via), cols }.trips(m, bounds, i, d)
        }
        (&Bound::Load(xs, Ix::K), &Bound::Load(ys, Ix::J)) => {
            Bound2 { x: AtK(xs), y: AtJ(ys), cols }.trips(m, bounds, i, d)
        }
        _ => Bound2 { x, y, cols }.trips(m, bounds, i, d),
    }
}

/// A loop's two operands and its guard's `cols`, bound.
struct Bound2<'p, X, Y> {
    x: X,
    y: Y,
    cols: &'p [i32],
}

impl<X, Y> Bound2<'_, X, Y> {
    /// Run the loop `m` from `[ctr, end, step]` in registers `i` and `d`:
    /// how many trips ran and how many of them accumulated.
    #[inline(always)]
    fn trips<D: Accumulate>(
        &self,
        m: &MacLoop,
        [ctr, end, step]: [i64; 3],
        i: &mut [i64],
        d: &mut [D],
    ) -> (u64, u64)
    where
        X: Get<D>,
        Y: Get<D>,
    {
        let entry = Entry {
            ctr,
            end,
            step,
            k: i[m.local as usize],
            j: m.guard.map_or(0, |g| i[g.j as usize]),
            acc: d[m.acc as usize],
        };
        let guard = m.guard.map(|g| (self.cols, g.test.bind(m, i)));
        let (k, j, acc, counts) = trips(m, entry, guard, &self.x, &self.y);
        // In the flat program's order: `j` may be the local's own register.
        i[m.local as usize] = k;
        if let Some(g) = m.guard {
            i[g.j as usize] = j;
        }
        d[m.acc as usize] = acc;
        counts
    }
}

/// A loop's state at entry: its counter, bound and step, and what the loop
/// local, `j` and the accumulator hold.
struct Entry<D> {
    ctr: i64,
    end: i64,
    step: i64,
    k: i64,
    j: i64,
    acc: D,
}

/// The trips themselves, over operands of one shape each: the loop local,
/// `j` and the accumulator they leave, and how many ran and accumulated.
#[inline(always)]
fn trips<D: Accumulate>(
    m: &MacLoop,
    Entry { mut ctr, end, step, mut k, mut j, mut acc }: Entry<D>,
    guard: Option<(&[i32], Test<Ix>)>,
    x: &impl Get<D>,
    y: &impl Get<D>,
) -> (i64, i64, D, (u64, u64)) {
    let (mut trips, mut taken) = (0, 0);
    while ctr < end {
        k = ctr as i32 as i64;
        ctr += step;
        trips += 1;
        if let Some((cols, test)) = guard {
            j = cols[k as usize] as i64;
            if !test.eval(k, j) {
                continue;
            }
        }
        let (x, y) = (x.get(acc, k, j), y.get(acc, k, j));
        acc = D::arith(m.add, acc, D::arith(m.mul, x, y));
        taken += 1;
    }
    (k, j, acc, (trips, taken))
}

/// An accumulate operand as a trip reads it, given `k`, `j` and the
/// accumulator: a [`Bound`] of any shape, or one of the shapes the solvers'
/// loops take, read without matching on it.
trait Get<D> {
    fn get(&self, acc: D, k: i64, j: i64) -> D;
}

impl<D: Accumulate> Get<D> for Bound<'_, D> {
    #[inline(always)]
    fn get(&self, acc: D, k: i64, j: i64) -> D {
        Bound::get(self, acc, k, j)
    }
}

/// `slice[k]`.
struct AtK<'p, T>(Slot<'p, T>);

/// `slice[j]`.
struct AtJ<'p, T>(Slot<'p, T>);

/// `slice[cols[k]]`.
struct GatherK<'p, T>(Slot<'p, T>, &'p [i32]);

impl<D: Accumulate> Get<D> for AtK<'_, D::Stored> {
    #[inline(always)]
    fn get(&self, _: D, k: i64, _: i64) -> D {
        D::value(self.0.get(k as usize))
    }
}

impl<D: Accumulate> Get<D> for AtJ<'_, D::Stored> {
    #[inline(always)]
    fn get(&self, _: D, _: i64, j: i64) -> D {
        D::value(self.0.get(j as usize))
    }
}

impl<D: Accumulate> Get<D> for GatherK<'_, D::Stored> {
    #[inline(always)]
    fn get(&self, _: D, k: i64, _: i64) -> D {
        D::value(self.0.get(self.1[k as usize] as usize))
    }
}

/// Run the loop `m` from its first trip, which `ForInit` has found and
/// written the local for, to its end; its counter, bound and step are
/// `I[ctr..ctr + 3]`, temporaries no instruction after the loop reads. One
/// compiled copy per domain, out of line: the flat program's dispatch loop
/// keeps its shape. Charges the flat program's per-block sums.
#[inline(never)]
fn mac_loop<D: Accumulate>(
    m: &MacLoop,
    ctr: Reg,
    reg: &mut Files,
    params: &[ParamData],
    run: &mut Charge,
) {
    let bounds = [reg.i[ctr], reg.i[ctr + 1], reg.i[ctr + 2]];
    let (i, d) = D::split(reg);
    let (trips, taken) = accumulate(m, bounds, i, d, params);
    *run = run.plus(m.trip.times(trips)).plus(m.taken.times(taken));
}

/// A map's operands, bound once per vertex: each parameter it names in its
/// float domain (bit `p` of `reals`), writable if the parameter is.
struct Bind<'p, D: Accumulate> {
    reals: [Slot<'p, D::Stored>; MAP_PARAMS],
}

impl<'p, D: Accumulate> Bind<'p, D> {
    fn new(reals: u8, params: &'p mut [ParamData]) -> Bind<'p, D> {
        let mut b = Bind { reals: [Slot::Ro(&[]); MAP_PARAMS] };
        for (p, data) in params.iter_mut().take(MAP_PARAMS).enumerate() {
            if reals >> p & 1 != 0 {
                b.reals[p] = D::slot(data);
            }
        }
        b
    }

    // A map names parameters below `MAP_PARAMS` only (`Scan::real` sees to
    // it), so the remainder is the id itself, and the array needs no check.
    #[inline(always)]
    fn real(&self, p: Param) -> Slot<'p, D::Stored> {
        self.reals[p as usize % MAP_PARAMS]
    }
}

/// Run the rest of a `ParFor` whose trip is map `m`, its counter and bound
/// in `I[ctr..ctr + 2]` and its first trip found by `ForInit`: a chunk of
/// trips at a time, each of `m`'s columns one loop over the chunk, in
/// columns on the stack. Leaves `I[local]` as the last trip does.
#[inline(never)]
fn map<D: Accumulate>(
    m: &Map,
    [ctr, local]: [Reg; 2],
    reg: &mut Files,
    params: &mut [ParamData],
    run: &mut Charge,
) {
    let (start, end) = (reg.i[ctr], reg.i[ctr + 1]);
    let b = Bind::<D>::new(m.reals, params);
    let (i, d) = D::split(reg);
    let mut splat = [D::default(); MAP_SCALARS];
    for (x, s) in splat.iter_mut().zip(&m.scalars) {
        *x = match *s {
            Scalar::Real(v) => D::of(v),
            Scalar::Local(r) => d[r as usize],
            Scalar::At(p, c) => D::value(b.real(p).get(c as usize)),
        };
    }
    let mut cols = [[D::default(); MAP_CHUNK]; MAP_COLS];
    let mut t = start;
    while t < end {
        let n = (end - t).min(MAP_CHUNK as i64) as usize;
        // A negative index is as out of range as it is in the flat program.
        let at = t as usize;
        for c in &m.code {
            column(*c, at, n, &b, &splat, &mut cols);
        }
        t += n as i64;
    }
    i[local as usize] = (end - 1) as i32 as i64;
    *run = run.plus(m.trip.times((end - start) as u64));
}

/// One column of a map over the `n` trips from element `at`; every element
/// bounds-checked, a chunk's slice at a time.
#[inline(always)]
fn column<D: Accumulate>(
    c: Column,
    at: usize,
    n: usize,
    b: &Bind<'_, D>,
    splat: &[D; MAP_SCALARS],
    cols: &mut [[D; MAP_CHUNK]; MAP_COLS],
) {
    match c {
        Column::Load { dst, param } => {
            let out = &mut cols[dst as usize][..n];
            match b.real(param) {
                Slot::Ro(s) => {
                    out.iter_mut().zip(&s[at..][..n]).for_each(|(o, v)| *o = D::value(*v))
                }
                Slot::Rw(s) => {
                    out.iter_mut().zip(&s[at..][..n]).for_each(|(o, v)| *o = D::value(v.get()))
                }
            }
        }
        Column::Arith { op, dst, a, b } => {
            // Every column an operation reads was written before its own.
            let (done, rest) = cols.split_at_mut(dst as usize);
            let out = &mut rest[0][..n];
            let col = |c: u8| &done[c as usize][..n];
            match (a, b) {
                (Src::Col(x), Src::Col(y)) => D::column(op, col(x), col(y), out),
                (Src::Col(x), Src::Splat(y)) => {
                    D::column(op, col(x), Splat(splat[y as usize]), out)
                }
                (Src::Splat(x), Src::Col(y)) => {
                    D::column(op, Splat(splat[x as usize]), col(y), out)
                }
                (Src::Splat(x), Src::Splat(y)) => {
                    D::column(op, Splat(splat[x as usize]), Splat(splat[y as usize]), out)
                }
            }
        }
        Column::Store { param, val } => {
            let s = &b.real(param).cells()[at..][..n];
            match val {
                Src::Col(x) => {
                    s.iter().zip(&cols[x as usize]).for_each(|(e, v)| e.set(D::stored(*v)))
                }
                Src::Splat(x) => {
                    let v = D::stored(splat[x as usize]);
                    s.iter().for_each(|e| e.set(v));
                }
            }
        }
    }
}

/// A map column's operand, element `k` of a chunk: a column, or a scalar
/// every element reads.
trait Lane<D>: Copy {
    fn at(self, k: usize) -> D;
}

impl<D: Copy> Lane<D> for &[D] {
    #[inline(always)]
    fn at(self, k: usize) -> D {
        self[k]
    }
}

#[derive(Clone, Copy)]
struct Splat<D>(D);

impl<D: Copy> Lane<D> for Splat<D> {
    #[inline(always)]
    fn at(self, _: usize) -> D {
        self.0
    }
}

/// `out[k] = f(a[k], b[k])` over a chunk.
#[inline(always)]
fn each<D, A: Lane<D>, B: Lane<D>>(a: A, b: B, out: &mut [D], f: impl Fn(D, D) -> D) {
    for (k, o) in out.iter_mut().enumerate() {
        *o = f(a.at(k), b.at(k));
    }
}

/// Scratch a lowered vertex runs in, reused from vertex to vertex: one
/// register file per domain, a snapshot slot per `ParFor` site, and the
/// level-set schedule's buffers.
#[derive(Debug, Default)]
pub struct Regs {
    pub(super) files: Files,
    lpt: LptScratch,
}

#[derive(Debug, Default)]
pub(super) struct Files {
    i: File<i64>,
    b: File<bool>,
    f: File<f32>,
    w: File<TwoF32>,
    d: File<f64>,
    par: Vec<u64>,
}

impl Files {
    /// Size every file for one program, all zero: locals start as the I32
    /// zero, and nothing else is read before it is written.
    fn reset(&mut self, sizes: &[Reg; 5], sites: usize) {
        self.i.reset(sizes[0]);
        self.b.reset(sizes[1]);
        self.f.reset(sizes[2]);
        self.w.reset(sizes[3]);
        self.d.reset(sizes[4]);
        self.par.clear();
        self.par.resize(sites, 0);
    }

    /// `X[r]` as a `Value`: for the cold instructions and [`Lowered::local`].
    #[inline]
    pub(super) fn get(&self, dt: DType, r: Reg) -> Value {
        match dt {
            DType::I32 => Value::I32(self.i[r] as i32),
            DType::Bool => Value::Bool(self.b[r]),
            DType::F32 => Value::F32(self.f[r]),
            DType::DoubleWord => Value::Dw(self.w[r]),
            DType::F64Emulated => Value::F64(self.d[r]),
        }
    }

    #[inline]
    fn put(&mut self, r: Reg, v: Value) {
        match v {
            Value::I32(x) => self.i[r] = x as i64,
            Value::Bool(x) => self.b[r] = x,
            Value::F32(x) => self.f[r] = x,
            Value::Dw(x) => self.w[r] = x,
            Value::F64(x) => self.d[r] = x,
        }
    }
}

/// One domain's registers, indexed by [`Reg`].
#[derive(Debug, Default)]
pub(super) struct File<T>(Vec<T>);

impl<T: Copy + Default> File<T> {
    fn reset(&mut self, n: Reg) {
        self.0.clear();
        self.0.resize(n as usize, T::default());
    }
}

impl<T> std::ops::Index<Reg> for File<T> {
    type Output = T;

    #[inline]
    fn index(&self, r: Reg) -> &T {
        &self.0[r as usize]
    }
}

impl<T> std::ops::IndexMut<Reg> for File<T> {
    #[inline]
    fn index_mut(&mut self, r: Reg) -> &mut T {
        &mut self.0[r as usize]
    }
}

/// A lowered codelet met storage other than the `want` it was typed for,
/// or stores to a read-only operand: a lowering bug. Said without indexing
/// the slice.
#[cold]
fn mistyped(want: DType) -> ! {
    unreachable!("an operand's storage is not the {want:?} lowering typed, or is read-only")
}

/// A register domain: the Rust type a dtype's values have in registers, and
/// how a parameter's storage holds them.
trait Domain: Copy {
    /// One element of a parameter whose storage is this domain's.
    type Stored: Copy + 'static;
    /// The elements of `p`, whose storage is this domain's.
    fn slice<'p>(p: &'p ParamData) -> &'p [Self::Stored];
    /// An element as a register holds it.
    fn value(s: Self::Stored) -> Self;
    /// A register as an element holds it: what `ParamData::set` writes for
    /// its [`Value`].
    fn stored(v: Self) -> Self::Stored;
    /// `p[i] = v`, through [`Domain::stored`].
    fn store(p: &mut ParamData, i: usize, v: Self);

    /// `p[i]`.
    #[inline]
    fn load(p: &ParamData, i: usize) -> Self {
        Self::value(Self::slice(p)[i])
    }
}

impl Domain for i64 {
    type Stored = i32;

    #[inline]
    fn slice<'p>(p: &'p ParamData) -> &'p [i32] {
        match p {
            ParamData::I32(s) => s,
            ParamData::I32Ro(s) => s,
            _ => mistyped(DType::I32),
        }
    }

    #[inline]
    fn value(s: i32) -> i64 {
        s as i64
    }

    #[inline]
    fn stored(v: i64) -> i32 {
        v as i32
    }

    #[inline]
    fn store(p: &mut ParamData, i: usize, v: i64) {
        match p {
            ParamData::I32(s) => s[i] = Self::stored(v),
            _ => mistyped(DType::I32),
        }
    }
}

impl Domain for bool {
    type Stored = bool;

    #[inline]
    fn slice<'p>(p: &'p ParamData) -> &'p [bool] {
        match p {
            ParamData::Bool(s) => s,
            ParamData::BoolRo(s) => s,
            _ => mistyped(DType::Bool),
        }
    }

    #[inline]
    fn value(s: bool) -> bool {
        s
    }

    #[inline]
    fn stored(v: bool) -> bool {
        v
    }

    #[inline]
    fn store(p: &mut ParamData, i: usize, v: bool) {
        match p {
            ParamData::Bool(s) => s[i] = Self::stored(v),
            _ => mistyped(DType::Bool),
        }
    }
}

impl Domain for f32 {
    type Stored = f32;

    #[inline]
    fn slice<'p>(p: &'p ParamData) -> &'p [f32] {
        match p {
            ParamData::F32(s) => s,
            ParamData::F32Ro(s) => s,
            _ => mistyped(DType::F32),
        }
    }

    #[inline]
    fn value(s: f32) -> f32 {
        s
    }

    #[inline]
    fn stored(v: f32) -> f32 {
        through_f64(v)
    }

    #[inline]
    fn store(p: &mut ParamData, i: usize, v: f32) {
        match p {
            ParamData::F32(s) => s[i] = Self::stored(v),
            _ => mistyped(DType::F32),
        }
    }
}

impl Domain for TwoF32 {
    type Stored = TwoF32;

    #[inline]
    fn slice<'p>(p: &'p ParamData) -> &'p [TwoF32] {
        match p {
            ParamData::Dw(s) => s,
            ParamData::DwRo(s) => s,
            _ => mistyped(DType::DoubleWord),
        }
    }

    #[inline]
    fn value(s: TwoF32) -> TwoF32 {
        s
    }

    #[inline]
    fn stored(v: TwoF32) -> TwoF32 {
        v
    }

    #[inline]
    fn store(p: &mut ParamData, i: usize, v: TwoF32) {
        match p {
            ParamData::Dw(s) => s[i] = Self::stored(v),
            _ => mistyped(DType::DoubleWord),
        }
    }
}

impl Domain for f64 {
    type Stored = SoftDouble;

    #[inline]
    fn slice<'p>(p: &'p ParamData) -> &'p [SoftDouble] {
        match p {
            ParamData::F64(s) => s,
            ParamData::F64Ro(s) => s,
            _ => mistyped(DType::F64Emulated),
        }
    }

    #[inline]
    fn value(s: SoftDouble) -> f64 {
        s.0
    }

    #[inline]
    fn stored(v: f64) -> SoftDouble {
        SoftDouble(v)
    }

    #[inline]
    fn store(p: &mut ParamData, i: usize, v: f64) {
        match p {
            ParamData::F64(s) => s[i] = Self::stored(v),
            _ => mistyped(DType::F64Emulated),
        }
    }
}

/// A float domain a [`MacLoop`] or a [`Map`] runs in: its
/// register file beside the I32 one, its constants, its parameters'
/// elements, and its arithmetic through the one compiled copy of each
/// operator.
trait Accumulate: Domain + Default {
    /// The I32 registers and this domain's.
    fn split(f: &mut Files) -> (&mut [i64], &mut [Self]);
    /// A constant of this domain.
    fn of(v: Value) -> Self;
    /// The elements of `p`, whose storage is this domain's: writable through
    /// cells if `p` is mutable.
    fn slot<'p>(p: &'p mut ParamData) -> Slot<'p, Self::Stored>;
    fn arith(op: BinOp, x: Self, y: Self) -> Self;

    /// `out[k] = a[k] op b[k]` over a map's chunk, each element as
    /// [`Accumulate::arith`] computes it.
    #[inline(always)]
    fn column(op: BinOp, a: impl Lane<Self>, b: impl Lane<Self>, out: &mut [Self]) {
        each(a, b, out, |x, y| Self::arith(op, x, y));
    }
}

impl Accumulate for f32 {
    #[inline]
    fn split(f: &mut Files) -> (&mut [i64], &mut [f32]) {
        (&mut f.i.0, &mut f.f.0)
    }

    #[inline]
    fn of(v: Value) -> f32 {
        match v {
            Value::F32(x) => x,
            other => unreachable!("{other:?} typed as F32"),
        }
    }

    #[inline]
    fn slot<'p>(p: &'p mut ParamData) -> Slot<'p, Self::Stored> {
        match p {
            ParamData::F32(s) => Slot::Rw(Cell::from_mut(*s).as_slice_of_cells()),
            ParamData::F32Ro(s) => Slot::Ro(s),
            _ => mistyped(DType::F32),
        }
    }

    #[inline]
    fn arith(op: BinOp, x: f32, y: f32) -> f32 {
        arith_f32(op, x, y)
    }

    /// `+ − × ÷` one loop each, the compiler free to vectorise it. Which
    /// of two NaN operands such a loop returns is its choice, though (see
    /// `arith_f32`): a NaN result is computed again by `arith_f32`, as the
    /// flat program computes it.
    #[inline(always)]
    fn column(op: BinOp, a: impl Lane<f32>, b: impl Lane<f32>, out: &mut [f32]) {
        match op {
            BinOp::Add => each(a, b, out, |x, y| x + y),
            BinOp::Sub => each(a, b, out, |x, y| x - y),
            BinOp::Mul => each(a, b, out, |x, y| x * y),
            BinOp::Div => each(a, b, out, |x, y| x / y),
            _ => return each(a, b, out, |x, y| arith_f32(op, x, y)),
        }
        if out.iter().fold(false, |nan, v| nan | v.is_nan()) {
            for (k, o) in out.iter_mut().enumerate() {
                if o.is_nan() {
                    *o = arith_f32(op, a.at(k), b.at(k));
                }
            }
        }
    }
}

impl Accumulate for TwoF32 {
    #[inline]
    fn split(f: &mut Files) -> (&mut [i64], &mut [TwoF32]) {
        (&mut f.i.0, &mut f.w.0)
    }

    #[inline]
    fn of(v: Value) -> TwoF32 {
        match v {
            Value::Dw(x) => x,
            other => unreachable!("{other:?} typed as DoubleWord"),
        }
    }

    #[inline]
    fn slot<'p>(p: &'p mut ParamData) -> Slot<'p, Self::Stored> {
        match p {
            ParamData::Dw(s) => Slot::Rw(Cell::from_mut(*s).as_slice_of_cells()),
            ParamData::DwRo(s) => Slot::Ro(s),
            _ => mistyped(DType::DoubleWord),
        }
    }

    #[inline]
    fn arith(op: BinOp, x: TwoF32, y: TwoF32) -> TwoF32 {
        arith_dw(op, x, y)
    }
}

impl Accumulate for f64 {
    #[inline]
    fn split(f: &mut Files) -> (&mut [i64], &mut [f64]) {
        (&mut f.i.0, &mut f.d.0)
    }

    #[inline]
    fn of(v: Value) -> f64 {
        match v {
            Value::F64(x) => x,
            other => unreachable!("{other:?} typed as F64Emulated"),
        }
    }

    #[inline]
    fn slot<'p>(p: &'p mut ParamData) -> Slot<'p, Self::Stored> {
        match p {
            ParamData::F64(s) => Slot::Rw(Cell::from_mut(*s).as_slice_of_cells()),
            ParamData::F64Ro(s) => Slot::Ro(s),
            _ => mistyped(DType::F64Emulated),
        }
    }

    #[inline]
    fn arith(op: BinOp, x: f64, y: f64) -> f64 {
        arith_f64(op, x, y)
    }
}
