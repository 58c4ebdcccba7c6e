//! Offline shim for `criterion`.
//!
//! A minimal micro-benchmark harness with criterion's calling conventions:
//! `Criterion::bench_function`, `benchmark_group` + `bench_function` /
//! `bench_with_input`, `criterion_group!` (both forms), `criterion_main!`
//! and `black_box`. Each benchmark warms up briefly, then runs timed
//! batches until ~200 ms or `sample_size` batches have elapsed, and prints
//! the mean time per iteration (and per element, for a group that declared
//! `Throughput::Elements`). No statistics, no HTML reports — the
//! point is that `cargo bench` keeps working without registry access.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    /// (total elapsed, total iterations) accumulated by `iter`.
    samples: Vec<(Duration, u64)>,
    batch: u64,
}

impl Bencher {
    /// Run `f` repeatedly, timing one batch.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let n = self.batch;
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        self.samples.push((t0.elapsed(), n));
    }
}

/// Top-level harness state.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(name, self.sample_size, None, f);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, group: name.to_string(), throughput: None }
    }
}

/// How much work one iteration does, so a time can be reported per unit.
#[derive(Clone, Copy)]
pub enum Throughput {
    Elements(u64),
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    group: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Applies to the benchmarks declared after it, until set again.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function(&mut self, name: impl Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let name = format!("{}/{}", self.group, name);
        run_one(&name, self.criterion.sample_size, self.throughput, f);
        self
    }

    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let name = format!("{}/{}", self.group, id.0);
        run_one(&name, self.criterion.sample_size, self.throughput, |b| f(b, input));
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(2);
        self
    }

    pub fn finish(self) {}
}

/// Identifier combining a function name and a parameter value.
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(name: impl Display, param: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{name}/{param}"))
    }

    pub fn from_parameter(param: impl Display) -> BenchmarkId {
        BenchmarkId(param.to_string())
    }
}

fn run_one(
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    // Calibration: one iteration to estimate cost and pick a batch size
    // aiming at ~10 ms per sample.
    let mut b = Bencher { samples: Vec::new(), batch: 1 };
    f(&mut b);
    let (dur, n) = *b.samples.last().unwrap_or(&(Duration::from_micros(1), 1));
    let per_iter = (dur.as_nanos().max(1) / n.max(1) as u128).max(1);
    let batch = ((10_000_000 / per_iter) as u64).clamp(1, 1_000_000);

    let mut bench = Bencher { samples: Vec::new(), batch };
    let budget = Duration::from_millis(200);
    let t0 = Instant::now();
    for _ in 0..sample_size {
        f(&mut bench);
        if t0.elapsed() > budget {
            break;
        }
    }
    let (total, iters) =
        bench.samples.iter().fold((Duration::ZERO, 0u64), |(d, n), (sd, sn)| (d + *sd, n + sn));
    let mean_ns = total.as_nanos() as f64 / iters.max(1) as f64;
    let per_unit = match throughput {
        Some(Throughput::Elements(n)) => format!(", {:.1} ns/elem", mean_ns / n.max(1) as f64),
        None => String::new(),
    };
    println!("{name:<50} time: [{mean_ns:.1} ns/iter{per_unit}]  ({iters} iters)");
}

/// Declare a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Entry point running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default().sample_size(2);
        let mut count = 0u64;
        c.bench_function("noop", |b| {
            b.iter(|| {
                count += 1;
            })
        });
        assert!(count > 0);
    }

    #[test]
    fn group_forms_compile_and_run() {
        let mut c = Criterion::default().sample_size(2);
        let mut g = c.benchmark_group("g");
        g.bench_function("f", |b| b.iter(|| black_box(1 + 1)));
        g.bench_with_input(BenchmarkId::new("with", 3), &3u64, |b, &x| b.iter(|| black_box(x * 2)));
        g.finish();
    }
}
