//! Offline shim for `proptest`.
//!
//! Implements the subset of proptest used by this workspace's property
//! tests, with the same surface syntax:
//!
//! * [`Strategy`] with `prop_map`, `prop_flat_map`, `boxed`;
//! * range strategies (`-1.0f64..1.0`, `2usize..30`, …), tuple strategies,
//!   [`collection::vec`], [`any`], [`Just`];
//! * the [`proptest!`] macro with optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]`;
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assume!`, [`prop_oneof!`].
//!
//! Differences from the real crate: value generation is a deterministic
//! xoshiro stream seeded from the test name, and there is **no shrinking**
//! — on failure the generated inputs are printed as-is. Good enough to
//! keep the invariants enforced without registry access.

use std::ops::Range;

/// Deterministic generator used for all strategies.
#[derive(Clone, Debug)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    pub fn seed_from_u64(seed: u64) -> TestRng {
        let mut st = seed;
        let mut next = move || {
            st = st.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = st;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        TestRng { s: [next(), next(), next(), next()] }
    }

    /// Seed deterministically from a test name.
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng::seed_from_u64(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform usize in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Why a test case did not run to completion.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; try another case.
    Reject,
}

/// How many cases each property runs.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    type Value: std::fmt::Debug;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U: std::fmt::Debug, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S2: Strategy, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    fn prop_filter<F>(self, _why: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy { sampler: std::rc::Rc::new(move |rng: &mut TestRng| self.sample(rng)) }
    }
}

/// Type-erased strategy (what `prop_oneof!` arms are coerced to).
#[derive(Clone)]
pub struct BoxedStrategy<T> {
    sampler: std::rc::Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T: std::fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.sampler)(rng)
    }
}

/// Uniform choice among boxed strategies — the engine of [`prop_oneof!`].
pub fn one_of<T: std::fmt::Debug + 'static>(arms: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T> {
    assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
    BoxedStrategy {
        sampler: std::rc::Rc::new(move |rng: &mut TestRng| {
            let i = rng.below(arms.len());
            arms[i].sample(rng)
        }),
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: std::fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 candidates in a row");
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + v) as $t
            }
        }
    )*};
}
int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        (self.start as f64 + rng.unit_f64() * (self.end as f64 - self.start as f64)) as f32
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A / 0);
    (A / 0, B / 1);
    (A / 0, B / 1, C / 2);
    (A / 0, B / 1, C / 2, D / 3);
    (A / 0, B / 1, C / 2, D / 3, E / 4);
}

/// Types with a default "anything" strategy (`any::<T>()`).
pub trait Arbitrary: Sized + std::fmt::Debug {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

impl Arbitrary for i32 {
    fn arbitrary(rng: &mut TestRng) -> i32 {
        rng.next_u64() as i32
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Mix of magnitudes plus raw bit patterns (which may produce
        // infinities/NaNs — callers filter with prop_assume, as with the
        // real crate).
        match rng.below(8) {
            0 => f64::from_bits(rng.next_u64()),
            1 => (rng.unit_f64() - 0.5) * 2e-300,
            2 => (rng.unit_f64() - 0.5) * 2e300,
            3 => (rng.unit_f64() - 0.5) * 2.0,
            _ => (rng.unit_f64() - 0.5) * 2e12,
        }
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        match rng.below(4) {
            0 => f32::from_bits((rng.next_u64() >> 32) as u32),
            1 => ((rng.unit_f64() - 0.5) * 2e-30) as f32,
            _ => ((rng.unit_f64() - 0.5) * 2e6) as f32,
        }
    }
}

/// The `any::<T>()` strategy.
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors of `elem` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        vec_strategy(elem, len)
    }

    fn vec_strategy<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.start + rng.below(self.len.end.saturating_sub(self.len.start).max(1));
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Alias module so `prop::collection::vec(..)` also resolves.
pub mod prop {
    pub use super::collection;
}

/// Weighted/unweighted uniform choice among strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::one_of(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Assert inside a property; panics (failing the test) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            panic!("prop_assert failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            panic!("prop_assert failed: {}: {}", stringify!($cond), format!($($fmt)*));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            panic!(
                "prop_assert_eq failed: {} != {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                a,
                b
            );
        }
    }};
}

/// Reject the current case (skip, do not fail) when the condition is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// The proptest test-definition macro: each inner `fn` becomes a `#[test]`
/// that runs `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                let mut ran: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = config.cases.saturating_mul(20).max(100);
                while ran < config.cases {
                    attempts += 1;
                    if attempts > max_attempts {
                        panic!(
                            "proptest {}: gave up after {} attempts ({} cases ran); \
                             prop_assume rejects too much",
                            stringify!($name), attempts, ran
                        );
                    }
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    // The closure is the scope a failing `prop_assert!` returns from.
                    #[allow(clippy::redundant_closure_call)]
                    let __case: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        {
                            $(let $arg = $arg;)+
                            $body
                        }
                        ::std::result::Result::Ok(())
                    })();
                    match __case {
                        ::std::result::Result::Ok(()) => ran += 1,
                        ::std::result::Result::Err($crate::TestCaseError::Reject) => continue,
                    }
                }
            }
        )*
    };
    ($($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($(#[$meta])* fn $name($($arg in $strat),+) $body)*
        }
    };
}

pub mod prelude {
    pub use super::{
        any, one_of, prop, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_respected(x in 2usize..9, f in -1.0f64..1.0) {
            prop_assert!((2..9).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn assume_skips(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn flat_map_and_vec(v in (1usize..5).prop_flat_map(|n|
            super::collection::vec(0..n, 1..10)))
        {
            prop_assert!(!v.is_empty() && v.len() < 10);
            let max = *v.iter().max().unwrap();
            prop_assert!(max < 4);
        }

        #[test]
        fn oneof_and_map(x in prop_oneof![
            -1.0f64..0.0,
            (0.0f64..1.0).prop_map(|v| v + 10.0),
        ]) {
            prop_assert!((-1.0..0.0).contains(&x) || (10.0..11.0).contains(&x));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
