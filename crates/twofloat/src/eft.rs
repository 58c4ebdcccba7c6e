//! Error-free transformations (EFTs).
//!
//! The primitive building blocks of all double-word algorithms: each returns
//! a pair `(result, error)` such that `result + error` equals the exact
//! mathematical value, with `result` the correctly rounded sum/product.

use crate::base::FloatBase;

/// Knuth's `TwoSum`: `(s, e)` with `s = fl(a + b)` and `s + e = a + b`
/// exactly. 6 flops, no precondition on magnitudes.
#[inline(always)]
pub fn two_sum<F: FloatBase>(a: F, b: F) -> (F, F) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Dekker's `Fast2Sum`: like [`two_sum`] but only 3 flops; requires
/// `|a| >= |b|` (or `a == 0`) for the error term to be exact.
#[inline(always)]
pub fn fast_two_sum<F: FloatBase>(a: F, b: F) -> (F, F) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// `TwoDiff`: `(d, e)` with `d = fl(a - b)` and `d + e = a - b` exactly.
#[inline(always)]
pub fn two_diff<F: FloatBase>(a: F, b: F) -> (F, F) {
    let d = a - b;
    let bb = a - d;
    let e = (a - (d + bb)) + (bb - b);
    (d, e)
}

/// `TwoProd` using a fused multiply-add: `(p, e)` with `p = fl(a * b)` and
/// `p + e = a * b` exactly. 2 flops on FMA hardware; the IPU (and every
/// host this simulator runs on) provides FMA.
#[inline(always)]
pub fn two_prod<F: FloatBase>(a: F, b: F) -> (F, F) {
    let p = a * b;
    let e = a.fma(b, -p);
    (p, e)
}

/// Dekker's FMA-free `TwoProd`, kept as a reference implementation and to
/// cross-check [`two_prod`] (17 flops).
#[inline]
pub fn two_prod_dekker<F: FloatBase>(a: F, b: F) -> (F, F) {
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    let e = ((ah * bh - p) + ah * bl + al * bh) + al * bl;
    (p, e)
}

/// Dekker's `Split`: splits `a` into high and low halves, each with at most
/// `ceil(p/2)` significant bits, so their products are exact.
#[inline]
pub fn split<F: FloatBase>(a: F) -> (F, F) {
    let c = F::SPLITTER * a;
    let hi = c - (c - a);
    let lo = a - hi;
    (hi, lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_recovers_error() {
        let a = 1.0f32;
        let b = 1e-8f32; // fully absorbed by rounding in f32
        let (s, e) = two_sum(a, b);
        assert_eq!(s, 1.0);
        assert_eq!(e, 1e-8);
    }

    #[test]
    fn fast_two_sum_matches_two_sum_when_ordered() {
        let cases: &[(f32, f32)] = &[(1.0, 1e-7), (1e5, -3.25), (2.5, 2.5), (-8.0, 0.125)];
        for &(a, b) in cases {
            let (s1, e1) = two_sum(a, b);
            let (s2, e2) = fast_two_sum(a, b);
            assert_eq!(s1, s2);
            assert_eq!(e1, e2, "a={a} b={b}");
        }
    }

    #[test]
    fn two_diff_is_exact() {
        let a = 1.0f32 + f32::EPSILON;
        let b = f32::EPSILON * 0.25; // exact power-of-two fraction
        let (d, e) = two_diff(a, b);
        let exact = a as f64 - b as f64;
        assert_eq!(d as f64 + e as f64, exact);
    }

    #[test]
    fn two_prod_fma_matches_dekker() {
        let cases: &[(f32, f32)] = &[
            (1.0 + f32::EPSILON, 1.0 + f32::EPSILON),
            (3.25159, 2.91828),
            (1e10, 1e-12),
            (-123.456, 0.001953125),
        ];
        for &(a, b) in cases {
            let (p1, e1) = two_prod(a, b);
            let (p2, e2) = two_prod_dekker(a, b);
            assert_eq!(p1, p2);
            assert_eq!(e1, e2, "a={a} b={b}");
        }
    }

    #[test]
    fn two_prod_is_exact_in_f64() {
        // The exact product of two f32 values fits in f64, so p + e == a*b.
        let a = 1.2345678f32;
        let b = 8.765432f32;
        assert_eq!(b.to_bits(), 0x410c_3f36, "the f32 nearest 8.7654321");
        let (p, e) = two_prod(a, b);
        assert_eq!(p as f64 + e as f64, a as f64 * b as f64);
    }

    #[test]
    fn split_halves_are_exact() {
        let a = 1.9999999f32;
        let (hi, lo) = split(a);
        assert_eq!(hi + lo, a);
        // Each half has at most 12 significant bits -> hi*hi is exact.
        let p = hi as f64 * hi as f64;
        assert_eq!((hi * hi) as f64, p);
    }
}
