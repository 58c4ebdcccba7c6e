//! Order statistics over timing samples.

/// Sorted copy of `v`.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of no samples");
    v.iter().sum::<f64>() / v.len() as f64
}

/// Nearest rank of percentile `p` among `n` samples, 1-based. The small
/// slack keeps `0.9 * 100` from rounding up to rank 91.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile, `p` in (0, 100].
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    sorted(v)[rank(p, v.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond it,
/// with its value; `None` below forty samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| v.len() >= rank(*p, v.len()) + 10)
        .map(|p| (p, percentile(v, p)))
}

/// `median <m> <unit> (mean <a>, n=<count>[, p<q> <v>])` — how every timing is
/// printed.
pub fn describe(v: &[f64], unit: &str) -> String {
    let tail = match tail(v) {
        Some((p, x)) => format!(", p{p} {x:.6}"),
        None => String::new(),
    };
    format!("median {:.6} {unit} (mean {:.6}, n={}{tail})", median(v), mean(v), v.len())
}

/// Distance between the first and third quartile as a share of the median —
/// the run-to-run spread. Quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method), so
/// the number matches what the driver of this benchmark reports. `None`
/// below two samples.
pub fn quartile_spread(v: &[f64]) -> Option<f64> {
    if v.len() < 2 {
        return None;
    }
    let s = sorted(v);
    let n = s.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..19]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
