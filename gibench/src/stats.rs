//! Statistics helpers shared by every metric the benchmark reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread the benchmark prints about
//! itself is the spread an outside reader computes from the same values.

/// Sorted copy of `values` (NaNs are rejected by the callers' gates).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median: the middle value, or the mean of the two middle values.
/// `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed exactly like Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's bounds are written against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile that still has at least [`TAIL_SAMPLES`]
/// samples beyond it, given `n` samples: `100 · (1 − 10 / n)`. `None` when
/// there are too few samples for any tail (`n ≤ 10`).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| 100.0 * (1.0 - TAIL_SAMPLES as f64 / n as f64))
}

/// True when `n` samples support reporting percentile `p` (0–100).
pub fn supports_percentile(n: usize, p: f64) -> bool {
    highest_supported_percentile(n).is_some_and(|max| p <= max + 1e-9)
}

/// Nearest-rank percentile `p` (0–100) of `values`: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// A ratio printed with its base, so a reader never sees a bare factor:
/// `1.250× (320 ms against base 256 ms)`.
pub fn ratio_with_base(value: f64, base: f64, unit: &str) -> String {
    if base == 0.0 {
        return format!("no ratio ({value} {unit} against base 0 {unit})");
    }
    format!(
        "{:.3}× ({} {unit} against base {} {unit})",
        value / base,
        compact(value),
        compact(base)
    )
}

/// Formats a number for tables with four significant digits.
pub fn compact(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_share_of_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = relative_iqr(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
        // The rule holds for the samples it admits: at n = 1000, p99 has
        // exactly ten samples strictly above its rank.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ratios_carry_their_base() {
        let s = ratio_with_base(320.0, 256.0, "ms");
        assert!(s.starts_with("1.250×"), "{s}");
        assert!(s.contains("base 256.0 ms"), "{s}");
        assert!(s.contains("320.0 ms"), "{s}");
        assert!(ratio_with_base(1.0, 0.0, "s").starts_with("no ratio"));
    }

    #[test]
    fn compact_keeps_four_significant_digits() {
        assert_eq!(compact(1234.5678), "1235");
        assert_eq!(compact(12.345678), "12.35");
        assert_eq!(compact(0.012341), "0.01234");
    }
}
