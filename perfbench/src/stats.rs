//! Summary arithmetic: medians, quantiles, the tail-percentile rule and
//! the failure share.

/// Percentiles a timing may report as its tail, highest first.
const TAIL_CANDIDATES: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples a percentile needs strictly beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs`, linearly interpolated between
/// closest ranks. `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Samples of `n` that lie beyond percentile `p` (in percent): `n` minus
/// the nearest rank `ceil(p·n/100)`, in integers so 90% of 100 is exactly
/// rank 90.
pub fn beyond(n: usize, p: u32) -> usize {
    n - (p as usize * n).div_ceil(100)
}

/// The highest percentile that has at least [`MIN_BEYOND`] of `n` samples
/// beyond it, or `None` when even the median has too few.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(39), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(104), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(beyond(104, 90), 10);
    }

    #[test]
    fn failed_frac_is_failures_over_attempts() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(40, 0), 0.0);
        assert_eq!(failed_frac(40, 10), 0.25);
        assert_eq!(failed_frac(3, 3), 1.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.02]) - 1.02).abs() < 1e-12);
    }
}
