//! Order statistics over a run's samples, and the arithmetic the per-layer
//! split rests on (busy ÷ wall, residuals).

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks: `q = 0` is the minimum, `q = 1` the maximum.
/// `None` for an empty sample or a `q` outside `0..=1`.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Samples above the `pct`-th percentile of `n`: how many observations a
/// tail percentile rests on.
pub fn beyond(n: usize, pct: u32) -> usize {
    n * (100 - pct.min(100) as usize) / 100
}

/// Whether `n` samples support the `pct`-th percentile as a tail figure: at
/// least ten samples must lie beyond it (so the 90th percentile needs 100).
pub fn supports(n: usize, pct: u32) -> bool {
    beyond(n, pct) >= 10
}

/// The highest whole percentile that `n` samples support, `None` below
/// ten samples.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    (1..=99).rev().find(|&p| supports(n, p))
}

/// Share of `threads` processors a call kept busy: CPU time ÷ (wall ×
/// threads). `None` when the wall time or thread count is zero.
pub fn parallel_efficiency(busy_ns: u64, wall_ns: u64, threads: usize) -> Option<f64> {
    let capacity = wall_ns as f64 * threads as f64;
    (capacity > 0.0).then(|| busy_ns as f64 / capacity)
}

/// What is left of `total` after the attributed `parts`. Negative when the
/// parts were measured separately and overshoot the total.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), Some(3.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(5.0));
        assert_eq!(quantile(&s, 0.25), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(
            quantile(&(1..=101).map(f64::from).collect::<Vec<_>>(), 0.9),
            Some(91.0)
        );
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&s, 1.5), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(25, 90), 2);
        assert!(supports(100, 90));
        assert!(!supports(99, 90));
        assert!(supports(20, 50));
        assert!(!supports(19, 50));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(400), Some(97));
        assert_eq!(highest_supported_percentile(25), Some(60));
        assert_eq!(highest_supported_percentile(9), None);
    }

    #[test]
    fn busy_over_wall_is_a_share_of_the_threads() {
        assert_eq!(parallel_efficiency(150, 100, 2), Some(0.75));
        assert_eq!(parallel_efficiency(100, 100, 1), Some(1.0));
        assert_eq!(parallel_efficiency(5, 0, 2), None);
        assert_eq!(parallel_efficiency(5, 10, 0), None);
    }

    #[test]
    fn residual_is_what_the_parts_leave() {
        assert_eq!(residual(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(residual(4.0, &[3.0, 2.0]), -1.0);
        assert_eq!(residual(4.0, &[]), 4.0);
    }
}
