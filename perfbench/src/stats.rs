//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support percentile `q` (0 < q < 1): at least
/// [`MIN_BEYOND`] samples must rank above it, so p99 needs 1,000.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = nearest_rank(n, q);
    n > 0 && n - rank >= MIN_BEYOND
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank percentile `q` of `sorted` (ascending), or `None`
/// when the sample does not support it under [`supports`].
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    supports(sorted.len(), q).then(|| sorted[nearest_rank(sorted.len(), q) - 1])
}

/// The median of `values` (mean of the middle two for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// A percentile taken per window and summarized by the median across
/// windows: one stall inflates one window's tail, not the reported
/// figure. Each window holds `window` consecutive samples (in arrival
/// order) and must itself support `q`; a short trailing window is
/// dropped. Returns `(median of window percentiles, windows used)`, or
/// `None` when no full window exists.
pub fn windowed_percentile(samples: &[f64], q: f64, window: usize) -> Option<(f64, usize)> {
    if !supports(window, q) {
        return None;
    }
    let per_window: Vec<f64> = samples
        .chunks_exact(window)
        .filter_map(|chunk| percentile(&sorted(chunk), q))
        .collect();
    median(&per_window).map(|m| (m, per_window.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn unsupported_percentiles_are_withheld() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank ⌈0.99·1000⌉ = 990; ten samples lie beyond it.
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        assert_eq!(percentile(&values, 0.5), Some(500.0));
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_percentile_ignores_one_stalled_window() {
        // Three windows of 1,000; the middle one has a huge tail.
        let mut samples: Vec<f64> = Vec::new();
        for w in 0..3 {
            for i in 0..1000 {
                let stall = if w == 1 && i >= 900 { 1e6 } else { 0.0 };
                samples.push(f64::from(i) + stall);
            }
        }
        samples.extend([5e9; 10]); // short trailing window: dropped
        let (p99, windows) = windowed_percentile(&samples, 0.99, 1000).expect("supported");
        assert_eq!(windows, 3);
        assert_eq!(p99, 989.0);
        assert_eq!(windowed_percentile(&samples, 0.99, 999), None);
    }
}
