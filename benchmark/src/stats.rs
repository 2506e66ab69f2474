//! Order statistics for the metric rows.

/// Samples required beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts `values` ascending (NaN-free by construction: all are measured
/// durations or counts).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// Median of `values` (sorts in place); `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    sort(values);
    nearest_rank(values, 0.5)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The percentile rule: `p` is reported only when at least
/// [`MIN_BEYOND`] samples lie strictly beyond its rank.  The median
/// (`p == 0.5`) is exempt — a row always carries it.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    if p > 0.5 && sorted.len() < rank + MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, p)
}

/// Mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        // rank 190 of 199 leaves 9 beyond: not supported
        assert_eq!(supported_percentile(&v, 0.95), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank 190 of 200 leaves exactly 10 beyond
        assert_eq!(supported_percentile(&v, 0.95), Some(190.0));
    }

    #[test]
    fn median_is_always_reported() {
        assert_eq!(supported_percentile(&[4.0], 0.5), Some(4.0));
        assert_eq!(supported_percentile(&[], 0.5), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.0));
    }
}
