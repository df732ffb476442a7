//! Order statistics and the log-log scaling fit.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between the two nearest ranks. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `k` of a
/// cost that grows like `x^k`. Points with a non-positive coordinate are
/// skipped; fewer than two usable points give 0.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return 0.0;
    }
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_recovers_linear_and_quadratic_series() {
        let linear: Vec<(f64, f64)> = [605.0, 2405.0, 9605.0]
            .iter()
            .map(|&x| (x, 37.5 * x))
            .collect();
        let quadratic: Vec<(f64, f64)> = [125.0, 250.0, 500.0, 1000.0]
            .iter()
            .map(|&x| (x, 0.02 * x * x))
            .collect();
        assert!((loglog_slope(&linear) - 1.0).abs() < 1e-9);
        assert!((loglog_slope(&quadratic) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slope_of_noisy_series_stays_close() {
        // ±5% multiplicative noise on a slope-1 series over a 16x range.
        let pts = [(100.0, 105.0), (400.0, 380.0), (1600.0, 1680.0)];
        assert!((loglog_slope(&pts) - 1.0).abs() < 0.05);
    }

    #[test]
    fn slope_ignores_unusable_points() {
        assert_eq!(loglog_slope(&[]), 0.0);
        assert_eq!(loglog_slope(&[(10.0, 5.0)]), 0.0);
        assert_eq!(loglog_slope(&[(0.0, 1.0), (10.0, 5.0)]), 0.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(median(&[]), 0.0);
    }
}
