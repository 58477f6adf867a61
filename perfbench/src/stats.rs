//! Summary statistics and the Grid-metric formulas the benchmark reports.

/// Median of `xs` (mean of the two middle values for even lengths); 0
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Share of granted work units that were never credited:
///
/// `failed_share = (granted − credited + failed_checks) / granted`
///
/// `granted` is `sched.grants` and `credited` is `sched.results`, summed
/// over every world of the run. A unit is granted but never credited when
/// its client abandoned it (migration), died with its host, lost it to a
/// fault, or still held it when the horizon cut the run; the last kind is
/// at most one unit per live client. Every failed output check of the
/// benchmark adds one more failure. Duplicate results (message
/// duplication) never make the share negative.
pub fn failed_share(granted: u64, credited: u64, failed_checks: u64) -> f64 {
    let failed = granted.saturating_sub(credited) + failed_checks;
    if granted == 0 {
        return if failed > 0 { 1.0 } else { 0.0 };
    }
    failed as f64 / granted as f64
}

/// Seconds from `from_s` until the throughput series first returns to
/// `fraction × reference`, measured to the end of the first bin (at or
/// after the one containing `from_s`) that reaches it. A series that
/// never recovers maps to the remaining horizon, `horizon_s − from_s`, so
/// the value is always a number and "never" is the worst possible one.
pub fn recovery_s(
    bins: &[f64],
    bin_s: f64,
    from_s: f64,
    reference: f64,
    fraction: f64,
    horizon_s: f64,
) -> f64 {
    let first = (from_s / bin_s).floor() as usize;
    bins.iter()
        .enumerate()
        .skip(first)
        .find(|(_, &v)| v >= fraction * reference)
        .map(|(i, _)| ((i + 1) as f64 * bin_s - from_s).max(0.0))
        .unwrap_or((horizon_s - from_s).max(0.0))
}

/// Mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }

    #[test]
    fn failed_share_counts_uncredited_units_and_failed_checks() {
        assert_eq!(failed_share(1000, 990, 0), 0.01);
        // Each failed output check adds one failure.
        assert_eq!(failed_share(1000, 990, 2), 0.012);
        // Duplicated results cannot make the share negative.
        assert_eq!(failed_share(100, 103, 0), 0.0);
        // Nothing granted: zero unless a check failed.
        assert_eq!(failed_share(0, 0, 0), 0.0);
        assert_eq!(failed_share(0, 0, 1), 1.0);
    }

    #[test]
    fn recovery_is_measured_to_the_end_of_the_first_recovered_bin() {
        let bins = [10.0, 10.0, 2.0, 3.0, 9.0, 10.0];
        // Fault clears at 250 s (inside bin 2); bin 4 (400–500 s) is the
        // first at ≥ 80% of the reference 10.
        assert_eq!(recovery_s(&bins, 100.0, 250.0, 10.0, 0.8, 600.0), 250.0);
        // Already recovered in the bin where the fault clears.
        assert_eq!(recovery_s(&bins, 100.0, 150.0, 10.0, 0.8, 600.0), 50.0);
    }

    #[test]
    fn never_recovering_maps_to_the_remaining_horizon() {
        let bins = [10.0, 1.0, 1.0, 1.0];
        assert_eq!(recovery_s(&bins, 60.0, 90.0, 10.0, 0.8, 240.0), 150.0);
        // A fault that clears at the horizon leaves nothing to recover in.
        assert_eq!(recovery_s(&bins, 60.0, 240.0, 10.0, 0.8, 240.0), 0.0);
    }
}
