//! Order statistics over repetitions, and the process's peak memory.

/// The median of `xs` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median, with quartiles taken
/// as Python's `statistics.quantiles(xs, n=4)` (exclusive method) takes
/// them. 0 with fewer than two values or a zero median.
pub fn spread(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    let m = median(&s);
    if n < 2 || m.abs() < f64::MIN_POSITIVE {
        return 0.0;
    }
    let quartile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / m
}

/// The highest of p99, p90 and p75 (nearest rank) that has at least ten
/// samples above it, as `(percentile, value)`; `None` below 40 samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(xs);
    let n = s.len();
    [99, 90, 75].into_iter().find_map(|p: u32| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// This process's peak resident set (`VmHWM` in `/proc/self/status`), in
/// MiB; `None` where the file or the field is missing.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((spread(&[1.0, 2.0]) - 1.5 / 1.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
        assert_eq!(tail(&upto(39)), None);
        assert_eq!(tail(&upto(40)), Some((75, 30.0)));
        assert_eq!(tail(&upto(100)), Some((90, 90.0)));
        assert_eq!(tail(&upto(1000)), Some((99, 990.0)));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
