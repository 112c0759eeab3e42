//! Order statistics for timings: medians and the tail percentile rule.

/// Median of `values` (mean of the middle pair for an even count); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The percentiles the tail rule considers, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// The tail percentile a timing distribution supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest percentile on the ladder (99.9, 99, 95, 90, 75, 50) that
/// has at least ten samples beyond it, with the count. With fewer than
/// eleven samples no percentile qualifies and the minimum (percentile 0)
/// is reported, so a short run never passes off its maximum as a tail.
/// `None` only for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let idx = rank(p, n);
        let beyond = n - 1 - idx;
        (beyond >= 10 || p == 0.0).then_some(Tail {
            percentile: p,
            value: sorted[idx],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 999 samples: p99 is rank ceil(989.01) = 990 with 9 beyond — not
        // enough; p95 at rank 950 has 49 beyond.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.samples), (95.0, 49, 999));
        assert_eq!(t.value, 949.0);
        // 1000 samples: p99 at rank 990 has exactly ten beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (99.0, 10, 989.0));
        // 1010 samples: p99 rank ceil(999.9) = 1000 → index 999, 10 beyond.
        let t = tail(&ramp(1010)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
        assert_eq!(t.value, 999.0);
        // 10 010 samples: p99.9 has exactly ten beyond.
        let t = tail(&ramp(10_010)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.9, 10));
    }

    #[test]
    fn tail_falls_back_through_the_ladder() {
        // 40 samples: p75 (index 29) has 10 beyond, p90 only 4.
        let t = tail(&ramp(40)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (75.0, 10, 29.0));
        // 21 samples: only p50 (index 10) has ten beyond.
        let t = tail(&ramp(21)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (50.0, 10, 10.0));
        // 5 samples: nothing qualifies; the minimum is reported.
        let t = tail(&ramp(5)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (0.0, 4, 0.0));
        assert_eq!(tail(&[]), None);
    }
}
