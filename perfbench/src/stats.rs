//! The benchmark's own statistics: medians, quartiles, the tail
//! percentile rule, and span self time.

/// The median of `values` (the mean of the middle two for an even
/// count), as Python's `statistics.median` computes it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `values`, by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so figures printed here and spreads computed by
/// a checker over many runs agree.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, cut) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// A tail latency read off a sample set: which percentile was reported
/// and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99 when the sample is large
    /// enough, lower otherwise).
    pub percentile: f64,
    /// The sample at that percentile (nearest-rank).
    pub value: f64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `percentile` of `values` when at least
/// [`MIN_BEYOND`] samples lie beyond it; otherwise the highest
/// percentile that still has that many. `None` when there are too few
/// samples for any.
pub fn tail(values: &[f64], percentile: f64) -> Option<Tail> {
    let n = values.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let data = sorted(values);
    let rank = (percentile * n as f64 / 100.0).ceil() as usize;
    let wanted = rank.clamp(1, n) - 1;
    let index = wanted.min(n - 1 - MIN_BEYOND);
    let percentile = if index == wanted {
        percentile
    } else {
        100.0 * (index + 1) as f64 / n as f64
    };
    Some(Tail {
        percentile,
        value: data[index],
        beyond: n - 1 - index,
    })
}

/// The part of `[start, end)` not covered by any of `children`
/// (intervals clipped to the parent; overlaps counted once): a span's
/// self time.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 2000 samples: the 1980th is p99 and 20 lie beyond it.
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&many, 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 1980.0, 20));
        // Exactly 1100: p99 is the 1089th with 11 beyond — still allowed.
        let edge: Vec<f64> = (1..=1100).map(f64::from).collect();
        let t = tail(&edge, 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (1089.0, 11));
    }

    #[test]
    fn small_samples_fall_back_to_the_highest_percentile_with_ten_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred, 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven, 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        assert!(tail(&[1.0; 10], 99.0).is_none());
    }

    #[test]
    fn self_time_subtracts_the_union_of_covered_children() {
        // No children: the whole span.
        assert_eq!(self_time(0, 100, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 70)]), 70);
        // Overlapping children count their union once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(10, 100, &[(0, 30), (90, 150)]), 60);
        // A child nested in another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // A child entirely outside is ignored.
        assert_eq!(self_time(0, 100, &[(200, 300)]), 100);
    }
}
