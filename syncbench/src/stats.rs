//! The statistics the benchmark reports: medians, the tail percentile,
//! quartiles and the communication-overhead ratio.

/// A timing distribution as the benchmark reports it: the median plus the
/// highest percentile that still has at least [`TAIL_BEYOND`] samples
/// beyond it (never below the median), with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (mean of the two middle samples for an even count).
    pub p50: f64,
    /// The tail value: the sample at [`Summary::tail_pct`] by nearest rank.
    pub tail: f64,
    /// The percentile [`Summary::tail`] sits at.
    pub tail_pct: f64,
}

/// How many samples must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `n` samples that leaves at least
/// [`TAIL_BEYOND`] samples beyond it, floored at the median: below 20
/// samples no percentile above the median has ten samples past it.
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 2 * TAIL_BEYOND {
        return 50.0;
    }
    100.0 * (n - TAIL_BEYOND) as f64 / n as f64
}

/// The median of ascending `sorted`.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Summarize `samples` (any order). `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = median(&sorted);
    let tail_pct = tail_percentile(sorted.len());
    // Nearest rank of `tail_pct` is exactly rank n − TAIL_BEYOND; index it
    // directly rather than through a rounded float.
    let tail = if tail_pct <= 50.0 {
        p50
    } else {
        sorted[sorted.len() - TAIL_BEYOND - 1]
    };
    Some(Summary {
        count: sorted.len(),
        p50,
        tail,
        tail_pct,
    })
}

/// The three quartile cut points of `samples`, computed exactly as
/// Python's `statistics.quantiles(samples, n=4)` (the default `exclusive`
/// method). Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let len = samples.len();
    if len < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // Negative or past-the-end deltas extrapolate, as Python does.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Communication overhead of one reconciliation relative to the paper's
/// information-theoretic floor: `wire_bytes / (d · log₂|U| / 8)`.
/// `wire_bytes` should exclude the final element-transfer payload, which
/// ships elements rather than reconciling them.
pub fn comm_overhead_x(wire_bytes: u64, d: usize, universe_bits: u32) -> f64 {
    assert!(d > 0, "overhead of an empty difference");
    wire_bytes as f64 / (d as f64 * universe_bits as f64 / 8.0)
}

/// The arithmetic mean, 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 100 samples: p90 is the 90th value, ten lie above it.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 90.0);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);
        assert_eq!(s.p50, 50.5);

        // 1000 samples: p99, again exactly ten beyond.
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);

        // 30 samples: the 11th largest, at the 66.7th percentile.
        let samples: Vec<f64> = (1..=30).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert!((s.tail_pct - 200.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.tail, 20.0);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_few_samples() {
        for n in [1usize, 2, 7, 20] {
            let samples: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let s = summarize(&samples).unwrap();
            assert_eq!(s.tail_pct, 50.0, "n={n}");
            assert_eq!(s.tail, s.p50, "n={n}");
        }
        // 21 samples: the first count with a percentile above the median.
        let samples: Vec<f64> = (1..=21).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert!(s.tail_pct > 50.0);
        assert_eq!(s.tail, 11.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]).unwrap(), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap(),
            [1.0, 3.0, 4.5]
        );
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn comm_overhead_is_bytes_over_the_information_floor() {
        // d = 100 elements of 32 bits carry 400 bytes of information.
        assert_eq!(comm_overhead_x(400, 100, 32), 1.0);
        assert_eq!(comm_overhead_x(2600, 100, 32), 6.5);
        // 64-bit signatures double the floor.
        assert_eq!(comm_overhead_x(800, 100, 64), 1.0);
    }
}
