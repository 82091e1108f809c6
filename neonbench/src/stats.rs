//! Order statistics and fairness arithmetic used by every workload.

/// Sort a sample ascending (NaNs are never produced by the benchmark's
/// timers; a NaN here is a bug, so the comparison panics on it).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, which the steadiness check and the
/// acceptance rule use — including its linear extrapolation past the ends
/// of very small samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let len = v.len();
    assert!(len >= 2, "quartiles need at least two samples");
    let q = |i: usize| {
        // CPython: j = i·m // n clamped to 1..len-1, delta = i·m − j·n.
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median: the spread figure the
/// benchmark's bounds are judged against.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A tail figure: the value, the percentile it stands for, and the sample
/// count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples strictly above its nearest-rank value. With too few samples for
/// any rung (fewer than 40 for p75) the median stands in, labelled p50.
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "tail of an empty sample");
    for p in TAIL_LADDER {
        // Nearest rank: the smallest value with at least p% of the sample
        // at or below it, in integer per-mille so 99.9% of 10 000 is 9990.
        let per_mille = (p * 10.0).round() as usize;
        let rank = (per_mille * n).div_ceil(1000).max(1);
        let value = v[rank - 1];
        let beyond = v.iter().filter(|&&x| x > value).count();
        if beyond >= 10 {
            return Tail {
                value,
                percentile: p,
                samples: n,
            };
        }
    }
    Tail {
        value: median(&v),
        percentile: 50.0,
        samples: n,
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 when every share is equal,
/// `1/n` when one party gets everything.
pub fn jain(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "Jain's index of no parties");
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it
        // extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 9, 20, 21], n=4) == [2.0, 8.0, 20.0]
        assert_eq!(
            quartiles(&[21.0, 1.0, 9.0, 2.0, 20.0, 4.0, 8.0]),
            (2.0, 20.0)
        );
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&xs);
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0; 8]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 distinct samples: p99 has exactly 10 above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // 100 samples: p99 and p95 leave 1 and 5 beyond; p90 leaves 10.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        // 10 000 samples: p99.9 leaves exactly 10 beyond.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 99.9);
    }

    #[test]
    fn tail_counts_only_strictly_greater_samples() {
        // Ties do not count as "beyond": with the top half of the sample
        // tied, every rung's nearest-rank value is the tied maximum, which
        // has nothing above it, so the median stands in.
        let mut xs = vec![1.0; 50];
        xs.extend(vec![9.0; 50]);
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value), (50.0, 5.0));
        // Ten values above a tied block qualify the rung inside the block.
        let mut xs = vec![2.0; 90];
        xs.extend((1..=10).map(|i| 2.0 + f64::from(i)));
        assert_eq!(tail(&xs).percentile, 90.0);
    }

    #[test]
    fn tail_falls_back_to_median_on_small_samples() {
        let t = tail(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 3.0, 5));
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // (1+2+3)² / (3·14) = 36/42
        assert!((jain(&[1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
    }
}
