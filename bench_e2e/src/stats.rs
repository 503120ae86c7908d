//! Summary statistics with the benchmark's reporting rules.
//!
//! A timing is reported as its median and its *tail*: the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples beyond it,
//! together with the sample count it was taken from. A missed operation
//! enters as `f64::INFINITY`, so misses push the tail up and, past
//! [`TAIL_BEYOND`] of them, make it infinite.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Written in place of an infinite statistic in the JSON result, which has
/// no representation for infinity.
pub const INFINITE_AS: f64 = 1e12;

/// Median of `values` (mean of the middle pair for an even count); NaN for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail statistic and what it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail percentile (infinite when a miss sits there).
    pub value: f64,
    /// The percentile the value stands at, `100 · (rank + 1) / count`.
    pub percentile: f64,
    /// Samples strictly beyond the value's rank.
    pub beyond: usize,
    /// Samples the statistic was taken from.
    pub count: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it.
/// With fewer than `TAIL_BEYOND + 1` samples no percentile qualifies and the
/// maximum is reported, with its (short) `beyond` count saying so.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let count = v.len();
    if count == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            beyond: 0,
            count,
        };
    }
    let rank = if count > TAIL_BEYOND {
        count - 1 - TAIL_BEYOND
    } else {
        count - 1
    };
    Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / count as f64,
        beyond: count - 1 - rank,
        count,
    }
}

/// Nearest-rank percentile `p ∈ [0, 100]`; NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.count, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.value, t.beyond, t.count), (1.0, 10, 11));
    }

    #[test]
    fn tail_of_a_short_sample_is_its_maximum_and_says_so() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.beyond, t.count), (3.0, 0, 3));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn misses_count_as_infinite() {
        // 30 samples, 10 misses: the tail rank (19) is the last finite one
        let mut values: Vec<f64> = (1..=20).map(f64::from).collect();
        values.extend([f64::INFINITY; 10]);
        assert_eq!(tail(&values).value, 20.0);
        // one more miss and the tail itself is a miss
        values[0] = f64::INFINITY;
        assert_eq!(tail(&values).value, f64::INFINITY);
        // the median moves past misses too
        assert_eq!(median(&[1.0, f64::INFINITY, f64::INFINITY]), f64::INFINITY);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[1.0, f64::INFINITY]), f64::INFINITY);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
    }
}
