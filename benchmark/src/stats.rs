//! Order statistics for the benchmark report: medians with quartiles, "the
//! highest percentile that still has ten samples beyond it", and the quiet
//! quartile every gated timing is reported as.
//!
//! The reference box is a guest on a shared host. Its neighbours slow it by
//! 20-60 % in bursts of one to four seconds that cover anything from a fifth
//! to a half of a run, and they never speed it up. The median of a run's reps
//! then sits on the edge between the two states and moves by 20 % between
//! runs of the same code. The quartile on the quiet side (the first for a
//! time, the third for a rate) lies inside the undisturbed state as long as
//! bursts cover less than three quarters of the run, so that is the value a
//! gated timing reports; the median and both quartiles are printed beside it.

/// Sorts ascending; NaN never occurs in a timing, so it sorts last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// One-based nearest rank of percentile `p` among `n` samples. The small
/// epsilon keeps `99.9 % of 10 000` at rank 9 990 despite binary rounding.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// Median with interpolation between the two middle values.
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread computed here is
/// the spread the benchmark contract computes.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |k: usize| {
        // One-based position k*(n+1)/4; the interval is clamped into the
        // data and the fraction is not, as in Python.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// A value reported with the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    /// The reported value: the median, or the quiet quartile of a timing.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        sort(&mut v);
        let (q1, q3) = quartiles(&v);
        let median = median(&v);
        Summary {
            n: v.len(),
            value: median,
            median,
            q1,
            q3,
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// Times of repeats of the same work, reported as their first quartile.
    pub fn quiet_low(values: &[f64]) -> Summary {
        let s = Summary::of(values);
        Summary { value: s.q1, ..s }
    }

    /// Rates of repeats of the same work, reported as their third quartile.
    pub fn quiet_high(values: &[f64]) -> Summary {
        let s = Summary::of(values);
        Summary { value: s.q3, ..s }
    }
}

/// `passes` are repeats of the same sequence of items, one time per item;
/// returns each item's first quartile over the passes: what the item costs
/// while the host is quiet, whichever passes a burst happened to hit it in.
pub fn quiet_columns(passes: &[Vec<f64>]) -> Vec<f64> {
    let items = passes.iter().map(Vec::len).min().unwrap_or(0);
    let mut column = Vec::with_capacity(passes.len());
    (0..items)
        .map(|i| {
            column.clear();
            column.extend(passes.iter().map(|p| p[i]));
            sort(&mut column);
            quartiles(&column).0
        })
        .collect()
}

/// A single measurement.
impl From<f64> for Summary {
    fn from(value: f64) -> Summary {
        Summary {
            n: 1,
            value,
            median: value,
            q1: value,
            q3: value,
            max: value,
        }
    }
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentile ladder tails are picked from, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile of the ladder with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, with its value; `None` below 20 samples, where not
/// even the median qualifies.
pub fn highest_supported_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER.iter().copied().find_map(|p| {
        (n >= nearest_rank(p, n) + TAIL_MIN_BEYOND).then(|| (p, percentile(sorted, p)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_on_small_inputs() {
        assert_eq!(median(&[1.0, 2.0, 4.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4], n=4) == [1.0, 3.0, 4.0]
        let (q1, q3) = quartiles(&[1.0, 3.0, 4.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = |k: usize| (0..k).map(|i| i as f64).collect::<Vec<f64>>();
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert_eq!(
            highest_supported_percentile(&n(1000)).map(|t| t.0),
            Some(99.0)
        );
        // 999 samples: p99 has 9 beyond it, so the report falls back to p90.
        assert_eq!(
            highest_supported_percentile(&n(999)).map(|t| t.0),
            Some(90.0)
        );
        assert_eq!(
            highest_supported_percentile(&n(10_000)).map(|t| t.0),
            Some(99.9)
        );
        assert_eq!(
            highest_supported_percentile(&n(100_000)).map(|t| t.0),
            Some(99.99)
        );
        assert_eq!(
            highest_supported_percentile(&n(100)).map(|t| t.0),
            Some(90.0)
        );
        assert_eq!(
            highest_supported_percentile(&n(20)).map(|t| t.0),
            Some(50.0)
        );
        assert_eq!(highest_supported_percentile(&n(19)), None);
        let (p, v) = highest_supported_percentile(&n(1000)).expect("supported");
        assert_eq!((p, v), (99.0, 989.0));
    }

    #[test]
    fn quiet_quartile_ignores_bursts_that_move_the_median() {
        // Ten reps of a 100 ms job; a burst slows k of them by half. The
        // median jumps once the burst covers half the reps, the first
        // quartile stays in the quiet state until it covers three quarters.
        let reps = |slow: usize| -> Vec<f64> {
            (0..10)
                .map(|i| {
                    if i < slow {
                        150.0
                    } else {
                        100.0 + i as f64 * 0.1
                    }
                })
                .collect()
        };
        for slow in [0, 2, 4, 6, 7] {
            let s = Summary::quiet_low(&reps(slow));
            assert!(s.value < 101.0, "{slow} slow reps: {}", s.value);
        }
        assert!(Summary::quiet_low(&reps(6)).median > 140.0);
        assert!(Summary::quiet_low(&reps(9)).value > 140.0);
        // A rate is quiet at its upper quartile.
        let rates: Vec<f64> = reps(4).iter().map(|ms| 1e3 / ms).collect();
        let s = Summary::quiet_high(&rates);
        assert!(s.value > 9.9 && s.value == s.q3);
    }

    #[test]
    fn quiet_columns_take_each_item_over_the_passes() {
        // Item 1 costs ten times item 0; each pass has a burst on another item.
        let passes = vec![
            vec![1.5, 10.0, 2.0],
            vec![1.0, 15.0, 2.0],
            vec![1.0, 10.0, 3.0],
            vec![1.0, 10.0, 2.0],
        ];
        assert_eq!(quiet_columns(&passes), vec![1.0, 10.0, 2.0]);
        assert!(quiet_columns(&[]).is_empty());
    }

    #[test]
    fn summary_carries_count_quartiles_and_max() {
        let s = Summary::of(&[10.0, 9.0, 11.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]);
        assert_eq!((s.n, s.max), (10, 11.0));
        assert!(s.q1 < s.median && s.median < s.q3 && s.value == s.median);
        let one = Summary::from(3.0);
        assert_eq!((one.n, one.q1, one.q3), (1, 3.0, 3.0));
    }
}
