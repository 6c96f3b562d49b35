//! Order statistics: the median and quartiles every timing is reported
//! with, and the tail percentile rule.

/// Median and both quartiles of one set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// A value that was measured once and has no spread.
    pub fn single(value: f64) -> Summary {
        Summary { median: value, q1: value, q3: value, samples: 1 }
    }

    /// Apply a monotone map (a unit conversion, or `x -> c / x`) to the
    /// three statistics; a decreasing map swaps the quartiles.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.q1), f(self.q3));
        Summary { median: f(self.median), q1: a.min(b), q3: a.max(b), samples: self.samples }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the driver of this
/// benchmark computes spreads with. Fewer than two samples have no
/// quartiles; the value stands in for all three.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize of no samples");
    let v = sorted(values);
    let m = v.len();
    if m == 1 {
        return Summary::single(v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary { median: cut(2), q1: cut(1), q3: cut(3), samples: m }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The highest percentile that still has at least ten samples beyond it,
/// with its value: p87 of 80 samples. `None` with ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n <= 10 {
        return None;
    }
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=80).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(pct, 87.5);
        assert_eq!(value, 70.0);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn decreasing_map_swaps_quartiles() {
        let s = Summary { median: 2.0, q1: 1.0, q3: 4.0, samples: 5 }.map(|x| 8.0 / x);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 8.0));
    }
}
