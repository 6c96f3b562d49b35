//! Repetition and aggregation helpers for the harness.
//!
//! The paper's artifact repeats every configuration 30 times and averages;
//! here the default is smaller (the harness flag `--runs` restores any
//! count) and the aggregate is the **median**, which is robust against the
//! scheduling noise of a non-dedicated machine.

use std::time::Duration;

/// Measurement options shared by all figures.
#[derive(Clone, Copy, Debug)]
pub struct MeasureOpts {
    /// Repetitions per configuration (median is reported).
    pub runs: usize,
    /// Benchmark size parameter `n` (figures 8, 10, 11, 13, 14, 15).
    pub n: u64,
    /// Highest worker count swept.
    pub max_workers: usize,
}

impl MeasureOpts {
    /// Defaults scaled to this machine: a laptop-sized `n` and a sweep up
    /// to 2× the hardware threads (oversubscription emulates the paper's
    /// higher core counts qualitatively).
    pub fn auto() -> MeasureOpts {
        let cores = sched::num_cpus();
        MeasureOpts { runs: 3, n: 1 << 17, max_workers: (2 * cores).max(2) }
    }

    /// The paper's full-scale parameters (n = 8M, as in Figures 8/10/14).
    pub fn paper_scale(mut self) -> MeasureOpts {
        self.n = 8 * 1024 * 1024;
        self
    }

    /// Worker counts to sweep: 1, 2, 4, ... up to `max_workers` inclusive.
    pub fn worker_counts(&self) -> Vec<usize> {
        let mut v = Vec::new();
        let mut w = 1;
        while w < self.max_workers {
            v.push(w);
            w *= 2;
        }
        v.push(self.max_workers);
        v.dedup();
        v
    }
}

/// Run `f` `runs` times and return all samples.
pub fn run_repeated(runs: usize, mut f: impl FnMut() -> Duration) -> Vec<Duration> {
    (0..runs.max(1)).map(|_| f()).collect()
}

/// Median of a set of durations (odd/even both handled).
pub fn median_duration(samples: &[Duration]) -> Duration {
    assert!(!samples.is_empty());
    let mut v: Vec<Duration> = samples.to_vec();
    v.sort_unstable();
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2
    }
}

/// Throughput in operations per second per worker, the paper's y-axis.
pub fn throughput_per_core(ops: u64, elapsed: Duration, workers: usize) -> f64 {
    ops as f64 / elapsed.as_secs_f64() / workers.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        let d = |ms| Duration::from_millis(ms);
        assert_eq!(median_duration(&[d(3), d(1), d(2)]), d(2));
        assert_eq!(median_duration(&[d(1), d(2), d(3), d(10)]), d(2) + (d(3) - d(2)) / 2);
        assert_eq!(median_duration(&[d(5)]), d(5));
    }

    #[test]
    fn worker_counts_cover_one_to_max() {
        let o = MeasureOpts { runs: 1, n: 16, max_workers: 6 };
        assert_eq!(o.worker_counts(), vec![1, 2, 4, 6]);
        let o = MeasureOpts { runs: 1, n: 16, max_workers: 4 };
        assert_eq!(o.worker_counts(), vec![1, 2, 4]);
        let o = MeasureOpts { runs: 1, n: 16, max_workers: 1 };
        assert_eq!(o.worker_counts(), vec![1]);
    }

    #[test]
    fn throughput_math() {
        let t = throughput_per_core(1000, Duration::from_secs(1), 2);
        assert!((t - 500.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_collects_all() {
        let samples = run_repeated(5, || Duration::from_millis(1));
        assert_eq!(samples.len(), 5);
    }

    #[test]
    fn paper_scale_sets_8m() {
        assert_eq!(MeasureOpts::auto().paper_scale().n, 8 * 1024 * 1024);
    }
}
