//! The one percentile implementation of the benchmark, and the open-loop
//! scheduler that times each operation from the moment it was due.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported: fewer
/// and the figure is the position of a handful of outliers, not a property
/// of the distribution.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Sort ascending (NaNs cannot occur: every sample is a measured duration
/// or a count).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    let fraction = position - low as f64;
    Some(sorted[low] + (sorted[high] - sorted[low]) * fraction)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// A tail percentile, reported only when at least [`MIN_SAMPLES_BEYOND`]
/// samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    // The epsilon keeps (1 − 0.9)·100 = 9.999… from reading as nine.
    let beyond = ((1.0 - q) * sorted.len() as f64 + 1e-9).floor() as usize;
    (beyond >= MIN_SAMPLES_BEYOND)
        .then(|| quantile(sorted, q))
        .flatten()
}

/// `(first quartile, median, third quartile)` as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so
/// `compare` judges spread the way the driver does.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let sorted = sorted(samples.to_vec());
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let position = (i * (n + 1)) as f64 / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let delta = position - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// One timed operation of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Completion minus due time: what a user who arrived on schedule waited.
    pub latency: Duration,
    /// Send time minus due time: how late the generator itself ran.
    pub lateness: Duration,
}

/// Due times `offset + i·period` for every `i` with a due time inside
/// `window`.
pub fn schedule(offset: Duration, period: Duration, window: Duration) -> Vec<Duration> {
    let mut due = Vec::new();
    let mut at = offset;
    while at < window {
        due.push(at);
        at += period;
    }
    due
}

/// Run `op` at `due`, never early. When the caller's previous operation is
/// still running at `due`, this one starts late; that delay is charged to its
/// latency, as a queueing user would experience it.
pub fn run_at<T>(due: Instant, op: impl FnOnce() -> T) -> (T, Timed) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let sent = Instant::now();
    let value = op();
    let timed = Timed {
        latency: due.elapsed(),
        lateness: sent.saturating_duration_since(due),
    };
    (value, timed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.95), None, "9 samples beyond p95");
        let s: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(tail_percentile(&s, 0.95).is_some(), "10 samples beyond p95");
        assert!(tail_percentile(&s[..100], 0.90).is_some());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn schedule_covers_the_window() {
        let due = schedule(
            Duration::from_millis(375),
            Duration::from_millis(1000),
            Duration::from_secs(3),
        );
        assert_eq!(due, [375, 1375, 2375].map(Duration::from_millis).to_vec());
    }

    #[test]
    fn open_loop_times_from_due_time_and_reports_lateness() {
        // The first op overruns its period, so the second starts late and
        // its latency includes the wait.
        let start = Instant::now();
        let (_, first) = run_at(start, || std::thread::sleep(Duration::from_millis(50)));
        let (value, second) = run_at(start + Duration::from_millis(20), || 7);
        assert_eq!(value, 7);
        assert!(first.latency >= Duration::from_millis(50));
        assert!(second.lateness >= Duration::from_millis(25));
        assert!(second.latency >= second.lateness);
    }
}
