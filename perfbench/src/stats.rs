//! Order statistics for timing samples.
//!
//! Every timing is reported as a median plus a tail: the higher of p90 and
//! p50 that still has at least [`TAIL_MARGIN`] samples beyond it, together
//! with the sample count, so a tail is never read off a handful of outliers.
//! The ladder stops at p90 because on a shared 2-vCPU host p95 and p99 moved
//! 20–40% between identical runs, against about 14% for p90. It has no rung
//! between p90 and p50 so that a workload's tail percentile does not flip
//! when its sample count drifts between runs.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MARGIN: usize = 10;

/// Percentiles a tail may be reported at, highest first. Snapping to this
/// ladder keeps the reported percentile fixed while the sample count drifts
/// a little from run to run.
const TAIL_LADDER: [f64; 2] = [90.0, 50.0];

/// A summary of one timing series.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// The percentile the tail is taken at; `100` when fewer than
    /// `TAIL_MARGIN + 1` samples exist and the tail is the maximum.
    pub tail_pct: f64,
    /// The sample at `tail_pct` (nearest rank).
    pub tail: f64,
}

/// Median of `values` (NaN-free); `0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median and tail of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let Some(&max) = v.last() else {
        return Summary {
            count: 0,
            median: 0.0,
            tail_pct: 100.0,
            tail: 0.0,
        };
    };
    // Nearest rank r (1-based) of percentile p is ceil(p·n/100); the tail
    // needs n − r ≥ TAIL_MARGIN.
    let rank = |p: f64| ((p * n as f64 / 100.0).ceil() as usize).max(1);
    let (tail_pct, tail) = match TAIL_LADDER.iter().find(|&&p| n >= rank(p) + TAIL_MARGIN) {
        Some(&p) => (p, v[rank(p) - 1]),
        // Between the ladder and the maximum: the exact highest rank.
        None if n > TAIL_MARGIN => {
            let r = n - TAIL_MARGIN;
            (100.0 * r as f64 / n as f64, v[r - 1])
        }
        None => (100.0, max),
    };
    Summary {
        count: n,
        median: median(&v),
        tail_pct,
        tail,
    }
}

/// Samples per window of [`windowed_tail`].
pub const TAIL_WINDOW: usize = 100;

/// The tail of a time-ordered series, robust to load bursts: the series is
/// cut into consecutive windows of at least [`TAIL_WINDOW`] samples, each
/// window's tail is taken as in [`summarize`], and the median over windows
/// is reported with the windows' percentile and the window count. A series
/// shorter than two windows is one window. Load on a shared host comes in
/// bursts of seconds to minutes; a burst covering a minority of the windows
/// barely moves the median of their tails, where it would move one p90 over
/// the whole run.
pub fn windowed_tail(values: &[f64]) -> (Summary, usize) {
    let windows = (values.len() / TAIL_WINDOW).max(1);
    let size = values.len() / windows;
    let tails: Vec<Summary> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                values.len()
            } else {
                (w + 1) * size
            };
            summarize(&values[w * size..end])
        })
        .collect();
    let tail = median(&tails.iter().map(|s| s.tail).collect::<Vec<_>>());
    (
        Summary {
            tail,
            ..summarize(values)
        },
        windows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.count, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!((s.tail_pct, s.tail), (90.0, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&v).tail_pct, 90.0);
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!((summarize(&v).tail_pct, summarize(&v).tail), (50.0, 30.0));
    }

    #[test]
    fn windowed_tail_shrugs_off_a_burst_in_one_window() {
        let mut v: Vec<f64> = (0..400).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[..100] {
            *x += 1000.0;
        }
        let (s, windows) = windowed_tail(&v);
        assert_eq!((windows, s.tail_pct, s.tail), (4, 90.0, 89.0));
        assert_eq!(summarize(&v).tail, 1059.0);
        let (short, windows) = windowed_tail(&v[..150]);
        assert_eq!((windows, short), (1, summarize(&v[..150])));
    }

    #[test]
    fn short_series_fall_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.tail_pct, s.tail), (2.0, 100.0, 3.0));
        assert_eq!(summarize(&[]).count, 0);
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.tail_pct, s.tail), (100.0 * 5.0 / 15.0, 5.0));
    }
}
