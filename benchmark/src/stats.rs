//! Order statistics the benchmark reports and compares with: nearest-rank
//! percentiles, the quartiles `statistics.quantiles(values, n=4)` gives,
//! the highest-percentile rule, and the longest interval without service.

/// The percentile the repetitions of a run-at-a-time workload are
/// summarized by. On a shared host other tenants only ever add time, in
/// bursts that leave part of every window untouched: over 33 consecutive
/// 15 s windows of `sim_sweep_grid` the lower quartile of pass times
/// spread 0.063, the median 0.115, the upper quartile 0.162 (the minimum
/// 0.056, but that is best-of). The lower quartile is the program's cost;
/// what lies above it is mostly the neighbours'.
pub const LOWER_QUARTILE: f64 = 25.0;

/// The candidate tail percentiles, highest first.
const TAILS: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples a percentile needs beyond it before it may be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (0..=100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN-free input).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
}

/// The median of `values` (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of unsorted `values`.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, p)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) computes them — the driver judges
/// spread with that function, so `compare` must agree with it. Fewer than
/// two values have no spread: all three are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance rule bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// How many of `samples` lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn beyond(samples: usize, p: u32) -> usize {
    samples - (f64::from(p) / 100.0 * samples as f64).ceil() as usize
}

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond it;
/// the median when even that has fewer (a median is always reported).
pub fn highest_percentile(samples: usize) -> u32 {
    TAILS
        .into_iter()
        .find(|&p| beyond(samples, p) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// The longest interval, in the time unit of the inputs, during which at
/// least one request was due and unacknowledged and no acknowledgement
/// arrived. `due[i]` is request `i`'s due instant, `acked[i]` its first
/// acknowledgement (or `None`), `end` the instant observation stopped.
pub fn longest_gap(due: &[f64], acked: &[Option<f64>], end: f64) -> f64 {
    // Requests in acknowledgement order, unacknowledged ones last (they
    // stay outstanding until `end`).
    let mut by_ack: Vec<(f64, f64)> = due
        .iter()
        .zip(acked)
        .map(|(&d, a)| (a.unwrap_or(f64::INFINITY), d))
        .collect();
    by_ack.sort_by(|a, b| a.partial_cmp(b).expect("no NaN instants"));
    // earliest_due[k]: the earliest due instant among requests k.. — all
    // still outstanding just before acknowledgement k arrives.
    let mut earliest_due = vec![f64::INFINITY; by_ack.len() + 1];
    for k in (0..by_ack.len()).rev() {
        earliest_due[k] = earliest_due[k + 1].min(by_ack[k].1);
    }
    let mut longest: f64 = 0.0;
    let mut last_ack = f64::NEG_INFINITY;
    for (k, &(ack, _)) in by_ack.iter().enumerate() {
        let arrival = ack.min(end);
        longest = longest.max(arrival - last_ack.max(earliest_due[k]));
        if ack.is_infinite() {
            break;
        }
        last_ack = ack;
    }
    longest.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), (3.5, 13.5, 31.0));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[30.0, 10.0, 50.0, 20.0, 40.0]),
            (15.0, 30.0, 45.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&[30.0, 10.0, 50.0, 20.0, 40.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // 300 samples: p99 leaves 3 beyond, p95 leaves 15.
        assert_eq!(beyond(300, 99), 3);
        assert_eq!(highest_percentile(300), 95);
        assert_eq!(highest_percentile(1000), 99);
        assert_eq!(highest_percentile(999), 95, "p99 of 999 leaves only 9");
        assert_eq!(highest_percentile(100), 90);
        assert_eq!(highest_percentile(40), 75);
        assert_eq!(highest_percentile(32), 50);
        assert_eq!(highest_percentile(5), 50, "a median is always reported");
    }

    #[test]
    fn longest_gap_on_a_synthetic_ack_timeline() {
        // Requests due every 10; service stalls between t=25 and t=100.
        let due = [0.0, 10.0, 20.0, 30.0, 40.0];
        let acked = [Some(5.0), Some(15.0), Some(25.0), Some(100.0), Some(101.0)];
        // After the ack at 25 nothing is outstanding until request 3 falls
        // due at 30: the outage is 30 -> 100, not 25 -> 100.
        assert_eq!(longest_gap(&due, &acked, 200.0), 70.0);
        // An unacknowledged request keeps the gap open until `end`.
        let acked = [Some(5.0), Some(15.0), Some(25.0), None, Some(45.0)];
        assert_eq!(longest_gap(&due, &acked, 200.0), 155.0);
        // Idle time with nothing due is not an outage.
        assert_eq!(
            longest_gap(&[0.0, 1000.0], &[Some(1.0), Some(1001.0)], 2000.0),
            1.0
        );
    }
}
