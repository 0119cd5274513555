//! Estimators for the end-to-end metrics: nearest-rank percentiles, medians
//! and the quiet profile of a run's rounds, over hand-checkable vectors, no
//! interpolation surprises.

/// Sort ascending (NaN-free inputs: every sample is a measured duration
/// or a count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `0.0` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for an even count). `0.0` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The hundred percentiles p1..p100 of an ascending slice.
pub fn percentiles(sorted: &[f64]) -> Vec<f64> {
    (1..=100)
        .map(|p| percentile(sorted, f64::from(p)))
        .collect()
}

/// Column by column, the `p`-th percentile over rows of comparable values.
/// Columns are those every row has.
pub fn profile(rows: &[Vec<f64>], p: f64) -> Vec<f64> {
    let columns = rows.iter().map(Vec::len).min().unwrap_or(0);
    (0..columns)
        .map(|j| {
            let mut column: Vec<f64> = rows.iter().map(|row| row[j]).collect();
            sort(&mut column);
            percentile(&column, p)
        })
        .collect()
}

/// Median of integer samples (span durations in nanoseconds).
pub fn median_u64(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Ten samples: p99 is the maximum, p50 the fifth.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn profile_is_columnwise() {
        // Twenty rows of two columns; row r reads (r, 100 - r). The lower
        // decile of twenty is the second smallest, the median the tenth.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|r| vec![f64::from(r), f64::from(100 - r)])
            .collect();
        assert_eq!(profile(&rows, 10.0), [1.0, 82.0]);
        assert_eq!(profile(&rows, 50.0), [9.0, 90.0]);
        // One disturbed row in ten moves neither; a short row cuts the
        // columns to those every row has.
        let mut rows = vec![vec![3.0, 7.0]; 9];
        rows.push(vec![30.0]);
        assert_eq!(profile(&rows, 10.0), [3.0]);
        assert_eq!(profile(&rows, 50.0), [3.0]);
        assert_eq!(profile(&[vec![5.0, 6.0]], 10.0), [5.0, 6.0]);
        assert!(profile(&[], 10.0).is_empty());
    }

    #[test]
    fn a_rows_hundred_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = percentiles(&v);
        assert_eq!(
            (p.len(), p[0], p[49], p[98], p[99]),
            (100, 2.0, 100.0, 198.0, 200.0)
        );
        // Fewer samples than percentiles: ranks repeat, the last is the maximum.
        let p = percentiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((p[24], p[25], p[49], p[98]), (1.0, 2.0, 2.0, 4.0));
    }

    #[test]
    fn median_of_runs() {
        // Five values, one outlier: the median ignores it.
        assert_eq!(median(&[220.0, 218.0, 90.0, 221.0, 219.0]), 219.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_u64(&[5, 1, 3]), 3.0);
    }
}
