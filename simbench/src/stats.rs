//! Order statistics and digests shared by the benchmark's reports.

/// The percentiles a timing may be reported at, lowest first.
pub const PERCENTILES: [u32; 5] = [50, 75, 90, 95, 99];

/// FNV-1a over `bytes`: the per-cell output digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold(0xCBF2_9CE4_8422_2325, bytes)
}

/// Continues an FNV-1a hash from `h` over `bytes`.
pub fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The 1-based nearest rank of percentile `pct` among `n` samples:
/// `ceil(pct/100 × n)`, at least 1.
pub fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// The highest of [`PERCENTILES`] that leaves at least `min_tail`
/// samples beyond it out of `n`, or `None` if even the median does not.
pub fn tail_percentile(n: usize, min_tail: usize) -> Option<u32> {
    PERCENTILES
        .iter()
        .copied()
        .filter(|&p| n.saturating_sub(rank(n, p)) >= min_tail)
        .max()
}

/// The nearest-rank percentile `pct` of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), pct) - 1]
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p75_is_the_tail_percentile_of_the_smallest_workload() {
        // 40 cells: p75 is rank 30 and leaves exactly 10 beyond it,
        // p90 (rank 36) leaves only 4.
        assert_eq!(rank(40, 75), 30);
        assert_eq!(rank(40, 90), 36);
        assert_eq!(tail_percentile(40, 10), Some(75));
        // Larger workloads could afford a higher percentile.
        assert_eq!(tail_percentile(120, 10), Some(90));
        assert_eq!(tail_percentile(45, 10), Some(75));
        assert_eq!(tail_percentile(15, 10), None);
    }

    #[test]
    fn nearest_rank_percentiles_pick_samples() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 20.0);
        assert_eq!(percentile(&v, 75), 30.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
