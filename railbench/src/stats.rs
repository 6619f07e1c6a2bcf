//! Summary statistics for the reported metrics.

/// The percentile ladder the tail rule picks from.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a percentile must leave beyond it to count as a tail.
pub const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n > 0` samples
/// (the epsilon keeps `99.9 * 10_000 / 100` from rounding up a rank).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly after the nearest-rank position of `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest rung of [`LADDER`] that leaves at least [`TAIL_BEYOND`]
/// samples beyond it among `n`, or `None` if even the median does not.
pub fn tail_rung(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_BEYOND)
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p50` and tail of a run's unit latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitLatency {
    /// Median latency.
    pub p50: f64,
    /// Latency at [`UnitLatency::rung`].
    pub tail: f64,
    /// The tail percentile ([`tail_rung`] of the guaranteed sample
    /// count, or 50 when that is too small for any rung).
    pub rung: f64,
    /// Samples.
    pub n: usize,
}

/// Summarises a run's unit latencies. The tail rung is chosen from
/// `guaranteed`, the sample count every run reaches (units per pass
/// times the minimum passes), not from `samples.len()`: runs that fit a
/// different number of passes into their time budget then still report
/// the same percentile, and it always has at least [`TAIL_BEYOND`]
/// samples beyond it.
pub fn unit_latency(samples: &[f64], guaranteed: usize) -> UnitLatency {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rung = tail_rung(guaranteed.min(s.len())).unwrap_or(50.0);
    UnitLatency {
        p50: percentile(&s, 50.0),
        tail: percentile(&s, rung),
        rung,
        n: s.len(),
    }
}

/// Folds one pass's unit latencies into `best`, the per-unit minimum
/// over the passes so far (units are in the same order every pass).
pub fn keep_best(best: &mut Vec<f64>, pass: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
    } else {
        assert_eq!(best.len(), pass.len(), "passes differ in their units");
        for (b, &v) in best.iter_mut().zip(pass) {
            *b = b.min(v);
        }
    }
}
