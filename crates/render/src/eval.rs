//! Summary statistics: the aggregation rules behind multi-view PSNR and
//! latency reports.
//!
//! The paper reports PSNR over Synthetic-NeRF's test trajectories (many
//! poses per scene), not a single view. Multi-view PSNR is rendered by the
//! `spnerf` pipeline's `RenderSession` (a batch request with a reference
//! source) and aggregated here by [`PsnrStats::from_values`]; the serve
//! report aggregates latencies with [`SummaryStats`] and [`percentile`].

/// Count / mean / min / max over a sample set — the one aggregation rule
/// every summary in the workspace shares.
///
/// [`PsnrStats::from_values`] delegates here for per-view PSNR, and the
/// `spnerf-serve` report bin uses it (together with [`percentile`]) for
/// virtual-time latency accounting, so no consumer carries its own copy of
/// the mean/min/max loop.
///
/// # Examples
///
/// ```
/// use spnerf_render::eval::SummaryStats;
///
/// let s = SummaryStats::from_values(&[2.0, 8.0, 5.0]);
/// assert_eq!((s.count, s.mean, s.min, s.max), (3, 5.0, 2.0, 8.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Samples aggregated.
    pub count: usize,
    /// Arithmetic mean (summed in slice order, so equal inputs give
    /// bitwise-equal means).
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl SummaryStats {
    /// Aggregates a sample set.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "need at least one value to summarize");
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Self { count: values.len(), mean, min, max }
    }
}

/// Nearest-rank percentile: the smallest sample such that at least
/// `q` percent of the set is ≤ it. Exact set membership (never an
/// interpolated value), so integer inputs yield integer outputs and equal
/// inputs yield bitwise-equal percentiles — the property the deterministic
/// serving report relies on.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `(0, 100]`.
///
/// # Examples
///
/// ```
/// use spnerf_render::eval::percentile;
///
/// let latencies = [5.0, 1.0, 9.0, 3.0];
/// assert_eq!(percentile(&latencies, 50.0), 3.0);
/// assert_eq!(percentile(&latencies, 100.0), 9.0);
/// ```
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "need at least one value for a percentile");
    assert!(q > 0.0 && q <= 100.0, "percentile rank must be in (0, 100], got {q}");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregated PSNR over a pose set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsnrStats {
    /// Views evaluated.
    pub views: usize,
    /// Mean PSNR in dB.
    pub mean_db: f64,
    /// Worst view.
    pub min_db: f64,
    /// Best view.
    pub max_db: f64,
}

impl PsnrStats {
    /// Aggregates per-view PSNR values (dB) into summary statistics.
    ///
    /// This is the aggregation rule of the `spnerf` pipeline's
    /// `RenderSession` for batch responses with a reference source. It is
    /// [`SummaryStats::from_values`] under PSNR field names.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_values(values: &[f64]) -> Self {
        let s = SummaryStats::from_values(values);
        Self { views: s.count, mean_db: s.mean, min_db: s.min, max_db: s.max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_aggregates() {
        let s = PsnrStats::from_values(&[30.0, 20.0, 40.0]);
        assert_eq!(s.views, 3);
        assert_eq!(s.mean_db, 30.0);
        assert_eq!(s.min_db, 20.0);
        assert_eq!(s.max_db, 40.0);
    }

    #[test]
    #[should_panic(expected = "at least one value to summarize")]
    fn from_values_rejects_empty() {
        let _ = PsnrStats::from_values(&[]);
    }

    #[test]
    fn summary_stats_match_psnr_stats() {
        // PsnrStats is SummaryStats under other names — same values in,
        // bitwise-same numbers out.
        let vals = [31.25, 28.5, 40.0, 33.75];
        let s = SummaryStats::from_values(&vals);
        let p = PsnrStats::from_values(&vals);
        assert_eq!((s.count, s.mean, s.min, s.max), (p.views, p.mean_db, p.min_db, p.max_db));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 100.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 10.0), 10.0);
        // A tiny rank clamps to the first sample.
        assert_eq!(percentile(&v, 0.5), 10.0);
        // Exact set membership, never interpolation.
        let odd = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&odd, 50.0), 2.0);
        assert_eq!(percentile(&odd, 66.6), 2.0);
        assert_eq!(percentile(&odd, 67.0), 3.0);
        // Singleton: every rank is the one sample.
        assert_eq!(percentile(&[7.5], 1.0), 7.5);
        assert_eq!(percentile(&[7.5], 100.0), 7.5);
    }

    #[test]
    fn percentile_boundary_semantics() {
        // q → 0+ clamps the nearest rank to the first (smallest) sample;
        // q = 100 is always the maximum. These are the edges the serving
        // report leans on for p0-ish and p100 latency lines.
        let v = [4.0, 2.0, 8.0, 6.0];
        assert_eq!(percentile(&v, 1e-9), 2.0);
        assert_eq!(percentile(&v, 100.0), 8.0);
        // The rank is ceil(q/100 · n): exactly at a 1/n boundary the first
        // sample still answers, and any amount above it moves to the second.
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(percentile(&v, 25.0 + 1e-9), 4.0);
        assert_eq!(percentile(&v, 50.0), 4.0);
        assert_eq!(percentile(&v, 75.0 + 1e-9), 8.0);
        // A single-element set answers every legal rank with its one value.
        for q in [1e-9, 0.5, 50.0, 99.999, 100.0] {
            assert_eq!(percentile(&[7.5], q), 7.5);
        }
    }

    #[test]
    #[should_panic(expected = "percentile rank must be in (0, 100]")]
    fn percentile_rejects_out_of_range_rank() {
        let _ = percentile(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile rank must be in (0, 100]")]
    fn percentile_rejects_rank_above_100() {
        let _ = percentile(&[1.0], 100.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one value for a percentile")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }
}
