//! Order statistics for reported timings.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least ten samples beyond it, always with its sample
//! count: a p99 over 200 samples rests on two values and says nothing.

use std::fmt;

/// Candidate tail percentiles in per-mille, highest first.
const TAIL_LADDER_PER_MILLE: [u64; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: u64 = 10;

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest ladder percentile (in per-mille) with at least ten of `n`
/// samples beyond it, or `None` when even p75 would rest on fewer.
#[must_use]
pub fn tail_per_mille(n: usize) -> Option<u64> {
    let n = n as u64;
    TAIL_LADDER_PER_MILLE
        .into_iter()
        .find(|&pm| n * (1000 - pm) >= MIN_BEYOND * 1000)
}

/// A timing distribution summary: count, median, and the reportable tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(per-mille, value)` of the highest percentile with ten samples
    /// beyond it.
    pub tail: Option<(u64, f64)>,
}

impl Summary {
    /// Summarizes unsorted values; `None` when there are none.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let s = sorted(values);
        Some(Self {
            n: s.len(),
            p50: quantile(&s, 0.5),
            tail: tail_per_mille(s.len()).map(|pm| (pm, quantile(&s, pm as f64 / 1000.0))),
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p50 {:.3}", self.p50)?;
        if let Some((pm, v)) = self.tail {
            let pct = pm as f64 / 10.0;
            write!(f, ", p{pct} {v:.3}")?;
        }
        write!(f, " (n={})", self.n)
    }
}
