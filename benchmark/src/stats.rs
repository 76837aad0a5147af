//! Order statistics for timings: a timing is always reported as median,
//! min, max and sample count, never as a mean.

/// Median, extremes and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Middle sample (mean of the middle two for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; an empty slice is all zeros with `n = 0`.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let sorted = sorted(samples);
        match (sorted.first(), sorted.last()) {
            (Some(&min), Some(&max)) => {
                Self { median: quantile_sorted(&sorted, 0.5), min, max, n: sorted.len() }
            }
            _ => Self { median: 0.0, min: 0.0, max: 0.0, n: 0 },
        }
    }

    /// A metric that was observed once (counts, peak memory).
    #[must_use]
    pub fn single(value: f64) -> Self {
        Self { median: value, min: value, max: value, n: 1 }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples` (0 when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Quantile `q` in `[0, 1]` of `samples`, linear interpolation between
/// the two nearest ranks (0 when empty).
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}
