//! Order statistics and bound comparison: medians, the highest percentile a
//! sample count can support, and "do A and B differ by more than the bound".

/// The median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The nearest-rank `pct`-th percentile (`0 < pct <= 100`) of `values`.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples that must lie beyond a percentile before it is worth reporting.
const MIN_SAMPLES_BEYOND: usize = 10;

/// The highest percentile of the usual ladder that `samples` samples support:
/// a percentile is only reported when at least ten samples lie beyond it
/// (p95 needs 200 samples, p90 100, p75 40). `None` below 40 samples — the
/// median is then the only honest order statistic.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99, 95, 90, 75]
        .into_iter()
        .find(|pct| samples * (100 - pct) >= MIN_SAMPLES_BEYOND * 100)
        .map(|pct| pct as f64)
}

/// How far a metric may worsen before it counts as a regression: a share of
/// the base value, or an absolute floor when that share is smaller than the
/// metric's measurement grain (2 MB of RSS, a quarter second of set-up).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Allowed worsening as a share of the base value.
    pub relative: f64,
    /// Allowed worsening in the metric's own unit, whatever the base.
    pub absolute_floor: f64,
}

impl Bound {
    /// The worsening this bound tolerates at `base`, in the metric's unit.
    pub fn allowance(&self, base: f64) -> f64 {
        (self.relative * base.abs()).max(self.absolute_floor)
    }

    /// Whether the two values disagree — in either direction — by more than
    /// the bound allows: the noise acceptance check between two sets of runs
    /// of the same code, where neither side is "the change".
    pub fn disagrees(&self, a: f64, b: f64) -> bool {
        (a - b).abs() > self.allowance(a.abs().min(b.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 100.0), Some(200.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 95.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn absolute_floor_wins_over_a_small_relative_share() {
        // 5 % of 19 MB is under 1 MB; the 2 MB floor is what applies.
        let bound = Bound {
            relative: 0.05,
            absolute_floor: 2.0,
        };
        assert_eq!(bound.allowance(19.0), 2.0);
        assert!(!bound.disagrees(19.0, 20.9));
        assert!(bound.disagrees(19.0, 21.1));
        // At 1100 MB the relative share (55 MB) is what applies.
        assert_eq!(bound.allowance(1100.0), 55.0);
        assert!(bound.disagrees(1100.0, 1160.0));
        assert!(!bound.disagrees(1100.0, 1150.0));
    }

    #[test]
    fn disagreement_is_symmetric() {
        let bound = Bound {
            relative: 0.10,
            absolute_floor: 0.0,
        };
        assert!(bound.disagrees(100.0, 112.0));
        assert!(bound.disagrees(112.0, 100.0));
        assert!(!bound.disagrees(100.0, 109.0));
        assert!(!bound.disagrees(109.0, 100.0));
    }
}
