//! The quiet-host estimator and the plain statistics printed next to it.
//!
//! This host slows down in one-sided episodes that last tens of seconds
//! (README.md, "Why a fast-side decile"), so a timed end-to-end metric is
//! never a mean or a median: it is the fast-side decile, by nearest rank,
//! of N repetitions of one identical unit of work spread over the whole run.

/// Which side of a sample set is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Sorts so that the best sample comes first.
fn best_first(samples: &[f64], better: Better) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| match better {
        Better::Lower => a.total_cmp(b),
        Better::Higher => b.total_cmp(a),
    });
    v
}

/// The ⌈N/10⌉-th best sample: the ⌈N/10⌉-th smallest time or largest rate.
/// For N ≤ 10 that is the best repetition. Panics on an empty slice, which
/// would mean a metric with no repetition at all.
pub fn fast_decile(samples: &[f64], better: Better) -> f64 {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let rank = samples.len().div_ceil(10);
    best_first(samples, better)[rank - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Nearest-rank percentile (`p` in 0..=100) of the ascending order; 0 for an
/// empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = best_first(samples, Better::Lower);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decile_of_ten_or_fewer_is_the_best_repetition() {
        assert_eq!(fast_decile(&[3.0], Better::Lower), 3.0);
        assert_eq!(fast_decile(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(fast_decile(&[3.0, 1.0, 2.0], Better::Higher), 3.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(fast_decile(&ten, Better::Lower), 1.0);
        assert_eq!(fast_decile(&ten, Better::Higher), 10.0);
    }

    #[test]
    fn decile_uses_the_ceiling_rank_above_ten() {
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // ceil(11 / 10) = 2: second smallest, second largest.
        assert_eq!(fast_decile(&eleven, Better::Lower), 2.0);
        assert_eq!(fast_decile(&eleven, Better::Higher), 10.0);
        let thirty: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&thirty, Better::Lower), 3.0);
        assert_eq!(fast_decile(&thirty, Better::Higher), 28.0);
        let thirty_one: Vec<f64> = (1..=31).map(f64::from).collect();
        assert_eq!(fast_decile(&thirty_one, Better::Lower), 4.0);
    }

    #[test]
    fn decile_counts_ties_as_separate_ranks() {
        let mut v = vec![5.0; 18];
        v.extend([1.0, 1.0]);
        // N = 20, rank 2: both smallest samples are 1.0.
        assert_eq!(fast_decile(&v, Better::Lower), 1.0);
        v.push(0.5);
        // N = 21, rank 3 of [0.5, 1, 1, 5, ...].
        assert_eq!(fast_decile(&v, Better::Lower), 1.0);
        assert_eq!(fast_decile(&v, Better::Higher), 5.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
