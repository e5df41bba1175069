//! Geometric and diagnostic analyses of entity embeddings:
//! Figure 5 (recall per alignment-degree bucket), Figure 9 (top-k similarity
//! profile), Figure 10 (hubness and isolation) and Figure 12 (three-system
//! overlap of correct alignment).
//!
//! Figures 9 and 10 read only each source's best few targets, so they take
//! streamed [`TopKMatrix`] lists: a width of `k_max` for the profile, 1 for
//! hubness.

use crate::topk::TopKMatrix;
use std::collections::HashSet;

/// Figure 9: mean similarity between each source entity and its k-th nearest
/// target, for k = 1..=k_max. A good approach shows a high first value and a
/// steep drop (discriminative neighbours). Reads the first `k_max` kept
/// entries of each row; a rank no row kept reads 0.
pub fn topk_similarity_profile(topk: &TopKMatrix, k_max: usize) -> Vec<f64> {
    let mut sums = vec![0.0f64; k_max];
    let mut counts = vec![0usize; k_max];
    for row in topk.iter_rows() {
        for (k, &(_, s)) in row.iter().take(k_max).enumerate() {
            sums[k] += s as f64;
            counts[k] += 1;
        }
    }
    sums.iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect()
}

/// Figure 10: how often each target entity appears as somebody's top-1
/// nearest neighbour.
#[derive(Clone, Debug, PartialEq)]
pub struct HubnessProfile {
    /// Fraction of targets never chosen as top-1 ("isolated" under greedy).
    pub zero: f64,
    /// Fraction chosen exactly once (the healthy case).
    pub one: f64,
    /// Fraction chosen 2–4 times (mild hubs).
    pub two_to_four: f64,
    /// Fraction chosen ≥5 times (strong hubs).
    pub five_plus: f64,
}

/// Computes the hubness/isolation profile of greedy top-1 matching.
pub fn hubness_profile(topk: &TopKMatrix) -> HubnessProfile {
    let cols = topk.cols();
    if cols == 0 {
        return HubnessProfile {
            zero: 0.0,
            one: 0.0,
            two_to_four: 0.0,
            five_plus: 0.0,
        };
    }
    let mut counts = vec![0usize; cols];
    for i in 0..topk.rows() {
        if let Some((j, _)) = topk.best(i) {
            counts[j] += 1;
        }
    }
    let n = cols as f64;
    let frac =
        |pred: &dyn Fn(usize) -> bool| counts.iter().filter(|&&c| pred(c)).count() as f64 / n;
    HubnessProfile {
        zero: frac(&|c| c == 0),
        one: frac(&|c| c == 1),
        two_to_four: frac(&|c| (2..=4).contains(&c)),
        five_plus: frac(&|c| c >= 5),
    }
}

/// Figure 5: recall within alignment-degree buckets. `degrees[i]` is the
/// alignment degree of test pair `i`, `correct[i]` whether the approach got
/// it right, and `edges` the bucket boundaries (e.g. `[1, 6, 11, 16]` for the
/// paper's `[1,6) [6,11) [11,16) [16,∞)`). Returns `(bucket_size, recall)`
/// per bucket.
pub fn degree_bucket_recall(
    degrees: &[usize],
    correct: &[bool],
    edges: &[usize],
) -> Vec<(usize, f64)> {
    assert_eq!(degrees.len(), correct.len());
    assert!(!edges.is_empty());
    let mut sizes = vec![0usize; edges.len()];
    let mut hits = vec![0usize; edges.len()];
    for (&d, &c) in degrees.iter().zip(correct) {
        // Find the last edge ≤ d; degrees below the first edge join bucket 0.
        let b = edges.iter().rposition(|&e| d >= e).unwrap_or(0);
        sizes[b] += 1;
        if c {
            hits[b] += 1;
        }
    }
    sizes
        .into_iter()
        .zip(hits)
        .map(|(n, h)| (n, if n == 0 { 0.0 } else { h as f64 / n as f64 }))
        .collect()
}

/// Figure 12: the 8-region breakdown of which of three systems found each
/// gold alignment pair. Fractions are over the gold set and sum to 1.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OverlapBreakdown {
    pub only_a: f64,
    pub only_b: f64,
    pub only_c: f64,
    pub a_and_b: f64,
    pub a_and_c: f64,
    pub b_and_c: f64,
    pub all_three: f64,
    pub none: f64,
}

/// Computes the overlap breakdown of three systems' *correct* predictions
/// over the gold alignment.
pub fn overlap3(
    gold: &[(u32, u32)],
    found_a: &HashSet<(u32, u32)>,
    found_b: &HashSet<(u32, u32)>,
    found_c: &HashSet<(u32, u32)>,
) -> OverlapBreakdown {
    let mut out = OverlapBreakdown::default();
    if gold.is_empty() {
        return out;
    }
    let unit = 1.0 / gold.len() as f64;
    for p in gold {
        let (a, b, c) = (
            found_a.contains(p),
            found_b.contains(p),
            found_c.contains(p),
        );
        match (a, b, c) {
            (true, false, false) => out.only_a += unit,
            (false, true, false) => out.only_b += unit,
            (false, false, true) => out.only_c += unit,
            (true, true, false) => out.a_and_b += unit,
            (true, false, true) => out.a_and_c += unit,
            (false, true, true) => out.b_and_c += unit,
            (true, true, true) => out.all_three += unit,
            (false, false, false) => out.none += unit,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simmat::SimilarityMatrix;

    /// Every target of every row, most similar first.
    pub(super) fn full(rows: usize, cols: usize, values: Vec<f32>) -> TopKMatrix {
        TopKMatrix::from_matrix(&SimilarityMatrix::from_raw(rows, cols, values), cols)
    }

    #[test]
    fn similarity_profile_is_descending() {
        let sim = full(2, 4, vec![0.9, 0.3, 0.5, 0.1, 0.2, 0.8, 0.6, 0.4]);
        let prof = topk_similarity_profile(&sim, 3);
        assert_eq!(prof.len(), 3);
        assert!(prof[0] >= prof[1] && prof[1] >= prof[2]);
        assert!((prof[0] - (0.9 + 0.8) / 2.0).abs() < 1e-6);
        // Lists of exactly `k_max` give the same profile; ranks past the
        // kept width read 0, as do ranks of an empty set of sources.
        let raw = SimilarityMatrix::from_raw(2, 4, vec![0.9, 0.3, 0.5, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert_eq!(
            topk_similarity_profile(&TopKMatrix::from_matrix(&raw, 3), 3),
            prof
        );
        assert_eq!(
            topk_similarity_profile(&full(2, 2, vec![0.5; 4]), 3)[2],
            0.0
        );
        assert_eq!(
            topk_similarity_profile(&full(0, 4, vec![]), 2),
            vec![0.0; 2]
        );
    }

    #[test]
    fn hubness_counts_regions() {
        // 4 sources all pick target 0; targets 1..3 never picked.
        let sim = full(
            4,
            4,
            vec![
                0.9, 0.1, 0.1, 0.1, //
                0.9, 0.1, 0.1, 0.1, //
                0.9, 0.1, 0.1, 0.1, //
                0.9, 0.1, 0.1, 0.1,
            ],
        );
        let h = hubness_profile(&sim);
        assert!((h.zero - 0.75).abs() < 1e-12);
        assert_eq!(h.one, 0.0);
        assert!((h.two_to_four - 0.25).abs() < 1e-12);
        assert_eq!(h.five_plus, 0.0);
    }

    #[test]
    fn hubness_ideal_case() {
        let sim = full(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        let h = hubness_profile(&sim);
        assert_eq!(h.one, 1.0);
        assert_eq!(h.zero, 0.0);
    }

    #[test]
    fn degree_buckets_match_paper_edges() {
        let degrees = [1, 3, 7, 12, 30];
        let correct = [false, true, true, false, true];
        let res = degree_bucket_recall(&degrees, &correct, &[1, 6, 11, 16]);
        assert_eq!(res.len(), 4);
        assert_eq!(res[0], (2, 0.5)); // degrees 1, 3
        assert_eq!(res[1], (1, 1.0)); // degree 7
        assert_eq!(res[2], (1, 0.0)); // degree 12
        assert_eq!(res[3], (1, 1.0)); // degree 30
    }

    #[test]
    fn overlap_regions_sum_to_one() {
        let gold: Vec<(u32, u32)> = (0..10).map(|i| (i, i)).collect();
        let a: HashSet<_> = gold[0..6].iter().copied().collect();
        let b: HashSet<_> = gold[4..8].iter().copied().collect();
        let c: HashSet<_> = gold[5..10].iter().copied().collect();
        let o = overlap3(&gold, &a, &b, &c);
        let total = o.only_a
            + o.only_b
            + o.only_c
            + o.a_and_b
            + o.a_and_c
            + o.b_and_c
            + o.all_three
            + o.none;
        assert!((total - 1.0).abs() < 1e-9);
        assert!((o.all_three - 0.1).abs() < 1e-9); // a∩b∩c = {5}
    }

    #[test]
    fn overlap_exact_regions() {
        let gold: Vec<(u32, u32)> = (0..4).map(|i| (i, i)).collect();
        let a: HashSet<_> = [(0u32, 0u32), (1, 1)].into();
        let b: HashSet<_> = [(1u32, 1u32), (2, 2)].into();
        let c: HashSet<_> = HashSet::new();
        let o = overlap3(&gold, &a, &b, &c);
        assert!((o.only_a - 0.25).abs() < 1e-12);
        assert!((o.only_b - 0.25).abs() < 1e-12);
        assert!((o.a_and_b - 0.25).abs() < 1e-12);
        assert!((o.none - 0.25).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::full;
    use super::*;
    use openea_runtime::testkit::prelude::*;

    props! {
        /// The top-k similarity profile is non-increasing in k.
        #[test]
        fn similarity_profile_is_monotone(values in vec_of(-1.0f32..1.0, 24)) {
            let sim = full(4, 6, values);
            let prof = topk_similarity_profile(&sim, 5);
            for w in prof.windows(2) {
                prop_assert!(w[0] >= w[1] - 1e-6);
            }
        }

        /// Hubness fractions always partition the target set.
        #[test]
        fn hubness_fractions_sum_to_one(values in vec_of(-1.0f32..1.0, 30)) {
            let sim = full(5, 6, values);
            let h = hubness_profile(&sim);
            let total = h.zero + h.one + h.two_to_four + h.five_plus;
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        /// Degree buckets partition the test pairs.
        #[test]
        fn degree_buckets_partition(
            degrees in vec_of(0usize..40, 1..60),
            flips in vec_of(any_bool(), 60),
        ) {
            let correct: Vec<bool> = degrees.iter().enumerate().map(|(i, _)| flips[i % flips.len()]).collect();
            let buckets = degree_bucket_recall(&degrees, &correct, &[1, 6, 11, 16]);
            let total: usize = buckets.iter().map(|&(n, _)| n).sum();
            prop_assert_eq!(total, degrees.len());
            for &(n, r) in &buckets {
                prop_assert!((0.0..=1.0).contains(&r) || n == 0);
            }
        }
    }
}
