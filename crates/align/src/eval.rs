//! Evaluation metrics: Hits@m, mean rank, mean reciprocal rank (the link
//! prediction conventions the field borrowed), precision/recall/F1 (the
//! OAEI/conventional convention), and mean±std aggregation across folds.

use crate::metric::Metric;
use crate::simmat::{SimilarityMatrix, DEFAULT_TILE};
use crate::sweep;
use std::collections::HashSet;

/// Ranking metrics over a test set. `hits[m]` is Hits@m.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankEval {
    pub hits1: f64,
    pub hits5: f64,
    pub hits10: f64,
    /// Mean rank of the true counterpart (1-based).
    pub mr: f64,
    /// Mean reciprocal rank.
    pub mrr: f64,
}

/// Evaluates a similarity matrix whose row `i` is the i-th test source entity
/// and whose columns are the candidate targets; `gold[i]` is the column of
/// the true counterpart of row `i`.
pub fn rank_eval(sim: &SimilarityMatrix, gold: &[usize]) -> RankEval {
    assert_eq!(sim.rows(), gold.len(), "one gold target per source row");
    summarize(gold.iter().enumerate().map(|(i, &g)| sim.rank_of(i, g)))
}

/// Hits@{1,5,10}, MR and MRR of the gold targets' 1-based ranks.
fn summarize(ranks: impl ExactSizeIterator<Item = usize>) -> RankEval {
    if ranks.len() == 0 {
        return RankEval::default();
    }
    let n = ranks.len() as f64;
    let mut hits = [0usize; 3];
    let mut mr = 0.0f64;
    let mut mrr = 0.0f64;
    for rank in ranks {
        for (h, at) in hits.iter_mut().zip([1, 5, 10]) {
            *h += usize::from(rank <= at);
        }
        mr += rank as f64;
        mrr += 1.0 / rank as f64;
    }
    RankEval {
        hits1: hits[0] as f64 / n,
        hits5: hits[1] as f64 / n,
        hits10: hits[2] as f64 / n,
        mr: mr / n,
        mrr: mrr / n,
    }
}

/// Streaming [`rank_eval`]: computes the same ranking metrics directly from
/// the embeddings without materializing the `rows × cols` similarity matrix.
///
/// Each row's gold score is computed once, then the row's similarities are
/// streamed tile by tile and only the count of targets scoring at least the
/// gold score is kept — O(tile) transient memory per worker. Scores come
/// from the same sweep as [`SimilarityMatrix::compute`], so the result
/// equals `rank_eval(&SimilarityMatrix::compute(..), gold)` exactly.
pub fn rank_eval_streaming(
    src: &[f32],
    dst: &[f32],
    dim: usize,
    metric: Metric,
    gold: &[usize],
    threads: usize,
) -> RankEval {
    assert!(dim > 0, "dim must be positive");
    let cols = dst.len() / dim;
    assert_eq!(
        src.len() / dim,
        gold.len(),
        "one gold target per source row"
    );
    let gold_scores: Vec<f32> = (gold.iter().zip(src.chunks_exact(dim)).enumerate())
        .map(|(i, (&g, a))| {
            assert!(g < cols, "gold target {g} out of range for row {i}");
            metric.similarity(a, &dst[g * dim..(g + 1) * dim])
        })
        .collect();
    let mut ahead = vec![0usize; gold.len()];
    sweep::reduce(
        src,
        dst,
        dim,
        metric,
        threads,
        DEFAULT_TILE,
        &mut ahead,
        |i, j0, scores, ahead| {
            // Ties count pessimistically (>=), matching `rank_of`.
            let (g, s) = (gold[i], gold_scores[i]);
            ahead[0] += (scores.iter().enumerate())
                .filter(|&(off, &x)| x >= s && j0 + off != g)
                .count();
        },
    );
    summarize(ahead.iter().map(|&n| 1 + n))
}

/// Precision / recall / F1 of a predicted alignment set against gold pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PrfScores {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

/// Computes P/R/F1 for `predicted` pairs against the `gold` set.
pub fn precision_recall_f1(predicted: &[(u32, u32)], gold: &HashSet<(u32, u32)>) -> PrfScores {
    if predicted.is_empty() || gold.is_empty() {
        return PrfScores::default();
    }
    let correct = predicted.iter().filter(|p| gold.contains(p)).count() as f64;
    let precision = correct / predicted.len() as f64;
    let recall = correct / gold.len() as f64;
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    PrfScores {
        precision,
        recall,
        f1,
    }
}

/// Mean ± standard deviation over cross-validation folds, formatted like the
/// paper's tables (`.507± .010`).
#[derive(Clone, Debug, Default)]
pub struct MeanStd {
    values: Vec<f64>,
}

impl MeanStd {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation (the paper reports spread over exactly
    /// the five folds).
    pub fn std(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64)
            .sqrt()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Extend<f64> for MeanStd {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking() {
        let sim = SimilarityMatrix::from_raw(2, 3, vec![0.9, 0.1, 0.0, 0.0, 0.1, 0.9]);
        let e = rank_eval(&sim, &[0, 2]);
        assert_eq!(e.hits1, 1.0);
        assert_eq!(e.hits5, 1.0);
        assert_eq!(e.mr, 1.0);
        assert_eq!(e.mrr, 1.0);
    }

    #[test]
    fn mixed_ranking() {
        // Row 0 ranks gold at 1; row 1 ranks gold at 3.
        let sim = SimilarityMatrix::from_raw(2, 3, vec![0.9, 0.1, 0.0, 0.5, 0.4, 0.3]);
        let e = rank_eval(&sim, &[0, 2]);
        assert!((e.hits1 - 0.5).abs() < 1e-12);
        assert!((e.mr - 2.0).abs() < 1e-12);
        assert!((e.mrr - (1.0 + 1.0 / 3.0) / 2.0).abs() < 1e-12);
        assert_eq!(e.hits5, 1.0);
    }

    #[test]
    fn empty_test_set() {
        let sim = SimilarityMatrix::from_raw(0, 0, vec![]);
        assert_eq!(rank_eval(&sim, &[]), RankEval::default());
    }

    #[test]
    fn streaming_rank_eval_equals_matrix_rank_eval() {
        use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let dim = 5;
        let src: Vec<f32> = (0..23 * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let dst: Vec<f32> = (0..31 * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let gold: Vec<usize> = (0..23).map(|_| rng.gen_range(0..31u32) as usize).collect();
        for metric in Metric::ALL {
            let sim = SimilarityMatrix::compute(&src, &dst, dim, metric, 2);
            let dense = rank_eval(&sim, &gold);
            for threads in [1, 2, 8] {
                let streamed = rank_eval_streaming(&src, &dst, dim, metric, &gold, threads);
                assert_eq!(dense, streamed, "{} threads={threads}", metric.label());
            }
        }
    }

    #[test]
    fn streaming_rank_eval_empty_test_set() {
        assert_eq!(
            rank_eval_streaming(&[], &[1.0, 0.0], 2, Metric::Cosine, &[], 4),
            RankEval::default()
        );
    }

    #[test]
    fn prf_computation() {
        let gold: HashSet<(u32, u32)> = [(0, 0), (1, 1), (2, 2), (3, 3)].into();
        let predicted = vec![(0, 0), (1, 1), (2, 9)];
        let s = precision_recall_f1(&predicted, &gold);
        assert!((s.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall - 0.5).abs() < 1e-12);
        let expect_f1 = 2.0 * (2.0 / 3.0) * 0.5 / (2.0 / 3.0 + 0.5);
        assert!((s.f1 - expect_f1).abs() < 1e-12);
    }

    #[test]
    fn prf_empty_inputs() {
        let gold: HashSet<(u32, u32)> = HashSet::new();
        assert_eq!(precision_recall_f1(&[], &gold), PrfScores::default());
    }

    #[test]
    fn mean_std_aggregation() {
        let mut ms = MeanStd::new();
        ms.extend([0.5, 0.51, 0.49, 0.5, 0.5]);
        assert!((ms.mean() - 0.5).abs() < 1e-12);
        assert!(ms.std() < 0.01);
        assert_eq!(ms.len(), 5);
    }

    #[test]
    fn single_value_has_zero_std() {
        let mut ms = MeanStd::new();
        ms.push(0.7);
        assert_eq!(ms.std(), 0.0);
    }
}
