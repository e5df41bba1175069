//! Streaming top-k similarity search — the O(n·k) companion to the dense
//! [`SimilarityMatrix`](crate::simmat::SimilarityMatrix).
//!
//! Hits@k evaluation, CSLS neighborhood means, greedy/stable-marriage
//! inference and BootEA's candidate refresh only ever need the `k` best
//! targets per source, yet the dense path materializes all `n × m` scores
//! (354 MB of `f32` at 9600×9600 — and quadratically worse on the
//! 100K-analog grid). [`TopKMatrix`] runs the same tiled block kernels but
//! folds each tile of scores straight into a per-row top-k accumulator, so
//! memory is O(rows × k) regardless of the target count.
//!
//! ## Determinism contract
//!
//! * Scores are bit-identical to the dense kernels (same per-pair
//!   accumulation order; the tile size only changes the loop structure).
//! * Each row is sorted by descending score; **ties break toward the lowest
//!   target index** — exactly a stable argsort of the full row. NaN scores
//!   (impossible for the built-in metrics, which define cosine of a zero
//!   vector as 0) order after every finite score instead of poisoning a
//!   comparison.
//! * Results are invariant to thread count and tile size; the
//!   kernel-equivalence suite and `tests/determinism.rs` pin both.

use crate::metric::Metric;
use crate::simmat::{SimilarityMatrix, DEFAULT_TILE};
use crate::sweep;
use std::cmp::Ordering;

/// Descending score order with NaN sorted last — the one comparator every
/// kernel, accumulator and test shares.
#[inline]
pub(crate) fn score_desc(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        _ => b.partial_cmp(&a).expect("both finite"),
    }
}

/// Pushes `(idx, score)` into `kept[..*filled]`, keeping at most
/// `kept.len()` entries sorted by descending score with ties toward the
/// lower index. Callers feed indices in ascending order, so inserting
/// *after* equal scores preserves the lowest-index-wins rule. The entries
/// live in the caller's row, so a push never allocates.
#[inline]
pub(crate) fn push_topk(kept: &mut [(u32, f32)], filled: &mut usize, idx: u32, score: f32) {
    let mut n = *filled;
    debug_assert!(
        kept[..n].last().is_none_or(|&(i, _)| i < idx),
        "indices ascend"
    );
    if n == kept.len() {
        match kept.last() {
            Some(&(_, worst)) if score_desc(worst, score) == Ordering::Greater => n -= 1,
            _ => return,
        }
    }
    let pos = kept[..n].partition_point(|&(_, s)| score_desc(s, score) != Ordering::Greater);
    kept.copy_within(pos..n, pos + 1);
    kept[pos] = (idx, score);
    *filled = n + 1;
}

/// [`push_topk`] for callers that feed indices in *arbitrary* order (the
/// IVF two-stage path visits targets partition by partition): the insertion
/// position accounts for the index on score ties, so the kept entries are
/// always exactly the first `k` of a stable argsort (descending score,
/// lowest index wins) of everything pushed so far.
#[inline]
pub(crate) fn push_topk_any(acc: &mut Vec<(u32, f32)>, k: usize, idx: u32, score: f32) {
    let pos = acc.partition_point(|&(i, s)| match score_desc(s, score) {
        Ordering::Less => true,
        Ordering::Equal => i < idx,
        Ordering::Greater => false,
    });
    if pos >= k {
        return;
    }
    acc.insert(pos, (idx, score));
    if acc.len() > k {
        acc.pop();
    }
}

/// The `k` most similar targets of every source row, most similar first.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKMatrix {
    rows: usize,
    cols: usize,
    /// Entries kept per row: `min(requested k, cols)`.
    k: usize,
    /// Row-major `rows × k` `(target index, score)` pairs.
    entries: Vec<(u32, f32)>,
}

impl TopKMatrix {
    /// Streams the `src × dst` similarities under `metric` tile by tile and
    /// keeps the `k` best targets per source row, never materializing the
    /// full matrix. Scores are bit-identical to
    /// [`SimilarityMatrix::compute`].
    pub fn compute(
        src: &[f32],
        dst: &[f32],
        dim: usize,
        metric: Metric,
        k: usize,
        threads: usize,
    ) -> Self {
        Self::compute_tiled(src, dst, dim, metric, k, threads, DEFAULT_TILE)
    }

    /// [`TopKMatrix::compute`] with an explicit tile size (results are
    /// tile-size invariant; the size only tunes cache behavior).
    pub fn compute_tiled(
        src: &[f32],
        dst: &[f32],
        dim: usize,
        metric: Metric,
        k: usize,
        threads: usize,
        tile: usize,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        let (rows, cols) = (src.len() / dim, dst.len() / dim);
        let k = k.min(cols);
        // Each row accumulates in its own `k` output entries. Tiles advance
        // left to right, so a row has seen exactly `j0` columns — and kept
        // `min(j0, k)` of them — when the tile at `j0` arrives, and indices
        // keep ascending, which is what `push_topk`'s tie rule relies on.
        let mut entries = vec![(0u32, 0.0f32); rows * k];
        sweep::reduce(
            src,
            dst,
            dim,
            metric,
            threads,
            tile,
            &mut entries,
            |_, j0, scores, kept| {
                let mut filled = j0.min(k);
                for (off, &s) in scores.iter().enumerate() {
                    push_topk(kept, &mut filled, (j0 + off) as u32, s);
                }
            },
        );
        Self {
            rows,
            cols,
            k,
            entries,
        }
    }

    /// Top-k of every *row* of an already-materialized matrix — same
    /// selection and tie rule as the streaming path.
    pub fn from_matrix(sim: &SimilarityMatrix, k: usize) -> Self {
        let (rows, cols) = (sim.rows(), sim.cols());
        let k = k.min(cols);
        let mut entries = vec![(0u32, 0.0f32); rows * k];
        if k > 0 {
            for (i, kept) in entries.chunks_mut(k).enumerate() {
                let mut filled = 0;
                for (j, &s) in sim.row(i).iter().enumerate() {
                    push_topk(kept, &mut filled, j as u32, s);
                }
            }
        }
        Self {
            rows,
            cols,
            k,
            entries,
        }
    }

    /// Top-k of every *column* of an already-materialized matrix: row `j` of
    /// the result lists the `k` sources most similar to target `j`.
    pub fn from_matrix_cols(sim: &SimilarityMatrix, k: usize) -> Self {
        let (rows, cols) = (sim.rows(), sim.cols());
        let k = k.min(rows);
        let mut entries = vec![(0u32, 0.0f32); cols * k];
        if k > 0 {
            for i in 0..rows {
                // Every column has been offered rows `0..i` so far.
                for (kept, &s) in entries.chunks_mut(k).zip(sim.row(i)) {
                    let mut filled = i.min(k);
                    push_topk(kept, &mut filled, i as u32, s);
                }
            }
        }
        Self {
            rows: cols,
            cols: rows,
            k,
            entries,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The total number of candidate targets (not the kept count).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entries kept per row (`min(requested k, cols)`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The kept `(target, score)` pairs of source `i`, most similar first.
    pub fn row(&self, i: usize) -> &[(u32, f32)] {
        &self.entries[i * self.k..(i + 1) * self.k]
    }

    /// Borrowing iterator over every row's kept `(target, score)` pairs in
    /// source order — lets callers walk the results without copying them out
    /// (the serving layer hands these slices straight to response encoding).
    /// Rows are empty slices when `k == 0`.
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = &[(u32, f32)]> + '_ {
        (0..self.rows).map(move |i| &self.entries[i * self.k..(i + 1) * self.k])
    }

    /// Folds every row's kept entries into `acc[i]`, the running top-`k` of
    /// source `i` over a wider target set in which this matrix's targets are
    /// columns `col0..col0 + cols()`. Blocks may arrive in any order: `acc`
    /// always holds exactly the first `k` of a stable argsort (descending
    /// score, NaN last, lowest index on ties) of every block folded so far,
    /// provided each block kept at least `k` entries or all of its columns.
    pub fn fold_into(&self, col0: usize, k: usize, acc: &mut [Vec<(u32, f32)>]) {
        assert_eq!(acc.len(), self.rows, "one accumulator per source row");
        for (row, kept) in self.iter_rows().zip(acc) {
            for &(j, s) in row {
                push_topk_any(kept, k, (col0 + j as usize) as u32, s);
            }
        }
    }

    /// The best target of source `i` (lowest index on ties), if any.
    pub fn best(&self, i: usize) -> Option<(usize, f32)> {
        if self.k == 0 {
            return None;
        }
        let (j, s) = self.row(i)[0];
        Some((j as usize, s))
    }

    /// CSLS neighborhood means: per row, the mean of its `min(k, kept)` best
    /// scores (ψ of Eq. 7). Rows with no entries get 0.
    pub fn neighborhood_means(&self, k: usize) -> Vec<f32> {
        (0..self.rows)
            .map(|i| {
                let row = self.row(i);
                let take = k.min(row.len());
                let sum: f32 = row[..take].iter().map(|&(_, s)| s).sum();
                sum / take.max(1) as f32
            })
            .collect()
    }

    /// Applies the CSLS rescaling (Eq. 7) to every kept entry in place:
    /// `2·s − psi_src[i] − psi_dst[j]`, re-sorting each row under the same
    /// descending-score, lowest-index-wins order.
    pub fn rescaled(mut self, psi_src: &[f32], psi_dst: &[f32]) -> TopKMatrix {
        assert_eq!(psi_src.len(), self.rows);
        assert_eq!(psi_dst.len(), self.cols);
        for (row, &psi) in self.entries.chunks_mut(self.k.max(1)).zip(psi_src) {
            for e in row.iter_mut() {
                e.1 = 2.0 * e.1 - psi - psi_dst[e.0 as usize];
            }
            row.sort_by(|a, b| score_desc(a.1, b.1).then(a.0.cmp(&b.0)));
        }
        self
    }
}

/// Streaming CSLS: computes the forward top-`keep` lists, both ψ
/// neighborhood-mean vectors (via a backward top-k pass over `dst × src`)
/// and returns the forward lists rescaled and re-ranked in place — all
/// without materializing the `n × m` matrix or a second copy of the lists.
///
/// With `keep ≥ cols` this is exactly
/// [`SimilarityMatrix::csls`](crate::simmat::SimilarityMatrix::csls)
/// restricted to per-row argsorts (bit-identical scores); smaller `keep`
/// trades exactness at the re-ranking boundary for O(rows·keep) memory.
pub fn csls_topk(
    src: &[f32],
    dst: &[f32],
    dim: usize,
    metric: Metric,
    k: usize,
    keep: usize,
    threads: usize,
) -> TopKMatrix {
    let k = k.max(1);
    let fwd = TopKMatrix::compute(src, dst, dim, metric, keep.max(k), threads);
    let bwd = TopKMatrix::compute(dst, src, dim, metric, k, threads);
    let psi_src = fwd.neighborhood_means(k);
    let psi_dst = bwd.neighborhood_means(k);
    fwd.rescaled(&psi_src, &psi_dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embeddings(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn matches_full_matrix_argsort() {
        let src = embeddings(9, 4, 1);
        let dst = embeddings(13, 4, 2);
        for metric in Metric::ALL {
            let sim = SimilarityMatrix::compute(&src, &dst, 4, metric, 1);
            let topk = TopKMatrix::compute(&src, &dst, 4, metric, 5, 1);
            for i in 0..9 {
                let row = sim.row(i);
                let mut idx: Vec<u32> = (0..13u32).collect();
                idx.sort_by(|&a, &b| score_desc(row[a as usize], row[b as usize]).then(a.cmp(&b)));
                let expect: Vec<(u32, f32)> =
                    idx[..5].iter().map(|&j| (j, row[j as usize])).collect();
                assert_eq!(topk.row(i), &expect[..], "{} row {i}", metric.label());
            }
        }
    }

    #[test]
    fn folded_column_blocks_equal_one_sweep() {
        // A coarse grid makes scores tie within and across blocks.
        let grid = |n: usize, seed: usize| -> Vec<f32> {
            (0..n * 3)
                .map(|x| ((x * 7 + seed) % 5) as f32 - 2.0)
                .collect()
        };
        let (src, dst) = (grid(6, 1), grid(11, 4));
        for metric in Metric::ALL {
            for k in [1, 3] {
                let whole = TopKMatrix::compute(&src, &dst, 3, metric, k, 1);
                for block in [1, 4, 11] {
                    let mut acc = vec![Vec::new(); 6];
                    // Last block first: the fold must not rely on order.
                    let starts: Vec<usize> = (0..11).step_by(block).collect();
                    for &j0 in starts.iter().rev() {
                        let j1 = (j0 + block).min(11);
                        TopKMatrix::compute(&src, &dst[j0 * 3..j1 * 3], 3, metric, k, 1)
                            .fold_into(j0, k, &mut acc);
                    }
                    for (i, kept) in acc.iter().enumerate() {
                        assert_eq!(
                            &kept[..],
                            whole.row(i),
                            "{} k {k} block {block}",
                            metric.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ties_break_toward_lowest_index() {
        // Columns 1 and 3 tie for best; 0 and 4 tie for third.
        let sim = SimilarityMatrix::from_raw(1, 5, vec![0.2, 0.9, 0.1, 0.9, 0.2]);
        let t = TopKMatrix::from_matrix(&sim, 3);
        assert_eq!(t.row(0), &[(1, 0.9), (3, 0.9), (0, 0.2)]);
    }

    #[test]
    fn best_skips_nan_unless_the_row_is_all_nan() {
        let nan = f32::NAN;
        let sim = SimilarityMatrix::from_raw(2, 4, vec![nan, 0.3, nan, 0.3, nan, nan, nan, nan]);
        for k in [1, 4] {
            let t = TopKMatrix::from_matrix(&sim, k);
            assert_eq!(t.best(0), Some((1, 0.3)));
            let (j, s) = t.best(1).expect("a NaN row still has a first entry");
            assert_eq!(j, 0);
            assert!(s.is_nan());
        }
    }

    #[test]
    fn k_zero_and_empty_inputs() {
        let src = embeddings(3, 2, 3);
        let t = TopKMatrix::compute(&src, &src, 2, Metric::Cosine, 0, 2);
        assert_eq!((t.rows(), t.cols(), t.k()), (3, 3, 0));
        assert_eq!(t.row(0), &[]);
        assert_eq!(t.best(0), None);
        let t = TopKMatrix::compute(&[], &src, 2, Metric::Cosine, 4, 2);
        assert_eq!((t.rows(), t.k()), (0, 3));
        let t = TopKMatrix::compute(&src, &[], 2, Metric::Cosine, 4, 2);
        assert_eq!((t.rows(), t.cols(), t.k()), (3, 0, 0));
        assert_eq!(t.best(1), None);
    }

    #[test]
    fn k_larger_than_cols_keeps_every_target() {
        let src = embeddings(4, 3, 4);
        let dst = embeddings(6, 3, 5);
        let t = TopKMatrix::compute(&src, &dst, 3, Metric::Euclidean, 100, 1);
        assert_eq!(t.k(), 6);
        for i in 0..4 {
            let mut seen: Vec<u32> = t.row(i).iter().map(|&(j, _)| j).collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn column_topk_transposes_row_topk() {
        let src = embeddings(7, 3, 6);
        let dst = embeddings(5, 3, 7);
        let sim = SimilarityMatrix::compute(&src, &dst, 3, Metric::Cosine, 1);
        let cols = TopKMatrix::from_matrix_cols(&sim, 3);
        // Row j of the column top-k == streaming top-k of dst row j vs src.
        let back = TopKMatrix::compute(&dst, &src, 3, Metric::Cosine, 3, 1);
        assert_eq!(cols, back);
    }

    #[test]
    fn csls_topk_with_full_keep_matches_dense_csls() {
        let src = embeddings(8, 4, 8);
        let dst = embeddings(6, 4, 9);
        for metric in Metric::ALL {
            let sim = SimilarityMatrix::compute(&src, &dst, 4, metric, 2);
            let dense = sim.csls(3);
            let streamed = csls_topk(&src, &dst, 4, metric, 3, 6, 2);
            for i in 0..8 {
                let row = dense.row(i);
                let mut idx: Vec<u32> = (0..6u32).collect();
                idx.sort_by(|&a, &b| score_desc(row[a as usize], row[b as usize]).then(a.cmp(&b)));
                for (rank, &j) in idx.iter().enumerate() {
                    let (tj, ts) = streamed.row(i)[rank];
                    assert_eq!(tj, j, "{} row {i} rank {rank}", metric.label());
                    assert_eq!(
                        ts,
                        row[j as usize],
                        "{} row {i} rank {rank}",
                        metric.label()
                    );
                }
            }
        }
    }

    #[test]
    fn nan_scores_sort_last_without_panicking() {
        let sim = SimilarityMatrix::from_raw(1, 4, vec![0.5, f32::NAN, 0.7, f32::NAN]);
        let t = TopKMatrix::from_matrix(&sim, 4);
        let idx: Vec<u32> = t.row(0).iter().map(|&(j, _)| j).collect();
        assert_eq!(idx, vec![2, 0, 1, 3]);
    }

    #[test]
    fn iter_rows_matches_row_accessor() {
        let sim = SimilarityMatrix::from_raw(3, 4, (0..12).map(|v| v as f32).collect());
        let t = TopKMatrix::from_matrix(&sim, 2);
        let rows: Vec<&[(u32, f32)]> = t.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(*row, t.row(i));
        }
        // k == 0: every row is an empty borrowed slice, no panic.
        let empty = TopKMatrix::from_matrix(&sim, 0);
        assert_eq!(empty.iter_rows().len(), 3);
        assert!(empty.iter_rows().all(|r| r.is_empty()));
    }
}
