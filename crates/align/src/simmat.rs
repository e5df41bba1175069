//! Dense source×target similarity matrices and the CSLS rescaling.
//!
//! Computing all pairwise similarities is the dominant inference cost (the
//! paper reports ~8 minutes on a 100K dataset with 10 processes), so the
//! matrix is built by cache-tiled block kernels dispatched in parallel over
//! scoped threads. See the "Kernel layer" section of DESIGN.md for the
//! tiling scheme and determinism contract; [`crate::topk`] holds the
//! streaming path that avoids materializing the matrix at all.
//!
//! ```
//! use openea_align::{Metric, SimilarityMatrix};
//!
//! let src = vec![1.0, 0.0,  0.0, 1.0]; // two 2-d source embeddings
//! let dst = vec![0.9, 0.1,  0.1, 0.9]; // two targets, slightly rotated
//! let sim = SimilarityMatrix::compute(&src, &dst, 2, Metric::Cosine, 1);
//! assert_eq!(sim.rank_of(0, 0), 1);
//! assert_eq!(sim.rank_of(1, 1), 1);
//! ```

use crate::metric::Metric;
use crate::sweep;
use crate::topk::{push_topk, TopKMatrix};
use openea_runtime::pool::{balanced_chunk_len, parallel_chunks};

/// Default column-tile width for the block kernels. 64 targets × 64 dims of
/// `f32` is 16 KB — the tile stays resident in L1 while a source row streams
/// against it. Results are tile-size invariant (`tests/kernel_equivalence.rs`
/// pins this), so the constant only tunes cache behavior.
pub const DEFAULT_TILE: usize = 64;

/// A dense `sources × targets` similarity matrix.
#[derive(Clone, Debug)]
pub struct SimilarityMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl SimilarityMatrix {
    /// Computes all pairwise similarities between `src` (row-major
    /// `rows × dim`) and `dst` (`cols × dim`) under `metric`, using up to
    /// `threads` worker threads and the default tile size.
    pub fn compute(src: &[f32], dst: &[f32], dim: usize, metric: Metric, threads: usize) -> Self {
        Self::compute_tiled(src, dst, dim, metric, threads, DEFAULT_TILE)
    }

    /// [`SimilarityMatrix::compute`] with an explicit column-tile size.
    ///
    /// Each output element is a pure function of its `(i, j)` pair — the
    /// per-pair accumulation order inside the block kernels matches
    /// [`Metric::similarity`] exactly — so results are bit-identical across
    /// tile sizes and thread counts.
    pub fn compute_tiled(
        src: &[f32],
        dst: &[f32],
        dim: usize,
        metric: Metric,
        threads: usize,
        tile: usize,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        let (rows, cols) = (src.len() / dim, dst.len() / dim);
        let mut data = vec![0.0f32; rows * cols];
        // Stored, not reduced: every (chunk, tile) block of scores lands in
        // the chunk's rows at stride `cols`, with no scratch in between.
        sweep::tiles(
            src,
            dst,
            dim,
            metric,
            threads,
            tile,
            &mut data,
            |chunk, tile_cols, out_chunk, score, _| {
                score(0..chunk.len(), &mut out_chunk[tile_cols.start..], cols);
            },
        );
        Self { rows, cols, data }
    }

    /// Reference kernel: the straightforward per-pair loop the tiled path
    /// must match bit for bit. Kept for the equivalence suite and benches.
    pub fn compute_naive(
        src: &[f32],
        dst: &[f32],
        dim: usize,
        metric: Metric,
        threads: usize,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(src.len() % dim, 0);
        assert_eq!(dst.len() % dim, 0);
        let rows = src.len() / dim;
        let cols = dst.len() / dim;
        let mut data = vec![0.0f32; rows * cols];
        if rows == 0 || cols == 0 {
            return Self { rows, cols, data };
        }
        let threads = threads.clamp(1, rows);
        let chunk_rows = balanced_chunk_len(rows, threads, 4);
        parallel_chunks(
            &mut data,
            chunk_rows * cols,
            threads,
            |chunk_idx, out_chunk| {
                let row0 = chunk_idx * chunk_rows;
                for (local, out_row) in out_chunk.chunks_mut(cols).enumerate() {
                    let i = row0 + local;
                    let a = &src[i * dim..(i + 1) * dim];
                    for (j, out) in out_row.iter_mut().enumerate() {
                        let b = &dst[j * dim..(j + 1) * dim];
                        *out = metric.similarity(a, b);
                    }
                }
            },
        );

        Self { rows, cols, data }
    }

    /// Builds a matrix directly from precomputed values (row-major).
    pub fn from_raw(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The `k` most similar targets for source `i`, most similar first; ties
    /// break toward the lowest target index (a stable argsort prefix).
    pub fn topk_row(&self, i: usize, k: usize) -> Vec<(usize, f32)> {
        let mut kept = vec![(0u32, 0.0f32); k.min(self.cols)];
        let mut filled = 0;
        for (j, &s) in self.row(i).iter().enumerate() {
            push_topk(&mut kept, &mut filled, j as u32, s);
        }
        kept.into_iter().map(|(j, s)| (j as usize, s)).collect()
    }

    /// The rank (1-based) of target `j` among all targets for source `i`,
    /// counting ties pessimistically (equal scores rank ahead).
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        let row = self.row(i);
        let s = row[j];
        1 + row
            .iter()
            .enumerate()
            .filter(|&(c, &x)| c != j && x >= s)
            .count()
    }

    /// Applies CSLS (Eq. 7): `2·sim(i,j) − ψ_t(i) − ψ_s(j)`, where `ψ_t(i)`
    /// is the mean similarity of source `i` to its `k` nearest targets and
    /// `ψ_s(j)` symmetrically. Hubs (targets near everything) get globally
    /// penalized; isolated targets get boosted.
    ///
    /// The ψ means are built from the same top-k selection as the streaming
    /// [`crate::topk::csls_topk`] (same candidates, same summation order), so
    /// the two paths agree bitwise when the streaming path keeps every
    /// column.
    pub fn csls(&self, k: usize) -> SimilarityMatrix {
        let k = k.max(1);
        let psi_src = TopKMatrix::from_matrix(self, k).neighborhood_means(k);
        let psi_dst = TopKMatrix::from_matrix_cols(self, k).neighborhood_means(k);

        let mut data = Vec::with_capacity(self.rows * self.cols);
        #[allow(clippy::needless_range_loop)] // multi-array indexed math reads clearer
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &s) in row.iter().enumerate() {
                data.push(2.0 * s - psi_src[i] - psi_dst[j]);
            }
        }
        SimilarityMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Source `i`'s most similar target (the dense row's argmax), as greedy
    /// inference reads it.
    fn best(m: &SimilarityMatrix, i: usize) -> Option<usize> {
        TopKMatrix::from_matrix(m, 1).best(i).map(|(j, _)| j)
    }

    fn embeddings() -> (Vec<f32>, Vec<f32>) {
        // Three 2-d source points, three targets that mirror them.
        let src = vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let dst = vec![1.0, 0.1, 0.1, 1.0, 0.9, 1.1];
        (src, dst)
    }

    #[test]
    fn compute_matches_direct_metric() {
        let (src, dst) = embeddings();
        for metric in Metric::ALL {
            let m = SimilarityMatrix::compute(&src, &dst, 2, metric, 2);
            assert_eq!(m.rows(), 3);
            assert_eq!(m.cols(), 3);
            for i in 0..3 {
                for j in 0..3 {
                    let expect = metric.similarity(&src[i * 2..i * 2 + 2], &dst[j * 2..j * 2 + 2]);
                    assert_eq!(m.get(i, j), expect, "{} ({i},{j})", metric.label());
                }
            }
        }
    }

    #[test]
    fn tiled_equals_naive_bitwise() {
        let src: Vec<f32> = (0..40).map(|x| (x as f32).sin()).collect();
        let dst: Vec<f32> = (0..36).map(|x| (x as f32).cos()).collect();
        for metric in Metric::ALL {
            let naive = SimilarityMatrix::compute_naive(&src, &dst, 4, metric, 1);
            for tile in [1, 3, 64] {
                let tiled = SimilarityMatrix::compute_tiled(&src, &dst, 4, metric, 2, tile);
                assert_eq!(naive.data, tiled.data, "{} tile={tile}", metric.label());
            }
        }
    }

    #[test]
    fn multithreaded_equals_singlethreaded() {
        let src: Vec<f32> = (0..40).map(|x| (x as f32).sin()).collect();
        let dst: Vec<f32> = (0..36).map(|x| (x as f32).cos()).collect();
        let a = SimilarityMatrix::compute(&src, &dst, 4, Metric::Cosine, 1);
        for threads in [2, 4, 8] {
            let b = SimilarityMatrix::compute(&src, &dst, 4, Metric::Cosine, threads);
            assert_eq!(a.data, b.data, "threads={threads}");
        }
    }

    #[test]
    fn empty_inputs_yield_empty_matrix() {
        let some: Vec<f32> = vec![1.0, 0.0, 0.0, 1.0];
        for threads in [1, 4] {
            // 0×N: no sources.
            let m = SimilarityMatrix::compute(&[], &some, 2, Metric::Cosine, threads);
            assert_eq!((m.rows(), m.cols()), (0, 2));
            assert!(m.data.is_empty());
            // N×0: no targets.
            let m = SimilarityMatrix::compute(&some, &[], 2, Metric::Cosine, threads);
            assert_eq!((m.rows(), m.cols()), (2, 0));
            assert!(m.data.is_empty());
            assert_eq!(m.topk_row(0, 3), vec![]);
            assert_eq!(best(&m, 0), None);
            // 0×0: nothing at all.
            let m = SimilarityMatrix::compute(&[], &[], 2, Metric::Cosine, threads);
            assert_eq!((m.rows(), m.cols()), (0, 0));
            assert!(m.data.is_empty());
        }
    }

    #[test]
    fn argmax_and_rank() {
        let (src, dst) = embeddings();
        let m = SimilarityMatrix::compute(&src, &dst, 2, Metric::Cosine, 1);
        assert_eq!(best(&m, 0), Some(0));
        assert_eq!(best(&m, 1), Some(1));
        assert_eq!(best(&m, 2), Some(2));
        assert_eq!(m.rank_of(0, 0), 1);
        assert!(m.rank_of(0, 1) > 1);
    }

    #[test]
    fn argmax_ties_break_toward_lowest_index() {
        let m = SimilarityMatrix::from_raw(1, 4, vec![0.3, 0.9, 0.9, 0.1]);
        for k in [1, 4] {
            assert_eq!(TopKMatrix::from_matrix(&m, k).best(0), Some((1, 0.9)));
        }
    }

    #[test]
    fn topk_is_sorted_descending() {
        let m = SimilarityMatrix::from_raw(1, 5, vec![0.1, 0.9, 0.5, 0.7, 0.3]);
        let top = m.topk_row(0, 3);
        assert_eq!(
            top.iter().map(|&(j, _)| j).collect::<Vec<_>>(),
            vec![1, 3, 2]
        );
        let all = m.topk_row(0, 10);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn topk_ties_are_stable() {
        let m = SimilarityMatrix::from_raw(1, 5, vec![0.5, 0.9, 0.5, 0.9, 0.5]);
        let top = m.topk_row(0, 4);
        assert_eq!(
            top.iter().map(|&(j, _)| j).collect::<Vec<_>>(),
            vec![1, 3, 0, 2]
        );
    }

    #[test]
    fn csls_penalizes_hubs() {
        // Target 0 is a hub: nearly top for every source, narrowly beating
        // the true counterparts of sources 1 and 2.
        let m = SimilarityMatrix::from_raw(
            3,
            3,
            vec![
                0.9, 0.2, 0.1, // source 0: hub is the true match
                0.9, 0.85, 0.1, // source 1: true match is target 1
                0.9, 0.1, 0.85, // source 2: true match is target 2
            ],
        );
        assert_eq!(best(&m, 1), Some(0));
        assert_eq!(best(&m, 2), Some(0));
        let c = m.csls(2);
        // CSLS penalizes the hub globally: sources 1 and 2 flip to their
        // true matches, source 0 keeps the hub.
        assert_eq!(best(&c, 0), Some(0), "csls row0 = {:?}", c.row(0));
        assert_eq!(best(&c, 1), Some(1), "csls row1 = {:?}", c.row(1));
        assert_eq!(best(&c, 2), Some(2), "csls row2 = {:?}", c.row(2));
    }

    #[test]
    fn csls_preserves_clear_matches() {
        let (src, dst) = embeddings();
        let m = SimilarityMatrix::compute(&src, &dst, 2, Metric::Cosine, 1);
        let c = m.csls(2);
        for i in 0..3 {
            assert_eq!(best(&c, i), Some(i));
        }
    }

    #[test]
    fn rank_handles_ties_pessimistically() {
        let m = SimilarityMatrix::from_raw(1, 3, vec![0.5, 0.5, 0.1]);
        assert_eq!(m.rank_of(0, 0), 2);
        assert_eq!(m.rank_of(0, 1), 2);
    }
}
