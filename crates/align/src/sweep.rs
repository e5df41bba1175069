//! The one tiled all-pairs sweep under [`SimilarityMatrix`], [`TopKMatrix`]
//! and [`rank_eval_streaming`].
//!
//! [`tiles`] owns everything the three share: the row norms, the chunking
//! of source rows over the pool, the ascending column-tile loop, the one
//! transpose per (chunk, tile) and the norm slicing. What a consumer does
//! with the scores is the only thing it decides: one that *stores* them
//! has them written straight into its own rows, one that *reduces* them
//! goes through [`reduce`], which scores a few rows at a time into a small
//! scratch and hands each row's slice over while it is still in cache.
//!
//! Chunk boundaries depend only on the row count, every score is a pure
//! function of its pair, and tiles advance left to right, so what any
//! consumer computes is invariant to thread count and tile size.
//!
//! [`SimilarityMatrix`]: crate::simmat::SimilarityMatrix
//! [`TopKMatrix`]: crate::topk::TopKMatrix
//! [`rank_eval_streaming`]: crate::eval::rank_eval_streaming

use crate::metric::Metric;
use openea_math::{kernel::PANEL_ROWS, vecops};
use openea_runtime::pool::{balanced_chunk_len, parallel_chunks};
use std::ops::Range;

/// Scores the given rows of the visited chunk (chunk-local indices) against
/// the visited tile into a buffer at the given row stride.
pub(crate) type Score<'a> = &'a dyn Fn(Range<usize>, &mut [f32], usize);

/// `norms[r]`, or nothing for a metric that keeps no norms.
fn norms_of(norms: &[f32], r: Range<usize>) -> &[f32] {
    if norms.is_empty() {
        norms
    } else {
        &norms[r]
    }
}

/// Sweeps `src` (`rows × dim`) against `dst` (`cols × dim`) under `metric`.
/// `out` holds a fixed number of elements per source row and is split at
/// row granularity over up to `threads` workers — several chunks per
/// worker, so the pool's stealing absorbs per-row cost skew. Within a chunk
/// the column tile is the outer loop: one tile of targets stays hot in
/// cache while every row of the chunk streams against it, and it is
/// transposed once for all of them.
///
/// `visit(rows, cols, out_chunk, score, scratch)` runs once per (chunk,
/// tile) with the chunk's source rows and the tile's target columns as
/// global ranges, the chunk's part of `out`, the [`Score`] for exactly that
/// pair of ranges, and a buffer that lives as long as the chunk does.
#[allow(clippy::too_many_arguments)] // two operands, how to split them, where the results go
pub(crate) fn tiles<T: Send>(
    src: &[f32],
    dst: &[f32],
    dim: usize,
    metric: Metric,
    threads: usize,
    tile: usize,
    out: &mut [T],
    visit: impl Fn(Range<usize>, Range<usize>, &mut [T], Score<'_>, &mut Vec<f32>) + Sync,
) {
    assert!(dim > 0, "dim must be positive");
    assert!(tile > 0, "tile must be positive");
    assert_eq!(src.len() % dim, 0);
    assert_eq!(dst.len() % dim, 0);
    let (rows, cols) = (src.len() / dim, dst.len() / dim);
    if out.is_empty() || cols == 0 {
        return;
    }
    let per_row = out.len() / rows;
    let threads = threads.clamp(1, rows);
    let src_norms = metric.row_norms(src, dim);
    let dst_norms = metric.row_norms(dst, dim);
    let chunk_rows = balanced_chunk_len(rows, threads, 4);
    parallel_chunks(
        out,
        chunk_rows * per_row,
        threads,
        |chunk_idx, out_chunk| {
            let row0 = chunk_idx * chunk_rows;
            let chunk = row0..row0 + out_chunk.len() / per_row;
            let a = &src[chunk.start * dim..chunk.end * dim];
            let a_norms = norms_of(&src_norms, chunk.clone());
            let mut tile_t = Vec::new();
            let mut scratch = Vec::new();
            let mut j0 = 0;
            while j0 < cols {
                let j1 = (j0 + tile).min(cols);
                vecops::transpose_tile(&dst[j0 * dim..j1 * dim], dim, &mut tile_t);
                let tile_norms = norms_of(&dst_norms, j0..j1);
                let score = |r: Range<usize>, out: &mut [f32], stride: usize| {
                    let rows = &a[r.start * dim..r.end * dim];
                    let norms = norms_of(a_norms, r);
                    metric.similarity_tile(rows, norms, dim, &tile_t, tile_norms, out, stride);
                };
                visit(chunk.clone(), j0..j1, out_chunk, &score, &mut scratch);
                j0 = j1;
            }
        },
    );
}

/// [`tiles`] for a consumer that keeps a summary of each row's scores and
/// not the scores: `consume(row, j0, scores, out_row)` sees, for every
/// source row, the scores of columns `j0..j0 + scores.len()` — tile after
/// tile in ascending column order — beside that row's part of `out`. The
/// scratch holds one register panel of rows by one tile, so transient
/// memory per worker does not grow with either side.
#[allow(clippy::too_many_arguments)] // as `tiles`
pub(crate) fn reduce<T: Send>(
    src: &[f32],
    dst: &[f32],
    dim: usize,
    metric: Metric,
    threads: usize,
    tile: usize,
    out: &mut [T],
    consume: impl Fn(usize, usize, &[f32], &mut [T]) + Sync,
) {
    tiles(
        src,
        dst,
        dim,
        metric,
        threads,
        tile,
        out,
        |rows, cols, out_chunk, score, scratch| {
            let (width, per_row) = (cols.len(), out_chunk.len() / rows.len());
            scratch.resize(PANEL_ROWS * width, 0.0);
            for g in (0..rows.len()).step_by(PANEL_ROWS) {
                let g1 = (g + PANEL_ROWS).min(rows.len());
                score(g..g1, scratch, width);
                for r in g..g1 {
                    let scores = &scratch[(r - g) * width..][..width];
                    let out_row = &mut out_chunk[r * per_row..][..per_row];
                    consume(rows.start + r, cols.start, scores, out_row);
                }
            }
        },
    );
}
