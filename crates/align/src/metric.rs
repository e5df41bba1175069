//! Distance metrics, expressed as similarities (higher = more alike) so that
//! every inference strategy can maximize uniformly.

use openea_math::kernel::{self, Fold};
use openea_math::vecops;

/// The distance metrics used across the 23 surveyed approaches (Table 1),
/// as similarity functions, plus the raw inner product (the un-normalized
/// score several neural approaches rank by).
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub enum Metric {
    /// Cosine similarity. Defined as 0 when either vector is zero (a zero
    /// embedding has no direction; returning NaN here would silently poison
    /// Hits@k downstream).
    Cosine,
    /// Raw inner product (dot product).
    Inner,
    /// Negated Euclidean distance.
    Euclidean,
    /// Negated Manhattan distance.
    Manhattan,
}

impl Metric {
    /// Every metric, in a fixed order — for test matrices and benches.
    pub const ALL: [Metric; 4] = [
        Metric::Cosine,
        Metric::Inner,
        Metric::Euclidean,
        Metric::Manhattan,
    ];

    /// Similarity between two vectors; higher means more similar.
    #[inline]
    pub fn similarity(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::Cosine => vecops::cosine(a, b),
            Metric::Inner => vecops::dot(a, b),
            Metric::Euclidean => -vecops::euclidean(a, b),
            Metric::Manhattan => -vecops::manhattan(a, b),
        }
    }

    /// Whether the tiled kernels need precomputed row norms for this metric.
    #[inline]
    pub fn needs_norms(self) -> bool {
        matches!(self, Metric::Cosine)
    }

    /// Per-row L2 norms of a row-major `n × dim` buffer when this metric
    /// needs them ([`Metric::needs_norms`]); empty otherwise.
    pub fn row_norms(self, data: &[f32], dim: usize) -> Vec<f32> {
        if self.needs_norms() {
            vecops::row_norms(data, dim)
        } else {
            Vec::new()
        }
    }

    /// Similarities of the `a.len() / dim` row-major source rows of `a`
    /// against one *dimension-major* tile of targets
    /// ([`vecops::transpose_tile`] layout): `out[r * stride + j]` for every
    /// row `r` and tile column `j`, with `stride ≥` the tile width so a
    /// caller can write straight into the rows of a wider matrix.
    ///
    /// `a_norms` (one per source row) and `tile_norms` (one per column) are
    /// the norms from [`Metric::row_norms`], read only when
    /// [`Metric::needs_norms`]. Each output is bit-identical to
    /// [`Metric::similarity`] on the same pair: the kernel folds every pair
    /// sequentially in the embedding dimension on every backend, and the
    /// per-metric finish here is the same expression as the scalar one.
    #[allow(clippy::too_many_arguments)] // two operands with norms, one strided output
    pub fn similarity_tile(
        self,
        a: &[f32],
        a_norms: &[f32],
        dim: usize,
        tile_t: &[f32],
        tile_norms: &[f32],
        out: &mut [f32],
        stride: usize,
    ) {
        let (rows, cols) = (a.len() / dim, tile_t.len() / dim);
        if rows == 0 || cols == 0 {
            return;
        }
        let fold = match self {
            Metric::Cosine | Metric::Inner => Fold::Dot,
            Metric::Euclidean => Fold::SqDist,
            Metric::Manhattan => Fold::AbsDist,
        };
        kernel::score_tile(fold, a, rows, tile_t, cols, out, stride);
        for (r, row) in out.chunks_mut(stride).take(rows).enumerate() {
            let row = &mut row[..cols];
            match self {
                Metric::Inner => {}
                Metric::Cosine => {
                    let na = a_norms[r];
                    for (v, &nb) in row.iter_mut().zip(tile_norms) {
                        *v = if na == 0.0 || nb == 0.0 {
                            0.0
                        } else {
                            (*v / (na * nb)).clamp(-1.0, 1.0)
                        };
                    }
                }
                // `sqrt` is correctly rounded, so a scalar pass keeps the bits.
                Metric::Euclidean => row.iter_mut().for_each(|v| *v = -v.sqrt()),
                Metric::Manhattan => row.iter_mut().for_each(|v| *v = -*v),
            }
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Metric::Cosine => "cosine",
            Metric::Inner => "inner",
            Metric::Euclidean => "euclidean",
            Metric::Manhattan => "manhattan",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_maximize_each_metric() {
        let v = [0.5f32, -1.0, 2.0];
        let w = [0.4f32, -0.9, 1.5];
        for m in [Metric::Cosine, Metric::Euclidean, Metric::Manhattan] {
            assert!(
                m.similarity(&v, &v) >= m.similarity(&v, &w),
                "{}",
                m.label()
            );
        }
    }

    #[test]
    fn euclidean_and_manhattan_are_nonpositive() {
        let v = [1.0f32, 2.0];
        let w = [3.0f32, 0.0];
        assert!(Metric::Euclidean.similarity(&v, &w) < 0.0);
        assert!(Metric::Manhattan.similarity(&v, &w) < 0.0);
        assert_eq!(Metric::Euclidean.similarity(&v, &v), 0.0);
    }

    #[test]
    fn cosine_ignores_scale() {
        let v = [1.0f32, 2.0, 3.0];
        let w = [2.0f32, 4.0, 6.0];
        assert!((Metric::Cosine.similarity(&v, &w) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn inner_is_the_raw_dot_product() {
        let v = [1.0f32, 2.0, 3.0];
        let w = [2.0f32, -1.0, 0.5];
        assert_eq!(Metric::Inner.similarity(&v, &w), 2.0 - 2.0 + 1.5);
    }

    /// Regression: cosine on a zero vector is 0.0, never NaN — a NaN here
    /// would propagate through the similarity matrix into Hits@k.
    #[test]
    fn cosine_of_zero_vector_is_zero_not_nan() {
        let zero = [0.0f32, 0.0, 0.0];
        let v = [1.0f32, -2.0, 0.5];
        assert_eq!(Metric::Cosine.similarity(&zero, &v), 0.0);
        assert_eq!(Metric::Cosine.similarity(&v, &zero), 0.0);
        assert_eq!(Metric::Cosine.similarity(&zero, &zero), 0.0);
        // And the block method agrees, for a zero source row and a zero
        // tile column alike (a one-row tile is its own transpose).
        let mut out = [f32::NAN];
        Metric::Cosine.similarity_tile(&v, &[vecops::norm2(&v)], 3, &zero, &[0.0], &mut out, 1);
        assert_eq!(out[0], 0.0);
        out[0] = f32::NAN;
        Metric::Cosine.similarity_tile(&zero, &[0.0], 3, &v, &[vecops::norm2(&v)], &mut out, 1);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn all_lists_every_metric_once() {
        assert_eq!(Metric::ALL.len(), 4);
        for (i, a) in Metric::ALL.iter().enumerate() {
            for b in &Metric::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn block_dispatch_matches_similarity() {
        // 0..=9 source rows (empty, below a panel, exact panels, panels plus
        // a remainder; row 2 all-zero) against 11 targets (target 3
        // all-zero), written at a stride wider than the tile.
        let (dim, cols, stride) = (4, 11, 13);
        let mut src: Vec<f32> = (0..9 * dim).map(|x| ((x * 7 % 5) as f32) - 2.0).collect();
        src[2 * dim..3 * dim].fill(0.0);
        let mut tile: Vec<f32> = (0..cols * dim).map(|x| (x as f32 * 0.37).sin()).collect();
        tile[3 * dim..4 * dim].fill(0.0);
        let mut tile_t = Vec::new();
        vecops::transpose_tile(&tile, dim, &mut tile_t);
        for m in Metric::ALL {
            let tile_norms = m.row_norms(&tile, dim);
            for rows in 0..=9 {
                let a = &src[..rows * dim];
                let mut out = vec![f32::NAN; rows * stride];
                m.similarity_tile(
                    a,
                    &m.row_norms(a, dim),
                    dim,
                    &tile_t,
                    &tile_norms,
                    &mut out,
                    stride,
                );
                for (r, got) in out.chunks_exact(stride).enumerate() {
                    for (j, b) in tile.chunks_exact(dim).enumerate() {
                        let want = m.similarity(&a[r * dim..(r + 1) * dim], b);
                        assert_eq!(
                            got[j].to_bits(),
                            want.to_bits(),
                            "{} rows {rows} ({r},{j})",
                            m.label()
                        );
                    }
                    assert!(got[cols..].iter().all(|g| g.is_nan()), "gap overwritten");
                }
            }
        }
    }
}
