//! Dense `f32` vector kernels.
//!
//! These are the innermost loops of both training (energy gradients) and
//! inference (similarity search over all candidate entities), so they take
//! plain slices and avoid allocation.

/// Dot product. Panics in debug builds if lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean norm.
#[inline]
pub fn norm2_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f32]) -> f32 {
    norm2_sq(a).sqrt()
}

/// Manhattan (L1) norm.
#[inline]
pub fn norm1(a: &[f32]) -> f32 {
    a.iter().map(|x| x.abs()).sum()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `a *= s`.
#[inline]
pub fn scale(a: &mut [f32], s: f32) {
    for x in a {
        *x *= s;
    }
}

/// Normalizes `a` to unit L2 norm in place; leaves zero vectors untouched.
#[inline]
pub fn normalize(a: &mut [f32]) {
    let n = norm2(a);
    if n > 0.0 {
        scale(a, 1.0 / n);
    }
}

/// Squared Euclidean distance.
#[inline]
pub fn euclidean_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance.
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    euclidean_sq(a, b).sqrt()
}

/// Manhattan distance.
#[inline]
pub fn manhattan(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Cosine similarity in `[-1, 1]`; 0 if either vector is zero.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm2(a);
    let nb = norm2(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Per-row L2 norms of a row-major `n × dim` buffer.
pub fn row_norms(data: &[f32], dim: usize) -> Vec<f32> {
    assert!(dim > 0, "dim must be positive");
    debug_assert_eq!(data.len() % dim, 0);
    data.chunks_exact(dim).map(norm2).collect()
}

/// Four dot products of `a` against four tile rows at once. Each column's
/// accumulator is folded in the same sequential `d` order as [`dot`] (bit
/// identity per pair); the four independent chains exist purely to break the
/// add-latency dependency that bounds a single serial accumulator. The
/// accumulators seed with `-0.0` — the IEEE additive identity `f32::sum`
/// folds from — so an all-negative-zero product chain stays `-0.0` on every
/// path instead of flipping sign bit between kernels.
#[inline]
fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    // Re-slice to a common length so the indexed loop compiles without
    // per-element bounds checks.
    let n = a.len();
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    let (mut s0, mut s1, mut s2, mut s3) = (-0.0f32, -0.0f32, -0.0f32, -0.0f32);
    for (d, &x) in a.iter().enumerate() {
        s0 += x * b0[d];
        s1 += x * b1[d];
        s2 += x * b2[d];
        s3 += x * b3[d];
    }
    [s0, s1, s2, s3]
}

/// Splits a `4 × dim` chunk into its four rows.
#[inline]
fn quad_rows(quad: &[f32], dim: usize) -> (&[f32], &[f32], &[f32], &[f32]) {
    let (b0, rest) = quad.split_at(dim);
    let (b1, rest) = rest.split_at(dim);
    let (b2, b3) = rest.split_at(dim);
    (b0, b1, b2, b3)
}

/// `out[j] = dot(a, tile_j)` for each `dim`-sized row `tile_j` of a
/// row-major `tile`, bit-identical to [`dot`] per pair. The portable
/// reference the repository benchmark times; similarity sweeps go through
/// [`crate::kernel::score_tile`] over a [`transpose_tile`]d tile.
#[inline]
pub fn inner_block(a: &[f32], tile: &[f32], dim: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), dim);
    debug_assert_eq!(tile.len(), out.len() * dim);
    let mut quads = tile.chunks_exact(4 * dim);
    let mut j = 0;
    for quad in &mut quads {
        let (b0, b1, b2, b3) = quad_rows(quad, dim);
        out[j..j + 4].copy_from_slice(&dot4(a, b0, b1, b2, b3));
        j += 4;
    }
    for b in quads.remainder().chunks_exact(dim) {
        out[j] = dot(a, b);
        j += 1;
    }
}

/// Transposes a row-major `rows × dim` tile into `out` (dimension-major:
/// `out[d * rows + j] = tile[j * dim + d]`), reusing `out`'s allocation.
pub fn transpose_tile(tile: &[f32], dim: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(tile.len() % dim, 0);
    let rows = tile.len() / dim;
    out.clear();
    out.resize(tile.len(), 0.0);
    for (j, b) in tile.chunks_exact(dim).enumerate() {
        for (d, &v) in b.iter().enumerate() {
            out[d * rows + j] = v;
        }
    }
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{score_tile, Fold};
    use openea_runtime::testkit::prelude::*;

    #[test]
    fn basic_kernels() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, -5.0, 6.0];
        assert_eq!(dot(&a, &b), 4.0 - 10.0 + 18.0);
        assert_eq!(norm1(&b), 15.0);
        assert!((norm2(&a) - 14f32.sqrt()).abs() < 1e-6);
        assert!((euclidean(&a, &b) - ((9.0f32 + 49.0 + 9.0).sqrt())).abs() < 1e-6);
        assert_eq!(manhattan(&a, &b), 3.0 + 7.0 + 3.0);
    }

    #[test]
    fn axpy_and_scale() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 21.0]);
        scale(&mut y, 2.0);
        assert_eq!(y, [21.0, 42.0]);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        assert!((cosine(&[1.0, 0.0], &[5.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 3.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-2.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn normalize_handles_zero() {
        let mut z = [0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, [0.0, 0.0]);
        let mut v = [3.0, 4.0];
        normalize(&mut v);
        assert!((norm2(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(100.0) > 0.999999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(-1000.0).is_finite());
        assert!(sigmoid(1000.0).is_finite());
    }

    /// One source row against a dimension-major tile under `fold`.
    fn score_row(fold: Fold, a: &[f32], tile_t: &[f32], out: &mut [f32]) {
        score_tile(fold, a, 1, tile_t, out.len(), out, out.len());
    }

    #[test]
    fn block_kernels_match_scalar_kernels() {
        // 6 rows: one full quad plus a 2-row remainder, covering both paths
        // of the row-major block; the dimension-major entry folds the same.
        let dim = 3;
        let a = [0.5f32, -1.0, 2.0];
        let tile: Vec<f32> = (0..6 * dim).map(|x| (x as f32).sin()).collect();
        let mut tile_t = Vec::new();
        transpose_tile(&tile, dim, &mut tile_t);
        let mut out = [0.0f32; 6];
        inner_block(&a, &tile, dim, &mut out);
        for (j, b) in tile.chunks_exact(dim).enumerate() {
            assert_eq!(out[j], dot(&a, b));
        }
        score_row(Fold::Dot, &a, &tile_t, &mut out);
        for (j, b) in tile.chunks_exact(dim).enumerate() {
            assert_eq!(out[j], dot(&a, b));
        }
        score_row(Fold::SqDist, &a, &tile_t, &mut out);
        for (j, b) in tile.chunks_exact(dim).enumerate() {
            assert_eq!(out[j], euclidean_sq(&a, b));
        }
        score_row(Fold::AbsDist, &a, &tile_t, &mut out);
        for (j, b) in tile.chunks_exact(dim).enumerate() {
            assert_eq!(out[j], manhattan(&a, b));
        }
    }

    #[test]
    fn transposed_block_kernels_match_scalar_kernels() {
        // 6 rows at dim 3: the transposed layout, and each metric's finish
        // over the entry's fold against its scalar reference.
        let dim = 3;
        let a = [0.5f32, -1.0, 2.0];
        let tile: Vec<f32> = (0..6 * dim).map(|x| (x as f32).sin()).collect();
        let norms = row_norms(&tile, dim);
        let mut tile_t = Vec::new();
        transpose_tile(&tile, dim, &mut tile_t);
        assert_eq!(tile_t[2], tile[2 * dim]); // spot-check layout: dim 0, row 2
        let mut out = [0.0f32; 6];
        score_row(Fold::Dot, &a, &tile_t, &mut out);
        for (j, b) in tile.chunks_exact(dim).enumerate() {
            let c = (out[j] / (norm2(&a) * norms[j])).clamp(-1.0, 1.0);
            assert_eq!(c, cosine(&a, b));
        }
        score_row(Fold::SqDist, &a, &tile_t, &mut out);
        for (j, b) in tile.chunks_exact(dim).enumerate() {
            assert_eq!(-out[j].sqrt(), -euclidean(&a, b));
        }
        score_row(Fold::AbsDist, &a, &tile_t, &mut out);
        for (j, b) in tile.chunks_exact(dim).enumerate() {
            assert_eq!(-out[j], -manhattan(&a, b));
        }
    }

    #[test]
    fn panel_kernels_match_single_row_kernels() {
        // 0..=9 source rows (one of them all-zero) against 11 tile rows:
        // whole panels, panels plus a remainder and no panel at all must
        // each give the bits of one row at a time.
        let dim = 5;
        let cols = 11;
        let mut a: Vec<f32> = (0..9 * dim).map(|x| (x as f32 * 0.7).cos()).collect();
        a[2 * dim..3 * dim].fill(0.0);
        let tile: Vec<f32> = (0..cols * dim).map(|x| (x as f32).sin()).collect();
        let mut tile_t = Vec::new();
        transpose_tile(&tile, dim, &mut tile_t);
        let mut single = vec![0.0f32; cols];
        for fold in [Fold::Dot, Fold::SqDist, Fold::AbsDist] {
            for rows in 0..=9 {
                let mut p = vec![0.0f32; rows * cols];
                score_tile(fold, &a[..rows * dim], rows, &tile_t, cols, &mut p, cols);
                for r in 0..rows {
                    score_row(fold, &a[r * dim..(r + 1) * dim], &tile_t, &mut single);
                    for j in 0..cols {
                        assert_eq!(
                            p[r * cols + j].to_bits(),
                            single[j].to_bits(),
                            "{fold:?} rows {rows} row {r} col {j}"
                        );
                    }
                }
            }
        }
    }

    /// What a cosine sweep is assembled from — hoisted norms, a raw dot
    /// block, the `(s / (na·nb)).clamp(-1, 1)` finish — against [`cosine`].
    /// A zero vector's hoisted norm must read exactly `0.0`: that is the
    /// test the finish makes before it divides.
    fn assert_cosine_pieces(a: &[f32], tile: &[f32], norms: &[f32], dots: &[f32]) {
        let na = norm2(a);
        for (j, b) in tile.chunks_exact(a.len()).enumerate() {
            let got = if na == 0.0 || norms[j] == 0.0 {
                0.0
            } else {
                (dots[j] / (na * norms[j])).clamp(-1.0, 1.0)
            };
            assert_eq!(got.to_bits(), cosine(a, b).to_bits(), "col {j}");
        }
    }

    #[test]
    fn cosine_over_a_transposed_tile_handles_zero_vectors() {
        let dim = 2;
        let tile = [1.0f32, 2.0, 0.0, 0.0];
        let norms = row_norms(&tile, dim);
        assert_eq!(norms[1].to_bits(), 0.0f32.to_bits());
        let mut tile_t = Vec::new();
        transpose_tile(&tile, dim, &mut tile_t);
        let mut dots = [9.0f32; 2];
        for a in [[0.0f32, 0.0], [1.0, 1.0]] {
            score_row(Fold::Dot, &a, &tile_t, &mut dots);
            assert_cosine_pieces(&a, &tile, &norms, &dots);
        }
    }

    #[test]
    fn cosine_over_a_row_major_tile_handles_zero_vectors() {
        let dim = 2;
        let tile = [1.0f32, 2.0, 0.0, 0.0];
        let norms = row_norms(&tile, dim);
        let mut dots = [9.0f32; 2];
        for a in [[0.0f32, 0.0], [1.0, 1.0]] {
            inner_block(&a, &tile, dim, &mut dots);
            assert_cosine_pieces(&a, &tile, &norms, &dots);
        }
    }

    #[test]
    fn row_norms_per_row() {
        let data = [3.0f32, 4.0, 0.0, 0.0];
        assert_eq!(row_norms(&data, 2), vec![5.0, 0.0]);
        assert_eq!(row_norms(&[], 2), Vec::<f32>::new());
    }

    #[test]
    fn inner_kernels_agree_on_negative_zero() {
        // dot(-1, 0) = -0.0: every inner-product path must fold from the
        // same -0.0 identity `f32::sum` uses, or the scalar / row-major /
        // dimension-major kernels disagree in the sign bit.
        let a = [-1.0f32];
        let tile = [0.0f32];
        let want = dot(&a, &tile).to_bits();
        assert_eq!(want, (-0.0f32).to_bits());
        let mut out = [9.0f32];
        inner_block(&a, &tile, 1, &mut out);
        assert_eq!(out[0].to_bits(), want, "row-major remainder path");
        // A 5-row tile exercises both the dot4 quad path and the remainder.
        let tile5 = [0.0f32; 5];
        let mut out5 = [9.0f32; 5];
        inner_block(&a, &tile5, 1, &mut out5);
        let mut t5 = Vec::new();
        transpose_tile(&tile5, 1, &mut t5);
        let mut out5t = [9.0f32; 5];
        score_row(Fold::Dot, &a, &t5, &mut out5t);
        for j in 0..5 {
            assert_eq!(out5[j].to_bits(), want, "quad path col {j}");
            assert_eq!(out5t[j].to_bits(), want, "transposed path col {j}");
        }
    }

    props! {
        #[test]
        fn cosine_is_bounded(a in vec_of(-10f32..10.0, 4), b in vec_of(-10f32..10.0, 4)) {
            let c = cosine(&a, &b);
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        #[test]
        fn triangle_inequality_euclidean(
            a in vec_of(-5f32..5.0, 3),
            b in vec_of(-5f32..5.0, 3),
            c in vec_of(-5f32..5.0, 3),
        ) {
            prop_assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-4);
        }

        #[test]
        fn normalize_gives_unit_norm(mut a in vec_of(-10f32..10.0, 5)) {
            prop_assume!(norm2(&a) > 1e-3);
            normalize(&mut a);
            prop_assert!((norm2(&a) - 1.0).abs() < 1e-4);
        }
    }
}
