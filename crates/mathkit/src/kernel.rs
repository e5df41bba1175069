//! Register-blocked SIMD microkernels, dispatched on the one ISA switch.
//!
//! This module owns the innermost loop of every similarity sweep:
//! [`score_tile`] scores any number of source rows against one tile stored
//! dimension-major (`tile_t[d * cols + j]`), with the embedding dimension
//! `d` as the outer loop. Each output column keeps its own accumulator that
//! folds **sequentially in `d`** — the same op sequence at every vector
//! width — so the scalar and AVX2 backends are *bit-identical* to each
//! other and to the naive per-pair kernels (`dot`, `euclidean`,
//! `manhattan`). Vectorizing across columns instead of across `d` is what
//! makes that possible: no horizontal reduction, no reassociation, no FMA
//! (fused rounding would differ from `mul` + `add`).
//!
//! Float-order contract per [`Fold`]:
//! - inner product: seeds from `-0.0` (the IEEE additive identity
//!   `f32::sum` folds from), `acc + x*b` per step;
//! - squared Euclidean: seeds from `+0.0`, `acc + (x-b)*(x-b)` per step;
//! - Manhattan: seeds from `+0.0`, `acc + |x-b|` per step, where `|v|` is a
//!   sign-bit clear (`f32::abs`) on every backend.
//!
//! Register geometry: the single-row kernel blocks four vectors of columns
//! per `d`-pass (32 f32 lanes at AVX2); the [`PANEL_ROWS`]-row panel kernel
//! blocks 4 rows × 2 vectors = 8 wide-register accumulators, so each tile
//! lane load is amortized over four source rows. Remainders fall through to
//! narrower vector loops and finally a scalar tail with the identical fold.
//! [`score_tile`] alone decides which rows go through which.
//!
//! Dispatch: [`score_tile`] matches on [`active_backend`], the runtime's
//! one ISA switch ([`openea_runtime::isa`], re-exported here), which the
//! Gaussian lanes read too: the AVX2 body at `Avx2` and at `Avx512` (the
//! AVX-512 rung is the Gaussian lanes'), the scalar body at `Scalar`.
//! [`force_backend`] re-points it — that is how the conformance suites run
//! every backend the host supports.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_andnot_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
    _mm256_storeu_ps, _mm256_sub_ps,
};

pub use openea_runtime::isa::{
    active_backend, best_supported, force_backend, supported_backends, Backend,
};

/// Source rows per register panel of [`score_tile`].
pub const PANEL_ROWS: usize = 4;

// --------------------------------------------------------------- SIMD lanes

/// A vector of `N` f32 lanes. All ops are lane-wise; `abs` clears the sign
/// bit exactly like `f32::abs`. Methods are `unsafe` because the wide impls
/// lower to ISA intrinsics: callers must only reach them through a frame
/// whose target features match (the `#[target_feature]` wrappers below).
trait Lanes: Copy {
    const N: usize;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    unsafe fn splat(x: f32) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn abs(self) -> Self;
}

impl Lanes for f32 {
    const N: usize = 1;
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        *p = self;
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        x
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        self.abs()
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for __m256 {
    const N: usize = 8;
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm256_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm256_storeu_ps(p, self)
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        _mm256_add_ps(self, o)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        _mm256_sub_ps(self, o)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        _mm256_mul_ps(self, o)
    }
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        _mm256_andnot_ps(_mm256_set1_ps(-0.0), self)
    }
}

// -------------------------------------------------------- accumulation ops

/// One fold step of a column accumulator. `SEED` is the additive identity
/// the chain starts from (part of the float-order contract above).
trait Accum {
    const SEED: f32;
    unsafe fn step<V: Lanes>(acc: V, x: V, b: V) -> V;
}

/// `acc + x*b`, seeded from `-0.0` like `f32::sum`.
struct DotA;
impl Accum for DotA {
    const SEED: f32 = -0.0;
    #[inline(always)]
    unsafe fn step<V: Lanes>(acc: V, x: V, b: V) -> V {
        acc.add(x.mul(b))
    }
}

/// `acc + (x-b)*(x-b)`, seeded from `+0.0`.
struct SqA;
impl Accum for SqA {
    const SEED: f32 = 0.0;
    #[inline(always)]
    unsafe fn step<V: Lanes>(acc: V, x: V, b: V) -> V {
        let t = x.sub(b);
        acc.add(t.mul(t))
    }
}

/// `acc + |x-b|`, seeded from `+0.0`.
struct AbsA;
impl Accum for AbsA {
    const SEED: f32 = 0.0;
    #[inline(always)]
    unsafe fn step<V: Lanes>(acc: V, x: V, b: V) -> V {
        acc.add(x.sub(b).abs())
    }
}

// --------------------------------------------------------- generic kernels

/// One source row against columns `[start, cols)` of a dimension-major
/// tile: a four-vector register block, then one vector at a time, then a
/// scalar tail — every column folds the identical op sequence in `d`.
///
/// Safety: `tile_t` must hold `a.len() * cols` f32s, `out` must be writable
/// for `cols`, and `V`'s ISA must be live in the calling frame.
#[inline(always)]
unsafe fn row_kernel<V: Lanes, A: Accum>(
    a: &[f32],
    tile_t: *const f32,
    cols: usize,
    start: usize,
    out: *mut f32,
) {
    let mut j = start;
    while j + 4 * V::N <= cols {
        let seed = V::splat(A::SEED);
        let (mut c0, mut c1, mut c2, mut c3) = (seed, seed, seed, seed);
        for (d, &x) in a.iter().enumerate() {
            let base = tile_t.add(d * cols + j);
            let xv = V::splat(x);
            c0 = A::step(c0, xv, V::load(base));
            c1 = A::step(c1, xv, V::load(base.add(V::N)));
            c2 = A::step(c2, xv, V::load(base.add(2 * V::N)));
            c3 = A::step(c3, xv, V::load(base.add(3 * V::N)));
        }
        c0.store(out.add(j));
        c1.store(out.add(j + V::N));
        c2.store(out.add(j + 2 * V::N));
        c3.store(out.add(j + 3 * V::N));
        j += 4 * V::N;
    }
    while j + V::N <= cols {
        let mut c = V::splat(A::SEED);
        for (d, &x) in a.iter().enumerate() {
            c = A::step(c, V::splat(x), V::load(tile_t.add(d * cols + j)));
        }
        c.store(out.add(j));
        j += V::N;
    }
    while j < cols {
        let mut c = A::SEED;
        for (d, &x) in a.iter().enumerate() {
            c = A::step(c, x, *tile_t.add(d * cols + j));
        }
        *out.add(j) = c;
        j += 1;
    }
}

/// Four source rows against a dimension-major tile: 4 rows × 2 vectors = 8
/// register accumulators, each tile lane load amortized over the four rows.
/// Column remainders fall through to [`row_kernel`] per row (same fold, so
/// still bit-identical).
///
/// Safety: `a` must hold `PANEL_ROWS * dim` f32s, `tile_t` must hold
/// `dim * cols`, each `out` pointer must be writable for `cols`, and `V`'s
/// ISA must be live in the calling frame.
#[inline(always)]
unsafe fn panel_kernel<V: Lanes, A: Accum>(
    a: *const f32,
    dim: usize,
    tile_t: *const f32,
    cols: usize,
    out: [*mut f32; PANEL_ROWS],
) {
    let (a0, a1, a2, a3) = (a, a.add(dim), a.add(2 * dim), a.add(3 * dim));
    let mut j = 0;
    while j + 2 * V::N <= cols {
        let seed = V::splat(A::SEED);
        let (mut c00, mut c01) = (seed, seed);
        let (mut c10, mut c11) = (seed, seed);
        let (mut c20, mut c21) = (seed, seed);
        let (mut c30, mut c31) = (seed, seed);
        for d in 0..dim {
            let base = tile_t.add(d * cols + j);
            let b0 = V::load(base);
            let b1 = V::load(base.add(V::N));
            let x0 = V::splat(*a0.add(d));
            c00 = A::step(c00, x0, b0);
            c01 = A::step(c01, x0, b1);
            let x1 = V::splat(*a1.add(d));
            c10 = A::step(c10, x1, b0);
            c11 = A::step(c11, x1, b1);
            let x2 = V::splat(*a2.add(d));
            c20 = A::step(c20, x2, b0);
            c21 = A::step(c21, x2, b1);
            let x3 = V::splat(*a3.add(d));
            c30 = A::step(c30, x3, b0);
            c31 = A::step(c31, x3, b1);
        }
        c00.store(out[0].add(j));
        c01.store(out[0].add(j + V::N));
        c10.store(out[1].add(j));
        c11.store(out[1].add(j + V::N));
        c20.store(out[2].add(j));
        c21.store(out[2].add(j + V::N));
        c30.store(out[3].add(j));
        c31.store(out[3].add(j + V::N));
        j += 2 * V::N;
    }
    if j < cols {
        for (r, &o) in out.iter().enumerate() {
            let row = std::slice::from_raw_parts(a.add(r * dim), dim);
            row_kernel::<V, A>(row, tile_t, cols, j, o);
        }
    }
}

// ------------------------------------------------------------ the one entry

/// The per-dimension fold of a column accumulator — which line of the
/// float-order contract above a sweep runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    /// `acc + x*b` from `-0.0`: bit-identical to `vecops::dot` per pair.
    Dot,
    /// `acc + (x-b)²` from `+0.0`: bit-identical to `vecops::euclidean_sq`.
    SqDist,
    /// `acc + |x-b|` from `+0.0`: bit-identical to `vecops::manhattan`.
    AbsDist,
}

/// All `rows` source rows against the tile on lanes `V`: whole panels of
/// [`PANEL_ROWS`] through [`panel_kernel`], the rest one row at a time
/// through [`row_kernel`] — the same fold either way, so the split never
/// shows in the output.
///
/// Safety: `rows > 0` must divide `a.len()`, `tile_t` must hold
/// `a.len() / rows * cols` f32s, `out` must be writable for
/// `(rows - 1) * stride + cols`, and `V`'s ISA must be live in the calling
/// frame.
#[inline(always)]
unsafe fn rows_kernel<V: Lanes, A: Accum>(
    a: &[f32],
    rows: usize,
    tile_t: *const f32,
    cols: usize,
    out: *mut f32,
    stride: usize,
) {
    let dim = a.len() / rows;
    let mut r = 0;
    while r + PANEL_ROWS <= rows {
        let o = out.add(r * stride);
        let panel = [o, o.add(stride), o.add(2 * stride), o.add(3 * stride)];
        panel_kernel::<V, A>(a.as_ptr().add(r * dim), dim, tile_t, cols, panel);
        r += PANEL_ROWS;
    }
    while r < rows {
        row_kernel::<V, A>(
            &a[r * dim..(r + 1) * dim],
            tile_t,
            cols,
            0,
            out.add(r * stride),
        );
        r += 1;
    }
}

/// [`rows_kernel`] under `fold`. Safety: as there.
#[inline(always)]
unsafe fn tile_kernel<V: Lanes>(
    fold: Fold,
    a: &[f32],
    rows: usize,
    tile_t: *const f32,
    cols: usize,
    out: *mut f32,
    stride: usize,
) {
    match fold {
        Fold::Dot => rows_kernel::<V, DotA>(a, rows, tile_t, cols, out, stride),
        Fold::SqDist => rows_kernel::<V, SqA>(a, rows, tile_t, cols, out, stride),
        Fold::AbsDist => rows_kernel::<V, AbsA>(a, rows, tile_t, cols, out, stride),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(
    fold: Fold,
    a: &[f32],
    rows: usize,
    tile_t: *const f32,
    cols: usize,
    out: *mut f32,
    stride: usize,
) {
    tile_kernel::<__m256>(fold, a, rows, tile_t, cols, out, stride)
}

/// Scores `rows` row-major source rows (`a`, `rows × dim`) against one
/// dimension-major tile (`tile_t[d * cols + j]`, `dim × cols`):
/// `out[r * stride + j]` is the `fold` of row `r` with column `j`, folded
/// sequentially in `d`. `stride ≥ cols` is the distance between output
/// rows, so a caller can write a tile's columns straight into a wider
/// matrix; whatever lies between one row's `cols` and the next row's start
/// is not touched. `dim` is `a.len() / rows` and may be 0 (every output is
/// the fold's seed); `rows == 0` or `cols == 0` writes nothing.
///
/// This is the only function that dispatches on [`active_backend`] and the
/// only one that knows [`PANEL_ROWS`]: callers pass as many rows as they
/// have.
pub fn score_tile(
    fold: Fold,
    a: &[f32],
    rows: usize,
    tile_t: &[f32],
    cols: usize,
    out: &mut [f32],
    stride: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert_eq!(a.len() % rows, 0, "source shape");
    assert_eq!(tile_t.len(), a.len() / rows * cols, "tile_t shape");
    assert!(stride >= cols, "row stride below the tile width");
    assert!(out.len() >= (rows - 1) * stride + cols, "out too short");
    let (t, o) = (tile_t.as_ptr(), out.as_mut_ptr());
    match active_backend() {
        // SAFETY: shapes asserted above.
        Backend::Scalar => unsafe { tile_kernel::<f32>(fold, a, rows, t, cols, o, stride) },
        // SAFETY: shapes asserted above; `Avx2` and `Avx512` are only
        // active where the host has AVX2. The AVX-512 rung runs the AVX2
        // tile: its lanes are the Gaussian draw's.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => unsafe { tile_avx2(fold, a, rows, t, cols, o, stride) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => unreachable!("x86 backends run on x86_64 only"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, salt: u32) -> Vec<f32> {
        // Deterministic mixed-magnitude data including exact zeros and
        // negatives; no RNG dependency needed at this layer.
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                ((x % 2001) as f32 - 1000.0) / 250.0
            })
            .collect()
    }

    fn transpose(tile: &[f32], dim: usize) -> Vec<f32> {
        let rows = tile.len() / dim;
        let mut out = vec![0.0; tile.len()];
        for (j, row) in tile.chunks_exact(dim).enumerate() {
            for (d, &v) in row.iter().enumerate() {
                out[d * rows + j] = v;
            }
        }
        out
    }

    fn scalar_ref(a: &[f32], tile: &[f32], dim: usize, fold: Fold) -> Vec<f32> {
        tile.chunks_exact(dim)
            .map(|b| match fold {
                Fold::Dot => a.iter().zip(b).map(|(x, y)| x * y).sum(),
                Fold::SqDist => a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum(),
                Fold::AbsDist => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            })
            .collect()
    }

    const FOLDS: [Fold; 3] = [Fold::Dot, Fold::SqDist, Fold::AbsDist];

    #[test]
    fn forcing_clamps_to_host_support() {
        // The switch is global and the other tests here force it too, so
        // this asserts on what each call returns, never on a re-read.
        assert!(supported_backends().contains(&Backend::Scalar));
        for b in Backend::ALL {
            let eff = force_backend(Some(b));
            assert_eq!(eff, b.min(best_supported()));
            assert!(supported_backends().contains(&eff));
        }
        assert_eq!(force_backend(None), best_supported());
    }

    #[test]
    fn every_backend_matches_the_scalar_fold_bitwise() {
        // Columns chosen to hit the 4-vector block, the 1-vector loop and
        // the scalar tail on every backend (67 = 2*32 + 3 at AVX2); rows
        // 0..=9 cover empty, below a panel, exact panels and panels plus a
        // remainder. The output stride leaves a gap that must stay untouched.
        const GAP: f32 = 9.0;
        for &(cols, dim) in &[(1usize, 1usize), (5, 3), (67, 16), (97, 7)] {
            let tile = pseudo(cols * dim, 7);
            let tile_t = transpose(&tile, dim);
            let stride = cols + 2;
            for rows in 0..=9usize {
                let a = pseudo(rows * dim, 1312);
                for fold in FOLDS {
                    for b in supported_backends() {
                        force_backend(Some(b));
                        let mut got = vec![GAP; rows * stride];
                        score_tile(fold, &a, rows, &tile_t, cols, &mut got, stride);
                        for (r, out_row) in got.chunks_exact(stride).enumerate() {
                            let want = scalar_ref(&a[r * dim..(r + 1) * dim], &tile, dim, fold);
                            for j in 0..cols {
                                assert_eq!(
                                    out_row[j].to_bits(),
                                    want[j].to_bits(),
                                    "{fold:?} backend {} rows {rows} row {r} col {j}",
                                    b.label()
                                );
                            }
                            assert_eq!(out_row[cols..], [GAP; 2], "{fold:?} row {r} gap");
                        }
                    }
                    force_backend(None);
                }
            }
        }
    }

    #[test]
    fn dot_seeds_from_negative_zero_on_every_backend() {
        // dot(-1, 0) = -0.0 exactly like `f32::sum`; distances seed +0.0.
        // Five rows: the seed holds through the panel and the single rows.
        let a = [-1.0f32; 5];
        let tile_t = [0.0f32; 9];
        for b in supported_backends() {
            force_backend(Some(b));
            let mut out = [9.0f32; 45];
            score_tile(Fold::Dot, &a, 5, &tile_t, 9, &mut out, 9);
            for (j, o) in out.iter().enumerate() {
                assert_eq!(o.to_bits(), (-0.0f32).to_bits(), "{} out {j}", b.label());
            }
            score_tile(Fold::SqDist, &a, 5, &tile_t, 9, &mut out, 9);
            assert_eq!(out[0].to_bits(), 1.0f32.to_bits());
        }
        force_backend(None);
    }

    #[test]
    fn empty_dim_writes_the_seed() {
        let mut out = [5.0f32; 3];
        score_tile(Fold::Dot, &[], 1, &[], 3, &mut out, 3);
        assert!(out.iter().all(|o| o.to_bits() == (-0.0f32).to_bits()));
        score_tile(Fold::AbsDist, &[], 1, &[], 3, &mut out, 3);
        assert!(out.iter().all(|o| o.to_bits() == 0.0f32.to_bits()));
    }
}
