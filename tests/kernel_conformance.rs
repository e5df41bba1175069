//! Differential kernel-conformance harness: every ISA backend of the
//! register-blocked microkernels must produce **bit-identical** results, on
//! every consumer, for every shape — including adversarial ones.
//!
//! The suite cross-checks three layers against the naive per-pair reference
//! (`SimilarityMatrix::compute_naive`, which never touches the dispatch
//! layer): the tiled dense kernels, the streaming top-k selection, and the
//! IVF index probed exhaustively (`nprobe = nlist`, so approximation cannot
//! mask a kernel bug). Each check runs under every backend the host
//! supports (`force_backend`), every tile size in `TILES` and every thread
//! count in `THREADS`; shapes include empty sides, single rows/columns,
//! prime dimensions that stress the vector remainders, tie-saturated
//! palettes and denormal/±0.0/overflowing-magnitude inputs.
//!
//! The dispatch knob is process-global, so every test that forces or
//! observes a backend serializes on [`lock`] and restores auto-detection
//! (`force_backend(None)`) before releasing it. Tests that only *compute*
//! need no lock: backends are bit-identical by contract, so a concurrent
//! flip of the dispatcher cannot change any asserted value — that
//! indifference is itself part of what this suite demonstrates.

use std::sync::{Mutex, MutexGuard};

use openea::align::{AnnConfig, IvfIndex, Metric, SimilarityMatrix, TopKMatrix};
use openea::math::kernel::{self, Backend, Fold};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::prelude::*;

const TILES: [usize; 3] = [1, 7, 64];
const THREADS: [usize; 3] = [1, 2, 8];

/// Serializes access to the process-global backend dispatcher.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panic while holding the lock (a failing assertion) poisons it;
    // the guard's data is `()`, so continuing is always sound.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Adversarial value palette: ±0.0, subnormals from both ends of the range,
/// magnitudes whose squares overflow `f32`, and ordinary values. Inputs are
/// generated as palette *indices* so shrinking stays in the edge set.
const PALETTE: [f32; 12] = [
    0.0,
    -0.0,
    f32::MIN_POSITIVE, // smallest normal
    -f32::MIN_POSITIVE,
    1.0e-45, // smallest subnormal
    6.0e-39, // mid-range subnormal
    -6.0e-39,
    2.0e19, // squares past f32::MAX → ±inf downstream
    -2.0e19,
    1.0,
    -1.5,
    0.125,
];

fn paint(levels: &[u8]) -> Vec<f32> {
    levels
        .iter()
        .map(|&v| PALETTE[v as usize % PALETTE.len()])
        .collect()
}

/// Asserts that `got` equals `want` bit-for-bit — the only comparison that
/// is meaningful here, since overflowing palettes legitimately produce
/// infinities (and NaNs under cosine's `inf/inf`), where `==` would lie in
/// both directions (`-0.0 == 0.0`, `NaN != NaN`).
fn assert_bits(want: &SimilarityMatrix, got: &SimilarityMatrix, ctx: &str) -> PropResult {
    prop_assert_eq!(want.rows(), got.rows(), "{} rows", ctx);
    prop_assert_eq!(want.cols(), got.cols(), "{} cols", ctx);
    for i in 0..want.rows() {
        for (j, (w, g)) in want.row(i).iter().zip(got.row(i)).enumerate() {
            prop_assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{} ({},{}): {} vs {}",
                ctx,
                i,
                j,
                w,
                g
            );
        }
    }
    Ok(())
}

props! {
    #![cases = 48]

    /// Dense tiled kernels: every backend × tile × thread combination is
    /// bit-identical to the dispatch-free naive reference on random shapes,
    /// for all four metrics.
    #[test]
    fn every_backend_matches_naive_bitwise(
        rows in 0usize..10,
        cols in 0usize..34,
        dim_m1 in 0usize..17,
        values in vec_of(-2.0f32..2.0, 700)
    ) {
        let dim = dim_m1 + 1;
        prop_assume!((rows + cols) * dim <= values.len());
        let src = &values[..rows * dim];
        let dst = &values[rows * dim..(rows + cols) * dim];
        let _guard = lock();
        for metric in Metric::ALL {
            let naive = SimilarityMatrix::compute_naive(src, dst, dim, metric, 1);
            for backend in kernel::supported_backends() {
                kernel::force_backend(Some(backend));
                for tile in TILES {
                    for threads in THREADS {
                        let tiled = SimilarityMatrix::compute_tiled(
                            src, dst, dim, metric, threads, tile,
                        );
                        let ctx = format!(
                            "{} backend={} tile={tile} threads={threads}",
                            metric.label(),
                            backend.label()
                        );
                        assert_bits(&naive, &tiled, &ctx)?;
                    }
                }
            }
        }
        kernel::force_backend(None);
    }

    /// Streaming top-k keeps identical `(id, score-bits)` pairs under every
    /// backend — selection order included, so tie handling cannot drift
    /// with the ISA.
    #[test]
    fn topk_is_backend_invariant(
        rows in 1usize..7,
        cols in 1usize..23,
        dim_m1 in 0usize..9,
        k in 1usize..8,
        values in vec_of(-2.0f32..2.0, 300)
    ) {
        let dim = dim_m1 + 1;
        prop_assume!((rows + cols) * dim <= values.len());
        let src = &values[..rows * dim];
        let dst = &values[rows * dim..(rows + cols) * dim];
        let _guard = lock();
        for metric in Metric::ALL {
            let mut reference: Option<TopKMatrix> = None;
            for backend in kernel::supported_backends() {
                kernel::force_backend(Some(backend));
                for tile in TILES {
                    for threads in THREADS {
                        let topk = TopKMatrix::compute_tiled(
                            src, dst, dim, metric, k, threads, tile,
                        );
                        let want = reference.get_or_insert_with(|| topk.clone());
                        prop_assert_eq!(want.k(), topk.k());
                        for i in 0..rows {
                            for (rank, (&(wj, ws), &(gj, gs))) in
                                want.row(i).iter().zip(topk.row(i)).enumerate()
                            {
                                prop_assert_eq!(
                                    (wj, ws.to_bits()),
                                    (gj, gs.to_bits()),
                                    "{} backend={} tile={} threads={} row {} rank {}",
                                    metric.label(), backend.label(), tile, threads, i, rank
                                );
                            }
                        }
                    }
                }
            }
        }
        kernel::force_backend(None);
    }

    /// IVF re-ranking probed exhaustively (`nprobe = nlist`) returns the
    /// exact same `(id, score-bits)` lists under every backend, and those
    /// lists agree with the brute-force top-k — approximation is switched
    /// off, so any divergence is a kernel defect, not recall loss.
    #[test]
    fn ivf_full_probe_is_backend_invariant_and_exact(
        targets_n in 1usize..40,
        queries_n in 1usize..5,
        dim_m1 in 0usize..9,
        k in 1usize..6,
        values in vec_of(-2.0f32..2.0, 500)
    ) {
        let dim = dim_m1 + 1;
        prop_assume!((targets_n + queries_n) * dim <= values.len());
        let targets = &values[..targets_n * dim];
        let queries = &values[targets_n * dim..(targets_n + queries_n) * dim];
        let cfg = AnnConfig { nlist: 3, iters: 2, ..AnnConfig::default() };
        let _guard = lock();
        for metric in Metric::ALL {
            let brute = TopKMatrix::compute(queries, targets, dim, metric, k, 1);
            let mut reference: Option<Vec<Vec<(u32, f32)>>> = None;
            for backend in kernel::supported_backends() {
                kernel::force_backend(Some(backend));
                for threads in [1usize, 4] {
                    let ivf = IvfIndex::build(targets, dim, metric, &cfg, threads);
                    let hits: Vec<Vec<(u32, f32)>> = queries
                        .chunks_exact(dim)
                        .map(|q| ivf.search(q, k, ivf.nlist()))
                        .collect();
                    let ctx = format!(
                        "{} backend={} threads={threads}",
                        metric.label(),
                        backend.label()
                    );
                    for (qi, got) in hits.iter().enumerate() {
                        let want = brute.row(qi);
                        prop_assert_eq!(got.len(), want.len(), "{} q{}", &ctx, qi);
                        for (rank, (&(gj, gs), &(wj, ws))) in
                            got.iter().zip(want).enumerate()
                        {
                            prop_assert_eq!(
                                (gj, gs.to_bits()),
                                (wj, ws.to_bits()),
                                "{} q{} rank {}", &ctx, qi, rank
                            );
                        }
                    }
                    match &reference {
                        None => reference = Some(hits),
                        Some(want) => prop_assert_eq!(
                            want.len(), hits.len(), "{}", &ctx
                        ),
                    }
                }
            }
        }
        kernel::force_backend(None);
    }

    /// Adversarial inputs — ±0.0, subnormals, magnitudes that overflow to
    /// infinity under squaring — still produce bit-identical matrices on
    /// every backend × tile × thread combination, for all four metrics.
    /// Values are palette indices, so shrinking never leaves the edge set.
    #[test]
    fn edge_value_palettes_stay_bit_identical(
        rows in 1usize..6,
        cols in 1usize..19,
        dim_m1 in 0usize..9,
        levels in vec_of(0u8..12, 250)
    ) {
        let dim = dim_m1 + 1;
        prop_assume!((rows + cols) * dim <= levels.len());
        let values = paint(&levels);
        let src = &values[..rows * dim];
        let dst = &values[rows * dim..(rows + cols) * dim];
        let _guard = lock();
        for metric in Metric::ALL {
            let naive = SimilarityMatrix::compute_naive(src, dst, dim, metric, 1);
            for backend in kernel::supported_backends() {
                kernel::force_backend(Some(backend));
                for tile in TILES {
                    for threads in [1usize, 8] {
                        let tiled = SimilarityMatrix::compute_tiled(
                            src, dst, dim, metric, threads, tile,
                        );
                        let ctx = format!(
                            "edge {} backend={} tile={tile} threads={threads}",
                            metric.label(),
                            backend.label()
                        );
                        assert_bits(&naive, &tiled, &ctx)?;
                    }
                }
            }
        }
        kernel::force_backend(None);
    }
}

/// Deterministic adversarial shapes: empty sides, single rows and columns,
/// prime dimensions and column counts straddling every vector-block
/// remainder (4-vector block, 1-vector loop, scalar tail, panel rows).
#[test]
fn adversarial_shapes_conform_on_every_backend() {
    let _guard = lock();
    // 97 values with mixed magnitudes, deterministic.
    let values: Vec<f32> = (0..4096)
        .map(|i: u32| {
            let x = i.wrapping_mul(2654435761).wrapping_add(13);
            ((x % 4001) as f32 - 2000.0) / 500.0
        })
        .collect();
    // (rows, cols, dim): dims 1/2/31/67 stress scalar and vector tails;
    // cols 1/3/17/33/65 straddle the AVX2 32-lane block and 8-lane loop.
    let shapes = [
        (0usize, 5usize, 3usize),
        (5, 0, 3),
        (1, 1, 1),
        (1, 65, 31),
        (4, 33, 67),
        (5, 17, 2),
        (7, 3, 31),
        (3, 64, 8),
    ];
    let mut inputs: Vec<(usize, usize, usize, Vec<f32>)> = shapes
        .iter()
        .map(|&(rows, cols, dim)| (rows, cols, dim, values[..(rows + cols) * dim].to_vec()))
        .collect();
    // Two sizes a sweep actually meets (seed 7): several row chunks per
    // worker at every thread count, and up to ten column tiles per chunk
    // with a short last one. At these the kept top-10 is checked too.
    let mut rng = SmallRng::seed_from_u64(7);
    for (rows, cols, dim) in [(157usize, 211usize, 17usize), (600, 600, 32)] {
        let data = (0..(rows + cols) * dim).map(|_| rng.gen_range(-1.0f32..1.0));
        inputs.push((rows, cols, dim, data.collect()));
    }
    for (rows, cols, dim, data) in &inputs {
        let (rows, cols, dim) = (*rows, *cols, *dim);
        let (src, dst) = data.split_at(rows * dim);
        for metric in Metric::ALL {
            let naive = SimilarityMatrix::compute_naive(src, dst, dim, metric, 1);
            for backend in kernel::supported_backends() {
                kernel::force_backend(Some(backend));
                for tile in TILES {
                    for threads in THREADS {
                        let tiled =
                            SimilarityMatrix::compute_tiled(src, dst, dim, metric, threads, tile);
                        if rows >= 100 {
                            let topk =
                                TopKMatrix::compute_tiled(src, dst, dim, metric, 10, threads, tile);
                            for i in 0..rows {
                                let want: Vec<(u32, f32)> = (naive.topk_row(i, 10).into_iter())
                                    .map(|(j, s)| (j as u32, s))
                                    .collect();
                                assert_eq!(
                                    topk.row(i),
                                    want,
                                    "{} backend={} tile={tile} threads={threads} top-10 row {i}",
                                    metric.label(),
                                    backend.label()
                                );
                            }
                        }
                        for i in 0..rows {
                            for j in 0..cols {
                                assert_eq!(
                                    naive.get(i, j).to_bits(),
                                    tiled.get(i, j).to_bits(),
                                    "{} backend={} tile={tile} threads={threads} \
                                     shape=({rows},{cols},{dim}) ({i},{j})",
                                    metric.label(),
                                    backend.label()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    kernel::force_backend(None);
}

/// Tie saturation: two-level palettes flood the selection heap with equal
/// scores; the kept `(id, score)` lists must be identical on every backend.
#[test]
fn tie_saturated_topk_is_backend_invariant() {
    let _guard = lock();
    let dim = 4usize;
    let values: Vec<f32> = (0..200)
        .map(|i| if i % 3 == 0 { 0.5 } else { -0.5 })
        .collect();
    let (rows, cols) = (6, 40);
    let src = &values[..rows * dim];
    let dst = &values[rows * dim..(rows + cols) * dim];
    for metric in Metric::ALL {
        let mut reference: Option<TopKMatrix> = None;
        for backend in kernel::supported_backends() {
            kernel::force_backend(Some(backend));
            for tile in TILES {
                let topk = TopKMatrix::compute_tiled(src, dst, dim, metric, 5, 2, tile);
                match &reference {
                    None => reference = Some(topk),
                    Some(want) => {
                        for i in 0..rows {
                            assert_eq!(
                                want.row(i),
                                topk.row(i),
                                "{} backend={} tile={tile} row {i}",
                                metric.label(),
                                backend.label()
                            );
                        }
                    }
                }
            }
        }
    }
    kernel::force_backend(None);
}

/// The `OPENEA_KERNEL_BACKEND` env knob: each supported label pins the
/// dispatcher when auto-detection re-resolves, unknown labels fall back to
/// the host's best backend, and requests above the host's capability clamp
/// down instead of faulting.
#[test]
fn env_knob_selects_and_clamps_backends() {
    let _guard = lock();
    let best = kernel::best_supported();
    for backend in Backend::ALL {
        std::env::set_var(kernel::BACKEND_ENV, backend.label());
        let eff = kernel::force_backend(None); // re-resolve from the env
        assert_eq!(eff, kernel::clamp_to_supported(backend));
        assert_eq!(kernel::active_backend(), eff);
        // The forced results must match scalar bits — spot-check one kernel.
        let a = [1.5f32, -0.25, 3.0e-39];
        let tile_t = [0.5f32, -0.5, 2.0, -1.0, 0.25, 1.0e-44];
        let mut got = [0.0f32; 2];
        kernel::score_tile(Fold::Dot, &a, 1, &tile_t, 2, &mut got, 2);
        kernel::force_backend(Some(Backend::Scalar));
        let mut want = [0.0f32; 2];
        kernel::score_tile(Fold::Dot, &a, 1, &tile_t, 2, &mut want, 2);
        assert_eq!(
            [got[0].to_bits(), got[1].to_bits()],
            [want[0].to_bits(), want[1].to_bits()],
            "env-selected {} diverged from scalar",
            backend.label()
        );
    }
    std::env::set_var(kernel::BACKEND_ENV, "quantum");
    assert_eq!(kernel::force_backend(None), best);
    std::env::remove_var(kernel::BACKEND_ENV);
    assert_eq!(kernel::force_backend(None), best);
}

/// `force_backend` requests above host capability clamp; `None` restores
/// auto-detection; `supported_backends` always contains the scalar
/// reference and everything it returns is executable.
#[test]
fn force_backend_roundtrip_and_support_set() {
    let _guard = lock();
    let supported = kernel::supported_backends();
    assert!(supported.contains(&Backend::Scalar));
    for b in Backend::ALL {
        let eff = kernel::force_backend(Some(b));
        assert!(supported.contains(&eff));
        assert!(eff <= b, "clamping may only weaken the request");
    }
    kernel::force_backend(None);
    assert_eq!(kernel::active_backend(), kernel::best_supported());
}
