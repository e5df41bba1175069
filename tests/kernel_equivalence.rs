//! Kernel-equivalence suite: the cache-tiled block kernels and the streaming
//! top-k path must be *bit-identical* to the naive reference kernels for all
//! four metrics, across random shapes (including 0×N and N×0), tile sizes
//! {1, 7, 64} and thread counts {1, 2, 8}. This is the contract that lets
//! every consumer (eval, CSLS, inference, bootstrapping) switch to the fast
//! paths without changing a single reported number.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea::align::{
    csls_topk, rank_eval, rank_eval_streaming, Metric, SimilarityMatrix, TopKMatrix,
};
use openea::math::kernel;
use openea_runtime::testkit::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const TILES: [usize; 3] = [1, 7, 64];
const THREADS: [usize; 3] = [1, 2, 8];

/// The kernel layer's shared order: descending score, ties toward the
/// lowest index (exactly a stable argsort of the row).
fn stable_argsort(row: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).expect("finite").then(a.cmp(&b)));
    idx
}

fn assert_topk_matches_argsort(
    sim: &SimilarityMatrix,
    topk: &TopKMatrix,
    k: usize,
    ctx: &str,
) -> PropResult {
    prop_assert_eq!(topk.k(), k.min(sim.cols()), "{}", ctx);
    for i in 0..sim.rows() {
        let row = sim.row(i);
        let order = stable_argsort(row);
        let kept = topk.row(i);
        for (rank, &j) in order.iter().take(topk.k()).enumerate() {
            let (tj, ts) = kept[rank];
            prop_assert_eq!(tj as usize, j, "{} row {} rank {}", ctx, i, rank);
            prop_assert_eq!(
                ts.to_bits(),
                row[j].to_bits(),
                "{} row {} rank {}",
                ctx,
                i,
                rank
            );
        }
    }
    Ok(())
}

props! {
    #![cases = 64]

    /// Tiled kernels are bit-identical to the naive reference for every
    /// metric × tile × thread combination on random shapes.
    #[test]
    fn tiled_matches_naive_bitwise(
        rows in 0usize..11,
        cols in 0usize..13,
        dim_m1 in 0usize..9,
        values in vec_of(-2.0f32..2.0, 300)
    ) {
        let dim = dim_m1 + 1;
        prop_assume!((rows + cols) * dim <= values.len());
        let src = &values[..rows * dim];
        let dst = &values[rows * dim..(rows + cols) * dim];
        for metric in Metric::ALL {
            let naive = SimilarityMatrix::compute_naive(src, dst, dim, metric, 1);
            for tile in TILES {
                for threads in THREADS {
                    let tiled =
                        SimilarityMatrix::compute_tiled(src, dst, dim, metric, threads, tile);
                    prop_assert_eq!(tiled.rows(), rows);
                    prop_assert_eq!(tiled.cols(), cols);
                    for i in 0..rows {
                        for j in 0..cols {
                            prop_assert_eq!(
                                naive.get(i, j).to_bits(),
                                tiled.get(i, j).to_bits(),
                                "{} tile={} threads={} ({},{})",
                                metric.label(), tile, threads, i, j
                            );
                        }
                    }
                }
            }
        }
    }

    /// Streaming top-k equals the stable full-matrix argsort prefix — same
    /// targets, same bits — for every metric × tile × thread combination,
    /// including k = 0 and k ≥ cols.
    #[test]
    fn topk_matches_full_argsort(
        rows in 0usize..9,
        cols in 0usize..11,
        dim_m1 in 0usize..7,
        k in 0usize..14,
        values in vec_of(-2.0f32..2.0, 200)
    ) {
        let dim = dim_m1 + 1;
        prop_assume!((rows + cols) * dim <= values.len());
        let src = &values[..rows * dim];
        let dst = &values[rows * dim..(rows + cols) * dim];
        for metric in Metric::ALL {
            let naive = SimilarityMatrix::compute_naive(src, dst, dim, metric, 1);
            for tile in TILES {
                for threads in THREADS {
                    let topk =
                        TopKMatrix::compute_tiled(src, dst, dim, metric, k, threads, tile);
                    let ctx = format!(
                        "{} tile={tile} threads={threads} k={k}", metric.label()
                    );
                    assert_topk_matches_argsort(&naive, &topk, k, &ctx)?;
                }
            }
        }
    }

    /// Streaming rank evaluation equals the dense evaluation of the naive
    /// matrix exactly — for every metric × thread count × backend — once
    /// the targets span more than one `DEFAULT_TILE`: copies of target 3 in
    /// the second tile and at `cols - 2` tie across tiles (counted
    /// pessimistically), the gold targets sit in the first tile, on both
    /// sides of the first boundary and at the end of the short last tile,
    /// and source row 0 is all-zero (every cosine score ties at 0).
    #[test]
    fn streaming_rank_eval_matches_dense_across_tiles(
        rows in 1usize..12,
        cols in 65usize..200,
        dim_m1 in 0usize..8,
        values in vec_of(-2.0f32..2.0, 1700)
    ) {
        let dim = dim_m1 + 1;
        prop_assume!((rows + cols) * dim <= values.len());
        let mut values = values;
        let (src, dst) = values[..(rows + cols) * dim].split_at_mut(rows * dim);
        src[..dim].fill(0.0);
        for copy in [64 + (cols - 65) / 2, cols - 2] {
            dst.copy_within(3 * dim..4 * dim, copy * dim);
        }
        let gold: Vec<usize> =
            (0..rows).map(|i| [3, 63, 64, cols - 2, cols - 1][i % 5]).collect();
        for metric in Metric::ALL {
            let naive = SimilarityMatrix::compute_naive(src, dst, dim, metric, 1);
            let want = rank_eval(&naive, &gold);
            for backend in kernel::supported_backends() {
                kernel::force_backend(Some(backend));
                for threads in THREADS {
                    let got = rank_eval_streaming(src, dst, dim, metric, &gold, threads);
                    prop_assert_eq!(
                        want, got,
                        "{} backend={} threads={}", metric.label(), backend.label(), threads
                    );
                }
            }
        }
        kernel::force_backend(None);
    }

    /// Edge-value stress: embeddings drawn from a palette of ±0.0,
    /// subnormals (smallest and mid-range, both signs) and magnitudes whose
    /// squares overflow `f32` must still be bit-identical between the tiled
    /// kernels and the naive reference for all four metrics — infinities
    /// and NaNs included, which is why the comparison is on bit patterns.
    /// Inputs are palette *indices*, so shrinking stays inside the edge set.
    #[test]
    fn tiled_matches_naive_on_denormal_and_overflow_palettes(
        rows in 1usize..7,
        cols in 1usize..9,
        dim_m1 in 0usize..7,
        levels in vec_of(0u8..10, 120)
    ) {
        const PALETTE: [f32; 10] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,       // smallest normal
            -f32::MIN_POSITIVE,
            1.0e-45,                 // smallest subnormal
            -6.0e-39,                // mid-range subnormal
            2.0e19,                  // squares past f32::MAX → ±inf
            -2.0e19,
            1.0,
            -0.75,
        ];
        let dim = dim_m1 + 1;
        prop_assume!((rows + cols) * dim <= levels.len());
        let values: Vec<f32> = levels.iter().map(|&v| PALETTE[v as usize]).collect();
        let src = &values[..rows * dim];
        let dst = &values[rows * dim..(rows + cols) * dim];
        for metric in Metric::ALL {
            let naive = SimilarityMatrix::compute_naive(src, dst, dim, metric, 1);
            for tile in TILES {
                for threads in THREADS {
                    let tiled =
                        SimilarityMatrix::compute_tiled(src, dst, dim, metric, threads, tile);
                    for i in 0..rows {
                        for j in 0..cols {
                            prop_assert_eq!(
                                naive.get(i, j).to_bits(),
                                tiled.get(i, j).to_bits(),
                                "{} tile={} threads={} ({},{}): {} vs {}",
                                metric.label(), tile, threads, i, j,
                                naive.get(i, j), tiled.get(i, j)
                            );
                        }
                    }
                }
            }
        }
    }

    /// Tie stress: scores drawn from three discrete values force massive
    /// ties; selection must stay the stable lowest-index-wins argsort.
    #[test]
    fn topk_breaks_ties_toward_lowest_index(
        levels in vec_of(0u8..3, 72),
        k in 1usize..10
    ) {
        let data: Vec<f32> = levels.iter().map(|&v| v as f32 * 0.5).collect();
        let sim = SimilarityMatrix::from_raw(8, 9, data);
        let topk = TopKMatrix::from_matrix(&sim, k);
        assert_topk_matches_argsort(&sim, &topk, k, "from_matrix ties")?;
        for i in 0..8 {
            // Explicitly: equal scores appear in ascending index order.
            let kept = topk.row(i);
            for w in kept.windows(2) {
                let ((j0, s0), (j1, s1)) = (w[0], w[1]);
                prop_assert!(s0 >= s1);
                if s0 == s1 {
                    prop_assert!(j0 < j1, "tie order broken: {} before {}", j0, j1);
                }
            }
        }
    }

    /// Streaming CSLS with a full keep-width is bit-identical to dense CSLS
    /// re-ranked by the stable argsort.
    #[test]
    fn csls_on_topk_equals_csls_on_full(
        rows in 1usize..8,
        cols in 1usize..9,
        dim_m1 in 0usize..5,
        k_csls in 1usize..6,
        values in vec_of(-1.0f32..1.0, 100)
    ) {
        let dim = dim_m1 + 1;
        prop_assume!((rows + cols) * dim <= values.len());
        let src = &values[..rows * dim];
        let dst = &values[rows * dim..(rows + cols) * dim];
        for metric in Metric::ALL {
            let sim = SimilarityMatrix::compute(src, dst, dim, metric, 2);
            let dense = sim.csls(k_csls);
            for threads in THREADS {
                let streamed = csls_topk(src, dst, dim, metric, k_csls, cols, threads);
                prop_assert_eq!(streamed.k(), cols);
                for i in 0..rows {
                    let row = dense.row(i);
                    let order = stable_argsort(row);
                    for (rank, &j) in order.iter().enumerate() {
                        let (tj, ts) = streamed.row(i)[rank];
                        prop_assert_eq!(
                            tj as usize, j,
                            "{} threads={} row {} rank {}",
                            metric.label(), threads, i, rank
                        );
                        prop_assert_eq!(
                            ts.to_bits(), row[j].to_bits(),
                            "{} threads={} row {} rank {}",
                            metric.label(), threads, i, rank
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn empty_shapes_are_handled_at_every_tile_and_thread_count() {
    let some = [1.0f32, 0.5, -0.25, 2.0];
    for metric in Metric::ALL {
        for tile in TILES {
            for threads in THREADS {
                // 0×N.
                let m = SimilarityMatrix::compute_tiled(&[], &some, 2, metric, threads, tile);
                assert_eq!((m.rows(), m.cols()), (0, 2));
                let t = TopKMatrix::compute_tiled(&[], &some, 2, metric, 3, threads, tile);
                assert_eq!((t.rows(), t.cols(), t.k()), (0, 2, 2));
                // N×0.
                let m = SimilarityMatrix::compute_tiled(&some, &[], 2, metric, threads, tile);
                assert_eq!((m.rows(), m.cols()), (2, 0));
                let t = TopKMatrix::compute_tiled(&some, &[], 2, metric, 3, threads, tile);
                assert_eq!((t.rows(), t.cols(), t.k()), (2, 0, 0));
                assert_eq!(t.row(0), &[]);
                assert_eq!(t.best(1), None);
                // 0×0.
                let m = SimilarityMatrix::compute_tiled(&[], &[], 2, metric, threads, tile);
                assert_eq!((m.rows(), m.cols()), (0, 0));
            }
        }
    }
}

#[test]
fn known_answer_cosine_tiled_and_topk() {
    // Unit axes: cosine similarities are exactly 1/0/-1 — easy to pin.
    let src = [1.0f32, 0.0, 0.0, 1.0]; // e0, e1
    let dst = [1.0f32, 0.0, 0.0, 1.0, -1.0, 0.0]; // e0, e1, -e0
    let m = SimilarityMatrix::compute_tiled(&src, &dst, 2, Metric::Cosine, 2, 2);
    assert_eq!(m.row(0), &[1.0, 0.0, -1.0]);
    assert_eq!(m.row(1), &[0.0, 1.0, 0.0]);
    let t = TopKMatrix::compute(&src, &dst, 2, Metric::Cosine, 2, 1);
    assert_eq!(t.row(0), &[(0, 1.0), (1, 0.0)]);
    // Row 1 ties targets 0 and 2 at score 0 — lowest index wins.
    assert_eq!(t.row(1), &[(1, 1.0), (0, 0.0)]);
}

/// The streaming top-k accumulates in the output rows it returns: what it
/// asks of the allocator is per call, per chunk and per tile buffer, never
/// per source row. At one thread the sweep runs on the calling thread, both
/// sizes split into the same number of chunks, and the counts are exact.
#[test]
fn topk_sweep_makes_no_allocator_call_per_source_row() {
    let dim = 8;
    let values: Vec<f32> = (0..(1024 + 300) * dim)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0)
        .collect();
    let (src, dst) = values.split_at(1024 * dim);
    let calls = |rows: usize| {
        let sweep = || TopKMatrix::compute(&src[..rows * dim], dst, dim, Metric::Cosine, 10, 1);
        ALLOC.on_this_thread(sweep).1.calls
    };
    assert_eq!(calls(64), calls(1024));
}

/// Streaming CSLS rescales its forward lists in place: at a keep-width of
/// every target, everything it asks of the allocator — and so its peak —
/// is one `rows × cols` entry table, the backward pass's `cols × k` table,
/// the two ψ vectors and the sweeps' per-chunk buffers. A second copy of
/// the forward table would double the first term.
#[test]
fn csls_topk_at_full_keep_allocates_one_entry_table() {
    let (dim, rows, cols, k) = (8, 300, 280, 10);
    let values: Vec<f32> = (0..(rows + cols) * dim)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0)
        .collect();
    let (src, dst) = values.split_at(rows * dim);
    let entry = std::mem::size_of::<(u32, f32)>();
    let (table, backward) = (rows * cols * entry, cols * k * entry);
    let psi = (rows + cols) * std::mem::size_of::<f32>();
    // Tile transposes, panel scratch and row norms, per chunk of a sweep.
    let sweep_buffers = 64 * 1024;
    let (lists, tally) =
        ALLOC.on_this_thread(|| csls_topk(src, dst, dim, Metric::Cosine, k, cols, 1));
    assert_eq!((lists.rows(), lists.k()), (rows, cols));
    assert!(
        tally.requested <= table + backward + psi + sweep_buffers,
        "csls_topk asked for {} bytes; one entry table is {table}, the backward pass {backward}",
        tally.requested
    );
}
