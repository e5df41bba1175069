//! Two-stage index equivalence suite: with **every** partition probed, the
//! IVF candidate-generation + exact re-rank path must be *bit-identical* to
//! the dense streaming sweep ([`TopKMatrix`]) for all four metrics, across
//! random shapes (including zero targets and zero queries), k ∈ {1, 10, 50},
//! and build thread counts {1, 2, 8}. This is the contract that makes
//! `nprobe` the *only* approximation knob in the serving path: the scoring
//! kernels, tie rule and returned bits never change, only how many
//! partitions are consulted.
//!
//! A seeded recall gate on the scale generator closes the loop: at the
//! default probe width, the curve the bench publishes must hold up —
//! recall@10 ≥ 0.95 against exact ground truth.
//!
//! The lists are scanned from int8 codes and only the members a per-row
//! error bound cannot rule out are re-ranked from their f32 rows; a
//! differential suite holds that pruned re-rank to an exact re-rank of every
//! probed member, on rows and queries the bound cannot cover, and a pin
//! fixes how many members it re-ranks on one seeded shape.

use openea::align::{AnnConfig, IvfIndex, Metric, TopKMatrix};
use openea::synth::{generate_embedded_pair, ScaleConfig};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];
const KS: [usize; 3] = [1, 10, 50];

/// Asserts `ivf.search(.., nprobe = nlist)` equals the dense top-k row bit
/// for bit (same targets, same score bits, same order).
fn assert_full_probe_matches_dense(
    ivf: &IvfIndex,
    src: &[f32],
    targets: &[f32],
    dim: usize,
    metric: Metric,
    k: usize,
    ctx: &str,
) -> PropResult {
    let dense = TopKMatrix::compute(src, targets, dim, metric, k, 1);
    let queries = src.len() / dim;
    for row in 0..queries {
        let got = ivf.search(&src[row * dim..(row + 1) * dim], k, ivf.nlist().max(1));
        let want = dense.row(row);
        prop_assert_eq!(got.len(), want.len(), "{} row {}", ctx, row);
        for (rank, (&(gi, gs), &(wi, ws))) in got.iter().zip(want).enumerate() {
            prop_assert_eq!(gi, wi, "{} row {} rank {}", ctx, row, rank);
            prop_assert_eq!(
                gs.to_bits(),
                ws.to_bits(),
                "{} row {} rank {}",
                ctx,
                row,
                rank
            );
        }
    }
    Ok(())
}

props! {
    #![cases = 48]

    /// Probing all partitions reproduces the dense sweep exactly on random
    /// shapes — including 0 targets and 0 queries — for every metric × k ×
    /// build-thread combination.
    #[test]
    fn all_partitions_probed_is_bit_identical_to_dense(
        queries in 0usize..7,
        cols in 0usize..33,
        dim_m1 in 0usize..9,
        nlist in 0usize..7,
        values in vec_of(-2.0f32..2.0, 450)
    ) {
        let dim = dim_m1 + 1;
        prop_assume!((queries + cols) * dim <= values.len());
        let src = &values[..queries * dim];
        let targets = &values[queries * dim..(queries + cols) * dim];
        let cfg = AnnConfig { nlist, ..Default::default() };
        for metric in Metric::ALL {
            for threads in THREADS {
                let ivf = IvfIndex::build(targets, dim, metric, &cfg, threads);
                prop_assert_eq!(ivf.len(), cols);
                for k in KS {
                    let ctx = format!(
                        "{} threads={threads} nlist={} k={k} ({queries}x{cols} dim {dim})",
                        metric.label(),
                        ivf.nlist()
                    );
                    assert_full_probe_matches_dense(
                        &ivf, src, targets, dim, metric, k, &ctx,
                    )?;
                }
            }
        }
    }

    /// Tie stress: embeddings drawn from a 3-value alphabet produce massive
    /// score duplication; the shared rule (descending score, lowest target
    /// index wins) must still hold bit for bit through the gathered layout.
    #[test]
    fn tie_heavy_corpora_keep_the_shared_tie_rule(
        queries in 1usize..5,
        cols in 1usize..25,
        dim_m1 in 0usize..4,
        levels in vec_of(0u32..3, 160)
    ) {
        let dim = dim_m1 + 1;
        prop_assume!((queries + cols) * dim <= levels.len());
        let values: Vec<f32> = levels.iter().map(|&v| v as f32 - 1.0).collect();
        let src = &values[..queries * dim];
        let targets = &values[queries * dim..(queries + cols) * dim];
        for metric in Metric::ALL {
            let ivf = IvfIndex::build(targets, dim, metric, &AnnConfig::default(), 2);
            for k in KS {
                let ctx = format!("ties {} k={k} ({queries}x{cols} dim {dim})", metric.label());
                assert_full_probe_matches_dense(&ivf, src, targets, dim, metric, k, &ctx)?;
            }
        }
    }
}

/// The partition is a pure function of `(targets, dim, metric, cfg)`: build
/// thread count must never change layout or answers.
#[test]
fn build_is_invariant_across_thread_counts() {
    let cfg = ScaleConfig {
        entities: 600,
        dim: 8,
        communities: 16,
        seed: 11,
        ..Default::default()
    };
    let pair = generate_embedded_pair(&cfg, 2);
    for metric in Metric::ALL {
        let reference = IvfIndex::build(&pair.emb2, pair.dim, metric, &AnnConfig::default(), 1);
        for threads in [2, 8] {
            let other =
                IvfIndex::build(&pair.emb2, pair.dim, metric, &AnnConfig::default(), threads);
            assert_eq!(reference.nlist(), other.nlist(), "{}", metric.label());
            let q = &pair.emb1[..pair.dim];
            assert_eq!(
                reference.search(q, 10, 3),
                other.search(q, 10, 3),
                "{} threads={threads}",
                metric.label()
            );
        }
    }
}

/// Recall regression gate: on a seeded synth pair, the default probe width
/// must recover at least 95% of the exact top-10 — the same bar the
/// published bench curve ships under.
#[test]
fn default_nprobe_recall_at_10_stays_above_095() {
    let cfg = ScaleConfig {
        entities: 4_000,
        dim: 16,
        communities: 64,
        seed: 7,
        ..Default::default()
    };
    let pair = generate_embedded_pair(&cfg, 2);
    let dim = pair.dim;
    let metric = Metric::Cosine;
    let ivf = IvfIndex::build(&pair.emb2, dim, metric, &AnnConfig::default(), 2);
    let queries = 128usize;
    let src = &pair.emb1[..queries * dim];
    let exact = TopKMatrix::compute(src, &pair.emb2, dim, metric, 10, 2);
    let nprobe = ivf.default_nprobe();
    let mut hit = 0usize;
    let mut total = 0usize;
    for row in 0..queries {
        let approx = ivf.search(&src[row * dim..(row + 1) * dim], 10, nprobe);
        for &(want, _) in exact.row(row) {
            total += 1;
            hit += usize::from(approx.iter().any(|&(got, _)| got == want));
        }
    }
    let recall = hit as f64 / total as f64;
    assert!(
        recall >= 0.95,
        "recall@10 at default nprobe={nprobe} fell to {recall:.4} \
         (nlist={}, {} targets)",
        ivf.nlist(),
        ivf.len()
    );
}

/// Values a row or query may carry beside ordinary ones: every non-finite
/// kind, zero, and magnitudes at both ends of `f32` — each breaks a
/// first-order error bound unless the index re-ranks it unconditionally.
const SPECIAL: [f32; 10] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    1e30,
    -3e38,
    1e-30,
    1e-41,
    1e16,
];

/// Row scales on both sides of the range the bounds cover (`[2⁻⁵⁰, 2⁵⁰]`
/// in norm) and far outside it.
const ROW_SCALES: [f32; 6] = [1e-20, 1e-16, 1e-12, 1e12, 1e16, 1e20];

/// `n` rows of `dim`: mostly ordinary (or, `ties`, drawn from {-1, 0, 1}),
/// some all-zero, some with one [`SPECIAL`] coordinate, some scaled by a
/// [`ROW_SCALES`] factor.
fn hostile_rows(rng: &mut SmallRng, n: usize, dim: usize, ties: bool) -> Vec<f32> {
    let mut out = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let mut row: Vec<f32> = (0..dim)
            .map(|_| {
                if ties {
                    rng.gen_range(0u32..3) as f32 - 1.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect();
        match rng.gen_range(0u32..12) {
            0 => row.fill(0.0),
            1 | 2 => row[rng.gen_range(0..dim)] = SPECIAL[rng.gen_range(0..SPECIAL.len())],
            3 => {
                let s = ROW_SCALES[rng.gen_range(0..ROW_SCALES.len())];
                row.iter_mut().for_each(|v| *v *= s);
            }
            _ => {}
        }
        out.extend(row);
    }
    out
}

/// The reference the pruned re-rank answers to: every member of the
/// `nprobe` first lists scored exactly by the dense kernel, top `k` under
/// the shared tie rule. Members are gathered in ascending id order, so the
/// kernel's lowest-index tie rule is the lowest-id rule.
fn exact_over_probed(
    ivf: &IvfIndex,
    targets: &[f32],
    query: &[f32],
    k: usize,
    nprobe: usize,
) -> Vec<(u32, f32)> {
    let dim = ivf.dim();
    let nprobe = nprobe.clamp(1, ivf.nlist());
    let mut members: Vec<u32> = ivf.probe_order(query)[..nprobe]
        .iter()
        .flat_map(|&c| ivf.list_ids(c as usize).to_vec())
        .collect();
    members.sort_unstable();
    let rows: Vec<f32> = members
        .iter()
        .flat_map(|&i| {
            targets[i as usize * dim..(i as usize + 1) * dim]
                .iter()
                .copied()
        })
        .collect();
    let top = TopKMatrix::compute(query, &rows, dim, ivf.metric(), k, 1);
    top.row(0)
        .iter()
        .map(|&(j, s)| (members[j as usize], s))
        .collect()
}

props! {
    #![cases = 40]

    /// The bound-pruned re-rank returns exactly what re-ranking every
    /// probed member would — ids and score bits — at nprobe ∈ {1, default,
    /// nlist}, for every metric × k × build-thread combination, on tie-heavy
    /// and ordinary corpora laced with NaN, ±∞, zero, huge and tiny values
    /// in rows and queries alike.
    #[test]
    fn pruned_rerank_equals_exact_rerank_of_every_probed_member(
        seed in 0u64..1_000_000,
        cols in 1usize..160,
        dim_m1 in 0usize..8,
        nlist in 0usize..9,
        ties in any_bool()
    ) {
        let dim = dim_m1 + 1;
        let mut rng = SmallRng::seed_from_u64(seed);
        let targets = hostile_rows(&mut rng, cols, dim, ties);
        let queries = hostile_rows(&mut rng, 4, dim, ties);
        let cfg = AnnConfig { nlist, ..Default::default() };
        for metric in Metric::ALL {
            for threads in THREADS {
                let ivf = IvfIndex::build(&targets, dim, metric, &cfg, threads);
                for nprobe in [1, ivf.default_nprobe(), ivf.nlist()] {
                    for k in KS {
                        for (qi, q) in queries.chunks_exact(dim).enumerate() {
                            let got = ivf.search(q, k, nprobe);
                            let want = exact_over_probed(&ivf, &targets, q, k, nprobe);
                            let bits = |a: &[(u32, f32)]| -> Vec<(u32, u32)> {
                                a.iter().map(|&(i, s)| (i, s.to_bits())).collect()
                            };
                            prop_assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{} threads={threads} nlist={} nprobe={nprobe} k={k} q{qi} \
                                 ({cols} rows, dim {dim}, ties {ties})",
                                metric.label(),
                                ivf.nlist()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// How many members the pruned re-rank scores exactly, summed over 200
/// queries at the default probe width on a seeded 20K × 32 pair: a pure
/// function of the inputs, so it repeats to the row at any build thread
/// count. A change to the codes, the bound or the scan order moves it.
#[test]
fn reranked_rows_on_a_seeded_20k_shape_are_pinned() {
    const RERANKED: [usize; 4] = [8_448, 7_040, 6_457, 6_765];
    let cfg = ScaleConfig {
        entities: 20_000,
        dim: 32,
        communities: 64,
        seed: 3,
        ..Default::default()
    };
    let pair = generate_embedded_pair(&cfg, 2);
    let dim = pair.dim;
    let queries = &pair.emb1[..200 * dim];
    let counts: Vec<Vec<(usize, usize)>> = Metric::ALL
        .into_iter()
        .map(|metric| {
            THREADS
                .into_iter()
                .map(|threads| {
                    let ivf =
                        IvfIndex::build(&pair.emb2, dim, metric, &AnnConfig::default(), threads);
                    let (mut scanned, mut reranked) = (0, 0);
                    for q in queries.chunks_exact(dim) {
                        let (_, c) = ivf.search_stats(q, 10, ivf.default_nprobe());
                        scanned += c.scanned;
                        reranked += c.reranked;
                    }
                    (scanned, reranked)
                })
                .collect()
        })
        .collect();
    for (metric, c) in Metric::ALL.iter().zip(&counts) {
        println!(
            "{}: (scanned, re-ranked) at threads {THREADS:?}: {c:?}",
            metric.label()
        );
    }
    for ((metric, c), want) in Metric::ALL.iter().zip(&counts).zip(RERANKED) {
        assert!(c.iter().all(|&x| x == c[0]), "{}: {c:?}", metric.label());
        assert_eq!(c[0].1, want, "{}: {c:?}", metric.label());
    }
}
