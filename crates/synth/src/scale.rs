//! Million-entity *embedded* pair generation for index-scale experiments.
//!
//! The structural generator ([`crate::world`] → [`crate::project`]) builds
//! full KGs with triples, literals and schema noise — faithful, but far too
//! heavy to push to a million entities on one machine. The approximate-index
//! work (IVF candidate generation, sharded snapshots) only needs the *output*
//! of that pipeline: two embedding matrices whose rows are aligned one-to-one
//! and whose geometry has realistic cluster structure. This module samples
//! that geometry directly.
//!
//! ## Model
//!
//! A latent space of `communities` cluster centers is drawn from
//! `N(0, 1/dim)` per coordinate. Each entity picks a community with a
//! quadratically skewed draw (`(u² · k)` for `u ~ U[0,1)`), reproducing the
//! head-heavy community sizes of preferential-attachment graphs, then sits
//! at `center + spread · g/√dim`. Each KG side observes that latent point
//! through independent `noise · g/√dim` perturbations — the two sides agree
//! up to noise, exactly like two embedding runs over projections of one
//! world. Row `i` of `emb1` aligns with row `i` of `emb2` (identity
//! reference alignment), so recall against ground truth needs no lookup
//! table.
//!
//! ## Determinism
//!
//! Every entity `i` owns three RNG streams,
//! [`split_seed`](openea_runtime::rng::split_seed)`(seed, 4·i + stream)`:
//!
//! * 0, latent — one uniform (the community pick), then `dim` Gaussians,
//!   the offsets from the center in dimension order;
//! * 1 and 2, side-1 and side-2 noise — `dim` Gaussians each, in dimension
//!   order.
//!
//! The cluster centers are `k·dim` Gaussians of one more stream, in
//! row-major order. Every Gaussian is the runtime's ziggurat, the value
//! [`gen_gaussian`](openea_runtime::rng::Rng::gen_gaussian) gives on that
//! stream. The generator takes eight entities per step: it seeds their 24
//! streams, writes their labels, draws the latent streams and each side's
//! noise streams through three [`GaussianLanes`] (eight streams in lockstep,
//! each lane bit-identical to `gen_gaussian` on its own stream, each lane's
//! draws in a run of its own), and writes each row once into outputs that
//! were reserved, not filled. The row writer is one plain loop over those
//! runs, compiled for each rung of the one ISA switch
//! ([`openea_runtime::isa`]) and picked there, so it runs at the host's
//! vector width.
//! The draw order *within* a stream is the whole contract — how the streams
//! interleave is not observable — so the output is a pure function of
//! [`ScaleConfig`], independent of thread count and chunk schedule, and any
//! row can be regenerated in isolation. `tests/scale_inputs.rs` holds it
//! bit for bit to a serial generator that re-derives the latent stream once
//! per output, and pins its digests; `tests/scale_memory.rs` counts its
//! allocations.

use std::mem::MaybeUninit;

use openea_runtime::isa::{self, Backend};
use openea_runtime::pool::{balanced_chunk_len, parallel_chunks};
use openea_runtime::rng::{GaussianLanes, Rng, SmallRng, LANES};

/// Configuration for [`generate_embedded_pair`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Entities per KG side (rows in each embedding matrix).
    pub entities: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Latent cluster count; `0` picks `round(√entities)`.
    pub communities: usize,
    /// Within-community latent scatter, relative to unit center scale.
    pub spread: f32,
    /// Per-side observation noise; the only thing separating aligned rows.
    pub noise: f32,
    /// Master seed; the whole pair is a pure function of this config.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            entities: 100_000,
            dim: 32,
            communities: 0,
            spread: 0.35,
            noise: 0.05,
            seed: 0x005C_A1ED,
        }
    }
}

impl ScaleConfig {
    /// The community count actually used: the configured value, or
    /// `round(√entities)` (at least 1) when left at `0`.
    pub fn resolved_communities(&self) -> usize {
        if self.communities > 0 {
            self.communities
        } else {
            (((self.entities.max(1)) as f64).sqrt().round() as usize).clamp(1, self.entities.max(1))
        }
    }
}

/// Two aligned embedding matrices plus the latent community labels.
///
/// Row-major `entities × dim`; row `i` of `emb1` is the ground-truth match
/// of row `i` of `emb2`.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedPair {
    pub dim: usize,
    pub emb1: Vec<f32>,
    pub emb2: Vec<f32>,
    /// Latent community of each aligned entity pair.
    pub community: Vec<u32>,
}

impl EmbeddedPair {
    /// Aligned entity count (rows per side).
    pub fn entities(&self) -> usize {
        self.community.len()
    }
}

/// Per-entity RNG streams (see module docs).
const STREAM_LATENT: u64 = 0;
const STREAM_SIDE1: u64 = 1;
const STREAM_SIDE2: u64 = 2;

/// Coordinates drawn per stream between two writes of the output rows:
/// three blocks of eight lanes' `[f64; BLOCK]` runs, 6 KiB, stay on the
/// stack for any `dim`.
const BLOCK: usize = 32;

/// A step's draws, one block per stream, 64-byte aligned: every lane's run
/// is [`BLOCK`] `f64`s, whole cache lines, so the lanes' stores and the row
/// writer's loads never split a line, wherever the stack puts the block.
#[repr(align(64))]
struct Draws([[[f64; BLOCK]; LANES]; 3]);

/// What every row of the sweep shares: the cluster centres, the row
/// length, and the scales of the row's Gaussians (`spread` for the latent
/// offsets, `noise` for each side's perturbations, `1/√dim` for both).
#[derive(Clone, Copy)]
struct Rows<'a> {
    centers: &'a [f32],
    dim: usize,
    spread: f64,
    noise: f64,
    inv_sqrt_dim: f64,
}

/// Writes coordinates `d0..d0 + width` of a group's rows on both sides
/// (`group1` and `group2`, whole rows of up to [`LANES`] entities; `picks`
/// their communities) from the block's lane-major draws: row `l`'s
/// coordinate `d` is `centre + spread·lat/√dim + noise·noi/√dim`, rounded
/// once to `f32`, from lane `l`'s run of each stream. One plain loop over
/// contiguous slices per row; [`write_rows`] runs the copy compiled for
/// the active backend.
#[inline(always)]
fn write_rows_body(
    rows: Rows<'_>,
    picks: &[usize; LANES],
    (d0, width): (usize, usize),
    [lat, noi1, noi2]: &[[[f64; BLOCK]; LANES]; 3],
    group1: &mut [MaybeUninit<f32>],
    group2: &mut [MaybeUninit<f32>],
) {
    let Rows {
        centers,
        dim,
        spread,
        noise,
        inv_sqrt_dim,
    } = rows;
    let pairs = group1.chunks_mut(dim).zip(group2.chunks_mut(dim));
    for (l, (row1, row2)) in pairs.enumerate() {
        let center = &centers[picks[l] * dim + d0..][..width];
        let (lat, noi1, noi2) = (&lat[l][..width], &noi1[l][..width], &noi2[l][..width]);
        let (row1, row2) = (&mut row1[d0..d0 + width], &mut row2[d0..d0 + width]);
        for d in 0..width {
            let latent = center[d] as f64 + spread * lat[d] * inv_sqrt_dim;
            row1[d].write((latent + noise * noi1[d] * inv_sqrt_dim) as f32);
            row2[d].write((latent + noise * noi2[d] * inv_sqrt_dim) as f32);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn write_rows_avx2(
    rows: Rows<'_>,
    picks: &[usize; LANES],
    span: (usize, usize),
    draws: &[[[f64; BLOCK]; LANES]; 3],
    group1: &mut [MaybeUninit<f32>],
    group2: &mut [MaybeUninit<f32>],
) {
    write_rows_body(rows, picks, span, draws, group1, group2);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn write_rows_avx512(
    rows: Rows<'_>,
    picks: &[usize; LANES],
    span: (usize, usize),
    draws: &[[[f64; BLOCK]; LANES]; 3],
    group1: &mut [MaybeUninit<f32>],
    group2: &mut [MaybeUninit<f32>],
) {
    write_rows_body(rows, picks, span, draws, group1, group2);
}

/// [`write_rows_body`], compiled for the backend the one ISA switch has
/// active, so the compiler vectorises it at the host's width.
fn write_rows(
    rows: Rows<'_>,
    picks: &[usize; LANES],
    span: (usize, usize),
    draws: &[[[f64; BLOCK]; LANES]; 3],
    group1: &mut [MaybeUninit<f32>],
    group2: &mut [MaybeUninit<f32>],
) {
    match isa::active_backend() {
        Backend::Scalar => write_rows_body(rows, picks, span, draws, group1, group2),
        // SAFETY: `Avx2` is only active where the host has it.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { write_rows_avx2(rows, picks, span, draws, group1, group2) },
        // SAFETY: `Avx512` is only active where the host has AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { write_rows_avx512(rows, picks, span, draws, group1, group2) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => unreachable!("x86 backends run on x86_64 only"),
    }
}

/// Generates an aligned embedded pair from `cfg`, using up to `threads`
/// workers. The result is bit-identical for every `threads` value.
pub fn generate_embedded_pair(cfg: &ScaleConfig, threads: usize) -> EmbeddedPair {
    let n = cfg.entities;
    let dim = cfg.dim.max(1);
    let k = cfg.resolved_communities();
    let inv_sqrt_dim = 1.0 / (dim as f64).sqrt();

    // Cluster centers live on their own stream, disjoint from the per-entity
    // streams (which are < 4·n + 3 « u64::MAX): k·dim values in row-major
    // order.
    let mut crng = SmallRng::stream(cfg.seed, u64::MAX);
    let centers: Vec<f32> = (0..k * dim)
        .map(|_| (crng.gen_gaussian() * inv_sqrt_dim) as f32)
        .collect();

    // Reserved, not filled: the sweep writes every element exactly once.
    let mut community: Vec<u32> = Vec::with_capacity(n);
    let mut emb1: Vec<f32> = Vec::with_capacity(n * dim);
    let mut emb2: Vec<f32> = Vec::with_capacity(n * dim);
    // One task per chunk of rows, carrying that range of all three outputs;
    // a chunk is whole groups of `LANES` entities, so only the last chunk
    // may end in a short group.
    let chunk = balanced_chunk_len(n, threads, 4).next_multiple_of(LANES);
    let mut tasks: Vec<_> = community.spare_capacity_mut()[..n]
        .chunks_mut(chunk)
        .zip(emb1.spare_capacity_mut()[..n * dim].chunks_mut(chunk * dim))
        .zip(emb2.spare_capacity_mut()[..n * dim].chunks_mut(chunk * dim))
        .collect();
    let rows = Rows {
        centers: &centers,
        dim,
        spread: cfg.spread as f64,
        noise: cfg.noise as f64,
        inv_sqrt_dim,
    };
    parallel_chunks(&mut tasks, 1, threads, |ci, task| {
        let ((labels, rows1), rows2) = &mut task[0];
        let mut draws = Draws([[[0.0; BLOCK]; LANES]; 3]);
        for (g, labels) in labels.chunks_mut(LANES).enumerate() {
            // Eight entities per step; a short last group draws its unused
            // lanes (streams of entities past `n`) and stores nothing.
            let first = (ci * chunk + g * LANES) as u64;
            let streams = |s: u64| -> [SmallRng; LANES] {
                std::array::from_fn(|l| SmallRng::stream(cfg.seed, 4 * (first + l as u64) + s))
            };
            let mut latent = streams(STREAM_LATENT);
            // The quadratically skewed pick: the latent stream's first draw.
            let picks: [usize; LANES] = std::array::from_fn(|l| {
                let u: f64 = latent[l].gen_range(0.0..1.0);
                ((u * u * k as f64) as usize).min(k - 1)
            });
            for (label, &c) in labels.iter_mut().zip(&picks) {
                label.write(c as u32);
            }
            let mut lanes = [
                GaussianLanes::new(latent),
                GaussianLanes::new(streams(STREAM_SIDE1)),
                GaussianLanes::new(streams(STREAM_SIDE2)),
            ];
            let span = g * LANES * dim..(g * LANES + labels.len()) * dim;
            let (group1, group2) = (&mut rows1[span.clone()], &mut rows2[span]);
            for d0 in (0..dim).step_by(BLOCK) {
                let width = BLOCK.min(dim - d0);
                for (stream, block) in lanes.iter_mut().zip(&mut draws.0) {
                    stream.fill(block.each_mut().map(|lane| &mut lane[..width]));
                }
                write_rows(rows, &picks, (d0, width), &draws.0, group1, group2);
            }
        }
    });
    drop(tasks);
    // SAFETY: the first `n` labels and `n · dim` coordinates of each side
    // are initialised: the tasks cover them, `parallel_chunks` runs every
    // task exactly once (a panic in one is re-raised before this line), and
    // a task writes every label of its rows and every coordinate of every
    // row, `dim` per row in blocks of `BLOCK`.
    unsafe {
        community.set_len(n);
        emb1.set_len(n * dim);
        emb2.set_len(n * dim);
    }

    EmbeddedPair {
        dim,
        emb1,
        emb2,
        community,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScaleConfig {
        ScaleConfig {
            entities: 300,
            dim: 16,
            communities: 8,
            ..Default::default()
        }
    }

    #[test]
    fn shapes_and_labels_are_consistent() {
        let cfg = small();
        let pair = generate_embedded_pair(&cfg, 2);
        assert_eq!(pair.entities(), 300);
        assert_eq!(pair.emb1.len(), 300 * 16);
        assert_eq!(pair.emb2.len(), 300 * 16);
        assert!(pair.community.iter().all(|&c| c < 8));
        assert!(pair.emb1.iter().all(|v| v.is_finite()));
        assert!(pair.emb2.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn generation_is_deterministic_and_thread_invariant() {
        let cfg = small();
        let a = generate_embedded_pair(&cfg, 1);
        let b = generate_embedded_pair(&cfg, 1);
        assert_eq!(a, b);
        for threads in [2, 4, 7] {
            assert_eq!(
                a,
                generate_embedded_pair(&cfg, threads),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn seed_and_knobs_change_the_output() {
        let base = generate_embedded_pair(&small(), 2);
        let reseeded = generate_embedded_pair(
            &ScaleConfig {
                seed: 0xDEAD,
                ..small()
            },
            2,
        );
        assert_ne!(base.emb1, reseeded.emb1);
        let wider = generate_embedded_pair(
            &ScaleConfig {
                spread: 0.9,
                ..small()
            },
            2,
        );
        // Same streams, different scaling: communities agree, coordinates don't.
        assert_eq!(base.community, wider.community);
        assert_ne!(base.emb1, wider.emb1);
    }

    #[test]
    fn auto_communities_scale_with_sqrt_n() {
        let cfg = ScaleConfig {
            entities: 10_000,
            communities: 0,
            ..Default::default()
        };
        assert_eq!(cfg.resolved_communities(), 100);
        assert_eq!(
            ScaleConfig {
                entities: 0,
                communities: 0,
                ..Default::default()
            }
            .resolved_communities(),
            1
        );
    }

    #[test]
    fn skewed_pick_produces_head_heavy_communities() {
        let cfg = ScaleConfig {
            entities: 4_000,
            communities: 10,
            ..Default::default()
        };
        let pair = generate_embedded_pair(&cfg, 2);
        let mut counts = [0usize; 10];
        for &c in &pair.community {
            counts[c as usize] += 1;
        }
        // u² concentrates mass at low indices: the first community should
        // clearly dominate the last. (Expected ratio ≈ √10 ≫ 2.)
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(counts[0] > 2 * counts[9], "{counts:?}");
    }

    #[test]
    fn aligned_rows_differ_by_the_side_noise() {
        // Aligned rows differ by the two sides' noise only, each coordinate
        // by noise·(g₁ − g₂)/√dim: variance 2·noise²/dim.
        let cfg = ScaleConfig {
            entities: 2_000,
            dim: 32,
            ..Default::default()
        };
        let pair = generate_embedded_pair(&cfg, 2);
        let diffs: Vec<f64> = pair
            .emb1
            .iter()
            .zip(&pair.emb2)
            .map(|(&x, &y)| x as f64 - y as f64)
            .collect();
        let m = diffs.len() as f64;
        let mean = diffs.iter().sum::<f64>() / m;
        let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / m;
        let want = 2.0 * (cfg.noise as f64).powi(2) / cfg.dim as f64;
        assert!(
            (var / want - 1.0).abs() < 0.05,
            "emb1 − emb2 variance {var}, want {want}"
        );
    }

    #[test]
    fn aligned_rows_are_nearest_neighbours() {
        // With noise ≪ spread ≪ center scale, row i of emb1 should almost
        // always be closest (cosine) to row i of emb2.
        let cfg = ScaleConfig {
            entities: 200,
            dim: 16,
            communities: 8,
            spread: 0.35,
            noise: 0.05,
            seed: 7,
        };
        let pair = generate_embedded_pair(&cfg, 2);
        let dim = pair.dim;
        let norm = |row: &[f32]| row.iter().map(|v| (*v as f64).powi(2)).sum::<f64>().sqrt();
        let mut hits = 0usize;
        for q in 0..cfg.entities {
            let a = &pair.emb1[q * dim..(q + 1) * dim];
            let na = norm(a);
            let best = (0..cfg.entities)
                .max_by(|&x, &y| {
                    let score = |t: usize| {
                        let b = &pair.emb2[t * dim..(t + 1) * dim];
                        a.iter()
                            .zip(b)
                            .map(|(&p, &q)| p as f64 * q as f64)
                            .sum::<f64>()
                            / (na * norm(b)).max(1e-30)
                    };
                    score(x).total_cmp(&score(y))
                })
                .unwrap();
            hits += usize::from(best == q);
        }
        let recall = hits as f64 / cfg.entities as f64;
        assert!(recall >= 0.95, "identity recall@1 = {recall}");
    }
}
