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
//! row-major order. Every Gaussian is one
//! [`gen_gaussian`](openea_runtime::rng::Rng::gen_gaussian) call, the
//! runtime's ziggurat. The generator visits each entity once: it seeds the
//! three streams, writes the label, and for each dimension draws one value
//! per stream and writes both sides. The draw order *within* a stream
//! is the whole contract — how the streams interleave is not observable —
//! so the output is a pure function of [`ScaleConfig`], independent of
//! thread count and chunk schedule, and any row can be regenerated in
//! isolation. `tests/scale_inputs.rs` holds it bit for bit to a serial
//! generator that re-derives the latent stream once per output, and pins
//! its digests.

use openea_runtime::pool::{balanced_chunk_len, parallel_chunks};
use openea_runtime::rng::{Rng, SmallRng};

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

    let spread = cfg.spread as f64;
    let noise = cfg.noise as f64;

    let mut community = vec![0u32; n];
    let mut emb1 = vec![0.0f32; n * dim];
    let mut emb2 = vec![0.0f32; n * dim];
    // One task per chunk of rows, carrying that range of all three outputs.
    let chunk = balanced_chunk_len(n, threads, 4);
    let mut tasks: Vec<_> = community
        .chunks_mut(chunk)
        .zip(emb1.chunks_mut(chunk * dim))
        .zip(emb2.chunks_mut(chunk * dim))
        .collect();
    parallel_chunks(&mut tasks, 1, threads, |ci, task| {
        let ((labels, rows1), rows2) = &mut task[0];
        let rows = rows1.chunks_mut(dim).zip(rows2.chunks_mut(dim));
        for (r, (label, (row1, row2))) in labels.iter_mut().zip(rows).enumerate() {
            let i = (ci * chunk + r) as u64;
            let mut lat = SmallRng::stream(cfg.seed, 4 * i + STREAM_LATENT);
            let mut noi1 = SmallRng::stream(cfg.seed, 4 * i + STREAM_SIDE1);
            let mut noi2 = SmallRng::stream(cfg.seed, 4 * i + STREAM_SIDE2);
            // The quadratically skewed pick: the latent stream's first draw.
            let u: f64 = lat.gen_range(0.0..1.0);
            let c = ((u * u * k as f64) as usize).min(k - 1);
            *label = c as u32;
            let center = &centers[c * dim..(c + 1) * dim];
            for ((&mid, s1), s2) in center.iter().zip(row1.iter_mut()).zip(row2.iter_mut()) {
                let latent = mid as f64 + spread * lat.gen_gaussian() * inv_sqrt_dim;
                *s1 = (latent + noise * noi1.gen_gaussian() * inv_sqrt_dim) as f32;
                *s2 = (latent + noise * noi2.gen_gaussian() * inv_sqrt_dim) as f32;
            }
        }
    });

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
