//! The index-scale generator against the two-pass generator it replaced, and
//! its output pinned as digests.
//!
//! [`generate_embedded_pair`] fills both sides and the community label in
//! one sweep per entity, drawing each coordinate's Gaussians as it writes
//! them. The reference here is the shape it had before — a community pass,
//! then one pass per side, each re-deriving the entity's latent stream —
//! kept serial and built from the public RNG pieces, each stream's
//! Gaussians drawn up front through `gen_gaussian`, so the one-pass kernel
//! has to give the same bits for every shape, community count and thread
//! count. The digests pin what the index-scale experiments
//! and the benchmark's `scale_200k_ivf_uniform` workload are fed, the way
//! `tests/kg_model.rs` pins the two trained workloads' input.
//!
//! The reference and the 1 000-row pin run under every body the one ISA
//! switch (`openea_runtime::isa`) has on this host, forced in turn: the
//! Gaussian lanes and the row writer pick theirs there, so each body meets
//! a pin. The switch is process-wide, so those tests and the 200 000-row
//! pin, which runs on the host's best body, take turns on [`lock`].

use std::sync::{Mutex, MutexGuard};

use openea::synth::{generate_embedded_pair, EmbeddedPair, ScaleConfig};
use openea_runtime::isa::{self, Backend};
use openea_runtime::rng::{split_seed, Rng, SeedableRng, SmallRng};

/// Serialises the tests that force or rely on the process-wide switch.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed assertion poisons the lock; its data is `()`, so going on is
    // sound.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `check` once under every backend the host supports, forced through
/// the switch, and restores detection afterwards, also when `check` panics.
fn on_every_backend(mut check: impl FnMut(Backend)) {
    struct Detect;
    impl Drop for Detect {
        fn drop(&mut self) {
            isa::force_backend(None);
        }
    }
    let _turn = lock();
    let _restore = Detect;
    for body in isa::supported_backends() {
        assert_eq!(isa::force_backend(Some(body)), body);
        check(body);
    }
}

const STREAM_LATENT: u64 = 0;
const STREAM_SIDE1: u64 = 1;
const STREAM_SIDE2: u64 = 2;

/// The first `n` standard Gaussians of `rng`.
fn gaussians(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_gaussian()).collect()
}

/// The quadratically skewed community pick for entity `i` — the first draw
/// on its latent stream.
fn pick_community(seed: u64, i: usize, k: usize) -> u32 {
    let mut rng = SmallRng::seed_from_u64(split_seed(seed, 4 * i as u64 + STREAM_LATENT));
    let u: f64 = rng.gen_range(0.0..1.0);
    ((u * u * k as f64) as usize).min(k - 1) as u32
}

/// Fills one KG side. Each row re-derives the entity's latent stream (pick
/// + offsets) and then perturbs it with the side's own noise stream.
fn side(cfg: &ScaleConfig, centers: &[f32], dim: usize, k: usize, noise_stream: u64) -> Vec<f32> {
    let n = cfg.entities;
    let inv_sqrt_dim = 1.0 / (dim as f64).sqrt();
    let spread = cfg.spread as f64;
    let noise = cfg.noise as f64;
    let mut emb = vec![0.0f32; n * dim];
    for (r, row) in emb.chunks_mut(dim).enumerate() {
        let i = r as u64;
        let mut lat = SmallRng::seed_from_u64(split_seed(cfg.seed, 4 * i + STREAM_LATENT));
        let u: f64 = lat.gen_range(0.0..1.0);
        let c = ((u * u * k as f64) as usize).min(k - 1);
        let offsets = gaussians(&mut lat, dim);
        let mut noi = SmallRng::seed_from_u64(split_seed(cfg.seed, 4 * i + noise_stream));
        let perturbations = gaussians(&mut noi, dim);
        let center = &centers[c * dim..(c + 1) * dim];
        for (d, slot) in row.iter_mut().enumerate() {
            let latent = center[d] as f64 + spread * offsets[d] * inv_sqrt_dim;
            *slot = (latent + noise * perturbations[d] * inv_sqrt_dim) as f32;
        }
    }
    emb
}

/// The two-pass generator, serial: centers, community pass, side 1, side 2.
fn reference_pair(cfg: &ScaleConfig) -> EmbeddedPair {
    let dim = cfg.dim.max(1);
    let k = cfg.resolved_communities();
    let inv_sqrt_dim = 1.0 / (dim as f64).sqrt();
    let mut crng = SmallRng::seed_from_u64(split_seed(cfg.seed, u64::MAX));
    let centers: Vec<f32> = gaussians(&mut crng, k * dim)
        .into_iter()
        .map(|g| (g * inv_sqrt_dim) as f32)
        .collect();
    EmbeddedPair {
        dim,
        community: (0..cfg.entities)
            .map(|i| pick_community(cfg.seed, i, k))
            .collect(),
        emb1: side(cfg, &centers, dim, k, STREAM_SIDE1),
        emb2: side(cfg, &centers, dim, k, STREAM_SIDE2),
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Shapes chosen for the chunking: no rows, fewer rows than chunks, a short
/// last chunk (257 and 1 000 over 4·threads chunks), and one community; odd
/// dims (1, 3) beside even ones, and dims past one block of draws (40, 67),
/// so the lanes' runs end everywhere in their vector bodies' steps.
#[test]
fn one_pass_generator_matches_the_two_pass_reference_bitwise() {
    let mut cases = Vec::new();
    for entities in [0, 1, 5, 257, 1_000] {
        for dim in [1, 3, 16, 32, 40, 67] {
            for communities in [0, 1, 8] {
                let cfg = ScaleConfig {
                    entities,
                    dim,
                    communities,
                    seed: 0xA11C_E000 + (entities * 64 + dim) as u64,
                    ..Default::default()
                };
                let want = reference_pair(&cfg);
                cases.push((cfg, want));
            }
        }
    }
    on_every_backend(|body| {
        for (cfg, want) in &cases {
            for threads in [1, 2, 3, 8] {
                let got = generate_embedded_pair(cfg, threads);
                let ctx = format!(
                    "{body:?}: n={} dim={} k={} threads={threads}",
                    cfg.entities, cfg.dim, cfg.communities
                );
                assert_eq!(got.dim, want.dim, "{ctx}");
                assert_eq!(got.community, want.community, "{ctx}");
                assert_eq!(bits(&got.emb1), bits(&want.emb1), "emb1 {ctx}");
                assert_eq!(bits(&got.emb2), bits(&want.emb2), "emb2 {ctx}");
            }
        }
    });
}

/// FNV-1a 64 over every `f32` of `emb1` then `emb2` (bit pattern, little
/// endian), then every community label as a little-endian `u32`.
fn digest(pair: &EmbeddedPair) -> u64 {
    let floats = pair.emb1.iter().chain(&pair.emb2).map(|v| v.to_bits());
    floats
        .chain(pair.community.iter().copied())
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn default_pair_digest(entities: usize, seed: u64) -> u64 {
    let cfg = ScaleConfig {
        entities,
        dim: 32,
        seed,
        ..Default::default()
    };
    digest(&generate_embedded_pair(&cfg, 2))
}

/// A change of any generated bit fails here and not first as a different
/// `recall_at_10` in the benchmark's `scale_200k_ivf_uniform`, on every
/// body.
#[test]
fn the_1k_pair_digest_is_pinned() {
    on_every_backend(|body| {
        assert_eq!(
            default_pair_digest(1_000, 7),
            0x87af_93aa_14b1_dadf,
            "{body:?}: the seed-7 1 000 × 32 pair changed"
        );
    });
}

/// What `scale_200k_ivf_uniform --seed 1` publishes and queries, on the
/// body the benchmark runs: the host's best.
#[test]
fn the_200k_benchmark_pair_digest_is_pinned() {
    let _turn = lock();
    assert_eq!(isa::active_backend(), isa::best_supported());
    assert_eq!(
        default_pair_digest(200_000, 1),
        0xa0ca_0362_44dc_ebb7,
        "the seed-1 200 000 × 32 pair changed: it is the benchmark's input"
    );
}
