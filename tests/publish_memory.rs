//! The memory contract of the publish path, gated by a count and not a
//! clock: *writing or loading an artifact needs no buffer proportional to
//! it, an IVF generation holds its snapshot plus one byte per target
//! coordinate and O(n), and a reload peaks at the live generation + the new
//! generation + one k-means sample*.
//!
//! Every number here is a byte count from a counting global allocator — the
//! sizes the code asked for — so it repeats exactly, on any host, under any
//! load. One `#[test]` only: nothing else may allocate while a measurement
//! is open. Each bound sits at least one whole embedding matrix below what
//! the whole-buffer codec, the gather-then-transpose IVF build and an IVF
//! partition with an f32 copy of the targets needed.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea_align::ann::TRAIN_SAMPLE;
use openea_align::{AnnConfig, IvfIndex, Metric};
use openea_approaches::{StopReason, TrainTrace};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_serve::{load_artifact, write_sharded, HotSwapIndex, IndexOptions, LruCache, Snapshot};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const N: usize = 20_000;
const DIM: usize = 32;
const SHARDS: usize = 4;
const NLIST: usize = 141;
const KIB: usize = 1024;

fn seeded_snapshot(seed: u64) -> Snapshot {
    let mut rng = SmallRng::seed_from_u64(0x9E37_79B9 ^ seed);
    let mut emb = || -> Vec<f32> { (0..N * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    Snapshot {
        dim: DIM,
        metric: Metric::Cosine,
        emb1: emb(),
        emb2: emb(),
        names1: Vec::new(),
        names2: Vec::new(),
        trace: TrainTrace {
            label: format!("publish-memory-{seed}"),
            epochs: Vec::new(),
            stop: StopReason::default(),
            total_wall_s: 0.0,
        },
        lineage: None,
    }
}

/// One measured step: the most it had live above its inputs, and the most
/// the contract allows it.
struct Reading {
    what: &'static str,
    peak: usize,
    bound: usize,
}

#[test]
fn a_publish_needs_no_buffer_proportional_to_the_artifact() {
    let dir = std::env::temp_dir().join(format!("openea-publish-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (manifest, mono) = (dir.join("live.manifest"), dir.join("live.snap"));
    let snap = seeded_snapshot(1);
    let mut readings = Vec::new();

    // Writing streams: a conversion buffer, never a payload.
    let (written, peak) = ALLOC.measure(|| write_sharded(&snap, &manifest, N / SHARDS));
    assert_eq!(written.unwrap().len(), SHARDS);
    readings.push(Reading {
        what: "write_sharded",
        peak,
        bound: 256 * KIB,
    });
    let (written, peak) = ALLOC.measure(|| snap.write_to(&mono));
    written.unwrap();
    readings.push(Reading {
        what: "Snapshot::write_to",
        peak,
        bound: 256 * KIB,
    });
    let (bytes, peak) = ALLOC.measure(|| snap.encode());
    readings.push(Reading {
        what: "Snapshot::encode",
        peak,
        bound: bytes.len() + 64 * KIB,
    });
    drop(bytes);

    // Loading decodes straight into the vectors it returns.
    let before = ALLOC.live();
    let (art, peak) = ALLOC.measure(|| load_artifact(&manifest, u64::MAX).unwrap());
    assert!(
        art.snapshot == snap,
        "the shard set reassembles the snapshot"
    );
    readings.push(Reading {
        what: "load_artifact(manifest)",
        peak,
        bound: ALLOC.live() - before + 256 * KIB,
    });
    drop(art);
    let before = ALLOC.live();
    let (back, peak) = ALLOC.measure(|| Snapshot::read_from(&mono).unwrap());
    assert!(back == snap, "the monolithic file decodes to the snapshot");
    readings.push(Reading {
        what: "Snapshot::read_from",
        peak,
        bound: ALLOC.live() - before + 256 * KIB,
    });
    drop(back);

    // The IVF partition holds the codes (one byte per target coordinate)
    // and four n-long tables (ids, scales, error bounds, norms) — no f32
    // copy of the corpus; its build keeps none either, and its k-means
    // sample is gone before the codes exist.
    let cfg = AnnConfig {
        nlist: NLIST,
        ..AnnConfig::default()
    };
    let train_sample = TRAIN_SAMPLE.min(N) * DIM * 4;
    let codes_and_tables = N * DIM + 16 * N;
    let before = ALLOC.live();
    let (ivf, peak) = ALLOC.measure(|| IvfIndex::build(&snap.emb2, DIM, snap.metric, &cfg, 2));
    assert_eq!(ivf.len(), N);
    readings.push(Reading {
        what: "IvfIndex::build",
        peak,
        bound: codes_and_tables + train_sample + 512 * KIB,
    });
    readings.push(Reading {
        what: "IvfIndex (held)",
        peak: ALLOC.live() - before,
        bound: codes_and_tables + 64 * KIB,
    });
    drop(ivf);

    // A reload over a live IVF generation: the live one, the new one, one
    // sample.
    let opts = IndexOptions {
        threads: 2,
        nlist: NLIST,
        ..IndexOptions::default()
    };
    // A live IVF generation: the snapshot's two matrices and the
    // partition's codes and tables. Its answer cache grows as answers
    // arrive, so an empty one holds nothing.
    let (cache, cache_bytes) = ALLOC.measure(|| LruCache::new(opts.cache_cap));
    assert_eq!(cache_bytes, 0, "an empty answer cache reserves nothing");
    drop(cache);
    let before = ALLOC.live();
    let (hot, _) = HotSwapIndex::open(&manifest, opts).unwrap();
    let generation = ALLOC.live() - before;
    readings.push(Reading {
        what: "live IVF generation",
        peak: generation,
        bound: 2 * N * DIM * 4 + codes_and_tables + 512 * KIB,
    });
    let next = seeded_snapshot(2);
    write_sharded(&next, &manifest, N / SHARDS).unwrap();
    let (outcome, peak) = ALLOC.measure(|| hot.reload_from(&manifest).unwrap());
    assert_eq!(outcome.generation, next.generation());
    readings.push(Reading {
        what: "HotSwapIndex::reload_from",
        peak,
        bound: generation + train_sample + 512 * KIB,
    });
    drop(hot);
    let _ = std::fs::remove_dir_all(&dir);

    println!("one matrix = {} bytes", N * DIM * 4);
    for r in &readings {
        println!("{:<28} peak {:>10}  bound {:>10}", r.what, r.peak, r.bound);
    }
    for r in &readings {
        assert!(
            r.peak <= r.bound,
            "{} had {} bytes live above its inputs, the contract allows {}",
            r.what,
            r.peak,
            r.bound
        );
    }
}
