//! Hot-swap torture suite: concurrent Zipf replay across snapshot flips,
//! plus an exhaustive fault-injection matrix over every artifact framing
//! offset.
//!
//! The contract under test (see `crates/serve/src/swap.rs`):
//!
//! * **Zero dropped** — every query issued while swaps are in flight gets
//!   a well-formed answer.
//! * **Zero stale** — every answer carries a known generation, and the
//!   generations one client observes never move backwards through the
//!   publish order.
//! * **Bit-identical** — every answer equals the dense reference of the
//!   generation it was computed under, bit for bit, at any thread count,
//!   `k`, or probe.
//! * **Fault atomicity** — a reload that hits *any* corruption (truncated
//!   file, flipped bit, missing shard, foreign-generation shard, stale
//!   checksum, non-atomic writer) fails with a typed [`SnapshotError`]
//!   and the live index keeps answering bit-identically.

use openea_align::Metric;
use openea_approaches::{StopReason, TrainTrace};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::faults::{bit_flips, truncations, Fault, SlowWriter};
use openea_runtime::testkit::replay::{replay, ReplayOptions, ReplayOutcome, ReplayReport};
use openea_serve::{
    shard_path, write_sharded, BatchIndex, HotSwapIndex, IndexOptions, Probe, Snapshot,
    SnapshotError,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N1: usize = 40;
const N2: usize = 48;
const DIM: usize = 8;

/// A scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "openea-torture-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic synthetic snapshot: each `seed` is one distinct
/// generation of the "same" deployment (same shape, different weights).
fn synth_snapshot(seed: u64) -> Snapshot {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0000 ^ seed);
    let mut emb =
        |n: usize| -> Vec<f32> { (0..n * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    Snapshot {
        dim: DIM,
        metric: Metric::Cosine,
        emb1: emb(N1),
        emb2: emb(N2),
        names1: Vec::new(),
        names2: Vec::new(),
        trace: TrainTrace {
            label: format!("torture-gen-{seed}"),
            epochs: Vec::new(),
            stop: StopReason::default(),
            total_wall_s: 0.0,
        },
        lineage: None,
    }
}

fn build_opts(threads: usize, nlist: usize) -> IndexOptions {
    IndexOptions {
        threads,
        cache_cap: 64,
        nlist,
        warm_keys: 16,
        ..IndexOptions::default()
    }
}

/// Per-generation reference: an independently built index with identical
/// options. Served answers must match its output bit for bit — the
/// determinism contract says answers are independent of threading,
/// batching and cache state, so any divergence is a real wrong answer.
struct References {
    by_generation: HashMap<u64, (usize, Arc<BatchIndex>)>,
}

impl References {
    fn new(snapshots: &[u64], opts: IndexOptions) -> Self {
        let by_generation = snapshots
            .iter()
            .enumerate()
            .map(|(publish_idx, &seed)| {
                let snap = synth_snapshot(seed);
                (snap.generation(), (publish_idx, opts.build(snap)))
            })
            .collect();
        Self { by_generation }
    }
}

/// One replay round against `hot`, classifying every query by the swap
/// contract. Each client tracks the publish index of the generations it
/// observes and flags any backwards move as stale.
fn torture_replay(
    hot: &Arc<HotSwapIndex>,
    refs: &References,
    clients: usize,
    queries_per_client: usize,
    seed: u64,
) -> ReplayReport {
    let opts = ReplayOptions {
        clients,
        queries_per_client,
        zipf_s: 1.1,
        seed,
    };
    replay(N1, &opts, |client| {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC11E ^ (client as u64));
        let mut last_publish = 0usize;
        move |entity| {
            let entity = entity as u32;
            let k = if rng.gen_range(0..2u32) == 0 { 1 } else { 10 };
            let probe = if rng.gen_range(0..2u32) == 0 {
                Probe::Exact
            } else {
                Probe::Nprobe(2)
            };
            // Hold one index for the whole query, exactly like one HTTP
            // request does.
            let index = hot.current();
            let generation = index.index().generation();
            let Some(&(publish_idx, ref reference)) = refs.by_generation.get(&generation) else {
                return ReplayOutcome::Stale(format!("unknown generation {generation:#x}"));
            };
            if publish_idx < last_publish {
                return ReplayOutcome::Stale(format!(
                    "generation went backwards: publish {publish_idx} after {last_publish}"
                ));
            }
            last_publish = publish_idx;
            let got = match index.query_probed(entity, k, Some(probe)) {
                Ok(a) => a,
                Err(e) => return ReplayOutcome::Dropped(format!("entity {entity} k {k}: {e}")),
            };
            let want = reference
                .query_probed(entity, k, Some(probe))
                .expect("reference query");
            if got.len() != want.len()
                || got
                    .iter()
                    .zip(&want)
                    .any(|(&(t, s), &(wt, ws))| t != wt || s.to_bits() != ws.to_bits())
            {
                return ReplayOutcome::Incorrect(format!(
                    "entity {entity} k {k} {} gen {generation:#x}: {got:?} vs {want:?}",
                    probe.label()
                ));
            }
            ReplayOutcome::Ok
        }
    })
}

/// The tentpole assertion: Zipf replay at 1/2/8 client threads, mixed
/// `k ∈ {1, 10}` and Exact/Nprobe probes, while the index flips through
/// four generations — zero dropped, zero stale, zero bit-divergent.
#[test]
fn zipf_replay_stays_clean_across_hot_swaps() {
    let seeds = [1u64, 2, 3, 4];
    for (case, &clients) in [1usize, 2, 8].iter().enumerate() {
        // nlist > 0 so Nprobe(2) actually exercises the two-stage path.
        let opts = build_opts(2, 4);
        let refs = References::new(&seeds, opts);
        let hot = HotSwapIndex::fixed_with(opts.build(synth_snapshot(seeds[0])), opts);

        let done = Arc::new(AtomicBool::new(false));
        let mut report = ReplayReport::default();
        let mut flips = 0usize;
        std::thread::scope(|s| {
            let swapper = {
                let hot = Arc::clone(&hot);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    for &seed in &seeds[1..] {
                        std::thread::sleep(Duration::from_millis(15));
                        hot.swap_in(synth_snapshot(seed));
                    }
                    done.store(true, Ordering::SeqCst);
                })
            };
            // Keep replaying rounds until every flip has landed, so the
            // load provably spans all of them.
            let mut round = 0u64;
            loop {
                let finished = done.load(Ordering::SeqCst);
                let r = torture_replay(&hot, &refs, clients, 300, 0xA0 + case as u64 + round);
                report.total += r.total;
                report.ok += r.ok;
                report.dropped += r.dropped;
                report.stale += r.stale;
                report.incorrect += r.incorrect;
                for f in r.failures {
                    if report.failures.len() < 8 {
                        report.failures.push(f);
                    }
                }
                round += 1;
                if finished {
                    break;
                }
            }
            swapper.join().unwrap();
            flips = hot.stats().reloads as usize;
        });

        assert!(flips >= 3, "expected >= 3 flips, got {flips}");
        assert!(
            report.clean(),
            "clients {clients}: dropped {} stale {} incorrect {} of {}\n{:#?}",
            report.dropped,
            report.stale,
            report.incorrect,
            report.total,
            report.failures,
        );
        assert_eq!(
            hot.current().index().generation(),
            synth_snapshot(seeds[3]).generation(),
            "final generation is the last published"
        );
    }
}

/// Classifies a reload error for coverage accounting.
fn variant(e: &SnapshotError) -> &'static str {
    match e {
        SnapshotError::Io(_) => "io",
        SnapshotError::BadMagic => "bad-magic",
        SnapshotError::UnsupportedVersion(_) => "unsupported-version",
        SnapshotError::Truncated { .. } => "truncated",
        SnapshotError::ChecksumMismatch { .. } => "checksum",
        SnapshotError::Malformed(_) => "malformed",
        SnapshotError::MissingShard { .. } => "missing-shard",
        SnapshotError::ShardChecksumMismatch { .. } => "shard-checksum",
        SnapshotError::GenerationMismatch { .. } => "generation-mismatch",
    }
}

/// Reference answers for a fixed probe/k grid, for bit-comparison before
/// and after failed reloads.
fn grid_answers(index: &BatchIndex) -> Vec<Vec<(u32, f32)>> {
    let mut out = Vec::new();
    for entity in [0u32, 7, 39] {
        for k in [1usize, 10] {
            out.push(index.query_probed(entity, k, Some(Probe::Exact)).unwrap());
        }
    }
    out
}

/// Monolithic-snapshot fault matrix: every sampled truncation offset,
/// every sampled bit flip, and removal. Each injected fault must yield a
/// typed error and leave the serving index bit-identical; the pristine
/// artifact must then load cleanly.
#[test]
fn every_injected_fault_is_typed_and_serving_survives() {
    let dir = TempDir::new("faults");
    let live = dir.0.join("live.snap");
    synth_snapshot(1).write_to(&live).unwrap();
    let (hot, _) = HotSwapIndex::open(&live, build_opts(1, 0)).unwrap();
    let baseline = grid_answers(&hot.current());
    let gen_a = hot.current().index().generation();

    let pristine = synth_snapshot(2).encode();
    let mut faults = truncations(pristine.len(), 97);
    faults.extend(bit_flips(pristine.len(), 211));
    faults.push(Fault::Remove);

    let mut seen = std::collections::HashSet::new();
    let mut failures = 0u64;
    for fault in &faults {
        fault.inject(&live, &pristine).unwrap();
        let err = hot
            .reload()
            .expect_err(&format!("{fault:?} must fail the reload"));
        seen.insert(variant(&err));
        failures += 1;
        assert_eq!(
            hot.current().index().generation(),
            gen_a,
            "{fault:?}: live generation changed on a failed reload"
        );
        assert_eq!(
            grid_answers(&hot.current()),
            baseline,
            "{fault:?}: answers drifted after a failed reload"
        );
    }
    let stats = hot.stats();
    assert_eq!(stats.reload_failures, failures);
    assert_eq!(stats.reloads, 0);
    assert!(stats.last_error.is_some());

    // The matrix must have exercised the distinct corruption paths, not
    // funneled everything into one catch-all.
    for needed in ["bad-magic", "truncated", "checksum", "io"] {
        assert!(
            seen.contains(needed),
            "no fault produced {needed}: {seen:?}"
        );
    }

    // Pristine artifact: the reload succeeds and flips.
    std::fs::write(&live, &pristine).unwrap();
    let outcome = hot.reload().unwrap();
    assert_eq!(outcome.generation, synth_snapshot(2).generation());
    assert_ne!(outcome.generation, gen_a);
    assert_eq!(hot.stats().reloads, 1);
}

/// Sharded-manifest fault matrix: missing shard, foreign-generation
/// shard, and a stale-checksum shard (internally consistent, same
/// generation, different bytes) each produce their own typed error.
#[test]
fn sharded_faults_produce_their_own_typed_errors() {
    let dir = TempDir::new("shards");
    let live = dir.0.join("live.manifest");
    let snap_a = synth_snapshot(1);
    write_sharded(&snap_a, &live, 16).unwrap(); // 48 targets → 3 shards
    let (hot, coverage) = HotSwapIndex::open(&live, build_opts(1, 0)).unwrap();
    assert_eq!(coverage.shards_total, 3);
    assert!(!coverage.partial());
    let baseline = grid_answers(&hot.current());
    let gen_a = hot.current().index().generation();
    let shard1 = shard_path(&live, 1);
    let shard1_pristine = std::fs::read(&shard1).unwrap();

    // Missing shard.
    std::fs::remove_file(&shard1).unwrap();
    match hot.reload() {
        Err(SnapshotError::MissingShard { index: 1, .. }) => {}
        other => panic!("expected MissingShard, got {other:?}"),
    }
    assert_eq!(grid_answers(&hot.current()), baseline);

    // Foreign-generation shard: same layout, different snapshot.
    let foreign = dir.0.join("foreign.manifest");
    write_sharded(&synth_snapshot(9), &foreign, 16).unwrap();
    std::fs::copy(shard_path(&foreign, 1), &shard1).unwrap();
    match hot.reload() {
        Err(SnapshotError::GenerationMismatch { index: 1, .. }) => {}
        other => panic!("expected GenerationMismatch, got {other:?}"),
    }
    assert_eq!(grid_answers(&hot.current()), baseline);

    // Stale-checksum shard: re-shard the *same* snapshot at a different
    // granularity, so shard 1 is internally consistent and carries the
    // right generation but covers other rows than the manifest sealed.
    let regrain = dir.0.join("regrain.manifest");
    write_sharded(&snap_a, &regrain, 24).unwrap();
    std::fs::copy(shard_path(&regrain, 1), &shard1).unwrap();
    match hot.reload() {
        Err(SnapshotError::ShardChecksumMismatch { index: 1, .. }) => {}
        other => panic!("expected ShardChecksumMismatch, got {other:?}"),
    }
    assert_eq!(grid_answers(&hot.current()), baseline);
    assert_eq!(hot.current().index().generation(), gen_a);
    assert_eq!(hot.stats().reload_failures, 3);

    // Restore the pristine shard: full reload succeeds (same generation —
    // the artifact never actually changed).
    std::fs::write(&shard1, &shard1_pristine).unwrap();
    let outcome = hot.reload().unwrap();
    assert_eq!(outcome.generation, gen_a);
    assert_eq!(outcome.coverage.shards_loaded, 3);
}

/// A producer that ignores tmp-then-rename and dribbles bytes straight
/// into the live path: every mid-write reload attempt must fail typed
/// (never publish a torn artifact), serving stays on the old generation,
/// and once the write completes the reload lands the new generation.
#[test]
fn slow_non_atomic_writer_never_publishes_a_torn_artifact() {
    let dir = TempDir::new("slow");
    let live = dir.0.join("live.snap");
    synth_snapshot(1).write_to(&live).unwrap();
    let (hot, _) = HotSwapIndex::open(&live, build_opts(1, 0)).unwrap();
    let gen_a = hot.current().index().generation();
    let gen_b = synth_snapshot(2).generation();
    let baseline = grid_answers(&hot.current());

    let bytes = synth_snapshot(2).encode();
    let writer = SlowWriter::start(&live, bytes, 256, Duration::from_millis(1));
    let mut mid_write_failures = 0usize;
    loop {
        match hot.reload() {
            Ok(outcome) if outcome.generation == gen_b => break,
            Ok(outcome) => {
                // A reload that slipped in before the writer truncated the
                // file reads the complete old image — still never torn.
                assert_eq!(
                    outcome.generation, gen_a,
                    "published neither the old nor the new artifact"
                );
            }
            Err(_) => {
                mid_write_failures += 1;
                let gen = hot.current().index().generation();
                assert_ne!(gen, gen_b, "torn reload must not publish the new artifact");
                if gen == gen_a {
                    assert_eq!(grid_answers(&hot.current()), baseline);
                }
            }
        }
        std::thread::sleep(Duration::from_micros(300));
    }
    writer.finish().unwrap();
    // The loop may have landed the flip mid-write only at the final byte;
    // after finish() the artifact is complete and must load.
    if hot.current().index().generation() != gen_b {
        hot.reload().unwrap();
    }
    assert_eq!(hot.current().index().generation(), gen_b);
    assert!(
        mid_write_failures > 0,
        "the slow writer should have exposed at least one torn prefix"
    );
}

/// The watcher picks up an atomically republished artifact by itself —
/// no admin call — and budget-truncated loads surface as partial
/// coverage with a distinct generation.
#[test]
fn watcher_follows_the_artifact_and_budgeted_loads_stay_distinct() {
    let dir = TempDir::new("watch");
    let live = dir.0.join("live.snap");
    synth_snapshot(1).write_to(&live).unwrap();
    let (hot, _) = HotSwapIndex::open(&live, build_opts(1, 0)).unwrap();
    let gen_b = synth_snapshot(2).generation();
    let mut watcher = hot.spawn_watcher(Duration::from_millis(10));

    // Atomic republish (write_to is tmp-then-rename).
    synth_snapshot(2).write_to(&live).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while hot.current().index().generation() != gen_b {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never picked up the new artifact"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    watcher.stop();
    assert!(hot.stats().reloads >= 1);

    // Budgeted partial load of a sharded artifact: fewer entities, a
    // generation that can never alias the full snapshot's.
    let manifest = dir.0.join("big.manifest");
    let full = synth_snapshot(3);
    write_sharded(&full, &manifest, 16).unwrap();
    let budget_opts = IndexOptions {
        // One shard of 16 rows × dim 8 × 4 bytes.
        mem_budget_bytes: 16 * DIM as u64 * 4,
        ..build_opts(1, 0)
    };
    let (partial_hot, coverage) = HotSwapIndex::open(&manifest, budget_opts).unwrap();
    assert!(coverage.partial());
    assert_eq!(coverage.shards_loaded, 1);
    assert_eq!(coverage.loaded_entities, 16);
    assert_eq!(coverage.total_entities, N2);
    let st = partial_hot.stats();
    assert_eq!(st.coverage.loaded_entities, 16);
    assert_eq!(st.coverage.total_entities, N2);
    assert_ne!(
        partial_hot.current().index().generation(),
        full.generation(),
        "a budget-truncated load must have its own generation"
    );
}
