//! End-to-end serving path: train a registry approach with checkpointing →
//! the driver engine emits snapshots through `SnapshotWriter` → the final
//! snapshot loads into a `BatchIndex` → a real HTTP server answers
//! concurrent clients bit-identically to the offline dense evaluation. Then
//! the same server across a hot swap, and across the live chain: delta
//! generations trained from the served artifact and flipped in by the watcher.

mod common;

use common::{connect, http_get, tiny_snapshot};
use openea_align::{Metric, SimilarityMatrix};
use openea_approaches::common::EpochStats;
use openea_approaches::{
    approach_by_name, evaluate_output, run_driver, ApproachOutput, Budget, CheckpointSink,
    EpochHooks, Lineage, RunConfig, RunContext, StopReason, TrainError,
};
use openea_core::{k_fold_splits, EntityId, KgPair};
use openea_runtime::json::Json;
use openea_runtime::rng::{SeedableRng, SmallRng};
use openea_serve::{
    serve_hot, BatchIndex, HotSwapIndex, IndexOptions, ServerOptions, Snapshot, SnapshotError,
    SnapshotWriter,
};
use openea_synth::{DatasetFamily, EvolutionConfig, PresetConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "openea-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A generation the way the server prints it.
fn hex(generation: u64) -> String {
    format!("{generation:#018x}")
}

/// The engine keeps a checkpoint only when it beats the best so far, so on
/// a tie it returns the earlier one — and the rolling checkpoint file must
/// hold that one too, not the later tie.
#[test]
fn checkpoint_file_holds_the_returned_output_when_validation_ties() {
    /// Every epoch's output scores validation Hits@1 0.5 (source 1 sits on
    /// target 0), and a third KG2 row, which no validation pair ranks,
    /// carries the epoch so that the outputs differ.
    struct Tied {
        epoch: usize,
    }
    impl EpochHooks for Tied {
        fn train_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
            self.epoch = epoch;
            EpochStats {
                mean_loss: 1.0,
                pairs: 1,
            }
        }
        fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
            let emb2 = vec![1.0, 0.0, 0.0, 1.0, self.epoch as f32, 0.0];
            ApproachOutput::new(2, Metric::Cosine, vec![1.0, 0.0, 1.0, 0.0], emb2)
        }
    }
    let rc = RunConfig {
        dim: 2,
        max_epochs: 2,
        check_every: 1,
        ..RunConfig::default()
    };
    let valid = [(EntityId(0), EntityId(0)), (EntityId(1), EntityId(1))];
    let dir = TempDir::new("tie");
    let writer = SnapshotWriter::new(&dir.0, Vec::new(), Vec::new());
    let ctx = RunContext::new(&rc)
        .for_valid(&valid)
        .with_artifacts(&writer);
    let out = run_driver("Tied", &mut Tied { epoch: 0 }, &ctx, &rc).unwrap();
    let scores: Vec<Option<f64>> = out.trace.epochs.iter().map(|e| e.val_hits1).collect();
    assert_eq!(scores, [Some(0.5), Some(0.5)], "the two checkpoints tie");
    assert_eq!(out.emb2[4], 0.0, "a tie keeps the earlier checkpoint");
    let on_disk = Snapshot::read_from(&writer.checkpoint_path("Tied")).expect("a checkpoint");
    assert_eq!(
        hex(on_disk.generation()),
        hex(Snapshot::from_output(&out, Vec::new(), Vec::new()).generation()),
        "the checkpoint file must hold the output the run returned"
    );
    assert_eq!(writer.checkpoints_written(), 1);
}

/// With a `SnapshotWriter` installed, the engine drops its own copy of the
/// best checkpoint once the writer holds it in `<label>.ckpt.snap`, and reads
/// it back when the loop ends: the model a registry run returns is the
/// sinkless run's, bit for bit.
#[test]
fn a_run_whose_writer_holds_the_best_returns_the_sinkless_model() {
    let pair = PresetConfig::new(DatasetFamily::DY, 150, false, 5).generate();
    let mut rng = SmallRng::seed_from_u64(5);
    let fold = k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
    let rc = RunConfig {
        dim: 8,
        max_epochs: 30,
        patience: usize::MAX,
        threads: 2,
        ..RunConfig::default()
    };
    for name in ["GCNAlign", "MTransE"] {
        let approach = approach_by_name(name).expect("registry approach");
        let plain = approach
            .try_run(&pair, &fold, &rc, &RunContext::new(&rc))
            .expect("a sinkless run");
        let dir = TempDir::new(name);
        let writer = SnapshotWriter::new(&dir.0, Vec::new(), Vec::new());
        let ctx = RunContext::new(&rc).with_artifacts(&writer);
        let held = approach
            .try_run(&pair, &fold, &rc, &ctx)
            .expect("a run with the writer");
        assert!(writer.take_error().is_none(), "{name}");
        assert!(writer.holds(name), "{name}: the writer holds the best");
        assert_eq!(
            hex(held.content_hash()),
            hex(plain.content_hash()),
            "{name}: the restored best is the sinkless run's"
        );
    }
}

/// Hooks whose epoch-`e` output scores validation Hits@1 `scores[e]` (1.0 or
/// 0.5) and carries `e` in a KG2 row no validation pair ranks. `meddle`
/// runs after each epoch's training, before its validation.
struct Meddled<'a> {
    scores: &'a [f64],
    epoch: usize,
    meddle: &'a dyn Fn(usize),
}

impl EpochHooks for Meddled<'_> {
    fn train_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        self.epoch = epoch;
        EpochStats {
            mean_loss: 1.0,
            pairs: 1,
        }
    }
    fn after_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) {
        (self.meddle)(epoch);
    }
    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        // Source 1 on target 1 scores 1.0; on target 0, 0.5.
        let emb1 = if self.scores[self.epoch] == 1.0 {
            vec![1.0, 0.0, 0.0, 1.0]
        } else {
            vec![1.0, 0.0, 1.0, 0.0]
        };
        let emb2 = vec![1.0, 0.0, 0.0, 1.0, self.epoch as f32, 0.0];
        ApproachOutput::new(2, Metric::Cosine, emb1, emb2)
    }
}

/// One validation per epoch of a `scores.len()`-epoch run, into `writer`
/// when given.
fn meddled_run(
    scores: &[f64],
    writer: Option<&SnapshotWriter>,
    meddle: &dyn Fn(usize),
) -> Result<ApproachOutput, TrainError> {
    let rc = RunConfig {
        dim: 2,
        max_epochs: scores.len(),
        check_every: 1,
        ..RunConfig::default()
    };
    let valid = [(EntityId(0), EntityId(0)), (EntityId(1), EntityId(1))];
    let mut ctx = RunContext::new(&rc).for_valid(&valid);
    if let Some(writer) = writer {
        ctx = ctx.with_artifacts(writer);
    }
    let mut hooks = Meddled {
        scores,
        epoch: 0,
        meddle,
    };
    run_driver("Meddled", &mut hooks, &ctx, &rc)
}

/// The writer restores only the file it wrote: replaced by another valid
/// snapshot, or removed, the checkpoint is lost — a typed error with its
/// cause on the writer, never another model.
#[test]
fn snapshot_writer_restores_only_the_checkpoint_it_wrote() {
    let scores = [1.0, 0.5, 0.5];
    let plain = meddled_run(&scores, None, &|_| {}).unwrap();
    let dir = TempDir::new("restore");
    let writer = SnapshotWriter::new(&dir.0, Vec::new(), Vec::new());
    let ckpt = writer.checkpoint_path("Meddled");

    let out = meddled_run(&scores, Some(&writer), &|_| {}).unwrap();
    assert!(writer.take_error().is_none());
    assert!(writer.holds("Meddled"));
    assert_eq!(out.emb2[4], 0.0, "epoch 0 is the best");
    assert_eq!(hex(out.content_hash()), hex(plain.content_hash()));

    let replace = |epoch: usize| {
        if epoch == 2 {
            tiny_snapshot(2, 3, 2, 9).write_to(&ckpt).unwrap();
        }
    };
    let err = meddled_run(&scores, Some(&writer), &replace).unwrap_err();
    assert_eq!(err, TrainError::CheckpointLost { epoch: 0 });
    let cause = writer.take_error().expect("the cause stays on the writer");
    assert!(
        matches!(cause, SnapshotError::ChecksumMismatch { .. }),
        "{cause:?}"
    );

    let remove = |epoch: usize| {
        if epoch == 2 {
            std::fs::remove_file(&ckpt).unwrap();
        }
    };
    let err = meddled_run(&scores, Some(&writer), &remove).unwrap_err();
    assert_eq!(err, TrainError::CheckpointLost { epoch: 0 });
    let cause = writer.take_error().expect("the cause stays on the writer");
    assert!(matches!(cause, SnapshotError::Io(_)), "{cause:?}");
}

/// A checkpoint write that fails clears what the writer holds, so the
/// engine keeps that best in memory and returns it.
#[test]
fn a_failed_checkpoint_write_keeps_the_best_in_memory() {
    let scores = [0.5, 1.0, 0.5];
    let plain = meddled_run(&scores, None, &|_| {}).unwrap();
    let dir = TempDir::new("unwritable");
    let writer = SnapshotWriter::new(&dir.0, Vec::new(), Vec::new());
    let unwritable = |epoch: usize| {
        if epoch == 1 {
            std::fs::remove_dir_all(&dir.0).unwrap();
        }
    };
    let out = meddled_run(&scores, Some(&writer), &unwritable).unwrap();
    assert_eq!(writer.checkpoints_written(), 1, "epoch 1's write failed");
    assert!(!writer.holds("Meddled"));
    assert!(writer.take_error().is_some());
    assert_eq!(out.emb2[4], 1.0, "epoch 1 is the best");
    assert_eq!(hex(out.content_hash()), hex(plain.content_hash()));
}

#[test]
fn train_snapshot_serve_roundtrip_is_bit_identical_to_dense() {
    // 1. Train a registry approach with validation checkpointing and the
    //    snapshot writer installed as the engine's artifact sink.
    let pair = PresetConfig::new(DatasetFamily::DY, 90, false, 41).generate();
    let mut rng = SmallRng::seed_from_u64(0);
    let folds = k_fold_splits(&pair.alignment, 3, &mut rng);
    let rc = RunConfig {
        dim: 8,
        max_epochs: 12,
        threads: 2,
        ..RunConfig::default()
    };
    let dir = TempDir::new("e2e");
    let names1: Vec<String> = pair
        .kg1
        .entity_ids()
        .map(|e| pair.kg1.entity_name(e).to_owned())
        .collect();
    let names2: Vec<String> = pair
        .kg2
        .entity_ids()
        .map(|e| pair.kg2.entity_name(e).to_owned())
        .collect();
    let writer = SnapshotWriter::new(&dir.0, names1, names2);
    let approach = approach_by_name("MTransE").expect("registry approach");
    let ctx = RunContext::new(&rc)
        .for_valid(&folds[0].valid)
        .with_artifacts(&writer);
    let out = approach.run_with(&pair, &folds[0], &rc, &ctx);

    assert!(
        writer.take_error().is_none(),
        "snapshot writes must succeed"
    );
    assert_eq!(writer.completions_written(), 1, "one final snapshot");
    assert!(
        writer.checkpoints_written() >= 1,
        "validation checkpoints must emit rolling snapshots"
    );
    assert!(writer.checkpoint_path("MTransE").exists());

    // 2. The persisted artifact is the training output, bit for bit.
    let snap = Snapshot::read_from(&writer.final_path("MTransE")).expect("valid snapshot");
    assert_eq!(snap.trace.label, "MTransE");
    assert_eq!(
        snap.to_output().content_hash(),
        out.content_hash(),
        "snapshot must preserve the trained embeddings bit-exactly"
    );
    assert_eq!(snap.names1.len(), snap.num_queries());

    // 3. Dense offline reference for every entity's full ranking.
    let sim = SimilarityMatrix::compute_naive(&snap.emb1, &snap.emb2, snap.dim, snap.metric, 1);
    let expected_topk = |entity: usize, k: usize| -> Vec<(u32, f64)> {
        let row = sim.row(entity);
        let mut idx: Vec<u32> = (0..row.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            row[b as usize]
                .partial_cmp(&row[a as usize])
                .expect("finite")
                .then(a.cmp(&b))
        });
        idx.into_iter()
            .take(k)
            .map(|j| (j, row[j as usize] as f64))
            .collect()
    };

    // 4. Serve it and hit it with concurrent keep-alive clients.
    let n1 = snap.num_queries();
    let opts = IndexOptions {
        cache_cap: 128,
        ..IndexOptions::default()
    };
    let mut handle = serve_hot(
        HotSwapIndex::fixed_with(opts.build(snap), opts),
        "127.0.0.1:0".parse().unwrap(),
        ServerOptions {
            workers: 4,
            queue_cap: 32,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr();

    std::thread::scope(|s| {
        for client in 0..4usize {
            s.spawn(move || {
                let mut conn = connect(addr);
                for q in 0..20usize {
                    let entity = (client * 7 + q * 3) % n1;
                    let k = 1 + (q % 5);
                    let (status, body) =
                        http_get(&mut conn, &format!("/align?entity={entity}&k={k}"));
                    assert_eq!(status, 200, "client {client} query {q}");
                    let results = body
                        .get("results")
                        .and_then(Json::as_array)
                        .expect("results array");
                    let want = expected_topk(entity, k);
                    assert_eq!(results.len(), want.len());
                    for (r, &(target, score)) in results.iter().zip(&want) {
                        assert_eq!(r.get("target").and_then(Json::as_f64), Some(target as f64));
                        // The codec prints shortest-roundtrip doubles, so the
                        // served score survives HTTP bit-exactly.
                        let got = r.get("score").and_then(Json::as_f64).expect("score");
                        assert_eq!(
                            got.to_bits(),
                            score.to_bits(),
                            "entity {entity} target {target}: {got} vs {score}"
                        );
                        assert!(
                            r.get("name").and_then(Json::as_str).is_some(),
                            "snapshot carries a name map, responses must use it"
                        );
                    }
                }
            });
        }
    });

    // 5. Routes and error paths over one more connection.
    let mut conn = connect(addr);
    let (status, body) = http_get(&mut conn, "/health");
    assert_eq!(status, 200);
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));

    let (status, stats) = http_get(&mut conn, "/stats");
    assert_eq!(status, 200);
    assert!(stats.get("served").and_then(Json::as_f64).unwrap() >= 80.0);
    assert!(stats.get("cache_hit_rate").is_some());
    assert!(stats.get("latency_p99_us").is_some());
    assert!(stats.get("mean_batch_occupancy").is_some());
    // Freshness gauges: a cold snapshot has no parent and reports its
    // trace length as the cumulative epoch count.
    assert!(stats.get("snapshot_age_ms").and_then(Json::as_f64).unwrap() >= 0.0);
    assert_eq!(
        stats.get("parent_generation").and_then(Json::as_str),
        Some("0x0000000000000000")
    );
    assert!(stats.get("trained_epochs").and_then(Json::as_f64).unwrap() >= 1.0);

    let (status, _) = http_get(&mut conn, &format!("/align?entity={}&k=3", n1 + 5));
    assert_eq!(status, 404, "out-of-range entity is a typed 404");
    let (status, _) = http_get(&mut conn, "/align?k=3");
    assert_eq!(status, 400, "missing entity parameter is a 400");
    let (status, _) = http_get(&mut conn, "/align?entity=0&k=0");
    assert_eq!(status, 400, "k == 0 is a 400");
    let (status, _) = http_get(&mut conn, "/align?entity=0&k=3&nprobe=abc");
    assert_eq!(
        status, 400,
        "malformed nprobe is a 400, not the default probe"
    );
    let (status, _) = http_get(&mut conn, "/align?entity=0&k=3&nprobe=99999999999999999999");
    assert_eq!(
        status, 400,
        "overflowing nprobe is a 400, not the default probe"
    );
    let (status, _) = http_get(&mut conn, "/nope");
    assert_eq!(status, 404);

    handle.stop();
}

/// A keep-alive client connection spans `/admin/reload`: answers before
/// the flip come from the old generation, answers after from the new one,
/// the generation a connection observes never moves backwards, `/stats`
/// reflects the swap, and a corrupt artifact yields 409 with serving
/// intact.
#[test]
fn hot_swap_mid_connection_is_monotone_and_bit_correct() {
    let dir = TempDir::new("hotswap");
    let live = dir.0.join("live.snap");
    // Same shape per seed, different weights: two "deployments" of one model.
    let deployment = |seed: u64| tiny_snapshot(24, 30, 6, seed);
    let snap_a = deployment(1);
    let mut snap_b = deployment(2);
    let (gen_a, gen_b) = (snap_a.generation(), snap_b.generation());
    // B is a warm-started child of A: lineage is provenance only and must
    // not move the generation, while /stats surfaces it after the flip.
    snap_b.lineage = Some(Lineage {
        parent_generation: gen_a,
        trained_epochs: 7,
    });
    assert_eq!(snap_b.generation(), gen_b);
    snap_a.write_to(&live).unwrap();

    let opts = IndexOptions {
        threads: 2,
        cache_cap: 64,
        warm_keys: 8,
        ..IndexOptions::default()
    };
    let (hot, coverage) = HotSwapIndex::open(&live, opts).unwrap();
    assert!(!coverage.partial());
    let mut handle = serve_hot(
        hot,
        "127.0.0.1:0".parse().unwrap(),
        ServerOptions {
            workers: 4,
            queue_cap: 32,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr();

    // Local references with identical options: served answers must match
    // bit for bit under whichever generation the server reports.
    let ref_a = opts.build(deployment(1));
    let ref_b = opts.build(deployment(2));
    let expect = |reference: &BatchIndex, entity: u32, k: usize| -> Vec<(u32, f64)> {
        reference
            .query(entity, k)
            .unwrap()
            .into_iter()
            .map(|(t, s)| (t, s as f64))
            .collect()
    };
    let check = |body: &Json, want: &[(u32, f64)]| {
        let results = body
            .get("results")
            .and_then(Json::as_array)
            .expect("results");
        assert_eq!(results.len(), want.len());
        for (r, &(target, score)) in results.iter().zip(want) {
            assert_eq!(r.get("target").and_then(Json::as_f64), Some(target as f64));
            let got = r.get("score").and_then(Json::as_f64).expect("score");
            assert_eq!(got.to_bits(), score.to_bits());
        }
    };

    // One keep-alive connection across the whole scenario.
    let mut conn = connect(addr);
    for entity in 0..6u32 {
        let (status, body) = http_get(&mut conn, &format!("/align?entity={entity}&k=4"));
        assert_eq!(status, 200);
        assert_eq!(
            body.get("generation").and_then(Json::as_str),
            Some(hex(gen_a).as_str()),
            "pre-swap answers carry the old generation"
        );
        check(&body, &expect(&ref_a, entity, 4));
    }
    let (status, stats) = http_get(&mut conn, "/stats");
    assert_eq!(status, 200);
    assert_eq!(
        stats.get("generation").and_then(Json::as_str),
        Some(hex(gen_a).as_str())
    );
    assert_eq!(stats.get("reloads").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        stats.get("loaded_entities").and_then(Json::as_f64),
        Some(30.0)
    );

    // Corrupt artifact first: reload must 409 and not disturb serving.
    let pristine = std::fs::read(&live).unwrap();
    std::fs::write(&live, &pristine[..pristine.len() / 2]).unwrap();
    let (status, err) = http_get(&mut conn, "/admin/reload");
    assert_eq!(status, 409, "corrupt artifact refuses the swap");
    assert!(err.get("error").and_then(Json::as_str).is_some());
    let (status, body) = http_get(&mut conn, "/align?entity=0&k=4");
    assert_eq!(status, 200);
    assert_eq!(
        body.get("generation").and_then(Json::as_str),
        Some(hex(gen_a).as_str()),
        "failed reload leaves the old generation serving"
    );
    check(&body, &expect(&ref_a, 0, 4));

    // Publish B atomically and hot-swap over the same connection.
    snap_b.write_to(&live).unwrap();
    let (status, outcome) = http_get(&mut conn, "/admin/reload");
    assert_eq!(status, 200);
    assert_eq!(
        outcome.get("generation").and_then(Json::as_str),
        Some(hex(gen_b).as_str())
    );
    assert_eq!(outcome.get("partial"), Some(&Json::Bool(false)));
    assert!(outcome.get("flip_us").and_then(Json::as_f64).is_some());

    // Same connection, post-swap: new generation, new bits, monotone.
    for entity in 0..6u32 {
        let (status, body) = http_get(&mut conn, &format!("/align?entity={entity}&k=4"));
        assert_eq!(status, 200);
        assert_eq!(
            body.get("generation").and_then(Json::as_str),
            Some(hex(gen_b).as_str()),
            "post-swap answers carry the new generation"
        );
        check(&body, &expect(&ref_b, entity, 4));
    }
    let (status, stats) = http_get(&mut conn, "/stats");
    assert_eq!(status, 200);
    assert_eq!(
        stats.get("generation").and_then(Json::as_str),
        Some(hex(gen_b).as_str())
    );
    assert_eq!(stats.get("reloads").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        stats.get("reload_failures").and_then(Json::as_f64),
        Some(1.0)
    );
    assert!(stats.get("last_flip_us").and_then(Json::as_f64).is_some());
    assert!(stats
        .get("draining_generations")
        .and_then(Json::as_f64)
        .is_some());
    // The flipped-in generation's lineage is now live on /stats.
    assert_eq!(
        stats.get("parent_generation").and_then(Json::as_str),
        Some(hex(gen_a).as_str()),
        "post-swap /stats cites the parent generation"
    );
    assert_eq!(
        stats.get("trained_epochs").and_then(Json::as_f64),
        Some(7.0)
    );
    assert!(stats.get("snapshot_age_ms").and_then(Json::as_f64).unwrap() >= 0.0);

    handle.stop();
}

/// The live pipeline's shape: D-Y, 150 final entities, base 0.6, two delta
/// steps; 8-epoch retrains against delta runs capped at a quarter of that.
const LIVE_SEED: u64 = 7;
const FULL_EPOCHS: usize = 8;
const DELTA_CAP: usize = 2;

/// One trained generation, as reloaded from the artifact the engine wrote.
struct Generation {
    snap: Snapshot,
    stop: StopReason,
    epochs: usize,
    hits1: f64,
}

/// Trains MTransE on `pair` the way `openea-trainer` does — cold when
/// `parent` is `None`, else warm-started from the parent's parameters under
/// the epoch cap — with the snapshot writer as the engine's artifact sink,
/// and reloads what it emitted.
fn train_generation(pair: &KgPair, parent: Option<&Snapshot>, work_dir: &Path) -> Generation {
    let mut rng = SmallRng::seed_from_u64(LIVE_SEED);
    let folds = k_fold_splits(&pair.alignment, 3, &mut rng);
    let rc = RunConfig {
        dim: 16,
        max_epochs: FULL_EPOCHS,
        threads: 2,
        seed: LIVE_SEED,
        ..RunConfig::default()
    };
    std::fs::create_dir_all(work_dir).expect("create train dir");
    let writer = SnapshotWriter::new(work_dir, Vec::new(), Vec::new());
    let warm = parent.map(Snapshot::warm_start);
    let mut ctx = RunContext::new(&rc)
        .for_valid(&folds[0].valid)
        .with_artifacts(&writer);
    if let Some(w) = warm.as_ref() {
        ctx = ctx.resume_from(w).with_budget(Budget::epochs(DELTA_CAP));
    }
    let approach = approach_by_name("MTransE").expect("registry approach");
    let out = approach.run_with(pair, &folds[0], &rc, &ctx);
    assert!(writer.take_error().is_none(), "artifact writes succeed");
    let snap = Snapshot::read_from(&writer.final_path("MTransE")).expect("valid artifact");
    assert_eq!(snap.to_output().content_hash(), out.content_hash());
    assert_eq!(
        snap.lineage, out.lineage,
        "the artifact carries the lineage"
    );
    Generation {
        snap,
        stop: out.trace.stop,
        epochs: out.trace.epochs.len(),
        hits1: evaluate_output(&out, &folds[0].test, 2).hits1,
    }
}

/// The train-to-serve chain end to end: an evolution trace, a cold base,
/// then per step the served artifact read back → `warm_start` →
/// warm-started, budget-capped delta training → a lineage-stamped artifact
/// written over the live path, which the watcher alone flips in while one
/// keep-alive client keeps asking.
#[test]
fn delta_chain_flips_in_through_the_watcher_with_lineage_intact() {
    let trace = EvolutionConfig::new(DatasetFamily::DY, 150, 2, LIVE_SEED)
        .with_base_fraction(0.6)
        .generate();
    let dir = TempDir::new("live");
    let train_dir = dir.0.join("train");
    let live = dir.0.join("live.snap");

    let base = train_generation(&trace.steps[0].pair, None, &train_dir);
    assert_eq!(base.snap.lineage, None, "a cold run has no parent");
    assert_eq!(
        (base.stop, base.epochs),
        (StopReason::MaxEpochs, FULL_EPOCHS)
    );
    base.snap.write_to(&live).unwrap();

    let opts = IndexOptions {
        threads: 2,
        cache_cap: 64,
        warm_keys: 8,
        ..IndexOptions::default()
    };
    let (hot, _) = HotSwapIndex::open(&live, opts).unwrap();
    let _watcher = hot.spawn_watcher(Duration::from_millis(8));
    let mut handle = serve_hot(
        hot,
        "127.0.0.1:0".parse().unwrap(),
        ServerOptions::default(),
    )
    .expect("bind");
    let mut conn = connect(handle.addr());

    // Publish order of the generations; base entities keep their rows in
    // every later one (ids only ever append), so they stay valid queries.
    let mut chain = vec![hex(base.snap.generation())];
    let base_queries = base.snap.num_queries();
    let mut trained_epochs = FULL_EPOCHS as u64;
    let mut newest = 0usize;
    let mut polls = 0usize;

    for (k, step) in trace.steps.iter().enumerate().skip(1) {
        let parent = Snapshot::read_from(&live).expect("served artifact");
        let parent_gen = parent.generation();
        assert_eq!(hex(parent_gen), chain[k - 1]);
        assert_eq!(parent.warm_start().trained_epochs, trained_epochs);
        let full = train_generation(&step.pair, None, &train_dir);
        let delta = train_generation(&step.pair, Some(&parent), &train_dir);

        assert_eq!(
            (delta.stop, delta.epochs),
            (StopReason::DeadlineExceeded { epoch: DELTA_CAP }, DELTA_CAP),
            "step {k}: the epoch budget ends a real registry run at the cap"
        );
        trained_epochs += delta.epochs as u64;
        assert_eq!(
            delta.snap.lineage,
            Some(Lineage {
                parent_generation: parent_gen,
                trained_epochs,
            }),
            "step {k}: lineage cites the served parent and accumulates epochs"
        );
        assert!(
            delta.hits1 + 0.02 >= full.hits1,
            "step {k}: delta Hits@1 {} against full retrain {}",
            delta.hits1,
            full.hits1
        );

        // Publish. No `/admin/reload`: only the watcher can flip this in.
        chain.push(hex(delta.snap.generation()));
        delta.snap.write_to(&live).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let stats = loop {
            let (status, stats) = http_get(&mut conn, "/stats");
            assert_eq!(status, 200);
            let flipped = stats.get("generation").and_then(Json::as_str) == Some(&chain[k]);
            let entity = polls % base_queries;
            polls += 1;
            let (status, body) = http_get(&mut conn, &format!("/align?entity={entity}&k=3"));
            assert_eq!(status, 200, "step {k}: a query failed across the flip");
            let generation = body.get("generation").and_then(Json::as_str);
            let seen = chain
                .iter()
                .position(|g| Some(g.as_str()) == generation)
                .unwrap_or_else(|| panic!("step {k}: unknown generation {generation:?}"));
            assert!(seen >= newest, "step {k}: generation moved backwards");
            newest = seen;
            if flipped {
                assert_eq!(
                    seen, k,
                    "once /stats reports it, the new generation answers"
                );
                break stats;
            }
            assert!(
                Instant::now() < deadline,
                "step {k}: the watcher never flipped the new artifact in"
            );
            std::thread::sleep(Duration::from_millis(2));
        };
        assert_eq!(
            stats.get("parent_generation").and_then(Json::as_str),
            Some(chain[k - 1].as_str())
        );
        assert_eq!(
            stats.get("trained_epochs").and_then(Json::as_f64),
            Some(trained_epochs as f64)
        );
        assert_eq!(stats.get("reloads").and_then(Json::as_f64), Some(k as f64));
    }
    handle.stop();
}
