//! End-to-end serving path: train a registry approach with checkpointing →
//! the driver engine emits snapshots through `SnapshotWriter` → the final
//! snapshot loads into a `BatchIndex` → a real HTTP server answers
//! concurrent clients bit-identically to the offline dense evaluation.

use openea_align::SimilarityMatrix;
use openea_approaches::{approach_by_name, RunConfig, RunContext};
use openea_core::k_fold_splits;
use openea_runtime::json::{self, Json};
use openea_runtime::rng::{SeedableRng, SmallRng};
use openea_serve::{
    serve, serve_hot, AlignmentIndex, BatchIndex, HotSwapIndex, IndexOptions, ServerOptions,
    Snapshot, SnapshotWriter,
};
use openea_synth::{DatasetFamily, PresetConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

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

/// One keep-alive HTTP GET: returns (status, parsed JSON body).
fn http_get(conn: &mut TcpStream, path: &str) -> (u16, Json) {
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("write request");
    conn.flush().expect("flush");
    let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().expect("length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(&mut reader, &mut body).expect("body");
    let body = String::from_utf8(body).expect("utf-8 body");
    (status, json::parse(&body).expect("json body"))
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
    let index = BatchIndex::new(AlignmentIndex::new(snap), 2, 128);
    let mut handle = serve(
        Arc::new(index),
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
                let mut conn = TcpStream::connect(addr).expect("connect");
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
    let mut conn = TcpStream::connect(addr).expect("connect");
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

/// Deterministic synthetic snapshot for the hot-swap test: same shape per
/// seed, different weights — two "deployments" of one model.
fn synth_snapshot(seed: u64) -> Snapshot {
    use openea_runtime::rng::Rng;
    let (n1, n2, dim) = (24usize, 30usize, 6usize);
    let mut rng = SmallRng::seed_from_u64(0xE2E ^ seed);
    let mut emb =
        |n: usize| -> Vec<f32> { (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    Snapshot {
        dim,
        metric: openea_align::Metric::Cosine,
        emb1: emb(n1),
        emb2: emb(n2),
        names1: Vec::new(),
        names2: Vec::new(),
        trace: openea_approaches::TrainTrace {
            label: format!("e2e-gen-{seed}"),
            epochs: Vec::new(),
            stop: openea_approaches::StopReason::default(),
            total_wall_s: 0.0,
        },
        lineage: None,
    }
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
    let snap_a = synth_snapshot(1);
    let mut snap_b = synth_snapshot(2);
    let hex = |g: u64| format!("{g:#018x}");
    let (gen_a, gen_b) = (snap_a.generation(), snap_b.generation());
    // B is a warm-started child of A: lineage is provenance only and must
    // not move the generation, while /stats surfaces it after the flip.
    snap_b.lineage = Some(openea_approaches::Lineage {
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
    let ref_a = opts.build(synth_snapshot(1));
    let ref_b = opts.build(synth_snapshot(2));
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
    let mut conn = TcpStream::connect(addr).expect("connect");
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
