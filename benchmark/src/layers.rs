//! The traced run: the rounds of a plain run, the last of them with a span
//! around every call into a layer, then direct timings of single public
//! functions on the workload's own data. Everything here is per-layer and
//! ungated; the end-to-end metrics come from untraced runs only.
//!
//! A layer that is not on a workload's path reports 0 there (no IVF on the
//! exact workloads, no trainer on the embedded one).

use crate::estimator::{mean, median, percentile};
use crate::pipeline::{index_options, reading, GenerationTrace, Inputs, Reading, Run};
use crate::schedule::Step;
use crate::trace::Tracer;
use crate::traffic::Rng64;
use crate::workloads::{BURST, TOP_K};
use openea_align::{AnnConfig, IvfIndex};
use openea_approaches::gcn::union_edges;
use openea_approaches::{ApproachOutput, CheckpointSink, TelemetrySink};
use openea_autodiff::{Graph, SparseMatrix, Tensor};
use openea_math::negsamp::{RawTriple, UniformSampler};
use openea_math::{kernel, vecops};
use openea_models::trainer::EpochTrace;
use openea_models::{train_epoch_batched, TransE};
use openea_runtime::json::{object, Json, ToJson};
use openea_runtime::pool::parallel_chunks;
use openea_runtime::rng::{SeedableRng, SmallRng};
use openea_serve::conn::HttpParser;
use openea_serve::{BatchIndex, SnapshotWriter};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A `CheckpointSink` that forwards to the snapshot writer and adds up the
/// time spent inside it, checkpoints and the final write apart.
pub struct TimedSink<'a> {
    inner: &'a SnapshotWriter,
    checkpoint_ns: AtomicU64,
    complete_ns: AtomicU64,
}

impl<'a> TimedSink<'a> {
    pub fn new(inner: &'a SnapshotWriter) -> Self {
        Self {
            inner,
            checkpoint_ns: AtomicU64::new(0),
            complete_ns: AtomicU64::new(0),
        }
    }

    pub fn checkpoint_seconds(&self) -> f64 {
        self.checkpoint_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn complete_seconds(&self) -> f64 {
        self.complete_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl CheckpointSink for TimedSink<'_> {
    fn on_checkpoint(&self, label: &str, epoch: usize, out: &ApproachOutput, score: f64) {
        let t = Instant::now();
        self.inner.on_checkpoint(label, epoch, out, score);
        self.checkpoint_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn on_complete(&self, label: &str, out: &ApproachOutput) {
        let t = Instant::now();
        self.inner.on_complete(label, out);
        self.complete_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A `TelemetrySink` that notes when each epoch was reported and whether it
/// carried a validation score.
pub struct EpochLog {
    start: Instant,
    /// `(seconds since the log was made, epoch was a validation checkpoint)`.
    epochs: Mutex<Vec<(f64, bool)>>,
}

impl Default for EpochLog {
    fn default() -> Self {
        Self {
            start: Instant::now(),
            epochs: Mutex::new(Vec::new()),
        }
    }
}

impl TelemetrySink for EpochLog {
    fn on_epoch(&self, _label: &str, epoch: &EpochTrace) {
        let at = self.start.elapsed().as_secs_f64();
        self.epochs
            .lock()
            .expect("no panic while logging an epoch")
            .push((at, epoch.val_hits1.is_some()));
    }
}

impl EpochLog {
    /// Intervals between consecutive reports, in ms: `(plain, checkpoint)`.
    /// The first report is measured from the log's creation, just before the
    /// run starts, and so includes model construction; it is left out.
    fn intervals_ms(&self) -> (Vec<f64>, Vec<f64>) {
        let epochs = self.epochs.lock().expect("no panic while logging an epoch");
        let (mut plain, mut checkpoint) = (Vec::new(), Vec::new());
        for pair in epochs.windows(2) {
            let ms = (pair[1].0 - pair[0].0) * 1e3;
            if pair[1].1 {
                checkpoint.push(ms);
            } else {
                plain.push(ms);
            }
        }
        (plain, checkpoint)
    }

    fn epochs_run(&self) -> usize {
        self.epochs
            .lock()
            .expect("no panic while logging an epoch")
            .len()
    }
}

/// Times `f` `reps` times and returns the per-call times in µs.
fn time_us<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> Vec<f64> {
    (0..reps)
        .map(|i| {
            let t = Instant::now();
            black_box(f(i));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Mean µs per call of a call too short to time alone.
fn mean_us_per_call<T>(calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

// ---------------------------------------------------------------------------
// Host reference kernel.

/// Slices of the host reference kernel in a traced run, half before the
/// rounds and half after.
const REF_SLICES: usize = 200;

/// One slice of a fixed single-thread compute kernel (~1.3 ms on this host):
/// a dependent chain of multiply-adds the compiler cannot shorten.
pub fn reference_slice() -> f64 {
    let mut x = black_box(1.000_000_1f64);
    let mut acc = 0.0f64;
    for _ in 0..400_000 {
        x = x * 1.000_000_01 + 1e-9;
        acc += x;
    }
    black_box(acc)
}

pub fn reference_slices_ms(count: usize) -> Vec<f64> {
    time_us(count, |_| reference_slice())
        .into_iter()
        .map(|us| us / 1e3)
        .collect()
}

// ---------------------------------------------------------------------------
// The traced run.

fn span_mean_ms(tracer: &Tracer, name: &str, round: usize) -> f64 {
    let ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && s.round == round)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    mean(&ms)
}

fn stat(stats: &Option<Json>, key: &str) -> f64 {
    stats
        .as_ref()
        .and_then(|j| j.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Runs `steps` on `run`, the last round traced, and returns the per-layer
/// metrics. Also verifies the served answers, as every run does.
pub fn traced_run(run: &mut Run, steps: Vec<Step>) -> Vec<Reading> {
    let spec = run.spec;
    let mut m = Vec::new();
    let mut slices = reference_slices_ms(REF_SLICES / 2);

    // The earlier rounds are plain: their generations are what tracing
    // overhead is measured against.
    let traced_round = steps.last().map_or(0, |s| s.round);
    let (plain, traced): (Vec<_>, Vec<_>) = steps.into_iter().partition(|s| s.round < traced_round);
    for step in plain {
        run.step(step, false);
    }
    run.tracer = Tracer::new(true);
    let stats_before = run.harness.as_mut().and_then(|h| h.stats());
    let mut gt = GenerationTrace::default();
    for step in traced {
        if let Some(g) = run.step(step, true) {
            gt = g;
        }
    }
    let stats_after = run.harness.as_mut().and_then(|h| h.stats());
    let index_stats = run.harness.as_ref().map(|h| h.hot.current().stats());
    let (traced_generation_s, untraced) = match run.samples.generation_s.split_last() {
        Some((&last, earlier)) => (last, earlier),
        None => (0.0, &[][..]),
    };
    let untraced_generation_s = fastest(untraced);
    let traced_setup_s = run.samples.setup_s.last().copied().unwrap_or(0.0);

    // synth
    let (entities, triples) = match run.inputs.as_ref() {
        Some(Inputs::Kg { pair, .. }) => (
            pair.kg1.num_entities() + pair.kg2.num_entities(),
            pair.kg1.num_rel_triples() + pair.kg2.num_rel_triples(),
        ),
        Some(Inputs::Embedded(snap)) => (snap.num_queries() + snap.num_targets(), 0),
        None => (0, 0),
    };
    m.push(reading("synth.pair_gen_s", traced_setup_s, "s"));
    m.push(reading("synth.entities", entities as f64, "count"));
    m.push(reading("synth.triples", triples as f64, "count"));

    // approaches + the publish stages of serve
    // The direct measurements below share the round id after the last.
    run.tracer.set_round(traced_round + 1);
    m.extend(approach_metrics(&gt));
    m.extend(publish_metrics(run, &gt, traced_generation_s));

    // align, from the traced round's eval spans
    m.push(reading(
        "align.rank_eval_ms",
        span_mean_ms(&run.tracer, "align.rank_eval", traced_round),
        "ms",
    ));
    m.push(reading(
        "align.csls_ms",
        span_mean_ms(&run.tracer, "align.csls_topk", traced_round),
        "ms",
    ));
    m.push(reading(
        "align.stable_marriage_ms",
        span_mean_ms(&run.tracer, "align.stable_marriage_topk", traced_round),
        "ms",
    ));

    // serve, from the counters of the traced round's traffic
    let index_stats = index_stats.unwrap_or_default();
    m.push(reading(
        "serve.cache_hit_rate",
        index_stats.hit_rate(),
        "ratio",
    ));
    m.push(reading(
        "serve.batch_occupancy",
        index_stats.mean_batch_occupancy(),
        "count",
    ));
    m.push(reading(
        "serve.pipelined_batches",
        stat(&stats_after, "pipelined_batches") - stat(&stats_before, "pipelined_batches"),
        "count",
    ));
    m.push(reading(
        "serve.shed_503",
        stat(&stats_after, "rejected_503") - stat(&stats_before, "rejected_503"),
        "count",
    ));

    m.extend(direct_index_metrics(run));
    m.extend(front_end_metrics(run));
    m.extend(latency_metrics(run));
    m.push(qps_under_publish(run));
    m.extend(kernel_metrics(run));
    m.extend(training_layer_metrics(run));

    run.verify_served();
    m.push(reading(
        "align.ivf_recall_at_10",
        if spec.nlist > 0 {
            run.recall_at_10.unwrap_or(0.0)
        } else {
            0.0
        },
        "ratio",
    ));

    // host
    slices.extend(reference_slices_ms(REF_SLICES - REF_SLICES / 2));
    let q10 = percentile(&slices, 10.0);
    let slow = slices.iter().filter(|&&s| s > 1.1 * q10).count();
    m.push(reading("host.nproc", run.nproc as f64, "count"));
    m.push(reading("host.ref_kernel_ms_q10", q10, "ms"));
    m.push(reading(
        "host.slow_window_frac",
        slow as f64 / slices.len() as f64,
        "ratio",
    ));
    m.push(reading(
        "trace.overhead_frac",
        if untraced_generation_s.is_finite() {
            traced_generation_s / untraced_generation_s - 1.0
        } else {
            0.0
        },
        "ratio",
    ));

    let path = run.out.join("trace.json");
    if let Err(e) = std::fs::write(&path, run.tracer.to_json()) {
        run.tally
            .check(false, || format!("cannot write {}: {e}", path.display()));
    }
    m
}

fn approach_metrics(gt: &GenerationTrace) -> Vec<Reading> {
    let (plain, checkpoint, epochs_run) = match &gt.epochs {
        Some(log) => {
            let (p, c) = log.intervals_ms();
            (p, c, log.epochs_run())
        }
        None => (Vec::new(), Vec::new(), 0),
    };
    let checkpoints = checkpoint.len().max(1) as f64;
    let sink_ms_each = gt.checkpoint_sink_s * 1e3 / checkpoints;
    // A checkpoint epoch is a plain epoch plus extraction, validation and
    // the sink; what is left after the plain epoch and the sink is validation.
    let validate_ms = if checkpoint.is_empty() {
        0.0
    } else {
        (median(&checkpoint) - median(&plain) - sink_ms_each).max(0.0)
    };
    vec![
        reading(
            "approaches.train_s",
            (gt.run_with_s - gt.write_s).max(0.0),
            "s",
        ),
        reading("approaches.epochs_run", epochs_run as f64, "count"),
        reading("approaches.epoch_ms_p50", median(&plain), "ms"),
        reading("approaches.validate_ms", validate_ms, "ms"),
        reading(
            "approaches.checkpoint_sink_ms",
            gt.checkpoint_sink_s * 1e3,
            "ms",
        ),
    ]
}

/// The stages between a trained model (or an embedded pair) and a live
/// generation. `index_build` is timed on its own, outside the pipeline, and
/// the warm stage is what is left of `swap_in` after build and flip.
fn publish_metrics(run: &mut Run, gt: &GenerationTrace, traced_generation_s: f64) -> Vec<Reading> {
    let Some(harness) = run.harness.as_ref() else {
        return Vec::new();
    };
    let live = harness.hot.current();
    let snapshot = live.index().snapshot().clone();
    let (encoded, encode_s) = run
        .tracer
        .span("serve.snapshot_encode", |_| snapshot.encode());
    drop(encoded);
    let opts = index_options(&run.spec);
    let (index, build_s) = run
        .tracer
        .span("serve.index_build", |_| opts.build(snapshot));
    run.probe_index = Some(index);

    let flip_s = gt.flip_ns as f64 / 1e9;
    let warm_s = (gt.swap_in_s - build_s - flip_s).max(0.0);
    let stage_sum_s = gt.write_s + gt.load_s + build_s + warm_s + flip_s;
    let train_s = (gt.run_with_s - gt.write_s).max(0.0);
    let publish_share_s = traced_generation_s - train_s;
    vec![
        reading("serve.snapshot_encode_ms", encode_s * 1e3, "ms"),
        reading("serve.snapshot_write_ms", gt.write_s * 1e3, "ms"),
        reading("serve.load_artifact_ms", gt.load_s * 1e3, "ms"),
        reading("serve.index_build_ms", build_s * 1e3, "ms"),
        reading("serve.swap_in_ms", gt.swap_in_s * 1e3, "ms"),
        reading("serve.warm_ms", warm_s * 1e3, "ms"),
        reading("serve.flip_us", flip_s * 1e6, "us"),
        reading(
            "serve.publish_stage_sum_frac",
            if publish_share_s > 0.0 {
                stage_sum_s / publish_share_s
            } else {
                0.0
            },
            "ratio",
        ),
    ]
}

/// Distinct query entities for direct index calls, none repeated.
fn distinct_entities(run: &Run, stream: u64, count: usize, n: usize) -> Vec<u32> {
    let mut rng = Rng64::new(run.seed, stream);
    let stride = (n / count.max(1)).max(1) as u32;
    let offset = rng.below(stride);
    (0..count as u32)
        .map(|i| (i * stride + offset).min(n as u32 - 1))
        .collect()
}

/// `BatchIndex` and `AlignmentIndex` called directly on a private index built
/// like the served one, and the IVF partition searched directly.
fn direct_index_metrics(run: &mut Run) -> Vec<Reading> {
    let Some(index) = run.probe_index.clone() else {
        return Vec::new();
    };
    let index: &BatchIndex = &index;
    let n = index.index().num_queries();
    let cached = run.spec.cache_cap != Some(0);
    let singles = distinct_entities(run, 0xD1, 200.min(n), n);
    let batches = distinct_entities(run, 0xD2, (20 * BURST).min(n), n);

    let ((miss, hit, batch32), _) = run.tracer.span("serve.batch_index_direct", |_| {
        let miss = time_us(singles.len(), |i| index.query(singles[i], TOP_K));
        let hit = if cached {
            time_us(singles.len(), |i| index.query(singles[i], TOP_K))
        } else {
            Vec::new()
        };
        let batch32 = time_us(batches.len() / BURST, |b| {
            let group: Vec<_> = batches[b * BURST..(b + 1) * BURST]
                .iter()
                .map(|&e| (e, TOP_K, None))
                .collect();
            index.query_batch(&group)
        });
        (miss, hit, batch32)
    });

    let raw = index.index();
    let ((dense1, dense32), _) = run.tracer.span("align.answer_batch_direct", |_| {
        let dense1 = time_us(singles.len().min(100), |i| {
            raw.answer_batch(&[(singles[i], TOP_K)], 1)
        });
        let dense32 = time_us((batches.len() / BURST).min(10), |b| {
            let group: Vec<_> = batches[b * BURST..(b + 1) * BURST]
                .iter()
                .map(|&e| (e, TOP_K))
                .collect();
            raw.answer_batch(&group, 1)
        });
        (dense1, dense32)
    });

    let mut m = vec![
        reading("serve.index_hit_us", median(&hit), "us"),
        reading("serve.index_miss_us", median(&miss), "us"),
        reading("serve.batch32_us", median(&batch32), "us"),
        reading("align.topk_dense_us", median(&dense1), "us"),
        reading("align.topk_dense_batch32_us", median(&dense32), "us"),
    ];

    let (mut build_s, mut search_us, mut scanned_frac) = (0.0, 0.0, 0.0);
    if let Some(ivf) = raw.ann() {
        let snap = raw.snapshot();
        let cfg = AnnConfig {
            nlist: run.spec.nlist,
            ..AnnConfig::default()
        };
        let (built, s) = run.tracer.span("align.ivf_build", |_| {
            IvfIndex::build(&snap.emb2, snap.dim, snap.metric, &cfg, 1)
        });
        drop(built);
        build_s = s;
        let nprobe = ivf.default_nprobe();
        let mut scanned = 0usize;
        let (times, _) = run.tracer.span("align.ivf_search_direct", |_| {
            time_us(singles.len(), |i| {
                let e = singles[i] as usize;
                let (answer, rows) =
                    ivf.search_counted(&snap.emb1[e * snap.dim..(e + 1) * snap.dim], TOP_K, nprobe);
                scanned += rows;
                answer
            })
        });
        search_us = median(&times);
        scanned_frac = scanned as f64 / (singles.len() * ivf.len().max(1)) as f64;
    }
    m.push(reading("align.ivf_build_s", build_s, "s"));
    m.push(reading("align.ivf_search_us", search_us, "us"));
    m.push(reading("align.ivf_scanned_frac", scanned_frac, "ratio"));
    m
}

/// The request parser, the JSON encoder and the scoped pool, called alone.
fn front_end_metrics(run: &mut Run) -> Vec<Reading> {
    let nproc = run.nproc;
    let ((parse_us, json_us, pool_us), _) = run.tracer.span("front_end_direct", |_| {
        let request = b"GET /align?entity=12345&k=10 HTTP/1.1\r\nHost: bench\r\n\r\n";
        let mut parser = HttpParser::new();
        let parse_us = mean_us_per_call(20_000, || {
            parser.feed(request);
            parser.next_request()
        });

        // One answer the way the server words it: ten (target, score) pairs.
        let answer: Vec<Json> = (0..TOP_K as u32)
            .map(|i| {
                object([
                    ("target", (i * 977).to_json()),
                    ("score", (f64::from(i) * -0.013_7).to_json()),
                ])
            })
            .collect();
        let doc = object([
            ("entity", 12_345u32.to_json()),
            ("k", TOP_K.to_json()),
            ("metric", "cosine".to_json()),
            ("probe", "exact".to_json()),
            ("generation", "0x0123456789abcdef".to_json()),
            ("results", Json::Array(answer)),
        ]);
        let json_us = mean_us_per_call(5_000, || doc.to_string_pretty().into_bytes());

        let mut items = vec![0u8; nproc];
        let pool_us = mean_us_per_call(2_000, || {
            parallel_chunks(&mut items, 1, nproc, |_, chunk| {
                chunk[0] = chunk[0].wrapping_add(1)
            });
        });
        (parse_us, json_us, pool_us)
    });
    vec![
        reading("serve.parse_us", parse_us, "us"),
        reading("runtime.json_encode_us", json_us, "us"),
        reading("runtime.pool_dispatch_us", pool_us, "us"),
    ]
}

/// One connection, one request in flight: latency as a caller without
/// pipelining sees it, against the same traffic answered by `BatchIndex`
/// directly.
fn latency_metrics(run: &mut Run) -> Vec<Reading> {
    let count = run.spec.depth1_requests;
    let (Some(sampler), Some(live)) = (run.sampler.as_ref(), run.live.as_ref()) else {
        return Vec::new();
    };
    let generation = live.generation;
    let over_http = sampler.draw(&mut Rng64::new(run.seed, 0xD3), count);
    let direct = sampler.draw(&mut Rng64::new(run.seed, 0xD4), count);
    let harness = run.harness.as_mut().expect("server started");
    let tally = &mut run.tally;
    let (http_us, _) = run.tracer.span("serve.depth1_http", |_| {
        time_us(count, |i| {
            harness.drive(&over_http[i..i + 1], generation, tally, |_, _| ())
        })
    });
    let index = harness.hot.current();
    let (direct_us, _) = run.tracer.span("serve.depth1_direct", |_| {
        time_us(count, |i| index.query(direct[i], TOP_K))
    });
    vec![
        reading("serve.depth1_p50_us", median(&http_us), "us"),
        reading("serve.depth1_p99_us", percentile(&http_us, 99.0), "us"),
        reading(
            "serve.http_overhead_us",
            median(&http_us) - median(&direct_us),
            "us",
        ),
    ]
}

/// Throughput of the windows that overlap a `reload_from` of the live
/// artifact (the same bytes, so the generation id does not change).
fn qps_under_publish(run: &mut Run) -> Reading {
    let (Some(harness), Some(path)) = (
        run.harness.as_ref(),
        run.live.as_ref().map(|l| l.artifact.clone()),
    ) else {
        return reading("serve.qps_under_publish", 0.0, "1/s");
    };
    let hot = std::sync::Arc::clone(&harness.hot);
    let requests = run.spec.window_requests;
    let (mut sent, mut secs) = (0usize, 0.0f64);
    let mut reload_ok = true;
    std::thread::scope(|scope| {
        let publisher = scope.spawn(move || hot.reload_from(&path).is_ok());
        let mut window = 0u64;
        while !publisher.is_finished() {
            secs += run.window(0x7000_0000 | window, requests);
            sent += requests;
            window += 1;
        }
        reload_ok = publisher.join().unwrap_or(false);
    });
    run.tally
        .check(reload_ok, || "reload under load failed".to_string());
    reading(
        "serve.qps_under_publish",
        if secs > 0.0 { sent as f64 / secs } else { 0.0 },
        "1/s",
    )
}

/// One block sweep of the similarity kernels: 1 024 query rows against one
/// 4 096-row tile. FLOPs are computed (2·rows·cols·dim), not measured.
fn kernel_metrics(run: &mut Run) -> Vec<Reading> {
    const ROWS: usize = 1024;
    const COLS: usize = 4096;
    let dim = run.spec.dim();
    let mut rng = Rng64::new(run.seed, 0xD5);
    let mut fill =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.next_f64() as f32 - 0.5).collect() };
    let (queries, tile) = (fill(ROWS * dim), fill(COLS * dim));
    let mut out = vec![0.0f32; COLS];
    let (times, _) = run.tracer.span("mathkit.block_sweep", |_| {
        time_us(5, |_| {
            for q in queries.chunks_exact(dim) {
                vecops::inner_block(q, &tile, dim, &mut out);
                black_box(&mut out);
            }
        })
    });
    let best_s = fastest(&times) / 1e6;
    let flops = 2.0 * (ROWS * COLS * dim) as f64;
    vec![
        reading(
            "mathkit.block_kernel_gflops",
            flops / best_s / 1e9,
            "GFLOP/s",
        ),
        reading(
            "mathkit.kernel_backend",
            f64::from(kernel::active_backend() as u8),
            "id",
        ),
    ]
}

/// The batched trainer and one GCN layer on the workload's own graph. Both
/// are 0 on the embedded workload, which trains nothing.
fn training_layer_metrics(run: &mut Run) -> Vec<Reading> {
    let zero = |name| reading(name, 0.0, "ms");
    let (Some(Inputs::Kg { pair, .. }), Some((rc, _))) = (run.inputs.as_ref(), run.run_config())
    else {
        return vec![
            zero("models.epoch_ms_t1"),
            zero("models.epoch_ms_tn"),
            reading("models.pairs_per_s", 0.0, "1/s"),
            zero("autodiff.fwd_bwd_ms"),
        ];
    };
    let nproc = run.nproc;
    let seed = run.seed;
    let triples: Vec<RawTriple> = pair
        .kg1
        .rel_triples()
        .iter()
        .map(|t| (t.head.0, t.rel.0, t.tail.0))
        .collect();
    let sampler = UniformSampler {
        num_entities: pair.kg1.num_entities() as u32,
    };
    let mut pairs = 0usize;
    let mut epoch_ms = |threads: usize, tracer: &mut Tracer| -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = TransE::new(
            pair.kg1.num_entities(),
            pair.kg1.num_relations(),
            rc.dim,
            rc.margin,
            &mut rng,
        );
        let opts = openea_models::TrainOptions {
            threads,
            ..rc.train_options(triples.len())
        };
        let (times, _) = tracer.span("models.train_epoch_batched", |_| {
            time_us(3, |epoch| {
                let stats =
                    train_epoch_batched(&mut model, &triples, &sampler, &opts, seed + epoch as u64)
                        .expect("valid training options");
                pairs = stats.pairs;
            })
        });
        fastest(&times) / 1e3
    };
    let t1 = epoch_ms(1, &mut run.tracer);
    let tn = epoch_ms(nproc, &mut run.tracer);

    let (n, edges) = union_edges(pair, false);
    let mut rng = SmallRng::seed_from_u64(seed);
    let x = Tensor::xavier(n, rc.dim, &mut rng);
    let w = Tensor::xavier(rc.dim, rc.dim, &mut rng);
    let (times, _) = run.tracer.span("autodiff.gcn_layer", |_| {
        time_us(3, |_| {
            let mut graph = Graph::new();
            let adj = graph.add_sparse(SparseMatrix::gcn_normalized_weighted(n, &edges));
            let (x, w) = (graph.leaf(x.clone()), graph.leaf(w.clone()));
            let xw = graph.matmul(x, w);
            let h = graph.spmm(adj, xw);
            let h = graph.relu(h);
            let loss = graph.mean(h);
            graph.backward(loss);
            graph.grad(w)
        })
    });
    let fwd_bwd_ms = fastest(&times) / 1e3;

    vec![
        reading("models.epoch_ms_t1", t1, "ms"),
        reading("models.epoch_ms_tn", tn, "ms"),
        reading(
            "models.pairs_per_s",
            if tn > 0.0 {
                pairs as f64 / (tn / 1e3)
            } else {
                0.0
            },
            "1/s",
        ),
        reading("autodiff.fwd_bwd_ms", fwd_bwd_ms, "ms"),
    ]
}
