//! One run of one workload: the rounds of set-up → generation → eval →
//! windows, the correctness checks on everything they produce, and the
//! end-to-end metrics taken from their timings.
//!
//! Everything here goes through public functions of the workspace crates; the
//! query path is crossed over loopback HTTP to an in-process `serve_hot`.

use crate::estimator::{fast_decile, mean, median, Better};
use crate::http::{body_entity, body_generation, body_results, push_align_request, Conn, Response};
use crate::layers::{self, EpochLog, TimedSink};
use crate::schedule::{round_robin, Step, Unit};
use crate::trace::Tracer;
use crate::traffic::{Rng64, Sampler};
use crate::workloads::{Data, Eval, Spec, BURST, PRIME_REQUESTS, PRIME_ROWS, TOP_K};
use openea_align::{
    csls_topk, rank_eval_streaming, stable_marriage_topk, Metric, SimilarityMatrix,
};
use openea_approaches::{
    approach_by_name, evaluate_output, ApproachOutput, CheckpointSink, RunConfig, RunContext,
};
use openea_core::{k_fold_splits, EntityId, FoldSplit, KgPair};
use openea_runtime::json::{self, Json};
use openea_runtime::rng::{SeedableRng, SmallRng};
use openea_serve::{
    load_artifact, serve_hot, write_sharded, BatchIndex, HotSwapIndex, IndexOptions, ReloadOutcome,
    ServerHandle, ServerOptions, Snapshot, SnapshotWriter,
};
use openea_synth::{generate_embedded_pair, DatasetFamily, PresetConfig, ScaleConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Recall the IVF workload must keep for its served answers to count as
/// correct (the repository's own recall gate).
const MIN_IVF_RECALL: f64 = 0.95;

/// Rows per chunk of the dense reference: 16 rows against 200 000 targets
/// are 12.8 MB, small next to what the workload itself holds.
const REFERENCE_CHUNK: usize = 16;

pub struct Options {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// Run one round and exit non-zero unless every operation succeeded.
    pub check: bool,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn reading(name: &'static str, value: f64, unit: &'static str) -> Reading {
    Reading { name, value, unit }
}

pub struct Report {
    pub end_to_end: Vec<Reading>,
    pub per_layer: Vec<Reading>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, first few only.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Operations attempted and failed, with the first reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why());
        }
    }

    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }
}

/// What a round's set-up produces.
pub enum Inputs {
    Kg {
        pair: Box<KgPair>,
        fold: FoldSplit,
    },
    /// The embedded pair, already in the shape the writer takes (its two
    /// matrices moved, not copied).
    Embedded(Snapshot),
}

impl Inputs {
    pub fn query_entities(&self) -> usize {
        match self {
            Inputs::Kg { pair, .. } => pair.kg1.num_entities(),
            Inputs::Embedded(snap) => snap.num_queries(),
        }
    }
}

fn make_inputs(spec: &Spec, seed: u64, threads: usize) -> Inputs {
    match spec.data {
        Data::Trained { entities, .. } => {
            let pair = PresetConfig::new(DatasetFamily::DY, entities, false, seed).generate();
            let mut rng = SmallRng::seed_from_u64(seed);
            let fold = k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
            Inputs::Kg {
                pair: Box::new(pair),
                fold,
            }
        }
        Data::Embedded { entities, dim, .. } => {
            let cfg = ScaleConfig {
                entities,
                dim,
                seed,
                ..ScaleConfig::default()
            };
            let pair = generate_embedded_pair(&cfg, threads);
            Inputs::Embedded(bare_snapshot(pair.dim, pair.emb1, pair.emb2))
        }
    }
}

/// A cosine snapshot of two embedding matrices and nothing else: no names,
/// no training trace, no lineage.
pub fn bare_snapshot(dim: usize, emb1: Vec<f32>, emb2: Vec<f32>) -> Snapshot {
    Snapshot {
        dim,
        metric: Metric::Cosine,
        emb1,
        emb2,
        names1: Vec::new(),
        names2: Vec::new(),
        trace: Default::default(),
        lineage: None,
    }
}

/// `rows` query rows and `rows` target rows of seeded pseudo-random values.
pub fn random_snapshot(rng: &mut Rng64, rows: usize, dim: usize) -> Snapshot {
    let mut fill = || -> Vec<f32> {
        (0..rows * dim)
            .map(|_| rng.next_f64() as f32 - 0.5)
            .collect()
    };
    let (emb1, emb2) = (fill(), fill());
    bare_snapshot(dim, emb1, emb2)
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A digest of everything training and serving read from the inputs.
fn inputs_hash(inputs: &Inputs) -> u64 {
    match inputs {
        Inputs::Embedded(snap) => snap.generation(),
        Inputs::Kg { pair, fold } => {
            let mut h = Fnv::new();
            for kg in [&pair.kg1, &pair.kg2] {
                h.eat(kg.num_entities() as u64);
                h.eat(kg.num_relations() as u64);
                for t in kg.rel_triples() {
                    h.eat(u64::from(t.head.0) << 32 | u64::from(t.tail.0));
                    h.eat(u64::from(t.rel.0));
                }
                for t in kg.attr_triples() {
                    h.eat(u64::from(t.entity.0) << 32 | u64::from(t.attr.0));
                    h.eat(u64::from(t.value.0));
                }
            }
            for set in [&pair.alignment, &fold.train, &fold.valid, &fold.test] {
                h.eat(set.len() as u64);
                for &(a, b) in set.iter() {
                    h.eat(u64::from(a.0) << 32 | u64::from(b.0));
                }
            }
            h.0
        }
    }
}

/// The generation that is live after a round's generation unit.
pub struct Live {
    pub generation: u64,
    /// The trained output (trained workloads only).
    pub output: Option<ApproachOutput>,
    /// The artifact the generation was loaded from.
    pub artifact: PathBuf,
}

/// What the traced generation adds to the timings of the plain one.
#[derive(Default)]
pub struct GenerationTrace {
    pub run_with_s: f64,
    pub write_s: f64,
    pub load_s: f64,
    pub swap_in_s: f64,
    pub flip_ns: u64,
    pub checkpoint_sink_s: f64,
    pub epochs: Option<EpochLog>,
}

/// The server under test and the client that drives it.
pub struct Harness {
    pub hot: Arc<HotSwapIndex>,
    pub server: ServerHandle,
    pub conns: Vec<Conn>,
    wire: Vec<u8>,
}

pub fn index_options(spec: &Spec) -> IndexOptions {
    let defaults = IndexOptions::default();
    IndexOptions {
        threads: 1,
        nlist: spec.nlist,
        cache_cap: spec.cache_cap.unwrap_or(defaults.cache_cap),
        ..defaults
    }
}

impl Harness {
    /// Serves `index` over loopback HTTP and connects the client: reactor
    /// mode, `max(1, nproc - 1)` workers, `min(nproc, 2)` connections, every
    /// other server option at its library default.
    pub fn serve(index: Arc<BatchIndex>, opts: IndexOptions, nproc: usize) -> Self {
        let hot = HotSwapIndex::fixed_with(index, opts);
        let server = serve_hot(
            Arc::clone(&hot),
            "127.0.0.1:0".parse().expect("loopback address"),
            ServerOptions {
                workers: nproc.saturating_sub(1).max(1),
                ..ServerOptions::default()
            },
        )
        .expect("bind a loopback port");
        let conns = (0..nproc.min(2))
            .map(|_| Conn::open(server.addr()).expect("connect to the server under test"))
            .collect();
        Self {
            hot,
            server,
            conns,
            wire: Vec::new(),
        }
    }

    /// Closes the connections, then stops the server and joins its threads.
    pub fn stop(&mut self) {
        self.conns.clear();
        self.server.stop();
    }

    /// Starts the server on a placeholder generation of pseudo-random rows
    /// and queries `PRIME_REQUESTS` distinct keys on it, so that the first
    /// publish finds a populated answer cache to warm from, like every later
    /// one.
    fn start(spec: &Spec, seed: u64, nproc: usize, query_entities: usize, dim: usize) -> Self {
        let rows = PRIME_ROWS.min(query_entities);
        let placeholder = random_snapshot(&mut Rng64::new(seed, 0x9219), rows, dim);
        let opts = index_options(spec);
        let mut harness = Self::serve(opts.build(placeholder), opts, nproc);
        let keys: Vec<u32> = (0..PRIME_REQUESTS.min(rows) as u32).collect();
        let generation = harness.hot.current().index().generation();
        let mut tally = Tally::default();
        harness.drive(&keys, generation, &mut tally, |_, _| ());
        assert_eq!(tally.failed, 0, "priming failed: {:?}", tally.notes);
        harness
    }

    /// Sends `entities` as pipelined bursts of `BURST` over all connections
    /// (one burst in flight per connection) and reads every answer. Each
    /// answer must be a 200 that echoes its entity and the live generation;
    /// anything else, and everything after a broken connection, counts as
    /// failed. `on` sees each good answer with its position in `entities`.
    pub fn drive(
        &mut self,
        entities: &[u32],
        generation: u64,
        tally: &mut Tally,
        mut on: impl FnMut(usize, Response<'_>),
    ) {
        tally.attempted += entities.len() as u64;
        let per_cycle = BURST * self.conns.len();
        let mut done = 0usize;
        for cycle in entities.chunks(per_cycle) {
            let bursts: Vec<&[u32]> = cycle.chunks(BURST).collect();
            for (conn, burst) in self.conns.iter_mut().zip(&bursts) {
                self.wire.clear();
                for &e in *burst {
                    push_align_request(&mut self.wire, e, TOP_K);
                }
                if let Err(e) = conn.send(&self.wire) {
                    tally.fail((entities.len() - done) as u64, format!("send: {e}"));
                    return;
                }
            }
            let mut base = done;
            for (conn, burst) in self.conns.iter_mut().zip(&bursts) {
                let mut bad: Option<String> = None;
                let mut bad_count = 0u64;
                let read = conn.recv(burst.len(), |i, resp| {
                    let want = burst[i];
                    if resp.status == 200
                        && body_entity(resp.body) == Some(want)
                        && body_generation(resp.body) == Some(generation)
                    {
                        on(base + i, resp);
                    } else {
                        bad_count += 1;
                        bad.get_or_insert_with(|| {
                            format!(
                                "entity {want}: status {} or mismatching answer",
                                resp.status
                            )
                        });
                    }
                });
                if let Some(why) = bad {
                    tally.fail(bad_count, why);
                }
                if let Err(e) = read {
                    tally.fail((entities.len() - base) as u64, format!("recv: {e}"));
                    return;
                }
                base += burst.len();
            }
            done += cycle.len();
        }
    }

    /// `/stats` as the server reports it.
    pub fn stats(&mut self) -> Option<Json> {
        let (status, body) = self.conns[0].get("/stats").ok()?;
        if status != 200 {
            return None;
        }
        json::parse(std::str::from_utf8(&body).ok()?).ok()
    }
}

/// Samples of every timed unit, one per repetition.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub generation_s: Vec<f64>,
    pub eval_s: Vec<f64>,
    pub window_qps: Vec<f64>,
}

/// Values that must repeat exactly in every round.
#[derive(Default)]
struct Pins {
    inputs_hash: Option<u64>,
    content_hash: Option<u64>,
    generation: Option<u64>,
    inference: Option<u64>,
}

fn pin<T: PartialEq + Copy + std::fmt::Debug>(
    slot: &mut Option<T>,
    value: T,
    what: &str,
    tally: &mut Tally,
) {
    let first = *slot.get_or_insert(value);
    tally.check(first == value, || {
        format!("{what} does not repeat: {first:?} then {value:?}")
    });
}

pub struct Run {
    pub spec: Spec,
    pub seed: u64,
    pub nproc: usize,
    pub out: PathBuf,
    pub tracer: Tracer,
    pub tally: Tally,
    pub samples: Samples,
    pub harness: Option<Harness>,
    pub inputs: Option<Inputs>,
    pub live: Option<Live>,
    pub sampler: Option<Sampler>,
    pub hits1: Option<f64>,
    pub recall_at_10: Option<f64>,
    /// The traced run's private index, built like the served one.
    pub probe_index: Option<Arc<BatchIndex>>,
    pins: Pins,
}

impl Run {
    pub fn new(opts: &Options) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            spec: opts.spec,
            seed: opts.seed,
            nproc,
            out: opts.out.clone(),
            tracer: Tracer::new(false),
            tally: Tally::default(),
            samples: Samples::default(),
            harness: None,
            inputs: None,
            live: None,
            sampler: None,
            hits1: None,
            recall_at_10: None,
            probe_index: None,
            pins: Pins::default(),
        }
    }

    /// Threads of training and offline inference.
    pub fn threads(&self) -> usize {
        self.nproc.min(4)
    }

    fn setup(&mut self) {
        // The previous round's inputs go first: two copies of a 200 000-row
        // pair would show up in `peak_rss_mb` as the harness's own memory.
        self.inputs = None;
        let (spec, seed, threads) = (self.spec, self.seed, self.threads());
        let (inputs, secs) = self.tracer.span("synth.generate_inputs", |_| {
            black_box(make_inputs(&spec, seed, threads))
        });
        self.samples.setup_s.push(secs);
        pin(
            &mut self.pins.inputs_hash,
            inputs_hash(&inputs),
            "input hash",
            &mut self.tally,
        );
        self.inputs = Some(inputs);
    }

    pub fn run_config(&self) -> Option<(RunConfig, &'static str)> {
        match self.spec.data {
            Data::Trained {
                approach,
                dim,
                epochs,
                ..
            } => Some((
                RunConfig {
                    dim,
                    max_epochs: epochs,
                    // Early stopping off: every repetition trains the same
                    // number of epochs. Validation stays on (every 10).
                    patience: usize::MAX,
                    threads: self.threads(),
                    seed: self.seed,
                    ..RunConfig::default()
                },
                approach,
            )),
            Data::Embedded { .. } => None,
        }
    }

    /// Makes the artifact path of this run's generations and starts the
    /// server the first time round.
    fn prepare_generation(&mut self) -> PathBuf {
        let dir = self.out.join("generation");
        std::fs::create_dir_all(&dir).expect("create the artifact directory");
        if self.harness.is_none() {
            let inputs = self.inputs.as_ref().expect("set-up ran");
            self.sampler = Some(Sampler::new(self.spec.traffic, inputs.query_entities()));
            self.harness = Some(Harness::start(
                &self.spec,
                self.seed,
                self.nproc,
                inputs.query_entities(),
                self.spec.dim(),
            ));
        }
        dir
    }

    /// The generation unit: inputs → artifact on disk → live in the server.
    /// With `traced`, the publish is taken apart into `load_artifact` and
    /// `swap_in`, the two halves of `reload_from`, and the training loop
    /// reports its epochs and the time inside the checkpoint sink.
    pub fn generation(&mut self, traced: bool) -> GenerationTrace {
        let dir = self.prepare_generation();
        let rc = self.run_config();
        let hot = Arc::clone(&self.harness.as_ref().expect("server started").hot);
        let inputs = self.inputs.as_ref().expect("set-up ran");
        let tracer = &mut self.tracer;
        let mut gt = GenerationTrace::default();
        let mut write_error = None;

        let ((output, outcome, artifact), secs) = tracer.span("generation", |tracer| {
            let (output, artifact) = match (inputs, &rc) {
                (Inputs::Kg { pair, fold }, Some((rc, approach))) => {
                    let writer = SnapshotWriter::new(&dir, Vec::new(), Vec::new());
                    let timed = TimedSink::new(&writer);
                    let log = EpochLog::default();
                    let sink: &dyn CheckpointSink = if traced { &timed } else { &writer };
                    let mut ctx = RunContext::new(rc)
                        .for_valid(&fold.valid)
                        .with_artifacts(sink);
                    if traced {
                        ctx = ctx.with_sink(&log);
                    }
                    let runner = approach_by_name(approach).expect("a registry approach");
                    let (out, s) = tracer.span("approaches.run_with", |_| {
                        runner.run_with(pair, fold, rc, &ctx)
                    });
                    gt.run_with_s = s;
                    gt.write_s = timed.complete_seconds();
                    gt.checkpoint_sink_s = timed.checkpoint_seconds();
                    gt.epochs = traced.then_some(log);
                    write_error = writer.take_error().map(|e| e.to_string());
                    (Some(out), writer.final_path(approach))
                }
                (Inputs::Embedded(snap), None) => {
                    let manifest = dir.join("live.manifest");
                    let Data::Embedded { shards, .. } = self.spec.data else {
                        unreachable!("embedded inputs come from an embedded workload")
                    };
                    let rows = snap.num_targets().div_ceil(shards).max(1);
                    let (written, s) = tracer.span("serve.write_sharded", |_| {
                        write_sharded(snap, &manifest, rows)
                    });
                    gt.write_s = s;
                    write_error = written.err().map(|e| e.to_string());
                    (None, manifest)
                }
                _ => unreachable!("inputs and workload kind always agree"),
            };
            let outcome = if write_error.is_some() {
                None
            } else {
                publish(tracer, &hot, &artifact, traced, &mut gt)
            };
            (output, outcome, artifact)
        });
        self.samples.generation_s.push(secs);

        match outcome {
            Some(o) => {
                gt.flip_ns = o.flip_ns;
                pin(
                    &mut self.pins.generation,
                    o.generation,
                    "generation id",
                    &mut self.tally,
                );
                if let Some(out) = &output {
                    pin(
                        &mut self.pins.content_hash,
                        out.content_hash(),
                        "content hash",
                        &mut self.tally,
                    );
                }
                self.live = Some(Live {
                    generation: o.generation,
                    output,
                    artifact,
                });
            }
            None => {
                let why = write_error.unwrap_or_else(|| "publish failed".into());
                self.tally.check(false, || format!("generation: {why}"));
            }
        }
        gt
    }

    /// The offline inference step over the workload's test queries.
    pub fn eval(&mut self) {
        let (spec, threads) = (self.spec, self.threads());
        let inputs = self.inputs.as_ref().expect("set-up ran");
        let Some(live) = self.live.as_ref() else {
            return;
        };
        // Every arm returns a digest of what it inferred, which must repeat.
        let (inference, secs) = self.tracer.span("eval", |tracer| {
            match (inputs, &live.output, spec.eval) {
                (Inputs::Kg { fold, .. }, Some(out), Eval::RankRows { rows }) => {
                    // What `evaluate_output` computes, for the first
                    // `rows` test queries: each ranked against every
                    // test target.
                    let rows = rows.min(fold.test.len());
                    let sources: Vec<EntityId> =
                        fold.test[..rows].iter().map(|&(a, _)| a).collect();
                    let targets: Vec<EntityId> = fold.test.iter().map(|&(_, b)| b).collect();
                    let (src, dst) = out.gather(&sources, &targets);
                    let gold: Vec<usize> = (0..rows).collect();
                    let (ev, _) = tracer.span("align.rank_eval", |_| {
                        rank_eval_streaming(&src, &dst, out.dim, out.metric, &gold, threads)
                    });
                    ev.hits1.to_bits()
                }
                (Inputs::Kg { fold, .. }, Some(out), Eval::RankCslsMarriage) => {
                    let (ev, _) = tracer.span("align.rank_eval", |_| {
                        evaluate_output(out, &fold.test, threads)
                    });
                    let sources: Vec<EntityId> = fold.test.iter().map(|&(a, _)| a).collect();
                    let targets: Vec<EntityId> = fold.test.iter().map(|&(_, b)| b).collect();
                    let (src, dst) = out.gather(&sources, &targets);
                    let (csls, _) = tracer.span("align.csls_topk", |_| {
                        csls_topk(&src, &dst, out.dim, out.metric, TOP_K, TOP_K, threads)
                    });
                    let (matched, _) = tracer.span("align.stable_marriage_topk", |_| {
                        stable_marriage_topk(&csls)
                    });
                    let right = matched
                        .iter()
                        .enumerate()
                        .filter(|&(i, m)| *m == Some(i))
                        .count();
                    ev.hits1.to_bits() ^ right as u64
                }
                (Inputs::Embedded(snap), None, Eval::Streaming { queries }) => {
                    let n = snap.num_queries();
                    let stride = (n / queries.max(1)).max(1);
                    let gold: Vec<usize> = (0..n).step_by(stride).take(queries).collect();
                    let dim = snap.dim;
                    let mut src = Vec::with_capacity(gold.len() * dim);
                    for &e in &gold {
                        src.extend_from_slice(&snap.emb1[e * dim..(e + 1) * dim]);
                    }
                    let (ev, _) = tracer.span("align.rank_eval", |_| {
                        rank_eval_streaming(&src, &snap.emb2, dim, snap.metric, &gold, threads)
                    });
                    ev.hits1.to_bits()
                }
                _ => unreachable!("eval kind and workload kind always agree"),
            }
        });
        self.samples.eval_s.push(secs);
        pin(
            &mut self.pins.inference,
            inference,
            "inference result",
            &mut self.tally,
        );
    }

    /// `count` requests of this run's traffic; `stream` keeps the draws of
    /// different windows apart.
    fn traffic(&self, stream: u64, count: usize) -> Vec<u32> {
        let sampler = self.sampler.as_ref().expect("server started");
        sampler.draw(&mut Rng64::new(self.seed, stream), count)
    }

    /// Sends `count` requests and returns the seconds they took.
    pub fn window(&mut self, stream: u64, count: usize) -> f64 {
        let Some(generation) = self.live.as_ref().map(|l| l.generation) else {
            return 0.0;
        };
        let entities = self.traffic(stream, count);
        let harness = self.harness.as_mut().expect("server started");
        let start = Instant::now();
        harness.drive(&entities, generation, &mut self.tally, |_, _| ());
        start.elapsed().as_secs_f64()
    }

    /// One step of the schedule. A generation step returns what its trace
    /// recorded (all zero unless `traced`).
    pub fn step(&mut self, step: Step, traced: bool) -> Option<GenerationTrace> {
        let spec = self.spec;
        self.tracer.set_round(step.round);
        // Traffic streams: the round, then the position in the round.
        let stream = (step.round as u64) << 16 | (step.rep as u64 + 1);
        match step.unit {
            Unit::Setup => self.setup(),
            Unit::Generation => return Some(self.generation(traced)),
            Unit::Eval => self.eval(),
            Unit::Warmup => {
                self.window(stream | 0x8000, spec.warmup_requests);
            }
            Unit::Window => {
                let secs = self.window(stream, spec.window_requests);
                if secs > 0.0 {
                    self.samples
                        .window_qps
                        .push(spec.window_requests as f64 / secs);
                }
            }
        }
        None
    }

    /// Served answers against the dense reference: `compute_naive` rows and
    /// their stable argsort, on `reference_queries` sampled entities. Sets
    /// `recall_at_10` and `hits1`.
    pub fn verify_served(&mut self) {
        let spec = self.spec;
        let threads = self.threads();
        let Some(generation) = self.live.as_ref().map(|l| l.generation) else {
            return;
        };
        let harness = self.harness.as_mut().expect("server started");
        let index = harness.hot.current();
        let snap = index.index().snapshot();
        let (dim, n) = (snap.dim, snap.num_queries());
        let mut rng = Rng64::new(self.seed, 0x5EF);
        let queries: Vec<u32> = (0..spec.reference_queries)
            .map(|_| rng.below(n as u32))
            .collect();

        let mut served: Vec<Option<Vec<(u32, f32)>>> = vec![None; queries.len()];
        harness.drive(&queries, generation, &mut self.tally, |i, resp| {
            served[i] = body_results(resp.body);
        });

        let exact = spec.nlist == 0;
        let (mut found, mut wanted, mut top1) = (0usize, 0usize, 0usize);
        for (chunk, answers) in queries
            .chunks(REFERENCE_CHUNK)
            .zip(served.chunks(REFERENCE_CHUNK))
        {
            let mut rows = Vec::with_capacity(chunk.len() * dim);
            for &e in chunk {
                rows.extend_from_slice(&snap.emb1[e as usize * dim..(e as usize + 1) * dim]);
            }
            let sim = SimilarityMatrix::compute_naive(&rows, &snap.emb2, dim, snap.metric, threads);
            for (i, (&e, answer)) in chunk.iter().zip(answers).enumerate() {
                let reference = sim.topk_row(i, TOP_K);
                wanted += reference.len();
                let Some(answer) = answer else {
                    self.tally
                        .fail(1, format!("entity {e}: no readable answer to verify"));
                    continue;
                };
                found += reference
                    .iter()
                    .filter(|(j, _)| answer.iter().any(|(t, _)| *t as usize == *j))
                    .count();
                top1 += usize::from(answer.first().is_some_and(|(t, _)| *t == e));
                if exact {
                    let same = answer.len() == reference.len()
                        && answer
                            .iter()
                            .zip(&reference)
                            .all(|(a, r)| a.0 as usize == r.0 && a.1.to_bits() == r.1.to_bits());
                    if !same {
                        self.tally.fail(
                            1,
                            format!("entity {e}: served answer differs from the dense reference"),
                        );
                    }
                }
            }
        }
        let recall = found as f64 / wanted.max(1) as f64;
        self.recall_at_10 = Some(recall);
        if !exact {
            self.tally.check(recall >= MIN_IVF_RECALL, || {
                format!("recall@10 {recall:.4} is below {MIN_IVF_RECALL}")
            });
        }
        // Hits@1: on the test pairs where the workload trains, of the served
        // top-1 against the identity ground truth where it does not.
        self.hits1 = match (self.inputs.as_ref(), self.live.as_ref().map(|l| &l.output)) {
            (Some(Inputs::Kg { fold, .. }), Some(Some(out))) => {
                Some(evaluate_output(out, &fold.test, threads).hits1)
            }
            _ => Some(top1 as f64 / queries.len().max(1) as f64),
        };
        if let (Some(pinned), Some(h), 1) = (spec.hits1_seed1, self.hits1, self.seed) {
            self.tally.check((h - pinned).abs() < 1e-12, || {
                format!("Hits@1 of seed 1 is {h}, pinned {pinned}")
            });
        }
    }

    pub fn end_to_end(&self) -> Vec<Reading> {
        vec![
            reading("setup_s", decile(&self.samples.setup_s, Better::Lower), "s"),
            reading("hits1", self.hits1.unwrap_or(0.0), "ratio"),
            reading("recall_at_10", self.recall_at_10.unwrap_or(0.0), "ratio"),
            reading("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    /// The quiet-host estimates of the two paths and of offline inference
    /// (per-layer on this host: see README.md, "Why the timed metrics are
    /// per-layer"), then the mean and median of the samples the estimator
    /// reads, so that a change that adds periodic stalls still shows.
    pub fn timings(&self) -> Vec<Reading> {
        let s = &self.samples;
        vec![
            reading(
                "pipeline.generation_s",
                decile(&s.generation_s, Better::Lower),
                "s",
            ),
            reading("pipeline.eval_s", decile(&s.eval_s, Better::Lower), "s"),
            reading(
                "pipeline.align_qps",
                decile(&s.window_qps, Better::Higher),
                "1/s",
            ),
            reading("samples.setup_s_mean", mean(&s.setup_s), "s"),
            reading("samples.setup_s_median", median(&s.setup_s), "s"),
            reading("samples.generation_s_mean", mean(&s.generation_s), "s"),
            reading("samples.generation_s_median", median(&s.generation_s), "s"),
            reading("samples.eval_s_mean", mean(&s.eval_s), "s"),
            reading("samples.eval_s_median", median(&s.eval_s), "s"),
            reading("serve.qps_mean", mean(&s.window_qps), "1/s"),
            reading("serve.qps_median", median(&s.window_qps), "1/s"),
        ]
    }

    pub fn stop(&mut self) {
        if let Some(mut h) = self.harness.take() {
            h.stop();
        }
    }
}

/// The quiet-host estimate of `samples`; 0 when a failed run left none.
fn decile(samples: &[f64], better: Better) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        fast_decile(samples, better)
    }
}

/// Makes the artifact at `path` the live generation. Untraced this is one
/// `reload_from`; traced it is the same work as two calls the harness can
/// put spans around.
fn publish(
    tracer: &mut Tracer,
    hot: &HotSwapIndex,
    path: &Path,
    traced: bool,
    gt: &mut GenerationTrace,
) -> Option<ReloadOutcome> {
    if !traced {
        return hot.reload_from(path).ok();
    }
    let budget = hot.options().mem_budget_bytes;
    let (loaded, s) = tracer.span("serve.load_artifact", |_| load_artifact(path, budget));
    gt.load_s = s;
    let snapshot = loaded.ok()?.snapshot;
    let (outcome, s) = tracer.span("serve.swap_in", |_| hot.swap_in(snapshot));
    gt.swap_in_s = s;
    Some(outcome)
}

/// `VmHWM` of this process in MB (0 where `/proc` is not there).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload and reports its metrics.
pub fn run(opts: &Options) -> Report {
    let mut run = Run::new(opts);
    let steps = round_robin(opts.spec.rounds_for(opts.seconds), opts.spec.round_shape());
    let mut per_layer = Vec::new();

    if opts.trace {
        per_layer = layers::traced_run(&mut run, steps);
    } else {
        for step in steps {
            run.step(step, false);
        }
        run.verify_served();
    }
    run.stop();

    per_layer.extend(run.timings());
    Report {
        end_to_end: run.end_to_end(),
        per_layer,
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        notes: std::mem::take(&mut run.tally.notes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_operation_counts_against_the_total() {
        let mut tally = Tally::default();
        tally.check(true, || unreachable!("no reason needed for a pass"));
        tally.check(false, || "first".into());
        tally.fail(3, "burst".into());
        assert_eq!((tally.attempted, tally.failed), (2, 4));
        assert_eq!(tally.notes, ["first", "burst"]);
        for i in 0..20 {
            tally.fail(1, format!("note {i}"));
        }
        assert_eq!(tally.notes.len(), 8, "only the first reasons are kept");
        assert_eq!(tally.failed, 24);
    }

    #[test]
    fn a_value_that_does_not_repeat_is_a_failure() {
        let mut tally = Tally::default();
        let mut slot = None;
        pin(&mut slot, 7u64, "hash", &mut tally);
        pin(&mut slot, 7u64, "hash", &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        pin(&mut slot, 8u64, "hash", &mut tally);
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert_eq!(slot, Some(7), "the first value stays the reference");
        assert!(tally.notes[0].contains("hash does not repeat"));
    }

    #[test]
    fn the_input_digest_sees_every_part_of_an_embedded_pair() {
        let snap = |v: f32| bare_snapshot(2, vec![1.0, 2.0], vec![3.0, v]);
        let a = inputs_hash(&Inputs::Embedded(snap(4.0)));
        assert_eq!(a, inputs_hash(&Inputs::Embedded(snap(4.0))));
        assert_ne!(a, inputs_hash(&Inputs::Embedded(snap(4.5))));
    }
}
