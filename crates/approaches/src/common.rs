//! Shared infrastructure for all approaches: run configuration, the unified
//! id space with the four combination modes, early stopping on validation
//! Hits@1, literal feature extraction and output evaluation.

use openea_align::{rank_eval_streaming, Metric, PrfScores, RankEval, TopKMatrix};
use openea_core::{AlignedPair, EntityId, FoldSplit, KgPair, KnowledgeGraph};
use openea_math::negsamp::{NegSampler, RawTriple, UniformSampler};
use openea_math::vecops;
use openea_math::EmbeddingTable;
use openea_models::literal::{LiteralEncoder, WordVectors};
pub use openea_models::trainer::{
    train_epoch_batched, EpochTrace, StopReason, TraceRecorder, TrainError, TrainOptions,
    TrainTrace,
};
use openea_models::{RelationModel, TransE};
use openea_runtime::hash::Fnv1a;
use openea_runtime::rng::{RngCore, SmallRng};

use crate::engine::{Lineage, RunContext, WarmStart};
pub use openea_models::traits::EpochStats;
use std::collections::HashMap;

/// Requirement level of an input resource (Table 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    Mandatory,
    Optional,
    NotApplicable,
    /// Mandatory only for cross-lingual entity alignment.
    CrossLingualOnly,
}

impl Req {
    pub fn symbol(self) -> &'static str {
        match self {
            Req::Mandatory => "*",
            Req::Optional => "o",
            Req::NotApplicable => " ",
            Req::CrossLingualOnly => "^",
        }
    }
}

/// The required-information matrix of one approach (one column of Table 9).
#[derive(Clone, Copy, Debug)]
pub struct Requirements {
    pub rel_triples: Req,
    pub attr_triples: Req,
    pub pre_aligned_entities: Req,
    pub pre_aligned_properties: Req,
    pub word_embeddings: Req,
}

impl Requirements {
    /// Positional Table 9 column: relation triples, attribute triples,
    /// pre-aligned entities, pre-aligned properties, word embeddings.
    pub const fn of(rel: Req, attr: Req, ents: Req, props: Req, words: Req) -> Self {
        Self {
            rel_triples: rel,
            attr_triples: attr,
            pre_aligned_entities: ents,
            pre_aligned_properties: props,
            word_embeddings: words,
        }
    }

    /// Table 9 column shared by the purely structural approaches: relation
    /// triples and seed entity pairs, nothing else. Rows that differ in one
    /// cell derive from this with struct-update syntax.
    pub const RELATION_BASED: Self = Self::of(
        Req::Mandatory,
        Req::NotApplicable,
        Req::Mandatory,
        Req::NotApplicable,
        Req::NotApplicable,
    );

    /// Table 9 column shared by the literal-augmented approaches: structure
    /// optional, seed entities mandatory, word embeddings useful only when
    /// the KGs cross a language boundary.
    pub const LITERAL_AUGMENTED: Self = Self::of(
        Req::Optional,
        Req::Optional,
        Req::Mandatory,
        Req::Optional,
        Req::CrossLingualOnly,
    );
}

/// Cap on *pairs* (a positive with one negative) per mini-batch of the
/// training engine — `TrainOptions::batch_size` counts pairs. The effective
/// size is `triples / BATCHES_PER_EPOCH`, clamped to this — small KGs keep
/// near-serial SGD dynamics, large ones get larger batches.
const MAX_BATCH_PAIRS: usize = 4096;

/// Divisor the effective batch size is derived with — not the batch count:
/// an epoch has `triples × negs` pairs, so it runs about
/// `BATCHES_PER_EPOCH × negs` batches (150 at 5 negatives) unless
/// [`MAX_BATCH_PAIRS`] caps the size and it runs more.
const BATCHES_PER_EPOCH: usize = 30;

/// Hyper-parameters shared by every run (Table 4 analogue).
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Maximum training epochs (paper: 2000; library default is scaled to
    /// its smaller datasets).
    pub max_epochs: usize,
    /// Early-stopping cadence: validation Hits@1 is checked every this many
    /// epochs (paper: 10).
    pub check_every: usize,
    /// Consecutive non-improving checks tolerated before stopping.
    pub patience: usize,
    pub lr: f32,
    /// Negatives per positive triple.
    pub negs: usize,
    /// Margin for ranking losses.
    pub margin: f32,
    /// Figure 6 ablation switch: disable attribute embedding.
    pub use_attributes: bool,
    /// Table 8 feature study: disable relation triples.
    pub use_relations: bool,
    /// Pre-trained (cross-lingual) word vectors for literal encoders.
    pub word_vectors: WordVectors,
    /// Worker threads for similarity search and batched training.
    pub threads: usize,
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            max_epochs: 120,
            check_every: 10,
            patience: 2,
            lr: 0.02,
            negs: 5,
            margin: 1.0,
            use_attributes: true,
            use_relations: true,
            word_vectors: WordVectors::hash_only(32),
            threads: 4,
            seed: 42,
        }
    }
}

impl RunConfig {
    /// Rejects configurations the driver engine cannot run: a zero
    /// `check_every` would divide by zero in the validation cadence, a zero
    /// `dim` or `max_epochs` could never produce trained embeddings, and
    /// zero `negs` is what the relation trainer refuses
    /// (`TrainError::ZeroNegatives`) — refused here so that every approach
    /// answers alike, whether or not it reaches that trainer.
    pub fn validate(&self) -> Result<(), TrainError> {
        if self.negs == 0 {
            return Err(TrainError::ZeroNegatives);
        }
        if self.check_every == 0 {
            return Err(TrainError::ZeroCheckEvery);
        }
        if self.dim == 0 {
            return Err(TrainError::ZeroDim);
        }
        if self.max_epochs == 0 {
            return Err(TrainError::ZeroMaxEpochs);
        }
        Ok(())
    }

    pub fn literal_encoder(&self) -> LiteralEncoder {
        LiteralEncoder::new(self.word_vectors.clone())
    }

    /// The batched-trainer options implied by this configuration for a KG
    /// (or unified space) with `n_triples` positive triples.
    pub fn train_options(&self, n_triples: usize) -> TrainOptions {
        let aimed = n_triples.div_ceil(BATCHES_PER_EPOCH);
        TrainOptions {
            lr: self.lr,
            negs_per_pos: self.negs,
            batch_size: aimed.clamp(1, MAX_BATCH_PAIRS),
            threads: self.threads,
            ..TrainOptions::default()
        }
    }
}

/// The result of running an approach: final entity embeddings for both KGs
/// in a comparable space, plus per-iteration augmentation quality for the
/// semi-supervised approaches (Figure 7).
#[derive(Clone, Debug)]
pub struct ApproachOutput {
    pub dim: usize,
    pub metric: Metric,
    /// Row-major `n1 × dim` embeddings of KG1 entities.
    pub emb1: Vec<f32>,
    /// Row-major `n2 × dim` embeddings of KG2 entities.
    pub emb2: Vec<f32>,
    /// Precision/recall/F1 of the augmented seed alignment per
    /// semi-supervised iteration (empty for supervised approaches).
    pub augmentation: Vec<PrfScores>,
    /// Per-epoch telemetry of the (primary) relation-model training loop.
    /// Default (empty) for approaches that do not train through the batched
    /// engine.
    pub trace: TrainTrace,
    /// Provenance when the run warm-started from a snapshot: parent
    /// generation and cumulative epoch count, stamped by the engine.
    /// `None` for cold runs, keeping their artifacts byte-identical to the
    /// pre-lineage format.
    pub lineage: Option<Lineage>,
}

impl ApproachOutput {
    /// An output with no augmentation history and an empty trace (the engine
    /// attaches the trace after training).
    pub fn new(dim: usize, metric: Metric, emb1: Vec<f32>, emb2: Vec<f32>) -> Self {
        Self {
            dim,
            metric,
            emb1,
            emb2,
            augmentation: Vec::new(),
            trace: TrainTrace::default(),
            lineage: None,
        }
    }

    /// FNV-1a hash over the exact bit patterns of both embedding matrices
    /// (plus `dim` and the metric tag). Two outputs hash equal iff they are
    /// bit-identical — the regression oracle for the driver-engine golden
    /// tests and the cross-thread determinism contract.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.update(&(self.dim as u64).to_le_bytes());
        h.update(&[self.metric as u8]);
        for emb in [&self.emb1, &self.emb2] {
            h.update(&(emb.len() as u64).to_le_bytes());
            for v in emb {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        h.finish()
    }

    pub fn vec1(&self, e: EntityId) -> &[f32] {
        &self.emb1[e.idx() * self.dim..(e.idx() + 1) * self.dim]
    }

    pub fn vec2(&self, e: EntityId) -> &[f32] {
        &self.emb2[e.idx() * self.dim..(e.idx() + 1) * self.dim]
    }

    /// Gathers the given entities' embeddings into contiguous row-major
    /// buffers (sources from KG1, targets from KG2) for the kernel layer.
    pub fn gather(&self, sources: &[EntityId], targets: &[EntityId]) -> (Vec<f32>, Vec<f32>) {
        (
            gather_rows(&self.emb1, self.dim, sources),
            gather_rows(&self.emb2, self.dim, targets),
        )
    }

    /// Streaming top-`k` targets per source among the given entities —
    /// O(sources·k) memory, same scores and tie rule as a stable argsort of
    /// each row of the dense similarity matrix.
    pub fn topk(
        &self,
        sources: &[EntityId],
        targets: &[EntityId],
        k: usize,
        threads: usize,
    ) -> TopKMatrix {
        let (src, dst) = self.gather(sources, targets);
        TopKMatrix::compute(&src, &dst, self.dim, self.metric, k, threads)
    }
}

/// The rows of `ids` in a row-major `dim`-wide matrix, in their order.
pub(crate) fn gather_rows(emb: &[f32], dim: usize, ids: &[EntityId]) -> Vec<f32> {
    let mut out = Vec::with_capacity(ids.len() * dim);
    for &e in ids {
        out.extend_from_slice(&emb[e.idx() * dim..(e.idx() + 1) * dim]);
    }
    out
}

/// Evaluates an output on the fold's test pairs with the OpenEA convention:
/// candidates are the test targets. Ranks are streamed through the kernel
/// layer, so the `test × test` similarity matrix is never materialized.
pub fn evaluate_output(out: &ApproachOutput, test: &[AlignedPair], threads: usize) -> RankEval {
    let (sources, targets): (Vec<EntityId>, Vec<EntityId>) = test.iter().copied().unzip();
    let (src, dst) = out.gather(&sources, &targets);
    rank_pairs(&src, &dst, out.dim, out.metric, threads)
}

/// Ranks every pair's target among all the pairs' targets, for rows
/// gathered in pair order (source row `i` and target row `i` are pair `i`).
fn rank_pairs(src: &[f32], dst: &[f32], dim: usize, metric: Metric, threads: usize) -> RankEval {
    let gold: Vec<usize> = (0..src.len() / dim).collect();
    rank_eval_streaming(src, dst, dim, metric, &gold, threads)
}

/// How the two KGs' parameters are combined (Sect. 2.2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combination {
    /// Independent ids; the alignment module adds a calibration loss.
    Calibration,
    /// Seed pairs share one parameter vector.
    Sharing,
    /// Seed entities are swapped in each other's triples (extra triples).
    Swapping,
}

/// A unified id space over both KGs of a pair.
#[derive(Clone, Debug)]
pub struct UnifiedSpace {
    pub num_entities: usize,
    pub num_relations: usize,
    map1: Vec<u32>,
    map2: Vec<u32>,
}

impl UnifiedSpace {
    /// Builds the space and its training triples over unified ids (KG1 +
    /// KG2, plus swaps if any). `seeds` drive sharing/swapping; with
    /// [`Combination::Calibration`] they are ignored here (the approach adds
    /// its own loss).
    pub fn build(
        pair: &KgPair,
        seeds: &[AlignedPair],
        mode: Combination,
    ) -> (Self, Vec<RawTriple>) {
        let n1 = pair.kg1.num_entities();
        let n2 = pair.kg2.num_entities();
        let r1 = pair.kg1.num_relations();
        let r2 = pair.kg2.num_relations();

        let map1: Vec<u32> = (0..n1 as u32).collect();
        let mut map2: Vec<u32> = Vec::with_capacity(n2);
        let mut num_entities = n1;
        match mode {
            Combination::Sharing => {
                let mut shared: HashMap<EntityId, u32> = HashMap::with_capacity(seeds.len());
                for &(a, b) in seeds {
                    shared.insert(b, a.0);
                }
                for e in 0..n2 {
                    match shared.get(&EntityId::from_idx(e)) {
                        Some(&uid) => map2.push(uid),
                        None => {
                            map2.push(num_entities as u32);
                            num_entities += 1;
                        }
                    }
                }
            }
            _ => {
                map2.extend((n1 as u32..(n1 + n2) as u32).clone());
                num_entities = n1 + n2;
            }
        }

        let mut triples =
            Vec::with_capacity(pair.kg1.num_rel_triples() + pair.kg2.num_rel_triples());
        for t in pair.kg1.rel_triples() {
            triples.push((map1[t.head.idx()], t.rel.0, map1[t.tail.idx()]));
        }
        for t in pair.kg2.rel_triples() {
            triples.push((map2[t.head.idx()], r1 as u32 + t.rel.0, map2[t.tail.idx()]));
        }

        let space = Self {
            num_entities,
            num_relations: r1 + r2,
            map1,
            map2,
        };
        if mode == Combination::Swapping {
            triples.extend(space.swap_triples(pair, seeds));
        }
        (space, triples)
    }

    /// Swapped triples for the given aligned pairs (Sect. 2.2.3): for
    /// `(e1, e2)` and a KG1 triple `(e1, r, x)` emit `(e2, r, x)`, and
    /// symmetrically for KG2 triples.
    pub fn swap_triples(&self, pair: &KgPair, pairs: &[AlignedPair]) -> Vec<RawTriple> {
        let r1 = pair.kg1.num_relations() as u32;
        let mut out = Vec::new();
        for &(a, b) in pairs {
            let ua = self.uid1(a);
            let ub = self.uid2(b);
            if ua == ub {
                continue; // shared parameters: swapping is a no-op
            }
            for &(r, t) in pair.kg1.out_edges(a) {
                out.push((ub, r.0, self.uid1(t)));
            }
            for &(r, h) in pair.kg1.in_edges(a) {
                out.push((self.uid1(h), r.0, ub));
            }
            for &(r, t) in pair.kg2.out_edges(b) {
                out.push((ua, r1 + r.0, self.uid2(t)));
            }
            for &(r, h) in pair.kg2.in_edges(b) {
                out.push((self.uid2(h), r1 + r.0, ua));
            }
        }
        out
    }

    #[inline]
    pub fn uid1(&self, e: EntityId) -> u32 {
        self.map1[e.idx()]
    }

    #[inline]
    pub fn uid2(&self, e: EntityId) -> u32 {
        self.map2[e.idx()]
    }

    /// Splits a unified embedding table back into per-KG flat buffers.
    pub fn extract(&self, table: &EmbeddingTable) -> (Vec<f32>, Vec<f32>) {
        let dim = table.dim();
        let mut e1 = Vec::with_capacity(self.map1.len() * dim);
        for &u in &self.map1 {
            e1.extend_from_slice(table.row(u as usize));
        }
        let mut e2 = Vec::with_capacity(self.map2.len() * dim);
        for &u in &self.map2 {
            e2.extend_from_slice(table.row(u as usize));
        }
        (e1, e2)
    }

    /// The rows of KG1 `sources` and KG2 `targets`, read in place from a
    /// unified table: what [`UnifiedSpace::extract`] followed by
    /// [`ApproachOutput::gather`] returns, without copying the whole table
    /// first.
    pub(crate) fn gather(
        &self,
        table: &EmbeddingTable,
        sources: &[EntityId],
        targets: &[EntityId],
    ) -> (Vec<f32>, Vec<f32>) {
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        self.rows1_into(table, sources, &mut src);
        self.rows2_into(table, targets, &mut dst);
        (src, dst)
    }

    /// Replaces `out` with the rows of KG1 entities `ids`, in their order.
    pub(crate) fn rows1_into(&self, table: &EmbeddingTable, ids: &[EntityId], out: &mut Vec<f32>) {
        rows_into(table, &self.map1, ids, out);
    }

    /// Replaces `out` with the rows of KG2 entities `ids`, in their order.
    pub(crate) fn rows2_into(&self, table: &EmbeddingTable, ids: &[EntityId], out: &mut Vec<f32>) {
        rows_into(table, &self.map2, ids, out);
    }

    /// The output of an approach trained in this space: both KGs' rows of
    /// `table`, compared under `metric` — a driver's checkpoint.
    pub(crate) fn output(&self, table: &EmbeddingTable, metric: Metric) -> ApproachOutput {
        let (emb1, emb2) = self.extract(table);
        ApproachOutput::new(table.dim(), metric, emb1, emb2)
    }

    /// [`validation_hits1`] of [`UnifiedSpace::output`], bit for bit, scored
    /// in place: only the validation pairs' rows are gathered from `table`,
    /// so a checkpoint need not be extracted to be judged.
    pub(crate) fn validation_hits1(
        &self,
        table: &EmbeddingTable,
        metric: Metric,
        valid: &[AlignedPair],
        threads: usize,
    ) -> f64 {
        if valid.is_empty() {
            return 0.0;
        }
        let (sources, targets): (Vec<EntityId>, Vec<EntityId>) = valid.iter().copied().unzip();
        let (src, dst) = self.gather(table, &sources, &targets);
        rank_pairs(&src, &dst, table.dim(), metric, threads).hits1
    }
}

fn rows_into(table: &EmbeddingTable, map: &[u32], ids: &[EntityId], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(ids.len() * table.dim());
    for &e in ids {
        out.extend_from_slice(table.row(map[e.idx()] as usize));
    }
}

/// Pulls the unified embeddings of aligned pairs together (the calibration
/// objective `‖e₁ − e₂‖²`, one SGD step per pair).
pub fn calibrate(table: &mut EmbeddingTable, pairs: &[(u32, u32)], lr: f32) {
    let dim = table.dim();
    for &(a, b) in pairs {
        if a == b {
            continue;
        }
        let (ra, rb) = table.rows_mut2(a as usize, b as usize);
        for i in 0..dim {
            let g = 2.0 * (ra[i] - rb[i]) * lr;
            ra[i] -= g;
            rb[i] += g;
        }
    }
}

/// Early stopping on validation Hits@1 (paper's termination condition).
#[derive(Clone, Debug)]
pub struct EarlyStopper {
    best: f64,
    bad_checks: usize,
    patience: usize,
}

impl EarlyStopper {
    pub fn new(patience: usize) -> Self {
        Self {
            best: f64::NEG_INFINITY,
            bad_checks: 0,
            patience,
        }
    }

    /// Feeds a new validation score; returns `true` when training should stop.
    pub fn should_stop(&mut self, score: f64) -> bool {
        if score > self.best {
            self.best = score;
            self.bad_checks = 0;
            false
        } else {
            self.bad_checks += 1;
            self.bad_checks > self.patience
        }
    }

    pub fn best(&self) -> f64 {
        self.best
    }
}

/// Validation Hits@1 via greedy matching among the validation pairs.
pub fn validation_hits1(out: &ApproachOutput, valid: &[AlignedPair], threads: usize) -> f64 {
    if valid.is_empty() {
        return 0.0;
    }
    evaluate_output(out, valid, threads).hits1
}

/// The concatenated literal text of an entity (attribute values joined), the
/// raw material for description/name encoders.
pub fn entity_literal_text(kg: &KnowledgeGraph, e: EntityId) -> String {
    let mut parts: Vec<&str> = kg
        .attrs_of(e)
        .iter()
        .map(|&(_, v)| kg.literal_value(v))
        .collect();
    parts.sort_unstable();
    parts.join(" ")
}

/// A heuristic "name" literal: the value with the most alphabetic
/// characters (names are wordy; numbers and dates are not).
pub fn entity_name_literal(kg: &KnowledgeGraph, e: EntityId) -> Option<&str> {
    kg.attrs_of(e)
        .iter()
        .map(|&(_, v)| kg.literal_value(v))
        .max_by_key(|s| s.chars().filter(|c| c.is_alphabetic()).count())
}

/// Reserved RNG stream tag for warm-start seeding: new entities are seeded
/// from `stream(seed ^ WARM_SEED_STREAM, key)` where `key` identifies the
/// entity, so the seeded bits depend only on `(run seed, entity)` — not on
/// how many other entities exist in the generation.
pub const WARM_SEED_STREAM: u64 = 0x5741_524d_5345_4544; // "WARMSEED"

/// Fills one new entity's row from its reserved warm-start stream: a
/// symmetric uniform draw L2-normalized, the same row distribution the
/// `Unit` initializer produces for cold models.
pub fn warm_seed_row(seed: u64, key: u64, row: &mut [f32]) {
    use openea_runtime::rng::Rng;
    let mut rng = SmallRng::stream(seed ^ WARM_SEED_STREAM, key);
    for x in row.iter_mut() {
        *x = rng.gen_range(-1.0f32..=1.0);
    }
    vecops::normalize(row);
}

/// One relation model and what trains it over its triples: the training
/// options, sized from the triple count at construction, uniform negatives
/// over the model's entities, one guarded epoch and the warm-start absorber.
/// Both interaction modes train their models through it: [`Unified`] holds
/// one over a unified space, `transformation::TransformationCore` one per
/// KG. The box lets a unit hold any model, a `dyn RelationModel` included.
pub(crate) struct TrainUnit<M: ?Sized> {
    pub model: Box<M>,
    pub triples: Vec<RawTriple>,
    opts: TrainOptions,
}

impl<M: RelationModel + ?Sized> TrainUnit<M> {
    pub fn new(model: Box<M>, triples: Vec<RawTriple>, cfg: &RunConfig) -> Self {
        let opts = cfg.train_options(triples.len());
        Self {
            model,
            triples,
            opts,
        }
    }

    /// [`TrainUnit::epoch_with`] with uniform negatives over the model's
    /// entities.
    pub fn epoch(&mut self, cfg: &RunConfig, rng: &mut SmallRng) -> EpochStats {
        let uniform = UniformSampler {
            num_entities: self.model.num_entities().max(1) as u32,
        };
        self.epoch_with(cfg, &uniform, rng)
    }

    /// One batched epoch with negatives drawn by `sampler`, seeded by the
    /// next draw of `rng`; a no-op that draws nothing under `use_relations
    /// == false`.
    pub fn epoch_with(
        &mut self,
        cfg: &RunConfig,
        sampler: &impl NegSampler,
        rng: &mut SmallRng,
    ) -> EpochStats {
        if !cfg.use_relations {
            return EpochStats::default();
        }
        let seed = rng.next_u64();
        train_epoch_batched(
            self.model.as_mut(),
            &self.triples,
            sampler,
            &self.opts,
            seed,
        )
        .expect("valid train options")
    }

    /// Warm-starts the entity table from a parent generation's rows of
    /// width `dim`, read in place: row `i` is copied from `parent(i)` when
    /// the parent knew that entity, and seeded by [`warm_seed_row`] under
    /// `key(i)` when it is new, so its bits depend only on the run seed and
    /// the entity. Returns `false`, leaving the cold init untouched, when
    /// `dim` is not the table's width (RotatE interleaves and SimplE halves
    /// `cfg.dim`; fused side views widen the output). Only entities carry
    /// over: relation and auxiliary parameters keep their cold init and
    /// re-converge within the delta budget.
    pub fn absorb<'p>(
        &mut self,
        dim: usize,
        seed: u64,
        parent: impl Fn(usize) -> Option<&'p [f32]>,
        key: impl Fn(usize) -> u64,
    ) -> bool {
        let table = self.model.entities_mut();
        if dim != table.dim() {
            return false;
        }
        for i in 0..table.count() {
            match parent(i) {
                Some(row) => table.row_mut(i).copy_from_slice(row),
                None => warm_seed_row(seed, key(i), table.row_mut(i)),
            }
        }
        true
    }
}

/// Driver state of the approaches trained in one unified space (IPTransE,
/// BootEA, JAPE, AttrE, IMUSE, MultiKE and the unsupervised pipeline, all
/// over TransE): the space, its [`TrainUnit`] and the driver RNG, which drew
/// the model's init and then one seed per epoch, in the historical order.
pub(crate) struct Unified<M = TransE> {
    pub space: UnifiedSpace,
    pub unit: TrainUnit<M>,
    pub rng: SmallRng,
}

impl Unified {
    /// TransE over the space `mode` builds from `pair` and `seeds`,
    /// initialised from the driver RNG.
    pub fn transe(
        pair: &KgPair,
        seeds: &[AlignedPair],
        mode: Combination,
        cfg: &RunConfig,
        ctx: &RunContext<'_>,
    ) -> Self {
        let mut rng = ctx.driver_rng();
        let (space, triples) = UnifiedSpace::build(pair, seeds, mode);
        let (n, r) = (space.num_entities, space.num_relations.max(1));
        let model = TransE::new(n, r, cfg.dim, cfg.margin, &mut rng);
        Self {
            space,
            unit: TrainUnit::new(Box::new(model), triples, cfg),
            rng,
        }
    }
}

impl<M: RelationModel> Unified<M> {
    /// Absorbs a parent generation into the unified table: on seed-shared
    /// rows the KG2 row wins, and new entities are keyed by unified id.
    pub fn warm_start(&mut self, warm: &WarmStart<'_>, ctx: &RunContext<'_>) -> bool {
        let mut src: Vec<Option<&[f32]>> = vec![None; self.space.num_entities];
        let maps = [(&self.space.map1, warm.emb1), (&self.space.map2, warm.emb2)];
        for (map, emb) in maps {
            for (&u, row) in map.iter().zip(emb.chunks_exact(warm.dim.max(1))) {
                src[u as usize] = Some(row);
            }
        }
        self.unit
            .absorb(warm.dim, ctx.seed, |u| src[u], |u| u as u64)
    }

    /// One guarded epoch with uniform negatives.
    pub fn train_epoch(&mut self, cfg: &RunConfig) -> EpochStats {
        self.unit.epoch(cfg, &mut self.rng)
    }

    /// The trained table as a checkpoint compared under `metric`.
    pub fn output(&self, metric: Metric) -> ApproachOutput {
        self.space.output(self.unit.model.entities(), metric)
    }

    /// Validation Hits@1 of [`Unified::output`], scored in place.
    pub fn validation_hits1(&self, metric: Metric, valid: &[AlignedPair], threads: usize) -> f64 {
        let table = self.unit.model.entities();
        self.space.validation_hits1(table, metric, valid, threads)
    }
}

/// The interface of an entity-alignment approach.
///
/// Implementors provide [`Approach::try_run`]; the provided `run` /
/// `run_with` wrappers build a default [`RunContext`] and surface a
/// [`TrainError`] as a panic for callers that predate the fallible API.
pub trait Approach: Send + Sync {
    fn name(&self) -> &'static str;

    /// Table 9 column for this approach.
    fn requirements(&self) -> Requirements;

    /// Trains on `split.train` (+`split.valid` for early stopping) under
    /// the given run context and returns alignment-ready embeddings, or why
    /// there are none: a rejected configuration or a diverged run.
    fn try_run(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &RunConfig,
        ctx: &RunContext<'_>,
    ) -> Result<ApproachOutput, TrainError>;

    /// Infallible convenience wrapper over [`Approach::try_run`] with a
    /// default context (no budget, no telemetry sink).
    fn run(&self, pair: &KgPair, split: &FoldSplit, cfg: &RunConfig) -> ApproachOutput {
        self.run_with(pair, split, cfg, &RunContext::new(cfg))
    }

    /// Like [`Approach::run`] but under a caller-provided context carrying
    /// a wall/epoch budget and telemetry sink.
    fn run_with(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &RunConfig,
        ctx: &RunContext<'_>,
    ) -> ApproachOutput {
        self.try_run(pair, split, cfg, ctx)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_core::KgBuilder;

    fn tiny_pair() -> KgPair {
        let mut b1 = KgBuilder::new("g1");
        b1.add_rel_triple("a1", "r", "b1");
        b1.add_rel_triple("b1", "r", "c1");
        b1.add_attr_triple("a1", "name", "alpha beta");
        let mut b2 = KgBuilder::new("g2");
        b2.add_rel_triple("a2", "s", "b2");
        b2.add_rel_triple("b2", "s", "c2");
        b2.add_attr_triple("a2", "label", "alpha beta");
        let kg1 = b1.build();
        let kg2 = b2.build();
        let al = ["a", "b", "c"]
            .iter()
            .map(|n| {
                (
                    kg1.entity_by_name(&format!("{n}1")).unwrap(),
                    kg2.entity_by_name(&format!("{n}2")).unwrap(),
                )
            })
            .collect();
        KgPair::new(kg1, kg2, al)
    }

    #[test]
    fn sharing_merges_seed_ids() {
        let p = tiny_pair();
        let seeds = vec![p.alignment[0]];
        let (s, _) = UnifiedSpace::build(&p, &seeds, Combination::Sharing);
        assert_eq!(s.num_entities, 3 + 3 - 1);
        assert_eq!(s.uid1(seeds[0].0), s.uid2(seeds[0].1));
        // Non-seed entities stay distinct.
        assert_ne!(s.uid1(p.alignment[1].0), s.uid2(p.alignment[1].1));
        assert_eq!(s.num_relations, 2);
    }

    #[test]
    fn swapping_adds_extra_triples() {
        let p = tiny_pair();
        let seeds = vec![p.alignment[0], p.alignment[1]];
        let (_, plain) = UnifiedSpace::build(&p, &[], Combination::Calibration);
        let (swapped, triples) = UnifiedSpace::build(&p, &seeds, Combination::Swapping);
        assert!(triples.len() > plain.len());
        // Every swap references valid unified ids.
        for &(h, r, t) in &triples {
            assert!((h as usize) < swapped.num_entities);
            assert!((t as usize) < swapped.num_entities);
            assert!((r as usize) < swapped.num_relations);
        }
    }

    #[test]
    fn extract_roundtrips_embeddings() {
        let p = tiny_pair();
        let (s, _) = UnifiedSpace::build(&p, &[], Combination::Calibration);
        let mut table = EmbeddingTable::zeros(s.num_entities, 4);
        for i in 0..s.num_entities {
            table.row_mut(i).fill(i as f32);
        }
        let (e1, e2) = s.extract(&table);
        assert_eq!(e1.len(), 3 * 4);
        assert_eq!(e2.len(), 3 * 4);
        let a1 = p.kg1.entity_by_name("a1").unwrap();
        assert_eq!(e1[a1.idx() * 4], s.uid1(a1) as f32);
    }

    #[test]
    fn calibrate_pulls_rows_together() {
        let mut table = EmbeddingTable::zeros(2, 2);
        table.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        table.row_mut(1).copy_from_slice(&[0.0, 1.0]);
        let d0 = vecops::euclidean(table.row(0), table.row(1));
        calibrate(&mut table, &[(0, 1)], 0.1);
        let d1 = vecops::euclidean(table.row(0), table.row(1));
        assert!(d1 < d0);
    }

    #[test]
    fn early_stopper_patience() {
        let mut es = EarlyStopper::new(1);
        assert!(!es.should_stop(0.5));
        assert!(!es.should_stop(0.6)); // improvement
        assert!(!es.should_stop(0.55)); // first bad check
        assert!(es.should_stop(0.5)); // second bad check -> stop
        assert_eq!(es.best(), 0.6);
    }

    #[test]
    fn name_literal_prefers_wordy_values() {
        let mut b = KgBuilder::new("k");
        b.add_attr_triple("e", "pop", "12345");
        b.add_attr_triple("e", "name", "long descriptive name");
        let kg = b.build();
        let e = kg.entity_by_name("e").unwrap();
        assert_eq!(entity_name_literal(&kg, e), Some("long descriptive name"));
    }

    #[test]
    fn literal_features_are_unit_or_zero() {
        let p = tiny_pair();
        let enc = LiteralEncoder::new(WordVectors::hash_only(8));
        let f = crate::views::literal_sum(&p.kg1, 8, |s| enc.encode(s));
        let a1 = p.kg1.entity_by_name("a1").unwrap();
        let row = &f[a1.idx() * 8..(a1.idx() + 1) * 8];
        assert!((vecops::norm2(row) - 1.0).abs() < 1e-4);
        let b1 = p.kg1.entity_by_name("b1").unwrap(); // no attrs
        let row = &f[b1.idx() * 8..(b1.idx() + 1) * 8];
        assert!(row.iter().all(|&x| x == 0.0));
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use openea_core::KgBuilder;
    use openea_runtime::testkit::prelude::*;

    /// Builds a random pair where entity i of KG1 aligns with entity i of KG2.
    pub(crate) fn random_pair(edges1: &[(u8, u8, u8)], edges2: &[(u8, u8, u8)], n: u8) -> KgPair {
        let mut b1 = KgBuilder::new("g1");
        let mut b2 = KgBuilder::new("g2");
        for i in 0..n {
            b1.add_entity(&format!("a{i}"));
            b2.add_entity(&format!("b{i}"));
        }
        for &(h, r, t) in edges1 {
            b1.add_rel_triple(
                &format!("a{}", h % n),
                &format!("r{}", r % 4),
                &format!("a{}", t % n),
            );
        }
        for &(h, r, t) in edges2 {
            b2.add_rel_triple(
                &format!("b{}", h % n),
                &format!("s{}", r % 4),
                &format!("b{}", t % n),
            );
        }
        let kg1 = b1.build();
        let kg2 = b2.build();
        let alignment = (0..n)
            .map(|i| {
                (
                    kg1.entity_by_name(&format!("a{i}")).unwrap(),
                    kg2.entity_by_name(&format!("b{i}")).unwrap(),
                )
            })
            .collect();
        KgPair::new(kg1, kg2, alignment)
    }

    props! {
        #![cases = 32]

        /// The unified space is well-formed under every combination mode:
        /// ids in range, seed pairs share ids iff sharing, triples valid.
        #[test]
        fn unified_space_invariants(
            edges1 in vec_of((0u8..6, 0u8..4, 0u8..6), 1..24),
            edges2 in vec_of((0u8..6, 0u8..4, 0u8..6), 1..24),
            num_seeds in 0usize..4,
        ) {
            let pair = random_pair(&edges1, &edges2, 6);
            let seeds: Vec<AlignedPair> = pair.alignment.iter().copied().take(num_seeds).collect();
            for mode in [Combination::Calibration, Combination::Sharing, Combination::Swapping] {
                let (space, triples) = UnifiedSpace::build(&pair, &seeds, mode);
                // Triples reference valid ids.
                for &(h, r, t) in &triples {
                    prop_assert!((h as usize) < space.num_entities);
                    prop_assert!((t as usize) < space.num_entities);
                    prop_assert!((r as usize) < space.num_relations);
                }
                // Entity maps stay in range.
                for e in pair.kg1.entity_ids() {
                    prop_assert!((space.uid1(e) as usize) < space.num_entities);
                }
                for e in pair.kg2.entity_ids() {
                    prop_assert!((space.uid2(e) as usize) < space.num_entities);
                }
                // Sharing merges exactly the seeds.
                for &(a, b) in &seeds {
                    if mode == Combination::Sharing {
                        prop_assert_eq!(space.uid1(a), space.uid2(b));
                    } else {
                        prop_assert_ne!(space.uid1(a), space.uid2(b));
                    }
                }
                // Entity count bookkeeping.
                let expected = match mode {
                    Combination::Sharing => {
                        pair.kg1.num_entities() + pair.kg2.num_entities() - seeds.len()
                    }
                    _ => pair.kg1.num_entities() + pair.kg2.num_entities(),
                };
                prop_assert_eq!(space.num_entities, expected);
            }
        }

        /// extract() inverts the maps: each KG row equals its unified row.
        #[test]
        fn extract_is_consistent_with_uids(
            edges1 in vec_of((0u8..5, 0u8..3, 0u8..5), 1..12),
            num_seeds in 0usize..3,
        ) {
            let pair = random_pair(&edges1, &edges1, 5);
            let seeds: Vec<AlignedPair> = pair.alignment.iter().copied().take(num_seeds).collect();
            let (space, _) = UnifiedSpace::build(&pair, &seeds, Combination::Sharing);
            let mut table = EmbeddingTable::zeros(space.num_entities, 3);
            for i in 0..space.num_entities {
                table.row_mut(i).fill(i as f32);
            }
            let (e1, e2) = space.extract(&table);
            for e in pair.kg1.entity_ids() {
                prop_assert_eq!(e1[e.idx() * 3], space.uid1(e) as f32);
            }
            for e in pair.kg2.entity_ids() {
                prop_assert_eq!(e2[e.idx() * 3], space.uid2(e) as f32);
            }
        }

        /// gather() reads exactly the rows extract() then
        /// ApproachOutput::gather() copied, in the same order, under every
        /// combination mode — seed entities, whose rows a sharing space
        /// holds once for both KGs, always among them.
        #[test]
        fn gather_in_place_equals_extract_then_gather(
            edges1 in vec_of((0u8..6, 0u8..4, 0u8..6), 1..24),
            edges2 in vec_of((0u8..6, 0u8..4, 0u8..6), 1..24),
            num_seeds in 0usize..4,
            sources in vec_of(0usize..6, 0..10),
            targets in vec_of(0usize..6, 0..10),
            dim in 1usize..5,
        ) {
            let pair = random_pair(&edges1, &edges2, 6);
            let seeds: Vec<AlignedPair> = pair.alignment.iter().copied().take(num_seeds).collect();
            let mut sources: Vec<EntityId> = sources.into_iter().map(EntityId::from_idx).collect();
            let mut targets: Vec<EntityId> = targets.into_iter().map(EntityId::from_idx).collect();
            sources.extend(seeds.iter().map(|&(a, _)| a));
            targets.extend(seeds.iter().map(|&(_, b)| b));
            for mode in [Combination::Calibration, Combination::Sharing, Combination::Swapping] {
                let (space, _) = UnifiedSpace::build(&pair, &seeds, mode);
                let mut table = EmbeddingTable::zeros(space.num_entities, dim);
                for (k, x) in table.data_mut().iter_mut().enumerate() {
                    *x = k as f32 * 0.5 - 3.0;
                }
                let (emb1, emb2) = space.extract(&table);
                let out = ApproachOutput::new(dim, Metric::Cosine, emb1, emb2);
                prop_assert_eq!(
                    space.gather(&table, &sources, &targets),
                    out.gather(&sources, &targets)
                );
            }
        }

        /// The in-place validation score is the extracted output's, bit for
        /// bit, under every combination mode and metric — tied scores from a
        /// coarse grid, seed-shared rows and an empty validation set among
        /// the cases.
        #[test]
        fn validation_in_place_equals_validation_of_the_output(
            edges in vec_of((0u8..6, 0u8..4, 0u8..6), 1..24),
            num_seeds in 0usize..4,
            valid in vec_of((0usize..6, 0usize..6), 0..8),
            grid in vec_of(-2i8..=2, 1..30),
            threads in 1usize..4,
        ) {
            let pair = random_pair(&edges, &edges, 6);
            let seeds: Vec<AlignedPair> = pair.alignment.iter().copied().take(num_seeds).collect();
            let valid: Vec<AlignedPair> = valid
                .into_iter()
                .map(|(a, b)| (EntityId::from_idx(a), EntityId::from_idx(b)))
                .collect();
            for mode in [Combination::Calibration, Combination::Sharing, Combination::Swapping] {
                let (space, _) = UnifiedSpace::build(&pair, &seeds, mode);
                let mut table = EmbeddingTable::zeros(space.num_entities, 3);
                for (k, x) in table.data_mut().iter_mut().enumerate() {
                    *x = grid[k % grid.len()] as f32;
                }
                for metric in Metric::ALL {
                    let out = space.output(&table, metric);
                    prop_assert_eq!(
                        space.validation_hits1(&table, metric, &valid, threads).to_bits(),
                        validation_hits1(&out, &valid, threads).to_bits()
                    );
                }
            }
        }
    }
}
