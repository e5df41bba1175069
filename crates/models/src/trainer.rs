//! Deterministic mini-batch training engine with per-epoch telemetry.
//!
//! One epoch is a pure function of `(model, triples, sampler, options,
//! seed)` — never of the thread count. The construction:
//!
//! 1. The epoch's triple order is shuffled with the reserved RNG stream
//!    `u64::MAX` of the epoch seed ([`SmallRng::stream`]).
//! 2. The shuffled positives are expanded to `triples × negs_per_pos`
//!    training *pairs* (triple-major, corruption-index-minor) and sharded
//!    into fixed `batch_size` mini-batches. Batch `b` draws its negatives
//!    sequentially, in pair order, from stream `b`.
//! 3. Each batch goes to [`RelationModel::train_batch`], whose contract is
//!    deferred semantics: every read is of batch-start parameters, writes
//!    land in pair order. How a model meets it is its own business —
//!    [`train_batch_recorded`] (parallel read-only gradients into per-chunk
//!    arenas, serial replay in chunk order), TransE's copy-on-first-write
//!    kernel over [`FrozenRows`], or [`train_batch_stepwise`] for models
//!    whose update is opaque — and none of them lets the thread count show
//!    in the result.
//!
//! [`train_epoch_serial`] is the kept reference: per-pair RNG streams around
//! [`RelationModel::step`]. At `batch_size == 1` the batched engine's stream
//! indices coincide with the serial ones and both produce bit-identical
//! parameters.

use crate::traits::{EpochStats, PairGradients, RelationModel};
use openea_math::negsamp::{NegSampler, RawTriple};
use openea_math::EmbeddingTable;
use openea_runtime::json::{object, Json, ToJson};
use openea_runtime::pool::{balanced_chunk_len, parallel_chunks};
use openea_runtime::rng::{SliceRandom, SmallRng};
use std::time::Instant;

/// Reserved RNG stream index for the epoch's triple shuffle; mini-batch `b`
/// uses stream `b`, so batches can never collide with the shuffle.
pub const SHUFFLE_STREAM: u64 = u64::MAX;

/// Accumulated additive parameter deltas for one positive/negative pair.
///
/// A flat arena: models record `(table, row)`-addressed delta slices in the
/// order their old in-place updates wrote memory, and
/// [`PairGradients::apply_gradients`] replays them in exactly that order.
/// Entries are deliberately *not* coalesced per row — on aliased rows (e.g.
/// a self-loop triple, head == tail) the per-location addition sequence is
/// part of the bit-determinism contract.
#[derive(Clone, Debug, Default)]
pub struct Gradients {
    refs: Vec<GradRef>,
    data: Vec<f32>,
}

#[derive(Clone, Copy, Debug)]
struct GradRef {
    table: u16,
    row: u32,
    start: u32,
    len: u32,
}

impl Gradients {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all recorded entries but keeps the allocations (the trainer
    /// reuses one arena per pair slot across batches).
    pub fn clear(&mut self) {
        self.refs.clear();
        self.data.clear();
    }

    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Appends a zero-filled delta slice for `len` consecutive parameters
    /// of `row` in `table` and returns it for the model to fill in. Table
    /// ids are model-private constants (entity table, relation table, …).
    pub fn push(&mut self, table: u16, row: usize, len: usize) -> &mut [f32] {
        let start = self.data.len();
        self.data.resize(start + len, 0.0);
        self.refs.push(GradRef {
            table,
            row: u32::try_from(row).expect("row id overflows u32"),
            start: u32::try_from(start).expect("gradient arena overflows u32"),
            len: u32::try_from(len).expect("delta length overflows u32"),
        });
        &mut self.data[start..]
    }

    /// Entries as `(table, row, delta)` in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, usize, &[f32])> + '_ {
        self.refs.iter().map(move |r| {
            let start = r.start as usize;
            (
                r.table,
                r.row as usize,
                &self.data[start..start + r.len as usize],
            )
        })
    }
}

/// Adds `delta` onto `dst` element-wise — the one primitive every model's
/// `apply_gradients` reduces to.
#[inline]
pub fn add_delta(dst: &mut [f32], delta: &[f32]) {
    for (d, &v) in dst.iter_mut().zip(delta) {
        *d += v;
    }
}

/// Copy-on-first-write view of one parameter table for the length of a
/// batch: [`FrozenRows::frozen`] reads a row as it was when the batch
/// started while the live table is being written, at the cost of one row
/// copy per row *touched* — no table copy, no recorded pass.
///
/// A row is current when its `stamp` equals the batch counter, so starting
/// a batch clears nothing.
#[derive(Clone, Debug, Default)]
pub struct FrozenRows {
    /// Batch in which each row was last saved; `0` is never a live batch.
    stamp: Vec<u32>,
    /// Where in `saved` that copy starts.
    slot: Vec<u32>,
    saved: Vec<f32>,
    batch: u32,
}

impl FrozenRows {
    /// Starts a batch over a table of `rows` rows: every earlier save stops
    /// being current. A table of another size (a workspace handed to a
    /// different model) or a wrapped counter restarts the stamps.
    pub fn begin_batch(&mut self, rows: usize) {
        self.batch = self.batch.wrapping_add(1);
        if self.stamp.len() != rows || self.batch == 0 {
            self.stamp.clear();
            self.stamp.resize(rows, 0);
            self.slot.resize(rows, 0);
            self.batch = 1;
        }
        self.saved.clear();
    }

    /// `row` as it was when the batch started: the saved copy if the row
    /// has been written this batch, else the live row.
    #[inline]
    pub fn frozen<'a>(&'a self, live: &'a EmbeddingTable, row: u32) -> &'a [f32] {
        let r = row as usize;
        if self.stamp[r] == self.batch {
            let at = self.slot[r] as usize;
            &self.saved[at..at + live.dim()]
        } else {
            live.row(r)
        }
    }

    /// Call before a row's first write of the batch (later calls are free):
    /// keeps the batch-start copy [`FrozenRows::frozen`] will answer with.
    #[inline]
    pub fn save(&mut self, live: &EmbeddingTable, row: u32) {
        let r = row as usize;
        if self.stamp[r] != self.batch {
            self.stamp[r] = self.batch;
            self.slot[r] = u32::try_from(self.saved.len()).expect("saved rows overflow u32");
            self.saved.extend_from_slice(live.row(r));
        }
    }
}

/// The trainer-owned workspace every [`RelationModel::train_batch`] call of
/// an epoch shares. A model takes the part its implementation needs — the
/// chunk arenas of [`train_batch_recorded`], or the frozen-row views and
/// `dim`-long vectors of TransE's kernel — sizes it on first use, and the
/// steady state allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    units: Vec<ChunkUnit>,
    pub entity_rows: FrozenRows,
    pub relation_rows: FrozenRows,
    /// The positive's and the negative's difference vectors, and the delta
    /// being written.
    pub d_pos: Vec<f32>,
    pub d_neg: Vec<f32>,
    pub delta: Vec<f32>,
}

/// Options of the batched training engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainOptions {
    pub lr: f32,
    /// Corruptions per positive triple; must be >= 1.
    pub negs_per_pos: usize,
    /// Pairs per mini-batch; must be >= 1. Affects results (gradients are
    /// computed against batch-start parameters) but not thread-sensitivity.
    pub batch_size: usize,
    /// Worker threads of the [`train_batch_recorded`] gradient pass. Never
    /// observable in the trained parameters; TransE, whose kernel is serial,
    /// trains at the same speed whatever this says.
    pub threads: usize,
    /// Parallelism gate: a batch only fans out when every worker would get
    /// at least this many pairs — below that, handing chunks to the worker
    /// pool and waking its workers costs more than the gradient math. Tests
    /// set 1 to force the parallel path on tiny batches.
    pub min_pairs_per_thread: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            lr: 0.02,
            negs_per_pos: 5,
            batch_size: 256,
            threads: 1,
            min_pairs_per_thread: 128,
        }
    }
}

/// Why a training run produced no output: a configuration rejected before
/// the first epoch, a run that stopped being a number, or a best
/// checkpoint its sink could not give back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainError {
    /// `negs_per_pos == 0`: every positive would train on nothing.
    ZeroNegatives,
    /// `batch_size == 0`: the epoch could never make progress.
    ZeroBatchSize,
    /// `check_every == 0`: the validation cadence `(epoch + 1) % check_every`
    /// would divide by zero.
    ZeroCheckEvery,
    /// `dim == 0`: embeddings would carry no information.
    ZeroDim,
    /// `max_epochs == 0`: the run could never train.
    ZeroMaxEpochs,
    /// The mean loss of `epoch` was NaN or infinite: the parameters have
    /// left the range of `f32` (too high a learning rate for this data),
    /// and every later epoch and every similarity would be NaN too.
    Diverged { epoch: usize },
    /// The best checkpoint, validated at `epoch` and handed to the run's
    /// checkpoint sink, could not be read back from it unchanged. The
    /// sink keeps the cause.
    CheckpointLost { epoch: usize },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::ZeroNegatives => {
                write!(f, "negs_per_pos must be >= 1 (0 would train on nothing)")
            }
            TrainError::ZeroBatchSize => write!(f, "batch_size must be >= 1"),
            TrainError::ZeroCheckEvery => {
                write!(
                    f,
                    "check_every must be >= 1 (the validation cadence divides by it)"
                )
            }
            TrainError::ZeroDim => write!(f, "dim must be >= 1"),
            TrainError::ZeroMaxEpochs => write!(f, "max_epochs must be >= 1"),
            TrainError::Diverged { epoch } => {
                write!(f, "training diverged: non-finite loss in epoch {epoch}")
            }
            TrainError::CheckpointLost { epoch } => write!(
                f,
                "the best checkpoint (epoch {epoch}) could not be restored from its sink"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

fn epoch_order(n_triples: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n_triples).collect();
    order.shuffle(&mut SmallRng::stream(seed, SHUFFLE_STREAM));
    order
}

fn finish_epoch<M: RelationModel + ?Sized>(model: &mut M, total: f64, pairs: usize) -> EpochStats {
    model.epoch_hook();
    EpochStats {
        mean_loss: if pairs == 0 {
            0.0
        } else {
            (total / pairs as f64) as f32
        },
        pairs,
    }
}

/// The serial reference: one [`RelationModel::step`] per pair, negatives
/// drawn from per-pair RNG streams (pair `p` uses stream `p` of `seed`). The
/// batched engine at `batch_size == 1` is bit-identical to this.
pub fn train_epoch_serial<M, S>(
    model: &mut M,
    triples: &[RawTriple],
    sampler: &S,
    lr: f32,
    negs_per_pos: usize,
    seed: u64,
) -> Result<EpochStats, TrainError>
where
    M: RelationModel + ?Sized,
    S: NegSampler,
{
    if negs_per_pos == 0 {
        return Err(TrainError::ZeroNegatives);
    }
    let order = epoch_order(triples.len(), seed);
    let n_pairs = triples.len() * negs_per_pos;
    let mut total = 0.0f64;
    for p in 0..n_pairs {
        let pos = triples[order[p / negs_per_pos]];
        let neg = sampler.corrupt(pos, &mut SmallRng::stream(seed, p as u64));
        total += model.step(pos, neg, lr) as f64;
    }
    Ok(finish_epoch(model, total, n_pairs))
}

/// One worker chunk's workspace in [`train_batch_recorded`]: a contiguous
/// pair range `[start, end)` of the batch, one *flat* arena holding every
/// pair's deltas in pair order, and the per-pair losses. Reused across
/// batches so the steady state allocates nothing.
///
/// One arena per chunk (not per pair) makes the apply sweep `n_chunks` dense
/// replays, without touching the determinism argument: the concatenation of
/// the chunk arenas in ascending chunk order lists exactly the same
/// `(table, row, delta)` entries, in exactly the same order, as per-pair
/// arenas would — chunk boundaries move with the thread count but can never
/// reorder entries.
#[derive(Clone, Debug, Default)]
struct ChunkUnit {
    start: usize,
    end: usize,
    grads: Gradients,
    losses: Vec<f32>,
}

fn effective_threads(pairs: usize, opts: &TrainOptions) -> usize {
    let cap = (pairs / opts.min_pairs_per_thread.max(1)).max(1);
    opts.threads.clamp(1, cap)
}

/// [`RelationModel::train_batch`] for models with a pure gradient: worker
/// chunks fill flat per-chunk arenas against the batch-start parameters
/// ([`PairGradients::pair_gradients`] is read-only), then the arenas replay
/// serially in ascending chunk order — entry order equals pair order, so
/// the thread count (which only moves chunk boundaries) is unobservable in
/// the result.
pub fn train_batch_recorded<M: PairGradients>(
    model: &mut M,
    pairs: &[(RawTriple, RawTriple)],
    opts: &TrainOptions,
    ws: &mut Workspace,
    total: &mut f64,
) {
    let len = pairs.len();
    let threads = effective_threads(len, opts);
    let chunk_len = balanced_chunk_len(len, threads, 2);
    let n_chunks = len.div_ceil(chunk_len);
    let units = &mut ws.units;
    if units.len() < n_chunks {
        units.resize_with(n_chunks, ChunkUnit::default);
    }
    for (c, u) in units.iter_mut().enumerate().take(n_chunks) {
        u.start = c * chunk_len;
        u.end = (u.start + chunk_len).min(len);
    }
    let shared: &M = model;
    parallel_chunks(&mut units[..n_chunks], 1, threads, |_, chunk| {
        for u in chunk {
            u.grads.clear();
            u.losses.clear();
            for &(pos, neg) in &pairs[u.start..u.end] {
                let loss = shared.pair_gradients(pos, neg, opts.lr, &mut u.grads);
                u.losses.push(loss);
            }
        }
    });
    for u in &units[..n_chunks] {
        model.apply_gradients(&u.grads);
        for &l in &u.losses {
            *total += l as f64;
        }
    }
}

/// [`RelationModel::train_batch`] for models whose update is an opaque
/// in-place [`RelationModel::step`]: one step per pair, in pair order. The
/// batch then only sets RNG stream boundaries and the epoch is serial (and
/// trivially thread-invariant). The model must override `step` — the
/// provided one is a one-pair `train_batch` and would come straight back.
pub fn train_batch_stepwise<M: RelationModel + ?Sized>(
    model: &mut M,
    pairs: &[(RawTriple, RawTriple)],
    lr: f32,
    total: &mut f64,
) {
    for &(pos, neg) in pairs {
        *total += model.step(pos, neg, lr) as f64;
    }
}

/// One epoch of the batched engine (see module docs for the determinism
/// construction): shuffle, cut the pair sequence into batches, draw batch
/// `b`'s negatives from stream `b`, hand the batch to the model.
pub fn train_epoch_batched<M, S>(
    model: &mut M,
    triples: &[RawTriple],
    sampler: &S,
    opts: &TrainOptions,
    seed: u64,
) -> Result<EpochStats, TrainError>
where
    M: RelationModel + ?Sized,
    S: NegSampler,
{
    if opts.negs_per_pos == 0 {
        return Err(TrainError::ZeroNegatives);
    }
    if opts.batch_size == 0 {
        return Err(TrainError::ZeroBatchSize);
    }
    let order = epoch_order(triples.len(), seed);
    let n_pairs = triples.len() * opts.negs_per_pos;
    let mut ws = Workspace::default();
    let mut pairs: Vec<(RawTriple, RawTriple)> = Vec::with_capacity(opts.batch_size.min(n_pairs));
    let mut total = 0.0f64;
    for (batch, start) in (0..n_pairs).step_by(opts.batch_size).enumerate() {
        let mut rng = SmallRng::stream(seed, batch as u64);
        pairs.clear();
        for p in start..(start + opts.batch_size).min(n_pairs) {
            let pos = triples[order[p / opts.negs_per_pos]];
            pairs.push((pos, sampler.corrupt(pos, &mut rng)));
        }
        model.train_batch(&pairs, opts, &mut ws, &mut total);
    }
    Ok(finish_epoch(model, total, n_pairs))
}

/// Why a recorded training run ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StopReason {
    /// No trace was recorded (approaches without an epoch-telemetry loop).
    #[default]
    NotRecorded,
    /// The configured epoch budget ran out.
    MaxEpochs,
    /// Validation stopped improving at this (0-based) epoch.
    EarlyStopped { epoch: usize },
    /// A wall-clock or epoch budget expired before `epoch` (0-based, the
    /// first epoch that did *not* run) could start.
    DeadlineExceeded { epoch: usize },
}

impl ToJson for StopReason {
    fn to_json(&self) -> Json {
        match *self {
            StopReason::NotRecorded => object([("kind", "not_recorded".to_json())]),
            StopReason::MaxEpochs => object([("kind", "max_epochs".to_json())]),
            StopReason::EarlyStopped { epoch } => object([
                ("kind", "early_stopped".to_json()),
                ("epoch", epoch.to_json()),
            ]),
            StopReason::DeadlineExceeded { epoch } => object([
                ("kind", "deadline_exceeded".to_json()),
                ("epoch", epoch.to_json()),
            ]),
        }
    }
}

/// Telemetry of one epoch: training loss, throughput and (at checkpoint
/// epochs) validation quality.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochTrace {
    /// 0-based epoch index.
    pub epoch: usize,
    pub mean_loss: f32,
    /// Positive/negative pairs trained this epoch.
    pub pairs: usize,
    /// Wall-clock seconds spent in the epoch (training + any per-epoch
    /// bookkeeping between `begin_epoch` and `end_epoch`).
    pub wall_s: f64,
    /// Validation Hits@1, when this epoch was a checkpoint.
    pub val_hits1: Option<f64>,
}

impl EpochTrace {
    pub fn pairs_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.pairs as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

impl ToJson for EpochTrace {
    fn to_json(&self) -> Json {
        object([
            ("epoch", self.epoch.to_json()),
            ("mean_loss", self.mean_loss.to_json()),
            ("pairs", self.pairs.to_json()),
            ("wall_s", self.wall_s.to_json()),
            ("pairs_per_sec", self.pairs_per_sec().to_json()),
            ("val_hits1", self.val_hits1.to_json()),
        ])
    }
}

/// Telemetry of a full training run, surfaced in `ApproachOutput` and
/// serialized by `openea-bench` into `results/`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainTrace {
    /// What was trained (approach or model label).
    pub label: String,
    pub epochs: Vec<EpochTrace>,
    pub stop: StopReason,
    /// Wall-clock seconds of the whole recorded loop.
    pub total_wall_s: f64,
}

impl ToJson for TrainTrace {
    fn to_json(&self) -> Json {
        object([
            ("label", self.label.to_json()),
            ("stop", self.stop.to_json()),
            ("total_wall_s", self.total_wall_s.to_json()),
            ("epochs", self.epochs.to_json()),
        ])
    }
}

/// Incremental [`TrainTrace`] builder for driver epoch loops:
/// `begin_epoch` / `end_epoch` bracket each epoch, `record_validation`
/// attaches a checkpoint score to the epoch just ended, `early_stop` marks
/// the stop reason, and `finish` stamps the total wall time (defaulting the
/// reason to [`StopReason::MaxEpochs`]).
pub struct TraceRecorder {
    trace: TrainTrace,
    run_start: Instant,
    epoch_start: Instant,
}

impl TraceRecorder {
    pub fn new(label: impl Into<String>) -> Self {
        let now = Instant::now();
        Self {
            trace: TrainTrace {
                label: label.into(),
                ..TrainTrace::default()
            },
            run_start: now,
            epoch_start: now,
        }
    }

    /// (Re)starts the epoch timer; call at the top of each epoch.
    pub fn begin_epoch(&mut self) {
        self.epoch_start = Instant::now();
    }

    /// Closes the current epoch with its training stats.
    pub fn end_epoch(&mut self, epoch: usize, stats: EpochStats) {
        self.trace.epochs.push(EpochTrace {
            epoch,
            mean_loss: stats.mean_loss,
            pairs: stats.pairs,
            wall_s: self.epoch_start.elapsed().as_secs_f64(),
            val_hits1: None,
        });
    }

    /// Attaches a validation Hits@1 to the most recently ended epoch.
    pub fn record_validation(&mut self, hits1: f64) {
        if let Some(e) = self.trace.epochs.last_mut() {
            e.val_hits1 = Some(hits1);
        }
    }

    /// Marks the run as early-stopped at `epoch`.
    pub fn early_stop(&mut self, epoch: usize) {
        self.trace.stop = StopReason::EarlyStopped { epoch };
    }

    /// Marks the run as cut short by a wall-clock/epoch budget before
    /// `epoch` could start.
    pub fn deadline_stop(&mut self, epoch: usize) {
        self.trace.stop = StopReason::DeadlineExceeded { epoch };
    }

    /// The most recently ended epoch, if any.
    pub fn last(&self) -> Option<&EpochTrace> {
        self.trace.epochs.last()
    }

    /// A clone of the trace recorded so far, with the running wall time
    /// filled in — the stop reason stays whatever has been recorded (usually
    /// [`StopReason::NotRecorded`] mid-run). The driver engine attaches this
    /// to mid-training checkpoint artifacts.
    pub fn so_far(&self) -> TrainTrace {
        TrainTrace {
            total_wall_s: self.run_start.elapsed().as_secs_f64(),
            ..self.trace.clone()
        }
    }

    pub fn finish(mut self) -> TrainTrace {
        if self.trace.stop == StopReason::NotRecorded {
            self.trace.stop = StopReason::MaxEpochs;
        }
        self.trace.total_wall_s = self.run_start.elapsed().as_secs_f64();
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::toy_triples;
    use crate::TransE;
    use openea_math::negsamp::UniformSampler;
    use openea_runtime::rng::{SeedableRng, SmallRng};

    fn model(seed: u64) -> TransE {
        TransE::new(20, 2, 8, 1.0, &mut SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn gradients_arena_records_in_order_and_reuses() {
        let mut g = Gradients::new();
        assert!(g.is_empty());
        g.push(0, 3, 2).copy_from_slice(&[1.0, 2.0]);
        g.push(1, 7, 1)[0] = -4.0;
        g.push(0, 3, 2).copy_from_slice(&[5.0, 6.0]);
        assert_eq!(g.len(), 3);
        let entries: Vec<(u16, usize, Vec<f32>)> =
            g.iter().map(|(t, r, d)| (t, r, d.to_vec())).collect();
        assert_eq!(
            entries,
            vec![
                (0, 3, vec![1.0, 2.0]),
                (1, 7, vec![-4.0]),
                (0, 3, vec![5.0, 6.0]),
            ]
        );
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.iter().count(), 0);
    }

    #[test]
    fn frozen_rows_answer_batch_start_and_never_a_stale_save() {
        let mut table = model(3).entities;
        let start = table.row(4).to_vec();
        let mut f = FrozenRows::default();
        f.begin_batch(table.count());
        f.save(&table, 4);
        table.row_mut(4)[0] += 1.0;
        f.save(&table, 4); // not the first write: keeps the first copy
        assert_eq!(f.frozen(&table, 4), &start[..]);
        assert_eq!(
            f.frozen(&table, 5),
            table.row(5),
            "unwritten rows read live"
        );
        f.begin_batch(table.count());
        assert_eq!(f.frozen(&table, 4), table.row(4), "a new batch starts here");

        // The counter wraps: a stamp left by batch 1 of long ago must not
        // read as current in the batch 1 that follows the wrap.
        f.batch = u32::MAX;
        f.stamp[7] = 1;
        f.begin_batch(table.count());
        assert_eq!(f.batch, 1);
        assert_eq!(f.frozen(&table, 7), table.row(7));

        // A table of another size restarts the stamps at that size.
        f.save(&table, 7);
        let smaller = TransE::new(8, 2, 8, 1.0, &mut SmallRng::seed_from_u64(0)).entities;
        f.begin_batch(smaller.count());
        assert_eq!(f.frozen(&smaller, 7), smaller.row(7));
    }

    #[test]
    fn zero_negatives_and_zero_batch_are_errors() {
        let sampler = UniformSampler { num_entities: 20 };
        let triples = toy_triples(20);
        assert_eq!(
            train_epoch_serial(&mut model(0), &triples, &sampler, 0.01, 0, 5),
            Err(TrainError::ZeroNegatives)
        );
        let opts = TrainOptions {
            negs_per_pos: 0,
            ..TrainOptions::default()
        };
        assert_eq!(
            train_epoch_batched(&mut model(0), &triples, &sampler, &opts, 5),
            Err(TrainError::ZeroNegatives)
        );
        let opts = TrainOptions {
            batch_size: 0,
            ..TrainOptions::default()
        };
        assert_eq!(
            train_epoch_batched(&mut model(0), &triples, &sampler, &opts, 5),
            Err(TrainError::ZeroBatchSize)
        );
        assert!(TrainError::ZeroNegatives
            .to_string()
            .contains("negs_per_pos"));
    }

    #[test]
    fn empty_triples_yield_default_stats_on_both_paths() {
        let sampler = UniformSampler { num_entities: 20 };
        let serial = train_epoch_serial(&mut model(1), &[], &sampler, 0.01, 2, 5).unwrap();
        let batched =
            train_epoch_batched(&mut model(1), &[], &sampler, &TrainOptions::default(), 5).unwrap();
        assert_eq!(serial, EpochStats::default());
        assert_eq!(batched, EpochStats::default());
    }

    #[test]
    fn batch_size_one_matches_serial_reference_bitwise() {
        let sampler = UniformSampler { num_entities: 20 };
        let triples = toy_triples(20);
        let (mut a, mut b) = (model(2), model(2));
        let opts = TrainOptions {
            lr: 0.05,
            negs_per_pos: 2,
            batch_size: 1,
            threads: 1,
            min_pairs_per_thread: 1,
        };
        for epoch in 0..3u64 {
            let sa = train_epoch_serial(&mut a, &triples, &sampler, 0.05, 2, epoch).unwrap();
            let sb = train_epoch_batched(&mut b, &triples, &sampler, &opts, epoch).unwrap();
            assert_eq!(sa, sb);
        }
        assert_eq!(a.entities().data(), b.entities().data());
    }

    #[test]
    fn effective_threads_gates_small_batches() {
        let opts = TrainOptions {
            threads: 8,
            min_pairs_per_thread: 128,
            ..TrainOptions::default()
        };
        assert_eq!(effective_threads(64, &opts), 1);
        assert_eq!(effective_threads(256, &opts), 2);
        assert_eq!(effective_threads(4096, &opts), 8);
        let force = TrainOptions {
            threads: 8,
            min_pairs_per_thread: 1,
            ..TrainOptions::default()
        };
        assert_eq!(effective_threads(7, &force), 7);
    }

    #[test]
    fn trace_recorder_builds_schema() {
        let mut rec = TraceRecorder::new("TransE");
        rec.begin_epoch();
        rec.end_epoch(
            0,
            EpochStats {
                mean_loss: 1.5,
                pairs: 80,
            },
        );
        rec.record_validation(0.25);
        rec.begin_epoch();
        rec.end_epoch(
            1,
            EpochStats {
                mean_loss: 1.0,
                pairs: 80,
            },
        );
        rec.early_stop(1);
        let trace = rec.finish();
        assert_eq!(trace.label, "TransE");
        assert_eq!(trace.epochs.len(), 2);
        assert_eq!(trace.epochs[0].val_hits1, Some(0.25));
        assert_eq!(trace.epochs[1].val_hits1, None);
        assert_eq!(trace.stop, StopReason::EarlyStopped { epoch: 1 });
        assert_eq!(trace.epochs[1].mean_loss, 1.0);
        assert!(trace.total_wall_s >= 0.0);

        let j = trace.to_json();
        assert_eq!(j.get("label").and_then(Json::as_str), Some("TransE"));
        let stop = j.get("stop").unwrap();
        assert_eq!(
            stop.get("kind").and_then(Json::as_str),
            Some("early_stopped")
        );
        assert_eq!(stop.get("epoch").and_then(Json::as_f64), Some(1.0));
        let epochs = j.get("epochs").and_then(Json::as_array).unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(
            epochs[0].get("val_hits1").and_then(Json::as_f64),
            Some(0.25)
        );
        assert_eq!(epochs[1].get("val_hits1"), Some(&Json::Null));
        assert!(epochs[0]
            .get("pairs_per_sec")
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn finish_defaults_to_max_epochs() {
        let mut rec = TraceRecorder::new("x");
        rec.begin_epoch();
        rec.end_epoch(0, EpochStats::default());
        assert_eq!(rec.finish().stop, StopReason::MaxEpochs);
        assert_eq!(
            TrainTrace::default()
                .stop
                .to_json()
                .get("kind")
                .and_then(Json::as_str),
            Some("not_recorded")
        );
    }
}
