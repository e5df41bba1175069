//! The driver engine: one hook-based epoch loop shared by every approach.
//!
//! Each approach driver used to hand-copy ~50 lines of scaffolding — epoch
//! iteration, validation cadence, early stopping, best-checkpoint retention
//! and trace recording. [`run_driver`] owns that loop once; drivers express
//! only their differences through [`EpochHooks`]: per-epoch training,
//! bootstrapping / co-training / calibration between epochs, and checkpoint
//! extraction.
//!
//! Determinism contract: the engine adds no randomness of its own. All RNG
//! flows through the hooks from streams the driver derives from
//! [`RunContext::seed`], and the loop structure (before-epoch → train →
//! after-epoch bookkeeping → validation every `check_every` epochs)
//! reproduces the historical hand-written drivers exactly, so a migrated
//! driver is bit-identical by construction — pinned by the golden-hash
//! suite in `tests/approach_matrix.rs` across thread counts {1, 2, 8}.
//! Deadline checks consult the wall clock but only decide *whether* the
//! next epoch starts, never how an epoch trains, so an unbudgeted run is
//! unaffected by timing noise.

use crate::common::{
    validation_hits1, ApproachOutput, EarlyStopper, EpochStats, RunConfig, TraceRecorder,
};
use openea_core::AlignedPair;
use openea_models::trainer::{EpochTrace, StopReason, TrainError};
use openea_runtime::rng::{SeedableRng, SmallRng};
use std::time::{Duration, Instant};

/// Wall-clock / epoch ceiling for a driver run. The default imposes none.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Hard wall-clock ceiling on the whole epoch loop; once exceeded the
    /// engine stops gracefully before the next epoch.
    pub max_wall: Option<Duration>,
    /// Cap on trained epochs, tightening `RunConfig::max_epochs`.
    pub max_epochs: Option<usize>,
}

impl Budget {
    /// No limits.
    pub fn none() -> Self {
        Self::default()
    }

    /// A wall-clock-only budget of `secs` seconds.
    pub fn wall_secs(secs: f64) -> Self {
        Self {
            max_wall: Some(Duration::from_secs_f64(secs)),
            max_epochs: None,
        }
    }

    /// An epoch-count-only budget.
    pub fn epochs(n: usize) -> Self {
        Self {
            max_wall: None,
            max_epochs: Some(n),
        }
    }

    /// Whether the budget is spent `elapsed` into a run with `epochs_done`
    /// completed epochs.
    fn exhausted(&self, elapsed: Duration, epochs_done: usize) -> bool {
        self.max_wall.is_some_and(|w| elapsed >= w)
            || self.max_epochs.is_some_and(|m| epochs_done >= m)
    }
}

/// Live telemetry receiver: the engine reports every ended epoch (with its
/// validation score attached when the epoch was a checkpoint) and the final
/// stop reason. Implementations must be cheap — they run inside the loop.
pub trait TelemetrySink: Sync {
    fn on_epoch(&self, _label: &str, _epoch: &EpochTrace) {}
    fn on_stop(&self, _label: &str, _stop: &StopReason) {}
}

/// Artifact receiver for trained embeddings: the engine hands over every
/// validation checkpoint that improved on the best so far (with its score
/// and the trace recorded so far) and the finished run's final output.
/// Installing one on [`RunContext`] lets *any* registry approach emit
/// durable serving artifacts — the snapshot writer in `openea-serve` is the
/// canonical implementation — without the driver knowing anything about
/// persistence formats.
///
/// The engine is the one judge of "improved" (see [`run_driver`]): the last
/// checkpoint a sink receives is the one the run returns, unless validation
/// never ran. Checkpoint outputs carry the partial trace (`stop` still
/// `NotRecorded`); the completion output carries the finished trace. Sinks
/// run on the driver thread, so expensive work (disk writes of large
/// embedding tables) bills to the epoch that produced the checkpoint.
///
/// A sink that stores what it is handed can also give it back
/// ([`CheckpointSink::holds`], [`CheckpointSink::restore`]). The engine then
/// drops its own copy of the best's two tables for the rest of the run and
/// reads them back once the loop ends.
pub trait CheckpointSink: Sync {
    /// An improved validation checkpoint: `out` is the extracted output with
    /// the trace-so-far attached, `score` its validation Hits@1.
    fn on_checkpoint(&self, _label: &str, _epoch: usize, _out: &ApproachOutput, _score: f64) {}

    /// The finished run's output, final trace attached.
    fn on_complete(&self, _label: &str, _out: &ApproachOutput) {}

    /// Whether the last `on_checkpoint` for `label` is stored here and
    /// [`CheckpointSink::restore`] can give its tables back. Asked right
    /// after each `on_checkpoint`; the default stores nothing.
    fn holds(&self, _label: &str) -> bool {
        false
    }

    /// The `emb1`/`emb2` tables of the last checkpoint for `label`, read
    /// back, or `None` — with the cause kept on the sink — when they can no
    /// longer be.
    fn restore(&self, _label: &str) -> Option<(Vec<f32>, Vec<f32>)> {
        None
    }
}

/// Previous-generation parameters for resuming training, in the layout the
/// serving snapshot stores them: KG1 rows then KG2 rows, `dim` floats each.
/// Row `i` of `emb1`/`emb2` is entity `i` of the respective KG — entity ids
/// are stable across generations (evolution traces only append), so a
/// driver warm-starts by copying row-for-row and seeding the tail.
#[derive(Clone, Copy, Debug)]
pub struct WarmStart<'a> {
    /// Width of each stored row. Drivers whose entity dimension differs
    /// (RotatE interleaves, SimplE halves) refuse the warm start and fall
    /// back to cold init.
    pub dim: usize,
    pub emb1: &'a [f32],
    pub emb2: &'a [f32],
    /// [`Snapshot::generation`] of the snapshot these parameters came from;
    /// stamped into the output's [`Lineage`].
    pub parent_generation: u64,
    /// Cumulative epochs already spent producing these parameters.
    pub trained_epochs: u64,
}

impl WarmStart<'_> {
    /// KG1 entities present in the warm parameters.
    pub fn rows1(&self) -> usize {
        self.emb1.len() / self.dim.max(1)
    }

    /// KG2 entities present in the warm parameters.
    pub fn rows2(&self) -> usize {
        self.emb2.len() / self.dim.max(1)
    }
}

/// Provenance of a trained output: which snapshot generation it resumed
/// from and the cumulative epoch count across the whole lineage chain.
/// Stamped by the engine on every checkpoint of a warm-started run and
/// persisted in the version-2 snapshot header; cold runs carry `None` so
/// their artifacts stay byte-identical to the pre-lineage format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lineage {
    /// Generation fingerprint of the parent snapshot.
    pub parent_generation: u64,
    /// Epochs spent across all generations up to and including this output.
    pub trained_epochs: u64,
}

/// Everything a driver run needs beyond the hyper-parameters: the run seed
/// (root of every reserved RNG stream), the worker thread count, an
/// optional wall/epoch [`Budget`], the validation pairs the engine
/// checkpoints on, and an optional [`TelemetrySink`].
#[derive(Clone, Copy)]
pub struct RunContext<'a> {
    /// Run seed; every driver RNG stream derives from it.
    pub seed: u64,
    /// Worker threads for training and similarity search.
    pub threads: usize,
    pub budget: Budget,
    /// Validation pairs for the checkpoint cadence. `None` disables
    /// validation and early stopping entirely (the unsupervised pipeline);
    /// supervised drivers install `split.valid` via [`RunContext::for_valid`].
    pub valid: Option<&'a [AlignedPair]>,
    pub sink: Option<&'a dyn TelemetrySink>,
    /// Artifact receiver for checkpoint / final embeddings (the serving
    /// layer's snapshot writer). `None` — the default — emits nothing.
    pub artifacts: Option<&'a dyn CheckpointSink>,
    /// Previous-generation parameters to resume from. `None` — the default
    /// — trains cold, bit-identical to the pre-warm-start engine.
    pub warm: Option<&'a WarmStart<'a>>,
}

impl<'a> RunContext<'a> {
    /// A default context mirroring the configuration: no budget, no
    /// validation override, no sink.
    pub fn new(cfg: &RunConfig) -> Self {
        Self {
            seed: cfg.seed,
            threads: cfg.threads,
            budget: Budget::none(),
            valid: None,
            sink: None,
            artifacts: None,
            warm: None,
        }
    }

    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    pub fn with_sink(mut self, sink: &'a dyn TelemetrySink) -> RunContext<'a> {
        self.sink = Some(sink);
        self
    }

    /// The same context emitting checkpoint/final artifacts to `sink`.
    pub fn with_artifacts(mut self, sink: &'a dyn CheckpointSink) -> RunContext<'a> {
        self.artifacts = Some(sink);
        self
    }

    /// The same context with validation checkpoints driven by `valid`.
    pub fn for_valid(mut self, valid: &'a [AlignedPair]) -> RunContext<'a> {
        self.valid = Some(valid);
        self
    }

    /// The same context resuming from a previous generation's parameters.
    /// Drivers that cannot absorb them (see [`EpochHooks::warm_start`])
    /// train cold; the run still succeeds.
    pub fn resume_from(mut self, warm: &'a WarmStart<'a>) -> RunContext<'a> {
        self.warm = Some(warm);
        self
    }

    /// The driver's own RNG (model init, shuffles, per-epoch train seeds) —
    /// seeded from the run seed exactly as the historical drivers did.
    pub fn driver_rng(&self) -> SmallRng {
        SmallRng::seed_from_u64(self.seed)
    }

    /// Salted seed for a sub-model: the transformation driver (MTransE,
    /// SEA) seeds its KG1 and KG2 models from salts 1 and 2.
    pub fn model_seed(&self, salt: u64) -> u64 {
        self.seed ^ salt
    }
}

/// The per-approach hooks the engine drives. Only `train_epoch` and
/// `checkpoint` carry real work for most drivers (plus
/// `validate_in_place` for those trained in one table); `after_epoch` hosts
/// the semi-supervised extras (sampler refresh, bootstrapping, iterative
/// augmentation, co-training, soft calibration) at exactly the loop
/// positions the historical drivers used.
pub trait EpochHooks {
    /// Trains one epoch and reports its loss/throughput stats.
    fn train_epoch(&mut self, epoch: usize, ctx: &RunContext<'_>) -> EpochStats;

    /// Runs after training but before the epoch closes (bootstrapping,
    /// augmentation, attribute pulls — their wall time bills to the epoch).
    fn after_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) {}

    /// Extracts the current alignment-ready output; called at validation
    /// checkpoints and once more for the final result when no checkpoint
    /// was retained.
    fn checkpoint(&mut self, ctx: &RunContext<'_>) -> ApproachOutput;

    /// Validation Hits@1 of the output [`EpochHooks::checkpoint`] would
    /// extract now, scored where the embeddings live — exactly
    /// `validation_hits1(&self.checkpoint(ctx), valid, ctx.threads)`, bit
    /// for bit. Then the engine extracts only the checkpoints it keeps. The
    /// default, `None`, has it extract every checkpoint and score that.
    fn validate_in_place(&mut self, _valid: &[AlignedPair], _ctx: &RunContext<'_>) -> Option<f64> {
        None
    }

    /// Absorbs previous-generation parameters before epoch 0 when the
    /// context carries a [`WarmStart`]. Returns `true` when the parameters
    /// were absorbed (the engine then stamps [`Lineage`] on every
    /// checkpoint); the default returns `false` — the driver trains cold
    /// and the run proceeds exactly as without a warm start, so every
    /// driver accepts a resume request without per-driver changes.
    ///
    /// Implementations live in the shared components (the unified-space
    /// trainer, the transformation driver), not in individual drivers:
    /// copy warm rows for entities the parent generation knew, seed new
    /// entities from a reserved per-entity RNG stream, and refuse (return
    /// `false`) on any dimension mismatch.
    fn warm_start(&mut self, _warm: &WarmStart<'_>, _ctx: &RunContext<'_>) -> bool {
        false
    }
}

/// Runs the shared driver loop: epoch iteration under the context's budget,
/// validation every `cfg.check_every` epochs with best-checkpoint retention
/// and early stopping, and trace recording. Returns the best validated
/// output (falling back to a final checkpoint when validation never ran)
/// with its [`crate::common::TrainTrace`] attached, the configuration error
/// that prevented the run from starting, or [`TrainError::Diverged`] for the
/// first epoch whose loss is not finite — checked here, once, for every
/// driver.
///
/// A checkpoint *improves* when it is the first or its score beats every
/// earlier one (`>`: a tie keeps the earlier). That is decided here, once:
/// only an improving checkpoint is kept and handed to the
/// [`CheckpointSink`], and the best it replaces is dropped before it is
/// extracted, so hooks that score in place
/// ([`EpochHooks::validate_in_place`]) hold at most one extracted output.
///
/// When the sink [`holds`](CheckpointSink::holds) an improving checkpoint,
/// the engine keeps only its husk (dim, metric, augmentation, lineage) and
/// its content hash, and restores the tables after the loop. A restore that
/// fails, or gives back tables of another hash, is
/// [`TrainError::CheckpointLost`]: the run never returns a different model.
pub fn run_driver<H: EpochHooks>(
    label: &str,
    hooks: &mut H,
    ctx: &RunContext<'_>,
    cfg: &RunConfig,
) -> Result<ApproachOutput, TrainError> {
    cfg.validate()?;
    let start = Instant::now();
    // Warm-start absorption happens once, before epoch 0. When the hooks
    // decline (default), the run trains cold and no lineage is stamped —
    // the cold path through the rest of the loop is bit-identical to the
    // pre-warm-start engine.
    let lineage = match ctx.warm {
        Some(w) if hooks.warm_start(w, ctx) => Some(*w),
        _ => None,
    };
    let stamp = |out: &mut ApproachOutput, epochs_done: u64| {
        if let Some(w) = &lineage {
            out.lineage = Some(Lineage {
                parent_generation: w.parent_generation,
                trained_epochs: w.trained_epochs + epochs_done,
            });
        }
    };
    let mut rec = TraceRecorder::new(label);
    let mut stopper = EarlyStopper::new(cfg.patience);
    let mut best: Option<ApproachOutput> = None;
    // While the sink holds the best's tables for it: the epoch the best was
    // validated at and its content hash.
    let mut held: Option<(usize, u64)> = None;
    let mut epochs_done = 0u64;
    for epoch in 0..cfg.max_epochs {
        if ctx.budget.exhausted(start.elapsed(), epoch) {
            rec.deadline_stop(epoch);
            break;
        }
        rec.begin_epoch();
        let stats = hooks.train_epoch(epoch, ctx);
        if !stats.mean_loss.is_finite() {
            return Err(TrainError::Diverged { epoch });
        }
        hooks.after_epoch(epoch, ctx);
        rec.end_epoch(epoch, stats);
        epochs_done += 1;

        let mut stop = false;
        if let Some(valid) = ctx.valid {
            if (epoch + 1).is_multiple_of(cfg.check_every) {
                let (score, extracted) = match hooks.validate_in_place(valid, ctx) {
                    Some(score) => (score, None),
                    None => {
                        let out = hooks.checkpoint(ctx);
                        (validation_hits1(&out, valid, ctx.threads), Some(out))
                    }
                };
                rec.record_validation(score);
                if score > stopper.best() || best.is_none() {
                    // Before the extract, so that the two are never live together.
                    drop(best.take());
                    held = None;
                    let mut out = extracted.unwrap_or_else(|| hooks.checkpoint(ctx));
                    stamp(&mut out, epochs_done);
                    if let Some(artifacts) = ctx.artifacts {
                        out.trace = rec.so_far();
                        artifacts.on_checkpoint(label, epoch, &out, score);
                        if artifacts.holds(label) {
                            held = Some((epoch, out.content_hash()));
                            out.emb1 = Vec::new();
                            out.emb2 = Vec::new();
                        }
                    }
                    best = Some(out);
                }
                if stopper.should_stop(score) {
                    rec.early_stop(epoch);
                    stop = true;
                }
            }
        }
        if let (Some(sink), Some(e)) = (ctx.sink, rec.last()) {
            sink.on_epoch(label, e);
        }
        if stop {
            break;
        }
    }
    let mut out = best.unwrap_or_else(|| {
        let mut o = hooks.checkpoint(ctx);
        stamp(&mut o, epochs_done);
        o
    });
    if let (Some((epoch, hash)), Some(artifacts)) = (held, ctx.artifacts) {
        let Some((emb1, emb2)) = artifacts.restore(label) else {
            return Err(TrainError::CheckpointLost { epoch });
        };
        (out.emb1, out.emb2) = (emb1, emb2);
        if out.content_hash() != hash {
            return Err(TrainError::CheckpointLost { epoch });
        }
    }
    out.trace = rec.finish();
    if let Some(sink) = ctx.sink {
        sink.on_stop(label, &out.trace.stop);
    }
    if let Some(artifacts) = ctx.artifacts {
        artifacts.on_complete(label, &out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attre::AttrE;
    use crate::bootea::BootEa;
    use crate::common::Approach;
    use crate::iptranse::IpTransE;
    use crate::rsn4ea::Rsn4Ea;
    use openea_core::{k_fold_splits, FoldSplit, KgPair};

    /// Drives `inner` unchanged, except that every in-place validation is
    /// first held to the score of an extracted checkpoint — bit for bit, for
    /// the validation pairs and for none.
    struct Checked<H> {
        inner: H,
        checks: usize,
    }

    impl<H: EpochHooks> EpochHooks for Checked<H> {
        fn train_epoch(&mut self, epoch: usize, ctx: &RunContext<'_>) -> EpochStats {
            self.inner.train_epoch(epoch, ctx)
        }

        fn after_epoch(&mut self, epoch: usize, ctx: &RunContext<'_>) {
            self.inner.after_epoch(epoch, ctx);
        }

        fn checkpoint(&mut self, ctx: &RunContext<'_>) -> ApproachOutput {
            self.inner.checkpoint(ctx)
        }

        fn validate_in_place(
            &mut self,
            valid: &[AlignedPair],
            ctx: &RunContext<'_>,
        ) -> Option<f64> {
            let out = self.inner.checkpoint(ctx);
            for pairs in [valid, &[]] {
                let in_place = self
                    .inner
                    .validate_in_place(pairs, ctx)
                    .expect("scores in place");
                let extracted = validation_hits1(&out, pairs, ctx.threads);
                assert_eq!(
                    in_place.to_bits(),
                    extracted.to_bits(),
                    "{} pairs",
                    pairs.len()
                );
            }
            self.checks += 1;
            self.inner.validate_in_place(valid, ctx)
        }
    }

    /// Runs `hooks` checked, and returns the output and the checks made.
    fn checked<H: EpochHooks>(
        hooks: H,
        split: &FoldSplit,
        cfg: &RunConfig,
    ) -> (ApproachOutput, usize) {
        let mut checked = Checked {
            inner: hooks,
            checks: 0,
        };
        let ctx = RunContext::new(cfg).for_valid(&split.valid);
        let out = run_driver("checked", &mut checked, &ctx, cfg).unwrap();
        (out, checked.checks)
    }

    #[test]
    fn table_drivers_score_in_place_exactly_as_their_checkpoints() {
        use openea_synth::{DatasetFamily, PresetConfig};
        let pair: KgPair = PresetConfig::new(DatasetFamily::EnFr, 150, false, 303).generate();
        let mut rng = SmallRng::seed_from_u64(3);
        let split = k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
        assert!(!split.valid.is_empty());
        let cfg = RunConfig {
            dim: 16,
            max_epochs: 20,
            check_every: 5,
            patience: usize::MAX,
            threads: 2,
            seed: 1234,
            ..RunConfig::default()
        };
        let ctx = RunContext::new(&cfg);
        let (iptranse, bootea) = (IpTransE::default(), BootEa::default());
        let (attre, rsn4ea) = (AttrE, Rsn4Ea);
        let runs = [
            (
                iptranse.name(),
                checked(iptranse.hooks(&pair, &split, &cfg, &ctx), &split, &cfg),
                iptranse.run(&pair, &split, &cfg),
            ),
            (
                bootea.name(),
                checked(bootea.hooks(&pair, &split, &cfg, &ctx), &split, &cfg),
                bootea.run(&pair, &split, &cfg),
            ),
            (
                attre.name(),
                checked(attre.hooks(&pair, &split, &cfg, &ctx), &split, &cfg),
                attre.run(&pair, &split, &cfg),
            ),
            (
                rsn4ea.name(),
                checked(rsn4ea.hooks(&pair, &split, &cfg, &ctx), &split, &cfg),
                rsn4ea.run(&pair, &split, &cfg),
            ),
        ];
        for (name, (out, checks), plain) in runs {
            assert_eq!(checks, 4, "{name}: every validation checked");
            // The extra extracts are reads: the run ends on the same bits.
            assert_eq!(out.content_hash(), plain.content_hash(), "{name}");
        }
    }
}
