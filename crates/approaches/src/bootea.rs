//! BootEA \[73\]: bootstrapping entity alignment. A TransE variant with the
//! **limit-based loss** and **truncated negative sampling** in a unified
//! space with **parameter swapping**, plus conflict-edited self-training:
//! every few epochs the current embeddings propose a 1-to-1 set of likely
//! alignment, which is fed back as swapped triples and calibration targets.
//! Cosine metric, semi-supervised.

use crate::boot::{propose_edited, Ledger};
use crate::common::{
    Approach, ApproachOutput, Combination, EpochStats, Req, Requirements, RunConfig, TrainError,
    UnifiedSpace, UnifiedTransE,
};
use crate::engine::{run_driver, EpochHooks, RunContext, WarmStart};
use openea_align::{Metric, TopKMatrix};
use openea_core::{AlignedPair, FoldSplit, KgPair};
use openea_math::negsamp::TruncatedSampler;
use openea_math::EmbeddingTable;
use openea_models::translational::LossKind;

/// BootEA.
pub struct BootEa {
    /// Cosine threshold for accepting proposals.
    pub threshold: f32,
    /// Ablation switch for the Sect. 5.2 study: disable self-training.
    pub bootstrapping: bool,
}

impl Default for BootEa {
    fn default() -> Self {
        Self {
            threshold: 0.75,
            bootstrapping: true,
        }
    }
}

/// Epochs between bootstrapping rounds.
const BOOT_EVERY: usize = 15;

/// ε of the truncated sampler (fraction of entities *excluded* from the
/// hard-candidate lists).
const EPSILON: f64 = 0.98;

/// Rebuilds the per-entity hard-negative candidate lists from the current
/// entity `table` (the "truncated ε-sampling" of the paper): the σ most
/// cosine-similar entities per entity, excluding self, via the streaming
/// top-k kernel (k = σ+1 so the self hit can be dropped).
fn refresh_sampler(table: &EmbeddingTable, threads: usize) -> TruncatedSampler {
    let n = table.count();
    let sigma = TruncatedSampler::truncation_size(n, EPSILON).min(64);
    if n == 0 || sigma == 0 {
        return TruncatedSampler::new(vec![Vec::new(); n]);
    }
    let data = table.data();
    let topk = TopKMatrix::compute(data, data, table.dim(), Metric::Cosine, sigma + 1, threads);
    let candidates: Vec<Vec<u32>> = (0..n)
        .map(|e| {
            topk.row(e)
                .iter()
                .filter(|&&(o, _)| o as usize != e)
                .take(sigma)
                .map(|&(o, _)| o)
                .collect()
        })
        .collect();
    TruncatedSampler::new(candidates)
}

impl Approach for BootEa {
    fn name(&self) -> &'static str {
        "BootEA"
    }

    fn requirements(&self) -> Requirements {
        use Req::*;
        Requirements::of(Mandatory, NotApplicable, Mandatory, Optional, NotApplicable)
    }

    fn try_run(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &RunConfig,
        ctx: &RunContext<'_>,
    ) -> Result<ApproachOutput, TrainError> {
        let mut hooks = self.hooks(pair, split, cfg, ctx);
        let mut out = run_driver(self.name(), &mut hooks, &ctx.for_valid(&split.valid), cfg)?;
        out.augmentation = hooks.ledger.curve;
        Ok(out)
    }
}

impl BootEa {
    /// The engine hooks of a run on `split`, before its first epoch.
    pub(crate) fn hooks<'a>(
        &'a self,
        pair: &'a KgPair,
        split: &FoldSplit,
        cfg: &'a RunConfig,
        ctx: &RunContext<'_>,
    ) -> Hooks<'a> {
        let space = UnifiedSpace::build(pair, &split.train, Combination::Swapping);
        let mut base = UnifiedTransE::new(space, cfg, ctx.driver_rng());
        base.model.loss = LossKind::Limit {
            lambda_pos: 0.05,
            lambda_neg: 1.2,
            mu: 0.2,
        };
        Hooks {
            approach: self,
            pair,
            cfg,
            seed_triples: base.space.triples.len(),
            base,
            truncated: None,
            ledger: Ledger::scored(pair, &split.train),
        }
    }
}

/// BootEA ranks and proposes by cosine.
const METRIC: Metric = Metric::Cosine;

/// Engine hooks: limit-loss TransE over the (possibly swapped) triples with
/// truncated negatives once bootstrapping starts, per-epoch calibration of
/// the proposed pairs, and a conflict-edited self-training round every
/// [`BOOT_EVERY`] epochs.
pub(crate) struct Hooks<'a> {
    approach: &'a BootEa,
    pair: &'a KgPair,
    cfg: &'a RunConfig,
    base: UnifiedTransE,
    /// How many of `base.space.triples` the seeds' space holds; the swaps
    /// of the current proposals follow them.
    seed_triples: usize,
    truncated: Option<TruncatedSampler>,
    ledger: Ledger,
}

impl EpochHooks for Hooks<'_> {
    fn warm_start(&mut self, warm: &WarmStart<'_>, ctx: &RunContext<'_>) -> bool {
        self.base.warm_start(warm, ctx)
    }

    fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        match &self.truncated {
            Some(hard) => self.base.train_epoch_with(self.cfg, hard),
            None => self.base.train_epoch(self.cfg),
        }
    }

    fn after_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) {
        // Calibrate the bootstrapped pairs each epoch.
        let table = &mut self.base.model.entities;
        self.ledger.calibrate(&self.base.space, table, self.cfg.lr);

        if self.approach.bootstrapping && (epoch + 1).is_multiple_of(BOOT_EVERY) {
            // Refresh hard negatives from the current space.
            self.truncated = Some(refresh_sampler(table, self.cfg.threads));
            // Propose a fresh, conflict-edited alignment each round.
            let cands = self.ledger.candidates(&self.base.space, table);
            let threshold = self.approach.threshold;
            self.ledger
                .replace(propose_edited(&cands, threshold, self.cfg.threads));
            // Swap triples for the new proposals on top of the seeds' set.
            let space = &mut self.base.space;
            let swaps = space.swap_triples(self.pair, &self.ledger.proposed);
            space.triples.truncate(self.seed_triples);
            space.triples.extend(swaps);
        }
    }

    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        self.base.output(METRIC)
    }

    fn validate_in_place(&mut self, valid: &[AlignedPair], ctx: &RunContext<'_>) -> Option<f64> {
        Some(self.base.validation_hits1(METRIC, valid, ctx.threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_math::negsamp::{NegSampler, RawTriple};
    use openea_math::Initializer;
    use openea_models::trainer::{train_epoch_batched, TrainOptions, Workspace};
    use openea_models::traits::RelationModel;
    use openea_runtime::rng::{RngCore, SeedableRng, SmallRng};
    use std::sync::{Arc, Mutex};

    #[test]
    fn refresh_sampler_builds_topk_lists() {
        let mut rng = SmallRng::seed_from_u64(1);
        let table = EmbeddingTable::new(30, 8, Initializer::Unit, &mut rng);
        let sampler = refresh_sampler(&table, 2);
        // Sampling must produce in-range corruptions.
        for _ in 0..50 {
            let (h, _, t) = sampler.corrupt((3, 0, 7), &mut rng);
            assert!(h < 30 && t < 30);
        }
    }

    #[test]
    fn truncated_candidates_are_similar_entities() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut table = EmbeddingTable::zeros(4, 2);
        // Entities 0 and 1 nearly parallel; 2, 3 orthogonal to them.
        table.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        table.row_mut(1).copy_from_slice(&[0.99, 0.1]);
        table.row_mut(2).copy_from_slice(&[0.0, 1.0]);
        table.row_mut(3).copy_from_slice(&[0.0, -1.0]);
        // σ = ⌈0.02 · 4⌉ = 1: the hardest negative for entity 0 must be
        // entity 1.
        let s = refresh_sampler(&table, 1);
        let mut saw_one = false;
        for _ in 0..100 {
            let (h, _, _) = s.corrupt((0, 0, 2), &mut rng);
            if h != 0 {
                assert_eq!(h, 1);
                saw_one = true;
            }
        }
        assert!(saw_one);
    }

    /// A relation model that trains nothing: it records, per batch, the
    /// batch's size and how often each entity row appears in its pairs
    /// (positive head and tail, negative head and tail — the rows one
    /// gradient step writes).
    struct RowCounter {
        table: EmbeddingTable,
        batches: Batches,
    }

    /// Per batch: its size, and the sorted counts of the rows it touches.
    type Batches = Arc<Mutex<Vec<(usize, Vec<u32>)>>>;

    impl RelationModel for RowCounter {
        fn name(&self) -> &'static str {
            "RowCounter"
        }
        fn energy(&self, _: RawTriple) -> f32 {
            0.0
        }
        fn train_batch(
            &mut self,
            pairs: &[(RawTriple, RawTriple)],
            _: &TrainOptions,
            _: &mut Workspace,
            _: &mut f64,
        ) {
            let mut rows = std::collections::HashMap::<u32, u32>::new();
            for &((h, _, t), (nh, _, nt)) in pairs {
                for e in [h, t, nh, nt] {
                    *rows.entry(e).or_default() += 1;
                }
            }
            let mut counts: Vec<u32> = rows.into_values().collect();
            counts.sort_unstable();
            self.batches.lock().unwrap().push((pairs.len(), counts));
        }
        fn entities(&self) -> &EmbeddingTable {
            &self.table
        }
        fn entities_mut(&mut self) -> &mut EmbeddingTable {
            &mut self.table
        }
    }

    /// `(batch size, batches, max, p99)` of the batches a counter saw: the
    /// largest count of one entity row within one batch, and the 99th
    /// percentile over every (batch, row) that batch touched.
    fn row_load(batches: &[(usize, Vec<u32>)]) -> (usize, usize, u32, u32) {
        let mut all: Vec<u32> = batches
            .iter()
            .flat_map(|(_, c)| c.iter().copied())
            .collect();
        all.sort_unstable();
        let p99 = all[(all.len() * 99).div_ceil(100) - 1];
        (batches[0].0, batches.len(), *all.last().unwrap(), p99)
    }

    /// Epoch 0 of the BootEA run that diverges at epoch 0
    /// (`approach_matrix::engine::bootea_at_3k_dim32_lr002_…`: D-Y 3 000,
    /// seed 1, fold 0, dim 32, lr 0.02), its batches formed again through
    /// `train_epoch_batched` on a model that trains nothing, beside MTransE's
    /// KG1 model at the same shape, which converges. Epoch 0 samples no
    /// truncated negatives (the first refresh follows epoch `BOOT_EVERY − 1`),
    /// so the counts are of uniform negatives over the swapped space.
    #[test]
    fn epoch_zero_batches_are_pinned_for_bootea_and_mtranse() {
        use crate::transformation::TransformationCore;
        let pair = openea_synth::PresetConfig::new(openea_synth::DatasetFamily::DY, 3000, false, 1)
            .generate();
        let mut rng = SmallRng::seed_from_u64(1);
        let fold = openea_core::k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
        let cfg = RunConfig {
            dim: 32,
            lr: 0.02,
            patience: usize::MAX,
            threads: 2,
            seed: 1,
            ..RunConfig::default()
        };
        let ctx = RunContext::new(&cfg).for_valid(&fold.valid);
        let counter = |n: usize| {
            let batches = Batches::default();
            let model = RowCounter {
                table: EmbeddingTable::zeros(n, 1),
                batches: Arc::clone(&batches),
            };
            (model, batches)
        };

        let approach = BootEa::default();
        let mut hooks = approach.hooks(&pair, &fold, &cfg, &ctx);
        assert!(hooks.truncated.is_none());
        let base = &mut hooks.base;
        let (mut model, boot) = counter(base.space.num_entities);
        let seed = base.rng.next_u64();
        train_epoch_batched(
            &mut model,
            &base.space.triples,
            &base.sampler,
            &base.opts,
            seed,
        )
        .unwrap();

        let (m1, mtranse) = counter(pair.kg1.num_entities());
        let (m2, _) = counter(pair.kg2.num_entities());
        let mut core =
            TransformationCore::new(&pair, Box::new(m1), Box::new(m2), &cfg, ctx.driver_rng());
        core.train_epoch(&cfg);

        let boot = row_load(&boot.lock().unwrap());
        let mtranse = row_load(&mtranse.lock().unwrap());
        assert_eq!(boot, (575, 150, 33, 11), "BootEA: batch, batches, max, p99");
        assert_eq!(
            mtranse,
            (206, 150, 23, 10),
            "MTransE KG1: batch, batches, max, p99"
        );
    }

    #[test]
    fn defaults_enable_bootstrapping() {
        let b = BootEa::default();
        assert!(b.bootstrapping);
        assert_eq!(b.name(), "BootEA");
    }
}
