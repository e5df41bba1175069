//! BootEA \[73\]: bootstrapping entity alignment. A TransE variant with the
//! **limit-based loss** and **truncated negative sampling** in a unified
//! space with **parameter swapping**, plus conflict-edited self-training:
//! every few epochs the current embeddings propose a 1-to-1 set of likely
//! alignment, which is fed back as swapped triples and calibration targets.
//! Cosine metric, semi-supervised.

use crate::boot::{propose_edited, Candidates};
use crate::common::{
    augmentation_quality, calibrate, train_epoch_batched, Approach, ApproachOutput, Combination,
    EpochStats, Req, Requirements, RunConfig, TrainError, TrainOptions, UnifiedSpace,
};
use crate::engine::{run_driver, EpochHooks, RunContext};
use openea_align::{Metric, PrfScores, TopKMatrix};
use openea_core::{AlignedPair, EntityId, FoldSplit, KgPair};
use openea_math::negsamp::{RawTriple, TruncatedSampler, UniformSampler};
use openea_models::translational::LossKind;
use openea_models::{RelationModel, TransE};
use openea_runtime::rng::{RngCore, SmallRng};
use std::collections::HashSet;

/// BootEA.
pub struct BootEa {
    /// Epochs between bootstrapping rounds.
    pub boot_every: usize,
    /// Cosine threshold for accepting proposals.
    pub threshold: f32,
    /// ε of the truncated sampler (fraction of entities *excluded* from the
    /// hard-candidate lists).
    pub epsilon: f64,
    /// Ablation switch for the Sect. 5.2 study: disable self-training.
    pub bootstrapping: bool,
}

impl Default for BootEa {
    fn default() -> Self {
        Self {
            boot_every: 15,
            threshold: 0.75,
            epsilon: 0.98,
            bootstrapping: true,
        }
    }
}

impl BootEa {
    /// Rebuilds the per-entity hard-negative candidate lists from the
    /// current embeddings (the "truncated ε-sampling" of the paper): the
    /// σ most cosine-similar entities per entity, excluding self, via the
    /// streaming top-k kernel (k = σ+1 so the self hit can be dropped).
    fn refresh_sampler(&self, model: &TransE, threads: usize) -> TruncatedSampler {
        let table = model.entities();
        let n = table.count();
        let sigma = TruncatedSampler::truncation_size(n, self.epsilon).min(64);
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
        out.augmentation = hooks.augmentation;
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
        let mut rng = ctx.driver_rng();
        let space = UnifiedSpace::build(pair, &split.train, Combination::Swapping);
        let base_triples = space.triples.clone();
        let mut model = TransE::new(
            space.num_entities,
            space.num_relations.max(1),
            cfg.dim,
            cfg.margin,
            &mut rng,
        );
        model.loss = LossKind::Limit {
            lambda_pos: 0.05,
            lambda_neg: 1.2,
            mu: 0.2,
        };
        let gold: HashSet<(EntityId, EntityId)> = pair
            .alignment
            .iter()
            .copied()
            .filter(|p| !split.train.contains(p))
            .collect();

        let opts = cfg.train_options(base_triples.len());
        let uniform = UniformSampler {
            num_entities: space.num_entities.max(1) as u32,
        };
        Hooks {
            approach: self,
            pair,
            cfg,
            space,
            model,
            uniform,
            truncated: None,
            triples: base_triples.clone(),
            base_triples,
            train_set: split.train.iter().map(|&(a, _)| a).collect(),
            train_set2: split.train.iter().map(|&(_, b)| b).collect(),
            gold,
            proposed: Vec::new(),
            augmentation: Vec::new(),
            opts,
            rng,
        }
    }
}

/// BootEA ranks and proposes by cosine.
const METRIC: Metric = Metric::Cosine;

/// Engine hooks: limit-loss TransE over the (possibly swapped) triples with
/// truncated negatives once bootstrapping starts, per-epoch calibration of
/// the proposed pairs, and a conflict-edited self-training round every
/// `boot_every` epochs.
pub(crate) struct Hooks<'a> {
    approach: &'a BootEa,
    pair: &'a KgPair,
    cfg: &'a RunConfig,
    space: UnifiedSpace,
    model: TransE,
    uniform: UniformSampler,
    truncated: Option<TruncatedSampler>,
    triples: Vec<RawTriple>,
    base_triples: Vec<RawTriple>,
    train_set: HashSet<EntityId>,
    train_set2: HashSet<EntityId>,
    gold: HashSet<(EntityId, EntityId)>,
    proposed: Vec<(EntityId, EntityId)>,
    augmentation: Vec<PrfScores>,
    opts: TrainOptions,
    rng: SmallRng,
}

impl EpochHooks for Hooks<'_> {
    fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        if !self.cfg.use_relations {
            return EpochStats::default();
        }
        let seed = self.rng.next_u64();
        match &self.truncated {
            Some(s) => train_epoch_batched(&mut self.model, &self.triples, s, &self.opts, seed),
            None => train_epoch_batched(
                &mut self.model,
                &self.triples,
                &self.uniform,
                &self.opts,
                seed,
            ),
        }
        .expect("valid train options")
    }

    fn after_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) {
        // Calibrate the bootstrapped pairs each epoch.
        let prop_uids: Vec<(u32, u32)> = self
            .proposed
            .iter()
            .map(|&(a, b)| (self.space.uid1(a), self.space.uid2(b)))
            .collect();
        calibrate(&mut self.model.entities, &prop_uids, self.cfg.lr);

        if self.approach.bootstrapping && (epoch + 1).is_multiple_of(self.approach.boot_every) {
            // Refresh hard negatives from the current space.
            self.truncated = Some(self.approach.refresh_sampler(&self.model, self.cfg.threads));
            // Propose a fresh, conflict-edited alignment each round.
            let cands = Candidates::unified(
                self.pair,
                &self.space,
                self.model.entities(),
                &self.train_set,
                &self.train_set2,
            );
            self.proposed = propose_edited(&cands, self.approach.threshold, self.cfg.threads);
            self.augmentation
                .push(augmentation_quality(&self.proposed, &self.gold));
            // Swap triples for the new proposals on top of the base set.
            self.triples = self.base_triples.clone();
            self.triples
                .extend(self.space.swap_triples(self.pair, &self.proposed));
        }
    }

    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        self.space.output(self.model.entities(), METRIC)
    }

    fn validate_in_place(&mut self, valid: &[AlignedPair], ctx: &RunContext<'_>) -> Option<f64> {
        let table = self.model.entities();
        Some(
            self.space
                .validation_hits1(table, METRIC, valid, ctx.threads),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_math::negsamp::NegSampler;
    use openea_math::{EmbeddingTable, Initializer};
    use openea_runtime::rng::SeedableRng;

    #[test]
    fn refresh_sampler_builds_topk_lists() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut model = TransE::new(30, 2, 8, 1.0, &mut rng);
        model.entities = EmbeddingTable::new(30, 8, Initializer::Unit, &mut rng);
        let b = BootEa::default();
        let sampler = b.refresh_sampler(&model, 2);
        // Sampling must produce in-range corruptions.
        for _ in 0..50 {
            let (h, _, t) = sampler.corrupt((3, 0, 7), &mut rng);
            assert!(h < 30 && t < 30);
        }
    }

    #[test]
    fn truncated_candidates_are_similar_entities() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut model = TransE::new(4, 1, 2, 1.0, &mut rng);
        // Entities 0 and 1 nearly parallel; 2, 3 orthogonal to them.
        model.entities.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        model.entities.row_mut(1).copy_from_slice(&[0.99, 0.1]);
        model.entities.row_mut(2).copy_from_slice(&[0.0, 1.0]);
        model.entities.row_mut(3).copy_from_slice(&[0.0, -1.0]);
        let b = BootEa {
            epsilon: 0.75,
            ..BootEa::default()
        }; // σ = 1
        let s = b.refresh_sampler(&model, 1);
        // The hardest negative for entity 0 must be entity 1.
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

    #[test]
    fn defaults_enable_bootstrapping() {
        let b = BootEa::default();
        assert!(b.bootstrapping);
        assert_eq!(b.name(), "BootEA");
    }
}
