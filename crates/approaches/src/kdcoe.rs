//! KDCoE \[9\]: co-training of two orthogonal views — relation-triple
//! embeddings (an MTransE-style transformation) and textual-description
//! embeddings (a literal encoder over pre-trained cross-lingual word
//! vectors). Each co-training iteration, each view proposes its most
//! confident new pairs to augment the other's training seed.
//!
//! Entities with thin descriptions cannot be proposed by the description
//! view, which limits how much co-training helps — the behaviour Figure 7
//! reports for KDCoE.

use crate::boot::{propose_edited, Candidates, Ledger};
use crate::common::{
    entity_literal_text, gather_rows, Approach, ApproachOutput, EpochStats, Requirements,
    RunConfig, TrainError,
};
use crate::engine::{run_driver, EpochHooks, RunContext};
use crate::transformation::TransformationCore;
use crate::views::{optional_rows, Fusion, View};
use openea_align::Metric;
use openea_core::{AlignedPair, EntityId, FoldSplit, KgPair, KnowledgeGraph};
use openea_models::literal::LiteralEncoder;
use openea_models::{RelationModel, TransE};

/// An entity's textual description encoded to a unit row, or `None` when
/// it has no literals, i.e. "lacks a textual description".
fn description(kg: &KnowledgeGraph, enc: &LiteralEncoder, e: EntityId) -> Option<Vec<f32>> {
    let text = entity_literal_text(kg, e);
    (!text.is_empty()).then(|| enc.encode(&text))
}

/// KDCoE.
pub struct KdCoe {
    /// Confidence threshold of the description view.
    pub desc_threshold: f32,
    /// Confidence threshold of the relation view.
    pub rel_threshold: f32,
}

impl Default for KdCoe {
    fn default() -> Self {
        Self {
            desc_threshold: 0.9,
            rel_threshold: 0.85,
        }
    }
}

/// Epochs between co-training iterations.
const CO_EVERY: usize = 15;

/// Weight of the description view in the final embedding.
const DESC_WEIGHT: f32 = 0.5;

impl Approach for KdCoe {
    fn name(&self) -> &'static str {
        "KDCoE"
    }

    fn requirements(&self) -> Requirements {
        Requirements::LITERAL_AUGMENTED
    }

    fn try_run(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &RunConfig,
        ctx: &RunContext<'_>,
    ) -> Result<ApproachOutput, TrainError> {
        let mut rng = ctx.driver_rng();
        let mut model = |kg: &KnowledgeGraph| -> Box<dyn RelationModel> {
            Box::new(TransE::new(
                kg.num_entities(),
                kg.num_relations().max(1),
                cfg.dim,
                cfg.margin,
                &mut rng,
            ))
        };
        let (m1, m2) = (model(&pair.kg1), model(&pair.kg2));
        let core = TransformationCore::new(pair, m1, m2, cfg, rng);

        // Description view (fixed encodings — the co-trained "other" model).
        let enc = cfg.literal_encoder();
        let d = enc.dim();
        let desc = cfg.use_attributes.then(|| {
            View::of(pair, d, DESC_WEIGHT, |kg| {
                optional_rows(kg, d, |e| description(kg, &enc, e))
            })
        });
        let fusion = Fusion {
            structure_weight: 1.0 - DESC_WEIGHT,
            views: desc.into_iter().collect(),
        };

        let mut hooks = Hooks {
            approach: self,
            cfg,
            core,
            fusion,
            seeds: &split.train,
            ledger: Ledger::scored(pair, &split.train),
        };
        let mut out = run_driver(self.name(), &mut hooks, &ctx.for_valid(&split.valid), cfg)?;
        out.augmentation = hooks.ledger.curve;
        Ok(out)
    }
}

/// Engine hooks: per-KG TransE epochs plus the joint transformation step
/// over the seeds and every accepted pair, then (every [`CO_EVERY`] epochs) a
/// co-training round where the description and relation views each propose
/// confident new seeds for the other.
struct Hooks<'a> {
    approach: &'a KdCoe,
    cfg: &'a RunConfig,
    core: TransformationCore,
    /// The description view, if any, fused onto every checkpoint.
    fusion: Fusion,
    seeds: &'a [AlignedPair],
    ledger: Ledger,
}

impl EpochHooks for Hooks<'_> {
    fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        self.core.train_epoch(self.cfg)
    }

    fn after_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) {
        let seeds = self.seeds.iter().chain(&self.ledger.proposed).copied();
        self.core.seed_step(seeds, self.cfg);

        if (epoch + 1).is_multiple_of(CO_EVERY) {
            let (sources, targets) = self.ledger.unaligned();
            let threads = self.cfg.threads;
            // Description view proposes (only entities with descriptions).
            let mut new_pairs = Vec::new();
            if let Some(desc) = self.fusion.views.first() {
                let (d1, d2) = desc.rows().expect("the description view stores its rows");
                let dim = desc.dim;
                let described = |ids: &[EntityId], d: &[f32]| -> Vec<EntityId> {
                    ids.iter()
                        .copied()
                        .filter(|e| {
                            d[e.idx() * dim..(e.idx() + 1) * dim]
                                .iter()
                                .any(|&x| x != 0.0)
                        })
                        .collect()
                };
                let (sources, targets) = (described(&sources, d1), described(&targets, d2));
                let cands = Candidates {
                    src: gather_rows(d1, dim, &sources),
                    dst: gather_rows(d2, dim, &targets),
                    sources,
                    targets,
                    dim,
                    metric: Metric::Cosine,
                };
                new_pairs = propose_edited(&cands, self.approach.desc_threshold, threads);
            }
            // Relation view proposes: mapped KG1 rows against raw KG2 rows.
            let dim = self.cfg.dim;
            let cands = Candidates {
                src: self.core.mapped_rows(dim, sources.iter().map(|e| e.idx())),
                dst: gather_rows(self.core.kg2.model.entities().data(), dim, &targets),
                sources,
                targets,
                dim,
                metric: Metric::Euclidean,
            };
            new_pairs.extend(propose_edited(&cands, self.approach.rel_threshold, threads));
            self.ledger.accept(new_pairs);
        }
    }

    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        let relation = self.core.output(self.cfg, Metric::Euclidean);
        self.fusion.apply(relation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_core::KgBuilder;
    use openea_math::vecops;
    use openea_models::literal::WordVectors;

    #[test]
    fn description_vectors_zero_without_literals() {
        let mut b = KgBuilder::new("a");
        b.add_rel_triple("x", "r", "y");
        b.add_attr_triple("x", "desc", "a city in the alps");
        let kg = b.build();
        let enc = LiteralEncoder::new(WordVectors::hash_only(16));
        let d = optional_rows(&kg, 16, |e| description(&kg, &enc, e));
        let x = kg.entity_by_name("x").unwrap();
        let y = kg.entity_by_name("y").unwrap();
        assert!(vecops::norm2(&d[x.idx() * 16..(x.idx() + 1) * 16]) > 0.9);
        assert!(d[y.idx() * 16..(y.idx() + 1) * 16]
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn matching_descriptions_align() {
        let mut b1 = KgBuilder::new("a");
        b1.add_attr_triple("x", "desc", "the tallest mountain on earth");
        let mut b2 = KgBuilder::new("b");
        b2.add_attr_triple("u", "about", "the tallest mountain on earth");
        b2.add_attr_triple("w", "about", "a small danish village");
        let kg1 = b1.build();
        let kg2 = b2.build();
        let enc = LiteralEncoder::new(WordVectors::hash_only(32));
        let d1 = optional_rows(&kg1, 32, |e| description(&kg1, &enc, e));
        let d2 = optional_rows(&kg2, 32, |e| description(&kg2, &enc, e));
        let x = kg1.entity_by_name("x").unwrap();
        let u = kg2.entity_by_name("u").unwrap();
        let w = kg2.entity_by_name("w").unwrap();
        let row = |d: &[f32], e: EntityId| d[e.idx() * 32..(e.idx() + 1) * 32].to_vec();
        assert!(
            vecops::cosine(&row(&d1, x), &row(&d2, u)) > vecops::cosine(&row(&d1, x), &row(&d2, w))
        );
    }
}
