//! MultiKE \[90\]: multi-view knowledge-graph embedding. Three views —
//! **name** (literal encoding of the entity's name), **relation** (TransE in
//! a unified space with parameter swapping) and **attribute** (literal
//! profile over all attribute values) — are combined into one discriminative
//! representation. The multi-view redundancy makes MultiKE fast to converge
//! and robust to sparse relations (the paper's efficiency/effectiveness
//! sweet spot). Cosine metric, supervised.

use crate::common::{
    entity_name_literal, Approach, ApproachOutput, Combination, Req, Requirements, RunConfig,
    TrainError, Unified,
};
use crate::engine::{run_driver, RunContext};
use crate::views::{literal_sum, optional_rows, FusedTransE, Fusion, View};
use openea_core::{FoldSplit, KgPair};

/// MultiKE.
#[derive(Default)]
pub struct MultiKe;

/// Weights of the name, relation and attribute views.
const NAME_WEIGHT: f32 = 0.45;
const RELATION_WEIGHT: f32 = 0.35;
const ATTR_WEIGHT: f32 = 0.2;

impl Approach for MultiKe {
    fn name(&self) -> &'static str {
        "MultiKE"
    }

    fn requirements(&self) -> Requirements {
        Requirements {
            pre_aligned_properties: Req::NotApplicable,
            ..Requirements::LITERAL_AUGMENTED
        }
    }

    fn try_run(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &RunConfig,
        ctx: &RunContext<'_>,
    ) -> Result<ApproachOutput, TrainError> {
        let (wn, wr, wa) = if cfg.use_relations {
            (NAME_WEIGHT, RELATION_WEIGHT, ATTR_WEIGHT)
        } else {
            // Relation view disabled (Table 8): renormalize the others.
            let z = NAME_WEIGHT + ATTR_WEIGHT;
            (NAME_WEIGHT / z, 0.0, ATTR_WEIGHT / z)
        };
        let enc = cfg.literal_encoder();
        let d = enc.dim();
        let views = if cfg.use_attributes {
            vec![
                View::of(pair, d, wn, |kg| {
                    optional_rows(kg, d, |e| entity_name_literal(kg, e).map(|s| enc.encode(s)))
                }),
                View::of(pair, d, wa, |kg| literal_sum(kg, d, |s| enc.encode(s))),
            ]
        } else {
            Vec::new()
        };
        let mut hooks = FusedTransE {
            cfg,
            base: Unified::transe(pair, &split.train, Combination::Swapping, cfg, ctx),
            fusion: Fusion {
                structure_weight: wr,
                views,
            },
        };
        run_driver(self.name(), &mut hooks, &ctx.for_valid(&split.valid), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_sum_to_one() {
        assert!((NAME_WEIGHT + RELATION_WEIGHT + ATTR_WEIGHT - 1.0).abs() < 1e-6);
    }

    #[test]
    fn requirements_match_table9() {
        let r = MultiKe.requirements();
        assert_eq!(r.rel_triples, Req::Optional);
        assert_eq!(r.word_embeddings, Req::CrossLingualOnly);
    }
}
