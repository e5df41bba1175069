//! IMUSE \[28\]: "unsupervised" entity alignment via a preprocessing step that
//! collects high-string-similarity entity pairs as (noisy) extra seeds, then
//! trains a TransE embedding with parameter sharing over the merged seed set
//! and combines relation and attribute similarity at inference. As the paper
//! notes, IMUSE still consumes the given seed alignment — its preprocessing
//! only *augments* it (and the errors it introduces can hurt).

use crate::common::{
    Approach, ApproachOutput, Combination, Requirements, RunConfig, TrainError, Unified,
};
use crate::engine::{run_driver, RunContext};
use crate::views::{literal_sum, FusedTransE, Fusion, View};
use openea_core::{AlignedPair, EntityId, FoldSplit, KgPair, KnowledgeGraph};
use std::collections::{HashMap, HashSet};

/// Finds candidate pairs by shared literal values, scores them by weighted
/// overlap, and returns a 1-to-1 set above `threshold`.
pub fn string_match_seeds(
    kg1: &KnowledgeGraph,
    kg2: &KnowledgeGraph,
    threshold: f32,
) -> Vec<AlignedPair> {
    // Inverted index over exact literal values of KG2.
    let mut index: HashMap<&str, Vec<EntityId>> = HashMap::new();
    for e in kg2.entity_ids() {
        for &(_, v) in kg2.attrs_of(e) {
            index.entry(kg2.literal_value(v)).or_default().push(e);
        }
    }
    // Rarity-weighted overlap: shared rare values are strong evidence.
    let mut scores: HashMap<(EntityId, EntityId), f32> = HashMap::new();
    for e1 in kg1.entity_ids() {
        for &(_, v) in kg1.attrs_of(e1) {
            if let Some(matches) = index.get(kg1.literal_value(v)) {
                if matches.len() > 8 {
                    continue; // too common to be informative
                }
                let w = 1.0 / matches.len() as f32;
                for &e2 in matches {
                    *scores.entry((e1, e2)).or_insert(0.0) += w;
                }
            }
        }
    }
    // Greedy 1-to-1 by descending score, ties by ids (the map's iteration
    // order differs from run to run).
    let mut ranked: Vec<((EntityId, EntityId), f32)> = scores.into_iter().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    let mut used1 = HashSet::new();
    let mut used2 = HashSet::new();
    let mut out = Vec::new();
    for ((e1, e2), s) in ranked {
        if s < threshold {
            break;
        }
        if !used1.contains(&e1) && !used2.contains(&e2) {
            used1.insert(e1);
            used2.insert(e2);
            out.push((e1, e2));
        }
    }
    out
}

/// IMUSE.
#[derive(Default)]
pub struct Imuse;

/// Minimum rarity-weighted overlap for a preprocessing seed (also the
/// unsupervised pipeline's).
pub(crate) const STRING_THRESHOLD: f32 = 1.5;

/// Weight of the relation view in the final combined similarity.
const REL_WEIGHT: f32 = 0.6;

impl Approach for Imuse {
    fn name(&self) -> &'static str {
        "IMUSE"
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
        // Preprocessing: augment the seeds with string matches (may be wrong).
        let mut seeds = split.train.clone();
        if cfg.use_attributes {
            let taken1: HashSet<EntityId> = seeds.iter().map(|&(a, _)| a).collect();
            let taken2: HashSet<EntityId> = seeds.iter().map(|&(_, b)| b).collect();
            for (a, b) in string_match_seeds(&pair.kg1, &pair.kg2, STRING_THRESHOLD) {
                if !taken1.contains(&a) && !taken2.contains(&b) {
                    seeds.push((a, b));
                }
            }
        }
        let base = Unified::transe(pair, &seeds, Combination::Sharing, cfg, ctx);

        // Attribute view: literal features through the (word-vector) encoder,
        // merged with the relation view under cosine.
        let enc = cfg.literal_encoder();
        let d = enc.dim();
        let literals = cfg.use_attributes.then(|| {
            View::of(pair, d, 1.0 - REL_WEIGHT, |kg| {
                literal_sum(kg, d, |s| enc.encode(s))
            })
        });
        let fusion = Fusion {
            structure_weight: REL_WEIGHT,
            views: literals.into_iter().collect(),
        };
        let mut hooks = FusedTransE { cfg, base, fusion };
        run_driver(self.name(), &mut hooks, &ctx.for_valid(&split.valid), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_core::KgBuilder;

    #[test]
    fn string_seeds_find_rare_shared_literals() {
        let mut b1 = KgBuilder::new("a");
        b1.add_attr_triple("x", "name", "unique literal alpha");
        b1.add_attr_triple("x", "pop", "12000");
        b1.add_attr_triple("y", "name", "another one");
        let mut b2 = KgBuilder::new("b");
        b2.add_attr_triple("u", "label", "unique literal alpha");
        b2.add_attr_triple("u", "population", "12000");
        b2.add_attr_triple("w", "label", "something else");
        let kg1 = b1.build();
        let kg2 = b2.build();
        let seeds = string_match_seeds(&kg1, &kg2, 1.5);
        assert_eq!(seeds.len(), 1);
        assert_eq!(kg1.entity_name(seeds[0].0), "x");
        assert_eq!(kg2.entity_name(seeds[0].1), "u");
    }

    #[test]
    fn common_values_are_ignored() {
        let mut b1 = KgBuilder::new("a");
        let mut b2 = KgBuilder::new("b");
        for i in 0..20 {
            b1.add_attr_triple(&format!("x{i}"), "type", "city");
            b2.add_attr_triple(&format!("u{i}"), "kind", "city");
        }
        let seeds = string_match_seeds(&b1.build(), &b2.build(), 0.5);
        assert!(
            seeds.is_empty(),
            "shared common value must not create seeds"
        );
    }

    #[test]
    fn tied_conflicting_seeds_resolve_by_ids() {
        let mut b1 = KgBuilder::new("a");
        b1.add_attr_triple("x", "name", "val shared");
        b1.add_attr_triple("y", "name", "val shared");
        let mut b2 = KgBuilder::new("b");
        b2.add_attr_triple("u", "label", "val shared");
        let (kg1, kg2) = (b1.build(), b2.build());
        let x = kg1.entity_by_name("x").unwrap();
        let u = kg2.entity_by_name("u").unwrap();
        // x and y both score 1.0 against u; each call hashes afresh.
        for _ in 0..20 {
            assert_eq!(string_match_seeds(&kg1, &kg2, 0.5), [(x, u)]);
        }
    }

    #[test]
    fn seeds_are_one_to_one() {
        let mut b1 = KgBuilder::new("a");
        b1.add_attr_triple("x", "name", "val shared");
        b1.add_attr_triple("y", "name", "val shared");
        b1.add_attr_triple("x", "other", "rare one");
        let mut b2 = KgBuilder::new("b");
        b2.add_attr_triple("u", "label", "val shared");
        b2.add_attr_triple("u", "more", "rare one");
        let seeds = string_match_seeds(&b1.build(), &b2.build(), 0.4);
        let mut s1 = HashSet::new();
        let mut s2 = HashSet::new();
        for (a, b) in seeds {
            assert!(s1.insert(a));
            assert!(s2.insert(b));
        }
    }
}
