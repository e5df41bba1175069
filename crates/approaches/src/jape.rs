//! JAPE \[72\]: joint attribute-preserving embedding. TransE in a unified
//! space (parameter sharing) plus attribute-correlation embedding (AC2Vec):
//! attributes co-occurring on entities are embedded close, and entities get
//! an attribute feature that refines the structural similarity. Cosine
//! metric, supervised.
//!
//! Attribute spaces of the two KGs connect only through attributes with
//! identical names — which rarely happens across heterogeneous schemata, so
//! the attribute signal is weak, exactly the behaviour Figure 6 reports.

use crate::common::{
    weighted_concat, Approach, ApproachOutput, Combination, EpochStats, Req, Requirements,
    RunConfig, TrainError, UnifiedSpace, UnifiedTransE,
};
use crate::engine::{run_driver, EpochHooks, RunContext, WarmStart};
use openea_align::Metric;
use openea_core::{AttributeId, FoldSplit, KgPair, KnowledgeGraph};
use openea_models::AttrCorrelationModel;
use openea_runtime::rng::Rng;
use std::collections::HashMap;

/// Unified attribute ids across two KGs: attributes with identical names
/// share an id. Returns `(maps, count)`.
pub fn unify_attributes(kg1: &KnowledgeGraph, kg2: &KnowledgeGraph) -> (Vec<u32>, Vec<u32>, usize) {
    let mut by_name: HashMap<&str, u32> = HashMap::new();
    let mut next = 0u32;
    let mut map1 = Vec::with_capacity(kg1.num_attributes());
    for a in 0..kg1.num_attributes() {
        let name = kg1.attribute_name(AttributeId::from_idx(a));
        let id = *by_name.entry(name).or_insert_with(|| {
            let v = next;
            next += 1;
            v
        });
        map1.push(id);
    }
    let mut map2 = Vec::with_capacity(kg2.num_attributes());
    for a in 0..kg2.num_attributes() {
        let name = kg2.attribute_name(AttributeId::from_idx(a));
        let id = *by_name.entry(name).or_insert_with(|| {
            let v = next;
            next += 1;
            v
        });
        map2.push(id);
    }
    (map1, map2, next as usize)
}

/// Per-entity unified attribute id lists.
pub fn entity_attr_sets(kg: &KnowledgeGraph, map: &[u32]) -> Vec<Vec<u32>> {
    kg.entity_ids()
        .map(|e| {
            let mut v: Vec<u32> = kg.attrs_of(e).iter().map(|&(a, _)| map[a.idx()]).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect()
}

/// Per-KG attribute-correlation feature vectors (row-major, `dim` wide).
pub(crate) type AttrFeatures = (Vec<f32>, Vec<f32>);

/// The AC2Vec attribute view (JAPE's, and GCNAlign's): an
/// attribute-correlation model trained on both KGs' attribute sets, drawing
/// from `rng`, and every entity's `cfg.dim`-wide feature under it.
pub(crate) fn attr_features<R: Rng>(pair: &KgPair, cfg: &RunConfig, rng: &mut R) -> AttrFeatures {
    let (map1, map2, num_attrs) = unify_attributes(&pair.kg1, &pair.kg2);
    let sets1 = entity_attr_sets(&pair.kg1, &map1);
    let sets2 = entity_attr_sets(&pair.kg2, &map2);
    let mut all_sets = sets1.clone();
    all_sets.extend(sets2.iter().cloned());
    let mut ac = AttrCorrelationModel::new(num_attrs.max(2), cfg.dim, rng);
    ac.train(&all_sets, 4, cfg.lr, rng);
    let f1: Vec<f32> = sets1.iter().flat_map(|s| ac.entity_feature(s)).collect();
    let f2: Vec<f32> = sets2.iter().flat_map(|s| ac.entity_feature(s)).collect();
    (f1, f2)
}

/// Combines a structural output with the `attr_dim`-wide attribute view by
/// weighted concatenation, under the structure's metric (which over the
/// concat realizes the paper's weighted similarity combination). Without a
/// view the structure is returned as it is.
pub(crate) fn with_attr_view(
    structure: ApproachOutput,
    attr: Option<&AttrFeatures>,
    attr_dim: usize,
    structure_weight: f32,
) -> ApproachOutput {
    let Some((f1, f2)) = attr else {
        return structure;
    };
    let sdim = structure.dim;
    let (ws, wa) = (structure_weight, 1.0 - structure_weight);
    ApproachOutput::new(
        sdim + attr_dim,
        structure.metric,
        weighted_concat(&structure.emb1, sdim, ws, &[(f1, attr_dim, wa)]),
        weighted_concat(&structure.emb2, sdim, ws, &[(f2, attr_dim, wa)]),
    )
}

/// JAPE.
pub struct Jape {
    /// Weight of the structural view in the combined embedding.
    pub structure_weight: f32,
}

impl Default for Jape {
    fn default() -> Self {
        Self {
            structure_weight: 0.85,
        }
    }
}

impl Approach for Jape {
    fn name(&self) -> &'static str {
        "JAPE"
    }

    fn requirements(&self) -> Requirements {
        use Req::*;
        Requirements::of(Mandatory, Optional, Mandatory, NotApplicable, NotApplicable)
    }

    fn try_run(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &RunConfig,
        ctx: &RunContext<'_>,
    ) -> Result<ApproachOutput, TrainError> {
        let space = UnifiedSpace::build(pair, &split.train, Combination::Sharing);
        let mut base = UnifiedTransE::new(space, cfg, ctx.driver_rng());

        // Attribute-correlation view (drawing from the driver RNG after
        // model init, as the pre-engine driver did).
        let attr_features = cfg
            .use_attributes
            .then(|| attr_features(pair, cfg, &mut base.rng));
        let mut hooks = Hooks {
            structure_weight: self.structure_weight,
            cfg,
            base,
            attr_features,
        };
        run_driver(self.name(), &mut hooks, &ctx.for_valid(&split.valid), cfg)
    }
}

struct Hooks<'a> {
    structure_weight: f32,
    cfg: &'a RunConfig,
    base: UnifiedTransE,
    attr_features: Option<AttrFeatures>,
}

impl EpochHooks for Hooks<'_> {
    fn warm_start(&mut self, warm: &WarmStart<'_>, ctx: &RunContext<'_>) -> bool {
        self.base.warm_start(warm, ctx)
    }

    fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        self.base.train_epoch(self.cfg)
    }

    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        let structure = self.base.output(Metric::Cosine);
        with_attr_view(
            structure,
            self.attr_features.as_ref(),
            self.cfg.dim,
            self.structure_weight,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_core::KgBuilder;

    #[test]
    fn unify_attributes_merges_identical_names() {
        let mut b1 = KgBuilder::new("a");
        b1.add_attr_triple("e", "name", "x");
        b1.add_attr_triple("e", "pop", "1");
        let mut b2 = KgBuilder::new("b");
        b2.add_attr_triple("f", "name", "y");
        b2.add_attr_triple("f", "area", "2");
        let kg1 = b1.build();
        let kg2 = b2.build();
        let (m1, m2, n) = unify_attributes(&kg1, &kg2);
        assert_eq!(n, 3); // name shared; pop, area distinct
        let name1 = kg1.attribute_by_name("name").unwrap();
        let name2 = kg2.attribute_by_name("name").unwrap();
        assert_eq!(m1[name1.idx()], m2[name2.idx()]);
    }

    #[test]
    fn entity_attr_sets_dedup() {
        let mut b = KgBuilder::new("a");
        b.add_attr_triple("e", "name", "x");
        b.add_attr_triple("e", "name", "y");
        b.add_attr_triple("e", "pop", "1");
        let kg = b.build();
        let (map, _, _) = unify_attributes(&kg, &KgBuilder::new("b").build());
        let sets = entity_attr_sets(&kg, &map);
        assert_eq!(sets[0].len(), 2); // name deduped
    }

    #[test]
    fn requirements_mark_attributes_optional() {
        assert_eq!(Jape::default().requirements().attr_triples, Req::Optional);
    }
}
