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
    Approach, ApproachOutput, Combination, Req, Requirements, RunConfig, TrainError, Unified,
};
use crate::engine::{run_driver, RunContext};
use crate::views::{Features, FusedTransE, Fusion, View};
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

/// Every entity's unified attribute ids, sorted and deduplicated: one CSR
/// row per entity of a KG, in entity-id order.
pub struct AttrSets {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl AttrSets {
    /// The attribute ids of entity `e`.
    pub fn row(&self, e: usize) -> &[u32] {
        &self.ids[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }

    /// Every entity's attribute ids, in entity-id order.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + Clone {
        self.offsets
            .windows(2)
            .map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }
}

/// Per-entity unified attribute id lists of `kg` under `map`.
pub fn entity_attr_sets(kg: &KnowledgeGraph, map: &[u32]) -> AttrSets {
    let mut offsets = Vec::with_capacity(kg.num_entities() + 1);
    let mut ids = Vec::with_capacity(kg.num_attr_triples());
    offsets.push(0);
    let mut row = Vec::new();
    for e in kg.entity_ids() {
        row.clear();
        row.extend(kg.attrs_of(e).iter().map(|&(a, _)| map[a.idx()]));
        row.sort_unstable();
        row.dedup();
        ids.extend_from_slice(&row);
        offsets.push(ids.len() as u32);
    }
    AttrSets { offsets, ids }
}

/// The fusion of JAPE and GCNAlign: the structure at `structure_weight`
/// and, under `cfg.use_attributes`, the AC2Vec attribute view at the rest —
/// an attribute-correlation model trained on both KGs' attribute sets (KG1's
/// first), drawing from `rng`. The view keeps the model and the sets, and
/// computes every entity's `cfg.dim`-wide feature when a checkpoint is fused.
pub(crate) fn attr_fusion<R: Rng>(
    pair: &KgPair,
    cfg: &RunConfig,
    structure_weight: f32,
    rng: &mut R,
) -> Fusion {
    let views = cfg.use_attributes.then(|| {
        let (map1, map2, num_attrs) = unify_attributes(&pair.kg1, &pair.kg2);
        let sets1 = entity_attr_sets(&pair.kg1, &map1);
        let sets2 = entity_attr_sets(&pair.kg2, &map2);
        let mut model = AttrCorrelationModel::new(num_attrs.max(2), cfg.dim, rng);
        model.train(sets1.rows().chain(sets2.rows()), 4, cfg.lr, rng);
        View {
            features: Features::Attrs {
                model,
                sets1,
                sets2,
            },
            dim: cfg.dim,
            weight: 1.0 - structure_weight,
        }
    });
    Fusion {
        structure_weight,
        views: views.into_iter().collect(),
    }
}

/// JAPE.
#[derive(Default)]
pub struct Jape;

/// Weight of the structural view in the combined embedding.
const STRUCTURE_WEIGHT: f32 = 0.85;

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
        let mut base = Unified::transe(pair, &split.train, Combination::Sharing, cfg, ctx);
        // The attribute view draws from the driver RNG after model init, as
        // the pre-engine driver did.
        let fusion = attr_fusion(pair, cfg, STRUCTURE_WEIGHT, &mut base.rng);
        let mut hooks = FusedTransE { cfg, base, fusion };
        run_driver(self.name(), &mut hooks, &ctx.for_valid(&split.valid), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_align::Metric;
    use openea_core::KgBuilder;
    use openea_math::vecops;
    use openea_runtime::rng::{SeedableRng, SmallRng};

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
        assert_eq!(sets.row(0).len(), 2); // name deduped
    }

    /// A pair with attribute-less entities on both sides, an attribute
    /// repeated on one entity, and `name` shared by both KGs.
    fn attr_pair() -> KgPair {
        let mut b1 = KgBuilder::new("a");
        b1.add_attr_triple("e1", "name", "x");
        b1.add_attr_triple("e1", "pop", "1");
        b1.add_attr_triple("e1", "pop", "2");
        b1.add_attr_triple("e2", "name", "y");
        b1.add_attr_triple("e2", "area", "3");
        b1.add_rel_triple("e1", "r", "e3");
        b1.add_rel_triple("e3", "r", "e4");
        let mut b2 = KgBuilder::new("b");
        b2.add_attr_triple("f1", "name", "x");
        b2.add_attr_triple("f1", "height", "4");
        b2.add_attr_triple("f2", "colour", "red");
        b2.add_attr_triple("f2", "name", "y");
        b2.add_attr_triple("f2", "height", "5");
        b2.add_rel_triple("f1", "s", "f3");
        KgPair::new(b1.build(), b2.build(), Vec::new())
    }

    /// The AC2Vec fusion as it was before the view computed its rows: each
    /// KG's attribute sets as `Vec`s, the model trained over their
    /// concatenated clone, every entity's feature materialised into rows, and
    /// the rows appended to the normalised structure.
    fn materialised_fusion(
        pair: &KgPair,
        cfg: &RunConfig,
        structure_weight: f32,
        rng: &mut SmallRng,
        structure: &ApproachOutput,
    ) -> (Vec<f32>, Vec<f32>) {
        let old_sets = |kg: &KnowledgeGraph, map: &[u32]| -> Vec<Vec<u32>> {
            kg.entity_ids()
                .map(|e| {
                    let mut v: Vec<u32> =
                        kg.attrs_of(e).iter().map(|&(a, _)| map[a.idx()]).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect()
        };
        let (map1, map2, num_attrs) = unify_attributes(&pair.kg1, &pair.kg2);
        let (sets1, sets2) = (old_sets(&pair.kg1, &map1), old_sets(&pair.kg2, &map2));
        let mut all_sets = sets1.clone();
        all_sets.extend(sets2.iter().cloned());
        let mut ac = AttrCorrelationModel::new(num_attrs.max(2), cfg.dim, rng);
        ac.train(all_sets.iter().map(Vec::as_slice), 4, cfg.lr, rng);
        let feature = |attrs: &[u32]| -> Vec<f32> {
            let mut acc = vec![0.0f32; cfg.dim];
            for &a in attrs {
                vecops::axpy(1.0, ac.attrs.row(a as usize), &mut acc);
            }
            if !attrs.is_empty() {
                vecops::scale(&mut acc, 1.0 / attrs.len() as f32);
            }
            vecops::normalize(&mut acc);
            acc
        };
        let concat = |emb: &[f32], sets: &[Vec<u32>]| -> Vec<f32> {
            let rows: Vec<f32> = sets.iter().flat_map(|s| feature(s)).collect();
            let (d, weight) = (structure.dim, 1.0 - structure_weight);
            let mut out = Vec::new();
            for i in 0..sets.len() {
                let mut row = emb[i * d..(i + 1) * d].to_vec();
                vecops::normalize(&mut row);
                out.extend(row.iter().map(|x| x * structure_weight));
                let view = &rows[i * cfg.dim..(i + 1) * cfg.dim];
                out.extend(view.iter().map(|x| x * weight));
            }
            out
        };
        (
            concat(&structure.emb1, &sets1),
            concat(&structure.emb2, &sets2),
        )
    }

    #[test]
    fn computed_ac2vec_view_fuses_like_materialised_rows() {
        let pair = attr_pair();
        let cfg = RunConfig {
            dim: 8,
            lr: 0.1,
            ..RunConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let mut random_rows =
            |n: usize| -> Vec<f32> { (0..n * 5).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
        let (emb1, emb2) = (
            random_rows(pair.kg1.num_entities()),
            random_rows(pair.kg2.num_entities()),
        );
        let structure = ApproachOutput::new(5, Metric::Cosine, emb1, emb2);
        let (want1, want2) = materialised_fusion(
            &pair,
            &cfg,
            0.85,
            &mut SmallRng::seed_from_u64(3),
            &structure,
        );
        let fusion = attr_fusion(&pair, &cfg, 0.85, &mut SmallRng::seed_from_u64(3));
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        // A fusion computes its view anew on every checkpoint.
        for _ in 0..2 {
            let got = fusion.apply(structure.clone());
            assert_eq!((got.dim, got.metric), (5 + cfg.dim, Metric::Cosine));
            assert_eq!(bits(&got.emb1), bits(&want1));
            assert_eq!(bits(&got.emb2), bits(&want2));
        }
        // The attribute-less entities fuse a zero view row.
        let e3 = pair.kg1.entity_by_name("e3").unwrap().idx() * (5 + cfg.dim);
        assert!(want1[e3 + 5..e3 + 5 + cfg.dim].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn requirements_mark_attributes_optional() {
        assert_eq!(Jape.requirements().attr_triples, Req::Optional);
    }
}
