//! AttrE \[77\]: attribute-embedding-driven alignment. Relation triples are
//! embedded with TransE; literal values are encoded by a *character-level*
//! compositional encoder shared by both KGs, and each entity is pulled
//! toward its literal profile. Because the character encoder is the same for
//! both KGs, the attribute triples unify the two embedding spaces — but only
//! when the KGs share a surface language (the paper notes the character
//! encoder "may fail in cross-lingual settings", which this reproduces).
//! Cosine metric, sharing combination.

use crate::common::{
    Approach, ApproachOutput, Combination, EpochStats, Req, Requirements, RunConfig, TrainError,
    Unified,
};
use crate::engine::{run_driver, EpochHooks, RunContext, WarmStart};
use crate::views::literal_sum;
use openea_align::Metric;
use openea_core::{AlignedPair, FoldSplit, KgPair};
use openea_models::literal::char_ngram_vector;

/// AttrE.
#[derive(Default)]
pub struct AttrE;

/// Strength of the pull toward the literal profile.
const ATTR_WEIGHT: f32 = 0.5;

impl Approach for AttrE {
    fn name(&self) -> &'static str {
        "AttrE"
    }

    fn requirements(&self) -> Requirements {
        use Req::*;
        Requirements::of(Optional, Optional, Mandatory, Optional, NotApplicable)
    }

    fn try_run(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &RunConfig,
        ctx: &RunContext<'_>,
    ) -> Result<ApproachOutput, TrainError> {
        let mut hooks = self.hooks(pair, split, cfg, ctx);
        run_driver(self.name(), &mut hooks, &ctx.for_valid(&split.valid), cfg)
    }
}

impl AttrE {
    /// The engine hooks of a run on `split`, before its first epoch.
    pub(crate) fn hooks<'a>(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &'a RunConfig,
        ctx: &RunContext<'_>,
    ) -> Hooks<'a> {
        let base = Unified::transe(pair, &split.train, Combination::Sharing, cfg, ctx);

        // Fixed character-level literal profiles — the normalized sum of
        // character-n-gram vectors of each entity's attribute values — of
        // every entity that has literals, by unified id.
        let dim = cfg.dim;
        let profiles = cfg.use_attributes.then(|| {
            let profile = |kg| literal_sum(kg, dim, |s| char_ngram_vector(s, dim));
            let (p1, p2) = (profile(&pair.kg1), profile(&pair.kg2));
            let uids1 = pair.kg1.entity_ids().map(|e| base.space.uid1(e));
            let uids2 = pair.kg2.entity_ids().map(|e| base.space.uid2(e));
            uids1
                .zip(p1.chunks(dim))
                .chain(uids2.zip(p2.chunks(dim)))
                .filter(|(_, row)| row.iter().any(|&x| x != 0.0))
                .map(|(uid, row)| (uid, row.to_vec()))
                .collect()
        });

        Hooks {
            cfg,
            base,
            profiles,
        }
    }
}

/// AttrE ranks by cosine.
const METRIC: Metric = Metric::Cosine;

pub(crate) struct Hooks<'a> {
    cfg: &'a RunConfig,
    base: Unified,
    profiles: Option<Vec<(u32, Vec<f32>)>>,
}

impl EpochHooks for Hooks<'_> {
    fn warm_start(&mut self, warm: &WarmStart<'_>, ctx: &RunContext<'_>) -> bool {
        self.base.warm_start(warm, ctx)
    }

    fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        self.base.train_epoch(self.cfg)
    }

    fn after_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) {
        if let Some(profiles) = &self.profiles {
            // Pull each entity toward its (fixed) literal profile: the
            // cross-KG unification signal of AttrE.
            let lr = self.cfg.lr * ATTR_WEIGHT;
            for (uid, profile) in profiles {
                let row = self.base.unit.model.entities.row_mut(*uid as usize);
                for i in 0..self.cfg.dim {
                    row[i] -= 2.0 * lr * (row[i] - profile[i]);
                }
            }
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
    use openea_core::{EntityId, KgBuilder};
    use openea_math::vecops;

    #[test]
    fn char_profiles_match_shared_literals() {
        let mut b1 = KgBuilder::new("a");
        b1.add_attr_triple("x", "name", "mount everest");
        b1.add_attr_triple("y", "name", "totally different");
        let kg1 = b1.build();
        let mut b2 = KgBuilder::new("b");
        b2.add_attr_triple("u", "label", "mount everest");
        let kg2 = b2.build();
        let dim = 32;
        let p1 = literal_sum(&kg1, dim, |s| char_ngram_vector(s, dim));
        let p2 = literal_sum(&kg2, dim, |s| char_ngram_vector(s, dim));
        let x = kg1.entity_by_name("x").unwrap();
        let y = kg1.entity_by_name("y").unwrap();
        let u = kg2.entity_by_name("u").unwrap();
        let row = |p: &[f32], e: EntityId| p[e.idx() * dim..(e.idx() + 1) * dim].to_vec();
        let sim_xu = vecops::cosine(&row(&p1, x), &row(&p2, u));
        let sim_yu = vecops::cosine(&row(&p1, y), &row(&p2, u));
        assert!(sim_xu > 0.99);
        assert!(sim_yu < sim_xu);
    }

    #[test]
    fn entities_without_literals_have_zero_profile() {
        let mut b = KgBuilder::new("a");
        b.add_rel_triple("x", "r", "y");
        let kg = b.build();
        let p = literal_sum(&kg, 8, |s| char_ngram_vector(s, 8));
        assert!(p.iter().all(|&v| v == 0.0));
    }
}
