//! GCNAlign \[81\]: neighborhood-based embedding with graph convolutional
//! networks over the union graph of both KGs, learnable input features, a
//! margin-based Manhattan calibration loss on the seeds, and an auxiliary
//! attribute-correlation view combined at inference. Supervised.

use crate::common::{Approach, ApproachOutput, Req, Requirements, RunConfig, TrainError};
use crate::engine::RunContext;
use crate::gcn::{run_gnn, Finish, GcnEncoder};
use crate::jape::{attr_features, with_attr_view};
use openea_core::{FoldSplit, KgPair};

/// GCNAlign.
pub struct GcnAlign {
    /// Weight of the structural GCN view (vs. the attribute view).
    pub structure_weight: f32,
}

impl Default for GcnAlign {
    fn default() -> Self {
        Self {
            structure_weight: 0.9,
        }
    }
}

impl Approach for GcnAlign {
    fn name(&self) -> &'static str {
        "GCNAlign"
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
        let structure_weight = self.structure_weight;
        run_gnn(self.name(), split, cfg, ctx, |rng| {
            let enc = GcnEncoder::new(pair, None, cfg.dim, false, false, true, rng);
            // Attribute view: JAPE's AC2Vec, drawn after the encoder.
            let attr = cfg.use_attributes.then(|| attr_features(pair, cfg, rng));
            let finish: Finish =
                Box::new(move |out| with_attr_view(out, attr.as_ref(), cfg.dim, structure_weight));
            (enc, Some(finish))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requirements_match_table9() {
        let g = GcnAlign::default();
        let r = g.requirements();
        assert_eq!(r.rel_triples, Req::Mandatory);
        assert_eq!(r.attr_triples, Req::Optional);
        assert_eq!(r.word_embeddings, Req::NotApplicable);
    }
}
