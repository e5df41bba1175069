//! GCNAlign \[81\]: neighborhood-based embedding with graph convolutional
//! networks over the union graph of both KGs, learnable input features, a
//! margin-based Manhattan calibration loss on the seeds, and an auxiliary
//! attribute-correlation view combined at inference. Supervised.

use crate::common::{Approach, ApproachOutput, Req, Requirements, RunConfig, TrainError};
use crate::engine::RunContext;
use crate::gcn::{run_gnn, GcnEncoder};
use crate::jape::attr_fusion;
use openea_core::{FoldSplit, KgPair};

/// GCNAlign.
#[derive(Default)]
pub struct GcnAlign;

/// Weight of the structural GCN view (vs. the attribute view).
const STRUCTURE_WEIGHT: f32 = 0.9;

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
        run_gnn(self.name(), split, cfg, ctx, |rng| {
            let enc = GcnEncoder::new(pair, None, cfg.dim, false, false, rng);
            // Attribute view: JAPE's AC2Vec, drawn after the encoder.
            (enc, attr_fusion(pair, cfg, STRUCTURE_WEIGHT, rng))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requirements_match_table9() {
        let r = GcnAlign.requirements();
        assert_eq!(r.rel_triples, Req::Mandatory);
        assert_eq!(r.attr_triples, Req::Optional);
        assert_eq!(r.word_embeddings, Req::NotApplicable);
    }
}
