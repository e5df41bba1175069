//! RDGCN \[83\]: relation-aware dual-graph convolutional network. Each
//! entity's literals, encoded with pre-trained word vectors and summed to a
//! unit row, initialize the node features — the signal that makes RDGCN the
//! strongest approach in the paper — and a gated (highway) GCN over a
//! relation-rarity-weighted union graph refines them structurally. Margin
//! calibration loss, Manhattan metric, supervised.

use crate::common::{Approach, ApproachOutput, Req, Requirements, RunConfig, TrainError};
use crate::engine::RunContext;
use crate::gcn::{run_gnn, GcnEncoder};
use crate::views::{literal_sum, Fusion};
use openea_core::{FoldSplit, KgPair, KnowledgeGraph};

/// RDGCN.
#[derive(Default)]
pub struct Rdgcn {
    /// Whether node features stay frozen (the literal signal) or fine-tune.
    pub freeze_features: bool,
}

impl Approach for Rdgcn {
    fn name(&self) -> &'static str {
        "RDGCN"
    }

    fn requirements(&self) -> Requirements {
        use Req::*;
        Requirements::of(Mandatory, Optional, Mandatory, Optional, Mandatory)
    }

    fn try_run(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &RunConfig,
        ctx: &RunContext<'_>,
    ) -> Result<ApproachOutput, TrainError> {
        run_gnn(self.name(), split, cfg, ctx, |rng| {
            // Literal features are RDGCN's key input; the Figure-6 ablation
            // (without attribute/literal information) falls back to random
            // trainable features.
            let features = cfg.use_attributes.then(|| {
                let enc = cfg.literal_encoder();
                // Full literal profiles are stabler than the single name
                // literal under value noise (the name heuristic can pick
                // different literals on the two sides); they carry the same
                // signal.
                let profiles = |kg: &KnowledgeGraph| literal_sum(kg, enc.dim(), |s| enc.encode(s));
                let mut f = profiles(&pair.kg1);
                f.extend(profiles(&pair.kg2));
                // Truncate or zero-pad the encoder's rows to cfg.dim (they
                // match by default).
                if enc.dim() == cfg.dim {
                    return f;
                }
                f.chunks(enc.dim())
                    .flat_map(|row| {
                        row.iter()
                            .copied()
                            .chain(std::iter::repeat(0.0))
                            .take(cfg.dim)
                    })
                    .collect()
            });
            let trainable = features.is_none() || !self.freeze_features;
            // The highway gate exists to preserve the literal signal; with
            // random features (attribute ablation) fall back to a plain GCN
            // so the relation module can still learn, as in the paper's
            // Table 8.
            let highway = features.is_some();
            let enc = GcnEncoder::new(pair, features, cfg.dim, true, highway, trainable, rng);
            (enc, Fusion::default())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requirements_mark_word_embeddings_mandatory() {
        assert_eq!(
            Rdgcn::default().requirements().word_embeddings,
            Req::Mandatory
        );
    }
}
