//! MTransE \[10\]: triple-based embedding (TransE) per KG plus an embedding-
//! space transformation learned from the seed alignment. Euclidean metric,
//! supervised. The first embedding-based entity-alignment approach.
//!
//! [`RelModelKind`] swaps its TransE for any other relation model (TransH/R/D,
//! DistMult, HolE, SimplE, RotatE, ProjE, ConvE): the Figure-11 study. The
//! training is the transformation-mode driver it shares with SEA.

use crate::common::{Approach, ApproachOutput, Requirements, RunConfig, TrainError};
use crate::engine::RunContext;
use openea_align::Metric;
use openea_core::{FoldSplit, KgPair};
use openea_models::{
    ConvE, DistMult, HolE, ProjE, RelationModel, RotatE, SimplE, TransD, TransE, TransH, TransR,
};
use openea_runtime::rng::{SeedableRng, SmallRng};

/// Which relation model embeds each KG of a transformation-mode run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelModelKind {
    TransE,
    TransH,
    TransR,
    TransD,
    DistMult,
    HolE,
    SimplE,
    RotatE,
    ProjE,
    ConvE,
}

impl RelModelKind {
    /// The models evaluated in Figure 11 (plus the TransE baseline).
    pub const FIGURE11: [RelModelKind; 9] = [
        RelModelKind::TransE,
        RelModelKind::TransH,
        RelModelKind::TransR,
        RelModelKind::TransD,
        RelModelKind::HolE,
        RelModelKind::SimplE,
        RelModelKind::RotatE,
        RelModelKind::ProjE,
        RelModelKind::ConvE,
    ];

    pub fn label(self) -> &'static str {
        match self {
            RelModelKind::TransE => "TransE",
            RelModelKind::TransH => "TransH",
            RelModelKind::TransR => "TransR",
            RelModelKind::TransD => "TransD",
            RelModelKind::DistMult => "DistMult",
            RelModelKind::HolE => "HolE",
            RelModelKind::SimplE => "SimplE",
            RelModelKind::RotatE => "RotatE",
            RelModelKind::ProjE => "ProjE",
            RelModelKind::ConvE => "ConvE",
        }
    }

    /// This model over `n` entities and `r` relations at `dim`, initialised
    /// from `SmallRng::seed_from_u64(seed)`. SimplE embeds at `dim / 2` per
    /// half; the translational and deep models train at margin 1.0, RotatE
    /// at 2.0.
    pub fn build(self, n: usize, r: usize, dim: usize, seed: u64) -> Box<dyn RelationModel> {
        let rng = &mut SmallRng::seed_from_u64(seed);
        match self {
            RelModelKind::TransE => Box::new(TransE::new(n, r, dim, 1.0, rng)),
            RelModelKind::TransH => Box::new(TransH::new(n, r, dim, 1.0, rng)),
            RelModelKind::TransR => Box::new(TransR::new(n, r, dim, 1.0, rng)),
            RelModelKind::TransD => Box::new(TransD::new(n, r, dim, 1.0, rng)),
            RelModelKind::DistMult => Box::new(DistMult::new(n, r, dim, rng)),
            RelModelKind::HolE => Box::new(HolE::new(n, r, dim, rng)),
            RelModelKind::SimplE => Box::new(SimplE::new(n, r, dim / 2, rng)),
            RelModelKind::RotatE => Box::new(RotatE::new(n, r, dim, 2.0, rng)),
            RelModelKind::ProjE => Box::new(ProjE::new(n, r, dim, 1.0, rng)),
            RelModelKind::ConvE => Box::new(ConvE::new(n, r, dim, 1.0, rng)),
        }
    }
}

/// MTransE, parameterized by the relation model (TransE in the paper;
/// other kinds reproduce Figure 11).
pub struct MTransE {
    pub model: RelModelKind,
    /// Constrain the transformation to a rotation (MTransE's orthogonality
    /// variant, realized via orthogonal Procrustes projection).
    pub orthogonal: bool,
}

impl Default for MTransE {
    fn default() -> Self {
        Self {
            model: RelModelKind::TransE,
            orthogonal: false,
        }
    }
}

impl Approach for MTransE {
    fn name(&self) -> &'static str {
        "MTransE"
    }

    fn requirements(&self) -> Requirements {
        Requirements::RELATION_BASED
    }

    fn try_run(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &RunConfig,
        ctx: &RunContext<'_>,
    ) -> Result<ApproachOutput, TrainError> {
        crate::transformation::run(
            self.name(),
            self.model,
            Metric::Euclidean,
            0.0,
            self.orthogonal,
            pair,
            split,
            cfg,
            ctx,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Req;

    #[test]
    fn figure11_list_contains_nine_models() {
        assert_eq!(RelModelKind::FIGURE11.len(), 9);
        let labels: std::collections::HashSet<_> =
            RelModelKind::FIGURE11.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn builds_models_of_right_shape() {
        for kind in RelModelKind::FIGURE11 {
            let m = kind.build(10, 3, 16, 1);
            assert_eq!(m.num_entities(), 10, "{}", kind.label());
            // Entity dim may exceed the nominal dim (SimplE halves then
            // doubles; RotatE interleaves), but must be nonzero.
            assert!(m.dim() >= 8, "{}", kind.label());
        }
    }

    #[test]
    fn requirements_match_table9() {
        let m = MTransE::default();
        let r = m.requirements();
        assert_eq!(r.rel_triples, Req::Mandatory);
        assert_eq!(r.attr_triples, Req::NotApplicable);
        assert_eq!(r.pre_aligned_entities, Req::Mandatory);
    }
}
