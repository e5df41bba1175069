//! SEA \[57\]: semi-supervised entity alignment with awareness of degree
//! difference. Triple-based embedding with an embedding-space transformation
//! plus a cycle-consistency term (`M̄·M·e₁ ≈ e₁`) over *unlabeled* entities —
//! the mechanism through which SEA exploits non-seed data and counteracts the
//! degree-driven drift of the mapping. Cosine metric.

use crate::common::{Approach, ApproachOutput, Requirements, RunConfig, TrainError};
use crate::engine::RunContext;
use crate::mtranse::RelModelKind;
use openea_align::Metric;
use openea_core::{FoldSplit, KgPair};

/// SEA with its degree-aware cycle regularizer.
pub struct Sea {
    /// Weight of the cycle-consistency term.
    pub cycle_weight: f32,
}

impl Default for Sea {
    fn default() -> Self {
        Self { cycle_weight: 0.5 }
    }
}

impl Approach for Sea {
    fn name(&self) -> &'static str {
        "SEA"
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
            RelModelKind::TransE,
            Metric::Cosine,
            self.cycle_weight,
            false,
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
    fn sea_uses_cosine_and_cycle() {
        let s = Sea::default();
        assert!(s.cycle_weight > 0.0);
        assert_eq!(s.name(), "SEA");
        assert_eq!(s.requirements().attr_triples, Req::NotApplicable);
    }
}
