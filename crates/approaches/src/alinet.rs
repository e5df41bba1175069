//! AliNet \[74\] — the contemporaneous approach the paper promises to add in
//! a "future release of OpenEA" (Sect. 5.1): entity alignment with **gated
//! multi-hop neighborhood aggregation**. One-hop and two-hop neighborhood
//! representations are aggregated separately and blended by a learned gate,
//! which makes the encoder robust to the neighborhood heterogeneity between
//! two KGs (counterpart entities rarely have identical one-hop contexts).

use crate::common::{Approach, ApproachOutput, Requirements, RunConfig, TrainError};
use crate::engine::RunContext;
use crate::gcn::{run_gnn, GcnEncoder};
use crate::views::Fusion;
use openea_core::{FoldSplit, KgPair};

/// AliNet: the GNN family's encoder ([`GcnEncoder`]) with AliNet's layer
/// recipe; this module adds the two-hop graph it reads.
#[derive(Default)]
pub struct AliNet;

/// Length-2 paths within each KG, capped per node to keep the matrix sparse.
pub(crate) fn two_hop_edges(n: usize, edges: &[(u32, u32, f32)]) -> Vec<(u32, u32, f32)> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b, _) in edges {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    let cap = 16;
    let mut out = Vec::new();
    for (u, neigh) in adj.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        'outer: for &m in neigh {
            for &v in &adj[m as usize] {
                if v as usize != u && seen.insert(v) {
                    out.push((u as u32, v, 0.5));
                    if seen.len() >= cap {
                        break 'outer;
                    }
                }
            }
        }
    }
    out
}

impl Approach for AliNet {
    fn name(&self) -> &'static str {
        "AliNet"
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
        run_gnn(self.name(), split, cfg, ctx, |rng| {
            (GcnEncoder::alinet(pair, cfg.dim, rng), Fusion::default())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_core::k_fold_splits;
    use openea_runtime::rng::{SeedableRng, SmallRng};

    #[test]
    fn two_hop_edges_skip_self_and_cap() {
        // Star: 0 is the hub of 1..=20.
        let edges: Vec<(u32, u32, f32)> = (1..=20).map(|i| (0u32, i, 1.0)).collect();
        let two = two_hop_edges(21, &edges);
        // Spokes reach each other through the hub; self-paths excluded.
        assert!(two.iter().all(|&(a, b, _)| a != b));
        let from_1: Vec<_> = two.iter().filter(|&&(a, _, _)| a == 1).collect();
        assert!(!from_1.is_empty());
        assert!(from_1.len() <= 16, "cap respected: {}", from_1.len());
    }

    #[test]
    fn alinet_beats_random_on_small_pair() {
        let pair =
            openea_synth::PresetConfig::new(openea_synth::DatasetFamily::EnFr, 250, false, 91)
                .generate();
        let mut rng = SmallRng::seed_from_u64(0);
        let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
        let cfg = RunConfig {
            dim: 16,
            max_epochs: 40,
            threads: 2,
            ..RunConfig::default()
        };
        let out = AliNet.run(&pair, &folds[0], &cfg);
        let eval = crate::common::evaluate_output(&out, &folds[0].test, 2);
        let random = 1.0 / folds[0].test.len() as f64;
        assert!(
            eval.hits1 > 4.0 * random,
            "hits1 {} vs random {}",
            eval.hits1,
            random
        );
    }
}
