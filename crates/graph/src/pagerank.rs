//! PageRank over the relation graph of a KG.
//!
//! The IDS sampler (paper Algorithm 1, line 8) deletes entities with
//! probability inversely related to their PageRank, so that structurally
//! important entities survive sampling. We run standard power iteration over
//! the directed relation graph, with dangling mass redistributed uniformly.

use openea_core::{EntityId, KnowledgeGraph};

/// Damping factor.
const DAMPING: f64 = 0.85;

/// Maximum number of power iterations.
const MAX_ITERS: usize = 50;

/// L1 convergence tolerance.
const TOL: f64 = 1e-9;

/// Computes PageRank scores for every entity. Scores sum to 1 (for a
/// non-empty graph).
pub fn pagerank(kg: &KnowledgeGraph) -> Vec<f64> {
    let n = kg.num_entities();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];
    let out_deg: Vec<usize> = (0..n)
        .map(|i| kg.out_edges(EntityId::from_idx(i)).len())
        .collect();

    for _ in 0..MAX_ITERS {
        // Mass from dangling nodes (no outgoing edges) spreads uniformly.
        let dangling: f64 = (0..n).filter(|&i| out_deg[i] == 0).map(|i| rank[i]).sum();
        let base = (1.0 - DAMPING) * uniform + DAMPING * dangling * uniform;
        next.iter_mut().for_each(|x| *x = base);
        for i in 0..n {
            if out_deg[i] == 0 {
                continue;
            }
            let share = DAMPING * rank[i] / out_deg[i] as f64;
            for &(_, t) in kg.out_edges(EntityId::from_idx(i)) {
                next[t.idx()] += share;
            }
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < TOL {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_core::KgBuilder;
    use openea_runtime::testkit::prelude::*;

    fn star(n: usize) -> KnowledgeGraph {
        // spokes -> hub
        let mut b = KgBuilder::new("star");
        for i in 0..n {
            b.add_rel_triple(&format!("spoke{i}"), "r", "hub");
        }
        b.build()
    }

    #[test]
    fn scores_sum_to_one() {
        let kg = star(10);
        let pr = pagerank(&kg);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
    }

    #[test]
    fn hub_outranks_spokes() {
        let kg = star(10);
        let pr = pagerank(&kg);
        let hub = kg.entity_by_name("hub").unwrap();
        for i in 0..10 {
            let spoke = kg.entity_by_name(&format!("spoke{i}")).unwrap();
            assert!(pr[hub.idx()] > pr[spoke.idx()]);
        }
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let mut b = KgBuilder::new("cycle");
        for i in 0..6 {
            b.add_rel_triple(&format!("e{i}"), "r", &format!("e{}", (i + 1) % 6));
        }
        let kg = b.build();
        let pr = pagerank(&kg);
        for &score in &pr {
            assert!((score - 1.0 / 6.0).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_graph_yields_empty_scores() {
        let kg = KgBuilder::new("empty").build();
        assert!(pagerank(&kg).is_empty());
    }

    #[test]
    fn dangling_nodes_do_not_lose_mass() {
        // a -> b, b has no out-edges.
        let mut b = KgBuilder::new("dangle");
        b.add_rel_triple("a", "r", "b");
        let kg = b.build();
        let pr = pagerank(&kg);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // b receives from a, so b should outrank a.
        let a = kg.entity_by_name("a").unwrap();
        let bb = kg.entity_by_name("b").unwrap();
        assert!(pr[bb.idx()] > pr[a.idx()]);
    }

    props! {
        #[test]
        fn random_graphs_conserve_mass(edges in vec_of((0u32..30, 0u32..30), 1..120)) {
            let mut b = KgBuilder::new("rand");
            for (h, t) in &edges {
                b.add_rel_triple(&format!("e{h}"), "r", &format!("e{t}"));
            }
            let kg = b.build();
            let pr = pagerank(&kg);
            let total: f64 = pr.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-6);
            prop_assert!(pr.iter().all(|&x| x > 0.0));
        }
    }
}
