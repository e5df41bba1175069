//! AliNet \[74\] — the contemporaneous approach the paper promises to add in
//! a "future release of OpenEA" (Sect. 5.1): entity alignment with **gated
//! multi-hop neighborhood aggregation**. One-hop and two-hop neighborhood
//! representations are aggregated separately and blended by a learned gate,
//! which makes the encoder robust to the neighborhood heterogeneity between
//! two KGs (counterpart entities rarely have identical one-hop contexts).

use crate::common::{Approach, ApproachOutput, Requirements, RunConfig, TrainError};
use crate::engine::{run_driver, RunContext};
use crate::gcn::{near_identity, split_normalized, union_edges, GnnHooks, GnnModel};
use openea_autodiff::{Graph, SparseMatrix, Tensor};
use openea_core::{AlignedPair, FoldSplit, KgPair};
use openea_runtime::rng::Rng;
use openea_runtime::rng::SmallRng;

/// AliNet.
pub struct AliNet;

impl Default for AliNet {
    fn default() -> Self {
        Self
    }
}

struct AliNetParams {
    graph: Graph,
    adj1: usize,
    adj2: usize,
    x: Tensor,
    w1: Tensor,
    w2: Tensor,
    wg: Tensor,
    n1: usize,
    n2: usize,
}

impl AliNetParams {
    fn new<R: Rng>(pair: &KgPair, dim: usize, rng: &mut R) -> Self {
        let (n, edges) = union_edges(pair, true);
        // Two-hop adjacency: neighbours-of-neighbours (paths of length 2).
        let two_hop = two_hop_edges(n, &edges);
        let mut graph = Graph::new();
        let adj1 = graph.add_sparse(SparseMatrix::gcn_normalized_weighted(n, &edges));
        let adj2 = graph.add_sparse(SparseMatrix::gcn_normalized_weighted(n, &two_hop));
        Self {
            graph,
            adj1,
            adj2,
            x: Tensor::xavier(n, dim, rng),
            w1: near_identity(dim, rng),
            w2: near_identity(dim, rng),
            wg: Tensor::xavier(dim, dim, rng),
            n1: pair.kg1.num_entities(),
            n2: pair.kg2.num_entities(),
        }
    }

    /// Forward: `H = g ⊙ H₁ + (1 − g) ⊙ H₂` where H₁ aggregates one-hop,
    /// H₂ two-hop, and the gate `g = σ(H₁·W_g)` decides per dimension.
    fn forward(
        g: &mut Graph,
        adj1: usize,
        adj2: usize,
        x: openea_autodiff::Var,
        w1: openea_autodiff::Var,
        w2: openea_autodiff::Var,
        wg: openea_autodiff::Var,
    ) -> openea_autodiff::Var {
        let xw1 = g.matmul(x, w1);
        let h1p = g.spmm(adj1, xw1);
        let h1 = g.tanh(h1p);
        let xw2 = g.matmul(x, w2);
        let h2p = g.spmm(adj2, xw2);
        let h2 = g.tanh(h2p);
        let gate_in = g.matmul(h1, wg);
        let gate = g.sigmoid(gate_in);
        let keep = g.mul(gate, h1);
        let inv = g.one_minus(gate);
        let far = g.mul(inv, h2);
        g.add(keep, far)
    }

    fn step<R: Rng>(&mut self, seeds: &[AlignedPair], margin: f32, lr: f32, rng: &mut R) -> f32 {
        if seeds.is_empty() {
            return 0.0;
        }
        let n1 = self.n1 as u32;
        let idx1: Vec<u32> = seeds.iter().map(|&(a, _)| a.0).collect();
        let idx2: Vec<u32> = seeds.iter().map(|&(_, b)| n1 + b.0).collect();
        let neg: Vec<u32> = seeds
            .iter()
            .map(|_| {
                if rng.gen_bool(0.5) {
                    n1 + rng.gen_range(0..self.n2 as u32)
                } else {
                    rng.gen_range(0..n1.max(1))
                }
            })
            .collect();

        self.graph.reset();
        let g = &mut self.graph;
        let x = g.leaf_from(&self.x);
        let w1 = g.leaf_from(&self.w1);
        let w2 = g.leaf_from(&self.w2);
        let wg = g.leaf_from(&self.wg);
        let h = Self::forward(g, self.adj1, self.adj2, x, w1, w2, wg);

        let h1 = g.gather(h, idx1);
        let h2 = g.gather(h, idx2);
        let hn = g.gather(h, neg);
        let pd = {
            let d = g.sub(h1, h2);
            let a = g.abs(d);
            g.sum_rows(a)
        };
        let nd = {
            let d = g.sub(h1, hn);
            let a = g.abs(d);
            g.sum_rows(a)
        };
        let diff = g.sub(pd, nd);
        let m = g.leaf_slice(1, 1, &[margin]);
        let arg = g.add_row(diff, m);
        let hinge = g.relu(arg);
        let loss = g.mean(hinge);
        let lv = g.value(loss).item();
        g.backward(loss);
        for (param, var) in [
            (&mut self.x, x),
            (&mut self.w1, w1),
            (&mut self.w2, w2),
            (&mut self.wg, wg),
        ] {
            for (p, gg) in param.data.iter_mut().zip(&g.grad_ref(var).data) {
                *p -= lr * gg;
            }
        }
        lv
    }

    fn output(&mut self, _cfg: &RunConfig) -> ApproachOutput {
        self.graph.reset();
        let g = &mut self.graph;
        let x = g.leaf_from(&self.x);
        let w1 = g.leaf_from(&self.w1);
        let w2 = g.leaf_from(&self.w2);
        let wg = g.leaf_from(&self.wg);
        let h = Self::forward(g, self.adj1, self.adj2, x, w1, w2, wg);
        let out = split_normalized(g.value(h), self.n1);
        // As in `GcnEncoder::output`: a checkpoint is a pause.
        g.release();
        out
    }
}

impl GnnModel for AliNetParams {
    fn step(&mut self, seeds: &[AlignedPair], margin: f32, lr: f32, rng: &mut SmallRng) -> f32 {
        AliNetParams::step(self, seeds, margin, lr, rng)
    }

    fn output(&mut self, cfg: &RunConfig) -> ApproachOutput {
        AliNetParams::output(self, cfg)
    }
}

/// Length-2 paths within each KG, capped per node to keep the matrix sparse.
fn two_hop_edges(n: usize, edges: &[(u32, u32, f32)]) -> Vec<(u32, u32, f32)> {
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
        cfg.validate()?;
        let mut rng = ctx.driver_rng();
        let mut params = AliNetParams::new(pair, cfg.dim, &mut rng);
        if !cfg.use_relations {
            return Ok(params.output(cfg));
        }
        let mut hooks = GnnHooks {
            cfg,
            seeds: &split.train,
            model: params,
            rng,
            finish: None,
        };
        run_driver(self.name(), &mut hooks, &ctx.for_valid(&split.valid), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_core::k_fold_splits;
    use openea_runtime::rng::SeedableRng;

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
