//! The GNN family's one encoder and one driver (GCNAlign, RDGCN, AliNet): a
//! two-layer graph encoder over the disjoint union of both KGs, trained
//! full-batch with a margin-based Manhattan calibration loss on the seed
//! alignment. The members differ only in how a layer aggregates neighbours —
//! a plain or highway GCN ([`GcnEncoder::new`]) or AliNet's gated
//! one-/two-hop layer — and in the node features they start from.

use crate::alinet::two_hop_edges;
use crate::common::{ApproachOutput, EpochStats, RunConfig, TrainError};
use crate::engine::{run_driver, EpochHooks, RunContext};
use crate::views::Fusion;
use openea_align::Metric;
use openea_autodiff::{Act, Graph, SparseMatrix, Tensor, Var};
use openea_core::{AlignedPair, FoldSplit, KgPair};
use openea_runtime::rng::{Rng, SmallRng};

/// Builds the union-graph edge list over `n1 + n2` nodes. `relation_aware`
/// weights each edge by the inverse frequency of its relation (rare
/// relations are more discriminative — RDGCN's relation-awareness in spirit).
pub fn union_edges(pair: &KgPair, relation_aware: bool) -> (usize, Vec<(u32, u32, f32)>) {
    let n1 = pair.kg1.num_entities();
    let n = n1 + pair.kg2.num_entities();
    let mut freq = vec![0usize; pair.kg1.num_relations() + pair.kg2.num_relations()];
    if relation_aware {
        for t in pair.kg1.rel_triples() {
            freq[t.rel.idx()] += 1;
        }
        for t in pair.kg2.rel_triples() {
            freq[pair.kg1.num_relations() + t.rel.idx()] += 1;
        }
    }
    let weight = |r: usize| {
        if relation_aware {
            1.0 / (freq[r] as f32).sqrt().max(1.0)
        } else {
            1.0
        }
    };
    let mut edges = Vec::with_capacity(pair.kg1.num_rel_triples() + pair.kg2.num_rel_triples());
    for t in pair.kg1.rel_triples() {
        edges.push((t.head.0, t.tail.0, weight(t.rel.idx())));
    }
    let r1 = pair.kg1.num_relations();
    for t in pair.kg2.rel_triples() {
        edges.push((
            n1 as u32 + t.head.0,
            n1 as u32 + t.tail.0,
            weight(r1 + t.rel.idx()),
        ));
    }
    (n, edges)
}

/// How a [`GcnEncoder`] aggregates neighbours: its adjacency ids on the tape.
enum Layers {
    /// `H₁ = tanh(Â·X·W₁)`, then the linear `H₂ = Â·H₁·W₂`; with a gate, each
    /// layer's output is blended with the input features (highway), so
    /// RDGCN's literal signal survives both propagation rounds.
    Gcn { adj: usize },
    /// AliNet: `H₁ = tanh(Â₁·X·W₁)` over one-hop and `H₂ = tanh(Â₂·X·W₂)`
    /// over two-hop neighbours, blended by a gate on `H₁`.
    AliNet { one_hop: usize, two_hop: usize },
}

/// The trainable two-layer GNN encoder.
pub struct GcnEncoder {
    graph: Graph,
    layers: Layers,
    pub x: Tensor,
    pub w1: Tensor,
    pub w2: Tensor,
    /// Gate weights (RDGCN's highway, AliNet's hop gate); `None` for a plain
    /// GCN (GCNAlign).
    pub wg: Option<Tensor>,
    n1: usize,
    n2: usize,
}

impl GcnEncoder {
    /// A plain (or, with `highway`, gated) GCN over the union graph, its node
    /// features `features` or Xavier-random, trained with the weights.
    pub fn new<R: Rng>(
        pair: &KgPair,
        features: Option<Vec<f32>>,
        dim: usize,
        relation_aware: bool,
        highway: bool,
        rng: &mut R,
    ) -> Self {
        let (n, edges) = union_edges(pair, relation_aware);
        let mut graph = Graph::new();
        let adj = graph.add_sparse(SparseMatrix::gcn_normalized_weighted(n, &edges));
        let x = match features {
            Some(f) => {
                assert_eq!(f.len(), n * dim, "feature matrix shape");
                Tensor::from_vec(n, dim, f)
            }
            None => Tensor::xavier(n, dim, rng),
        };
        Self::with_layers(pair, graph, Layers::Gcn { adj }, x, highway, rng)
    }

    /// AliNet's encoder: trainable random features and the gated multi-hop
    /// layer over the relation-aware union graph and its length-2 paths.
    pub(crate) fn alinet<R: Rng>(pair: &KgPair, dim: usize, rng: &mut R) -> Self {
        let (n, edges) = union_edges(pair, true);
        let mut graph = Graph::new();
        let one_hop = graph.add_sparse(SparseMatrix::gcn_normalized_weighted(n, &edges));
        let paths = two_hop_edges(n, &edges);
        let two_hop = graph.add_sparse(SparseMatrix::gcn_normalized_weighted(n, &paths));
        let x = Tensor::xavier(n, dim, rng);
        let layers = Layers::AliNet { one_hop, two_hop };
        Self::with_layers(pair, graph, layers, x, true, rng)
    }

    /// The weights, drawn in the order `w1, w2, wg` after the features.
    fn with_layers<R: Rng>(
        pair: &KgPair,
        graph: Graph,
        layers: Layers,
        x: Tensor,
        gated: bool,
        rng: &mut R,
    ) -> Self {
        let dim = x.cols;
        Self {
            graph,
            layers,
            x,
            w1: near_identity(dim, rng),
            w2: near_identity(dim, rng),
            wg: gated.then(|| Tensor::xavier(dim, dim, rng)),
            n1: pair.kg1.num_entities(),
            n2: pair.kg2.num_entities(),
        }
    }

    /// Resets the tape and tapes the forward pass over the current
    /// parameters: the node embeddings, and the leaves `[x, w1, w2]` and `wg`.
    /// The features are lent to the tape, not copied: until the caller takes
    /// them back with `take_value(x)`, `self.x` is empty.
    fn forward(&mut self) -> (Var, [Var; 3], Option<Var>) {
        self.graph.reset();
        let g = &mut self.graph;
        let x = g.leaf(std::mem::replace(&mut self.x, Tensor::zeros(0, 0)));
        let w1 = g.leaf_from(&self.w1);
        let w2 = g.leaf_from(&self.w2);
        let wg = self.wg.as_ref().map(|t| g.leaf_from(t));
        let h = match self.layers {
            Layers::Gcn { adj } => {
                let mut h1 = g.propagate(adj, x, w1, Act::Tanh);
                if let Some(wg) = wg {
                    h1 = blend(g, x, wg, h1);
                }
                let h2 = g.propagate(adj, h1, w2, Act::Linear);
                match wg {
                    Some(wg) => blend(g, x, wg, h2),
                    None => h2,
                }
            }
            Layers::AliNet { one_hop, two_hop } => {
                let h1 = g.propagate(one_hop, x, w1, Act::Tanh);
                let h2 = g.propagate(two_hop, x, w2, Act::Tanh);
                blend(g, h1, wg.expect("AliNet's layer is gated"), h2)
            }
        };
        (h, [x, w1, w2], wg)
    }

    /// One full-batch training step on the margin calibration loss:
    /// `mean(relu(‖h₁ − h₂‖₁ − ‖h₁ − h₂ⁿᵉᵍ‖₁ + γ))` over seeds. Returns the
    /// loss value.
    pub fn step<R: Rng>(
        &mut self,
        seeds: &[AlignedPair],
        margin: f32,
        lr: f32,
        rng: &mut R,
    ) -> f32 {
        if seeds.is_empty() {
            return 0.0;
        }
        let n1 = self.n1 as u32;
        let idx1: Vec<u32> = seeds.iter().map(|&(a, _)| a.0).collect();
        let idx2: Vec<u32> = seeds.iter().map(|&(_, b)| n1 + b.0).collect();
        // Corrupt one side at random per pair (both KGs supply negatives).
        let neg2: Vec<u32> = seeds
            .iter()
            .map(|_| {
                if rng.gen_bool(0.5) {
                    n1 + rng.gen_range(0..self.n2 as u32)
                } else {
                    rng.gen_range(0..n1.max(1))
                }
            })
            .collect();

        let (h, [x, w1, w2], wg) = self.forward();
        let g = &mut self.graph;
        let h1 = g.gather(h, idx1);
        let h2 = g.gather(h, idx2);
        let hn = g.gather(h, neg2);
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
        self.x = g.take_value(x);

        let apply = |param: &mut Tensor, grad: &Tensor| {
            for (p, gg) in param.data.iter_mut().zip(&grad.data) {
                *p -= lr * gg;
            }
        };
        apply(&mut self.x, g.grad_ref(x));
        apply(&mut self.w1, g.grad_ref(w1));
        apply(&mut self.w2, g.grad_ref(w2));
        if let (Some(wg_var), Some(wg_t)) = (wg, self.wg.as_mut()) {
            apply(wg_t, g.grad_ref(wg_var));
        }
        lv
    }

    /// The current node embeddings, split per KG, every row L2-normalized:
    /// Manhattan comparisons then measure direction, not magnitude (GNN
    /// outputs have uninformative norms).
    pub fn output(&mut self) -> ApproachOutput {
        let (h, [x, ..], _) = self.forward();
        self.x = self.graph.take_value(x);
        let h = self.graph.take_value(h);
        // A checkpoint is a pause: what follows (validation, the snapshot,
        // or the publish after the last one) should not run on top of a
        // pool of step buffers, and neither should the copies below. The
        // next step re-warms it.
        self.graph.release();
        let dim = h.cols;
        let mut emb1 = h.data[..self.n1 * dim].to_vec();
        let mut emb2 = h.data[self.n1 * dim..].to_vec();
        for row in emb1.chunks_mut(dim).chain(emb2.chunks_mut(dim)) {
            openea_math::vecops::normalize(row);
        }
        ApproachOutput::new(dim, Metric::Manhattan, emb1, emb2)
    }
}

/// The gated blend `s ⊙ a + (1 − s) ⊙ b` with `s = σ(a·W_g)` per dimension.
fn blend(g: &mut Graph, a: Var, wg: Var, b: Var) -> Var {
    let gate_in = g.matmul(a, wg);
    let gate = g.sigmoid(gate_in);
    let keep = g.mul(gate, a);
    let inv_gate = g.one_minus(gate);
    let other = g.mul(inv_gate, b);
    g.add(keep, other)
}

fn near_identity<R: Rng>(dim: usize, rng: &mut R) -> Tensor {
    let mut t = Tensor::zeros(dim, dim);
    for i in 0..dim {
        t.data[i * dim + i] = 1.0;
    }
    for v in t.data.iter_mut() {
        *v += rng.gen_range(-0.05f32..0.05);
    }
    t
}

/// Runs a member of the GNN family. `build` makes its encoder, and the
/// [`Fusion`] of every checkpoint (GCNAlign's attribute view), from the
/// driver RNG after the config is validated. Without relation triples
/// (Table 8) the encoder has no graph to learn from, so the run is its
/// untrained checkpoint.
pub(crate) fn run_gnn(
    label: &str,
    split: &FoldSplit,
    cfg: &RunConfig,
    ctx: &RunContext<'_>,
    build: impl FnOnce(&mut SmallRng) -> (GcnEncoder, Fusion),
) -> Result<ApproachOutput, TrainError> {
    cfg.validate()?;
    let mut rng = ctx.driver_rng();
    let (model, fusion) = build(&mut rng);
    let mut hooks = GnnHooks {
        cfg,
        seeds: &split.train,
        model,
        rng,
        fusion,
    };
    if !cfg.use_relations {
        return Ok(hooks.checkpoint(ctx));
    }
    run_driver(label, &mut hooks, &ctx.for_valid(&split.valid), cfg)
}

/// Engine hooks of the GNN family. GNN training is full-batch: each epoch
/// tick runs several steps at a higher learning rate than the sparse SGD
/// approaches.
struct GnnHooks<'a> {
    cfg: &'a RunConfig,
    seeds: &'a [AlignedPair],
    model: GcnEncoder,
    rng: SmallRng,
    fusion: Fusion,
}

impl EpochHooks for GnnHooks<'_> {
    fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        let mut loss = 0.0f64;
        for _ in 0..8 {
            loss += self.model.step(
                self.seeds,
                self.cfg.margin,
                self.cfg.lr * 5.0,
                &mut self.rng,
            ) as f64;
        }
        EpochStats {
            mean_loss: (loss / 8.0) as f32,
            pairs: self.seeds.len() * 8,
        }
    }

    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        self.fusion.apply(self.model.output())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_core::KgBuilder;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    fn pair() -> KgPair {
        let mut b1 = KgBuilder::new("a");
        b1.add_rel_triple("x1", "r", "y1");
        b1.add_rel_triple("y1", "r", "z1");
        b1.add_rel_triple("x1", "q", "z1");
        let mut b2 = KgBuilder::new("b");
        b2.add_rel_triple("x2", "s", "y2");
        b2.add_rel_triple("y2", "s", "z2");
        b2.add_rel_triple("x2", "p", "z2");
        let kg1 = b1.build();
        let kg2 = b2.build();
        let al = ["x", "y", "z"]
            .iter()
            .map(|n| {
                (
                    kg1.entity_by_name(&format!("{n}1")).unwrap(),
                    kg2.entity_by_name(&format!("{n}2")).unwrap(),
                )
            })
            .collect();
        KgPair::new(kg1, kg2, al)
    }

    #[test]
    fn union_edges_offsets_kg2() {
        let p = pair();
        let (n, edges) = union_edges(&p, false);
        assert_eq!(n, 6);
        assert!(edges.iter().any(|&(a, _, _)| a >= 3), "kg2 edges offset");
        assert_eq!(edges.len(), 6);
    }

    #[test]
    fn relation_aware_weights_differ() {
        let p = pair();
        let (_, flat) = union_edges(&p, false);
        let (_, weighted) = union_edges(&p, true);
        assert!(flat.iter().all(|&(_, _, w)| w == 1.0));
        // The rare relations ("q"/"p", freq 1) weigh more than "r"/"s".
        let wmax = weighted.iter().map(|&(_, _, w)| w).fold(0.0f32, f32::max);
        let wmin = weighted.iter().map(|&(_, _, w)| w).fold(f32::MAX, f32::min);
        assert!(wmax > wmin);
    }

    /// A pair of 5-node path graphs (asymmetric enough that the GCN cannot
    /// collapse them by graph automorphism, unlike a triangle).
    fn path_pair() -> KgPair {
        let mut b1 = KgBuilder::new("a");
        let mut b2 = KgBuilder::new("b");
        for i in 0..4 {
            b1.add_rel_triple(&format!("e{i}1"), "r", &format!("e{}1", i + 1));
            b2.add_rel_triple(&format!("e{i}2"), "s", &format!("e{}2", i + 1));
        }
        b1.add_rel_triple("e01", "q", "e21");
        b2.add_rel_triple("e02", "p", "e22");
        let kg1 = b1.build();
        let kg2 = b2.build();
        let al = (0..5)
            .map(|i| {
                (
                    kg1.entity_by_name(&format!("e{i}1")).unwrap(),
                    kg2.entity_by_name(&format!("e{i}2")).unwrap(),
                )
            })
            .collect();
        KgPair::new(kg1, kg2, al)
    }

    #[test]
    fn gcn_training_reduces_loss_and_aligns_seeds() {
        let p = path_pair();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut enc = GcnEncoder::new(&p, None, 8, false, false, &mut rng);
        let seeds: Vec<_> = p.alignment[..3].to_vec();
        let first = enc.step(&seeds, 1.0, 0.0, &mut rng); // lr 0: measure only
        let mut last = first;
        for _ in 0..60 {
            last = enc.step(&seeds, 1.0, 0.05, &mut rng);
        }
        assert!(last <= first, "loss should not increase: {first} -> {last}");
        let out = enc.output();
        // A trained seed pair ends up closer (Manhattan) than a cross pair
        // with the far end of the other path.
        let d_pos =
            openea_math::vecops::manhattan(out.vec1(p.alignment[0].0), out.vec2(p.alignment[0].1));
        let d_neg =
            openea_math::vecops::manhattan(out.vec1(p.alignment[0].0), out.vec2(p.alignment[4].1));
        assert!(d_pos < d_neg, "{d_pos} vs {d_neg}");
    }

    #[test]
    fn highway_gate_is_trainable() {
        let p = pair();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut enc = GcnEncoder::new(&p, None, 8, true, true, &mut rng);
        let before = enc.wg.as_ref().unwrap().data.clone();
        for _ in 0..5 {
            enc.step(&p.alignment, 1.0, 0.1, &mut rng);
        }
        assert_ne!(&before, &enc.wg.as_ref().unwrap().data);
    }
}
