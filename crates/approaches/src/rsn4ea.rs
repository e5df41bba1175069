//! RSN4EA \[24\]: recurrent skipping networks for entity alignment. Random
//! walks over the unified (parameter-shared) KG produce entity–relation
//! sequences; a recurrent network predicts each next entity, with a *skip
//! connection from the subject entity* (the "skipping" mechanism that lets
//! the output depend directly on the head of the current hop rather than
//! only on the blended hidden state). Cosine metric, supervised sharing.

use crate::common::{
    Approach, ApproachOutput, Combination, EpochStats, Req, Requirements, RunConfig, TrainError,
    UnifiedSpace,
};
use crate::engine::{run_driver, EpochHooks, RunContext};
use openea_align::Metric;
use openea_autodiff::{Graph, Tensor};
use openea_core::{AlignedPair, FoldSplit, KgPair};
use openea_math::negsamp::RawTriple;
use openea_math::{EmbeddingTable, Initializer};
use openea_runtime::rng::Rng;
use openea_runtime::rng::SmallRng;

/// One training walk: entity ids and the relations between them.
#[derive(Clone, Debug)]
struct Walk {
    entities: Vec<u32>,
    relations: Vec<u32>,
}

/// Samples `count` random walks of `len` hops over the triple list,
/// following forward edges and inverse edges (inverse relations get ids
/// offset by `num_relations`).
fn sample_walks<R: Rng>(
    triples: &[(u32, u32, u32)],
    num_entities: usize,
    num_relations: u32,
    len: usize,
    count: usize,
    rng: &mut R,
) -> Vec<Walk> {
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_entities];
    for &(h, r, t) in triples {
        adj[h as usize].push((r, t));
        adj[t as usize].push((num_relations + r, h));
    }
    let starts: Vec<u32> = (0..num_entities as u32)
        .filter(|&e| !adj[e as usize].is_empty())
        .collect();
    if starts.is_empty() {
        return Vec::new();
    }
    let mut walks = Vec::with_capacity(count);
    for _ in 0..count {
        let mut cur = starts[rng.gen_range(0..starts.len())];
        let mut entities = vec![cur];
        let mut relations = Vec::with_capacity(len);
        for _ in 0..len {
            let edges = &adj[cur as usize];
            if edges.is_empty() {
                break;
            }
            let (r, t) = edges[rng.gen_range(0..edges.len())];
            relations.push(r);
            entities.push(t);
            cur = t;
        }
        if relations.is_empty() {
            continue;
        }
        walks.push(Walk {
            entities,
            relations,
        });
    }
    walks
}

/// RSN4EA.
#[derive(Default)]
pub struct Rsn4Ea;

/// Hops per sampled walk.
const WALK_LEN: usize = 5;
/// Walks sampled per entity per epoch.
const WALKS_PER_ENTITY: f32 = 3.0;
/// Negative candidates per prediction.
const CANDIDATES: usize = 12;

struct RsnParams {
    elements: EmbeddingTable,
    wh: Tensor,
    wx: Tensor,
    w1: Tensor,
    w2: Tensor,
    /// One tape for every walk: its buffer pool warms on the first few and
    /// serves the rest.
    tape: Graph,
}

impl Approach for Rsn4Ea {
    fn name(&self) -> &'static str {
        "RSN4EA"
    }

    fn requirements(&self) -> Requirements {
        use Req::*;
        Requirements::of(Mandatory, NotApplicable, Mandatory, Optional, NotApplicable)
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

impl Rsn4Ea {
    /// The engine hooks of a run on `split`, before its first epoch.
    pub(crate) fn hooks<'a>(
        &self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &'a RunConfig,
        ctx: &RunContext<'_>,
    ) -> Hooks<'a> {
        let mut rng = ctx.driver_rng();
        let (space, triples) = UnifiedSpace::build(pair, &split.train, Combination::Sharing);
        // Element table: entities then 2·relations (forward + inverse).
        let num_elements = space.num_entities + 2 * space.num_relations;
        let params = RsnParams {
            elements: EmbeddingTable::new(
                num_elements.max(1),
                cfg.dim,
                Initializer::Unit,
                &mut rng,
            ),
            wh: Tensor::xavier(cfg.dim, cfg.dim, &mut rng),
            wx: Tensor::xavier(cfg.dim, cfg.dim, &mut rng),
            w1: Tensor::xavier(cfg.dim, cfg.dim, &mut rng),
            w2: Tensor::xavier(cfg.dim, cfg.dim, &mut rng),
            tape: Graph::new(),
        };

        let walks_per_epoch = ((space.num_entities as f32 * WALKS_PER_ENTITY) as usize).max(8);
        Hooks {
            cfg,
            space,
            triples,
            params,
            walks_per_epoch,
            rng,
        }
    }
}

/// RSN4EA ranks by cosine. Its element table holds the entities first, so
/// a unified id is also the entity's row there and the relation rows after
/// them are never read.
const METRIC: Metric = Metric::Cosine;

pub(crate) struct Hooks<'a> {
    cfg: &'a RunConfig,
    space: UnifiedSpace,
    triples: Vec<RawTriple>,
    params: RsnParams,
    walks_per_epoch: usize,
    rng: SmallRng,
}

impl EpochHooks for Hooks<'_> {
    fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        if !self.cfg.use_relations {
            return EpochStats::default();
        }
        let walks = sample_walks(
            &self.triples,
            self.space.num_entities,
            self.space.num_relations as u32,
            WALK_LEN,
            self.walks_per_epoch,
            &mut self.rng,
        );
        let mut loss = 0.0f64;
        let mut pairs = 0usize;
        for walk in &walks {
            let l = train_walk(&mut self.params, &self.space, walk, self.cfg, &mut self.rng);
            // Per-walk loss is the mean over its predictions; weight by
            // prediction count so short walks don't dominate.
            loss += l as f64 * walk.relations.len() as f64;
            pairs += walk.relations.len();
        }
        self.params.elements.clip_rows_to_unit_ball();
        EpochStats {
            mean_loss: if pairs == 0 {
                0.0
            } else {
                (loss / pairs as f64) as f32
            },
            pairs,
        }
    }

    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        self.space.output(&self.params.elements, METRIC)
    }

    fn validate_in_place(&mut self, valid: &[AlignedPair], ctx: &RunContext<'_>) -> Option<f64> {
        let table = &self.params.elements;
        Some(
            self.space
                .validation_hits1(table, METRIC, valid, ctx.threads),
        )
    }
}

/// Builds the recurrent tape for one walk, applies one SGD step and returns
/// the walk's mean prediction loss.
fn train_walk(
    params: &mut RsnParams,
    space: &UnifiedSpace,
    walk: &Walk,
    cfg: &RunConfig,
    rng: &mut SmallRng,
) -> f32 {
    let dim = cfg.dim;
    let ne = space.num_entities as u32;
    // Local element set: walk entities/relations plus sampled candidates.
    let mut local: Vec<u32> = Vec::new();
    let mut index_of = std::collections::HashMap::new();
    let local_id =
        |ids: &mut Vec<u32>, map: &mut std::collections::HashMap<u32, u32>, global: u32| -> u32 {
            *map.entry(global).or_insert_with(|| {
                ids.push(global);
                (ids.len() - 1) as u32
            })
        };
    let ent_rows: Vec<u32> = walk
        .entities
        .iter()
        .map(|&e| local_id(&mut local, &mut index_of, e))
        .collect();
    let rel_rows: Vec<u32> = walk
        .relations
        .iter()
        .map(|&r| local_id(&mut local, &mut index_of, ne + r))
        .collect();
    // Candidate sets per prediction step: the true next entity first.
    let mut cand_rows: Vec<Vec<u32>> = Vec::with_capacity(walk.relations.len());
    for step in 0..walk.relations.len() {
        let mut c = vec![ent_rows[step + 1]];
        for _ in 0..CANDIDATES {
            let neg = rng.gen_range(0..ne);
            c.push(local_id(&mut local, &mut index_of, neg));
        }
        cand_rows.push(c);
    }

    // Local embedding leaf.
    let mut buf = Vec::with_capacity(local.len() * dim);
    for &gid in &local {
        buf.extend_from_slice(params.elements.row(gid as usize));
    }
    let g = &mut params.tape;
    g.reset();
    let emb = g.leaf(Tensor::from_vec(local.len(), dim, buf));
    let wh = g.leaf_from(&params.wh);
    let wx = g.leaf_from(&params.wx);
    let w1 = g.leaf_from(&params.w1);
    let w2 = g.leaf_from(&params.w2);

    // Recurrence over the walk; predict each next entity.
    let mut h = g.gather(emb, vec![ent_rows[0]]); // h₀ = subject embedding
    let mut losses = Vec::new();
    for step in 0..walk.relations.len() {
        let subject = g.gather(emb, vec![ent_rows[step]]);
        let rel = g.gather(emb, vec![rel_rows[step]]);
        // h ← tanh(h·W_h + x·W_x) consuming the relation.
        let hh = g.matmul(h, wh);
        let xx = g.matmul(rel, wx);
        let s = g.add(hh, xx);
        h = g.tanh(s);
        // Skipping: o = tanh(h·W₁ + subject·W₂).
        let o1 = g.matmul(h, w1);
        let o2 = g.matmul(subject, w2);
        let o_sum = g.add(o1, o2);
        let o = g.tanh(o_sum);
        // Scores against the candidate embeddings: o · candᵀ.
        let cands = g.gather(emb, cand_rows[step].clone());
        // [1,d]·[d,m]: transpose candidates via matmul trick — build
        // scores one a time is wasteful; instead compute o·candᵀ by
        // matmul(cands, oᵀ) and reshape: [m,d]·[d,1] = [m,1].
        let o_t = g.reshape(o, dim, 1);
        let scores_col = g.matmul(cands, o_t); // [m, 1]
        let scores_raw = g.reshape(scores_col, 1, cand_rows[step].len());
        // Temperature: unit-ball embeddings cap dot products at 1, so
        // sharpen the softmax to get usable gradients.
        let scores = g.scale(scores_raw, 4.0);
        let loss = g.softmax_cross_entropy(scores, vec![0]);
        losses.push(loss);
        // Consume the entity into the hidden state.
        let next = g.gather(emb, vec![ent_rows[step + 1]]);
        let hh2 = g.matmul(h, wh);
        let xx2 = g.matmul(next, wx);
        let s2 = g.add(hh2, xx2);
        h = g.tanh(s2);
    }
    // Total loss = mean of the per-step losses.
    let mut total = losses[0];
    for &l in &losses[1..] {
        total = g.add(total, l);
    }
    let scale = 1.0 / losses.len() as f32;
    let loss = g.scale(total, scale);
    let loss_value = g.value(loss).item();
    g.backward(loss);

    // Apply gradients.
    let gemb = g.grad_ref(emb);
    for (local_row, &gid) in local.iter().enumerate() {
        params
            .elements
            .sgd_row(gid as usize, gemb.row(local_row), cfg.lr);
    }
    for (param, var) in [
        (&mut params.wh, wh),
        (&mut params.wx, wx),
        (&mut params.w1, w1),
        (&mut params.w2, w2),
    ] {
        for (p, gg) in param.data.iter_mut().zip(&g.grad_ref(var).data) {
            *p -= cfg.lr * gg;
        }
    }
    loss_value
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::rng::SeedableRng;

    #[test]
    fn walks_follow_edges_in_both_directions() {
        let triples = vec![(0u32, 0u32, 1u32), (1, 1, 2)];
        let mut rng = SmallRng::seed_from_u64(0);
        let walks = sample_walks(&triples, 3, 2, 4, 50, &mut rng);
        assert!(!walks.is_empty());
        for w in &walks {
            assert_eq!(w.entities.len(), w.relations.len() + 1);
            for (i, &r) in w.relations.iter().enumerate() {
                let (h, t) = (w.entities[i], w.entities[i + 1]);
                let forward = triples
                    .iter()
                    .any(|&(a, rr, b)| a == h && b == t && rr == r);
                let inverse = r >= 2
                    && triples
                        .iter()
                        .any(|&(a, rr, b)| a == t && b == h && rr == r - 2);
                assert!(forward || inverse, "invalid hop {h} -{r}-> {t}");
            }
        }
    }

    #[test]
    fn walks_skip_isolated_entities() {
        let triples = vec![(0u32, 0u32, 1u32)];
        let mut rng = SmallRng::seed_from_u64(1);
        let walks = sample_walks(&triples, 5, 1, 3, 20, &mut rng);
        for w in &walks {
            assert!(w.entities.iter().all(|&e| e <= 1));
        }
    }

    #[test]
    fn empty_graph_yields_no_walks() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(sample_walks(&[], 4, 1, 3, 10, &mut rng).is_empty());
    }
}
