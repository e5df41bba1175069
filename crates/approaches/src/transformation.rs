//! The *embedding-space transformation* interaction mode (MTransE and its
//! Figure-11 backbones, SEA, KDCoE's relation view): each KG is embedded in
//! its own space and a linear map `M` is trained so that `M·e₁ ≈ e₂` on the
//! seed alignment. All of them train on one [`TransformationCore`]; MTransE
//! and SEA through [`run`], KDCoE through hooks of its own.

use crate::common::{ApproachOutput, EpochStats, RunConfig, TrainError, TrainUnit};
use crate::engine::{run_driver, EpochHooks, RunContext, WarmStart};
use crate::mtranse::RelModelKind;
use openea_align::Metric;
use openea_core::{AlignedPair, FoldSplit, KgPair, KnowledgeGraph};
use openea_math::negsamp::RawTriple;
use openea_math::Matrix;
use openea_models::RelationModel;
use openea_runtime::rng::{Rng, SmallRng};

/// Raw triples of one KG in its own id space.
fn kg_triples(kg: &KnowledgeGraph) -> Vec<RawTriple> {
    kg.rel_triples()
        .iter()
        .map(|t| (t.head.0, t.rel.0, t.tail.0))
        .collect()
}

/// Trains MTransE or SEA under `label`: a `model` per KG, seeded from
/// `ctx.model_seed(1)` and `ctx.model_seed(2)`, and the map `M` on the seed
/// alignment. `cycle_weight > 0` adds SEA's cycle consistency
/// (`M̄·M·e₁ ≈ e₁`) over unlabeled entities, a semi-supervised signal from
/// non-seed data; `orthogonal` projects `M` onto the nearest orthogonal
/// matrix after each epoch (MTransE's orthogonality variant, via orthogonal
/// Procrustes). The output compares mapped KG1 rows with raw KG2 rows under
/// `metric`.
#[allow(clippy::too_many_arguments)] // five settings tell the approaches apart, four are the run's
pub(crate) fn run(
    label: &'static str,
    model: RelModelKind,
    metric: Metric,
    cycle_weight: f32,
    orthogonal: bool,
    pair: &KgPair,
    split: &FoldSplit,
    cfg: &RunConfig,
    ctx: &RunContext<'_>,
) -> Result<ApproachOutput, TrainError> {
    let build = |kg: &KnowledgeGraph, stream| {
        let (n, r) = (kg.num_entities(), kg.num_relations().max(1));
        model.build(n, r, cfg.dim, cfg.margin, ctx.model_seed(stream))
    };
    let (m1, m2) = (build(&pair.kg1, 1), build(&pair.kg2, 2));
    let mut hooks = Hooks {
        cfg,
        seeds: &split.train,
        core: TransformationCore::new(pair, m1, m2, cfg, ctx.driver_rng()),
        metric,
        cycle_weight,
        orthogonal,
        back: Matrix::identity(cfg.dim),
    };
    run_driver(label, &mut hooks, &ctx.for_valid(&split.valid), cfg)
}

/// What every transformation-mode driver trains: one [`TrainUnit`] per KG
/// over that KG's own triples, and the map `M`, near-identity at start. The
/// caller builds the two models, each its own way, and hands over the
/// driver RNG after; the map's perturbation is drawn from it here, then one
/// seed per model per epoch.
pub(crate) struct TransformationCore {
    pub kg1: TrainUnit<dyn RelationModel>,
    pub kg2: TrainUnit<dyn RelationModel>,
    pub map: Matrix,
    pub rng: SmallRng,
}

impl TransformationCore {
    pub fn new(
        pair: &KgPair,
        m1: Box<dyn RelationModel>,
        m2: Box<dyn RelationModel>,
        cfg: &RunConfig,
        mut rng: SmallRng,
    ) -> Self {
        let mut map = Matrix::identity(cfg.dim);
        for v in map.data_mut() {
            *v += rng.gen_range(-0.02f32..0.02);
        }
        Self {
            kg1: TrainUnit::new(m1, kg_triples(&pair.kg1), cfg),
            kg2: TrainUnit::new(m2, kg_triples(&pair.kg2), cfg),
            map,
            rng,
        }
    }

    /// One guarded epoch of each model.
    pub fn train_epoch(&mut self, cfg: &RunConfig) -> EpochStats {
        let a = self.kg1.epoch(cfg, &mut self.rng);
        let b = self.kg2.epoch(cfg, &mut self.rng);
        EpochStats::merged(&[a, b])
    }

    /// Joint SGD on `‖M·e₁ − e₂‖²` for every seed pair, in order: the map
    /// and both seed embeddings move.
    pub fn seed_step(&mut self, seeds: impl IntoIterator<Item = AlignedPair>, cfg: &RunConfig) {
        let (dim, lr, map) = (cfg.dim, cfg.lr, &mut self.map);
        let mut me1 = vec![0.0f32; dim];
        let mut mtu = vec![0.0f32; dim];
        let (m1, m2) = (&mut self.kg1.model, &mut self.kg2.model);
        for (a, b) in seeds {
            let e1: Vec<f32> = m1.entities().row(a.idx()).to_vec();
            map.matvec_into(&e1, &mut me1);
            let u: Vec<f32> = {
                let e2 = m2.entities().row(b.idx());
                me1.iter().zip(e2).map(|(x, y)| x - y).collect()
            };
            // dL/dM = 2·u·e₁ᵀ ; dL/de₁ = 2·Mᵀu ; dL/de₂ = −2u.
            map.matvec_t_into(&u, &mut mtu);
            for i in 0..dim {
                for j in 0..dim {
                    map[(i, j)] -= 2.0 * lr * u[i] * e1[j];
                }
            }
            m1.entities_mut().sgd_row(a.idx(), &mtu, 2.0 * lr);
            let neg_u: Vec<f32> = u.iter().map(|x| -x).collect();
            m2.entities_mut().sgd_row(b.idx(), &neg_u, 2.0 * lr);
        }
    }

    /// `M`-mapped KG1 embeddings against raw KG2 embeddings.
    pub fn output(&self, cfg: &RunConfig, metric: Metric) -> ApproachOutput {
        let emb1 = self.mapped_rows(cfg.dim, 0..self.kg1.model.num_entities());
        let emb2 = self.kg2.model.entities().data().to_vec();
        ApproachOutput::new(cfg.dim, metric, emb1, emb2)
    }

    /// `M·e₁` for the given KG1 `rows`, row-major and in their order.
    pub fn mapped_rows(&self, dim: usize, rows: impl ExactSizeIterator<Item = usize>) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows.len() * dim);
        let mut buf = vec![0.0f32; dim];
        for e in rows {
            self.map
                .matvec_into(self.kg1.model.entities().row(e), &mut buf);
            out.extend_from_slice(&buf);
        }
        out
    }
}

/// Engine hooks: per-KG relation-model epochs, then the joint seed step,
/// optional cycle consistency and optional orthogonal projection.
struct Hooks<'a> {
    cfg: &'a RunConfig,
    seeds: &'a [AlignedPair],
    core: TransformationCore,
    metric: Metric,
    cycle_weight: f32,
    orthogonal: bool,
    /// The cycle's back-map `M̄`, trained only when `cycle_weight > 0`.
    back: Matrix,
}

impl EpochHooks for Hooks<'_> {
    fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        self.core.train_epoch(self.cfg)
    }

    fn after_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) {
        self.core.seed_step(self.seeds.iter().copied(), self.cfg);
        if self.cycle_weight > 0.0 {
            self.cycle_step();
        }
        if self.orthogonal {
            self.core.map = openea_math::nearest_orthogonal(&self.core.map);
        }
    }

    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        self.core.output(self.cfg, self.metric)
    }

    fn warm_start<'w>(&mut self, warm: &WarmStart<'w>, ctx: &RunContext<'_>) -> bool {
        // The snapshot stores the *mapped* KG1 output (M·e₁) against raw
        // KG2 rows, so absorption folds the parent's map into e₁: load the
        // mapped rows directly and reset `M` (and the cycle back-map) to
        // the exact identity. A zero-epoch checkpoint then reproduces the
        // parent's bits. New entities seed from the reserved warm stream,
        // KG2 keys offset into a disjoint range. Both models share one kind
        // and `cfg.dim`, so KG2 cannot refuse once KG1 absorbed.
        let (dim, seed) = (warm.dim, ctx.seed);
        let row = |emb: &'w [f32], i: usize| emb.get(i * dim..(i + 1) * dim);
        let core = &mut self.core;
        if !(core
            .kg1
            .absorb(dim, seed, |i| row(warm.emb1, i), |i| i as u64)
            && core
                .kg2
                .absorb(dim, seed, |i| row(warm.emb2, i), |i| (1 << 32) | i as u64))
        {
            return false;
        }
        self.core.map = Matrix::identity(self.cfg.dim);
        self.back = Matrix::identity(self.cfg.dim);
        true
    }
}

impl Hooks<'_> {
    /// Cycle consistency on random unlabeled KG1 entities:
    /// `‖M̄·(M·e₁) − e₁‖²` trains both maps.
    fn cycle_step(&mut self) {
        let dim = self.cfg.dim;
        let TransformationCore { kg1, map, rng, .. } = &mut self.core;
        let back = &mut self.back;
        let n = kg1.model.num_entities();
        if n == 0 {
            return;
        }
        let lr = self.cfg.lr * self.cycle_weight;
        let mut fwd = vec![0.0f32; dim];
        let mut cyc = vec![0.0f32; dim];
        let mut btu = vec![0.0f32; dim];
        for _ in 0..(n / 10).max(1) {
            let e = rng.gen_range(0..n);
            let e1: Vec<f32> = kg1.model.entities().row(e).to_vec();
            map.matvec_into(&e1, &mut fwd);
            back.matvec_into(&fwd, &mut cyc);
            let u: Vec<f32> = cyc.iter().zip(&e1).map(|(x, y)| x - y).collect();
            // dL/dback = 2·u·fwdᵀ ; dL/dfwd = 2·backᵀu → dL/dmap = (2·backᵀu)·e₁ᵀ
            back.matvec_t_into(&u, &mut btu);
            for i in 0..dim {
                for j in 0..dim {
                    back[(i, j)] -= 2.0 * lr * u[i] * fwd[j];
                    map[(i, j)] -= 2.0 * lr * btu[i] * e1[j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::common::{Approach, RunConfig};
    use crate::mtranse::MTransE;
    use openea_math::vecops;
    use openea_runtime::rng::{SeedableRng, SmallRng};

    #[test]
    fn transformation_maps_seeds_close() {
        // Two identical small KGs: the transformation should map seed
        // embeddings close to their counterparts.
        let pair =
            openea_synth::PresetConfig::new(openea_synth::DatasetFamily::EnFr, 150, false, 77)
                .generate();
        let mut rng = SmallRng::seed_from_u64(0);
        let folds = openea_core::k_fold_splits(&pair.alignment, 5, &mut rng);
        let cfg = RunConfig {
            dim: 16,
            max_epochs: 30,
            ..RunConfig::default()
        };
        let out = MTransE::default().run(&pair, &folds[0], &cfg);
        // Mapped seed pairs are closer than random pairs on average.
        let mut seed_d = 0.0;
        let mut rand_d = 0.0;
        let train = &folds[0].train;
        for (k, &(a, b)) in train.iter().enumerate() {
            seed_d += vecops::euclidean(out.vec1(a), out.vec2(b));
            let (_, d) = train[(k + 1) % train.len()];
            rand_d += vecops::euclidean(out.vec1(a), out.vec2(d));
        }
        assert!(seed_d < rand_d, "seed {seed_d} vs random {rand_d}");
    }
}
