//! The *embedding-space transformation* interaction mode (MTransE and its
//! Figure-11 backbones, SEA, KDCoE's relation view): each KG is embedded in
//! its own space and a linear map `M` is trained so that `M·e₁ ≈ e₂` on the
//! seed alignment. All of them train on one [`TransformationCore`]; MTransE
//! and SEA through [`run`], KDCoE through hooks of its own.

use crate::common::{
    train_epoch_batched, ApproachOutput, EpochStats, RunConfig, TrainError, TrainOptions,
};
use crate::engine::{run_driver, EpochHooks, RunContext, WarmStart};
use crate::mtranse::RelModelKind;
use openea_align::Metric;
use openea_core::{AlignedPair, FoldSplit, KgPair, KnowledgeGraph};
use openea_math::negsamp::{RawTriple, UniformSampler};
use openea_math::Matrix;
use openea_models::RelationModel;
use openea_runtime::rng::{Rng, RngCore, SmallRng};

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

/// What every transformation-mode driver trains: one relation model per KG
/// over that KG's own triples with uniform negatives, and the map `M`,
/// near-identity at start. The caller builds the two models, each its own
/// way, and hands over the driver RNG after; the map's perturbation is
/// drawn from it here, then one seed per model per epoch.
pub(crate) struct TransformationCore {
    pub m1: Box<dyn RelationModel>,
    pub m2: Box<dyn RelationModel>,
    pub map: Matrix,
    t1: Vec<RawTriple>,
    t2: Vec<RawTriple>,
    s1: UniformSampler,
    s2: UniformSampler,
    opts1: TrainOptions,
    opts2: TrainOptions,
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
        let (t1, t2) = (kg_triples(&pair.kg1), kg_triples(&pair.kg2));
        let uniform = |kg: &KnowledgeGraph| UniformSampler {
            num_entities: kg.num_entities().max(1) as u32,
        };
        Self {
            m1,
            m2,
            map,
            s1: uniform(&pair.kg1),
            s2: uniform(&pair.kg2),
            opts1: cfg.train_options(t1.len()),
            opts2: cfg.train_options(t2.len()),
            t1,
            t2,
            rng,
        }
    }

    /// One batched epoch of each model; a no-op under `use_relations ==
    /// false`.
    pub fn train_epoch(&mut self, cfg: &RunConfig) -> EpochStats {
        if !cfg.use_relations {
            return EpochStats::default();
        }
        let a = train_epoch_batched(
            self.m1.as_mut(),
            &self.t1,
            &self.s1,
            &self.opts1,
            self.rng.next_u64(),
        )
        .expect("valid train options");
        let b = train_epoch_batched(
            self.m2.as_mut(),
            &self.t2,
            &self.s2,
            &self.opts2,
            self.rng.next_u64(),
        )
        .expect("valid train options");
        EpochStats::merged(&[a, b])
    }

    /// Joint SGD on `‖M·e₁ − e₂‖²` for every seed pair, in order: the map
    /// and both seed embeddings move.
    pub fn seed_step(&mut self, seeds: impl IntoIterator<Item = AlignedPair>, cfg: &RunConfig) {
        let (dim, lr, map) = (cfg.dim, cfg.lr, &mut self.map);
        let mut me1 = vec![0.0f32; dim];
        let mut mtu = vec![0.0f32; dim];
        for (a, b) in seeds {
            let e1: Vec<f32> = self.m1.entities().row(a.idx()).to_vec();
            map.matvec_into(&e1, &mut me1);
            let u: Vec<f32> = {
                let e2 = self.m2.entities().row(b.idx());
                me1.iter().zip(e2).map(|(x, y)| x - y).collect()
            };
            // dL/dM = 2·u·e₁ᵀ ; dL/de₁ = 2·Mᵀu ; dL/de₂ = −2u.
            map.matvec_t_into(&u, &mut mtu);
            for i in 0..dim {
                for j in 0..dim {
                    map[(i, j)] -= 2.0 * lr * u[i] * e1[j];
                }
            }
            self.m1.entities_mut().sgd_row(a.idx(), &mtu, 2.0 * lr);
            let neg_u: Vec<f32> = u.iter().map(|x| -x).collect();
            self.m2.entities_mut().sgd_row(b.idx(), &neg_u, 2.0 * lr);
        }
    }

    /// `M`-mapped KG1 embeddings against raw KG2 embeddings.
    pub fn output(&self, cfg: &RunConfig, metric: Metric) -> ApproachOutput {
        let emb1 = self.mapped_rows(cfg.dim, 0..self.m1.num_entities());
        ApproachOutput::new(cfg.dim, metric, emb1, self.m2.entities().data().to_vec())
    }

    /// `M·e₁` for the given KG1 `rows`, row-major and in their order.
    pub fn mapped_rows(&self, dim: usize, rows: impl ExactSizeIterator<Item = usize>) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows.len() * dim);
        let mut buf = vec![0.0f32; dim];
        for e in rows {
            self.map.matvec_into(self.m1.entities().row(e), &mut buf);
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

    fn warm_start(&mut self, warm: &WarmStart<'_>, ctx: &RunContext<'_>) -> bool {
        // The snapshot stores the *mapped* KG1 output (M·e₁) against raw
        // KG2 rows, so absorption folds the parent's map into e₁: load the
        // mapped rows directly and reset `M` (and the cycle back-map) to
        // the exact identity. A zero-epoch checkpoint then reproduces the
        // parent's bits. New entities seed from the reserved warm stream,
        // KG2 keys offset into a disjoint range.
        let seed = ctx.seed;
        let (rows1, rows2) = (warm.rows1(), warm.rows2());
        if !self.core.m1.init_from(
            warm.dim,
            warm.emb1,
            &|i| (i < rows1).then_some(i),
            &mut |i, row| crate::common::warm_seed_row(seed, i as u64, row),
        ) {
            return false;
        }
        // Same model kind and cfg.dim as m1, so this cannot refuse once m1
        // absorbed — the guard is belt and braces.
        if !self.core.m2.init_from(
            warm.dim,
            warm.emb2,
            &|i| (i < rows2).then_some(i),
            &mut |i, row| crate::common::warm_seed_row(seed, (1u64 << 32) | i as u64, row),
        ) {
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
        let TransformationCore { m1, map, rng, .. } = &mut self.core;
        let back = &mut self.back;
        let n = m1.num_entities();
        if n == 0 {
            return;
        }
        let lr = self.cfg.lr * self.cycle_weight;
        let mut fwd = vec![0.0f32; dim];
        let mut cyc = vec![0.0f32; dim];
        let mut btu = vec![0.0f32; dim];
        for _ in 0..(n / 10).max(1) {
            let e = rng.gen_range(0..n);
            let e1: Vec<f32> = m1.entities().row(e).to_vec();
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
