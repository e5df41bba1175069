//! IPTransE \[93\]: path-based translational embedding in a unified space with
//! parameter sharing, trained semi-supervised by uncurated self-training.
//!
//! The path objective infers that a two-hop path `(r₁, r₂)` between two
//! entities should compose (by summation) to any direct relation `r₃`
//! between them: `‖(r₁ + r₂) − r₃‖²` is minimized. Self-training proposes
//! each source's nearest neighbour above a threshold and *keeps the errors*
//! (no editing) — reproducing the paper's observation that IPTransE's
//! augmentation precision degrades over iterations.

use crate::boot::{propose_nearest, Ledger};
use crate::common::{
    Approach, ApproachOutput, Combination, EpochStats, Requirements, RunConfig, TrainError, Unified,
};
use crate::engine::{run_driver, EpochHooks, RunContext, WarmStart};
use openea_align::Metric;
use openea_core::{AlignedPair, FoldSplit, KgPair};
use openea_models::TransE;
use openea_runtime::rng::SliceRandom;

/// A mined path instance: relations `r1, r2` composing to direct `r3`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathInstance {
    pub r1: u32,
    pub r2: u32,
    pub r3: u32,
}

/// Mines two-hop relation paths `h -r1-> m -r2-> t` that parallel a direct
/// relation `h -r3-> t` (`t ≠ h`), in triple order, capped at
/// `max_instances` (they grow combinatorially; the instance that reaches
/// the cap is kept, so a cap of 0 still yields one).
pub fn mine_paths(triples: &[(u32, u32, u32)], max_instances: usize) -> Vec<PathInstance> {
    // Out-edges `(r, t)` filed under their heads by one stable counting
    // pass, so that a row keeps its triples' order. Row `e` is
    // `edges[starts[e]..starts[e + 1]]`.
    let n = triples
        .iter()
        .map(|&(h, _, t)| h.max(t) as usize + 1)
        .max()
        .unwrap_or(0);
    // Counted two places up, so that after the running sum `starts[e + 1]`
    // is where row `e` begins; filling advances it to where row `e` ends.
    let mut starts = vec![0usize; n + 2];
    for &(h, _, _) in triples {
        starts[h as usize + 2] += 1;
    }
    for e in 1..starts.len() {
        starts[e] += starts[e - 1];
    }
    let mut edges = vec![(0u32, 0u32); triples.len()];
    for &(h, r, t) in triples {
        let next = &mut starts[h as usize + 1];
        edges[*next] = (r, t);
        *next += 1;
    }
    let row = |e: u32| &edges[starts[e as usize]..starts[e as usize + 1]];

    let mut found = Vec::new();
    'outer: for &(h, r1, m) in triples {
        for &(r2, t) in row(m) {
            if t == h {
                continue;
            }
            // The direct relations `h -> t`: the entries of `h`'s row whose
            // tail is `t`, in triple order.
            for &(r3, _) in row(h).iter().filter(|&&(_, t3)| t3 == t) {
                found.push(PathInstance { r1, r2, r3 });
                if found.len() >= max_instances {
                    break 'outer;
                }
            }
        }
    }
    found
}

/// IPTransE.
pub struct IpTransE {
    /// Cosine threshold for accepting a proposed pair.
    pub threshold: f32,
    /// Weight of the path-composition loss.
    pub path_weight: f32,
}

impl Default for IpTransE {
    fn default() -> Self {
        // The low threshold is faithful: IPTransE accepts nearest neighbours
        // liberally and has no error-editing mechanism, which is why its
        // augmentation precision degrades over iterations (Figure 7).
        Self {
            threshold: 0.35,
            path_weight: 0.3,
        }
    }
}

/// Epochs between self-training rounds.
const BOOT_EVERY: usize = 20;

impl IpTransE {
    fn path_step(&self, model: &mut TransE, paths: &[PathInstance], lr: f32) {
        let dim = model.relations.dim();
        let mut u = vec![0.0f32; dim];
        for p in paths {
            // u = (r1 + r2) − r3 ; pull each relation along −∇‖u‖².
            for (i, ui) in u.iter_mut().enumerate() {
                *ui = model.relations.row(p.r1 as usize)[i] + model.relations.row(p.r2 as usize)[i]
                    - model.relations.row(p.r3 as usize)[i];
            }
            let s = 2.0 * lr * self.path_weight;
            #[allow(clippy::needless_range_loop)] // multi-array indexed math reads clearer
            for i in 0..dim {
                model.relations.row_mut(p.r1 as usize)[i] -= s * u[i];
                model.relations.row_mut(p.r2 as usize)[i] -= s * u[i];
                model.relations.row_mut(p.r3 as usize)[i] += s * u[i];
            }
        }
    }
}

impl Approach for IpTransE {
    fn name(&self) -> &'static str {
        "IPTransE"
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
        let mut hooks = self.hooks(pair, split, cfg, ctx);
        let mut out = run_driver(self.name(), &mut hooks, &ctx.for_valid(&split.valid), cfg)?;
        out.augmentation = hooks.ledger.curve;
        Ok(out)
    }
}

impl IpTransE {
    /// The engine hooks of a run on `split`, before its first epoch.
    pub(crate) fn hooks<'a>(
        &'a self,
        pair: &KgPair,
        split: &FoldSplit,
        cfg: &'a RunConfig,
        ctx: &RunContext<'_>,
    ) -> Hooks<'a> {
        let mut base = Unified::transe(pair, &split.train, Combination::Sharing, cfg, ctx);
        let mut paths = mine_paths(&base.unit.triples, 20_000);
        paths.shuffle(&mut base.rng);
        paths.truncate(4_000);
        Hooks {
            approach: self,
            cfg,
            base,
            paths,
            ledger: Ledger::scored(pair, &split.train),
        }
    }
}

/// IPTransE ranks by Euclidean distance; self-training compares by cosine.
const METRIC: Metric = Metric::Euclidean;

/// Engine hooks: translational training plus the path objective per epoch,
/// then soft calibration of proposed pairs and (every [`BOOT_EVERY`] epochs)
/// a new self-training round.
pub(crate) struct Hooks<'a> {
    approach: &'a IpTransE,
    cfg: &'a RunConfig,
    base: Unified,
    paths: Vec<PathInstance>,
    ledger: Ledger,
}

impl EpochHooks for Hooks<'_> {
    fn warm_start(&mut self, warm: &WarmStart<'_>, ctx: &RunContext<'_>) -> bool {
        self.base.warm_start(warm, ctx)
    }

    fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        let stats = self.base.train_epoch(self.cfg);
        if self.cfg.use_relations {
            self.approach
                .path_step(&mut self.base.unit.model, &self.paths, self.cfg.lr);
        }
        stats
    }

    fn after_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) {
        // Soft alignment for proposed pairs (seed pairs share ids already).
        let table = &mut self.base.unit.model.entities;
        self.ledger.calibrate(&self.base.space, table, self.cfg.lr);

        if (epoch + 1).is_multiple_of(BOOT_EVERY) {
            let (sources, targets) = self.ledger.unaligned();
            let (threshold, threads) = (self.approach.threshold, self.cfg.threads);
            let space = &self.base.space;
            let new_pairs = propose_nearest(space, table, &sources, &targets, threshold, threads);
            self.ledger.extend(new_pairs);
        }
    }

    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        self.base.output(METRIC)
    }

    fn validate_in_place(&mut self, valid: &[AlignedPair], ctx: &RunContext<'_>) -> Option<f64> {
        Some(self.base.validation_hits1(METRIC, valid, ctx.threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_math::vecops;
    use openea_runtime::rng::{SeedableRng, SmallRng};

    #[test]
    fn mine_paths_finds_triangles() {
        // h -r0-> m -r1-> t and h -r2-> t.
        let triples = vec![(0, 0, 1), (1, 1, 2), (0, 2, 2)];
        let paths = mine_paths(&triples, 100);
        assert!(paths.contains(&PathInstance {
            r1: 0,
            r2: 1,
            r3: 2
        }));
    }

    #[test]
    fn mine_paths_ignores_back_edges() {
        // h -> m -> h has no distinct endpoint.
        let triples = vec![(0, 0, 1), (1, 1, 0)];
        assert!(mine_paths(&triples, 100).is_empty());
    }

    #[test]
    fn mine_paths_respects_cap() {
        let mut triples = Vec::new();
        for i in 0..20u32 {
            triples.push((0, i, 1));
            triples.push((1, i, 2));
            triples.push((0, i, 2));
        }
        assert_eq!(mine_paths(&triples, 50).len(), 50);
    }

    #[test]
    fn path_step_composes_relations() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut model = TransE::new(3, 3, 8, 1.0, &mut rng);
        let approach = IpTransE {
            path_weight: 1.0,
            ..IpTransE::default()
        };
        let p = PathInstance {
            r1: 0,
            r2: 1,
            r3: 2,
        };
        let residual = |m: &TransE| {
            let u: Vec<f32> = (0..8)
                .map(|i| m.relations.row(0)[i] + m.relations.row(1)[i] - m.relations.row(2)[i])
                .collect();
            vecops::norm2_sq(&u)
        };
        let before = residual(&model);
        for _ in 0..30 {
            approach.path_step(&mut model, &[p], 0.05);
        }
        assert!(residual(&model) < before * 0.2);
    }
}
