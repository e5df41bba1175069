//! ComplEx \[76\] and TuckER \[3\] — the remaining semantic-matching models
//! of the paper's survey (Sect. 2.1.1), with hand-derived gradients.

use crate::trainer::{train_batch_stepwise, TrainOptions, Workspace};
use crate::traits::RelationModel;
use openea_math::loss::logistic_loss;
use openea_math::negsamp::RawTriple;
use openea_math::{EmbeddingTable, Initializer};
use openea_runtime::rng::Rng;

/// ComplEx: complex-valued bilinear scoring
/// `score = Re(Σⱼ hⱼ·rⱼ·conj(tⱼ))`. Rows interleave (re, im); `dim` is the
/// real storage width and must be even.
pub struct ComplEx {
    pub entities: EmbeddingTable,
    pub relations: EmbeddingTable,
    half: usize,
}

impl ComplEx {
    pub fn new<R: Rng>(num_entities: usize, num_relations: usize, dim: usize, rng: &mut R) -> Self {
        assert!(dim.is_multiple_of(2), "ComplEx needs an even dimension");
        Self {
            entities: EmbeddingTable::new(num_entities, dim, Initializer::Unit, rng),
            relations: EmbeddingTable::new(num_relations, dim, Initializer::Unit, rng),
            half: dim / 2,
        }
    }

    fn score(&self, (h, r, t): RawTriple) -> f32 {
        let he = self.entities.row(h as usize);
        let re = self.relations.row(r as usize);
        let te = self.entities.row(t as usize);
        let mut s = 0.0;
        for j in 0..self.half {
            let (a, b) = (he[2 * j], he[2 * j + 1]);
            let (c, d) = (re[2 * j], re[2 * j + 1]);
            let (e, f) = (te[2 * j], te[2 * j + 1]);
            // Re((a+bi)(c+di)(e−fi)) = (ac−bd)e + (ad+bc)f
            s += (a * c - b * d) * e + (a * d + b * c) * f;
        }
        s
    }

    fn apply(&mut self, (h, r, t): RawTriple, coeff: f32, lr: f32) {
        let he: Vec<f32> = self.entities.row(h as usize).to_vec();
        let re: Vec<f32> = self.relations.row(r as usize).to_vec();
        let te: Vec<f32> = self.entities.row(t as usize).to_vec();
        let s = coeff * lr; // energy = −score: ascend the score
        for j in 0..self.half {
            let (a, b) = (he[2 * j], he[2 * j + 1]);
            let (c, d) = (re[2 * j], re[2 * j + 1]);
            let (e, f) = (te[2 * j], te[2 * j + 1]);
            // ∂score/∂a = ce + df ; ∂/∂b = −de + cf
            self.entities.row_mut(h as usize)[2 * j] += s * (c * e + d * f);
            self.entities.row_mut(h as usize)[2 * j + 1] += s * (-d * e + c * f);
            // ∂/∂c = ae + bf ; ∂/∂d = −be + af
            self.relations.row_mut(r as usize)[2 * j] += s * (a * e + b * f);
            self.relations.row_mut(r as usize)[2 * j + 1] += s * (-b * e + a * f);
            // ∂/∂e = ac − bd ; ∂/∂f = ad + bc
            self.entities.row_mut(t as usize)[2 * j] += s * (a * c - b * d);
            self.entities.row_mut(t as usize)[2 * j + 1] += s * (a * d + b * c);
        }
    }
}

impl RelationModel for ComplEx {
    fn name(&self) -> &'static str {
        "ComplEx"
    }

    fn energy(&self, t: RawTriple) -> f32 {
        -self.score(t)
    }

    fn train_batch(
        &mut self,
        pairs: &[(RawTriple, RawTriple)],
        opts: &TrainOptions,
        _ws: &mut Workspace,
        total: &mut f64,
    ) {
        train_batch_stepwise(self, pairs, opts.lr, total);
    }

    fn step(&mut self, pos: RawTriple, neg: RawTriple, lr: f32) -> f32 {
        let (loss, gp, gn) = logistic_loss(self.energy(pos), self.energy(neg));
        self.apply(pos, gp, lr);
        self.apply(neg, gn, lr);
        loss
    }

    fn epoch_hook(&mut self) {
        self.entities.clip_rows_to_unit_ball();
    }

    fn entities(&self) -> &EmbeddingTable {
        &self.entities
    }

    fn entities_mut(&mut self) -> &mut EmbeddingTable {
        &mut self.entities
    }
}

/// TuckER: a shared core tensor `W ∈ ℝ^{d×dr×d}` mixes head, relation and
/// tail: `score = Σᵢⱼₖ Wᵢⱼₖ·hᵢ·rⱼ·tₖ`, with a small relation dimension `dr`
/// to keep the cubic term affordable.
pub struct TuckEr {
    pub entities: EmbeddingTable,
    pub relations: EmbeddingTable,
    /// Row-major `d × dr × d` core tensor.
    pub core: Vec<f32>,
    d: usize,
    dr: usize,
}

impl TuckEr {
    pub fn new<R: Rng>(num_entities: usize, num_relations: usize, dim: usize, rng: &mut R) -> Self {
        let dr = (dim / 4).max(2);
        let scale = (6.0 / (dim * 2) as f32).sqrt();
        Self {
            entities: EmbeddingTable::new(num_entities, dim, Initializer::Unit, rng),
            relations: EmbeddingTable::new(num_relations, dr, Initializer::Unit, rng),
            core: (0..dim * dr * dim)
                .map(|_| rng.gen_range(-scale..=scale))
                .collect(),
            d: dim,
            dr,
        }
    }

    fn score(&self, (h, r, t): RawTriple) -> f32 {
        let he = self.entities.row(h as usize);
        let re = self.relations.row(r as usize);
        let te = self.entities.row(t as usize);
        let mut s = 0.0;
        #[allow(clippy::needless_range_loop)] // multi-array indexed math reads clearer
        for i in 0..self.d {
            if he[i] == 0.0 {
                continue;
            }
            for j in 0..self.dr {
                let hr = he[i] * re[j];
                if hr == 0.0 {
                    continue;
                }
                let base = (i * self.dr + j) * self.d;
                let mut acc = 0.0;
                for (k, &tk) in te.iter().enumerate() {
                    acc += self.core[base + k] * tk;
                }
                s += hr * acc;
            }
        }
        s
    }

    fn apply(&mut self, (h, r, t): RawTriple, coeff: f32, lr: f32) {
        let he: Vec<f32> = self.entities.row(h as usize).to_vec();
        let re: Vec<f32> = self.relations.row(r as usize).to_vec();
        let te: Vec<f32> = self.entities.row(t as usize).to_vec();
        let s = coeff * lr;
        let (d, dr) = (self.d, self.dr);
        let mut gh = vec![0.0f32; d];
        let mut gr = vec![0.0f32; dr];
        let mut gt = vec![0.0f32; d];
        for i in 0..d {
            for j in 0..dr {
                let base = (i * dr + j) * d;
                let hr = he[i] * re[j];
                for k in 0..d {
                    let w = self.core[base + k];
                    gh[i] += w * re[j] * te[k];
                    gr[j] += w * he[i] * te[k];
                    gt[k] += w * hr;
                    // Core gradient applied in place (ascend score).
                    self.core[base + k] += s * he[i] * re[j] * te[k];
                }
            }
        }
        for i in 0..d {
            self.entities.row_mut(h as usize)[i] += s * gh[i];
            self.entities.row_mut(t as usize)[i] += s * gt[i];
        }
        #[allow(clippy::needless_range_loop)] // multi-array indexed math reads clearer
        for j in 0..dr {
            self.relations.row_mut(r as usize)[j] += s * gr[j];
        }
    }
}

impl RelationModel for TuckEr {
    fn name(&self) -> &'static str {
        "TuckER"
    }

    fn energy(&self, t: RawTriple) -> f32 {
        -self.score(t)
    }

    fn train_batch(
        &mut self,
        pairs: &[(RawTriple, RawTriple)],
        opts: &TrainOptions,
        _ws: &mut Workspace,
        total: &mut f64,
    ) {
        train_batch_stepwise(self, pairs, opts.lr, total);
    }

    fn step(&mut self, pos: RawTriple, neg: RawTriple, lr: f32) -> f32 {
        let (loss, gp, gn) = logistic_loss(self.energy(pos), self.energy(neg));
        self.apply(pos, gp, lr);
        self.apply(neg, gn, lr);
        loss
    }

    fn epoch_hook(&mut self) {
        self.entities.clip_rows_to_unit_ball();
    }

    fn entities(&self) -> &EmbeddingTable {
        &self.entities
    }

    fn entities_mut(&mut self) -> &mut EmbeddingTable {
        &mut self.entities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::assert_model_learns;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(77)
    }

    #[test]
    fn complex_learns_toy_structure() {
        assert_model_learns(ComplEx::new(20, 2, 16, &mut rng()), 20, 80, 0.05);
    }

    #[test]
    fn tucker_learns_toy_structure() {
        assert_model_learns(TuckEr::new(20, 2, 12, &mut rng()), 20, 60, 0.02);
    }

    #[test]
    fn complex_models_antisymmetry() {
        // Unlike DistMult, ComplEx can score (h,r,t) and (t,r,h) differently.
        let m = ComplEx::new(5, 1, 8, &mut rng());
        assert!((m.score((1, 0, 3)) - m.score((3, 0, 1))).abs() > 1e-6);
    }

    #[test]
    fn complex_score_gradient_matches_finite_difference() {
        let m = ComplEx::new(3, 1, 6, &mut rng());
        let triple = (0u32, 0u32, 1u32);
        let eps = 1e-3;
        // Check ∂score/∂h numerically against the closed form in apply().
        let base: Vec<f32> = m.entities.row(0).to_vec();
        #[allow(clippy::needless_range_loop)] // `i` perturbs rows of two clones, not just `base`
        for i in 0..6 {
            let mut mp = ComplEx {
                entities: m.entities.clone(),
                relations: m.relations.clone(),
                half: 3,
            };
            mp.entities.row_mut(0)[i] = base[i] + eps;
            let mut mm = ComplEx {
                entities: m.entities.clone(),
                relations: m.relations.clone(),
                half: 3,
            };
            mm.entities.row_mut(0)[i] = base[i] - eps;
            let numeric = (mp.score(triple) - mm.score(triple)) / (2.0 * eps);
            let j = i / 2;
            let re = m.relations.row(0);
            let te = m.entities.row(1);
            let (c, d) = (re[2 * j], re[2 * j + 1]);
            let (e, f) = (te[2 * j], te[2 * j + 1]);
            let analytic = if i % 2 == 0 {
                c * e + d * f
            } else {
                -d * e + c * f
            };
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "i={i}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn tucker_core_has_expected_shape() {
        let m = TuckEr::new(4, 2, 12, &mut rng());
        assert_eq!(m.core.len(), 12 * 3 * 12);
        assert_eq!(m.relations.dim(), 3);
    }

    #[test]
    #[should_panic(expected = "even dimension")]
    fn complex_odd_dim_panics() {
        let _ = ComplEx::new(3, 1, 7, &mut rng());
    }
}
