//! Semantic-matching models: DistMult \[86\], HolE \[54\], SimplE \[36\] and
//! RotatE \[71\], with hand-derived gradients.
//!
//! DistMult/HolE/SimplE score plausibility multiplicatively and train with
//! the logistic loss; RotatE rotates in complex space and trains with the
//! marginal ranking loss, as in its paper.
//!
//! All four implement the pure gradient ([`PairGradients`]): both the
//! positive and the negative pair's deltas are computed against the same
//! pre-update parameters (the historical in-place `step` let the negative
//! update observe the positive one), which is what lets
//! [`train_batch_recorded`] evaluate pairs in parallel deterministically.

use crate::trainer::{add_delta, train_batch_recorded, Gradients, TrainOptions, Workspace};
use crate::traits::{PairGradients, RelationModel};
use openea_math::loss::{logistic_loss, margin_ranking_loss};
use openea_math::negsamp::RawTriple;
use openea_math::vecops;
use openea_math::{EmbeddingTable, Initializer};
use openea_runtime::rng::Rng;

/// DistMult: `score = Σᵢ hᵢ·rᵢ·tᵢ`, energy = −score.
pub struct DistMult {
    pub entities: EmbeddingTable,
    pub relations: EmbeddingTable,
}

impl DistMult {
    const ENT: u16 = 0;
    const REL: u16 = 1;

    pub fn new<R: Rng>(num_entities: usize, num_relations: usize, dim: usize, rng: &mut R) -> Self {
        Self {
            entities: EmbeddingTable::new(num_entities, dim, Initializer::Unit, rng),
            relations: EmbeddingTable::new(num_relations, dim, Initializer::Unit, rng),
        }
    }

    fn score(&self, (h, r, t): RawTriple) -> f32 {
        let he = self.entities.row(h as usize);
        let re = self.relations.row(r as usize);
        let te = self.entities.row(t as usize);
        he.iter().zip(re).zip(te).map(|((a, b), c)| a * b * c).sum()
    }

    /// Records `−d(−score)/dθ · coeff · lr` for all three operands.
    fn emit(&self, (h, r, t): RawTriple, coeff: f32, lr: f32, out: &mut Gradients) {
        let dim = self.entities.dim();
        let he = self.entities.row(h as usize);
        let re = self.relations.row(r as usize);
        let te = self.entities.row(t as usize);
        let s = coeff * lr;
        // energy = −score, so d(energy)/dh = −r⊙t, etc.
        let gh = out.push(Self::ENT, h as usize, dim);
        for i in 0..dim {
            gh[i] = s * re[i] * te[i];
        }
        let gr = out.push(Self::REL, r as usize, dim);
        for i in 0..dim {
            gr[i] = s * he[i] * te[i];
        }
        let gt = out.push(Self::ENT, t as usize, dim);
        for i in 0..dim {
            gt[i] = s * he[i] * re[i];
        }
    }
}

impl RelationModel for DistMult {
    fn name(&self) -> &'static str {
        "DistMult"
    }

    fn energy(&self, t: RawTriple) -> f32 {
        -self.score(t)
    }

    fn train_batch(
        &mut self,
        pairs: &[(RawTriple, RawTriple)],
        opts: &TrainOptions,
        ws: &mut Workspace,
        total: &mut f64,
    ) {
        train_batch_recorded(self, pairs, opts, ws, total);
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

impl PairGradients for DistMult {
    fn pair_gradients(&self, pos: RawTriple, neg: RawTriple, lr: f32, out: &mut Gradients) -> f32 {
        let (loss, gp, gn) = logistic_loss(self.energy(pos), self.energy(neg));
        self.emit(pos, gp, lr, out);
        self.emit(neg, gn, lr, out);
        loss
    }

    fn apply_gradients(&mut self, grads: &Gradients) {
        for (table, row, delta) in grads.iter() {
            let dst = if table == Self::ENT {
                self.entities.row_mut(row)
            } else {
                self.relations.row_mut(row)
            };
            add_delta(dst, delta);
        }
    }
}

/// HolE: holographic embeddings via circular correlation:
/// `score = r · (h ⋆ t)`, `(h ⋆ t)ₖ = Σᵢ hᵢ·t₍ᵢ₊ₖ₎ mod d`.
pub struct HolE {
    pub entities: EmbeddingTable,
    pub relations: EmbeddingTable,
}

impl HolE {
    const ENT: u16 = 0;
    const REL: u16 = 1;

    pub fn new<R: Rng>(num_entities: usize, num_relations: usize, dim: usize, rng: &mut R) -> Self {
        Self {
            entities: EmbeddingTable::new(num_entities, dim, Initializer::Unit, rng),
            relations: EmbeddingTable::new(num_relations, dim, Initializer::Unit, rng),
        }
    }

    fn score(&self, (h, r, t): RawTriple) -> f32 {
        let d = self.entities.dim();
        let he = self.entities.row(h as usize);
        let re = self.relations.row(r as usize);
        let te = self.entities.row(t as usize);
        let mut s = 0.0;
        for k in 0..d {
            let mut corr = 0.0;
            for i in 0..d {
                corr += he[i] * te[(i + k) % d];
            }
            s += re[k] * corr;
        }
        s
    }

    fn emit(&self, (h, r, t): RawTriple, coeff: f32, lr: f32, out: &mut Gradients) {
        let d = self.entities.dim();
        let he: Vec<f32> = self.entities.row(h as usize).to_vec();
        let re: Vec<f32> = self.relations.row(r as usize).to_vec();
        let te: Vec<f32> = self.entities.row(t as usize).to_vec();
        let s = coeff * lr;
        // energy = −score; d(score)/dhᵢ = Σₖ rₖ·t₍ᵢ₊ₖ₎; d/dtⱼ = Σₖ rₖ·h₍ⱼ₋ₖ₎;
        // d/drₖ = (h ⋆ t)ₖ.
        let ghs = out.push(Self::ENT, h as usize, d);
        for (i, o) in ghs.iter_mut().enumerate() {
            let mut gh = 0.0;
            for k in 0..d {
                gh += re[k] * te[(i + k) % d];
            }
            *o = s * gh;
        }
        let gts = out.push(Self::ENT, t as usize, d);
        for (i, o) in gts.iter_mut().enumerate() {
            let mut gt = 0.0;
            for k in 0..d {
                gt += re[k] * he[(i + d - k % d) % d];
            }
            *o = s * gt;
        }
        let grs = out.push(Self::REL, r as usize, d);
        for (i, o) in grs.iter_mut().enumerate() {
            let mut gr = 0.0;
            for k in 0..d {
                gr += he[k] * te[(k + i) % d];
            }
            *o = s * gr;
        }
    }
}

impl RelationModel for HolE {
    fn name(&self) -> &'static str {
        "HolE"
    }

    fn energy(&self, t: RawTriple) -> f32 {
        -self.score(t)
    }

    fn train_batch(
        &mut self,
        pairs: &[(RawTriple, RawTriple)],
        opts: &TrainOptions,
        ws: &mut Workspace,
        total: &mut f64,
    ) {
        train_batch_recorded(self, pairs, opts, ws, total);
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

impl PairGradients for HolE {
    fn pair_gradients(&self, pos: RawTriple, neg: RawTriple, lr: f32, out: &mut Gradients) -> f32 {
        let (loss, gp, gn) = logistic_loss(self.energy(pos), self.energy(neg));
        self.emit(pos, gp, lr, out);
        self.emit(neg, gn, lr, out);
        loss
    }

    fn apply_gradients(&mut self, grads: &Gradients) {
        for (table, row, delta) in grads.iter() {
            let dst = if table == Self::ENT {
                self.entities.row_mut(row)
            } else {
                self.relations.row_mut(row)
            };
            add_delta(dst, delta);
        }
    }
}

/// SimplE: entities carry head/tail halves, relations a forward and an
/// inverse vector: `score = ½(⟨h_H, r, t_T⟩ + ⟨t_H, r⁻¹, h_T⟩)`.
/// Entity rows are `[head ‖ tail]` of width `2·dim`.
pub struct SimplE {
    pub entities: EmbeddingTable,
    /// Relation rows are `[r ‖ r⁻¹]` of width `2·dim`.
    pub relations: EmbeddingTable,
    half: usize,
}

impl SimplE {
    const ENT: u16 = 0;
    const REL: u16 = 1;

    pub fn new<R: Rng>(num_entities: usize, num_relations: usize, dim: usize, rng: &mut R) -> Self {
        Self {
            entities: EmbeddingTable::new(num_entities, 2 * dim, Initializer::Unit, rng),
            relations: EmbeddingTable::new(num_relations, 2 * dim, Initializer::Unit, rng),
            half: dim,
        }
    }

    fn score(&self, (h, r, t): RawTriple) -> f32 {
        let d = self.half;
        let he = self.entities.row(h as usize);
        let re = self.relations.row(r as usize);
        let te = self.entities.row(t as usize);
        let mut fwd = 0.0;
        let mut bwd = 0.0;
        for i in 0..d {
            fwd += he[i] * re[i] * te[d + i];
            bwd += te[i] * re[d + i] * he[d + i];
        }
        0.5 * (fwd + bwd)
    }

    fn emit(&self, (h, r, t): RawTriple, coeff: f32, lr: f32, out: &mut Gradients) {
        let d = self.half;
        let he = self.entities.row(h as usize).to_vec();
        let re = self.relations.row(r as usize).to_vec();
        let te = self.entities.row(t as usize).to_vec();
        let s = 0.5 * coeff * lr;
        // Each row's full 2·dim delta: the head half carries the forward
        // term ⟨h_H, r, t_T⟩, the tail half the backward ⟨t_H, r⁻¹, h_T⟩.
        let gh = out.push(Self::ENT, h as usize, 2 * d);
        for i in 0..d {
            gh[i] = s * re[i] * te[d + i];
            gh[d + i] = s * te[i] * re[d + i];
        }
        let gr = out.push(Self::REL, r as usize, 2 * d);
        for i in 0..d {
            gr[i] = s * he[i] * te[d + i];
            gr[d + i] = s * te[i] * he[d + i];
        }
        let gt = out.push(Self::ENT, t as usize, 2 * d);
        for i in 0..d {
            gt[i] = s * re[d + i] * he[d + i];
            gt[d + i] = s * he[i] * re[i];
        }
    }
}

impl RelationModel for SimplE {
    fn name(&self) -> &'static str {
        "SimplE"
    }

    fn energy(&self, t: RawTriple) -> f32 {
        -self.score(t)
    }

    fn train_batch(
        &mut self,
        pairs: &[(RawTriple, RawTriple)],
        opts: &TrainOptions,
        ws: &mut Workspace,
        total: &mut f64,
    ) {
        train_batch_recorded(self, pairs, opts, ws, total);
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

impl PairGradients for SimplE {
    fn pair_gradients(&self, pos: RawTriple, neg: RawTriple, lr: f32, out: &mut Gradients) -> f32 {
        let (loss, gp, gn) = logistic_loss(self.energy(pos), self.energy(neg));
        self.emit(pos, gp, lr, out);
        self.emit(neg, gn, lr, out);
        loss
    }

    fn apply_gradients(&mut self, grads: &Gradients) {
        for (table, row, delta) in grads.iter() {
            let dst = if table == Self::ENT {
                self.entities.row_mut(row)
            } else {
                self.relations.row_mut(row)
            };
            add_delta(dst, delta);
        }
    }
}

/// RotatE: relations are rotations in ℂ^(d/2):
/// `φ = ‖h ∘ r − t‖²` with `|rᵢ| = 1`. Entity rows interleave (re, im);
/// relation rows store the phase θ per complex component.
pub struct RotatE {
    pub entities: EmbeddingTable,
    /// Phases θ, width `dim/2`.
    pub phases: EmbeddingTable,
    pub margin: f32,
    half: usize,
}

impl RotatE {
    const ENT: u16 = 0;
    const PHASE: u16 = 1;

    /// `dim` must be even (complex pairs).
    pub fn new<R: Rng>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        margin: f32,
        rng: &mut R,
    ) -> Self {
        assert!(dim.is_multiple_of(2), "RotatE needs an even dimension");
        Self {
            entities: EmbeddingTable::new(num_entities, dim, Initializer::Unit, rng),
            phases: EmbeddingTable::new(
                num_relations,
                dim / 2,
                Initializer::Uniform {
                    scale: std::f32::consts::PI,
                },
                rng,
            ),
            margin,
            half: dim / 2,
        }
    }

    /// Residual `u = h ∘ r − t` as interleaved complex pairs.
    fn residual(&self, (h, r, t): RawTriple) -> Vec<f32> {
        let he = self.entities.row(h as usize);
        let te = self.entities.row(t as usize);
        let th = self.phases.row(r as usize);
        let mut u = vec![0.0; 2 * self.half];
        for j in 0..self.half {
            let (a, b) = (he[2 * j], he[2 * j + 1]);
            let (c, s) = (th[j].cos(), th[j].sin());
            // (a + bi)(c + si) = (ac − bs) + (as + bc)i
            u[2 * j] = a * c - b * s - te[2 * j];
            u[2 * j + 1] = a * s + b * c - te[2 * j + 1];
        }
        u
    }

    fn emit(&self, (h, r, t): RawTriple, coeff: f32, u: &[f32], lr: f32, out: &mut Gradients) {
        let s2 = 2.0 * coeff * lr;
        let th = self.phases.row(r as usize).to_vec();
        let he = self.entities.row(h as usize).to_vec();
        let gh = out.push(Self::ENT, h as usize, 2 * self.half);
        for j in 0..self.half {
            let (c, s) = (th[j].cos(), th[j].sin());
            let (ur, ui) = (u[2 * j], u[2 * j + 1]);
            // dφ/dh = 2·conj(r)∘u : (ur + i·ui)(c − i·s)
            gh[2 * j] = -(s2 * (ur * c + ui * s));
            gh[2 * j + 1] = -(s2 * (-ur * s + ui * c));
        }
        // dφ/dt = −2u
        let gt = out.push(Self::ENT, t as usize, 2 * self.half);
        for j in 0..self.half {
            gt[2 * j] = s2 * u[2 * j];
            gt[2 * j + 1] = s2 * u[2 * j + 1];
        }
        let gp = out.push(Self::PHASE, r as usize, self.half);
        for j in 0..self.half {
            let (c, s) = (th[j].cos(), th[j].sin());
            let (ur, ui) = (u[2 * j], u[2 * j + 1]);
            // p = h∘r; dφ/dθ = 2·Re(conj(u)·i·p) = 2(−ur·p_im + ui·p_re)
            let (a, b) = (he[2 * j], he[2 * j + 1]);
            let pr = a * c - b * s;
            let pi = a * s + b * c;
            gp[j] = -(s2 * (-ur * pi + ui * pr));
        }
    }
}

impl RelationModel for RotatE {
    fn name(&self) -> &'static str {
        "RotatE"
    }

    fn energy(&self, t: RawTriple) -> f32 {
        vecops::norm2_sq(&self.residual(t))
    }

    fn train_batch(
        &mut self,
        pairs: &[(RawTriple, RawTriple)],
        opts: &TrainOptions,
        ws: &mut Workspace,
        total: &mut f64,
    ) {
        train_batch_recorded(self, pairs, opts, ws, total);
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

impl PairGradients for RotatE {
    fn pair_gradients(&self, pos: RawTriple, neg: RawTriple, lr: f32, out: &mut Gradients) -> f32 {
        let up = self.residual(pos);
        let un = self.residual(neg);
        let (loss, gp, gn) =
            margin_ranking_loss(vecops::norm2_sq(&up), vecops::norm2_sq(&un), self.margin);
        if loss > 0.0 {
            self.emit(pos, gp, &up, lr, out);
            self.emit(neg, gn, &un, lr, out);
        }
        loss
    }

    fn apply_gradients(&mut self, grads: &Gradients) {
        for (table, row, delta) in grads.iter() {
            let dst = if table == Self::ENT {
                self.entities.row_mut(row)
            } else {
                self.phases.row_mut(row)
            };
            add_delta(dst, delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::assert_model_learns;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1234)
    }

    #[test]
    fn distmult_learns_toy_structure() {
        assert_model_learns(DistMult::new(20, 2, 16, &mut rng()), 20, 80, 0.05);
    }

    #[test]
    fn hole_learns_toy_structure() {
        assert_model_learns(HolE::new(20, 2, 16, &mut rng()), 20, 80, 0.05);
    }

    #[test]
    fn simple_learns_toy_structure() {
        assert_model_learns(SimplE::new(20, 2, 8, &mut rng()), 20, 120, 0.08);
    }

    #[test]
    fn rotate_learns_toy_structure() {
        assert_model_learns(RotatE::new(20, 2, 16, 2.0, &mut rng()), 20, 80, 0.05);
    }

    #[test]
    fn rotate_preserves_modulus() {
        // A rotation cannot change the complex modulus of h: |h∘r| = |h|.
        let m = RotatE::new(4, 2, 8, 1.0, &mut rng());
        let u0 = m.residual((0, 0, 0));
        // ‖h∘r − h‖ is bounded by 2|h| — sanity that residual is finite.
        assert!(u0.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn rotate_zero_phase_is_translation_free() {
        let mut m = RotatE::new(3, 1, 8, 1.0, &mut rng());
        m.phases.row_mut(0).fill(0.0);
        // With θ = 0: u = h − t, so energy(h, r, h) = 0.
        assert!(m.energy((1, 0, 1)) < 1e-10);
    }

    #[test]
    fn distmult_cannot_model_antisymmetry() {
        // DistMult scores (h, r, t) and (t, r, h) identically — the known
        // limitation that motivates RotatE/SimplE.
        let m = DistMult::new(5, 1, 8, &mut rng());
        assert!((m.score((1, 0, 3)) - m.score((3, 0, 1))).abs() < 1e-6);
    }

    #[test]
    fn simple_scores_directionally() {
        // SimplE can give different scores to (h, r, t) and (t, r, h).
        let m = SimplE::new(5, 1, 8, &mut rng());
        assert!((m.score((1, 0, 3)) - m.score((3, 0, 1))).abs() > 1e-6);
    }

    /// Numeric gradient check for the semantic models' score functions.
    #[test]
    fn score_gradients_match_finite_differences() {
        let eps = 1e-3;
        // DistMult: d(score)/dh = r⊙t.
        let m = DistMult::new(3, 1, 6, &mut rng());
        let triple = (0u32, 0u32, 1u32);
        let base: Vec<f32> = m.entities.row(0).to_vec();
        #[allow(clippy::needless_range_loop)] // `i` perturbs rows of two clones, not just `base`
        for i in 0..6 {
            let mut mp = DistMult {
                entities: m.entities.clone(),
                relations: m.relations.clone(),
            };
            mp.entities.row_mut(0)[i] = base[i] + eps;
            let mut mm = DistMult {
                entities: m.entities.clone(),
                relations: m.relations.clone(),
            };
            mm.entities.row_mut(0)[i] = base[i] - eps;
            let numeric = (mp.score(triple) - mm.score(triple)) / (2.0 * eps);
            let analytic = m.relations.row(0)[i] * m.entities.row(1)[i];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "i={i}: {numeric} vs {analytic}"
            );
        }
    }

    /// Verifies HolE's hand gradient by a finite-difference probe through
    /// the actual update (step with a fixed loss coefficient).
    #[test]
    fn hole_update_decreases_energy_of_positive() {
        let mut m = HolE::new(4, 1, 8, &mut rng());
        let pos = (0u32, 0u32, 1u32);
        let neg = (0u32, 0u32, 2u32);
        let before = m.energy(pos);
        for _ in 0..20 {
            m.step(pos, neg, 0.1);
        }
        assert!(m.energy(pos) < before);
    }

    #[test]
    fn rotate_update_decreases_violation() {
        let mut m = RotatE::new(4, 1, 8, 2.0, &mut rng());
        let pos = (0u32, 0u32, 1u32);
        let neg = (0u32, 0u32, 2u32);
        let before = m.energy(pos) - m.energy(neg);
        for _ in 0..20 {
            m.step(pos, neg, 0.05);
        }
        assert!(m.energy(pos) - m.energy(neg) < before);
    }

    #[test]
    #[should_panic(expected = "even dimension")]
    fn rotate_odd_dim_panics() {
        let _ = RotatE::new(3, 1, 7, 1.0, &mut rng());
    }
}
