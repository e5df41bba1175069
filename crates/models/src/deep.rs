//! Deep models trained through the autodiff tape: ProjE \[66\] and ConvE \[13\].
//!
//! Both are trained pairwise with a hinge loss on the tape (the margin
//! counterpart of their original objectives), which keeps them compatible
//! with the shared [`RelationModel`] interface. Each step builds a small
//! graph over only the involved embedding rows plus the dense parameters, so
//! a step costs O(d²) regardless of KG size.

use crate::trainer::{train_batch_stepwise, TrainOptions, Workspace};
use crate::traits::RelationModel;
use openea_autodiff::{Graph, Tensor, Var};
use openea_math::negsamp::RawTriple;
use openea_math::{EmbeddingTable, Initializer};
use openea_runtime::rng::Rng;

/// ProjE: combination `e = tanh(dₑ⊙h + dᵣ⊙r + b)`, score `= e·t`.
pub struct ProjE {
    pub entities: EmbeddingTable,
    pub relations: EmbeddingTable,
    /// Combination weights dₑ, dᵣ and bias b, each `1×dim`.
    pub de: Tensor,
    pub dr: Tensor,
    pub bias: Tensor,
    pub margin: f32,
    /// The training tape, reset per step so its buffer pool stays warm.
    tape: Graph,
}

impl ProjE {
    pub fn new<R: Rng>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        margin: f32,
        rng: &mut R,
    ) -> Self {
        Self {
            entities: EmbeddingTable::new(num_entities, dim, Initializer::Unit, rng),
            relations: EmbeddingTable::new(num_relations, dim, Initializer::Unit, rng),
            de: Tensor::from_vec(1, dim, vec![1.0; dim]),
            dr: Tensor::from_vec(1, dim, vec![1.0; dim]),
            bias: Tensor::zeros(1, dim),
            margin,
            tape: Graph::new(),
        }
    }

    /// Builds the score node for a triple on `g`; returns
    /// `(score, h_var, r_var, t_var)`.
    fn score_node(
        &self,
        g: &mut Graph,
        de: Var,
        dr: Var,
        b: Var,
        triple: RawTriple,
    ) -> (Var, Var, Var, Var) {
        let (h, r, t) = triple;
        let dim = self.entities.dim();
        let hv = g.leaf_slice(1, dim, self.entities.row(h as usize));
        let rv = g.leaf_slice(1, dim, self.relations.row(r as usize));
        let tv = g.leaf_slice(1, dim, self.entities.row(t as usize));
        let he = g.mul(hv, de);
        let re = g.mul(rv, dr);
        let sum = g.add(he, re);
        let sum_b = g.add(sum, b);
        let e = g.tanh(sum_b);
        let prod = g.mul(e, tv);
        let score = g.sum(prod);
        (score, hv, rv, tv)
    }
}

impl RelationModel for ProjE {
    fn name(&self) -> &'static str {
        "ProjE"
    }

    fn energy(&self, triple: RawTriple) -> f32 {
        let mut g = Graph::new();
        let de = g.leaf_from(&self.de);
        let dr = g.leaf_from(&self.dr);
        let b = g.leaf_from(&self.bias);
        let (score, ..) = self.score_node(&mut g, de, dr, b, triple);
        -g.value(score).item()
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
        // Taken out for the step: `score_node` borrows the tables beside it.
        let mut g = std::mem::take(&mut self.tape);
        g.reset();
        let de = g.leaf_from(&self.de);
        let dr = g.leaf_from(&self.dr);
        let b = g.leaf_from(&self.bias);
        let (sp, hp, rp, tp) = self.score_node(&mut g, de, dr, b, pos);
        let (sn, hn, rn, tn) = self.score_node(&mut g, de, dr, b, neg);
        // hinge(margin − s⁺ + s⁻)
        let diff = g.sub(sn, sp);
        let m = g.leaf_slice(1, 1, &[self.margin]);
        let arg = g.add(diff, m);
        let loss = g.relu(arg);
        let lv = g.value(loss).item();
        if lv > 0.0 {
            g.backward(loss);
            for (var, (table_row, which)) in [
                (hp, (pos.0, 0u8)),
                (rp, (pos.1, 1)),
                (tp, (pos.2, 0)),
                (hn, (neg.0, 0)),
                (rn, (neg.1, 1)),
                (tn, (neg.2, 0)),
            ] {
                let table = if which == 0 {
                    &mut self.entities
                } else {
                    &mut self.relations
                };
                table.sgd_row(table_row as usize, g.grad_ref(var).row(0), lr);
            }
            for (param, var) in [(&mut self.de, de), (&mut self.dr, dr), (&mut self.bias, b)] {
                for (p, gg) in param.data.iter_mut().zip(&g.grad_ref(var).data) {
                    *p -= lr * gg;
                }
            }
        }
        self.tape = g;
        lv
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

/// ConvE: the stacked `[h; r]` image is convolved, projected back to entity
/// space and matched against `t` by dot product.
pub struct ConvE {
    pub entities: EmbeddingTable,
    pub relations: EmbeddingTable,
    /// `k × (kh·kw)` convolution filters.
    pub filters: Tensor,
    /// Projection `k·oh·ow × dim`.
    pub w: Tensor,
    pub margin: f32,
    /// The training tape, reset per step so its buffer pool stays warm.
    tape: Graph,
    img_h: usize,
    img_w: usize,
    kh: usize,
    kw: usize,
}

impl ConvE {
    /// `dim` must be expressible as `ih·iw` with the stacked image
    /// `2·ih × iw`; we use `iw = 4`, so `dim` must be a multiple of 4.
    pub fn new<R: Rng>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        margin: f32,
        rng: &mut R,
    ) -> Self {
        assert!(
            dim.is_multiple_of(4) && dim >= 8,
            "ConvE needs dim ≡ 0 (mod 4), ≥ 8"
        );
        let iw = 4;
        let ih = dim / iw;
        let (img_h, img_w) = (2 * ih, iw);
        let (kh, kw) = (3, 3);
        let k = 4usize;
        let (oh, ow) = (img_h - kh + 1, img_w - kw + 1);
        Self {
            entities: EmbeddingTable::new(num_entities, dim, Initializer::Unit, rng),
            relations: EmbeddingTable::new(num_relations, dim, Initializer::Unit, rng),
            filters: Tensor::xavier(k, kh * kw, rng),
            w: Tensor::xavier(k * oh * ow, dim, rng),
            margin,
            tape: Graph::new(),
            img_h,
            img_w,
            kh,
            kw,
        }
    }

    fn score_node(
        &self,
        g: &mut Graph,
        filt: Var,
        w: Var,
        triple: RawTriple,
    ) -> (Var, Var, Var, Var) {
        let (h, r, t) = triple;
        let dim = self.entities.dim();
        let hv = g.leaf_slice(1, dim, self.entities.row(h as usize));
        let rv = g.leaf_slice(1, dim, self.relations.row(r as usize));
        let tv = g.leaf_slice(1, dim, self.entities.row(t as usize));
        let img = g.concat_cols(hv, rv); // [1, 2·dim] ≙ [2·ih, iw] image
        let conv = g.conv2d(img, filt, self.img_h, self.img_w, self.kh, self.kw);
        let act = g.relu(conv);
        let proj = g.matmul(act, w); // [1, dim]
        let feat = g.relu(proj);
        let prod = g.mul(feat, tv);
        let score = g.sum(prod);
        (score, hv, rv, tv)
    }
}

impl RelationModel for ConvE {
    fn name(&self) -> &'static str {
        "ConvE"
    }

    fn energy(&self, triple: RawTriple) -> f32 {
        let mut g = Graph::new();
        let f = g.leaf_from(&self.filters);
        let w = g.leaf_from(&self.w);
        let (score, ..) = self.score_node(&mut g, f, w, triple);
        -g.value(score).item()
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
        // Taken out for the step: `score_node` borrows the tables beside it.
        let mut g = std::mem::take(&mut self.tape);
        g.reset();
        let f = g.leaf_from(&self.filters);
        let w = g.leaf_from(&self.w);
        let (sp, hp, rp, tp) = self.score_node(&mut g, f, w, pos);
        let (sn, hn, rn, tn) = self.score_node(&mut g, f, w, neg);
        let diff = g.sub(sn, sp);
        let m = g.leaf_slice(1, 1, &[self.margin]);
        let arg = g.add(diff, m);
        let loss = g.relu(arg);
        let lv = g.value(loss).item();
        if lv > 0.0 {
            g.backward(loss);
            for (var, row, is_rel) in [
                (hp, pos.0, false),
                (rp, pos.1, true),
                (tp, pos.2, false),
                (hn, neg.0, false),
                (rn, neg.1, true),
                (tn, neg.2, false),
            ] {
                let table = if is_rel {
                    &mut self.relations
                } else {
                    &mut self.entities
                };
                table.sgd_row(row as usize, g.grad_ref(var).row(0), lr);
            }
            for (param, var) in [(&mut self.filters, f), (&mut self.w, w)] {
                for (p, gg) in param.data.iter_mut().zip(&g.grad_ref(var).data) {
                    *p -= lr * gg;
                }
            }
        }
        self.tape = g;
        lv
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
        SmallRng::seed_from_u64(55)
    }

    #[test]
    fn proje_learns_toy_structure() {
        assert_model_learns(ProjE::new(20, 2, 16, 1.0, &mut rng()), 20, 60, 0.05);
    }

    #[test]
    fn conve_learns_toy_structure() {
        assert_model_learns(ConvE::new(20, 2, 16, 1.0, &mut rng()), 20, 50, 0.05);
    }

    #[test]
    fn proje_step_reduces_violation() {
        let mut m = ProjE::new(4, 1, 8, 2.0, &mut rng());
        let pos = (0u32, 0u32, 1u32);
        let neg = (0u32, 0u32, 2u32);
        let before = m.energy(pos) - m.energy(neg);
        for _ in 0..25 {
            m.step(pos, neg, 0.05);
        }
        assert!(m.energy(pos) - m.energy(neg) < before);
    }

    #[test]
    fn conve_step_reduces_violation() {
        let mut m = ConvE::new(4, 1, 16, 2.0, &mut rng());
        let pos = (0u32, 0u32, 1u32);
        let neg = (0u32, 0u32, 2u32);
        let before = m.energy(pos) - m.energy(neg);
        for _ in 0..25 {
            m.step(pos, neg, 0.05);
        }
        assert!(m.energy(pos) - m.energy(neg) < before);
    }

    #[test]
    #[should_panic(expected = "mod 4")]
    fn conve_bad_dim_panics() {
        let _ = ConvE::new(4, 1, 10, 1.0, &mut rng());
    }

    #[test]
    fn energies_are_finite() {
        let p = ProjE::new(6, 2, 8, 1.0, &mut rng());
        let c = ConvE::new(6, 2, 16, 1.0, &mut rng());
        for h in 0..6u32 {
            assert!(p.energy((h, h % 2, (h + 1) % 6)).is_finite());
            assert!(c.energy((h, h % 2, (h + 1) % 6)).is_finite());
        }
    }
}
