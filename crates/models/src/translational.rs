//! The translational family: TransE \[5\], TransH \[82\], TransR \[49\] and
//! TransD \[33\], with hand-derived gradients and the marginal ranking loss.
//!
//! Energies use the squared L2 norm (or L1 for TransE when configured);
//! margins are calibrated to that convention. All four models implement the
//! pure gradient ([`PairGradients`]): deltas are recorded against the
//! current parameters in the same per-location order the historical
//! in-place updates used. TransH, TransR and TransD train through it
//! ([`train_batch_recorded`]); TransE trains through a kernel of its own
//! and keeps the recorded gradient as the reference the kernel is tested
//! against.

use crate::trainer::{add_delta, train_batch_recorded, Gradients, TrainOptions, Workspace};
use crate::traits::{PairGradients, RelationModel};
use openea_math::loss::margin_ranking_loss;
use openea_math::negsamp::RawTriple;
use openea_math::vecops;
use openea_math::{EmbeddingTable, Initializer, Matrix};
use openea_runtime::rng::Rng;

/// Vector norm used in a TransE energy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Norm {
    L1,
    /// Squared Euclidean norm.
    L2Sq,
}

/// Pairwise loss driving a TransE step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossKind {
    /// `max(0, γ + φ⁺ − φ⁻)`.
    Margin,
    /// BootEA's limit-based loss: `max(0, φ⁺ − λ₁) + μ·max(0, λ₂ − φ⁻)`.
    Limit {
        lambda_pos: f32,
        lambda_neg: f32,
        mu: f32,
    },
}

/// TransE: `φ(h, r, t) = ‖h + r − t‖`.
pub struct TransE {
    pub entities: EmbeddingTable,
    pub relations: EmbeddingTable,
    pub margin: f32,
    pub norm: Norm,
    pub loss: LossKind,
}

impl TransE {
    const ENT: u16 = 0;
    const REL: u16 = 1;

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
            margin,
            norm: Norm::L2Sq,
            loss: LossKind::Margin,
        }
    }

    /// The energy `‖h + r − t‖`, streamed with no difference buffer. The
    /// fold replicates `vecops::norm1`/`norm2_sq` over a materialized
    /// difference vector exactly (`f32` iterator sums seed from `-0.0` and
    /// accumulate sequentially), so the result is bit-identical to the
    /// historical allocate-then-norm path.
    fn phi(&self, (h, r, t): RawTriple) -> f32 {
        let he = self.entities.row(h as usize);
        let re = self.relations.row(r as usize);
        let te = self.entities.row(t as usize);
        let mut acc = -0.0f32;
        match self.norm {
            Norm::L1 => {
                for i in 0..he.len() {
                    acc += (he[i] + re[i] - te[i]).abs();
                }
            }
            Norm::L2Sq => {
                for i in 0..he.len() {
                    let d = he[i] + re[i] - te[i];
                    acc += d * d;
                }
            }
        }
        acc
    }

    fn loss_terms(&self, np: f32, nn: f32) -> (f32, f32, f32) {
        match self.loss {
            LossKind::Margin => margin_ranking_loss(np, nn, self.margin),
            LossKind::Limit {
                lambda_pos,
                lambda_neg,
                mu,
            } => openea_math::loss::limit_based_loss(np, nn, lambda_pos, lambda_neg, mu),
        }
    }

    /// Records one triple's deltas: `h -= g`, `r -= g`, `t += g` with
    /// `g = coeff·∂φ/∂d·lr`, in that entry order (head entry before tail so
    /// self-loops replay the historical per-location sequence). The
    /// difference vector `d = h + r − t` is recomputed on the fly per
    /// location — `pair_gradients` is read-only, so the recomputed values
    /// (and hence the recorded bits) match a materialized buffer exactly,
    /// and the pathway allocates nothing beyond the arena itself.
    fn emit(&self, (h, r, t): RawTriple, coeff: f32, lr: f32, out: &mut Gradients) {
        let dim = self.entities.dim();
        let he = self.entities.row(h as usize);
        let re = self.relations.row(r as usize);
        let te = self.entities.row(t as usize);
        let g = |i: usize| {
            let d = he[i] + re[i] - te[i];
            match self.norm {
                Norm::L1 => d.signum(),
                Norm::L2Sq => 2.0 * d,
            }
        };
        let gh = out.push(Self::ENT, h as usize, dim);
        for (i, o) in gh.iter_mut().enumerate() {
            *o = -(coeff * g(i) * lr);
        }
        let gr = out.push(Self::REL, r as usize, dim);
        for (i, o) in gr.iter_mut().enumerate() {
            *o = -(coeff * g(i) * lr);
        }
        let gt = out.push(Self::ENT, t as usize, dim);
        for (i, o) in gt.iter_mut().enumerate() {
            *o = coeff * g(i) * lr;
        }
    }

    /// Fused difference-and-energy pass over caller-supplied rows: writes
    /// `d = h + r − t` into `out` while folding the norm in the same
    /// per-location sequence [`TransE::phi`] uses (accumulator seeded from
    /// `-0.0`, one add per location, in order), so the returned energy has
    /// `phi`'s bits whichever copy of the rows it is given.
    fn diff_phi(&self, he: &[f32], re: &[f32], te: &[f32], out: &mut [f32]) -> f32 {
        // Equal-length reslices let the element loops drop their bounds
        // checks; the arithmetic per location is untouched.
        let n = out.len();
        let (he, re, te) = (&he[..n], &re[..n], &te[..n]);
        let mut acc = -0.0f32;
        match self.norm {
            Norm::L1 => {
                for i in 0..n {
                    let d = he[i] + re[i] - te[i];
                    out[i] = d;
                    acc += d.abs();
                }
            }
            Norm::L2Sq => {
                for i in 0..n {
                    let d = he[i] + re[i] - te[i];
                    out[i] = d;
                    acc += d * d;
                }
            }
        }
        acc
    }

    /// One triple's update from its batch-start difference vector `d`,
    /// straight onto the live rows: materializes `v[i] = -(coeff·g(i)·lr)`
    /// once into `v` — the exact expression [`TransE::emit`] records for the
    /// head entry — while applying it to `h`, then replays `r += v`,
    /// `t += −v`. Negation is an exact sign flip, so `−v[i]` carries the bit
    /// pattern of the recorded tail delta `coeff·g(i)·lr`; every written bit
    /// matches the `emit` + `apply_gradients` sequence at a third of the
    /// multiplies.
    fn apply_triple(
        &mut self,
        (h, r, t): RawTriple,
        coeff: f32,
        d: &[f32],
        v: &mut [f32],
        lr: f32,
    ) {
        match self.norm {
            Norm::L1 => {
                for ((o, &x), row) in v.iter_mut().zip(d).zip(self.entities.row_mut(h as usize)) {
                    let g = -(coeff * x.signum() * lr);
                    *o = g;
                    *row += g;
                }
            }
            Norm::L2Sq => {
                for ((o, &x), row) in v.iter_mut().zip(d).zip(self.entities.row_mut(h as usize)) {
                    let g = -(coeff * (2.0 * x) * lr);
                    *o = g;
                    *row += g;
                }
            }
        }
        for (o, &x) in self.relations.row_mut(r as usize).iter_mut().zip(&*v) {
            *o += x;
        }
        for (o, &x) in self.entities.row_mut(t as usize).iter_mut().zip(&*v) {
            *o += -x;
        }
    }
}

impl RelationModel for TransE {
    fn name(&self) -> &'static str {
        "TransE"
    }

    fn energy(&self, triple: RawTriple) -> f32 {
        self.phi(triple)
    }

    /// The copy-on-first-write kernel. Every difference vector and energy is
    /// computed from batch-start rows ([`crate::trainer::FrozenRows`]), every
    /// row is saved before its first write of the batch, and the updates go
    /// straight onto the live rows — bit-identical to recording the whole
    /// batch with [`PairGradients::pair_gradients`] and replaying it in pair
    /// order, at O(rows touched) extra memory. A positive's `negs_per_pos`
    /// pairs are adjacent and read the same frozen rows, so its difference
    /// vector and energy are computed once per run of equal positives.
    /// Inactive pairs (`loss <= 0`) write nothing: the recorded path emits
    /// no entries for them, and adding even a `±0.0` delta is not bitwise
    /// neutral.
    fn train_batch(
        &mut self,
        pairs: &[(RawTriple, RawTriple)],
        opts: &TrainOptions,
        ws: &mut Workspace,
        total: &mut f64,
    ) {
        let dim = self.entities.dim();
        let Workspace {
            entity_rows: ent,
            relation_rows: rel,
            d_pos,
            d_neg,
            delta,
            ..
        } = ws;
        ent.begin_batch(self.entities.count());
        rel.begin_batch(self.relations.count());
        for buf in [&mut *d_pos, &mut *d_neg, &mut *delta] {
            buf.resize(dim, 0.0);
        }
        let mut current: Option<RawTriple> = None;
        let mut np = 0.0f32;
        for &(pos, neg) in pairs {
            if current != Some(pos) {
                current = Some(pos);
                np = self.diff_phi(
                    ent.frozen(&self.entities, pos.0),
                    rel.frozen(&self.relations, pos.1),
                    ent.frozen(&self.entities, pos.2),
                    d_pos,
                );
            }
            let nn = self.diff_phi(
                ent.frozen(&self.entities, neg.0),
                rel.frozen(&self.relations, neg.1),
                ent.frozen(&self.entities, neg.2),
                d_neg,
            );
            let (loss, gp, gn) = self.loss_terms(np, nn);
            if loss > 0.0 {
                for (h, r, t) in [pos, neg] {
                    ent.save(&self.entities, h);
                    rel.save(&self.relations, r);
                    ent.save(&self.entities, t);
                }
                self.apply_triple(pos, gp, d_pos, delta, opts.lr);
                self.apply_triple(neg, gn, d_neg, delta, opts.lr);
            }
            *total += loss as f64;
        }
    }

    fn epoch_hook(&mut self) {
        // TransE's norm constraint: entities on the unit ball.
        self.entities.clip_rows_to_unit_ball();
    }

    fn entities(&self) -> &EmbeddingTable {
        &self.entities
    }

    fn entities_mut(&mut self) -> &mut EmbeddingTable {
        &mut self.entities
    }
}

/// The recorded reference of [`TransE::train_batch`]: the kernel must
/// leave the bits that recording a whole batch with `pair_gradients` and
/// replaying it with `apply_gradients` leaves (`tests/trainer_equivalence.rs`).
impl PairGradients for TransE {
    /// Allocation-free: losses stream through [`TransE::phi`] and the
    /// deltas recompute the difference vectors inside [`TransE::emit`].
    fn pair_gradients(&self, pos: RawTriple, neg: RawTriple, lr: f32, out: &mut Gradients) -> f32 {
        let (loss, gp, gn) = self.loss_terms(self.phi(pos), self.phi(neg));
        if loss > 0.0 {
            self.emit(pos, gp, lr, out);
            self.emit(neg, gn, lr, out);
        }
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

/// TransH: entities are projected onto relation-specific hyperplanes before
/// translation: `φ = ‖(h − wᵀh·w) + d − (t − wᵀt·w)‖²`.
pub struct TransH {
    pub entities: EmbeddingTable,
    /// Translation vector per relation.
    pub d_r: EmbeddingTable,
    /// Unit normal per relation.
    pub w_r: EmbeddingTable,
    pub margin: f32,
}

impl TransH {
    const ENT: u16 = 0;
    const D: u16 = 1;
    const W: u16 = 2;

    pub fn new<R: Rng>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        margin: f32,
        rng: &mut R,
    ) -> Self {
        let mut w_r = EmbeddingTable::new(num_relations, dim, Initializer::Unit, rng);
        w_r.normalize_rows();
        Self {
            entities: EmbeddingTable::new(num_entities, dim, Initializer::Unit, rng),
            d_r: EmbeddingTable::new(num_relations, dim, Initializer::Unit, rng),
            w_r,
            margin,
        }
    }

    /// Residual `u = h⊥ + d − t⊥` for a triple.
    fn residual(&self, (h, r, t): RawTriple) -> Vec<f32> {
        let dim = self.entities.dim();
        let he = self.entities.row(h as usize);
        let te = self.entities.row(t as usize);
        let w = self.w_r.row(r as usize);
        let d = self.d_r.row(r as usize);
        let wh = vecops::dot(w, he);
        let wt = vecops::dot(w, te);
        (0..dim)
            .map(|i| (he[i] - wh * w[i]) + d[i] - (te[i] - wt * w[i]))
            .collect()
    }

    fn emit(&self, (h, r, t): RawTriple, coeff: f32, u: &[f32], lr: f32, out: &mut Gradients) {
        let dim = self.entities.dim();
        let w = self.w_r.row(r as usize);
        let he = self.entities.row(h as usize);
        let te = self.entities.row(t as usize);
        let wu = vecops::dot(w, u);
        // z = h − t enters the w-gradient.
        let wz = he
            .iter()
            .zip(te)
            .zip(w)
            .map(|((a, b), wi)| (a - b) * wi)
            .sum::<f32>();
        let s = 2.0 * coeff * lr;
        let gh = out.push(Self::ENT, h as usize, dim);
        for i in 0..dim {
            gh[i] = -(s * (u[i] - wu * w[i]));
        }
        let gt = out.push(Self::ENT, t as usize, dim);
        for i in 0..dim {
            gt[i] = s * (u[i] - wu * w[i]);
        }
        let gd = out.push(Self::D, r as usize, dim);
        for i in 0..dim {
            gd[i] = -(s * u[i]);
        }
        // ∂φ/∂w = −2[(u·w)z + (w·z)u]
        let gw = out.push(Self::W, r as usize, dim);
        for i in 0..dim {
            gw[i] = s * (wu * (he[i] - te[i]) + wz * u[i]);
        }
    }
}

impl RelationModel for TransH {
    fn name(&self) -> &'static str {
        "TransH"
    }

    fn energy(&self, triple: RawTriple) -> f32 {
        vecops::norm2_sq(&self.residual(triple))
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
        self.w_r.normalize_rows();
    }

    fn entities(&self) -> &EmbeddingTable {
        &self.entities
    }

    fn entities_mut(&mut self) -> &mut EmbeddingTable {
        &mut self.entities
    }
}

impl PairGradients for TransH {
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
            let dst = match table {
                Self::ENT => self.entities.row_mut(row),
                Self::D => self.d_r.row_mut(row),
                _ => self.w_r.row_mut(row),
            };
            add_delta(dst, delta);
        }
    }
}

/// TransR: a relation-specific linear map into relation space:
/// `φ = ‖M_r·h + r − M_r·t‖²`.
pub struct TransR {
    pub entities: EmbeddingTable,
    pub relations: EmbeddingTable,
    /// One `dim×dim` matrix per relation.
    pub maps: Vec<Matrix>,
    pub margin: f32,
}

impl TransR {
    const ENT: u16 = 0;
    const REL: u16 = 1;
    const MAP: u16 = 2;

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
            // Identity-plus-noise init keeps early training stable.
            maps: (0..num_relations)
                .map(|_| {
                    let mut m = Matrix::identity(dim);
                    for v in m.data_mut() {
                        *v += rng.gen_range(-0.05f32..0.05);
                    }
                    m
                })
                .collect(),
            margin,
        }
    }

    fn residual(&self, (h, r, t): RawTriple) -> Vec<f32> {
        let m = &self.maps[r as usize];
        let mh = m.matvec(self.entities.row(h as usize));
        let mt = m.matvec(self.entities.row(t as usize));
        let re = self.relations.row(r as usize);
        mh.iter()
            .zip(re)
            .zip(&mt)
            .map(|((a, b), c)| a + b - c)
            .collect()
    }

    fn emit(&self, (h, r, t): RawTriple, coeff: f32, u: &[f32], lr: f32, out: &mut Gradients) {
        let dim = self.entities.dim();
        let s = 2.0 * coeff * lr;
        // dE/dh = Mᵀu, dE/dt = −Mᵀu, dE/dr = u, dE/dM = u (h−t)ᵀ.
        let mut mtu = vec![0.0; dim];
        self.maps[r as usize].matvec_t_into(u, &mut mtu);
        let he = self.entities.row(h as usize);
        let te = self.entities.row(t as usize);
        let gh = out.push(Self::ENT, h as usize, dim);
        for i in 0..dim {
            gh[i] = -(s * mtu[i]);
        }
        let gt = out.push(Self::ENT, t as usize, dim);
        for i in 0..dim {
            gt[i] = s * mtu[i];
        }
        let gr = out.push(Self::REL, r as usize, dim);
        for i in 0..dim {
            gr[i] = -(s * u[i]);
        }
        let gm = out.push(Self::MAP, r as usize, dim * dim);
        for i in 0..dim {
            for j in 0..dim {
                gm[i * dim + j] = -(s * u[i] * (he[j] - te[j]));
            }
        }
    }
}

impl RelationModel for TransR {
    fn name(&self) -> &'static str {
        "TransR"
    }

    fn energy(&self, triple: RawTriple) -> f32 {
        vecops::norm2_sq(&self.residual(triple))
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
        self.relations.clip_rows_to_unit_ball();
    }

    fn entities(&self) -> &EmbeddingTable {
        &self.entities
    }

    fn entities_mut(&mut self) -> &mut EmbeddingTable {
        &mut self.entities
    }
}

impl PairGradients for TransR {
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
            let dst = match table {
                Self::ENT => self.entities.row_mut(row),
                Self::REL => self.relations.row_mut(row),
                _ => self.maps[row].data_mut(),
            };
            add_delta(dst, delta);
        }
    }
}

/// TransD: dynamic per-pair projections
/// `h⊥ = h + (h_p·h)·r_p`, `φ = ‖h⊥ + r − t⊥‖²`.
pub struct TransD {
    pub entities: EmbeddingTable,
    pub relations: EmbeddingTable,
    pub ent_proj: EmbeddingTable,
    pub rel_proj: EmbeddingTable,
    pub margin: f32,
}

impl TransD {
    const ENT: u16 = 0;
    const REL: u16 = 1;
    const EPROJ: u16 = 2;
    const RPROJ: u16 = 3;

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
            ent_proj: EmbeddingTable::new(
                num_entities,
                dim,
                Initializer::Uniform { scale: 0.1 },
                rng,
            ),
            rel_proj: EmbeddingTable::new(
                num_relations,
                dim,
                Initializer::Uniform { scale: 0.1 },
                rng,
            ),
            margin,
        }
    }

    fn residual(&self, (h, r, t): RawTriple) -> Vec<f32> {
        let he = self.entities.row(h as usize);
        let te = self.entities.row(t as usize);
        let re = self.relations.row(r as usize);
        let hp = self.ent_proj.row(h as usize);
        let tp = self.ent_proj.row(t as usize);
        let rp = self.rel_proj.row(r as usize);
        let hph = vecops::dot(hp, he);
        let tpt = vecops::dot(tp, te);
        (0..he.len())
            .map(|i| (he[i] + hph * rp[i]) + re[i] - (te[i] + tpt * rp[i]))
            .collect()
    }

    fn emit(&self, (h, r, t): RawTriple, coeff: f32, u: &[f32], lr: f32, out: &mut Gradients) {
        let dim = self.entities.dim();
        let s = 2.0 * coeff * lr;
        let he = self.entities.row(h as usize);
        let te = self.entities.row(t as usize);
        let hp = self.ent_proj.row(h as usize);
        let tp = self.ent_proj.row(t as usize);
        let rp = self.rel_proj.row(r as usize);
        let urp = vecops::dot(u, rp);
        let hph = vecops::dot(hp, he);
        let tpt = vecops::dot(tp, te);
        // dφ/dh = 2(u + (u·r_p)·h_p); dφ/dt symmetric negative.
        let gh = out.push(Self::ENT, h as usize, dim);
        for i in 0..dim {
            gh[i] = -(s * (u[i] + urp * hp[i]));
        }
        let gt = out.push(Self::ENT, t as usize, dim);
        for i in 0..dim {
            gt[i] = s * (u[i] + urp * tp[i]);
        }
        let gr = out.push(Self::REL, r as usize, dim);
        for i in 0..dim {
            gr[i] = -(s * u[i]);
        }
        // dφ/dh_p = 2(u·r_p)·h ; dφ/dt_p = −2(u·r_p)·t
        let ghp = out.push(Self::EPROJ, h as usize, dim);
        for i in 0..dim {
            ghp[i] = -(s * urp * he[i]);
        }
        let gtp = out.push(Self::EPROJ, t as usize, dim);
        for i in 0..dim {
            gtp[i] = s * urp * te[i];
        }
        // dφ/dr_p = 2((h_p·h) − (t_p·t))·u
        let grp = out.push(Self::RPROJ, r as usize, dim);
        for i in 0..dim {
            grp[i] = -(s * (hph - tpt) * u[i]);
        }
    }
}

impl RelationModel for TransD {
    fn name(&self) -> &'static str {
        "TransD"
    }

    fn energy(&self, triple: RawTriple) -> f32 {
        vecops::norm2_sq(&self.residual(triple))
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
        self.relations.clip_rows_to_unit_ball();
    }

    fn entities(&self) -> &EmbeddingTable {
        &self.entities
    }

    fn entities_mut(&mut self) -> &mut EmbeddingTable {
        &mut self.entities
    }
}

impl PairGradients for TransD {
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
            let dst = match table {
                Self::ENT => self.entities.row_mut(row),
                Self::REL => self.relations.row_mut(row),
                Self::EPROJ => self.ent_proj.row_mut(row),
                _ => self.rel_proj.row_mut(row),
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
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn transe_learns_toy_structure() {
        let m = TransE::new(20, 2, 16, 0.5, &mut rng());
        assert_model_learns(m, 20, 60, 0.05);
    }

    #[test]
    fn transe_l1_learns_too() {
        let mut m = TransE::new(20, 2, 16, 0.5, &mut rng());
        m.norm = Norm::L1;
        assert_model_learns(m, 20, 60, 0.02);
    }

    #[test]
    fn transh_learns_toy_structure() {
        let m = TransH::new(20, 2, 16, 0.5, &mut rng());
        assert_model_learns(m, 20, 60, 0.05);
    }

    #[test]
    fn transr_learns_toy_structure() {
        let m = TransR::new(20, 2, 16, 0.5, &mut rng());
        assert_model_learns(m, 20, 80, 0.02);
    }

    #[test]
    fn transd_learns_toy_structure() {
        let m = TransD::new(20, 2, 16, 0.5, &mut rng());
        assert_model_learns(m, 20, 60, 0.05);
    }

    #[test]
    fn transe_energy_zero_for_exact_translation() {
        let mut m = TransE::new(2, 1, 4, 1.0, &mut rng());
        m.entities.row_mut(0).copy_from_slice(&[0.1, 0.2, 0.3, 0.4]);
        m.relations
            .row_mut(0)
            .copy_from_slice(&[0.01, 0.02, 0.03, 0.04]);
        m.entities
            .row_mut(1)
            .copy_from_slice(&[0.11, 0.22, 0.33, 0.44]);
        assert!(m.energy((0, 0, 1)) < 1e-10);
    }

    #[test]
    fn transh_projection_is_invariant_along_normal() {
        // Moving h along w must not change the energy.
        let mut m = TransH::new(2, 1, 4, 1.0, &mut rng());
        let e0 = m.energy((0, 0, 1));
        let w: Vec<f32> = m.w_r.row(0).to_vec();
        for (x, wi) in m.entities.row_mut(0).iter_mut().zip(&w) {
            *x += 0.37 * wi;
        }
        let e1 = m.energy((0, 0, 1));
        assert!((e0 - e1).abs() < 1e-4, "{e0} vs {e1}");
    }

    /// Finite-difference check of one model's step direction: after a step
    /// on a violated pair, the margin violation must not increase.
    #[test]
    fn steps_reduce_violation() {
        for which in 0..4 {
            let mut rng = rng();
            let pos = (0u32, 0u32, 1u32);
            let neg = (0u32, 0u32, 2u32);
            let mut before = 0.0;
            let mut after = 0.0;
            let mut run = |m: &mut dyn RelationModel| {
                before = m.energy(pos) - m.energy(neg);
                for _ in 0..10 {
                    m.step(pos, neg, 0.05);
                }
                after = m.energy(pos) - m.energy(neg);
            };
            match which {
                0 => run(&mut TransE::new(3, 1, 8, 2.0, &mut rng)),
                1 => run(&mut TransH::new(3, 1, 8, 2.0, &mut rng)),
                2 => run(&mut TransR::new(3, 1, 8, 2.0, &mut rng)),
                _ => run(&mut TransD::new(3, 1, 8, 2.0, &mut rng)),
            }
            assert!(after < before, "model {which}: {before} -> {after}");
        }
    }

    /// The derived `step` (pair_gradients → apply_gradients) must leave a
    /// self-loop triple's aliased head/tail row finite and updated once per
    /// recorded entry — the ordered, uncoalesced arena is what guarantees
    /// this matches the historical in-place write sequence.
    #[test]
    fn self_loop_pair_keeps_parameters_finite() {
        for which in 0..4 {
            let mut rng = rng();
            let run = |m: &mut dyn RelationModel| {
                for _ in 0..5 {
                    m.step((0, 0, 0), (0, 0, 2), 0.1);
                }
                assert!(
                    m.entities().data().iter().all(|v| v.is_finite()),
                    "{}: non-finite after self-loop steps",
                    m.name()
                );
            };
            match which {
                0 => run(&mut TransE::new(3, 1, 8, 2.0, &mut rng)),
                1 => run(&mut TransH::new(3, 1, 8, 2.0, &mut rng)),
                2 => run(&mut TransR::new(3, 1, 8, 2.0, &mut rng)),
                _ => run(&mut TransD::new(3, 1, 8, 2.0, &mut rng)),
            }
        }
    }
}
