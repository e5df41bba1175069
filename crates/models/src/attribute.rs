//! Attribute-correlation embedding (JAPE's AC2Vec \[72\]).
//!
//! Attributes that co-occur on the same entity (longitude/latitude,
//! birth-date/birth-place) are pushed together by a skip-gram-style
//! objective `max Σ log σ(a₁·a₂)` with negative sampling. Entities are then
//! represented by the mean of their attribute vectors; similar entities have
//! similar correlated attributes. Note the paper's finding that this signal
//! is *coarse* and fails across KGs without pre-aligned attributes — our
//! implementation reproduces exactly that behaviour because the two KGs'
//! attribute spaces only connect through attributes with identical names.

use openea_math::vecops::{self, sigmoid};
use openea_math::{EmbeddingTable, Initializer};
use openea_runtime::rng::Rng;

/// Skip-gram over attribute co-occurrence.
pub struct AttrCorrelationModel {
    pub attrs: EmbeddingTable,
    /// A step's copies of its three rows, taken before any update.
    scratch: Vec<f32>,
}

impl AttrCorrelationModel {
    pub fn new<R: Rng>(num_attrs: usize, dim: usize, rng: &mut R) -> Self {
        Self {
            attrs: EmbeddingTable::new(num_attrs, dim, Initializer::Unit, rng),
            scratch: vec![0.0; 3 * dim],
        }
    }

    /// Probability that two attributes are correlated (Eq. 4).
    pub fn correlation(&self, a1: u32, a2: u32) -> f32 {
        sigmoid(vecops::dot(
            self.attrs.row(a1 as usize),
            self.attrs.row(a2 as usize),
        ))
    }

    /// One positive/negative update: raise `σ(a₁·a₂)`, lower `σ(a₁·a_neg)`.
    /// Returns the pair loss.
    pub fn step(&mut self, a1: u32, a2: u32, a_neg: u32, lr: f32) -> f32 {
        let p_pos = self.correlation(a1, a2);
        let p_neg = self.correlation(a1, a_neg);
        let loss = -(p_pos.max(1e-7).ln()) - (1.0 - p_neg).max(1e-7).ln();
        // d(-ln σ(x))/dx = σ(x) − 1 ; d(-ln(1−σ(x)))/dx = σ(x)
        let g_pos = p_pos - 1.0;
        let g_neg = p_neg;
        let dim = self.attrs.dim();
        // Copied before any update: `a_neg` may be `a1` or `a2`.
        let (a1v, rest) = self.scratch.split_at_mut(dim);
        let (a2v, anv) = rest.split_at_mut(dim);
        a1v.copy_from_slice(self.attrs.row(a1 as usize));
        a2v.copy_from_slice(self.attrs.row(a2 as usize));
        anv.copy_from_slice(self.attrs.row(a_neg as usize));
        for i in 0..dim {
            self.attrs.row_mut(a1 as usize)[i] -= lr * (g_pos * a2v[i] + g_neg * anv[i]);
            self.attrs.row_mut(a2 as usize)[i] -= lr * g_pos * a1v[i];
            if a_neg != a2 && a_neg != a1 {
                self.attrs.row_mut(a_neg as usize)[i] -= lr * g_neg * a1v[i];
            }
        }
        loss
    }

    /// Trains on per-entity attribute sets, visited in `entity_attrs`'
    /// order each epoch: every unordered pair of attributes on the same
    /// entity is a positive example.
    pub fn train<'s, I, R>(&mut self, entity_attrs: I, epochs: usize, lr: f32, rng: &mut R)
    where
        I: IntoIterator<Item = &'s [u32]> + Clone,
        R: Rng,
    {
        let n = self.attrs.count() as u32;
        if n < 2 {
            return;
        }
        for _ in 0..epochs {
            for attrs in entity_attrs.clone() {
                for i in 0..attrs.len() {
                    for j in (i + 1)..attrs.len() {
                        if attrs[i] == attrs[j] {
                            continue;
                        }
                        let neg = rng.gen_range(0..n);
                        self.step(attrs[i], attrs[j], neg, lr);
                    }
                }
            }
            self.attrs.clip_rows_to_unit_ball();
        }
    }

    /// Entity feature, written over `out` (`dim` wide): the mean of its
    /// attribute embeddings, unit-normalized; zero without attributes.
    pub fn entity_feature_into(&self, attrs: &[u32], out: &mut [f32]) {
        out.fill(0.0);
        for &a in attrs {
            vecops::axpy(1.0, self.attrs.row(a as usize), out);
        }
        if !attrs.is_empty() {
            vecops::scale(out, 1.0 / attrs.len() as f32);
        }
        vecops::normalize(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    /// Two clusters of attributes: {0,1,2} co-occur, {3,4,5} co-occur.
    fn clustered_entities() -> Vec<&'static [u32]> {
        let mut e: Vec<&[u32]> = Vec::new();
        for _ in 0..30 {
            e.push(&[0, 1, 2]);
            e.push(&[3, 4, 5]);
        }
        e
    }

    fn feature(m: &AttrCorrelationModel, attrs: &[u32]) -> Vec<f32> {
        let mut out = vec![1.0; m.attrs.dim()];
        m.entity_feature_into(attrs, &mut out);
        out
    }

    #[test]
    fn correlated_attributes_converge() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut m = AttrCorrelationModel::new(6, 8, &mut rng);
        m.train(clustered_entities(), 20, 0.1, &mut rng);
        // Within-cluster correlation beats cross-cluster.
        let within = m.correlation(0, 1);
        let cross = m.correlation(0, 4);
        assert!(within > cross, "within {within} vs cross {cross}");
        assert!(within > 0.6);
    }

    #[test]
    fn entity_features_cluster() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut m = AttrCorrelationModel::new(6, 8, &mut rng);
        m.train(clustered_entities(), 20, 0.1, &mut rng);
        let fa = feature(&m, &[0, 1]);
        let fb = feature(&m, &[1, 2]);
        let fc = feature(&m, &[3, 4]);
        assert!(vecops::cosine(&fa, &fb) > vecops::cosine(&fa, &fc));
    }

    #[test]
    fn empty_attr_list_gives_zero_feature() {
        let mut rng = SmallRng::seed_from_u64(5);
        let m = AttrCorrelationModel::new(4, 8, &mut rng);
        let f = feature(&m, &[]);
        assert!(f.iter().all(|&x| x == 0.0));
    }

    /// `step` as it was with a fresh copy of each row: the reference for
    /// the scratch copies, which must likewise be taken before any update.
    fn step_with_copies(m: &mut AttrCorrelationModel, a1: u32, a2: u32, a_neg: u32, lr: f32) {
        let g_pos = m.correlation(a1, a2) - 1.0;
        let g_neg = m.correlation(a1, a_neg);
        let a1v = m.attrs.row(a1 as usize).to_vec();
        let a2v = m.attrs.row(a2 as usize).to_vec();
        let anv = m.attrs.row(a_neg as usize).to_vec();
        for i in 0..m.attrs.dim() {
            m.attrs.row_mut(a1 as usize)[i] -= lr * (g_pos * a2v[i] + g_neg * anv[i]);
            m.attrs.row_mut(a2 as usize)[i] -= lr * g_pos * a1v[i];
            if a_neg != a2 && a_neg != a1 {
                m.attrs.row_mut(a_neg as usize)[i] -= lr * g_neg * a1v[i];
            }
        }
    }

    #[test]
    fn step_matches_fresh_copies_when_the_negative_is_a_positive() {
        for (a1, a2, a_neg) in [(0, 1, 2), (0, 1, 0), (0, 1, 1), (2, 0, 2)] {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut m = AttrCorrelationModel::new(4, 8, &mut rng);
            let mut rng = SmallRng::seed_from_u64(7);
            let mut reference = AttrCorrelationModel::new(4, 8, &mut rng);
            for _ in 0..3 {
                m.step(a1, a2, a_neg, 0.3);
                step_with_copies(&mut reference, a1, a2, a_neg, 0.3);
            }
            let bits = |m: &AttrCorrelationModel| -> Vec<u32> {
                m.attrs.data().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&m), bits(&reference), "({a1}, {a2}, {a_neg})");
        }
    }

    #[test]
    fn step_returns_positive_loss() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut m = AttrCorrelationModel::new(4, 8, &mut rng);
        assert!(m.step(0, 1, 2, 0.1) > 0.0);
    }
}
