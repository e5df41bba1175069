//! Side views: fixed per-entity feature rows fused with a structural
//! embedding at inference, the "Attr." column of the paper's Table 1.
//! JAPE's and GCNAlign's AC2Vec attribute view, IMUSE's literal view,
//! MultiKE's name and attribute views and KDCoE's description view are each
//! a [`View`]; a driver hands its views to one [`Fusion`], and
//! [`Fusion::apply`] is the only code that concatenates them onto a
//! checkpoint. No view trains inside the epoch loop (AC2Vec trains once,
//! before it; the rest are fixed encodings), so a fusion is data, not hooks.

use crate::common::{ApproachOutput, EpochStats, RunConfig, Unified};
use crate::engine::{EpochHooks, RunContext, WarmStart};
use crate::jape::AttrSets;
use openea_align::Metric;
use openea_core::{EntityId, KgPair, KnowledgeGraph};
use openea_math::vecops;
use openea_models::AttrCorrelationModel;

/// Where a [`View`]'s row of an entity comes from.
pub(crate) enum Features {
    /// Stored: one row per entity of each KG, row-major, in entity-id order.
    Rows { rows1: Vec<f32>, rows2: Vec<f32> },
    /// Computed when fused: AC2Vec's feature of each entity's attribute ids
    /// under the trained model. The fused checkpoint is the only copy.
    Attrs {
        model: AttrCorrelationModel,
        sets1: AttrSets,
        sets2: AttrSets,
    },
}

/// `dim`-wide feature rows of every entity of both KGs and their weight in
/// a [`Fusion`].
pub(crate) struct View {
    pub features: Features,
    pub dim: usize,
    pub weight: f32,
}

impl View {
    /// The view whose rows `rows` builds for each KG of `pair`.
    pub fn of(
        pair: &KgPair,
        dim: usize,
        weight: f32,
        rows: impl Fn(&KnowledgeGraph) -> Vec<f32>,
    ) -> Self {
        Self {
            features: Features::Rows {
                rows1: rows(&pair.kg1),
                rows2: rows(&pair.kg2),
            },
            dim,
            weight,
        }
    }

    /// The stored rows of KG1 and KG2; `None` for a computed view.
    pub fn rows(&self) -> Option<(&[f32], &[f32])> {
        match &self.features {
            Features::Rows { rows1, rows2 } => Some((rows1, rows2)),
            Features::Attrs { .. } => None,
        }
    }

    /// Writes entity `e`'s row of KG `side` (1 or 2), scaled by the view's
    /// weight, over `out`.
    fn weighted_row_into(&self, side: u8, e: usize, out: &mut [f32]) {
        match &self.features {
            Features::Rows { rows1, rows2 } => {
                let rows = if side == 1 { rows1 } else { rows2 };
                out.copy_from_slice(&rows[e * self.dim..(e + 1) * self.dim]);
            }
            Features::Attrs {
                model,
                sets1,
                sets2,
            } => {
                let sets = if side == 1 { sets1 } else { sets2 };
                model.entity_feature_into(sets.row(e), out);
            }
        }
        vecops::scale(out, self.weight);
    }
}

/// The weight of a structural output and the views fused onto it, in order.
/// The default has no views, and its [`Fusion::apply`] is the identity.
#[derive(Default)]
pub(crate) struct Fusion {
    pub structure_weight: f32,
    pub views: Vec<View>,
}

impl Fusion {
    /// `structure` with every view appended: each structural row is
    /// L2-normalised and scaled by `structure_weight`, then each view's row
    /// is appended scaled by its weight (literal rows are unit or zero
    /// already). Under the structure's metric the concatenation realises the
    /// paper's weighted similarity combination. Each side's structural rows
    /// are dropped once fused; without views `structure` comes back as it is.
    pub fn apply(&self, structure: ApproachOutput) -> ApproachOutput {
        if self.views.is_empty() {
            return structure;
        }
        let ApproachOutput {
            dim,
            metric,
            emb1,
            emb2,
            ..
        } = structure;
        let fused_dim = dim + self.views.iter().map(|v| v.dim).sum::<usize>();
        let emb1 = self.concat(emb1, dim, fused_dim, 1);
        let emb2 = self.concat(emb2, dim, fused_dim, 2);
        ApproachOutput::new(fused_dim, metric, emb1, emb2)
    }

    fn concat(&self, mut structure: Vec<f32>, dim: usize, fused_dim: usize, side: u8) -> Vec<f32> {
        let n = structure.len() / dim.max(1);
        let mut out = vec![0.0f32; n * fused_dim];
        for (e, fused) in out.chunks_exact_mut(fused_dim).enumerate() {
            let row = &mut structure[e * dim..(e + 1) * dim];
            vecops::normalize(row);
            let (head, mut rest) = fused.split_at_mut(dim);
            for (o, x) in head.iter_mut().zip(row.iter()) {
                *o = x * self.structure_weight;
            }
            for v in &self.views {
                let (slot, tail) = rest.split_at_mut(v.dim);
                v.weighted_row_into(side, e, slot);
                rest = tail;
            }
        }
        out
    }
}

/// Every entity's literals encoded by `encode` (`dim` wide) and summed into
/// one unit row, zero for an entity without literals.
pub(crate) fn literal_sum(
    kg: &KnowledgeGraph,
    dim: usize,
    encode: impl Fn(&str) -> Vec<f32>,
) -> Vec<f32> {
    let mut out = vec![0.0f32; kg.num_entities() * dim];
    for e in kg.entity_ids() {
        let row = &mut out[e.idx() * dim..(e.idx() + 1) * dim];
        for &(_, v) in kg.attrs_of(e) {
            vecops::axpy(1.0, &encode(kg.literal_value(v)), row);
        }
        vecops::normalize(row);
    }
    out
}

/// One `dim`-wide row per entity from `row`, zero where it gives none.
pub(crate) fn optional_rows(
    kg: &KnowledgeGraph,
    dim: usize,
    row: impl Fn(EntityId) -> Option<Vec<f32>>,
) -> Vec<f32> {
    let mut out = vec![0.0f32; kg.num_entities() * dim];
    for e in kg.entity_ids() {
        if let Some(v) = row(e) {
            out[e.idx() * dim..(e.idx() + 1) * dim].copy_from_slice(&v);
        }
    }
    out
}

/// Engine hooks of the cosine [`Unified`] TransE drivers with side views
/// (JAPE, IMUSE, MultiKE): one TransE epoch over the unified space, and
/// every checkpoint fused.
pub(crate) struct FusedTransE<'a> {
    pub cfg: &'a RunConfig,
    pub base: Unified,
    pub fusion: Fusion,
}

impl EpochHooks for FusedTransE<'_> {
    fn warm_start(&mut self, warm: &WarmStart<'_>, ctx: &RunContext<'_>) -> bool {
        self.base.warm_start(warm, ctx)
    }

    fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        // Without relation triples (Table 8) this is a no-op: entities keep
        // their initialization, and only the fused views tell them apart.
        self.base.train_epoch(self.cfg)
    }

    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        self.fusion.apply(self.base.output(Metric::Cosine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_normalises_the_structure_and_appends_weighted_views() {
        let structure = ApproachOutput::new(2, Metric::Cosine, vec![4.0, 0.0], vec![0.0, 2.0]);
        let fusion = Fusion {
            structure_weight: 0.5,
            views: vec![View {
                features: Features::Rows {
                    rows1: vec![1.0],
                    rows2: vec![-2.0],
                },
                dim: 1,
                weight: 0.25,
            }],
        };
        let out = fusion.apply(structure);
        assert_eq!((out.dim, out.metric), (3, Metric::Cosine));
        assert_eq!(out.emb1, [0.5, 0.0, 0.25]);
        assert_eq!(out.emb2, [0.0, 0.5, -0.5]);
        let plain = ApproachOutput::new(1, Metric::Euclidean, vec![7.0], vec![]);
        assert_eq!(Fusion::default().apply(plain.clone()).emb1, plain.emb1);
    }
}
