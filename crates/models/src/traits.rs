//! The shared interface of relation-embedding models.
//!
//! A model trains through one method, [`RelationModel::train_batch`]: one
//! mini-batch of positive/negative pairs with *deferred* semantics (every
//! read is of batch-start parameters, writes land in pair order). There are
//! three ways to implement it, all in [`crate::trainer`] or beside the
//! model:
//!
//! * models whose gradient is a pure function of the current parameters
//!   implement [`PairGradients`] and forward to
//!   [`crate::trainer::train_batch_recorded`] (parallel recording into
//!   [`Gradients`] arenas, serial replay);
//! * models with an opaque in-place update (ComplEx, TuckER, ProjE, ConvE)
//!   override [`RelationModel::step`] and forward to
//!   [`crate::trainer::train_batch_stepwise`];
//! * TransE has a copy-on-first-write kernel of its own.

use crate::trainer::{Gradients, TrainOptions, Workspace};
use openea_math::negsamp::RawTriple;
use openea_math::EmbeddingTable;

/// A relation-embedding model trainable on `(h, r, t)` triples.
///
/// Models own their parameters and update them with hand-derived (or taped)
/// gradients. The entity representation used for alignment is always a row
/// of [`RelationModel::entities`], which lets the interaction modes
/// (calibration, sharing, swapping, transformation) operate uniformly across
/// models. The `Send + Sync` bound is what allows the batched trainer to
/// share `&self` with the worker pool's threads; every model is plain owned
/// data, so the bound costs nothing.
pub trait RelationModel: Send + Sync {
    /// Human-readable model name (e.g. `"TransE"`).
    fn name(&self) -> &'static str;

    /// Plausibility cost of a triple: lower = more plausible.
    fn energy(&self, t: RawTriple) -> f32;

    /// Trains one mini-batch of `(positive, negative)` pairs and adds each
    /// pair's loss to `total`, one at a time in pair order (the sum's bits
    /// are part of [`EpochStats::mean_loss`]).
    ///
    /// Deferred semantics: every pair's gradient reads the parameters as
    /// they were when the batch started, and the updates land in pair order
    /// — so the result depends on the batch boundaries but never on
    /// `opts.threads`. `ws` is the caller's reusable workspace; a model
    /// takes what it needs from it and the steady state allocates nothing.
    /// Models without a pure gradient ([`crate::trainer::train_batch_stepwise`])
    /// update pair by pair instead; for them a batch is only an RNG stream
    /// boundary.
    fn train_batch(
        &mut self,
        pairs: &[(RawTriple, RawTriple)],
        opts: &TrainOptions,
        ws: &mut Workspace,
        total: &mut f64,
    );

    /// One SGD update on a positive/negative pair; returns the pair loss.
    /// A one-pair batch with a workspace of its own — the serial reference
    /// and the unit tests use it, the engine never does. Models with an
    /// opaque in-place update override it and build `train_batch` on it.
    fn step(&mut self, pos: RawTriple, neg: RawTriple, lr: f32) -> f32 {
        let opts = TrainOptions {
            lr,
            ..TrainOptions::default()
        };
        let mut total = 0.0f64;
        self.train_batch(&[(pos, neg)], &opts, &mut Workspace::default(), &mut total);
        total as f32
    }

    /// Per-epoch maintenance (norm constraints etc.). Default: none.
    fn epoch_hook(&mut self) {}

    /// The entity embedding table.
    fn entities(&self) -> &EmbeddingTable;

    /// Mutable access for alignment-module updates.
    fn entities_mut(&mut self) -> &mut EmbeddingTable;

    /// Dimension of the entity vectors.
    fn dim(&self) -> usize {
        self.entities().dim()
    }

    fn num_entities(&self) -> usize {
        self.entities().count()
    }
}

/// The pure gradient of one positive/negative pair, recorded and applied
/// separately — what [`crate::trainer::train_batch_recorded`] parallelises,
/// and the recorded reference TransE's kernel is tested against.
pub trait PairGradients: Sync {
    /// Records the additive parameter deltas of one pair into `out` —
    /// reading only the *current* parameters, mutating nothing — and
    /// returns the pair loss. Because the computation is read-only, many
    /// pairs are evaluated concurrently against the same batch-start
    /// parameters.
    fn pair_gradients(&self, pos: RawTriple, neg: RawTriple, lr: f32, out: &mut Gradients) -> f32;

    /// Applies recorded deltas entry by entry in recording order. The order
    /// is part of the determinism contract: floating-point accumulation
    /// onto aliased rows (e.g. a self-loop triple where head == tail) must
    /// not be reordered.
    fn apply_gradients(&mut self, grads: &Gradients);
}

/// Statistics of one training epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochStats {
    pub mean_loss: f32,
    pub pairs: usize,
}

impl EpochStats {
    /// Pair-weighted combination of several stats — used when one logical
    /// epoch trains more than one model (e.g. KDCoE's two per-KG models).
    pub fn merged(parts: &[EpochStats]) -> EpochStats {
        let pairs: usize = parts.iter().map(|s| s.pairs).sum();
        if pairs == 0 {
            return EpochStats::default();
        }
        let total: f64 = parts
            .iter()
            .map(|s| s.mean_loss as f64 * s.pairs as f64)
            .sum();
        EpochStats {
            mean_loss: (total / pairs as f64) as f32,
            pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_stats_are_pair_weighted() {
        let a = EpochStats {
            mean_loss: 2.0,
            pairs: 10,
        };
        let b = EpochStats {
            mean_loss: 8.0,
            pairs: 30,
        };
        let m = EpochStats::merged(&[a, b]);
        assert_eq!(m.pairs, 40);
        assert!((m.mean_loss - 6.5).abs() < 1e-6);
        assert_eq!(EpochStats::merged(&[]), EpochStats::default());
    }
}
