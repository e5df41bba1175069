//! # openea-models
//!
//! The KG embedding models of the study, all implemented from scratch:
//!
//! * translational (hand-derived gradients): **TransE**, **TransH**,
//!   **TransR**, **TransD**;
//! * semantic matching (hand-derived gradients): **DistMult**, **HolE**,
//!   **SimplE**, **RotatE**;
//! * deep (trained through the `openea-autodiff` tape): **ProjE**, **ConvE**;
//! * attribute/literal encoders: attribute-correlation embedding (JAPE's
//!   AC2Vec), the character-level literal encoder (AttrE) and word-vector
//!   literal encoding (Label2Vec) over pseudo-pre-trained word embeddings.
//!
//! Every model exposes the [`RelationModel`] trait so the approaches crate
//! can mix and match embedding modules exactly as OpenEA does (Figure 4).

pub mod attribute;
pub mod complex;
pub mod deep;
pub mod linkpred;
pub mod literal;
pub mod semantic;
#[cfg(test)]
mod testkit;
pub mod trainer;
pub mod traits;
pub mod translational;

pub use attribute::AttrCorrelationModel;
pub use complex::{ComplEx, TuckEr};
pub use deep::{ConvE, ProjE};
pub use linkpred::{evaluate_link_prediction, LinkPredEval};
pub use literal::{char_ngram_vector, LiteralEncoder, WordVectors};
pub use semantic::{DistMult, HolE, RotatE, SimplE};
pub use trainer::{
    train_epoch_batched, train_epoch_serial, EpochTrace, Gradients, StopReason, TraceRecorder,
    TrainError, TrainOptions, TrainTrace, Workspace,
};
pub use traits::{EpochStats, PairGradients, RelationModel};
pub use translational::{TransD, TransE, TransH, TransR};
