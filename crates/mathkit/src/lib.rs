//! # openea-math
//!
//! The numeric substrate of OpenEA-rs: dense vector/matrix kernels, embedding
//! tables with the initializers catalogued in the paper's Figure 4 (unit,
//! uniform, orthogonal, Xavier), the three loss families (marginal, logistic,
//! limit-based) and the two negative-sampling schemes (uniform, truncated).
//! Parameters are updated by plain SGD where the gradients are formed
//! (`EmbeddingTable::sgd_row` and the models' own steps).
//!
//! Everything here is framework-free `f32` code; the embedding models in
//! `openea-models` differentiate their energies by hand on top of these
//! kernels, and `openea-autodiff` provides a tape for the deep models.

pub mod embedding;
pub mod init;
pub mod kernel;
pub mod loss;
pub mod matrix;
pub mod negsamp;
pub mod procrustes;
pub mod vecops;

pub use embedding::EmbeddingTable;
pub use init::Initializer;
pub use loss::{limit_based_loss, logistic_loss, margin_ranking_loss};
pub use matrix::Matrix;
pub use negsamp::{NegSampler, TruncatedSampler, UniformSampler};
pub use procrustes::{nearest_orthogonal, procrustes};
