//! # openea-autodiff
//!
//! A minimal tape-based reverse-mode automatic-differentiation engine for the
//! deep models in OpenEA-rs (GCN variants, the recurrent skipping network,
//! ProjE and ConvE). Tensors are dense 2-D `f32` matrices; graphs are built
//! eagerly on a [`Graph`] tape and differentiated with [`Graph::backward`].
//!
//! The engine is deliberately small: only the operations those models need,
//! every one of them covered by finite-difference gradient checks.

pub mod graph;
mod kernel;
pub mod sparse;
pub mod tensor;

pub use graph::{Act, Graph, Var};
pub use sparse::SparseMatrix;
pub use tensor::Tensor;
