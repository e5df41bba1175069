//! # openea-core
//!
//! Knowledge-graph data model, dataset I/O, cross-validation splits and
//! dataset statistics for **OpenEA-rs**, a Rust reproduction of
//! *"A Benchmarking Study of Embedding-based Entity Alignment for Knowledge
//! Graphs"* (Sun et al., VLDB 2020).
//!
//! The central types are:
//! - [`KnowledgeGraph`]: an immutable KG over interned symbols with adjacency
//!   indexes, built through [`KgBuilder`];
//! - [`KgPair`]: two KGs plus their reference entity alignment;
//! - [`FoldSplit`] / [`k_fold_splits`]: the paper's 20/10/70 cross-validation
//!   protocol;
//! - [`DegreeDistribution`] / [`KgStats`]: the statistics behind Tables 2–3
//!   and Figures 2–3;
//! - [`io`]: the OpenEA on-disk dataset format.

pub mod error;
pub mod ids;
pub mod interner;
pub mod io;
pub mod kg;
pub mod pair;
pub mod stats;

pub use error::{Error, Result};
pub use ids::{AttrTriple, AttributeId, EntityId, LiteralId, RelTriple, RelationId};
pub use interner::{Interner, Symbols};
pub use kg::{KgBuilder, KnowledgeGraph};
pub use pair::{k_fold_splits, AlignedPair, FoldSplit, KgPair};
pub use stats::{DegreeDistribution, KgStats};
