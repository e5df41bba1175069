//! # openea-graph
//!
//! Graph algorithms over [`openea_core::KnowledgeGraph`]s used by the dataset
//! sampler (PageRank deletion weights of Algorithm 1) and the
//! dataset-quality report of Table 3 (clustering coefficient), plus random
//! walks over a KG's relation triples. No approach samples through
//! [`sample_walks`]: RSN4EA walks its own unified triples, and IPTransE mines
//! its relation paths itself.

pub mod cluster;
pub mod pagerank;
pub mod walks;

pub use cluster::{average_clustering_coefficient, local_clustering_coefficient};
pub use pagerank::{pagerank, PageRankConfig};
pub use walks::{sample_walks, Walk, WalkConfig};
