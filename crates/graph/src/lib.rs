//! # openea-graph
//!
//! Graph algorithms over [`openea_core::KnowledgeGraph`]s used by the dataset
//! sampler (PageRank deletion weights of Algorithm 1) and the
//! dataset-quality report of Table 3 (clustering coefficient). RSN4EA walks
//! its own unified triples, and IPTransE mines its relation paths itself.

pub mod cluster;
pub mod pagerank;

pub use cluster::{average_clustering_coefficient, local_clustering_coefficient};
pub use pagerank::{pagerank, PageRankConfig};
