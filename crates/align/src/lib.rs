//! # openea-align
//!
//! The alignment module of the framework (paper Sect. 2.2.2 and Sect. 6.1):
//!
//! * similarity metrics — cosine, Euclidean, Manhattan — plus **CSLS**
//!   (cross-domain similarity local scaling), which counteracts hubness;
//! * alignment-inference strategies — greedy nearest neighbour and **stable
//!   marriage** over streamed top-k lists (stable marriage is also the
//!   greedy collective matching: BootEA's editing and Sinkhorn's rounding),
//!   and Kuhn–Munkres maximum-weight matching over the dense matrix;
//! * evaluation — Hits@m, MR, MRR, precision/recall/F1, fold aggregation;
//! * geometric analysis — top-k similarity distributions (Figure 9),
//!   hubness/isolation statistics (Figure 10), degree-bucket recall
//!   (Figure 5) and the three-way overlap breakdown (Figure 12).

pub mod analysis;
pub mod ann;
pub mod eval;
pub mod infer;
pub mod metric;
pub mod simmat;
pub mod sinkhorn;
mod sweep;
pub mod topk;

pub use analysis::{
    degree_bucket_recall, hubness_profile, overlap3, topk_similarity_profile, HubnessProfile,
    OverlapBreakdown,
};
pub use ann::{AnnConfig, IvfIndex, IvfPartition, SearchCounts};
pub use eval::{precision_recall_f1, rank_eval, rank_eval_streaming, MeanStd, PrfScores, RankEval};
pub use infer::{greedy_match_topk, hungarian, stable_marriage_topk};
pub use metric::Metric;
pub use simmat::{SimilarityMatrix, DEFAULT_TILE};
pub use sinkhorn::{sinkhorn_match, sinkhorn_plan};
pub use topk::{csls_topk, TopKMatrix};
