//! # openea-align
//!
//! The alignment module of the framework (paper Sect. 2.2.2 and Sect. 6.1):
//!
//! * similarity metrics — cosine, Euclidean, Manhattan — plus **CSLS**
//!   (cross-domain similarity local scaling), which counteracts hubness;
//! * alignment-inference strategies — greedy nearest neighbour, **stable
//!   marriage**, Kuhn–Munkres maximum-weight matching and a linear-time
//!   greedy collective heuristic;
//! * evaluation — Hits@m, MR, MRR, precision/recall/F1, fold aggregation;
//! * geometric analysis — top-k similarity distributions (Figure 9),
//!   hubness/isolation statistics (Figure 10), degree-bucket recall
//!   (Figure 5) and the three-way overlap breakdown (Figure 12).

pub mod analysis;
pub mod ann;
pub mod blocking;
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
pub use ann::{AnnConfig, IvfIndex};
pub use blocking::{blocked_greedy_match, BlockedMatch, LshIndex};
pub use eval::{precision_recall_f1, rank_eval, rank_eval_streaming, MeanStd, PrfScores, RankEval};
pub use infer::{
    greedy_collective, greedy_match, greedy_match_topk, hungarian, stable_marriage,
    stable_marriage_topk,
};
pub use metric::Metric;
pub use simmat::{SimilarityMatrix, DEFAULT_TILE};
pub use sinkhorn::{sinkhorn_match, sinkhorn_plan, SinkhornConfig};
pub use topk::{csls_topk, TopKMatrix};
