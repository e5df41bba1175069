//! # openea-approaches
//!
//! The 12 embedding-based entity-alignment approaches integrated in OpenEA
//! (paper Sect. 4), rebuilt from scratch on the substrates of this workspace.
//! Each approach composes an embedding module, an alignment module and an
//! interaction mode exactly as categorized in the paper's Table 1:
//!
//! | Approach  | Relation emb. | Attr. | Metric     | Combination    | Learning |
//! |-----------|---------------|-------|------------|----------------|----------|
//! | MTransE   | triple        | –     | Euclidean  | transformation | superv.  |
//! | IPTransE  | path          | –     | Euclidean  | sharing        | semi     |
//! | JAPE      | triple        | corr. | cosine     | sharing        | superv.  |
//! | KDCoE     | triple        | lit.  | Euclidean  | transformation | semi     |
//! | BootEA    | triple        | –     | cosine     | swapping       | semi     |
//! | GCNAlign  | neighborhood  | corr. | Manhattan  | calibration    | superv.  |
//! | AttrE     | triple        | lit.  | cosine     | sharing        | superv.  |
//! | IMUSE     | triple        | lit.  | cosine     | sharing        | superv.  |
//! | SEA       | triple        | –     | cosine     | transformation | superv.  |
//! | RSN4EA    | path          | –     | cosine     | sharing        | superv.  |
//! | MultiKE   | triple        | lit.  | cosine     | swapping       | superv.  |
//! | RDGCN     | neighborhood  | lit.  | Manhattan  | calibration    | superv.  |

pub mod alinet;
pub mod attre;
pub mod boot;
pub mod bootea;
pub mod common;
pub mod engine;
pub mod gcn;
pub mod gcnalign;
pub mod imuse;
pub mod iptranse;
pub mod jape;
pub mod kdcoe;
pub mod mtranse;
pub mod multike;
pub mod rdgcn;
pub mod registry;
pub mod rsn4ea;
pub mod sea;
pub mod transformation;
pub mod unsupervised;
mod views;

pub use common::{
    evaluate_output, Approach, ApproachOutput, Req, Requirements, RunConfig, StopReason,
    TrainError, TrainTrace, UnifiedSpace,
};
pub use engine::{
    run_driver, Budget, CheckpointSink, EpochHooks, Lineage, RunContext, TelemetrySink, WarmStart,
};
pub use registry::{all_approaches, approach_by_name, ApproachKind};
