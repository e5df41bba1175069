//! # OpenEA-rs
//!
//! A Rust reproduction of *"A Benchmarking Study of Embedding-based Entity
//! Alignment for Knowledge Graphs"* (Sun et al., VLDB 2020): the OpenEA
//! benchmark datasets (via a synthetic KG generator and the IDS sampling
//! algorithm), the 12 representative embedding-based entity-alignment
//! approaches, 8 further KG embedding models, the conventional baselines
//! PARIS and LogMap, and the full evaluation/analysis toolkit behind the
//! paper's tables and figures.
//!
//! ## Quick start
//!
//! ```
//! use openea::prelude::*;
//! use openea_runtime::rng::SmallRng;
//! use openea_runtime::rng::SeedableRng;
//!
//! // A small synthetic EN-FR-style dataset pair.
//! let pair = PresetConfig::new(DatasetFamily::EnFr, 200, false, 7).generate();
//! let mut rng = SmallRng::seed_from_u64(1);
//! let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
//!
//! // Train MTransE on fold 0 and evaluate.
//! let cfg = RunConfig { max_epochs: 20, ..RunConfig::default() };
//! let approach = approach_by_name("MTransE").unwrap();
//! let out = approach.run(&pair, &folds[0], &cfg);
//! let eval = evaluate_output(&out, &folds[0].test, cfg.threads);
//! assert!(eval.hits1 >= 0.0 && eval.hits1 <= 1.0);
//! ```
//!
//! The sub-crates are re-exported under their domain names:
//!
//! | Module | Contents |
//! |---|---|
//! | [`core`] | KG data model, dataset I/O, folds, statistics |
//! | [`graph`] | PageRank, clustering coefficient |
//! | [`synth`] | synthetic source-KG generation (DBpedia/Wikidata/YAGO stand-ins) |
//! | [`sampling`] | IDS (Algorithm 1), RAS, PRS, Table-3 quality report |
//! | [`math`] | embedding tables, losses, negative sampling |
//! | [`autodiff`] | the reverse-mode tape used by the deep models |
//! | [`models`] | TransE/H/R/D, DistMult, HolE, SimplE, RotatE, ProjE, ConvE, attribute/literal encoders |
//! | [`align`] | metrics, CSLS, greedy/stable-marriage/Hungarian inference, evaluation, geometric analyses |
//! | [`approaches`] | the 12 OpenEA approaches plus the shared trainer |
//! | [`conventional`] | PARIS and the LogMap-style matcher |

pub use openea_align as align;
pub use openea_approaches as approaches;
pub use openea_autodiff as autodiff;
pub use openea_conventional as conventional;
pub use openea_core as core;
pub use openea_graph as graph;
pub use openea_math as math;
pub use openea_models as models;
pub use openea_sampling as sampling;
pub use openea_synth as synth;

/// The most common imports for working with OpenEA-rs.
pub mod prelude {
    pub use openea_align::{
        greedy_match, hungarian, precision_recall_f1, rank_eval, stable_marriage, MeanStd, Metric,
        PrfScores, RankEval, SimilarityMatrix,
    };
    pub use openea_approaches::{
        all_approaches, approach_by_name, evaluate_output, run_driver, Approach, ApproachKind,
        ApproachOutput, Budget, CheckpointSink, EpochHooks, RunConfig, RunContext, TelemetrySink,
    };
    pub use openea_conventional::{ConventionalSystem, LogMap, Paris};
    pub use openea_core::{
        k_fold_splits, AlignedPair, DegreeDistribution, EntityId, FoldSplit, KgBuilder, KgPair,
        KgStats, KnowledgeGraph,
    };
    pub use openea_sampling::{ids_sample, prs_sample, ras_sample, sample_quality, IdsConfig};
    pub use openea_synth::{DatasetFamily, PresetConfig, Translator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_pipeline() {
        let pair = PresetConfig::new(DatasetFamily::DY, 120, false, 3).generate();
        assert!(pair.num_aligned() > 50);
        assert_eq!(all_approaches().len(), 12);
        let paris = Paris::default();
        assert_eq!(paris.name(), "PARIS");
    }
}
