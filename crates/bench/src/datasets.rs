//! Dataset construction for the harness: the 4 families ×
//! {V1, V2} × {base, large} grid, their cross-validation folds, and the
//! per-family word-vector resources.

use crate::HarnessConfig;
use openea::models::literal::WordVectors;
use openea::prelude::*;
use openea::synth::Language;
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;

/// A dataset variant in the Table 2/5 grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetKey {
    pub family: DatasetFamily,
    /// V2 = dense.
    pub dense: bool,
    /// 100K-analog instead of 15K-analog.
    pub large: bool,
}

impl DatasetKey {
    pub fn label(&self, cfg: &HarnessConfig) -> String {
        let size = if self.large {
            cfg.scale.large_entities()
        } else {
            cfg.scale.base_entities()
        };
        format!(
            "{}-{} ({})",
            self.family.label(),
            size_label(size),
            if self.dense { "V2" } else { "V1" }
        )
    }
}

fn size_label(n: usize) -> String {
    if n >= 1000 {
        format!("{}K", n / 1000)
    } else {
        n.to_string()
    }
}

/// A constructed dataset: the pair plus its folds and word vectors.
pub struct Dataset {
    pub key: DatasetKey,
    pub pair: KgPair,
    pub folds: Vec<FoldSplit>,
    pub word_vectors: WordVectors,
}

/// Builds one dataset variant deterministically from the harness seed.
pub fn build_dataset(key: DatasetKey, cfg: &HarnessConfig) -> Dataset {
    let entities = if key.large {
        cfg.scale.large_entities()
    } else {
        cfg.scale.base_entities()
    };
    let preset = PresetConfig::new(key.family, entities, key.dense, cfg.seed);
    let pair = preset.generate();
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5eed);
    let mut folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    folds.truncate(cfg.scale.folds());
    let word_vectors = family_word_vectors(key.family, 32);
    Dataset {
        key,
        pair,
        folds,
        word_vectors,
    }
}

/// Cross-lingual families get dictionary-aligned word vectors (the paper's
/// pre-trained multilingual embeddings \[4\]); monolingual families use the
/// hash table, where identical words already coincide.
pub fn family_word_vectors(family: DatasetFamily, dim: usize) -> WordVectors {
    match family {
        DatasetFamily::EnFr => {
            let tr = Translator::new(Language::L2, 60_000, 0.02);
            WordVectors::cross_lingual(dim, tr.dictionary_pairs(), 0.08)
        }
        DatasetFamily::EnDe => {
            let tr = Translator::new(Language::L3, 60_000, 0.02);
            WordVectors::cross_lingual(dim, tr.dictionary_pairs(), 0.08)
        }
        DatasetFamily::DW | DatasetFamily::DY => WordVectors::hash_only(dim),
    }
}

/// The run configuration used for every approach at this scale.
pub fn run_config(cfg: &HarnessConfig, dataset: &Dataset) -> RunConfig {
    RunConfig {
        dim: 32,
        max_epochs: cfg.scale.max_epochs(),
        threads: cfg.threads,
        seed: cfg.seed,
        word_vectors: dataset.word_vectors.clone(),
        ..RunConfig::default()
    }
}

/// The V1 grid of the main experiments (Table 5, Figure 8): every family at
/// both density variants, base size.
pub fn main_grid(include_large: bool) -> Vec<DatasetKey> {
    let mut keys = Vec::new();
    for family in DatasetFamily::ALL {
        for dense in [false, true] {
            keys.push(DatasetKey {
                family,
                dense,
                large: false,
            });
            if include_large {
                keys.push(DatasetKey {
                    family,
                    dense,
                    large: true,
                });
            }
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_families_and_densities() {
        let base = main_grid(false);
        assert_eq!(base.len(), 8);
        let with_large = main_grid(true);
        assert_eq!(with_large.len(), 16);
    }

    #[test]
    fn labels_are_readable() {
        let cfg = HarnessConfig {
            out_dir: None,
            ..HarnessConfig::default()
        };
        let key = DatasetKey {
            family: DatasetFamily::EnFr,
            dense: true,
            large: false,
        };
        assert_eq!(key.label(&cfg), "EN-FR-600 (V2)");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn word_vectors_align_cross_lingual_families_only() {
        use openea::synth::{Language, Vocabulary};
        let wv = family_word_vectors(DatasetFamily::EnFr, 16);
        let l1 = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let l2 = Vocabulary {
            language: Language::L2,
            noise: 0.0,
        };
        let w1 = l1.render_token(123);
        let w2 = l2.render_token(123);
        let sim = openea::math::vecops::cosine(&wv.get(&w1), &wv.get(&w2));
        assert!(sim > 0.8, "translation pair should align: {sim}");
        // Monolingual families rely on hash identity instead.
        let mono = family_word_vectors(DatasetFamily::DY, 16);
        assert_eq!(mono.get(&w1), mono.get(&w1));
    }

    #[test]
    fn run_config_carries_scale_epochs() {
        let cfg = HarnessConfig {
            out_dir: None,
            scale: Scale::Small,
            ..HarnessConfig::default()
        };
        let key = DatasetKey {
            family: DatasetFamily::DY,
            dense: false,
            large: false,
        };
        let d = build_dataset(key, &cfg);
        assert_eq!(d.folds.len(), cfg.scale.folds());
        assert!(d.pair.num_aligned() > 300);
        let rc = run_config(&cfg, &d);
        assert_eq!(rc.max_epochs, Scale::Small.max_epochs());
        assert_eq!(rc.dim, 32);
    }

    #[test]
    fn datasets_are_deterministic_per_seed() {
        let cfg = HarnessConfig {
            out_dir: None,
            ..HarnessConfig::default()
        };
        let key = DatasetKey {
            family: DatasetFamily::EnDe,
            dense: true,
            large: false,
        };
        let a = build_dataset(key, &cfg);
        let b = build_dataset(key, &cfg);
        assert_eq!(a.pair.num_aligned(), b.pair.num_aligned());
        assert_eq!(a.folds[0].train, b.folds[0].train);
    }
}
