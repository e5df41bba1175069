//! Exploratory: **unsupervised entity alignment** (paper Sect. 7.2, first
//! future direction).
//!
//! The paper observes that no surveyed approach works without seed
//! alignment and proposes distilling distant supervision from auxiliary
//! resources. This module implements that recipe: IMUSE's string-matching
//! preprocessing produces pseudo-seeds from literal overlap alone, a
//! BootEA-style embedding is trained on them, and conflict-edited
//! self-training grows the alignment — zero gold seeds consumed.

use crate::boot::{propose_edited, Ledger};
use crate::common::{ApproachOutput, Combination, EpochStats, RunConfig, Unified};
use crate::engine::{run_driver, EpochHooks, RunContext};
use crate::imuse::{string_match_seeds, STRING_THRESHOLD};
use openea_align::Metric;
use openea_core::{EntityId, KgPair};

/// Configuration of the unsupervised pipeline.
#[derive(Clone, Copy, Debug)]
pub struct UnsupervisedConfig {
    /// Self-training rounds after the initial fit.
    pub boot_rounds: usize,
    /// Epochs between rounds.
    pub epochs_per_round: usize,
}

impl Default for UnsupervisedConfig {
    fn default() -> Self {
        Self {
            boot_rounds: 4,
            epochs_per_round: 20,
        }
    }
}

/// Cosine acceptance threshold for boot proposals.
const BOOT_THRESHOLD: f32 = 0.8;

/// Result of an unsupervised run.
pub struct UnsupervisedOutcome {
    pub output: ApproachOutput,
    /// The literal-derived pseudo-seeds the run started from.
    pub pseudo_seeds: Vec<(EntityId, EntityId)>,
    /// The final predicted alignment (pseudo-seeds + bootstrapped pairs).
    pub predicted: Vec<(EntityId, EntityId)>,
}

/// Runs the unsupervised pipeline. The pair's gold alignment is never read.
pub fn align_unsupervised(
    pair: &KgPair,
    ucfg: UnsupervisedConfig,
    cfg: &RunConfig,
) -> UnsupervisedOutcome {
    let ctx = RunContext::new(cfg);
    let pseudo_seeds = string_match_seeds(&pair.kg1, &pair.kg2, STRING_THRESHOLD);
    let mut hooks = Hooks {
        ucfg,
        cfg,
        base: Unified::transe(pair, &pseudo_seeds, Combination::Sharing, cfg, &ctx),
        ledger: Ledger::new(pair, &pseudo_seeds),
    };

    // One flat epoch sequence: `epochs_per_round` epochs per round, with a
    // self-training proposal at every round boundary. No
    // validation split exists, so the context carries no validation pairs
    // and the engine never early-stops.
    let ecfg = RunConfig {
        max_epochs: (ucfg.boot_rounds + 1) * ucfg.epochs_per_round,
        ..cfg.clone()
    };
    let output =
        run_driver("unsupervised", &mut hooks, &ctx, &ecfg).expect("valid unsupervised run config");
    let mut predicted = pseudo_seeds.clone();
    predicted.extend(hooks.ledger.proposed);
    UnsupervisedOutcome {
        output,
        pseudo_seeds,
        predicted,
    }
}

struct Hooks<'a> {
    ucfg: UnsupervisedConfig,
    cfg: &'a RunConfig,
    base: Unified,
    ledger: Ledger,
}

impl EpochHooks for Hooks<'_> {
    fn train_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
        let per_round = self.ucfg.epochs_per_round;
        if epoch > 0 && per_round > 0 && epoch.is_multiple_of(per_round) {
            // Round boundary: propose new pairs from the current embeddings
            // (conflict-edited, never touching entities already aligned).
            let cands = self
                .ledger
                .candidates(&self.base.space, &self.base.unit.model.entities);
            self.ledger
                .accept(propose_edited(&cands, BOOT_THRESHOLD, self.cfg.threads));
        }
        self.base.train_epoch(self.cfg)
    }

    fn after_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) {
        let table = &mut self.base.unit.model.entities;
        self.ledger.calibrate(&self.base.space, table, self.cfg.lr);
    }

    fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
        self.base.output(Metric::Cosine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_align::precision_recall_f1;
    use std::collections::HashSet;

    #[test]
    fn unsupervised_alignment_beats_chance_without_gold_seeds() {
        let pair = openea_synth::PresetConfig::new(openea_synth::DatasetFamily::DY, 300, false, 88)
            .generate();
        let cfg = RunConfig {
            dim: 16,
            threads: 2,
            ..RunConfig::default()
        };
        let outcome = align_unsupervised(&pair, UnsupervisedConfig::default(), &cfg);
        assert!(
            !outcome.pseudo_seeds.is_empty(),
            "literal overlap must yield pseudo-seeds"
        );
        let gold: HashSet<(u32, u32)> = pair.alignment.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let raw: Vec<(u32, u32)> = outcome.predicted.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let prf = precision_recall_f1(&raw, &gold);
        assert!(prf.precision > 0.5, "precision {}", prf.precision);
        assert!(prf.recall > 0.2, "recall {}", prf.recall);
    }

    #[test]
    fn pseudo_seeds_respect_one_to_one() {
        let pair = openea_synth::PresetConfig::new(openea_synth::DatasetFamily::DY, 200, false, 89)
            .generate();
        let cfg = RunConfig {
            dim: 16,
            threads: 2,
            ..RunConfig::default()
        };
        let ucfg = UnsupervisedConfig {
            boot_rounds: 1,
            epochs_per_round: 5,
        };
        let outcome = align_unsupervised(&pair, ucfg, &cfg);
        let mut s1 = HashSet::new();
        let mut s2 = HashSet::new();
        for (a, b) in &outcome.predicted {
            assert!(s1.insert(*a), "duplicate source");
            assert!(s2.insert(*b), "duplicate target");
        }
    }
}
