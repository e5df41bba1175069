//! Cross-validated approach execution with timing, the engine behind
//! Table 5 and Figure 8.

use crate::datasets::{run_config, Dataset};
use crate::HarnessConfig;
use openea::approaches::TrainError;
use openea::prelude::*;
use openea_runtime::json::{object, Json, ToJson};
use std::time::Instant;

/// Cross-validated metrics of one approach on one dataset.
#[derive(Clone, Debug)]
pub struct CvResult {
    pub approach: String,
    pub dataset: String,
    pub hits1_mean: f64,
    pub hits1_std: f64,
    pub hits5_mean: f64,
    pub hits5_std: f64,
    pub mrr_mean: f64,
    pub mrr_std: f64,
    pub mr_mean: f64,
    /// Mean wall-clock seconds per fold (training + inference).
    pub seconds_per_fold: f64,
    pub folds: usize,
}

impl CvResult {
    /// Paper-style cell: `.507±.010`.
    pub fn cell(mean: f64, std: f64) -> String {
        format!("{mean:.3}±{std:.3}").replace("0.", ".")
    }
}

impl ToJson for CvResult {
    fn to_json(&self) -> Json {
        object([
            ("approach", self.approach.to_json()),
            ("dataset", self.dataset.to_json()),
            ("hits1_mean", self.hits1_mean.to_json()),
            ("hits1_std", self.hits1_std.to_json()),
            ("hits5_mean", self.hits5_mean.to_json()),
            ("hits5_std", self.hits5_std.to_json()),
            ("mrr_mean", self.mrr_mean.to_json()),
            ("mrr_std", self.mrr_std.to_json()),
            ("mr_mean", self.mr_mean.to_json()),
            ("seconds_per_fold", self.seconds_per_fold.to_json()),
            ("folds", self.folds.to_json()),
        ])
    }
}

/// Runs `approach` over every fold of `dataset` and aggregates.
pub fn run_cv(
    approach: &dyn Approach,
    dataset: &Dataset,
    cfg: &HarnessConfig,
    tweak: impl Fn(&mut RunConfig),
) -> CvResult {
    let mut hits1 = MeanStd::new();
    let mut hits5 = MeanStd::new();
    let mut mrr = MeanStd::new();
    let mut mr = MeanStd::new();
    let mut secs = MeanStd::new();
    for (f, split) in dataset.folds.iter().enumerate() {
        let mut rc = run_config(cfg, dataset);
        rc.seed = cfg.seed ^ (f as u64) << 8;
        tweak(&mut rc);
        let mut ctx = RunContext::new(&rc);
        if let Some(secs) = cfg.deadline_s {
            ctx.budget = Budget::wall_secs(secs);
        }
        let t0 = Instant::now();
        let out = approach.run_with(&dataset.pair, split, &rc, &ctx);
        let eval = evaluate_output(&out, &split.test, rc.threads);
        secs.push(t0.elapsed().as_secs_f64());
        hits1.push(eval.hits1);
        hits5.push(eval.hits5);
        mrr.push(eval.mrr);
        mr.push(eval.mr);
    }
    CvResult {
        approach: approach.name().to_owned(),
        dataset: dataset.key.label(cfg),
        hits1_mean: hits1.mean(),
        hits1_std: hits1.std(),
        hits5_mean: hits5.mean(),
        hits5_std: hits5.std(),
        mrr_mean: mrr.mean(),
        mrr_std: mrr.std(),
        mr_mean: mr.mean(),
        seconds_per_fold: secs.mean(),
        folds: dataset.folds.len(),
    }
}

/// One full approach output on fold 0 (for the geometric analyses, which the
/// paper also runs on a single trained model per approach).
pub fn run_fold0(
    approach: &dyn Approach,
    dataset: &Dataset,
    cfg: &HarnessConfig,
    tweak: impl Fn(&mut RunConfig),
) -> (ApproachOutput, RunConfig) {
    let (out, rc) = try_run_fold0(approach, dataset, cfg, tweak);
    let out = out.unwrap_or_else(|e| panic!("{}: {e}", approach.name()));
    (out, rc)
}

/// [`run_fold0`] for runs that may fail: a diverged model is a finding of
/// the experiment, not a harness failure.
pub fn try_run_fold0(
    approach: &dyn Approach,
    dataset: &Dataset,
    cfg: &HarnessConfig,
    tweak: impl Fn(&mut RunConfig),
) -> (Result<ApproachOutput, TrainError>, RunConfig) {
    let mut rc = run_config(cfg, dataset);
    tweak(&mut rc);
    let mut ctx = RunContext::new(&rc);
    if let Some(secs) = cfg.deadline_s {
        ctx.budget = Budget::wall_secs(secs);
    }
    let out = approach.try_run(&dataset.pair, &dataset.folds[0], &rc, &ctx);
    (out, rc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{build_dataset, DatasetKey};
    use crate::Scale;

    #[test]
    fn run_cv_aggregates_all_folds() {
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
        let dataset = build_dataset(key, &cfg);
        let approach = approach_by_name("MTransE").unwrap();
        let res = run_cv(approach.as_ref(), &dataset, &cfg, |rc| rc.max_epochs = 10);
        assert_eq!(res.folds, cfg.scale.folds());
        assert!(res.hits1_mean >= 0.0 && res.hits1_mean <= 1.0);
        assert!(res.seconds_per_fold > 0.0);
        assert!(res.hits5_mean >= res.hits1_mean);
    }

    #[test]
    fn cell_format_matches_paper_style() {
        assert_eq!(CvResult::cell(0.507, 0.01), ".507±.010");
    }
}
