//! End-to-end pipeline tests: generate → sample → split → train → infer →
//! evaluate, across crates.

use openea::prelude::*;
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;

fn small_cfg() -> RunConfig {
    RunConfig {
        dim: 16,
        max_epochs: 40,
        threads: 2,
        ..RunConfig::default()
    }
}

#[test]
fn generate_sample_train_evaluate() {
    // Source → IDS sample → folds → MTransE → evaluation.
    let source = PresetConfig::new(DatasetFamily::EnFr, 800, false, 100).generate();
    let mut rng = SmallRng::seed_from_u64(0);
    let ids = ids_sample(
        &source,
        IdsConfig {
            target: 300,
            mu: 15,
        },
        &mut rng,
    );
    assert_eq!(ids.pair.num_aligned(), 300);

    let folds = k_fold_splits(&ids.pair.alignment, 5, &mut rng);
    let cfg = small_cfg();
    let out = approach_by_name("MTransE")
        .unwrap()
        .run(&ids.pair, &folds[0], &cfg);
    let eval = evaluate_output(&out, &folds[0].test, cfg.threads);
    // Must comfortably beat random guessing (1/|test| ≈ 0.005).
    assert!(eval.hits1 > 0.05, "hits@1 {}", eval.hits1);
    assert!(eval.mrr >= eval.hits1);
    assert!(eval.hits5 >= eval.hits1);
    assert!(eval.mr >= 1.0);
}

#[test]
fn csls_and_stable_marriage_do_not_hurt_much() {
    // Table 6's qualitative claim: CSLS and SM lift (or at least do not
    // devastate) greedy Hits@1.
    let pair = PresetConfig::new(DatasetFamily::DY, 300, false, 101).generate();
    let mut rng = SmallRng::seed_from_u64(1);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    // Train a little harder than small_cfg: the CSLS/SM comparison needs
    // embeddings good enough that matching quality is signal, not noise.
    let cfg = RunConfig {
        dim: 32,
        max_epochs: 80,
        threads: 2,
        ..RunConfig::default()
    };
    let out = approach_by_name("MTransE")
        .unwrap()
        .run(&pair, &folds[0], &cfg);

    let sources: Vec<EntityId> = folds[0].test.iter().map(|&(a, _)| a).collect();
    let targets: Vec<EntityId> = folds[0].test.iter().map(|&(_, b)| b).collect();
    let cols = targets.len();
    let topk = out.topk(&sources, &targets, cols, cfg.threads);
    let (src, dst) = out.gather(&sources, &targets);
    let csls_lists = csls_topk(&src, &dst, out.dim, out.metric, 10, cols, cfg.threads);
    let hits1 = |m: &[Option<usize>]| {
        m.iter().enumerate().filter(|&(i, &x)| x == Some(i)).count() as f64 / m.len() as f64
    };
    let greedy = hits1(&greedy_match_topk(&topk));
    let csls = hits1(&greedy_match_topk(&csls_lists));
    let sm = hits1(&stable_marriage_topk(&topk));
    assert!(greedy > 0.05, "greedy {greedy}");
    assert!(csls >= greedy * 0.9, "csls {csls} vs greedy {greedy}");
    assert!(sm >= greedy * 0.9, "sm {sm} vs greedy {greedy}");
}

#[test]
fn conventional_and_embedding_agree_on_easy_pairs() {
    let pair = PresetConfig::new(DatasetFamily::DY, 250, false, 102).generate();
    let gold: std::collections::HashSet<(u32, u32)> =
        pair.alignment.iter().map(|&(a, b)| (a.0, b.0)).collect();
    let paris = Paris::default();
    let predicted: Vec<(u32, u32)> = paris
        .align(&pair)
        .iter()
        .map(|&(a, b)| (a.0, b.0))
        .collect();
    let prf = precision_recall_f1(&predicted, &gold);
    assert!(prf.precision > 0.7, "PARIS precision {}", prf.precision);
    assert!(prf.recall > 0.4, "PARIS recall {}", prf.recall);
}

#[test]
fn semi_supervised_approaches_report_augmentation() {
    let pair = PresetConfig::new(DatasetFamily::EnFr, 250, false, 103).generate();
    let mut rng = SmallRng::seed_from_u64(2);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    let cfg = RunConfig {
        dim: 16,
        max_epochs: 45,
        threads: 2,
        ..RunConfig::default()
    };
    for kind in [ApproachKind::BootEa, ApproachKind::IPTransE] {
        let out = kind.build().run(&pair, &folds[0], &cfg);
        assert!(
            !out.augmentation.is_empty(),
            "{kind:?} must record augmentation rounds"
        );
        for prf in &out.augmentation {
            assert!(prf.precision >= 0.0 && prf.precision <= 1.0);
            assert!(prf.recall >= 0.0 && prf.recall <= 1.0);
        }
    }
}

#[test]
fn relation_only_ablation_degrades_attribute_approaches() {
    // Table 8's shape: removing attributes hurts RDGCN (whose name features
    // are the key signal) but BootEA keeps working.
    let pair = PresetConfig::new(DatasetFamily::DY, 300, false, 104).generate();
    let mut rng = SmallRng::seed_from_u64(3);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    let with_attrs = small_cfg();
    let without = RunConfig {
        use_attributes: false,
        ..small_cfg()
    };

    let rdgcn = approach_by_name("RDGCN").unwrap();
    let full = evaluate_output(&rdgcn.run(&pair, &folds[0], &with_attrs), &folds[0].test, 2);
    let bare = evaluate_output(&rdgcn.run(&pair, &folds[0], &without), &folds[0].test, 2);
    assert!(
        full.hits1 > bare.hits1,
        "RDGCN with attrs {} should beat without {}",
        full.hits1,
        bare.hits1
    );

    let bootea = approach_by_name("BootEA").unwrap();
    let b_full = evaluate_output(
        &bootea.run(&pair, &folds[0], &with_attrs),
        &folds[0].test,
        2,
    );
    let b_bare = evaluate_output(&bootea.run(&pair, &folds[0], &without), &folds[0].test, 2);
    // BootEA ignores attributes: identical configuration-independent runs.
    assert!((b_full.hits1 - b_bare.hits1).abs() < 1e-9);
}
