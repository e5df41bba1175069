//! The paper's figures: 3 (degree distributions), 5 (recall per degree
//! bucket), 6 (attribute ablation), 7 (augmentation curves), 8 (running
//! time), 9 (similarity profiles), 10 (hubness/isolation), 11 (unexplored
//! models) and 12 (overlap of correct alignment).

use crate::datasets::{build_dataset, DatasetKey};
use crate::runner::{run_fold0, try_run_fold0, CvResult};
use crate::tables::conventional_input;
use crate::{show, showln, HarnessConfig};
use openea::align::{degree_bucket_recall, hubness_profile, overlap3, topk_similarity_profile};
use openea::approaches::mtranse::{MTransE, RelModelKind};
use openea::prelude::*;
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;
use std::collections::HashSet;

/// Figure 3: degree distributions of the source KG vs the IDS sample vs a
/// biased (RAS) sample.
pub fn fig3(cfg: &HarnessConfig) {
    showln!(
        cfg,
        "== Figure 3: degree distributions (EN-FR source vs samples) =="
    );
    let target = cfg.scale.base_entities().min(600);
    let source = PresetConfig::new(DatasetFamily::EnFr, target * 8, false, cfg.seed).generate();
    let filtered = source.filter_to_alignment();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ids = ids_sample(
        &source,
        IdsConfig {
            target,
            mu: target / 40 + 2,
        },
        &mut rng,
    );
    let ras = ras_sample(&source, target, &mut rng);

    let dists = [
        ("source", DegreeDistribution::of(&filtered.kg1)),
        ("IDS", DegreeDistribution::of(&ids.pair.kg1)),
        ("RAS", DegreeDistribution::of(&ras.kg1)),
    ];
    showln!(
        cfg,
        "{:>4} {:>9} {:>9} {:>9}",
        "deg",
        "source",
        "IDS",
        "RAS"
    );
    let mut rows = Vec::new();
    for d in 0..=15usize {
        let row: Vec<f64> = dists.iter().map(|(_, dist)| dist.proportion(d)).collect();
        showln!(
            cfg,
            "{d:>4} {:>8.1}% {:>8.1}% {:>8.1}%",
            row[0] * 100.0,
            row[1] * 100.0,
            row[2] * 100.0
        );
        rows.push((d, row));
    }
    showln!(
        cfg,
        "avg degree: source {:.2}  IDS {:.2}  RAS {:.2}",
        filtered.kg1.avg_degree(),
        ids.pair.kg1.avg_degree(),
        ras.kg1.avg_degree()
    );
    cfg.write_json("fig3", &rows);
}

/// Figure 5: recall per alignment-degree bucket on EN-FR (V1).
pub fn fig5(cfg: &HarnessConfig) {
    showln!(
        cfg,
        "== Figure 5: recall vs alignment degree (EN-FR, V1) =="
    );
    let key = DatasetKey {
        family: DatasetFamily::EnFr,
        dense: false,
        large: false,
    };
    let dataset = build_dataset(key, cfg);
    let edges = [1usize, 6, 11, 16];
    showln!(
        cfg,
        "{:10} {:>9} {:>9} {:>9} {:>9}",
        "Approach",
        "[1,6)",
        "[6,11)",
        "[11,16)",
        "[16,inf)"
    );
    let mut rows = Vec::new();
    for approach in all_approaches() {
        let (out, rc) = run_fold0(approach.as_ref(), &dataset, cfg, |_| {});
        let test = &dataset.folds[0].test;
        let sources: Vec<EntityId> = test.iter().map(|&(a, _)| a).collect();
        let targets: Vec<EntityId> = test.iter().map(|&(_, b)| b).collect();
        let matching = greedy_match_topk(&out.topk(&sources, &targets, 1, rc.threads));
        let degrees: Vec<usize> = test
            .iter()
            .map(|&p| dataset.pair.alignment_degree(p))
            .collect();
        let correct: Vec<bool> = matching
            .iter()
            .enumerate()
            .map(|(i, &m)| m == Some(i))
            .collect();
        let buckets = degree_bucket_recall(&degrees, &correct, &edges);
        showln!(
            cfg,
            "{:10} {:>9.3} {:>9.3} {:>9.3} {:>9.3}   (n = {:?})",
            approach.name(),
            buckets[0].1,
            buckets[1].1,
            buckets[2].1,
            buckets[3].1,
            buckets.iter().map(|&(n, _)| n).collect::<Vec<_>>()
        );
        rows.push((approach.name().to_owned(), buckets));
    }
    cfg.write_json("fig5", &rows);
}

/// Figure 6: Hits@1 with vs without attribute embedding, on D-W and D-Y.
pub fn fig6(cfg: &HarnessConfig) {
    showln!(cfg, "== Figure 6: attribute ablation (Hits@1) ==");
    let subjects = [
        "JAPE", "GCNAlign", "KDCoE", "AttrE", "IMUSE", "MultiKE", "RDGCN",
    ];
    let mut rows = Vec::new();
    for family in [DatasetFamily::DW, DatasetFamily::DY] {
        let key = DatasetKey {
            family,
            dense: false,
            large: false,
        };
        let dataset = build_dataset(key, cfg);
        showln!(cfg, "\n-- {} --", key.label(cfg));
        showln!(
            cfg,
            "{:10} {:>10} {:>10}",
            "Approach",
            "w/o attr",
            "w/ attr"
        );
        for name in subjects {
            let approach = approach_by_name(name).unwrap();
            let (out_with, rc) = run_fold0(approach.as_ref(), &dataset, cfg, |_| {});
            let (out_without, _) = run_fold0(approach.as_ref(), &dataset, cfg, |rc| {
                rc.use_attributes = false;
            });
            let with = evaluate_output(&out_with, &dataset.folds[0].test, rc.threads).hits1;
            let without = evaluate_output(&out_without, &dataset.folds[0].test, rc.threads).hits1;
            showln!(cfg, "{name:10} {without:>10.3} {with:>10.3}");
            rows.push((key.label(cfg), name.to_owned(), without, with));
        }
    }
    cfg.write_json("fig6", &rows);
}

/// Figure 7: precision/recall/F1 of the augmented alignment per
/// semi-supervised iteration (IPTransE, BootEA, KDCoE) on EN-FR (V1).
pub fn fig7(cfg: &HarnessConfig) {
    showln!(
        cfg,
        "== Figure 7: semi-supervised augmentation quality (EN-FR, V1) =="
    );
    let key = DatasetKey {
        family: DatasetFamily::EnFr,
        dense: false,
        large: false,
    };
    let dataset = build_dataset(key, cfg);
    let mut rows = Vec::new();
    for kind in [
        ApproachKind::IPTransE,
        ApproachKind::BootEa,
        ApproachKind::KdCoe,
    ] {
        let approach = kind.build();
        let (out, _) = run_fold0(approach.as_ref(), &dataset, cfg, |_| {});
        showln!(cfg, "\n{}:", approach.name());
        showln!(cfg, "  iter  precision  recall     f1");
        for (i, prf) in out.augmentation.iter().enumerate() {
            showln!(
                cfg,
                "  {:>4} {:>10.3} {:>7.3} {:>6.3}",
                i + 1,
                prf.precision,
                prf.recall,
                prf.f1
            );
            rows.push((
                approach.name().to_owned(),
                i + 1,
                prf.precision,
                prf.recall,
                prf.f1,
            ));
        }
    }
    cfg.write_json("fig7", &rows);
}

/// Figure 8: running time per approach (log scale in the paper). Reuses the
/// per-fold timings of a Table-5 run when available.
pub fn fig8(cfg: &HarnessConfig, table5_results: Option<&[CvResult]>) {
    showln!(
        cfg,
        "== Figure 8: running time (seconds per fold, V1 datasets) =="
    );
    let results_owned;
    let results: &[CvResult] = match table5_results {
        Some(r) => r,
        None => {
            results_owned = crate::tables::table5(cfg, false);
            &results_owned
        }
    };
    let mut per_approach: std::collections::BTreeMap<String, Vec<(String, f64)>> =
        Default::default();
    for r in results {
        if r.dataset.contains("V1") {
            per_approach
                .entry(r.approach.clone())
                .or_default()
                .push((r.dataset.clone(), r.seconds_per_fold));
        }
    }
    let mut rows = Vec::new();
    for (approach, times) in &per_approach {
        let total: f64 = times.iter().map(|&(_, t)| t).sum();
        showln!(
            cfg,
            "{approach:10} mean {:>8.1}s  {:?}",
            total / times.len() as f64,
            times
        );
        rows.push((approach.clone(), times.clone()));
    }
    cfg.write_json("fig8", &rows);
}

/// Figures 9 and 10: similarity profiles and hubness/isolation on D-Y (V1).
pub fn fig9_10(cfg: &HarnessConfig) {
    showln!(cfg, "== Figures 9 & 10: geometric analysis (D-Y, V1) ==");
    let key = DatasetKey {
        family: DatasetFamily::DY,
        dense: false,
        large: false,
    };
    let dataset = build_dataset(key, cfg);
    showln!(
        cfg,
        "{:10} {:>7} {:>7} {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} {:>7}",
        "Approach",
        "top1",
        "top2",
        "top3",
        "top4",
        "top5",
        "zero",
        "once",
        "2-4",
        ">=5"
    );
    let mut rows = Vec::new();
    for approach in all_approaches() {
        let (out, rc) = run_fold0(approach.as_ref(), &dataset, cfg, |_| {});
        let test = &dataset.folds[0].test;
        let sources: Vec<EntityId> = test.iter().map(|&(a, _)| a).collect();
        let targets: Vec<EntityId> = test.iter().map(|&(_, b)| b).collect();
        // Cosine similarities for comparability across approaches (Fig. 9).
        let mut cos_out = out.clone();
        cos_out.metric = Metric::Cosine;
        let topk = cos_out.topk(&sources, &targets, 5, rc.threads);
        let profile = topk_similarity_profile(&topk, 5);
        let hubs = hubness_profile(&topk);
        showln!(
            cfg,
            "{:10} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} | {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            approach.name(),
            profile[0],
            profile[1],
            profile[2],
            profile[3],
            profile[4],
            hubs.zero * 100.0,
            hubs.one * 100.0,
            hubs.two_to_four * 100.0,
            hubs.five_plus * 100.0
        );
        rows.push((
            approach.name().to_owned(),
            profile,
            hubs.zero,
            hubs.one,
            hubs.two_to_four,
            hubs.five_plus,
        ));
    }
    cfg.write_json("fig9_10", &rows);
}

/// Figure 11: unexplored KG embedding models in place of MTransE's TransE.
pub fn fig11(cfg: &HarnessConfig) {
    showln!(
        cfg,
        "== Figure 11: unexplored embedding models (V1, Hits@1) =="
    );
    let mut rows = Vec::new();
    show!(cfg, "{:10}", "Model");
    for family in DatasetFamily::ALL {
        show!(cfg, " {:>8}", family.label());
    }
    showln!(cfg);
    for kind in RelModelKind::FIGURE11 {
        show!(cfg, "{:10}", kind.label());
        let mut row = Vec::new();
        for family in DatasetFamily::ALL {
            let key = DatasetKey {
                family,
                dense: false,
                large: false,
            };
            let dataset = build_dataset(key, cfg);
            let approach = MTransE {
                model: kind,
                orthogonal: false,
            };
            let (out, rc) = try_run_fold0(&approach, &dataset, cfg, |rc| {
                // The deep models pay a large constant per step; keep the
                // budget bounded at small scales.
                if matches!(kind, RelModelKind::ConvE | RelModelKind::ProjE) {
                    rc.max_epochs = rc.max_epochs.min(40);
                }
            });
            // A diverged model prints `div` and records `null`: the paper
            // drops such models (Hits@1 < 0.01) rather than failing.
            let hits1 = out
                .ok()
                .map(|out| evaluate_output(&out, &dataset.folds[0].test, rc.threads).hits1);
            match hits1 {
                Some(h) => show!(cfg, " {h:>8.3}"),
                None => show!(cfg, " {:>8}", "div"),
            }
            row.push(hits1);
        }
        showln!(cfg);
        rows.push((kind.label().to_owned(), row));
    }
    cfg.write_json("fig11", &rows);
}

/// Figure 12: overlap of correct alignment found by the best embedding
/// approach, LogMap and PARIS on EN-FR (V1).
pub fn fig12(cfg: &HarnessConfig) {
    showln!(
        cfg,
        "== Figure 12: correct-alignment overlap (EN-FR, V1) =="
    );
    let key = DatasetKey {
        family: DatasetFamily::EnFr,
        dense: false,
        large: false,
    };
    let dataset = build_dataset(key, cfg);
    let gold: Vec<(u32, u32)> = dataset
        .pair
        .alignment
        .iter()
        .map(|&(a, b)| (a.0, b.0))
        .collect();

    let conv_pair = conventional_input(&dataset.pair, key.family);
    let as_raw = |v: Vec<AlignedPair>| -> HashSet<(u32, u32)> {
        v.into_iter().map(|(a, b)| (a.0, b.0)).collect()
    };
    let logmap_found = as_raw(LogMap::default().align(&conv_pair));
    let paris_found = as_raw(Paris::default().align(&conv_pair));

    let approach = approach_by_name("RDGCN").unwrap();
    let (out, rc) = run_fold0(approach.as_ref(), &dataset, cfg, |_| {});
    let sources: Vec<EntityId> = dataset.pair.kg1.entity_ids().collect();
    let targets: Vec<EntityId> = dataset.pair.kg2.entity_ids().collect();
    let matching = greedy_match_topk(&out.topk(&sources, &targets, 1, rc.threads));
    let openea_found: HashSet<(u32, u32)> = matching
        .into_iter()
        .enumerate()
        .filter_map(|(i, j)| j.map(|j| (sources[i].0, targets[j].0)))
        .collect();

    let o = overlap3(&gold, &openea_found, &logmap_found, &paris_found);
    showln!(cfg, "fractions of the gold alignment:");
    showln!(cfg, "  all three:            {:>5.1}%", o.all_three * 100.0);
    showln!(cfg, "  OpenEA ∩ LogMap only: {:>5.1}%", o.a_and_b * 100.0);
    showln!(cfg, "  OpenEA ∩ PARIS only:  {:>5.1}%", o.a_and_c * 100.0);
    showln!(cfg, "  LogMap ∩ PARIS only:  {:>5.1}%", o.b_and_c * 100.0);
    showln!(cfg, "  only OpenEA:          {:>5.1}%", o.only_a * 100.0);
    showln!(cfg, "  only LogMap:          {:>5.1}%", o.only_b * 100.0);
    showln!(cfg, "  only PARIS:           {:>5.1}%", o.only_c * 100.0);
    showln!(cfg, "  none:                 {:>5.1}%", o.none * 100.0);
    cfg.write_json(
        "fig12",
        &[
            ("all_three", o.all_three),
            ("openea_logmap", o.a_and_b),
            ("openea_paris", o.a_and_c),
            ("logmap_paris", o.b_and_c),
            ("only_openea", o.only_a),
            ("only_logmap", o.only_b),
            ("only_paris", o.only_c),
            ("none", o.none),
        ],
    );
}

/// Ablation studies called out in Sect. 5.2: BootEA's self-training
/// (the paper reports a > 0.086 Hits@1 gain on V1), IPTransE's path loss
/// and SEA's cycle regularizer.
pub fn ablation(cfg: &HarnessConfig) {
    use openea::approaches::bootea::BootEa;
    use openea::approaches::iptranse::IpTransE;
    use openea::approaches::sea::Sea;

    showln!(cfg, "== Ablations (EN-FR, V1, Hits@1) ==");
    let key = DatasetKey {
        family: DatasetFamily::EnFr,
        dense: false,
        large: false,
    };
    let dataset = build_dataset(key, cfg);
    let eval = |approach: &dyn Approach| {
        let (out, rc) = run_fold0(approach, &dataset, cfg, |_| {});
        evaluate_output(&out, &dataset.folds[0].test, rc.threads).hits1
    };

    let mut rows = Vec::new();
    let with_boot = eval(&BootEa::default());
    let without_boot = eval(&BootEa {
        bootstrapping: false,
        ..BootEa::default()
    });
    showln!(
        cfg,
        "BootEA    with bootstrapping {with_boot:.3}  without {without_boot:.3}  (Δ {:+.3})",
        with_boot - without_boot
    );
    rows.push(("BootEA bootstrapping".to_owned(), with_boot, without_boot));

    let with_path = eval(&IpTransE::default());
    let without_path = eval(&IpTransE {
        path_weight: 0.0,
        ..IpTransE::default()
    });
    showln!(
        cfg,
        "IPTransE  with path loss     {with_path:.3}  without {without_path:.3}  (Δ {:+.3})",
        with_path - without_path
    );
    rows.push(("IPTransE path loss".to_owned(), with_path, without_path));

    let with_cycle = eval(&Sea::default());
    let without_cycle = eval(&Sea { cycle_weight: 0.0 });
    showln!(
        cfg,
        "SEA       with cycle reg.    {with_cycle:.3}  without {without_cycle:.3}  (Δ {:+.3})",
        with_cycle - without_cycle
    );
    rows.push((
        "SEA cycle regularizer".to_owned(),
        with_cycle,
        without_cycle,
    ));

    cfg.write_json("ablation", &rows);
}

/// Exploratory: unsupervised entity alignment (paper Sect. 7.2, direction 1)
/// — literal-derived pseudo-seeds plus self-training, zero gold seeds.
pub fn unsupervised(cfg: &HarnessConfig) {
    use openea::approaches::unsupervised::{align_unsupervised, UnsupervisedConfig};

    showln!(
        cfg,
        "== Exploratory: unsupervised alignment (no gold seeds) =="
    );
    showln!(
        cfg,
        "{:12} {:>8} {:>10} {:>8} {:>8}",
        "Dataset",
        "pseudo",
        "precision",
        "recall",
        "f1"
    );
    let mut rows = Vec::new();
    for family in DatasetFamily::ALL {
        let key = DatasetKey {
            family,
            dense: false,
            large: false,
        };
        let dataset = build_dataset(key, cfg);
        let mut rc = crate::datasets::run_config(cfg, &dataset);
        rc.max_epochs = cfg.scale.max_epochs();
        let outcome = align_unsupervised(&dataset.pair, UnsupervisedConfig::default(), &rc);
        let gold: HashSet<(u32, u32)> = dataset
            .pair
            .alignment
            .iter()
            .map(|&(a, b)| (a.0, b.0))
            .collect();
        let raw: Vec<(u32, u32)> = outcome.predicted.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let prf = precision_recall_f1(&raw, &gold);
        showln!(
            cfg,
            "{:12} {:>8} {:>10.3} {:>8.3} {:>8.3}",
            family.label(),
            outcome.pseudo_seeds.len(),
            prf.precision,
            prf.recall,
            prf.f1
        );
        rows.push((
            family.label(),
            outcome.pseudo_seeds.len(),
            prf.precision,
            prf.recall,
            prf.f1,
        ));
    }
    cfg.write_json("unsupervised", &rows);
}

/// Exploratory: blocking for large-scale alignment (paper Sect. 7.2,
/// direction 3), answered with the IVF partition the server probes — how
/// much of exact greedy Hits@1 survives probing `nprobe` of its `nlist`
/// partitions, at what fraction of the comparisons. A probe costs one
/// centroid score per partition plus the members it re-ranks; at
/// `nprobe = nlist` it re-ranks every target and equals the exact sweep.
pub fn blocking(cfg: &HarnessConfig) {
    use openea::align::{AnnConfig, IvfIndex};

    showln!(
        cfg,
        "== Exploratory: IVF blocking (D-Y, V1, MultiKE embeddings) =="
    );
    let key = DatasetKey {
        family: DatasetFamily::DY,
        dense: false,
        large: false,
    };
    let dataset = build_dataset(key, cfg);
    let approach = approach_by_name("MultiKE").unwrap();
    let (out, rc) = run_fold0(approach.as_ref(), &dataset, cfg, |_| {});
    let (sources, targets): (Vec<EntityId>, Vec<EntityId>) =
        dataset.folds[0].test.iter().copied().unzip();
    let n = sources.len();
    let hits1 = |correct: usize| correct as f64 / n.max(1) as f64;
    let exact = greedy_match_topk(&out.topk(&sources, &targets, 1, rc.threads));
    let exact_hits = hits1((0..n).filter(|&i| exact[i] == Some(i)).count());
    let total = n * n;

    let (src, dst) = out.gather(&sources, &targets);
    let ann = AnnConfig {
        seed: cfg.seed,
        ..AnnConfig::default()
    };
    let index = IvfIndex::build(&dst, out.dim, out.metric, &ann, rc.threads);
    let nlist = index.nlist();
    showln!(cfg, "{n} test pairs, nlist {nlist}");
    showln!(
        cfg,
        "{:>8} {:>10} {:>12} {:>10}",
        "nprobe",
        "Hits@1",
        "comparisons",
        "vs exact"
    );
    showln!(
        cfg,
        "{:>8} {:>10.3} {:>12} {:>10}",
        "exact",
        exact_hits,
        total,
        "1.00x"
    );
    let mut rows = vec![("exact".to_owned(), exact_hits, total)];
    let doubling = std::iter::successors((nlist > 0).then_some(1), |&p| {
        (p < nlist).then(|| (2 * p).min(nlist))
    });
    for nprobe in doubling {
        let mut correct = 0;
        let mut comparisons = n * nlist;
        for (i, q) in src.chunks_exact(out.dim).enumerate() {
            let (best, scanned) = index.search_counted(q, 1, nprobe);
            comparisons += scanned;
            if best.first().is_some_and(|&(j, _)| j as usize == i) {
                correct += 1;
            }
        }
        let hits = hits1(correct);
        showln!(
            cfg,
            "{:>8} {:>10.3} {:>12} {:>9.2}x",
            nprobe,
            hits,
            comparisons,
            comparisons as f64 / total as f64
        );
        rows.push((format!("nprobe {nprobe}"), hits, comparisons));
    }
    cfg.write_json("blocking", &rows);
}

/// Exploratory: AliNet, the approach the paper defers to a "future release"
/// (Sect. 5.1), against the two GCN approaches of the study, structure-only
/// (no attribute inputs), where its multi-hop gating is supposed to help.
pub fn alinet(cfg: &HarnessConfig) {
    use openea::approaches::alinet::AliNet;

    showln!(
        cfg,
        "== Exploratory: AliNet vs GCN approaches (structure only, Hits@1) =="
    );
    show!(cfg, "{:10}", "Approach");
    for family in DatasetFamily::ALL {
        show!(cfg, " {:>8}", family.label());
    }
    showln!(cfg);
    let mut rows = Vec::new();
    let alinet_box: Box<dyn Approach> = Box::new(AliNet);
    for approach in [
        alinet_box,
        approach_by_name("GCNAlign").unwrap(),
        approach_by_name("RDGCN").unwrap(),
    ] {
        show!(cfg, "{:10}", approach.name());
        let mut row = Vec::new();
        for family in DatasetFamily::ALL {
            let key = DatasetKey {
                family,
                dense: false,
                large: false,
            };
            let dataset = build_dataset(key, cfg);
            let (out, rc) = run_fold0(approach.as_ref(), &dataset, cfg, |rc| {
                rc.use_attributes = false; // structure-only comparison
            });
            let eval = evaluate_output(&out, &dataset.folds[0].test, rc.threads);
            show!(cfg, " {:>8.3}", eval.hits1);
            row.push(eval.hits1);
        }
        showln!(cfg);
        rows.push((approach.name().to_owned(), row));
    }
    cfg.write_json("alinet", &rows);
}

/// Exploratory: sensitivity to the seed-alignment fraction. The paper fixes
/// 20% training seeds ("conform\[s\] to the real world" — Sect. 5.1); this
/// sweep shows how each learning strategy degrades as seeds get scarce,
/// the motivation behind semi-supervised and unsupervised alignment.
pub fn seeds(cfg: &HarnessConfig) {
    use openea_runtime::rng::SliceRandom;

    showln!(
        cfg,
        "== Exploratory: Hits@1 vs seed fraction (EN-FR, V1) =="
    );
    let key = DatasetKey {
        family: DatasetFamily::EnFr,
        dense: false,
        large: false,
    };
    let dataset = build_dataset(key, cfg);
    let fractions = [0.05f64, 0.10, 0.20, 0.30];
    show!(cfg, "{:10}", "Approach");
    for f in fractions {
        show!(cfg, " {:>7.0}%", f * 100.0);
    }
    showln!(cfg);
    let mut rows = Vec::new();
    for name in ["MTransE", "BootEA", "RDGCN", "IMUSE"] {
        let approach = approach_by_name(name).unwrap();
        show!(cfg, "{name:10}");
        let mut row = Vec::new();
        for &frac in &fractions {
            // Re-split: `frac` train, 10% valid, rest test.
            let mut shuffled = dataset.pair.alignment.clone();
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xf00d);
            shuffled.shuffle(&mut rng);
            let n = shuffled.len();
            let tr = (n as f64 * frac) as usize;
            let va = n / 10;
            let split = FoldSplit {
                train: shuffled[..tr].to_vec(),
                valid: shuffled[tr..tr + va].to_vec(),
                test: shuffled[tr + va..].to_vec(),
            };
            let mut rc = crate::datasets::run_config(cfg, &dataset);
            rc.seed = cfg.seed;
            let out = approach.run(&dataset.pair, &split, &rc);
            let eval = evaluate_output(&out, &split.test, rc.threads);
            show!(cfg, " {:>8.3}", eval.hits1);
            row.push(eval.hits1);
        }
        showln!(cfg);
        rows.push((name.to_owned(), row));
    }
    cfg.write_json("seeds", &rows);
}

/// Exploratory: the orthogonality constraint on MTransE's transformation
/// (orthogonal Procrustes projection each epoch) — a principled variant the
/// MTransE paper proposes and Sect. 7.2 connects to unsupervised alignment.
pub fn orthogonal(cfg: &HarnessConfig) {
    use openea::approaches::mtranse::{MTransE, RelModelKind};

    showln!(
        cfg,
        "== Exploratory: MTransE with orthogonal transformation (Hits@1) =="
    );
    showln!(
        cfg,
        "{:10} {:>10} {:>12}",
        "Dataset",
        "linear",
        "orthogonal"
    );
    let mut rows = Vec::new();
    for family in DatasetFamily::ALL {
        let key = DatasetKey {
            family,
            dense: false,
            large: false,
        };
        let dataset = build_dataset(key, cfg);
        let linear = MTransE {
            model: RelModelKind::TransE,
            orthogonal: false,
        };
        let ortho = MTransE {
            model: RelModelKind::TransE,
            orthogonal: true,
        };
        let (out_l, rc) = run_fold0(&linear, &dataset, cfg, |_| {});
        let (out_o, _) = run_fold0(&ortho, &dataset, cfg, |_| {});
        let hl = evaluate_output(&out_l, &dataset.folds[0].test, rc.threads).hits1;
        let ho = evaluate_output(&out_o, &dataset.folds[0].test, rc.threads).hits1;
        showln!(cfg, "{:10} {:>10.3} {:>12.3}", family.label(), hl, ho);
        rows.push((family.label(), hl, ho));
    }
    cfg.write_json("orthogonal", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn fig3_runs_quickly() {
        let cfg = HarnessConfig {
            out_dir: None,
            scale: Scale::Small,
            out: crate::Output::to(std::io::sink()),
            ..HarnessConfig::default()
        };
        fig3(&cfg);
    }
}
