//! The paper's tables: 2 (dataset statistics), 3 (sampler quality),
//! 5 (main cross-validation results), 6 (inference strategies),
//! 7 (conventional comparison), 8 (feature study) and 9 (required
//! information).

use crate::datasets::{build_dataset, main_grid, DatasetKey};
use crate::runner::{run_cv, run_fold0, CvResult};
use crate::{showln, HarnessConfig};
use openea::prelude::*;
use openea::synth::Language;
use openea_runtime::json::{object, Json, ToJson};
use std::collections::HashSet;

/// Table 2: dataset statistics over the family × V1/V2 grid.
pub fn table2(cfg: &HarnessConfig, include_large: bool) {
    showln!(cfg, "== Table 2: dataset statistics ==");
    showln!(
        cfg,
        "{:24} {:>4} {:>7} {:>7} {:>9} {:>9} {:>7}",
        "Dataset",
        "KG",
        "#Rel.",
        "#Att.",
        "#Rel tr.",
        "#Att tr.",
        "Deg."
    );
    let mut rows = Vec::new();
    for key in main_grid(include_large) {
        let d = build_dataset(key, cfg);
        for kg in [&d.pair.kg1, &d.pair.kg2] {
            let s = KgStats::of(kg);
            showln!(
                cfg,
                "{:24} {:>4} {:>7} {:>7} {:>9} {:>9} {:>7.2}",
                key.label(cfg),
                s.name,
                s.relations,
                s.attributes,
                s.rel_triples,
                s.attr_triples,
                s.avg_degree
            );
            rows.push((key.label(cfg), s));
        }
    }
    cfg.write_json(
        "table2",
        &rows
            .iter()
            .map(|(l, s)| (l.clone(), s.clone()))
            .collect::<Vec<_>>(),
    );
}

/// Table 3: RAS vs PRS vs IDS sample quality against the source.
pub fn table3(cfg: &HarnessConfig) {
    showln!(cfg, "== Table 3: sampler comparison (EN-FR) ==");
    let target = cfg.scale.base_entities().min(600);
    let source = PresetConfig::new(DatasetFamily::EnFr, target * 8, false, cfg.seed).generate();
    let mut rng = openea_runtime::rng::SmallRng::seed_from_u64(cfg.seed);
    use openea_runtime::rng::SeedableRng;

    let filtered = source.filter_to_alignment();
    showln!(
        cfg,
        "{:10} {:>4} {:>10} {:>7} {:>6} {:>10} {:>13}",
        "Sampler",
        "KG",
        "#Align.",
        "Deg.",
        "JS",
        "Isolates",
        "Cluster coef."
    );
    let (sq1, sq2) = sample_quality(&source, &filtered);
    for q in [&sq1, &sq2] {
        showln!(
            cfg,
            "{:10} {:>4} {:>10} {:>7.2} {:>6} {:>9.1}% {:>13.3}",
            "(source)",
            q.kg_name,
            filtered.num_aligned(),
            q.avg_degree,
            "-",
            q.isolated_fraction * 100.0,
            q.clustering_coefficient
        );
    }
    let mut rows = Vec::new();
    let ras = ras_sample(&source, target, &mut rng);
    let prs = prs_sample(&source, target, &mut rng);
    let ids = ids_sample(
        &source,
        IdsConfig {
            target,
            mu: target / 40 + 2,
        },
        &mut rng,
    );
    for (name, sample) in [("RAS", &ras), ("PRS", &prs), ("IDS", &ids.pair)] {
        let (q1, q2) = sample_quality(&source, sample);
        for q in [q1, q2] {
            showln!(
                cfg,
                "{:10} {:>4} {:>10} {:>7.2} {:>5.1}% {:>9.1}% {:>13.3}",
                name,
                q.kg_name,
                sample.num_aligned(),
                q.avg_degree,
                q.js_to_source * 100.0,
                q.isolated_fraction * 100.0,
                q.clustering_coefficient
            );
            rows.push((
                name.to_owned(),
                q.kg_name.clone(),
                q.avg_degree,
                q.js_to_source,
                q.isolated_fraction,
                q.clustering_coefficient,
            ));
        }
    }
    cfg.write_json("table3", &rows);
}

/// Table 5 (plus the Figure 8 timings): every approach × dataset grid with
/// cross-validated Hits@1/Hits@5/MRR.
pub fn table5(cfg: &HarnessConfig, include_large: bool) -> Vec<CvResult> {
    showln!(cfg, "== Table 5: cross-validation results ==");
    let mut results = Vec::new();
    for key in main_grid(include_large) {
        let dataset = build_dataset(key, cfg);
        showln!(cfg, "\n-- {} --", key.label(cfg));
        showln!(
            cfg,
            "{:10} {:>12} {:>12} {:>12} {:>9}",
            "Approach",
            "Hits@1",
            "Hits@5",
            "MRR",
            "sec/fold"
        );
        for approach in all_approaches() {
            let r = run_cv(approach.as_ref(), &dataset, cfg, |_| {});
            showln!(
                cfg,
                "{:10} {:>12} {:>12} {:>12} {:>9.1}",
                r.approach,
                CvResult::cell(r.hits1_mean, r.hits1_std),
                CvResult::cell(r.hits5_mean, r.hits5_std),
                CvResult::cell(r.mrr_mean, r.mrr_std),
                r.seconds_per_fold
            );
            results.push(r);
        }
    }
    cfg.write_json("table5", &results);
    cfg.write_csv(
        "table5",
        &[
            "dataset",
            "approach",
            "hits1_mean",
            "hits1_std",
            "hits5_mean",
            "hits5_std",
            "mrr_mean",
            "mrr_std",
            "mr_mean",
            "seconds_per_fold",
        ],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.approach.clone(),
                    format!("{:.4}", r.hits1_mean),
                    format!("{:.4}", r.hits1_std),
                    format!("{:.4}", r.hits5_mean),
                    format!("{:.4}", r.hits5_std),
                    format!("{:.4}", r.mrr_mean),
                    format!("{:.4}", r.mrr_std),
                    format!("{:.2}", r.mr_mean),
                    format!("{:.2}", r.seconds_per_fold),
                ]
            })
            .collect::<Vec<_>>(),
    );
    results
}

/// Table 4: the common experiment settings (static, mirrors the paper's
/// hyper-parameter table at this harness's scale).
pub fn table4(cfg: &HarnessConfig) {
    showln!(cfg, "== Table 4: common hyper-parameters ==");
    showln!(cfg, "{:28} {}", "Embedding dimension", 32);
    showln!(cfg, "{:28} {}", "Max. epochs", cfg.scale.max_epochs());
    showln!(
        cfg,
        "{:28} every 10 epochs on validation Hits@1 (patience 2)",
        "Termination"
    );
    showln!(cfg, "{:28} {}", "Negatives per positive", 5);
    showln!(cfg, "{:28} {}", "Cross-validation folds", cfg.scale.folds());
    showln!(cfg, "{:28} 20% train / 10% valid / 70% test", "Split");
}

/// Table 6: Hits@1 under Greedy / Greedy+CSLS / SM / SM+CSLS per approach.
pub fn table6(cfg: &HarnessConfig) {
    showln!(cfg, "== Table 6: inference strategies (D-Y, V1) ==");
    let key = DatasetKey {
        family: DatasetFamily::DY,
        dense: false,
        large: false,
    };
    let dataset = build_dataset(key, cfg);
    showln!(
        cfg,
        "{:10} {:>8} {:>10} {:>8} {:>10}",
        "Approach",
        "Greedy",
        "G+CSLS",
        "SM",
        "SM+CSLS"
    );
    let mut rows = Vec::new();
    for approach in all_approaches() {
        let (out, rc) = run_fold0(approach.as_ref(), &dataset, cfg, |_| {});
        let test = &dataset.folds[0].test;
        let sources: Vec<EntityId> = test.iter().map(|&(a, _)| a).collect();
        let targets: Vec<EntityId> = test.iter().map(|&(_, b)| b).collect();
        // Full-keep top-k lists: streamed tile by tile, yet bit-identical to
        // the dense matrix path for greedy, stable-marriage and CSLS alike.
        let cols = targets.len();
        let topk = out.topk(&sources, &targets, cols, rc.threads);
        let (src, dst) = out.gather(&sources, &targets);
        let csls = csls_topk(&src, &dst, out.dim, out.metric, 10, cols, rc.threads);
        let hits1 = |m: &[Option<usize>]| {
            m.iter().enumerate().filter(|&(i, &x)| x == Some(i)).count() as f64
                / m.len().max(1) as f64
        };
        let row = (
            approach.name().to_owned(),
            hits1(&greedy_match_topk(&topk)),
            hits1(&greedy_match_topk(&csls)),
            hits1(&stable_marriage_topk(&topk)),
            hits1(&stable_marriage_topk(&csls)),
        );
        showln!(
            cfg,
            "{:10} {:>8.3} {:>10.3} {:>8.3} {:>10.3}",
            row.0,
            row.1,
            row.2,
            row.3,
            row.4
        );
        rows.push(row);
    }
    cfg.write_json("table6", &rows);
}

struct PrfRow {
    dataset: String,
    system: String,
    precision: f64,
    recall: f64,
    f1: f64,
}

impl ToJson for PrfRow {
    fn to_json(&self) -> Json {
        object([
            ("dataset", self.dataset.to_json()),
            ("system", self.system.to_json()),
            ("precision", self.precision.to_json()),
            ("recall", self.recall.to_json()),
            ("f1", self.f1.to_json()),
        ])
    }
}

/// The conventional systems run on a (machine-)translated copy for the
/// cross-lingual families, as in the paper.
pub fn conventional_input(pair: &KgPair, family: DatasetFamily) -> KgPair {
    match family {
        DatasetFamily::EnFr => {
            openea::synth::translate_pair(pair, &Translator::new(Language::L2, 60_000, 0.08))
        }
        DatasetFamily::EnDe => {
            openea::synth::translate_pair(pair, &Translator::new(Language::L3, 60_000, 0.08))
        }
        _ => pair.clone(),
    }
}

fn prf_of(predicted: &[AlignedPair], pair: &KgPair) -> PrfScores {
    let gold: HashSet<(u32, u32)> = pair.alignment.iter().map(|&(a, b)| (a.0, b.0)).collect();
    let raw: Vec<(u32, u32)> = predicted.iter().map(|&(a, b)| (a.0, b.0)).collect();
    precision_recall_f1(&raw, &gold)
}

/// Best-embedding predictions over the full entity sets by greedy matching
/// (the paper evaluates OpenEA's best approach against the full reference;
/// its precision = recall = Hits@1 over test candidates, and here we match
/// over everything for comparability with the unsupervised systems).
fn embedding_predictions(
    name: &str,
    dataset: &crate::datasets::Dataset,
    cfg: &HarnessConfig,
) -> (String, Vec<AlignedPair>) {
    let approach = approach_by_name(name).expect("known approach");
    let (out, rc) = run_fold0(approach.as_ref(), dataset, cfg, |_| {});
    let sources: Vec<EntityId> = dataset.pair.kg1.entity_ids().collect();
    let targets: Vec<EntityId> = dataset.pair.kg2.entity_ids().collect();
    let matching = greedy_match_topk(&out.topk(&sources, &targets, 1, rc.threads));
    let predicted: Vec<AlignedPair> = matching
        .into_iter()
        .enumerate()
        .filter_map(|(i, j)| j.map(|j| (sources[i], targets[j])))
        .collect();
    (approach.name().to_owned(), predicted)
}

/// Table 7: LogMap / PARIS / best embedding approach, P/R/F1 per dataset.
pub fn table7(cfg: &HarnessConfig) {
    showln!(cfg, "== Table 7: conventional vs embedding-based ==");
    showln!(
        cfg,
        "{:16} {:10} {:>10} {:>8} {:>8}",
        "Dataset",
        "System",
        "Precision",
        "Recall",
        "F1"
    );
    let mut rows: Vec<PrfRow> = Vec::new();
    for family in DatasetFamily::ALL {
        for dense in [false, true] {
            let key = DatasetKey {
                family,
                dense,
                large: false,
            };
            let dataset = build_dataset(key, cfg);
            let conv_pair = conventional_input(&dataset.pair, family);
            let logmap = LogMap::default();
            let paris = Paris::default();
            let (emb_name, emb_pred) = embedding_predictions("RDGCN", &dataset, cfg);
            for (system, predicted) in [
                ("LogMap".to_owned(), logmap.align(&conv_pair)),
                ("PARIS".to_owned(), paris.align(&conv_pair)),
                (format!("OpenEA({emb_name})"), emb_pred),
            ] {
                let prf = prf_of(&predicted, &dataset.pair);
                let shown = if predicted.is_empty() {
                    "-".to_owned()
                } else {
                    format!("{:.3}", prf.precision)
                };
                showln!(
                    cfg,
                    "{:16} {:10} {:>10} {:>8} {:>8}",
                    key.label(cfg),
                    system,
                    shown,
                    if predicted.is_empty() {
                        "-".to_owned()
                    } else {
                        format!("{:.3}", prf.recall)
                    },
                    if predicted.is_empty() {
                        "-".to_owned()
                    } else {
                        format!("{:.3}", prf.f1)
                    },
                );
                rows.push(PrfRow {
                    dataset: key.label(cfg),
                    system,
                    precision: prf.precision,
                    recall: prf.recall,
                    f1: prf.f1,
                });
            }
        }
    }
    cfg.write_json("table7", &rows);
}

/// Table 8: feature study on EN-FR (V1) — relation triples only vs attribute
/// triples only.
pub fn table8(cfg: &HarnessConfig) {
    showln!(cfg, "== Table 8: feature study (EN-FR, V1) ==");
    let key = DatasetKey {
        family: DatasetFamily::EnFr,
        dense: false,
        large: false,
    };
    let dataset = build_dataset(key, cfg);
    let mut rows: Vec<PrfRow> = Vec::new();

    // Conventional systems: strip one kind of triple from the input.
    let strip = |attrs_only: bool| -> KgPair {
        let rebuild = |kg: &KnowledgeGraph, name: &str| {
            let mut b = KgBuilder::new(name);
            for e in kg.entity_ids() {
                b.add_entity(kg.entity_name(e));
            }
            if attrs_only {
                for t in kg.attr_triples() {
                    b.add_attr_triple(
                        kg.entity_name(t.entity),
                        kg.attribute_name(t.attr),
                        kg.literal_value(t.value),
                    );
                }
            } else {
                for t in kg.rel_triples() {
                    b.add_rel_triple(
                        kg.entity_name(t.head),
                        kg.relation_name(t.rel),
                        kg.entity_name(t.tail),
                    );
                }
            }
            b.build()
        };
        let conv = conventional_input(&dataset.pair, key.family);
        KgPair::new(
            rebuild(&conv.kg1, "KG1"),
            rebuild(&conv.kg2, "KG2"),
            conv.alignment.clone(),
        )
    };

    showln!(
        cfg,
        "{:22} {:14} {:>10} {:>8} {:>8}",
        "System",
        "Features",
        "Precision",
        "Recall",
        "F1"
    );
    for attrs_only in [false, true] {
        let features = if attrs_only {
            "attributes only"
        } else {
            "relations only"
        };
        let stripped = strip(attrs_only);
        for (system, predicted) in [
            ("LogMap", LogMap::default().align(&stripped)),
            ("PARIS", Paris::default().align(&stripped)),
        ] {
            let prf = prf_of(&predicted, &dataset.pair);
            if predicted.is_empty() {
                showln!(
                    cfg,
                    "{system:22} {features:14} {:>10} {:>8} {:>8}",
                    "-",
                    "-",
                    "-"
                );
            } else {
                showln!(
                    cfg,
                    "{system:22} {features:14} {:>10.3} {:>8.3} {:>8.3}",
                    prf.precision,
                    prf.recall,
                    prf.f1
                );
            }
            rows.push(PrfRow {
                dataset: features.to_owned(),
                system: system.to_owned(),
                precision: prf.precision,
                recall: prf.recall,
                f1: prf.f1,
            });
        }
        // Embedding approaches: mask inputs through the run configuration.
        for name in ["BootEA", "MultiKE", "RDGCN"] {
            let approach = approach_by_name(name).unwrap();
            let (out, rc) = run_fold0(approach.as_ref(), &dataset, cfg, |rc| {
                rc.use_relations = !attrs_only;
                rc.use_attributes = attrs_only;
            });
            let eval = evaluate_output(&out, &dataset.folds[0].test, rc.threads);
            showln!(
                cfg,
                "{:22} {features:14} {:>10.3} {:>8.3} {:>8.3}",
                format!("OpenEA({name})"),
                eval.hits1,
                eval.hits1,
                eval.hits1
            );
            rows.push(PrfRow {
                dataset: features.to_owned(),
                system: format!("OpenEA({name})"),
                precision: eval.hits1,
                recall: eval.hits1,
                f1: eval.hits1,
            });
        }
    }
    cfg.write_json("table8", &rows);
}

/// Table 9: the required-information matrix (static approach metadata).
pub fn table9(cfg: &HarnessConfig) {
    showln!(cfg, "== Table 9: required information ==");
    showln!(
        cfg,
        "legend: * mandatory, o optional, ^ cross-lingual only, (blank) not applicable"
    );
    showln!(
        cfg,
        "{:10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Approach",
        "Rel. triples",
        "Att. triples",
        "Prealn. ent.",
        "Prealn. prop.",
        "Word emb."
    );
    let mut rows = Vec::new();
    for approach in all_approaches() {
        let r = approach.requirements();
        showln!(
            cfg,
            "{:10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            approach.name(),
            r.rel_triples.symbol(),
            r.attr_triples.symbol(),
            r.pre_aligned_entities.symbol(),
            r.pre_aligned_properties.symbol(),
            r.word_embeddings.symbol()
        );
        rows.push((
            approach.name().to_owned(),
            [
                r.rel_triples.symbol(),
                r.attr_triples.symbol(),
                r.pre_aligned_entities.symbol(),
                r.pre_aligned_properties.symbol(),
                r.word_embeddings.symbol(),
            ],
        ));
    }
    // The two conventional systems (fixed metadata from the paper).
    for (name, row) in [
        ("LogMap", ["o", "*", " ", " ", "^"]),
        ("PARIS", ["o", "*", " ", " ", "^"]),
    ] {
        showln!(
            cfg,
            "{:10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            name,
            row[0],
            row[1],
            row[2],
            row[3],
            row[4]
        );
        rows.push((name.to_owned(), row));
    }
    cfg.write_json("table9", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            out_dir: None,
            scale: Scale::Small,
            out: crate::Output::to(std::io::sink()),
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn conventional_input_translates_cross_lingual_only() {
        let cfg = tiny();
        let key = DatasetKey {
            family: DatasetFamily::EnFr,
            dense: false,
            large: false,
        };
        let d = build_dataset(key, &cfg);
        let translated = conventional_input(&d.pair, DatasetFamily::EnFr);
        // Literal overlap with KG1 rises after translation.
        let overlap = |p: &KgPair| {
            let s1: HashSet<&str> = p
                .kg1
                .attr_triples()
                .iter()
                .map(|t| p.kg1.literal_value(t.value))
                .collect();
            p.kg2
                .attr_triples()
                .iter()
                .filter(|t| s1.contains(p.kg2.literal_value(t.value)))
                .count()
        };
        assert!(overlap(&translated) > overlap(&d.pair));
        let same = conventional_input(&d.pair, DatasetFamily::DY);
        assert_eq!(same.kg2.num_attr_triples(), d.pair.kg2.num_attr_triples());
    }

    /// A writer whose bytes the test can read back.
    #[derive(Clone, Default)]
    struct Captured(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for Captured {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Table 9 prints into the configured output, not stdout.
    #[test]
    fn table9_runs() {
        let captured = Captured::default();
        let cfg = HarnessConfig {
            out: crate::Output::to(captured.clone()),
            ..tiny()
        };
        table9(&cfg);
        let text = String::from_utf8(captured.0.lock().unwrap().clone()).unwrap();
        assert!(
            text.starts_with("== Table 9: required information ==\n"),
            "{text}"
        );
        assert!(
            text.contains("\nMTransE ") && text.contains("\nBootEA "),
            "{text}"
        );
    }
}
