//! `openea-cli`: run entity alignment on datasets in the OpenEA disk format
//! — generate a synthetic pair with its 5-fold splits, sample a smaller one,
//! print Table-2 statistics, train an approach on a fold and write its
//! predicted alignment, or run a conventional system. `USAGE` below lists
//! every command's options; one a command does not read is refused, as is a
//! value that does not parse (`error: …`, exit status 2).

use openea::core::io;
use openea::prelude::*;
use openea_runtime::cli::{die, Args};
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;
use std::path::PathBuf;

const USAGE: &str = "openea-cli — entity alignment on OpenEA-format datasets

commands:
  generate     --family EN-FR --entities N --out DIR [--dense] [--seed N]
  sample       --source DIR --target N --out DIR [--sampler ids|ras|prs] [--seed N]
  stats        --dataset DIR
  run          --dataset DIR --approach NAME [--fold K] [--epochs N] [--dim D]
               [--out FILE] [--csls] [--stable-marriage]
  conventional --dataset DIR --system paris|logmap [--out FILE]";

fn main() {
    let mut args = Args::from_env(USAGE, &["dense", "csls", "stable-marriage"]);
    if args.is_empty() {
        println!("{USAGE}");
        return;
    }
    match args.positional::<String>("command").as_str() {
        "generate" => generate(args),
        "sample" => sample(args),
        "stats" => stats(args),
        "run" => run(args),
        "conventional" => conventional(args),
        "help" => println!("{USAGE}"),
        other => die(format_args!("unknown command {other}")),
    }
}

fn parse_family(s: &str) -> DatasetFamily {
    match s.to_uppercase().as_str() {
        "EN-FR" | "ENFR" => DatasetFamily::EnFr,
        "EN-DE" | "ENDE" => DatasetFamily::EnDe,
        "D-W" | "DW" => DatasetFamily::DW,
        "D-Y" | "DY" => DatasetFamily::DY,
        other => die(format_args!(
            "--family: unknown family {other} (EN-FR, EN-DE, D-W, D-Y)"
        )),
    }
}

fn generate(mut args: Args) {
    let family: String = args.required("family");
    let entities: usize = args.required("entities");
    let out: PathBuf = args.required("out");
    let dense = args.flag("dense");
    let seed = args.value_or("seed", 7u64);
    args.finish();
    let family = parse_family(&family);

    let pair = PresetConfig::new(family, entities, dense, seed).generate();
    let mut rng = SmallRng::seed_from_u64(seed);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    io::write_pair(&out, &pair).unwrap_or_else(|e| die(e));
    io::write_folds(&out, &pair, &folds).unwrap_or_else(|e| die(e));
    println!(
        "wrote {} ({} entities per KG, {} aligned, {} folds) to {}",
        family.label(),
        pair.kg1.num_entities(),
        pair.num_aligned(),
        folds.len(),
        out.display()
    );
}

fn sample(mut args: Args) {
    let source_dir: String = args.required("source");
    let target: usize = args.required("target");
    let out: PathBuf = args.required("out");
    let sampler = args.value_or("sampler", "ids".to_owned());
    let seed = args.value_or("seed", 7u64);
    args.finish();

    let source = io::read_pair(&source_dir).unwrap_or_else(|e| die(e));
    let mut rng = SmallRng::seed_from_u64(seed);
    let sampled = match sampler.as_str() {
        "ids" => {
            let outcome = ids_sample(
                &source,
                IdsConfig {
                    target,
                    mu: (target / 40).max(4),
                },
                &mut rng,
            );
            println!(
                "IDS: js = ({:.3}, {:.3}), converged = {}",
                outcome.js1, outcome.js2, outcome.converged
            );
            outcome.pair
        }
        "ras" => ras_sample(&source, target, &mut rng),
        "prs" => prs_sample(&source, target, &mut rng),
        other => die(format_args!(
            "--sampler: unknown sampler {other} (ids, ras, prs)"
        )),
    };
    let (q1, q2) = sample_quality(&source, &sampled);
    for q in [q1, q2] {
        println!(
            "{}: deg {:.2}, JS {:.1}%, isolates {:.1}%, clustering {:.3}",
            q.kg_name,
            q.avg_degree,
            q.js_to_source * 100.0,
            q.isolated_fraction * 100.0,
            q.clustering_coefficient
        );
    }
    let folds = k_fold_splits(&sampled.alignment, 5, &mut rng);
    io::write_pair(&out, &sampled).unwrap_or_else(|e| die(e));
    io::write_folds(&out, &sampled, &folds).unwrap_or_else(|e| die(e));
    println!(
        "wrote {} aligned entities to {}",
        sampled.num_aligned(),
        out.display()
    );
}

fn stats(mut args: Args) {
    let dir: String = args.required("dataset");
    args.finish();
    let pair = io::read_pair(&dir).unwrap_or_else(|e| die(e));
    println!(
        "{:>6} {:>7} {:>7} {:>9} {:>9} {:>7} {:>10}",
        "KG", "#Rel.", "#Att.", "#Rel tr.", "#Att tr.", "Deg.", "Isolates"
    );
    for kg in [&pair.kg1, &pair.kg2] {
        let s = KgStats::of(kg);
        println!(
            "{:>6} {:>7} {:>7} {:>9} {:>9} {:>7.2} {:>9.1}%",
            s.name,
            s.relations,
            s.attributes,
            s.rel_triples,
            s.attr_triples,
            s.avg_degree,
            s.isolated_fraction * 100.0
        );
    }
    println!("reference alignment: {}", pair.num_aligned());
}

fn run(mut args: Args) {
    let dir: String = args.required("dataset");
    let name: String = args.required("approach");
    let fold = args.value_or("fold", 0usize);
    let defaults = RunConfig::default();
    let cfg = RunConfig {
        max_epochs: args.value_or("epochs", defaults.max_epochs),
        dim: args.value_or("dim", defaults.dim),
        ..defaults
    };
    let out_path: Option<String> = args.value("out");
    let stable = args.flag("stable-marriage");
    let csls = args.flag("csls");
    args.finish();

    let approach = approach_by_name(&name).unwrap_or_else(|| {
        die(format_args!(
            "--approach: unknown approach {name}; available: {}",
            all_approaches()
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    });
    let pair = io::read_pair(&dir).unwrap_or_else(|e| die(e));
    let mut folds = io::read_folds(&dir, &pair).unwrap_or_else(|e| die(e));
    if folds.is_empty() {
        println!("no 721_5fold splits found; creating a fresh 20/10/70 split");
        let mut rng = SmallRng::seed_from_u64(7);
        folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    }
    let split = folds
        .get(fold)
        .unwrap_or_else(|| die("--fold out of range"));

    println!(
        "training {} on fold {fold} ({} seeds)...",
        approach.name(),
        split.train.len()
    );
    let t0 = std::time::Instant::now();
    let out = approach.run(&pair, split, &cfg);
    let eval = evaluate_output(&out, &split.test, cfg.threads);
    println!(
        "{}: Hits@1 {:.3}  Hits@5 {:.3}  MR {:.1}  MRR {:.3}  ({:.1}s)",
        approach.name(),
        eval.hits1,
        eval.hits5,
        eval.mr,
        eval.mrr,
        t0.elapsed().as_secs_f64()
    );

    // Predict over the test pairs with the chosen inference strategy.
    let sources: Vec<EntityId> = split.test.iter().map(|&(a, _)| a).collect();
    let targets: Vec<EntityId> = split.test.iter().map(|&(_, b)| b).collect();
    // Greedy reads each source's best target; stable marriage proposes down
    // full lists and CSLS re-ranks them, so both keep every target — the
    // streamed lists are then exact, without the `test × test` matrix.
    let ranked = if csls {
        let (src, dst) = out.gather(&sources, &targets);
        let cols = targets.len();
        csls_topk(&src, &dst, out.dim, out.metric, 10, cols, cfg.threads)
    } else {
        let keep = if stable { targets.len() } else { 1 };
        out.topk(&sources, &targets, keep, cfg.threads)
    };
    let matching = if stable {
        stable_marriage_topk(&ranked)
    } else {
        greedy_match_topk(&ranked)
    };
    let predictions: Vec<String> = matching
        .iter()
        .enumerate()
        .filter_map(|(i, &m)| {
            m.map(|j| {
                format!(
                    "{}\t{}",
                    pair.kg1.entity_name(sources[i]),
                    pair.kg2.entity_name(targets[j])
                )
            })
        })
        .collect();
    match out_path {
        Some(path) => {
            std::fs::write(&path, predictions.join("\n") + "\n").unwrap_or_else(|e| die(e));
            println!("wrote {} predicted pairs to {path}", predictions.len());
        }
        None => println!(
            "{} predicted pairs (pass --out FILE to save them)",
            predictions.len()
        ),
    }
}

fn conventional(mut args: Args) {
    let dir: String = args.required("dataset");
    let system: String = args.required("system");
    let out_path: Option<String> = args.value("out");
    args.finish();

    let pair = io::read_pair(&dir).unwrap_or_else(|e| die(e));
    let predicted = match system.as_str() {
        "paris" => Paris::default().align(&pair),
        "logmap" => LogMap::default().align(&pair),
        other => die(format_args!(
            "--system: unknown system {other} (paris, logmap)"
        )),
    };
    let gold: std::collections::HashSet<(u32, u32)> =
        pair.alignment.iter().map(|&(a, b)| (a.0, b.0)).collect();
    let raw: Vec<(u32, u32)> = predicted.iter().map(|&(a, b)| (a.0, b.0)).collect();
    let prf = precision_recall_f1(&raw, &gold);
    println!(
        "{system}: {} predictions, precision {:.3}, recall {:.3}, f1 {:.3}",
        predicted.len(),
        prf.precision,
        prf.recall,
        prf.f1
    );
    if let Some(path) = out_path {
        let lines: Vec<String> = predicted
            .iter()
            .map(|&(a, b)| format!("{}\t{}", pair.kg1.entity_name(a), pair.kg2.entity_name(b)))
            .collect();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap_or_else(|e| die(e));
        println!("wrote predictions to {path}");
    }
}
