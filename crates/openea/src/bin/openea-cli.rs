//! `openea-cli`: run entity alignment on datasets in the OpenEA disk format.
//!
//! ```text
//! openea-cli generate --family EN-FR --entities 1000 --out DIR [--dense] [--seed N]
//!     Generate a synthetic benchmark dataset (with 5-fold splits) into DIR.
//!
//! openea-cli sample --source DIR --target N --out DIR [--sampler ids|ras|prs]
//!     Sample a smaller dataset from a source dataset directory.
//!
//! openea-cli stats --dataset DIR
//!     Print Table-2-style statistics for a dataset directory.
//!
//! openea-cli run --dataset DIR --approach NAME [--fold K] [--epochs N]
//!                [--dim D] [--out FILE] [--csls] [--stable-marriage]
//!     Train an approach on fold K and write/print the predicted alignment
//!     and its evaluation.
//!
//! openea-cli conventional --dataset DIR --system paris|logmap [--out FILE]
//!     Run an unsupervised conventional system on the dataset.
//! ```

use openea::core::io;
use openea::prelude::*;
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;
use std::collections::HashMap;
use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        usage();
        return;
    };
    let opts = parse_opts(args.collect());
    match command.as_str() {
        "generate" => generate(&opts),
        "sample" => sample(&opts),
        "stats" => stats(&opts),
        "run" => run(&opts),
        "conventional" => conventional(&opts),
        "--help" | "-h" | "help" => usage(),
        other => die(&format!("unknown command {other}")),
    }
}

type Opts = HashMap<String, String>;

fn parse_opts(args: Vec<String>) -> Opts {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].trim_start_matches("--").to_owned();
        if !args[i].starts_with("--") {
            die(&format!("expected an option, got {}", args[i]));
        }
        // Flags without values.
        let flag_only = matches!(key.as_str(), "dense" | "csls" | "stable-marriage");
        if flag_only {
            opts.insert(key, "true".to_owned());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .unwrap_or_else(|| die(&format!("--{key} needs a value")));
            opts.insert(key, value.clone());
            i += 2;
        }
    }
    opts
}

fn get<'a>(opts: &'a Opts, key: &str) -> &'a str {
    opts.get(key)
        .map(|s| s.as_str())
        .unwrap_or_else(|| die(&format!("missing --{key}")))
}

fn get_or<'a>(opts: &'a Opts, key: &str, default: &'a str) -> &'a str {
    opts.get(key).map(|s| s.as_str()).unwrap_or(default)
}

fn parse_family(s: &str) -> DatasetFamily {
    match s.to_uppercase().as_str() {
        "EN-FR" | "ENFR" => DatasetFamily::EnFr,
        "EN-DE" | "ENDE" => DatasetFamily::EnDe,
        "D-W" | "DW" => DatasetFamily::DW,
        "D-Y" | "DY" => DatasetFamily::DY,
        other => die(&format!("unknown family {other} (EN-FR, EN-DE, D-W, D-Y)")),
    }
}

fn generate(opts: &Opts) {
    let family = parse_family(get(opts, "family"));
    let entities: usize = get(opts, "entities")
        .parse()
        .unwrap_or_else(|_| die("--entities must be a number"));
    let out = PathBuf::from(get(opts, "out"));
    let dense = opts.contains_key("dense");
    let seed: u64 = get_or(opts, "seed", "7")
        .parse()
        .unwrap_or_else(|_| die("--seed must be a number"));

    let pair = PresetConfig::new(family, entities, dense, seed).generate();
    let mut rng = SmallRng::seed_from_u64(seed);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    io::write_pair(&out, &pair).unwrap_or_else(|e| die(&e.to_string()));
    io::write_folds(&out, &pair, &folds).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "wrote {} ({} entities per KG, {} aligned, {} folds) to {}",
        family.label(),
        pair.kg1.num_entities(),
        pair.num_aligned(),
        folds.len(),
        out.display()
    );
}

fn sample(opts: &Opts) {
    let source_dir = get(opts, "source");
    let target: usize = get(opts, "target")
        .parse()
        .unwrap_or_else(|_| die("--target must be a number"));
    let out = PathBuf::from(get(opts, "out"));
    let sampler = get_or(opts, "sampler", "ids");
    let seed: u64 = get_or(opts, "seed", "7")
        .parse()
        .unwrap_or_else(|_| die("--seed must be a number"));

    let source = io::read_pair(source_dir).unwrap_or_else(|e| die(&e.to_string()));
    let mut rng = SmallRng::seed_from_u64(seed);
    let sampled = match sampler {
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
        other => die(&format!("unknown sampler {other} (ids, ras, prs)")),
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
    io::write_pair(&out, &sampled).unwrap_or_else(|e| die(&e.to_string()));
    io::write_folds(&out, &sampled, &folds).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "wrote {} aligned entities to {}",
        sampled.num_aligned(),
        out.display()
    );
}

fn stats(opts: &Opts) {
    let pair = io::read_pair(get(opts, "dataset")).unwrap_or_else(|e| die(&e.to_string()));
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

fn run(opts: &Opts) {
    let dir = get(opts, "dataset");
    let name = get(opts, "approach");
    let approach = approach_by_name(name).unwrap_or_else(|| {
        die(&format!(
            "unknown approach {name}; available: {}",
            all_approaches()
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    });
    let fold: usize = get_or(opts, "fold", "0")
        .parse()
        .unwrap_or_else(|_| die("--fold must be a number"));
    let pair = io::read_pair(dir).unwrap_or_else(|e| die(&e.to_string()));
    let mut folds = io::read_folds(dir, &pair).unwrap_or_else(|e| die(&e.to_string()));
    if folds.is_empty() {
        println!("no 721_5fold splits found; creating a fresh 20/10/70 split");
        let mut rng = SmallRng::seed_from_u64(7);
        folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    }
    let split = folds
        .get(fold)
        .unwrap_or_else(|| die("--fold out of range"));

    let mut cfg = RunConfig::default();
    if let Some(e) = opts.get("epochs") {
        cfg.max_epochs = e
            .parse()
            .unwrap_or_else(|_| die("--epochs must be a number"));
    }
    if let Some(d) = opts.get("dim") {
        cfg.dim = d.parse().unwrap_or_else(|_| die("--dim must be a number"));
    }
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
    let stable = opts.contains_key("stable-marriage");
    let ranked = if opts.contains_key("csls") {
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
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, predictions.join("\n") + "\n")
                .unwrap_or_else(|e| die(&e.to_string()));
            println!("wrote {} predicted pairs to {path}", predictions.len());
        }
        None => println!(
            "{} predicted pairs (pass --out FILE to save them)",
            predictions.len()
        ),
    }
}

fn conventional(opts: &Opts) {
    let pair = io::read_pair(get(opts, "dataset")).unwrap_or_else(|e| die(&e.to_string()));
    let system = get(opts, "system");
    let predicted = match system {
        "paris" => Paris::default().align(&pair),
        "logmap" => LogMap::default().align(&pair),
        other => die(&format!("unknown system {other} (paris, logmap)")),
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
    if let Some(path) = opts.get("out") {
        let lines: Vec<String> = predicted
            .iter()
            .map(|&(a, b)| format!("{}\t{}", pair.kg1.entity_name(a), pair.kg2.entity_name(b)))
            .collect();
        std::fs::write(path, lines.join("\n") + "\n").unwrap_or_else(|e| die(&e.to_string()));
        println!("wrote predictions to {path}");
    }
}

fn usage() {
    println!(
        "openea-cli — entity alignment on OpenEA-format datasets\n\n\
         commands:\n\
           generate     --family EN-FR --entities N --out DIR [--dense] [--seed N]\n\
           sample       --source DIR --target N --out DIR [--sampler ids|ras|prs]\n\
           stats        --dataset DIR\n\
           run          --dataset DIR --approach NAME [--fold K] [--epochs N] [--dim D]\n\
                        [--out FILE] [--csls] [--stable-marriage]\n\
           conventional --dataset DIR --system paris|logmap [--out FILE]"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
