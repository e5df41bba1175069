//! Conventional vs. embedding-based alignment and their complementarity
//! (paper Sect. 6.3 and Figure 12): run PARIS, LogMap and an embedding
//! approach on the same pair and break down which gold pairs each system
//! finds.
//!
//! ```sh
//! cargo run --release -p openea --example hybrid_alignment
//! ```

use openea::align::overlap3;
use openea::prelude::*;
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;
use std::collections::HashSet;

fn main() {
    let pair = PresetConfig::new(DatasetFamily::DY, 500, false, 17).generate();
    let gold: Vec<(u32, u32)> = pair.alignment.iter().map(|&(a, b)| (a.0, b.0)).collect();
    let gold_set: HashSet<(u32, u32)> = gold.iter().copied().collect();

    // Conventional systems run unsupervised on the full pair.
    let mut found = Vec::new();
    let paris = Paris::default();
    let logmap = LogMap::default();
    for (name, predicted) in [
        ("PARIS", paris.align(&pair)),
        ("LogMap", logmap.align(&pair)),
    ] {
        let raw: Vec<(u32, u32)> = predicted.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let prf = precision_recall_f1(&raw, &gold_set);
        println!(
            "{:8} precision {:.3}  recall {:.3}  f1 {:.3}  ({} predictions)",
            name,
            prf.precision,
            prf.recall,
            prf.f1,
            raw.len()
        );
        found.push(raw.into_iter().collect::<HashSet<_>>());
    }

    // The embedding side: RDGCN trained on fold 0, predicting over all
    // entities by greedy matching.
    let mut rng = SmallRng::seed_from_u64(4);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    let cfg = RunConfig {
        max_epochs: 60,
        ..RunConfig::default()
    };
    let rdgcn = approach_by_name("RDGCN").unwrap();
    let out = rdgcn.run(&pair, &folds[0], &cfg);
    let sources: Vec<EntityId> = pair.kg1.entity_ids().collect();
    let targets: Vec<EntityId> = pair.kg2.entity_ids().collect();
    let best = out.topk(&sources, &targets, 1, cfg.threads);
    let emb_pred: Vec<(u32, u32)> = greedy_match_topk(&best)
        .into_iter()
        .enumerate()
        .filter_map(|(i, j)| j.map(|j| (sources[i].0, targets[j].0)))
        .collect();
    let prf = precision_recall_f1(&emb_pred, &gold_set);
    println!(
        "{:8} precision {:.3}  recall {:.3}  f1 {:.3}  ({} predictions)",
        "OpenEA",
        prf.precision,
        prf.recall,
        prf.f1,
        emb_pred.len()
    );
    let emb_found: HashSet<(u32, u32)> = emb_pred.into_iter().collect();

    // Figure-12-style breakdown over the gold alignment.
    let o = overlap3(&gold, &emb_found, &found[1], &found[0]);
    println!("\ncorrect-alignment overlap (fractions of gold):");
    println!("  all three systems:    {:.1}%", o.all_three * 100.0);
    println!("  OpenEA ∩ LogMap only: {:.1}%", o.a_and_b * 100.0);
    println!("  OpenEA ∩ PARIS only:  {:.1}%", o.a_and_c * 100.0);
    println!("  LogMap ∩ PARIS only:  {:.1}%", o.b_and_c * 100.0);
    println!("  only OpenEA:          {:.1}%", o.only_a * 100.0);
    println!("  only LogMap:          {:.1}%", o.only_b * 100.0);
    println!("  only PARIS:           {:.1}%", o.only_c * 100.0);
    println!("  found by none:        {:.1}%", o.none * 100.0);
}
