//! Distance metrics and alignment-inference strategies (Table 6 and the
//! geometric analysis of Sect. 6.1): take one trained model's embeddings and
//! compare Greedy, Greedy + CSLS, stable marriage, and SM + CSLS, plus the
//! hubness/isolation profile that explains the gains.
//!
//! ```sh
//! cargo run --release -p openea --example inference_strategies
//! ```

use openea::align::{hubness_profile, sinkhorn_match, topk_similarity_profile};
use openea::prelude::*;
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;

fn main() {
    let pair = PresetConfig::new(DatasetFamily::DY, 400, false, 23).generate();
    let mut rng = SmallRng::seed_from_u64(5);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    let split = &folds[0];
    let cfg = RunConfig {
        max_epochs: 80,
        ..RunConfig::default()
    };

    let approach = approach_by_name("MTransE").unwrap();
    let out = approach.run(&pair, split, &cfg);

    let sources: Vec<EntityId> = split.test.iter().map(|&(a, _)| a).collect();
    let targets: Vec<EntityId> = split.test.iter().map(|&(_, b)| b).collect();
    // Greedy, stable marriage and CSLS read streamed top-k lists; keeping
    // every target makes them exact. Hungarian and Sinkhorn weigh every cell
    // of the dense matrix.
    let cols = targets.len();
    let topk = out.topk(&sources, &targets, cols, cfg.threads);
    let (src, dst) = out.gather(&sources, &targets);
    let csls = csls_topk(&src, &dst, out.dim, out.metric, 10, cols, cfg.threads);
    let sim = SimilarityMatrix::compute(&src, &dst, out.dim, out.metric, cfg.threads);

    // Geometric diagnostics (Figures 9 and 10).
    let profile = topk_similarity_profile(&topk, 5);
    println!("top-5 similarity profile: {profile:.3?}");
    let hubs = hubness_profile(&topk);
    println!(
        "hubness: never-top1 {:.1}%  once {:.1}%  2-4x {:.1}%  ≥5x {:.1}%",
        hubs.zero * 100.0,
        hubs.one * 100.0,
        hubs.two_to_four * 100.0,
        hubs.five_plus * 100.0
    );

    // Table 6: Hits@1 of each strategy (gold pair = diagonal).
    let hits1 = |matching: &[Option<usize>]| {
        let ok = matching
            .iter()
            .enumerate()
            .filter(|&(i, &m)| m == Some(i))
            .count();
        ok as f64 / matching.len().max(1) as f64
    };
    println!("\n{:22} Hits@1", "strategy");
    println!("{:22} {:.3}", "greedy", hits1(&greedy_match_topk(&topk)));
    println!(
        "{:22} {:.3}",
        "greedy + CSLS",
        hits1(&greedy_match_topk(&csls))
    );
    println!(
        "{:22} {:.3}",
        "stable marriage",
        hits1(&stable_marriage_topk(&topk))
    );
    println!(
        "{:22} {:.3}",
        "SM + CSLS",
        hits1(&stable_marriage_topk(&csls))
    );
    println!(
        "{:22} {:.3}",
        "Hungarian (optimal)",
        hits1(&hungarian(&sim))
    );
    // Bonus: the optimal-transport strategy of OTEA's family (not in the
    // paper's Table 6, but a fourth collective alternative).
    let ot = sinkhorn_match(&sim);
    println!("{:22} {:.3}", "Sinkhorn OT", hits1(&ot));
}
