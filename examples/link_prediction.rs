//! The models crate on its own turf: link prediction (paper Sect. 2.1.1).
//!
//! Trains several KG embedding models on one synthetic KG and evaluates
//! filtered Hits@1/Hits@10/MR/MRR — the protocol of the FB15K/WN18 line of
//! work that the entity-alignment field builds on.
//!
//! ```sh
//! cargo run --release -p openea --example link_prediction
//! ```

use openea::math::negsamp::UniformSampler;
use openea::models::{
    evaluate_link_prediction, train_epoch_batched, ComplEx, DistMult, RelationModel, RotatE,
    TrainOptions, TransD, TransE, TransH, TuckEr,
};
use openea_runtime::rng::{split_seed, SeedableRng, SliceRandom, SmallRng};
use std::collections::HashSet;

/// A rule-structured KG: entities on a ring with algebraic relations
/// (successor, double, triple, opposite). Held-out triples are *inferable*
/// from the remaining ones, which is what link prediction measures.
fn structured_kg(n: u32) -> Vec<(u32, u32, u32)> {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, 0, (i + 1) % n)); // successor
        t.push((i, 1, (2 * i) % n)); // double
        t.push((i, 2, (3 * i) % n)); // triple
        t.push((i, 3, (i + n / 2) % n)); // opposite
    }
    t
}

fn main() {
    let n_entities: u32 = 120;
    let mut triples = structured_kg(n_entities);
    let mut rng = SmallRng::seed_from_u64(0);
    triples.shuffle(&mut rng);
    let n_test = triples.len() / 10;
    let (test, train) = triples.split_at(n_test);
    let known: HashSet<(u32, u32, u32)> = triples.iter().copied().collect();
    println!(
        "structured KG: {} entities, 4 relations, {} train / {} test triples",
        n_entities,
        train.len(),
        test.len()
    );

    let n = n_entities as usize;
    let r = 4;
    let sampler = UniformSampler {
        num_entities: n as u32,
    };
    let dim = 32;
    let epochs = 200;
    let opts = TrainOptions {
        lr: 0.05,
        negs_per_pos: 5,
        batch_size: 32,
        ..TrainOptions::default()
    };

    let mut models: Vec<Box<dyn RelationModel>> = vec![
        Box::new(TransE::new(n, r, dim, 1.0, &mut rng)),
        Box::new(TransH::new(n, r, dim, 1.0, &mut rng)),
        Box::new(TransD::new(n, r, dim, 1.0, &mut rng)),
        Box::new(DistMult::new(n, r, dim, &mut rng)),
        Box::new(ComplEx::new(n, r, dim, &mut rng)),
        Box::new(RotatE::new(n, r, dim, 2.0, &mut rng)),
        Box::new(TuckEr::new(n, r, 16, &mut rng)),
    ];

    println!(
        "\n{:10} {:>8} {:>8} {:>8} {:>8}",
        "Model", "Hits@1", "Hits@10", "MR", "MRR"
    );
    for model in models.iter_mut() {
        for epoch in 0..epochs {
            train_epoch_batched(model.as_mut(), train, &sampler, &opts, split_seed(0, epoch))
                .expect("valid options");
        }
        // Evaluate on a subsample to keep the example quick.
        let eval = evaluate_link_prediction(
            model.as_ref(),
            &test[..test.len().min(40)],
            n as u32,
            &known,
        );
        println!(
            "{:10} {:>8.3} {:>8.3} {:>8.1} {:>8.3}",
            model.name(),
            eval.hits1,
            eval.hits10,
            eval.mr,
            eval.mrr
        );
    }
}
