//! Microbenchmarks for the performance-critical kernels: similarity
//! search, CSLS, the inference strategies, PageRank, IDS sampling and a
//! TransE training epoch. Runs on the in-tree timer; filter with
//! `cargo bench -- <substring>`.

use openea::align::{
    csls_topk, greedy_match, greedy_match_topk, stable_marriage, Metric, SimilarityMatrix,
    TopKMatrix,
};
use openea::graph::{pagerank, PageRankConfig};
use openea::math::negsamp::UniformSampler;
use openea::models::{train_epoch_batched, TrainOptions, TransE};
use openea::prelude::*;
use openea_runtime::rng::{split_seed, Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::bench::{black_box, Harness};

fn random_embeddings(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bench_similarity(h: &mut Harness) {
    for &n in &[200usize, 500] {
        let src = random_embeddings(n, 32, 1);
        let dst = random_embeddings(n, 32, 2);
        h.bench(&format!("similarity_matrix/cosine/{n}"), || {
            SimilarityMatrix::compute(black_box(&src), black_box(&dst), 32, Metric::Cosine, 4)
        });
    }
}

fn bench_csls_and_inference(h: &mut Harness) {
    let n = 400;
    let src = random_embeddings(n, 32, 3);
    let dst = random_embeddings(n, 32, 4);
    let sim = SimilarityMatrix::compute(&src, &dst, 32, Metric::Cosine, 4);
    h.bench("csls_k10_400", || sim.csls(10));
    h.bench("csls_topk_k10_400", || {
        csls_topk(
            black_box(&src),
            black_box(&dst),
            32,
            Metric::Cosine,
            10,
            10,
            4,
        )
    });
    h.bench("topk_matrix_k10_400", || {
        TopKMatrix::compute(black_box(&src), black_box(&dst), 32, Metric::Cosine, 10, 4)
    });
    h.bench("greedy_400", || greedy_match(&sim));
    let topk = TopKMatrix::compute(&src, &dst, 32, Metric::Cosine, 10, 4);
    h.bench("greedy_topk_400", || greedy_match_topk(&topk));
    h.bench("stable_marriage_400", || stable_marriage(&sim));
    let small = SimilarityMatrix::compute(
        &random_embeddings(200, 16, 5),
        &random_embeddings(200, 16, 6),
        16,
        Metric::Cosine,
        2,
    );
    h.bench("hungarian_200", || hungarian(&small));
}

fn bench_graph_algorithms(h: &mut Harness) {
    let pair = PresetConfig::new(DatasetFamily::EnFr, 1000, false, 7).generate();
    h.bench("pagerank_1000", || {
        pagerank(&pair.kg1, PageRankConfig::default())
    });
    h.bench("degree_distribution_1000", || {
        DegreeDistribution::of(&pair.kg1)
    });
}

fn bench_ids(h: &mut Harness) {
    let source = PresetConfig::new(DatasetFamily::EnFr, 800, false, 8).generate();
    h.bench("ids_800_to_300", || {
        let mut rng = SmallRng::seed_from_u64(0);
        ids_sample(
            &source,
            IdsConfig {
                target: 300,
                mu: 20,
                max_restarts: 0,
                ..IdsConfig::default()
            },
            &mut rng,
        )
    });
}

fn bench_transe_epoch(h: &mut Harness) {
    let pair = PresetConfig::new(DatasetFamily::EnFr, 800, false, 9).generate();
    let triples: Vec<(u32, u32, u32)> = pair
        .kg1
        .rel_triples()
        .iter()
        .map(|t| (t.head.0, t.rel.0, t.tail.0))
        .collect();
    let sampler = UniformSampler {
        num_entities: pair.kg1.num_entities() as u32,
    };
    let mut rng = SmallRng::seed_from_u64(1);
    let mut model = TransE::new(
        pair.kg1.num_entities(),
        pair.kg1.num_relations(),
        32,
        1.0,
        &mut rng,
    );
    let opts = TrainOptions::default();
    let mut epoch = 0u64;
    h.bench("transe_epoch_800", || {
        epoch += 1;
        train_epoch_batched(&mut model, &triples, &sampler, &opts, split_seed(1, epoch))
    });
}

fn bench_synth(h: &mut Harness) {
    let mut seed = 0u64;
    h.bench("generate_pair_500", || {
        seed += 1;
        PresetConfig::new(DatasetFamily::DW, 500, false, seed).generate()
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_similarity(&mut h);
    bench_csls_and_inference(&mut h);
    bench_graph_algorithms(&mut h);
    bench_ids(&mut h);
    bench_transe_epoch(&mut h);
    bench_synth(&mut h);
    h.finish();
}
