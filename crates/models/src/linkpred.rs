//! Link-prediction evaluation (paper Sect. 2.1.1): the task the KG
//! embedding models were originally designed for, with the standard
//! Hits@m / MR / MRR metrics in the *filtered* setting (known true triples
//! are excluded from the candidate ranking).

use crate::traits::RelationModel;
use openea_math::negsamp::RawTriple;
use std::collections::HashSet;

/// Link-prediction metrics, averaged over head and tail prediction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkPredEval {
    pub hits1: f64,
    pub hits10: f64,
    pub mr: f64,
    pub mrr: f64,
    /// Number of ranking queries evaluated (2 per test triple).
    pub queries: usize,
}

/// Evaluates `model` on `test` triples over `num_entities` candidates.
/// `known` is the filter set (train ∪ valid ∪ test in the usual protocol).
pub fn evaluate_link_prediction<M: RelationModel + ?Sized>(
    model: &M,
    test: &[RawTriple],
    num_entities: u32,
    known: &HashSet<RawTriple>,
) -> LinkPredEval {
    let mut hits1 = 0usize;
    let mut hits10 = 0usize;
    let mut mr = 0.0f64;
    let mut mrr = 0.0f64;
    let mut queries = 0usize;

    let mut rank_query = |make: &dyn Fn(u32) -> RawTriple, truth: u32| {
        let true_energy = model.energy(make(truth));
        let mut rank = 1usize;
        for c in 0..num_entities {
            if c == truth {
                continue;
            }
            let cand = make(c);
            if known.contains(&cand) {
                continue; // filtered setting
            }
            if model.energy(cand) < true_energy {
                rank += 1;
            }
        }
        if rank <= 1 {
            hits1 += 1;
        }
        if rank <= 10 {
            hits10 += 1;
        }
        mr += rank as f64;
        mrr += 1.0 / rank as f64;
        queries += 1;
    };

    for &(h, r, t) in test {
        rank_query(&|c| (h, r, c), t); // tail prediction
        rank_query(&|c| (c, r, t), h); // head prediction
    }

    let n = queries.max(1) as f64;
    LinkPredEval {
        hits1: hits1 as f64 / n,
        hits10: hits10 as f64 / n,
        mr: mr / n,
        mrr: mrr / n,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::toy_triples;
    use crate::trainer::{train_epoch_batched, TrainOptions};
    use crate::TransE;
    use openea_math::negsamp::UniformSampler;
    use openea_runtime::rng::{split_seed, SeedableRng, SmallRng};

    fn trained_model(n: u32) -> (TransE, Vec<RawTriple>) {
        let mut rng = SmallRng::seed_from_u64(5);
        let triples = toy_triples(n);
        let mut model = TransE::new(n as usize, 2, 16, 0.5, &mut rng);
        let sampler = UniformSampler { num_entities: n };
        let opts = TrainOptions {
            lr: 0.05,
            negs_per_pos: 2,
            batch_size: 1,
            ..TrainOptions::default()
        };
        for epoch in 0..120 {
            train_epoch_batched(&mut model, &triples, &sampler, &opts, split_seed(5, epoch))
                .expect("valid options");
        }
        (model, triples)
    }

    #[test]
    fn trained_transe_ranks_well_on_toy_links() {
        let (model, triples) = trained_model(20);
        let known: HashSet<RawTriple> = triples.iter().copied().collect();
        let test: Vec<RawTriple> = triples.iter().step_by(4).copied().collect();
        let eval = evaluate_link_prediction(&model, &test, 20, &known);
        assert_eq!(eval.queries, test.len() * 2);
        assert!(eval.hits10 > 0.7, "hits@10 {}", eval.hits10);
        assert!(eval.mrr > 0.3, "mrr {}", eval.mrr);
        assert!(eval.mr >= 1.0 && eval.mr <= 20.0);
    }

    #[test]
    fn filtering_excludes_known_triples() {
        // With every candidate triple "known", the rank is always 1.
        let (model, triples) = trained_model(10);
        let mut known = HashSet::new();
        for h in 0..10u32 {
            for r in 0..2u32 {
                for t in 0..10u32 {
                    known.insert((h, r, t));
                }
            }
        }
        let eval = evaluate_link_prediction(&model, &triples[..4], 10, &known);
        assert_eq!(eval.hits1, 1.0);
        assert_eq!(eval.mr, 1.0);
    }

    #[test]
    fn empty_test_set_is_safe() {
        let (model, _) = trained_model(10);
        let eval = evaluate_link_prediction(&model, &[], 10, &HashSet::new());
        assert_eq!(eval.queries, 0);
        assert_eq!(eval.hits1, 0.0);
    }
}
