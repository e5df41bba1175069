//! The two baseline samplers of Sect. 3.3: random alignment sampling (RAS)
//! and PageRank-based sampling (PRS). Both are expected to produce worse
//! samples than IDS (sparser, higher JS divergence, many isolated entities);
//! the quality comparison is Table 3.

use openea_core::{EntityId, KgPair};
use openea_graph::pagerank;
use openea_runtime::rng::Rng;
use openea_runtime::rng::SliceRandom;
use std::collections::HashSet;

/// Random alignment sampling: pick `target` alignment pairs uniformly at
/// random, keep those entities, and retain only triples whose endpoints both
/// survive.
pub fn ras_sample<R: Rng>(source: &KgPair, target: usize, rng: &mut R) -> KgPair {
    let filtered = source.filter_to_alignment();
    if filtered.num_aligned() <= target {
        return filtered;
    }
    let mut idx: Vec<usize> = (0..filtered.num_aligned()).collect();
    idx.shuffle(rng);
    keep_pairs(&filtered, idx.into_iter().take(target))
}

/// PageRank-based sampling: rank KG1's aligned entities by PageRank, sample
/// `target` of them with probability proportional to their score, and pull in
/// their counterparts from KG2.
pub fn prs_sample<R: Rng>(source: &KgPair, target: usize, rng: &mut R) -> KgPair {
    let filtered = source.filter_to_alignment();
    if filtered.num_aligned() <= target {
        return filtered;
    }
    let pr = pagerank(&filtered.kg1);
    // Efraimidis–Spirakis weighted sampling without replacement.
    let mut keyed: Vec<(f64, usize)> = filtered
        .alignment
        .iter()
        .enumerate()
        .map(|(i, &(e1, _))| {
            let u: f64 = rng.gen_range(1e-12..1.0);
            (u.powf(1.0 / pr[e1.idx()].max(1e-12)), i)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite keys"));
    keep_pairs(&filtered, keyed.into_iter().take(target).map(|(_, i)| i))
}

fn keep_pairs(pair: &KgPair, indices: impl Iterator<Item = usize>) -> KgPair {
    let mut keep1: HashSet<EntityId> = HashSet::new();
    let mut keep2: HashSet<EntityId> = HashSet::new();
    for i in indices {
        let (a, b) = pair.alignment[i];
        keep1.insert(a);
        keep2.insert(b);
    }
    pair.restrict(&keep1, &keep2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_core::DegreeDistribution;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;
    use openea_synth::{DatasetFamily, PresetConfig};

    fn source() -> KgPair {
        PresetConfig::new(DatasetFamily::EnFr, 1200, false, 21).generate()
    }

    #[test]
    fn ras_hits_target_size() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(0);
        let s = ras_sample(&src, 300, &mut rng);
        assert_eq!(s.num_aligned(), 300);
        assert_eq!(s.kg1.num_entities(), 300);
    }

    #[test]
    fn prs_hits_target_size() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(1);
        let s = prs_sample(&src, 300, &mut rng);
        assert_eq!(s.num_aligned(), 300);
    }

    #[test]
    fn ras_is_much_sparser_than_source() {
        let src = source();
        let filtered = src.filter_to_alignment();
        let mut rng = SmallRng::seed_from_u64(2);
        let s = ras_sample(&src, 300, &mut rng);
        // The paper's key criticism of RAS: random sampling destroys density.
        assert!(s.kg1.avg_degree() < filtered.kg1.avg_degree() / 2.0);
    }

    #[test]
    fn prs_keeps_higher_degree_than_ras() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(3);
        let ras = ras_sample(&src, 300, &mut rng);
        let prs = prs_sample(&src, 300, &mut rng);
        assert!(prs.kg1.avg_degree() > ras.kg1.avg_degree());
    }

    #[test]
    fn ras_degree_distribution_diverges_from_source() {
        let src = source();
        let filtered = src.filter_to_alignment();
        let q = DegreeDistribution::of(&filtered.kg1);
        let mut rng = SmallRng::seed_from_u64(4);
        let ras = ras_sample(&src, 300, &mut rng);
        let p = DegreeDistribution::of(&ras.kg1);
        assert!(p.js_divergence(&q) > 0.05, "js = {}", p.js_divergence(&q));
    }

    #[test]
    fn small_source_is_returned_filtered() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(5);
        let s = ras_sample(&src, 10_000, &mut rng);
        assert_eq!(s.num_aligned(), src.filter_to_alignment().num_aligned());
    }
}
