//! Pairs of knowledge graphs with reference entity alignment, and the
//! train/validation/test splitting scheme used throughout the paper.

use crate::ids::EntityId;
use crate::kg::KnowledgeGraph;
use openea_runtime::rng::Rng;
use openea_runtime::rng::SliceRandom;
use std::collections::HashSet;

/// A pair of aligned entities `(e1 ∈ KG1, e2 ∈ KG2)`.
pub type AlignedPair = (EntityId, EntityId);

/// Two knowledge graphs plus their reference (gold) entity alignment.
///
/// The reference alignment is 1-to-1: each entity appears in at most one pair.
#[derive(Clone, Debug)]
pub struct KgPair {
    pub kg1: KnowledgeGraph,
    pub kg2: KnowledgeGraph,
    pub alignment: Vec<AlignedPair>,
}

impl KgPair {
    /// Creates a pair, validating id ranges and the 1-to-1 property.
    ///
    /// # Panics
    /// Panics if an aligned id is out of range or an entity occurs twice.
    pub fn new(kg1: KnowledgeGraph, kg2: KnowledgeGraph, alignment: Vec<AlignedPair>) -> Self {
        let mut seen1 = vec![false; kg1.num_entities()];
        let mut seen2 = vec![false; kg2.num_entities()];
        for &(e1, e2) in &alignment {
            assert!(
                e1.idx() < kg1.num_entities(),
                "aligned entity {e1:?} out of range in KG1"
            );
            assert!(
                e2.idx() < kg2.num_entities(),
                "aligned entity {e2:?} out of range in KG2"
            );
            assert!(
                !std::mem::replace(&mut seen1[e1.idx()], true),
                "entity {e1:?} aligned twice in KG1"
            );
            assert!(
                !std::mem::replace(&mut seen2[e2.idx()], true),
                "entity {e2:?} aligned twice in KG2"
            );
        }
        Self {
            kg1,
            kg2,
            alignment,
        }
    }

    pub fn num_aligned(&self) -> usize {
        self.alignment.len()
    }

    /// Restricts both KGs to the entities that occur in the reference
    /// alignment (line 1 of the paper's Algorithm 1), remapping the alignment.
    pub fn filter_to_alignment(&self) -> KgPair {
        let keep1: HashSet<EntityId> = self.alignment.iter().map(|&(a, _)| a).collect();
        let keep2: HashSet<EntityId> = self.alignment.iter().map(|&(_, b)| b).collect();
        self.restrict(&keep1, &keep2)
    }

    /// Induced sub-pair over the given entity sets; alignment pairs survive
    /// only when both endpoints survive.
    pub fn restrict(&self, keep1: &HashSet<EntityId>, keep2: &HashSet<EntityId>) -> KgPair {
        let (kg1, map1) = self.kg1.induced_subgraph(keep1);
        let (kg2, map2) = self.kg2.induced_subgraph(keep2);
        let alignment = self
            .alignment
            .iter()
            .filter_map(|&(a, b)| match (map1[a.idx()], map2[b.idx()]) {
                (Some(na), Some(nb)) => Some((na, nb)),
                _ => None,
            })
            .collect();
        KgPair::new(kg1, kg2, alignment)
    }

    /// The degree of an aligned pair as defined for Figure 5 of the paper:
    /// the sum of relation triples of the two involved entities.
    pub fn alignment_degree(&self, pair: AlignedPair) -> usize {
        self.kg1.degree(pair.0) + self.kg2.degree(pair.1)
    }
}

/// One cross-validation fold: 20% train / 10% validation / 70% test, the
/// paper's split (Sect. 5.1).
#[derive(Clone, Debug, Default)]
pub struct FoldSplit {
    pub train: Vec<AlignedPair>,
    pub valid: Vec<AlignedPair>,
    pub test: Vec<AlignedPair>,
}

impl FoldSplit {
    pub fn total(&self) -> usize {
        self.train.len() + self.valid.len() + self.test.len()
    }
}

/// Splits the reference alignment into `k` cross-validation folds.
///
/// The alignment is shuffled once and divided into `k` disjoint buckets. Fold
/// `i` uses bucket `i` as training data; the remainder is split 1:7 into
/// validation and test, matching the paper's 20%/10%/70% protocol at `k = 5`.
pub fn k_fold_splits<R: Rng>(alignment: &[AlignedPair], k: usize, rng: &mut R) -> Vec<FoldSplit> {
    assert!(k >= 2, "need at least two folds");
    let mut shuffled = alignment.to_vec();
    shuffled.shuffle(rng);
    let n = shuffled.len();
    let mut folds = Vec::with_capacity(k);
    for i in 0..k {
        let lo = n * i / k;
        let hi = n * (i + 1) / k;
        let train = shuffled[lo..hi].to_vec();
        let rest: Vec<AlignedPair> = shuffled[..lo]
            .iter()
            .chain(&shuffled[hi..])
            .copied()
            .collect();
        // Validation takes 1/8 of the remainder (10% of the total at k = 5).
        let v = rest.len() / 8;
        let valid = rest[..v].to_vec();
        let test = rest[v..].to_vec();
        folds.push(FoldSplit { train, valid, test });
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kg::KgBuilder;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    fn pair() -> KgPair {
        let mut b1 = KgBuilder::new("g1");
        b1.add_rel_triple("a1", "r", "b1");
        b1.add_rel_triple("b1", "r", "c1");
        b1.add_rel_triple("c1", "r", "d1");
        let mut b2 = KgBuilder::new("g2");
        b2.add_rel_triple("a2", "s", "b2");
        b2.add_rel_triple("b2", "s", "c2");
        b2.add_rel_triple("c2", "s", "d2");
        let kg1 = b1.build();
        let kg2 = b2.build();
        let alignment = ["a", "b", "c", "d"]
            .iter()
            .map(|n| {
                (
                    kg1.entity_by_name(&format!("{n}1")).unwrap(),
                    kg2.entity_by_name(&format!("{n}2")).unwrap(),
                )
            })
            .collect();
        KgPair::new(kg1, kg2, alignment)
    }

    #[test]
    fn new_validates_one_to_one() {
        let p = pair();
        assert_eq!(p.num_aligned(), 4);
    }

    #[test]
    #[should_panic(expected = "aligned twice")]
    fn duplicate_alignment_panics() {
        let p = pair();
        let mut bad = p.alignment.clone();
        bad.push((bad[0].0, bad[1].1));
        KgPair::new(p.kg1, p.kg2, bad);
    }

    #[test]
    #[should_panic(expected = "aligned twice in KG2")]
    fn a_kg2_entity_aligned_twice_panics() {
        let p = pair();
        let bad = vec![p.alignment[0], (p.alignment[1].0, p.alignment[0].1)];
        KgPair::new(p.kg1, p.kg2, bad);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_alignment_panics() {
        let p = pair();
        KgPair::new(p.kg1, p.kg2, vec![(EntityId(99), EntityId(0))]);
    }

    #[test]
    fn restrict_remaps_alignment() {
        let p = pair();
        let keep1: HashSet<EntityId> = ["a1", "b1"]
            .iter()
            .map(|n| p.kg1.entity_by_name(n).unwrap())
            .collect();
        let keep2: HashSet<EntityId> = ["a2", "b2", "c2"]
            .iter()
            .map(|n| p.kg2.entity_by_name(n).unwrap())
            .collect();
        let sub = p.restrict(&keep1, &keep2);
        assert_eq!(sub.kg1.num_entities(), 2);
        assert_eq!(sub.kg2.num_entities(), 3);
        // Only (a, b) survive on both sides.
        assert_eq!(sub.num_aligned(), 2);
        for &(e1, e2) in &sub.alignment {
            let n1 = sub.kg1.entity_name(e1);
            let n2 = sub.kg2.entity_name(e2);
            assert_eq!(n1.trim_end_matches('1'), n2.trim_end_matches('2'));
        }
    }

    #[test]
    fn filter_to_alignment_is_noop_when_all_aligned() {
        let p = pair();
        let f = p.filter_to_alignment();
        assert_eq!(f.kg1.num_entities(), p.kg1.num_entities());
        assert_eq!(f.num_aligned(), p.num_aligned());
    }

    #[test]
    fn alignment_degree_sums_both_sides() {
        let p = pair();
        let (a1, a2) = p.alignment[0];
        assert_eq!(
            p.alignment_degree((a1, a2)),
            p.kg1.degree(a1) + p.kg2.degree(a2)
        );
    }

    #[test]
    fn five_fold_split_proportions() {
        let alignment: Vec<AlignedPair> = (0..1000).map(|i| (EntityId(i), EntityId(i))).collect();
        let mut rng = SmallRng::seed_from_u64(7);
        let folds = k_fold_splits(&alignment, 5, &mut rng);
        assert_eq!(folds.len(), 5);
        for f in &folds {
            assert_eq!(f.total(), 1000);
            assert_eq!(f.train.len(), 200);
            assert_eq!(f.valid.len(), 100);
            assert_eq!(f.test.len(), 700);
        }
        // Train buckets are disjoint and cover everything.
        let mut all: Vec<_> = folds.iter().flat_map(|f| f.train.iter().copied()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 1000);
    }

    #[test]
    fn fold_parts_are_disjoint_within_a_fold() {
        let alignment: Vec<AlignedPair> = (0..97).map(|i| (EntityId(i), EntityId(i))).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        for f in k_fold_splits(&alignment, 5, &mut rng) {
            let mut seen = HashSet::new();
            for p in f.train.iter().chain(&f.valid).chain(&f.test) {
                assert!(seen.insert(*p));
            }
            assert_eq!(seen.len(), 97);
        }
    }
}
