//! PARIS \[70\]: probabilistic alignment of instances and relations.
//!
//! The published algorithm estimates, in alternating rounds:
//!
//! 1. **Instance equivalence** `P(e₁ ≡ e₂)`: two instances are likely equal
//!    if they share (functional) relations/attributes leading to equal
//!    objects — `P = 1 − Π (1 − fun(r)·P(x ≡ y))` over matching triple
//!    pairs;
//! 2. **Relation subsumption** `P(r₁ ⊑ r₂)`: how often r₁'s instance pairs
//!    are also connected by r₂, under the current instance equivalences.
//!
//! Literal values bootstrap the fixpoint: identical literals are equal with
//! probability 1, which is why PARIS cannot produce anything from relation
//! triples alone (Table 8).

use crate::ConventionalSystem;
use openea_core::{AlignedPair, AttributeId, EntityId, KgPair, KnowledgeGraph, RelationId};
use std::collections::{BTreeMap, BTreeSet};

/// The PARIS system.
#[derive(Clone, Debug)]
pub struct Paris {
    /// Final acceptance threshold on `P(e₁ ≡ e₂)`.
    pub threshold: f64,
}

impl Default for Paris {
    fn default() -> Self {
        Self { threshold: 0.3 }
    }
}

/// Number of fixpoint iterations (the paper converges in a handful).
const ITERATIONS: usize = 4;

/// Values shared by more than this many entities are ignored (too common to
/// be evidence).
const MAX_VALUE_FANOUT: usize = 8;

/// Keep at most this many equivalence candidates per entity per round.
const BEAM: usize = 8;

/// Initial probability assumed for unseen relation pairs — PARIS's bootstrap
/// prior θ, which lets relational inference start before any relation
/// alignment has been estimated.
const REL_PRIOR: f64 = 0.1;

/// Functionality of every relation: `#distinct subjects / #triples`
/// (a relation is functional when each subject has one object).
fn relation_functionality(kg: &KnowledgeGraph) -> Vec<f64> {
    let mut subjects: Vec<BTreeSet<EntityId>> = vec![BTreeSet::new(); kg.num_relations()];
    let mut counts = vec![0usize; kg.num_relations()];
    for t in kg.rel_triples() {
        subjects[t.rel.idx()].insert(t.head);
        counts[t.rel.idx()] += 1;
    }
    subjects
        .iter()
        .zip(&counts)
        .map(|(s, &c)| {
            if c == 0 {
                0.0
            } else {
                s.len() as f64 / c as f64
            }
        })
        .collect()
}

/// Functionality of every attribute.
fn attribute_functionality(kg: &KnowledgeGraph) -> Vec<f64> {
    let mut subjects: Vec<BTreeSet<EntityId>> = vec![BTreeSet::new(); kg.num_attributes()];
    let mut counts = vec![0usize; kg.num_attributes()];
    for t in kg.attr_triples() {
        subjects[t.attr.idx()].insert(t.entity);
        counts[t.attr.idx()] += 1;
    }
    subjects
        .iter()
        .zip(&counts)
        .map(|(s, &c)| {
            if c == 0 {
                0.0
            } else {
                s.len() as f64 / c as f64
            }
        })
        .collect()
}

type Equiv = BTreeMap<EntityId, Vec<(EntityId, f64)>>;

impl Paris {
    /// Initial instance equivalences from shared literal values.
    fn literal_evidence(&self, pair: &KgPair) -> Equiv {
        let kg1 = &pair.kg1;
        let kg2 = &pair.kg2;
        let fun1 = attribute_functionality(kg1);
        let fun2 = attribute_functionality(kg2);
        // Inverted index over KG2 literal values.
        let mut index: BTreeMap<&str, Vec<(EntityId, AttributeId)>> = BTreeMap::new();
        for t in kg2.attr_triples() {
            index
                .entry(kg2.literal_value(t.value))
                .or_default()
                .push((t.entity, t.attr));
        }
        // Accumulate 1 − Π(1 − fun₁·fun₂) per candidate pair.
        let mut neg_log: BTreeMap<(EntityId, EntityId), f64> = BTreeMap::new();
        for t in kg1.attr_triples() {
            let Some(matches) = index.get(kg1.literal_value(t.value)) else {
                continue;
            };
            if matches.len() > MAX_VALUE_FANOUT {
                continue;
            }
            for &(e2, a2) in matches {
                let p = fun1[t.attr.idx()] * fun2[a2.idx()];
                let p = p.clamp(0.0, 0.999_999);
                *neg_log.entry((t.entity, e2)).or_insert(0.0) += (1.0 - p).ln();
            }
        }
        let mut equiv: Equiv = BTreeMap::new();
        for ((e1, e2), nl) in neg_log {
            let p = 1.0 - nl.exp();
            if p > 0.05 {
                equiv.entry(e1).or_default().push((e2, p));
            }
        }
        prune(&mut equiv, BEAM);
        equiv
    }

    /// Relation-pair support under the current equivalences:
    /// `P(r₁ ≈ r₂) ≈ overlap / min usage`, a symmetric stand-in for the
    /// paper's two subsumption scores.
    fn relation_alignment(
        &self,
        pair: &KgPair,
        equiv: &Equiv,
    ) -> BTreeMap<(RelationId, RelationId), f64> {
        let kg2 = &pair.kg2;
        // Index KG2 edges by (head, tail) for lookup under equivalence.
        let mut edges2: BTreeMap<(EntityId, EntityId), Vec<RelationId>> = BTreeMap::new();
        for t in kg2.rel_triples() {
            edges2.entry((t.head, t.tail)).or_default().push(t.rel);
        }
        let mut overlap: BTreeMap<(RelationId, RelationId), f64> = BTreeMap::new();
        let mut usage1: BTreeMap<RelationId, f64> = BTreeMap::new();
        for t in pair.kg1.rel_triples() {
            *usage1.entry(t.rel).or_insert(0.0) += 1.0;
            let (Some(hs), Some(ts)) = (equiv.get(&t.head), equiv.get(&t.tail)) else {
                continue;
            };
            for &(h2, ph) in hs {
                for &(t2, pt) in ts {
                    if let Some(rels) = edges2.get(&(h2, t2)) {
                        for &r2 in rels {
                            *overlap.entry((t.rel, r2)).or_insert(0.0) += ph * pt;
                        }
                    }
                }
            }
        }
        overlap
            .into_iter()
            .map(|((r1, r2), o)| {
                let u = usage1.get(&r1).copied().unwrap_or(1.0);
                ((r1, r2), (o / u).clamp(0.0, 0.95))
            })
            .collect()
    }

    /// One instance-equivalence round using relational evidence.
    fn relational_round(
        &self,
        pair: &KgPair,
        equiv: &Equiv,
        rel_align: &BTreeMap<(RelationId, RelationId), f64>,
    ) -> Equiv {
        let kg1 = &pair.kg1;
        let kg2 = &pair.kg2;
        let fun1 = relation_functionality(kg1);
        let fun2 = relation_functionality(kg2);
        // For each KG1 entity, walk its triples; matching KG2 triples via
        // equivalent neighbours vote for head equivalence.
        let mut in_index2: BTreeMap<EntityId, Vec<(RelationId, EntityId)>> = BTreeMap::new();
        for t in kg2.rel_triples() {
            in_index2.entry(t.tail).or_default().push((t.rel, t.head));
        }
        let mut out_index2: BTreeMap<EntityId, Vec<(RelationId, EntityId)>> = BTreeMap::new();
        for t in kg2.rel_triples() {
            out_index2.entry(t.head).or_default().push((t.rel, t.tail));
        }

        let mut neg_log: BTreeMap<(EntityId, EntityId), f64> = BTreeMap::new();
        let mut add = |e1: EntityId, e2: EntityId, p: f64| {
            let p = p.clamp(0.0, 0.999);
            if p > 1e-4 {
                *neg_log.entry((e1, e2)).or_insert(0.0) += (1.0 - p).ln();
            }
        };
        for e1 in kg1.entity_ids() {
            // Outgoing: (e1, r1, x) with x ≡ y and (c, r2, y): c candidate.
            for &(r1, x) in kg1.out_edges(e1) {
                let Some(xs) = equiv.get(&x) else { continue };
                for &(y, pxy) in xs {
                    for &(r2, c) in in_index2.get(&y).map(|v| v.as_slice()).unwrap_or(&[]) {
                        let pr = rel_align.get(&(r1, r2)).copied().unwrap_or(0.0);
                        if pr == 0.0 {
                            continue;
                        }
                        add(e1, c, pr * fun1[r1.idx()] * fun2[r2.idx()] * pxy);
                    }
                }
            }
            // Incoming: (x, r1, e1) with x ≡ y and (y, r2, c).
            for &(r1, x) in kg1.in_edges(e1) {
                let Some(xs) = equiv.get(&x) else { continue };
                for &(y, pxy) in xs {
                    for &(r2, c) in out_index2.get(&y).map(|v| v.as_slice()).unwrap_or(&[]) {
                        let pr = rel_align.get(&(r1, r2)).copied().unwrap_or(REL_PRIOR);
                        add(e1, c, pr * fun1[r1.idx()] * fun2[r2.idx()] * pxy);
                    }
                }
            }
        }
        let mut next: Equiv = BTreeMap::new();
        for ((e1, e2), nl) in neg_log {
            let p = 1.0 - nl.exp();
            if p > 0.05 {
                next.entry(e1).or_default().push((e2, p));
            }
        }
        // Blend with the literal evidence (noisy-or): relational evidence
        // alone rarely suffices for 1-to-1 decisions.
        for (e1, cands) in equiv {
            let entry = next.entry(*e1).or_default();
            for &(e2, p_old) in cands {
                match entry.iter_mut().find(|(c, _)| *c == e2) {
                    Some((_, p)) => *p = 1.0 - (1.0 - *p) * (1.0 - p_old),
                    None => entry.push((e2, p_old)),
                }
            }
        }
        prune(&mut next, BEAM);
        next
    }
}

/// Keeps only the `beam` best candidates per entity, the lower id on ties.
fn prune(equiv: &mut Equiv, beam: usize) {
    for cands in equiv.values_mut() {
        cands.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        cands.truncate(beam);
    }
}

impl ConventionalSystem for Paris {
    fn name(&self) -> &'static str {
        "PARIS"
    }

    fn align(&self, pair: &KgPair) -> Vec<AlignedPair> {
        let mut equiv = self.literal_evidence(pair);
        if equiv.is_empty() {
            return Vec::new(); // no literal bootstrap → no output (Table 8)
        }
        for _ in 0..ITERATIONS {
            let rel_align = self.relation_alignment(pair, &equiv);
            equiv = self.relational_round(pair, &equiv, &rel_align);
        }
        // Final decision: greedy 1-to-1 over all candidates by probability,
        // the lower (e1, e2) on ties.
        let mut ranked: Vec<(EntityId, EntityId, f64)> = equiv
            .into_iter()
            .flat_map(|(e1, cands)| cands.into_iter().map(move |(e2, p)| (e1, e2, p)))
            .collect();
        ranked.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .expect("finite")
                .then((a.0, a.1).cmp(&(b.0, b.1)))
        });
        let mut used1 = BTreeSet::new();
        let mut used2 = BTreeSet::new();
        let mut out = Vec::new();
        for (e1, e2, p) in ranked {
            if p < self.threshold {
                break;
            }
            if !used1.contains(&e1) && !used2.contains(&e2) {
                used1.insert(e1);
                used2.insert(e2);
                out.push((e1, e2));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_core::KgBuilder;
    use openea_synth::{DatasetFamily, PresetConfig};

    fn gold_set(pair: &KgPair) -> BTreeSet<AlignedPair> {
        pair.alignment.iter().copied().collect()
    }

    #[test]
    fn functionality_definition() {
        let mut b = KgBuilder::new("f");
        // r: one subject, three objects → functionality 1/3.
        b.add_rel_triple("a", "r", "x");
        b.add_rel_triple("a", "r", "y");
        b.add_rel_triple("a", "r", "z");
        // q: functional.
        b.add_rel_triple("a", "q", "x");
        b.add_rel_triple("y", "q", "z");
        let kg = b.build();
        let fun = relation_functionality(&kg);
        let r = kg.relation_by_name("r").unwrap();
        let q = kg.relation_by_name("q").unwrap();
        assert!((fun[r.idx()] - 1.0 / 3.0).abs() < 1e-12);
        assert!((fun[q.idx()] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paris_aligns_on_clean_synthetic_pair() {
        let pair = PresetConfig::new(DatasetFamily::DY, 300, false, 5).generate();
        let paris = Paris::default();
        let predicted = paris.align(&pair);
        let gold = gold_set(&pair);
        assert!(!predicted.is_empty());
        let correct = predicted.iter().filter(|p| gold.contains(p)).count();
        let precision = correct as f64 / predicted.len() as f64;
        let recall = correct as f64 / gold.len() as f64;
        assert!(precision > 0.8, "precision {precision}");
        assert!(recall > 0.5, "recall {recall}");
    }

    #[test]
    fn aligning_the_same_pair_twice_gives_the_same_output() {
        for family in [DatasetFamily::EnFr, DatasetFamily::DY] {
            let pair = PresetConfig::new(family, 600, false, 7).generate();
            assert_eq!(Paris::default().align(&pair), Paris::default().align(&pair));
        }
    }

    #[test]
    fn paris_outputs_nothing_without_attributes() {
        // Relation-only KGs: no literal bootstrap (Table 8's "-").
        let mut b1 = KgBuilder::new("a");
        b1.add_rel_triple("x", "r", "y");
        let mut b2 = KgBuilder::new("b");
        b2.add_rel_triple("u", "s", "w");
        let kg1 = b1.build();
        let kg2 = b2.build();
        let x = kg1.entity_by_name("x").unwrap();
        let u = kg2.entity_by_name("u").unwrap();
        let pair = KgPair::new(kg1, kg2, vec![(x, u)]);
        assert!(Paris::default().align(&pair).is_empty());
    }

    #[test]
    fn relational_inference_extends_literal_anchors() {
        // e1/u1 share a literal; their r-successors e2/u2 share nothing,
        // but PARIS should infer e2 ≡ u2 through the functional relation.
        let mut b1 = KgBuilder::new("a");
        b1.add_attr_triple("e1", "name", "anchor value");
        b1.add_rel_triple("e1", "r", "e2");
        let mut b2 = KgBuilder::new("b");
        b2.add_attr_triple("u1", "label", "anchor value");
        b2.add_rel_triple("u1", "s", "u2");
        let kg1 = b1.build();
        let kg2 = b2.build();
        let gold = vec![
            (
                kg1.entity_by_name("e1").unwrap(),
                kg2.entity_by_name("u1").unwrap(),
            ),
            (
                kg1.entity_by_name("e2").unwrap(),
                kg2.entity_by_name("u2").unwrap(),
            ),
        ];
        let pair = KgPair::new(kg1, kg2, gold.clone());
        let paris = Paris { threshold: 0.2 };
        let predicted = paris.align(&pair);
        assert!(predicted.contains(&gold[0]), "anchor pair found");
        assert!(
            predicted.contains(&gold[1]),
            "relational pair inferred: {predicted:?}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use openea_core::KgBuilder;
    use openea_runtime::testkit::prelude::*;

    props! {
        #![cases = 16]

        /// PARIS output is always a valid 1-to-1 alignment within range.
        #[test]
        fn paris_output_is_one_to_one(
            attrs1 in vec_of((0u8..12, 0u8..3, 0u8..20), 1..40),
            attrs2 in vec_of((0u8..12, 0u8..3, 0u8..20), 1..40),
            rels in vec_of((0u8..12, 0u8..2, 0u8..12), 0..20),
        ) {
            let mut b1 = KgBuilder::new("a");
            let mut b2 = KgBuilder::new("b");
            for &(e, a, v) in &attrs1 {
                b1.add_attr_triple(&format!("x{e}"), &format!("p{a}"), &format!("value {v}"));
            }
            for &(e, a, v) in &attrs2 {
                b2.add_attr_triple(&format!("y{e}"), &format!("q{a}"), &format!("value {v}"));
            }
            for &(h, r, t) in &rels {
                b1.add_rel_triple(&format!("x{h}"), &format!("r{r}"), &format!("x{t}"));
                b2.add_rel_triple(&format!("y{h}"), &format!("s{r}"), &format!("y{t}"));
            }
            let kg1 = b1.build();
            let kg2 = b2.build();
            let alignment: Vec<_> = kg1
                .entity_ids()
                .filter_map(|e| {
                    let name = kg1.entity_name(e).replace('x', "y");
                    kg2.entity_by_name(&name).map(|e2| (e, e2))
                })
                .collect();
            let pair = KgPair::new(kg1, kg2, alignment);
            let predicted = Paris::default().align(&pair);
            let mut s1 = std::collections::BTreeSet::new();
            let mut s2 = std::collections::BTreeSet::new();
            for (a, b) in &predicted {
                prop_assert!(a.idx() < pair.kg1.num_entities());
                prop_assert!(b.idx() < pair.kg2.num_entities());
                prop_assert!(s1.insert(*a), "duplicate source");
                prop_assert!(s2.insert(*b), "duplicate target");
            }
        }
    }
}
