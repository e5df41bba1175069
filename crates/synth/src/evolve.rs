//! Evolution traces: a base KG pair plus N deterministic delta steps.
//!
//! Real knowledge graphs grow: new entities appear, bringing new triples
//! and new alignable counterparts. The live alignment pipeline (delta
//! training → snapshot lineage → hot-swap serving) needs a synthetic
//! stand-in for that growth whose ground truth is exact at every step.
//!
//! The construction works *backwards from the end state*: the **final**
//! pair is generated once from a [`PresetConfig`], and each step `k` is
//! the sub-pair induced by an entity-id *prefix* of each KG. Because
//! [`KgBuilder`] interns entities in insertion
//! order and [`EvolutionConfig::generate`] replays the final graph's
//! symbol tables up front, every id is stable across the whole trace:
//!
//! * entity `i` of step `k` is entity `i` of every later step (and of the
//!   final pair) — warm-started embedding rows carry over by index;
//! * relation / attribute / literal ids are the final pair's ids at every
//!   step, so delta steps **strictly extend** earlier steps: the triple
//!   list of step `k` is a sub-sequence of step `k+1`'s, bit-for-bit;
//! * the reference alignment of step `k` is exactly the final alignment
//!   restricted to entities that exist at step `k`.
//!
//! Triple filtering is the only heavy loop and is parallelised over
//! contiguous chunks whose results are concatenated in chunk order, so
//! the trace is bit-identical for any `threads` value.

use crate::presets::{DatasetFamily, PresetConfig};
use openea_core::{AttrTriple, EntityId, KgBuilder, KgPair, KnowledgeGraph, RelTriple};
use openea_runtime::hash::Fnv1a;
use openea_runtime::pool::parallel_chunks;

/// Recipe for an evolution trace: a preset pair plus a growth schedule.
#[derive(Clone, Copy, Debug)]
pub struct EvolutionConfig {
    pub family: DatasetFamily,
    /// Approximate number of entities per KG *in the final step*.
    pub entities: usize,
    /// `false` → V1 density, `true` → V2 (doubled), as in [`PresetConfig`].
    pub dense: bool,
    pub seed: u64,
    /// Number of delta steps after the base; the trace has `steps + 1`
    /// snapshots and step `steps` is the full final pair.
    pub steps: usize,
    /// Fraction of final entities present in the base step (clamped to
    /// `(0, 1]`). Growth is linear in entity count from here to 1.0.
    pub base_fraction: f64,
    /// Worker threads for triple filtering. Purely a throughput knob: the
    /// output is bit-identical for every value (enforced by tests).
    pub threads: usize,
}

impl EvolutionConfig {
    pub fn new(family: DatasetFamily, entities: usize, steps: usize, seed: u64) -> Self {
        Self {
            family,
            entities,
            dense: false,
            seed,
            steps,
            base_fraction: 0.6,
            threads: 1,
        }
    }

    pub fn with_base_fraction(mut self, frac: f64) -> Self {
        self.base_fraction = frac;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Entity-count schedule for one KG: monotone, ends at `total`.
    fn schedule(&self, total: usize) -> Vec<usize> {
        let base = self.base_fraction.clamp(f64::EPSILON, 1.0);
        let mut counts = Vec::with_capacity(self.steps + 1);
        for k in 0..=self.steps {
            let t = if self.steps == 0 {
                1.0
            } else {
                k as f64 / self.steps as f64
            };
            let frac = base + (1.0 - base) * t;
            let n = ((total as f64) * frac).round() as usize;
            counts.push(n.clamp(1, total));
        }
        // Rounding cannot break monotonicity (frac is monotone), but make
        // the invariant explicit: the last step is the whole graph.
        *counts.last_mut().expect("steps + 1 >= 1") = total;
        counts
    }

    /// Generates the full trace. Deterministic in `(family, entities,
    /// dense, seed, steps, base_fraction)`; independent of `threads`.
    pub fn generate(&self) -> EvolutionTrace {
        let fin = PresetConfig::new(self.family, self.entities, self.dense, self.seed).generate();
        let sched1 = self.schedule(fin.kg1.num_entities());
        let sched2 = self.schedule(fin.kg2.num_entities());

        let mut steps = Vec::with_capacity(self.steps + 1);
        let (mut prev_n1, mut prev_n2) = (0usize, 0usize);
        let (mut prev_rel, mut prev_attr, mut prev_aligned) = (0usize, 0usize, 0usize);
        for (k, (&n1, &n2)) in sched1.iter().zip(&sched2).enumerate() {
            let kg1 = prefix_kg(&fin.kg1, n1, self.threads);
            let kg2 = prefix_kg(&fin.kg2, n2, self.threads);
            let alignment: Vec<(EntityId, EntityId)> = fin
                .alignment
                .iter()
                .copied()
                .filter(|&(a, b)| a.idx() < n1 && b.idx() < n2)
                .collect();
            let pair = KgPair::new(kg1, kg2, alignment);
            let rel = pair.kg1.num_rel_triples() + pair.kg2.num_rel_triples();
            let attr = pair.kg1.num_attr_triples() + pair.kg2.num_attr_triples();
            let aligned = pair.num_aligned();
            steps.push(EvolutionStep {
                step: k,
                new_entities1: n1 - prev_n1,
                new_entities2: n2 - prev_n2,
                new_rel_triples: rel - prev_rel,
                new_attr_triples: attr - prev_attr,
                new_alignment: aligned - prev_aligned,
                pair,
            });
            (prev_n1, prev_n2) = (n1, n2);
            (prev_rel, prev_attr, prev_aligned) = (rel, attr, aligned);
        }
        EvolutionTrace { steps }
    }
}

/// One snapshot of the growing pair plus its delta relative to the
/// previous step (for the base step, relative to the empty graph).
#[derive(Clone, Debug)]
pub struct EvolutionStep {
    pub step: usize,
    pub pair: KgPair,
    pub new_entities1: usize,
    pub new_entities2: usize,
    /// Relation triples added across both KGs since the previous step.
    pub new_rel_triples: usize,
    /// Attribute triples added across both KGs since the previous step.
    pub new_attr_triples: usize,
    /// Reference-alignment pairs added since the previous step.
    pub new_alignment: usize,
}

/// A base pair plus N delta steps; `steps[0]` is the base and
/// `steps.last()` the full final pair.
#[derive(Clone, Debug)]
pub struct EvolutionTrace {
    pub steps: Vec<EvolutionStep>,
}

impl EvolutionTrace {
    /// FNV-1a-64 digest of everything observable in the trace: entity
    /// names, symbol tables, triples and alignments of every step. Two
    /// traces with equal digests are bit-identical for all practical
    /// purposes; the determinism tests compare digests across thread
    /// counts and repeated generation.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let word = |h: &mut Fnv1a, w: usize| h.update(&(w as u64).to_le_bytes());
        word(&mut h, self.steps.len());
        for s in &self.steps {
            word(&mut h, s.step);
            for kg in [&s.pair.kg1, &s.pair.kg2] {
                word(&mut h, kg.num_entities());
                for e in kg.entity_ids() {
                    h.update(kg.entity_name(e).as_bytes());
                }
                word(&mut h, kg.num_relations());
                word(&mut h, kg.num_attributes());
                word(&mut h, kg.num_literals());
                for t in kg.rel_triples() {
                    word(&mut h, t.head.idx());
                    word(&mut h, t.rel.idx());
                    word(&mut h, t.tail.idx());
                }
                for t in kg.attr_triples() {
                    word(&mut h, t.entity.idx());
                    word(&mut h, t.attr.idx());
                    word(&mut h, t.value.idx());
                    h.update(kg.literal_value(t.value).as_bytes());
                }
            }
            for &(a, b) in &s.pair.alignment {
                word(&mut h, a.idx());
                word(&mut h, b.idx());
            }
        }
        h.finish()
    }
}

/// The prefix sub-KG over entities `0..n`, with the *final* graph's
/// relation/attribute/literal tables replayed verbatim so every symbol id
/// is stable across the whole trace (entities are stable because the
/// interner assigns ids in insertion order and `0..n` is a prefix).
fn prefix_kg(fin: &KnowledgeGraph, n: usize, threads: usize) -> KnowledgeGraph {
    let n = n.min(fin.num_entities());
    let mut b = KgBuilder::new(fin.name());
    for i in 0..n {
        b.add_entity(fin.entity_name(EntityId::from_idx(i)));
    }
    for r in 0..fin.num_relations() {
        b.add_relation(fin.relation_name(openea_core::RelationId(r as u32)));
    }
    for a in 0..fin.num_attributes() {
        b.add_attribute(fin.attribute_name(openea_core::AttributeId(a as u32)));
    }
    for l in 0..fin.num_literals() {
        b.add_literal(fin.literal_value(openea_core::LiteralId(l as u32)));
    }
    for t in par_filter(fin.rel_triples(), threads, |t: &RelTriple| {
        t.head.idx() < n && t.tail.idx() < n
    }) {
        b.add_rel_triple_ids(t.head, t.rel, t.tail);
    }
    for t in par_filter(fin.attr_triples(), threads, |t: &AttrTriple| {
        t.entity.idx() < n
    }) {
        b.add_attr_triple_ids(t.entity, t.attr, t.value);
    }
    b.build()
}

/// Filters `items` keeping order, splitting the work into `threads`
/// contiguous chunks and concatenating the per-chunk results in chunk
/// order — bit-identical to the serial filter for every thread count.
fn par_filter<T: Copy + Send + Sync>(
    items: &[T],
    threads: usize,
    pred: impl Fn(&T) -> bool + Sync,
) -> Vec<T> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let mut parts: Vec<Vec<T>> = vec![Vec::new(); items.len().div_ceil(chunk)];
    parallel_chunks(&mut parts, 1, threads, |i, part| {
        let items = items.chunks(chunk).nth(i).expect("one part per chunk");
        part[0] = items.iter().copied().filter(|t| pred(t)).collect();
    });
    parts.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny() -> EvolutionConfig {
        EvolutionConfig::new(DatasetFamily::EnFr, 120, 3, 7).with_base_fraction(0.5)
    }

    #[test]
    fn trace_shape_and_monotone_growth() {
        let trace = tiny().generate();
        assert_eq!(trace.steps.len(), 4);
        for w in trace.steps.windows(2) {
            assert!(w[1].pair.kg1.num_entities() >= w[0].pair.kg1.num_entities());
            assert!(w[1].pair.kg2.num_entities() >= w[0].pair.kg2.num_entities());
            assert!(w[1].pair.num_aligned() >= w[0].pair.num_aligned());
            assert!(
                w[1].new_entities1 + w[1].new_entities2 > 0,
                "degenerate step"
            );
        }
        let last = trace.steps.last().unwrap();
        let fin = PresetConfig::new(DatasetFamily::EnFr, 120, false, 7).generate();
        assert_eq!(last.pair.kg1.num_entities(), fin.kg1.num_entities());
        assert_eq!(last.pair.kg2.num_entities(), fin.kg2.num_entities());
        assert_eq!(last.pair.alignment, fin.alignment);
    }

    #[test]
    fn same_seed_is_bit_identical_across_thread_counts() {
        let d1 = tiny().with_threads(1).generate().content_digest();
        let d2 = tiny().with_threads(2).generate().content_digest();
        let d8 = tiny().with_threads(8).generate().content_digest();
        assert_eq!(d1, d2, "threads=2 diverged from serial");
        assert_eq!(d1, d8, "threads=8 diverged from serial");
        // And repeated generation is stable too.
        assert_eq!(d1, tiny().generate().content_digest());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = tiny().generate().content_digest();
        let mut cfg = tiny();
        cfg.seed ^= 1;
        assert_ne!(a, cfg.generate().content_digest());
    }

    #[test]
    fn delta_steps_strictly_extend_prior_triples() {
        let trace = tiny().generate();
        for w in trace.steps.windows(2) {
            for (prev, next) in [
                (&w[0].pair.kg1, &w[1].pair.kg1),
                (&w[0].pair.kg2, &w[1].pair.kg2),
            ] {
                // Entity names of the prefix are byte-identical: growth
                // never renames or reorders what already exists.
                for i in 0..prev.num_entities() {
                    let e = EntityId::from_idx(i);
                    assert_eq!(prev.entity_name(e), next.entity_name(e));
                }
                // Every earlier triple survives with the same ids.
                let rels: HashSet<_> = next.rel_triples().iter().copied().collect();
                for t in prev.rel_triples() {
                    assert!(rels.contains(t), "rel triple mutated: {t:?}");
                }
                let attrs: HashSet<_> = next.attr_triples().iter().copied().collect();
                for t in prev.attr_triples() {
                    assert!(attrs.contains(t), "attr triple mutated: {t:?}");
                }
            }
            // Alignment only grows, never rewrites.
            let next_align: HashSet<_> = w[1].pair.alignment.iter().copied().collect();
            for p in &w[0].pair.alignment {
                assert!(next_align.contains(p), "alignment pair dropped: {p:?}");
            }
        }
    }

    #[test]
    fn delta_bookkeeping_is_consistent() {
        let trace = tiny().generate();
        let mut seen1 = 0usize;
        for s in &trace.steps {
            seen1 += s.new_entities1;
            assert_eq!(s.pair.kg1.num_entities(), seen1);
            let rel = s.pair.kg1.num_rel_triples() + s.pair.kg2.num_rel_triples();
            assert!(rel > 0, "every step must carry relational evidence");
        }
    }
}
