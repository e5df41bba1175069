//! The knowledge-graph data model against reference models, and its memory
//! contract as counts: *a symbol table or an adjacency index costs a fixed
//! number of allocations, not one per symbol or per entity*.
//!
//! The differentials keep the layouts this model replaced as their
//! references — a `HashMap<String, u32>` for [`Interner`], nested `Vec`s for
//! the adjacency rows, re-interning by name for `induced_subgraph` — so the
//! arena, the CSR rows and the by-id remap have to give the same ids, the
//! same slices and the same order. The gates read a counting allocator's
//! per-thread view (the harness gives each test its own thread), so the
//! numbers are the sizes and calls the code asked for and repeat exactly.
//! The generated pair's byte gate reads the global view, in
//! `tests/pair_memory.rs`: its two KGs are built on two threads.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea_core::{
    k_fold_splits, AttrTriple, AttributeId, EntityId, Interner, KgBuilder, KgPair, KnowledgeGraph,
    LiteralId, RelTriple, RelationId,
};
use openea_runtime::rng::{SeedableRng, SliceRandom, SmallRng};
use openea_runtime::testkit::prelude::*;
use openea_synth::{DatasetFamily, PresetConfig};
use std::collections::{HashMap, HashSet};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

// ---------------------------------------------------------------------------
// Interner ≡ HashMap<String, u32>

/// Interns `names` in order into an [`Interner`] and into the reference
/// model, then compares everything the interner can be asked.
fn interner_matches_model(names: &[String]) -> PropResult {
    let mut it = Interner::new();
    let mut model: HashMap<String, u32> = HashMap::new();
    let mut first_seen: Vec<&str> = Vec::new();
    for name in names {
        prop_assert_eq!(it.get(name), model.get(name).copied());
        let next = model.len() as u32;
        let want = *model.entry(name.clone()).or_insert_with(|| {
            first_seen.push(name);
            next
        });
        prop_assert_eq!(it.intern(name), want);
        prop_assert_eq!(it.len(), model.len());
    }
    prop_assert_eq!(it.is_empty(), model.is_empty());
    let listed: Vec<(u32, &str)> = it.iter().collect();
    let want: Vec<(u32, &str)> = (0u32..).zip(first_seen.iter().copied()).collect();
    prop_assert_eq!(listed, want);
    // A copy answers like the original: it keeps the hash key with the table.
    let copy = it.clone();
    for (name, &id) in &model {
        prop_assert_eq!(it.get(name), Some(id));
        prop_assert_eq!(copy.get(name), Some(id));
        prop_assert_eq!(it.resolve(id), name.as_str());
        // Near misses: one character more, one character less.
        let longer = format!("{name}\0");
        prop_assert_eq!(it.get(&longer), model.get(&longer).copied());
        if let Some((cut, _)) = name.char_indices().last() {
            prop_assert_eq!(it.get(&name[..cut]), model.get(&name[..cut]).copied());
        }
    }
    Ok(())
}

props! {
    #![cases = 64]

    /// A five-letter alphabet with the empty string allowed: many repeats,
    /// multi-byte characters, names that are prefixes of each other, and
    /// enough distinct names (up to 781) to double the table several times.
    #[test]
    fn interner_matches_reference_on_short_repeating_names(
        names in vec_of(string_of("aé∑b ", 0..=4), 0..600),
    ) {
        interner_matches_model(&names)?;
    }

    /// A long run of names that differ only in their last characters, mixed
    /// with repeats of earlier ones. 64 distinct names is four doublings past
    /// the first table.
    #[test]
    fn interner_matches_reference_on_shared_prefix_runs(
        prefix in string_of("abcdefghijklmnopqrstuvwxyz/:_é", 0..=60),
        count in 64usize..400,
        revisit in 1usize..7,
    ) {
        let mut names = Vec::new();
        for i in 0..count {
            names.push(format!("{prefix}{i}"));
            if i % revisit == 0 {
                names.push(format!("{prefix}{}", i / 2));
            }
        }
        interner_matches_model(&names)?;
    }
}

// ---------------------------------------------------------------------------
// CSR rows ≡ nested Vecs

type Edge = (u32, u32, u32);

/// A multigraph over `n` entities, `n_rel` relations, `n_attr` attributes and
/// `n_val` literals, all registered whether or not a triple uses them.
/// Endpoints are taken modulo the counts, so small counts give duplicate
/// triples and self-loops, and entities no triple names stay isolated.
fn multigraph(n: usize, rels: &[Edge], attrs: &[Edge]) -> KnowledgeGraph {
    let (n_rel, n_attr, n_val) = (3, 3, 5);
    let mut b = KgBuilder::new("g");
    for e in 0..n {
        b.add_entity(&format!("e{e}"));
    }
    for r in 0..n_rel {
        b.add_relation(&format!("r{r}"));
    }
    for a in 0..n_attr {
        b.add_attribute(&format!("a{a}"));
    }
    for v in 0..n_val {
        b.add_literal(&format!("v{v}"));
    }
    let n = n as u32;
    for &(h, r, t) in rels {
        b.add_rel_triple_ids(EntityId(h % n), RelationId(r % n_rel), EntityId(t % n));
    }
    for &(e, a, v) in attrs {
        b.add_attr_triple_ids(
            EntityId(e % n),
            AttributeId(a % n_attr),
            LiteralId(v % n_val),
        );
    }
    b.build()
}

/// Compares `kg`, built from `rel_triples` and `attr_triples` as added, with
/// the reference: `sort_unstable` + `dedup` of each list, then each triple
/// pushed onto its entity's own `Vec`.
fn matches_the_sorted_nested_vec_reference(
    kg: &KnowledgeGraph,
    mut rel_triples: Vec<RelTriple>,
    mut attr_triples: Vec<AttrTriple>,
) -> PropResult {
    let n = kg.num_entities();
    rel_triples.sort_unstable();
    rel_triples.dedup();
    attr_triples.sort_unstable();
    attr_triples.dedup();
    let mut out_edges = vec![Vec::new(); n];
    let mut in_edges = vec![Vec::new(); n];
    let mut attrs_of = vec![Vec::new(); n];
    for t in &rel_triples {
        out_edges[t.head.idx()].push((t.rel, t.tail));
        in_edges[t.tail.idx()].push((t.rel, t.head));
    }
    for t in &attr_triples {
        attrs_of[t.entity.idx()].push((t.attr, t.value));
    }

    prop_assert_eq!(kg.rel_triples(), &rel_triples[..]);
    prop_assert_eq!(kg.attr_triples(), &attr_triples[..]);
    for e in kg.entity_ids() {
        prop_assert_eq!(kg.out_edges(e), &out_edges[e.idx()][..]);
        prop_assert_eq!(kg.in_edges(e), &in_edges[e.idx()][..]);
        prop_assert_eq!(kg.attrs_of(e), &attrs_of[e.idx()][..]);
        prop_assert_eq!(
            kg.degree(e),
            out_edges[e.idx()].len() + in_edges[e.idx()].len()
        );
    }
    let isolated = (0..n).filter(|&e| out_edges[e].is_empty() && in_edges[e].is_empty());
    prop_assert_eq!(kg.num_isolated(), isolated.count());
    Ok(())
}

props! {
    #![cases = 128]

    #[test]
    fn adjacency_rows_match_the_nested_vec_construction(
        n in 1usize..40,
        rels in vec_of((0u32..40, 0u32..3, 0u32..40), 0..160),
        attrs in vec_of((0u32..40, 0u32..3, 0u32..5), 0..120),
    ) {
        let kg = multigraph(n, &rels, &attrs);
        let m = n as u32;
        let rel_triples = rels
            .iter()
            .map(|&(h, r, t)| RelTriple::new(EntityId(h % m), RelationId(r % 3), EntityId(t % m)))
            .collect();
        let attr_triples = attrs
            .iter()
            .map(|&(e, a, v)| AttrTriple::new(EntityId(e % m), AttributeId(a % 3), LiteralId(v % 5)))
            .collect();
        matches_the_sorted_nested_vec_reference(&kg, rel_triples, attr_triples)?;
    }

    /// `build` sorts and deduplicates through the rows of its counting
    /// pass; it must give what sorting the whole lists gives. Triples name
    /// only the first `named` entities, so every one after them is isolated
    /// (all of them when there are no triples: `drop` 1 leaves out the
    /// relation triples, 2 the attribute triples, 3 both), small `named`
    /// makes hub rows, every triple is added `copies` times, and the
    /// additions come in a shuffled order.
    #[test]
    fn build_sorts_through_its_rows_like_sorting_the_lists(
        n in 1u32..120,
        named in 1u32..120,
        rels in vec_of((0u32..1000, 0u32..4, 0u32..1000), 0..300),
        attrs in vec_of((0u32..1000, 0u32..4, 0u32..6), 0..200),
        drop_and_copies in (0u8..4, 1usize..4),
        seed in 0u64..1_000_000,
    ) {
        let (drop, copies) = drop_and_copies;
        let named = named.min(n);
        let rels = if drop & 1 == 1 { &[][..] } else { &rels[..] };
        let attrs = if drop & 2 == 2 { &[][..] } else { &attrs[..] };
        let mut rel_triples: Vec<RelTriple> = rels
            .iter()
            .map(|&(h, r, t)| RelTriple::new(EntityId(h % named), RelationId(r), EntityId(t % named)))
            .collect();
        let mut attr_triples: Vec<AttrTriple> = attrs
            .iter()
            .map(|&(e, a, v)| AttrTriple::new(EntityId(e % named), AttributeId(a), LiteralId(v)))
            .collect();
        rel_triples = rel_triples.repeat(copies);
        attr_triples = attr_triples.repeat(copies);
        let mut rng = SmallRng::seed_from_u64(seed);
        rel_triples.shuffle(&mut rng);
        attr_triples.shuffle(&mut rng);

        let mut b = KgBuilder::new("g");
        for e in 0..n {
            b.add_entity(&format!("e{e}"));
        }
        for r in 0..4 {
            b.add_relation(&format!("r{r}"));
        }
        for a in 0..4 {
            b.add_attribute(&format!("a{a}"));
        }
        for v in 0..6 {
            b.add_literal(&format!("v{v}"));
        }
        for t in &rel_triples {
            b.add_rel_triple_ids(t.head, t.rel, t.tail);
        }
        for t in &attr_triples {
            b.add_attr_triple_ids(t.entity, t.attr, t.value);
        }
        matches_the_sorted_nested_vec_reference(&b.build(), rel_triples, attr_triples)?;
    }
}

// ---------------------------------------------------------------------------
// induced_subgraph, KgPair::restrict ≡ re-interning by name

/// The induced subgraph as it was built before ids were remapped through
/// tables: every surviving triple re-interns its symbols by name.
fn induced_by_name(
    kg: &KnowledgeGraph,
    keep: &HashSet<EntityId>,
) -> (KnowledgeGraph, Vec<Option<EntityId>>) {
    let mut b = KgBuilder::new(kg.name());
    let mut map = vec![None; kg.num_entities()];
    for e in kg.entity_ids().filter(|e| keep.contains(e)) {
        map[e.idx()] = Some(b.add_entity(kg.entity_name(e)));
    }
    for t in kg.rel_triples() {
        if let (Some(h), Some(tl)) = (map[t.head.idx()], map[t.tail.idx()]) {
            let r = b.add_relation(kg.relation_name(t.rel));
            b.add_rel_triple_ids(h, r, tl);
        }
    }
    for t in kg.attr_triples() {
        if let Some(e) = map[t.entity.idx()] {
            let a = b.add_attribute(kg.attribute_name(t.attr));
            let v = b.add_literal(kg.literal_value(t.value));
            b.add_attr_triple_ids(e, a, v);
        }
    }
    (b.build(), map)
}

/// Every symbol table of `kg`, names in id order.
fn symbols(kg: &KnowledgeGraph) -> [Vec<&str>; 4] {
    let ids = |n: usize| 0..n as u32;
    [
        ids(kg.num_entities())
            .map(|i| kg.entity_name(EntityId(i)))
            .collect(),
        ids(kg.num_relations())
            .map(|i| kg.relation_name(RelationId(i)))
            .collect(),
        ids(kg.num_attributes())
            .map(|i| kg.attribute_name(AttributeId(i)))
            .collect(),
        ids(kg.num_literals())
            .map(|i| kg.literal_value(LiteralId(i)))
            .collect(),
    ]
}

/// Same names under the same ids, same triples in the same order.
fn same_graph(got: &KnowledgeGraph, want: &KnowledgeGraph) -> PropResult {
    prop_assert_eq!(got.name(), want.name());
    prop_assert_eq!(symbols(got), symbols(want));
    prop_assert_eq!(got.rel_triples(), want.rel_triples());
    prop_assert_eq!(got.attr_triples(), want.attr_triples());
    Ok(())
}

fn kept(n: usize, keep: impl Fn(usize) -> bool) -> HashSet<EntityId> {
    (0..n)
        .filter(|&e| keep(e))
        .map(EntityId::from_idx)
        .collect()
}

props! {
    #![cases = 128]

    #[test]
    fn induced_subgraph_matches_the_by_name_construction(
        n in 1usize..40,
        rels in vec_of((0u32..40, 0u32..3, 0u32..40), 0..160),
        attrs in vec_of((0u32..40, 0u32..3, 0u32..5), 0..120),
        keep in vec_of(any_bool(), 40),
    ) {
        let kg = multigraph(n, &rels, &attrs);
        let keep = kept(n, |e| keep[e]);
        let (got, got_map) = kg.induced_subgraph(&keep);
        let (want, want_map) = induced_by_name(&kg, &keep);
        prop_assert_eq!(got_map, want_map);
        same_graph(&got, &want)?;
    }

    #[test]
    fn restrict_matches_the_by_name_construction(
        n in 1usize..30,
        rels1 in vec_of((0u32..30, 0u32..3, 0u32..30), 0..100),
        rels2 in vec_of((0u32..30, 0u32..3, 0u32..30), 0..100),
        attrs in vec_of((0u32..30, 0u32..3, 0u32..5), 0..80),
        // Per entity: kept on side 1, kept on side 2, aligned.
        flags in vec_of((any_bool(), any_bool(), any_bool()), 30),
    ) {
        // Entity `e` of one side is aligned with entity `n - 1 - e` of the other.
        let alignment = (0..n)
            .filter(|&e| flags[e].2)
            .map(|e| (EntityId::from_idx(e), EntityId::from_idx(n - 1 - e)))
            .collect();
        let pair = KgPair::new(multigraph(n, &rels1, &attrs), multigraph(n, &rels2, &[]), alignment);
        let (keep1, keep2) = (kept(n, |e| flags[e].0), kept(n, |e| flags[e].1));
        let got = pair.restrict(&keep1, &keep2);

        let (want1, map1) = induced_by_name(&pair.kg1, &keep1);
        let (want2, map2) = induced_by_name(&pair.kg2, &keep2);
        let want: Vec<_> = pair
            .alignment
            .iter()
            .filter_map(|&(a, b)| map1[a.idx()].zip(map2[b.idx()]))
            .collect();
        same_graph(&got.kg1, &want1)?;
        same_graph(&got.kg2, &want2)?;
        prop_assert_eq!(got.alignment, want);
    }
}

// ---------------------------------------------------------------------------
// Allocation gates and the data pin

/// The 15K D-Y pair the `iptranse_15k_exact_zipf` benchmark workload trains
/// on at seed 1.
fn pair_15k() -> KgPair {
    PresetConfig::new(DatasetFamily::DY, 15_000, false, 1).generate()
}

/// FNV-1a over little-endian `u64`s: the digest `benchmark/src/pipeline.rs`
/// takes of its inputs (`inputs_hash`), restated here.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A change of generated data — an id, a triple, the order of either, the
/// split — fails here and not first in the benchmark's Hits@1 pin.
#[test]
fn the_15k_pair_digest_is_pinned() {
    let pair = pair_15k();
    let fold = k_fold_splits(&pair.alignment, 5, &mut SmallRng::seed_from_u64(1)).swap_remove(0);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for kg in [&pair.kg1, &pair.kg2] {
        h.eat(kg.num_entities() as u64);
        h.eat(kg.num_relations() as u64);
        for t in kg.rel_triples() {
            h.eat(u64::from(t.head.0) << 32 | u64::from(t.tail.0));
            h.eat(u64::from(t.rel.0));
        }
        for t in kg.attr_triples() {
            h.eat(u64::from(t.entity.0) << 32 | u64::from(t.attr.0));
            h.eat(u64::from(t.value.0));
        }
    }
    for set in [&pair.alignment, &fold.train, &fold.valid, &fold.test] {
        h.eat(set.len() as u64);
        for &(a, b) in set.iter() {
            h.eat(u64::from(a.0) << 32 | u64::from(b.0));
        }
    }
    assert_eq!(
        h.0, 9_334_843_379_028_181_803,
        "the seed-1 15K D-Y inputs changed"
    );
}

/// A ring of `n` entities, each with two out-edges and one attribute.
fn ring_builder(n: u32) -> KgBuilder {
    let mut b = KgBuilder::new("ring");
    for e in 0..n {
        b.add_entity(&format!("e{e}"));
    }
    let (r, a, v) = (
        b.add_relation("r"),
        b.add_attribute("a"),
        b.add_literal("v"),
    );
    for e in 0..n {
        b.add_rel_triple_ids(EntityId(e), r, EntityId((e + 1) % n));
        b.add_rel_triple_ids(EntityId(e), r, EntityId((e + 7) % n));
        b.add_attr_triple_ids(EntityId(e), a, v);
    }
    b
}

#[test]
fn build_allocates_the_same_number_of_times_at_any_size() {
    let calls = |n: u32| {
        let b = ring_builder(n);
        let (kg, during) = ALLOC.on_this_thread(|| b.build());
        assert_eq!(kg.num_rel_triples(), 2 * n as usize);
        during.calls
    };
    let small = calls(50);
    assert_eq!(calls(20_000), small);
    assert!(
        small <= 8,
        "{small} allocator calls for three adjacency indexes"
    );
}

#[test]
fn interning_a_known_name_allocates_nothing() {
    let mut it = Interner::new();
    // Re-interned after every insertion, so at every fill of the table —
    // just under and exactly at the point where the next new name grows it.
    for i in 0..200 {
        it.intern(&format!("name/{i}"));
        let name = format!("name/{}", i / 2);
        let (id, during) = ALLOC.on_this_thread(|| it.intern(&name));
        assert_eq!(id, i / 2);
        assert_eq!(
            during.calls,
            0,
            "re-interning {name:?} with {} names held",
            i + 1
        );
    }
}
