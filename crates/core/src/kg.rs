//! The knowledge-graph data model.
//!
//! A [`KnowledgeGraph`] stores relation triples *(head, relation, tail)* and
//! attribute triples *(entity, attribute, literal)* over interned symbols,
//! together with adjacency indexes used by the embedding, sampling and
//! conventional-alignment code. Graphs are immutable once built; construction
//! goes through [`KgBuilder`], and sampling produces new graphs via
//! [`KnowledgeGraph::induced_subgraph`].

use crate::ids::{AttrTriple, AttributeId, EntityId, LiteralId, RelTriple, RelationId};
use crate::interner::Interner;
use std::collections::HashSet;

/// One row of `T` per entity, every row in one array (compressed sparse
/// rows): two allocations however many entities there are.
#[derive(Clone, Debug)]
struct Csr<T> {
    /// Row `e` is `items[starts[e]..starts[e + 1]]`; `num_entities + 1` long.
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Files each `(entity, item)` under its entity by a stable counting
    /// sort: a row keeps its items in the order `pairs` yields them.
    /// `blank` fills `items` until the second pass has placed every item.
    fn build(
        num_entities: usize,
        pairs: impl ExactSizeIterator<Item = (EntityId, T)> + Clone,
        blank: T,
    ) -> Self {
        assert!(
            u32::try_from(pairs.len()).is_ok(),
            "triple count overflows u32"
        );
        // Counted two places up, so that after the running sum `starts[e + 1]`
        // is where row `e` begins; the filling pass then advances it to where
        // row `e` ends, which is where row `e + 1` begins.
        let mut starts = vec![0u32; num_entities + 2];
        for (e, _) in pairs.clone() {
            starts[e.idx() + 2] += 1;
        }
        for e in 1..starts.len() {
            starts[e] += starts[e - 1];
        }
        let mut items = vec![blank; pairs.len()];
        for (e, item) in pairs {
            let next = &mut starts[e.idx() + 1];
            items[*next as usize] = item;
            *next += 1;
        }
        starts.pop();
        Self { starts, items }
    }

    #[inline]
    fn row(&self, e: EntityId) -> &[T] {
        &self.items[self.starts[e.idx()] as usize..self.starts[e.idx() + 1] as usize]
    }

    /// Every row's items in order, each with its entity.
    fn entries(&self) -> impl Iterator<Item = (EntityId, T)> + '_ {
        (0..self.starts.len() - 1).flat_map(move |e| {
            let e = EntityId::from_idx(e);
            self.row(e).iter().map(move |&item| (e, item))
        })
    }
}

impl<T: Copy + Ord> Csr<T> {
    /// Sorts every row and drops its repeats, in place: each row is sorted
    /// and deduplicated where it lies, then moved down over the gaps the
    /// rows before it left. `items` keeps its capacity.
    fn sort_dedup_rows(&mut self) {
        let mut kept = 0;
        let mut row_start = 0;
        for e in 1..self.starts.len() {
            let row_end = self.starts[e] as usize;
            self.items[row_start..row_end].sort_unstable();
            for i in row_start..row_end {
                if i == row_start || self.items[i] != self.items[i - 1] {
                    self.items[kept] = self.items[i];
                    kept += 1;
                }
            }
            self.starts[e] = kept as u32;
            row_start = row_end;
        }
        self.items.truncate(kept);
    }
}

/// An immutable knowledge graph with adjacency indexes.
#[derive(Clone, Debug)]
pub struct KnowledgeGraph {
    name: String,
    entities: Interner,
    relations: Interner,
    attributes: Interner,
    literals: Interner,
    rel_triples: Vec<RelTriple>,
    attr_triples: Vec<AttrTriple>,
    /// Per entity: outgoing `(relation, tail)` pairs.
    out_edges: Csr<(RelationId, EntityId)>,
    /// Per entity: incoming `(relation, head)` pairs.
    in_edges: Csr<(RelationId, EntityId)>,
    /// Per entity: `(attribute, literal)` pairs.
    attrs: Csr<(AttributeId, LiteralId)>,
}

impl KnowledgeGraph {
    /// The human-readable name of this KG (e.g. `"EN"`, `"DBpedia"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    pub fn num_literals(&self) -> usize {
        self.literals.len()
    }

    pub fn num_rel_triples(&self) -> usize {
        self.rel_triples.len()
    }

    pub fn num_attr_triples(&self) -> usize {
        self.attr_triples.len()
    }

    pub fn rel_triples(&self) -> &[RelTriple] {
        &self.rel_triples
    }

    pub fn attr_triples(&self) -> &[AttrTriple] {
        &self.attr_triples
    }

    /// Outgoing `(relation, tail)` edges of `e`.
    #[inline]
    pub fn out_edges(&self, e: EntityId) -> &[(RelationId, EntityId)] {
        self.out_edges.row(e)
    }

    /// Incoming `(relation, head)` edges of `e`.
    #[inline]
    pub fn in_edges(&self, e: EntityId) -> &[(RelationId, EntityId)] {
        self.in_edges.row(e)
    }

    /// `(attribute, literal)` pairs of `e`.
    #[inline]
    pub fn attrs_of(&self, e: EntityId) -> &[(AttributeId, LiteralId)] {
        self.attrs.row(e)
    }

    /// The relational degree of `e`: the number of relation triples in which
    /// `e` participates as head or tail. This matches the paper's definition
    /// (average degree = 2·|triples| / |entities|).
    #[inline]
    pub fn degree(&self, e: EntityId) -> usize {
        self.out_edges(e).len() + self.in_edges(e).len()
    }

    /// Relational degree of every entity, indexed by entity id.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_entities())
            .map(|i| self.degree(EntityId::from_idx(i)))
            .collect()
    }

    /// Average relational degree (`2·|rel triples| / |entities|`).
    pub fn avg_degree(&self) -> f64 {
        if self.num_entities() == 0 {
            return 0.0;
        }
        2.0 * self.num_rel_triples() as f64 / self.num_entities() as f64
    }

    /// Number of entities with no relation triple at all.
    pub fn num_isolated(&self) -> usize {
        (0..self.num_entities())
            .filter(|&i| self.degree(EntityId::from_idx(i)) == 0)
            .count()
    }

    /// Iterates over all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.num_entities()).map(EntityId::from_idx)
    }

    pub fn entity_name(&self, e: EntityId) -> &str {
        self.entities.resolve(e.0)
    }

    pub fn relation_name(&self, r: RelationId) -> &str {
        self.relations.resolve(r.0)
    }

    pub fn attribute_name(&self, a: AttributeId) -> &str {
        self.attributes.resolve(a.0)
    }

    pub fn literal_value(&self, l: LiteralId) -> &str {
        self.literals.resolve(l.0)
    }

    pub fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        self.entities.get(name).map(EntityId)
    }

    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.relations.get(name).map(RelationId)
    }

    pub fn attribute_by_name(&self, name: &str) -> Option<AttributeId> {
        self.attributes.get(name).map(AttributeId)
    }

    /// Distinct undirected relational neighbours of `e` (no self-loops).
    pub fn neighbors(&self, e: EntityId) -> Vec<EntityId> {
        let mut seen = HashSet::with_capacity(self.degree(e));
        let mut out = Vec::with_capacity(self.degree(e));
        for &(_, t) in self.out_edges(e) {
            if t != e && seen.insert(t) {
                out.push(t);
            }
        }
        for &(_, h) in self.in_edges(e) {
            if h != e && seen.insert(h) {
                out.push(h);
            }
        }
        out
    }

    /// Builds the induced subgraph over `keep`, re-interning symbols densely.
    ///
    /// Relation triples survive iff both endpoints are kept; attribute triples
    /// survive iff their entity is kept. Relations, attributes and literals
    /// that no longer occur are dropped. Returns the new graph plus the
    /// old-entity-id → new-entity-id map (`None` for removed entities).
    pub fn induced_subgraph(
        &self,
        keep: &HashSet<EntityId>,
    ) -> (KnowledgeGraph, Vec<Option<EntityId>>) {
        let mut builder = KgBuilder::new(&self.name);
        // Keep entity ordering stable so repeated sampling is deterministic.
        let mut map: Vec<Option<EntityId>> = vec![None; self.num_entities()];
        #[allow(clippy::needless_range_loop)] // multi-array indexed math reads clearer
        for i in 0..self.num_entities() {
            let old = EntityId::from_idx(i);
            if keep.contains(&old) {
                let new = builder.add_entity(self.entity_name(old));
                map[i] = Some(new);
            }
        }
        // A surviving symbol gets its new id the first time a surviving
        // triple uses it — what interning its name per triple would give,
        // one hash per symbol instead of one per triple.
        let mut rels: Vec<Option<RelationId>> = vec![None; self.num_relations()];
        for t in &self.rel_triples {
            if let (Some(h), Some(tl)) = (map[t.head.idx()], map[t.tail.idx()]) {
                let r = *rels[t.rel.idx()]
                    .get_or_insert_with(|| builder.add_relation(self.relation_name(t.rel)));
                builder.add_rel_triple_ids(h, r, tl);
            }
        }
        let mut attrs: Vec<Option<AttributeId>> = vec![None; self.num_attributes()];
        let mut values: Vec<Option<LiteralId>> = vec![None; self.num_literals()];
        for t in &self.attr_triples {
            if let Some(e) = map[t.entity.idx()] {
                let a = *attrs[t.attr.idx()]
                    .get_or_insert_with(|| builder.add_attribute(self.attribute_name(t.attr)));
                let v = *values[t.value.idx()]
                    .get_or_insert_with(|| builder.add_literal(self.literal_value(t.value)));
                builder.add_attr_triple_ids(e, a, v);
            }
        }
        (builder.build(), map)
    }
}

/// Mutable builder for [`KnowledgeGraph`]. Triples are deduplicated at
/// [`KgBuilder::build`] time.
#[derive(Clone, Debug, Default)]
pub struct KgBuilder {
    name: String,
    entities: Interner,
    relations: Interner,
    attributes: Interner,
    literals: Interner,
    rel_triples: Vec<RelTriple>,
    attr_triples: Vec<AttrTriple>,
}

impl KgBuilder {
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            ..Self::default()
        }
    }

    /// A builder sized for `entities` entities, `rel_triples` relation
    /// triples and `attr_triples` attribute triples (and as many literals):
    /// up to those counts, the triple lists and the symbol tables' id
    /// arrays are allocated once and never grow. Only the interned text
    /// does, whose length no count gives.
    pub fn with_capacity(
        name: &str,
        entities: usize,
        rel_triples: usize,
        attr_triples: usize,
    ) -> Self {
        Self {
            name: name.to_owned(),
            entities: Interner::with_capacity(entities),
            literals: Interner::with_capacity(attr_triples),
            rel_triples: Vec::with_capacity(rel_triples),
            attr_triples: Vec::with_capacity(attr_triples),
            ..Self::default()
        }
    }

    /// Interns an entity by name, registering it even if it has no triples.
    pub fn add_entity(&mut self, name: &str) -> EntityId {
        EntityId(self.entities.intern(name))
    }

    pub fn add_relation(&mut self, name: &str) -> RelationId {
        RelationId(self.relations.intern(name))
    }

    pub fn add_attribute(&mut self, name: &str) -> AttributeId {
        AttributeId(self.attributes.intern(name))
    }

    pub fn add_literal(&mut self, value: &str) -> LiteralId {
        LiteralId(self.literals.intern(value))
    }

    /// Adds a relation triple by symbol names.
    pub fn add_rel_triple(&mut self, head: &str, rel: &str, tail: &str) {
        let h = self.add_entity(head);
        let r = self.add_relation(rel);
        let t = self.add_entity(tail);
        self.add_rel_triple_ids(h, r, t);
    }

    /// Adds a relation triple by pre-interned ids.
    pub fn add_rel_triple_ids(&mut self, head: EntityId, rel: RelationId, tail: EntityId) {
        debug_assert!(head.idx() < self.entities.len());
        debug_assert!(rel.idx() < self.relations.len());
        debug_assert!(tail.idx() < self.entities.len());
        self.rel_triples.push(RelTriple::new(head, rel, tail));
    }

    /// Adds an attribute triple by symbol names.
    pub fn add_attr_triple(&mut self, entity: &str, attr: &str, value: &str) {
        let e = self.add_entity(entity);
        let a = self.add_attribute(attr);
        let v = self.add_literal(value);
        self.add_attr_triple_ids(e, a, v);
    }

    /// Adds an attribute triple by pre-interned ids.
    pub fn add_attr_triple_ids(&mut self, entity: EntityId, attr: AttributeId, value: LiteralId) {
        debug_assert!(entity.idx() < self.entities.len());
        debug_assert!(attr.idx() < self.attributes.len());
        debug_assert!(value.idx() < self.literals.len());
        self.attr_triples.push(AttrTriple::new(entity, attr, value));
    }

    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Finalizes the graph: sorts and deduplicates the triples and builds
    /// the adjacency indexes.
    ///
    /// A triple sorts by its head (or entity) first, so the sorted list is
    /// the out-edge (attribute) rows read in entity order once each row is
    /// sorted: the counting pass that files the triples under their heads is
    /// the sort's first key, and what is left is sorting each short row in
    /// place. Both lists are then rewritten from their rows, into the
    /// capacity they already have, and the in-edge rows filled from the
    /// sorted list.
    pub fn build(mut self) -> KnowledgeGraph {
        let n = self.entities.len();
        let edge = (RelationId(0), EntityId(0));
        let mut out_edges = Csr::build(
            n,
            self.rel_triples.iter().map(|t| (t.head, (t.rel, t.tail))),
            edge,
        );
        out_edges.sort_dedup_rows();
        self.rel_triples.clear();
        self.rel_triples.extend(
            out_edges
                .entries()
                .map(|(head, (rel, tail))| RelTriple::new(head, rel, tail)),
        );
        let mut attrs = Csr::build(
            n,
            self.attr_triples
                .iter()
                .map(|t| (t.entity, (t.attr, t.value))),
            (AttributeId(0), LiteralId(0)),
        );
        attrs.sort_dedup_rows();
        self.attr_triples.clear();
        self.attr_triples.extend(
            attrs
                .entries()
                .map(|(entity, (attr, value))| AttrTriple::new(entity, attr, value)),
        );
        // Filled stably in triple order: each row by (head, relation).
        let in_edges = Csr::build(
            n,
            self.rel_triples.iter().map(|t| (t.tail, (t.rel, t.head))),
            edge,
        );

        KnowledgeGraph {
            name: self.name,
            entities: self.entities,
            relations: self.relations,
            attributes: self.attributes,
            literals: self.literals,
            rel_triples: self.rel_triples,
            attr_triples: self.attr_triples,
            out_edges,
            in_edges,
            attrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KnowledgeGraph {
        let mut b = KgBuilder::new("toy");
        b.add_rel_triple("a", "r1", "b");
        b.add_rel_triple("b", "r2", "c");
        b.add_rel_triple("a", "r1", "c");
        b.add_rel_triple("a", "r1", "b"); // duplicate
        b.add_attr_triple("a", "name", "Alpha");
        b.add_attr_triple("c", "name", "Gamma");
        b.build()
    }

    #[test]
    fn builder_dedups_and_counts() {
        let kg = toy();
        assert_eq!(kg.num_entities(), 3);
        assert_eq!(kg.num_relations(), 2);
        assert_eq!(kg.num_rel_triples(), 3);
        assert_eq!(kg.num_attr_triples(), 2);
        assert_eq!(kg.num_attributes(), 1);
        assert_eq!(kg.num_literals(), 2);
    }

    #[test]
    fn degrees_match_definition() {
        let kg = toy();
        let a = kg.entity_by_name("a").unwrap();
        let b = kg.entity_by_name("b").unwrap();
        let c = kg.entity_by_name("c").unwrap();
        assert_eq!(kg.degree(a), 2); // a->b, a->c
        assert_eq!(kg.degree(b), 2); // a->b, b->c
        assert_eq!(kg.degree(c), 2); // b->c, a->c
        let expected = 2.0 * 3.0 / 3.0;
        assert!((kg.avg_degree() - expected).abs() < 1e-12);
        assert_eq!(kg.num_isolated(), 0);
    }

    #[test]
    fn neighbors_are_undirected_and_distinct() {
        let kg = toy();
        let a = kg.entity_by_name("a").unwrap();
        let mut n = kg.neighbors(a);
        n.sort();
        assert_eq!(
            n,
            vec![
                kg.entity_by_name("b").unwrap(),
                kg.entity_by_name("c").unwrap()
            ]
        );
    }

    #[test]
    fn isolated_entity_is_counted() {
        let mut b = KgBuilder::new("iso");
        b.add_rel_triple("a", "r", "b");
        b.add_entity("lonely");
        let kg = b.build();
        assert_eq!(kg.num_entities(), 3);
        assert_eq!(kg.num_isolated(), 1);
    }

    #[test]
    fn induced_subgraph_drops_dangling_triples() {
        let kg = toy();
        let keep: HashSet<EntityId> = ["a", "b"]
            .iter()
            .map(|n| kg.entity_by_name(n).unwrap())
            .collect();
        let (sub, map) = kg.induced_subgraph(&keep);
        assert_eq!(sub.num_entities(), 2);
        assert_eq!(sub.num_rel_triples(), 1); // only a->b survives
        assert_eq!(sub.num_attr_triples(), 1); // only a's attr survives
        assert_eq!(sub.num_relations(), 1); // r2 vanished
        let c = kg.entity_by_name("c").unwrap();
        assert!(map[c.idx()].is_none());
        let a_old = kg.entity_by_name("a").unwrap();
        let a_new = map[a_old.idx()].unwrap();
        assert_eq!(sub.entity_name(a_new), "a");
    }

    #[test]
    fn induced_subgraph_preserves_names() {
        let kg = toy();
        let keep: HashSet<EntityId> = kg.entity_ids().collect();
        let (sub, _) = kg.induced_subgraph(&keep);
        assert_eq!(sub.num_rel_triples(), kg.num_rel_triples());
        assert_eq!(sub.num_attr_triples(), kg.num_attr_triples());
        for e in kg.entity_ids() {
            assert!(sub.entity_by_name(kg.entity_name(e)).is_some());
        }
    }

    #[test]
    fn attrs_of_returns_pairs() {
        let kg = toy();
        let a = kg.entity_by_name("a").unwrap();
        let attrs = kg.attrs_of(a);
        assert_eq!(attrs.len(), 1);
        assert_eq!(kg.attribute_name(attrs[0].0), "name");
        assert_eq!(kg.literal_value(attrs[0].1), "Alpha");
    }

    #[test]
    fn empty_graph_is_fine() {
        let kg = KgBuilder::new("empty").build();
        assert_eq!(kg.num_entities(), 0);
        assert_eq!(kg.avg_degree(), 0.0);
        assert_eq!(kg.num_isolated(), 0);
    }
}
