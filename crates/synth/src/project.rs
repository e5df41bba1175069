//! Projecting the latent world into two concrete KGs plus their reference
//! alignment.

use crate::vocab::{push_padded, NoiseDraws, Vocabulary};
use crate::world::World;
use openea_core::{EntityId, KgBuilder, KgPair, KnowledgeGraph};
use openea_runtime::pool::parallel_chunks;
use openea_runtime::rng::Rng;
use openea_runtime::rng::SliceRandom;

/// How one KG is projected out of the world.
#[derive(Clone, Debug)]
pub struct ProjectionConfig {
    /// Name of the projected KG.
    pub name: String,
    /// URI prefix for entities (kept opaque: no latent information leaks).
    pub uri_prefix: String,
    /// Probability that a world entity exists in this KG.
    pub entity_coverage: f64,
    /// Probability that a world relation triple (with both endpoints present)
    /// is asserted in this KG.
    pub triple_coverage: f64,
    /// Probability that a world attribute triple is asserted in this KG.
    pub attr_coverage: f64,
    /// Number of relations in this KG's schema. World relations are mapped
    /// onto them surjectively (fewer relations = a coarser schema, like
    /// YAGO's 30-odd relations vs DBpedia's hundreds).
    pub num_relations: usize,
    /// Number of attributes in this KG's schema (same mapping idea).
    pub num_attributes: usize,
    /// Surface rendering rules (language + literal noise).
    pub vocabulary: Vocabulary,
    /// Wikidata-style opaque property names (`P12`) instead of readable ones.
    pub numeric_properties: bool,
    /// DBpedia-style URIs derived from the entity's name tokens
    /// (`db/mount_everest_17`) instead of opaque ids. Real OpenEA datasets
    /// keep such URIs even after deleting label triples, and the
    /// conventional systems exploit them.
    pub meaningful_uris: bool,
    /// Whether the entity-name attribute triple survives. The paper deletes
    /// entity labels; for the Wikidata side of D-W, that leaves no readable
    /// name at all (the symbolic-heterogeneity effect).
    pub include_name_attr: bool,
}

impl ProjectionConfig {
    /// A reasonable default projection for tests.
    pub fn basic(name: &str, prefix: &str, vocabulary: Vocabulary) -> Self {
        Self {
            name: name.to_owned(),
            uri_prefix: prefix.to_owned(),
            entity_coverage: 0.95,
            triple_coverage: 0.85,
            attr_coverage: 0.85,
            num_relations: usize::MAX,
            num_attributes: usize::MAX,
            vocabulary,
            numeric_properties: false,
            meaningful_uris: false,
            include_name_attr: true,
        }
    }
}

struct Projection {
    /// Per world entity: its position in this KG's shuffled order — the
    /// number its URI ends in — or `None` if absent.
    positions: Vec<Option<u32>>,
    /// How this KG's schema merges the world's relations.
    rels: Schema,
    /// How this KG's schema merges the world's attributes.
    attrs: Schema,
}

/// A surjective map of world properties onto this KG's fewer or equal
/// local ones. A local property's name is rendered from its id
/// ([`Schema::name_into`]) when a triple first uses it, so no name is
/// formatted per world property.
struct Schema {
    /// World property id → local property id.
    local: Vec<u32>,
    /// Number of local properties; every one is the image of some world
    /// property.
    count: usize,
    /// `rel` or `attr`.
    kind: &'static str,
}

impl Schema {
    /// Writes local property `id`'s name into `out`.
    fn name_into(&self, cfg: &ProjectionConfig, id: usize, out: &mut String) {
        out.clear();
        out.push_str(&cfg.uri_prefix);
        if cfg.numeric_properties {
            // Offset so relation and attribute ids do not collide.
            let off = if self.kind == "rel" { 0 } else { 1000 };
            out.push('P');
            push_padded(out, (off + id) as u64, 1);
        } else {
            out.push_str(self.kind);
            out.push('_');
            push_padded(out, id as u64, 1);
        }
    }
}

fn project_schema<R: Rng>(cfg: &ProjectionConfig, world: &World, rng: &mut R) -> Projection {
    let n = world.num_entities();
    // Per-KG-shuffled entity URIs: insertion order must not leak alignment.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut positions: Vec<Option<u32>> = vec![None; n];
    for (pos, &e) in order.iter().enumerate() {
        if rng.gen_bool(cfg.entity_coverage) {
            positions[e as usize] = Some(pos as u32);
        }
    }

    // Surjective relation/attribute mapping through a per-KG permutation, so
    // the two KGs merge world properties differently (schema heterogeneity).
    let map = |world_count: usize, local_count: usize, kind, rng: &mut R| {
        let count = local_count.min(world_count).max(1);
        let mut perm: Vec<u32> = (0..world_count as u32).collect();
        perm.shuffle(rng);
        for id in &mut perm {
            *id %= count as u32;
        }
        Schema {
            local: perm,
            count,
            kind,
        }
    };
    let rels = map(world.config.num_relations, cfg.num_relations, "rel", rng);
    let attrs = map(world.config.num_attributes, cfg.num_attributes, "attr", rng);

    Projection {
        positions,
        rels,
        attrs,
    }
}

/// Writes the URI of world entity `e`, at shuffled position `pos`, into `uri`.
/// Meaningful URIs embed the entity's rendered name tokens (as DBpedia local
/// names do); the shuffled position keeps them unique.
fn render_uri(cfg: &ProjectionConfig, world: &World, e: u32, pos: u32, uri: &mut String) {
    uri.clear();
    uri.push_str(&cfg.uri_prefix);
    if cfg.meaningful_uris {
        for (i, &t) in world.name(e).iter().enumerate() {
            if i > 0 {
                uri.push('_');
            }
            cfg.vocabulary.render_token_into(t, uri);
        }
        uri.push('_');
    } else {
        uri.push('Q');
    }
    push_padded(uri, u64::from(pos), 1);
}

/// Every RNG draw one KG's build decides by: which world triples it keeps,
/// and the noise of each literal it renders.
struct Draws {
    /// Kept world relation triples (both endpoints present), in world order.
    rel_kept: Vec<u32>,
    /// Kept world attribute triples, in world order.
    attr_kept: Vec<u32>,
    /// The rendering noise of `attr_kept`'s values, in the same order.
    noise: NoiseDraws,
}

/// Makes one KG's draws, in the order the generated data is pinned to: a
/// keep draw per relation triple with both endpoints present, then per
/// attribute triple of a present entity a keep draw and, if kept, the draws
/// rendering its value.
fn draw<R: Rng>(cfg: &ProjectionConfig, p: &Projection, world: &World, rng: &mut R) -> Draws {
    let present = |e: u32| p.positions[e as usize].is_some();
    let mut rel_kept = Vec::new();
    for (i, &(h, _, t)) in (0u32..).zip(&world.rel_triples) {
        if present(h) && present(t) && rng.gen_bool(cfg.triple_coverage) {
            rel_kept.push(i);
        }
    }
    let mut attr_kept = Vec::new();
    let mut noise = NoiseDraws::default();
    for (i, a) in (0u32..).zip(&world.attr_triples) {
        if a.attr == 0 && !cfg.include_name_attr {
            continue; // label deletion (paper Sect. 3.2)
        }
        if present(a.entity) && rng.gen_bool(cfg.attr_coverage) {
            attr_kept.push(i);
            cfg.vocabulary.draw_noise(world.value(a), rng, &mut noise);
        }
    }
    Draws {
        rel_kept,
        attr_kept,
        noise,
    }
}

/// A KG's builder with its present entities registered, and each world
/// entity's id in it.
type Registered = (KgBuilder, Vec<Option<EntityId>>);

/// Registers every present entity of one KG (even ones that end up
/// isolated — real samples have them too), in world order. Reads the
/// schema alone, so it needs no draw but the schema's.
fn register(cfg: &ProjectionConfig, p: &Projection, world: &World) -> Registered {
    let present = p.positions.iter().flatten().count();
    let mut b = KgBuilder::with_capacity(&cfg.name, present);
    let mut uri = String::new();
    let ids = (0u32..)
        .zip(&p.positions)
        .map(|(e, pos)| {
            pos.map(|pos| {
                render_uri(cfg, world, e, pos, &mut uri);
                b.add_entity(&uri)
            })
        })
        .collect();
    (b, ids)
}

/// Finishes one projected KG from its draws; makes none. Every symbol is
/// interned once: a relation or attribute name at its first use (the ids
/// per-triple interning gives), and triples are added by id. The triple
/// lists and the literal table are sized from the draws' counts first, so
/// none of them grows.
fn build_kg(
    cfg: &ProjectionConfig,
    p: &Projection,
    world: &World,
    draws: &Draws,
    (mut b, ids): Registered,
) -> (KnowledgeGraph, Vec<Option<EntityId>>) {
    b.reserve_triples(draws.rel_kept.len(), draws.attr_kept.len());
    // One buffer for every name and literal the KG renders.
    let mut text = String::new();
    let id = |e: u32| ids[e as usize].expect("a kept triple's entities are present");
    let mut rels = vec![None; p.rels.count];
    for &i in &draws.rel_kept {
        let (h, r, t) = world.rel_triples[i as usize];
        let r = p.rels.local[r as usize] as usize;
        let r = *rels[r].get_or_insert_with(|| {
            p.rels.name_into(cfg, r, &mut text);
            b.add_relation(&text)
        });
        b.add_rel_triple_ids(id(h), r, id(t));
    }
    let mut attrs = vec![None; p.attrs.count];
    let mut noise = draws.noise.replay();
    for &i in &draws.attr_kept {
        let a = &world.attr_triples[i as usize];
        let attr = p.attrs.local[a.attr as usize] as usize;
        let attr = *attrs[attr].get_or_insert_with(|| {
            p.attrs.name_into(cfg, attr, &mut text);
            b.add_attribute(&text)
        });
        text.clear();
        cfg.vocabulary
            .render_drawn(world.value(a), &mut noise, &mut text);
        let value = b.add_literal(&text);
        b.add_attr_triple_ids(id(a.entity), attr, value);
    }
    (b.build(), ids)
}

/// Runs `f` on both inputs side by side, as the two chunks of one
/// `parallel_chunks` call, and returns both outputs in input order.
fn side_by_side<T: Send, U: Send>(inputs: [T; 2], f: impl Fn(T) -> U + Sync) -> [U; 2] {
    let mut slots = inputs.map(|input| (Some(input), None));
    parallel_chunks(&mut slots, 1, 2, |_, slot| {
        let (input, output) = &mut slot[0];
        *output = input.take().map(&f);
    });
    slots.map(|(_, output)| output.expect("parallel_chunks runs every chunk"))
}

/// What the first phase of [`generate_pair`] gives: every draw of both
/// KGs on one task, both KGs' registered entities on the other.
#[allow(clippy::large_enum_variant)] // one of each per pair, moved once
enum Prelude {
    Drawn([Draws; 2]),
    Registered([Registered; 2]),
}

/// Projects the world into two KGs and assembles the reference alignment
/// (world entities present in both projections).
///
/// Every draw is made on `rng`, on one task, in one fixed order: schema 1,
/// schema 2, KG1's keep and noise draws, KG2's. The rest is a function of
/// what was drawn, in two fork-join phases on the worker pool: first the
/// keep and noise draws beside the registration of both KGs' present
/// entities (which needs only the schemas), then the two KGs finished from
/// their draws side by side. So the pair is the same bits whichever thread
/// runs which task.
pub fn generate_pair<R: Rng + Send>(
    world: &World,
    cfg1: &ProjectionConfig,
    cfg2: &ProjectionConfig,
    rng: &mut R,
) -> KgPair {
    let p1 = project_schema(cfg1, world, rng);
    let p2 = project_schema(cfg2, world, rng);
    let sides = [(cfg1, &p1), (cfg2, &p2)];
    let prelude = side_by_side([Some(rng), None], |rng| match rng {
        Some(rng) => {
            let d1 = draw(cfg1, &p1, world, rng);
            let d2 = draw(cfg2, &p2, world, rng);
            Prelude::Drawn([d1, d2])
        }
        None => Prelude::Registered(sides.map(|(cfg, p)| register(cfg, p, world))),
    });
    let [Prelude::Drawn(draws), Prelude::Registered(registered)] = prelude else {
        unreachable!("the draws are the first task, the registration the second")
    };
    let [r1, r2] = registered;
    let [(kg1, ids1), (kg2, ids2)] = side_by_side(
        [(sides[0], &draws[0], r1), (sides[1], &draws[1], r2)],
        |((cfg, p), draws, registered)| build_kg(cfg, p, world, draws, registered),
    );
    let alignment = ids1
        .into_iter()
        .zip(ids2)
        .filter_map(|(a, b)| a.zip(b))
        .collect();
    KgPair::new(kg1, kg2, alignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Language;
    use crate::world::WorldConfig;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    fn small_pair(seed: u64) -> KgPair {
        let mut rng = SmallRng::seed_from_u64(seed);
        let world = World::generate(
            WorldConfig {
                num_entities: 300,
                avg_degree: 5.0,
                ..WorldConfig::default()
            },
            &mut rng,
        );
        let v1 = Vocabulary {
            language: Language::L1,
            noise: 0.05,
        };
        let v2 = Vocabulary {
            language: Language::L2,
            noise: 0.05,
        };
        let c1 = ProjectionConfig::basic("KG1", "a/", v1);
        let c2 = ProjectionConfig::basic("KG2", "b/", v2);
        generate_pair(&world, &c1, &c2, &mut rng)
    }

    #[test]
    fn pair_has_reasonable_shape() {
        let p = small_pair(0);
        assert!(p.kg1.num_entities() > 250);
        assert!(p.kg2.num_entities() > 250);
        assert!(p.num_aligned() > 200);
        assert!(p.kg1.num_rel_triples() > 300);
        assert!(p.kg1.num_attr_triples() > 300);
    }

    #[test]
    fn alignment_is_one_to_one_and_valid() {
        let p = small_pair(1);
        // KgPair::new already asserts 1-to-1; spot-check URI opacity:
        for &(e1, e2) in p.alignment.iter().take(50) {
            let n1 = p.kg1.entity_name(e1);
            let n2 = p.kg2.entity_name(e2);
            assert!(n1.starts_with("a/"));
            assert!(n2.starts_with("b/"));
            // The local ids must not match systematically (shuffled).
        }
        let same = p
            .alignment
            .iter()
            .filter(|&&(e1, e2)| {
                p.kg1.entity_name(e1).trim_start_matches("a/")
                    == p.kg2.entity_name(e2).trim_start_matches("b/")
            })
            .count();
        assert!(same < p.num_aligned() / 10, "URIs leak alignment: {same}");
    }

    #[test]
    fn schemata_use_distinct_namespaces() {
        let p = small_pair(2);
        for t in p.kg1.rel_triples().iter().take(20) {
            assert!(p.kg1.relation_name(t.rel).starts_with("a/"));
        }
        for t in p.kg2.rel_triples().iter().take(20) {
            assert!(p.kg2.relation_name(t.rel).starts_with("b/"));
        }
    }

    #[test]
    fn numeric_properties_flag_produces_wikidata_style_names() {
        let mut rng = SmallRng::seed_from_u64(3);
        let world = World::generate(
            WorldConfig {
                num_entities: 200,
                ..WorldConfig::default()
            },
            &mut rng,
        );
        let v = Vocabulary {
            language: Language::L1,
            noise: 0.05,
        };
        let c1 = ProjectionConfig::basic("DB", "a/", v);
        let mut c2 = ProjectionConfig::basic("WD", "b/", v);
        c2.numeric_properties = true;
        let p = generate_pair(&world, &c1, &c2, &mut rng);
        for t in p.kg2.rel_triples().iter().take(20) {
            let name = p.kg2.relation_name(t.rel);
            assert!(name.starts_with("b/P"), "{name}");
        }
        // Relation names and attribute names never collide.
        for t in p.kg2.attr_triples().iter().take(20) {
            let name = p.kg2.attribute_name(t.attr);
            assert!(name.starts_with("b/P1"), "{name}");
        }
    }

    #[test]
    fn schema_merge_caps_relation_count() {
        let mut rng = SmallRng::seed_from_u64(4);
        let world = World::generate(
            WorldConfig {
                num_entities: 300,
                num_relations: 50,
                ..WorldConfig::default()
            },
            &mut rng,
        );
        let v = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let c1 = ProjectionConfig::basic("DB", "a/", v);
        let mut c2 = ProjectionConfig::basic("YG", "b/", v);
        c2.num_relations = 8;
        let p = generate_pair(&world, &c1, &c2, &mut rng);
        assert!(p.kg2.num_relations() <= 8);
        assert!(p.kg1.num_relations() > 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_pair(9);
        let b = small_pair(9);
        assert_eq!(a.kg1.num_rel_triples(), b.kg1.num_rel_triples());
        assert_eq!(a.num_aligned(), b.num_aligned());
    }

    #[test]
    fn aligned_entities_share_latent_names_across_languages() {
        // With zero noise, the name literal of an aligned pair must be the
        // same token sequence rendered in two alphabets: same word count.
        let mut rng = SmallRng::seed_from_u64(5);
        let world = World::generate(
            WorldConfig {
                num_entities: 200,
                ..WorldConfig::default()
            },
            &mut rng,
        );
        let c1 = ProjectionConfig {
            attr_coverage: 1.0,
            ..ProjectionConfig::basic(
                "KG1",
                "a/",
                Vocabulary {
                    language: Language::L1,
                    noise: 0.0,
                },
            )
        };
        let c2 = ProjectionConfig {
            attr_coverage: 1.0,
            ..ProjectionConfig::basic(
                "KG2",
                "b/",
                Vocabulary {
                    language: Language::L2,
                    noise: 0.0,
                },
            )
        };
        let p = generate_pair(&world, &c1, &c2, &mut rng);
        let mut checked = 0;
        for &(e1, e2) in p.alignment.iter().take(100) {
            let name1 = p
                .kg1
                .attrs_of(e1)
                .iter()
                .map(|&(_, v)| p.kg1.literal_value(v))
                .find(|s| s.split(' ').count() == world.config.name_tokens);
            let name2 = p
                .kg2
                .attrs_of(e2)
                .iter()
                .map(|&(_, v)| p.kg2.literal_value(v))
                .find(|s| s.split(' ').count() == world.config.name_tokens);
            if let (Some(a), Some(b)) = (name1, name2) {
                assert_eq!(a.split(' ').count(), b.split(' ').count());
                checked += 1;
            }
        }
        assert!(checked > 20);
    }
}
