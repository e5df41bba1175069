//! The latent world: a preferential-attachment relation graph plus latent
//! attribute values, from which both KGs of a pair are projected.

use crate::vocab::LatentRef;
use openea_runtime::rng::Distribution;
use openea_runtime::rng::Rng;
use openea_runtime::rng::WeightedIndex;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Configuration of the latent world.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Number of world entities.
    pub num_entities: usize,
    /// Number of world relations.
    pub num_relations: usize,
    /// Number of world attributes.
    pub num_attributes: usize,
    /// Target average relational degree (2·triples / entities).
    pub avg_degree: f64,
    /// Mean number of attribute triples per entity.
    pub attrs_per_entity: f64,
    /// Number of latent name tokens per entity.
    pub name_tokens: usize,
    /// Size of the latent token vocabulary.
    pub vocab_size: u32,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            num_entities: 2000,
            num_relations: 60,
            num_attributes: 40,
            avg_degree: 5.0,
            attrs_per_entity: 3.0,
            name_tokens: 3,
            vocab_size: 8000,
        }
    }
}

/// A world attribute's latent value. `Copy`: the tokens a value names live
/// in the [`World`]'s flat `names` and `tokens` arrays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorldValue {
    /// The entity's latent name (what attribute 0 carries).
    Name,
    /// `World::tokens[start..end]`.
    Tokens { start: u32, end: u32 },
    /// A numeric quantity.
    Number(f64),
    /// A calendar date (year, month, day).
    Date(u32, u8, u8),
}

/// A latent world entity's attribute triple.
#[derive(Clone, Copy, Debug)]
pub struct WorldAttr {
    pub entity: u32,
    pub attr: u32,
    pub value: WorldValue,
}

/// The latent world shared by the two projected KGs: a fixed number of flat
/// arrays, however many entities and values it holds.
#[derive(Clone, Debug)]
pub struct World {
    pub config: WorldConfig,
    /// Relation triples `(head, relation, tail)` over world entity ids.
    pub rel_triples: Vec<(u32, u32, u32)>,
    /// Attribute triples with latent values.
    pub attr_triples: Vec<WorldAttr>,
    /// Latent name tokens, `config.name_tokens` per entity back to back
    /// (attribute 0 renders these).
    pub names: Vec<u32>,
    /// The tokens of every [`WorldValue::Tokens`], back to back.
    pub tokens: Vec<u32>,
}

/// A fixed multiplicative hash for the relation-triple dedup set: per word,
/// rotate, xor it in, multiply by an odd constant. Its keys are this
/// generator's own draws, not input, so unlike the `Interner` — whose names
/// come from files — it needs no per-process random key.
#[derive(Default)]
struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(x)).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits, which a product mixes least.
        self.0.rotate_left(26)
    }
}

impl World {
    /// Generates a world with a heavy-tailed degree distribution via
    /// preferential attachment, Zipf-distributed relation/attribute usage and
    /// per-entity latent values.
    pub fn generate<R: Rng>(config: WorldConfig, rng: &mut R) -> World {
        assert!(config.num_entities >= 2, "need at least two entities");
        assert!(config.num_relations >= 1);
        assert!(config.num_attributes >= 1);
        let n = config.num_entities;
        let total_triples = (config.avg_degree * n as f64 / 2.0).round() as usize;

        // Zipf-ish weights for relation and attribute popularity, matching
        // real KGs where a few properties dominate.
        let rel_weights: Vec<f64> = (0..config.num_relations)
            .map(|i| 1.0 / (i + 1) as f64)
            .collect();
        let attr_weights: Vec<f64> = (0..config.num_attributes)
            .map(|i| 1.0 / (i + 1) as f64)
            .collect();
        let rel_dist = WeightedIndex::new(&rel_weights).expect("non-empty weights");
        let attr_dist = WeightedIndex::new(&attr_weights).expect("non-empty weights");

        // Preferential attachment: maintain a repeated-endpoints pool; each
        // new edge picks its tail from the pool with prob. p, else uniformly.
        let mut rel_triples = Vec::with_capacity(total_triples);
        let mut pool: Vec<u32> = Vec::with_capacity(2 + total_triples * 2);
        let mut seen: HashSet<(u32, u32, u32), BuildHasherDefault<FixedHasher>> =
            HashSet::with_capacity_and_hasher(total_triples, Default::default());
        // Seed the pool so early picks are valid.
        pool.push(0);
        pool.push(1 % n as u32);
        let mut attempts = 0usize;
        while rel_triples.len() < total_triples && attempts < total_triples * 20 {
            attempts += 1;
            let head = rng.gen_range(0..n as u32);
            let tail = if rng.gen_bool(0.75) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                rng.gen_range(0..n as u32)
            };
            if head == tail {
                continue;
            }
            let rel = rel_dist.sample(rng) as u32;
            if !seen.insert((head, rel, tail)) {
                continue;
            }
            pool.push(head);
            pool.push(tail);
            rel_triples.push((head, rel, tail));
        }
        // Freed before the attribute arrays are filled.
        drop((pool, seen));

        // Latent names: distinct token tuples per entity.
        let names: Vec<u32> = (0..n * config.name_tokens)
            .map(|_| rng.gen_range(0..config.vocab_size))
            .collect();

        // Attribute triples: attribute 0 is reserved for the name; further
        // attributes carry tokens, numbers or dates depending on attr id.
        // The triples are sized for the Poisson mean plus four standard
        // deviations, the token pool for one token per extra attribute;
        // past that they grow.
        let extras = n as f64 * config.attrs_per_entity;
        let mut attr_triples = Vec::with_capacity(n + (extras + 4.0 * extras.sqrt()) as usize);
        let mut tokens = Vec::with_capacity(extras as usize);
        let no_extra = (-config.attrs_per_entity).exp();
        for e in 0..n as u32 {
            attr_triples.push(WorldAttr {
                entity: e,
                attr: 0,
                value: WorldValue::Name,
            });
            let extra = poisson_knuth(no_extra, rng);
            for _ in 0..extra {
                let a = attr_dist.sample(rng) as u32;
                let value = match a % 3 {
                    0 => {
                        let start = tokens.len();
                        for _ in 0..rng.gen_range(1..=3) {
                            tokens.push(rng.gen_range(0..config.vocab_size));
                        }
                        let at = |i: usize| u32::try_from(i).expect("token pool overflows u32");
                        WorldValue::Tokens {
                            start: at(start),
                            end: at(tokens.len()),
                        }
                    }
                    1 => WorldValue::Number(rng.gen_range(0.0..10_000.0)),
                    _ => WorldValue::Date(
                        rng.gen_range(1800..2020),
                        rng.gen_range(1..=12),
                        rng.gen_range(1..=28),
                    ),
                };
                attr_triples.push(WorldAttr {
                    entity: e,
                    attr: a,
                    value,
                });
            }
        }

        World {
            config,
            rel_triples,
            attr_triples,
            names,
            tokens,
        }
    }

    pub fn num_entities(&self) -> usize {
        self.config.num_entities
    }

    /// The latent name tokens of entity `e`.
    pub(crate) fn name(&self, e: u32) -> &[u32] {
        let k = self.config.name_tokens;
        &self.names[e as usize * k..][..k]
    }

    /// The value of `a`, borrowed from this world.
    pub(crate) fn value(&self, a: &WorldAttr) -> LatentRef<'_> {
        match a.value {
            WorldValue::Name => LatentRef::Tokens(self.name(a.entity)),
            WorldValue::Tokens { start, end } => {
                LatentRef::Tokens(&self.tokens[start as usize..end as usize])
            }
            WorldValue::Number(x) => LatentRef::Number(x),
            WorldValue::Date(y, m, d) => LatentRef::Date(y, m, d),
        }
    }
}

/// Small-λ Poisson sampling (Knuth's algorithm); λ ≤ ~10 in our configs.
/// Takes `e^-λ`, the chance of no event, which the caller computes once.
fn poisson_knuth<R: Rng>(no_event: f64, rng: &mut R) -> usize {
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= no_event {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // guard against pathological λ
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    fn world(seed: u64) -> World {
        let mut rng = SmallRng::seed_from_u64(seed);
        World::generate(WorldConfig::default(), &mut rng)
    }

    #[test]
    fn triple_count_matches_target_degree() {
        let w = world(0);
        let expect = (w.config.avg_degree * w.config.num_entities as f64 / 2.0) as usize;
        assert!(
            w.rel_triples.len() >= expect * 9 / 10,
            "{} vs {expect}",
            w.rel_triples.len()
        );
    }

    #[test]
    fn triples_are_valid_and_unique() {
        let w = world(1);
        let mut seen = std::collections::HashSet::new();
        for &(h, r, t) in &w.rel_triples {
            assert!((h as usize) < w.num_entities());
            assert!((t as usize) < w.num_entities());
            assert!((r as usize) < w.config.num_relations);
            assert_ne!(h, t, "no self-loops");
            assert!(seen.insert((h, r, t)));
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let w = world(2);
        let mut deg = vec![0usize; w.num_entities()];
        for &(h, _, t) in &w.rel_triples {
            deg[h as usize] += 1;
            deg[t as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        let avg = deg.iter().sum::<usize>() as f64 / deg.len() as f64;
        // A hub should far exceed the average (power-law-ish tail).
        assert!(max as f64 > 4.0 * avg, "max {max}, avg {avg}");
    }

    #[test]
    fn every_entity_has_a_name_attr() {
        let w = world(3);
        let mut has_name = vec![false; w.num_entities()];
        for a in &w.attr_triples {
            if a.attr == 0 {
                has_name[a.entity as usize] = true;
            }
        }
        assert!(has_name.iter().all(|&x| x));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = world(7);
        let b = world(7);
        assert_eq!(a.rel_triples, b.rel_triples);
        assert_eq!(a.names, b.names);
    }

    #[test]
    fn relation_usage_is_skewed() {
        let w = world(4);
        let mut counts = vec![0usize; w.config.num_relations];
        for &(_, r, _) in &w.rel_triples {
            counts[r as usize] += 1;
        }
        assert!(counts[0] > counts[w.config.num_relations - 1] * 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;
    use openea_runtime::testkit::prelude::*;

    props! {
        #![cases = 12]
        /// Worlds of any shape are internally consistent.
        #[test]
        fn worlds_are_well_formed(
            entities in 10usize..200,
            relations in 1usize..20,
            attributes in 1usize..15,
            degree in 2.0f64..8.0,
            seed in 0u64..1000,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cfg = WorldConfig {
                num_entities: entities,
                num_relations: relations,
                num_attributes: attributes,
                avg_degree: degree,
                attrs_per_entity: 2.0,
                name_tokens: 2,
                vocab_size: 500,
            };
            let w = World::generate(cfg, &mut rng);
            prop_assert_eq!(w.names.len(), entities * cfg.name_tokens);
            for &(h, r, t) in &w.rel_triples {
                prop_assert!((h as usize) < entities);
                prop_assert!((t as usize) < entities);
                prop_assert!((r as usize) < relations);
                prop_assert_ne!(h, t);
            }
            for a in &w.attr_triples {
                prop_assert!((a.entity as usize) < entities);
                prop_assert!((a.attr as usize) < attributes);
                if let LatentRef::Tokens(ts) = w.value(a) {
                    prop_assert!(ts.iter().all(|&t| t < 500));
                }
            }
        }
    }
}
