//! Dataset-family presets mirroring the qualitative differences between the
//! paper's four dataset pairs:
//!
//! * **EN-FR** / **EN-DE** — cross-lingual: literals are rendered in two
//!   alphabets, so raw string matching fails but latent token identity
//!   (≈ cross-lingual word embeddings / machine translation) succeeds;
//! * **D-W** (DBpedia–Wikidata) — same language but *symbolic heterogeneity*:
//!   Wikidata-style numeric property names and noisier values;
//! * **D-Y** (DBpedia–YAGO) — same language, nearly identical literals and a
//!   much coarser schema on the YAGO side (few relations), which makes the
//!   pair easy for literal-based approaches, as in the paper.

use crate::project::{generate_pair, ProjectionConfig};
use crate::vocab::{Language, Vocabulary};
use crate::world::{World, WorldConfig};
use openea_core::KgPair;
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;

/// The four dataset families of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetFamily {
    EnFr,
    EnDe,
    DW,
    DY,
}

impl DatasetFamily {
    pub const ALL: [DatasetFamily; 4] = [
        DatasetFamily::EnFr,
        DatasetFamily::EnDe,
        DatasetFamily::DW,
        DatasetFamily::DY,
    ];

    pub fn label(self) -> &'static str {
        match self {
            DatasetFamily::EnFr => "EN-FR",
            DatasetFamily::EnDe => "EN-DE",
            DatasetFamily::DW => "D-W",
            DatasetFamily::DY => "D-Y",
        }
    }

    /// KG names as in the paper's Table 2.
    pub fn kg_names(self) -> (&'static str, &'static str) {
        match self {
            DatasetFamily::EnFr => ("EN", "FR"),
            DatasetFamily::EnDe => ("EN", "DE"),
            DatasetFamily::DW => ("DB", "WD"),
            DatasetFamily::DY => ("DB", "YG"),
        }
    }
}

/// A concrete dataset recipe.
#[derive(Clone, Copy, Debug)]
pub struct PresetConfig {
    pub family: DatasetFamily,
    /// Approximate number of entities per KG.
    pub entities: usize,
    /// `false` → V1 (natural density ≈ 5.5), `true` → V2 (doubled ≈ 11).
    pub dense: bool,
    pub seed: u64,
}

impl PresetConfig {
    pub fn new(family: DatasetFamily, entities: usize, dense: bool, seed: u64) -> Self {
        Self {
            family,
            entities,
            dense,
            seed,
        }
    }

    /// The dataset version label used in the paper.
    pub fn version(&self) -> &'static str {
        if self.dense {
            "V2"
        } else {
            "V1"
        }
    }

    fn world_config(&self) -> WorldConfig {
        // Relation/attribute counts scale sublinearly with entity count, as
        // in real KGs; the baseline counts echo Table 2's 15K figures.
        let scale = (self.entities as f64 / 15_000.0).sqrt().max(0.08);
        let rels = ((250.0 * scale) as usize).max(12);
        let attrs = ((300.0 * scale) as usize).max(12);
        WorldConfig {
            num_entities: self.entities,
            num_relations: rels,
            num_attributes: attrs,
            avg_degree: if self.dense { 11.0 } else { 5.5 },
            attrs_per_entity: if self.dense { 4.5 } else { 4.0 },
            name_tokens: 3,
            vocab_size: (self.entities as u32 * 4).max(4000),
        }
    }

    fn projections(&self) -> (ProjectionConfig, ProjectionConfig) {
        let (n1, n2) = self.family.kg_names();
        // All sources except Wikidata carry DBpedia-style name-derived URIs
        // (the paper deletes labels but URIs remain meaningful).
        let make = |name: &str, prefix: &str, vocab: Vocabulary| ProjectionConfig {
            name: name.to_owned(),
            uri_prefix: prefix.to_owned(),
            entity_coverage: 0.96,
            triple_coverage: 0.82,
            attr_coverage: 0.82,
            num_relations: usize::MAX,
            num_attributes: usize::MAX,
            vocabulary: vocab,
            numeric_properties: false,
            meaningful_uris: true,
            include_name_attr: true,
        };
        match self.family {
            DatasetFamily::EnFr => (
                make(
                    n1,
                    "en/",
                    Vocabulary {
                        language: Language::L1,
                        noise: 0.08,
                    },
                ),
                make(
                    n2,
                    "fr/",
                    Vocabulary {
                        language: Language::L2,
                        noise: 0.08,
                    },
                ),
            ),
            DatasetFamily::EnDe => (
                make(
                    n1,
                    "en/",
                    Vocabulary {
                        language: Language::L1,
                        noise: 0.08,
                    },
                ),
                make(
                    n2,
                    "de/",
                    Vocabulary {
                        language: Language::L3,
                        noise: 0.08,
                    },
                ),
            ),
            DatasetFamily::DW => {
                let c1 = make(
                    n1,
                    "db/",
                    Vocabulary {
                        language: Language::L1,
                        noise: 0.06,
                    },
                );
                let mut c2 = make(
                    n2,
                    "wd/",
                    Vocabulary {
                        language: Language::L1,
                        noise: 0.22,
                    },
                );
                // Wikidata's symbolic heterogeneity: numeric property names,
                // opaque Q-ids, and (after the paper's label deletion) no
                // readable entity name at all.
                c2.numeric_properties = true;
                c2.meaningful_uris = false;
                c2.include_name_attr = false;
                (c1, c2)
            }
            DatasetFamily::DY => {
                let c1 = make(
                    n1,
                    "db/",
                    Vocabulary {
                        language: Language::L1,
                        noise: 0.02,
                    },
                );
                let mut c2 = make(
                    n2,
                    "yg/",
                    Vocabulary {
                        language: Language::L1,
                        noise: 0.02,
                    },
                );
                // YAGO's coarse schema: very few relations/attributes.
                c2.num_relations = 10.max(self.world_config().num_relations / 8);
                c2.num_attributes = 8.max(self.world_config().num_attributes / 8);
                (c1, c2)
            }
        }
    }

    /// Generates the dataset pair.
    pub fn generate(&self) -> KgPair {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ family_seed(self.family));
        let world = World::generate(self.world_config(), &mut rng);
        let (c1, c2) = self.projections();
        generate_pair(&world, &c1, &c2, &mut rng)
    }

    /// Generates a *source* pair `factor` times larger than the target size,
    /// for the IDS/RAS/PRS sampling experiments (the analogue of sampling
    /// 15K entities out of full DBpedia).
    pub fn generate_source(&self, factor: usize) -> KgPair {
        let big = PresetConfig {
            entities: self.entities * factor.max(2),
            ..*self
        };
        big.generate()
    }
}

fn family_seed(f: DatasetFamily) -> u64 {
    match f {
        DatasetFamily::EnFr => 0x00A1,
        DatasetFamily::EnDe => 0x00B2,
        DatasetFamily::DW => 0x00C3,
        DatasetFamily::DY => 0x00D4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_is_denser_than_v1() {
        let v1 = PresetConfig::new(DatasetFamily::EnFr, 400, false, 1).generate();
        let v2 = PresetConfig::new(DatasetFamily::EnFr, 400, true, 1).generate();
        assert!(v2.kg1.avg_degree() > 1.6 * v1.kg1.avg_degree());
    }

    #[test]
    fn dy_schema_is_coarse_on_the_yago_side() {
        let p = PresetConfig::new(DatasetFamily::DY, 400, false, 2).generate();
        assert!(
            p.kg2.num_relations() * 3 < p.kg1.num_relations(),
            "{} vs {}",
            p.kg2.num_relations(),
            p.kg1.num_relations()
        );
    }

    #[test]
    fn dw_uses_numeric_properties() {
        let p = PresetConfig::new(DatasetFamily::DW, 300, false, 3).generate();
        let t = &p.kg2.rel_triples()[0];
        assert!(p.kg2.relation_name(t.rel).contains('P'));
    }

    #[test]
    fn cross_lingual_literals_differ_same_lingual_agree() {
        let enfr = PresetConfig::new(DatasetFamily::EnFr, 300, false, 4).generate();
        let dy = PresetConfig::new(DatasetFamily::DY, 300, false, 4).generate();
        let literal_overlap = |p: &KgPair| {
            let s1: std::collections::HashSet<&str> = p
                .kg1
                .attr_triples()
                .iter()
                .map(|t| p.kg1.literal_value(t.value))
                .collect();
            let hits = p
                .kg2
                .attr_triples()
                .iter()
                .filter(|t| s1.contains(p.kg2.literal_value(t.value)))
                .count();
            hits as f64 / p.kg2.num_attr_triples() as f64
        };
        let cross = literal_overlap(&enfr);
        let mono = literal_overlap(&dy);
        assert!(mono > 0.4, "D-Y overlap {mono}");
        assert!(cross < mono / 2.0, "EN-FR {cross} vs D-Y {mono}");
    }

    #[test]
    fn all_families_generate_consistent_pairs() {
        for f in DatasetFamily::ALL {
            let p = PresetConfig::new(f, 250, false, 5).generate();
            assert!(p.num_aligned() > 150, "{}: {}", f.label(), p.num_aligned());
            assert!(p.kg1.num_rel_triples() > 200);
            assert!(p.kg2.num_rel_triples() > 200);
        }
    }

    /// The latent world behind the benchmark's 15K D-Y pair at seed 1, hashed
    /// by value (FNV-1a over little-endian `u64`s): every relation triple,
    /// every name token, and each attribute's entity, attribute id and value
    /// — a tag, then its tokens, the bits of its number or its date. Read
    /// while each world value was still an owned `Vec`, before the world
    /// became flat arrays.
    #[test]
    fn the_15k_dy_world_is_pinned() {
        use crate::vocab::LatentRef;

        struct Fnv(u64);
        impl Fnv {
            fn u64(&mut self, v: u64) {
                for b in v.to_le_bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }

        let cfg = PresetConfig::new(DatasetFamily::DY, 15_000, false, 1);
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ family_seed(cfg.family));
        let w = World::generate(cfg.world_config(), &mut rng);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.u64(w.rel_triples.len() as u64);
        for &(head, rel, tail) in &w.rel_triples {
            for id in [head, rel, tail] {
                h.u64(u64::from(id));
            }
        }
        h.u64(w.num_entities() as u64);
        for e in 0..w.num_entities() as u32 {
            for &t in w.name(e) {
                h.u64(u64::from(t));
            }
        }
        h.u64(w.attr_triples.len() as u64);
        for a in &w.attr_triples {
            h.u64(u64::from(a.entity));
            h.u64(u64::from(a.attr));
            match w.value(a) {
                LatentRef::Tokens(tokens) => {
                    h.u64(0);
                    h.u64(tokens.len() as u64);
                    for &t in tokens {
                        h.u64(u64::from(t));
                    }
                }
                LatentRef::Number(x) => {
                    h.u64(1);
                    h.u64(x.to_bits());
                }
                LatentRef::Date(y, m, d) => {
                    h.u64(2);
                    for part in [y, u32::from(m), u32::from(d)] {
                        h.u64(u64::from(part));
                    }
                }
            }
        }
        assert_eq!(
            (w.rel_triples.len(), w.attr_triples.len()),
            (41_250, 75_355)
        );
        assert_eq!(
            h.0, 0x9efe_0815_610d_fd2b,
            "the seed-1 15K D-Y world changed"
        );
    }

    #[test]
    fn source_generation_is_larger() {
        let cfg = PresetConfig::new(DatasetFamily::EnFr, 200, false, 6);
        let src = cfg.generate_source(4);
        assert!(src.kg1.num_entities() >= 700);
    }
}
