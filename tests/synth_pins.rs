//! The generated datasets pinned by their *text*: every entity URI,
//! relation and attribute name and literal, in id order, then every triple
//! and the reference alignment.
//!
//! `kg_model::the_15k_pair_digest_is_pinned` hashes ids only, and a literal
//! can change its text without moving an id. These digests were read at
//! the commit before the pair generator split its RNG draws from the
//! rendering they decide, so a draw that moves between the two, or a
//! rendering that reads a different draw, fails here.

use openea_core::{AttributeId, EntityId, KgPair, KnowledgeGraph, LiteralId, RelationId};
use openea_synth::{DatasetFamily, PresetConfig};

/// FNV-1a 64 over bytes.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so no two sequences of names hash the same bytes.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn eat_kg(h: &mut Fnv, kg: &KnowledgeGraph) {
    h.str(kg.name());
    let ids = |n: usize| 0..n as u32;
    h.u64(kg.num_entities() as u64);
    for i in ids(kg.num_entities()) {
        h.str(kg.entity_name(EntityId(i)));
    }
    h.u64(kg.num_relations() as u64);
    for i in ids(kg.num_relations()) {
        h.str(kg.relation_name(RelationId(i)));
    }
    h.u64(kg.num_attributes() as u64);
    for i in ids(kg.num_attributes()) {
        h.str(kg.attribute_name(AttributeId(i)));
    }
    h.u64(kg.num_literals() as u64);
    for i in ids(kg.num_literals()) {
        h.str(kg.literal_value(LiteralId(i)));
    }
    h.u64(kg.num_rel_triples() as u64);
    for t in kg.rel_triples() {
        h.u64(u64::from(t.head.0) << 32 | u64::from(t.tail.0));
        h.u64(u64::from(t.rel.0));
    }
    h.u64(kg.num_attr_triples() as u64);
    for t in kg.attr_triples() {
        h.u64(u64::from(t.entity.0) << 32 | u64::from(t.attr.0));
        h.u64(u64::from(t.value.0));
    }
}

fn text_digest(pair: &KgPair) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    eat_kg(&mut h, &pair.kg1);
    eat_kg(&mut h, &pair.kg2);
    h.u64(pair.alignment.len() as u64);
    for &(a, b) in &pair.alignment {
        h.u64(u64::from(a.0) << 32 | u64::from(b.0));
    }
    h.0
}

fn digest_of(family: DatasetFamily, entities: usize, dense: bool) -> u64 {
    text_digest(&PresetConfig::new(family, entities, dense, 1).generate())
}

/// Every family × V1/V2 at 3 000 entities, seed 1.
#[test]
fn every_family_and_version_at_3k_is_pinned_by_text() {
    let want = [
        (DatasetFamily::EnFr, false, 0x28ce_e8e2_f5c6_8da0),
        (DatasetFamily::EnFr, true, 0xe0fa_10f3_f0b1_b690),
        (DatasetFamily::EnDe, false, 0x8f6f_8041_02f1_84cc),
        (DatasetFamily::EnDe, true, 0xc46a_7715_d2b0_d575),
        (DatasetFamily::DW, false, 0x4759_d6dc_b2af_7c92),
        (DatasetFamily::DW, true, 0xcaf5_b0f6_e767_6c90),
        (DatasetFamily::DY, false, 0x1bf0_7d1f_e839_4442),
        (DatasetFamily::DY, true, 0x16f7_e5a6_eeae_2f2b),
    ];
    let got: Vec<_> = want
        .iter()
        .map(|&(family, dense, _)| (family, dense, digest_of(family, 3_000, dense)))
        .collect();
    assert_eq!(got, want, "a 3K pair's text changed");
}

/// The 15K D-Y V1 pair at seed 1: the input of the benchmark's two trained
/// workloads.
#[test]
fn the_15k_dy_pair_is_pinned_by_text() {
    assert_eq!(
        digest_of(DatasetFamily::DY, 15_000, false),
        0x6d31_b69a_a6e6_1589,
        "the seed-1 15K D-Y pair's text changed"
    );
}
