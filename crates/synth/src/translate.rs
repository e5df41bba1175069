//! Dictionary-based "machine translation" of rendered literals back to the
//! canonical language `L1`.
//!
//! The paper feeds the non-English KG of each cross-lingual pair through
//! Google Translate before running LogMap and PARIS. Our stand-in builds a
//! word dictionary by inverting the deterministic token rendering of the
//! source language, translates word-by-word with a configurable error rate,
//! and normalizes date formats. Unknown words (noise artifacts) pass through
//! unchanged, like out-of-vocabulary words in real MT.

use crate::vocab::{Language, Vocabulary};
use openea_core::{KgBuilder, KgPair, KnowledgeGraph};
use openea_runtime::hash::fnv1a;
use std::collections::HashMap;

/// A word-level translator from one surface language into `L1`.
#[derive(Clone, Debug)]
pub struct Translator {
    dict: HashMap<String, String>,
    error_rate: f64,
}

impl Translator {
    /// Builds the dictionary for all tokens below `vocab_size` (plus the
    /// generator's noise-replacement tokens, which are XOR-shifted ids).
    pub fn new(from: Language, vocab_size: u32, error_rate: f64) -> Self {
        let src = Vocabulary {
            language: from,
            noise: 0.0,
        };
        let dst = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let mut dict = HashMap::with_capacity(vocab_size as usize * 2);
        for t in 0..vocab_size {
            dict.insert(src.render_token(t), dst.render_token(t));
            let noisy = t ^ 0x9e;
            dict.entry(src.render_token(noisy))
                .or_insert_with(|| dst.render_token(noisy));
        }
        Self { dict, error_rate }
    }

    /// The `(foreign word, canonical word)` dictionary entries, e.g. for
    /// building cross-lingual word vectors.
    pub fn dictionary_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.dict.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Translates one literal. Deterministic: "translation errors" are a
    /// stable hash-based token substitution at the configured rate.
    pub fn translate(&self, literal: &str) -> String {
        if let Some(iso) = normalize_date(literal) {
            return iso;
        }
        literal
            .split(' ')
            .map(|w| match self.dict.get(w) {
                Some(t) if !self.is_error(w) => t.clone(),
                Some(_) => {
                    // Mistranslation: deterministic wrong-but-valid word.
                    let h = fnv1a(w.as_bytes()) as u32;
                    Vocabulary {
                        language: Language::L1,
                        noise: 0.0,
                    }
                    .render_token(h % 1000 + 1_000_000)
                }
                None => w.to_owned(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn is_error(&self, word: &str) -> bool {
        if self.error_rate <= 0.0 {
            return false;
        }
        (fnv1a(word.as_bytes()) % 10_000) as f64 / 10_000.0 < self.error_rate
    }
}

/// Recognizes `dd/mm/yyyy` and `mm.dd.yyyy` and rewrites to ISO `yyyy-mm-dd`.
fn normalize_date(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    if bytes.len() != 10 {
        return None;
    }
    let digits_at = |ranges: &[std::ops::Range<usize>]| {
        ranges
            .iter()
            .all(|r| bytes[r.clone()].iter().all(u8::is_ascii_digit))
    };
    match (bytes[2], bytes[5]) {
        (b'/', b'/') if digits_at(&[0..2, 3..5, 6..10]) => {
            Some(format!("{}-{}-{}", &s[6..10], &s[3..5], &s[0..2]))
        }
        (b'.', b'.') if digits_at(&[0..2, 3..5, 6..10]) => {
            Some(format!("{}-{}-{}", &s[6..10], &s[0..2], &s[3..5]))
        }
        _ => None,
    }
}

/// Returns a copy of `kg` with every literal translated.
pub fn translate_kg(kg: &KnowledgeGraph, tr: &Translator) -> KnowledgeGraph {
    let mut b = KgBuilder::new(kg.name());
    for e in kg.entity_ids() {
        b.add_entity(kg.entity_name(e));
    }
    for t in kg.rel_triples() {
        b.add_rel_triple(
            kg.entity_name(t.head),
            kg.relation_name(t.rel),
            kg.entity_name(t.tail),
        );
    }
    for t in kg.attr_triples() {
        b.add_attr_triple(
            kg.entity_name(t.entity),
            kg.attribute_name(t.attr),
            &tr.translate(kg.literal_value(t.value)),
        );
    }
    b.build()
}

/// Returns a copy of `pair` with KG2's literals translated into L1.
/// Entity ids are preserved (the builder re-interns in the same order).
pub fn translate_pair(pair: &KgPair, tr: &Translator) -> KgPair {
    let kg2 = translate_kg(&pair.kg2, tr);
    // Entity insertion order is identical, so alignment ids remain valid;
    // assert on a sample in debug builds.
    debug_assert!(pair
        .alignment
        .iter()
        .take(10)
        .all(|&(_, e2)| kg2.entity_name(e2) == pair.kg2.entity_name(e2)));
    KgPair::new(pair.kg1.clone(), kg2, pair.alignment.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::LatentValue;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    #[test]
    fn clean_translation_recovers_l1_surface() {
        let tr = Translator::new(Language::L2, 2000, 0.0);
        let l1 = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let l2 = Vocabulary {
            language: Language::L2,
            noise: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(0);
        for tokens in [vec![1u32, 2, 3], vec![500], vec![1999, 0]] {
            let v = LatentValue::Tokens(tokens);
            let rendered = l2.render(&v, &mut rng);
            let expected = l1.render(&v, &mut rng);
            assert_eq!(tr.translate(&rendered), expected);
        }
    }

    #[test]
    fn date_normalization() {
        let tr = Translator::new(Language::L2, 10, 0.0);
        assert_eq!(tr.translate("20/07/1969"), "1969-07-20");
        assert_eq!(tr.translate("07.20.1969"), "1969-07-20");
        assert_eq!(tr.translate("1969-07-20"), "1969-07-20"); // untouched
        assert_eq!(tr.translate("ab/cd/efgh"), "ab/cd/efgh"); // not a date
    }

    #[test]
    fn unknown_words_pass_through() {
        let tr = Translator::new(Language::L2, 10, 0.0);
        assert_eq!(tr.translate("zzzzz 12345"), "zzzzz 12345");
    }

    #[test]
    fn error_rate_one_breaks_every_known_word() {
        let tr = Translator::new(Language::L2, 100, 1.0);
        let l2 = Vocabulary {
            language: Language::L2,
            noise: 0.0,
        };
        let l1 = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let w2 = l2.render_token(42);
        let w1 = l1.render_token(42);
        assert_ne!(tr.translate(&w2), w1);
    }

    #[test]
    fn translate_pair_preserves_structure() {
        let pair =
            crate::presets::PresetConfig::new(crate::presets::DatasetFamily::EnFr, 200, false, 1)
                .generate();
        let tr = Translator::new(Language::L2, 4000, 0.05);
        let translated = translate_pair(&pair, &tr);
        assert_eq!(translated.kg2.num_entities(), pair.kg2.num_entities());
        assert_eq!(translated.kg2.num_rel_triples(), pair.kg2.num_rel_triples());
        assert_eq!(translated.num_aligned(), pair.num_aligned());
        // Translation raises the literal overlap with KG1 substantially.
        let overlap = |kg2: &KnowledgeGraph| {
            let s1: std::collections::HashSet<&str> = pair
                .kg1
                .attr_triples()
                .iter()
                .map(|t| pair.kg1.literal_value(t.value))
                .collect();
            kg2.attr_triples()
                .iter()
                .filter(|t| s1.contains(kg2.literal_value(t.value)))
                .count()
        };
        // Numbers already match across languages, so some base overlap
        // exists; translation must multiply it and cover most literals.
        let base = overlap(&pair.kg2).max(1);
        let after = overlap(&translated.kg2);
        assert!(after > 3 * base, "after={after} base={base}");
        assert!(after * 2 > pair.kg2.num_attr_triples(), "after={after}");
    }
}
