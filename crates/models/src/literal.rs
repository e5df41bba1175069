//! Literal encoders: word-vector averaging (Label2Vec \[90\]) over
//! pseudo-pre-trained word embeddings, and a character-n-gram encoder in the
//! spirit of AttrE's character-level literal embedding \[77\].
//!
//! The [`WordVectors`] table plays the role of the pre-trained (cross-lingual)
//! fastText vectors the paper uses \[4\]: identical words always map to the
//! same vector, and a bilingual dictionary can pin translation pairs onto
//! nearby vectors.

use openea_runtime::hash::fnv1a;
use openea_runtime::rng::splitmix64;
use std::collections::HashMap;

/// A deterministic unit vector derived from a string hash.
pub fn hash_vector(s: &str, dim: usize) -> Vec<f32> {
    let base = fnv1a(s.as_bytes());
    let mut v: Vec<f32> = (0..dim)
        .map(|i| {
            let bits = splitmix64(&mut (base ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15)));
            (bits as f64 / u64::MAX as f64) as f32 * 2.0 - 1.0
        })
        .collect();
    openea_math::vecops::normalize(&mut v);
    v
}

/// A character-trigram bag vector: buckets trigram hashes into `dim` slots.
/// Similar strings (typos, shared morphemes) land on nearby vectors.
pub fn char_ngram_vector(s: &str, dim: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    let padded: Vec<char> = std::iter::once('^')
        .chain(s.chars())
        .chain(std::iter::once('$'))
        .collect();
    if padded.len() < 3 {
        return hash_vector(s, dim);
    }
    for w in padded.windows(3) {
        let tri: String = w.iter().collect();
        let h = fnv1a(tri.as_bytes());
        v[(h % dim as u64) as usize] += if h & (1 << 63) == 0 { 1.0 } else { -1.0 };
    }
    openea_math::vecops::normalize(&mut v);
    v
}

/// A word-embedding table with deterministic hash fallback for
/// out-of-vocabulary words.
#[derive(Clone, Debug)]
pub struct WordVectors {
    dim: usize,
    map: HashMap<String, Vec<f32>>,
}

impl WordVectors {
    /// Empty table: every word resolves through the hash fallback, which
    /// makes identical strings (monolingual pairs) match exactly.
    pub fn hash_only(dim: usize) -> Self {
        Self {
            dim,
            map: HashMap::new(),
        }
    }

    /// Builds a cross-lingual table from a bilingual dictionary of
    /// `(foreign_word, canonical_word)` pairs: both sides are mapped to the
    /// canonical word's hash vector, with a small deterministic jitter on the
    /// foreign side (real cross-lingual embeddings align imperfectly).
    pub fn cross_lingual<'a>(
        dim: usize,
        dictionary: impl Iterator<Item = (&'a str, &'a str)>,
        jitter: f32,
    ) -> Self {
        let mut map = HashMap::new();
        for (foreign, canonical) in dictionary {
            let base = hash_vector(canonical, dim);
            let mut jittered = base.clone();
            if jitter > 0.0 {
                let noise = hash_vector(foreign, dim);
                for (x, n) in jittered.iter_mut().zip(&noise) {
                    *x += jitter * n;
                }
                openea_math::vecops::normalize(&mut jittered);
            }
            map.insert(foreign.to_owned(), jittered);
            map.entry(canonical.to_owned()).or_insert(base);
        }
        Self { dim, map }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The vector for `word` (table hit or hash fallback).
    pub fn get(&self, word: &str) -> Vec<f32> {
        match self.map.get(word) {
            Some(v) => v.clone(),
            None => hash_vector(word, self.dim),
        }
    }
}

/// Encodes whole literals by averaging word vectors (with the char-ngram
/// encoder as a mixing component for robustness to noise).
#[derive(Clone, Debug)]
pub struct LiteralEncoder {
    pub words: WordVectors,
    /// Weight of the character-ngram component in `\[0, 1\]`.
    pub char_weight: f32,
}

impl LiteralEncoder {
    pub fn new(words: WordVectors) -> Self {
        Self {
            words,
            char_weight: 0.25,
        }
    }

    pub fn dim(&self) -> usize {
        self.words.dim()
    }

    /// Encodes a literal into a unit vector.
    pub fn encode(&self, literal: &str) -> Vec<f32> {
        let dim = self.words.dim();
        let mut acc = vec![0.0f32; dim];
        let mut n = 0usize;
        for w in literal.split_whitespace() {
            let v = self.words.get(w);
            for (a, x) in acc.iter_mut().zip(&v) {
                *a += x;
            }
            n += 1;
        }
        if n == 0 {
            return hash_vector(literal, dim);
        }
        for a in acc.iter_mut() {
            *a /= n as f32;
        }
        if self.char_weight > 0.0 {
            let cv = char_ngram_vector(literal, dim);
            for (a, c) in acc.iter_mut().zip(&cv) {
                *a = (1.0 - self.char_weight) * *a + self.char_weight * c;
            }
        }
        openea_math::vecops::normalize(&mut acc);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_math::vecops::cosine;

    #[test]
    fn hash_vectors_are_deterministic_and_unit() {
        let a = hash_vector("hello", 16);
        let b = hash_vector("hello", 16);
        assert_eq!(a, b);
        assert!((openea_math::vecops::norm2(&a) - 1.0).abs() < 1e-5);
        let c = hash_vector("world", 16);
        assert!(cosine(&a, &c).abs() < 0.9);
    }

    #[test]
    fn char_ngrams_capture_typos() {
        let dim = 64;
        let a = char_ngram_vector("alexandria", dim);
        let typo = char_ngram_vector("alexandira", dim);
        let other = char_ngram_vector("qwpxzvbnml", dim);
        assert!(cosine(&a, &typo) > cosine(&a, &other));
        assert!(cosine(&a, &typo) > 0.5);
    }

    #[test]
    fn cross_lingual_dictionary_aligns_translations() {
        let dict = [("maison", "house"), ("chat", "cat")];
        let wv = WordVectors::cross_lingual(16, dict.iter().map(|&(a, b)| (a, b)), 0.1);
        let sim = cosine(&wv.get("maison"), &wv.get("house"));
        assert!(sim > 0.9, "translated words should align: {sim}");
        let cross = cosine(&wv.get("maison"), &wv.get("cat"));
        assert!(cross < sim);
    }

    #[test]
    fn oov_words_fall_back_to_hash() {
        let wv = WordVectors::hash_only(16);
        assert_eq!(wv.get("unknown"), hash_vector("unknown", 16));
    }

    #[test]
    fn encoder_matches_identical_literals() {
        let enc = LiteralEncoder::new(WordVectors::hash_only(32));
        let a = enc.encode("great wall of china");
        let b = enc.encode("great wall of china");
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn encoder_partial_overlap_scores_between() {
        let enc = LiteralEncoder::new(WordVectors::hash_only(64));
        let a = enc.encode("great wall china");
        let b = enc.encode("great wall");
        let c = enc.encode("entirely different words");
        assert!(cosine(&a, &b) > cosine(&a, &c));
        assert!(cosine(&a, &b) > 0.4);
    }

    #[test]
    fn empty_literal_is_finite() {
        let enc = LiteralEncoder::new(WordVectors::hash_only(16));
        let v = enc.encode("");
        assert!(v.iter().all(|x| x.is_finite()));
        assert_eq!(v.len(), 16);
    }
}
