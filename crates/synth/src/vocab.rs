//! Latent vocabulary and literal surface rendering.
//!
//! Literal values in the world are sequences of latent token ids (or typed
//! numbers). Each projected KG renders tokens with its own surface form —
//! optionally through a deterministic transliteration map modelling a second
//! language — so that aligned entities carry *related but not identical*
//! literals, exactly the signal structure cross-lingual word embeddings (and
//! machine translation, for the conventional baselines) exploit.

use openea_runtime::rng::Rng;
use std::fmt::Write;

/// A latent attribute value in the world.
#[derive(Clone, Debug, PartialEq)]
pub enum LatentValue {
    /// A sequence of latent token ids (names, categories, descriptions).
    Tokens(Vec<u32>),
    /// A numeric quantity (population, coordinates, …).
    Number(f64),
    /// A calendar date (year, month, day).
    Date(u32, u8, u8),
}

/// Surface-rendering rules of one projected KG.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vocabulary {
    /// "Language" of the projection: selects the token surface alphabet.
    pub language: Language,
    /// Probability that a token is perturbed when rendered (typos, synonym
    /// drift, formatting differences).
    pub noise: f64,
}

/// Token surface alphabets. `L1` is the canonical language; the others are
/// deterministic transliterations of the same latent tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Language {
    L1,
    L2,
    L3,
}

impl Vocabulary {
    /// Renders a single latent token under this vocabulary. Deterministic
    /// given `(token, language)`.
    pub fn render_token(&self, token: u32) -> String {
        let mut word = String::new();
        self.render_token_into(token, &mut word);
        word
    }

    /// [`Vocabulary::render_token`], appended to `out`.
    pub fn render_token_into(&self, token: u32, out: &mut String) {
        // A base-20 consonant-vowel encoding produces pronounceable,
        // language-looking words; each language uses a different alphabet so
        // that raw string equality across languages fails (as it does between
        // English and French labels) while the latent identity is preserved.
        let (cons, vow): (&[u8], &[u8]) = match self.language {
            Language::L1 => (b"bcdfghjklm", b"aeiou"),
            Language::L2 => (b"nprstvwxzq", b"aeiou"),
            Language::L3 => (b"mbtdkgplrs", b"ouiea"),
        };
        let mut t = token as u64 + 7; // avoid the empty rendering for 0
        while t > 0 {
            out.push(cons[(t % cons.len() as u64) as usize] as char);
            t /= cons.len() as u64;
            out.push(vow[(t % vow.len() as u64) as usize] as char);
            t /= vow.len() as u64;
        }
    }

    /// Renders a latent value to a surface string, applying noise with the
    /// provided RNG (noise differs per occurrence, like real data entry).
    pub fn render<R: Rng>(&self, value: &LatentValue, rng: &mut R) -> String {
        let mut out = String::new();
        self.render_into(value, rng, &mut out);
        out
    }

    /// [`Vocabulary::render`], appended to `out`: a caller rendering many
    /// values clears and reuses one buffer. Same RNG draws in the same order.
    pub fn render_into<R: Rng>(&self, value: &LatentValue, rng: &mut R, out: &mut String) {
        match value {
            LatentValue::Tokens(tokens) => {
                let start = out.len();
                for &t in tokens {
                    let noise = rng.gen_bool(self.noise).then(|| rng.gen_range(0..3u8));
                    if noise == Some(0) {
                        continue; // drop token
                    }
                    if out.len() > start {
                        out.push(' ');
                    }
                    let word = out.len();
                    match noise {
                        None => self.render_token_into(t, out),
                        Some(1) => self.render_token_into(t ^ 0x9e, out), // replace token
                        Some(_) => {
                            // Typo: duplicate the first letter.
                            self.render_token_into(t, out);
                            if let Some(c) = out[word..].chars().next() {
                                out.insert(word, c);
                            }
                        }
                    }
                }
                if out.len() == start {
                    // Never render an empty literal.
                    self.render_token_into(tokens.first().copied().unwrap_or(0), out);
                }
            }
            LatentValue::Number(x) => {
                if rng.gen_bool(self.noise) {
                    // Unit/precision drift.
                    write!(out, "{:.1}", x + rng.gen_range(-0.5..0.5))
                } else {
                    write!(out, "{x:.3}")
                }
                .expect("writing to a String cannot fail");
            }
            LatentValue::Date(y, m, d) => match self.language {
                Language::L1 => write!(out, "{y:04}-{m:02}-{d:02}"),
                Language::L2 => write!(out, "{d:02}/{m:02}/{y:04}"),
                Language::L3 => write!(out, "{m:02}.{d:02}.{y:04}"),
            }
            .expect("writing to a String cannot fail"),
        }
    }

    /// "Machine translation" back to `L1` surface forms: re-renders the
    /// tokens recovered from this vocabulary's rendering in the canonical
    /// alphabet, with a per-token error probability. The conventional
    /// baselines use this on cross-lingual pairs, mirroring the paper's use
    /// of Google Translate for LogMap and PARIS.
    pub fn translate_to_l1<R: Rng>(
        &self,
        value: &LatentValue,
        error_rate: f64,
        rng: &mut R,
    ) -> String {
        let l1 = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        match value {
            LatentValue::Tokens(tokens) => tokens
                .iter()
                .map(|&t| {
                    if rng.gen_bool(error_rate) {
                        l1.render_token(t.wrapping_add(13)) // mistranslation
                    } else {
                        l1.render_token(t)
                    }
                })
                .collect::<Vec<_>>()
                .join(" "),
            other => l1.render(other, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    #[test]
    fn token_rendering_is_deterministic_and_injective_enough() {
        let v = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let a = v.render_token(42);
        assert_eq!(a, v.render_token(42));
        let mut seen = std::collections::HashSet::new();
        for t in 0..5000 {
            assert!(seen.insert(v.render_token(t)), "collision at token {t}");
        }
    }

    #[test]
    fn languages_render_differently() {
        let l1 = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let l2 = Vocabulary {
            language: Language::L2,
            noise: 0.0,
        };
        for t in 0..100 {
            assert_ne!(l1.render_token(t), l2.render_token(t));
        }
    }

    #[test]
    fn noiseless_rendering_is_stable() {
        let v = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let value = LatentValue::Tokens(vec![1, 2, 3]);
        let a = v.render(&value, &mut rng);
        let b = v.render(&value, &mut rng);
        assert_eq!(a, b);
        assert_eq!(a.split(' ').count(), 3);
    }

    #[test]
    fn noisy_rendering_never_empty() {
        let v = Vocabulary {
            language: Language::L1,
            noise: 1.0,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = v.render(&LatentValue::Tokens(vec![5]), &mut rng);
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn dates_format_per_language() {
        let mut rng = SmallRng::seed_from_u64(2);
        let d = LatentValue::Date(1969, 7, 20);
        let l1 = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let l2 = Vocabulary {
            language: Language::L2,
            noise: 0.0,
        };
        assert_eq!(l1.render(&d, &mut rng), "1969-07-20");
        assert_eq!(l2.render(&d, &mut rng), "20/07/1969");
    }

    #[test]
    fn perfect_translation_matches_l1_rendering() {
        let l1 = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let l2 = Vocabulary {
            language: Language::L2,
            noise: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let value = LatentValue::Tokens(vec![10, 20, 30]);
        let original = l1.render(&value, &mut rng);
        let translated = l2.translate_to_l1(&value, 0.0, &mut rng);
        assert_eq!(original, translated);
    }

    #[test]
    fn translation_errors_change_tokens() {
        let l2 = Vocabulary {
            language: Language::L2,
            noise: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let value = LatentValue::Tokens(vec![10, 20, 30]);
        let clean = l2.translate_to_l1(&value, 0.0, &mut rng);
        let noisy = l2.translate_to_l1(&value, 1.0, &mut rng);
        assert_ne!(clean, noisy);
    }

    #[test]
    fn numbers_render_parseably() {
        let v = Vocabulary {
            language: Language::L1,
            noise: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let s = v.render(&LatentValue::Number(3.25), &mut rng);
        assert!((s.parse::<f64>().unwrap() - 3.25).abs() < 1e-9);
    }
}
