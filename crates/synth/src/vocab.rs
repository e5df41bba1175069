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

/// A latent attribute value, owned.
#[derive(Clone, Debug, PartialEq)]
pub enum LatentValue {
    /// A sequence of latent token ids (names, categories, descriptions).
    Tokens(Vec<u32>),
    /// A numeric quantity (population, coordinates, …).
    Number(f64),
    /// A calendar date (year, month, day).
    Date(u32, u8, u8),
}

/// A latent attribute value, borrowed: what rendering reads. The world hands
/// these out of its flat token arrays without a `Vec` per value;
/// [`LatentValue::borrowed`] gives the owned form's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum LatentRef<'a> {
    /// A sequence of latent token ids.
    Tokens(&'a [u32]),
    /// A numeric quantity.
    Number(f64),
    /// A calendar date (year, month, day).
    Date(u32, u8, u8),
}

impl LatentValue {
    /// This value as rendering reads it.
    pub(crate) fn borrowed(&self) -> LatentRef<'_> {
        match *self {
            LatentValue::Tokens(ref tokens) => LatentRef::Tokens(tokens),
            LatentValue::Number(x) => LatentRef::Number(x),
            LatentValue::Date(y, m, d) => LatentRef::Date(y, m, d),
        }
    }
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

/// What the noise draws decided for one token or one number.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Drawn {
    /// Rendered as is.
    Clean,
    /// A token left out.
    Drop,
    /// A token rendered as another one.
    Replace,
    /// A token with its first letter doubled.
    Typo,
    /// A number moved by the next offset of [`NoiseDraws::drifts`].
    Drift,
}

/// The noise draws of one or more renderings, in draw order: what
/// [`Vocabulary::draw_noise`] records and [`Vocabulary::render_drawn`] reads.
/// One byte per token or number, plus one offset per drifted number.
#[derive(Default)]
pub(crate) struct NoiseDraws {
    drawn: Vec<Drawn>,
    drifts: Vec<f64>,
}

impl NoiseDraws {
    /// Reads the draws from the first.
    pub(crate) fn replay(&self) -> NoiseReplay<'_> {
        NoiseReplay {
            drawn: self.drawn.iter(),
            drifts: self.drifts.iter(),
        }
    }
}

/// A reading position in [`NoiseDraws`]: each rendering takes its value's
/// draws and leaves the next value's.
pub(crate) struct NoiseReplay<'a> {
    drawn: std::slice::Iter<'a, Drawn>,
    drifts: std::slice::Iter<'a, f64>,
}

impl NoiseReplay<'_> {
    fn next(&mut self) -> Drawn {
        *self
            .drawn
            .next()
            .expect("rendered from the draws of the same values")
    }

    fn drift(&mut self) -> f64 {
        *self.drifts.next().expect("one offset per drifted number")
    }
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
    /// values clears and reuses one buffer. The draws of
    /// `Vocabulary::draw_noise`, rendered by `Vocabulary::render_drawn`.
    pub fn render_into<R: Rng>(&self, value: &LatentValue, rng: &mut R, out: &mut String) {
        let value = value.borrowed();
        let mut noise = NoiseDraws::default();
        self.draw_noise(value, rng, &mut noise);
        self.render_drawn(value, &mut noise.replay(), out);
    }

    /// Every RNG draw rendering `value` makes, appended to `noise` — the one
    /// place their order is written. A caller may draw for many values here
    /// and render them later, anywhere, from what was recorded.
    pub(crate) fn draw_noise<R: Rng>(
        &self,
        value: LatentRef<'_>,
        rng: &mut R,
        noise: &mut NoiseDraws,
    ) {
        match value {
            LatentRef::Tokens(tokens) => {
                for _ in tokens {
                    let drawn = match rng.gen_bool(self.noise).then(|| rng.gen_range(0..3u8)) {
                        None => Drawn::Clean,
                        Some(0) => Drawn::Drop,
                        Some(1) => Drawn::Replace,
                        Some(_) => Drawn::Typo,
                    };
                    noise.drawn.push(drawn);
                }
            }
            LatentRef::Number(_) => {
                if rng.gen_bool(self.noise) {
                    noise.drawn.push(Drawn::Drift);
                    noise.drifts.push(rng.gen_range(-0.5..0.5));
                } else {
                    noise.drawn.push(Drawn::Clean);
                }
            }
            LatentRef::Date(..) => {}
        }
    }

    /// Renders `value` from its draws — the next ones `noise` holds —
    /// appended to `out`. Makes no draw.
    pub(crate) fn render_drawn(
        &self,
        value: LatentRef<'_>,
        noise: &mut NoiseReplay<'_>,
        out: &mut String,
    ) {
        match value {
            LatentRef::Tokens(tokens) => {
                let start = out.len();
                for &t in tokens {
                    let drawn = noise.next();
                    if drawn == Drawn::Drop {
                        continue;
                    }
                    if out.len() > start {
                        out.push(' ');
                    }
                    let word = out.len();
                    match drawn {
                        Drawn::Replace => self.render_token_into(t ^ 0x9e, out),
                        Drawn::Typo => {
                            // Duplicate the first letter.
                            self.render_token_into(t, out);
                            if let Some(c) = out[word..].chars().next() {
                                out.insert(word, c);
                            }
                        }
                        _ => self.render_token_into(t, out),
                    }
                }
                if out.len() == start {
                    // Never render an empty literal.
                    self.render_token_into(tokens.first().copied().unwrap_or(0), out);
                }
            }
            LatentRef::Number(x) => {
                if noise.next() == Drawn::Drift {
                    // Unit/precision drift.
                    push_fixed(out, x + noise.drift(), 1);
                } else {
                    push_fixed(out, x, 3);
                }
            }
            LatentRef::Date(y, m, d) => {
                let (y, m, d) = (u64::from(y), u64::from(m), u64::from(d));
                // `{y:04}-{m:02}-{d:02}`, `{d:02}/{m:02}/{y:04}`, `{m:02}.{d:02}.{y:04}`.
                let (sep, fields) = match self.language {
                    Language::L1 => ('-', [(y, 4), (m, 2), (d, 2)]),
                    Language::L2 => ('/', [(d, 2), (m, 2), (y, 4)]),
                    Language::L3 => ('.', [(m, 2), (d, 2), (y, 4)]),
                };
                for (i, (value, width)) in fields.into_iter().enumerate() {
                    if i > 0 {
                        out.push(sep);
                    }
                    push_padded(out, value, width);
                }
            }
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

/// Appends `x` with `decimals` (at most 3) digits after the point: the text
/// of `format!("{x:.3}")` at 3, by integer arithmetic instead of `core::fmt`.
/// Below 2⁵² in magnitude `x` is `mantissa / 2^shift` with `shift ≥ 1`, so
/// `x · 10^decimals` is `mantissa · 10^decimals < 2⁶³` over `2^shift`, and
/// rounding that half to even is what `core::fmt` does with the exact binary
/// value. NaN, ±∞ and larger magnitudes are written by `write!`.
fn push_fixed(out: &mut String, x: f64, decimals: u32) {
    debug_assert!(decimals <= 3, "mantissa · 10^decimals must fit 63 bits");
    if x.is_nan() || x.abs() >= (1u64 << 52) as f64 {
        write!(out, "{x:.prec$}", prec = decimals as usize)
            .expect("writing to a String cannot fail");
        return;
    }
    let bits = x.to_bits();
    // ±0 and subnormals, which lack the implicit bit, have `shift ≥ 64` and
    // round to 0 with or without it.
    let mantissa = bits & ((1 << 52) - 1) | 1 << 52;
    let shift = 1075 - (bits >> 52 & 0x7ff) as u32;
    let scale = 10u64.pow(decimals);
    let units = shift_rounding_half_to_even(mantissa * scale, shift);
    if bits >> 63 == 1 {
        out.push('-');
    }
    push_padded(out, units / scale, 1);
    out.push('.');
    push_padded(out, units % scale, decimals as usize);
}

/// `n / 2^shift`, rounded half to even, for `n < 2⁶³` and `shift ≥ 1`.
fn shift_rounding_half_to_even(n: u64, shift: u32) -> u64 {
    if shift >= 64 {
        return 0; // below a half
    }
    let quotient = n >> shift;
    let rest = n & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    quotient + u64::from(rest > half || (rest == half && quotient & 1 == 1))
}

/// Appends `value` in decimal, zero-padded to at least `width` (≤ 20)
/// digits: `{value:0width$}`.
pub(crate) fn push_padded(out: &mut String, mut value: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    let start = start.min(digits.len() - width);
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
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

#[cfg(test)]
mod proptests {
    use super::*;
    use openea_runtime::rng::{RngCore, SeedableRng, SmallRng};
    use openea_runtime::testkit::prelude::*;

    /// The one-pass renderer that drew and rendered each token in turn,
    /// before the two were split: the reference.
    fn one_pass_render<R: Rng>(v: &Vocabulary, value: &LatentValue, rng: &mut R) -> String {
        let mut out = String::new();
        match value {
            LatentValue::Tokens(tokens) => {
                for &t in tokens {
                    let noise = rng.gen_bool(v.noise).then(|| rng.gen_range(0..3u8));
                    if noise == Some(0) {
                        continue;
                    }
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    let word = out.len();
                    match noise {
                        None => v.render_token_into(t, &mut out),
                        Some(1) => v.render_token_into(t ^ 0x9e, &mut out),
                        Some(_) => {
                            v.render_token_into(t, &mut out);
                            let c = out[word..].chars().next().unwrap();
                            out.insert(word, c);
                        }
                    }
                }
                if out.is_empty() {
                    v.render_token_into(tokens.first().copied().unwrap_or(0), &mut out);
                }
            }
            LatentValue::Number(x) => {
                out = if rng.gen_bool(v.noise) {
                    format!("{:.1}", x + rng.gen_range(-0.5..0.5))
                } else {
                    format!("{x:.3}")
                };
            }
            LatentValue::Date(y, m, d) => {
                out = match v.language {
                    Language::L1 => format!("{y:04}-{m:02}-{d:02}"),
                    Language::L2 => format!("{d:02}/{m:02}/{y:04}"),
                    Language::L3 => format!("{m:02}.{d:02}.{y:04}"),
                }
            }
        }
        out
    }

    fn value_of(kind: u8, tokens: Vec<u32>, x: f64, (y, m, d): (u32, u8, u8)) -> LatentValue {
        match kind {
            0 => LatentValue::Tokens(tokens),
            1 => LatentValue::Number(x),
            _ => LatentValue::Date(y, m, d),
        }
    }

    props! {
        #![cases = 64]

        /// Drawing every value's noise first and rendering them all after
        /// gives the text the one-pass renderer gives — and `render_into`,
        /// their composition, value by value — and leaves the RNG where it
        /// left it: over noise {0, 0.3, 1} × the three languages × the three
        /// kinds of latent value, mixed in one stream.
        #[test]
        fn drawing_then_rendering_matches_the_one_pass_renderer(
            values in vec_of(
                (0u8..3, vec_of(0u32..5000, 0..5), 0.0f64..10_000.0, (1800u32..2020, 1u8..13, 1u8..29)),
                0..24,
            ),
            seed in 0u64..1_000_000,
        ) {
            let values: Vec<LatentValue> = values
                .into_iter()
                .map(|(kind, tokens, x, date)| value_of(kind, tokens, x, date))
                .collect();
            for noise in [0.0, 0.3, 1.0] {
                for language in [Language::L1, Language::L2, Language::L3] {
                    let v = Vocabulary { language, noise };
                    let mut one_pass = SmallRng::seed_from_u64(seed);
                    let want: Vec<String> =
                        values.iter().map(|x| one_pass_render(&v, x, &mut one_pass)).collect();

                    let mut composed = SmallRng::seed_from_u64(seed);
                    let got: Vec<String> = values.iter().map(|x| v.render(x, &mut composed)).collect();
                    prop_assert_eq!(&got, &want, "render_into, noise {} {:?}", noise, language);
                    prop_assert_eq!(composed.next_u64(), one_pass.clone().next_u64());

                    let mut split = SmallRng::seed_from_u64(seed);
                    let mut draws = NoiseDraws::default();
                    for x in &values {
                        v.draw_noise(x.borrowed(), &mut split, &mut draws);
                    }
                    let mut replay = draws.replay();
                    let got: Vec<String> = values
                        .iter()
                        .map(|x| {
                            let mut out = String::new();
                            v.render_drawn(x.borrowed(), &mut replay, &mut out);
                            out
                        })
                        .collect();
                    prop_assert_eq!(&got, &want, "draw all, render all, noise {} {:?}", noise, language);
                    prop_assert_eq!(split.next_u64(), one_pass.next_u64());
                    prop_assert!(replay.drawn.next().is_none() && replay.drifts.next().is_none());
                }
            }
        }
    }

    props! {
        #![cases = 64]

        /// The number and date renderers write what `core::fmt` writes:
        /// `{x:.3}` and `{x:.1}` over any bit pattern (mostly the `write!`
        /// fallback: NaN, ±∞, |x| ≥ 2⁵², and tiny magnitudes), the range the
        /// generator's numbers and drifts take, near-ties k/2000 and exact
        /// binary ties k/16 (half to even on the exact value), ±0.0,
        /// subnormals and negatives that round to zero ("-0.0"); and the
        /// three date patterns with years and months past their field width.
        #[test]
        fn number_and_date_text_match_core_fmt(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let two_52 = (1u64 << 52) as f64;
            let mut xs = vec![
                0.0, -0.0, 0.05, 0.25, 0.0625, 0.9995, 9999.9995, 10_000.5,
                f64::MIN_POSITIVE, f64::from_bits(1), f64::NAN, f64::INFINITY,
                f64::NEG_INFINITY, f64::MAX, two_52, two_52 - 0.5, two_52 - 1.0,
            ];
            for _ in 0..512 {
                let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
                xs.push(f64::from_bits(rng.next_u64()));
                xs.push(rng.gen_range(-0.5..10_000.5));
                xs.push(f64::from(rng.gen_range(-20_001_000..20_001_000)) / 2000.0);
                xs.push(f64::from(rng.gen_range(-160_008..160_008)) / 16.0);
                xs.push(sign * f64::from_bits(rng.gen_range(1..1u64 << 52)));
                xs.push(-rng.gen_range(0.0..0.05f64));
                xs.push(-rng.gen_range(0.0..0.0005f64));
                xs.push(sign * rng.gen_range(0.0..two_52));
            }
            for &x in &xs {
                for decimals in [1, 3] {
                    let mut got = String::new();
                    push_fixed(&mut got, x, decimals);
                    let want = format!("{x:.prec$}", prec = decimals as usize);
                    prop_assert_eq!(got, want, "{:?} = {:#018x} at {}", x, x.to_bits(), decimals);
                }
            }

            let mut no_draws = SmallRng::seed_from_u64(0);
            for _ in 0..512 {
                let y = if rng.gen_bool(0.5) { rng.gen_range(0..100_000) } else { rng.gen_range(0..=u32::MAX) };
                let (m, d) = (rng.gen_range(0..=u8::MAX), rng.gen_range(0..=u8::MAX));
                for (language, want) in [
                    (Language::L1, format!("{y:04}-{m:02}-{d:02}")),
                    (Language::L2, format!("{d:02}/{m:02}/{y:04}")),
                    (Language::L3, format!("{m:02}.{d:02}.{y:04}")),
                ] {
                    let v = Vocabulary { language, noise: 0.5 };
                    let got = v.render(&LatentValue::Date(y, m, d), &mut no_draws);
                    prop_assert_eq!(got, want, "{:?}", language);
                }
            }
        }
    }
}
