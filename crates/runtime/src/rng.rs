//! Deterministic pseudo-random generation with a `rand`-compatible surface.
//!
//! The generator is **xoshiro256\*\*** (Blackman & Vigna), seeded by
//! expanding a single `u64` through **SplitMix64** — the exact construction
//! `rand`'s `SmallRng` used on 64-bit targets, so it is fast, passes BigCrush
//! and has a 2^256−1 period. The word stream is pure integer arithmetic:
//! streams are bit-identical across platforms, optimization levels and
//! releases, which is what makes same-seed reruns of the full benchmark
//! reproduce to the last bit.
//!
//! The trait split mirrors `rand` so call sites read identically:
//! [`RngCore`] is the raw `u64` source, [`Rng`] layers typed sampling on top
//! (`gen`, `gen_range`, `gen_bool`, `gen_gaussian`), [`SeedableRng`]
//! constructs from a seed, and [`SliceRandom`] adds `shuffle`/`choose` on
//! slices.
//!
//! Gaussians come from one transform, the 1 024-layer ziggurat of
//! [`standard_gaussian`]; [`GaussianLanes`] draws it on eight streams at
//! once, each lane's values, written to that lane's own slice, those of its
//! stream. Its tables are built from
//! `exp` and `ln`, so its values also rest on libm: the unit tests pin the
//! tables' bits, the exact word, wedge and tail counts of 10⁶ draws on a
//! fixed stream, and the draws' distribution, and hold every lane to the
//! scalar draw bit for bit.
//!
//! ```
//! use openea_runtime::rng::{Rng, SeedableRng, SliceRandom, SmallRng};
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let x: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&x));
//! let d = rng.gen_range(0..6u32);
//! assert!(d < 6);
//! let mut deck: Vec<u32> = (0..52).collect();
//! deck.shuffle(&mut rng);
//! assert_eq!(deck.len(), 52);
//! ```

use crate::isa;

/// A raw source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64: advances `state` by the golden-ratio increment and returns
/// the mixed value — the workspace's one 64-bit mixer, which seeds
/// [`SmallRng`], derives [`split_seed`] streams and hashes literal strings
/// into vectors.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives the seed of an independent sub-stream from a base seed.
///
/// The `stream` index is whitened through SplitMix64, XOR-folded into the
/// base seed and whitened again, so nearby stream indices (0, 1, 2, …) land
/// on unrelated points of the seed space. This is the workspace's one way to
/// fan a single run seed out into many generators (per-batch negative
/// sampling, per-epoch shuffles, per-worker init) without the streams ever
/// sharing a prefix: consumers call
/// [`SmallRng::stream`]`(seed, stream)` instead of hand-crafting
/// `seed ^ constant` mixes.
#[inline]
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut s = stream;
    let mut folded = seed ^ splitmix64(&mut s);
    splitmix64(&mut folded)
}

/// xoshiro256\*\* — the workspace's one true generator.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// A generator on sub-stream `stream` of `seed` (see [`split_seed`]).
    /// Same `(seed, stream)` reproduces the same sequence bit-for-bit;
    /// different streams of one seed are statistically independent.
    #[inline]
    pub fn stream(seed: u64, stream: u64) -> Self {
        Self::seed_from_u64(split_seed(seed, stream))
    }
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 expansion guarantees a non-zero state for every seed
        // (an all-zero state would be a fixed point of xoshiro).
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }
}

impl RngCore for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// A deterministic counter "generator" for tests that need a predictable,
/// non-random word stream (mirror of `rand`'s mock `StepRng`).
#[derive(Clone, Debug)]
pub struct StepRng {
    v: u64,
    step: u64,
}

impl StepRng {
    pub fn new(initial: u64, step: u64) -> Self {
        Self { v: initial, step }
    }
}

impl RngCore for StepRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let r = self.v;
        self.v = self.v.wrapping_add(self.step);
        r
    }
}

/// Types that can be drawn directly from the raw word stream via
/// [`Rng::gen`]. Floats are uniform in `[0, 1)`.
pub trait FromRandom {
    fn from_random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl FromRandom for u64 {
    #[inline]
    fn from_random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl FromRandom for u32 {
    #[inline]
    fn from_random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl FromRandom for usize {
    #[inline]
    fn from_random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl FromRandom for bool {
    #[inline]
    fn from_random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRandom for f64 {
    /// Uniform in `[0, 1)` with the full 53 bits of mantissa precision.
    #[inline]
    fn from_random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRandom for f32 {
    /// Uniform in `[0, 1)` with 24 bits of mantissa precision.
    #[inline]
    fn from_random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Draws a uniform integer in `[0, span)` without modulo bias (Lemire's
/// multiply-shift with rejection).
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let m = (rng.next_u64() as u128) * (span as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Ranges that [`Rng::gen_range`] accepts. Implemented for `a..b` and
/// `a..=b` over the primitive integers and floats the workspace uses.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u: $t = FromRandom::from_random(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let u: $t = FromRandom::from_random(rng);
                // Lerp over the closed interval; u ∈ [0,1) keeps the result
                // within bounds and the endpoint bias is below one ulp.
                lo + u * (hi - lo)
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// Typed sampling on top of any [`RngCore`] (blanket-implemented).
pub trait Rng: RngCore {
    /// Draws a value of `T` ([`FromRandom`]); floats are uniform `[0, 1)`.
    #[inline]
    fn gen<T: FromRandom>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_random(self)
    }

    /// Uniform draw from `range` (`a..b` or `a..=b`). Panics on an empty
    /// range.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        let u: f64 = FromRandom::from_random(self);
        u < p
    }

    /// One standard Gaussian draw by the ziggurat ([`standard_gaussian`]).
    #[inline]
    fn gen_gaussian(&mut self) -> f64
    where
        Self: Sized,
    {
        standard_gaussian(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The number of layers. An attempt's word gives the layer index its low
/// `log2(ZIG_LAYERS)` bits and `u` its top 52, so the two must not overlap.
const ZIG_LAYERS: usize = 1024;
const _: () = assert!(
    ZIG_LAYERS.is_power_of_two() && ZIG_LAYERS.trailing_zeros() + 52 <= 64,
    "the layer index and the 52 bits of `u` must be disjoint bits of one word"
);
/// The low bits of a word that pick the layer.
const ZIG_MASK: u64 = ZIG_LAYERS as u64 - 1;
/// The base layer's edge `R`, where the tail begins: the root of the
/// recurrence's closure at [`ZIG_LAYERS`] layers, solved to 40 digits.
const ZIG_R: f64 = 4.038_849_846_109_504;
/// The area of each layer (the base strip's includes the tail) under the
/// unnormalised density `exp(−x²/2)`: `R·f(R) + ∫_R^∞ f`.
const ZIG_V: f64 = 0.001_226_324_646_353_088;

/// The ziggurat's layer edges `x` (decreasing, `x[1] = R`,
/// `x[ZIG_LAYERS] = 0`) and the density at them, `f[i] = exp(−x[i]²/2)`:
/// 2 × 1 025 `f64`, 16 KiB. `x[0] = V / f(R)` ≈ 4.2734 is the width a
/// rectangle of the base strip's area would have, so the base layer's fast
/// path is the same compare as every other layer's.
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

/// Built once, from Marsaglia & Tsang's recurrence: layer `i` spans
/// `[f[i], f[i + 1])` in height and `x[i]` in width, all of area `V`.
static ZIG: std::sync::LazyLock<ZigTables> = std::sync::LazyLock::new(|| {
    let density = |x: f64| (-0.5 * x * x).exp();
    let mut x = [0.0; ZIG_LAYERS + 1];
    x[0] = ZIG_V / density(ZIG_R);
    x[1] = ZIG_R;
    for i in 1..ZIG_LAYERS - 1 {
        x[i + 1] = (-2.0 * (ZIG_V / x[i] + density(x[i])).ln()).sqrt();
    }
    // The top layer's edge is the mode, exactly.
    x[ZIG_LAYERS] = 0.0;
    ZigTables {
        x,
        f: x.map(density),
    }
});

/// Where a ziggurat attempt left the fast path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ZigSlow {
    /// Between a layer's inner and outer edge: one more word and an `exp`.
    Wedge,
    /// Beyond `R` in the base strip: Marsaglia's tail, two words and two
    /// `ln` per try.
    Tail,
}

/// One standard-normal draw by the 1 024-layer ziggurat (Marsaglia & Tsang,
/// 2000).
///
/// Each attempt draws one word: its low 10 bits pick the layer and its top
/// 52 bits a uniform `u ∈ [−1, 1)`, disjoint bits, so the layer and the
/// value are independent. `x = u · x[i]` is returned at once when it lies
/// inside the next layer's edge — a multiply and a compare, ≈ 99.57 % of
/// attempts. Otherwise the draw is in a wedge (accepted against `exp`) or,
/// from the base layer, beyond `R` (sampled from the tail with `ln`).
/// `1024·V / √(π/2)` ≈ 1.0019 attempts and ≈ 1.006 words per value.
/// [`GaussianLanes`] runs the same two parts on eight streams at once.
#[inline]
pub fn standard_gaussian<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    ziggurat(rng, |_| {})
}

/// [`standard_gaussian`], reporting each slow-path entry to `slow` (the
/// unit tests count them; the public draw passes a no-op): the fast
/// attempt on one word, and the exact resume when it misses.
#[inline(always)]
fn ziggurat<R: RngCore + ?Sized>(rng: &mut R, slow: impl FnMut(ZigSlow)) -> f64 {
    let t = &*ZIG;
    let bits = rng.next_u64();
    let (x, fast) = zig_attempt(t, bits);
    if fast {
        x
    } else {
        ziggurat_resume(t, rng, bits, slow)
    }
}

/// The layer `i` and the uniform `u ∈ [−1, 1)` of an attempt on `bits`.
#[inline(always)]
fn zig_parts(bits: u64) -> (usize, f64) {
    // [1, 2) from the top 52 bits as a mantissa, then 2·[1, 2) − 3.
    let u = 2.0 * f64::from_bits(0x3FF0_0000_0000_0000 | (bits >> 12)) - 3.0;
    ((bits & ZIG_MASK) as usize, u)
}

/// The fast attempt on one word: `x = u · x[i]`, and whether it lies
/// inside the next layer's edge, where it is the draw.
#[inline(always)]
fn zig_attempt(t: &ZigTables, bits: u64) -> (f64, bool) {
    let (i, u) = zig_parts(bits);
    let x = u * t.x[i];
    (x, x.abs() < t.x[i + 1])
}

/// The rest of a draw whose attempt on `bits` missed the fast path: the
/// wedge test (one more word and an `exp`) or, from the base layer, the
/// tail; after a rejected wedge, whole attempts until one is accepted.
#[cold]
#[inline(never)]
fn ziggurat_resume<R: RngCore + ?Sized>(
    t: &ZigTables,
    rng: &mut R,
    mut bits: u64,
    mut slow: impl FnMut(ZigSlow),
) -> f64 {
    loop {
        let (i, u) = zig_parts(bits);
        let x = u * t.x[i];
        if i == 0 {
            slow(ZigSlow::Tail);
            return gaussian_tail(rng, u < 0.0);
        }
        slow(ZigSlow::Wedge);
        let y: f64 = FromRandom::from_random(rng);
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * y < (-0.5 * x * x).exp() {
            return x;
        }
        bits = rng.next_u64();
        let (x, fast) = zig_attempt(t, bits);
        if fast {
            return x;
        }
    }
}

/// A standard-normal value conditioned on `|g| > R`, with the given sign
/// (Marsaglia, 1964): `x = −ln(U₁)/R`, `y = −ln(U₂)` until `2y > x²`.
#[cold]
fn gaussian_tail<R: RngCore + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // `1 − U` for `U ∈ [0, 1)`: the logs see `(0, 1]`.
        let u1: f64 = FromRandom::from_random(rng);
        let u2: f64 = FromRandom::from_random(rng);
        let x = -(1.0 - u1).ln() / ZIG_R;
        let y = -(1.0 - u2).ln();
        if 2.0 * y > x * x {
            return if negative { -(ZIG_R + x) } else { ZIG_R + x };
        }
    }
}

/// Lanes a [`GaussianLanes`] draws in lockstep.
pub const LANES: usize = 8;

/// Eight [`SmallRng`] streams drawing standard Gaussians in lockstep.
///
/// **Per-lane contract:** lane `l` of `GaussianLanes::new(rngs)` yields,
/// draw after draw, exactly the values `rngs[l].gen_gaussian()` would, bit
/// for bit, and [`GaussianLanes::into_lanes`] returns it in the state that
/// `rngs[l]` would have after those calls. Lanes never read each other's
/// words: a lane whose attempt misses the fast path is finished on its own
/// stream by the scalar ziggurat's resume, while the others wait. With each
/// attempt fast at ≈ 99.57 %, that wait comes on ≈ 3.4 % of eight-lane
/// steps and ≈ 1.7 % of four-lane ones. So a caller that owns eight
/// independent streams may draw them together and see nothing but the
/// speed.
///
/// Draws come out lane-major: [`fill`](GaussianLanes::fill) writes each
/// lane's values into that lane's own slice. It matches on the one ISA
/// switch, [`isa::active_backend`]. At [`isa::Backend::Avx512`] one step of
/// xoshiro256\*\* and one fast attempt run on all eight lanes in one
/// register each, with the layer edges gathered eight at a time and the
/// fast-path compare one mask register, and eight steps are transposed in
/// registers into eight lanes' runs of eight values. At
/// [`isa::Backend::Avx2`] the same step runs as two four-lane halves and
/// four steps are transposed at a time. At [`isa::Backend::Scalar`] the
/// lanes are drawn one after another by the scalar draw itself. Every body
/// shares the scalar draw's attempt arithmetic and its resume, and gives
/// the same bits.
///
/// ```
/// use openea_runtime::rng::{GaussianLanes, Rng, SmallRng, LANES};
///
/// let streams = |l| SmallRng::stream(7, l as u64);
/// let mut lanes = GaussianLanes::new(std::array::from_fn(streams));
/// let mut draws = [[0.0; 3]; LANES];
/// lanes.fill(draws.each_mut().map(|lane| &mut lane[..]));
/// let mut third = streams(3);
/// for draw in &draws[3] {
///     assert_eq!(draw.to_bits(), third.gen_gaussian().to_bits());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct GaussianLanes {
    /// `s[w][l]`: word `w` of lane `l`'s xoshiro256\*\* state.
    s: [[u64; LANES]; 4],
}

impl GaussianLanes {
    /// Draws on the eight streams `lanes`, each from the state it is in.
    pub fn new(lanes: [SmallRng; LANES]) -> Self {
        GaussianLanes {
            s: std::array::from_fn(|w| std::array::from_fn(|l| lanes[l].s[w])),
        }
    }

    /// The eight streams, each in the state its draws left it.
    pub fn into_lanes(self) -> [SmallRng; LANES] {
        std::array::from_fn(|l| take_lane(&self.s, l))
    }

    /// Draws `n` times on every lane, `n` the slices' common length:
    /// `out[l][j]` is lane `l`'s `j`-th Gaussian.
    ///
    /// # Panics
    ///
    /// If the eight slices differ in length.
    pub fn fill(&mut self, out: [&mut [f64]; LANES]) {
        self.fill_reporting(out, |_| {});
    }

    /// [`GaussianLanes::fill`], reporting each slow-path entry to `slow`.
    fn fill_reporting(&mut self, out: [&mut [f64]; LANES], mut slow: impl FnMut(ZigSlow)) {
        let n = out[0].len();
        assert!(
            out.iter().all(|lane| lane.len() == n),
            "GaussianLanes::fill: lanes of unequal length"
        );
        let t = &*ZIG;
        match isa::active_backend() {
            // A lane at a time: the scalar draw on the lane's own stream.
            isa::Backend::Scalar => {
                for (l, lane) in out.into_iter().enumerate() {
                    let mut rng = take_lane(&self.s, l);
                    for x in lane {
                        *x = ziggurat(&mut rng, &mut slow);
                    }
                    put_lane(&mut self.s, l, rng);
                }
            }
            // SAFETY: `Avx2` is only active where the host has it.
            #[cfg(target_arch = "x86_64")]
            isa::Backend::Avx2 => unsafe { fill_avx2(&mut self.s, t, out, &mut slow) },
            // SAFETY: `Avx512` is only active where the host has AVX-512F.
            #[cfg(target_arch = "x86_64")]
            isa::Backend::Avx512 => unsafe { fill_avx512(&mut self.s, t, out, &mut slow) },
            #[cfg(not(target_arch = "x86_64"))]
            isa::Backend::Avx2 | isa::Backend::Avx512 => {
                unreachable!("x86 backends run on x86_64 only")
            }
        }
    }
}

/// Lane `l` of the states `s`, as a [`SmallRng`].
fn take_lane<const N: usize>(s: &[[u64; N]; 4], l: usize) -> SmallRng {
    SmallRng {
        s: std::array::from_fn(|w| s[w][l]),
    }
}

/// Puts `rng` back into `s` as lane `l`.
fn put_lane(s: &mut [[u64; LANES]; 4], l: usize, rng: SmallRng) {
    for (w, word) in rng.s.into_iter().enumerate() {
        s[w][l] = word;
    }
}

/// The lanes outside the mask `fast`, lowest first, each with
/// [`ziggurat_resume`]'s value on its own stream and that stream's state
/// after it. `spilled[w][l]` is word `w` of lane `l`'s state after the step
/// whose attempt on `bits[l]` missed. The vector bodies put what this
/// yields back into their registers lane by lane, so the state they hold
/// is never reloaded whole from narrower stores.
#[cfg(target_arch = "x86_64")]
fn resumed_lanes<'a, const N: usize>(
    spilled: &'a [[u64; N]; 4],
    t: &'a ZigTables,
    bits: &'a [u64; N],
    fast: u32,
    slow: &'a mut impl FnMut(ZigSlow),
) -> impl Iterator<Item = (usize, f64, [u64; 4])> + 'a {
    let mut missed = !fast & ((1 << N) - 1);
    std::iter::from_fn(move || {
        if missed == 0 {
            return None;
        }
        let l = missed.trailing_zeros() as usize;
        missed &= missed - 1;
        let mut rng = take_lane(spilled, l);
        let x = ziggurat_resume(t, &mut rng, bits[l], &mut *slow);
        Some((l, x, rng.s))
    })
}

/// `v[w]`: word `w` of four lanes, in registers.
#[cfg(target_arch = "x86_64")]
type QuadStateAvx2 = [std::arch::x86_64::__m256i; 4];

/// The lane step for AVX2, drawing `out[l].len()` times on every lane: the
/// eight lanes as two quads of four, one after the other. A quad's four
/// states live in four registers for its whole run, beside four steps'
/// values, which are transposed into four values of each lane before they
/// are stored; eight lanes at once would not fit AVX2's sixteen registers.
///
/// The xoshiro256\*\* step is written with `std::arch` too, because the
/// compiler does not vectorise a plain eight-lane loop over it: left to
/// itself it keeps the state in memory and takes the 45-bit rotate one
/// lane at a time (AVX2 has no 64-bit rotate), which drew slower than the
/// scalar loop.
///
/// # Safety
///
/// The host must support AVX2, and the eight slices must be of one length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_avx2(
    s: &mut [[u64; LANES]; 4],
    t: &ZigTables,
    out: [&mut [f64]; LANES],
    slow: &mut impl FnMut(ZigSlow),
) {
    use std::arch::x86_64::*;
    let [a, b, c, d, e, f, g, h] = out;
    for (q, mut quad) in [[a, b, c, d], [e, f, g, h]].into_iter().enumerate() {
        let n = quad[0].len();
        let mut v = [_mm256_setzero_si256(); 4];
        for (vw, sw) in v.iter_mut().zip(s.iter()) {
            // SAFETY: the quad's four `u64`s; `loadu` takes any alignment.
            *vw = unsafe { _mm256_loadu_si256(sw[4 * q..4 * q + 4].as_ptr().cast()) };
        }
        let whole = n - n % 4;
        for j in (0..whole).step_by(4) {
            let rows = [
                step_avx2(&mut v, t, slow),
                step_avx2(&mut v, t, slow),
                step_avx2(&mut v, t, slow),
                step_avx2(&mut v, t, slow),
            ];
            for (lane, col) in quad.iter_mut().zip(transpose4_avx2(rows)) {
                // SAFETY: the slice holds four `f64`s; `storeu` takes any
                // alignment.
                unsafe { _mm256_storeu_pd(lane[j..j + 4].as_mut_ptr(), col) };
            }
        }
        if whole < n {
            let m = n - whole;
            let mut rows = [_mm256_setzero_pd(); 4];
            for row in &mut rows[..m] {
                *row = step_avx2(&mut v, t, slow);
            }
            // All-ones in the first `m` of four 64-bit lanes.
            let keep =
                _mm256_cmpgt_epi64(_mm256_set1_epi64x(m as i64), _mm256_setr_epi64x(0, 1, 2, 3));
            for (lane, col) in quad.iter_mut().zip(transpose4_avx2(rows)) {
                // SAFETY: `keep` selects the first `m` values, which the
                // slice holds; the others are not touched.
                unsafe { _mm256_maskstore_pd(lane[whole..].as_mut_ptr(), keep, col) };
            }
        }
        for (sw, vw) in s.iter_mut().zip(&v) {
            // SAFETY: the quad's four `u64`s; `storeu` takes any alignment.
            unsafe { _mm256_storeu_si256(sw[4 * q..4 * q + 4].as_mut_ptr().cast(), *vw) };
        }
    }
}

/// One AVX2 step of a quad: xoshiro256\*\* on the four states `v` and one
/// attempt per lane on its word, a lane that missed finished by the resume.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn step_avx2(
    v: &mut QuadStateAvx2,
    t: &ZigTables,
    slow: &mut impl FnMut(ZigSlow),
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let [s0, s1, s2, s3] = *v;
    // `rotl(s1 · 5, 7) · 9`, each multiply a shift and an add.
    let five = _mm256_add_epi64(_mm256_slli_epi64::<2>(s1), s1);
    let rot = _mm256_or_si256(_mm256_slli_epi64::<7>(five), _mm256_srli_epi64::<57>(five));
    let bits = _mm256_add_epi64(_mm256_slli_epi64::<3>(rot), rot);
    let s2 = _mm256_xor_si256(s2, s0);
    let s3 = _mm256_xor_si256(s3, s1);
    *v = [
        _mm256_xor_si256(s0, s3),
        _mm256_xor_si256(s1, s2),
        _mm256_xor_si256(s2, _mm256_slli_epi64::<17>(s1)),
        _mm256_or_si256(_mm256_slli_epi64::<45>(s3), _mm256_srli_epi64::<19>(s3)),
    ];
    let (x, fast) = attempt_avx2(t, bits);
    if fast == 0b1111 {
        return x;
    }
    let (state, x) = resume_avx2(*v, t, bits, fast, x, slow);
    *v = state;
    x
}

/// The AVX2 step's cold half: spills the quad's states and words, finishes
/// each missed lane by [`resumed_lanes`], and blends that lane's value and
/// state back into the registers, leaving the other lanes as they were.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[cold]
#[inline(never)]
fn resume_avx2(
    mut v: QuadStateAvx2,
    t: &ZigTables,
    bits: std::arch::x86_64::__m256i,
    fast: u32,
    mut x: std::arch::x86_64::__m256d,
    slow: &mut impl FnMut(ZigSlow),
) -> (QuadStateAvx2, std::arch::x86_64::__m256d) {
    use std::arch::x86_64::*;
    let mut spilled = [[0u64; 4]; 4];
    let mut words = [0u64; 4];
    for (sw, vw) in spilled.iter_mut().zip(&v) {
        // SAFETY: `sw` holds four `u64`s; `storeu` takes any alignment.
        unsafe { _mm256_storeu_si256(sw.as_mut_ptr().cast(), *vw) };
    }
    // SAFETY: `words` holds four `u64`s; `storeu` takes any alignment.
    unsafe { _mm256_storeu_si256(words.as_mut_ptr().cast(), bits) };
    for (l, xl, state) in resumed_lanes(&spilled, t, &words, fast, slow) {
        let lane = _mm256_cmpeq_epi64(_mm256_setr_epi64x(0, 1, 2, 3), _mm256_set1_epi64x(l as i64));
        for (vw, word) in v.iter_mut().zip(state) {
            *vw = _mm256_blendv_epi8(*vw, _mm256_set1_epi64x(word as i64), lane);
        }
        x = _mm256_blendv_pd(x, _mm256_set1_pd(xl), _mm256_castsi256_pd(lane));
    }
    (v, x)
}

/// Four fast attempts on `bits`, returning the four values `u · x[i]` and
/// the mask of lanes that took the fast path: [`zig_attempt`]'s values
/// (`u` exact, then one multiply, no fused multiply-add, so each lane
/// rounds as the scalar draw does), with the layer edges `x[i]` and
/// `x[i + 1]` gathered and the compare one mask.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn attempt_avx2(
    t: &ZigTables,
    bits: std::arch::x86_64::__m256i,
) -> (std::arch::x86_64::__m256d, u32) {
    use std::arch::x86_64::*;
    let i = _mm256_and_si256(bits, _mm256_set1_epi64x(ZIG_MASK as i64));
    // `2·[1, 2)` built as `[2, 4)` directly (the same mantissa, one binade
    // up, so the doubling is exact either way), then `− 3`.
    let two_four = _mm256_or_si256(
        _mm256_srli_epi64::<12>(bits),
        _mm256_set1_epi64x(0x4000_0000_0000_0000),
    );
    let u = _mm256_sub_pd(_mm256_castsi256_pd(two_four), _mm256_set1_pd(3.0));
    // SAFETY: every index is at most `ZIG_MASK` and the table holds
    // `ZIG_MASK + 2` edges, so `x[i]` and `x[i + 1]` are in bounds.
    let (edge, inner) = unsafe {
        (
            _mm256_i64gather_pd::<8>(t.x.as_ptr(), i),
            _mm256_i64gather_pd::<8>(t.x.as_ptr().add(1), i),
        )
    };
    let x = _mm256_mul_pd(u, edge);
    let abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
    let fast = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(abs, inner)) as u32;
    (x, fast)
}

/// `rows[k][r]` → `cols[r][k]` for a 4 × 4 block of `f64`s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn transpose4_avx2(rows: [std::arch::x86_64::__m256d; 4]) -> [std::arch::x86_64::__m256d; 4] {
    use std::arch::x86_64::*;
    let [r0, r1, r2, r3] = rows;
    // Pairs within each 128-bit half: `[r0[0] r1[0] | r0[2] r1[2]]`, ….
    let (t0, t1) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
    let (t2, t3) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
    [
        _mm256_permute2f128_pd::<0x20>(t0, t2),
        _mm256_permute2f128_pd::<0x20>(t1, t3),
        _mm256_permute2f128_pd::<0x31>(t0, t2),
        _mm256_permute2f128_pd::<0x31>(t1, t3),
    ]
}

/// `v[w]`: word `w` of all eight lanes, in one register.
#[cfg(target_arch = "x86_64")]
type LaneStateAvx512 = [std::arch::x86_64::__m512i; 4];

/// The lane step for AVX-512F, drawing `out[l].len()` times on every lane.
/// The eight states live in four registers for the whole loop, the 64-bit
/// rotates are native, and eight steps' values are transposed in registers
/// into eight values of each lane before they are stored.
///
/// # Safety
///
/// The host must support AVX-512F, and the eight slices must be of one
/// length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fill_avx512(
    s: &mut [[u64; LANES]; 4],
    t: &ZigTables,
    mut out: [&mut [f64]; LANES],
    slow: &mut impl FnMut(ZigSlow),
) {
    use std::arch::x86_64::*;
    let n = out[0].len();
    let mut v: LaneStateAvx512 = [_mm512_setzero_si512(); 4];
    for (vw, sw) in v.iter_mut().zip(s.iter()) {
        // SAFETY: `sw` holds eight `u64`s; `loadu` takes any alignment.
        *vw = unsafe { _mm512_loadu_si512(sw.as_ptr().cast()) };
    }
    for j in (0..n).step_by(LANES) {
        let m = (n - j).min(LANES);
        let mut rows = [_mm512_setzero_pd(); LANES];
        for row in &mut rows[..m] {
            *row = step_avx512(&mut v, t, slow);
        }
        let keep: __mmask8 = (0xff_u16 >> (LANES - m)) as u8;
        for (lane, col) in out.iter_mut().zip(transpose8_avx512(rows)) {
            // SAFETY: `keep` selects the first `m` values, which the slice
            // holds; the others are not touched.
            unsafe { _mm512_mask_storeu_pd(lane[j..j + m].as_mut_ptr(), keep, col) };
        }
    }
    for (sw, vw) in s.iter_mut().zip(&v) {
        // SAFETY: `sw` holds eight `u64`s; `storeu` takes any alignment.
        unsafe { _mm512_storeu_si512(sw.as_mut_ptr().cast(), *vw) };
    }
}

/// One AVX-512 step: xoshiro256\*\* on the eight states `v` and one attempt
/// per lane on its word, a lane that missed finished by the resume.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn step_avx512(
    v: &mut LaneStateAvx512,
    t: &ZigTables,
    slow: &mut impl FnMut(ZigSlow),
) -> std::arch::x86_64::__m512d {
    use std::arch::x86_64::*;
    let [s0, s1, s2, s3] = *v;
    // `rotl(s1 · 5, 7) · 9`, each multiply a shift and an add.
    let five = _mm512_add_epi64(_mm512_slli_epi64::<2>(s1), s1);
    let rot = _mm512_rol_epi64::<7>(five);
    let bits = _mm512_add_epi64(_mm512_slli_epi64::<3>(rot), rot);
    // The four xor chains of the state update as three-input xors
    // (`vpternlogq` 0x96).
    const XOR3: i32 = 0x96;
    *v = [
        _mm512_ternarylogic_epi64::<XOR3>(s0, s3, s1),
        _mm512_ternarylogic_epi64::<XOR3>(s1, s2, s0),
        _mm512_ternarylogic_epi64::<XOR3>(s2, s0, _mm512_slli_epi64::<17>(s1)),
        _mm512_rol_epi64::<45>(_mm512_xor_si512(s3, s1)),
    ];
    let (x, fast) = attempt_avx512(t, bits);
    if fast == u8::MAX {
        return x;
    }
    let (state, x) = resume_avx512(*v, t, bits, fast, x, slow);
    *v = state;
    x
}

/// The AVX-512 step's cold half: spills the states and words, finishes each
/// missed lane by [`resumed_lanes`], and puts that lane's value and state
/// back into the registers by masked broadcasts, leaving the other lanes
/// as they were.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[cold]
#[inline(never)]
fn resume_avx512(
    mut v: LaneStateAvx512,
    t: &ZigTables,
    bits: std::arch::x86_64::__m512i,
    fast: u8,
    mut x: std::arch::x86_64::__m512d,
    slow: &mut impl FnMut(ZigSlow),
) -> (LaneStateAvx512, std::arch::x86_64::__m512d) {
    use std::arch::x86_64::*;
    let mut spilled = [[0u64; LANES]; 4];
    let mut words = [0u64; LANES];
    for (sw, vw) in spilled.iter_mut().zip(&v) {
        // SAFETY: `sw` holds eight `u64`s; `storeu` takes any alignment.
        unsafe { _mm512_storeu_si512(sw.as_mut_ptr().cast(), *vw) };
    }
    // SAFETY: `words` holds eight `u64`s; `storeu` takes any alignment.
    unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), bits) };
    for (l, xl, state) in resumed_lanes(&spilled, t, &words, u32::from(fast), slow) {
        let lane: __mmask8 = 1 << l;
        for (vw, word) in v.iter_mut().zip(state) {
            *vw = _mm512_mask_set1_epi64(*vw, lane, word as i64);
        }
        x = _mm512_mask_mov_pd(x, lane, _mm512_set1_pd(xl));
    }
    (v, x)
}

/// Eight fast attempts on `bits`, returning the eight values `u · x[i]` and
/// the mask of lanes that took the fast path: [`attempt_avx2`] at twice the
/// width, with one eight-wide gather per edge table and the compare into a
/// mask register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn attempt_avx512(
    t: &ZigTables,
    bits: std::arch::x86_64::__m512i,
) -> (std::arch::x86_64::__m512d, u8) {
    use std::arch::x86_64::*;
    let i = _mm512_and_si512(bits, _mm512_set1_epi64(ZIG_MASK as i64));
    let two_four = _mm512_or_si512(
        _mm512_srli_epi64::<12>(bits),
        _mm512_set1_epi64(0x4000_0000_0000_0000),
    );
    let u = _mm512_sub_pd(_mm512_castsi512_pd(two_four), _mm512_set1_pd(3.0));
    // SAFETY: every index is at most `ZIG_MASK` and the table holds
    // `ZIG_MASK + 2` edges, so `x[i]` and `x[i + 1]` are in bounds.
    let (edge, inner) = unsafe {
        (
            _mm512_i64gather_pd::<8>(i, t.x.as_ptr()),
            _mm512_i64gather_pd::<8>(i, t.x.as_ptr().add(1)),
        )
    };
    let x = _mm512_mul_pd(u, edge);
    (x, _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(x), inner))
}

/// `rows[k][r]` → `cols[r][k]` for an 8 × 8 block of `f64`s: pairs within
/// each 128-bit block, then two rounds of 128-bit block shuffles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose8_avx512(
    rows: [std::arch::x86_64::__m512d; LANES],
) -> [std::arch::x86_64::__m512d; LANES] {
    use std::arch::x86_64::*;
    let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
    // `lo[p]` pairs rows `2p` and `2p + 1` at the even columns, `hi[p]` at
    // the odd ones: `[r0[0] r1[0] | r0[2] r1[2] | …]`.
    let lo = [
        _mm512_unpacklo_pd(r0, r1),
        _mm512_unpacklo_pd(r2, r3),
        _mm512_unpacklo_pd(r4, r5),
        _mm512_unpacklo_pd(r6, r7),
    ];
    let hi = [
        _mm512_unpackhi_pd(r0, r1),
        _mm512_unpackhi_pd(r2, r3),
        _mm512_unpackhi_pd(r4, r5),
        _mm512_unpackhi_pd(r6, r7),
    ];
    let [c0, c2, c4, c6] = columns_avx512(lo);
    let [c1, c3, c5, c7] = columns_avx512(hi);
    [c0, c1, c2, c3, c4, c5, c6, c7]
}

/// Columns `c`, `c + 2`, `c + 4` and `c + 6` of [`transpose8_avx512`]'s
/// block from its four row pairs at `c`'s parity: each column takes one
/// 128-bit block of every pair.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn columns_avx512(pairs: [std::arch::x86_64::__m512d; 4]) -> [std::arch::x86_64::__m512d; 4] {
    use std::arch::x86_64::*;
    // Blocks 0 and 2 of the first operand, then of the second; blocks 1 and
    // 3 likewise.
    const EVEN: i32 = 0b10_00_10_00;
    const ODD: i32 = 0b11_01_11_01;
    let [p0, p1, p2, p3] = pairs;
    let (a, b) = (
        _mm512_shuffle_f64x2::<EVEN>(p0, p1),
        _mm512_shuffle_f64x2::<ODD>(p0, p1),
    );
    let (c, d) = (
        _mm512_shuffle_f64x2::<EVEN>(p2, p3),
        _mm512_shuffle_f64x2::<ODD>(p2, p3),
    );
    [
        _mm512_shuffle_f64x2::<EVEN>(a, c),
        _mm512_shuffle_f64x2::<EVEN>(b, d),
        _mm512_shuffle_f64x2::<ODD>(a, c),
        _mm512_shuffle_f64x2::<ODD>(b, d),
    ]
}

/// `shuffle`/`choose` on slices (mirror of `rand::seq::SliceRandom`).
pub trait SliceRandom {
    type Item;

    /// Uniform Fisher–Yates shuffle.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

    /// A uniformly random element, or `None` if empty.
    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_below(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[uniform_below(rng, self.len() as u64) as usize])
        }
    }
}

/// A distribution that can be sampled with any generator.
pub trait Distribution<T> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Samples indices `0..weights.len()` proportionally to non-negative
/// weights (inverse-CDF over the cumulative sums).
///
/// A guide table makes each draw O(1) on average and keeps it exact:
/// with `G = guide.len()`, a power of two, `guide[b]` is the first index
/// whose cumulative sum exceeds `(b / G) · total`. A draw `u` falls in
/// bucket `b = ⌊u · G⌋`, so `b / G ≤ u` exactly and, rounding being
/// monotone, `(b / G) · total ≤ u · total`: the search may start at
/// `guide[b]` and scan forward under the same `c <= x` test, and it ends on
/// the index a binary search over the whole list gives, for every `u`.
#[derive(Clone, Debug)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    /// At least four buckets per weight, so a scan passes few sums.
    guide: Vec<u32>,
}

impl WeightedIndex {
    /// Errors on an empty list, a negative/non-finite weight, an all-zero
    /// total, or more weights than a `u32` indexes.
    pub fn new(weights: &[f64]) -> Result<Self, &'static str> {
        if weights.is_empty() {
            return Err("WeightedIndex: no weights");
        }
        if u32::try_from(weights.len()).is_err() {
            return Err("WeightedIndex: too many weights");
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err("WeightedIndex: invalid weight");
            }
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return Err("WeightedIndex: total weight is zero");
        }
        let buckets = (4 * weights.len()).next_power_of_two();
        let mut guide = Vec::with_capacity(buckets);
        let mut i = 0;
        for b in 0..buckets {
            let floor = (b as f64 / buckets as f64) * total;
            while i < cumulative.len() && cumulative[i] <= floor {
                i += 1;
            }
            // Never past the last index, which `sample` returns for every
            // `u · total` at or above the total.
            guide.push(i.min(cumulative.len() - 1) as u32);
        }
        Ok(Self { cumulative, guide })
    }

    /// The index `u ∈ [0, 1)` selects: the first whose cumulative weight
    /// exceeds `u · total`. A zero-weight entry repeats its left
    /// neighbour's sum, so it is never selected.
    #[inline]
    fn index_of(&self, u: f64) -> usize {
        let last = self.cumulative.len() - 1;
        let x = u * self.cumulative[last];
        // Exact: `u` has at most 53 significant bits and the bucket count
        // is a power of two.
        let b = (u * self.guide.len() as f64) as usize;
        let mut i = self.guide[b] as usize;
        while i < last && self.cumulative[i] <= x {
            i += 1;
        }
        i
    }
}

impl Distribution<usize> for WeightedIndex {
    #[inline]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        self.index_of(FromRandom::from_random(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(123);
        let mut b = SmallRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn known_xoshiro_vector() {
        // Seeding with SplitMix64(0) must produce the reference xoshiro256**
        // stream for that state — pins the implementation bit-for-bit.
        let mut sm = 0u64;
        let s0 = splitmix64(&mut sm);
        assert_eq!(s0, 0xE220A8397B1DCDAF, "splitmix64 reference vector");
        let mut rng = SmallRng::seed_from_u64(0);
        let first = rng.next_u64();
        let again = SmallRng::seed_from_u64(0).next_u64();
        assert_eq!(first, again);
    }

    #[test]
    fn streams_from_one_seed_are_reproducible_and_independent() {
        // Reproducible: the same (seed, stream) pair yields the same
        // sequence bit-for-bit.
        let mut a = SmallRng::stream(42, 3);
        let mut b = SmallRng::stream(42, 3);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Independent: adjacent streams (and the reserved u64::MAX shuffle
        // stream) of one seed produce pairwise-distinct sequences, and no
        // stream coincides with the base generator.
        let take = |mut r: SmallRng| (0..16).map(|_| r.next_u64()).collect::<Vec<_>>();
        let streams = [
            take(SmallRng::seed_from_u64(42)),
            take(SmallRng::stream(42, 0)),
            take(SmallRng::stream(42, 1)),
            take(SmallRng::stream(42, 2)),
            take(SmallRng::stream(42, u64::MAX)),
            take(SmallRng::stream(43, 0)),
        ];
        for i in 0..streams.len() {
            for j in i + 1..streams.len() {
                assert_ne!(streams[i], streams[j], "streams {i} and {j} collide");
            }
        }
    }

    #[test]
    fn split_seed_mixes_both_arguments() {
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
        assert_ne!(split_seed(1, 0), split_seed(1, 1));
        // Not the trivial fold: stream 0 must still be whitened away from
        // the base seed itself.
        assert_ne!(split_seed(7, 0), 7);
    }

    #[test]
    fn gen_range_int_bounds_and_coverage() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let x = rng.gen_range(0..6u32);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let x = rng.gen_range(-3..=3i32);
            assert!((-3..=3).contains(&x));
        }
        let mut hit_hi = false;
        for _ in 0..200 {
            if rng.gen_range(0..=1u8) == 1 {
                hit_hi = true;
            }
        }
        assert!(hit_hi, "inclusive upper bound reachable");
    }

    #[test]
    fn gen_range_float_bounds() {
        let mut rng = SmallRng::seed_from_u64(10);
        for _ in 0..1000 {
            let x = rng.gen_range(-0.5f32..0.5);
            assert!((-0.5..0.5).contains(&x));
            let y = rng.gen_range(1e-12f64..1.0);
            assert!((1e-12..1.0).contains(&y));
            let z = rng.gen_range(-2.0f32..=2.0);
            assert!((-2.0..=2.0).contains(&z));
        }
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = SmallRng::seed_from_u64(11);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&heads), "p=0.25 gave {heads}/10000");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SmallRng::seed_from_u64(12);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    /// The stream the ziggurat's distribution and cost are read from.
    fn zig_stream() -> SmallRng {
        SmallRng::stream(0x9A05_5000, 0)
    }

    const ZIG_DRAWS: usize = 1_000_000;

    /// Standard-normal `P(a ≤ g < b)`, by Simpson's rule on 64 panels.
    fn normal_mass(a: f64, b: f64) -> f64 {
        let h = (b - a) / 64.0;
        let pdf = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let inner: f64 = (1..64)
            .map(|j| pdf(a + j as f64 * h) * if j % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        (pdf(a) + inner + pdf(b)) * h / 3.0
    }

    /// 10⁶ ziggurat draws against the standard normal: four moments, the
    /// correlation of consecutive draws, the two-sided tails beyond 3 and
    /// beyond the base strip's width `x[0]` ≈ 4.27 (which only the tail
    /// branch reaches, at `P(|g| > x[0])` ≈ 1.92·10⁻⁵), the tail branch
    /// itself (entered exactly as often as a value lands beyond `R`, at
    /// `P(|g| > R)` ≈ 5.37·10⁻⁵) and χ² over 40 bins of width 0.2 on
    /// `[−4, 4)`. Caught here: values scaled by 1.05 inside the ziggurat
    /// (variance, the tail beyond 3), and a base layer that skips the tail,
    /// by returning `x` (nothing beyond `x[0]`) or by redrawing (no tail
    /// entries). An inverted wedge test moves too little mass to show in 10⁶
    /// draws; the cost pin catches it.
    #[test]
    fn ziggurat_draws_are_standard_normal() {
        let x0 = ZIG.x[0];
        let mut rng = zig_stream();
        let (mut s1, mut s2, mut s3, mut s4, mut lag1) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let mut last = 0.0;
        let (mut beyond3, mut beyond_x0, mut beyond_r, mut tails) =
            (0usize, 0usize, 0usize, 0usize);
        let mut bins = [0usize; 40];
        for _ in 0..ZIG_DRAWS {
            let g = ziggurat(&mut rng, |slow| tails += usize::from(slow == ZigSlow::Tail));
            (s1, s2, s3, s4) = (s1 + g, s2 + g * g, s3 + g * g * g, s4 + g * g * g * g);
            (lag1, last) = (lag1 + last * g, g);
            beyond3 += usize::from(g.abs() > 3.0);
            beyond_x0 += usize::from(g.abs() > x0);
            beyond_r += usize::from(g.abs() > ZIG_R);
            if (-4.0..4.0).contains(&g) {
                bins[((g + 4.0) * 5.0) as usize] += 1;
            }
        }
        let n = ZIG_DRAWS as f64;
        let mean = s1 / n;
        let var = s2 / n - mean * mean;
        let m3 = s3 / n - 3.0 * mean * s2 / n + 2.0 * mean.powi(3);
        let m4 = s4 / n - 4.0 * mean * s3 / n + 6.0 * mean * mean * s2 / n - 3.0 * mean.powi(4);
        let skew = m3 / var.powf(1.5);
        let kurtosis = m4 / (var * var);
        let rho = (lag1 / (n - 1.0) - mean * mean) / var;
        let p3 = beyond3 as f64 / n;
        let chi2: f64 = bins
            .iter()
            .enumerate()
            .map(|(b, &seen)| {
                let lo = -4.0 + 0.2 * b as f64;
                let want = n * normal_mass(lo, lo + 0.2);
                (seen as f64 - want).powi(2) / want
            })
            .sum();
        // Standard errors at 10⁶: mean 0.001, variance 0.0014, skew 0.0025,
        // kurtosis 0.0049, correlation 0.001, P(|g| > 3) 5.2·10⁻⁵, the counts
        // beyond `x[0]` (expected 19.2) and `R` (expected 53.7) 4.4 and 7.3;
        // each count's range is about four of them either side.
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.01, "variance {var}");
        assert!(skew.abs() < 0.015, "skew {skew}");
        assert!((kurtosis - 3.0).abs() < 0.03, "kurtosis {kurtosis}");
        assert!(rho.abs() < 0.005, "correlation of consecutive draws {rho}");
        assert!((0.0024..=0.0030).contains(&p3), "P(|g| > 3) = {p3}");
        assert!(
            (2..=37).contains(&beyond_x0),
            "{beyond_x0} draws beyond x[0] = {x0}"
        );
        assert_eq!(tails, beyond_r, "tail entries against values beyond R");
        assert!((25..=83).contains(&tails), "tail entries {tails}");
        // 39 degrees of freedom: P(χ² > 72) ≈ 0.001.
        assert!(chi2 < 72.0, "χ² = {chi2} over 40 bins");
    }

    /// An `RngCore` that counts the words drawn through it.
    struct Counting<R> {
        inner: R,
        words: u64,
    }

    impl<R: RngCore> RngCore for Counting<R> {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    /// The ziggurat's cost as exact counts on the fixed stream: words per
    /// 10⁶ Gaussians (at most 1.01 each; the polar method drew 1.27), and
    /// wedge and tail entries, the public draw giving the counted draw's
    /// bits. Caught here: a base layer that returns `x` (the word count) or
    /// redraws (the tail count), an inverted wedge test (the word count: the
    /// wedges are entered as often), and `standard_gaussian` scaling the
    /// ziggurat's value by 1.05 (the bits); scaling inside the ziggurat
    /// moves no count.
    #[test]
    fn ziggurat_cost_is_pinned() {
        let mut public = Counting {
            inner: zig_stream(),
            words: 0,
        };
        let mut counted = Counting {
            inner: zig_stream(),
            words: 0,
        };
        let (mut wedges, mut tails) = (0u64, 0u64);
        for _ in 0..ZIG_DRAWS {
            let g = public.gen_gaussian();
            let h = ziggurat(&mut counted, |slow| match slow {
                ZigSlow::Wedge => wedges += 1,
                ZigSlow::Tail => tails += 1,
            });
            assert_eq!(g.to_bits(), h.to_bits());
        }
        assert_eq!(public.words, counted.words);
        assert!(
            public.words as f64 <= 1.01 * ZIG_DRAWS as f64,
            "{} words for {ZIG_DRAWS} Gaussians",
            public.words
        );
        assert_eq!((public.words, wedges, tails), (1_006_285, 4_255, 46));
    }

    /// The tables' bits, so a libm whose `exp` or `ln` rounds differently
    /// fails here by name and not as a moved downstream digest; and the
    /// shape the recurrence must give: edges falling from `x[0] = V / f(R)`
    /// through `x[1] = R` to `x[ZIG_LAYERS] = 0`, `f` their density, and
    /// every layer of area `V`. The loop's last layer is the top one, whose
    /// upper edge is set to the mode by hand; it closes only as well as `R`
    /// and `V` do (≈ 10⁻¹² off here).
    #[test]
    fn ziggurat_tables_are_pinned() {
        let t = &*ZIG;
        assert_eq!(t.x[1], ZIG_R);
        assert_eq!(t.x[ZIG_LAYERS], 0.0);
        assert_eq!(t.f[ZIG_LAYERS], 1.0);
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "edges not decreasing");
        for i in 1..ZIG_LAYERS {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area / ZIG_V - 1.0).abs() < 1e-9, "layer {i}: area {area}");
        }
        let mut h = crate::hash::Fnv1a::new();
        for v in t.x.iter().chain(&t.f) {
            h.update(&v.to_le_bytes());
        }
        assert_eq!(h.finish(), 0x927f_2a41_f02f_0249, "ziggurat tables");
    }

    /// `V(R)`: the base strip's rectangle `R·f(R)` plus the tail
    /// `∫_R^∞ f = f(R)·M(R)`, Mills' ratio `M` from its continued fraction
    /// `1/(R + 1/(R + 2/(R + 3/(R + …))))`, which 200 terms settle to the
    /// last bit for `R ≥ 3`.
    fn zig_area(r: f64) -> f64 {
        let f = (-0.5 * r * r).exp();
        let rest = (1..=200).rev().fold(0.0, |s, k| f64::from(k) / (r + s));
        r * f + f / (r + rest)
    }

    /// Whether `ZIG_LAYERS` layers of area `V(r)`, stacked from `x[1] = r`
    /// by the tables' recurrence, overshoot the mode: a layer below the top
    /// one reaches `f = 1`, or the top one's upper edge `f + V/x` lies above
    /// it. Too small an `r` overshoots, too large a one falls short.
    fn zig_overshoots(r: f64) -> bool {
        let v = zig_area(r);
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = r;
        for _ in 1..ZIG_LAYERS - 1 {
            let h = v / x + density(x);
            if h >= 1.0 {
                return true;
            }
            x = (-2.0 * h.ln()).sqrt();
        }
        v / x + density(x) > 1.0
    }

    /// `ZIG_R` and `ZIG_V` close the ziggurat at `ZIG_LAYERS` layers: `R`
    /// re-derived by bisection on the top layer's closure in `f64`, and `V`
    /// from it, each within 10⁻¹² of the constants. A layer count changed
    /// without new constants, or a constant rounded short, fails here.
    #[test]
    fn ziggurat_constants_close_the_ziggurat() {
        let (mut lo, mut hi) = (3.0, 5.0);
        assert!(zig_overshoots(lo) && !zig_overshoots(hi));
        loop {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if zig_overshoots(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        assert!(
            (ZIG_R / lo - 1.0).abs() < 1e-12,
            "R = {ZIG_R}, the closure's {lo}"
        );
        let v = zig_area(lo);
        assert!(
            (ZIG_V / v - 1.0).abs() < 1e-12,
            "V = {ZIG_V}, the closure's {v}"
        );
    }

    /// Every lane of [`GaussianLanes`] against the scalar draw on its own
    /// stream: 64 seeds × 8 lanes × 2¹⁷ Gaussians, each value's bits and
    /// each lane's final state, on every backend the host supports, forced
    /// through the one ISA switch. Draws go in blocks of uneven lengths, each
    /// lane into its own slice, so a block boundary falls everywhere in the
    /// step and in the vector bodies' transposed runs of four and eight. The
    /// run must cross the resume often enough to test it: at least 100 tail
    /// and 10 000 wedge entries (≈ 3 600 and ≈ 285 000 are expected).
    #[test]
    fn gaussian_lanes_match_scalar_streams() {
        const SEEDS: u64 = 64;
        const DRAWS: usize = 1 << 17;
        let mut block: [Vec<f64>; LANES] = std::array::from_fn(|_| vec![0.0; 4_099]);
        for body in isa::supported_backends() {
            assert_eq!(isa::force_backend(Some(body)), body);
            let (mut wedges, mut tails) = (0u64, 0u64);
            for seed in 0..SEEDS {
                let streams =
                    || std::array::from_fn(|l| SmallRng::stream(0x1A7E5 + seed, l as u64));
                let mut scalar: [SmallRng; LANES] = streams();
                let mut lanes = GaussianLanes::new(streams());
                let mut drawn = 0;
                for len in [1, 7, 4_099].into_iter().cycle() {
                    let len = len.min(DRAWS - drawn);
                    if len == 0 {
                        break;
                    }
                    let out = block.each_mut().map(|lane| &mut lane[..len]);
                    lanes.fill_reporting(out, |slow| match slow {
                        ZigSlow::Wedge => wedges += 1,
                        ZigSlow::Tail => tails += 1,
                    });
                    for (l, (lane, rng)) in block.iter().zip(&mut scalar).enumerate() {
                        for (j, x) in lane[..len].iter().enumerate() {
                            let want = rng.gen_gaussian();
                            assert_eq!(
                                x.to_bits(),
                                want.to_bits(),
                                "{body:?}: seed {seed}, lane {l}, draw {}: {x} against {want}",
                                drawn + j
                            );
                        }
                    }
                    drawn += len;
                }
                for (l, (got, want)) in lanes.into_lanes().iter().zip(&scalar).enumerate() {
                    assert_eq!(
                        got.s, want.s,
                        "{body:?}: seed {seed}, lane {l}: final state"
                    );
                }
            }
            assert!(tails >= 100, "{body:?}: {tails} tail entries");
            assert!(wedges >= 10_000, "{body:?}: {wedges} wedge entries");
        }
        isa::force_backend(None);
    }

    #[test]
    fn shuffle_is_permutation_and_seed_stable() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        let mut v2: Vec<u32> = (0..100).collect();
        v2.shuffle(&mut SmallRng::seed_from_u64(13));
        assert_eq!(v, v2);
    }

    #[test]
    fn choose_covers_all_and_handles_empty() {
        let mut rng = SmallRng::seed_from_u64(14);
        let empty: [u8; 0] = [];
        assert_eq!(empty.choose(&mut rng), None);
        let opts = [1u8, 2, 3];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(*opts.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SmallRng::seed_from_u64(15);
        let w = WeightedIndex::new(&[8.0, 1.0, 0.0, 1.0]).unwrap();
        let mut counts = [0usize; 4];
        for _ in 0..10_000 {
            counts[w.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight index drawn");
        assert!(counts[0] > 6 * counts[1].max(1), "{counts:?}");
        assert!(counts[1] > 0 && counts[3] > 0);
        assert!(WeightedIndex::new(&[]).is_err());
        assert!(WeightedIndex::new(&[0.0, 0.0]).is_err());
        assert!(WeightedIndex::new(&[-1.0]).is_err());
    }

    #[test]
    fn weighted_index_skips_a_zero_weight_on_a_repeated_sum() {
        // u = 0.5 puts x = 1.0 exactly on the sum that index 1 repeats.
        let mut rng = StepRng::new(1 << 63, 0);
        let w = WeightedIndex::new(&[1.0, 0.0, 1.0]).unwrap();
        assert_eq!(w.sample(&mut rng), 2);
    }

    /// Hands out a fixed list of words and counts what was taken.
    struct Words {
        words: Vec<u64>,
        taken: usize,
    }

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.taken += 1;
            self.words[self.taken - 1]
        }
    }

    mod weighted_index_props {
        use super::*;
        use crate::testkit::prelude::*;

        /// Weights of one of six shapes, `len` long (one for `kind` 4), with
        /// zero runs at the start, middle and end as `zeros`' three bits say.
        fn weights(kind: u8, len: usize, zeros: u8, seed: u64) -> Vec<f64> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let len = if kind == 4 { 1 } else { len };
            let mut w: Vec<f64> = (0..len)
                .map(|i| match kind {
                    0 => rng.gen::<f64>(),
                    1 => 1.0,
                    2 => 1.0 / (i + 1) as f64,
                    3 | 4 => 10f64.powf(rng.gen_range(-300.0..300.0)),
                    _ => rng.gen_range(0..4u32) as f64,
                })
                .collect();
            let run = |rng: &mut SmallRng| rng.gen_range(1..=len.div_ceil(3));
            if zeros & 1 != 0 {
                let r = run(&mut rng);
                w[..r].fill(0.0);
            }
            if zeros & 2 != 0 {
                let (r, mid) = (run(&mut rng), len / 3);
                w[mid..(mid + r).min(len)].fill(0.0);
            }
            if zeros & 4 != 0 {
                let r = run(&mut rng);
                w[len - r..].fill(0.0);
            }
            w
        }

        props! {
            #![cases = 128]
            #[test]
            fn guided_draws_equal_the_binary_search(
                kind in 0u8..6,
                len in 1usize..=1000,
                zeros in 0u8..8,
                seed in 0u64..u64::MAX,
            ) {
                let w = weights(kind, len, zeros, seed);
                let mut cumulative = Vec::with_capacity(w.len());
                let mut total = 0.0;
                for &x in &w {
                    total += x;
                    cumulative.push(total);
                }
                let Ok(index) = WeightedIndex::new(&w) else {
                    prop_assert_eq!(total, 0.0);
                    return Ok(());
                };
                let buckets = index.guide.len();
                prop_assert!(buckets.is_power_of_two() && buckets >= 4 * w.len());
                // A word's top 53 bits are `u`'s numerator over 2⁵³.
                let k_of_bucket = |b: usize| (b as u64) << (53 - buckets.trailing_zeros());
                let mut ks = vec![0, (1u64 << 53) - 1];
                for b in 1..buckets {
                    ks.extend([k_of_bucket(b), k_of_bucket(b) - 1]);
                }
                let mut rng = SmallRng::seed_from_u64(seed ^ 1);
                ks.extend((0..256).map(|_| rng.next_u64() >> 11));
                let mut words = Words {
                    words: ks.iter().map(|&k| k << 11).collect(),
                    taken: 0,
                };
                for (n, &k) in ks.iter().enumerate() {
                    let u = k as f64 * (1.0 / (1u64 << 53) as f64);
                    let x = u * total;
                    let want = cumulative.partition_point(|&c| c <= x).min(w.len() - 1);
                    let got = index.sample(&mut words);
                    prop_assert_eq!(words.taken, n + 1, "one word per draw");
                    prop_assert_eq!(got, want, "u = {u:e} over {} weights: {got} ≠ {want}", w.len());
                }
            }
        }
    }

    #[test]
    fn step_rng_counts() {
        let mut r = StepRng::new(1, 1);
        assert_eq!(r.next_u64(), 1);
        assert_eq!(r.next_u64(), 2);
        assert_eq!(r.next_u64(), 3);
    }

    #[test]
    fn rng_works_through_mut_references() {
        fn draw<R: Rng>(rng: &mut R) -> u32 {
            rng.gen_range(0..10u32)
        }
        let mut rng = SmallRng::seed_from_u64(16);
        let via_ref = draw(&mut &mut rng);
        assert!(via_ref < 10);
    }
}
