//! Property-based testing with shrinking.
//!
//! The in-tree replacement for `proptest`. A property is an
//! ordinary `#[test]` written through the [`props!`](crate::props) macro: each parameter
//! names a [`Gen`] (value generator), the harness runs the body over many
//! generated inputs, and on failure it *shrinks* — greedily walking toward
//! the smallest input that still fails before reporting it.
//!
//! ```
//! use openea_runtime::testkit::prelude::*;
//!
//! props! {
//!     #![cases = 64]
//!     // in a test module this would also carry #[test]
//!     fn reverse_is_involutive(v in vec_of(0u32..100, 0..20)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         prop_assert_eq!(v, w);
//!     }
//! }
//! reverse_is_involutive();
//! ```
//!
//! Runs are deterministic: the case seeds derive from a fixed base (or
//! `OPENEA_PROP_SEED` to reproduce a specific failure; the failure message
//! prints the seed that found it).

pub mod faults;
pub mod replay;

use crate::rng::{Rng, SeedableRng, SmallRng};

/// Why a property case did not pass.
#[derive(Clone, Debug)]
pub enum PropFail {
    /// An assertion failed; carries the rendered message.
    Fail(String),
    /// `prop_assume!` rejected the input; the case is discarded, not failed.
    Reject,
}

/// What property bodies return (via the `prop_assert*` macros).
pub type PropResult = Result<(), PropFail>;

/// A generator of test values with shrinking.
///
/// `shrink` proposes a few *strictly simpler* variants of a failing value
/// (closer to the range origin, shorter, fewer elements). The harness
/// re-runs the property on them and descends greedily; generators must make
/// progress (candidates converge toward a fixed point) but need not be
/// exhaustive.
pub trait Gen {
    type Value: Clone + std::fmt::Debug;

    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

// ---------------------------------------------------------------- numbers

macro_rules! impl_gen_int_range {
    ($($t:ty),*) => {$(
        impl Gen for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(self.start, *value)
            }
        }

        impl Gen for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(*self.start(), *value)
            }
        }
    )*};
}

fn shrink_int<T>(origin: T, value: T) -> Vec<T>
where
    T: Copy
        + PartialEq
        + PartialOrd
        + std::ops::Add<Output = T>
        + std::ops::Sub<Output = T>
        + HalfStep,
{
    if value == origin {
        return Vec::new();
    }
    let mid = origin + (value - origin).half();
    let step = value.pred();
    let mut out = vec![origin];
    if mid != origin && mid != value {
        out.push(mid);
    }
    if step != value && step >= origin && step != mid {
        out.push(step);
    }
    out
}

/// Tiny numeric helper so `shrink_int` can halve distances and step toward
/// the origin for every primitive under a single implementation.
pub trait HalfStep {
    fn half(self) -> Self;
    /// `self - 1` (callers guarantee the value is above the range origin,
    /// which for unsigned types means it is nonzero).
    fn pred(self) -> Self;
}

macro_rules! impl_halfstep {
    ($($t:ty),*) => {$(
        impl HalfStep for $t {
            fn half(self) -> Self { self / 2 }
            fn pred(self) -> Self { self - 1 }
        }
    )*};
}

impl_halfstep!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
impl_gen_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_gen_float_range {
    ($($t:ty),*) => {$(
        impl Gen for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_float(self.start, *value)
            }
        }

        impl Gen for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_float(*self.start(), *value)
            }
        }
    )*};
}

macro_rules! impl_shrink_float {
    ($name:ident, $t:ty) => {
        fn $name(origin: $t, value: $t) -> Vec<$t> {
            if value == origin || !value.is_finite() {
                return Vec::new();
            }
            let mid = origin + (value - origin) / 2.0;
            let mut out = vec![origin];
            if mid != origin && mid != value {
                out.push(mid);
            }
            out
        }
    };
}

impl_shrink_float!(shrink_float_f32, f32);
impl_shrink_float!(shrink_float_f64, f64);

fn shrink_float<T: ShrinkFloat>(origin: T, value: T) -> Vec<T> {
    T::shrink_float(origin, value)
}

pub trait ShrinkFloat: Sized {
    fn shrink_float(origin: Self, value: Self) -> Vec<Self>;
}

impl ShrinkFloat for f32 {
    fn shrink_float(origin: Self, value: Self) -> Vec<Self> {
        shrink_float_f32(origin, value)
    }
}

impl ShrinkFloat for f64 {
    fn shrink_float(origin: Self, value: Self) -> Vec<Self> {
        shrink_float_f64(origin, value)
    }
}

impl_gen_float_range!(f32, f64);

// ------------------------------------------------------------------ bool

/// Either boolean, shrinking `true → false`.
#[derive(Clone, Copy, Debug)]
pub struct BoolGen;

/// Generator for an arbitrary `bool`.
pub fn any_bool() -> BoolGen {
    BoolGen
}

impl Gen for BoolGen {
    type Value = bool;

    fn generate(&self, rng: &mut SmallRng) -> bool {
        rng.gen()
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

// ----------------------------------------------------------- collections

/// Length specifications accepted by [`vec_of`] and [`string_of`]: a fixed
/// `usize`, `lo..hi`, or `lo..=hi`.
pub trait LenRange {
    /// Inclusive `(min, max)` bounds.
    fn bounds(&self) -> (usize, usize);
}

impl LenRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl LenRange for core::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty length range");
        (self.start, self.end - 1)
    }
}

impl LenRange for core::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start() <= self.end(), "empty length range");
        (*self.start(), *self.end())
    }
}

/// `Vec<T>` generator; see [`vec_of`].
#[derive(Clone, Debug)]
pub struct VecGen<G> {
    elem: G,
    min: usize,
    max: usize,
}

/// A vector whose length is drawn from `len` and whose elements come from
/// `elem`. Shrinks by dropping elements (toward `min` length), then by
/// shrinking individual elements.
pub fn vec_of<G: Gen>(elem: G, len: impl LenRange) -> VecGen<G> {
    let (min, max) = len.bounds();
    VecGen { elem, min, max }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut SmallRng) -> Vec<G::Value> {
        let n = rng.gen_range(self.min..=self.max);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let n = value.len();
        // Structural shrinks first: halve toward the minimum length, then
        // drop single elements.
        if n > self.min {
            let half = (n / 2).max(self.min);
            if half < n {
                out.push(value[..half].to_vec());
            }
            for i in (0..n).take(8) {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // Element shrinks: first few positions only, to bound the fanout.
        for i in (0..n).take(8) {
            for cand in self.elem.shrink(&value[i]).into_iter().take(3) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

/// `String` generator; see [`string_of`].
#[derive(Clone, Debug)]
pub struct StringGen {
    charset: Vec<char>,
    min: usize,
    max: usize,
}

/// A string of characters drawn uniformly from `charset`, with length in
/// `len` — the port target for `proptest` regex strategies like
/// `"[a-z]{1,8}"` (→ `string_of("abcdefghijklmnopqrstuvwxyz", 1..=8)`).
pub fn string_of(charset: &str, len: impl LenRange) -> StringGen {
    let (min, max) = len.bounds();
    let charset: Vec<char> = charset.chars().collect();
    assert!(!charset.is_empty(), "empty charset");
    StringGen { charset, min, max }
}

impl Gen for StringGen {
    type Value = String;

    fn generate(&self, rng: &mut SmallRng) -> String {
        let n = rng.gen_range(self.min..=self.max);
        (0..n)
            .map(|_| self.charset[rng.gen_range(0..self.charset.len())])
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let chars: Vec<char> = value.chars().collect();
        let n = chars.len();
        let mut out = Vec::new();
        if n > self.min {
            let half = (n / 2).max(self.min);
            out.push(chars[..half].iter().collect());
            let mut v = chars.clone();
            v.pop();
            out.push(v.iter().collect());
        }
        // Step characters toward the first charset element.
        if let Some(&first) = self.charset.first() {
            for i in 0..n.min(4) {
                if chars[i] != first {
                    let mut v = chars.clone();
                    v[i] = first;
                    out.push(v.iter().collect());
                }
            }
        }
        out
    }
}

// ----------------------------------------------------------------- tuples

macro_rules! impl_gen_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Gen),+> Gen for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx).into_iter().take(4) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}

impl_gen_tuple!(A: 0);
impl_gen_tuple!(A: 0, B: 1);
impl_gen_tuple!(A: 0, B: 1, C: 2);
impl_gen_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_gen_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_gen_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

// ----------------------------------------------------------------- runner

/// Default number of cases when `props!` has no `#![cases = N]` header.
pub const DEFAULT_CASES: u32 = 256;

fn base_seed() -> u64 {
    match std::env::var("OPENEA_PROP_SEED") {
        Ok(s) => s.parse().unwrap_or(0xEA_5EED),
        Err(_) => 0xEA_5EED,
    }
}

/// Drives one property: generates `cases` inputs, runs `prop` on each, and
/// on failure shrinks greedily before panicking with the minimal
/// counterexample and the seed that reproduces it.
///
/// `prop_assume!` rejections are discarded (with an overall cap so a
/// property that rejects everything still terminates).
pub fn run_property<G: Gen>(
    name: &str,
    cases: u32,
    gen: &G,
    prop: impl Fn(&G::Value) -> PropResult,
) {
    let seed = base_seed();
    let mut accepted = 0u32;
    let mut attempts = 0u32;
    let max_attempts = cases.saturating_mul(10).max(100);
    while accepted < cases {
        attempts += 1;
        if attempts > max_attempts {
            panic!("property {name}: too many prop_assume! rejections ({attempts} attempts)");
        }
        let case_seed = seed ^ (attempts as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let value = gen.generate(&mut rng);
        match prop(&value) {
            Ok(()) => accepted += 1,
            Err(PropFail::Reject) => {}
            Err(PropFail::Fail(msg)) => {
                let (min_value, min_msg, steps) = shrink_failure(gen, value, msg, &prop);
                panic!(
                    "property {name} failed after {accepted} passing case(s)\n\
                     minimal input (after {steps} shrink step(s)): {min_value:?}\n\
                     assertion: {min_msg}\n\
                     reproduce with OPENEA_PROP_SEED={seed}"
                );
            }
        }
    }
}

fn shrink_failure<G: Gen>(
    gen: &G,
    mut value: G::Value,
    mut msg: String,
    prop: &impl Fn(&G::Value) -> PropResult,
) -> (G::Value, String, usize) {
    let mut steps = 0usize;
    'outer: while steps < 200 {
        for cand in gen.shrink(&value) {
            if let Err(PropFail::Fail(m)) = prop(&cand) {
                value = cand;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, msg, steps)
}

/// Everything a property-test module needs: the [`props!`](crate::props) /
/// `prop_assert*` macros, the generator constructors and the [`Gen`] trait.
pub mod prelude {
    pub use super::{any_bool, string_of, vec_of, Gen, PropFail, PropResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, props};
}

/// Declares property tests. Each `fn` becomes a `#[test]`; parameters are
/// `name in generator` pairs. An optional `#![cases = N]` header sets the
/// case count for every property in the block (default
/// [`DEFAULT_CASES`]).
#[macro_export]
macro_rules! props {
    (
        @cases ($cases:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:pat in $gen:expr),+ $(,)? ) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cases: u32 = $cases;
                let __gen = ($($gen,)+);
                $crate::testkit::run_property(
                    stringify!($name),
                    __cases,
                    &__gen,
                    |__value| -> $crate::testkit::PropResult {
                        let ($($arg,)+) = ::core::clone::Clone::clone(__value);
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )+
    };
    // A failed `@cases` match must not fall through to the catch-all entry
    // rule below (it would re-wrap and recurse forever).
    ( @cases $($rest:tt)* ) => {
        compile_error!(
            "props!: expected `fn name(arg in gen, ...) { ... }` items (each arg is a pattern bound from a Gen expression)"
        );
    };
    ( #![cases = $cases:expr] $($rest:tt)+ ) => {
        $crate::props!(@cases ($cases) $($rest)+);
    };
    ( $($rest:tt)+ ) => {
        $crate::props!(@cases ($crate::testkit::DEFAULT_CASES) $($rest)+);
    };
}

/// Asserts inside a property body; on failure the case shrinks instead of
/// aborting the whole test run.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::testkit::PropFail::Fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l == *__r, $($fmt)+);
    }};
}

/// `assert_ne!` for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left), stringify!($right), __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l != *__r, $($fmt)+);
    }};
}

/// Discards the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::testkit::PropFail::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn generators_respect_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let x = (3u32..17).generate(&mut rng);
            assert!((3..17).contains(&x));
            let v = vec_of(0u8..5, 2..6).generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&b| b < 5));
            let s = string_of("ab", 1..=3).generate(&mut rng);
            assert!((1..=3).contains(&s.len()));
            assert!(s.chars().all(|c| c == 'a' || c == 'b'));
            let (a, b) = (0u32..4, -1.0f32..1.0).generate(&mut rng);
            assert!(a < 4 && (-1.0..1.0).contains(&b));
        }
    }

    #[test]
    fn shrinking_finds_small_counterexample() {
        // Force a failure and check the shrinker lands at (or next to) the
        // boundary: the property "x < 50" has minimal counterexample 50.
        let gen = 0u32..1000;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut value = gen.generate(&mut rng);
        while value < 50 {
            value = gen.generate(&mut rng);
        }
        let prop = |v: &u32| -> PropResult {
            prop_assert!(*v < 50);
            Ok(())
        };
        let (min, _, _) = shrink_failure(&gen, value, "seed failure".into(), &prop);
        assert_eq!(min, 50);
    }

    #[test]
    fn vec_shrinking_reduces_length() {
        let gen = vec_of(0u32..100, 0..50);
        let value: Vec<u32> = (0..40).collect();
        // Fails whenever the vec has ≥ 3 elements.
        let prop = |v: &Vec<u32>| -> PropResult {
            prop_assert!(v.len() < 3);
            Ok(())
        };
        let (min, _, _) = shrink_failure(&gen, value, "seed".into(), &prop);
        assert_eq!(min.len(), 3);
    }

    props! {
        #![cases = 64]

        #[test]
        fn harness_runs_green_properties(
            v in vec_of(0u32..1000, 0..30),
            flag in any_bool(),
        ) {
            let doubled: Vec<u64> = v.iter().map(|&x| x as u64 * 2).collect();
            prop_assert_eq!(doubled.len(), v.len());
            for (&d, &x) in doubled.iter().zip(&v) {
                prop_assert_eq!(d, x as u64 * 2);
            }
            if flag {
                prop_assert!(true);
            }
        }

        #[test]
        fn assume_discards_but_terminates(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "property failing_property failed")]
    fn failing_property_panics_with_shrunk_input() {
        run_property("failing_property", 64, &(0u32..1000), |&v| {
            prop_assert!(v < 10, "v too big: {v}");
            Ok(())
        });
    }

    #[test]
    fn runs_are_deterministic() {
        // Same harness, same seed: record the generated values twice.
        let collect = || {
            let out = std::cell::RefCell::new(Vec::new());
            run_property("det", 16, &(0u32..1_000_000), |&v| {
                out.borrow_mut().push(v);
                Ok(())
            });
            out.into_inner()
        };
        assert_eq!(collect(), collect());
    }
}
