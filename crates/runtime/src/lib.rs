//! # openea-runtime
//!
//! The std-only substrate beneath every other crate of the workspace. The
//! repository's design contract is "every substrate implemented here"; this
//! crate is where that bottoms out, replacing what used to be crates.io
//! dependencies with nine small, fully deterministic subsystems:
//!
//! - [`rng`] — a seedable pseudo-random generator ([`rng::splitmix64`]
//!   seeding into xoshiro256**) behind `rand`-style traits: [`rng::Rng`],
//!   [`rng::SeedableRng`], [`rng::SliceRandom`], the distribution type
//!   [`rng::WeightedIndex`] and a ziggurat [`rng::standard_gaussian`].
//!   Streams are stable across platforms and releases: the same seed always
//!   yields the same values.
//! - [`hash`] — FNV-1a 64, the one digest of output hashes, snapshot
//!   checksums and string hashes.
//! - [`pool`] — persistent workers, and the calling thread beside them,
//!   with atomic work-stealing chunk dispatch for data-parallel loops over
//!   disjoint output slices. Results are bit-identical for every thread
//!   count because runners only race for *which* chunk to compute, never
//!   for what to write into it.
//! - [`json`] — a minimal JSON encoder/decoder for the benchmark result
//!   artifacts, format-compatible with the pretty printer that produced the
//!   checked-in `results/*.json` files.
//! - [`testkit`] — a property-testing harness with shrinking generators,
//!   replacing `proptest`, plus fault-injection and replay helpers.
//! - [`timer`] — a monotonic microsecond clock and a fixed-footprint
//!   power-of-two latency histogram for the serving layer's percentile
//!   telemetry.
//! - [`os`] — the one sanctioned raw-OS-call site: a safe, level-triggered
//!   epoll [`os::Poller`] plus a self-pipe [`os::Waker`], the readiness
//!   primitive under the event-driven serving core (Linux only).
//! - [`isa`] — the one ISA switch: which body the hand-vectorised loops
//!   (the similarity kernel, [`rng::GaussianLanes`]) run — portable, AVX2
//!   or, for the Gaussian lanes, AVX-512 — detected once and bit-identical
//!   on every rung.
//! - [`cli`] — the binaries' command line: options, flags and positional
//!   words read by name, then one check that refuses whatever nothing read.
//!
//! ```
//! use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
//!
//! let mut a = SmallRng::seed_from_u64(7);
//! let mut b = SmallRng::seed_from_u64(7);
//! assert_eq!(a.gen_range(0..1000u32), b.gen_range(0..1000u32));
//! ```

pub mod cli;
pub mod hash;
pub mod isa;
pub mod json;
pub mod os;
pub mod pool;
pub mod rng;
pub mod testkit;
pub mod timer;
