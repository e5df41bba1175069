//! The one ISA switch: which body every hand-vectorised loop of the
//! workspace runs on this host.
//!
//! Two loops carry a body written with `std::arch`: the similarity kernel
//! (`openea_math::kernel::score_tile`) and the eight-lane Gaussian draw
//! ([`crate::rng::GaussianLanes`]). Each also has a portable body, and each
//! vector body gives the portable one's bits exactly, so the choice between
//! them moves speed and nothing else. Both match on [`active_backend`].
//!
//! The backend is detected once — AVX2 where `x86_64` hosts have it, else
//! scalar — and cached in an atomic. [`force_backend`] re-points it at run
//! time, clamped to what the host supports: that is how the conformance
//! suites run every body this host has in one process. Because every
//! backend gives the same bits, a reader racing a `force_backend` call
//! still computes the same numbers.

use std::sync::atomic::{AtomicU8, Ordering};

/// A vector instruction set, ordered weakest → strongest so that "clamp to
/// the best supported" is a plain `min`. The discriminants are what the
/// benchmark reports as `mathkit.kernel_backend`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Backend {
    /// The portable bodies — the reference every vector body must match
    /// bit for bit, and the only backend without AVX2.
    Scalar = 1,
    /// 256-bit AVX2 lanes (runtime-detected on `x86_64`).
    Avx2 = 3,
}

impl Backend {
    /// Every backend, weakest first.
    pub const ALL: [Backend; 2] = [Backend::Scalar, Backend::Avx2];

    /// Stable label for test and benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// Cached decision; 0 = not yet detected.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The strongest backend this host can execute.
pub fn best_supported() -> Backend {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    Backend::Scalar
}

/// Backends this host can execute (always includes `Scalar`).
pub fn supported_backends() -> Vec<Backend> {
    let best = best_supported();
    Backend::ALL.into_iter().filter(|&b| b <= best).collect()
}

/// The backend every vector loop currently runs: detected on first use and
/// cached.
#[inline]
pub fn active_backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        3 => Backend::Avx2,
        _ => force_backend(None),
    }
}

/// Re-points the switch: `Some(b)` selects `b` clamped to the host's
/// capabilities (forcing `Avx2` on a host without it runs the scalar
/// bodies instead of faulting), `None` restores detection. Returns the
/// backend that took effect.
pub fn force_backend(b: Option<Backend>) -> Backend {
    let best = best_supported();
    let eff = b.map_or(best, |b| b.min(best));
    ACTIVE.store(eff as u8, Ordering::Relaxed);
    eff
}
