//! FNV-1a 64, the workspace's one content digest: output hashes, snapshot
//! checksums and generations, evolution-trace digests and the string hashes
//! behind the literal encoders and the translator all stream their bytes
//! through [`Fnv1a`]. It is not collision-resistant against an adversary;
//! it fingerprints bit patterns so that equal digests mean equal data for
//! every practical purpose.
//!
//! ```
//! use openea_runtime::hash::{fnv1a, Fnv1a};
//!
//! let mut h = Fnv1a::new();
//! h.update(b"ab");
//! h.update(b"c");
//! assert_eq!(h.finish(), fnv1a(b"abc"));
//! ```

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64: feeding the bytes in pieces gives the digest of
/// their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub const fn new() -> Self {
        Self(OFFSET)
    }

    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64 of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
