//! The workspace's one home for non-cryptographic hashing: the FNV-1a
//! 64-bit folder behind every fingerprint and checksum, and the
//! splitmix64 finalizer behind every pure 64-bit mix.
//!
//! Both are part of recorded outputs — `RunStats::fingerprint`, the
//! `ShortcutIndex` on-disk checksum, message digests, fault fates,
//! sampling coins, and every committed bench fingerprint — so their
//! constants and byte order must never change.
//!
//! ```
//! use lcs_congest::hash::{splitmix64, Fnv};
//!
//! // Standard FNV-1a-64 test vector.
//! assert_eq!(Fnv::new().str("a").finish(), 0xaf63_dc4c_8601_ec8c);
//! // Integers fold as their little-endian bytes.
//! assert_eq!(
//!     Fnv::new().u64(7).finish(),
//!     Fnv::new().bytes(&7u64.to_le_bytes()).finish()
//! );
//! assert_ne!(splitmix64(1), splitmix64(2));
//! ```

/// FNV-1a 64-bit folder. Integers fold as their little-endian bytes,
/// so a fingerprint is the same on every host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A folder at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Folds raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a string's UTF-8 bytes.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Folds a `u64` as its 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// The digest of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Folds formatted text, so `write!(fnv, "{x:?}")` hashes a rendering
/// without allocating it.
impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.str(s);
        Ok(())
    }
}

/// The splitmix64 finalizer: a well-mixed pure 64-bit permutation.
/// Always inlined: the fault layer calls it once per delivered message.
#[inline(always)]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    /// The standard FNV-1a-64 known-answer vectors. The `ShortcutIndex`
    /// checksum is an on-disk format, so these must hold forever.
    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::new().str("").finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::new().str("a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::new().str("foobar").finish(), 0x8594_4171_f739_67e8);
        assert_eq!(Fnv::new().bytes(b"foobar").finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn folds_compose_and_write_matches_str() {
        let mut a = Fnv::new();
        a.str("foo").str("bar");
        assert_eq!(a.finish(), 0x8594_4171_f739_67e8);
        let (foo, bar) = ("foo", "bar");
        let mut w = Fnv::default();
        write!(w, "{foo}{bar}").unwrap();
        assert_eq!(w, a);
        assert_eq!(
            Fnv::new().u64(0x0102_0304_0506_0708).finish(),
            Fnv::new().bytes(&[8, 7, 6, 5, 4, 3, 2, 1]).finish()
        );
    }

    /// splitmix64 known answers (the reference generator's first
    /// outputs from state 0 are `splitmix64(k · γ)` for k = 0, 1, …).
    #[test]
    fn splitmix64_known_answers() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6e78_9e6a_a1b9_65f4);
    }
}
