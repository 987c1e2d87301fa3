//! Fast non-cryptographic hashing used throughout the crate.
//!
//! The paper hashes every signature down to a small integer (Section 4.2,
//! "Practical Issues"): the only operation ever performed on a signature is
//! an equality check, so a 64-bit hash is a faithful stand-in for the full
//! `⟨v[P], P⟩` pair (collisions only add false-positive candidates, which the
//! post-filter removes; they never lose output pairs).
//!
//! Two primitives live here:
//!
//! * [`FxHasher`] — an fx-style multiply-xor streaming hasher, a drop-in
//!   [`std::hash::Hasher`] used for all internal hash maps (our keys are
//!   integers, where SipHash is needlessly slow).
//! * [`mix64`] / [`Mix64`] — a splitmix64-based keyed mixer used wherever the
//!   paper calls for an independent random hash function (PartEnum's random
//!   domain partition, minhash seeds, signature encoding).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the FxHash algorithm (rustc's hasher).
const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An fx-style streaming hasher: fast on short integer keys.
///
/// Not HashDoS-resistant; inputs here are internal ids and already-mixed
/// 64-bit signatures, so that is acceptable (and is what the performance
/// guide recommends for database-style workloads).
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the fast fx hasher.
#[expect(clippy::disallowed_types, reason = "the workspace's one HashMap type")]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with the fast fx hasher.
#[expect(clippy::disallowed_types, reason = "the workspace's one HashSet type")]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// A strong 64-bit finalizer (splitmix64). Bijective on `u64`.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A keyed hash function: an independent random function per `seed`.
///
/// This is how the crate realizes the paper's "hidden parameters ... random
/// bits used for randomization" (Section 3.1): every randomized construction
/// (PartEnum's domain partition, each minhash) owns a `Mix64` derived from the
/// scheme's master seed, so the *same* function is applied to every input set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix64 {
    seed: u64,
}

impl Mix64 {
    /// Creates the keyed hash for `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        // Pre-mix so that consecutive seeds give unrelated functions.
        Self { seed: mix64(seed) }
    }

    /// Hashes a single 64-bit value.
    #[inline]
    pub fn hash_u64(&self, x: u64) -> u64 {
        mix64(x ^ self.seed)
    }

    /// Hashes a single 32-bit value.
    #[inline]
    pub fn hash_u32(&self, x: u32) -> u64 {
        self.hash_u64(x as u64)
    }

    /// Derives an independent sub-function (e.g. one per minhash index).
    #[inline]
    pub fn derive(&self, stream: u64) -> Mix64 {
        Mix64 {
            seed: mix64(self.seed ^ mix64(stream)),
        }
    }
}

/// Incrementally combines 64-bit words into one signature hash.
///
/// Used to encode the paper's structured signatures — e.g. PartEnum's
/// `⟨P1(v), i, S⟩` triple — as a single `u64`.
#[derive(Debug, Clone, Copy)]
pub struct SigBuilder {
    state: u64,
}

impl SigBuilder {
    /// Starts a signature hash from a domain-separation tag.
    #[inline]
    pub fn new(tag: u64) -> Self {
        Self {
            state: mix64(tag ^ 0xa076_1d64_78bd_642f),
        }
    }

    /// Feeds one word.
    #[inline]
    pub fn push(&mut self, word: u64) {
        self.state = mix64(self.state.rotate_left(23) ^ word);
    }

    /// Feeds one 32-bit word.
    #[inline]
    pub fn push_u32(&mut self, word: u32) {
        self.push(word as u64);
    }

    /// Final signature value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashes an arbitrary byte string to a `u64` (used by tokenizers).
#[inline]
pub fn hash_bytes(bytes: &[u8], seed: u64) -> u64 {
    let mut h = FxHasher { state: mix64(seed) };
    h.write(bytes);
    mix64(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        // Low bits of consecutive inputs should differ (avalanche sanity).
        let a = mix64(100) & 0xffff;
        let b = mix64(101) & 0xffff;
        assert_ne!(a, b);
    }

    #[test]
    fn keyed_hashes_differ_across_seeds() {
        let h1 = Mix64::new(1);
        let h2 = Mix64::new(2);
        assert_ne!(h1.hash_u32(42), h2.hash_u32(42));
        assert_eq!(h1.hash_u32(42), Mix64::new(1).hash_u32(42));
    }

    #[test]
    fn derive_gives_independent_streams() {
        let base = Mix64::new(7);
        let a = base.derive(0);
        let b = base.derive(1);
        assert_ne!(a.hash_u32(5), b.hash_u32(5));
        assert_eq!(a.hash_u32(5), base.derive(0).hash_u32(5));
    }

    #[test]
    fn sig_builder_order_sensitive() {
        let mut a = SigBuilder::new(0);
        a.push(1);
        a.push(2);
        let mut b = SigBuilder::new(0);
        b.push(2);
        b.push(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn sig_builder_tag_separates_domains() {
        let mut a = SigBuilder::new(1);
        a.push(99);
        let mut b = SigBuilder::new(2);
        b.push(99);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fx_hasher_handles_unaligned_tails() {
        let mut h1 = FxHasher::default();
        h1.write(b"hello world, this is a test");
        let mut h2 = FxHasher::default();
        h2.write(b"hello world, this is a tesT");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn hash_bytes_seeded() {
        assert_eq!(hash_bytes(b"abc", 0), hash_bytes(b"abc", 0));
        assert_ne!(hash_bytes(b"abc", 0), hash_bytes(b"abc", 1));
        assert_ne!(hash_bytes(b"abc", 0), hash_bytes(b"abd", 0));
    }

    #[test]
    fn fx_map_basic() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(mix64(i), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&mix64(77)], 77);
    }
}
