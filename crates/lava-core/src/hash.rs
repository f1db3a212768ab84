//! The workspace's one 64-bit mixer.
//!
//! Routing, brownout fallback, decision digests and the lifetime model's
//! per-spec tables all need the same thing: a cheap, full-avalanche,
//! *stable* mix of a `u64` (the standard library's SipHash is keyed per
//! process, so nothing derived from it can appear in a digest or decide
//! a route). They share this one.

use std::hash::{BuildHasherDefault, Hasher};

/// The splitmix64 finalizer: every input bit affects every output bit,
/// in about four arithmetic operations. The constants are part of the
/// repository's determinism contract — fleet routing and the decision
/// digests are defined in terms of this exact function.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`Hasher`] for small structured keys built by this program: each
/// word written is folded in with one multiply and the total goes
/// through [`mix64`] once at the end. Not keyed, so it gives no
/// protection against crafted collisions — use it only for maps whose
/// size is bounded by the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mix64Hasher(u64);

impl Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// `BuildHasher` for `HashMap<_, _, Mix64BuildHasher>`.
pub type Mix64BuildHasher = BuildHasherDefault<Mix64Hasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        // First outputs of the reference splitmix64 generator seeded with
        // 0: state advances by the golden-ratio increment, which `mix64`
        // adds itself.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn hasher_separates_field_order_and_width_paths_agree() {
        let hash = |value: &dyn Fn(&mut Mix64Hasher)| {
            let mut h = Mix64BuildHasher::default().build_hasher();
            value(&mut h);
            h.finish()
        };
        assert_ne!(
            hash(&|h| (1u32, 2u32).hash(h)),
            hash(&|h| (2u32, 1u32).hash(h))
        );
        // The byte-slice path folds the same words as the typed path.
        assert_eq!(
            hash(&|h| h.write(&7u64.to_le_bytes())),
            hash(&|h| h.write_u64(7))
        );
    }
}
