//! FNV-1a, the one hash behind every fingerprint, digest and shape key in
//! the toolchain.

/// Incremental 64-bit FNV-1a. Words fold in as their eight little-endian
/// bytes, floats by bit pattern, and strings length-first so that
/// adjacent strings cannot collide by sliding bytes across their boundary.
/// The value is a pure function of the bytes folded in, so it is stable
/// across platforms and runs.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;

    /// The empty hash (the FNV offset basis).
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Fold in one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
    }

    /// Fold in a word as its little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Fold in a float by its exact bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold in a string, its length first.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.byte(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut word = Fnv::new();
        word.u64(0x0102);
        let mut bytes = Fnv::new();
        for b in [2, 1, 0, 0, 0, 0, 0, 0] {
            bytes.byte(b);
        }
        assert_eq!(word.finish(), bytes.finish());
        let (mut ab, mut a_b) = (Fnv::new(), Fnv::new());
        ab.str("ab");
        a_b.str("a");
        a_b.str("b");
        assert_ne!(ab.finish(), a_b.finish());
    }
}
