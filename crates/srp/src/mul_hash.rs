//! A deterministic multiplicative hasher for small integer keys.
//!
//! The planner's boundary-crossing set is keyed by `(Cell, Cell, Time)`
//! and asked on every priced strip edge. Its keys come from the planner
//! itself, not from clients, so SipHash's flooding resistance buys
//! nothing there; one rotate, xor and multiply per field does the job.
//! The multiplier is the odd 64-bit constant of the Fx hash. `Cell` hashes
//! as two `u16`s and `Time` as a `u32`; other writes go byte by byte.

use std::hash::Hasher;

/// Odd multiplier spreading each field over the high bits.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiplicative hasher (see module docs).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
}
