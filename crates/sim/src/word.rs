//! The 256-pattern simulation word.
//!
//! Every bit-parallel hot path of the stem-region engine and the drop
//! session runs on [`SimWord`]: four stacked `u64` lanes holding 256
//! patterns. One superblock of four consecutive 64-pattern blocks
//! shares one sensitization sweep and one observability walk, so the
//! per-block bookkeeping (sweeps, cone walks, event-queue plumbing) is
//! paid once per 256 patterns, and the fixed four-element loops compile
//! to straight-line code the optimizer vectorizes.
//!
//! Lane order is **pattern order**: bit `b` of lane `k` holds pattern
//! `k * 64 + b` of the superblock, so [`SimWord::first_set_bit`]
//! returns the *earliest* matching pattern — the invariant that keeps
//! fault dropping on the wide word bit-identical to the per-fault
//! [`reference`](crate::reference), which walks one 64-pattern block at
//! a time.

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// Number of 64-bit lanes in a [`SimWord`].
const LANES: usize = 4;

/// A simulation word of 256 patterns: four stacked `u64` lanes.
///
/// Lane `k` bit `b` holds pattern `k * 64 + b` — ascending lane index
/// is ascending pattern order. All bitwise operators work lane-wise;
/// the element loops are shaped for auto-vectorization.
///
/// # Examples
///
/// ```
/// use adi_sim::SimWord;
///
/// let mut w = SimWord::ZERO;
/// w.set_bit(130); // pattern 130 = lane 2, bit 2
/// assert_eq!(w.lane(2), 0b100);
/// assert_eq!(w.first_set_bit(), 130);
/// assert_eq!((w | SimWord::ONES).count_ones(), 256);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SimWord(pub [u64; LANES]);

impl SimWord {
    /// Number of 64-bit lanes.
    pub const LANES: usize = LANES;
    /// Patterns per word (`LANES * 64`).
    pub const BITS: usize = LANES * 64;
    /// All bits clear.
    pub const ZERO: Self = SimWord([0u64; LANES]);
    /// All bits set.
    pub const ONES: Self = SimWord([!0u64; LANES]);

    /// Broadcasts one 64-bit word to every lane (stuck-at constants are
    /// per-pattern-uniform, so `splat(0)` / `splat(!0)` are the wide
    /// stuck words).
    #[inline]
    pub const fn splat(w: u64) -> Self {
        SimWord([w; LANES])
    }

    /// Returns `true` if no bit is set.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Number of set bits across all lanes.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Index of the lowest set bit in pattern order (`lane * 64 + bit`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the word is zero.
    #[inline]
    pub fn first_set_bit(&self) -> u32 {
        for (k, &w) in self.0.iter().enumerate() {
            if w != 0 {
                return k as u32 * 64 + w.trailing_zeros();
            }
        }
        debug_assert!(false, "first_set_bit on a zero word");
        Self::BITS as u32
    }

    /// The value of pattern bit `idx` (`idx < 256`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn bit(&self, idx: usize) -> bool {
        self.0[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Sets pattern bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn set_bit(&mut self, idx: usize) {
        self.0[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Lane `k` (patterns `k * 64 ..= k * 64 + 63`).
    ///
    /// # Panics
    ///
    /// Panics if `k >= 4`.
    #[inline]
    pub fn lane(&self, k: usize) -> u64 {
        self.0[k]
    }

    /// Mask with the lowest `count` pattern bits set (`count <= 256`).
    ///
    /// # Panics
    ///
    /// Panics if `count > 256`.
    #[inline]
    pub fn low_mask(count: usize) -> Self {
        assert!(count <= Self::BITS, "mask of {count} bits exceeds word width");
        let mut w = [0u64; LANES];
        let full = count / 64;
        for lane in w.iter_mut().take(full) {
            *lane = !0;
        }
        if !count.is_multiple_of(64) {
            w[full] = (1u64 << (count % 64)) - 1;
        }
        SimWord(w)
    }
}

impl Default for SimWord {
    fn default() -> Self {
        Self::ZERO
    }
}

impl BitAnd for SimWord {
    type Output = Self;
    #[inline]
    fn bitand(mut self, rhs: Self) -> Self {
        self &= rhs;
        self
    }
}

impl BitAndAssign for SimWord {
    #[inline]
    fn bitand_assign(&mut self, rhs: Self) {
        for k in 0..LANES {
            self.0[k] &= rhs.0[k];
        }
    }
}

impl BitOr for SimWord {
    type Output = Self;
    #[inline]
    fn bitor(mut self, rhs: Self) -> Self {
        self |= rhs;
        self
    }
}

impl BitOrAssign for SimWord {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        for k in 0..LANES {
            self.0[k] |= rhs.0[k];
        }
    }
}

impl BitXor for SimWord {
    type Output = Self;
    #[inline]
    fn bitxor(mut self, rhs: Self) -> Self {
        self ^= rhs;
        self
    }
}

impl BitXorAssign for SimWord {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Self) {
        for k in 0..LANES {
            self.0[k] ^= rhs.0[k];
        }
    }
}

impl Not for SimWord {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for k in 0..LANES {
            self.0[k] = !self.0[k];
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_major_bit_order() {
        let mut w = SimWord::ZERO;
        w.set_bit(0);
        w.set_bit(63);
        w.set_bit(64);
        w.set_bit(255);
        assert_eq!(w.lane(0), 1 | 1 << 63);
        assert_eq!(w.lane(1), 1);
        assert_eq!(w.lane(3), 1 << 63);
        assert_eq!(w.count_ones(), 4);
        assert!(w.bit(64));
        assert!(!w.bit(65));
    }

    #[test]
    fn first_set_bit_is_earliest_pattern() {
        let mut w = SimWord::ZERO;
        w.set_bit(200);
        w.set_bit(130);
        assert_eq!(w.first_set_bit(), 130);
        let mut one = SimWord::ZERO;
        one.set_bit(0);
        assert_eq!(one.first_set_bit(), 0);
    }

    #[test]
    fn bitwise_ops_are_lane_wise() {
        let a = SimWord([0b1100, 0b1010, 0, !0]);
        let b = SimWord([0b1010, 0b0110, !0, !0]);
        assert_eq!((a & b).0, [0b1000, 0b0010, 0, !0]);
        assert_eq!((a | b).0, [0b1110, 0b1110, !0, !0]);
        assert_eq!((a ^ b).0, [0b0110, 0b1100, !0, 0]);
        assert_eq!(!SimWord::ZERO, SimWord::ONES);
        let mut c = a;
        c &= b;
        c |= b;
        c ^= a;
        assert_eq!(c, (a & b | b) ^ a);
    }

    #[test]
    fn splat_and_masks() {
        assert_eq!(SimWord::splat(!0), SimWord::ONES);
        assert_eq!(SimWord::splat(0), SimWord::ZERO);
        assert_eq!(SimWord::splat(5).0, [5; 4]);
        assert_eq!(SimWord::low_mask(0), SimWord::ZERO);
        assert_eq!(SimWord::low_mask(256), SimWord::ONES);
        assert_eq!(SimWord::low_mask(65).0, [!0, 1, 0, 0]);
        assert_eq!(SimWord::low_mask(3).0, [0b111, 0, 0, 0]);
        assert_eq!(SimWord::low_mask(192).0, [!0, !0, !0, 0]);
    }
}
