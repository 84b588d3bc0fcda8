//! Input vectors and bit-packed pattern sets.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::word::SimWord;

/// A single input vector: one boolean per primary input.
///
/// For circuits with at most 64 inputs a pattern has a *decimal
/// representation*, following the paper's Table 1 convention: the first
/// input is the most significant bit.
///
/// # Examples
///
/// ```
/// use adi_sim::Pattern;
///
/// let p = Pattern::from_value(4, 0b1010);
/// assert_eq!(p.get(0), true);  // first input = MSB
/// assert_eq!(p.get(3), false);
/// assert_eq!(p.value(), Some(10));
/// assert_eq!(p.to_string(), "1010");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Pattern {
    bits: Vec<bool>,
}

impl Pattern {
    /// Creates a pattern from explicit bits (index 0 = first input).
    pub fn new(bits: Vec<bool>) -> Self {
        Pattern { bits }
    }

    /// Creates the pattern whose decimal representation is `value`, for a
    /// circuit with `num_inputs` inputs. The first input is the most
    /// significant bit.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 64`.
    pub fn from_value(num_inputs: usize, value: u64) -> Self {
        assert!(num_inputs <= 64, "decimal representation limited to 64 inputs");
        let bits = (0..num_inputs)
            .map(|i| (value >> (num_inputs - 1 - i)) & 1 == 1)
            .collect();
        Pattern { bits }
    }

    /// The decimal representation (first input = MSB), or `None` if the
    /// pattern has more than 64 inputs.
    pub fn value(&self) -> Option<u64> {
        if self.bits.len() > 64 {
            return None;
        }
        let mut v = 0u64;
        for &b in &self.bits {
            v = (v << 1) | u64::from(b);
        }
        Some(v)
    }

    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if the pattern has no inputs.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The value of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Sets the value of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, v: bool) {
        self.bits[i] = v;
    }

    /// The bits as a slice (index 0 = first input).
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bits {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

/// An ordered set of input vectors, bit-packed 64 patterns per word.
///
/// Storage is input-major: for each input there is one machine word per
/// *block* of 64 consecutive patterns; bit `p % 64` of block `p / 64` holds
/// the input's value in pattern `p`. This is the layout consumed directly
/// by the parallel-pattern simulators.
///
/// # Examples
///
/// ```
/// use adi_sim::{Pattern, PatternSet};
///
/// let mut set = PatternSet::new(3);
/// set.push(&Pattern::from_value(3, 0b101));
/// set.push(&Pattern::from_value(3, 0b010));
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.get(1).value(), Some(2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PatternSet {
    num_inputs: usize,
    num_patterns: usize,
    /// `words[input][block]`
    words: Vec<Vec<u64>>,
}

impl PatternSet {
    /// Creates an empty set for circuits with `num_inputs` inputs.
    pub fn new(num_inputs: usize) -> Self {
        PatternSet {
            num_inputs,
            num_patterns: 0,
            words: vec![Vec::new(); num_inputs],
        }
    }

    /// Generates `count` uniformly random patterns from a fixed seed.
    ///
    /// The same `(num_inputs, count, seed)` triple always produces the same
    /// set.
    pub fn random(num_inputs: usize, count: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_blocks = count.div_ceil(64);
        let mut words = vec![vec![0u64; n_blocks]; num_inputs];
        // Generate pattern-major so that extending a set with the same seed
        // keeps the common prefix identical.
        for block in 0..n_blocks {
            for w in words.iter_mut() {
                w[block] = rng.gen::<u64>();
            }
        }
        // Mask tail bits beyond `count` for a canonical representation.
        if !count.is_multiple_of(64) {
            let mask = (1u64 << (count % 64)) - 1;
            for w in words.iter_mut() {
                *w.last_mut().expect("at least one block") &= mask;
            }
        }
        PatternSet {
            num_inputs,
            num_patterns: count,
            words,
        }
    }

    /// Generates all `2^num_inputs` patterns in increasing decimal order.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 20` (more than a million patterns).
    pub fn exhaustive(num_inputs: usize) -> Self {
        assert!(num_inputs <= 20, "exhaustive sets limited to 20 inputs");
        let count = 1usize << num_inputs;
        let mut set = PatternSet::new(num_inputs);
        for v in 0..count {
            set.push(&Pattern::from_value(num_inputs, v as u64));
        }
        set
    }

    /// Builds a set from explicit patterns.
    ///
    /// # Panics
    ///
    /// Panics if any pattern's length differs from `num_inputs`.
    pub fn from_patterns<'a, I>(num_inputs: usize, patterns: I) -> Self
    where
        I: IntoIterator<Item = &'a Pattern>,
    {
        let mut set = PatternSet::new(num_inputs);
        for p in patterns {
            set.push(p);
        }
        set
    }

    /// Appends one pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern length differs from the set's input count.
    pub fn push(&mut self, pattern: &Pattern) {
        assert_eq!(
            pattern.len(),
            self.num_inputs,
            "pattern width {} does not match set width {}",
            pattern.len(),
            self.num_inputs
        );
        let block = self.num_patterns / 64;
        let bit = 1u64 << (self.num_patterns % 64);
        for (i, w) in self.words.iter_mut().enumerate() {
            if w.len() <= block {
                w.push(0);
            }
            if pattern.get(i) {
                w[block] |= bit;
            }
        }
        // Keep shape consistent even for zero-input circuits.
        self.num_patterns += 1;
    }

    /// Appends one pattern decoded directly from an ASCII bit string
    /// (`'0'`/`'1'`, first input first), without materializing an
    /// intermediate [`Pattern`].
    ///
    /// This is the streaming ingest path for servers: request payloads
    /// land straight in the packed `words` representation. The set is
    /// unchanged on error.
    ///
    /// # Errors
    ///
    /// Returns a message if the string's length differs from the set's
    /// input count or it contains a byte other than `'0'`/`'1'`.
    ///
    /// # Examples
    ///
    /// ```
    /// use adi_sim::PatternSet;
    ///
    /// let mut set = PatternSet::new(3);
    /// set.push_bits("101").unwrap();
    /// assert_eq!(set.get(0).value(), Some(5));
    /// assert!(set.push_bits("10x").is_err());
    /// assert_eq!(set.len(), 1);
    /// ```
    pub fn push_bits(&mut self, bits: &str) -> Result<(), String> {
        let bytes = bits.as_bytes();
        if bytes.len() != self.num_inputs {
            return Err(format!(
                "pattern width {} does not match set width {}",
                bytes.len(),
                self.num_inputs
            ));
        }
        // Validate before mutating so a malformed string leaves the set
        // untouched.
        if let Some(bad) = bytes.iter().find(|&&b| b != b'0' && b != b'1') {
            return Err(format!(
                "invalid pattern character '{}' (want '0' or '1')",
                char::from(*bad)
            ));
        }
        let block = self.num_patterns / 64;
        let bit = 1u64 << (self.num_patterns % 64);
        for (w, &byte) in self.words.iter_mut().zip(bytes) {
            if w.len() <= block {
                w.push(0);
            }
            if byte == b'1' {
                w[block] |= bit;
            }
        }
        self.num_patterns += 1;
        Ok(())
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.num_patterns
    }

    /// Returns `true` if the set contains no patterns.
    pub fn is_empty(&self) -> bool {
        self.num_patterns == 0
    }

    /// Number of inputs per pattern.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of 64-pattern blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_patterns.div_ceil(64)
    }

    /// The packed word of `input` for pattern block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `block` is out of range.
    #[inline]
    pub fn input_word(&self, input: usize, block: usize) -> u64 {
        self.words[input][block]
    }

    /// Mask of valid pattern bits within `block` (all ones except possibly
    /// in the final block).
    pub fn valid_mask(&self, block: usize) -> u64 {
        let full_blocks = self.num_patterns / 64;
        if block < full_blocks {
            !0
        } else {
            let rem = self.num_patterns % 64;
            debug_assert!(block == full_blocks && rem != 0, "block out of range");
            (1u64 << rem) - 1
        }
    }

    /// Number of `N`-lane superblocks (`N * 64` patterns each) covering
    /// the set.
    pub fn num_superblocks(&self, lanes: usize) -> usize {
        self.num_patterns.div_ceil(lanes * 64)
    }

    /// The packed [`SimWord`] of `input` for superblock `superblock`
    /// (lane `k` = 64-pattern block `superblock * N + k`). Lanes past
    /// the final block are zero.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    #[inline]
    pub fn input_word_wide<const N: usize>(&self, input: usize, superblock: usize) -> SimWord<N> {
        let blocks = &self.words[input];
        let mut w = SimWord::ZERO;
        for k in 0..N {
            let b = superblock * N + k;
            if b < blocks.len() {
                w.0[k] = blocks[b];
            }
        }
        w
    }

    /// Mask of valid pattern bits within superblock `superblock`: the
    /// wide counterpart of [`valid_mask`](Self::valid_mask), with lanes
    /// past the final block zeroed.
    pub fn valid_mask_wide<const N: usize>(&self, superblock: usize) -> SimWord<N> {
        let n_blocks = self.num_blocks();
        let mut m = SimWord::ZERO;
        for k in 0..N {
            let b = superblock * N + k;
            if b < n_blocks {
                m.0[k] = self.valid_mask(b);
            }
        }
        m
    }

    /// Extracts pattern `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> Pattern {
        assert!(index < self.num_patterns, "pattern index out of range");
        let block = index / 64;
        let bit = index % 64;
        Pattern::new(
            (0..self.num_inputs)
                .map(|i| self.words[i][block] >> bit & 1 == 1)
                .collect(),
        )
    }

    /// Returns a new set containing only the first `count` patterns.
    ///
    /// # Panics
    ///
    /// Panics if `count > len()`.
    pub fn truncated(&self, count: usize) -> PatternSet {
        assert!(count <= self.num_patterns);
        let n_blocks = count.div_ceil(64);
        let mut words: Vec<Vec<u64>> = self
            .words
            .iter()
            .map(|w| w[..n_blocks].to_vec())
            .collect();
        if !count.is_multiple_of(64) {
            let mask = (1u64 << (count % 64)) - 1;
            for w in words.iter_mut() {
                *w.last_mut().expect("nonempty") &= mask;
            }
        }
        PatternSet {
            num_inputs: self.num_inputs,
            num_patterns: count,
            words,
        }
    }

    /// Returns a new set containing the patterns at `indices`, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> PatternSet {
        let mut out = PatternSet::new(self.num_inputs);
        for &i in indices {
            out.push(&self.get(i));
        }
        out
    }

    /// Iterates over all patterns in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Pattern> + '_ {
        (0..self.num_patterns).map(|i| self.get(i))
    }

    /// Serializes the set as text: one pattern per line, `0`/`1` per
    /// input (first input leftmost), with `#` comment support on read.
    ///
    /// This is the usual ATE-exchange text form for scan test sets.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.num_patterns * (self.num_inputs + 1));
        for p in self.iter() {
            out.push_str(&p.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the text form produced by [`to_text`](Self::to_text).
    /// Blank lines and `#` comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line: a character
    /// other than `0`/`1`, or a width differing from `num_inputs`.
    pub fn from_text(num_inputs: usize, text: &str) -> Result<Self, String> {
        let mut set = PatternSet::new(num_inputs);
        for (lineno, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if line.len() != num_inputs {
                return Err(format!(
                    "line {}: expected {} bits, found {}",
                    lineno + 1,
                    num_inputs,
                    line.len()
                ));
            }
            let mut bits = Vec::with_capacity(num_inputs);
            for ch in line.chars() {
                match ch {
                    '0' => bits.push(false),
                    '1' => bits.push(true),
                    other => {
                        return Err(format!(
                            "line {}: invalid character `{other}`",
                            lineno + 1
                        ))
                    }
                }
            }
            set.push(&Pattern::new(bits));
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_value_roundtrip() {
        for v in 0..16u64 {
            let p = Pattern::from_value(4, v);
            assert_eq!(p.value(), Some(v));
        }
    }

    #[test]
    fn pattern_display_msb_first() {
        assert_eq!(Pattern::from_value(4, 0b0110).to_string(), "0110");
        assert_eq!(Pattern::from_value(2, 0b01).to_string(), "01");
    }

    #[test]
    fn set_push_and_get() {
        let mut set = PatternSet::new(5);
        for v in [3u64, 17, 0, 31] {
            set.push(&Pattern::from_value(5, v));
        }
        assert_eq!(set.len(), 4);
        assert_eq!(set.get(0).value(), Some(3));
        assert_eq!(set.get(1).value(), Some(17));
        assert_eq!(set.get(3).value(), Some(31));
    }

    #[test]
    fn exhaustive_enumerates_in_order() {
        let set = PatternSet::exhaustive(3);
        assert_eq!(set.len(), 8);
        for i in 0..8 {
            assert_eq!(set.get(i).value(), Some(i as u64));
        }
    }

    #[test]
    fn random_is_reproducible() {
        let a = PatternSet::random(10, 100, 42);
        let b = PatternSet::random(10, 100, 42);
        assert_eq!(a, b);
        let c = PatternSet::random(10, 100, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn random_prefix_is_stable_across_lengths() {
        let long = PatternSet::random(6, 130, 7);
        let short = PatternSet::random(6, 65, 7);
        for i in 0..65 {
            assert_eq!(long.get(i), short.get(i), "pattern {i}");
        }
    }

    #[test]
    fn valid_mask_covers_tail() {
        let set = PatternSet::random(3, 70, 1);
        assert_eq!(set.num_blocks(), 2);
        assert_eq!(set.valid_mask(0), !0);
        assert_eq!(set.valid_mask(1), (1u64 << 6) - 1);
        let full = PatternSet::random(3, 64, 1);
        assert_eq!(full.valid_mask(0), !0);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let set = PatternSet::random(4, 100, 9);
        let t = set.truncated(37);
        assert_eq!(t.len(), 37);
        for i in 0..37 {
            assert_eq!(t.get(i), set.get(i));
        }
    }

    #[test]
    fn subset_selects_indices() {
        let set = PatternSet::exhaustive(3);
        let sub = set.subset(&[7, 0, 2]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.get(0).value(), Some(7));
        assert_eq!(sub.get(1).value(), Some(0));
        assert_eq!(sub.get(2).value(), Some(2));
    }

    #[test]
    fn input_words_match_bits() {
        let mut set = PatternSet::new(2);
        set.push(&Pattern::new(vec![true, false]));
        set.push(&Pattern::new(vec![true, true]));
        set.push(&Pattern::new(vec![false, true]));
        assert_eq!(set.input_word(0, 0) & 0b111, 0b011);
        assert_eq!(set.input_word(1, 0) & 0b111, 0b110);
    }

    #[test]
    #[should_panic(expected = "does not match set width")]
    fn push_checks_width() {
        let mut set = PatternSet::new(3);
        set.push(&Pattern::from_value(2, 1));
    }

    #[test]
    fn push_bits_matches_push() {
        let reference = PatternSet::random(9, 130, 23);
        let mut streamed = PatternSet::new(9);
        for p in reference.iter() {
            streamed.push_bits(&p.to_string()).unwrap();
        }
        assert_eq!(streamed, reference);
    }

    #[test]
    fn push_bits_rejects_bad_input_without_mutating() {
        let mut set = PatternSet::new(3);
        set.push_bits("101").unwrap();
        assert!(set.push_bits("10").unwrap_err().contains("width 2"));
        assert!(set
            .push_bits("1x0")
            .unwrap_err()
            .contains("invalid pattern character 'x'"));
        let reference = {
            let mut s = PatternSet::new(3);
            s.push(&Pattern::from_value(3, 0b101));
            s
        };
        assert_eq!(set, reference, "failed pushes leave the set untouched");
    }

    #[test]
    fn iter_yields_all() {
        let set = PatternSet::exhaustive(2);
        let values: Vec<u64> = set.iter().map(|p| p.value().unwrap()).collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn wide_accessors_stack_blocks_in_pattern_order() {
        let set = PatternSet::random(4, 300, 17);
        assert_eq!(set.num_blocks(), 5);
        assert_eq!(set.num_superblocks(1), 5);
        assert_eq!(set.num_superblocks(2), 3);
        assert_eq!(set.num_superblocks(4), 2);
        assert_eq!(set.num_superblocks(8), 1);
        for input in 0..4 {
            let w: SimWord<4> = set.input_word_wide(input, 0);
            for k in 0..4 {
                assert_eq!(w.lane(k), set.input_word(input, k), "lane {k}");
            }
            // Second superblock: block 4 then three zero lanes.
            let w: SimWord<4> = set.input_word_wide(input, 1);
            assert_eq!(w.lane(0), set.input_word(input, 4));
            assert_eq!(w.lane(1), 0);
            assert_eq!(w.lane(3), 0);
        }
        let m: SimWord<4> = set.valid_mask_wide(1);
        assert_eq!(m.lane(0), set.valid_mask(4)); // 300 % 64 = 44 bits
        assert_eq!(m.lane(1), 0);
        let m: SimWord<8> = set.valid_mask_wide(0);
        for k in 0..5 {
            assert_eq!(m.lane(k), set.valid_mask(k));
        }
        for k in 5..8 {
            assert_eq!(m.lane(k), 0);
        }
    }

    #[test]
    fn text_roundtrip() {
        let set = PatternSet::random(7, 33, 5);
        let text = set.to_text();
        let back = PatternSet::from_text(7, &text).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn text_parsing_skips_comments_and_blanks() {
        let text = "# test set\n101\n\n 010  # trailing\n";
        let set = PatternSet::from_text(3, text).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(0).value(), Some(5));
        assert_eq!(set.get(1).value(), Some(2));
    }

    #[test]
    fn text_parsing_rejects_bad_lines() {
        assert!(PatternSet::from_text(3, "10")
            .unwrap_err()
            .contains("expected 3 bits"));
        assert!(PatternSet::from_text(2, "1x")
            .unwrap_err()
            .contains("invalid character"));
    }
}
