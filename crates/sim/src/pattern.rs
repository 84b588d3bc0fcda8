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

    /// Builds a set from ASCII bit strings (`'0'`/`'1'`, first input
    /// first), one per vector, without materializing any [`Pattern`].
    ///
    /// This is the ingest path for servers: request payloads land
    /// straight in the packed `words` representation, a block of 64
    /// vectors at a time. Each string is read and validated 8 bytes (8
    /// inputs) at a time. The low bit of each byte is the input's value,
    /// so shifting vector `r`'s load by `r % 8` and OR-ing eight vectors
    /// builds an 8×8 bit matrix already stored input-major: byte `k`
    /// holds input `k` over those eight vectors. One 8×8 byte transpose
    /// across the block's eight vector groups then yields the 64-bit word
    /// of each input.
    ///
    /// # Errors
    ///
    /// Returns the index of the first malformed vector with a message: a
    /// length other than `num_inputs` (checked first for each vector) or
    /// a byte other than `'0'`/`'1'` (the first such byte is named).
    ///
    /// # Examples
    ///
    /// ```
    /// use adi_sim::PatternSet;
    ///
    /// let set = PatternSet::from_bit_strs(3, &["101", "010"]).unwrap();
    /// assert_eq!(set.get(0).value(), Some(5));
    /// assert_eq!(set.get(1).value(), Some(2));
    /// let (index, message) = PatternSet::from_bit_strs(3, &["101", "10x"]).unwrap_err();
    /// assert_eq!(index, 1);
    /// assert_eq!(message, "invalid pattern character 'x' (want '0' or '1')");
    /// ```
    pub fn from_bit_strs(num_inputs: usize, vectors: &[&str]) -> Result<Self, (usize, String)> {
        // Widths first: the block transposes read `num_inputs` bytes of
        // every string before the first one of another length.
        let sized = vectors
            .iter()
            .position(|v| v.len() != num_inputs)
            .unwrap_or(vectors.len());
        let mut words = vec![vec![0u64; vectors.len().div_ceil(64)]; num_inputs];
        let mut groups = vec![[0u64; 8]; num_inputs.div_ceil(8)];
        for (block, chunk) in vectors[..sized].chunks(64).enumerate() {
            if !transpose_block(chunk, block, &mut groups, &mut words) {
                let (index, byte) = chunk
                    .iter()
                    .enumerate()
                    .find_map(|(i, v)| {
                        v.bytes().find(|&b| b != b'0' && b != b'1').map(|b| (i, b))
                    })
                    .expect("a block that fails validation holds a bad byte");
                return Err((
                    block * 64 + index,
                    format!(
                        "invalid pattern character '{}' (want '0' or '1')",
                        char::from(byte)
                    ),
                ));
            }
        }
        if let Some(v) = vectors.get(sized) {
            return Err((
                sized,
                format!("pattern width {} does not match set width {num_inputs}", v.len()),
            ));
        }
        Ok(PatternSet {
            num_inputs,
            num_patterns: vectors.len(),
            words,
        })
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

    /// Number of 256-pattern superblocks (one [`SimWord`] each)
    /// covering the set.
    pub fn num_superblocks(&self) -> usize {
        self.num_patterns.div_ceil(SimWord::BITS)
    }

    /// The packed [`SimWord`] of `input` for superblock `superblock`
    /// (lane `k` = 64-pattern block `superblock * 4 + k`). Lanes past
    /// the final block are zero.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    #[inline]
    pub fn input_word_wide(&self, input: usize, superblock: usize) -> SimWord {
        let blocks = &self.words[input];
        let mut w = SimWord::ZERO;
        for k in 0..SimWord::LANES {
            let b = superblock * SimWord::LANES + k;
            if b < blocks.len() {
                w.0[k] = blocks[b];
            }
        }
        w
    }

    /// Mask of valid pattern bits within superblock `superblock`: the
    /// wide counterpart of [`valid_mask`](Self::valid_mask), with lanes
    /// past the final block zeroed.
    pub fn valid_mask_wide(&self, superblock: usize) -> SimWord {
        let n_blocks = self.num_blocks();
        let mut m = SimWord::ZERO;
        for k in 0..SimWord::LANES {
            let b = superblock * SimWord::LANES + k;
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
}

/// `'0'` in every byte.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;
/// The low bit of every byte: where `'0'`/`'1'` differ.
const BYTE_LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Transposes `chunk`, up to 64 bit strings of length `words.len()`,
/// into block `block` of `words[input]`. `groups` holds one 8×8 matrix
/// per run of 8 inputs; it is all zero on entry and on return. Returns
/// `false` if some byte is neither `'0'` nor `'1'`, leaving the block's
/// words unspecified.
fn transpose_block(
    chunk: &[&str],
    block: usize,
    groups: &mut [[u64; 8]],
    words: &mut [Vec<u64>],
) -> bool {
    let mut bad = 0u64;
    for (r, v) in chunk.iter().enumerate() {
        let (row, shift) = (r / 8, r % 8);
        for (group, run) in groups.iter_mut().zip(v.as_bytes().chunks(8)) {
            let x = match <[u8; 8]>::try_from(run) {
                Ok(bytes) => u64::from_le_bytes(bytes),
                Err(_) => {
                    let mut bytes = [b'0'; 8];
                    bytes[..run.len()].copy_from_slice(run);
                    u64::from_le_bytes(bytes)
                }
            };
            bad |= (x ^ ASCII_ZEROS) & !BYTE_LOW_BITS;
            group[row] |= (x & BYTE_LOW_BITS) << shift;
        }
    }
    for (group, inputs) in groups.iter_mut().zip(words.chunks_mut(8)) {
        let columns = transpose_bytes(*group);
        *group = [0; 8];
        for (w, column) in inputs.iter_mut().zip(columns) {
            w[block] = column;
        }
    }
    bad == 0
}

/// Transposes an 8×8 byte matrix: byte `k` of row `g` becomes byte `g`
/// of row `k` (bytes little-endian), by three rounds of block swaps.
fn transpose_bytes(mut m: [u64; 8]) -> [u64; 8] {
    for (step, mask) in [(4, 0x0000_0000_FFFF_FFFF_u64), (2, 0x0000_FFFF_0000_FFFF), (1, 0x00FF_00FF_00FF_00FF)] {
        let shift = 8 * step as u32;
        for i in (0..8).filter(|i| i & step == 0) {
            let t = ((m[i] >> shift) ^ m[i + step]) & mask;
            m[i] ^= t << shift;
            m[i + step] ^= t;
        }
    }
    m
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

    /// The per-vector reference for [`PatternSet::from_bit_strs`]: each
    /// string in order is checked for its width, then for its first byte
    /// other than `'0'`/`'1'`, and pushed as a [`Pattern`].
    fn per_vector_bit_strs(num_inputs: usize, vectors: &[&str]) -> Result<PatternSet, (usize, String)> {
        let mut set = PatternSet::new(num_inputs);
        for (i, v) in vectors.iter().enumerate() {
            if v.len() != num_inputs {
                let message = format!("pattern width {} does not match set width {num_inputs}", v.len());
                return Err((i, message));
            }
            let mut bits = Vec::with_capacity(num_inputs);
            for b in v.bytes() {
                match b {
                    b'0' | b'1' => bits.push(b == b'1'),
                    _ => {
                        let message = format!(
                            "invalid pattern character '{}' (want '0' or '1')",
                            char::from(b)
                        );
                        return Err((i, message));
                    }
                }
            }
            set.push(&Pattern::new(bits));
        }
        Ok(set)
    }

    fn hash_of(set: &PatternSet) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        set.hash(&mut h);
        h.finish()
    }

    /// Bit strings of `count` random vectors of `width` inputs.
    fn random_bit_strs(width: usize, count: usize, seed: u64) -> Vec<String> {
        PatternSet::random(width, count, seed).iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn bit_strs_match_per_vector_push() {
        for width in [1usize, 7, 8, 9, 63, 64, 65, 214] {
            for count in [0usize, 1, 63, 64, 65, 127, 128, 129, 511, 512] {
                let strings = random_bit_strs(width, count, (width * 1000 + count) as u64);
                let vectors: Vec<&str> = strings.iter().map(String::as_str).collect();
                let block = PatternSet::from_bit_strs(width, &vectors).unwrap();
                let reference = per_vector_bit_strs(width, &vectors).unwrap();
                assert_eq!(block, reference, "width {width}, {count} vectors");
                assert_eq!(hash_of(&block), hash_of(&reference), "width {width}, {count} vectors");
                assert_eq!(block, PatternSet::random(width, count, (width * 1000 + count) as u64));
            }
        }
        // No inputs: every vector is the empty string.
        let empty = PatternSet::from_bit_strs(0, &[""; 70]).unwrap();
        assert_eq!(empty, per_vector_bit_strs(0, &[""; 70]).unwrap());
        assert_eq!(empty.len(), 70);
    }

    #[test]
    fn bit_strs_name_the_first_bad_vector() {
        // Each corruption of one string, with the byte offset it starts at.
        fn corrupt(s: &str, kind: usize, offset: usize) -> String {
            let mut bytes = s.as_bytes().to_vec();
            match kind {
                0 => bytes[offset] = b'x',
                1 => bytes[offset] = b'2',
                2 => bytes[offset] = 0x7f,
                // A two-byte character over two inputs keeps the width.
                3 => return format!("{}é{}", &s[..offset], &s[offset + 2..]),
                4 => bytes.truncate(offset),
                _ => bytes.insert(offset, b'1'),
            }
            String::from_utf8(bytes).unwrap()
        }
        for width in [9usize, 64, 214] {
            for count in [1usize, 65, 129, 512] {
                let clean = random_bit_strs(width, count, (width + count) as u64);
                for at in [0, count / 2, count - 1] {
                    for offset in (0..8).chain([width - 2]) {
                        for kind in 0..6 {
                            let mut strings = clean.clone();
                            strings[at] = corrupt(&clean[at], kind, offset);
                            let vectors: Vec<&str> = strings.iter().map(String::as_str).collect();
                            let label = format!("width {width}, {count} vectors, vector {at}, offset {offset}, kind {kind}");
                            let want = per_vector_bit_strs(width, &vectors).unwrap_err();
                            assert_eq!(want.0, at, "{label}");
                            assert_eq!(PatternSet::from_bit_strs(width, &vectors).unwrap_err(), want, "{label}");
                        }
                    }
                }
            }
        }
        // A bad byte before a bad width is named first, and the other way
        // round.
        let (x, short) = ("10x", "10");
        for (vectors, want) in [
            (vec!["101"; 70], None),
            ([vec!["101"; 66], vec![x, short]].concat(), Some(66)),
            ([vec!["101"; 66], vec![short, x]].concat(), Some(66)),
            ([vec!["101"; 3], vec![x], vec!["101"; 70], vec![short]].concat(), Some(3)),
            ([vec!["101"; 3], vec![short], vec!["101"; 70], vec![x]].concat(), Some(3)),
        ] {
            let got = PatternSet::from_bit_strs(3, &vectors);
            assert_eq!(got, per_vector_bit_strs(3, &vectors));
            assert_eq!(got.err().map(|e| e.0), want);
        }
    }

    #[test]
    fn byte_transpose_swaps_rows_and_columns() {
        let m: [u64; 8] = std::array::from_fn(|g| {
            u64::from_le_bytes(std::array::from_fn(|k| (16 * g + k) as u8))
        });
        let t = transpose_bytes(m);
        for (g, row) in m.iter().enumerate() {
            for (k, column) in t.iter().enumerate() {
                assert_eq!(column.to_le_bytes()[g], row.to_le_bytes()[k], "row {g}, column {k}");
            }
        }
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
        assert_eq!(set.num_superblocks(), 2);
        assert_eq!(PatternSet::random(4, 256, 17).num_superblocks(), 1);
        assert_eq!(PatternSet::new(4).num_superblocks(), 0);
        for input in 0..4 {
            let w = set.input_word_wide(input, 0);
            for k in 0..4 {
                assert_eq!(w.lane(k), set.input_word(input, k), "lane {k}");
            }
            // Second superblock: block 4 then three zero lanes.
            let w = set.input_word_wide(input, 1);
            assert_eq!(w.lane(0), set.input_word(input, 4));
            assert_eq!(w.lane(1), 0);
            assert_eq!(w.lane(3), 0);
        }
        let m = set.valid_mask_wide(0);
        for k in 0..4 {
            assert_eq!(m.lane(k), set.valid_mask(k));
        }
        let m = set.valid_mask_wide(1);
        assert_eq!(m.lane(0), set.valid_mask(4)); // 300 % 64 = 44 bits
        for k in 1..4 {
            assert_eq!(m.lane(k), 0);
        }
    }
}
