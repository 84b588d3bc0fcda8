//! Gate primitives and their word-level evaluation semantics.

use std::fmt;

/// The logic function computed by a netlist node.
///
/// Every node in a [`Netlist`](crate::Netlist) is either a primary input
/// ([`GateKind::Input`]) or a gate drawn from the standard ISCAS `.bench`
/// cell set. Evaluation is defined over 64-bit words, one bit per pattern,
/// so that 64 input vectors are simulated per gate visit (parallel-pattern
/// simulation).
///
/// # Examples
///
/// ```
/// use adi_netlist::GateKind;
///
/// // A 2-input NAND over two pattern words.
/// let out = GateKind::Nand.eval_words(&[0b1100, 0b1010]);
/// assert_eq!(out & 0b1111, 0b0111);
/// assert_eq!(GateKind::Nand.arity_range(), (1, usize::MAX));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GateKind {
    /// Primary input (or pseudo primary input from a scan flip-flop).
    Input,
    /// Single-input buffer.
    Buf,
    /// Single-input inverter.
    Not,
    /// Multi-input AND.
    And,
    /// Multi-input NAND.
    Nand,
    /// Multi-input OR.
    Or,
    /// Multi-input NOR.
    Nor,
    /// Multi-input XOR (odd parity).
    Xor,
    /// Multi-input XNOR (even parity).
    Xnor,
    /// Constant logic 0 source.
    Const0,
    /// Constant logic 1 source.
    Const1,
}

impl GateKind {
    /// All gate kinds, in a fixed order (useful for statistics tables).
    pub const ALL: [GateKind; 11] = [
        GateKind::Input,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// Evaluates the gate over bit-parallel pattern words, one bit per
    /// pattern.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `fanins.len()` violates
    /// [`arity_range`](Self::arity_range), and for [`GateKind::Input`],
    /// which has no defined logic function.
    #[inline]
    pub fn eval_words(self, fanins: &[u64]) -> u64 {
        debug_assert!(
            {
                let (lo, hi) = self.arity_range();
                fanins.len() >= lo && fanins.len() <= hi
            },
            "gate {self:?} evaluated with {} fanins",
            fanins.len()
        );
        match self {
            GateKind::Input => panic!("primary inputs have no logic function"),
            GateKind::Buf => fanins[0],
            GateKind::Not => !fanins[0],
            GateKind::And => fanins.iter().fold(!0u64, |acc, &w| acc & w),
            GateKind::Nand => !fanins.iter().fold(!0u64, |acc, &w| acc & w),
            GateKind::Or => fanins.iter().fold(0u64, |acc, &w| acc | w),
            GateKind::Nor => !fanins.iter().fold(0u64, |acc, &w| acc | w),
            GateKind::Xor => fanins.iter().fold(0u64, |acc, &w| acc ^ w),
            GateKind::Xnor => !fanins.iter().fold(0u64, |acc, &w| acc ^ w),
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
        }
    }

    /// Evaluates the gate over single boolean values.
    ///
    /// # Panics
    ///
    /// Panics for [`GateKind::Input`], which has no defined logic function.
    #[inline]
    pub fn eval_bools(self, fanins: &[bool]) -> bool {
        let words: Vec<u64> = fanins.iter().map(|&b| if b { !0 } else { 0 }).collect();
        self.eval_words(&words) & 1 == 1
    }

    /// Returns the `(min, max)` number of fanins this gate kind accepts.
    #[inline]
    pub fn arity_range(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => (0, 0),
            GateKind::Buf | GateKind::Not => (1, 1),
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => (1, usize::MAX),
        }
    }

    /// Returns the controlling input value of the gate, if it has one.
    ///
    /// An input at the controlling value determines the gate output
    /// regardless of the other inputs (e.g. `0` for AND/NAND, `1` for
    /// OR/NOR). XOR-family and single-input gates have no controlling value.
    #[inline]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Returns `true` if the gate inverts its "natural" output.
    ///
    /// For AND/OR this is `false`; for NAND/NOR/NOT/XNOR it is `true`.
    /// Used by fault collapsing and by the SCOAP measures.
    #[inline]
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Not | GateKind::Xnor
        )
    }

    /// The canonical upper-case `.bench` name for this gate kind.
    ///
    /// [`GateKind::Input`] has no gate syntax in `.bench` (it is declared by
    /// an `INPUT(...)` line); this method returns `"INPUT"` for it anyway so
    /// the name is never empty.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
        }
    }

    /// Parses a `.bench` gate name (case-insensitive). `BUFF` is accepted
    /// as an alias for `BUF`.
    pub fn from_bench_name(name: &str) -> Option<GateKind> {
        let upper = name.to_ascii_uppercase();
        Some(match upper.as_str() {
            "BUF" | "BUFF" => GateKind::Buf,
            "NOT" | "INV" => GateKind::Not,
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "CONST0" => GateKind::Const0,
            "CONST1" => GateKind::Const1,
            _ => return None,
        })
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive 2-input truth tables, packed LSB-first over the input
    /// combinations (a,b) = (0,0),(1,0),(0,1),(1,1).
    #[test]
    fn two_input_truth_tables() {
        let a = 0b0101u64; // bit i = value of a in pattern i
        let b = 0b0011u64;
        let mask = 0b1111u64;
        assert_eq!(GateKind::And.eval_words(&[a, b]) & mask, 0b0001);
        assert_eq!(GateKind::Nand.eval_words(&[a, b]) & mask, 0b1110);
        assert_eq!(GateKind::Or.eval_words(&[a, b]) & mask, 0b0111);
        assert_eq!(GateKind::Nor.eval_words(&[a, b]) & mask, 0b1000);
        assert_eq!(GateKind::Xor.eval_words(&[a, b]) & mask, 0b0110);
        assert_eq!(GateKind::Xnor.eval_words(&[a, b]) & mask, 0b1001);
    }

    #[test]
    fn unary_gates() {
        let a = 0xDEAD_BEEF_u64;
        assert_eq!(GateKind::Buf.eval_words(&[a]), a);
        assert_eq!(GateKind::Not.eval_words(&[a]), !a);
    }

    #[test]
    fn constants() {
        assert_eq!(GateKind::Const0.eval_words(&[]), 0);
        assert_eq!(GateKind::Const1.eval_words(&[]), !0);
    }

    #[test]
    fn three_input_gates() {
        let a = 0b0101_0101u64;
        let b = 0b0011_0011u64;
        let c = 0b0000_1111u64;
        let mask = 0xFFu64;
        assert_eq!(GateKind::And.eval_words(&[a, b, c]) & mask, 0b0000_0001);
        assert_eq!(GateKind::Or.eval_words(&[a, b, c]) & mask, 0b0111_1111);
        // XOR3 = odd parity.
        assert_eq!(GateKind::Xor.eval_words(&[a, b, c]) & mask, 0b0110_1001);
        assert_eq!(GateKind::Xnor.eval_words(&[a, b, c]) & mask, 0b1001_0110);
    }

    #[test]
    fn eval_bools_matches_words() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for a in [false, true] {
                for b in [false, true] {
                    let w = kind.eval_words(&[a as u64, b as u64]) & 1 == 1;
                    assert_eq!(kind.eval_bools(&[a, b]), w, "{kind:?}({a},{b})");
                }
            }
        }
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Not.controlling_value(), None);
    }

    #[test]
    fn inversion_flags() {
        assert!(GateKind::Nand.is_inverting());
        assert!(GateKind::Nor.is_inverting());
        assert!(GateKind::Not.is_inverting());
        assert!(GateKind::Xnor.is_inverting());
        assert!(!GateKind::And.is_inverting());
        assert!(!GateKind::Or.is_inverting());
        assert!(!GateKind::Buf.is_inverting());
        assert!(!GateKind::Xor.is_inverting());
    }

    #[test]
    fn bench_name_roundtrip() {
        for kind in GateKind::ALL {
            if kind == GateKind::Input {
                continue;
            }
            assert_eq!(GateKind::from_bench_name(kind.bench_name()), Some(kind));
        }
        assert_eq!(GateKind::from_bench_name("buff"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_bench_name("DFF"), None);
        assert_eq!(GateKind::from_bench_name("bogus"), None);
    }

    #[test]
    fn display_uses_bench_name() {
        assert_eq!(GateKind::Nand.to_string(), "NAND");
        assert_eq!(GateKind::Xnor.to_string(), "XNOR");
    }
}
