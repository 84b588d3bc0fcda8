//! Kleene 3-valued logic for twin-machine (good/faulty) simulation.
//!
//! PODEM tracks two 3-valued simulations per decision state: the **good**
//! machine and the **faulty** machine (with the target fault injected). A
//! node carries the composite D-calculus value:
//!
//! | good | faulty | composite |
//! |------|--------|-----------|
//! | 0    | 0      | 0         |
//! | 1    | 1      | 1         |
//! | 1    | 0      | D         |
//! | 0    | 1      | D̄         |
//! | any X | —     | X         |
//!
//! The type lives here (rather than in `adi-atpg`, which re-exports it)
//! so the incremental dual-machine evaluator ([`crate::t3event`]) can sit
//! below the ATPG layer.

use std::fmt;

use adi_netlist::{GateKind, NodeId};

/// A ternary logic value: 0, 1, or unknown.
///
/// # Examples
///
/// ```
/// use adi_sim::t3::T3;
///
/// assert_eq!(T3::Zero & T3::X, T3::Zero); // 0 dominates AND
/// assert_eq!(T3::One & T3::X, T3::X);
/// assert_eq!(!T3::X, T3::X);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum T3 {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown / unassigned.
    #[default]
    X,
}

impl T3 {
    /// Converts a boolean.
    #[inline]
    pub fn from_bool(b: bool) -> T3 {
        if b {
            T3::One
        } else {
            T3::Zero
        }
    }

    /// The boolean value, or `None` for [`T3::X`].
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            T3::Zero => Some(false),
            T3::One => Some(true),
            T3::X => None,
        }
    }

    /// Returns `true` unless the value is [`T3::X`].
    #[inline]
    pub fn is_binary(self) -> bool {
        self != T3::X
    }
}

impl std::ops::BitAnd for T3 {
    type Output = T3;
    #[inline]
    fn bitand(self, rhs: T3) -> T3 {
        match (self, rhs) {
            (T3::Zero, _) | (_, T3::Zero) => T3::Zero,
            (T3::One, T3::One) => T3::One,
            _ => T3::X,
        }
    }
}

impl std::ops::BitOr for T3 {
    type Output = T3;
    #[inline]
    fn bitor(self, rhs: T3) -> T3 {
        match (self, rhs) {
            (T3::One, _) | (_, T3::One) => T3::One,
            (T3::Zero, T3::Zero) => T3::Zero,
            _ => T3::X,
        }
    }
}

impl std::ops::BitXor for T3 {
    type Output = T3;
    #[inline]
    fn bitxor(self, rhs: T3) -> T3 {
        match (self, rhs) {
            (T3::X, _) | (_, T3::X) => T3::X,
            (a, b) => T3::from_bool(a != b),
        }
    }
}

impl std::ops::Not for T3 {
    type Output = T3;
    #[inline]
    fn not(self) -> T3 {
        match self {
            T3::Zero => T3::One,
            T3::One => T3::Zero,
            T3::X => T3::X,
        }
    }
}

impl fmt::Display for T3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            T3::Zero => write!(f, "0"),
            T3::One => write!(f, "1"),
            T3::X => write!(f, "X"),
        }
    }
}

/// The single ternary gate truth table, generic over the fanin index
/// type (node ids or CSR positions) so the two public entry points
/// cannot drift apart.
#[inline]
fn eval_gate<I: Copy>(kind: GateKind, fanins: &[I], value: impl Fn(I) -> T3) -> T3 {
    match kind {
        GateKind::Input => panic!("inputs are loaded, not evaluated"),
        GateKind::Buf => value(fanins[0]),
        GateKind::Not => !value(fanins[0]),
        GateKind::And => fanins.iter().fold(T3::One, |acc, &f| acc & value(f)),
        GateKind::Nand => !fanins.iter().fold(T3::One, |acc, &f| acc & value(f)),
        GateKind::Or => fanins.iter().fold(T3::Zero, |acc, &f| acc | value(f)),
        GateKind::Nor => !fanins.iter().fold(T3::Zero, |acc, &f| acc | value(f)),
        GateKind::Xor => fanins.iter().fold(T3::Zero, |acc, &f| acc ^ value(f)),
        GateKind::Xnor => !fanins.iter().fold(T3::Zero, |acc, &f| acc ^ value(f)),
        GateKind::Const0 => T3::Zero,
        GateKind::Const1 => T3::One,
    }
}

/// Evaluates `kind` over ternary fanin values supplied by `value`.
///
/// # Panics
///
/// Panics for [`GateKind::Input`], which has no logic function.
#[inline]
pub fn eval_t3(kind: GateKind, fanins: &[NodeId], value: impl Fn(NodeId) -> T3) -> T3 {
    eval_gate(kind, fanins, value)
}

/// Evaluates `kind` over [`LevelizedCsr`](adi_netlist::LevelizedCsr)
/// position fanins with ternary values supplied by `value` — the
/// position-space twin of [`eval_t3`].
///
/// # Panics
///
/// Panics for [`GateKind::Input`], which has no logic function.
#[inline]
pub fn eval_t3_pos(kind: GateKind, fanins: &[u32], value: impl Fn(u32) -> T3) -> T3 {
    eval_gate(kind, fanins, value)
}

/// Evaluates `kind` with one fanin pin forced to `stuck` — branch-fault
/// injection for a faulty machine. Generic over the fanin index type
/// (node ids or CSR positions) for the same single-truth-table reason
/// as [`eval_t3`]/[`eval_t3_pos`].
///
/// # Panics
///
/// Panics for kinds without fanin pins ([`GateKind::Input`] and the
/// constants).
#[inline]
pub fn eval_t3_branch<I: Copy>(
    kind: GateKind,
    fanins: &[I],
    pin: usize,
    stuck: T3,
    value: impl Fn(I) -> T3,
) -> T3 {
    let at = |i: usize| {
        if i == pin {
            stuck
        } else {
            value(fanins[i])
        }
    };
    match kind {
        GateKind::Buf => at(0),
        GateKind::Not => !at(0),
        GateKind::And => (0..fanins.len()).fold(T3::One, |acc, i| acc & at(i)),
        GateKind::Nand => !(0..fanins.len()).fold(T3::One, |acc, i| acc & at(i)),
        GateKind::Or => (0..fanins.len()).fold(T3::Zero, |acc, i| acc | at(i)),
        GateKind::Nor => !(0..fanins.len()).fold(T3::Zero, |acc, i| acc | at(i)),
        GateKind::Xor => (0..fanins.len()).fold(T3::Zero, |acc, i| acc ^ at(i)),
        GateKind::Xnor => !(0..fanins.len()).fold(T3::Zero, |acc, i| acc ^ at(i)),
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => {
            panic!("{kind:?} has no fanin pins")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kleene_and_tables() {
        use T3::*;
        assert_eq!(Zero & Zero, Zero);
        assert_eq!(Zero & X, Zero);
        assert_eq!(X & Zero, Zero);
        assert_eq!(One & One, One);
        assert_eq!(One & X, X);
        assert_eq!(X & X, X);
    }

    #[test]
    fn kleene_or_tables() {
        use T3::*;
        assert_eq!(One | X, One);
        assert_eq!(X | One, One);
        assert_eq!(Zero | Zero, Zero);
        assert_eq!(Zero | X, X);
        assert_eq!(X | X, X);
    }

    #[test]
    fn kleene_xor_and_not() {
        use T3::*;
        assert_eq!(One ^ One, Zero);
        assert_eq!(One ^ Zero, One);
        assert_eq!(One ^ X, X);
        assert_eq!(!Zero, One);
        assert_eq!(!X, X);
    }

    #[test]
    fn t3_matches_bool_logic_when_binary() {
        for a in [false, true] {
            for b in [false, true] {
                let (ta, tb) = (T3::from_bool(a), T3::from_bool(b));
                assert_eq!((ta & tb).to_bool(), Some(a && b));
                assert_eq!((ta | tb).to_bool(), Some(a || b));
                assert_eq!((ta ^ tb).to_bool(), Some(a != b));
            }
        }
    }

    #[test]
    fn eval_t3_gates() {
        let ids = [NodeId::new(0), NodeId::new(1)];
        let vals = [T3::One, T3::X];
        let get = |n: NodeId| vals[n.index()];
        assert_eq!(eval_t3(GateKind::And, &ids, get), T3::X);
        assert_eq!(eval_t3(GateKind::Or, &ids, get), T3::One);
        assert_eq!(eval_t3(GateKind::Nor, &ids, get), T3::Zero);
        assert_eq!(eval_t3(GateKind::Xor, &ids, get), T3::X);
        let zeros = |_: NodeId| T3::Zero;
        assert_eq!(eval_t3(GateKind::Nand, &ids, zeros), T3::One);
        assert_eq!(eval_t3(GateKind::Const1, &[], |_| T3::X), T3::One);
    }

    #[test]
    fn position_eval_matches_node_eval() {
        let ids = [NodeId::new(0), NodeId::new(1)];
        let pos = [0u32, 1u32];
        for kind in [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            let fanins = if matches!(kind, GateKind::Buf | GateKind::Not) {
                (&ids[..1], &pos[..1])
            } else {
                (&ids[..], &pos[..])
            };
            for a in [T3::Zero, T3::One, T3::X] {
                for b in [T3::Zero, T3::One, T3::X] {
                    let vals = [a, b];
                    assert_eq!(
                        eval_t3(kind, fanins.0, |n| vals[n.index()]),
                        eval_t3_pos(kind, fanins.1, |p| vals[p as usize]),
                        "{kind:?} {a} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn branch_eval_forces_exactly_one_pin() {
        let pos = [0u32, 1u32];
        let vals = [T3::One, T3::One];
        // AND(1, 1) with pin 1 forced to 0 reads 0.
        assert_eq!(
            eval_t3_branch(GateKind::And, &pos, 1, T3::Zero, |p| vals[p as usize]),
            T3::Zero
        );
        // ... while pin 0 still reads its driver.
        assert_eq!(
            eval_t3_branch(GateKind::Or, &pos, 1, T3::Zero, |p| vals[p as usize]),
            T3::One
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(T3::X.to_string(), "X");
        assert_eq!(T3::One.to_string(), "1");
    }
}
