//! Fault-free ("good machine") simulation.
//!
//! The crate-internal superblock sweep is the hot path every
//! stem-region drive mode and the drop session run on: a single linear
//! sweep of 256-pattern [`SimWord`]s over a [`LevelizedCsr`] view whose
//! `kinds`/fanin arrays are contiguous in evaluation order. [`evaluate`]
//! is the scalar evaluator in node-id space, one input assignment at a
//! time, on the gate semantics of [`GateKind::eval_words`]. The
//! 64-pattern table lives in [`reference`](mod@crate::reference) as
//! [`GoodValues`](crate::reference::GoodValues).

use adi_netlist::{GateKind, LevelizedCsr, Netlist};

use crate::word::SimWord;
use crate::PatternSet;

/// Evaluates `kind` over [`LevelizedCsr`]-position fanins with values
/// supplied by `value` — the production gate semantics in position
/// space, over the four lanes of a [`SimWord`].
#[inline]
pub(crate) fn eval_with_pos_w(
    kind: GateKind,
    fanins: &[u32],
    value: impl Fn(u32) -> SimWord,
) -> SimWord {
    match kind {
        GateKind::Input => panic!("inputs are loaded, not evaluated"),
        GateKind::Buf => value(fanins[0]),
        GateKind::Not => !value(fanins[0]),
        GateKind::And => fanins.iter().fold(SimWord::ONES, |acc, &f| acc & value(f)),
        GateKind::Nand => !fanins.iter().fold(SimWord::ONES, |acc, &f| acc & value(f)),
        GateKind::Or => fanins.iter().fold(SimWord::ZERO, |acc, &f| acc | value(f)),
        GateKind::Nor => !fanins.iter().fold(SimWord::ZERO, |acc, &f| acc | value(f)),
        GateKind::Xor => fanins.iter().fold(SimWord::ZERO, |acc, &f| acc ^ value(f)),
        GateKind::Xnor => !fanins.iter().fold(SimWord::ZERO, |acc, &f| acc ^ value(f)),
        GateKind::Const0 => SimWord::ZERO,
        GateKind::Const1 => SimWord::ONES,
    }
}

/// Simulates one superblock of up to 256 patterns over a
/// [`LevelizedCsr`] view: values are indexed by CSR *position*
/// (topological level order), so the sweep reads the kind and fanin
/// arrays strictly forward and writes `out` strictly forward.
/// `input_words[i]` is the packed word for the `i`-th primary input;
/// `out` receives one word per position.
///
/// # Panics
///
/// Panics if `input_words.len() != view.inputs().len()` or
/// `out.len() != view.num_nodes()`.
pub(crate) fn simulate_superblock_csr(
    view: &LevelizedCsr,
    input_words: &[SimWord],
    out: &mut [SimWord],
) {
    assert_eq!(input_words.len(), view.inputs().len());
    assert_eq!(out.len(), view.num_nodes());
    for (i, &p) in view.inputs().iter().enumerate() {
        out[p as usize] = input_words[i];
    }
    for p in 0..view.num_nodes() {
        let kind = view.kind_at(p);
        if kind == GateKind::Input {
            continue;
        }
        let v = eval_with_pos_w(kind, view.fanins_at(p), |f| out[f as usize]);
        out[p] = v;
    }
}

/// Fills `input_words` with the packed superblock words of
/// `superblock`.
///
/// # Panics
///
/// Panics if `input_words.len() != patterns.num_inputs()`.
pub(crate) fn load_input_words_w(
    patterns: &PatternSet,
    superblock: usize,
    input_words: &mut [SimWord],
) {
    assert_eq!(input_words.len(), patterns.num_inputs());
    for (i, w) in input_words.iter_mut().enumerate() {
        *w = patterns.input_word_wide(i, superblock);
    }
}

/// Evaluates the circuit on a single assignment of the primary inputs.
///
/// Returns one boolean per node. `assignment[i]` corresponds to
/// `netlist.inputs()[i]`.
///
/// # Panics
///
/// Panics if `assignment.len() != netlist.num_inputs()`.
///
/// # Examples
///
/// ```
/// use adi_netlist::bench_format;
/// use adi_sim::logic::evaluate;
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", "nand2")?;
/// let values = evaluate(&n, &[true, true]);
/// let y = n.find_node("y").unwrap();
/// assert_eq!(values[y.index()], false);
/// # Ok(())
/// # }
/// ```
pub fn evaluate(netlist: &Netlist, assignment: &[bool]) -> Vec<bool> {
    assert_eq!(assignment.len(), netlist.num_inputs());
    let mut values = vec![0u64; netlist.num_nodes()];
    for (&pi, &v) in netlist.inputs().iter().zip(assignment) {
        values[pi.index()] = u64::from(v);
    }
    let mut fanin_words = Vec::new();
    for &node in netlist.topo_order() {
        let kind = netlist.kind(node);
        if kind == GateKind::Input {
            continue;
        }
        fanin_words.clear();
        fanin_words.extend(netlist.fanins(node).iter().map(|f| values[f.index()]));
        values[node.index()] = kind.eval_words(&fanin_words);
    }
    values.into_iter().map(|w| w & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{load_input_words, simulate_block_csr, GoodValues};
    use crate::Pattern;
    use adi_netlist::{bench_format, CompiledCircuit};

    const MUX: &str = "
INPUT(a)
INPUT(s)
INPUT(b)
OUTPUT(y)
ns = NOT(s)
t0 = AND(a, ns)
t1 = AND(b, s)
y = OR(t0, t1)
";

    #[test]
    fn mux_truth_table() {
        let n = bench_format::parse(MUX, "mux").unwrap();
        let y = n.find_node("y").unwrap();
        // (a, s, b) -> y = s ? b : a
        for a in [false, true] {
            for s in [false, true] {
                for b in [false, true] {
                    let vals = evaluate(&n, &[a, s, b]);
                    let expect = if s { b } else { a };
                    assert_eq!(vals[y.index()], expect, "a={a} s={s} b={b}");
                }
            }
        }
    }

    fn compiled(src: &str, name: &str) -> CompiledCircuit {
        CompiledCircuit::compile(bench_format::parse(src, name).unwrap())
    }

    #[test]
    fn block_sim_matches_scalar() {
        let c = compiled(MUX, "mux");
        let n = c.netlist();
        let pats = PatternSet::exhaustive(3);
        let good = GoodValues::for_circuit(&c, &pats);
        for p in 0..pats.len() {
            let pattern = pats.get(p);
            let scalar = evaluate(n, pattern.as_slice());
            for node in n.node_ids() {
                assert_eq!(
                    good.value(node, p),
                    scalar[node.index()],
                    "node {node} pattern {p}"
                );
            }
        }
    }

    #[test]
    fn multi_block_values() {
        let c = compiled(MUX, "mux");
        let n = c.netlist();
        let pats = PatternSet::random(3, 200, 5);
        let good = GoodValues::for_circuit(&c, &pats);
        // Spot-check both ends of each of the four blocks.
        for p in [0, 63, 64, 127, 128, 191, 192, 199] {
            let scalar = evaluate(n, pats.get(p).as_slice());
            for node in n.node_ids() {
                assert_eq!(good.value(node, p), scalar[node.index()], "pattern {p}");
            }
        }
    }

    #[test]
    fn csr_sweep_matches_node_space_sim() {
        let n = bench_format::parse(MUX, "mux").unwrap();
        let view = LevelizedCsr::build(&n);
        let pats = PatternSet::random(3, 150, 11);
        let mut input_words = vec![0u64; n.num_inputs()];
        let mut by_pos = vec![0u64; n.num_nodes()];
        for block in 0..pats.num_blocks() {
            load_input_words(&pats, block, &mut input_words);
            simulate_block_csr(&view, &input_words, &mut by_pos);
            for p in block * 64..pats.len().min((block + 1) * 64) {
                let by_id = evaluate(&n, pats.get(p).as_slice());
                for node in n.node_ids() {
                    let lane = by_pos[view.position(node)] >> (p % 64) & 1 == 1;
                    assert_eq!(by_id[node.index()], lane, "node {node} pattern {p}");
                }
            }
        }
    }

    #[test]
    fn superblock_sweep_lanes_match_per_block_sweeps() {
        let n = bench_format::parse(MUX, "mux").unwrap();
        let view = LevelizedCsr::build(&n);
        let pats = PatternSet::random(3, 300, 11); // 5 blocks: a ragged tail lane
        let mut wide_in = vec![SimWord::ZERO; n.num_inputs()];
        let mut wide_out = vec![SimWord::ZERO; n.num_nodes()];
        let mut scalar_in = vec![0u64; n.num_inputs()];
        let mut scalar_out = vec![0u64; n.num_nodes()];
        for sb in 0..pats.num_superblocks() {
            load_input_words_w(&pats, sb, &mut wide_in);
            simulate_superblock_csr(&view, &wide_in, &mut wide_out);
            for k in 0..SimWord::LANES {
                let block = sb * SimWord::LANES + k;
                if block >= pats.num_blocks() {
                    continue;
                }
                load_input_words(&pats, block, &mut scalar_in);
                simulate_block_csr(&view, &scalar_in, &mut scalar_out);
                for p in 0..n.num_nodes() {
                    assert_eq!(wide_out[p].lane(k), scalar_out[p], "pos {p} lane {k}");
                }
            }
        }
    }

    #[test]
    fn pos_good_matches_good_values() {
        // The production sweep, by position, against the reference
        // table, which reads each node through its position.
        let c = compiled(MUX, "mux");
        let view = c.view();
        let pats = PatternSet::random(3, 300, 21); // a partial second superblock
        let good = GoodValues::for_circuit(&c, &pats);
        let mut inputs = vec![SimWord::ZERO; view.inputs().len()];
        let mut words = vec![SimWord::ZERO; view.num_nodes()];
        for sb in 0..pats.num_superblocks() {
            load_input_words_w(&pats, sb, &mut inputs);
            simulate_superblock_csr(view, &inputs, &mut words);
            for p in sb * SimWord::BITS..pats.len().min((sb + 1) * SimWord::BITS) {
                for node in c.netlist().node_ids() {
                    let lane = words[view.position(node)].bit(p % SimWord::BITS);
                    assert_eq!(lane, good.value(node, p), "node {node} pattern {p}");
                }
            }
        }
    }

    #[test]
    fn constants_simulate() {
        let c = compiled("OUTPUT(y)\nk = CONST1()\ny = BUF(k)\n", "c");
        let mut set = PatternSet::new(0);
        set.push(&Pattern::new(vec![]));
        let good = GoodValues::for_circuit(&c, &set);
        let y = c.netlist().find_node("y").unwrap();
        assert!(good.value(y, 0));
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn width_mismatch_panics() {
        let c = compiled(MUX, "mux");
        let pats = PatternSet::exhaustive(2);
        let _ = GoodValues::for_circuit(&c, &pats);
    }
}
