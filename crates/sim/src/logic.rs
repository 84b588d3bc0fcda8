//! Fault-free ("good machine") simulation.
//!
//! Two entry points are offered: [`simulate_block`] walks the netlist's
//! `topo_order()` in node-id space (the convenient layout for scalar
//! tooling), while [`simulate_block_csr`] is the hot path — a single
//! linear sweep over a [`LevelizedCsr`] view whose `kinds`/fanin arrays
//! are contiguous in evaluation order. [`GoodValues::for_circuit`] runs
//! on the CSR path internally and scatters back to node-id layout.

use adi_netlist::{CompiledCircuit, GateKind, LevelizedCsr, Netlist, NodeId};

use crate::word::SimWord;
use crate::PatternSet;

/// Evaluates one node from already-computed fanin values.
#[inline]
pub(crate) fn eval_node(values: &[u64], kind: GateKind, fanins: &[NodeId]) -> u64 {
    match kind {
        GateKind::Input => panic!("inputs are loaded, not evaluated"),
        GateKind::Buf => values[fanins[0].index()],
        GateKind::Not => !values[fanins[0].index()],
        GateKind::And => fanins
            .iter()
            .fold(!0u64, |acc, f| acc & values[f.index()]),
        GateKind::Nand => !fanins
            .iter()
            .fold(!0u64, |acc, f| acc & values[f.index()]),
        GateKind::Or => fanins.iter().fold(0u64, |acc, f| acc | values[f.index()]),
        GateKind::Nor => !fanins.iter().fold(0u64, |acc, f| acc | values[f.index()]),
        GateKind::Xor => fanins.iter().fold(0u64, |acc, f| acc ^ values[f.index()]),
        GateKind::Xnor => !fanins.iter().fold(0u64, |acc, f| acc ^ values[f.index()]),
        GateKind::Const0 => 0,
        GateKind::Const1 => !0,
    }
}

/// Simulates one block of up to 64 patterns.
///
/// `input_words[i]` is the packed word for the `i`-th primary input (in
/// [`Netlist::inputs`] order); `out` receives one word per node.
///
/// # Panics
///
/// Panics if `input_words.len() != netlist.num_inputs()` or
/// `out.len() != netlist.num_nodes()`.
pub fn simulate_block(netlist: &Netlist, input_words: &[u64], out: &mut [u64]) {
    assert_eq!(input_words.len(), netlist.num_inputs());
    assert_eq!(out.len(), netlist.num_nodes());
    for (i, &pi) in netlist.inputs().iter().enumerate() {
        out[pi.index()] = input_words[i];
    }
    for &node in netlist.topo_order() {
        let kind = netlist.kind(node);
        if kind == GateKind::Input {
            continue;
        }
        out[node.index()] = eval_node(out, kind, netlist.fanins(node));
    }
}

/// Evaluates `kind` over [`LevelizedCsr`]-position fanins with values
/// supplied by `value` — the single source of truth for word-parallel
/// gate semantics in position space.
#[inline]
pub(crate) fn eval_with_pos(kind: GateKind, fanins: &[u32], value: impl Fn(u32) -> u64) -> u64 {
    match kind {
        GateKind::Input => panic!("inputs are loaded, not evaluated"),
        GateKind::Buf => value(fanins[0]),
        GateKind::Not => !value(fanins[0]),
        GateKind::And => fanins.iter().fold(!0u64, |acc, &f| acc & value(f)),
        GateKind::Nand => !fanins.iter().fold(!0u64, |acc, &f| acc & value(f)),
        GateKind::Or => fanins.iter().fold(0u64, |acc, &f| acc | value(f)),
        GateKind::Nor => !fanins.iter().fold(0u64, |acc, &f| acc | value(f)),
        GateKind::Xor => fanins.iter().fold(0u64, |acc, &f| acc ^ value(f)),
        GateKind::Xnor => !fanins.iter().fold(0u64, |acc, &f| acc ^ value(f)),
        GateKind::Const0 => 0,
        GateKind::Const1 => !0,
    }
}

/// Simulates one block of up to 64 patterns over a [`LevelizedCsr`] view.
///
/// This is the cache-friendly counterpart of [`simulate_block`]: values
/// are indexed by CSR *position* (topological level order), so the sweep
/// reads the kind and fanin arrays strictly forward and writes `out`
/// strictly forward. `input_words[i]` is the packed word for the `i`-th
/// primary input; `out` receives one word per position.
///
/// # Panics
///
/// Panics if `input_words.len() != view.inputs().len()` or
/// `out.len() != view.num_nodes()`.
pub fn simulate_block_csr(view: &LevelizedCsr, input_words: &[u64], out: &mut [u64]) {
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
        let v = eval_with_pos(kind, view.fanins_at(p), |f| out[f as usize]);
        out[p] = v;
    }
}

/// Wide counterpart of [`eval_with_pos`]: the same gate semantics over
/// the four lanes of a [`SimWord`].
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
/// [`LevelizedCsr`] view — the wide counterpart of
/// [`simulate_block_csr`].
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
/// `superblock` — the wide counterpart of [`load_input_words`].
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

/// Good-machine values in CSR position space, block-major, for every
/// pattern of a [`PatternSet`] — the layout both fault-simulation
/// engines consume directly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct PosGood {
    n_pos: usize,
    data: Vec<u64>,
}

impl PosGood {
    /// Simulates all blocks of `patterns` over `view`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the circuit.
    pub(crate) fn compute(view: &LevelizedCsr, patterns: &PatternSet) -> Self {
        assert_eq!(
            patterns.num_inputs(),
            view.inputs().len(),
            "pattern width does not match circuit input count"
        );
        let n_pos = view.num_nodes();
        let n_blocks = patterns.num_blocks();
        let mut data = vec![0u64; n_pos * n_blocks];
        let mut input_words = vec![0u64; view.inputs().len()];
        for block in 0..n_blocks {
            load_input_words(patterns, block, &mut input_words);
            let slice = &mut data[block * n_pos..(block + 1) * n_pos];
            simulate_block_csr(view, &input_words, slice);
        }
        PosGood { n_pos, data }
    }

    /// All position values for one block.
    #[inline]
    pub(crate) fn block(&self, block: usize) -> &[u64] {
        &self.data[block * self.n_pos..(block + 1) * self.n_pos]
    }
}

/// Fills `input_words` with the packed words of `block`.
///
/// # Panics
///
/// Panics if `input_words.len() != patterns.num_inputs()`.
pub(crate) fn load_input_words(patterns: &PatternSet, block: usize, input_words: &mut [u64]) {
    assert_eq!(input_words.len(), patterns.num_inputs());
    for (i, w) in input_words.iter_mut().enumerate() {
        *w = patterns.input_word(i, block);
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
    let words: Vec<u64> = assignment.iter().map(|&b| u64::from(b)).collect();
    let mut out = vec![0u64; netlist.num_nodes()];
    simulate_block(netlist, &words, &mut out);
    out.into_iter().map(|w| w & 1 == 1).collect()
}

/// Good-machine values for every node under every pattern of a
/// [`PatternSet`], stored block-major so each block's node values are
/// contiguous (the layout the fault simulator wants).
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, CompiledCircuit};
/// use adi_sim::{GoodValues, PatternSet};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "inv")?;
/// let circuit = CompiledCircuit::compile(n);
/// let pats = PatternSet::exhaustive(1);
/// let good = GoodValues::for_circuit(&circuit, &pats);
/// let y = circuit.netlist().find_node("y").unwrap();
/// assert_eq!(good.value(y, 0), true); // pattern 0 has a=0, so y = NOT(a) = 1
/// assert_eq!(good.value(y, 1), false);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GoodValues {
    n_nodes: usize,
    n_blocks: usize,
    n_patterns: usize,
    data: Vec<u64>,
}

impl GoodValues {
    /// Simulates all patterns over a [`CompiledCircuit`], reusing its
    /// levelized view (one linear sweep per block, scattered back to
    /// node-id layout). This is the primary entry point; it performs no
    /// per-call setup beyond the value buffers themselves.
    pub fn for_circuit(circuit: &CompiledCircuit, patterns: &PatternSet) -> Self {
        Self::with_view(circuit.netlist(), circuit.view(), patterns)
    }

    /// The shared implementation: one CSR sweep per block over `view`,
    /// scattered back to node-id layout.
    fn with_view(netlist: &Netlist, view: &LevelizedCsr, patterns: &PatternSet) -> Self {
        assert_eq!(
            patterns.num_inputs(),
            netlist.num_inputs(),
            "pattern width does not match circuit input count"
        );
        let n_nodes = netlist.num_nodes();
        let n_blocks = patterns.num_blocks();
        let mut data = vec![0u64; n_nodes * n_blocks];
        let mut input_words = vec![0u64; netlist.num_inputs()];
        let mut pos_buf = vec![0u64; n_nodes];
        for block in 0..n_blocks {
            load_input_words(patterns, block, &mut input_words);
            simulate_block_csr(view, &input_words, &mut pos_buf);
            let slice = &mut data[block * n_nodes..(block + 1) * n_nodes];
            for (p, &w) in pos_buf.iter().enumerate() {
                slice[view.node_at(p).index()] = w;
            }
        }
        GoodValues {
            n_nodes,
            n_blocks,
            n_patterns: patterns.len(),
            data,
        }
    }

    /// Number of pattern blocks.
    pub fn num_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Number of patterns simulated.
    pub fn num_patterns(&self) -> usize {
        self.n_patterns
    }

    /// The packed word of values of `node` for pattern block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[inline]
    pub fn word(&self, node: NodeId, block: usize) -> u64 {
        self.block(block)[node.index()]
    }

    /// All node values for one block, indexed by node id.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[inline]
    pub fn block(&self, block: usize) -> &[u64] {
        &self.data[block * self.n_nodes..(block + 1) * self.n_nodes]
    }

    /// The boolean value of `node` under pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    pub fn value(&self, node: NodeId, pattern: usize) -> bool {
        assert!(pattern < self.n_patterns, "pattern index out of range");
        self.word(node, pattern / 64) >> (pattern % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::bench_format;
    use crate::Pattern;

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
        assert_eq!(good.num_blocks(), 4);
        assert_eq!(good.num_patterns(), 200);
        // Spot-check the last pattern.
        let last = pats.get(199);
        let scalar = evaluate(n, last.as_slice());
        for node in n.node_ids() {
            assert_eq!(good.value(node, 199), scalar[node.index()]);
        }
    }

    #[test]
    fn csr_sweep_matches_node_space_sim() {
        let n = bench_format::parse(MUX, "mux").unwrap();
        let view = LevelizedCsr::build(&n);
        let pats = PatternSet::random(3, 150, 11);
        let mut input_words = vec![0u64; n.num_inputs()];
        let mut by_id = vec![0u64; n.num_nodes()];
        let mut by_pos = vec![0u64; n.num_nodes()];
        for block in 0..pats.num_blocks() {
            load_input_words(&pats, block, &mut input_words);
            simulate_block(&n, &input_words, &mut by_id);
            simulate_block_csr(&view, &input_words, &mut by_pos);
            for node in n.node_ids() {
                assert_eq!(
                    by_id[node.index()],
                    by_pos[view.position(node)],
                    "node {node} block {block}"
                );
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
        let c = compiled(MUX, "mux");
        let view = c.view();
        let pats = PatternSet::random(3, 100, 21);
        let good = GoodValues::for_circuit(&c, &pats);
        let pos = PosGood::compute(view, &pats);
        for block in 0..pats.num_blocks() {
            for node in c.netlist().node_ids() {
                assert_eq!(
                    good.word(node, block),
                    pos.block(block)[view.position(node)]
                );
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
