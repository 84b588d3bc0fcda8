//! Per-fault 64-bit reference implementations: the bit-identical oracles
//! the differential tests hold every production simulation path to.
//!
//! * [`no_drop_matrix`], [`with_dropping`] and [`n_detect`] — classic
//!   PPSFP versions of [`FaultSimulator`](crate::FaultSimulator)'s three
//!   drive modes. Each fault is injected on its own and its effect
//!   walked through its fanout cone with event-driven 64-bit word
//!   operations: one cone walk *per fault* per 64-pattern block. That is
//!   asymptotically slower than the stem-region engine, and it is
//!   independent of everything that engine adds (fanout-free regions,
//!   sensitization words, needs-driven lane retirement, wide words),
//!   which makes it the oracle: `tests/engine_equivalence.rs` requires
//!   the production engine to match these functions bit for bit.
//! * [`PatternSim`] — the same per-fault walk for one input vector at a
//!   time: the drop loop of `adi_atpg::TestGenerator::run_reference`, and
//!   the scalar loop [`DropSession`](crate::DropSession) is held to.
//! * [`GoodValues`] — the good-machine value of every node under every
//!   pattern, 64 patterns per word: the table the three drive modes
//!   read, and an oracle for the production 256-pattern sweep.
//!
//! Production code does not call into this module.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use adi_netlist::fault::{Fault, FaultId, FaultList, FaultSite};
use adi_netlist::{CompiledCircuit, GateKind, LevelizedCsr, NodeId};

use crate::{DetectionMatrix, DropOutcome, NDetectOutcome, Pattern, PatternSet};

/// Simulates every fault of `faults` under every pattern **without
/// dropping**; the reference for
/// [`FaultSimulator::no_drop_matrix`](crate::FaultSimulator::no_drop_matrix).
///
/// # Panics
///
/// Panics if a fault references a node outside the circuit or the
/// pattern width does not match the circuit.
pub fn no_drop_matrix(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
) -> DetectionMatrix {
    let view = circuit.view();
    let mut buf = ScratchBuf::new(view);
    let good = GoodValues::for_circuit(circuit, patterns);
    let mut matrix = DetectionMatrix::new(faults.len(), patterns.len());
    let n_blocks = patterns.num_blocks();
    for (id, fault) in faults.iter() {
        for block in 0..n_blocks {
            let mask = patterns.valid_mask(block);
            let w = detect_block_impl(view, good.block(block), fault, mask, &mut buf);
            if w != 0 {
                matrix.or_word(id, block, w);
            }
        }
    }
    matrix
}

/// Simulates with fault dropping, each fault retired at its first
/// detecting pattern; the reference for
/// [`FaultSimulator::with_dropping`](crate::FaultSimulator::with_dropping).
///
/// # Panics
///
/// As [`no_drop_matrix`].
pub fn with_dropping(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
) -> DropOutcome {
    let view = circuit.view();
    let buf = &mut ScratchBuf::new(view);
    let good = GoodValues::for_circuit(circuit, patterns);
    let mut first: Vec<Option<u32>> = vec![None; faults.len()];
    let mut active: Vec<FaultId> = faults.ids().collect();
    for block in 0..patterns.num_blocks() {
        if active.is_empty() {
            break;
        }
        let mask = patterns.valid_mask(block);
        active.retain(|&id| {
            let fault = faults.fault(id);
            let w = detect_block_impl(view, good.block(block), fault, mask, buf);
            if w != 0 {
                first[id.index()] = Some((block * 64) as u32 + w.trailing_zeros());
                false
            } else {
                true
            }
        });
    }
    DropOutcome {
        first_detection: first,
    }
}

/// n-detection simulation, a fault retired once `n` distinct patterns
/// detect it; the reference for
/// [`FaultSimulator::n_detect`](crate::FaultSimulator::n_detect).
///
/// # Panics
///
/// Panics if `n == 0`, and as [`no_drop_matrix`].
pub fn n_detect(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
    n: u32,
) -> NDetectOutcome {
    assert!(n > 0, "n-detection requires n >= 1");
    let view = circuit.view();
    let buf = &mut ScratchBuf::new(view);
    let good = GoodValues::for_circuit(circuit, patterns);
    let mut counts = vec![0u32; faults.len()];
    let mut active: Vec<FaultId> = faults.ids().collect();
    for block in 0..patterns.num_blocks() {
        if active.is_empty() {
            break;
        }
        let mask = patterns.valid_mask(block);
        active.retain(|&id| {
            let fault = faults.fault(id);
            let w = detect_block_impl(view, good.block(block), fault, mask, buf);
            let c = &mut counts[id.index()];
            *c = (*c + w.count_ones()).min(n);
            *c < n
        });
    }
    NDetectOutcome { counts, n }
}

/// A single-pattern fault simulator for one compiled circuit and fault
/// list: one good-machine sweep per input vector, then one event-driven
/// cone walk per queried fault. It owns its scratch, sized for its own
/// circuit, so reuse one across vectors to avoid reallocating it.
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, CompiledCircuit, fault::FaultId};
/// use adi_sim::{reference::PatternSim, Pattern};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
/// let circuit = CompiledCircuit::compile(n);
/// let faults = circuit.collapsed_faults();
/// let active: Vec<FaultId> = faults.ids().collect();
/// let mut sim = PatternSim::for_circuit(&circuit, faults);
/// // a = b = 1 detects the stuck-at-0 class only.
/// assert_eq!(sim.detect(&Pattern::new(vec![true, true]), &active).len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PatternSim<'a> {
    circuit: CompiledCircuit,
    faults: &'a FaultList,
    buf: ScratchBuf,
    /// Good-machine words of the current vector by position (bit 0).
    good: Vec<u64>,
    /// Input words of the current vector.
    input_words: Vec<u64>,
}

impl<'a> PatternSim<'a> {
    /// Creates a simulator for `faults` of `circuit`, sharing its
    /// levelized view (an `Arc` bump, no per-call setup).
    pub fn for_circuit(circuit: &CompiledCircuit, faults: &'a FaultList) -> Self {
        let view = circuit.view();
        PatternSim {
            circuit: circuit.clone(),
            faults,
            buf: ScratchBuf::new(view),
            good: vec![0; view.num_nodes()],
            input_words: Vec::with_capacity(view.inputs().len()),
        }
    }

    /// Simulates `pattern` against the `active` faults and returns the
    /// detected ones, preserving `active` order.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the circuit.
    pub fn detect(&mut self, pattern: &Pattern, active: &[FaultId]) -> Vec<FaultId> {
        let view = self.circuit.view();
        assert_eq!(
            pattern.len(),
            view.inputs().len(),
            "pattern width does not match circuit input count"
        );
        self.input_words.clear();
        self.input_words.extend(pattern.iter().map(u64::from));
        simulate_block_csr(view, &self.input_words, &mut self.good);
        active
            .iter()
            .copied()
            .filter(|&id| {
                let fault = self.faults.fault(id);
                detect_block_impl(view, &self.good, fault, 1, &mut self.buf) != 0
            })
            .collect()
    }
}

/// Good-machine values of every node under every pattern of a
/// [`PatternSet`], 64 patterns per word, stored in [`LevelizedCsr`]
/// position order one 64-pattern block after another: the layout the
/// per-fault walks read.
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, CompiledCircuit};
/// use adi_sim::{reference::GoodValues, PatternSet};
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
#[derive(Clone, Debug)]
pub struct GoodValues {
    circuit: CompiledCircuit,
    n_patterns: usize,
    data: Vec<u64>,
}

impl GoodValues {
    /// Simulates every pattern over `circuit`'s levelized view, one
    /// linear sweep per 64-pattern block.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the circuit.
    pub fn for_circuit(circuit: &CompiledCircuit, patterns: &PatternSet) -> Self {
        let view = circuit.view();
        assert_eq!(
            patterns.num_inputs(),
            view.inputs().len(),
            "pattern width does not match circuit input count"
        );
        let n_pos = view.num_nodes();
        let mut data = vec![0u64; n_pos * patterns.num_blocks()];
        let mut input_words = vec![0u64; view.inputs().len()];
        for block in 0..patterns.num_blocks() {
            load_input_words(patterns, block, &mut input_words);
            simulate_block_csr(view, &input_words, &mut data[block * n_pos..(block + 1) * n_pos]);
        }
        GoodValues {
            circuit: circuit.clone(),
            n_patterns: patterns.len(),
            data,
        }
    }

    /// All position words of one block.
    fn block(&self, block: usize) -> &[u64] {
        let n_pos = self.circuit.view().num_nodes();
        &self.data[block * n_pos..(block + 1) * n_pos]
    }

    /// The boolean value of `node` under pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    pub fn value(&self, node: NodeId, pattern: usize) -> bool {
        assert!(pattern < self.n_patterns, "pattern index out of range");
        let word = self.block(pattern / 64)[self.circuit.view().position(node)];
        word >> (pattern % 64) & 1 == 1
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

/// Evaluates `kind` over [`LevelizedCsr`]-position fanins with 64-bit
/// values supplied by `value`: the per-fault walk's gate semantics.
#[inline]
fn eval_with_pos(kind: GateKind, fanins: &[u32], value: impl Fn(u32) -> u64) -> u64 {
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

/// Simulates one block of up to 64 patterns over a [`LevelizedCsr`]
/// view: values are indexed by CSR *position* (topological level order),
/// so the sweep reads the kind and fanin arrays strictly forward and
/// writes `out` strictly forward. `input_words[i]` is the packed word
/// for the `i`-th primary input; `out` receives one word per position.
///
/// # Panics
///
/// Panics if `input_words.len() != view.inputs().len()` or
/// `out.len() != view.num_nodes()`.
pub(crate) fn simulate_block_csr(view: &LevelizedCsr, input_words: &[u64], out: &mut [u64]) {
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

/// Reusable buffers of the per-fault walk ([`detect_block_impl`]),
/// sized for one circuit.
#[derive(Clone, Debug)]
struct ScratchBuf {
    faulty: Vec<u64>,
    stamp: Vec<u32>,
    queued: Vec<u32>,
    version: u32,
    queue: BinaryHeap<Reverse<u32>>,
}

impl ScratchBuf {
    fn new(view: &LevelizedCsr) -> Self {
        let n = view.num_nodes();
        ScratchBuf {
            faulty: vec![0; n],
            stamp: vec![0; n],
            queued: vec![0; n],
            version: 0,
            queue: BinaryHeap::new(),
        }
    }
}

/// Evaluates a gate with one pin overridden to a constant word; `good`
/// and `fanins` are in CSR position space.
#[inline]
fn eval_override_pos(good: &[u64], kind: GateKind, fanins: &[u32], pin: usize, ov: u64) -> u64 {
    match kind {
        GateKind::Buf => {
            debug_assert_eq!(pin, 0);
            ov
        }
        GateKind::Not => {
            debug_assert_eq!(pin, 0);
            !ov
        }
        GateKind::And | GateKind::Nand => {
            let mut acc = !0u64;
            for (i, &f) in fanins.iter().enumerate() {
                acc &= if i == pin { ov } else { good[f as usize] };
            }
            if kind == GateKind::Nand {
                !acc
            } else {
                acc
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut acc = 0u64;
            for (i, &f) in fanins.iter().enumerate() {
                acc |= if i == pin { ov } else { good[f as usize] };
            }
            if kind == GateKind::Nor {
                !acc
            } else {
                acc
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = 0u64;
            for (i, &f) in fanins.iter().enumerate() {
                acc ^= if i == pin { ov } else { good[f as usize] };
            }
            if kind == GateKind::Xnor {
                !acc
            } else {
                acc
            }
        }
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => {
            panic!("{kind:?} has no fanin pins")
        }
    }
}

/// Event-driven per-fault propagation in CSR position space: positions
/// are assigned in topological level order, so the position itself is
/// the event priority.
fn detect_block_impl(
    view: &LevelizedCsr,
    good: &[u64],
    fault: Fault,
    valid_mask: u64,
    s: &mut ScratchBuf,
) -> u64 {
    s.version = s.version.wrapping_add(1);
    if s.version == 0 {
        s.stamp.fill(0);
        s.queued.fill(0);
        s.version = 1;
    }
    let v = s.version;
    let stuck_word = if fault.stuck_value() { !0u64 } else { 0u64 };

    let (inject, faulty_word) = match fault.site() {
        FaultSite::Stem(n) => (view.position(n), stuck_word),
        FaultSite::Branch { gate, pin } => {
            let gp = view.position(gate);
            let w = eval_override_pos(
                good,
                view.kind_at(gp),
                view.fanins_at(gp),
                pin as usize,
                stuck_word,
            );
            (gp, w)
        }
    };

    let diff = (faulty_word ^ good[inject]) & valid_mask;
    // A fault whose effect site reaches no primary output can never be
    // observed: exit before any propagation.
    if diff == 0 || !view.reaches_output(inject) {
        return 0;
    }
    s.faulty[inject] = faulty_word;
    s.stamp[inject] = v;
    let mut detected = if view.is_output_at(inject) { diff } else { 0 };

    debug_assert!(s.queue.is_empty());
    for &g in view.fanouts_at(inject) {
        if s.queued[g as usize] != v && view.reaches_output(g as usize) {
            s.queued[g as usize] = v;
            s.queue.push(Reverse(g));
        }
    }

    while let Some(Reverse(p)) = s.queue.pop() {
        let p = p as usize;
        let kind = view.kind_at(p);
        let val = eval_with_pos(kind, view.fanins_at(p), |f| {
            if s.stamp[f as usize] == v {
                s.faulty[f as usize]
            } else {
                good[f as usize]
            }
        });
        let d = (val ^ good[p]) & valid_mask;
        if d != 0 {
            s.faulty[p] = val;
            s.stamp[p] = v;
            if view.is_output_at(p) {
                detected |= d;
            }
            for &g in view.fanouts_at(p) {
                if s.queued[g as usize] != v && view.reaches_output(g as usize) {
                    s.queued[g as usize] = v;
                    s.queue.push(Reverse(g));
                }
            }
        }
    }
    detected
}
