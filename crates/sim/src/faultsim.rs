//! Stuck-at fault simulation.
//!
//! [`FaultSimulator`] drives the two-level stem-region engine
//! ([`StemRegionEngine`]) on the cache-friendly [`LevelizedCsr`]
//! position space: inside each fanout-free region every fault's
//! detectability at the FFR stem is computed bit-parallelly from forward
//! sensitization words (no event queue), then a single observability
//! propagation *per stem* carries the effect to the outputs. Cost: one
//! cone walk *per FFR* per block, an asymptotic win over classic PPSFP
//! (one cone walk *per fault* per block) since regions average several
//! faults each. PPSFP survives as the differential oracle in
//! [`reference`](mod@crate::reference), and as the single-pattern
//! [`FaultSimulator::detect_pattern`] primitive, where a lone vector
//! cannot amortize the stem-region engine's per-block sweeps.
//!
//! Three drive modes are offered by [`FaultSimulator`]:
//!
//! * [`FaultSimulator::no_drop_matrix`] — full simulation **without fault
//!   dropping**, producing the [`DetectionMatrix`] from which the paper
//!   computes `ndet(u)` and `D(f)`.
//! * [`FaultSimulator::with_dropping`] — classic coverage simulation where
//!   each fault is dropped at its first detection, reporting which
//!   pattern that is.
//! * [`FaultSimulator::n_detect`] — drop after `n` detections, the cheaper
//!   estimate the paper mentions as an alternative to no-drop simulation.
//!   At `n = 1` it is the cheapest way to a coverage figure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use adi_netlist::fault::{Fault, FaultId, FaultList, FaultSite};
use adi_netlist::{CompiledCircuit, GateKind, LevelizedCsr, Netlist};

use crate::logic::{self, eval_with_pos};
use crate::stem::StemRegionEngine;
use crate::{DetectionMatrix, Pattern, PatternSet};

/// Reusable per-thread scratch buffers for per-fault injection, bound to
/// one compiled circuit (whose [`LevelizedCsr`] view the hot loops run
/// on).
///
/// Create one with [`SimScratch::for_circuit`] and reuse it across calls
/// to the single-pattern API to avoid repeated allocation.
#[derive(Clone, Debug)]
pub struct SimScratch {
    pub(crate) circuit: CompiledCircuit,
    pub(crate) buf: ScratchBuf,
}

/// The allocation-heavy part of [`SimScratch`], split out so the view
/// and the buffers can be borrowed independently.
#[derive(Clone, Debug)]
pub(crate) struct ScratchBuf {
    faulty: Vec<u64>,
    stamp: Vec<u32>,
    queued: Vec<u32>,
    version: u32,
    queue: BinaryHeap<Reverse<u32>>,
    good_single: Vec<u64>,
    input_words: Vec<u64>,
}

impl SimScratch {
    /// Allocates scratch buffers for `circuit`, sharing its levelized
    /// view (an `Arc` bump, no per-call setup).
    pub fn for_circuit(circuit: &CompiledCircuit) -> Self {
        let buf = ScratchBuf::new(circuit.view());
        SimScratch {
            circuit: circuit.clone(),
            buf,
        }
    }

}

impl ScratchBuf {
    pub(crate) fn new(view: &LevelizedCsr) -> Self {
        let n = view.num_nodes();
        ScratchBuf {
            faulty: vec![0; n],
            stamp: vec![0; n],
            queued: vec![0; n],
            version: 0,
            queue: BinaryHeap::new(),
            good_single: vec![0; n],
            input_words: Vec::with_capacity(view.inputs().len()),
        }
    }
}

/// Result of fault simulation with dropping.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DropOutcome {
    /// For each fault, the index of the first detecting pattern, or `None`
    /// if the pattern set does not detect it.
    pub first_detection: Vec<Option<u32>>,
}

impl DropOutcome {
    /// Number of detected faults.
    pub fn num_detected(&self) -> usize {
        self.first_detection.iter().filter(|d| d.is_some()).count()
    }

    /// Fault coverage (detected / total). Zero for an empty fault list.
    pub fn coverage(&self) -> f64 {
        if self.first_detection.is_empty() {
            0.0
        } else {
            self.num_detected() as f64 / self.first_detection.len() as f64
        }
    }

    /// Number of new faults first detected by each pattern.
    pub fn new_detections(&self, num_patterns: usize) -> Vec<u32> {
        let mut out = vec![0u32; num_patterns];
        for d in self.first_detection.iter().flatten() {
            out[*d as usize] += 1;
        }
        out
    }
}

/// Result of n-detection fault simulation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NDetectOutcome {
    /// Per-fault detection count, saturated at the configured `n`.
    pub counts: Vec<u32>,
    /// The saturation threshold used.
    pub n: u32,
}

impl NDetectOutcome {
    /// Number of faults detected at least once.
    pub fn num_detected(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Number of faults detected at least `n` times (saturated).
    pub fn num_saturated(&self) -> usize {
        self.counts.iter().filter(|&&c| c >= self.n).count()
    }

    /// Fault coverage (detected at least once / total), computed as
    /// [`DropOutcome::coverage`] computes it. Zero for an empty fault
    /// list.
    pub fn coverage(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.num_detected() as f64 / self.counts.len() as f64
        }
    }
}

/// A stuck-at fault simulator bound to one compiled circuit and fault
/// list.
///
/// Construction is cheap (an `Arc` bump of the compilation), so building
/// one simulator per pattern set is fine — the expensive artifacts live
/// in the [`CompiledCircuit`].
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, CompiledCircuit, fault::FaultList};
/// use adi_sim::{FaultSimulator, PatternSet};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n", "or2")?;
/// let circuit = CompiledCircuit::compile(n);
/// let faults = circuit.collapsed_faults();
/// let sim = FaultSimulator::for_circuit(&circuit, faults);
/// let drop = sim.with_dropping(&PatternSet::exhaustive(2));
/// assert_eq!(drop.coverage(), 1.0); // exhaustive patterns detect everything
///
/// // The per-fault reference agrees bit for bit.
/// let patterns = PatternSet::exhaustive(2);
/// assert_eq!(
///     sim.no_drop_matrix(&patterns),
///     adi_sim::reference::no_drop_matrix(&circuit, faults, &patterns)
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FaultSimulator<'a> {
    circuit: CompiledCircuit,
    faults: &'a FaultList,
}

impl<'a> FaultSimulator<'a> {
    /// Creates a simulator for `faults` of `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if any fault references a node outside the circuit.
    pub fn for_circuit(circuit: &CompiledCircuit, faults: &'a FaultList) -> Self {
        for (_, f) in faults.iter() {
            assert!(
                f.effect_node().index() < circuit.netlist().num_nodes(),
                "fault {f} outside netlist"
            );
        }
        FaultSimulator {
            circuit: circuit.clone(),
            faults,
        }
    }

    /// The compiled circuit being simulated.
    pub fn circuit(&self) -> &CompiledCircuit {
        &self.circuit
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.circuit.netlist()
    }

    /// The fault list being simulated.
    pub fn faults(&self) -> &'a FaultList {
        self.faults
    }

    fn engine(&self) -> StemRegionEngine<'a> {
        StemRegionEngine::for_circuit(&self.circuit, self.faults)
    }

    /// Simulates every fault under every pattern **without dropping** and
    /// returns the full detection matrix.
    pub fn no_drop_matrix(&self, patterns: &PatternSet) -> DetectionMatrix {
        self.engine().no_drop_matrix(patterns)
    }

    /// Like [`no_drop_matrix`](Self::no_drop_matrix) but splits the work
    /// across `threads` OS threads (see
    /// [`StemRegionEngine::no_drop_matrix_parallel`]).
    ///
    /// The result is identical to the serial version.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn no_drop_matrix_parallel(
        &self,
        patterns: &PatternSet,
        threads: usize,
    ) -> DetectionMatrix {
        assert!(threads > 0, "at least one thread required");
        self.engine().no_drop_matrix_parallel(patterns, threads)
    }

    /// Simulates with fault dropping: each fault is retired at its first
    /// detecting pattern, and the outcome says which pattern that is.
    ///
    /// Finding the first detecting pattern keeps every pattern below a
    /// fault's lowest observed one alive in its region's walk. A caller
    /// that needs only how many faults are detected, or the coverage,
    /// should call [`n_detect(patterns, 1)`](Self::n_detect) instead:
    /// the same count from walks that stop serving a fault at its first
    /// observed detection, whichever pattern that is.
    pub fn with_dropping(&self, patterns: &PatternSet) -> DropOutcome {
        self.engine().with_dropping(patterns)
    }

    /// n-detection simulation: a fault is retired once detected by `n`
    /// distinct patterns. Counts saturate at `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn n_detect(&self, patterns: &PatternSet, n: u32) -> NDetectOutcome {
        assert!(n > 0, "n-detection requires n >= 1");
        self.engine().n_detect(patterns, n)
    }

    /// Simulates a single input vector against a subset of faults and
    /// returns the detected ones, preserving `active` order.
    ///
    /// This is the single-pattern primitive of the reference ATPG drop
    /// loop (`adi_atpg::TestGenerator::run_reference`). It runs per-fault
    /// propagation: for a single vector the stem-region engine's
    /// per-block setup cost cannot amortize.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the circuit, or if
    /// `scratch` was built for a different netlist (the scratch embeds
    /// the levelized view of its circuit).
    pub fn detect_pattern(
        &self,
        pattern: &Pattern,
        active: &[FaultId],
        scratch: &mut SimScratch,
    ) -> Vec<FaultId> {
        assert_eq!(pattern.len(), self.circuit.netlist().num_inputs());
        let SimScratch { circuit, buf } = scratch;
        let view = circuit.view();
        assert_eq!(
            view.num_nodes(),
            self.circuit.netlist().num_nodes(),
            "scratch built for a different netlist"
        );
        let mut words = std::mem::take(&mut buf.input_words);
        words.clear();
        words.extend(pattern.iter().map(u64::from));
        let mut good = std::mem::take(&mut buf.good_single);
        logic::simulate_block_csr(view, &words, &mut good);
        let detected = active
            .iter()
            .copied()
            .filter(|&id| {
                let fault = self.faults.fault(id);
                detect_block_impl(view, &good, fault, 1, buf) != 0
            })
            .collect();
        buf.good_single = good;
        buf.input_words = words;
        detected
    }

    /// Convenience: does `pattern` detect `fault`?
    ///
    /// Pass a reusable scratch when querying in a loop; with `None` a
    /// fresh [`SimScratch`] over this simulator's compiled circuit is
    /// allocated for this one query.
    pub fn detects(
        &self,
        pattern: &Pattern,
        fault_id: FaultId,
        scratch: Option<&mut SimScratch>,
    ) -> bool {
        match scratch {
            Some(s) => !self.detect_pattern(pattern, &[fault_id], s).is_empty(),
            None => {
                let mut s = SimScratch::for_circuit(&self.circuit);
                !self.detect_pattern(pattern, &[fault_id], &mut s).is_empty()
            }
        }
    }
}

/// Evaluates a gate with one pin overridden to a constant word; `good`
/// and `fanins` are in CSR position space.
#[inline]
pub(crate) fn eval_override_pos(
    good: &[u64],
    kind: GateKind,
    fanins: &[u32],
    pin: usize,
    ov: u64,
) -> u64 {
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
pub(crate) fn detect_block_impl(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use adi_netlist::bench_format;
    use adi_netlist::fault::Fault;

    const C17: &str = "
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

    fn c17() -> Netlist {
        bench_format::parse(C17, "c17").unwrap()
    }

    fn compile(netlist: &Netlist) -> CompiledCircuit {
        CompiledCircuit::compile(netlist.clone())
    }

    /// Brute-force oracle: simulate the faulty circuit explicitly.
    fn oracle_detects(netlist: &Netlist, fault: Fault, pattern: &Pattern) -> bool {
        let good = logic::evaluate(netlist, pattern.as_slice());
        // Faulty evaluation in topo order with explicit overrides.
        let mut faulty = vec![false; netlist.num_nodes()];
        for (i, &pi) in netlist.inputs().iter().enumerate() {
            faulty[pi.index()] = pattern.get(i);
        }
        if let FaultSite::Stem(nf) = fault.site() {
            if netlist.is_input(nf) {
                faulty[nf.index()] = fault.stuck_value();
            }
        }
        for &node in netlist.topo_order() {
            let kind = netlist.kind(node);
            if kind == GateKind::Input {
                continue;
            }
            let vals: Vec<bool> = netlist
                .fanins(node)
                .iter()
                .enumerate()
                .map(|(pin, &f)| {
                    if let FaultSite::Branch { gate, pin: fp } = fault.site() {
                        if gate == node && fp as usize == pin {
                            return fault.stuck_value();
                        }
                    }
                    faulty[f.index()]
                })
                .collect();
            let mut out = kind.eval_bools(&vals);
            if fault.site() == FaultSite::Stem(node) {
                out = fault.stuck_value();
            }
            faulty[node.index()] = out;
        }
        netlist
            .outputs()
            .iter()
            .any(|&o| faulty[o.index()] != good[o.index()])
    }

    #[test]
    fn matches_oracle_on_c17_exhaustive() {
        let n = c17();
        let circuit = compile(&n);
        let faults = FaultList::full(&n);
        let patterns = PatternSet::exhaustive(5);
        let matrices = [
            (
                "stem-region",
                FaultSimulator::for_circuit(&circuit, &faults).no_drop_matrix(&patterns),
            ),
            (
                "reference",
                reference::no_drop_matrix(&circuit, &faults, &patterns),
            ),
        ];
        for (label, matrix) in matrices {
            for (id, fault) in faults.iter() {
                for p in 0..patterns.len() {
                    let pattern = patterns.get(p);
                    assert_eq!(
                        matrix.detected(id, p),
                        oracle_detects(&n, fault, &pattern),
                        "[{label}] fault {fault} pattern {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn c17_exhaustive_full_coverage() {
        // c17 is irredundant: every collapsed fault is detectable.
        let n = c17();
        let circuit = compile(&n);
        let faults = FaultList::collapsed(&n);
        let patterns = PatternSet::exhaustive(5);
        for drop in [
            FaultSimulator::for_circuit(&circuit, &faults).with_dropping(&patterns),
            reference::with_dropping(&circuit, &faults, &patterns),
        ] {
            assert_eq!(drop.num_detected(), faults.len());
            assert!((drop.coverage() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let n = c17();
        let faults = FaultList::full(&n);
        let patterns = PatternSet::random(5, 100, 3);
        let sim = FaultSimulator::for_circuit(&compile(&n), &faults);
        let serial = sim.no_drop_matrix(&patterns);
        for threads in [2, 3, 8] {
            let par = sim.no_drop_matrix_parallel(&patterns, threads);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn engines_agree_on_c17() {
        let n = c17();
        let circuit = compile(&n);
        let faults = FaultList::full(&n);
        let patterns = PatternSet::random(5, 200, 77);
        assert_eq!(
            reference::no_drop_matrix(&circuit, &faults, &patterns),
            FaultSimulator::for_circuit(&circuit, &faults).no_drop_matrix(&patterns)
        );
    }

    #[test]
    fn dropping_matches_no_drop_first_detection() {
        let n = c17();
        let circuit = compile(&n);
        let faults = FaultList::collapsed(&n);
        let patterns = PatternSet::random(5, 70, 9);
        let sim = FaultSimulator::for_circuit(&circuit, &faults);
        let matrix = sim.no_drop_matrix(&patterns);
        for drop in [
            sim.with_dropping(&patterns),
            reference::with_dropping(&circuit, &faults, &patterns),
        ] {
            for id in faults.ids() {
                let expect = matrix.detecting_patterns(id).next().map(|p| p as u32);
                assert_eq!(drop.first_detection[id.index()], expect, "fault {id}");
            }
        }
    }

    #[test]
    fn n_detect_counts_match_matrix() {
        let n = c17();
        let circuit = compile(&n);
        let faults = FaultList::collapsed(&n);
        let patterns = PatternSet::exhaustive(5);
        let sim = FaultSimulator::for_circuit(&circuit, &faults);
        let matrix = sim.no_drop_matrix(&patterns);
        for nd in [
            sim.n_detect(&patterns, 4),
            reference::n_detect(&circuit, &faults, &patterns, 4),
        ] {
            for id in faults.ids() {
                let full = matrix.detection_count(id) as u32;
                assert_eq!(nd.counts[id.index()], full.min(4), "fault {id}");
            }
            assert_eq!(nd.num_detected(), faults.len());
        }
    }

    #[test]
    fn detect_once_coverage_equals_dropping_coverage() {
        let n = c17();
        let circuit = compile(&n);
        for faults in [FaultList::collapsed(&n), FaultList::from_faults(Vec::new())] {
            let sim = FaultSimulator::for_circuit(&circuit, &faults);
            let sets = [1, 7, 300].map(|count| PatternSet::random(5, count, 5));
            for patterns in sets.iter().chain([&PatternSet::new(5)]) {
                let (drop, once) = (sim.with_dropping(patterns), sim.n_detect(patterns, 1));
                let label = format!("{} faults, {} patterns", faults.len(), patterns.len());
                assert_eq!(once.num_detected(), drop.num_detected(), "{label}");
                assert_eq!(once.coverage().to_bits(), drop.coverage().to_bits(), "{label}");
            }
        }
    }

    #[test]
    fn detect_pattern_subset() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let sim = FaultSimulator::for_circuit(&compile(&n), &faults);
        let patterns = PatternSet::exhaustive(5);
        let matrix = sim.no_drop_matrix(&patterns);
        let mut scratch = SimScratch::for_circuit(&compile(&n));
        let active: Vec<FaultId> = faults.ids().collect();
        for p in [0usize, 7, 19, 31] {
            let detected = sim.detect_pattern(&patterns.get(p), &active, &mut scratch);
            let expected: Vec<FaultId> = faults
                .ids()
                .filter(|&id| matrix.detected(id, p))
                .collect();
            assert_eq!(detected, expected, "pattern {p}");
        }
    }

    #[test]
    fn undetectable_fault_reports_nothing() {
        // y = OR(a, NOT(a)) is constant 1: y s-a-1 is undetectable.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let n = bench_format::parse(src, "taut").unwrap();
        let circuit = compile(&n);
        let y = n.find_node("y").unwrap();
        let faults = FaultList::from_faults(vec![Fault::stem_at(y, true)]);
        let patterns = PatternSet::exhaustive(1);
        for drop in [
            FaultSimulator::for_circuit(&circuit, &faults).with_dropping(&patterns),
            reference::with_dropping(&circuit, &faults, &patterns),
        ] {
            assert_eq!(drop.num_detected(), 0);
        }
    }

    #[test]
    fn branch_fault_differs_from_stem() {
        // a fans out to two gates; a branch s-a-0 on one path must not
        // disturb the other path.
        let src = "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUF(a)\nz = BUF(a)\n";
        let n = bench_format::parse(src, "fan").unwrap();
        let ygate = n.find_node("y").unwrap();
        let branch = Fault::branch_at(ygate, 0, false);
        let faults = FaultList::from_faults(vec![branch]);
        let sim = FaultSimulator::for_circuit(&compile(&n), &faults);
        let mut scratch = SimScratch::for_circuit(&compile(&n));
        let p1 = Pattern::new(vec![true]);
        let det = sim.detect_pattern(&p1, &[FaultId::new(0)], &mut scratch);
        assert_eq!(det.len(), 1);
        // With a=0 the branch fault is invisible.
        let p0 = Pattern::new(vec![false]);
        let det = sim.detect_pattern(&p0, &[FaultId::new(0)], &mut scratch);
        assert!(det.is_empty());
    }

    #[test]
    fn detects_with_and_without_scratch() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let sim = FaultSimulator::for_circuit(&compile(&n), &faults);
        let patterns = PatternSet::exhaustive(5);
        let matrix = sim.no_drop_matrix(&patterns);
        let mut scratch = SimScratch::for_circuit(&compile(&n));
        for p in [0usize, 13, 31] {
            let pattern = patterns.get(p);
            for id in faults.ids() {
                let expect = matrix.detected(id, p);
                assert_eq!(sim.detects(&pattern, id, None), expect);
                assert_eq!(sim.detects(&pattern, id, Some(&mut scratch)), expect);
            }
        }
    }

    #[test]
    fn fault_on_dead_logic_is_never_detected() {
        // `dead` drives nothing: any fault there must report no detection
        // through the reachability-mask early exit.
        let src = "INPUT(a)\nINPUT(x)\nOUTPUT(y)\ndead = NOT(x)\ny = BUF(a)\n";
        let n = bench_format::parse(src, "dead").unwrap();
        let dead = n.find_node("dead").unwrap();
        let x = n.find_node("x").unwrap();
        let faults = FaultList::from_faults(vec![
            Fault::stem_at(dead, false),
            Fault::stem_at(dead, true),
            Fault::stem_at(x, false),
            Fault::stem_at(x, true),
        ]);
        let circuit = compile(&n);
        let patterns = PatternSet::exhaustive(2);
        for matrix in [
            FaultSimulator::for_circuit(&circuit, &faults).no_drop_matrix(&patterns),
            reference::no_drop_matrix(&circuit, &faults, &patterns),
        ] {
            for id in faults.ids() {
                assert!(!matrix.detected_any(id), "fault {id}");
            }
        }
    }

    #[test]
    fn drop_outcome_new_detections_sum() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let patterns = PatternSet::exhaustive(5);
        let sim = FaultSimulator::for_circuit(&compile(&n), &faults);
        let drop = sim.with_dropping(&patterns);
        let news = drop.new_detections(patterns.len());
        let total: u32 = news.iter().sum();
        assert_eq!(total as usize, drop.num_detected());
    }
}
