//! Stuck-at fault simulation.
//!
//! [`FaultSimulator`] is the two-level stem-region engine, whose drive
//! modes and hot loops live in [`stem`](mod@crate::stem), on the
//! cache-friendly [`LevelizedCsr`](adi_netlist::LevelizedCsr) position
//! space: inside each fanout-free region every fault's detectability at
//! the FFR stem is computed bit-parallelly from forward sensitization
//! words (no event queue), then a single observability propagation *per
//! stem* carries the effect to the outputs. Cost: one cone walk *per
//! FFR* per superblock, an asymptotic win over classic PPSFP (one cone
//! walk *per fault* per block) since regions average several faults
//! each. PPSFP survives only in [`reference`](mod@crate::reference), as
//! the differential oracle of every drive mode and as the single-pattern
//! [`PatternSim`](crate::reference::PatternSim) of the reference ATPG
//! drop loop.
//!
//! Three drive modes are offered by [`FaultSimulator`]:
//!
//! * [`FaultSimulator::no_drop_matrix`] — full simulation **without fault
//!   dropping**, producing the [`DetectionMatrix`](crate::DetectionMatrix)
//!   from which the paper computes `ndet(u)` and `D(f)`.
//! * [`FaultSimulator::with_dropping`] — classic coverage simulation where
//!   each fault is dropped at its first detection, reporting which
//!   pattern that is.
//! * [`FaultSimulator::n_detect`] — drop after `n` detections, the cheaper
//!   estimate the paper mentions as an alternative to no-drop simulation.
//!   At `n = 1` it is the cheapest way to a coverage figure.

use std::sync::Arc;

use adi_netlist::fault::FaultList;
use adi_netlist::{CompiledCircuit, FaultRegionIndex};

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

/// The stuck-at fault simulator for one compiled circuit and fault list:
/// the two-level stem-region engine.
///
/// Building one is cheap for the compilation's own fault lists (an `Arc`
/// bump of the compilation and of its memoized [`FaultRegionIndex`]), so
/// building one simulator per pattern set is fine. Any other list gets
/// its index built with the simulator.
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
    pub(crate) circuit: CompiledCircuit,
    pub(crate) faults: &'a FaultList,
    /// The fault list grouped by FFR root, with its sensitization path
    /// marks and the per-position readers.
    pub(crate) regions: Arc<FaultRegionIndex>,
}

impl<'a> FaultSimulator<'a> {
    /// Creates a simulator for `faults` of `circuit`. The levelized view,
    /// the FFR decomposition and, for the compilation's own fault lists,
    /// the [`FaultRegionIndex`] are shared from the compilation (see
    /// [`CompiledCircuit::fault_region_index`]).
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
            regions: circuit.fault_region_index(faults),
        }
    }

    /// The fault-region index the simulator runs on: the compilation's
    /// shared index when the fault list is one of its own.
    pub fn fault_regions(&self) -> &Arc<FaultRegionIndex> {
        &self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, PatternSim};
    use crate::{logic, Pattern, PatternSet};
    use adi_netlist::bench_format;
    use adi_netlist::fault::{Fault, FaultId, FaultSite};
    use adi_netlist::{GateKind, Netlist};

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
        let circuit = compile(&n);
        let patterns = PatternSet::exhaustive(5);
        let matrix = FaultSimulator::for_circuit(&circuit, &faults).no_drop_matrix(&patterns);
        let mut sim = PatternSim::for_circuit(&circuit, &faults);
        let active: Vec<FaultId> = faults.ids().collect();
        for p in [0usize, 7, 19, 31] {
            let detected = sim.detect(&patterns.get(p), &active);
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
        let mut sim = PatternSim::for_circuit(&compile(&n), &faults);
        let p1 = Pattern::new(vec![true]);
        let det = sim.detect(&p1, &[FaultId::new(0)]);
        assert_eq!(det.len(), 1);
        // With a=0 the branch fault is invisible.
        let p0 = Pattern::new(vec![false]);
        let det = sim.detect(&p0, &[FaultId::new(0)]);
        assert!(det.is_empty());
    }

    #[test]
    fn detects_with_and_without_scratch() {
        // One single-pattern simulator reused across queries (its
        // scratch stamps carry over) and a fresh one per query must
        // both answer as the matrix does.
        let n = c17();
        let circuit = compile(&n);
        let faults = FaultList::collapsed(&n);
        let patterns = PatternSet::exhaustive(5);
        let matrix = FaultSimulator::for_circuit(&circuit, &faults).no_drop_matrix(&patterns);
        let mut reused = PatternSim::for_circuit(&circuit, &faults);
        for p in [0usize, 13, 31] {
            let pattern = patterns.get(p);
            for id in faults.ids() {
                let expect = matrix.detected(id, p);
                let fresh = PatternSim::for_circuit(&circuit, &faults).detect(&pattern, &[id]);
                assert_eq!(!fresh.is_empty(), expect);
                assert_eq!(!reused.detect(&pattern, &[id]).is_empty(), expect);
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

    #[test]
    #[should_panic(expected = "outside netlist")]
    fn faults_of_a_larger_netlist_panic() {
        let larger = FaultList::full(&c17());
        let small = bench_format::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "inv").unwrap();
        let _ = FaultSimulator::for_circuit(&compile(&small), &larger);
    }
}
