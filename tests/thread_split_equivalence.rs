//! The thread-split lattice: the stem-region engine's serial run and
//! every parallel split of its no-drop matrix (automatic,
//! block-parallel and region-parallel) at every thread count (1, 2, 4)
//! must produce detection matrices, dropping outcomes, and n-detection
//! counts **bit-identical** to the per-fault reference
//! (`adi::sim::reference`, one event-driven walk per fault per
//! 64-pattern block) — on the embedded circuits, the paper-suite
//! stand-ins, and random circuits, at pattern counts on both sides of
//! every 64-pattern lane and 256-pattern superblock boundary.

use adi::circuits::{embedded, paper_suite, random_circuit, RandomCircuitConfig};
use adi::netlist::fault::FaultList;
use adi::netlist::{CompiledCircuit, Netlist};
use adi::sim::{reference, FaultSimulator, PatternSet, StemRegionEngine};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 4];

/// Asserts the full lattice for one circuit/fault/pattern workload: the
/// serial run, dropping order and n-detect counts, and the automatic,
/// block-parallel and region-parallel splits at every thread count.
fn assert_lattice(netlist: &Netlist, patterns: &PatternSet, collapse: bool, label: &str) {
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = if collapse {
        FaultList::collapsed(netlist)
    } else {
        FaultList::full(netlist)
    };
    let matrix = reference::no_drop_matrix(&circuit, &faults, patterns);
    let sim = FaultSimulator::for_circuit(&circuit, &faults);
    assert_eq!(sim.no_drop_matrix(patterns), matrix, "{label} serial");
    assert_eq!(
        sim.with_dropping(patterns),
        reference::with_dropping(&circuit, &faults, patterns),
        "{label} dropping"
    );
    assert_eq!(
        sim.n_detect(patterns, 3),
        reference::n_detect(&circuit, &faults, patterns, 3),
        "{label} n-detect"
    );
    let engine = StemRegionEngine::for_circuit(&circuit, &faults);
    for threads in THREADS {
        assert_eq!(
            sim.no_drop_matrix_parallel(patterns, threads),
            matrix,
            "{label} auto x{threads}"
        );
        assert_eq!(
            engine.no_drop_matrix_block_parallel(patterns, threads),
            matrix,
            "{label} block x{threads}"
        );
        assert_eq!(
            engine.no_drop_matrix_region_parallel(patterns, threads),
            matrix,
            "{label} region x{threads}"
        );
    }
}

/// Every embedded circuit, exhaustively and under random patterns.
#[test]
fn splits_match_reference_on_embedded_circuits() {
    for netlist in embedded::all() {
        for patterns in [
            PatternSet::exhaustive(netlist.num_inputs()),
            PatternSet::random(netlist.num_inputs(), 200, 0x51DE),
        ] {
            assert_lattice(&netlist, &patterns, false, netlist.name());
        }
    }
}

/// Every paper-suite stand-in (pattern counts chosen to cross two
/// superblock boundaries on the smaller circuits while keeping
/// debug-mode time bounded on the big ones).
#[test]
fn splits_match_reference_on_suite_circuits() {
    for circuit in paper_suite() {
        let netlist = circuit.netlist();
        let n_patterns = if circuit.gates > 600 { 96 } else { 600 };
        let patterns =
            PatternSet::random(netlist.num_inputs(), n_patterns, 0x1A77 ^ circuit.seed);
        assert_lattice(&netlist, &patterns, true, circuit.name);
    }
}

/// Pattern counts straddling 64-pattern lane and 256-pattern
/// superblock boundaries: partial final blocks are where the valid-mask
/// logic can go wrong.
#[test]
fn splits_match_reference_at_block_boundaries() {
    let netlist = embedded::c17();
    for n_patterns in [1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513] {
        let patterns = PatternSet::random(netlist.num_inputs(), n_patterns, n_patterns as u64);
        assert_lattice(&netlist, &patterns, false, &format!("c17@{n_patterns}"));
    }
}

fn tiny_circuit() -> impl Strategy<Value = Netlist> {
    (2usize..=6, 4usize..=35, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        random_circuit(&RandomCircuitConfig::new("prop", inputs, gates, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits, random patterns, the full lattice.
    #[test]
    fn differential_thread_lattice(
        netlist in tiny_circuit(),
        seed in any::<u64>(),
        n_patterns in 1usize..=160,
    ) {
        let patterns = PatternSet::random(netlist.num_inputs(), n_patterns, seed);
        assert_lattice(&netlist, &patterns, false, "prop");
    }
}
