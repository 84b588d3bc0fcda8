//! The wide-word test lattice: every simulation width (1, 2, 4, 8
//! lanes) at every thread count (1, 2, 4) must produce detection
//! matrices, dropping outcomes, and n-detection counts **bit-identical**
//! to the 64-bit single-thread oracle — on the embedded circuits, the
//! paper-suite stand-ins, and random circuits.
//!
//! The oracle is the stem-region engine at `SimWidth::W1` on one thread
//! (itself pinned to the per-fault reference and the scalar oracle by
//! `engine_equivalence.rs`), so this suite extends that chain of
//! equivalence to the whole (width × threads) lattice, including the
//! region-parallel split.

use adi::circuits::{embedded, paper_suite, random_circuit, RandomCircuitConfig};
use adi::netlist::fault::FaultList;
use adi::netlist::{CompiledCircuit, Netlist};
use adi::sim::{DetectionMatrix, FaultSimulator, PatternSet, SimWidth, StemRegionEngine};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 4];

/// The oracle triple at one lane, one thread.
fn oracle(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
    n: u32,
) -> (DetectionMatrix, adi::sim::DropOutcome, adi::sim::NDetectOutcome) {
    let sim = FaultSimulator::for_circuit(circuit, faults).with_width(SimWidth::W1);
    (
        sim.no_drop_matrix(patterns),
        sim.with_dropping(patterns),
        sim.n_detect(patterns, n),
    )
}

/// Asserts the full lattice for one circuit/fault/pattern workload:
/// every width serial, block-parallel, and region-parallel at every
/// thread count, plus dropping order and n-detect counts per width.
fn assert_lattice(netlist: &Netlist, patterns: &PatternSet, collapse: bool, label: &str) {
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = if collapse {
        FaultList::collapsed(netlist)
    } else {
        FaultList::full(netlist)
    };
    let (matrix, drop, ndet) = oracle(&circuit, &faults, patterns, 3);
    for width in SimWidth::ALL {
        let sim = FaultSimulator::for_circuit(&circuit, &faults).with_width(width);
        assert_eq!(sim.no_drop_matrix(patterns), matrix, "{label} {width} serial");
        assert_eq!(sim.with_dropping(patterns), drop, "{label} {width} dropping");
        assert_eq!(sim.n_detect(patterns, 3), ndet, "{label} {width} n-detect");
        let engine = StemRegionEngine::for_circuit(&circuit, &faults).with_width(width);
        for threads in THREADS {
            assert_eq!(
                sim.no_drop_matrix_parallel(patterns, threads),
                matrix,
                "{label} {width} auto x{threads}"
            );
            assert_eq!(
                engine.no_drop_matrix_block_parallel(patterns, threads),
                matrix,
                "{label} {width} block x{threads}"
            );
            assert_eq!(
                engine.no_drop_matrix_region_parallel(patterns, threads),
                matrix,
                "{label} {width} region x{threads}"
            );
        }
    }
}

/// Every embedded circuit, exhaustively and under random patterns.
#[test]
fn widths_identical_on_embedded_circuits() {
    for netlist in embedded::all() {
        for patterns in [
            PatternSet::exhaustive(netlist.num_inputs()),
            PatternSet::random(netlist.num_inputs(), 200, 0x51DE),
        ] {
            assert_lattice(&netlist, &patterns, false, netlist.name());
        }
    }
}

/// Every paper-suite stand-in (pattern counts chosen to cross at least
/// one superblock boundary at the widest lane on the smaller circuits
/// while keeping debug-mode time bounded on the big ones).
#[test]
fn widths_identical_on_suite_circuits() {
    for circuit in paper_suite() {
        let netlist = circuit.netlist();
        let n_patterns = if circuit.gates > 600 { 96 } else { 600 };
        let patterns =
            PatternSet::random(netlist.num_inputs(), n_patterns, 0x1A77 ^ circuit.seed);
        assert_lattice(&netlist, &patterns, true, circuit.name);
    }
}

/// Pattern counts straddling every lane-word boundary: partial final
/// superblocks are where the valid-mask logic can go wrong.
#[test]
fn widths_identical_at_block_boundaries() {
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
    fn differential_width_thread_lattice(
        netlist in tiny_circuit(),
        seed in any::<u64>(),
        n_patterns in 1usize..=160,
    ) {
        let patterns = PatternSet::random(netlist.num_inputs(), n_patterns, seed);
        assert_lattice(&netlist, &patterns, false, "prop");
    }
}
