//! Exact-equivalence obligations of the stem-region engine behind
//! `FaultSimulator`: its `DetectionMatrix` (and dropping / n-detection
//! outcomes) must be bit-identical to the per-fault PPSFP reference
//! (`adi::sim::reference`) on every circuit, and both must match a
//! scalar brute-force oracle on small cases.

use adi::circuits::{embedded, paper_suite, random_circuit, RandomCircuitConfig};
use adi::netlist::fault::{Fault, FaultList, FaultSite};
use adi::netlist::{CompiledCircuit, GateKind, Netlist};
use adi::sim::{logic, reference, FaultSimulator, Pattern, PatternSet, StemRegionEngine};
use proptest::prelude::*;

fn matrices_for(
    netlist: &Netlist,
    faults: &FaultList,
    patterns: &PatternSet,
) -> (adi::sim::DetectionMatrix, adi::sim::DetectionMatrix) {
    let circuit = CompiledCircuit::compile(netlist.clone());
    let per_fault = reference::no_drop_matrix(&circuit, faults, patterns);
    let stem = FaultSimulator::for_circuit(&circuit, faults).no_drop_matrix(patterns);
    (per_fault, stem)
}

/// Scalar oracle: evaluate the faulty circuit explicitly, one pattern at
/// a time.
fn oracle_detects(netlist: &Netlist, fault: Fault, pattern: &Pattern) -> bool {
    let good = logic::evaluate(netlist, pattern.as_slice());
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

/// The acceptance gate of the stem-region engine: bit-identical
/// detection matrices on every embedded circuit.
#[test]
fn engines_identical_on_embedded_circuits() {
    for netlist in embedded::all() {
        let faults = FaultList::full(&netlist);
        for patterns in [
            PatternSet::exhaustive(netlist.num_inputs()),
            PatternSet::random(netlist.num_inputs(), 200, 0xADE1),
        ] {
            let (per_fault, stem) = matrices_for(&netlist, &faults, &patterns);
            assert_eq!(per_fault, stem, "{}", netlist.name());
        }
    }
}

/// ... and on every synthetic paper-suite stand-in, up to and including
/// the largest (one 64-pattern block keeps debug-mode time bounded for
/// the two big circuits; the smaller ones get several blocks).
#[test]
fn engines_identical_on_every_suite_circuit() {
    for circuit in paper_suite() {
        let netlist = circuit.netlist();
        let faults = FaultList::collapsed(&netlist);
        let n_patterns = if circuit.gates > 600 { 64 } else { 192 };
        let patterns = PatternSet::random(netlist.num_inputs(), n_patterns, 0x5EED ^ circuit.seed);
        let (per_fault, stem) = matrices_for(&netlist, &faults, &patterns);
        assert_eq!(per_fault, stem, "{}", circuit.name);
    }
}

#[test]
fn drive_modes_identical_on_suite_sample() {
    for circuit in paper_suite().into_iter().filter(|c| c.gates <= 300) {
        let netlist = circuit.netlist();
        let faults = FaultList::collapsed(&netlist);
        let patterns = PatternSet::random(netlist.num_inputs(), 256, 7);
        let compiled = CompiledCircuit::compile(netlist.clone());
        let stem = FaultSimulator::for_circuit(&compiled, &faults);
        assert_eq!(
            reference::with_dropping(&compiled, &faults, &patterns),
            stem.with_dropping(&patterns),
            "{} dropping",
            circuit.name
        );
        for n in [1, 3, 16] {
            assert_eq!(
                reference::n_detect(&compiled, &faults, &patterns, n),
                stem.n_detect(&patterns, n),
                "{} n_detect({n})",
                circuit.name
            );
        }
    }
}

#[test]
fn parallel_identical_across_engines_and_threads() {
    let circuit = &paper_suite()[0]; // irs208
    let netlist = circuit.netlist();
    let faults = FaultList::collapsed(&netlist);
    let patterns = PatternSet::random(netlist.num_inputs(), 300, 13);
    let (serial, _) = matrices_for(&netlist, &faults, &patterns);
    let circuit = CompiledCircuit::compile(netlist.clone());
    let sim = FaultSimulator::for_circuit(&circuit, &faults);
    for threads in [1, 2, 5, 16] {
        assert_eq!(
            serial,
            sim.no_drop_matrix_parallel(&patterns, threads),
            "x{threads}"
        );
    }
}

/// A prebuilt engine reused across pattern sets behaves like fresh ones.
#[test]
fn prebuilt_engine_is_reusable() {
    let netlist = embedded::c17();
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = FaultList::full(&netlist);
    let engine = StemRegionEngine::for_circuit(&circuit, &faults);
    for seed in [1u64, 2, 3] {
        let patterns = PatternSet::random(netlist.num_inputs(), 100, seed);
        let fresh = reference::no_drop_matrix(&circuit, &faults, &patterns);
        assert_eq!(engine.no_drop_matrix(&patterns), fresh, "seed {seed}");
    }
}

fn tiny_circuit() -> impl Strategy<Value = Netlist> {
    (2usize..=6, 4usize..=35, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        random_circuit(&RandomCircuitConfig::new("prop", inputs, gates, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random circuits, random patterns: the three implementations (stem
    /// region, per-fault reference, scalar oracle) must agree everywhere.
    #[test]
    fn differential_stem_vs_per_fault_vs_oracle(
        netlist in tiny_circuit(),
        seed in any::<u64>(),
        n_patterns in 1usize..=96,
    ) {
        let faults = FaultList::full(&netlist);
        let patterns = PatternSet::random(netlist.num_inputs(), n_patterns, seed);
        let (per_fault, stem) = matrices_for(&netlist, &faults, &patterns);
        prop_assert_eq!(&per_fault, &stem);
        // The scalar oracle is O(faults * patterns * nodes): check a
        // bounded slice of patterns on every case.
        for p in 0..patterns.len().min(8) {
            let pattern = patterns.get(p);
            for (id, fault) in faults.iter() {
                prop_assert_eq!(
                    stem.detected(id, p),
                    oracle_detects(&netlist, fault, &pattern),
                    "fault {} pattern {}", fault, p
                );
            }
        }
    }

    /// Dropping and n-detection outcomes agree on random circuits too.
    #[test]
    fn differential_drive_modes(netlist in tiny_circuit(), seed in any::<u64>()) {
        let faults = FaultList::collapsed(&netlist);
        let patterns = PatternSet::random(netlist.num_inputs(), 130, seed);
        let circuit = CompiledCircuit::compile(netlist.clone());
        let stem = FaultSimulator::for_circuit(&circuit, &faults);
        prop_assert_eq!(
            reference::with_dropping(&circuit, &faults, &patterns),
            stem.with_dropping(&patterns)
        );
        prop_assert_eq!(
            reference::n_detect(&circuit, &faults, &patterns, 4),
            stem.n_detect(&patterns, 4)
        );
    }
}
