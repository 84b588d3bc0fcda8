//! Reverse-order compaction against the per-test loop it replaced.
//!
//! `adi::core::reorder::reverse_order_compaction_for` keeps a test iff
//! it detects some fault that no later test detects: one dropping
//! simulation of the reversed set on the stem-region engine. The oracle
//! here is the loop the function used to run: one single-pattern
//! simulation (`reference::PatternSim::detect`) per test, last to
//! first, over the faults no later test has detected. The kept indices
//! must be identical, on the paper suite through
//! irs1196, for ATPG test sets and random sets, with and without
//! duplicate tests.

use adi::atpg::{TestGenConfig, TestGenerator};
use adi::circuits::paper_suite_up_to;
use adi::core::reorder::reverse_order_compaction_for;
use adi::netlist::fault::{FaultId, FaultList};
use adi::netlist::CompiledCircuit;
use adi::sim::reference::PatternSim;
use adi::sim::PatternSet;

/// The per-test reverse loop: the kept indices, ascending.
fn per_test_loop(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    tests: &PatternSet,
) -> Vec<usize> {
    let mut sim = PatternSim::for_circuit(circuit, faults);
    let mut active: Vec<FaultId> = faults.ids().collect();
    let mut kept = Vec::new();
    for t in (0..tests.len()).rev() {
        if active.is_empty() {
            break;
        }
        let detected = sim.detect(&tests.get(t), &active);
        if !detected.is_empty() {
            kept.push(t);
            active.retain(|id| !detected.contains(id));
        }
    }
    kept.reverse();
    kept
}

/// Two sets with duplicate tests: every test twice in a row, and the
/// whole set followed by a copy of its first half.
fn with_duplicates(tests: &PatternSet) -> [PatternSet; 2] {
    let n = tests.len();
    let pairs: Vec<usize> = (0..n).flat_map(|t| [t, t]).collect();
    let tail: Vec<usize> = (0..n).chain(0..n / 2).collect();
    [tests.subset(&pairs), tests.subset(&tail)]
}

#[test]
fn compaction_matches_per_test_loop_on_suite_circuits() {
    for circuit in paper_suite_up_to(547) {
        let compiled = circuit.compiled();
        let faults = compiled.collapsed_faults();
        let inputs = compiled.netlist().num_inputs();
        let order: Vec<FaultId> = faults.ids().collect();
        let atpg =
            TestGenerator::for_circuit(&compiled, faults, TestGenConfig::default()).run(&order);
        let sets = [
            ("atpg", PatternSet::from_patterns(inputs, &atpg.tests)),
            ("random", PatternSet::random(inputs, 300, circuit.seed)),
        ];
        for (kind, tests) in sets {
            let [paired, repeated] = with_duplicates(&tests);
            let shapes = [("as generated", tests), ("paired", paired), ("half repeated", repeated)];
            for (shape, tests) in shapes {
                assert_eq!(
                    reverse_order_compaction_for(&compiled, faults, &tests),
                    per_test_loop(&compiled, faults, &tests),
                    "{} {kind} set {shape}, {} tests",
                    circuit.name,
                    tests.len()
                );
            }
        }
    }
}

#[test]
fn compaction_of_an_empty_set_keeps_nothing() {
    let compiled = paper_suite_up_to(547)[0].compiled();
    let faults = compiled.collapsed_faults();
    let empty = PatternSet::new(compiled.netlist().num_inputs());
    assert!(reverse_order_compaction_for(&compiled, faults, &empty).is_empty());
    assert!(per_test_loop(&compiled, faults, &empty).is_empty());
}
