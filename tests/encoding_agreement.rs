//! Encoding agreement: `cnf::prove_fault` (the fault miter plus its
//! active-path clauses) and `cnf::prove_fault_reference` (the plain
//! miter) must return the same verdict on every fault covered here, and
//! every `Testable` cube of `prove_fault` must detect its fault when
//! re-simulated.
//!
//! The miter implies the active-path clauses, so any disagreement is an
//! encoding bug: a clause that rejects a real test (a testable fault
//! called redundant) or one that admits a non-test (a cube that detects
//! nothing). Coverage: every collapsed fault of the embedded circuits,
//! of the paper suite through irs1196 and of the benchmark's
//! `aborts800` recipe (60 inputs, 800 gates, seed 1001); in release
//! builds also a fixed sample of irs13207's collapsed faults.

use adi::atpg::cnf::{prove_fault, prove_fault_reference, DEFAULT_CONFLICT_LIMIT};
use adi::atpg::FaultVerdict;
use adi::circuits::{embedded, paper_suite, random_circuit, RandomCircuitConfig};
use adi::netlist::fault::{Fault, FaultId};
use adi::netlist::CompiledCircuit;
use adi::sim::faultsim::SimScratch;
use adi::sim::{FaultSimulator, Pattern};

/// Verdict counts of one circuit: `(testable, redundant)`.
fn assert_encodings_agree(
    circuit: &CompiledCircuit,
    faults: impl IntoIterator<Item = (FaultId, Fault)>,
) -> (usize, usize) {
    let name = circuit.netlist().name();
    let sim = FaultSimulator::for_circuit(circuit, circuit.collapsed_faults());
    let mut scratch = SimScratch::for_circuit(circuit);
    let (mut testable, mut redundant) = (0, 0);
    for (id, fault) in faults {
        let verdict = prove_fault(circuit, fault, DEFAULT_CONFLICT_LIMIT);
        let reference = prove_fault_reference(circuit, fault, DEFAULT_CONFLICT_LIMIT);
        match (verdict, reference) {
            (FaultVerdict::Testable(cube), FaultVerdict::Testable(_)) => {
                assert_eq!(
                    cube.specified_count(),
                    cube.len(),
                    "{name}: {fault}: {cube:?}"
                );
                let pattern =
                    Pattern::new((0..cube.len()).map(|i| cube.get(i) == Some(true)).collect());
                assert!(
                    sim.detects(&pattern, id, Some(&mut scratch)),
                    "{name}: the cube for {fault} does not detect it: {cube:?}"
                );
                testable += 1;
            }
            (FaultVerdict::Redundant, FaultVerdict::Redundant) => redundant += 1,
            (verdict, reference) => {
                panic!("{name}: {fault}: active-path encoding {verdict:?}, reference {reference:?}")
            }
        }
    }
    (testable, redundant)
}

fn all_collapsed(circuit: &CompiledCircuit) -> (usize, usize) {
    assert_encodings_agree(circuit, circuit.collapsed_faults().iter())
}

#[test]
fn embedded_circuits_agree() {
    for netlist in embedded::all() {
        let (testable, _) = all_collapsed(&CompiledCircuit::compile(netlist));
        assert!(testable > 0);
    }
}

/// Verdict totals over the suite circuits with `gates` in `range`.
fn suite_agrees(range: std::ops::RangeInclusive<usize>) -> (usize, usize) {
    let mut totals = (0, 0);
    for paper in paper_suite()
        .into_iter()
        .filter(|c| range.contains(&c.gates))
    {
        let (testable, redundant) = all_collapsed(&paper.compiled());
        totals = (totals.0 + testable, totals.1 + redundant);
    }
    totals
}

/// irs208 through irs526. Both verdicts occur in bulk, so a clause bug
/// in either direction shows.
#[test]
fn paper_suite_through_irs526_agrees() {
    let (testable, redundant) = suite_agrees(0..=240);
    assert!(
        testable > 1_000 && redundant > 100,
        "{testable} testable, {redundant} redundant"
    );
}

/// irs641 through irs1196 (a test of their own, so the two halves of
/// the suite run in parallel).
#[test]
fn paper_suite_irs641_through_irs1196_agrees() {
    let (testable, redundant) = suite_agrees(241..=547);
    assert!(
        testable > 1_000 && redundant > 100,
        "{testable} testable, {redundant} redundant"
    );
}

#[test]
fn aborts800_recipe_agrees() {
    let netlist = random_circuit(&RandomCircuitConfig::new("aborts800", 60, 800, 1001));
    let (testable, redundant) = all_collapsed(&CompiledCircuit::compile(netlist));
    assert!(
        testable > 500 && redundant > 50,
        "{testable} testable, {redundant} redundant"
    );
}

/// Every 100th collapsed fault of irs13207 (over 200 faults).
#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn irs13207_sample_agrees() {
    let paper = paper_suite()
        .into_iter()
        .find(|c| c.name == "irs13207")
        .unwrap();
    let circuit = paper.compiled();
    let sample: Vec<(FaultId, Fault)> = circuit.collapsed_faults().iter().step_by(100).collect();
    assert!(sample.len() >= 200, "{}", sample.len());
    let (testable, redundant) = assert_encodings_agree(&circuit, sample);
    assert!(
        testable > 0 && redundant > 0,
        "{testable} testable, {redundant} redundant"
    );
}
