//! Property-based cross-validation between independent implementations:
//! the bit-parallel simulator vs. scalar evaluation, and PODEM vs.
//! exhaustive fault simulation.

use adi::atpg::{FillStrategy, Podem, PodemConfig, PodemOutcome};
use adi::circuits::{random_circuit, RandomCircuitConfig};
use adi::netlist::fault::FaultList;
use adi::netlist::{CompiledCircuit, Netlist};
use adi::sim::{logic, FaultSimulator, GoodValues, PatternSet};
use proptest::prelude::*;

/// Strategy: a random circuit recipe small enough for exhaustive checks.
fn tiny_circuit() -> impl Strategy<Value = Netlist> {
    (2usize..=8, 4usize..=30, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        random_circuit(&RandomCircuitConfig::new("prop", inputs, gates, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_and_scalar_simulation_agree(netlist in tiny_circuit(), seed in any::<u64>()) {
        let patterns = PatternSet::random(netlist.num_inputs(), 96, seed);
        let good = GoodValues::for_circuit(&CompiledCircuit::compile(netlist.clone()), &patterns);
        for p in [0usize, 63, 64, 95] {
            let scalar = logic::evaluate(&netlist, patterns.get(p).as_slice());
            for node in netlist.node_ids() {
                prop_assert_eq!(good.value(node, p), scalar[node.index()]);
            }
        }
    }

    #[test]
    fn podem_tests_are_sound(netlist in tiny_circuit()) {
        // Every test PODEM produces must actually detect its target under
        // both all-zeros and all-ones completion.
        let circuit = CompiledCircuit::compile(netlist.clone());
        let faults = FaultList::collapsed(&netlist);
        let sim = FaultSimulator::for_circuit(&circuit, &faults);
        let mut scratch = adi::sim::SimScratch::for_circuit(&circuit);
        let mut podem = Podem::for_circuit(&circuit, PodemConfig::default());
        for (id, fault) in faults.iter() {
            if let PodemOutcome::Test(cube) = podem.generate(fault) {
                for fill in [FillStrategy::Zeros, FillStrategy::Ones] {
                    let pattern = fill.fill(&cube, 0);
                    prop_assert!(
                        sim.detects(&pattern, id, Some(&mut scratch)),
                        "fault {} escaped its own test", fault
                    );
                }
            }
        }
    }

    #[test]
    fn podem_verdicts_match_exhaustive_simulation(netlist in tiny_circuit()) {
        // For <= 8 inputs, exhaustive fault simulation is ground truth for
        // testability. PODEM (with a generous backtrack budget) must agree.
        let faults = FaultList::collapsed(&netlist);
        let patterns = PatternSet::exhaustive(netlist.num_inputs());
        let circuit = CompiledCircuit::compile(netlist.clone());
        let matrix = FaultSimulator::for_circuit(&circuit, &faults).no_drop_matrix(&patterns);
        let mut podem = Podem::for_circuit(
            &circuit,
            PodemConfig {
                backtrack_limit: 10_000,
                ..PodemConfig::default()
            },
        );
        for (id, fault) in faults.iter() {
            let truly_testable = matrix.detected_any(id);
            match podem.generate(fault) {
                PodemOutcome::Test(_) => prop_assert!(
                    truly_testable,
                    "PODEM 'found a test' for undetectable {}", fault
                ),
                PodemOutcome::Untestable => prop_assert!(
                    !truly_testable,
                    "PODEM wrongly proved {} redundant", fault
                ),
                PodemOutcome::Aborted => { /* inconclusive is acceptable */ }
            }
        }
    }

    #[test]
    fn equivalence_classes_share_detection_rows(netlist in tiny_circuit()) {
        // Structurally equivalent faults must be detected by exactly the
        // same exhaustive vectors.
        let patterns = PatternSet::exhaustive(netlist.num_inputs());
        let classes = adi::netlist::fault::equivalence_classes(&netlist);
        let full = FaultList::full(&netlist);
        let matrix = FaultSimulator::for_circuit(&CompiledCircuit::compile(netlist.clone()), &full)
            .no_drop_matrix(&patterns);
        for class in classes {
            let rows: Vec<Vec<usize>> = class
                .iter()
                .map(|&f| {
                    let id = full.position(f).expect("fault in full list");
                    matrix.detecting_patterns(id).collect()
                })
                .collect();
            for pair in rows.windows(2) {
                prop_assert_eq!(&pair[0], &pair[1], "class {:?} diverges", class);
            }
        }
    }

    #[test]
    fn dropping_is_consistent_with_no_drop(netlist in tiny_circuit(), seed in any::<u64>()) {
        let faults = FaultList::collapsed(&netlist);
        let patterns = PatternSet::random(netlist.num_inputs(), 128, seed);
        let sim = FaultSimulator::for_circuit(&CompiledCircuit::compile(netlist.clone()), &faults);
        let matrix = sim.no_drop_matrix(&patterns);
        let drop = sim.with_dropping(&patterns);
        for id in faults.ids() {
            let expected = matrix.detecting_patterns(id).next().map(|p| p as u32);
            prop_assert_eq!(drop.first_detection[id.index()], expected);
        }
    }
}
