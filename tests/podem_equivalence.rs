//! Exact-equivalence obligations of the event-driven PODEM search
//! (`Podem::generate`): for every target fault it must produce the
//! **same outcome** (test cube, untestability proof, or abort), and the
//! same decision/backtrack counts, as the full-resimulation reference
//! (`Podem::generate_reference`) — on embedded circuits, the synthetic
//! paper suite, and arbitrary random circuits under arbitrary backtrack
//! limits. The whole ordered-ATPG driver (`TestGenerator::run`) must
//! likewise be bit-identical to its reference
//! (`TestGenerator::run_reference`).

use adi::atpg::{Podem, PodemConfig, TestGenConfig, TestGenResult, TestGenerator};
use adi::circuits::{embedded, paper_suite, random_circuit, RandomCircuitConfig};
use adi::netlist::fault::{FaultId, FaultList};
use adi::netlist::{CompiledCircuit, Netlist};
use adi::sim::PatternSet;
use proptest::prelude::*;

/// Runs every fault through both searches and asserts
/// outcome-for-outcome (and cumulative-stats) equality. Returns the two
/// searches' simulation event counts.
fn assert_engine_parity(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    backtrack_limit: u32,
    label: &str,
) -> (u64, u64) {
    let config = PodemConfig {
        backtrack_limit,
        ..PodemConfig::default()
    };
    let mut full = Podem::for_circuit(circuit, config);
    let mut event = Podem::for_circuit(circuit, config);
    for (_, fault) in faults.iter() {
        let a = full.generate_reference(fault);
        let b = event.generate(fault);
        assert_eq!(a, b, "{label}: outcome differs for {fault}");
        assert_eq!(
            full.stats().search_counters(),
            event.stats().search_counters(),
            "{label}: running stats diverged at {fault}"
        );
    }
    (event.stats().sim_events, full.stats().sim_events)
}

/// Bit-identical `TestGenResult`s modulo the simulation diagnostics.
fn assert_testgen_parity(a: &TestGenResult, b: &TestGenResult, label: &str) {
    assert_eq!(a.tests, b.tests, "{label}: test sets differ");
    assert_eq!(a.targets, b.targets, "{label}: targets differ");
    assert_eq!(
        a.new_detections, b.new_detections,
        "{label}: detection counts differ"
    );
    assert_eq!(a.status, b.status, "{label}: classifications differ");
    assert_eq!(
        a.podem_stats.search_counters(),
        b.podem_stats.search_counters(),
        "{label}: PODEM stats differ"
    );
}

#[test]
fn engines_identical_on_embedded_circuits() {
    for netlist in embedded::all() {
        let circuit = CompiledCircuit::compile(netlist.clone());
        let faults = FaultList::full(&netlist);
        let (event_events, full_events) =
            assert_engine_parity(&circuit, &faults, 1000, netlist.name());
        assert!(
            event_events < full_events,
            "{}: the event engine should evaluate fewer nodes ({event_events} vs {full_events})",
            netlist.name()
        );
    }
}

#[test]
fn engines_identical_on_suite_circuits() {
    // Full-resim is O(nodes) per decision, so bound debug-mode time by
    // circuit size and fault-count per circuit.
    for circuit in paper_suite().into_iter().filter(|c| c.gates <= 300) {
        let compiled = circuit.compiled();
        let faults = FaultList::from_faults(
            compiled
                .collapsed_faults()
                .iter()
                .take(150)
                .map(|(_, f)| f)
                .collect(),
        );
        assert_engine_parity(&compiled, &faults, 1000, circuit.name);
    }
}

#[test]
fn engines_identical_under_tight_backtrack_limits() {
    // Aborts must fire at exactly the same point in both engines.
    let netlist = embedded::c17();
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = FaultList::full(&netlist);
    for limit in [0, 1, 2, 5] {
        assert_engine_parity(&circuit, &faults, limit, &format!("c17 limit={limit}"));
    }
}

#[test]
fn testgen_bit_identical_across_podem_engines() {
    let netlist = embedded::c17();
    let circuit = CompiledCircuit::compile(netlist);
    let faults = circuit.collapsed_faults();
    let fwd: Vec<FaultId> = faults.ids().collect();
    let rev: Vec<FaultId> = fwd.iter().rev().copied().collect();
    let config = TestGenConfig {
        podem: PodemConfig::default(),
        ..TestGenConfig::default()
    };
    let gen = TestGenerator::for_circuit(&circuit, faults, config);
    let no_warmup = PatternSet::new(circuit.netlist().num_inputs());
    for order in [&fwd, &rev] {
        let reference = gen.run_reference(order, &no_warmup);
        assert_testgen_parity(&reference, &gen.run(order), "c17 ordered run");
    }
}

fn tiny_circuit() -> impl Strategy<Value = Netlist> {
    (2usize..=6, 4usize..=35, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        random_circuit(&RandomCircuitConfig::new("prop", inputs, gates, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Arbitrary circuits, arbitrary fault subsets, arbitrary backtrack
    /// limits: outcome-for-outcome equality, cubes and stats included.
    #[test]
    fn differential_event_vs_full_resim(
        netlist in tiny_circuit(),
        limit in (0usize..5).prop_map(|i| [0u32, 1, 3, 10, 1000][i]),
        stride in 1usize..=3,
    ) {
        let circuit = CompiledCircuit::compile(netlist.clone());
        let all = FaultList::full(&netlist);
        let faults = FaultList::from_faults(
            all.iter().step_by(stride).map(|(_, f)| f).collect(),
        );
        let config = PodemConfig {
            backtrack_limit: limit,
            ..PodemConfig::default()
        };
        let mut full = Podem::for_circuit(&circuit, config);
        let mut event = Podem::for_circuit(&circuit, config);
        for (_, fault) in faults.iter() {
            prop_assert_eq!(
                full.generate_reference(fault),
                event.generate(fault),
                "fault {} limit {}", fault, limit
            );
        }
        prop_assert_eq!(full.stats().search_counters(), event.stats().search_counters());
    }

    /// The whole ordered ATPG driver (PODEM + drop loop + bookkeeping)
    /// stays bit-identical to its reference.
    #[test]
    fn differential_testgen_across_engines(netlist in tiny_circuit(), seed in any::<u64>()) {
        let circuit = CompiledCircuit::compile(netlist.clone());
        let faults = FaultList::collapsed(&netlist);
        let order: Vec<FaultId> = faults.ids().collect();
        let config = TestGenConfig {
            podem: PodemConfig::default(),
            fill_seed: seed,
            ..TestGenConfig::default()
        };
        let gen = TestGenerator::for_circuit(&circuit, &faults, config);
        let reference = gen.run_reference(&order, &PatternSet::new(netlist.num_inputs()));
        assert_testgen_parity(&reference, &gen.run(&order), "random circuit");
    }
}
