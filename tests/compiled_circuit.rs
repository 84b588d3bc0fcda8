//! Compilation-cache invariants: everything a [`CompiledCircuit`]
//! answers must be identical to the legacy per-call builds, on embedded,
//! suite, and random circuits — and the batched ATPG drop loop must drop
//! exactly the same faults in the same order as the scalar reference
//! loop (`TestGenerator::run_reference`).

use adi::atpg::{PodemStats, Scoap, TestGenConfig, TestGenResult, TestGenerator};
use adi::circuits::{embedded, paper_suite, random_circuit, RandomCircuitConfig};
use adi::netlist::fault::{FaultId, FaultList};
use adi::netlist::{CompiledCircuit, FfrPartition, LevelizedCsr, Netlist};
use adi::sim::reference::PatternSim;
use adi::sim::{DropSession, PatternSet};
use proptest::prelude::*;

mod common;
use common::assert_same_result;

/// `result` with the simulation diagnostics zeroed: the reference loop's
/// full-resim PODEM does different simulation work for the same outputs
/// and search counters.
fn outputs(result: TestGenResult) -> TestGenResult {
    TestGenResult {
        podem_stats: PodemStats {
            sim_events: 0,
            sim_updates: 0,
            ..result.podem_stats
        },
        ..result
    }
}

/// The batched production loop and the scalar reference loop on
/// `order`, each with its simulation diagnostics zeroed.
fn batched_and_reference(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    order: &[FaultId],
) -> (TestGenResult, TestGenResult) {
    let gen = TestGenerator::for_circuit(circuit, faults, TestGenConfig::default());
    let no_warmup = PatternSet::new(circuit.netlist().num_inputs());
    (
        outputs(gen.run(order)),
        outputs(gen.run_reference(order, &no_warmup)),
    )
}

/// The cache contract: every artifact the compilation hands out equals
/// the artifact built per call from the same netlist.
fn assert_compilation_matches_per_call(netlist: &Netlist, label: &str) {
    let compiled = CompiledCircuit::compile(netlist.clone());
    assert_eq!(
        compiled.view(),
        &LevelizedCsr::build(netlist),
        "{label}: levelized view"
    );
    assert_eq!(
        compiled.ffr(),
        &FfrPartition::compute(netlist),
        "{label}: FFR partition"
    );
    assert_eq!(
        compiled.collapsed_faults(),
        &FaultList::collapsed(netlist),
        "{label}: collapsed faults"
    );
    assert_eq!(
        compiled.full_faults(),
        &FaultList::full(netlist),
        "{label}: full faults"
    );
    assert_eq!(
        compiled.scoap(),
        &Scoap::compute(netlist),
        "{label}: SCOAP"
    );
    // Derived per-position answers (levels, reachability) agree with the
    // netlist's own view of the graph.
    let view = compiled.view();
    for id in netlist.node_ids() {
        let p = view.position(id);
        assert_eq!(view.level_at(p), netlist.level(id), "{label}: level {id}");
        assert_eq!(
            view.is_output_at(p),
            netlist.is_output(id),
            "{label}: output flag {id}"
        );
    }
}

#[test]
fn compilation_matches_per_call_builds_on_embedded_circuits() {
    for netlist in embedded::all() {
        let name = netlist.name().to_string();
        assert_compilation_matches_per_call(&netlist, &name);
    }
}

#[test]
fn compilation_matches_per_call_builds_on_suite_circuits() {
    // The two largest stand-ins are excluded to keep debug-mode time
    // bounded; they share the generator with the mid-size ones.
    for circuit in paper_suite().into_iter().filter(|c| c.gates <= 1500) {
        let netlist = circuit.netlist();
        assert_compilation_matches_per_call(&netlist, circuit.name);
    }
}

fn tiny_circuit() -> impl Strategy<Value = Netlist> {
    (2usize..=8, 4usize..=40, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        random_circuit(&RandomCircuitConfig::new("prop", inputs, gates, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compilation_matches_per_call_builds(netlist in tiny_circuit()) {
        assert_compilation_matches_per_call(&netlist, "random");
    }

    /// The batched drop session replays the scalar per-test drop loop
    /// exactly: same faults, same order, same per-test lists, under
    /// interleaved partial flushes.
    #[test]
    fn drop_session_replays_scalar_loop(
        netlist in tiny_circuit(),
        seed in any::<u64>(),
        n_patterns in 1usize..=150,
        flush_every in 1usize..=70,
    ) {
        let circuit = CompiledCircuit::compile(netlist.clone());
        let faults = circuit.full_faults();
        let patterns = PatternSet::random(netlist.num_inputs(), n_patterns, seed);

        // Scalar reference: one single-pattern simulation per test,
        // dropping inline.
        let mut sim = PatternSim::for_circuit(&circuit, faults);
        let mut active: Vec<FaultId> = faults.ids().collect();
        let mut expected = Vec::new();
        for p in 0..patterns.len() {
            let detected = sim.detect(&patterns.get(p), &active);
            active.retain(|id| !detected.contains(id));
            expected.push(detected);
        }

        // Batched: flush at an arbitrary cadence (below the 256-lane cap).
        let mut session = DropSession::for_circuit(&circuit, faults);
        let mut active: Vec<FaultId> = faults.ids().collect();
        let mut got = Vec::new();
        for p in 0..patterns.len() {
            session.push(&patterns.get(p));
            if session.pending() == flush_every {
                let lists = session.flush(&active);
                for detected in &lists {
                    active.retain(|id| !detected.contains(id));
                }
                got.extend(lists);
            }
        }
        got.extend(session.flush(&active));
        prop_assert_eq!(got, expected);
    }

    /// End-to-end: the batched ATPG drop loop produces bit-identical
    /// results to the scalar reference loop on random circuits.
    #[test]
    fn batched_atpg_is_bit_identical(netlist in tiny_circuit(), rev in any::<bool>()) {
        let circuit = CompiledCircuit::compile(netlist);
        let faults = circuit.collapsed_faults();
        let mut order: Vec<FaultId> = faults.ids().collect();
        if rev {
            order.reverse();
        }
        let (batched, reference) = batched_and_reference(&circuit, faults, &order);
        assert_same_result("random circuit", &batched, &reference);
    }
}

#[test]
fn batched_atpg_is_bit_identical_on_suite_sample() {
    for circuit in paper_suite().into_iter().filter(|c| c.gates <= 300) {
        let compiled = circuit.compiled();
        let faults = compiled.collapsed_faults();
        let order: Vec<FaultId> = faults.ids().collect();
        let (batched, reference) = batched_and_reference(&compiled, faults, &order);
        assert_same_result(circuit.name, &batched, &reference);
    }
}
