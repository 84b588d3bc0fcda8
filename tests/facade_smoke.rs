//! Smoke coverage for the `adi` facade: every re-exported crate must
//! resolve under its facade path, and the crate-root quickstart must
//! actually run on `c17`.

use adi::core::{Experiment, FaultOrdering};
use adi::netlist::CompiledCircuit;

#[test]
fn all_reexports_resolve_under_facade_paths() {
    // One load-bearing item per re-exported crate, referenced through
    // the facade path rather than the underlying `adi_*` crate name.
    let netlist = adi::circuits::embedded::c17();
    let stats = adi::netlist::NetlistStats::compute(&netlist);
    assert!(stats.num_gates > 0);

    let circuit = adi::netlist::CompiledCircuit::compile(netlist);
    let faults = circuit.collapsed_faults();
    assert!(!faults.is_empty());

    let patterns = adi::sim::PatternSet::exhaustive(circuit.netlist().num_inputs());
    let good = adi::sim::reference::GoodValues::for_circuit(&circuit, &patterns);
    let first_output = *circuit.netlist().outputs().first().expect("c17 has outputs");
    // Force evaluation of the simulator result.
    let _ = good.value(first_output, 0);

    let mut podem = adi::atpg::Podem::for_circuit(&circuit, adi::atpg::PodemConfig::default());
    let (_, fault) = faults.iter().next().expect("collapsed list non-empty");
    assert!(matches!(
        podem.generate(fault),
        adi::atpg::PodemOutcome::Test(_)
    ));

    let analysis = adi::core::AdiAnalysis::for_circuit(
        &circuit,
        faults,
        &patterns,
        adi::core::AdiConfig::default(),
    );
    assert!(faults.ids().all(|f| analysis.adi(f) >= 1));
}

#[test]
fn quickstart_runs_on_c17() {
    // Mirrors the crate-root doctest; kept as an integration test so a
    // quickstart regression fails even when doctests are skipped.
    let circuit = CompiledCircuit::compile(adi::circuits::embedded::c17());
    let experiment = Experiment::on(&circuit).run();
    let orig = experiment.run_for(FaultOrdering::Original).unwrap();
    let dyn0 = experiment.run_for(FaultOrdering::Dynamic0).unwrap();
    assert_eq!(orig.result.coverage(), 1.0);
    assert_eq!(dyn0.result.coverage(), 1.0);
    assert!(orig.num_tests() > 0);
    assert!(dyn0.num_tests() > 0);
}
