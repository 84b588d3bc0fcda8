//! An offline, `cargo semver-checks`-style guard for the facade's public
//! API: every load-bearing item is pinned by exact signature (via typed
//! function pointers) or by type assertion, so renaming, re-typing, or
//! dropping any of them breaks this test at compile time.
//!
//! As of 0.3.0 the pre-0.2 `&Netlist` compile-per-call wrappers are
//! **removed**; the crate-level `deny(deprecated)` keeps this file honest
//! should a deprecation cycle ever start again.

#![deny(deprecated)]

use std::sync::Arc;
use std::time::Duration;

use adi::atpg::{
    EquivVerdict, FaultStatus, FaultVerdict, FillStrategy, PhaseTimings, Podem, PodemConfig,
    PodemOutcome, PodemStats, SatFallback, SatResolved, Scoap, TestGenConfig, TestGenResult,
    TestGenSummary, TestGenerator,
};
use adi::circuits::PaperCircuit;
use adi::core::{
    order_faults, AdiAnalysis, AdiConfig, AdiSummary, Experiment, ExperimentBuilder,
    ExperimentConfig, FaultOrdering, OrderingRun, USelection, USetConfig,
};
use adi::netlist::fault::{Fault, FaultId, FaultList};
use adi::netlist::{
    CompiledCircuit, FaultRegionIndex, FfrPartition, LevelizedCsr, Netlist, PackedSite,
};
use adi::sim::reference::{GoodValues, PatternSim};
use adi::sim::{
    DetectionMatrix, DropOutcome, DropSession, DualMachineSim, FaultSimulator, NDetectOutcome,
    Pattern, PatternSet, SimWord,
};

/// The content-hash and serving surface added in 0.4.0: the canonical
/// netlist hash, the hash-keyed circuit store, and the request path.
#[test]
fn service_surface_is_stable() {
    use adi::netlist::NetlistHash;
    use adi::service::{
        CacheOutcome, CircuitStore, ServeReport, ServerConfig, ServiceState, StoreConfig,
        StoreStats, WorkerPool,
    };

    let _: fn(&Netlist) -> NetlistHash = Netlist::content_hash;
    let _: fn(NetlistHash) -> String = NetlistHash::to_hex;
    let _: fn(&str) -> Option<NetlistHash> = NetlistHash::from_hex;
    let _: fn(NetlistHash) -> u64 = NetlistHash::low64;
    let _: fn(&CompiledCircuit) -> NetlistHash = CompiledCircuit::content_hash;

    let _: fn(StoreConfig) -> CircuitStore = CircuitStore::new;
    let _: fn(&CircuitStore, Netlist) -> (CompiledCircuit, CacheOutcome) =
        CircuitStore::get_or_compile;
    let _: fn(&CircuitStore, NetlistHash) -> Option<CompiledCircuit> = CircuitStore::lookup;
    let _: fn(&CircuitStore) -> StoreStats = CircuitStore::stats;

    let _: fn(StoreConfig) -> ServiceState = ServiceState::new;
    let _: fn(&ServiceState, &str) -> String = ServiceState::handle_line;
    let _: fn(usize, usize) -> WorkerPool = WorkerPool::new;
    let _: fn(WorkerPool) = WorkerPool::shutdown;
    let _ = ServerConfig::default();
    let _ = ServeReport::default();
    let _ = StoreConfig::default();
}

/// The compiled-circuit surface: compile-once entry point and artifact
/// accessors.
#[test]
fn compiled_circuit_surface_is_stable() {
    let _: fn(Netlist) -> CompiledCircuit = CompiledCircuit::compile;
    let _: fn(&CompiledCircuit) -> &Netlist = CompiledCircuit::netlist;
    let _: fn(&CompiledCircuit) -> &LevelizedCsr = CompiledCircuit::view;
    let _: fn(&CompiledCircuit) -> &FfrPartition = CompiledCircuit::ffr;
    let _: fn(&CompiledCircuit) -> &FaultList = CompiledCircuit::collapsed_faults;
    let _: fn(&CompiledCircuit) -> &FaultList = CompiledCircuit::full_faults;
    let _: fn(&CompiledCircuit) -> &Scoap = CompiledCircuit::scoap;
    let _: fn(&CompiledCircuit, &CompiledCircuit) -> bool = CompiledCircuit::same_compilation;
    let _: fn() -> u64 = LevelizedCsr::build_count;
    let _: fn(&CompiledCircuit, &FaultList) -> Arc<FaultRegionIndex> =
        CompiledCircuit::fault_region_index;
    // Cheap clonability is part of the contract.
    fn assert_clone<T: Clone>() {}
    assert_clone::<CompiledCircuit>();
    let _: fn(Netlist) -> CompiledCircuit = <CompiledCircuit as From<Netlist>>::from;
}

/// The compiled entry points of every pipeline stage (pinned inside a
/// lifetime-generic function so the fn-item-to-fn-pointer coercions use
/// one concrete lifetime instead of higher-ranked ones).
fn pin_compiled_entry_points<'a>(_: &'a ()) {
    let _: fn(&'a CompiledCircuit, &'a FaultList) -> FaultSimulator<'a> =
        FaultSimulator::for_circuit;
    let _: fn(&'a CompiledCircuit, &'a FaultList) -> DropSession<'a> = DropSession::for_circuit;
    let _: fn(&CompiledCircuit, PodemConfig) -> Podem = Podem::for_circuit;
    let _: fn(&CompiledCircuit) -> DualMachineSim = DualMachineSim::for_circuit;
    let _: fn(&'a CompiledCircuit, &'a FaultList, TestGenConfig) -> TestGenerator<'a> =
        TestGenerator::for_circuit;
    let _: fn(&CompiledCircuit, &FaultList, &PatternSet, AdiConfig) -> AdiAnalysis =
        AdiAnalysis::for_circuit;
    let _: fn(&CompiledCircuit, &FaultList, USetConfig) -> USelection =
        adi::core::uset::select_u_for;
    let _: fn(&'a CompiledCircuit) -> ExperimentBuilder<'a> = Experiment::on;
    let _: fn(&CompiledCircuit, &FaultList, &PatternSet) -> adi::core::reorder::ReorderResult =
        adi::core::reorder::reorder_tests_for;
    let _: fn(&CompiledCircuit, &FaultList, &PatternSet) -> Vec<usize> =
        adi::core::reorder::reverse_order_compaction_for;
    let _: fn(&CompiledCircuit, &FaultList) -> Vec<FaultId> =
        adi::core::ffr_order::ffr_independent_order_for;
    let _: fn(&PaperCircuit) -> CompiledCircuit = PaperCircuit::compiled;
}

/// The fault simulator's fault index: built from the view, the FFR
/// partition and a fault list, memoized per compilation for its own
/// lists, and shared by every simulator over them.
fn pin_fault_region_index<'a>(_: &'a ()) {
    let _: fn(&LevelizedCsr, &FfrPartition, &FaultList) -> FaultRegionIndex =
        FaultRegionIndex::build;
    let _: fn(&FaultRegionIndex) -> usize = FaultRegionIndex::num_groups;
    let _: fn(&FaultRegionIndex, usize) -> usize = FaultRegionIndex::group_root;
    let _: fn(&FaultRegionIndex, usize) -> &[FaultId] = FaultRegionIndex::group_faults;
    let _: fn(&FaultRegionIndex, usize) -> &[PackedSite] = FaultRegionIndex::group_sites;
    let _: fn(&LevelizedCsr, Fault) -> PackedSite = PackedSite::of;
    let _: fn(PackedSite) -> usize = PackedSite::position;
    let _: fn(PackedSite) -> Option<usize> = PackedSite::pin;
    let _: fn(PackedSite) -> bool = PackedSite::stuck_value;
    let _: fn(&FaultRegionIndex, usize) -> Option<(usize, usize)> = FaultRegionIndex::reader;
    let _: fn(&FaultRegionIndex) -> &[bool] = FaultRegionIndex::sens_needed;
    let _: fn(&FaultRegionIndex, usize, &mut [bool]) = FaultRegionIndex::mark_path;
    let _: fn(&FaultRegionIndex) -> usize = FaultRegionIndex::resident_bytes;
    let _: for<'e> fn(&'e FaultSimulator<'a>) -> &'e Arc<FaultRegionIndex> =
        FaultSimulator::fault_regions;
}

#[test]
fn fault_region_index_surface_is_stable() {
    pin_fault_region_index(&());
}

#[test]
fn compiled_entry_points_are_stable() {
    pin_compiled_entry_points(&());
}

/// The experiment builder's fluent surface.
fn pin_experiment_builder<'a>(_: &'a ()) {
    let _: fn(ExperimentBuilder<'a>, ExperimentConfig) -> ExperimentBuilder<'a> =
        ExperimentBuilder::config;
    let _: fn(ExperimentBuilder<'a>, USetConfig) -> ExperimentBuilder<'a> =
        ExperimentBuilder::uset;
    let _: fn(ExperimentBuilder<'a>, AdiConfig) -> ExperimentBuilder<'a> = ExperimentBuilder::adi;
    let _: fn(ExperimentBuilder<'a>, TestGenConfig) -> ExperimentBuilder<'a> =
        ExperimentBuilder::testgen;
    let _: fn(ExperimentBuilder<'a>, Vec<FaultOrdering>) -> ExperimentBuilder<'a> =
        ExperimentBuilder::orderings;
    let _: fn(ExperimentBuilder<'a>, bool) -> ExperimentBuilder<'a> =
        ExperimentBuilder::collapse_faults;
    let _: fn(ExperimentBuilder<'a>, bool) -> ExperimentBuilder<'a> =
        ExperimentBuilder::parallel_orderings;
    let _: fn(ExperimentBuilder<'a>) -> Experiment = ExperimentBuilder::run;
}

#[test]
fn experiment_builder_surface_is_stable() {
    pin_experiment_builder(&());
    // The result type keeps its reporting surface.
    let _: fn(&Experiment, FaultOrdering) -> Option<&OrderingRun> = Experiment::run_for;
    let _: fn(&Experiment, FaultOrdering) -> Option<f64> = Experiment::relative_runtime;
    let _: fn(&Experiment, FaultOrdering) -> Option<f64> = Experiment::relative_ave;
    fn fields(e: &Experiment) -> (&String, usize, usize, usize, f64, AdiSummary, Duration) {
        (
            &e.circuit,
            e.num_inputs,
            e.num_faults,
            e.u_size,
            e.u_coverage,
            e.adi_summary,
            e.adi_time,
        )
    }
    let _ = fields;
}

/// Simulation / ATPG types keep their drive modes and knobs.
fn pin_simulation_surface<'a>(_: &'a ()) {
    let _: fn(&FaultSimulator<'a>, &PatternSet) -> DetectionMatrix = FaultSimulator::no_drop_matrix;
    let _: fn(&FaultSimulator<'a>, &PatternSet, usize) -> DetectionMatrix =
        FaultSimulator::no_drop_matrix_parallel;
    let _: fn(&FaultSimulator<'a>, &PatternSet) -> DropOutcome = FaultSimulator::with_dropping;
    let _: fn(&FaultSimulator<'a>, &PatternSet, u32) -> NDetectOutcome = FaultSimulator::n_detect;
    // A coverage figure from either drive mode, computed alike.
    let _: fn(&DropOutcome) -> f64 = DropOutcome::coverage;
    let _: fn(&NDetectOutcome) -> f64 = NDetectOutcome::coverage;
    let _: fn(&DropSession<'a>) -> usize = DropSession::pending;
    let _: fn(&DropSession<'a>) -> bool = DropSession::is_full;
    let _: fn(&mut DropSession<'a>, &Pattern) = DropSession::push;
    let _: fn(&mut DropSession<'a>, FaultId) -> SimWord = DropSession::pending_detections;
    let _: fn(&mut DropSession<'a>, FaultId) -> bool = DropSession::covers;
    let _: fn(&mut DropSession<'a>, &[FaultId]) -> Vec<Vec<FaultId>> = DropSession::flush;
    let _: fn(&TestGenResult) -> usize = TestGenResult::num_tests;
    let _: fn(&TestGenResult) -> TestGenSummary = TestGenResult::summary;
    let _: fn(&AdiAnalysis, FaultOrdering) -> Vec<FaultId> = |a, o| order_faults(a, o);
    // The bit-identical references the differential suites hold the
    // production paths to.
    let _: fn(&CompiledCircuit, &FaultList, &PatternSet) -> DetectionMatrix =
        adi::sim::reference::no_drop_matrix;
    let _: fn(&CompiledCircuit, &FaultList, &PatternSet) -> DropOutcome =
        adi::sim::reference::with_dropping;
    let _: fn(&CompiledCircuit, &FaultList, &PatternSet, u32) -> NDetectOutcome =
        adi::sim::reference::n_detect;
    let _: fn(&'a CompiledCircuit, &'a FaultList) -> PatternSim<'a> = PatternSim::for_circuit;
    let _: fn(&mut PatternSim<'a>, &Pattern, &[FaultId]) -> Vec<FaultId> = PatternSim::detect;
    let _: fn(&CompiledCircuit, &PatternSet) -> GoodValues = GoodValues::for_circuit;
    let _: fn(&GoodValues, adi::netlist::NodeId, usize) -> bool = GoodValues::value;
    let _: fn(&TestGenerator<'a>, &[FaultId], &PatternSet) -> TestGenResult =
        TestGenerator::run_reference;
}

#[test]
fn simulation_surface_is_stable() {
    pin_simulation_surface(&());
    // The one simulation word: four 64-bit lanes, 256 patterns.
    assert_eq!(SimWord::ZERO.0, [0u64; 4]);
    assert_eq!((SimWord::LANES, SimWord::BITS), (4, 256));
    let _ = FillStrategy::Random;
    let _ = PodemOutcome::Aborted;
    let _ = FaultStatus::Redundant;
    // The speculative-ATPG surface (0.7.0): thread/window knobs, phase
    // timings, the roll-up summary, and the waste diagnostic with its
    // determinism-preserving projection.
    let dflt = TestGenConfig::default();
    assert!(dflt.atpg_threads >= 1);
    assert!(dflt.speculation_depth >= 1);
    let timings = PhaseTimings::default();
    let _ = (timings.generate_ns, timings.drop_ns, timings.commit_wait_ns);
    fn summary_fields(s: TestGenSummary) -> (usize, usize, usize, usize, f64, u64, u64, u64, u64) {
        (
            s.num_tests,
            s.num_detected,
            s.num_redundant,
            s.num_aborted,
            s.coverage,
            s.generate_ns,
            s.drop_ns,
            s.commit_wait_ns,
            s.wasted_speculations,
        )
    }
    let _ = summary_fields;
    let _: fn(PodemStats) -> PodemStats = PodemStats::deterministic;
    let _ = PodemStats::default().wasted_speculations;
    // The SAT-backed proof surface (0.8.0): the fallback knob defaults
    // to aborted-only on the driver, off on raw PODEM (engine-parity
    // suites compare raw searches), and the summary reports the split.
    assert_eq!(TestGenConfig::default().podem.sat_fallback, SatFallback::AbortedOnly);
    assert_eq!(PodemConfig::default().sat_fallback, SatFallback::Off);
    assert_eq!(SatFallback::AbortedOnly.label(), "aborted-only");
    fn sat_fields(s: TestGenSummary) -> (u64, SatResolved) {
        (s.aborted_faults, s.sat_resolved)
    }
    let _ = sat_fields;
    let _ = |r: SatResolved| (r.redundant, r.testable, r.undecided);
    // The cnf module: redundancy proofs and the equivalence miter.
    let _: fn(&CompiledCircuit, Fault, u64) -> FaultVerdict = adi::atpg::cnf::prove_fault;
    let _: fn(&CompiledCircuit, Fault, u64) -> FaultVerdict = adi::atpg::cnf::prove_fault_reference;
    let _: fn(
        &CompiledCircuit,
        &CompiledCircuit,
        u64,
    ) -> Result<EquivVerdict, adi::atpg::EquivError> = adi::atpg::cnf::check_equiv;
    let _: u64 = adi::atpg::cnf::DEFAULT_CONFLICT_LIMIT;
    let _ = FaultVerdict::Redundant;
    let _ = EquivVerdict::Equivalent;
}

/// The event-driven PODEM core: the generator's reusable surface, its
/// full-resim reference, and the incremental dual-machine evaluator it
/// is built on.
#[test]
fn podem_engine_surface_is_stable() {
    let _: fn(&mut Podem, Fault) -> PodemOutcome = Podem::generate;
    let _: fn(&mut Podem, Fault) -> PodemOutcome = Podem::generate_reference;
    let _: fn(&Podem) -> PodemStats = Podem::stats;
    fn stats_fields(s: &PodemStats) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
        (
            s.targets,
            s.tests,
            s.untestable,
            s.aborted,
            s.backtracks,
            s.decisions,
            s.sim_events,
            s.sim_updates,
            s.screen_redundant,
            s.screen_testable,
        )
    }
    let _ = stats_fields;
    // The evaluator's driving surface.
    let _: fn(&mut DualMachineSim, Fault) = DualMachineSim::begin_target;
    let _: fn(&mut DualMachineSim) = DualMachineSim::end_target;
    let _: fn(&mut DualMachineSim, usize, bool) = DualMachineSim::assign;
    let _: fn(&mut DualMachineSim) = DualMachineSim::retract_frame;
    let _: fn(&DualMachineSim) -> bool = DualMachineSim::detected;
    let _: fn(&mut DualMachineSim) -> bool = DualMachineSim::x_path_exists;
    let _: fn(&DualMachineSim) -> (u64, u64) = DualMachineSim::counters;
    let _: fn(&DualMachineSim) -> bool = DualMachineSim::is_consistent;
}
