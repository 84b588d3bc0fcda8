//! Needs-driven lane retirement against the per-fault reference.
//!
//! The stem-region engine walks each fanout-free region once per
//! superblock and retires a pattern lane as soon as no fault of the
//! region still needs it: dropping needs each fault's lanes below its
//! lowest observed one, n-detection the lanes of faults still short of
//! `n` (counting earlier superblocks), and the drop session's flush only
//! each fault's first lane. A retired lane must never change an answer,
//! so this suite pins those drive modes to oracles that share no code
//! with the engine's walk:
//!
//! * `with_dropping` and `n_detect` for every `n` in `1..=8` against
//!   `adi::sim::reference` (one event-driven walk per fault per
//!   64-pattern block). The pattern counts (1, 63, 255, 257, 700) end
//!   inside a lane, at a superblock edge and past it, so counts and
//!   first detections carry across superblocks.
//! * `DropSession::flush` against the scalar `detect_pattern` loop with
//!   immediate dropping.

use adi::circuits::{paper_suite, random_circuit, RandomCircuitConfig};
use adi::netlist::fault::{FaultId, FaultList};
use adi::netlist::{CompiledCircuit, Netlist};
use adi::sim::{
    reference, DropOutcome, DropSession, FaultSimulator, NDetectOutcome, PatternSet, SimScratch,
    StemRegionEngine,
};
use proptest::prelude::*;

/// Pattern counts: inside the first lane, one short of a full lane,
/// one short of a 256-pattern superblock, one past it, and several
/// superblocks with a partial last one.
const PATTERN_COUNTS: [usize; 5] = [1, 63, 255, 257, 700];

/// The largest `n` checked; every `n` from 1 up is.
const MAX_N: u32 = 8;

/// Names the first fault whose first detection differs, or `None`.
fn drop_mismatch(got: &DropOutcome, expect: &DropOutcome) -> Option<String> {
    if got.first_detection.len() != expect.first_detection.len() {
        return Some("the fault count".into());
    }
    got.first_detection
        .iter()
        .zip(&expect.first_detection)
        .position(|(a, b)| a != b)
        .map(|f| {
            format!(
                "fault {f}: first detection {:?}, reference {:?}",
                got.first_detection[f], expect.first_detection[f]
            )
        })
}

/// Names the first fault whose n-detection count differs, or `None`.
fn count_mismatch(got: &NDetectOutcome, expect: &NDetectOutcome) -> Option<String> {
    if got.n != expect.n || got.counts.len() != expect.counts.len() {
        return Some("n or the fault count".into());
    }
    got.counts
        .iter()
        .zip(&expect.counts)
        .position(|(a, b)| a != b)
        .map(|f| {
            format!(
                "fault {f}: count {}, reference {}",
                got.counts[f], expect.counts[f]
            )
        })
}

/// Checks dropping and every n-detection count, for each pattern set,
/// against the reference; returns the first difference, named.
fn needs_mismatch(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    pattern_sets: &[PatternSet],
    label: &str,
) -> Option<String> {
    for patterns in pattern_sets {
        let drop = reference::with_dropping(circuit, faults, patterns);
        let counts: Vec<NDetectOutcome> = (1..=MAX_N)
            .map(|n| reference::n_detect(circuit, faults, patterns, n))
            .collect();
        let engine = StemRegionEngine::for_circuit(circuit, faults);
        let at = format!("{label} {} patterns", patterns.len());
        if let Some(d) = drop_mismatch(&engine.with_dropping(patterns), &drop) {
            return Some(format!("{at} dropping: {d}"));
        }
        for expect in &counts {
            let got = engine.n_detect(patterns, expect.n);
            if let Some(d) = count_mismatch(&got, expect) {
                return Some(format!("{at} n_detect({}): {d}", expect.n));
            }
        }
    }
    None
}

fn random_pattern_sets(num_inputs: usize, counts: &[usize], seed: u64) -> Vec<PatternSet> {
    counts
        .iter()
        .map(|&count| PatternSet::random(num_inputs, count, seed ^ count as u64))
        .collect()
}

/// The paper suite through irs1196, collapsed faults.
#[test]
fn drive_modes_match_reference_on_suite_circuits() {
    for circuit in paper_suite().into_iter().filter(|c| c.gates <= 547) {
        let netlist = circuit.netlist();
        let compiled = CompiledCircuit::compile(netlist.clone());
        let sets = random_pattern_sets(netlist.num_inputs(), &PATTERN_COUNTS, circuit.seed);
        if let Some(d) = needs_mismatch(&compiled, compiled.collapsed_faults(), &sets, circuit.name)
        {
            panic!("{d}");
        }
    }
}

/// One circuit in the shape the service benchmark's sweep serves: 214
/// inputs, 2,821 gates, about ten thousand collapsed faults, one
/// 256-pattern request.
#[test]
fn drive_modes_match_reference_on_a_serving_size_circuit() {
    let netlist = random_circuit(&RandomCircuitConfig::new("srv", 214, 2821, 0x5E55));
    let compiled = CompiledCircuit::compile(netlist);
    let sets = random_pattern_sets(214, &[256], 7);
    if let Some(d) = needs_mismatch(&compiled, compiled.collapsed_faults(), &sets, "srv") {
        panic!("{d}");
    }
}

/// The scalar reference for a drop session: `detect_pattern` per test,
/// dropping each detected fault at once.
fn scalar_drop_lists(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
) -> Vec<Vec<FaultId>> {
    let sim = FaultSimulator::for_circuit(circuit, faults);
    let mut scratch = SimScratch::for_circuit(circuit);
    let mut active: Vec<FaultId> = faults.ids().collect();
    (0..patterns.len())
        .map(|p| {
            let detected = sim.detect_pattern(&patterns.get(p), &active, &mut scratch);
            active.retain(|id| !detected.contains(id));
            detected
        })
        .collect()
}

/// Drives a session over the pattern set, flushing whenever the block
/// is full, and returns the per-test drop lists.
fn session_drop_lists(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
) -> Vec<Vec<FaultId>> {
    let mut session = DropSession::for_circuit(circuit, faults);
    let mut active: Vec<FaultId> = faults.ids().collect();
    let mut lists: Vec<Vec<FaultId>> = Vec::new();
    for p in 0..patterns.len() {
        session.push(&patterns.get(p));
        if session.is_full() {
            let flushed = session.flush(&active);
            for detected in &flushed {
                active.retain(|id| !detected.contains(id));
            }
            lists.extend(flushed);
        }
    }
    lists.extend(session.flush(&active));
    lists
}

/// Names the first test whose drop list differs, or `None`.
fn lists_mismatch(got: &[Vec<FaultId>], expect: &[Vec<FaultId>]) -> Option<String> {
    if got.len() != expect.len() {
        return Some(format!("{} lists, reference {}", got.len(), expect.len()));
    }
    got.iter()
        .zip(expect)
        .position(|(a, b)| a != b)
        .map(|t| format!("test {t}: {:?}, reference {:?}", got[t], expect[t]))
}

fn flush_mismatch(netlist: &Netlist, patterns: &PatternSet, label: &str) -> Option<String> {
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = circuit.full_faults();
    let expect = scalar_drop_lists(&circuit, faults, patterns);
    let got = session_drop_lists(&circuit, faults, patterns);
    lists_mismatch(&got, &expect).map(|d| format!("{label} session: {d}"))
}

/// Drop sessions over the suite's smaller circuits, with more tests
/// than two blocks hold, so full blocks flush before a partial one.
#[test]
fn flush_matches_scalar_loop_on_suite_circuits() {
    for circuit in paper_suite().into_iter().filter(|c| c.gates <= 300) {
        let netlist = circuit.netlist();
        let patterns = PatternSet::random(netlist.num_inputs(), 700, circuit.seed);
        if let Some(d) = flush_mismatch(&netlist, &patterns, circuit.name) {
            panic!("{d}");
        }
    }
}

fn tiny_circuit() -> impl Strategy<Value = Netlist> {
    (2usize..=6, 4usize..=35, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        random_circuit(&RandomCircuitConfig::new("prop", inputs, gates, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits over the full fault list: every drive mode at
    /// every pattern count.
    #[test]
    fn drive_modes_match_reference_on_random_circuits(
        netlist in tiny_circuit(),
        seed in any::<u64>(),
    ) {
        let compiled = CompiledCircuit::compile(netlist.clone());
        let sets = random_pattern_sets(netlist.num_inputs(), &PATTERN_COUNTS, seed);
        let mismatch = needs_mismatch(&compiled, compiled.full_faults(), &sets, "prop");
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    /// Random circuits: drop sessions flush the same per-test lists as
    /// the scalar loop.
    #[test]
    fn flush_matches_scalar_loop_on_random_circuits(
        netlist in tiny_circuit(),
        seed in any::<u64>(),
        n_patterns in 1usize..=700,
    ) {
        let patterns = PatternSet::random(netlist.num_inputs(), n_patterns, seed);
        let mismatch = flush_mismatch(&netlist, &patterns, "prop");
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }
}
