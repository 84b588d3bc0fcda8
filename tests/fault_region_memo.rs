//! The compilation's memoized fault-region index against fresh builds.
//!
//! `CompiledCircuit::fault_region_index` builds the fault simulator's
//! `FaultRegionIndex` once for each of the compilation's own fault lists,
//! matched by address, and every simulator over that list shares it. Any
//! other list, an equal copy included, gets a fresh index from the same
//! function. This suite pins both halves:
//!
//! * **Identity.** Simulators over one compilation's list share one index;
//!   the collapsed and full lists get different ones; a copied list and
//!   another compilation get their own, and asking for them builds
//!   nothing in the compilation.
//! * **Equivalence.** A simulator over the memo equals one over a
//!   copied list (`FaultList::from_faults`, which cannot hit the memo) on
//!   the no-drop matrix, its region-parallel split, `with_dropping`,
//!   `n_detect` for every `n` in `1..=8` and `DropSession::flush`.
//! * **Permutation.** A reversed copy of the compilation's list has the
//!   same length but other ids, so an index matched by anything weaker
//!   than the address hands it the wrong groups; its results must equal
//!   the per-fault reference's.

use std::sync::Arc;

use adi::circuits::{paper_suite, random_circuit, RandomCircuitConfig};
use adi::netlist::fault::{FaultId, FaultList};
use adi::netlist::{CompiledCircuit, Netlist};
use adi::sim::{reference, DropSession, FaultSimulator, PatternSet};
use proptest::prelude::*;

/// The largest `n` checked; every `n` from 1 up is.
const MAX_N: u32 = 8;

/// Pattern counts: one short of a lane, and one past a 256-pattern
/// superblock, so results carry across superblocks.
const PATTERN_COUNTS: [usize; 2] = [63, 257];

/// An equal copy of `faults` that is not any compilation's own list.
fn copy_of(faults: &FaultList) -> FaultList {
    FaultList::from_faults(faults.as_slice().to_vec())
}

/// `faults` in reverse order: the same length, other ids.
fn reversed(faults: &FaultList) -> FaultList {
    FaultList::from_faults(faults.as_slice().iter().rev().copied().collect())
}

/// Names the first drive mode on which `got` differs from `expect`
/// (both simulators over equal fault lists), or `None`.
fn engine_mismatch(
    got: &FaultSimulator<'_>,
    expect: &FaultSimulator<'_>,
    patterns: &PatternSet,
) -> Option<String> {
    let matrix = expect.no_drop_matrix(patterns);
    if got.no_drop_matrix(patterns) != matrix {
        return Some("no-drop matrix".into());
    }
    // Fewer superblocks than threads: the region-parallel split, whose
    // chunks are weighed by group.
    if got.no_drop_matrix_parallel(patterns, 3) != matrix {
        return Some("region-parallel no-drop matrix".into());
    }
    if got.with_dropping(patterns) != expect.with_dropping(patterns) {
        return Some("dropping".into());
    }
    (1..=MAX_N)
        .find(|&n| got.n_detect(patterns, n) != expect.n_detect(patterns, n))
        .map(|n| format!("n_detect({n})"))
}

/// Names the first drive mode on which the simulator over `faults` differs
/// from the per-fault reference, or `None`.
fn reference_mismatch(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
) -> Option<String> {
    let engine = FaultSimulator::for_circuit(circuit, faults);
    if engine.no_drop_matrix(patterns) != reference::no_drop_matrix(circuit, faults, patterns) {
        return Some("no-drop matrix".into());
    }
    if engine.with_dropping(patterns) != reference::with_dropping(circuit, faults, patterns) {
        return Some("dropping".into());
    }
    (1..=MAX_N)
        .find(|&n| {
            engine.n_detect(patterns, n) != reference::n_detect(circuit, faults, patterns, n)
        })
        .map(|n| format!("n_detect({n})"))
}

/// The per-test drop lists of a session over the pattern set, flushing
/// whenever the block is full.
fn flush_lists(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
) -> Vec<Vec<FaultId>> {
    let mut session = DropSession::for_circuit(circuit, faults);
    let mut active: Vec<FaultId> = faults.ids().collect();
    let mut lists = Vec::new();
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

/// Checks one compilation's own list (`own`) against a copy and a
/// reversed copy; returns the first difference, named.
fn memo_mismatch(
    circuit: &CompiledCircuit,
    own: &FaultList,
    pattern_sets: &[PatternSet],
    label: &str,
) -> Option<String> {
    let copy = copy_of(own);
    let reversed = reversed(own);
    for patterns in pattern_sets {
        let at = format!("{label} {} patterns", patterns.len());
        let memo = FaultSimulator::for_circuit(circuit, own);
        let fresh = FaultSimulator::for_circuit(circuit, &copy);
        if let Some(d) = engine_mismatch(&memo, &fresh, patterns) {
            return Some(format!("{at}: memo simulator differs from a copied list's on {d}"));
        }
        if let Some(d) = reference_mismatch(circuit, &reversed, patterns) {
            return Some(format!("{at}: reversed list differs from the reference on {d}"));
        }
        if flush_lists(circuit, own, patterns) != flush_lists(circuit, &copy, patterns) {
            return Some(format!("{at}: flush lists"));
        }
    }
    None
}

fn random_pattern_sets(num_inputs: usize, seed: u64) -> Vec<PatternSet> {
    PATTERN_COUNTS
        .iter()
        .map(|&count| PatternSet::random(num_inputs, count, seed ^ count as u64))
        .collect()
}

#[test]
fn engines_over_one_list_share_its_index() {
    let circuit = paper_suite()[0].compiled();
    let collapsed = circuit.collapsed_faults();
    let full = circuit.full_faults();
    let a = FaultSimulator::for_circuit(&circuit, collapsed);
    let b = FaultSimulator::for_circuit(&circuit.clone(), collapsed);
    assert!(Arc::ptr_eq(a.fault_regions(), b.fault_regions()));
    assert!(Arc::ptr_eq(
        a.fault_regions(),
        &circuit.fault_region_index(collapsed)
    ));

    let f = FaultSimulator::for_circuit(&circuit, full);
    assert!(!Arc::ptr_eq(a.fault_regions(), f.fault_regions()));
    assert!(Arc::ptr_eq(
        f.fault_regions(),
        &circuit.fault_region_index(full)
    ));
    assert!(a.fault_regions() != f.fault_regions());

    // An equal copy is not the compilation's list: it gets an index of
    // its own, equal in content, and the compilation keeps nothing.
    let bytes = circuit.resident_bytes();
    let copy = copy_of(collapsed);
    let c = FaultSimulator::for_circuit(&circuit, &copy);
    assert!(!Arc::ptr_eq(a.fault_regions(), c.fault_regions()));
    assert!(a.fault_regions() == c.fault_regions());
    assert_eq!(circuit.resident_bytes(), bytes);

    // Another compilation of the same netlist keeps its own index.
    let other = CompiledCircuit::compile(circuit.netlist().clone());
    let o = FaultSimulator::for_circuit(&other, other.collapsed_faults());
    assert!(!Arc::ptr_eq(a.fault_regions(), o.fault_regions()));
    assert!(a.fault_regions() == o.fault_regions());
}

#[test]
fn a_list_that_is_not_the_compilations_own_builds_nothing_in_it() {
    // With neither own list built, asking for a copy's index must not
    // build one: the memo is found by address through the built lists.
    let netlist = paper_suite()[0].netlist();
    let circuit = CompiledCircuit::compile(netlist.clone());
    let bytes = circuit.resident_bytes();
    let list = FaultList::collapsed(&netlist);
    let engine = FaultSimulator::for_circuit(&circuit, &list);
    assert_eq!(circuit.resident_bytes(), bytes);
    assert!(!Arc::ptr_eq(
        engine.fault_regions(),
        &circuit.fault_region_index(circuit.collapsed_faults())
    ));
}

/// The paper suite through irs1196, collapsed lists (the random
/// circuits below cover full lists and their branch faults).
#[test]
fn memo_matches_copied_lists_on_suite_circuits() {
    for circuit in paper_suite().into_iter().filter(|c| c.gates <= 547) {
        let compiled = circuit.compiled();
        let sets = random_pattern_sets(compiled.netlist().num_inputs(), circuit.seed);
        if let Some(d) = memo_mismatch(&compiled, compiled.collapsed_faults(), &sets, circuit.name)
        {
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

    /// Random circuits, full and collapsed lists: the memo against
    /// copies and reversed copies.
    #[test]
    fn memo_matches_copied_lists_on_random_circuits(
        netlist in tiny_circuit(),
        seed in any::<u64>(),
    ) {
        let compiled = CompiledCircuit::compile(netlist.clone());
        let sets = random_pattern_sets(netlist.num_inputs(), seed);
        for own in [compiled.full_faults(), compiled.collapsed_faults()] {
            let mismatch = memo_mismatch(&compiled, own, &sets, "prop");
            prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
        }
    }
}
