//! Per-fault PPSFP reference implementations of the three fault
//! simulation drive modes.
//!
//! Each fault is injected on its own and its effect walked through its
//! fanout cone with event-driven 64-bit word operations: one cone walk
//! *per fault* per 64-pattern block. That is asymptotically slower than
//! the stem-region engine every [`FaultSimulator`](crate::FaultSimulator)
//! runs, and it is independent of everything that engine adds
//! (fanout-free regions, sensitization words, needs-driven lane
//! retirement, wide words), which makes it the differential oracle:
//! `tests/engine_equivalence.rs` requires the production engine to match
//! these functions bit for bit.
//!
//! Production code does not call into this module.

use adi_netlist::fault::{FaultId, FaultList};
use adi_netlist::CompiledCircuit;

use crate::faultsim::{detect_block_impl, ScratchBuf};
use crate::logic::{self, PosGood};
use crate::{DetectionMatrix, DropOutcome, NDetectOutcome, PatternSet};

/// Simulates every fault of `faults` under every pattern **without
/// dropping**; the reference for
/// [`FaultSimulator::no_drop_matrix`](crate::FaultSimulator::no_drop_matrix).
///
/// # Panics
///
/// Panics if a fault references a node outside the circuit.
pub fn no_drop_matrix(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
) -> DetectionMatrix {
    let view = circuit.view();
    let mut buf = ScratchBuf::new(view);
    let good = PosGood::compute(view, patterns);
    let mut matrix = DetectionMatrix::new(faults.len(), patterns.len());
    let n_blocks = patterns.num_blocks();
    for (id, fault) in faults.iter() {
        for block in 0..n_blocks {
            let mask = patterns.valid_mask(block);
            let w = detect_block_impl(view, good.block(block), fault, mask, &mut buf);
            if w != 0 {
                matrix.or_word(id, block, w);
            }
        }
    }
    matrix
}

/// Simulates with fault dropping, each fault retired at its first
/// detecting pattern; the reference for
/// [`FaultSimulator::with_dropping`](crate::FaultSimulator::with_dropping).
///
/// # Panics
///
/// As [`no_drop_matrix`].
pub fn with_dropping(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
) -> DropOutcome {
    let view = circuit.view();
    let buf = &mut ScratchBuf::new(view);
    let mut good = vec![0u64; view.num_nodes()];
    let mut input_words = vec![0u64; patterns.num_inputs()];
    let mut first: Vec<Option<u32>> = vec![None; faults.len()];
    let mut active: Vec<FaultId> = faults.ids().collect();
    for block in 0..patterns.num_blocks() {
        if active.is_empty() {
            break;
        }
        logic::load_input_words(patterns, block, &mut input_words);
        logic::simulate_block_csr(view, &input_words, &mut good);
        let mask = patterns.valid_mask(block);
        active.retain(|&id| {
            let fault = faults.fault(id);
            let w = detect_block_impl(view, &good, fault, mask, buf);
            if w != 0 {
                first[id.index()] = Some((block * 64) as u32 + w.trailing_zeros());
                false
            } else {
                true
            }
        });
    }
    DropOutcome {
        first_detection: first,
    }
}

/// n-detection simulation, a fault retired once `n` distinct patterns
/// detect it; the reference for
/// [`FaultSimulator::n_detect`](crate::FaultSimulator::n_detect).
///
/// # Panics
///
/// Panics if `n == 0`, and as [`no_drop_matrix`].
pub fn n_detect(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
    n: u32,
) -> NDetectOutcome {
    assert!(n > 0, "n-detection requires n >= 1");
    let view = circuit.view();
    let buf = &mut ScratchBuf::new(view);
    let mut good = vec![0u64; view.num_nodes()];
    let mut input_words = vec![0u64; patterns.num_inputs()];
    let mut counts = vec![0u32; faults.len()];
    let mut active: Vec<FaultId> = faults.ids().collect();
    for block in 0..patterns.num_blocks() {
        if active.is_empty() {
            break;
        }
        logic::load_input_words(patterns, block, &mut input_words);
        logic::simulate_block_csr(view, &input_words, &mut good);
        let mask = patterns.valid_mask(block);
        active.retain(|&id| {
            let fault = faults.fault(id);
            let w = detect_block_impl(view, &good, fault, mask, buf);
            let c = &mut counts[id.index()];
            *c = (*c + w.count_ones()).min(n);
            *c < n
        });
    }
    NDetectOutcome { counts, n }
}
