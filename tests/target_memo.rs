//! The per-target search memo of `TestGenerator`: one generator that
//! runs several orderings must return, run for run, exactly what a fresh
//! generator returns, and must search only the targets no earlier run
//! searched.
//!
//! On every suite circuit up to 300 gates and on a 400-gate random
//! circuit, one generator runs three sequences — F0dynm then Forig,
//! Forig then F0dynm, and `run` then `run_with_random_phase` — at
//! `atpg_threads` 1 (the sequential loop) and 4 (the speculative one).
//! Each result is compared whole (tests, targets, detections, statuses
//! and the deterministic `PodemStats`) with a fresh generator's. The
//! second sequential run of each sequence is traced: it must open the
//! `atpg.podem` span once per target the first run did not search, and
//! not at all when it repeats the first run's order.

use adi::atpg::{FaultStatus, TestGenConfig, TestGenResult, TestGenerator};
use adi::circuits::{paper_suite_up_to, random_circuit, RandomCircuitConfig};
use adi::core::uset::select_u_for;
use adi::core::{order_faults, AdiAnalysis, AdiConfig, FaultOrdering, USetConfig};
use adi::netlist::fault::{FaultId, FaultList};
use adi::netlist::CompiledCircuit;
use adi::sim::PatternSet;

mod common;
use common::assert_same_result;

fn generator<'a>(
    circuit: &CompiledCircuit,
    faults: &'a FaultList,
    atpg_threads: usize,
) -> TestGenerator<'a> {
    let config = TestGenConfig {
        atpg_threads,
        ..TestGenConfig::default()
    };
    TestGenerator::for_circuit(circuit, faults, config)
}

/// The faults a run over a full order handed to PODEM: the target of
/// every generated test (warm-up vectors only detect accidentally) and
/// every fault the run left redundant or aborted.
fn searched(result: &TestGenResult) -> Vec<bool> {
    result
        .status
        .iter()
        .map(|s| {
            matches!(
                s,
                FaultStatus::DetectedAsTarget { .. } | FaultStatus::Redundant | FaultStatus::Aborted
            )
        })
        .collect()
}

/// Runs `second` traced on the current thread and returns its result
/// with the number of `atpg.podem` spans it opened.
fn traced(second: impl FnOnce() -> TestGenResult) -> (TestGenResult, usize) {
    let guard = adi_obs::start_trace();
    let result = second();
    let trace = guard.finish();
    assert_eq!(trace.dropped, 0, "trace overflowed its node cap");
    let podem = trace.nodes.iter().filter(|n| n.name == "atpg.podem").count();
    (result, podem)
}

/// Runs `first_order` and then `second` on one generator made by
/// `fresh`, comparing each result with a fresh generator's. With
/// `trace` set, the second run and a repeat of the first are traced and
/// their `atpg.podem` spans counted against the new targets.
fn assert_sequence<'a>(
    context: &str,
    fresh: &dyn Fn() -> TestGenerator<'a>,
    first_order: &[FaultId],
    second: &dyn Fn(&TestGenerator<'_>) -> TestGenResult,
    trace: bool,
) {
    let (want_first, want_second) = (fresh().run(first_order), second(&fresh()));
    let g = fresh();
    let first = g.run(first_order);
    assert_same_result(&format!("{context}: first run"), &first, &want_first);
    if !trace {
        assert_same_result(&format!("{context}: second run"), &second(&g), &want_second);
        return;
    }
    let (got, podem) = traced(|| second(&g));
    assert_same_result(&format!("{context}: second run"), &got, &want_second);
    let new = searched(&got)
        .iter()
        .zip(searched(&first))
        .filter(|&(&now, earlier)| now && !earlier)
        .count();
    assert_eq!(podem, new, "{context}: searches in the second run");
    let (again, podem) = traced(|| g.run(first_order));
    assert_same_result(&format!("{context}: repeated first run"), &again, &want_first);
    assert_eq!(podem, 0, "{context}: a repeated order searched again");
}

/// One circuit: every sequence at both thread counts.
fn assert_memo_replays(circuit: &CompiledCircuit, label: &str) {
    let faults = circuit.collapsed_faults();
    let selection = select_u_for(circuit, faults, USetConfig::default());
    let analysis = AdiAnalysis::for_circuit(circuit, faults, &selection.patterns, AdiConfig::default());
    let dynamic = order_faults(&analysis, FaultOrdering::Dynamic0);
    let original = order_faults(&analysis, FaultOrdering::Original);
    let warmup = PatternSet::random(circuit.netlist().num_inputs(), 64, 7);

    for atpg_threads in [1usize, 4] {
        let fresh = || generator(circuit, faults, atpg_threads);
        // Only the sequential loop opens `atpg.podem` on this thread.
        let trace = atpg_threads == 1;
        let context = |name: &str| format!("{label} atpg_threads {atpg_threads} {name}");
        assert_sequence(&context("F0dynm, Forig"), &fresh, &dynamic, &|g| g.run(&original), trace);
        assert_sequence(&context("Forig, F0dynm"), &fresh, &original, &|g| g.run(&dynamic), trace);
        assert_sequence(
            &context("run, random phase"),
            &fresh,
            &original,
            &|g| g.run_with_random_phase(&original, &warmup),
            trace,
        );
    }
}

/// The suite up to 300 gates, irs820 split off into its own test so the
/// two run in parallel (its dynamic order dominates a debug build).
fn suite(irs820: bool) {
    for c in paper_suite_up_to(300).into_iter().filter(|c| (c.name == "irs820") == irs820) {
        assert_memo_replays(&c.compiled(), c.name);
    }
}

#[test]
fn memo_replays_bit_identically_on_the_suite_up_to_240_gates() {
    suite(false);
}

#[test]
fn memo_replays_bit_identically_on_irs820() {
    suite(true);
}

#[test]
fn memo_replays_bit_identically_on_a_random_circuit() {
    let netlist = random_circuit(&RandomCircuitConfig::new("memo", 40, 400, 7));
    assert_memo_replays(&CompiledCircuit::compile(netlist), "random 40x400");
}
