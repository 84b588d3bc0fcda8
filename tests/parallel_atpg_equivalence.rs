//! The parallel-ATPG determinism lattice: the speculative multi-target
//! loop must produce a test set, fault classifications, per-test
//! detection counts, deterministic PODEM counters, and coverage curve
//! **bit-identical** to the sequential loop at every point of the
//! (atpg_threads × speculation_depth) lattice — on the embedded
//! circuits, the paper-suite stand-ins, and random circuits.
//!
//! The oracle is the sequential batched loop (`atpg_threads: 1`);
//! `compiled_circuit.rs` and `podem_equivalence.rs` pin
//! that loop to `TestGenerator::run_reference` (scalar drop loop over
//! the full-resim PODEM reference), so this suite extends the chain of
//! equivalence to the speculative first-win committer of
//! `adi::atpg::speculate`.

use adi::atpg::{TestGenConfig, TestGenResult, TestGenerator};
use adi::circuits::{embedded, paper_suite, random_circuit, RandomCircuitConfig};
use adi::netlist::fault::{FaultId, FaultList};
use adi::netlist::{CompiledCircuit, Netlist};
use proptest::prelude::*;

mod common;
use common::assert_same_result;

const ATPG_THREADS: [usize; 3] = [1, 2, 4];
const DEPTHS: [usize; 3] = [1, 4, 16];

fn run_once(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    order: &[FaultId],
    atpg_threads: usize,
    speculation_depth: usize,
) -> TestGenResult {
    let config = TestGenConfig {
        atpg_threads,
        speculation_depth,
        ..TestGenConfig::default()
    };
    TestGenerator::for_circuit(circuit, faults, config).run(order)
}

/// Asserts the full lattice for one circuit: every thread count and
/// lookahead depth against the single sequential oracle, including the
/// deterministic stats counters and the coverage curve.
fn assert_lattice(netlist: &Netlist, label: &str) {
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = FaultList::collapsed(netlist);
    let order: Vec<FaultId> = faults.ids().collect();
    let oracle = run_once(&circuit, &faults, &order, 1, 1);
    let curve = oracle.coverage_curve();
    for threads in ATPG_THREADS {
        for depth in DEPTHS {
            let got = run_once(&circuit, &faults, &order, threads, depth);
            let context = format!("{label} atpg x{threads} depth {depth}");
            assert_same_result(&context, &got, &oracle);
            assert_eq!(
                got.podem_stats.deterministic(),
                oracle.podem_stats.deterministic(),
                "{context} stats"
            );
            assert_eq!(got.coverage_curve(), curve, "{context} curve");
        }
    }
}

/// Every embedded circuit, full lattice, in both fault orderings.
#[test]
fn speculative_atpg_identical_on_embedded_circuits() {
    for netlist in embedded::all() {
        assert_lattice(&netlist, netlist.name());
        // A reversed order changes the skip pattern the committer sees
        // (late faults drop early ones), stressing the first-win rule.
        let circuit = CompiledCircuit::compile(netlist.clone());
        let faults = FaultList::collapsed(&netlist);
        let mut rev: Vec<FaultId> = faults.ids().collect();
        rev.reverse();
        let oracle = run_once(&circuit, &faults, &rev, 1, 1);
        for threads in ATPG_THREADS {
            let got = run_once(&circuit, &faults, &rev, threads, 16);
            let context = format!("{} reversed atpg x{threads}", netlist.name());
            assert_same_result(&context, &got, &oracle);
        }
    }
}

/// Paper-suite stand-ins (bounded so the tier-1 wall clock stays sane):
/// small circuits get the full lattice, larger ones a sparse sub-lattice
/// biased toward the configurations with the most commit/claim traffic.
#[test]
fn speculative_atpg_identical_on_suite_circuits() {
    for circuit in paper_suite() {
        // The largest stand-in (irs13207, ~8k gates) is too slow for a
        // debug-build ATPG run; `speculative_atpg_identical_on_irs13207`
        // checks it in release.
        if circuit.gates > 3000 {
            continue;
        }
        let netlist = circuit.netlist();
        if circuit.gates <= 150 {
            assert_lattice(&netlist, circuit.name);
            continue;
        }
        let compiled = CompiledCircuit::compile(netlist.clone());
        let faults = FaultList::collapsed(&netlist);
        let order: Vec<FaultId> = faults.ids().collect();
        let oracle = run_once(&compiled, &faults, &order, 1, 1);
        let points: &[(usize, usize)] = if circuit.gates <= 600 {
            &[(2, 1), (4, 16), (4, 4)]
        } else {
            &[(4, 16)]
        };
        for &(threads, depth) in points {
            let got = run_once(&compiled, &faults, &order, threads, depth);
            let context = format!("{} atpg x{threads} depth {depth}", circuit.name);
            assert_same_result(&context, &got, &oracle);
        }
    }
}

/// The largest stand-in, which the suite test skips: irs13207's
/// collapsed faults in list order at 4 ATPG threads and depth 16,
/// against the sequential loop. A sequential run takes about 5 s in a
/// release build on a 2-vCPU host.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn speculative_atpg_identical_on_irs13207() {
    let circuit = paper_suite()
        .into_iter()
        .find(|c| c.name == "irs13207")
        .unwrap();
    let netlist = circuit.netlist();
    let compiled = CompiledCircuit::compile(netlist.clone());
    let faults = FaultList::collapsed(&netlist);
    let order: Vec<FaultId> = faults.ids().collect();
    let oracle = run_once(&compiled, &faults, &order, 1, 16);
    let got = run_once(&compiled, &faults, &order, 4, 16);
    assert_same_result("irs13207 atpg x4 depth 16", &got, &oracle);
    assert_eq!(
        got.podem_stats.deterministic(),
        oracle.podem_stats.deterministic()
    );
}

/// The committer adapts the claim window inside `[1, speculation_depth]`
/// from the observed waste rate, so the window a worker reads depends on
/// commit/claim interleaving — which is nondeterministic. This test pins
/// the contract that adaptation is *advisory only*: however the window
/// moves, the committed result stays bit-identical to the sequential
/// oracle. Deep caps give the widest adaptation range (repeated halving
/// and regrowth), and the interleaved order maximizes skip traffic — the
/// committer's "wasted" signal — so the window provably moves during
/// these runs.
#[test]
fn adaptive_claim_window_never_changes_output() {
    let netlist = random_circuit(&RandomCircuitConfig::new("adapt", 10, 300, 0xADA));
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = FaultList::collapsed(&netlist);
    let ids: Vec<FaultId> = faults.ids().collect();
    // Interleave front and back of the fault list: early commits drop
    // faults all over the remaining order, creating long skip runs.
    let mut order = Vec::with_capacity(ids.len());
    let (mut lo, mut hi) = (0usize, ids.len());
    while lo < hi {
        order.push(ids[lo]);
        lo += 1;
        if lo < hi {
            hi -= 1;
            order.push(ids[hi]);
        }
    }
    let oracle = run_once(&circuit, &faults, &order, 1, 1);
    for depth in [2usize, 8, 64, 256] {
        for threads in [2usize, 4] {
            let got = run_once(&circuit, &faults, &order, threads, depth);
            let context = format!("adaptive atpg x{threads} depth {depth}");
            assert_same_result(&context, &got, &oracle);
            assert_eq!(
                got.podem_stats.deterministic(),
                oracle.podem_stats.deterministic(),
                "{context} stats"
            );
        }
    }
}

/// The random-phase driver (warm-up vectors + ATPG tail) must stay
/// bit-identical too: the tail reuses the speculative loop on the
/// post-warm-up residue, where pre-dropped faults make skip runs long.
#[test]
fn speculative_atpg_identical_after_random_warmup() {
    use adi::sim::PatternSet;
    let netlist = random_circuit(&RandomCircuitConfig::new("warm", 8, 200, 0x5EED));
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = FaultList::collapsed(&netlist);
    let order: Vec<FaultId> = faults.ids().collect();
    let warmup = PatternSet::random(netlist.num_inputs(), 64, 0xBEE5);
    let run = |threads: usize, depth: usize| {
        let config = TestGenConfig {
            atpg_threads: threads,
            speculation_depth: depth,
            ..TestGenConfig::default()
        };
        TestGenerator::for_circuit(&circuit, &faults, config).run_with_random_phase(&order, &warmup)
    };
    let oracle = run(1, 1);
    for threads in ATPG_THREADS {
        for depth in DEPTHS {
            let context = format!("warmup atpg x{threads} depth {depth}");
            assert_same_result(&context, &run(threads, depth), &oracle);
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

    /// Arbitrary circuits, arbitrary fill seeds, arbitrary lattice
    /// points: whole-result equality against the sequential oracle.
    #[test]
    fn differential_speculative_vs_sequential(
        netlist in tiny_circuit(),
        seed in any::<u64>(),
        threads in (0usize..3).prop_map(|i| [2usize, 3, 4][i]),
        depth in (0usize..4).prop_map(|i| [1usize, 2, 7, 16][i]),
    ) {
        let circuit = CompiledCircuit::compile(netlist.clone());
        let faults = FaultList::collapsed(&netlist);
        let order: Vec<FaultId> = faults.ids().collect();
        let run = |atpg_threads: usize, depth: usize| {
            let config = TestGenConfig {
                fill_seed: seed,
                atpg_threads,
                speculation_depth: depth,
                ..TestGenConfig::default()
            };
            TestGenerator::for_circuit(&circuit, &faults, config).run(&order)
        };
        let oracle = run(1, 1);
        let got = run(threads, depth);
        assert_same_result("random circuit", &got, &oracle);
        prop_assert_eq!(
            got.podem_stats.deterministic(),
            oracle.podem_stats.deterministic()
        );
        prop_assert_eq!(got.coverage_curve(), oracle.coverage_curve());
    }
}
