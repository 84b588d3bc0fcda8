//! Differential obligations of the SAT layer (`adi::atpg::cnf`): miter
//! verdicts must agree with ground truth everywhere ground truth is
//! computable.
//!
//! * On every embedded circuit (all ≤ 16 inputs) the per-fault miter
//!   verdict must match **exhaustive fault simulation** (the per-fault
//!   PPSFP reference, `adi::sim::reference`): `Testable` iff
//!   some input pattern detects the fault, `Redundant` otherwise — and
//!   every extracted cube must actually detect its fault under both the
//!   all-zero and all-one completions of its unspecified inputs.
//! * On the synthetic paper suite the miter must agree with event-driven
//!   PODEM on every fault **both** engines decide (test ↔ SAT,
//!   untestable ↔ UNSAT).
//! * The same exhaustive cross-check holds on arbitrary random circuits
//!   (proptest), as does the equivalence miter against brute-force
//!   output comparison of circuit pairs.
//! * A known-redundant fixture is proved UNSAT.
//! * The redundancy screen in front of PODEM's full budget is final:
//!   both searches return its verdict whenever its proof decides, and
//!   the full-budget path only when the proof runs out of conflicts.

use adi::atpg::cnf::{check_equiv, prove_fault, DEFAULT_CONFLICT_LIMIT};
use adi::atpg::{
    EquivVerdict, FaultVerdict, Podem, PodemConfig, PodemOutcome, SatFallback, TestCube,
    TestGenConfig,
};
use adi::circuits::{embedded, paper_suite, random_circuit, RandomCircuitConfig};
use adi::netlist::fault::{Fault, FaultList};
use adi::netlist::{bench_format, CompiledCircuit, Netlist};
use adi::sim::reference::{self, GoodValues};
use adi::sim::{FaultSimulator, Pattern, PatternSet};
use proptest::prelude::*;

/// Completes `cube` with `fill` in every unspecified position.
fn completed(cube: &TestCube, fill: bool) -> Pattern {
    Pattern::new((0..cube.len()).map(|i| cube.get(i).unwrap_or(fill)).collect())
}

/// True iff `pattern` detects `fault` on `circuit` (single-pattern fault
/// simulation).
fn detects(circuit: &CompiledCircuit, faults: &FaultList, fault: Fault, pattern: &Pattern) -> bool {
    let single = PatternSet::from_patterns(pattern.len(), std::iter::once(pattern));
    let matrix = FaultSimulator::for_circuit(circuit, faults).no_drop_matrix(&single);
    let id = faults.position(fault).expect("fault in list");
    matrix.detected_any(id)
}

/// Asserts that `prove_fault` matches exhaustive fault simulation on
/// every collapsed fault of `netlist`, and that every extracted cube
/// detects its fault under arbitrary completion representatives.
fn assert_matches_exhaustive(netlist: &Netlist, label: &str) {
    assert!(netlist.num_inputs() <= 16, "{label}: oracle needs ≤ 16 inputs");
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = FaultList::collapsed(netlist);
    let patterns = PatternSet::exhaustive(netlist.num_inputs());
    let matrix = reference::no_drop_matrix(&circuit, &faults, &patterns);
    for (id, fault) in faults.iter() {
        let truth = matrix.detected_any(id);
        match prove_fault(&circuit, fault, DEFAULT_CONFLICT_LIMIT) {
            FaultVerdict::Testable(cube) => {
                assert!(truth, "{label}: SAT called undetectable {fault} testable");
                for fill in [false, true] {
                    assert!(
                        detects(&circuit, &faults, fault, &completed(&cube, fill)),
                        "{label}: extracted cube ({fill}-filled) misses {fault}"
                    );
                }
            }
            FaultVerdict::Redundant => {
                assert!(!truth, "{label}: SAT called detectable {fault} redundant");
            }
            FaultVerdict::Undecided => {
                panic!("{label}: conflict limit hit on a tiny circuit ({fault})");
            }
        }
    }
}

#[test]
fn embedded_circuits_match_exhaustive_simulation() {
    for netlist in embedded::all() {
        let label = netlist.name().to_string();
        assert_matches_exhaustive(&netlist, &label);
    }
}

#[test]
fn known_redundant_fault_is_proved_unsat() {
    // y = a OR (a AND b) computes y = a: the AND gate is redundant
    // logic, so its stuck-at-0 can never be observed.
    let n = bench_format::parse(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(a, t)\n",
        "absorb",
    )
    .unwrap();
    let t = n.find_node("t").unwrap();
    let circuit = CompiledCircuit::compile(n);
    assert_eq!(
        prove_fault(&circuit, Fault::stem_at(t, false), DEFAULT_CONFLICT_LIMIT),
        FaultVerdict::Redundant
    );
}

/// On faults both engines decide, PODEM and the miter must agree:
/// a PODEM test implies SAT, a PODEM untestability proof implies UNSAT.
#[test]
fn paper_suite_agrees_with_event_driven_podem() {
    let mut compared = 0u64;
    for paper in paper_suite().into_iter().filter(|c| c.gates <= 300) {
        let netlist = paper.netlist();
        let circuit = CompiledCircuit::compile(netlist.clone());
        let faults = FaultList::collapsed(&netlist);
        let mut podem = Podem::for_circuit(&circuit, PodemConfig::default());
        for (_, fault) in faults.iter() {
            let outcome = podem.generate(fault);
            let verdict = prove_fault(&circuit, fault, DEFAULT_CONFLICT_LIMIT);
            match (outcome, verdict) {
                (PodemOutcome::Test(_), FaultVerdict::Testable(_)) => compared += 1,
                (PodemOutcome::Untestable, FaultVerdict::Redundant) => compared += 1,
                (PodemOutcome::Aborted, _) | (_, FaultVerdict::Undecided) => {}
                (outcome, verdict) => {
                    panic!("{}: {fault}: PODEM {outcome:?} vs SAT {verdict:?}", paper.name)
                }
            }
        }
    }
    assert!(compared > 100, "suite too small to be meaningful: {compared}");
}

/// The redundancy screen's verdict is final. For every fault,
/// `generate` and `generate_reference` return:
///
/// 1. the search at 50 backtracks, if it settles the fault;
/// 2. otherwise `prove_fault` at `min(1_000, sat_conflict_limit)`,
///    UNSAT as untestable and SAT as a test whose cube is the model;
/// 3. otherwise (the proof undecided) the search at `backtrack_limit`,
///    followed on an abort by `prove_fault` at `sat_conflict_limit`.
///
/// Under `TestGenConfig::default().podem` every collapsed fault of a
/// suite stand-in and of a scaled-down variant of the benchmark's
/// `aborts800` recipe (40 inputs, 400 gates, seed 7) is checked. No
/// proof there runs out of conflicts, so a second pass sets
/// `sat_conflict_limit` to 1, which leaves the screen undecided on any
/// query that needs a conflict. It covers the faults the 50-backtrack
/// search aborts on (the only ones the limit can affect) of those two
/// circuits and of the full `aborts800` recipe (60 inputs, 800 gates,
/// seed 1001), where some full-budget searches abort too. At 50
/// backtracks or fewer no screen runs, so the search counters are the
/// raw search's.
#[test]
fn redundancy_screen_verdicts_are_final() {
    let config = TestGenConfig::default().podem;
    assert_eq!(config.sat_fallback, SatFallback::AbortedOnly);
    let starved = PodemConfig {
        sat_conflict_limit: 1,
        ..config
    };
    let off = |backtrack_limit| PodemConfig {
        backtrack_limit,
        sat_fallback: SatFallback::Off,
        ..config
    };
    let as_outcome = |verdict| match verdict {
        FaultVerdict::Testable(cube) => PodemOutcome::Test(cube),
        FaultVerdict::Redundant => PodemOutcome::Untestable,
        FaultVerdict::Undecided => PodemOutcome::Aborted,
    };
    let suite = paper_suite()
        .into_iter()
        .find(|c| c.name == "irs420")
        .unwrap();
    // Each circuit with whether the default pass checks it.
    let circuits = [
        (suite.netlist(), true),
        (
            random_circuit(&RandomCircuitConfig::new("aborts400", 40, 400, 7)),
            true,
        ),
        (
            random_circuit(&RandomCircuitConfig::new("aborts800", 60, 800, 1001)),
            false,
        ),
    ];
    // The search at 50 settles; screen UNSAT; screen SAT; screen
    // undecided, then the full search settles; the full search aborts
    // and the fallback answers.
    let mut branches = [0u64; 5];
    for (netlist, default_pass) in circuits {
        let name = netlist.name().to_string();
        let circuit = CompiledCircuit::compile(netlist);
        let faults: Vec<Fault> = circuit.collapsed_faults().iter().map(|(_, f)| f).collect();
        let mut short = Podem::for_circuit(&circuit, off(50));
        let spills: Vec<Fault> = faults
            .iter()
            .copied()
            .filter(|&f| short.generate(f) == PodemOutcome::Aborted)
            .collect();
        let mut passes = vec![(starved, &spills)];
        if default_pass {
            passes.insert(0, (config, &faults));
        }
        for (config, targets) in passes {
            let label = format!("{name} at {} conflicts", config.sat_conflict_limit);
            let mut screened = Podem::for_circuit(&circuit, config);
            let mut reference = Podem::for_circuit(&circuit, config);
            let mut full = Podem::for_circuit(&circuit, off(config.backtrack_limit));
            let screen_conflicts = config.sat_conflict_limit.min(1_000);
            let (mut screen_unsat, mut screen_sat) = (0, 0);
            for &fault in targets {
                let expected = match short.generate(fault) {
                    PodemOutcome::Aborted => match prove_fault(&circuit, fault, screen_conflicts) {
                        FaultVerdict::Redundant => {
                            screen_unsat += 1;
                            branches[1] += 1;
                            PodemOutcome::Untestable
                        }
                        FaultVerdict::Testable(cube) => {
                            screen_sat += 1;
                            branches[2] += 1;
                            PodemOutcome::Test(cube)
                        }
                        FaultVerdict::Undecided => match full.generate(fault) {
                            PodemOutcome::Aborted => {
                                branches[4] += 1;
                                as_outcome(prove_fault(&circuit, fault, config.sat_conflict_limit))
                            }
                            settled => {
                                branches[3] += 1;
                                settled
                            }
                        },
                    },
                    settled => {
                        branches[0] += 1;
                        settled
                    }
                };
                assert_eq!(screened.generate(fault), expected, "{label}: {fault}");
                assert_eq!(
                    reference.generate_reference(fault),
                    expected,
                    "{label}: {fault} (reference)"
                );
            }
            let (s, r) = (screened.stats(), reference.stats());
            assert_eq!(s.search_counters(), r.search_counters(), "{label}");
            assert_eq!(
                (s.sat_resolved, s.screen_redundant, s.screen_testable),
                (r.sat_resolved, r.screen_redundant, r.screen_testable),
                "{label}"
            );
            assert_eq!(
                (s.screen_redundant, s.screen_testable),
                (screen_unsat, screen_sat),
                "{label}"
            );
            assert_eq!(s.aborted, s.sat_resolved.total(), "{label}");
            assert_eq!(
                s.targets,
                s.tests + s.untestable + s.aborted + s.screen_redundant + s.screen_testable,
                "{label}"
            );
        }
        if default_pass {
            let mut raw = Podem::for_circuit(&circuit, off(50));
            let mut short_with_fallback = Podem::for_circuit(
                &circuit,
                PodemConfig {
                    backtrack_limit: 50,
                    ..config
                },
            );
            for &fault in &faults {
                raw.generate(fault);
                short_with_fallback.generate(fault);
            }
            let unscreened = short_with_fallback.stats();
            assert_eq!(
                unscreened.search_counters(),
                raw.stats().search_counters(),
                "{name}"
            );
            assert_eq!(
                (unscreened.screen_redundant, unscreened.screen_testable),
                (0, 0),
                "{name}"
            );
        }
    }
    assert!(
        branches.iter().all(|&n| n > 0),
        "a branch of the ladder never ran: {branches:?}"
    );
}

/// Brute-force oracle for `check_equiv`: output vectors over all input
/// patterns.
fn equivalent_by_simulation(left: &Netlist, right: &Netlist) -> bool {
    let patterns = PatternSet::exhaustive(left.num_inputs());
    let lc = CompiledCircuit::compile(left.clone());
    let rc = CompiledCircuit::compile(right.clone());
    let lv = GoodValues::for_circuit(&lc, &patterns);
    let rv = GoodValues::for_circuit(&rc, &patterns);
    (0..patterns.len()).all(|q| {
        left.outputs()
            .iter()
            .zip(right.outputs())
            .all(|(&lo, &ro)| lv.value(lo, q) == rv.value(ro, q))
    })
}

#[test]
fn equiv_separates_rewrite_from_mutation() {
    // NAND(a, b) rewritten as NOT(AND(a, b)) is the same function; a
    // single NAND → NOR mutation is not.
    let c17 = embedded::c17();
    let rewrite = bench_format::parse(
        &embedded::C17_BENCH.replace("G10 = NAND(G1, G3)", "G10a = AND(G1, G3)\nG10 = NOT(G10a)"),
        "c17-rewrite",
    )
    .unwrap();
    let mutation =
        bench_format::parse(&embedded::C17_BENCH.replace("G10 = NAND(G1, G3)", "G10 = NOR(G1, G3)"), "c17-mut")
            .unwrap();
    assert!(equivalent_by_simulation(&c17, &rewrite));
    assert!(!equivalent_by_simulation(&c17, &mutation));

    let base = CompiledCircuit::compile(c17);
    let verdict = check_equiv(&base, &CompiledCircuit::compile(rewrite), DEFAULT_CONFLICT_LIMIT);
    assert_eq!(verdict, Ok(EquivVerdict::Equivalent));
    match check_equiv(&base, &CompiledCircuit::compile(mutation.clone()), DEFAULT_CONFLICT_LIMIT) {
        Ok(EquivVerdict::Inequivalent(witness)) => {
            // The returned assignment must actually distinguish them.
            let witness = Pattern::new(witness);
            let pattern = PatternSet::from_patterns(witness.len(), std::iter::once(&witness));
            let lv = GoodValues::for_circuit(&base, &pattern);
            let rv = GoodValues::for_circuit(&CompiledCircuit::compile(mutation.clone()), &pattern);
            let differs = base
                .netlist()
                .outputs()
                .iter()
                .zip(mutation.outputs())
                .any(|(&lo, &ro)| lv.value(lo, 0) != rv.value(ro, 0));
            assert!(differs, "witness does not distinguish the circuits");
        }
        other => panic!("expected a distinguishing witness, got {other:?}"),
    }
}

fn tiny_circuit() -> impl Strategy<Value = Netlist> {
    (2usize..=8, 4usize..=30, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        random_circuit(&RandomCircuitConfig::new("sat-prop", inputs, gates, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exhaustive cross-check on arbitrary random circuits.
    #[test]
    fn random_circuits_match_exhaustive_simulation(netlist in tiny_circuit()) {
        assert_matches_exhaustive(&netlist, "random");
    }

    /// The equivalence miter agrees with brute-force output comparison
    /// on random circuit pairs sharing an interface (same seed ⇒
    /// identical, different seeds ⇒ almost always inequivalent — the
    /// oracle decides either way).
    #[test]
    fn random_pairs_match_brute_force_equivalence(
        inputs in 2usize..=6,
        gates in 4usize..=20,
        seed_a in any::<u64>(),
        reuse in any::<bool>(),
        seed_b in any::<u64>(),
    ) {
        let left = random_circuit(&RandomCircuitConfig::new("pair-l", inputs, gates, seed_a));
        let right = random_circuit(&RandomCircuitConfig::new(
            "pair-r", inputs, gates, if reuse { seed_a } else { seed_b },
        ));
        // Different seeds can change how many gates end up observable;
        // the miter only compares matching interfaces, so mismatched
        // pairs exercise nothing here.
        if left.num_outputs() != right.num_outputs() {
            return;
        }
        let truth = equivalent_by_simulation(&left, &right);
        let verdict = check_equiv(
            &CompiledCircuit::compile(left),
            &CompiledCircuit::compile(right),
            DEFAULT_CONFLICT_LIMIT,
        ).expect("same interface by construction");
        match verdict {
            EquivVerdict::Equivalent => prop_assert!(truth),
            EquivVerdict::Inequivalent(_) => prop_assert!(!truth),
            EquivVerdict::Undecided => panic!("conflict limit hit on a tiny pair"),
        }
    }
}
