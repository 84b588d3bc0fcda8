//! Cross-crate validation of the optional analyses: dominance collapsing
//! against ground-truth detection sets, and signal probabilities against
//! exhaustive simulation.

use adi::circuits::{random_circuit, RandomCircuitConfig};
use adi::netlist::fault::{Fault, FaultList, FaultSite};
use adi::netlist::{CompiledCircuit, Netlist};
use adi::sim::probability::independent_probabilities;
use adi::sim::{FaultSimulator, PatternSet};
use proptest::prelude::*;

fn tiny_circuit() -> impl Strategy<Value = Netlist> {
    (2usize..=8, 4usize..=25, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        random_circuit(&RandomCircuitConfig::new("prop", inputs, gates, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The defining property of dominance collapsing: a test set that
    /// detects every detectable retained fault of a gate's inputs also
    /// detects the gate's removed output fault. We verify the stronger
    /// per-gate statement: for each removed AND/NAND/OR/NOR output fault,
    /// the exhaustive test set of each input fault at the non-controlling
    /// value is contained in the output fault's test set.
    #[test]
    fn dominance_inclusion_holds(netlist in tiny_circuit()) {
        let full = FaultList::full(&netlist);
        let patterns = PatternSet::exhaustive(netlist.num_inputs());
        let matrix = FaultSimulator::for_circuit(&CompiledCircuit::compile(netlist.clone()), &full)
            .no_drop_matrix(&patterns);
        let row = |f: Fault| -> Vec<usize> {
            let id = full.position(f).expect("fault in full universe");
            matrix.detecting_patterns(id).collect()
        };
        for gate in netlist.node_ids() {
            let kind = netlist.kind(gate);
            let Some(c) = kind.controlling_value() else { continue };
            if netlist.fanins(gate).len() < 2 {
                continue;
            }
            let out_fault = Fault::stem_at(gate, c == kind.is_inverting());
            let out_tests = row(out_fault);
            for (pin, &src) in netlist.fanins(gate).iter().enumerate() {
                let in_fault = if netlist.fanout_count(src) > 1 {
                    Fault::branch_at(gate, pin as u8, !c)
                } else {
                    Fault::stem_at(src, !c)
                };
                for t in row(in_fault) {
                    prop_assert!(
                        out_tests.contains(&t),
                        "test {t} for {in_fault} misses dominated {out_fault}"
                    );
                }
            }
        }
    }

    /// Complete coverage of the dominance-collapsed list implies complete
    /// coverage of the equivalence-collapsed list *when every input fault
    /// of every dominated gate is detectable* (the textbook precondition).
    #[test]
    fn dominance_list_is_smaller_but_sound_for_generation(netlist in tiny_circuit()) {
        let eq = FaultList::collapsed(&netlist);
        let dom = FaultList::dominance_collapsed(&netlist);
        prop_assert!(dom.len() <= eq.len());
        // Every dominance-retained fault is also a line fault of the full
        // universe (sanity).
        let full = FaultList::full(&netlist);
        for (_, f) in dom.iter() {
            prop_assert!(full.position(f).is_some());
        }
    }

    #[test]
    fn independent_probability_exact_when_no_reconvergence(width in 2usize..6) {
        // A pure tree (parity tree) has no reconvergent fanout: the
        // independence assumption is exact.
        let netlist = adi::circuits::generators::parity_tree(width);
        let exhaustive = PatternSet::exhaustive(width);
        let good = adi::sim::reference::GoodValues::for_circuit(
            &CompiledCircuit::compile(netlist.clone()),
            &exhaustive,
        );
        let p = independent_probabilities(&netlist);
        for node in netlist.node_ids() {
            let ones = (0..exhaustive.len()).filter(|&q| good.value(node, q)).count();
            let exact = ones as f64 / exhaustive.len() as f64;
            prop_assert!((exact - p[node.index()]).abs() < 1e-9);
        }
    }
}

#[test]
fn dominance_collapse_counts_on_embedded_circuits() {
    use adi::circuits::embedded;
    for netlist in embedded::all() {
        let full = FaultList::full(&netlist).len();
        let eq = FaultList::collapsed(&netlist).len();
        let dom = FaultList::dominance_collapsed(&netlist).len();
        assert!(dom <= eq && eq <= full, "{}: {dom} <= {eq} <= {full}", netlist.name());
        // Dominance must actually bite on NAND-rich circuits.
        if netlist.name() == "c17" {
            assert!(dom < eq);
        }
    }
}

#[test]
fn dominance_retains_only_line_faults_of_expected_shape() {
    let netlist = adi::circuits::embedded::c17();
    let dom = FaultList::dominance_collapsed(&netlist);
    for (_, f) in dom.iter() {
        match f.site() {
            FaultSite::Stem(_) | FaultSite::Branch { .. } => {}
        }
    }
    assert!(!dom.is_empty());
}
