//! Property tests of the structural analyses (FFRs, levels, collapsing
//! counts) against their definitions, on randomly built
//! netlists.

use adi_netlist::fault::FaultList;
use adi_netlist::{FfrPartition, GateKind, Netlist, NetlistBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random DAG netlist locally (this crate cannot depend on
/// `adi-circuits`, which sits above it).
fn build_random(inputs: usize, gates: usize, seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new("prop");
    let mut nodes = Vec::new();
    let mut read = Vec::new();
    for i in 0..inputs {
        nodes.push(b.add_input(format!("i{i}")));
        read.push(0u32);
    }
    let kinds = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Not,
    ];
    for g in 0..gates {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let arity = if kind == GateKind::Not { 1 } else { 2 };
        // With a single predecessor available, a 2-input gate cannot get
        // distinct fanins; shrink the request instead of spinning.
        let arity = arity.min(nodes.len());
        let mut fanins = Vec::new();
        while fanins.len() < arity {
            let cand = nodes[rng.gen_range(0..nodes.len())];
            if !fanins.contains(&cand) {
                fanins.push(cand);
            }
        }
        for f in &fanins {
            read[f.index()] += 1;
        }
        nodes.push(b.add_gate(kind, format!("g{g}"), &fanins).unwrap());
        read.push(0);
    }
    for (i, &n) in nodes.iter().enumerate() {
        if read[i] == 0 {
            b.mark_output(n);
        }
    }
    b.build().unwrap()
}

fn netlist_strategy() -> impl Strategy<Value = Netlist> {
    (1usize..=8, 1usize..=40, any::<u64>())
        .prop_map(|(i, g, s)| build_random(i, g, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn levels_are_shortest_longest_path(netlist in netlist_strategy()) {
        for node in netlist.node_ids() {
            let fanins = netlist.fanins(node);
            if fanins.is_empty() {
                prop_assert_eq!(netlist.level(node), 0);
            } else {
                let expect = fanins.iter().map(|f| netlist.level(*f)).max().unwrap() + 1;
                prop_assert_eq!(netlist.level(node), expect);
            }
        }
    }

    #[test]
    fn ffr_roots_are_exactly_multireader_or_po_nodes(netlist in netlist_strategy()) {
        let ffr = FfrPartition::compute(&netlist);
        for node in netlist.node_ids() {
            let readers = netlist.fanouts(node).len();
            let should_be_root =
                readers != 1 || netlist.is_output(node);
            prop_assert_eq!(
                ffr.root_of(node) == node,
                should_be_root,
                "node {} readers {} po {}",
                node, readers, netlist.is_output(node)
            );
        }
    }

    #[test]
    fn ffr_members_reach_root_through_single_readers(netlist in netlist_strategy()) {
        let ffr = FfrPartition::compute(&netlist);
        for node in netlist.node_ids() {
            let root = ffr.root_of(node);
            // Walk the unique-reader chain from node; it must end at root.
            let mut cur = node;
            let mut steps = 0;
            while cur != root {
                let readers = netlist.fanouts(cur);
                prop_assert_eq!(readers.len(), 1, "non-root member with fanout");
                prop_assert!(!netlist.is_output(cur));
                cur = readers[0];
                steps += 1;
                prop_assert!(steps <= netlist.num_nodes(), "cycle in FFR chain");
            }
        }
    }

    #[test]
    fn collapse_never_grows(netlist in netlist_strategy()) {
        let full = FaultList::full(&netlist).len();
        let eq = FaultList::collapsed(&netlist).len();
        let dom = FaultList::dominance_collapsed(&netlist).len();
        prop_assert!(eq <= full);
        prop_assert!(dom <= eq);
        prop_assert!(dom >= 1);
    }

    #[test]
    fn num_lines_counts_stems_plus_true_branches(netlist in netlist_strategy()) {
        let mut expect = netlist.num_nodes();
        for g in netlist.node_ids() {
            for &src in netlist.fanins(g) {
                if netlist.fanout_count(src) > 1 {
                    expect += 1;
                }
            }
        }
        prop_assert_eq!(netlist.num_lines(), expect);
    }

    #[test]
    fn full_fault_list_covers_every_line_twice(netlist in netlist_strategy()) {
        prop_assert_eq!(FaultList::full(&netlist).len(), 2 * netlist.num_lines());
    }
}
