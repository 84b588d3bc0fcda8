//! Independent-fault-set ordering (the paper's refs. \[2\]/\[5\]:
//! COMPACTEST-style ordering by maximal independent fault sets in
//! fanout-free regions).
//!
//! Two faults are *independent* if no single test detects both. Within a
//! fanout-free region (FFR), faults on distinct leaf lines requiring
//! conflicting side values tend to be independent, and the size of the
//! region's maximal independent set is well approximated by its leaf
//! count. COMPACTEST orders faults so that members of larger independent
//! sets come first, guaranteeing that early tests are all "necessary".
//!
//! This module provides that ordering as a historical baseline for the
//! ablation harness. The approximation used: a fault's score is the leaf
//! count of the FFR containing its site; faults are sorted by decreasing
//! score, ties by original order.

use adi_netlist::fault::{FaultId, FaultList, FaultSite};
use adi_netlist::{CompiledCircuit, NodeId};

/// Computes the COMPACTEST-style fault order over a compiled circuit,
/// reusing the compilation's cached FFR decomposition.
///
/// # Examples
///
/// ```
/// use adi_core::ffr_order::ffr_independent_order_for;
/// use adi_netlist::{bench_format, CompiledCircuit};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse(
///     "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nt = AND(a, b)\ny = OR(t, c)\n", "c")?;
/// let circuit = CompiledCircuit::compile(n);
/// let faults = circuit.collapsed_faults();
/// let order = ffr_independent_order_for(&circuit, faults);
/// assert_eq!(order.len(), faults.len());
/// # Ok(())
/// # }
/// ```
pub fn ffr_independent_order_for(
    circuit: &CompiledCircuit,
    faults: &FaultList,
) -> Vec<FaultId> {
    let (netlist, ffr) = (circuit.netlist(), circuit.ffr());
    // Leaf count per FFR root: members whose fanins all lie outside the
    // region (inputs of the region).
    let mut leaf_count = vec![0usize; netlist.num_nodes()];
    for node in netlist.node_ids() {
        let root = ffr.root_of(node);
        let is_leaf = netlist.fanins(node).is_empty()
            || netlist
                .fanins(node)
                .iter()
                .all(|&f| ffr.root_of(f) != root);
        if is_leaf {
            leaf_count[root.index()] += 1;
        }
    }

    let site_node = |id: FaultId| -> NodeId {
        match faults.fault(id).site() {
            FaultSite::Stem(n) => n,
            FaultSite::Branch { gate, .. } => gate,
        }
    };

    let mut order: Vec<FaultId> = faults.ids().collect();
    order.sort_by_key(|&id| {
        let root = ffr.root_of(site_node(id));
        (std::cmp::Reverse(leaf_count[root.index()]), id)
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::{bench_format, Netlist};

    /// The order over a fresh compilation of `netlist`.
    fn order_of(netlist: &Netlist, faults: &FaultList) -> Vec<FaultId> {
        ffr_independent_order_for(&CompiledCircuit::compile(netlist.clone()), faults)
    }

    #[test]
    fn order_is_a_permutation() {
        let n = bench_format::parse(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\nt = AND(a, b)\ny = OR(t, c)\nz = NOT(t)\n",
            "c",
        )
        .unwrap();
        let faults = FaultList::collapsed(&n);
        let order = order_of(&n, &faults);
        let mut sorted: Vec<usize> = order.iter().map(|f| f.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..faults.len()).collect::<Vec<_>>());
    }

    #[test]
    fn larger_regions_come_first() {
        // Circuit with a wide FFR (4-leaf AND tree) and a tiny one (single
        // BUF): faults in the wide region must precede the BUF's faults.
        let src = "
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y)
OUTPUT(z)
t1 = AND(a, b)
t2 = AND(c, d)
y = AND(t1, t2)
z = BUF(e)
";
        let n = bench_format::parse(src, "c").unwrap();
        let faults = FaultList::collapsed(&n);
        let order = order_of(&n, &faults);
        let z = n.find_node("z").unwrap();
        let e = n.find_node("e").unwrap();
        let first_small = order
            .iter()
            .position(|&id| {
                let node = match faults.fault(id).site() {
                    FaultSite::Stem(node) => node,
                    FaultSite::Branch { gate, .. } => gate,
                };
                node == z || node == e
            })
            .unwrap();
        // Everything before the first small-FFR fault is from the big FFR.
        assert!(first_small > 0);
        let big_faults = order[..first_small].len();
        // The AND-tree FFR contains all faults on a..d, t1, t2, y.
        assert!(big_faults >= faults.len() - 4);
    }

    #[test]
    fn deterministic() {
        let n = bench_format::parse(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n",
            "c",
        )
        .unwrap();
        let faults = FaultList::collapsed(&n);
        assert_eq!(
            order_of(&n, &faults),
            order_of(&n, &faults)
        );
    }
}
