//! Fanout-free region (FFR) decomposition.
//!
//! An FFR is a maximal subcircuit in which every internal node has exactly
//! one reader; fault effects inside an FFR propagate along a unique path to
//! the region's root. FFR structure underlies the independent-fault-set
//! ordering heuristic of COMPACTEST (refs. \[2\]/\[5\] of the paper), which
//! this workspace implements as a comparison baseline.
//!
//! Every node belongs to exactly one FFR. The **root** of an FFR is a node
//! whose value is read in more than one place or is a primary output (or is
//! dead, reading nowhere). A node with a single reader belongs to its
//! reader's FFR.

use crate::{Netlist, NodeId};

/// The fanout-free-region decomposition of a netlist.
///
/// # Examples
///
/// ```
/// use adi_netlist::{FfrPartition, GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("tree");
/// let a = b.add_input("a");
/// let c = b.add_input("b");
/// let g = b.add_gate(GateKind::And, "g", &[a, c])?;
/// let y = b.add_gate(GateKind::Not, "y", &[g])?;
/// b.mark_output(y);
/// let n = b.build()?;
/// let ffr = FfrPartition::compute(&n);
/// // The whole tree is a single FFR rooted at the output.
/// assert_eq!(ffr.root_of(a), y);
/// assert_eq!(ffr.roots().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FfrPartition {
    root_of: Vec<NodeId>,
    roots: Vec<NodeId>,
}

impl FfrPartition {
    /// Computes the FFR decomposition of `netlist`.
    pub fn compute(netlist: &Netlist) -> Self {
        let n = netlist.num_nodes();
        let mut root_of: Vec<NodeId> = (0..n).map(NodeId::new).collect();

        // Walk in reverse topological order: when a node has exactly one
        // reader and is not a PO, it inherits the reader's root.
        for &u in netlist.topo_order().iter().rev() {
            let readers = netlist.fanouts(u);
            if readers.len() == 1 && !netlist.is_output(u) {
                root_of[u.index()] = root_of[readers[0].index()];
            }
        }

        let roots = (0..n)
            .map(NodeId::new)
            .filter(|&id| root_of[id.index()] == id)
            .collect();
        FfrPartition { root_of, roots }
    }

    /// The FFR root that `node` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn root_of(&self, node: NodeId) -> NodeId {
        self.root_of[node.index()]
    }

    /// All FFR roots, in increasing node order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Number of FFRs.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// Returns `true` if the circuit has no nodes.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateKind, NetlistBuilder};

    /// Two trees joined by a fanout stem:
    ///
    /// ```text
    /// a ─┐
    ///    AND(g1) ── s ──┬─ NOT(y1)   [PO]
    /// b ─┘              └─ BUF(y2)   [PO]
    /// ```
    fn fanout_circuit() -> (Netlist, [NodeId; 5]) {
        let mut b = NetlistBuilder::new("fo");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let s = b.add_gate(GateKind::And, "s", &[a, c]).unwrap();
        let y1 = b.add_gate(GateKind::Not, "y1", &[s]).unwrap();
        let y2 = b.add_gate(GateKind::Buf, "y2", &[s]).unwrap();
        b.mark_output(y1);
        b.mark_output(y2);
        (b.build().unwrap(), [a, c, s, y1, y2])
    }

    #[test]
    fn fanout_stem_is_a_root() {
        let (n, [a, c, s, y1, y2]) = fanout_circuit();
        let ffr = FfrPartition::compute(&n);
        assert_eq!(ffr.root_of(s), s, "multi-reader stem roots its own FFR");
        assert_eq!(ffr.root_of(a), s);
        assert_eq!(ffr.root_of(c), s);
        assert_eq!(ffr.root_of(y1), y1);
        assert_eq!(ffr.root_of(y2), y2);
        assert_eq!(ffr.len(), 3);
    }

    #[test]
    fn po_with_fanout_is_root() {
        // A node that is both a PO and feeds another gate must be a root.
        let mut b = NetlistBuilder::new("po_fan");
        let a = b.add_input("a");
        let g = b.add_gate(GateKind::Not, "g", &[a]).unwrap();
        let h = b.add_gate(GateKind::Buf, "h", &[g]).unwrap();
        b.mark_output(g);
        b.mark_output(h);
        let n = b.build().unwrap();
        let ffr = FfrPartition::compute(&n);
        assert_eq!(ffr.root_of(g), g);
        assert_eq!(ffr.root_of(a), g);
    }
}
