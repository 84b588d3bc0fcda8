//! Fanin/fanout cone computation over compact node bitsets.

use crate::{Netlist, NodeId};

/// A dense bitset over the nodes of one [`Netlist`].
///
/// Used to represent structural cones (transitive fanin/fanout). The set
/// remembers only the node count, not the netlist, so it must not be mixed
/// between circuits.
///
/// # Examples
///
/// ```
/// use adi_netlist::{NodeId, NodeSet};
///
/// let mut s = NodeSet::new(10);
/// s.insert(NodeId::new(3));
/// assert!(s.contains(NodeId::new(3)));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeSet {
    words: Vec<u64>,
    universe: usize,
}

impl NodeSet {
    /// Creates an empty set over a universe of `universe` nodes.
    pub fn new(universe: usize) -> Self {
        NodeSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// Number of nodes in the universe (not the set cardinality).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts a node. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the universe.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(i < self.universe, "node {node} outside universe");
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Removes a node. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the universe.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(i < self.universe, "node {node} outside universe");
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        present
    }

    /// Returns `true` if the node is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the universe.
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        assert!(i < self.universe, "node {node} outside universe");
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all nodes from the set.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(NodeId::new(wi * 64 + b))
                }
            })
        })
    }
}

/// Computes the transitive fanin cone of `roots` (including the roots).
///
/// The result contains every node from which some root is reachable through
/// fanin edges — i.e. everything that can influence the roots.
///
/// # Examples
///
/// ```
/// use adi_netlist::{fanin_cone, GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("c");
/// let a = b.add_input("a");
/// let x = b.add_input("x");
/// let g = b.add_gate(GateKind::Not, "g", &[a])?;
/// b.mark_output(g);
/// b.mark_output(x);
/// let n = b.build()?;
/// let cone = fanin_cone(&n, &[g]);
/// assert!(cone.contains(a) && cone.contains(g) && !cone.contains(x));
/// # Ok(())
/// # }
/// ```
pub fn fanin_cone(netlist: &Netlist, roots: &[NodeId]) -> NodeSet {
    let mut set = NodeSet::new(netlist.num_nodes());
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(u) = stack.pop() {
        if set.insert(u) {
            stack.extend_from_slice(netlist.fanins(u));
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateKind, NetlistBuilder};

    fn chain(n: usize) -> (Netlist, Vec<NodeId>) {
        let mut b = NetlistBuilder::new("chain");
        let mut ids = vec![b.add_input("i")];
        for k in 1..n {
            let prev = ids[k - 1];
            ids.push(b.add_gate(GateKind::Buf, format!("g{k}"), &[prev]).unwrap());
        }
        b.mark_output(*ids.last().unwrap());
        (b.build().unwrap(), ids)
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(NodeId::new(0)));
        assert!(s.insert(NodeId::new(64)));
        assert!(s.insert(NodeId::new(129)));
        assert!(!s.insert(NodeId::new(64)));
        assert_eq!(s.len(), 3);
        assert!(s.remove(NodeId::new(64)));
        assert!(!s.remove(NodeId::new(64)));
        assert!(!s.contains(NodeId::new(64)));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn set_iter_in_order() {
        let mut s = NodeSet::new(200);
        for i in [5usize, 70, 3, 199] {
            s.insert(NodeId::new(i));
        }
        let got: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(got, vec![3, 5, 70, 199]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn set_panics_out_of_universe() {
        let mut s = NodeSet::new(10);
        s.insert(NodeId::new(10));
    }

    #[test]
    fn cones_on_a_chain() {
        let (n, ids) = chain(5);
        let mid = ids[2];
        let fi = fanin_cone(&n, &[mid]);
        assert_eq!(fi.len(), 3); // i, g1, g2
        assert!(fi.contains(ids[0]) && !fi.contains(ids[3]));
    }

    #[test]
    fn cone_of_all_outputs_covers_live_circuit() {
        let (n, ids) = chain(4);
        let outs: Vec<NodeId> = n.outputs().to_vec();
        let cone = fanin_cone(&n, &outs);
        assert_eq!(cone.len(), n.num_nodes());
        assert!(ids.iter().all(|&id| cone.contains(id)));
    }
}
