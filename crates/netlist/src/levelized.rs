//! Flattened, levelized CSR view of a [`Netlist`] for cache-friendly
//! simulation.
//!
//! The [`Netlist`] stores nodes in creation order, which is convenient for
//! construction and name-based tooling but scatters the simulation hot
//! path: walking `topo_order()` chases `NodeId` indirections whose memory
//! locations follow the source file, not the evaluation order. The
//! [`LevelizedCsr`] view re-lays the whole graph out in **topological
//! level order** — every array below is indexed by *position*, where
//! positions are assigned level by level (ties broken by node id) — so a
//! forward simulation pass is a single linear sweep over contiguous
//! `kinds`/`fanin` arrays, and an event-driven propagation can use the
//! position itself as its priority key.
//!
//! The view additionally precomputes a per-node **output-cone
//! reachability mask** ([`LevelizedCsr::out_mask_at`]): the OR of bit
//! `o % 64` over every primary output `o` structurally reachable from
//! the node. A zero mask proves a fault effect at that node can never
//! be observed, which the fault simulators use as an early exit.
//!
//! The view is derived data: it borrows nothing and can be built once and
//! reused for any number of simulations of the same netlist.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{GateKind, Netlist, NodeId};

/// Process-wide count of [`LevelizedCsr::build`] invocations, exposed via
/// [`LevelizedCsr::build_count`] so tests can assert that a compiled
/// pipeline performs exactly one levelization.
static BUILD_COUNT: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// The calling thread's share of [`BUILD_COUNT`]. Unit tests assert on
    /// it because other tests of the same binary build views on parallel
    /// threads.
    static THREAD_BUILD_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A flattened, levelized, position-indexed CSR encoding of a [`Netlist`].
///
/// # Examples
///
/// ```
/// use adi_netlist::{GateKind, LevelizedCsr, NetlistBuilder};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("inv");
/// let a = b.add_input("a");
/// let y = b.add_gate(GateKind::Not, "y", &[a])?;
/// b.mark_output(y);
/// let n = b.build()?;
/// let view = LevelizedCsr::build(&n);
/// // Fanin positions always precede their reader's position.
/// let yp = view.position(y);
/// assert!(view.fanins_at(yp).iter().all(|&f| (f as usize) < yp));
/// // `y` reaches output 0, so its reachability mask is non-zero.
/// assert!(view.reaches_output(yp));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LevelizedCsr {
    /// Position → node id (level-major order).
    order: Vec<NodeId>,
    /// Node id → position.
    pos: Vec<u32>,
    /// Gate kind per position.
    kinds: Vec<GateKind>,
    /// `level_starts[l]..level_starts[l + 1]` is the position range of
    /// level `l`; length is `num_levels() + 1`.
    level_starts: Vec<u32>,
    /// Logic level per position (non-decreasing by construction).
    levels: Vec<u32>,
    /// CSR index into `fanin_data`, per position.
    fanin_index: Vec<u32>,
    /// Fanin *positions*, pin order preserved.
    fanin_data: Vec<u32>,
    /// CSR index into `fanout_data`, per position.
    fanout_index: Vec<u32>,
    /// Fanout *positions* (one entry per reading pin, duplicates kept).
    fanout_data: Vec<u32>,
    /// Primary-output flag per position.
    is_output: Vec<bool>,
    /// Positions of the primary inputs, in declaration order.
    inputs: Vec<u32>,
    /// Positions of the primary outputs, in declaration order.
    outputs: Vec<u32>,
    /// Output-cone reachability mask per position (OR of bit `o % 64`
    /// over reachable outputs `o`; own bit included for outputs).
    out_mask: Vec<u64>,
}

impl LevelizedCsr {
    /// Builds the levelized view of `netlist`.
    pub fn build(netlist: &Netlist) -> Self {
        BUILD_COUNT.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_BUILD_COUNT.with(|c| c.set(c.get() + 1));
        let n = netlist.num_nodes();
        let n_levels = netlist.max_level() as usize + 1;

        // Counting sort of node ids by level: stable, so ties stay in
        // creation order.
        let mut level_starts = vec![0u32; n_levels + 1];
        for id in netlist.node_ids() {
            level_starts[netlist.level(id) as usize + 1] += 1;
        }
        for l in 0..n_levels {
            level_starts[l + 1] += level_starts[l];
        }
        let mut cursor: Vec<u32> = level_starts[..n_levels].to_vec();
        let mut order = vec![NodeId::default(); n];
        let mut pos = vec![0u32; n];
        for id in netlist.node_ids() {
            let c = &mut cursor[netlist.level(id) as usize];
            order[*c as usize] = id;
            pos[id.index()] = *c;
            *c += 1;
        }

        let kinds: Vec<GateKind> = order.iter().map(|&id| netlist.kind(id)).collect();
        let is_output: Vec<bool> = order.iter().map(|&id| netlist.is_output(id)).collect();
        let levels: Vec<u32> = order.iter().map(|&id| netlist.level(id)).collect();

        let mut fanin_index = Vec::with_capacity(n + 1);
        let mut fanin_data = Vec::new();
        fanin_index.push(0u32);
        for &id in &order {
            fanin_data.extend(netlist.fanins(id).iter().map(|f| pos[f.index()]));
            fanin_index.push(fanin_data.len() as u32);
        }
        let mut fanout_index = Vec::with_capacity(n + 1);
        let mut fanout_data = Vec::new();
        fanout_index.push(0u32);
        for &id in &order {
            fanout_data.extend(netlist.fanouts(id).iter().map(|g| pos[g.index()]));
            fanout_index.push(fanout_data.len() as u32);
        }

        let inputs: Vec<u32> = netlist.inputs().iter().map(|i| pos[i.index()]).collect();
        let outputs: Vec<u32> = netlist.outputs().iter().map(|o| pos[o.index()]).collect();

        // Reachability masks in one reverse sweep: every fanout sits at a
        // strictly greater position, so its mask is already final.
        let mut out_mask = vec![0u64; n];
        for (o, &p) in outputs.iter().enumerate() {
            out_mask[p as usize] |= 1u64 << (o % 64);
        }
        for p in (0..n).rev() {
            let lo = fanout_index[p] as usize;
            let hi = fanout_index[p + 1] as usize;
            let mut m = out_mask[p];
            for &g in &fanout_data[lo..hi] {
                m |= out_mask[g as usize];
            }
            out_mask[p] = m;
        }

        LevelizedCsr {
            order,
            pos,
            kinds,
            level_starts,
            levels,
            fanin_index,
            fanin_data,
            fanout_index,
            fanout_data,
            is_output,
            inputs,
            outputs,
            out_mask,
        }
    }

    /// Process-wide number of [`LevelizedCsr::build`] calls so far.
    ///
    /// The levelization is the single O(E) setup every analysis in the
    /// workspace runs on; a compiled pipeline
    /// ([`CompiledCircuit`](crate::CompiledCircuit)) is expected to pay it
    /// exactly once per circuit. Tests assert that by sampling this
    /// counter before and after a run. The count is monotonically
    /// increasing and shared by every thread of the process, so delta
    /// assertions are only meaningful while no concurrent builds happen.
    pub fn build_count() -> u64 {
        BUILD_COUNT.load(Ordering::Relaxed)
    }

    /// Number of [`LevelizedCsr::build`] calls so far on the calling
    /// thread.
    #[cfg(test)]
    pub(crate) fn thread_build_count() -> u64 {
        THREAD_BUILD_COUNT.with(std::cell::Cell::get)
    }

    /// Total number of nodes (= positions).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.order.len()
    }

    /// Number of logic levels (`max_level + 1`).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.level_starts.len() - 1
    }

    /// The node occupying `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[inline]
    pub fn node_at(&self, position: usize) -> NodeId {
        self.order[position]
    }

    /// The position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn position(&self, node: NodeId) -> usize {
        self.pos[node.index()] as usize
    }

    /// The gate kind at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[inline]
    pub fn kind_at(&self, position: usize) -> GateKind {
        self.kinds[position]
    }

    /// Fanin positions of the node at `position`, in pin order.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[inline]
    pub fn fanins_at(&self, position: usize) -> &[u32] {
        let lo = self.fanin_index[position] as usize;
        let hi = self.fanin_index[position + 1] as usize;
        &self.fanin_data[lo..hi]
    }

    /// Fanout positions of the node at `position` (one entry per reading
    /// pin; a gate reading the node twice appears twice).
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[inline]
    pub fn fanouts_at(&self, position: usize) -> &[u32] {
        let lo = self.fanout_index[position] as usize;
        let hi = self.fanout_index[position + 1] as usize;
        &self.fanout_data[lo..hi]
    }

    /// The logic level of the node at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[inline]
    pub fn level_at(&self, position: usize) -> u32 {
        self.levels[position]
    }

    /// The position range occupied by `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[inline]
    pub fn level_range(&self, level: usize) -> std::ops::Range<usize> {
        self.level_starts[level] as usize..self.level_starts[level + 1] as usize
    }

    /// Returns `true` if the node at `position` is a primary output.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[inline]
    pub fn is_output_at(&self, position: usize) -> bool {
        self.is_output[position]
    }

    /// Positions of the primary inputs, in declaration order.
    #[inline]
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Positions of the primary outputs, in declaration order.
    #[inline]
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// The output-cone reachability mask of the node at `position`: the
    /// OR, over every structurally reachable primary output `o`, of bit
    /// `o % 64` (a node that *is* an output carries its own bit).
    ///
    /// Outputs are hashed modulo 64, so on circuits with more than 64
    /// outputs a set bit only proves *some* output congruent mod 64 is
    /// reachable; a zero mask always proves no output is reachable.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[inline]
    pub fn out_mask_at(&self, position: usize) -> u64 {
        self.out_mask[position]
    }

    /// Returns `true` if any primary output is structurally reachable
    /// from the node at `position` — equivalently, if a fault effect
    /// appearing there could ever be observed.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[inline]
    pub fn reaches_output(&self, position: usize) -> bool {
        self.out_mask[position] != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn mux2() -> Netlist {
        let mut b = NetlistBuilder::new("mux2");
        let a = b.add_input("a");
        let sel = b.add_input("sel");
        let c = b.add_input("c");
        let nsel = b.add_gate(GateKind::Not, "nsel", &[sel]).unwrap();
        let t0 = b.add_gate(GateKind::And, "t0", &[a, nsel]).unwrap();
        let t1 = b.add_gate(GateKind::And, "t1", &[c, sel]).unwrap();
        let y = b.add_gate(GateKind::Or, "y", &[t0, t1]).unwrap();
        b.mark_output(y);
        b.build().unwrap()
    }

    #[test]
    fn positions_are_a_bijection() {
        let n = mux2();
        let v = LevelizedCsr::build(&n);
        assert_eq!(v.num_nodes(), n.num_nodes());
        for id in n.node_ids() {
            assert_eq!(v.node_at(v.position(id)), id);
        }
    }

    #[test]
    fn order_is_level_major_and_topological() {
        let n = mux2();
        let v = LevelizedCsr::build(&n);
        for p in 0..v.num_nodes() {
            let id = v.node_at(p);
            assert_eq!(v.kind_at(p), n.kind(id));
            assert_eq!(v.is_output_at(p), n.is_output(id));
            for &f in v.fanins_at(p) {
                assert!((f as usize) < p, "fanin after reader");
            }
            for &g in v.fanouts_at(p) {
                assert!((g as usize) > p, "fanout before driver");
            }
        }
        // Levels tile the position space in order.
        assert_eq!(v.num_levels(), n.max_level() as usize + 1);
        for l in 0..v.num_levels() {
            for p in v.level_range(l) {
                assert_eq!(n.level(v.node_at(p)), l as u32);
                assert_eq!(v.level_at(p), l as u32);
            }
        }
    }

    #[test]
    fn fanin_fanout_positions_mirror_netlist() {
        let n = mux2();
        let v = LevelizedCsr::build(&n);
        for id in n.node_ids() {
            let p = v.position(id);
            let fi: Vec<NodeId> = v.fanins_at(p).iter().map(|&f| v.node_at(f as usize)).collect();
            assert_eq!(fi, n.fanins(id));
            let mut fo: Vec<NodeId> =
                v.fanouts_at(p).iter().map(|&g| v.node_at(g as usize)).collect();
            let mut expect = n.fanouts(id).to_vec();
            fo.sort_unstable();
            expect.sort_unstable();
            assert_eq!(fo, expect);
        }
    }

    #[test]
    fn io_positions_follow_declaration_order() {
        let n = mux2();
        let v = LevelizedCsr::build(&n);
        let ins: Vec<NodeId> = v.inputs().iter().map(|&p| v.node_at(p as usize)).collect();
        assert_eq!(ins, n.inputs());
        let outs: Vec<NodeId> = v.outputs().iter().map(|&p| v.node_at(p as usize)).collect();
        assert_eq!(outs, n.outputs());
    }

    #[test]
    fn out_masks_track_reachability() {
        // a feeds the output y; x is dead logic.
        let mut b = NetlistBuilder::new("dead");
        let a = b.add_input("a");
        let x = b.add_input("x");
        let dead = b.add_gate(GateKind::Not, "dead", &[x]).unwrap();
        let y = b.add_gate(GateKind::Buf, "y", &[a]).unwrap();
        b.mark_output(y);
        let n = b.build().unwrap();
        let v = LevelizedCsr::build(&n);
        assert!(v.reaches_output(v.position(a)));
        assert!(v.reaches_output(v.position(y)));
        assert!(!v.reaches_output(v.position(x)));
        assert!(!v.reaches_output(v.position(dead)));
    }

    #[test]
    fn out_masks_distinguish_outputs() {
        // Two disjoint cones: each input must carry only its own output's bit.
        let mut b = NetlistBuilder::new("pair");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let y0 = b.add_gate(GateKind::Not, "y0", &[a]).unwrap();
        let y1 = b.add_gate(GateKind::Not, "y1", &[c]).unwrap();
        b.mark_output(y0);
        b.mark_output(y1);
        let n = b.build().unwrap();
        let v = LevelizedCsr::build(&n);
        assert_eq!(v.out_mask_at(v.position(a)), 1);
        assert_eq!(v.out_mask_at(v.position(c)), 2);
        assert_eq!(v.out_mask_at(v.position(y0)), 1);
        assert_eq!(v.out_mask_at(v.position(y1)), 2);
    }
}
