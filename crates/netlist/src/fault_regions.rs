//! A fault list grouped by fanout-free region, in levelized position
//! space.
//!
//! The stem-region fault simulator detects all the faults of one
//! fanout-free region (FFR) with a reverse sensitization sweep inside the
//! region and one observability walk from its root. [`FaultRegionIndex`]
//! holds what that simulator derives from the circuit structure and a
//! fault list, and nothing that depends on patterns:
//!
//! * the fault groups: each FFR root holding a fault, with the ids of its
//!   faults and, beside each id, its [`PackedSite`] (effect position,
//!   branch pin and stuck value in 8 bytes), so the simulator computes a
//!   fault's stem-difference word without reading the fault list or
//!   mapping a node to its position;
//! * the sensitization path marks: the positions whose sensitization word
//!   some fault reads;
//! * each non-root position's unique reader and the pin it reads through.
//!
//! It is built from a [`LevelizedCsr`], an [`FfrPartition`] and a
//! [`FaultList`], and [`CompiledCircuit`](crate::CompiledCircuit) memoizes
//! it for its own collapsed and full fault lists.

use crate::fault::{Fault, FaultId, FaultList, FaultSite};
use crate::{FfrPartition, LevelizedCsr};

/// The reader entry of a position that roots its own FFR.
const NO_READER: (u32, u16) = (u32::MAX, u16::MAX);

/// The pin of a stem fault's [`PackedSite`].
const STEM_PIN: u16 = u16::MAX;

/// A fault's site in [`LevelizedCsr`] position space, in 8 bytes: the
/// position its effect appears at (its stem, or the gate reading its
/// branch), the branch pin, and the stuck value.
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, fault::Fault, CompiledCircuit, PackedSite};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "inv")?;
/// let circuit = CompiledCircuit::compile(n);
/// let y = circuit.netlist().find_node("y").unwrap();
/// let site = PackedSite::of(circuit.view(), Fault::branch_at(y, 0, true));
/// assert_eq!(site.position(), circuit.view().position(y));
/// assert_eq!(site.pin(), Some(0));
/// assert!(site.stuck_value());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PackedSite {
    position: u32,
    /// The branch pin, or [`STEM_PIN`] for a stem fault.
    pin: u16,
    stuck: bool,
}

impl PackedSite {
    /// Packs the site of `fault` over `view`.
    ///
    /// # Panics
    ///
    /// Panics if the fault references a node outside the view.
    pub fn of(view: &LevelizedCsr, fault: Fault) -> Self {
        let (node, pin) = match fault.site() {
            FaultSite::Stem(node) => (node, STEM_PIN),
            FaultSite::Branch { gate, pin } => (gate, u16::from(pin)),
        };
        PackedSite {
            position: view.position(node) as u32,
            pin,
            stuck: fault.stuck_value(),
        }
    }

    /// The effect position: the stem's own position, or that of the
    /// gate reading the branch.
    #[inline]
    pub fn position(self) -> usize {
        self.position as usize
    }

    /// The branch pin, `None` for a stem fault.
    #[inline]
    pub fn pin(self) -> Option<usize> {
        (self.pin != STEM_PIN).then_some(usize::from(self.pin))
    }

    /// The stuck value.
    #[inline]
    pub fn stuck_value(self) -> bool {
        self.stuck
    }
}

/// A fault list grouped by FFR root, each fault beside its
/// [`PackedSite`], with the sensitization path marks and per-position
/// readers the stem-region simulator runs on. Every position is a
/// [`LevelizedCsr`] position.
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, CompiledCircuit, FaultRegionIndex};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ns = AND(a, b)\ny = NOT(s)\nz = BUF(s)\n";
/// let circuit = CompiledCircuit::compile(bench_format::parse(src, "fan")?);
/// let faults = circuit.collapsed_faults();
/// let index = FaultRegionIndex::build(circuit.view(), circuit.ffr(), faults);
/// // Every fault sits in exactly one group.
/// let grouped: usize = (0..index.num_groups()).map(|g| index.group_faults(g).len()).sum();
/// assert_eq!(grouped, faults.len());
/// // The stem `s` roots its own region; `a` reads into `s` through pin 0.
/// let view = circuit.view();
/// let (s, a) = (circuit.netlist().find_node("s").unwrap(), circuit.netlist().find_node("a").unwrap());
/// assert_eq!(index.reader(view.position(s)), None);
/// assert_eq!(index.reader(view.position(a)), Some((view.position(s), 0)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultRegionIndex {
    /// Per position: the unique reading gate's position and the pin it
    /// reads through, or [`NO_READER`] at FFR roots.
    readers: Vec<(u32, u16)>,
    /// `true` at positions whose sensitization word some fault reads:
    /// fault effect sites and the nodes on their paths to their roots.
    sens_needed: Vec<bool>,
    /// Root position of each group, ascending.
    group_roots: Vec<u32>,
    /// Offsets into `group_faults`, one per group plus one.
    group_starts: Vec<u32>,
    /// Fault ids grouped by root, ascending within each group.
    group_faults: Vec<FaultId>,
    /// The packed site of each fault of `group_faults`, in its order.
    group_sites: Vec<PackedSite>,
}

impl FaultRegionIndex {
    /// Builds the index of `faults` over the circuit whose view and FFR
    /// partition are given.
    ///
    /// # Panics
    ///
    /// Panics if any fault references a node outside the circuit.
    pub fn build(view: &LevelizedCsr, ffr: &FfrPartition, faults: &FaultList) -> Self {
        let n = view.num_nodes();

        // A node reaching the same gate through two pins has two fanout
        // entries and is therefore a root, so a non-root's pin is
        // unambiguous.
        let mut readers = vec![NO_READER; n];
        for (p, reader) in readers.iter_mut().enumerate() {
            let node = view.node_at(p);
            if ffr.root_of(node) == node {
                continue;
            }
            let fanouts = view.fanouts_at(p);
            debug_assert_eq!(fanouts.len(), 1, "non-root with fanout != 1");
            let g = fanouts[0];
            let pin = view
                .fanins_at(g as usize)
                .iter()
                .position(|&f| f == p as u32)
                .expect("reader lists driver among fanins");
            *reader = (g, pin as u16);
        }

        let mut index = FaultRegionIndex {
            readers,
            sens_needed: Vec::new(),
            group_roots: Vec::new(),
            group_starts: Vec::new(),
            group_faults: vec![FaultId::default(); faults.len()],
            group_sites: Vec::new(),
        };
        let mut sens_needed = vec![false; n];
        let mut root_pos_of = Vec::with_capacity(faults.len());
        let mut sites = Vec::with_capacity(faults.len());
        for (_, fault) in faults.iter() {
            let node = fault.effect_node();
            assert!(node.index() < n, "fault {fault} outside netlist");
            let site = PackedSite::of(view, fault);
            index.mark_path(site.position(), &mut sens_needed);
            root_pos_of.push(view.position(ffr.root_of(node)) as u32);
            sites.push(site);
        }
        index.sens_needed = sens_needed;

        // Group faults by root position with a counting sort: a count
        // per root, prefix sums into group starts, then a scatter in
        // fault-id order (so ids stay ascending within each group).
        let mut next = vec![0u32; n + 1];
        for &root in &root_pos_of {
            next[root as usize + 1] += 1;
        }
        for p in 0..n {
            if next[p + 1] > 0 {
                index.group_roots.push(p as u32);
                index.group_starts.push(next[p]);
            }
            next[p + 1] += next[p];
        }
        index.group_starts.push(faults.len() as u32);
        for (f, &root) in root_pos_of.iter().enumerate() {
            let slot = &mut next[root as usize];
            index.group_faults[*slot as usize] = FaultId::new(f);
            *slot += 1;
        }
        index.group_sites = index.group_faults.iter().map(|id| sites[id.index()]).collect();
        index
    }

    /// Number of groups: FFRs containing at least one fault.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.group_roots.len()
    }

    /// The root position of group `g`. Roots ascend with `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    pub fn group_root(&self, g: usize) -> usize {
        self.group_roots[g] as usize
    }

    /// The ids of group `g`'s faults, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    pub fn group_faults(&self, g: usize) -> &[FaultId] {
        &self.group_faults[self.group_starts[g] as usize..self.group_starts[g + 1] as usize]
    }

    /// The packed sites of group `g`'s faults, in the order of
    /// [`group_faults`](Self::group_faults).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[inline]
    pub fn group_sites(&self, g: usize) -> &[PackedSite] {
        &self.group_sites[self.group_starts[g] as usize..self.group_starts[g + 1] as usize]
    }

    /// The unique reader of a non-root position: the reading gate's
    /// position and the pin it reads through. `None` at FFR roots.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[inline]
    pub fn reader(&self, position: usize) -> Option<(usize, usize)> {
        let (g, pin) = self.readers[position];
        (g != NO_READER.0).then_some((g as usize, usize::from(pin)))
    }

    /// The sensitization path marks, by position: `true` at every
    /// fault's effect site and on its path to its root.
    #[inline]
    pub fn sens_needed(&self) -> &[bool] {
        &self.sens_needed
    }

    /// Marks `position` and its path to its FFR root in `marks`,
    /// stopping early at a position already marked (whose path is
    /// marked too).
    ///
    /// # Panics
    ///
    /// Panics if `position` or a position on its path is outside
    /// `marks`.
    pub fn mark_path(&self, mut position: usize, marks: &mut [bool]) {
        while !marks[position] {
            marks[position] = true;
            match self.reader(position) {
                Some((g, _)) => position = g,
                None => break,
            }
        }
    }

    /// The index's heap size in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.readers.len() * std::mem::size_of::<(u32, u16)>()
            + self.sens_needed.len()
            + (self.group_roots.len() + self.group_starts.len()) * std::mem::size_of::<u32>()
            + self.group_faults.len() * std::mem::size_of::<FaultId>()
            + self.group_sites.len() * std::mem::size_of::<PackedSite>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format;
    use crate::fault::Fault;
    use crate::CompiledCircuit;

    /// A reconvergent stem `s` and a fanout-free tail into `y`.
    const RECONV: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\
                          s = AND(a, b)\np = NOT(s)\nq = BUF(s)\ny = AND(p, q)\n";

    fn circuit() -> CompiledCircuit {
        CompiledCircuit::compile(bench_format::parse(RECONV, "reconv").unwrap())
    }

    #[test]
    fn readers_and_paths_follow_the_unique_reader() {
        let c = circuit();
        let (view, netlist) = (c.view(), c.netlist());
        let index = FaultRegionIndex::build(view, c.ffr(), c.full_faults());
        for p in 0..view.num_nodes() {
            let node = view.node_at(p);
            match index.reader(p) {
                None => assert_eq!(c.ffr().root_of(node), node),
                Some((g, pin)) => {
                    assert_ne!(c.ffr().root_of(node), node);
                    assert_eq!(netlist.fanouts(node), [view.node_at(g)]);
                    assert_eq!(view.fanins_at(g)[pin] as usize, p);
                }
            }
        }
        // The full list has a fault at every node, so every position
        // lies on some fault's path.
        assert!(index.sens_needed().iter().all(|&m| m));
    }

    #[test]
    fn path_marks_cover_only_the_faults_paths() {
        let c = circuit();
        let (view, netlist) = (c.view(), c.netlist());
        let a = netlist.find_node("a").unwrap();
        let faults = FaultList::from_faults(vec![Fault::stem_at(a, true)]);
        let index = FaultRegionIndex::build(view, c.ffr(), &faults);
        let marked: Vec<&str> = (0..view.num_nodes())
            .filter(|&p| index.sens_needed()[p])
            .map(|p| netlist.node_name(view.node_at(p)))
            .collect();
        assert_eq!(marked, ["a", "s"]);
        assert_eq!(index.num_groups(), 1);
        assert_eq!(index.group_faults(0), [FaultId::new(0)]);
    }

    #[test]
    fn packed_sites_decode_to_their_faults() {
        // `s` and `c` fan out, so both lists hold branch faults at `y`
        // and `z` beside the stem faults.
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
                   s = AND(a, b)\ny = AND(s, c)\nz = OR(s, c)\n";
        let c = CompiledCircuit::compile(bench_format::parse(src, "fan").unwrap());
        let view = c.view();
        for (label, faults) in [("full", c.full_faults()), ("collapsed", c.collapsed_faults())] {
            let index = FaultRegionIndex::build(view, c.ffr(), faults);
            let (mut stems, mut branches) = (0, 0);
            for g in 0..index.num_groups() {
                let (ids, sites) = (index.group_faults(g), index.group_sites(g));
                assert_eq!(ids.len(), sites.len(), "{label} group {g}");
                for (&id, &site) in ids.iter().zip(sites) {
                    let fault = faults.fault(id);
                    let position = view.position(fault.effect_node());
                    assert_eq!(site.position(), position, "{label} {fault}");
                    assert_eq!(site.stuck_value(), fault.stuck_value(), "{label} {fault}");
                    match fault.site() {
                        FaultSite::Stem(_) => {
                            assert_eq!(site.pin(), None, "{label} {fault}");
                            stems += 1;
                        }
                        FaultSite::Branch { pin, .. } => {
                            assert_eq!(site.pin(), Some(usize::from(pin)), "{label} {fault}");
                            branches += 1;
                        }
                    }
                }
            }
            assert_eq!(stems + branches, faults.len(), "{label}");
            assert!(stems > 0 && branches > 0, "{label}: {stems} stems, {branches} branches");
        }
        assert_eq!(std::mem::size_of::<PackedSite>(), 8);
    }

    #[test]
    fn empty_fault_list_has_no_groups() {
        let c = circuit();
        let index = FaultRegionIndex::build(c.view(), c.ffr(), &FaultList::from_faults(Vec::new()));
        assert_eq!(index.num_groups(), 0);
        assert!(index.sens_needed().iter().all(|&m| !m));
    }
}
