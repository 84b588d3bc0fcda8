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
//!   faults;
//! * the sensitization path marks: the positions whose sensitization word
//!   some fault reads;
//! * each non-root position's unique reader and the pin it reads through.
//!
//! It is built from a [`LevelizedCsr`], an [`FfrPartition`] and a
//! [`FaultList`], and [`CompiledCircuit`](crate::CompiledCircuit) memoizes
//! it for its own collapsed and full fault lists.

use crate::fault::{FaultId, FaultList};
use crate::{FfrPartition, LevelizedCsr};

/// The reader entry of a position that roots its own FFR.
const NO_READER: (u32, u16) = (u32::MAX, u16::MAX);

/// A fault list grouped by FFR root, with the sensitization path marks
/// and per-position readers the stem-region simulator runs on. Every
/// position is a [`LevelizedCsr`] position.
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
        };
        let mut sens_needed = vec![false; n];
        let mut root_pos_of = Vec::with_capacity(faults.len());
        for (_, fault) in faults.iter() {
            let node = fault.effect_node();
            assert!(node.index() < n, "fault {fault} outside netlist");
            index.mark_path(view.position(node), &mut sens_needed);
            root_pos_of.push(view.position(ffr.root_of(node)) as u32);
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
    fn empty_fault_list_has_no_groups() {
        let c = circuit();
        let index = FaultRegionIndex::build(c.view(), c.ffr(), &FaultList::from_faults(Vec::new()));
        assert_eq!(index.num_groups(), 0);
        assert!(index.sens_needed().iter().all(|&m| !m));
    }
}
