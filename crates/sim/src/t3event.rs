//! Incremental 3-valued dual-machine simulation for PODEM.
//!
//! PODEM's inner loop changes exactly one primary input per decision and
//! retracts a handful of decisions per backtrack, yet the classic
//! implementation re-simulates **both** 3-valued machines over the whole
//! netlist after every change. [`DualMachineSim`] replaces that with an
//! event-driven evaluator on the compiled [`LevelizedCsr`] position
//! space:
//!
//! * **One packed byte per node.** Each CSR position holds both machines
//!   in a single `u8`, in dual-rail form: two bits per machine, `01` = 1,
//!   `10` = 0, `00` = X, the good machine in bits 0–1 and the faulty
//!   machine in bits 2–3. One pass over a gate's fanins with AND/OR/XOR
//!   bit formulas yields both machines' outputs at once (Kleene logic per
//!   machine, the [`eval_t3_pos`] truth table), and the undo trail stores
//!   the old byte.
//! * **Position-bitset event queue.** A wave's pending evaluations are
//!   bits of a bitset over positions, drained lowest bit first. Positions
//!   are level-major and every fanout sits on a strictly higher level, so
//!   ascending position order is topological: each scheduled node is
//!   evaluated once, after all of its fanins, and scheduling an
//!   already-pending node is a no-op.
//! * **Fault injection at the site.** [`begin_target`] pins the faulty
//!   half at the stem position (or re-evaluates the branch gate with the
//!   faulty read of its pin forced) and propagates the injection like any
//!   other event wave; the pin stays in force for every later wave.
//! * **Undo trail.** Every value change is recorded on a trail with
//!   per-decision frame marks; [`retract_frame`] restores exactly the
//!   nodes the retracted decision changed, instead of re-simulating.
//! * **Incrementally maintained search state.** A counter of
//!   fault-effect fanins per gate and a counter of differing primary
//!   outputs are updated on every value change, so the D-frontier
//!   ([`refresh_frontier`]) is assembled from a small candidate set and
//!   [`detected`] is O(1). The X-path check walks only the still-X
//!   region, pruned by the CSR's output-cone reachability masks, and is
//!   cached between decisions: an unchanged state answers in O(1), and
//!   after a change the last positive answer's witness path is
//!   revalidated in O(path) before any fresh walk.
//!
//! The evaluator's contract is *exact equivalence* with a full two-machine
//! resimulation of the current assignment ([`is_consistent`] recomputes
//! that reference state with the ternary [`eval_t3_pos`] and
//! [`eval_t3_branch`], and the PODEM differential suite asserts
//! bit-identical outcomes end to end).
//!
//! [`begin_target`]: DualMachineSim::begin_target
//! [`retract_frame`]: DualMachineSim::retract_frame
//! [`refresh_frontier`]: DualMachineSim::refresh_frontier
//! [`detected`]: DualMachineSim::detected
//! [`is_consistent`]: DualMachineSim::is_consistent

use adi_netlist::fault::{Fault, FaultSite};
use adi_netlist::{CompiledCircuit, GateKind, LevelizedCsr, NodeId};

use crate::t3::{eval_t3_branch, eval_t3_pos, T3};

/// The good machine's rails of a packed value (its faulty rails are the
/// next two bits up).
const GOOD: u8 = 0b0011;
/// The "is 1" rail of both machines.
const ONES: u8 = 0b0101;
/// The "is 0" rail of both machines.
const ZEROS: u8 = 0b1010;

/// One machine's dual-rail code of a ternary value.
#[inline]
fn rail(v: T3) -> u8 {
    match v {
        T3::One => 0b01,
        T3::Zero => 0b10,
        T3::X => 0b00,
    }
}

/// Decodes the machine in the low two bits of `bits`.
#[inline]
fn unrail(bits: u8) -> T3 {
    match bits & GOOD {
        0b01 => T3::One,
        0b10 => T3::Zero,
        _ => T3::X,
    }
}

/// Ternary NOT of both machines: swaps each machine's two rails.
#[inline]
fn not(b: u8) -> u8 {
    ((b & ONES) << 1) | ((b & ZEROS) >> 1)
}

/// Each rail set on every pin, and each rail set on some pin.
#[inline]
fn all_any(pins: impl Iterator<Item = u8>) -> (u8, u8) {
    pins.fold((ONES | ZEROS, 0), |(all, any), b| (all & b, any | b))
}

/// Kleene AND per machine: 1 where every pin is 1, 0 where some pin is 0.
#[inline]
fn and(pins: impl Iterator<Item = u8>) -> u8 {
    let (all, any) = all_any(pins);
    (all & ONES) | (any & ZEROS)
}

/// Kleene OR per machine: 1 where some pin is 1, 0 where every pin is 0.
#[inline]
fn or(pins: impl Iterator<Item = u8>) -> u8 {
    let (all, any) = all_any(pins);
    (any & ONES) | (all & ZEROS)
}

/// XOR per machine: the parity of the 1 rails where every pin is binary,
/// X elsewhere.
#[inline]
fn xor(pins: impl Iterator<Item = u8>) -> u8 {
    let (parity, known) = pins.fold((0, ONES), |(parity, known), b| {
        (parity ^ b, known & (b | b >> 1))
    });
    (parity & known) | ((!parity & known) << 1)
}

/// Evaluates `kind` for both machines at once over packed fanin values.
///
/// # Panics
///
/// Panics for [`GateKind::Input`], which has no logic function.
#[inline(always)]
fn eval_packed(kind: GateKind, mut pins: impl Iterator<Item = u8>) -> u8 {
    match kind {
        GateKind::Input => panic!("inputs are loaded, not evaluated"),
        GateKind::Buf => pins.next().expect("BUF has a fanin"),
        GateKind::Not => not(pins.next().expect("NOT has a fanin")),
        GateKind::And => and(pins),
        GateKind::Nand => not(and(pins)),
        GateKind::Or => or(pins),
        GateKind::Nor => not(or(pins)),
        GateKind::Xor => xor(pins),
        GateKind::Xnor => not(xor(pins)),
        GateKind::Const0 => ZEROS,
        GateKind::Const1 => ONES,
    }
}

/// [`eval_packed`] with the faulty machine reading `stuck` (a faulty-rail
/// code, `rail(value) << 2`) on fanin `pin`: branch-fault injection.
#[inline]
fn eval_branch(kind: GateKind, pins: impl Iterator<Item = u8>, pin: usize, stuck: u8) -> u8 {
    let pins = pins
        .enumerate()
        .map(|(i, b)| if i == pin { (b & GOOD) | stuck } else { b });
    eval_packed(kind, pins)
}

/// Good and faulty both binary and different: a fault effect.
#[inline]
fn carries_effect(b: u8) -> bool {
    (b ^ (b >> 2)) & GOOD == GOOD
}

/// Some machine is still X.
#[inline]
fn has_x(b: u8) -> bool {
    b & GOOD == 0 || b >> 2 == 0
}

/// One restorable value change: the position and the packed value it
/// held *before* the change.
#[derive(Clone, Copy, Debug)]
struct Change {
    pos: u32,
    old: u8,
}

/// The active target fault, resolved into position space.
#[derive(Clone, Copy, Debug)]
struct Target {
    /// Stem position, or the branch fault's reading-gate position.
    site_pos: u32,
    /// `Some(pin)` for a branch fault on that pin of the site gate.
    branch_pin: Option<u16>,
    /// The stuck value as a faulty-rail code (`rail(stuck) << 2`).
    stuck: u8,
    /// The good-machine node that must take [`Target::excite_val`] to
    /// excite the fault (the stem itself, or the branch pin's driver).
    excite_pos: u32,
    /// The excitation value (`!stuck`).
    excite_val: bool,
}

/// An incremental good/faulty 3-valued evaluator over one compiled
/// circuit, reusable across any number of target faults.
///
/// The intended driver is `adi_atpg::Podem`'s event engine; the type is
/// public so alternative search strategies (and differential tests) can
/// build on the same substrate.
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, fault::Fault, CompiledCircuit};
/// use adi_sim::t3::T3;
/// use adi_sim::t3event::DualMachineSim;
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
/// let y = n.find_node("y").unwrap();
/// let circuit = CompiledCircuit::compile(n);
/// let mut sim = DualMachineSim::for_circuit(&circuit);
///
/// sim.begin_target(Fault::stem_at(y, false)); // y stuck-at-0
/// assert!(!sim.detected());
/// sim.assign(0, true); // a = 1
/// sim.assign(1, true); // b = 1: good y = 1, faulty y = 0 -> detected
/// assert!(sim.detected());
/// sim.retract_frame(); // undo b: exactly the changed nodes are restored
/// assert!(!sim.detected());
/// assert!(sim.is_consistent());
/// sim.end_target();
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DualMachineSim {
    circuit: CompiledCircuit,
    /// Both machines' values per position, packed (see the module docs).
    vals: Vec<u8>,
    target: Option<Target>,
    /// Undo trail of value changes, oldest first.
    trail: Vec<Change>,
    /// Trail length at the start of each open frame (frame 0 is the
    /// injection frame pushed by [`begin_target`](Self::begin_target)).
    frames: Vec<u32>,
    /// Per position: number of fanin pins whose driver currently carries
    /// a fault effect (good and faulty both binary and different).
    effect_fanins: Vec<u32>,
    /// Number of primary outputs currently showing a fault effect.
    detected_outputs: u32,
    /// Positions that may belong to the D-frontier (superset, deduped by
    /// the `cand_stamp` generation). The list is compacted in place once
    /// it outgrows `cand_limit`: dead entries (no fault-effect fanin) are
    /// dropped and the generation is bumped so they can re-enter later —
    /// any event that can restore a dropped position's membership flows
    /// through [`transition`](Self::transition), which re-pushes it. This
    /// keeps pathological million-decision targets bounded by the *live*
    /// effect region instead of by every position ever touched.
    candidates: Vec<u32>,
    cand_stamp: Vec<u32>,
    cand_version: u32,
    /// Compaction trigger: compact when `candidates` reaches this length
    /// (floor [`CAND_COMPACT_FLOOR`], else twice the last live count).
    cand_limit: usize,
    /// Mid-target compactions performed (diagnostics).
    cand_compactions: u64,
    /// The running wave's pending evaluations: bit `p % 64` of word
    /// `p / 64` per position. Empty between waves.
    pending: Vec<u64>,
    /// One past the highest word of `pending` the running wave has set.
    pending_end: usize,
    /// Monotone state counter bumped on every value/target change, so
    /// frontier refreshes can be skipped when nothing moved.
    state_version: u64,
    /// `state_version` the current frontier snapshot was computed at.
    frontier_version: u64,
    /// Current D-frontier, refreshed on demand.
    frontier_pos: Vec<u32>,
    frontier_ids: Vec<NodeId>,
    /// X-path DFS scratch.
    xvisited: Vec<u32>,
    xfrontier: Vec<u32>,
    xversion: u32,
    xstack: Vec<u64>,
    /// DFS predecessor per position (stamped by `xvisited`), so a
    /// successful walk can record its witness path.
    xparent: Vec<u32>,
    /// Witness of the last positive answer: a frontier gate followed by
    /// still-X positions ending at a primary output. Revalidated in
    /// O(path) before any fresh DFS.
    xwitness: Vec<u32>,
    /// `state_version` the cached X-path answer was computed at.
    xpath_version: u64,
    /// The cached answer itself.
    xpath_cached: bool,
    /// Node evaluations performed by event waves.
    events: u64,
    /// Node value changes applied (trail pushes).
    updates: u64,
}

/// The ternary fault-effect test of the [`is_consistent`] oracle.
///
/// [`is_consistent`]: DualMachineSim::is_consistent
#[inline]
fn is_effect(good: T3, faulty: T3) -> bool {
    good.is_binary() && faulty.is_binary() && good != faulty
}

/// Minimum candidate-list length before a compaction is considered:
/// below this, scanning the list is cheaper than maintaining it.
const CAND_COMPACT_FLOOR: usize = 128;

impl DualMachineSim {
    /// Builds the evaluator over `circuit` in its quiescent baseline
    /// state: all primary inputs X, no fault injected, both machines
    /// settled (constants propagated).
    pub fn for_circuit(circuit: &CompiledCircuit) -> Self {
        let view = circuit.view();
        let n = view.num_nodes();
        let mut vals = vec![0u8; n];
        for p in 0..n {
            let kind = view.kind_at(p);
            if kind != GateKind::Input {
                let v = eval_packed(kind, view.fanins_at(p).iter().map(|&f| vals[f as usize]));
                vals[p] = v;
            }
        }
        DualMachineSim {
            circuit: circuit.clone(),
            vals,
            target: None,
            trail: Vec::new(),
            frames: Vec::new(),
            effect_fanins: vec![0; n],
            detected_outputs: 0,
            candidates: Vec::new(),
            cand_stamp: vec![0; n],
            cand_version: 0,
            cand_limit: CAND_COMPACT_FLOOR,
            cand_compactions: 0,
            pending: vec![0; n.div_ceil(64)],
            pending_end: 0,
            state_version: 0,
            frontier_version: u64::MAX,
            frontier_pos: Vec::new(),
            frontier_ids: Vec::new(),
            xvisited: vec![0; n],
            xfrontier: vec![0; n],
            xversion: 0,
            xstack: Vec::new(),
            xparent: vec![0; n],
            xwitness: Vec::new(),
            xpath_version: u64::MAX,
            xpath_cached: false,
            events: 0,
            updates: 0,
        }
    }

    /// The compiled circuit this evaluator runs on.
    #[inline]
    pub fn circuit(&self) -> &CompiledCircuit {
        &self.circuit
    }

    /// Injects `fault` and propagates the injection, opening the
    /// target's base frame. All primary inputs must currently be X
    /// (i.e. the previous target, if any, was ended).
    ///
    /// # Panics
    ///
    /// Panics if a target is already active or the fault references a
    /// node outside the circuit.
    pub fn begin_target(&mut self, fault: Fault) {
        assert!(self.target.is_none(), "previous target not ended");
        let circuit = self.circuit.clone();
        let view = circuit.view();
        assert!(
            fault.effect_node().index() < view.num_nodes(),
            "fault {fault} outside netlist"
        );
        let stuck = rail(T3::from_bool(fault.stuck_value())) << 2;
        let target = match fault.site() {
            FaultSite::Stem(n) => {
                let p = view.position(n) as u32;
                Target {
                    site_pos: p,
                    branch_pin: None,
                    stuck,
                    excite_pos: p,
                    excite_val: !fault.stuck_value(),
                }
            }
            FaultSite::Branch { gate, pin } => {
                let gp = view.position(gate);
                Target {
                    site_pos: gp as u32,
                    branch_pin: Some(u16::from(pin)),
                    stuck,
                    excite_pos: view.fanins_at(gp)[pin as usize],
                    excite_val: !fault.stuck_value(),
                }
            }
        };
        self.target = Some(target);
        self.state_version += 1;
        self.bump_cand_generation();
        self.candidates.clear();
        self.cand_limit = CAND_COMPACT_FLOOR;
        self.frames.push(self.trail.len() as u32);

        let p = target.site_pos as usize;
        let v = self.eval_site(view, target);
        if self.apply(view, p, v) {
            self.schedule_fanouts(view, p);
            self.run_wave(view, p);
        }
    }

    /// Retracts every remaining frame (decisions and injection alike),
    /// returning the evaluator to its quiescent baseline, and clears the
    /// target.
    ///
    /// # Panics
    ///
    /// Panics if no target is active.
    pub fn end_target(&mut self) {
        assert!(self.target.is_some(), "no active target");
        let circuit = self.circuit.clone();
        let view = circuit.view();
        while let Some(mark) = self.frames.pop() {
            while self.trail.len() > mark as usize {
                self.retract_one(view);
            }
        }
        self.target = None;
        self.state_version += 1;
        debug_assert_eq!(self.detected_outputs, 0, "baseline shows a detection");
    }

    /// Assigns primary input `pi` (index into the circuit's input list)
    /// and propagates the change as one event wave, opening a new frame.
    ///
    /// # Panics
    ///
    /// Panics if no target is active or `pi` is out of range.
    pub fn assign(&mut self, pi: usize, value: bool) {
        let target = self.target.expect("no active target");
        let circuit = self.circuit.clone();
        let view = circuit.view();
        let p = view.inputs()[pi] as usize;
        self.frames.push(self.trail.len() as u32);
        let good = rail(T3::from_bool(value));
        // A stem fault on this very input keeps the faulty machine
        // pinned at the stuck value.
        let faulty = if target.site_pos as usize == p && target.branch_pin.is_none() {
            target.stuck
        } else {
            good << 2
        };
        if self.apply(view, p, good | faulty) {
            self.schedule_fanouts(view, p);
            self.run_wave(view, p);
        }
    }

    /// Undoes the most recent open frame (one [`assign`](Self::assign)),
    /// restoring exactly the nodes that frame changed.
    ///
    /// # Panics
    ///
    /// Panics if only the injection frame remains (use
    /// [`end_target`](Self::end_target) for that).
    pub fn retract_frame(&mut self) {
        assert!(self.frames.len() > 1, "no decision frame to retract");
        let circuit = self.circuit.clone();
        let view = circuit.view();
        let mark = self.frames.pop().expect("frame present") as usize;
        while self.trail.len() > mark {
            self.retract_one(view);
        }
    }

    /// O(1): does some primary output currently show a binary
    /// good/faulty discrepancy?
    #[inline]
    pub fn detected(&self) -> bool {
        self.detected_outputs > 0
    }

    /// The good-machine value at CSR `position`.
    #[inline]
    pub fn good_at(&self, position: usize) -> T3 {
        unrail(self.vals[position])
    }

    /// The faulty-machine value at CSR `position`.
    #[inline]
    pub fn faulty_at(&self, position: usize) -> T3 {
        unrail(self.vals[position] >> 2)
    }

    /// The good-machine value of `node`.
    #[inline]
    pub fn good_of(&self, node: NodeId) -> T3 {
        self.good_at(self.circuit.view().position(node))
    }

    /// The excitation obligation of the active target: the CSR position
    /// whose good value must become the returned boolean for the fault
    /// to be excited.
    ///
    /// # Panics
    ///
    /// Panics if no target is active.
    #[inline]
    pub fn excite_site(&self) -> (usize, bool) {
        let t = self.target.expect("no active target");
        (t.excite_pos as usize, t.excite_val)
    }

    /// Recomputes the current D-frontier from the maintained candidate
    /// set: gates whose output is still X in some machine while at least
    /// one fanin carries a fault effect (plus the branch fault's reading
    /// gate while the branch line carries D). Results are readable via
    /// [`frontier_ids`](Self::frontier_ids) until the next state change.
    pub fn refresh_frontier(&mut self) {
        if self.frontier_version == self.state_version {
            return; // nothing changed since the last refresh
        }
        self.frontier_version = self.state_version;
        let circuit = self.circuit.clone();
        let view = circuit.view();
        self.frontier_pos.clear();
        self.frontier_ids.clear();
        for i in 0..self.candidates.len() {
            let p = self.candidates[i] as usize;
            if self.is_member(view, p) {
                self.frontier_pos.push(p as u32);
            }
        }
        // The branch gate enters through excitation of its driver, which
        // the candidate bookkeeping (keyed on fault *effects*) does not
        // see; check it explicitly.
        if let Some(t) = self.target {
            if t.branch_pin.is_some() {
                let gp = t.site_pos as usize;
                if self.is_member(view, gp) && !self.frontier_pos.contains(&t.site_pos) {
                    self.frontier_pos.push(t.site_pos);
                }
            }
        }
        self.frontier_ids
            .extend(self.frontier_pos.iter().map(|&p| view.node_at(p as usize)));
        self.frontier_ids.sort_unstable_by_key(|n| n.index());
    }

    /// The D-frontier as of the last
    /// [`refresh_frontier`](Self::refresh_frontier), in ascending node-id
    /// order (the order the full-resim scan produces, so SCOAP ties break
    /// identically).
    #[inline]
    pub fn frontier_ids(&self) -> &[NodeId] {
        &self.frontier_ids
    }

    /// True if some gate of the current D-frontier (refreshed on entry
    /// if stale) reaches a primary output through nodes that are still X
    /// in at least one machine. The walk is restricted to the still-X region and pruned
    /// by the CSR's output-cone reachability masks (a fanout that
    /// structurally reaches no output is never entered).
    ///
    /// The answer is cached between decisions. An unchanged
    /// `state_version` (no value moved since the last query — the same
    /// invalidation the D-frontier snapshot uses, driven by the undo
    /// trail) answers in O(1). After a state change, a positive answer's
    /// *witness path* is revalidated in O(path): if its frontier gate is
    /// still a D-frontier member and every later node is still X, the
    /// path still exists and the full X-region DFS is skipped.
    pub fn x_path_exists(&mut self) -> bool {
        if self.xpath_version == self.state_version {
            return self.xpath_cached;
        }
        self.refresh_frontier(); // no-op when already current
        let circuit = self.circuit.clone();
        let view = circuit.view();
        let answer = if self.witness_still_valid(view) {
            true
        } else {
            self.walk_x_region(view)
        };
        self.xpath_version = self.state_version;
        self.xpath_cached = answer;
        answer
    }

    /// O(path) recheck of the last recorded witness under the current
    /// state: the path's frontier gate must still be a member and every
    /// downstream node still X in some machine. Sound either way — a
    /// failed check only means the DFS runs again.
    fn witness_still_valid(&self, view: &LevelizedCsr) -> bool {
        let Some((&root, rest)) = self.xwitness.split_first() else {
            return false;
        };
        if !self.is_member(view, root as usize) {
            return false;
        }
        rest.iter().all(|&p| has_x(self.vals[p as usize]))
    }

    /// The full X-region DFS from the current D-frontier, recording the
    /// witness path on success (cleared on failure).
    fn walk_x_region(&mut self, view: &LevelizedCsr) -> bool {
        self.xwitness.clear();
        self.xversion = self.xversion.wrapping_add(1);
        if self.xversion == 0 {
            self.xvisited.fill(0);
            self.xfrontier.fill(0);
            self.xversion = 1;
        }
        let v = self.xversion;
        self.xstack.clear();
        for &p in &self.frontier_pos {
            self.xfrontier[p as usize] = v;
            self.xstack.push((u64::from(u32::MAX) << 32) | u64::from(p));
        }
        while let Some(packed) = self.xstack.pop() {
            let p = (packed & u64::from(u32::MAX)) as usize;
            if self.xvisited[p] == v {
                continue;
            }
            self.xvisited[p] = v;
            self.xparent[p] = (packed >> 32) as u32;
            if !has_x(self.vals[p]) && self.xfrontier[p] != v {
                continue;
            }
            if view.is_output_at(p) {
                // Reconstruct frontier-gate-first witness via parents.
                let mut q = p as u32;
                while q != u32::MAX {
                    self.xwitness.push(q);
                    q = self.xparent[q as usize];
                }
                self.xwitness.reverse();
                return true;
            }
            let parent = (p as u64) << 32;
            for &g in view.fanouts_at(p) {
                if view.reaches_output(g as usize) {
                    self.xstack.push(parent | u64::from(g));
                }
            }
        }
        false
    }

    /// Cumulative `(events, updates)` counters: node evaluations
    /// performed by event waves and node value changes applied.
    #[inline]
    pub fn counters(&self) -> (u64, u64) {
        (self.events, self.updates)
    }

    /// Diagnostics: current length of the D-frontier candidate list.
    /// Bounded within a constant factor of the live effect region by
    /// mid-target compaction, independent of how many decisions the
    /// target has accumulated.
    #[inline]
    pub fn frontier_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Diagnostics: cumulative mid-target candidate compactions.
    #[inline]
    pub fn frontier_compactions(&self) -> u64 {
        self.cand_compactions
    }

    /// Differential-oracle hook: recomputes both machines (and every
    /// derived counter) from scratch for the current assignment and
    /// target with the ternary truth tables ([`eval_t3_pos`],
    /// [`eval_t3_branch`]), independently of the packed evaluator, and
    /// compares against the incremental state. Intended for tests;
    /// O(circuit).
    pub fn is_consistent(&self) -> bool {
        let view = self.circuit.view();
        let n = view.num_nodes();
        let mut good = vec![T3::X; n];
        let mut faulty = vec![T3::X; n];
        for &p in view.inputs() {
            good[p as usize] = self.good_at(p as usize);
            faulty[p as usize] = self.good_at(p as usize);
        }
        for p in 0..n {
            let kind = view.kind_at(p);
            if kind != GateKind::Input {
                good[p] = eval_t3_pos(kind, view.fanins_at(p), |f| good[f as usize]);
            }
            faulty[p] = match self.target {
                Some(t) if t.site_pos as usize == p => match t.branch_pin {
                    None => unrail(t.stuck >> 2),
                    Some(pin) => eval_t3_branch(
                        kind,
                        view.fanins_at(p),
                        pin as usize,
                        unrail(t.stuck >> 2),
                        |f| faulty[f as usize],
                    ),
                },
                _ => {
                    if kind == GateKind::Input {
                        faulty[p]
                    } else {
                        eval_t3_pos(kind, view.fanins_at(p), |f| faulty[f as usize])
                    }
                }
            };
        }
        if (0..n).any(|p| self.good_at(p) != good[p] || self.faulty_at(p) != faulty[p]) {
            return false;
        }
        let mut effect_fanins = vec![0u32; n];
        let mut detected_outputs = 0u32;
        for p in 0..n {
            if is_effect(good[p], faulty[p]) {
                for &g in view.fanouts_at(p) {
                    effect_fanins[g as usize] += 1;
                }
                if view.is_output_at(p) {
                    detected_outputs += 1;
                }
            }
        }
        effect_fanins == self.effect_fanins && detected_outputs == self.detected_outputs
    }

    /// D-frontier membership of position `p` under the current state.
    #[inline]
    fn is_member(&self, view: &LevelizedCsr, p: usize) -> bool {
        if !has_x(self.vals[p]) || view.kind_at(p) == GateKind::Input {
            return false;
        }
        if self.effect_fanins[p] > 0 {
            return true;
        }
        match self.target {
            Some(t) if t.branch_pin.is_some() && t.site_pos as usize == p => {
                self.good_at(t.excite_pos as usize) == T3::from_bool(t.excite_val)
            }
            _ => false,
        }
    }

    /// The packed value position `p` should hold given its current fanin
    /// values, without the injection.
    #[inline(always)]
    fn eval(&self, view: &LevelizedCsr, p: usize) -> u8 {
        let pins = view.fanins_at(p).iter().map(|&f| self.vals[f as usize]);
        eval_packed(view.kind_at(p), pins)
    }

    /// [`eval`](Self::eval) at the site of target `t`, with its injection:
    /// a stem fault pins the faulty half, a branch fault the faulty
    /// machine's read of its pin.
    fn eval_site(&self, view: &LevelizedCsr, t: Target) -> u8 {
        let p = t.site_pos as usize;
        let kind = view.kind_at(p);
        let pins = view.fanins_at(p).iter().map(|&f| self.vals[f as usize]);
        match t.branch_pin {
            Some(pin) => eval_branch(kind, pins, pin as usize, t.stuck),
            None => {
                let good = if kind == GateKind::Input {
                    self.vals[p]
                } else {
                    eval_packed(kind, pins)
                };
                (good & GOOD) | t.stuck
            }
        }
    }

    /// Records and applies a value change; returns `false` if the value
    /// is unchanged. Keeps every derived counter in sync.
    #[inline]
    fn apply(&mut self, view: &LevelizedCsr, p: usize, new: u8) -> bool {
        let old = self.vals[p];
        if old == new {
            return false;
        }
        self.trail.push(Change { pos: p as u32, old });
        self.updates += 1;
        self.state_version += 1;
        self.transition(view, p, carries_effect(old), carries_effect(new));
        self.vals[p] = new;
        true
    }

    /// Restores the most recent trail entry.
    fn retract_one(&mut self, view: &LevelizedCsr) {
        let c = self.trail.pop().expect("trail entry present");
        let p = c.pos as usize;
        self.state_version += 1;
        self.transition(view, p, carries_effect(self.vals[p]), carries_effect(c.old));
        self.vals[p] = c.old;
    }

    /// Derived-state bookkeeping for a value change at `p` whose effect
    /// status moves `was` → `now` (shared by apply and retract).
    #[inline]
    fn transition(&mut self, view: &LevelizedCsr, p: usize, was: bool, now: bool) {
        if was != now {
            for &g in view.fanouts_at(p) {
                let count = &mut self.effect_fanins[g as usize];
                if now {
                    *count += 1;
                } else {
                    *count -= 1;
                }
                self.push_candidate(g);
            }
            if view.is_output_at(p) {
                if now {
                    self.detected_outputs += 1;
                } else {
                    self.detected_outputs -= 1;
                }
            }
        }
        // The node's own membership can only matter while it has an
        // effect fanin (the branch gate is checked separately).
        if self.effect_fanins[p] > 0 {
            self.push_candidate(p as u32);
        }
    }

    #[inline]
    fn push_candidate(&mut self, p: u32) {
        if self.cand_stamp[p as usize] != self.cand_version {
            self.cand_stamp[p as usize] = self.cand_version;
            self.candidates.push(p);
            if self.candidates.len() >= self.cand_limit {
                self.compact_candidates();
            }
        }
    }

    /// Can `p` (re)enter the D-frontier without a further
    /// [`transition`](Self::transition) re-pushing it? Only while a
    /// fanin still carries a fault effect (or `p` is the branch fault's
    /// reading gate, whose membership keys on its driver's good value).
    /// Everything else may be dropped: restoring its membership requires
    /// an effect transition on a fanin, and that re-pushes it.
    #[inline]
    fn candidate_live(&self, p: u32) -> bool {
        self.effect_fanins[p as usize] > 0
            || matches!(self.target, Some(t) if t.branch_pin.is_some() && t.site_pos == p)
    }

    /// Generation-stamped compaction: bump the generation, restamp and
    /// retain the live candidates in place, and drop the rest (their
    /// stale stamps let them re-enter through `push_candidate`). The
    /// next trigger point is twice the surviving count, so the list
    /// stays within a constant factor of the live effect region.
    fn compact_candidates(&mut self) {
        self.bump_cand_generation();
        let mut keep = 0;
        for i in 0..self.candidates.len() {
            let p = self.candidates[i];
            if self.candidate_live(p) {
                self.cand_stamp[p as usize] = self.cand_version;
                self.candidates[keep] = p;
                keep += 1;
            }
        }
        self.candidates.truncate(keep);
        self.cand_limit = (2 * keep).max(CAND_COMPACT_FLOOR);
        self.cand_compactions += 1;
    }

    /// Starts a fresh candidate generation (with the usual wraparound
    /// reset of the stamp array).
    fn bump_cand_generation(&mut self) {
        self.cand_version = self.cand_version.wrapping_add(1);
        if self.cand_version == 0 {
            self.cand_stamp.fill(0);
            self.cand_version = 1;
        }
    }

    /// Marks every fanout of `p` pending in the running wave.
    #[inline]
    fn schedule_fanouts(&mut self, view: &LevelizedCsr, p: usize) {
        for &g in view.fanouts_at(p) {
            let w = g as usize / 64;
            self.pending[w] |= 1 << (g % 64);
            self.pending_end = self.pending_end.max(w + 1);
        }
    }

    /// Drains the pending bitset lowest position first, evaluating each
    /// pending node once and rippling further changes forward. `from` is
    /// the wave's seed position: every pending position lies above it.
    fn run_wave(&mut self, view: &LevelizedCsr, from: usize) {
        let target = self.target.expect("a wave runs under a target");
        let mut w = from / 64;
        while w < self.pending_end {
            let bits = self.pending[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            self.pending[w] = bits & (bits - 1);
            let p = w * 64 + bits.trailing_zeros() as usize;
            self.events += 1;
            let v = if p == target.site_pos as usize {
                self.eval_site(view, target)
            } else {
                self.eval(view, p)
            };
            if self.apply(view, p, v) {
                self.schedule_fanouts(view, p);
            }
        }
        self.pending_end = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::bench_format;
    use adi_netlist::Netlist;

    const C17: &str = "
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

    fn compile(src: &str, name: &str) -> CompiledCircuit {
        CompiledCircuit::compile(bench_format::parse(src, name).unwrap())
    }

    /// The reference D-frontier by the full-resim definition.
    fn reference_frontier(sim: &DualMachineSim, fault: Fault) -> Vec<NodeId> {
        let circuit = sim.circuit().clone();
        let nl: &Netlist = circuit.netlist();
        let view = circuit.view();
        let branch_gate = match fault.site() {
            FaultSite::Branch { gate, pin } => {
                let driver = nl.fanins(gate)[pin as usize];
                let needed = T3::from_bool(!fault.stuck_value());
                (sim.good_of(driver) == needed).then_some(gate)
            }
            FaultSite::Stem(_) => None,
        };
        nl.node_ids()
            .filter(|&n| {
                let p = view.position(n);
                let out_unknown = sim.good_at(p) == T3::X || sim.faulty_at(p) == T3::X;
                if !out_unknown || nl.kind(n) == GateKind::Input {
                    return false;
                }
                if branch_gate == Some(n) {
                    return true;
                }
                nl.fanins(n).iter().any(|&f| {
                    let fp = view.position(f);
                    is_effect(sim.good_at(fp), sim.faulty_at(fp))
                })
            })
            .collect()
    }

    /// The reference X-path answer: a fresh DFS from the reference
    /// frontier through nodes still X in some machine.
    fn reference_x_path(sim: &DualMachineSim, fault: Fault) -> bool {
        let circuit = sim.circuit().clone();
        let view = circuit.view();
        let mut stack: Vec<usize> = reference_frontier(sim, fault)
            .into_iter()
            .map(|n| view.position(n))
            .collect();
        let roots: Vec<usize> = stack.clone();
        let mut seen = vec![false; view.num_nodes()];
        while let Some(p) = stack.pop() {
            if std::mem::replace(&mut seen[p], true) {
                continue;
            }
            let unknown = sim.good_at(p) == T3::X || sim.faulty_at(p) == T3::X;
            if !unknown && !roots.contains(&p) {
                continue;
            }
            if view.is_output_at(p) {
                return true;
            }
            stack.extend(view.fanouts_at(p).iter().map(|&g| g as usize));
        }
        false
    }

    /// Drives every assignment prefix of an exhaustive walk and checks
    /// consistency, the frontier, and detection against the reference.
    fn exhaustive_walk(src: &str, name: &str) {
        let circuit = compile(src, name);
        let n_inputs = circuit.netlist().num_inputs();
        let faults = adi_netlist::fault::FaultList::full(circuit.netlist());
        let mut sim = DualMachineSim::for_circuit(&circuit);
        for (_, fault) in faults.iter() {
            sim.begin_target(fault);
            assert!(sim.is_consistent(), "{name}: after injection of {fault}");
            for value_bits in 0..(1u32 << n_inputs) {
                for pi in 0..n_inputs {
                    sim.assign(pi, value_bits >> pi & 1 == 1);
                    assert!(
                        sim.is_consistent(),
                        "{name}: {fault} bits={value_bits} pi={pi}"
                    );
                    sim.refresh_frontier();
                    assert_eq!(
                        sim.frontier_ids(),
                        reference_frontier(&sim, fault),
                        "{name}: frontier for {fault} bits={value_bits} pi={pi}"
                    );
                    assert_eq!(
                        sim.x_path_exists(),
                        reference_x_path(&sim, fault),
                        "{name}: x-path for {fault} bits={value_bits} pi={pi}"
                    );
                }
                for _ in 0..n_inputs {
                    sim.retract_frame();
                }
                assert!(sim.is_consistent(), "{name}: {fault} after retracts");
            }
            sim.end_target();
        }
    }

    #[test]
    fn exhaustive_walk_c17() {
        exhaustive_walk(C17, "c17");
    }

    #[test]
    fn exhaustive_walk_reconvergent() {
        exhaustive_walk(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ns = AND(a, b)\np = NOT(s)\nq = BUF(s)\ny = AND(p, q)\n",
            "reconv",
        );
    }

    #[test]
    fn exhaustive_walk_with_constants() {
        exhaustive_walk(
            "INPUT(a)\nOUTPUT(y)\nk = CONST1()\nt = XOR(a, k)\ny = OR(t, a)\n",
            "consts",
        );
    }

    #[test]
    fn exhaustive_walk_nor_xnor_wide_gates() {
        // The parity and inverted formulas on 2- and 3-input gates, with
        // a constant 0 feeding both an OR and a NOR.
        exhaustive_walk(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nOUTPUT(z)\n\
             k = CONST0()\nn = NOR(a, b)\nx = XOR(a, c, d)\ne = XNOR(n, x)\n\
             g = NAND(e, b, d)\ny = OR(g, k)\nz = NOR(x, k, n)\n",
            "wide",
        );
    }

    /// The packed evaluator against the ternary truth table: every gate
    /// kind with a logic function, every fanin count it allows up to 3,
    /// and every (good, faulty) pair on every pin.
    #[test]
    fn packed_gates_match_the_ternary_truth_table() {
        let values = [T3::Zero, T3::One, T3::X];
        let pairs: Vec<(T3, T3)> = values
            .iter()
            .flat_map(|&g| values.iter().map(move |&f| (g, f)))
            .collect();
        for kind in GateKind::ALL {
            if kind == GateKind::Input {
                continue;
            }
            let (lo, hi) = kind.arity_range();
            for arity in lo..=hi.min(3) {
                let fanins: Vec<u32> = (0..arity as u32).collect();
                for code in 0..pairs.len().pow(arity as u32) {
                    let pins: Vec<(T3, T3)> = (0..arity)
                        .map(|i| pairs[code / pairs.len().pow(i as u32) % pairs.len()])
                        .collect();
                    let packed: Vec<u8> =
                        pins.iter().map(|&(g, f)| rail(g) | rail(f) << 2).collect();
                    let good = eval_t3_pos(kind, &fanins, |p| pins[p as usize].0);
                    let faulty = eval_t3_pos(kind, &fanins, |p| pins[p as usize].1);
                    let out = eval_packed(kind, packed.iter().copied());
                    // Only the codes 01, 10 and 00 per machine, nothing
                    // above the faulty machine's two bits.
                    assert!(
                        out < 16 && out & GOOD != GOOD && out >> 2 != GOOD,
                        "{kind:?} {pins:?}: invalid code {out:#06b}"
                    );
                    assert_eq!(
                        (unrail(out), unrail(out >> 2)),
                        (good, faulty),
                        "{kind:?} {pins:?}"
                    );
                    for pin in 0..arity {
                        for stuck in [T3::Zero, T3::One] {
                            let out =
                                eval_branch(kind, packed.iter().copied(), pin, rail(stuck) << 2);
                            let faulty =
                                eval_t3_branch(kind, &fanins, pin, stuck, |p| pins[p as usize].1);
                            assert_eq!(
                                (unrail(out), unrail(out >> 2)),
                                (good, faulty),
                                "{kind:?} {pins:?} pin {pin} stuck at {stuck}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn detection_matches_fault_simulation() {
        let circuit = compile(C17, "c17");
        let faults = adi_netlist::fault::FaultList::full(circuit.netlist());
        let patterns = crate::PatternSet::exhaustive(5);
        let matrix =
            crate::FaultSimulator::for_circuit(&circuit, &faults).no_drop_matrix(&patterns);
        let mut sim = DualMachineSim::for_circuit(&circuit);
        for (id, fault) in faults.iter() {
            sim.begin_target(fault);
            for p in 0..patterns.len() {
                let pattern = patterns.get(p);
                for (pi, v) in pattern.iter().enumerate() {
                    sim.assign(pi, v);
                }
                assert_eq!(
                    sim.detected(),
                    matrix.detected(id, p),
                    "fault {fault} pattern {p}"
                );
                for _ in 0..pattern.len() {
                    sim.retract_frame();
                }
            }
            sim.end_target();
        }
    }

    #[test]
    fn x_path_refreshes_the_frontier_itself() {
        // Calling x_path_exists without an explicit refresh_frontier
        // must answer from the *current* state, not a stale snapshot.
        let circuit = compile(C17, "c17");
        let g10 = circuit.netlist().find_node("G10").unwrap();
        let mut sim = DualMachineSim::for_circuit(&circuit);
        sim.begin_target(Fault::stem_at(g10, false));
        // Excite the fault (G1 = 0 makes G10 = NAND(0, X) good-1,
        // faulty-0) without touching refresh_frontier first.
        sim.assign(0, false); // G1
        assert!(
            sim.x_path_exists(),
            "an X-path to G22 exists straight after excitation"
        );
        sim.end_target();
    }

    #[test]
    fn x_path_cache_and_witness_answers_stay_exact() {
        // Same-state queries hit the version cache; after a state change
        // a surviving witness path is revalidated without a fresh DFS.
        // Each path checked below exists in c17, so every answer is true.
        let circuit = compile(C17, "c17");
        let g10 = circuit.netlist().find_node("G10").unwrap();
        let mut sim = DualMachineSim::for_circuit(&circuit);
        sim.begin_target(Fault::stem_at(g10, false));
        sim.assign(0, false); // G1 = 0 excites G10 s-a-0
        assert!(sim.x_path_exists());
        assert!(sim.x_path_exists()); // unchanged state: cached answer
        // G2 = 1 leaves G16 (and so G22) X: the recorded witness through
        // G22 survives, so the state change costs a revalidation only.
        sim.assign(1, true);
        assert!(sim.x_path_exists());
        // Retract back to just the excitation: the cache is invalidated
        // by the trail, and the answer stays exact.
        sim.retract_frame();
        assert!(sim.x_path_exists());
        sim.end_target();
    }

    #[test]
    fn counters_accumulate() {
        let circuit = compile(C17, "c17");
        let y = circuit.netlist().find_node("G22").unwrap();
        let mut sim = DualMachineSim::for_circuit(&circuit);
        sim.begin_target(Fault::stem_at(y, false));
        let before = sim.counters();
        sim.assign(0, true);
        let after = sim.counters();
        assert!(after.1 > before.1, "an assignment changes at least the PI");
        sim.end_target();
    }

    #[test]
    #[should_panic(expected = "previous target not ended")]
    fn double_begin_panics() {
        let circuit = compile(C17, "c17");
        let y = circuit.netlist().find_node("G22").unwrap();
        let mut sim = DualMachineSim::for_circuit(&circuit);
        sim.begin_target(Fault::stem_at(y, false));
        sim.begin_target(Fault::stem_at(y, true));
    }

    #[test]
    #[should_panic(expected = "no decision frame")]
    fn retracting_injection_frame_panics() {
        let circuit = compile(C17, "c17");
        let y = circuit.netlist().find_node("G22").unwrap();
        let mut sim = DualMachineSim::for_circuit(&circuit);
        sim.begin_target(Fault::stem_at(y, false));
        sim.retract_frame();
    }

    #[test]
    fn end_target_restores_baseline_for_next_target() {
        let circuit = compile(C17, "c17");
        let nl = circuit.netlist();
        let a = nl.find_node("G1").unwrap();
        let y = nl.find_node("G22").unwrap();
        let mut sim = DualMachineSim::for_circuit(&circuit);
        sim.begin_target(Fault::stem_at(y, false));
        sim.assign(0, true);
        sim.assign(2, true);
        sim.end_target();
        // A fresh target over the same evaluator starts from all-X.
        sim.begin_target(Fault::stem_at(a, true));
        assert!(sim.is_consistent());
        assert_eq!(sim.good_of(a), T3::X);
        sim.end_target();
    }
}
