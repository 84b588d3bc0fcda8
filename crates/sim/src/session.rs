//! Batched fault dropping for sequentially generated tests.
//!
//! The ATPG driver generates one test at a time, and after every test it
//! must know which still-active faults the test detects (to drop them
//! and skip them as future targets). The scalar way to do that —
//! [`PatternSim::detect`](crate::reference::PatternSim::detect) per
//! test, which the reference drop loop still runs — pays one
//! good-machine sweep plus one event-driven cone walk *per active fault*
//! per test; with thousands of active faults early in a run, the cone
//! walks dominate end-to-end ATPG time.
//!
//! [`DropSession`] batches the generated tests into one pending block
//! of up to 256 lanes (one [`SimWord`]) and runs the detection through
//! the stem-region engine, while preserving the scalar loop's semantics
//! **exactly**:
//!
//! * [`DropSession::push`] appends a generated test as the next lane of
//!   the pending block and refreshes the block's good-machine words
//!   (one wide CSR sweep — the same cost the scalar loop paid for its
//!   1-wide sweep).
//! * [`DropSession::covers`] answers "does some pending test detect
//!   this fault?" with a single per-fault walk over the pending block:
//!   the stem-region engine's fault-effect walk, started at the fault's
//!   site and seeded with the pending lanes that excite it there, which
//!   ends at the first lane an output observes. The driver uses it to
//!   skip targets a pending test already covers — the batched
//!   equivalent of the scalar loop's "already dropped" check — so the
//!   *same targets* reach PODEM and the generated test set is
//!   bit-identical.
//!   [`DropSession::pending_detections`] walks the same way until every
//!   seeded lane is answered, and returns the whole word.
//! * [`DropSession::flush`] runs the stem-region engine once over the
//!   pending block (one sensitization sweep plus one observability walk
//!   per region with an active fault — instead of one walk per active
//!   fault per test) and replays the drop bookkeeping lane by lane:
//!   each fault is credited to the *first* pending test that detects
//!   it, in the order the scalar loop would have reported. Only that
//!   first lane matters, so each region's walk retires every lane no
//!   fault of the region still needs: a fault needs only its lanes
//!   below its lowest observed one.
//!
//! Detection of a fault by a pattern does not depend on which other
//! faults have been dropped, so deferring the bookkeeping to the flush
//! cannot change any detection verdict — only the arithmetic is
//! batched. The differential tests assert drop-for-drop equality with
//! the scalar loop on every suite circuit.

use adi_netlist::fault::{FaultId, FaultList};
use adi_netlist::CompiledCircuit;

use crate::logic;
use crate::stem::{Need, StemScratch};
use crate::word::SimWord;
use crate::{FaultSimulator, Pattern};

/// A wide batched drop-simulation session for sequentially generated
/// tests, bit-identical to the scalar
/// [`PatternSim::detect`](crate::reference::PatternSim::detect) loop.
///
/// The pending block is one [`SimWord`]: it holds up to 256 tests.
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, CompiledCircuit, fault::FaultId};
/// use adi_sim::{DropSession, Pattern};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
/// let circuit = CompiledCircuit::compile(n);
/// let faults = circuit.collapsed_faults();
/// let active: Vec<FaultId> = faults.ids().collect();
///
/// let mut session = DropSession::for_circuit(&circuit, faults);
/// session.push(&Pattern::new(vec![true, true]));   // lane 0: detects the s-a-0 class
/// session.push(&Pattern::new(vec![false, true]));  // lane 1: detects a/1 and y/1
/// let per_test = session.flush(&active);
/// assert_eq!(per_test.len(), 2);
/// // Every fault is credited to the first lane that detects it.
/// assert!(per_test[0].len() >= 1 && per_test[1].len() >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DropSession<'a> {
    sim: FaultSimulator<'a>,
    /// Stem-region block scratch; `scratch.good` always holds the good
    /// words of the pending block, and its walk buffers also serve
    /// [`covers`](Self::covers) and
    /// [`pending_detections`](Self::pending_detections).
    scratch: StemScratch,
    /// Packed input words of the pending block, one per primary input.
    lane_words: Vec<SimWord>,
    /// Number of pending lanes (tests pushed since the last flush).
    lanes: u32,
    /// Active flags by fault id, populated transiently per flush.
    active_flags: Vec<bool>,
    /// Per-fault detection words of the current flush, exact in their
    /// lowest lane only.
    words: Vec<SimWord>,
    /// Sensitization path marking used by flushes: the engine's
    /// whole-fault-list marking initially, lazily rebuilt for just the
    /// still-active faults as the active set shrinks (the late-ATPG
    /// reverse sweep then skips the retired regions).
    sens_active: Vec<bool>,
    /// Fault-coverage flags of `sens_active` (by fault id): which faults
    /// the current marking is valid for.
    sens_covers: Vec<bool>,
    /// Number of faults covered at the last (re)build, the shrink
    /// reference for the rebuild heuristic.
    sens_covered_count: usize,
}

impl<'a> DropSession<'a> {
    /// Creates a session for `faults` of `circuit`, reusing the
    /// compilation's levelized view, FFR decomposition and, for its own
    /// fault lists, fault-region index.
    ///
    /// # Panics
    ///
    /// Panics if any fault references a node outside the circuit.
    pub fn for_circuit(circuit: &CompiledCircuit, faults: &'a FaultList) -> Self {
        let sim = FaultSimulator::for_circuit(circuit, faults);
        let scratch = StemScratch::new(circuit.view());
        let sens_active = sim.fault_regions().sens_needed().to_vec();
        DropSession {
            sim,
            scratch,
            lane_words: vec![SimWord::ZERO; circuit.view().inputs().len()],
            lanes: 0,
            active_flags: vec![false; faults.len()],
            words: vec![SimWord::ZERO; faults.len()],
            sens_active,
            sens_covers: vec![true; faults.len()],
            sens_covered_count: faults.len(),
        }
    }

    /// Lane capacity of the pending block (256).
    #[inline]
    pub fn capacity(&self) -> usize {
        SimWord::BITS
    }

    /// Number of tests pushed since the last flush.
    #[inline]
    pub fn pending(&self) -> usize {
        self.lanes as usize
    }

    /// Returns `true` once [`capacity`](Self::capacity) tests are
    /// pending; the next [`push`](Self::push) requires a
    /// [`flush`](Self::flush) first.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.lanes as usize == SimWord::BITS
    }

    #[inline]
    fn lane_mask(&self) -> SimWord {
        SimWord::low_mask(self.lanes as usize)
    }

    /// Appends `pattern` as the next lane of the pending block and
    /// refreshes the block's good-machine words (one wide CSR sweep).
    ///
    /// # Panics
    ///
    /// Panics if the block is full or the pattern width does not match
    /// the circuit.
    pub fn push(&mut self, pattern: &Pattern) {
        assert!(
            (self.lanes as usize) < SimWord::BITS,
            "pending block full: flush before pushing"
        );
        let view = self.sim.view();
        assert_eq!(
            pattern.len(),
            view.inputs().len(),
            "pattern width does not match circuit input count"
        );
        let lane = self.lanes as usize;
        for (i, v) in pattern.iter().enumerate() {
            if v {
                self.lane_words[i].set_bit(lane);
            }
        }
        self.lanes += 1;
        logic::simulate_superblock_csr(view, &self.lane_words, &mut self.scratch.good);
    }

    /// The word of pending lanes that detect `fault` (bit `j` set iff
    /// the `j`-th pending test detects it), computed with a single
    /// per-fault walk from the fault's site that carries every pending
    /// lane until an output observes it or its effect dies out. Zero
    /// when no tests are pending.
    ///
    /// To ask only whether some pending test detects `fault`, use
    /// [`covers`](Self::covers), whose walk stops at the first observed
    /// lane.
    pub fn pending_detections(&mut self, fault: FaultId) -> SimWord {
        if self.lanes == 0 {
            return SimWord::ZERO;
        }
        let mask = self.lane_mask();
        self.sim
            .detect_fault(fault, mask, &mut self.scratch, |_| SimWord::ONES)
    }

    /// Returns `true` if some pending test detects `fault`: the same
    /// answer as `!pending_detections(fault).is_zero()`, from a walk
    /// that needs no lane once an output observes any.
    ///
    /// The ATPG driver calls this before targeting a fault: `true`
    /// means a pending test already covers it, exactly as the scalar
    /// loop's per-test dropping would have.
    pub fn covers(&mut self, fault: FaultId) -> bool {
        if self.lanes == 0 {
            return false;
        }
        let mask = self.lane_mask();
        !self
            .sim
            .detect_fault(fault, mask, &mut self.scratch, |_| SimWord::ZERO)
            .is_zero()
    }

    /// Drains the pending block: runs the stem-region engine once over
    /// it and returns, per pending test in push order, the `active`
    /// faults it newly detects (each fault credited to the first
    /// detecting lane, lists in `active` order) — exactly the sequence
    /// of detection lists the scalar per-test loop would have produced.
    ///
    /// Only each fault's first detecting lane is read, so each region's
    /// walk retires a lane once no active fault of the region still
    /// needs it: a fault needs only its lanes below its lowest observed
    /// one. Faults outside `active` are skipped entirely. The session is
    /// empty afterwards.
    pub fn flush(&mut self, active: &[FaultId]) -> Vec<Vec<FaultId>> {
        static SPAN_FLUSH: adi_obs::SpanSite = adi_obs::SpanSite::new("sim.drop_flush");
        let _span = SPAN_FLUSH.enter();
        let lanes = self.lanes as usize;
        let mut per_lane: Vec<Vec<FaultId>> = vec![Vec::new(); lanes];
        if lanes == 0 {
            return per_lane;
        }
        let mask = self.lane_mask();
        self.refresh_sens_marking(active);

        let DropSession {
            sim,
            scratch,
            active_flags,
            words,
            sens_active,
            ..
        } = self;
        for &id in active {
            active_flags[id.index()] = true;
        }
        words.fill(SimWord::ZERO);
        sim.prepare_block_with(scratch, sens_active);
        sim.for_each_detection(mask, scratch, Some(active_flags), Need::First, |fault, word| {
            words[fault as usize] = word;
        });
        for &id in active {
            active_flags[id.index()] = false;
        }

        // A word's lanes above its lowest may be missing (the walks
        // retired them), so only its lowest lane is read.
        for &id in active {
            let w = self.words[id.index()];
            if !w.is_zero() {
                per_lane[w.first_set_bit() as usize].push(id);
            }
        }

        self.lanes = 0;
        self.lane_words.fill(SimWord::ZERO);
        per_lane
    }

    /// Keeps the sensitization path marking valid for `active` and
    /// lazily shrinks it. A rebuild happens when the marking does not
    /// cover some requested fault (correctness — `flush` accepts any
    /// fault set), or when the active set has halved since the marking
    /// was built (profit — the reverse sweep then skips the retired
    /// regions). Between rebuilds the marking is a superset, which only
    /// costs sweep work, never changes a detection word.
    fn refresh_sens_marking(&mut self, active: &[FaultId]) {
        let covered = active.iter().all(|id| self.sens_covers[id.index()]);
        if covered && active.len() * 2 > self.sens_covered_count {
            return;
        }
        self.sim.mark_sens_needed(active, &mut self.sens_active);
        self.sens_covers.fill(false);
        for &id in active {
            self.sens_covers[id.index()] = true;
        }
        self.sens_covered_count = active.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::PatternSim;
    use crate::stem::tests::random_netlist;
    use crate::PatternSet;
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

    fn c17() -> CompiledCircuit {
        let n: Netlist = bench_format::parse(C17, "c17").unwrap();
        CompiledCircuit::compile(n)
    }

    /// The scalar reference: one single-pattern simulation per test
    /// with immediate dropping.
    fn scalar_drop_lists(
        circuit: &CompiledCircuit,
        faults: &FaultList,
        patterns: &PatternSet,
    ) -> Vec<Vec<FaultId>> {
        let mut sim = PatternSim::for_circuit(circuit, faults);
        let mut active: Vec<FaultId> = faults.ids().collect();
        let mut out = Vec::new();
        for p in 0..patterns.len() {
            let detected = sim.detect(&patterns.get(p), &active);
            active.retain(|id| !detected.contains(id));
            out.push(detected);
        }
        out
    }

    /// Drives a session over the whole pattern set with flush-when-full,
    /// returning the concatenated per-test drop lists.
    fn session_drop_lists(
        circuit: &CompiledCircuit,
        faults: &FaultList,
        patterns: &PatternSet,
    ) -> Vec<Vec<FaultId>> {
        let mut session = DropSession::for_circuit(circuit, faults);
        let mut active: Vec<FaultId> = faults.ids().collect();
        let mut got: Vec<Vec<FaultId>> = Vec::new();
        for p in 0..patterns.len() {
            session.push(&patterns.get(p));
            if session.is_full() {
                let lists = session.flush(&active);
                for detected in &lists {
                    active.retain(|id| !detected.contains(id));
                }
                got.extend(lists);
            }
        }
        got.extend(session.flush(&active));
        got
    }

    #[test]
    fn flush_matches_scalar_loop_exactly() {
        // 150 patterns fill a partial block only; 600 flush two full
        // 256-lane blocks and then a partial one.
        let circuit = c17();
        let faults = circuit.full_faults();
        for count in [150, 600] {
            let patterns = PatternSet::random(5, count, 42);
            let expected = scalar_drop_lists(&circuit, faults, &patterns);
            assert_eq!(session_drop_lists(&circuit, faults, &patterns), expected, "{count}");
        }
    }

    #[test]
    fn wide_and_threaded_sessions_match_scalar_loop() {
        // 600 patterns flush two full 256-lane blocks and a partial one.
        // Four sessions per circuit run on their own threads at once,
        // sharing one compilation and so racing to build its memoized
        // fault region index; each must still match the scalar loop.
        let mut circuits = vec![c17()];
        circuits.extend((0..3).map(|seed| {
            CompiledCircuit::compile(random_netlist(seed, 7, 60 + 20 * seed as usize))
        }));
        for circuit in &circuits {
            let faults = circuit.full_faults();
            let inputs = circuit.netlist().num_inputs();
            let patterns = PatternSet::random(inputs, 600, 42);
            let expected = scalar_drop_lists(circuit, faults, &patterns);
            std::thread::scope(|s| {
                let runs: Vec<_> = (0..4)
                    .map(|_| s.spawn(|| session_drop_lists(circuit, faults, &patterns)))
                    .collect();
                for run in runs {
                    let name = circuit.netlist().name();
                    assert_eq!(run.join().unwrap(), expected, "{name}");
                }
            });
        }
    }

    /// After each of 40 pushes, every fault's pending word must equal
    /// the scalar per-pattern verdicts of the tests pushed so far, and
    /// `covers` must say whether that word is non-zero.
    fn pending_detections_match(circuit: &CompiledCircuit) {
        const LANES: usize = 40;
        let faults = circuit.full_faults();
        let patterns = PatternSet::random(circuit.netlist().num_inputs(), LANES, 5);
        let mut sim = PatternSim::for_circuit(circuit, faults);
        let all: Vec<FaultId> = faults.ids().collect();
        let scalar: Vec<Vec<FaultId>> = (0..LANES)
            .map(|p| sim.detect(&patterns.get(p), &all))
            .collect();
        let mut session = DropSession::for_circuit(circuit, faults);
        let mut expect = vec![SimWord::ZERO; faults.len()];
        for (p, detected) in scalar.iter().enumerate() {
            session.push(&patterns.get(p));
            for id in detected {
                expect[id.index()].set_bit(p);
            }
            for id in faults.ids() {
                let name = circuit.netlist().name();
                let label = format!("{name} {} pending, fault {id}", p + 1);
                assert_eq!(session.pending_detections(id), expect[id.index()], "{label}");
                assert_eq!(session.covers(id), !expect[id.index()].is_zero(), "{label}");
            }
        }
    }

    #[test]
    fn pending_detections_match_scalar_detect_pattern() {
        let mut circuits = vec![c17()];
        circuits.extend((0..6).map(|seed| {
            CompiledCircuit::compile(random_netlist(seed, 7, 50 + 15 * seed as usize))
        }));
        for circuit in &circuits {
            pending_detections_match(circuit);
        }
    }

    /// `covers`, `pending_detections` and `flush` walk over the pending
    /// block's good words in place; each must leave them equal to a
    /// fresh sweep of the block.
    #[test]
    fn walks_leave_the_pending_good_words_as_they_found_them() {
        for seed in 0..4u64 {
            let netlist = random_netlist(seed, 7, 60 + 20 * seed as usize);
            let circuit = CompiledCircuit::compile(netlist);
            let faults = circuit.full_faults();
            let view = circuit.view();
            let patterns = PatternSet::random(circuit.netlist().num_inputs(), 100, seed);
            let name = circuit.netlist().name();
            let mut session = DropSession::for_circuit(&circuit, faults);
            for p in 0..patterns.len() {
                session.push(&patterns.get(p));
            }
            let mut fresh = vec![SimWord::ZERO; view.num_nodes()];
            logic::simulate_superblock_csr(view, &session.lane_words, &mut fresh);
            let mut covered = 0;
            for id in faults.ids() {
                covered += usize::from(session.covers(id));
                assert_eq!(session.scratch.good, fresh, "{name}: covers({id})");
            }
            for id in faults.ids() {
                session.pending_detections(id);
                assert_eq!(session.scratch.good, fresh, "{name}: pending_detections({id})");
            }
            let active: Vec<FaultId> = faults.ids().collect();
            let flushed: usize = session.flush(&active).iter().map(Vec::len).sum();
            assert_eq!(session.scratch.good, fresh, "{name}: flush");
            assert_eq!(flushed, covered, "{name}");
        }
    }

    #[test]
    fn wide_pending_detections_cross_lane_boundaries() {
        // Push past lane 192 so pending detections must read every u64
        // lane of the word.
        let circuit = c17();
        let faults = circuit.collapsed_faults();
        let patterns = PatternSet::random(5, 200, 17);
        let mut sim = PatternSim::for_circuit(&circuit, faults);

        let mut session = DropSession::for_circuit(&circuit, faults);
        for p in 0..200 {
            session.push(&patterns.get(p));
        }
        assert_eq!(session.pending(), 200);
        assert_eq!(session.capacity(), 256);
        for id in faults.ids() {
            let word = session.pending_detections(id);
            for p in [0usize, 63, 64, 65, 127, 128, 191, 192, 199] {
                let scalar = sim.detect(&patterns.get(p), &[id]).contains(&id);
                assert_eq!(word.bit(p), scalar, "fault {id} lane {p}");
            }
        }
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let circuit = c17();
        let faults = circuit.collapsed_faults();
        let mut session = DropSession::for_circuit(&circuit, faults);
        let active: Vec<FaultId> = faults.ids().collect();
        assert_eq!(session.pending(), 0);
        assert!(session.flush(&active).is_empty());
        assert!(session.pending_detections(active[0]).is_zero());
        assert!(!session.covers(active[0]));
    }

    #[test]
    fn full_block_boundary() {
        let circuit = c17();
        let faults = circuit.collapsed_faults();
        let patterns = PatternSet::random(5, 256, 7);
        let mut session = DropSession::for_circuit(&circuit, faults);
        for p in 0..256 {
            assert!(!session.is_full());
            session.push(&patterns.get(p));
        }
        assert!(session.is_full());
        let active: Vec<FaultId> = faults.ids().collect();
        let lists = session.flush(&active);
        assert_eq!(lists.len(), 256);
        assert_eq!(session.pending(), 0);
        assert_eq!(lists, scalar_drop_lists(&circuit, faults, &patterns));
    }

    #[test]
    fn shrinking_active_set_rebuilds_marking_and_stays_exact() {
        // Drive the active set far below half so the lazy sens rebuild
        // fires, then keep flushing: results must stay scalar-identical.
        let circuit = c17();
        let faults = circuit.full_faults();
        let patterns = PatternSet::random(5, 200, 11);
        let expected = scalar_drop_lists(&circuit, faults, &patterns);

        let mut session = DropSession::for_circuit(&circuit, faults);
        let mut active: Vec<FaultId> = faults.ids().collect();
        let mut got: Vec<Vec<FaultId>> = Vec::new();
        for p in 0..patterns.len() {
            session.push(&patterns.get(p));
            // Flush after every push: the active set shrinks while
            // blocks hold one test, maximizing rebuild churn.
            let lists = session.flush(&active);
            for detected in &lists {
                active.retain(|id| !detected.contains(id));
            }
            got.extend(lists);
        }
        assert_eq!(got, expected);
        assert!(
            active.len() * 2 < faults.len(),
            "test premise: the active set must shrink below half"
        );
    }

    #[test]
    fn regrowing_active_set_is_still_exact() {
        // `flush` accepts any fault set; after the marking shrank to a
        // small active set, asking about the full list again must
        // trigger a covering rebuild, not read a stale sweep.
        let circuit = c17();
        let faults = circuit.full_faults();
        let patterns = PatternSet::exhaustive(5);
        let all: Vec<FaultId> = faults.ids().collect();
        let few: Vec<FaultId> = faults.ids().take(2).collect();

        let mut session = DropSession::for_circuit(&circuit, faults);
        session.push(&patterns.get(3));
        let _ = session.flush(&few); // shrink the marking
        session.push(&patterns.get(3));
        let got = session.flush(&all); // regrow: needs a rebuild

        let expected = PatternSim::for_circuit(&circuit, faults).detect(&patterns.get(3), &all);
        assert_eq!(got, vec![expected]);
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn width_mismatch_panics() {
        let circuit = c17();
        let faults = circuit.collapsed_faults();
        let mut session = DropSession::for_circuit(&circuit, faults);
        session.push(&Pattern::new(vec![true]));
    }

    #[test]
    #[should_panic(expected = "outside netlist")]
    fn faults_of_a_larger_netlist_panic() {
        let larger = c17();
        let small = bench_format::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "inv").unwrap();
        let _ = DropSession::for_circuit(&CompiledCircuit::compile(small), larger.full_faults());
    }
}
