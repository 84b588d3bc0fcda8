//! PODEM: path-oriented decision making test generation (Goel, 1981).
//!
//! The generator maintains two 3-valued simulations — the good machine and
//! the machine with the target fault injected — and searches over primary
//! input assignments only. Each iteration:
//!
//! 1. If a fault effect (D/D̄) reaches a primary output, a test is found.
//! 2. Otherwise an **objective** is chosen: excite the fault if it is not
//!    yet excited, else advance a D-frontier gate with the lowest SCOAP
//!    observability.
//! 3. **Backtrace** maps the objective to an unassigned primary input,
//!    guided by SCOAP controllability.
//! 4. The input is assigned and both machines are updated. Conflicts
//!    (fault unexcitable, empty D-frontier, or no X-path to any output)
//!    trigger chronological backtracking with a configurable limit.
//!
//! [`Podem::generate`] updates both machines in step 4 with
//! [`adi_sim::t3event::DualMachineSim`], the incremental dual-machine
//! evaluator over the compiled [`LevelizedCsr`](adi_netlist::LevelizedCsr)
//! position space: an assignment seeds one event wave from the changed
//! primary input, a backtrack retracts exactly the nodes the decision
//! changed (an undo trail, not a resimulation), detection and the
//! D-frontier are maintained incrementally, and the X-path check walks
//! only the still-X region pruned by output-cone reachability masks.
//!
//! [`Podem::generate_reference`] is the classic implementation kept as
//! the differential oracle: it re-simulates both machines over the whole
//! netlist in node-id order on every decision and backtrack. The two
//! produce **bit-identical** outcomes, test cubes, and decision/backtrack
//! counts (asserted by the `podem_equivalence` differential suite); only
//! the [`PodemStats::sim_events`] / [`PodemStats::sim_updates`]
//! diagnostics reflect the simulation work each one actually did.
//! Production code calls only `generate`.

use adi_netlist::fault::{Fault, FaultSite};
use adi_netlist::{CompiledCircuit, GateKind, Netlist, NodeId};
use adi_sim::t3event::DualMachineSim;

use crate::cnf::FaultVerdict;
use crate::value::{eval_t3, eval_t3_branch, T3};
use crate::{Scoap, TestCube};

/// Backtrack budget of the redundancy screen's short search
/// ([`Podem::generate`]). The smallest budget that left irs13207's
/// ATPG no slower: at 20, too many testable faults spill into the
/// screen's proof, where they are far costlier than in PODEM.
const SCREEN_BACKTRACKS: u32 = 50;

/// Conflict ceiling of the redundancy screen's proof (capped by
/// [`PodemConfig::sat_conflict_limit`]).
const SCREEN_CONFLICTS: u64 = 1_000;

/// One PODEM search from the all-X assignment at a backtrack limit:
/// the event-driven engine or the full-resimulation reference.
type Search = fn(&mut Podem, Fault, u32) -> PodemOutcome;

/// When the SAT formal layer ([`crate::cnf`]) backs up the PODEM search.
///
/// This picks *what happens when the search gives up*. The SAT
/// resolution is a pure function of `(circuit, fault, conflict limit)` —
/// deterministic across [`Podem::generate`] and
/// [`Podem::generate_reference`], threads, and the speculative pool — so
/// enabling it never breaks an outcome-parity or first-win-determinism
/// contract.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SatFallback {
    /// Never consult the solver; backtrack-limited targets stay
    /// [`PodemOutcome::Aborted`]. The `PodemConfig` default, so direct
    /// [`Podem`] users (and the reference-parity suites) see the raw
    /// search.
    #[default]
    Off,
    /// Every backtrack-aborted target gets a cone-restricted miter
    /// query: UNSAT ⇒ [`PodemOutcome::Untestable`] (a redundancy
    /// proof), SAT ⇒ [`PodemOutcome::Test`] with the model as the
    /// cube, conflict-limit exhaustion ⇒ the abort stands. The
    /// [`TestGenConfig`](crate::TestGenConfig) default.
    ///
    /// With a `backtrack_limit` above 50 the full-budget search also
    /// sits behind a redundancy screen — a 50-backtrack search, then a
    /// query of at most 1,000 conflicts — whose verdict is final: UNSAT
    /// settles the target as untestable and SAT as a test with the
    /// model as the cube (see [`Podem::generate`]). Only a target the
    /// screen leaves undecided pays the full budgets.
    AbortedOnly,
}

impl SatFallback {
    /// The wire/CLI label (`"off"` / `"aborted-only"`).
    pub fn label(self) -> &'static str {
        match self {
            SatFallback::Off => "off",
            SatFallback::AbortedOnly => "aborted-only",
        }
    }
}

impl std::fmt::Display for SatFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Tuning knobs for [`Podem`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PodemConfig {
    /// Maximum number of backtracks before the target is abandoned as
    /// [`PodemOutcome::Aborted`]. Under [`SatFallback::AbortedOnly`] a
    /// limit above 50 is the ceiling behind the redundancy screen: the
    /// search at this limit runs only for targets the screen left
    /// undecided ([`Podem::generate`]).
    pub backtrack_limit: u32,
    /// Whether aborted targets are handed to the SAT layer for a
    /// definitive verdict ([`SatFallback::Off`] here; the test-generation
    /// driver defaults it to [`SatFallback::AbortedOnly`]).
    pub sat_fallback: SatFallback,
    /// Conflict budget per SAT fallback query (counts toward
    /// [`SatResolved::undecided`] when exhausted). Also the ceiling of
    /// the redundancy screen's query, which runs at
    /// `min(1_000, sat_conflict_limit)` conflicts.
    pub sat_conflict_limit: u64,
}

impl Default for PodemConfig {
    /// 1000 backtracks (a generous budget for circuits of the paper's
    /// scale), SAT fallback off.
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 1000,
            sat_fallback: SatFallback::default(),
            sat_conflict_limit: crate::cnf::DEFAULT_CONFLICT_LIMIT,
        }
    }
}

/// The outcome of one PODEM run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PodemOutcome {
    /// A test cube whose every completion detects the target fault.
    Test(TestCube),
    /// The fault is provably untestable (redundant).
    Untestable,
    /// The backtrack limit was exhausted before a verdict.
    Aborted,
}

impl PodemOutcome {
    /// Returns the test cube if a test was found.
    pub fn test(self) -> Option<TestCube> {
        match self {
            PodemOutcome::Test(c) => Some(c),
            _ => None,
        }
    }
}

/// Counters accumulated across [`Podem::generate`] calls.
///
/// Behind the redundancy screen one target may run two searches, the
/// screen's and the full-budget one (the latter only after the screen's
/// proof came back undecided): `backtracks` and `decisions` sum both,
/// while `tests`, `untestable`, `aborted`, `screen_redundant` and
/// `screen_testable` count each target once, by the step that settled
/// it, so `targets == tests + untestable + aborted + screen_redundant +
/// screen_testable`.
///
/// The search counters (`targets` through `decisions`) are part of the
/// reference-parity contract: [`Podem::generate`] and
/// [`Podem::generate_reference`] produce the same values for the same
/// targets. `sim_events` / `sim_updates` are simulation diagnostics —
/// they measure how much simulation work each one actually performed and
/// naturally differ between the two.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PodemStats {
    /// Total targets attempted.
    pub targets: u64,
    /// Tests found by the search itself (the screen's short search or
    /// the full-budget one).
    pub tests: u64,
    /// Untestable proofs by the search itself.
    pub untestable: u64,
    /// Targets whose search at the full `backtrack_limit` aborted (the
    /// SAT fallback's input; see [`sat_resolved`](Self::sat_resolved)).
    pub aborted: u64,
    /// Total backtracks across all targets, the redundancy screen's
    /// short searches included.
    pub backtracks: u64,
    /// Total primary-input decisions across all targets, the redundancy
    /// screen's short searches included.
    pub decisions: u64,
    /// Node evaluations performed by the simulation (for the full-resim
    /// reference, every node of both machines per resimulation; for the
    /// event engine, nodes actually visited by event waves).
    pub sim_events: u64,
    /// Node value changes applied by the event engine's waves (zero for
    /// the full-resim reference, which overwrites rather than tracks).
    pub sim_updates: u64,
    /// Speculative `generate` runs whose result was discarded by the
    /// first-win committer (always zero for a single [`Podem`]; filled
    /// in by the speculative `TestGenerator` loop). A scheduling
    /// diagnostic, not a search counter: it depends on thread timing
    /// and is excluded from every determinism contract.
    pub wasted_speculations: u64,
    /// How the SAT fallback resolved backtrack-aborted targets
    /// (all-zero when [`SatFallback::Off`]). Deterministic — the
    /// resolution is a pure function of the circuit and fault — but
    /// not a *search* counter: it describes the formal layer, so it is
    /// excluded from [`search_counters`](Self::search_counters).
    pub sat_resolved: SatResolved,
    /// Targets the redundancy screen ([`Podem::generate`]) proved
    /// redundant: its 50-backtrack search aborted and its bounded proof
    /// came back UNSAT, so no full-budget search ran. They count in
    /// neither `untestable` nor `aborted`. Always zero under
    /// [`SatFallback::Off`] or a `backtrack_limit` of 50 or less.
    /// Deterministic, and like `sat_resolved` outside
    /// [`search_counters`](Self::search_counters).
    pub screen_redundant: u64,
    /// Targets the redundancy screen proved testable: its 50-backtrack
    /// search aborted and its bounded proof came back SAT, so the model
    /// became the target's test and no full-budget search ran. They
    /// count in neither `tests` nor `aborted`. Zero and outside
    /// [`search_counters`](Self::search_counters) under the same terms
    /// as `screen_redundant`.
    pub screen_testable: u64,
}

/// Breakdown of SAT-fallback resolutions of PODEM aborts.
///
/// `redundant + testable + undecided` equals the number of aborted
/// targets the fallback examined ([`PodemStats::aborted`] when
/// [`SatFallback::AbortedOnly`] is active). Targets the redundancy
/// screen settles never reach the full-budget search, so they are not
/// counted here but in [`PodemStats::screen_redundant`] and
/// [`PodemStats::screen_testable`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SatResolved {
    /// Miter proved unsatisfiable: the fault is redundant and leaves
    /// every downstream fault list.
    pub redundant: u64,
    /// Miter satisfiable: the model became a test cube on the normal
    /// commit/drop path.
    pub testable: u64,
    /// The solver's conflict limit ran out; the abort stands.
    pub undecided: u64,
}

impl SatResolved {
    /// Total aborted targets the SAT fallback examined.
    pub fn total(self) -> u64 {
        self.redundant + self.testable + self.undecided
    }
}

impl PodemStats {
    /// This stats value with the scheduling-dependent
    /// `wasted_speculations` diagnostic zeroed — the counters that are
    /// bit-identical across every deterministic-equivalent loop
    /// (sequential vs speculative, any width or thread count).
    /// Determinism contracts compare through this accessor.
    pub fn deterministic(self) -> PodemStats {
        PodemStats {
            wasted_speculations: 0,
            ..self
        }
    }

    /// The reference-parity counters as one tuple — everything except
    /// the simulation-specific `sim_events`/`sim_updates` diagnostics and
    /// the scheduling-dependent `wasted_speculations` counter.
    /// [`Podem::generate`] and [`Podem::generate_reference`] must produce
    /// equal values here; every parity check of the equivalence suites
    /// compares through this single accessor so the contract cannot
    /// drift.
    pub fn search_counters(self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.targets,
            self.tests,
            self.untestable,
            self.aborted,
            self.backtracks,
            self.decisions,
        )
    }

    /// Field-wise `self - before` of two cumulative snapshots of one
    /// [`Podem`]: the counters the searches in between added, with
    /// `wasted_speculations` zero.
    pub(crate) fn since(self, before: PodemStats) -> PodemStats {
        PodemStats {
            targets: self.targets - before.targets,
            tests: self.tests - before.tests,
            untestable: self.untestable - before.untestable,
            aborted: self.aborted - before.aborted,
            backtracks: self.backtracks - before.backtracks,
            decisions: self.decisions - before.decisions,
            sim_events: self.sim_events - before.sim_events,
            sim_updates: self.sim_updates - before.sim_updates,
            wasted_speculations: 0,
            sat_resolved: SatResolved {
                redundant: self.sat_resolved.redundant - before.sat_resolved.redundant,
                testable: self.sat_resolved.testable - before.sat_resolved.testable,
                undecided: self.sat_resolved.undecided - before.sat_resolved.undecided,
            },
            screen_redundant: self.screen_redundant - before.screen_redundant,
            screen_testable: self.screen_testable - before.screen_testable,
        }
    }

    /// Adds a per-target delta ([`since`](Self::since)) field-wise,
    /// leaving `wasted_speculations` alone.
    pub(crate) fn accumulate(&mut self, delta: PodemStats) {
        self.targets += delta.targets;
        self.tests += delta.tests;
        self.untestable += delta.untestable;
        self.aborted += delta.aborted;
        self.backtracks += delta.backtracks;
        self.decisions += delta.decisions;
        self.sim_events += delta.sim_events;
        self.sim_updates += delta.sim_updates;
        self.sat_resolved.redundant += delta.sat_resolved.redundant;
        self.sat_resolved.testable += delta.sat_resolved.testable;
        self.sat_resolved.undecided += delta.sat_resolved.undecided;
        self.screen_redundant += delta.screen_redundant;
        self.screen_testable += delta.screen_testable;
    }
}

/// The PODEM test generator, reusable across many target faults of one
/// compiled circuit.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct Podem {
    circuit: CompiledCircuit,
    config: PodemConfig,
    stats: PodemStats,
    pi_values: Vec<T3>,
    pi_index_of: Vec<usize>,
    /// Full-resim machine state, node-indexed (the reference search);
    /// sized on the first reference target so `generate` never pays for
    /// it.
    good: Vec<T3>,
    faulty: Vec<T3>,
    /// Event-driven simulator, built on the first `generate` target so
    /// the reference never pays its setup.
    sim: Option<DualMachineSim>,
    /// Scratch for the event path's frontier snapshot.
    frontier_buf: Vec<NodeId>,
}

#[derive(Clone, Copy, Debug)]
struct Decision {
    pi: usize,
    value: bool,
    flipped: bool,
}

impl Podem {
    /// Creates a generator over a compiled circuit, sharing its cached
    /// SCOAP measures and levelized view (computed once per compilation,
    /// not per generator).
    pub fn for_circuit(circuit: &CompiledCircuit, config: PodemConfig) -> Self {
        let netlist = circuit.netlist();
        let mut pi_index_of = vec![usize::MAX; netlist.num_nodes()];
        for (i, &pi) in netlist.inputs().iter().enumerate() {
            pi_index_of[pi.index()] = i;
        }
        Podem {
            config,
            stats: PodemStats::default(),
            pi_values: vec![T3::X; netlist.num_inputs()],
            pi_index_of,
            good: Vec::new(),
            faulty: Vec::new(),
            sim: None,
            frontier_buf: Vec::new(),
            circuit: circuit.clone(),
        }
    }

    /// Cumulative statistics over all `generate` calls.
    pub fn stats(&self) -> PodemStats {
        self.stats
    }

    /// The SCOAP measures used by backtrace (shared from the
    /// compilation; exposed for diagnostics).
    pub fn scoap(&self) -> &Scoap {
        self.circuit.scoap()
    }

    /// Attempts to generate a test for `fault`.
    ///
    /// Under [`SatFallback::AbortedOnly`] with a `backtrack_limit` above
    /// 50, a **redundancy screen** runs first: the search with 50
    /// backtracks, and if that aborts, a cone-restricted miter
    /// ([`cnf::prove_fault`](crate::cnf::prove_fault)) at
    /// `min(1_000, sat_conflict_limit)` conflicts. Its verdict is final.
    /// UNSAT settles the target as [`PodemOutcome::Untestable`]
    /// ([`PodemStats::screen_redundant`]), and SAT as
    /// [`PodemOutcome::Test`] with the model as the cube
    /// ([`PodemStats::screen_testable`]). Only when the proof runs out of
    /// conflicts does the search restart at `backtrack_limit`, and an
    /// abort there goes to the SAT fallback at `sat_conflict_limit`.
    /// With the fallback off, or at 50 backtracks or fewer, the search
    /// runs once at `backtrack_limit`.
    ///
    /// # Panics
    ///
    /// Panics if the fault references nodes outside the netlist.
    pub fn generate(&mut self, fault: Fault) -> PodemOutcome {
        self.screen_then_search(fault, Self::generate_event)
    }

    /// The full-resimulation reference for [`generate`](Self::generate):
    /// the same search, re-simulating both machines over the whole
    /// netlist on every decision and backtrack, behind the same
    /// redundancy screen and SAT fallback. Bit-identical outcomes and
    /// [`search_counters`](PodemStats::search_counters); only the
    /// simulation diagnostics differ. The differential oracle of the
    /// `podem_equivalence` suite, not a production path.
    ///
    /// # Panics
    ///
    /// Panics if the fault references nodes outside the netlist.
    pub fn generate_reference(&mut self, fault: Fault) -> PodemOutcome {
        self.screen_then_search(fault, Self::generate_full)
    }

    /// The budget ladder shared by both searches: the redundancy screen
    /// (when enabled), then, for a target it leaves undecided, the
    /// search at `backtrack_limit` and the SAT fallback for an abort.
    fn screen_then_search(&mut self, fault: Fault, search: Search) -> PodemOutcome {
        self.stats.targets += 1;
        let fallback = self.config.sat_fallback == SatFallback::AbortedOnly;
        let conflict_limit = self.config.sat_conflict_limit;
        if fallback && self.config.backtrack_limit > SCREEN_BACKTRACKS {
            match search(self, fault, SCREEN_BACKTRACKS) {
                PodemOutcome::Aborted => {}
                settled => return self.tally(settled),
            }
            let conflicts = SCREEN_CONFLICTS.min(conflict_limit);
            match crate::cnf::prove_fault(&self.circuit, fault, conflicts) {
                FaultVerdict::Redundant => {
                    self.stats.screen_redundant += 1;
                    return PodemOutcome::Untestable;
                }
                FaultVerdict::Testable(cube) => {
                    self.stats.screen_testable += 1;
                    return PodemOutcome::Test(cube);
                }
                FaultVerdict::Undecided => {}
            }
        }
        let outcome = search(self, fault, self.config.backtrack_limit);
        match self.tally(outcome) {
            PodemOutcome::Aborted if fallback => {
                let verdict = crate::cnf::prove_fault(&self.circuit, fault, conflict_limit);
                self.resolve_aborted(verdict)
            }
            outcome => outcome,
        }
    }

    /// Counts the outcome of a search that ran to its end or its limit.
    fn tally(&mut self, outcome: PodemOutcome) -> PodemOutcome {
        match outcome {
            PodemOutcome::Test(_) => self.stats.tests += 1,
            PodemOutcome::Untestable => self.stats.untestable += 1,
            PodemOutcome::Aborted => self.stats.aborted += 1,
        }
        outcome
    }

    /// Turns the formal layer's verdict on a backtrack-aborted target
    /// into its outcome. The search counters (including
    /// [`PodemStats::aborted`]) keep describing the raw PODEM search;
    /// the resolution lands in [`PodemStats::sat_resolved`].
    fn resolve_aborted(&mut self, verdict: FaultVerdict) -> PodemOutcome {
        match verdict {
            FaultVerdict::Testable(cube) => {
                self.stats.sat_resolved.testable += 1;
                PodemOutcome::Test(cube)
            }
            FaultVerdict::Redundant => {
                self.stats.sat_resolved.redundant += 1;
                PodemOutcome::Untestable
            }
            FaultVerdict::Undecided => {
                self.stats.sat_resolved.undecided += 1;
                PodemOutcome::Aborted
            }
        }
    }

    // ----- event-driven engine ------------------------------------------

    fn generate_event(&mut self, fault: Fault, backtrack_limit: u32) -> PodemOutcome {
        self.pi_values.fill(T3::X);
        let mut sim = self
            .sim
            .take()
            .unwrap_or_else(|| DualMachineSim::for_circuit(&self.circuit));
        let (events_before, updates_before) = sim.counters();
        sim.begin_target(fault);
        let outcome = self.search_event(&mut sim, backtrack_limit);
        sim.end_target();
        let (events_after, updates_after) = sim.counters();
        self.stats.sim_events += events_after - events_before;
        self.stats.sim_updates += updates_after - updates_before;
        self.sim = Some(sim);
        outcome
    }

    fn search_event(&mut self, sim: &mut DualMachineSim, backtrack_limit: u32) -> PodemOutcome {
        let circuit = self.circuit.clone();
        let nl = circuit.netlist();
        let view = circuit.view();
        let scoap = circuit.scoap();
        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks: u32 = 0;

        loop {
            if sim.detected() {
                return PodemOutcome::Test(TestCube::from_t3(&self.pi_values));
            }

            let (site_pos, needed) = sim.excite_site();
            let site_good = sim.good_at(site_pos);
            let objective = if site_good.is_binary() && site_good != T3::from_bool(needed) {
                None // pinned to the stuck value: the fault is unexcitable
            } else if site_good == T3::X {
                Some((view.node_at(site_pos), needed))
            } else {
                // Excited: the effect must still reach an output through
                // the (incrementally maintained) D-frontier.
                sim.refresh_frontier();
                if sim.frontier_ids().is_empty() || !sim.x_path_exists() {
                    None
                } else {
                    self.frontier_buf.clear();
                    self.frontier_buf.extend_from_slice(sim.frontier_ids());
                    objective_from_frontier(nl, scoap, &mut self.frontier_buf, |n| {
                        sim.good_of(n)
                    })
                }
            };

            if let Some((node, value)) = objective {
                let choice = backtrace_from(
                    nl,
                    scoap,
                    &self.pi_index_of,
                    &self.pi_values,
                    |n| sim.good_of(n),
                    node,
                    value,
                );
                if let Some((pi, v)) = choice {
                    self.stats.decisions += 1;
                    self.pi_values[pi] = T3::from_bool(v);
                    sim.assign(pi, v);
                    stack.push(Decision {
                        pi,
                        value: v,
                        flipped: false,
                    });
                    continue;
                }
            }

            // Conflict (or no objective reachable): chronological backtrack.
            loop {
                match stack.pop() {
                    None => return PodemOutcome::Untestable,
                    Some(d) if !d.flipped => {
                        backtracks += 1;
                        self.stats.backtracks += 1;
                        if backtracks > backtrack_limit {
                            return PodemOutcome::Aborted;
                        }
                        sim.retract_frame();
                        self.pi_values[d.pi] = T3::from_bool(!d.value);
                        sim.assign(d.pi, !d.value);
                        stack.push(Decision {
                            pi: d.pi,
                            value: !d.value,
                            flipped: true,
                        });
                        break;
                    }
                    Some(d) => {
                        self.pi_values[d.pi] = T3::X;
                        sim.retract_frame();
                    }
                }
            }
        }
    }
}

// ----- full-resimulation reference --------------------------------------

impl Podem {
    fn generate_full(&mut self, fault: Fault, backtrack_limit: u32) -> PodemOutcome {
        self.pi_values.fill(T3::X);
        let circuit = self.circuit.clone();
        let nl = circuit.netlist();
        let scoap = circuit.scoap();
        // Lazily sized: the event engine never pays for the reference's
        // node-indexed arrays. `simulate` overwrites every entry.
        self.good.resize(nl.num_nodes(), T3::X);
        self.faulty.resize(nl.num_nodes(), T3::X);
        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks: u32 = 0;

        loop {
            self.simulate(nl, fault);
            if self.detected_full(nl) {
                return PodemOutcome::Test(TestCube::from_t3(&self.pi_values));
            }

            let objective = if self.conflict_full(nl, fault) {
                None
            } else {
                let (site, needed) = excitation(nl, fault);
                if self.good[site.index()] == T3::X {
                    Some((site, needed))
                } else {
                    let mut frontier = self.d_frontier_full(nl, fault);
                    objective_from_frontier(nl, scoap, &mut frontier, |n| self.good[n.index()])
                }
            };

            if let Some((node, value)) = objective {
                let choice = backtrace_from(
                    nl,
                    scoap,
                    &self.pi_index_of,
                    &self.pi_values,
                    |n| self.good[n.index()],
                    node,
                    value,
                );
                if let Some((pi, v)) = choice {
                    self.stats.decisions += 1;
                    self.pi_values[pi] = T3::from_bool(v);
                    stack.push(Decision {
                        pi,
                        value: v,
                        flipped: false,
                    });
                    continue;
                }
            }

            // Conflict (or no objective reachable): chronological backtrack.
            loop {
                match stack.pop() {
                    None => return PodemOutcome::Untestable,
                    Some(d) if !d.flipped => {
                        backtracks += 1;
                        self.stats.backtracks += 1;
                        if backtracks > backtrack_limit {
                            return PodemOutcome::Aborted;
                        }
                        self.pi_values[d.pi] = T3::from_bool(!d.value);
                        stack.push(Decision {
                            pi: d.pi,
                            value: !d.value,
                            flipped: true,
                        });
                        break;
                    }
                    Some(d) => {
                        self.pi_values[d.pi] = T3::X;
                    }
                }
            }
        }
    }

    /// Re-simulates both machines from the current PI assignment.
    fn simulate(&mut self, nl: &Netlist, fault: Fault) {
        self.stats.sim_events += 2 * nl.num_nodes() as u64;
        for (i, &pi) in nl.inputs().iter().enumerate() {
            self.good[pi.index()] = self.pi_values[i];
            self.faulty[pi.index()] = self.pi_values[i];
        }
        let stuck = T3::from_bool(fault.stuck_value());
        for &node in nl.topo_order() {
            let kind = nl.kind(node);
            if kind != GateKind::Input {
                let gv = eval_t3(kind, nl.fanins(node), |f| self.good[f.index()]);
                self.good[node.index()] = gv;
            }
            // Faulty machine with injection.
            let fv = match fault.site() {
                FaultSite::Stem(n) if n == node => stuck,
                FaultSite::Branch { gate, pin } if gate == node => eval_t3_branch(
                    kind,
                    nl.fanins(node),
                    pin as usize,
                    stuck,
                    |f| self.faulty[f.index()],
                ),
                _ => {
                    if kind == GateKind::Input {
                        self.faulty[node.index()]
                    } else {
                        eval_t3(kind, nl.fanins(node), |f| self.faulty[f.index()])
                    }
                }
            };
            self.faulty[node.index()] = fv;
        }
    }

    /// True if some primary output shows a binary good/faulty discrepancy.
    fn detected_full(&self, nl: &Netlist) -> bool {
        nl.outputs().iter().any(|&o| {
            let g = self.good[o.index()];
            let f = self.faulty[o.index()];
            g.is_binary() && f.is_binary() && g != f
        })
    }

    /// Conflict detection: the current partial assignment can no longer
    /// lead to a test.
    ///
    /// Three-valued simulation is monotone in assignment refinement, so a
    /// binary node value is final: once the excitation line is pinned to
    /// the stuck value, or every effect path is blocked, no completion of
    /// the assignment can detect the fault.
    fn conflict_full(&self, nl: &Netlist, fault: Fault) -> bool {
        let (site, needed) = excitation(nl, fault);
        let gv = self.good[site.index()];
        if gv.is_binary() && gv != T3::from_bool(needed) {
            return true; // fault can never be excited
        }
        if !gv.is_binary() {
            return false; // not excited yet; excitation is the objective
        }
        // Excited: a fault effect exists on the fault line. It must still
        // be able to reach a primary output. A stem fault places D on its
        // node; a branch fault places D on the (un-modelled) branch line,
        // so the reading gate acts as its frontier entry.
        if self.detected_full(nl) {
            return false; // handled by the detection check, defensive
        }
        let frontier = self.d_frontier_full(nl, fault);
        if frontier.is_empty() {
            // For a stem fault the stem itself may still be an observable
            // PO; that case is `detected`. Nothing can advance the effect.
            return true;
        }
        !self.x_path_full(nl, &frontier)
    }

    /// Gates whose output is still undetermined in some machine while at
    /// least one input carries a fault effect. The branch-fault gate
    /// itself belongs to the frontier while the branch line carries D and
    /// the gate output is undetermined.
    fn d_frontier_full(&self, nl: &Netlist, fault: Fault) -> Vec<NodeId> {
        let branch_gate = match fault.site() {
            FaultSite::Branch { gate, .. } => {
                let (driver, needed) = excitation(nl, fault);
                let excited = self.good[driver.index()] == T3::from_bool(needed);
                excited.then_some(gate)
            }
            FaultSite::Stem(_) => None,
        };
        nl.node_ids()
            .filter(|&n| {
                let out_unknown =
                    self.good[n.index()] == T3::X || self.faulty[n.index()] == T3::X;
                if !out_unknown || nl.kind(n) == GateKind::Input {
                    return false;
                }
                if branch_gate == Some(n) {
                    return true;
                }
                nl.fanins(n).iter().any(|&f| {
                    let g = self.good[f.index()];
                    let fv = self.faulty[f.index()];
                    g.is_binary() && fv.is_binary() && g != fv
                })
            })
            .collect()
    }

    /// True if some D-frontier gate reaches a primary output through nodes
    /// that are still X in at least one machine.
    fn x_path_full(&self, nl: &Netlist, frontier: &[NodeId]) -> bool {
        let mut visited = vec![false; nl.num_nodes()];
        let mut stack: Vec<NodeId> = frontier.to_vec();
        while let Some(n) = stack.pop() {
            if visited[n.index()] {
                continue;
            }
            visited[n.index()] = true;
            let unknown =
                self.good[n.index()] == T3::X || self.faulty[n.index()] == T3::X;
            if !unknown && !frontier.contains(&n) {
                continue;
            }
            if nl.is_output(n) {
                return true;
            }
            stack.extend_from_slice(nl.fanouts(n));
        }
        false
    }
}

/// The good-machine node whose value excites the fault, with the value
/// it must take (reference-only: the event engine asks its simulator).
fn excitation(nl: &Netlist, fault: Fault) -> (NodeId, bool) {
    match fault.site() {
        FaultSite::Stem(n) => (n, !fault.stuck_value()),
        FaultSite::Branch { gate, pin } => {
            (nl.fanins(gate)[pin as usize], !fault.stuck_value())
        }
    }
}

/// Chooses the next objective `(node, value)` from a D-frontier: the
/// easiest-to-observe gate that still has an unassigned side input, in
/// ascending SCOAP observability (stable, so ties keep node-id order —
/// the reference-parity contract depends on this). Shared by both
/// searches.
fn objective_from_frontier(
    nl: &Netlist,
    scoap: &Scoap,
    frontier: &mut [NodeId],
    good: impl Fn(NodeId) -> T3,
) -> Option<(NodeId, bool)> {
    frontier.sort_by_key(|&g| scoap.co(g));
    for &gate in frontier.iter() {
        let mut x_inputs = nl
            .fanins(gate)
            .iter()
            .copied()
            .filter(|&f| good(f) == T3::X);
        let target = match nl.kind(gate).controlling_value() {
            Some(c) => {
                // All X side-inputs eventually need the non-controlling
                // value; pursue the hardest first (standard heuristic).
                let v = !c;
                x_inputs.max_by_key(|&f| scoap.cc(f, v)).map(|f| (f, v))
            }
            None => {
                // Parity / single-input gates: any X input propagates;
                // choose the cheapest overall assignment.
                x_inputs.next().map(|f| {
                    let zero_cheaper = scoap.cc0(f) <= scoap.cc1(f);
                    (f, !zero_cheaper)
                })
            }
        };
        if target.is_some() {
            return target;
        }
    }
    None
}

/// Maps an objective to a primary-input assignment along X-valued lines.
/// Shared by both searches; `good` abstracts over their value storage
/// (node-indexed arrays or position-mapped event state).
fn backtrace_from(
    nl: &Netlist,
    scoap: &Scoap,
    pi_index_of: &[usize],
    pi_values: &[T3],
    good: impl Fn(NodeId) -> T3,
    mut node: NodeId,
    mut value: bool,
) -> Option<(usize, bool)> {
    loop {
        let kind = nl.kind(node);
        if kind == GateKind::Input {
            let pi = pi_index_of[node.index()];
            debug_assert_ne!(pi, usize::MAX);
            if pi_values[pi] == T3::X {
                return Some((pi, value));
            }
            return None; // objective already blocked
        }
        if matches!(kind, GateKind::Const0 | GateKind::Const1) {
            return None;
        }
        let v_in = value != kind.is_inverting();
        let x_fanins = nl
            .fanins(node)
            .iter()
            .copied()
            .filter(|&f| good(f) == T3::X);
        let next = match kind.controlling_value() {
            // One input at the controlling value suffices: easiest.
            Some(c) if v_in == c => x_fanins.min_by_key(|&f| scoap.cc(f, v_in)),
            // All inputs must be non-controlling: hardest first.
            Some(_) => x_fanins.max_by_key(|&f| scoap.cc(f, v_in)),
            None => x_fanins.min_by_key(|&f| scoap.cc(f, v_in).min(scoap.cc(f, !v_in))),
        };
        // No X fanin left: the objective is already blocked.
        node = next?;
        value = v_in;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::bench_format;
    use adi_netlist::fault::FaultList;
    use adi_sim::reference::PatternSim;
    use adi_sim::{FaultSimulator, PatternSet};

    fn compile(netlist: &Netlist) -> CompiledCircuit {
        CompiledCircuit::compile(netlist.clone())
    }

    /// The production search and its full-resim reference: every
    /// soundness test below runs against both.
    type Generate = fn(&mut Podem, Fault) -> PodemOutcome;
    const SEARCHES: [(&str, Generate); 2] = [
        ("event-driven", Podem::generate),
        ("reference", Podem::generate_reference),
    ];

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

    #[test]
    fn every_c17_fault_gets_a_verified_test() {
        let n = bench_format::parse(C17, "c17").unwrap();
        let faults = FaultList::full(&n);
        let circuit = compile(&n);
        let mut sim = PatternSim::for_circuit(&circuit, &faults);
        for (label, generate) in SEARCHES {
            let mut podem = Podem::for_circuit(&circuit, PodemConfig::default());
            for (id, fault) in faults.iter() {
                match generate(&mut podem, fault) {
                    PodemOutcome::Test(cube) => {
                        // Every completion must detect the fault; check two.
                        for fill in [crate::FillStrategy::Zeros, crate::FillStrategy::Ones] {
                            let pattern = fill.fill(&cube, 0);
                            assert!(
                                sim.detect(&pattern, &[id]) == [id],
                                "[{label}] cube {cube} (filled {fill:?}) misses fault {fault}"
                            );
                        }
                    }
                    other => panic!("[{label}] c17 fault {fault} not tested: {other:?}"),
                }
            }
            let stats = podem.stats();
            assert_eq!(stats.targets, faults.len() as u64);
            assert_eq!(stats.tests, faults.len() as u64);
            assert_eq!(stats.untestable + stats.aborted, 0);
        }
    }

    #[test]
    fn engines_agree_bit_for_bit_on_c17() {
        let n = bench_format::parse(C17, "c17").unwrap();
        let faults = FaultList::full(&n);
        let circuit = compile(&n);
        let mut full = Podem::for_circuit(&circuit, PodemConfig::default());
        let mut event = Podem::for_circuit(&circuit, PodemConfig::default());
        for (_, fault) in faults.iter() {
            assert_eq!(
                full.generate_reference(fault),
                event.generate(fault),
                "{fault}"
            );
        }
        let (fs, es) = (full.stats(), event.stats());
        assert_eq!(fs.search_counters(), es.search_counters());
        // The whole point: the event engine evaluates far fewer nodes.
        assert!(es.sim_events < fs.sim_events);
    }

    #[test]
    fn redundant_fault_is_proven_untestable() {
        // y = OR(a, NOT(a)) = 1 always: y s-a-1 is redundant.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let n = bench_format::parse(src, "taut").unwrap();
        let y = n.find_node("y").unwrap();
        for (label, generate) in SEARCHES {
            let mut podem = Podem::for_circuit(&compile(&n), PodemConfig::default());
            assert_eq!(
                generate(&mut podem, Fault::stem_at(y, true)),
                PodemOutcome::Untestable,
                "[{label}]"
            );
            // But y s-a-0 is testable (any pattern works).
            assert!(matches!(
                generate(&mut podem, Fault::stem_at(y, false)),
                PodemOutcome::Test(_)
            ));
        }
    }

    #[test]
    fn branch_fault_testable_when_stem_redundantly_masked() {
        // Classic: s = a fans to two XOR-reconvergent paths; branch faults
        // behave differently from stem faults.
        let src = "
INPUT(a)
INPUT(b)
OUTPUT(y)
p = AND(a, b)
q = OR(a, b)
y = XOR(p, q)
";
        let n = bench_format::parse(src, "reconv").unwrap();
        let faults = FaultList::full(&n);
        let circuit = compile(&n);
        let mut sim = PatternSim::for_circuit(&circuit, &faults);
        for (label, generate) in SEARCHES {
            let mut podem = Podem::for_circuit(&circuit, PodemConfig::default());
            for (id, fault) in faults.iter() {
                if let PodemOutcome::Test(cube) = generate(&mut podem, fault) {
                    let pattern = crate::FillStrategy::Zeros.fill(&cube, 0);
                    assert!(
                        sim.detect(&pattern, &[id]) == [id],
                        "[{label}] fault {fault}"
                    );
                }
            }
        }
    }

    #[test]
    fn exhaustive_cross_check_on_reconvergent_circuit() {
        // PODEM's testable/untestable verdicts must agree with exhaustive
        // fault simulation.
        let src = "
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
t = AND(a, b)
u = NOT(b)
v = AND(u, c)
y = OR(t, v)
";
        let n = bench_format::parse(src, "rc").unwrap();
        let faults = FaultList::full(&n);
        let patterns = PatternSet::exhaustive(3);
        let circuit = compile(&n);
        let mut sim = PatternSim::for_circuit(&circuit, &faults);
        let matrix = FaultSimulator::for_circuit(&circuit, &faults).no_drop_matrix(&patterns);
        for (label, generate) in SEARCHES {
            let mut podem = Podem::for_circuit(&circuit, PodemConfig::default());
            for (id, fault) in faults.iter() {
                let testable = matrix.detected_any(id);
                match generate(&mut podem, fault) {
                    PodemOutcome::Test(cube) => {
                        assert!(
                            testable,
                            "[{label}] PODEM found test for undetectable {fault}"
                        );
                        let p = crate::FillStrategy::Random.fill(&cube, 5);
                        assert!(
                            sim.detect(&p, &[id]) == [id],
                            "[{label}] bad test for {fault}"
                        );
                    }
                    PodemOutcome::Untestable => {
                        assert!(
                            !testable,
                            "[{label}] PODEM wrongly proved {fault} redundant"
                        );
                    }
                    PodemOutcome::Aborted => {
                        panic!("[{label}] abort on tiny circuit for {fault}")
                    }
                }
            }
        }
    }

    #[test]
    fn backtrack_limit_triggers_abort_or_verdict() {
        let n = bench_format::parse(C17, "c17").unwrap();
        let faults = FaultList::full(&n);
        let circuit = compile(&n);
        let mut sim = PatternSim::for_circuit(&circuit, &faults);
        for (label, generate) in SEARCHES {
            let mut podem = Podem::for_circuit(
                &circuit,
                PodemConfig {
                    backtrack_limit: 0,
                    ..PodemConfig::default()
                },
            );
            // With zero backtracks allowed, every outcome must still be
            // sound: any Test produced must be correct.
            for (id, fault) in faults.iter() {
                if let PodemOutcome::Test(cube) = generate(&mut podem, fault) {
                    let p = crate::FillStrategy::Zeros.fill(&cube, 0);
                    assert!(sim.detect(&p, &[id]) == [id], "[{label}]");
                }
            }
        }
    }

    #[test]
    fn xor_propagation_works() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n";
        let n = bench_format::parse(src, "x2").unwrap();
        let a = n.find_node("a").unwrap();
        for (_, generate) in SEARCHES {
            let mut podem = Podem::for_circuit(&compile(&n), PodemConfig::default());
            let outcome = generate(&mut podem, Fault::stem_at(a, false));
            let cube = outcome.test().expect("a/0 is testable through XOR");
            assert_eq!(cube.get(0), Some(true)); // a must be 1 to excite s-a-0
        }
    }

    #[test]
    fn input_stem_fault_on_output_node() {
        // Fault directly on a PO that is also a PI.
        let src = "INPUT(a)\nOUTPUT(a)\n";
        let n = bench_format::parse(src, "wire").unwrap();
        let a = n.find_node("a").unwrap();
        for (_, generate) in SEARCHES {
            let mut podem = Podem::for_circuit(&compile(&n), PodemConfig::default());
            let cube = generate(&mut podem, Fault::stem_at(a, false))
                .test()
                .expect("testable");
            assert_eq!(cube.get(0), Some(true));
        }
    }
}
