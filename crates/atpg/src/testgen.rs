//! Ordered-fault-list test generation with fault dropping.
//!
//! This is the paper's Section-4 procedure: a plain test generator **without
//! dynamic compaction heuristics**. Faults are targeted in exactly the
//! order they appear in the supplied fault order; every generated test is
//! fault-simulated against the remaining undetected faults, which are then
//! dropped. The per-test newly-detected counts form the fault-coverage
//! curve that Figure 1 and Table 7 are built from.
//!
//! A [`TestGenerator`] searches each target at most once: later runs,
//! under any order, replay the memoized outcome and counter delta.
//!
//! [`TestGenerator::run`] drops faults in batches: generated tests
//! accumulate into blocks of 32 lanes of an
//! [`adi_sim::DropSession`], which pays the stem-region engine's
//! per-region propagation once per block instead of one per-fault cone
//! walk per test. With
//! [`TestGenConfig::atpg_threads`] above one the loop runs
//! **speculatively**: a pool of worker threads generates tests for
//! upcoming targets while the calling thread commits outcomes strictly
//! in ordering position under the first-win rule (see the
//! [`speculate`] module docs for the invariants). Every thread count
//! and speculation depth produces the same [`TestGenResult`].
//!
//! [`TestGenerator::run_reference`] is the differential oracle for both
//! `run` and [`run_with_random_phase`](TestGenerator::run_with_random_phase):
//! the scalar loop, one
//! [`PatternSim::detect`](adi_sim::reference::PatternSim::detect) call
//! per generated test, over [`Podem::generate_reference`]. Its tests,
//! classifications, per-test detection counts and PODEM search counters
//! are bit-identical to `run`'s; production code does not call it.

use std::sync::OnceLock;
use std::time::Instant;

use adi_netlist::fault::{FaultId, FaultList};
use adi_netlist::CompiledCircuit;
use adi_obs::SpanSite;
use adi_sim::reference::PatternSim;
use adi_sim::{CoverageCurve, DropSession, Pattern};

use crate::{speculate, FillStrategy, Podem, PodemConfig, PodemOutcome, PodemStats, SatFallback, SatResolved};

/// Per-target PODEM span: the drop loop enters it around
/// `podem.generate`, so a traced `atpg` request shows every target the
/// generator searched for the first time. A target replayed from the
/// memo ([`TestGenerator`]) opens no span.
pub(crate) static SPAN_PODEM: SpanSite = SpanSite::new("atpg.podem");

/// One target's search: the [`PodemOutcome`] and the [`PodemStats`]
/// delta the search added.
pub(crate) type Searched = (PodemOutcome, PodemStats);

/// Configuration for a [`TestGenerator`] run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TestGenConfig {
    /// PODEM backtrack limit and SAT-fallback policy per target. The
    /// driver's default turns the fallback **on**
    /// ([`SatFallback::AbortedOnly`]): every backtrack-aborted target is
    /// handed to the formal layer for a redundancy proof or a test cube,
    /// and the default 1,000 backtracks and 100,000 conflicts are
    /// ceilings behind the redundancy screen of [`Podem::generate`] (a
    /// 50-backtrack search, then a proof of at most 1,000 conflicts).
    /// The screen's verdict is final, a SAT model becoming the target's
    /// test, so only a target whose proof runs out of conflicts pays
    /// the full budgets.
    pub podem: PodemConfig,
    /// How unspecified cube inputs are completed.
    pub fill: FillStrategy,
    /// Seed for random fill (each test uses `seed + test_index`).
    pub fill_seed: u64,
    /// Total threads of the ATPG loop itself. `1` runs the sequential
    /// loop; `>= 2` runs the speculative first-win loop with
    /// `atpg_threads - 1` PODEM workers plus the committing caller.
    /// Results are **bit-identical** at every value (the determinism
    /// contract of the [`speculate`] module); the reference loop
    /// ignores this. Defaults to the
    /// `ADI_ATPG_THREADS` environment variable (read once and cached),
    /// falling back to `1`. An `adi_core` experiment runs one loop per
    /// ordering, on parallel threads by default, so `k` orderings at
    /// `atpg_threads: t` can occupy `k * t` threads; run the orderings
    /// serially when `t` already saturates the machine.
    pub atpg_threads: usize,
    /// How far past the commit position speculation workers may claim
    /// targets, in ordering positions — the **cap** of the adaptive
    /// lookahead window (`>= 1`). The committer resizes the live window
    /// within `[1, speculation_depth]` from the observed waste rate
    /// (see the [`speculate`] module docs). Larger caps keep workers
    /// busy across skip runs but allow more wasted PODEM work. Has no
    /// effect on results, only on wall clock and
    /// [`PodemStats::wasted_speculations`].
    pub speculation_depth: usize,
}

/// The cached `ADI_ATPG_THREADS` default for
/// [`TestGenConfig::atpg_threads`].
fn atpg_threads_from_env() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("ADI_ATPG_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1)
    })
}

impl Default for TestGenConfig {
    fn default() -> Self {
        TestGenConfig {
            podem: PodemConfig {
                sat_fallback: SatFallback::AbortedOnly,
                ..PodemConfig::default()
            },
            fill: FillStrategy::Random,
            fill_seed: 0x0AD1_F111,
            atpg_threads: atpg_threads_from_env(),
            speculation_depth: 16,
        }
    }
}

/// Final classification of each fault after a test-generation run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultStatus {
    /// Detected by a test generated for this very fault.
    DetectedAsTarget {
        /// Index of the detecting test in [`TestGenResult::tests`].
        test: u32,
    },
    /// Dropped by the fault simulation of a test generated for another
    /// fault (the paper's "accidental detection").
    DetectedAccidentally {
        /// Index of the detecting test in [`TestGenResult::tests`].
        test: u32,
    },
    /// Proven untestable — by the PODEM search itself or, under
    /// [`SatFallback::AbortedOnly`], by an UNSAT cone-restricted miter
    /// after a search aborted (the redundancy screen's or the
    /// full-budget one).
    Redundant,
    /// PODEM hit its backtrack limit and no SAT verdict rescued it
    /// (fallback off, or the solver's conflict limit also ran out).
    Aborted,
}

impl FaultStatus {
    /// Returns `true` for either detected variant.
    pub fn is_detected(self) -> bool {
        matches!(
            self,
            FaultStatus::DetectedAsTarget { .. } | FaultStatus::DetectedAccidentally { .. }
        )
    }
}

/// Wall-clock nanoseconds spent in each phase of a test-generation run,
/// carried in [`TestGenResult::timing`].
///
/// Timing is a measurement, not an output: it is **excluded from
/// [`TestGenResult`] equality** so the determinism contracts (sequential
/// vs speculative, every thread count) can keep comparing whole
/// results.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Nanoseconds spent getting each target's PODEM outcome: a
    /// `Podem::generate` search for a target the generator had not
    /// searched before, a memo lookup for one it had (see
    /// [`TestGenerator`]). Under speculation this sums over every worker
    /// run — including discarded ones — so it can exceed wall clock; the
    /// excess over the sequential run is the price of the wasted
    /// speculation.
    pub generate_ns: u64,
    /// Nanoseconds in the drop path: pending-cover checks, test pushes,
    /// and block flushes (plus the warm-up admission phase, for
    /// [`TestGenerator::run_with_random_phase`]).
    pub drop_ns: u64,
    /// Nanoseconds the committer spent blocked on a speculation slot
    /// that no worker had finished yet (zero for sequential runs). High
    /// values mean the worker pool, not the drop path, is the
    /// bottleneck.
    pub commit_wait_ns: u64,
}

impl PhaseTimings {
    /// Accumulates `other` into `self` (phase-wise saturating sum).
    fn absorb(&mut self, other: PhaseTimings) {
        self.generate_ns = self.generate_ns.saturating_add(other.generate_ns);
        self.drop_ns = self.drop_ns.saturating_add(other.drop_ns);
        self.commit_wait_ns = self.commit_wait_ns.saturating_add(other.commit_wait_ns);
    }
}

/// The outcome of one ordered test-generation run.
///
/// # Equality
///
/// `PartialEq`/`Eq` compare the **deterministic outputs** — tests,
/// targets, per-test detection counts, classifications, and the
/// deterministic [`PodemStats`] counters. The [`timing`] field
/// (wall-clock measurement) and the scheduling-dependent
/// [`PodemStats::wasted_speculations`] diagnostic are excluded, which is
/// what lets the determinism lattice assert whole-result equality
/// across thread counts and speculation depths.
///
/// [`timing`]: TestGenResult::timing
#[derive(Clone, Debug)]
pub struct TestGenResult {
    /// The generated test set, in generation order.
    pub tests: Vec<Pattern>,
    /// For each test, the fault it was generated for.
    pub targets: Vec<FaultId>,
    /// For each test, how many previously-undetected faults it detected.
    pub new_detections: Vec<u32>,
    /// Per-fault classification (indexed by `FaultId`).
    pub status: Vec<FaultStatus>,
    /// PODEM counters for the whole run: the sum of each searched
    /// target's counter delta, replayed from the memo for a target an
    /// earlier run of the generator searched. Every counter except
    /// [`PodemStats::wasted_speculations`] is therefore the same whether
    /// a target was searched or replayed, and under speculation.
    pub podem_stats: PodemStats,
    /// Per-phase wall-clock breakdown (excluded from equality).
    pub timing: PhaseTimings,
}

impl PartialEq for TestGenResult {
    fn eq(&self, other: &Self) -> bool {
        self.tests == other.tests
            && self.targets == other.targets
            && self.new_detections == other.new_detections
            && self.status == other.status
            && self.podem_stats.deterministic() == other.podem_stats.deterministic()
    }
}

impl Eq for TestGenResult {}

impl TestGenResult {
    /// Number of generated tests.
    pub fn num_tests(&self) -> usize {
        self.tests.len()
    }

    /// Number of faults proven redundant.
    pub fn num_redundant(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, FaultStatus::Redundant))
            .count()
    }

    /// Number of aborted faults.
    pub fn num_aborted(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, FaultStatus::Aborted))
            .count()
    }

    /// Number of detected faults.
    pub fn num_detected(&self) -> usize {
        self.status.iter().filter(|s| s.is_detected()).count()
    }

    /// Fault coverage over all targeted faults.
    pub fn coverage(&self) -> f64 {
        if self.status.is_empty() {
            0.0
        } else {
            self.num_detected() as f64 / self.status.len() as f64
        }
    }

    /// Fault efficiency: detected + proven-redundant over all faults
    /// (aborts are the only unresolved faults).
    pub fn efficiency(&self) -> f64 {
        if self.status.is_empty() {
            0.0
        } else {
            (self.num_detected() + self.num_redundant()) as f64 / self.status.len() as f64
        }
    }

    /// The fault-coverage curve `n_ord(i)` of this run.
    pub fn coverage_curve(&self) -> CoverageCurve {
        CoverageCurve::from_new_detections(&self.new_detections, self.status.len())
    }

    /// One-struct digest of the run: counts, coverage, the per-phase
    /// wall-clock split, and the wasted-speculation counter — everything
    /// needed to see where a run spent its time (and whether speculation
    /// paid off) without a profiler.
    pub fn summary(&self) -> TestGenSummary {
        TestGenSummary {
            num_tests: self.num_tests(),
            num_detected: self.num_detected(),
            num_redundant: self.num_redundant(),
            num_aborted: self.num_aborted(),
            coverage: self.coverage(),
            generate_ns: self.timing.generate_ns,
            drop_ns: self.timing.drop_ns,
            commit_wait_ns: self.timing.commit_wait_ns,
            wasted_speculations: self.podem_stats.wasted_speculations,
            aborted_faults: self.podem_stats.aborted,
            sat_resolved: self.podem_stats.sat_resolved,
        }
    }
}

/// Digest of a [`TestGenResult`] ([`TestGenResult::summary`]): result
/// counts plus the phase timing and speculation-waste diagnostics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TestGenSummary {
    /// Generated tests.
    pub num_tests: usize,
    /// Detected faults (as target or accidentally).
    pub num_detected: usize,
    /// Faults proven redundant.
    pub num_redundant: usize,
    /// Aborted faults.
    pub num_aborted: usize,
    /// Fault coverage over all faults.
    pub coverage: f64,
    /// Wall-clock nanoseconds in `Podem::generate`
    /// ([`PhaseTimings::generate_ns`]).
    pub generate_ns: u64,
    /// Wall-clock nanoseconds in the drop path
    /// ([`PhaseTimings::drop_ns`]).
    pub drop_ns: u64,
    /// Wall-clock nanoseconds the committer waited on unfinished
    /// speculation ([`PhaseTimings::commit_wait_ns`]).
    pub commit_wait_ns: u64,
    /// Speculative PODEM runs whose result was discarded
    /// ([`PodemStats::wasted_speculations`]).
    pub wasted_speculations: u64,
    /// Targets whose PODEM search hit the full backtrack limit,
    /// **before** any SAT fallback ([`PodemStats::aborted`]; targets the
    /// redundancy screen settled never get there and are counted in
    /// [`PodemStats::screen_redundant`] and
    /// [`PodemStats::screen_testable`]). Compare with `num_aborted`,
    /// which counts the faults still unresolved after the fallback had
    /// its say.
    pub aborted_faults: u64,
    /// How the SAT fallback resolved those aborts
    /// ([`PodemStats::sat_resolved`]; all-zero with the fallback off).
    pub sat_resolved: SatResolved,
}

/// Drives PODEM over an ordered fault list with fault dropping.
///
/// A generator searches each target at most once. A target's PODEM
/// outcome and counter delta depend only on the circuit, the
/// [`PodemConfig`] and the fault (the same fact speculation relies on),
/// and the configuration is fixed at construction. So the first search
/// of a target fills the target's memo slot, and every later
/// [`run`](Self::run) or [`run_with_random_phase`](Self::run_with_random_phase)
/// of the same generator replays that outcome and adds the stored
/// delta. Results, `PodemStats` included, are bit-identical to a fresh
/// generator's; only [`PhaseTimings::generate_ns`] shrinks, and the
/// `atpg.podem` span opens only for a search. A slot is one pointer
/// until its target is searched. Running several orderings of one
/// fault list on one generator, as the paper's Section 4 does, searches
/// only the targets no earlier ordering reached.
/// [`run_reference`](Self::run_reference) keeps no memo.
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, CompiledCircuit};
/// use adi_atpg::{TestGenConfig, TestGenerator};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse(
///     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
/// let circuit = CompiledCircuit::compile(n);
/// let faults = circuit.collapsed_faults();
/// let order: Vec<_> = faults.ids().collect();
/// let result = TestGenerator::for_circuit(&circuit, faults, TestGenConfig::default())
///     .run(&order);
/// assert_eq!(result.coverage(), 1.0);
/// assert!(result.num_tests() <= faults.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TestGenerator<'a> {
    pub(crate) circuit: CompiledCircuit,
    pub(crate) faults: &'a FaultList,
    pub(crate) config: TestGenConfig,
    /// Per-fault search memo, filled by [`search`](Self::search). Boxed,
    /// so a fault never searched costs one pointer-sized slot.
    memo: Vec<OnceLock<Box<Searched>>>,
}

impl<'a> TestGenerator<'a> {
    /// Creates a driver for `faults` of `circuit`, sharing the
    /// compilation's levelized view, FFR decomposition, and SCOAP
    /// measures.
    pub fn for_circuit(
        circuit: &CompiledCircuit,
        faults: &'a FaultList,
        config: TestGenConfig,
    ) -> Self {
        TestGenerator {
            circuit: circuit.clone(),
            faults,
            config,
            memo: (0..faults.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `target`'s PODEM outcome and counter delta: searched with `podem`
    /// inside `span` the first time this generator meets the target,
    /// read from the memo every later time.
    pub(crate) fn search(
        &self,
        podem: &mut Podem,
        target: FaultId,
        span: &'static SpanSite,
    ) -> &Searched {
        self.memo[target.index()].get_or_init(|| {
            let before = podem.stats();
            let outcome = {
                let _span = span.enter();
                podem.generate(self.faults.fault(target))
            };
            Box::new((outcome, podem.stats().since(before)))
        })
    }

    /// Runs test generation targeting faults in exactly `order`.
    ///
    /// Every fault id must belong to the fault list; ids may appear at most
    /// once. Faults missing from `order` are never targeted (but may still
    /// be detected accidentally and are counted in the totals).
    ///
    /// Targets an earlier run of this generator searched are replayed
    /// from its memo, so repeated runs, in any order, search only new
    /// targets and return what a fresh generator would.
    ///
    /// # Panics
    ///
    /// Panics if `order` contains an out-of-range id or a duplicate.
    pub fn run(&self, order: &[FaultId]) -> TestGenResult {
        self.run_phase(order, &vec![false; self.faults.len()])
    }

    /// Validates `order` (in-range, duplicate-free) and marks targets.
    pub(crate) fn validate_order(&self, order: &[FaultId]) {
        let n_faults = self.faults.len();
        let mut seen = vec![false; n_faults];
        for &id in order {
            assert!(id.index() < n_faults, "fault id {id} out of range");
            assert!(!seen[id.index()], "fault id {id} duplicated in order");
            seen[id.index()] = true;
        }
    }

    /// The deterministic phase shared by [`run`](Self::run) and
    /// [`run_with_random_phase`](Self::run_with_random_phase):
    /// `predropped` faults are excluded from simulation and left
    /// unclassified (reported as [`FaultStatus::Aborted`] unless the
    /// caller overwrites them).
    ///
    /// Generated tests accumulate into a [`DropSession`] block; before
    /// each target is handed to PODEM a single per-fault cone walk
    /// checks whether a *pending* test already covers it (the batched
    /// equivalent of the reference loop's already-dropped skip), and
    /// every [`FLUSH_PENDING`] tests the block is drained through the
    /// stem-region engine. The resulting test set, classifications, and
    /// per-test detection counts are bit-identical to the reference
    /// loop's at every thread count and flush cadence.
    fn run_phase(&self, order: &[FaultId], predropped: &[bool]) -> TestGenResult {
        if self.config.atpg_threads > 1 {
            return speculate::run_speculative(self, order, predropped);
        }
        let n_faults = self.faults.len();
        assert_eq!(predropped.len(), n_faults);
        self.validate_order(order);

        let mut podem = Podem::for_circuit(&self.circuit, self.config.podem);
        let mut session = DropSession::for_circuit(&self.circuit, self.faults);

        let mut status: Vec<Option<FaultStatus>> = vec![None; n_faults];
        let mut active: Vec<FaultId> = self
            .faults
            .ids()
            .filter(|id| !predropped[id.index()])
            .collect();
        let mut tests: Vec<Pattern> = Vec::new();
        let mut targets: Vec<FaultId> = Vec::new();
        let mut new_detections: Vec<u32> = Vec::new();
        let mut timing = PhaseTimings::default();
        let mut stats = PodemStats::default();

        for &target in order {
            if status[target.index()].is_some() {
                continue; // resolved by a flushed block, or aborted/redundant
            }
            let t0 = Instant::now();
            let covered = session.covers(target);
            timing.drop_ns += t0.elapsed().as_nanos() as u64;
            if covered {
                continue; // a pending test covers it; classified at flush
            }
            let t0 = Instant::now();
            let (outcome, delta) = self.search(&mut podem, target, &SPAN_PODEM);
            timing.generate_ns += t0.elapsed().as_nanos() as u64;
            stats.accumulate(*delta);
            match outcome {
                PodemOutcome::Test(cube) => {
                    let test_index = tests.len() as u32;
                    let seed = self
                        .config
                        .fill_seed
                        .wrapping_add(u64::from(test_index));
                    let pattern = self.config.fill.fill(cube, seed);
                    let t0 = Instant::now();
                    session.push(&pattern);
                    debug_assert!(
                        session.pending_detections(target).bit(session.pending() - 1),
                        "generated test {pattern} does not detect its target {}",
                        self.faults.fault(target)
                    );
                    tests.push(pattern);
                    targets.push(target);
                    if session.pending() == FLUSH_PENDING {
                        apply_flush(
                            &mut session,
                            &targets,
                            &mut status,
                            &mut active,
                            &mut new_detections,
                            None,
                        );
                    }
                    timing.drop_ns += t0.elapsed().as_nanos() as u64;
                }
                PodemOutcome::Untestable => {
                    status[target.index()] = Some(FaultStatus::Redundant);
                    active.retain(|&id| id != target);
                }
                PodemOutcome::Aborted => {
                    status[target.index()] = Some(FaultStatus::Aborted);
                    active.retain(|&id| id != target);
                }
            }
        }
        let t0 = Instant::now();
        apply_flush(
            &mut session,
            &targets,
            &mut status,
            &mut active,
            &mut new_detections,
            None,
        );
        timing.drop_ns += t0.elapsed().as_nanos() as u64;

        TestGenResult {
            tests,
            targets,
            new_detections,
            status: finalize_status(status),
            podem_stats: stats,
            timing,
        }
    }

    /// Runs test generation with a **random-pattern warm-up phase**: the
    /// `warmup` vectors that detect at least one new fault are admitted
    /// into the test set first (dropping the faults they detect), then
    /// PODEM targets the survivors in `order`.
    ///
    /// This is the classic two-phase industrial flow. The paper argues it
    /// is *counter-productive* for compact test sets and steep coverage
    /// curves — the `ablation` harness uses this method to demonstrate
    /// that claim.
    ///
    /// The warm-up vectors appear at the front of
    /// [`TestGenResult::tests`]; their entries in
    /// [`TestGenResult::targets`] are the first fault each one detected.
    /// The deterministic phase shares the generator's memo with
    /// [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if `order` contains an out-of-range or duplicate id, or if
    /// the warm-up pattern width does not match the circuit.
    pub fn run_with_random_phase(
        &self,
        order: &[FaultId],
        warmup: &adi_sim::PatternSet,
    ) -> TestGenResult {
        let warm_start = Instant::now();
        let mut warm = Warmup::new(self.faults);
        self.admit_warmup(warmup, &mut warm);
        let warm_ns = warm_start.elapsed().as_nanos() as u64;
        let tail = self.run_phase(&warm.remaining(order), &warm.dropped);
        warm.stitch(tail, warm_ns)
    }

    /// The warm-up admission loop. Detection of a fault by a vector is
    /// independent of what was dropped before, so whole wide blocks are
    /// simulated at once and the admission bookkeeping is replayed lane
    /// by lane — bit-identical to the reference loop's per-vector
    /// admission.
    fn admit_warmup(&self, warmup: &adi_sim::PatternSet, warm: &mut Warmup) {
        let mut session = DropSession::for_circuit(&self.circuit, self.faults);
        let mut p = 0;
        while p < warmup.len() {
            let base = p;
            while p < warmup.len() && !session.is_full() {
                session.push(&warmup.get(p));
                p += 1;
            }
            let lists = session.flush(&warm.active);
            for (off, detected) in lists.iter().enumerate() {
                warm.admit(warmup.get(base + off), detected);
            }
            warm.prune();
        }
    }

    /// The reference for both [`run`](Self::run) (pass an empty
    /// `warmup`) and [`run_with_random_phase`](Self::run_with_random_phase):
    /// the scalar drop loop, one
    /// [`PatternSim::detect`](adi_sim::reference::PatternSim::detect) call
    /// (a cone walk per active fault) per warm-up vector and per
    /// generated test, with every target searched by
    /// [`Podem::generate_reference`]. `atpg_threads` and
    /// `speculation_depth` are ignored, and every call searches every
    /// target afresh: the oracle neither reads nor fills the memo.
    ///
    /// Tests, targets, per-test detection counts, classifications and
    /// the PODEM [`search_counters`](PodemStats::search_counters) and
    /// SAT resolutions are bit-identical to the production loops'; the
    /// simulation diagnostics (`sim_events`, `sim_updates`) describe the
    /// full-resim search and differ. The differential oracle of the
    /// equivalence suites, not a production path.
    ///
    /// # Panics
    ///
    /// As [`run_with_random_phase`](Self::run_with_random_phase).
    pub fn run_reference(&self, order: &[FaultId], warmup: &adi_sim::PatternSet) -> TestGenResult {
        let warm_start = Instant::now();
        let mut warm = Warmup::new(self.faults);
        let mut sim = PatternSim::for_circuit(&self.circuit, self.faults);
        for p in 0..warmup.len() {
            let pattern = warmup.get(p);
            let detected = sim.detect(&pattern, &warm.active);
            warm.admit(pattern, &detected);
            warm.prune();
        }
        let warm_ns = warm_start.elapsed().as_nanos() as u64;
        let tail = self.run_phase_reference(&warm.remaining(order), &warm.dropped);
        warm.stitch(tail, warm_ns)
    }

    /// The reference loop's deterministic phase: one `PatternSim::detect`
    /// call (a cone walk per active fault) per generated test.
    fn run_phase_reference(&self, order: &[FaultId], predropped: &[bool]) -> TestGenResult {
        let n_faults = self.faults.len();
        assert_eq!(predropped.len(), n_faults);
        self.validate_order(order);

        let mut podem = Podem::for_circuit(&self.circuit, self.config.podem);
        let mut sim = PatternSim::for_circuit(&self.circuit, self.faults);

        // `status[f]` is None while f is undetected and unresolved.
        let mut status: Vec<Option<FaultStatus>> = vec![None; n_faults];
        let mut active: Vec<FaultId> = self
            .faults
            .ids()
            .filter(|id| !predropped[id.index()])
            .collect();
        let mut tests: Vec<Pattern> = Vec::new();
        let mut targets: Vec<FaultId> = Vec::new();
        let mut new_detections: Vec<u32> = Vec::new();
        let mut timing = PhaseTimings::default();

        for &target in order {
            if status[target.index()].is_some() {
                continue; // already detected or resolved
            }
            let fault = self.faults.fault(target);
            let t0 = Instant::now();
            let outcome = podem.generate_reference(fault);
            timing.generate_ns += t0.elapsed().as_nanos() as u64;
            match outcome {
                PodemOutcome::Test(cube) => {
                    let test_index = tests.len() as u32;
                    let seed = self.config.fill_seed.wrapping_add(u64::from(test_index));
                    let pattern = self.config.fill.fill(&cube, seed);
                    let t0 = Instant::now();
                    let detected = sim.detect(&pattern, &active);
                    timing.drop_ns += t0.elapsed().as_nanos() as u64;
                    debug_assert!(
                        detected.contains(&target),
                        "generated test {pattern} does not detect its target {fault}"
                    );
                    for &d in &detected {
                        status[d.index()] = Some(if d == target {
                            FaultStatus::DetectedAsTarget { test: test_index }
                        } else {
                            FaultStatus::DetectedAccidentally { test: test_index }
                        });
                    }
                    active.retain(|id| status[id.index()].is_none());
                    new_detections.push(detected.len() as u32);
                    tests.push(pattern);
                    targets.push(target);
                }
                PodemOutcome::Untestable => {
                    status[target.index()] = Some(FaultStatus::Redundant);
                    active.retain(|&id| id != target);
                }
                PodemOutcome::Aborted => {
                    status[target.index()] = Some(FaultStatus::Aborted);
                    active.retain(|&id| id != target);
                }
            }
        }

        TestGenResult {
            tests,
            targets,
            new_detections,
            status: finalize_status(status),
            podem_stats: podem.stats(),
            timing,
        }
    }
}

/// The warm-up admission phase's bookkeeping: the faults still active,
/// and the admitted vectors with the faults each one dropped.
struct Warmup {
    active: Vec<FaultId>,
    dropped: Vec<bool>,
    tests: Vec<Pattern>,
    targets: Vec<FaultId>,
    news: Vec<u32>,
    status: Vec<(FaultId, u32)>,
}

impl Warmup {
    fn new(faults: &FaultList) -> Self {
        Warmup {
            active: faults.ids().collect(),
            dropped: vec![false; faults.len()],
            tests: Vec::new(),
            targets: Vec::new(),
            news: Vec::new(),
            status: Vec::new(),
        }
    }

    /// Admits `pattern` if it detects at least one still-active fault
    /// (`detected`, in fault order); the first one stands as its target.
    fn admit(&mut self, pattern: Pattern, detected: &[FaultId]) {
        let Some(&first) = detected.first() else {
            return;
        };
        let test_index = self.tests.len() as u32;
        for &d in detected {
            self.dropped[d.index()] = true;
            self.status.push((d, test_index));
        }
        self.targets.push(first);
        self.news.push(detected.len() as u32);
        self.tests.push(pattern);
    }

    /// Removes the dropped faults from the active list.
    fn prune(&mut self) {
        let dropped = &self.dropped;
        self.active.retain(|id| !dropped[id.index()]);
    }

    /// The targets of `order` the warm-up left for deterministic ATPG.
    fn remaining(&self, order: &[FaultId]) -> Vec<FaultId> {
        order
            .iter()
            .copied()
            .filter(|id| !self.dropped[id.index()])
            .collect()
    }

    /// Puts the admitted vectors in front of the deterministic phase's
    /// `tail`, offsetting the tail's test ids. The warm-up's `warm_ns`
    /// is all fault simulation, so it is booked under the drop phase.
    fn stitch(self, tail: TestGenResult, warm_ns: u64) -> TestGenResult {
        let offset = self.tests.len() as u32;
        let mut status: Vec<FaultStatus> = tail
            .status
            .iter()
            .map(|s| match *s {
                FaultStatus::DetectedAsTarget { test } => {
                    FaultStatus::DetectedAsTarget { test: test + offset }
                }
                FaultStatus::DetectedAccidentally { test } => {
                    FaultStatus::DetectedAccidentally { test: test + offset }
                }
                other => other,
            })
            .collect();
        for (id, test) in self.status {
            status[id.index()] = FaultStatus::DetectedAccidentally { test };
        }
        let mut timing = PhaseTimings {
            drop_ns: warm_ns,
            ..PhaseTimings::default()
        };
        timing.absorb(tail.timing);

        let mut tests = self.tests;
        tests.extend(tail.tests);
        let mut targets = self.targets;
        targets.extend(tail.targets);
        let mut new_detections = self.news;
        new_detections.extend(tail.new_detections);

        TestGenResult {
            tests,
            targets,
            new_detections,
            status,
            podem_stats: tail.podem_stats,
            timing,
        }
    }
}

/// Resolves still-`None` statuses: untargeted, never-detected faults
/// were deliberately excluded from `order`; treat them as aborted so
/// totals stay consistent without inventing detections.
pub(crate) fn finalize_status(status: Vec<Option<FaultStatus>>) -> Vec<FaultStatus> {
    status
        .into_iter()
        .map(|s| s.unwrap_or(FaultStatus::Aborted))
        .collect()
}

/// Pending tests at which the drop loops flush their [`DropSession`],
/// well below its capacity of 256. A flushed test settles every
/// fault it detects, so later targets skip the pending-cover cone walk
/// that a still-pending test costs them; results are the same at any
/// cadence.
pub(crate) const FLUSH_PENDING: usize = 32;

/// Drains `session` and replays the drop bookkeeping for the flushed
/// lanes: lane `j` of the block is test `new_detections.len() + j`, its
/// detected faults are classified against that test (as-target for the
/// lane's own target, accidental otherwise), and `active` is pruned —
/// exactly the per-test bookkeeping the reference loop performs inline.
///
/// `resolved` is the speculative loop's shared pruning hints: every
/// fault classified here is flagged so in-flight workers stop targeting
/// it. Hints are advisory (the committer re-checks `status` at commit
/// time), so the sequential loops pass `None`.
pub(crate) fn apply_flush(
    session: &mut DropSession<'_>,
    targets: &[FaultId],
    status: &mut [Option<FaultStatus>],
    active: &mut Vec<FaultId>,
    new_detections: &mut Vec<u32>,
    resolved: Option<&[std::sync::atomic::AtomicBool]>,
) {
    let lists = session.flush(active);
    if lists.is_empty() {
        return;
    }
    let base = new_detections.len();
    for (lane, detected) in lists.iter().enumerate() {
        let test_index = (base + lane) as u32;
        let target = targets[base + lane];
        for &d in detected {
            status[d.index()] = Some(if d == target {
                FaultStatus::DetectedAsTarget { test: test_index }
            } else {
                FaultStatus::DetectedAccidentally { test: test_index }
            });
            if let Some(hints) = resolved {
                hints[d.index()].store(true, std::sync::atomic::Ordering::Relaxed);
            }
        }
        new_detections.push(detected.len() as u32);
    }
    active.retain(|id| status[id.index()].is_none());
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::{bench_format, Netlist};
    use adi_sim::{FaultSimulator, PatternSet};

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

    fn c17() -> Netlist {
        bench_format::parse(C17, "c17").unwrap()
    }

    fn compile(netlist: &Netlist) -> CompiledCircuit {
        CompiledCircuit::compile(netlist.clone())
    }

    #[test]
    fn c17_reaches_full_coverage() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let result = TestGenerator::for_circuit(&compile(&n), &faults, TestGenConfig::default()).run(&order);
        assert_eq!(result.num_detected(), faults.len());
        assert_eq!(result.num_redundant(), 0);
        assert_eq!(result.num_aborted(), 0);
        assert!((result.efficiency() - 1.0).abs() < 1e-12);
        // c17 needs at least 4 tests; a reasonable ATPG finds <= ~10.
        assert!(result.num_tests() >= 4 && result.num_tests() <= faults.len());
    }

    #[test]
    fn every_test_detects_its_target() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let result = TestGenerator::for_circuit(&compile(&n), &faults, TestGenConfig::default()).run(&order);
        let mut sim = PatternSim::for_circuit(&compile(&n), &faults);
        for (i, (test, &target)) in result.tests.iter().zip(&result.targets).enumerate() {
            assert!(
                sim.detect(test, &[target]) == [target],
                "test {i} misses its target"
            );
        }
    }

    #[test]
    fn detections_partition_and_curve_matches() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let result = TestGenerator::for_circuit(&compile(&n), &faults, TestGenConfig::default()).run(&order);
        let total: u32 = result.new_detections.iter().sum();
        assert_eq!(total as usize, result.num_detected());
        let curve = result.coverage_curve();
        assert_eq!(curve.final_detected(), result.num_detected());
        assert_eq!(curve.num_tests(), result.num_tests());
    }

    #[test]
    fn order_affects_test_count_but_not_coverage() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let fwd: Vec<FaultId> = faults.ids().collect();
        let rev: Vec<FaultId> = fwd.iter().rev().copied().collect();
        let cfg = TestGenConfig::default();
        let r1 = TestGenerator::for_circuit(&compile(&n), &faults, cfg).run(&fwd);
        let r2 = TestGenerator::for_circuit(&compile(&n), &faults, cfg).run(&rev);
        assert_eq!(r1.num_detected(), r2.num_detected());
        // Both orders fully cover c17 (sanity; counts may differ).
        assert_eq!(r1.num_detected(), faults.len());
    }

    #[test]
    fn redundant_faults_are_reported() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nt = AND(a, na)\ny = OR(b, t)\n";
        let n = bench_format::parse(src, "red").unwrap();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let result = TestGenerator::for_circuit(&compile(&n), &faults, TestGenConfig::default()).run(&order);
        assert!(result.num_redundant() > 0, "t s-a-0 must be redundant");
        assert_eq!(result.num_aborted(), 0);
        // All non-redundant faults are detected.
        assert_eq!(
            result.num_detected() + result.num_redundant(),
            faults.len()
        );
    }

    #[test]
    fn generated_tests_agree_with_batch_fault_simulation() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let result = TestGenerator::for_circuit(&compile(&n), &faults, TestGenConfig::default()).run(&order);
        // Re-simulate the full test set with dropping: the coverage curve
        // must match the driver's bookkeeping.
        let set = PatternSet::from_patterns(n.num_inputs(), result.tests.iter());
        let sim = FaultSimulator::for_circuit(&compile(&n), &faults);
        let drop = sim.with_dropping(&set);
        let resim = CoverageCurve::from_first_detection(
            &drop.first_detection,
            set.len(),
            faults.len(),
        );
        let own = result.coverage_curve();
        for i in 0..=set.len() {
            assert_eq!(own.cumulative(i), resim.cumulative(i), "test {i}");
        }
    }

    #[test]
    fn partial_order_targets_only_listed_faults() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().take(3).collect();
        let result = TestGenerator::for_circuit(&compile(&n), &faults, TestGenConfig::default()).run(&order);
        assert!(result.num_tests() <= 3);
        for (i, &t) in result.targets.iter().enumerate() {
            assert!(order.contains(&t), "test {i} targeted unlisted fault");
        }
    }

    #[test]
    #[should_panic(expected = "duplicated")]
    fn duplicate_order_entries_panic() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let id = faults.ids().next().unwrap();
        let _ = TestGenerator::for_circuit(&compile(&n), &faults, TestGenConfig::default()).run(&[id, id]);
    }

    #[test]
    fn deterministic_given_same_config() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let cfg = TestGenConfig::default();
        let r1 = TestGenerator::for_circuit(&compile(&n), &faults, cfg).run(&order);
        let r2 = TestGenerator::for_circuit(&compile(&n), &faults, cfg).run(&order);
        assert_eq!(r1.tests, r2.tests);
        assert_eq!(r1.new_detections, r2.new_detections);
    }

    #[test]
    fn random_phase_bookkeeping_is_consistent() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let warmup = PatternSet::random(5, 16, 2);
        let gen = TestGenerator::for_circuit(&compile(&n), &faults, TestGenConfig::default());
        let result = gen.run_with_random_phase(&order, &warmup);
        assert_eq!(result.num_detected(), faults.len());
        let total: u32 = result.new_detections.iter().sum();
        assert_eq!(total as usize, result.num_detected());
        assert_eq!(result.tests.len(), result.targets.len());
        assert_eq!(result.tests.len(), result.new_detections.len());
        // Re-simulating the stitched test set reproduces the curve.
        let set = PatternSet::from_patterns(n.num_inputs(), result.tests.iter());
        let sim = FaultSimulator::for_circuit(&compile(&n), &faults);
        let drop = sim.with_dropping(&set);
        let resim = CoverageCurve::from_first_detection(
            &drop.first_detection,
            set.len(),
            faults.len(),
        );
        let own = result.coverage_curve();
        for i in 0..=set.len() {
            assert_eq!(own.cumulative(i), resim.cumulative(i), "test {i}");
        }
    }

    #[test]
    fn random_phase_with_empty_warmup_equals_plain_run() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let gen = TestGenerator::for_circuit(&compile(&n), &faults, TestGenConfig::default());
        let plain = gen.run(&order);
        let phased = gen.run_with_random_phase(&order, &PatternSet::new(5));
        assert_eq!(plain.tests, phased.tests);
        assert_eq!(plain.new_detections, phased.new_detections);
    }

    #[test]
    fn random_phase_usually_needs_more_tests() {
        // The paper's argument: admitting random vectors first inflates
        // the test set relative to pure deterministic generation. On a
        // circuit as small as c17 the effect is noisy per seed, so
        // assert it as the statistic it is: over a spread of warmup
        // seeds, the phased run matches or exceeds the plain test count
        // in a clear majority of cases.
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let gen = TestGenerator::for_circuit(&compile(&n), &faults, TestGenConfig::default());
        let plain = gen.run(&order).num_tests();
        let seeds = 20u64;
        let at_least_as_many = (0..seeds)
            .filter(|&seed| {
                let warmup = PatternSet::random(5, 32, seed);
                gen.run_with_random_phase(&order, &warmup).num_tests() >= plain
            })
            .count();
        assert!(
            at_least_as_many >= seeds as usize * 2 / 3,
            "random phase inflated the test set in only {at_least_as_many}/{seeds} runs"
        );
    }

    /// `r` with the simulation diagnostics zeroed: the reference loop's
    /// full-resim search does different simulation work for the same
    /// outputs and search counters.
    fn outputs(r: TestGenResult) -> TestGenResult {
        TestGenResult {
            podem_stats: PodemStats {
                sim_events: 0,
                sim_updates: 0,
                ..r.podem_stats
            },
            ..r
        }
    }

    #[test]
    fn batched_and_scalar_drop_loops_are_bit_identical() {
        let n = c17();
        let circuit = compile(&n);
        let faults = FaultList::collapsed(&n);
        let fwd: Vec<FaultId> = faults.ids().collect();
        let rev: Vec<FaultId> = fwd.iter().rev().copied().collect();
        let gen = TestGenerator::for_circuit(&circuit, &faults, TestGenConfig::default());
        for order in [&fwd, &rev] {
            let batched = gen.run(order);
            let scalar = gen.run_reference(order, &PatternSet::new(5));
            assert_eq!(outputs(batched), outputs(scalar));
        }
    }

    /// With one simulation word left, the width axis is where the
    /// 256-lane word boundary falls: a warm-up of 256 copies of one
    /// vector and then random ones admits all but its first test from
    /// the second word. Every ATPG thread count, with and without that
    /// warm-up, must reproduce the scalar reference loop.
    #[test]
    fn batched_loop_is_width_and_thread_invariant() {
        let n = c17();
        let circuit = compile(&n);
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let mut boundary = PatternSet::new(5);
        for _ in 0..256 {
            boundary.push(&Pattern::from_value(5, 0));
        }
        for p in PatternSet::random(5, 44, 3).iter() {
            boundary.push(&p);
        }
        let reference = TestGenerator::for_circuit(&circuit, &faults, TestGenConfig::default());
        let plain = outputs(reference.run_reference(&order, &PatternSet::new(5)));
        let warmed = outputs(reference.run_reference(&order, &boundary));
        let first_word = reference.run_reference(&order, &boundary.truncated(256));
        assert_ne!(
            warmed.tests, first_word.tests,
            "the second word admits tests"
        );
        for atpg_threads in [1usize, 2, 4] {
            let gen = TestGenerator::for_circuit(
                &circuit,
                &faults,
                TestGenConfig {
                    atpg_threads,
                    ..TestGenConfig::default()
                },
            );
            assert_eq!(outputs(gen.run(&order)), plain, "threads {atpg_threads}");
            assert_eq!(
                outputs(gen.run_with_random_phase(&order, &boundary)),
                warmed,
                "threads {atpg_threads}, warm-up across the word boundary"
            );
        }
    }

    #[test]
    fn batched_and_scalar_random_phase_are_bit_identical() {
        let n = c17();
        let circuit = compile(&n);
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let gen = TestGenerator::for_circuit(&circuit, &faults, TestGenConfig::default());
        for seed in [0u64, 7, 19] {
            let warmup = PatternSet::random(5, 100, seed);
            let batched = gen.run_with_random_phase(&order, &warmup);
            let scalar = gen.run_reference(&order, &warmup);
            assert_eq!(outputs(batched), outputs(scalar), "seed {seed}");
        }
    }

    #[test]
    fn fill_strategy_changes_results_reproducibly() {
        let n = c17();
        let faults = FaultList::collapsed(&n);
        let order: Vec<FaultId> = faults.ids().collect();
        let zeros = TestGenConfig {
            fill: FillStrategy::Zeros,
            ..TestGenConfig::default()
        };
        let r1 = TestGenerator::for_circuit(&compile(&n), &faults, zeros).run(&order);
        let r2 = TestGenerator::for_circuit(&compile(&n), &faults, zeros).run(&order);
        assert_eq!(r1.tests, r2.tests);
        // Coverage still complete with any fill.
        assert_eq!(r1.num_detected(), faults.len());
    }
}
