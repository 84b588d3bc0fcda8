//! Speculative multi-target ATPG with a deterministic first-win commit.
//!
//! `run_speculative` is the batched drop loop of
//! [`TestGenerator`] with the PODEM calls hoisted
//! onto a worker pool: `atpg_threads - 1` workers race ahead of the
//! commit position, each running PODEM on upcoming targets of the ADI
//! order with its **own** [`Podem`] (and event engine) over the shared
//! compiled circuit, while the calling thread replays the sequential
//! loop's bookkeeping — drop-session pushes, flushes, classifications —
//! strictly in ordering position.
//!
//! # The first-win commit rule
//!
//! A speculated result for ordering position `p` is **consumed only if
//! its target is still live when the committer reaches `p`**: not yet
//! classified (`status` is `None`) and not covered by a test pending in
//! the drop session. Otherwise the committer skips the position exactly
//! as the sequential loop would have, and the speculated result — if a
//! worker produced one — is discarded and counted in
//! [`PodemStats::wasted_speculations`].
//!
//! # Why the output is bit-identical to the sequential loop
//!
//! The parallel loop produces the same tests, classifications, coverage
//! curve, and deterministic PODEM counters as
//! `TestGenConfig { atpg_threads: 1, .. }` for every seed, thread
//! count and speculation depth, because each of the three inputs to every commit
//! decision is history-independent or committer-owned:
//!
//! 1. **Per-target PODEM purity.** `Podem::generate` starts from the
//!    all-X quiescent baseline and the event engine fully retracts its
//!    trail when a target ends, so a target's outcome *and its stats
//!    delta* are pure functions of `(circuit, fault, config)` — which
//!    worker runs it, and after whatever target history, cannot matter.
//!    (The one cross-target cache, the X-path witness, only short-cuts
//!    a walk whose boolean answer is unchanged and whose cost is not a
//!    `PodemStats` counter.) The same purity lets workers and the
//!    committer read a target from the generator's memo instead of
//!    searching it again.
//! 2. **Committer-owned skip state.** Both skip checks — `status` and
//!    the drop session's pending-cover word — read state mutated only
//!    by the committer itself, in commit order. Workers never touch it.
//! 3. **Commit-time fill.** Random fill is seeded by the *committed*
//!    test index (`fill_seed + test_index`), so cubes are filled at
//!    commit, never at speculation.
//!
//! The shared `resolved` flags are pruning **hints only** (a worker
//! skips generating for a fault the committer has already classified);
//! the committer re-checks its own state before consuming anything, so
//! a stale or missing hint affects wall clock and the waste counter,
//! never the output. `wasted_speculations`, the per-phase wall-clock
//! timings, and nothing else depend on thread timing; both are excluded
//! from [`TestGenResult`] equality.
//!
//! # The adaptive claim window
//!
//! `TestGenConfig::speculation_depth` is a **cap**, not a fixed window:
//! the committer tracks whether recent positions consumed their
//! speculation or skipped past a claimed one, and resizes the live
//! claim window within `[1, speculation_depth]` — halving it after a
//! streak of wasted claims (dense accidental detection: tests keep
//! covering upcoming targets first), growing it back multiplicatively
//! after a streak of consumed ones (starved workers). The window is
//! advisory in exactly the sense the `resolved` hints are: it bounds
//! *what workers claim next*, never what the committer does with a
//! settled slot, so any window trajectory — including a different one
//! on every run — leaves the committed output bit-identical. The
//! equivalence lattice in `tests/parallel_atpg_equivalence.rs` pins
//! this across depth caps on both sides of the adaptation range.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use adi_netlist::fault::FaultId;
use adi_sim::DropSession;

use crate::testgen::{
    apply_flush, finalize_status, PhaseTimings, Searched, TestGenResult, TestGenerator,
    FLUSH_PENDING, SPAN_PODEM,
};
use crate::{FaultStatus, Podem, PodemOutcome, PodemStats};

/// Per-target span of a worker's search.
static SPAN_SPECULATE: adi_obs::SpanSite = adi_obs::SpanSite::new("atpg.speculate_podem");

/// One ordering position's speculation slot.
enum Slot<'g> {
    /// Not yet produced (unclaimed, or a worker is running it).
    Pending,
    /// A worker has the target's outcome and stats delta, searched or
    /// read from the generator's memo.
    Ready(&'g Searched),
    /// A worker saw the target's resolved hint and skipped it.
    Skipped,
    /// The committer took the result.
    Consumed,
    /// The worker searching this position panicked.
    Failed,
}

/// Mutex-guarded scheduler state shared by the committer and workers.
struct SpecState<'g> {
    /// Next unclaimed ordering position.
    next_claim: usize,
    /// The position the committer is currently at; claims are limited
    /// to `commit_pos + depth` (the speculation window).
    commit_pos: usize,
    /// Per-position speculation slots.
    slots: Vec<Slot<'g>>,
    /// Shutdown flag: set once the commit loop has returned or unwound,
    /// or when a worker panics (the run is then lost, and no pending
    /// slot is sure to settle).
    stop: bool,
}

struct Shared<'g> {
    state: Mutex<SpecState<'g>>,
    /// Signaled when the claim window may have opened (commit advance,
    /// shutdown).
    work: Condvar,
    /// Signaled when a slot transitions out of `Pending`.
    done: Condvar,
}

impl<'g> Shared<'g> {
    /// Locks the scheduler state, also after a panic elsewhere poisoned
    /// the lock: the shutdown paths below must still get through.
    fn lock(&self) -> MutexGuard<'_, SpecState<'g>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sets `stop` and wakes every waiter on both condvars.
    fn shut_down(&self) {
        self.lock().stop = true;
        self.work.notify_all();
        self.done.notify_all();
    }
}

/// Shuts the scheduler down when the commit loop returns *or unwinds*,
/// so workers parked on `work` wake and `thread::scope` can join them
/// (a committer panic then propagates instead of hanging the run).
struct StopOnDrop<'s, 'g>(&'s Shared<'g>);

impl Drop for StopOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.shut_down();
    }
}

/// Marks the worker's claimed slot `Failed` and shuts the scheduler
/// down if the worker unwinds while searching it, so a committer
/// waiting on any slot stops waiting and re-panics.
struct FailOnUnwind<'s, 'g> {
    shared: &'s Shared<'g>,
    pos: usize,
}

impl Drop for FailOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.lock().slots[self.pos] = Slot::Failed;
            self.shared.shut_down();
        }
    }
}

/// The speculative batched run (see the [module docs](self) for the
/// commit rule and the determinism argument). Called by
/// `TestGenerator::run_phase` when
/// `TestGenConfig::atpg_threads > 1`.
pub(crate) fn run_speculative(
    g: &TestGenerator<'_>,
    order: &[FaultId],
    predropped: &[bool],
) -> TestGenResult {
    let n_faults = g.faults.len();
    assert_eq!(predropped.len(), n_faults);
    g.validate_order(order);

    let workers = (g.config.atpg_threads - 1).max(1);
    let depth = g.config.speculation_depth.max(1);
    // Live claim window, committer-adjusted within `[1, depth]`
    // (see the module docs). Advisory: workers read it when claiming.
    let window = AtomicUsize::new(depth);

    let shared = Shared {
        state: Mutex::new(SpecState {
            next_claim: 0,
            commit_pos: 0,
            slots: order.iter().map(|_| Slot::Pending).collect(),
            stop: false,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    };
    let resolved: Vec<AtomicBool> = (0..n_faults).map(|_| AtomicBool::new(false)).collect();
    // Total speculative generates and their summed wall clock, wasted
    // ones included (the committer's rare fallback generates also land
    // here so `generate_ns` covers every PODEM call of the run).
    let speculated = AtomicU64::new(0);
    let generate_ns = AtomicU64::new(0);

    let mut committed = None;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(g, order, &shared, &resolved, &speculated, &generate_ns, &window));
        }
        let _stop = StopOnDrop(&shared);
        committed = Some(commit_loop(
            g, order, predropped, &shared, &resolved, &generate_ns, &window, depth,
        ));
    });
    // All workers have joined: the speculation counters are final.
    let (tests, targets, new_detections, status, mut stats, mut timing, consumed) =
        committed.expect("commit loop ran");
    stats.wasted_speculations = speculated.load(Ordering::Relaxed) - consumed;
    timing.generate_ns = generate_ns.load(Ordering::Relaxed);
    if adi_obs::is_enabled() {
        let r = adi_obs::registry();
        r.counter("adi_speculation_claimed_total").add(speculated.load(Ordering::Relaxed));
        r.counter("adi_speculation_committed_total").add(consumed);
        r.counter("adi_speculation_wasted_total").add(stats.wasted_speculations);
    }

    TestGenResult {
        tests,
        targets,
        new_detections,
        status: finalize_status(status),
        podem_stats: stats,
        timing,
    }
}

/// A speculation worker: claim the next ordering position inside the
/// window, get its target's outcome from [`TestGenerator::search`]
/// (unless its resolved hint is set), publish the slot, repeat until
/// shutdown.
fn worker_loop<'g>(
    g: &'g TestGenerator<'_>,
    order: &[FaultId],
    shared: &Shared<'g>,
    resolved: &[AtomicBool],
    speculated: &AtomicU64,
    generate_ns: &AtomicU64,
    window: &AtomicUsize,
) {
    let mut podem = Podem::for_circuit(&g.circuit, g.config.podem);
    loop {
        let pos = {
            let mut s = shared.state.lock().expect("scheduler lock poisoned");
            loop {
                if s.stop {
                    return;
                }
                let w = window.load(Ordering::Relaxed).max(1);
                if s.next_claim < order.len() && s.next_claim < s.commit_pos.saturating_add(w) {
                    break;
                }
                s = shared.work.wait(s).expect("scheduler lock poisoned");
            }
            let p = s.next_claim;
            s.next_claim += 1;
            p
        };
        let target = order[pos];
        if resolved[target.index()].load(Ordering::Relaxed) {
            // The committer already classified this fault; the slot can
            // never be consumed (status never reverts to unclassified).
            shared.state.lock().expect("scheduler lock poisoned").slots[pos] = Slot::Skipped;
            shared.done.notify_all();
            continue;
        }
        let t0 = Instant::now();
        let searched = {
            let _fail = FailOnUnwind { shared, pos };
            #[cfg(test)]
            tests::injected_panic(g, "worker");
            g.search(&mut podem, target, &SPAN_SPECULATE)
        };
        generate_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        speculated.fetch_add(1, Ordering::Relaxed);
        shared.state.lock().expect("scheduler lock poisoned").slots[pos] = Slot::Ready(searched);
        shared.done.notify_all();
    }
}

/// Everything the commit loop hands back to `run_speculative`: the
/// result fields under construction plus the consumed-speculation count.
type Committed = (
    Vec<adi_sim::Pattern>,
    Vec<FaultId>,
    Vec<u32>,
    Vec<Option<FaultStatus>>,
    PodemStats,
    PhaseTimings,
    u64,
);

/// One committer-side adjustment of the adaptive claim window (see the
/// module docs). `useful` means the position consumed its speculation;
/// `!useful` means the committer skipped past a claimed one. Streaks of
/// waste halve the window, streaks of consumption regrow it toward the
/// `cap`. Advisory only: this changes what workers claim, never what
/// the committer commits.
fn adapt_window(window: &AtomicUsize, cap: usize, streak: &mut i64, useful: bool) {
    if useful {
        *streak = (*streak).max(0) + 1;
        if *streak >= 4 {
            *streak = 0;
            let w = window.load(Ordering::Relaxed);
            if w < cap {
                window.store((w + (w / 2).max(1)).min(cap), Ordering::Relaxed);
            }
        }
    } else {
        *streak = (*streak).min(0) - 1;
        if *streak <= -2 {
            *streak = 0;
            let w = window.load(Ordering::Relaxed);
            if w > 1 {
                window.store(w / 2, Ordering::Relaxed);
            }
        }
    }
}

/// The committer: replays the sequential batched loop in ordering
/// position, consuming speculated outcomes under the first-win rule.
#[allow(clippy::too_many_arguments)]
fn commit_loop<'g>(
    g: &'g TestGenerator<'_>,
    order: &[FaultId],
    predropped: &[bool],
    shared: &Shared<'g>,
    resolved: &[AtomicBool],
    generate_ns: &AtomicU64,
    window: &AtomicUsize,
    depth: usize,
) -> Committed {
    let n_faults = g.faults.len();
    let mut session = DropSession::for_circuit(&g.circuit, g.faults);
    let mut status: Vec<Option<FaultStatus>> = vec![None; n_faults];
    let mut active: Vec<FaultId> = g
        .faults
        .ids()
        .filter(|id| !predropped[id.index()])
        .collect();
    let mut tests: Vec<adi_sim::Pattern> = Vec::new();
    let mut targets: Vec<FaultId> = Vec::new();
    let mut new_detections: Vec<u32> = Vec::new();
    let mut timing = PhaseTimings::default();
    let mut stats = PodemStats::default();
    let mut consumed: u64 = 0;
    // Fallback generator for the defensive Skipped-slot path below;
    // never built in a correct run.
    let mut fallback: Option<Podem> = None;
    // Adaptive-window streak (see `adapt_window`).
    let mut streak: i64 = 0;

    for (pos, &target) in order.iter().enumerate() {
        // Advance the window and note whether this position was already
        // claimed by a worker — if the committer then skips it, that
        // claim was wasted and the adaptive window should hear about it.
        let claimed = {
            let mut s = shared.state.lock().expect("scheduler lock poisoned");
            s.commit_pos = pos;
            pos < s.next_claim && !matches!(s.slots[pos], Slot::Skipped)
        };
        shared.work.notify_all();

        if status[target.index()].is_some() {
            // Classified by an earlier flush (or as redundant/aborted);
            // make sure in-flight workers see it.
            resolved[target.index()].store(true, Ordering::Relaxed);
            if claimed {
                adapt_window(window, depth, &mut streak, false);
            }
            continue;
        }
        let t0 = Instant::now();
        let covered = session.covers(target);
        timing.drop_ns += t0.elapsed().as_nanos() as u64;
        if covered {
            // A pending test covers it: the flush that drains the block
            // is guaranteed to classify it, so the hint is safe to set
            // now.
            resolved[target.index()].store(true, Ordering::Relaxed);
            if claimed {
                adapt_window(window, depth, &mut streak, false);
            }
            continue;
        }

        #[cfg(test)]
        tests::injected_panic(g, "committer");
        // First win: the target is live at commit time, so this
        // position's speculation is the one that counts.
        let wait0 = Instant::now();
        let slot = {
            let mut s = shared.state.lock().expect("scheduler lock poisoned");
            loop {
                match std::mem::replace(&mut s.slots[pos], Slot::Consumed) {
                    // `stop` is only set this early by a failed worker.
                    Slot::Pending if !s.stop => {
                        s.slots[pos] = Slot::Pending;
                        s = shared.done.wait(s).expect("scheduler lock poisoned");
                    }
                    other => break other,
                }
            }
        };
        timing.commit_wait_ns += wait0.elapsed().as_nanos() as u64;
        let (outcome, delta) = match slot {
            Slot::Ready(searched) => {
                consumed += 1;
                adapt_window(window, depth, &mut streak, true);
                searched
            }
            Slot::Pending | Slot::Failed => {
                panic!("a speculation worker panicked; the run cannot commit position {pos}")
            }
            Slot::Skipped | Slot::Consumed => {
                // Defensively unreachable: a worker only skips on a
                // resolved hint, hints are only set for classified or
                // pending-covered faults, and neither state reverts.
                // Generating here (in commit order) preserves the
                // deterministic output even if a hint were ever wrong.
                debug_assert!(false, "speculation slot skipped for a live target");
                let podem = fallback
                    .get_or_insert_with(|| Podem::for_circuit(&g.circuit, g.config.podem));
                let t0 = Instant::now();
                let searched = g.search(podem, target, &SPAN_PODEM);
                generate_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                searched
            }
        };
        stats.accumulate(*delta);

        match outcome {
            PodemOutcome::Test(cube) => {
                let test_index = tests.len() as u32;
                let seed = g.config.fill_seed.wrapping_add(u64::from(test_index));
                let pattern = g.config.fill.fill(cube, seed);
                let t0 = Instant::now();
                session.push(&pattern);
                debug_assert!(
                    session.pending_detections(target).bit(session.pending() - 1),
                    "speculated test {pattern} does not detect its target"
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
                        Some(resolved),
                    );
                }
                timing.drop_ns += t0.elapsed().as_nanos() as u64;
            }
            PodemOutcome::Untestable => {
                status[target.index()] = Some(FaultStatus::Redundant);
                resolved[target.index()].store(true, Ordering::Relaxed);
                active.retain(|&id| id != target);
            }
            PodemOutcome::Aborted => {
                status[target.index()] = Some(FaultStatus::Aborted);
                resolved[target.index()].store(true, Ordering::Relaxed);
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
        Some(resolved),
    );
    timing.drop_ns += t0.elapsed().as_nanos() as u64;

    (tests, targets, new_detections, status, stats, timing, consumed)
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    use adi_netlist::fault::FaultList;
    use adi_netlist::{bench_format, CompiledCircuit};
    use adi_sim::PatternSet;

    use crate::{TestGenConfig, TestGenerator};

    /// Test-only fault injection: panics on `side` (`"worker"` or
    /// `"committer"`) when the run's circuit is named `panic_in_<side>`.
    /// Only the tests below name a circuit so, so tests running in
    /// parallel never trip it.
    pub(super) fn injected_panic(g: &TestGenerator<'_>, side: &str) {
        if g.circuit.netlist().name().strip_prefix("panic_in_") == Some(side) {
            panic!("injected {side} panic");
        }
    }

    /// Runs speculative ATPG on c17 named `panic_in_<side>` on a thread
    /// of its own and reports whether the run panicked; fails instead of
    /// hanging when the run neither returns nor panics within a minute.
    fn speculative_run_panics(side: &'static str) -> bool {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let n = bench_format::parse(C17, &format!("panic_in_{side}")).unwrap();
            let circuit = CompiledCircuit::compile(n);
            let faults = FaultList::collapsed(circuit.netlist());
            let order: Vec<_> = faults.ids().collect();
            let config = TestGenConfig {
                atpg_threads: 2,
                speculation_depth: 2,
                ..TestGenConfig::default()
            };
            let run = catch_unwind(AssertUnwindSafe(|| {
                TestGenerator::for_circuit(&circuit, &faults, config).run(&order)
            }));
            let _ = tx.send(run.is_err());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the speculative run hung instead of panicking")
    }

    #[test]
    fn committer_panic_fails_the_run_instead_of_hanging() {
        assert!(speculative_run_panics("committer"));
    }

    #[test]
    fn worker_panic_fails_the_run_instead_of_hanging() {
        assert!(speculative_run_panics("worker"));
    }

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
    fn speculative_loop_matches_sequential_exactly() {
        let n = bench_format::parse(C17, "c17").unwrap();
        let circuit = CompiledCircuit::compile(n);
        let faults = FaultList::collapsed(circuit.netlist());
        let order: Vec<_> = faults.ids().collect();
        let sequential = TestGenerator::for_circuit(
            &circuit,
            &faults,
            TestGenConfig {
                atpg_threads: 1,
                ..TestGenConfig::default()
            },
        )
        .run(&order);
        for atpg_threads in [2usize, 3, 5] {
            for depth in [1usize, 2, 16] {
                let speculative = TestGenerator::for_circuit(
                    &circuit,
                    &faults,
                    TestGenConfig {
                        atpg_threads,
                        speculation_depth: depth,
                        ..TestGenConfig::default()
                    },
                )
                .run(&order);
                // Whole-result equality (tests, classifications, curve,
                // deterministic stats) — `wasted_speculations` and the
                // timings are excluded by `TestGenResult`'s `PartialEq`.
                assert_eq!(speculative, sequential, "threads {atpg_threads} depth {depth}");
                assert_eq!(
                    speculative.coverage_curve(),
                    sequential.coverage_curve(),
                    "threads {atpg_threads} depth {depth}"
                );
            }
        }
    }

    #[test]
    fn speculation_requires_the_batched_loop() {
        // The scalar reference loop ignores `atpg_threads` entirely.
        let n = bench_format::parse(C17, "c17").unwrap();
        let circuit = CompiledCircuit::compile(n);
        let faults = FaultList::collapsed(circuit.netlist());
        let order: Vec<_> = faults.ids().collect();
        let mk = |atpg_threads| {
            TestGenerator::for_circuit(
                &circuit,
                &faults,
                TestGenConfig {
                    atpg_threads,
                    ..TestGenConfig::default()
                },
            )
            .run_reference(&order, &PatternSet::new(5))
        };
        let seq = mk(1);
        let spec = mk(4);
        assert_eq!(seq, spec);
        assert_eq!(spec.podem_stats.wasted_speculations, 0);
    }

    #[test]
    fn deep_window_still_agrees() {
        // A window deeper than the drop loop's flush cadence keeps
        // workers claiming across every commit and flush.
        let n = bench_format::parse(C17, "c17").unwrap();
        let circuit = CompiledCircuit::compile(n);
        let faults = FaultList::collapsed(circuit.netlist());
        let order: Vec<_> = faults.ids().collect();
        let cfg = |atpg_threads| TestGenConfig {
            atpg_threads,
            speculation_depth: 64,
            ..TestGenConfig::default()
        };
        let seq = TestGenerator::for_circuit(&circuit, &faults, cfg(1)).run(&order);
        let spec = TestGenerator::for_circuit(&circuit, &faults, cfg(4)).run(&order);
        assert_eq!(seq, spec);
    }
}
