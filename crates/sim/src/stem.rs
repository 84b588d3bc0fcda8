//! Two-level stem-region fault simulation on 256-pattern words: the
//! drive modes and hot loops of [`FaultSimulator`].
//!
//! The per-fault PPSFP [`reference`](mod@crate::reference) pays one
//! event-driven cone propagation *per fault* per 64-pattern block. This
//! module collapses that to one propagation *per fanout-free region
//! (FFR)*, exploiting two classical facts:
//!
//! 1. **Inside an FFR, critical path tracing is exact.** Every internal
//!    node has a unique path to the region's stem (its root), so the word
//!    of patterns under which a value change at a node propagates to the
//!    stem — its *sensitization word* — is computed by one reverse sweep:
//!    `sens(u) = sens(reader) & pin_sens(reader, pin_of(u))`, with
//!    `sens(stem) = ~0`. A fault's *stem difference word* is then its
//!    local activation word ANDed with the sensitization along its path;
//!    no event queue is involved. The activation word is read at the
//!    fault's [`PackedSite`], stored beside its id in the
//!    [`FaultRegionIndex`](adi_netlist::FaultRegionIndex), so the pass
//!    over a region's faults never consults the fault list or maps a
//!    node to its position.
//! 2. **Observability from a stem is fault-independent.** Whether a
//!    flipped stem value reaches a primary output depends only on the
//!    good-machine values outside the region. One propagation of the
//!    *complemented stem* through the stem's fanout cone yields the
//!    stem's observability word `obs(stem)`; every fault in the region is
//!    then detected exactly on `stem_diff(f) & obs(stem)`.
//!
//! Every observability walk, and the per-fault walks behind
//! [`DropSession::pending_detections`](crate::DropSession::pending_detections)
//! and [`DropSession::covers`](crate::DropSession::covers), is one
//! routine, `EffectWalk::run`:
//!
//! * **Position-bitset event queue.** Pending evaluations are bits of a
//!   bitset over positions, drained lowest bit first. Positions are
//!   level-major and every fanout sits on a strictly higher level, so
//!   that order is topological: each scheduled gate is evaluated once,
//!   after all of its faulty fanins, and re-scheduling is a no-op.
//! * **Needs-driven lane retirement.** A region walks once per
//!   superblock, seeded with the union of its wanted faults'
//!   stem-difference words. A pattern (lane) retires as soon as a
//!   primary output observes it, and also as soon as no fault of the
//!   region still needs it: after each observation the walk asks its
//!   caller which lanes are still needed, masks every later evaluation
//!   with them, and returns once none is left. The no-drop matrix needs
//!   every lane; first detection needs each fault's lanes below its
//!   lowest observed one; n-detection needs the lanes of faults still
//!   short of `n`. Lanes evaluate independently and a live lane
//!   propagates unchanged, so the walk's word is exact on every lane
//!   the caller kept, and a retired lane cannot change any answer.
//! * **In place over the good words.** A walk writes each faulty word
//!   over its good word, so a fanin read is one load with no version
//!   stamp to check, and restores every word it wrote from an undo
//!   trail before it returns (the idiom
//!   [`DualMachineSim`](crate::DualMachineSim) uses for PODEM). Callers
//!   therefore hand the walk their own good words mutably, and the
//!   region-parallel split copies each superblock's shared good words
//!   into its thread's scratch before detecting.
//!
//! Two further multipliers sit on top of the two-level scheme:
//!
//! * **Wide words.** Every per-superblock kernel runs on a [`SimWord`]
//!   of four 64-bit lanes. A superblock is four consecutive 64-pattern
//!   blocks, so one sensitization sweep and one observability walk
//!   serve 256 patterns.
//! * **Two-dimensional parallelism.** The block-parallel split carves
//!   the superblock range across threads (best when there are plenty of
//!   blocks); the region-parallel split carves the *stem-region groups*
//!   across threads, each writing a disjoint set of matrix rows merged
//!   without locks (best for few-block, small-`U` workloads — the
//!   paper's actual experiment shape).
//!   [`FaultSimulator::no_drop_matrix_parallel`] picks between them from
//!   the superblock count against the thread count.
//!
//! The combination is bit-identical to per-fault simulation at every
//! thread count (asserted by differential tests against both
//! the per-fault [`reference`](mod@crate::reference) and a scalar
//! brute-force oracle) while the
//! expensive cone walk is paid once per stem with a non-zero difference
//! word — an asymptotic win since FFRs average several faults each.
//!
//! Everything runs in [`LevelizedCsr`] position space: the forward good
//! sweep, the reverse sensitization sweep, and the observability
//! propagation (whose event queue is the position bitset) all touch
//! contiguous arrays in evaluation order.

use std::sync::atomic::{AtomicUsize, Ordering};

use adi_netlist::fault::FaultId;
use adi_netlist::{GateKind, LevelizedCsr, PackedSite};
use adi_obs::SpanSite;

/// Oversplit factor for the work-stealing region split: each thread's
/// share of the stem-region groups is cut into this many weight-balanced
/// chunks, so a thread finishing a cheap chunk pulls another from the
/// shared cursor instead of idling while a skewed chunk finishes.
const CHUNKS_PER_THREAD: usize = 4;

use crate::faultsim::{DropOutcome, FaultSimulator, NDetectOutcome};
use crate::logic::{self, eval_with_pos_w};
use crate::word::SimWord;
use crate::{DetectionMatrix, PatternSet};

/// Reusable per-superblock buffers for the stem-region engine.
#[derive(Clone, Debug)]
pub(crate) struct StemScratch {
    /// Good-machine words by position.
    pub(crate) good: Vec<SimWord>,
    /// Sensitization-to-root words by position.
    sens: Vec<SimWord>,
    /// Packed input words for the current superblock.
    input_words: Vec<SimWord>,
    /// Buffers of one region's walk.
    region: RegionScratch,
}

/// Buffers of one region's detection ([`FaultSimulator::walk_region`]):
/// the fault-effect walk and the region's stem-difference words.
#[derive(Clone, Debug)]
struct RegionScratch {
    walk: EffectWalk,
    /// `(fault, stem-difference word)` of the current region's wanted
    /// faults whose word is non-zero, in fault-id order.
    rds: Vec<(u32, SimWord)>,
}

/// What a drive mode still needs from a region's walk: given the lanes
/// an output has observed so far, the lanes some fault of the region
/// could still use. The walk retires every other lane.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Need<'c> {
    /// Every detecting lane (the no-drop matrix).
    Every,
    /// Each fault's lowest detecting lane (first detection): a fault
    /// needs only its lanes below its lowest observed one.
    First,
    /// Detecting lanes until each fault reaches `n`, counting the
    /// `counts` (by fault id) of earlier superblocks (n-detection).
    Count { counts: &'c [u32], n: u32 },
}

impl Need<'_> {
    /// The lanes of the difference words `rds` that some fault still
    /// needs once the lanes of `observed` are known to be detecting.
    fn lanes(self, rds: &[(u32, SimWord)], observed: SimWord) -> SimWord {
        let mut need = SimWord::ZERO;
        match self {
            Need::Every => return SimWord::ONES,
            Need::First => {
                for &(_, rd) in rds {
                    let hit = rd & observed;
                    need |= if hit.is_zero() {
                        rd
                    } else {
                        rd & SimWord::low_mask(hit.first_set_bit() as usize)
                    };
                }
            }
            Need::Count { counts, n } => {
                for &(fault, rd) in rds {
                    if counts[fault as usize] + (rd & observed).count_ones() < n {
                        need |= rd;
                    }
                }
            }
        }
        need
    }
}

/// Reusable buffers of the fault-effect walk ([`EffectWalk::run`]).
#[derive(Clone, Debug)]
struct EffectWalk {
    /// `(position, good word)` of each position the current walk has
    /// overwritten with its faulty word. Empty between walks.
    trail: Vec<(u32, SimWord)>,
    /// Pending evaluations: bit `p % 64` of word `p / 64` schedules
    /// position `p`. All zero between walks.
    pending: Vec<u64>,
}

impl StemScratch {
    pub(crate) fn new(view: &LevelizedCsr) -> Self {
        let n = view.num_nodes();
        StemScratch {
            good: vec![SimWord::ZERO; n],
            sens: vec![SimWord::ZERO; n],
            input_words: vec![SimWord::ZERO; view.inputs().len()],
            region: RegionScratch {
                walk: EffectWalk {
                    trail: Vec::new(),
                    pending: vec![0; n.div_ceil(64)],
                },
                rds: Vec::new(),
            },
        }
    }
}

impl EffectWalk {
    /// Propagates a fault effect from `start` through its fanout cone
    /// and returns lanes in which it reaches a primary output.
    ///
    /// `seed` is the effect at `start`: the faulty machine there is
    /// `good[start] ^ seed`. The walk runs on `good` itself: it writes
    /// each faulty word over its good word, so a fanin read is one load,
    /// and restores every word it wrote from its trail before it
    /// returns, so `good` is unchanged afterwards. Events drain from the
    /// position bitset lowest position first, a topological order, so
    /// each gate is evaluated once, after all of its faulty fanins and
    /// before its own word is written; gates that reach no output are
    /// never scheduled. The walk keeps a word of live lanes, at first
    /// `seed`. Each evaluation keeps only the difference `d` in live
    /// lanes and writes `good ^ d`, so a retired lane propagates no
    /// further. A lane retires once an output observes it; after each
    /// new observation the walk passes every observed lane to `need`,
    /// retires each lane `need` leaves out, and returns once no lane is
    /// live.
    ///
    /// Lanes evaluate independently and a live lane propagates
    /// unchanged, so every returned lane is a detecting lane, and the
    /// word is exact on each lane `need` kept until it was observed or
    /// the walk ran out of events.
    fn run(
        &mut self,
        view: &LevelizedCsr,
        good: &mut [SimWord],
        start: usize,
        seed: SimWord,
        mut need: impl FnMut(SimWord) -> SimWord,
    ) -> SimWord {
        if seed.is_zero() || !view.reaches_output(start) {
            return SimWord::ZERO;
        }
        if view.is_output_at(start) {
            return seed;
        }
        self.trail.push((start as u32, good[start]));
        good[start] ^= seed;
        // One past the highest pending word.
        let mut end = 0usize;
        self.schedule_fanouts(view, start, &mut end);
        let mut live = seed;
        let mut observed = SimWord::ZERO;
        let mut w = start / 64;
        while w < end {
            let bits = self.pending[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            self.pending[w] = bits & (bits - 1);
            let p = w * 64 + bits.trailing_zeros() as usize;
            let val = eval_with_pos_w(view.kind_at(p), view.fanins_at(p), |f| good[f as usize]);
            let d = (val ^ good[p]) & live;
            if d.is_zero() {
                continue;
            }
            if view.is_output_at(p) {
                // Every lane of `d` retires here, so nothing propagates
                // past this position.
                observed |= d;
                live = live & !d & need(observed);
                if live.is_zero() {
                    self.pending[w..end].fill(0);
                    break;
                }
                continue;
            }
            self.trail.push((p as u32, good[p]));
            good[p] ^= d;
            self.schedule_fanouts(view, p, &mut end);
        }
        for &(p, word) in &self.trail {
            good[p as usize] = word;
        }
        self.trail.clear();
        observed
    }

    /// Marks every fanout of `p` that reaches an output pending,
    /// extending `end` past the highest word touched.
    #[inline]
    fn schedule_fanouts(&mut self, view: &LevelizedCsr, p: usize, end: &mut usize) {
        for &g in view.fanouts_at(p) {
            if view.reaches_output(g as usize) {
                let w = g as usize / 64;
                self.pending[w] |= 1 << (g % 64);
                *end = (*end).max(w + 1);
            }
        }
    }
}

impl FaultSimulator<'_> {
    /// The levelized view the simulator runs on.
    pub(crate) fn view(&self) -> &LevelizedCsr {
        self.circuit.view()
    }

    /// Simulates every fault under every pattern **without dropping** and
    /// returns the full detection matrix, bit-identical to the per-fault
    /// reference's.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the circuit.
    pub fn no_drop_matrix(&self, patterns: &PatternSet) -> DetectionMatrix {
        static SPAN_NO_DROP: SpanSite = SpanSite::new("sim.no_drop");
        static SPAN_BLOCK: SpanSite = SpanSite::new("sim.block");
        let _span = SPAN_NO_DROP.enter();
        self.assert_width(patterns);
        let mut matrix = DetectionMatrix::new(self.faults.len(), patterns.len());
        let mut scratch = StemScratch::new(self.view());
        for sb in 0..patterns.num_superblocks() {
            let _block_span = SPAN_BLOCK.enter();
            self.no_drop_superblock(patterns, sb, &mut scratch, &mut matrix);
        }
        matrix
    }

    /// One superblock of [`no_drop_matrix`](Self::no_drop_matrix): its
    /// detection words ORed into `matrix`, simulated in `scratch`.
    fn no_drop_superblock(
        &self,
        patterns: &PatternSet,
        sb: usize,
        scratch: &mut StemScratch,
        matrix: &mut DetectionMatrix,
    ) {
        self.sim_superblock(patterns, sb, scratch);
        let mask = patterns.valid_mask_wide(sb);
        self.for_each_detection(mask, scratch, None, Need::Every, |fault, word| {
            or_word_wide(matrix, fault, sb, word);
        });
    }

    /// Like [`no_drop_matrix`](Self::no_drop_matrix) but split across
    /// `threads` OS threads in one of two dimensions: when the pattern
    /// set has at least one superblock per thread the superblock range
    /// is split; otherwise — the few-block, small-`U` shape — the
    /// stem-region groups are. The result is identical to the serial
    /// version either way.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the pattern width does not match.
    pub fn no_drop_matrix_parallel(
        &self,
        patterns: &PatternSet,
        threads: usize,
    ) -> DetectionMatrix {
        assert!(threads > 0, "at least one thread required");
        self.assert_width(patterns);
        if threads == 1 {
            return self.no_drop_matrix(patterns);
        }
        let n_superblocks = patterns.num_superblocks();
        if n_superblocks >= threads {
            self.no_drop_matrix_block_parallel(patterns, threads)
        } else {
            self.no_drop_matrix_region_parallel(patterns, threads)
        }
    }

    /// The block-parallel split: each thread simulates a contiguous
    /// superblock range into a fault-major stripe, scattered into the
    /// matrix afterwards. Identical to the serial result.
    fn no_drop_matrix_block_parallel(
        &self,
        patterns: &PatternSet,
        threads: usize,
    ) -> DetectionMatrix {
        let n_superblocks = patterns.num_superblocks();
        let threads = threads.min(n_superblocks.max(1));
        if threads <= 1 {
            return self.no_drop_matrix(patterns);
        }
        let n_faults = self.faults.len();
        let chunk = n_superblocks.div_ceil(threads);
        // Each thread fills a fault-major stripe over its superblock
        // range; stripes are scattered into the matrix afterwards.
        let mut stripes: Vec<(usize, Vec<SimWord>)> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                let b0 = t * chunk;
                let b1 = ((t + 1) * chunk).min(n_superblocks);
                if b0 >= b1 {
                    break;
                }
                handles.push(scope.spawn(move || {
                    let len = b1 - b0;
                    let mut local = vec![SimWord::ZERO; n_faults * len];
                    let mut scratch = StemScratch::new(self.view());
                    for sb in b0..b1 {
                        self.sim_superblock(patterns, sb, &mut scratch);
                        let mask = patterns.valid_mask_wide(sb);
                        let off = sb - b0;
                        self.for_each_detection(
                            mask,
                            &mut scratch,
                            None,
                            Need::Every,
                            |fault, word| {
                                local[fault as usize * len + off] |= word;
                            },
                        );
                    }
                    (b0, local)
                }));
            }
            for h in handles {
                stripes.push(h.join().expect("stem worker panicked"));
            }
        });
        let mut matrix = DetectionMatrix::new(n_faults, patterns.len());
        for (b0, local) in stripes {
            let len = local.len() / n_faults.max(1);
            for f in 0..n_faults {
                for off in 0..len {
                    let w = local[f * len + off];
                    if !w.is_zero() {
                        or_word_wide(&mut matrix, f as u32, b0 + off, w);
                    }
                }
            }
        }
        matrix
    }

    /// The region-parallel split: the good machine is computed once
    /// (superblock ranges split across threads), then each thread
    /// detects a contiguous range of stem-region groups — a disjoint
    /// set of matrix rows, so the stripes merge without locks. Each
    /// thread copies a superblock's shared good words into its own
    /// scratch before detecting, since the walks write faulty words
    /// over them (and restore them) in place. This is
    /// the split that scales when the pattern set has fewer superblocks
    /// than threads. Identical to the serial result.
    fn no_drop_matrix_region_parallel(
        &self,
        patterns: &PatternSet,
        threads: usize,
    ) -> DetectionMatrix {
        let n_superblocks = patterns.num_superblocks();
        let n_groups = self.regions.num_groups();
        let threads = threads.min(n_groups.max(1));
        if threads <= 1 || n_superblocks == 0 {
            return self.no_drop_matrix(patterns);
        }
        let n_pos = self.view().num_nodes();
        let n_faults = self.faults.len();

        // Phase 1: the shared good machine, superblock-major. The
        // superblock ranges are disjoint slices, so this phase is
        // embarrassingly parallel too.
        let mut good_all = vec![SimWord::ZERO; n_pos * n_superblocks];
        let sb_chunk = n_superblocks.div_ceil(threads);
        std::thread::scope(|scope| {
            for (ci, chunk) in good_all.chunks_mut(n_pos * sb_chunk).enumerate() {
                scope.spawn(move || {
                    let mut input_words = vec![SimWord::ZERO; self.view().inputs().len()];
                    for (off, out) in chunk.chunks_mut(n_pos).enumerate() {
                        let sb = ci * sb_chunk + off;
                        logic::load_input_words_w(patterns, sb, &mut input_words);
                        logic::simulate_superblock_csr(self.view(), &input_words, out);
                    }
                });
            }
        });

        // Phase 2: weight-balanced group chunks pulled from a shared
        // atomic cursor (work stealing — a thread that drew a cheap
        // chunk takes another instead of idling at the barrier). Every
        // fault lives in exactly one chunk, so the collected
        // `(fault, superblock, word)` hits target disjoint matrix rows
        // and the final scatter is order-independent.
        let chunks = self.chunk_group_ranges(threads * CHUNKS_PER_THREAD);
        let cursor = AtomicUsize::new(0);
        let mut hit_lists: Vec<Vec<(u32, u32, SimWord)>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = StemScratch::new(self.view());
                        self.detect_chunks(patterns, &good_all, &chunks, &cursor, &mut scratch)
                    })
                })
                .collect();
            for h in handles {
                hit_lists.push(h.join().expect("stem region worker panicked"));
            }
        });
        let mut matrix = DetectionMatrix::new(n_faults, patterns.len());
        for hits in hit_lists {
            for (fault, sb, w) in hits {
                or_word_wide(&mut matrix, fault, sb as usize, w);
            }
        }
        matrix
    }

    /// One region-parallel worker: pulls group chunks from `cursor` until
    /// none is left and returns the `(fault, superblock, word)` hits of
    /// their faults. For each chunk and superblock it copies the shared
    /// good words (`good_all`, superblock-major) into `scratch`, runs the
    /// sensitization sweep restricted to the chunk's faults (so the
    /// reverse sweep skips every other region) and detects the chunk's
    /// groups.
    fn detect_chunks(
        &self,
        patterns: &PatternSet,
        good_all: &[SimWord],
        chunks: &[(usize, usize)],
        cursor: &AtomicUsize,
        scratch: &mut StemScratch,
    ) -> Vec<(u32, u32, SimWord)> {
        let n_pos = self.view().num_nodes();
        let mut hits = Vec::new();
        let mut marking = Vec::new();
        let mut ids: Vec<FaultId> = Vec::new();
        while let Some(&(g0, g1)) = chunks.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            ids.clear();
            for g in g0..g1 {
                ids.extend_from_slice(self.regions.group_faults(g));
            }
            self.mark_sens_needed(&ids, &mut marking);
            for (sb, good_sb) in good_all.chunks_exact(n_pos).enumerate() {
                scratch.good.copy_from_slice(good_sb);
                self.prepare_block_with(scratch, &marking);
                let mask = patterns.valid_mask_wide(sb);
                let StemScratch { good, sens, region, .. } = &mut *scratch;
                self.detect_groups(
                    g0,
                    g1,
                    mask,
                    good,
                    sens,
                    region,
                    None,
                    Need::Every,
                    &mut |f, det| hits.push((f, sb as u32, det)),
                );
            }
        }
        hits
    }

    /// Splits the group range into at most `chunks` contiguous,
    /// non-empty sub-ranges of roughly equal total *weight* (see
    /// [`group_weights`](Self::group_weights)). Workers pull chunk
    /// indices from a shared atomic cursor, so oversplitting relative to
    /// the thread count (several chunks per thread) is what turns the
    /// static split into a work-stealing one: a thread that lands on a
    /// cheap chunk simply takes another.
    fn chunk_group_ranges(&self, chunks: usize) -> Vec<(usize, usize)> {
        let weights = self.group_weights();
        let n_groups = weights.len();
        let chunks = chunks.clamp(1, n_groups.max(1));
        let total: u64 = weights.iter().sum();
        let mut out = Vec::with_capacity(chunks);
        let mut g = 0usize;
        let mut acc = 0u64;
        for c in 0..chunks {
            let start = g;
            let target = total / chunks as u64 * (c as u64 + 1);
            while g < n_groups && (acc < target || g == start) {
                acc += weights[g];
                g += 1;
            }
            if c + 1 == chunks {
                g = n_groups;
            }
            if g > start {
                out.push((start, g));
            }
        }
        debug_assert_eq!(out.iter().map(|&(a, b)| b - a).sum::<usize>(), n_groups);
        out
    }

    /// Per-group work estimate: fault count plus the root's (capped)
    /// fanout-cone size, the two terms a group's detection cost grows
    /// with (one stem-difference word per fault, one observability walk
    /// per root). Only the region-parallel split reads it.
    fn group_weights(&self) -> Vec<u64> {
        // Fanout-cone size estimate per position (reverse-topological
        // accumulation; reconvergence double-counts, which is fine for a
        // load-balancing weight — saturate and cap so skewed circuits
        // cannot overflow the prefix sums).
        const CONE_CAP: u64 = 1 << 20;
        let view = self.view();
        let mut cone = vec![1u64; view.num_nodes()];
        for p in (0..view.num_nodes()).rev() {
            let mut acc = 1u64;
            for &q in view.fanouts_at(p) {
                acc = acc.saturating_add(cone[q as usize]);
            }
            cone[p] = acc.min(CONE_CAP);
        }
        (0..self.regions.num_groups())
            .map(|g| self.regions.group_faults(g).len() as u64 + cone[self.regions.group_root(g)])
            .collect()
    }

    /// Simulates with fault dropping: each fault is retired at its first
    /// detecting pattern, and the outcome says which pattern that is,
    /// matching the per-fault reference's [`DropOutcome`] exactly.
    ///
    /// Finding the first detecting pattern keeps every pattern below a
    /// fault's lowest observed one alive in its region's walk. A caller
    /// that needs only how many faults are detected, or the coverage,
    /// should call [`n_detect(patterns, 1)`](Self::n_detect) instead:
    /// the same count from walks that stop serving a fault at its first
    /// observed detection, whichever pattern that is.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the circuit.
    pub fn with_dropping(&self, patterns: &PatternSet) -> DropOutcome {
        self.with_dropping_in(patterns, &mut StemScratch::new(self.view()))
    }

    /// [`with_dropping`](Self::with_dropping), simulated in `scratch`.
    fn with_dropping_in(&self, patterns: &PatternSet, scratch: &mut StemScratch) -> DropOutcome {
        self.assert_width(patterns);
        let mut first: Vec<Option<u32>> = vec![None; self.faults.len()];
        let mut remaining = self.faults.len();
        for sb in 0..patterns.num_superblocks() {
            if remaining == 0 {
                break;
            }
            self.sim_superblock(patterns, sb, scratch);
            let mask = patterns.valid_mask_wide(sb);
            let StemScratch { good, sens, region, .. } = &mut *scratch;
            for g in 0..self.regions.num_groups() {
                let wants = |f: u32| first[f as usize].is_none();
                let (rds, obs) = self.walk_region(g, mask, good, sens, region, wants, Need::First);
                for &(fault, rd) in rds {
                    let det = rd & obs;
                    if !det.is_zero() {
                        // Lanes are in pattern order, so the first set
                        // bit is the earliest detecting pattern — the
                        // same index the 64-bit loop reports.
                        first[fault as usize] =
                            Some((sb * SimWord::BITS) as u32 + det.first_set_bit());
                        remaining -= 1;
                    }
                }
            }
        }
        DropOutcome {
            first_detection: first,
        }
    }

    /// n-detection simulation: a fault is retired once detected by `n`
    /// distinct patterns, and counts saturate at `n`, matching the
    /// per-fault reference exactly.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the pattern width does not match.
    pub fn n_detect(&self, patterns: &PatternSet, n: u32) -> NDetectOutcome {
        self.n_detect_in(patterns, n, &mut StemScratch::new(self.view()))
    }

    /// [`n_detect`](Self::n_detect), simulated in `scratch`.
    fn n_detect_in(
        &self,
        patterns: &PatternSet,
        n: u32,
        scratch: &mut StemScratch,
    ) -> NDetectOutcome {
        assert!(n > 0, "n-detection requires n >= 1");
        self.assert_width(patterns);
        let mut counts = vec![0u32; self.faults.len()];
        let mut remaining = self.faults.len();
        for sb in 0..patterns.num_superblocks() {
            if remaining == 0 {
                break;
            }
            self.sim_superblock(patterns, sb, scratch);
            let mask = patterns.valid_mask_wide(sb);
            let StemScratch { good, sens, region, .. } = &mut *scratch;
            for g in 0..self.regions.num_groups() {
                // Saturated faults are dropped.
                let wants = |f: u32| counts[f as usize] < n;
                let need = Need::Count {
                    counts: &counts,
                    n,
                };
                let (rds, obs) = self.walk_region(g, mask, good, sens, region, wants, need);
                for &(fault, rd) in rds {
                    let det = rd & obs;
                    if !det.is_zero() {
                        // Saturating-min arithmetic is associative over
                        // the block split, so counting a superblock at
                        // once equals counting its blocks in sequence.
                        // A fault the walk stopped serving has at least
                        // its missing detections in `det`.
                        let c = &mut counts[fault as usize];
                        *c = (*c + det.count_ones()).min(n);
                        if *c >= n {
                            remaining -= 1;
                        }
                    }
                }
            }
        }
        NDetectOutcome { counts, n }
    }

    fn assert_width(&self, patterns: &PatternSet) {
        assert_eq!(
            patterns.num_inputs(),
            self.view().inputs().len(),
            "pattern width does not match circuit input count"
        );
    }

    /// Loads one superblock: good-machine sweep forward, then the
    /// sensitization sweep backward with the engine's whole-fault-list
    /// path marking.
    fn sim_superblock(&self, patterns: &PatternSet, superblock: usize, s: &mut StemScratch) {
        logic::load_input_words_w(patterns, superblock, &mut s.input_words);
        logic::simulate_superblock_csr(self.view(), &s.input_words, &mut s.good);
        self.prepare_block_with(s, self.regions.sens_needed());
    }

    /// Prepares detection for a superblock whose good-machine words are
    /// already in `s.good`: the sensitization sweep backward with a
    /// caller-supplied path marking. `sens_needed` must cover (at least)
    /// every fault whose detection words will be read for this block —
    /// the batched ATPG drop session passes a marking restricted to its
    /// still-active faults so the reverse sweep skips retired regions.
    pub(crate) fn prepare_block_with(&self, s: &mut StemScratch, sens_needed: &[bool]) {
        let (good, sens) = (&s.good, &mut s.sens);
        debug_assert_eq!(sens_needed.len(), self.view().num_nodes());
        // Reverse sweep: every reader sits at a higher position, so its
        // sensitization word is final before its drivers are visited.
        // Only positions on some covered fault's path to its root are
        // consumed; everything else is skipped.
        let view = self.view();
        for p in (0..view.num_nodes()).rev() {
            match self.regions.reader(p) {
                None => sens[p] = SimWord::ONES,
                Some((g, pin)) if sens_needed[p] => {
                    sens[p] = sens[g] & pin_sens(good, view.kind_at(g), view.fanins_at(g), pin);
                }
                Some(_) => {}
            }
        }
    }

    /// Rewrites `out` as the path marking restricted to `active`: for
    /// each active fault, its effect position and the unique path from
    /// there to its FFR root. A block prepared with this marking answers
    /// detection queries for exactly the active faults.
    pub(crate) fn mark_sens_needed(&self, active: &[FaultId], out: &mut Vec<bool>) {
        out.clear();
        out.resize(self.view().num_nodes(), false);
        for &id in active {
            let p = self.view().position(self.faults.fault(id).effect_node());
            self.regions.mark_path(p, out);
        }
    }

    /// The word of patterns (unmasked) on which the fault at `site`
    /// flips its effect position.
    #[inline]
    fn site_diff(&self, site: PackedSite, good: &[SimWord]) -> SimWord {
        let stuck = if site.stuck_value() {
            SimWord::ONES
        } else {
            SimWord::ZERO
        };
        let p = site.position();
        match site.pin() {
            None => good[p] ^ stuck,
            Some(pin) => {
                let view = self.view();
                let fanins = view.fanins_at(p);
                (good[fanins[pin] as usize] ^ stuck) & pin_sens(good, view.kind_at(p), fanins, pin)
            }
        }
    }

    /// Lanes of `valid_mask` that detect `fault`, by one walk from its
    /// effect site over the good words in `s.good`, retiring the lanes
    /// `need` leaves out (see [`EffectWalk::run`]). Needs no
    /// sensitization sweep, so it answers for a block whose good words
    /// change between queries (the drop session's pending block).
    pub(crate) fn detect_fault(
        &self,
        fault: FaultId,
        valid_mask: SimWord,
        s: &mut StemScratch,
        need: impl FnMut(SimWord) -> SimWord,
    ) -> SimWord {
        let site = PackedSite::of(self.view(), self.faults.fault(fault));
        let diff = self.site_diff(site, &s.good) & valid_mask;
        s.region
            .walk
            .run(self.view(), &mut s.good, site.position(), diff, need)
    }

    /// Visits every `(fault, detection_word)` pair with a non-zero word
    /// for the current superblock, each word exact as far as `need`
    /// asks. With `active`, faults whose flag is `false` are skipped
    /// entirely (no stem-difference computation, and regions with only
    /// inactive faults never pay an observability walk).
    pub(crate) fn for_each_detection(
        &self,
        valid_mask: SimWord,
        s: &mut StemScratch,
        active: Option<&[bool]>,
        need: Need<'_>,
        mut visit: impl FnMut(u32, SimWord),
    ) {
        let StemScratch { good, sens, region, .. } = s;
        self.detect_groups(
            0,
            self.regions.num_groups(),
            valid_mask,
            good,
            sens,
            region,
            active,
            need,
            &mut visit,
        );
    }

    /// [`for_each_detection`](Self::for_each_detection) over the group
    /// range `g0..g1` only — the region-parallel primitive (each thread
    /// owns a disjoint range, hence disjoint faults).
    #[allow(clippy::too_many_arguments)]
    fn detect_groups(
        &self,
        g0: usize,
        g1: usize,
        valid_mask: SimWord,
        good: &mut [SimWord],
        sens: &[SimWord],
        region: &mut RegionScratch,
        active: Option<&[bool]>,
        need: Need<'_>,
        visit: &mut impl FnMut(u32, SimWord),
    ) {
        let wants = |f: u32| active.is_none_or(|flags| flags[f as usize]);
        for g in g0..g1 {
            let (rds, obs) = self.walk_region(g, valid_mask, good, sens, region, wants, need);
            for &(fault, rd) in rds {
                let det = rd & obs;
                if !det.is_zero() {
                    visit(fault, det);
                }
            }
        }
    }

    /// Detects group `g`'s faults for one superblock with one walk. It
    /// collects the non-zero stem-difference words (within
    /// `valid_mask`) of the faults `wants` selects, each from the
    /// fault's packed site and the sensitization word there, walks the flipped
    /// root seeded with their union, retiring each lane once `need` no
    /// longer needs it, and returns the words with the walk's word
    /// `obs`. Each fault is detected on `rd & obs` as far as `need`
    /// asks: exactly (`Every`), at the same lowest lane (`First`), or
    /// with at least its missing detections (`Count`).
    #[allow(clippy::too_many_arguments)]
    fn walk_region<'s>(
        &self,
        g: usize,
        valid_mask: SimWord,
        good: &mut [SimWord],
        sens: &[SimWord],
        s: &'s mut RegionScratch,
        wants: impl Fn(u32) -> bool,
        need: Need<'_>,
    ) -> (&'s [(u32, SimWord)], SimWord) {
        s.rds.clear();
        let mut seed = SimWord::ZERO;
        let (ids, sites) = (self.regions.group_faults(g), self.regions.group_sites(g));
        for (&id, &site) in ids.iter().zip(sites) {
            let fault = id.index() as u32;
            if !wants(fault) {
                continue;
            }
            let rd = self.site_diff(site, good) & sens[site.position()] & valid_mask;
            if !rd.is_zero() {
                s.rds.push((fault, rd));
                seed |= rd;
            }
        }
        let RegionScratch { walk, rds } = s;
        let root = self.regions.group_root(g);
        let obs = walk.run(self.view(), good, root, seed, |observed| {
            need.lanes(rds, observed)
        });
        (rds, obs)
    }
}

/// ORs a wide detection word into the 64-bit-blocked matrix: lane `k`
/// of superblock `sb` is block `sb * 4 + k`. Invalid lanes are zero
/// (masked upstream), so no lane ever lands outside the matrix.
fn or_word_wide(matrix: &mut DetectionMatrix, fault: u32, superblock: usize, word: SimWord) {
    for k in 0..SimWord::LANES {
        let w = word.lane(k);
        if w != 0 {
            matrix.or_word(FaultId::new(fault as usize), superblock * SimWord::LANES + k, w);
        }
    }
}

/// The word of patterns on which a change at `pin` of the gate (alone)
/// changes the gate's output, given good values of the other pins.
#[inline]
fn pin_sens(good: &[SimWord], kind: GateKind, fanins: &[u32], pin: usize) -> SimWord {
    match kind {
        GateKind::Buf | GateKind::Not | GateKind::Xor | GateKind::Xnor => SimWord::ONES,
        GateKind::And | GateKind::Nand => {
            let mut acc = SimWord::ONES;
            for (i, &f) in fanins.iter().enumerate() {
                if i != pin {
                    acc &= good[f as usize];
                }
            }
            acc
        }
        GateKind::Or | GateKind::Nor => {
            let mut acc = SimWord::ZERO;
            for (i, &f) in fanins.iter().enumerate() {
                if i != pin {
                    acc |= good[f as usize];
                }
            }
            !acc
        }
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => {
            panic!("{kind:?} has no fanin pins")
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference;
    use adi_netlist::bench_format;
    use adi_netlist::fault::{Fault, FaultList, FaultSite};
    use adi_netlist::{CompiledCircuit, Netlist, NetlistBuilder, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn compile(netlist: &Netlist) -> CompiledCircuit {
        CompiledCircuit::compile(netlist.clone())
    }

    /// A random circuit of `inputs` inputs and `gates` gates, mostly
    /// reading recent nodes (deep cones, much reconvergence). Nine in
    /// ten sinks and one in twenty other gates are outputs, so some
    /// outputs fan out and some logic is dead.
    pub(crate) fn random_netlist(seed: u64, inputs: usize, gates: usize) -> Netlist {
        const KINDS: [GateKind; 8] = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(format!("rand{seed}"));
        let mut nodes: Vec<NodeId> = (0..inputs).map(|i| b.add_input(format!("i{i}"))).collect();
        let mut read = vec![false; inputs];
        for g in 0..gates {
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            let arity = match kind {
                GateKind::Not | GateKind::Buf => 1,
                _ => rng.gen_range(2..=3usize).min(nodes.len()),
            };
            let mut picks: Vec<usize> = Vec::with_capacity(arity);
            while picks.len() < arity {
                let n = nodes.len();
                let i = if rng.gen_bool(0.7) {
                    n - 1 - rng.gen_range(0..n.min(6))
                } else {
                    rng.gen_range(0..n)
                };
                if !picks.contains(&i) {
                    picks.push(i);
                }
            }
            let fanins: Vec<NodeId> = picks.iter().map(|&i| nodes[i]).collect();
            for &i in &picks {
                read[i] = true;
            }
            let node = b.add_gate(kind, format!("g{g}"), &fanins).unwrap();
            if rng.gen_bool(0.05) {
                b.mark_output(node);
            }
            nodes.push(node);
            read.push(false);
        }
        for (i, &node) in nodes.iter().enumerate() {
            if !read[i] && (i + 1 == nodes.len() || rng.gen_bool(0.9)) {
                b.mark_output(node);
            }
        }
        b.build().unwrap()
    }

    /// For every FFR root that reaches an output and is not one, the
    /// whole-cone walk seeded with a superblock's valid lanes must equal
    /// the OR of the reference detection words of the root's two stem
    /// faults. Walks that retire lanes early must stay inside that word
    /// and keep what their `need` asks for: its emptiness when nothing
    /// is needed after the first observation, and its lowest lane when
    /// only the lanes below the lowest observed one are needed.
    fn walk_matches_reference(netlist: &Netlist, patterns: &PatternSet) {
        let circuit = compile(netlist);
        let faults = FaultList::full(netlist);
        let matrix = reference::no_drop_matrix(&circuit, &faults, patterns);
        let view = circuit.view();
        let mut stem_faults = vec![Vec::new(); view.num_nodes()];
        for (id, fault) in faults.iter() {
            if let FaultSite::Stem(node) = fault.site() {
                stem_faults[view.position(node)].push(id);
            }
        }
        let engine = FaultSimulator::for_circuit(&circuit, &faults);
        let mut scratch = StemScratch::new(view);
        let mut walked = 0usize;
        for sb in 0..patterns.num_superblocks() {
            engine.sim_superblock(patterns, sb, &mut scratch);
            let valid = patterns.valid_mask_wide(sb);
            for (p, ids) in stem_faults.iter().enumerate() {
                if engine.regions.reader(p).is_some() || view.is_output_at(p) || !view.reaches_output(p) {
                    continue;
                }
                assert_eq!(ids.len(), 2, "{} position {p}", netlist.name());
                let mut expect = SimWord::ZERO;
                for k in 0..SimWord::LANES {
                    let block = sb * SimWord::LANES + k;
                    if block < matrix.num_blocks() {
                        expect.0[k] = ids
                            .iter()
                            .map(|&id| matrix.row(id)[block])
                            .fold(0, |a, w| a | w);
                    }
                }
                let label = format!("{} superblock {sb} position {p}", netlist.name());
                let StemScratch { good, region, .. } = &mut scratch;
                let walk = &mut region.walk;
                let every = walk.run(view, good, p, valid, |_| SimWord::ONES);
                assert_eq!(every, expect, "walk {label}");
                let any = walk.run(view, good, p, valid, |_| SimWord::ZERO);
                assert_eq!(any & !expect, SimWord::ZERO, "any-lane walk {label}");
                assert_eq!(any.is_zero(), expect.is_zero(), "any-lane walk {label}");
                let first = walk.run(view, good, p, valid, |observed| {
                    SimWord::low_mask(observed.first_set_bit() as usize)
                });
                assert_eq!(first & !expect, SimWord::ZERO, "first-lane walk {label}");
                if !expect.is_zero() {
                    assert_eq!(
                        first.first_set_bit(),
                        expect.first_set_bit(),
                        "first-lane walk {label}"
                    );
                }
                walked += 1;
            }
        }
        assert!(walked > 0, "{}: no root was walked", netlist.name());
    }

    #[test]
    fn effect_walk_matches_reference_on_random_circuits() {
        for seed in 0..12u64 {
            let netlist = random_netlist(seed, 6 + seed as usize % 5, 40 + 13 * seed as usize);
            // 600 patterns: two full superblocks and a partial one.
            let patterns = PatternSet::random(netlist.num_inputs(), 600, seed);
            walk_matches_reference(&netlist, &patterns);
        }
    }

    /// The good words of superblock `sb`, by a fresh sweep.
    fn fresh_good(view: &LevelizedCsr, patterns: &PatternSet, sb: usize) -> Vec<SimWord> {
        let mut inputs = vec![SimWord::ZERO; view.inputs().len()];
        let mut good = vec![SimWord::ZERO; view.num_nodes()];
        logic::load_input_words_w(patterns, sb, &mut inputs);
        logic::simulate_superblock_csr(view, &inputs, &mut good);
        good
    }

    /// Every walk writes faulty words over the good ones and restores
    /// them, so after each entry point that walks, its scratch must hold
    /// the good words of the last superblock it simulated, as a fresh
    /// sweep computes them.
    #[test]
    fn walks_leave_the_good_words_as_they_found_them() {
        for seed in 0..6u64 {
            let netlist = random_netlist(seed, 7 + seed as usize % 4, 60 + 20 * seed as usize);
            let circuit = compile(&netlist);
            let (faults, view) = (FaultList::full(&netlist), circuit.view());
            let engine = FaultSimulator::for_circuit(&circuit, &faults);
            // Two full superblocks and a partial one.
            let patterns = PatternSet::random(netlist.num_inputs(), 600, seed);
            let last = patterns.num_superblocks() - 1;
            let name = netlist.name();
            let mut scratch = StemScratch::new(view);

            let mut matrix = DetectionMatrix::new(faults.len(), patterns.len());
            for sb in 0..patterns.num_superblocks() {
                engine.no_drop_superblock(&patterns, sb, &mut scratch, &mut matrix);
                assert_eq!(scratch.good, fresh_good(view, &patterns, sb), "{name} no-drop {sb}");
            }
            assert_eq!(matrix, engine.no_drop_matrix(&patterns), "{name}");

            // Random circuits keep undetectable faults (dead logic), so
            // neither drive mode stops before the last superblock.
            let drop = engine.with_dropping_in(&patterns, &mut scratch);
            assert!(drop.num_detected() < faults.len(), "{name}: test premise");
            assert_eq!(scratch.good, fresh_good(view, &patterns, last), "{name} dropping");
            for n in [1, 3] {
                engine.n_detect_in(&patterns, n, &mut scratch);
                assert_eq!(scratch.good, fresh_good(view, &patterns, last), "{name} n = {n}");
            }

            // The region-parallel worker, alone on one thread.
            let good_all: Vec<SimWord> = (0..patterns.num_superblocks())
                .flat_map(|sb| fresh_good(view, &patterns, sb))
                .collect();
            let chunks = engine.chunk_group_ranges(3);
            let cursor = AtomicUsize::new(0);
            let hits = engine.detect_chunks(&patterns, &good_all, &chunks, &cursor, &mut scratch);
            assert!(!hits.is_empty(), "{name}");
            assert_eq!(scratch.good, fresh_good(view, &patterns, last), "{name} region split");
        }
    }

    fn equivalence(src: &str, name: &str, inputs: usize) {
        let n = bench_format::parse(src, name).unwrap();
        let faults = FaultList::full(&n);
        let patterns = PatternSet::exhaustive(inputs);
        let per_fault = reference::no_drop_matrix(&compile(&n), &faults, &patterns);
        let stem = FaultSimulator::for_circuit(&compile(&n), &faults).no_drop_matrix(&patterns);
        assert_eq!(per_fault, stem, "{name}");
    }

    #[test]
    fn fanout_reconvergence() {
        // Reconvergent fanout: the classic case where naive critical
        // path tracing beyond the stem would be wrong.
        equivalence(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ns = AND(a, b)\np = NOT(s)\nq = BUF(s)\ny = AND(p, q)\n",
            "reconv",
            2,
        );
    }

    #[test]
    fn chained_reconvergence() {
        // Chained diamonds: the first stem's cone reconverges at the
        // second stem, whose cone reconverges at the output.
        equivalence(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\
             s1 = AND(a, b)\np1 = NOT(s1)\nq1 = BUF(s1)\nj1 = OR(p1, q1)\n\
             p2 = NOT(j1)\nq2 = BUF(j1)\ny = XOR(p2, q2)\n",
            "chained",
            2,
        );
    }

    #[test]
    fn xor_regions() {
        equivalence(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nt = XOR(a, b)\ny = XNOR(t, c)\n",
            "xorchain",
            3,
        );
    }

    #[test]
    fn output_with_fanout_is_observed_everywhere() {
        // g is both a PO and an internal stem: obs(g) must be all-ones.
        equivalence(
            "INPUT(a)\nOUTPUT(g)\nOUTPUT(h)\ng = NOT(a)\nh = BUF(g)\n",
            "po_fan",
            1,
        );
    }

    #[test]
    fn dead_logic_region() {
        equivalence(
            "INPUT(a)\nINPUT(x)\nOUTPUT(y)\ndead = NOT(x)\ny = BUF(a)\n",
            "dead",
            2,
        );
    }

    #[test]
    fn constant_sources() {
        equivalence(
            "INPUT(a)\nOUTPUT(y)\nk = CONST1()\ny = AND(a, k)\n",
            "consts",
            1,
        );
    }

    #[test]
    fn duplicate_fanin_gate() {
        // AND(a, a): `a` reaches the gate through two pins, so it is a
        // root and per-pin sensitization never crosses the duplication.
        let mut b = NetlistBuilder::new("dup");
        let a = b.add_input("a");
        let y = b.add_gate(GateKind::And, "y", &[a, a]).unwrap();
        b.mark_output(y);
        let n = b.build().unwrap();
        let faults = FaultList::full(&n);
        let patterns = PatternSet::exhaustive(1);
        let per_fault = reference::no_drop_matrix(&compile(&n), &faults, &patterns);
        let stem = FaultSimulator::for_circuit(&compile(&n), &faults).no_drop_matrix(&patterns);
        assert_eq!(per_fault, stem);
    }

    #[test]
    fn groups_partition_the_fault_list() {
        let src =
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ns = AND(a, b)\np = NOT(s)\nq = BUF(s)\ny = AND(p, q)\n";
        let n = bench_format::parse(src, "reconv").unwrap();
        let circuit = compile(&n);
        let faults = FaultList::full(&n);
        let engine = FaultSimulator::for_circuit(&circuit, &faults);
        let regions = engine.fault_regions();
        let mut grouped = vec![false; faults.len()];
        for g in 0..regions.num_groups() {
            // Fault ids ascend within a group, and each fault sits in
            // the group of its FFR root.
            let ids = regions.group_faults(g);
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            for &id in ids {
                let root = circuit.ffr().root_of(faults.fault(id).effect_node());
                assert_eq!(circuit.view().position(root), regions.group_root(g));
                assert!(!std::mem::replace(&mut grouped[id.index()], true));
            }
        }
        assert!(grouped.iter().all(|&g| g), "every fault is grouped");
        // Roots strictly ascend.
        assert!(
            (1..regions.num_groups()).all(|g| regions.group_root(g - 1) < regions.group_root(g))
        );
    }

    #[test]
    fn explicit_branch_fault_list() {
        let src = "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUF(a)\nz = NOT(a)\n";
        let n = bench_format::parse(src, "fan").unwrap();
        let y = n.find_node("y").unwrap();
        let faults = FaultList::from_faults(vec![
            Fault::branch_at(y, 0, false),
            Fault::branch_at(y, 0, true),
        ]);
        let patterns = PatternSet::exhaustive(1);
        let per_fault = reference::no_drop_matrix(&compile(&n), &faults, &patterns);
        let stem = FaultSimulator::for_circuit(&compile(&n), &faults).no_drop_matrix(&patterns);
        assert_eq!(per_fault, stem);
    }

    #[test]
    fn empty_pattern_set() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
        let n = bench_format::parse(src, "inv").unwrap();
        let faults = FaultList::collapsed(&n);
        let engine = FaultSimulator::for_circuit(&compile(&n), &faults);
        let matrix = engine.no_drop_matrix(&PatternSet::new(1));
        assert_eq!(matrix.num_patterns(), 0);
        assert_eq!(matrix.num_detected_faults(), 0);
        let par = engine.no_drop_matrix_parallel(&PatternSet::new(1), 4);
        assert_eq!(par.num_detected_faults(), 0);
    }

    #[test]
    fn region_parallel_matches_serial_on_one_block() {
        // One 64-pattern block and many threads: exactly the shape the
        // region split exists for.
        let src = "INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n\
                   OUTPUT(G22)\nOUTPUT(G23)\n\
                   G10 = NAND(G1, G3)\nG11 = NAND(G3, G6)\nG16 = NAND(G2, G11)\n\
                   G19 = NAND(G11, G7)\nG22 = NAND(G10, G16)\nG23 = NAND(G16, G19)\n";
        let n = bench_format::parse(src, "c17").unwrap();
        let faults = FaultList::full(&n);
        let patterns = PatternSet::random(5, 60, 3);
        let engine = FaultSimulator::for_circuit(&compile(&n), &faults);
        let serial = engine.no_drop_matrix(&patterns);
        for threads in [2, 3, 7, 16] {
            assert_eq!(
                serial,
                engine.no_drop_matrix_region_parallel(&patterns, threads),
                "region x{threads}"
            );
            assert_eq!(
                serial,
                engine.no_drop_matrix_parallel(&patterns, threads),
                "auto x{threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn width_mismatch_panics() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
        let n = bench_format::parse(src, "and2").unwrap();
        let faults = FaultList::collapsed(&n);
        let engine = FaultSimulator::for_circuit(&compile(&n), &faults);
        let _ = engine.no_drop_matrix(&PatternSet::exhaustive(3));
    }
}
