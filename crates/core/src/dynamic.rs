//! Dynamic fault ordering (the paper's `Fdynm` construction).
//!
//! The dynamic procedure simulates fault dropping during the ordering
//! itself: each time a fault `f` is appended to the order, it is assumed
//! dropped, so `ndet(u)` is decremented for every `u ∈ D(f)` and the
//! accidental detection indices of the remaining faults are recomputed
//! with the analysis's [`AdiEstimator`].
//!
//! Both estimators only fall as `ndet` falls, so the last ADI computed for
//! a fault bounds its current ADI from above. The order is built by a
//! **lazy level queue**: each fault waits at the level of its last-known
//! ADI, and the levels are processed from the highest down. A level's
//! faults are visited in original fault order. A visited fault whose ADI
//! still equals the level is selected; one whose ADI fell is refiled at a
//! lower level that is still at least its current ADI (its exact ADI, or
//! the witness bound below). Refiles always go to a strictly lower level,
//! so no fault joins a level while it is being processed: each level is a
//! plain `Vec`, sorted once when it is reached and freed after it. The
//! result is the naive greedy's (after every selection, the remaining
//! fault with the highest current ADI, ties to the smallest fault index).
//!
//! Under [`AdiEstimator::MinNdet`] a visit first reads one count. Each
//! fault keeps a **witness**: the vector of `D(f)` that had the least
//! `ndet(u)` at the fault's last row scan. The witness is in `D(f)`, so
//! `ndet(witness)` bounds the fault's current ADI from above. A fault
//! visited at level `l` with `ndet(witness) < l` is therefore stale, and
//! it is refiled at `ndet(witness)` without its row being read. The queue
//! needs only two things to reproduce the greedy: every fault waits at a
//! level at least its current ADI, and every refile goes strictly lower. A
//! witness refile keeps both, because `ADI <= ndet(witness) < l`, so it
//! cannot change the order. It only defers the exact ADI: a fault refiled
//! above its ADI is visited again at that level, and either its witness
//! settles it again or its row is scanned there.
//!
//! When the witness does not settle a visit (`ndet(witness) >= l`, or the
//! fault has not been scanned yet), the row is scanned with a
//! word-parallel staleness test. While level `l` is processed, a
//! `|U|`-bit mask `low` holds the vectors with `ndet(u) < l`. The mask is
//! rebuilt from `ndet` when `l` is reached and gains a bit whenever a
//! selection drops an `ndet(u)` below `l`. A fault at level `l` is stale
//! iff its row of the detection matrix intersects `low`. Its exact ADI is
//! then the minimum `ndet(u)` over just that intersection, because every
//! other vector of its row still has `ndet(u) >= l`. It is refiled there,
//! and the vector with that minimum becomes its new witness; a fault whose
//! row misses `low` is selected. A scan costs `O(|U|/64 + |D(f) ∩ low|)`.
//! Under [`AdiEstimator::MeanNdet`] a visit recomputes
//! `⌊Σ ndet(u) / |D(f)|⌋` over the row.
//!
//! Visits outnumber selections by two orders of magnitude, because a
//! fault's ADI usually falls one level at a time and each fall costs a
//! visit. Most of those visits are settled by the witness. On a 60-input,
//! 800-gate generated circuit the queue makes 838,406 visits for 2,643
//! selections; the witness settles 714,250 of them and 124,156 scan a
//! row. With the `irs820` stand-in and a 10,000-vector `U` it makes
//! 95,870 visits for 919 selections, of which 15,563 scan a row. On the
//! `irs13207` stand-in the witness settles 57.1M of 67.7M visits.

use adi_netlist::fault::FaultId;

use crate::{AdiAnalysis, AdiEstimator};

/// `witness[f]` before `f`'s first row scan: no vector's index.
const NO_WITNESS: u32 = u32::MAX;

/// Computes the dynamic decreasing-ADI order over the faults **detected**
/// by `U` (zero-ADI faults are excluded; callers append or prepend them
/// per the `Fdynm`/`F0dynm` convention).
///
/// Ties between equal current ADI values are broken by original fault
/// order, making the result deterministic.
///
/// # Examples
///
/// ```
/// use adi_core::{dynamic::dynamic_order, AdiAnalysis, AdiConfig};
/// use adi_netlist::{bench_format, CompiledCircuit};
/// use adi_sim::PatternSet;
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
/// let circuit = CompiledCircuit::compile(n);
/// let faults = circuit.collapsed_faults().clone();
/// let adi = AdiAnalysis::for_circuit(&circuit, &faults, &PatternSet::exhaustive(2), AdiConfig::default());
/// let order = dynamic_order(&adi);
/// assert_eq!(order.len(), faults.len()); // all faults detected here
/// # Ok(())
/// # }
/// ```
pub fn dynamic_order(analysis: &AdiAnalysis) -> Vec<FaultId> {
    dynamic_order_traced(analysis).order
}

/// A trace of the dynamic ordering: the order plus the current ADI of each
/// fault at the moment it was selected (used by tests, the Section-2
/// walkthrough harness, and ablation tooling).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DynamicTrace {
    /// Selected faults, most attractive first.
    pub order: Vec<FaultId>,
    /// `selected_adi[i]` is the (updated) ADI of `order[i]` when selected.
    pub selected_adi: Vec<u32>,
}

/// Like [`dynamic_order`] but also reports the ADI value at each
/// selection.
pub fn dynamic_order_traced(analysis: &AdiAnalysis) -> DynamicTrace {
    let matrix = analysis.matrix();
    let estimator = analysis.config().estimator;
    let mut ndet: Vec<u32> = analysis.ndet_counts().to_vec();

    // levels[l] holds the faults whose last-known ADI is l. Faults U does
    // not detect (ADI 0) are left out.
    let top = analysis.adi_values().iter().copied().max().unwrap_or(0);
    let mut levels: Vec<Vec<FaultId>> = vec![Vec::new(); top as usize + 1];
    for (f, &a) in analysis.adi_values().iter().enumerate() {
        if a > 0 {
            levels[a as usize].push(FaultId::new(f));
        }
    }
    let detected: usize = levels.iter().map(Vec::len).sum();

    let mut order = Vec::with_capacity(detected);
    let mut selected_adi = Vec::with_capacity(detected);
    // Bit u is set iff ndet(u) is below the level being processed, and
    // witness[f] is the vector of D(f) with the least ndet(u) at f's last
    // row scan (NO_WITNESS before its first). Only the MinNdet test reads
    // them.
    let mut low = vec![0u64; matrix.num_blocks()];
    let mut witness = vec![NO_WITNESS; matrix.num_faults()];
    assert!(
        ndet.len() < NO_WITNESS as usize,
        "a witness holds a vector index in a u32"
    );
    for level in (1..=top).rev() {
        let mut queue = std::mem::take(&mut levels[level as usize]);
        if queue.is_empty() {
            continue;
        }
        // Descending, so `pop` visits the smallest fault index first.
        queue.sort_unstable_by(|a, b| b.cmp(a));
        for (word, counts) in low.iter_mut().zip(ndet.chunks(64)) {
            *word = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c < level)
                .fold(0, |w, (i, _)| w | 1 << i);
        }
        while let Some(f) = queue.pop() {
            let row = matrix.row(f);
            let a = match estimator {
                AdiEstimator::MinNdet => {
                    let w = &mut witness[f.index()];
                    match ndet.get(*w as usize) {
                        // Stale by its witness alone: ndet(w) bounds the
                        // ADI from above, so the row need not be read.
                        Some(&bound) if bound < level => {
                            debug_assert!(
                                estimator.aggregate(matrix.detecting_patterns(f), &ndet) <= bound,
                                "a witness must bound its fault's ADI from above"
                            );
                            bound
                        }
                        _ => match masked_min(row, &low, &ndet) {
                            Some((u, min)) => {
                                *w = u as u32;
                                min
                            }
                            None => level,
                        },
                    }
                }
                AdiEstimator::MeanNdet => estimator.aggregate(matrix.detecting_patterns(f), &ndet),
            };
            debug_assert!(a <= level, "ADI must be monotone non-increasing");
            if a < level {
                // Stale: refile strictly below the level being processed.
                levels[a as usize].push(f);
                continue;
            }
            debug_assert_eq!(
                estimator.aggregate(matrix.detecting_patterns(f), &ndet),
                level
            );
            order.push(f);
            selected_adi.push(level);
            // Simulate f's drop.
            for (b, (&bits, low_word)) in row.iter().zip(low.iter_mut()).enumerate() {
                let mut w = bits;
                while w != 0 {
                    let t = w.trailing_zeros();
                    w &= w - 1;
                    let count = &mut ndet[b * 64 + t as usize];
                    *count -= 1;
                    if *count < level {
                        *low_word |= 1 << t;
                    }
                }
            }
        }
    }
    // A detected, unselected fault keeps ADI >= 1: ndet(u) for u in D(f)
    // counts f itself until f is selected.
    debug_assert_eq!(order.len(), detected);

    DynamicTrace {
        order,
        selected_adi,
    }
}

/// Among the vectors set in both `row` and `low`, the first with the least
/// `ndet(u)`, and that count; `None` when they share none.
fn masked_min(row: &[u64], low: &[u64], ndet: &[u32]) -> Option<(usize, u32)> {
    let (mut at, mut min) = (0, u32::MAX);
    for (b, (&r, &m)) in row.iter().zip(low).enumerate() {
        let mut w = r & m;
        while w != 0 {
            let u = b * 64 + w.trailing_zeros() as usize;
            if ndet[u] < min {
                (at, min) = (u, ndet[u]);
            }
            w &= w - 1;
        }
    }
    (min != u32::MAX).then_some((at, min))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdiConfig;
    use adi_netlist::fault::FaultList;
    use adi_netlist::bench_format;
    use adi_sim::{DetectionMatrix, PatternSet};

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

    fn c17_analysis() -> AdiAnalysis {
        let n = bench_format::parse(C17, "c17").unwrap();
        let faults = FaultList::collapsed(&n);
        AdiAnalysis::for_circuit(
            &adi_netlist::CompiledCircuit::compile(n.clone()),
            &faults,
            &PatternSet::exhaustive(5),
            AdiConfig::default(),
        )
    }

    #[test]
    fn selected_values_are_nonincreasing() {
        let analysis = c17_analysis();
        let trace = dynamic_order_traced(&analysis);
        assert!(trace
            .selected_adi
            .windows(2)
            .all(|w| w[0] >= w[1]),
            "{:?}",
            trace.selected_adi
        );
    }

    #[test]
    fn first_selection_has_global_max_adi() {
        let analysis = c17_analysis();
        let trace = dynamic_order_traced(&analysis);
        let max = (0..analysis.num_faults())
            .map(FaultId::new)
            .map(|f| analysis.adi(f))
            .max()
            .unwrap();
        assert_eq!(trace.selected_adi[0], max);
        assert_eq!(analysis.adi(trace.order[0]), max);
    }

    #[test]
    fn covers_exactly_detected_faults() {
        let analysis = c17_analysis();
        let order = dynamic_order(&analysis);
        let detected: Vec<FaultId> = (0..analysis.num_faults())
            .map(FaultId::new)
            .filter(|&f| analysis.detected(f))
            .collect();
        assert_eq!(order.len(), detected.len());
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, detected);
    }

    /// Hand-built miniature mirroring the paper's Section-3 walkthrough
    /// mechanics: selecting a fault lowers ndet of its vectors and thereby
    /// the ADI of faults sharing those vectors.
    #[test]
    fn hand_example_with_shared_vectors() {
        // 3 faults, 2 vectors.
        // D(f0) = {u0};      ndet contribution
        // D(f1) = {u0, u1};
        // D(f2) = {u1};
        // ndet(u0) = 2, ndet(u1) = 2.
        // Initial ADI: f0=2, f1=2, f2=2. Tie broken by original order: f0
        // first. After f0: ndet(u0)=1 -> ADI(f1)=1, ADI(f2)=2 -> f2 next,
        // then f1.
        let mut m = DetectionMatrix::new(3, 2);
        m.set(FaultId::new(0), 0);
        m.set(FaultId::new(1), 0);
        m.set(FaultId::new(1), 1);
        m.set(FaultId::new(2), 1);
        let analysis = AdiAnalysis::from_matrix(
            m,
            AdiConfig {
                estimator: AdiEstimator::MinNdet,
                ..AdiConfig::default()
            },
        );
        let trace = dynamic_order_traced(&analysis);
        let ids: Vec<usize> = trace.order.iter().map(|f| f.index()).collect();
        assert_eq!(ids, vec![0, 2, 1]);
        assert_eq!(trace.selected_adi, vec![2, 2, 1]);
    }

    #[test]
    fn empty_analysis_yields_empty_order() {
        let analysis = AdiAnalysis::from_matrix(
            DetectionMatrix::new(0, 0),
            AdiConfig::default(),
        );
        assert!(dynamic_order(&analysis).is_empty());
    }
}
