//! Property-based tests of the accidental detection index itself and of
//! the fault orders built from it.

use adi::circuits::{embedded, random_circuit, RandomCircuitConfig};
use adi::core::dynamic::{dynamic_order_traced, DynamicTrace};
use adi::core::metrics::average_detection_position;
use adi::core::{order_faults, AdiAnalysis, AdiConfig, AdiEstimator, FaultOrdering};
use adi::netlist::fault::{FaultId, FaultList};
use adi::netlist::{CompiledCircuit, Netlist};
use adi::sim::{CoverageCurve, DetectionMatrix, PatternSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny_circuit() -> impl Strategy<Value = Netlist> {
    (2usize..=8, 4usize..=30, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        random_circuit(&RandomCircuitConfig::new("prop", inputs, gates, seed))
    })
}

fn analysis_for(netlist: &Netlist, seed: u64) -> (FaultList, AdiAnalysis) {
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = FaultList::collapsed(netlist);
    let patterns = PatternSet::random(netlist.num_inputs(), 96, seed);
    let analysis = AdiAnalysis::for_circuit(&circuit, &faults, &patterns, AdiConfig::default());
    (faults, analysis)
}

const ESTIMATORS: [AdiEstimator; 2] = [AdiEstimator::MinNdet, AdiEstimator::MeanNdet];

fn analysis_with(netlist: &Netlist, patterns: &PatternSet, estimator: AdiEstimator) -> AdiAnalysis {
    AdiAnalysis::for_circuit(
        &CompiledCircuit::compile(netlist.clone()),
        &FaultList::collapsed(netlist),
        patterns,
        AdiConfig {
            estimator,
            ..AdiConfig::default()
        },
    )
}

/// Reference for the dynamic orders: the naive O(n²) greedy. After every
/// selection it recomputes the ADI of each remaining detected fault under
/// `estimator` from the decremented counts, and selects the highest, ties
/// to the smallest fault index.
fn naive_dynamic(analysis: &AdiAnalysis, estimator: AdiEstimator) -> DynamicTrace {
    let mut ndet: Vec<u32> = analysis.ndet_counts().to_vec();
    let current = |f: FaultId, ndet: &[u32]| -> u32 {
        let counts = analysis.detecting_patterns(f).map(|u| ndet[u]);
        match estimator {
            AdiEstimator::MinNdet => counts.min().unwrap(),
            AdiEstimator::MeanNdet => {
                let sum: u32 = counts.sum();
                sum / analysis.detecting_patterns(f).count() as u32
            }
        }
    };
    let mut remaining: Vec<FaultId> = (0..analysis.num_faults())
        .map(FaultId::new)
        .filter(|&f| analysis.detected(f))
        .collect();
    let mut trace = DynamicTrace {
        order: Vec::new(),
        selected_adi: Vec::new(),
    };
    while !remaining.is_empty() {
        let mut best = 0;
        let mut best_adi = current(remaining[0], &ndet);
        for (i, &f) in remaining.iter().enumerate().skip(1) {
            let a = current(f, &ndet);
            if a > best_adi {
                (best, best_adi) = (i, a);
            }
        }
        let f = remaining.remove(best);
        for u in analysis.detecting_patterns(f) {
            ndet[u] -= 1;
        }
        trace.order.push(f);
        trace.selected_adi.push(best_adi);
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adi_is_zero_iff_undetected(netlist in tiny_circuit(), seed in any::<u64>()) {
        let (faults, analysis) = analysis_for(&netlist, seed);
        for f in faults.ids() {
            prop_assert_eq!(analysis.adi(f) == 0, !analysis.detected(f));
        }
    }

    #[test]
    fn adi_is_min_over_detecting_vectors(netlist in tiny_circuit(), seed in any::<u64>()) {
        let (faults, analysis) = analysis_for(&netlist, seed);
        for f in faults.ids() {
            if analysis.detected(f) {
                let min = analysis
                    .detecting_patterns(f)
                    .map(|u| analysis.ndet(u))
                    .min()
                    .unwrap();
                prop_assert_eq!(analysis.adi(f), min);
                // Every detecting vector counts f itself.
                prop_assert!(min >= 1);
            }
        }
    }

    #[test]
    fn mean_estimator_dominates_min(netlist in tiny_circuit(), seed in any::<u64>()) {
        let circuit = CompiledCircuit::compile(netlist.clone());
        let faults = FaultList::collapsed(&netlist);
        let patterns = PatternSet::random(netlist.num_inputs(), 96, seed);
        let min = AdiAnalysis::for_circuit(&circuit, &faults, &patterns, AdiConfig::default());
        let mean = AdiAnalysis::for_circuit(
            &circuit,
            &faults,
            &patterns,
            AdiConfig { estimator: AdiEstimator::MeanNdet, ..AdiConfig::default() },
        );
        for f in faults.ids() {
            prop_assert!(mean.adi(f) >= min.adi(f));
        }
    }

    #[test]
    fn all_orderings_are_permutations(netlist in tiny_circuit(), seed in any::<u64>()) {
        let (faults, analysis) = analysis_for(&netlist, seed);
        for ordering in FaultOrdering::ALL {
            let order = order_faults(&analysis, ordering);
            prop_assert_eq!(order.len(), faults.len());
            let mut seen = vec![false; faults.len()];
            for f in &order {
                prop_assert!(!seen[f.index()]);
                seen[f.index()] = true;
            }
        }
    }

    #[test]
    fn dynamic_trace_is_monotone_and_bounded(netlist in tiny_circuit(), seed in any::<u64>()) {
        let (_, analysis) = analysis_for(&netlist, seed);
        let trace = dynamic_order_traced(&analysis);
        prop_assert!(trace.selected_adi.windows(2).all(|w| w[0] >= w[1]));
        for (&f, &sel) in trace.order.iter().zip(&trace.selected_adi) {
            // Dynamic values never exceed the static ADI.
            prop_assert!(sel <= analysis.adi(f));
            prop_assert!(sel >= 1);
        }
    }

    #[test]
    fn dynamic_first_pick_is_static_argmax(netlist in tiny_circuit(), seed in any::<u64>()) {
        let (faults, analysis) = analysis_for(&netlist, seed);
        let trace = dynamic_order_traced(&analysis);
        if let Some(&first) = trace.order.first() {
            let max = faults.ids().map(|f| analysis.adi(f)).max().unwrap();
            prop_assert_eq!(analysis.adi(first), max);
        }
    }

    #[test]
    fn dynamic_order_matches_naive_greedy(netlist in tiny_circuit(), seed in any::<u64>()) {
        // Rows of two (96 vectors) and four (200) words, each ending in a
        // partial word.
        for vectors in [96, 200] {
            let patterns = PatternSet::random(netlist.num_inputs(), vectors, seed);
            for estimator in ESTIMATORS {
                let analysis = analysis_with(&netlist, &patterns, estimator);
                prop_assert_eq!(
                    dynamic_order_traced(&analysis),
                    naive_dynamic(&analysis, estimator),
                    "{:?} over {} vectors", estimator, vectors
                );
            }
        }
    }

    #[test]
    fn ndet_counts_are_column_sums(netlist in tiny_circuit(), seed in any::<u64>()) {
        let (faults, analysis) = analysis_for(&netlist, seed);
        let total_from_ndet: u64 = analysis.ndet_counts().iter().map(|&c| u64::from(c)).sum();
        let total_from_rows: u64 = faults
            .ids()
            .map(|f| analysis.detecting_patterns(f).count() as u64)
            .sum();
        prop_assert_eq!(total_from_ndet, total_from_rows);
    }

    #[test]
    fn ave_is_within_test_index_range(news in proptest::collection::vec(0u32..5, 1..40)) {
        let total: u32 = news.iter().sum();
        let curve = CoverageCurve::from_new_detections(&news, (total + 5) as usize);
        let ave = average_detection_position(&curve);
        if total == 0 {
            prop_assert_eq!(ave, 0.0);
        } else {
            prop_assert!(ave >= 1.0 - 1e-12);
            prop_assert!(ave <= news.len() as f64 + 1e-12);
        }
    }

    #[test]
    fn n_detect_cap_never_increases_counts(netlist in tiny_circuit(), seed in any::<u64>(), cap in 1u32..6) {
        let circuit = CompiledCircuit::compile(netlist.clone());
        let faults = FaultList::collapsed(&netlist);
        let patterns = PatternSet::random(netlist.num_inputs(), 96, seed);
        let exact = AdiAnalysis::for_circuit(&circuit, &faults, &patterns, AdiConfig::default());
        let capped = AdiAnalysis::for_circuit(
            &circuit,
            &faults,
            &patterns,
            AdiConfig { n_detect_cap: Some(cap), ..AdiConfig::default() },
        );
        for (c, e) in capped.ndet_counts().iter().zip(exact.ndet_counts()) {
            prop_assert!(c <= e);
        }
        for f in faults.ids() {
            prop_assert_eq!(capped.detected(f), exact.detected(f));
            prop_assert!(capped.detecting_patterns(f).count() as u32 <= cap);
        }
    }
}

#[test]
fn matches_naive_reference_on_c17() {
    let c17 = embedded::c17();
    for estimator in ESTIMATORS {
        let analysis = analysis_with(&c17, &PatternSet::exhaustive(5), estimator);
        assert_eq!(
            dynamic_order_traced(&analysis),
            naive_dynamic(&analysis, estimator),
            "{estimator:?}"
        );
    }
}

#[test]
fn zero_adi_faults_keep_relative_order() {
    // Zero-ADI faults must appear in original order in every ordering
    // (the paper does not reorder them among themselves).
    let netlist = random_circuit(&RandomCircuitConfig::new("z", 6, 40, 3));
    let faults = FaultList::collapsed(&netlist);
    // A tiny U leaves many faults undetected (ADI = 0).
    let patterns = PatternSet::random(6, 2, 1);
    let analysis = AdiAnalysis::for_circuit(
        &CompiledCircuit::compile(netlist.clone()),
        &faults,
        &patterns,
        AdiConfig::default(),
    );
    let zeros: Vec<FaultId> = faults.ids().filter(|&f| analysis.adi(f) == 0).collect();
    assert!(!zeros.is_empty(), "expected undetected faults with |U| = 2");
    for ordering in FaultOrdering::ALL {
        let order = order_faults(&analysis, ordering);
        let in_order: Vec<FaultId> = order
            .iter()
            .copied()
            .filter(|f| analysis.adi(*f) == 0)
            .collect();
        assert_eq!(in_order, zeros, "{ordering}");
    }
}

/// A seeded detection matrix of `faults` rows over `vectors` columns at
/// density about 1/3, close to that of `U` on the benchmark's `flow`
/// circuits. About one row in ten repeats an earlier row (equal ADI all
/// the way down) and one in twenty detects a single vector.
fn random_matrix(faults: usize, vectors: usize, seed: u64) -> DetectionMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = DetectionMatrix::new(faults, vectors);
    for f in (0..faults).map(FaultId::new) {
        let row: Vec<usize> = match rng.gen_range(0..20u32) {
            0 | 1 if f.index() > 0 => {
                let earlier = FaultId::new(rng.gen_range(0..f.index()));
                m.detecting_patterns(earlier).collect()
            }
            2 => vec![rng.gen_range(0..vectors)],
            _ => (0..vectors)
                .filter(|_| rng.gen_range(0..3u32) == 0)
                .collect(),
        };
        for u in row {
            m.set(f, u);
        }
    }
    m
}

/// Long refile chains: with hundreds of faults on each vector, a fault's
/// ADI falls through dozens of levels before it is selected, so the
/// level queue refiles each fault 22 to 56 times on average here, against
/// about 11 on the small circuits of `dynamic_order_matches_naive_greedy`.
/// Rows span 1, 3, 7 and 11 words; all but the first end in a partial
/// word.
#[test]
fn long_refile_chains_match_naive_greedy() {
    for (faults, vectors, seed) in [(500, 64, 1), (300, 150, 2), (250, 420, 3), (200, 700, 4)] {
        for estimator in ESTIMATORS {
            let analysis = AdiAnalysis::from_matrix(
                random_matrix(faults, vectors, seed),
                AdiConfig {
                    estimator,
                    ..AdiConfig::default()
                },
            );
            assert_eq!(
                dynamic_order_traced(&analysis),
                naive_dynamic(&analysis, estimator),
                "{estimator:?}, {faults} faults over {vectors} vectors"
            );
        }
    }
}
