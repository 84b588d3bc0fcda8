//! Computation of the accidental detection index (Section 2 of the paper).

use adi_netlist::fault::{FaultId, FaultList};
use adi_netlist::CompiledCircuit;
use adi_sim::{DetectionMatrix, FaultSimulator, PatternSet};

/// How `ADI(f)` is aggregated from the detection counts of the vectors in
/// `D(f)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum AdiEstimator {
    /// The paper's conservative definition: the minimum `ndet(u)` over
    /// `u ∈ D(f)`.
    #[default]
    MinNdet,
    /// The mean `ndet(u)` over `u ∈ D(f)`, rounded down — the alternative
    /// the paper mentions in Section 2.
    MeanNdet,
}

impl AdiEstimator {
    /// Aggregates `ndet(u)` over the vectors `d` of one fault's `D(f)`; 0
    /// when `d` is empty.
    pub(crate) fn aggregate(self, d: impl Iterator<Item = usize>, ndet: &[u32]) -> u32 {
        match self {
            AdiEstimator::MinNdet => d.map(|u| ndet[u]).min().unwrap_or(0),
            AdiEstimator::MeanNdet => {
                let (mut sum, mut count) = (0u64, 0u64);
                for u in d {
                    sum += u64::from(ndet[u]);
                    count += 1;
                }
                sum.checked_div(count).unwrap_or(0) as u32
            }
        }
    }
}

/// Configuration for [`AdiAnalysis::for_circuit`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct AdiConfig {
    /// Aggregation over `D(f)`.
    pub estimator: AdiEstimator,
    /// If `Some(n)`, approximate the no-drop simulation by n-detection
    /// simulation: each fault contributes only its first `n` detections
    /// to `ndet(u)` and `D(f)`. `None` reproduces the paper's exact
    /// no-drop computation.
    pub n_detect_cap: Option<u32>,
    /// Number of OS threads for the underlying no-drop fault simulation
    /// (0 or 1 = serial).
    pub threads: usize,
}

/// Summary statistics for one circuit's ADI values (the paper's Table 4
/// row: `ADImin`, `ADImax`, and their ratio over detected faults).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AdiSummary {
    /// Minimum ADI over faults detected by `U`.
    pub min: u32,
    /// Maximum ADI over faults detected by `U`.
    pub max: u32,
    /// `max / min` (0 when no fault is detected).
    pub ratio: f64,
    /// Number of faults detected by `U`.
    pub detected: usize,
    /// Total faults.
    pub total: usize,
}

/// The accidental detection analysis of one circuit under a vector set `U`.
///
/// Holds the full fault × vector [`DetectionMatrix`] (the sets `D(f)`),
/// the per-vector counts `ndet(u)`, and the per-fault index `ADI(f)`.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Clone, PartialEq, Debug)]
pub struct AdiAnalysis {
    matrix: DetectionMatrix,
    ndet: Vec<u32>,
    adi: Vec<u32>,
    config: AdiConfig,
}

impl AdiAnalysis {
    /// Simulates `faults` under `patterns` without dropping over an
    /// already-compiled circuit and computes all indices. This is the
    /// primary entry point: all per-circuit artifacts come from the
    /// compilation.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the circuit.
    pub fn for_circuit(
        circuit: &CompiledCircuit,
        faults: &FaultList,
        patterns: &PatternSet,
        config: AdiConfig,
    ) -> Self {
        let sim = FaultSimulator::for_circuit(circuit, faults);
        let mut matrix = if config.threads > 1 {
            sim.no_drop_matrix_parallel(patterns, config.threads)
        } else {
            sim.no_drop_matrix(patterns)
        };
        if let Some(cap) = config.n_detect_cap {
            matrix = cap_matrix(&matrix, cap);
        }
        Self::from_matrix(matrix, config)
    }

    /// Builds the analysis from a precomputed detection matrix.
    pub fn from_matrix(matrix: DetectionMatrix, config: AdiConfig) -> Self {
        let ndet = matrix.ndet_counts();
        let adi = (0..matrix.num_faults())
            .map(|f| {
                let d = matrix.detecting_patterns(FaultId::new(f));
                config.estimator.aggregate(d, &ndet)
            })
            .collect();
        AdiAnalysis {
            matrix,
            ndet,
            adi,
            config,
        }
    }

    /// The configuration used.
    pub fn config(&self) -> AdiConfig {
        self.config
    }

    /// `ADI(f)`: zero iff `U` does not detect `f`; at least 1 otherwise
    /// (the fault itself is counted in `ndet(u)`).
    ///
    /// # Panics
    ///
    /// Panics if `fault` is out of range.
    #[inline]
    pub fn adi(&self, fault: FaultId) -> u32 {
        self.adi[fault.index()]
    }

    /// All ADI values, indexed by fault id.
    pub fn adi_values(&self) -> &[u32] {
        &self.adi
    }

    /// `ndet(u)`: the number of faults vector `u` detects.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[inline]
    pub fn ndet(&self, pattern: usize) -> u32 {
        self.ndet[pattern]
    }

    /// All `ndet(u)` counts, indexed by pattern.
    pub fn ndet_counts(&self) -> &[u32] {
        &self.ndet
    }

    /// Returns `true` if `U` detects `fault`.
    pub fn detected(&self, fault: FaultId) -> bool {
        self.matrix.detected_any(fault)
    }

    /// Iterates over `D(f)`: the vectors detecting `fault`.
    pub fn detecting_patterns(&self, fault: FaultId) -> impl Iterator<Item = usize> + '_ {
        self.matrix.detecting_patterns(fault)
    }

    /// The underlying detection matrix.
    pub fn matrix(&self) -> &DetectionMatrix {
        &self.matrix
    }

    /// Number of faults.
    pub fn num_faults(&self) -> usize {
        self.matrix.num_faults()
    }

    /// Number of vectors in `U`.
    pub fn num_patterns(&self) -> usize {
        self.matrix.num_patterns()
    }

    /// Table-4 style summary over faults detected by `U`.
    pub fn summary(&self) -> AdiSummary {
        let detected: Vec<u32> = (0..self.num_faults())
            .map(FaultId::new)
            .filter(|&f| self.detected(f))
            .map(|f| self.adi(f))
            .collect();
        let min = detected.iter().copied().min().unwrap_or(0);
        let max = detected.iter().copied().max().unwrap_or(0);
        AdiSummary {
            min,
            max,
            ratio: if min == 0 {
                0.0
            } else {
                f64::from(max) / f64::from(min)
            },
            detected: detected.len(),
            total: self.num_faults(),
        }
    }
}

/// Keeps only the first `cap` detections of each fault (row-wise), the
/// n-detection approximation of the no-drop matrix.
fn cap_matrix(matrix: &DetectionMatrix, cap: u32) -> DetectionMatrix {
    let mut out = DetectionMatrix::new(matrix.num_faults(), matrix.num_patterns());
    for f in 0..matrix.num_faults() {
        let id = FaultId::new(f);
        for (count, u) in matrix.detecting_patterns(id).enumerate() {
            if count as u32 >= cap {
                break;
            }
            out.set(id, u);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::{bench_format, Netlist};

    const AND2: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";

    fn and2_analysis() -> (Netlist, FaultList, AdiAnalysis) {
        let n = bench_format::parse(AND2, "and2").unwrap();
        let faults = FaultList::collapsed(&n);
        let u = PatternSet::exhaustive(2);
        let adi = AdiAnalysis::for_circuit(&CompiledCircuit::compile(n.clone()), &faults, &u, AdiConfig::default());
        (n, faults, adi)
    }

    /// Hand-computed ground truth for the collapsed AND2 fault list over
    /// the exhaustive set. Collapsed faults: {a/0,b/0,y/0} (rep a/0), a/1,
    /// b/1, y/1.
    ///
    /// Vector (a,b) with decimal a=MSB: 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1).
    /// Detections: a0-class by (1,1); a1 by (0,1); b1 by (1,0); y1 by
    /// (0,0),(0,1),(1,0).
    #[test]
    fn and2_ndet_and_adi_hand_checked() {
        let (_, faults, adi) = and2_analysis();
        assert_eq!(adi.ndet_counts(), &[1, 2, 2, 1]);
        // Identify faults by their detection rows rather than list order.
        let mut seen = vec![];
        for f in faults.ids() {
            let d: Vec<usize> = adi.detecting_patterns(f).collect();
            let a = adi.adi(f);
            seen.push((d, a));
        }
        assert!(seen.contains(&(vec![3], 1))); // a/0 class: D={3}, ADI=1
        assert!(seen.contains(&(vec![1], 2))); // a/1: D={1}, ndet=2
        assert!(seen.contains(&(vec![2], 2))); // b/1
        assert!(seen.contains(&(vec![0, 1, 2], 1))); // y/1: min(1,2,2)=1
    }

    #[test]
    fn adi_zero_iff_undetected() {
        // A redundant fault is never detected => ADI = 0.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let n = bench_format::parse(src, "taut").unwrap();
        let faults = FaultList::full(&n);
        let u = PatternSet::exhaustive(1);
        let adi = AdiAnalysis::for_circuit(&CompiledCircuit::compile(n.clone()), &faults, &u, AdiConfig::default());
        for f in faults.ids() {
            assert_eq!(adi.adi(f) == 0, !adi.detected(f), "fault {f}");
        }
        // y stuck-at-1 (constant circuit) must be among the undetected.
        assert!(faults.ids().any(|f| adi.adi(f) == 0));
    }

    #[test]
    fn adi_bounded_by_ndet_range() {
        let (_, faults, adi) = and2_analysis();
        let max_ndet = adi.ndet_counts().iter().copied().max().unwrap();
        for f in faults.ids() {
            assert!(adi.adi(f) <= max_ndet);
            if adi.detected(f) {
                assert!(adi.adi(f) >= 1);
            }
        }
    }

    #[test]
    fn mean_estimator_at_least_min() {
        let n = bench_format::parse(AND2, "and2").unwrap();
        let faults = FaultList::collapsed(&n);
        let u = PatternSet::exhaustive(2);
        let min = AdiAnalysis::for_circuit(&CompiledCircuit::compile(n.clone()), &faults, &u, AdiConfig::default());
        let mean = AdiAnalysis::for_circuit(
            &CompiledCircuit::compile(n.clone()),
            &faults,
            &u,
            AdiConfig {
                estimator: AdiEstimator::MeanNdet,
                ..AdiConfig::default()
            },
        );
        for f in faults.ids() {
            assert!(mean.adi(f) >= min.adi(f), "fault {f}");
        }
        // y/1 has D = {0,1,2} with ndet {1,2,2}: mean floor = 1, min = 1.
        // a/1 has singleton D: estimators agree.
    }

    #[test]
    fn n_detect_cap_reduces_ndet() {
        let n = bench_format::parse(AND2, "and2").unwrap();
        let faults = FaultList::collapsed(&n);
        let u = PatternSet::exhaustive(2);
        let exact = AdiAnalysis::for_circuit(&CompiledCircuit::compile(n.clone()), &faults, &u, AdiConfig::default());
        let capped = AdiAnalysis::for_circuit(
            &CompiledCircuit::compile(n.clone()),
            &faults,
            &u,
            AdiConfig {
                n_detect_cap: Some(1),
                ..AdiConfig::default()
            },
        );
        // Capped ndet counts are pointwise <= exact.
        for (c, e) in capped.ndet_counts().iter().zip(exact.ndet_counts()) {
            assert!(c <= e);
        }
        // Every detected fault remains detected (cap >= 1).
        for f in faults.ids() {
            assert_eq!(capped.detected(f), exact.detected(f));
        }
    }

    #[test]
    fn parallel_threads_match_serial() {
        let (n, faults, serial) = and2_analysis();
        let u = PatternSet::exhaustive(2);
        let par = AdiAnalysis::for_circuit(
            &CompiledCircuit::compile(n.clone()),
            &faults,
            &u,
            AdiConfig {
                threads: 4,
                ..AdiConfig::default()
            },
        );
        assert_eq!(serial.adi_values(), par.adi_values());
        assert_eq!(serial.ndet_counts(), par.ndet_counts());
    }

    #[test]
    fn per_fault_engine_matches_default() {
        let (n, faults, stem) = and2_analysis();
        let u = PatternSet::exhaustive(2);
        let per_fault = AdiAnalysis::from_matrix(
            adi_sim::reference::no_drop_matrix(&CompiledCircuit::compile(n.clone()), &faults, &u),
            AdiConfig::default(),
        );
        assert_eq!(stem.matrix(), per_fault.matrix());
        assert_eq!(stem.adi_values(), per_fault.adi_values());
        assert_eq!(stem.ndet_counts(), per_fault.ndet_counts());
    }

    #[test]
    fn summary_matches_hand_values() {
        let (_, _, adi) = and2_analysis();
        let s = adi.summary();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 2);
        assert!((s.ratio - 2.0).abs() < 1e-12);
        assert_eq!(s.detected, 4);
        assert_eq!(s.total, 4);
    }
}
