//! Selection of the input-vector set `U` (Section 4 of the paper).
//!
//! The paper's procedure: start from 10,000 random vectors, fault-simulate
//! them **with dropping** until either all vectors are consumed or about
//! 90% of the faults are detected after `N` vectors; keep only the first
//! `N` vectors. Optionally, vectors that detected no new fault during the
//! dropping simulation can be removed as a further speed-up.

use std::hash::{Hash, Hasher};

use adi_netlist::fault::FaultList;
use adi_netlist::CompiledCircuit;
use adi_sim::{FaultSimulator, PatternSet};

/// Configuration for [`select_u_for`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct USetConfig {
    /// Size of the initial random vector pool (paper: 10,000).
    pub max_vectors: usize,
    /// Truncate `U` once this fraction of the faults is detected
    /// (paper: ~0.90).
    pub target_coverage: f64,
    /// Seed for the random pool.
    pub seed: u64,
    /// Circuits with at most this many inputs use the exhaustive vector
    /// set instead of random vectors (the paper uses all 16 vectors for
    /// the 4-input `lion` example). Set to 0 to disable.
    pub exhaustive_threshold: usize,
    /// Remove vectors that detected no new fault during the dropping
    /// simulation (the paper's optional speed-up).
    pub strip_useless: bool,
}

impl Default for USetConfig {
    fn default() -> Self {
        USetConfig {
            max_vectors: 10_000,
            target_coverage: 0.90,
            seed: 0xAD1_5EED,
            exhaustive_threshold: 6,
            strip_useless: false,
        }
    }
}

/// Hashes `target_coverage` by bit pattern, with `-0.0` folded onto
/// `0.0` so that equal configs hash equally.
impl Hash for USetConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.max_vectors.hash(state);
        (self.target_coverage + 0.0).to_bits().hash(state);
        self.seed.hash(state);
        self.exhaustive_threshold.hash(state);
        self.strip_useless.hash(state);
    }
}

/// The outcome of [`select_u_for`].
#[derive(Clone, PartialEq, Debug)]
pub struct USelection {
    /// The selected vector set `U`.
    pub patterns: PatternSet,
    /// Fault coverage achieved by `U` during the dropping simulation.
    pub coverage: f64,
    /// `true` if the exhaustive set was used instead of random vectors.
    pub exhaustive: bool,
}

impl USelection {
    /// Number of vectors in `U` (the paper's `N`, Table 4 column `vec`).
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` if `U` is empty (only possible for a fault-free,
    /// zero-vector corner case).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

/// Selects the vector set `U` for a compiled circuit per the paper's
/// Section 4 procedure. This is the primary entry point: the dropping
/// fault simulation behind the selection runs on the compilation's
/// shared artifacts.
///
/// # Examples
///
/// ```
/// use adi_core::uset::{select_u_for, USetConfig};
/// use adi_netlist::{bench_format, CompiledCircuit};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
/// let circuit = CompiledCircuit::compile(n);
/// let sel = select_u_for(&circuit, circuit.collapsed_faults(), USetConfig::default());
/// assert!(sel.exhaustive); // 2 inputs <= default threshold of 6
/// assert_eq!(sel.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn select_u_for(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    config: USetConfig,
) -> USelection {
    let netlist = circuit.netlist();
    let sim = FaultSimulator::for_circuit(circuit, faults);

    if netlist.num_inputs() <= config.exhaustive_threshold {
        let patterns = PatternSet::exhaustive(netlist.num_inputs());
        // Only the coverage is read, so each fault needs one detection.
        let coverage = sim.n_detect(&patterns, 1).coverage();
        return USelection {
            patterns,
            coverage,
            exhaustive: true,
        };
    }

    let pool = PatternSet::random(netlist.num_inputs(), config.max_vectors, config.seed);
    let outcome = sim.with_dropping(&pool);
    let total = faults.len().max(1);
    let goal = (config.target_coverage * total as f64).ceil() as usize;

    // Cumulative detections per vector index.
    let mut new_per_vector = vec![0u32; pool.len()];
    for d in outcome.first_detection.iter().flatten() {
        new_per_vector[*d as usize] += 1;
    }
    let mut acc = 0usize;
    let mut n = pool.len();
    for (i, &d) in new_per_vector.iter().enumerate() {
        acc += d as usize;
        if acc >= goal {
            n = i + 1;
            break;
        }
    }

    let (patterns, covered) = if config.strip_useless {
        let keep: Vec<usize> = (0..n).filter(|&i| new_per_vector[i] > 0).collect();
        let covered: usize = keep.iter().map(|&i| new_per_vector[i] as usize).sum();
        (pool.subset(&keep), covered)
    } else {
        let covered: usize = new_per_vector[..n].iter().map(|&d| d as usize).sum();
        (pool.truncated(n), covered)
    };

    USelection {
        patterns,
        coverage: covered as f64 / total as f64,
        exhaustive: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::bench_format;
    use adi_netlist::{GateKind, Netlist, NetlistBuilder};

    /// A wide OR-of-ANDs circuit: random vectors detect most faults fast.
    fn medium_circuit() -> Netlist {
        let mut b = NetlistBuilder::new("med");
        let inputs: Vec<_> = (0..16).map(|i| b.add_input(format!("i{i}"))).collect();
        let mut layer = Vec::new();
        for w in inputs.chunks(2) {
            layer.push(b.add_gate_auto(GateKind::And, w).unwrap());
        }
        let mut layer2 = Vec::new();
        for w in layer.chunks(2) {
            layer2.push(b.add_gate_auto(GateKind::Xor, w).unwrap());
        }
        let y = b.add_gate_auto(GateKind::Or, &layer2).unwrap();
        b.mark_output(y);
        for &g in &layer {
            b.mark_output(g); // extra observability keeps faults testable
        }
        b.build().unwrap()
    }

    #[test]
    fn exhaustive_below_threshold() {
        let n = bench_format::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "inv").unwrap();
        let faults = FaultList::collapsed(&n);
        let sel = select_u_for(&CompiledCircuit::compile(n.clone()), &faults, USetConfig::default());
        assert!(sel.exhaustive);
        assert_eq!(sel.len(), 2);
        assert!((sel.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncates_at_target_coverage() {
        let n = medium_circuit();
        let faults = FaultList::collapsed(&n);
        let cfg = USetConfig {
            max_vectors: 2000,
            target_coverage: 0.5,
            exhaustive_threshold: 0,
            ..USetConfig::default()
        };
        let sel = select_u_for(&CompiledCircuit::compile(n.clone()), &faults, cfg);
        assert!(!sel.exhaustive);
        assert!(sel.coverage >= 0.5, "coverage {}", sel.coverage);
        assert!(sel.len() <= 2000);
        // Demanding higher coverage never shrinks U.
        let sel90 = select_u_for(
            &CompiledCircuit::compile(n.clone()),
            &faults,
            USetConfig {
                target_coverage: 0.9,
                ..cfg
            },
        );
        assert!(sel90.len() >= sel.len());
    }

    #[test]
    fn strip_useless_removes_only_dead_vectors() {
        let n = medium_circuit();
        let faults = FaultList::collapsed(&n);
        let base = USetConfig {
            max_vectors: 500,
            target_coverage: 0.9,
            exhaustive_threshold: 0,
            ..USetConfig::default()
        };
        let plain = select_u_for(&CompiledCircuit::compile(n.clone()), &faults, base);
        let stripped = select_u_for(
            &CompiledCircuit::compile(n.clone()),
            &faults,
            USetConfig {
                strip_useless: true,
                ..base
            },
        );
        assert!(stripped.len() <= plain.len());
        // Dropping-coverage of the stripped set equals the plain one:
        // removed vectors detected nothing new.
        assert!((stripped.coverage - plain.coverage).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let n = medium_circuit();
        let faults = FaultList::collapsed(&n);
        let cfg = USetConfig {
            exhaustive_threshold: 0,
            max_vectors: 300,
            ..USetConfig::default()
        };
        let a = select_u_for(&CompiledCircuit::compile(n.clone()), &faults, cfg);
        let b = select_u_for(&CompiledCircuit::compile(n.clone()), &faults, cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn never_exceeds_pool_when_target_unreachable() {
        // Target 100% but pool tiny: keep the whole pool.
        let n = medium_circuit();
        let faults = FaultList::collapsed(&n);
        let sel = select_u_for(
            &CompiledCircuit::compile(n.clone()),
            &faults,
            USetConfig {
                max_vectors: 8,
                target_coverage: 1.0,
                exhaustive_threshold: 0,
                ..USetConfig::default()
            },
        );
        assert_eq!(sel.len(), 8);
    }

    #[test]
    fn equal_configs_hash_equally() {
        let hash = |config: &USetConfig| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            config.hash(&mut h);
            h.finish()
        };
        let zero = USetConfig {
            target_coverage: 0.0,
            ..USetConfig::default()
        };
        let negative_zero = USetConfig {
            target_coverage: -0.0,
            ..zero
        };
        assert_eq!(zero, negative_zero);
        assert_eq!(hash(&zero), hash(&negative_zero));
        assert_ne!(hash(&zero), hash(&USetConfig::default()));
    }
}
