//! Circuit generators: structured blocks and seeded random DAGs.

use adi_netlist::{GateKind, Netlist, NetlistBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates an `n`-bit ripple-carry adder (`2n + 1` inputs: `a*`, `b*`,
/// `cin`; `n + 1` outputs: `s*`, `cout`).
///
/// # Panics
///
/// Panics if `bits == 0`.
///
/// # Examples
///
/// ```
/// use adi_circuits::generators::ripple_carry_adder;
///
/// let adder = ripple_carry_adder(4);
/// assert_eq!(adder.num_inputs(), 9);
/// assert_eq!(adder.num_outputs(), 5);
/// ```
pub fn ripple_carry_adder(bits: usize) -> Netlist {
    assert!(bits > 0, "adder needs at least one bit");
    let mut b = NetlistBuilder::new(format!("rca{bits}"));
    let a_in: Vec<NodeId> = (0..bits).map(|i| b.add_input(format!("a{i}"))).collect();
    let b_in: Vec<NodeId> = (0..bits).map(|i| b.add_input(format!("b{i}"))).collect();
    let mut carry = b.add_input("cin");
    for i in 0..bits {
        let axb = b
            .add_gate(GateKind::Xor, format!("axb{i}"), &[a_in[i], b_in[i]])
            .expect("valid arity");
        let sum = b
            .add_gate(GateKind::Xor, format!("s{i}"), &[axb, carry])
            .expect("valid arity");
        b.mark_output(sum);
        let and1 = b
            .add_gate(GateKind::And, format!("c_and1_{i}"), &[a_in[i], b_in[i]])
            .expect("valid arity");
        let and2 = b
            .add_gate(GateKind::And, format!("c_and2_{i}"), &[axb, carry])
            .expect("valid arity");
        carry = b
            .add_gate(GateKind::Or, format!("c{i}"), &[and1, and2])
            .expect("valid arity");
    }
    b.mark_output(carry);
    b.build().expect("adder is structurally valid")
}

/// Generates a balanced XOR parity tree over `width` inputs (1 output).
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn parity_tree(width: usize) -> Netlist {
    assert!(width > 0, "parity tree needs at least one input");
    let mut b = NetlistBuilder::new(format!("parity{width}"));
    let mut layer: Vec<NodeId> = (0..width).map(|i| b.add_input(format!("i{i}"))).collect();
    let mut next_id = 0usize;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                let g = b
                    .add_gate(GateKind::Xor, format!("x{next_id}"), pair)
                    .expect("valid arity");
                next_id += 1;
                next.push(g);
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    b.mark_output(layer[0]);
    b.build().expect("parity tree is structurally valid")
}

/// Configuration for [`random_circuit`].
#[derive(Clone, Debug)]
pub struct RandomCircuitConfig {
    /// Circuit name.
    pub name: String,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of gates to generate.
    pub gates: usize,
    /// RNG seed; the same configuration always yields the same circuit.
    pub seed: u64,
    /// Maximum gate fanin (minimum 2 for multi-input kinds).
    pub max_fanin: usize,
    /// Locality window: fanins are drawn from the most recent `locality`
    /// nodes with high probability, producing deep, reconvergent logic
    /// rather than a flat two-level network.
    pub locality: usize,
    /// Fraction of gates additionally marked as primary outputs,
    /// mimicking the pseudo primary outputs (flip-flop data inputs) that
    /// make full-scan circuits highly observable. Sinks are always
    /// outputs regardless.
    pub po_fraction: f64,
}

impl RandomCircuitConfig {
    /// A reasonable default shape for a circuit of `gates` gates.
    pub fn new(name: impl Into<String>, inputs: usize, gates: usize, seed: u64) -> Self {
        RandomCircuitConfig {
            name: name.into(),
            inputs,
            gates,
            seed,
            max_fanin: 3,
            locality: (gates / 2).clamp(32, 1024),
            po_fraction: 0.10,
        }
    }
}

/// Generates a pseudo-random reconvergent combinational DAG.
///
/// Gate kinds are drawn with ISCAS-like frequencies (NAND/NOR-heavy, a
/// sprinkling of XOR and inverters). Every node that ends up unread is
/// marked as a primary output, so the circuit has no dead logic and every
/// fault site lies on a path to an output.
///
/// # Panics
///
/// Panics if `inputs == 0` or `gates == 0`.
///
/// # Examples
///
/// ```
/// use adi_circuits::{random_circuit, RandomCircuitConfig};
///
/// let a = random_circuit(&RandomCircuitConfig::new("r", 10, 50, 1));
/// let b = random_circuit(&RandomCircuitConfig::new("r", 10, 50, 1));
/// assert_eq!(a, b); // fully deterministic
/// assert_eq!(a.num_inputs(), 10);
/// assert_eq!(a.num_gates(), 50);
/// ```
pub fn random_circuit(config: &RandomCircuitConfig) -> Netlist {
    assert!(config.inputs > 0, "need at least one input");
    assert!(config.gates > 0, "need at least one gate");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = NetlistBuilder::new(config.name.clone());
    let mut nodes: Vec<NodeId> = (0..config.inputs)
        .map(|i| b.add_input(format!("i{i}")))
        .collect();
    let mut read_count: Vec<u32> = vec![0; config.inputs];

    // ISCAS-like kind frequencies.
    const KINDS: [(GateKind, u32); 8] = [
        (GateKind::Nand, 25),
        (GateKind::Nor, 20),
        (GateKind::And, 18),
        (GateKind::Or, 15),
        (GateKind::Not, 12),
        (GateKind::Buf, 2),
        (GateKind::Xor, 5),
        (GateKind::Xnor, 3),
    ];
    let total_weight: u32 = KINDS.iter().map(|&(_, w)| w).sum();

    for g in 0..config.gates {
        let mut roll = rng.gen_range(0..total_weight);
        let kind = KINDS
            .iter()
            .find(|&&(_, w)| {
                if roll < w {
                    true
                } else {
                    roll -= w;
                    false
                }
            })
            .expect("weights cover the range")
            .0;
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            // Mostly 2-input gates (like the ISCAS-89 suite); wider gates
            // hurt random-pattern testability quickly.
            _ if config.max_fanin <= 2 => 2,
            _ => {
                if rng.gen_bool(0.2) {
                    rng.gen_range(3..=config.max_fanin)
                } else {
                    2
                }
            }
        };
        let mut fanins: Vec<NodeId> = Vec::with_capacity(arity);
        let mut guard = 0;
        while fanins.len() < arity && guard < 64 {
            guard += 1;
            let n = nodes.len();
            let idx = if rng.gen_bool(0.75) {
                // Local pick from the trailing window (drives depth).
                let w = config.locality.min(n);
                n - 1 - rng.gen_range(0..w)
            } else {
                rng.gen_range(0..n)
            };
            let cand = nodes[idx];
            if !fanins.contains(&cand) {
                fanins.push(cand);
            }
        }
        if fanins.is_empty() {
            fanins.push(nodes[nodes.len() - 1]);
        }
        for f in &fanins {
            read_count[f.index()] += 1;
        }
        let gate = b
            .add_gate(kind, format!("g{g}"), &fanins)
            .expect("arity validated above");
        nodes.push(gate);
        read_count.push(0);
    }

    // Mark every sink (node with no readers) as a primary output so the
    // circuit has no dead logic.
    for (i, &node) in nodes.iter().enumerate() {
        if read_count[i] == 0 {
            b.mark_output(node);
        }
    }
    // Scan-like observability: sprinkle pseudo primary outputs over the
    // internal gates (full-scan circuits observe every flip-flop input).
    let extra_pos = (config.gates as f64 * config.po_fraction).round() as usize;
    for _ in 0..extra_pos {
        let idx = rng.gen_range(config.inputs..nodes.len());
        b.mark_output(nodes[idx]);
    }
    b.build().expect("generated circuit is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_sim::logic::evaluate;

    #[test]
    fn adder_adds() {
        let n = ripple_carry_adder(3);
        // inputs: a0..a2, b0..b2, cin (in declaration order).
        for a in 0..8u32 {
            for bb in 0..8u32 {
                for cin in 0..2u32 {
                    let mut assignment = Vec::new();
                    for i in 0..3 {
                        assignment.push((a >> i) & 1 == 1);
                    }
                    for i in 0..3 {
                        assignment.push((bb >> i) & 1 == 1);
                    }
                    assignment.push(cin == 1);
                    let vals = evaluate(&n, &assignment);
                    let mut sum = 0u32;
                    for i in 0..3 {
                        let s = n.find_node(&format!("s{i}")).unwrap();
                        if vals[s.index()] {
                            sum |= 1 << i;
                        }
                    }
                    let cout = n.find_node("c2").unwrap();
                    if vals[cout.index()] {
                        sum |= 1 << 3;
                    }
                    assert_eq!(sum, a + bb + cin, "a={a} b={bb} cin={cin}");
                }
            }
        }
    }

    #[test]
    fn parity_tree_computes_parity() {
        let n = parity_tree(5);
        for v in 0..32u32 {
            let assignment: Vec<bool> = (0..5).map(|i| (v >> i) & 1 == 1).collect();
            let vals = evaluate(&n, &assignment);
            let out = n.outputs()[0];
            assert_eq!(vals[out.index()], v.count_ones() % 2 == 1, "v={v}");
        }
    }

    #[test]
    fn random_circuit_is_deterministic_and_alive() {
        let cfg = RandomCircuitConfig::new("rnd", 12, 80, 7);
        let a = random_circuit(&cfg);
        let b = random_circuit(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.num_inputs(), 12);
        assert_eq!(a.num_gates(), 80);
        // No dead logic: every node reaches an output.
        let cone = adi_netlist::fanin_cone(&a, a.outputs());
        assert_eq!(cone.len(), a.num_nodes());
    }

    #[test]
    fn random_circuit_varies_with_seed() {
        let a = random_circuit(&RandomCircuitConfig::new("rnd", 12, 80, 7));
        let b = random_circuit(&RandomCircuitConfig::new("rnd", 12, 80, 8));
        assert_ne!(a, b);
    }

    #[test]
    fn random_circuit_has_depth() {
        // The locality window should produce multi-level logic, not a
        // two-level network.
        let n = random_circuit(&RandomCircuitConfig::new("deep", 16, 200, 3));
        assert!(n.max_level() >= 5, "depth = {}", n.max_level());
    }
}
