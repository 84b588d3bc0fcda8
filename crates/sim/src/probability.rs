//! Signal-probability estimation (random-pattern testability analysis).
//!
//! The probability that a node evaluates to 1 under uniformly random
//! inputs determines how easily random vectors excite faults on it — the
//! quantity behind the paper's observation that a small random `U`
//! reaches ~90% coverage quickly and then stalls on the hard faults.
//!
//! The estimator is the classic topological product formula under the
//! **independence assumption**: exact for fanout-free trees, approximate
//! under reconvergence.

use adi_netlist::{GateKind, Netlist};

/// Topological signal probabilities under the independence assumption.
///
/// Exact for tree circuits; reconvergent fanout introduces correlation
/// this estimator ignores.
///
/// # Examples
///
/// ```
/// use adi_netlist::bench_format;
/// use adi_sim::probability::independent_probabilities;
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
/// let p = independent_probabilities(&n);
/// let y = n.find_node("y").unwrap();
/// assert!((p[y.index()] - 0.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn independent_probabilities(netlist: &Netlist) -> Vec<f64> {
    let mut p = vec![0.0f64; netlist.num_nodes()];
    for &node in netlist.topo_order() {
        let fanins = netlist.fanins(node);
        let v = match netlist.kind(node) {
            GateKind::Input => 0.5,
            GateKind::Const0 => 0.0,
            GateKind::Const1 => 1.0,
            GateKind::Buf => p[fanins[0].index()],
            GateKind::Not => 1.0 - p[fanins[0].index()],
            GateKind::And => fanins.iter().map(|f| p[f.index()]).product(),
            GateKind::Nand => 1.0 - fanins.iter().map(|f| p[f.index()]).product::<f64>(),
            GateKind::Or => {
                1.0 - fanins
                    .iter()
                    .map(|f| 1.0 - p[f.index()])
                    .product::<f64>()
            }
            GateKind::Nor => fanins
                .iter()
                .map(|f| 1.0 - p[f.index()])
                .product::<f64>(),
            GateKind::Xor | GateKind::Xnor => {
                let odd = fanins.iter().fold(0.0f64, |acc, f| {
                    let q = p[f.index()];
                    acc * (1.0 - q) + (1.0 - acc) * q
                });
                if netlist.kind(node) == GateKind::Xor {
                    odd
                } else {
                    1.0 - odd
                }
            }
        };
        p[node.index()] = v;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::bench_format;

    #[test]
    fn tree_probabilities_are_exact() {
        let src = "
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
t = AND(a, b)
u = OR(c, d)
y = XOR(t, u)
";
        let n = bench_format::parse(src, "tree").unwrap();
        let p = independent_probabilities(&n);
        let t = n.find_node("t").unwrap();
        let u = n.find_node("u").unwrap();
        let y = n.find_node("y").unwrap();
        assert!((p[t.index()] - 0.25).abs() < 1e-12);
        assert!((p[u.index()] - 0.75).abs() < 1e-12);
        // XOR: 0.25*(1-0.75) + 0.75*(1-0.25) = 0.0625 + 0.5625 = 0.625.
        assert!((p[y.index()] - 0.625).abs() < 1e-12);
    }

    #[test]
    fn reconvergence_breaks_independence() {
        // y = AND(a, NOT(a)) is constant 0, but the independence
        // assumption reports 0.25.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = AND(a, na)\n";
        let n = bench_format::parse(src, "rc").unwrap();
        let estimate = independent_probabilities(&n);
        let y = n.find_node("y").unwrap();
        assert!((estimate[y.index()] - 0.25).abs() < 1e-12);
        for a in [false, true] {
            assert!(!crate::logic::evaluate(&n, &[a])[y.index()]);
        }
    }

    #[test]
    fn constants_have_extreme_probability() {
        let src = "OUTPUT(y)\nk = CONST1()\ny = NOT(k)\n";
        let n = bench_format::parse(src, "k").unwrap();
        let p = independent_probabilities(&n);
        let k = n.find_node("k").unwrap();
        let y = n.find_node("y").unwrap();
        assert_eq!(p[k.index()], 1.0);
        assert_eq!(p[y.index()], 0.0);
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        use adi_netlist::{GateKind, NetlistBuilder};
        let mut b = NetlistBuilder::new("mix");
        let mut prev = b.add_input("i0");
        for k in 0..20 {
            let kind = [GateKind::Nand, GateKind::Nor, GateKind::Xor][k % 3];
            let other = b.add_input(format!("i{}", k + 1));
            prev = b
                .add_gate(kind, format!("g{k}"), &[prev, other])
                .unwrap();
        }
        b.mark_output(prev);
        let n = b.build().unwrap();
        for p in independent_probabilities(&n) {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
