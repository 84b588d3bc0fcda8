//! Summary statistics about a netlist.

use std::fmt;

use crate::{GateKind, Netlist};

/// Aggregate structural statistics for a [`Netlist`].
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, NetlistStats};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
/// let stats = NetlistStats::compute(&n);
/// assert_eq!(stats.num_gates, 1);
/// assert_eq!(stats.depth, 1);
/// println!("{stats}");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct NetlistStats {
    /// Circuit name.
    pub name: String,
    /// Total node count.
    pub num_nodes: usize,
    /// Primary input count.
    pub num_inputs: usize,
    /// Primary output count.
    pub num_outputs: usize,
    /// Gate (non-input) count.
    pub num_gates: usize,
    /// Fault-site line count (stems + true branches).
    pub num_lines: usize,
    /// Logic depth (maximum level).
    pub depth: u32,
    /// Largest fanout count of any node.
    pub max_fanout: usize,
    /// Mean fanin over gates with at least one fanin.
    pub avg_fanin: f64,
    /// Gate count per kind, indexed in [`GateKind::ALL`] order.
    pub kind_counts: [usize; GateKind::ALL.len()],
}

impl NetlistStats {
    /// Computes statistics for `netlist`.
    pub fn compute(netlist: &Netlist) -> Self {
        let mut kind_counts = [0usize; GateKind::ALL.len()];
        let mut fanin_total = 0usize;
        let mut fanin_gates = 0usize;
        let mut max_fanout = 0usize;
        for node in netlist.node_ids() {
            let kind = netlist.kind(node);
            let pos = GateKind::ALL
                .iter()
                .position(|&k| k == kind)
                .expect("kind present in ALL");
            kind_counts[pos] += 1;
            let nf = netlist.fanins(node).len();
            if nf > 0 {
                fanin_total += nf;
                fanin_gates += 1;
            }
            max_fanout = max_fanout.max(netlist.fanout_count(node));
        }
        NetlistStats {
            name: netlist.name().to_string(),
            num_nodes: netlist.num_nodes(),
            num_inputs: netlist.num_inputs(),
            num_outputs: netlist.num_outputs(),
            num_gates: netlist.num_gates(),
            num_lines: netlist.num_lines(),
            depth: netlist.max_level(),
            max_fanout,
            avg_fanin: if fanin_gates == 0 {
                0.0
            } else {
                fanin_total as f64 / fanin_gates as f64
            },
            kind_counts,
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} nodes ({} PI, {} gates, {} PO), depth {}, {} lines",
            self.name,
            self.num_nodes,
            self.num_inputs,
            self.num_gates,
            self.num_outputs,
            self.depth,
            self.num_lines
        )?;
        write!(f, "  ")?;
        let mut first = true;
        for (i, kind) in GateKind::ALL.iter().enumerate() {
            if self.kind_counts[i] > 0 && *kind != GateKind::Input {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}x{}", self.kind_counts[i], kind)?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench_format, NetlistBuilder};

    #[test]
    fn counts_are_correct() {
        let src = "
INPUT(a)
INPUT(b)
OUTPUT(y)
t = NAND(a, b)
u = NOT(t)
y = NAND(u, b)
";
        let n = bench_format::parse(src, "c").unwrap();
        let s = NetlistStats::compute(&n);
        assert_eq!(s.num_inputs, 2);
        assert_eq!(s.num_gates, 3);
        let count = |kind| s.kind_counts[GateKind::ALL.iter().position(|&k| k == kind).unwrap()];
        assert_eq!(count(GateKind::Nand), 2);
        assert_eq!(count(GateKind::Not), 1);
        assert_eq!(s.depth, 3);
        // b feeds t and y => max fanout 2.
        assert_eq!(s.max_fanout, 2);
        assert!((s.avg_fanin - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_name_and_sizes() {
        let mut b = NetlistBuilder::new("disp");
        let a = b.add_input("a");
        let y = b.add_gate(GateKind::Buf, "y", &[a]).unwrap();
        b.mark_output(y);
        let n = b.build().unwrap();
        let text = NetlistStats::compute(&n).to_string();
        assert!(text.contains("disp"));
        assert!(text.contains("1 PI"));
        assert!(text.contains("1xBUF"));
    }
}
