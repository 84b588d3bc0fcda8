//! Gate-level combinational netlist representation for the ADI reproduction.
//!
//! This crate is the structural substrate of the workspace: it defines the
//! [`Netlist`] data structure (an immutable, levelized, CSR-encoded gate
//! graph), the [`NetlistBuilder`] used to construct and validate it, the
//! ISCAS `.bench` text format reader/writer ([`bench_format`]), and the
//! single stuck-at fault model with structural equivalence collapsing
//! ([`fault`]). For simulation hot paths it additionally offers
//! [`LevelizedCsr`], a flattened position-indexed view of the graph in
//! topological level order with per-node output-reachability masks, the
//! SCOAP testability measures ([`Scoap`]), and — the recommended entry
//! point for whole pipelines — [`CompiledCircuit`], an `Arc`-backed
//! bundle of every derived artifact (levelized view, FFR partition,
//! fault lists, their fault-region indexes, SCOAP) built once and
//! threaded through all of `adi-sim`, `adi-atpg`, and `adi-core`.
//!
//! Full-scan sequential circuits are handled by treating flip-flop outputs as
//! pseudo primary inputs and flip-flop inputs as pseudo primary outputs, so
//! every circuit in this workspace is purely combinational.
//!
//! # Examples
//!
//! Build a tiny circuit (a 2-input multiplexer) and inspect its structure:
//!
//! ```
//! use adi_netlist::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), adi_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("mux2");
//! let a = b.add_input("a");
//! let sel = b.add_input("sel");
//! let c = b.add_input("c");
//! let nsel = b.add_gate(GateKind::Not, "nsel", &[sel])?;
//! let t0 = b.add_gate(GateKind::And, "t0", &[a, nsel])?;
//! let t1 = b.add_gate(GateKind::And, "t1", &[c, sel])?;
//! let y = b.add_gate(GateKind::Or, "y", &[t0, t1])?;
//! b.mark_output(y);
//! let netlist = b.build()?;
//!
//! assert_eq!(netlist.num_inputs(), 3);
//! assert_eq!(netlist.num_outputs(), 1);
//! assert_eq!(netlist.num_nodes(), 7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_format;
mod builder;
mod compiled;
mod cone;
mod error;
pub mod fault;
mod fault_regions;
mod ffr;
mod gate;
mod hash;
mod id;
mod levelized;
mod netlist;
mod scoap;
mod stats;

pub use builder::NetlistBuilder;
pub use compiled::CompiledCircuit;
pub use cone::{fanin_cone, NodeSet};
pub use error::NetlistError;
pub use fault_regions::{FaultRegionIndex, PackedSite};
pub use ffr::FfrPartition;
pub use gate::GateKind;
pub use hash::NetlistHash;
pub use id::NodeId;
pub use levelized::LevelizedCsr;
pub use netlist::Netlist;
pub use scoap::{Scoap, SCOAP_INF};
pub use stats::NetlistStats;
