//! Bit-parallel logic and fault simulation for combinational netlists.
//!
//! This crate provides the simulation substrate of the ADI reproduction:
//!
//! * [`Pattern`] / [`PatternSet`] — bit-packed input vectors, 64 patterns
//!   per machine word, with seeded random and exhaustive generators.
//! * [`logic`] — parallel-pattern good-machine simulation
//!   ([`GoodValues`]) and a scalar evaluator, with the hot path running
//!   on the flattened levelized CSR view
//!   ([`LevelizedCsr`](adi_netlist::LevelizedCsr)).
//! * [`FaultSimulator`] — stuck-at fault simulation on the two-level
//!   [`stem`]-region engine, which computes in-region detectability
//!   bit-parallelly and pays the cone walk once per fanout-free region
//!   instead of once per fault. Drive modes: with dropping, without
//!   dropping (producing the [`DetectionMatrix`] that the accidental
//!   detection index is computed from), and n-detection.
//! * [`reference`](mod@reference) — the classic per-fault PPSFP implementations of the
//!   same three drive modes: the bit-identical oracle the differential
//!   tests hold the stem-region engine to. Production code never calls
//!   them.
//! * [`SimWord`] — the 256-pattern simulation word (four 64-bit lanes)
//!   every stem-region hot path runs on.
//! * [`DropSession`] — wide-word batching of *sequentially generated*
//!   tests (the ATPG drop loop) through the stem-region engine, with
//!   drop-for-drop scalar semantics.
//! * [`t3`] / [`t3event`] — Kleene 3-valued logic and the incremental
//!   dual-machine (good/faulty) evaluator PODEM's event engine runs on:
//!   both machines packed into one dual-rail byte per position, a
//!   position-bitset event queue drained in topological order, fault
//!   injection at the site, and an undo trail so a backtrack retracts
//!   exactly the nodes it changed.
//! * [`CoverageCurve`] — fault-coverage-per-test bookkeeping.
//!
//! Every simulator takes an
//! [`adi_netlist::CompiledCircuit`] — compile the netlist once with
//! [`CompiledCircuit::compile`](adi_netlist::CompiledCircuit::compile)
//! and thread the compilation through all entry points (the legacy
//! `&Netlist` compile-per-call wrappers were removed in 0.3.0).
//!
//! ## One engine
//!
//! The stem-region engine wins whenever several faults share a
//! fanout-free region — true for every realistic circuit, and
//! increasingly so for no-drop workloads where no fault ever retires:
//! its per-block cost is `O(circuit)` for the good-value and
//! sensitization sweeps plus one cone propagation per *region* with an
//! active fault, versus one cone propagation per *fault* for the
//! [`reference`](mod@reference) PPSFP functions. Per-fault propagation remains what the
//! single-pattern [`FaultSimulator::detect_pattern`] primitive uses (a
//! lone vector cannot amortize the per-block sweeps).
//!
//! # Examples
//!
//! Count how many faults of a tiny circuit each input vector detects
//! (the quantity the paper calls `ndet(u)`):
//!
//! ```
//! use adi_netlist::{bench_format, CompiledCircuit};
//! use adi_sim::{FaultSimulator, PatternSet};
//!
//! # fn main() -> Result<(), adi_netlist::NetlistError> {
//! let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
//! let circuit = CompiledCircuit::compile(n);
//! let faults = circuit.collapsed_faults();
//! let patterns = PatternSet::exhaustive(2);
//! let matrix = FaultSimulator::for_circuit(&circuit, faults).no_drop_matrix(&patterns);
//! let ndet = matrix.ndet_counts();
//! assert_eq!(ndet.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
mod detection;
pub mod faultsim;
pub mod logic;
mod pattern;
pub mod probability;
pub mod reference;
pub mod session;
pub mod stem;
pub mod t3;
pub mod t3event;
pub mod word;

pub use coverage::CoverageCurve;
pub use detection::DetectionMatrix;
pub use faultsim::{DropOutcome, FaultSimulator, NDetectOutcome, SimScratch};
pub use logic::GoodValues;
pub use pattern::{Pattern, PatternSet};
pub use session::DropSession;
pub use stem::StemRegionEngine;
pub use t3::T3;
pub use t3event::DualMachineSim;
pub use word::SimWord;
