//! The accidental detection index (ADI) fault-ordering heuristic.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Pomeranz & Reddy, *"The Accidental Detection Index as a Fault Ordering
//! Heuristic for Full-Scan Circuits"*, DATE 2005):
//!
//! * [`uset`] — selection of the random vector set `U` from which the index
//!   is estimated (Section 4 of the paper).
//! * [`AdiAnalysis`] — `ndet(u)`, `D(f)` and `ADI(f)` from fault simulation
//!   without dropping (Section 2), with the conservative *min* estimator,
//!   the *mean* alternative, and the n-detection approximation the paper
//!   mentions.
//! * [`FaultOrdering`] — the six fault orders of Section 3 (`Forig`,
//!   `Fincr0`, `Fdecr`, `F0decr`, `Fdynm`, `F0dynm`), with the dynamic
//!   orders built by a lazy level queue ([`dynamic`]).
//! * [`metrics`] — the fault-coverage curve `n_ord(i)` and the steepness
//!   metric `AVE_ord` of Section 4.
//! * [`pipeline`] — the end-to-end experiment of the paper: pick `U`,
//!   compute ADI, order faults, run ATPG per order, collect test counts,
//!   run times, and coverage curves.
//! * [`reorder`], [`ffr_order`] — comparison baselines from the paper's
//!   references \[7\] (post-generation test reordering) and \[2\]
//!   (independent-fault-set ordering).
//!
//! # Examples
//!
//! Compute accidental detection indices for a small circuit over its
//! exhaustive vector set:
//!
//! ```
//! use adi_core::{AdiAnalysis, AdiConfig};
//! use adi_netlist::{bench_format, CompiledCircuit};
//! use adi_sim::PatternSet;
//!
//! # fn main() -> Result<(), adi_netlist::NetlistError> {
//! let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
//! let circuit = CompiledCircuit::compile(n);
//! let faults = circuit.collapsed_faults();
//! let u = PatternSet::exhaustive(2);
//! let adi = AdiAnalysis::for_circuit(&circuit, faults, &u, AdiConfig::default());
//! // Every collapsed fault of an irredundant circuit is detected by the
//! // exhaustive set, so every ADI is at least 1.
//! assert!(faults.ids().all(|f| adi.adi(f) >= 1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adi;
pub mod dynamic;
pub mod ffr_order;
pub mod metrics;
mod order;
pub mod pipeline;
pub mod reorder;
pub mod uset;

pub use adi::{AdiAnalysis, AdiConfig, AdiEstimator, AdiSummary};
pub use order::{order_faults, FaultOrdering};
pub use pipeline::{Experiment, ExperimentBuilder, ExperimentConfig, OrderingRun};
pub use uset::{USelection, USetConfig};
