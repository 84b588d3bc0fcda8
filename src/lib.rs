//! # adi — the Accidental Detection Index, reproduced
//!
//! A complete Rust reproduction of Pomeranz & Reddy, *"The Accidental
//! Detection Index as a Fault Ordering Heuristic for Full-Scan Circuits"*
//! (DATE 2005), including every substrate the paper depends on:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`netlist`] | gate-level circuits, `.bench` I/O, stuck-at fault model with collapsing |
//! | [`sim`] | bit-parallel logic simulation, PPSFP fault simulation, the incremental dual-machine PODEM evaluator, coverage curves |
//! | [`atpg`] | event-driven PODEM test generation with SCOAP guidance and an ordered-fault-list driver |
//! | [`core`] | the paper itself: `U` selection, `ADI(f)`, the six fault orders, metrics, pipeline |
//! | [`circuits`] | embedded benchmark circuits and the synthetic paper suite |
//! | [`service`] | the hash-cached compiled-circuit server (`adi-serve`, `adi-loadgen`) |
//!
//! This facade crate re-exports all of them under one roof; depend on it
//! (`adi`) for applications, or on the individual crates for narrower
//! builds.
//!
//! ## Quickstart
//!
//! Compile the circuit once; every analysis, simulator, and generator
//! consumes the [`CompiledCircuit`](netlist::CompiledCircuit) and shares
//! its artifacts (levelized view, FFR partition, fault lists, SCOAP):
//!
//! ```
//! use adi::core::{Experiment, FaultOrdering};
//! use adi::circuits::embedded;
//! use adi::netlist::CompiledCircuit;
//!
//! let circuit = CompiledCircuit::compile(embedded::c17());
//! let experiment = Experiment::on(&circuit).run();
//! let orig = experiment.run_for(FaultOrdering::Original).unwrap();
//! let dyn0 = experiment.run_for(FaultOrdering::Dynamic0).unwrap();
//! assert_eq!(orig.result.coverage(), 1.0);
//! assert_eq!(dyn0.result.coverage(), 1.0);
//! println!(
//!     "c17: {} tests (orig) vs {} tests (0dynm)",
//!     orig.num_tests(),
//!     dyn0.num_tests()
//! );
//!
//! // The compilation is Arc-backed: clone it freely and run as many
//! // scenarios (orderings, vector budgets, n-detection settings) as you
//! // like without repeating any setup.
//! let decr = Experiment::on(&circuit)
//!     .orderings(vec![FaultOrdering::Decr])
//!     .run();
//! assert_eq!(decr.runs.len(), 1);
//! ```
//!
//! ### Migrating from the `&Netlist` entry points
//!
//! The pre-0.2 free-standing entry points (`run_experiment`,
//! `select_u`, `AdiAnalysis::compute`, `FaultSimulator::new`,
//! `GoodValues::compute`, `TestGenerator::new`, …) were deprecated in
//! 0.2.0 and **removed in 0.3.0**. Replace them with
//! `CompiledCircuit::compile` plus the corresponding `for_circuit`
//! method (or the `Experiment::on` builder); see the README's migration
//! table.
//!
//! ## Regenerating the paper's results
//!
//! Every table and figure has a dedicated binary in the `adi-bench`
//! crate (`table1`, `table4`, `table5`, `table6`, `table7`, `figure1`,
//! `ablation`); see "Regenerating the paper's tables and figures" in the
//! repository's `README.md` for how to run them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The paper's contribution: ADI computation, fault orders, experiment
/// pipeline (re-export of `adi-core`).
pub use adi_core as core;

/// Benchmark circuits (re-export of `adi-circuits`).
pub use adi_circuits as circuits;

/// PODEM ATPG (re-export of `adi-atpg`).
pub use adi_atpg as atpg;

/// Netlists and the fault model (re-export of `adi-netlist`).
pub use adi_netlist as netlist;

/// The hash-cached compiled-circuit server (re-export of `adi-service`).
pub use adi_service as service;

/// Logic and fault simulation (re-export of `adi-sim`).
pub use adi_sim as sim;
