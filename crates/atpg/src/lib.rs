//! PODEM-based automatic test pattern generation (ATPG).
//!
//! This crate implements the deterministic test generator that the ADI
//! reproduction drives with differently ordered fault lists:
//!
//! * [`value`] — Kleene 3-valued logic ([`T3`]) and the D-calculus view
//!   used by PODEM (separate good-machine and faulty-machine 3-valued
//!   simulations).
//! * [`Scoap`] — SCOAP controllability/observability measures guiding the
//!   PODEM backtrace.
//! * [`Podem`] — the path-oriented decision making test generator with
//!   X-path checking and a backtrack limit, returning a [`TestCube`]
//!   (possibly partial input assignment), an untestability proof, or an
//!   abort. [`Podem::generate`] runs on the incremental event-driven
//!   evaluator over the compiled position space;
//!   [`Podem::generate_reference`], the classic full-netlist
//!   resimulation, is its bit-identical differential oracle.
//! * [`FillStrategy`] — completion of unspecified cube inputs.
//! * [`testgen`] — the ordered-fault-list driver with fault dropping:
//!   exactly the "test generation procedure without dynamic compaction
//!   heuristics" of the paper's Section 4 ([`TestGenerator::run`]), with
//!   the scalar [`TestGenerator::run_reference`] as its oracle.
//! * [`speculate`] — the speculative multi-target parallel form of that
//!   driver ([`TestGenConfig::atpg_threads`] `> 1`): a worker pool runs
//!   PODEM ahead of the commit position and a deterministic first-win
//!   committer keeps the output bit-identical to the sequential loop.
//! * [`cnf`] — the formal layer: Tseitin encoding of the compiled
//!   position space, cone-restricted fault miters decided by the
//!   vendored CDCL solver (redundancy proofs for the faults PODEM
//!   aborts on, selected by [`SatFallback`]), and bounded two-netlist
//!   equivalence checking for the service's `equiv` endpoint. Under
//!   [`SatFallback::AbortedOnly`] the formal layer also backs a
//!   redundancy screen in front of PODEM's full budget: a 50-backtrack
//!   search, then a proof of at most 1,000 conflicts whose verdict is
//!   final (a SAT model becomes the target's test), so only faults the
//!   proof leaves undecided reach the 1,000-backtrack search.
//!
//! # Examples
//!
//! Generate a test for a specific stuck-at fault:
//!
//! ```
//! use adi_netlist::{bench_format, fault::Fault, CompiledCircuit};
//! use adi_atpg::{Podem, PodemConfig, PodemOutcome};
//!
//! # fn main() -> Result<(), adi_netlist::NetlistError> {
//! let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
//! let y = n.find_node("y").unwrap();
//! let fault = Fault::stem_at(y, false); // y stuck-at-0
//! let mut podem = Podem::for_circuit(&CompiledCircuit::compile(n), PodemConfig::default());
//! match podem.generate(fault) {
//!     PodemOutcome::Test(cube) => {
//!         // Detecting y/0 requires a = b = 1.
//!         assert_eq!(cube.get(0), Some(true));
//!         assert_eq!(cube.get(1), Some(true));
//!     }
//!     other => panic!("expected a test, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cnf;
mod cube;
mod fill;
mod podem;
pub mod speculate;
pub mod testgen;
pub mod value;

pub use cnf::{EquivError, EquivVerdict, FaultVerdict};
pub use cube::TestCube;
pub use fill::FillStrategy;
pub use podem::{Podem, PodemConfig, PodemOutcome, PodemStats, SatFallback, SatResolved};
pub use testgen::{
    FaultStatus, PhaseTimings, TestGenConfig, TestGenResult, TestGenSummary, TestGenerator,
};
pub use value::T3;

/// SCOAP testability measures (re-export; the type now lives in
/// `adi-netlist` so [`adi_netlist::CompiledCircuit`] can cache it).
pub use adi_netlist::Scoap;
