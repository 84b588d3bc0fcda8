//! Kleene 3-valued logic for PODEM's twin-machine simulation.
//!
//! The types moved to [`adi_sim::t3`] in 0.3.0 so the incremental
//! dual-machine evaluator ([`adi_sim::t3event`]) can live below the ATPG
//! layer; this module re-exports them under their historical paths
//! (`adi_atpg::value::T3`, `adi_atpg::T3`, …) unchanged.
//!
//! PODEM tracks two 3-valued simulations per decision state: the **good**
//! machine and the **faulty** machine (with the target fault injected). A
//! node carries the composite D-calculus value:
//!
//! | good | faulty | composite |
//! |------|--------|-----------|
//! | 0    | 0      | 0         |
//! | 1    | 1      | 1         |
//! | 1    | 0      | D         |
//! | 0    | 1      | D̄         |
//! | any X | —     | X         |

pub use adi_sim::t3::{eval_t3, eval_t3_branch, eval_t3_pos, T3};
