//! `adi-service` — a hash-cached compiled-circuit server.
//!
//! The library crates compile a circuit once
//! ([`CompiledCircuit`](adi_netlist::CompiledCircuit)) and answer any
//! number of scenario queries against the shared artifacts. This crate
//! turns that into a system that takes traffic: a multi-threaded TCP +
//! stdio server speaking newline-delimited JSON, built from four
//! std-only pieces:
//!
//! * [`CircuitStore`] — a sharded, cost-bounded cache mapping canonical
//!   [`NetlistHash`](adi_netlist::NetlistHash)es to compiled circuits,
//!   with single-flight compilation (concurrent first requests for the
//!   same structure trigger exactly one compile), hit/miss/eviction
//!   accounting, and eviction ordered by replacement cost (the
//!   netlist's node plus fanin-edge count, known at insert) so the
//!   cheapest-to-recreate entry goes first.
//! * [`ScenarioCache`] — a second cache layer over *whole responses*:
//!   a cacheable request's [`Fingerprint`] hashes its parsed, resolved
//!   value (circuit hash, decoded patterns, defaulted config) — the
//!   value its computation runs on — and repeat scenarios are answered
//!   from a byte-budgeted, single-flight payload cache without
//!   recomputing anything. Cache hits are byte-identical to cold
//!   computation.
//! * [`WorkerPool`] — a fixed-size worker pool with a bounded queue and
//!   graceful drain-on-shutdown.
//! * [`ServiceState`] — the request handlers: `compile`, `coverage`,
//!   `adi`, `atpg`, `ndetect`, `reorder`, `equiv`, and `stats`, each a
//!   thin adapter from protocol fields onto the existing session APIs
//!   (plus `ping` and `shutdown` control ops). See [`protocol`] for the
//!   envelope and the README for the per-endpoint field reference.
//! * [`serve_tcp`] / [`serve_stdio`] — the transports, both running
//!   requests on the shared pool. TCP adds per-connection admission
//!   control (load shedding past [`ServerConfig::max_inflight`]);
//!   stdio adds a reorder buffer so responses come back in request
//!   order despite concurrent execution.
//!
//! Two binaries ship with the crate: `adi-serve` (the server) and
//! `adi-loadgen` (a closed-loop load generator reporting requests/s and
//! p50/p99 latency, with a `--smoke` mode that drives every endpoint
//! once and shuts the server down cleanly).
//!
//! The workload shape this serves — many n-detection / ordering /
//! vector-set queries against a handful of circuits — is the
//! companion-paper experiment (Pomeranz & Reddy, *Worst-Case and
//! Average-Case Analysis of n-Detection Test Sets*), where per-request
//! recompilation is pure waste.
//!
//! # Examples
//!
//! In-process use (the same path the `crates/service/tests` agreement
//! checks drive):
//!
//! ```
//! use adi_service::{ServiceState, StoreConfig};
//!
//! let state = ServiceState::new(StoreConfig::default());
//! let bench = "INPUT(a)\\nINPUT(b)\\nOUTPUT(y)\\ny = AND(a, b)\\n";
//! let response = state.handle_line(&format!(
//!     r#"{{"id": 1, "op": "compile", "bench": "{bench}"}}"#
//! ));
//! let v = json::parse(&response).unwrap();
//! assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
//!
//! // Every later request addresses the cached compilation by hash.
//! let hash = v.get("result").unwrap().get("hash").unwrap().as_str().unwrap();
//! let response = state.handle_line(&format!(
//!     r#"{{"id": 2, "op": "coverage", "hash": "{hash}", "exhaustive": true}}"#
//! ));
//! let v = json::parse(&response).unwrap();
//! let coverage = v.get("result").unwrap().get("coverage").unwrap().as_f64();
//! assert_eq!(coverage, Some(1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod handlers;
mod pool;
pub mod protocol;
mod scenario;
mod server;
mod store;

pub use handlers::ServiceState;
pub use pool::{PoolClosed, WorkerPool};
pub use scenario::{
    Fingerprint, FpHasher, ScenarioCache, ScenarioConfig, ScenarioOutcome, ScenarioStats,
};
pub use server::{serve_stdio, serve_tcp, ServeReport, ServerConfig};
pub use store::{CacheOutcome, CircuitStore, StoreConfig, StoreStats};
