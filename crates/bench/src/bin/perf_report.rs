//! `perf_report` — the tracked performance harness.
//!
//! Times the fault-simulation and ATPG hot paths (no-drop matrix,
//! dropping simulation, the ADI computation end-to-end, ordered ATPG,
//! the isolated drop loop, and raw PODEM generation) per suite circuit
//! for **both** implementations of each path, verifies the
//! implementations agree bit for bit, prints a summary table, and writes
//! a `BENCH_<date>.json` snapshot so the repository accumulates a
//! performance trajectory over time.
//!
//! ```text
//! cargo run -p adi-bench --release --bin perf_report -- [--max-gates N | --all]
//!     [--quick] [--patterns N] [--out PATH] [--min-speedup X]
//!     [--width 1|2|4|8] [--threads N]
//! ```
//!
//! JSON schema (`adi-perf-report/v9`, written via the vendored `json`
//! value model): a header with the run parameters, a `circuits` array
//! carrying the compile-once vs compile-per-call timings (`compile_ns`,
//! `adi_compile_once_ns`, `adi_per_call_ns`), one `entries` element per
//! `(circuit, engine, phase)` carrying `wall_ns` and `speedup` (that
//! phase's per-fault-row time over this row's time, so per-fault rows
//! read 1.0; stem-region rows are pinned to one 64-bit lane for
//! cross-commit comparability), one `service` element per circuit with
//! the `adi-service` request-path numbers (`cold_compile_ns`,
//! `cache_hit_ns`, `hit_speedup`, `throughput_rps`), and — new in v5 —
//! one `widths` element per `(circuit, lanes, threads)` cell of the
//! wide-word lattice carrying `wall_ns`, `patterns_per_s`,
//! `patterns_per_s_per_core`, and `scaling_efficiency`
//! (`pps(t) / (t * pps(1))` at the same width). **Every lattice cell is
//! agreement-gated bit-identical to the 64-bit single-thread oracle
//! before its timing is written** (the hidden `--inject-width-mismatch`
//! flag corrupts one cell's pattern set so CI can assert the gate
//! fires), and non-`--quick` runs additionally fail unless irs13207's
//! best 4-lane cell clears twice the committed PR 5 no-drop
//! patterns/s baseline. Every service response is agreement-gated
//! against the direct library result before any timing is recorded, and
//! non-`--quick` runs fail unless the largest circuit's `hit_speedup`
//! clears the 10x floor.
//!
//! New in v6: one `atpg_scaling` element per `(circuit, threads)` cell
//! of the speculative-ATPG lattice (threads 1, 2, 4, clipped by
//! `--threads`) carrying `wall_ns`, `speedup` (serial wall over this
//! cell's wall), `wasted_speculations`, and the phase split
//! (`generate_ns`, `drop_ns`, `commit_wait_ns`). **Every threaded cell
//! is agreement-gated bit-identical to the sequential `atpg_threads: 1`
//! run before its timing is written** — even under `--quick` — (the
//! hidden `--inject-atpg-mismatch` flag skews one threaded cell's fill
//! seed so CI can assert the gate fires), and non-`--quick` runs
//! additionally fail unless irs13207's 4-thread cell clears twice the
//! committed PR 6 sequential ATPG wall time — on hosts with at least 4
//! cores. On smaller hosts (the committed snapshots come from a
//! single-core container, recorded in the report's `host_parallelism`
//! field) that floor is unreachable by construction, so the gate
//! degrades to a speculation-overhead ceiling against the run's own
//! sequential cell.
//!
//! New in v7: one `sat` element per circuit carrying the SAT-backed
//! proof phase (`wall_ns`, `proofs_per_s`, the `sample` size, `agreed`)
//! plus what became of the event-driven run's backtrack-aborted faults
//! (`aborted_faults`, `resolved_redundant`, `resolved_testable`,
//! `resolved_undecided`). **Every SAT verdict over the PODEM sample is
//! agreement-gated against the event-driven PODEM outcome on
//! commonly-decided faults before any timing is written** — even under
//! `--quick` — (the hidden `--inject-sat-mismatch` flag flips one
//! decided verdict so CI can assert the gate fires).
//!
//! New in v8: one `scenario_cache` element per `(circuit, endpoint)`
//! pair carrying the scenario-cache request path (`cold_ns` for a
//! `"cache": "bypass"` recomputation, `hit_ns` for the cached replay,
//! `hit_speedup`), plus one `open_loop` element for the largest
//! circuit carrying a fixed-rate open-loop run against an in-process
//! TCP server (`offered_rps`, `achieved_rps`, `completed`, `shed`,
//! `p50_ms`/`p99_ms`/`p999_ms` measured from each request's *scheduled*
//! send time). **Every endpoint's cache hit is agreement-gated
//! byte-identical to the miss that populated it before any timing is
//! written** — even under `--quick` (the hidden
//! `--inject-scenario-mismatch` flag corrupts one hit copy so CI can
//! assert the gate fires). Non-`--quick` runs additionally fail unless
//! the largest circuit's worst endpoint hit speedup clears the 50x
//! floor and the open-loop run meets its SLO (p99 under 250 ms, shed
//! fraction under 1%).
//!
//! New in v9: one `observability` element for the largest circuit
//! carrying the instrumentation-overhead phase — the stem-region
//! no-drop wall with metric collection disabled (`disabled_ns`) vs
//! enabled (`enabled_ns`) and their ratio (`overhead`) — plus
//! server-side queue-wait percentiles on the `open_loop` element
//! (`queue_wait_count`, `queue_wait_p50_ms`, `queue_wait_p99_ms`,
//! `queue_wait_p999_ms`), scraped from the in-process server's
//! `metrics` endpoint at the end of the run. **Before any timing is
//! written, a `"trace": true` request must extend the untraced
//! response bytes exactly** (the result payload is byte-identical, so
//! the scenario-cache splice still applies), and the enabled wall must
//! stay within 1.5x the disabled wall — even under `--quick` (the
//! hidden `--inject-obs-overhead` flag inflates the enabled wall so CI
//! can assert the gate fires). Non-`--quick` runs additionally fail
//! unless irs13207's disabled wall stays within 2% of the committed
//! PR 9 no-drop baseline and the enabled wall within 10%. Metric
//! collection is off through the per-circuit loop (keeping every other
//! phase comparable to earlier snapshots) and switched on for the
//! observability and open-loop phases.
//!
//! The engine column of `entries` names the reference implementation
//! (`per-fault`) or the production path (`stem-region`) per phase:
//!
//! * `no-drop` / `dropping` / `adi` — fault simulation: the per-fault
//!   PPSFP reference (`adi_sim::reference`) vs the stem-region engine.
//! * `atpg` — end-to-end ordered generation: the `per-fault` row is the
//!   classic stack (`TestGenerator::run_reference`: full-resim PODEM +
//!   scalar drop loop), the `stem-region` row the production stack
//!   (`TestGenerator::run`: event-driven PODEM + 64-wide batched drop
//!   loop).
//! * `drop-loop` — the isolated drop primitive: scalar `detect_pattern`
//!   replay vs the batched `DropSession`.
//! * `podem` — raw PODEM generation over a fixed target sample, no
//!   dropping: `Podem::generate_reference` (full resim) vs
//!   `Podem::generate` (event driven). These entries carry two extra
//!   fields, `targets_per_s` and `events_per_decision`.
//!
//! Every paired implementation is verified **before the report is
//! written**: detection matrices, ATPG results, drop-loop replays, and
//! PODEM outcomes must each agree bit for bit or the run aborts. Unless
//! `--quick` is given, the run additionally **fails** (exit 1) if the
//! stem-region no-drop speedup on the largest selected circuit falls
//! below the floor (default 1.5×, `--min-speedup`): the perf trajectory
//! is enforced, not just recorded.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use adi_atpg::cnf::{prove_fault, DEFAULT_CONFLICT_LIMIT};
use adi_atpg::{
    FaultVerdict, Podem, PodemConfig, PodemOutcome, PodemStats, TestCube, TestGenConfig,
    TestGenResult, TestGenerator,
};
use adi_bench::TextTable;
use adi_circuits::paper_suite;
use adi_core::{AdiAnalysis, AdiConfig};
use adi_netlist::fault::{Fault, FaultId, FaultList};
use adi_netlist::{bench_format, CompiledCircuit, Netlist};
use adi_service::{serve_tcp, ServerConfig, ServiceState, StoreConfig};
use adi_sim::{reference, DropSession, FaultSimulator, Pattern, PatternSet, SimScratch, SimWidth};
use json::{Object, Value};

/// Seed for the shared random pattern set (fixed so runs are comparable
/// across commits).
const PATTERN_SEED: u64 = 0xBE9C_2005;

/// How many collapsed faults the raw `podem` phase targets per circuit
/// (without dropping, a full list would make the full-resim row take
/// tens of minutes on the large stand-ins).
const PODEM_SAMPLE: usize = 128;

const PHASES: [&str; 6] = ["no-drop", "dropping", "adi", "atpg", "drop-loop", "podem"];
/// The `engine` column: the reference row, then the production row.
const ENGINES: [&str; 2] = ["per-fault", "stem-region"];

/// Non-quick runs fail unless a cache-hit service request on the
/// largest circuit beats a cold compile by at least this factor.
const SERVICE_HIT_FLOOR: f64 = 10.0;

/// Non-quick runs fail unless every scenario-cache endpoint on the
/// largest circuit answers a hit at least this much faster than a
/// `"cache": "bypass"` recomputation.
const SCENARIO_HIT_FLOOR: f64 = 50.0;

/// The open-loop service SLO: p99 latency (measured from the scheduled
/// send time, so queueing counts) must stay under this, and no more
/// than [`OPEN_LOOP_SHED_CEIL`] of the offered requests may be shed.
const OPEN_LOOP_P99_SLO_MS: f64 = 250.0;
const OPEN_LOOP_SHED_CEIL: f64 = 0.01;

/// Seed for the service phase's agreement vector sets.
const AGREEMENT_SEED: u64 = 0x05EC_71CE;

/// Committed PR 5 baseline: stem-region no-drop wall time on irs13207
/// at 2048 patterns, one 64-bit lane, one thread. The v5 wide-word gate
/// holds the 4-lane cell to at least twice this throughput.
const PR5_IRS13207_NODROP_NS: u128 = 2_240_694_130;
const PR5_BASELINE_PATTERNS: f64 = 2048.0;
const WIDE_GAIN_FLOOR: f64 = 2.0;

/// Thread counts the width lattice measures (clipped by `--threads`).
const LATTICE_THREADS: [usize; 3] = [1, 2, 4];

/// Committed PR 6 baseline: end-to-end ordered ATPG (event-driven
/// PODEM with the batched drop loop, one lane, one thread) wall time
/// on irs13207. The v6 parallel-atpg gate holds the 4-thread
/// speculative cell to at least twice this speed.
const PR6_IRS13207_ATPG_NS: u128 = 2_355_143_480;
const ATPG_GAIN_FLOOR: f64 = 2.0;

/// On hosts without enough cores for the throughput floor (the
/// committed snapshots come from a single-core container), the
/// parallel-atpg gate degrades to an overhead bound: the 4-thread cell
/// must stay within this factor of the measured sequential cell, i.e.
/// speculation must cost bounded coordination overhead, never a
/// blow-up, when there is no parallel hardware to win on.
const ATPG_OVERHEAD_CEIL: f64 = 1.35;

/// Committed PR 9 baseline: stem-region no-drop wall time on irs13207
/// at 2048 patterns, one 64-bit lane, one thread, recorded before the
/// observability instrumentation landed. The v9 gates hold the
/// tracing-disabled wall within 2% of this and the tracing-enabled
/// wall within 10% (non-`--quick` only).
const PR9_IRS13207_NODROP_NS: u128 = 1_545_418_746;
const OBS_DISABLED_CEIL: f64 = 1.02;
const OBS_ENABLED_CEIL: f64 = 1.10;

/// The always-on (even `--quick`) observability overhead bound: the
/// enabled wall may never exceed this factor of the disabled wall
/// measured in the same run.
const OBS_RELATIVE_CEIL: f64 = 1.5;

struct Options {
    max_gates: usize,
    patterns: usize,
    quick: bool,
    out: Option<String>,
    min_speedup: f64,
    /// Restrict the width lattice to one lane count (`--width`).
    width: Option<SimWidth>,
    /// Cap on the lattice thread counts (`--threads`).
    max_threads: usize,
    /// Hidden: corrupt one lattice cell so the width-agreement gate
    /// demonstrably fires (CI smoke).
    inject_width_mismatch: bool,
    /// Hidden: skew one speculative ATPG cell's fill seed so the
    /// atpg-agreement gate demonstrably fires (CI smoke).
    inject_atpg_mismatch: bool,
    /// Hidden: flip one SAT verdict so the sat-agreement gate
    /// demonstrably fires (CI smoke).
    inject_sat_mismatch: bool,
    /// Hidden: corrupt one scenario-cache hit so the byte-identity
    /// gate demonstrably fires (CI smoke).
    inject_scenario_mismatch: bool,
    /// Hidden: inflate the tracing-enabled wall so the observability
    /// overhead gate demonstrably fires (CI smoke).
    inject_obs_overhead: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_gates: usize::MAX,
            patterns: 2048,
            quick: false,
            out: None,
            min_speedup: 1.5,
            width: None,
            max_threads: 4,
            inject_width_mismatch: false,
            inject_atpg_mismatch: false,
            inject_sat_mismatch: false,
            inject_scenario_mismatch: false,
            inject_obs_overhead: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let mut patterns_set = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => opts.max_gates = usize::MAX,
            "--quick" => opts.quick = true,
            "--max-gates" => {
                opts.max_gates = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| "--max-gates requires a number".to_string())?;
            }
            "--patterns" => {
                opts.patterns = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--patterns requires a positive number".to_string())?;
                patterns_set = true;
            }
            "--min-speedup" => {
                opts.min_speedup = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&x: &f64| x > 0.0)
                    .ok_or_else(|| "--min-speedup requires a positive number".to_string())?;
            }
            "--out" => {
                opts.out = Some(
                    args.next()
                        .ok_or_else(|| "--out requires a path".to_string())?,
                );
            }
            "--width" => {
                opts.width = Some(
                    args.next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .and_then(SimWidth::from_lanes)
                        .ok_or_else(|| "--width requires 1, 2, 4, or 8 (lanes)".to_string())?,
                );
            }
            "--threads" => {
                opts.max_threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--threads requires a positive number".to_string())?;
            }
            "--inject-width-mismatch" => opts.inject_width_mismatch = true,
            "--inject-atpg-mismatch" => opts.inject_atpg_mismatch = true,
            "--inject-sat-mismatch" => opts.inject_sat_mismatch = true,
            "--inject-scenario-mismatch" => opts.inject_scenario_mismatch = true,
            "--inject-obs-overhead" => opts.inject_obs_overhead = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.quick && !patterns_set {
        opts.patterns = 192;
    }
    Ok(opts)
}

/// Times `f`, repeating fast runs (up to 15, or until ~200ms of total
/// measurement, keeping the minimum) so short phases report a stable
/// number while second-scale phases run once.
fn time_ns(mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    let mut spent = 0u128;
    for _ in 0..15 {
        let t0 = Instant::now();
        f();
        let ns = t0.elapsed().as_nanos();
        best = best.min(ns);
        spent += ns;
        if spent >= 200_000_000 {
            break;
        }
    }
    best
}

/// Times `f` over exactly `reps` runs, keeping the minimum — the
/// observability phase compares two second-scale walls against a 2%
/// ceiling, so it always repeats instead of trusting one sample.
fn time_ns_reps(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos());
    }
    best
}

/// `YYYY-MM-DD` in UTC from the system clock (civil-from-days, Howard
/// Hinnant's algorithm), so the report needs no date dependency.
fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

struct Entry {
    circuit: String,
    engine: &'static str,
    phase: &'static str,
    wall_ns: u128,
    speedup: f64,
    /// `podem`-phase extras: `(targets_per_s, events_per_decision)`.
    podem_metrics: Option<(f64, f64)>,
}

/// Compile-once vs compile-per-call accounting for one circuit.
struct CircuitStats {
    name: String,
    /// One full `CompiledCircuit::compile` (levelize + FFR).
    compile_ns: u128,
    /// ADI end-to-end over a prebuilt compilation (stem engine).
    adi_compile_once_ns: u128,
    /// ADI end-to-end compiling a private copy per call (stem engine).
    adi_per_call_ns: u128,
}

/// `adi-service` request-path numbers for one circuit (the v4 `service`
/// phase).
struct ServiceStats {
    name: String,
    /// A `compile` request with bench text against a fresh (cold) store.
    cold_compile_ns: u128,
    /// A `compile` request by hash against the warm store.
    cache_hit_ns: u128,
    /// `cold_compile_ns / cache_hit_ns`.
    hit_speedup: f64,
    /// Closed-loop cache-hit request throughput (4 threads, mixed
    /// compile/coverage/ndetect requests by hash).
    throughput_rps: f64,
}

/// The v8 `scenario_cache` phase for one `(circuit, endpoint)` pair:
/// a repeated request answered from the response cache vs a
/// `"cache": "bypass"` recomputation, byte-identity-gated before any
/// timing is recorded.
struct ScenarioPerfStats {
    circuit: String,
    endpoint: &'static str,
    /// A `"cache": "bypass"` request — the full computation.
    cold_ns: u128,
    /// The same request answered from the scenario cache.
    hit_ns: u128,
    /// `cold_ns / hit_ns`.
    hit_speedup: f64,
}

/// The v8 `open_loop` phase: a fixed-rate request schedule against an
/// in-process TCP server, latency measured from each request's
/// scheduled send time (so queueing delay counts).
struct OpenLoopStats {
    circuit: String,
    offered_rps: f64,
    achieved_rps: f64,
    completed: u64,
    /// Responses refused by the server's admission control.
    shed: u64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    /// Server-side queue-wait histogram (submit to worker pickup),
    /// scraped from the in-process server's `metrics` endpoint at the
    /// end of the run. All zero when collection was disabled.
    queue_wait_count: u64,
    queue_wait_p50_ms: f64,
    queue_wait_p99_ms: f64,
    queue_wait_p999_ms: f64,
}

/// The v9 `observability` phase for the largest circuit: the
/// stem-region no-drop wall with metric collection disabled vs
/// enabled, gated (see [`observability_phase`]) before it is recorded.
struct ObservabilityStats {
    circuit: String,
    /// Wall with collection off — every span site pays one relaxed
    /// atomic load.
    disabled_ns: u128,
    /// The same wall with collection on (histograms + the event ring).
    enabled_ns: u128,
    /// `enabled_ns / disabled_ns`.
    overhead: f64,
}

/// One cell of the v5 wide-word lattice: the stem-region no-drop matrix
/// at a given lane count and thread count, agreement-gated bit-identical
/// to the 64-bit single-thread oracle before the timing is recorded.
struct WidthStats {
    circuit: String,
    lanes: usize,
    threads: usize,
    wall_ns: u128,
    /// Patterns simulated per second of wall time.
    patterns_per_s: f64,
    /// `patterns_per_s / threads` — the per-core yield of this cell.
    patterns_per_s_per_core: f64,
    /// `pps(threads) / (threads * pps(1))` at the same width.
    scaling_efficiency: f64,
}

/// The v7 `sat` phase for one circuit: cone-restricted miter proofs
/// over the raw-PODEM fault sample, verdict-agreement-gated against the
/// event-driven engine on every commonly-decided fault, plus the SAT
/// resolution of whatever the default-limit ATPG run aborted on.
struct SatStats {
    circuit: String,
    /// Wall time for the `sample` miter proofs.
    wall_ns: u128,
    /// `sample / wall_ns` in proofs per second.
    proofs_per_s: f64,
    /// How many faults the phase proved (the raw-PODEM sample).
    sample: usize,
    /// Faults where both PODEM and the solver reached a verdict (and,
    /// past the gate, agreed).
    agreed: usize,
    /// Backtrack-aborted targets of the sequential default-limit ATPG
    /// run that the phase handed to the solver.
    aborted_faults: u64,
    /// ... of which proved redundant (UNSAT).
    resolved_redundant: u64,
    /// ... of which got a test cube (SAT).
    resolved_testable: u64,
    /// ... of which ran out of conflicts too.
    resolved_undecided: u64,
}

/// One cell of the v6 speculative-ATPG lattice: end-to-end ordered ATPG
/// (event-driven PODEM + batched drop loop, one lane) at one total
/// thread count, agreement-gated bit-identical to the sequential cell.
struct AtpgScalingStats {
    circuit: String,
    threads: usize,
    wall_ns: u128,
    /// Sequential-cell wall time over this cell's (so threads=1 reads 1.0).
    speedup: f64,
    wasted_speculations: u64,
    generate_ns: u64,
    drop_ns: u64,
    commit_wait_ns: u64,
}

/// Unwraps a service response, panicking (and thus refusing to write a
/// report) unless it succeeded.
fn service_ok(circuit: &str, response: &str) -> Value {
    let v = json::parse(response)
        .unwrap_or_else(|e| panic!("{circuit}: service response is not JSON ({e})"));
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "{circuit}: service request failed: {v} — refusing to write a perf report"
    );
    v.get("result").expect("ok responses carry a result").clone()
}

fn service_u64(circuit: &str, result: &Value, key: &str) -> u64 {
    result
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("{circuit}: service response lacks `{key}`: {result}"))
}

/// The v4 `service` phase for one circuit: agreement-gate every
/// endpoint the phase touches against the direct library result, then
/// record cold-compile vs cache-hit request latency and multi-threaded
/// cache-hit throughput.
fn service_phase(name: &str, netlist_text: &str, patterns: usize) -> ServiceStats {
    // The `.bench` parser numbers nodes by first mention, so the direct
    // reference must run on the same parse the service performs.
    let netlist = bench_format::parse(netlist_text, name).expect("suite circuit reparses");
    let compiled = CompiledCircuit::compile(netlist.clone());
    let faults = compiled.collapsed_faults();
    let agreement_patterns = patterns.min(256);

    let compile_req = {
        let mut o = Object::new();
        o.insert("op", "compile");
        o.insert("bench", netlist_text);
        o.insert("name", name);
        Value::Object(o).to_string()
    };

    // ---- agreement gates (every endpoint the phase touches) ----------
    let state = ServiceState::new(StoreConfig::default());
    let r = service_ok(name, &state.handle_line(&compile_req));
    let hash = r
        .get("hash")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{name}: compile response lacks a hash"))
        .to_string();
    assert_eq!(hash, netlist.content_hash().to_hex(), "{name}: content hash disagrees");
    assert_eq!(service_u64(name, &r, "nodes"), netlist.num_nodes() as u64);
    assert_eq!(
        service_u64(name, &r, "collapsed_faults"),
        faults.len() as u64,
        "{name}: collapsed fault count disagrees"
    );

    let sim = FaultSimulator::for_circuit(&compiled, faults);
    let pats = PatternSet::random(netlist.num_inputs(), agreement_patterns, AGREEMENT_SEED);
    let r = service_ok(
        name,
        &state.handle_line(&format!(
            r#"{{"op":"coverage","hash":"{hash}","random":{{"count":{agreement_patterns},"seed":{}}}}}"#,
            AGREEMENT_SEED
        )),
    );
    let direct = sim.with_dropping(&pats);
    assert_eq!(
        service_u64(name, &r, "num_detected"),
        direct.num_detected() as u64,
        "{name}: coverage endpoint disagrees with direct simulation"
    );

    let r = service_ok(
        name,
        &state.handle_line(&format!(
            r#"{{"op":"ndetect","hash":"{hash}","random":{{"count":{agreement_patterns},"seed":{}}},"n":4}}"#,
            AGREEMENT_SEED
        )),
    );
    let nd = sim.n_detect(&pats, 4);
    let counts: Vec<u64> = r
        .get("counts")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{name}: ndetect response lacks counts"))
        .iter()
        .map(|v| v.as_u64().expect("count"))
        .collect();
    assert_eq!(
        counts,
        nd.counts.iter().map(|&c| c as u64).collect::<Vec<_>>(),
        "{name}: ndetect endpoint disagrees with direct simulation"
    );

    let r = service_ok(
        name,
        &state.handle_line(&format!(
            r#"{{"op":"adi","hash":"{hash}","random":{{"count":{agreement_patterns},"seed":{}}},"ordering":"0dynm"}}"#,
            AGREEMENT_SEED
        )),
    );
    let analysis = AdiAnalysis::for_circuit(&compiled, faults, &pats, AdiConfig::default());
    let summary = analysis.summary();
    let order: Vec<u64> = adi_core::order_faults(&analysis, adi_core::FaultOrdering::Dynamic0)
        .into_iter()
        .map(|f| f.index() as u64)
        .collect();
    let adi_obj = r.get("adi").expect("adi summary");
    assert_eq!(service_u64(name, adi_obj, "min"), summary.min as u64);
    assert_eq!(service_u64(name, adi_obj, "max"), summary.max as u64);
    assert_eq!(service_u64(name, adi_obj, "detected"), summary.detected as u64);
    let service_order: Vec<u64> = r
        .get("order")
        .and_then(Value::as_array)
        .expect("ordering requested")
        .iter()
        .map(|v| v.as_u64().expect("fault index"))
        .collect();
    assert_eq!(service_order, order, "{name}: adi ordering disagrees");

    let r = service_ok(
        name,
        &state.handle_line(&format!(
            r#"{{"op":"atpg","hash":"{hash}","ordering":"orig","include_tests":true}}"#
        )),
    );
    let ids: Vec<FaultId> = faults.ids().collect();
    let direct_gen = TestGenerator::for_circuit(&compiled, faults, TestGenConfig::default()).run(&ids);
    assert_eq!(
        service_u64(name, &r, "num_tests"),
        direct_gen.num_tests() as u64,
        "{name}: atpg endpoint disagrees with direct generation"
    );
    let service_tests: Vec<String> = r
        .get("tests")
        .and_then(Value::as_array)
        .expect("tests requested")
        .iter()
        .map(|t| t.as_str().expect("bit string").to_string())
        .collect();
    let direct_tests: Vec<String> = direct_gen
        .tests
        .iter()
        .map(|p| p.iter().map(|b| if b { '1' } else { '0' }).collect())
        .collect();
    assert_eq!(service_tests, direct_tests, "{name}: atpg test sets disagree");

    // Reorder over a prefix of the generated set (bounded for speed).
    let prefix: Vec<&String> = direct_tests.iter().take(24).collect();
    let list = prefix
        .iter()
        .map(|t| format!("\"{t}\""))
        .collect::<Vec<_>>()
        .join(",");
    let r = service_ok(
        name,
        &state.handle_line(&format!(
            r#"{{"op":"reorder","hash":"{hash}","patterns":[{list}]}}"#
        )),
    );
    let prefix_set = PatternSet::from_patterns(
        netlist.num_inputs(),
        &direct_gen.tests[..prefix.len().min(direct_gen.tests.len())],
    );
    let direct_reorder = adi_core::reorder::reorder_tests_for(&compiled, faults, &prefix_set);
    let service_perm: Vec<u64> = r
        .get("permutation")
        .and_then(Value::as_array)
        .expect("permutation")
        .iter()
        .map(|v| v.as_u64().expect("index"))
        .collect();
    assert_eq!(
        service_perm,
        direct_reorder.permutation.iter().map(|&i| i as u64).collect::<Vec<_>>(),
        "{name}: reorder endpoint disagrees"
    );

    // ---- timings (only after every gate above has passed) ------------
    let cold_compile_ns = time_ns(|| {
        let fresh = ServiceState::new(StoreConfig::default());
        std::hint::black_box(fresh.handle_line(&compile_req));
    });
    let hit_req = format!(r#"{{"op":"compile","hash":"{hash}"}}"#);
    let cache_hit_ns = time_ns(|| {
        std::hint::black_box(state.handle_line(&hit_req));
    });

    // Closed-loop throughput: 4 threads, hash-addressed request mix.
    const THREADS: usize = 4;
    const PER_THREAD: usize = 48;
    let mix = [
        hit_req.clone(),
        format!(r#"{{"op":"coverage","hash":"{hash}","random":{{"count":32,"seed":3}}}}"#),
        format!(r#"{{"op":"ndetect","hash":"{hash}","random":{{"count":32,"seed":5}},"n":2}}"#),
    ];
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let state = &state;
            let mix = &mix;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let response = state.handle_line(&mix[(t + i) % mix.len()]);
                    std::hint::black_box(&response);
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let throughput_rps = (THREADS * PER_THREAD) as f64 / wall.max(1e-9);

    ServiceStats {
        name: name.to_string(),
        cold_compile_ns,
        cache_hit_ns,
        hit_speedup: cold_compile_ns as f64 / cache_hit_ns.max(1) as f64,
        throughput_rps,
    }
}

/// The v8 `scenario_cache` phase for one circuit: repeat each cacheable
/// endpoint's request, gate the hit **byte-identical** to the miss that
/// populated it, then time the hit against a `"cache": "bypass"`
/// recomputation. The gate runs even under `--quick`.
fn scenario_phase(
    name: &str,
    netlist_text: &str,
    patterns: usize,
    inject_pending: &mut bool,
) -> Vec<ScenarioPerfStats> {
    let state = ServiceState::new(StoreConfig::default());
    let compile_req = {
        let mut o = Object::new();
        o.insert("op", "compile");
        o.insert("bench", netlist_text);
        o.insert("name", name);
        Value::Object(o).to_string()
    };
    let r = service_ok(name, &state.handle_line(&compile_req));
    let hash = r
        .get("hash")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{name}: compile response lacks a hash"))
        .to_string();
    let count = patterns.min(256);
    let seed = AGREEMENT_SEED;
    let endpoints: [(&'static str, String); 4] = [
        (
            "coverage",
            format!(r#"{{"op":"coverage","hash":"{hash}","random":{{"count":{count},"seed":{seed}}}}}"#),
        ),
        (
            "ndetect",
            format!(r#"{{"op":"ndetect","hash":"{hash}","random":{{"count":{count},"seed":{seed}}},"n":4}}"#),
        ),
        (
            "adi",
            format!(r#"{{"op":"adi","hash":"{hash}","random":{{"count":{count},"seed":{seed}}},"ordering":"0dynm"}}"#),
        ),
        ("atpg", format!(r#"{{"op":"atpg","hash":"{hash}","ordering":"orig"}}"#)),
    ];
    let mut out = Vec::with_capacity(endpoints.len());
    for (endpoint, request) in &endpoints {
        let miss = state.handle_line(request);
        service_ok(name, &miss);
        let mut hit = state.handle_line(request);
        if *inject_pending {
            *inject_pending = false;
            // Deliberately corrupt one byte of the hit copy: the
            // byte-identity gate must catch it.
            hit = hit.replacen("result", "resulz", 1);
        }
        if miss != hit {
            eprintln!(
                "error: scenario agreement gate fired: {name} `{endpoint}` cache hit is \
                 not byte-identical to the cold response — refusing to write a perf report"
            );
            std::process::exit(1);
        }
        // Timings only once the gate has passed.
        let bypass = format!(
            r#"{},"cache":"bypass"}}"#,
            request.strip_suffix('}').expect("request object")
        );
        let cold_ns = time_ns(|| {
            std::hint::black_box(state.handle_line(&bypass));
        });
        let hit_ns = time_ns(|| {
            std::hint::black_box(state.handle_line(request));
        });
        out.push(ScenarioPerfStats {
            circuit: name.to_string(),
            endpoint,
            cold_ns,
            hit_ns,
            hit_speedup: cold_ns as f64 / hit_ns.max(1) as f64,
        });
    }
    out
}

/// Connects to `addr` with Nagle off: every request below goes out as
/// one write of the whole line, so none waits on a delayed ACK.
fn tcp_connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let writer = stream.try_clone().expect("clone connection");
    (BufReader::new(stream), writer)
}

/// One blocking request/response line pair over a TCP connection.
fn tcp_round_trip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, request: &str) -> Value {
    writer
        .write_all(format!("{request}\n").as_bytes())
        .expect("service request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("service response");
    json::parse(line.trim_end()).expect("service response JSON")
}

/// The v8 `open_loop` phase: boots an in-process TCP server, primes an
/// n-detect sweep so the steady state exercises the scenario cache,
/// then offers requests at a fixed rate and measures completion and
/// latency from each request's scheduled send time.
fn open_loop_phase(name: &str, netlist_text: &str, quick: bool) -> OpenLoopStats {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let state = Arc::new(ServiceState::new(StoreConfig::default()));
    let server = std::thread::spawn(move || {
        serve_tcp(
            listener,
            state,
            ServerConfig {
                workers: 2,
                queue_depth: 64,
                max_inflight: 64,
            },
        )
        .expect("in-process server")
    });

    let (rate, total) = if quick { (200.0_f64, 200u64) } else { (400.0_f64, 1200u64) };
    const SWEEP: u64 = 4;

    // Control connection: compile, prime the sweep, and (later) stop
    // the server.
    let (mut control, mut control_writer) = tcp_connect(addr);
    let compile_req = {
        let mut o = Object::new();
        o.insert("op", "compile");
        o.insert("bench", netlist_text);
        o.insert("name", name);
        Value::Object(o).to_string()
    };
    let v = tcp_round_trip(&mut control, &mut control_writer, &compile_req);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{name}: compile failed: {v}");
    let hash = v
        .get("result")
        .and_then(|r| r.get("hash"))
        .and_then(Value::as_str)
        .expect("compile returns a hash")
        .to_string();
    for n in 1..=SWEEP {
        let v = tcp_round_trip(
            &mut control,
            &mut control_writer,
            &format!(r#"{{"op":"ndetect","hash":"{hash}","random":{{"count":64,"seed":{AGREEMENT_SEED}}},"n":{n}}}"#),
        );
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{name}: prime failed: {v}");
    }

    // Measurement connection: a sender thread on the fixed schedule, the
    // reader here tallying latency (from scheduled send) and sheds.
    let (mut reader, mut writer) = tcp_connect(addr);
    let start = Instant::now() + Duration::from_millis(50);
    let (latencies, shed) = std::thread::scope(|scope| {
        let hash = &hash;
        let sender = scope.spawn(move || {
            for i in 0..total {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let n = 1 + (i % SWEEP);
                let req = format!(
                    r#"{{"id":{i},"op":"ndetect","hash":"{hash}","random":{{"count":64,"seed":{AGREEMENT_SEED}}},"n":{n}}}"#
                );
                writer
                    .write_all(format!("{req}\n").as_bytes())
                    .expect("open-loop send");
            }
        });
        let mut latencies: Vec<u64> = Vec::with_capacity(total as usize);
        let mut shed = 0u64;
        for _ in 0..total {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("open-loop receive");
            assert!(n > 0, "{name}: server closed the connection mid-run");
            let done = Instant::now();
            let v = json::parse(line.trim_end()).expect("open-loop response JSON");
            let id = v.get("id").and_then(Value::as_u64).expect("response id");
            if v.get("ok").and_then(Value::as_bool) == Some(true) {
                let due = start + Duration::from_secs_f64(id as f64 / rate);
                latencies.push(done.saturating_duration_since(due).as_nanos() as u64);
            } else if v.get("shed").and_then(Value::as_bool) == Some(true) {
                shed += 1;
            } else {
                panic!("{name}: open-loop request {id} failed: {v}");
            }
        }
        sender.join().expect("open-loop sender panicked");
        (latencies, shed)
    });
    let wall = start.elapsed().as_secs_f64().max(1e-9);

    // Scrape the server-side queue-wait histogram (submit to worker
    // pickup) before shutting down: the open-loop latency above counts
    // queueing from the *client's* schedule, this one from the server's
    // transport.
    let v = tcp_round_trip(
        &mut control,
        &mut control_writer,
        r#"{"op":"metrics","format":"json"}"#,
    );
    let queue_wait = v
        .get("result")
        .and_then(|r| r.get("histograms"))
        .and_then(|h| h.get("adi_request_queue_wait_ns"))
        .cloned();
    let qw = |key: &str| -> u64 {
        queue_wait
            .as_ref()
            .and_then(|h| h.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (queue_wait_count, qw_p50, qw_p99, qw_p999) =
        (qw("count"), qw("p50"), qw("p99"), qw("p999"));

    let v = tcp_round_trip(&mut control, &mut control_writer, r#"{"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{name}: shutdown failed");
    server.join().expect("server thread panicked");

    let mut sorted = latencies;
    sorted.sort_unstable();
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx] as f64 / 1e6
    };
    OpenLoopStats {
        circuit: name.to_string(),
        offered_rps: rate,
        achieved_rps: sorted.len() as f64 / wall,
        completed: sorted.len() as u64,
        shed,
        p50_ms: pct(50.0),
        p99_ms: pct(99.0),
        p999_ms: pct(99.9),
        queue_wait_count,
        queue_wait_p50_ms: qw_p50 as f64 / 1e6,
        queue_wait_p99_ms: qw_p99 as f64 / 1e6,
        queue_wait_p999_ms: qw_p999 as f64 / 1e6,
    }
}

/// The v9 `observability` phase: gate the traced request path
/// byte-identical to the untraced one, then measure the stem-region
/// no-drop wall with metric collection disabled vs enabled. The
/// relative overhead gate (enabled within [`OBS_RELATIVE_CEIL`] of
/// disabled) runs even under `--quick`; the absolute gates against the
/// committed PR 9 baseline apply to non-`--quick` irs13207 runs.
/// Collection is left **enabled** on return — the open-loop phase runs
/// next and its queue-wait scrape needs live histograms.
fn observability_phase(
    name: &str,
    netlist_text: &str,
    compiled: &CompiledCircuit,
    faults: &FaultList,
    patterns: &PatternSet,
    quick: bool,
    inject_pending: &mut bool,
) -> ObservabilityStats {
    // ---- trace byte-identity gate (before any timing) ----------------
    // A `"trace": true` request must return the untraced bytes plus a
    // trailing `"trace"` field, and must not disturb what the scenario
    // cache replays to later untraced requests.
    let state = ServiceState::new(StoreConfig::default());
    let compile_req = {
        let mut o = Object::new();
        o.insert("op", "compile");
        o.insert("bench", netlist_text);
        o.insert("name", name);
        Value::Object(o).to_string()
    };
    let r = service_ok(name, &state.handle_line(&compile_req));
    let hash = r
        .get("hash")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{name}: compile response lacks a hash"))
        .to_string();
    let request = format!(
        r#"{{"op":"coverage","hash":"{hash}","random":{{"count":64,"seed":{AGREEMENT_SEED}}}}}"#
    );
    let plain = state.handle_line(&request);
    service_ok(name, &plain);
    let traced_req = format!(
        r#"{},"trace":true}}"#,
        request.strip_suffix('}').expect("request object")
    );
    let traced = state.handle_line(&traced_req);
    let replay = state.handle_line(&request);
    if !traced.starts_with(&plain[..plain.len() - 1])
        || !traced.contains(r#","trace":{"#)
        || replay != plain
    {
        eprintln!(
            "error: observability trace gate fired: {name} traced response does not \
             extend the untraced bytes exactly — refusing to write a perf report"
        );
        std::process::exit(1);
    }

    // ---- timings (only after the gate above has passed) --------------
    let sim = FaultSimulator::for_circuit(compiled, faults).with_width(SimWidth::W1);
    adi_obs::set_enabled(false);
    let disabled_ns = time_ns_reps(3, || {
        std::hint::black_box(sim.no_drop_matrix(patterns));
    });
    adi_obs::set_enabled(true);
    let mut enabled_ns = time_ns_reps(3, || {
        std::hint::black_box(sim.no_drop_matrix(patterns));
    });
    if *inject_pending {
        *inject_pending = false;
        // Deliberately inflate the enabled wall: the overhead gate
        // must catch it.
        enabled_ns = enabled_ns.saturating_mul(20);
    }

    // The relative gate runs even under `--quick`: instrumentation
    // that inflates the hot path by half its wall is a bug regardless
    // of the host this runs on.
    let overhead = enabled_ns as f64 / disabled_ns.max(1) as f64;
    if overhead > OBS_RELATIVE_CEIL {
        eprintln!(
            "error: observability overhead gate fired: {name} tracing-enabled no-drop \
             wall is {overhead:.2}x the disabled wall, above the {OBS_RELATIVE_CEIL:.2}x \
             ceiling — refusing to write a perf report"
        );
        std::process::exit(1);
    }
    if !quick && name == "irs13207" {
        let baseline_ms = PR9_IRS13207_NODROP_NS as f64 / 1e6;
        if disabled_ns as f64 > PR9_IRS13207_NODROP_NS as f64 * OBS_DISABLED_CEIL {
            eprintln!(
                "error: observability overhead gate fired: {name} tracing-disabled \
                 no-drop wall {:.0} ms exceeds {OBS_DISABLED_CEIL:.2}x the committed \
                 PR 9 baseline {baseline_ms:.0} ms — refusing to write a perf report",
                disabled_ns as f64 / 1e6
            );
            std::process::exit(1);
        }
        if enabled_ns as f64 > PR9_IRS13207_NODROP_NS as f64 * OBS_ENABLED_CEIL {
            eprintln!(
                "error: observability overhead gate fired: {name} tracing-enabled \
                 no-drop wall {:.0} ms exceeds {OBS_ENABLED_CEIL:.2}x the committed \
                 PR 9 baseline {baseline_ms:.0} ms — refusing to write a perf report",
                enabled_ns as f64 / 1e6
            );
            std::process::exit(1);
        }
        eprintln!(
            "[perf_report] observability gate passed: {name} disabled {:.0} ms / \
             enabled {:.0} ms vs the {baseline_ms:.0} ms PR 9 baseline \
             (x{OBS_DISABLED_CEIL:.2}/x{OBS_ENABLED_CEIL:.2} ceilings)",
            disabled_ns as f64 / 1e6,
            enabled_ns as f64 / 1e6
        );
    }
    ObservabilityStats {
        circuit: name.to_string(),
        disabled_ns,
        enabled_ns,
        overhead,
    }
}

/// The compile-per-call path the pre-0.2 wrappers used to take (spelled
/// out now that those wrappers are gone): this is precisely the cost the
/// compiled API removes.
fn adi_per_call(netlist: &Netlist, patterns: &PatternSet, config: AdiConfig) -> AdiAnalysis {
    let circuit = CompiledCircuit::compile(netlist.clone());
    let faults = adi_netlist::fault::FaultList::collapsed(netlist);
    AdiAnalysis::for_circuit(&circuit, &faults, patterns, config)
}

/// Scalar drop-loop replay: one `detect_pattern` call per test against
/// the shrinking active set — exactly the pre-batching ATPG drop loop.
fn replay_scalar(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    tests: &[Pattern],
) -> Vec<Vec<FaultId>> {
    let sim = FaultSimulator::for_circuit(circuit, faults);
    let mut scratch = SimScratch::for_circuit(circuit);
    let mut active: Vec<FaultId> = faults.ids().collect();
    let mut out = Vec::with_capacity(tests.len());
    for test in tests {
        let detected = sim.detect_pattern(test, &active, &mut scratch);
        active.retain(|id| !detected.contains(id));
        out.push(detected);
    }
    out
}

/// Batched drop-loop replay: 64-wide `DropSession` blocks through the
/// stem-region engine, bit-identical to [`replay_scalar`].
fn replay_batched(
    circuit: &CompiledCircuit,
    faults: &FaultList,
    tests: &[Pattern],
) -> Vec<Vec<FaultId>> {
    let mut session: DropSession = DropSession::for_circuit(circuit, faults);
    let mut active: Vec<FaultId> = faults.ids().collect();
    let mut out = Vec::with_capacity(tests.len());
    for test in tests {
        session.push(test);
        if session.is_full() {
            let lists = session.flush(&active);
            for detected in &lists {
                active.retain(|id| !detected.contains(id));
            }
            out.extend(lists);
        }
    }
    out.extend(session.flush(&active));
    out
}

/// Asserts two ATPG results are bit-identical modulo the backend
/// diagnostics in the stats.
fn assert_atpg_agreement(circuit: &str, a: &TestGenResult, b: &TestGenResult) {
    let agree = a.tests == b.tests
        && a.targets == b.targets
        && a.new_detections == b.new_detections
        && a.status == b.status
        && a.podem_stats.search_counters() == b.podem_stats.search_counters();
    assert!(
        agree,
        "{circuit}: the classic and current ATPG stacks disagree — refusing to write a perf report"
    );
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: perf_report [--max-gates N | --all] [--quick] \
                 [--patterns N] [--out PATH] [--min-speedup X] \
                 [--width 1|2|4|8] [--threads N]"
            );
            std::process::exit(2);
        }
    };
    let date = today_utc();
    let out_path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{date}.json"));

    let circuits: Vec<_> = paper_suite()
        .into_iter()
        .filter(|c| c.gates <= opts.max_gates)
        .collect();
    let mut entries: Vec<Entry> = Vec::new();
    let mut circuit_stats: Vec<CircuitStats> = Vec::new();
    let mut service_stats: Vec<ServiceStats> = Vec::new();
    let mut width_stats: Vec<WidthStats> = Vec::new();
    let lattice_widths: Vec<SimWidth> = match opts.width {
        Some(w) => vec![w],
        None => SimWidth::ALL.to_vec(),
    };
    let lattice_threads: Vec<usize> = LATTICE_THREADS
        .into_iter()
        .filter(|&t| t <= opts.max_threads)
        .collect();
    // One cell is corrupted at most once per run (the first measured).
    let mut inject_pending = opts.inject_width_mismatch;
    let mut atpg_scaling: Vec<AtpgScalingStats> = Vec::new();
    let mut inject_atpg_pending = opts.inject_atpg_mismatch;
    let mut sat_stats: Vec<SatStats> = Vec::new();
    let mut inject_sat_pending = opts.inject_sat_mismatch;
    let mut scenario_stats: Vec<ScenarioPerfStats> = Vec::new();
    let mut inject_scenario_pending = opts.inject_scenario_mismatch;
    let mut open_loop_stats: Vec<OpenLoopStats> = Vec::new();
    let mut obs_stats: Vec<ObservabilityStats> = Vec::new();
    let mut inject_obs_pending = opts.inject_obs_overhead;
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Metric collection stays off through the per-circuit loop so every
    // phase's wall remains comparable to the pre-v9 snapshots; the
    // observability phase below measures the enabled cost explicitly.
    adi_obs::set_enabled(false);

    for circuit in &circuits {
        eprintln!(
            "[perf_report] {} ({} inputs, {} gates, {} patterns)...",
            circuit.name, circuit.inputs, circuit.gates, opts.patterns
        );
        let netlist = circuit.netlist();
        let compile_ns = time_ns(|| {
            std::hint::black_box(CompiledCircuit::compile(netlist.clone()));
        });
        let compiled = CompiledCircuit::compile(netlist);
        let faults = compiled.collapsed_faults();
        let patterns = PatternSet::random(
            compiled.netlist().num_inputs(),
            opts.patterns,
            PATTERN_SEED,
        );

        // Correctness gate: the engines must agree bit for bit before
        // their timings are worth recording. The stem-region result at
        // one lane on one thread doubles as the wide-word oracle.
        let reference = reference::no_drop_matrix(&compiled, faults, &patterns);
        let oracle = FaultSimulator::for_circuit(&compiled, faults)
            .with_width(SimWidth::W1)
            .no_drop_matrix(&patterns);
        assert_eq!(
            reference, oracle,
            "{}: engines disagree — refusing to write a perf report",
            circuit.name
        );
        drop(reference);

        // The v5 wide-word lattice: every (lanes, threads) cell must be
        // bit-identical to the 64-bit single-thread oracle before its
        // timing is written.
        for &width in &lattice_widths {
            let sim = FaultSimulator::for_circuit(&compiled, faults).with_width(width);
            let mut serial_pps = None;
            for &threads in &lattice_threads {
                let gate_matrix = if inject_pending {
                    inject_pending = false;
                    // Deliberately simulate a different pattern set for
                    // the agreement check: the gate must catch it.
                    let skewed = PatternSet::random(
                        compiled.netlist().num_inputs(),
                        opts.patterns,
                        PATTERN_SEED ^ 1,
                    );
                    sim.no_drop_matrix_parallel(&skewed, threads)
                } else {
                    sim.no_drop_matrix_parallel(&patterns, threads)
                };
                if gate_matrix != oracle {
                    eprintln!(
                        "error: width agreement gate fired: {} at {width} lanes x{threads} \
                         threads disagrees with the 64-bit single-thread oracle — \
                         refusing to write a perf report",
                        circuit.name
                    );
                    std::process::exit(1);
                }
                let wall_ns = time_ns(|| {
                    std::hint::black_box(sim.no_drop_matrix_parallel(&patterns, threads));
                });
                let pps = opts.patterns as f64 / (wall_ns.max(1) as f64 / 1e9);
                let serial = *serial_pps.get_or_insert(pps);
                width_stats.push(WidthStats {
                    circuit: circuit.name.to_string(),
                    lanes: width.lanes(),
                    threads,
                    wall_ns,
                    patterns_per_s: pps,
                    patterns_per_s_per_core: pps / threads as f64,
                    scaling_efficiency: pps / (threads as f64 * serial),
                });
            }
        }
        drop(oracle);

        let mut wall = [[0u128; PHASES.len()]; ENGINES.len()];
        let mut podem_metrics: [Option<(f64, f64)>; 2] = [None, None];
        let config = AdiConfig {
            width: SimWidth::W1,
            ..AdiConfig::default()
        };
        wall[0][0] = time_ns(|| {
            std::hint::black_box(reference::no_drop_matrix(&compiled, faults, &patterns));
        });
        wall[0][1] = time_ns(|| {
            std::hint::black_box(reference::with_dropping(&compiled, faults, &patterns));
        });
        wall[0][2] = time_ns(|| {
            std::hint::black_box(AdiAnalysis::from_matrix(
                reference::no_drop_matrix(&compiled, faults, &patterns),
                config,
            ));
        });
        let sim = FaultSimulator::for_circuit(&compiled, faults).with_width(SimWidth::W1);
        wall[1][0] = time_ns(|| {
            std::hint::black_box(sim.no_drop_matrix(&patterns));
        });
        wall[1][1] = time_ns(|| {
            std::hint::black_box(sim.with_dropping(&patterns));
        });
        wall[1][2] = time_ns(|| {
            std::hint::black_box(AdiAnalysis::for_circuit(
                &compiled, faults, &patterns, config,
            ));
        });

        // ATPG end-to-end: the classic stack (`run_reference`: full-resim
        // PODEM + scalar drop loop, the per-fault row) vs the current
        // stack (`run`: event-driven PODEM + batched drop loop, the
        // stem-region row), SAT fallback off in both, with a
        // bit-identical gate on the full result before the timings count.
        let order: Vec<FaultId> = faults.ids().collect();
        let mut results: [Option<TestGenResult>; 2] = [None, None];
        let gen = TestGenerator::for_circuit(
            &compiled,
            faults,
            TestGenConfig {
                width: SimWidth::W1,
                podem: PodemConfig::default(),
                ..TestGenConfig::default()
            },
        );
        let no_warmup = PatternSet::new(compiled.netlist().num_inputs());
        wall[0][3] = time_ns(|| {
            results[0] = Some(std::hint::black_box(gen.run_reference(&order, &no_warmup)));
        });
        wall[1][3] = time_ns(|| {
            results[1] = Some(std::hint::black_box(gen.run(&order)));
        });
        let (a, b) = (
            results[0].as_ref().expect("timed"),
            results[1].as_ref().expect("timed"),
        );
        assert_atpg_agreement(circuit.name, a, b);

        // The v6 speculative-ATPG lattice: the same ordered run at
        // total thread counts 1, 2, 4 — every threaded cell must be
        // bit-identical to the sequential cell before its timing is
        // written, even under `--quick` (this is where the fill-seed
        // skew of `--inject-atpg-mismatch` gets caught).
        eprintln!("[perf_report] {} atpg scaling phase...", circuit.name);
        let mut serial_cell: Option<(u128, TestGenResult)> = None;
        for &threads in &lattice_threads {
            let mut config = TestGenConfig {
                width: SimWidth::W1,
                threads,
                atpg_threads: threads,
                ..TestGenConfig::default()
            };
            if threads > 1 && inject_atpg_pending {
                inject_atpg_pending = false;
                // Deliberately skew the fill seed: the committed tests
                // differ, and the agreement gate must catch it.
                config.fill_seed ^= 1;
            }
            let gen = TestGenerator::for_circuit(&compiled, faults, config);
            let mut cell: Option<TestGenResult> = None;
            let wall_ns = time_ns(|| {
                cell = Some(std::hint::black_box(gen.run(&order)));
            });
            let cell = cell.expect("timed");
            let (serial_ns, serial_result) =
                serial_cell.get_or_insert_with(|| (wall_ns, cell.clone()));
            if cell != *serial_result {
                eprintln!(
                    "error: atpg agreement gate fired: {} at {threads} threads disagrees \
                     with the sequential loop — refusing to write a perf report",
                    circuit.name
                );
                std::process::exit(1);
            }
            let summary = cell.summary();
            atpg_scaling.push(AtpgScalingStats {
                circuit: circuit.name.to_string(),
                threads,
                wall_ns,
                speedup: *serial_ns as f64 / wall_ns.max(1) as f64,
                wasted_speculations: summary.wasted_speculations,
                generate_ns: summary.generate_ns,
                drop_ns: summary.drop_ns,
                commit_wait_ns: summary.commit_wait_ns,
            });
        }

        // The drop loop in isolation: replay the generated test set (the
        // exact sequence ATPG produced) through the scalar
        // `detect_pattern` loop vs the batched `DropSession`.
        let tests = results[0].take().expect("timed at least once").tests;
        let mut drop_lists: [Option<Vec<Vec<FaultId>>>; 2] = [None, None];
        wall[0][4] = time_ns(|| {
            drop_lists[0] = Some(std::hint::black_box(replay_scalar(
                &compiled, faults, &tests,
            )));
        });
        wall[1][4] = time_ns(|| {
            drop_lists[1] = Some(std::hint::black_box(replay_batched(
                &compiled, faults, &tests,
            )));
        });
        assert_eq!(
            drop_lists[0], drop_lists[1],
            "{}: drop-loop replay disagrees — refusing to write a perf report",
            circuit.name
        );

        // Raw PODEM over a fixed fault sample, no dropping: the
        // full-resim reference vs the event-driven search,
        // outcome-for-outcome gated. Generator construction happens
        // *outside* the timed region (a fresh one per repetition, so
        // stats always reflect exactly one pass) — the O(n) setup must
        // not dilute the per-target throughput.
        let sample: Vec<Fault> = faults.iter().take(PODEM_SAMPLE).map(|(_, f)| f).collect();
        let mut outcomes: [Option<Vec<PodemOutcome>>; 2] = [None, None];
        let mut stats = [PodemStats::default(); 2];
        let searches: [fn(&mut Podem, Fault) -> PodemOutcome; 2] =
            [Podem::generate_reference, Podem::generate];
        for (ei, &search) in searches.iter().enumerate() {
            let mut best = u128::MAX;
            let mut spent = 0u128;
            for _ in 0..15 {
                let mut podem = Podem::for_circuit(&compiled, PodemConfig::default());
                let t0 = Instant::now();
                let outs: Vec<PodemOutcome> =
                    sample.iter().map(|&f| search(&mut podem, f)).collect();
                let ns = t0.elapsed().as_nanos();
                best = best.min(ns);
                spent += ns;
                stats[ei] = podem.stats();
                outcomes[ei] = Some(std::hint::black_box(outs));
                if spent >= 200_000_000 {
                    break;
                }
            }
            wall[ei][5] = best;
            let s = stats[ei];
            let targets_per_s = s.targets as f64 / (wall[ei][5] as f64 / 1e9);
            let events_per_decision = if s.decisions == 0 {
                0.0
            } else {
                s.sim_events as f64 / s.decisions as f64
            };
            podem_metrics[ei] = Some((targets_per_s, events_per_decision));
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "{}: PODEM engines disagree — refusing to write a perf report",
            circuit.name
        );
        assert_eq!(
            stats[0].search_counters(),
            stats[1].search_counters(),
            "{}: PODEM search stats disagree — refusing to write a perf report",
            circuit.name
        );

        // The v7 sat phase: cone-restricted miter proofs over the same
        // fault sample the raw-PODEM phase just decided. Every fault
        // both sides decide must carry the same verdict (test ⇔ SAT,
        // untestable ⇔ UNSAT) before the proof timing is written — even
        // under `--quick` (the hidden `--inject-sat-mismatch` flag flips
        // one verdict so CI can assert the gate fires).
        eprintln!("[perf_report] {} sat phase...", circuit.name);
        let mut verdicts: Vec<FaultVerdict> = Vec::new();
        let sat_wall_ns = time_ns(|| {
            verdicts = sample
                .iter()
                .map(|&f| prove_fault(&compiled, f, DEFAULT_CONFLICT_LIMIT))
                .collect();
            std::hint::black_box(&verdicts);
        });
        if inject_sat_pending {
            inject_sat_pending = false;
            // Deliberately flip the first decided verdict: the gate
            // must catch it.
            if let Some(v) = verdicts
                .iter_mut()
                .find(|v| !matches!(v, FaultVerdict::Undecided))
            {
                *v = match v {
                    FaultVerdict::Redundant => FaultVerdict::Testable(TestCube::unspecified(0)),
                    _ => FaultVerdict::Redundant,
                };
            }
        }
        let podem_outcomes = outcomes[1].as_ref().expect("gated above");
        let mut agreed = 0usize;
        for ((fault, outcome), verdict) in
            sample.iter().zip(podem_outcomes).zip(&verdicts)
        {
            let consistent = match (outcome, verdict) {
                (PodemOutcome::Test(_), FaultVerdict::Testable(_)) => true,
                (PodemOutcome::Untestable, FaultVerdict::Redundant) => true,
                (PodemOutcome::Aborted, _) | (_, FaultVerdict::Undecided) => continue,
                _ => false,
            };
            if !consistent {
                eprintln!(
                    "error: sat agreement gate fired: {} {fault}: PODEM says \
                     {outcome:?}, the miter says {verdict:?} — refusing to write \
                     a perf report",
                    circuit.name
                );
                std::process::exit(1);
            }
            agreed += 1;
        }
        // SAT resolution of the sequential run's backtrack-aborted
        // faults (the atpg phase runs with the fallback off so both
        // stacks stay comparable; this is where those aborts get their
        // verdicts).
        let atpg_status = &results[1].as_ref().expect("timed").status;
        let (mut res_red, mut res_test, mut res_undec) = (0u64, 0u64, 0u64);
        let mut aborted_faults = 0u64;
        for (id, fault) in faults.iter() {
            if !matches!(atpg_status[id.index()], adi_atpg::FaultStatus::Aborted) {
                continue;
            }
            aborted_faults += 1;
            match prove_fault(&compiled, fault, DEFAULT_CONFLICT_LIMIT) {
                FaultVerdict::Redundant => res_red += 1,
                FaultVerdict::Testable(_) => res_test += 1,
                FaultVerdict::Undecided => res_undec += 1,
            }
        }
        sat_stats.push(SatStats {
            circuit: circuit.name.to_string(),
            wall_ns: sat_wall_ns,
            proofs_per_s: sample.len() as f64 / (sat_wall_ns.max(1) as f64 / 1e9),
            sample: sample.len(),
            agreed,
            aborted_faults,
            resolved_redundant: res_red,
            resolved_testable: res_test,
            resolved_undecided: res_undec,
        });

        for (ei, &engine) in ENGINES.iter().enumerate() {
            for (pi, &phase) in PHASES.iter().enumerate() {
                let speedup = wall[0][pi] as f64 / wall[ei][pi].max(1) as f64;
                entries.push(Entry {
                    circuit: circuit.name.to_string(),
                    engine,
                    phase,
                    wall_ns: wall[ei][pi],
                    speedup,
                    podem_metrics: if phase == "podem" { podem_metrics[ei] } else { None },
                });
            }
        }

        let adi_config = AdiConfig {
            width: SimWidth::W1,
            ..AdiConfig::default()
        };
        let netlist = compiled.netlist().clone();
        let adi_per_call_ns = time_ns(|| {
            std::hint::black_box(adi_per_call(&netlist, &patterns, adi_config));
        });
        circuit_stats.push(CircuitStats {
            name: circuit.name.to_string(),
            compile_ns,
            adi_compile_once_ns: wall[1][2],
            adi_per_call_ns,
        });

        // The v4 service phase: the same circuit served over the
        // request path, agreement-gated, cold vs cache-hit.
        eprintln!("[perf_report] {} service phase...", circuit.name);
        let text = bench_format::to_bench(compiled.netlist());
        service_stats.push(service_phase(circuit.name, &text, opts.patterns));

        // The v8 scenario-cache phase: hit vs bypass per endpoint,
        // byte-identity-gated (even under `--quick`).
        eprintln!("[perf_report] {} scenario phase...", circuit.name);
        scenario_stats.extend(scenario_phase(
            circuit.name,
            &text,
            opts.patterns,
            &mut inject_scenario_pending,
        ));
    }

    // The v9 observability phase and the v8 open-loop phase, both on
    // the largest selected circuit. The observability phase leaves
    // collection enabled so the open-loop run's queue-wait scrape has
    // live histograms; it goes back off before the report renders.
    if let Some(largest) = circuits.iter().max_by_key(|c| c.gates) {
        eprintln!("[perf_report] {} observability phase...", largest.name);
        let netlist = largest.netlist();
        let text = bench_format::to_bench(&netlist);
        let compiled = CompiledCircuit::compile(netlist);
        let faults = compiled.collapsed_faults();
        let patterns = PatternSet::random(
            compiled.netlist().num_inputs(),
            opts.patterns,
            PATTERN_SEED,
        );
        obs_stats.push(observability_phase(
            largest.name,
            &text,
            &compiled,
            faults,
            &patterns,
            opts.quick,
            &mut inject_obs_pending,
        ));

        eprintln!("[perf_report] {} open-loop service phase...", largest.name);
        open_loop_stats.push(open_loop_phase(largest.name, &text, opts.quick));
        adi_obs::set_enabled(false);
    }

    // Persist the snapshot before printing: a consumer truncating our
    // stdout (e.g. `| head`) must not cost us the report.
    let json = render_report(
        &date,
        &opts,
        &circuit_stats,
        &entries,
        &service_stats,
        &width_stats,
        &atpg_scaling,
        &sat_stats,
        &scenario_stats,
        &open_loop_stats,
        &obs_stats,
    )
    .pretty();
    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("[perf_report] wrote {out_path}");

    // Summary table: one row per circuit, current-stack speedups per
    // phase.
    let mut table = TextTable::new(vec![
        "circuit",
        "no-drop/pf (ms)",
        "no-drop/stem (ms)",
        "speedup",
        "drop speedup",
        "adi speedup",
        "atpg speedup",
        "drop-loop speedup",
        "podem speedup",
    ]);
    let find = |circuit: &str, engine: &str, phase: &str| {
        entries
            .iter()
            .find(|e| e.circuit == circuit && e.engine == engine && e.phase == phase)
            .expect("entry recorded")
    };
    for circuit in &circuits {
        let pf = find(circuit.name, "per-fault", "no-drop");
        let st = find(circuit.name, "stem-region", "no-drop");
        table.row(vec![
            circuit.name.to_string(),
            format!("{:.2}", pf.wall_ns as f64 / 1e6),
            format!("{:.2}", st.wall_ns as f64 / 1e6),
            format!("{:.2}x", st.speedup),
            format!(
                "{:.2}x",
                find(circuit.name, "stem-region", "dropping").speedup
            ),
            format!("{:.2}x", find(circuit.name, "stem-region", "adi").speedup),
            format!("{:.2}x", find(circuit.name, "stem-region", "atpg").speedup),
            format!(
                "{:.2}x",
                find(circuit.name, "stem-region", "drop-loop").speedup
            ),
            format!("{:.2}x", find(circuit.name, "stem-region", "podem").speedup),
        ]);
    }
    println!("{}", table.render());

    // Wide-word lattice summary: one row per (circuit, lanes), serial
    // wall plus per-core yield and scaling efficiency at the widest
    // measured thread count.
    let max_threads = lattice_threads.last().copied().unwrap_or(1);
    let mut width_table = TextTable::new(vec![
        "circuit".to_string(),
        "lanes".to_string(),
        "serial (ms)".to_string(),
        "patterns/s".to_string(),
        format!("p/s/core x{max_threads}"),
        format!("efficiency x{max_threads}"),
    ]);
    for circuit in &circuits {
        for &width in &lattice_widths {
            let cell = |threads: usize| {
                width_stats
                    .iter()
                    .find(|w| {
                        w.circuit == circuit.name
                            && w.lanes == width.lanes()
                            && w.threads == threads
                    })
                    .expect("lattice cell recorded")
            };
            let serial = cell(1);
            let widest = cell(max_threads);
            width_table.row(vec![
                circuit.name.to_string(),
                width.lanes().to_string(),
                format!("{:.2}", serial.wall_ns as f64 / 1e6),
                format!("{:.0}", serial.patterns_per_s),
                format!("{:.0}", widest.patterns_per_s_per_core),
                format!("{:.2}", widest.scaling_efficiency),
            ]);
        }
    }
    println!("{}", width_table.render());

    // Speculative-ATPG summary: one row per (circuit, threads) with the
    // wall, the speedup over the sequential cell, and where the time
    // went (PODEM vs drop loop vs waiting on out-of-order outcomes).
    let mut atpg_table = TextTable::new(vec![
        "circuit",
        "atpg threads",
        "wall (ms)",
        "speedup",
        "wasted",
        "generate (ms)",
        "drop (ms)",
        "commit wait (ms)",
    ]);
    for s in &atpg_scaling {
        atpg_table.row(vec![
            s.circuit.clone(),
            s.threads.to_string(),
            format!("{:.2}", s.wall_ns as f64 / 1e6),
            format!("{:.2}x", s.speedup),
            s.wasted_speculations.to_string(),
            format!("{:.2}", s.generate_ns as f64 / 1e6),
            format!("{:.2}", s.drop_ns as f64 / 1e6),
            format!("{:.2}", s.commit_wait_ns as f64 / 1e6),
        ]);
    }
    println!("{}", atpg_table.render());

    // SAT phase summary: proof throughput and what became of the
    // aborted faults.
    let mut sat_table = TextTable::new(vec![
        "circuit",
        "proofs",
        "proofs/s",
        "agreed",
        "aborted",
        "redundant",
        "testable",
        "undecided",
    ]);
    for s in &sat_stats {
        sat_table.row(vec![
            s.circuit.clone(),
            s.sample.to_string(),
            format!("{:.0}", s.proofs_per_s),
            s.agreed.to_string(),
            s.aborted_faults.to_string(),
            s.resolved_redundant.to_string(),
            s.resolved_testable.to_string(),
            s.resolved_undecided.to_string(),
        ]);
    }
    println!("{}", sat_table.render());

    // Service phase summary: the request path, cold vs cache-hit.
    let mut service_table = TextTable::new(vec![
        "circuit",
        "cold compile (ms)",
        "cache hit (us)",
        "hit speedup",
        "throughput (req/s)",
    ]);
    for s in &service_stats {
        service_table.row(vec![
            s.name.clone(),
            format!("{:.2}", s.cold_compile_ns as f64 / 1e6),
            format!("{:.1}", s.cache_hit_ns as f64 / 1e3),
            format!("{:.1}x", s.hit_speedup),
            format!("{:.0}", s.throughput_rps),
        ]);
    }
    println!("{}", service_table.render());

    // Scenario-cache summary: hit vs bypass per endpoint.
    let mut scenario_table = TextTable::new(vec![
        "circuit",
        "endpoint",
        "cold (ms)",
        "hit (us)",
        "hit speedup",
    ]);
    for s in &scenario_stats {
        scenario_table.row(vec![
            s.circuit.clone(),
            s.endpoint.to_string(),
            format!("{:.2}", s.cold_ns as f64 / 1e6),
            format!("{:.1}", s.hit_ns as f64 / 1e3),
            format!("{:.1}x", s.hit_speedup),
        ]);
    }
    println!("{}", scenario_table.render());

    // Open-loop summary: the arrival-rate run, with the server-side
    // queue-wait percentiles beside the client-side latency.
    let mut open_table = TextTable::new(vec![
        "circuit",
        "offered (req/s)",
        "achieved (req/s)",
        "completed",
        "shed",
        "p50 (ms)",
        "p99 (ms)",
        "p999 (ms)",
        "qwait p99 (ms)",
    ]);
    for s in &open_loop_stats {
        open_table.row(vec![
            s.circuit.clone(),
            format!("{:.0}", s.offered_rps),
            format!("{:.0}", s.achieved_rps),
            s.completed.to_string(),
            s.shed.to_string(),
            format!("{:.3}", s.p50_ms),
            format!("{:.3}", s.p99_ms),
            format!("{:.3}", s.p999_ms),
            format!("{:.3}", s.queue_wait_p99_ms),
        ]);
    }
    println!("{}", open_table.render());

    // Observability summary: what the instrumentation costs.
    let mut obs_table = TextTable::new(vec![
        "circuit",
        "obs off (ms)",
        "obs on (ms)",
        "overhead",
    ]);
    for s in &obs_stats {
        obs_table.row(vec![
            s.circuit.clone(),
            format!("{:.2}", s.disabled_ns as f64 / 1e6),
            format!("{:.2}", s.enabled_ns as f64 / 1e6),
            format!("{:.3}x", s.overhead),
        ]);
    }
    println!("{}", obs_table.render());

    // Ratio-regression gate: the stem engine must keep its no-drop win
    // on the largest selected circuit. `--quick` runs (tiny pattern
    // counts, CI smoke) are exempt.
    if !opts.quick {
        if let Some(largest) = circuits.iter().max_by_key(|c| c.gates) {
            let speedup = find(largest.name, "stem-region", "no-drop").speedup;
            if speedup < opts.min_speedup {
                eprintln!(
                    "error: stem-region no-drop speedup on {} is {:.2}x, below the \
                     {:.2}x floor (--min-speedup)",
                    largest.name, speedup, opts.min_speedup
                );
                std::process::exit(1);
            }
            eprintln!(
                "[perf_report] ratio gate passed: {} no-drop speedup {:.2}x >= {:.2}x",
                largest.name, speedup, opts.min_speedup
            );

            // Service gate: a cache-hit request must be at least 10x
            // cheaper than a cold compile — the store is the product.
            let service = service_stats
                .iter()
                .find(|s| s.name == largest.name)
                .expect("service stats recorded per circuit");
            if service.hit_speedup < SERVICE_HIT_FLOOR {
                eprintln!(
                    "error: service cache-hit speedup on {} is {:.2}x, below the \
                     {SERVICE_HIT_FLOOR:.0}x floor",
                    largest.name, service.hit_speedup
                );
                std::process::exit(1);
            }
            eprintln!(
                "[perf_report] service gate passed: {} cache-hit {:.1}x >= {SERVICE_HIT_FLOOR:.0}x",
                largest.name, service.hit_speedup
            );

            // Scenario-cache gate: on the largest circuit, even the
            // endpoint with the least to gain must answer hits 50x
            // faster than a bypass recomputation.
            let worst = scenario_stats
                .iter()
                .filter(|s| s.circuit == largest.name)
                .min_by(|a, b| a.hit_speedup.total_cmp(&b.hit_speedup))
                .expect("scenario stats recorded per circuit");
            if worst.hit_speedup < SCENARIO_HIT_FLOOR {
                eprintln!(
                    "error: scenario-cache hit speedup on {} `{}` is {:.1}x, below the \
                     {SCENARIO_HIT_FLOOR:.0}x floor",
                    largest.name, worst.endpoint, worst.hit_speedup
                );
                std::process::exit(1);
            }
            eprintln!(
                "[perf_report] scenario gate passed: {} worst endpoint (`{}`) hit \
                 {:.1}x >= {SCENARIO_HIT_FLOOR:.0}x",
                largest.name, worst.endpoint, worst.hit_speedup
            );

            // Open-loop SLO gate: the offered schedule must complete
            // with p99 under the SLO and (almost) nothing shed.
            let run = open_loop_stats
                .iter()
                .find(|s| s.circuit == largest.name)
                .expect("open-loop run recorded");
            let shed_frac = run.shed as f64 / (run.completed + run.shed).max(1) as f64;
            if run.p99_ms > OPEN_LOOP_P99_SLO_MS || shed_frac > OPEN_LOOP_SHED_CEIL {
                eprintln!(
                    "error: open-loop SLO missed on {}: p99 {:.1} ms (SLO \
                     {OPEN_LOOP_P99_SLO_MS:.0} ms), shed fraction {:.3} (ceiling \
                     {OPEN_LOOP_SHED_CEIL:.2})",
                    largest.name, run.p99_ms, shed_frac
                );
                std::process::exit(1);
            }
            eprintln!(
                "[perf_report] open-loop gate passed: {} p99 {:.1} ms <= \
                 {OPEN_LOOP_P99_SLO_MS:.0} ms, {} shed of {} offered",
                largest.name,
                run.p99_ms,
                run.shed,
                run.completed + run.shed
            );
        }

        // Wide-word gate: the 4-lane no-drop cell on irs13207 must hold
        // at least twice the committed PR 5 patterns/s baseline (best
        // measured thread count; the baseline was one lane, one thread).
        if let Some(best) = width_stats
            .iter()
            .filter(|w| w.circuit == "irs13207" && w.lanes == 4)
            .max_by(|a, b| a.patterns_per_s.total_cmp(&b.patterns_per_s))
        {
            let baseline_pps = PR5_BASELINE_PATTERNS / (PR5_IRS13207_NODROP_NS as f64 / 1e9);
            let gain = best.patterns_per_s / baseline_pps;
            if gain < WIDE_GAIN_FLOOR {
                eprintln!(
                    "error: irs13207 4-lane no-drop is {:.0} patterns/s ({gain:.2}x the \
                     PR 5 baseline {baseline_pps:.0}), below the {WIDE_GAIN_FLOOR:.1}x floor",
                    best.patterns_per_s
                );
                std::process::exit(1);
            }
            eprintln!(
                "[perf_report] wide-word gate passed: irs13207 4-lane no-drop \
                 {:.0} patterns/s (x{} threads) = {gain:.2}x the PR 5 baseline",
                best.patterns_per_s, best.threads
            );
        }

        // Parallel-ATPG gate: on a host with cores to run them, the
        // 4-thread speculative cell on irs13207 must run the whole
        // ordered generation at least twice as fast as the committed
        // PR 6 sequential baseline. On smaller hosts (the committed
        // snapshots come from a single-core container, where no thread
        // count can beat sequential wall time) the gate degrades to an
        // overhead bound against this run's own sequential cell —
        // speculation must never blow up the wall clock.
        let cell4 = atpg_scaling
            .iter()
            .find(|s| s.circuit == "irs13207" && s.threads == 4);
        let cell1 = atpg_scaling
            .iter()
            .find(|s| s.circuit == "irs13207" && s.threads == 1);
        if let (Some(cell), Some(serial)) = (cell4, cell1) {
            let gain = PR6_IRS13207_ATPG_NS as f64 / cell.wall_ns.max(1) as f64;
            if host_parallelism >= 4 {
                if gain < ATPG_GAIN_FLOOR {
                    eprintln!(
                        "error: irs13207 4-thread speculative ATPG is {:.0} ms ({gain:.2}x \
                         the PR 6 sequential baseline {:.0} ms), below the \
                         {ATPG_GAIN_FLOOR:.1}x floor",
                        cell.wall_ns as f64 / 1e6,
                        PR6_IRS13207_ATPG_NS as f64 / 1e6
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "[perf_report] parallel-atpg gate passed: irs13207 4-thread ATPG \
                     {:.0} ms = {gain:.2}x the PR 6 baseline",
                    cell.wall_ns as f64 / 1e6
                );
            } else {
                let overhead = cell.wall_ns as f64 / serial.wall_ns.max(1) as f64;
                if overhead > ATPG_OVERHEAD_CEIL {
                    eprintln!(
                        "error: irs13207 4-thread speculative ATPG is {overhead:.2}x the \
                         sequential wall on a {host_parallelism}-core host, above the \
                         {ATPG_OVERHEAD_CEIL:.2}x overhead ceiling",
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "[perf_report] parallel-atpg gate: host has {host_parallelism} core(s), \
                     below the 4 the {ATPG_GAIN_FLOOR:.1}x throughput floor assumes — \
                     enforced the {ATPG_OVERHEAD_CEIL:.2}x overhead ceiling instead \
                     (4-thread cell = {overhead:.2}x sequential, {gain:.2}x the PR 6 baseline)",
                );
            }
        }
    }
}

/// Assembles the v9 report document (serialized with
/// [`Value::pretty`]).
#[allow(clippy::too_many_arguments)]
fn render_report(
    date: &str,
    opts: &Options,
    circuit_stats: &[CircuitStats],
    entries: &[Entry],
    service_stats: &[ServiceStats],
    width_stats: &[WidthStats],
    atpg_scaling: &[AtpgScalingStats],
    sat_stats: &[SatStats],
    scenario_stats: &[ScenarioPerfStats],
    open_loop_stats: &[OpenLoopStats],
    obs_stats: &[ObservabilityStats],
) -> Value {
    let mut root = Object::new();
    root.insert("schema", "adi-perf-report/v9");
    root.insert("date", date);
    // The snapshot host's core count — the context every scaling and
    // efficiency number in this report must be read against.
    root.insert(
        "host_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    root.insert("patterns", opts.patterns);
    root.insert("podem_sample", PODEM_SAMPLE);
    root.insert("quick", opts.quick);
    root.insert("min_speedup", Value::rounded(opts.min_speedup, 3));
    root.insert(
        "circuits",
        Value::Array(
            circuit_stats
                .iter()
                .map(|c| {
                    let mut o = Object::new();
                    o.insert("name", c.name.as_str());
                    o.insert("compile_ns", Value::from_u128(c.compile_ns));
                    o.insert("adi_compile_once_ns", Value::from_u128(c.adi_compile_once_ns));
                    o.insert("adi_per_call_ns", Value::from_u128(c.adi_per_call_ns));
                    o.into()
                })
                .collect(),
        ),
    );
    root.insert(
        "entries",
        Value::Array(
            entries
                .iter()
                .map(|e| {
                    let mut o = Object::new();
                    o.insert("circuit", e.circuit.as_str());
                    o.insert("engine", e.engine);
                    o.insert("phase", e.phase);
                    o.insert("wall_ns", Value::from_u128(e.wall_ns));
                    if let Some((tps, epd)) = e.podem_metrics {
                        o.insert("targets_per_s", Value::rounded(tps, 2));
                        o.insert("events_per_decision", Value::rounded(epd, 2));
                    }
                    o.insert("speedup", Value::rounded(e.speedup, 3));
                    o.into()
                })
                .collect(),
        ),
    );
    root.insert(
        "service",
        Value::Array(
            service_stats
                .iter()
                .map(|s| {
                    let mut o = Object::new();
                    o.insert("name", s.name.as_str());
                    o.insert("phase", "service");
                    o.insert("cold_compile_ns", Value::from_u128(s.cold_compile_ns));
                    o.insert("cache_hit_ns", Value::from_u128(s.cache_hit_ns));
                    o.insert("hit_speedup", Value::rounded(s.hit_speedup, 2));
                    o.insert("throughput_rps", Value::rounded(s.throughput_rps, 1));
                    o.into()
                })
                .collect(),
        ),
    );
    root.insert(
        "widths",
        Value::Array(
            width_stats
                .iter()
                .map(|w| {
                    let mut o = Object::new();
                    o.insert("circuit", w.circuit.as_str());
                    o.insert("lanes", w.lanes);
                    o.insert("threads", w.threads);
                    o.insert("wall_ns", Value::from_u128(w.wall_ns));
                    o.insert("patterns_per_s", Value::rounded(w.patterns_per_s, 1));
                    o.insert(
                        "patterns_per_s_per_core",
                        Value::rounded(w.patterns_per_s_per_core, 1),
                    );
                    o.insert(
                        "scaling_efficiency",
                        Value::rounded(w.scaling_efficiency, 3),
                    );
                    o.into()
                })
                .collect(),
        ),
    );
    root.insert(
        "atpg_scaling",
        Value::Array(
            atpg_scaling
                .iter()
                .map(|s| {
                    let mut o = Object::new();
                    o.insert("circuit", s.circuit.as_str());
                    o.insert("threads", s.threads);
                    o.insert("wall_ns", Value::from_u128(s.wall_ns));
                    o.insert("speedup", Value::rounded(s.speedup, 3));
                    o.insert("wasted_speculations", s.wasted_speculations);
                    o.insert("generate_ns", s.generate_ns);
                    o.insert("drop_ns", s.drop_ns);
                    o.insert("commit_wait_ns", s.commit_wait_ns);
                    o.into()
                })
                .collect(),
        ),
    );
    root.insert(
        "sat",
        Value::Array(
            sat_stats
                .iter()
                .map(|s| {
                    let mut o = Object::new();
                    o.insert("circuit", s.circuit.as_str());
                    o.insert("wall_ns", Value::from_u128(s.wall_ns));
                    o.insert("proofs_per_s", Value::rounded(s.proofs_per_s, 1));
                    o.insert("sample", s.sample);
                    o.insert("agreed", s.agreed);
                    o.insert("aborted_faults", s.aborted_faults);
                    o.insert("resolved_redundant", s.resolved_redundant);
                    o.insert("resolved_testable", s.resolved_testable);
                    o.insert("resolved_undecided", s.resolved_undecided);
                    o.into()
                })
                .collect(),
        ),
    );
    root.insert(
        "scenario_cache",
        Value::Array(
            scenario_stats
                .iter()
                .map(|s| {
                    let mut o = Object::new();
                    o.insert("circuit", s.circuit.as_str());
                    o.insert("endpoint", s.endpoint);
                    o.insert("cold_ns", Value::from_u128(s.cold_ns));
                    o.insert("hit_ns", Value::from_u128(s.hit_ns));
                    o.insert("hit_speedup", Value::rounded(s.hit_speedup, 2));
                    o.into()
                })
                .collect(),
        ),
    );
    root.insert(
        "open_loop",
        Value::Array(
            open_loop_stats
                .iter()
                .map(|s| {
                    let mut o = Object::new();
                    o.insert("circuit", s.circuit.as_str());
                    o.insert("offered_rps", Value::rounded(s.offered_rps, 1));
                    o.insert("achieved_rps", Value::rounded(s.achieved_rps, 1));
                    o.insert("completed", s.completed);
                    o.insert("shed", s.shed);
                    o.insert("p50_ms", Value::rounded(s.p50_ms, 3));
                    o.insert("p99_ms", Value::rounded(s.p99_ms, 3));
                    o.insert("p999_ms", Value::rounded(s.p999_ms, 3));
                    o.insert("queue_wait_count", s.queue_wait_count);
                    o.insert("queue_wait_p50_ms", Value::rounded(s.queue_wait_p50_ms, 3));
                    o.insert("queue_wait_p99_ms", Value::rounded(s.queue_wait_p99_ms, 3));
                    o.insert(
                        "queue_wait_p999_ms",
                        Value::rounded(s.queue_wait_p999_ms, 3),
                    );
                    o.into()
                })
                .collect(),
        ),
    );
    root.insert(
        "observability",
        Value::Array(
            obs_stats
                .iter()
                .map(|s| {
                    let mut o = Object::new();
                    o.insert("circuit", s.circuit.as_str());
                    o.insert("disabled_ns", Value::from_u128(s.disabled_ns));
                    o.insert("enabled_ns", Value::from_u128(s.enabled_ns));
                    o.insert("overhead", Value::rounded(s.overhead, 3));
                    o.into()
                })
                .collect(),
        ),
    );
    Value::Object(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_formats() {
        let s = today_utc();
        assert_eq!(s.len(), 10);
        assert_eq!(s.as_bytes()[4], b'-');
        assert_eq!(s.as_bytes()[7], b'-');
    }

    #[test]
    fn json_is_well_formed_and_v9_shaped() {
        let entries = vec![
            Entry {
                circuit: "irs208".into(),
                engine: "stem-region",
                phase: "no-drop",
                wall_ns: 12345,
                speedup: 2.5,
                podem_metrics: None,
            },
            Entry {
                circuit: "irs208".into(),
                engine: "stem-region",
                phase: "podem",
                wall_ns: 999,
                speedup: 8.0,
                podem_metrics: Some((1234.5, 42.25)),
            },
        ];
        let stats = vec![CircuitStats {
            name: "irs208".into(),
            compile_ns: 1000,
            adi_compile_once_ns: 2000,
            adi_per_call_ns: 3000,
        }];
        let service = vec![ServiceStats {
            name: "irs208".into(),
            cold_compile_ns: 5_000_000,
            cache_hit_ns: 12_000,
            hit_speedup: 416.67,
            throughput_rps: 52_000.5,
        }];
        let widths = vec![WidthStats {
            circuit: "irs208".into(),
            lanes: 4,
            threads: 2,
            wall_ns: 777,
            patterns_per_s: 1_000_000.5,
            patterns_per_s_per_core: 500_000.5,
            scaling_efficiency: 0.875,
        }];
        let scaling = vec![AtpgScalingStats {
            circuit: "irs208".into(),
            threads: 4,
            wall_ns: 2_500_000,
            speedup: 2.75,
            wasted_speculations: 7,
            generate_ns: 1_500_000,
            drop_ns: 600_000,
            commit_wait_ns: 150_000,
        }];
        let sat = vec![SatStats {
            circuit: "irs208".into(),
            wall_ns: 4_200_000,
            proofs_per_s: 30_476.2,
            sample: 128,
            agreed: 125,
            aborted_faults: 3,
            resolved_redundant: 2,
            resolved_testable: 1,
            resolved_undecided: 0,
        }];
        let scenario = vec![ScenarioPerfStats {
            circuit: "irs208".into(),
            endpoint: "atpg",
            cold_ns: 9_000_000,
            hit_ns: 15_000,
            hit_speedup: 600.0,
        }];
        let open_loop = vec![OpenLoopStats {
            circuit: "irs208".into(),
            offered_rps: 400.5,
            achieved_rps: 398.5,
            completed: 1195,
            shed: 5,
            p50_ms: 0.75,
            p99_ms: 4.125,
            p999_ms: 11.5,
            queue_wait_count: 1195,
            queue_wait_p50_ms: 0.125,
            queue_wait_p99_ms: 2.25,
            queue_wait_p999_ms: 6.5,
        }];
        let obs = vec![ObservabilityStats {
            circuit: "irs208".into(),
            disabled_ns: 10_000_000,
            enabled_ns: 10_400_000,
            overhead: 1.04,
        }];
        let doc = render_report(
            "2026-01-01",
            &Options::default(),
            &stats,
            &entries,
            &service,
            &widths,
            &scaling,
            &sat,
            &scenario,
            &open_loop,
            &obs,
        );
        let text = doc.pretty();
        // Strict JSON: our own parser must read it back identically.
        assert_eq!(json::parse(&text).unwrap(), doc);
        for needle in [
            "\"schema\": \"adi-perf-report/v9\"",
            "\"observability\"",
            "\"disabled_ns\": 10000000",
            "\"enabled_ns\": 10400000",
            "\"overhead\": 1.04",
            "\"queue_wait_count\": 1195",
            "\"queue_wait_p50_ms\": 0.125",
            "\"queue_wait_p99_ms\": 2.25",
            "\"queue_wait_p999_ms\": 6.5",
            "\"scenario_cache\"",
            "\"endpoint\": \"atpg\"",
            "\"cold_ns\": 9000000",
            "\"hit_ns\": 15000",
            "\"open_loop\"",
            "\"offered_rps\": 400.5",
            "\"achieved_rps\": 398.5",
            "\"completed\": 1195",
            "\"shed\": 5",
            "\"p50_ms\": 0.75",
            "\"p99_ms\": 4.125",
            "\"p999_ms\": 11.5",
            "\"engine\": \"stem-region\"",
            "\"wall_ns\": 12345",
            "\"phase\": \"podem\"",
            "\"targets_per_s\": 1234.5",
            "\"events_per_decision\": 42.25",
            "\"podem_sample\": 128",
            "\"compile_ns\": 1000",
            "\"adi_per_call_ns\": 3000",
            "\"min_speedup\": 1.5",
            "\"phase\": \"service\"",
            "\"cold_compile_ns\": 5000000",
            "\"cache_hit_ns\": 12000",
            "\"hit_speedup\": 416.67",
            "\"throughput_rps\": 52000.5",
            "\"lanes\": 4",
            "\"threads\": 2",
            "\"patterns_per_s\": 1000000.5",
            "\"patterns_per_s_per_core\": 500000.5",
            "\"scaling_efficiency\": 0.875",
            "\"atpg_scaling\"",
            "\"host_parallelism\"",
            "\"speedup\": 2.75",
            "\"wasted_speculations\": 7",
            "\"generate_ns\": 1500000",
            "\"drop_ns\": 600000",
            "\"commit_wait_ns\": 150000",
            "\"sat\"",
            "\"proofs_per_s\": 30476.2",
            "\"sample\": 128",
            "\"agreed\": 125",
            "\"aborted_faults\": 3",
            "\"resolved_redundant\": 2",
            "\"resolved_testable\": 1",
            "\"resolved_undecided\": 0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
