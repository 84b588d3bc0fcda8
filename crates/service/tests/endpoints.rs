//! End-to-end obligations of the service endpoints:
//!
//! 1. every endpoint's response is **bit-identical** to the direct
//!    library computation it wraps (same defaults, same seeds), on the
//!    test's own circuit and on every paper-suite circuit up to 300
//!    gates;
//! 2. hash-addressed (cache-hit) requests perform **zero**
//!    levelizations — the whole point of the hash-cached store;
//! 3. the TCP transport serves the same protocol and shuts down
//!    cleanly.
//!
//! The levelization counter is process-global, so tests here serialize
//! on a local mutex.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use adi_atpg::{TestGenConfig, TestGenerator};
use adi_circuits::{embedded, paper_suite_up_to, random_circuit, RandomCircuitConfig};
use adi_core::reorder::reorder_tests_for;
use adi_core::uset::{select_u_for, USetConfig};
use adi_core::{order_faults, AdiAnalysis, AdiConfig, FaultOrdering};
use adi_netlist::{bench_format, CompiledCircuit, LevelizedCsr, Netlist};
use adi_sim::{FaultSimulator, PatternSet};
use adi_service::{serve_tcp, ServerConfig, ServiceState, StoreConfig};
use json::Value;

static BUILD_COUNT_LOCK: Mutex<()> = Mutex::new(());

/// `netlist` as `(bench text, parsed netlist)`, with the netlist parsed
/// from that exact text: the `.bench` parser numbers nodes by first
/// mention, so the direct-library comparison must run on the same
/// parse the service performs, not on the generator's original netlist.
fn reparsed(netlist: &Netlist) -> (String, Netlist) {
    let text = bench_format::to_bench(netlist);
    let parsed = bench_format::parse(&text, netlist.name()).unwrap();
    (text, parsed)
}

/// A mid-size circuit where random vectors leave real work to do.
fn medium() -> (String, Netlist) {
    reparsed(&random_circuit(&RandomCircuitConfig::new("svc_medium", 12, 160, 0xC0FFEE)))
}

/// `first`, then every paper-suite circuit up to 300 gates, each
/// reparsed like `first`.
fn and_suite(first: (String, Netlist)) -> Vec<(String, Netlist)> {
    let suite = paper_suite_up_to(300)
        .into_iter()
        .map(|c| reparsed(&c.netlist()));
    std::iter::once(first).chain(suite).collect()
}

fn state() -> ServiceState {
    ServiceState::new(StoreConfig::default())
}

fn request_ok(state: &ServiceState, request: &str) -> Value {
    let v = json::parse(&state.handle_line(request)).unwrap();
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "request failed: {request} -> {v}"
    );
    v.get("result").unwrap().clone()
}

/// Compiles bench `text` through the service and returns its hash.
fn compile_via_service(state: &ServiceState, text: &str, name: &str) -> String {
    let bench = Value::Str(text.to_string()).to_string();
    let r = request_ok(
        state,
        &format!(r#"{{"op": "compile", "bench": {bench}, "name": "{name}"}}"#),
    );
    r.get("hash").unwrap().as_str().unwrap().to_string()
}

fn u64s(result: &Value, key: &str) -> Vec<u64> {
    result
        .get(key)
        .unwrap_or_else(|| panic!("missing `{key}` in {result}"))
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect()
}

#[test]
fn compile_reports_structure_and_cache_state() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    for (misses, (text, netlist)) in (1..).zip(and_suite(reparsed(&embedded::c17()))) {
        let name = netlist.name();
        let hash = compile_via_service(&s, &text, name);
        assert_eq!(hash, netlist.content_hash().to_hex(), "{name}");
        let r = request_ok(&s, &format!(r#"{{"op": "compile", "hash": "{hash}"}}"#));
        assert_eq!(r.get("cached").and_then(Value::as_bool), Some(true), "{name}");
        assert_eq!(
            r.get("nodes").and_then(Value::as_u64),
            Some(netlist.num_nodes() as u64),
            "{name}"
        );
        assert_eq!(
            r.get("collapsed_faults").and_then(Value::as_u64),
            Some(CompiledCircuit::compile(netlist.clone()).collapsed_faults().len() as u64),
            "{name}"
        );
        let store = r.get("store").unwrap();
        assert_eq!(store.get("misses").and_then(Value::as_u64), Some(misses), "{name}");
    }
}

#[test]
fn coverage_matches_direct_simulation() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    for (text, netlist) in and_suite(medium()) {
        let name = netlist.name().to_string();
        let hash = compile_via_service(&s, &text, &name);
        let r = request_ok(
            &s,
            &format!(
                r#"{{"op": "coverage", "hash": "{hash}", "random": {{"count": 200, "seed": 9}}, "include_detail": true}}"#
            ),
        );

        let circuit = CompiledCircuit::compile(netlist);
        let faults = circuit.collapsed_faults();
        let patterns = PatternSet::random(circuit.netlist().num_inputs(), 200, 9);
        let direct = FaultSimulator::for_circuit(&circuit, faults).with_dropping(&patterns);

        assert_eq!(
            r.get("num_detected").and_then(Value::as_u64),
            Some(direct.num_detected() as u64),
            "{name}"
        );
        assert_eq!(
            r.get("num_faults").and_then(Value::as_u64),
            Some(faults.len() as u64),
            "{name}"
        );
        assert_eq!(
            r.get("coverage").and_then(Value::as_f64),
            Some(direct.coverage()),
            "{name}"
        );
        let news: Vec<u64> = direct
            .new_detections(patterns.len())
            .into_iter()
            .map(u64::from)
            .collect();
        assert_eq!(u64s(&r, "new_detections"), news, "{name}");
    }
}

#[test]
fn detail_free_coverage_counts_like_dropping() {
    // Without `include_detail`, `coverage` counts detected faults
    // without asking which vector detects each first: the count and the
    // coverage must still be `with_dropping`'s, the coverage bit for
    // bit, at pattern counts around the 256-pattern superblock.
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    let random = reparsed(&random_circuit(&RandomCircuitConfig::new("svc_cover", 20, 400, 0xC0DE)));
    let mut circuits = and_suite(medium());
    circuits.push(random);
    for (text, netlist) in circuits {
        let name = netlist.name().to_string();
        let hash = compile_via_service(&s, &text, &name);
        let circuit = CompiledCircuit::compile(netlist);
        let faults = circuit.collapsed_faults();
        let sim = FaultSimulator::for_circuit(&circuit, faults);
        for count in [1usize, 255, 256, 257, 700] {
            let random = format!(r#""random": {{"count": {count}, "seed": 11}}"#);
            let r = request_ok(&s, &format!(r#"{{"op": "coverage", "hash": "{hash}", {random}}}"#));
            let patterns = PatternSet::random(circuit.netlist().num_inputs(), count, 11);
            let direct = sim.with_dropping(&patterns);
            let label = format!("{name}, {count} patterns");
            assert_eq!(
                r.get("num_detected").and_then(Value::as_u64),
                Some(direct.num_detected() as u64),
                "{label}"
            );
            assert_eq!(
                r.get("coverage").and_then(Value::as_f64).map(f64::to_bits),
                Some(direct.coverage().to_bits()),
                "{label}"
            );
            assert!(r.get("new_detections").is_none(), "{label}");
        }
    }
}

#[test]
fn adi_and_ordering_match_direct_analysis() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    for (text, netlist) in and_suite(medium()) {
        let name = netlist.name().to_string();
        let hash = compile_via_service(&s, &text, &name);
        // Default U selection, the paper's procedure, on svc_medium. A
        // debug build takes seconds per suite circuit to select U, so
        // there 256 random vectors are U.
        let select = name == "svc_medium";
        let vectors = if select {
            ""
        } else {
            r#", "random": {"count": 256, "seed": 17}"#
        };
        let r = request_ok(
            &s,
            &format!(
                r#"{{"op": "adi", "hash": "{hash}", "ordering": "0dynm", "include_values": true{vectors}}}"#
            ),
        );

        let circuit = CompiledCircuit::compile(netlist);
        let faults = circuit.collapsed_faults();
        let (patterns, u_coverage) = if select {
            let selection = select_u_for(&circuit, faults, USetConfig::default());
            (selection.patterns, Some(selection.coverage))
        } else {
            (PatternSet::random(circuit.netlist().num_inputs(), 256, 17), None)
        };
        let analysis = AdiAnalysis::for_circuit(&circuit, faults, &patterns, AdiConfig::default());
        let summary = analysis.summary();
        let order: Vec<u64> = order_faults(&analysis, FaultOrdering::Dynamic0)
            .into_iter()
            .map(|f| f.index() as u64)
            .collect();

        assert_eq!(
            r.get("u_size").and_then(Value::as_u64),
            Some(patterns.len() as u64),
            "{name}"
        );
        assert_eq!(r.get("u_coverage").and_then(Value::as_f64), u_coverage, "{name}");
        let adi = r.get("adi").unwrap();
        assert_eq!(adi.get("min").and_then(Value::as_u64), Some(summary.min as u64), "{name}");
        assert_eq!(adi.get("max").and_then(Value::as_u64), Some(summary.max as u64), "{name}");
        assert_eq!(
            adi.get("detected").and_then(Value::as_u64),
            Some(summary.detected as u64),
            "{name}"
        );
        assert_eq!(
            u64s(&r, "values"),
            analysis.adi_values().iter().map(|&v| v as u64).collect::<Vec<_>>(),
            "{name}"
        );
        assert_eq!(u64s(&r, "order"), order, "{name}");
    }
}

#[test]
fn atpg_matches_direct_generation_bit_for_bit() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    for (text, netlist) in and_suite(medium()) {
        let name = netlist.name().to_string();
        let hash = compile_via_service(&s, &text, &name);
        let r = request_ok(
            &s,
            &format!(
                r#"{{"op": "atpg", "hash": "{hash}", "ordering": "0dynm", "random": {{"count": 256, "seed": 21}}, "include_tests": true}}"#
            ),
        );

        let circuit = CompiledCircuit::compile(netlist);
        let faults = circuit.collapsed_faults();
        let patterns = PatternSet::random(circuit.netlist().num_inputs(), 256, 21);
        let analysis = AdiAnalysis::for_circuit(&circuit, faults, &patterns, AdiConfig::default());
        let order = order_faults(&analysis, FaultOrdering::Dynamic0);
        let direct =
            TestGenerator::for_circuit(&circuit, faults, TestGenConfig::default()).run(&order);

        assert_eq!(
            r.get("num_tests").and_then(Value::as_u64),
            Some(direct.num_tests() as u64),
            "{name}"
        );
        assert_eq!(
            r.get("num_detected").and_then(Value::as_u64),
            Some(direct.num_detected() as u64),
            "{name}"
        );
        assert_eq!(
            r.get("num_redundant").and_then(Value::as_u64),
            Some(direct.num_redundant() as u64),
            "{name}"
        );
        assert_eq!(
            r.get("coverage").and_then(Value::as_f64),
            Some(direct.coverage()),
            "{name}"
        );
        // The generated tests themselves, bit for bit.
        let tests: Vec<String> = r
            .get("tests")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|t| t.as_str().unwrap().to_string())
            .collect();
        let direct_tests: Vec<String> = direct
            .tests
            .iter()
            .map(|p| p.iter().map(|b| if b { '1' } else { '0' }).collect())
            .collect();
        assert_eq!(tests, direct_tests, "{name}");
        assert_eq!(
            u64s(&r, "targets"),
            direct.targets.iter().map(|f| f.index() as u64).collect::<Vec<_>>(),
            "{name}"
        );
    }
}

/// The service runs ATPG at the server's thread count
/// (`ADI_ATPG_THREADS`, speculative when above 1) and must answer with
/// exactly the sequential library loop's tests — the service-level face
/// of the first-win determinism contract — and carry the phase-timing
/// diagnostics.
#[test]
fn atpg_is_thread_count_invariant_and_reports_timing() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    let (text, netlist) = medium();
    let hash = compile_via_service(&s, &text, "svc_medium");
    let r = request_ok(
        &s,
        &format!(
            r#"{{"op": "atpg", "hash": "{hash}", "ordering": "orig", "include_tests": true}}"#
        ),
    );
    let circuit = CompiledCircuit::compile(netlist);
    let faults = circuit.collapsed_faults();
    let order: Vec<_> = faults.ids().collect();
    let sequential = TestGenConfig {
        atpg_threads: 1,
        ..TestGenConfig::default()
    };
    let direct = TestGenerator::for_circuit(&circuit, faults, sequential).run(&order);
    let tests: Vec<String> = direct
        .tests
        .iter()
        .map(|p| p.iter().map(|b| if b { '1' } else { '0' }).collect())
        .collect();
    assert_eq!(
        r.get("tests"),
        Some(&Value::Array(tests.into_iter().map(Value::Str).collect()))
    );
    assert_eq!(
        u64s(&r, "targets"),
        direct.targets.iter().map(|f| f.index() as u64).collect::<Vec<_>>()
    );
    let timing = r.get("timing").expect("timing reported");
    for key in ["generate_ns", "drop_ns", "commit_wait_ns"] {
        assert!(timing.get(key).and_then(Value::as_u64).is_some(), "{key}");
    }
    assert!(r.get("wasted_speculations").and_then(Value::as_u64).is_some());
}

/// The result fields that do not depend on scheduling: everything but
/// the wall-clock `timing` and the `wasted_speculations` diagnostic.
fn deterministic_fields(result: &Value) -> Vec<(String, String)> {
    result
        .as_object()
        .unwrap()
        .iter()
        .filter(|(key, _)| !matches!(*key, "timing" | "wasted_speculations"))
        .map(|(key, value)| (key.to_string(), value.to_string()))
        .collect()
}

/// Thread counts are not request fields: a request asking for 20 000
/// threads in any thread field answers like one asking for 1, instead
/// of spawning them and aborting the whole process.
#[test]
fn absurd_thread_counts_are_ignored() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    let (text, _) = medium();
    let hash = compile_via_service(&s, &text, "svc_medium");
    let run = |atpg: &str, adi: &str| {
        request_ok(
            &s,
            &format!(
                r#"{{"op": "atpg", "hash": "{hash}", "ordering": "0dynm", "random": {{"count": 256, "seed": 21}}, "include_tests": true, "cache": "bypass", "atpg": {atpg}, "adi": {adi}}}"#
            ),
        )
    };
    let one = deterministic_fields(&run(
        r#"{"threads": 1, "atpg_threads": 1}"#,
        r#"{"threads": 1}"#,
    ));
    for (atpg, adi) in [
        (
            r#"{"threads": 20000, "atpg_threads": 1}"#,
            r#"{"threads": 1}"#,
        ),
        (
            r#"{"threads": 1, "atpg_threads": 20000}"#,
            r#"{"threads": 1}"#,
        ),
        (
            r#"{"threads": 1, "atpg_threads": 1}"#,
            r#"{"threads": 20000}"#,
        ),
    ] {
        assert_eq!(
            deterministic_fields(&run(atpg, adi)),
            one,
            "atpg {atpg} adi {adi}"
        );
    }
}

/// The `atpg` response reports the SAT-fallback resolution counts, and
/// they obey the books: every target aborted at the full backtrack
/// limit is resolved redundant or testable or stays undecided, the
/// undecided ones are exactly `num_aborted`, and turning the fallback
/// off zeroes the resolution counts while restoring the raw aborts.
/// Above 50 backtracks the redundancy screen settles targets before
/// that limit, and its `screen_redundant` and `screen_testable` counts
/// join the books.
#[test]
fn atpg_reports_sat_resolution_counts() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    let (text, _) = medium();
    let medium_hash = compile_via_service(&s, &text, "svc_medium");
    // Enough aborts at 50 backtracks for the screen to prove some
    // faults redundant.
    let spills = random_circuit(&RandomCircuitConfig::new("svc_spills", 40, 400, 7));
    let spills_hash = compile_via_service(&s, &bench_format::to_bench(&spills), "svc_spills");
    let run = |hash: &str, atpg: &str| {
        request_ok(
            &s,
            &format!(r#"{{"op": "atpg", "hash": "{hash}", "atpg": {atpg}}}"#),
        )
    };
    let field = |result: &Value, key: &str| result.get(key).and_then(Value::as_u64).unwrap();
    // Checks the books of one response and returns its
    // `(screen_redundant, screen_testable)` counts.
    let books = |result: &Value| {
        let aborted = field(result, "aborted_faults");
        let sr = result.get("sat_resolved").expect("sat_resolved reported");
        let (redundant, testable, undecided) = (
            field(sr, "redundant"),
            field(sr, "testable"),
            field(sr, "undecided"),
        );
        assert_eq!(
            redundant + testable + undecided,
            aborted,
            "every aborted fault is accounted for"
        );
        assert_eq!(undecided, field(result, "num_aborted"));
        let screened = field(result, "screen_redundant");
        assert!(redundant + screened <= field(result, "num_redundant"));
        let screen_testable = field(result, "screen_testable");
        assert!(testable + screen_testable <= field(result, "num_tests"));
        (screened, screen_testable)
    };
    // A starvation-level backtrack limit forces aborts so the fallback
    // has real work; it is below the screen's budget, so no screen runs.
    let on = run(&medium_hash, r#"{"backtrack_limit": 1}"#);
    assert!(
        field(&on, "aborted_faults") > 0,
        "backtrack limit 1 must abort something"
    );
    assert_eq!(books(&on), (0, 0));
    let (screened, screen_testable) = books(&run(&spills_hash, r#"{"backtrack_limit": 1000}"#));
    assert!(screened > 0, "the screen proved nothing redundant");
    assert!(screen_testable > 0, "the screen found no test");

    for (hash, limit) in [(&medium_hash, 1), (&spills_hash, 1000)] {
        let off = run(
            hash,
            &format!(r#"{{"backtrack_limit": {limit}, "sat_fallback": "off"}}"#),
        );
        let sr = off.get("sat_resolved").unwrap();
        for key in ["redundant", "testable", "undecided"] {
            assert_eq!(sr.get(key).and_then(Value::as_u64), Some(0), "{key}");
        }
        assert_eq!(field(&off, "screen_redundant"), 0);
        assert_eq!(field(&off, "screen_testable"), 0);
        assert_eq!(off.get("num_aborted"), off.get("aborted_faults"));
    }
    let hash = medium_hash;

    // Unknown labels are clean request errors, and so is a `U`
    // selection whose exhaustive threshold reaches a 24-input circuit
    // (past the 20-input limit of exhaustive sets), through `adi` and
    // through an ordered `atpg`.
    let and24 = {
        let inputs: Vec<String> = (0..24).map(|i| format!("a{i}")).collect();
        let mut text: String = inputs.iter().map(|a| format!("INPUT({a})\n")).collect();
        text.push_str(&format!("OUTPUT(y)\ny = AND({})\n", inputs.join(", ")));
        Value::Str(text).to_string()
    };
    for (bad, field) in [
        (
            format!(r#"{{"op": "atpg", "hash": "{hash}", "atpg": {{"sat_fallback": "sometimes"}}}}"#),
            "sat_fallback",
        ),
        (
            format!(r#"{{"op": "adi", "bench": {and24}, "u": {{"exhaustive_threshold": 64}}}}"#),
            "`u.exhaustive_threshold`",
        ),
        (
            format!(
                r#"{{"op": "atpg", "bench": {and24}, "ordering": "0dynm", "u": {{"exhaustive_threshold": 64}}}}"#
            ),
            "`u.exhaustive_threshold`",
        ),
    ] {
        let v = json::parse(&s.handle_line(&bad)).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{bad}");
        let error = v.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains(field), "{bad} -> {error}");
    }
}

/// The `equiv` endpoint must tell an equivalent rewrite apart from a
/// single-gate mutation, answer by hash or bench on either side, and
/// return a witness that is a valid input bit string.
#[test]
fn equiv_separates_rewrite_from_mutation() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    let c17 = embedded::C17_BENCH;
    let rewrite = c17.replace("G10 = NAND(G1, G3)", "G10a = AND(G1, G3)\nG10 = NOT(G10a)");
    let mutation = c17.replace("G10 = NAND(G1, G3)", "G10 = NOR(G1, G3)");
    let left_hash = compile_via_service(&s, c17, "c17");
    let side = |text: &str| Value::Str(text.to_string()).to_string();

    let r = request_ok(
        &s,
        &format!(
            r#"{{"op": "equiv", "left": {{"hash": "{left_hash}"}}, "right": {{"bench": {}}}}}"#,
            side(&rewrite)
        ),
    );
    assert_eq!(r.get("verdict").and_then(Value::as_str), Some("equivalent"));
    assert_eq!(r.get("left_hash").and_then(Value::as_str), Some(left_hash.as_str()));
    assert!(r.get("witness").is_none());

    let r = request_ok(
        &s,
        &format!(
            r#"{{"op": "equiv", "left": {{"hash": "{left_hash}"}}, "right": {{"bench": {}}}}}"#,
            side(&mutation)
        ),
    );
    assert_eq!(r.get("verdict").and_then(Value::as_str), Some("inequivalent"));
    let witness = r.get("witness").and_then(Value::as_str).expect("witness");
    assert_eq!(witness.len(), 5, "one bit per c17 input");
    assert!(witness.chars().all(|c| c == '0' || c == '1'));

    // Mismatched interfaces and missing references are clean errors.
    for bad in [
        format!(
            r#"{{"op": "equiv", "left": {{"hash": "{left_hash}"}}, "right": {{"bench": "INPUT(a)\\nOUTPUT(y)\\ny = NOT(a)\\n"}}}}"#
        ),
        format!(r#"{{"op": "equiv", "left": {{"hash": "{left_hash}"}}}}"#),
    ] {
        let v = json::parse(&s.handle_line(&bad)).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{bad}");
    }
}

#[test]
fn ndetect_matches_direct_counts() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    for (text, netlist) in and_suite(medium()) {
        let name = netlist.name().to_string();
        let hash = compile_via_service(&s, &text, &name);
        let r = request_ok(
            &s,
            &format!(
                r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 300, "seed": 4}}, "n": 5}}"#
            ),
        );

        let circuit = CompiledCircuit::compile(netlist);
        let faults = circuit.collapsed_faults();
        let patterns = PatternSet::random(circuit.netlist().num_inputs(), 300, 4);
        let direct = FaultSimulator::for_circuit(&circuit, faults).n_detect(&patterns, 5);

        assert_eq!(
            u64s(&r, "counts"),
            direct.counts.iter().map(|&c| c as u64).collect::<Vec<_>>(),
            "{name}"
        );
        assert_eq!(
            r.get("num_saturated").and_then(Value::as_u64),
            Some(direct.num_saturated() as u64),
            "{name}"
        );
    }
}

#[test]
fn reorder_matches_direct_permutation() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    for (text, netlist) in and_suite(reparsed(&embedded::c17())) {
        let name = netlist.name().to_string();
        let hash = compile_via_service(&s, &text, &name);
        let patterns = PatternSet::random(netlist.num_inputs(), 24, 77);
        let list = patterns
            .iter()
            .map(|p| {
                let bits: String = p.iter().map(|b| if b { '1' } else { '0' }).collect();
                format!("\"{bits}\"")
            })
            .collect::<Vec<_>>()
            .join(", ");
        let r = request_ok(
            &s,
            &format!(r#"{{"op": "reorder", "hash": "{hash}", "patterns": [{list}]}}"#),
        );

        let circuit = CompiledCircuit::compile(netlist);
        let direct = reorder_tests_for(&circuit, circuit.collapsed_faults(), &patterns);
        assert_eq!(
            u64s(&r, "permutation"),
            direct.permutation.iter().map(|&i| i as u64).collect::<Vec<_>>(),
            "{name}"
        );
        assert_eq!(
            r.get("final_detected").and_then(Value::as_u64),
            Some(direct.curve.final_detected() as u64),
            "{name}"
        );
    }
}

#[test]
fn cache_hit_requests_perform_zero_levelizations() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    let s = state();
    let (text, _netlist) = medium();
    let hash = compile_via_service(&s, &text, "svc_medium");

    // Everything below addresses the cached compilation by hash: the
    // levelization counter must not move at all.
    let before = LevelizedCsr::build_count();
    request_ok(&s, &format!(r#"{{"op": "compile", "hash": "{hash}"}}"#));
    request_ok(
        &s,
        &format!(r#"{{"op": "coverage", "hash": "{hash}", "random": {{"count": 64, "seed": 1}}}}"#),
    );
    request_ok(
        &s,
        &format!(r#"{{"op": "adi", "hash": "{hash}", "random": {{"count": 64, "seed": 2}}, "ordering": "incr0"}}"#),
    );
    request_ok(
        &s,
        &format!(r#"{{"op": "atpg", "hash": "{hash}", "random": {{"count": 64, "seed": 3}}, "ordering": "dynm"}}"#),
    );
    request_ok(
        &s,
        &format!(r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 64, "seed": 4}}, "n": 3}}"#),
    );
    request_ok(
        &s,
        &format!(r#"{{"op": "reorder", "hash": "{hash}", "patterns": ["000000000000", "111111111111"]}}"#),
    );
    assert_eq!(
        LevelizedCsr::build_count() - before,
        0,
        "cache-hit requests must reuse the stored compilation"
    );
    // And re-sending the original bench text is a hit, not a recompile.
    let before = LevelizedCsr::build_count();
    compile_via_service(&s, &text, "svc_medium");
    assert_eq!(LevelizedCsr::build_count() - before, 0);
}

#[test]
fn tcp_transport_round_trips_and_shuts_down() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        serve_tcp(
            listener,
            Arc::new(ServiceState::new(StoreConfig::default())),
            ServerConfig {
                workers: 2,
                queue_depth: 8,
                max_inflight: 4,
            },
        )
        .unwrap()
    });

    let roundtrip = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str| {
        stream.write_all(format!("{req}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        json::parse(line.trim_end()).unwrap()
    };

    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    };
    let (mut stream, mut reader) = connect();
    let bench = Value::Str(bench_format::to_bench(&embedded::c17())).to_string();
    let v = roundtrip(
        &mut stream,
        &mut reader,
        &format!(r#"{{"id": 1, "op": "compile", "bench": {bench}}}"#),
    );
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    let hash = v
        .get("result")
        .unwrap()
        .get("hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // A second connection sees the same cache.
    let (mut second, mut second_reader) = connect();
    let v = roundtrip(
        &mut second,
        &mut second_reader,
        &format!(r#"{{"id": 2, "op": "coverage", "hash": "{hash}", "exhaustive": true}}"#),
    );
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        v.get("result").unwrap().get("coverage").and_then(Value::as_f64),
        Some(1.0)
    );

    // Malformed input keeps the connection usable.
    let v = roundtrip(&mut stream, &mut reader, "this is not json");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));

    // Graceful shutdown: answered, then the server exits and the
    // connection closes.
    let v = roundtrip(&mut stream, &mut reader, r#"{"id": 3, "op": "shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "EOF after shutdown");

    let report = server.join().unwrap();
    assert_eq!(report.connections, 2);
    assert!(report.requests >= 4);
}
