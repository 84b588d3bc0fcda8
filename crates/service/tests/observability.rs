//! Observability behavior of the service layer: the `"trace": true`
//! request field must not perturb response bytes or the scenario
//! cache, span stacks must survive panicking pool workers, the
//! `metrics`/`stats` endpoints must expose the new registry state, the
//! simulation kernels must open a fixed number of spans per call, and a
//! traced `atpg` request must split each SAT proof into its encoding
//! and its solve.

use std::sync::mpsc;
use std::time::Duration;

use adi_atpg::TestGenConfig;
use adi_circuits::paper_suite_up_to;
use adi_netlist::bench_format;
use adi_obs::SpanSite;
use adi_service::{ServiceState, StoreConfig, WorkerPool};
use adi_sim::{FaultSimulator, PatternSet};
use json::Value;

const COVERAGE: &str = r#"{"id": 1, "op": "coverage", "bench": "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "exhaustive": true}"#;

fn traced(request: &str) -> String {
    request.replacen(r#""id": 1"#, r#""id": 1, "trace": true"#, 1)
}

fn parsed(line: &str) -> Value {
    json::parse(line).unwrap()
}

/// The names of a response trace's root spans, in start order.
fn root_span_names(trace: &Value) -> Vec<&str> {
    let spans = trace.get("spans").and_then(Value::as_array).expect("spans array");
    spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect()
}

/// A traced repeat of a cached scenario returns the untraced bytes
/// plus a trailing `"trace"` field — and does not disturb the cached
/// entry for later untraced requests.
#[test]
fn traced_hit_extends_untraced_bytes_exactly() {
    let s = ServiceState::new(StoreConfig::default());
    let plain = s.handle_line(COVERAGE);
    let traced_line = s.handle_line(&traced(COVERAGE));
    assert!(
        traced_line.starts_with(&plain[..plain.len() - 1]),
        "traced response must extend the untraced bytes:\n{plain}\n{traced_line}"
    );
    let v = parsed(&traced_line);
    let trace = v.get("trace").expect("traced response has a trace field");
    assert_eq!(trace.get("cache").and_then(Value::as_str), Some("hit"));
    // A hit is resolved, then fingerprinted, looked up and spliced.
    assert_eq!(root_span_names(trace), ["service.resolve", "service.cache"]);
    // The cache still serves the original bytes, trace-free.
    let again = s.handle_line(COVERAGE);
    assert_eq!(again, plain, "traced request polluted the cached entry");
    assert!(!again.contains("\"trace\""));
}

/// A *cold* traced request (the one that populates the cache) collects
/// resolve/execute/serialize spans, and the entry it caches is still the
/// plain payload: the next untraced request gets byte-identical results.
#[test]
fn cold_traced_request_caches_only_the_result() {
    let s = ServiceState::new(StoreConfig::default());
    let traced_line = s.handle_line(&traced(COVERAGE));
    let v = parsed(&traced_line);
    let trace = v.get("trace").expect("trace field present");
    assert_eq!(trace.get("cache").and_then(Value::as_str), Some("miss"));
    let names = root_span_names(trace);
    for stage in ["service.resolve", "service.execute", "service.serialize"] {
        assert!(
            names.contains(&stage),
            "cold traced request must show the resolve/execute/serialize split, got {names:?}"
        );
    }
    // The miss closes its cache span before computing.
    assert_eq!(names.iter().filter(|&&n| n == "service.cache").count(), 1, "{names:?}");
    let plain = s.handle_line(COVERAGE);
    assert!(!plain.contains("\"trace\""), "cached entry must not carry the trace");
    assert!(
        traced_line.starts_with(&plain[..plain.len() - 1]),
        "the traced populator and the untraced hit disagree on result bytes"
    );
}

/// `"trace"` must be a boolean; anything else is a request error.
#[test]
fn non_boolean_trace_is_rejected() {
    let s = ServiceState::new(StoreConfig::default());
    let v = parsed(&s.handle_line(r#"{"op": "ping", "trace": "yes"}"#));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
}

/// A panic unwinding through spans inside a pool worker leaves the
/// worker's span stack clean: the next job's spans root correctly.
#[test]
fn worker_panic_unwinds_span_stack() {
    static A: SpanSite = SpanSite::new("svc_test.panics");
    static B: SpanSite = SpanSite::new("svc_test.after");
    let pool = WorkerPool::new(1, 4);
    pool.submit(|| {
        let _guard = adi_obs::start_trace();
        let _outer = A.enter();
        let _inner = A.enter();
        panic!("job goes boom under two open spans");
    })
    .unwrap();
    let (tx, rx) = mpsc::channel();
    pool.submit(move || {
        let guard = adi_obs::start_trace();
        {
            let _b = B.enter();
        }
        let _ = tx.send(guard.finish());
    })
    .unwrap();
    let trace = rx.recv_timeout(Duration::from_secs(10)).expect("second job ran");
    assert_eq!(pool.panic_count(), 1, "first job panicked in the worker");
    assert_eq!(trace.nodes.len(), 1);
    assert_eq!(trace.nodes[0].name, "svc_test.after");
    assert_eq!(
        trace.nodes[0].parent, None,
        "a clean stack after the unwind means the span roots correctly"
    );
    pool.shutdown();
}

/// The `metrics` endpoint renders Prometheus text (default) and a JSON
/// summary; `stats` reports the pool backlog gauge.
#[test]
fn metrics_endpoint_renders_both_formats() {
    let s = ServiceState::new(StoreConfig::default());
    let v = parsed(&s.handle_line(r#"{"op": "metrics"}"#));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    let r = v.get("result").unwrap();
    assert!(r.get("enabled").and_then(Value::as_bool).is_some());
    let text = r.get("text").and_then(Value::as_str).expect("prometheus text");
    assert!(text.contains("# TYPE adi_workers gauge"), "{text}");
    assert!(text.contains("# TYPE adi_worker_queue_depth gauge"), "{text}");

    let v = parsed(&s.handle_line(r#"{"op": "metrics", "format": "json"}"#));
    let r = v.get("result").unwrap();
    assert!(r.get("histograms").is_some());
    let scalars = r.get("scalars").expect("scalar map");
    assert_eq!(scalars.get("adi_worker_queue_depth").and_then(Value::as_u64), Some(0));

    let v = parsed(&s.handle_line(r#"{"op": "metrics", "format": "yaml"}"#));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));

    let v = parsed(&s.handle_line(r#"{"op": "stats"}"#));
    let svc = v.get("result").and_then(|r| r.get("service")).expect("service stats");
    assert_eq!(svc.get("queued").and_then(Value::as_u64), Some(0));
}

/// Instrumentation stays out of the inner loops: a no-drop matrix opens
/// one `sim.no_drop` span and one `sim.block` span per 256-pattern
/// superblock, whatever the circuit's gate or fault count, so a span opened per
/// fault or per gate shows up as extra nodes (or as dropped ones past
/// the per-trace cap).
#[test]
fn no_drop_matrix_opens_one_span_per_superblock() {
    const PATTERNS: usize = 2048;
    for circuit in paper_suite_up_to(300) {
        let compiled = circuit.compiled();
        let faults = compiled.collapsed_faults();
        let patterns = PatternSet::random(circuit.inputs, PATTERNS, circuit.seed);
        let sim = FaultSimulator::for_circuit(&compiled, faults);
        let guard = adi_obs::start_trace();
        sim.no_drop_matrix(&patterns);
        let trace = guard.finish();
        let count = |name: &str| trace.nodes.iter().filter(|n| n.name == name).count();
        let blocks = PATTERNS.div_ceil(256);
        let label = circuit.name;
        assert_eq!(trace.dropped, 0, "{label}");
        assert_eq!(count("sim.no_drop"), 1, "{label}");
        assert_eq!(count("sim.block"), blocks, "{label}");
        assert_eq!(trace.nodes.len(), 1 + blocks, "{label}");
    }
}

/// A traced `atpg` request shows each SAT proof as a `sat.prove` span
/// under its target's `atpg.podem` span, with exactly one `sat.encode`
/// and then one `sat.solve` child. irs420 has faults that PODEM's
/// 50-backtrack screen search aborts on, so the screen's proofs run.
/// With speculative ATPG (`ADI_ATPG_THREADS` above 1) the searches run
/// on worker threads, outside the request's trace, so only the nesting
/// of whatever proofs the trace holds is checked then.
#[test]
fn traced_atpg_splits_each_proof_into_encode_and_solve() {
    fn visit<'a>(
        span: &'a Value,
        parent: &'a str,
        found: &mut Vec<(&'a str, &'a str, Vec<&'a str>)>,
    ) {
        let name = span.get("name").and_then(Value::as_str).expect("span name");
        let children = span.get("spans").and_then(Value::as_array).unwrap_or(&[]);
        let names = children
            .iter()
            .filter_map(|c| c.get("name").and_then(Value::as_str))
            .collect();
        found.push((parent, name, names));
        for child in children {
            visit(child, name, found);
        }
    }
    let irs420 = paper_suite_up_to(300)
        .into_iter()
        .find(|c| c.name == "irs420")
        .unwrap();
    let bench = Value::Str(bench_format::to_bench(&irs420.netlist())).to_string();
    let s = ServiceState::new(StoreConfig::default());
    let v = parsed(&s.handle_line(&format!(
        r#"{{"id": 1, "trace": true, "op": "atpg", "bench": {bench}}}"#
    )));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v}");
    let trace = v.get("trace").expect("trace field present");
    assert_eq!(trace.get("dropped").and_then(Value::as_u64), Some(0));
    let mut found = Vec::new();
    for root in trace
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans array")
    {
        visit(root, "", &mut found);
    }
    let mut proofs = 0;
    for (parent, name, children) in &found {
        match *name {
            "sat.prove" => {
                assert_eq!(*parent, "atpg.podem");
                assert_eq!(children, &["sat.encode", "sat.solve"]);
                proofs += 1;
            }
            "sat.encode" | "sat.solve" => assert_eq!(*parent, "sat.prove"),
            _ => {}
        }
    }
    if TestGenConfig::default().atpg_threads == 1 {
        assert!(proofs > 0, "no proof in the trace");
    }
}
