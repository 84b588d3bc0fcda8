//! End-to-end obligations of the scenario (response) cache layer:
//!
//! 1. requests that differ only in JSON spelling — field order,
//!    whitespace, defaults written out explicitly, a circuit sent as
//!    `bench` text or addressed by `hash` — collapse to one scenario,
//!    while every semantic difference separates scenarios, and every
//!    field an op reads is part of its key;
//! 2. a cache hit is **byte-identical** to the miss that populated it,
//!    for every cacheable endpoint, and (for endpoints without
//!    wall-clock fields) byte-identical to a `"cache": "bypass"`
//!    recomputation too;
//! 3. the byte budget actually evicts, eviction is observable through
//!    the `stats` endpoint, and a re-requested evicted scenario
//!    recomputes to the same bytes;
//! 4. `"cache": "bypass"` skips the cache entirely.

use std::sync::OnceLock;

use adi_circuits::{embedded, paper_suite_up_to, random_circuit, RandomCircuitConfig};
use adi_netlist::bench_format;
use adi_service::{ScenarioConfig, ServiceState, StoreConfig};
use json::Value;
use proptest::prelude::*;

fn state() -> ServiceState {
    ServiceState::new(StoreConfig::default())
}

/// Compiles c17 through the service and returns its hash.
fn compile_c17(state: &ServiceState) -> String {
    compile(state, &bench_format::to_bench(&embedded::c17()))
}

/// Compiles bench `text` through the service and returns its hash.
fn compile(state: &ServiceState, text: &str) -> String {
    let bench = Value::Str(text.to_string()).to_string();
    let v = json::parse(&state.handle_line(&format!(
        r#"{{"op": "compile", "bench": {bench}, "name": "c17"}}"#
    )))
    .unwrap();
    v.get("result")
        .and_then(|r| r.get("hash"))
        .and_then(Value::as_str)
        .expect("compile must return a hash")
        .to_string()
}

/// Raw response line for `request` (the unit byte-identity compares).
fn raw(state: &ServiceState, request: &str) -> String {
    let line = state.handle_line(request);
    let v = json::parse(&line).unwrap();
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "request failed: {request} -> {line}"
    );
    line
}

/// The `scenario` block of the `stats` endpoint.
fn scenario_stats(state: &ServiceState) -> Value {
    let v = json::parse(&state.handle_line(r#"{"op": "stats"}"#)).unwrap();
    v.get("result")
        .and_then(|r| r.get("scenario"))
        .expect("stats must report a scenario block")
        .clone()
}

fn stat(stats: &Value, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing scenario stat `{key}` in {stats}"))
}

#[test]
fn spelling_variants_collapse_to_one_scenario() {
    let s = state();
    let hash = compile_c17(&s);
    // Same scenario four ways: canonical; fields reordered; defaults
    // (`collapse`, `cache`) written out; extra whitespace. All must
    // produce one miss and three hits with byte-identical responses.
    let variants = [
        format!(r#"{{"id": 1, "op": "ndetect", "hash": "{hash}", "random": {{"count": 32, "seed": 5}}, "n": 3}}"#),
        format!(r#"{{"n": 3, "random": {{"seed": 5, "count": 32}}, "hash": "{hash}", "op": "ndetect", "id": 1}}"#),
        format!(r#"{{"id": 1, "op": "ndetect", "collapse": true, "cache": "use", "hash": "{hash}", "random": {{"count": 32, "seed": 5}}, "n": 3}}"#),
        format!(r#"  {{ "id": 1,  "op": "ndetect", "hash": "{hash}",   "random": {{ "count": 32, "seed": 5 }}, "n": 3 }}  "#),
    ];
    let responses: Vec<String> = variants.iter().map(|r| raw(&s, r)).collect();
    for other in &responses[1..] {
        assert_eq!(&responses[0], other, "spelling variants must hit byte-identically");
    }
    let stats = scenario_stats(&s);
    assert_eq!(stat(&stats, "misses"), 1, "one cold computation");
    assert_eq!(stat(&stats, "hits"), 3, "every respelling is a hit");
    assert_eq!(stat(&stats, "entries"), 1);

    // The retired `engine` and `atpg.drop_loop` selectors and the
    // performance fields (`width`, `threads`, `atpg_threads`,
    // `speculation_depth`) are ignored like any unknown field, even at
    // values that were once request errors: a request naming them
    // answers byte-identically to, and hits the entry of, the request
    // without them.
    let retired: [(String, &[&str]); 4] = [
        (
            format!(r#"{{"id": 1, "op": "coverage", "hash": "{hash}", "exhaustive": true"#),
            &[r#""engine": "per-fault""#, r#""width": 2"#, r#""width": 5"#],
        ),
        (
            format!(r#"{{"id": 1, "op": "ndetect", "hash": "{hash}", "exhaustive": true, "n": 2"#),
            &[r#""width": 8"#, r#""width": "wide""#],
        ),
        (
            format!(r#"{{"id": 1, "op": "adi", "hash": "{hash}", "ordering": "0dynm""#),
            &[
                r#""adi": {"width": 1, "threads": 2}"#,
                r#""adi": {"width": 5, "threads": "many"}"#,
                r#""adi": {"threads": 20000}"#,
            ],
        ),
        (
            format!(r#"{{"id": 1, "op": "atpg", "hash": "{hash}", "ordering": "0dynm""#),
            &[
                r#""atpg": {"drop_loop": "scalar"}"#,
                r#""atpg": {"width": 2, "threads": 4, "atpg_threads": 4, "speculation_depth": 8}"#,
                r#""atpg": {"width": 5, "threads": "many", "atpg_threads": -1, "speculation_depth": 0}"#,
                r#""atpg": {"threads": 20000, "atpg_threads": 20000}, "adi": {"width": 2, "threads": 2}"#,
            ],
        ),
    ];
    let mut variants = 0;
    for (plain, stale) in &retired {
        let cold = raw(&s, &format!("{plain}}}"));
        for field in stale.iter() {
            assert_eq!(
                raw(&s, &format!("{plain}, {field}}}")),
                cold,
                "a retired or performance field must not change the answer: {field}"
            );
            variants += 1;
        }
    }
    let stats = scenario_stats(&s);
    assert_eq!(stat(&stats, "misses"), 1 + retired.len() as u64);
    assert_eq!(stat(&stats, "hits"), 3 + variants);
    assert_eq!(stat(&stats, "entries"), 1 + retired.len() as u64);

    // A circuit sent as `bench` text resolves to the same scenario as
    // the compiled circuit addressed by `hash`.
    let bench = Value::Str(bench_format::to_bench(&embedded::c17())).to_string();
    let by_hash = raw(
        &s,
        &format!(r#"{{"id": 1, "op": "coverage", "hash": "{hash}", "random": {{"count": 8}}}}"#),
    );
    let by_bench = raw(
        &s,
        &format!(r#"{{"id": 1, "op": "coverage", "bench": {bench}, "random": {{"count": 8}}}}"#),
    );
    assert_eq!(by_bench, by_hash, "bench text must hit the hash-addressed entry");
    let stats = scenario_stats(&s);
    assert_eq!(stat(&stats, "misses"), 2 + retired.len() as u64);
    assert_eq!(stat(&stats, "hits"), 4 + variants);
    assert_eq!(stat(&stats, "entries"), 2 + retired.len() as u64);
}

/// `request` with the field at dotted `path` set to the JSON `value`.
fn with_field(request: &Value, path: &str, value: &str) -> Value {
    fn set(node: Option<&Value>, path: &[&str], value: Value) -> Value {
        let Some((key, rest)) = path.split_first() else {
            return value;
        };
        let mut o = node.and_then(Value::as_object).cloned().unwrap_or_default();
        let child = set(o.get(key), rest, value);
        o.insert(*key, child);
        Value::Object(o)
    }
    let path: Vec<&str> = path.split('.').collect();
    set(Some(request), &path, json::parse(value).unwrap())
}

/// `result` less `atpg`'s wall-clock `timing` and `wasted_speculations`
/// (every other field is deterministic).
fn deterministic(result: &Value) -> Vec<(String, String)> {
    result
        .as_object()
        .unwrap()
        .iter()
        .filter(|(key, _)| !matches!(*key, "timing" | "wasted_speculations"))
        .map(|(key, value)| (key.to_string(), value.to_string()))
        .collect()
}

/// The deterministic result of `request`, which must succeed.
fn deterministic_result(state: &ServiceState, request: &Value) -> Vec<(String, String)> {
    let v = json::parse(&raw(state, &request.to_string())).unwrap();
    deterministic(v.get("result").unwrap())
}

/// `(field path, another value that changes the answer)` pairs.
type Variants = Vec<(&'static str, String)>;

/// For every cacheable op, a request that sets every field the op reads
/// and, per field, another value for it. Compiles the circuits they
/// address into `s`.
fn key_cases(s: &ServiceState) -> Vec<(Value, Variants)> {
    let c17 = compile_c17(s);
    // Same five inputs, different function: a drop-in circuit swap.
    let mutant = compile(s, &embedded::C17_BENCH.replace("G10 = NAND", "G10 = NOR"));
    let rewrite = compile(
        s,
        &embedded::C17_BENCH.replace("G10 = NAND(G1, G3)", "G10a = AND(G1, G3)\nG10 = NOT(G10a)"),
    );
    // Hard enough at `backtrack_limit: 1` to abort and reach SAT.
    let medium = compile(
        s,
        &bench_format::to_bench(&random_circuit(&RandomCircuitConfig::new(
            "svc_medium",
            12,
            160,
            0xC0FFEE,
        ))),
    );
    let tests = r#"["00000", "11111", "10101", "01010", "11000", "00111", "10010", "01101"]"#;
    let other_tests = r#"["00000", "11111", "10101", "01010"]"#;
    let cases: Vec<(String, Variants)> = vec![
        (
            format!(
                r#"{{"op": "coverage", "hash": "{c17}", "collapse": true, "random": {{"count": 32, "seed": 5}}, "include_detail": true}}"#
            ),
            vec![
                ("hash", format!(r#""{mutant}""#)),
                ("collapse", "false".into()),
                ("random.count", "33".into()),
                ("random.seed", "6".into()),
                ("patterns", tests.into()),
                ("include_detail", "false".into()),
            ],
        ),
        (
            format!(
                r#"{{"op": "ndetect", "hash": "{c17}", "collapse": true, "patterns": {tests}, "n": 2}}"#
            ),
            vec![
                ("hash", format!(r#""{mutant}""#)),
                ("collapse", "false".into()),
                ("patterns", other_tests.into()),
                ("n", "3".into()),
            ],
        ),
        (
            format!(
                r#"{{"op": "adi", "hash": "{c17}", "collapse": true, "u": {{"max_vectors": 64, "target_coverage": 0.9, "seed": 3, "exhaustive_threshold": 0, "strip_useless": false}}, "adi": {{"estimator": "min", "n_detect_cap": 8}}, "include_values": true, "ordering": "0dynm"}}"#
            ),
            vec![
                ("hash", format!(r#""{mutant}""#)),
                ("collapse", "false".into()),
                ("random", r#"{"count": 16, "seed": 1}"#.into()),
                ("u.max_vectors", "4".into()),
                ("u.target_coverage", "0.5".into()),
                ("u.seed", "4".into()),
                ("u.exhaustive_threshold", "6".into()),
                ("u.strip_useless", "true".into()),
                ("adi.estimator", r#""mean""#.into()),
                ("adi.n_detect_cap", "1".into()),
                ("include_values", "false".into()),
                ("ordering", r#""dynm""#.into()),
            ],
        ),
        (
            format!(
                r#"{{"op": "atpg", "hash": "{medium}", "collapse": true, "ordering": "0dynm", "random": {{"count": 64, "seed": 21}}, "adi": {{"estimator": "min", "n_detect_cap": 8}}, "atpg": {{"backtrack_limit": 1, "fill": "random", "fill_seed": 7, "sat_fallback": "aborted-only", "sat_conflict_limit": 100000}}, "include_tests": true, "include_detail": true}}"#
            ),
            vec![
                ("hash", format!(r#""{c17}""#)),
                ("collapse", "false".into()),
                ("ordering", r#""dynm""#.into()),
                ("random.seed", "22".into()),
                ("adi.estimator", r#""mean""#.into()),
                ("adi.n_detect_cap", "1".into()),
                ("atpg.backtrack_limit", "1000".into()),
                ("atpg.fill", r#""zeros""#.into()),
                ("atpg.fill_seed", "8".into()),
                ("atpg.sat_fallback", r#""off""#.into()),
                ("atpg.sat_conflict_limit", "0".into()),
                ("include_tests", "false".into()),
                ("include_detail", "false".into()),
            ],
        ),
        (
            format!(
                r#"{{"op": "reorder", "hash": "{c17}", "collapse": true, "patterns": {tests}, "mode": "steepest"}}"#
            ),
            vec![
                ("hash", format!(r#""{mutant}""#)),
                ("collapse", "false".into()),
                ("patterns", other_tests.into()),
                ("mode", r#""compact""#.into()),
            ],
        ),
        (
            format!(
                r#"{{"op": "equiv", "left": {{"hash": "{c17}"}}, "right": {{"hash": "{rewrite}"}}, "conflict_limit": 100000}}"#
            ),
            vec![
                ("left.hash", format!(r#""{mutant}""#)),
                ("right.hash", format!(r#""{mutant}""#)),
                ("conflict_limit", "0".into()),
            ],
        ),
    ];
    cases
        .into_iter()
        .map(|(base, variants)| (json::parse(&base).unwrap(), variants))
        .collect()
}

/// For every cacheable op: starting from a request that sets every
/// field the op reads, a copy that differs in one field alone (sent
/// after the base, cache on) answers exactly like its own `bypass`
/// recomputation. A key that forgot the field would replay the base's
/// payload instead, and every variant changes the answer, which proves
/// the check can see that.
#[test]
fn every_field_an_op_reads_is_in_the_key() {
    let s = state();
    for (base, variants) in &key_cases(&s) {
        let base_result = deterministic_result(&s, base);
        for (field, value) in variants {
            let variant = with_field(base, field, value);
            let cached = deterministic_result(&s, &variant);
            let fresh = deterministic_result(&s, &with_field(&variant, "cache", r#""bypass""#));
            assert_eq!(cached, fresh, "`{field}`: {variant}");
            assert_ne!(cached, base_result, "`{field}` = {value} must change the answer");
        }
    }
}

/// `request` without the field at dotted `path` (unchanged if absent).
fn without_field(request: &Value, path: &str) -> Value {
    fn strip(node: &Value, path: &[&str]) -> Value {
        let Some(o) = node.as_object() else {
            return node.clone();
        };
        let kept = o.iter().filter(|(key, _)| path != [*key]).map(|(key, value)| {
            let value = if path[0] == key {
                strip(value, &path[1..])
            } else {
                value.clone()
            };
            (key, value)
        });
        Value::Object(kept.collect())
    }
    strip(request, &path.split('.').collect::<Vec<_>>())
}

/// A fuzz response line: one JSON object with a boolean `ok`, and no
/// `internal error`. Returns `ok` with the deterministic result, or with
/// the error message.
fn fuzz_answer(line: &str) -> (bool, Vec<(String, String)>) {
    let v = json::parse(line).unwrap_or_else(|e| panic!("not one JSON value ({e}): {line}"));
    assert!(v.as_object().is_some() && !line.contains('\n'), "{line}");
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => (true, deterministic(v.get("result").unwrap())),
        Some(false) => {
            let error = v.get("error").and_then(Value::as_str).unwrap();
            assert!(!error.starts_with("internal error"), "{line}");
            (false, vec![("error".to_string(), error.to_string())])
        }
        None => panic!("no boolean `ok`: {line}"),
    }
}

/// Values the fuzz writes into fields: every JSON kind, a negative
/// number and one beyond every integer type.
const JUNK: [&str; 7] = ["null", "true", "-1", "1e30", r#""x""#, "[]", "{}"];

/// The performance fields requests no longer read, and where the fuzz
/// adds them.
const IGNORED: [&str; 4] = ["width", "threads", "atpg_threads", "speculation_depth"];
const IGNORED_AT: [&str; 3] = ["", "adi.", "atpg."];

/// The service state all fuzz cases share (so a mutant can hit an entry
/// an earlier case filled), and its key cases.
fn fuzz_fixture() -> &'static (ServiceState, Vec<(Value, Variants)>) {
    static FIXTURE: OnceLock<(ServiceState, Vec<(Value, Variants)>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let s = state();
        let cases = key_cases(&s);
        (s, cases)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A key case's base request under up to three mutations (drop a
    /// field it reads, set one to junk, add an ignored field) answers
    /// with the cache on exactly as its `bypass` recomputation does: a
    /// cached payload is never one computed for another request.
    #[test]
    fn mutated_requests_answer_like_their_recomputation(
        case in 0usize..6,
        mutations in proptest::collection::vec((0usize..3, any::<u64>(), 0usize..JUNK.len()), 0..4),
    ) {
        let (s, cases) = fuzz_fixture();
        let (base, fields) = &cases[case];
        let mut request = base.clone();
        for (kind, pick, junk) in mutations {
            let pick = pick as usize;
            let field = fields[pick % fields.len()].0;
            request = match kind {
                0 => without_field(&request, field),
                1 => with_field(&request, field, JUNK[junk]),
                _ => {
                    let at = IGNORED_AT[pick / IGNORED.len() % IGNORED_AT.len()];
                    let name = IGNORED[pick % IGNORED.len()];
                    with_field(&request, &format!("{at}{name}"), JUNK[junk])
                }
            };
        }
        let cached = fuzz_answer(&s.handle_line(&request.to_string()));
        let bypass = with_field(&request, "cache", r#""bypass""#);
        let fresh = fuzz_answer(&s.handle_line(&bypass.to_string()));
        prop_assert_eq!(cached, fresh, "{}", request);
    }
}

#[test]
fn semantic_differences_separate_scenarios() {
    let s = state();
    let hash = compile_c17(&s);
    // Four requests that look alike but differ in one resolved value
    // each: n, seed, count, collapse. All must miss separately.
    let distinct = [
        format!(r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 32, "seed": 5}}, "n": 3}}"#),
        format!(r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 32, "seed": 5}}, "n": 4}}"#),
        format!(r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 32, "seed": 6}}, "n": 3}}"#),
        format!(r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 33, "seed": 5}}, "n": 3}}"#),
        format!(r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 32, "seed": 5}}, "n": 3, "collapse": false}}"#),
    ];
    for request in &distinct {
        raw(&s, request);
    }
    let stats = scenario_stats(&s);
    assert_eq!(stat(&stats, "misses"), distinct.len() as u64);
    assert_eq!(stat(&stats, "hits"), 0);
    assert_eq!(stat(&stats, "entries"), distinct.len() as u64);
}

#[test]
fn coverage_detail_and_count_are_separate_scenarios() {
    // `include_detail` selects the first-detection simulation, so the
    // two requests cache apart, and each hit replays its own miss.
    let s = state();
    let hash = compile_c17(&s);
    let random = r#""random": {"count": 40, "seed": 3}"#;
    let count = format!(r#"{{"op": "coverage", "hash": "{hash}", {random}}}"#);
    let detail = format!(r#"{}, "include_detail": true}}"#, count.strip_suffix('}').unwrap());
    let (count_miss, detail_miss) = (raw(&s, &count), raw(&s, &detail));
    assert!(!count_miss.contains("new_detections"), "{count_miss}");
    assert!(detail_miss.contains("new_detections"), "{detail_miss}");
    let stats = scenario_stats(&s);
    assert_eq!(stat(&stats, "misses"), 2);
    assert_eq!(stat(&stats, "entries"), 2);
    assert_eq!(raw(&s, &count), count_miss, "the count hit replays its miss");
    assert_eq!(raw(&s, &detail), detail_miss, "the detail hit replays its miss");
    let stats = scenario_stats(&s);
    assert_eq!(stat(&stats, "hits"), 2);
    assert_eq!(stat(&stats, "misses"), 2);
}

/// One request per cacheable endpoint on the compiled circuit `hash`
/// with `inputs` primary inputs. With `random`, that vector spec is the
/// coverage set and `U`; without it, coverage is exhaustive and `adi`
/// selects `U` by default.
fn cacheable_requests(hash: &str, inputs: usize, random: Option<&str>) -> Vec<String> {
    let (vectors, u) = match random {
        Some(spec) => (spec.to_string(), format!(", {spec}")),
        None => (r#""exhaustive": true"#.to_string(), String::new()),
    };
    let alternating: String = (0..inputs).map(|i| if i % 2 == 0 { '1' } else { '0' }).collect();
    let (zeros, ones) = ("0".repeat(inputs), "1".repeat(inputs));
    vec![
        format!(r#"{{"id": 3, "op": "coverage", "hash": "{hash}", {vectors}}}"#),
        format!(r#"{{"id": 3, "op": "ndetect", "hash": "{hash}", "random": {{"count": 16, "seed": 2}}, "n": 2}}"#),
        format!(r#"{{"id": 3, "op": "adi", "hash": "{hash}", "ordering": "0dynm"{u}}}"#),
        format!(r#"{{"id": 3, "op": "atpg", "hash": "{hash}", "include_tests": true}}"#),
        format!(r#"{{"id": 3, "op": "reorder", "hash": "{hash}", "patterns": ["{zeros}", "{ones}", "{alternating}"]}}"#),
        format!(r#"{{"id": 3, "op": "equiv", "left": {{"hash": "{hash}"}}, "right": {{"hash": "{hash}"}}}}"#),
    ]
}

#[test]
fn every_cacheable_endpoint_hits_byte_identically() {
    let s = state();
    // c17 exhaustively, with the default `U`; and the largest suite
    // circuit up to 300 gates, whose inputs are too many for exhaustive
    // sets, with random vectors as the coverage set and as `U`.
    let mut endpoints = cacheable_requests(&compile_c17(&s), 5, None);
    let suite = paper_suite_up_to(300)
        .into_iter()
        .max_by_key(|c| c.gates)
        .unwrap()
        .netlist();
    let hash = compile(&s, &bench_format::to_bench(&suite));
    endpoints.extend(cacheable_requests(
        &hash,
        suite.num_inputs(),
        Some(r#""random": {"count": 256, "seed": 2}"#),
    ));
    for request in &endpoints {
        let miss = raw(&s, request);
        let hit = raw(&s, request);
        assert_eq!(miss, hit, "hit must replay the miss bytes: {request}");
        // A different envelope id must not break payload identity.
        let other_id = request.replacen(r#""id": 3"#, r#""id": 4"#, 1);
        let respliced = raw(&s, &other_id);
        assert_eq!(
            respliced.replacen(r#""id":4"#, r#""id":3"#, 1),
            hit,
            "cached payload must be spliced under the new id: {request}"
        );
        // For endpoints with no wall-clock fields the cached bytes must
        // also equal a forced cold recomputation (`atpg` reports
        // `timing`, which legitimately differs run to run).
        if !request.contains(r#""op": "atpg""#) {
            let stripped = other_id.strip_suffix('}').unwrap().trim_end().to_string();
            let bypass = raw(&s, &format!(r#"{stripped}, "cache": "bypass"}}"#));
            assert_eq!(
                bypass.replacen(r#""id":4"#, r#""id":3"#, 1),
                hit,
                "bypass recomputation must match the cached bytes: {request}"
            );
        }
    }
    let stats = scenario_stats(&s);
    assert_eq!(stat(&stats, "misses"), endpoints.len() as u64);
    assert_eq!(stat(&stats, "hits"), 2 * endpoints.len() as u64);
    // Every request but the two `atpg` ones was also bypassed.
    assert_eq!(stat(&stats, "bypassed"), endpoints.len() as u64 - 2);
    assert!(stat(&stats, "bytes") > 0, "cached payload bytes are accounted");
}

#[test]
fn byte_budget_evicts_and_evicted_scenarios_recompute_identically() {
    // A budget far smaller than two ndetect responses: inserting the
    // second scenario must evict the first.
    let s = ServiceState::with_scenario(
        StoreConfig::default(),
        ScenarioConfig {
            shards: 1,
            budget_bytes: 150,
        },
    );
    let hash = compile_c17(&s);
    let req_a = format!(r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 16, "seed": 2}}, "n": 1}}"#);
    let req_b = format!(r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 16, "seed": 2}}, "n": 2}}"#);
    let first_a = raw(&s, &req_a);
    assert!(
        first_a.len() > 150,
        "test premise: one response ({} bytes) must exceed the budget",
        first_a.len()
    );
    raw(&s, &req_b);
    let stats = scenario_stats(&s);
    assert!(stat(&stats, "evictions") >= 1, "the budget must have forced eviction");
    assert!(
        stat(&stats, "bytes") <= first_a.len() as u64 + 150,
        "resident bytes stay near the budget"
    );
    // The evicted scenario recomputes — to exactly the same bytes.
    let again_a = raw(&s, &req_a);
    assert_eq!(first_a, again_a, "recomputed scenario must be byte-identical");
    let stats = scenario_stats(&s);
    assert_eq!(stat(&stats, "hits"), 0, "everything was evicted between repeats");
    assert_eq!(stat(&stats, "misses"), 3);
}

#[test]
fn bypass_skips_the_cache_entirely() {
    let s = state();
    let hash = compile_c17(&s);
    let request = format!(
        r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 16, "seed": 2}}, "n": 1, "cache": "bypass"}}"#
    );
    let a = raw(&s, &request);
    let b = raw(&s, &request);
    assert_eq!(a, b, "bypass responses are still deterministic");
    let stats = scenario_stats(&s);
    assert_eq!(stat(&stats, "bypassed"), 2);
    assert_eq!(stat(&stats, "hits"), 0);
    assert_eq!(stat(&stats, "misses"), 0);
    assert_eq!(stat(&stats, "entries"), 0, "bypass must not populate the cache");
}
