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

use adi_circuits::{embedded, paper_suite_up_to, random_circuit, RandomCircuitConfig};
use adi_netlist::bench_format;
use adi_service::{ScenarioConfig, ServiceState, StoreConfig};
use json::Value;

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
    // (`collapse`, `cache`, `engine-less` width) written out; extra
    // whitespace. All must produce one miss and three hits with
    // byte-identical responses.
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

    // The retired `engine` and `atpg.drop_loop` selectors are ignored
    // like any unknown field: a request naming one answers
    // byte-identically to, and hits the entry of, the request without it.
    let retired = [
        (
            format!(r#"{{"id": 1, "op": "coverage", "hash": "{hash}", "exhaustive": true}}"#),
            format!(
                r#"{{"id": 1, "op": "coverage", "hash": "{hash}", "exhaustive": true, "engine": "per-fault"}}"#
            ),
        ),
        (
            format!(r#"{{"id": 1, "op": "atpg", "hash": "{hash}"}}"#),
            format!(
                r#"{{"id": 1, "op": "atpg", "hash": "{hash}", "atpg": {{"drop_loop": "scalar"}}}}"#
            ),
        ),
    ];
    for (plain, stale) in &retired {
        let cold = raw(&s, plain);
        assert_eq!(
            raw(&s, stale),
            cold,
            "a retired selector must not change the answer"
        );
    }
    let stats = scenario_stats(&s);
    assert_eq!(stat(&stats, "misses"), 1 + retired.len() as u64);
    assert_eq!(stat(&stats, "hits"), 3 + retired.len() as u64);
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
    assert_eq!(stat(&stats, "hits"), 4 + retired.len() as u64);
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

/// The result of `request`, less `atpg`'s wall-clock `timing` and
/// `wasted_speculations` (every other field is deterministic).
fn deterministic_result(state: &ServiceState, request: &Value) -> Vec<(String, String)> {
    let v = json::parse(&raw(state, &request.to_string())).unwrap();
    v.get("result")
        .and_then(Value::as_object)
        .unwrap()
        .iter()
        .filter(|(key, _)| !matches!(*key, "timing" | "wasted_speculations"))
        .map(|(key, value)| (key.to_string(), value.to_string()))
        .collect()
}

/// For every cacheable op: starting from a request that sets every
/// field the op reads, a copy that differs in one field alone (sent
/// after the base, cache on) answers exactly like its own `bypass`
/// recomputation. A key that forgot the field would replay the base's
/// payload instead, and each variant marked as changing the answer
/// proves the check can see that.
#[test]
fn every_field_an_op_reads_is_in_the_key() {
    let s = state();
    let c17 = compile_c17(&s);
    // Same five inputs, different function: a drop-in circuit swap.
    let mutant = compile(&s, &embedded::C17_BENCH.replace("G10 = NAND", "G10 = NOR"));
    let rewrite = compile(
        &s,
        &embedded::C17_BENCH.replace("G10 = NAND(G1, G3)", "G10a = AND(G1, G3)\nG10 = NOT(G10a)"),
    );
    // Hard enough at `backtrack_limit: 1` to abort and reach SAT.
    let medium = compile(
        &s,
        &bench_format::to_bench(&random_circuit(&RandomCircuitConfig::new(
            "svc_medium",
            12,
            160,
            0xC0FFEE,
        ))),
    );
    let tests = r#"["00000", "11111", "10101", "01010", "11000", "00111", "10010", "01101"]"#;
    let other_tests = r#"["00000", "11111", "10101", "01010"]"#;
    // (base request, [(field, other value, changes the answer)]); the
    // `false` fields are simulation knobs every value of which gives
    // bit-identical results.
    type Variants = Vec<(&'static str, String, bool)>;
    let cases: Vec<(String, Variants)> = vec![
        (
            format!(
                r#"{{"op": "coverage", "hash": "{c17}", "collapse": true, "random": {{"count": 32, "seed": 5}}, "width": 1, "include_detail": true}}"#
            ),
            vec![
                ("hash", format!(r#""{mutant}""#), true),
                ("collapse", "false".into(), true),
                ("random.count", "33".into(), true),
                ("random.seed", "6".into(), true),
                ("patterns", tests.into(), true),
                ("width", "2".into(), false),
                ("include_detail", "false".into(), true),
            ],
        ),
        (
            format!(
                r#"{{"op": "ndetect", "hash": "{c17}", "collapse": true, "patterns": {tests}, "n": 2, "width": 1}}"#
            ),
            vec![
                ("hash", format!(r#""{mutant}""#), true),
                ("collapse", "false".into(), true),
                ("patterns", other_tests.into(), true),
                ("n", "3".into(), true),
                ("width", "4".into(), false),
            ],
        ),
        (
            format!(
                r#"{{"op": "adi", "hash": "{c17}", "collapse": true, "u": {{"max_vectors": 64, "target_coverage": 0.9, "seed": 3, "exhaustive_threshold": 0, "strip_useless": false}}, "adi": {{"estimator": "min", "n_detect_cap": 8, "threads": 1, "width": 1}}, "include_values": true, "ordering": "0dynm"}}"#
            ),
            vec![
                ("hash", format!(r#""{mutant}""#), true),
                ("collapse", "false".into(), true),
                ("random", r#"{"count": 16, "seed": 1}"#.into(), true),
                ("u.max_vectors", "4".into(), true),
                ("u.target_coverage", "0.5".into(), true),
                ("u.seed", "4".into(), true),
                ("u.exhaustive_threshold", "6".into(), true),
                ("u.strip_useless", "true".into(), true),
                ("adi.estimator", r#""mean""#.into(), true),
                ("adi.n_detect_cap", "1".into(), true),
                ("adi.threads", "2".into(), false),
                ("adi.width", "2".into(), false),
                ("include_values", "false".into(), true),
                ("ordering", r#""dynm""#.into(), true),
            ],
        ),
        (
            format!(
                r#"{{"op": "atpg", "hash": "{medium}", "collapse": true, "ordering": "0dynm", "random": {{"count": 64, "seed": 21}}, "adi": {{"estimator": "min", "n_detect_cap": 8, "threads": 1, "width": 1}}, "atpg": {{"backtrack_limit": 1, "fill": "random", "fill_seed": 7, "width": 1, "threads": 1, "atpg_threads": 1, "speculation_depth": 4, "sat_fallback": "aborted-only", "sat_conflict_limit": 100000}}, "include_tests": true, "include_detail": true}}"#
            ),
            vec![
                ("hash", format!(r#""{c17}""#), true),
                ("collapse", "false".into(), true),
                ("ordering", r#""dynm""#.into(), true),
                ("random.seed", "22".into(), true),
                ("adi.estimator", r#""mean""#.into(), true),
                ("adi.n_detect_cap", "1".into(), true),
                ("adi.threads", "2".into(), false),
                ("adi.width", "2".into(), false),
                ("atpg.backtrack_limit", "1000".into(), true),
                ("atpg.fill", r#""zeros""#.into(), true),
                ("atpg.fill_seed", "8".into(), true),
                ("atpg.width", "2".into(), false),
                ("atpg.threads", "2".into(), false),
                ("atpg.atpg_threads", "2".into(), false),
                ("atpg.speculation_depth", "8".into(), false),
                ("atpg.sat_fallback", r#""off""#.into(), true),
                ("atpg.sat_conflict_limit", "0".into(), true),
                ("include_tests", "false".into(), true),
                ("include_detail", "false".into(), true),
            ],
        ),
        (
            format!(
                r#"{{"op": "reorder", "hash": "{c17}", "collapse": true, "patterns": {tests}, "mode": "steepest"}}"#
            ),
            vec![
                ("hash", format!(r#""{mutant}""#), true),
                ("collapse", "false".into(), true),
                ("patterns", other_tests.into(), true),
                ("mode", r#""compact""#.into(), true),
            ],
        ),
        (
            format!(
                r#"{{"op": "equiv", "left": {{"hash": "{c17}"}}, "right": {{"hash": "{rewrite}"}}, "conflict_limit": 100000}}"#
            ),
            vec![
                ("left.hash", format!(r#""{mutant}""#), true),
                ("right.hash", format!(r#""{mutant}""#), true),
                ("conflict_limit", "0".into(), true),
            ],
        ),
    ];
    for (base, variants) in &cases {
        let base = json::parse(base).unwrap();
        let base_result = deterministic_result(&s, &base);
        for (field, value, changes_answer) in variants {
            let variant = with_field(&base, field, value);
            let cached = deterministic_result(&s, &variant);
            let fresh = deterministic_result(&s, &with_field(&variant, "cache", r#""bypass""#));
            assert_eq!(cached, fresh, "`{field}`: {variant}");
            assert_eq!(
                cached != base_result,
                *changes_answer,
                "`{field}` = {value} must {}change the answer",
                if *changes_answer { "" } else { "not " }
            );
        }
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
