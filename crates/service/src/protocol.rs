//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line. Every request is a JSON
//! object with an `"op"` field naming the endpoint and an optional
//! client-chosen `"id"` that is echoed verbatim in the response, so
//! pipelined requests can be matched even when responses complete out
//! of order:
//!
//! ```text
//! → {"id": 1, "op": "compile", "bench": "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}
//! ← {"id": 1, "ok": true, "result": {"hash": "…", "nodes": 2, …}}
//! → {"id": 2, "op": "coverage", "hash": "…", "random": {"count": 64}}
//! ← {"id": 2, "ok": true, "result": {"num_detected": 4, …}}
//! ```
//!
//! Failures answer `{"id": …, "ok": false, "error": "…"}` and keep the
//! connection open. See the repository README for the per-endpoint
//! field reference; this module holds the one request parser, which
//! turns a request into the typed value the handlers cache and execute.

use adi_atpg::{FillStrategy, PodemConfig, SatFallback, TestGenConfig};
use adi_core::uset::USetConfig;
use adi_core::{AdiConfig, AdiEstimator, FaultOrdering};
use adi_netlist::fault::FaultList;
use adi_netlist::{bench_format, CompiledCircuit, NetlistHash};
use adi_sim::{Pattern, PatternSet};
use json::{Object, Value};

use crate::store::{CacheOutcome, CircuitStore};

/// A request-level failure, reported to the client as the `error`
/// string of a `"ok": false` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError(pub String);

impl RequestError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        RequestError(message.into())
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RequestError {}

pub(crate) type RequestResult<T> = Result<T, RequestError>;

/// Hard ceiling on generated pattern counts (`random.count`,
/// `exhaustive` width) so a single request cannot allocate unbounded
/// memory.
pub(crate) const MAX_PATTERNS: usize = 1 << 20;

/// Widest circuit an exhaustive vector set may cover (2^20 vectors):
/// the limit of `"exhaustive": true` and of `u.exhaustive_threshold`.
pub(crate) const MAX_EXHAUSTIVE_INPUTS: usize = 20;

/// Builds the success envelope for `id` around `result`.
pub fn ok_response(id: Option<&Value>, result: Object) -> Value {
    let mut o = Object::new();
    if let Some(id) = id {
        o.insert("id", id.clone());
    }
    o.insert("ok", true);
    o.insert("result", result);
    Value::Object(o)
}

/// Builds the failure envelope for a request line that was not valid
/// JSON (no `id` to echo — the line never parsed).
pub fn invalid_json_response(err: &json::ParseError) -> Value {
    error_response(None, &format!("invalid JSON: {err}"))
}

/// Builds the load-shed failure envelope: admission control refused
/// the request before it reached the worker pool. The extra
/// `"shed": true` marker lets load generators distinguish shed
/// responses from request errors without parsing the message text.
pub fn shed_response(id: Option<&Value>, max_inflight: usize) -> Value {
    let mut o = Object::new();
    if let Some(id) = id {
        o.insert("id", id.clone());
    }
    o.insert("ok", false);
    o.insert(
        "error",
        format!("shed: connection already has {max_inflight} requests in flight"),
    );
    o.insert("shed", true);
    Value::Object(o)
}

/// Builds the failure envelope for `id` around `error`.
pub fn error_response(id: Option<&Value>, error: &str) -> Value {
    let mut o = Object::new();
    if let Some(id) = id {
        o.insert("id", id.clone());
    }
    o.insert("ok", false);
    o.insert("error", error);
    Value::Object(o)
}

/// One parsed request: every field its op reads, read once, with its
/// circuits resolved (`id`, `trace` and `cache` are the handler's).
pub(crate) enum Request {
    /// `compile`: the circuit and how the store supplied it.
    Compile(CompiledCircuit, CacheOutcome),
    Scenario(Scenario),
    Ping,
    Stats,
    /// `metrics`; `json` for `"format": "json"`.
    Metrics { json: bool },
    Shutdown,
}

/// A cacheable request, resolved: the values its op computes from,
/// after defaulting. Its derived `Hash` is the scenario-cache key, so a
/// field added here enters the key by construction. Fields an op
/// ignores are never read (`u` when vectors are given; vectors, `u` and
/// `adi` for an `orig` `atpg` ordering).
/// Checks that need the computation (vectors present, reorder `mode`
/// and tests, `equiv` interfaces) are the executor's; every other check,
/// such as `ndetect`'s `n`, is the parser's, so no vector set is built
/// for a request that is refused anyway.
#[derive(Hash)]
pub(crate) enum Scenario {
    Coverage(Coverage),
    Ndetect(Ndetect),
    Adi(Adi),
    Atpg(Atpg),
    Reorder(Reorder),
    Equiv(Equiv),
}

#[derive(Hash)]
pub(crate) struct Coverage {
    pub(crate) target: Target,
    pub(crate) vectors: Option<PatternSpec>,
    pub(crate) include_detail: bool,
}

#[derive(Hash)]
pub(crate) struct Ndetect {
    pub(crate) target: Target,
    pub(crate) vectors: Option<PatternSpec>,
    /// Positive, checked at parse.
    pub(crate) n: u32,
}

#[derive(Hash)]
pub(crate) struct Adi {
    pub(crate) target: Target,
    pub(crate) vectors: Vectors,
    pub(crate) config: AdiConfig,
    pub(crate) include_values: bool,
    /// Absent unless the request names an ordering.
    pub(crate) ordering: Option<FaultOrdering>,
}

#[derive(Hash)]
pub(crate) struct Atpg {
    pub(crate) target: Target,
    pub(crate) ordering: FaultOrdering,
    /// The ADI inputs of a non-`orig` ordering.
    pub(crate) analysis: Option<(Vectors, AdiConfig)>,
    pub(crate) config: TestGenConfig,
    pub(crate) include_tests: bool,
    pub(crate) include_detail: bool,
}

#[derive(Hash)]
pub(crate) struct Reorder {
    pub(crate) target: Target,
    pub(crate) tests: Option<PatternSpec>,
    pub(crate) mode: String,
}

#[derive(Hash)]
pub(crate) struct Equiv {
    pub(crate) left: CompiledCircuit,
    pub(crate) right: CompiledCircuit,
    pub(crate) conflict_limit: u64,
}

/// A resolved circuit with its fault-list choice (`collapse`).
#[derive(Hash)]
pub(crate) struct Target {
    pub(crate) circuit: CompiledCircuit,
    collapse: bool,
}

impl Target {
    /// The target fault list: collapsed unless `"collapse": false`.
    pub(crate) fn faults(&self) -> &FaultList {
        if self.collapse {
            self.circuit.collapsed_faults()
        } else {
            self.circuit.full_faults()
        }
    }

    pub(crate) fn num_inputs(&self) -> usize {
        self.circuit.netlist().num_inputs()
    }
}

/// How a request described its input vectors.
#[derive(Hash)]
pub(crate) enum PatternSpec {
    /// Explicit `"patterns": ["0101…", …]` bit strings (bit `i` drives
    /// primary input `i`), decoded at parse time.
    Explicit(PatternSet),
    /// `"random": {"count": N, "seed": S}`.
    Random { count: usize, seed: u64 },
    /// `"exhaustive": true`.
    Exhaustive,
}

impl PatternSpec {
    /// The vectors, generating `random`/`exhaustive` sets now.
    pub(crate) fn into_set(self, num_inputs: usize) -> PatternSet {
        match self {
            PatternSpec::Explicit(set) => set,
            PatternSpec::Random { count, seed } => PatternSet::random(num_inputs, count, seed),
            PatternSpec::Exhaustive => PatternSet::exhaustive(num_inputs),
        }
    }
}

/// The vectors an ADI analysis runs on: the request's own, or (none
/// given) the paper's `U` selection under this configuration.
#[derive(Hash)]
pub(crate) enum Vectors {
    Given(PatternSpec),
    Select(USetConfig),
}

/// Parses request `req` for endpoint `op`, resolving its circuits
/// through `store`. Each op reads its fields in the order it uses them,
/// so a request with one bad field fails with that field's message.
pub(crate) fn parse_request(op: &str, req: &Value, store: &CircuitStore) -> RequestResult<Request> {
    let scenario = match op {
        "compile" => {
            let (circuit, outcome) = resolve_circuit(req, store)?;
            return Ok(Request::Compile(circuit, outcome));
        }
        "ping" => return Ok(Request::Ping),
        "stats" => return Ok(Request::Stats),
        "shutdown" => return Ok(Request::Shutdown),
        "metrics" => {
            let json = match opt_str(req, "format", "prometheus")? {
                "prometheus" => false,
                "json" => true,
                other => {
                    return Err(RequestError::new(format!(
                        "unknown metrics format `{other}` (expected prometheus or json)"
                    )))
                }
            };
            return Ok(Request::Metrics { json });
        }
        "coverage" => {
            let target = parse_target(req, store)?;
            Scenario::Coverage(Coverage {
                vectors: parse_pattern_spec(req, target.num_inputs())?,
                include_detail: opt_bool(req, "include_detail", false)?,
                target,
            })
        }
        "ndetect" => {
            let target = parse_target(req, store)?;
            Scenario::Ndetect(Ndetect {
                vectors: parse_pattern_spec(req, target.num_inputs())?,
                n: parse_ndetect_n(req)?,
                target,
            })
        }
        "adi" => {
            let target = parse_target(req, store)?;
            Scenario::Adi(Adi {
                vectors: parse_vectors(req, &target)?,
                config: parse_adi_config(req)?,
                include_values: opt_bool(req, "include_values", false)?,
                ordering: req.get("ordering").map(|_| parse_ordering(req)).transpose()?,
                target,
            })
        }
        "atpg" => {
            let target = parse_target(req, store)?;
            let ordering = parse_ordering(req)?;
            let analysis = if ordering == FaultOrdering::Original {
                None
            } else {
                Some((parse_vectors(req, &target)?, parse_adi_config(req)?))
            };
            Scenario::Atpg(Atpg {
                config: parse_testgen_config(req)?,
                include_tests: opt_bool(req, "include_tests", false)?,
                include_detail: opt_bool(req, "include_detail", false)?,
                target,
                ordering,
                analysis,
            })
        }
        "reorder" => {
            let target = parse_target(req, store)?;
            Scenario::Reorder(Reorder {
                tests: parse_pattern_spec(req, target.num_inputs())?,
                mode: opt_str(req, "mode", "steepest")?.to_string(),
                target,
            })
        }
        "equiv" => Scenario::Equiv(Equiv {
            left: parse_side(req, "left", store)?,
            right: parse_side(req, "right", store)?,
            conflict_limit: opt_u64(req, "conflict_limit", adi_atpg::cnf::DEFAULT_CONFLICT_LIMIT)?,
        }),
        other => {
            return Err(RequestError::new(format!(
                "unknown op `{other}` (expected compile, coverage, adi, atpg, equiv, \
                 ndetect, reorder, ping, stats, metrics, or shutdown)"
            )))
        }
    };
    Ok(Request::Scenario(scenario))
}

/// Resolves a circuit reference: `"hash"` (must already be cached) or
/// `"bench"` text (compiled through the store, so repeats are cache
/// hits).
fn resolve_circuit(
    spec: &Value,
    store: &CircuitStore,
) -> RequestResult<(CompiledCircuit, CacheOutcome)> {
    if let Some(hex) = spec.get("hash") {
        let hex = hex
            .as_str()
            .ok_or_else(|| RequestError::new("`hash` must be a string"))?;
        let hash = NetlistHash::from_hex(hex)
            .ok_or_else(|| RequestError::new("`hash` must be 32 hex digits"))?;
        let circuit = store.lookup(hash).ok_or_else(|| {
            RequestError::new(format!("unknown circuit hash {hex} (compile it first)"))
        })?;
        return Ok((circuit, CacheOutcome::Hit));
    }
    if let Some(bench) = spec.get("bench") {
        let bench = bench
            .as_str()
            .ok_or_else(|| RequestError::new("`bench` must be a string"))?;
        let name = opt_str(spec, "name", "circuit")?;
        let netlist = bench_format::parse(bench, name)
            .map_err(|e| RequestError::new(format!("bench parse error: {e}")))?;
        return Ok(store.get_or_compile(netlist));
    }
    Err(RequestError::new(
        "circuit reference required: provide `bench` (text) or `hash` (cached)",
    ))
}

/// The request's circuit and its `collapse` choice.
fn parse_target(req: &Value, store: &CircuitStore) -> RequestResult<Target> {
    let (circuit, _) = resolve_circuit(req, store)?;
    let collapse = opt_bool(req, "collapse", true)?;
    Ok(Target { circuit, collapse })
}

/// One side of an `equiv` miter: the `key` object's circuit reference.
fn parse_side(req: &Value, key: &str, store: &CircuitStore) -> RequestResult<CompiledCircuit> {
    let spec = req
        .get(key)
        .ok_or_else(|| RequestError::new(format!("`{key}` circuit reference required")))?;
    if spec.as_object().is_none() {
        return Err(RequestError::new(format!(
            "`{key}` must be an object with `bench` or `hash`"
        )));
    }
    resolve_circuit(spec, store)
        .map(|(circuit, _)| circuit)
        .map_err(|e| RequestError::new(format!("{key}: {e}")))
}

/// `ndetect`'s required `n`, a positive integer that fits a `u32`.
fn parse_ndetect_n(req: &Value) -> RequestResult<u32> {
    u32::try_from(opt_u64(req, "n", 0)?)
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| RequestError::new("`n` must be a positive integer"))
}

/// The ADI vectors: the request's own, or (none given) its `u` config.
fn parse_vectors(req: &Value, target: &Target) -> RequestResult<Vectors> {
    let num_inputs = target.num_inputs();
    Ok(match parse_pattern_spec(req, num_inputs)? {
        Some(spec) => Vectors::Given(spec),
        None => Vectors::Select(parse_uset_config(req, num_inputs)?),
    })
}

/// A string field, with a default when absent. `path` names the field
/// in error messages; its last dotted segment is the key read from
/// `req` (`"atpg.fill"` reads `fill` from the `atpg` object).
pub(crate) fn opt_str<'a>(req: &'a Value, path: &str, default: &'a str) -> RequestResult<&'a str> {
    match req.get(leaf(path)) {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .ok_or_else(|| RequestError::new(format!("`{path}` must be a string"))),
    }
}

/// An unsigned integer field, with a default when absent (`path` as in
/// [`opt_str`]).
fn opt_u64(req: &Value, path: &str, default: u64) -> RequestResult<u64> {
    match req.get(leaf(path)) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| RequestError::new(format!("`{path}` must be a non-negative integer"))),
    }
}

/// A boolean field, with a default when absent (`path` as in
/// [`opt_str`]).
pub(crate) fn opt_bool(req: &Value, path: &str, default: bool) -> RequestResult<bool> {
    match req.get(leaf(path)) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| RequestError::new(format!("`{path}` must be a boolean"))),
    }
}

/// The key a dotted field path reads from its enclosing object.
fn leaf(path: &str) -> &str {
    path.rsplit('.').next().unwrap_or(path)
}

/// Parses a fault-ordering label (`"ordering"` field, paper spelling;
/// `orig` when absent).
fn parse_ordering(req: &Value) -> RequestResult<FaultOrdering> {
    let label = opt_str(req, "ordering", FaultOrdering::Original.label())?;
    FaultOrdering::from_label(label).ok_or_else(|| {
        RequestError::new(format!(
            "unknown ordering `{label}` (expected one of orig, incr0, decr, 0decr, dynm, 0dynm)"
        ))
    })
}

/// Parses the per-request ATPG configuration (`"atpg"` object:
/// `backtrack_limit`, `fill`, `fill_seed`, `sat_fallback`,
/// `sat_conflict_limit`), defaulting to [`TestGenConfig::default`]
/// (which resolves backtrack-aborted faults through the SAT layer —
/// pass `"sat_fallback": "off"` for raw PODEM aborts).
///
/// The retired performance fields (`width`, `threads`, `atpg_threads`,
/// `speculation_depth`) are not read: no value changes a result, so
/// every request runs the library defaults (whose `atpg_threads` comes
/// from `ADI_ATPG_THREADS` in the server's environment), and a request
/// naming them is answered like one without them.
fn parse_testgen_config(req: &Value) -> RequestResult<TestGenConfig> {
    let mut config = TestGenConfig::default();
    let Some(spec) = req.get("atpg") else {
        return Ok(config);
    };
    if spec.as_object().is_none() {
        return Err(RequestError::new("`atpg` must be an object"));
    }
    let limit = opt_u64(spec, "atpg.backtrack_limit", config.podem.backtrack_limit as u64)?;
    let sat_fallback = match opt_str(spec, "atpg.sat_fallback", config.podem.sat_fallback.label())? {
        "off" => SatFallback::Off,
        "aborted-only" => SatFallback::AbortedOnly,
        other => {
            return Err(RequestError::new(format!(
                "unknown atpg.sat_fallback `{other}` (expected off or aborted-only)"
            )))
        }
    };
    config.podem = PodemConfig {
        backtrack_limit: u32::try_from(limit)
            .map_err(|_| RequestError::new("`atpg.backtrack_limit` too large"))?,
        sat_fallback,
        sat_conflict_limit: opt_u64(spec, "atpg.sat_conflict_limit", config.podem.sat_conflict_limit)?,
    };
    config.fill = match opt_str(spec, "atpg.fill", "random")? {
        "random" => FillStrategy::Random,
        "zeros" => FillStrategy::Zeros,
        "ones" => FillStrategy::Ones,
        "alternating" => FillStrategy::Alternating,
        other => {
            return Err(RequestError::new(format!(
                "unknown atpg.fill `{other}` (expected random, zeros, ones, alternating)"
            )))
        }
    };
    config.fill_seed = opt_u64(spec, "atpg.fill_seed", config.fill_seed)?;
    Ok(config)
}

/// Parses the ADI configuration (`"adi"` object: `estimator`,
/// `n_detect_cap`), defaulting to [`AdiConfig::default`]. Like the ATPG
/// performance fields, `width` and `threads` are not read.
fn parse_adi_config(req: &Value) -> RequestResult<AdiConfig> {
    let mut config = AdiConfig::default();
    let Some(spec) = req.get("adi") else {
        return Ok(config);
    };
    if spec.as_object().is_none() {
        return Err(RequestError::new("`adi` must be an object"));
    }
    config.estimator = match opt_str(spec, "adi.estimator", "min")? {
        "min" => AdiEstimator::MinNdet,
        "mean" => AdiEstimator::MeanNdet,
        other => {
            return Err(RequestError::new(format!(
                "unknown adi.estimator `{other}` (expected min or mean)"
            )))
        }
    };
    if let Some(cap) = spec.get("n_detect_cap") {
        let cap = cap
            .as_u64()
            .filter(|&n| n > 0 && n <= u32::MAX as u64)
            .ok_or_else(|| RequestError::new("`adi.n_detect_cap` must be a positive integer"))?;
        config.n_detect_cap = Some(cap as u32);
    }
    Ok(config)
}

/// Parses the `U`-selection configuration (`"u"` object mirroring
/// [`USetConfig`]) for a circuit with `num_inputs` inputs, defaulting to
/// the paper's procedure. An `exhaustive_threshold` that would make the
/// selection enumerate more than [`MAX_EXHAUSTIVE_INPUTS`] inputs is
/// rejected, like `"exhaustive": true` on such a circuit.
fn parse_uset_config(req: &Value, num_inputs: usize) -> RequestResult<USetConfig> {
    let mut config = USetConfig::default();
    let Some(spec) = req.get("u") else {
        return Ok(config);
    };
    if spec.as_object().is_none() {
        return Err(RequestError::new("`u` must be an object"));
    }
    let max_vectors = opt_u64(spec, "u.max_vectors", config.max_vectors as u64)? as usize;
    if max_vectors == 0 || max_vectors > MAX_PATTERNS {
        return Err(RequestError::new(format!(
            "`u.max_vectors` must be in 1..={MAX_PATTERNS}"
        )));
    }
    config.max_vectors = max_vectors;
    if let Some(tc) = spec.get("target_coverage") {
        config.target_coverage = tc
            .as_f64()
            .filter(|t| (0.0..=1.0).contains(t))
            .ok_or_else(|| RequestError::new("`u.target_coverage` must be in [0, 1]"))?;
    }
    config.seed = opt_u64(spec, "u.seed", config.seed)?;
    config.exhaustive_threshold =
        opt_u64(spec, "u.exhaustive_threshold", config.exhaustive_threshold as u64)? as usize;
    if num_inputs > MAX_EXHAUSTIVE_INPUTS && config.exhaustive_threshold >= num_inputs {
        return Err(RequestError::new(format!(
            "`u.exhaustive_threshold` reaches this circuit's {num_inputs} inputs, but \
             exhaustive sets are limited to circuits with at most {MAX_EXHAUSTIVE_INPUTS} inputs"
        )));
    }
    config.strip_useless = opt_bool(spec, "u.strip_useless", config.strip_useless)?;
    Ok(config)
}

/// Extracts the pattern specification from a request, `None` when it
/// names no vectors. Explicit patterns are decoded for a circuit with
/// `num_inputs` inputs by one [`PatternSet::from_bit_strs`] call, and an
/// error names the first bad entry as `` `patterns[i]` ``; generated
/// sets are kept as their parameters.
fn parse_pattern_spec(req: &Value, num_inputs: usize) -> RequestResult<Option<PatternSpec>> {
    if let Some(list) = req.get("patterns") {
        let list = list
            .as_array()
            .ok_or_else(|| RequestError::new("`patterns` must be an array of bit strings"))?;
        if list.len() > MAX_PATTERNS {
            return Err(RequestError::new(format!(
                "`patterns` is limited to {MAX_PATTERNS} vectors"
            )));
        }
        // One block ingest for the whole list: the bit strings are
        // transposed 64 vectors at a time straight into the packed
        // words, with no per-pattern `Pattern`/`Vec<bool>`. The strings
        // before the first non-string go in, so an error still names the
        // first bad entry, whichever way it is bad.
        let bits: Vec<&str> = list.iter().map_while(Value::as_str).collect();
        let set = PatternSet::from_bit_strs(num_inputs, &bits)
            .map_err(|(i, e)| RequestError::new(format!("`patterns[{i}]`: {e}")))?;
        if bits.len() < list.len() {
            let i = bits.len();
            return Err(RequestError::new(format!("`patterns[{i}]` must be a string")));
        }
        return Ok(Some(PatternSpec::Explicit(set)));
    }
    if let Some(spec) = req.get("random") {
        if spec.as_object().is_none() {
            return Err(RequestError::new("`random` must be an object"));
        }
        let count = opt_u64(spec, "random.count", 256)? as usize;
        if count == 0 || count > MAX_PATTERNS {
            return Err(RequestError::new(format!(
                "`random.count` must be in 1..={MAX_PATTERNS}"
            )));
        }
        let seed = opt_u64(spec, "random.seed", 0xAD1_5EED)?;
        return Ok(Some(PatternSpec::Random { count, seed }));
    }
    if opt_bool(req, "exhaustive", false)? {
        if num_inputs > MAX_EXHAUSTIVE_INPUTS {
            return Err(RequestError::new(format!(
                "`exhaustive` is limited to circuits with at most \
                 {MAX_EXHAUSTIVE_INPUTS} inputs (this one has {num_inputs})"
            )));
        }
        return Ok(Some(PatternSpec::Exhaustive));
    }
    Ok(None)
}

/// Renders a [`Pattern`] as the protocol's bit-string form.
pub(crate) fn pattern_to_string(pattern: &Pattern) -> String {
    pattern.iter().map(|b| if b { '1' } else { '0' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_patterns_stream_into_packed_words() {
        let req = json::parse(r#"{"patterns": ["0110", "1001"]}"#).unwrap();
        let Some(PatternSpec::Explicit(set)) = parse_pattern_spec(&req, 4).unwrap() else {
            panic!("explicit spec expected");
        };
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(0).value(), Some(0b0110));
        assert_eq!(set.get(1).value(), Some(0b1001));
        assert_eq!(pattern_to_string(&set.get(0)), "0110");
        for bad in [r#"{"patterns": ["01"]}"#, r#"{"patterns": ["01x0"]}"#] {
            let req = json::parse(bad).unwrap();
            assert!(parse_pattern_spec(&req, 4).is_err(), "{bad}");
        }
    }

    /// The per-vector loop the block ingest replaced: each entry in
    /// order must be a string, then of `num_inputs` bytes, then all
    /// `'0'`/`'1'`, and is pushed as a [`Pattern`].
    fn per_vector_patterns(list: &[Value], num_inputs: usize) -> RequestResult<PatternSet> {
        let mut set = PatternSet::new(num_inputs);
        for (i, item) in list.iter().enumerate() {
            let Some(bits) = item.as_str() else {
                return Err(RequestError::new(format!("`patterns[{i}]` must be a string")));
            };
            if bits.len() != num_inputs {
                return Err(RequestError::new(format!(
                    "`patterns[{i}]`: pattern width {} does not match set width {num_inputs}",
                    bits.len()
                )));
            }
            if let Some(b) = bits.bytes().find(|&b| b != b'0' && b != b'1') {
                return Err(RequestError::new(format!(
                    "`patterns[{i}]`: invalid pattern character '{}' (want '0' or '1')",
                    char::from(b)
                )));
            }
            set.push(&Pattern::new(bits.bytes().map(|b| b == b'1').collect()));
        }
        Ok(set)
    }

    #[test]
    fn explicit_patterns_decode_like_the_per_vector_loop() {
        use crate::scenario::Fingerprint;
        let check = |list: Vec<Value>, num_inputs: usize, label: &str| {
            let want = per_vector_patterns(&list, num_inputs);
            let req = Value::Object([("patterns", Value::Array(list))].into_iter().collect());
            match (parse_pattern_spec(&req, num_inputs), want) {
                (Ok(Some(PatternSpec::Explicit(set))), Ok(reference)) => {
                    assert_eq!(Fingerprint::of(&set), Fingerprint::of(&reference), "{label}");
                    assert_eq!(set, reference, "{label}");
                }
                (Err(e), Err(reference)) => assert_eq!(e, reference, "{label}"),
                (got, want) => panic!("{label}: got {:?}, want {want:?}", got.map(|_| ())),
            }
        };
        let strings = |width: usize, count: usize| -> Vec<Value> {
            PatternSet::random(width, count, (7 * width + count) as u64)
                .iter()
                .map(|p| Value::Str(pattern_to_string(&p)))
                .collect()
        };
        for width in [1usize, 9, 64, 214] {
            for count in [0usize, 1, 63, 64, 65, 129, 512] {
                check(strings(width, count), width, &format!("width {width}, {count} vectors"));
            }
        }
        let bad_byte = Value::Str(format!("{}x", "0".repeat(213)));
        let bad_width = Value::Str("1".repeat(215));
        let bad_utf8 = Value::Str(format!("é{}", "1".repeat(212)));
        for at in [0usize, 64, 128] {
            for bad in [&bad_byte, &bad_width, &bad_utf8, &Value::Int(1), &Value::Null] {
                let mut list = strings(214, 129);
                list[at] = bad.clone();
                check(list, 214, &format!("{bad} at {at}"));
            }
        }
        // Two bad entries: the first one is named, whichever way each is
        // bad.
        for (first, second) in [
            (&bad_byte, &Value::Int(1)),
            (&Value::Int(1), &bad_byte),
            (&bad_width, &Value::Null),
            (&Value::Null, &bad_width),
            (&bad_width, &bad_byte),
        ] {
            for (a, b) in [(5usize, 100usize), (70, 71)] {
                let mut list = strings(214, 129);
                list[a] = first.clone();
                list[b] = second.clone();
                check(list, 214, &format!("{first} at {a}, {second} at {b}"));
            }
        }
    }

    #[test]
    fn ordering_labels_parse() {
        let req = json::parse(r#"{"ordering": "0dynm"}"#).unwrap();
        assert_eq!(parse_ordering(&req).unwrap(), FaultOrdering::Dynamic0);
        let bad = json::parse(r#"{"ordering": "bogus"}"#).unwrap();
        assert!(parse_ordering(&bad).is_err());
        let absent = json::parse("{}").unwrap();
        assert_eq!(parse_ordering(&absent).unwrap(), FaultOrdering::Original);
    }

    #[test]
    fn testgen_config_parses_and_validates() {
        let req = json::parse(r#"{"atpg": {"backtrack_limit": 50, "fill": "zeros"}}"#).unwrap();
        let cfg = parse_testgen_config(&req).unwrap();
        assert_eq!(cfg.podem.backtrack_limit, 50);
        assert_eq!(cfg.fill, FillStrategy::Zeros);
        // The retired `drop_loop` selector is ignored like any unknown
        // field.
        let stale = json::parse(
            r#"{"atpg": {"backtrack_limit": 50, "fill": "zeros", "drop_loop": "scalar"}}"#,
        )
        .unwrap();
        assert_eq!(parse_testgen_config(&stale).unwrap(), cfg);
        let bad = json::parse(r#"{"atpg": {"fill": "sideways"}}"#).unwrap();
        assert!(parse_testgen_config(&bad).is_err());
    }

    #[test]
    fn adi_config_parses_and_validates() {
        let req = json::parse(r#"{"adi": {"estimator": "mean", "n_detect_cap": 4}}"#).unwrap();
        let cfg = parse_adi_config(&req).unwrap();
        assert_eq!(cfg.estimator, AdiEstimator::MeanNdet);
        assert_eq!(cfg.n_detect_cap, Some(4));
        let absent = json::parse("{}").unwrap();
        assert_eq!(parse_adi_config(&absent).unwrap(), AdiConfig::default());
        let bad = json::parse(r#"{"adi": {"n_detect_cap": 0}}"#).unwrap();
        assert!(parse_adi_config(&bad).is_err());
    }

    #[test]
    fn width_and_threads_parse() {
        // The performance fields are accepted and ignored like any
        // unknown field, whatever their values: the parsed config equals
        // the one without them.
        let base = json::parse(r#"{"atpg": {"backtrack_limit": 50, "fill": "zeros"}}"#).unwrap();
        let cfg = parse_testgen_config(&base).unwrap();
        for ignored in [
            r#""width": 2, "threads": 3, "atpg_threads": 2, "speculation_depth": 8"#,
            r#""width": 5, "threads": "many", "atpg_threads": -1, "speculation_depth": 0"#,
            r#""threads": 20000, "atpg_threads": 20000"#,
        ] {
            let stale = json::parse(&format!(
                r#"{{"atpg": {{"backtrack_limit": 50, "fill": "zeros", {ignored}}}}}"#
            ))
            .unwrap();
            assert_eq!(parse_testgen_config(&stale).unwrap(), cfg, "{ignored}");
        }
        let only = r#"{"atpg": {"width": 1, "threads": 4, "atpg_threads": 4}}"#;
        let only = json::parse(only).unwrap();
        assert_eq!(parse_testgen_config(&only).unwrap(), TestGenConfig::default());

        let base = json::parse(r#"{"adi": {"estimator": "mean", "n_detect_cap": 4}}"#).unwrap();
        let cfg = parse_adi_config(&base).unwrap();
        for ignored in [
            r#""width": 8, "threads": 2"#,
            r#""width": 3, "threads": 20000"#,
            r#""width": "wide", "threads": -1"#,
        ] {
            let stale = json::parse(&format!(
                r#"{{"adi": {{"estimator": "mean", "n_detect_cap": 4, {ignored}}}}}"#
            ))
            .unwrap();
            assert_eq!(parse_adi_config(&stale).unwrap(), cfg, "{ignored}");
        }
        let only = json::parse(r#"{"adi": {"width": 8, "threads": 2}}"#).unwrap();
        assert_eq!(parse_adi_config(&only).unwrap(), AdiConfig::default());
    }

    #[test]
    fn nested_field_errors_name_the_dotted_path() {
        // Every field read inside `random`, `atpg`, `adi` and `u`, given
        // a value of the wrong type, with the parser that reads it.
        type Parse = fn(&Value) -> Result<(), RequestError>;
        let random: Parse = |r| parse_pattern_spec(r, 4).map(drop);
        let atpg: Parse = |r| parse_testgen_config(r).map(drop);
        let adi: Parse = |r| parse_adi_config(r).map(drop);
        let u: Parse = |r| parse_uset_config(r, 30).map(drop);
        let cases: [(&str, &str, &str, Parse); 14] = [
            ("random", "count", r#""x""#, random),
            ("random", "seed", "-1", random),
            ("atpg", "backtrack_limit", "1.5", atpg),
            ("atpg", "sat_fallback", "7", atpg),
            ("atpg", "sat_conflict_limit", "true", atpg),
            ("atpg", "fill", "[]", atpg),
            ("atpg", "fill_seed", "-1", atpg),
            ("adi", "estimator", "0", adi),
            ("adi", "n_detect_cap", r#""x""#, adi),
            ("u", "max_vectors", r#""x""#, u),
            ("u", "target_coverage", r#""x""#, u),
            ("u", "seed", "-1", u),
            ("u", "exhaustive_threshold", "{}", u),
            ("u", "strip_useless", "1", u),
        ];
        for (object, field, value, parse) in cases {
            let req = json::parse(&format!(r#"{{"{object}": {{"{field}": {value}}}}}"#)).unwrap();
            let err = parse(&req).expect_err("a wrong-typed value is a request error").0;
            let path = format!("`{object}.{field}`");
            assert!(err.contains(&path), "{object}.{field} = {value}: {err}");
        }
        // The two `seed`s no longer read alike.
        let u_seed = parse_uset_config(&json::parse(r#"{"u": {"seed": -1}}"#).unwrap(), 30);
        let random_seed = parse_pattern_spec(&json::parse(r#"{"random": {"seed": -1}}"#).unwrap(), 4);
        assert_ne!(u_seed.err().unwrap().0, random_seed.err().unwrap().0);
        // Unknown values of the string fields name their path too.
        let unknown = parse_testgen_config(&json::parse(r#"{"atpg": {"fill": "sideways"}}"#).unwrap());
        assert!(unknown.unwrap_err().0.contains("atpg.fill"));
    }

    #[test]
    fn ndetect_n_is_checked_at_parse() {
        // A 214-input circuit and the largest random set: were the set
        // built before `n` is checked, each refusal would generate
        // 2^20 vectors first. The parser builds no vectors at all.
        let store = CircuitStore::new(crate::StoreConfig::default());
        let mut bench = String::new();
        for i in 0..214 {
            bench.push_str(&format!("INPUT(i{i})\n"));
        }
        bench.push_str("OUTPUT(y)\ny = XOR(");
        bench.push_str(&(0..214).map(|i| format!("i{i}")).collect::<Vec<_>>().join(", "));
        bench.push_str(")\n");
        let bench = Value::Str(bench).to_string();
        let random = format!(r#""random": {{"count": {MAX_PATTERNS}}}"#);
        for n in ["", r#", "n": 0"#, r#", "n": 4294967296"#] {
            let line = format!(r#"{{"op": "ndetect", "bench": {bench}, {random}{n}}}"#);
            let req = json::parse(&line).unwrap();
            let err = parse_request("ndetect", &req, &store).err().expect("`n` is refused");
            assert_eq!(err.0, "`n` must be a positive integer", "n = {n:?}");
        }
        let line = format!(r#"{{"op": "ndetect", "bench": {bench}, {random}, "n": 4294967295}}"#);
        let Ok(Request::Scenario(Scenario::Ndetect(nd))) =
            parse_request("ndetect", &json::parse(&line).unwrap(), &store)
        else {
            panic!("`n` = 2^32 - 1 parses");
        };
        assert_eq!(nd.n, u32::MAX);
        assert!(matches!(nd.vectors, Some(PatternSpec::Random { count: MAX_PATTERNS, .. })));
    }

    #[test]
    fn exhaustive_width_is_guarded() {
        let req = json::parse(r#"{"exhaustive": true}"#).unwrap();
        assert!(parse_pattern_spec(&req, 10).is_ok());
        assert!(parse_pattern_spec(&req, 64).is_err());
        // A `U` selection would enumerate every input below its
        // threshold: a large one is fine up to the same 20-input limit.
        let u = json::parse(r#"{"u": {"exhaustive_threshold": 64}}"#).unwrap();
        assert_eq!(parse_uset_config(&u, 20).unwrap().exhaustive_threshold, 64);
        assert!(parse_uset_config(&u, 21).is_err());
        assert!(parse_uset_config(&u, 65).is_ok(), "below the threshold: random vectors");
    }

    #[test]
    fn envelope_shapes() {
        let id = Value::Int(9);
        let mut r = Object::new();
        r.insert("x", 1i64);
        assert_eq!(
            ok_response(Some(&id), r).to_string(),
            r#"{"id":9,"ok":true,"result":{"x":1}}"#
        );
        assert_eq!(
            error_response(None, "nope").to_string(),
            r#"{"ok":false,"error":"nope"}"#
        );
    }
}
