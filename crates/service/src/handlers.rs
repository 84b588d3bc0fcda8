//! The request handlers: each endpoint is a thin adapter from a parsed
//! request onto the library's compiled-circuit session APIs.
//!
//! A request is parsed once (the `service.resolve` span) into a typed
//! request whose circuit is resolved through the shared
//! [`CircuitStore`], so any number of scenario requests against the same
//! structure reuse one compilation — a cache-hit request performs
//! **zero** levelizations (asserted by the endpoint test suite via
//! [`LevelizedCsr::build_count`](adi_netlist::LevelizedCsr::build_count)).
//!
//! On top of the circuit store sits the [`ScenarioCache`]: the pure
//! endpoints (`coverage`, `adi`, `atpg`, `ndetect`, `reorder`,
//! `equiv`) are keyed by the hash of their parsed, *resolved* request —
//! circuit hash, decoded pattern words or generator parameters, every
//! config field after defaulting — the same value the executor runs.
//! Repeats are served from the cached serialized result, spliced
//! byte-identically around the caller's own `id` (the fingerprint, the
//! lookup and the splice are the `service.cache` span). A request opts out
//! with `"cache": "bypass"`. Cached `atpg` responses replay the
//! populating run's wall-clock `timing` fields verbatim (every other
//! field is deterministic).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use adi_atpg::{EquivVerdict, TestGenerator};
use adi_obs::{Field, Level, SpanSite, TraceGuard};
use adi_core::metrics::average_detection_position;
use adi_core::reorder::{reorder_tests_for, reverse_order_compaction_for};
use adi_core::uset::select_u_for;
use adi_core::{order_faults, AdiAnalysis};
use adi_netlist::CompiledCircuit;
use adi_sim::{FaultSimulator, PatternSet};
use json::{Object, Value};

use crate::protocol::{
    error_response, invalid_json_response, opt_bool, opt_str, parse_request, pattern_to_string,
    Adi, Atpg, Coverage, Equiv, Ndetect, PatternSpec, Reorder, Request, RequestError,
    RequestResult, Scenario, Target, Vectors,
};
use crate::scenario::{panic_message, Fingerprint, ScenarioCache, ScenarioConfig, ScenarioOutcome};
use crate::store::{CacheOutcome, CircuitStore, StoreConfig};

/// Everything a request needs to be answered: the circuit cache (and,
/// through it, every per-circuit artifact).
///
/// The state is shared (`&self`) across worker threads; all mutability
/// lives behind the store's shard locks.
///
/// # Examples
///
/// ```
/// use adi_service::{ServiceState, StoreConfig};
///
/// let state = ServiceState::new(StoreConfig::default());
/// let response = state.handle_line(
///     r#"{"id": 1, "op": "compile", "bench": "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}"#,
/// );
/// let v = json::parse(&response).unwrap();
/// assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
/// let hash = v.get("result").unwrap().get("hash").unwrap().as_str().unwrap();
/// assert_eq!(hash.len(), 32);
/// ```
pub struct ServiceState {
    store: CircuitStore,
    scenario: ScenarioCache,
    metrics: ServiceMetrics,
}

/// Transport-level counters surfaced by the `stats` endpoint. The
/// serving loops feed these; the handlers only read them.
#[derive(Default)]
pub(crate) struct ServiceMetrics {
    /// Requests refused by admission control.
    pub(crate) shed: AtomicU64,
    /// Requests currently queued or executing.
    pub(crate) in_flight: AtomicU64,
    /// Configured worker threads (0 until a transport configures it).
    pub(crate) workers: AtomicU64,
    /// Configured pool queue depth.
    pub(crate) queue_depth: AtomicU64,
    /// Configured per-connection in-flight admission cap.
    pub(crate) max_inflight: AtomicU64,
    /// Live backlog of the serving transport's worker pool (attached by
    /// the transport; `None` for in-process use without a pool).
    queued: Mutex<Option<Arc<AtomicU64>>>,
}

impl ServiceMetrics {
    /// Records the transport's sizing so `stats` can report it.
    pub(crate) fn configure(&self, workers: usize, queue_depth: usize, max_inflight: usize) {
        self.workers.store(workers as u64, Ordering::Relaxed);
        self.queue_depth.store(queue_depth as u64, Ordering::Relaxed);
        self.max_inflight.store(max_inflight as u64, Ordering::Relaxed);
    }

    /// Wires the transport's pool backlog into `stats`/`metrics`.
    pub(crate) fn attach_queue(&self, handle: Arc<AtomicU64>) {
        *self.queued.lock().expect("queue handle") = Some(handle);
    }

    /// Jobs accepted by the transport's pool but not yet started.
    pub(crate) fn queued(&self) -> u64 {
        self.queued
            .lock()
            .expect("queue handle")
            .as_ref()
            .map_or(0, |q| q.load(Ordering::SeqCst))
    }
}

/// Resolve/cache/execute/serialize split of every request (the queue
/// wait before it is measured by the transport and passed into
/// [`ServiceState::respond_queued`]).
static SPAN_RESOLVE: SpanSite = SpanSite::new("service.resolve");
static SPAN_CACHE: SpanSite = SpanSite::new("service.cache");
static SPAN_EXECUTE: SpanSite = SpanSite::new("service.execute");
static SPAN_SERIALIZE: SpanSite = SpanSite::new("service.serialize");

/// Request-level metric handles, resolved once (the registry lock is
/// off the per-request path).
struct RequestMetrics {
    requests: Arc<adi_obs::Counter>,
    errors: Arc<adi_obs::Counter>,
    latency: Arc<adi_obs::Histogram>,
    queue_wait: Arc<adi_obs::Histogram>,
}

fn request_metrics() -> &'static RequestMetrics {
    static METRICS: OnceLock<RequestMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = adi_obs::registry();
        RequestMetrics {
            requests: r.counter("adi_requests_total"),
            errors: r.counter("adi_request_errors_total"),
            latency: r.histogram("adi_request_ns"),
            queue_wait: r.histogram("adi_request_queue_wait_ns"),
        }
    })
}

/// One answered request: the serialized response line plus the labels
/// the logging/tracing wrapper reports.
struct Answered {
    body: String,
    ok: bool,
    /// Scenario-cache outcome: `hit`, `miss`, `coalesced`, `bypass`,
    /// `uncached` (op not cacheable), or `error`.
    cache: &'static str,
}

impl ServiceState {
    /// Creates a state with an empty circuit cache and a
    /// default-budgeted scenario cache.
    pub fn new(store: StoreConfig) -> Self {
        Self::with_scenario(store, ScenarioConfig::default())
    }

    /// Creates a state with explicit circuit-store and scenario-cache
    /// configurations (`ScenarioConfig::disabled()` switches result
    /// caching off).
    pub fn with_scenario(store: StoreConfig, scenario: ScenarioConfig) -> Self {
        ServiceState {
            store: CircuitStore::new(store),
            scenario: ScenarioCache::new(scenario),
            metrics: ServiceMetrics::default(),
        }
    }

    /// The underlying circuit cache.
    pub fn store(&self) -> &CircuitStore {
        &self.store
    }

    /// The scenario-result cache.
    pub fn scenario(&self) -> &ScenarioCache {
        &self.scenario
    }

    /// The transport counters (fed by the serving loops).
    pub(crate) fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Answers one request line with one response line (no trailing
    /// newline). Never panics: malformed JSON, unknown ops, and handler
    /// panics all become `"ok": false` responses.
    pub fn handle_line(&self, line: &str) -> String {
        let parsed = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return invalid_json_response(&e).to_string(),
        };
        self.respond(&parsed)
    }

    /// Answers one parsed request with the serialized response line.
    /// See [`handle_line`](Self::handle_line).
    pub fn respond(&self, request: &Value) -> String {
        self.respond_inner(request, None)
    }

    /// Like [`respond`](Self::respond), for transports that queued the
    /// request first: `queue_wait_ns` (submit-to-start wait measured by
    /// the transport) is recorded in the `adi_request_queue_wait_ns`
    /// histogram and reported in the request's log line and trace.
    pub fn respond_queued(&self, request: &Value, queue_wait_ns: u64) -> String {
        self.respond_inner(request, Some(queue_wait_ns))
    }

    fn respond_inner(&self, request: &Value, queue_wait_ns: Option<u64>) -> String {
        let started = Instant::now();
        let id = request.get("id");
        if request.as_object().is_none() {
            let a = answered_error(id, "request must be a JSON object");
            return self.finish_request("invalid", queue_wait_ns, started, None, a);
        }
        let op = match request.get("op").and_then(Value::as_str) {
            Some(op) => op,
            None => {
                let a = answered_error(id, "request needs a string `op` field");
                return self.finish_request("invalid", queue_wait_ns, started, None, a);
            }
        };
        let want_trace = match opt_bool(request, "trace", false) {
            Ok(b) => b,
            Err(e) => {
                return self.finish_request(op, queue_wait_ns, started, None, answered_error(id, &e.0))
            }
        };
        // The guard lives outside the catch_unwind: spans opened by a
        // panicking handler close during the unwind, so the trace (and
        // the span stack) stay consistent even on an internal error.
        let trace_guard = want_trace.then(adi_obs::start_trace);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.answer(op, id, request)));
        let answered = match outcome {
            Ok(a) => a,
            Err(panic) => answered_error(id, &format!("internal error: {}", panic_message(&*panic))),
        };
        let trace = trace_guard.map(TraceGuard::finish);
        self.finish_request(op, queue_wait_ns, started, trace, answered)
    }

    /// Records the request's metrics and log line, and attaches the
    /// trace (as the **last** envelope field, so the `result` payload
    /// bytes are unchanged by tracing).
    fn finish_request(
        &self,
        op: &str,
        queue_wait_ns: Option<u64>,
        started: Instant,
        trace: Option<adi_obs::Trace>,
        answered: Answered,
    ) -> String {
        let total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if adi_obs::is_enabled() {
            let m = request_metrics();
            m.requests.inc();
            if !answered.ok {
                m.errors.inc();
            }
            m.latency.record(total_ns);
            if let Some(wait) = queue_wait_ns {
                m.queue_wait.record(wait);
            }
        }
        if adi_obs::log_enabled(Level::Info) {
            adi_obs::log(
                Level::Info,
                "adi_service",
                "request",
                &[
                    ("op", Field::Str(op)),
                    ("ok", Field::Bool(answered.ok)),
                    ("cache", Field::Str(answered.cache)),
                    ("ns", Field::U64(total_ns)),
                    ("queue_wait_ns", Field::U64(queue_wait_ns.unwrap_or(0))),
                ],
            );
        }
        let mut body = answered.body;
        if let Some(trace) = trace {
            debug_assert!(body.ends_with('}'));
            body.pop();
            body.push_str(",\"trace\":");
            body.push_str(&render_trace_json(op, queue_wait_ns, total_ns, answered.cache, &trace));
            body.push('}');
        }
        body
    }

    /// Routes one validated request: parses it (resolving its circuits)
    /// once, then runs a scenario through the scenario cache (unless
    /// disabled or bypassed) and everything else directly.
    fn answer(&self, op: &str, id: Option<&Value>, req: &Value) -> Answered {
        let use_cache = match opt_str(req, "cache", "use") {
            Ok("use") => true,
            Ok("bypass") => false,
            Ok(other) => {
                let msg = format!("unknown cache mode `{other}` (expected use or bypass)");
                return answered_error(id, &msg);
            }
            Err(e) => return answered_error(id, &e.0),
        };
        let parsed = {
            let _span = SPAN_RESOLVE.enter();
            parse_request(op, req, &self.store)
        };
        let request = match parsed {
            Ok(request) => request,
            Err(e) => return answered_error(id, &e.0),
        };
        // `service.cache` times the fingerprint, the lookup and the
        // splice. A miss closes it before computing, so the execute and
        // serialize spans stay beside it in the trace, not under it.
        let mut cache_span = None;
        let (payload, cache) = match request {
            Request::Scenario(scenario) if use_cache && !self.scenario.is_disabled() => {
                cache_span = Some(SPAN_CACHE.enter());
                let fp = Fingerprint::of(&scenario);
                let (payload, outcome) = self.scenario.get_or_compute(fp, || {
                    cache_span = None;
                    self.compute_payload(Request::Scenario(scenario))
                });
                (payload, cache_label(outcome))
            }
            request => {
                let bypass = !use_cache && matches!(request, Request::Scenario(_));
                if bypass {
                    self.scenario.note_bypass();
                }
                let payload = self.compute_payload(request).map(Arc::new);
                (payload, if bypass { "bypass" } else { "uncached" })
            }
        };
        let answered = match payload {
            Ok(payload) => Answered {
                body: spliced_ok(id, &payload),
                ok: true,
                cache,
            },
            Err(e) => answered_error(id, &e.0),
        };
        drop(cache_span);
        answered
    }

    /// Executes one request and serializes its result payload, under
    /// the execute/serialize spans. Both the cached and the direct path
    /// produce their payload here, so a response's `result` bytes are
    /// identical whichever path served it.
    fn compute_payload(&self, request: Request) -> RequestResult<String> {
        let result = {
            let _span = SPAN_EXECUTE.enter();
            self.execute(request)?
        };
        let _span = SPAN_SERIALIZE.enter();
        Ok(Value::Object(result).to_string())
    }

    fn execute(&self, request: Request) -> RequestResult<Object> {
        Ok(match request {
            Request::Compile(circuit, outcome) => self.op_compile(&circuit, outcome),
            Request::Scenario(Scenario::Coverage(c)) => op_coverage(c)?,
            Request::Scenario(Scenario::Ndetect(n)) => op_ndetect(n)?,
            Request::Scenario(Scenario::Adi(a)) => op_adi(a),
            Request::Scenario(Scenario::Atpg(a)) => op_atpg(a),
            Request::Scenario(Scenario::Reorder(r)) => op_reorder(r)?,
            Request::Scenario(Scenario::Equiv(e)) => op_equiv(e)?,
            Request::Ping => self.op_ping(),
            Request::Stats => self.op_stats(),
            Request::Metrics { json } => self.op_metrics(json),
            Request::Shutdown => [("stopping", true)].into_iter().collect(),
        })
    }

    fn op_compile(&self, circuit: &CompiledCircuit, outcome: CacheOutcome) -> Object {
        let netlist = circuit.netlist();
        let mut o = Object::new();
        o.insert("hash", circuit.content_hash().to_hex());
        o.insert("name", netlist.name());
        o.insert("nodes", netlist.num_nodes());
        o.insert("inputs", netlist.num_inputs());
        o.insert("outputs", netlist.num_outputs());
        o.insert("gates", netlist.num_gates());
        o.insert("max_level", netlist.max_level());
        o.insert("collapsed_faults", circuit.collapsed_faults().len());
        o.insert("cached", outcome != CacheOutcome::Miss);
        o.insert("store", store_stats_object(&self.store));
        o
    }

    fn op_ping(&self) -> Object {
        let mut o = Object::new();
        o.insert("pong", true);
        o.insert("version", env!("CARGO_PKG_VERSION"));
        o
    }

    /// The observability endpoint: transport admission counters, the
    /// circuit store, and the scenario cache in one snapshot.
    fn op_stats(&self) -> Object {
        let mut o = Object::new();
        let mut svc = Object::new();
        svc.insert("shed", self.metrics.shed.load(Ordering::Relaxed));
        svc.insert("in_flight", self.metrics.in_flight.load(Ordering::Relaxed));
        svc.insert("queued", self.metrics.queued());
        svc.insert("workers", self.metrics.workers.load(Ordering::Relaxed));
        svc.insert("queue_depth", self.metrics.queue_depth.load(Ordering::Relaxed));
        svc.insert("max_inflight", self.metrics.max_inflight.load(Ordering::Relaxed));
        o.insert("service", svc);
        o.insert("store", store_stats_object(&self.store));
        let s = self.scenario.stats();
        let mut sc = Object::new();
        sc.insert("hits", s.hits);
        sc.insert("misses", s.misses);
        sc.insert("coalesced", s.coalesced);
        sc.insert("bypassed", s.bypassed);
        sc.insert("evictions", s.evictions);
        sc.insert("entries", s.entries);
        sc.insert("bytes", s.bytes);
        sc.insert("budget_bytes", s.budget_bytes);
        o.insert("scenario", sc);
        o
    }

    /// The metrics endpoint: refreshes the registry's gauges from live
    /// service state, then renders every metric — Prometheus exposition
    /// text by default, or structured JSON with `"format": "json"`.
    fn op_metrics(&self, json: bool) -> Object {
        self.refresh_gauges();
        let mut o = Object::new();
        o.insert("enabled", adi_obs::is_enabled());
        if json {
            let mut hists = Object::new();
            for (name, s) in adi_obs::registry().histogram_snapshots() {
                let mut h = Object::new();
                h.insert("count", s.count);
                h.insert("sum", s.sum);
                h.insert("max", s.max);
                h.insert("p50", s.p50);
                h.insert("p90", s.p90);
                h.insert("p99", s.p99);
                h.insert("p999", s.p999);
                hists.insert(name, Value::Object(h));
            }
            o.insert("histograms", hists);
            let mut scalars = Object::new();
            for (name, value, _is_counter) in adi_obs::registry().scalar_values() {
                scalars.insert(name, value);
            }
            o.insert("scalars", scalars);
        } else {
            o.insert("text", adi_obs::registry().render_prometheus());
        }
        o
    }

    /// Pushes the live transport/store/scenario state into the
    /// registry's gauges, so a scrape sees current values no matter how
    /// long ago the instrumented code last touched them.
    fn refresh_gauges(&self) {
        let r = adi_obs::registry();
        r.gauge("adi_worker_queue_depth").set(self.metrics.queued());
        r.gauge("adi_inflight_requests")
            .set(self.metrics.in_flight.load(Ordering::Relaxed));
        r.gauge("adi_workers").set(self.metrics.workers.load(Ordering::Relaxed));
        r.gauge("adi_max_inflight")
            .set(self.metrics.max_inflight.load(Ordering::Relaxed));
        r.gauge("adi_shed_requests").set(self.metrics.shed.load(Ordering::Relaxed));
        let s = self.store.stats();
        r.gauge("adi_store_entries").set(s.entries as u64);
        r.gauge("adi_store_bytes").set(s.bytes as u64);
        r.gauge("adi_store_hits").set(s.hits);
        r.gauge("adi_store_misses").set(s.misses);
        let s = self.scenario.stats();
        r.gauge("adi_scenario_entries").set(s.entries as u64);
        r.gauge("adi_scenario_bytes").set(s.bytes as u64);
        r.gauge("adi_scenario_hits").set(s.hits);
        r.gauge("adi_scenario_misses").set(s.misses);
    }
}

/// The vectors of an endpoint that has no default set.
fn required_vectors(vectors: Option<PatternSpec>, target: &Target) -> RequestResult<PatternSet> {
    vectors.map(|spec| spec.into_set(target.num_inputs())).ok_or_else(|| {
        RequestError::new("vectors required: provide `patterns`, `random`, or `exhaustive`")
    })
}

/// A JSON array of `items`.
fn array<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
    Value::Array(items.into_iter().map(Into::into).collect())
}

/// Fault coverage of a vector set. Only `include_detail`'s
/// `new_detections` asks which vector detects a fault first, so only it
/// runs the first-detection simulation; a count needs one detection per
/// fault.
fn op_coverage(c: Coverage) -> RequestResult<Object> {
    let faults = c.target.faults();
    let patterns = required_vectors(c.vectors, &c.target)?;
    let sim = FaultSimulator::for_circuit(&c.target.circuit, faults);
    let (num_detected, coverage, new_detections) = if c.include_detail {
        let drop = sim.with_dropping(&patterns);
        let news = drop.new_detections(patterns.len());
        (drop.num_detected(), drop.coverage(), Some(news))
    } else {
        let once = sim.n_detect(&patterns, 1);
        (once.num_detected(), once.coverage(), None)
    };
    let mut o = Object::new();
    o.insert("hash", c.target.circuit.content_hash().to_hex());
    o.insert("num_patterns", patterns.len());
    o.insert("num_faults", faults.len());
    o.insert("num_detected", num_detected);
    o.insert("coverage", coverage);
    if let Some(news) = new_detections {
        o.insert("new_detections", array(news));
    }
    Ok(o)
}

/// The ADI analysis over a vector set (given, or the paper's `U`
/// selection), plus an optional fault ordering built from it.
fn op_adi(a: Adi) -> Object {
    let mut o = Object::new();
    o.insert("hash", a.target.circuit.content_hash().to_hex());
    let faults = a.target.faults();
    let patterns = match a.vectors {
        Vectors::Given(spec) => spec.into_set(a.target.num_inputs()),
        Vectors::Select(config) => {
            let selection = select_u_for(&a.target.circuit, faults, config);
            o.insert("u_coverage", selection.coverage);
            o.insert("u_exhaustive", selection.exhaustive);
            selection.patterns
        }
    };
    o.insert("u_size", patterns.len());
    let analysis = AdiAnalysis::for_circuit(&a.target.circuit, faults, &patterns, a.config);
    let summary = analysis.summary();
    let mut s = Object::new();
    s.insert("min", summary.min);
    s.insert("max", summary.max);
    s.insert("ratio", summary.ratio);
    s.insert("detected", summary.detected);
    s.insert("total", summary.total);
    o.insert("adi", s);
    if a.include_values {
        o.insert("values", array(analysis.adi_values().iter().copied()));
    }
    if let Some(ordering) = a.ordering {
        let order = order_faults(&analysis, ordering);
        o.insert("ordering", ordering.label());
        o.insert("order", array(order.into_iter().map(|f| f.index())));
    }
    o
}

/// Ordered test generation: builds the requested fault order (via the
/// ADI analysis unless the order is `orig`) and runs the paper's
/// dropping ATPG with the per-request [`TestGenConfig`].
///
/// [`TestGenConfig`]: adi_atpg::TestGenConfig
fn op_atpg(a: Atpg) -> Object {
    let faults = a.target.faults();
    let mut o = Object::new();
    o.insert("hash", a.target.circuit.content_hash().to_hex());
    o.insert("ordering", a.ordering.label());
    let order = match a.analysis {
        None => faults.ids().collect(),
        Some((vectors, config)) => {
            let patterns = match vectors {
                Vectors::Given(spec) => spec.into_set(a.target.num_inputs()),
                Vectors::Select(config) => {
                    let selection = select_u_for(&a.target.circuit, faults, config);
                    o.insert("u_coverage", selection.coverage);
                    selection.patterns
                }
            };
            o.insert("u_size", patterns.len());
            let analysis = AdiAnalysis::for_circuit(&a.target.circuit, faults, &patterns, config);
            order_faults(&analysis, a.ordering)
        }
    };
    let result = TestGenerator::for_circuit(&a.target.circuit, faults, a.config).run(&order);
    o.insert("num_faults", faults.len());
    o.insert("num_tests", result.num_tests());
    o.insert("num_detected", result.num_detected());
    o.insert("num_redundant", result.num_redundant());
    o.insert("num_aborted", result.num_aborted());
    o.insert("coverage", result.coverage());
    o.insert("efficiency", result.efficiency());
    o.insert("ave", average_detection_position(&result.coverage_curve()));
    // Phase timings and speculation diagnostics (wall-clock only —
    // every other response field is independent of thread counts).
    let summary = result.summary();
    let mut t = Object::new();
    t.insert("generate_ns", summary.generate_ns);
    t.insert("drop_ns", summary.drop_ns);
    t.insert("commit_wait_ns", summary.commit_wait_ns);
    o.insert("timing", t);
    o.insert("wasted_speculations", summary.wasted_speculations);
    // SAT-fallback diagnostics: how many targets hit the full backtrack
    // limit, and what the solver made of them. `num_aborted` above
    // counts only the faults that stayed unresolved. Targets the
    // redundancy screen settled never reached that limit and are
    // counted apart, by the screen's verdict.
    o.insert("aborted_faults", summary.aborted_faults);
    let mut sr = Object::new();
    sr.insert("redundant", summary.sat_resolved.redundant);
    sr.insert("testable", summary.sat_resolved.testable);
    sr.insert("undecided", summary.sat_resolved.undecided);
    o.insert("sat_resolved", sr);
    o.insert("screen_redundant", result.podem_stats.screen_redundant);
    o.insert("screen_testable", result.podem_stats.screen_testable);
    if a.include_tests {
        o.insert("tests", array(result.tests.iter().map(pattern_to_string)));
        o.insert("targets", array(result.targets.iter().map(|f| f.index())));
    }
    if a.include_detail {
        o.insert("new_detections", array(result.new_detections.iter().copied()));
    }
    o
}

/// Bounded equivalence checking: a full-circuit miter between two
/// cached/compiled circuits, decided by the vendored CDCL solver.
/// Interfaces are matched by declaration order; the distinguishing
/// witness (when one exists) comes back as a protocol bit string.
fn op_equiv(e: Equiv) -> RequestResult<Object> {
    let verdict = adi_atpg::cnf::check_equiv(&e.left, &e.right, e.conflict_limit)
        .map_err(|e| RequestError::new(e.to_string()))?;
    let mut o = Object::new();
    o.insert("left_hash", e.left.content_hash().to_hex());
    o.insert("right_hash", e.right.content_hash().to_hex());
    o.insert("inputs", e.left.netlist().num_inputs());
    o.insert("outputs", e.left.netlist().num_outputs());
    match verdict {
        EquivVerdict::Equivalent => {
            o.insert("verdict", "equivalent");
        }
        EquivVerdict::Inequivalent(witness) => {
            o.insert("verdict", "inequivalent");
            o.insert(
                "witness",
                witness.iter().map(|&b| if b { '1' } else { '0' }).collect::<String>(),
            );
        }
        EquivVerdict::Undecided => {
            o.insert("verdict", "undecided");
        }
    }
    Ok(o)
}

/// The n-detection matrix: per-fault detection counts saturated at
/// `n`, the companion-paper workload.
fn op_ndetect(nd: Ndetect) -> RequestResult<Object> {
    let faults = nd.target.faults();
    let patterns = required_vectors(nd.vectors, &nd.target)?;
    let outcome = FaultSimulator::for_circuit(&nd.target.circuit, faults).n_detect(&patterns, nd.n);
    let mut o = Object::new();
    o.insert("hash", nd.target.circuit.content_hash().to_hex());
    o.insert("n", nd.n);
    o.insert("num_patterns", patterns.len());
    o.insert("num_faults", faults.len());
    o.insert("num_detected", outcome.num_detected());
    o.insert("num_saturated", outcome.num_saturated());
    o.insert("counts", array(outcome.counts.iter().copied()));
    Ok(o)
}

/// Post-generation test-set transforms: `"mode": "steepest"` (the
/// greedy reordering baseline) or `"mode": "compact"` (reverse-order
/// static compaction).
fn op_reorder(r: Reorder) -> RequestResult<Object> {
    let faults = r.target.faults();
    let Some(PatternSpec::Explicit(tests)) = r.tests else {
        return Err(RequestError::new("`reorder` requires an explicit `patterns` test list"));
    };
    let mut o = Object::new();
    o.insert("hash", r.target.circuit.content_hash().to_hex());
    o.insert("num_tests", tests.len());
    o.insert("num_faults", faults.len());
    match r.mode.as_str() {
        "steepest" => {
            let reordered = reorder_tests_for(&r.target.circuit, faults, &tests);
            o.insert("mode", "steepest");
            o.insert("final_detected", reordered.curve.final_detected());
            o.insert("permutation", array(reordered.permutation));
        }
        "compact" => {
            let kept = reverse_order_compaction_for(&r.target.circuit, faults, &tests);
            o.insert("mode", "compact");
            o.insert("num_kept", kept.len());
            o.insert("kept", array(kept));
        }
        other => {
            return Err(RequestError::new(format!(
                "unknown mode `{other}` (expected steepest or compact)"
            )))
        }
    }
    Ok(o)
}

/// Wraps an error response line with its request labels.
fn answered_error(id: Option<&Value>, message: &str) -> Answered {
    Answered {
        body: error_response(id, message).to_string(),
        ok: false,
        cache: "error",
    }
}

/// The scenario-cache outcome as a request label.
fn cache_label(outcome: ScenarioOutcome) -> &'static str {
    match outcome {
        ScenarioOutcome::Hit => "hit",
        ScenarioOutcome::Miss => "miss",
        ScenarioOutcome::Coalesced => "coalesced",
        ScenarioOutcome::Bypass => "bypass",
    }
}

/// Serializes a finished trace as the `"trace"` envelope field:
/// request-level labels plus the span forest, children nested under
/// their parents in `"spans"` arrays.
fn render_trace_json(
    op: &str,
    queue_wait_ns: Option<u64>,
    total_ns: u64,
    cache: &str,
    trace: &adi_obs::Trace,
) -> String {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); trace.nodes.len()];
    let mut roots = Vec::new();
    for (i, node) in trace.nodes.iter().enumerate() {
        match node.parent {
            Some(p) => children[p as usize].push(i),
            None => roots.push(i),
        }
    }
    fn span_value(trace: &adi_obs::Trace, children: &[Vec<usize>], i: usize) -> Value {
        let node = &trace.nodes[i];
        let mut o = Object::new();
        o.insert("name", node.name);
        o.insert("start_ns", node.start_ns);
        o.insert("dur_ns", node.dur_ns);
        if !children[i].is_empty() {
            o.insert(
                "spans",
                Value::Array(
                    children[i].iter().map(|&c| span_value(trace, children, c)).collect(),
                ),
            );
        }
        Value::Object(o)
    }
    let mut o = Object::new();
    o.insert("op", op);
    o.insert("cache", cache);
    if let Some(wait) = queue_wait_ns {
        o.insert("queue_wait_ns", wait);
    }
    o.insert("total_ns", total_ns);
    o.insert("dropped", trace.dropped);
    o.insert(
        "spans",
        Value::Array(roots.into_iter().map(|r| span_value(trace, &children, r)).collect()),
    );
    Value::Object(o).to_string()
}

/// Splices a cached serialized result into the success envelope,
/// byte-identical to `ok_response(id, result).to_string()`.
fn spliced_ok(id: Option<&Value>, result_json: &str) -> String {
    let mut s = String::with_capacity(result_json.len() + 32);
    s.push('{');
    if let Some(id) = id {
        s.push_str("\"id\":");
        s.push_str(&id.to_string());
        s.push(',');
    }
    s.push_str("\"ok\":true,\"result\":");
    s.push_str(result_json);
    s.push('}');
    s
}

/// The store's counters as a response fragment.
fn store_stats_object(store: &CircuitStore) -> Object {
    let s = store.stats();
    let mut o = Object::new();
    o.insert("hits", s.hits);
    o.insert("misses", s.misses);
    o.insert("coalesced", s.coalesced);
    o.insert("evictions", s.evictions);
    o.insert("entries", s.entries);
    o.insert("capacity", s.capacity);
    o.insert("bytes", s.bytes);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    const INV: &str = "INPUT(a)\\nOUTPUT(y)\\ny = NOT(a)\\n";

    fn state() -> ServiceState {
        ServiceState::new(StoreConfig::default())
    }

    fn ok_result(state: &ServiceState, req: &str) -> Value {
        let v = json::parse(&state.handle_line(req)).unwrap();
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "request failed: {v}"
        );
        v.get("result").unwrap().clone()
    }

    #[test]
    fn malformed_json_is_an_error_response() {
        let s = state();
        let v = json::parse(&s.handle_line("{oops")).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("invalid JSON"));
    }

    #[test]
    fn unknown_op_echoes_the_id() {
        let s = state();
        let v = json::parse(&s.handle_line(r#"{"id": "abc", "op": "frobnicate"}"#)).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("abc"));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn compile_then_hash_addressing() {
        let s = state();
        let r = ok_result(&s, &format!(r#"{{"op": "compile", "bench": "{INV}"}}"#));
        assert_eq!(r.get("cached").and_then(Value::as_bool), Some(false));
        assert_eq!(r.get("nodes").and_then(Value::as_u64), Some(2));
        let hash = r.get("hash").unwrap().as_str().unwrap().to_string();
        let r2 = ok_result(&s, &format!(r#"{{"op": "compile", "hash": "{hash}"}}"#));
        assert_eq!(r2.get("cached").and_then(Value::as_bool), Some(true));
        // An unknown hash is a clean error.
        let bad = format!(r#"{{"op": "compile", "hash": "{}"}}"#, "0".repeat(32));
        let v = json::parse(&s.handle_line(&bad)).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn coverage_exhaustive_inverter() {
        let s = state();
        let r = ok_result(
            &s,
            &format!(r#"{{"op": "coverage", "bench": "{INV}", "exhaustive": true}}"#),
        );
        assert_eq!(r.get("num_patterns").and_then(Value::as_u64), Some(2));
        assert_eq!(r.get("coverage").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn shutdown_and_ping_answer() {
        let s = state();
        // `ping` is a liveness check only; counters live in `stats`.
        let r = ok_result(&s, r#"{"op": "ping"}"#);
        let keys: Vec<&str> = r.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["pong", "version"]);
        assert_eq!(r.get("pong").and_then(Value::as_bool), Some(true));
        let r = ok_result(&s, r#"{"op": "shutdown"}"#);
        assert_eq!(r.get("stopping").and_then(Value::as_bool), Some(true));
    }
}
