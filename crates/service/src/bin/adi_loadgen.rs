//! `adi-loadgen` — load generator for `adi-serve`.
//!
//! ```text
//! adi-loadgen --addr HOST:PORT [--smoke | --open-loop RATE]
//!             [--connections C] [--requests N] [--gates G] [--shutdown]
//! ```
//!
//! Three modes:
//!
//! * `--smoke`: one connection drives every endpoint once (compile by
//!   bench and by hash, coverage, adi, atpg, ndetect, reorder, equiv,
//!   stats, ping), verifies each response, checks a repeated request is
//!   answered byte-identically from the scenario cache, checks a
//!   `"trace": true` repeat extends those exact bytes with a span
//!   tree, asserts a `metrics` scrape parses and carries the request
//!   histograms, sends `shutdown`, and checks the server answers it
//!   and closes the connection. Exit 0 means the whole protocol works
//!   end to end.
//! * closed-loop mode (default): `C` connections each issue `N`
//!   back-to-back requests (a cache-hit `compile`, `coverage`, and
//!   `ndetect` mix against one suite circuit, compiled once up front),
//!   then the tool reports aggregate requests/s and p50/p99 latency.
//! * `--open-loop RATE`: requests are sent on a fixed schedule of
//!   `RATE` req/s regardless of when responses arrive — the
//!   arrival-rate experiment closed loops cannot run, because a slow
//!   server slows a closed-loop client down with it. The workload is an
//!   n-detect sweep (`n` cycling 1..=4, fixed seed) against one suite
//!   circuit, primed once so the steady state exercises the scenario
//!   cache. Latency is measured from each request's *scheduled* send
//!   time, so queueing delay counts. The tool reports offered vs
//!   achieved req/s, the shed count (responses the server's admission
//!   control refused), and p50/p99/p999 latency.
//!
//! `--shutdown` additionally stops the server after a load run.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use adi_circuits::{embedded, paper_suite};
use adi_netlist::bench_format;
use json::Value;

struct Options {
    addr: String,
    smoke: bool,
    open_loop: Option<f64>,
    connections: usize,
    requests: usize,
    gates: usize,
    shutdown: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:4717".to_string(),
            smoke: false,
            open_loop: None,
            connections: 4,
            requests: 200,
            gates: 300,
            shutdown: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| {
            args.next()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{name} requires a positive number"))
        };
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--shutdown" => opts.shutdown = true,
            "--open-loop" => {
                opts.open_loop = Some(
                    args.next()
                        .and_then(|s| s.parse::<f64>().ok())
                        .filter(|&r| r > 0.0 && r.is_finite())
                        .ok_or_else(|| "--open-loop requires a positive rate (req/s)".to_string())?,
                );
            }
            "--addr" => {
                opts.addr = args
                    .next()
                    .ok_or_else(|| "--addr requires an address".to_string())?;
            }
            "--connections" => opts.connections = num("--connections")?,
            "--requests" => opts.requests = num("--requests")?,
            "--gates" => opts.gates = num("--gates")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Sends `request` and its newline in one write.
fn send_line(writer: &mut TcpStream, request: &str) -> Result<(), String> {
    writer
        .write_all(format!("{request}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))
}

/// One client connection: blocking request/response over a line each.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Requests go out as whole lines (see `send_line`) with Nagle
        // off, so no request waits on the server's delayed ACK.
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(120))))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads back the raw response line
    /// (the form that can check byte-identity of cache hits).
    fn roundtrip_raw(&mut self, request: &str) -> Result<String, String> {
        send_line(&mut self.writer, request)?;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends one request line and reads one response line.
    fn roundtrip(&mut self, request: &str) -> Result<Value, String> {
        let line = self.roundtrip_raw(request)?;
        json::parse(&line).map_err(|e| format!("bad response JSON: {e}"))
    }

    /// Round trip that must succeed (`"ok": true`); returns the result.
    fn expect_ok(&mut self, request: &str) -> Result<Value, String> {
        let v = self.roundtrip(request)?;
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("request failed: {request} -> {v}"));
        }
        Ok(v.get("result").cloned().unwrap_or(Value::Null))
    }

    /// Reads until EOF, failing if the server keeps the socket open past
    /// the read timeout. Used by `--smoke` to verify a clean shutdown.
    fn expect_eof(&mut self) -> Result<(), String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(()),
            Ok(_) => Err(format!("unexpected data after shutdown: {line}")),
            Err(e) => Err(format!("waiting for close: {e}")),
        }
    }
}

/// JSON-escapes `text` for embedding as a string field.
fn escaped(text: &str) -> String {
    let v = Value::Str(text.to_string()).to_string();
    v[1..v.len() - 1].to_string()
}

fn field<'a>(result: &'a Value, key: &str) -> Result<&'a Value, String> {
    result.get(key).ok_or_else(|| format!("missing `{key}` in {result}"))
}

/// Drives every endpoint once and shuts the server down.
fn smoke(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    let bench = escaped(&bench_format::to_bench(&embedded::c17()));

    let r = client.expect_ok(r#"{"id": 0, "op": "ping"}"#)?;
    if field(&r, "pong")?.as_bool() != Some(true) {
        return Err("ping did not pong".to_string());
    }

    let r = client.expect_ok(&format!(r#"{{"id": 1, "op": "compile", "bench": "{bench}"}}"#))?;
    let hash = field(&r, "hash")?
        .as_str()
        .ok_or("hash is not a string")?
        .to_string();
    if hash.len() != 32 {
        return Err(format!("malformed hash {hash}"));
    }
    let num_faults = field(&r, "collapsed_faults")?.as_u64().ok_or("bad fault count")?;

    let r = client.expect_ok(&format!(r#"{{"id": 2, "op": "compile", "hash": "{hash}"}}"#))?;
    if field(&r, "cached")?.as_bool() != Some(true) {
        return Err("hash-addressed compile was not a cache hit".to_string());
    }

    let r = client.expect_ok(&format!(
        r#"{{"id": 3, "op": "coverage", "hash": "{hash}", "exhaustive": true}}"#
    ))?;
    if field(&r, "coverage")?.as_f64() != Some(1.0) {
        return Err("exhaustive coverage of c17 must be 1.0".to_string());
    }

    let r = client.expect_ok(&format!(
        r#"{{"id": 4, "op": "adi", "hash": "{hash}", "ordering": "0dynm"}}"#
    ))?;
    let order_len = field(&r, "order")?.as_array().ok_or("order missing")?.len();
    if order_len as u64 != num_faults {
        return Err(format!("adi order has {order_len} entries, want {num_faults}"));
    }

    let r = client.expect_ok(&format!(
        r#"{{"id": 5, "op": "atpg", "hash": "{hash}", "ordering": "0dynm", "include_tests": true}}"#
    ))?;
    if field(&r, "coverage")?.as_f64() != Some(1.0) {
        return Err("c17 ATPG coverage must be 1.0".to_string());
    }
    let tests: Vec<String> = field(&r, "tests")?
        .as_array()
        .ok_or("tests missing")?
        .iter()
        .filter_map(|t| t.as_str().map(str::to_string))
        .collect();
    if tests.is_empty() {
        return Err("ATPG produced no tests".to_string());
    }

    let r = client.expect_ok(&format!(
        r#"{{"id": 6, "op": "ndetect", "hash": "{hash}", "random": {{"count": 64, "seed": 7}}, "n": 4}}"#
    ))?;
    if field(&r, "counts")?.as_array().ok_or("counts missing")?.len() as u64 != num_faults {
        return Err("ndetect counts length mismatch".to_string());
    }

    let test_list = tests
        .iter()
        .map(|t| format!("\"{t}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let r = client.expect_ok(&format!(
        r#"{{"id": 7, "op": "reorder", "hash": "{hash}", "patterns": [{test_list}]}}"#
    ))?;
    if field(&r, "permutation")?.as_array().ok_or("permutation missing")?.len() != tests.len() {
        return Err("reorder permutation length mismatch".to_string());
    }

    // A single-gate mutation must be distinguished from the original;
    // the left side rides the cache via the hash.
    let mutated = escaped(&bench_format::to_bench(&embedded::c17()).replacen("NAND", "NOR", 1));
    let r = client.expect_ok(&format!(
        r#"{{"id": 8, "op": "equiv", "left": {{"hash": "{hash}"}}, "right": {{"bench": "{mutated}"}}}}"#
    ))?;
    if field(&r, "verdict")?.as_str() != Some("inequivalent") {
        return Err("mutated c17 must be inequivalent to the original".to_string());
    }

    // Repeat an earlier scenario twice: both must come from the
    // scenario cache (the id 6 request populated it — the envelope id
    // is spliced per request, so a different id still hits), and the
    // two raw responses must be byte-identical.
    let repeat = format!(
        r#"{{"id": 10, "op": "ndetect", "hash": "{hash}", "random": {{"count": 64, "seed": 7}}, "n": 4}}"#
    );
    let first = client.roundtrip_raw(&repeat)?;
    let second = client.roundtrip_raw(&repeat)?;
    if first != second {
        return Err("repeated scenario responses are not byte-identical".to_string());
    }

    let r = client.expect_ok(r#"{"id": 11, "op": "stats"}"#)?;
    let scenario_hits = field(&r, "scenario")?
        .get("hits")
        .and_then(Value::as_u64)
        .ok_or("stats missing scenario.hits")?;
    if scenario_hits == 0 {
        return Err("scenario cache recorded no hits".to_string());
    }

    // A traced repeat of the same scenario: the envelope must be the
    // untraced bytes with a trailing `"trace"` field spliced on — the
    // result payload is unchanged by tracing.
    let traced = client.roundtrip_raw(&repeat.replacen(r#"{"id": 10,"#, r#"{"id": 10, "trace": true,"#, 1))?;
    if !traced.starts_with(&first[..first.len() - 1]) || !traced.contains(r#","trace":{"#) {
        return Err("traced response does not extend the untraced bytes".to_string());
    }
    let v = json::parse(&traced).map_err(|e| format!("bad traced response JSON: {e}"))?;
    if v.get("trace").and_then(|t| t.get("spans")).and_then(Value::as_array).is_none() {
        return Err("traced response lacks a trace.spans tree".to_string());
    }

    // The metrics scrape must parse and carry the request histogram
    // (when collection is enabled — adi-serve's default).
    let r = client.expect_ok(r#"{"id": 13, "op": "metrics"}"#)?;
    let enabled = field(&r, "enabled")?.as_bool().ok_or("metrics missing `enabled`")?;
    let text = field(&r, "text")?.as_str().ok_or("metrics missing `text`")?;
    if !text.contains("# TYPE ") {
        return Err("metrics scrape has no # TYPE lines".to_string());
    }
    if enabled
        && !(text.contains("adi_request_ns_bucket{le=")
            && text.contains("# TYPE adi_request_ns histogram")
            && text.contains("adi_request_queue_wait_ns_count"))
    {
        return Err(format!("metrics scrape lacks the request histograms:\n{text}"));
    }

    let r = client.expect_ok(r#"{"id": 12, "op": "shutdown"}"#)?;
    if field(&r, "stopping")?.as_bool() != Some(true) {
        return Err("shutdown not acknowledged".to_string());
    }
    client.expect_eof()?;
    println!(
        "adi-loadgen: smoke OK (all endpoints, {scenario_hits} scenario hits, clean shutdown)"
    );
    Ok(())
}

/// The closed-loop measurement: every connection thread runs the same
/// request mix and records per-request latency.
fn load(opts: &Options) -> Result<(), String> {
    // One circuit for the whole run: the largest suite stand-in within
    // the gate budget (the cache-hit path is the point of the server).
    let circuit = paper_suite()
        .into_iter()
        .filter(|c| c.gates <= opts.gates)
        .max_by_key(|c| c.gates)
        .ok_or_else(|| format!("no suite circuit with <= {} gates", opts.gates))?;
    let bench = escaped(&bench_format::to_bench(&circuit.netlist()));
    let mut warm = Client::connect(&opts.addr)?;
    let r = warm.expect_ok(&format!(
        r#"{{"op": "compile", "bench": "{bench}", "name": "{}"}}"#,
        circuit.name
    ))?;
    let hash = field(&r, "hash")?.as_str().ok_or("hash missing")?.to_string();

    let requests: Vec<String> = vec![
        format!(r#"{{"op": "compile", "hash": "{hash}"}}"#),
        format!(r#"{{"op": "coverage", "hash": "{hash}", "random": {{"count": 64, "seed": 11}}}}"#),
        format!(r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 64, "seed": 12}}, "n": 3}}"#),
    ];

    let t0 = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.connections)
            .map(|ci| {
                let requests = &requests;
                let addr = &opts.addr;
                scope.spawn(move || -> Result<Vec<u64>, String> {
                    let mut client = Client::connect(addr)?;
                    let mut lat = Vec::with_capacity(opts.requests);
                    for i in 0..opts.requests {
                        let req = &requests[(ci + i) % requests.len()];
                        let t = Instant::now();
                        client.expect_ok(req)?;
                        lat.push(t.elapsed().as_nanos() as u64);
                    }
                    Ok(lat)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut first_err = None;
        for h in handles {
            match h.join().expect("loadgen connection thread panicked") {
                Ok(mut lat) => all.append(&mut lat),
                Err(e) => first_err = Some(e),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(all),
        }
    })?;
    let wall = t0.elapsed().as_secs_f64();

    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx] as f64 / 1e6
    };
    println!(
        "adi-loadgen: {} ({} gates) — {} connections x {} requests in {:.2}s",
        circuit.name, circuit.gates, opts.connections, opts.requests, wall
    );
    println!(
        "adi-loadgen: {:.0} req/s, latency p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms",
        latencies.len() as f64 / wall,
        pct(50.0),
        pct(90.0),
        pct(99.0),
        pct(99.9)
    );

    if opts.shutdown {
        warm.expect_ok(r#"{"op": "shutdown"}"#)?;
        println!("adi-loadgen: server shutdown requested");
    }
    Ok(())
}

/// Per-connection tallies from an open-loop run.
struct OpenLoopTally {
    /// Nanoseconds from each request's *scheduled* send time to its
    /// response (successful requests only).
    latencies: Vec<u64>,
    /// Responses refused by the server's admission control.
    shed: u64,
}

/// The open-loop measurement: requests go out on a fixed schedule, so
/// the offered rate is independent of how fast the server answers.
fn open_loop(opts: &Options, rate: f64) -> Result<(), String> {
    let circuit = paper_suite()
        .into_iter()
        .filter(|c| c.gates <= opts.gates)
        .max_by_key(|c| c.gates)
        .ok_or_else(|| format!("no suite circuit with <= {} gates", opts.gates))?;
    let bench = escaped(&bench_format::to_bench(&circuit.netlist()));
    let mut warm = Client::connect(&opts.addr)?;
    let r = warm.expect_ok(&format!(
        r#"{{"op": "compile", "bench": "{bench}", "name": "{}"}}"#,
        circuit.name
    ))?;
    let hash = field(&r, "hash")?.as_str().ok_or("hash missing")?.to_string();

    // Prime the n-detect sweep once so the timed run measures the
    // steady state (scenario-cache hits), not four cold computations.
    const SWEEP: usize = 4;
    for n in 1..=SWEEP {
        warm.expect_ok(&format!(
            r#"{{"op": "ndetect", "hash": "{hash}", "random": {{"count": 64, "seed": 12}}, "n": {n}}}"#
        ))?;
    }

    let total = opts.requests;
    let connections = opts.connections;
    // Small headroom so request 0 is not already late at send time.
    let start = Instant::now() + Duration::from_millis(50);
    let results: Vec<Result<OpenLoopTally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|ci| {
                let addr = &opts.addr;
                let hash = &hash;
                scope.spawn(move || -> Result<OpenLoopTally, String> {
                    let Client { mut reader, mut writer } = Client::connect(addr)?;
                    let indices: Vec<usize> = (ci..total).step_by(connections).collect();
                    let expect = indices.len();
                    std::thread::scope(|inner| -> Result<OpenLoopTally, String> {
                        // The sender never waits for responses: it
                        // sleeps until each request's scheduled time
                        // and writes the line.
                        let sender = inner.spawn(move || -> Result<(), String> {
                            for i in indices {
                                let due = start + Duration::from_secs_f64(i as f64 / rate);
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                                let n = 1 + (i % SWEEP);
                                let req = format!(
                                    r#"{{"id": {i}, "op": "ndetect", "hash": "{hash}", "random": {{"count": 64, "seed": 12}}, "n": {n}}}"#
                                );
                                send_line(&mut writer, &req)?;
                            }
                            Ok(())
                        });
                        let mut tally = OpenLoopTally {
                            latencies: Vec::with_capacity(expect),
                            shed: 0,
                        };
                        for _ in 0..expect {
                            let mut line = String::new();
                            let nread = reader
                                .read_line(&mut line)
                                .map_err(|e| format!("receive: {e}"))?;
                            if nread == 0 {
                                return Err("server closed the connection mid-run".to_string());
                            }
                            let done = Instant::now();
                            let v = json::parse(line.trim_end())
                                .map_err(|e| format!("bad response JSON: {e}"))?;
                            let id = v
                                .get("id")
                                .and_then(Value::as_u64)
                                .ok_or("response without id")?;
                            if v.get("ok").and_then(Value::as_bool) == Some(true) {
                                let due = start + Duration::from_secs_f64(id as f64 / rate);
                                tally
                                    .latencies
                                    .push(done.saturating_duration_since(due).as_nanos() as u64);
                            } else if v.get("shed").and_then(Value::as_bool) == Some(true) {
                                tally.shed += 1;
                            } else {
                                return Err(format!("request {id} failed: {v}"));
                            }
                        }
                        sender.join().expect("open-loop sender panicked")?;
                        Ok(tally)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop connection thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let mut latencies = Vec::new();
    let mut shed = 0u64;
    for result in results {
        let mut tally = result?;
        latencies.append(&mut tally.latencies);
        shed += tally.shed;
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((p / 100.0) * (latencies.len() - 1) as f64).round() as usize;
        latencies[idx] as f64 / 1e6
    };
    println!(
        "adi-loadgen: open-loop {} ({} gates) — offered {:.0} req/s, {} requests over {} connections",
        circuit.name, circuit.gates, rate, total, connections
    );
    println!(
        "adi-loadgen: achieved {:.0} req/s, completed {}, shed {shed}, wall {:.2}s",
        (latencies.len() as f64) / wall,
        latencies.len(),
        wall
    );
    println!(
        "adi-loadgen: latency (from scheduled send) p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms",
        pct(50.0),
        pct(90.0),
        pct(99.0),
        pct(99.9)
    );

    if opts.shutdown {
        warm.expect_ok(r#"{"op": "shutdown"}"#)?;
        println!("adi-loadgen: server shutdown requested");
    }
    Ok(())
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: adi-loadgen --addr HOST:PORT [--smoke | --open-loop RATE] \
                 [--connections C] [--requests N] [--gates G] [--shutdown]"
            );
            std::process::exit(2);
        }
    };
    let outcome = if opts.smoke {
        smoke(&opts.addr)
    } else if let Some(rate) = opts.open_loop {
        open_loop(&opts, rate)
    } else {
        load(&opts)
    };
    if let Err(message) = outcome {
        eprintln!("adi-loadgen: FAILED: {message}");
        std::process::exit(1);
    }
}
