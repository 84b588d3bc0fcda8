//! The serving loops: multi-threaded TCP and pooled, in-order stdio.
//!
//! **TCP** ([`serve_tcp`]): an accept loop hands each connection to a
//! cheap reader thread that parses newline-delimited requests and
//! submits them to the shared [`WorkerPool`], so request concurrency is
//! bounded by the worker count regardless of connection count and the
//! bounded queue pushes backpressure onto the sockets. In front of the
//! queue sits per-connection **admission control**: a connection may
//! have at most [`ServerConfig::max_inflight`] requests queued or
//! executing; past that the reader answers immediately with a
//! `"shed": true` failure instead of blocking, so one flooding client
//! degrades gracefully rather than wedging its socket (the `stats`
//! endpoint reports the shed total). Responses are written back under a
//! per-connection lock; pipelined requests may complete out of order
//! (match on `id`). A `shutdown` request answers, then stops the accept
//! loop, unblocks every connection's read side, drains the pool, and
//! returns.
//!
//! **stdio** ([`serve_stdio`]): one request per line on stdin, one
//! response per line on stdout — the form that makes the server usable
//! as a subprocess pipe. Requests are handled *concurrently* on the
//! same worker pool as the TCP path, but a sequence-numbered reorder
//! buffer holds completed responses until every earlier line has been
//! answered, so the output order always matches the input order.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use json::Value;

use crate::handlers::ServiceState;
use crate::pool::WorkerPool;
use crate::protocol::{invalid_json_response, shed_response};

/// Sizing knobs for [`serve_tcp`] and [`serve_stdio`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded depth of the request queue feeding the workers.
    pub queue_depth: usize,
    /// Per-connection admission cap: requests queued or executing
    /// beyond this are answered with a `"shed": true` failure instead
    /// of entering the pool (`0` disables shedding). Ignored by the
    /// stdio transport, whose single stream is flow-controlled by the
    /// bounded queue itself.
    pub max_inflight: usize,
}

impl Default for ServerConfig {
    /// Workers matching the available parallelism (at least 2), queue
    /// depth 64, 64 requests in flight per connection.
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2);
        ServerConfig {
            workers,
            queue_depth: 64,
            max_inflight: 64,
        }
    }
}

/// Totals reported by [`serve_tcp`] after a graceful shutdown.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServeReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests answered (including error responses).
    pub requests: u64,
    /// Requests refused by admission control (also counted in
    /// `requests` — a shed response is still a response).
    pub shed: u64,
}

/// Serves `state` over `listener` until a client sends
/// `{"op": "shutdown"}`. Blocks the calling thread; returns lifetime
/// totals after a graceful drain (accept loop stopped, connection
/// readers joined, request queue drained, workers joined).
///
/// # Errors
///
/// Returns any I/O error from configuring or polling the listener;
/// per-connection errors only terminate that connection.
pub fn serve_tcp(
    listener: TcpListener,
    state: Arc<ServiceState>,
    config: ServerConfig,
) -> io::Result<ServeReport> {
    listener.set_nonblocking(true)?;
    let pool = WorkerPool::new(config.workers, config.queue_depth);
    state
        .metrics()
        .configure(config.workers, config.queue_depth, config.max_inflight);
    state.metrics().attach_queue(pool.queued_handle());
    let shutdown = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicU64::new(0));
    // Read-half clones of the currently live connections, so shutdown
    // can unblock the reader threads blocked in `read`. Each reader
    // removes its own entry on exit — a long-lived server must not
    // accumulate one fd per connection it ever served.
    let live: Mutex<HashMap<u64, TcpStream>> = Mutex::new(HashMap::new());
    let mut connections = 0u64;
    let mut accept_error = None;

    std::thread::scope(|scope| {
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    connections += 1;
                    let conn_id = connections;
                    let _ = stream.set_nodelay(true);
                    if let Ok(clone) = stream.try_clone() {
                        live.lock().expect("live list").insert(conn_id, clone);
                    }
                    let state = Arc::clone(&state);
                    let shutdown = Arc::clone(&shutdown);
                    let requests = Arc::clone(&requests);
                    let pool = &pool;
                    let live = &live;
                    let max_inflight = config.max_inflight;
                    scope.spawn(move || {
                        connection_loop(stream, state, pool, shutdown, requests, max_inflight);
                        live.lock().expect("live list").remove(&conn_id);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    accept_error = Some(e);
                    break;
                }
            }
        }
        // Unblock every reader: they submit whatever they already read,
        // then exit on the closed read half. The scope joins them.
        for stream in live.lock().expect("live list").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    });
    // Readers are gone; drain everything they submitted.
    pool.shutdown();
    match accept_error {
        Some(e) => Err(e),
        None => Ok(ServeReport {
            connections,
            requests: requests.load(Ordering::SeqCst),
            shed: state.metrics().shed.load(Ordering::SeqCst),
        }),
    }
}

/// Reads one connection's requests and submits them to the pool. The
/// response is written by the worker under the connection's write lock,
/// so a slow request never blocks this reader from accepting the next
/// pipelined request (the bounded queue does that). Requests beyond
/// the per-connection in-flight cap are shed here, on the reader
/// thread, without touching the pool; `shutdown` is always admitted.
fn connection_loop(
    stream: TcpStream,
    state: Arc<ServiceState>,
    pool: &WorkerPool,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    max_inflight: usize,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let reader = BufReader::new(stream);
    let inflight = Arc::new(AtomicU64::new(0));
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        // Parse once, here on the reader thread; the worker handles the
        // already-parsed request (large payloads are not parsed twice).
        let parsed = json::parse(&line);
        let stop_after = is_shutdown_request(&parsed);
        if !stop_after
            && max_inflight > 0
            && inflight.load(Ordering::SeqCst) >= max_inflight as u64
        {
            state.metrics().shed.fetch_add(1, Ordering::SeqCst);
            requests.fetch_add(1, Ordering::SeqCst);
            let id = parsed.as_ref().ok().and_then(|v| v.get("id"));
            let response = shed_response(id, max_inflight).to_string();
            let _ = write_line(&mut *writer.lock().expect("connection writer"), response);
            continue;
        }
        inflight.fetch_add(1, Ordering::SeqCst);
        state.metrics().in_flight.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&state);
        let writer = Arc::clone(&writer);
        let shutdown_flag = Arc::clone(&shutdown);
        let requests = Arc::clone(&requests);
        let inflight = Arc::clone(&inflight);
        let submitted_at = Instant::now();
        let submitted = pool.submit(move || {
            let queue_wait_ns =
                u64::try_from(submitted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let response = match &parsed {
                Ok(request) => state.respond_queued(request, queue_wait_ns),
                Err(e) => invalid_json_response(e).to_string(),
            };
            requests.fetch_add(1, Ordering::SeqCst);
            inflight.fetch_sub(1, Ordering::SeqCst);
            state.metrics().in_flight.fetch_sub(1, Ordering::SeqCst);
            // A vanished client is the client's problem, not the
            // server's: ignore write errors.
            let _ = write_line(&mut *writer.lock().expect("connection writer"), response);
            if stop_after {
                shutdown_flag.store(true, Ordering::SeqCst);
            }
        });
        if submitted.is_err() || stop_after {
            break;
        }
    }
}

/// Serves requests from `input` to `output` until end of input or a
/// `shutdown` request, handling them concurrently on a [`WorkerPool`]
/// sized by `config` while a reorder buffer keeps the response order
/// identical to the request order. This is the stdio transport
/// (`adi-serve --stdio`), and — being generic over the streams — the
/// directly testable core of the line protocol.
///
/// Returns the number of requests answered.
///
/// # Errors
///
/// Returns the first write error; read errors end the loop cleanly.
pub fn serve_stdio(
    input: impl BufRead,
    mut output: impl Write + Send,
    state: Arc<ServiceState>,
    config: ServerConfig,
) -> io::Result<u64> {
    let pool = WorkerPool::new(config.workers, config.queue_depth);
    state.metrics().configure(config.workers, config.queue_depth, 0);
    state.metrics().attach_queue(pool.queued_handle());
    let (tx, rx) = mpsc::channel::<(u64, String)>();
    std::thread::scope(|scope| {
        // The writer owns the reorder buffer: responses arrive in
        // completion order and are held until every earlier sequence
        // number has been written.
        let writer = scope.spawn(move || -> io::Result<u64> {
            let mut pending: HashMap<u64, String> = HashMap::new();
            let mut next = 0u64;
            for (seq, response) in rx {
                pending.insert(seq, response);
                while let Some(response) = pending.remove(&next) {
                    write_line(&mut output, response)?;
                    next += 1;
                }
            }
            Ok(next)
        });
        let mut seq = 0u64;
        for line in input.lines() {
            let line = match line {
                Ok(l) => l,
                Err(_) => break,
            };
            if line.trim().is_empty() {
                continue;
            }
            let parsed = json::parse(&line);
            let stop_after = is_shutdown_request(&parsed);
            let state = Arc::clone(&state);
            let tx = tx.clone();
            let submitted_at = Instant::now();
            let submitted = pool.submit(move || {
                let queue_wait_ns =
                    u64::try_from(submitted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let response = match &parsed {
                    Ok(request) => state.respond_queued(request, queue_wait_ns),
                    Err(e) => invalid_json_response(e).to_string(),
                };
                // A vanished writer (earlier write error) just drops
                // the response.
                let _ = tx.send((seq, response));
            });
            if submitted.is_err() {
                break;
            }
            seq += 1;
            if stop_after {
                break;
            }
        }
        // Drain the pool (completing every submitted request), close
        // the channel, and let the writer finish flushing in order.
        drop(tx);
        pool.shutdown();
        writer.join().expect("stdio writer panicked")
    })
}

/// Writes `response` and its newline in one call, then flushes: a
/// separate newline write would go out as its own segment. The write
/// runs under the `service.write` span; the request's trace is already
/// serialized by then, so the span reaches only its histogram.
fn write_line(out: &mut impl Write, mut response: String) -> io::Result<()> {
    static SPAN_WRITE: adi_obs::SpanSite = adi_obs::SpanSite::new("service.write");
    let _span = SPAN_WRITE.enter();
    response.push('\n');
    out.write_all(response.as_bytes())?;
    out.flush()
}

/// Pre-dispatch check for `"op": "shutdown"` on an already-parsed line
/// (full validation happens in the handler; this only decides whether
/// the serving loop should stop after answering).
fn is_shutdown_request(parsed: &Result<Value, json::ParseError>) -> bool {
    matches!(parsed, Ok(v) if v.get("op").and_then(Value::as_str) == Some("shutdown"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    #[test]
    fn stdio_serves_in_order_and_stops_on_shutdown() {
        let state = Arc::new(ServiceState::new(StoreConfig::default()));
        let input = concat!(
            r#"{"id": 1, "op": "ping"}"#,
            "\n\n",
            r#"{"id": 2, "op": "compile", "bench": "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}"#,
            "\n",
            r#"{"id": 3, "op": "shutdown"}"#,
            "\n",
            r#"{"id": 4, "op": "ping"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let served =
            serve_stdio(input.as_bytes(), &mut out, state, ServerConfig::default()).unwrap();
        assert_eq!(served, 3, "the request after shutdown is not served");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("id").and_then(json::Value::as_u64), Some(i as u64 + 1));
            assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
        }
    }

    #[test]
    fn stdio_reorder_buffer_preserves_input_order_under_concurrency() {
        // Many workers, a mix of slow (compile a fresh structure) and
        // fast (ping) requests: completion order scrambles, output
        // order must not. Distinct chain depths make every compile a
        // distinct, genuinely concurrent unit of work.
        let state = Arc::new(ServiceState::new(StoreConfig::default()));
        let mut input = String::new();
        let total = 60u64;
        for i in 0..total {
            if i % 3 == 0 {
                let depth = 30 + i; // distinct structure per request
                let mut bench = String::from("INPUT(a)\\nOUTPUT(y)\\n");
                let mut prev = "a".to_string();
                for g in 0..depth {
                    bench.push_str(&format!("n{g} = NOT({prev})\\n"));
                    prev = format!("n{g}");
                }
                bench.push_str(&format!("y = NOT({prev})\\n"));
                input.push_str(&format!(
                    r#"{{"id": {i}, "op": "compile", "bench": "{bench}"}}"#
                ));
            } else {
                input.push_str(&format!(r#"{{"id": {i}, "op": "ping"}}"#));
            }
            input.push('\n');
        }
        let mut out = Vec::new();
        let served = serve_stdio(
            input.as_bytes(),
            &mut out,
            state,
            ServerConfig {
                workers: 8,
                queue_depth: 16,
                max_inflight: 0,
            },
        )
        .unwrap();
        assert_eq!(served, total);
        let ids: Vec<u64> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| {
                let v = json::parse(l).unwrap();
                assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
                v.get("id").and_then(json::Value::as_u64).unwrap()
            })
            .collect();
        assert_eq!(ids, (0..total).collect::<Vec<_>>(), "responses in request order");
    }

    #[test]
    fn shutdown_detection_tolerates_garbage() {
        assert!(is_shutdown_request(&json::parse(r#"{"op": "shutdown"}"#)));
        assert!(!is_shutdown_request(&json::parse(r#"{"op": "ping"}"#)));
        assert!(!is_shutdown_request(&json::parse("not json")));
    }
}
