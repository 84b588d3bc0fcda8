//! `adi-serve` — the compiled-circuit server.
//!
//! ```text
//! adi-serve [--listen ADDR | --stdio] [--workers N] [--queue N]
//!           [--max-inflight N] [--capacity N] [--shards N]
//!           [--scenario-cache-bytes N] [--log LEVEL] [--metrics ADDR]
//! ```
//!
//! TCP mode (default, `--listen 127.0.0.1:4717`; use port 0 for an
//! ephemeral port) serves newline-delimited JSON until a client sends
//! `{"op": "shutdown"}`, then drains and exits 0. The bound address is
//! announced on stderr as `adi-serve: listening on <addr>`.
//! `--max-inflight` caps the requests a single connection may have
//! queued or executing before the server sheds (`0` disables).
//!
//! `--stdio` serves the same protocol over stdin/stdout on the worker
//! pool, answering in request order, until EOF or a `shutdown` request.
//!
//! `--scenario-cache-bytes` budgets the response-payload cache
//! (default 64 MiB; `0` disables scenario caching entirely).
//!
//! Requests carry no thread count. Each simulates on one thread; ATPG
//! speculates when `ADI_ATPG_THREADS` is above 1; and `--workers` runs
//! requests in parallel.
//!
//! Observability: metrics/span collection is on by default (set
//! `ADI_OBS=0` to disable; requests then pay one relaxed atomic load
//! per span site). `--log <level>` turns on NDJSON structured logging
//! to stderr (`error`..`trace`; default off). `--metrics ADDR` serves
//! the Prometheus exposition text over plain HTTP on a sidecar
//! listener (`GET` anything; the same text is available in-protocol as
//! `{"op": "metrics"}`).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use adi_service::{
    serve_stdio, serve_tcp, ScenarioConfig, ServerConfig, ServiceState, StoreConfig,
};

struct Options {
    listen: String,
    stdio: bool,
    server: ServerConfig,
    store: StoreConfig,
    scenario: ScenarioConfig,
    log: Option<adi_obs::Level>,
    metrics: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            listen: "127.0.0.1:4717".to_string(),
            stdio: false,
            server: ServerConfig::default(),
            store: StoreConfig::default(),
            scenario: ScenarioConfig::default(),
            log: None,
            metrics: None,
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
            "--stdio" => opts.stdio = true,
            "--listen" => {
                opts.listen = args
                    .next()
                    .ok_or_else(|| "--listen requires an address".to_string())?;
            }
            "--workers" => opts.server.workers = num("--workers")?,
            "--queue" => opts.server.queue_depth = num("--queue")?,
            "--max-inflight" => {
                // Zero is meaningful here: it disables shedding.
                opts.server.max_inflight = args
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| "--max-inflight requires a number".to_string())?;
            }
            "--capacity" => opts.store.capacity = num("--capacity")?,
            "--shards" => opts.store.shards = num("--shards")?,
            "--scenario-cache-bytes" => {
                // Zero is meaningful here too: it disables the cache.
                opts.scenario.budget_bytes = args
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| "--scenario-cache-bytes requires a number".to_string())?;
            }
            "--log" => {
                let level = args.next().ok_or_else(|| "--log requires a level".to_string())?;
                opts.log = adi_obs::parse_level(&level)?;
            }
            "--metrics" => {
                opts.metrics = Some(
                    args.next()
                        .ok_or_else(|| "--metrics requires an address".to_string())?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: adi-serve [--listen ADDR | --stdio] [--workers N] [--queue N] \
                 [--max-inflight N] [--capacity N] [--shards N] [--scenario-cache-bytes N] \
                 [--log LEVEL] [--metrics ADDR]"
            );
            std::process::exit(2);
        }
    };
    adi_obs::init_from_env(true);
    adi_obs::set_log_level(opts.log);
    let state = Arc::new(ServiceState::with_scenario(opts.store, opts.scenario));
    if let Some(addr) = &opts.metrics {
        spawn_metrics_listener(addr, Arc::clone(&state));
    }

    if opts.stdio {
        let stdin = std::io::stdin();
        // `Stdout` (not its lock) — the writer lives on another thread.
        match serve_stdio(stdin.lock(), std::io::stdout(), state, opts.server) {
            Ok(served) => eprintln!("adi-serve: stdio session done ({served} requests)"),
            Err(e) => {
                eprintln!("adi-serve: stdio error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let listener = match TcpListener::bind(&opts.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("adi-serve: cannot bind {}: {e}", opts.listen);
            std::process::exit(1);
        }
    };
    match listener.local_addr() {
        Ok(addr) => eprintln!("adi-serve: listening on {addr}"),
        Err(_) => eprintln!("adi-serve: listening on {}", opts.listen),
    }
    match serve_tcp(listener, state, opts.server) {
        Ok(report) => {
            eprintln!(
                "adi-serve: shutdown complete ({} connections, {} requests, {} shed)",
                report.connections, report.requests, report.shed
            );
        }
        Err(e) => {
            eprintln!("adi-serve: server error: {e}");
            std::process::exit(1);
        }
    }
}

/// Serves the Prometheus scrape over plain HTTP on a detached sidecar
/// thread (it dies with the process; scrapers are read-only and never
/// touch the request path's worker pool).
fn spawn_metrics_listener(addr: &str, state: Arc<ServiceState>) {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("adi-serve: cannot bind metrics listener {addr}: {e}");
            std::process::exit(1);
        }
    };
    match listener.local_addr() {
        Ok(bound) => eprintln!("adi-serve: metrics on http://{bound}/metrics"),
        Err(_) => eprintln!("adi-serve: metrics on {addr}"),
    }
    std::thread::Builder::new()
        .name("adi-metrics".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let _ = serve_one_scrape(stream, &state);
            }
        })
        .expect("spawn metrics listener");
}

/// Answers one HTTP request with the scrape text (any method, any
/// path: a metrics sidecar has exactly one resource).
fn serve_one_scrape(stream: TcpStream, state: &ServiceState) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    // Drain the request line and headers; the body of a GET is empty.
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 && line.trim_end() != "" {
        line.clear();
    }
    let body = scrape_text(state);
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The exposition text, produced by the same `metrics` endpoint the
/// line protocol serves (so the sidecar also refreshes the gauges).
fn scrape_text(state: &ServiceState) -> String {
    let response = state.handle_line(r#"{"op": "metrics"}"#);
    json::parse(&response)
        .ok()
        .and_then(|v| {
            v.get("result")?
                .get("text")
                .and_then(json::Value::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(|| "# metrics unavailable\n".to_string())
}
