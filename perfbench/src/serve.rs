//! `adi-serve` in its own process, and clients that talk to it over
//! loopback TCP the way a user would: every request and its newline leave
//! in one write on a `TCP_NODELAY` socket, and pipelined responses are
//! matched by `id`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adi_service::{ScenarioConfig, ServiceState, StoreConfig};

use crate::inputs::{self, BenchCircuit};

/// Scenario-cache budget of the server: the `serve_hits` working set fits
/// in it, the `serve_sweep` working set overflows it.
pub const CACHE_BYTES: usize = 1 << 20;

/// Longest a client waits for one response.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// An idle, small cache hit slower than this means the transport is
/// adding delay (40 ms is the signature of Nagle's algorithm meeting a
/// delayed ACK).
const PROBE_LIMIT_MS: f64 = 5.0;

/// Builds `adi-serve` from the repository's sources and returns the path
/// of the executable.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let manifest = root.join("Cargo.toml");
    let output = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--message-format=json",
        ])
        .args(["-p", "adi-service", "--bin", "adi-serve", "--manifest-path"])
        .arg(&manifest)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building adi-serve failed: {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|m| {
            let name = m
                .get("target")
                .and_then(|t| t.get("name"))
                .and_then(json::Value::as_str);
            name == Some("adi-serve")
        })
        .find_map(|m| {
            m.get("executable")
                .and_then(json::Value::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no adi-serve executable".to_string())
}

/// A running `adi-serve`. Dropping it kills the process if it is still up.
pub struct Server {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `adi-serve` on an ephemeral loopback port with one worker
    /// per core and the benchmark's cache budget.
    pub fn start(exe: &Path) -> Result<Server, String> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut child = Command::new(exe)
            .args(["--listen", "127.0.0.1:0", "--workers", &workers.to_string()])
            .args(["--scenario-cache-bytes", &CACHE_BYTES.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // The server announces its address on stderr; keep draining the
        // pipe afterwards so the server never blocks on it.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                match line.strip_prefix("adi-serve: listening on ") {
                    Some(addr) => {
                        let _ = tx.send(addr.to_string());
                    }
                    None => eprintln!("{line}"),
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(drain),
        };
        let announced = rx
            .recv_timeout(Duration::from_secs(20))
            .map_err(|_| "adi-serve did not announce its address".to_string())?;
        server.addr = announced
            .parse()
            .map_err(|e| format!("bad address {announced:?}: {e}"))?;
        Ok(server)
    }

    /// Peak resident memory of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::report::peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let mut client = Client::connect(self.addr)?;
        client.call("\"op\":\"shutdown\"}")?;
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("adi-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("adi-serve did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for adi-serve: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// One connection to the server.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects with Nagle's algorithm off.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
            next_id: 1 << 40,
        })
    }

    /// Sends one request line (its newline included) in a single write.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        debug_assert!(line.ends_with('\n'));
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one response line, without its newline.
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(_) => {
                line.truncate(line.trim_end_matches('\n').len());
                Ok(line)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Sends `body` under a fresh id and waits for its response.
    pub fn call(&mut self, body: &str) -> Result<String, String> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&inputs::line(id, body))?;
        let response = self.recv()?;
        if response_id(&response) != Some(id) {
            return Err(format!("response to request {id} carries another id"));
        }
        Ok(response)
    }

    /// Like [`call`](Self::call), returning the `result` payload bytes of a
    /// successful response.
    pub fn call_ok(&mut self, body: &str) -> Result<String, String> {
        let response = self.call(body)?;
        ok_payload(&response)
            .map(str::to_string)
            .ok_or_else(|| format!("request failed: {}", truncated(&response)))
    }

    /// Splits the connection into its write half and its read half.
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }
}

/// The `id` a response line starts with.
pub fn response_id(response: &str) -> Option<u64> {
    let rest = response.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// The `result` payload of a successful response line, byte for byte.
pub fn ok_payload(response: &str) -> Option<&str> {
    let start = response.find(",\"ok\":true,\"result\":")? + ",\"ok\":true,\"result\":".len();
    response.strip_suffix('}').map(|r| &r[start..])
}

/// Parses the `result` object of a successful response.
pub fn ok_result(response: &str) -> Result<json::Value, String> {
    let payload =
        ok_payload(response).ok_or_else(|| format!("request failed: {}", truncated(response)))?;
    json::parse(payload).map_err(|e| format!("bad result JSON: {e}"))
}

/// A response shortened for an error message.
pub fn truncated(s: &str) -> &str {
    &s[..s.char_indices().nth(200).map_or(s.len(), |(i, _)| i)]
}

/// A service in this process configured like the server, with `circuits`
/// registered under the same hashes the server gave them.
pub fn in_process_state(
    circuits: &[BenchCircuit],
    hashes: &[String],
) -> Result<ServiceState, String> {
    let state = ServiceState::with_scenario(
        StoreConfig::default(),
        ScenarioConfig {
            budget_bytes: CACHE_BYTES,
            ..ScenarioConfig::default()
        },
    );
    for (c, hash) in circuits.iter().zip(hashes) {
        let response = state.handle_line(inputs::line(0, &inputs::compile_body(c)).trim_end());
        if ok_result(&response)?
            .get("hash")
            .and_then(json::Value::as_str)
            != Some(hash.as_str())
        {
            return Err("the in-process service hashes a circuit differently".into());
        }
    }
    Ok(state)
}

/// Registers `circuits` with the server and returns their hashes.
pub fn compile_all(client: &mut Client, circuits: &[BenchCircuit]) -> Result<Vec<String>, String> {
    circuits
        .iter()
        .map(|c| {
            let result = ok_result(&client.call(&inputs::compile_body(c))?)?;
            result
                .get("hash")
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| "compile answered without a hash".to_string())
        })
        .collect()
}

/// Times `probes` idle round trips of `body` (a small cache hit) and fails
/// if their median exceeds [`PROBE_LIMIT_MS`].
pub fn idle_probe(client: &mut Client, body: &str, probes: usize) -> Result<f64, String> {
    let mut rtts = Vec::with_capacity(probes);
    for _ in 0..probes {
        let t = Instant::now();
        client.call_ok(body)?;
        rtts.push(t.elapsed().as_secs_f64() * 1e3);
        std::thread::sleep(Duration::from_millis(2));
    }
    let p50 = crate::stats::median(&rtts);
    if p50 > PROBE_LIMIT_MS {
        return Err(format!(
            "an idle small cache hit takes {p50:.1} ms (limit {PROBE_LIMIT_MS} ms): \
             the transport is delaying requests"
        ));
    }
    Ok(p50)
}

/// Scenario-cache and admission counters from the `stats` op.
#[derive(Clone, Copy, Default, Debug)]
pub struct Stats {
    /// Scenario-cache hits.
    pub hits: u64,
    /// Scenario-cache misses.
    pub misses: u64,
    /// Scenario-cache evictions.
    pub evictions: u64,
    /// Bytes the scenario cache holds.
    pub bytes: u64,
    /// Requests shed by admission control.
    pub shed: u64,
}

impl Stats {
    /// Reads the server's counters.
    pub fn scrape(client: &mut Client) -> Result<Stats, String> {
        let result = ok_result(&client.call("\"op\":\"stats\"}")?)?;
        let field = |block: &str, key: &str| -> Result<u64, String> {
            result
                .get(block)
                .and_then(|b| b.get(key))
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("stats lacks {block}.{key}"))
        };
        Ok(Stats {
            hits: field("scenario", "hits")?,
            misses: field("scenario", "misses")?,
            evictions: field("scenario", "evictions")?,
            bytes: field("scenario", "bytes")?,
            shed: field("service", "shed")?,
        })
    }
}

/// The server's 99th-percentile request queue wait, in milliseconds, from
/// the `metrics` op.
pub fn queue_wait_p99_ms(client: &mut Client) -> Result<f64, String> {
    let result = ok_result(&client.call("\"op\":\"metrics\",\"format\":\"json\"}")?)?;
    result
        .get("histograms")
        .and_then(|h| h.get("adi_request_queue_wait_ns"))
        .and_then(|h| h.get("p99"))
        .and_then(json::Value::as_f64)
        .map(|ns| ns / 1e6)
        .ok_or_else(|| "metrics lack adi_request_queue_wait_ns".to_string())
}

/// Records the layer metrics read from the server after a measured phase.
pub fn report_server_layers(
    report: &mut crate::report::Report,
    client: &mut Client,
    before: Stats,
) -> Result<(), String> {
    let after = Stats::scrape(client)?;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.layer(
        "service.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.layer("service.shed", (after.shed - before.shed) as f64);
    report.layer(
        "service.evictions",
        (after.evictions - before.evictions) as f64,
    );
    report.layer("service.cache_mb", after.bytes as f64 / (1 << 20) as f64);
    report.layer("service.queue_wait_p99_ms", queue_wait_p99_ms(client)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_payloads_are_read_from_the_envelope() {
        let r = r#"{"id":17,"ok":true,"result":{"a":[1,2],"b":"}"}}"#;
        assert_eq!(response_id(r), Some(17));
        assert_eq!(ok_payload(r), Some(r#"{"a":[1,2],"b":"}"}"#));
        let e = r#"{"id":3,"ok":false,"error":"shed","shed":true}"#;
        assert_eq!(response_id(e), Some(3));
        assert_eq!(ok_payload(e), None);
        assert_eq!(response_id(r#"{"ok":true}"#), None);
    }
}
