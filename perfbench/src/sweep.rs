//! The `serve_sweep` workload: a closed loop on two connections where every
//! request is a fresh scenario (`ndetect` with n from 1..8 and `coverage`,
//! never-repeated vector seeds, on eight ~10k-fault circuits). Every
//! request misses the scenario cache, runs the fault-simulation kernels
//! and inserts a payload; set-up fills the cache to its budget first, so
//! every measured insert also evicts.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use adi_netlist::{bench_format, CompiledCircuit};
use adi_sim::{FaultSimulator, PatternSet};

use crate::inputs::{self, BenchCircuit, SweepRequest, RANDOM_COUNT};
use crate::report::{Outcome, Report};
use crate::serve::{self, ok_payload, ok_result, Client, Server, Stats};
use crate::stats::{median, windowed_percentile};
use crate::trace::Tracer;

/// Client connections, each a closed loop on its own thread.
const CONNECTIONS: u64 = 2;

/// Circuits the requests spread over. Random circuits of one size differ
/// in simulation cost by up to a third: over few circuits the latency
/// median falls between their costs and the per-seed mean moves with the
/// draw.
const CIRCUITS: usize = 8;

/// Requests set-up sends to fill the scenario cache past its budget.
const PRIME_REQUESTS: u64 = 128;

/// Request numbers from here on are set-up's, so measured ones stay fresh.
const PRIME_BASE: u64 = 1 << 40;

/// One response in this many is recomputed in-process.
const SAMPLE_EVERY: u64 = 32;

/// Whether the response to request `k` is recomputed: a hash of `k` that
/// shares no bits with the one choosing the request's fields, so the
/// sample has the sweep's mix of operations, circuits and `n`.
fn sampled(seed: u64, k: u64) -> bool {
    inputs::mix(seed, 500, k).is_multiple_of(SAMPLE_EVERY)
}

/// Samples per window of the windowed p90.
const TAIL_WINDOW: usize = 1000;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Setup {
    server: Server,
    circuits: Vec<BenchCircuit>,
    hashes: Vec<String>,
}

/// Generates the circuits, starts the server, registers the circuits and
/// fills the scenario cache.
fn set_up(exe: &Path, seed: u64) -> Result<Setup, String> {
    let circuits = inputs::serve_circuits(seed, CIRCUITS);
    let server = Server::start(exe)?;
    let hashes = serve::compile_all(&mut Client::connect(server.addr)?, &circuits)?;
    let (primed, _) = closed_loop(
        server.addr,
        seed,
        &hashes,
        PRIME_BASE,
        Stop::Count(PRIME_REQUESTS),
        false,
    )?;
    if primed.iter().any(|d| !d.ok) {
        return Err("a priming request failed".into());
    }
    Ok(Setup {
        server,
        circuits,
        hashes,
    })
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
enum Stop {
    Deadline(Instant),
    Count(u64),
}

/// One completed request of a closed loop.
struct Done {
    k: u64,
    finished: Instant,
    rtt_ns: u64,
    ok: bool,
    /// The response, kept for the sampled requests.
    response: Option<String>,
}

/// Runs the closed loop: connection `c` sends requests `first + c`,
/// `first + c + CONNECTIONS`, ... one at a time. Returns the completed
/// requests and the number of spans recorded.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    hashes: &[String],
    first: u64,
    stop: Stop,
    traced: bool,
) -> Result<(Vec<Done>, usize), String> {
    let per_connection = |c: u64| -> Result<(Vec<Done>, usize), String> {
        let mut client = Client::connect(addr)?;
        let mut tracer = Tracer::new(traced);
        let mut done = Vec::new();
        let mut k = first + c;
        loop {
            match stop {
                Stop::Deadline(end) if Instant::now() >= end => break,
                Stop::Count(n) if k >= first + n => break,
                _ => {}
            }
            let request = SweepRequest::nth(seed, k, hashes.len());
            let body = request.body(&hashes[request.circuit]);
            let t = Instant::now();
            let response = tracer.time("client.request", || client.call(&body));
            let finished = Instant::now();
            let rtt_ns = u64::try_from((finished - t).as_nanos()).unwrap_or(u64::MAX);
            let (ok, response) = match response {
                Ok(r) => (ok_payload(&r).is_some(), r),
                Err(e) => {
                    // The connection is unusable after an I/O failure.
                    eprintln!("perfbench: serve_sweep request {k}: {e}");
                    done.push(Done {
                        k,
                        finished,
                        rtt_ns,
                        ok: false,
                        response: None,
                    });
                    break;
                }
            };
            done.push(Done {
                k,
                finished,
                rtt_ns,
                ok,
                response: sampled(seed, k).then_some(response),
            });
            k += CONNECTIONS;
        }
        Ok((done, tracer.len()))
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| scope.spawn(move || per_connection(c)))
            .collect();
        let (mut all, mut spans) = (Vec::new(), 0);
        for w in workers {
            let (done, n) = w
                .join()
                .map_err(|_| "client thread panicked".to_string())??;
            all.extend(done);
            spans += n;
        }
        all.sort_by_key(|d| d.finished);
        Ok((all, spans))
    })
}

/// Runs the workload and reports its metrics.
pub fn run(exe: &Path, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = set_up(exe, seed)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(s) {
            if previous.hashes != kept.as_ref().expect("just set").hashes {
                return Err("circuit hashes differ between set-ups of one seed".into());
            }
            previous.server.stop()?;
        }
    }
    let s = kept.expect("at least one set-up");
    let compiled: Vec<CompiledCircuit> = s
        .circuits
        .iter()
        .map(|c| bench_format::parse(&c.bench, &c.name).map(CompiledCircuit::compile))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut control = Client::connect(s.server.addr)?;
    let probe = SweepRequest::nth(seed, PRIME_BASE - 1, s.hashes.len());
    let probe_body = probe.body(&s.hashes[probe.circuit]);
    control.call_ok(&probe_body)?;
    serve::idle_probe(&mut control, &probe_body, 20)?;
    let before = Stats::scrape(&mut control)?;

    let mut report = Report::default();
    let start = Instant::now();
    let done = if traced {
        // Untraced, then traced, for the tracing overhead.
        let half = Duration::from_secs_f64(0.35 * seconds);
        let deadline = || Stop::Deadline(Instant::now() + half);
        let (a, _) = closed_loop(s.server.addr, seed, &s.hashes, 0, deadline(), false)?;
        let first = a.iter().map(|d| d.k + CONNECTIONS).max().unwrap_or(0);
        let (b, spans) = closed_loop(s.server.addr, seed, &s.hashes, first, deadline(), true)?;
        let p50 = |d: &[Done]| median(&d.iter().map(|d| d.rtt_ns as f64).collect::<Vec<_>>());
        report.layer("trace.overhead_pct", (p50(&b) / p50(&a) - 1.0) * 100.0);
        report.layer("trace.spans", spans as f64);
        a.into_iter().chain(b).collect::<Vec<_>>()
    } else {
        let end = start + Duration::from_secs_f64(seconds);
        closed_loop(
            s.server.addr,
            seed,
            &s.hashes,
            0,
            Stop::Deadline(end),
            false,
        )?
        .0
    };
    let elapsed = start.elapsed().as_secs_f64();

    let mut out = Outcome {
        attempted: done.len() as u64,
        failed: done.iter().filter(|d| !d.ok).count() as u64,
    };
    let mut tracer = Tracer::new(true);
    let samples: Vec<(SweepRequest, &str)> = done
        .iter()
        .filter_map(|d| {
            let request = SweepRequest::nth(seed, d.k, s.hashes.len());
            d.response.as_deref().map(|r| (request, r))
        })
        .collect();
    let mut sim_ns = Vec::with_capacity(samples.len());
    for (request, response) in &samples {
        match verify(&compiled, &s.circuits, *request, response, &mut tracer) {
            Ok(ns) => sim_ns.push(Some(ns)),
            Err(e) => {
                eprintln!("perfbench: serve_sweep check failed: {e}");
                out.failed += 1;
                sim_ns.push(None);
            }
        }
    }

    let rtt_ms: Vec<f64> = done
        .iter()
        .filter(|d| d.ok)
        .map(|d| d.rtt_ns as f64 / 1e6)
        .collect();
    if traced {
        serve::report_server_layers(&mut report, &mut control, before)?;
        let ms = |v: Vec<u64>| median(&v.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>());
        report.layer("sim.ndetect_ms", ms(tracer.durations_ns("sim.ndetect")));
        report.layer("sim.coverage_ms", ms(tracer.durations_ns("sim.coverage")));
        report.layer("client.rtt_p50_ms", median(&rtt_ms));
        in_process(&s, &samples, &sim_ns, median(&rtt_ms), &mut report)?;
    } else {
        report.metric("setup_s", median(&setups));
        report.metric("p50_ms", median(&rtt_ms));
        report.metric("p90_ms", windowed_percentile(&rtt_ms, 90.0, TAIL_WINDOW));
        report.metric("rps", rtt_ms.len() as f64 / elapsed);
        report.metric("peak_rss_mb", s.server.peak_rss_mb()?);
    }
    let ndetect = done
        .iter()
        .filter(|d| {
            SweepRequest::nth(seed, d.k, s.hashes.len())
                .ndetect
                .is_some()
        })
        .count();
    eprintln!(
        "perfbench: serve_sweep: {} requests in {elapsed:.1} s ({:.1}% ndetect, {:.1}% coverage), {} checked",
        done.len(),
        100.0 * ndetect as f64 / done.len().max(1) as f64,
        100.0 * (done.len() - ndetect) as f64 / done.len().max(1) as f64,
        samples.len()
    );
    report.outcome = out;
    drop(control);
    s.server.stop()?;
    Ok(report)
}

/// Recomputes one sampled response with direct `adi-sim` calls and
/// compares. Returns the simulation time in nanoseconds.
fn verify(
    compiled: &[CompiledCircuit],
    circuits: &[BenchCircuit],
    request: SweepRequest,
    response: &str,
    tracer: &mut Tracer,
) -> Result<u64, String> {
    let result = ok_result(response)?;
    let circuit = &compiled[request.circuit];
    let faults = circuit.collapsed_faults();
    let patterns = PatternSet::random(
        circuits[request.circuit].inputs,
        RANDOM_COUNT as usize,
        request.pattern_seed,
    );
    let sim = FaultSimulator::for_circuit(circuit, faults);
    let field = |key: &str| result.get(key).and_then(json::Value::as_u64);
    let mut expect = vec![
        ("num_faults", faults.len() as u64),
        ("num_patterns", patterns.len() as u64),
    ];
    match request.ndetect {
        Some(n) => {
            let outcome = tracer.time("sim.ndetect", || sim.n_detect(&patterns, n));
            let counts: Option<Vec<u32>> = result
                .get("counts")
                .and_then(json::Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|v| v.as_u64().map(|c| c as u32))
                        .collect()
                });
            if counts.as_deref() != Some(outcome.counts.as_slice()) {
                return Err(format!("ndetect n={n}: per-fault counts differ"));
            }
            expect.push(("num_detected", outcome.num_detected() as u64));
            expect.push(("num_saturated", outcome.num_saturated() as u64));
        }
        None => {
            let outcome = tracer.time("sim.coverage", || sim.with_dropping(&patterns));
            let coverage = result.get("coverage").and_then(json::Value::as_f64);
            if coverage.is_none_or(|c| (c - outcome.coverage()).abs() > 1e-12) {
                return Err("coverage differs".into());
            }
            expect.push(("num_detected", outcome.num_detected() as u64));
        }
    }
    for (key, want) in expect {
        if field(key) != Some(want) {
            return Err(format!("{key} is {:?}, recomputed {want}", field(key)));
        }
    }
    Ok(tracer.last_ns())
}

/// Times the sampled requests through `ServiceState::handle_line` in this
/// process, where each one misses a fresh cache.
fn in_process(
    s: &Setup,
    samples: &[(SweepRequest, &str)],
    sim_ns: &[Option<u64>],
    rtt_p50_ms: f64,
    report: &mut Report,
) -> Result<(), String> {
    let state = serve::in_process_state(&s.circuits, &s.hashes)?;
    let mut tracer = Tracer::new(true);
    let (mut miss, mut overhead, mut kib) = (Vec::new(), Vec::new(), Vec::new());
    for ((request, response), sim) in samples.iter().zip(sim_ns) {
        let Some(sim) = *sim else { continue };
        let line = inputs::line(0, &request.body(&s.hashes[request.circuit]));
        let answer = tracer.time("service.miss", || state.handle_line(line.trim_end()));
        let ns = tracer.last_ns();
        if ok_payload(&answer) != ok_payload(response) {
            return Err("the in-process state answers a sweep request differently".into());
        }
        miss.push(ns as f64 / 1e6);
        overhead.push((ns as f64 - sim as f64) / 1e6);
        kib.push(answer.len() as f64 / 1024.0);
    }
    let miss_p50 = median(&miss);
    report.layer("service.miss_ms", miss_p50);
    report.layer("service.miss_overhead_ms", median(&overhead));
    report.layer(
        "service.response_kb",
        kib.iter().sum::<f64>() / kib.len().max(1) as f64,
    );
    report.layer("transport.residual_us", (rtt_p50_ms - miss_p50) * 1e3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_connection_sends_every_operation_circuit_and_n() {
        for connection in 0..CONNECTIONS {
            let requests: Vec<SweepRequest> = (connection..40_000)
                .step_by(CONNECTIONS as usize)
                .map(|k| SweepRequest::nth(9, k, CIRCUITS))
                .collect();
            for circuit in 0..CIRCUITS {
                let on: Vec<&SweepRequest> =
                    requests.iter().filter(|r| r.circuit == circuit).collect();
                let coverage = on.iter().filter(|r| r.ndetect.is_none()).count();
                let share = coverage as f64 / requests.len() as f64;
                let expected = 0.5 / CIRCUITS as f64;
                assert!(
                    (share - expected).abs() < 0.2 * expected,
                    "connection {connection}, circuit {circuit}: {share}"
                );
                for n in 1..=8 {
                    assert!(
                        on.iter().any(|r| r.ndetect == Some(n)),
                        "connection {connection}, circuit {circuit}, n = {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_checked_sample_covers_every_operation_circuit_and_n() {
        let sample: Vec<SweepRequest> = (0..100_000)
            .filter(|&k| sampled(9, k))
            .map(|k| SweepRequest::nth(9, k, CIRCUITS))
            .collect();
        assert!((2900..3350).contains(&sample.len()), "{}", sample.len());
        for circuit in 0..CIRCUITS {
            let on = |r: &&SweepRequest| r.circuit == circuit;
            assert!(sample.iter().filter(on).any(|r| r.ndetect.is_none()));
            for n in 1..=8 {
                assert!(
                    sample.iter().filter(on).any(|r| r.ndetect == Some(n)),
                    "circuit {circuit}, n = {n}"
                );
            }
        }
    }
}
