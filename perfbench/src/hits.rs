//! The `serve_hits` workload: one pipelined connection (one sender thread,
//! one receiver thread) replaying a seeded Zipf mix of scenarios primed
//! during set-up, so nearly every request is a scenario-cache hit.
//!
//! The end-to-end metrics come from a closed loop that keeps a fixed
//! window of requests in flight: a sub-millisecond hit's latency at a low
//! offered rate mostly measures how fast a small VM wakes threads, which
//! varies by tens of percent from run to run, while a busy server's
//! latency and throughput measure the service. The traced run adds the
//! open-loop view: latency from each request's due time at a fixed rate,
//! and the highest rate sustained within a latency limit.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::inputs::{self, BenchCircuit, HitClass, Scenario};
use crate::openloop::{backlog_grows, phase_latency, Record, Schedule};
use crate::report::{Outcome, Report};
use crate::serve::{self, ok_payload, response_id, Client, Server, Stats};
use crate::stats::{median, windowed_percentile};
use crate::trace::Tracer;

/// Requests the closed loop keeps in flight on the connection.
const WINDOW: u64 = 32;

/// The fixed offered rate of the traced run's open loop.
const BASE_RATE: f64 = 1000.0;

/// The p90 latency limit a rate must meet to count as sustained. The
/// tail is p90 rather than p99 because on a small VM the p99 of a
/// sub-millisecond request reads the host's scheduling stalls (a bare
/// `sleep` wakes 0.2-4 ms late at p99, varying run to run).
const LIMIT_MS: f64 = 10.0;

/// Each ladder rate is offered for this long.
const RUNG: Duration = Duration::from_millis(1000);

/// Factor between ladder rates until the first rate fails; after that
/// the ladder bisects between the highest sustained and lowest failed
/// rate.
const STEP: f64 = 2.0;

/// Requests outstanding on the connection beyond which a rate is failed
/// and its phase cut short: below the server's per-connection admission
/// cap (64 by default), so probing past capacity never makes it shed.
const ABORT_OUTSTANDING: u64 = 48;

/// Samples per window of the windowed p90.
const TAIL_WINDOW: usize = 1000;

/// Growth of the outstanding count, in requests, that marks a backlog.
const BACKLOG_SLACK: u64 = 8;

/// Length of the replay sequence; requests cycle through it.
const MIX_LEN: usize = 1 << 16;

/// A request's id is its sequence number times this plus its scenario,
/// so the receiver knows which primed payload to expect whatever
/// sequence the sender replays.
const ID_SCENARIOS: u64 = 64;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Replays of each scenario in the in-process probe of the traced run.
const IN_PROCESS_REPS: usize = 20;

struct Setup {
    server: Server,
    circuits: Vec<BenchCircuit>,
    hashes: Vec<String>,
    scenarios: Vec<Scenario>,
    bodies: Vec<String>,
    payloads: Vec<String>,
    mix: Vec<usize>,
}

/// Generates the inputs, starts the server, registers the circuits and
/// primes every scenario.
fn set_up(exe: &Path, seed: u64) -> Result<Setup, String> {
    let circuits = inputs::serve_circuits(seed, 2);
    let scenarios = inputs::hit_scenarios(seed, &circuits);
    let mix = inputs::hit_mix(seed, &scenarios, MIX_LEN);
    let server = Server::start(exe)?;
    let mut client = Client::connect(server.addr)?;
    let hashes = serve::compile_all(&mut client, &circuits)?;
    let bodies: Vec<String> = scenarios
        .iter()
        .map(|s| s.body(&hashes[s.circuit]))
        .collect();
    let payloads = bodies
        .iter()
        .map(|b| client.call_ok(b))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        server,
        circuits,
        hashes,
        scenarios,
        bodies,
        payloads,
        mix,
    })
}

/// What the receiver thread shares with the sender.
#[derive(Default)]
struct Shared {
    received: AtomicU64,
    errors: AtomicU64,
    mismatches: AtomicU64,
    done: Mutex<Vec<(u64, u64)>>,
}

/// One offered rate's requests.
struct Phase {
    records: Vec<Record>,
    backlog: Vec<(u64, u64)>,
    cut_short: bool,
    errors: u64,
    mismatches: u64,
}

impl Phase {
    fn sustained(&self) -> bool {
        let lat = phase_latency(&self.records);
        !self.cut_short
            && self.errors == 0
            && self.mismatches == 0
            && lat.missing == 0
            && lat.p90_ms <= LIMIT_MS
            && !backlog_grows(&self.backlog, BACKLOG_SLACK)
    }

    /// Round-trip times from the actual send, in milliseconds.
    fn rtts_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.done_ns.map(|d| d.saturating_sub(r.sent_ns) as f64 / 1e6))
            .collect()
    }
}

/// The sending side of the connection.
struct Sender<'a> {
    writer: TcpStream,
    origin: Instant,
    sent: u64,
    shared: Arc<Shared>,
    bodies: &'a [String],
    tracer: Tracer,
}

impl Sender<'_> {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sends the next request of `mix` in one write; returns when the
    /// write started.
    fn send_next(&mut self, mix: &[usize]) -> Result<u64, String> {
        let scenario = mix[self.sent as usize % mix.len()];
        let id = self.sent * ID_SCENARIOS + scenario as u64;
        let line = inputs::line(id, &self.bodies[scenario]);
        let sent_ns = self.now_ns();
        let writer = &mut self.writer;
        self.tracer
            .time("client.send", || writer.write_all(line.as_bytes()))
            .map_err(|e| format!("send: {e}"))?;
        self.sent += 1;
        Ok(sent_ns)
    }

    fn outstanding(&self) -> u64 {
        self.sent - self.shared.received.load(Ordering::SeqCst)
    }

    /// Keeps `window` requests of `mix` in flight for `length`, then
    /// waits for every response. Returns the phase and its length in
    /// nanoseconds up to the last response.
    fn saturate(
        &mut self,
        mix: &[usize],
        window: u64,
        length: Duration,
    ) -> Result<(Phase, u64), String> {
        let start_ns = self.now_ns();
        let end_ns = start_ns + u64::try_from(length.as_nanos()).unwrap_or(u64::MAX);
        let first = self.sent;
        let counters = self.counters();
        let mut records = Vec::new();
        while self.now_ns() < end_ns {
            if self.outstanding() >= window {
                // The receiver unparks this thread after every response.
                std::thread::park_timeout(Duration::from_millis(1));
                continue;
            }
            let sent_ns = self.send_next(mix)?;
            records.push(Record {
                due_ns: sent_ns,
                sent_ns,
                done_ns: None,
            });
        }
        let phase = self.finish(first, records, Vec::new(), false, counters)?;
        let last = phase
            .records
            .iter()
            .filter_map(|r| r.done_ns)
            .max()
            .unwrap_or(end_ns);
        Ok((phase, last - start_ns))
    }

    /// Offers `rate` requests of `mix` per second for `length`, then
    /// waits for every response.
    fn phase(&mut self, mix: &[usize], rate: f64, length: Duration) -> Result<Phase, String> {
        let schedule = Schedule::new(rate);
        let count = schedule.count_within(u64::try_from(length.as_nanos()).unwrap_or(u64::MAX));
        let start_ns = self.now_ns();
        let first = self.sent;
        let counters = self.counters();
        let mut records = Vec::with_capacity(count as usize);
        let mut backlog = Vec::new();
        let mut cut_short = false;
        let mut last_sample = 0u64;
        for i in 0..count {
            let due_ns = start_ns + schedule.due_ns(i);
            let now = self.now_ns();
            if due_ns > now {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
            let sent_ns = self.send_next(mix)?;
            records.push(Record {
                due_ns,
                sent_ns,
                done_ns: None,
            });
            let outstanding = self.outstanding();
            if sent_ns - last_sample >= 1_000_000 {
                backlog.push((sent_ns, outstanding));
                last_sample = sent_ns;
            }
            if outstanding > ABORT_OUTSTANDING {
                cut_short = true;
                break;
            }
        }
        self.finish(first, records, backlog, cut_short, counters)
    }

    /// Error and mismatch counts so far.
    fn counters(&self) -> (u64, u64) {
        (
            self.shared.errors.load(Ordering::SeqCst),
            self.shared.mismatches.load(Ordering::SeqCst),
        )
    }

    /// Waits for the responses of the phase whose first request was the
    /// `first`-th sent, and fills in their arrival times.
    fn finish(
        &mut self,
        first: u64,
        mut records: Vec<Record>,
        backlog: Vec<(u64, u64)>,
        cut_short: bool,
        (errors0, mismatches0): (u64, u64),
    ) -> Result<Phase, String> {
        self.drain()?;
        let done = std::mem::take(&mut *self.shared.done.lock().expect("receiver panicked"));
        for (id, done_ns) in done {
            if let Some(r) = (id / ID_SCENARIOS)
                .checked_sub(first)
                .and_then(|i| records.get_mut(i as usize))
            {
                r.done_ns = Some(done_ns);
            }
        }
        Ok(Phase {
            records,
            backlog,
            cut_short,
            errors: self.shared.errors.load(Ordering::SeqCst) - errors0,
            mismatches: self.shared.mismatches.load(Ordering::SeqCst) - mismatches0,
        })
    }

    /// Waits until every request sent so far has its response.
    fn drain(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.shared.received.load(Ordering::SeqCst) < self.sent {
            if Instant::now() > deadline {
                return Err("responses stopped arriving".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }
}

/// Reads responses until the server closes the connection, checking each
/// against the payload primed for the scenario its id names.
fn receive(
    mut reader: BufReader<TcpStream>,
    shared: &Shared,
    origin: Instant,
    payloads: &[String],
    sender: std::thread::Thread,
) {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let done_ns = u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let response = line.trim_end_matches('\n');
        match response_id(response) {
            Some(id) => {
                let expected = payloads.get((id % ID_SCENARIOS) as usize);
                match ok_payload(response) {
                    Some(p) if Some(p) == expected.map(String::as_str) => {}
                    Some(_) => {
                        shared.mismatches.fetch_add(1, Ordering::SeqCst);
                    }
                    None => {
                        shared.errors.fetch_add(1, Ordering::SeqCst);
                    }
                }
                shared
                    .done
                    .lock()
                    .expect("sender panicked")
                    .push((id, done_ns));
            }
            None => {
                shared.errors.fetch_add(1, Ordering::SeqCst);
            }
        }
        shared.received.fetch_add(1, Ordering::SeqCst);
        sender.unpark();
    }
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
            let s = kept.as_ref().expect("just set");
            if previous.payloads != s.payloads || previous.hashes != s.hashes {
                return Err("primed responses differ between set-ups of one seed".into());
            }
            previous.server.stop()?;
        }
    }
    let s = kept.expect("at least one set-up");
    let mut control = Client::connect(s.server.addr)?;
    serve::idle_probe(&mut control, &s.bodies[0], 20)?;
    let before = Stats::scrape(&mut control)?;

    let (writer, reader) = Client::connect(s.server.addr)?.split();
    let shared = Arc::new(Shared::default());
    let origin = Instant::now();
    let mut report = Report::default();
    let mut phases: Vec<Phase> = Vec::new();
    let receiver_shared = Arc::clone(&shared);
    assert!(s.scenarios.len() as u64 <= ID_SCENARIOS);
    let measured = std::thread::scope(|scope| -> Result<(), String> {
        let payloads = &s.payloads;
        let me = std::thread::current();
        let receiver = scope.spawn(move || receive(reader, &receiver_shared, origin, payloads, me));
        let mut sender = Sender {
            writer,
            origin,
            sent: 0,
            shared: Arc::clone(&shared),
            bodies: &s.bodies,
            tracer: Tracer::new(false),
        };
        let result = if traced {
            measure_traced(&mut sender, &s, seconds, &mut phases, &mut report)
        } else {
            measure(&mut sender, &s.mix, seconds, &mut phases, &mut report)
        };
        let _ = sender.writer.shutdown(Shutdown::Write);
        receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string())?;
        result
    });
    measured?;

    let mut out = Outcome::default();
    for p in &phases {
        let missing = p.records.iter().filter(|r| r.done_ns.is_none()).count() as u64;
        out.attempted += p.records.len() as u64;
        out.failed += p.errors + p.mismatches + missing;
    }
    if traced {
        serve::report_server_layers(&mut report, &mut control, before)?;
        let rtt_p50_ms = median(&phases[0].rtts_ms());
        let mix_p50_us = in_process(&s, &mut report)?;
        report.layer("transport.residual_us", rtt_p50_ms * 1e3 - mix_p50_us);
    } else {
        report.metric("setup_s", median(&setups));
        report.metric("peak_rss_mb", s.server.peak_rss_mb()?);
    }
    report.outcome = out;
    drop(control);
    s.server.stop()?;
    Ok(report)
}

/// The untraced measurement: [`WINDOW`] requests in flight for the whole
/// run.
fn measure(
    sender: &mut Sender,
    mix: &[usize],
    seconds: f64,
    phases: &mut Vec<Phase>,
    report: &mut Report,
) -> Result<(), String> {
    let (phase, length_ns) = sender.saturate(mix, WINDOW, Duration::from_secs_f64(seconds))?;
    let rtts = phase.rtts_ms();
    report.metric("p50_ms", median(&rtts));
    report.metric("p90_ms", windowed_percentile(&rtts, 90.0, TAIL_WINDOW));
    report.metric("rps", rtts.len() as f64 / (length_ns as f64 / 1e9));
    phases.push(phase);
    Ok(())
}

/// The traced measurement: the open loop at [`BASE_RATE`], untraced and
/// then traced for the tracing overhead; each request class alone,
/// saturated like the untraced run, for its share of the mix's time; then
/// a ladder of rates for the highest one sustained within [`LIMIT_MS`].
fn measure_traced(
    sender: &mut Sender,
    s: &Setup,
    seconds: f64,
    phases: &mut Vec<Phase>,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let mix = &s.mix;
    let part = Duration::from_secs_f64(0.3 * seconds);
    let untraced = sender.phase(mix, BASE_RATE, part)?;
    sender.tracer.set_enabled(true);
    let traced = sender.phase(mix, BASE_RATE, part)?;
    sender.tracer.set_enabled(false);
    let (a, b) = (
        phase_latency(&untraced.records),
        phase_latency(&traced.records),
    );
    report.layer("loadgen.open_p50_ms", a.p50_ms);
    report.layer("loadgen.open_p90_ms", a.p90_ms);
    report.layer("loadgen.late_p99_ms", a.late_p99_ms);
    report.layer("client.rtt_p50_ms", median(&untraced.rtts_ms()));
    report.layer("trace.overhead_pct", (b.p50_ms / a.p50_ms - 1.0) * 100.0);
    report.layer("trace.spans", sender.tracer.len() as f64);
    let mut lo = if untraced.sustained() { BASE_RATE } else { 0.0 };
    let mut hi = f64::INFINITY;
    phases.push(untraced);
    phases.push(traced);
    // Each class's share of the mix's time: its share of the requests
    // times its cost per request when it runs alone.
    let mut weights = Vec::new();
    for class in HitClass::ALL {
        let only: Vec<usize> = mix
            .iter()
            .copied()
            .filter(|&i| s.scenarios[i].class == class)
            .collect();
        let (phase, length_ns) = sender.saturate(&only, WINDOW, RUNG)?;
        let answered = phase.records.iter().filter(|r| r.done_ns.is_some()).count();
        let share = only.len() as f64 / mix.len() as f64;
        weights.push((class, share * length_ns as f64 / answered.max(1) as f64));
        phases.push(phase);
    }
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    for (class, w) in weights {
        report.layer(&format!("hits.{}_time_frac", class.name()), w / total);
    }
    while start.elapsed().as_secs_f64() + RUNG.as_secs_f64() <= seconds {
        let rate = match (lo > 0.0, hi.is_finite()) {
            (true, false) => lo * STEP,
            (true, true) => (lo * hi).sqrt(),
            (false, _) => hi.min(BASE_RATE) / 2.0,
        };
        let phase = sender.phase(mix, rate, RUNG)?;
        if phase.sustained() {
            lo = rate;
        } else {
            hi = rate;
        }
        phases.push(phase);
    }
    report.layer("loadgen.max_rps", lo);
    Ok(())
}

/// Replays the scenarios through `ServiceState::handle_line` in this
/// process, on a state primed like the server. Returns the median handle
/// time over the replay mix, in microseconds.
fn in_process(s: &Setup, report: &mut Report) -> Result<f64, String> {
    let state = serve::in_process_state(&s.circuits, &s.hashes)?;
    let lines: Vec<String> = s
        .bodies
        .iter()
        .map(|b| inputs::line(0, b).trim_end().to_string())
        .collect();
    for (line, payload) in lines.iter().zip(&s.payloads) {
        if ok_payload(&state.handle_line(line)) != Some(payload.as_str()) {
            return Err("the in-process state answers a scenario differently".into());
        }
    }
    let mut tracer = Tracer::new(true);
    let (mut small, mut large, mut parse) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..IN_PROCESS_REPS {
        for (line, scenario) in lines.iter().zip(&s.scenarios) {
            tracer.time("service.handle", || state.handle_line(line));
            let us = tracer.last_ns() as f64 / 1e3;
            if scenario.class == HitClass::Explicit {
                large.push(us);
                tracer
                    .time("service.parse", || json::parse(line).map(drop))
                    .map_err(|e| format!("request does not parse: {e}"))?;
                parse.push(tracer.last_ns() as f64 / 1e3);
            } else {
                small.push(us);
            }
        }
    }
    report.layer("service.hit_small_us", median(&small));
    report.layer("service.hit_large_us", median(&large));
    report.layer("service.parse_us", median(&parse));
    let mixed: Vec<f64> = s.mix[..2000]
        .iter()
        .map(|&i| {
            tracer.time("service.handle", || state.handle_line(&lines[i]));
            tracer.last_ns() as f64 / 1e3
        })
        .collect();
    Ok(median(&mixed))
}
