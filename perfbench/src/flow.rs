//! The `flow` workload: the paper's ordered-ATPG pipeline, stage by stage,
//! in a closed loop on one thread over a seeded circuit set.
//!
//! One pass takes every circuit of the set through parse and compile, `U`
//! selection, the ADI analysis, the `F0dynm` order, and test generation
//! under `F0dynm` and under `Forig`, all with library defaults. Passes
//! repeat until the run's time is up.

use std::time::Instant;

use adi_atpg::{FaultStatus, TestGenConfig, TestGenResult, TestGenerator};
use adi_core::metrics::average_detection_position;
use adi_core::uset::{select_u_for, USetConfig};
use adi_core::{order_faults, AdiAnalysis, AdiConfig, FaultOrdering};
use adi_netlist::fault::FaultId;
use adi_netlist::{bench_format, CompiledCircuit};
use adi_sim::{FaultSimulator, PatternSet};

use crate::inputs::{self, BenchCircuit};
use crate::report::{Outcome, Report};
use crate::stats::{median, ms, percentile};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What one circuit's flow produced.
struct CircuitRun {
    faults: usize,
    u_vectors: usize,
    detections: usize,
    order: Vec<FaultId>,
    dynamic: TestGenResult,
    original: TestGenResult,
}

/// Runs the workload and reports its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut circuits = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let set = inputs::flow_circuits(seed)?;
        setups.push(t.elapsed().as_secs_f64());
        if !circuits.is_empty() && circuits != set {
            return Err("the circuit set differs between set-ups of one seed".into());
        }
        circuits = set;
    }

    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false);
    let mut untraced_ns: Vec<u64> = Vec::new();
    let mut traced_ns: Vec<u64> = Vec::new();
    let mut first_pass: Vec<CircuitRun> = Vec::new();
    let mut counts = Counts::default();
    let start = Instant::now();
    // Pass 0 warms up (first allocations, lazy initialisation): it is
    // checked but not timed. After it, a traced run alternates traced and
    // untraced passes, so its own overhead is measured against passes of
    // the same process.
    let min_passes = if traced { 3 } else { 2 };
    let mut warm_up_ns = 0u64;
    let mut pass = 0usize;
    while pass < min_passes || start.elapsed().as_secs_f64() < seconds {
        let trace_this = traced && pass % 2 == 1;
        tracer.set_enabled(trace_this);
        let mut pass_ns = 0u64;
        for (i, circuit) in circuits.iter().enumerate() {
            let t = Instant::now();
            let run = flow_one(circuit, &mut tracer)?;
            pass_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            out.attempted += 1;
            let failures = if pass == 0 {
                check(circuit, &run)
            } else {
                same_as(&first_pass[i], &run)
            };
            if !failures.is_empty() {
                out.failed += 1;
                for f in failures {
                    eprintln!("perfbench: flow check failed on {}: {f}", circuit.name);
                }
            }
            if trace_this {
                counts.add(&run);
            }
            if pass == 0 {
                first_pass.push(run);
            }
        }
        if pass == 0 {
            warm_up_ns = pass_ns;
        } else if trace_this {
            traced_ns.push(pass_ns);
        } else {
            untraced_ns.push(pass_ns);
        }
        pass += 1;
    }

    let mut report = Report::default();
    if traced {
        let passes = traced_ns.len() as f64;
        let per_pass = |name: &str| ms(tracer.total_ns(name)) / passes;
        let layers = [
            "netlist.compile",
            "core.uset",
            "core.adi",
            "core.order",
            "atpg.run",
        ];
        for name in layers {
            report.layer(&format!("{name}_ms"), per_pass(name));
        }
        // Flow time the layer spans do not cover.
        let spanned: u64 = layers.iter().map(|n| tracer.total_ns(n)).sum();
        let flow_ns: u64 = traced_ns.iter().sum();
        report.layer(
            "flow.residual_ms",
            ms(flow_ns.saturating_sub(spanned)) / passes,
        );
        report.layer("trace.spans", tracer.len() as f64);
        counts.report(&mut report, passes, &first_pass);
        let base = median(&untraced_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
        let with = median(&traced_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
        report.layer("trace.overhead_pct", (with / base - 1.0) * 100.0);
    } else {
        let pass_ms: Vec<f64> = untraced_ns.iter().map(|&n| ms(n)).collect();
        let p50 = median(&pass_ms);
        report.metric("setup_s", median(&setups));
        report.metric("p50_ms", p50);
        report.metric("p90_ms", percentile(&pass_ms, 90.0));
        // Throughput at the median pass: a mean over the run would carry
        // every stall the host put into it.
        report.metric("rps", circuits.len() as f64 * 1e3 / p50);
        report.metric("peak_rss_mb", crate::report::peak_rss_mb("self")?);
    }
    report.outcome = out;
    eprintln!(
        "perfbench: flow: {} circuits x {pass} passes, warm-up {:.0} ms, timed passes {:?} ms",
        circuits.len(),
        ms(warm_up_ns),
        untraced_ns
            .iter()
            .chain(&traced_ns)
            .map(|&n| ms(n).round())
            .collect::<Vec<_>>()
    );
    Ok(report)
}

/// One circuit through the whole pipeline, each layer call in its span.
fn flow_one(c: &BenchCircuit, tr: &mut Tracer) -> Result<CircuitRun, String> {
    let circuit = tr.time("netlist.compile", || {
        let netlist = bench_format::parse(&c.bench, &c.name).map_err(|e| e.to_string())?;
        let circuit = CompiledCircuit::compile(netlist);
        circuit.collapsed_faults();
        Ok::<_, String>(circuit)
    })?;
    let faults = circuit.collapsed_faults();
    let selection = tr.time("core.uset", || {
        select_u_for(&circuit, faults, USetConfig::default())
    });
    let analysis = tr.time("core.adi", || {
        AdiAnalysis::for_circuit(&circuit, faults, &selection.patterns, AdiConfig::default())
    });
    let order = tr.time("core.order", || {
        order_faults(&analysis, FaultOrdering::Dynamic0)
    });
    let original = order_faults(&analysis, FaultOrdering::Original);
    let (dynamic, original_run) = tr.time("atpg.run", || {
        let generator = TestGenerator::for_circuit(&circuit, faults, TestGenConfig::default());
        (generator.run(&order), generator.run(&original))
    });
    let detections = faults
        .ids()
        .map(|f| analysis.matrix().detection_count(f))
        .sum();
    Ok(CircuitRun {
        faults: faults.len(),
        u_vectors: selection.len(),
        detections,
        order,
        dynamic,
        original: original_run,
    })
}

/// Output checks of a first pass: the `F0dynm` order is a permutation of
/// the fault list, and re-simulating each test set with dropping detects
/// exactly the faults test generation reported detected.
fn check(c: &BenchCircuit, run: &CircuitRun) -> Vec<String> {
    let mut failures = Vec::new();
    let mut seen = vec![false; run.faults];
    let permutation = run.order.len() == run.faults
        && run
            .order
            .iter()
            .all(|f| f.index() < run.faults && !std::mem::replace(&mut seen[f.index()], true));
    if !permutation {
        failures.push("the F0dynm order is not a permutation of the fault list".to_string());
    }
    let netlist = bench_format::parse(&c.bench, &c.name).expect("checked bench text parses");
    let circuit = CompiledCircuit::compile(netlist);
    let sim = FaultSimulator::for_circuit(&circuit, circuit.collapsed_faults());
    for (label, result) in [("F0dynm", &run.dynamic), ("Forig", &run.original)] {
        let tests = PatternSet::from_patterns(c.inputs, &result.tests);
        let detected = sim.with_dropping(&tests).num_detected();
        if detected != result.num_detected() {
            failures.push(format!(
                "{label}: re-simulation detects {detected} faults, test generation reported {}",
                result.num_detected()
            ));
        }
    }
    failures
}

/// Later passes must reproduce the first pass exactly.
fn same_as(first: &CircuitRun, run: &CircuitRun) -> Vec<String> {
    let same = first.order == run.order
        && first.dynamic == run.dynamic
        && first.original == run.original
        && first.u_vectors == run.u_vectors;
    if same {
        Vec::new()
    } else {
        vec!["a later pass produced different results".to_string()]
    }
}

/// Work counts and ATPG timings summed over the traced passes.
#[derive(Default)]
struct Counts {
    u_vectors: u64,
    detections: u64,
    generate_ns: u64,
    drop_ns: u64,
    targets: u64,
    decisions: u64,
    backtracks: u64,
    aborted_targets: u64,
    sat_redundant: u64,
    sat_testable: u64,
    sat_undecided: u64,
    tests: u64,
    detected: u64,
    accidental: u64,
}

impl Counts {
    fn add(&mut self, run: &CircuitRun) {
        self.u_vectors += run.u_vectors as u64;
        self.detections += run.detections as u64;
        for r in [&run.dynamic, &run.original] {
            let s = &r.podem_stats;
            self.generate_ns += r.timing.generate_ns;
            self.drop_ns += r.timing.drop_ns;
            self.targets += s.targets;
            self.decisions += s.decisions;
            self.backtracks += s.backtracks;
            self.aborted_targets += s.aborted;
            self.sat_redundant += s.sat_resolved.redundant;
            self.sat_testable += s.sat_resolved.testable;
            self.sat_undecided += s.sat_resolved.undecided;
            self.tests += r.num_tests() as u64;
            self.detected += r.num_detected() as u64;
            self.accidental += r
                .status
                .iter()
                .filter(|s| matches!(s, FaultStatus::DetectedAccidentally { .. }))
                .count() as u64;
        }
    }

    fn report(&self, report: &mut Report, passes: f64, first_pass: &[CircuitRun]) {
        let per_pass = |v: u64| v as f64 / passes;
        report.layer("atpg.generate_ms", ms(self.generate_ns) / passes);
        report.layer("atpg.drop_ms", ms(self.drop_ns) / passes);
        report.layer("core.u_vectors", per_pass(self.u_vectors));
        report.layer("core.detections", per_pass(self.detections));
        report.layer("atpg.targets", per_pass(self.targets));
        report.layer("atpg.decisions", per_pass(self.decisions));
        report.layer("atpg.backtracks", per_pass(self.backtracks));
        report.layer("atpg.aborted_targets", per_pass(self.aborted_targets));
        report.layer("atpg.sat_redundant", per_pass(self.sat_redundant));
        report.layer("atpg.sat_testable", per_pass(self.sat_testable));
        report.layer("atpg.sat_undecided", per_pass(self.sat_undecided));
        report.layer(
            "atpg.accidental_frac",
            self.accidental as f64 / self.detected.max(1) as f64,
        );
        report.layer(
            "atpg.targets_per_test",
            self.targets as f64 / self.tests.max(1) as f64,
        );
        // Quality of the paper's result; identical on every pass.
        let tests: usize = first_pass.iter().map(|r| r.dynamic.num_tests()).sum();
        let aborted: usize = first_pass.iter().map(|r| r.dynamic.num_aborted()).sum();
        let ratios: Vec<f64> = first_pass
            .iter()
            .map(|r| {
                let ave = |t: &TestGenResult| average_detection_position(&t.coverage_curve());
                ave(&r.dynamic) / ave(&r.original)
            })
            .collect();
        report.layer("flow.tests", tests as f64);
        report.layer(
            "flow.ave_ratio",
            ratios.iter().sum::<f64>() / ratios.len() as f64,
        );
        report.layer("flow.aborted", aborted as f64);
    }
}
