//! Throughput of stuck-at fault simulation: no-drop (the ADI workload)
//! serial vs. parallel, and with dropping.

use adi_circuits::paper_suite;
use adi_sim::{FaultSimulator, PatternSet, StemRegionEngine};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_no_drop(c: &mut Criterion) {
    let circuit = paper_suite().into_iter().find(|s| s.name == "irs208").unwrap();
    let compiled = circuit.compiled();
    let faults = compiled.collapsed_faults();
    let patterns = PatternSet::random(compiled.netlist().num_inputs(), 512, 3);

    let mut group = c.benchmark_group("fault_sim_no_drop_irs208_512v");
    group.sample_size(20);
    let sim = FaultSimulator::for_circuit(&compiled, faults);
    group.bench_function("stem-region/serial", |b| {
        b.iter(|| sim.no_drop_matrix(&patterns))
    });
    group.bench_function("stem-region/parallel4", |b| {
        b.iter(|| sim.no_drop_matrix_parallel(&patterns, 4))
    });
    // Amortized stem-region: setup (fault grouping) hoisted out too.
    let engine = StemRegionEngine::for_circuit(&compiled, faults);
    group.bench_function("stem-region/prebuilt", |b| {
        b.iter(|| engine.no_drop_matrix(&patterns))
    });
    group.finish();
}

fn bench_dropping(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim_dropping_512v");
    group.sample_size(20);
    for circuit in paper_suite().into_iter().filter(|s| s.gates <= 300) {
        let compiled = circuit.compiled();
        let faults = compiled.collapsed_faults();
        let patterns = PatternSet::random(compiled.netlist().num_inputs(), 512, 3);
        let sim = FaultSimulator::for_circuit(&compiled, faults);
        group.bench_function(format!("{}/stem-region", circuit.name), |b| {
            b.iter(|| sim.with_dropping(&patterns))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_no_drop, bench_dropping);
criterion_main!(benches);
