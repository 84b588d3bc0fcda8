//! End-to-end ordered test generation — the measured quantity behind the
//! paper's Table 6 (run-time ratios between fault orders).

use adi_atpg::{TestGenConfig, TestGenerator};
use adi_circuits::paper_suite;
use adi_core::uset::select_u_for;
use adi_core::{order_faults, AdiAnalysis, AdiConfig, FaultOrdering, USetConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_testgen_orders(c: &mut Criterion) {
    let circuit = paper_suite().into_iter().find(|s| s.name == "irs208").unwrap();
    let compiled = circuit.compiled();
    let faults = compiled.collapsed_faults();
    let sel = select_u_for(&compiled, faults, USetConfig::default());
    let analysis = AdiAnalysis::for_circuit(&compiled, faults, &sel.patterns, AdiConfig::default());

    let mut group = c.benchmark_group("testgen_irs208");
    group.sample_size(10);
    for ord in [
        FaultOrdering::Original,
        FaultOrdering::Dynamic,
        FaultOrdering::Dynamic0,
        FaultOrdering::Incr0,
    ] {
        let order = order_faults(&analysis, ord);
        group.bench_function(ord.label(), |b| {
            b.iter(|| {
                TestGenerator::for_circuit(&compiled, faults, TestGenConfig::default())
                    .run(&order)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_testgen_orders);
criterion_main!(benches);
