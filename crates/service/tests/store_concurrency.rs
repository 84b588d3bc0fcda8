//! Concurrency obligations of the [`CircuitStore`]: N client threads
//! hammering a mix of cached and uncached circuits must trigger
//! **exactly one** compilation per distinct structure (asserted against
//! the global [`LevelizedCsr::build_count`] levelization counter), LRU
//! eviction must bound the store, and every thread must receive the
//! same shared compilation.
//!
//! The levelization counter is process-global, so the tests in this
//! file serialize on a local mutex (each integration-test binary is its
//! own process, so no other suite can interfere).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use adi_netlist::{bench_format, LevelizedCsr, Netlist};
use adi_service::{CacheOutcome, CircuitStore, StoreConfig};

static BUILD_COUNT_LOCK: Mutex<()> = Mutex::new(());

/// A family of structurally distinct circuits (inverter chains of
/// different depth).
fn chain(depth: usize) -> Netlist {
    let mut text = String::from("INPUT(a)\nOUTPUT(y)\n");
    let mut prev = "a".to_string();
    for i in 0..depth {
        text.push_str(&format!("n{i} = NOT({prev})\n"));
        prev = format!("n{i}");
    }
    text.push_str(&format!("y = NOT({prev})\n"));
    bench_format::parse(&text, "chain").unwrap()
}

#[test]
fn concurrent_mixed_traffic_compiles_each_circuit_exactly_once() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    const THREADS: usize = 8;
    const DISTINCT: usize = 6;
    const ROUNDS: usize = 5;

    let store = CircuitStore::new(StoreConfig::default());
    let circuits: Vec<Netlist> = (0..DISTINCT).map(chain).collect();
    let misses = AtomicU64::new(0);
    let before = LevelizedCsr::build_count();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let circuits = &circuits;
            let store = &store;
            let misses = &misses;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for i in 0..DISTINCT {
                        // Every thread walks the circuits in a different
                        // rotation, so cached and uncached requests mix.
                        let idx = (i + t + round) % DISTINCT;
                        let netlist = circuits[idx].clone();
                        let expected_hash = netlist.content_hash();
                        let (compiled, outcome) = store.get_or_compile(netlist);
                        assert_eq!(compiled.content_hash(), expected_hash);
                        if outcome == CacheOutcome::Miss {
                            misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Exactly one levelization — and one recorded miss — per distinct
    // structure, no matter how the threads raced.
    assert_eq!(
        LevelizedCsr::build_count() - before,
        DISTINCT as u64,
        "every distinct circuit must compile exactly once"
    );
    assert_eq!(misses.load(Ordering::Relaxed), DISTINCT as u64);
    let stats = store.stats();
    assert_eq!(stats.misses, DISTINCT as u64);
    assert_eq!(
        stats.hits + stats.misses + stats.coalesced,
        (THREADS * DISTINCT * ROUNDS) as u64
    );
    assert_eq!(stats.entries, DISTINCT);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn concurrent_first_requests_for_one_circuit_single_flight() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    const THREADS: usize = 16;
    let store = CircuitStore::new(StoreConfig::default());
    let netlist = chain(12);
    let before = LevelizedCsr::build_count();

    let outcomes: Vec<CacheOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let netlist = netlist.clone();
                let store = &store;
                scope.spawn(move || {
                    let (compiled, outcome) = store.get_or_compile(netlist);
                    (compiled, outcome)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread got the *same* compilation.
        for pair in results.windows(2) {
            assert!(pair[0].0.same_compilation(&pair[1].0));
        }
        results.into_iter().map(|(_, o)| o).collect()
    });

    assert_eq!(
        LevelizedCsr::build_count() - before,
        1,
        "single-flight: one compile total"
    );
    let miss_count = outcomes.iter().filter(|&&o| o == CacheOutcome::Miss).count();
    assert_eq!(miss_count, 1, "exactly one request recorded the miss");
}

#[test]
fn eviction_under_concurrent_overflow_stays_bounded_and_correct() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    const THREADS: usize = 6;
    const DISTINCT: usize = 12;
    let config = StoreConfig {
        shards: 2,
        capacity: 4,
    };
    let store = CircuitStore::new(config);
    let circuits: Vec<Netlist> = (0..DISTINCT).map(chain).collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let circuits = &circuits;
            let store = &store;
            scope.spawn(move || {
                for round in 0..4 {
                    for i in 0..DISTINCT {
                        let idx = (i * (t + 1) + round) % DISTINCT;
                        let netlist = circuits[idx].clone();
                        let expected_hash = netlist.content_hash();
                        let expected_nodes = netlist.num_nodes();
                        let (compiled, _) = store.get_or_compile(netlist);
                        // Eviction must never hand back the wrong circuit.
                        assert_eq!(compiled.content_hash(), expected_hash);
                        assert_eq!(compiled.netlist().num_nodes(), expected_nodes);
                    }
                }
            });
        }
    });

    let stats = store.stats();
    assert!(
        stats.entries <= stats.capacity,
        "{} entries exceed capacity {}",
        stats.entries,
        stats.capacity
    );
    assert!(stats.evictions > 0, "the working set must have overflowed");
    // Evicted circuits recompile on demand — so misses exceed the
    // distinct count, but the store still answers correctly (asserted
    // per-request above).
    assert!(stats.misses >= DISTINCT as u64);
}

#[test]
fn cost_aware_eviction_retains_the_expensive_entry_under_concurrent_overflow() {
    let _guard = BUILD_COUNT_LOCK.lock().unwrap();
    const THREADS: usize = 6;
    const DISTINCT: usize = 10;
    let store = CircuitStore::new(StoreConfig {
        shards: 1,
        capacity: 3,
    });
    // One deep chain — far more nodes and fanin edges than any of the
    // shallow circuits, so its replacement cost (node plus fanin-edge
    // count) exceeds theirs by over an order of magnitude. Compiled
    // first and never touched again: pure LRU would evict it at once.
    let costly = chain(600);
    let costly_hash = costly.content_hash();
    store.get_or_compile(costly);

    let circuits: Vec<Netlist> = (0..DISTINCT).map(|i| chain(4 + i)).collect();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let circuits = &circuits;
            let store = &store;
            scope.spawn(move || {
                for round in 0..4 {
                    for i in 0..DISTINCT {
                        let idx = (i * (t + 1) + round) % DISTINCT;
                        let netlist = circuits[idx].clone();
                        let expected_hash = netlist.content_hash();
                        let (compiled, _) = store.get_or_compile(netlist);
                        assert_eq!(compiled.content_hash(), expected_hash);
                    }
                }
            });
        }
    });

    let stats = store.stats();
    assert!(stats.entries <= stats.capacity);
    assert!(stats.evictions > 0, "the shallow circuits must have overflowed the shard");
    assert!(stats.bytes > 0, "resident bytes are accounted");
    assert!(
        store.lookup(costly_hash).is_some(),
        "cost-aware eviction must sacrifice cheap entries before the expensive one"
    );
}
