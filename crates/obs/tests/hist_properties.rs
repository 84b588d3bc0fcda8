//! Property tests of the lock-free histogram: concurrent recording and
//! cross-thread merging must be indistinguishable from one thread
//! recording every value serially.

use adi_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

fn serial_reference(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    /// Per-thread histograms merged into one equal the serial result —
    /// the pattern the sim workers use.
    #[test]
    fn concurrent_merge_equals_serial(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..200), 1..8)
    ) {
        let merged = Histogram::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        let h = Histogram::new();
                        for &v in chunk {
                            h.record(v);
                        }
                        h
                    })
                })
                .collect();
            for handle in handles {
                merged.merge_from(&handle.join().unwrap());
            }
        });
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        prop_assert_eq!(merged.snapshot(), serial_reference(&all));
    }

    /// Threads hammering one shared histogram lose nothing (the count,
    /// sum, max, and every bucket match the serial reference).
    #[test]
    fn shared_concurrent_recording_equals_serial(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..200), 1..8)
    ) {
        let shared = Histogram::new();
        std::thread::scope(|scope| {
            for chunk in &chunks {
                let shared = &shared;
                scope.spawn(move || {
                    for &v in chunk {
                        shared.record(v);
                    }
                });
            }
        });
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        prop_assert_eq!(shared.snapshot(), serial_reference(&all));
    }

    /// Quantiles are bucket upper bounds clamped to the observed max:
    /// every reported percentile is reached by the recorded data and
    /// never exceeds the true maximum.
    #[test]
    fn quantiles_bound_the_data(values in proptest::collection::vec(any::<u64>(), 1..500)) {
        let snapshot = serial_reference(&values);
        let max = *values.iter().max().unwrap();
        prop_assert_eq!(snapshot.max, max);
        prop_assert!(snapshot.p50 <= snapshot.p90);
        prop_assert!(snapshot.p90 <= snapshot.p99);
        prop_assert!(snapshot.p99 <= snapshot.p999);
        prop_assert!(snapshot.p999 <= max);
        prop_assert_eq!(snapshot.count, values.len() as u64);
        prop_assert_eq!(snapshot.sum, values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
    }
}
