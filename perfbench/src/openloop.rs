//! Open-loop accounting: a schedule fixes when each request is due, and
//! every request is timed from its due time, so a stall of the sender or
//! of the server is charged to every request it delays.

use crate::stats::percentile;

/// A fixed-rate arrival schedule starting at offset 0.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    rate: f64,
}

impl Schedule {
    /// Requests at `rate` per second, evenly spaced.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        Schedule { rate }
    }

    /// Due time of request `i`, in nanoseconds from the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * 1e9 / self.rate) as u64
    }

    /// Number of requests due within `window_ns` of the start.
    pub fn count_within(&self, window_ns: u64) -> u64 {
        ((window_ns as f64 / 1e9) * self.rate).ceil() as u64
    }
}

/// One request of an open-loop phase, in nanoseconds from a common origin.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Record {
    /// When the schedule wanted the request sent.
    pub due_ns: u64,
    /// When its write started.
    pub sent_ns: u64,
    /// When its response arrived, or `None` if it never did.
    pub done_ns: Option<u64>,
}

impl Record {
    /// Latency charged to the request: from its due time to its response,
    /// so lateness of the sender counts against the system.
    pub fn latency_ns(&self) -> Option<u64> {
        self.done_ns.map(|d| d.saturating_sub(self.due_ns))
    }

    /// How late the generator sent the request against the schedule.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Latency percentiles of a phase, in milliseconds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PhaseLatency {
    /// Median latency from due time.
    pub p50_ms: f64,
    /// 90th percentile latency from due time.
    pub p90_ms: f64,
    /// 99th percentile of sender lateness.
    pub late_p99_ms: f64,
    /// Requests that never got a response.
    pub missing: usize,
}

/// Summarizes a phase's records.
pub fn phase_latency(records: &[Record]) -> PhaseLatency {
    let lat: Vec<f64> = records
        .iter()
        .filter_map(Record::latency_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let late: Vec<f64> = records.iter().map(|r| r.late_ns() as f64 / 1e6).collect();
    PhaseLatency {
        p50_ms: percentile(&lat, 50.0),
        p90_ms: percentile(&lat, 90.0),
        late_p99_ms: percentile(&late, 99.0),
        missing: records.len() - lat.len(),
    }
}

/// Whether the requests outstanding (sent but unanswered) grew over a
/// phase: `samples` are `(time_ns, outstanding)` pairs taken while
/// sending. The backlog grows when the median of the last third exceeds
/// the median of the first third by more than `slack` requests. A server
/// keeping up holds the outstanding count flat, however noisy.
pub fn backlog_grows(samples: &[(u64, u64)], slack: u64) -> bool {
    if samples.len() < 6 {
        return false;
    }
    let third = samples.len() / 3;
    let head: Vec<f64> = samples[..third].iter().map(|&(_, o)| o as f64).collect();
    let tail: Vec<f64> = samples[samples.len() - third..]
        .iter()
        .map(|&(_, o)| o as f64)
        .collect();
    percentile(&tail, 50.0) > percentile(&head, 50.0) + slack as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_evenly() {
        let s = Schedule::new(1000.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 1_000_000);
        assert_eq!(s.due_ns(250), 250_000_000);
        assert_eq!(s.count_within(2_000_000_000), 2000);
    }

    #[test]
    fn a_late_send_is_charged_from_the_due_time() {
        // Due at 10 ms, sent 5 ms late, answered 1 ms after sending: the
        // request waited 6 ms for the system, not 1 ms.
        let r = Record {
            due_ns: 10_000_000,
            sent_ns: 15_000_000,
            done_ns: Some(16_000_000),
        };
        assert_eq!(r.latency_ns(), Some(6_000_000));
        assert_eq!(r.late_ns(), 5_000_000);
    }

    #[test]
    fn a_stall_delays_every_queued_request() {
        // One request per ms; the sender stalls 20 ms before request 1,
        // then sends the backlog at once. Each delayed request carries
        // the stall it waited through.
        let records: Vec<Record> = (0..21u64)
            .map(|i| {
                let due = i * 1_000_000;
                let sent = if i == 0 { 0 } else { 20_000_000 };
                Record {
                    due_ns: due,
                    sent_ns: sent,
                    done_ns: Some(sent + 100_000),
                }
            })
            .collect();
        assert_eq!(records[1].latency_ns(), Some(19_100_000));
        assert_eq!(records[20].latency_ns(), Some(100_000));
        let phase = phase_latency(&records);
        assert!(phase.p50_ms > 9.0, "{phase:?}");
        assert!(phase.late_p99_ms > 18.0, "{phase:?}");
        assert_eq!(phase.missing, 0);
    }

    #[test]
    fn unanswered_requests_are_counted_missing() {
        let records = [
            Record {
                due_ns: 0,
                sent_ns: 0,
                done_ns: Some(1),
            },
            Record {
                due_ns: 1,
                sent_ns: 1,
                done_ns: None,
            },
        ];
        assert_eq!(phase_latency(&records).missing, 1);
    }

    #[test]
    fn a_flat_backlog_is_not_growing() {
        let samples: Vec<(u64, u64)> = (0..300u64).map(|i| (i, 3 + i % 4)).collect();
        assert!(!backlog_grows(&samples, 4));
    }

    #[test]
    fn a_rising_backlog_is_growing() {
        let samples: Vec<(u64, u64)> = (0..300u64).map(|i| (i, i / 10)).collect();
        assert!(backlog_grows(&samples, 4));
    }

    #[test]
    fn a_single_spike_is_not_growth() {
        let mut samples: Vec<(u64, u64)> = (0..300u64).map(|i| (i, 2)).collect();
        samples[290].1 = 60;
        assert!(!backlog_grows(&samples, 4));
    }

    #[test]
    fn too_few_samples_never_count_as_growth() {
        assert!(!backlog_grows(&[(0, 0), (1, 50)], 4));
    }
}
