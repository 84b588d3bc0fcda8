//! Helpers shared by the integration suites that compare whole ATPG
//! results.

use adi::atpg::{PodemStats, TestGenResult};
use adi::sim::Pattern;

/// Longest vector printed whole; longer ones print a window around
/// their first differing input.
const WHOLE_VECTOR_BITS: usize = 256;

/// Asserts `left == right` under [`TestGenResult`]'s equality (tests,
/// targets, detection counts, statuses and the deterministic
/// [`PodemStats`]). On failure the message names only the first
/// difference, in under 1 KB: a test index with both vectors as bit
/// strings, a target, a detection count, a status, or a `PodemStats`
/// counter.
#[track_caller]
pub fn assert_same_result(context: &str, left: &TestGenResult, right: &TestGenResult) {
    if left != right {
        panic!("{context}: results differ at {}", first_difference(left, right));
    }
}

/// The first difference between two unequal results, in the order
/// tests, test count, targets, detection counts, statuses, counters.
fn first_difference(left: &TestGenResult, right: &TestGenResult) -> String {
    if let Some(i) = first_mismatch(&left.tests, &right.tests) {
        if let (Some(a), Some(b)) = (left.tests.get(i), right.tests.get(i)) {
            return format!("test {i}: {}", vectors(a, b));
        }
        return format!(
            "the test count: left {}, right {}",
            left.tests.len(),
            right.tests.len()
        );
    }
    if let Some(i) = first_mismatch(&left.targets, &right.targets) {
        return format!(
            "the target of test {i}: left {:?}, right {:?}",
            left.targets.get(i),
            right.targets.get(i)
        );
    }
    if let Some(i) = first_mismatch(&left.new_detections, &right.new_detections) {
        return format!(
            "the new detections of test {i}: left {:?}, right {:?}",
            left.new_detections.get(i),
            right.new_detections.get(i)
        );
    }
    if let Some(i) = first_mismatch(&left.status, &right.status) {
        return format!(
            "the status of fault {i}: left {:?}, right {:?}",
            left.status.get(i),
            right.status.get(i)
        );
    }
    let (a, b) = (left.podem_stats.deterministic(), right.podem_stats.deterministic());
    counters(&a)
        .into_iter()
        .zip(counters(&b))
        .find(|(x, y)| x.1 != y.1)
        .map(|((name, x), (_, y))| format!("PodemStats::{name}: left {x}, right {y}"))
        .unwrap_or_else(|| format!("PodemStats: left {a:?}, right {b:?}"))
}

/// The first index where `left` and `right` differ, a shorter one
/// ending first; `None` when they are equal.
fn first_mismatch<T: PartialEq>(left: &[T], right: &[T]) -> Option<usize> {
    let common = left.iter().zip(right).position(|(a, b)| a != b);
    common.or((left.len() != right.len()).then(|| left.len().min(right.len())))
}

/// Both vectors as bit strings; a window of them when they are long.
fn vectors(left: &Pattern, right: &Pattern) -> String {
    let (a, b) = (left.to_string(), right.to_string());
    if a.len() <= WHOLE_VECTOR_BITS && b.len() <= WHOLE_VECTOR_BITS {
        return format!("left {a}, right {b}");
    }
    let first = first_mismatch(a.as_bytes(), b.as_bytes()).unwrap_or(0);
    let start = first.saturating_sub(32);
    let end = |s: &str| s.len().min(start + 128);
    format!(
        "{} and {} inputs, first difference at input {first}; inputs {start}.. left {}, right {}",
        a.len(),
        b.len(),
        &a[start.min(a.len())..end(&a)],
        &b[start.min(b.len())..end(&b)]
    )
}

/// The deterministic counters by name, in declaration order.
fn counters(s: &PodemStats) -> [(&'static str, u64); 13] {
    [
        ("targets", s.targets),
        ("tests", s.tests),
        ("untestable", s.untestable),
        ("aborted", s.aborted),
        ("backtracks", s.backtracks),
        ("decisions", s.decisions),
        ("sim_events", s.sim_events),
        ("sim_updates", s.sim_updates),
        ("sat_resolved.redundant", s.sat_resolved.redundant),
        ("sat_resolved.testable", s.sat_resolved.testable),
        ("sat_resolved.undecided", s.sat_resolved.undecided),
        ("screen_redundant", s.screen_redundant),
        ("screen_testable", s.screen_testable),
    ]
}
