//! Golden result digests: what the paper's flow produces, pinned across
//! commits.
//!
//! The differential suites compare two paths of one commit (engine
//! against reference, threads against the sequential loop), so a change
//! that moves both sides passes them. This suite compares against
//! committed tables instead. Each row is one (circuit, ordering) of the
//! library-default flow — `U` selection, the ADI, the fault order and
//! the ATPG run on one [`TestGenerator`] per circuit — and holds FNV-1a
//! digests of:
//!
//! * `u`: the selected vector set `U`;
//! * `adi`: the per-fault ADI values;
//! * `order`: the fault order;
//! * `result`: the [`TestGenResult`] — tests, targets, per-test new
//!   detections, per-fault status and the deterministic [`PodemStats`]
//!   counters, `sim_events`/`sim_updates` included;
//!
//! plus the test count in clear.
//!
//! Two tables live under `tests/golden/`: `small.txt` (irs208 to
//! irs526, checked in every build) and `large.txt` (irs641, irs820,
//! irs953, irs1196, irs5378 and irs13207, checked in release builds
//! only). irs820 has only 294 gates, but its two dynamic orders take
//! about 22 s in a debug build, so it sits with the release rows.
//!
//! A change that is meant to move outputs regenerates the tables with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -q --test golden_digests
//! UPDATE_GOLDEN=1 cargo test --release -q --test golden_digests
//! ```
//!
//! and names the moved rows in its change notes.

use std::collections::BTreeMap;
use std::path::PathBuf;

use adi::atpg::{FaultStatus, PodemStats, TestGenConfig, TestGenResult, TestGenerator};
use adi::circuits::{paper_suite, paper_suite_up_to, PaperCircuit};
use adi::core::uset::select_u_for;
use adi::core::{order_faults, AdiAnalysis, AdiConfig, FaultOrdering, USetConfig};
use adi::sim::Pattern;

/// 64-bit FNV-1a over explicitly serialized little-endian fields, so a
/// digest never depends on `std`'s `Hash` layout or hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn pattern(&mut self, p: &Pattern) {
        self.u64(p.len() as u64);
        for chunk in p.as_slice().chunks(64) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &bit)| w | (u64::from(bit) << i));
            self.u64(word);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn digest(feed: impl FnOnce(&mut Fnv)) -> String {
    let mut h = Fnv::new();
    feed(&mut h);
    h.hex()
}

fn result_digest(r: &TestGenResult) -> String {
    digest(|h| {
        h.u64(r.tests.len() as u64);
        for t in &r.tests {
            h.pattern(t);
        }
        for &t in &r.targets {
            h.u64(t.index() as u64);
        }
        for &n in &r.new_detections {
            h.u64(u64::from(n));
        }
        h.u64(r.status.len() as u64);
        for s in &r.status {
            let (tag, test) = match *s {
                FaultStatus::DetectedAsTarget { test } => (0, test),
                FaultStatus::DetectedAccidentally { test } => (1, test),
                FaultStatus::Redundant => (2, 0),
                FaultStatus::Aborted => (3, 0),
            };
            h.u64(tag);
            h.u64(u64::from(test));
        }
        let PodemStats {
            targets,
            tests,
            untestable,
            aborted,
            backtracks,
            decisions,
            sim_events,
            sim_updates,
            wasted_speculations: _,
            sat_resolved,
            screen_redundant,
            screen_testable,
        } = r.podem_stats;
        for v in [
            targets,
            tests,
            untestable,
            aborted,
            backtracks,
            decisions,
            sim_events,
            sim_updates,
            sat_resolved.redundant,
            sat_resolved.testable,
            sat_resolved.undecided,
            screen_redundant,
            screen_testable,
        ] {
            h.u64(v);
        }
    })
}

/// The rows of `circuit`, keyed by `"<circuit> <ordering>"`.
fn circuit_rows(c: &PaperCircuit, rows: &mut BTreeMap<String, String>) {
    let circuit = c.compiled();
    let faults = circuit.collapsed_faults();
    let selection = select_u_for(&circuit, faults, USetConfig::default());
    let analysis = AdiAnalysis::for_circuit(&circuit, faults, &selection.patterns, AdiConfig::default());
    let u = digest(|h| {
        h.u64(selection.len() as u64);
        for p in selection.patterns.iter() {
            h.pattern(&p);
        }
    });
    let adi = digest(|h| {
        for &v in analysis.adi_values() {
            h.u64(u64::from(v));
        }
    });
    let generator = TestGenerator::for_circuit(&circuit, faults, TestGenConfig::default());
    for ordering in FaultOrdering::ALL {
        let order = order_faults(&analysis, ordering);
        let result = generator.run(&order);
        let order_digest = digest(|h| {
            for &f in &order {
                h.u64(f.index() as u64);
            }
        });
        rows.insert(
            format!("{} {}", c.name, ordering.label()),
            format!(
                "tests={} u={u} adi={adi} order={order_digest} result={}",
                result.num_tests(),
                result_digest(&result)
            ),
        );
    }
}

/// Gate count up to which a circuit's rows are in the every-build table.
const SMALL_GATES: usize = 240;

fn table_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Recomputes the table `name` over `circuits` and compares it with the
/// committed one (or rewrites it under `UPDATE_GOLDEN=1`).
fn check_table(name: &str, circuits: impl IntoIterator<Item = PaperCircuit>) {
    let mut rows = BTreeMap::new();
    for c in circuits {
        circuit_rows(&c, &mut rows);
    }
    let path = table_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        let mut text = String::from(
            "# Golden result digests (tests/golden_digests.rs); regenerate with UPDATE_GOLDEN=1.\n\
             # circuit ordering tests=<count> u=<U> adi=<ADI values> order=<order> result=<TestGenResult>\n",
        );
        for (key, row) in &rows {
            text.push_str(&format!("{key} {row}\n"));
        }
        std::fs::create_dir_all(path.parent().expect("table directory")).expect("create tests/golden");
        std::fs::write(&path, text).expect("write golden table");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (UPDATE_GOLDEN=1 writes it)", path.display()));
    let mut golden = BTreeMap::new();
    for line in committed.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let mut parts = line.splitn(3, ' ');
        let (Some(circuit), Some(ordering), Some(row)) = (parts.next(), parts.next(), parts.next()) else {
            panic!("malformed golden row: {line}");
        };
        golden.insert(format!("{circuit} {ordering}"), row.to_string());
    }
    let mut moved = Vec::new();
    for (key, row) in &rows {
        match golden.get(key) {
            Some(want) if want == row => {}
            Some(want) => moved.push(format!("{key}\n  golden: {want}\n  now:    {row}")),
            None => moved.push(format!("{key}: no golden row (now {row})")),
        }
    }
    for key in golden.keys().filter(|k| !rows.contains_key(*k)) {
        moved.push(format!("{key}: golden row no longer computed"));
    }
    assert!(
        moved.is_empty(),
        "{} of {} rows of {name} moved:\n{}",
        moved.len(),
        rows.len(),
        moved.join("\n")
    );
}

/// The suite up to 240 gates (irs208 to irs526), every ordering.
#[test]
fn small_suite_matches_golden_digests() {
    check_table("small.txt", paper_suite_up_to(SMALL_GATES));
}

/// The stand-ins above 240 gates (irs641, irs820, irs953, irs1196,
/// irs5378 and irs13207), every ordering. Too slow for debug builds.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn large_suite_matches_golden_digests() {
    check_table("large.txt", paper_suite().into_iter().filter(|c| c.gates > SMALL_GATES));
}
