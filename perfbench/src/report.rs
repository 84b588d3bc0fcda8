//! The metric tables and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports all of them with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("rps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that never enters a
/// layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("netlist.compile_ms", "ms"),
    ("core.uset_ms", "ms"),
    ("core.adi_ms", "ms"),
    ("core.order_ms", "ms"),
    ("atpg.run_ms", "ms"),
    ("atpg.generate_ms", "ms"),
    ("atpg.drop_ms", "ms"),
    ("flow.residual_ms", "ms"),
    ("core.u_vectors", "count"),
    ("core.detections", "count"),
    ("atpg.targets", "count"),
    ("atpg.decisions", "count"),
    ("atpg.backtracks", "count"),
    ("atpg.aborted_targets", "count"),
    ("atpg.sat_redundant", "count"),
    ("atpg.sat_testable", "count"),
    ("atpg.sat_undecided", "count"),
    ("atpg.accidental_frac", "fraction"),
    ("atpg.targets_per_test", "ratio"),
    ("flow.tests", "count"),
    ("flow.ave_ratio", "ratio"),
    ("flow.aborted", "count"),
    ("loadgen.open_p50_ms", "ms"),
    ("loadgen.open_p90_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.max_rps", "1/s"),
    ("hits.coverage_time_frac", "fraction"),
    ("hits.ndetect_time_frac", "fraction"),
    ("hits.explicit_time_frac", "fraction"),
    ("service.hit_small_us", "us"),
    ("service.hit_large_us", "us"),
    ("service.parse_us", "us"),
    ("transport.residual_us", "us"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.hit_ratio", "fraction"),
    ("service.shed", "count"),
    ("service.evictions", "count"),
    ("service.cache_mb", "MiB"),
    ("sim.ndetect_ms", "ms"),
    ("sim.coverage_ms", "ms"),
    ("service.miss_ms", "ms"),
    ("service.miss_overhead_ms", "ms"),
    ("service.response_kb", "KiB"),
    ("client.rtt_p50_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Operations attempted and failed, for the result line.
#[derive(Clone, Copy, Default, Debug)]
pub struct Outcome {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed: errors, sheds, timeouts and failed checks.
    pub failed: u64,
}

/// What a workload measured.
#[derive(Default, Debug)]
pub struct Report {
    /// Attempted and failed operations.
    pub outcome: Outcome,
    metrics: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    /// The result line: end-to-end metrics untraced, per-layer metrics
    /// traced. Fails if an end-to-end metric is missing or not a positive
    /// finite number.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut metrics = json::Object::new();
        if traced {
            for (name, unit) in PER_LAYER {
                let value = self.layers.get(name).copied().unwrap_or(0.0);
                metrics.insert(name, entry(value, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                match self.metrics.get(name) {
                    Some(&v) if v.is_finite() && v > 0.0 => metrics.insert(name, entry(v, unit)),
                    other => return Err(format!("metric {name} has no valid value ({other:?})")),
                }
            }
        }
        let mut line = json::Object::new();
        line.insert("correct", self.outcome.failed == 0);
        line.insert("attempted", self.outcome.attempted);
        line.insert("failed", self.outcome.failed);
        line.insert("metrics", metrics);
        Ok(json::Value::Object(line).to_string())
    }
}

fn entry(value: f64, unit: &str) -> json::Object {
    let mut o = json::Object::new();
    o.insert("value", if value.is_finite() { value } else { 0.0 });
    o.insert("unit", unit);
    o
}

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// MiB, from the kernel's high-water mark.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and the benchmark's manifest name the same metrics
    /// with the same units.
    #[test]
    fn tables_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let manifest = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            manifest
                .get(key)
                .and_then(json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(json::Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn untraced_line_needs_every_end_to_end_metric() {
        let mut r = Report {
            outcome: Outcome {
                attempted: 3,
                failed: 0,
            },
            ..Report::default()
        };
        for (name, _) in END_TO_END.iter().skip(1) {
            r.metric(name, 1.5);
        }
        assert!(r.result_line(false).is_err());
        r.metric("setup_s", 0.25);
        let line = r.result_line(false).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(json::Value::as_u64), Some(3));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.as_object().unwrap().len(), END_TO_END.len());
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(json::Value::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(json::Value::as_str), Some("s"));
    }

    #[test]
    fn traced_line_reports_every_layer_and_zero_for_unused_ones() {
        let mut r = Report {
            outcome: Outcome {
                attempted: 1,
                failed: 1,
            },
            ..Report::default()
        };
        r.layer("core.order_ms", 12.5);
        let v = json::parse(&r.result_line(true).unwrap()).unwrap();
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(false));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.as_object().unwrap().len(), PER_LAYER.len());
        let value = |n: &str| m.get(n).unwrap().get("value").and_then(json::Value::as_f64);
        assert_eq!(value("core.order_ms"), Some(12.5));
        assert_eq!(value("service.hit_ratio"), Some(0.0));
    }

    #[test]
    fn peak_rss_of_this_process_is_positive() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
